//! The deserializer half of the format; see the crate docs for the wire
//! layout.
//!
//! Because the format is not self-describing, `deserialize_any` is not
//! supported; values must be decoded into a statically known shape. That is
//! by design — the obvent model always knows the subscribed type (paper LP1).

use serde::de::{self, DeserializeOwned, Visitor};

use crate::{varint, CodecError};

/// Deserializes a value of type `T` from `input`, requiring that the whole
/// buffer is consumed.
///
/// # Errors
///
/// Returns [`CodecError::TrailingBytes`] when `input` holds more than one
/// value, plus any decoding error for malformed input.
pub fn from_bytes<T: DeserializeOwned>(input: &[u8]) -> Result<T, CodecError> {
    let (value, consumed) = from_bytes_prefix(input)?;
    if consumed != input.len() {
        return Err(CodecError::TrailingBytes {
            remaining: input.len() - consumed,
        });
    }
    Ok(value)
}

/// Deserializes a value of type `T` from a *prefix* of `input`, returning the
/// value and the number of bytes consumed.
///
/// This is the primitive behind supertype decoding in the obvent model: the
/// wire image of a subtype starts with the image of its superclass, so
/// decoding the superclass type from the subtype's payload succeeds and
/// simply leaves the subtype's extra fields unread.
///
/// # Errors
///
/// Any decoding error for malformed input.
pub fn from_bytes_prefix<T: DeserializeOwned>(input: &[u8]) -> Result<(T, usize), CodecError> {
    let mut de = Deserializer::new(input);
    let value = T::deserialize(&mut de)?;
    let m = crate::metrics::metrics();
    m.decodes.inc();
    m.decode_bytes.add(de.offset as u64);
    Ok((value, de.offset))
}

/// Deepest nesting of compound values (sequences, maps, tuples/structs,
/// enums, `Some`, newtypes) the decoder follows before failing with
/// [`CodecError::DepthLimit`]. Decoding recurses once per level, and so does
/// every later walk of the decoded value (evaluation, `Drop`), so input
/// from a peer or a disk must not choose the depth: a frame of
/// [`MAX_FRAME_LEN`](crate::frame::MAX_FRAME_LEN) one-byte `Not(` tags
/// would nest a filter sixteen million deep. The stack's own messages nest
/// under 20 levels; user obvents and filters get the rest.
pub const MAX_DEPTH: usize = 128;

/// Streaming deserializer over a byte slice.
#[derive(Debug)]
pub struct Deserializer<'de> {
    input: &'de [u8],
    offset: usize,
    /// Compound values currently open (bounded by [`MAX_DEPTH`]).
    depth: usize,
}

impl<'de> Deserializer<'de> {
    /// Creates a deserializer reading from the start of `input`.
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer {
            input,
            offset: 0,
            depth: 0,
        }
    }

    /// Runs `visit` one nesting level down.
    fn nested<T>(
        &mut self,
        visit: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        if self.depth == MAX_DEPTH {
            return Err(CodecError::DepthLimit { limit: MAX_DEPTH });
        }
        self.depth += 1;
        let result = visit(self);
        self.depth -= 1;
        result
    }

    /// Byte offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.offset
    }

    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() - self.offset < n {
            return Err(CodecError::UnexpectedEof {
                offset: self.input.len(),
            });
        }
        let slice = &self.input[self.offset..self.offset + n];
        self.offset += n;
        Ok(slice)
    }

    fn take_byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn take_u64(&mut self) -> Result<u64, CodecError> {
        let (value, len) = varint::decode_u64(self.input, self.offset)?;
        self.offset += len;
        Ok(value)
    }

    fn take_i64(&mut self) -> Result<i64, CodecError> {
        let (value, len) = varint::decode_i64(self.input, self.offset)?;
        self.offset += len;
        Ok(value)
    }

    fn take_len(&mut self) -> Result<usize, CodecError> {
        let claimed = self.take_u64()?;
        let remaining = self.input.len() - self.offset;
        // Each element of any collection occupies at least one byte, so a
        // length beyond the remaining byte count is necessarily corrupt.
        if claimed > remaining as u64 {
            return Err(CodecError::LengthOverflow { claimed, remaining });
        }
        Ok(claimed as usize)
    }
}

macro_rules! impl_deserialize_uint {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let raw = self.take_u64()?;
            let value = <$ty>::try_from(raw).map_err(|_| CodecError::IntegerOutOfRange)?;
            visitor.$visit(value)
        }
    };
}

macro_rules! impl_deserialize_int {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let raw = self.take_i64()?;
            let value = <$ty>::try_from(raw).map_err(|_| CodecError::IntegerOutOfRange)?;
            visitor.$visit(value)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported(
            "deserialize_any: the format is not self-describing",
        ))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take_byte()? {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            value => Err(CodecError::InvalidBool { value }),
        }
    }

    impl_deserialize_int!(deserialize_i8, visit_i8, i8);
    impl_deserialize_int!(deserialize_i16, visit_i16, i16);
    impl_deserialize_int!(deserialize_i32, visit_i32, i32);

    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let value = self.take_i64()?;
        visitor.visit_i64(value)
    }

    impl_deserialize_uint!(deserialize_u8, visit_u8, u8);
    impl_deserialize_uint!(deserialize_u16, visit_u16, u16);
    impl_deserialize_uint!(deserialize_u32, visit_u32, u32);

    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let value = self.take_u64()?;
        visitor.visit_u64(value)
    }

    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let bytes = self.take(4)?;
        visitor.visit_f32(f32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let bytes = self.take(8)?;
        visitor.visit_f64(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let raw = self.take_u64()?;
        let code = u32::try_from(raw).map_err(|_| CodecError::InvalidChar { value: u32::MAX })?;
        let ch = char::from_u32(code).ok_or(CodecError::InvalidChar { value: code })?;
        visitor.visit_char(ch)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        visitor.visit_borrowed_bytes(bytes)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take_byte()? {
            0 => visitor.visit_none(),
            1 => self.nested(|de| visitor.visit_some(de)),
            value => Err(CodecError::InvalidOptionTag { value }),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.nested(|de| visitor.visit_newtype_struct(de))
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.nested(|de| visitor.visit_seq(CountedAccess { de, remaining: len }))
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        self.nested(|de| visitor.visit_map(CountedAccess { de, remaining: len }))
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.nested(|de| visitor.visit_enum(EnumAccess { de }))
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported("identifiers are not encoded"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(
        self,
        _visitor: V,
    ) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported(
            "ignored_any: the format is not self-describing",
        ))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct CountedAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for CountedAccess<'_, 'de> {
    type Error = CodecError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> de::MapAccess<'de> for CountedAccess<'_, 'de> {
    type Error = CodecError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'de> de::EnumAccess<'de> for EnumAccess<'_, 'de> {
    type Error = CodecError;
    type Variant = Self;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), CodecError> {
        let index = self.de.take_u64()?;
        let index = u32::try_from(index).map_err(|_| CodecError::IntegerOutOfRange)?;
        let value = seed.deserialize(de::value::U32Deserializer::<CodecError>::new(index))?;
        Ok((value, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumAccess<'_, 'de> {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}
