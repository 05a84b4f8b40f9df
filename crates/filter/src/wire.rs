//! Filters as they arrive: checked bytes, decoded only as far as needed.
//!
//! A peer ships each subscription's filter as its `psc-codec` encoding. A
//! node that indexes it needs the evaluation tree, but of the predicates
//! only the ones its index does not already hold: the rest are known by
//! their bytes. [`WireFilter::parse`] therefore checks the whole encoding
//! and decodes the tree, but keeps each predicate as the span of bytes
//! that encodes it; [`FilterIndex::insert_wire`](crate::FilterIndex)
//! looks the spans up and decodes only the new ones.
//!
//! The reader walks the codec's layout directly (see the `psc-codec` crate
//! docs): structs are their fields in order, enums a varint variant index
//! and the variant's content, sequences and maps a varint length and their
//! elements. It accepts exactly the bytes that
//! `psc_codec::from_bytes::<RemoteFilter>` followed by
//! [`RemoteFilter::validate`](crate::RemoteFilter::validate) accepts, and
//! fails with the same error: it opens a nesting level wherever the
//! codec's deserializer does (so `psc_codec::MAX_DEPTH` bounds the same
//! values), checks every length against the remaining input first, and
//! reads integers with the codec's own varint functions. The property
//! tests `wire_parse_agrees_with_the_codec` and
//! `wire_parse_agrees_at_the_depth_bound` compare the two.
//!
//! The enums it walks are named by their variants, not counted by hand:
//! `CMP_OPS`, `ValueTag` and `EvalTag` list them in declaration order
//! (the codec's variant index), and each is tied to its enum by an
//! exhaustive `match`, so a variant added to `CmpOp`, `Value` or `EvalNode`
//! stops this module compiling until the reader learns it. The test
//! `wire_tags_follow_the_codec` checks the order and the count against the
//! codec.

use psc_codec::{varint, CodecError, MAX_DEPTH};

use crate::expr::check_tree;
use crate::{CmpOp, EvalNode, InvalidFilter, Predicate, Value, MAX_WIRE_PREDICATES};

/// `CmpOp`'s variants in declaration order.
pub(crate) const CMP_OPS: [CmpOp; 10] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Contains,
    CmpOp::StartsWith,
    CmpOp::EndsWith,
    CmpOp::Exists,
];

/// `op`'s place in `CMP_OPS`: exhaustive, so a new operator does not
/// compile until it is listed there.
pub(crate) const fn cmp_op_index(op: CmpOp) -> usize {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
        CmpOp::Contains => 6,
        CmpOp::StartsWith => 7,
        CmpOp::EndsWith => 8,
        CmpOp::Exists => 9,
    }
}

const _: () = {
    let mut i = 0;
    while i < CMP_OPS.len() {
        assert!(cmp_op_index(CMP_OPS[i]) == i, "CMP_OPS is out of order");
        i += 1;
    }
};

/// `Value`'s variants in declaration order: what follows the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ValueTag {
    Unit,
    Bool,
    Int,
    UInt,
    Float,
    Str,
    List,
    Record,
}

impl ValueTag {
    pub(crate) const ALL: [ValueTag; 8] = [
        ValueTag::Unit,
        ValueTag::Bool,
        ValueTag::Int,
        ValueTag::UInt,
        ValueTag::Float,
        ValueTag::Str,
        ValueTag::List,
        ValueTag::Record,
    ];

    /// Exhaustive over `Value`, so a new variant does not compile until it
    /// has a tag.
    pub(crate) fn of(value: &Value) -> ValueTag {
        match value {
            Value::Unit => ValueTag::Unit,
            Value::Bool(_) => ValueTag::Bool,
            Value::Int(_) => ValueTag::Int,
            Value::UInt(_) => ValueTag::UInt,
            Value::Float(_) => ValueTag::Float,
            Value::Str(_) => ValueTag::Str,
            Value::List(_) => ValueTag::List,
            Value::Record(_) => ValueTag::Record,
        }
    }
}

/// `EvalNode`'s variants in declaration order: what follows the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EvalTag {
    True,
    False,
    Pred,
    And,
    Or,
    Not,
}

impl EvalTag {
    pub(crate) const ALL: [EvalTag; 6] = [
        EvalTag::True,
        EvalTag::False,
        EvalTag::Pred,
        EvalTag::And,
        EvalTag::Or,
        EvalTag::Not,
    ];

    /// Exhaustive over `EvalNode`, so a new node does not compile until it
    /// has a tag.
    pub(crate) fn of(node: &EvalNode) -> EvalTag {
        match node {
            EvalNode::True => EvalTag::True,
            EvalNode::False => EvalTag::False,
            EvalNode::Pred(_) => EvalTag::Pred,
            EvalNode::And(_) => EvalTag::And,
            EvalNode::Or(_) => EvalTag::Or,
            EvalNode::Not(_) => EvalTag::Not,
        }
    }
}

// The tags' `of` are the compile-time tie; naming them here keeps them
// built outside the tests too.
const _: fn(&Value) -> ValueTag = ValueTag::of;
const _: fn(&EvalNode) -> EvalTag = EvalTag::of;

/// A checked, encoded filter: its evaluation tree, decoded, and its
/// predicates as the byte spans that encode them.
#[derive(Debug)]
pub struct WireFilter<'a> {
    preds: Vec<&'a [u8]>,
    eval: EvalNode,
}

impl<'a> WireFilter<'a> {
    /// Checks `bytes` as an encoded [`RemoteFilter`](crate::RemoteFilter):
    /// it must decode, with nothing left over, and pass
    /// [`RemoteFilter::validate`](crate::RemoteFilter::validate).
    ///
    /// # Errors
    ///
    /// The [`InvalidFilter`] that
    /// [`RemoteFilter::from_wire`](crate::RemoteFilter::from_wire) reports
    /// for the same bytes.
    pub fn parse(bytes: &'a [u8]) -> Result<WireFilter<'a>, InvalidFilter> {
        let mut reader = Reader {
            input: bytes,
            offset: 0,
            depth: 0,
        };
        let (preds, eval) = reader
            .nested(|r| {
                let preds = r.seq(|r| {
                    let start = r.offset;
                    r.predicate()?;
                    Ok(&r.input[start..r.offset])
                })?;
                Ok((preds, r.eval()?))
            })
            .map_err(InvalidFilter::Codec)?;
        if reader.offset != bytes.len() {
            return Err(InvalidFilter::Codec(CodecError::TrailingBytes {
                remaining: bytes.len() - reader.offset,
            }));
        }
        if preds.len() > MAX_WIRE_PREDICATES {
            return Err(InvalidFilter::TooLarge);
        }
        check_tree(&eval, preds.len())?;
        Ok(WireFilter { preds, eval })
    }

    /// The encodings of the filter's predicates, in order.
    pub(crate) fn predicate_bytes(&self) -> &[&'a [u8]] {
        &self.preds
    }

    /// Decodes one of the filter's predicates from its span. Never fails
    /// on a span of a parsed filter: its bytes were checked at the depth
    /// the predicate sits at inside the filter, and decoded on their own
    /// they start shallower.
    pub(crate) fn decode_predicate(span: &[u8]) -> Result<Predicate, CodecError> {
        psc_codec::from_bytes(span)
    }

    /// The tree, for an index that stores it.
    pub(crate) fn into_eval(self) -> EvalNode {
        self.eval
    }
}

/// Where the reader is in its input; `depth` counts the compound values
/// open, as the codec's deserializer counts them.
struct Reader<'a> {
    input: &'a [u8],
    offset: usize,
    depth: usize,
}

type Read<T> = Result<T, CodecError>;

impl<'a> Reader<'a> {
    /// Runs `read` one nesting level down (a struct, sequence, map or enum).
    fn nested<T>(&mut self, read: impl FnOnce(&mut Self) -> Read<T>) -> Read<T> {
        if self.depth == MAX_DEPTH {
            return Err(CodecError::DepthLimit { limit: MAX_DEPTH });
        }
        self.depth += 1;
        let value = read(self);
        self.depth -= 1;
        value
    }

    fn take(&mut self, n: usize) -> Read<&'a [u8]> {
        if self.input.len() - self.offset < n {
            return Err(CodecError::UnexpectedEof {
                offset: self.input.len(),
            });
        }
        let bytes = &self.input[self.offset..self.offset + n];
        self.offset += n;
        Ok(bytes)
    }

    fn u64(&mut self) -> Read<u64> {
        let (value, len) = varint::decode_u64(self.input, self.offset)?;
        self.offset += len;
        Ok(value)
    }

    /// A length prefix: every element takes at least one byte, so a
    /// length beyond the remaining input is corrupt.
    fn len(&mut self) -> Read<usize> {
        let claimed = self.u64()?;
        let remaining = self.input.len() - self.offset;
        if claimed > remaining as u64 {
            return Err(CodecError::LengthOverflow { claimed, remaining });
        }
        Ok(claimed as usize)
    }

    fn string(&mut self) -> Read<()> {
        let len = self.len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CodecError::InvalidUtf8)?;
        Ok(())
    }

    /// A sequence of `read`s, collected. The capacity is bounded: a
    /// claimed length is only known to fit once its elements are read.
    fn seq<T>(&mut self, mut read: impl FnMut(&mut Self) -> Read<T>) -> Read<Vec<T>> {
        let len = self.len()?;
        self.nested(|r| {
            let mut items = Vec::with_capacity(len.min(16));
            for _ in 0..len {
                items.push(read(r)?);
            }
            Ok(items)
        })
    }

    /// A sequence of `read`s, checked and dropped.
    fn skip_seq(&mut self, mut read: impl FnMut(&mut Self) -> Read<()>) -> Read<()> {
        let len = self.len()?;
        self.nested(|r| (0..len).try_for_each(|_| read(r)))
    }

    /// An enum's variant, named by its index into `variants` (the enum's
    /// variants in declaration order); the caller reads the content inside
    /// the same nesting level.
    fn variant<T: Copy>(&mut self, name: &str, variants: &[T]) -> Read<T> {
        let index = u32::try_from(self.u64()?).map_err(|_| CodecError::IntegerOutOfRange)?;
        variants.get(index as usize).copied().ok_or_else(|| {
            CodecError::Message(format!("invalid variant index {index} for enum {name}"))
        })
    }

    /// A `Predicate { path: PropPath { segments }, op: CmpOp, operand }`.
    fn predicate(&mut self) -> Read<()> {
        self.nested(|r| {
            r.nested(|r| r.skip_seq(Reader::string))?;
            r.nested(|r| r.variant("CmpOp", &CMP_OPS).map(drop))?;
            r.value()
        })
    }

    /// A `Value`.
    fn value(&mut self) -> Read<()> {
        self.nested(|r| match r.variant("Value", &ValueTag::ALL)? {
            ValueTag::Unit => Ok(()),
            ValueTag::Bool => match r.take(1)?[0] {
                0 | 1 => Ok(()),
                value => Err(CodecError::InvalidBool { value }),
            },
            ValueTag::Int => varint::decode_i64(r.input, r.offset).map(|(_, len)| r.offset += len),
            ValueTag::UInt => r.u64().map(drop),
            ValueTag::Float => r.take(8).map(drop),
            ValueTag::Str => r.string(),
            ValueTag::List => r.skip_seq(Reader::value),
            ValueTag::Record => {
                let len = r.len()?;
                r.nested(|r| {
                    (0..len).try_for_each(|_| {
                        r.string()?;
                        r.value()
                    })
                })
            }
        })
    }

    /// An `EvalNode`.
    fn eval(&mut self) -> Read<EvalNode> {
        self.nested(|r| {
            Ok(match r.variant("EvalNode", &EvalTag::ALL)? {
                EvalTag::True => EvalNode::True,
                EvalTag::False => EvalNode::False,
                EvalTag::Pred => EvalNode::Pred(
                    usize::try_from(r.u64()?)
                        .map_err(|_| CodecError::Message("usize out of range".into()))?,
                ),
                EvalTag::And => EvalNode::And(r.seq(Reader::eval)?),
                EvalTag::Or => EvalNode::Or(r.seq(Reader::eval)?),
                EvalTag::Not => EvalNode::Not(Box::new(r.eval()?)),
            })
        })
    }
}
