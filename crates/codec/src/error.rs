use std::fmt;

/// Error produced while encoding or decoding a value.
///
/// A single error type covers both directions: the serializer can only fail
/// on custom messages and writer errors, while the deserializer adds the
/// malformed-input variants.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before the value was fully decoded.
    UnexpectedEof {
        /// Byte offset at which more input was required.
        offset: usize,
    },
    /// A varint ran past its maximum encoded length or overflowed.
    InvalidVarint {
        /// Byte offset of the first varint byte.
        offset: usize,
    },
    /// A boolean byte was neither `0` nor `1`.
    InvalidBool {
        /// Offending byte value.
        value: u8,
    },
    /// A `char` was decoded from an invalid Unicode scalar value.
    InvalidChar {
        /// Offending code point.
        value: u32,
    },
    /// A string's bytes were not valid UTF-8.
    InvalidUtf8,
    /// An `Option` tag byte was neither `0` nor `1`.
    InvalidOptionTag {
        /// Offending byte value.
        value: u8,
    },
    /// A length prefix exceeded the remaining input, indicating corruption.
    LengthOverflow {
        /// Claimed length.
        claimed: u64,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// An integer did not fit the target type.
    IntegerOutOfRange,
    /// Compound values nested deeper than the decoder follows.
    DepthLimit {
        /// The bound that was hit ([`MAX_DEPTH`](crate::MAX_DEPTH)).
        limit: usize,
    },
    /// The format does not support the requested serde feature.
    Unsupported(&'static str),
    /// Trailing bytes remained after a whole-buffer decode.
    TrailingBytes {
        /// Number of bytes left over.
        remaining: usize,
    },
    /// A checksummed frame's CRC32 did not match its payload.
    CrcMismatch {
        /// Checksum claimed by the frame header.
        expected: u32,
        /// Checksum computed over the received payload.
        actual: u32,
    },
    /// Custom message raised by a `Serialize`/`Deserialize` implementation.
    Message(String),
    /// An underlying writer failed.
    Io(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { offset } => {
                write!(f, "unexpected end of input at byte {offset}")
            }
            CodecError::InvalidVarint { offset } => {
                write!(f, "invalid varint encoding at byte {offset}")
            }
            CodecError::InvalidBool { value } => write!(f, "invalid bool byte {value:#04x}"),
            CodecError::InvalidChar { value } => {
                write!(f, "invalid unicode scalar value {value:#x}")
            }
            CodecError::InvalidUtf8 => write!(f, "string bytes were not valid utf-8"),
            CodecError::InvalidOptionTag { value } => {
                write!(f, "invalid option tag byte {value:#04x}")
            }
            CodecError::LengthOverflow { claimed, remaining } => write!(
                f,
                "length prefix {claimed} exceeds {remaining} remaining bytes"
            ),
            CodecError::IntegerOutOfRange => write!(f, "integer out of range for target type"),
            CodecError::DepthLimit { limit } => {
                write!(f, "values nested deeper than {limit} levels")
            }
            CodecError::Unsupported(what) => write!(f, "unsupported serde feature: {what}"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            CodecError::CrcMismatch { expected, actual } => write!(
                f,
                "frame crc mismatch: header claims {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            CodecError::Message(msg) => f.write_str(msg),
            CodecError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl serde::ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

impl serde::de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

impl From<std::io::Error> for CodecError {
    fn from(err: std::io::Error) -> Self {
        CodecError::Io(err.to_string())
    }
}
