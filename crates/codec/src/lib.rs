#![warn(missing_docs)]

//! # psc-codec — the default serialization mechanism (paper LM1)
//!
//! The paper's first language mechanism (LM1) is a *default serialization
//! mechanism*: "a language-provided serialization/deserialization mechanism
//! eases the transformation of event objects into conveyable low-level
//! messages". Java provides `java.io.Serializable`; this crate provides the
//! Rust-side equivalent for the reproduction: a compact, self-contained binary
//! format implemented as a [serde](https://serde.rs) data format.
//!
//! ## Format
//!
//! - integers: unsigned LEB128 varints; signed integers are zigzag-encoded
//! - floats: IEEE-754 little-endian
//! - `bool`: one byte (`0`/`1`)
//! - strings / byte strings: varint length followed by the raw bytes
//! - options: one tag byte followed by the value if present
//! - sequences and maps: varint length followed by the elements
//! - structs and tuples: the fields in declaration order, **with no field
//!   names, tags, or lengths**
//! - enums: varint variant index followed by the variant content
//!
//! The struct rule is the load-bearing one for the obvent model: an obvent
//! subclass embeds its superclass as its first field (see `psc-obvent`), so
//! the wire image of a subtype *begins with* the complete wire image of its
//! supertype. A subscriber to type `K` can therefore decode any published
//! subtype as a fresh `K` clone by reading a prefix of the payload — this is
//! exactly the paper's per-subscriber clone semantics (§2.1.2) realised
//! without reflection.
//!
//! ## Entry points
//!
//! - [`to_bytes`] / [`from_bytes`] — whole-buffer encode/decode
//! - [`to_wire_bytes`] — encode into a pooled, `Arc`-shared [`WireBytes`]
//!   buffer; the serialize-once entry point for fan-out paths
//! - [`from_bytes_prefix`] — decode a value from a prefix of the buffer,
//!   returning the number of bytes consumed (used for supertype decoding)
//! - [`frame`] — length-delimited framing for stream transports
//!
//! ```
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Quote { company: String, price: f64, amount: u32 }
//!
//! # fn main() -> Result<(), psc_codec::CodecError> {
//! let q = Quote { company: "Telco".into(), price: 80.0, amount: 10 };
//! let bytes = psc_codec::to_bytes(&q)?;
//! let back: Quote = psc_codec::from_bytes(&bytes)?;
//! assert_eq!(q, back);
//! # Ok(())
//! # }
//! ```

mod bytes;
mod de;
mod error;
pub mod frame;
pub mod hash;
mod metrics;
mod ser;
pub mod varint;

pub use bytes::{batch_frames, split_frames, to_wire_bytes, WireBytes};
pub use de::{from_bytes, from_bytes_prefix, Deserializer, MAX_DEPTH};
pub use error::CodecError;
pub use ser::{to_bytes, to_writer, Serializer};

#[cfg(test)]
mod tests;
