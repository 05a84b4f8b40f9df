use std::collections::BTreeMap;

use proptest::prelude::*;
use serde::{Deserialize, Serialize};

use crate::{from_bytes, from_bytes_prefix, to_bytes, CodecError};

fn roundtrip<T: Serialize + serde::de::DeserializeOwned + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = to_bytes(value).expect("encode");
    let back: T = from_bytes(&bytes).expect("decode");
    assert_eq!(&back, value);
}

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct Simple {
    a: u32,
    b: String,
    c: bool,
}

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
struct Nested {
    inner: Simple,
    list: Vec<i64>,
    map: BTreeMap<String, f64>,
    opt: Option<Box<Nested>>,
}

#[derive(Serialize, Deserialize, PartialEq, Debug, Clone)]
enum Mixed {
    Unit,
    One(u8),
    Pair(String, i32),
    Struct { x: f32, y: f32 },
}

#[derive(Serialize, Deserialize, PartialEq, Debug)]
struct UnitStruct;

#[derive(Serialize, Deserialize, PartialEq, Debug)]
struct NewType(u64);

#[test]
fn primitives_roundtrip() {
    roundtrip(&true);
    roundtrip(&false);
    roundtrip(&0u8);
    roundtrip(&u8::MAX);
    roundtrip(&i8::MIN);
    roundtrip(&u16::MAX);
    roundtrip(&i16::MIN);
    roundtrip(&u32::MAX);
    roundtrip(&i32::MIN);
    roundtrip(&u64::MAX);
    roundtrip(&i64::MIN);
    roundtrip(&1.5f32);
    roundtrip(&-2.25f64);
    roundtrip(&'x');
    roundtrip(&'\u{1F600}');
    roundtrip(&String::from("hello world"));
    roundtrip(&String::new());
}

#[test]
fn f64_nan_payload_survives() {
    let bytes = to_bytes(&f64::NAN).unwrap();
    let back: f64 = from_bytes(&bytes).unwrap();
    assert!(back.is_nan());
}

#[test]
fn collections_roundtrip() {
    roundtrip(&vec![1u32, 2, 3]);
    roundtrip(&Vec::<u32>::new());
    roundtrip(&vec![vec![1u8], vec![], vec![2, 3]]);
    let mut map = BTreeMap::new();
    map.insert("a".to_string(), 1i64);
    map.insert("b".to_string(), -2);
    roundtrip(&map);
    roundtrip(&(1u8, "two".to_string(), 3.0f64));
    roundtrip(&Some(42u64));
    roundtrip(&Option::<u64>::None);
    roundtrip(&UnitStruct);
    roundtrip(&NewType(99));
}

#[test]
fn structs_and_enums_roundtrip() {
    let simple = Simple {
        a: 7,
        b: "seven".into(),
        c: true,
    };
    roundtrip(&simple);
    let nested = Nested {
        inner: simple.clone(),
        list: vec![-1, 0, i64::MAX],
        map: BTreeMap::from([("pi".to_string(), 3.5)]),
        opt: Some(Box::new(Nested {
            inner: simple,
            list: vec![],
            map: BTreeMap::new(),
            opt: None,
        })),
    };
    roundtrip(&nested);
    roundtrip(&Mixed::Unit);
    roundtrip(&Mixed::One(9));
    roundtrip(&Mixed::Pair("p".into(), -9));
    roundtrip(&Mixed::Struct { x: 1.0, y: 2.0 });
}

#[test]
fn struct_encoding_has_no_field_names() {
    // A struct must encode exactly as the tuple of its fields: this is the
    // prefix-layout property the obvent model depends on.
    let s = Simple {
        a: 300,
        b: "x".into(),
        c: false,
    };
    let as_struct = to_bytes(&s).unwrap();
    let as_tuple = to_bytes(&(300u32, "x", false)).unwrap();
    assert_eq!(as_struct, as_tuple);
}

#[test]
fn prefix_decoding_reads_leading_fields_only() {
    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Base {
        company: String,
        price: f64,
    }
    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Extended {
        base: Base,
        amount: u32,
        venue: String,
    }

    let ext = Extended {
        base: Base {
            company: "Telco".into(),
            price: 80.0,
        },
        amount: 10,
        venue: "ZRH".into(),
    };
    let bytes = to_bytes(&ext).unwrap();
    let (base, consumed): (Base, usize) = from_bytes_prefix(&bytes).unwrap();
    assert_eq!(base.company, "Telco");
    assert_eq!(base.price, 80.0);
    assert!(consumed < bytes.len());
    // The full decode still works on the same buffer.
    let full: Extended = from_bytes(&bytes).unwrap();
    assert_eq!(full, ext);
}

#[test]
fn whole_buffer_decode_rejects_trailing_bytes() {
    let mut bytes = to_bytes(&5u32).unwrap();
    bytes.push(0xAA);
    let err = from_bytes::<u32>(&bytes).unwrap_err();
    assert!(matches!(err, CodecError::TrailingBytes { remaining: 1 }));
}

#[test]
fn truncated_input_reports_eof() {
    // Truncating inside the string body looks like a length overflow (the
    // sanity check fires before the body read); truncating a fixed-width
    // float reports a plain EOF.
    let bytes = to_bytes(&"hello world".to_string()).unwrap();
    let err = from_bytes::<String>(&bytes[..5]).unwrap_err();
    assert!(matches!(err, CodecError::LengthOverflow { .. }));

    let bytes = to_bytes(&1.0f64).unwrap();
    let err = from_bytes::<f64>(&bytes[..4]).unwrap_err();
    assert!(matches!(err, CodecError::UnexpectedEof { .. }));
}

#[test]
fn corrupt_length_prefix_is_rejected_without_allocation() {
    // Claim a 2^60-element vector in a 3-byte buffer.
    let mut bytes = Vec::new();
    crate::varint::encode_u64(1 << 60, &mut bytes);
    let err = from_bytes::<Vec<u8>>(&bytes).unwrap_err();
    assert!(matches!(err, CodecError::LengthOverflow { .. }));
}

#[test]
fn invalid_bool_and_option_tags_are_rejected() {
    assert!(matches!(
        from_bytes::<bool>(&[2]),
        Err(CodecError::InvalidBool { value: 2 })
    ));
    assert!(matches!(
        from_bytes::<Option<u8>>(&[7]),
        Err(CodecError::InvalidOptionTag { value: 7 })
    ));
}

#[test]
fn invalid_utf8_is_rejected() {
    // length 2, bytes [0xff, 0xff]
    let bytes = vec![2, 0xff, 0xff];
    assert!(matches!(
        from_bytes::<String>(&bytes),
        Err(CodecError::InvalidUtf8)
    ));
}

#[test]
fn invalid_char_is_rejected() {
    let bytes = to_bytes(&0xD800u32).unwrap(); // a surrogate code point
    assert!(matches!(
        from_bytes::<char>(&bytes),
        Err(CodecError::InvalidChar { .. })
    ));
}

#[test]
fn out_of_range_integer_is_rejected() {
    let bytes = to_bytes(&300u32).unwrap();
    assert!(matches!(
        from_bytes::<u8>(&bytes),
        Err(CodecError::IntegerOutOfRange)
    ));
}

#[test]
fn unknown_enum_variant_index_is_rejected() {
    let bytes = to_bytes(&9u32).unwrap();
    assert!(from_bytes::<Mixed>(&bytes).is_err());
}

/// A recursive shape like the filter crate's `Not(Box<EvalNode>)`: one tag
/// byte per level.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Chain {
    End,
    Link(Box<Chain>),
}

fn chain_bytes(links: usize) -> Vec<u8> {
    let mut bytes = vec![1u8; links];
    bytes.push(0);
    bytes
}

#[test]
fn nesting_up_to_the_limit_decodes() {
    // `links` enums nested inside each other plus the innermost `End`.
    let deepest = crate::MAX_DEPTH - 1;
    let mut chain = from_bytes::<Chain>(&chain_bytes(deepest)).unwrap();
    let mut links = 0;
    while let Chain::Link(next) = chain {
        chain = *next;
        links += 1;
    }
    assert_eq!(links, deepest);
}

#[test]
fn nesting_beyond_the_limit_is_an_error_not_a_stack_overflow() {
    for links in [crate::MAX_DEPTH, 100_000, 4_000_000] {
        assert_eq!(
            from_bytes::<Chain>(&chain_bytes(links)),
            Err(CodecError::DepthLimit {
                limit: crate::MAX_DEPTH
            }),
            "{links} links"
        );
    }
}

#[test]
fn every_compound_level_counts_towards_the_limit() {
    // A newtype around a sequence: two levels per tree level.
    #[derive(Debug, Deserialize)]
    struct Tree(#[allow(dead_code)] Vec<Tree>);
    let fits = crate::MAX_DEPTH / 2 - 1;
    assert!(from_bytes::<Tree>(&chain_bytes(fits)).is_ok());
    assert!(matches!(
        from_bytes::<Tree>(&chain_bytes(fits + 1)),
        Err(CodecError::DepthLimit { .. })
    ));
}

#[test]
fn error_display_is_lowercase_and_nonempty() {
    let errs: Vec<CodecError> = vec![
        CodecError::UnexpectedEof { offset: 3 },
        CodecError::InvalidVarint { offset: 0 },
        CodecError::InvalidBool { value: 9 },
        CodecError::InvalidUtf8,
        CodecError::TrailingBytes { remaining: 2 },
        CodecError::DepthLimit { limit: 128 },
        CodecError::Message("boom".into()),
    ];
    for err in errs {
        let msg = err.to_string();
        assert!(!msg.is_empty());
        assert!(!msg.chars().next().unwrap().is_uppercase());
    }
}

fn arb_mixed() -> impl Strategy<Value = Mixed> {
    prop_oneof![
        Just(Mixed::Unit),
        any::<u8>().prop_map(Mixed::One),
        (".*", any::<i32>()).prop_map(|(s, i)| Mixed::Pair(s, i)),
        (any::<f32>(), any::<f32>()).prop_map(|(x, y)| Mixed::Struct { x, y }),
    ]
}

proptest! {
    #[test]
    fn prop_u64_roundtrip(v: u64) { roundtrip(&v); }

    #[test]
    fn prop_i64_roundtrip(v: i64) { roundtrip(&v); }

    #[test]
    fn prop_string_roundtrip(s in ".*") { roundtrip(&s); }

    #[test]
    fn prop_bytes_roundtrip(b in proptest::collection::vec(any::<u8>(), 0..256)) {
        roundtrip(&b);
    }

    #[test]
    fn prop_struct_roundtrip(a: u32, b in ".*", c: bool) {
        roundtrip(&Simple { a, b, c });
    }

    #[test]
    fn prop_enum_roundtrip(m in arb_mixed()) {
        let bytes = to_bytes(&m).unwrap();
        let back: Mixed = from_bytes(&bytes).unwrap();
        // NaN-safe comparison for the float variant.
        match (&m, &back) {
            (Mixed::Struct { x: x1, y: y1 }, Mixed::Struct { x: x2, y: y2 }) => {
                prop_assert!(x1.to_bits() == x2.to_bits() && y1.to_bits() == y2.to_bits());
            }
            _ => prop_assert_eq!(&m, &back),
        }
    }

    #[test]
    fn prop_decoding_arbitrary_bytes_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..128)
    ) {
        let _ = from_bytes::<Nested>(&bytes);
        let _ = from_bytes::<Mixed>(&bytes);
        let _ = from_bytes::<Vec<String>>(&bytes);
    }

    #[test]
    fn prop_prefix_decode_consumed_matches_encoding(a: u32, b in ".*", c: bool, extra in proptest::collection::vec(any::<u8>(), 0..32)) {
        let s = Simple { a, b, c };
        let mut bytes = to_bytes(&s).unwrap();
        let encoded_len = bytes.len();
        bytes.extend_from_slice(&extra);
        let (back, consumed): (Simple, usize) = from_bytes_prefix(&bytes).unwrap();
        prop_assert_eq!(back, s);
        prop_assert_eq!(consumed, encoded_len);
    }

    /// CRC frame streams reassemble byte-exactly when split at EVERY
    /// position: each single split point lands somewhere — possibly
    /// mid-length-prefix (offset 1..4) or mid-CRC (offset 4..8) of some
    /// frame — and the reassembler must not care.
    #[test]
    fn prop_crc_stream_every_split_point(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..5)
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            crate::frame::encode_crc(p, &mut stream);
        }
        for split in 0..=stream.len() {
            let mut fr = crate::frame::FrameReassembler::new();
            let mut frames = Vec::new();
            fr.extend(&stream[..split]);
            while let Some(f) = fr.next_frame().unwrap() {
                frames.push(f);
            }
            fr.extend(&stream[split..]);
            while let Some(f) = fr.next_frame().unwrap() {
                frames.push(f);
            }
            prop_assert_eq!(&frames, &payloads, "split at byte {}", split);
            prop_assert_eq!(fr.pending_len(), 0);
        }
    }

    /// Random multi-way chunkings (including 1-byte chunks) reassemble the
    /// same frame sequence as a single-shot feed.
    #[test]
    fn prop_crc_stream_random_chunking(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..6),
        chunk_sizes in proptest::collection::vec(1usize..9, 1..64)
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            crate::frame::encode_crc(p, &mut stream);
        }
        let mut fr = crate::frame::FrameReassembler::new();
        let mut frames = Vec::new();
        let mut offset = 0;
        let mut sizes = chunk_sizes.iter().cycle();
        while offset < stream.len() {
            let take = (*sizes.next().unwrap()).min(stream.len() - offset);
            fr.extend(&stream[offset..offset + take]);
            offset += take;
            while let Some(f) = fr.next_frame().unwrap() {
                frames.push(f);
            }
        }
        prop_assert_eq!(&frames, &payloads);
        prop_assert_eq!(fr.pending_len(), 0);
    }

    /// Flipping any single bit in a frame stream is rejected cleanly: every
    /// intact frame before the damage comes out byte-exact, and the
    /// damaged region surfaces as an error (never a panic, never a bogus
    /// frame accepted with a matching checksum).
    #[test]
    fn prop_crc_single_bit_corruption_rejected(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..32), 1..4),
        bit in any::<u64>()
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            crate::frame::encode_crc(p, &mut stream);
        }
        let flip = (bit % (stream.len() as u64 * 8)) as usize;
        stream[flip / 8] ^= 1 << (flip % 8);
        let mut fr = crate::frame::FrameReassembler::new();
        fr.extend(&stream);
        let mut intact = 0usize;
        loop {
            match fr.next_frame() {
                Ok(Some(f)) => {
                    prop_assert_eq!(&f, &payloads[intact], "pre-damage frame altered");
                    intact += 1;
                }
                // A flipped length-prefix bit can shrink a frame so the
                // stream ends mid-frame instead of erroring: that must
                // leave a visible truncated tail (or desync into a later
                // CRC failure), never a wrongly-accepted full sequence.
                Ok(None) => {
                    prop_assert!(
                        intact < payloads.len() && fr.pending_len() > 0,
                        "corruption vanished: {} of {} frames accepted",
                        intact, payloads.len()
                    );
                    break;
                }
                Err(_) => break,
            }
        }
        prop_assert!(intact < payloads.len(), "all frames accepted despite corruption");
    }

    /// Truncating the stream anywhere strictly inside the final frame
    /// yields every earlier frame plus a pending (never silently dropped,
    /// never fabricated) tail.
    #[test]
    fn prop_crc_truncated_tail_never_fabricates(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32), 1..4),
        cut in any::<u64>()
    ) {
        let mut stream = Vec::new();
        let mut starts = Vec::new();
        for p in &payloads {
            starts.push(stream.len());
            crate::frame::encode_crc(p, &mut stream);
        }
        let last_start = *starts.last().unwrap();
        // Cut strictly inside the last frame.
        let cut_at = last_start + (cut % (stream.len() - last_start) as u64) as usize;
        let mut fr = crate::frame::FrameReassembler::new();
        fr.extend(&stream[..cut_at]);
        let mut frames = Vec::new();
        while let Some(f) = fr.next_frame().unwrap() {
            frames.push(f);
        }
        prop_assert_eq!(&frames[..], &payloads[..payloads.len() - 1]);
        prop_assert_eq!(fr.pending_len(), cut_at - last_start);
    }
}

#[test]
fn to_writer_writes_the_same_bytes() {
    let value = Simple {
        a: 7,
        b: "w".into(),
        c: true,
    };
    let direct = to_bytes(&value).unwrap();
    let mut sink = Vec::new();
    crate::to_writer(&value, &mut sink).unwrap();
    assert_eq!(sink, direct);
}

#[test]
fn serializer_with_buffer_reuses_capacity() {
    let buf = Vec::with_capacity(1024);
    let mut ser = crate::Serializer::with_buffer(buf);
    use serde::Serialize;
    42u8.serialize(&mut ser).unwrap();
    let out = ser.into_bytes();
    assert_eq!(out, vec![42]);
    assert!(out.capacity() >= 1024);
}

#[test]
fn deserializer_reports_offset() {
    let bytes = to_bytes(&(1u8, 2u8)).unwrap();
    let mut de = crate::Deserializer::new(&bytes);
    use serde::Deserialize;
    let _first = u8::deserialize(&mut de).unwrap();
    assert_eq!(de.offset(), 1);
}
