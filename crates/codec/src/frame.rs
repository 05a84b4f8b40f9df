//! Length-delimited framing for stream transports.
//!
//! A frame is a `u32` little-endian length followed by that many payload
//! bytes; it gives several messages coalesced into one buffer their
//! boundaries back.
//!
//! Real sockets additionally want corruption detection at the framing
//! layer: a flipped length byte otherwise desynchronizes the stream and
//! every later "frame" is garbage. The checksummed variant
//! ([`encode_crc`] / [`FrameReassembler`]) prepends
//! `[len u32le][crc32 u32le]` and verifies the CRC32 (IEEE) of the payload
//! before handing the frame up.

use crate::CodecError;

/// Hard upper bound on a single frame's payload, guarding against corrupt
/// length prefixes (16 MiB).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Appends a frame containing `payload` to `out`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`]; obvents are small by
/// design (paper §2.1.1: "small unbound objects").
pub fn encode(payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame payload of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    crate::metrics::metrics().frame_encodes.inc();
}

/// Appends one frame per payload to `out`, producing a batch that
/// [`split_frames`](crate::split_frames) (or repeated [`decode`]) takes
/// apart again. Coalescing several small messages to one destination into a
/// single batch frame is what the DACE transmit path uses to amortize
/// per-message delivery overhead.
///
/// # Panics
///
/// Panics if any payload exceeds [`MAX_FRAME_LEN`].
pub fn encode_batch<'a, I>(payloads: I, out: &mut Vec<u8>)
where
    I: IntoIterator<Item = &'a [u8]>,
{
    for payload in payloads {
        encode(payload, out);
    }
}

/// Attempts to split one frame off the front of `input`.
///
/// Returns `Ok(None)` when the buffer does not yet hold a complete frame
/// (the caller should read more bytes), or `Ok(Some((payload, consumed)))`
/// when a frame is available.
///
/// # Errors
///
/// Returns [`CodecError::LengthOverflow`] if the length prefix exceeds
/// [`MAX_FRAME_LEN`].
pub fn decode(input: &[u8]) -> Result<Option<(&[u8], usize)>, CodecError> {
    if input.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(input[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(CodecError::LengthOverflow {
            claimed: len as u64,
            remaining: MAX_FRAME_LEN,
        });
    }
    if input.len() < 4 + len {
        return Ok(None);
    }
    crate::metrics::metrics().frame_decodes.inc();
    Ok(Some((&input[4..4 + len], 4 + len)))
}

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the classic
/// table-driven byte-at-a-time implementation, built once on demand.
pub fn crc32(data: &[u8]) -> u32 {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = !0u32;
    for &byte in data {
        crc = table[((crc ^ byte as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Byte length of the checksummed frame header (`len` + `crc`).
pub const CRC_HEADER_LEN: usize = 8;

/// Appends a checksummed frame (`[len u32le][crc32 u32le][payload]`) to
/// `out`. The counterpart of [`FrameReassembler`]; the wire format for the
/// socket transport.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`].
pub fn encode_crc(payload: &[u8], out: &mut Vec<u8>) {
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "frame payload of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    crate::metrics::metrics().frame_encodes.inc();
}

/// Incremental decoder for the checksummed frame format, built for socket
/// readers: feed whatever chunk `read()` returned — a split may land
/// mid-length-prefix, mid-CRC, or mid-payload — and drain complete,
/// verified frames.
///
/// Errors are sticky: a length overflow or CRC mismatch means the stream
/// has lost sync and no later byte can be trusted, so every subsequent
/// [`next_frame`](FrameReassembler::next_frame) call repeats the error and
/// the connection must be dropped.
#[derive(Debug, Default)]
pub struct FrameReassembler {
    buf: Vec<u8>,
    cursor: usize,
    poisoned: Option<CodecError>,
}

impl FrameReassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw stream bytes (any split, including mid-header).
    pub fn extend(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Removes and returns the next complete, CRC-verified frame payload,
    /// or `None` when the buffered bytes end mid-frame (read more).
    ///
    /// # Errors
    ///
    /// [`CodecError::LengthOverflow`] for a corrupt length prefix,
    /// [`CodecError::CrcMismatch`] when the payload fails its checksum.
    /// Both poison the reassembler (see type docs).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, CodecError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let pending = &self.buf[self.cursor..];
        if pending.len() < CRC_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            let err = CodecError::LengthOverflow {
                claimed: len as u64,
                remaining: MAX_FRAME_LEN,
            };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        let expected = u32::from_le_bytes(pending[4..8].try_into().expect("4 bytes"));
        if pending.len() < CRC_HEADER_LEN + len {
            return Ok(None);
        }
        let payload = &pending[CRC_HEADER_LEN..CRC_HEADER_LEN + len];
        let actual = crc32(payload);
        if actual != expected {
            let err = CodecError::CrcMismatch { expected, actual };
            self.poisoned = Some(err.clone());
            return Err(err);
        }
        let owned = payload.to_vec();
        self.cursor += CRC_HEADER_LEN + len;
        crate::metrics::metrics().frame_decodes.inc();
        if self.cursor > 4096 && self.cursor * 2 > self.buf.len() {
            self.buf.drain(..self.cursor);
            self.cursor = 0;
        }
        Ok(Some(owned))
    }

    /// Number of buffered bytes not yet returned as frames. Non-zero after
    /// the peer closed the stream means it hung up mid-frame (a truncated
    /// tail).
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.cursor
    }
}

/// How a [`scan_crc_frames`] pass over a stored log buffer ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// The buffer ends exactly on a frame boundary.
    Clean,
    /// The buffer ends mid-frame — a torn tail write. `valid_len` is the
    /// byte offset of the last complete, verified frame; everything past it
    /// is a partial record to be discarded.
    Truncated {
        /// Offset up to which the buffer holds complete, verified frames.
        valid_len: usize,
    },
    /// A structurally complete frame failed verification (impossible length
    /// prefix or CRC mismatch) at `valid_len` — bit rot rather than a torn
    /// write, so later bytes cannot be trusted either.
    Corrupt {
        /// Offset up to which the buffer holds complete, verified frames.
        valid_len: usize,
    },
}

impl ScanEnd {
    /// The verified prefix length: the whole buffer for [`ScanEnd::Clean`],
    /// the reported offset otherwise.
    pub fn valid_len(self, total: usize) -> usize {
        match self {
            ScanEnd::Clean => total,
            ScanEnd::Truncated { valid_len } | ScanEnd::Corrupt { valid_len } => valid_len,
        }
    }
}

/// Scans a buffer of checksummed frames (the [`encode_crc`] format) and
/// returns every complete, CRC-verified payload plus how the buffer ended.
///
/// Unlike [`FrameReassembler`] — which poisons itself on the first bad byte
/// because a live socket stream past corruption is unusable — this scanner
/// is the *recovery* path for write-ahead logs: a crash legitimately leaves
/// a torn partial record at the tail, and recovery must keep every record
/// before it. It never panics on any input.
pub fn scan_crc_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, ScanEnd) {
    let mut frames = Vec::new();
    let mut offset = 0;
    loop {
        let pending = &bytes[offset..];
        if pending.is_empty() {
            return (frames, ScanEnd::Clean);
        }
        if pending.len() < CRC_HEADER_LEN {
            return (frames, ScanEnd::Truncated { valid_len: offset });
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return (frames, ScanEnd::Corrupt { valid_len: offset });
        }
        if pending.len() < CRC_HEADER_LEN + len {
            return (frames, ScanEnd::Truncated { valid_len: offset });
        }
        let expected = u32::from_le_bytes(pending[4..8].try_into().expect("4 bytes"));
        let payload = &pending[CRC_HEADER_LEN..CRC_HEADER_LEN + len];
        if crc32(payload) != expected {
            return (frames, ScanEnd::Corrupt { valid_len: offset });
        }
        frames.push(payload.to_vec());
        offset += CRC_HEADER_LEN + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let mut out = Vec::new();
        encode(b"hello", &mut out);
        let (payload, consumed) = decode(&out).unwrap().unwrap();
        assert_eq!(payload, b"hello");
        assert_eq!(consumed, out.len());
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut out = Vec::new();
        encode(b"", &mut out);
        let (payload, consumed) = decode(&out).unwrap().unwrap();
        assert!(payload.is_empty());
        assert_eq!(consumed, 4);
    }

    #[test]
    fn incomplete_frames_return_none() {
        let mut out = Vec::new();
        encode(b"hello", &mut out);
        assert!(decode(&out[..3]).unwrap().is_none());
        assert!(decode(&out[..6]).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let bad = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        assert!(matches!(
            decode(&bad),
            Err(CodecError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_frame_roundtrips_byte_at_a_time() {
        let mut stream = Vec::new();
        encode_crc(b"", &mut stream);
        encode_crc(b"hello", &mut stream);
        encode_crc(&[0xAAu8; 300], &mut stream);

        let mut fr = FrameReassembler::new();
        let mut frames = Vec::new();
        for byte in &stream {
            fr.extend(std::slice::from_ref(byte));
            while let Some(frame) = fr.next_frame().unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames, vec![b"".to_vec(), b"hello".to_vec(), vec![0xAAu8; 300]]);
        assert_eq!(fr.pending_len(), 0);
    }

    #[test]
    fn crc_mismatch_is_detected_and_sticky() {
        let mut stream = Vec::new();
        encode_crc(b"payload", &mut stream);
        let last = stream.len() - 1;
        stream[last] ^= 0x01; // flip one payload bit
        let mut fr = FrameReassembler::new();
        fr.extend(&stream);
        assert!(matches!(fr.next_frame(), Err(CodecError::CrcMismatch { .. })));
        // Poisoned: the error repeats even after more (valid) bytes arrive.
        let mut good = Vec::new();
        encode_crc(b"next", &mut good);
        fr.extend(&good);
        assert!(matches!(fr.next_frame(), Err(CodecError::CrcMismatch { .. })));
    }

    #[test]
    fn crc_corrupt_length_prefix_is_rejected() {
        let mut stream = Vec::new();
        encode_crc(b"x", &mut stream);
        stream[3] = 0xFF; // high length byte → > MAX_FRAME_LEN
        let mut fr = FrameReassembler::new();
        fr.extend(&stream);
        assert!(matches!(fr.next_frame(), Err(CodecError::LengthOverflow { .. })));
    }

    #[test]
    fn crc_truncated_tail_stays_pending() {
        let mut stream = Vec::new();
        encode_crc(b"complete", &mut stream);
        encode_crc(b"cut short", &mut stream);
        let mut fr = FrameReassembler::new();
        fr.extend(&stream[..stream.len() - 3]);
        assert_eq!(fr.next_frame().unwrap().unwrap(), b"complete");
        assert!(fr.next_frame().unwrap().is_none());
        assert!(fr.pending_len() > 0); // truncated tail is visible, not silently lost
    }

    #[test]
    fn scan_recovers_all_frames_from_a_clean_log() {
        let mut log = Vec::new();
        encode_crc(b"", &mut log);
        encode_crc(b"alpha", &mut log);
        encode_crc(&[0x5Au8; 300], &mut log);
        let (frames, end) = scan_crc_frames(&log);
        assert_eq!(frames, vec![b"".to_vec(), b"alpha".to_vec(), vec![0x5Au8; 300]]);
        assert_eq!(end, ScanEnd::Clean);
        assert_eq!(end.valid_len(log.len()), log.len());
    }

    #[test]
    fn scan_truncation_at_every_byte_offset_recovers_the_valid_prefix() {
        // The tentpole torn-write property: cutting the log at *any* byte
        // must recover exactly the records whose frames fit before the cut,
        // flag the tear, and never panic or mis-frame.
        let payloads: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"x".to_vec(),
            vec![0xABu8; 37],
            (0u8..=255).collect(),
        ];
        let mut log = Vec::new();
        let mut boundaries = vec![0usize];
        for p in &payloads {
            encode_crc(p, &mut log);
            boundaries.push(log.len());
        }
        for cut in 0..=log.len() {
            let (frames, end) = scan_crc_frames(&log[..cut]);
            let complete = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            assert_eq!(frames, payloads[..complete].to_vec(), "cut at {cut}");
            let expected_end = if boundaries.contains(&cut) {
                ScanEnd::Clean
            } else {
                ScanEnd::Truncated { valid_len: boundaries[complete] }
            };
            assert_eq!(end, expected_end, "cut at {cut}");
            assert_eq!(end.valid_len(cut), boundaries[complete].min(cut), "cut at {cut}");
        }
    }

    #[test]
    fn scan_flags_a_bit_flip_as_corruption_and_keeps_earlier_frames() {
        let mut log = Vec::new();
        encode_crc(b"keep me", &mut log);
        let corrupt_start = log.len();
        encode_crc(b"damaged", &mut log);
        encode_crc(b"unreachable", &mut log);
        // Flip one payload bit of the middle record.
        log[corrupt_start + CRC_HEADER_LEN] ^= 0x40;
        let (frames, end) = scan_crc_frames(&log);
        assert_eq!(frames, vec![b"keep me".to_vec()]);
        assert_eq!(end, ScanEnd::Corrupt { valid_len: corrupt_start });
    }

    #[test]
    fn scan_flags_an_impossible_length_prefix_as_corruption() {
        let mut log = Vec::new();
        encode_crc(b"ok", &mut log);
        let bad_start = log.len();
        log.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        log.extend_from_slice(&[0u8; 12]);
        let (frames, end) = scan_crc_frames(&log);
        assert_eq!(frames, vec![b"ok".to_vec()]);
        assert_eq!(end, ScanEnd::Corrupt { valid_len: bad_start });
    }

    mod scan_props {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            /// Random batches roundtrip losslessly through encode + scan.
            #[test]
            fn random_batches_roundtrip(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..200),
                    0..20,
                )
            ) {
                let mut log = Vec::new();
                for p in &payloads {
                    encode_crc(p, &mut log);
                }
                let (frames, end) = scan_crc_frames(&log);
                prop_assert_eq!(frames, payloads);
                prop_assert_eq!(end, ScanEnd::Clean);
            }

            /// Any truncation point yields a prefix of the records and a
            /// non-Corrupt verdict — a torn write is recoverable, never
            /// reported as bit rot.
            #[test]
            fn random_truncation_recovers_a_clean_prefix(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..64),
                    1..10,
                ),
                cut_fraction in 0.0f64..1.0,
            ) {
                let mut log = Vec::new();
                for p in &payloads {
                    encode_crc(p, &mut log);
                }
                let cut = ((log.len() as f64) * cut_fraction) as usize;
                let (frames, end) = scan_crc_frames(&log[..cut]);
                prop_assert!(frames.len() <= payloads.len());
                prop_assert_eq!(&frames[..], &payloads[..frames.len()]);
                prop_assert!(!matches!(end, ScanEnd::Corrupt { .. }));
                // Rescanning only the verified prefix is clean and stable.
                let valid = end.valid_len(cut);
                let (again, end2) = scan_crc_frames(&log[..valid]);
                prop_assert_eq!(again, frames);
                prop_assert_eq!(end2, ScanEnd::Clean);
            }

            /// A single flipped bit anywhere in a record's frame is always
            /// rejected: scanning stops at or before the damaged record and
            /// never yields a payload that differs from what was written.
            #[test]
            fn random_bit_flip_never_yields_a_corrupted_payload(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..64),
                    1..6,
                ),
                flip_byte_fraction in 0.0f64..1.0,
                flip_bit in 0u8..8,
            ) {
                let mut log = Vec::new();
                for p in &payloads {
                    encode_crc(p, &mut log);
                }
                let index = (((log.len() - 1) as f64) * flip_byte_fraction) as usize;
                log[index] ^= 1 << flip_bit;
                let (frames, _end) = scan_crc_frames(&log);
                // Every recovered frame must be byte-identical to a written
                // one at its position; the flip may only cut the list short
                // (or, when it lands in a length prefix, resync is refused
                // rather than inventing frames past the damage).
                prop_assert!(frames.len() <= payloads.len());
                for (got, want) in frames.iter().zip(&payloads) {
                    if got != want {
                        // The only way a payload changes is the flip landing
                        // inside it with a colliding CRC — impossible for a
                        // single bit flip under CRC32.
                        prop_assert!(false, "corrupted payload surfaced");
                    }
                }
            }
        }
    }
}
