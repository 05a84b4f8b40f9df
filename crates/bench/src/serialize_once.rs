//! E8 mechanism — one publish's transport envelope to F destinations,
//! re-encoded per destination (the pre-refactor behaviour) or encoded once
//! into a pooled [`WireBytes`] shared by reference.

use std::time::Instant;

use psc_codec::WireBytes;
use psc_obvent::WireObvent;
use serde::{Deserialize, Serialize};

use crate::BenchQuote;

/// Stand-in for the per-destination transport envelope (`NodeMsg::Data`
/// carries exactly this shape: a channel id plus the protocol bytes).
#[derive(Serialize, Deserialize)]
struct Envelope {
    channel: u64,
    bytes: WireBytes,
}

/// Runs `rounds` publishes to `fanout` destinations, encoding the envelope
/// once and sharing it (`shared`) or once per destination. Returns (µs per
/// publish, `codec.encodes` per publish); the codec counts only while the
/// process-global registry is enabled.
pub fn mechanism(fanout: usize, rounds: usize, shared: bool) -> (f64, f64) {
    let payload: WireBytes = psc_codec::to_wire_bytes(
        &WireObvent::encode(&BenchQuote::new("Telco Mobiles".into(), 80.0, 10)).unwrap(),
    )
    .unwrap();
    let envelope = || {
        psc_codec::to_wire_bytes(&Envelope {
            channel: 7,
            bytes: payload.clone(),
        })
        .unwrap()
    };
    let mut sink: Vec<WireBytes> = Vec::with_capacity(fanout);
    let encodes = psc_telemetry::global().counter("codec.encodes");
    let before = encodes.get();
    let start = Instant::now();
    for _ in 0..rounds {
        sink.clear();
        if shared {
            let encoded = envelope();
            for _ in 0..fanout {
                sink.push(encoded.clone());
            }
        } else {
            for _ in 0..fanout {
                sink.push(envelope());
            }
        }
    }
    let us = start.elapsed().as_secs_f64() * 1e6 / rounds as f64;
    (us, (encodes.get() - before) as f64 / rounds as f64)
}
