//! In-memory probes of single public functions: the frame codec and the
//! ingress mailbox, timed without sockets or rounds around them.

use std::hint::black_box;
use std::time::Instant;

use uba_core::consensus::ConsensusMsg;
use uba_core::ordering::OrderMsg;
use uba_net::{read_frame, write_frame, Batch, Frame, LogIngress, Record, Wire};

use crate::check::Submission;

pub struct Codec {
    /// `Wire::to_bytes` + `write_frame` of a ~20-byte consensus `Data` frame.
    pub encode_ns_per_frame: f64,
    /// `read_frame` + `Wire::from_bytes` of the same frame.
    pub decode_ns_per_frame: f64,
    /// Encode + decode of a `Data` frame carrying a one-record batch with an
    /// 8 KiB payload, as payload megabytes through the codec per second.
    pub mb_per_s: f64,
}

impl Codec {
    /// The `wire.*` codec per-layer metrics.
    pub fn metrics(&self) -> [(&'static str, f64); 3] {
        [
            ("wire.encode_ns_per_frame", self.encode_ns_per_frame),
            ("wire.decode_ns_per_frame", self.decode_ns_per_frame),
            ("wire.codec_mb_per_s", self.mb_per_s),
        ]
    }
}

const SMALL_FRAMES: u32 = 200_000;
const LARGE_FRAMES: u32 = 4_000;
const LARGE_PAYLOAD: usize = 8 * 1024;

/// Nanoseconds per iteration of `encode` and of `decode` over `iterations`
/// round trips of `msg` through a `Data` frame.
fn round_trips<M: Wire + PartialEq>(msg: &M, iterations: u32) -> (f64, f64) {
    let mut wire = Vec::new();
    let started = Instant::now();
    for round in 0..iterations {
        wire.clear();
        let frame = Frame::Data {
            round: u64::from(round),
            payload: black_box(msg).to_bytes(),
        };
        write_frame(&mut wire, &frame).expect("write to memory");
        black_box(&wire);
    }
    let encode_ns = started.elapsed().as_nanos() as f64 / f64::from(iterations);

    let started = Instant::now();
    for _ in 0..iterations {
        let mut input = black_box(wire.as_slice());
        let Some(Frame::Data { payload, .. }) = read_frame(&mut input).expect("frame decodes")
        else {
            panic!("probe frame did not decode as Data");
        };
        let decoded = M::from_bytes(&payload).expect("payload decodes");
        assert!(decoded == *msg, "codec round trip changed the message");
    }
    let decode_ns = started.elapsed().as_nanos() as f64 / f64::from(iterations);
    (encode_ns, decode_ns)
}

pub fn codec() -> Codec {
    let small = ConsensusMsg::Input(1u64);
    let (encode_ns_per_frame, decode_ns_per_frame) = round_trips(&small, SMALL_FRAMES);

    let batch: Batch = vec![Record {
        key: "key-0".into(),
        payload: vec![0xA5; LARGE_PAYLOAD],
        node: 1,
        seq: 0,
    }];
    let large = (0u32, OrderMsg::Event(batch, 5));
    let (encode_ns, decode_ns) = round_trips(&large, LARGE_FRAMES);
    Codec {
        encode_ns_per_frame,
        decode_ns_per_frame,
        mb_per_s: LARGE_PAYLOAD as f64 / 1e6 / ((encode_ns + decode_ns) / 1e9),
    }
}

/// Nanoseconds per `LogIngress::submit` of the workload's own submissions
/// into a fresh mailbox that nothing drains.
pub fn submit_ns(submissions: &[Submission], shards: u32) -> f64 {
    let ingress = LogIngress::new(shards);
    let owned: Vec<(String, Vec<u8>)> = submissions
        .iter()
        .map(|s| (s.key.clone(), s.payload.clone()))
        .collect();
    let count = owned.len() as f64;
    let started = Instant::now();
    for (key, payload) in owned {
        black_box(ingress.submit(key, payload, 1)).expect("ingest is open");
    }
    started.elapsed().as_nanos() as f64 / count
}
