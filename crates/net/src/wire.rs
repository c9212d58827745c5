//! The wire format: a [`Wire`] codec for protocol payloads and a
//! length-prefixed [`Frame`] codec for the transport itself.
//!
//! # Format
//!
//! Everything on the wire is little-endian and length-prefixed:
//!
//! ```text
//! frame   := u32 body_len | body            (body_len caps at MAX_FRAME)
//! body    := 0x00 u64 node                  Hello       (handshake)
//!          | 0x01 u64 round | payload       Data        (one protocol message)
//!          | 0x02 u64 round | u8 decided    Done        (round barrier marker)
//!          | 0x03 u64 since                 SyncRequest (rejoin: backfill ask)
//!          | 0x04 u64 current | u64 oldest
//!            | u8 decided                   SyncTips    (rejoin: responder state)
//!          | 0x05 u64 round | u8 done
//!            | u8 decided | vec payloads    Backfill    (rejoin: replayed round)
//!          | 0x06 string key | vec u8 bytes Submit      (client: append request)
//!          | 0x07 u32 shard | u64 seq       SubmitAck   (client: slot assigned)
//!          | 0x08 u32 shard | u64 from      ReadPrefix  (client: prefix ask)
//!          | 0x09 u32 shard | u64 from
//!            | u8 sealed | vec records      PrefixChunk (client: prefix answer)
//! payload := whatever the payload type's [`Wire`] impl wrote
//! ```
//!
//! The sender identifier travels **only** in the `Hello` handshake: every
//! later frame is attributed to the id pinned at handshake time, never to a
//! per-message claim. That is the transport-level realization of the
//! model's axiom that the sender id of a direct message cannot be forged
//! (on localhost the handshake is trusted; a production deployment would
//! back it with transport authentication such as mTLS — see DESIGN.md §8).
//!
//! [`Wire`] is deliberately minimal — hand-rolled, canonical, and
//! dependency-free, matching the workspace's vendored-deps policy (no
//! serde). A canonical encoding matters beyond convenience: the round
//! synchronizer deduplicates `(sender, payload)` pairs per round on the
//! *decoded* value, so encode/decode must round-trip exactly.

use std::fmt;
use std::io::{self, Read, Write};

use uba_sim::NodeId;

/// Hard cap on the body length of a single frame (16 MiB). A corrupt or
/// malicious length prefix must not make the receiver allocate unbounded
/// memory before reading a single payload byte.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Why [`read_frame`] refused bytes no honest peer can produce. It is the
/// payload of the [`io::ErrorKind::InvalidData`] error `read_frame` returns
/// (recover it with [`FrameFault::of`]), so a receiver classifies the
/// misbehavior where the error was raised, never by its message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// The length prefix (carried) exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// The body decodes to no frame.
    Malformed,
}

impl FrameFault {
    /// The fault `err` carries, if [`read_frame`] raised it.
    pub fn of(err: &io::Error) -> Option<FrameFault> {
        err.get_ref()?.downcast_ref::<FrameFault>().copied()
    }
}

impl fmt::Display for FrameFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameFault::Oversize(len) => {
                write!(f, "frame length prefix {len} exceeds MAX_FRAME")
            }
            FrameFault::Malformed => write!(f, "malformed frame body"),
        }
    }
}

impl std::error::Error for FrameFault {}

/// Types that can be carried as a protocol payload on the wire.
///
/// Implementations must be **canonical**: `decode(encode(x)) == x`, and
/// equal values encode to identical bytes. The round synchronizer relies on
/// this to apply the model's per-round `(sender, payload)` duplicate rule
/// to decoded values.
///
/// A `Vec<T>` is its `u32` length followed by its items, and it encodes and
/// decodes those items through two hooks, [`encode_items`] and
/// [`decode_items`] — the pattern of `Hash::hash_slice`. Their defaults go
/// item by item. A type whose slice has a faster encoding that is
/// byte-identical to the item-by-item one overrides both: `u8` does, so a
/// `Vec<u8>` (a record payload, a `Submit` body, a backfilled payload)
/// crosses the codec as one copy. Any other type keeps the defaults.
///
/// [`encode_items`]: Wire::encode_items
/// [`decode_items`]: Wire::decode_items
///
/// # Examples
///
/// ```
/// use uba_net::Wire;
///
/// let mut buf = Vec::new();
/// (7u64, String::from("hi")).encode(&mut buf);
/// let back = <(u64, String)>::from_bytes(&buf).unwrap();
/// assert_eq!(back, (7, "hi".to_string()));
/// ```
pub trait Wire: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes. `None` on malformed input.
    fn decode(input: &mut &[u8]) -> Option<Self>;

    /// Appends the encodings of `items`, in order: the body of a
    /// `Vec<Self>` behind its length.
    fn encode_items(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decodes `len` items from the front of `input`: the body of a
    /// `Vec<Self>` whose length said `len`. `None` on malformed input.
    fn decode_items(input: &mut &[u8], len: usize) -> Option<Vec<Self>> {
        // Guard the pre-allocation: `len` is attacker-controlled until the
        // items actually decode.
        let mut items = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            items.push(Self::decode(input)?);
        }
        Some(items)
    }

    /// The canonical encoding as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a value that must consume `bytes` exactly (trailing garbage
    /// is malformed input, not padding).
    fn from_bytes(mut bytes: &[u8]) -> Option<Self> {
        let value = Self::decode(&mut bytes)?;
        bytes.is_empty().then_some(value)
    }
}

/// Splits `n` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! impl_wire_le_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Option<Self> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(bytes.try_into().expect("sized")))
            }
        }
    )*};
}

impl_wire_le_int!(u16, u32, u64, i64);

/// A byte slice is its own encoding, so a `Vec<u8>` is one copy each way.
impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(take(input, 1)?[0])
    }
    fn encode_items(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_items(input: &mut &[u8], len: usize) -> Option<Vec<u8>> {
        // The bytes must be there before anything is allocated for them.
        Some(take(input, len)?.to_vec())
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        // Only 0 and 1 are canonical: a bool must have exactly one encoding.
        match u8::decode(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// `f64` travels as its IEEE-754 bit pattern, so every value (including
/// negative zero) round-trips exactly.
impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(f64::from_bits(u64::decode(input)?))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        T::encode_items(self, out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = u32::decode(input)? as usize;
        T::decode_items(input, len)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match u8::decode(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

impl Wire for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.raw().encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(NodeId::new(u64::decode(input)?))
    }
}

/// One transport frame, as read off (or written onto) a TCP stream.
///
/// The protocol payload inside [`Frame::Data`] stays opaque bytes here;
/// the round synchronizer decodes it with the process's payload type so
/// the transport itself is payload-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Handshake: the sending endpoint announces its node id. First frame
    /// on every connection, in both directions; pins the sender id for the
    /// connection's lifetime.
    Hello {
        /// The announcing node.
        node: NodeId,
    },
    /// One protocol message, sent during `round` and due for delivery at
    /// the start of `round + 1`.
    Data {
        /// The round the message was sent in.
        round: u64,
        /// The [`Wire`]-encoded payload.
        payload: Vec<u8>,
    },
    /// Round barrier marker: the sender finished sending for `round`.
    /// Because TCP preserves order, receiving `Done { round }` guarantees
    /// every `Data { round }` frame from that peer has already arrived.
    Done {
        /// The completed round.
        round: u64,
        /// Whether the sender's process has terminated with an output. Once
        /// every member reports `true` at the same barrier, the cluster
        /// shuts down in unison.
        decided: bool,
    },
    /// A recovering node asks a peer to resend what it missed: every frame
    /// the *peer itself* sent (broadcasts and point-to-point messages
    /// addressed to the requester) in rounds `>= since`. Receiving this also
    /// re-admits the requester to the responder's barrier expectations if it
    /// had been declared gone. Sender attribution is unforgeable, so a
    /// responder only ever replays its **own** traffic — never third-party
    /// messages it happens to have received.
    SyncRequest {
        /// First round the requester is missing.
        since: u64,
    },
    /// A responder's answer header to a [`Frame::SyncRequest`]: where it
    /// stands, so the requester can tell how much of the gap the following
    /// [`Frame::Backfill`] frames will cover.
    SyncTips {
        /// The responder's current (not yet barrier-released) round.
        current_round: u64,
        /// The oldest round still in the responder's send history; rounds
        /// before it have been pruned and cannot be backfilled.
        oldest_retained: u64,
        /// Whether the responder's process has terminated with an output.
        decided: bool,
    },
    /// One round's worth of the responder's own past sends, replayed to a
    /// recovering peer. Ordinary per-round `(sender, payload)` dedup makes
    /// re-delivery of anything the requester already has harmless.
    Backfill {
        /// The round the replayed messages were originally sent in.
        round: u64,
        /// Whether the responder had published `Done` for this round (it
        /// has, for any round its barrier already released).
        done: bool,
        /// The `decided` flag the responder's `Done { round }` carried.
        decided: bool,
        /// The replayed [`Wire`]-encoded payloads, in original send order.
        payloads: Vec<Vec<u8>>,
    },
    /// A client asks the `logd` service to append `payload` under `key`.
    /// The server hashes the key to a shard, assigns the submission the
    /// shard's next sequence number, and answers [`Frame::SubmitAck`].
    /// Resubmitting an identical `(key, payload)` pair is idempotent: the
    /// original slot is re-acknowledged, not a new one.
    Submit {
        /// The client-chosen key; it decides the shard and nothing else.
        key: String,
        /// The opaque client payload to order.
        payload: Vec<u8>,
    },
    /// The service's answer to a [`Frame::Submit`]: the submission now owns
    /// slot `seq` of shard `shard`'s ingress queue and is guaranteed to
    /// appear exactly once in that shard's finalized prefix (the service
    /// stops acking before its ordering cutoff, so an ack is a durability
    /// promise, not best-effort).
    SubmitAck {
        /// The shard the key hashed to.
        shard: u32,
        /// The per-shard ingress sequence number assigned to the submission.
        seq: u64,
    },
    /// A client asks for one shard's finalized prefix, starting at record
    /// index `from` (so a tailing reader only transfers what it is missing).
    ReadPrefix {
        /// The shard to read.
        shard: u32,
        /// First record index the client wants (0 for the whole prefix).
        from: u64,
    },
    /// The service's answer to a [`Frame::ReadPrefix`]: the finalized
    /// records of `shard` from index `from` onward, in log order. The
    /// records stay opaque bytes at the transport layer, exactly like
    /// [`Frame::Data`] payloads; the service layer decodes them.
    PrefixChunk {
        /// The shard being read.
        shard: u32,
        /// Index of the first record in `records`.
        from: u64,
        /// Whether the shard's log is sealed: the service has shut down its
        /// ordering instance and the prefix will never grow again.
        sealed: bool,
        /// The [`Wire`]-encoded finalized records, in log order.
        records: Vec<Vec<u8>>,
    },
}

const TAG_HELLO: u8 = 0x00;
const TAG_DATA: u8 = 0x01;
const TAG_DONE: u8 = 0x02;
const TAG_SYNC_REQUEST: u8 = 0x03;
const TAG_SYNC_TIPS: u8 = 0x04;
const TAG_BACKFILL: u8 = 0x05;
const TAG_SUBMIT: u8 = 0x06;
const TAG_SUBMIT_ACK: u8 = 0x07;
const TAG_READ_PREFIX: u8 = 0x08;
const TAG_PREFIX_CHUNK: u8 = 0x09;

impl Frame {
    /// Encodes the frame body (everything after the length prefix).
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello { node } => {
                out.push(TAG_HELLO);
                node.encode(out);
            }
            Frame::Data { round, payload } => {
                out.push(TAG_DATA);
                round.encode(out);
                out.extend_from_slice(payload);
            }
            Frame::Done { round, decided } => {
                out.push(TAG_DONE);
                round.encode(out);
                decided.encode(out);
            }
            Frame::SyncRequest { since } => {
                out.push(TAG_SYNC_REQUEST);
                since.encode(out);
            }
            Frame::SyncTips {
                current_round,
                oldest_retained,
                decided,
            } => {
                out.push(TAG_SYNC_TIPS);
                current_round.encode(out);
                oldest_retained.encode(out);
                decided.encode(out);
            }
            Frame::Backfill {
                round,
                done,
                decided,
                payloads,
            } => {
                out.push(TAG_BACKFILL);
                round.encode(out);
                done.encode(out);
                decided.encode(out);
                payloads.encode(out);
            }
            Frame::Submit { key, payload } => {
                out.push(TAG_SUBMIT);
                key.encode(out);
                payload.encode(out);
            }
            Frame::SubmitAck { shard, seq } => {
                out.push(TAG_SUBMIT_ACK);
                shard.encode(out);
                seq.encode(out);
            }
            Frame::ReadPrefix { shard, from } => {
                out.push(TAG_READ_PREFIX);
                shard.encode(out);
                from.encode(out);
            }
            Frame::PrefixChunk {
                shard,
                from,
                sealed,
                records,
            } => {
                out.push(TAG_PREFIX_CHUNK);
                shard.encode(out);
                from.encode(out);
                sealed.encode(out);
                records.encode(out);
            }
        }
    }

    /// Decodes a frame body. Every variant except [`Frame::Data`] (whose
    /// payload is the rest of the body by construction) must consume the
    /// body exactly: trailing bytes are malformed input, not padding.
    fn decode_body(mut body: &[u8]) -> Option<Frame> {
        let input = &mut body;
        let frame = match u8::decode(input)? {
            TAG_HELLO => Frame::Hello {
                node: NodeId::decode(input)?,
            },
            TAG_DATA => {
                return Some(Frame::Data {
                    round: u64::decode(input)?,
                    payload: input.to_vec(),
                });
            }
            TAG_DONE => Frame::Done {
                round: u64::decode(input)?,
                decided: bool::decode(input)?,
            },
            TAG_SYNC_REQUEST => Frame::SyncRequest {
                since: u64::decode(input)?,
            },
            TAG_SYNC_TIPS => Frame::SyncTips {
                current_round: u64::decode(input)?,
                oldest_retained: u64::decode(input)?,
                decided: bool::decode(input)?,
            },
            TAG_BACKFILL => Frame::Backfill {
                round: u64::decode(input)?,
                done: bool::decode(input)?,
                decided: bool::decode(input)?,
                payloads: Vec::decode(input)?,
            },
            TAG_SUBMIT => Frame::Submit {
                key: String::decode(input)?,
                payload: Vec::decode(input)?,
            },
            TAG_SUBMIT_ACK => Frame::SubmitAck {
                shard: u32::decode(input)?,
                seq: u64::decode(input)?,
            },
            TAG_READ_PREFIX => Frame::ReadPrefix {
                shard: u32::decode(input)?,
                from: u64::decode(input)?,
            },
            TAG_PREFIX_CHUNK => Frame::PrefixChunk {
                shard: u32::decode(input)?,
                from: u64::decode(input)?,
                sealed: bool::decode(input)?,
                records: Vec::decode(input)?,
            },
            _ => return None,
        };
        input.is_empty().then_some(frame)
    }
}

/// The frame exactly as it travels: the 4-byte length prefix, then the
/// body, in one buffer — so whoever writes it hands the socket (or a
/// link's round buffer) one slice.
///
/// # Errors
///
/// Rejects bodies longer than [`MAX_FRAME`] with
/// [`io::ErrorKind::InvalidData`].
pub(crate) fn encode_frame(frame: &Frame) -> io::Result<Vec<u8>> {
    let mut bytes = Vec::with_capacity(36);
    bytes.extend_from_slice(&[0; 4]);
    frame.encode_body(&mut bytes);
    let body_len = bytes.len() - 4;
    if body_len as u64 > MAX_FRAME as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {body_len} bytes exceeds MAX_FRAME"),
        ));
    }
    bytes[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    Ok(bytes)
}

/// Writes one length-prefixed frame with a single `write_all` and flushes
/// the writer: the frame-at-a-time path of the handshake and the client
/// port. A node's round traffic is queued and flushed once per round
/// instead, in one write per link.
///
/// # Errors
///
/// Propagates I/O errors; rejects bodies longer than [`MAX_FRAME`] with
/// [`io::ErrorKind::InvalidData`].
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> io::Result<()> {
    writer.write_all(&encode_frame(frame)?)?;
    writer.flush()
}

/// Reads one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames); a connection cut mid-frame is an [`io::ErrorKind::UnexpectedEof`]
/// error, and a malformed body or oversized length prefix is
/// [`io::ErrorKind::InvalidData`] carrying the [`FrameFault`].
pub fn read_frame(reader: &mut impl Read) -> io::Result<Option<Frame>> {
    Ok(read_sized_frame(reader)?.map(|(frame, _)| frame))
}

/// [`read_frame`], plus the bytes the frame occupied on the wire (length
/// prefix included): the reader holds that number already, so a received
/// frame is never re-encoded to be weighed.
pub(crate) fn read_sized_frame(reader: &mut impl Read) -> io::Result<Option<(Frame, usize)>> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before any length byte means the peer hung up politely.
    match reader.read(&mut len_bytes)? {
        0 => return Ok(None),
        n => reader.read_exact(&mut len_bytes[n..])?,
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameFault::Oversize(len),
        ));
    }
    let mut body = vec![0u8; len as usize];
    reader.read_exact(&mut body)?;
    Frame::decode_body(&body)
        .map(|frame| Some((frame, 4 + body.len())))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, FrameFault::Malformed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::RoundBuffer;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(&bytes).as_ref(), Some(&value));
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u16::MAX);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(true);
        round_trip(-0.0f64);
        round_trip(f64::INFINITY);
        round_trip(String::from("héllo\n"));
        round_trip(String::new());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(9u64));
        round_trip(Option::<u64>::None);
        round_trip((NodeId::new(17), String::from("x")));
    }

    #[test]
    fn non_canonical_bool_and_option_tags_are_rejected() {
        assert_eq!(bool::from_bytes(&[2]), None);
        assert_eq!(Option::<u8>::from_bytes(&[7, 0]), None);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = 5u64.to_bytes();
        bytes.push(0);
        assert_eq!(u64::from_bytes(&bytes), None);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = String::from("hello").to_bytes();
        assert_eq!(String::from_bytes(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let frames = vec![
            Frame::Hello {
                node: NodeId::new(9),
            },
            Frame::Data {
                round: 3,
                payload: vec![1, 2, 3],
            },
            Frame::Data {
                round: 4,
                payload: Vec::new(),
            },
            Frame::Done {
                round: 4,
                decided: true,
            },
            Frame::SyncRequest { since: 5 },
            Frame::SyncTips {
                current_round: 9,
                oldest_retained: 2,
                decided: false,
            },
            Frame::Backfill {
                round: 5,
                done: true,
                decided: false,
                payloads: vec![vec![1, 2], Vec::new(), vec![3]],
            },
            Frame::Submit {
                key: String::from("user/42"),
                payload: vec![0xca, 0xfe],
            },
            Frame::Submit {
                key: String::new(),
                payload: Vec::new(),
            },
            Frame::SubmitAck { shard: 3, seq: 17 },
            Frame::ReadPrefix { shard: 0, from: 9 },
            Frame::PrefixChunk {
                shard: 2,
                from: 4,
                sealed: true,
                records: vec![vec![1], Vec::new(), vec![2, 3]],
            },
        ];
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut reader = &stream[..];
        for frame in &frames {
            assert_eq!(read_frame(&mut reader).unwrap().as_ref(), Some(frame));
        }
        assert_eq!(read_frame(&mut reader).unwrap(), None, "clean EOF");
    }

    /// A byte vector is its `u32` LE length and then its bytes, alone, in a
    /// vector of vectors, and inside the client and rejoin frames that
    /// carry payloads. A changed byte breaks live clusters of mixed builds,
    /// so it must fail here, not only in a round trip.
    #[test]
    fn byte_vectors_encode_to_pinned_bytes() {
        assert_eq!(Vec::<u8>::new().to_bytes(), [0, 0, 0, 0]);
        assert_eq!(vec![1u8, 2, 3].to_bytes(), [3, 0, 0, 0, 1, 2, 3]);
        const NESTED: [u8; 19] = [
            3, 0, 0, 0, // three vectors
            2, 0, 0, 0, 1, 2, // [1, 2]
            0, 0, 0, 0, // []
            1, 0, 0, 0, 3, // [3]
        ];
        let nested = vec![vec![1u8, 2], Vec::new(), vec![3]];
        assert_eq!(nested.to_bytes(), NESTED);

        let frame = |frame: Frame| encode_frame(&frame).unwrap();
        let submit = frame(Frame::Submit {
            key: String::from("k"),
            payload: vec![1, 2, 3],
        });
        let pinned = [
            13, 0, 0, 0, 0x06, // body length, `Submit`
            1, 0, 0, 0, b'k', // key
            3, 0, 0, 0, 1, 2, 3, // payload
        ];
        assert_eq!(submit, pinned);
        let backfill = frame(Frame::Backfill {
            round: 5,
            done: true,
            decided: false,
            payloads: nested.clone(),
        });
        let head = [
            30, 0, 0, 0, 0x05, // body length, `Backfill`
            5, 0, 0, 0, 0, 0, 0, 0, // round
            1, 0, // done, decided
        ];
        assert_eq!(backfill, [&head[..], &NESTED].concat());
        let chunk = frame(Frame::PrefixChunk {
            shard: 2,
            from: 4,
            sealed: true,
            records: nested,
        });
        let head = [
            33, 0, 0, 0, 0x09, // body length, `PrefixChunk`
            2, 0, 0, 0, // shard
            4, 0, 0, 0, 0, 0, 0, 0, // from
            1, // sealed
        ];
        assert_eq!(chunk, [&head[..], &NESTED].concat());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        #[test]
        fn a_byte_vector_is_its_length_then_its_bytes(
            bytes in proptest::collection::vec(0u8..=255, 0..20 * 1024),
        ) {
            let encoded = bytes.to_bytes();
            let prefix = (bytes.len() as u32).to_le_bytes();
            proptest::prop_assert!(encoded[..4] == prefix && encoded[4..] == bytes[..]);
            proptest::prop_assert!(Vec::<u8>::from_bytes(&encoded).as_ref() == Some(&bytes));
            for cut in 0..encoded.len() {
                proptest::prop_assert!(
                    Vec::<u8>::from_bytes(&encoded[..cut]).is_none(),
                    "a truncation to {} of {} bytes decoded", cut, encoded.len()
                );
            }
        }
    }

    /// Counts the `write` calls that reach it — what would be syscalls on
    /// a socket — and keeps the bytes.
    #[derive(Debug, Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_hands_an_unbuffered_writer_one_write() {
        let mut socket = CountingWriter::default();
        let frame = Frame::SubmitAck { shard: 3, seq: 17 };
        write_frame(&mut socket, &frame).unwrap();
        assert_eq!(socket.writes, 1, "length prefix and body in one write");
        assert_eq!(socket.bytes.len(), encode_frame(&frame).unwrap().len());
        assert_eq!(read_frame(&mut &socket.bytes[..]).unwrap(), Some(frame));
    }

    #[test]
    fn a_round_of_queued_frames_is_one_write_at_the_flush() {
        // What `Links` does per link and round: append each encoded frame to
        // the link's round buffer, flush once behind the `Done`. Each `Data`
        // frame is larger than a default 8 KiB `BufWriter`, which writes
        // this round in four pieces.
        let data = (0..3).map(|i| Frame::Data {
            round: 7,
            payload: vec![i; 9 * 1024],
        });
        let done = Frame::Done {
            round: 7,
            decided: false,
        };
        let frames: Vec<Frame> = data.chain([done]).collect();
        let mut link = RoundBuffer::new(CountingWriter::default());
        let mut queued = 0;
        for frame in &frames {
            let bytes = encode_frame(frame).unwrap();
            link.queue(&bytes);
            queued += bytes.len();
        }
        assert_eq!(link.socket().writes, 0, "nothing leaves before the flush");
        link.flush().unwrap();
        let socket = link.socket();
        assert_eq!(socket.writes, 1, "one write per (peer, round)");
        assert_eq!(socket.bytes.len(), queued);
        let mut reader = &socket.bytes[..];
        for frame in &frames {
            assert_eq!(read_frame(&mut reader).unwrap().as_ref(), Some(frame));
        }
        assert_eq!(read_frame(&mut reader).unwrap(), None);
    }

    #[test]
    fn encode_frame_refuses_a_body_over_max_frame() {
        let frame = Frame::Data {
            round: 1,
            payload: vec![0; MAX_FRAME as usize],
        };
        let err = encode_frame(&frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut socket = CountingWriter::default();
        assert!(write_frame(&mut socket, &frame).is_err());
        assert_eq!(socket.writes, 0, "refused before anything is written");
    }

    #[test]
    fn oversized_length_prefix_is_invalid_data() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        let err = read_frame(&mut &stream[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A reader that hands out the 4-byte length prefix and then panics if
    /// anyone asks for body bytes: proof the oversize rejection happens
    /// *before* any body allocation or read.
    struct PrefixOnly {
        prefix: [u8; 4],
        served: usize,
    }

    impl Read for PrefixOnly {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(
                self.served < 4,
                "read past the length prefix: an oversized frame must be \
                 rejected before its body is touched"
            );
            let n = buf.len().min(4 - self.served);
            buf[..n].copy_from_slice(&self.prefix[self.served..self.served + n]);
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn four_gib_length_prefix_is_rejected_before_allocation() {
        // A hostile peer announces a 4 GiB frame (the maximum a u32 prefix
        // can claim). An honest node must refuse it from the prefix alone:
        // no 4 GiB buffer is allocated, no body byte is read — the guard
        // runs before `vec![0u8; len]`, and the `PrefixOnly` reader panics
        // the test if the decoder ever asks for more.
        let mut reader = PrefixOnly {
            prefix: 0xFFFF_FFFFu32.to_le_bytes(),
            served: 0,
        };
        let err = read_frame(&mut reader).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("exceeds MAX_FRAME"),
            "the refusal names the violated bound: {err}"
        );
    }

    #[test]
    fn mid_frame_eof_is_unexpected_eof() {
        let mut stream = Vec::new();
        write_frame(
            &mut stream,
            &Frame::Done {
                round: 1,
                decided: false,
            },
        )
        .unwrap();
        let err = read_frame(&mut &stream[..stream.len() - 1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn fixed_size_bodies_reject_trailing_bytes() {
        for frame in [
            Frame::Hello {
                node: NodeId::new(9),
            },
            Frame::Done {
                round: 4,
                decided: true,
            },
            Frame::SyncRequest { since: 5 },
            Frame::SyncTips {
                current_round: 9,
                oldest_retained: 2,
                decided: false,
            },
            Frame::Backfill {
                round: 5,
                done: true,
                decided: true,
                payloads: vec![vec![7]],
            },
            Frame::Submit {
                key: String::from("k"),
                payload: vec![9],
            },
            Frame::SubmitAck { shard: 1, seq: 2 },
            Frame::ReadPrefix { shard: 1, from: 0 },
            Frame::PrefixChunk {
                shard: 1,
                from: 0,
                sealed: false,
                records: vec![vec![5, 6]],
            },
        ] {
            let mut body = Vec::new();
            frame.encode_body(&mut body);
            assert_eq!(Frame::decode_body(&body), Some(frame));
            body.push(0);
            assert_eq!(Frame::decode_body(&body), None, "trailing byte accepted");
        }
    }

    #[test]
    fn malformed_body_is_invalid_data() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&1u32.to_le_bytes());
        stream.push(0xff); // unknown tag
        let err = read_frame(&mut &stream[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
