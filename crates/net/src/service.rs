//! The log service layer: the total-ordering protocol productized as a
//! long-lived, key-sharded "permissionless log as a service".
//!
//! Every cluster node runs **one** [`TotalOrdering`] instance, the
//! paper's Algorithm 6, in [`ShardedLog`]; an event names a whole batch by
//! its 32-byte [`Digest`], so one instance orders any number of records
//! per round. Shards partition the keys only: each keeps its ingress
//! sequence numbers and its finalized prefix. A member sends a round's
//! traffic for one destination as one bundle of messages, with a batch's
//! bytes only beside an `Event`, an `Input` or an `Opinion` that names it;
//! it takes its inbox as a set and hides what names a batch it cannot
//! resolve, so the instance runs exactly the single-instance execution the
//! T11/T12/T13 oracles certify — DESIGN.md §12. Clients speak the four
//! client frames of the [`wire`](crate::wire) format to any node:
//!
//! 1. **submit** — [`Frame::Submit`] hashes the key to a shard
//!    ([`shard_of`]) and claims the shard's next ingress sequence number,
//!    answered by [`Frame::SubmitAck`];
//! 2. **batch** — once per round, the member's pending submissions are
//!    sealed, in submission order, into one batch and enqueued as a single
//!    ordering event ([`TotalOrdering::enqueue_event`]), amortizing one
//!    agreement wave over the whole batch;
//! 3. **order** — the instance runs Algorithm 6 on the batch's digest,
//!    unchanged, while each member keeps one copy of the batch;
//! 4. **finalize → read** — each round, the batches the chain grew by are
//!    resolved and their records appended to their shards' record prefixes
//!    — the member's one published copy of the log — which
//!    [`Frame::ReadPrefix`] reads in [`Frame::PrefixChunk`] pages of at
//!    most half a frame; a batch's copy is dropped once its wave is final.
//!
//! Acknowledgements are durability promises: the service stops accepting
//! new submissions strictly before the last round whose batch can still
//! finalize by the horizon, so **every acked submission is ordered exactly
//! once** — the invariant the `logd` e2e test and the T14 experiment
//! assert.
//!
//! The ingress state ([`LogIngress`]) is shared between the round loop and
//! the client-serving threads through a mutex; it is wall-clock territory
//! and never feeds the deterministic trace (the two-registries rule of
//! DESIGN.md §10).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use uba_core::ordering::{OrderMsg, TotalOrdering};
use uba_core::parallel::ParMsg;
use uba_sim::{Context, Dest, Inbox, NodeId, Process};
use uba_trace::{metric_name, SharedRuntimeMetrics, Tracer};

use crate::cluster::{ClusterSpec, RunningCluster};
use crate::conn::Server;
use crate::node::{NetConfig, NetError, NetReport};
use crate::wire::{read_frame, write_frame, Frame, Wire, MAX_FRAME};

/// One client submission, as ordered by the log.
///
/// Identity is the full tuple: `(node, seq)` pins the ingress slot the
/// submission was acked into (seqs are per shard per ingress node), so two
/// clients submitting identical `(key, payload)` pairs to *different*
/// nodes produce two distinct records. Within one node the ingress dedups:
/// resubmitting an identical pair re-acks the original slot.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Record {
    /// The client-chosen key; decides the shard and nothing else.
    pub key: String,
    /// The opaque client payload.
    pub payload: Vec<u8>,
    /// Raw id of the node that acked the submission.
    pub node: u64,
    /// The per-shard ingress sequence number that node assigned.
    pub seq: u64,
}

/// Bytes `record` takes inside a [`Frame::PrefixChunk`]: its own length
/// prefix, those of key and payload, `node` and `seq`.
fn chunk_len(record: &Record) -> usize {
    28 + record.key.len() + record.payload.len()
}

/// The most record bytes one [`Frame::PrefixChunk`] carries (it always
/// carries one record): half a frame, so no prefix outgrows [`MAX_FRAME`].
const CHUNK_BYTES: usize = MAX_FRAME as usize / 2;

impl Wire for Record {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.payload.encode(out);
        self.node.encode(out);
        self.seq.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(Record {
            key: String::decode(input)?,
            payload: Vec::decode(input)?,
            node: u64::decode(input)?,
            seq: u64::decode(input)?,
        })
    }
}

/// One round's worth of one member's submissions, ordered as a single event.
pub type Batch = Vec<Record>;

/// What the ordering instance orders in place of a batch: the 32-byte
/// BLAKE2b-256 hash (RFC 7693) of the batch's [`Wire`] encoding. A
/// Byzantine origin cannot find two batches with one digest, as it could
/// under a 64-bit hash.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Digest([u8; 32]);

impl Digest {
    /// The digest of `bytes`, a batch's encoding.
    pub fn of(bytes: &[u8]) -> Digest {
        Digest(blake2b(32, bytes)[..32].try_into().expect("32 bytes"))
    }
}

impl Wire for Digest {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let mut digest = [0; 32];
        for byte in &mut digest {
            *byte = u8::decode(input)?;
        }
        Some(Digest(digest))
    }
}

/// BLAKE2b's initialization vector and message schedule (RFC 7693 §2.6, §2.7).
const IV: [u64; 8] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
    0x510e_527f_ade6_82d1,
    0x9b05_688c_2b3e_6c1f,
    0x1f83_d9ab_fb41_bd6b,
    0x5be0_cd19_137e_2179,
];
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// The compression function F (RFC 7693 §3.2) over one 128-byte block, `t`
/// bytes into the message, `last` on the final block.
fn compress(h: &mut [u64; 8], block: &[u8], t: u128, last: bool) {
    let mut m = [0u64; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
    }
    let mut v = [0u64; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    v[12] ^= t as u64;
    v[13] ^= (t >> 64) as u64;
    if last {
        v[14] = !v[14];
    }
    for round in 0..12 {
        let s = &SIGMA[round % 10];
        for (i, [a, b, c, d]) in [
            [0, 4, 8, 12],
            [1, 5, 9, 13],
            [2, 6, 10, 14],
            [3, 7, 11, 15],
            [0, 5, 10, 15],
            [1, 6, 11, 12],
            [2, 7, 8, 13],
            [3, 4, 9, 14],
        ]
        .into_iter()
        .enumerate()
        {
            // The mixing function G (RFC 7693 §3.1).
            v[a] = v[a].wrapping_add(v[b]).wrapping_add(m[s[2 * i]]);
            v[d] = (v[d] ^ v[a]).rotate_right(32);
            v[c] = v[c].wrapping_add(v[d]);
            v[b] = (v[b] ^ v[c]).rotate_right(24);
            v[a] = v[a].wrapping_add(v[b]).wrapping_add(m[s[2 * i + 1]]);
            v[d] = (v[d] ^ v[a]).rotate_right(16);
            v[c] = v[c].wrapping_add(v[d]);
            v[b] = (v[b] ^ v[c]).rotate_right(63);
        }
    }
    for (i, word) in h.iter_mut().enumerate() {
        *word ^= v[i] ^ v[i + 8];
    }
}

/// Unkeyed BLAKE2b (RFC 7693) of `data` for an `out_len`-byte hash (1 to
/// 64): the hash is the first `out_len` bytes of the result.
fn blake2b(out_len: usize, data: &[u8]) -> [u8; 64] {
    let mut h = IV;
    h[0] ^= 0x0101_0000 ^ out_len as u64;
    // Every block but the last is full; the last (empty for empty input)
    // is zero-padded.
    let full = data.len().saturating_sub(1) / 128;
    for (i, block) in data.chunks_exact(128).take(full).enumerate() {
        compress(&mut h, block, 128 * (i as u128 + 1), false);
    }
    let mut last = [0u8; 128];
    let rest = &data[128 * full..];
    last[..rest.len()].copy_from_slice(rest);
    compress(&mut h, &last, data.len() as u128, true);
    let mut out = [0u8; 64];
    for (bytes, word) in out.chunks_exact_mut(8).zip(h) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// One message of a bundle: what the ordering instance sent, and the
/// encoding of the batch it names where its kind carries one — an
/// `Event`, an `Input` and a non-`⊥` `Opinion` do, nothing else does
/// (DESIGN.md §12). On the wire: the message, then a flag and, behind a
/// set flag, the batch's bytes behind their `u32` length.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Item {
    msg: OrderMsg<Digest>,
    batch: Option<Arc<Vec<u8>>>,
}

impl Item {
    /// `msg` with `batch`, the encoding of the batch it names: `None`
    /// unless `batch` is there exactly where the message's kind carries one.
    pub fn new(msg: OrderMsg<Digest>, batch: Option<Vec<u8>>) -> Option<Item> {
        (carries_batch(&msg) == batch.is_some()).then(|| Item {
            msg,
            batch: batch.map(Arc::new),
        })
    }

    /// The ordering message.
    pub fn msg(&self) -> &OrderMsg<Digest> {
        &self.msg
    }

    /// The encoding of the batch the message names, where it carries one.
    pub fn batch(&self) -> Option<&[u8]> {
        self.batch.as_deref().map(Vec::as_slice)
    }
}

impl Wire for Item {
    fn encode(&self, out: &mut Vec<u8>) {
        self.msg.encode(out);
        match &self.batch {
            None => out.push(0),
            Some(batch) => {
                out.push(1);
                batch.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let msg = OrderMsg::decode(input)?;
        Item::new(msg, Option::decode(input)?)
    }

    fn decode_items(input: &mut &[u8], len: usize) -> Option<Vec<Self>> {
        // The count is the sender's claim until the items decode: reserve
        // no more bytes of items than the input holds.
        let mut items = Vec::with_capacity(len.min(input.len() / std::mem::size_of::<Self>()));
        for _ in 0..len {
            items.push(Self::decode(input)?);
        }
        Some(items)
    }
}

/// What a [`ShardedLog`] member sends: a round's messages for one
/// destination, in send order.
type Bundle = Vec<Item>;

/// The digest a message names and the wave it names it in: an event of
/// round `r` belongs to wave `r + 1`, a wave message to its wave (`None`
/// for the paper's `⊥` and for messages without a digest).
fn named(msg: &OrderMsg<Digest>) -> Option<(u64, &Digest)> {
    match msg {
        OrderMsg::Event(digest, round) => Some((round.saturating_add(1), digest)),
        OrderMsg::Wave(wave, ParMsg::Input(_, digest)) => Some((*wave, digest)),
        OrderMsg::Wave(
            wave,
            ParMsg::Opinion(_, value) | ParMsg::Prefer(_, value) | ParMsg::StrongPrefer(_, value),
        ) => value.as_ref().map(|digest| (*wave, digest)),
        _ => None,
    }
}

/// Whether `msg` travels with the bytes of the batch it names.
fn carries_batch(msg: &OrderMsg<Digest>) -> bool {
    matches!(
        msg,
        OrderMsg::Event(..) | OrderMsg::Wave(_, ParMsg::Input(..) | ParMsg::Opinion(_, Some(_)))
    )
}

/// The most bytes an item takes beyond its batch's: the message tag (1), a
/// round or wave (8), a wave message's tag (1), instance id (8), option tag
/// (1) and digest (32), then the bytes flag (1) and a batch length (4) — an
/// `Opinion` that carries its batch, the largest kind.
const ITEM_OVERHEAD: usize = 56;

/// An upper bound on the bytes `item` adds to an encoded bundle, from
/// lengths alone: nothing is encoded to size it.
fn item_bound(item: &Item) -> usize {
    ITEM_OVERHEAD + item.batch().map_or(0, <[u8]>::len)
}

/// Splits `items` greedily, in order, into bundles whose encodings stay
/// within [`CHUNK_BYTES`] and hands each to `emit`. An item that alone
/// exceeds the budget travels in a bundle of its own; no bundle is empty.
fn pack(items: Bundle, mut emit: impl FnMut(Bundle)) {
    // A bundle starts with its 4-byte item count.
    const COUNT: usize = 4;
    let mut bundle = Vec::new();
    let mut used = COUNT;
    for item in items {
        let size = item_bound(&item);
        if !bundle.is_empty() && used + size > CHUNK_BYTES {
            emit(std::mem::take(&mut bundle));
            used = COUNT;
        }
        used += size;
        bundle.push(item);
    }
    if !bundle.is_empty() {
        emit(bundle);
    }
}

/// Unpacks a round's bundles into borrowed `(sender, message)` pairs, in
/// inbox order and then bundle order.
///
/// The result is a set, as a single instance's inbox is: a `(sender,
/// message)` that arrives more than once in the round — repeated inside
/// one bundle, or in both a sender's broadcast and its unicast bundle — is
/// kept at its first occurrence only. A message names its batch by
/// digest, so telling two apart hashes a few dozen bytes whatever the
/// batch holds; the bytes beside it play no part.
fn share<'a>(inbox: Inbox<'a, Bundle>) -> impl Iterator<Item = (NodeId, &'a OrderMsg<Digest>)> {
    let mut seen = HashSet::with_capacity(inbox.iter().map(|env| env.msg().len()).sum());
    inbox
        .iter()
        .flat_map(|env| env.msg().iter().map(|item| (env.from, &item.msg)))
        .filter(move |&pair| seen.insert(pair))
}

/// Maps a key to its shard: FNV-1a over the key bytes, reduced modulo the
/// shard count. Deliberately *not* [`std::hash::DefaultHasher`] — every
/// node and every client must agree on the mapping across processes and
/// builds, and `DefaultHasher`'s algorithm is unspecified.
pub fn shard_of(key: &str, shards: u32) -> u32 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in key.as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    (hash % u64::from(shards.max(1))) as u32
}

/// The horizon a service run needs so that every batch enqueued up to and
/// including round `ingest_until` finalizes before the instance
/// terminates: an event broadcast in round `w` lands in wave `w + 1`, which
/// is final once `2(r - (w + 1)) > 5n + 4` (the bound behind
/// [`TotalOrdering::finality_round`]), plus slack for the join handshake
/// rounds at the front of the run.
pub fn service_horizon(members: usize, ingest_until: u64) -> u64 {
    ingest_until + (5 * members as u64 + 4) / 2 + 5
}

/// Per-node ingress/egress state shared between the round loop and the
/// client-serving threads: pending submissions on their way *into* the
/// ordering instance, finalized prefixes on their way *out*.
struct IngressState {
    /// Whether new submissions are still acked. Flips to `false` at the
    /// ingest cutoff; acked-but-unordered submissions never exist past it.
    accepting: bool,
    /// Whether the prefixes are final: the ordering instance terminated
    /// and no prefix will ever grow again.
    sealed: bool,
    /// Next sequence number per shard.
    next_seq: Vec<u64>,
    /// Submissions awaiting their round's batch, in submission order.
    pending: Batch,
    /// The finalized record prefix per shard (only ever grows).
    prefixes: Vec<Vec<Record>>,
    /// The digest of a `(key, payload)` pair's encoding → `(shard, seq)`:
    /// the idempotency table behind duplicate-submit re-acks, which holds
    /// 32 bytes of each acked pair, not the pair.
    assigned: HashMap<Digest, (u32, u64)>,
}

/// Cloneable handle to one node's service state; the round loop drains
/// batches out of it, client connections submit into it and read prefixes
/// from it.
#[derive(Clone)]
pub struct LogIngress {
    shards: u32,
    state: Arc<Mutex<IngressState>>,
}

impl std::fmt::Debug for LogIngress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogIngress")
            .field("shards", &self.shards)
            .finish_non_exhaustive()
    }
}

impl LogIngress {
    /// Fresh ingress state for `shards` shards (at least 1).
    pub fn new(shards: u32) -> Self {
        let shards = shards.max(1);
        let n = shards as usize;
        LogIngress {
            shards,
            state: Arc::new(Mutex::new(IngressState {
                accepting: true,
                sealed: false,
                next_seq: vec![0; n],
                pending: Vec::new(),
                prefixes: vec![Vec::new(); n],
                assigned: HashMap::new(),
            })),
        }
    }

    /// The shard count.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, IngressState> {
        // The service never panics while holding the lock; treat poison as
        // the unrecoverable bug it would be.
        self.state.lock().expect("ingress lock poisoned")
    }

    /// Accepts one submission on behalf of `node`: assigns the key's shard
    /// and the shard's next sequence number, or re-acks the existing slot
    /// for a duplicate `(key, payload)` pair. `None` once ingest closed —
    /// the caller drops the connection rather than promising an ordering
    /// that can no longer happen. The `bool` is `true` for a fresh slot,
    /// `false` for a duplicate re-ack.
    pub fn submit(&self, key: String, payload: Vec<u8>, node: u64) -> Option<(u32, u64, bool)> {
        let shard = shard_of(&key, self.shards);
        let pair = (key, payload);
        let hashed = Digest::of(&pair.to_bytes());
        let mut state = self.lock();
        let state = &mut *state;
        match state.assigned.entry(hashed) {
            Entry::Occupied(slot) => {
                let (shard, seq) = *slot.get();
                Some((shard, seq, false))
            }
            Entry::Vacant(_) if !state.accepting => None,
            Entry::Vacant(slot) => {
                let seq = state.next_seq[shard as usize];
                state.next_seq[shard as usize] += 1;
                slot.insert((shard, seq));
                let (key, payload) = pair;
                state.pending.push(Record {
                    key,
                    payload,
                    node,
                    seq,
                });
                Some((shard, seq, true))
            }
        }
    }

    /// One shard's finalized records from index `from` on, plus whether the
    /// prefix is sealed (final). An out-of-range shard reads as empty and
    /// follows the global sealed flag.
    pub fn prefix_from(&self, shard: u32, from: u64) -> (Vec<Record>, bool) {
        self.page_from(shard, from, usize::MAX)
    }

    /// As [`prefix_from`](Self::prefix_from), stopping before the record
    /// that would take the page past `budget` chunk bytes — but never before
    /// the first.
    fn page_from(&self, shard: u32, from: u64, budget: usize) -> (Vec<Record>, bool) {
        let state = self.lock();
        let prefix = state.prefixes.get(shard as usize);
        let rest = prefix.map_or(&[][..], |prefix| &prefix[prefix.len().min(from as usize)..]);
        let mut used = 0usize;
        let fits = |record: &&Record| {
            used = used.saturating_add(chunk_len(record));
            used <= budget
        };
        let page = rest.iter().take_while(fits).count().max(1).min(rest.len());
        (rest[..page].to_vec(), state.sealed)
    }

    /// Whether the prefixes are final.
    pub fn sealed(&self) -> bool {
        self.lock().sealed
    }

    /// Drains the pending submissions into this round's batch.
    fn take_batch(&self) -> Batch {
        std::mem::take(&mut self.lock().pending)
    }

    /// Stops acking new submissions (the ingest cutoff).
    fn close_ingest(&self) {
        self.lock().accepting = false;
    }

    /// Appends newly finalized records, in order, each to its key's shard
    /// prefix and returns every prefix's new length.
    fn append(&self, grown: impl IntoIterator<Item = Record>) -> Vec<usize> {
        let mut state = self.lock();
        for record in grown {
            let shard = shard_of(&record.key, self.shards);
            state.prefixes[shard as usize].push(record);
        }
        state.prefixes.iter().map(Vec::len).collect()
    }

    /// Marks the prefixes final; implies the ingest cutoff.
    fn seal(&self) {
        let mut state = self.lock();
        state.accepting = false;
        state.sealed = true;
    }
}

/// The batches a member holds, by wave and then digest: each one's encoding.
type Store = BTreeMap<u64, HashMap<Digest, Arc<Vec<u8>>>>;

/// The stored encoding of the batch a message names: its digest in its wave.
fn resolve<'a>(store: &'a Store, (wave, digest): (u64, &Digest)) -> Option<&'a Arc<Vec<u8>>> {
    store.get(&wave)?.get(digest)
}

/// One cluster node's service process: one [`TotalOrdering`] instance
/// over a single round loop, fed from a [`LogIngress`] whose shards
/// partition the keys.
///
/// The instance orders batch [`Digest`]s, and the message type is a
/// bundle: one round's [`Item`]s for one destination. `on_round` first
/// stores the bytes of every batch an item carries that it does not hold
/// yet, hashing them once to check them against their digest. It unpacks
/// the inbox's bundles into borrowed `(sender, message)` pairs — a set, as
/// a single instance's inbox is — hides every message that names a digest
/// it cannot resolve, and steps the instance on the rest through
/// [`TotalOrdering::step`]. It then sends the instance's traffic, with the
/// batch bytes beside `Event`, `Input` and `Opinion` only, as at most one
/// broadcast bundle and one bundle per addressed peer, split further only
/// where a bundle would outgrow half a frame. DESIGN.md §12 argues why no
/// honest message is ever hidden, so the instance runs the single-instance
/// execution the simulator oracles certify, while a member puts a handful
/// of frames on a link per round whatever its shard count. Each round the
/// digests the chain grew by are resolved into their records and split
/// into the shard prefixes by [`shard_of`]; within a shard they stay in
/// (wave, origin, submission) order. A stored batch is dropped once its
/// wave is final.
///
/// Output: the per-shard finalized record prefixes — the ingress's, read
/// once — when the instance has reached the horizon and they are sealed.
pub struct ShardedLog {
    me: NodeId,
    ingress: LogIngress,
    log: TotalOrdering<Digest>,
    /// The batches this member can resolve, by wave and digest: each one's
    /// encoding, held from its arrival until its wave is final.
    store: Store,
    /// How many events of the chain are already in the ingress prefixes.
    published: usize,
    ingest_until: u64,
    runtime: Option<SharedRuntimeMetrics>,
}

impl ShardedLog {
    /// A founding service node: a genesis ordering instance terminating at
    /// `horizon`, batching new submissions up to and including round
    /// `ingest_until` (use [`service_horizon`] to derive a horizon that
    /// lets the last batch finalize).
    pub fn new(me: NodeId, ingress: LogIngress, ingest_until: u64, horizon: u64) -> Self {
        ShardedLog {
            me,
            ingress,
            log: TotalOrdering::genesis(me).with_horizon(horizon),
            store: BTreeMap::new(),
            published: 0,
            ingest_until,
            runtime: None,
        }
    }

    /// Attaches the wall-clock registry the service families are recorded
    /// into: the per-shard `logd_batches_total{shard=..}`,
    /// `logd_batch_records_total{shard=..}` and
    /// `logd_prefix_records{shard=..}`, and `logd_hidden_items_total`, the
    /// received messages hidden for naming a batch this member cannot
    /// resolve (never one between honest members).
    pub fn with_runtime_metrics(mut self, runtime: SharedRuntimeMetrics) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// The bytes of the batches this member holds for resolving digests.
    pub fn stored_bytes(&self) -> usize {
        self.store.values().flatten().map(|(_, b)| b.len()).sum()
    }

    /// Counts a sealed batch under every shard it holds a record of: one
    /// `logd_batches_total` and its records in `logd_batch_records_total`.
    fn count_batch(&self, batch: &Batch) {
        let Some(rt) = &self.runtime else { return };
        let shards = self.ingress.shards();
        let mut records = vec![0u64; shards as usize];
        for record in batch {
            records[shard_of(&record.key, shards) as usize] += 1;
        }
        for (shard, &size) in records.iter().enumerate().filter(|(_, &size)| size > 0) {
            let shard = shard.to_string();
            let label = [("shard", shard.as_str())];
            rt.inc(&metric_name("logd_batches_total", &label));
            rt.add(&metric_name("logd_batch_records_total", &label), size);
        }
    }

    /// `msg` as a bundle item, with the stored bytes of its batch where its
    /// kind carries them; `None` where the store lacks them, which DESIGN.md
    /// §12 shows never happens to a message the instance sends.
    fn ship(&self, msg: OrderMsg<Digest>) -> Option<Item> {
        let batch = match named(&msg) {
            Some(named) if carries_batch(&msg) => Some(Arc::clone(resolve(&self.store, named)?)),
            _ => None,
        };
        Some(Item { msg, batch })
    }
}

impl Process for ShardedLog {
    type Msg = Bundle;
    type Output = Vec<Vec<Record>>;

    fn id(&self) -> NodeId {
        self.me
    }

    fn on_round(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let round = ctx.round();

        // Seal this round's batch before stepping, so it lands in the round
        // about to run. At the cutoff round, close ingest *before* the final
        // drain: `submit` and the drain serialize on the ingress lock, so
        // every acked submission is either in this last batch or refused —
        // never acked-then-stranded.
        if round <= self.ingest_until {
            if round == self.ingest_until {
                self.ingress.close_ingest();
            }
            let batch = self.ingress.take_batch();
            if !batch.is_empty() {
                self.count_batch(&batch);
                let bytes = batch.to_bytes();
                let digest = Digest::of(&bytes);
                let queued = self.log.enqueue_event(digest);
                debug_assert!(
                    queued.is_some(),
                    "acked batch dropped: instance terminated before the ingest cutoff"
                );
                if let Some(sent) = queued {
                    let wave = self.store.entry(sent + 1).or_default();
                    wave.insert(digest, Arc::new(bytes));
                }
            }
        } else {
            self.ingress.close_ingest();
        }

        // Store every batch that arrived for a wave in flight and is not
        // held there yet, if its bytes match its digest; then step the
        // instance on the messages whose digest resolves, hiding the rest.
        let inbox = ctx.inbox();
        let in_flight = self.log.finality_round() + 1..=self.log.round() + 1;
        for item in inbox.iter().flat_map(|env| env.msg()) {
            let named = named(&item.msg).filter(|(wave, _)| in_flight.contains(wave));
            if let (Some(bytes), Some((wave, &digest))) = (&item.batch, named) {
                if let Entry::Vacant(slot) = self.store.entry(wave).or_default().entry(digest) {
                    if Digest::of(bytes) == digest {
                        slot.insert(Arc::clone(bytes));
                    }
                }
            }
        }
        let mut hidden = 0;
        let store = &self.store;
        let resolved = share(inbox).filter(|&(_, msg)| {
            let resolves = named(msg).is_none_or(|named| resolve(store, named).is_some());
            hidden += u64::from(!resolves);
            resolves
        });
        let mut sends = Vec::new();
        self.log.step(resolved, &mut sends);
        if let (Some(rt), true) = (&self.runtime, hidden > 0) {
            rt.add("logd_hidden_items_total", hidden);
        }

        // Gather the instance's traffic by destination, then send each
        // destination's bundle.
        let mut broadcast = Vec::new();
        let mut unicast: BTreeMap<NodeId, Bundle> = BTreeMap::new();
        for (dest, msg) in sends {
            let item = self.ship(msg);
            debug_assert!(item.is_some(), "a message names a batch this member lacks");
            let Some(item) = item else { continue };
            match dest {
                Dest::Broadcast => broadcast.push(item),
                Dest::To(to) => unicast.entry(to).or_default().push(item),
            }
        }
        pack(broadcast, |bundle| ctx.broadcast(bundle));
        for (to, items) in unicast {
            pack(items, |bundle| ctx.send(to, bundle));
        }

        // Append what the chain grew by this round — batches in wave order,
        // records in batch order — to the shard prefixes; then drop the
        // batches of every final wave, and seal once the instance
        // terminated.
        let grown = &self.log.chain()[self.published..];
        self.published += grown.len();
        let store = &self.store;
        let lens = self.ingress.append(grown.iter().flat_map(|event| {
            let bytes = resolve(store, (event.wave, &event.value));
            debug_assert!(bytes.is_some(), "a final batch left the store");
            // Bytes that match their digest but are no batch publish nothing,
            // the same at every member.
            bytes
                .and_then(|bytes| Batch::from_bytes(bytes))
                .unwrap_or_default()
        }));
        self.store = self.store.split_off(&(self.log.finality_round() + 1));
        if let Some(rt) = &self.runtime {
            for (shard, len) in lens.into_iter().enumerate() {
                rt.set_gauge(
                    &metric_name("logd_prefix_records", &[("shard", &shard.to_string())]),
                    len as u64,
                );
            }
        }
        if self.log.terminated() {
            self.ingress.seal();
        }
    }

    fn output(&self) -> Option<Self::Output> {
        let state = self.ingress.lock();
        state.sealed.then(|| state.prefixes.clone())
    }

    fn terminated(&self) -> bool {
        self.ingress.sealed()
    }
}

/// The per-connection client protocol loop: `Submit → SubmitAck` (or
/// disconnect once ingest closed), `ReadPrefix → PrefixChunk`. Any other
/// frame is a protocol violation and drops the connection.
fn serve_frames(
    mut stream: &TcpStream,
    ingress: &LogIngress,
    node: u64,
    runtime: Option<&SharedRuntimeMetrics>,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(Frame::Submit { key, payload })) => {
                match ingress.submit(key, payload, node) {
                    Some((shard, seq, fresh)) => {
                        if let Some(rt) = runtime {
                            let name = if fresh {
                                "logd_submits_total"
                            } else {
                                "logd_submit_dedup_total"
                            };
                            rt.inc(&metric_name(name, &[("shard", &shard.to_string())]));
                        }
                        if write_frame(&mut stream, &Frame::SubmitAck { shard, seq }).is_err() {
                            return;
                        }
                    }
                    // Ingest closed: an ack now would be a broken promise.
                    None => return,
                }
            }
            Ok(Some(Frame::ReadPrefix { shard, from })) => {
                let (records, sealed) = ingress.page_from(shard, from, CHUNK_BYTES);
                let chunk = Frame::PrefixChunk {
                    shard,
                    from,
                    sealed,
                    records: records.iter().map(Wire::to_bytes).collect(),
                };
                // A shard that does not exist reads as empty but mints no
                // series: a client looping over shard numbers would grow
                // the registry without bound.
                if let (Some(rt), true) = (runtime, shard < ingress.shards()) {
                    rt.inc(&metric_name(
                        "logd_reads_total",
                        &[("shard", &shard.to_string())],
                    ));
                }
                if write_frame(&mut stream, &chunk).is_err() {
                    return;
                }
            }
            // Clean disconnect, a transport/inter-node frame on the client
            // port, or an I/O error: either way this conversation is over.
            Ok(Some(_)) | Ok(None) | Err(_) => return,
        }
    }
}

/// Serves the client protocol on `listener` against `ingress`, each
/// connection on a thread of its own. `node` attributes acked
/// records; `runtime` receives the per-shard `logd_*` families, the
/// service's only observation channel. The ordering run finishing does
/// *not* stop the server — sealed prefixes stay readable until
/// [`Server::shutdown`].
///
/// # Errors
///
/// Propagates the listener's local-address lookup failure.
pub fn serve_clients(
    listener: TcpListener,
    ingress: LogIngress,
    node: u64,
    runtime: Option<SharedRuntimeMetrics>,
) -> io::Result<Server> {
    Server::start(listener, move |stream| {
        // Request/response over tiny frames: Nagle + delayed ACK would put
        // ~40ms under every ack.
        let _ = stream.set_nodelay(true);
        serve_frames(stream, &ingress, node, runtime.as_ref());
    })
}

/// A blocking client of the `logd` service protocol.
///
/// One TCP connection, synchronous request/response. [`submit`] returning
/// `Ok(None)` means the service closed ingest (or the connection) — the
/// submission was **not** acked and will not be ordered.
///
/// [`submit`]: LogClient::submit
#[derive(Debug)]
pub struct LogClient {
    stream: TcpStream,
}

/// One [`LogClient::read_prefix`] answer, with the records decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixPage {
    /// The shard read.
    pub shard: u32,
    /// Index of the first record.
    pub from: u64,
    /// Whether the prefix is final.
    pub sealed: bool,
    /// The finalized records from `from` on, in log order.
    pub records: Vec<Record>,
}

impl LogClient {
    /// Connects to a node's client listener.
    ///
    /// # Errors
    ///
    /// Propagates connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LogClient { stream })
    }

    /// Submits `(key, payload)` and waits for the ack: `Some((shard, seq))`
    /// once the service owes the submission a slot in the shard's finalized
    /// prefix, `None` if ingest already closed.
    ///
    /// # Errors
    ///
    /// I/O failure, or a protocol violation by the server
    /// ([`io::ErrorKind::InvalidData`]).
    pub fn submit(&mut self, key: &str, payload: &[u8]) -> io::Result<Option<(u32, u64)>> {
        write_frame(
            &mut self.stream,
            &Frame::Submit {
                key: key.to_string(),
                payload: payload.to_vec(),
            },
        )?;
        match read_frame(&mut self.stream) {
            Ok(Some(Frame::SubmitAck { shard, seq })) => Ok(Some((shard, seq))),
            Ok(None) => Ok(None),
            // The server hangs up instead of nacking; a reset mid-read is
            // the same refusal observed less politely.
            Err(err)
                if matches!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::BrokenPipe
                ) =>
            {
                Ok(None)
            }
            Ok(Some(_)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected frame in reply to Submit",
            )),
            Err(err) => Err(err),
        }
    }

    /// Reads one shard's finalized prefix from record index `from` on.
    ///
    /// # Errors
    ///
    /// I/O failure, or a malformed reply ([`io::ErrorKind::InvalidData`]).
    pub fn read_prefix(&mut self, shard: u32, from: u64) -> io::Result<PrefixPage> {
        write_frame(&mut self.stream, &Frame::ReadPrefix { shard, from })?;
        match read_frame(&mut self.stream)? {
            Some(Frame::PrefixChunk {
                shard,
                from,
                sealed,
                records,
            }) => {
                let records = records
                    .iter()
                    .map(|bytes| {
                        Record::from_bytes(bytes).ok_or_else(|| {
                            io::Error::new(io::ErrorKind::InvalidData, "malformed record")
                        })
                    })
                    .collect::<io::Result<Vec<Record>>>()?;
                Ok(PrefixPage {
                    shard,
                    from,
                    sealed,
                    records,
                })
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected reply to ReadPrefix",
            )),
        }
    }

    /// Reads one shard's prefix page by page, each read starting where the
    /// last one ended (waiting while there is nothing new), until a page is
    /// sealed and empty; returns the whole prefix.
    ///
    /// # Errors
    ///
    /// As `read_prefix`, plus [`io::ErrorKind::TimedOut`] if the prefix is
    /// not sealed and drained within `timeout`.
    pub fn read_sealed_prefix(&mut self, shard: u32, timeout: Duration) -> io::Result<Vec<Record>> {
        let deadline = Instant::now() + timeout;
        let mut records = Vec::new();
        loop {
            let page = self.read_prefix(shard, records.len() as u64)?;
            let drained = page.records.is_empty();
            records.extend(page.records);
            if drained && page.sealed {
                return Ok(records);
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "prefix not sealed within the timeout",
                ));
            }
            if drained {
                thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// One acked submission as its client remembers it: key, payload, shard.
type Acked = (String, Vec<u8>, u32);

/// One closed-loop client: submits `quota` records over `keys` keys to
/// `addr`, each once the previous one is acked — with `pace`, no earlier
/// than its slot in that schedule. Payloads are unique per submission, so
/// the service's duplicate detection stays out of the way. Stops early once
/// `stop` is set, and sets it when ingest closes. Returns the acked
/// submissions and each ack's latency in microseconds.
///
/// # Errors
///
/// Connection or submit I/O failure.
pub fn closed_loop(
    addr: impl ToSocketAddrs,
    client_idx: usize,
    quota: usize,
    keys: usize,
    pace: Option<Duration>,
    stop: &AtomicBool,
) -> io::Result<(Vec<Acked>, Vec<u64>)> {
    let mut client = LogClient::connect(addr)?;
    let (mut acked, mut latencies_us) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for i in 0..quota {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        if let Some(pace) = pace {
            thread::sleep((pace * i as u32).saturating_sub(started.elapsed()));
        }
        let key = format!("key-{}", (client_idx + i * 7) % keys);
        let payload = format!("c{client_idx}-{i}").into_bytes();
        let sent = Instant::now();
        let Some((shard, _seq)) = client.submit(&key, &payload)? else {
            // Ingest closed: the run is over for everyone.
            stop.store(true, Ordering::Relaxed);
            break;
        };
        latencies_us.push(sent.elapsed().as_micros() as u64);
        acked.push((key, payload, shard));
    }
    Ok((acked, latencies_us))
}

/// The service's promise, checked from the outside: every record of
/// `prefixes` (one per shard, `shards` of them) sits in its key's shard,
/// every `acked` `(key, payload, shard)` appears exactly once and in the
/// shard its ack named, and nothing unacked appears at all (the caller is
/// the only writer).
///
/// # Errors
///
/// Names the first offending key.
pub fn check_exactly_once(
    acked: &[Acked],
    prefixes: &[Vec<Record>],
    shards: u32,
) -> Result<(), String> {
    let mut counts: BTreeMap<(&str, &[u8]), usize> = BTreeMap::new();
    for (shard, prefix) in prefixes.iter().enumerate() {
        for record in prefix {
            if shard_of(&record.key, shards) != shard as u32 {
                return Err(format!("{:?} sits in foreign shard {shard}", record.key));
            }
            *counts.entry((&record.key, &record.payload)).or_default() += 1;
        }
    }
    for (key, payload, shard) in acked {
        let found = counts.remove(&(key.as_str(), payload.as_slice()));
        let (found, home) = (found.unwrap_or(0), shard_of(key, shards));
        if found != 1 || *shard != home {
            return Err(format!(
                "acked {key:?} expected once in shard {shard}, found {found} times in shard {home}"
            ));
        }
    }
    match counts.keys().next() {
        Some((key, _)) => Err(format!("unacked {key:?} in the finalized log")),
        None => Ok(()),
    }
}

/// What one member's ordering loop yields: its [`NetReport`] with the
/// finalized per-shard prefixes as the output type.
type LogReport<T> = NetReport<Vec<Vec<Record>>, T>;

/// A running `logd` cluster: every member's ordering loop on its own
/// thread, every member's client listener serving, addresses published.
pub struct LogCluster<T: Tracer> {
    client_addrs: BTreeMap<NodeId, SocketAddr>,
    /// The ordering loops, until [`join_ordering`](Self::join_ordering)
    /// collects them.
    ordering: Option<RunningCluster<Vec<Vec<Record>>, T>>,
    servers: Vec<Server>,
}

impl<T: Tracer> std::fmt::Debug for LogCluster<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogCluster")
            .field("client_addrs", &self.client_addrs)
            .finish_non_exhaustive()
    }
}

/// Spawns a `logd` service cluster on localhost: one [`ShardedLog`] member
/// per id (each ordering one log over `shards` key shards), one client listener
/// per member, race-free startup as in
/// [`run_local_cluster`](crate::run_local_cluster). Returns immediately
/// with the running cluster; [`LogCluster::join_ordering`] waits for the
/// horizon.
///
/// Submissions are acked through round `ingest_until`; the horizon is
/// derived via [`service_horizon`] so the last batch finalizes. Pace the
/// rounds via `config.round_pace` — unpaced, a quiet localhost cluster
/// burns through the ingest window in milliseconds.
///
/// # Errors
///
/// Propagates listener binding failures.
///
/// # Panics
///
/// Panics on duplicate member ids.
pub fn spawn_log_cluster<T>(
    ids: &[NodeId],
    shards: u32,
    ingest_until: u64,
    config: NetConfig,
    tracer_for: impl FnMut(NodeId) -> T,
    mut metrics_for: impl FnMut(NodeId) -> Option<SharedRuntimeMetrics>,
) -> Result<LogCluster<T>, NetError>
where
    T: Tracer + Send + 'static,
{
    let horizon = service_horizon(ids.len(), ingest_until);
    // One client listener, ingress and service process per member; the
    // harness then binds the inter-node roster and starts the ordering
    // loops, with the same registry the member's client side records into.
    let mut members = Vec::new();
    let mut runtimes = BTreeMap::new();
    let mut client_addrs = BTreeMap::new();
    let mut servers = Vec::new();
    for &id in ids {
        let client_listener = TcpListener::bind("127.0.0.1:0")?;
        let runtime = metrics_for(id);
        let ingress = LogIngress::new(shards);
        let server = serve_clients(client_listener, ingress.clone(), id.raw(), runtime.clone())?;
        client_addrs.insert(id, server.addr());
        servers.push(server);
        let mut process = ShardedLog::new(id, ingress, ingest_until, horizon);
        if let Some(rt) = runtime.clone() {
            process = process.with_runtime_metrics(rt);
        }
        members.push(process);
        runtimes.insert(id, runtime);
    }
    let ordering = ClusterSpec::default().spawn(members, config, tracer_for, |id| {
        runtimes.remove(&id).flatten()
    })?;
    Ok(LogCluster {
        client_addrs,
        ordering: Some(ordering),
        servers,
    })
}

impl<T: Tracer> LogCluster<T> {
    /// The client listener address of every member.
    pub fn client_addrs(&self) -> &BTreeMap<NodeId, SocketAddr> {
        &self.client_addrs
    }

    /// Waits for every member's ordering loop to reach the horizon and
    /// returns the reports. The client listeners **keep serving** — sealed
    /// prefixes stay readable until [`shutdown`](LogCluster::shutdown).
    ///
    /// # Errors
    ///
    /// As [`run_local_cluster`](crate::run_local_cluster).
    pub fn join_ordering(&mut self) -> Result<BTreeMap<NodeId, LogReport<T>>, NetError> {
        match self.ordering.take() {
            Some(ordering) => ordering.join().map(|run| run.reports),
            None => Ok(BTreeMap::new()),
        }
    }

    /// Stops the client listeners. Call after
    /// [`join_ordering`](LogCluster::join_ordering) once readers are done.
    pub fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uba_sim::Envelope;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        // Pinned values: the mapping is part of the wire contract (clients
        // and every node must agree on it across builds).
        assert_eq!(shard_of("user/42", 4), shard_of("user/42", 4));
        for key in ["", "a", "user/42", "zzz"] {
            assert!(shard_of(key, 4) < 4);
            assert_eq!(shard_of(key, 1), 0);
        }
        // Different keys spread (FNV-1a of short ASCII strings).
        let spread: std::collections::BTreeSet<u32> = (0..32u32)
            .map(|i| shard_of(&format!("key-{i}"), 4))
            .collect();
        assert_eq!(spread.len(), 4, "32 keys cover all 4 shards");
    }

    #[test]
    fn record_round_trips_on_the_wire() {
        let record = Record {
            key: "user/42".into(),
            payload: vec![1, 2, 3],
            node: 9,
            seq: 17,
        };
        // What the record adds to a chunk: its bytes behind a u32 length.
        assert_eq!(chunk_len(&record), record.to_bytes().len() + 4);
        assert_eq!(Record::from_bytes(&record.to_bytes()), Some(record));
    }

    /// A record, and a bundle holding the one-record batch event the
    /// service ships, byte for byte: the event names the batch by its
    /// digest, then the set bytes flag carries the batch's encoding — its
    /// record count and the record — behind its `u32` length.
    #[test]
    fn records_and_shipped_bundles_encode_to_pinned_bytes() {
        let record = Record {
            key: "k".into(),
            payload: vec![1, 2, 3],
            node: 9,
            seq: 17,
        };
        const RECORD: [u8; 28] = [
            1, 0, 0, 0, b'k', // key
            3, 0, 0, 0, 1, 2, 3, // payload
            9, 0, 0, 0, 0, 0, 0, 0, // node
            17, 0, 0, 0, 0, 0, 0, 0, // seq
        ];
        assert_eq!(record.to_bytes(), RECORD);
        let batch = vec![record].to_bytes();
        assert_eq!(batch, [&[1, 0, 0, 0][..], &RECORD].concat());
        // BLAKE2b-256 of the batch's encoding (Python's `hashlib.blake2b`
        // with `digest_size=32`).
        const DIGEST: [u8; 32] = [
            215, 159, 135, 63, 66, 70, 0, 93, 105, 92, 183, 37, 232, 167, 132, 193, 49, 83, 149,
            29, 200, 35, 170, 55, 87, 240, 7, 143, 193, 0, 129, 74,
        ];
        let event = OrderMsg::Event(Digest::of(&batch), 5);
        let shipped: <ShardedLog as Process>::Msg =
            vec![Item::new(event, Some(batch.clone())).expect("an event carries its batch")];
        // One item; `Event`.
        let head = [1, 0, 0, 0, 3];
        let round = [5, 0, 0, 0, 0, 0, 0, 0];
        // The bytes flag, then the batch behind its length.
        let carried = [1, 32, 0, 0, 0];
        assert_eq!(
            shipped.to_bytes(),
            [&head[..], &DIGEST, &round, &carried, &batch].concat()
        );
    }

    /// The hash behind [`Digest`] against RFC 7693 Appendix A's
    /// BLAKE2b-512("abc") and against BLAKE2b-256 values from Python's
    /// `hashlib`, at the empty input and at both sides of a block boundary.
    #[test]
    fn blake2b_matches_its_known_answers() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        assert_eq!(
            hex(&blake2b(64, b"abc")),
            "ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d1\
             7d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923"
        );
        let a128 = [b'a'; 128];
        let a129 = [b'a'; 129];
        for (input, expected) in [
            (
                &b""[..],
                "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8",
            ),
            (
                b"abc",
                "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319",
            ),
            (
                &a128,
                "ae2aa48507885c4c950fb809b2076f959cde9f8ea6da260d9a3587df33dac450",
            ),
            (
                &a129,
                "2f64744a6de0d2c0b56e64cf6e29a5aaa255010d415d51c75ccc82f73dccd865",
            ),
        ] {
            assert_eq!(hex(&Digest::of(input).0), expected, "{} bytes", input.len());
        }
    }

    /// One item of every message kind the service sends, the
    /// batch-carrying ones with `batch`, the rest naming its digest.
    fn every_kind(batch: &Batch) -> Vec<Item> {
        let id = NodeId::new(7);
        let bytes = batch.to_bytes();
        let digest = Digest::of(&bytes);
        let item = |msg| {
            let carried = carries_batch(&msg).then(|| bytes.clone());
            Item::new(msg, carried).expect("bytes where the kind carries them")
        };
        [
            OrderMsg::Present,
            OrderMsg::Ack(3),
            OrderMsg::Absent,
            OrderMsg::Event(digest, 4),
            OrderMsg::Wave(5, ParMsg::RotorInit),
            OrderMsg::Wave(5, ParMsg::RotorEcho(id)),
            OrderMsg::Wave(5, ParMsg::Opinion(id, Some(digest))),
            OrderMsg::Wave(5, ParMsg::Opinion(id, None)),
            OrderMsg::Wave(5, ParMsg::Input(id, digest)),
            OrderMsg::Wave(5, ParMsg::Prefer(id, Some(digest))),
            OrderMsg::Wave(5, ParMsg::NoPreference(id)),
            OrderMsg::Wave(5, ParMsg::StrongPrefer(id, Some(digest))),
            OrderMsg::Wave(5, ParMsg::NoStrongPreference(id)),
        ]
        .into_iter()
        .map(item)
        .collect()
    }

    fn record_of(len: usize, seq: u64) -> Record {
        Record {
            key: format!("key-{seq}"),
            payload: vec![seq as u8; len],
            node: 1,
            seq,
        }
    }

    #[test]
    fn an_items_bound_covers_its_encoding() {
        for batch in [
            vec![],
            vec![record_of(3, 1)],
            vec![record_of(0, 2), record_of(900, 3)],
        ] {
            for item in every_kind(&batch) {
                let bytes = item.to_bytes().len();
                assert!(bytes <= item_bound(&item), "{item:?}: {bytes} bytes");
                assert_eq!(Item::from_bytes(&item.to_bytes()), Some(item));
            }
        }
    }

    /// Only `Event`, `Input` and a non-`⊥` `Opinion` carry bytes: an item
    /// whose bytes flag disagrees with its kind is not an item, built or
    /// decoded.
    #[test]
    fn bytes_travel_only_where_the_kind_carries_them() {
        let batch = vec![record_of(3, 1)];
        for item in every_kind(&batch) {
            let msg = item.msg().clone();
            let flipped = match item.batch() {
                Some(_) => None,
                None => Some(batch.to_bytes()),
            };
            // The decoder builds every item through `Item::new`.
            assert_eq!(Item::new(msg.clone(), flipped), None, "{msg:?}");
        }
    }

    #[test]
    fn bundles_stay_within_half_a_frame_and_keep_their_items_in_order() {
        // 1 MiB and 3 MiB records, two 9 MiB ones that no bundle can share,
        // and small messages between them.
        let sizes = [1, 3, 3, 9, 1, 1, 9, 3, 1].map(|mib| mib << 20);
        let mut items = Vec::new();
        for (seq, &len) in sizes.iter().enumerate() {
            let batch = vec![record_of(len, seq as u64)].to_bytes();
            let event = OrderMsg::Event(Digest::of(&batch), 1);
            items.extend(Item::new(event, Some(batch)));
            items.extend(Item::new(OrderMsg::Wave(2, ParMsg::RotorInit), None));
        }
        let mut bundles = Vec::new();
        pack(items.clone(), |bundle| bundles.push(bundle));
        for bundle in &bundles {
            assert!(!bundle.is_empty(), "an empty bundle");
            let oversize = bundle.iter().any(|item| item_bound(item) > CHUNK_BYTES);
            if oversize {
                assert_eq!(bundle.len(), 1, "an oversize item travels alone");
            } else {
                assert!(
                    bundle.to_bytes().len() <= CHUNK_BYTES,
                    "a bundle over budget"
                );
            }
        }
        let lens: Vec<usize> = bundles.iter().map(Vec::len).collect();
        assert_eq!(lens, [6, 1, 5, 1, 5], "greedy, in order");
        assert_eq!(
            bundles.concat(),
            items,
            "the bundles are the items, in order"
        );

        let mut none = 0;
        pack(Vec::new(), |_| none += 1);
        assert_eq!(none, 0, "nothing to send sends nothing");
    }

    #[test]
    fn a_share_drops_repeats_in_first_occurrence_order() {
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let digest = |seq: u64| Digest::of(&seq.to_le_bytes());
        let item = |msg| Item::new(msg, None).expect("carries no batch");
        let prefer = |seq| OrderMsg::Wave(4, ParMsg::Prefer(b, Some(digest(seq))));
        let ack = OrderMsg::Ack(3);
        // Same kind, wave and instance as `prefer(1)`, other digest: kept.
        let tie = prefer(2);
        let broadcast = vec![item(prefer(1)), item(ack.clone()), item(prefer(1))];
        let unicast = vec![item(tie.clone()), item(ack.clone()), item(prefer(1))];
        let inbox = vec![
            Envelope::new(a, broadcast.clone()),
            Envelope::new(b, broadcast),
            Envelope::new(a, unicast),
        ];
        assert_eq!(
            share(Inbox::from(&inbox)).collect::<Vec<_>>(),
            [
                (a, &prefer(1)),
                (a, &ack),
                (b, &prefer(1)),
                (b, &ack),
                (a, &tie)
            ],
            "once per sender, tie kept, inbox order"
        );

        // One instance, many digests (a hostile sender's bundle), each sent
        // twice and `⊥` twice: one of each, in first-occurrence order.
        let opinion = |value| OrderMsg::Wave(5, ParMsg::Opinion(b, value));
        let carried = |value: Option<Digest>| {
            let bytes = value.map(|digest| digest.to_bytes());
            Item::new(opinion(value), bytes).expect("an opinion carries its value")
        };
        let distinct: Vec<_> = (0..5_000).map(|seq| Some(digest(seq))).collect();
        let mut bundle: Vec<Item> = distinct.iter().map(|&value| carried(value)).collect();
        bundle.extend(bundle.clone());
        bundle.insert(7, carried(None));
        bundle.push(carried(None));
        let inbox = [Envelope::new(a, bundle)];
        let kept: Vec<_> = share(Inbox::from(&inbox))
            .map(|(_, msg)| msg.clone())
            .collect();
        let mut expected: Vec<_> = distinct.into_iter().map(opinion).collect();
        expected.insert(7, opinion(None));
        assert!(kept == expected, "one of each, first-occurrence order");
    }

    #[test]
    fn a_prefix_over_max_frame_is_read_whole_page_by_page() {
        // 20 records of 1 MiB: no single frame can carry the prefix.
        let ingress = LogIngress::new(1);
        let records: Vec<Record> = (0..20u64)
            .map(|seq| Record {
                key: format!("key-{seq}"),
                payload: vec![seq as u8; 1 << 20],
                node: 1,
                seq,
            })
            .collect();
        assert_eq!(ingress.append(records.iter().cloned()), [20]);
        ingress.seal();
        let (page, sealed) = ingress.page_from(0, 0, CHUNK_BYTES);
        assert_eq!((page.len(), sealed), (7, true), "whole records under 8 MiB");
        let (page, _) = ingress.page_from(0, 19, 1);
        assert_eq!(page.len(), 1, "a page always carries a record");

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = serve_clients(listener, ingress, 1, None).expect("serves");
        let mut client = LogClient::connect(server.addr()).expect("connects");
        let read = client.read_sealed_prefix(0, Duration::from_secs(60));
        server.shutdown();
        assert!(
            read.expect("sealed prefix read") == records,
            "whole, in order"
        );
    }

    #[test]
    fn reads_of_shards_that_do_not_exist_mint_no_series() {
        let ingress = LogIngress::new(2);
        let registry = SharedRuntimeMetrics::new();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = serve_clients(listener, ingress, 1, Some(registry.clone())).expect("serves");
        let mut client = LogClient::connect(server.addr()).expect("connects");
        for shard in 0..1000 {
            let page = client.read_prefix(shard, 0).expect("read answers");
            assert!(page.records.is_empty() && !page.sealed, "shard {shard}");
        }
        drop(client);
        server.shutdown();
        let metrics = registry.snapshot();
        let series: Vec<&str> = metrics
            .counters()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("logd_reads_total"))
            .collect();
        assert_eq!(
            series,
            [
                "logd_reads_total{shard=\"0\"}",
                "logd_reads_total{shard=\"1\"}"
            ]
        );
        assert_eq!(metrics.family_sum("logd_reads_total"), 2);
    }

    #[test]
    fn exactly_once_checker_names_each_kind_of_offence() {
        let shards = 4;
        let record = |key: &str, payload: u8| Record {
            key: key.into(),
            payload: vec![payload],
            node: 1,
            seq: 0,
        };
        let ack = |key: &str, payload: u8| (key.to_string(), vec![payload], shard_of(key, shards));
        let log = |records: &[Record]| {
            let mut prefixes = vec![Vec::new(); shards as usize];
            for record in records {
                prefixes[shard_of(&record.key, shards) as usize].push(record.clone());
            }
            prefixes
        };
        let acked = [ack("a", 1), ack("b", 2)];
        let good = log(&[record("a", 1), record("b", 2)]);
        assert_eq!(check_exactly_once(&acked, &good, shards), Ok(()));

        let duplicate = log(&[record("a", 1), record("b", 2), record("a", 1)]);
        let err = check_exactly_once(&acked, &duplicate, shards).unwrap_err();
        assert!(err.contains("\"a\"") && err.contains("2 times"), "{err}");

        let missing = log(&[record("a", 1)]);
        let err = check_exactly_once(&acked, &missing, shards).unwrap_err();
        assert!(err.contains("\"b\"") && err.contains("0 times"), "{err}");

        let mut misplaced = good.clone();
        let moved = misplaced[shard_of("b", shards) as usize].pop().expect("b");
        misplaced[(shard_of("b", shards) as usize + 1) % 4].push(moved);
        let err = check_exactly_once(&acked, &misplaced, shards).unwrap_err();
        assert!(
            err.contains("\"b\"") && err.contains("foreign shard"),
            "{err}"
        );
        // ...and an ack that names another shard than the record sits in.
        let mut lied = acked.clone();
        lied[1].2 = (lied[1].2 + 1) % 4;
        let err = check_exactly_once(&lied, &good, shards).unwrap_err();
        assert!(err.contains("\"b\""), "{err}");

        let unacked = log(&[record("a", 1), record("b", 2), record("c", 3)]);
        let err = check_exactly_once(&acked, &unacked, shards).unwrap_err();
        assert!(err.contains("unacked \"c\""), "{err}");
    }

    #[test]
    fn ingress_assigns_slots_and_dedups() {
        let ingress = LogIngress::new(4);
        let (shard, seq, fresh) = ingress.submit("k".into(), vec![1], 7).expect("accepting");
        assert!(fresh);
        assert_eq!(seq, 0);
        assert_eq!(shard, shard_of("k", 4));
        // Identical pair: same slot, not fresh.
        let dup = ingress.submit("k".into(), vec![1], 7).expect("re-acked");
        assert_eq!(dup, (shard, seq, false));
        // Same key, different payload: a new slot on the same shard.
        let (shard2, seq2, fresh2) = ingress.submit("k".into(), vec![2], 7).expect("accepting");
        assert_eq!(shard2, shard);
        assert_eq!(seq2, seq + 1);
        assert!(fresh2);
        // Only one pending record per fresh slot.
        assert_eq!(ingress.take_batch().len(), 2);
    }

    #[test]
    fn a_resubmitted_8_kib_pair_is_reacked_from_a_table_without_its_bytes() {
        let pair = ("k".to_string(), vec![7u8; 8 << 10]);
        let ingress = LogIngress::new(4);
        let submit = || ingress.submit(pair.0.clone(), pair.1.clone(), 7);
        let (shard, seq, fresh) = submit().expect("accepting");
        assert!(fresh);
        assert_eq!(submit(), Some((shard, seq, false)));
        // The pending record owns the submitted payload: moved, not copied.
        let payload = pair.1.clone();
        let sent = payload.as_ptr();
        let (.., fresh) = ingress
            .submit("other".into(), payload, 7)
            .expect("accepting");
        assert!(fresh);
        let batch = ingress.take_batch();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[1].payload.as_ptr(), sent);
        drop(batch);
        // The table keys each pair by its digest alone, and still re-acks
        // it once the batch, the last copy of its bytes here, is gone.
        let state = ingress.lock();
        assert_eq!(state.assigned.len(), 2);
        let slot = state.assigned.get(&Digest::of(&pair.to_bytes()));
        assert_eq!(slot, Some(&(shard, seq)));
        drop(state);
        assert_eq!(submit(), Some((shard, seq, false)));
    }

    #[test]
    fn closed_ingress_refuses_fresh_but_reacks_duplicates() {
        let ingress = LogIngress::new(2);
        let (shard, seq, _) = ingress.submit("k".into(), vec![1], 3).expect("accepting");
        ingress.close_ingest();
        assert_eq!(ingress.submit("new".into(), vec![9], 3), None);
        // The duplicate's promise was already made; it survives the cutoff.
        assert_eq!(
            ingress.submit("k".into(), vec![1], 3),
            Some((shard, seq, false))
        );
    }

    #[test]
    fn sharded_log_in_the_simulator_orders_and_agrees() {
        use uba_sim::{sparse_ids, SyncEngine};
        let ids = sparse_ids(3, 13);
        let shards = 2;
        let ingest_until = 8;
        let horizon = service_horizon(ids.len(), ingest_until);
        let ingresses: BTreeMap<NodeId, LogIngress> = ids
            .iter()
            .map(|&id| (id, LogIngress::new(shards)))
            .collect();
        let mut engine = SyncEngine::builder()
            .correct_many(
                ids.iter()
                    .map(|&id| ShardedLog::new(id, ingresses[&id].clone(), ingest_until, horizon)),
            )
            .build();
        engine.run_rounds(3);
        // Submissions land at two different nodes mid-run.
        for (i, key) in ["a", "b", "c", "d"].iter().enumerate() {
            let node = ids[i % ids.len()];
            ingresses[&node]
                .submit((*key).into(), vec![i as u8], node.raw())
                .expect("ingest open");
        }
        let done = engine.run_to_completion(500).expect("horizon reached");
        let outputs: Vec<Vec<Vec<Record>>> = done.outputs.values().cloned().collect();
        for output in &outputs {
            assert_eq!(output, &outputs[0], "shard prefixes diverge across nodes");
        }
        let total: usize = outputs[0].iter().map(Vec::len).sum();
        assert_eq!(total, 4, "every acked submission ordered exactly once");
        for (shard, prefix) in outputs[0].iter().enumerate() {
            for record in prefix {
                assert_eq!(shard_of(&record.key, shards), shard as u32);
            }
        }
        for ingress in ingresses.values() {
            assert!(ingress.sealed(), "every node sealed its prefixes");
        }
    }

    #[test]
    fn batch_families_count_each_shards_sealed_rounds_and_records() {
        use std::collections::BTreeSet;
        use uba_sim::{sparse_ids, SyncEngine};
        let ids = sparse_ids(3, 17);
        let shards = 2;
        let ingest_until = 10;
        let horizon = service_horizon(ids.len(), ingest_until);
        let ingresses: Vec<LogIngress> = ids.iter().map(|_| LogIngress::new(shards)).collect();
        let registry = SharedRuntimeMetrics::new();
        let members = ids.iter().zip(&ingresses).map(|(&id, ingress)| {
            ShardedLog::new(id, ingress.clone(), ingest_until, horizon)
                .with_runtime_metrics(registry.clone())
        });
        let mut engine = SyncEngine::builder().correct_many(members).build();
        // Before each round, two of the three members take 1 to 4
        // submissions; `sealed` notes every (shard, member, round) that
        // drains at least one record of the shard.
        let mut sealed = BTreeSet::new();
        for round in 1..=ingest_until as usize {
            for (m, ingress) in ingresses.iter().enumerate() {
                if (round + m) % 3 == 0 {
                    continue;
                }
                for i in 0..=(round + m) % 4 {
                    let key = format!("m{m}-r{round}-{i}");
                    let (shard, _, _) = ingress
                        .submit(key, vec![i as u8], ids[m].raw())
                        .expect("ingest open");
                    sealed.insert((shard, m, round));
                }
            }
            engine.run_round();
        }
        let done = engine.run_to_completion(500).expect("horizon reached");
        let prefixes = &done.outputs[&ids[0]];
        let metrics = registry.snapshot();
        for shard in 0..shards {
            let label = shard.to_string();
            let label = [("shard", label.as_str())];
            let ordered = prefixes[shard as usize].len() as u64;
            let rounds = sealed.iter().filter(|&&(s, ..)| s == shard).count() as u64;
            assert!(
                ordered > rounds,
                "shard {shard}: some batch holds two records"
            );
            assert_eq!(
                metrics.counter(&metric_name("logd_batch_records_total", &label)),
                ordered,
                "shard {shard}: sealed records"
            );
            assert_eq!(
                metrics.counter(&metric_name("logd_batches_total", &label)),
                rounds,
                "shard {shard}: member rounds that sealed a record"
            );
        }
    }

    #[test]
    fn unfinalized_prefix_reads_empty_and_unsealed() {
        let ingress = LogIngress::new(2);
        ingress.submit("k".into(), vec![1], 3).expect("accepting");
        let (records, sealed) = ingress.prefix_from(shard_of("k", 2), 0);
        assert!(records.is_empty(), "pending is not finalized");
        assert!(!sealed);
        // Out-of-range shard: empty, same sealed flag, no panic.
        let (records, sealed) = ingress.prefix_from(99, 0);
        assert!(records.is_empty() && !sealed);
    }
}
