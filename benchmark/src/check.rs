//! Output checks. Every op's output is checked; a [`Violation`] is a
//! broken safety promise and aborts the benchmark with a non-zero exit —
//! it is never folded into the failed count.

use std::collections::BTreeMap;
use std::fmt;

use uba_net::{shard_of, Record};
use uba_sim::NodeId;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "safety violation: {}", self.0)
    }
}

/// Agreement and validity of one consensus instance: every decision is the
/// same value, and that value is some correct node's input. Returns the
/// decided value. `decisions` holds the correct nodes that decided
/// (termination — whether all of them did — is the caller's failed count).
pub fn check_decisions(
    decisions: &BTreeMap<NodeId, u64>,
    correct_inputs: &[u64],
) -> Result<Option<u64>, Violation> {
    let Some((&first_node, &value)) = decisions.iter().next() else {
        return Ok(None);
    };
    if let Some((node, other)) = decisions.iter().find(|(_, &v)| v != value) {
        return Err(Violation(format!(
            "disagreement: node {first_node} decided {value}, node {node} decided {other}"
        )));
    }
    if !correct_inputs.contains(&value) {
        return Err(Violation(format!(
            "invalid decision {value}: no correct node proposed it (inputs {correct_inputs:?})"
        )));
    }
    Ok(Some(value))
}

/// One generated log submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Submission {
    pub key: String,
    /// Starts with the op id as 8 little-endian bytes.
    pub payload: Vec<u8>,
}

/// The op id a record's payload carries.
pub fn op_id(payload: &[u8]) -> Option<u64> {
    payload
        .get(..8)
        .map(|id| u64::from_le_bytes(id.try_into().expect("8 bytes")))
}

/// The slot the service acked a submission into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    pub op: u64,
    pub shard: u32,
    pub seq: u64,
}

/// The log service's promise, checked from outside after the seal: every
/// member holds the same per-shard prefixes, the prefixes the reader tailed
/// are those prefixes, and every acked submission appears exactly once —
/// in the shard and slot its ack named, with the bytes that were sent —
/// and nothing else does.
pub fn check_log(
    submissions: &[Submission],
    acks: &[Ack],
    ingress_node: u64,
    shards: u32,
    members: &BTreeMap<NodeId, Vec<Vec<Record>>>,
    tailed: &[Vec<Record>],
) -> Result<(), Violation> {
    let mut prefixes = members.iter();
    let (&reference_node, reference) = prefixes
        .next()
        .ok_or_else(|| Violation("no member reported a log".into()))?;
    for (node, log) in prefixes {
        if log != reference {
            return Err(Violation(format!(
                "prefixes differ between members {reference_node} and {node}"
            )));
        }
    }
    if tailed != reference.as_slice() {
        return Err(Violation(
            "the prefixes read over the wire differ from the sealed log".into(),
        ));
    }
    if reference.len() != shards as usize {
        return Err(Violation(format!(
            "log has {} shards, expected {shards}",
            reference.len()
        )));
    }

    let mut placed: BTreeMap<u64, (u32, &Record)> = BTreeMap::new();
    for (shard, prefix) in reference.iter().enumerate() {
        for record in prefix {
            let op = op_id(&record.payload)
                .filter(|&op| (op as usize) < submissions.len())
                .ok_or_else(|| Violation(format!("unknown record in shard {shard}: {record:?}")))?;
            if placed.insert(op, (shard as u32, record)).is_some() {
                return Err(Violation(format!("op {op} is in the log more than once")));
            }
        }
    }
    for ack in acks {
        let sent = &submissions[ack.op as usize];
        let Some((shard, record)) = placed.remove(&ack.op) else {
            return Err(Violation(format!(
                "acked op {} is missing from the sealed log",
                ack.op
            )));
        };
        let slot_ok = shard == ack.shard
            && shard == shard_of(&sent.key, shards)
            && record.seq == ack.seq
            && record.node == ingress_node;
        if !slot_ok {
            return Err(Violation(format!(
                "op {} acked into shard {} seq {} but logged in shard {shard} as {record:?}",
                ack.op, ack.shard, ack.seq
            )));
        }
        if record.key != sent.key || record.payload != sent.payload {
            return Err(Violation(format!(
                "op {} was logged with other bytes",
                ack.op
            )));
        }
    }
    if let Some((op, _)) = placed.iter().next() {
        return Err(Violation(format!(
            "op {op} is in the log but was never acked"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(values: &[u64]) -> BTreeMap<NodeId, u64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (NodeId::new(10 + i as u64), v))
            .collect()
    }

    #[test]
    fn decisions_must_agree_on_a_proposed_value() {
        assert_eq!(
            check_decisions(&decisions(&[1, 1, 1]), &[0, 1]),
            Ok(Some(1))
        );
        assert_eq!(check_decisions(&decisions(&[]), &[0, 1]), Ok(None));
        let split = check_decisions(&decisions(&[1, 0, 1]), &[0, 1]).unwrap_err();
        assert!(split.0.contains("disagreement"), "{split}");
        let invented = check_decisions(&decisions(&[7, 7]), &[0, 1]).unwrap_err();
        assert!(invented.0.contains("invalid decision"), "{invented}");
    }
}
