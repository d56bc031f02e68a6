//! `dashboard_reads_wire`: reads over the socket against the estate
//! after `compact()` and a restart, so the trie is adopted from disk
//! pages. The mix is what a landlord's dashboard polls. It uses the same
//! `lsc-rpc` / `abi::json` / EVM / trie layers as `rent_wire_durable`,
//! for reads instead of writes: a write-path gain that costs readers (or
//! the reverse) shows here. No block is sealed, so engine, WAL and
//! mempool changes predict no movement.

use super::{drive_staged, drive_wire, fnv1a, Driven, Measured, Placement, Reply};
use crate::estate::Estate;
use crate::rng::SplitMix64;
use crate::stage;
use crate::trace::Tracer;
use lsc_abi::json;
use lsc_primitives::{hex, H256};
use lsc_web3::verify_proof_response;
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};

/// Share of each read in the mix, in percent.
const MIX: [(Read, usize); 7] = [
    (Read::Call, 30),
    (Read::Receipt, 15),
    (Read::Balance, 15),
    (Read::Logs, 15),
    (Read::Block, 10),
    (Read::Proof, 10),
    (Read::BlockNumber, 5),
];

/// `eth_getLogs` looks back this many blocks from the tip.
const LOG_WINDOW: u64 = 64;

#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Read {
    Call,
    Receipt,
    Balance,
    Logs,
    Block,
    Proof,
    BlockNumber,
}

/// The read a roll of 0..100 selects.
fn pick_read(mut roll: usize) -> Read {
    for (read, share) in MIX {
        if roll < share {
            return read;
        }
        roll -= share;
    }
    unreachable!("the shares add up to 100")
}

/// One read, as the generator fixed it: 16 bytes instead of a request
/// body. At the rate this workload runs, the bodies of a run would hold
/// as much memory as the node, so they are rendered as they are sent —
/// the generator is one thread and the same on both sides of any
/// comparison.
#[derive(Clone, Copy)]
struct ReadOp {
    read: Read,
    /// Which agreement it is about.
    agreement: u32,
    /// `paidrents` index (or `u64::MAX` for `state()`), receipt number,
    /// or block height, by kind.
    arg: u64,
    id: u32,
}

/// The request stream, with what the node must answer to each request.
pub struct Ops {
    ops: Vec<ReadOp>,
    /// FNV-1a of each expected reply.
    expected: Vec<u64>,
    // What rendering a body needs from the estate.
    landlord: String,
    agreements: Vec<(String, String)>,
    rent_hashes: Vec<H256>,
    state_call: String,
    paidrents_selector: String,
    logs_from: u64,
}

impl Ops {
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    fn render(&self, op: ReadOp) -> String {
        let (address, tenant) = &self.agreements[op.agreement as usize];
        let (method, params) = match op.read {
            Read::Call => {
                let data = if op.arg == u64::MAX {
                    self.state_call.clone()
                } else {
                    format!("{}{:064x}", self.paidrents_selector, op.arg)
                };
                (
                    "eth_call",
                    format!(
                        "{{\"data\":\"{data}\",\"from\":\"{}\",\"to\":\"{address}\"}},\"latest\"",
                        self.landlord
                    ),
                )
            }
            Read::Receipt => (
                "eth_getTransactionReceipt",
                format!("\"{}\"", self.rent_hashes[op.arg as usize]),
            ),
            Read::Balance => ("eth_getBalance", format!("\"{tenant}\",\"latest\"")),
            Read::Logs => (
                "eth_getLogs",
                format!(
                    "{{\"address\":\"{address}\",\"fromBlock\":\"0x{:x}\",\"toBlock\":\"latest\"}}",
                    self.logs_from
                ),
            ),
            Read::Block => ("eth_getBlockByNumber", format!("\"0x{:x}\"", op.arg)),
            Read::Proof => (
                "eth_getProof",
                format!("\"{address}\",[\"0x0\",\"0x1\"],\"latest\""),
            ),
            Read::BlockNumber => ("eth_blockNumber", String::new()),
        };
        format!(
            "{{\"id\":{},\"jsonrpc\":\"2.0\",\"method\":\"{method}\",\"params\":[{params}]}}",
            op.id
        )
    }
}

/// Generate the stream and compute every expected reply in-process,
/// through the staged replay, before anything is timed. Also verifies
/// every distinct proof reply offline against the head block's state
/// root; since each socket reply must equal its expected reply, that
/// covers every proof the run fetches.
pub fn generate(estate: &Estate, seed: u64, n: usize) -> Result<Ops, String> {
    let mut rng = SplitMix64::fork(seed, 4);
    let tip = estate.height();
    let head_root = estate.web3.block(tip).ok_or("no head block")?.state_root;
    let abi = &estate.base.abi;
    let selector = |name: &str| {
        abi.function(name)
            .map(|f| hex::encode_prefixed(f.selector()))
            .ok_or_else(|| format!("no {name}() in the ABI"))
    };
    let mut ops = Ops {
        ops: Vec::with_capacity(n),
        expected: Vec::with_capacity(n),
        landlord: estate.landlord.to_string(),
        agreements: estate
            .agreements
            .iter()
            .map(|a| (a.address.to_string(), a.tenant.to_string()))
            .collect(),
        rent_hashes: estate.rent_hashes.clone(),
        state_call: selector("state")?,
        paidrents_selector: selector("paidrents")?,
        logs_from: tip.saturating_sub(LOG_WINDOW - 1),
    };
    // There are a few thousand distinct reads and a reply depends on its
    // request's id only through the id it echoes, so each distinct read
    // is answered once (with id 0) and the id is spliced in after.
    const ID_ZERO: &str = "{\"id\":0,";
    let mut answers: HashMap<(u8, u32, u64), String> = HashMap::new();
    let mut off = Tracer::off();
    for _ in 0..n {
        let read = pick_read(rng.below(100));
        // Reads that are not about an agreement name agreement 0, so that
        // equal requests are equal.
        let agreement = match read {
            Read::Receipt | Read::Block | Read::BlockNumber => 0,
            _ => rng.below(estate.agreements.len()),
        };
        let arg = match read {
            Read::Call if rng.below(2) == 0 => u64::MAX,
            Read::Call => rng.below(estate.agreements[agreement].paid.max(1) as usize) as u64,
            Read::Receipt => rng.below(estate.rent_hashes.len()) as u64,
            Read::Block => 1 + rng.below(tip as usize) as u64,
            _ => 0,
        };
        let op = ReadOp {
            read,
            agreement: agreement as u32,
            arg,
            id: (rng.next_u64() >> 32) as u32,
        };
        let answer = match answers.entry((read as u8, op.agreement, arg)) {
            Entry::Occupied(known) => known.into_mut(),
            Entry::Vacant(new) => {
                let reply =
                    stage::serve(&estate.web3, &ops.render(ReadOp { id: 0, ..op }), &mut off)
                        .map_err(|e| format!("expected answer: {e}"))?;
                if !reply.starts_with(ID_ZERO) {
                    return Err(format!("reply does not lead with its id: {reply}"));
                }
                if read == Read::Proof {
                    let doc = json::parse(&reply).map_err(|e| e.to_string())?;
                    let result = doc.get("result").ok_or("proof reply without result")?;
                    verify_proof_response(result, head_root).map_err(|e| {
                        format!("proof of agreement {agreement} does not verify: {e}")
                    })?;
                }
                new.insert(reply)
            }
        };
        let expected = format!("{{\"id\":{},{}", op.id, &answer[ID_ZERO.len()..]);
        ops.expected.push(fnv1a(expected.as_bytes()));
        ops.ops.push(op);
    }
    Ok(ops)
}

/// Over the socket.
pub fn measure_wire(estate: Estate, ops: &Ops) -> Measured {
    let render = |op: &ReadOp| Cow::Owned(ops.render(*op));
    match drive_wire(&estate, Placement::OneCpu, &ops.ops, render, reply_digest) {
        Ok(wire) => {
            let mut measured = settle(&estate, ops, wire.driven);
            measured.exact.extend(wire.exact);
            measured
        }
        Err(e) => Measured::aborted(ops.len(), e),
    }
}

/// The same stream through the staged replay, in-process.
pub fn measure_staged(estate: Estate, ops: &Ops, t: &mut Tracer) -> Measured {
    let render = |op: &ReadOp| Cow::Owned(ops.render(*op));
    let driven = drive_staged(&estate, &ops.ops, render, reply_digest, t);
    settle(&estate, ops, driven)
}

/// What is kept of a reply: its digest, or nothing if there was none.
fn reply_digest(reply: Reply) -> Option<u64> {
    reply.ok().map(|text| fnv1a(text.as_bytes()))
}

/// A reply that differs from the in-process answer is a failed op.
fn settle(estate: &Estate, ops: &Ops, driven: Driven<Option<u64>>) -> Measured {
    let failed = driven
        .replies
        .iter()
        .zip(&ops.expected)
        .filter(|(reply, expected)| **reply != Some(**expected))
        .count() as u64;
    Measured {
        attempted: ops.len() as u64,
        failed,
        latencies_ns: driven.latencies_ns,
        wall: driven.wall,
        cpu: driven.cpu,
        exact: vec![
            ("final_height", estate.height().to_string()),
            ("final_state_root", estate.state_root().to_string()),
        ],
        check: Ok(()),
    }
}
