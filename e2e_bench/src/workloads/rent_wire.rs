//! `rent_wire_durable`: `eth_sendTransaction` `payRent()` calls over the
//! socket, instant mining, on a node from `LocalNode::open` (WAL + fsync
//! per block). The only workload where `lsc-rpc`, `abi::json`,
//! `web3::wire`, the instant engine, EVM, trie root, WAL fsync and
//! snapshot publish all sit on the blocking path of one request.

use super::{
    check_recovery, drive_staged, drive_wire, per_op, request_body, wal_bytes, Driven, Measured,
    Placement, Reply,
};
use crate::estate::Estate;
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use lsc_abi::json;
use lsc_primitives::H256;
use lsc_web3::wire;
use std::borrow::Cow;

/// The op stream: which agreement each payment is for, and the request.
pub struct Ops {
    pub targets: Vec<usize>,
    pub bodies: Vec<String>,
}

pub fn generate(estate: &Estate, seed: u64, n: usize) -> Ops {
    let mut rng = SplitMix64::fork(seed, 2);
    let (mut targets, mut bodies) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for _ in 0..n {
        let target = rng.below(estate.agreements.len());
        let id = rng.next_u64() >> 32;
        let tx = wire::tx_to_json(&estate.rent_transaction(target));
        targets.push(target);
        bodies.push(request_body(id, "eth_sendTransaction", vec![tx]));
    }
    Ops { targets, bodies }
}

/// Over the socket.
pub fn measure_wire(estate: Estate, ops: &Ops) -> Measured {
    let wal_before = wal_bytes(estate.data_dir().expect("durable estate"));
    let wire = match drive_wire(
        &estate,
        Placement::Free,
        &ops.bodies,
        |body| Cow::Borrowed(body.as_str()),
        reply_hash,
    ) {
        Ok(wire) => wire,
        Err(e) => return Measured::aborted(ops.bodies.len(), e),
    };
    let mut measured = settle(estate, ops, wire.driven, wal_before);
    measured.exact.extend(wire.exact);
    measured
}

/// The same op stream through the staged replay, in-process.
pub fn measure_staged(estate: Estate, ops: &Ops, t: &mut Tracer) -> Measured {
    let wal_before = wal_bytes(estate.data_dir().expect("durable estate"));
    let driven = drive_staged(
        &estate,
        &ops.bodies,
        |body| Cow::Borrowed(body.as_str()),
        reply_hash,
        t,
    );
    settle(estate, ops, driven, wal_before)
}

/// The transaction hash a reply acknowledges, if it acknowledges one.
fn reply_hash(reply: Reply) -> Option<H256> {
    let doc = json::parse(&reply.ok()?).ok()?;
    wire::parse_h256(doc.get("result")?, "result").ok()
}

/// Count failures and run the post-run checks: every acknowledged hash
/// has a status-1 receipt, every agreement's `paidrents` grew by its
/// acknowledged payments, and recovery from the data dir reproduces
/// height and state root.
fn settle(
    mut estate: Estate,
    ops: &Ops,
    driven: Driven<Option<H256>>,
    wal_before: u64,
) -> Measured {
    let failed = estate.settle_payments(&ops.targets, &driven.replies);
    let dir = estate.data_dir().expect("durable estate").to_path_buf();
    let (height, state_root) = (estate.height(), estate.state_root());
    let wal_growth = wal_bytes(&dir) - wal_before;
    let check = estate.check_paid_rents();
    // The node must be gone before its data dir is opened a second time.
    drop(estate);
    let check = check.and_then(|()| check_recovery(&dir, height, state_root));
    let n = ops.bodies.len() as u64;
    Measured {
        attempted: n,
        failed,
        latencies_ns: driven.latencies_ns,
        wall: driven.wall,
        cpu: driven.cpu,
        exact: vec![
            ("final_height", height.to_string()),
            ("final_state_root", state_root.to_string()),
            ("wal.bytes_per_op", per_op(wal_growth, n)),
        ],
        check,
    }
}
