//! `rent_day_batch_memory`: blocks of queued payments
//! (`submit_transactions` + `mine_block`) on an in-memory node with the
//! default `mining_workers`. All of its work is mempool, batch/parallel
//! engine, EVM and trie hashing; none is RPC, JSON, WAL or fsync — so an
//! engine or interpreter change shows here and a persistence or wire
//! change must show nothing. The latency sample is submit-to-sealed per
//! block; an op is one payment.

use super::{Measured, PhaseClock};
use crate::estate::Estate;
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use lsc_primitives::H256;
use std::time::Instant;

/// Payments per block. The in-memory trie store collects its garbage
/// after every 3 × live-nodes insertions, a stall of O(state) — 100 to
/// 250 ms here — on whichever block triggers it: about one block in
/// 6,500 ÷ this constant. The stalls are in `ops_per_s` and
/// `chain.mine_max_ms`. With 64 payments a block they are 0.96 % of the
/// samples and `op_p99_us` flips between a stalled and an ordinary block
/// (17 to 34 ms over five seeds); with 32 it is the fourteenth-slowest
/// ordinary block of a run (its spread over ten seeds reached 29 %, and
/// `rss_peak_mb` had two states 14 % apart); with 16 the 99th percentile
/// is thirty blocks clear of the stalls and both hold still. The price:
/// a block costs 2.7 ms besides its payments (seal, root, publish), so
/// at 16 that is 57 % of this workload's CPU, against 25 % at 64.
pub const BLOCK_TXS: usize = 16;

/// `blocks` blocks, each of `BLOCK_TXS` distinct agreements.
pub fn generate(estate: &Estate, seed: u64, blocks: usize) -> Vec<Vec<usize>> {
    let mut rng = SplitMix64::fork(seed, 3);
    let mut order: Vec<usize> = (0..estate.agreements.len()).collect();
    (0..blocks)
        .map(|_| {
            rng.shuffle(&mut order);
            order[..BLOCK_TXS.min(order.len())].to_vec()
        })
        .collect()
}

pub fn measure(mut estate: Estate, blocks: &[Vec<usize>], t: &mut Tracer) -> Measured {
    let mut latencies_ns = Vec::with_capacity(blocks.len());
    let mut hashes: Vec<Option<H256>> = Vec::with_capacity(blocks.len() * BLOCK_TXS);
    let clock = PhaseClock::start();
    for (i, block) in blocks.iter().enumerate() {
        let start = Instant::now();
        let op = t.begin_op(i as u32);
        let sealed = estate.submit_and_mine(block, t);
        t.end(op);
        latencies_ns.push(start.elapsed().as_nanos() as u64);
        match sealed {
            Ok(sealed) => hashes.extend(sealed.into_iter().map(Some)),
            Err(_) => hashes.extend(std::iter::repeat_n(None, block.len())),
        }
    }
    let (wall, cpu) = clock.stop();

    let targets: Vec<usize> = blocks.iter().flatten().copied().collect();
    let failed = estate.settle_payments(&targets, &hashes);
    Measured {
        attempted: targets.len() as u64,
        failed,
        latencies_ns,
        wall,
        cpu,
        exact: vec![
            ("final_height", estate.height().to_string()),
            ("final_state_root", estate.state_root().to_string()),
        ],
        check: estate.check_paid_rents(),
    }
}
