//! `lifecycle_upgrade_durable`: the paper's actual claim — the evidence
//! line — exercised end to end through `ContractManager`, in-process, on
//! a durable node that compacts itself (`auto_compact_segments: Some(4)`)
//! and is restarted on the way. Each lifecycle is
//!
//! deploy (vetting gate) → confirm → 6 rents → `deploy_version` to Fig. 6
//! through the layout gate (setNext / setPrev) → confirm → 6 rents →
//! proof of the predecessor's pointer slots, verified offline →
//! `verify_chain` → terminate
//!
//! and an op is one of those 19 steps. The only workload that runs
//! `lsc-core`, `lsc-analyzer`, `lsc-ipfs`, CREATE-heavy EVM, compaction
//! and restart: compaction stalls land in its tail latency and an
//! O(history) restart in its throughput.

use super::{newest_snapshot, Measured, PhaseClock};
use crate::estate::Estate;
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use lsc_abi::AbiValue;
use lsc_core::{Rental, RentalState};
use lsc_primitives::{Address, U256};
use lsc_web3::proof::verify_account_proof;
use std::time::Instant;

/// Steps per lifecycle.
pub const STEPS: usize = 19;
const RENTS_PER_VERSION: usize = 6;
const CONTRACT_TIME: u64 = 365 * 24 * 3600;

/// Span names: one per kind of step, all in `lsc-core`'s business tier.
pub mod step {
    pub const DEPLOY: &str = "core.deploy";
    pub const CONFIRM: &str = "core.confirm";
    pub const PAY_RENT: &str = "core.pay_rent";
    pub const DEPLOY_VERSION: &str = "core.deploy_version";
    pub const PROOF: &str = "core.proof";
    pub const VERIFY_CHAIN: &str = "core.verify_chain";
    pub const TERMINATE: &str = "core.terminate";
}

/// What the generator fixes for one lifecycle.
pub struct Plan {
    tenant: usize,
    rent: u64,
    house: String,
}

pub fn generate(estate: &Estate, seed: u64, lifecycles: usize) -> Vec<Plan> {
    let mut rng = SplitMix64::fork(seed, 5);
    (0..lifecycles)
        .map(|_| Plan {
            tenant: rng.below(estate.tenants.len()),
            rent: 1_000 + rng.below(9_000) as u64,
            house: format!(
                "{:05}-{} Canal St",
                10_000 + rng.below(90_000),
                1 + rng.below(400)
            ),
        })
        .collect()
}

/// Timing and failure accounting of the steps.
struct Steps<'t> {
    t: &'t mut Tracer,
    latencies_ns: Vec<u64>,
    failed: u64,
    first_error: Option<String>,
}

impl Steps<'_> {
    /// Run one step as one op. `None` means it failed: the rest of the
    /// lifecycle cannot run and counts as failed too.
    fn run<T>(
        &mut self,
        name: &'static str,
        step: impl FnOnce() -> Result<T, String>,
    ) -> Option<T> {
        let start = Instant::now();
        let op = self.t.begin_op(self.latencies_ns.len() as u32);
        let span = self.t.begin(name);
        let result = step();
        self.t.end(span);
        self.t.end(op);
        self.latencies_ns.push(start.elapsed().as_nanos() as u64);
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(format!("{name}: {e}"));
                None
            }
        }
    }
}

fn one_lifecycle(estate: &Estate, plan: &Plan, steps: &mut Steps<'_>) -> Option<()> {
    let (manager, landlord) = (&estate.manager, estate.landlord);
    let tenant = estate.tenants[plan.tenant];
    let rent = U256::from_u64(plan.rent);
    let err = |e: lsc_core::CoreError| e.to_string();

    let v1 = steps.run(step::DEPLOY, || {
        let args = [
            AbiValue::Uint(rent),
            AbiValue::string(&plan.house),
            AbiValue::uint(CONTRACT_TIME),
        ];
        manager
            .deploy(landlord, estate.upload_base, &args, U256::ZERO)
            .map_err(err)
    })?;
    let rental = Rental::at(v1.clone());
    steps.run(step::CONFIRM, || {
        rental.confirm_agreement(tenant).map_err(err)
    })?;
    for _ in 0..RENTS_PER_VERSION {
        steps.run(step::PAY_RENT, || rental.pay_rent(tenant).map_err(err))?;
    }

    let v2 = steps.run(step::DEPLOY_VERSION, || {
        let args = [
            AbiValue::Uint(rent),
            AbiValue::Uint(U256::from_u64(2 * plan.rent)), // deposit
            AbiValue::uint(CONTRACT_TIME),
            AbiValue::Uint(U256::from_u64(plan.rent / 10)), // discount
            AbiValue::Uint(U256::from_u64(plan.rent / 2)),  // fine
            AbiValue::string(&plan.house),
        ];
        manager
            .deploy_version(
                landlord,
                estate.upload_v2,
                &args,
                U256::ZERO,
                v1.address(),
                &[],
            )
            .map_err(err)
    })?;
    let rental = Rental::at(v2.clone());
    steps.run(step::CONFIRM, || {
        rental.confirm_agreement(tenant).map_err(err)
    })?;
    for _ in 0..RENTS_PER_VERSION {
        steps.run(step::PAY_RENT, || rental.pay_rent(tenant).map_err(err))?;
    }

    // The predecessor's version-pointer slots (Node: `next` in slot 0,
    // `previous` in slot 1), proven under the head header's state root
    // and verified the way a client without the node would.
    steps.run(step::PROOF, || {
        let proof = estate
            .web3
            .proof(v1.address(), &[U256::ZERO, U256::ONE])
            .map_err(|e| e.to_string())?;
        let head = estate.web3.block(estate.height()).ok_or("no head block")?;
        let verified = verify_account_proof(&proof, head.state_root).map_err(|e| e.to_string())?;
        let next = verified
            .slots
            .first()
            .map(|(_, value)| Address::from_u256(*value));
        if next != Some(v2.address()) {
            return Err(format!(
                "proven next pointer is {next:?}, not {}",
                v2.address()
            ));
        }
        Ok(())
    })?;
    steps.run(step::VERIFY_CHAIN, || {
        let chain = manager.verify_chain(v2.address()).map_err(err)?;
        if chain != [v1.address(), v2.address()] {
            return Err(format!("evidence line is {chain:?}"));
        }
        Ok(())
    })?;
    steps.run(step::TERMINATE, || {
        rental.terminate(landlord).map_err(err)?;
        match rental.state().map_err(err)? {
            RentalState::Terminated => Ok(()),
            other => Err(format!("state after terminate is {other}")),
        }
    })?;
    Some(())
}

/// Run the lifecycles; after every `restart_every`-th the node is dropped
/// and reopened with `LocalNode::open`. A restart is not an op: its time
/// is in the wall clock (and so in `ops_per_s`) but in no latency sample.
pub fn measure(
    mut estate: Estate,
    plans: &[Plan],
    restart_every: usize,
    t: &mut Tracer,
) -> Measured {
    let mut steps = Steps {
        t,
        latencies_ns: Vec::with_capacity(plans.len() * STEPS),
        failed: 0,
        first_error: None,
    };
    let mut check = Ok(());
    let mut restarts = 0u64;
    // The node compacts on its own; each compaction leaves a snapshot
    // image with a new name, which is all that can be seen from outside.
    let dir = estate.data_dir().expect("durable estate").to_path_buf();
    let mut compactions = 0u64;
    let mut image = newest_snapshot(&dir);
    let clock = PhaseClock::start();
    for (i, plan) in plans.iter().enumerate() {
        let before = steps.latencies_ns.len();
        if one_lifecycle(&estate, plan, &mut steps).is_none() {
            // The steps that could not run still count as attempted.
            let missing = STEPS - (steps.latencies_ns.len() - before);
            steps.failed += missing as u64;
        }
        let now = newest_snapshot(&dir);
        if now != image {
            compactions += 1;
            image = now;
        }
        if (i + 1) % restart_every == 0 && i + 1 < plans.len() {
            let (height, root) = (estate.height(), estate.state_root());
            estate = estate.restart();
            restarts += 1;
            if (estate.height(), estate.state_root()) != (height, root) && check.is_ok() {
                check = Err(format!(
                    "restart {restarts} changed the chain: height {height} root {root} became height {} root {}",
                    estate.height(),
                    estate.state_root()
                ));
            }
        }
    }
    let (wall, cpu) = clock.stop();
    if let Some(error) = steps.first_error.take() {
        check = check.and(Err(format!("first failed step: {error}")));
    }
    Measured {
        attempted: (plans.len() * STEPS) as u64,
        failed: steps.failed,
        latencies_ns: steps.latencies_ns,
        wall,
        cpu,
        exact: vec![
            ("final_height", estate.height().to_string()),
            ("final_state_root", estate.state_root().to_string()),
            ("restarts", restarts.to_string()),
            ("compactions", compactions.to_string()),
        ],
        check,
    }
}
