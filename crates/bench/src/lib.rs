//! # lsc-bench
//!
//! Shared harness for the benchmark suite. The paper's evaluation is a
//! single qualitative case study (no numeric tables), so the experiment
//! plan in `DESIGN.md` §4 defines, per figure, both a wall-clock Criterion
//! bench (`benches/`) and a deterministic *gas/cost* report
//! (`cargo run -p lsc-bench --bin report`) that prints the series
//! `EXPERIMENTS.md` records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lsc_abi::AbiValue;
use lsc_chain::LocalNode;
use lsc_core::{contracts, ContractManager, Rental};
use lsc_ipfs::IpfsNode;
use lsc_primitives::{ether, Address, U256};
use lsc_solc::Artifact;
use lsc_web3::{Contract, Web3};

/// A ready-made world: funded chain + manager + compiled artifacts.
pub struct BenchWorld {
    /// The web3 client.
    pub web3: Web3,
    /// The business tier.
    pub manager: ContractManager,
    /// Landlord dev account.
    pub landlord: Address,
    /// Tenant dev account.
    pub tenant: Address,
    /// Compiled Fig. 5 contract.
    pub base: Artifact,
    /// Compiled Fig. 6 contract.
    pub v2: Artifact,
    /// Upload id of the base contract.
    pub upload_base: u64,
    /// Upload id of the modified contract.
    pub upload_v2: u64,
}

impl BenchWorld {
    /// Build a fresh world (compiles both contracts).
    pub fn new() -> Self {
        let web3 = Web3::new(LocalNode::new(4));
        let accounts = web3.accounts();
        let manager = ContractManager::new(web3.clone(), IpfsNode::new());
        let base = contracts::compile_base_rental().expect("base compiles");
        let v2 = contracts::compile_rental_agreement().expect("v2 compiles");
        let upload_base = manager.upload_artifact("base", &base).expect("upload");
        let upload_v2 = manager.upload_artifact("v2", &v2).expect("upload");
        BenchWorld {
            web3,
            manager,
            landlord: accounts[0],
            tenant: accounts[1],
            base,
            v2,
            upload_base,
            upload_v2,
        }
    }

    /// Constructor args for the base contract.
    pub fn base_args(&self) -> Vec<AbiValue> {
        vec![
            AbiValue::Uint(ether(1)),
            AbiValue::string("10001-42 Main St"),
            AbiValue::uint(365 * 24 * 3600),
        ]
    }

    /// Constructor args for the modified contract.
    pub fn v2_args(&self) -> Vec<AbiValue> {
        vec![
            AbiValue::Uint(ether(1)),
            AbiValue::Uint(ether(2)),
            AbiValue::uint(365 * 24 * 3600),
            AbiValue::Uint(U256::ZERO),
            AbiValue::Uint(ether(1) / U256::from_u64(2)),
            AbiValue::string("10001-42 Main St"),
        ]
    }

    /// Deploy version 1 of the base contract.
    pub fn deploy_base(&self) -> Contract {
        self.manager
            .deploy(
                self.landlord,
                self.upload_base,
                &self.base_args(),
                U256::ZERO,
            )
            .expect("deploy")
    }

    /// Deploy a chain of `n` linked versions; returns their addresses.
    pub fn deploy_chain(&self, n: usize) -> Vec<Address> {
        let mut addresses = Vec::with_capacity(n);
        let first = self.deploy_base();
        addresses.push(first.address());
        for _ in 1..n {
            let prev = *addresses.last().expect("nonempty");
            let next = self
                .manager
                .deploy_version(
                    self.landlord,
                    self.upload_base,
                    &self.base_args(),
                    U256::ZERO,
                    prev,
                    &[],
                )
                .expect("deploy version");
            addresses.push(next.address());
        }
        addresses
    }

    /// Run a full rental lifecycle on a fresh base deployment:
    /// confirm + `months` rents + terminate. Returns total gas used.
    pub fn run_lifecycle(&self, months: usize) -> u64 {
        let contract = self.deploy_base();
        let rental = Rental::at(contract);
        let mut gas = 0;
        gas += rental
            .confirm_agreement(self.tenant)
            .expect("confirm")
            .gas_used;
        for _ in 0..months {
            gas += rental.pay_rent(self.tenant).expect("rent").gas_used;
        }
        gas += rental.terminate(self.landlord).expect("terminate").gas_used;
        gas
    }
}

impl Default for BenchWorld {
    fn default() -> Self {
        Self::new()
    }
}

/// A node whose chain holds `blocks` mined blocks, each carrying
/// `txs_per_block` log-emitting calls spread round-robin over four
/// emitter contracts (every call fires one `LOG1` with the contract's
/// own topic plus one `LOG0`). The `eth_getLogs` benchmark substrate:
/// selective filters match only 1/4 of a large log population.
pub fn log_heavy_node(blocks: usize, txs_per_block: usize) -> (LocalNode, Vec<Address>) {
    use lsc_chain::Transaction;
    use lsc_evm::asm::Asm;
    use lsc_evm::opcode::op;

    let emitter_runtime = |topic: u64| -> Vec<u8> {
        let mut runtime = Asm::new();
        runtime.push_u64(0).op(op::CALLDATALOAD);
        runtime.push_u64(0).op(op::MSTORE);
        runtime
            .push_u64(topic)
            .push_u64(32)
            .push_u64(0)
            .op(op::LOG0 + 1);
        runtime.push_u64(8).push_u64(0).op(op::LOG0);
        runtime.op(op::STOP);
        runtime.assemble().expect("straight-line asm")
    };
    let init_code_for = |runtime: &[u8]| -> Vec<u8> {
        let mut init = Asm::new();
        for (i, byte) in runtime.iter().enumerate() {
            init.push_u64(u64::from(*byte))
                .push_u64(i as u64)
                .op(op::MSTORE8);
        }
        init.push_u64(runtime.len() as u64)
            .push_u64(0)
            .op(op::RETURN);
        init.assemble().expect("straight-line asm")
    };

    let mut node = LocalNode::new(4);
    let sender = node.accounts()[0];
    let emitters: Vec<Address> = (0..4u64)
        .map(|i| {
            node.send_transaction(Transaction::deploy(
                sender,
                init_code_for(&emitter_runtime(100 + i)),
            ))
            .expect("deploy emitter")
            .contract_address
            .expect("create address")
        })
        .collect();

    for block in 0..blocks {
        for i in 0..txs_per_block {
            let target = emitters[i % emitters.len()];
            let value = U256::from_u64((block * txs_per_block + i) as u64);
            node.submit_transaction(
                Transaction::call(sender, target, value.to_be_bytes().to_vec()).with_gas(200_000),
            );
        }
        let (_, errors) = node.mine_block();
        assert!(errors.is_empty(), "{errors:?}");
    }
    (node, emitters)
}

/// Gas used by a deployment of `artifact` with `args` on a fresh node.
pub fn deployment_gas(artifact: &Artifact, args: &[AbiValue]) -> u64 {
    let web3 = Web3::new(LocalNode::new(1));
    let from = web3.accounts()[0];
    let (_, receipt) = web3
        .deploy(
            from,
            artifact.abi.clone(),
            artifact.bytecode.clone(),
            args,
            U256::ZERO,
        )
        .expect("deploys");
    receipt.gas_used
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_runs_lifecycle() {
        let world = BenchWorld::new();
        let gas = world.run_lifecycle(2);
        assert!(gas > 4 * 21_000, "four transactions minimum, got {gas}");
    }

    #[test]
    fn chain_deployment_links() {
        let world = BenchWorld::new();
        let addresses = world.deploy_chain(3);
        assert_eq!(addresses.len(), 3);
        assert_eq!(world.manager.history(addresses[2]).unwrap(), addresses);
    }

    #[test]
    fn deployment_gas_scales_with_code() {
        let world = BenchWorld::new();
        let base_gas = deployment_gas(&world.base, &world.base_args());
        let v2_gas = deployment_gas(&world.v2, &world.v2_args());
        assert!(
            v2_gas > base_gas,
            "the modified contract is bigger: {v2_gas} vs {base_gas}"
        );
    }
}
