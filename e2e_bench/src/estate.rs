//! The estate every workload starts from: a property manager one year
//! in. One landlord, one tenant account per agreement, every agreement
//! deployed through the `ContractManager` and confirmed, then twelve
//! rent-days mined as blocks of queued payments.
//!
//! Building it is the benchmark's set-up (`setup_s`): it compiles both
//! paper contracts, so compiler, vetting gate, CREATE, instant mining,
//! batch mining and (on disk) WAL, compaction and the page store are all
//! in it.

use crate::rng::SplitMix64;
use crate::trace::Tracer;
use lsc_abi::AbiValue;
use lsc_chain::{ChainConfig, Faults, LocalNode, Transaction};
use lsc_core::{contracts, ContractManager, Rental};
use lsc_ipfs::IpfsNode;
use lsc_primitives::{Address, H256, U256};
use lsc_solc::Artifact;
use lsc_web3::Web3;
use std::path::{Path, PathBuf};

/// Payments per rent-day block.
pub const BLOCK_TXS: usize = 64;

/// Span names of the two halves of a rent-day block.
pub const SUBMIT: &str = "chain.submit";
pub const MINE: &str = "chain.mine";

/// Lease length passed to the constructors: one year.
const CONTRACT_TIME: u64 = 365 * 24 * 3600;

/// How large an estate to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub agreements: usize,
    pub rent_days: usize,
}

impl Scale {
    /// The measured size: a property manager with a thousand agreements,
    /// one year in. Set-up takes about three seconds, long enough to
    /// repeat within a tenth, short enough to build three times in a run.
    pub const FULL: Scale = Scale {
        agreements: 1024,
        rent_days: 12,
    };
    /// The estate the layer kernels take their inputs from: a kernel
    /// describes its layer, not a workload, and a traced run builds two
    /// of these on top of its three full estates.
    pub const KERNEL: Scale = Scale {
        agreements: 256,
        rent_days: 12,
    };
    /// The smoke-test size.
    pub const QUICK: Scale = Scale {
        agreements: 64,
        rent_days: 2,
    };
}

/// One deployed, confirmed agreement and what the generator fixed for it.
#[derive(Debug, Clone)]
pub struct Agreement {
    pub address: Address,
    pub tenant: Address,
    /// Rent in wei, so no balance runs dry however long the run.
    pub rent: U256,
    /// Rent payments acknowledged so far (set-up's included).
    pub paid: u64,
}

/// A live estate: the chain behind a `Web3`, the business tier on top,
/// and the plain facts the op generators and checks need.
pub struct Estate {
    pub web3: Web3,
    pub manager: ContractManager,
    pub landlord: Address,
    pub tenants: Vec<Address>,
    pub agreements: Vec<Agreement>,
    pub base: Artifact,
    pub v2: Artifact,
    pub upload_base: u64,
    pub upload_v2: u64,
    /// Hashes of set-up's rent payments, in mining order.
    pub rent_hashes: Vec<H256>,
    /// Calldata of `payRent()`.
    pub pay_rent_data: Vec<u8>,
    config: ChainConfig,
    data_dir: Option<PathBuf>,
}

/// The chain configuration of every benchmark node. Only the compaction
/// trigger differs between workloads; everything else is the default a
/// user gets.
pub fn chain_config(auto_compact_segments: Option<u64>) -> ChainConfig {
    ChainConfig {
        auto_compact_segments,
        ..ChainConfig::default()
    }
}

fn business_tier(
    node: LocalNode,
    base: &Artifact,
    v2: &Artifact,
) -> (Web3, ContractManager, u64, u64) {
    let web3 = Web3::new(node);
    let manager = ContractManager::new(web3.clone(), IpfsNode::new());
    let upload_base = manager
        .upload_artifact("Basic rental contract", base)
        .expect("upload Fig. 5");
    let upload_v2 = manager
        .upload_artifact("Updated rental contract", v2)
        .expect("upload Fig. 6");
    (web3, manager, upload_base, upload_v2)
}

impl Estate {
    /// Build the estate for `seed`. `data_dir` selects a durable node
    /// (`LocalNode::open`: WAL + fsync per block, finished with
    /// `compact()`); `None` an in-memory one.
    pub fn build(seed: u64, scale: Scale, config: ChainConfig, data_dir: Option<&Path>) -> Estate {
        let base = contracts::compile_base_rental().expect("Fig. 5 compiles");
        let v2 = contracts::compile_rental_agreement().expect("Fig. 6 compiles");
        let n_accounts = scale.agreements + 1;
        let node = match data_dir {
            Some(dir) => LocalNode::open(dir, config.clone(), n_accounts, Faults::none())
                .expect("open durable node"),
            None => LocalNode::with_config(config.clone(), n_accounts),
        };
        let (web3, manager, upload_base, upload_v2) = business_tier(node, &base, &v2);
        let accounts = web3.accounts();
        let landlord = accounts[0];
        let tenants: Vec<Address> = accounts[1..].to_vec();

        let mut rng = SplitMix64::fork(seed, 1);
        let mut tenant_order: Vec<usize> = (0..scale.agreements).collect();
        rng.shuffle(&mut tenant_order);
        let agreements: Vec<Agreement> = tenant_order
            .iter()
            .map(|&t| {
                let tenant = tenants[t];
                let rent = U256::from_u64(1_000 + rng.below(9_000) as u64);
                let house = format!(
                    "{:05}-{} Main St",
                    10_000 + rng.below(90_000),
                    1 + rng.below(400)
                );
                let contract = manager
                    .deploy(
                        landlord,
                        upload_base,
                        &[
                            AbiValue::Uint(rent),
                            AbiValue::string(&house),
                            AbiValue::uint(CONTRACT_TIME),
                        ],
                        U256::ZERO,
                    )
                    .expect("deploy agreement");
                let address = contract.address();
                Rental::at(contract)
                    .confirm_agreement(tenant)
                    .expect("confirm agreement");
                Agreement {
                    address,
                    tenant,
                    rent,
                    paid: 0,
                }
            })
            .collect();

        let pay_rent_data = base
            .abi
            .function("payRent")
            .expect("payRent in ABI")
            .selector()
            .to_vec();
        let mut estate = Estate {
            web3,
            manager,
            landlord,
            tenants,
            agreements,
            base,
            v2,
            upload_base,
            upload_v2,
            rent_hashes: Vec::new(),
            pay_rent_data,
            config,
            data_dir: data_dir.map(Path::to_path_buf),
        };
        for _ in 0..scale.rent_days {
            let mut order: Vec<usize> = (0..scale.agreements).collect();
            rng.shuffle(&mut order);
            for block in order.chunks(BLOCK_TXS) {
                let hashes = estate
                    .submit_and_mine(block, &mut Tracer::off())
                    .expect("set-up rent day");
                let acknowledged: Vec<Option<H256>> = hashes.iter().copied().map(Some).collect();
                assert_eq!(
                    estate.settle_payments(block, &acknowledged),
                    0,
                    "a set-up rent payment failed"
                );
                estate.rent_hashes.extend(hashes);
            }
        }
        if estate.data_dir.is_some() {
            estate
                .web3
                .with_node(LocalNode::compact)
                .expect("compact after set-up");
        }
        estate
    }

    /// The rent payment of agreement `index`, as a transaction.
    pub fn rent_transaction(&self, index: usize) -> Transaction {
        let a = &self.agreements[index];
        Transaction::call(a.tenant, a.address, self.pay_rent_data.clone()).with_value(a.rent)
    }

    /// One rent-day block: queue one payment per listed agreement
    /// (`submit_transactions`, one group-committed WAL batch) and seal
    /// them (`mine_block`). `Err` is a refused batch or a node that can
    /// no longer seal; a payment the miner dropped simply has no receipt.
    pub fn submit_and_mine(
        &self,
        agreements: &[usize],
        t: &mut Tracer,
    ) -> Result<Vec<H256>, String> {
        let txs = agreements
            .iter()
            .map(|&i| self.rent_transaction(i))
            .collect();
        let span = t.begin(SUBMIT);
        let hashes = self.web3.submit_transactions(txs);
        t.end(span);
        let hashes = hashes.map_err(|e| format!("submit: {e}"))?;
        let span = t.begin(MINE);
        let mined = self.web3.try_mine_block();
        t.end(span);
        mined.map_err(|e| format!("mine: {e}"))?;
        Ok(hashes)
    }

    /// Credit each payment whose receipt exists with status 1 to its
    /// agreement; return how many had none.
    pub fn settle_payments(&mut self, targets: &[usize], hashes: &[Option<H256>]) -> u64 {
        let mut failed = 0;
        for (target, hash) in targets.iter().zip(hashes) {
            let receipt = hash.and_then(|hash| self.web3.receipt(hash));
            if receipt.is_some_and(|r| r.is_success()) {
                self.agreements[*target].paid += 1;
            } else {
                failed += 1;
            }
        }
        failed
    }

    /// Storage slot of `paidrents.length` (the dynamic array's own slot).
    pub fn paidrents_slot(&self) -> U256 {
        let (_, slot, _) = self
            .base
            .storage_layout
            .iter()
            .find(|(name, _, _)| name == "paidrents")
            .expect("paidrents in the storage layout");
        U256::from_u64(*slot)
    }

    /// Every agreement's on-chain `paidrents.length` equals the payments
    /// the benchmark saw acknowledged.
    pub fn check_paid_rents(&self) -> Result<(), String> {
        let slot = self.paidrents_slot();
        for a in &self.agreements {
            let on_chain = self.web3.storage_at(a.address, slot);
            if on_chain != U256::from_u64(a.paid) {
                return Err(format!(
                    "{}: paidrents.length is {on_chain}, acknowledged {}",
                    a.address, a.paid
                ));
            }
        }
        Ok(())
    }

    pub fn height(&self) -> u64 {
        self.web3.block_number()
    }

    pub fn state_root(&self) -> H256 {
        self.web3.state_root()
    }

    pub fn data_dir(&self) -> Option<&Path> {
        self.data_dir.as_deref()
    }

    /// Drop the node and bring it back with `LocalNode::open` on the same
    /// data dir — a process restart. The business tier is rebuilt on top
    /// (its uploads are re-pinned; version records do not survive, as
    /// they would not for a restarted manager).
    pub fn restart(self) -> Estate {
        let Estate {
            web3,
            manager,
            landlord,
            tenants,
            agreements,
            base,
            v2,
            rent_hashes,
            pay_rent_data,
            config,
            data_dir,
            ..
        } = self;
        let dir = data_dir.expect("restart needs a durable estate");
        drop(manager);
        drop(web3);
        let node = LocalNode::open(&dir, config.clone(), tenants.len() + 1, Faults::none())
            .expect("reopen durable node");
        let (web3, manager, upload_base, upload_v2) = business_tier(node, &base, &v2);
        Estate {
            web3,
            manager,
            landlord,
            tenants,
            agreements,
            base,
            v2,
            upload_base,
            upload_v2,
            rent_hashes,
            pay_rent_data,
            config,
            data_dir: Some(dir),
        }
    }
}

/// Scratch space for data dirs: one directory per process under the
/// chosen root, removed when dropped — also on a failed check, since the
/// guard lives in `main` and every failure path returns through it.
pub struct DataRoot {
    root: PathBuf,
    /// The parent, when this run created it and so may remove it.
    created_parent: Option<PathBuf>,
    next: std::cell::Cell<u32>,
}

impl DataRoot {
    pub fn create(parent: &Path) -> std::io::Result<DataRoot> {
        let created_parent = (!parent.exists()).then(|| parent.to_path_buf());
        let root = parent.join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(DataRoot {
            root,
            created_parent,
            next: std::cell::Cell::new(0),
        })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A fresh, not yet created data dir.
    pub fn fresh(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("node-{n}"))
    }

    /// Remove one data dir early, to keep the disk footprint of a run at
    /// one estate.
    pub fn discard(&self, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

impl Drop for DataRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Fails, as it should, while another run still has a dir in it.
        if let Some(parent) = &self.created_parent {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
