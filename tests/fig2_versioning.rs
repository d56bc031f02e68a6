//! Experiment F2 (Fig. 2): the linked-list versioning mechanism, verified
//! against the figure's exact structure — every contract is a `Node`
//! derivative; the manager sets `next`/`previous` when a new version is
//! deployed; the addresses recovered from the links drive data lookup.

use legal_smart_contracts::abi::AbiValue;
use legal_smart_contracts::chain::{CommittedSnapshot, LocalNode};
use legal_smart_contracts::core::{contracts, ContractManager};
use legal_smart_contracts::ipfs::IpfsNode;
use legal_smart_contracts::primitives::{ether, Address, U256};
use legal_smart_contracts::web3::Web3;

fn world() -> (ContractManager, Address) {
    let web3 = Web3::new(LocalNode::new(2));
    let landlord = web3.accounts()[0];
    (ContractManager::new(web3, IpfsNode::new()), landlord)
}

fn args() -> Vec<AbiValue> {
    vec![
        AbiValue::Uint(ether(1)),
        AbiValue::string("H-1"),
        AbiValue::uint(1000),
    ]
}

#[test]
fn node_contract_implements_the_figure() {
    // The standalone Node contract: both pointers default to zero, and
    // get/set round-trip.
    let web3 = Web3::new(LocalNode::new(2));
    let from = web3.accounts()[0];
    let node = contracts::compile_node().unwrap();
    let (contract, _) = web3
        .deploy(
            from,
            node.abi.clone(),
            node.bytecode.clone(),
            &[],
            U256::ZERO,
        )
        .unwrap();
    assert_eq!(
        contract.call1("getNext", &[]).unwrap().as_address(),
        Some(Address::ZERO)
    );
    assert_eq!(
        contract.call1("getPrev", &[]).unwrap().as_address(),
        Some(Address::ZERO)
    );
    let target = Address::from_label("v2");
    contract
        .send(from, "setNext", &[AbiValue::Address(target)], U256::ZERO)
        .unwrap();
    assert_eq!(
        contract.call1("getNext", &[]).unwrap().as_address(),
        Some(target)
    );
}

#[test]
fn manager_sets_pointers_on_modification() {
    let (manager, landlord) = world();
    let base = contracts::compile_base_rental().unwrap();
    let upload = manager.upload_artifact("base", &base).unwrap();
    let v1 = manager
        .deploy(landlord, upload, &args(), U256::ZERO)
        .unwrap();
    // Before modification: both pointers unset.
    assert_eq!(manager.version_chain().next_of(v1.address()).unwrap(), None);
    let v2 = manager
        .deploy_version(landlord, upload, &args(), U256::ZERO, v1.address(), &[])
        .unwrap();
    // After: exactly the doubly-linked structure of Fig. 2.
    assert_eq!(
        manager.version_chain().next_of(v1.address()).unwrap(),
        Some(v2.address())
    );
    assert_eq!(
        manager.version_chain().prev_of(v2.address()).unwrap(),
        Some(v1.address())
    );
}

#[test]
fn links_feed_the_data_lookup() {
    // Fig. 2's caption: "these addresses can be used to get the data from
    // the data storage mapping contract".
    let (manager, landlord) = world();
    manager.init_data_store(landlord).unwrap();
    let store = manager.data_store().unwrap();
    let base = contracts::compile_base_rental().unwrap();
    let upload = manager.upload_artifact("base", &base).unwrap();
    let v1 = manager
        .deploy(landlord, upload, &args(), U256::ZERO)
        .unwrap();
    store
        .set(landlord, v1.address(), "rent", "1 ether")
        .unwrap();
    let v2 = manager
        .deploy_version(landlord, upload, &args(), U256::ZERO, v1.address(), &[])
        .unwrap();

    // Starting from v2, follow the previous-pointer, then use the
    // recovered address as the data-store key.
    let prev = manager
        .version_chain()
        .prev_of(v2.address())
        .unwrap()
        .expect("linked");
    assert_eq!(store.get(prev, "rent").unwrap(), "1 ether");
}

#[test]
fn ten_version_chain_traverses_from_any_point() {
    let (manager, landlord) = world();
    let base = contracts::compile_base_rental().unwrap();
    let upload = manager.upload_artifact("base", &base).unwrap();
    let mut addresses = vec![manager
        .deploy(landlord, upload, &args(), U256::ZERO)
        .unwrap()
        .address()];
    for _ in 1..10 {
        let prev = *addresses.last().unwrap();
        let next = manager
            .deploy_version(landlord, upload, &args(), U256::ZERO, prev, &[])
            .unwrap();
        addresses.push(next.address());
    }
    for probe in [0usize, 4, 9] {
        assert_eq!(manager.history(addresses[probe]).unwrap(), addresses);
    }
    assert_eq!(manager.verify_chain(addresses[5]).unwrap().len(), 10);
}

#[test]
fn broken_chain_is_detected() {
    // Tamper with a pointer directly on chain; verification must fail.
    let (manager, landlord) = world();
    let base = contracts::compile_base_rental().unwrap();
    let upload = manager.upload_artifact("base", &base).unwrap();
    let v1 = manager
        .deploy(landlord, upload, &args(), U256::ZERO)
        .unwrap();
    let v2 = manager
        .deploy_version(landlord, upload, &args(), U256::ZERO, v1.address(), &[])
        .unwrap();
    // Point v1.next somewhere else (the Node setters are unguarded in the
    // paper's snippet — the evidence line catches the inconsistency).
    v1.send(
        landlord,
        "setNext",
        &[AbiValue::Address(Address::from_label("elsewhere"))],
        U256::ZERO,
    )
    .unwrap();
    assert!(manager.verify_chain(v2.address()).is_err());
}

#[test]
fn held_snapshot_keeps_the_version_chain_of_its_height() {
    // The evidence line is history: an auditor who took a snapshot when
    // the agreement had three versions keeps reading exactly those links
    // from it — `getNext`/`getPrev` executed against the held snapshot —
    // while newer versions are linked onto the live chain.
    let (manager, landlord) = world();
    let base = contracts::compile_base_rental().unwrap();
    let upload = manager.upload_artifact("base", &base).unwrap();
    let mut addresses = vec![manager
        .deploy(landlord, upload, &args(), U256::ZERO)
        .unwrap()
        .address()];
    let add_version = |addresses: &mut Vec<Address>| {
        let prev = *addresses.last().unwrap();
        let next = manager
            .deploy_version(landlord, upload, &args(), U256::ZERO, prev, &[])
            .unwrap();
        addresses.push(next.address());
    };
    // Each version's (previous, next) pointers, following `getNext` from
    // the first version, as one snapshot answers.
    let links_at = |snap: &CommittedSnapshot, first: Address| {
        let mut links = Vec::new();
        let mut cursor = first;
        while cursor != Address::ZERO {
            let version = manager.contract_at(cursor).unwrap();
            let pointer = |name| version.call1_at(snap, name, &[]).unwrap().as_address();
            let (prev, next) = (pointer("getPrev").unwrap(), pointer("getNext").unwrap());
            links.push((prev, next));
            cursor = next;
        }
        links
    };

    add_version(&mut addresses);
    add_version(&mut addresses);
    let audit = manager.web3().read_snapshot();
    let as_audited = links_at(&audit, addresses[0]);
    assert_eq!(
        as_audited,
        [
            (Address::ZERO, addresses[1]),
            (addresses[0], addresses[2]),
            (addresses[1], Address::ZERO),
        ]
    );

    for _ in 3..8 {
        add_version(&mut addresses);
    }
    assert_eq!(links_at(&audit, addresses[0]), as_audited);
    assert!(
        audit.code(addresses[3]).is_empty(),
        "v4 postdates the audit"
    );
    assert_eq!(
        audit.block(audit.block_number() + 1).map(|b| b.number),
        None
    );
    let live = manager.web3().read_snapshot();
    assert_eq!(links_at(&live, addresses[0]).len(), 8);
    assert_eq!(manager.verify_chain(addresses[0]).unwrap(), addresses);
}
