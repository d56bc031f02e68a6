//! # lsc-evm
//!
//! A from-scratch Ethereum Virtual Machine for the legal-smart-contracts
//! reproduction: 256-bit stack machine, quadratic memory, journaled
//! storage via a [`host::Host`] trait, full gas metering, nested
//! CALL/DELEGATECALL/STATICCALL frames, CREATE/CREATE2, logs and reverts.
//!
//! The paper deploys its rental-agreement contracts on Ethereum (via
//! Ganache); this crate is the execution substrate those contracts run on
//! here. The [`asm`] module is the emission backend for `lsc-solc`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod analysis;
pub mod asm;
pub mod cfg;
pub mod compile;
pub mod gas;
pub mod host;
pub mod interpreter;
pub mod memory;
pub mod opcode;
pub mod snapshot_host;
pub mod stack;

pub use access::{AccessKey, AccessSet, RecordingHost};
pub use analysis::{memo_stats, superinstr, AnalyzedCode};
pub use compile::{classify, CompiledCode, PathClass};
pub use host::{BlockEnv, Host, Log, MockHost};
pub use interpreter::{
    CallKind, CallResult, Config, Evm, Halt, Message, TraceStep, MAX_CALL_DEPTH, MAX_TRACE_STEPS,
};
pub use snapshot_host::{Overlay, OverlayAccount, SnapshotHost, StateView};
