//! The staged replay: a request body taken through the stages the
//! server takes it through — `lsc_abi::json::parse` → `lsc_web3::wire`
//! decode → the chain or snapshot call → `wire` encode →
//! `JsonValue::to_json` — calling each stage's public function directly,
//! with a span around each call. `lsc_rpc`'s own dispatcher is private,
//! so this is the benchmark's copy of it for the seven methods the
//! workloads send; replies are byte-identical to the socket's (object
//! keys serialise sorted), which `dashboard_reads_wire` checks on every
//! reply.
//!
//! What the socket adds on top — HTTP framing, syscalls, the worker hop —
//! is the difference between the wire latency and this replay's.

use crate::trace::Tracer;
use lsc_abi::json::{self, JsonValue};
use lsc_primitives::Address;
use lsc_web3::{wire, Web3};

/// Span names: the layer (crate or module) the time is spent in.
pub mod layer {
    pub const JSON_PARSE: &str = "abi.json_parse";
    pub const JSON_ENCODE: &str = "abi.json_encode";
    pub const WIRE_DECODE: &str = "web3.wire_decode";
    pub const WIRE_ENCODE: &str = "web3.wire_encode";
    pub const SEND_TX: &str = "chain.send_tx";
    pub const SNAPSHOT_READ: &str = "mvcc.snapshot_read";
    pub const GET_LOGS: &str = "mvcc.get_logs";
    pub const EVM_CALL: &str = "evm.call";
    pub const PROOF: &str = "store.proof";
}

fn param(params: &[JsonValue], index: usize) -> Result<&JsonValue, String> {
    params
        .get(index)
        .ok_or_else(|| format!("missing parameter {index}"))
}

/// Serve one JSON-RPC request body in-process. `Err` is a request the
/// node refused or could not serve — a failed op.
pub fn serve(web3: &Web3, body: &str, t: &mut Tracer) -> Result<String, String> {
    let span = t.begin(layer::JSON_PARSE);
    let request = json::parse(body);
    t.end(span);
    let request = request.map_err(|e| format!("request is not JSON: {e}"))?;
    let id = request.get("id").cloned().unwrap_or(JsonValue::Null);
    let method = request
        .get("method")
        .and_then(JsonValue::as_str)
        .ok_or("missing method")?;
    let params = request
        .get("params")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);

    let result = dispatch(web3, method, params, t)?;

    let span = t.begin(layer::WIRE_ENCODE);
    let response = JsonValue::object([
        ("jsonrpc", JsonValue::String("2.0".to_string())),
        ("id", id),
        ("result", result),
    ]);
    t.end(span);
    let span = t.begin(layer::JSON_ENCODE);
    let text = response.to_json();
    t.end(span);
    Ok(text)
}

/// The shape every method shares: decode the parameters, make the call,
/// encode the result, each under its layer's span.
fn staged<D, V>(
    t: &mut Tracer,
    decode: impl FnOnce() -> Result<D, String>,
    call_layer: &'static str,
    call: impl FnOnce(D) -> Result<V, String>,
    encode: impl FnOnce(V) -> JsonValue,
) -> Result<JsonValue, String> {
    let span = t.begin(layer::WIRE_DECODE);
    let decoded = decode();
    t.end(span);
    let span = t.begin(call_layer);
    let value = decoded.and_then(call);
    t.end(span);
    let value = value?;
    let span = t.begin(layer::WIRE_ENCODE);
    let encoded = encode(value);
    t.end(span);
    Ok(encoded)
}

fn wire_err<T>(result: Result<T, wire::WireError>) -> Result<T, String> {
    result.map_err(|e| e.to_string())
}

fn dispatch(
    web3: &Web3,
    method: &str,
    params: &[JsonValue],
    t: &mut Tracer,
) -> Result<JsonValue, String> {
    match method {
        "eth_sendTransaction" => staged(
            t,
            || wire_err(wire::tx_from_json(param(params, 0)?)),
            layer::SEND_TX,
            |tx| web3.send_transaction_raw(tx).map_err(|e| e.to_string()),
            |receipt| wire::h256_json(receipt.tx_hash),
        ),
        "eth_blockNumber" => staged(
            t,
            || Ok(()),
            layer::SNAPSHOT_READ,
            |()| Ok(web3.block_number()),
            wire::quantity,
        ),
        "eth_getBalance" => staged(
            t,
            || wire_err(wire::parse_address(param(params, 0)?, "address")),
            layer::SNAPSHOT_READ,
            |address| Ok(web3.balance(address)),
            wire::quantity_u256,
        ),
        "eth_getTransactionReceipt" => staged(
            t,
            || wire_err(wire::parse_h256(param(params, 0)?, "transactionHash")),
            layer::SNAPSHOT_READ,
            |hash| {
                let snap = web3.read_snapshot();
                let receipt = snap.receipt(hash).ok_or("unknown transaction")?;
                let block_hash = snap.block(receipt.block_number).map(|b| b.hash);
                Ok((receipt, block_hash))
            },
            |(receipt, block_hash)| wire::receipt_to_json(&receipt, block_hash),
        ),
        "eth_getBlockByNumber" => staged(
            t,
            || wire_err(wire::parse_block_tag(param(params, 0)?, "blockTag")),
            layer::SNAPSHOT_READ,
            |tag| {
                let snap = web3.read_snapshot();
                snap.block(tag.resolve(snap.block_number()))
                    .ok_or_else(|| "unknown block".to_string())
            },
            |block| wire::block_to_json(&block),
        ),
        "eth_getLogs" => staged(
            t,
            || wire_err(wire::filter_from_json(param(params, 0)?)),
            layer::GET_LOGS,
            |(from, to, filter)| {
                let snap = web3.read_snapshot();
                let tip = snap.block_number();
                Ok(snap.logs_filtered(from.resolve(tip), to.resolve(tip), &filter))
            },
            |logs| {
                JsonValue::Array(
                    logs.iter()
                        .enumerate()
                        .map(|(i, (block, log))| wire::log_to_json(*block, i as u64, log))
                        .collect(),
                )
            },
        ),
        "eth_call" => staged(
            t,
            || call_fields(param(params, 0)?),
            layer::EVM_CALL,
            |(from, to, data)| {
                let result = web3.call_raw(from, to, data);
                if result.success {
                    Ok(result.output)
                } else {
                    Err("execution reverted or halted".to_string())
                }
            },
            |output| wire::data_json(&output),
        ),
        "eth_getProof" => staged(
            t,
            || proof_fields(params),
            layer::PROOF,
            |(address, slots)| web3.proof(address, &slots).map_err(|e| e.to_string()),
            |proof| wire::proof_to_json(&proof),
        ),
        other => Err(format!("the staged replay does not serve {other}")),
    }
}

fn call_fields(value: &JsonValue) -> Result<(Address, Address, Vec<u8>), String> {
    let from = match value.get("from") {
        None | Some(JsonValue::Null) => Address::from([0u8; 20]),
        Some(v) => wire_err(wire::parse_address(v, "call.from"))?,
    };
    let to = wire_err(wire::parse_address(
        value.get("to").ok_or("call.to is required")?,
        "call.to",
    ))?;
    let data = match value.get("data") {
        None | Some(JsonValue::Null) => Vec::new(),
        Some(v) => wire_err(wire::parse_data(v, "call.data"))?,
    };
    Ok((from, to, data))
}

fn proof_fields(params: &[JsonValue]) -> Result<(Address, Vec<lsc_primitives::U256>), String> {
    let address = wire_err(wire::parse_address(param(params, 0)?, "address"))?;
    let slots = param(params, 1)?
        .as_array()
        .ok_or("storageKeys must be an array")?
        .iter()
        .map(|v| wire_err(wire::parse_quantity_u256(v, "storageKeys")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((address, slots))
}
