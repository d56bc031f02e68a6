//! Hostile input over a live socket: a request nested far past the JSON
//! parser's depth cap must come back as a JSON-RPC parse error (-32700)
//! from a server that keeps serving. Without the cap, the recursive
//! parser overflows the worker thread's stack, which aborts the whole
//! process rather than panicking.

use lsc_abi::json::{self, JsonValue, MAX_DEPTH};
use lsc_chain::LocalNode;
use lsc_rpc::{codes, RpcConfig, RpcServer};
use lsc_web3::Web3;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// POST one body on a fresh connection; returns the response body.
fn post(addr: SocketAddr, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "POST / HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    assert!(status.contains("200"), "{status}");
    let mut content_length = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0; content_length];
    reader.read_exact(&mut body).expect("body");
    String::from_utf8(body).expect("utf-8 body")
}

fn error_code(body: &str) -> Option<f64> {
    match json::parse(body).ok()?.get("error")?.get("code")? {
        JsonValue::Number(code) => Some(*code),
        _ => None,
    }
}

#[test]
fn deeply_nested_request_is_a_parse_error_not_an_abort() {
    let server = RpcServer::bind(
        Web3::new(LocalNode::new(1)),
        "127.0.0.1:0",
        RpcConfig {
            workers: 2,
            ..RpcConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let parse_error = Some(codes::PARSE_ERROR as f64);

    let deep = "[".repeat(20_000);
    assert_eq!(error_code(&post(addr, &deep)), parse_error);
    let closed = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    assert_eq!(error_code(&post(addr, &closed)), parse_error);
    // One level past the cap is refused; at the cap it parses (and is
    // then merely an invalid request).
    let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
    assert_eq!(error_code(&post(addr, &over)), parse_error);
    let at = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert_ne!(error_code(&post(addr, &at)), parse_error);

    // Every worker is still alive and serving.
    for id in 0..4 {
        let reply = post(
            addr,
            &format!(r#"{{"jsonrpc":"2.0","id":{id},"method":"eth_blockNumber","params":[]}}"#),
        );
        let reply = json::parse(&reply).expect("reply JSON");
        assert_eq!(reply.get("result").and_then(JsonValue::as_str), Some("0x0"));
    }
    server.shutdown();
}
