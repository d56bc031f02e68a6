//! The benchmark's wire client: one keep-alive HTTP/1.1 connection that
//! POSTs JSON-RPC bodies and counts every byte it writes and reads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Client {
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
    pub bytes_sent: u64,
    pub bytes_received: u64,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // A reply later than this is a failed op, not a hung benchmark.
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream),
            request: Vec::new(),
            bytes_sent: 0,
            bytes_received: 0,
        })
    }

    /// POST one JSON-RPC body and return the response body. Any I/O
    /// error, timeout, non-200 status or malformed reply is an `Err`,
    /// which callers count as a failed op.
    pub fn round_trip(&mut self, body: &str) -> Result<String, String> {
        self.request.clear();
        write!(
            self.request,
            "POST / HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write to a Vec");
        self.reader
            .get_ref()
            .write_all(&self.request)
            .map_err(|e| format!("send: {e}"))?;
        self.bytes_sent += self.request.len() as u64;

        let mut line = String::new();
        let read_line = |reader: &mut BufReader<TcpStream>, line: &mut String| {
            line.clear();
            match reader.read_line(line) {
                Ok(0) => Err("connection closed".to_string()),
                Ok(n) => Ok(n as u64),
                Err(e) => Err(format!("receive: {e}")),
            }
        };
        let mut received = read_line(&mut self.reader, &mut line)?;
        if !line.contains(" 200 ") {
            return Err(format!("status {}", line.trim_end()));
        }
        let mut content_length = None;
        loop {
            received += read_line(&mut self.reader, &mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = content_length.ok_or("reply without Content-Length")?;
        // The server's own request cap is 1 MiB; replies here are far
        // smaller, and a length read off a socket is bounded before use.
        if length > 16 * 1024 * 1024 {
            return Err(format!("reply of {length} bytes"));
        }
        let mut reply = vec![0u8; length];
        self.reader
            .read_exact(&mut reply)
            .map_err(|e| format!("receive body: {e}"))?;
        self.bytes_received += received + length as u64;
        String::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())
    }
}
