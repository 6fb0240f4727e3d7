//! A minimal blocking HTTP/1.1 client for the service's own wire format.
//!
//! Exists so the CLI subcommands and the integration tests speak to the
//! daemon through one code path —
//! and so the doctests can exercise a real socket round-trip without curl.
//! It leans on the server's `Connection: close` contract: write one
//! request (head and body in one write), read to EOF, split head from body.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::{parse, JsonError, Value};

/// Per-request socket timeout.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed response.
#[derive(Clone, Debug)]
pub struct Reply {
    /// The HTTP status code.
    pub status: u16,
    /// The response body (always JSON for this service).
    pub body: String,
}

impl Reply {
    /// Parses the body as JSON.
    pub fn json(&self) -> Result<Value, JsonError> {
        parse(&self.body)
    }
}

/// Sends one request and reads the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    // Head and body leave in one write, so the server wakes once.
    let body = body.unwrap_or("");
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

/// `GET path`.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Reply> {
    request(addr, "GET", path, None)
}

/// `POST path` with a JSON body.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Reply> {
    request(addr, "POST", path, Some(body))
}

fn parse_reply(raw: &[u8]) -> io::Result<Reply> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response has no header end"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line `{status_line}`"),
            )
        })?;
    Ok(Reply {
        status,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_reply() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 404);
        assert_eq!(reply.body, "{}");
        assert!(reply.json().is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_reply(b"not http").is_err());
        assert!(parse_reply(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }
}
