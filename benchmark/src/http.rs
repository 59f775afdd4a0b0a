//! A minimal HTTP/1.1 client for the services under test: one request per
//! connection, as the servers close after every response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A status code and body.
pub type Reply = (u16, String);

fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn parse_reply(bytes: &[u8]) -> Result<Reply, String> {
    let text = String::from_utf8_lossy(bytes);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "truncated HTTP response".to_string())?;
    let code = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("bad status line: {}", head.lines().next().unwrap_or("")))?;
    Ok((code, body.to_string()))
}

/// Sends one request and waits for the whole reply.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<Reply, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .and_then(|()| stream.write_all(&request_bytes(method, path, body)))
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .map_err(|e| format!("read {method} {path}: {e}"))?;
    parse_reply(&reply)
}

/// A request whose reply is collected without blocking, so one client
/// thread can keep many requests in flight.
pub struct Exchange {
    stream: TcpStream,
    reply: Vec<u8>,
}

impl Exchange {
    /// Connects and sends the request. Requests are small enough that the
    /// write completes at once on a local connection.
    pub fn start(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<Exchange, String> {
        let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .write_all(&request_bytes(method, path, body))
            .and_then(|()| stream.set_nonblocking(true))
            .map_err(|e| format!("send {method} {path}: {e}"))?;
        Ok(Exchange {
            stream,
            reply: Vec::new(),
        })
    }

    /// Reads what has arrived; the reply once the server closed the
    /// connection, `None` while it is still coming.
    pub fn poll(&mut self) -> Result<Option<Reply>, String> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return parse_reply(&self.reply).map(Some),
                Ok(n) => self.reply.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read reply: {e}")),
            }
        }
    }
}

/// The number of workers the obs `/status` document lists (one
/// `leases_held` field each).
pub fn status_workers(addr: SocketAddr) -> Result<usize, String> {
    match request(addr, "GET", "/status", "")? {
        (200, body) => Ok(body.matches("\"leases_held\"").count()),
        (code, _) => Err(format!("GET /status answered {code}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_status_and_body() {
        let reply = b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok";
        assert_eq!(parse_reply(reply), Ok((201, "ok".to_string())));
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_reply(b"garbage\r\n\r\n").is_err());
    }
}
