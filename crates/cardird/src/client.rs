//! A minimal blocking HTTP/1.1 client for `cardird`.
//!
//! Exists for the pieces of the workspace that drive a live server —
//! the `loadgen` bench, the CI smoke, and the server-level tests — so
//! none of them hand-roll sockets. Keep-alive by default: one `Client`
//! is one persistent connection issuing sequential requests, which is
//! exactly the per-connection model `loadgen` measures.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection to a `cardird` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    host: String,
}

/// One response: status code and body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Client {
    /// Connects to `addr`.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        // Request/response bodies are small; without TCP_NODELAY each
        // exchange can stall ~40ms on Nagle + delayed ACK.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            host: addr.to_string(),
        })
    }

    /// Issues `GET path`.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Issues `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// Issues one request and reads the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n{body}",
            self.host,
            body.len(),
        )?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line: {status_line}"),
                )
            })?;
        let mut content_length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok(ClientResponse { status, body })
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}
