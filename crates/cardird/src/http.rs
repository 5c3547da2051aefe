//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! The workspace is zero-dependency by policy, so the server speaks the
//! small HTTP subset it needs by hand: request line + headers +
//! `Content-Length` bodies in, fixed-status JSON responses out, with
//! `keep-alive` connection reuse. Everything unsupported (chunked
//! transfer encoding, upgrades, HTTP/2 prefaces) is rejected with a
//! named error that the server maps to a `400` — malformed traffic
//! never panics a worker and never desyncs a connection silently.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Maximum accepted size of the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// The decoded path, query string stripped.
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// `true` when the client asked to keep the connection open
    /// (HTTP/1.1 default; `Connection: close` opts out).
    pub keep_alive: bool,
}

impl Request {
    /// The first query value under `key`, when present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::Malformed("body is not UTF-8"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The request violates the supported HTTP subset.
    Malformed(&'static str),
    /// The head or body exceeds the configured limits.
    TooLarge(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io error: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one request from `reader`. Returns `Ok(None)` when the
/// connection closed cleanly before a request line (the keep-alive
/// loop's normal exit).
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let line = match read_line(reader, MAX_HEAD_BYTES)? {
        Some(line) => line,
        None => return Ok(None),
    };
    if line.is_empty() {
        return Err(HttpError::Malformed("empty request line"));
    }
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported request line"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method token"));
    }

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(raw_query) = raw_query {
        for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k)?, percent_decode(v)?));
        }
    }

    // Headers: only Content-Length and Connection matter to this subset;
    // everything else is skipped (but still bounded by MAX_HEAD_BYTES
    // per line).
    let mut content_length: usize = 0;
    let mut keep_alive = version == "HTTP/1.1";
    loop {
        let line = read_line(reader, MAX_HEAD_BYTES)?
            .ok_or(HttpError::Malformed("connection closed inside headers"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without a colon"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| HttpError::Malformed("unparsable Content-Length"))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(HttpError::TooLarge("body exceeds limit"));
                }
            }
            "transfer-encoding" => {
                return Err(HttpError::Malformed("transfer encodings are not supported"));
            }
            "connection" => {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
            _ => {}
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        keep_alive,
    }))
}

/// Reads one CRLF- (or bare-LF-) terminated line, bounded by `limit`
/// bytes. `Ok(None)` means EOF before any byte arrived.
fn read_line<R: BufRead>(reader: &mut R, limit: usize) -> Result<Option<String>, HttpError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        let n = match reader.read(&mut byte) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        };
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::Malformed("connection closed mid-line"));
        }
        if byte[0] == b'\n' {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            let line = String::from_utf8(buf)
                .map_err(|_| HttpError::Malformed("non-UTF-8 request head"))?;
            return Ok(Some(line));
        }
        if buf.len() >= limit {
            return Err(HttpError::TooLarge("request head exceeds limit"));
        }
        buf.push(byte[0]);
    }
}

/// Decodes `%XX` escapes and `+`-for-space in a URL component.
fn percent_decode(s: &str) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .ok_or(HttpError::Malformed("truncated percent escape"))?;
                let hex = std::str::from_utf8(hex)
                    .map_err(|_| HttpError::Malformed("bad percent escape"))?;
                let v = u8::from_str_radix(hex, 16)
                    .map_err(|_| HttpError::Malformed("bad percent escape"))?;
                out.push(v);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::Malformed("non-UTF-8 percent data"))
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes one response with the given body and content type. The
/// connection header mirrors `keep_alive` so clients know whether the
/// socket stays usable.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = parse(
            "POST /sessions/demo/apply?primary=3&label=a%20b HTTP/1.1\r\n\
             Host: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions/demo/apply");
        assert_eq!(req.query_param("primary"), Some("3"));
        assert_eq!(req.query_param("label"), Some("a b"));
        assert_eq!(req.body_text().unwrap(), "body");
        assert!(req.keep_alive);
    }

    #[test]
    fn clean_eof_is_none_and_connection_close_is_honoured() {
        assert!(parse("").unwrap().is_none());
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn malformed_and_oversized_requests_are_named_errors() {
        assert!(matches!(
            parse("GET /\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        let huge = format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&huge), Err(HttpError::TooLarge(_))));
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEAD_BYTES + 10));
        assert!(matches!(parse(&long_line), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn response_wire_format_round_trips() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }
}
