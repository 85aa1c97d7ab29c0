//! A minimal hand-rolled HTTP/1.1 layer — just enough protocol for the
//! job server, built on `std::net` and [`pmorph_util::json`] so the
//! hermetic zero-dependency policy holds.
//!
//! Scope, deliberately small:
//!
//! * request line + headers + `Content-Length` bodies (no chunked
//!   transfer, no continuation lines, no multipart),
//! * one request per connection (every response carries
//!   `Connection: close`), which keeps the server loop and the test
//!   client trivially correct,
//! * hard limits on header block and body size — oversize input is a
//!   protocol error, not an allocation.
//!
//! The same module carries the in-repo client ([`request`]) used by the
//! e2e black-box suite and the determinism tests: a client this small is
//! the difference between "tests need curl" and "tests are hermetic".

use pmorph_util::json::{self, Value};
use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest accepted header block (request line + headers), bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Largest accepted request/response body, bytes.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Request path (query strings are not used by the protocol and are
    /// kept attached — route matching is exact).
    pub path: String,
    /// Lowercased header names with trimmed values, in wire order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; maps to a 4xx at the server layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or header.
    Malformed(&'static str),
    /// Header block or body over the hard limits.
    TooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
        }
    }
}

/// Outcome of one length-capped line read.
enum CappedLine {
    /// Peer closed before any byte arrived.
    Eof,
    /// A complete line, terminator included (or the final unterminated
    /// bytes before EOF, matching `read_line`).
    Line(Vec<u8>),
    /// More than `limit` bytes arrived with no newline.
    Oversize,
}

/// Read one `\n`-terminated line, never buffering more than `limit + 1`
/// bytes no matter how much the peer sends. This is the untrusted-input
/// guard: plain `read_line` allocates in proportion to whatever arrives
/// before a newline, so a newline-less flood grows the buffer without
/// bound before any size check can run.
fn read_line_capped<R: BufRead>(reader: &mut R, limit: usize) -> io::Result<CappedLine> {
    let mut out = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if out.is_empty() { CappedLine::Eof } else { CappedLine::Line(out) });
        }
        let take = buf.len().min(limit + 1 - out.len());
        match buf[..take].iter().position(|&b| b == b'\n') {
            Some(i) => {
                out.extend_from_slice(&buf[..=i]);
                reader.consume(i + 1);
                return Ok(CappedLine::Line(out));
            }
            None => {
                out.extend_from_slice(&buf[..take]);
                reader.consume(take);
                if out.len() > limit {
                    return Ok(CappedLine::Oversize);
                }
            }
        }
    }
}

/// Read one request from the stream. `Ok(None)` means the peer closed
/// the connection before sending a request line (a clean no-op).
pub fn read_request<S: Read>(stream: S) -> io::Result<Result<Option<Request>, HttpError>> {
    let mut reader = BufReader::new(stream);
    // Each line is capped at the whole header budget: a single line can
    // never legitimately need more, so a longer one is oversize without
    // having been buffered.
    let line = match read_line_capped(&mut reader, MAX_HEADER_BYTES)? {
        CappedLine::Eof => return Ok(Ok(None)),
        CappedLine::Oversize => return Ok(Err(HttpError::TooLarge("header block"))),
        CappedLine::Line(l) => l,
    };
    let Ok(line) = String::from_utf8(line) else {
        return Ok(Err(HttpError::Malformed("request line")));
    };
    let mut header_bytes = line.len();
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1") => (m.to_uppercase(), p.to_string()),
        _ => return Ok(Err(HttpError::Malformed("request line"))),
    };

    let mut headers = Vec::new();
    loop {
        let h = match read_line_capped(&mut reader, MAX_HEADER_BYTES)? {
            CappedLine::Eof => return Ok(Err(HttpError::Malformed("eof in headers"))),
            CappedLine::Oversize => return Ok(Err(HttpError::TooLarge("header block"))),
            CappedLine::Line(l) => l,
        };
        header_bytes += h.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Ok(Err(HttpError::TooLarge("header block")));
        }
        let Ok(h) = std::str::from_utf8(&h) else {
            return Ok(Err(HttpError::Malformed("header line")));
        };
        let h = h.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Ok(Err(HttpError::Malformed("header line")));
        };
        headers.push((name.trim().to_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0,
        Some((_, v)) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return Ok(Err(HttpError::Malformed("content-length"))),
        },
    };
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(HttpError::TooLarge("body")));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Ok(Some(Request { method, path, headers, body })))
}

/// Reason phrases for the status codes the protocol uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write one `Connection: close` response with a JSON body.
pub fn write_response<S: Write>(mut stream: S, status: u16, body: &Value) -> io::Result<()> {
    write_response_bytes(&mut stream, status, body.to_string_compact().as_bytes())
}

/// Write one `Connection: close` response with pre-serialized JSON bytes
/// (the cache-hit result path: stored bytes go out verbatim, which is
/// what makes "byte-identical payload" a checkable contract).
pub fn write_response_bytes<S: Write>(mut stream: S, status: u16, body: &[u8]) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        reason(status),
        body.len()
    );
    // Head and body in one vectored write, without copying the body: as
    // two writes, the body could wait for the head's ACK.
    let mut bufs = [IoSlice::new(head.as_bytes()), IoSlice::new(body)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match stream.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

/// A client response: status plus raw body bytes (parse with
/// [`ClientResponse::json`] when the bytes themselves don't matter).
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Parse the body as JSON.
    pub fn json(&self) -> Result<Value, json::ParseError> {
        json::parse(std::str::from_utf8(&self.body).unwrap_or(""))
    }
}

/// One-shot HTTP request against `addr` (the in-repo client). `body`
/// serializes as compact JSON; `None` sends no body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Value>,
) -> io::Result<ClientResponse> {
    let payload = body.map(|b| b.to_string_compact()).unwrap_or_default();
    request_raw(addr, method, path, payload.as_bytes())
}

/// [`request`] with raw body bytes — lets the error-path tests send
/// deliberately malformed JSON.
pub fn request_raw(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    stream.set_nodelay(true)?;
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nhost: pmorph\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    stream.write_all(&req)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 {
            break;
        }
        let h = h.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(ClientResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(bytes).expect("io on a slice cannot fail")
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            b"POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}extra-ignored",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"a\":1}");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn empty_stream_is_clean_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_request_line_and_headers() {
        assert_eq!(parse(b"NONSENSE\r\n\r\n"), Err(HttpError::Malformed("request line")));
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            Err(HttpError::Malformed("header line"))
        );
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed("content-length"))
        );
    }

    #[test]
    fn rejects_oversize_declarations() {
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert_eq!(parse(huge.as_bytes()), Err(HttpError::TooLarge("body")));
        let mut headers = String::from("GET / HTTP/1.1\r\n");
        while headers.len() <= MAX_HEADER_BYTES {
            headers.push_str("x-pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        headers.push_str("\r\n");
        assert_eq!(parse(headers.as_bytes()), Err(HttpError::TooLarge("header block")));
    }

    #[test]
    fn caps_unterminated_lines_instead_of_buffering_them() {
        // Regression: a newline-less request line used to be slurped
        // whole by `read_line` — the allocation tracked the flood, and
        // on a live socket the read blocked until timeout. Now the line
        // is rejected as soon as it crosses the header budget.
        let flood = vec![b'a'; 4 * MAX_HEADER_BYTES];
        assert_eq!(parse(&flood), Err(HttpError::TooLarge("header block")));
        // Same guard on a single endless header line.
        let mut req = b"GET / HTTP/1.1\r\nx-flood: ".to_vec();
        req.extend(std::iter::repeat(b'a').take(4 * MAX_HEADER_BYTES));
        assert_eq!(parse(&req), Err(HttpError::TooLarge("header block")));
    }

    #[test]
    fn non_utf8_bytes_are_malformed_not_io_errors() {
        assert_eq!(parse(b"\xff\xfe\xfd\r\n\r\n"), Err(HttpError::Malformed("request line")));
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nx-bin: \xff\xfe\r\n\r\n"),
            Err(HttpError::Malformed("header line"))
        );
    }

    #[test]
    fn response_survives_short_writes() {
        // A sink that takes at most 5 bytes per call: the vectored write
        // loop must resume mid-head and mid-body without loss.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(5);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let body = br#"{"payload":"0123456789abcdef"}"#;
        let mut whole = Vec::new();
        write_response_bytes(&mut whole, 200, body).unwrap();
        let mut trickle = Trickle(Vec::new());
        write_response_bytes(&mut trickle, 200, body).unwrap();
        assert_eq!(trickle.0, whole);
        assert!(whole.ends_with(body));
    }

    #[test]
    fn response_round_trips_through_a_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let req = read_request(&stream).unwrap().unwrap().unwrap();
            assert_eq!(req.path, "/echo");
            let doc = json::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
            write_response(&stream, 200, &doc).unwrap();
        });
        let mut body = Value::object();
        body.set("hello", Value::Str("world".into()));
        let resp = request(addr, "POST", "/echo", Some(&body)).unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.json().unwrap(), body);
    }
}
