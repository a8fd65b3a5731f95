//! Just enough HTTP/1.1 to serve the verification API over a localhost
//! `TcpStream`: request parsing with `Content-Length` bodies, fixed
//! responses, and chunked transfer encoding for unbounded event streams.
//! One request per connection (`Connection: close`) — the clients are
//! local tools, not browsers, and the simplicity buys robustness.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

/// Largest accepted head (request line + headers) in bytes.
const MAX_HEAD: usize = 64 * 1024;
/// Largest accepted request body in bytes (SPEF uploads dominate).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// One parsed request: method, decoded path, query pairs, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string stripped, percent-decoded.
    pub path: String,
    /// Query pairs in order of appearance, percent-decoded.
    pub query: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: String,
}

impl Request {
    /// First value for query key `key`.
    pub fn query_get(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Split the decoded path into non-empty segments.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Decode `%XX` escapes and `+`-as-space. An escape is `%` and two hex
/// digits; a `%` followed by anything else stays literal.
fn percent_decode(text: &str) -> String {
    let hex = |b: u8| char::from(b).to_digit(16);
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let escape = bytes.get(i + 1..i + 3).and_then(|h| Some(hex(h[0])? * 16 + hex(h[1])?));
        match (bytes[i], escape) {
            (b'%', Some(b)) => {
                out.push(b as u8);
                i += 3;
            }
            (b'+', _) => {
                out.push(b' ');
                i += 1;
            }
            (b, _) => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("malformed request: {what}"))
}

/// Read and parse one request from `stream`.
///
/// # Errors
///
/// I/O failures, oversized heads/bodies, and malformed request lines all
/// surface as `io::Error` — the connection handler answers 400 and closes.
pub fn read_request(stream: &mut dyn Read) -> io::Result<Request> {
    // Read byte-wise until the blank line; the head is tiny and the
    // syscall count is irrelevant next to a verification run.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() >= MAX_HEAD {
            return Err(bad("head too large"));
        }
        match stream.read(&mut byte)? {
            0 => return Err(bad("connection closed mid-head")),
            _ => head.push(byte[0]),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or_else(|| bad("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("no method"))?.to_ascii_uppercase();
    let target = parts.next().ok_or_else(|| bad("no target"))?;
    let mut headers: BTreeMap<String, String> = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_owned());
        }
    }
    let content_length: usize = match headers.get("content-length") {
        Some(v) => v.parse().map_err(|_| bad("unreadable content-length"))?,
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err(bad("body too large"));
    }
    // Read through `take`: memory follows the bytes that arrive, not the
    // length a client declares.
    let mut body = Vec::new();
    stream.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(bad("body shorter than its content-length"));
    }
    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Ok(Request {
        method,
        path: percent_decode(path_raw),
        query: parse_query(query_raw),
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Write a complete response with a `Content-Length` body and close
/// semantics.
///
/// # Errors
///
/// Propagates stream write failures (a vanished client).
pub fn respond(
    stream: &mut dyn Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Like [`respond`], with extra response headers (each a `(name, value)`
/// pair) between the fixed headers and the body — the hook `Retry-After`
/// on 429 responses rides through.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond_with(
    stream: &mut dyn Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    stream.write_all(body)?;
    stream.flush()
}

/// Shorthand for a JSON response.
///
/// # Errors
///
/// Propagates stream write failures.
pub fn respond_json(
    stream: &mut dyn Write,
    status: u16,
    reason: &str,
    body: &str,
) -> io::Result<()> {
    respond(stream, status, reason, "application/json", body.as_bytes())
}

/// An in-flight chunked (streaming) response. Each [`ChunkedWriter::line`]
/// becomes one chunk; [`ChunkedWriter::finish`] writes the terminal chunk.
/// Dropping without `finish` just closes the connection — the client sees
/// a truncated stream, which is the honest signal for an aborted server.
pub struct ChunkedWriter<'a> {
    stream: &'a mut dyn Write,
}

impl<'a> ChunkedWriter<'a> {
    /// Start a `200 OK` chunked response with the given content type.
    ///
    /// # Errors
    ///
    /// Propagates stream write failures.
    pub fn begin(stream: &'a mut dyn Write, content_type: &str) -> io::Result<Self> {
        write!(
            stream,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Send `text` plus a newline as one chunk, flushed immediately so a
    /// tailing client sees events as they happen.
    ///
    /// # Errors
    ///
    /// Propagates stream write failures (the client hung up — the caller
    /// stops streaming).
    pub fn line(&mut self, text: &str) -> io::Result<()> {
        write!(self.stream, "{:x}\r\n{text}\n\r\n", text.len() + 1)?;
        self.stream.flush()
    }

    /// Terminate the stream cleanly (zero-length chunk).
    ///
    /// # Errors
    ///
    /// Propagates stream write failures.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_line_query_and_body() {
        let raw = b"POST /sessions/s1/runs?net=bus0_3&x=a%20b HTTP/1.1\r\n\
                    Host: localhost\r\nContent-Length: 9\r\n\r\n{\"w\":1}\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions/s1/runs");
        assert_eq!(req.segments(), vec!["sessions", "s1", "runs"]);
        assert_eq!(req.query_get("net"), Some("bus0_3"));
        assert_eq!(req.query_get("x"), Some("a b"));
        assert_eq!(req.body, "{\"w\":1}\r\n");
    }

    #[test]
    fn missing_body_and_query_are_empty() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty());
        assert!(req.body.is_empty());
        assert_eq!(req.query_get("net"), None);
    }

    #[test]
    fn an_escape_needs_two_hex_digits() {
        for (raw, decoded) in [
            ("%+4", "% 4"),
            ("%-1x", "%-1x"),
            ("%4", "%4"),
            ("%zz%", "%zz%"),
            ("%%41", "%A"),
            ("a%2Fb+c", "a/b c"),
            ("%c3%A9", "\u{e9}"),
        ] {
            assert_eq!(percent_decode(raw), decoded, "{raw}");
        }
    }

    #[test]
    fn a_short_body_is_an_error() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 60000000\r\n\r\n{}";
        let err = read_request(&mut &raw[..]).unwrap_err();
        assert!(err.to_string().contains("body shorter than its content-length"), "{err}");
    }

    #[test]
    fn truncated_head_is_an_error() {
        let raw = b"GET /x HTTP/1.1\r\nHost";
        assert!(read_request(&mut &raw[..]).is_err());
    }

    #[test]
    fn respond_writes_content_length_and_body() {
        let mut out = Vec::new();
        respond_json(&mut out, 429, "Too Many Requests", "{\"error\":\"busy\"}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 16\r\n"));
        assert!(text.ends_with("{\"error\":\"busy\"}"));
    }

    #[test]
    fn extra_headers_land_between_fixed_headers_and_body() {
        let mut out = Vec::new();
        respond_with(
            &mut out,
            429,
            "Too Many Requests",
            "application/json",
            &[("Retry-After", "1")],
            b"{\"error\":\"busy\"}",
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.contains("\r\n\r\n{\"error\":\"busy\"}"), "{text}");
    }

    #[test]
    fn chunked_stream_round_trips() {
        let mut out = Vec::new();
        {
            let mut w = ChunkedWriter::begin(&mut out, "application/jsonl").unwrap();
            w.line("{\"kind\":\"run_started\"}").unwrap();
            w.line("{\"kind\":\"run_finished\"}").unwrap();
            w.finish().unwrap();
        }
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        // 22 bytes of payload + newline = 0x17.
        assert!(text.contains("17\r\n{\"kind\":\"run_started\"}\n\r\n"), "{text}");
        assert!(text.ends_with("0\r\n\r\n"));
    }
}
