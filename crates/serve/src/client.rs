//! A small blocking HTTP client for the daemon, used by the `pcv_client`
//! tool, the load-test suite, and CI smoke jobs. Speaks exactly the
//! dialect [`crate::http`] serves: `Content-Length` responses for the
//! document routes, chunked transfer encoding for `/events` streams.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One complete (non-streaming) response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON on every API route).
    pub body: String,
    /// Parsed `Retry-After` header in seconds, present on the daemon's
    /// 429 busy responses.
    pub retry_after: Option<u64>,
}

impl Response {
    /// `true` for any 2xx status.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A client bound to one daemon address. Each request opens a fresh
/// connection (the server closes after every response), so a `Client` is
/// freely shareable across threads by cloning.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

impl Client {
    /// A client for the daemon at `addr` (e.g. `127.0.0.1:7171`).
    pub fn new(addr: impl Into<String>) -> Self {
        Client { addr: addr.into() }
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn send(&self, method: &str, path: &str, body: &str) -> io::Result<BufReader<TcpStream>> {
        let mut stream = self.connect()?;
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n",
            self.addr,
            body.len()
        )?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        Ok(BufReader::new(stream))
    }

    /// Issue `method path` with `body` and read the full response.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures; HTTP error statuses are returned
    /// in [`Response::status`], not as `Err`.
    pub fn request(&self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let mut reader = self.send(method, path, body)?;
        let (status, headers) = read_head(&mut reader)?;
        let body = if header(&headers, "transfer-encoding").is_some_and(|v| v == "chunked") {
            let mut text = String::new();
            read_chunks(&mut reader, |line| {
                text.push_str(line);
                text.push('\n');
            })?;
            text
        } else {
            read_sized(&mut reader, &headers)?
        };
        let retry_after = header(&headers, "retry-after").and_then(|v| v.parse().ok());
        Ok(Response { status, body, retry_after })
    }

    /// Like [`Client::request`], but honor 429 busy responses with bounded
    /// backoff: sleep for the server's `Retry-After` (capped at
    /// `max_backoff`, default 1 s when the header is missing) and retry up
    /// to `attempts` times total. Any non-429 response — success or a
    /// different error — returns immediately; after the final attempt the
    /// last 429 is returned as-is so the caller still sees the truth.
    ///
    /// # Errors
    ///
    /// Connection or protocol failures on any attempt.
    pub fn request_with_retry(
        &self,
        method: &str,
        path: &str,
        body: &str,
        attempts: u32,
        max_backoff: Duration,
    ) -> io::Result<Response> {
        let mut last = self.request(method, path, body)?;
        for _ in 1..attempts.max(1) {
            if last.status != 429 {
                return Ok(last);
            }
            let hinted = Duration::from_secs(last.retry_after.unwrap_or(1));
            std::thread::sleep(hinted.min(max_backoff));
            last = self.request(method, path, body)?;
        }
        Ok(last)
    }

    /// `GET path` expecting a chunked JSONL stream; `on_line` is called
    /// with each line (events, then the stream trailer) as it arrives.
    /// Returns the HTTP status (an error status delivers the error body
    /// through `on_line` once).
    ///
    /// # Errors
    ///
    /// Connection or protocol failures.
    pub fn stream(&self, path: &str, mut on_line: impl FnMut(&str)) -> io::Result<u16> {
        let mut reader = self.send("GET", path, "")?;
        let (status, headers) = read_head(&mut reader)?;
        if header(&headers, "transfer-encoding").is_some_and(|v| v == "chunked") {
            read_chunks(&mut reader, on_line)?;
        } else {
            on_line(&read_sized(&mut reader, &headers)?);
        }
        Ok(status)
    }
}

fn protocol(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {what}"))
}

/// Read exactly `len` bytes through `take`, so memory follows the bytes
/// that arrive, not the length a response declares; fewer is an error.
fn read_len(reader: &mut impl Read, len: u64, what: &str) -> io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    reader.take(len).read_to_end(&mut buf)?;
    if (buf.len() as u64) < len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, format!("bad response: {what}")));
    }
    Ok(buf)
}

/// A `Content-Length` body (none without the header).
pub(crate) fn read_sized(
    reader: &mut impl Read,
    headers: &[(String, String)],
) -> io::Result<String> {
    let len = header(headers, "content-length").and_then(|v| v.parse().ok()).unwrap_or(0);
    let body = read_len(reader, len, "body shorter than its content-length")?;
    Ok(String::from_utf8_lossy(&body).into_owned())
}

pub(crate) fn read_head(reader: &mut impl BufRead) -> io::Result<(u16, Vec<(String, String)>)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| protocol("no status code"))?;
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
    }
    Ok((status, headers))
}

pub(crate) fn header<'a>(headers: &'a [(String, String)], key: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

/// Decode a chunked body, invoking `on_line` for every newline-terminated
/// line of payload (the server emits exactly one JSONL line per chunk,
/// but this decoder does not rely on that).
pub(crate) fn read_chunks(
    reader: &mut impl BufRead,
    mut on_line: impl FnMut(&str),
) -> io::Result<()> {
    let mut pending = String::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            break; // server aborted: deliver what we have
        }
        let size = u64::from_str_radix(size_line.trim(), 16)
            .map_err(|_| protocol("unreadable chunk size"))?;
        if size == 0 {
            break;
        }
        let chunk = read_len(reader, size, "chunk shorter than its size")?;
        read_len(reader, 2, "chunk without its CRLF")?;
        pending.push_str(&String::from_utf8_lossy(&chunk));
        while let Some(pos) = pending.find('\n') {
            let line: String = pending.drain(..=pos).collect();
            on_line(line.trim_end_matches('\n'));
        }
    }
    if !pending.is_empty() {
        on_line(&pending);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_decoder_reassembles_lines_across_chunks() {
        let raw = b"3\r\nab\n\r\n5\r\ncd\nef\r\n2\r\n\ng\r\n0\r\n\r\n";
        let mut lines = Vec::new();
        read_chunks(&mut &raw[..], |l| lines.push(l.to_owned())).unwrap();
        assert_eq!(lines, vec!["ab", "cd", "ef", "g"]);
    }

    /// A client of a one-connection server that answers with `raw`.
    fn answered_by(raw: &'static [u8]) -> (Client, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::new(listener.local_addr().unwrap().to_string());
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            crate::http::read_request(&mut stream).unwrap();
            stream.write_all(raw).unwrap();
        });
        (client, server)
    }

    #[test]
    fn a_declared_length_is_not_an_allocation() {
        let responses: [&[u8]; 4] = [
            b"HTTP/1.1 200 OK\r\nContent-Length: 17592186044416\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n{}",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nfffffffffff\r\nab",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nab",
        ];
        for raw in responses {
            let (client, server) = answered_by(raw);
            let err = client.request("GET", "/healthz", "").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
            server.join().unwrap();
            let (client, server) = answered_by(raw);
            assert!(client.stream("/runs/r1/events", |_| {}).is_err());
            server.join().unwrap();
        }
    }

    #[test]
    fn head_parser_reads_status_and_headers() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
                    Content-Length: 2\r\n\r\n{}";
        let mut reader = &raw[..];
        let (status, headers) = read_head(&mut reader).unwrap();
        assert_eq!(status, 429);
        assert_eq!(header(&headers, "content-length"), Some("2"));
        assert_eq!(header(&headers, "content-type"), Some("application/json"));
    }
}
