//! A seeded mutation fuzzer of the HTTP dialect the daemon and its client
//! speak: recorded request heads and bodies through
//! [`http::read_request`](crate::http::read_request), and recorded
//! responses — `Content-Length` documents and a chunked event stream —
//! through the client's head, body and chunk decoders. Every mutation must
//! end in a parse or a typed error: no panic, no hang, and no allocation
//! beyond a fixed multiple of the input's length, whatever length a head
//! or a chunk declares. Its mutation and allocation helpers also drive
//! the shard-worker stream fuzzer in [`crate::worker`]'s tests.

#![cfg(test)]

use crate::client::{header, read_chunks, read_head, read_sized};
use crate::http::{read_request, respond_json, respond_with, ChunkedWriter};
use pcv_rng::Rng;
use std::io;

/// The unit tests' allocator, so the fuzzer can bound what a decode
/// allocates.
#[global_allocator]
static ALLOC: pcv_obs::TrackingAlloc = pcv_obs::TrackingAlloc::system();

/// The requests the client sends, byte for byte as it writes them.
fn requests() -> Vec<Vec<u8>> {
    let post = |path: &str, body: &str| {
        format!(
            "POST {path} HTTP/1.1\r\nHost: 127.0.0.1:7171\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    };
    vec![
        post("/sessions", r#"{"design":{"kind":"dsp","buses":1,"bits":4,"random":6}}"#),
        post(
            "/sessions/s1/eco",
            r#"{"text":"*SPEF pcv-lite 1.0\n*NET v0 2\n*LOAD 1\n*R 0 1 1.5e2\n*END\n"}"#,
        ),
        b"GET /runs/r1/verdicts?net=bus0%5B3%5D&x=a+b HTTP/1.1\r\nHost: 127.0.0.1:7171\r\n\
          Content-Length: 0\r\nConnection: close\r\n\r\n"
            .to_vec(),
    ]
}

/// The responses the daemon writes, through its own writers.
fn responses() -> Vec<Vec<u8>> {
    let mut document = Vec::new();
    respond_json(&mut document, 200, "OK", r#"{"session":"s1","state":"ready","nets":10}"#)
        .unwrap();
    let mut busy = Vec::new();
    let body = br#"{"error":"busy","message":"run queue full"}"#;
    respond_with(
        &mut busy,
        429,
        "Too Many Requests",
        "application/json",
        &[("Retry-After", "1")],
        body,
    )
    .unwrap();
    let mut stream = Vec::new();
    let mut writer = ChunkedWriter::begin(&mut stream, "application/jsonl").unwrap();
    for line in [
        r#"{"kind":"run_started","victims":6,"workers":1}"#,
        r#"{"kind":"cluster_finished","name":"bus0.3","cached":false,"elapsed_ms":1.5}"#,
        r#"{"kind":"stream_trailer","run":"r1","state":"complete","delivered":2,"dropped":0}"#,
    ] {
        writer.line(line).unwrap();
    }
    writer.finish().unwrap();
    vec![document, busy, stream]
}

/// One seeded mutation: a truncation, a lost or doubled span, or a hostile
/// token inserted or in place of a span.
fn mutate(input: &[u8], rng: &mut Rng) -> Vec<u8> {
    const TOKENS: &[&[u8]] = &[
        b"\r\n",
        b"\r\n\r\n",
        b"\n",
        b":",
        b" ",
        b"%",
        b"%+4",
        b"%zz",
        b"+",
        b"?",
        b"&=",
        b"\0",
        b"\xff\xfe",
        "é".as_bytes(),
        b"Content-Length: 17592186044416\r\n",
        b"Content-Length: 50000000\r\n",
        b"Content-Length: -1\r\n",
        b"Content-Length: 18446744073709551616\r\n",
        b"Transfer-Encoding: chunked\r\n",
        b"fffffffffff\r\n",
        b"ffffffffffffffff\r\n",
        b"+5\r\n",
        b"0\r\n\r\n",
        b"HTTP/1.1 ",
    ];
    mutate_with(input, TOKENS, rng)
}

/// One seeded mutation of `input`: a truncation, a lost or doubled span, or
/// one of `tokens` inserted or in place of a span.
pub(crate) fn mutate_with(input: &[u8], tokens: &[&[u8]], rng: &mut Rng) -> Vec<u8> {
    let (x, y) = (rng.range_usize(0, input.len() + 1), rng.range_usize(0, input.len() + 1));
    let (a, b) = (x.min(y), x.min(y) + (x.max(y) - x.min(y)).min(24));
    let token = tokens[rng.range_usize(0, tokens.len())];
    match rng.range_usize(0, 8) {
        0 => input[..a].to_vec(),
        1 | 2 => [&input[..a], &input[b..]].concat(),
        3 => [&input[..b], &input[a..b], &input[b..]].concat(),
        4 | 5 => [&input[..a], token, &input[a..]].concat(),
        _ => [&input[..a], token, &input[b..]].concat(),
    }
}

/// Bytes this thread allocated while `f` ran.
pub(crate) fn allocated(f: impl FnOnce()) -> u64 {
    let before = pcv_obs::mem::thread_totals().0;
    f();
    pcv_obs::mem::thread_totals().0 - before
}

/// A typed error of the decoders: malformed (`InvalidData`) or cut short
/// (`UnexpectedEof`).
fn typed(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof)
}

/// Decode one response as the client does: head, then a chunked or a
/// `Content-Length` body.
fn decode_response(mut input: &[u8]) -> io::Result<()> {
    let (_, headers) = read_head(&mut input)?;
    if header(&headers, "transfer-encoding").is_some_and(|v| v == "chunked") {
        read_chunks(&mut input, |_| {})
    } else {
        read_sized(&mut input, &headers).map(drop)
    }
}

/// Run `rounds` mutations, up to three deep, of the recorded requests and
/// responses through their decoders. Returns how many decoded and how many
/// were refused.
fn fuzz(rounds: usize) -> (usize, usize) {
    assert!(pcv_obs::mem::active(), "the tracking allocator is installed in this binary");
    let seeds: Vec<(bool, Vec<u8>)> = requests()
        .into_iter()
        .map(|r| (true, r))
        .chain(responses().into_iter().map(|r| (false, r)))
        .collect();
    let mut rng = Rng::new(0x4778_f022);
    let (mut decoded, mut refused) = (0, 0);
    for (s, (request, seed)) in seeds.iter().enumerate() {
        for round in 0..rounds / seeds.len() {
            let mut input = mutate(seed, &mut rng);
            for _ in 0..rng.range_usize(0, 3) {
                input = mutate(&input, &mut rng);
            }
            let mut outcome = Ok(());
            let bytes = allocated(|| {
                outcome = if *request {
                    read_request(&mut &input[..]).map(drop)
                } else {
                    decode_response(&input)
                };
            });
            let what = String::from_utf8_lossy(&input);
            match outcome {
                Ok(()) => decoded += 1,
                Err(e) => {
                    assert!(typed(&e), "seed {s} round {round}: untyped {e:?}\n{what}");
                    refused += 1;
                }
            }
            let bound = 64 * input.len() as u64 + (64 << 10);
            assert!(bytes <= bound, "seed {s} round {round}: {bytes} bytes allocated\n{what}");
        }
    }
    (decoded, refused)
}

#[test]
fn mutated_requests_and_responses_decode_or_fail_typed() {
    for (request, seed) in
        requests().iter().map(|r| (true, r)).chain(responses().iter().map(|r| (false, r)))
    {
        let outcome =
            if request { read_request(&mut &seed[..]).map(drop) } else { decode_response(seed) };
        assert!(outcome.is_ok(), "a recorded message decodes: {}", String::from_utf8_lossy(seed));
    }
    let (decoded, refused) = fuzz(2000);
    assert!(decoded > 300 && refused > 300, "{decoded} decoded, {refused} refused of 2 000");
}

/// The same at 20 000 mutations — the `chaos` CI job's share.
#[test]
#[ignore = "20 000 mutations: run by the chaos CI job"]
fn twenty_thousand_mutated_requests_and_responses_decode_or_fail_typed() {
    let (decoded, refused) = fuzz(20_000);
    assert!(decoded > 3000 && refused > 3000, "{decoded} decoded, {refused} refused of 20 000");
}
