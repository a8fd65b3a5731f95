//! `pcv_client` — command-line client for the `pcv_serve` daemon.
//!
//! ```text
//! pcv_client --addr HOST:PORT <command> [args]
//!
//! commands:
//!   load-dsp [--buses N] [--bits N] [--random N]   create a DSP-fixture session
//!   load-spef FILE [--drive OHMS]                  create a session from a SPEF file
//!   run SESSION [--workers N] [--resume] [--stop-after N]
//!       [--shards N] [--shard-timeout-ms MS] [--deadline-ms MS]
//!   eco SESSION FILE [--workers N] [--resume]      patch the resident parasitics with an
//!                                                  edited SPEF and splice-verify the delta
//!   events RUN                                     tail the live JSONL event stream
//!   verdicts RUN [--net NAME]                      fetch (partial) verdicts
//!   signoff RUN [--out FILE]                       fetch the sign-off document
//!   stat [--raw] [--out FILE]                      scrape /metrics (summary or raw exposition)
//!   smoke [--out FILE]                             load DSP + run + stream + sign-off
//!   shutdown                                       ask the daemon to drain
//! ```
//!
//! `smoke` drives the full lifecycle with the same DSP configuration the
//! batch `dsp_chip_signoff` example uses, so CI can byte-compare the
//! served document against the offline one.
//!
//! Run and ECO submissions honor the daemon's `Retry-After` on 429 with
//! bounded backoff (a handful of attempts, ≤ 2 s sleeps), so a briefly
//! full queue looks like a slow accept rather than a hard failure.

use pcv_serve::Client;
use pcv_trace::json;
use std::io::Write;
use std::process::exit;
use std::time::Duration;

/// Busy-retry policy for submissions: up to 5 attempts, each backoff the
/// server's `Retry-After` capped at 2 s.
const RETRY_ATTEMPTS: u32 = 5;
const RETRY_CAP: Duration = Duration::from_secs(2);

fn fail(msg: &str) -> ! {
    eprintln!("pcv_client: {msg}");
    exit(1);
}

/// Pull the value following `flag` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        fail(&format!("{flag} needs a value"));
    }
    args.remove(i);
    Some(args.remove(i))
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn expect_ok(what: &str, resp: &pcv_serve::Response) {
    if !resp.ok() {
        fail(&format!("{what}: HTTP {}: {}", resp.status, resp.body));
    }
}

/// The string member `key` of a JSON object.
fn json_str_field(body: &str, key: &str) -> Option<String> {
    Some(json::parse(body).ok()?.get(key)?.as_str()?.to_owned())
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:7171".into());
    let client = Client::new(addr);
    if args.is_empty() {
        fail("no command; try: load-dsp | load-spef | run | eco | events | verdicts | signoff | stat | smoke | shutdown");
    }
    let command = args.remove(0);
    match command.as_str() {
        "load-dsp" => {
            let buses = take_flag(&mut args, "--buses").unwrap_or_else(|| "4".into());
            let bits = take_flag(&mut args, "--bits").unwrap_or_else(|| "16".into());
            let random = take_flag(&mut args, "--random").unwrap_or_else(|| "60".into());
            let body = json::object(|o| {
                o.obj("design", |d| {
                    d.str("kind", "dsp").raw("buses", buses).raw("bits", bits);
                    d.raw("random", random);
                });
            });
            let resp =
                client.request("POST", "/sessions", &body).unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("load-dsp", &resp);
            println!("{}", resp.body);
        }
        "load-spef" => {
            if args.is_empty() {
                fail("load-spef needs a SPEF file path");
            }
            let path = args.remove(0);
            let drive = take_flag(&mut args, "--drive").unwrap_or_else(|| "1000".into());
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            let body = json::object(|o| {
                o.obj("design", |d| {
                    d.str("kind", "spef").raw("drive_ohms", drive).str("victims", "all");
                    d.str("text", &text);
                });
            });
            let resp =
                client.request("POST", "/sessions", &body).unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("load-spef", &resp);
            println!("{}", resp.body);
        }
        "run" => {
            if args.is_empty() {
                fail("run needs a session id");
            }
            let session = args.remove(0);
            let body = json::object(|o| {
                for (flag, key) in [
                    ("--workers", "workers"),
                    ("--stop-after", "stop_after"),
                    ("--shards", "shards"),
                    ("--shard-timeout-ms", "shard_timeout_ms"),
                    ("--deadline-ms", "deadline_ms"),
                ] {
                    if let Some(v) = take_flag(&mut args, flag) {
                        o.raw(key, v);
                    }
                }
                if take_switch(&mut args, "--resume") {
                    o.raw("resume", true);
                }
            });
            let path = format!("/sessions/{session}/runs");
            let resp = client
                .request_with_retry("POST", &path, &body, RETRY_ATTEMPTS, RETRY_CAP)
                .unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("run", &resp);
            println!("{}", resp.body);
        }
        "eco" => {
            if args.len() < 2 {
                fail("eco needs a session id and an edited SPEF file path");
            }
            let session = args.remove(0);
            let path = args.remove(0);
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            let body = json::object(|o| {
                o.str("text", &text);
                if let Some(w) = take_flag(&mut args, "--workers") {
                    o.raw("workers", w);
                }
                if take_switch(&mut args, "--resume") {
                    o.raw("resume", true);
                }
            });
            let resp = client
                .request_with_retry(
                    "POST",
                    &format!("/sessions/{session}/eco"),
                    &body,
                    RETRY_ATTEMPTS,
                    RETRY_CAP,
                )
                .unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("eco", &resp);
            println!("{}", resp.body);
        }
        "events" => {
            if args.is_empty() {
                fail("events needs a run id");
            }
            let run = args.remove(0);
            let status = client
                .stream(&format!("/runs/{run}/events"), |line| println!("{line}"))
                .unwrap_or_else(|e| fail(&e.to_string()));
            if status != 200 {
                exit(1);
            }
        }
        "verdicts" => {
            if args.is_empty() {
                fail("verdicts needs a run id");
            }
            let run = args.remove(0);
            let path = match take_flag(&mut args, "--net") {
                Some(net) => format!("/runs/{run}/verdicts?net={net}"),
                None => format!("/runs/{run}/verdicts"),
            };
            let resp = client.request("GET", &path, "").unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("verdicts", &resp);
            println!("{}", resp.body);
        }
        "signoff" => {
            if args.is_empty() {
                fail("signoff needs a run id");
            }
            let run = args.remove(0);
            let resp = client
                .request("GET", &format!("/runs/{run}/signoff"), "")
                .unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("signoff", &resp);
            emit(&resp.body, take_flag(&mut args, "--out"));
        }
        "stat" => {
            let raw = take_switch(&mut args, "--raw");
            let out = take_flag(&mut args, "--out");
            let resp =
                client.request("GET", "/metrics", "").unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("stat", &resp);
            if raw || out.is_some() {
                emit(&resp.body, out);
            } else {
                // Compact human summary: one line per series, comments
                // dropped, histogram buckets collapsed to _sum/_count.
                for line in resp.body.lines() {
                    if line.starts_with('#') || line.contains("_bucket{") {
                        continue;
                    }
                    println!("{line}");
                }
            }
        }
        "smoke" => {
            // The batch dsp_chip_signoff example's configuration, so the
            // served sign-off is byte-comparable against the offline one.
            let out = take_flag(&mut args, "--out");
            let body = json::object(|o| {
                o.obj("design", |d| {
                    d.str("kind", "dsp").raw("buses", 3).raw("bits", 12).raw("random", 40);
                });
            });
            let resp =
                client.request("POST", "/sessions", &body).unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("smoke: load", &resp);
            let session = json_str_field(&resp.body, "session")
                .unwrap_or_else(|| fail(&format!("no session id in {}", resp.body)));
            eprintln!("smoke: session {session} ready");
            let resp = client
                .request_with_retry(
                    "POST",
                    &format!("/sessions/{session}/runs"),
                    "{}",
                    RETRY_ATTEMPTS,
                    RETRY_CAP,
                )
                .unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("smoke: run", &resp);
            let run = json_str_field(&resp.body, "run")
                .unwrap_or_else(|| fail(&format!("no run id in {}", resp.body)));
            eprintln!("smoke: run {run} queued, streaming events");
            let mut events = 0usize;
            let mut trailer = String::new();
            let status = client
                .stream(&format!("/runs/{run}/events"), |line| {
                    events += 1;
                    if line.contains("\"stream_trailer\"") {
                        trailer = line.to_owned();
                    }
                })
                .unwrap_or_else(|e| fail(&e.to_string()));
            if status != 200 {
                fail(&format!("smoke: event stream answered HTTP {status}"));
            }
            eprintln!("smoke: {events} stream lines, trailer {trailer}");
            let resp = client
                .request("GET", &format!("/runs/{run}/signoff"), "")
                .unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("smoke: signoff", &resp);
            emit(&resp.body, out);
        }
        "shutdown" => {
            let resp =
                client.request("POST", "/shutdown", "").unwrap_or_else(|e| fail(&e.to_string()));
            expect_ok("shutdown", &resp);
            println!("{}", resp.body);
        }
        other => fail(&format!("unknown command {other:?}")),
    }
}

fn emit(body: &str, out: Option<String>) {
    match out {
        Some(path) => {
            let mut file = std::fs::File::create(&path)
                .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
            file.write_all(body.as_bytes())
                .and_then(|()| file.flush())
                .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
            eprintln!("wrote {} bytes to {path}", body.len());
        }
        None => println!("{body}"),
    }
}
