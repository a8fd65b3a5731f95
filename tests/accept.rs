//! The listener blocks in `accept`: a request is answered when it arrives,
//! not at the next tick of a poll, and shutdown wakes the listener itself.

use pcv_serve::{Client, Server, ServerConfig};
use std::sync::mpsc;
use std::time::Duration;

fn boot(tag: &str) -> (Server, Client) {
    let data_dir = std::env::temp_dir().join(format!("pcv-accept-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let server =
        Server::start(ServerConfig { data_dir, observe: false, ..ServerConfig::default() })
            .expect("bind an ephemeral port");
    let client = Client::new(server.addr().to_string());
    (server, client)
}

/// `stop(server)` on its own thread; panics if it has not returned in 10 s.
fn returns(what: &str, server: Server, stop: fn(Server)) {
    let (done, wait) = mpsc::channel();
    std::thread::spawn(move || {
        stop(server);
        let _ = done.send(());
    });
    wait.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what} did not return with no client connected"));
}

#[test]
fn sequential_round_trips_do_not_wait_on_a_poll() {
    let (server, client) = boot("roundtrips");
    for _ in 0..21 {
        assert_eq!(client.request("GET", "/healthz", "").unwrap().status, 200);
    }
    // One return from `accept` a connection, however loaded the machine: a
    // listener that polled would return at every tick with nothing to
    // accept as well, at least once for each request that waits on one.
    assert_eq!(server.accept_wakeups(), 21, "the listener woke without a connection");
    returns("join", server, Server::join);
}

#[test]
fn shutdown_returns_with_no_client_connected() {
    let (server, _) = boot("join");
    returns("join", server, Server::join);
    let (server, _) = boot("drop");
    returns("drop", server, drop);
    // The port is free again: the listener thread is gone, not detached.
    let (server, client) = boot("again");
    let addr = server.addr();
    returns("join", server, Server::join);
    assert!(client.request("GET", "/healthz", "").is_err(), "{addr} still answers");
}
