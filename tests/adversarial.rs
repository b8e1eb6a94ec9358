//! Adversarial wire fuzzing against a live loopback server.
//!
//! Three layers, all sharing one long-lived server (started once per test
//! process and deliberately leaked so concurrent tests exercise it
//! together):
//!
//! 1. raw garbage — arbitrary printable bytes on the wire;
//! 2. structured near-misses — syntactically plausible `solve` requests
//!    with exactly one field pushed out of range;
//! 3. a scripted poison-then-serve regression mirroring the acceptance
//!    batch: every hostile line gets exactly one `err …` reply, after
//!    which a valid solve still answers `ok … degraded=0` with the full
//!    worker pool alive.
//!
//! The invariants under test are the request-path hardening ones: every
//! non-blank line gets exactly one reply, hostile input is rejected as
//! `err bad-request` (never a panic, never a dropped connection), and no
//! amount of pure-validation poison costs a worker its life.

use hgp::server::{Server, ServerConfig};
use hgp::workloads::requests::reply_field;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// Worker count of the shared fuzz server; stats assertions key off it.
const WORKERS: usize = 2;

/// Starts the shared server on first use and leaks it: tests in this
/// binary run concurrently and all hammer the same instance, which is the
/// point — isolation failures surface as cross-test flakiness.
fn server_addr() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let server = Server::start(
            ServerConfig::builder()
                .workers(WORKERS)
                .queue_capacity(16)
                .cache_capacity(8)
                .build(),
        )
        .expect("start fuzz server");
        let addr = server.addr();
        std::mem::forget(server); // keep serving for the whole process
        addr
    })
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect() -> Client {
        let stream = TcpStream::connect(server_addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// Sends one line and reads exactly one reply line.
    fn req(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .expect("read reply (server must not drop the connection)");
        assert!(
            reply.ends_with('\n'),
            "server closed mid-reply for {line:?}: {reply:?}"
        );
        reply.trim().to_string()
    }

    /// Asserts the pool is fully alive and nothing has escaped the panic
    /// boundary.
    fn assert_pool_healthy(&mut self) {
        let stats = self.req("stats2");
        let field = |k: &str| {
            reply_field(&stats, k)
                .unwrap_or_else(|| panic!("no {k} in {stats:?}"))
                .parse::<u64>()
                .unwrap()
        };
        assert_eq!(field("pool.workers-alive"), WORKERS as u64, "{stats}");
        assert_eq!(field("pool.worker-deaths"), 0, "{stats}");
        assert_eq!(field("pool.solve-panics"), 0, "{stats}");
    }
}

/// A known-good request; mutations below each break exactly one field.
const VALID_SOLVE: &str =
    "solve graph=edges:4:0-1:3.0,1-2:1.0,2-3:3.0 machine=2x2:4,1,0 demand=0.4 trees=2 seed=1";

/// Arbitrary printable bytes (space..~), trimming to non-blank. Newlines
/// and blank lines are excluded by construction: blank lines are skipped
/// without a reply by design, so they have no reply to assert on.
fn arb_garbage_line() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127u8, 1..80).prop_filter_map(
        "blank or control line",
        |bytes| {
            let s: String = bytes.into_iter().map(|b| b as char).collect();
            let t = s.trim();
            // a uniform draw will never spell these, but the cost of a stray
            // shutdown taking the shared server down is every other test
            if t.is_empty() || t == "shutdown" || t.starts_with("shutdown ") {
                None
            } else {
                Some(s)
            }
        },
    )
}

/// Near-miss `solve` lines: `(line, expected_code)`. With
/// `Some(code)` the server must answer exactly `err <code>`; with `None`
/// any single reply is acceptable (the truncation arm can land on a
/// still-valid prefix). Oversized-but-well-formed machines draw the
/// dedicated `machine-too-large` code, not `bad-request`.
fn arb_near_miss() -> impl Strategy<Value = (String, Option<&'static str>)> {
    (0usize..8, 0u64..u64::MAX, 1.001f64..1.0e6).prop_map(|(kind, a, f)| match kind {
        // units past the 16-bit signature lane for this machine
        0 => (
            format!("{VALID_SOLVE} units={}", 32_768 + a % 1_000_000),
            Some("bad-request"),
        ),
        // machine one level taller than the DP supports
        1 => (
            "solve graph=edges:2:0-1:1.0 machine=2x2x2x2x2:16,8,4,2,1,0 demand=0.5".to_string(),
            Some("machine-too-large"),
        ),
        // machine with an absurd leaf count
        2 => {
            let d = 300 + a % 100_000;
            (
                format!("solve graph=edges:2:0-1:1.0 machine={d}x{d} demand=0.5"),
                Some("machine-too-large"),
            )
        }
        // demand outside (0, 1]: too large or negative
        3 => {
            let d = if a % 2 == 0 { -f } else { f };
            (
                format!("solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 demand={d}"),
                Some("bad-request"),
            )
        }
        // non-finite demand (parses as f64, must still be rejected)
        4 => {
            let d = if a % 2 == 0 { "NaN" } else { "inf" };
            (
                format!("solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 demand={d}"),
                Some("bad-request"),
            )
        }
        // edge weight violating the strictly-positive rule
        5 => {
            let w = ["0.0", "-1.5", "NaN", "inf"][a as usize % 4];
            (
                format!("solve graph=edges:2:0-1:{w} machine=2x2:4,1,0 demand=0.5"),
                Some("bad-request"),
            )
        }
        // unknown field
        6 => (format!("{VALID_SOLVE} zzz{a}=1"), Some("bad-request")),
        // truncation at an arbitrary byte: must get exactly one reply,
        // but a lucky cut can leave a valid request
        _ => {
            let cut = 1 + (a as usize) % (VALID_SOLVE.len() - 1);
            (VALID_SOLVE[..cut].trim().to_string(), None)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Raw garbage: every line draws exactly one reply, the connection
    /// survives, and the pool stays fully alive.
    #[test]
    fn raw_garbage_gets_one_reply(line in arb_garbage_line()) {
        let mut c = Client::connect();
        let reply = c.req(&line);
        prop_assert!(
            reply.starts_with("ok ") || reply.starts_with("err "),
            "unexpected reply to {line:?}: {reply:?}"
        );
        // the same connection must still be usable afterwards
        c.assert_pool_healthy();
    }

    /// Structured near-misses: out-of-range fields are rejected with the
    /// right machine-readable `err` code without costing a worker.
    #[test]
    fn near_miss_requests_are_rejected(case in arb_near_miss()) {
        let (line, expected_code) = case;
        let mut c = Client::connect();
        let reply = c.req(&line);
        if let Some(code) = expected_code {
            prop_assert!(
                reply.starts_with(&format!("err {code}")),
                "expected err {code} for {line:?}, got {reply:?}"
            );
        } else {
            prop_assert!(
                reply.starts_with("ok ") || reply.starts_with("err "),
                "unexpected reply to {line:?}: {reply:?}"
            );
        }
        c.assert_pool_healthy();
    }
}

/// Degenerate-but-legal inputs must ride the wire as cleanly as hostile
/// ones: `trees=0` is clamped to a single tree by the parser, and a
/// single-node graph (a 1x1 mesh) yields a well-formed singleton
/// placement instead of panicking the distribution stage.
#[test]
fn degenerate_solves_survive_the_wire() {
    let mut c = Client::connect();

    // trees=0 clamps to 1: still a real solve, not an error
    let reply = c.req(
        "solve graph=edges:4:0-1:3.0,1-2:1.0,2-3:3.0 machine=2x2:4,1,0 \
         demand=0.4 trees=0 seed=1",
    );
    assert!(reply.starts_with("ok cost="), "{reply}");
    assert_eq!(reply_field(&reply, "degraded"), Some("0"), "{reply}");

    // single-node graph: the decomposition is a singleton tree and the
    // placement is trivially optimal (zero communication cost)
    for line in [
        "solve graph=gen:mesh:1x1:7 machine=2x2:4,1,0 demand=0.5 trees=2 seed=1",
        // both degeneracies at once
        "solve graph=gen:mesh:1x1:7 machine=2x2:4,1,0 demand=0.5 trees=0 seed=1",
    ] {
        let reply = c.req(line);
        assert!(reply.starts_with("ok cost="), "for {line:?}: {reply}");
        // an edgeless graph sums no cut weights, so the cost may print as
        // the empty-sum identity `-0` — compare numerically
        let cost: f64 = reply_field(&reply, "cost").unwrap().parse().unwrap();
        assert_eq!(cost, 0.0, "{reply}");
        assert_eq!(reply_field(&reply, "degraded"), Some("0"), "{reply}");
    }

    // none of the above may cost a worker its life
    c.assert_pool_healthy();
}

/// The elastic mutation verbs under hostile input: malformed `mutate`
/// tokens and out-of-domain `resolve` knobs each draw exactly one
/// machine-readable error, a failed batch leaves the session untouched
/// (all-or-nothing on the wire too), and a session that has been ended
/// answers `err not-found` to both verbs instead of resurrecting.
#[test]
fn elastic_mutate_resolve_poison_then_serve() {
    let mut c = Client::connect();

    let reply = c.req("place-incremental new machine=2x4:4,1,0");
    assert!(reply.starts_with("ok session="), "{reply}");
    let sid = reply_field(&reply, "session").unwrap().to_string();

    // seed the session through the typed batch verb
    let reply = c.req(&format!(
        "place-incremental mutate session={sid} add=0.3 add=0.2:0:1.5"
    ));
    assert!(reply.starts_with("ok applied=2"), "{reply}");

    let bad_request: Vec<String> = vec![
        // structurally broken requests
        "place-incremental mutate".into(),
        format!("place-incremental mutate session={sid}"),
        format!("place-incremental mutate session={sid} zzz=1"),
        "place-incremental mutate session=zz add=0.5".into(),
        // demand domain violations, malformed numbers
        format!("place-incremental mutate session={sid} add=NaN"),
        format!("place-incremental mutate session={sid} add=0"),
        format!("place-incremental mutate session={sid} add=2.0"),
        format!("place-incremental mutate session={sid} add=0.5:0:-1.0"),
        format!("place-incremental mutate session={sid} demand=0:5.0"),
        format!("place-incremental mutate session={sid} demand=zz"),
        format!("place-incremental mutate session={sid} drain=zz"),
        // hierarchy mutations out of domain
        format!("place-incremental mutate session={sid} mult=0:-1.0"),
        format!("place-incremental mutate session={sid} mult=0:NaN"),
        format!("place-incremental mutate session={sid} grow=0"),
        // resolve knobs: u64 overflow, sub-1 / non-finite ratio, bad flag
        format!("place-incremental resolve session={sid} budget=99999999999999999999"),
        format!("place-incremental resolve session={sid} ratio=0.5"),
        format!("place-incremental resolve session={sid} ratio=NaN"),
        format!("place-incremental resolve session={sid} cold=maybe"),
        format!("place-incremental resolve session={sid} zzz=1"),
    ];
    for line in &bad_request {
        let reply = c.req(line);
        assert!(
            reply.starts_with("err bad-request"),
            "expected err bad-request for {line:?}, got {reply:?}"
        );
    }

    // entity errors draw not-found, and a failed batch applies nothing:
    // the valid add in front of the unknown remove must not survive
    let before = c.req(&format!("place-incremental info session={sid}"));
    let active = reply_field(&before, "active").unwrap().to_string();
    let reply = c.req(&format!(
        "place-incremental mutate session={sid} add=0.3 remove=999"
    ));
    assert!(reply.starts_with("err not-found"), "{reply}");
    let after = c.req(&format!("place-incremental info session={sid}"));
    assert_eq!(
        reply_field(&after, "active").map(str::to_string),
        Some(active),
        "a rejected batch must leave the session untouched: {before:?} vs {after:?}"
    );

    // the poisoned session still serves: a real batch and a real re-solve
    let reply = c.req(&format!(
        "place-incremental mutate session={sid} demand=0:0.4 add=0.1:1:2.0"
    ));
    assert!(reply.starts_with("ok applied=2"), "{reply}");
    let reply = c.req(&format!("place-incremental resolve session={sid} budget=4"));
    assert!(reply.starts_with("ok cost="), "{reply}");
    for key in ["moves", "churn", "warm", "max-load", "active"] {
        assert!(
            reply_field(&reply, key).is_some(),
            "resolve reply missing {key}: {reply:?}"
        );
    }

    // mutate-after-expiry: an ended session is gone for both verbs
    let reply = c.req(&format!("place-incremental end session={sid}"));
    assert!(reply.starts_with("ok "), "{reply}");
    for line in [
        format!("place-incremental mutate session={sid} add=0.5"),
        format!("place-incremental resolve session={sid}"),
    ] {
        let reply = c.req(&line);
        assert!(
            reply.starts_with("err not-found"),
            "expected err not-found for {line:?}, got {reply:?}"
        );
    }

    c.assert_pool_healthy();
}

/// A session's machine may grow to exactly the leaf cap `new machine=`
/// admits (65 536) and not one group further; the rejected growth leaves
/// the session as it was.
#[test]
fn session_growth_stops_at_the_descriptor_leaf_cap() {
    let mut c = Client::connect();
    let reply = c.req("place-incremental new machine=2x4:4,1,0");
    let sid = reply_field(&reply, "session").unwrap().to_string();

    // 2 + 16382 level-1 groups of 4 leaves each = 65 536 leaves
    let reply = c.req(&format!(
        "place-incremental mutate session={sid} grow=16382"
    ));
    assert!(reply.starts_with("ok applied=1"), "{reply}");
    assert_eq!(reply_field(&reply, "leaves"), Some("65536"), "{reply}");

    let before = c.req(&format!("place-incremental info session={sid}"));
    let reply = c.req(&format!("place-incremental mutate session={sid} grow=1"));
    assert!(reply.starts_with("err machine-too-large"), "{reply}");
    let after = c.req(&format!("place-incremental info session={sid}"));
    assert_eq!(before, after, "rejected growth changed the session");

    let reply = c.req(&format!("place-incremental mutate session={sid} add=0.5"));
    assert_eq!(reply_field(&reply, "leaves"), Some("65536"), "{reply}");
    let reply = c.req(&format!("place-incremental end session={sid}"));
    assert!(reply.starts_with("ok "), "{reply}");
}

/// The acceptance batch: a fixed poison list (each line exactly one
/// `err …` reply), then a valid solve answers `ok … degraded=0`, then
/// `stats2` shows the full pool alive with zero deaths.
#[test]
fn poison_then_serve() {
    let mut c = Client::connect();

    let poison: &[&str] = &[
        // satellite (a): units overflowing the u16 signature lane
        "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 demand=0.5 units=70000",
        // satellite (b): height-5 machine and a 10^6-leaf shape
        "solve graph=edges:2:0-1:1.0 machine=2x2x2x2x2:16,8,4,2,1,0 demand=0.5",
        "solve graph=edges:2:0-1:1.0 machine=1000x1000 demand=0.5",
        // demand-domain violations
        "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 demand=0.0",
        "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 demand=-1.0",
        "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 demands=0.5,NaN",
        // satellite (c): non-positive / non-finite edge weights
        "solve graph=edges:2:0-1:0.0 machine=2x2:4,1,0 demand=0.5",
        "solve graph=edges:2:0-1:NaN machine=2x2:4,1,0 demand=0.5",
        // truncated lines
        "solve graph=edges:2:0-1",
        "solve graph=",
        "solve",
        "place-incremental",
        "sol",
    ];
    for line in poison {
        let reply = c.req(line);
        assert!(
            reply.starts_with("err "),
            "expected an error for {line:?}, got {reply:?}"
        );
    }

    // the same connection, the same pool: a real solve still works
    let reply = c.req(VALID_SOLVE);
    assert!(reply.starts_with("ok cost="), "{reply}");
    assert_eq!(reply_field(&reply, "degraded"), Some("0"), "{reply}");

    // pure-validation rejects cost zero workers
    c.assert_pool_healthy();
}
