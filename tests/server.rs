//! Loopback integration test for `hgp-server`: many concurrent clients
//! mixing `solve` and `place-incremental` traffic over real TCP, then a
//! reconciliation pass over the `stats2` counters.

use hgp::server::protocol::{MAX_LINE_BYTES, MAX_UNSENT_BYTES};
use hgp::server::{Server, ServerConfig};
use hgp::workloads::requests::{
    reply_field, request_script, substitute_session, RequestScriptOpts,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One blocking request/reply client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn req(&mut self, line: &str) -> String {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "server closed mid-conversation");
        reply.trim().to_string()
    }
}

fn field_u64(reply: &str, key: &str) -> u64 {
    reply_field(reply, key)
        .unwrap_or_else(|| panic!("no {key} in {reply:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {reply:?}"))
}

#[test]
fn concurrent_clients_mixed_load() {
    let server = Server::start(
        ServerConfig::builder()
            .workers(4)
            .queue_capacity(64)
            .cache_capacity(16)
            .build(),
    )
    .expect("start server");
    let addr = server.addr();

    const CLIENTS: usize = 8;
    const SOLVES_PER_CLIENT: usize = 3;
    // Two shared topologies: every client re-requests them, so the
    // decomposition cache must hit once the first solve has populated it.
    let solve_line = |topo: usize| {
        format!(
            "solve graph=gen:clustered:2x4:{} machine=2x2:4,1,0 demand=0.3 trees=4 seed=42",
            1000 + topo % 2
        )
    };

    let requests_sent = Arc::new(AtomicU64::new(0));
    let solves_sent = Arc::new(AtomicU64::new(0));
    let incr_ok = Arc::new(AtomicU64::new(0));
    // request line → every cost observed for it (for determinism checks)
    let costs: Arc<Mutex<HashMap<String, Vec<String>>>> = Arc::new(Mutex::new(HashMap::new()));

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let requests_sent = Arc::clone(&requests_sent);
            let solves_sent = Arc::clone(&solves_sent);
            let incr_ok = Arc::clone(&incr_ok);
            let costs = Arc::clone(&costs);
            let solve_line = &solve_line;
            scope.spawn(move || {
                let mut client = Client::connect(addr);
                let mut send = |line: &str| -> String {
                    requests_sent.fetch_add(1, Ordering::Relaxed);
                    client.req(line)
                };

                // interleaved: open a session, alternate solves and churn
                let reply = send("place-incremental new machine=2x4:4,1,0");
                assert!(reply.starts_with("ok session="), "{reply}");
                incr_ok.fetch_add(1, Ordering::Relaxed);
                let sid: u64 = field_u64(&reply, "session");

                let mut live: Vec<u64> = Vec::new();
                for i in 0..SOLVES_PER_CLIENT {
                    let line = solve_line(c + i);
                    solves_sent.fetch_add(1, Ordering::Relaxed);
                    let reply = send(&line);
                    assert!(reply.starts_with("ok cost="), "{reply}");
                    assert_eq!(reply_field(&reply, "degraded"), Some("0"), "{reply}");
                    costs
                        .lock()
                        .unwrap()
                        .entry(line)
                        .or_default()
                        .push(reply_field(&reply, "cost").unwrap().to_string());

                    let reply = send(&format!(
                        "place-incremental mutate session={sid} add=0.2{}",
                        live.last().map(|t| format!(":{t}:2.0")).unwrap_or_default()
                    ));
                    assert!(reply.starts_with("ok applied=1"), "{reply}");
                    incr_ok.fetch_add(1, Ordering::Relaxed);
                    live.push(field_u64(&reply, "added"));
                }

                // churn: resize one task, drop one, re-solve, close
                let reply = send(&format!(
                    "place-incremental mutate session={sid} demand={}:0.35",
                    live[0]
                ));
                assert!(reply.starts_with("ok applied=1"), "{reply}");
                incr_ok.fetch_add(1, Ordering::Relaxed);
                let reply = send(&format!(
                    "place-incremental mutate session={sid} remove={}",
                    live[1]
                ));
                assert!(reply.starts_with("ok applied=1"), "{reply}");
                incr_ok.fetch_add(1, Ordering::Relaxed);
                let reply = send(&format!("place-incremental resolve session={sid} budget=8"));
                assert!(reply.starts_with("ok cost="), "{reply}");
                incr_ok.fetch_add(1, Ordering::Relaxed);
                let reply = send(&format!("place-incremental end session={sid}"));
                assert!(reply.starts_with("ok session="), "{reply}");
                incr_ok.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    // identical request lines must have produced identical costs,
    // cache hit or miss
    let costs = costs.lock().unwrap();
    assert_eq!(costs.len(), 2, "expected exactly the two shared topologies");
    for (line, observed) in costs.iter() {
        assert!(observed.len() >= CLIENTS, "{line} undersolved");
        assert!(
            observed.iter().all(|c| c == &observed[0]),
            "non-deterministic costs for {line}: {observed:?}"
        );
    }

    // follow-up on a fresh connection: degradation + error paths + stats2
    let mut control = Client::connect(addr);
    let bump = |n: u64| requests_sent.fetch_add(n, Ordering::Relaxed);

    bump(1);
    let degraded = control.req(
        "solve graph=gen:clustered:2x4:1000 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42 deadline-ms=0",
    );
    assert!(degraded.starts_with("ok cost="), "{degraded}");
    assert_eq!(reply_field(&degraded, "degraded"), Some("1"), "{degraded}");
    assert_eq!(
        reply_field(&degraded, "mode"),
        Some("baseline"),
        "{degraded}"
    );

    bump(1);
    let bad = control.req("solve graph=edges:2:0-1:nope machine=4");
    assert!(bad.starts_with("err bad-request"), "{bad}");

    bump(1);
    let missing = control.req("place-incremental info session=999999");
    assert!(missing.starts_with("err not-found"), "{missing}");

    // per-request tracing: the same (cached) topology with trace=1 must
    // append the structured trace.* tokens without changing the answer
    bump(1);
    let traced = control.req(
        "solve graph=gen:clustered:2x4:1000 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42 trace=1",
    );
    assert!(traced.starts_with("ok cost="), "{traced}");
    for token in [
        "trace.queue-wait-us=",
        "trace.distribution-us=",
        "trace.sweep-us=",
        "trace.dp-cpu-us=",
        "trace.repair-cpu-us=",
        "trace.cache-hit=1",
        "trace.trees-total=4",
        "trace.trees-solved=",
        "trace.dp-entries=",
        "trace.dp-pruned=",
    ] {
        assert!(traced.contains(token), "missing {token}: {traced}");
    }
    let untraced_costs = costs
        .get("solve graph=gen:clustered:2x4:1000 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42")
        .expect("shared topology was solved");
    assert_eq!(
        reply_field(&traced, "cost"),
        Some(untraced_costs[0].as_str()),
        "tracing changed the cost: {traced}"
    );

    bump(1); // the stats2 request itself is counted by the server
    let stats2 = control.req("stats2");
    assert!(stats2.starts_with("ok version=2 req.lines="), "{stats2}");
    let sent = requests_sent.load(Ordering::Relaxed);
    let solves = solves_sent.load(Ordering::Relaxed) + 1; // + the traced solve
    assert_eq!(field_u64(&stats2, "req.lines"), sent, "{stats2}");
    assert_eq!(
        field_u64(&stats2, "solve.ok")
            + field_u64(&stats2, "solve.degraded")
            + field_u64(&stats2, "solve.err")
            + field_u64(&stats2, "solve.overloaded"),
        solves + 1, // + the deadline-0 request above
        "{stats2}"
    );
    assert_eq!(field_u64(&stats2, "solve.ok"), solves, "{stats2}");
    assert_eq!(field_u64(&stats2, "solve.degraded"), 1, "{stats2}");
    assert_eq!(
        field_u64(&stats2, "incr.ops"),
        incr_ok.load(Ordering::Relaxed),
        "{stats2}"
    );
    assert_eq!(field_u64(&stats2, "req.bad"), 1, "{stats2}");
    assert_eq!(field_u64(&stats2, "sessions.open"), 0, "{stats2}");
    assert_eq!(field_u64(&stats2, "pool.workers-alive"), 4, "{stats2}");
    assert_eq!(field_u64(&stats2, "pool.worker-deaths"), 0, "{stats2}");
    assert!(
        field_u64(&stats2, "cache.hits") > 0,
        "no cache hits: {stats2}"
    );
    assert!(field_u64(&stats2, "cache.misses") >= 2, "{stats2}");
    assert!(field_u64(&stats2, "solve.latency-us-p50") > 0, "{stats2}");
    assert!(
        field_u64(&stats2, "solve.latency-us-max") >= field_u64(&stats2, "solve.latency-us-p50"),
        "{stats2}"
    );
    assert!(
        field_u64(&stats2, "solve.latency-us-count") >= solves,
        "{stats2}"
    );
    assert!(
        field_u64(&stats2, "queue.wait-us-count") >= solves,
        "{stats2}"
    );

    // graceful shutdown over the wire
    let reply = control.req("shutdown");
    assert_eq!(reply, "ok draining=1");
    drop(server);
}

/// A cold build heavy enough (release or debug) that concurrent clients
/// racing it overlap server-side and coalesce onto one flight.
const HEAVY_COLD_SOLVE: &str =
    "solve graph=gen:mesh:16x16:77 machine=2x2:4,1,0 demand=0.010 trees=4 seed=100";

#[test]
fn racing_cold_clients_coalesce_on_the_wire() {
    const CLIENTS: usize = 8;
    let server = Server::start(
        ServerConfig::builder()
            .workers(CLIENTS)
            .queue_capacity(CLIENTS * 2)
            .build(),
    )
    .expect("start server");
    let addr = server.addr();

    // every client fires the identical cold fingerprint at once
    let replies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(move || Client::connect(addr).req(HEAVY_COLD_SOLVE)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // bit-identical replies: one cost, full mode, no degradation
    for r in &replies {
        assert!(r.starts_with("ok cost="), "{r}");
        assert_eq!(reply_field(r, "mode"), Some("full"), "{r}");
        assert_eq!(reply_field(r, "cost"), reply_field(&replies[0], "cost"));
    }
    // exactly one expensive build ran server-side; someone shared it
    let mut control = Client::connect(addr);
    let stats2 = control.req("stats2");
    assert_eq!(field_u64(&stats2, "cache.builds"), 1, "{stats2}");
    assert!(field_u64(&stats2, "cache.coalesced") >= 1, "{stats2}");
    let miss = replies
        .iter()
        .filter(|r| reply_field(r, "cache") == Some("miss"))
        .count();
    let shared = replies
        .iter()
        .filter(|r| reply_field(r, "cache") == Some("shared"))
        .count();
    assert_eq!(miss, 1, "exactly one leader: {replies:?}");
    assert!(shared >= 1, "no follower reply observed: {replies:?}");
    server.shutdown();
}

#[test]
fn stats_are_answered_inline_while_the_pool_is_saturated() {
    // one worker, so the heavy solve below occupies the whole pool
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let addr = server.addr();

    let mut solver = Client::connect(addr);
    solver
        .writer
        .write_all(HEAVY_COLD_SOLVE.as_bytes())
        .unwrap();
    solver.writer.write_all(b"\n").unwrap();
    solver.writer.flush().unwrap();

    // the event loop must answer stats from another connection without
    // queueing behind the in-flight solve: the snapshot it returns still
    // sees zero completed solves
    let mut control = Client::connect(addr);
    let stats2 = control.req("stats2");
    assert!(stats2.starts_with("ok version=2"), "{stats2}");
    assert_eq!(
        field_u64(&stats2, "solve.ok"),
        0,
        "stats2 was queued behind the solve: {stats2}"
    );

    // the solve itself still completes normally afterwards
    let mut reply = String::new();
    solver.reader.read_line(&mut reply).unwrap();
    assert!(reply.starts_with("ok cost="), "{reply}");
    server.shutdown();
}

#[test]
fn pipelined_requests_reply_strictly_in_order() {
    // one worker, so the two identical solves drain in queue order and
    // the second is deterministically a cache hit rather than racing
    // the first into a coalesced cache=shared reply
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let mut client = Client::connect(server.addr());

    // one write carrying solve / inline / error / solve traffic: replies
    // must come back one per line, in request order, even though the
    // inline ones are computed long before the solves finish
    let lines = [
        "solve graph=gen:clustered:2x4:500 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42",
        "stats2",
        "definitely-not-a-request",
        "solve graph=gen:clustered:2x4:500 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42",
        "place-incremental info session=999",
    ];
    let mut batch = lines.join("\n");
    batch.push('\n');
    client.writer.write_all(batch.as_bytes()).unwrap();
    client.writer.flush().unwrap();

    let mut replies = Vec::new();
    for _ in 0..lines.len() {
        let mut reply = String::new();
        client.reader.read_line(&mut reply).unwrap();
        replies.push(reply.trim().to_string());
    }
    assert!(replies[0].starts_with("ok cost="), "{:?}", replies[0]);
    assert!(replies[1].starts_with("ok version=2"), "{:?}", replies[1]);
    assert!(
        replies[2].starts_with("err bad-request"),
        "{:?}",
        replies[2]
    );
    assert!(replies[3].starts_with("ok cost="), "{:?}", replies[3]);
    assert!(replies[4].starts_with("err not-found"), "{:?}", replies[4]);
    // the second identical solve was served from cache, same cost
    assert_eq!(
        reply_field(&replies[0], "cost"),
        reply_field(&replies[3], "cost")
    );
    assert_eq!(reply_field(&replies[3], "cache"), Some("hit"));
    server.shutdown();
}

/// A line that reaches the server over many small writes is framed once:
/// its fragments draw no replies of their own, the next line framed after
/// it is intact, and the solve costs what the line sent in one write does.
#[test]
fn a_line_split_over_many_writes_is_framed_once() {
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let mut client = Client::connect(server.addr());
    client.writer.set_nodelay(true).unwrap();
    let line = "solve graph=gen:clustered:2x4:700 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42";
    // three-byte writes with gaps, so the server reads each on its own;
    // one write carries the solve's newline and the start of `stats2`
    for piece in format!("{line}\nstats2\n").as_bytes().chunks(3) {
        client.writer.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut next_reply = || {
        let mut reply = String::new();
        client.reader.read_line(&mut reply).unwrap();
        reply.trim().to_string()
    };
    let split = next_reply();
    let stats2 = next_reply();
    assert!(split.starts_with("ok cost="), "{split}");
    assert!(stats2.starts_with("ok version=2"), "{stats2}");
    assert_eq!(field_u64(&stats2, "req.lines"), 2, "{stats2}");
    assert_eq!(field_u64(&stats2, "req.bad"), 0, "{stats2}");
    // the same line in one write: served from the cache at the same cost
    let whole = client.req(line);
    assert_eq!(reply_field(&whole, "cache"), Some("hit"), "{whole}");
    assert_eq!(reply_field(&split, "cost"), reply_field(&whole, "cost"));
    server.shutdown();
}

/// A client that pipelines without reading stalls only itself: once its
/// unsent replies pass the high-water mark the event loop stops taking
/// its lines, a second connection is still answered at once, and when
/// the client does read it gets every reply, in order.
#[test]
fn a_client_that_never_reads_stalls_only_itself() {
    const LINES: u64 = 100_000;
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let mut greedy = Client::connect(server.addr());
    // the requests go from their own thread: once the server stops
    // reading them, the socket buffers fill and the write blocks
    let mut writer = greedy.writer.try_clone().unwrap();
    let pipeline = std::thread::spawn(move || {
        writer
            .write_all("stats2\n".repeat(LINES as usize).as_bytes())
            .unwrap()
    });

    // poll from a second connection until the server has taken some of
    // the greedy client's lines and stopped; `req.lines` counts the
    // monitor's own too
    let mut monitor = Client::connect(server.addr());
    let (mut asked, mut taken) = (0u64, 0u64);
    let reply_len = loop {
        std::thread::sleep(Duration::from_millis(50));
        let t0 = Instant::now();
        let stats2 = monitor.req("stats2");
        let waited = t0.elapsed();
        assert!(waited < Duration::from_secs(1), "stats2 waited {waited:?}");
        asked += 1;
        let now = field_u64(&stats2, "req.lines") - asked;
        if now == taken && now > 0 {
            break stats2.len();
        }
        taken = now;
    };
    // the greedy client's replies, at most the marked backlog plus what
    // the kernel's socket buffers hold, are a fraction of the pipeline
    let absorbed = (taken as usize).saturating_mul(reply_len);
    assert!(
        taken < LINES / 2,
        "the server took {taken} of {LINES} lines ({absorbed} reply bytes, mark {MAX_UNSENT_BYTES}) from a client that reads nothing"
    );

    // reading drains the backlog: every reply arrives, strictly in order
    let mut last = 0;
    for i in 0..LINES {
        let mut reply = String::new();
        greedy.reader.read_line(&mut reply).unwrap();
        assert!(reply.starts_with("ok version=2"), "reply {i}: {reply:?}");
        let seen = field_u64(&reply, "req.lines");
        assert!(seen > last, "reply {i} out of order: {seen} after {last}");
        last = seen;
    }
    pipeline.join().unwrap();
    let stats2 = monitor.req("stats2");
    assert_eq!(
        field_u64(&stats2, "req.lines"),
        LINES + asked + 1,
        "{stats2}"
    );
    server.shutdown();
}

/// A client that pipelines a burst and reads as it goes is answered
/// straight through: crossing the unsent-reply mark pauses its lines only
/// until the replies drain, never until the event loop's poll timeout
/// (100 ms) lets it look at them again.
#[test]
fn a_pipelined_burst_read_as_it_goes_never_waits_for_the_poll_timeout() {
    // 16 100 bytes: one 16 KiB read, so no later bytes arrive to wake the
    // loop; about 1.2 MB of replies
    const LINES: usize = 2_300;
    const BURSTS: usize = 5;
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let mut client = Client::connect(server.addr());
    let burst = "stats2\n".repeat(LINES);
    // scheduling noise can stretch one gap; the stall would hit every burst
    let mut best = Duration::MAX;
    for _ in 0..BURSTS {
        client.writer.write_all(burst.as_bytes()).unwrap();
        let (mut slowest, mut bytes) = (Duration::ZERO, 0);
        let mut last = Instant::now();
        for i in 0..LINES {
            let mut reply = String::new();
            client.reader.read_line(&mut reply).unwrap();
            assert!(reply.starts_with("ok version=2"), "reply {i}: {reply:?}");
            slowest = slowest.max(last.elapsed());
            last = Instant::now();
            bytes += reply.len();
        }
        assert!(
            bytes > MAX_UNSENT_BYTES,
            "a burst must cross the mark: {bytes} reply bytes"
        );
        best = best.min(slowest);
    }
    assert!(
        best < Duration::from_millis(50),
        "every burst had a reply wait {best:?} or more"
    );
    server.shutdown();
}

/// A request line still unterminated past `MAX_LINE_BYTES` draws
/// `err bad-request` after the replies to the lines before it, and the
/// server then closes the connection.
#[test]
fn an_over_long_line_is_refused_and_closes_the_connection() {
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let mut client = Client::connect(server.addr());
    client.writer.write_all(b"stats2\n").unwrap();
    let chunk = vec![b'x'; 1 << 20];
    let mut left = MAX_LINE_BYTES + 1;
    while left > 0 {
        let n = left.min(chunk.len());
        client.writer.write_all(&chunk[..n]).unwrap();
        left -= n;
    }
    let mut next_reply = || {
        let mut reply = String::new();
        client.reader.read_line(&mut reply).unwrap();
        reply
    };
    let stats2 = next_reply();
    assert!(stats2.starts_with("ok version=2"), "{stats2:?}");
    let refused = next_reply();
    assert!(refused.starts_with("err bad-request"), "{refused:?}");
    assert_eq!(
        next_reply(),
        "",
        "the connection should close after the error"
    );
    // the server itself serves on, and counted the line as bad
    let stats2 = Client::connect(server.addr()).req("stats2");
    assert_eq!(field_u64(&stats2, "req.bad"), 1, "{stats2}");
    server.shutdown();
}

/// A degraded solve at the 65 536-node inline cap answers in seconds: the
/// baseline fallback's refiner runs its quadratic pair-swap scan only up
/// to 4 096 tasks. The bound sits far above the second or so this takes
/// and far below the minutes a swap scan takes at this size.
#[test]
fn a_deadline_blown_solve_at_the_node_cap_degrades_within_seconds() {
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let mut client = Client::connect(server.addr());
    let start = Instant::now();
    let reply = client.req("solve graph=gen:mesh:256x256:1 machine=2x2:4,1,0 deadline-ms=0");
    let took = start.elapsed();
    assert!(reply.starts_with("ok cost="), "{reply}");
    assert_eq!(reply_field(&reply, "degraded"), Some("1"), "{reply}");
    assert_eq!(reply_field(&reply, "mode"), Some("baseline"), "{reply}");
    assert!(
        took < Duration::from_secs(30),
        "the baseline fallback took {took:?}"
    );
    server.shutdown();
}

/// A line that repeats `machine=` builds one hierarchy, the last one's,
/// on the event loop: 100 000 repeats of a 65 536-leaf machine parse in
/// milliseconds. Building each repeat's per-leaf LCA codes would hold the
/// loop for seconds.
#[test]
fn a_line_repeating_machine_builds_only_the_last_one() {
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let mut client = Client::connect(server.addr());
    let repeats = " machine=65536".repeat(100_000);
    let solve = "solve graph=gen:mesh:4x4:1 demand=0.2 trees=2";
    let last_only = client.req(&format!("{solve} machine=2x2:4,1,0"));
    for (line, want) in [
        (
            format!("{solve}{repeats} machine=2x2:4,1,0"),
            last_only.as_str(),
        ),
        (
            format!("place-incremental new{repeats} machine=2x2:4,1,0"),
            "ok session=1 leaves=4",
        ),
    ] {
        let start = Instant::now();
        let reply = client.req(&line);
        let took = start.elapsed();
        let strip = |r: &str| {
            r.split(' ')
                .filter(|t| !t.starts_with("elapsed-us=") && !t.starts_with("cache="))
                .collect::<Vec<_>>()
                .join(" ")
        };
        assert_eq!(strip(&reply), strip(want));
        assert!(
            took < Duration::from_secs(1),
            "{} bytes took {took:?}",
            line.len()
        );
    }
    server.shutdown();
}

/// A session `mutate` line that grows the machine one group at a time up
/// to the leaf cap, or resets a multiplier 100 000 times, answers in
/// milliseconds on the event loop: growth extends the hierarchy's LCA
/// codes in place and a multiplier keeps them, where rebuilding them per
/// token would take seconds.
#[test]
fn a_mutate_line_of_many_grow_or_mult_tokens_stays_cheap() {
    let server = Server::start(ServerConfig::builder().workers(1).build()).expect("start server");
    let mut client = Client::connect(server.addr());
    for (machine, tokens, want) in [
        (
            "1",
            " grow=1".repeat(65_535),
            "ok applied=65535 added=- moves=0 cost=0 max-load=0 leaves=65536",
        ),
        (
            "65536:1,0",
            " mult=0:1".repeat(100_000),
            "ok applied=100000 added=- moves=0 cost=0 max-load=0 leaves=65536",
        ),
    ] {
        let opened = client.req(&format!("place-incremental new machine={machine}"));
        let session = reply_field(&opened, "session").expect("session id");
        let start = Instant::now();
        let reply = client.req(&format!(
            "place-incremental mutate session={session}{tokens}"
        ));
        let took = start.elapsed();
        assert_eq!(reply, want);
        assert!(took < Duration::from_secs(1), "{machine}: took {took:?}");
    }
    server.shutdown();
}

/// One closed-loop conversation pinned reply by reply: solves (cold,
/// cached, degraded), a session's whole life, and the errors, including
/// the removed surface (v1 `stats` and the single-mutation verbs).
/// Replies are deterministic given the request sequence, modulo the
/// wall-clock `elapsed-us=` token, which is stripped.
#[test]
fn wire_replies_match_the_golden_transcript() {
    let transcript = [
        (
            "solve graph=gen:clustered:2x4:900 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42",
            "ok cost=0.3 degraded=0 mode=full tree=0 trees-solved=4 cache=miss worst-factor=1.2",
        ),
        (
            "solve graph=gen:clustered:2x4:900 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42",
            "ok cost=0.3 degraded=0 mode=full tree=0 trees-solved=4 cache=hit worst-factor=1.2",
        ),
        (
            "solve graph=gen:clustered:2x4:900 machine=2x2:4,1,0 demand=0.31 trees=4 seed=42",
            "ok cost=0.3 degraded=0 mode=full tree=0 trees-solved=4 cache=miss worst-factor=1.24",
        ),
        (
            "place-incremental new machine=2x2:4,1,0",
            "ok session=1 leaves=4",
        ),
        (
            "place-incremental mutate session=1 add=0.25",
            "ok applied=1 added=0 moves=1 cost=0 max-load=0.25 leaves=4",
        ),
        (
            "place-incremental mutate session=1 demand=0:0.4",
            "ok applied=1 added=- moves=0 cost=0 max-load=0.4 leaves=4",
        ),
        (
            "place-incremental resolve session=1 budget=4",
            "ok cost=0 moves=0 churn=1 warm=0 max-load=0.4 active=1",
        ),
        (
            "place-incremental mutate session=1 add=0.2:0:1.5 demand=0:0.3",
            "ok applied=2 added=1 moves=1 cost=0 max-load=0.5 leaves=4",
        ),
        (
            "place-incremental resolve session=1 budget=2",
            "ok cost=0 moves=0 churn=2 warm=0 max-load=0.5 active=2",
        ),
        (
            "place-incremental mutate session=1 drain=0",
            "ok applied=1 added=- moves=2 cost=0 max-load=0.5 leaves=4",
        ),
        (
            "place-incremental resolve session=1 cold=1 ratio=1.5",
            "ok cost=0 moves=0 churn=4 warm=0 max-load=0.5 active=2",
        ),
        (
            "place-incremental mutate session=1 remove=99",
            "err not-found mutation 0: task 99 is not live",
        ),
        (
            "place-incremental end session=1",
            "ok session=1 active=2 churn=4",
        ),
        (
            "solve graph=gen:clustered:2x4:901 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42 deadline-ms=0",
            "ok cost=14.4 degraded=1 mode=baseline trees-solved=0 cache=skip worst-factor=1",
        ),
        (
            "solve graph=bad",
            "err bad-request unknown graph spec kind \"bad\" (want edges:… or gen:…)",
        ),
        (
            "nonsense",
            "err bad-request unknown command \"nonsense\" (want solve | place-incremental | stats2 | shutdown)",
        ),
        (
            "stats",
            "err bad-request unknown command \"stats\" (want solve | place-incremental | stats2 | shutdown)",
        ),
        (
            "place-incremental add session=1 demand=0.25",
            "err bad-request unknown place-incremental op \"add\"",
        ),
        (
            "place-incremental remove session=1 task=0",
            "err bad-request unknown place-incremental op \"remove\"",
        ),
        (
            "place-incremental resize session=1 task=0 demand=0.4",
            "err bad-request unknown place-incremental op \"resize\"",
        ),
        (
            "place-incremental rebalance session=1 max-moves=4",
            "err bad-request unknown place-incremental op \"rebalance\"",
        ),
    ];
    let server = Server::start(ServerConfig::builder().workers(2).build()).expect("start server");
    let mut client = Client::connect(server.addr());
    for (i, (line, want)) in transcript.iter().enumerate() {
        let reply = client.req(line);
        let reply: Vec<&str> = reply
            .split_whitespace()
            .filter(|kv| !kv.starts_with("elapsed-us="))
            .collect();
        assert_eq!(reply.join(" "), *want, "line {}: {line}", i + 1);
    }
    server.shutdown();
}

#[test]
fn event_loop_holds_hundreds_of_connections() {
    const CONNS: usize = 300;
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.addr();

    let mut clients: Vec<Client> = (0..CONNS).map(|_| Client::connect(addr)).collect();
    // with every connection held open, the gauge sees them all
    let stats2 = clients[0].req("stats2");
    assert!(field_u64(&stats2, "conns.open") >= CONNS as u64, "{stats2}");

    // every connection stays serviceable (same warm topology: one build)
    let line = "solve graph=gen:clustered:2x4:600 machine=2x2:4,1,0 demand=0.3 trees=4 seed=42";
    for client in clients.iter_mut() {
        let reply = client.req(line);
        assert!(reply.starts_with("ok cost="), "{reply}");
    }

    // and falls back as they close: the loop reaps each hung-up client
    let mut survivor = clients.swap_remove(0);
    drop(clients);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats2 = survivor.req("stats2");
        if field_u64(&stats2, "conns.open") == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "gauge never fell: {stats2}");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// The elastic verbs end to end: a typed `mutate` batch applies
/// atomically with ids in the reply, `resolve` reports warmth honestly
/// across the invalidation matrix (demand edits keep the cached
/// distribution, node-set edits drop it), and the `stats2` session
/// counters reconcile with the traffic.
#[test]
fn elastic_mutate_resolve_roundtrip_with_metrics() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut c = Client::connect(server.addr());

    let r = c.req("place-incremental new machine=2x4:4,1,0");
    let sid = field_u64(&r, "session");

    // one transaction: three adds, later ones wired to earlier ones
    let r = c.req(&format!(
        "place-incremental mutate session={sid} add=0.3 add=0.2:0:1.5 add=0.25:1:0.5"
    ));
    assert!(r.starts_with("ok applied=3"), "{r}");
    assert_eq!(reply_field(&r, "added"), Some("0,1,2"), "{r}");

    // first re-solve: nothing cached yet, so it must report a cold build
    let r = c.req(&format!("place-incremental resolve session={sid}"));
    assert!(r.starts_with("ok cost="), "{r}");
    assert_eq!(reply_field(&r, "warm"), Some("0"), "{r}");

    // demand-only churn keeps the distribution cached: warm=1, and the
    // move budget is honoured on the wire
    let r = c.req(&format!(
        "place-incremental mutate session={sid} demand=0:0.35"
    ));
    assert!(r.starts_with("ok applied=1"), "{r}");
    let r = c.req(&format!(
        "place-incremental resolve session={sid} budget=2 ratio=1.5"
    ));
    assert_eq!(reply_field(&r, "warm"), Some("1"), "{r}");
    assert!(field_u64(&r, "moves") <= 2, "{r}");

    // node-set churn changes the topology fingerprint: cold again
    let r = c.req(&format!(
        "place-incremental mutate session={sid} add=0.1:2:1.0"
    ));
    assert!(r.starts_with("ok applied=1"), "{r}");
    let r = c.req(&format!("place-incremental resolve session={sid}"));
    assert_eq!(reply_field(&r, "warm"), Some("0"), "{r}");

    // the stats2 session counters saw all of it
    let stats2 = c.req("stats2");
    assert_eq!(field_u64(&stats2, "session.mutations"), 5, "{stats2}");
    assert_eq!(field_u64(&stats2, "session.warm-solves"), 1, "{stats2}");
    assert!(field_u64(&stats2, "session.moves") >= 3, "{stats2}");

    server.shutdown();
}

#[test]
fn sessions_are_isolated_between_connections() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let mut a = Client::connect(server.addr());
    let mut b = Client::connect(server.addr());

    let ra = a.req("place-incremental new machine=2x2:4,1,0");
    let rb = b.req("place-incremental new machine=2x2:4,1,0");
    let sa = field_u64(&ra, "session");
    let sb = field_u64(&rb, "session");
    assert_ne!(sa, sb, "sessions must be distinct");

    // sessions are addressable from any connection (ids, not sockets, are
    // the scope) but operate on disjoint placers
    let r = a.req(&format!("place-incremental mutate session={sa} add=0.5"));
    assert_eq!(reply_field(&r, "added"), Some("0"), "{r}");
    let r = b.req(&format!("place-incremental info session={sb}"));
    assert_eq!(reply_field(&r, "active"), Some("0"), "{r}");

    server.shutdown();
}

/// `hgp client`'s request script, replayed against an in-process server
/// the way the CLI plays it: every line must be answered `ok`, and the
/// closing `stats2` must count exactly the lines sent. Any grammar change
/// that orphans the generator fails here.
#[test]
fn client_request_script_replays_cleanly() {
    for seed in [1u64, 2, 3] {
        let server = Server::start(ServerConfig::builder().workers(2).build()).expect("start");
        let mut c = Client::connect(server.addr());
        let script = request_script(seed, &RequestScriptOpts::default());
        let mut session = None;
        let mut last = String::new();
        for line in &script {
            let line = match session {
                Some(sid) => substitute_session(line, sid),
                None => line.clone(),
            };
            last = c.req(&line);
            assert!(last.starts_with("ok"), "seed {seed}: {line} -> {last}");
            if line.starts_with("place-incremental new") {
                session = Some(field_u64(&last, "session"));
            }
        }
        assert!(
            last.starts_with("ok version=2 "),
            "script must end with stats2: {last}"
        );
        assert_eq!(field_u64(&last, "req.lines"), script.len() as u64, "{last}");
        server.shutdown();
    }
}
