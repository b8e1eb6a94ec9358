//! Server load bench: replays an open-loop schedule against `hgp-server`
//! and emits the machine-readable `BENCH_server.json`.
//!
//! Two arms share one deterministic schedule (see
//! `hgp_workloads::openloop`): **event** runs the default readiness-loop
//! front end, **legacy** the thread-per-connection mode — same solver
//! pool, same cache sizing, same request bytes. The legacy arm keeps a
//! modest connection count (each connection is an OS thread); the event
//! arm opens `conn_multiplier` times as many, which is exactly the claim
//! the committed artifact certifies: the event front end sustains ≥ 4×
//! the concurrent-connection count at an equal (within tolerance) p99.
//!
//! The driving client is itself a poll-multiplexed non-blocking loop
//! (reusing the server's `netpoll` shim), so thousands of client
//! connections cost one thread. Requests are injected at their scheduled
//! arrival times regardless of completions — open loop — and every
//! reply is matched back to its request through per-connection FIFO
//! order (the protocol answers one line per line, in order).
//!
//! Reported per arm: service-time and open-loop latency percentiles
//! (p50/p99/p999), achieved throughput, client-observed reply mix
//! (`cache=hit/shared` counts), the server-side coalescing ratio
//! (`cache.coalesced / (coalesced + builds)` over the run) and worker
//! utilization (`Δpool.busy-us / (workers × wall)`), both read from
//! `stats2` — which the event loop answers inline even while every
//! worker is busy, so scraping under load cannot deadlock the bench.

use crate::json::Json;
use hgp_workloads::openloop::{open_loop_schedule, warm_lines, OpenLoopOpts};

/// Schema tag embedded in every emitted report.
pub const SCHEMA: &str = "hgp-bench-server/v1";

/// Tolerated event-vs-legacy p99 slack for the capacity claim: the
/// event arm "holds an equal p99" when `event_p99 ≤ legacy_p99 × 1.25`.
pub const P99_TOLERANCE: f64 = 1.25;

/// Which front-end arms to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arms {
    /// Event-driven front end only.
    Event,
    /// Legacy thread-per-connection only.
    Legacy,
    /// Both, enabling the capacity A/B section.
    Both,
}

/// Knobs for [`run_server_bench`].
#[derive(Clone, Debug)]
pub struct ServerBenchOpts {
    /// Solver worker threads in the server under test.
    pub workers: usize,
    /// Concurrent client connections for the legacy arm.
    pub legacy_conns: usize,
    /// Event-arm connections = `legacy_conns × conn_multiplier`.
    pub conn_multiplier: usize,
    /// Open-loop schedule parameters (rate, mix, request count).
    pub load: OpenLoopOpts,
    /// Schedule seed (same seed ⇒ byte-identical load on both arms).
    pub seed: u64,
    /// Which arms to run.
    pub arms: Arms,
}

impl ServerBenchOpts {
    /// The configuration behind the committed `BENCH_server.json`:
    /// 1024 event connections vs 256 legacy connections. The target
    /// rate is kept comfortably below pool capacity — at saturation an
    /// open-loop p99 measures a random-walking backlog rather than the
    /// front end, and the CI regression gate would be pure noise.
    pub fn standard() -> Self {
        Self {
            workers: 2,
            legacy_conns: 256,
            conn_multiplier: 4,
            load: OpenLoopOpts {
                requests: 900,
                rps: 300.0,
                ..Default::default()
            },
            seed: 42,
            arms: Arms::Both,
        }
    }

    /// A seconds-scale variant for tests.
    pub fn tiny() -> Self {
        Self {
            workers: 2,
            legacy_conns: 16,
            conn_multiplier: 4,
            load: OpenLoopOpts {
                requests: 160,
                rps: 400.0,
                ..Default::default()
            },
            seed: 42,
            arms: Arms::Both,
        }
    }

    fn event_conns(&self) -> usize {
        self.legacy_conns * self.conn_multiplier.max(1)
    }
}

/// Latency percentiles in microseconds.
#[derive(Clone, Debug)]
pub struct Pcts {
    /// Median.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl Pcts {
    fn from_sorted(sorted_us: &[u64]) -> Pcts {
        let pick = |q: f64| -> f64 {
            if sorted_us.is_empty() {
                return 0.0;
            }
            let idx = ((sorted_us.len() as f64 * q).ceil() as usize).clamp(1, sorted_us.len()) - 1;
            sorted_us[idx] as f64
        };
        Pcts {
            p50_us: pick(0.50),
            p99_us: pick(0.99),
            p999_us: pick(0.999),
            max_us: sorted_us.last().copied().unwrap_or(0) as f64,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("p50_us", Json::Num(self.p50_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("p999_us", Json::Num(self.p999_us)),
            ("max_us", Json::Num(self.max_us)),
        ])
    }
}

/// Measurements from one front-end arm.
#[derive(Clone, Debug)]
pub struct ArmReport {
    /// `"event"` or `"legacy"`.
    pub mode: String,
    /// Concurrent client connections held open for the whole run.
    pub conns: usize,
    /// Requests completed (always the full schedule on success).
    pub requests: usize,
    /// Wall-clock seconds from first injection to last reply.
    pub duration_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Reply-to-send latency (excludes client-side queueing).
    pub service: Pcts,
    /// Reply-to-scheduled-arrival latency (true open-loop latency).
    pub latency: Pcts,
    /// `err …` replies observed (0 on a healthy run).
    pub errors: u64,
    /// Client-observed `cache=hit` replies.
    pub replies_hit: u64,
    /// Client-observed `cache=shared` replies (coalesced followers).
    pub replies_shared: u64,
    /// Server-side distribution builds during the run (`cache.builds`).
    pub builds: u64,
    /// Server-side coalesced solves during the run (`cache.coalesced`).
    pub coalesced: u64,
    /// `coalesced / (coalesced + builds)`: the fraction of cold-path
    /// demand served by joining an in-flight build.
    pub coalescing_ratio: f64,
    /// `Δpool.busy-us / (workers × wall-us)` over the measured window.
    pub worker_utilization: f64,
}

impl ArmReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mode", Json::Str(self.mode.clone())),
            ("conns", Json::Num(self.conns as f64)),
            ("requests", Json::Num(self.requests as f64)),
            ("duration_s", Json::Num(self.duration_s)),
            ("throughput_rps", Json::Num(self.throughput_rps)),
            ("service", self.service.to_json()),
            ("latency", self.latency.to_json()),
            ("errors", Json::Num(self.errors as f64)),
            ("replies_hit", Json::Num(self.replies_hit as f64)),
            ("replies_shared", Json::Num(self.replies_shared as f64)),
            ("builds", Json::Num(self.builds as f64)),
            ("coalesced", Json::Num(self.coalesced as f64)),
            ("coalescing_ratio", Json::Num(self.coalescing_ratio)),
            ("worker_utilization", Json::Num(self.worker_utilization)),
        ])
    }
}

/// The full report: per-arm measurements plus the A/B capacity section.
#[derive(Clone, Debug)]
pub struct ServerBenchReport {
    /// The options the run used.
    pub opts: ServerBenchOpts,
    /// One entry per arm run.
    pub arms: Vec<ArmReport>,
}

impl ServerBenchReport {
    fn arm(&self, mode: &str) -> Option<&ArmReport> {
        self.arms.iter().find(|a| a.mode == mode)
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            (
                "config",
                Json::obj(vec![
                    ("workers", Json::Num(self.opts.workers as f64)),
                    ("seed", Json::Num(self.opts.seed as f64)),
                    ("requests", Json::Num(self.opts.load.requests as f64)),
                    ("target_rps", Json::Num(self.opts.load.rps)),
                    (
                        "mix",
                        Json::obj(vec![
                            ("hit", Json::Num(self.opts.load.hit_frac)),
                            ("twin", Json::Num(self.opts.load.twin_frac)),
                            ("coalesce", Json::Num(self.opts.load.coalesce_frac)),
                            (
                                "coalesce_burst",
                                Json::Num(self.opts.load.coalesce_burst as f64),
                            ),
                        ]),
                    ),
                ]),
            ),
            (
                "arms",
                Json::Arr(self.arms.iter().map(ArmReport::to_json).collect()),
            ),
        ];
        if let (Some(event), Some(legacy)) = (self.arm("event"), self.arm("legacy")) {
            let conn_ratio = event.conns as f64 / legacy.conns.max(1) as f64;
            let p99_ratio = if legacy.service.p99_us > 0.0 {
                event.service.p99_us / legacy.service.p99_us
            } else {
                1.0
            };
            pairs.push((
                "capacity",
                Json::obj(vec![
                    ("legacy_conns", Json::Num(legacy.conns as f64)),
                    ("event_conns", Json::Num(event.conns as f64)),
                    ("conn_ratio", Json::Num(conn_ratio)),
                    ("legacy_p99_us", Json::Num(legacy.service.p99_us)),
                    ("event_p99_us", Json::Num(event.service.p99_us)),
                    ("p99_ratio", Json::Num(p99_ratio)),
                    (
                        "claim_ok",
                        Json::Bool(conn_ratio >= 4.0 && p99_ratio <= P99_TOLERANCE),
                    ),
                ]),
            ));
        }
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }
}

fn num(doc: &Json, path: &[&str]) -> Result<f64, String> {
    doc.path(path)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing numeric field {}", path.join(".")))
}

fn arm_obj<'a>(doc: &'a Json, mode: &str) -> Result<&'a Json, String> {
    let Some(Json::Arr(arms)) = doc.get("arms") else {
        return Err("missing arms array".to_string());
    };
    arms.iter()
        .find(|a| a.path(&["mode"]).and_then(Json::as_str) == Some(mode))
        .ok_or_else(|| format!("no {mode} arm in report"))
}

/// Validates an emitted `BENCH_server.json` document: schema tag, an
/// event arm with zero errors and a strictly positive coalescing ratio,
/// and — when both arms are present — the ≥ 4×-connections-at-equal-p99
/// capacity claim (`capacity.claim_ok`).
pub fn validate(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA => {}
        other => return Err(format!("schema is {other:?}, want {SCHEMA:?}")),
    }
    let event = arm_obj(&doc, "event")?;
    let errors = num(event, &["errors"])?;
    if errors > 0.0 {
        return Err(format!("event arm saw {errors} error replies"));
    }
    let ratio = num(event, &["coalescing_ratio"])?;
    if ratio <= 0.0 {
        return Err("event arm shows no coalescing (ratio 0)".to_string());
    }
    let shared = num(event, &["replies_shared"])?;
    if shared <= 0.0 {
        return Err("event arm saw no cache=shared replies".to_string());
    }
    num(event, &["service", "p99_us"])?;
    num(event, &["latency", "p99_us"])?;
    if doc.get("capacity").is_some() {
        if num(&doc, &["capacity", "conn_ratio"])? < 4.0 {
            return Err("capacity: event arm ran fewer than 4x legacy connections".to_string());
        }
        if doc.path(&["capacity", "claim_ok"]).and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "capacity claim failed: event p99 {} vs legacy p99 {} (tolerance {P99_TOLERANCE}x)",
                num(&doc, &["capacity", "event_p99_us"])?,
                num(&doc, &["capacity", "legacy_p99_us"])?,
            ));
        }
    }
    Ok(())
}

/// The CI regression gate: compares a fresh measurement against the
/// committed baseline. Fails when the fresh event-arm service p99
/// regressed more than 25% (plus a 500 µs absolute floor that keeps
/// loopback jitter from tripping the gate on sub-millisecond tails), or
/// when the fresh run shows no coalescing or any error replies.
pub fn smoke_check(committed: &str, fresh: &ServerBenchReport) -> Result<(), String> {
    validate(committed)?;
    let doc = Json::parse(committed)?;
    let committed_p99 = num(arm_obj(&doc, "event")?, &["service", "p99_us"])?;
    let event = fresh
        .arm("event")
        .ok_or("fresh run has no event arm".to_string())?;
    if event.errors > 0 {
        return Err(format!(
            "fresh event arm saw {} error replies",
            event.errors
        ));
    }
    if event.coalescing_ratio <= 0.0 {
        return Err("fresh event arm shows no coalescing".to_string());
    }
    let limit = committed_p99 * 1.25 + 500.0;
    if event.service.p99_us > limit {
        return Err(format!(
            "event p99 regressed: fresh {:.0} us vs committed {:.0} us (limit {:.0} us)",
            event.service.p99_us, committed_p99, limit
        ));
    }
    Ok(())
}

/// Runs the configured arms and assembles the report.
#[cfg(unix)]
pub fn run_server_bench(opts: &ServerBenchOpts) -> Result<ServerBenchReport, String> {
    let mut arms = Vec::new();
    // legacy first: its result calibrates the capacity comparison, and
    // running the heavier event arm second keeps the page cache warm in
    // neither arm's favour (the schedule bytes are identical anyway)
    if matches!(opts.arms, Arms::Legacy | Arms::Both) {
        arms.push(engine::run_arm(opts, true)?);
    }
    if matches!(opts.arms, Arms::Event | Arms::Both) {
        arms.push(engine::run_arm(opts, false)?);
    }
    Ok(ServerBenchReport {
        opts: opts.clone(),
        arms,
    })
}

/// Stub for non-unix targets (the poll-multiplexed client and the event
/// front end both require the unix `netpoll` shim).
#[cfg(not(unix))]
pub fn run_server_bench(_opts: &ServerBenchOpts) -> Result<ServerBenchReport, String> {
    Err("the server bench requires a unix target".to_string())
}

#[cfg(unix)]
mod engine {
    use super::*;
    use hgp_server::netpoll::{poll_ready, PollEntry, POLLERR, POLLIN, POLLNVAL, POLLOUT};
    use hgp_server::{Server, ServerConfig};
    use std::collections::VecDeque;
    use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    struct ClientConn {
        stream: TcpStream,
        wbuf: Vec<u8>,
        rbuf: Vec<u8>,
        /// Request indexes awaiting replies, in send order (the protocol
        /// answers one line per line, in order).
        inflight: VecDeque<usize>,
    }

    /// Sends one line on a blocking stream and reads the reply line.
    fn ask(
        stream: &mut TcpStream,
        reader: &mut BufReader<TcpStream>,
        line: &str,
    ) -> Result<String, String> {
        stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        Ok(reply.trim_end().to_string())
    }

    fn stats2(addr: std::net::SocketAddr) -> Result<Vec<(String, u64)>, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let reply = ask(&mut stream, &mut reader, "stats2")?;
        let body = reply
            .strip_prefix("ok ")
            .ok_or_else(|| format!("bad stats2 reply: {reply}"))?;
        Ok(body
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .filter_map(|(k, v)| v.parse::<u64>().ok().map(|n| (k.to_string(), n)))
            .collect())
    }

    fn stat(snapshot: &[(String, u64)], key: &str) -> u64 {
        snapshot
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    pub(super) fn run_arm(opts: &ServerBenchOpts, legacy: bool) -> Result<ArmReport, String> {
        let mode = if legacy { "legacy" } else { "event" };
        let conns = if legacy {
            opts.legacy_conns
        } else {
            opts.event_conns()
        };
        let schedule = open_loop_schedule(opts.seed, &opts.load);
        let total = schedule.len();

        let server = Server::start(
            ServerConfig::builder()
                .addr("127.0.0.1:0")
                .workers(opts.workers)
                // open loop: the whole schedule may be in flight at once
                .queue_capacity(total.max(64))
                .parallelism(hgp_core::Parallelism::serial())
                .cache_capacity(64)
                .legacy_threads(legacy)
                .build(),
        )
        .map_err(|e| format!("start {mode} server: {e}"))?;
        let addr = server.addr();

        // closed-loop priming so hit traffic behaves as labelled
        {
            let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
            for line in warm_lines(&opts.load) {
                let reply = ask(&mut stream, &mut reader, &line)?;
                if !reply.starts_with("ok ") {
                    return Err(format!("warm-up solve failed: {reply}"));
                }
            }
        }
        let before = stats2(addr)?;

        let mut clients: Vec<ClientConn> = Vec::with_capacity(conns);
        for _ in 0..conns {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
            stream
                .set_nodelay(true)
                .and_then(|()| stream.set_nonblocking(true))
                .map_err(|e| format!("socket setup: {e}"))?;
            clients.push(ClientConn {
                stream,
                wbuf: Vec::new(),
                rbuf: Vec::new(),
                inflight: VecDeque::new(),
            });
        }

        let mut sent_us = vec![0u64; total];
        let mut done_us = vec![0u64; total];
        let mut errors = 0u64;
        let (mut hit, mut shared) = (0u64, 0u64);
        let mut completed = 0usize;
        let mut next = 0usize; // next schedule entry to inject
        let start = Instant::now();
        let hard_deadline = start + Duration::from_secs(180);

        while completed < total {
            if Instant::now() > hard_deadline {
                return Err(format!(
                    "{mode} arm stalled: {completed}/{total} replies after 180 s"
                ));
            }
            let now_us = start.elapsed().as_micros() as u64;
            // inject every arrival that is due, round-robin over conns
            while next < total && schedule[next].at_us <= now_us {
                let conn = &mut clients[next % conns];
                conn.wbuf.extend_from_slice(schedule[next].line.as_bytes());
                conn.wbuf.push(b'\n');
                conn.inflight.push_back(next);
                sent_us[next] = now_us;
                next += 1;
            }

            let timeout_ms = if next < total {
                let gap_us = schedule[next].at_us.saturating_sub(now_us);
                (gap_us / 1000).clamp(0, 10) as i32
            } else {
                10
            };
            let mut entries: Vec<PollEntry> = clients
                .iter()
                .map(|c| {
                    let mut interest = POLLIN;
                    if !c.wbuf.is_empty() {
                        interest |= POLLOUT;
                    }
                    PollEntry::new(c.stream.as_raw_fd(), interest)
                })
                .collect();
            poll_ready(&mut entries, timeout_ms).map_err(|e| format!("poll: {e}"))?;

            let now_us = start.elapsed().as_micros() as u64;
            for (conn, entry) in clients.iter_mut().zip(&entries) {
                if entry.ready & (POLLERR | POLLNVAL) != 0 {
                    return Err(format!("{mode} arm: connection error mid-run"));
                }
                if entry.writable() && !conn.wbuf.is_empty() {
                    match conn.stream.write(&conn.wbuf) {
                        Ok(n) => {
                            conn.wbuf.drain(..n);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                        Err(e) => return Err(format!("{mode} arm write: {e}")),
                    }
                }
                if entry.readable() {
                    let mut chunk = [0u8; 16 * 1024];
                    loop {
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => {
                                if !conn.inflight.is_empty() {
                                    return Err(format!(
                                        "{mode} arm: server closed with replies pending"
                                    ));
                                }
                                break;
                            }
                            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                            Err(e) => return Err(format!("{mode} arm read: {e}")),
                        }
                    }
                    while let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = conn.rbuf.drain(..=pos).collect();
                        let line = String::from_utf8_lossy(&line[..line.len() - 1]);
                        let idx = conn
                            .inflight
                            .pop_front()
                            .ok_or_else(|| format!("{mode} arm: unsolicited reply {line}"))?;
                        done_us[idx] = now_us;
                        completed += 1;
                        if line.starts_with("err ") {
                            errors += 1;
                        } else if line.contains(" cache=shared") {
                            shared += 1;
                        } else if line.contains(" cache=hit") {
                            hit += 1;
                        }
                    }
                }
            }
        }

        let wall = start.elapsed();
        let after = stats2(addr)?;
        drop(clients);
        drop(server); // shuts down and joins

        let builds = stat(&after, "cache.builds") - stat(&before, "cache.builds");
        let coalesced = stat(&after, "cache.coalesced") - stat(&before, "cache.coalesced");
        let busy_us = stat(&after, "pool.busy-us") - stat(&before, "pool.busy-us");
        let wall_us = wall.as_micros() as f64;

        let mut service: Vec<u64> = (0..total).map(|i| done_us[i] - sent_us[i]).collect();
        service.sort_unstable();
        let mut latency: Vec<u64> = (0..total)
            .map(|i| done_us[i].saturating_sub(schedule[i].at_us))
            .collect();
        latency.sort_unstable();

        Ok(ArmReport {
            mode: mode.to_string(),
            conns,
            requests: total,
            duration_s: wall.as_secs_f64(),
            throughput_rps: total as f64 / wall.as_secs_f64(),
            service: Pcts::from_sorted(&service),
            latency: Pcts::from_sorted(&latency),
            errors,
            replies_hit: hit,
            replies_shared: shared,
            builds,
            coalesced,
            coalescing_ratio: coalesced as f64 / (coalesced + builds).max(1) as f64,
            worker_utilization: busy_us as f64 / (opts.workers as f64 * wall_us),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report(event_p99: f64, legacy_p99: f64, ratio: f64) -> ServerBenchReport {
        let arm = |mode: &str, conns: usize, p99: f64| ArmReport {
            mode: mode.to_string(),
            conns,
            requests: 100,
            duration_s: 1.0,
            throughput_rps: 100.0,
            service: Pcts {
                p50_us: p99 / 2.0,
                p99_us: p99,
                p999_us: p99 * 2.0,
                max_us: p99 * 3.0,
            },
            latency: Pcts {
                p50_us: p99 / 2.0,
                p99_us: p99,
                p999_us: p99 * 2.0,
                max_us: p99 * 3.0,
            },
            errors: 0,
            replies_hit: 50,
            replies_shared: if ratio > 0.0 { 7 } else { 0 },
            builds: 20,
            coalesced: (ratio * 20.0) as u64,
            coalescing_ratio: ratio,
            worker_utilization: 0.8,
        };
        ServerBenchReport {
            opts: ServerBenchOpts::tiny(),
            arms: vec![arm("legacy", 16, legacy_p99), arm("event", 64, event_p99)],
        }
    }

    #[test]
    fn report_round_trips_and_validates() {
        let report = fake_report(900.0, 1000.0, 0.25);
        let text = report.to_json().to_pretty();
        validate(&text).unwrap();
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(
            doc.path(&["capacity", "conn_ratio"]).and_then(Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            doc.path(&["capacity", "claim_ok"]).and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn validation_rejects_broken_claims() {
        // no coalescing
        let text = fake_report(900.0, 1000.0, 0.0).to_json().to_pretty();
        assert!(validate(&text).unwrap_err().contains("coalescing"));
        // event p99 far above legacy: capacity claim fails
        let text = fake_report(5000.0, 1000.0, 0.25).to_json().to_pretty();
        assert!(validate(&text).unwrap_err().contains("capacity claim"));
        // wrong schema
        assert!(validate("{\"schema\": \"other/v9\"}").is_err());
    }

    #[test]
    fn smoke_gate_trips_on_p99_regression_only() {
        let committed = fake_report(2000.0, 2400.0, 0.25).to_json().to_pretty();
        // within 25% + floor: fine
        let fresh = fake_report(2400.0, 2400.0, 0.25);
        smoke_check(&committed, &fresh).unwrap();
        // far above: trips
        let fresh = fake_report(4000.0, 2400.0, 0.25);
        let err = smoke_check(&committed, &fresh).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        // regression gate also refuses a coalescing-free fresh run
        let fresh = fake_report(2000.0, 2400.0, 0.0);
        assert!(smoke_check(&committed, &fresh).is_err());
    }
}
