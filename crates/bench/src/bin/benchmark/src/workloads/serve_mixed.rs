//! `serve-mixed`: the placement server on loopback under a mixed load.
//!
//! The server runs with its defaults (32-entry distribution cache, queue
//! of 64) except for two workers and serial solves, sized for a two-core
//! host. Solve lines draw 128-node graphs (`gen:clustered:8x16` and
//! `gen:powerlaw:128`) on `4x4:4,1,0` with four trees. The mix, per
//! event:
//!
//! * 55 % hot lines, Zipf(1) over 48 topologies: more than the cache
//!   holds, so cache policy matters;
//! * 10 % demand-perturbed twins of hot topologies: same graph, new key;
//! * 15 % unique cold lines;
//! * 10 % bursts of four identical cold lines sent at one instant, which
//!   exercise single-flight coalescing;
//! * 10 % `place-incremental mutate` (four demand edits) or `resolve
//!   budget=32` on one session of about 200 tasks; these run inline on
//!   the event loop beside the cached solves.
//!
//! Phase A is an open loop: one generator thread sends at Poisson times,
//! solves on two connections and session lines on a third (so they are
//! never ordered behind a solve), and latency runs from each request's
//! scheduled send time. Phase B is a closed loop with four requests in flight per
//! connection; its completion rate is the server's capacity on this mix.

use super::{
    class_medians, flat_reference, set_median, set_peak_rss, set_tail, stream_seed, to_reference,
    Config, Outcome,
};
use crate::check;
use crate::metrics::Values;
use crate::probe::{Probe, Speed};
use crate::stats::{self, Sample};
use crate::trace::{Tracer, OP};
use hgp_core::{ChurnBudget, Parallelism, ReplaceOptions, Session, Solve, SolverOptions};
use hgp_graph::NodeId;
use hgp_hierarchy::parse_hierarchy;
use hgp_server::{IncrOp, Request, Server, ServerConfig};
use hgp_workloads::requests::reply_field;
use hgp_workloads::{stream_dag, StreamOpts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const MACHINE: &str = "4x4:4,1,0";
/// Lines per burst.
const BURST: usize = 4;
/// Requests in flight per connection in phase B.
const WINDOW: usize = 4;
/// Connections the solve load arrives on.
const CONNS: usize = 2;
/// Move budget of the session's resolves.
const BUDGET: usize = 32;
/// Fewest requests phase A sends, so twenty replies lie beyond its p90.
const MIN_PHASE_A_LINES: f64 = 200.0;
/// A reply later than this means the server has stopped answering.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Input sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Requests per second offered in phase A: about half the two
    /// workers' capacity on this mix.
    rate: f64,
    hot: usize,
    blocks: usize,
    block: usize,
    queries: usize,
    depth: usize,
}

impl Sizes {
    pub fn new(quick: bool) -> Self {
        if quick {
            Self {
                rate: 400.0,
                hot: 12,
                blocks: 4,
                block: 8,
                queries: 4,
                depth: 3,
            }
        } else {
            Self {
                rate: 125.0,
                hot: 48,
                blocks: 8,
                block: 16,
                queries: 12,
                depth: 6,
            }
        }
    }

    fn nodes(&self) -> usize {
        self.blocks * self.block
    }

    /// The graph spec for generator seed `s`: even seeds draw planted
    /// clusters, odd ones a power-law graph, both of the same size.
    fn graph(&self, s: u64) -> String {
        if s.is_multiple_of(2) {
            format!("gen:clustered:{}x{}:{s}", self.blocks, self.block)
        } else {
            format!("gen:powerlaw:{}:{s}", self.nodes())
        }
    }
}

/// One event of the mix.
#[derive(Clone, Debug, PartialEq)]
pub enum Kind {
    /// Hot topology `i`.
    Hot(usize),
    /// Hot topology `i` at another uniform demand.
    Twin(usize, f64),
    /// A cold topology with this generator seed.
    Unique(u64),
    /// [`BURST`] copies of a cold line.
    Burst(u64),
    /// Demand edits `(task, demand)` on the session.
    Mutate(Vec<(usize, f64)>),
    /// A budgeted resolve of the session.
    Resolve,
}

/// The seeded event source. Hot topologies use generator seeds below
/// 2³², cold ones seeds at or above 2⁴⁰, so a cold line never repeats a
/// hot key.
pub struct Mix {
    rng: StdRng,
    zipf_cdf: Vec<f64>,
    hot_base: u64,
    next_cold: u64,
    session_share: f64,
    base: Vec<f64>,
    sizes: Sizes,
}

impl Mix {
    /// Event stream `stream` of the workload seeded with `seed`; session
    /// events take `session_share` of it, and their edits jitter `base`.
    pub fn new(seed: u64, stream: u64, session_share: f64, base: &[f64], sizes: Sizes) -> Self {
        let weights: Vec<f64> = (1..=sizes.hot).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self {
            rng: StdRng::seed_from_u64(stream_seed(seed, 100 + stream)),
            zipf_cdf,
            hot_base: hot_base(seed),
            next_cold: (stream + 1) << 40 | stream_seed(seed, 9) >> 32,
            session_share,
            base: base.to_vec(),
            sizes,
        }
    }

    fn zipf(&mut self) -> usize {
        let u: f64 = self.rng.gen();
        self.zipf_cdf
            .partition_point(|&c| c < u)
            .min(self.sizes.hot - 1)
    }

    fn cold(&mut self) -> u64 {
        self.next_cold += 1;
        self.next_cold
    }

    /// The next event, its class drawn at random.
    pub fn next_kind(&mut self) -> Kind {
        let class = if self.rng.gen_bool(self.session_share) {
            if self.rng.gen_bool(0.5) {
                4
            } else {
                5
            }
        } else {
            // hot 55 : twin 10 : unique 15 : burst 10 of the other 90 %
            let u = self.rng.gen_range(0.0..0.9);
            [0.55, 0.65, 0.80].iter().filter(|&&c| u >= c).count()
        };
        self.kind_of(class)
    }

    /// A new event of class `class` (see [`Kind::class`]).
    fn kind_of(&mut self, class: usize) -> Kind {
        match class {
            0 => Kind::Hot(self.zipf()),
            1 => {
                let i = self.zipf();
                let d = default_demand(&self.sizes) * self.rng.gen_range(0.85..=1.15);
                Kind::Twin(i, d)
            }
            2 => Kind::Unique(self.cold()),
            3 => Kind::Burst(self.cold()),
            4 => Kind::Mutate(
                (0..4)
                    .map(|_| {
                        let t = self.rng.gen_range(0..self.base.len());
                        (t, self.base[t] * self.rng.gen_range(0.7..=1.3))
                    })
                    .collect(),
            ),
            _ => Kind::Resolve,
        }
    }

    /// The request lines of one event.
    pub fn lines(&self, kind: &Kind, session: u64, traced: bool) -> Vec<String> {
        let solve = |s: u64, demand: Option<f64>| {
            let mut l = format!(
                "solve graph={} machine={MACHINE} trees=4 seed=1",
                self.sizes.graph(s)
            );
            if let Some(d) = demand {
                l.push_str(&format!(" demand={d:.4}"));
            }
            if traced {
                l.push_str(" trace=1");
            }
            l
        };
        match kind {
            Kind::Hot(i) => vec![solve(self.hot_base + *i as u64, None)],
            Kind::Twin(i, d) => vec![solve(self.hot_base + *i as u64, Some(*d))],
            Kind::Unique(s) => vec![solve(*s, None)],
            Kind::Burst(s) => vec![solve(*s, None); BURST],
            Kind::Mutate(edits) => {
                let toks: Vec<String> = edits
                    .iter()
                    .map(|(t, d)| format!("demand={t}:{d}"))
                    .collect();
                vec![format!(
                    "place-incremental mutate session={session} {}",
                    toks.join(" ")
                )]
            }
            Kind::Resolve => vec![format!(
                "place-incremental resolve session={session} budget={BUDGET}"
            )],
        }
    }
}

/// Latency classes: requests of one kind take comparable time. A mutate
/// (a few hundred µs) and a resolve (a DP, a few ms) get a class each: in
/// one class the median would fall between the two and jump with the
/// realised mix.
const CLASSES: usize = 6;

impl Kind {
    /// The latency class, below [`CLASSES`].
    fn class(&self) -> usize {
        match self {
            Kind::Hot(_) => 0,
            Kind::Twin(..) => 1,
            Kind::Unique(_) => 2,
            Kind::Burst(_) => 3,
            Kind::Mutate(_) => 4,
            Kind::Resolve => 5,
        }
    }
}

fn hot_base(seed: u64) -> u64 {
    stream_seed(seed, 7) >> 32
}

/// The server's per-task demand when a line names none.
fn default_demand(sizes: &Sizes) -> f64 {
    (0.8 * 16.0 / sizes.nodes() as f64).min(1.0)
}

/// Phase A's share of events in each class: 55 % hot, 10 % twins, 15 %
/// unique, 10 % bursts, 5 % mutates, 5 % resolves.
const PHASE_A_SHARES: [f64; CLASSES] = [0.55, 0.10, 0.15, 0.10, 0.05, 0.05];

/// Phase A's open-loop schedule: `(send offset in seconds, event)`.
///
/// A Poisson process conditioned on its count: the expected number of
/// events at independent uniform times, each class with exactly its
/// share, in shuffled order. Every seed offers the same load and mix, and
/// only their order and spacing differ; with a free count the offered
/// load swung by ±8 % between seeds, and the latencies with it.
pub fn schedule(seed: u64, secs: f64, base: &[f64], sizes: Sizes) -> Vec<(f64, Kind)> {
    // 1.3 lines per event on average (bursts send four)
    let events = secs * sizes.rate / 1.3;
    let mut classes: Vec<usize> = PHASE_A_SHARES
        .iter()
        .enumerate()
        .flat_map(|(c, share)| std::iter::repeat_n(c, (share * events).round() as usize))
        .collect();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 11));
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.gen_range(0..=i));
    }
    let mut times: Vec<f64> = classes.iter().map(|_| rng.gen_range(0.0..secs)).collect();
    times.sort_by(f64::total_cmp);
    let mut mix = Mix::new(seed, 0, 0.0, base, sizes);
    times
        .into_iter()
        .zip(classes)
        .map(|(at, c)| (at, mix.kind_of(c)))
        .collect()
}

/// A blocking line client.
struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        w.set_nodelay(true).map_err(|e| e.to_string())?;
        w.set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Self { w, r })
    }

    fn send(&mut self, lines: &[String]) -> Result<(), String> {
        let mut buf = lines.join("\n");
        buf.push('\n');
        self.w
            .write_all(buf.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.r.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(&[line.to_string()])?;
        let reply = self.recv()?;
        if reply.starts_with("ok") {
            Ok(reply)
        } else {
            Err(format!("{line:.80}: {reply}"))
        }
    }

    /// `stats2` counters by name.
    fn stats2(&mut self) -> Result<BTreeMap<String, f64>, String> {
        let reply = self.call("stats2")?;
        Ok(reply
            .split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }
}

/// A started, primed server with its session.
struct Env {
    // the control connection closes before the server drops
    ctl: Client,
    server: Server,
    session: u64,
    /// Session lines sent during set-up, for the replay check.
    session_log: Vec<(String, String)>,
    /// The session's original demands, which edits jitter.
    base: Vec<f64>,
}

fn start(seed: u64, sizes: Sizes) -> Result<Env, String> {
    let server = Server::start(
        ServerConfig::builder()
            .workers(2)
            .parallelism(Parallelism::serial())
            .build(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut ctl = Client::connect(server.addr())?;
    // prime the cache with every hot topology
    let mix = Mix::new(seed, 0, 0.0, &[], sizes);
    let hot: Vec<String> = (0..sizes.hot)
        .flat_map(|i| mix.lines(&Kind::Hot(i), 0, false))
        .collect();
    ctl.send(&hot)?;
    for line in &hot {
        let reply = ctl.recv()?;
        if !reply.starts_with("ok") {
            return Err(format!("priming {line}: {reply}"));
        }
    }
    // the session: a streaming DAG added in one transactional batch
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, 12));
    let dag = stream_dag(
        &mut rng,
        &StreamOpts {
            queries: sizes.queries,
            depth: sizes.depth,
            max_width: 4,
            max_demand: 0.08,
            ..Default::default()
        },
    );
    let reply = ctl.call(&format!("place-incremental new machine={MACHINE}"))?;
    let session: u64 = reply_field(&reply, "session")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no session id in {reply}"))?;
    let g = dag.graph();
    let adds: Vec<String> = (0..g.num_nodes())
        .map(|v| {
            let nbrs: Vec<String> = g
                .neighbors(NodeId(v as u32))
                .filter(|(u, _, _)| u.index() < v)
                .map(|(u, w, _)| format!("{}:{w}", u.index()))
                .collect();
            let d = dag.demand(v);
            if nbrs.is_empty() {
                format!("add={d}")
            } else {
                format!("add={d}:{}", nbrs.join(","))
            }
        })
        .collect();
    let mut session_log = Vec::new();
    for line in [
        format!(
            "place-incremental mutate session={session} {}",
            adds.join(" ")
        ),
        format!("place-incremental resolve session={session} budget={BUDGET}"),
    ] {
        let reply = ctl.call(&line)?;
        session_log.push((line, reply));
    }
    Ok(Env {
        ctl,
        server,
        session,
        session_log,
        base: dag.demands().to_vec(),
    })
}

/// One request line and what became of it.
#[derive(Debug)]
struct Sent {
    line: String,
    conn: usize,
    /// [`Kind::class`] of the event that sent it.
    class: usize,
    due: Instant,
    reply: Option<(String, Instant)>,
}

impl Sent {
    fn latency_ms(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .map(|(_, t)| t.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// Reads replies until the server closes the connection.
fn read_all(stream: TcpStream) -> Vec<(String, Instant)> {
    let mut r = BufReader::new(stream);
    let mut out = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        match r.read_line(&mut line) {
            Ok(0) | Err(_) => return out,
            Ok(_) => out.push((line.trim_end().to_string(), Instant::now())),
        }
    }
}

/// Phase A: sends `events` at their scheduled times, counted from
/// `origin`, from this thread while one reader per connection collects
/// replies. Returns the lines sent with their replies, the generator's
/// lateness in ms, and the probe times taken between sends.
fn open_loop(
    env: &Env,
    mix: &Mix,
    events: &[(f64, Kind)],
    cfg: &Config,
    origin: Instant,
) -> Result<(Vec<Sent>, Vec<f64>, Speed), String> {
    // one more connection, the last, for the session lines
    let mut conns = Vec::with_capacity(CONNS + 1);
    for _ in 0..=CONNS {
        conns.push(Client::connect(env.server.addr())?);
    }
    let mut sent = Vec::new();
    let mut lag = Vec::with_capacity(events.len());
    let mut probe = Probe::new(origin);
    let replies = std::thread::scope(|scope| -> Result<Vec<Vec<(String, Instant)>>, String> {
        let readers: Vec<_> = conns
            .iter()
            .map(|c| {
                let s = c.w.try_clone().map_err(|e| e.to_string())?;
                Ok(scope.spawn(move || read_all(s)))
            })
            .collect::<Result<_, String>>()?;
        for (event, (at, kind)) in events.iter().enumerate() {
            let due = origin + Duration::from_secs_f64(*at);
            if due.checked_duration_since(Instant::now()) > Some(Duration::from_millis(2)) {
                probe.tick();
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let conn = match kind {
                Kind::Mutate(_) | Kind::Resolve => CONNS,
                _ => event % CONNS,
            };
            let lines = mix.lines(kind, env.session, super::traced_turn(cfg, event as u64));
            conns[conn].send(&lines)?;
            lag.push(due.elapsed().as_secs_f64() * 1e3);
            for line in lines {
                sent.push(Sent {
                    line,
                    conn,
                    class: kind.class(),
                    due,
                    reply: None,
                });
            }
        }
        for c in &conns {
            c.w.shutdown(Shutdown::Write).map_err(|e| e.to_string())?;
        }
        Ok(readers
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect())
    })?;
    attach(&mut sent, replies);
    Ok((sent, lag, probe.into_speed()))
}

/// Pairs each connection's replies with its requests, in order.
fn attach(sent: &mut [Sent], replies: Vec<Vec<(String, Instant)>>) {
    for (c, rs) in replies.into_iter().enumerate() {
        let mine = sent.iter_mut().filter(|s| s.conn == c);
        for (s, r) in mine.zip(rs) {
            s.reply = Some(r);
        }
    }
}

/// Phase B: each connection keeps [`WINDOW`] requests in flight for
/// `secs`. Returns the lines with replies, each reply's time into the
/// phase, the phase's wall time, and the probe times taken between
/// replies.
fn closed_loop(
    env: &Env,
    cfg: &Config,
    secs: f64,
    sizes: Sizes,
) -> Result<(Vec<Sent>, Vec<f64>, f64, Speed), String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let per_conn = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CONNS)
            .map(|c| {
                scope.spawn(move || -> Result<(Vec<Sent>, Speed), String> {
                    // all session events ride connection 0
                    let share = if c == 0 { 0.2 } else { 0.0 };
                    let mut mix = Mix::new(cfg.seed, 1 + c as u64, share, &env.base, sizes);
                    let mut client = Client::connect(env.server.addr())?;
                    let mut probe = Probe::new(start);
                    let mut done = Vec::new();
                    let mut inflight: VecDeque<Sent> = VecDeque::new();
                    let mut event = 0u64;
                    loop {
                        while inflight.len() < WINDOW && Instant::now() < end {
                            let kind = mix.next_kind();
                            let lines =
                                mix.lines(&kind, env.session, super::traced_turn(cfg, event));
                            client.send(&lines)?;
                            let due = Instant::now();
                            for line in lines {
                                inflight.push_back(Sent {
                                    line,
                                    conn: c,
                                    class: kind.class(),
                                    due,
                                    reply: None,
                                });
                            }
                            event += 1;
                        }
                        let Some(mut s) = inflight.pop_front() else {
                            return Ok((done, probe.into_speed()));
                        };
                        s.reply = Some((client.recv()?, Instant::now()));
                        done.push(s);
                        probe.tick();
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = start.elapsed().as_secs_f64();
    let (sent, speeds): (Vec<Vec<Sent>>, Vec<Speed>) = per_conn.into_iter().unzip();
    let sent: Vec<Sent> = sent.into_iter().flatten().collect();
    let done = sent
        .iter()
        .filter_map(|s| Some((s.reply.as_ref()?.1 - start).as_secs_f64()))
        .collect();
    Ok((sent, done, wall, Speed::merge(speeds)))
}

/// Drops a `trace=1` token so traced and plain copies of a line compare
/// as one line.
fn canonical(line: &str) -> &str {
    line.strip_suffix(" trace=1").unwrap_or(line)
}

fn num(reply: &str, key: &str) -> Option<f64> {
    reply_field(reply, key)?.parse().ok()
}

/// Every distinct solve line's replies must carry the cost an in-process
/// `Solve` of the same request computes, bit for bit, whether they came
/// from a hit, a miss or a shared build, and stay within the capacity
/// bound. Returns the cost over the flat reference's of each line phase
/// A sent (`sent_a`); phase B's lines are checked only.
fn verify_solves(sent_a: &[Sent], sent_b: &[Sent], seed: u64) -> Result<Vec<f64>, String> {
    // line -> (sent in phase A, replies)
    let mut by_line: BTreeMap<&str, (bool, Vec<&str>)> = BTreeMap::new();
    let phases = [(true, sent_a), (false, sent_b)];
    for (in_a, sent) in phases {
        for s in sent.iter().filter(|s| s.line.starts_with("solve ")) {
            if let Some((reply, _)) = &s.reply {
                let entry = by_line.entry(canonical(&s.line)).or_default();
                entry.0 |= in_a;
                entry.1.push(reply.as_str());
            }
        }
    }
    let lines: Vec<_> = by_line.into_iter().collect();
    // two verifier threads, one per core
    let results = std::thread::scope(|scope| {
        let hs: Vec<_> = lines
            .chunks(lines.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || -> Result<Vec<f64>, String> {
                    let mut ratios = Vec::new();
                    for (line, (in_a, replies)) in chunk.iter() {
                        ratios.extend(verify_line(line, replies, *in_a, seed)?);
                    }
                    Ok(ratios)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("verifier panicked"))
            .collect::<Result<Vec<Vec<f64>>, String>>()
    })?;
    Ok(results.into_iter().flatten().collect())
}

/// Checks one line's replies; with `reference`, also returns its cost
/// over the flat reference's.
fn verify_line(
    line: &str,
    replies: &[&str],
    reference: bool,
    seed: u64,
) -> Result<Option<f64>, String> {
    let op = format!("serve-mixed line {line:?}");
    let Ok(Request::Solve(spec)) = Request::parse(line) else {
        return Err(format!("{op}: does not parse as a solve"));
    };
    let inst = spec.instance().map_err(|e| format!("{op}: {}", e.msg))?;
    let opts = SolverOptions::builder()
        .trees(spec.trees)
        .units(spec.units)
        .seed(spec.seed)
        .threads(Parallelism::serial())
        .build();
    let rep = Solve::new(&inst, &spec.machine)
        .options(opts)
        .run()
        .map_err(|e| format!("{op}: in-process solve failed: {e}"))?;
    for reply in replies.iter().filter(|r| r.starts_with("ok")) {
        let cost = num(reply, "cost").ok_or_else(|| format!("{op}: reply has no cost: {reply}"))?;
        if cost.to_bits() != rep.cost.to_bits() {
            return Err(format!(
                "{op}: reply cost {cost} (cache={}) but an in-process solve gives {}",
                reply_field(reply, "cache").unwrap_or("?"),
                rep.cost
            ));
        }
        let worst = num(reply, "worst-factor")
            .ok_or_else(|| format!("{op}: reply has no worst-factor: {reply}"))?;
        check::within_bicriteria(&op, worst, spec.units, spec.machine.height())?;
    }
    Ok(reference.then(|| rep.cost / flat_reference(&inst, &spec.machine, seed)))
}

/// Replays the session lines, in the order the server applied them, on a
/// local `Session` and requires the same cost in every reply.
fn verify_session(log: &[(String, String)]) -> Result<(), String> {
    let h = parse_hierarchy(MACHINE).map_err(|e| e.to_string())?;
    let mut local = Session::new(h);
    for (i, (line, reply)) in log.iter().enumerate() {
        let op = format!("serve-mixed session line {i}");
        let ours = match Request::parse(line) {
            Ok(Request::Incr(IncrOp::Mutate { ops, .. })) => {
                local.apply(&ops).map(|d| d.cost).map_err(|e| e.to_string())
            }
            Ok(Request::Incr(IncrOp::Resolve { budget, .. })) => {
                let mut b = ChurnBudget::default();
                if let Some(m) = budget {
                    b.max_moves = m;
                }
                Ok(local
                    .resolve(&ReplaceOptions::builder().budget(b).build())
                    .cost)
            }
            _ => return Err(format!("{op}: unexpected line {line}")),
        };
        match (ours, num(reply, "cost")) {
            (Ok(a), Some(b)) if a.to_bits() == b.to_bits() => {}
            (Err(_), None) if reply.starts_with("err") => {}
            (ours, _) => {
                return Err(format!(
                    "{op}: server replied {reply:.120} but a local session gives {ours:?}"
                ))
            }
        }
    }
    Ok(())
}

/// `after - before` of one `stats2` counter.
fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let sizes = Sizes::new(cfg.quick);
    let build = || start(cfg.seed, sizes);
    let (mut env, first_setup) = super::setup_once(build)?;
    let secs_a = (cfg.seconds / 2.0).max(MIN_PHASE_A_LINES / sizes.rate);
    let secs_b = cfg.seconds / 2.0;
    let events = schedule(cfg.seed, secs_a, &env.base, sizes);
    let mix = Mix::new(cfg.seed, 0, 0.0, &env.base, sizes);

    let before = env.ctl.stats2()?;
    let t_a = Instant::now();
    let origin = t_a + Duration::from_millis(20);
    let (sent_a, lag, speed_a) = open_loop(&env, &mix, &events, cfg, origin)?;
    let wall_a = t_a.elapsed().as_secs_f64();
    let after = env.ctl.stats2()?;
    let (sent_b, done_b, wall_b, speed_b) = closed_loop(&env, cfg, secs_b, sizes)?;
    let last = env.ctl.stats2()?;
    for key in ["pool.worker-deaths", "pool.solve-panics"] {
        if last.get(key).copied().unwrap_or(0.0) != 0.0 {
            return Err(format!("serve-mixed: stats2 reports {key} = {}", last[key]));
        }
    }
    drop(env.ctl);
    drop(env.server);
    // peak RSS before the set-up repeats and the in-process checks below,
    // neither of which is part of the measured run
    let mut values = Values::default();
    if !cfg.traced {
        set_peak_rss(&mut values)?;
        values.set("setup_s", super::setup_median(first_setup, build)?);
    }

    let mut failed = 0u64;
    for s in sent_a.iter().chain(&sent_b) {
        let ok = s
            .reply
            .as_ref()
            .is_some_and(|(r, _)| r.starts_with("ok") && reply_field(r, "degraded") != Some("1"));
        if !ok {
            if failed < 5 {
                eprintln!("serve-mixed: {:.80} -> {:?}", s.line, s.reply);
            }
            failed += 1;
        }
    }
    let mut log = env.session_log;
    for s in sent_a.iter().chain(&sent_b) {
        if s.line.starts_with("place-incremental") {
            if let Some((reply, _)) = &s.reply {
                log.push((s.line.clone(), reply.clone()));
            }
        }
    }
    verify_session(&log)?;
    let ratios = verify_solves(&sent_a, &sent_b, cfg.seed)?;

    let is_solve = |s: &&Sent| s.line.starts_with("solve ");
    let sample = |s: &Sent, ms: f64| Sample {
        class: s.class,
        at: s.due.saturating_duration_since(origin).as_secs_f64(),
        ms,
    };
    let mut tracer = Tracer::new(cfg.traced, origin);
    let mut notes = Vec::new();
    if cfg.traced {
        let (mut dp, mut repair, mut entries, mut pruned) = (vec![], vec![], vec![], vec![]);
        let (mut traced, mut plain) = (vec![], vec![]);
        for (op, s) in sent_a.iter().enumerate() {
            let (Some((reply, _)), Some(lat)) = (&s.reply, s.latency_ms()) else {
                continue;
            };
            if !s.line.starts_with("solve ") {
                let at = tracer.offset_us(s.due);
                tracer.span_us(op as u64, "server.session", None, at, lat * 1e3);
                continue;
            }
            // tracing's cost is in the server's own time for the request
            if let Some(us) = num(reply, "elapsed-us") {
                let server = sample(s, us / 1e3);
                if s.line.ends_with("trace=1") {
                    &mut traced
                } else {
                    &mut plain
                }
                .push(server);
            }
            let (Some(elapsed), Some(wait), Some(dist), Some(sweep)) = (
                num(reply, "elapsed-us"),
                num(reply, "trace.queue-wait-us"),
                num(reply, "trace.distribution-us"),
                num(reply, "trace.sweep-us"),
            ) else {
                continue;
            };
            let at = tracer.offset_us(s.due);
            let root = tracer.span_us(op as u64, OP, None, at, lat * 1e3);
            let front = lat * 1e3 - elapsed;
            let mut t = at;
            let built = reply_field(reply, "cache") == Some("miss");
            for (name, d) in [
                ("server.front", front),
                ("server.queue_wait", wait),
                (
                    if built {
                        "decomp.build"
                    } else {
                        "server.cache"
                    },
                    dist,
                ),
                ("core.sweep", sweep),
            ] {
                tracer.span_us(op as u64, name, Some(root), t, d);
                t += d;
            }
            dp.push(sample(
                s,
                num(reply, "trace.dp-cpu-us").unwrap_or(0.0) / 1e3,
            ));
            repair.push(sample(
                s,
                num(reply, "trace.repair-cpu-us").unwrap_or(0.0) / 1e3,
            ));
            entries.push(num(reply, "trace.dp-entries").unwrap_or(0.0));
            pruned.push(num(reply, "trace.dp-pruned").unwrap_or(0.0));
        }
        to_reference(&speed_a, secs_a, &mut plain, &mut traced, &mut tracer);
        speed_a.normalize(&mut dp, secs_a);
        speed_a.normalize(&mut repair, secs_a);
        let ms_of = |xs: &[Sample]| -> Vec<f64> { xs.iter().map(|s| s.ms).collect() };
        let d = |name: &str| tracer.durations_ms(name);
        set_median(&mut values, "decomp.build_ms.p50", &d("decomp.build"));
        set_tail(&mut values, "decomp.build_ms.p90", &d("decomp.build"), 0.9);
        set_median(&mut values, "core.sweep_ms.p50", &d("core.sweep"));
        set_tail(&mut values, "core.sweep_ms.p90", &d("core.sweep"), 0.9);
        set_median(&mut values, "core.dp_cpu_ms.p50", &ms_of(&dp));
        set_median(&mut values, "core.repair_cpu_ms.p50", &ms_of(&repair));
        values.set("core.dp_entries_per_op", stats::mean(&entries));
        values.set("core.dp_pruned_per_op", stats::mean(&pruned));
        set_median(&mut values, "server.front_ms.p50", &d("server.front"));
        set_tail(&mut values, "server.front_ms.p90", &d("server.front"), 0.9);
        set_median(
            &mut values,
            "server.queue_wait_ms.p50",
            &d("server.queue_wait"),
        );
        set_tail(
            &mut values,
            "server.queue_wait_ms.p90",
            &d("server.queue_wait"),
            0.9,
        );
        set_median(&mut values, "server.session_ms.p50", &d("server.session"));
        values.set(
            "server.pool_utilization",
            delta(&before, &after, "pool.busy-us") / (2.0 * wall_a * 1e6),
        );
        let solves_a: Vec<&Sent> = sent_a.iter().filter(is_solve).collect();
        let hits = solves_a
            .iter()
            .filter(|s| s.reply.as_ref().and_then(|(r, _)| reply_field(r, "cache")) == Some("hit"))
            .count();
        values.set("server.cache_hit_frac", hits as f64 / solves_a.len() as f64);
        let builds = delta(&before, &after, "cache.builds");
        values.set(
            "server.cache_builds_per_kreq",
            builds * 1e3 / solves_a.len() as f64,
        );
        values.set(
            "server.overloaded",
            delta(&before, &after, "solve.overloaded"),
        );
        let coalesced = delta(&before, &after, "cache.coalesced");
        values.set(
            "server.flight_coalesced_frac",
            coalesced / (builds + coalesced).max(1.0),
        );
        set_tail(&mut values, "client.gen_lag_ms.p95", &lag, 0.95);
        values.set("trace.coverage", tracer.coverage());
        values.set("trace.overhead_frac", super::overhead(&traced, &plain, 4));
    } else {
        let mut samples: Vec<Sample> = sent_a
            .iter()
            .filter_map(|s| Some(sample(s, s.latency_ms()?)))
            .collect();
        speed_a.normalize(&mut samples, secs_a);
        // Every window counts: in an open loop a window's latency depends
        // on how many requests its Poisson draw put in it, so a quieter
        // half would be picked by the draw more than by the host. Hits and
        // builds differ several-fold, so the median of the pooled replies
        // would swing with the realised mix; each kind of request gets its
        // own median instead.
        let medians = class_medians(&samples, &samples, CLASSES);
        let shown: Vec<String> = medians.iter().map(|m| format!("{m:.3}")).collect();
        notes.push(format!(
            "p50_ms by class (hot twin unique burst mutate resolve): {}",
            shown.join(" ")
        ));
        let all: Vec<f64> = samples.iter().map(|s| s.ms).collect();
        values.set(
            "ops_per_s",
            stats::quiet_rate(&done_b, wall_b, &speed_b.factors(wall_b)),
        );
        values.set(
            "lat_p50_ms",
            stats::geomean(&medians).ok_or("serve-mixed: no replies")?,
        );
        values.set(
            "lat_tail_ms",
            stats::tail(&all, 0.9).ok_or("serve-mixed: too few replies for a p90")?,
        );
        values.set(
            "cost_ratio",
            stats::geomean(&ratios).ok_or("serve-mixed: no solves")?,
        );
    }
    let lag_p95 = stats::tail(&lag, 0.95).unwrap_or(f64::NAN);
    Ok(Outcome {
        attempted: (sent_a.len() + sent_b.len()) as u64,
        failed,
        values,
        notes: [format!(
            "phase_a_lines={} phase_b_lines={} cost_samples={} gen_lag_p95_ms={lag_p95:.3} \
             utilization={:.3} host_speed={:.3}",
            sent_a.len(),
            sent_b.len(),
            ratios.len(),
            delta(&before, &after, "pool.busy-us") / (2.0 * wall_a * 1e6),
            speed_a.overall()
        )]
        .into_iter()
        .chain(notes)
        .collect(),
        tracer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_and_hot_keys_never_meet_cold_ones() {
        let sizes = Sizes::new(false);
        let base = vec![0.05; 200];
        let a = schedule(7, 20.0, &base, sizes);
        assert_eq!(a, schedule(7, 20.0, &base, sizes));
        assert_ne!(a, schedule(8, 20.0, &base, sizes));
        let mix = Mix::new(7, 0, 0.0, &base, sizes);
        // every seed offers the same load and mix: `rate` lines a second,
        // each class with its share
        for s in [7, 8, 9] {
            let events = schedule(s, 20.0, &base, sizes);
            let lines: usize = events
                .iter()
                .map(|(_, k)| mix.lines(k, 1, false).len())
                .sum();
            assert!(
                (lines as f64 / 20.0 - sizes.rate).abs() < 1.0,
                "{lines} lines"
            );
            for (c, share) in PHASE_A_SHARES.iter().enumerate() {
                let n = events.iter().filter(|(_, k)| k.class() == c).count();
                assert_eq!(n, (share * 20.0 * sizes.rate / 1.3).round() as usize);
            }
            assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        }
        let graphs =
            |kinds: &mut dyn Iterator<Item = &Kind>| -> std::collections::BTreeSet<String> {
                kinds
                    .flat_map(|k| mix.lines(k, 1, false))
                    .filter_map(|l| reply_field(&l, "graph").map(str::to_string))
                    .collect()
            };
        let hot = graphs(
            &mut a
                .iter()
                .map(|(_, k)| k)
                .filter(|k| matches!(k, Kind::Hot(_) | Kind::Twin(..))),
        );
        let cold = graphs(
            &mut a
                .iter()
                .map(|(_, k)| k)
                .filter(|k| matches!(k, Kind::Unique(_) | Kind::Burst(_))),
        );
        assert!(!hot.is_empty() && !cold.is_empty());
        assert!(hot.is_disjoint(&cold));
        assert!(hot.len() <= sizes.hot);
        // phase B streams draw cold keys of their own
        let mut b = Mix::new(7, 1, 0.0, &base, sizes);
        let mut c = Mix::new(7, 2, 0.0, &base, sizes);
        assert_ne!(b.cold(), c.cold());
    }
}
