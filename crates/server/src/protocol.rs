//! Wire protocol: newline-delimited text requests and replies.
//!
//! One request per line, fields are space-separated `key=value` tokens
//! after the command word(s); one reply line per request. Grammar (see
//! DESIGN.md §server for the full treatment):
//!
//! ```text
//! solve graph=<spec> machine=<desc> [demand=<f>] [demands=<f,..>]
//!       [units=<u>] [trees=<p>] [seed=<s>] [deadline-ms=<d>]
//!       [refine=0|1] [assignment=0|1] [trace=0|1] [multilevel=0|1]
//! place-incremental new machine=<desc>
//! place-incremental mutate session=<id> <mutation>...
//! place-incremental resolve session=<id> [budget=<n>] [ratio=<f>] [cold=0|1]
//! place-incremental info session=<id>
//! place-incremental end session=<id>
//! stats2
//! shutdown
//! ```
//!
//! `stats2` is the versioned registry snapshot (`version=2` plus
//! `req.*`/`solve.*`/`pool.*`/`cache.*`/`session.*` keys — reference in
//! `docs/PROTOCOL.md`). `trace=1` on a `solve` appends per-stage
//! `trace.*` profiling tokens to the `ok` reply.
//!
//! A `mutate` line carries one transactional batch: every token after
//! `session=` is one mutation, applied in line order, all-or-nothing
//! (the whole batch is validated before anything commits). Mutation
//! tokens:
//!
//! ```text
//! add=<demand>[:<t>:<w>,..]   add a task (optional weighted neighbours)
//! remove=<t>                  remove a live task
//! demand=<t>:<d>              update a live task's demand
//! drain=<l>                   drain leaf l (evacuate + fence off)
//! grow=<g>                    add g level-1 machine groups
//! mult=<lvl>:<m>              re-scale one level's cost multiplier
//! ```
//!
//! `resolve` re-places the session's live tasks under a churn budget
//! (at most `budget` tasks leave their current leaves; `ratio` trades
//! cost slack for fewer moves; `cold=1` forces a distribution rebuild).
//! The reply carries `moves=`/`churn=`/`warm=` tokens; `warm=1` means
//! the cached tree distribution was reused.
//!
//! Graph specs: `edges:<n>:<u>-<v>:<w>,...` inlines a weighted edge list;
//! `gen:stream:<seed>`, `gen:mesh:<r>x<c>:<seed>`, `gen:powerlaw:<n>:<seed>`
//! and `gen:clustered:<b>x<s>:<seed>` draw from the `hgp-workloads`
//! families. Replies are `ok key=value ...` or `err <code> <message>`.

use hgp_core::Instance;
use hgp_graph::generators;
use hgp_graph::Graph;
use hgp_hierarchy::{parse_hierarchy, Hierarchy, ParseErrorKind};
use hgp_workloads::{stream_dag, StreamOpts};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Machine-readable error classes on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrCode {
    /// Malformed or semantically invalid request.
    BadRequest,
    /// The request graph exceeds the inline size caps
    /// ([`MAX_INLINE_NODES`] nodes / [`MAX_INLINE_EDGES`] edges).
    GraphTooLarge,
    /// The machine descriptor exceeds the supported height or leaf caps.
    MachineTooLarge,
    /// Solver queue is full — retry later (backpressure).
    Overloaded,
    /// Unknown session or task id.
    NotFound,
    /// The solve itself failed (infeasible, disconnected, …).
    SolveFailed,
    /// An internal fault (caught panic) — the request may be fine.
    Internal,
    /// Server is draining after `shutdown`.
    ShuttingDown,
}

impl ErrCode {
    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrCode::BadRequest => "bad-request",
            ErrCode::GraphTooLarge => "graph-too-large",
            ErrCode::MachineTooLarge => "machine-too-large",
            ErrCode::Overloaded => "overloaded",
            ErrCode::NotFound => "not-found",
            ErrCode::SolveFailed => "solve-failed",
            ErrCode::Internal => "internal",
            ErrCode::ShuttingDown => "shutting-down",
        }
    }
}

/// A structured error reply.
#[derive(Clone, Debug)]
pub struct WireError {
    /// Error class.
    pub code: ErrCode,
    /// Human-readable detail (single line).
    pub msg: String,
}

impl WireError {
    /// Convenience constructor.
    pub fn new(code: ErrCode, msg: impl Into<String>) -> Self {
        Self {
            code,
            msg: msg.into(),
        }
    }

    /// `bad-request` shorthand.
    pub fn bad(msg: impl Into<String>) -> Self {
        Self::new(ErrCode::BadRequest, msg)
    }

    /// Formats the reply line (newline excluded).
    pub fn to_line(&self) -> String {
        format!("err {} {}", self.code.as_str(), self.msg.replace('\n', " "))
    }
}

/// Hard caps on inline request sizes, keeping a single request line from
/// monopolising server memory.
pub const MAX_INLINE_NODES: usize = 65_536;
/// Companion cap on inline edge count.
pub const MAX_INLINE_EDGES: usize = 1_048_576;
/// Largest accepted `deadline-ms`. An unbounded value would overflow the
/// `Instant + Duration` deadline arithmetic (itself a wire-reachable
/// panic); anything above ten minutes is effectively "no deadline".
pub const MAX_DEADLINE_MS: u64 = 600_000;
/// Longest request line the event loop buffers. A line still
/// unterminated past this size draws `err bad-request`, and the
/// connection closes once its earlier replies are sent.
pub const MAX_LINE_BYTES: usize = 64 << 20;
/// High-water mark on a connection's reply bytes not yet accepted by its
/// socket. Above it the event loop stops reading the connection's
/// requests until the client reads, so a client that pipelines without
/// reading stalls only itself.
pub const MAX_UNSENT_BYTES: usize = 1 << 20;
/// High-water mark on a connection's queued replies (answered or still
/// solving), with the same effect as [`MAX_UNSENT_BYTES`].
pub const MAX_QUEUED_REPLIES: usize = 1024;

/// How a request describes its communication graph.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// Inline weighted edge list on `n` nodes.
    Edges {
        /// Node count.
        n: usize,
        /// `(u, v, w)` triples.
        edges: Vec<(u32, u32, f64)>,
    },
    /// A named workload family drawn with its own seed.
    Gen(GenFamily),
}

/// Generated workload families (mirrors `hgp-workloads`).
#[derive(Clone, Debug, PartialEq)]
pub enum GenFamily {
    /// Streaming-operator DAG (volume demands built in).
    Stream {
        /// Generator seed.
        seed: u64,
    },
    /// 2-D mesh.
    Mesh {
        /// Rows.
        rows: usize,
        /// Columns.
        cols: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Barabási–Albert power-law service graph.
    Powerlaw {
        /// Node count.
        n: usize,
        /// Generator seed.
        seed: u64,
    },
    /// Planted modules + sparse backbone.
    Clustered {
        /// Number of blocks.
        blocks: usize,
        /// Nodes per block.
        size: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl GraphSpec {
    /// Parses a `graph=` value.
    pub fn parse(spec: &str) -> Result<Self, WireError> {
        let mut parts = spec.splitn(2, ':');
        let kind = parts.next().unwrap_or_default();
        let rest = parts.next().unwrap_or_default();
        match kind {
            "edges" => Self::parse_edges(rest),
            "gen" => Self::parse_gen(rest).map(GraphSpec::Gen),
            other => Err(WireError::bad(format!(
                "unknown graph spec kind {other:?} (want edges:… or gen:…)"
            ))),
        }
    }

    fn parse_edges(rest: &str) -> Result<Self, WireError> {
        let (n_str, list) = rest
            .split_once(':')
            .ok_or_else(|| WireError::bad("edges spec needs edges:<n>:<u>-<v>:<w>,…"))?;
        let n: usize = n_str
            .parse()
            .map_err(|_| WireError::bad(format!("bad node count {n_str:?}")))?;
        if n == 0 {
            return Err(WireError::bad("node count must be at least 1"));
        }
        if n > MAX_INLINE_NODES {
            return Err(WireError::new(
                ErrCode::GraphTooLarge,
                format!("node count {n} exceeds the inline cap of {MAX_INLINE_NODES}"),
            ));
        }
        let mut edges = Vec::new();
        for item in list.split(',').filter(|s| !s.is_empty()) {
            let (uv, w_str) = item
                .rsplit_once(':')
                .ok_or_else(|| WireError::bad(format!("bad edge {item:?} (want u-v:w)")))?;
            let (u_str, v_str) = uv
                .split_once('-')
                .ok_or_else(|| WireError::bad(format!("bad edge {item:?} (want u-v:w)")))?;
            let u: u32 = u_str
                .parse()
                .map_err(|_| WireError::bad(format!("bad endpoint {u_str:?}")))?;
            let v: u32 = v_str
                .parse()
                .map_err(|_| WireError::bad(format!("bad endpoint {v_str:?}")))?;
            let w: f64 = w_str
                .parse()
                .map_err(|_| WireError::bad(format!("bad weight {w_str:?}")))?;
            if u as usize >= n || v as usize >= n || u == v {
                return Err(WireError::bad(format!("edge {item:?} out of range")));
            }
            if !(w.is_finite() && w > 0.0) {
                return Err(WireError::bad(format!("edge weight {w} must be positive")));
            }
            edges.push((u, v, w));
            if edges.len() > MAX_INLINE_EDGES {
                return Err(WireError::new(
                    ErrCode::GraphTooLarge,
                    format!("more than {MAX_INLINE_EDGES} inline edges"),
                ));
            }
        }
        if edges.is_empty() {
            return Err(WireError::bad("edges spec lists no edges"));
        }
        Ok(GraphSpec::Edges { n, edges })
    }

    fn parse_gen(rest: &str) -> Result<GenFamily, WireError> {
        let fields: Vec<&str> = rest.split(':').collect();
        let seed_of = |s: &str| -> Result<u64, WireError> {
            s.parse()
                .map_err(|_| WireError::bad(format!("bad generator seed {s:?}")))
        };
        let dims_of = |s: &str| -> Result<(usize, usize), WireError> {
            let (a, b) = s
                .split_once('x')
                .ok_or_else(|| WireError::bad(format!("bad dimensions {s:?} (want AxB)")))?;
            let a = a
                .parse::<usize>()
                .map_err(|_| WireError::bad(format!("bad dimension {s:?}")))?;
            let b = b
                .parse::<usize>()
                .map_err(|_| WireError::bad(format!("bad dimension {s:?}")))?;
            if a == 0 || b == 0 {
                return Err(WireError::bad(format!("dimensions {s:?} out of range")));
            }
            if a * b > MAX_INLINE_NODES {
                return Err(WireError::new(
                    ErrCode::GraphTooLarge,
                    format!("dimensions {s:?} describe more than {MAX_INLINE_NODES} nodes"),
                ));
            }
            Ok((a, b))
        };
        match fields.as_slice() {
            ["stream", s] => Ok(GenFamily::Stream { seed: seed_of(s)? }),
            ["mesh", dims, s] => {
                let (rows, cols) = dims_of(dims)?;
                Ok(GenFamily::Mesh {
                    rows,
                    cols,
                    seed: seed_of(s)?,
                })
            }
            ["powerlaw", n, s] => {
                let n = n
                    .parse::<usize>()
                    .map_err(|_| WireError::bad(format!("bad node count {n:?}")))?;
                if n < 3 {
                    return Err(WireError::bad(format!("powerlaw size {n} out of range")));
                }
                if n > MAX_INLINE_NODES {
                    return Err(WireError::new(
                        ErrCode::GraphTooLarge,
                        format!("powerlaw size {n} exceeds the inline cap of {MAX_INLINE_NODES}"),
                    ));
                }
                Ok(GenFamily::Powerlaw { n, seed: seed_of(s)? })
            }
            ["clustered", dims, s] => {
                let (blocks, size) = dims_of(dims)?;
                Ok(GenFamily::Clustered {
                    blocks,
                    size,
                    seed: seed_of(s)?,
                })
            }
            _ => Err(WireError::bad(format!(
                "unknown generator spec gen:{rest} (want stream:<seed>, mesh:<r>x<c>:<seed>, powerlaw:<n>:<seed>, clustered:<b>x<s>:<seed>)"
            ))),
        }
    }

    /// Materialises the spec into a graph, plus generator-supplied demands
    /// where the family defines them (the stream DAG's volume demands).
    pub fn build(&self) -> Result<(Graph, Option<Vec<f64>>), WireError> {
        match self {
            GraphSpec::Edges { n, edges } => Ok((Graph::from_edges(*n, edges), None)),
            GraphSpec::Gen(family) => match *family {
                GenFamily::Stream { seed } => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let inst = stream_dag(
                        &mut rng,
                        &StreamOpts {
                            queries: 6,
                            depth: 4,
                            max_width: 3,
                            join_prob: 0.2,
                            max_demand: 0.35,
                            ..Default::default()
                        },
                    );
                    let demands = inst.demands().to_vec();
                    Ok((inst.graph().clone(), Some(demands)))
                }
                GenFamily::Mesh { rows, cols, seed } => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    Ok((generators::grid2d(&mut rng, rows, cols, 0.5, 2.0), None))
                }
                GenFamily::Powerlaw { n, seed } => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    Ok((generators::barabasi_albert(&mut rng, n, 2, 0.5, 3.0), None))
                }
                GenFamily::Clustered { blocks, size, seed } => {
                    let mut rng = StdRng::seed_from_u64(seed);
                    Ok((
                        generators::planted_clusters(&mut rng, blocks, size, 0.5, 3.0, 0.05, 0.3),
                        None,
                    ))
                }
            },
        }
    }
}

/// A fully-parsed `solve` request.
#[derive(Clone, Debug)]
pub struct SolveSpec {
    /// Communication graph description.
    pub graph: GraphSpec,
    /// Target machine.
    pub machine: Hierarchy,
    /// Uniform demand override.
    pub demand: Option<f64>,
    /// Per-task demand override.
    pub demands: Option<Vec<f64>>,
    /// Rounding grid units.
    pub units: u32,
    /// Decomposition trees in the distribution.
    pub trees: usize,
    /// Pipeline seed.
    pub seed: u64,
    /// Soft deadline after which the reply degrades to the baseline path.
    pub deadline_ms: Option<u64>,
    /// Post-solve hierarchy-aware refinement.
    pub refine: bool,
    /// Include the full assignment vector in the reply.
    pub want_assignment: bool,
    /// Append structured `trace.*` profiling tokens (stage timings, DP
    /// sizes, cache and queue facts) to the `ok` reply.
    pub trace: bool,
    /// Route the solve through the multilevel V-cycle (coarsen → exact
    /// core → refine) instead of the flat distribution sweep.
    pub multilevel: bool,
}

impl SolveSpec {
    /// Builds the `Instance` this spec describes.
    pub fn instance(&self) -> Result<Instance, WireError> {
        let (graph, gen_demands) = self.graph.build()?;
        let n = graph.num_nodes();
        let k = self.machine.num_leaves();
        let demands = if let Some(ds) = &self.demands {
            if ds.len() != n {
                return Err(WireError::bad(format!(
                    "expected {n} demands, got {}",
                    ds.len()
                )));
            }
            ds.clone()
        } else if let Some(d) = self.demand {
            vec![d; n]
        } else if let Some(ds) = gen_demands {
            ds
        } else {
            vec![(0.8 * k as f64 / n as f64).min(1.0); n]
        };
        // typed validation (rejects NaN and out-of-range without panicking)
        Instance::try_new(graph, demands).map_err(|e| WireError::bad(e.to_string()))
    }
}

/// One `place-incremental` operation.
#[derive(Clone, Debug)]
pub enum IncrOp {
    /// Open a session on a machine.
    New {
        /// Target machine.
        machine: Hierarchy,
    },
    /// Apply a transactional batch of typed mutations, all-or-nothing.
    Mutate {
        /// Session id.
        session: u64,
        /// Mutations in line order.
        ops: Vec<hgp_core::Mutation>,
    },
    /// Warm-started re-solve under a churn budget.
    Resolve {
        /// Session id.
        session: u64,
        /// Maximum tasks that may leave their current leaves
        /// (`None` = unlimited).
        budget: Option<usize>,
        /// Cost-ratio slack traded for fewer moves (`None` = 1.0).
        ratio: Option<f64>,
        /// Force a cold distribution rebuild.
        cold: bool,
    },
    /// Report session state.
    Info {
        /// Session id.
        session: u64,
    },
    /// Close a session.
    End {
        /// Session id.
        session: u64,
    },
}

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Full offline solve through the pool.
    Solve(Box<SolveSpec>),
    /// Session-scoped incremental mutation.
    Incr(IncrOp),
    /// Versioned metrics snapshot rendered from the `hgp-obs` registry.
    Stats2,
    /// Graceful shutdown.
    Shutdown,
}

fn parse_kv(tok: &str) -> Result<(&str, &str), WireError> {
    tok.split_once('=')
        .ok_or_else(|| WireError::bad(format!("expected key=value, got {tok:?}")))
}

fn parse_num<T: std::str::FromStr>(key: &str, val: &str) -> Result<T, WireError> {
    val.parse()
        .map_err(|_| WireError::bad(format!("bad value {val:?} for {key}")))
}

fn parse_flag(key: &str, val: &str) -> Result<bool, WireError> {
    match val {
        "0" | "false" => Ok(false),
        "1" | "true" => Ok(true),
        _ => Err(WireError::bad(format!("bad flag {val:?} for {key}"))),
    }
}

fn parse_machine(desc: &str) -> Result<Hierarchy, WireError> {
    parse_hierarchy(desc).map_err(|e| {
        // descriptors that are merely too big for the solver get their own
        // code so clients can tell "fix your syntax" from "shrink the
        // machine" without string-matching
        let code = match e.kind {
            ParseErrorKind::TooLarge => ErrCode::MachineTooLarge,
            ParseErrorKind::Invalid => ErrCode::BadRequest,
        };
        WireError::new(code, format!("bad machine {desc:?}: {e}"))
    })
}

fn parse_nbrs(val: &str) -> Result<Vec<(usize, f64)>, WireError> {
    let mut out = Vec::new();
    for item in val.split(',').filter(|s| !s.is_empty()) {
        let (t, w) = item
            .split_once(':')
            .ok_or_else(|| WireError::bad(format!("bad neighbour {item:?} (want task:w)")))?;
        let t: usize = parse_num("nbrs", t)?;
        let w: f64 = parse_num("nbrs", w)?;
        // same rule as inline graph edges: strictly positive and finite
        // (a zero-weight edge carries no communication and is just the
        // absence of an edge)
        if !(w.is_finite() && w > 0.0) {
            return Err(WireError::bad(format!(
                "neighbour weight {w} must be positive"
            )));
        }
        out.push((t, w));
    }
    Ok(out)
}

fn check_demand(d: f64) -> Result<f64, WireError> {
    if d > 0.0 && d <= 1.0 {
        Ok(d)
    } else {
        Err(WireError::bad(format!("demand {d} outside (0, 1]")))
    }
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, WireError> {
        let mut toks = line.split_whitespace();
        match toks.next() {
            None => Err(WireError::bad("empty request")),
            Some("solve") => Self::parse_solve(toks),
            Some("place-incremental") => Self::parse_incr(toks),
            Some("stats2") => Ok(Request::Stats2),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(cmd) => Err(WireError::bad(format!(
                "unknown command {cmd:?} (want solve | place-incremental | stats2 | shutdown)"
            ))),
        }
    }

    fn parse_solve<'a>(toks: impl Iterator<Item = &'a str>) -> Result<Request, WireError> {
        let mut graph = None;
        let mut machine = None;
        let mut demand = None;
        let mut demands = None;
        let mut units = 8u32;
        let mut trees = 8usize;
        let mut seed = 1u64;
        let mut deadline_ms = None;
        let mut refine = false;
        let mut want_assignment = false;
        let mut trace = false;
        let mut multilevel = false;
        for tok in toks {
            let (key, val) = parse_kv(tok)?;
            match key {
                "graph" => graph = Some(GraphSpec::parse(val)?),
                "machine" => machine = Some(val),
                "demand" => demand = Some(check_demand(parse_num(key, val)?)?),
                "demands" => {
                    let ds = val
                        .split(',')
                        .filter(|s| !s.is_empty())
                        .map(|s| parse_num::<f64>("demands", s).and_then(check_demand))
                        .collect::<Result<Vec<f64>, _>>()?;
                    demands = Some(ds);
                }
                "units" => units = parse_num::<u32>(key, val)?.max(1),
                "trees" => trees = parse_num::<usize>(key, val)?.clamp(1, 64),
                "seed" => seed = parse_num(key, val)?,
                "deadline-ms" => {
                    deadline_ms = Some(parse_num::<u64>(key, val)?.min(MAX_DEADLINE_MS))
                }
                "refine" => refine = parse_flag(key, val)?,
                "assignment" => want_assignment = parse_flag(key, val)?,
                "trace" => trace = parse_flag(key, val)?,
                "multilevel" => multilevel = parse_flag(key, val)?,
                _ => return Err(WireError::bad(format!("unknown solve field {key:?}"))),
            }
        }
        // the last `machine=` wins; only it is built, once, since building
        // a hierarchy costs time and memory in its leaf count
        let machine =
            parse_machine(machine.ok_or_else(|| WireError::bad("solve needs machine=…"))?)?;
        // The DP packs per-level demands into 16-bit signature lanes:
        // CP(j)·units must fit in u16 for every level. Capacities decrease
        // with depth, so checking the widest level (1) covers them all —
        // rejected here so an oversized `units=` is a `bad-request`, not a
        // panic inside a pool worker.
        let cap1 = machine.capacity(1) as u64;
        if cap1 * units as u64 > u16::MAX as u64 {
            return Err(WireError::bad(format!(
                "units={units} overflows the 16-bit signature lane on this \
                 machine (level-1 capacity {cap1}); max units is {}",
                u16::MAX as u64 / cap1
            )));
        }
        Ok(Request::Solve(Box::new(SolveSpec {
            graph: graph.ok_or_else(|| WireError::bad("solve needs graph=…"))?,
            machine,
            demand,
            demands,
            units,
            trees,
            seed,
            deadline_ms,
            refine,
            want_assignment,
            trace,
            multilevel,
        })))
    }

    fn parse_incr<'a>(mut toks: impl Iterator<Item = &'a str>) -> Result<Request, WireError> {
        let op = toks
            .next()
            .ok_or_else(|| WireError::bad("place-incremental needs an operation"))?;
        // `mutate` and `resolve` have their own grammars: `mutate` tokens
        // are order-sensitive (each one is a mutation in a transactional
        // batch) and reuse keys like `demand=` with different shapes
        match op {
            "mutate" => return Self::parse_mutate(toks).map(Request::Incr),
            "resolve" => return Self::parse_resolve(toks).map(Request::Incr),
            "new" | "info" | "end" => {}
            other => {
                return Err(WireError::bad(format!(
                    "unknown place-incremental op {other:?}"
                )))
            }
        }
        let mut machine = None;
        let mut session = None;
        for tok in toks {
            let (key, val) = parse_kv(tok)?;
            match key {
                "machine" => machine = Some(val),
                "session" => session = Some(parse_num::<u64>(key, val)?),
                _ => {
                    return Err(WireError::bad(format!(
                        "unknown place-incremental field {key:?}"
                    )))
                }
            }
        }
        let need_session =
            || session.ok_or_else(|| WireError::bad(format!("{op} needs session=…")));
        let op = match op {
            "new" => IncrOp::New {
                machine: parse_machine(
                    machine.ok_or_else(|| WireError::bad("new needs machine=…"))?,
                )?,
            },
            "info" => IncrOp::Info {
                session: need_session()?,
            },
            _ => IncrOp::End {
                session: need_session()?,
            },
        };
        Ok(Request::Incr(op))
    }

    fn parse_mutate<'a>(toks: impl Iterator<Item = &'a str>) -> Result<IncrOp, WireError> {
        use hgp_core::Mutation;
        let mut session = None;
        let mut ops = Vec::new();
        for tok in toks {
            let (key, val) = parse_kv(tok)?;
            match key {
                "session" => session = Some(parse_num::<u64>(key, val)?),
                "add" => {
                    let (d_str, nbrs_str) = match val.split_once(':') {
                        Some((d, rest)) => (d, rest),
                        None => (val, ""),
                    };
                    let demand = check_demand(parse_num("add", d_str)?)?;
                    let nbrs = parse_nbrs(nbrs_str)?;
                    ops.push(Mutation::AddTask { demand, nbrs });
                }
                "remove" => ops.push(Mutation::RemoveTask {
                    task: parse_num(key, val)?,
                }),
                "demand" => {
                    let (t, d) = val.split_once(':').ok_or_else(|| {
                        WireError::bad(format!("bad demand update {val:?} (want task:demand)"))
                    })?;
                    ops.push(Mutation::UpdateDemand {
                        task: parse_num("demand", t)?,
                        demand: check_demand(parse_num("demand", d)?)?,
                    });
                }
                "drain" => ops.push(Mutation::DrainLeaf {
                    leaf: parse_num(key, val)?,
                }),
                "grow" => ops.push(Mutation::AddLeaves {
                    groups: parse_num(key, val)?,
                }),
                "mult" => {
                    let (l, m) = val.split_once(':').ok_or_else(|| {
                        WireError::bad(format!("bad multiplier {val:?} (want level:mult)"))
                    })?;
                    let multiplier: f64 = parse_num("mult", m)?;
                    if !(multiplier.is_finite() && multiplier >= 0.0) {
                        return Err(WireError::bad(format!(
                            "multiplier {multiplier} must be finite and non-negative"
                        )));
                    }
                    ops.push(Mutation::SetMultiplier {
                        level: parse_num("mult", l)?,
                        multiplier,
                    });
                }
                _ => return Err(WireError::bad(format!("unknown mutation {key:?}"))),
            }
        }
        let session = session.ok_or_else(|| WireError::bad("mutate needs session=…"))?;
        if ops.is_empty() {
            return Err(WireError::bad("mutate needs at least one mutation"));
        }
        Ok(IncrOp::Mutate { session, ops })
    }

    fn parse_resolve<'a>(toks: impl Iterator<Item = &'a str>) -> Result<IncrOp, WireError> {
        let mut session = None;
        let mut budget = None;
        let mut ratio = None;
        let mut cold = false;
        for tok in toks {
            let (key, val) = parse_kv(tok)?;
            match key {
                "session" => session = Some(parse_num::<u64>(key, val)?),
                "budget" => budget = Some(parse_num::<usize>(key, val)?),
                "ratio" => {
                    let r: f64 = parse_num(key, val)?;
                    if !(r.is_finite() && r >= 1.0) {
                        return Err(WireError::bad(format!(
                            "ratio {r} must be finite and at least 1"
                        )));
                    }
                    ratio = Some(r);
                }
                "cold" => cold = parse_flag(key, val)?,
                _ => return Err(WireError::bad(format!("unknown resolve field {key:?}"))),
            }
        }
        Ok(IncrOp::Resolve {
            session: session.ok_or_else(|| WireError::bad("resolve needs session=…"))?,
            budget,
            ratio,
            cold,
        })
    }
}

/// Formats an inline edge-list spec for a graph — the inverse of
/// `GraphSpec::parse` for the `edges:` kind, used by load generators.
pub fn format_edges_spec(g: &Graph) -> String {
    use std::fmt::Write;
    let mut s = format!("edges:{}:", g.num_nodes());
    let mut first = true;
    for (_, u, v, w) in g.edges() {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{}-{}:{}", u.index(), v.index(), w);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_solve_with_inline_edges() {
        let req = Request::parse(
            "solve graph=edges:3:0-1:1.0,1-2:2.5 machine=2x2:4,1,0 units=16 trees=4 seed=9 deadline-ms=250 refine=1 assignment=1",
        )
        .unwrap();
        let Request::Solve(spec) = req else {
            panic!("not a solve")
        };
        assert_eq!(
            spec.graph,
            GraphSpec::Edges {
                n: 3,
                edges: vec![(0, 1, 1.0), (1, 2, 2.5)]
            }
        );
        assert_eq!(spec.machine.num_leaves(), 4);
        assert_eq!(spec.units, 16);
        assert_eq!(spec.trees, 4);
        assert_eq!(spec.seed, 9);
        assert_eq!(spec.deadline_ms, Some(250));
        assert!(spec.refine && spec.want_assignment);
        let inst = spec.instance().unwrap();
        assert_eq!(inst.num_tasks(), 3);
    }

    #[test]
    fn parses_generator_specs() {
        for spec in [
            "gen:stream:7",
            "gen:mesh:4x4:1",
            "gen:powerlaw:24:3",
            "gen:clustered:3x5:2",
        ] {
            let g = GraphSpec::parse(spec).unwrap();
            let (graph, _) = g.build().unwrap();
            assert!(graph.num_nodes() >= 3, "{spec} built {}", graph.num_nodes());
        }
    }

    #[test]
    fn generator_specs_are_deterministic() {
        let a = GraphSpec::parse("gen:powerlaw:24:3")
            .unwrap()
            .build()
            .unwrap()
            .0;
        let b = GraphSpec::parse("gen:powerlaw:24:3")
            .unwrap()
            .build()
            .unwrap()
            .0;
        let ea: Vec<_> = a
            .edges()
            .map(|(_, u, v, w)| (u.0, v.0, w.to_bits()))
            .collect();
        let eb: Vec<_> = b
            .edges()
            .map(|(_, u, v, w)| (u.0, v.0, w.to_bits()))
            .collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn parses_place_incremental_ops() {
        let ops = [
            "place-incremental new machine=2x4:4,1,0",
            "place-incremental mutate session=3 add=0.5:0:1.0,2:3.5 remove=1 demand=0:0.9",
            "place-incremental resolve session=3 budget=8",
            "place-incremental info session=3",
            "place-incremental end session=3",
        ];
        for line in ops {
            assert!(
                matches!(Request::parse(line), Ok(Request::Incr(_))),
                "{line}"
            );
        }
        let Ok(Request::Incr(IncrOp::Mutate { session, ops })) =
            Request::parse("place-incremental mutate session=3 add=0.5:0:1.0,2:3.5")
        else {
            panic!()
        };
        assert_eq!(session, 3);
        assert_eq!(
            ops,
            vec![hgp_core::Mutation::AddTask {
                demand: 0.5,
                nbrs: vec![(0, 1.0), (2, 3.5)],
            }]
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "",
            "frobnicate",
            "solve machine=2x2:4,1,0",
            "solve graph=edges:3:0-1:1.0",
            "solve graph=edges:0: machine=4",
            "solve graph=edges:3:0-5:1.0 machine=4",
            "solve graph=edges:3:0-1:-2.0 machine=4",
            "solve graph=gen:unknown:3 machine=4",
            "solve graph=edges:3:0-1:1.0 machine=4 demand=1.5",
            "solve graph=edges:3:0-1:1.0 machine=4 demand=NaN",
            "solve graph=edges:3:0-1:1.0 machine=4 demands=0.5,NaN,0.5",
            // oversized units would overflow the 16-bit signature lane
            "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 units=70000",
            // neighbour edges follow the same strictly-positive weight rule
            // as inline graph edges
            "place-incremental mutate session=1 add=0.5:0:0.0",
            "place-incremental mutate session=1 add=0.5:0:-1.0",
            "place-incremental mutate session=1 add=0.5:0:inf",
            "place-incremental mutate add=0.5",
            "place-incremental wat session=1",
            // the single-mutation verbs and v1 stats are gone
            "place-incremental add session=1 demand=0.5",
            "place-incremental remove session=1 task=0",
            "place-incremental resize session=1 task=0 demand=0.5",
            "place-incremental rebalance session=1 max-moves=8",
            "stats",
        ] {
            let err = Request::parse(line).err().map(|e| e.code);
            assert_eq!(err, Some(ErrCode::BadRequest), "{line:?} -> {err:?}");
        }
        for op in ["add", "remove", "resize", "rebalance"] {
            let e = Request::parse(&format!("place-incremental {op} session=1")).unwrap_err();
            assert!(e.msg.contains("unknown place-incremental op"), "{}", e.msg);
        }
        let e = Request::parse("stats").unwrap_err();
        assert!(
            !e.msg.contains("| stats |"),
            "hint still lists stats: {}",
            e.msg
        );
    }

    #[test]
    fn oversized_graphs_get_their_own_err_code() {
        for line in [
            // inline node count over the 65 536 cap
            "solve graph=edges:70000:0-1:1.0 machine=4",
            // generator families route through the same cap
            "solve graph=gen:mesh:1000x1000:1 machine=4",
            "solve graph=gen:powerlaw:70000:1 machine=4",
            "solve graph=gen:clustered:1000x1000:1 machine=4",
        ] {
            let e = Request::parse(line).unwrap_err();
            assert_eq!(e.code, ErrCode::GraphTooLarge, "{line:?} -> {e:?}");
            assert_eq!(
                e.to_line().split_whitespace().nth(1),
                Some("graph-too-large")
            );
        }
        // degenerate-but-small specs remain plain bad requests
        let e = Request::parse("solve graph=edges:0: machine=4").unwrap_err();
        assert_eq!(e.code, ErrCode::BadRequest);
        let e = Request::parse("solve graph=gen:powerlaw:2:1 machine=4").unwrap_err();
        assert_eq!(e.code, ErrCode::BadRequest);
    }

    #[test]
    fn oversized_machines_get_their_own_err_code() {
        for line in [
            // height 5 exceeds the 4-level signature-DP ceiling
            "solve graph=edges:2:0-1:1.0 machine=2x2x2x2x2:16,8,4,2,1,0",
            // 10^6 leaves exceeds the leaf cap
            "solve graph=edges:2:0-1:1.0 machine=1000x1000",
        ] {
            let e = Request::parse(line).unwrap_err();
            assert_eq!(e.code, ErrCode::MachineTooLarge, "{line:?} -> {e:?}");
            assert_eq!(
                e.to_line().split_whitespace().nth(1),
                Some("machine-too-large")
            );
        }
        // a syntactically broken machine is still a bad request
        let e = Request::parse("solve graph=edges:2:0-1:1.0 machine=2xfoo").unwrap_err();
        assert_eq!(e.code, ErrCode::BadRequest);
    }

    #[test]
    fn multilevel_flag_parses_and_defaults_off() {
        let base = "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0";
        let Ok(Request::Solve(spec)) = Request::parse(base) else {
            panic!()
        };
        assert!(!spec.multilevel, "multilevel must default off");
        let Ok(Request::Solve(spec)) = Request::parse(&format!("{base} multilevel=1")) else {
            panic!()
        };
        assert!(spec.multilevel);
        let Ok(Request::Solve(spec)) = Request::parse(&format!("{base} multilevel=false")) else {
            panic!()
        };
        assert!(!spec.multilevel);
        let err = Request::parse(&format!("{base} multilevel=2")).unwrap_err();
        assert_eq!(err.code, ErrCode::BadRequest);
    }

    #[test]
    fn near_field_is_rejected_as_unknown() {
        let base = "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0";
        for val in ["1", "0"] {
            let err = Request::parse(&format!("{base} near={val}")).unwrap_err();
            assert_eq!(err.code, ErrCode::BadRequest, "near={val}");
            assert!(err.msg.contains("unknown solve field"), "{}", err.msg);
        }
    }

    #[test]
    fn units_lane_bound_is_tight() {
        // 2x2 machine: capacity(1) = 2, so 32767 units fit and 32768 don't
        let ok = "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 units=32767";
        assert!(Request::parse(ok).is_ok());
        let over = "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 units=32768";
        let e = Request::parse(over).unwrap_err();
        assert_eq!(e.code, ErrCode::BadRequest);
        assert!(e.msg.contains("max units is 32767"), "{}", e.msg);
    }

    #[test]
    fn deadline_is_clamped_to_sane_range() {
        // u64::MAX would overflow `Instant + Duration` in the server
        let line = format!(
            "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0 deadline-ms={}",
            u64::MAX
        );
        let Ok(Request::Solve(spec)) = Request::parse(&line) else {
            panic!("huge deadline must still parse (clamped)");
        };
        assert_eq!(spec.deadline_ms, Some(MAX_DEADLINE_MS));
    }

    #[test]
    fn edges_spec_roundtrips() {
        let g = Graph::from_edges(4, &[(0, 1, 1.5), (1, 2, 2.0), (2, 3, 0.25)]);
        let spec = format_edges_spec(&g);
        let parsed = GraphSpec::parse(&spec).unwrap();
        let (g2, _) = parsed.build().unwrap();
        assert_eq!(g2.num_nodes(), 4);
        assert_eq!(g2.num_edges(), 3);
        let e: Vec<_> = g2.edges().map(|(_, u, v, w)| (u.0, v.0, w)).collect();
        assert_eq!(e, vec![(0, 1, 1.5), (1, 2, 2.0), (2, 3, 0.25)]);
    }

    #[test]
    fn stats2_and_shutdown_parse() {
        assert!(matches!(Request::parse("stats2"), Ok(Request::Stats2)));
        assert!(matches!(Request::parse("shutdown"), Ok(Request::Shutdown)));
    }

    #[test]
    fn trace_flag_parses_and_defaults_off() {
        let base = "solve graph=edges:2:0-1:1.0 machine=2x2:4,1,0";
        let Ok(Request::Solve(spec)) = Request::parse(base) else {
            panic!()
        };
        assert!(!spec.trace, "trace must default off");
        let Ok(Request::Solve(spec)) = Request::parse(&format!("{base} trace=1")) else {
            panic!()
        };
        assert!(spec.trace);
        let Ok(Request::Solve(spec)) = Request::parse(&format!("{base} trace=0")) else {
            panic!()
        };
        assert!(!spec.trace);
        let err = Request::parse(&format!("{base} trace=2")).unwrap_err();
        assert_eq!(err.code, ErrCode::BadRequest);
    }
}
