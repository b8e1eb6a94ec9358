//! The solver pool: bounded queueing, deadlines, graceful degradation.
//!
//! `solve` requests are pushed onto a bounded queue drained by N worker
//! threads. A full queue rejects immediately with `overloaded` — admission
//! control beats unbounded latency. Each request may carry a soft deadline;
//! the worker checks it at dequeue, after the (possibly cached) Räcke
//! distribution is ready, and between per-tree DP batches (a batch is one
//! [`Parallelism`] worker-width of trees fanned out via
//! `par_map_indexed`, so the deadline bounds work *started*, as §7.2
//! specifies, at batch granularity):
//!
//! * deadline already blown with no tree solved → fall back to the fast
//!   `hgp-baselines` path (multilevel k-way + hierarchy-aware refinement),
//!   reply tagged `degraded=1 mode=baseline`;
//! * blown mid-distribution with ≥1 tree solved → best assignment so far,
//!   `degraded=1 mode=partial`;
//! * otherwise the full Theorem-1 sweep, `degraded=0 mode=full`.
//!
//! Degraded replies are still *valid placements* — only the approximation
//! guarantee is surrendered, never correctness.
//!
//! # Panic isolation and supervision
//!
//! Every job runs inside `catch_unwind`: a panicking solve answers
//! `err internal` and the worker thread survives (`solve-panics` counts
//! these). As a second line of defence a supervisor thread polls the
//! worker handles and respawns any thread that died anyway — a bug that
//! slips past the isolation boundary costs one request, never a pool slot.
//! `pool.workers-alive` / `pool.worker-deaths` in `stats2` expose both
//! layers.
//!
//! # Single-flight coalescing
//!
//! Distribution builds are deduplicated through a
//! [`FlightGroup`] keyed by `distribution_fingerprint`: when N concurrent
//! solves share a fingerprint, one worker (the leader) runs
//! `Solve::distribution` while the rest park as followers and reuse the
//! leader's `Arc<Distribution>` (reply `cache=shared`, counted in
//! `cache.coalesced`). Because the fingerprint covers every input of the
//! build, the shared distribution is bit-identical to what each follower
//! would have built — determinism is preserved. A leader that panics
//! unparks its followers with `err internal` via the flight's
//! poison-on-drop guard; a follower whose deadline expires while parked
//! degrades to the baseline path like any other blown deadline.

use crate::cache::DecompCache;
use crate::flight::{FlightError, FlightGroup, FollowerOutcome, Ticket};
use crate::metrics::Metrics;
use crate::protocol::{ErrCode, SolveSpec, WireError};
use hgp_baselines::kway::{kway_partition, KwayOpts};
use hgp_baselines::refine::{refine, RefineOpts};
use hgp_core::fingerprint::distribution_fingerprint;
use hgp_core::solver::SolverOptions;
use hgp_core::tree_solver::solve_rooted;
use hgp_core::{Assignment, HgpError, MultilevelOptions, Parallelism, Solve, SolveTrace};
use hgp_decomp::{par_map_indexed, Distribution};
use hgp_multilevel::solve_multilevel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the supervisor checks for dead workers.
const SUPERVISE_EVERY: Duration = Duration::from_millis(20);

/// Where a finished reply line goes. The event loop's sink pushes it
/// onto the loop's completion queue and wakes the poller; tests
/// substitute a channel. If the pool shuts down with the job still
/// queued, the sink is dropped uncalled, and the event loop answers the
/// request `shutting-down` as it drains.
pub type ReplySink = Box<dyn FnOnce(String) + Send>;

/// One queued solve.
pub struct SolveJob {
    /// The parsed request.
    pub spec: SolveSpec,
    /// When the request was accepted (latency is measured from here).
    pub enqueued: Instant,
    /// Absolute deadline derived from `deadline-ms`, if any.
    pub deadline: Option<Instant>,
    /// Where the reply line goes.
    pub reply: ReplySink,
    /// Test hook: panic *outside* the isolation boundary, killing the
    /// worker thread outright. Not reachable from the wire — exists so
    /// tests can exercise the supervisor's respawn path.
    pub crash_worker: bool,
    /// Test hook: panic *inside* the isolation boundary, as a solver bug
    /// would. Not reachable from the wire — exercises the `err internal`
    /// catch_unwind path.
    pub panic_solve: bool,
    /// Test hook: panic inside the distribution build *after* winning
    /// single-flight leadership. Not reachable from the wire — exercises
    /// the leader-panic path (followers must be unparked with
    /// `err internal`, never left hanging).
    pub panic_in_build: bool,
}

impl SolveJob {
    /// A job with no test hooks, replying into `reply`.
    pub fn new(
        spec: SolveSpec,
        enqueued: Instant,
        deadline: Option<Instant>,
        reply: ReplySink,
    ) -> Self {
        Self {
            spec,
            enqueued,
            deadline,
            reply,
            crash_worker: false,
            panic_solve: false,
            panic_in_build: false,
        }
    }
}

/// The per-request facts a worker needs while solving (everything on
/// [`SolveJob`] except the reply sink, which is consumed separately).
struct JobView<'a> {
    spec: &'a SolveSpec,
    enqueued: Instant,
    deadline: Option<Instant>,
    panic_in_build: bool,
}

/// Everything a worker thread needs; cloneable so the supervisor can
/// respawn replacements.
#[derive(Clone)]
struct WorkerCtx {
    rx: Arc<parking_lot::Mutex<mpsc::Receiver<SolveJob>>>,
    cache: Arc<DecompCache>,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    /// Worker width each solve may fan its tree sampling / per-tree DPs
    /// across (never affects the answer — see DESIGN.md §8).
    parallelism: Parallelism,
    /// In-flight cold distribution builds, shared across workers so
    /// concurrent same-fingerprint solves coalesce onto one build.
    flights: Arc<FlightGroup<Arc<Distribution>>>,
}

fn spawn_worker(id: usize, ctx: WorkerCtx) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("hgp-solver-{id}"))
        .spawn(move || loop {
            if ctx.stop.load(Ordering::Acquire) {
                break;
            }
            let job = ctx.rx.lock().recv_timeout(Duration::from_millis(50));
            match job {
                Ok(job) => {
                    if job.crash_worker {
                        // deliberately outside catch_unwind (see SolveJob)
                        panic!("crash-worker test hook");
                    }
                    let SolveJob {
                        spec,
                        enqueued,
                        deadline,
                        reply,
                        panic_solve,
                        panic_in_build,
                        crash_worker: _,
                    } = job;
                    let view = JobView {
                        spec: &spec,
                        enqueued,
                        deadline,
                        panic_in_build,
                    };
                    let busy_start = Instant::now();
                    // isolation boundary: a panicking solve costs this
                    // request, not the worker thread
                    let line = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        if panic_solve {
                            panic!("panic-solve test hook");
                        }
                        run_solve(&view, &ctx)
                    }))
                    .unwrap_or_else(|payload| {
                        ctx.metrics.solve_panics.inc();
                        ctx.metrics.solve_err.inc();
                        let e = HgpError::from_panic(payload);
                        WireError::new(ErrCode::Internal, e.to_string()).to_line()
                    });
                    // busy time feeds the utilization metric: executing,
                    // not idle-waiting on the queue
                    ctx.metrics
                        .pool_busy_us
                        .add(busy_start.elapsed().as_micros() as u64);
                    reply(line);
                }
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        })
        .expect("spawn solver worker")
}

/// A supervised pool of solver workers behind a bounded queue.
pub struct SolverPool {
    tx: mpsc::SyncSender<SolveJob>,
    workers: Arc<parking_lot::Mutex<Vec<JoinHandle<()>>>>,
    supervisor: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl SolverPool {
    /// Spawns `workers` threads draining a queue of at most
    /// `queue_capacity` pending solves, plus a supervisor that respawns
    /// workers that die. Each solve may additionally fan out across
    /// `parallelism` threads (so peak thread demand is
    /// `workers × parallelism` — see DESIGN.md §8 for sizing guidance).
    pub fn new(
        workers: usize,
        queue_capacity: usize,
        parallelism: Parallelism,
        cache: Arc<DecompCache>,
        metrics: Arc<Metrics>,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel::<SolveJob>(queue_capacity.max(1));
        let ctx = WorkerCtx {
            rx: Arc::new(parking_lot::Mutex::new(rx)),
            cache,
            metrics: Arc::clone(&metrics),
            stop: Arc::new(AtomicBool::new(false)),
            parallelism,
            flights: Arc::new(FlightGroup::new()),
        };
        let count = workers.max(1);
        let workers: Vec<JoinHandle<()>> =
            (0..count).map(|i| spawn_worker(i, ctx.clone())).collect();
        metrics.workers_alive.set(count as u64);
        let workers = Arc::new(parking_lot::Mutex::new(workers));
        let stop = Arc::clone(&ctx.stop);
        let supervisor = {
            let workers = Arc::clone(&workers);
            let next_id = AtomicUsize::new(count);
            std::thread::Builder::new()
                .name("hgp-pool-supervisor".to_string())
                .spawn(move || {
                    while !ctx.stop.load(Ordering::Acquire) {
                        std::thread::sleep(SUPERVISE_EVERY);
                        if ctx.stop.load(Ordering::Acquire) {
                            break;
                        }
                        let mut ws = workers.lock();
                        for slot in ws.iter_mut() {
                            if slot.is_finished() && !ctx.stop.load(Ordering::Acquire) {
                                let id = next_id.fetch_add(1, Ordering::Relaxed);
                                let dead = std::mem::replace(slot, spawn_worker(id, ctx.clone()));
                                let _ = dead.join(); // reap; panic payload discarded
                                metrics.worker_deaths.inc();
                            }
                        }
                        let alive = ws.iter().filter(|w| !w.is_finished()).count();
                        metrics.workers_alive.set(alive as u64);
                    }
                })
                .expect("spawn pool supervisor")
        };
        Self {
            tx,
            workers,
            supervisor: Some(supervisor),
            stop,
        }
    }

    /// Enqueues a job; rejects with `overloaded` when the queue is full.
    pub fn submit(&self, job: SolveJob) -> Result<(), WireError> {
        match self.tx.try_send(job) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(_)) => Err(WireError::new(
                ErrCode::Overloaded,
                "solver queue full, retry later",
            )),
            Err(TrySendError::Disconnected(_)) => {
                Err(WireError::new(ErrCode::ShuttingDown, "server is draining"))
            }
        }
    }

    /// Signals workers to stop and joins them (supervisor first, so nothing
    /// respawns during teardown). Queued jobs not yet picked up are dropped
    /// (their reply channels disconnect, which the connection threads
    /// surface as `shutting-down`).
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(s) = self.supervisor.take() {
            let _ = s.join();
        }
        for w in self.workers.lock().drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for SolverPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How a solve reply was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Full,
    Partial,
    Baseline,
}

impl Mode {
    fn as_str(self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Partial => "partial",
            Mode::Baseline => "baseline",
        }
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Per-tree profiling facts accumulated into the request's
/// [`SolveTrace`]: `(dp_nanos, repair_nanos, dp_entries, dp_pruned)`.
type TreeFacts = (u64, u64, u64, u64);

/// Executes one solve end to end and formats the reply line.
fn run_solve(job: &JobView<'_>, ctx: &WorkerCtx) -> String {
    // queue wait = accept to dequeue, recorded for every job (even ones
    // that go on to fail) — it measures the queue, not the solve
    let queue_wait = job.enqueued.elapsed();
    ctx.metrics.queue_wait.record_duration_us(queue_wait);
    match solve_inner(job, ctx, queue_wait) {
        Ok(line) => line,
        Err(e) => {
            match e.code {
                ErrCode::BadRequest | ErrCode::GraphTooLarge | ErrCode::MachineTooLarge => {
                    ctx.metrics.bad_requests.inc()
                }
                _ => ctx.metrics.solve_err.inc(),
            }
            e.to_line()
        }
    }
}

/// Obtains the (possibly cached, possibly coalesced) Räcke distribution
/// for a cold request. `Ok(None)` means the caller's deadline expired
/// while parked as a follower — degrade to baseline, don't error.
fn cold_distribution(
    job: &JobView<'_>,
    ctx: &WorkerCtx,
    inst: &hgp_core::Instance,
    opts: &SolverOptions,
    key: u64,
    cache_status: &mut &'static str,
) -> Result<Option<Arc<Distribution>>, WireError> {
    match ctx.flights.join(key) {
        Ticket::Leader(guard) => {
            if job.panic_in_build {
                // test hook: hold leadership long enough for racing
                // followers to park, then unwind with the guard
                // unpublished so its Drop poisons the flight
                std::thread::sleep(Duration::from_millis(60));
                panic!("panic-in-build test hook");
            }
            // double-check (uncounted — not a client lookup): a previous
            // leader may have published and retired its flight between
            // our cache miss and our join
            if let Some(d) = ctx.cache.peek(key) {
                *cache_status = "hit";
                guard.publish(Ok(Arc::clone(&d)));
                return Ok(Some(d));
            }
            *cache_status = "miss";
            ctx.metrics.cache_builds.inc();
            match Solve::new(inst, &job.spec.machine)
                .options(*opts)
                .distribution()
            {
                Ok(built) => {
                    let d = Arc::new(built);
                    ctx.cache.insert(key, Arc::clone(&d));
                    guard.publish(Ok(Arc::clone(&d)));
                    Ok(Some(d))
                }
                Err(e) => {
                    let msg = format!("decomposition failed: {e}");
                    guard.publish(Err(msg.clone()));
                    Err(WireError::new(ErrCode::SolveFailed, msg))
                }
            }
        }
        Ticket::Follower(f) => match f.wait(job.deadline) {
            FollowerOutcome::Ready(d) => {
                *cache_status = "shared";
                ctx.metrics.cache_coalesced.inc();
                Ok(Some(d))
            }
            FollowerOutcome::Err(FlightError::Failed(msg)) => {
                // the build itself failed; every follower replies exactly
                // as the leader did
                Err(WireError::new(ErrCode::SolveFailed, msg))
            }
            FollowerOutcome::Err(FlightError::LeaderPanicked) => Err(WireError::new(
                ErrCode::Internal,
                "distribution build panicked in the coalesced leader",
            )),
            FollowerOutcome::DeadlineExpired => Ok(None),
        },
    }
}

fn solve_inner(
    job: &JobView<'_>,
    ctx: &WorkerCtx,
    queue_wait: Duration,
) -> Result<String, WireError> {
    let spec = job.spec;
    let inst = spec.instance()?;
    let h = &spec.machine;
    inst.check_feasible(h)
        .map_err(|e| WireError::new(ErrCode::SolveFailed, format!("infeasible instance: {e:?}")))?;
    let opts = SolverOptions::builder()
        .trees(spec.trees)
        .units(spec.units)
        .threads(ctx.parallelism)
        .seed(spec.seed)
        .trace(spec.trace)
        .multilevel(MultilevelOptions {
            enabled: spec.multilevel,
            ..Default::default()
        })
        .build();
    if spec.multilevel {
        return run_multilevel(job, &inst, &ctx.metrics, &opts, queue_wait);
    }

    let mut cache_status: &'static str = "skip";
    let mut solved = 0usize;
    let mut best: Option<(usize, Assignment, f64)> = None;
    let mut mode = Mode::Baseline;
    // per-stage profile, rendered as `trace.*` tokens when `trace=1`
    let mut dist_nanos = 0u64;
    let mut sweep_nanos = 0u64;
    let mut trees_total = 0u64;
    let mut trees_ok = 0u64;
    let mut dp_cpu = 0u64;
    let mut repair_cpu = 0u64;
    let mut dp_entries = 0u64;
    let mut dp_pruned = 0u64;

    if !expired(job.deadline) {
        let key = distribution_fingerprint(&inst, &opts);
        let dist_start = Instant::now();
        let dist = match ctx.cache.get(key) {
            Some(d) => {
                cache_status = "hit";
                Some(d)
            }
            // cold build: single-flight so concurrent same-fingerprint
            // requests share one build
            None => cold_distribution(job, ctx, &inst, &opts, key, &mut cache_status)?,
        };
        dist_nanos = dist_start.elapsed().as_nanos() as u64;
        if let Some(dist) = dist {
            let total = dist.trees.len();
            trees_total = total as u64;
            // batch-wise fan-out: one worker-width of trees per batch, the
            // soft deadline re-checked between batches. Serial parallelism
            // degenerates to batches of one — the pre-parallel behaviour.
            let sweep_start = Instant::now();
            while solved < total && !expired(job.deadline) {
                let end = (solved + opts.parallelism.workers(total - solved)).min(total);
                let outcomes = par_map_indexed(opts.parallelism, end - solved, |k| {
                    let dt = &dist.trees[solved + k];
                    solve_rooted(&dt.tree, &dt.task_of_leaf, &inst, h, opts.rounding)
                        .ok()
                        .map(|rep| {
                            // map back to G and score by true Equation-1 cost
                            let cost = rep.assignment.cost(&inst, h);
                            let facts: TreeFacts = (
                                rep.dp_nanos,
                                rep.repair_nanos,
                                rep.dp_entries as u64,
                                rep.dp_pruned as u64,
                            );
                            (rep.assignment, cost, facts)
                        })
                });
                // deterministic reduction: tree order, strict improvement only
                for (k, outcome) in outcomes.into_iter().enumerate() {
                    if let Some((assignment, cost, facts)) = outcome {
                        trees_ok += 1;
                        dp_cpu += facts.0;
                        repair_cpu += facts.1;
                        dp_entries += facts.2;
                        dp_pruned += facts.3;
                        if best.as_ref().is_none_or(|(_, _, c)| cost < *c) {
                            best = Some((solved + k, assignment, cost));
                        }
                    }
                }
                solved = end;
            }
            sweep_nanos = sweep_start.elapsed().as_nanos() as u64;
            mode = if solved == total {
                Mode::Full
            } else {
                Mode::Partial
            };
        }
        // dist == None: the deadline expired while parked behind the
        // flight leader — fall through to the baseline path below
    }

    let (mut assignment, mut detail) = match best {
        Some((tree, a, _)) => (a, format!("tree={tree} trees-solved={solved}")),
        None => {
            // Deadline blown before any tree finished (or every DP was
            // capacity-infeasible on a degraded request): fast baseline.
            mode = Mode::Baseline;
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let part = kway_partition(
                inst.graph(),
                inst.demands(),
                h.num_leaves(),
                &KwayOpts::default(),
                &mut rng,
            );
            let mut a = Assignment::new(part, h);
            refine(&mut a, &inst, h, &RefineOpts::default());
            (a, "trees-solved=0".to_string())
        }
    };
    if spec.refine && mode != Mode::Baseline {
        refine(&mut assignment, &inst, h, &RefineOpts::default());
    }

    let cost = assignment.cost(&inst, h);
    let worst = assignment.violation_report(&inst, h).worst_factor();
    let degraded = mode != Mode::Full;
    if degraded {
        ctx.metrics.solve_degraded.inc();
    } else {
        ctx.metrics.solve_ok.inc();
    }
    let elapsed = job.enqueued.elapsed();
    ctx.metrics.solve_latency.record_duration_us(elapsed);

    detail = format!(
        "cost={} degraded={} mode={} {} cache={} worst-factor={} elapsed-us={}",
        cost,
        u8::from(degraded),
        mode.as_str(),
        detail,
        cache_status,
        worst,
        elapsed.as_micros()
    );
    if spec.want_assignment {
        let leaves: Vec<String> = assignment.leaves().iter().map(|l| l.to_string()).collect();
        detail.push_str(&format!(" assignment={}", leaves.join(",")));
    }
    if spec.trace {
        let mut tr = SolveTrace::new();
        tr.stage("queue-wait", queue_wait.as_nanos() as u64);
        tr.stage("distribution", dist_nanos);
        tr.stage("sweep", sweep_nanos);
        tr.cpu("dp-cpu", dp_cpu);
        tr.cpu("repair-cpu", repair_cpu);
        tr.count("cache-hit", u64::from(cache_status == "hit"));
        tr.count("trees-total", trees_total);
        tr.count("trees-solved", trees_ok);
        tr.count("dp-entries", dp_entries);
        tr.count("dp-pruned", dp_pruned);
        detail.push_str(&tr.wire_tokens("trace."));
    }
    Ok(format!("ok {detail}"))
}

/// The multilevel route: coarsen → exact core on the coarse graph →
/// project back with hierarchy-aware FM. No distribution cache (the
/// coarse graph is request-specific) and no per-tree deadline batching —
/// the V-cycle is a single bounded pass sized to finish even at large
/// `n`. The reply mirrors the flat path's token set plus `ml-*` facts.
fn run_multilevel(
    job: &JobView<'_>,
    inst: &hgp_core::Instance,
    metrics: &Metrics,
    opts: &SolverOptions,
    queue_wait: Duration,
) -> Result<String, WireError> {
    let spec = job.spec;
    let h = &spec.machine;
    let rep = solve_multilevel(inst, h, opts).map_err(|e| {
        WireError::new(
            ErrCode::SolveFailed,
            format!("multilevel solve failed: {e}"),
        )
    })?;
    let mut assignment = rep.assignment;
    if spec.refine {
        // optional extra baseline-refine sweep on top of the built-in
        // hierarchy-aware passes, within the placement's own budget
        refine(&mut assignment, inst, h, &RefineOpts::default());
    }
    let cost = assignment.cost(inst, h);
    let worst = assignment.violation_report(inst, h).worst_factor();
    metrics.solve_ok.inc();
    let elapsed = job.enqueued.elapsed();
    metrics.solve_latency.record_duration_us(elapsed);

    let mut detail = format!(
        "cost={} degraded=0 mode=multilevel ml-levels={} ml-coarsest={} ml-reduction={:.2} \
         ml-refine-gain={} cache=skip worst-factor={} elapsed-us={}",
        cost,
        rep.levels,
        rep.coarsest_nodes,
        rep.reduction,
        rep.refine_gain,
        worst,
        elapsed.as_micros()
    );
    if spec.want_assignment {
        let leaves: Vec<String> = assignment.leaves().iter().map(|l| l.to_string()).collect();
        detail.push_str(&format!(" assignment={}", leaves.join(",")));
    }
    if spec.trace {
        let mut tr = rep.trace.unwrap_or_default();
        tr.stage("queue-wait", queue_wait.as_nanos() as u64);
        detail.push_str(&tr.wire_tokens("trace."));
    }
    Ok(format!("ok {detail}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{GraphSpec, Request};

    fn pool() -> (SolverPool, Arc<DecompCache>, Arc<Metrics>) {
        let cache = Arc::new(DecompCache::new(8));
        let metrics = Arc::new(Metrics::new());
        (
            SolverPool::new(
                2,
                4,
                Parallelism::serial(),
                Arc::clone(&cache),
                Arc::clone(&metrics),
            ),
            cache,
            metrics,
        )
    }

    /// A [`ReplySink`] that sends the reply into an mpsc channel.
    fn channel_sink(tx: mpsc::Sender<String>) -> ReplySink {
        Box::new(move |line| {
            // receiver gone = the test stopped listening; nothing to do
            let _ = tx.send(line);
        })
    }

    fn solve_spec(line: &str) -> SolveSpec {
        match Request::parse(line).unwrap() {
            Request::Solve(s) => *s,
            _ => panic!("not a solve"),
        }
    }

    fn run(pool: &SolverPool, spec: SolveSpec, deadline: Option<Duration>) -> String {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        pool.submit(SolveJob::new(
            spec,
            now,
            deadline.map(|d| now + d),
            channel_sink(tx),
        ))
        .unwrap();
        rx.recv_timeout(Duration::from_secs(60)).unwrap()
    }

    const LINE: &str =
        "solve graph=gen:clustered:2x4:5 machine=2x2:4,1,0 demand=0.4 trees=4 seed=7";

    #[test]
    fn full_solve_and_cache_reuse() {
        let (pool, cache, metrics) = pool();
        let a = run(&pool, solve_spec(LINE), None);
        assert!(a.starts_with("ok "), "{a}");
        assert!(a.contains("degraded=0"), "{a}");
        assert!(a.contains("mode=full"), "{a}");
        assert!(a.contains("cache=miss"), "{a}");
        let b = run(&pool, solve_spec(LINE), None);
        assert!(b.contains("cache=hit"), "{b}");
        assert!(cache.hits() >= 1);
        // identical request → identical cost
        let cost = |s: &str| {
            s.split_whitespace()
                .find_map(|kv| kv.strip_prefix("cost="))
                .unwrap()
                .to_string()
        };
        assert_eq!(cost(&a), cost(&b));
        assert_eq!(metrics.solve_ok.get(), 2);
    }

    #[test]
    fn multilevel_route_solves_and_reports_ml_facts() {
        let (pool, cache, metrics) = pool();
        let line =
            "solve graph=gen:mesh:20x20:5 machine=2x2:4,1,0 trees=4 seed=7 multilevel=1 trace=1";
        let reply = run(&pool, solve_spec(line), None);
        assert!(reply.starts_with("ok "), "{reply}");
        assert!(reply.contains("mode=multilevel"), "{reply}");
        assert!(reply.contains("degraded=0"), "{reply}");
        assert!(reply.contains("ml-levels="), "{reply}");
        assert!(reply.contains("trace.ml.coarsen-us="), "{reply}");
        assert!(reply.contains("trace.queue-wait-us="), "{reply}");
        // the multilevel route never touches the distribution cache
        assert!(reply.contains("cache=skip"), "{reply}");
        assert_eq!(cache.hits() + cache.misses(), 0);
        assert_eq!(metrics.solve_ok.get(), 1);
    }

    #[test]
    fn expired_deadline_degrades_to_baseline() {
        let (pool, _cache, metrics) = pool();
        let reply = run(&pool, solve_spec(LINE), Some(Duration::ZERO));
        assert!(reply.starts_with("ok "), "{reply}");
        assert!(reply.contains("degraded=1"), "{reply}");
        assert!(reply.contains("mode=baseline"), "{reply}");
        assert_eq!(metrics.solve_degraded.get(), 1);
    }

    #[test]
    fn infeasible_instances_fail_cleanly() {
        let (pool, _cache, metrics) = pool();
        // 9 tasks × demand 1.0 > 4 leaves
        let mut spec = solve_spec(LINE);
        spec.graph = GraphSpec::parse("gen:mesh:3x3:1").unwrap();
        spec.demand = Some(1.0);
        let reply = run(&pool, spec, None);
        assert!(reply.starts_with("err solve-failed"), "{reply}");
        assert_eq!(metrics.solve_err.get(), 1);
    }

    #[test]
    fn full_queue_rejects_overloaded() {
        let cache = Arc::new(DecompCache::new(2));
        let metrics = Arc::new(Metrics::new());
        // one slow worker, queue of 1: the third submit must bounce
        let pool = SolverPool::new(1, 1, Parallelism::serial(), cache, metrics);
        let (tx, _rx) = mpsc::channel();
        let now = Instant::now();
        let mut rejected = 0;
        for _ in 0..16 {
            let job = SolveJob::new(solve_spec(LINE), now, None, channel_sink(tx.clone()));
            if let Err(e) = pool.submit(job) {
                assert_eq!(e.code, ErrCode::Overloaded);
                rejected += 1;
            }
        }
        assert!(rejected > 0, "bounded queue never pushed back");
    }

    #[test]
    fn parallel_solve_matches_serial_reply() {
        // same request through a serial pool and a 4-wide pool: identical
        // cost, tree pick, and assignment (determinism across Parallelism)
        let line = format!("{LINE} assignment=1");
        let reply_with = |par: Parallelism| {
            let cache = Arc::new(DecompCache::new(2));
            let metrics = Arc::new(Metrics::new());
            let pool = SolverPool::new(1, 4, par, cache, metrics);
            run(&pool, solve_spec(&line), None)
        };
        let serial = reply_with(Parallelism::serial());
        let parallel = reply_with(Parallelism::Fixed(4));
        let field = |s: &str, key: &str| {
            s.split_whitespace()
                .find_map(|kv| kv.strip_prefix(&format!("{key}=")))
                .map(str::to_string)
        };
        for key in ["cost", "tree", "trees-solved", "assignment", "mode"] {
            assert_eq!(
                field(&serial, key),
                field(&parallel, key),
                "{key} differs: serial={serial} parallel={parallel}"
            );
        }
    }

    #[test]
    fn supervisor_respawns_crashed_workers() {
        let cache = Arc::new(DecompCache::new(2));
        let metrics = Arc::new(Metrics::new());
        let pool = SolverPool::new(2, 4, Parallelism::serial(), cache, Arc::clone(&metrics));
        assert_eq!(metrics.workers_alive.get(), 2);

        // kill one worker outright (bypasses the isolation boundary)
        let (tx, rx) = mpsc::channel();
        pool.submit(SolveJob {
            crash_worker: true,
            ..SolveJob::new(solve_spec(LINE), Instant::now(), None, channel_sink(tx))
        })
        .unwrap();
        // the dying worker never replies; its channel just disconnects
        assert!(rx.recv_timeout(Duration::from_secs(10)).is_err());

        // the supervisor must notice, count the death, and restore the pool
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.worker_deaths.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(metrics.worker_deaths.get(), 1, "death not counted");
        let deadline = Instant::now() + Duration::from_secs(10);
        while metrics.workers_alive.get() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(metrics.workers_alive.get(), 2, "worker not respawned");

        // and the pool still solves
        let reply = run(&pool, solve_spec(LINE), None);
        assert!(reply.starts_with("ok "), "{reply}");
    }

    #[test]
    fn panicking_solve_is_isolated_to_err_internal() {
        let cache = Arc::new(DecompCache::new(2));
        let metrics = Arc::new(Metrics::new());
        let pool = SolverPool::new(1, 4, Parallelism::serial(), cache, Arc::clone(&metrics));

        // a panic inside the boundary answers `err internal` ...
        let (tx, rx) = mpsc::channel();
        pool.submit(SolveJob {
            panic_solve: true,
            ..SolveJob::new(solve_spec(LINE), Instant::now(), None, channel_sink(tx))
        })
        .unwrap();
        let reply = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(reply.starts_with("err internal "), "{reply}");
        assert!(reply.contains("panic-solve test hook"), "{reply}");
        assert_eq!(metrics.solve_panics.get(), 1);

        // ... and the very same worker thread keeps serving
        let reply = run(&pool, solve_spec(LINE), None);
        assert!(reply.starts_with("ok "), "{reply}");
        assert_eq!(metrics.worker_deaths.get(), 0);
    }

    #[test]
    fn racing_cold_fingerprints_coalesce_onto_one_build() {
        const CLIENTS: usize = 9;
        let cache = Arc::new(DecompCache::new(8));
        let metrics = Arc::new(Metrics::new());
        // enough workers that every request is in a worker simultaneously
        let pool = SolverPool::new(
            CLIENTS,
            CLIENTS,
            Parallelism::serial(),
            cache,
            Arc::clone(&metrics),
        );
        // a build slow enough that the OS preempts the leader mid-build
        // even on one core — otherwise a single worker can drain the
        // whole queue before its siblings ever get scheduled
        let slow = "solve graph=gen:mesh:24x24:3 machine=2x2:4,1,0 demand=0.005 trees=4 seed=11";
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        for _ in 0..CLIENTS {
            pool.submit(SolveJob::new(
                solve_spec(slow),
                now,
                None,
                channel_sink(tx.clone()),
            ))
            .unwrap();
        }
        let replies: Vec<String> = (0..CLIENTS)
            .map(|_| rx.recv_timeout(Duration::from_secs(60)).unwrap())
            .collect();
        // exactly one expensive build ran, no matter how the race lands
        assert_eq!(
            metrics.cache_builds.get(),
            1,
            "coalescing failed: {replies:?}"
        );
        assert!(
            metrics.cache_coalesced.get() >= 1,
            "no request joined the flight as a follower"
        );
        // every reply is ok, full-mode, and bit-identical in cost
        let cost = |s: &str| {
            s.split_whitespace()
                .find_map(|kv| kv.strip_prefix("cost="))
                .unwrap()
                .to_string()
        };
        let first = cost(&replies[0]);
        for r in &replies {
            assert!(r.starts_with("ok "), "{r}");
            assert!(r.contains("mode=full"), "{r}");
            assert_eq!(cost(r), first, "coalesced replies diverged: {r}");
            assert!(
                r.contains("cache=miss") || r.contains("cache=shared") || r.contains("cache=hit"),
                "{r}"
            );
        }
        // the leader's reply says miss; followers say shared
        assert_eq!(
            replies.iter().filter(|r| r.contains("cache=miss")).count(),
            1
        );
    }

    #[test]
    fn leader_panic_in_build_unparks_followers_with_err_internal() {
        let cache = Arc::new(DecompCache::new(8));
        let metrics = Arc::new(Metrics::new());
        let pool = SolverPool::new(4, 8, Parallelism::serial(), cache, Arc::clone(&metrics));
        // the poisoned job wins leadership first (idle pool), then panics
        // inside the build after a grace period the followers use to park
        let (ltx, lrx) = mpsc::channel();
        pool.submit(SolveJob {
            panic_in_build: true,
            ..SolveJob::new(solve_spec(LINE), Instant::now(), None, channel_sink(ltx))
        })
        .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let (ftx, frx) = mpsc::channel();
        for _ in 0..3 {
            pool.submit(SolveJob::new(
                solve_spec(LINE),
                Instant::now(),
                None,
                channel_sink(ftx.clone()),
            ))
            .unwrap();
        }
        let leader = lrx.recv_timeout(Duration::from_secs(30)).unwrap();
        assert!(leader.starts_with("err internal "), "{leader}");
        assert!(leader.contains("panic-in-build test hook"), "{leader}");
        // followers parked on the flight get err internal, not a hang —
        // any that raced past the retired flight instead rebuilt and
        // answered ok (both are correct; hanging is the bug)
        let mut follower_errs = 0;
        for _ in 0..3 {
            let r = frx.recv_timeout(Duration::from_secs(30)).unwrap();
            if r.starts_with("err internal ") {
                assert!(r.contains("coalesced leader"), "{r}");
                follower_errs += 1;
            } else {
                assert!(r.starts_with("ok "), "{r}");
            }
        }
        assert!(follower_errs >= 1, "no follower observed the leader panic");
        assert_eq!(metrics.solve_panics.get(), 1);
        // the poisoned flight retired: a fresh request builds and succeeds
        let reply = run(&pool, solve_spec(LINE), None);
        assert!(reply.starts_with("ok "), "{reply}");
    }

    #[test]
    fn pool_busy_time_accumulates() {
        let (pool, _cache, metrics) = pool();
        assert_eq!(metrics.pool_busy_us.get(), 0);
        let reply = run(&pool, solve_spec(LINE), None);
        assert!(reply.starts_with("ok "), "{reply}");
        assert!(metrics.pool_busy_us.get() > 0, "busy time not recorded");
    }
}
