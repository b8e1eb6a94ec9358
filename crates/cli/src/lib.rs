//! Argument parsing and command implementations for the `hgp` binary
//! (kept in a library so they are unit-testable).

#![warn(missing_docs)]

use hgp_baselines::refine::{refine, RefineOpts};
use hgp_core::solver::SolverOptions;
use hgp_core::{Instance, Parallelism, Solve};
use hgp_graph::io::read_metis;
use hgp_graph::{traversal, Graph};
use hgp_hierarchy::{parse_hierarchy, Hierarchy};
use hgp_multilevel::solve_multilevel;
use hgp_server::{Server, ServerConfig};
use hgp_workloads::requests::{reply_field, request_script, substitute_session, RequestScriptOpts};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Usage text.
pub const USAGE: &str = "\
usage:
  hgp partition --graph FILE.metis --machine SHAPE[:CMS] [options]
  hgp info --graph FILE.metis
  hgp serve [--addr HOST:PORT] [--workers N] [--queue N] [--threads N]
            [--cache-capacity N] [--max-sessions N]
  hgp client --addr HOST:PORT [--seed S] [--solves N] [--topologies N]
             [--incr-ops N] [--deadline-frac F] [--machine SHAPE[:CMS]]

options for `partition`:
  --demands FILE   one demand per line, (0,1]; default 0.8*k/n each
  --units N        rounding grid units per leaf (default 8)
  --trees P        decomposition trees in the distribution (default 8)
  --seed S         RNG seed (default 1)
  --threads N      worker threads for sampling + per-tree DPs
                   (0 = one per core, the default; 1 = serial;
                   the result never depends on it)
  --refine         polish the result with hierarchy-aware local search
  --multilevel     coarsen large graphs through the hgp-multilevel V-cycle
                   (exact solve on the coarsest graph, hierarchy-aware FM
                   refinement on the way back up)

`--threads` on `serve` sets the same knob for every daemon solve (peak
thread demand is workers x threads).

`serve` runs the placement daemon (newline-delimited text protocol; see
DESIGN.md) until a client sends `shutdown`. One event loop multiplexes
every connection; the daemon is unix-only. `client` plays a deterministic
closed-loop request script against a running server and summarises the
replies.

machine SHAPE examples: 16 | 2x8 | 4x8x2:8,2,1,0";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Cli {
    /// `hgp partition …`
    Partition {
        /// METIS graph path.
        graph: String,
        /// Machine descriptor.
        machine: String,
        /// Optional demand file.
        demands: Option<String>,
        /// Rounding units.
        units: u32,
        /// Distribution size.
        trees: usize,
        /// Seed.
        seed: u64,
        /// Worker width (0 = auto, 1 = serial).
        threads: usize,
        /// Post-refinement toggle.
        refine: bool,
        /// Route the solve through the multilevel V-cycle.
        multilevel: bool,
    },
    /// `hgp info …`
    Info {
        /// METIS graph path.
        graph: String,
    },
    /// `hgp serve …`
    Serve {
        /// Bind address.
        addr: String,
        /// Solver worker threads.
        workers: usize,
        /// Bounded solve-queue depth.
        queue: usize,
        /// Per-solve worker width (0 = auto, 1 = serial).
        threads: usize,
        /// Decomposition-cache capacity.
        cache_capacity: usize,
        /// Maximum open incremental sessions.
        max_sessions: usize,
    },
    /// `hgp client …`
    Client {
        /// Server address.
        addr: String,
        /// Script seed.
        seed: u64,
        /// Solve requests in the script.
        solves: usize,
        /// Distinct topologies cycled through.
        topologies: usize,
        /// Incremental operations woven in.
        incr_ops: usize,
        /// Fraction of solves with a 1 ms deadline.
        deadline_frac: f64,
        /// Machine descriptor sent with every request.
        machine: String,
    },
}

impl Cli {
    /// Parses raw arguments.
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut it = args.iter();
        let cmd = it.next().ok_or("missing command")?;
        let mut graph = None;
        let mut machine = None;
        let mut demands = None;
        let mut units = 8u32;
        let mut trees = 8usize;
        let mut seed = 1u64;
        let mut threads = 0usize;
        let mut do_refine = false;
        let mut multilevel = false;
        let mut addr = None;
        let mut workers = 4usize;
        let mut queue = 64usize;
        let mut cache_capacity = 32usize;
        let mut max_sessions = 256usize;
        let mut solves = 12usize;
        let mut topologies = 3usize;
        let mut incr_ops = 8usize;
        let mut deadline_frac = 0.25f64;
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            fn num<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String> {
                v.parse().map_err(|_| format!("bad {name}"))
            }
            match flag.as_str() {
                "--graph" => graph = Some(value("--graph")?),
                "--machine" => machine = Some(value("--machine")?),
                "--demands" => demands = Some(value("--demands")?),
                "--units" => units = num("--units", value("--units")?)?,
                "--trees" => trees = num("--trees", value("--trees")?)?,
                "--seed" => seed = num("--seed", value("--seed")?)?,
                "--threads" => threads = num("--threads", value("--threads")?)?,
                "--refine" => do_refine = true,
                "--multilevel" => multilevel = true,
                "--addr" => addr = Some(value("--addr")?),
                "--workers" => workers = num("--workers", value("--workers")?)?,
                "--queue" => queue = num("--queue", value("--queue")?)?,
                "--cache-capacity" => {
                    cache_capacity = num("--cache-capacity", value("--cache-capacity")?)?
                }
                "--max-sessions" => max_sessions = num("--max-sessions", value("--max-sessions")?)?,
                "--solves" => solves = num("--solves", value("--solves")?)?,
                "--topologies" => topologies = num("--topologies", value("--topologies")?)?,
                "--incr-ops" => incr_ops = num("--incr-ops", value("--incr-ops")?)?,
                "--deadline-frac" => {
                    deadline_frac = num("--deadline-frac", value("--deadline-frac")?)?
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        match cmd.as_str() {
            "partition" => Ok(Cli::Partition {
                graph: graph.ok_or("--graph is required")?,
                machine: machine.ok_or("--machine is required")?,
                demands,
                units: units.max(1),
                trees: trees.max(1),
                seed,
                threads,
                refine: do_refine,
                multilevel,
            }),
            "info" => Ok(Cli::Info {
                graph: graph.ok_or("--graph is required")?,
            }),
            "serve" => Ok(Cli::Serve {
                addr: addr.unwrap_or_else(|| "127.0.0.1:7311".to_string()),
                workers: workers.max(1),
                queue: queue.max(1),
                threads,
                cache_capacity,
                max_sessions: max_sessions.max(1),
            }),
            "client" => Ok(Cli::Client {
                addr: addr.ok_or("--addr is required for client")?,
                seed,
                solves: solves.max(1),
                topologies: topologies.max(1),
                incr_ops,
                deadline_frac: deadline_frac.clamp(0.0, 1.0),
                machine: machine.unwrap_or_else(|| "2x4:4,1,0".to_string()),
            }),
            other => Err(format!("unknown command {other}")),
        }
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    read_metis(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_demands(path: &str, n: usize) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let d: Vec<f64> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse::<f64>().map_err(|_| format!("bad demand {l:?}")))
        .collect::<Result<_, _>>()?;
    if d.len() != n {
        return Err(format!("expected {n} demands, found {}", d.len()));
    }
    Ok(d)
}

/// Executes a parsed command, writing the machine-readable result to `out`.
pub fn run(cli: &Cli, out: &mut impl Write) -> Result<(), String> {
    match cli {
        Cli::Info { graph } => {
            let g = load_graph(graph)?;
            let degrees: Vec<usize> = g.nodes().map(|v| g.degree(v)).collect();
            writeln!(out, "nodes      {}", g.num_nodes()).unwrap();
            writeln!(out, "edges      {}", g.num_edges()).unwrap();
            writeln!(out, "weight     {}", g.total_weight()).unwrap();
            writeln!(out, "connected  {}", traversal::is_connected(&g)).unwrap();
            writeln!(
                out,
                "degree     min {} max {} avg {:.2}",
                degrees.iter().min().unwrap_or(&0),
                degrees.iter().max().unwrap_or(&0),
                if degrees.is_empty() {
                    0.0
                } else {
                    degrees.iter().sum::<usize>() as f64 / degrees.len() as f64
                }
            )
            .unwrap();
            Ok(())
        }
        Cli::Partition {
            graph,
            machine,
            demands,
            units,
            trees,
            seed,
            threads,
            refine: do_refine,
            multilevel,
        } => {
            let g = load_graph(graph)?;
            let h: Hierarchy = parse_hierarchy(machine).map_err(|e| e.to_string())?;
            let n = g.num_nodes();
            let d = match demands {
                Some(path) => load_demands(path, n)?,
                None => vec![(0.8 * h.num_leaves() as f64 / n as f64).min(1.0); n],
            };
            let inst = Instance::new(g, d);
            let opts = SolverOptions::builder()
                .trees(*trees)
                .units(*units)
                .seed(*seed)
                .threads(Parallelism::from_threads(*threads))
                .multilevel(hgp_core::MultilevelOptions {
                    enabled: *multilevel,
                    ..Default::default()
                })
                .build();
            let (mut assignment, worst) = if *multilevel {
                let rep = solve_multilevel(&inst, &h, &opts).map_err(|e| e.to_string())?;
                eprintln!(
                    "multilevel: {} levels, {} -> {} nodes (x{:.1}), refine gain {:.4}",
                    rep.levels, n, rep.coarsest_nodes, rep.reduction, rep.refine_gain
                );
                (rep.assignment.clone(), rep.violation)
            } else {
                let rep = Solve::new(&inst, &h)
                    .options(opts)
                    .run()
                    .map_err(|e| e.to_string())?;
                let worst = rep.violation.worst_factor();
                (rep.assignment.clone(), worst)
            };
            if *do_refine {
                let cap = worst.max(1.0);
                refine(
                    &mut assignment,
                    &inst,
                    &h,
                    &RefineOpts {
                        capacity_factor: cap,
                        ..Default::default()
                    },
                );
            }
            let cost = assignment.cost(&inst, &h);
            let violation = assignment.violation_report(&inst, &h).worst_factor();
            eprintln!(
                "cost {cost:.4}  violation {violation:.3}  (bound {:.2})",
                (1.0 + n as f64 / *units as f64).min(2.0) * (1.0 + h.height() as f64)
            );
            writeln!(out, "# task ancestors(level 1..h)").unwrap();
            for t in 0..n {
                let leaf = assignment.leaf(t);
                write!(out, "{t}").unwrap();
                for j in 1..=h.height() {
                    write!(out, " {}", h.ancestor_at_level(leaf, j)).unwrap();
                }
                writeln!(out).unwrap();
            }
            Ok(())
        }
        Cli::Serve {
            addr,
            workers,
            queue,
            threads,
            cache_capacity,
            max_sessions,
        } => {
            let mut server = Server::start(
                ServerConfig::builder()
                    .addr(addr.clone())
                    .workers(*workers)
                    .queue_capacity(*queue)
                    .parallelism(Parallelism::from_threads(*threads))
                    .cache_capacity(*cache_capacity)
                    .max_sessions(*max_sessions)
                    .build(),
            )
            .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            writeln!(out, "listening {}", server.addr()).unwrap();
            out.flush().ok();
            server.join(); // returns once a client sends `shutdown`
            writeln!(out, "drained").unwrap();
            Ok(())
        }
        Cli::Client {
            addr,
            seed,
            solves,
            topologies,
            incr_ops,
            deadline_frac,
            machine,
        } => {
            let opts = RequestScriptOpts {
                solves: *solves,
                topologies: *topologies,
                tight_deadline_frac: *deadline_frac,
                machine: machine.clone(),
                incr_ops: *incr_ops,
            };
            let script = request_script(*seed, &opts);
            run_client(addr, &script, out)
        }
    }
}

/// Plays a request script over one connection, closed-loop (each request
/// waits for its reply), and writes a tally plus the server's final
/// `stats2` line.
fn run_client(addr: &str, script: &[String], out: &mut impl Write) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect {addr}: {e}"))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut session: Option<u64> = None;
    let (mut ok, mut err, mut degraded) = (0u64, 0u64, 0u64);
    let mut last_stats = String::new();
    for line in script {
        let line = match session {
            Some(s) => substitute_session(line, s),
            None => line.clone(),
        };
        if line.contains("session=SID") {
            return Err("script uses a session before `new` succeeded".to_string());
        }
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        let reply = reply.trim();
        if reply.starts_with("ok") {
            ok += 1;
        } else {
            err += 1;
        }
        if reply_field(reply, "degraded") == Some("1") {
            degraded += 1;
        }
        if line.starts_with("place-incremental new") {
            session = reply_field(reply, "session").and_then(|s| s.parse().ok());
        }
        if line == "stats2" {
            last_stats = reply.to_string();
        }
    }
    writeln!(
        out,
        "sent={} ok={ok} err={err} degraded={degraded}",
        script.len()
    )
    .unwrap();
    if !last_stats.is_empty() {
        writeln!(out, "{last_stats}").unwrap();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_partition_flags() {
        let cli = Cli::parse(&argv(
            "partition --graph g.metis --machine 2x4:4,1,0 --units 16 --trees 3 --seed 9 \
             --threads 2 --refine",
        ))
        .unwrap();
        assert_eq!(
            cli,
            Cli::Partition {
                graph: "g.metis".into(),
                machine: "2x4:4,1,0".into(),
                demands: None,
                units: 16,
                trees: 3,
                seed: 9,
                threads: 2,
                refine: true,
                multilevel: false,
            }
        );
    }

    #[test]
    fn parses_info() {
        let cli = Cli::parse(&argv("info --graph g.metis")).unwrap();
        assert_eq!(
            cli,
            Cli::Info {
                graph: "g.metis".into()
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Cli::parse(&argv("")).is_err());
        assert!(Cli::parse(&argv("partition --machine 2x2")).is_err());
        assert!(Cli::parse(&argv("partition --graph g")).is_err());
        assert!(Cli::parse(&argv("frobnicate --graph g")).is_err());
        assert!(Cli::parse(&argv("partition --graph g --machine 2x2 --units x")).is_err());
        assert!(Cli::parse(&argv("partition --graph g --machine 2x2 --wat")).is_err());
        assert!(
            Cli::parse(&argv("client --solves 3")).is_err(),
            "client needs --addr"
        );
        assert!(Cli::parse(&argv("serve --workers x")).is_err());
        assert_eq!(
            Cli::parse(&argv("serve --legacy-threads")),
            Err("unknown flag --legacy-threads".to_string()),
            "`serve` has no front-end flag"
        );
    }

    #[test]
    fn parses_serve_and_client() {
        let cli = Cli::parse(&argv(
            "serve --addr 127.0.0.1:0 --workers 2 --queue 8 --threads 1",
        ))
        .unwrap();
        assert_eq!(
            cli,
            Cli::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue: 8,
                threads: 1,
                cache_capacity: 32,
                max_sessions: 256,
            }
        );
        let cli = Cli::parse(&argv(
            "client --addr 127.0.0.1:7311 --seed 5 --solves 6 --topologies 2",
        ))
        .unwrap();
        assert_eq!(
            cli,
            Cli::Client {
                addr: "127.0.0.1:7311".into(),
                seed: 5,
                solves: 6,
                topologies: 2,
                incr_ops: 8,
                deadline_frac: 0.25,
                machine: "2x4:4,1,0".into(),
            }
        );
    }

    #[test]
    fn client_drives_a_live_server() {
        let server = Server::start(ServerConfig::builder().workers(2).build()).unwrap();
        let cli = Cli::Client {
            addr: server.addr().to_string(),
            seed: 4,
            solves: 4,
            topologies: 2,
            incr_ops: 4,
            deadline_frac: 0.0,
            machine: "2x2:4,1,0".into(),
        };
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("err=0"), "replies had errors: {text}");
        assert!(text.contains("ok version=2 "), "no stats2 line: {text}");
        server.shutdown();
    }

    #[test]
    fn end_to_end_partition_on_temp_file() {
        let dir = std::env::temp_dir().join("hgp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dumbbell.metis");
        // two triangles + bridge, unweighted
        std::fs::write(&path, "6 7\n2 3\n1 3\n1 2 4\n3 5 6\n4 6\n4 5\n").unwrap();
        let cli = Cli::parse(&[
            "partition".into(),
            "--graph".into(),
            path.to_string_lossy().into_owned(),
            "--machine".into(),
            "2x3:4,1,0".into(),
            "--seed".into(),
            "3".into(),
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), 6);
        // each line: task socket core
        for (t, line) in lines.iter().enumerate() {
            let toks: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(toks.len(), 3);
            assert_eq!(toks[0].parse::<usize>().unwrap(), t);
            assert!(toks[1].parse::<usize>().unwrap() < 2);
            assert!(toks[2].parse::<usize>().unwrap() < 6);
        }
    }

    #[test]
    fn multilevel_flag_parses_and_partitions() {
        let cli = Cli::parse(&argv(
            "partition --graph g.metis --machine 2x4:4,1,0 --multilevel",
        ))
        .unwrap();
        match &cli {
            Cli::Partition { multilevel, .. } => assert!(multilevel),
            other => panic!("parsed {other:?}"),
        }
        // end to end on a mesh big enough to coarsen (default
        // coarsen_until is 192): an 18x18 grid in METIS format
        let dir = std::env::temp_dir().join("hgp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mesh18.metis");
        let (rows, cols) = (18usize, 18usize);
        let mut body = String::new();
        let mut edges = 0;
        for r in 0..rows {
            for c in 0..cols {
                let mut nbrs = Vec::new();
                if c + 1 < cols {
                    nbrs.push(r * cols + c + 2); // METIS ids are 1-based
                    edges += 1;
                }
                if c > 0 {
                    nbrs.push(r * cols + c);
                }
                if r + 1 < rows {
                    nbrs.push((r + 1) * cols + c + 1);
                    edges += 1;
                }
                if r > 0 {
                    nbrs.push((r - 1) * cols + c + 1);
                }
                body.push_str(
                    &nbrs
                        .iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                );
                body.push('\n');
            }
        }
        let header = format!("{} {edges}\n", rows * cols);
        std::fs::write(&path, header + &body).unwrap();
        let cli = Cli::parse(&[
            "partition".into(),
            "--graph".into(),
            path.to_string_lossy().into_owned(),
            "--machine".into(),
            "2x4:4,1,0".into(),
            "--trees".into(),
            "4".into(),
            "--units".into(),
            "4".into(),
            "--multilevel".into(),
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), rows * cols);
    }

    #[test]
    fn info_reports_stats() {
        let dir = std::env::temp_dir().join("hgp-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("path.metis");
        std::fs::write(&path, "3 2\n2\n1 3\n2\n").unwrap();
        let cli = Cli::parse(&[
            "info".into(),
            "--graph".into(),
            path.to_string_lossy().into_owned(),
        ])
        .unwrap();
        let mut out = Vec::new();
        run(&cli, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("nodes      3"));
        assert!(text.contains("connected  true"));
    }
}
