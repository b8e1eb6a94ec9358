//! Request scripts for driving `hgp-server` — the closed-loop load
//! generator behind `hgp client`.
//!
//! A script is an ordered list of wire-protocol request lines (see the
//! `hgp-server` crate for the grammar) that a client plays back over one
//! connection, reading one reply per line. Scripts are deterministic given
//! the seed, and deliberately revisit a small pool of graph topologies so
//! a server-side decomposition cache has hits to show; a fraction of the
//! solves carry tight deadlines to exercise the degradation path, and each
//! script interleaves an elastic placement session (`mutate` edits and
//! budgeted `resolve`s) with the solves — the same mixture the server's
//! loopback integration test replays.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs for [`request_script`].
#[derive(Clone, Debug)]
pub struct RequestScriptOpts {
    /// Total `solve` requests in the script.
    pub solves: usize,
    /// Distinct graph topologies cycled through (smaller = more cache
    /// hits).
    pub topologies: usize,
    /// Fraction of solves carrying a (likely impossible) 1 ms deadline.
    pub tight_deadline_frac: f64,
    /// Machine descriptor sent with every request.
    pub machine: String,
    /// Incremental operations woven between solves.
    pub incr_ops: usize,
}

impl Default for RequestScriptOpts {
    fn default() -> Self {
        Self {
            solves: 12,
            topologies: 3,
            tight_deadline_frac: 0.25,
            machine: "2x4:4,1,0".to_string(),
            incr_ops: 8,
        }
    }
}

/// Builds a deterministic request script.
///
/// The returned lines use `session=SID` as a placeholder in
/// `place-incremental` requests (except `new`): the session id is assigned
/// by the server at runtime, so the client substitutes the id it got back
/// from `new` before sending. [`substitute_session`] does exactly that.
pub fn request_script(seed: u64, opts: &RequestScriptOpts) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lines = Vec::new();
    let topologies = opts.topologies.max(1);
    // Topology pool: clustered graphs of varying shape, each with a fixed
    // per-topology seed so repeats fingerprint identically on the server.
    let topo_seeds: Vec<u64> = (0..topologies)
        .map(|_| rng.gen_range(1..1u64 << 40))
        .collect();

    lines.push(format!("place-incremental new machine={}", opts.machine));
    let mut live: Vec<usize> = Vec::new();
    let mut next_task = 0usize;
    let mut incr_left = opts.incr_ops;

    for i in 0..opts.solves {
        let topo = i % topologies;
        let blocks = 2 + topo % 3;
        let solve_seed = 100 + topo as u64; // same topology → same request
        let deadline = if rng.gen_bool(opts.tight_deadline_frac.clamp(0.0, 1.0)) {
            " deadline-ms=1"
        } else {
            ""
        };
        lines.push(format!(
            "solve graph=gen:clustered:{blocks}x4:{} machine={} demand=0.3 trees=4 seed={solve_seed}{deadline}",
            topo_seeds[topo], opts.machine
        ));

        // interleave incremental churn between solves
        for _ in 0..(incr_left.min(1 + opts.incr_ops / opts.solves.max(1))) {
            incr_left -= 1;
            let roll = rng.gen_range(0..10u32);
            if live.is_empty() || roll < 5 {
                let nbrs = if live.is_empty() || rng.gen_bool(0.3) {
                    String::new()
                } else {
                    let t = live[rng.gen_range(0..live.len())];
                    format!(":{t}:{:.1}", rng.gen_range(0.5..4.0))
                };
                lines.push(format!(
                    "place-incremental mutate session=SID add={:.2}{nbrs}",
                    rng.gen_range(0.05..0.4)
                ));
                live.push(next_task);
                next_task += 1;
            } else if roll < 7 {
                let idx = rng.gen_range(0..live.len());
                let t = live.swap_remove(idx);
                lines.push(format!("place-incremental mutate session=SID remove={t}"));
            } else if roll < 9 {
                let t = live[rng.gen_range(0..live.len())];
                lines.push(format!(
                    "place-incremental mutate session=SID demand={t}:{:.2}",
                    rng.gen_range(0.05..0.5)
                ));
            } else {
                lines.push("place-incremental resolve session=SID budget=8".to_string());
            }
        }
    }
    lines.push("place-incremental info session=SID".to_string());
    lines.push("place-incremental end session=SID".to_string());
    lines.push("stats2".to_string());
    lines
}

/// Replaces the `session=SID` placeholder with a concrete id.
pub fn substitute_session(line: &str, session: u64) -> String {
    line.replace("session=SID", &format!("session={session}"))
}

/// Extracts `key=value` from a reply line, if present.
pub fn reply_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_deterministic() {
        let opts = RequestScriptOpts::default();
        assert_eq!(request_script(7, &opts), request_script(7, &opts));
        assert_ne!(request_script(7, &opts), request_script(8, &opts));
    }

    #[test]
    fn script_mixes_solves_and_incremental() {
        let opts = RequestScriptOpts::default();
        let script = request_script(3, &opts);
        let solves = script.iter().filter(|l| l.starts_with("solve ")).count();
        let incr = script
            .iter()
            .filter(|l| l.starts_with("place-incremental "))
            .count();
        assert_eq!(solves, opts.solves);
        assert!(incr >= 3, "script has almost no incremental traffic");
        assert_eq!(script.last().map(String::as_str), Some("stats2"));
        // repeat topologies: fewer distinct graph= values than solves
        let mut graphs: Vec<&str> = script
            .iter()
            .filter_map(|l| reply_field(l, "graph"))
            .collect();
        graphs.sort_unstable();
        graphs.dedup();
        assert_eq!(graphs.len(), opts.topologies);
    }

    #[test]
    fn some_solves_carry_deadlines() {
        let opts = RequestScriptOpts {
            solves: 40,
            tight_deadline_frac: 0.5,
            ..Default::default()
        };
        let script = request_script(11, &opts);
        let with_deadline = script.iter().filter(|l| l.contains("deadline-ms=")).count();
        assert!(with_deadline > 0, "no deadline requests generated");
        assert!(with_deadline < 40, "every request got a deadline");
    }

    #[test]
    fn session_substitution_and_reply_fields() {
        assert_eq!(
            substitute_session("place-incremental mutate session=SID add=0.2", 17),
            "place-incremental mutate session=17 add=0.2"
        );
        assert_eq!(reply_field("ok session=4 leaves=8", "session"), Some("4"));
        assert_eq!(reply_field("ok cost=1.25 degraded=0", "cost"), Some("1.25"));
        assert_eq!(reply_field("ok cost=1.25", "missing"), None);
    }
}
