//! The `hgp` command line, through the parser the binary uses.

use hgp_cli::Cli;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn partition_and_serve_reject_no_prune() {
    // dominance pruning is always on in the signature DP; its opt-out
    // flag is gone from both commands that once took it
    for args in [
        "partition --graph g.metis --machine 2x2 --no-prune",
        "serve --addr 127.0.0.1:0 --no-prune",
    ] {
        assert_eq!(
            Cli::parse(&argv(args)),
            Err("unknown flag --no-prune".to_string()),
            "{args}"
        );
    }
}
