//! Every binary reads its command line through `uba_bench::cli`: `--help`
//! prints the usage on stderr and exits 2, and a malformed value exits 2
//! with a message naming the flag, then the usage. Exit codes 0 and 1 stay
//! the verdicts of a run.

use std::process::{Command, Output};

/// Each binary, its `--help` invocation, and one malformed value with the
/// flag the message must name.
const CASES: [(&str, &[&str], &[&str], &str); 8] = [
    (
        env!("CARGO_BIN_EXE_experiments"),
        &["--help"],
        &["--jobs", "0"],
        "--jobs",
    ),
    (
        env!("CARGO_BIN_EXE_soak"),
        &["--help"],
        &["--seeds", "many"],
        "--seeds",
    ),
    (
        env!("CARGO_BIN_EXE_bench-report"),
        &["--help"],
        &["--write", "--check"],
        "--check",
    ),
    (
        env!("CARGO_BIN_EXE_cluster"),
        &["--help"],
        &["--nodes", "x"],
        "--nodes",
    ),
    (
        env!("CARGO_BIN_EXE_cluster"),
        &["scrape", "--help"],
        &["scrape", "--count", "-1"],
        "--count",
    ),
    (
        env!("CARGO_BIN_EXE_logd"),
        &["--help"],
        &["--shards", "0"],
        "--shards",
    ),
    (
        env!("CARGO_BIN_EXE_loadgen"),
        &["--help"],
        &["--addr", "127.0.0.1:1", "--clients", "none"],
        "--clients",
    ),
    (
        env!("CARGO_BIN_EXE_uba-demo"),
        &["consensus", "--help"],
        &["consensus", "--nodes", "x"],
        "--nodes",
    ),
];

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let Output { status, stderr, .. } = Command::new(bin).args(args).output().expect("runs");
    (
        status.code(),
        String::from_utf8(stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn help_prints_the_usage_and_exits_2() {
    for (bin, help, _, _) in CASES {
        let (code, stderr) = run(bin, help);
        assert_eq!(code, Some(2), "{bin} {help:?}: {stderr}");
        assert!(
            stderr.to_lowercase().contains("usage"),
            "{bin} {help:?}: {stderr}"
        );
    }
}

#[test]
fn a_malformed_value_names_its_flag_and_exits_2() {
    for (bin, _, bad, flag) in CASES {
        let (code, stderr) = run(bin, bad);
        assert_eq!(code, Some(2), "{bin} {bad:?}: {stderr}");
        let reason = stderr.lines().next().unwrap_or_default();
        assert!(reason.contains(flag), "{bin} {bad:?}: {stderr}");
        assert!(
            stderr.to_lowercase().contains("usage"),
            "{bin} {bad:?}: {stderr}"
        );
    }
}

#[test]
fn uba_demo_without_a_command_prints_the_usage_and_exits_2() {
    for args in [&[][..], &["--help"], &["-h"], &["paxos"]] {
        let (code, stderr) = run(env!("CARGO_BIN_EXE_uba-demo"), args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
}

/// `uba-demo trap`'s sweep, as it prints it: the cliff sits at the
/// decision horizon (patience + 1), for an even and an uneven split.
const TRAP_PATIENCE_4: &str = "\
two groups of 3 vs 4, patience 4, decision horizon 5 ticks
cross-delay | outcome
          1 | agreement
          2 | agreement
          3 | agreement
          4 | agreement
          5 | agreement
          6 | DISAGREEMENT
          7 | DISAGREEMENT
          8 | DISAGREEMENT
";

const TRAP_5_NODES_PATIENCE_2: &str = "\
two groups of 2 vs 3, patience 2, decision horizon 3 ticks
cross-delay | outcome
          1 | agreement
          2 | agreement
          3 | agreement
          4 | DISAGREEMENT
          5 | DISAGREEMENT
          6 | DISAGREEMENT
";

#[test]
fn uba_demo_trap_prints_the_pinned_sweep() {
    let cases: [(&[&str], &str); 2] = [
        (&["trap", "--patience", "4"], TRAP_PATIENCE_4),
        (
            &["trap", "--nodes", "5", "--patience", "2"],
            TRAP_5_NODES_PATIENCE_2,
        ),
    ];
    for (args, expected) in cases {
        let Output { status, stdout, .. } = Command::new(env!("CARGO_BIN_EXE_uba-demo"))
            .args(args)
            .output()
            .expect("runs");
        assert!(status.success(), "{args:?}: {status}");
        let stdout = String::from_utf8(stdout).expect("utf-8 stdout");
        assert_eq!(stdout, expected, "{args:?}");
    }
}
