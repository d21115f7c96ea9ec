//! The `campaign` front end as a user drives it: argument parsing, the
//! three output formats and the exit codes (0 every run passed, 2 usage
//! error), against the real binary.

use mmwave_campaign::artifact;
use mmwave_campaign::json::Json;
use mmwave_core::experiments;
use std::process::{Command, Output};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("run campaign")
}

/// Run a successful invocation and return its stdout.
fn stdout_of(args: &[&str]) -> String {
    let out = campaign(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn report_prints_banner_output_and_verdict() {
    let text = stdout_of(&["--quick", "--jobs", "1", "--format", "report", "table1"]);
    let title = experiments::find("table1").expect("registered").title;
    assert!(
        text.contains(&format!("# table1 — {title} (seed 1)")),
        "{text}"
    );
    assert!(text.contains("[PASS] all shape checks hold"), "{text}");
}

#[test]
fn json_prints_the_manifest() {
    let text = stdout_of(&["--quick", "--jobs", "1", "--format", "json", "table1"]);
    let manifest = Json::parse(&text).expect("stdout is one JSON document");
    assert_eq!(
        manifest.get("schema").and_then(Json::as_str),
        Some(artifact::MANIFEST_SCHEMA)
    );
}

#[test]
fn table_is_the_default_format() {
    let text = stdout_of(&["--quick", "--jobs", "1", "table1"]);
    let header = format!(
        "{:<8} {:>6} {:>10} {:>12} {:>9}  status\n",
        "id", "seed", "wall ms", "events", "peak q"
    );
    assert!(text.starts_with(&header), "{text}");
    assert!(
        text.ends_with("\nshared results: 0 computed, 0 reused\n"),
        "{text}"
    );
}

#[test]
fn usage_errors_exit_2_and_print_nothing() {
    for args in [
        &["--format", "bogus", "table1"][..],
        &["no_such_experiment"],
        &["--resume", "table1"],
        &["--seeds", "0..18446744073709551615", "--list"],
        &["--prune", "bogus", "table1"],
        &["--cc", "bogus", "table1"],
        // One over the binary's MAX_JOBS; with --list nothing would start.
        &["--jobs", "1025", "--list"],
        // There is no `--workers` flag and no `worker` subcommand.
        &["--workers", "2", "table1"],
        &["worker"],
    ] {
        let out = campaign(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(!out.stderr.is_empty(), "{args:?} says why");
    }
}

#[test]
fn list_names_every_registered_experiment() {
    // MAX_JOBS itself is accepted.
    let text = stdout_of(&["--jobs", "1024", "--list"]);
    for id in experiments::ids() {
        assert!(
            text.lines()
                .any(|l| l.split_whitespace().next() == Some(id)),
            "{id} missing:\n{text}"
        );
    }
}
