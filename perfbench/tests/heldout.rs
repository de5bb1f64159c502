//! Runs each point workload once at a held-out seed, one never used
//! while the benchmark was tuned (tuning used seeds 0-70). It shows that
//! the seeded processor relabelling passes its correctness check, and it
//! names an input that later performance claims can be checked on.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`:
//! the point workloads replay paper-scale traces.

use std::process::Command;

use dsm_core::obs::Json;

const HELD_OUT_SEED: &str = "7919";

fn run_once(workload: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", HELD_OUT_SEED])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{workload}: {last}\n{stderr}"
    );
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64) > Some(0));
}

#[test]
fn point_read_passes_its_checks_at_a_held_out_seed() {
    run_once("point-read");
}

#[test]
fn point_write_passes_its_checks_at_a_held_out_seed() {
    run_once("point-write");
}
