//! End-to-end crash-safety: a `reproduce` run killed mid-sweep (via the
//! `DSM_FAULT_ABORT` injection point, which calls `abort()` inside a
//! worker) and then resumed from its journal must produce a dataset
//! byte-identical to an uninterrupted run — same figures, same f64 bits,
//! whatever the worker count, and whatever `--shard-workers` split the
//! replay itself runs under. Wall-clock timings are deliberately outside
//! the comparison (they live in `timings.json`, not the dataset).

use std::path::Path;
use std::process::{Command, Output};

/// The 6th of fig3's nine LU sweep points: by the time a 2-worker sweep
/// reaches it, several earlier points have already been journaled, so
/// the resumed run exercises both the skip path and the re-run path.
const ABORT_AT: &str = "2w-vb16/LU";

fn reproduce(base: &[&str], args: &[&str], abort_at: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    // Hermetic: a caller's DSM_* settings (a fault plan, a job count,
    // a storage override) must not reach the child.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DSM_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(["--scale", "0.05", "--figures", "fig3"]);
    cmd.args(base);
    cmd.args(args);
    if let Some(label) = abort_at {
        cmd.env("DSM_FAULT_ABORT", label);
    }
    cmd.output().expect("spawn reproduce")
}

fn read_dataset(dir: &Path) -> Vec<u8> {
    let path = dir.join("reproduce_full.json");
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The full kill-and-resume cycle under `base` flags: an uninterrupted
/// reference run, a journaled run killed at [`ABORT_AT`], and a resume
/// that must merge to a byte-identical dataset. `tag` isolates the temp
/// tree so the sharded variants can run concurrently.
fn kill_and_resume_cycle(tag: &str, base: &[&str]) {
    let tmp = std::env::temp_dir().join(format!("dsm-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create temp dir");
    let dir_straight = tmp.join("straight");
    let dir_resumed = tmp.join("resumed");
    let journal = tmp.join("sweep.jsonl");
    let journal_s = journal.to_str().expect("utf-8 temp path");

    // 1. The reference: an uninterrupted serial run.
    let out = reproduce(
        base,
        &[
            "--jobs",
            "1",
            "--out",
            dir_straight.to_str().expect("utf-8"),
        ],
        None,
    );
    assert!(
        out.status.success(),
        "[{tag}] uninterrupted run failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // 2. A journaled 2-worker run killed mid-sweep by an injected abort.
    let out = reproduce(
        base,
        &[
            "--jobs",
            "2",
            "--out",
            dir_resumed.to_str().expect("utf-8"),
            "--journal",
            journal_s,
        ],
        Some(ABORT_AT),
    );
    assert!(
        !out.status.success(),
        "[{tag}] the injected abort must kill the run"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("DSM_FAULT_ABORT tripped"),
        "[{tag}] the run must die at the injection point, not elsewhere:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !dir_resumed.join("reproduce_full.json").exists(),
        "[{tag}] a killed run must not leave a dataset behind"
    );
    let journal_bytes = std::fs::read(&journal).expect("journal must survive the crash");
    assert!(
        !journal_bytes.is_empty(),
        "[{tag}] completed points must be journaled before the crash"
    );

    // 3. Resume from the journal: completed points are skipped, the rest
    //    (including the aborted point) are recomputed.
    let out = reproduce(
        base,
        &[
            "--jobs",
            "2",
            "--out",
            dir_resumed.to_str().expect("utf-8"),
            "--resume",
            journal_s,
        ],
        None,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "[{tag}] resumed run failed:\n{stderr}"
    );
    assert!(
        stderr.contains("resumed journal"),
        "[{tag}] resume must report the reloaded journal:\n{stderr}"
    );

    // The merged output must be byte-identical to never having crashed.
    assert_eq!(
        read_dataset(&dir_straight),
        read_dataset(&dir_resumed),
        "[{tag}] resumed dataset diverged from the uninterrupted run"
    );

    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn killed_sweep_resumes_to_byte_identical_output() {
    kill_and_resume_cycle("serial", &["--workloads", "lu"]);
}

/// Same cycle with the replay itself sharded two ways: the LU and FFT
/// sweep points replay through the sharded rounds engine, so the crash,
/// journal skip, and re-run paths are all proven on top of supervised
/// sharded replay — not just the serial oracle.
#[test]
fn killed_sharded_sweep_resumes_to_byte_identical_output() {
    kill_and_resume_cycle("shard2", &["--workloads", "lu,fft", "--shard-workers", "2"]);
}

/// `--shard-workers auto` resolves the replay split from the host's
/// parallelism and the `--jobs` budget; resume identity must hold there
/// too, since that is the configuration operators actually run.
#[test]
fn killed_auto_sharded_sweep_resumes_to_byte_identical_output() {
    kill_and_resume_cycle(
        "shard-auto",
        &["--workloads", "lu,fft", "--shard-workers", "auto"],
    );
}
