//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-sweep|point-read|point-write> --seed <n>
//!           --seconds <n> --trace <0|1> [--record]
//! ```
//!
//! `--trace 0` times the workload and prints its end-to-end metrics;
//! `--trace 1` times it the same way, then makes one traced pass and the
//! per-layer measurements, and prints the per-layer metrics. Every
//! simulated result is checked; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--record` (seed 0,
//! point workloads) rewrites the committed expected reports from a
//! checked replay. See README.md beside this file.

mod layers;
mod point;
mod stats;
mod sweep;
mod traces;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dsm_core::obs::Json;

use crate::stats::{median, nproc, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <paper-sweep|point-read|point-write> \
                     --seed <n> --seconds <n> --trace <0|1> [--record]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    PointRead,
    PointWrite,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "paper-sweep" => Some(Workload::PaperSweep),
            "point-read" => Some(Workload::PointRead),
            "point-write" => Some(Workload::PointWrite),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper-sweep",
            Workload::PointRead => "point-read",
            Workload::PointWrite => "point-write",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub record: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut record) =
        (None, None, None, None, false);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--record" {
            record = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
        i += 2;
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        record,
    };
    if args.record && (args.seed != 0 || args.workload == Workload::PaperSweep) {
        return Err("--record applies to the point workloads at seed 0".to_owned());
    }
    Ok(args)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Tally of checked simulated results.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one checked result; a failure is named on stderr.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {}", what());
        }
    }
}

/// What a workload measured.
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of each untraced timed pass.
    pub pass_s: Vec<f64>,
    /// Peak live heap of the untraced timed passes, in MB.
    pub peak_heap_mb: f64,
    /// Peak resident memory of the same passes, in MB.
    pub peak_rss_mb: f64,
    /// Simulated references one pass replays.
    pub refs_per_pass: u64,
    /// The work proxy, where the untraced run measures it.
    pub events_per_ref: Option<f64>,
    pub checks: Checks,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path, workload: Workload) -> Result<WorkDir, String> {
        let dir =
            root.join(".bench_work")
                .join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using the directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().unwrap_or(manifest).to_path_buf()
}

fn run(args: &Args) -> Result<(), String> {
    let root = repo_root();
    let work = WorkDir::create(&root, args.workload)?;
    let outcome = match args.workload {
        Workload::PaperSweep => sweep::run(args, &root, work.path())?,
        Workload::PointRead | Workload::PointWrite => point::run(args, &root, work.path())?,
    };
    drop(work);

    let setup_s = median(&outcome.setup_s);
    let run_s = median(&outcome.pass_s);
    let mrefs_per_s = outcome.refs_per_pass as f64 / run_s / 1e6;
    let peak_heap_mb = outcome.peak_heap_mb;
    let checks = &outcome.checks;
    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "perfbench: {} seed={} nproc={} setup_s=[{}] pass_s=[{}]",
        args.workload.name(),
        args.seed,
        nproc(),
        list(&outcome.setup_s),
        list(&outcome.pass_s)
    );
    println!(
        "perfbench: {} setup_s={setup_s:.4} s run_s={run_s:.4} s mrefs_per_s={mrefs_per_s:.3} Mrefs/s \
         peak_heap_mb={peak_heap_mb:.1} MB peak_rss_mb={:.1} MB failed_frac={failed_frac} ({}/{})",
        args.workload.name(),
        outcome.peak_rss_mb,
        checks.failed,
        checks.attempted
    );
    let events = outcome
        .events_per_ref
        .or_else(|| {
            let m = outcome
                .layers
                .iter()
                .find(|m| m.name == "system.events_per_ref");
            m.map(|m| m.value)
        })
        .map_or_else(|| "in the traced run".to_owned(), |e| format!("{e:.6}"));
    println!(
        "perfbench: {} work refs={} system.events_per_ref={events}",
        args.workload.name(),
        outcome.refs_per_pass
    );
    let metrics = if args.trace {
        let mut layers = outcome.layers;
        layers.push(Metric::new("mem.peak_rss_mb", outcome.peak_rss_mb, "MB"));
        for m in &layers {
            println!("perfbench:   {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("run_s", run_s, "s"),
            Metric::new("mrefs_per_s", mrefs_per_s, "Mrefs/s"),
            Metric::new("peak_heap_mb", peak_heap_mb, "MB"),
        ]
    };
    let mut json_metrics = Json::obj();
    for m in metrics {
        json_metrics = json_metrics.set(
            &m.name,
            Json::obj().set("value", m.value).set("unit", m.unit),
        );
    }
    let result = Json::obj()
        .set("correct", checks.failed == 0 && checks.attempted > 0)
        .set("attempted", checks.attempted)
        .set("failed", checks.failed)
        .set("metrics", json_metrics);
    println!("{}", result.render());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The program reads DSM_* variables as fallbacks for its settings;
    // the benchmark passes every setting explicitly and measures nothing
    // an environment could change.
    let env: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("DSM_"))
        .collect();
    if !env.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it",
            env.join(", ")
        );
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(1)
        }
    }
}
