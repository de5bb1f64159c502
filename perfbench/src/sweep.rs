//! `paper-sweep`: the work `reproduce --scale 0.05 --out` does — Tables
//! 1-3 and every figure runner over the eight kernels, on one `TraceSet`
//! with two sweep workers, ending with the dataset written to disk.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dsm_bench::figures::{
    all_workloads, fig10, fig11, fig3, fig4, fig5, fig6, fig7, fig8, fig9, origin, tables,
};
use dsm_bench::{FigureTable, Jobs, TraceSet};
use dsm_core::obs::span::{SpanEvent, SpanTracer};
use dsm_core::obs::{write_json_atomic, Json};
use dsm_core::PhaseCounters;
use dsm_trace::{Scale, WorkloadKind};
use dsm_types::DsmError;

use crate::layers::{self, merge_windows, REPS};
use crate::stats::{
    median, more_passes, nproc, peak_heap_mb, peak_rss_mb, reset_peaks, timed, CpuRotation,
};
use crate::traces;
use crate::{Args, Checks, Metric, Outcome};

/// The scale the committed goldens were made at.
const SCALE: f64 = 0.05;
const GOLDEN_DATASET: &str = "ci/golden/reproduce_full.scale0.05.json";
const GOLDEN_STDOUT: &str = "ci/golden/reproduce_stdout.scale0.05.txt";
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

type Runner = fn(&mut TraceSet, &[WorkloadKind]) -> Result<FigureTable, DsmError>;

/// Each figure: its dataset name, its runner, and the design points it
/// simulates per kernel (the work behind `mrefs_per_s`).
fn figures() -> Vec<(&'static str, Runner, usize)> {
    vec![
        ("fig3", fig3::run as Runner, fig3::specs().len()),
        ("fig4", fig4::run, 2),
        ("fig5", fig5::run, 2),
        ("fig6", fig6::run, 2),
        ("fig6-tight (supplementary)", fig6::run_tight, 2),
        ("fig7", fig7::run, fig7::specs().len()),
        ("fig8", fig8::run, 2),
        ("fig9", fig9::run, fig9::specs().len()),
        ("fig10", fig10::run, fig9::specs().len()),
        ("fig11", fig11::run, fig11::specs().len()),
        ("origin (supplementary)", origin::run, origin::specs().len()),
    ]
}

/// The committed reference output.
struct Golden {
    dataset_text: String,
    dataset: Json,
    stdout: String,
}

impl Golden {
    fn load(root: &Path) -> Result<Golden, String> {
        let read = |rel: &str| {
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
        };
        let dataset_text = read(GOLDEN_DATASET)?;
        let dataset = Json::parse(&dataset_text).map_err(|e| format!("{GOLDEN_DATASET}: {e}"))?;
        Ok(Golden {
            dataset_text,
            dataset,
            stdout: read(GOLDEN_STDOUT)?,
        })
    }
}

/// A trace set configured explicitly: scale, sweep workers, one replay
/// thread per point, heap-resident traces.
fn trace_set(scale: Scale, jobs: Jobs) -> TraceSet {
    let mut ts = TraceSet::with_jobs(scale, jobs);
    ts.set_shard_workers(1);
    ts.set_mmap(false);
    ts
}

fn span_refs(e: &SpanEvent) -> u64 {
    e.args
        .iter()
        .find(|(k, _)| *k == "refs")
        .map_or(0, |(_, v)| *v)
}

fn is_trace_load(e: &SpanEvent) -> bool {
    e.name.starts_with("trace load:")
}

/// One set-up: a fresh trace set with all eight kernels prepared.
/// Returns it, the seconds taken and the kernels' total references (read
/// from the eight `trace load:` spans of a tracer attached only here).
fn setup(scale: Scale, jobs: Jobs, kinds: &[WorkloadKind]) -> (TraceSet, f64, u64) {
    let tracer = Arc::new(SpanTracer::new());
    let (mut ts, secs) = timed(|| {
        let mut ts = trace_set(scale, jobs);
        ts.set_tracer(Some(Arc::clone(&tracer)));
        for &k in kinds {
            ts.prepare(k);
        }
        ts
    });
    ts.set_tracer(None);
    let refs = tracer
        .events()
        .iter()
        .filter(|e| is_trace_load(e))
        .map(span_refs)
        .sum();
    (ts, secs, refs)
}

/// One pass's output.
struct Pass {
    wall_s: f64,
    /// Seconds spent rendering tables and writing the dataset.
    write_s: f64,
    tables: Vec<Option<FigureTable>>,
    stdout: String,
    written: Result<(), String>,
}

/// Runs every figure once and writes the dataset, as `reproduce` does.
fn sweep_pass(
    ts: &mut TraceSet,
    kinds: &[WorkloadKind],
    figs: &[(&'static str, Runner, usize)],
    out: &Path,
) -> Pass {
    let t0 = Instant::now();
    let mut write_s = 0.0;
    let mut stdout = format!(
        "{}\n{}\n{}\n",
        tables::table1(),
        tables::table2(),
        tables::table3()
    );
    let mut exported = Vec::new();
    let mut tabs = Vec::new();
    for &(name, runner, _) in figs {
        let table = match catch_unwind(AssertUnwindSafe(|| runner(ts, kinds))) {
            Ok(Ok(t)) => Some(t),
            Ok(Err(e)) => {
                eprintln!("perfbench: paper-sweep {name}: {e}");
                None
            }
            Err(_) => {
                eprintln!("perfbench: paper-sweep {name} panicked");
                None
            }
        };
        if let Some(t) = &table {
            write_s += timed(|| {
                stdout.push_str(&t.render());
                stdout.push('\n');
                exported.push(t.to_json().set("figure", name));
            })
            .1;
        }
        tabs.push(table);
    }
    let dataset = Json::obj()
        .set("scale", ts.scale().factor())
        .set("figures", exported);
    let (written, secs) = timed(|| write_json_atomic(out, &dataset).map_err(|e| e.to_string()));
    write_s += secs;
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        write_s,
        tables: tabs,
        stdout,
        written,
    }
}

/// Checks every golden table cell, then the dataset file and the rendered
/// tables byte for byte.
fn check_pass(
    pass: &Pass,
    figs: &[(&'static str, Runner, usize)],
    golden: &Golden,
    out: &Path,
    checks: &mut Checks,
) {
    let empty = Vec::new();
    let gfigs = golden
        .dataset
        .get("figures")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    for g in gfigs {
        let text = |j: Option<&Json>| j.and_then(Json::as_str).unwrap_or("?").to_owned();
        let name = text(g.get("figure"));
        let caption = text(g.get("caption"));
        let columns: Vec<String> = g
            .get("columns")
            .and_then(Json::as_array)
            .unwrap_or(&empty)
            .iter()
            .map(|c| text(Some(c)))
            .collect();
        let ours = figs
            .iter()
            .position(|f| f.0 == name)
            .and_then(|i| pass.tables[i].as_ref());
        for (ri, row) in g
            .get("rows")
            .and_then(Json::as_array)
            .unwrap_or(&empty)
            .iter()
            .enumerate()
        {
            let bench = text(row.get("benchmark"));
            let values = row.get("values").and_then(Json::as_array).unwrap_or(&empty);
            for (ci, want) in values.iter().enumerate() {
                let ok = ours.is_some_and(|t| {
                    t.caption == caption
                        && t.columns.get(ci) == columns.get(ci)
                        && t.rows.get(ri).is_some_and(|(b, v)| {
                            *b == bench && v.get(ci).copied() == want.as_f64()
                        })
                });
                checks.record(ok, || {
                    let col = columns.get(ci).map_or("?", String::as_str);
                    format!("paper-sweep {name} {bench}/{col}")
                });
            }
        }
    }
    let file_ok = pass.written.is_ok()
        && std::fs::read_to_string(out).is_ok_and(|s| s == golden.dataset_text);
    checks.record(file_ok, || {
        format!("paper-sweep dataset differs from {GOLDEN_DATASET}")
    });
    checks.record(pass.stdout == golden.stdout, || {
        format!("paper-sweep rendered tables differ from {GOLDEN_STDOUT}")
    });
}

pub fn run(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let golden = Golden::load(root)?;
    let scale = Scale::new(SCALE).map_err(|e| e.to_string())?;
    let workers = nproc().min(2);
    let jobs = Jobs::new(workers)?;
    let kinds = all_workloads();
    let figs = figures();

    let mut setup_s = Vec::new();
    let mut prepared = None;
    let cpus = CpuRotation::new()?;
    for rep in 0..SETUP_REPS {
        // One trace set at a time, as `reproduce` holds.
        drop(prepared.take());
        cpus.pin(rep)?;
        let (ts, secs, refs) = setup(scale, jobs, &kinds);
        setup_s.push(secs);
        prepared = Some((ts, refs));
    }
    // The sweep workers inherit the affinity of the thread that starts them.
    drop(cpus);
    let (mut ts, kernel_refs) = prepared.expect("at least one set-up");
    let points_per_kernel: usize = figs.iter().map(|f| f.2).sum();

    let out = work.join("reproduce_full.json");
    let mut checks = Checks::default();
    let mut pass_s = Vec::new();
    reset_peaks()?;
    let t0 = Instant::now();
    while more_passes(&pass_s, 1, t0, args.seconds) {
        if !pass_s.is_empty() {
            // Each sweep evicts its kernel; restore the set-up state.
            for &k in &kinds {
                ts.prepare(k);
            }
        }
        let pass = sweep_pass(&mut ts, &kinds, &figs, &out);
        check_pass(&pass, &figs, &golden, &out, &mut checks);
        pass_s.push(pass.wall_s);
    }
    let peak_heap_mb = peak_heap_mb();
    let peak_rss_mb = peak_rss_mb()?;

    let run_s = median(&pass_s);
    let layers = if args.trace {
        traced(&mut ts, scale, workers, run_s, &golden, work, &mut checks)?
    } else {
        Vec::new()
    };
    Ok(Outcome {
        setup_s,
        pass_s,
        peak_heap_mb,
        peak_rss_mb,
        refs_per_pass: kernel_refs * points_per_kernel as u64,
        events_per_ref: None,
        checks,
        layers,
    })
}

/// The traced pass (span tracer and phase profiler attached) and the
/// per-layer measurements over the eight kernels.
fn traced(
    ts: &mut TraceSet,
    scale: Scale,
    workers: usize,
    untraced_run_s: f64,
    golden: &Golden,
    work: &Path,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let kinds = all_workloads();
    let figs = figures();
    for &k in &kinds {
        ts.prepare(k);
    }
    let tracer = Arc::new(SpanTracer::new());
    ts.set_tracer(Some(Arc::clone(&tracer)));
    ts.enable_phase_stats(true);
    let out_path = work.join("reproduce_full.json");
    let pass = sweep_pass(ts, &kinds, &figs, &out_path);
    ts.set_tracer(None);
    ts.enable_phase_stats(false);
    check_pass(&pass, &figs, golden, &out_path, checks);

    let mut counters = PhaseCounters::new();
    for (_, c) in ts.take_phase_rollups() {
        counters.merge(&c);
    }
    let events = tracer.events();
    let points: Vec<&SpanEvent> = events
        .iter()
        .filter(|e| e.name != "sweep worker" && !is_trace_load(e))
        .collect();
    let windows = merge_windows(
        events
            .iter()
            .filter(|e| e.name == "sweep worker")
            .map(|e| (e.start_us, e.start_us + e.dur_us))
            .collect(),
    );

    let identity = traces::permutation(0, ts.topology());
    let cpus = CpuRotation::new()?;
    let (kernels, heap, times) = traces::build(&kinds, scale, &identity, work, REPS, &cpus)?;
    drop(cpus);
    let generations = events.iter().filter(|e| is_trace_load(e)).count();
    let (_, map_s) = traces::map_reps(&kernels, REPS)?;
    let mut out = layers::pipeline_metrics(&times, generations, &map_s);
    layers::replay_layers(&kernels, &heap, workers, &mut out)?;
    layers::phase_metrics(
        &counters,
        points.iter().map(|e| span_refs(e)).sum(),
        &mut out,
    );
    layers::sweep_metrics(&points, &windows, workers, &mut out);
    out.push(Metric::new("report.write_s", pass.write_s, "s"));
    out.push(Metric::new(
        "obs.tracing_overhead_frac",
        pass.wall_s / untraced_run_s - 1.0,
        "ratio",
    ));
    Ok(out)
}
