//! `point-read` and `point-write`: single design points at paper scale.
//! Each kernel is generated once per set-up and written as a v2 file;
//! every pass maps the files with the zero-copy loader and replays the
//! workload's configurations one point at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use dsm_core::obs::span::{SpanEvent, SpanTracer};
use dsm_core::obs::{write_json_atomic, Json};
use dsm_core::runner::{report_of, run_trace, run_trace_probed};
use dsm_core::{PcSize, PhaseCounters, PhaseProfiler, Report, System, SystemSpec};
use dsm_trace::{Scale, SharedTrace, WorkloadKind};
use dsm_types::Topology;

use crate::layers::{self, REPS};
use crate::stats::{
    median, more_passes, nproc, peak_heap_mb, peak_rss_mb, reset_peaks, timed, CpuRotation,
};
use crate::traces::{self, Kernel};
use crate::{Args, Checks, Metric, Outcome, Workload};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Timed passes made even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 2;

fn kernels(w: Workload) -> Vec<WorkloadKind> {
    match w {
        Workload::PointRead => vec![WorkloadKind::Lu, WorkloadKind::Raytrace],
        _ => vec![WorkloadKind::Radix],
    }
}

fn specs(w: Workload) -> Vec<SystemSpec> {
    let pc = PcSize::DataFraction(5);
    match w {
        Workload::PointRead => vec![
            SystemSpec::base(),
            SystemSpec::vb(),
            SystemSpec::vpp(pc),
            SystemSpec::origin(),
        ],
        _ => vec![
            SystemSpec::base(),
            SystemSpec::vb(),
            SystemSpec::vpp(pc),
            SystemSpec::vxp(pc, 32),
            SystemSpec::base().with_limited_directory(4),
        ],
    }
}

/// The committed expected reports for seed 0.
fn expected_path(root: &Path, w: Workload) -> PathBuf {
    root.join("perfbench")
        .join("expected")
        .join(format!("{}.json", w.name()))
}

fn load_expected(path: &Path) -> Result<Vec<Report>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get("reports")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{}: no reports array", path.display()))?
        .iter()
        .map(|r| Report::from_json(r).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// The reference for one point: a heap-resident replay on the checked,
/// per-reference path, under the phase profiler (its counts are the work
/// proxy).
fn checked_replay(
    spec: &SystemSpec,
    k: &Kernel,
    trace: &SharedTrace,
) -> Result<(Report, PhaseCounters), String> {
    let mut system = System::with_probe(
        spec.clone(),
        *trace.topology(),
        *trace.geometry(),
        k.data_bytes,
        PhaseProfiler::for_spec(spec),
    )
    .map_err(|e| e.to_string())?;
    system
        .run_shared_checked(trace)
        .map_err(|e| e.to_string())?;
    system.finish();
    let report = report_of(&system, &k.name, k.data_bytes, trace.len() as u64);
    let (profiler, _) = system.into_probe();
    Ok((report, profiler.into_counters()))
}

type Replay<'a> = dyn FnMut(&SystemSpec, &Kernel, &SharedTrace) -> Result<Report, String> + 'a;

/// One pass: map each kernel's file, then replay every configuration on
/// it. A panic or error is that point's result, not the pass's end.
fn pass(
    kernels: &[Kernel],
    specs: &[SystemSpec],
    replay: &mut Replay,
) -> Vec<Result<Report, String>> {
    let mut out = Vec::new();
    for k in kernels {
        let trace = match traces::map(std::slice::from_ref(k)) {
            Ok((mut t, _)) => t.remove(0),
            Err(e) => {
                out.extend(specs.iter().map(|_| Err(e.clone())));
                continue;
            }
        };
        for spec in specs {
            out.push(
                catch_unwind(AssertUnwindSafe(|| replay(spec, k, &trace)))
                    .unwrap_or_else(|_| Err("replay panicked".to_owned())),
            );
        }
    }
    out
}

fn check(
    reports: &[Result<Report, String>],
    reference: &[Option<Report>],
    labels: &[String],
    checks: &mut Checks,
) {
    for (i, got) in reports.iter().enumerate() {
        let ok = matches!((got, &reference[i]), (Ok(r), Some(want)) if r == want);
        checks.record(ok, || match got {
            Err(e) => format!("{}: {e}", labels[i]),
            Ok(_) => format!("{}: report differs from its reference", labels[i]),
        });
    }
}

pub fn run(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let kinds = kernels(args.workload);
    let specs = specs(args.workload);
    let perm = traces::permutation(args.seed, &Topology::paper_default());
    let scale = Scale::full();
    let cpus = CpuRotation::new()?;
    let (kernels, heap, times) = traces::build(&kinds, scale, &perm, work, SETUP_REPS, &cpus)?;
    let labels: Vec<String> = kernels
        .iter()
        .flat_map(|k| specs.iter().map(move |s| format!("{}/{}", s.name, k.name)))
        .collect();

    let refs_per_pass = heap.iter().map(|t| t.len() as u64).sum::<u64>() * specs.len() as u64;

    // References, made outside the timed passes.
    let mut reference = Vec::new();
    let mut counters = PhaseCounters::new();
    let mut reference_refs = 0;
    for (k, trace) in kernels.iter().zip(&heap) {
        for spec in &specs {
            let replayed = catch_unwind(AssertUnwindSafe(|| checked_replay(spec, k, trace)))
                .unwrap_or_else(|_| Err("checked replay panicked".to_owned()));
            match replayed {
                Ok((report, c)) => {
                    counters.merge(&c);
                    reference_refs += report.refs;
                    reference.push(Some(report));
                }
                Err(e) => {
                    eprintln!("perfbench: reference {}/{}: {e}", spec.name, k.name);
                    reference.push(None);
                }
            }
        }
    }
    drop(heap);
    let expected = expected_path(root, args.workload);
    if args.record {
        let reports: Vec<Json> = reference
            .iter()
            .map(|r| {
                r.as_ref()
                    .map(Report::to_json)
                    .ok_or("a reference replay failed")
            })
            .collect::<Result<_, _>>()?;
        let json = Json::obj()
            .set("workload", args.workload.name())
            .set("seed", 0u64)
            .set("reports", reports);
        write_json_atomic(&expected, &json).map_err(|e| e.to_string())?;
        eprintln!("perfbench: wrote {}", expected.display());
    }
    if args.seed == 0 {
        let want = load_expected(&expected)?;
        for (i, r) in reference.iter_mut().enumerate() {
            if r.is_some() && want.get(i) != r.as_ref() {
                eprintln!(
                    "perfbench: {}: checked replay differs from {}",
                    labels[i],
                    expected.display()
                );
                *r = None;
            }
        }
    }

    let mut checks = Checks::default();
    let mut pass_s = Vec::new();
    let mut replay = |spec: &SystemSpec, k: &Kernel, trace: &SharedTrace| {
        run_trace(spec, &k.name, k.data_bytes, trace).map_err(|e| e.to_string())
    };
    reset_peaks()?;
    let t0 = Instant::now();
    while more_passes(&pass_s, MIN_PASSES, t0, args.seconds) {
        cpus.pin(pass_s.len())?;
        let (reports, secs) = timed(|| pass(&kernels, &specs, &mut replay));
        pass_s.push(secs);
        check(&reports, &reference, &labels, &mut checks);
    }
    let peak_heap_mb = peak_heap_mb();
    let peak_rss_mb = peak_rss_mb()?;
    // The traced run's shard measurement needs every hardware thread.
    drop(cpus);
    let run_s = median(&pass_s);

    let layers = if args.trace {
        traced(
            &kernels,
            &specs,
            &reference,
            &labels,
            &times,
            run_s,
            work,
            &mut checks,
        )?
    } else {
        Vec::new()
    };
    Ok(Outcome {
        setup_s: times.setup(),
        pass_s,
        peak_heap_mb,
        peak_rss_mb,
        refs_per_pass,
        events_per_ref: Some(counters.total_events() as f64 / reference_refs.max(1) as f64),
        checks,
        layers,
    })
}

/// The traced pass (a span per point, every point under the phase
/// profiler) and the per-layer measurements over the mapped traces.
#[allow(clippy::too_many_arguments)]
fn traced(
    kernels: &[Kernel],
    specs: &[SystemSpec],
    reference: &[Option<Report>],
    labels: &[String],
    times: &traces::StageTimes,
    untraced_run_s: f64,
    work: &Path,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let tracer = SpanTracer::new();
    let lane = tracer.lane("main");
    let mut counters = PhaseCounters::new();
    let start = tracer.now_us();
    let (reports, wall_s) = timed(|| {
        pass(kernels, specs, &mut |spec, k, trace| {
            let mut span = tracer.span(lane, format!("{}/{}", spec.name, k.name));
            let (report, profiler) = run_trace_probed(
                spec,
                &k.name,
                k.data_bytes,
                trace,
                PhaseProfiler::for_spec(spec),
                None,
            )
            .map_err(|e| e.to_string())?;
            span.arg("refs", report.refs);
            counters.merge(profiler.counters());
            Ok(report)
        })
    });
    let window = (start, tracer.now_us());
    check(&reports, reference, labels, checks);
    let (written, write_s) = timed(|| {
        let json: Vec<Json> = reports.iter().flatten().map(Report::to_json).collect();
        write_json_atomic(
            &work.join("reports.json"),
            &Json::obj().set("reports", json),
        )
    });
    written.map_err(|e| e.to_string())?;

    let (mapped, map_s) = traces::map_reps(kernels, REPS)?;
    let mut out = layers::pipeline_metrics(times, kernels.len(), &map_s);
    layers::replay_layers(kernels, &mapped, nproc().min(2), &mut out)?;
    let events = tracer.events();
    let points: Vec<&SpanEvent> = events.iter().collect();
    let refs = points
        .iter()
        .flat_map(|e| e.args.iter().filter(|(k, _)| *k == "refs"))
        .map(|(_, v)| v)
        .sum();
    layers::phase_metrics(&counters, refs, &mut out);
    layers::sweep_metrics(&points, &[window], 1, &mut out);
    out.push(Metric::new("report.write_s", write_s, "s"));
    out.push(Metric::new(
        "obs.tracing_overhead_frac",
        wall_s / untraced_run_s - 1.0,
        "ratio",
    ));
    Ok(out)
}
