//! The per-layer host-cost table of the traced run.
//!
//! Every number here is taken from outside the program: a timer around
//! a call into one layer's public API, a replay-time difference between
//! two configurations that differ in one layer, or a count the program
//! already keeps (`Report.metrics`, `PhaseCounters`, `SpanTracer` spans).

use std::hint::black_box;

use dsm_cache::{CacheShape, CacheState, ProcCache};
use dsm_core::obs::span::SpanEvent;
use dsm_core::runner::{run_trace, run_trace_sharded};
use dsm_core::{Metrics, PcSize, PhaseCounters, Report, System, SystemSpec, PHASES};
use dsm_directory::DirectoryUnit;
use dsm_trace::{SharedTrace, BATCH};
use dsm_types::{DecodedRef, Geometry, Topology};

use crate::stats::{median, quantile, timed};
use crate::traces::{Kernel, StageTimes};
use crate::Metric;

/// Repetitions of every timed layer measurement; medians are reported.
pub const REPS: usize = 3;

/// References decoded per chunk by the probe and directory loops.
/// Decoding is untimed there, so only the layer under test is measured.
const CHUNK: usize = 1 << 16;

/// The configurations of the layer table. Each pair that differs in one
/// layer gives that layer's replay cost as a time difference.
fn layer_specs() -> [SystemSpec; 7] {
    [
        SystemSpec::base(),
        SystemSpec::vb(),
        SystemSpec::vp(),
        SystemSpec::vpp(PcSize::DataFraction(5)),
        SystemSpec::vxp(PcSize::DataFraction(5), 32),
        SystemSpec::base().with_limited_directory(4),
        SystemSpec::origin(),
    ]
}
const BASE: usize = 0;
const VB16: usize = 1;
const VP: usize = 2;
const VPP5: usize = 3;
const VXP5: usize = 4;
const DIR4B: usize = 5;
const ORIGIN: usize = 6;

/// Measures the decode, cache, directory, replay-configuration and shard
/// layers over the kernels' `traces`, appending the metrics to `out`.
/// `workers` is the shard engine's thread count (2, or fewer on a smaller
/// host).
pub fn replay_layers(
    kernels: &[Kernel],
    traces: &[SharedTrace],
    workers: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let refs: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let per_ref = |secs: f64| secs * 1e9 / refs as f64;

    let decode = median(&reps(|| traces.iter().map(decode_sweep).sum()));
    let columns: usize = traces.iter().map(SharedTrace::column_bytes).sum();
    out.push(Metric::new(
        "trace.decode_ns_per_ref",
        per_ref(decode),
        "ns",
    ));
    out.push(Metric::new(
        "trace.column_bytes_per_ref",
        columns as f64 / refs as f64,
        "B",
    ));

    let probe = median(&reps(|| traces.iter().map(probe_sweep).sum()));
    out.push(Metric::new("cache.probe_ns_per_ref", per_ref(probe), "ns"));
    let clusters = Topology::paper_default().clusters();
    let full = median(&reps(|| {
        traces
            .iter()
            .map(|t| directory_sweep(t, DirectoryUnit::full_map(clusters)))
            .sum()
    }));
    let limited = median(&reps(|| {
        traces
            .iter()
            .map(|t| directory_sweep(t, DirectoryUnit::limited(clusters, 4)))
            .sum()
    }));
    out.push(Metric::new(
        "directory.full_map_ns_per_op",
        per_ref(full),
        "ns",
    ));
    out.push(Metric::new(
        "directory.limited_ns_per_op",
        per_ref(limited),
        "ns",
    ));

    // Replay every configuration on every trace, interleaved so drift in
    // host speed spreads evenly over the configurations.
    // The sharded replay of `base` takes part as one more configuration.
    let specs = layer_specs();
    let sharded = specs.len();
    let mut secs = vec![vec![Vec::new(); traces.len()]; specs.len() + 1];
    let mut reports: Vec<Vec<Option<Report>>> = vec![vec![None; traces.len()]; specs.len()];
    for _ in 0..REPS {
        for (ti, (k, t)) in kernels.iter().zip(traces).enumerate() {
            for (si, spec) in specs.iter().enumerate() {
                let (report, s) = timed(|| run_trace(spec, &k.name, k.data_bytes, t));
                let report = report.map_err(|e| format!("{}/{}: {e}", spec.name, k.name))?;
                secs[si][ti].push(s);
                reports[si][ti] = Some(report);
            }
            let spec = &specs[BASE];
            let (report, s) = timed(|| run_trace_sharded(spec, &k.name, k.data_bytes, t, workers));
            report.map_err(|e| format!("{} sharded/{}: {e}", spec.name, k.name))?;
            secs[sharded][ti].push(s);
        }
    }
    // Per configuration: the sum over traces of each trace's median.
    let time: Vec<f64> = secs
        .iter()
        .map(|per_trace| per_trace.iter().map(|s| median(s)).sum())
        .collect();
    let metrics: Vec<Metrics> = reports
        .iter()
        .map(|per_trace| {
            let mut m = Metrics::new();
            for r in per_trace.iter().flatten() {
                m.merge(&r.metrics);
            }
            m
        })
        .collect();
    let diff = |a: usize, b: usize| per_ref(time[a] - time[b]);
    let frac = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let per_mref = |n: u64| n as f64 * 1e6 / refs as f64;
    let remote_fills = |m: &Metrics| {
        m.remote_read_necessary
            + m.remote_read_capacity
            + m.remote_write_necessary
            + m.remote_write_capacity
    };

    let base = &metrics[BASE];
    out.push(Metric::new(
        "cache.hit_ratio",
        frac(
            base.read_hits + base.write_hits + base.local_upgrades,
            base.shared_refs,
        ),
        "ratio",
    ));
    out.push(Metric::new(
        "directory.limited_ns_per_ref",
        diff(DIR4B, BASE),
        "ns",
    ));
    out.push(Metric::new(
        "directory.invalidations_per_ref",
        frac(metrics[DIR4B].invalidations, refs),
        "count",
    ));
    out.push(Metric::new(
        "system.base_ns_per_ref",
        per_ref(time[BASE]),
        "ns",
    ));

    let vb = &metrics[VB16];
    let nc_hits = vb.nc_read_hits + vb.nc_write_hits;
    out.push(Metric::new("nc.victim_ns_per_ref", diff(VB16, BASE), "ns"));
    out.push(Metric::new(
        "nc.hit_ratio",
        frac(nc_hits, nc_hits + remote_fills(vb)),
        "ratio",
    ));
    out.push(Metric::new(
        "nc.captures_per_ref",
        frac(vb.nc_captures, refs),
        "count",
    ));

    let vpp = &metrics[VPP5];
    let pc_hits = vpp.pc_read_hits + vpp.pc_write_hits;
    let served = pc_hits + vpp.nc_read_hits + vpp.nc_write_hits + remote_fills(vpp);
    out.push(Metric::new("page_cache.ns_per_ref", diff(VPP5, VP), "ns"));
    out.push(Metric::new(
        "page_cache.adaptive_ns_per_ref",
        diff(VXP5, VPP5),
        "ns",
    ));
    out.push(Metric::new(
        "page_cache.relocations_per_mref",
        per_mref(vpp.relocations),
        "count/Mref",
    ));
    out.push(Metric::new(
        "page_cache.hit_ratio",
        frac(pc_hits, served),
        "ratio",
    ));

    let origin = &metrics[ORIGIN];
    out.push(Metric::new("migrep.ns_per_ref", diff(ORIGIN, BASE), "ns"));
    out.push(Metric::new(
        "migrep.ops_per_mref",
        per_mref(origin.migrations + origin.replications + origin.replica_collapses),
        "count/Mref",
    ));

    shard_layer(kernels, traces, workers, time[sharded] / time[BASE], out)
}

/// `shard.*`: planning cost, the share of references the sharded engine
/// replays in parallel, and `w2_over_w1`, the wall time of
/// `run_trace_sharded` over that of `run_trace` on `base`.
fn shard_layer(
    kernels: &[Kernel],
    traces: &[SharedTrace],
    workers: usize,
    w2_over_w1: f64,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let plan = median(&reps(|| {
        traces
            .iter()
            .map(|t| {
                timed(|| {
                    black_box(t.shard_plan());
                    black_box(t.cluster_partition(2));
                })
                .1
            })
            .sum()
    }));
    out.push(Metric::new("shard.plan_s", plan, "s"));
    // An untimed replay, for the engine's report.
    let mut parallel_refs = 0;
    for (k, t) in kernels.iter().zip(traces) {
        let mut system = System::new(
            SystemSpec::base(),
            *t.topology(),
            *t.geometry(),
            k.data_bytes,
        )
        .map_err(|e| format!("base/{}: {e}", k.name))?;
        system.run_sharded(t, workers);
        parallel_refs += system.shard_report().map_or(0, |r| r.parallel_refs);
    }
    let refs: u64 = traces.iter().map(|t| t.len() as u64).sum();
    out.push(Metric::new(
        "shard.parallel_frac",
        parallel_refs as f64 / refs as f64,
        "ratio",
    ));
    out.push(Metric::new("shard.w2_over_w1", w2_over_w1, "ratio"));
    Ok(())
}

/// Runs `f` [`REPS`] times, collecting its results.
fn reps(mut f: impl FnMut() -> f64) -> Vec<f64> {
    (0..REPS).map(|_| f()).collect()
}

/// Seconds to decode the whole trace in replay-sized batches.
fn decode_sweep(trace: &SharedTrace) -> f64 {
    let mut batch = [DecodedRef::default(); BATCH];
    timed(|| {
        let mut start = 0;
        loop {
            let n = trace.decode_batch(start, &mut batch);
            if n == 0 {
                break;
            }
            black_box(&batch[..n]);
            start += n;
        }
    })
    .1
}

/// Calls `visit` on each chunk of the decoded trace, timing only
/// `visit`. Returns the timed seconds.
fn chunked(trace: &SharedTrace, mut visit: impl FnMut(&[DecodedRef])) -> f64 {
    let mut buf = vec![DecodedRef::default(); CHUNK];
    let (mut start, mut secs) = (0, 0.0);
    loop {
        let mut n = 0;
        while n < CHUNK {
            let got = trace.decode_batch(start + n, &mut buf[n..]);
            if got == 0 {
                break;
            }
            n += got;
        }
        if n == 0 {
            return secs;
        }
        secs += timed(|| visit(&buf[..n])).1;
        start += n;
    }
}

/// Seconds for one processor cache per processor to `touch` every
/// reference and `fill` on a miss: the processor-cache bus probes,
/// without the protocol around them.
fn probe_sweep(trace: &SharedTrace) -> f64 {
    let topo = trace.topology();
    let shape = CacheShape::new(16 * 1024, Geometry::paper_default().block_bytes(), 2)
        .expect("the paper's processor cache shape is valid");
    let mut caches = vec![ProcCache::new(shape); usize::from(topo.total_procs())];
    let ppc = usize::from(topo.procs_per_cluster());
    chunked(trace, |refs| {
        for d in refs {
            let cache = &mut caches[usize::from(d.cluster.0) * ppc + usize::from(d.lproc.0)];
            if cache.touch(d.block) == CacheState::Invalid {
                let state = if d.write {
                    CacheState::Modified
                } else {
                    CacheState::Exclusive
                };
                black_box(cache.fill(d.block, state));
            }
        }
    })
}

/// Seconds for `dir` to serve a `read` or `write` for every reference.
fn directory_sweep(trace: &SharedTrace, mut dir: DirectoryUnit) -> f64 {
    chunked(trace, |refs| {
        for d in refs {
            if d.write {
                black_box(dir.write(d.block, d.cluster));
            } else {
                black_box(dir.read(d.block, d.cluster));
            }
        }
    })
}

/// `trace.*` pipeline costs: each stage's median over the repetitions,
/// and how many traces the workload generates.
pub fn pipeline_metrics(times: &StageTimes, generations: usize, map_s: &[f64]) -> Vec<Metric> {
    vec![
        Metric::new("trace.generate_s", median(&times.generate), "s"),
        Metric::new("trace.generations", generations as f64, "count"),
        Metric::new("trace.build_s", median(&times.build), "s"),
        Metric::new("trace.encode_s", median(&times.encode), "s"),
        Metric::new("trace.map_s", median(map_s), "s"),
    ]
}

/// `system.refs`, `system.events_per_ref` (the work proxy) and the
/// per-phase event counts per reference.
pub fn phase_metrics(counters: &PhaseCounters, refs: u64, out: &mut Vec<Metric>) {
    let per_ref = |n: u64| n as f64 / refs.max(1) as f64;
    out.push(Metric::new("system.refs", refs as f64, "count"));
    out.push(Metric::new(
        "system.events_per_ref",
        per_ref(counters.total_events()),
        "count",
    ));
    for phase in PHASES {
        out.push(Metric::new(
            format!("phase.{}.events_per_ref", phase.label()),
            per_ref(counters.count(phase)),
            "count",
        ));
    }
}

/// Merges overlapping `[start, end)` intervals (microseconds).
pub fn merge_windows(mut windows: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    windows.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in windows {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// `sweep.*` from point spans: the point-time median and p97, and how
/// busy `workers` workers were over the sweep windows.
pub fn sweep_metrics(
    points: &[&SpanEvent],
    windows: &[(u64, u64)],
    workers: usize,
    out: &mut Vec<Metric>,
) {
    let secs: Vec<f64> = points.iter().map(|p| p.dur_us as f64 / 1e6).collect();
    let busy: f64 = secs.iter().sum();
    let capacity = workers as f64 * windows.iter().map(|(s, e)| (e - s) as f64).sum::<f64>() / 1e6;
    out.push(Metric::new("sweep.points", secs.len() as f64, "count"));
    out.push(Metric::new("sweep.point_s.p50", quantile(&secs, 0.5), "s"));
    out.push(Metric::new("sweep.point_s.p97", quantile(&secs, 0.97), "s"));
    out.push(Metric::new("sweep.busy_frac", busy / capacity, "ratio"));
    out.push(Metric::new("sweep.idle_s", capacity - busy, "s"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_merge_when_they_overlap() {
        let merged = merge_windows(vec![(5, 9), (0, 3), (2, 4), (9, 10)]);
        assert_eq!(merged, vec![(0, 4), (5, 10)]);
    }
}
