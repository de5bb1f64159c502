//! Equivalence gates for the sharded `System::run_sharded` replay path.
//!
//! The one sharded engine — conservative rounds over a cluster
//! partition, aligned to sharing components when the trace has several
//! — must produce machine state *identical* (not statistically close)
//! to the single-thread `run_shared` oracle, at every worker count and
//! on every directory/cache configuration. These tests replay
//! randomized multi-component traces (which replay as one parallel
//! round) and single-component traces (parallel rounds between serial
//! segments) through both paths, validate the merged state under the
//! coherence invariant checker, and pin the bounded-mailbox streaming
//! layer against deadlock at capacity 1.

use dsm_core::shard::ShardTuning;
use dsm_core::{PcSize, System, SystemSpec};
use dsm_trace::rng::TraceRng;
use dsm_trace::SharedTrace;
use dsm_types::{Addr, ClusterId, Geometry, MemOp, MemRef, ProcId, Topology};

/// Deterministic xorshift64* generator — no external crates, fixed seeds.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A random trace whose clusters split into `components` disjoint
/// sharing groups: cluster `c` belongs to group `c % components`, and
/// every reference from that cluster lands in the group's private 1 MiB
/// address window. Pages are shared freely *within* a group (so every
/// coherence transition still fires) but never across groups, which is
/// exactly the structure `SharedTrace::shard_plan` detects.
fn component_refs(seed: u64, len: usize, topo: &Topology, components: u64) -> Vec<MemRef> {
    let mut rng = Rng(seed);
    let procs = u64::from(topo.total_procs());
    let per_cluster = u64::from(topo.procs_per_cluster());
    (0..len)
        .map(|_| {
            let r = rng.next();
            let proc = r % procs;
            let group = (proc / per_cluster) % components;
            let op = if (r >> 16) % 10 < 3 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            // ~64 pages of reuse per group, in the group's own window.
            let addr = group * (1 << 20) + ((r >> 24) % (1 << 18));
            MemRef::new(ProcId(proc as u16), op, Addr(addr))
        })
        .collect()
}

fn oracle(spec: &SystemSpec, trace: &SharedTrace, data_bytes: u64) -> System {
    let mut sys = System::new(
        spec.clone(),
        *trace.topology(),
        *trace.geometry(),
        data_bytes,
    )
    .unwrap();
    sys.run_shared(trace);
    sys
}

fn sharded(
    spec: &SystemSpec,
    trace: &SharedTrace,
    data_bytes: u64,
    workers: usize,
    tuning: ShardTuning,
) -> (System, usize) {
    let mut sys = System::new(
        spec.clone(),
        *trace.topology(),
        *trace.geometry(),
        data_bytes,
    )
    .unwrap();
    let engaged = sys.run_sharded_with(trace, workers, tuning);
    (sys, engaged)
}

/// A round threshold below the multi-component fixtures' lengths (the
/// default, 32K references, would leave them serial).
fn small_threshold() -> ShardTuning {
    ShardTuning {
        min_parallel_refs: 512,
        ..ShardTuning::default()
    }
}

fn assert_state_identical(a: &System, b: &System, label: &str) {
    assert_eq!(
        a.metrics(),
        b.metrics(),
        "aggregate metrics diverge: {label}"
    );
    for c in 0..a.topology().clusters() {
        assert_eq!(
            a.cluster_counts(ClusterId(c)),
            b.cluster_counts(ClusterId(c)),
            "cluster {c} counters diverge: {label}"
        );
    }
}

/// The core identity: every spec family the paper sweeps, replayed
/// sharded at several worker counts, must reproduce the oracle's
/// metrics and per-cluster counters exactly.
#[test]
fn sharded_replay_matches_oracle_across_specs_and_worker_counts() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let specs = [
        SystemSpec::base(),
        SystemSpec::base().with_limited_directory(4),
        SystemSpec::vb(),
        SystemSpec::vpp(PcSize::DataFraction(5)),
        SystemSpec::vxp(PcSize::DataFraction(5), 32),
    ];
    for (seed, components) in [(5u64, 4u64), (0xFACE_FEED, 8)] {
        let refs = component_refs(seed, 30_000, &topo, components);
        let trace = SharedTrace::from_refs(topo, geo, &refs);
        for spec in &specs {
            let base = oracle(spec, &trace, 1 << 20);
            for workers in [1usize, 2, 4, 8] {
                let (sys, engaged) = sharded(spec, &trace, 1 << 20, workers, small_threshold());
                if workers >= 2 {
                    assert!(
                        engaged >= 2,
                        "{} with {workers} workers fell back on a {components}-component trace",
                        spec.name
                    );
                }
                assert_state_identical(
                    &base,
                    &sys,
                    &format!("{} at {workers} workers, seed {seed}", spec.name),
                );
            }
        }
    }
}

/// At default tuning a multi-component trace longer than the round
/// threshold replays as a single parallel round: the component-aligned
/// partition leaves the planner no cross-part reference to serialize.
#[test]
fn multi_component_trace_replays_as_one_round_at_default_tuning() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let refs = component_refs(61, 40_000, &topo, 4);
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    assert_eq!(trace.shard_plan().len(), 4);
    for spec in [
        SystemSpec::base().with_limited_directory(4),
        SystemSpec::vpp(PcSize::DataFraction(5)),
    ] {
        let base = oracle(&spec, &trace, 1 << 20);
        let (sys, engaged) = sharded(&spec, &trace, 1 << 20, 4, ShardTuning::default());
        assert_eq!(engaged, 4, "{}", spec.name);
        let report = sys.shard_report().unwrap();
        assert_eq!(report.parallel_rounds, 1, "{}", spec.name);
        assert_eq!(report.serial_refs, 0, "{}", spec.name);
        assert_eq!(report.parallel_refs, trace.len() as u64, "{}", spec.name);
        assert_state_identical(&base, &sys, &spec.name);
    }
}

/// Migratory home policies (Origin migrep) rewrite pages' homes during
/// the run, which breaks the disjointness argument — the engine must
/// refuse to shard and still produce oracle-identical results.
#[test]
fn migratory_specs_fall_back_to_the_oracle() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let refs = component_refs(23, 20_000, &topo, 4);
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    let spec = SystemSpec::origin();
    let base = oracle(&spec, &trace, 1 << 20);
    let (sys, engaged) = sharded(&spec, &trace, 1 << 20, 4, ShardTuning::default());
    assert_eq!(engaged, 1, "migrep systems must not shard");
    assert_state_identical(&base, &sys, "origin fallback");
}

/// The merged machine state after a sharded replay must satisfy every
/// coherence invariant, and must equal the state the oracle
/// reaches when it validates those invariants after every reference
/// (check level K=1).
#[test]
fn sharded_state_passes_invariant_checker_against_k1_oracle() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let refs = component_refs(31, 3_000, &topo, 4);
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    for spec in [SystemSpec::vb(), SystemSpec::vpp(PcSize::DataFraction(5))] {
        let mut checked = System::new(spec.clone(), topo, geo, 1 << 20).unwrap();
        checked.set_check_level(1);
        checked.run_shared_checked(&trace).unwrap();
        let (sys, engaged) = sharded(&spec, &trace, 1 << 20, 4, small_threshold());
        assert!(engaged >= 2, "{} fell back unexpectedly", spec.name);
        sys.check_invariants()
            .unwrap_or_else(|e| panic!("merged {} state violates invariants: {e}", spec.name));
        assert_state_identical(&checked, &sys, &format!("{} vs K=1 oracle", spec.name));
    }
}

/// Backpressure: with single-slot mailboxes and a one-reference chunk
/// size, every send blocks until the committer drains — the run must
/// complete (no deadlock) and still match the oracle exactly.
#[test]
fn single_slot_mailboxes_stream_without_deadlock() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let refs = component_refs(47, 20_000, &topo, 4);
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    let spec = SystemSpec::vb();
    let base = oracle(&spec, &trace, 1 << 20);
    let mut sys = System::new(spec.clone(), topo, geo, 1 << 20).unwrap();
    let tuning = ShardTuning {
        chunk_refs: 1,
        mailbox_capacity: 1,
        min_parallel_refs: 1,
        ..ShardTuning::default()
    };
    let engaged = sys.run_sharded_with(&trace, 4, tuning);
    assert!(engaged >= 2, "backpressure test needs real sharding");
    assert_state_identical(&base, &sys, "capacity-1 mailboxes");
}

/// A *single-component* trace with kernel-like phase structure: local
/// phases where every cluster works random addresses in its own private
/// window (independent, so the rounds planner can parallelize them)
/// separated by a shared phase where all clusters hit one common window
/// (coupling the whole machine into one sharing component and forcing
/// cross-part coherence, which must replay serially).
fn phased_single_component_refs(seed: u64, topo: &Topology) -> Vec<MemRef> {
    let mut rng = TraceRng::for_workload("shard-fuzz", seed);
    let procs = u64::from(topo.total_procs());
    let ppc = u64::from(topo.procs_per_cluster());
    let mut refs = Vec::new();
    let local = |refs: &mut Vec<MemRef>, rng: &mut TraceRng, n: u64| {
        for _ in 0..n {
            let p = rng.below(procs);
            let cl = p / ppc;
            let addr = (1 + cl) * (1 << 20) + rng.below(1 << 16);
            let op = if rng.chance(0.3) {
                MemOp::Write
            } else {
                MemOp::Read
            };
            refs.push(MemRef::new(ProcId(p as u16), op, Addr(addr)));
        }
    };
    local(&mut refs, &mut rng, 8_000);
    for _ in 0..2_000 {
        let p = rng.below(procs);
        let op = if rng.chance(0.2) {
            MemOp::Write
        } else {
            MemOp::Read
        };
        refs.push(MemRef::new(ProcId(p as u16), op, Addr(rng.below(1 << 14))));
    }
    local(&mut refs, &mut rng, 8_000);
    refs
}

/// The intra-component identity: single-component traces must engage
/// the rounds engine (not fall back to the oracle) and still reproduce
/// the oracle's state exactly, for every spec family and worker count.
#[test]
fn intra_component_rounds_match_oracle_across_specs_and_worker_counts() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let specs = [
        SystemSpec::base(),
        SystemSpec::base().with_limited_directory(4),
        SystemSpec::vb(),
        SystemSpec::vpp(PcSize::DataFraction(5)),
        SystemSpec::vxp(PcSize::DataFraction(5), 32),
    ];
    let tuning = ShardTuning {
        chunk_refs: 1 << 12,
        mailbox_capacity: 8,
        min_parallel_refs: 512,
        ..ShardTuning::default()
    };
    for seed in [7u64, 0xDEAD_BEEF] {
        let refs = phased_single_component_refs(seed, &topo);
        let trace = SharedTrace::from_refs(topo, geo, &refs);
        assert_eq!(trace.shard_plan().len(), 1, "trace must be one component");
        for spec in &specs {
            let base = oracle(spec, &trace, 1 << 20);
            for workers in [2usize, 4] {
                let mut sys = System::new(spec.clone(), topo, geo, 1 << 20).unwrap();
                let engaged = sys.run_sharded_with(&trace, workers, tuning);
                let label = format!("{} at {workers} workers, seed {seed}", spec.name);
                assert!(engaged >= 2, "fell back to the oracle: {label}");
                let report = sys.shard_report().expect("sharded run must report");
                assert!(report.parallel_rounds >= 1, "no parallel rounds: {label}");
                assert_eq!(
                    report.parallel_refs + report.serial_refs,
                    trace.len() as u64,
                    "split must cover the trace: {label}"
                );
                assert_state_identical(&base, &sys, &label);
            }
        }
    }
}

/// Round-barrier backpressure: capacity-1 mailboxes with one-reference
/// chunks force every worker send to block on the committer inside each
/// round — the run must complete and stay oracle-identical.
#[test]
fn rounds_with_capacity_1_mailboxes_stream_without_deadlock() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let refs = phased_single_component_refs(99, &topo);
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    let spec = SystemSpec::vb();
    let base = oracle(&spec, &trace, 1 << 20);
    let mut sys = System::new(spec.clone(), topo, geo, 1 << 20).unwrap();
    let tuning = ShardTuning {
        chunk_refs: 1,
        mailbox_capacity: 1,
        min_parallel_refs: 256,
        ..ShardTuning::default()
    };
    let engaged = sys.run_sharded_with(&trace, 4, tuning);
    assert!(engaged >= 2, "rounds backpressure test needs real sharding");
    let report = sys.shard_report().unwrap();
    assert!(report.parallel_rounds >= 1);
    assert_state_identical(&base, &sys, "rounds capacity-1 mailboxes");
}
