//! Equivalence gates for the columnar `SharedTrace` replay path.
//!
//! The batched `System::run_shared` fast path must be observationally
//! identical to the original per-reference `System::process` loop: same
//! aggregate metrics, same per-cluster counters, on every directory and
//! cache configuration. These tests replay randomized traces through both
//! paths and also pin the v2 columnar codec as a lossless round trip, so
//! a future change to the decomposition columns or the batch decoder
//! fails loudly rather than silently shifting figures.

use dsm_core::{System, SystemSpec};
use dsm_trace::{read_shared, write_shared, Scale, SharedTrace, WorkloadKind};
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

/// A random trace with enough block/page reuse to exercise every
/// coherence transition: small address space, mixed read/write.
fn random_refs(seed: u64, len: usize, topo: &Topology) -> Vec<MemRef> {
    let mut rng = Rng(seed);
    let procs = u64::from(topo.total_procs());
    (0..len)
        .map(|_| {
            let r = rng.next();
            let proc = ProcId((r % procs) as u16);
            let op = if (r >> 16) % 10 < 3 {
                MemOp::Write
            } else {
                MemOp::Read
            };
            // ~64 pages of 4 KiB, biased toward low addresses for reuse.
            let addr = Addr((r >> 24) % (1 << 18));
            MemRef::new(proc, op, addr)
        })
        .collect()
}

/// Replays `refs` through the original per-reference entry point.
fn metrics_per_ref(spec: &SystemSpec, refs: &[MemRef], data_bytes: u64) -> System {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let mut sys = System::new(spec.clone(), topo, geo, data_bytes).unwrap();
    for &r in refs {
        sys.process(r);
    }
    sys
}

/// Replays the same trace through the columnar batched path.
fn metrics_shared(spec: &SystemSpec, trace: &SharedTrace, data_bytes: u64) -> System {
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

fn assert_paths_agree(spec: &SystemSpec, refs: &[MemRef], data_bytes: u64) {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let trace = SharedTrace::from_refs(topo, geo, refs);
    let a = metrics_per_ref(spec, refs, data_bytes);
    let b = metrics_shared(spec, &trace, data_bytes);
    assert_eq!(
        a.metrics(),
        b.metrics(),
        "aggregate metrics diverge on {}",
        spec.name
    );
    for c in 0..topo.clusters() {
        assert_eq!(
            a.cluster_counts(ClusterId(c)),
            b.cluster_counts(ClusterId(c)),
            "cluster {c} counters diverge on {}",
            spec.name
        );
    }
}

#[test]
fn shared_trace_round_trips_random_refs() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    for seed in [3, 0xFEED_BEEF, 0xABCD_EF01_2345_6789] {
        let refs = random_refs(seed, 5000, &topo);
        let trace = SharedTrace::from_refs(topo, geo, &refs);
        assert_eq!(trace.len(), refs.len());
        let back: Vec<MemRef> = trace.iter().collect();
        assert_eq!(back, refs, "iter() must reproduce the input, seed {seed}");
        for (i, &r) in refs.iter().enumerate() {
            assert_eq!(trace.get(i), r, "get({i}) mismatch, seed {seed}");
        }
    }
}

#[test]
fn codec_v2_round_trips_shared_traces() {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let refs = random_refs(11, 4000, &topo);
    let trace = SharedTrace::from_refs(topo, geo, &refs);

    let mut buf = Vec::new();
    write_shared(&mut buf, &trace).unwrap();

    // Columnar read-back reproduces topology, geometry and every column.
    let back = read_shared(buf.as_slice()).unwrap();
    assert_eq!(back.topology(), &topo);
    assert_eq!(back.geometry(), &geo);
    assert_eq!(back.len(), trace.len());
    assert!(trace.iter().eq(back.iter()), "columns diverge after codec");
}

#[test]
fn batched_replay_matches_per_ref_on_full_map() {
    let topo = Topology::paper_default();
    for seed in [1, 42, 0xD15C_0B0B] {
        let refs = random_refs(seed, 20_000, &topo);
        assert_paths_agree(&SystemSpec::base(), &refs, 1 << 20);
    }
}

#[test]
fn batched_replay_matches_per_ref_on_victim_nc() {
    let topo = Topology::paper_default();
    for seed in [2, 0xBAD_CAFE] {
        let refs = random_refs(seed, 20_000, &topo);
        assert_paths_agree(&SystemSpec::vb(), &refs, 1 << 20);
        assert_paths_agree(&SystemSpec::vp(), &refs, 1 << 20);
    }
}

#[test]
fn batched_replay_matches_per_ref_on_limited_directory() {
    let topo = Topology::paper_default();
    let refs = random_refs(7, 20_000, &topo);
    assert_paths_agree(
        &SystemSpec::base().with_limited_directory(4),
        &refs,
        1 << 20,
    );
    assert_paths_agree(&SystemSpec::vb().with_limited_directory(2), &refs, 1 << 20);
}

#[test]
fn page_cache_systems_agree_across_paths() {
    use dsm_core::PcSize;
    let topo = Topology::paper_default();
    let refs = random_refs(13, 20_000, &topo);
    assert_paths_agree(&SystemSpec::vpp(PcSize::DataFraction(5)), &refs, 1 << 20);
    assert_paths_agree(
        &SystemSpec::vxp(PcSize::DataFraction(5), 32),
        &refs,
        1 << 20,
    );
}

#[test]
fn migratory_systems_fall_back_and_agree() {
    // `origin` carries a migration/replication policy, so `run_shared`
    // must reject the precomputed homes and take the per-reference
    // fallback; both paths still have to agree exactly.
    let topo = Topology::paper_default();
    let refs = random_refs(17, 20_000, &topo);
    assert_paths_agree(&SystemSpec::origin(), &refs, 1 << 20);
}

#[test]
fn workload_traces_agree_across_paths() {
    // Real generated traces (not uniform-random) stress first-touch
    // decomposition with realistic sharing patterns.
    for kind in [WorkloadKind::Fft, WorkloadKind::Barnes] {
        let w = kind.dev_instance();
        let topo = Topology::paper_default();
        let refs = w.generate(&topo, Scale::new(0.25).unwrap());
        assert_paths_agree(&SystemSpec::vb(), &refs, w.shared_bytes());
    }
}
