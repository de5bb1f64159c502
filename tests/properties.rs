//! Randomized model-checking tests on the core data structures and on the
//! full system under pseudo-random reference streams.
//!
//! These were property-based (proptest) tests in spirit; they are driven
//! by the workspace's own deterministic [`TraceRng`] so the test suite
//! carries no external dependencies and every failure is reproducible from
//! the printed case seed.

use std::collections::VecDeque;

use dsm_cache::{CacheShape, SetAssoc};
use dsm_core::{PcSize, System, SystemSpec};
use dsm_directory::FullMapDirectory;
use dsm_trace::rng::TraceRng;
use dsm_trace::{read_shared, write_shared, SharedTrace};
use dsm_types::{
    Addr, BlockAddr, ClusterId, Geometry, LocalProcId, MemOp, MemRef, ProcId, Topology,
};

// ---------------------------------------------------------------------
// SetAssoc vs a reference model (per-set LRU list).
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ArrayOp {
    Insert(u64, u32),
    Get(u64),
    Remove(u64),
}

fn array_ops(rng: &mut TraceRng) -> Vec<ArrayOp> {
    let n = rng.below(200) as usize;
    (0..n)
        .map(|_| match rng.below(3) {
            0 => ArrayOp::Insert(rng.below(32), rng.below(u64::from(u32::MAX)) as u32),
            1 => ArrayOp::Get(rng.below(32)),
            _ => ArrayOp::Remove(rng.below(32)),
        })
        .collect()
}

/// Reference model: per set, an MRU-ordered list of (tag, value).
#[derive(Default)]
struct ModelSet {
    entries: VecDeque<(u64, u32)>, // front = MRU
}

#[test]
fn set_assoc_matches_lru_model() {
    const SETS: usize = 2;
    const WAYS: usize = 3;
    for case in 0..64u64 {
        let mut rng = TraceRng::for_workload("set_assoc", case);
        let ops = array_ops(&mut rng);
        let shape = CacheShape::from_sets_ways(SETS, WAYS, 64).unwrap();
        let mut sut: SetAssoc<u32> = SetAssoc::new(shape);
        let mut model: Vec<ModelSet> = (0..SETS).map(|_| ModelSet::default()).collect();

        for op in ops {
            match op {
                ArrayOp::Insert(tag, value) => {
                    let set = (tag as usize) % SETS;
                    let evicted = sut.insert(set, tag, value);
                    let m = &mut model[set];
                    if let Some(pos) = m.entries.iter().position(|e| e.0 == tag) {
                        m.entries.remove(pos);
                        m.entries.push_front((tag, value));
                        assert!(evicted.is_none(), "case {case}");
                    } else {
                        m.entries.push_front((tag, value));
                        if m.entries.len() > WAYS {
                            let lru = m.entries.pop_back().unwrap();
                            assert_eq!(evicted, Some(lru), "case {case}");
                        } else {
                            assert!(evicted.is_none(), "case {case}");
                        }
                    }
                }
                ArrayOp::Get(tag) => {
                    let set = (tag as usize) % SETS;
                    let got = sut.get(set, tag).copied();
                    let m = &mut model[set];
                    let expect = m.entries.iter().position(|e| e.0 == tag).map(|pos| {
                        let e = m.entries.remove(pos).unwrap();
                        m.entries.push_front(e);
                        e.1
                    });
                    assert_eq!(got, expect, "case {case}");
                }
                ArrayOp::Remove(tag) => {
                    let set = (tag as usize) % SETS;
                    let got = sut.remove(set, tag);
                    let m = &mut model[set];
                    let expect = m
                        .entries
                        .iter()
                        .position(|e| e.0 == tag)
                        .map(|pos| m.entries.remove(pos).unwrap().1);
                    assert_eq!(got, expect, "case {case}");
                }
            }
        }
        // Final occupancy agrees.
        let total: usize = model.iter().map(|m| m.entries.len()).sum();
        assert_eq!(sut.len(), total, "case {case}");
    }
}

// ---------------------------------------------------------------------
// Trace codec: roundtrip over arbitrary traces.
// ---------------------------------------------------------------------

fn arbitrary_trace(rng: &mut TraceRng, max_len: u64) -> Vec<MemRef> {
    let n = rng.below(max_len) as usize;
    (0..n)
        .map(|_| {
            MemRef::new(
                ProcId(rng.below(32) as u16),
                if rng.chance(0.5) {
                    MemOp::Write
                } else {
                    MemOp::Read
                },
                Addr(rng.below(u64::MAX)),
            )
        })
        .collect()
}

#[test]
fn codec_roundtrips_any_trace() {
    for case in 0..64u64 {
        let mut rng = TraceRng::for_workload("codec_rt", case);
        let trace = arbitrary_trace(&mut rng, 300);
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &SharedTrace::from_refs(topo, geo, &trace)).unwrap();
        let back = read_shared(bytes.as_slice()).unwrap();
        assert_eq!(back.topology(), &topo, "case {case}");
        assert_eq!(back.geometry(), &geo, "case {case}");
        assert_eq!(back.iter().collect::<Vec<_>>(), trace, "case {case}");
    }
}

#[test]
fn codec_rejects_any_truncation() {
    for case in 0..64u64 {
        let mut rng = TraceRng::for_workload("codec_trunc", case);
        let trace = arbitrary_trace(&mut rng, 100);
        if trace.is_empty() {
            continue;
        }
        let topo = Topology::paper_default();
        let mut bytes = Vec::new();
        write_shared(
            &mut bytes,
            &SharedTrace::from_refs(topo, Geometry::paper_default(), &trace),
        )
        .unwrap();
        let cut = (rng.below(100) as usize) % bytes.len();
        if cut == 0 {
            continue; // empty prefix: exercised by unit tests
        }
        bytes.truncate(cut);
        assert!(
            read_shared(bytes.as_slice()).is_err(),
            "case {case}: truncation at {cut} accepted"
        );
    }
}

// ---------------------------------------------------------------------
// Page cache vs a least-recently-missed reference model.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum PcOp {
    Insert(u8),
    Lookup(u8, u8),
    InvalidateBlock(u8, u8),
}

fn pc_ops(rng: &mut TraceRng) -> Vec<PcOp> {
    let n = rng.below(150) as usize;
    (0..n)
        .map(|_| match rng.below(3) {
            0 => PcOp::Insert(rng.below(12) as u8),
            1 => PcOp::Lookup(rng.below(12) as u8, rng.below(64) as u8),
            _ => PcOp::InvalidateBlock(rng.below(12) as u8, rng.below(64) as u8),
        })
        .collect()
}

#[test]
fn page_cache_matches_lrm_model() {
    use dsm_core::page_cache::{PageCache, PcBlockState};
    const CAP: usize = 3;
    for case in 0..64u64 {
        let mut rng = TraceRng::for_workload("page_cache", case);
        let ops = pc_ops(&mut rng);
        let geo = Geometry::paper_default();
        let mut pc = PageCache::new(CAP, geo);
        // Model: pages ordered by last miss-touch, front = most recent.
        let mut model: VecDeque<u64> = VecDeque::new();

        for op in ops {
            match op {
                PcOp::Insert(p) => {
                    let page = dsm_types::PageAddr(u64::from(p));
                    let evicted = pc.insert_page(page, |_| PcBlockState::Clean);
                    if model.contains(&u64::from(p)) {
                        assert!(evicted.is_none(), "case {case}");
                    } else {
                        if model.len() >= CAP {
                            let lrm = model.pop_back().unwrap();
                            assert_eq!(
                                evicted.as_ref().map(|e| e.page.0),
                                Some(lrm),
                                "case {case}"
                            );
                        } else {
                            assert!(evicted.is_none(), "case {case}");
                        }
                        model.push_front(u64::from(p));
                    }
                }
                PcOp::Lookup(p, b) => {
                    let block = BlockAddr(u64::from(p) * 64 + u64::from(b));
                    let hit = pc.lookup_block(block);
                    let in_model = model.contains(&u64::from(p));
                    assert_eq!(hit.is_some(), in_model, "case {case}");
                    if let Some(pos) = model.iter().position(|&x| x == u64::from(p)) {
                        let v = model.remove(pos).unwrap();
                        model.push_front(v);
                    }
                }
                PcOp::InvalidateBlock(p, b) => {
                    let block = BlockAddr(u64::from(p) * 64 + u64::from(b));
                    pc.invalidate_block(block);
                    // Invalidation does not change residency or LRM order.
                }
            }
            assert_eq!(pc.len(), model.len(), "case {case}");
            assert!(pc.len() <= CAP, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// Directory invariants under random request sequences.
// ---------------------------------------------------------------------

#[test]
fn directory_owner_is_always_a_sharer() {
    for case in 0..64u64 {
        let mut rng = TraceRng::for_workload("directory", case);
        let mut dir = FullMapDirectory::new(4);
        let n = rng.below(120) as usize;
        for _ in 0..n {
            let c = ClusterId(rng.below(4) as u16);
            let b = BlockAddr(rng.below(3));
            match rng.below(3) {
                0 => {
                    dir.read(b, c);
                }
                1 => {
                    let g = dir.write(b, c);
                    // The writer is never asked to invalidate itself.
                    assert!(!g.invalidate.contains(c), "case {case}");
                }
                _ => {
                    dir.writeback(b, c);
                }
            }
            for b in 0u64..3 {
                let block = BlockAddr(b);
                if let Some(owner) = dir.owner_of(block) {
                    assert!(
                        dir.has_presence(block, owner),
                        "case {case}: owner {owner} of {block} lacks a presence bit"
                    );
                    // An owned block has exactly one sharer.
                    assert_eq!(dir.sharers(block), vec![owner], "case {case}");
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Full-system invariants under random reference streams.
// ---------------------------------------------------------------------

fn ref_stream(rng: &mut TraceRng) -> Vec<MemRef> {
    let n = 1 + rng.below(399) as usize;
    (0..n)
        .map(|_| {
            MemRef::new(
                ProcId(rng.below(32) as u16),
                if rng.chance(0.5) {
                    MemOp::Write
                } else {
                    MemOp::Read
                },
                Addr(rng.below(64 * 1024)),
            )
        })
        .collect()
}

fn check_system_invariants(spec: SystemSpec, refs: &[MemRef], case: u64) {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let mut sys = System::new(spec, topo, geo, 1024 * 1024).unwrap();
    sys.run_shared(&SharedTrace::from_refs(topo, geo, refs));

    // Conservation: every reference classified exactly once.
    let m = sys.metrics();
    assert_eq!(m.shared_refs, refs.len() as u64, "case {case}");
    let classified = m.read_hits
        + m.write_hits
        + m.local_upgrades
        + m.peer_transfers
        + m.nc_read_hits
        + m.nc_write_hits
        + m.pc_read_hits
        + m.pc_write_hits
        + m.remote_read_necessary
        + m.remote_read_capacity
        + m.remote_write_necessary
        + m.remote_write_capacity
        + m.local_misses;
    assert_eq!(
        classified, m.shared_refs,
        "case {case}: unclassified refs: {m:#?}"
    );

    // Single-writer invariant over every touched block.
    let mut blocks: Vec<u64> = refs.iter().map(|r| geo.block_of(r.addr).0).collect();
    blocks.sort_unstable();
    blocks.dedup();
    for b in blocks {
        let block = BlockAddr(b);
        let mut writable = 0;
        let mut valid = 0;
        for c in topo.cluster_ids() {
            let unit = sys.cluster(c);
            for lp in 0..topo.procs_per_cluster() {
                let s = unit.bus.cache(LocalProcId(lp)).state_of(block);
                if s.is_valid() {
                    valid += 1;
                }
                if s.allows_silent_write() {
                    writable += 1;
                }
            }
        }
        assert!(
            writable <= 1,
            "case {case}: block {b:#x}: {writable} writable copies"
        );
        if writable == 1 {
            assert_eq!(
                valid, 1,
                "case {case}: block {b:#x}: M/E coexists with sharers"
            );
        }
    }
}

/// Runs the invariant check over `cases` random streams per spec.
fn invariant_cases(name: &str, spec: impl Fn() -> SystemSpec) {
    for case in 0..24u64 {
        let mut rng = TraceRng::for_workload(name, case);
        let refs = ref_stream(&mut rng);
        check_system_invariants(spec(), &refs, case);
    }
}

#[test]
fn base_system_invariants() {
    invariant_cases("base", SystemSpec::base);
}

#[test]
fn victim_nc_system_invariants() {
    invariant_cases("vb", SystemSpec::vb);
}

#[test]
fn page_indexed_victim_system_invariants() {
    invariant_cases("vp", SystemSpec::vp);
}

#[test]
fn inclusion_nc_system_invariants() {
    invariant_cases("nc", SystemSpec::nc);
}

#[test]
fn dram_nc_system_invariants() {
    invariant_cases("ncd", SystemSpec::ncd);
}

#[test]
fn page_cache_system_invariants() {
    invariant_cases("ncp", || SystemSpec::ncp(PcSize::Bytes(16 * 4096)));
}

#[test]
fn vxp_system_invariants() {
    invariant_cases("vxp", || SystemSpec::vxp(PcSize::Bytes(16 * 4096), 4));
}

#[test]
fn limited_directory_system_invariants() {
    invariant_cases("dir2b", || SystemSpec::vb().with_limited_directory(2));
}

#[test]
fn origin_system_invariants() {
    invariant_cases("origin", || {
        let mut spec = SystemSpec::origin();
        spec.migrep.as_mut().unwrap().threshold = 4;
        spec
    });
}

#[test]
fn system_is_deterministic() {
    for case in 0..24u64 {
        let mut rng = TraceRng::for_workload("determinism", case);
        let refs = ref_stream(&mut rng);
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let run = || {
            let mut sys = System::new(
                SystemSpec::vbp(PcSize::Bytes(16 * 4096)),
                topo,
                geo,
                1024 * 1024,
            )
            .unwrap();
            sys.run_shared(&SharedTrace::from_refs(topo, geo, &refs));
            *sys.metrics()
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn victim_nc_dominates_base_on_any_stream() {
    // The paper's "cannot be worse than no NC" claim, adversarially.
    for case in 0..24u64 {
        let mut rng = TraceRng::for_workload("dominance", case);
        let refs = ref_stream(&mut rng);
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let run = |spec: SystemSpec| {
            let mut sys = System::new(spec, topo, geo, 1024 * 1024).unwrap();
            sys.run_shared(&SharedTrace::from_refs(topo, geo, &refs));
            sys.metrics().remote_read_misses() + sys.metrics().remote_write_misses()
        };
        let base = run(SystemSpec::base());
        let vb = run(SystemSpec::vb());
        assert!(
            vb <= base,
            "case {case}: victim NC increased cluster misses: {vb} > {base}"
        );
    }
}
