//! The sharded replay engine: conservative time-stepped rounds over a
//! cluster partition.
//!
//! The engine parallelizes a trace while keeping the byte-identity
//! guarantee, in three steps:
//!
//! 1. **Partition.** [`SharedTrace::cluster_partition`] splits the
//!    active clusters (and, under first-touch placement, every page
//!    they home) across up to `workers` parts, balanced by reference
//!    count. A trace with several sharing components is split along
//!    component boundaries; a single-component trace (the paper's
//!    all-to-all kernels: FFT transpose, radix permutation) is split by
//!    cluster.
//!
//! 2. **Plan.** A single forward scan classifies each reference against
//!    a conservative static model of the directory: per block, a
//!    superset of the sharer clusters and of the clusters that may hold
//!    the block exclusive/dirty (plus, for limited-pointer directories,
//!    a may-have-overflowed-to-broadcast bit), and per cluster, the set
//!    of parts whose blocks it may hold *dirty* (so a victim write-back
//!    could reach a foreign directory). The reference's possible
//!    coherence footprint — requester, home, forwarded owners,
//!    invalidated sharers, per [`RemoteDirOp::footprint`] — is reduced
//!    to the parts it touches; a reference whose footprint stays inside
//!    its issuing cluster's own part is *round-safe*. Maximal runs of
//!    round-safe references at least `min_parallel_refs` long become
//!    parallel **rounds**, numbered from 1; everything else stays in
//!    serial segments. On a component-aligned partition every
//!    reference's footprint stays inside its component (barring a
//!    limited-pointer broadcast), so the whole trace is one round.
//!
//! 3. **Execute.** Serial segments replay in trace order on the main
//!    system ([`System::replay_range`]), which is trivially
//!    oracle-exact. For each round, every engaged worker clones the
//!    main system and replays just its part's references; because the
//!    round's references only touch state owned by their own part, the
//!    workers' mutations are disjoint and any interleaving equals the
//!    oracle order. The merge takes each worker's metrics delta, its
//!    own clusters' units and counters, and — for every page homed in
//!    its part — the placement slot, the per-block directory entries
//!    ([`DirectoryUnit::copy_entry_from`]) and the R-NUMA counters
//!    ([`dsm_directory::RnumaCounters::adopt_pages`]), in ascending
//!    part order.
//!
//! Workers stream [`ShardMsg::Chunk`] deltas through the bounded SPSC
//! mailboxes tagged `(round, seq)`; the committer drains workers in
//! ascending part order within a round, so chunks are folded in the
//! deterministic `(round, issuing part, seq)` order and reconciled
//! against the merged worker state at join.
//!
//! Conservatism, not speculation: the static model only ever
//! *over*-approximates sharers/owners (reads widen it, writes collapse
//! it to the writer), so a reference classified round-safe provably
//! cannot observe or mutate another part's state, and no rollback is
//! ever needed. The price is that genuinely communicating phases (the
//! transposes, the permutation) replay serially — exactly the
//! irreducible cross-cluster coherence.

use dsm_protocol::RemoteDirOp;
use dsm_trace::{SharedTrace, BATCH};
use dsm_types::{BlockAddr, ClusterSet, DecodedRef};

use super::mailbox::RecvDeadline;
use super::{diagnose, mailbox, replay_indices, ShardMsg, ShardReport, ShardTuning};
use crate::config::DirectorySpec;
use crate::metrics::Metrics;
use crate::system::System;
use dsm_types::FaultPlan;
use std::time::{Duration, Instant};

/// Sentinel in the per-reference classification column: not round-safe.
const CONFLICT: u8 = u8::MAX;

/// One piece of the planned replay schedule.
enum Segment {
    /// Replay `[start, end)` on the main system, in trace order.
    Serial { start: usize, end: usize },
    /// One parallel round: `lists[p]` holds part `p`'s reference
    /// indices, ascending.
    Round { lists: Vec<Vec<u32>> },
}

/// The static schedule for one trace: alternating serial segments and
/// parallel rounds, plus the split accounting for reports.
struct RoundPlan {
    segments: Vec<Segment>,
    parallel_refs: u64,
    serial_refs: u64,
    rounds: usize,
}

/// Classifies every reference and cuts the trace into segments. See the
/// module docs for the model; `part_table` maps cluster → part
/// (`usize::MAX` = never issues).
fn plan_rounds(
    trace: &SharedTrace,
    part_table: &[usize],
    parts: usize,
    pc_present: bool,
    limited_pointers: Option<usize>,
    min_parallel_refs: usize,
) -> RoundPlan {
    let n = trace.len();
    let clusters = part_table.len();
    let part_bit: Vec<u64> = part_table
        .iter()
        .map(|&p| if p == usize::MAX { 0 } else { 1u64 << p })
        .collect();
    // Per-block conservative directory model, grown on demand.
    let mut sharers: Vec<u64> = Vec::new(); // superset of presence, as cluster mask
    let mut owners: Vec<u64> = Vec::new(); // superset of exclusive/dirty holders
    let mut maybe_broadcast: Vec<bool> = Vec::new(); // limited-pointer overflow
                                                     // Per-cluster: parts whose blocks this cluster may hold dirty (a
                                                     // victim write-back or downgrade could reach their directories).
                                                     // With a page cache, any remote reference can additionally leave
                                                     // per-page state (and later relocation traffic) behind, so every
                                                     // remote reference taints; without one, only remote writes do.
    let mut dirty_parts: Vec<u64> = vec![0; clusters];

    let mut safe_part = vec![CONFLICT; n];
    let mut batch = [DecodedRef::default(); BATCH];
    let mut start = 0usize;
    while start < n {
        let got = trace.decode_batch(start, &mut batch);
        if got == 0 {
            break;
        }
        for (k, d) in batch[..got].iter().enumerate() {
            let c = usize::from(d.cluster.0);
            let h = usize::from(d.home.0);
            let blk = usize::try_from(d.block.0).expect("block index fits usize");
            if blk >= sharers.len() {
                let target = (blk + 1).next_power_of_two().max(1024);
                sharers.resize(target, 0);
                owners.resize(target, 0);
                if limited_pointers.is_some() {
                    maybe_broadcast.resize(target, false);
                }
            }
            let bcast = limited_pointers.is_some() && maybe_broadcast[blk];
            let op = RemoteDirOp {
                requester: d.cluster,
                home: d.home,
                write: d.write,
            };
            let footprint = op.footprint(
                ClusterSet::from_mask(sharers[blk]),
                ClusterSet::from_mask(owners[blk]),
                bcast,
                u16::try_from(clusters).expect("cluster count fits u16"),
            );
            let mut touched = dirty_parts[c];
            let mut fp = footprint.mask();
            while fp != 0 {
                touched |= part_bit[fp.trailing_zeros() as usize];
                fp &= fp - 1;
            }
            if touched == part_bit[c] {
                safe_part[start + k] = u8::try_from(part_table[c]).expect("part index fits u8");
            }
            // Advance the model (classification used the pre-state).
            let cbit = 1u64 << c;
            if d.write {
                if limited_pointers.is_some() {
                    maybe_broadcast[blk] = false; // entry collapses to the writer
                }
                sharers[blk] = cbit;
                owners[blk] = cbit;
            } else {
                if let Some(ptrs) = limited_pointers {
                    if (sharers[blk] | cbit).count_ones() as usize > ptrs {
                        maybe_broadcast[blk] = true;
                    }
                }
                sharers[blk] |= cbit;
                if c == h {
                    // A local read with no other sharers is granted
                    // exclusive-clean; only local reads can.
                    owners[blk] |= cbit;
                }
            }
            if c != h && (d.write || pc_present) {
                dirty_parts[c] |= part_bit[h];
            }
        }
        start += got;
    }

    // Cut into segments: runs of round-safe references of at least
    // `min_parallel_refs` become rounds, everything else folds into the
    // surrounding serial segment (tiny rounds cost more in clone+merge
    // than they save).
    let mut segments = Vec::new();
    let mut parallel_refs = 0u64;
    let mut serial_refs = 0u64;
    let mut rounds = 0usize;
    let mut emitted = 0usize;
    let mut i = 0usize;
    while i < n {
        if safe_part[i] == CONFLICT {
            i += 1;
            continue;
        }
        let run_start = i;
        while i < n && safe_part[i] != CONFLICT {
            i += 1;
        }
        if i - run_start >= min_parallel_refs {
            if run_start > emitted {
                serial_refs += (run_start - emitted) as u64;
                segments.push(Segment::Serial {
                    start: emitted,
                    end: run_start,
                });
            }
            let mut lists = vec![Vec::new(); parts];
            for (j, &p) in safe_part.iter().enumerate().take(i).skip(run_start) {
                lists[usize::from(p)].push(u32::try_from(j).expect("trace indices fit u32"));
            }
            parallel_refs += (i - run_start) as u64;
            rounds += 1;
            segments.push(Segment::Round { lists });
            emitted = i;
        }
    }
    if emitted < n {
        serial_refs += (n - emitted) as u64;
        segments.push(Segment::Serial {
            start: emitted,
            end: n,
        });
    }
    RoundPlan {
        segments,
        parallel_refs,
        serial_refs,
        rounds,
    }
}

impl System {
    /// Replays a trace with the round-based engine (see the module
    /// docs). Returns the number of workers engaged; `1` means the
    /// planner found no parallel round worth running and the whole
    /// trace replayed on the serial oracle path (the
    /// [`System::shard_report`] still records the split). The caller
    /// (`run_sharded_inner`) has already verified eligibility: a
    /// pristine system with static homes.
    pub(crate) fn run_rounds(
        &mut self,
        trace: &SharedTrace,
        workers: usize,
        tuning: ShardTuning,
        fplan: Option<FaultPlan>,
    ) -> usize {
        let partition = trace.cluster_partition(workers.max(1));
        let parts = partition.parts();
        let serial_only = |sys: &mut System| {
            sys.run_shared(trace);
            sys.shard_report = Some(ShardReport {
                workers: 1,
                parallel_rounds: 0,
                parallel_refs: 0,
                serial_refs: trace.len() as u64,
                degraded: None,
            });
        };
        if parts < 2 {
            serial_only(self);
            return 1;
        }
        let pc_present = self.spec.pc.is_some();
        let limited_pointers = match self.spec.directory {
            DirectorySpec::FullMap => None,
            DirectorySpec::LimitedPointer { pointers } => Some(pointers),
        };
        let plan = plan_rounds(
            trace,
            partition.part_table(),
            parts,
            pc_present,
            limited_pointers,
            tuning.min_parallel_refs,
        );
        if plan.rounds == 0 {
            serial_only(self);
            return 1;
        }

        // The serial segments mutate `self` mid-plan, so supervised
        // recovery needs the pristine pre-run state saved up front —
        // one clone, only on the (already clone-heavy) parallel path.
        let pristine = self.clone();
        let bpp = self.geo.page_bytes() / self.geo.block_bytes();
        let mut streamed = Metrics::new();
        let mut expected = Metrics::new();
        let mut round_no: u32 = 0;
        let mut fault = None;
        for seg in &plan.segments {
            match seg {
                Segment::Serial { start, end } => self.replay_range(trace, *start, *end),
                Segment::Round { lists } => {
                    round_no += 1;
                    let base_metrics = self.metrics;
                    let mut results: Vec<(usize, System)> = Vec::new();
                    let mut panicked = false;
                    let mut stalled = false;
                    let mut incomplete = false;
                    let me: &System = &*self;
                    std::thread::scope(|scope| {
                        let mut handles = Vec::new();
                        let mut receivers = Vec::new();
                        for (p, list) in lists.iter().enumerate() {
                            if list.is_empty() {
                                continue;
                            }
                            let (mut tx, rx) = mailbox::channel(tuning.mailbox_capacity);
                            receivers.push(rx);
                            let round = round_no;
                            handles.push(scope.spawn(move || {
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                                    let mut sys = me.clone();
                                    let part = u32::try_from(p).expect("part index fits u32");
                                    let done = replay_indices(
                                        &mut sys, trace, list, tuning, &mut tx, round, part, fplan,
                                    );
                                    (p, sys, done)
                                }))
                            }));
                        }
                        // Drain in ascending part order under the stall
                        // watchdog: chunks fold in (round, part, seq)
                        // order, and draining one worker to completion
                        // cannot stall another (each send waits only on
                        // its own mailbox).
                        'drain: for rx in &mut receivers {
                            loop {
                                let deadline =
                                    Instant::now() + Duration::from_millis(tuning.watchdog_ms);
                                match rx.recv_deadline(deadline) {
                                    RecvDeadline::Msg(ShardMsg::Chunk { delta, .. }) => {
                                        streamed.merge(&delta);
                                    }
                                    RecvDeadline::Closed => break,
                                    RecvDeadline::TimedOut => {
                                        stalled = true;
                                        break 'drain;
                                    }
                                }
                            }
                        }
                        // Closed mailboxes unstick blocked and stalled
                        // workers alike (their sends fail → abandon).
                        if stalled {
                            receivers.clear();
                        }
                        for handle in handles {
                            match handle.join() {
                                Ok(Ok((p, sys, done))) => {
                                    incomplete |= !done;
                                    results.push((p, sys));
                                }
                                Ok(Err(_)) | Err(_) => panicked = true,
                            }
                        }
                    });
                    fault = diagnose(panicked, stalled, incomplete);
                    if fault.is_some() {
                        break;
                    }
                    // Merge in ascending part order. Round-safe
                    // references only touch state owned by their part,
                    // so each piece has exactly one authoritative copy.
                    for (p, wsys) in &mut results {
                        let delta = wsys.metrics.delta(&base_metrics);
                        expected.merge(&delta);
                        self.metrics.merge(&delta);
                        for c in partition.clusters_of(*p) {
                            std::mem::swap(&mut self.clusters[c], &mut wsys.clusters[c]);
                            self.per_cluster[c] = wsys.per_cluster[c];
                        }
                        for (page, cl) in wsys.home.placement().iter() {
                            if partition.part_of_cluster(usize::from(cl.0)) != Some(*p) {
                                continue;
                            }
                            self.home.preassign(page, cl);
                            let first = page.0 * bpp;
                            for b in first..first + bpp {
                                self.dir.copy_entry_from(&wsys.dir, BlockAddr(b));
                            }
                        }
                        let placement = wsys.home.placement();
                        self.rnuma.adopt_pages(&wsys.rnuma, |pg| {
                            placement.peek_home(pg).is_some_and(|cl| {
                                partition.part_of_cluster(usize::from(cl.0)) == Some(*p)
                            })
                        });
                    }
                }
            }
        }
        if let Some(cause) = fault {
            // Discard the partially-replayed state and re-run from the
            // saved pristine system: byte-identical to the oracle.
            *self = pristine;
            return self.degrade_to_oracle(trace, cause);
        }
        debug_assert_eq!(
            streamed, expected,
            "streamed chunk deltas disagree with merged worker metrics"
        );
        self.shard_report = Some(ShardReport {
            workers: parts,
            parallel_rounds: plan.rounds,
            parallel_refs: plan.parallel_refs,
            serial_refs: plan.serial_refs,
            degraded: None,
        });
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemSpec;
    use dsm_types::{Addr, Geometry, MemRef, ProcId, Topology};

    /// A single-component trace with phase structure: every cluster
    /// works its own pages (round-safe), with a cross-cluster page
    /// shared by everyone making it one component (and punctuating the
    /// local phases with conflicts).
    fn phased_trace(topo: Topology, geo: Geometry) -> SharedTrace {
        let page = geo.page_bytes();
        let ppc = topo.procs_per_cluster();
        let mut refs = Vec::new();
        for phase in 0..4u64 {
            for i in 0..300u64 {
                for c in 0..u64::from(topo.clusters()) {
                    let p = ProcId(u16::try_from(c).unwrap() * ppc);
                    let a = Addr((1000 * c + i % 16) * page + (i * 64) % page);
                    if i % 3 == 0 {
                        refs.push(MemRef::write(p, a));
                    } else {
                        refs.push(MemRef::read(p, a));
                    }
                }
            }
            // Everyone reads the shared page: cross-part conflicts.
            for c in 0..u64::from(topo.clusters()) {
                let p = ProcId(u16::try_from(c).unwrap() * ppc);
                refs.push(MemRef::read(p, Addr(999_999 * page + phase * 64)));
            }
        }
        SharedTrace::from_refs(topo, geo, &refs)
    }

    fn tiny_tuning() -> ShardTuning {
        ShardTuning {
            chunk_refs: 64,
            mailbox_capacity: 4,
            min_parallel_refs: 64,
            ..ShardTuning::default()
        }
    }

    #[test]
    fn rounds_engine_matches_oracle_on_single_component() {
        let topo = Topology::new(4, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = phased_trace(topo, geo);
        for spec in [
            SystemSpec::base(),
            SystemSpec::vb(),
            SystemSpec::base().with_limited_directory(4),
        ] {
            let mut oracle = System::new(spec.clone(), topo, geo, 0).unwrap();
            oracle.run_shared(&trace);
            let mut sharded = System::new(spec.clone(), topo, geo, 0).unwrap();
            let used = sharded.run_sharded_with(&trace, 4, tiny_tuning());
            assert!(used >= 2, "{}: rounds engine should engage", spec.name);
            let report = sharded.shard_report().unwrap();
            assert!(report.parallel_rounds >= 1, "{}", spec.name);
            assert_eq!(sharded.metrics(), oracle.metrics(), "{}", spec.name);
            for c in 0..topo.clusters() {
                assert_eq!(
                    sharded.cluster_counts(dsm_types::ClusterId(c)),
                    oracle.cluster_counts(dsm_types::ClusterId(c)),
                    "{} cluster {c}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn planner_split_covers_the_whole_trace() {
        let topo = Topology::new(4, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = phased_trace(topo, geo);
        let mut sys = System::new(SystemSpec::base(), topo, geo, 0).unwrap();
        sys.run_sharded_with(&trace, 4, tiny_tuning());
        let report = sys.shard_report().unwrap();
        assert_eq!(
            report.parallel_refs + report.serial_refs,
            trace.len() as u64
        );
        assert!(report.parallel_refs > 0);
        assert!(report.serial_refs > 0);
    }

    #[test]
    fn rounds_fault_degrades_to_oracle_byte_identical() {
        use super::super::ShardFault;
        use dsm_types::FaultPlan;
        let topo = Topology::new(4, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = phased_trace(topo, geo);
        let mut oracle = System::new(SystemSpec::vb(), topo, geo, 0).unwrap();
        oracle.run_shared(&trace);
        // The rounds engine numbers rounds from 1; chunk_refs=64 means
        // part 0's first chunk (seq 0) of round 1 fires early.
        for (spec, tuning, expect) in [
            (
                "worker-panic@r1.p0.s0",
                tiny_tuning(),
                ShardFault::WorkerPanic,
            ),
            (
                "mailbox-stall@r1.p0.s0",
                ShardTuning {
                    watchdog_ms: 50,
                    ..tiny_tuning()
                },
                ShardFault::MailboxStall,
            ),
            (
                "mailbox-send-fail@r1.p1.s0",
                tiny_tuning(),
                ShardFault::WorkerIncomplete,
            ),
        ] {
            let fplan = Some(FaultPlan::from_spec(spec).unwrap());
            let mut sys = System::new(SystemSpec::vb(), topo, geo, 0).unwrap();
            let used = sys.run_sharded_inner(&trace, 4, tuning, fplan);
            assert_eq!(used, 1, "{spec}: degraded run is serial");
            assert_eq!(sys.metrics(), oracle.metrics(), "{spec}: byte-identical");
            for c in 0..topo.clusters() {
                assert_eq!(
                    sys.cluster_counts(dsm_types::ClusterId(c)),
                    oracle.cluster_counts(dsm_types::ClusterId(c)),
                    "{spec}: cluster {c}"
                );
            }
            let report = sys.shard_report().unwrap();
            assert_eq!(report.degraded, Some(expect), "{spec}");
            assert_eq!(report.serial_refs, trace.len() as u64, "{spec}");
        }
    }
}
