//! Sharded trace replay: one engine, one byte-identity guarantee.
//!
//! [`System::run_sharded`] reproduces [`System::run_shared`]'s final
//! state **exactly, for any worker count** — the single-threaded path
//! stays the oracle (`tests/sharded_equiv.rs` pins the identity). The
//! engine ([`rounds`]) partitions the active clusters across workers
//! ([`SharedTrace::cluster_partition`]) and cuts the trace into
//! conservative rounds: maximal runs of references that provably stay
//! inside their own part replay in parallel, everything else replays
//! serially on the main system.
//!
//! A trace whose page-sharing graph splits into several components
//! ([`SharedTrace::shard_plan`]) is partitioned along component
//! boundaries. Under first-touch placement no reference then reaches a
//! foreign part, so the planner marks the whole trace round-safe and it
//! replays as one parallel round. The paper's all-to-all kernels are a
//! single component; their parts are balanced cluster groups, and only
//! the phases that stay cluster-local run in parallel.
//!
//! Workers stream per-chunk [`Metrics`] deltas to the calling thread
//! through bounded SPSC [`mailbox`]es, tagged with their round and
//! intra-round sequence number; the committer drains workers in
//! ascending part order, folding chunks in the deterministic
//! `(round, issuing part, seq)` order, and the merged structural state
//! is reconciled against the streamed totals at join. The worker count
//! and parallel/serial split of the last sharded run are recorded in
//! [`System::shard_report`] so callers and CI can assert that a
//! workload really ran parallel instead of silently falling back.
//!
//! # Fallback
//!
//! Sharding requires static first-touch homes and a pristine system.
//! [`System::run_sharded`] transparently falls back to
//! [`System::run_shared`] (returning a parallelism of 1) when any of
//! these hold:
//!
//! * fewer than two workers were requested;
//! * the system runs OS page policies (migration/replication moves
//!   homes, coupling clusters across partitions);
//! * the placement map is already populated or counters are non-zero
//!   (a prior run on the same system: clones would not be pristine);
//! * the planner finds no run of independent references long enough to
//!   be worth a round (degenerate or fully serial traces).
//!
//! # Supervision
//!
//! Workers run under `catch_unwind`, and the committer drains mailboxes
//! with a deadline-based watchdog ([`ShardTuning::watchdog_ms`]). On any
//! worker failure — a panic, a stall (no chunk within the watchdog
//! window), or an abandoned range — the supervisor restores the
//! pristine pre-run state and replays the trace on the single-threaded
//! oracle, so the output is byte-identical to an unfaulted run. The
//! degradation is never silent: the cause is recorded in
//! [`ShardReport::degraded`] and echoed on stderr. The injection sites
//! that exercise this machinery live in [`crate::fault`] and cost one
//! relaxed atomic load when disarmed.

pub mod mailbox;
pub mod rounds;

use dsm_trace::{SharedTrace, BATCH};
use dsm_types::{DecodedRef, FaultPlan, FaultSite};

use crate::metrics::Metrics;
use crate::system::System;

use std::time::{Duration, Instant};

/// A message streamed from a shard worker to the committer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMsg {
    /// The counters gained since the worker's previous chunk.
    Chunk {
        /// The parallel round this chunk belongs to, numbered from 1.
        /// Combined with the drain order — ascending worker within a
        /// round — and `seq`, chunks fold in the deterministic
        /// `(round, issuing part, seq)` order.
        round: u32,
        /// Position of this chunk within its worker's round, from 0.
        seq: u32,
        /// The counters gained since the worker's previous chunk.
        delta: Metrics,
    },
}

/// Knobs for [`System::run_sharded_with`] — exposed so tests can force
/// tiny chunks and mailboxes (backpressure) without slowing real runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTuning {
    /// References a worker replays between streamed metric chunks.
    pub chunk_refs: usize,
    /// Bounded mailbox capacity, in messages, per worker.
    pub mailbox_capacity: usize,
    /// Smallest run of independent references the rounds engine will
    /// turn into a parallel round; shorter runs fold into the
    /// surrounding serial segment (a round costs a system clone per
    /// worker plus a merge, which tiny runs cannot amortize).
    pub min_parallel_refs: usize,
    /// Stall watchdog: the longest the committer waits for any single
    /// chunk before declaring the producing worker stalled and
    /// degrading to the oracle. A healthy worker streams a chunk every
    /// `chunk_refs` references — milliseconds — so the default (60s)
    /// only fires on genuine wedges.
    pub watchdog_ms: u64,
}

impl Default for ShardTuning {
    fn default() -> Self {
        ShardTuning {
            chunk_refs: 1 << 16,
            mailbox_capacity: 64,
            min_parallel_refs: 1 << 15,
            watchdog_ms: 60_000,
        }
    }
}

impl ShardTuning {
    /// The default tuning with the stall watchdog overridden by the
    /// `DSM_SHARD_WATCHDOG_MS` environment variable when it holds a
    /// positive integer (the chaos harness shortens it so injected
    /// stalls resolve in milliseconds instead of a minute).
    #[must_use]
    pub fn from_env() -> ShardTuning {
        let mut tuning = ShardTuning::default();
        if let Some(ms) = std::env::var("DSM_SHARD_WATCHDOG_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
        {
            tuning.watchdog_ms = ms;
        }
        tuning
    }
}

/// Why a sharded run degraded to the single-threaded oracle — the
/// supervisor's diagnosis, recorded in [`ShardReport::degraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// A worker thread panicked mid-replay.
    WorkerPanic,
    /// A worker produced no chunk within [`ShardTuning::watchdog_ms`].
    MailboxStall,
    /// A worker abandoned its range without panicking (its chunk send
    /// failed — the committer side of its mailbox vanished).
    WorkerIncomplete,
}

impl ShardFault {
    /// The stable label printed in the shard-plan stderr line and
    /// matched by the chaos harness.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShardFault::WorkerPanic => "worker-panic",
            ShardFault::MailboxStall => "mailbox-stall",
            ShardFault::WorkerIncomplete => "worker-incomplete",
        }
    }
}

/// How a sharded replay executed — the record behind
/// [`System::shard_report`], used to assert that a workload ran
/// parallel rather than silently falling back to the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardReport {
    /// Worker threads actually engaged (1 = serial oracle path).
    pub workers: usize,
    /// Parallel rounds executed (1 for a multi-component trace, whose
    /// component-aligned parts never interact).
    pub parallel_rounds: usize,
    /// References replayed inside parallel rounds.
    pub parallel_refs: u64,
    /// References replayed serially on the main system.
    pub serial_refs: u64,
    /// `Some` when the supervisor tore the sharded run down and
    /// re-ran the trace on the oracle; workers/refs then describe the
    /// oracle replay that actually produced the output.
    pub degraded: Option<ShardFault>,
}

impl System {
    /// Replays `trace` like [`System::run_shared`], but partitioned
    /// across up to `workers` threads (see the [module docs](self) for
    /// the partitioning and its exactness argument). Returns the number
    /// of worker threads actually used; `1` means the run fell back to
    /// the single-threaded oracle path.
    ///
    /// Only the unprobed system offers this: probes observe a single
    /// interleaved event stream, which a partitioned replay does not
    /// produce.
    ///
    /// # Panics
    ///
    /// Panics if `trace` was built under a different topology or
    /// geometry than this system.
    pub fn run_sharded(&mut self, trace: &SharedTrace, workers: usize) -> usize {
        self.run_sharded_with(trace, workers, ShardTuning::default())
    }

    /// [`System::run_sharded`] with explicit streaming knobs.
    ///
    /// # Panics
    ///
    /// Panics if `trace` was built under a different topology or
    /// geometry than this system, or if `tuning.chunk_refs` or
    /// `tuning.mailbox_capacity` is zero.
    pub fn run_sharded_with(
        &mut self,
        trace: &SharedTrace,
        workers: usize,
        tuning: ShardTuning,
    ) -> usize {
        // The process-wide fault plan is read once here and threaded
        // down, so workers never consult the global mid-replay.
        self.run_sharded_inner(trace, workers, tuning, crate::fault::shard_plan())
    }

    /// [`System::run_sharded_with`] with the fault plan passed
    /// explicitly — the unit tests' injection entry point (no global
    /// state, so parallel test threads cannot see each other's plans).
    pub(crate) fn run_sharded_inner(
        &mut self,
        trace: &SharedTrace,
        workers: usize,
        tuning: ShardTuning,
        fplan: Option<FaultPlan>,
    ) -> usize {
        assert_eq!(
            trace.topology(),
            &self.topo,
            "trace topology does not match system topology"
        );
        assert_eq!(
            trace.geometry(),
            &self.geo,
            "trace geometry does not match system geometry"
        );
        assert!(tuning.chunk_refs > 0, "chunk_refs must be positive");
        assert!(
            tuning.min_parallel_refs > 0,
            "min_parallel_refs must be positive"
        );
        let eligible = workers >= 2
            && self.migrep.is_none()
            && self.home.placement().placed_pages() == 0
            && self.metrics == Metrics::default();
        if !eligible {
            self.run_shared(trace);
            return 1;
        }
        self.run_rounds(trace, workers, tuning, fplan)
    }

    /// Supervised recovery: replays `trace` on the single-threaded
    /// oracle after a sharded run failed. The caller guarantees `self`
    /// is back in its pristine pre-run state (the engine restores a
    /// saved clone), so the result is byte-identical to a run that
    /// never sharded. The degradation is recorded in the shard report
    /// and echoed on stderr — never silent.
    pub(crate) fn degrade_to_oracle(&mut self, trace: &SharedTrace, cause: ShardFault) -> usize {
        eprintln!(
            "shard supervisor: {} during sharded replay; degrading to the single-threaded oracle",
            cause.label()
        );
        self.run_shared(trace);
        self.shard_report = Some(ShardReport {
            workers: 1,
            parallel_rounds: 0,
            parallel_refs: 0,
            serial_refs: trace.len() as u64,
            degraded: Some(cause),
        });
        1
    }
}

/// Folds the supervisor's three failure observations into the single
/// reported cause, most-specific first: a panic outranks a stall
/// (a stalling watchdog teardown routinely *causes* secondary
/// incomplete workers), and a stall outranks a bare abandoned range.
pub(crate) fn diagnose(panicked: bool, stalled: bool, incomplete: bool) -> Option<ShardFault> {
    if panicked {
        Some(ShardFault::WorkerPanic)
    } else if stalled {
        Some(ShardFault::MailboxStall)
    } else if incomplete {
        Some(ShardFault::WorkerIncomplete)
    } else {
        None
    }
}

/// Consults the fault plan at one chunk boundary, before the send.
/// Returns `false` when the worker must abandon its range (an injected
/// send failure, or a stall whose watchdog teardown arrived).
///
/// The stall site sleeps in small steps until the committer's watchdog
/// closes the mailbox (the normal resolution) or the plan's
/// `stall_ms` budget elapses — whichever is first — so a stall shorter
/// than the watchdog window is absorbed and the run completes
/// normally, exactly like a real transient hiccup.
fn chunk_fault_gate(
    tx: &mailbox::Sender<ShardMsg>,
    round: u32,
    part: u32,
    seq: u32,
    fplan: Option<FaultPlan>,
) -> bool {
    let Some(plan) = fplan else { return true };
    if !plan.fires_at(round, part, seq) {
        return true;
    }
    match plan.site {
        FaultSite::WorkerPanic => {
            panic!("injected worker panic at r{round}.p{part}.s{seq}")
        }
        FaultSite::MailboxSendFail => false,
        FaultSite::MailboxStall => {
            let start = Instant::now();
            while !tx.is_closed() && start.elapsed() < Duration::from_millis(plan.stall_ms) {
                std::thread::sleep(Duration::from_millis(2));
            }
            !tx.is_closed()
        }
        _ => true,
    }
}

/// Replays one part's trace positions of a round on `sys`, streaming a
/// metrics delta roughly every `tuning.chunk_refs` references, tagged
/// with `round` and an intra-round sequence number. The final partial
/// chunk is flushed by the caller's sender drop closing the mailbox
/// after the last explicit send here.
///
/// Returns `true` when the whole range replayed; `false` when the
/// worker abandoned it (an injected fault, or a real send failure —
/// the committer vanished), in which case the supervisor degrades the
/// run to the oracle and this system's partial state is discarded.
#[allow(clippy::too_many_arguments)] // one internal call site
fn replay_indices(
    sys: &mut System,
    trace: &SharedTrace,
    indices: &[u32],
    tuning: ShardTuning,
    tx: &mut mailbox::Sender<ShardMsg>,
    round: u32,
    part: u32,
    fplan: Option<FaultPlan>,
) -> bool {
    // Prefetch one window ahead like `System::run_shared`: after
    // gathering window N, peek window N+1's columns and prefetch the
    // machine lines it will touch, overlapping window N's processing
    // with window N+1's memory latency. Processing order is unchanged.
    let mut batch = [DecodedRef::default(); BATCH];
    let mut last = *sys.metrics();
    let mut since_flush = 0;
    let mut pos = 0;
    let mut seq: u32 = 0;
    loop {
        let n = trace.decode_gather(&indices[pos..], &mut batch);
        if n == 0 {
            break;
        }
        trace.peek_gather(&indices[pos + n..], BATCH, |cl, lp, block| {
            sys.prefetch_line(cl, lp, block);
        });
        for d in &batch[..n] {
            sys.process_decoded(*d);
        }
        pos += n;
        since_flush += n;
        if since_flush >= tuning.chunk_refs {
            since_flush = 0;
            let delta = sys.metrics().delta(&last);
            last = *sys.metrics();
            if !chunk_fault_gate(tx, round, part, seq, fplan) {
                return false;
            }
            if tx.send(ShardMsg::Chunk { round, seq, delta }).is_err() {
                // The committer vanished (watchdog teardown): this
                // worker's state can no longer be merged — abandon so
                // the supervisor degrades instead of silently dropping
                // the counters.
                return false;
            }
            seq = seq.wrapping_add(1);
        }
    }
    // The final flush consults the gate even when the residual delta is
    // empty, so a plan aimed at the last chunk of a short range still
    // fires deterministically.
    if !chunk_fault_gate(tx, round, part, seq, fplan) {
        return false;
    }
    let delta = sys.metrics().delta(&last);
    if delta != Metrics::default() && tx.send(ShardMsg::Chunk { round, seq, delta }).is_err() {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemSpec;
    use dsm_types::{Addr, Geometry, MemRef, ProcId, Topology};

    fn two_component_trace(topo: Topology, geo: Geometry) -> SharedTrace {
        // Clusters {0} and {1} touch disjoint pages: two components.
        let page = geo.page_bytes();
        let mut refs = Vec::new();
        for i in 0..200u64 {
            refs.push(MemRef::read(ProcId(0), Addr(i % 8 * page)));
            refs.push(MemRef::write(ProcId(4), Addr((100 + i % 8) * page)));
        }
        SharedTrace::from_refs(topo, geo, &refs)
    }

    /// The 400-reference fixture is far below the default
    /// `min_parallel_refs`; this threshold lets it form a round.
    fn small_threshold() -> ShardTuning {
        ShardTuning {
            min_parallel_refs: 64,
            ..ShardTuning::default()
        }
    }

    #[test]
    fn sharded_matches_oracle_and_reports_parallelism() {
        let topo = Topology::new(2, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = two_component_trace(topo, geo);
        let mut oracle = System::new(SystemSpec::vb(), topo, geo, 0).unwrap();
        oracle.run_shared(&trace);
        let mut sharded = System::new(SystemSpec::vb(), topo, geo, 0).unwrap();
        let used = sharded.run_sharded_with(&trace, 2, small_threshold());
        assert_eq!(used, 2);
        assert_eq!(sharded.metrics(), oracle.metrics());
        // Component-aligned parts: the whole trace is one round.
        let report = sharded.shard_report().unwrap();
        assert_eq!(report.parallel_rounds, 1);
        assert_eq!(report.parallel_refs, trace.len() as u64);
        assert_eq!(report.serial_refs, 0);
    }

    #[test]
    fn trivial_single_component_runs_serially_with_a_report() {
        let topo = Topology::new(2, 4).unwrap();
        let geo = Geometry::paper_default();
        // Both clusters read page 0: one component, and far too short
        // for the planner to cut a parallel round out of.
        let refs = vec![
            MemRef::read(ProcId(0), Addr(0)),
            MemRef::read(ProcId(4), Addr(0)),
        ];
        let trace = SharedTrace::from_refs(topo, geo, &refs);
        let mut sys = System::new(SystemSpec::base(), topo, geo, 0).unwrap();
        assert_eq!(sys.run_sharded(&trace, 4), 1);
        assert_eq!(sys.metrics().shared_refs, 2);
        let report = sys.shard_report().unwrap();
        assert_eq!(report.workers, 1);
        assert_eq!(report.parallel_rounds, 0);
        assert_eq!(report.serial_refs, 2);
    }

    #[test]
    fn used_system_falls_back() {
        let topo = Topology::new(2, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = two_component_trace(topo, geo);
        let mut sys = System::new(SystemSpec::base(), topo, geo, 0).unwrap();
        sys.run_shared(&trace); // placement now populated
        assert_eq!(sys.run_sharded(&trace, 2), 1);
    }

    #[test]
    fn tiny_mailbox_and_chunks_do_not_deadlock() {
        let topo = Topology::new(2, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = two_component_trace(topo, geo);
        let mut oracle = System::new(SystemSpec::base(), topo, geo, 0).unwrap();
        oracle.run_shared(&trace);
        let mut sys = System::new(SystemSpec::base(), topo, geo, 0).unwrap();
        let tuning = ShardTuning {
            chunk_refs: 1,
            mailbox_capacity: 1,
            min_parallel_refs: 1,
            ..ShardTuning::default()
        };
        assert_eq!(sys.run_sharded_with(&trace, 2, tuning), 2);
        assert_eq!(sys.metrics(), oracle.metrics());
        let report = sys.shard_report().unwrap();
        assert_eq!(report.workers, 2);
        assert_eq!(report.parallel_refs, trace.len() as u64);
        assert_eq!(report.degraded, None);
    }

    fn plan(spec: &str) -> Option<FaultPlan> {
        Some(FaultPlan::from_spec(spec).unwrap())
    }

    /// Runs the faulted replay and asserts it degraded to the oracle
    /// with byte-identical state and the expected diagnosis. The
    /// fixture replays as round 1, part 0 = cluster 0 and part 1 =
    /// cluster 1; each part's 200 references end in chunk seq 0.
    fn assert_degrades(tuning: ShardTuning, fplan: Option<FaultPlan>, expect: ShardFault) {
        let topo = Topology::new(2, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = two_component_trace(topo, geo);
        let mut oracle = System::new(SystemSpec::vb(), topo, geo, 0).unwrap();
        oracle.run_shared(&trace);
        let mut sys = System::new(SystemSpec::vb(), topo, geo, 0).unwrap();
        let used = sys.run_sharded_inner(&trace, 2, tuning, fplan);
        assert_eq!(used, 1, "degraded run reports the oracle's parallelism");
        assert_eq!(sys.metrics(), oracle.metrics(), "byte-identical recovery");
        for c in 0..topo.clusters() {
            assert_eq!(
                sys.cluster_counts(dsm_types::ClusterId(c)),
                oracle.cluster_counts(dsm_types::ClusterId(c)),
                "cluster {c}"
            );
        }
        let report = sys.shard_report().unwrap();
        assert_eq!(report.workers, 1);
        assert_eq!(report.serial_refs, trace.len() as u64);
        assert_eq!(report.degraded, Some(expect));
    }

    #[test]
    fn injected_worker_panic_degrades_byte_identical() {
        assert_degrades(
            small_threshold(),
            plan("worker-panic@r1.p0.s0"),
            ShardFault::WorkerPanic,
        );
    }

    #[test]
    fn injected_send_failure_degrades_byte_identical() {
        assert_degrades(
            small_threshold(),
            plan("mailbox-send-fail@r1.p1.s0"),
            ShardFault::WorkerIncomplete,
        );
    }

    #[test]
    fn injected_stall_trips_watchdog_and_degrades() {
        let tuning = ShardTuning {
            watchdog_ms: 50,
            ..small_threshold()
        };
        // Default 120s stall budget: only the watchdog can resolve it.
        assert_degrades(
            tuning,
            plan("mailbox-stall@r1.p0.s0"),
            ShardFault::MailboxStall,
        );
    }

    #[test]
    fn stall_shorter_than_watchdog_is_absorbed() {
        let topo = Topology::new(2, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = two_component_trace(topo, geo);
        let mut oracle = System::new(SystemSpec::base(), topo, geo, 0).unwrap();
        oracle.run_shared(&trace);
        let mut sys = System::new(SystemSpec::base(), topo, geo, 0).unwrap();
        // A 20ms stall against the 60s default watchdog: the worker
        // resumes and the run completes parallel, undegraded.
        let used = sys.run_sharded_inner(
            &trace,
            2,
            small_threshold(),
            plan("mailbox-stall@r1.p0.s0:20"),
        );
        assert_eq!(used, 2);
        assert_eq!(sys.metrics(), oracle.metrics());
        assert_eq!(sys.shard_report().unwrap().degraded, None);
    }

    #[test]
    fn io_site_plans_do_not_touch_the_shard_path() {
        let topo = Topology::new(2, 4).unwrap();
        let geo = Geometry::paper_default();
        let trace = two_component_trace(topo, geo);
        let mut sys = System::new(SystemSpec::base(), topo, geo, 0).unwrap();
        let used = sys.run_sharded_inner(&trace, 2, small_threshold(), plan("journal-io:2"));
        assert_eq!(used, 2);
        assert_eq!(sys.shard_report().unwrap().degraded, None);
    }
}
