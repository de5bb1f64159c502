//! The machine-level simulator: clusters, directory, and the reference
//! processing state machine.

use dsm_cache::{CacheState, Eviction};
use dsm_directory::{DirectoryUnit, HomeMap, RnumaCounters};
use dsm_protocol::mesir;
use dsm_trace::{SharedTrace, BATCH};
use dsm_types::{
    AddrParts, BlockAddr, ClusterId, ClusterSet, ConfigError, DecodedRef, DenseMap, DsmError,
    Geometry, LocalProcId, MemOp, MemRef, PageAddr, Topology,
};

use crate::cluster::ClusterUnit;
use crate::config::{CounterSource, MigRepSpec, SystemSpec};
use crate::metrics::{ClusterCounts, Metrics};
use crate::model::{Latencies, LatencyModel};
use crate::nc::{NcEviction, NcUnit};
use crate::page_cache::PcBlockState;
use crate::probe::{EpochSample, Event, NoProbe, Probe};

/// A complete simulated machine under one [`SystemSpec`].
///
/// The simulator is trace-driven and event-count based, mirroring the
/// paper's methodology: each shared reference is classified (cache hit,
/// peer transfer, NC hit, PC hit, or remote access), coherence state is
/// maintained exactly (MESIR caches, network/page caches, full-map
/// directory), and the latency model of Tables 1-2 turns the counts into
/// the remote read stall of Equation 1.
///
/// # Example
///
/// ```
/// use dsm_core::{System, SystemSpec};
/// use dsm_types::{Addr, Geometry, MemRef, ProcId, Topology};
///
/// let mut sys = System::new(
///     SystemSpec::vb(),
///     Topology::paper_default(),
///     Geometry::paper_default(),
///     0, // data-set size only matters for fraction-sized page caches
/// )?;
/// sys.process(MemRef::read(ProcId(0), Addr(0x1000)));
/// assert_eq!(sys.metrics().shared_refs, 1);
/// # Ok::<(), dsm_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct System<P: Probe = NoProbe> {
    // `pub(crate)` so the sibling `check` and `shard` modules can walk
    // (and, for `shard`, merge) the machine state; external code still
    // goes through the accessors.
    pub(crate) spec: SystemSpec,
    pub(crate) topo: Topology,
    pub(crate) geo: Geometry,
    pub(crate) home: HomeMap,
    pub(crate) dir: DirectoryUnit,
    pub(crate) rnuma: RnumaCounters,
    pub(crate) clusters: Vec<ClusterUnit>,
    pub(crate) metrics: Metrics,
    pub(crate) per_cluster: Vec<ClusterCounts>,
    pub(crate) migrep: Option<MigRepState>,
    /// How the most recent `run_sharded` call executed (`None` until
    /// one runs) — the probe the no-silent-fallback assertions read.
    pub(crate) shard_report: Option<crate::shard::ShardReport>,
    model: LatencyModel,
    probe: P,
    epoch: Option<EpochState>,
    /// Invariant-check cadence for [`System::run_shared_checked`] (0 =
    /// check only at end of trace). Never read on the unchecked paths.
    check_every: u64,
}

/// Live state of the epoch sampler (see [`System::set_epoch_window`]).
#[derive(Debug, Clone)]
struct EpochState {
    window: u64,
    index: u64,
    start_ref: u64,
    last_metrics: Metrics,
    last_per_cluster: Vec<ClusterCounts>,
}

/// A point-in-time fill snapshot of one cluster's structures (see
/// [`System::occupancy`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterOccupancy {
    /// Valid blocks across the cluster's processor caches.
    pub cache_blocks: usize,
    /// Blocks resident in the network cache (0 without an NC).
    pub nc_blocks: usize,
    /// Pages resident in the page cache (0 without a PC).
    pub pc_pages: usize,
    /// Page-cache frame capacity (0 without a PC).
    pub pc_capacity: usize,
    /// Bus transactions the cluster has carried so far.
    pub bus_transactions: u64,
}

/// A machine-wide occupancy snapshot: per-cluster structure fill plus
/// live directory entries (see [`System::occupancy`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// One fill snapshot per cluster, in cluster order.
    pub clusters: Vec<ClusterOccupancy>,
    /// Blocks with live directory state (either organization).
    pub directory_tracked_blocks: usize,
}

impl OccupancySnapshot {
    /// Serializes the snapshot for `profile --out` / rollup exports.
    #[must_use]
    pub fn to_json(&self) -> crate::obs::json::Json {
        use crate::obs::json::Json;
        let clusters = self
            .clusters
            .iter()
            .map(|c| {
                Json::obj()
                    .set("cache_blocks", c.cache_blocks as u64)
                    .set("nc_blocks", c.nc_blocks as u64)
                    .set("pc_pages", c.pc_pages as u64)
                    .set("pc_capacity", c.pc_capacity as u64)
                    .set("bus_transactions", c.bus_transactions)
            })
            .collect();
        Json::obj().set("clusters", Json::Arr(clusters)).set(
            "directory_tracked_blocks",
            self.directory_tracked_blocks as u64,
        )
    }
}

/// Runtime state of the Origin-style OS page policies.
#[derive(Debug, Clone)]
pub(crate) struct MigRepState {
    spec: MigRepSpec,
    /// Per-page per-cluster remote-miss counters (same hardware R-NUMA
    /// assumes, repurposed for the OS policy).
    counters: RnumaCounters,
    /// Pages that have ever been written (not read-only; replication is
    /// withheld and migration applies instead).
    written_pages: DenseMap<u32>,
    /// Replicated pages: the set of clusters holding a replica.
    replicas: DenseMap<ClusterSet>,
}

impl System {
    /// Builds an unobserved system (the [`NoProbe`] default: every
    /// emission site compiles away). `data_bytes` is the application's
    /// data-set size, needed to resolve fraction-sized page caches
    /// (`ncp5` etc.); pass 0 for systems without one.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the spec is inconsistent or a
    /// fraction-sized page cache resolves to zero frames.
    pub fn new(
        spec: SystemSpec,
        topo: Topology,
        geo: Geometry,
        data_bytes: u64,
    ) -> Result<Self, ConfigError> {
        System::with_probe(spec, topo, geo, data_bytes, NoProbe)
    }
}

impl<P: Probe> System<P> {
    /// Builds a system observed by `probe`. See [`System::new`] for the
    /// other parameters; see [`System::set_epoch_window`] to also enable
    /// epoch sampling.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the spec is inconsistent or a
    /// fraction-sized page cache resolves to zero frames.
    pub fn with_probe(
        spec: SystemSpec,
        topo: Topology,
        geo: Geometry,
        data_bytes: u64,
        probe: P,
    ) -> Result<Self, ConfigError> {
        spec.validate()?;
        let pc_frames = match &spec.pc {
            Some(pc) => Some(pc.size.frames(data_bytes, &geo)?),
            None => None,
        };
        let clusters = (0..topo.clusters())
            .map(|_| ClusterUnit::build(&spec, &topo, geo, pc_frames))
            .collect::<Result<Vec<_>, _>>()?;
        let model = LatencyModel::new(Latencies::paper_default(), spec.technology());
        let migrep = spec.migrep.map(|spec| MigRepState {
            spec,
            counters: RnumaCounters::new(),
            written_pages: DenseMap::new(),
            replicas: DenseMap::new(),
        });
        Ok(System {
            home: HomeMap::new(geo),
            dir: match spec.directory {
                crate::config::DirectorySpec::FullMap => DirectoryUnit::full_map(topo.clusters()),
                crate::config::DirectorySpec::LimitedPointer { pointers } => {
                    DirectoryUnit::limited(topo.clusters(), pointers)
                }
            },
            rnuma: RnumaCounters::new(),
            per_cluster: vec![ClusterCounts::default(); usize::from(topo.clusters())],
            clusters,
            metrics: Metrics::new(),
            migrep,
            shard_report: None,
            model,
            spec,
            topo,
            geo,
            probe,
            epoch: None,
            check_every: 0,
        })
    }

    /// Enables epoch sampling: every `window` shared references the
    /// probe's [`Probe::epoch`] receives the counters gained since the
    /// previous sample (plus per-cluster deltas and live thresholds).
    /// Call [`System::finish`] after the trace to flush the partial tail.
    ///
    /// Sampling only fires for probes with `ENABLED = true`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn set_epoch_window(&mut self, window: u64) {
        assert!(window > 0, "epoch window must be positive");
        self.epoch = Some(EpochState {
            window,
            index: 0,
            start_ref: self.metrics.shared_refs,
            last_metrics: self.metrics,
            last_per_cluster: self.per_cluster.clone(),
        });
    }

    /// Flushes the open (partial) epoch, if any. Idempotent; call once
    /// after the last reference of a run.
    pub fn finish(&mut self) {
        if P::ENABLED {
            self.flush_epoch();
        }
    }

    /// The probe observing this system.
    #[must_use]
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Mutable access to the probe (e.g. to flush a buffered sink).
    #[must_use]
    pub fn probe_mut(&mut self) -> &mut P {
        &mut self.probe
    }

    /// Consumes the system, returning the probe and final metrics.
    #[must_use]
    pub fn into_probe(self) -> (P, Metrics) {
        (self.probe, self.metrics)
    }

    /// Forwards one event to the probe. Compiles to nothing under
    /// [`NoProbe`] — `P::ENABLED` is a constant the optimizer folds.
    #[inline(always)]
    fn emit(&mut self, event: Event) {
        if P::ENABLED {
            self.probe.event(self.metrics.shared_refs, &event);
        }
    }

    /// Closes the current epoch if the window has elapsed.
    #[inline]
    fn maybe_epoch(&mut self) {
        let due = match &self.epoch {
            Some(st) => self.metrics.shared_refs - st.start_ref >= st.window,
            None => false,
        };
        if due {
            self.flush_epoch();
        }
    }

    /// Emits the currently-open epoch (when non-empty) and starts the
    /// next one.
    fn flush_epoch(&mut self) {
        let Some(mut st) = self.epoch.take() else {
            return;
        };
        if self.metrics.shared_refs > st.start_ref {
            let sample = EpochSample {
                index: st.index,
                start_ref: st.start_ref,
                end_ref: self.metrics.shared_refs,
                delta: self.metrics.delta(&st.last_metrics),
                per_cluster: self
                    .per_cluster
                    .iter()
                    .zip(&st.last_per_cluster)
                    .map(|(now, was)| now.delta(was))
                    .collect(),
                thresholds: self
                    .clusters
                    .iter()
                    .map(|c| c.threshold.threshold())
                    .collect(),
            };
            st.index += 1;
            st.start_ref = self.metrics.shared_refs;
            st.last_metrics = self.metrics;
            st.last_per_cluster = self.per_cluster.clone();
            self.probe.epoch(&sample);
        }
        self.epoch = Some(st);
    }

    /// The configuration this system was built from.
    #[must_use]
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The configuration's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Accumulated event counts.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The latency model in force (Tables 1-2).
    #[must_use]
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// How the most recent `run_sharded` call on this system executed:
    /// which engine ran, how many workers engaged, and the
    /// parallel/serial split. `None` until a sharded run happens.
    /// Callers (and CI) use this to assert that a workload did *not*
    /// silently fall back to the single-threaded oracle.
    #[must_use]
    pub fn shard_report(&self) -> Option<crate::shard::ShardReport> {
        self.shard_report
    }

    /// The machine topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The address-space geometry.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Directory storage cost per block in bits under this system's
    /// directory organization (full map: O(clusters); Dir-i-B:
    /// O(pointers)).
    #[must_use]
    pub fn directory_bits_per_block(&self) -> u32 {
        self.dir.bits_per_block()
    }

    /// Read-only view of one cluster (tests and diagnostics).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster(&self, cluster: ClusterId) -> &ClusterUnit {
        &self.clusters[usize::from(cluster.0)]
    }

    /// Per-cluster event counts (locality/imbalance analysis).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster_counts(&self, cluster: ClusterId) -> &ClusterCounts {
        &self.per_cluster[usize::from(cluster.0)]
    }

    /// Snapshots how full the machine's structures are right now:
    /// per-cluster processor-cache/NC blocks, page-cache frames and bus
    /// transactions, plus live directory entries. Read-on-demand (the
    /// structures already track their fill), so taking a snapshot costs
    /// nothing on the per-reference path; the directory walk is
    /// O(blocks) and meant for end-of-run diagnostics.
    #[must_use]
    pub fn occupancy(&self) -> OccupancySnapshot {
        let clusters = self
            .clusters
            .iter()
            .map(|cl| {
                let cache_blocks = (0..cl.bus.procs())
                    .map(|p| cl.bus.cache(LocalProcId(p as u16)).len())
                    .sum();
                ClusterOccupancy {
                    cache_blocks,
                    nc_blocks: cl.nc.occupied_blocks(),
                    pc_pages: cl.pc.as_ref().map_or(0, |pc| pc.len()),
                    pc_capacity: cl.pc.as_ref().map_or(0, |pc| pc.capacity()),
                    bus_transactions: cl.bus.stats().transactions(),
                }
            })
            .collect();
        OccupancySnapshot {
            clusters,
            directory_tracked_blocks: self.dir.tracked_blocks(),
        }
    }

    /// Replays a columnar trace, consuming the precomputed decomposition
    /// columns in batches of [`BATCH`] [`DecodedRef`]s — no per-reference
    /// address arithmetic, processor splitting, or page-table hashing.
    ///
    /// The precomputed `home` column encodes pure first-touch placement,
    /// so the batched path requires page homes to be static: a system
    /// running OS migration/replication policies, or one whose placement
    /// map is already populated (a prior replay on the same system),
    /// falls back to the per-reference path with live home lookups. The
    /// two paths are metric-identical (see `tests/sharedtrace_equiv.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `trace` was built under a different topology or
    /// geometry than this system.
    pub fn run_shared(&mut self, trace: &SharedTrace) {
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
        let static_homes = self.migrep.is_none() && self.home.placement().placed_pages() == 0;
        if !static_homes {
            for r in trace.iter() {
                self.process(r);
            }
            return;
        }
        // Prefetch one batch ahead: after decoding batch N, peek batch
        // N+1's columns (registers only, no DecodedRef materialization)
        // and issue prefetches for the machine lines it will touch —
        // processor-cache tag rows, directory entries, NC lines — so
        // batch N's processing overlaps batch N+1's memory latency.
        // Processing order is unchanged; prefetches are hints. The peek
        // deliberately avoids a second decoded buffer: double-buffering
        // forces both batches' lanes through the stack, which measures
        // slower than re-reading the columns.
        let mut batch = [DecodedRef::default(); BATCH];
        let mut start = 0;
        loop {
            let n = trace.decode_batch(start, &mut batch);
            if n == 0 {
                break;
            }
            trace.peek_batch(start + n, BATCH, |cl, lp, block| {
                self.prefetch_line(cl, lp, block);
            });
            for d in &batch[..n] {
                self.process_decoded(*d);
            }
            start += n;
        }
    }

    /// Replays the half-open trace range `[start, end)` with the same
    /// batched decode + one-batch-ahead prefetch discipline as
    /// [`System::run_shared`] — the serial-segment primitive of the
    /// intra-component sharded engine (`crate::shard::rounds`). Requires
    /// static homes, which the sharded engine's eligibility check
    /// already guarantees.
    pub(crate) fn replay_range(&mut self, trace: &SharedTrace, start: usize, end: usize) {
        debug_assert!(end <= trace.len());
        let mut batch = [DecodedRef::default(); BATCH];
        let mut pos = start;
        while pos < end {
            let want = (end - pos).min(BATCH);
            let n = trace.decode_batch(pos, &mut batch[..want]);
            if n == 0 {
                break;
            }
            // Peeking past `end` only issues prefetch hints for lines
            // the next segment will touch; state is unchanged.
            trace.peek_batch(pos + n, BATCH, |cl, lp, block| {
                self.prefetch_line(cl, lp, block);
            });
            for d in &batch[..n] {
                self.process_decoded(*d);
            }
            pos += n;
        }
    }

    /// Issues prefetch hints for the machine lines a reference issued by
    /// local processor `lp` of cluster `cl` against `block` will touch
    /// when processed: the processor's cache tag row, the directory
    /// entry, and the cluster's NC line. Called one batch ahead of
    /// processing; never changes state.
    #[inline]
    pub(crate) fn prefetch_line(&self, cl: ClusterId, lp: LocalProcId, block: BlockAddr) {
        self.dir.prefetch(block);
        let c = &self.clusters[usize::from(cl.0)];
        c.bus.prefetch(lp, block);
        c.nc.prefetch(block);
    }

    /// Sets the invariant-check cadence for
    /// [`System::run_shared_checked`]: the coherence invariants are
    /// validated after every `every` references (plus once at end of
    /// trace). `0` restores the default end-of-trace-only check.
    ///
    /// This knob is only read by the checked replay path; the unchecked
    /// [`System::run_shared`] hot path never looks at it, so leaving
    /// checks off costs nothing.
    pub fn set_check_level(&mut self, every: u64) {
        self.check_every = every;
    }

    /// Replays a trace like [`System::run_shared`], validating the
    /// coherence invariants at the cadence set by
    /// [`System::set_check_level`] and once after the last reference.
    ///
    /// Runs on the per-reference path (metric-identical to the batched
    /// path; see `tests/sharedtrace_equiv.rs`), so a violation can be
    /// reported with the exact reference that exposed it.
    ///
    /// # Errors
    ///
    /// Returns [`DsmError`] with kind `BadInput` if the trace was built
    /// under a different topology or geometry, or `InvariantViolation`
    /// (with the offending reference and epoch attached as context) if
    /// the machine state is inconsistent.
    pub fn run_shared_checked(&mut self, trace: &SharedTrace) -> Result<(), DsmError> {
        if trace.topology() != &self.topo {
            return Err(DsmError::bad_input(format!(
                "trace topology {} does not match system topology {}",
                trace.topology(),
                self.topo
            )));
        }
        if trace.geometry() != &self.geo {
            return Err(DsmError::bad_input(
                "trace geometry does not match system geometry",
            ));
        }
        let every = self.check_every;
        let mut last: Option<(u64, MemRef)> = None;
        for (i, r) in trace.iter().enumerate() {
            self.process(r);
            let i = i as u64;
            last = Some((i, r));
            if every > 0 && (i + 1).is_multiple_of(every) {
                self.check_invariants()
                    .map_err(|e| self.attach_reference_context(e, i, r))?;
            }
        }
        self.check_invariants().map_err(|e| match last {
            Some((i, r)) => self
                .attach_reference_context(e, i, r)
                .context("end of trace"),
            None => e.context("end of trace (empty)"),
        })
    }

    /// Wraps an invariant violation with the reference that exposed it
    /// and, when epoch sampling is on, the current epoch index.
    fn attach_reference_context(&self, e: DsmError, index: u64, r: MemRef) -> DsmError {
        let AddrParts { block, page, .. } = self.geo.decompose(r.addr);
        let (cl, lp) = self.topo.split_of(r.proc);
        let op = if r.op.is_write() { "write" } else { "read" };
        let epoch = match &self.epoch {
            Some(st) => format!(", epoch {}", st.index),
            None => String::new(),
        };
        e.context(format!(
            "after ref {index}: {op} by proc {} (cluster {}, local proc {}) \
             at addr {:#x} ({block}, {page}){epoch}",
            r.proc.0, cl.0, lp.0, r.addr.0
        ))
    }

    /// Deliberately corrupts the directory by dropping `cluster`'s
    /// presence bit for `block`, leaving any cached copies untracked.
    /// Exists solely so tests can prove the invariant checker catches
    /// real corruption; full-map directories only.
    ///
    /// # Panics
    ///
    /// Panics on a limited-pointer directory.
    #[doc(hidden)]
    pub fn corrupt_directory_drop_presence(&mut self, block: BlockAddr, cluster: ClusterId) {
        self.dir.drop_presence(block, cluster);
    }

    /// Processes one pre-decoded reference on the static-home fast path
    /// (no OS page policies, placement driven purely by first touch).
    /// Mirrors [`System::process`] with the derivations and the
    /// migration branches removed; the first-touch flag keeps the live
    /// placement map populated for eviction home lookups and
    /// victimization accounting.
    #[inline]
    pub(crate) fn process_decoded(&mut self, d: DecodedRef) {
        debug_assert!(self.migrep.is_none());
        if d.first_touch {
            self.home.preassign(d.page, d.home);
        }
        self.metrics.shared_refs += 1;
        self.per_cluster[usize::from(d.cluster.0)].refs += 1;
        if d.write {
            self.metrics.writes += 1;
            self.process_write(d.cluster, d.lproc, d.block, d.page, d.remote());
        } else {
            self.metrics.reads += 1;
            self.process_read(d.cluster, d.lproc, d.block, d.page, d.remote());
        }
        if P::ENABLED {
            self.maybe_epoch();
        }
    }

    /// Processes one shared-memory reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference's processor is outside the topology.
    pub fn process(&mut self, r: MemRef) {
        let AddrParts { block, page, .. } = self.geo.decompose(r.addr);
        let (cl, lp) = self.topo.split_of(r.proc);
        let home = self.home.home_of_page(page, cl);
        let mut remote = home != cl;

        // Origin-style OS policies: local replicas serve remote reads;
        // any write to a replicated page collapses its replicas first.
        if r.op.is_write() {
            if self.migrep.is_some() {
                // A page only loses replication eligibility when a write
                // is *sharing-relevant*: the page is remote to the writer,
                // or another cluster currently holds (a block of) it.
                // First-touch initialization writes stay invisible, as an
                // OS policy driven by remote-miss counters would see them.
                let shared_elsewhere = remote || self.dir.has_sharer_other_than(block, cl);
                let mut collapsed = false;
                if let Some(mr) = self.migrep.as_mut() {
                    collapsed = mr.replicas.remove(page.0).is_some();
                    if shared_elsewhere {
                        *mr.written_pages.entry_or_default(page.0) += 1;
                    }
                }
                if collapsed {
                    self.metrics.replica_collapses += 1;
                    self.emit(Event::ReplicaCollapse { cluster: cl, page });
                }
            }
        } else if remote {
            if let Some(mr) = self.migrep.as_ref() {
                if mr.replicas.get(page.0).is_some_and(|set| set.contains(cl)) {
                    remote = false;
                }
            }
        }

        self.metrics.shared_refs += 1;
        self.per_cluster[usize::from(cl.0)].refs += 1;
        match r.op {
            MemOp::Read => {
                self.metrics.reads += 1;
                self.process_read(cl, lp, block, page, remote);
            }
            MemOp::Write => {
                self.metrics.writes += 1;
                self.process_write(cl, lp, block, page, remote);
            }
        }
        if P::ENABLED {
            self.maybe_epoch();
        }
    }

    fn process_read(
        &mut self,
        cl: ClusterId,
        lp: LocalProcId,
        block: BlockAddr,
        page: PageAddr,
        remote: bool,
    ) {
        let ci = usize::from(cl.0);

        // 1. Own cache (single tag-array scan: probe + LRU refresh).
        if self.clusters[ci].bus.try_read_hit(lp, block) {
            self.metrics.read_hits += 1;
            self.emit(Event::CacheHit {
                cluster: cl,
                write: false,
            });
            return;
        }

        // 2. Peer cache on the cluster bus.
        if let Some((supplier, _)) = self.clusters[ci].bus.find_supplier(lp, block) {
            let res = self.clusters[ci].bus.peer_read_supply(lp, supplier, block);
            self.metrics.peer_transfers += 1;
            self.emit(Event::PeerTransfer {
                cluster: cl,
                block,
                write: false,
            });
            if res.dirty_downgrade {
                self.handle_downgrade_writeback(ci, cl, block, remote);
            }
            if let Some(ev) = res.eviction {
                self.handle_cache_eviction(ci, cl, ev);
            }
            return;
        }

        // 3. Network cache (caches remote data only).
        if remote {
            if let Some(hit) = self.clusters[ci].nc.read_lookup(block) {
                self.metrics.nc_read_hits += 1;
                self.per_cluster[ci].nc_hits += 1;
                self.emit(Event::NcHit {
                    cluster: cl,
                    block,
                    write: false,
                    dirty: hit.dirty,
                });
                // A dirty NC copy means this cluster owns the block, so the
                // cache may install it Modified without a directory
                // transaction; a clean one installs the MESIR R state.
                let state = if hit.dirty {
                    CacheState::Modified
                } else {
                    CacheState::RemoteMaster
                };
                if let Some(ev) = self.clusters[ci].bus.fill(lp, block, state) {
                    self.handle_cache_eviction(ci, cl, ev);
                }
                return;
            }

            // 4. Page cache.
            if self.clusters[ci].pc.is_some() {
                let state = self.clusters[ci]
                    .pc
                    .as_mut()
                    .expect("checked")
                    .lookup_block(block);
                if let Some(st) = state {
                    if st.is_valid() {
                        self.metrics.pc_read_hits += 1;
                        self.per_cluster[ci].pc_hits += 1;
                        self.emit(Event::PcHit {
                            cluster: cl,
                            page,
                            block,
                            write: false,
                        });
                        let pc = self.clusters[ci].pc.as_mut().expect("checked");
                        pc.record_hit(page);
                        let fill = match st {
                            PcBlockState::Dirty => {
                                // Ownership moves up to the cache.
                                pc.set_block(block, PcBlockState::Invalid);
                                CacheState::Modified
                            }
                            PcBlockState::Clean => CacheState::RemoteMaster,
                            PcBlockState::Invalid => unreachable!("checked validity"),
                        };
                        if let Some(ev) = self.clusters[ci].bus.fill(lp, block, fill) {
                            self.handle_cache_eviction(ci, cl, ev);
                        }
                        return;
                    }
                    // Page resident, block invalid: fall through to the
                    // home; the fill below revalidates the PC block.
                }
            }
        }

        // 5. Home memory via the directory.
        let grant = self.dir.read(block, cl);
        if let Some(owner) = grant.downgraded_owner {
            self.apply_remote_downgrade(owner, block);
        }
        if remote {
            self.per_cluster[ci].remote_reads += 1;
            if grant.prior_presence {
                self.metrics.remote_read_capacity += 1;
            } else {
                self.metrics.remote_read_necessary += 1;
            }
            self.emit(Event::RemoteRead {
                cluster: cl,
                block,
                capacity: grant.prior_presence,
            });
            if let Some(e) = self.clusters[ci].nc.on_remote_fill(block, false) {
                self.handle_nc_eviction(ci, cl, e);
            }
            if let Some(pc) = self.clusters[ci].pc.as_mut() {
                if pc.has_page(page) {
                    pc.set_block(block, PcBlockState::Clean);
                }
            }
            self.maybe_relocate_directory(ci, cl, page, grant.prior_presence);
            self.maybe_migrep(cl, page);
        } else {
            self.metrics.local_misses += 1;
            self.emit(Event::LocalMiss { cluster: cl, block });
            if grant.exclusive {
                // Local exclusive-clean (E) grants carry silent-write
                // permission; the directory must treat the cluster as owner.
                self.dir.grant_exclusive(block, cl);
            }
        }
        let state = mesir::read_fill_state(remote, grant.exclusive);
        if let Some(ev) = self.clusters[ci].bus.fill(lp, block, state) {
            self.handle_cache_eviction(ci, cl, ev);
        }
    }

    fn process_write(
        &mut self,
        cl: ClusterId,
        lp: LocalProcId,
        block: BlockAddr,
        page: PageAddr,
        remote: bool,
    ) {
        let ci = usize::from(cl.0);
        // Single tag-array scan: probes the writer's cache, refreshes LRU
        // on a hit and applies the silent E -> M transition inline. The
        // extra LRU refresh before an upgrade is invisible to replacement
        // order (the upgrade refreshes again with a later tick).
        let own = self.clusters[ci].bus.write_probe(lp, block);

        match own {
            CacheState::Modified | CacheState::Exclusive => {
                self.metrics.write_hits += 1;
                self.emit(Event::CacheHit {
                    cluster: cl,
                    write: true,
                });
            }
            CacheState::Shared | CacheState::RemoteMaster | CacheState::Owned => {
                // Upgrade: the data is here, only ownership is needed (an
                // `O` holder is already the directory owner).
                if self.dir.is_owner(block, cl) {
                    self.clusters[ci].bus.upgrade(lp, block);
                    self.metrics.local_upgrades += 1;
                    self.emit(Event::LocalUpgrade { cluster: cl, block });
                } else {
                    let grant = self.dir.write(block, cl);
                    // An upgrade is a coherence transaction, never a
                    // capacity miss (the cluster still holds the block).
                    self.count_remote_write(ci, cl, block, remote, false);
                    self.apply_invalidations(grant.invalidate, block);
                    self.clusters[ci].bus.upgrade(lp, block);
                }
                self.after_local_write(ci, cl, block, remote);
            }
            CacheState::Invalid => {
                self.process_write_miss(ci, cl, lp, block, page, remote);
            }
        }
    }

    fn process_write_miss(
        &mut self,
        ci: usize,
        cl: ClusterId,
        lp: LocalProcId,
        block: BlockAddr,
        page: PageAddr,
        remote: bool,
    ) {
        // 1. Peer caches.
        if let Some((_, sstate)) = self.clusters[ci].bus.find_supplier(lp, block) {
            if !(sstate.is_dirty() || self.dir.is_owner(block, cl)) {
                // Peer copies are clean and the cluster does not own the
                // block: acquire ownership first (data stays on the bus).
                let grant = self.dir.write(block, cl);
                if remote {
                    self.metrics.remote_ownership_requests += 1;
                    self.per_cluster[ci].remote_writes += 1;
                    self.emit(Event::OwnershipRequest { cluster: cl, block });
                }
                self.apply_invalidations(grant.invalidate, block);
            }
            let res = self.clusters[ci].bus.peer_write_supply(lp, block);
            self.metrics.peer_transfers += 1;
            self.emit(Event::PeerTransfer {
                cluster: cl,
                block,
                write: true,
            });
            self.after_local_write(ci, cl, block, remote);
            if let Some(ev) = res.eviction {
                self.handle_cache_eviction(ci, cl, ev);
            }
            return;
        }

        // 2. Network cache.
        if remote {
            if let Some(hit) = self.clusters[ci].nc.write_lookup(block) {
                self.metrics.nc_write_hits += 1;
                self.per_cluster[ci].nc_hits += 1;
                self.emit(Event::NcHit {
                    cluster: cl,
                    block,
                    write: true,
                    dirty: hit.dirty,
                });
                if !hit.dirty && !self.dir.is_owner(block, cl) {
                    let grant = self.dir.write(block, cl);
                    self.metrics.remote_ownership_requests += 1;
                    self.per_cluster[ci].remote_writes += 1;
                    self.emit(Event::OwnershipRequest { cluster: cl, block });
                    self.apply_invalidations(grant.invalidate, block);
                }
                if let Some(pc) = self.clusters[ci].pc.as_mut() {
                    pc.invalidate_block(block);
                }
                if let Some(ev) = self.clusters[ci].bus.fill(lp, block, CacheState::Modified) {
                    self.handle_cache_eviction(ci, cl, ev);
                }
                return;
            }

            // 3. Page cache.
            if self.clusters[ci].pc.is_some() {
                let state = self.clusters[ci]
                    .pc
                    .as_mut()
                    .expect("checked")
                    .lookup_block(block);
                if let Some(st) = state {
                    if st.is_valid() {
                        self.metrics.pc_write_hits += 1;
                        self.per_cluster[ci].pc_hits += 1;
                        self.emit(Event::PcHit {
                            cluster: cl,
                            page,
                            block,
                            write: true,
                        });
                        {
                            let pc = self.clusters[ci].pc.as_mut().expect("checked");
                            pc.record_hit(page);
                            pc.set_block(block, PcBlockState::Invalid);
                        }
                        if st == PcBlockState::Clean && !self.dir.is_owner(block, cl) {
                            let grant = self.dir.write(block, cl);
                            self.metrics.remote_ownership_requests += 1;
                            self.per_cluster[ci].remote_writes += 1;
                            self.emit(Event::OwnershipRequest { cluster: cl, block });
                            self.apply_invalidations(grant.invalidate, block);
                        }
                        if let Some(ev) =
                            self.clusters[ci].bus.fill(lp, block, CacheState::Modified)
                        {
                            self.handle_cache_eviction(ci, cl, ev);
                        }
                        return;
                    }
                }
            }
        }

        // 4. Home memory.
        let grant = self.dir.write(block, cl);
        if remote {
            self.count_remote_write(ci, cl, block, true, grant.prior_presence);
            if let Some(e) = self.clusters[ci].nc.on_remote_fill(block, true) {
                self.handle_nc_eviction(ci, cl, e);
            }
            if let Some(pc) = self.clusters[ci].pc.as_mut() {
                if pc.has_page(page) {
                    pc.invalidate_block(block);
                }
            }
            self.maybe_relocate_directory(ci, cl, page, grant.prior_presence);
            self.maybe_migrep(cl, page);
        } else {
            self.metrics.local_misses += 1;
            self.emit(Event::LocalMiss { cluster: cl, block });
        }
        self.apply_invalidations(grant.invalidate, block);
        if let Some(ev) = self.clusters[ci].bus.fill(lp, block, CacheState::Modified) {
            self.handle_cache_eviction(ci, cl, ev);
        }
    }

    fn count_remote_write(
        &mut self,
        ci: usize,
        cl: ClusterId,
        block: BlockAddr,
        remote: bool,
        capacity: bool,
    ) {
        if !remote {
            self.metrics.local_misses += 1;
            self.emit(Event::LocalMiss { cluster: cl, block });
            return;
        }
        self.per_cluster[ci].remote_writes += 1;
        if capacity {
            self.metrics.remote_write_capacity += 1;
        } else {
            self.metrics.remote_write_necessary += 1;
        }
        self.emit(Event::RemoteWrite {
            cluster: cl,
            block,
            capacity,
        });
    }

    /// A local processor now holds `block` in `M`: scrub stale NC/PC
    /// copies.
    ///
    /// For the victim organization (and no NC at all) a write to a
    /// locally-homed block has nothing to scrub: victim captures,
    /// downgrade absorptions, and page relocations are all gated on the
    /// block's home being elsewhere, so neither the victim NC nor the PC
    /// can hold it, and `on_local_write` is a pure remove. Skipping both
    /// tag scans is then exact — and it is the per-reference bookkeeping
    /// the write-upgrade path was paying on every local write. Inclusion
    /// and infinite NCs *allocate* a shadow entry here (occupying a frame
    /// behind the cache's `M`), so their call must always go through —
    /// as must every call under OS migration, where homes move: a block
    /// captured while remote can become locally homed later, so
    /// "locally homed" no longer implies "not in the NC".
    fn after_local_write(&mut self, ci: usize, cl: ClusterId, block: BlockAddr, remote: bool) {
        if !remote
            && self.migrep.is_none()
            && matches!(self.clusters[ci].nc, NcUnit::None | NcUnit::Victim(_))
        {
            debug_assert!(
                !self.clusters[ci].nc.contains(block),
                "under static homes a victim NC never holds locally-homed blocks"
            );
            return;
        }
        if let Some(e) = self.clusters[ci].nc.on_local_write(block) {
            self.handle_nc_eviction(ci, cl, e);
        }
        if let Some(pc) = self.clusters[ci].pc.as_mut() {
            pc.invalidate_block(block);
        }
    }

    /// Directory-ordered invalidations at other clusters, delivered in
    /// ascending cluster order straight from the presence mask.
    fn apply_invalidations(&mut self, targets: ClusterSet, block: BlockAddr) {
        let decrement = self
            .spec
            .pc
            .as_ref()
            .is_some_and(|p| p.decrement_on_invalidation);
        for t in targets {
            let ti = usize::from(t.0);
            let inv = self.clusters[ti].bus.invalidate_all(block);
            self.metrics.invalidations += inv.copies_invalidated as u64;
            let had_nc_copy = self.clusters[ti].nc.invalidate(block);
            if had_nc_copy {
                self.metrics.invalidations += 1;
            }
            let mut had_pc_copy = false;
            if let Some(pc) = self.clusters[ti].pc.as_mut() {
                if pc.invalidate_block(block).is_valid() {
                    self.metrics.invalidations += 1;
                    had_pc_copy = true;
                }
            }
            if inv.copies_invalidated > 0 || had_nc_copy || had_pc_copy {
                self.emit(Event::Invalidation {
                    cluster: t,
                    block,
                    copies: u32::try_from(inv.copies_invalidated).unwrap_or(u32::MAX),
                });
            }
            // The paper's optional vxp refinement: a late invalidation with
            // no copy anywhere in the node means the earlier victimization
            // will be followed by a coherence miss, so correct the count.
            if decrement && inv.copies_invalidated == 0 && !had_nc_copy {
                if let Some(set) = self.clusters[ti].nc.set_of(block) {
                    if let Some(vxp) = self.clusters[ti].vxp.as_mut() {
                        vxp.record_late_invalidation(set);
                    }
                }
            }
        }
    }

    /// Directory-ordered downgrade of a dirty owner (a remote read found
    /// the block dirty at `owner`): the dirty copy becomes clean-shared,
    /// the home having been updated as part of the three-hop transaction.
    fn apply_remote_downgrade(&mut self, owner: ClusterId, block: BlockAddr) {
        let oi = usize::from(owner.0);
        let _had_dirty_cache = self.clusters[oi].bus.downgrade_to_shared(block);
        self.clusters[oi].nc.on_external_downgrade(block);
        if let Some(pc) = self.clusters[oi].pc.as_mut() {
            if pc.block_state(block) == Some(PcBlockState::Dirty) {
                pc.set_block(block, PcBlockState::Clean);
            }
        }
    }

    /// A dirty downgrade write-back (peer read of an `M` block) is on this
    /// cluster's bus.
    fn handle_downgrade_writeback(
        &mut self,
        ci: usize,
        cl: ClusterId,
        block: BlockAddr,
        remote: bool,
    ) {
        if !remote {
            // Local memory absorbs it at bus speed.
            self.dir.writeback(block, cl);
            return;
        }
        if self.clusters[ci].nc.on_downgrade_writeback(block) {
            self.metrics.absorbed_downgrades += 1;
            self.emit(Event::AbsorbedDowngrade { cluster: cl, block });
            return;
        }
        // No NC: try the page cache, else update the remote home.
        if let Some(pc) = self.clusters[ci].pc.as_mut() {
            let page = self.geo.page_of_block(block);
            if pc.has_page(page) {
                pc.set_block(block, PcBlockState::Dirty);
                self.metrics.absorbed_downgrades += 1;
                self.emit(Event::AbsorbedDowngrade { cluster: cl, block });
                return;
            }
        }
        self.metrics.remote_writebacks += 1;
        self.emit(Event::RemoteWriteback { cluster: cl, block });
        self.dir.writeback(block, cl);
    }

    /// A block victimized from a processor cache.
    fn handle_cache_eviction(&mut self, ci: usize, cl: ClusterId, ev: Eviction) {
        match ev.state {
            CacheState::Modified | CacheState::Owned => {
                let home = self.home.home_of_block(ev.block, cl);
                if home == cl {
                    // Local write-back: home memory updated at bus speed.
                    self.dir.writeback(ev.block, cl);
                    return;
                }
                let out = self.clusters[ci].nc.on_victim(ev.block, true);
                if out.accepted {
                    self.metrics.nc_captures += 1;
                    self.emit(Event::NcCapture {
                        cluster: cl,
                        block: ev.block,
                        dirty: true,
                        set: out.set,
                    });
                    self.record_vxp_victimization(ci, cl, out.set);
                    if let Some(e) = out.eviction {
                        self.handle_nc_eviction(ci, cl, e);
                    }
                } else {
                    self.writeback_toward_home(ci, cl, ev.block);
                }
            }
            CacheState::RemoteMaster => {
                // MESIR replacement transaction: hand mastership to a
                // sharer, else offer the last clean copy to the victim NC.
                if self.clusters[ci].bus.promote_sharer(ev.block) {
                    return;
                }
                let out = self.clusters[ci].nc.on_victim(ev.block, false);
                if out.accepted {
                    self.metrics.nc_captures += 1;
                    self.emit(Event::NcCapture {
                        cluster: cl,
                        block: ev.block,
                        dirty: false,
                        set: out.set,
                    });
                    self.record_vxp_victimization(ci, cl, out.set);
                    if let Some(e) = out.eviction {
                        self.handle_nc_eviction(ci, cl, e);
                    }
                }
                // Not accepted: the clean copy is dropped. If the page
                // cache holds the page, its clean copy remains the
                // cluster's backstop automatically.
            }
            // Clean local (E) and non-master (S) victims die silently
            // under MESI/MESIR.
            _ => {}
        }
    }

    /// A block leaving the network cache.
    fn handle_nc_eviction(&mut self, ci: usize, cl: ClusterId, e: NcEviction) {
        if e.force_cache_eviction {
            let inv = self.clusters[ci].bus.invalidate_all(e.block);
            self.metrics.forced_evictions += inv.copies_invalidated as u64;
            if inv.copies_invalidated > 0 {
                self.emit(Event::ForcedEviction {
                    cluster: cl,
                    block: e.block,
                });
            }
        }
        if e.dirty {
            self.writeback_toward_home(ci, cl, e.block);
        } else if let Some(pc) = self.clusters[ci].pc.as_mut() {
            // A clean block leaving the cluster can seed the page cache if
            // its slot is currently invalid.
            if pc.block_state(e.block) == Some(PcBlockState::Invalid)
                && self.dir.owner_of(e.block).is_none_or(|o| o == cl)
            {
                pc.set_block(e.block, PcBlockState::Clean);
            }
        }
    }

    /// Routes a dirty block leaving the cache/NC level: into the page
    /// cache when the page is resident, else across the network to the
    /// home.
    fn writeback_toward_home(&mut self, ci: usize, cl: ClusterId, block: BlockAddr) {
        if let Some(pc) = self.clusters[ci].pc.as_mut() {
            let page = self.geo.page_of_block(block);
            if pc.has_page(page) {
                pc.set_block(block, PcBlockState::Dirty);
                return;
            }
        }
        self.metrics.remote_writebacks += 1;
        self.emit(Event::RemoteWriteback { cluster: cl, block });
        self.dir.writeback(block, cl);
    }

    /// A victimization landed in victim-NC set `set`: drive the `vxp`
    /// relocation counters.
    fn record_vxp_victimization(&mut self, ci: usize, cl: ClusterId, set: Option<usize>) {
        if self.clusters[ci].vxp.is_none() {
            return;
        }
        let Some(set) = set else { return };
        let threshold = self.clusters[ci].threshold.threshold();
        let vxp = self.clusters[ci].vxp.as_mut().expect("checked");
        if vxp.record_victimization(set) < threshold {
            return;
        }
        vxp.reset(set);
        let Some(page) = self.clusters[ci].nc.predominant_page(set) else {
            return;
        };
        // Only remote pages not already resident are candidates.
        let Some(home) = self.home.placement().peek_home(page) else {
            return;
        };
        if home == cl {
            return;
        }
        if self.clusters[ci]
            .pc
            .as_ref()
            .is_some_and(|pc| pc.has_page(page))
        {
            return;
        }
        self.relocate_page(ci, cl, page);
    }

    /// Origin-style OS policy: after enough remote misses from `cl` to
    /// `page`, replicate (read-only pages) or migrate (written pages).
    fn maybe_migrep(&mut self, cl: ClusterId, page: PageAddr) {
        #[derive(PartialEq)]
        enum Action {
            None,
            Migrate,
            Replicate,
        }
        let action = {
            let Some(mr) = self.migrep.as_mut() else {
                return;
            };
            let count = mr.counters.increment(page, cl);
            if count < mr.spec.threshold {
                Action::None
            } else {
                mr.counters.reset(page, cl);
                let read_only = !mr.written_pages.contains_key(page.0);
                if read_only && mr.spec.replication {
                    mr.replicas.entry_or_default(page.0).insert(cl);
                    Action::Replicate
                } else if mr.spec.migration {
                    Action::Migrate
                } else {
                    Action::None
                }
            }
        };
        match action {
            Action::Migrate => {
                self.home.preassign(page, cl);
                self.metrics.migrations += 1;
                self.emit(Event::Migration { cluster: cl, page });
            }
            Action::Replicate => {
                self.metrics.replications += 1;
                self.emit(Event::Replication { cluster: cl, page });
            }
            Action::None => {}
        }
    }

    /// R-NUMA-style relocation accounting at the directory.
    fn maybe_relocate_directory(
        &mut self,
        ci: usize,
        cl: ClusterId,
        page: PageAddr,
        capacity_miss: bool,
    ) {
        if !capacity_miss {
            return;
        }
        let Some(pc_spec) = &self.spec.pc else { return };
        if pc_spec.counters != CounterSource::Directory {
            return;
        }
        if self.clusters[ci]
            .pc
            .as_ref()
            .is_some_and(|pc| pc.has_page(page))
        {
            return;
        }
        let count = self.rnuma.increment(page, cl);
        if count >= self.clusters[ci].threshold.threshold() {
            self.rnuma.reset(page, cl);
            self.relocate_page(ci, cl, page);
        }
    }

    /// Relocates `page` into cluster `cl`'s page cache.
    fn relocate_page(&mut self, ci: usize, cl: ClusterId, page: PageAddr) {
        self.metrics.relocations += 1;
        self.per_cluster[ci].relocations += 1;
        self.emit(Event::Relocation { cluster: cl, page });
        let first = self.geo.first_block_of_page(page);
        let n = self.geo.blocks_per_page();
        // Blocks dirty anywhere (including in this cluster's own caches)
        // start Invalid; the rest arrive as clean copies of home memory.
        let states: Vec<PcBlockState> = (0..n)
            .map(|i| {
                let b = BlockAddr(first.0 + i);
                if self.dir.owner_of(b).is_some() {
                    PcBlockState::Invalid
                } else {
                    PcBlockState::Clean
                }
            })
            .collect();
        let evicted = self.clusters[ci]
            .pc
            .as_mut()
            .expect("relocation requires a page cache")
            .insert_page(page, |i| states[usize::try_from(i).expect("page index")]);
        if let Some(ev) = evicted {
            self.handle_pc_page_eviction(ci, cl, ev);
        }
    }

    /// A page lost its page-cache frame: thrashing bookkeeping, dirty
    /// write-backs, and the paper's re-mapping evictions (the cluster must
    /// drop every copy of the evicted page's blocks).
    fn handle_pc_page_eviction(
        &mut self,
        ci: usize,
        cl: ClusterId,
        ev: crate::page_cache::EvictedPage,
    ) {
        self.emit(Event::PageEviction {
            cluster: cl,
            page: ev.page,
            dirty_blocks: u32::try_from(ev.dirty_blocks.len()).unwrap_or(u32::MAX),
            hits: ev.hits,
        });
        if self.clusters[ci].threshold.on_frame_reuse(ev.hits) {
            self.clusters[ci]
                .pc
                .as_mut()
                .expect("page cache present")
                .reset_hit_counters();
            let threshold = self.clusters[ci].threshold.threshold();
            self.emit(Event::ThresholdAdapted {
                cluster: cl,
                threshold,
            });
        }
        self.rnuma.reset(ev.page, cl);
        for &b in &ev.dirty_blocks {
            self.metrics.remote_writebacks += 1;
            self.emit(Event::RemoteWriteback {
                cluster: cl,
                block: b,
            });
            self.dir.writeback(b, cl);
        }
        let first = self.geo.first_block_of_page(ev.page);
        for i in 0..self.geo.blocks_per_page() {
            let b = BlockAddr(first.0 + i);
            let inv = self.clusters[ci].bus.invalidate_all(b);
            if inv.copies_invalidated > 0 {
                self.metrics.forced_evictions += inv.copies_invalidated as u64;
                self.emit(Event::ForcedEviction {
                    cluster: cl,
                    block: b,
                });
                if inv.had_dirty {
                    self.metrics.remote_writebacks += 1;
                    self.emit(Event::RemoteWriteback {
                        cluster: cl,
                        block: b,
                    });
                    self.dir.writeback(b, cl);
                }
            }
            if let Some(hit) = self.clusters[ci].nc.purge(b) {
                self.metrics.forced_evictions += 1;
                self.emit(Event::ForcedEviction {
                    cluster: cl,
                    block: b,
                });
                if hit.dirty {
                    self.metrics.remote_writebacks += 1;
                    self.emit(Event::RemoteWriteback {
                        cluster: cl,
                        block: b,
                    });
                    self.dir.writeback(b, cl);
                }
            }
        }
    }
}

// Thread-safety audit for the parallel sweep engine: a `System` owns no
// shared-mutable or thread-affine state, so `System<P>` is `Send`/`Sync`
// exactly when its probe is, and specs/reports move freely between
// workers. Compile-time assertions so a future field (e.g. an `Rc` or a
// raw pointer) cannot silently make sweeps unbuildable.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<System>();
    assert_sync::<System>();
    assert_send::<System<crate::obs::StatsSink>>();
    assert_send::<SystemSpec>();
    assert_sync::<SystemSpec>();
    assert_send::<Metrics>();
    assert_sync::<Metrics>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PcSize;
    use dsm_types::{Addr, ProcId};

    fn sys(spec: SystemSpec) -> System {
        System::new(
            spec,
            Topology::paper_default(),
            Geometry::paper_default(),
            8 * 1024 * 1024,
        )
        .unwrap()
    }

    fn read(p: u16, a: u64) -> MemRef {
        MemRef::read(ProcId(p), Addr(a))
    }

    fn write(p: u16, a: u64) -> MemRef {
        MemRef::write(ProcId(p), Addr(a))
    }

    #[test]
    fn first_touch_makes_data_local() {
        let mut s = sys(SystemSpec::base());
        s.process(read(0, 0x1000));
        let m = s.metrics();
        assert_eq!(m.shared_refs, 1);
        assert_eq!(m.local_misses, 1);
        assert_eq!(m.remote_read_misses(), 0);
    }

    #[test]
    fn remote_read_after_foreign_first_touch() {
        let mut s = sys(SystemSpec::base());
        s.process(read(0, 0x1000)); // cluster 0 homes the page
        s.process(read(4, 0x1000)); // processor 4 = cluster 1: remote
        let m = s.metrics();
        assert_eq!(m.remote_read_necessary, 1);
        assert_eq!(m.remote_read_capacity, 0);
    }

    #[test]
    fn repeated_access_hits_cache() {
        let mut s = sys(SystemSpec::base());
        s.process(read(0, 0x1000));
        s.process(read(0, 0x1000));
        s.process(read(0, 0x1008)); // same block
        assert_eq!(s.metrics().read_hits, 2);
    }

    #[test]
    fn peer_supplies_within_cluster() {
        let mut s = sys(SystemSpec::base());
        s.process(read(4, 0x1000)); // P4 (cluster 1) fetches remote? No: first touch -> local
        s.process(read(5, 0x1000)); // P5 same cluster: peer transfer
        let m = s.metrics();
        assert_eq!(m.peer_transfers, 1);
    }

    #[test]
    fn write_then_remote_read_downgrades() {
        let mut s = sys(SystemSpec::base());
        s.process(write(0, 0x1000)); // cluster 0 owns dirty
        s.process(read(4, 0x1000)); // cluster 1 reads: 3-hop downgrade
        let m = s.metrics();
        assert_eq!(m.remote_read_necessary, 1);
        // Cluster 0's copy is now clean-shared: a write by cluster 0 needs
        // a directory transaction that invalidates cluster 1's copy.
        s.process(write(0, 0x1000));
        assert!(s.metrics().invalidations >= 1, "{:?}", s.metrics());
    }

    #[test]
    fn remote_write_invalidates_sharers() {
        let mut s = sys(SystemSpec::base());
        s.process(read(0, 0x1000));
        s.process(read(4, 0x1000));
        s.process(write(8, 0x1000)); // cluster 2 writes: invalidate clusters 0, 1
        let m = s.metrics();
        assert!(m.invalidations >= 2, "invalidations = {}", m.invalidations);
        // Cluster 1 re-read is a necessary (coherence) miss.
        s.process(read(4, 0x1000));
        assert_eq!(s.metrics().remote_read_necessary, 2);
    }

    #[test]
    fn victim_nc_captures_and_serves() {
        let mut s = sys(SystemSpec::vb());
        // Cluster 1 (P4) reads a block homed at cluster 0.
        s.process(read(0, 0x1000));
        s.process(read(4, 0x1000));
        assert_eq!(s.metrics().remote_read_necessary, 1);
        // Blocks 0x1000 and conflicting addresses: the paper cache is
        // 16 KB 2-way = 128 sets x 64 B; conflict stride = 8 KB... evict
        // P4's copy by filling its set with two more blocks mapping to the
        // same set, all homed at cluster 0 first.
        s.process(read(0, 0x1000 + 8 * 1024));
        s.process(read(0, 0x1000 + 16 * 1024));
        s.process(read(4, 0x1000 + 8 * 1024));
        s.process(read(4, 0x1000 + 16 * 1024)); // evicts 0x1000 (R) -> victim NC
        let before = s.metrics().remote_read_misses();
        s.process(read(4, 0x1000)); // NC hit, not a remote miss
        let m = s.metrics();
        assert_eq!(m.nc_read_hits, 1);
        assert_eq!(m.remote_read_misses(), before);
        assert!(m.nc_captures >= 1);
    }

    #[test]
    fn base_system_pays_remote_capacity_miss() {
        let mut s = sys(SystemSpec::base());
        s.process(read(0, 0x1000));
        s.process(read(4, 0x1000));
        s.process(read(0, 0x1000 + 8 * 1024));
        s.process(read(0, 0x1000 + 16 * 1024));
        s.process(read(4, 0x1000 + 8 * 1024));
        s.process(read(4, 0x1000 + 16 * 1024));
        s.process(read(4, 0x1000)); // conflict-evicted: full remote miss
        let m = s.metrics();
        assert_eq!(m.remote_read_capacity, 1, "{m:?}");
    }

    #[test]
    fn infinite_nc_reduces_to_necessary_misses() {
        let mut s = sys(SystemSpec::ncs());
        for round in 0..3 {
            for blk in 0..100u64 {
                s.process(read(0, blk * 64)); // homes everything at cluster 0
                s.process(read(4, blk * 64));
                let _ = round;
            }
        }
        let m = s.metrics();
        // First round: 100 necessary misses at cluster 1; afterwards the
        // infinite NC (or caches) serve everything.
        assert_eq!(m.remote_read_necessary, 100);
        assert_eq!(m.remote_read_capacity, 0);
    }

    #[test]
    fn page_cache_relocation_fires_at_threshold() {
        use crate::config::{CounterSource, PcSpec, ThresholdPolicy};
        // A page cache without an NC, so conflict misses reach the
        // directory counters directly.
        let spec = SystemSpec {
            name: "pc-only".into(),
            cache: crate::config::CacheSpec::default(),
            nc: crate::config::NcSpec::None,
            pc: Some(PcSpec {
                size: PcSize::Bytes(64 * 4096),
                counters: CounterSource::Directory,
                threshold: ThresholdPolicy::Fixed(4),
                decrement_on_invalidation: false,
            }),
            dirty_shared: false,
            migrep: None,
            directory: crate::config::DirectorySpec::FullMap,
        };
        let mut s = sys(spec);
        // Cluster 0 homes page 0 (blocks 0..64).
        for b in 0..64u64 {
            s.process(read(0, b * 64));
        }
        // Cluster 1 (P4) conflict-thrashes block 0 against two blocks that
        // share its 2-way cache set (8-KB stride) but are local to it;
        // every re-read of block 0 is a remote capacity miss.
        for _ in 0..8 {
            s.process(read(4, 0));
            s.process(read(4, 8 * 1024));
            s.process(read(4, 16 * 1024));
        }
        let m = s.metrics();
        assert!(m.remote_read_capacity >= 4, "{m:?}");
        assert_eq!(m.relocations, 1, "{m:?}");
        // After relocation, further re-reads hit the page cache.
        assert!(m.pc_read_hits > 0, "{m:?}");
    }

    #[test]
    fn stall_uses_system_latency() {
        let mut ncd = sys(SystemSpec::ncd());
        ncd.process(read(0, 0));
        ncd.process(read(4, 0));
        // One necessary remote miss at 33 cycles (DRAM NC tag check).
        assert_eq!(ncd.metrics().remote_read_stall(ncd.model()), 33);

        let mut base = sys(SystemSpec::base());
        base.process(read(0, 0));
        base.process(read(4, 0));
        assert_eq!(base.metrics().remote_read_stall(base.model()), 30);
    }

    #[test]
    fn dirty_shared_o_state_avoids_downgrade_writeback() {
        // MESIR: a peer read of an M block puts a write-back on the bus
        // that the victim NC must absorb (pollution).
        let mut mesir = sys(SystemSpec::vb());
        mesir.process(read(0, 0x1000)); // homed at cluster 0
        mesir.process(write(4, 0x1000)); // cluster 1 dirty
        mesir.process(read(5, 0x1000)); // peer read: M -> S + write-back
        assert_eq!(mesir.metrics().absorbed_downgrades, 1);
        let block = BlockAddr(0x1000 / 64);
        assert!(
            mesir.cluster(ClusterId(1)).nc.contains(block),
            "pollution copy"
        );

        // MOESI-R: the supplier keeps the dirty data in state O; nothing
        // reaches the NC or the network.
        let mut moesi = sys(SystemSpec::vb().with_dirty_shared());
        moesi.process(read(0, 0x1000));
        moesi.process(write(4, 0x1000));
        moesi.process(read(5, 0x1000));
        assert_eq!(moesi.metrics().absorbed_downgrades, 0);
        assert_eq!(moesi.metrics().remote_writebacks, 0);
        assert!(!moesi.cluster(ClusterId(1)).nc.contains(block));
        assert_eq!(
            moesi
                .cluster(ClusterId(1))
                .bus
                .state_of(LocalProcId(0), block),
            CacheState::Owned
        );
    }

    #[test]
    fn owned_victim_is_captured_like_modified() {
        let mut s = sys(SystemSpec::vb().with_dirty_shared());
        s.process(read(0, 0x1000));
        s.process(write(4, 0x1000)); // M at P4
        s.process(read(5, 0x1000)); // P4 -> O, P5 -> S
                                    // Conflict-evict P4's O copy (8-KB aliases, locally homed).
        s.process(write(4, 0x1000 + 8 * 1024));
        s.process(write(4, 0x1000 + 16 * 1024));
        let block = BlockAddr(0x1000 / 64);
        assert!(
            s.cluster(ClusterId(1)).nc.contains(block),
            "the dirty O victim must land in the victim NC"
        );
        assert_eq!(s.metrics().remote_writebacks, 0);
    }

    #[test]
    fn vxp_invalidation_decrement_corrects_counters() {
        let spec = SystemSpec::vxp(PcSize::Bytes(64 * 4096), 1000).with_invalidation_decrement();
        let mut s = sys(spec);
        // Cluster 0 homes page 1; cluster 1 victimizes block 0x1000 into
        // its NC (capture), then loses even the NC copy to set overflow.
        s.process(read(0, 0x1000));
        s.process(read(4, 0x1000));
        // Evict from P4's cache into the NC: 8-KB cache aliases...
        s.process(read(0, 0x1000 + 8 * 1024));
        s.process(read(0, 0x1000 + 16 * 1024));
        s.process(read(4, 0x1000 + 8 * 1024));
        s.process(read(4, 0x1000 + 16 * 1024));
        let block = BlockAddr(0x1000 / 64);
        let set = s.cluster(ClusterId(1)).nc.set_of(block).unwrap();
        let count_after_victim = s.cluster(ClusterId(1)).vxp.as_ref().unwrap().count(set);
        assert!(count_after_victim >= 1);
        // Push the block out of the NC too: page-indexed, 4 ways per set,
        // so four more victims of the same page overflow it. Fill P4's
        // cache sets with other blocks of page 1 and evict them.
        for i in 1..=4u64 {
            let a = 0x1000 + i * 64;
            s.process(read(0, a));
            s.process(read(4, a));
            s.process(read(4, a + 8 * 1024));
            s.process(read(4, a + 16 * 1024));
        }
        assert!(!s.cluster(ClusterId(1)).nc.contains(block));
        let before = s.cluster(ClusterId(1)).vxp.as_ref().unwrap().count(set);
        // A remote write now invalidates: no copy in cluster 1 -> decrement.
        s.process(write(8, 0x1000));
        let after = s.cluster(ClusterId(1)).vxp.as_ref().unwrap().count(set);
        assert_eq!(after, before - 1, "late invalidation must decrement");
    }

    #[test]
    fn rnuma_counters_require_full_map_directory() {
        // The paper's scalability critique, enforced: R-NUMA's directory
        // counters cannot exist without full-map presence information.
        let spec = SystemSpec::ncp(PcSize::Bytes(512 * 1024)).with_limited_directory(4);
        assert!(System::new(
            spec,
            Topology::paper_default(),
            Geometry::paper_default(),
            0
        )
        .is_err());
    }

    #[test]
    fn vxp_works_under_a_limited_pointer_directory() {
        // ... while vxp's victim-set counters do not care.
        let spec = SystemSpec::vxp(PcSize::Bytes(64 * 4096), 4).with_limited_directory(4);
        let mut s = sys(spec);
        s.process(read(0, 0x1000));
        for round in 0..30u64 {
            let a = 0x1000 + (round % 4) * 64;
            s.process(read(4, a));
            s.process(read(4, a + 8 * 1024));
            s.process(read(4, a + 16 * 1024));
        }
        let m = s.metrics();
        assert!(m.relocations >= 1, "{m:?}");
        let page = s.geometry().page_of(Addr(0x1000));
        assert!(
            s.cluster(ClusterId(1)).pc.as_ref().unwrap().has_page(page),
            "{m:?}"
        );
    }

    #[test]
    fn limited_directory_broadcast_still_coherent() {
        // Overflow the 2-pointer directory with 4 sharing clusters, then
        // write: every stale copy must still be invalidated (by broadcast).
        let spec = SystemSpec::base().with_limited_directory(2);
        let mut s = sys(spec);
        for p in [0u16, 4, 8, 12] {
            s.process(read(p, 0x2000));
        }
        s.process(write(16, 0x2000)); // cluster 4 writes
        let block = BlockAddr(0x2000 / 64);
        for c in 0..4u16 {
            assert!(
                !s.cluster(ClusterId(c)).bus.any_valid(block),
                "cluster {c} kept a stale copy past a broadcast invalidation"
            );
        }
    }

    #[test]
    fn origin_replicates_read_only_pages() {
        let mut spec = SystemSpec::origin();
        spec.migrep.as_mut().unwrap().threshold = 3;
        let mut s = sys(spec);
        s.process(read(0, 0x1000)); // homed at cluster 0
                                    // Cluster 1 suffers repeated conflict misses to the read-only page.
        for _ in 0..4 {
            s.process(read(4, 0x1000));
            s.process(read(4, 0x1000 + 8 * 1024));
            s.process(read(4, 0x1000 + 16 * 1024));
        }
        let m = s.metrics();
        assert_eq!(m.replications, 1, "{m:?}");
        assert_eq!(m.migrations, 0);
        // After replication, cluster 1's misses to the page are local.
        let local_before = s.metrics().local_misses;
        s.process(read(4, 0x1000 + 8 * 1024)); // keep thrashing
        s.process(read(4, 0x1000 + 16 * 1024));
        s.process(read(4, 0x1000));
        assert!(s.metrics().local_misses > local_before, "{:?}", s.metrics());
    }

    #[test]
    fn origin_migrates_written_pages() {
        let mut spec = SystemSpec::origin();
        spec.migrep.as_mut().unwrap().threshold = 3;
        let mut s = sys(spec);
        s.process(read(0, 0x1000)); // homed at cluster 0
        s.process(write(4, 0x1000)); // page is written: not replicable
        for _ in 0..4 {
            s.process(read(4, 0x1000));
            s.process(read(4, 0x1000 + 8 * 1024));
            s.process(read(4, 0x1000 + 16 * 1024));
        }
        let m = s.metrics();
        assert_eq!(m.migrations, 1, "{m:?}");
        assert_eq!(m.replications, 0);
        // The page now lives at cluster 1: further misses are local.
        let remote_before = s.metrics().remote_read_misses();
        s.process(read(4, 0x1000 + 8 * 1024));
        s.process(read(4, 0x1000 + 16 * 1024));
        s.process(read(4, 0x1000));
        assert_eq!(s.metrics().remote_read_misses(), remote_before);
    }

    #[test]
    fn write_collapses_replicas() {
        let mut spec = SystemSpec::origin();
        spec.migrep.as_mut().unwrap().threshold = 2;
        let mut s = sys(spec);
        s.process(read(0, 0x1000));
        for _ in 0..3 {
            s.process(read(4, 0x1000));
            s.process(read(4, 0x1000 + 8 * 1024));
            s.process(read(4, 0x1000 + 16 * 1024));
        }
        assert_eq!(s.metrics().replications, 1);
        s.process(write(8, 0x1000)); // cluster 2 writes the replicated page
        assert_eq!(s.metrics().replica_collapses, 1);
        // Cluster 1's next miss to it is remote again (coherence miss).
        let remote_before = s.metrics().remote_read_misses();
        s.process(read(4, 0x1000));
        assert_eq!(s.metrics().remote_read_misses(), remote_before + 1);
    }

    #[test]
    fn writeback_traffic_counted_without_nc() {
        let mut s = sys(SystemSpec::base());
        // Cluster 1 writes a remote block, then conflict-evicts it.
        s.process(read(0, 0x1000));
        s.process(write(4, 0x1000));
        s.process(write(4, 0x1000 + 8 * 1024));
        s.process(write(4, 0x1000 + 16 * 1024)); // evicts dirty 0x1000
        let m = s.metrics();
        assert!(m.remote_writebacks >= 1, "{m:?}");
    }

    #[test]
    fn victim_nc_absorbs_writeback_traffic() {
        let mut s = sys(SystemSpec::vb());
        s.process(read(0, 0x1000));
        s.process(write(4, 0x1000));
        s.process(write(4, 0x1000 + 8 * 1024));
        s.process(write(4, 0x1000 + 16 * 1024));
        let m = s.metrics();
        assert_eq!(m.remote_writebacks, 0, "{m:?}");
        assert!(m.nc_captures >= 1);
    }
}
