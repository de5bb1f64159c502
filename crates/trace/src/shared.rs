//! The columnar (struct-of-arrays) replay buffer: one trace, shared by
//! every system configuration of a sweep.
//!
//! The paper's methodology replays the *same* trace against every
//! configuration (§4), which makes the trace read-mostly and shared —
//! exactly the shape where a columnar layout with precomputed columns
//! pays off. [`SharedTrace`] splits the padded array-of-structs
//! `Vec<MemRef>` (16 bytes per reference after alignment) into parallel
//! columns and, at construction, precomputes everything `System::process`
//! used to derive per reference per replay:
//!
//! * `issuing_cluster` / the packed local processor —
//!   [`Topology::split_of`];
//! * `home_cluster` — the page's home under pure first-touch placement
//!   (the issuing cluster of the trace's first reference to the page),
//!   plus a *first-touch* flag on that reference. This removes the
//!   per-reference page-table hash lookup from replay entirely; a system
//!   running OS page-migration policies ignores the column and falls
//!   back to its live placement map.
//!
//! Block and page numbers are *not* materialized: they are single shifts
//! off the address column (`addr >> shift`), which the decode loop
//! performs on a register-resident window — cheaper than streaming two
//! extra 8-byte columns through the cache.
//!
//! Replay consumes the columns in batches of [`BATCH`] decoded
//! references ([`SharedTrace::decode_batch`]). Each batch decodes
//! *column-at-a-time* over contiguous slices with no per-lane branches
//! (the wide-processor fallback is hoisted out of the lane loop), so
//! the loop is autovectorizer-friendly; 11 bytes per reference stream
//! through the hot loop (addr 8 + packed proc/op 1 + two cluster bytes).
//!
//! The address column itself lives behind [`AddrColumn`]: either an
//! owned `Vec<u64>` (traces built in memory) or a borrowed window of a
//! memory-mapped v2 trace file ([`crate::mmap::Mapping`]), in which case
//! loading is zero-copy — the file's address column *is* the replay
//! column, multi-gigabyte traces start instantly, and every sweep worker
//! shares the same physical pages read-only.

use std::sync::Arc;

use dsm_types::{
    Addr, BlockAddr, ClusterId, ConfigError, DecodedRef, DenseMap, Geometry, LocalProcId, MemOp,
    MemRef, PageAddr, ProcId, Topology,
};

use crate::mmap::Mapping;

/// Number of references decoded per [`SharedTrace::decode_batch`] call —
/// a small power of two so the decode loop unrolls and the batch buffer
/// lives on the stack.
pub const BATCH: usize = 16;

/// Bit 6 of the packed `proc_op` column: the reference is a write.
const OP_BIT: u8 = 1 << 6;
/// Bit 7 of the packed `proc_op` column: first reference to its page.
const FIRST_TOUCH_BIT: u8 = 1 << 7;
/// Bits 0..6 of the packed `proc_op` column: the global processor id
/// (machines up to 64 processors; wider machines use the side column).
const PROC_MASK: u8 = OP_BIT - 1;

/// Reads the little-endian `u64` at `off` — the unaligned load the
/// mapped address column needs (the v2 addr column starts at byte
/// `34 + 2n + ceil(n/8)`, which is not 8-aligned).
#[inline(always)]
fn u64_le_at(bytes: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[off..off + 8]);
    u64::from_le_bytes(b)
}

/// The storage behind [`SharedTrace`]'s address column: owned for traces
/// built in memory, a borrowed window of a file mapping for traces
/// opened with [`crate::codec::open_shared_mapped`].
#[derive(Debug, Clone)]
pub(crate) enum AddrColumn {
    /// Trace built in memory (generated, or parsed from a reader).
    Owned(Vec<u64>),
    /// Zero-copy window into a mapped v2 trace file: `count` addresses
    /// starting at byte `offset` (little-endian, unaligned).
    Mapped {
        map: Arc<Mapping>,
        offset: usize,
        count: usize,
    },
}

impl AddrColumn {
    #[inline]
    fn len(&self) -> usize {
        match self {
            AddrColumn::Owned(v) => v.len(),
            AddrColumn::Mapped { count, .. } => *count,
        }
    }

    /// The address at `i`. Panics if out of range.
    #[inline(always)]
    fn at(&self, i: usize) -> u64 {
        match self {
            AddrColumn::Owned(v) => v[i],
            AddrColumn::Mapped { map, offset, count } => {
                assert!(i < *count, "address index {i} out of range");
                u64_le_at(map.bytes(), offset + i * 8)
            }
        }
    }

    /// Copies addresses `[start, start + out.len())` into `out` — the
    /// per-batch window load, one contiguous `memcpy`-shaped loop in
    /// either storage mode.
    #[inline(always)]
    fn fill(&self, start: usize, out: &mut [u64]) {
        match self {
            AddrColumn::Owned(v) => out.copy_from_slice(&v[start..start + out.len()]),
            AddrColumn::Mapped { map, offset, count } => {
                assert!(start + out.len() <= *count, "address window out of range");
                let base = offset + start * 8;
                let bytes = &map.bytes()[base..base + out.len() * 8];
                for (slot, ch) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(ch);
                    *slot = u64::from_le_bytes(b);
                }
            }
        }
    }

    /// Heap bytes this column holds — 0 when mapped (the bytes are
    /// file-backed pages shared with every other reader of the file).
    fn heap_bytes(&self) -> usize {
        match self {
            AddrColumn::Owned(v) => v.len() * 8,
            AddrColumn::Mapped { .. } => 0,
        }
    }
}

/// The derived (non-address) columns, shared between the in-memory
/// builder and the mapped-file parser in [`crate::codec`].
pub(crate) struct DerivedColumns {
    pub(crate) proc_op: Vec<u8>,
    pub(crate) wide_proc: Vec<u16>,
    pub(crate) home_cluster: Vec<u8>,
    pub(crate) issuing_cluster: Vec<u8>,
}

/// Why [`derive_columns`] rejected a reference stream. Callers format
/// their own messages (the codec reports record indices, the in-memory
/// builder reports the offending reference).
pub(crate) enum DeriveError {
    /// The topology has more than 256 clusters (columns are one byte).
    TooManyClusters(u16),
    /// Reference `index` names processor `proc` outside the topology.
    BadProc { index: usize, proc: u16 },
}

/// One pass over `count` references — `nth(i)` yields `(proc, write,
/// addr)` — producing the packed and precomputed columns: processor
/// split, issuing cluster, and the page's first-touch home in trace
/// order (exactly the assignments a first-touch placement map makes
/// during replay).
pub(crate) fn derive_columns(
    topo: &Topology,
    geo: &Geometry,
    count: usize,
    mut nth: impl FnMut(usize) -> (u16, bool, u64),
) -> Result<DerivedColumns, DeriveError> {
    if topo.clusters() > 256 {
        return Err(DeriveError::TooManyClusters(topo.clusters()));
    }
    let total = topo.total_procs();
    let wide = total > 64;
    let mut proc_op = Vec::with_capacity(count);
    let mut wide_proc = Vec::with_capacity(if wide { count } else { 0 });
    let mut home_cluster = Vec::with_capacity(count);
    let mut issuing_cluster = Vec::with_capacity(count);
    let mut homes: DenseMap<u8> = DenseMap::new();
    for i in 0..count {
        let (proc, write, addr) = nth(i);
        if proc >= total {
            return Err(DeriveError::BadProc { index: i, proc });
        }
        let (cl, _) = topo.split_of(ProcId(proc));
        #[allow(clippy::cast_possible_truncation)] // clusters <= 256 checked above
        let cl8 = cl.0 as u8;
        let mut packed = if wide {
            wide_proc.push(proc);
            0
        } else {
            #[allow(clippy::cast_possible_truncation)] // total <= 64 in this arm
            {
                proc as u8
            }
        };
        if write {
            packed |= OP_BIT;
        }
        let page = geo.page_of(Addr(addr)).0;
        let home = match homes.get(page) {
            Some(&h) => h,
            None => {
                homes.insert(page, cl8);
                packed |= FIRST_TOUCH_BIT;
                cl8
            }
        };
        proc_op.push(packed);
        home_cluster.push(home);
        issuing_cluster.push(cl8);
    }
    Ok(DerivedColumns {
        proc_op,
        wide_proc,
        home_cluster,
        issuing_cluster,
    })
}

/// A reference trace in columnar (struct-of-arrays) form with
/// precomputed processor/home columns, bound to the [`Topology`] and
/// [`Geometry`] it was decomposed under.
///
/// # Example
///
/// ```
/// use dsm_trace::SharedTrace;
/// use dsm_types::{Addr, Geometry, MemRef, ProcId, Topology};
///
/// let topo = Topology::paper_default();
/// let geo = Geometry::paper_default();
/// let refs = vec![
///     MemRef::read(ProcId(4), Addr(0x1000)),
///     MemRef::write(ProcId(0), Addr(0x1040)),
/// ];
/// let shared = SharedTrace::from_refs(topo, geo, &refs);
/// assert_eq!(shared.len(), 2);
/// // Lossless round-trip back to the AoS form.
/// let back: Vec<MemRef> = shared.iter().collect();
/// assert_eq!(back, refs);
/// // Page 1 was first touched by P4 (cluster 1): both refs share home 1.
/// let mut batch = [dsm_types::DecodedRef::default(); dsm_trace::BATCH];
/// let n = shared.decode_batch(0, &mut batch);
/// assert_eq!(n, 2);
/// assert!(batch[0].first_touch && !batch[1].first_touch);
/// assert_eq!(batch[0].home, batch[1].home);
/// ```
#[derive(Debug, Clone)]
pub struct SharedTrace {
    topo: Topology,
    geo: Geometry,
    /// Byte address column: owned, or a zero-copy window of a mapped v2
    /// trace file. Block and page numbers are shifts off this column.
    addr: AddrColumn,
    /// Packed per-reference byte: bits 0..6 processor id (machines up to
    /// 64 processors), bit 6 write, bit 7 first touch of the page.
    proc_op: Vec<u8>,
    /// Full-width processor ids, populated only when the machine has more
    /// than 64 processors (the packed field cannot hold the id).
    wide_proc: Vec<u16>,
    /// Precomputed first-touch home cluster of each reference's page.
    home_cluster: Vec<u8>,
    /// Precomputed issuing cluster of each reference.
    issuing_cluster: Vec<u8>,
}

impl SharedTrace {
    /// Builds the columnar form of `refs`, splitting every processor
    /// under `topo` once and precomputing each page's first-touch home
    /// under `geo`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the topology has more than 256 clusters
    /// (the cluster columns are one byte wide; the coherence layer's
    /// presence words cap real machines at 64 anyway), or if any
    /// reference names a processor outside `topo`.
    pub fn try_from_refs(
        topo: Topology,
        geo: Geometry,
        refs: &[MemRef],
    ) -> Result<Self, ConfigError> {
        let derived = derive_columns(&topo, &geo, refs.len(), |i| {
            let r = &refs[i];
            (r.proc.0, r.op.is_write(), r.addr.0)
        })
        .map_err(|e| match e {
            DeriveError::TooManyClusters(c) => ConfigError::new(format!(
                "SharedTrace cluster columns are one byte: {c} clusters exceed 256"
            )),
            DeriveError::BadProc { proc, .. } => ConfigError::new(format!(
                "reference names processor P{proc} outside topology {topo}"
            )),
        })?;
        let addr = refs.iter().map(|r| r.addr.0).collect();
        Ok(Self::from_parts(
            topo,
            geo,
            AddrColumn::Owned(addr),
            derived,
        ))
    }

    /// Assembles a trace from an address column and its derived columns —
    /// the shared tail of the in-memory builder and the mapped parser.
    pub(crate) fn from_parts(
        topo: Topology,
        geo: Geometry,
        addr: AddrColumn,
        derived: DerivedColumns,
    ) -> Self {
        debug_assert_eq!(addr.len(), derived.proc_op.len());
        debug_assert_eq!(addr.len(), derived.home_cluster.len());
        debug_assert_eq!(addr.len(), derived.issuing_cluster.len());
        SharedTrace {
            topo,
            geo,
            addr,
            proc_op: derived.proc_op,
            wide_proc: derived.wide_proc,
            home_cluster: derived.home_cluster,
            issuing_cluster: derived.issuing_cluster,
        }
    }

    /// [`SharedTrace::try_from_refs`], panicking on invalid input — the
    /// form trace-generation pipelines use (their references are by
    /// construction inside the topology).
    ///
    /// # Panics
    ///
    /// Panics where [`SharedTrace::try_from_refs`] errors.
    #[must_use]
    pub fn from_refs(topo: Topology, geo: Geometry, refs: &[MemRef]) -> Self {
        SharedTrace::try_from_refs(topo, geo, refs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The topology the processor columns were split under.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The geometry the decomposition was derived under.
    #[must_use]
    pub fn geometry(&self) -> &Geometry {
        &self.geo
    }

    /// Number of references.
    #[must_use]
    pub fn len(&self) -> usize {
        self.addr.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.addr.len() == 0
    }

    /// Whether the address column borrows from a kernel file mapping —
    /// `true` only for traces opened zero-copy via
    /// [`crate::codec::open_shared_mapped`] on a platform with the raw
    /// `mmap` path.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match &self.addr {
            AddrColumn::Owned(_) => false,
            AddrColumn::Mapped { map, .. } => map.is_kernel_mapped(),
        }
    }

    /// Re-checks (via `fstat`) that the file backing a kernel-mapped
    /// address column is still at least as long as the mapped region, so
    /// a concurrent truncation surfaces as a clean error instead of a
    /// `SIGBUS` when replay first touches the vanished pages. Owned
    /// traces trivially pass.
    ///
    /// # Errors
    ///
    /// Returns the underlying `fstat` failure, or an error describing the
    /// shrunken file.
    pub fn revalidate_mapping(&self) -> std::io::Result<()> {
        match &self.addr {
            AddrColumn::Owned(_) => Ok(()),
            AddrColumn::Mapped { map, .. } => map.revalidate(),
        }
    }

    /// `"mapped"` or `"owned"` — the storage mode label telemetry and
    /// progress lines report.
    #[must_use]
    pub fn storage_mode(&self) -> &'static str {
        match &self.addr {
            AddrColumn::Owned(_) => "owned",
            AddrColumn::Mapped { .. } => "mapped",
        }
    }

    /// The reference at `i` in its original array-of-structs form.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn get(&self, i: usize) -> MemRef {
        let packed = self.proc_op[i];
        let proc = if self.wide_proc.is_empty() {
            u16::from(packed & PROC_MASK)
        } else {
            self.wide_proc[i]
        };
        let op = if packed & OP_BIT != 0 {
            MemOp::Write
        } else {
            MemOp::Read
        };
        MemRef::new(ProcId(proc), op, Addr(self.addr.at(i)))
    }

    /// Iterates the references in trace order as [`MemRef`]s — the
    /// lossless round-trip back to the array-of-structs form.
    pub fn iter(&self) -> impl Iterator<Item = MemRef> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Decodes up to `out.len()` references starting at `start` into
    /// `out`, returning how many were decoded (0 at end of trace). The
    /// replay hot loop calls this with a stack buffer of [`BATCH`]
    /// entries; processor splitting and first-touch home resolution
    /// happened at construction, and block/page numbers are shifts off
    /// a register-resident address window.
    #[inline]
    pub fn decode_batch(&self, start: usize, out: &mut [DecodedRef]) -> usize {
        let n = out.len().min(self.len().saturating_sub(start));
        if n == 0 {
            return 0;
        }
        let mut done = 0;
        while done < n {
            let m = (n - done).min(BATCH);
            self.decode_chunk(start + done, &mut out[done..done + m]);
            done += m;
        }
        n
    }

    /// Decodes exactly `out.len()` (≤ [`BATCH`]) references starting at
    /// `start`, column-at-a-time. The address window is staged into a
    /// stack array first, so every column access in the lane loop is a
    /// contiguous in-bounds slice read and the loop body carries no
    /// branches — the wide-processor fallback is hoisted out of it, and
    /// the tail is handled by the window length, not lane sentinels.
    #[inline]
    fn decode_chunk(&self, start: usize, out: &mut [DecodedRef]) {
        let m = out.len();
        debug_assert!(m <= BATCH);
        let end = start + m;
        // Geometry guarantees power-of-two sizes: shifts, not divides.
        let block_shift = self.geo.block_bytes().trailing_zeros();
        let page_shift = self.geo.page_bytes().trailing_zeros();
        let mut addrs = [0u64; BATCH];
        self.addr.fill(start, &mut addrs[..m]);
        let proc_op = &self.proc_op[start..end];
        let home = &self.home_cluster[start..end];
        let issuing = &self.issuing_cluster[start..end];
        let ppc = self.topo.procs_per_cluster();
        if self.wide_proc.is_empty() {
            for k in 0..m {
                let packed = proc_op[k];
                let cl = u16::from(issuing[k]);
                out[k] = DecodedRef {
                    cluster: ClusterId(cl),
                    lproc: LocalProcId(u16::from(packed & PROC_MASK) - cl * ppc),
                    write: packed & OP_BIT != 0,
                    first_touch: packed & FIRST_TOUCH_BIT != 0,
                    block: BlockAddr(addrs[k] >> block_shift),
                    page: PageAddr(addrs[k] >> page_shift),
                    home: ClusterId(u16::from(home[k])),
                };
            }
        } else {
            let wide = &self.wide_proc[start..end];
            for k in 0..m {
                let packed = proc_op[k];
                let cl = u16::from(issuing[k]);
                out[k] = DecodedRef {
                    cluster: ClusterId(cl),
                    lproc: LocalProcId(wide[k] - cl * ppc),
                    write: packed & OP_BIT != 0,
                    first_touch: packed & FIRST_TOUCH_BIT != 0,
                    block: BlockAddr(addrs[k] >> block_shift),
                    page: PageAddr(addrs[k] >> page_shift),
                    home: ClusterId(u16::from(home[k])),
                };
            }
        }
    }

    /// Visits `(issuing cluster, local processor, block)` for up to
    /// `len` references starting at `start`, without materializing
    /// [`DecodedRef`]s. The replay loops use this to issue machine-line
    /// prefetches for batch N+1 while batch N is in flight: the lane
    /// values stay in registers, so the *processing* batch's decode can
    /// remain fused with the process loop (a second decoded buffer
    /// would force every lane of both batches through the stack).
    #[inline]
    pub fn peek_batch(
        &self,
        start: usize,
        len: usize,
        mut f: impl FnMut(ClusterId, LocalProcId, BlockAddr),
    ) {
        let n = len.min(self.len().saturating_sub(start));
        if n == 0 {
            return;
        }
        let end = start + n;
        let block_shift = self.geo.block_bytes().trailing_zeros();
        let ppc = self.topo.procs_per_cluster();
        let proc_op = &self.proc_op[start..end];
        let issuing = &self.issuing_cluster[start..end];
        if self.wide_proc.is_empty() {
            for k in 0..n {
                let cl = u16::from(issuing[k]);
                let lp = u16::from(proc_op[k] & PROC_MASK) - cl * ppc;
                f(
                    ClusterId(cl),
                    LocalProcId(lp),
                    BlockAddr(self.addr.at(start + k) >> block_shift),
                );
            }
        } else {
            let wide = &self.wide_proc[start..end];
            for k in 0..n {
                let cl = u16::from(issuing[k]);
                f(
                    ClusterId(cl),
                    LocalProcId(wide[k] - cl * ppc),
                    BlockAddr(self.addr.at(start + k) >> block_shift),
                );
            }
        }
    }

    /// [`SharedTrace::peek_batch`] over *listed trace positions* (a
    /// gather) — the sharded replay's prefetch peek, visiting at most
    /// `len` of `indices`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn peek_gather(
        &self,
        indices: &[u32],
        len: usize,
        mut f: impl FnMut(ClusterId, LocalProcId, BlockAddr),
    ) {
        let n = len.min(indices.len());
        let block_shift = self.geo.block_bytes().trailing_zeros();
        let ppc = self.topo.procs_per_cluster();
        for &i in &indices[..n] {
            let i = i as usize;
            let cl = u16::from(self.issuing_cluster[i]);
            let lp = if self.wide_proc.is_empty() {
                u16::from(self.proc_op[i] & PROC_MASK) - cl * ppc
            } else {
                self.wide_proc[i] - cl * ppc
            };
            f(
                ClusterId(cl),
                LocalProcId(lp),
                BlockAddr(self.addr.at(i) >> block_shift),
            );
        }
    }

    /// Decodes up to `out.len()` references *from the listed trace
    /// positions* (a gather), returning how many were decoded. The
    /// sharded replay engine walks a [`ShardPlan`] shard's index list
    /// through this in [`BATCH`]-sized windows; semantics per entry are
    /// identical to [`SharedTrace::decode_batch`] at that index.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    #[inline]
    pub fn decode_gather(&self, indices: &[u32], out: &mut [DecodedRef]) -> usize {
        let n = out.len().min(indices.len());
        let block_shift = self.geo.block_bytes().trailing_zeros();
        let page_shift = self.geo.page_bytes().trailing_zeros();
        let ppc = self.topo.procs_per_cluster();
        if self.wide_proc.is_empty() {
            for (slot, &i) in out[..n].iter_mut().zip(indices) {
                let i = i as usize;
                let packed = self.proc_op[i];
                let cl = u16::from(self.issuing_cluster[i]);
                let a = self.addr.at(i);
                *slot = DecodedRef {
                    cluster: ClusterId(cl),
                    lproc: LocalProcId(u16::from(packed & PROC_MASK) - cl * ppc),
                    write: packed & OP_BIT != 0,
                    first_touch: packed & FIRST_TOUCH_BIT != 0,
                    block: BlockAddr(a >> block_shift),
                    page: PageAddr(a >> page_shift),
                    home: ClusterId(u16::from(self.home_cluster[i])),
                };
            }
        } else {
            for (slot, &i) in out[..n].iter_mut().zip(indices) {
                let i = i as usize;
                let packed = self.proc_op[i];
                let cl = u16::from(self.issuing_cluster[i]);
                let a = self.addr.at(i);
                *slot = DecodedRef {
                    cluster: ClusterId(cl),
                    lproc: LocalProcId(self.wide_proc[i] - cl * ppc),
                    write: packed & OP_BIT != 0,
                    first_touch: packed & FIRST_TOUCH_BIT != 0,
                    block: BlockAddr(a >> block_shift),
                    page: PageAddr(a >> page_shift),
                    home: ClusterId(u16::from(self.home_cluster[i])),
                };
            }
        }
        n
    }

    /// Computes the trace's independent-shard decomposition: the
    /// connected components of the *cluster sharing graph*, where two
    /// clusters are connected iff some page is referenced by both.
    ///
    /// Under first-touch placement every page is homed at a cluster that
    /// references it, so a component's pages are homed inside the
    /// component and every piece of machine state a component's
    /// references can touch — its clusters' caches/NC/PC/bus, the
    /// directory entries and placement slots of its pages, its relocation
    /// counters — is disjoint from every other component's. Each shard
    /// can therefore replay independently (in trace order within the
    /// shard) and merge back to *exactly* the serial result; see
    /// `System::run_sharded`.
    ///
    /// Shards are numbered by the trace position of their earliest
    /// reference, so the decomposition (and everything merged in shard
    /// order) is deterministic.
    #[must_use]
    pub fn shard_plan(&self) -> ShardPlan {
        let clusters = usize::from(self.topo.clusters());
        let page_shift = self.geo.page_bytes().trailing_zeros();
        // Union-find over the (≤ 256) clusters, keyed by shared pages.
        let mut parent: Vec<u16> = (0..clusters)
            .map(|c| u16::try_from(c).expect("clusters fit u16"))
            .collect();
        fn find(parent: &mut [u16], mut c: u16) -> u16 {
            while parent[usize::from(c)] != c {
                let gp = parent[usize::from(parent[usize::from(c)])];
                parent[usize::from(c)] = gp; // path halving
                c = gp;
            }
            c
        }
        // Page -> some cluster already seen referencing it. The first
        // toucher seeds the entry; every later accessor unions with it.
        let mut page_rep: DenseMap<u8> = DenseMap::new();
        for (i, &c) in self.issuing_cluster.iter().enumerate() {
            let page = self.addr.at(i) >> page_shift;
            match page_rep.get(page) {
                Some(&rep) => {
                    let (a, b) = (
                        find(&mut parent, u16::from(c)),
                        find(&mut parent, u16::from(rep)),
                    );
                    if a != b {
                        parent[usize::from(a.max(b))] = a.min(b);
                    }
                }
                None => {
                    page_rep.insert(page, c);
                }
            }
        }
        // Number shards by earliest reference, then gather index lists.
        let mut shard_of_root = vec![usize::MAX; clusters];
        let mut shard_of_cluster = vec![usize::MAX; clusters];
        let mut shards: Vec<Vec<u32>> = Vec::new();
        for (i, &c) in self.issuing_cluster.iter().enumerate() {
            let root = usize::from(find(&mut parent, u16::from(c)));
            let shard = if shard_of_root[root] == usize::MAX {
                shard_of_root[root] = shards.len();
                shards.push(Vec::new());
                shards.len() - 1
            } else {
                shard_of_root[root]
            };
            shard_of_cluster[usize::from(c)] = shard;
            shards[shard].push(u32::try_from(i).expect("trace indices fit u32"));
        }
        ShardPlan {
            shards,
            shard_of_cluster,
        }
    }

    /// Partitions the machine's *active* clusters (those issuing at
    /// least one reference) into at most `parts` balanced groups by
    /// per-cluster reference count — the work split of the
    /// intra-component round-based replay engine, where each worker owns
    /// a group of clusters plus every page they home.
    ///
    /// Balancing is greedy longest-processing-time: clusters are taken
    /// in descending reference count (ties broken by ascending cluster
    /// id) and each is assigned to the currently lightest part (ties
    /// broken by ascending part index), so the plan is deterministic for
    /// a given trace. Clusters issuing no references stay unassigned —
    /// their state is pristine and needs no owner.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero.
    #[must_use]
    pub fn cluster_partition(&self, parts: usize) -> ClusterPartition {
        assert!(parts > 0, "parts must be positive");
        let clusters = usize::from(self.topo.clusters());
        let mut refs_of_cluster = vec![0u64; clusters];
        for &c in &self.issuing_cluster {
            refs_of_cluster[usize::from(c)] += 1;
        }
        let mut active: Vec<usize> = (0..clusters).filter(|&c| refs_of_cluster[c] > 0).collect();
        let parts = parts.min(active.len()).max(1);
        // Descending count, ascending cluster id on ties.
        active.sort_by_key(|&c| (std::cmp::Reverse(refs_of_cluster[c]), c));
        let mut part_of_cluster = vec![usize::MAX; clusters];
        let mut load = vec![0u64; parts];
        for c in active {
            let lightest = (0..parts)
                .min_by_key(|&p| (load[p], p))
                .expect("parts is positive");
            part_of_cluster[c] = lightest;
            load[lightest] += refs_of_cluster[c];
        }
        ClusterPartition {
            parts,
            part_of_cluster,
            refs_of_part: load,
        }
    }

    /// Heap bytes held by the columns — the footprint quantity
    /// EXPERIMENTS.md tracks against the 16 padded bytes per reference of
    /// the array-of-structs form. A mapped address column contributes
    /// nothing: its bytes are file-backed pages shared with every other
    /// reader of the same file.
    #[must_use]
    pub fn column_bytes(&self) -> usize {
        self.addr.heap_bytes() + self.proc_op.len() * (1 + 1 + 1) + self.wide_proc.len() * 2
    }
}

/// The independent-shard decomposition of one trace (see
/// [`SharedTrace::shard_plan`]): per-shard reference index lists, each
/// in ascending trace order, plus the cluster → shard ownership map the
/// merge step uses to decide which worker's copy of a cluster unit is
/// authoritative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `shards[s]` = trace indices of shard `s`'s references, ascending.
    shards: Vec<Vec<u32>>,
    /// `shard_of_cluster[c]` = the shard owning cluster `c`, or
    /// `usize::MAX` for a cluster issuing no references.
    shard_of_cluster: Vec<usize>,
}

impl ShardPlan {
    /// The per-shard reference index lists, in shard order (shards are
    /// numbered by their earliest reference's trace position).
    #[must_use]
    pub fn shards(&self) -> &[Vec<u32>] {
        &self.shards
    }

    /// Number of independent shards. A value of 1 means the whole trace
    /// is one sharing component and sharded replay degenerates to the
    /// serial path.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the plan has no shards (empty trace).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard owning cluster `c` (`None` if no reference is issued by
    /// `c` — such a cluster's state stays pristine and needs no merge).
    #[must_use]
    pub fn shard_of_cluster(&self, c: usize) -> Option<usize> {
        match self.shard_of_cluster.get(c) {
            Some(&s) if s != usize::MAX => Some(s),
            _ => None,
        }
    }

    /// The clusters owned by shard `s`, ascending.
    #[must_use]
    pub fn clusters_of(&self, s: usize) -> Vec<usize> {
        self.shard_of_cluster
            .iter()
            .enumerate()
            .filter_map(|(c, &owner)| (owner == s).then_some(c))
            .collect()
    }
}

/// A balanced assignment of active clusters to replay workers (see
/// [`SharedTrace::cluster_partition`]). Unlike [`ShardPlan`], the groups
/// are *not* coherence-independent: the round-based engine that consumes
/// this plan is responsible for keeping cross-part references exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterPartition {
    /// Number of parts actually formed (≤ requested, ≥ 1 when any
    /// cluster is active).
    parts: usize,
    /// `part_of_cluster[c]` = owning part, or `usize::MAX` if cluster
    /// `c` issues no references.
    part_of_cluster: Vec<usize>,
    /// Total references issued by each part's clusters.
    refs_of_part: Vec<u64>,
}

impl ClusterPartition {
    /// Number of parts formed.
    #[must_use]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The part owning cluster `c`, or `None` for a cluster that issues
    /// no references (its state stays pristine).
    #[must_use]
    pub fn part_of_cluster(&self, c: usize) -> Option<usize> {
        match self.part_of_cluster.get(c) {
            Some(&p) if p != usize::MAX => Some(p),
            _ => None,
        }
    }

    /// The raw cluster → part table (`usize::MAX` = unassigned), sized
    /// to the machine's cluster count.
    #[must_use]
    pub fn part_table(&self) -> &[usize] {
        &self.part_of_cluster
    }

    /// The clusters owned by part `p`, ascending.
    #[must_use]
    pub fn clusters_of(&self, p: usize) -> Vec<usize> {
        self.part_of_cluster
            .iter()
            .enumerate()
            .filter_map(|(c, &owner)| (owner == p).then_some(c))
            .collect()
    }

    /// Total references issued by part `p`'s clusters.
    #[must_use]
    pub fn refs_of_part(&self, p: usize) -> u64 {
        self.refs_of_part[p]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs_sample() -> Vec<MemRef> {
        // Mixed procs/pages; P9 (cluster 2) first-touches page 2.
        vec![
            MemRef::read(ProcId(9), Addr(2 * 4096 + 64)),
            MemRef::write(ProcId(0), Addr(0)),
            MemRef::read(ProcId(31), Addr(2 * 4096)),
            MemRef::write(ProcId(9), Addr(4096)),
            MemRef::read(ProcId(0), Addr(65)),
        ]
    }

    fn shared() -> SharedTrace {
        SharedTrace::from_refs(
            Topology::paper_default(),
            Geometry::paper_default(),
            &refs_sample(),
        )
    }

    /// The same trace with its address column re-homed behind a mapped
    /// buffer — every decode path must observe identical references.
    fn remap_addr_column(s: &SharedTrace) -> SharedTrace {
        let mut bytes = Vec::new();
        for r in s.iter() {
            bytes.extend_from_slice(&r.addr.0.to_le_bytes());
        }
        let mut out = s.clone();
        out.addr = AddrColumn::Mapped {
            map: Arc::new(Mapping::from_vec(bytes)),
            offset: 0,
            count: s.len(),
        };
        out
    }

    #[test]
    fn roundtrips_to_memrefs() {
        let s = shared();
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
        let back: Vec<MemRef> = s.iter().collect();
        assert_eq!(back, refs_sample());
    }

    #[test]
    fn decomposition_matches_geometry() {
        let s = shared();
        let geo = Geometry::paper_default();
        let mut out = [DecodedRef::default(); BATCH];
        let n = s.decode_batch(0, &mut out);
        assert_eq!(n, 5);
        for (d, r) in out[..n].iter().zip(refs_sample()) {
            let parts = geo.decompose(r.addr);
            assert_eq!(d.block, parts.block);
            assert_eq!(d.page, parts.page);
            let (cl, lp) = Topology::paper_default().split_of(r.proc);
            assert_eq!((d.cluster, d.lproc), (cl, lp));
            assert_eq!(d.write, r.op.is_write());
        }
    }

    #[test]
    fn first_touch_homes_follow_trace_order() {
        let s = shared();
        let mut out = [DecodedRef::default(); BATCH];
        s.decode_batch(0, &mut out);
        // Page 2 first touched by P9 => cluster 2; both page-2 refs share it.
        assert_eq!(out[0].home, ClusterId(2));
        assert!(out[0].first_touch);
        assert_eq!(out[2].home, ClusterId(2));
        assert!(!out[2].first_touch);
        // Page 0 first touched by P0 => cluster 0.
        assert_eq!(out[1].home, ClusterId(0));
        assert!(out[1].first_touch);
        assert!(!out[4].first_touch);
        // Page 1 first touched by P9 => cluster 2, remote never set here.
        assert_eq!(out[3].home, ClusterId(2));
        assert!(out[3].first_touch);
        assert!(!out[3].remote());
    }

    #[test]
    fn batched_decode_covers_whole_trace() {
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let refs: Vec<MemRef> = (0..100u64)
            .map(|i| MemRef::read(ProcId((i % 32) as u16), Addr(i * 128)))
            .collect();
        let s = SharedTrace::from_refs(topo, geo, &refs);
        let mut out = [DecodedRef::default(); BATCH];
        let mut seen = 0usize;
        let mut start = 0usize;
        loop {
            let n = s.decode_batch(start, &mut out);
            if n == 0 {
                break;
            }
            assert!(n <= BATCH);
            seen += n;
            start += n;
        }
        assert_eq!(seen, refs.len());
        assert_eq!(s.decode_batch(refs.len(), &mut out), 0);
    }

    #[test]
    fn oversized_output_windows_decode_whole_ranges() {
        // decode_batch accepts windows larger than BATCH (chunked
        // internally); lanes must match the one-batch-at-a-time decode.
        let refs: Vec<MemRef> = (0..50u64)
            .map(|i| MemRef::read(ProcId((i % 32) as u16), Addr(i * 192)))
            .collect();
        let s = SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut wide = vec![DecodedRef::default(); 50];
        assert_eq!(s.decode_batch(0, &mut wide), 50);
        let mut narrow = [DecodedRef::default(); BATCH];
        let mut start = 0;
        while start < 50 {
            let n = s.decode_batch(start, &mut narrow);
            assert_eq!(&wide[start..start + n], &narrow[..n]);
            start += n;
        }
    }

    #[test]
    fn wide_machines_use_the_side_column() {
        // 32 clusters x 4 procs = 128 > 64: packed bits cannot hold ids.
        let topo = Topology::new(32, 4).unwrap();
        let geo = Geometry::paper_default();
        let refs = vec![
            MemRef::read(ProcId(127), Addr(64)),
            MemRef::write(ProcId(5), Addr(4096)),
        ];
        let s = SharedTrace::from_refs(topo, geo, &refs);
        assert_eq!(s.iter().collect::<Vec<_>>(), refs);
        let mut out = [DecodedRef::default(); 2];
        s.decode_batch(0, &mut out);
        assert_eq!(out[0].cluster, ClusterId(31));
        assert_eq!(out[0].lproc, LocalProcId(3));
        assert_eq!(out[1].cluster, ClusterId(1));
        assert_eq!(out[1].lproc, LocalProcId(1));
    }

    #[test]
    fn mapped_and_owned_storage_decode_identically() {
        let refs: Vec<MemRef> = (0..200u64)
            .map(|i| {
                let p = ProcId((i % 32) as u16);
                if i % 3 == 0 {
                    MemRef::write(p, Addr(i * 4096 / 3 + i))
                } else {
                    MemRef::read(p, Addr(i * 64))
                }
            })
            .collect();
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mapped = remap_addr_column(&owned);
        assert_eq!(owned.storage_mode(), "owned");
        assert_eq!(mapped.storage_mode(), "mapped");
        assert_eq!(mapped.iter().collect::<Vec<_>>(), refs);
        let (mut a, mut b) = (
            [DecodedRef::default(); BATCH],
            [DecodedRef::default(); BATCH],
        );
        let mut start = 0;
        loop {
            let n = owned.decode_batch(start, &mut a);
            assert_eq!(mapped.decode_batch(start, &mut b), n);
            if n == 0 {
                break;
            }
            assert_eq!(a[..n], b[..n]);
            start += n;
        }
        let indices: Vec<u32> = (0..200).rev().step_by(7).collect();
        let mut ga = vec![DecodedRef::default(); indices.len()];
        let mut gb = vec![DecodedRef::default(); indices.len()];
        assert_eq!(owned.decode_gather(&indices, &mut ga), indices.len());
        assert_eq!(mapped.decode_gather(&indices, &mut gb), indices.len());
        assert_eq!(ga, gb);
        assert_eq!(owned.shard_plan(), mapped.shard_plan());
    }

    #[test]
    fn rejects_out_of_topology_processor() {
        let err = SharedTrace::try_from_refs(
            Topology::paper_default(),
            Geometry::paper_default(),
            &[MemRef::read(ProcId(32), Addr(0))],
        )
        .unwrap_err();
        assert!(err.to_string().contains("outside topology"), "{err}");
    }

    #[test]
    fn rejects_too_many_clusters() {
        let topo = Topology::new(300, 1).unwrap();
        let err = SharedTrace::try_from_refs(topo, Geometry::paper_default(), &[]).unwrap_err();
        assert!(err.to_string().contains("256"), "{err}");
    }

    #[test]
    fn shard_plan_splits_disjoint_sharing_components() {
        // Paper topology: 4 procs per cluster. Clusters {0,2} share page
        // 7 (procs 1 and 9); cluster 1 (proc 5) touches only page 3.
        let refs = vec![
            MemRef::read(ProcId(1), Addr(7 * 4096)),
            MemRef::write(ProcId(5), Addr(3 * 4096)),
            MemRef::read(ProcId(9), Addr(7 * 4096 + 64)),
            MemRef::read(ProcId(5), Addr(3 * 4096 + 128)),
            MemRef::write(ProcId(1), Addr(7 * 4096 + 64)),
        ];
        let s = SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let plan = s.shard_plan();
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        // Shard 0 starts at ref 0 (clusters 0+2); shard 1 at ref 1.
        assert_eq!(plan.shards()[0], vec![0, 2, 4]);
        assert_eq!(plan.shards()[1], vec![1, 3]);
        assert_eq!(plan.shard_of_cluster(0), Some(0));
        assert_eq!(plan.shard_of_cluster(2), Some(0));
        assert_eq!(plan.shard_of_cluster(1), Some(1));
        assert_eq!(plan.shard_of_cluster(3), None);
        assert_eq!(plan.clusters_of(0), vec![0, 2]);
        assert_eq!(plan.clusters_of(1), vec![1]);
        // Every reference lands in exactly one shard.
        let total: usize = plan.shards().iter().map(Vec::len).sum();
        assert_eq!(total, s.len());
    }

    #[test]
    fn shard_plan_collapses_transitive_sharing() {
        // Cluster 0 shares page 1 with cluster 1; cluster 1 shares page 2
        // with cluster 2: all three form one component transitively.
        let refs = vec![
            MemRef::read(ProcId(0), Addr(4096)),
            MemRef::read(ProcId(4), Addr(4096)),
            MemRef::read(ProcId(4), Addr(2 * 4096)),
            MemRef::read(ProcId(8), Addr(2 * 4096)),
        ];
        let s = SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let plan = s.shard_plan();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.shards()[0], vec![0, 1, 2, 3]);
    }

    #[test]
    fn shard_plan_of_empty_trace_is_empty() {
        let s = SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &[]);
        let plan = s.shard_plan();
        assert!(plan.is_empty());
        assert_eq!(plan.shard_of_cluster(0), None);
    }

    #[test]
    fn decode_gather_matches_positional_decode() {
        let topo = Topology::paper_default();
        let geo = Geometry::paper_default();
        let refs: Vec<MemRef> = (0..50u64)
            .map(|i| {
                let p = ProcId((i % 32) as u16);
                if i % 3 == 0 {
                    MemRef::write(p, Addr(i * 256))
                } else {
                    MemRef::read(p, Addr(i * 64))
                }
            })
            .collect();
        let s = SharedTrace::from_refs(topo, geo, &refs);
        let mut all = vec![DecodedRef::default(); 50];
        let mut start = 0;
        while start < 50 {
            start += s.decode_batch(start, &mut all[start..]);
        }
        let indices: Vec<u32> = vec![3, 7, 7, 49, 0, 12];
        let mut out = [DecodedRef::default(); BATCH];
        let n = s.decode_gather(&indices, &mut out);
        assert_eq!(n, indices.len());
        for (d, &i) in out[..n].iter().zip(&indices) {
            assert_eq!(*d, all[i as usize], "index {i}");
        }
        // The gather respects the output window like decode_batch does.
        let mut two = [DecodedRef::default(); 2];
        assert_eq!(s.decode_gather(&indices, &mut two), 2);
        assert_eq!(s.decode_gather(&[], &mut out), 0);
    }

    #[test]
    fn shard_plan_replays_cover_gather_windows() {
        // A plan's shard walked through decode_gather in BATCH windows
        // yields the shard's refs in trace order.
        let refs: Vec<MemRef> = (0..40u64)
            .map(|i| MemRef::read(ProcId((i % 8) as u16), Addr((i % 8) * 4096 + i * 64)))
            .collect();
        let s = SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let plan = s.shard_plan();
        assert_eq!(plan.len(), 2, "procs 0-3 -> cluster 0, 4-7 -> cluster 1");
        let mut seen = Vec::new();
        for shard in plan.shards() {
            let mut window = 0;
            let mut out = [DecodedRef::default(); BATCH];
            while window < shard.len() {
                let n = s.decode_gather(&shard[window..], &mut out);
                assert!(n > 0);
                window += n;
            }
            seen.extend_from_slice(shard);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..40u32).collect::<Vec<_>>());
    }

    #[test]
    fn column_bytes_track_the_footprint() {
        // 11 bytes per reference owned (addr 8 + packed 1 + two cluster
        // bytes); block/page are shifts, not columns.
        let s = shared();
        assert_eq!(s.column_bytes(), 5 * 11);
        let wide = SharedTrace::from_refs(
            Topology::new(32, 4).unwrap(),
            Geometry::paper_default(),
            &[MemRef::read(ProcId(0), Addr(0))],
        );
        assert_eq!(wide.column_bytes(), 11 + 2);
        // A mapped address column costs no heap: 3 bytes/ref remain.
        let mapped = remap_addr_column(&s);
        assert_eq!(mapped.column_bytes(), 5 * 3);
    }

    #[test]
    fn cluster_partition_balances_by_ref_count() {
        let topo = Topology::new(4, 4).unwrap();
        let geo = Geometry::paper_default();
        // Cluster loads 40/30/20/10: LPT into two parts gives {0,10=c3}
        // and {30=c1,20=c2} → loads 50/50.
        let mut refs = Vec::new();
        for (c, n) in [(0u16, 40u64), (1, 30), (2, 20), (3, 10)] {
            for i in 0..n {
                refs.push(MemRef::read(
                    ProcId(c * 4),
                    Addr((u64::from(c) * 1024 + i % 4) * geo.page_bytes()),
                ));
            }
        }
        let trace = SharedTrace::from_refs(topo, geo, &refs);
        let p = trace.cluster_partition(2);
        assert_eq!(p.parts(), 2);
        assert_eq!(p.part_of_cluster(0), Some(0));
        assert_eq!(p.part_of_cluster(1), Some(1));
        assert_eq!(p.part_of_cluster(2), Some(1));
        assert_eq!(p.part_of_cluster(3), Some(0));
        assert_eq!(p.refs_of_part(0), 50);
        assert_eq!(p.refs_of_part(1), 50);
        assert_eq!(p.clusters_of(1), vec![1, 2]);
        // More parts than active clusters clamps; idle clusters stay
        // unassigned.
        let solo = SharedTrace::from_refs(topo, geo, &refs[..3]);
        let q = solo.cluster_partition(8);
        assert_eq!(q.parts(), 1);
        assert_eq!(q.part_of_cluster(0), Some(0));
        assert_eq!(q.part_of_cluster(3), None);
        assert_eq!(q.part_table()[3], usize::MAX);
    }

    #[test]
    fn empty_trace_is_fine() {
        let s = SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &[]);
        assert!(s.is_empty());
        let mut out = [DecodedRef::default(); BATCH];
        assert_eq!(s.decode_batch(0, &mut out), 0);
        assert!(s.iter().next().is_none());
    }
}
