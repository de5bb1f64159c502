//! A compact binary on-disk format for reference traces.
//!
//! Trace-driven methodology separates *tracing* from *simulation*: the
//! paper's authors traced SPARC binaries once and replayed the traces
//! against every system configuration. This codec provides the same
//! workflow — generate once with the `tracegen` binary, replay many times
//! with `simulate` — and makes traces portable between machines.
//!
//! # Format (`DSMT`, version 2)
//!
//! All integers little-endian. The layout is columnar, mirroring
//! [`SharedTrace`]'s struct-of-arrays form, so a mapped file's address
//! column *is* the replay column ([`open_shared_mapped`]).
//!
//! ```text
//! magic        4 bytes  "DSMT"
//! version      u16      2
//! clusters     u16
//! procs/cl     u16
//! block bytes  u64      geometry the trace was generated under
//! page bytes   u64
//! refs         u64      reference count
//! proc column  refs x u16
//! op bitmap    ceil(refs / 8) bytes, bit i set = reference i is a write
//! addr column  refs x u64
//! ```
//!
//! Every file, mapped or read, goes through one parser
//! ([`shared_from_mapping`]). Any other version — including the
//! retired row-oriented version 1 — is rejected as malformed input.

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

use dsm_types::{ConfigError, DsmError, Geometry, Topology};

use crate::mmap::Mapping;
use crate::shared::{derive_columns, AddrColumn, DeriveError, SharedTrace};

const MAGIC: &[u8; 4] = b"DSMT";
const VERSION: u16 = 2;

/// Errors produced while reading a trace file.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The bytes are not a trace file, or an unsupported version.
    Format(String),
    /// The header's topology or geometry is invalid.
    Config(ConfigError),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Format(m) => write!(f, "malformed trace: {m}"),
            CodecError::Config(e) => write!(f, "invalid configuration in trace: {e}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            CodecError::Config(e) => Some(e),
            CodecError::Format(_) => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

impl From<CodecError> for DsmError {
    /// Classifies codec failures for exit codes: malformed bytes, invalid
    /// header configuration, and truncation (`UnexpectedEof`) are the
    /// input's fault; any other I/O failure (permissions, disk) is
    /// environmental and therefore internal.
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof => {
                DsmError::bad_input(format!("truncated trace: {io}"))
            }
            CodecError::Io(io) => DsmError::internal(format!("i/o error: {io}")),
            CodecError::Format(m) => DsmError::bad_input(format!("malformed trace: {m}")),
            CodecError::Config(c) => {
                DsmError::bad_input(format!("invalid configuration in trace: {c}"))
            }
        }
    }
}

/// Writes `trace` to `w` in the version 2 columnar format, preserving the
/// topology and geometry it was decomposed under.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_shared<W: Write>(mut w: W, trace: &SharedTrace) -> Result<(), CodecError> {
    let topo = trace.topology();
    let geo = trace.geometry();
    let n = trace.len();
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&topo.clusters().to_le_bytes())?;
    w.write_all(&topo.procs_per_cluster().to_le_bytes())?;
    w.write_all(&geo.block_bytes().to_le_bytes())?;
    w.write_all(&geo.page_bytes().to_le_bytes())?;
    w.write_all(&(n as u64).to_le_bytes())?;
    let mut buf = Vec::with_capacity(64 * 1024);
    let flush_at = 64 * 1024 - 16;
    for i in 0..n {
        buf.extend_from_slice(&trace.get(i).proc.0.to_le_bytes());
        if buf.len() >= flush_at {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    let mut bits = 0u8;
    for i in 0..n {
        if trace.get(i).op.is_write() {
            bits |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            buf.push(bits);
            bits = 0;
            if buf.len() >= flush_at {
                w.write_all(&buf)?;
                buf.clear();
            }
        }
    }
    if !n.is_multiple_of(8) {
        buf.push(bits);
    }
    for i in 0..n {
        buf.extend_from_slice(&trace.get(i).addr.0.to_le_bytes());
        if buf.len() >= flush_at {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    w.flush()?;
    Ok(())
}

fn read_exact<const N: usize>(r: &mut &[u8]) -> Result<[u8; N], CodecError> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

/// Parses the `DSMT` header off the front of `r`, returning the
/// topology, geometry and reference count it declares.
fn read_header(r: &mut &[u8]) -> Result<(Topology, Geometry, usize), CodecError> {
    let magic = read_exact::<4>(r)?;
    if &magic != MAGIC {
        return Err(CodecError::Format(format!(
            "bad magic {magic:?}, expected {MAGIC:?}"
        )));
    }
    let version = u16::from_le_bytes(read_exact::<2>(r)?);
    if version != VERSION {
        return Err(CodecError::Format(format!("unsupported version {version}")));
    }
    let clusters = u16::from_le_bytes(read_exact::<2>(r)?);
    let procs = u16::from_le_bytes(read_exact::<2>(r)?);
    let topo = Topology::new(clusters, procs).map_err(CodecError::Config)?;
    let block = u64::from_le_bytes(read_exact::<8>(r)?);
    let page = u64::from_le_bytes(read_exact::<8>(r)?);
    let geo = Geometry::new(block, page).map_err(CodecError::Config)?;
    let count = u64::from_le_bytes(read_exact::<8>(r)?);
    let count = usize::try_from(count)
        .map_err(|_| CodecError::Format("trace too large for this platform".into()))?;
    Ok((topo, geo, count))
}

/// Reads a `DSMT` trace from `r` into the columnar [`SharedTrace`]
/// replay form: the bytes are read into memory and parsed exactly as a
/// mapped file would be ([`shared_from_mapping`]).
///
/// # Errors
///
/// Returns [`CodecError`] on I/O failure, bad magic or version, an
/// invalid topology or geometry, a file shorter or longer than its
/// header declares, a reference naming a processor outside the
/// topology, or a topology wider than [`SharedTrace`]'s 256-cluster
/// column width.
pub fn read_shared<R: Read>(mut r: R) -> Result<SharedTrace, CodecError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    shared_from_mapping(Arc::new(Mapping::from_vec(bytes)))
}

/// Maps `path` and parses it into a [`SharedTrace`] whose address column
/// borrows straight from the mapping — [`read_shared`] without the copy.
/// Loading cost is independent of trace size, and every process (or
/// sweep worker) mapping the same file shares one set of physical pages.
///
/// On platforms without the raw `mmap` path (or under `DSM_NO_MMAP=1`)
/// the mapping degrades to an owned read; the parse and the resulting
/// trace bytes are identical either way.
///
/// # Errors
///
/// As [`read_shared`]; a file shorter than its header promises is
/// reported as truncation (`UnexpectedEof`, exit code 3 at the CLI), a
/// longer one as trailing bytes.
pub fn open_shared_mapped(path: &Path) -> Result<SharedTrace, CodecError> {
    let map = Mapping::open(path)?;
    // A file that shrank between open and map (or a mapping whose backing
    // file was truncated by a concurrent writer) would SIGBUS on first
    // touch; fstat it again so the race becomes a clean decode error.
    map.revalidate()?;
    shared_from_mapping(Arc::new(map))
}

/// Parses an already-opened [`Mapping`] of a trace file — the
/// [`open_shared_mapped`] tail, exposed so tests and tools can feed
/// in-memory buffers through the exact mapped code path.
///
/// # Errors
///
/// As [`open_shared_mapped`].
pub fn shared_from_mapping(map: Arc<Mapping>) -> Result<SharedTrace, CodecError> {
    let bytes = map.bytes();
    let mut cursor = bytes;
    let (topo, geo, count) = read_header(&mut cursor)?;
    let header_len = bytes.len() - cursor.len();
    // Column extents, overflow-checked: a hostile header can claim
    // usize::MAX references.
    let (proc_bytes, addr_bytes) = match (count.checked_mul(2), count.checked_mul(8)) {
        (Some(p), Some(a)) => (p, a),
        _ => {
            return Err(CodecError::Format(
                "trace too large for this platform".into(),
            ))
        }
    };
    let op_off = header_len + proc_bytes;
    let addr_off = op_off + count.div_ceil(8);
    let total = match addr_off.checked_add(addr_bytes) {
        Some(t) => t,
        None => {
            return Err(CodecError::Format(
                "trace too large for this platform".into(),
            ))
        }
    };
    if bytes.len() < total {
        return Err(CodecError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "file is {} bytes but the header promises {total}",
                bytes.len()
            ),
        )));
    }
    if bytes.len() > total {
        return Err(CodecError::Format("trailing bytes after trace".into()));
    }
    let procs = &bytes[header_len..op_off];
    let ops = &bytes[op_off..addr_off];
    let derived = derive_columns(&topo, &geo, count, |i| {
        let proc = u16::from_le_bytes([procs[i * 2], procs[i * 2 + 1]]);
        let write = ops[i / 8] & (1 << (i % 8)) != 0;
        let mut a = [0u8; 8];
        a.copy_from_slice(&bytes[addr_off + i * 8..addr_off + i * 8 + 8]);
        (proc, write, u64::from_le_bytes(a))
    })
    .map_err(|e| match e {
        DeriveError::TooManyClusters(c) => CodecError::Config(ConfigError::new(format!(
            "SharedTrace cluster columns are one byte: {c} clusters exceed 256"
        ))),
        DeriveError::BadProc { index, proc } => CodecError::Format(format!(
            "record {index}: processor {proc} outside topology {topo}"
        )),
    })?;
    let addr = AddrColumn::Mapped {
        map: Arc::clone(&map),
        offset: addr_off,
        count,
    };
    Ok(SharedTrace::from_parts(topo, geo, addr, derived))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_types::{Addr, MemRef, ProcId};

    fn sample() -> (Topology, Vec<MemRef>) {
        let topo = Topology::new(2, 2).unwrap();
        let trace = vec![
            MemRef::read(ProcId(0), Addr(0x40)),
            MemRef::write(ProcId(3), Addr(0xdead_beef)),
            MemRef::read(ProcId(2), Addr(u64::MAX)),
        ];
        (topo, trace)
    }

    fn sample_shared() -> SharedTrace {
        let (topo, trace) = sample();
        SharedTrace::from_refs(topo, Geometry::paper_default(), &trace)
    }

    #[test]
    fn v2_roundtrip() {
        let shared = sample_shared();
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        let back = read_shared(bytes.as_slice()).unwrap();
        assert_eq!(back.topology(), shared.topology());
        assert_eq!(back.geometry(), shared.geometry());
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            shared.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn v2_preserves_nondefault_geometry() {
        let (topo, trace) = sample();
        let geo = Geometry::new(128, 8192).unwrap();
        let shared = SharedTrace::from_refs(topo, geo, &trace);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        let back = read_shared(bytes.as_slice()).unwrap();
        assert_eq!(back.geometry(), &geo);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let topo = Topology::paper_default();
        let shared = SharedTrace::from_refs(topo, Geometry::paper_default(), &[]);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        assert!(read_shared(bytes.as_slice()).unwrap().is_empty());
    }

    #[test]
    fn v2_layout_is_columnar() {
        let shared = sample_shared();
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        let n = shared.len();
        // header + proc column + op bitmap + addr column
        assert_eq!(
            bytes.len(),
            (4 + 2 + 2 + 2 + 8 + 8 + 8) + n * 2 + n.div_ceil(8) + n * 8
        );
        assert_eq!(&bytes[4..6], &2u16.to_le_bytes());
        // op bitmap: only reference 1 is a write.
        assert_eq!(bytes[34 + n * 2], 0b010);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_shared(&b"NOPE\x02\x00"[..]).unwrap_err();
        assert!(matches!(err, CodecError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &sample_shared()).unwrap();
        bytes[4] = 9;
        assert!(matches!(
            read_shared(bytes.as_slice()).unwrap_err(),
            CodecError::Format(_)
        ));
    }

    /// The retired row-oriented version 1: magic, version 1, a 2x2
    /// topology, one 11-byte `(proc, op, addr)` record.
    fn version_1_file() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"DSMT");
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&3u16.to_le_bytes());
        bytes.push(1);
        bytes.extend_from_slice(&0x40u64.to_le_bytes());
        bytes
    }

    #[test]
    fn version_1_files_are_rejected_as_bad_input() {
        for err in [
            read_shared(version_1_file().as_slice()).unwrap_err(),
            mapped_from(version_1_file()).unwrap_err(),
        ] {
            assert!(matches!(err, CodecError::Format(_)), "{err}");
            assert!(err.to_string().contains("unsupported version 1"), "{err}");
            let err: DsmError = err.into();
            assert_eq!(err.kind(), dsm_types::ErrorKind::BadInput);
            assert_eq!(err.exit_code(), 3);
        }
    }

    #[test]
    fn rejects_truncated_v2_columns() {
        let shared = sample_shared();
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        bytes.truncate(bytes.len() - 5);
        assert!(matches!(
            read_shared(bytes.as_slice()).unwrap_err(),
            CodecError::Io(_)
        ));
    }

    #[test]
    fn rejects_out_of_range_processor_v2() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"DSMT");
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes()); // 1 cluster
        bytes.extend_from_slice(&1u16.to_le_bytes()); // 1 proc
        bytes.extend_from_slice(&64u64.to_le_bytes());
        bytes.extend_from_slice(&4096u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&7u16.to_le_bytes()); // proc column: proc 7
        bytes.push(0); // op bitmap
        bytes.extend_from_slice(&0u64.to_le_bytes()); // addr column
        let err = read_shared(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("outside topology"), "{err}");
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &sample_shared()).unwrap();
        bytes.push(0);
        let err = read_shared(bytes.as_slice()).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn rejects_bad_geometry_v2() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"DSMT");
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&63u64.to_le_bytes()); // not a power of two
        bytes.extend_from_slice(&4096u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_shared(bytes.as_slice()).unwrap_err(),
            CodecError::Config(_)
        ));
    }

    #[test]
    fn codec_errors_classify_into_dsm_errors() {
        use dsm_types::ErrorKind;
        let truncated: DsmError =
            CodecError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof")).into();
        assert_eq!(truncated.kind(), ErrorKind::BadInput);
        let denied: DsmError =
            CodecError::Io(io::Error::new(io::ErrorKind::PermissionDenied, "no")).into();
        assert_eq!(denied.kind(), ErrorKind::Internal);
        let malformed: DsmError = CodecError::Format("bad magic".into()).into();
        assert_eq!(malformed.kind(), ErrorKind::BadInput);
        assert!(malformed.to_string().contains("bad magic"));
        let config: DsmError = CodecError::Config(ConfigError::new("zero clusters")).into();
        assert_eq!(config.kind(), ErrorKind::BadInput);
    }

    /// A deterministic pseudo-random reference stream (xorshift) for the
    /// mapped-vs-owned equivalence checks.
    fn random_refs(seed: u64, n: u64) -> Vec<MemRef> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let proc = ProcId((x % 32) as u16);
                let addr = Addr((x >> 8) % (1 << 30));
                if x.is_multiple_of(4) {
                    MemRef::write(proc, addr)
                } else {
                    MemRef::read(proc, addr)
                }
            })
            .collect()
    }

    fn mapped_from(bytes: Vec<u8>) -> Result<SharedTrace, CodecError> {
        shared_from_mapping(Arc::new(Mapping::from_vec(bytes)))
    }

    #[test]
    fn mapped_parse_matches_owned_parse_on_random_traces() {
        use dsm_types::DecodedRef;
        for seed in [3, 17, 0xDEAD] {
            let refs = random_refs(seed, 777);
            let owned =
                SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
            let mut bytes = Vec::new();
            write_shared(&mut bytes, &owned).unwrap();
            let mapped = mapped_from(bytes).unwrap();
            assert_eq!(mapped.storage_mode(), "mapped");
            assert_eq!(mapped.topology(), owned.topology());
            assert_eq!(mapped.geometry(), owned.geometry());
            assert_eq!(mapped.len(), owned.len());
            let mut a = [DecodedRef::default(); crate::BATCH];
            let mut b = [DecodedRef::default(); crate::BATCH];
            let mut start = 0;
            loop {
                let n = owned.decode_batch(start, &mut a);
                assert_eq!(mapped.decode_batch(start, &mut b), n);
                if n == 0 {
                    break;
                }
                assert_eq!(a[..n], b[..n], "batch at {start}, seed {seed}");
                start += n;
            }
        }
    }

    #[test]
    fn open_shared_mapped_reads_files_zero_copy() {
        let refs = random_refs(42, 300);
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        let mut path = std::env::temp_dir();
        path.push(format!("dsm-codec-mmap-{}.dsmt", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = open_shared_mapped(&path).unwrap();
        assert_eq!(mapped.iter().collect::<Vec<_>>(), refs);
        #[cfg(all(
            target_os = "linux",
            any(target_arch = "x86_64", target_arch = "aarch64")
        ))]
        assert!(mapped.is_mapped());
        // The mapping outlives the directory entry: replay after unlink.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(mapped.get(0), refs[0]);
    }

    #[test]
    fn mapped_parse_rejects_truncation_as_eof() {
        let refs = random_refs(7, 100);
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        // Torn anywhere — mid-header, mid-proc-column, mid-addr-column —
        // must be a clean UnexpectedEof (exit code 3), never a panic.
        for keep in [3, 20, 34, 34 + 50, bytes.len() - 1] {
            let torn = bytes[..keep].to_vec();
            let err = mapped_from(torn).unwrap_err();
            match err {
                CodecError::Io(io) => assert_eq!(io.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("keep={keep}: expected Io(UnexpectedEof), got {other}"),
            }
        }
        let err: DsmError = mapped_from(bytes[..40].to_vec()).unwrap_err().into();
        assert_eq!(err.kind(), dsm_types::ErrorKind::BadInput);
    }

    #[test]
    fn mapped_parse_rejects_trailing_and_bad_records() {
        let refs = random_refs(9, 50);
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        let mut trailing = bytes.clone();
        trailing.push(0);
        let err = mapped_from(trailing).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        // Corrupt the proc column: processor 999 is outside the topology.
        let mut bad = bytes.clone();
        bad[34..36].copy_from_slice(&999u16.to_le_bytes());
        let err = mapped_from(bad).unwrap_err();
        assert!(err.to_string().contains("outside topology"), "{err}");
    }

    #[test]
    fn concurrent_readers_share_one_mapping() {
        use dsm_types::DecodedRef;
        let refs = random_refs(11, 500);
        let owned =
            SharedTrace::from_refs(Topology::paper_default(), Geometry::paper_default(), &refs);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &owned).unwrap();
        let mapped = mapped_from(bytes).unwrap();
        // Clones share the Arc'd mapping — the sweep-worker sharing shape.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let trace = mapped.clone();
                let want = &refs;
                s.spawn(move || {
                    let mut out = [DecodedRef::default(); crate::BATCH];
                    let mut start = 0;
                    loop {
                        let n = trace.decode_batch(start, &mut out);
                        if n == 0 {
                            break;
                        }
                        for (k, d) in out[..n].iter().enumerate() {
                            let r = want[start + k];
                            assert_eq!(d.write, r.op.is_write());
                            assert_eq!(d.block, Geometry::paper_default().block_of(r.addr));
                        }
                        start += n;
                    }
                    assert_eq!(start, want.len());
                });
            }
        });
    }

    #[test]
    fn large_trace_roundtrips_through_buffering() {
        // Exercise the writer's 64-KiB internal buffer boundary.
        let topo = Topology::paper_default();
        let trace: Vec<MemRef> = (0..10_000u64)
            .map(|i| {
                if i % 3 == 0 {
                    MemRef::write(ProcId((i % 32) as u16), Addr(i * 64))
                } else {
                    MemRef::read(ProcId((i % 32) as u16), Addr(i * 64))
                }
            })
            .collect();
        let shared = SharedTrace::from_refs(topo, Geometry::paper_default(), &trace);
        let mut bytes = Vec::new();
        write_shared(&mut bytes, &shared).unwrap();
        let back = read_shared(bytes.as_slice()).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), trace);
    }
}
