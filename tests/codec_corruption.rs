//! Property tests for the `DSMT` trace codec under corruption: **no**
//! truncation or bit-flip of a valid trace file may panic the decoder,
//! and no *truncation* may silently decode to a trace of the wrong
//! length — the decoder must either return the original reference count
//! or an error. Every property is checked through both entry points:
//! [`read_shared`] (bytes read into memory) and [`open_shared_mapped`]
//! (the file mapped read-only).
//!
//! Bit-flips are weaker by nature (a flipped address bit still decodes
//! to a well-formed trace), so for them the contract is: never panic,
//! and any successful decode must be consistent with the length the
//! (possibly corrupted) header declares.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use dsm_trace::rng::TraceRng;
use dsm_trace::{open_shared_mapped, read_shared, write_shared, CodecError, SharedTrace};
use dsm_types::{Addr, DsmError, ErrorKind, Geometry, MemOp, MemRef, ProcId, Topology};

fn sample_refs(topo: &Topology) -> Vec<MemRef> {
    let mut rng = TraceRng::for_workload("codec-corruption", 7);
    (0..257)
        .map(|_| {
            let proc = ProcId(rng.below(u64::from(topo.total_procs())) as u16);
            let op = if rng.chance(0.3) {
                MemOp::Write
            } else {
                MemOp::Read
            };
            MemRef::new(proc, op, Addr(rng.below(1 << 20) & !3))
        })
        .collect()
}

fn encoded() -> (Vec<u8>, usize) {
    let topo = Topology::new(4, 2).expect("topology");
    let refs = sample_refs(&topo);
    let trace = SharedTrace::from_refs(topo, Geometry::paper_default(), &refs);
    let mut bytes = Vec::new();
    write_shared(&mut bytes, &trace).expect("encode");
    (bytes, refs.len())
}

/// A scratch file for the mapped decoder, unique to one test so the
/// tests of this binary can run concurrently.
fn scratch_path(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dsm-codec-corruption-{test}-{}.dsmt",
        std::process::id()
    ))
}

/// Decodes `bytes` through both entry points inside `catch_unwind`,
/// panicking the test if either decoder itself panics. Returns each
/// decode's result: the reference count, or the error.
fn decode_both(bytes: &[u8], path: &Path, what: &str) -> [Result<usize, CodecError>; 2] {
    let read = catch_unwind(AssertUnwindSafe(|| read_shared(bytes).map(|t| t.len())))
        .unwrap_or_else(|_| panic!("read_shared panicked on {what}"));
    std::fs::write(path, bytes).expect("write scratch trace");
    let mapped = catch_unwind(AssertUnwindSafe(|| {
        open_shared_mapped(path).map(|t| t.len())
    }))
    .unwrap_or_else(|_| panic!("open_shared_mapped panicked on {what}"));
    [read, mapped]
}

#[test]
fn every_truncation_errors_or_roundtrips_exactly() {
    let path = scratch_path("truncation");
    let (bytes, n_refs) = encoded();
    for cut in 0..bytes.len() {
        let what = format!("file truncated to {cut}/{} bytes", bytes.len());
        for (decoder, result) in ["read_shared", "open_shared_mapped"]
            .into_iter()
            .zip(decode_both(&bytes[..cut], &path, &what))
        {
            // A strict prefix of a valid file can never carry the whole
            // trace: accepting it with any length is silent corruption.
            let err = match result {
                Ok(len) => panic!("{decoder} accepted {what} as {len} refs"),
                Err(e) => DsmError::from(e),
            };
            // ...and a torn file is the input's fault (exit code 3).
            assert_eq!(
                err.kind(),
                ErrorKind::BadInput,
                "{decoder} on {what}: {err}"
            );
        }
    }
    // Sanity: the untruncated bytes decode to the full trace.
    for result in decode_both(&bytes, &path, "intact file") {
        assert_eq!(result.ok(), Some(n_refs), "roundtrip length");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn appended_garbage_is_rejected() {
    let path = scratch_path("trailing");
    let (mut bytes, _) = encoded();
    bytes.extend_from_slice(b"trailing debris");
    for result in decode_both(&bytes, &path, "file with trailing bytes") {
        let err = result.expect_err("trailing bytes accepted");
        assert!(err.to_string().contains("trailing"), "{err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn random_bit_flips_never_panic_the_decoder() {
    let path = scratch_path("bitflip");
    let mut rng = TraceRng::for_workload("codec-bitflip", 11);
    let (bytes, _) = encoded();
    for _ in 0..400 {
        let mut corrupted = bytes.clone();
        // Flip 1-4 random bits anywhere in the file (header, count,
        // proc column, op bitmap, address words).
        let flips = 1 + rng.below(4) as usize;
        for _ in 0..flips {
            let at = rng.below(corrupted.len() as u64) as usize;
            corrupted[at] ^= 1 << rng.below(8);
        }
        // If a decode still succeeds, its length must be the count the
        // (possibly corrupted) header declares at bytes 26..34 — i.e.
        // the decoder checked its framing and found the payload
        // consistent, not merely read until the data ran out.
        let mut declared = [0u8; 8];
        declared.copy_from_slice(&corrupted[26..34]);
        let declared = u64::from_le_bytes(declared);
        for len in decode_both(&corrupted, &path, "bit-flipped file")
            .into_iter()
            .flatten()
        {
            assert_eq!(
                len as u64, declared,
                "decoded length differs from the header's"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}
