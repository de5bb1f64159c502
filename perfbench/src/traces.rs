//! Trace inputs: seeded processor permutations, and the generate → build
//! → encode → map pipeline timed call by call.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use dsm_trace::{open_shared_mapped, write_shared, Scale, SharedTrace, WorkloadKind};
use dsm_types::{ClusterId, Geometry, LocalProcId, ProcId, Topology};

use crate::stats::{timed, CpuRotation};

/// A seeded relabelling of the machine's processors: the clusters are
/// permuted, and so are the processors within each cluster. Processors
/// that shared a cluster still share one, so every seed runs the same
/// workload up to the machine's symmetry; a free permutation of all ids
/// would change each kernel's cluster locality, and with it the simulated
/// work. Seed 0 is the identity, so seed-0 inputs are the paper's traces.
/// Returns the new id of each processor id.
pub fn permutation(seed: u64, topo: &Topology) -> Vec<u16> {
    let mut perm: Vec<u16> = topo.proc_ids().map(|p| p.0).collect();
    if seed == 0 {
        return perm;
    }
    let mut state = seed;
    let mut shuffle = |v: &mut Vec<u16>| {
        for i in (1..v.len()).rev() {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            v.swap(i, (z % (i as u64 + 1)) as usize);
        }
    };
    let mut clusters: Vec<u16> = (0..topo.clusters()).collect();
    shuffle(&mut clusters);
    for c in topo.cluster_ids() {
        let mut locals: Vec<u16> = (0..topo.procs_per_cluster()).collect();
        shuffle(&mut locals);
        for (l, &to) in locals.iter().enumerate() {
            let from = topo.proc_of(c, LocalProcId(l as u16));
            let to = topo.proc_of(ClusterId(clusters[usize::from(c.0)]), LocalProcId(to));
            perm[from.index()] = to.0;
        }
    }
    perm
}

/// One workload kernel's trace as the benchmark holds it.
pub struct Kernel {
    /// Lowercase name, as reports carry it.
    pub name: String,
    /// Shared-data footprint (sizes fraction page caches).
    pub data_bytes: u64,
    /// The encoded v2 trace file.
    pub path: PathBuf,
}

/// Per-repetition host seconds of each pipeline stage, summed over the
/// kernels of one repetition.
#[derive(Default)]
pub struct StageTimes {
    pub generate: Vec<f64>,
    pub build: Vec<f64>,
    pub encode: Vec<f64>,
}

impl StageTimes {
    /// Setup seconds of each repetition: generate + build + encode.
    pub fn setup(&self) -> Vec<f64> {
        (0..self.generate.len())
            .map(|i| self.generate[i] + self.build[i] + self.encode[i])
            .collect()
    }
}

/// Generates each kernel at `scale`, renames its processors by `perm`,
/// builds the columnar trace and writes it as a v2 file under `dir`,
/// `reps` times over, each repetition on the next of `cpus`. Returns the
/// kernels, the heap-resident traces of the last repetition and the
/// per-repetition stage times.
pub fn build(
    kinds: &[WorkloadKind],
    scale: Scale,
    perm: &[u16],
    dir: &Path,
    reps: usize,
    cpus: &CpuRotation,
) -> Result<(Vec<Kernel>, Vec<SharedTrace>, StageTimes), String> {
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let mut times = StageTimes::default();
    let mut kernels = Vec::new();
    let mut heap = Vec::new();
    for rep in 0..reps {
        cpus.pin(rep)?;
        let (mut generate, mut build, mut encode) = (0.0, 0.0, 0.0);
        let last = rep + 1 == reps;
        for &kind in kinds {
            let w = kind.paper_instance();
            let (mut refs, s) = timed(|| w.generate(&topo, scale));
            generate += s;
            for r in &mut refs {
                r.proc = ProcId(perm[r.proc.index()]);
            }
            let (trace, s) = timed(|| SharedTrace::from_refs(topo, geo, &refs));
            build += s;
            drop(refs);
            let path = dir.join(format!("{}.dsmt", w.name()));
            let (written, s) = timed(|| write_file(&path, &trace));
            encode += s;
            written?;
            if last {
                kernels.push(Kernel {
                    name: w.name().to_owned(),
                    data_bytes: w.shared_bytes(),
                    path,
                });
                heap.push(trace);
            }
        }
        // Flush the files now, so their write-back does not run during
        // the timed passes.
        for &kind in kinds {
            let path = dir.join(format!("{}.dsmt", kind.paper_instance().name()));
            File::open(&path)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("sync {}: {e}", path.display()))?;
        }
        times.generate.push(generate);
        times.build.push(build);
        times.encode.push(encode);
    }
    Ok((kernels, heap, times))
}

fn write_file(path: &Path, trace: &SharedTrace) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    write_shared(&mut w, trace).map_err(|e| format!("encode {}: {e}", path.display()))?;
    w.flush()
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// Maps every kernel's file with the zero-copy loader (the
/// `simulate --trace --mmap` path). Returns the traces and the seconds
/// the mapping took.
pub fn map(kernels: &[Kernel]) -> Result<(Vec<SharedTrace>, f64), String> {
    let (traces, s) = timed(|| {
        kernels
            .iter()
            .map(|k| {
                open_shared_mapped(&k.path).map_err(|e| format!("map {}: {e}", k.path.display()))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    Ok((traces?, s))
}

/// [`map`], `reps` times over: the traces of the last mapping and the
/// seconds of each.
pub fn map_reps(kernels: &[Kernel], reps: usize) -> Result<(Vec<SharedTrace>, Vec<f64>), String> {
    let mut secs = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..reps {
        let (mapped, s) = map(kernels)?;
        secs.push(s);
        traces = mapped;
    }
    Ok((traces, secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_relabel_processors_within_the_cluster_structure() {
        let topo = Topology::paper_default();
        let identity: Vec<u16> = topo.proc_ids().map(|p| p.0).collect();
        assert_eq!(permutation(0, &topo), identity);
        let p = permutation(7, &topo);
        assert_ne!(p, identity);
        assert_eq!(p, permutation(7, &topo));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, identity);
        // Processors of one cluster land together in one cluster.
        for c in topo.cluster_ids() {
            let mut targets: Vec<ClusterId> = topo
                .procs_in(c)
                .map(|q| topo.cluster_of(ProcId(p[q.index()])))
                .collect();
            targets.dedup();
            assert_eq!(targets.len(), 1);
        }
    }
}
