//! Small measurement helpers: quantiles, wall-clock timing, peak memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (`q = 0.5` is the median). NaN for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Whether a run should make another timed pass: always until it has
/// made `min` passes, then only while the next pass, taking as long as
/// the last one, would end within `seconds` of `start`. A pass is never
/// cut short, and the run does not overrun its measuring window.
pub fn more_passes(passes: &[f64], min: usize, start: Instant, seconds: f64) -> bool {
    match passes.last() {
        _ if passes.len() < min => true,
        Some(last) => start.elapsed().as_secs_f64() + last <= seconds,
        None => true,
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The global allocator: the system allocator, counting the bytes live
/// on the heap and their high-water mark. It passes every call through
/// unchanged, so the program allocates as it does in its own binaries.
pub struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Relaxed) + bytes;
    if live > PEAK_BYTES.load(Relaxed) {
        PEAK_BYTES.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded to `System` with its own arguments.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        p
    }
}

/// The peak of the bytes live on the heap since the last
/// [`reset_peak_heap`], in MB (10^6 bytes). Unlike the resident set, it
/// does not depend on how the allocator spreads memory over its arenas,
/// which varies with thread timing, nor on pages it keeps after a free.
/// Mapped trace files are not heap and do not count.
pub fn peak_heap_mb() -> f64 {
    PEAK_BYTES.load(Relaxed) as f64 / 1e6
}

/// Lowers the heap high-water mark to the bytes live now, so that
/// [`peak_heap_mb`] measures from here on and not the set-up before.
pub fn reset_peak_heap() {
    PEAK_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// The process's peak resident set since the last [`reset_peak_rss`], in
/// MB (10^6 bytes), from the kernel's high-water mark `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

/// Lowers the kernel's resident-set high-water mark to the current
/// resident set (Linux: "5" written to `/proc/self/clear_refs`), so that
/// [`peak_rss_mb`] measures from here on and not the set-up before.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak resident set: {e}"))
}

/// Resets both high-water marks: the heap's and the resident set's.
pub fn reset_peaks() -> Result<(), String> {
    reset_peak_heap();
    reset_peak_rss()
}

/// Words of a Linux `cpu_set_t` (1024 hardware threads).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Spreads repetitions of a single-threaded measurement over the
/// hardware threads the process may use, by pinning the calling thread
/// to each in turn. Left alone, the scheduler keeps a busy thread on one
/// hardware thread for a whole run, and on a shared host each hardware
/// thread goes through slow phases of its own, so a run would measure the
/// phase of one. The thread's own affinity is restored on drop, before
/// any threads it spawns later inherit it.
pub struct CpuRotation {
    original: [u64; CPU_SET_WORDS],
    cpus: Vec<usize>,
}

impl CpuRotation {
    pub fn new() -> Result<CpuRotation, String> {
        let mut original = [0u64; CPU_SET_WORDS];
        // SAFETY: the mask is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, size_of_val(&original), original.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_getaffinity: {}",
                std::io::Error::last_os_error()
            ));
        }
        let cpus = (0..CPU_SET_WORDS * 64)
            .filter(|&c| original[c / 64] >> (c % 64) & 1 == 1)
            .collect();
        Ok(CpuRotation { original, cpus })
    }

    /// Pins the calling thread to the `i`-th allowed hardware thread,
    /// counting round the allowed set.
    pub fn pin(&self, i: usize) -> Result<(), String> {
        let cpu = self.cpus[i % self.cpus.len()];
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&mask).map_err(|e| format!("pin to hardware thread {cpu}: {e}"))
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if let Err(e) = set_affinity(&self.original) {
            eprintln!("perfbench: cannot restore the thread's affinity: {e}");
        }
    }
}

fn set_affinity(mask: &[u64; CPU_SET_WORDS]) -> Result<(), std::io::Error> {
    // SAFETY: the mask is a readable buffer of the size passed.
    match unsafe { sched_setaffinity(0, size_of_val(mask), mask.as_ptr()) } {
        0 => Ok(()),
        _ => Err(std::io::Error::last_os_error()),
    }
}

/// Hardware threads available to this process (honours CPU affinity).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn passes_stop_before_the_window_overruns() {
        let start = Instant::now();
        assert!(more_passes(&[], 1, start, 10.0));
        assert!(more_passes(&[50.0], 2, start, 10.0));
        assert!(!more_passes(&[50.0, 50.0], 2, start, 10.0));
        assert!(more_passes(&[1.0], 1, start, 10.0));
    }

    #[test]
    fn heap_peak_follows_live_bytes() {
        reset_peak_heap();
        let base = peak_heap_mb();
        let mut v = vec![0u8; 4_000_000];
        v.extend_from_slice(&[1; 4_000_000]);
        let grown = peak_heap_mb();
        assert!(grown - base >= 8.0, "{base} -> {grown}");
        drop(v);
        assert_eq!(peak_heap_mb(), grown);
        reset_peak_heap();
        assert!(peak_heap_mb() < grown);
    }
}
