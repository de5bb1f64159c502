//! End-to-end figure regeneration as benchmarks.
//!
//! Each benchmark runs one paper figure on one representative workload at
//! a reduced trace scale, timing the complete experiment (trace replay on
//! every system configuration of the figure). Before timing, each figure
//! also prints its (reduced-scale) table once, so `cargo bench` output
//! doubles as a quick reproduction check. For publication-shaped numbers
//! use the release `reproduce` binary (`--figures fig3` ... `--figures
//! fig11`, or every figure) at full scale.

use std::hint::black_box;

use dsm_bench::figures::{fig10, fig11, fig3, fig4, fig5, fig6, fig7, fig8, fig9};
use dsm_bench::tinybench::Tiny;
use dsm_bench::{FigureTable, TraceSet};
use dsm_trace::{Scale, WorkloadKind};
use dsm_types::DsmError;

const BENCH_SCALE: f64 = 0.1;

fn bench_figure(
    t: &mut Tiny,
    name: &str,
    kind: WorkloadKind,
    runner: fn(&mut TraceSet, &[WorkloadKind]) -> Result<FigureTable, DsmError>,
) {
    // Print the single-workload table once for eyeballing.
    let mut ts = TraceSet::new(Scale::new(BENCH_SCALE).unwrap());
    let table = runner(&mut ts, &[kind]).expect("figure run");
    println!(
        "[{name} @ scale {BENCH_SCALE}, {kind} only]\n{}",
        table.render()
    );

    t.bench(name, || {
        let mut ts = TraceSet::new(Scale::new(BENCH_SCALE).unwrap());
        black_box(runner(&mut ts, &[kind]).expect("figure run"));
    });
}

fn main() {
    let mut t = Tiny::from_args();
    t.group("figures");
    bench_figure(&mut t, "fig3_lu", WorkloadKind::Lu, fig3::run);
    bench_figure(&mut t, "fig4_radix", WorkloadKind::Radix, fig4::run);
    bench_figure(&mut t, "fig5_fmm", WorkloadKind::Fmm, fig5::run);
    bench_figure(&mut t, "fig6_radix", WorkloadKind::Radix, fig6::run);
    bench_figure(&mut t, "fig7_fmm", WorkloadKind::Fmm, fig7::run);
    bench_figure(&mut t, "fig8_ocean", WorkloadKind::Ocean, fig8::run);
    bench_figure(&mut t, "fig9_lu", WorkloadKind::Lu, fig9::run);
    bench_figure(&mut t, "fig10_radix", WorkloadKind::Radix, fig10::run);
    bench_figure(&mut t, "fig11_barnes", WorkloadKind::Barnes, fig11::run);
}
