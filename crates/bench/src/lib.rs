//! Experiment harnesses that regenerate every table and figure of the
//! paper.
//!
//! Each figure has a module under [`figures`] exposing a `run` function
//! returning printable rows. One front-end prints them: `cargo run -p
//! dsm-bench --release --bin reproduce` runs everything and emits the
//! data behind `EXPERIMENTS.md`, and `reproduce --figures fig3,fig6`
//! (keys `fig3`…`fig11`, `fig6-tight`, `origin`) runs a subset. Tables
//! 1-3 head every run.
//!
//! Traces are generated **once per workload** and shared across all system
//! configurations of a figure — the paper's methodology (every system sees
//! the same reference stream).
//!
//! Trace lengths are controlled by a scale factor in `(0, 1]` (see
//! `dsm_trace::Scale`), settable with `--scale <f>` or the
//! `DSM_SCALE` environment variable; the default is 1.0 (full-length
//! traces, minutes of runtime in release mode).
//!
//! Sweeps execute on the parallel engine in [`sweep`]: every (system,
//! workload) point of a figure is enumerated as a [`sweep::SweepPoint`]
//! and run on a scoped-thread worker pool sharing the workload's
//! immutable trace, with results returned in submission order so the
//! output is byte-identical to a serial run. `--jobs <n>` (or `DSM_JOBS`)
//! sizes the pool; `--jobs 1` is the exact legacy serial
//! path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod journal;
pub mod sweep;
pub mod tinybench;

pub use harness::{install_fault_plan, FigureTable, RunArgs, TraceSet};
pub use journal::SweepJournal;
pub use sweep::{run_sweep, Jobs, PointFailure, SweepOutcome, SweepPoint};
