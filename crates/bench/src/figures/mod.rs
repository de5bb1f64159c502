//! One module per paper figure/table.
//!
//! Every module exposes `run(ts, kinds)` returning one or more
//! [`crate::FigureTable`]s with the same rows/series the paper plots;
//! `reproduce --figures <key>` prints one (keys `fig3`…`fig11`,
//! `fig6-tight`, `origin`; the tables head every run). Figure numbers
//! follow the paper:
//!
//! * [`tables`] — Tables 1 (latency components), 2 (event latencies),
//!   3 (benchmark characteristics);
//! * [`fig3`] — miss ratio vs cache associativity x victim-NC size;
//! * [`fig4`] — inclusion NC vs victim NC;
//! * [`fig5`] — block- vs page-indexed victim NC;
//! * [`fig6`] — adaptive vs fixed relocation threshold;
//! * [`fig7`] — page-cache size sweep for noNC/ncp/vbp;
//! * [`fig8`] — vbp vs vpp under a page cache;
//! * [`fig9`] — remote read stalls, normalized;
//! * [`fig10`] — remote data traffic, normalized;
//! * [`fig11`] — directory counters (ncp) vs victim-set counters (vxp);
//! * [`origin`] — supplementary: SGI-Origin-style migration/replication
//!   vs network caches (the paper's concluding hypothesis).

pub mod fig10;
pub mod fig11;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod origin;
pub mod tables;

use dsm_trace::WorkloadKind;

/// The paper's eight benchmarks, in its order.
#[must_use]
pub fn all_workloads() -> Vec<WorkloadKind> {
    WorkloadKind::all().to_vec()
}
