//! Workload-level integration: every kernel runs end-to-end on several
//! system configurations, and the cross-workload character the paper's
//! analysis relies on (regular vs irregular) shows up in the metrics.

use dsm_core::runner::run_trace;
use dsm_core::{PcSize, Report, SystemSpec};
use dsm_trace::{Scale, SharedTrace, WorkloadKind};
use dsm_types::{Geometry, Topology};

fn run_dev(kind: WorkloadKind, specs: &[SystemSpec], scale: f64) -> Vec<Report> {
    let w = kind.dev_instance();
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let refs = w.generate(&topo, Scale::new(scale).unwrap());
    let trace = SharedTrace::from_refs(topo, geo, &refs);
    specs
        .iter()
        .map(|s| run_trace(s, w.name(), w.shared_bytes(), &trace).unwrap())
        .collect()
}

#[test]
fn every_workload_runs_on_every_headline_system() {
    let specs = [
        SystemSpec::base(),
        SystemSpec::nc(),
        SystemSpec::vb(),
        SystemSpec::vp(),
        SystemSpec::ncd(),
        SystemSpec::ncs(),
        SystemSpec::ncp(PcSize::DataFraction(5)),
        SystemSpec::vxp(PcSize::DataFraction(5), 32),
    ];
    for kind in WorkloadKind::all() {
        let reports = run_dev(kind, &specs, 0.3);
        for r in &reports {
            assert_eq!(r.refs, r.metrics.shared_refs, "{kind}/{}", r.system);
            assert!(r.refs > 1000, "{kind}/{}", r.system);
        }
        // All systems process the identical trace.
        let refs = reports[0].refs;
        assert!(reports.iter().all(|r| r.refs == refs), "{kind}");
    }
}

#[test]
fn regular_kernels_have_lower_miss_ratios_than_irregular() {
    let spec = [SystemSpec::base()];
    let regular = [WorkloadKind::Fft, WorkloadKind::Lu, WorkloadKind::Ocean];
    let irregular = [WorkloadKind::Fmm, WorkloadKind::Raytrace];
    let avg = |kinds: &[WorkloadKind]| -> f64 {
        let mut sum = 0.0;
        for &k in kinds {
            let r = &run_dev(k, &spec, 0.3)[0];
            sum += r.read_miss_ratio + r.write_miss_ratio;
        }
        sum / kinds.len() as f64
    };
    let reg = avg(&regular);
    let irr = avg(&irregular);
    assert!(
        irr > reg * 2.0,
        "irregular ({irr:.4}) should dwarf regular ({reg:.4})"
    );
}

#[test]
fn radix_is_write_miss_dominated() {
    let r = &run_dev(WorkloadKind::Radix, &[SystemSpec::base()], 0.5)[0];
    assert!(
        r.write_miss_ratio > r.read_miss_ratio,
        "radix: write {:.4} vs read {:.4}",
        r.write_miss_ratio,
        r.read_miss_ratio
    );
}

#[test]
fn raytrace_is_read_miss_dominated() {
    let r = &run_dev(WorkloadKind::Raytrace, &[SystemSpec::base()], 0.5)[0];
    assert!(r.read_miss_ratio > r.write_miss_ratio * 5.0);
}

#[test]
fn first_touch_placement_keeps_most_references_local() {
    // The SPLASH-2 codes are tuned for first-touch: misses to remote data
    // must be a minority of all misses for the regular kernels.
    for kind in [WorkloadKind::Lu, WorkloadKind::Ocean] {
        let r = &run_dev(kind, &[SystemSpec::base()], 0.5)[0];
        let m = &r.metrics;
        let remote = m.remote_read_misses() + m.remote_write_misses();
        let local = m.local_misses;
        assert!(
            local > remote,
            "{kind}: local misses {local} <= remote {remote}"
        );
    }
}

#[test]
fn victim_capture_rate_tracks_locality() {
    // Irregular kernels generate more NC captures per reference than
    // regular ones (more victimized remote blocks).
    let vb = [SystemSpec::vb()];
    let fmm = &run_dev(WorkloadKind::Fmm, &vb, 0.3)[0];
    let lu = &run_dev(WorkloadKind::Lu, &vb, 0.3)[0];
    let rate = |r: &Report| r.metrics.nc_captures as f64 / r.refs as f64;
    assert!(
        rate(fmm) > rate(lu),
        "fmm {:.5} vs lu {:.5}",
        rate(fmm),
        rate(lu)
    );
}

#[test]
fn per_cluster_counts_sum_to_global() {
    use dsm_core::System;
    use dsm_types::ClusterId;
    let w = WorkloadKind::Fft.dev_instance();
    let topo = Topology::paper_default();
    let geo = Geometry::paper_default();
    let mut sys = System::new(
        SystemSpec::vbp(PcSize::DataFraction(5)),
        topo,
        geo,
        w.shared_bytes(),
    )
    .unwrap();
    let refs = w.generate(&topo, Scale::new(0.3).unwrap());
    sys.run_shared(&SharedTrace::from_refs(topo, geo, &refs));
    let m = sys.metrics();
    let mut refs = 0;
    let mut remote_reads = 0;
    let mut remote_writes = 0;
    let mut nc_hits = 0;
    let mut pc_hits = 0;
    let mut relocations = 0;
    for c in topo.cluster_ids() {
        let cc = sys.cluster_counts(c);
        refs += cc.refs;
        remote_reads += cc.remote_reads;
        remote_writes += cc.remote_writes;
        nc_hits += cc.nc_hits;
        pc_hits += cc.pc_hits;
        relocations += cc.relocations;
    }
    assert_eq!(refs, m.shared_refs);
    assert_eq!(remote_reads, m.remote_read_misses());
    assert_eq!(remote_writes, m.remote_write_misses());
    assert_eq!(nc_hits, m.nc_read_hits + m.nc_write_hits);
    assert_eq!(pc_hits, m.pc_read_hits + m.pc_write_hits);
    assert_eq!(relocations, m.relocations);
    // Every cluster participates in a well-balanced SPLASH-2 kernel.
    for c in topo.cluster_ids() {
        assert!(sys.cluster_counts(c).refs > 0, "{c} idle");
    }
    let _ = ClusterId(0);
}

#[test]
fn traffic_decomposition_is_consistent() {
    for kind in WorkloadKind::all() {
        let r = &run_dev(kind, &[SystemSpec::vbp(PcSize::DataFraction(5))], 0.3)[0];
        let m = &r.metrics;
        assert_eq!(
            r.remote_traffic,
            m.remote_read_misses() + m.remote_write_misses() + m.remote_writebacks,
            "{kind}"
        );
    }
}
