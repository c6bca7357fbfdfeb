//! Cross-crate integration tests: workload → external scheduler →
//! simulated DBMS, checked against the paper's qualitative claims.

use extsched::core::{Driver, PolicyKind, RunConfig, Targets};
use extsched::workload::{setup, ArrivalProcess};

fn quick() -> RunConfig {
    RunConfig {
        warmup_txns: 100,
        measured_txns: 800,
        ..Default::default()
    }
}

#[test]
fn throughput_rises_then_plateaus_cpu_bound() {
    // Fig. 2 shape on setup 1: clear rise to a knee near MPL 5, then flat.
    let d = Driver::new(setup(1)).with_config(quick());
    let r = d.throughput_curve(&[1, 3, 5, 10, 20]);
    let t: Vec<f64> = r.iter().map(|x| x.throughput).collect();
    assert!(t[1] > 1.4 * t[0], "MPL 3 ≫ MPL 1: {t:?}");
    assert!(t[2] > 0.9 * t[4], "MPL 5 is near the plateau: {t:?}");
    assert!((t[3] - t[4]).abs() / t[4] < 0.15, "plateau is flat: {t:?}");
}

#[test]
fn io_bound_knee_grows_with_disks() {
    // Fig. 3: the MPL needed to reach (near-)max throughput grows with the
    // number of disks.
    let knee = |id: u32| -> u32 {
        let d = Driver::new(setup(id)).with_config(quick());
        let grid = [1u32, 2, 3, 5, 7, 10, 15, 20];
        let r = d.throughput_curve(&grid);
        let max = r.iter().map(|x| x.throughput).fold(0.0, f64::max);
        grid.iter()
            .zip(&r)
            .find(|(_, x)| x.throughput >= 0.9 * max)
            .map(|(m, _)| *m)
            .unwrap()
    };
    let k1 = knee(5); // 1 disk
    let k4 = knee(8); // 4 disks
    assert!(k1 <= 3, "1 disk saturates almost immediately: {k1}");
    assert!(k4 > k1, "4 disks need a higher MPL: {k1} vs {k4}");
}

#[test]
fn rr_thrashes_where_ur_does_not() {
    // Fig. 5: at very high concurrency the heavy-locking (RR) variant
    // loses throughput while UR holds it.
    let run = |id: u32| {
        Driver::new(setup(id))
            .with_config(quick())
            .run(100, PolicyKind::Fifo, &ArrivalProcess::saturated(100))
            .throughput
    };
    // Fig. 5b pair (ordering mix, where upgrade deadlocks bite hardest).
    let rr = run(13);
    let ur = run(14);
    assert!(
        ur > 1.1 * rr,
        "UR should clearly beat RR at 100 concurrent: rr={rr:.1} ur={ur:.1}"
    );
    // Fig. 5a pair (inventory mix): direction must hold.
    let rr = run(1);
    let ur = run(17);
    assert!(
        ur >= 0.99 * rr,
        "UR must not lose to RR: rr={rr:.1} ur={ur:.1}"
    );
}

#[test]
fn external_priority_differentiates_and_overall_barely_suffers() {
    // Fig. 11, one setup: high priority an order of magnitude faster than
    // low, and the overall mean not much above the no-priority baseline.
    let d = Driver::new(setup(1)).with_config(quick());
    let o = d.priority_experiment(0.05);
    assert!(o.differentiation() > 3.0, "weak differentiation: {:?}", o);
    assert!(
        o.rt_overall < 1.3 * o.rt_noprio,
        "overall mean should not explode: {} vs {}",
        o.rt_overall,
        o.rt_noprio
    );
    assert!(
        o.rt_high < o.rt_noprio,
        "high priority must beat the baseline"
    );
}

#[test]
fn controller_converges_within_paper_bound() {
    for id in [1u32, 5] {
        let d = Driver::new(setup(id)).with_config(quick());
        let o = d.run_controller(Targets::twenty_percent());
        assert!(o.converged, "setup {id} did not converge: {o:?}");
        assert!(
            o.iterations < 10,
            "setup {id}: {} iterations (paper bound <10)",
            o.iterations
        );
    }
}

#[test]
fn jumpstart_beats_cold_start() {
    let d = Driver::new(setup(5)).with_config(quick());
    let warm = d.session(Targets::five_percent(), None, None, None);
    let cold = d.session(Targets::five_percent(), Some(1), None, None);
    assert!(warm.converged && cold.converged);
    assert!(
        warm.iterations <= cold.iterations,
        "jump-start should not be slower: warm {} vs cold {}",
        warm.iterations,
        cold.iterations
    );
}

#[test]
fn open_system_mean_rt_insensitive_above_knee_for_tpcc() {
    // §3.2: for TPC-C-like (C² ≈ 1.3) workloads, response time is
    // insensitive to the MPL provided it is at least ~4.
    let d = Driver::new(setup(1)).with_config(quick());
    let cap = d.reference().throughput;
    let arr = ArrivalProcess::open(0.7 * cap);
    let r4 = d.run(4, PolicyKind::Fifo, &arr).mean_rt;
    let r30 = d.run(30, PolicyKind::Fifo, &arr).mean_rt;
    assert!(
        (r4 - r30).abs() / r30 < 0.6,
        "TPC-C open-system RT should be flat above MPL 4: {r4} vs {r30}"
    );
}

#[test]
fn runs_are_bitwise_reproducible() {
    let d = Driver::new(setup(3)).with_config(quick());
    let a = d.run(5, PolicyKind::Priority, &d.saturated());
    let b = d.run(5, PolicyKind::Priority, &d.saturated());
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(a.rt_high.to_bits(), b.rt_high.to_bits());
    assert_eq!(a.count_low, b.count_low);
}

#[test]
fn sjf_beats_fifo_on_mean_response_time() {
    // The SJF extension: with a high-variability workload and a low MPL,
    // shortest-job-first lowers overall mean response time vs FIFO.
    let d = Driver::new(setup(3)).with_config(quick());
    let fifo = d.run(5, PolicyKind::Fifo, &d.saturated());
    let sjf = d.run(5, PolicyKind::Sjf, &d.saturated());
    assert!(
        sjf.mean_rt < fifo.mean_rt,
        "SJF should win on mean RT: {} vs {}",
        sjf.mean_rt,
        fifo.mean_rt
    );
}
