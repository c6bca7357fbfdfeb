//! Golden determinism tests for the `figures` pivot tables.
//!
//! fig2, fig3 and fig12 (simulation-backed, `--quick` scale) and fig7
//! (analytic) are rendered to strings and compared byte-for-byte against
//! checked-in snapshots. Anything that moves these tables — simulator
//! behaviour, CI/table formatting, column layout — now fails loudly and
//! must be a deliberate snapshot update:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p xsched-bench --test golden
//! ```
//!
//! The snapshots double as cross-machine determinism evidence: the same
//! commit must print the same bytes on every host and thread count.

use xsched_bench::{
    chaos_report, chaos_specs, controller_report, fig12_report, fig2_report, fig3_report,
    fig7_report, quick_rc, quick_rc_heavy, SweepOpts,
};
use xsched_core::{Driver, Targets};

fn check(name: &str, rendered: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, rendered).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden snapshot {path:?}: {e}"));
    assert_eq!(
        rendered, want,
        "rendered {name} drifted from its golden snapshot; if the change \
         is deliberate, regenerate with UPDATE_GOLDEN=1"
    );
}

/// fig2 in `--quick` mode (the exact configuration the CLI uses) must
/// render byte-identically, regardless of worker thread count.
#[test]
fn fig2_quick_table_matches_golden_snapshot() {
    let opts = SweepOpts {
        threads: 0,
        ..Default::default()
    };
    let report = fig2_report(&quick_rc(), &opts);
    check("fig2_quick.txt", &report);
    // The determinism claim itself: another pass under a different
    // thread count prints the same bytes.
    let serial = SweepOpts {
        threads: 1,
        ..Default::default()
    };
    assert_eq!(report, fig2_report(&quick_rc(), &serial));
}

/// fig3 in `--quick` mode is the golden on an evicting buffer pool: its
/// I/O-bound setups (5–10) hold only part of the database, so cold pages
/// miss, are read from disk and evict the least recently used page, and
/// most of them have ids at or above the pool's capacity.
#[test]
fn fig3_quick_table_matches_golden_snapshot() {
    let opts = SweepOpts {
        threads: 0,
        ..Default::default()
    };
    let report = fig3_report(&quick_rc(), &opts);
    check("fig3_quick.txt", &report);
    let serial = SweepOpts {
        threads: 1,
        ..Default::default()
    };
    assert_eq!(report, fig3_report(&quick_rc(), &serial));
}

/// fig12 in `--quick` mode is the one golden on the priority-lock path
/// (`LockPriorityPolicy::PreemptOnWait` on setup 1): it pins lock-queue
/// reordering, deadlock victims under priority, and the `max_restarts`
/// lock-free guard, which fires in this figure.
#[test]
fn fig12_quick_table_matches_golden_snapshot() {
    let opts = SweepOpts {
        threads: 0,
        ..Default::default()
    };
    let report = fig12_report(&quick_rc_heavy(), &opts);
    check("fig12_quick.txt", &report);
    let serial = SweepOpts {
        threads: 1,
        ..Default::default()
    };
    assert_eq!(report, fig12_report(&quick_rc_heavy(), &serial));
}

/// fig7 is analytic (MVA): the snapshot pins number formatting and the
/// 80%/95% MPL loci.
#[test]
fn fig7_table_matches_golden_snapshot() {
    check("fig7.txt", &fig7_report());
}

/// The controller telemetry series — per-tick MPL setpoint, queue
/// length, throughput, and response-time percentiles — must be
/// bit-stable: the snapshot pins the exact float bits of every tick of
/// a `--quick`-scale 20%-target session on setup 1.
#[test]
fn controller_series_quick_matches_golden_snapshot() {
    let d = Driver::new(xsched_workload::setup(1)).with_config(quick_rc());
    let mut series = Default::default();
    d.session(Targets::twenty_percent(), None, None, Some(&mut series));
    assert!(!series.is_empty(), "a converging session emits ticks");
    check("controller_series_quick.txt", &series.encode_text());
    // Determinism claim: a second session reproduces the same bytes.
    let mut again = Default::default();
    d.session(Targets::twenty_percent(), None, None, Some(&mut again));
    assert_eq!(series.encode_text(), again.encode_text());
}

/// Controller sessions on the three high-C² setups whose jump-starts
/// sit highest (3, 4 and 14 start at MPL 50, 95 and 65): pins the
/// analytic QBD search at the MPLs where the response-time model, not
/// the throughput model, sets the jump-start.
#[test]
fn controller_highc2_quick_table_matches_golden_snapshot() {
    let opts = SweepOpts {
        threads: 0,
        ..Default::default()
    };
    let report = controller_report(&quick_rc_heavy(), &[3, 4, 14], &opts);
    check("controller_highc2_quick.txt", &report);
}

/// The chaos robustness figure in `--quick` mode must render
/// byte-identically at any worker thread count — the fault injectors
/// and traffic shapers draw from derived RNG streams, so chaos cells
/// are as deterministic as plain ones.
#[test]
fn chaos_quick_table_matches_golden_snapshot() {
    let opts = SweepOpts {
        threads: 0,
        ..Default::default()
    };
    let report = chaos_report(&quick_rc_heavy(), &opts);
    check("chaos_quick.txt", &report);
    let serial = SweepOpts {
        threads: 1,
        ..Default::default()
    };
    assert_eq!(report, chaos_report(&quick_rc_heavy(), &serial));
}

/// The per-window telemetry of one chaos session (the stall row of the
/// quick figure) pinned to the bit: every reaction's time, setpoint,
/// queue length, throughput, and response-time percentiles.
#[test]
fn chaos_series_quick_matches_golden_snapshot() {
    let specs = chaos_specs(&quick_rc_heavy());
    let (label, spec) = &specs[0];
    assert_eq!(*label, "stall");
    let d = Driver::new(xsched_workload::setup(1)).with_config(quick_rc_heavy());
    let targets = Targets::twenty_percent();
    let mut series = Default::default();
    let out = d.session(targets, None, Some(spec), Some(&mut series));
    assert!(out.post_onset_windows > 0, "onset inside the session");
    assert!(!series.is_empty(), "a chaos session emits ticks");
    check("chaos_series_quick.txt", &series.encode_text());
    let mut again = Default::default();
    d.session(targets, None, Some(spec), Some(&mut again));
    assert_eq!(series.encode_text(), again.encode_text());
}
