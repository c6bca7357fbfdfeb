//! Tables 1 and 2 of the paper: the six workloads and 17 setups.
//!
//! Each [`Setup`] bundles a workload spec with the hardware and DBMS
//! configuration of one row of Table 2. The buffer-pool sizes mirror
//! Table 1's memory pressure: CPU-bound variants get a pool larger than
//! the database (everything cached after warm-up), I/O-bound variants a
//! pool two orders of magnitude smaller, and the balanced variant one that
//! half-fits — reproducing the paper's method of turning one benchmark
//! into qualitatively different workloads.

use crate::spec::WorkloadSpec;
use crate::{tpcc, tpcw};
use xsched_dbms::{DbmsConfig, HardwareConfig, IsolationLevel};

/// One experimental setup (a row of Table 2).
#[derive(Debug, Clone)]
pub struct Setup {
    /// Setup number, 1–17.
    pub id: u32,
    /// The workload spec (a row of Table 1).
    pub workload: WorkloadSpec,
    /// Hardware configuration (CPUs, disks, buffer pool).
    pub hw: HardwareConfig,
    /// DBMS configuration (isolation level; priority policies default off).
    pub cfg: DbmsConfig,
    /// Closed-system client population (100 throughout the paper).
    pub clients: u32,
}

/// Buffer-pool pages for each Table-1 workload.
fn pool_pages(workload: &str) -> u64 {
    match workload {
        "W_CPU-inventory" => 100_000,
        "W_CPU-browsing" => 100_000,
        "W_IO-inventory" => 10_000,
        "W_IO-browsing" => 10_000,
        "W_CPU+IO-inventory" => 40_000,
        "W_CPU-ordering" => 100_000,
        other => panic!("unknown workload {other}"),
    }
}

/// The six Table-1 workloads.
pub fn workloads() -> Vec<WorkloadSpec> {
    vec![
        tpcc::cpu_inventory(),
        tpcw::cpu_browsing(),
        tpcw::io_browsing(),
        tpcc::io_inventory(),
        tpcc::balanced_inventory(),
        tpcw::cpu_ordering(),
    ]
}

fn mk(id: u32, workload: WorkloadSpec, cpus: u32, disks: u32, iso: IsolationLevel) -> Setup {
    let hw = HardwareConfig::default()
        .with_cpus(cpus)
        .with_data_disks(disks)
        .with_bufferpool_pages(pool_pages(workload.name));
    let cfg = DbmsConfig::default().with_isolation(iso);
    Setup {
        id,
        workload,
        hw,
        cfg,
        clients: 100,
    }
}

/// Setup `i` of Table 2 (`1 ≤ i ≤ 17`).
pub fn setup(i: u32) -> Setup {
    use IsolationLevel::{RepeatableRead as RR, UncommittedRead as UR};
    match i {
        1 => mk(1, tpcc::cpu_inventory(), 1, 1, RR),
        2 => mk(2, tpcc::cpu_inventory(), 2, 1, RR),
        3 => mk(3, tpcw::cpu_browsing(), 1, 1, RR),
        4 => mk(4, tpcw::cpu_browsing(), 2, 1, RR),
        5 => mk(5, tpcc::io_inventory(), 1, 1, RR),
        6 => mk(6, tpcc::io_inventory(), 1, 2, RR),
        7 => mk(7, tpcc::io_inventory(), 1, 3, RR),
        8 => mk(8, tpcc::io_inventory(), 1, 4, RR),
        9 => mk(9, tpcw::io_browsing(), 1, 1, RR),
        10 => mk(10, tpcw::io_browsing(), 1, 4, RR),
        11 => mk(11, tpcc::balanced_inventory(), 1, 1, RR),
        12 => mk(12, tpcc::balanced_inventory(), 2, 4, RR),
        13 => mk(13, tpcw::cpu_ordering(), 1, 1, RR),
        14 => mk(14, tpcw::cpu_ordering(), 1, 1, UR),
        15 => mk(15, tpcw::cpu_ordering(), 2, 1, RR),
        16 => mk(16, tpcw::cpu_ordering(), 2, 1, UR),
        17 => mk(17, tpcc::cpu_inventory(), 1, 1, UR),
        other => panic!("Table 2 has setups 1..=17, not {other}"),
    }
}

impl Setup {
    /// 128-bit structural fingerprint of every field (workload, hardware,
    /// DBMS config, client population). Two setups fingerprint equal iff
    /// all their fields are bit-identical — the identity the measurement
    /// cache keys on, strong enough to distinguish `map_cfg` variants
    /// that share a setup id.
    pub fn stable_fingerprint(&self) -> (u64, u64) {
        // Exhaustive destructuring: a new Setup field must join the
        // fingerprint before this compiles again.
        let Setup {
            id,
            ref workload,
            ref hw,
            ref cfg,
            clients,
        } = *self;
        let mut fp = xsched_sim::StableFp::new();
        fp.write_u32(id);
        fp.write_u32(clients);
        workload.fingerprint_into(&mut fp);
        hw.fingerprint_into(&mut fp);
        cfg.fingerprint_into(&mut fp);
        fp.finish()
    }

    /// Functional update of the DBMS configuration — the idiom sweep plans
    /// use to express internal-policy variants (POW locks, CPU priorities,
    /// group commit, ...) as one-line setup literals.
    pub fn map_cfg(mut self, f: impl FnOnce(&mut DbmsConfig)) -> Setup {
        f(&mut self.cfg);
        self
    }
}

/// All 17 setups in order.
pub fn setups() -> Vec<Setup> {
    (1..=17).map(setup).collect()
}

/// All Table-2 setup ids, for sweep grids over the full matrix.
pub fn setup_ids() -> std::ops::RangeInclusive<u32> {
    1..=17
}

/// The setups satisfying `pred` — e.g. every I/O-bound row, or every
/// 2-CPU row — for callers assembling sweep rows by property rather than
/// by the `(label, id)` lists the bundled figures use.
pub fn setups_where(pred: impl Fn(&Setup) -> bool) -> Vec<Setup> {
    setups().into_iter().filter(pred).collect()
}

/// `(label, setup)` pairs from `(label, id)` shorthand — the row axis of a
/// figure-style sweep grid.
pub fn labeled_setups(rows: &[(&str, u32)]) -> Vec<(String, Setup)> {
    rows.iter()
        .map(|(label, id)| (label.to_string(), setup(*id)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_setups_with_hundred_clients() {
        let all = setups();
        assert_eq!(all.len(), 17);
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.id as usize, i + 1);
            assert_eq!(s.clients, 100);
        }
    }

    #[test]
    fn table2_hardware_matches_paper() {
        // Spot-check rows against Table 2.
        let s2 = setup(2);
        assert_eq!((s2.hw.cpus, s2.hw.data_disks), (2, 1));
        assert_eq!(s2.workload.name, "W_CPU-inventory");
        let s8 = setup(8);
        assert_eq!((s8.hw.cpus, s8.hw.data_disks), (1, 4));
        assert_eq!(s8.workload.name, "W_IO-inventory");
        let s12 = setup(12);
        assert_eq!((s12.hw.cpus, s12.hw.data_disks), (2, 4));
        assert_eq!(s12.workload.name, "W_CPU+IO-inventory");
    }

    #[test]
    fn isolation_levels_match_table2() {
        use IsolationLevel::*;
        assert_eq!(setup(1).cfg.isolation, RepeatableRead);
        assert_eq!(setup(14).cfg.isolation, UncommittedRead);
        assert_eq!(setup(16).cfg.isolation, UncommittedRead);
        assert_eq!(setup(17).cfg.isolation, UncommittedRead);
    }

    #[test]
    fn cpu_bound_pools_cover_their_databases() {
        for s in setups() {
            if s.workload.name.starts_with("W_CPU-") {
                assert!(
                    s.hw.bufferpool_pages >= s.workload.db_pages,
                    "setup {}: pool smaller than db",
                    s.id
                );
            }
            if s.workload.name.starts_with("W_IO") {
                assert!(
                    s.hw.bufferpool_pages * 10 <= s.workload.db_pages,
                    "setup {}: pool too large for an I/O-bound workload",
                    s.id
                );
            }
        }
    }

    #[test]
    fn six_distinct_workloads() {
        let names: Vec<&str> = workloads().iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 6);
        let mut uniq = names.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), 6);
    }

    #[test]
    #[should_panic(expected = "Table 2")]
    fn setup_zero_rejected() {
        setup(0);
    }

    #[test]
    fn grid_helpers_enumerate_and_filter() {
        assert_eq!(setup_ids().count(), 17);
        let io = setups_where(|s| s.workload.name.starts_with("W_IO"));
        assert_eq!(io.len(), 6); // setups 5..=10
        assert!(io.iter().all(|s| (5..=10).contains(&s.id)));
        let rows = labeled_setups(&[("one cpu", 1), ("two cpus", 2)]);
        assert_eq!(rows[0].0, "one cpu");
        assert_eq!(rows[1].1.hw.cpus, 2);
    }

    #[test]
    fn map_cfg_updates_in_place() {
        use xsched_dbms::IsolationLevel;
        let s = setup(1).map_cfg(|c| c.isolation = IsolationLevel::UncommittedRead);
        assert_eq!(s.cfg.isolation, IsolationLevel::UncommittedRead);
    }
}
