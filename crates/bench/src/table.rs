//! The shared report builder: sweep results → pivoted text tables.
//!
//! Every simulation-backed figure renders through [`pivot_table`]: rows
//! are the distinct `Scenario::row` labels (curves, setups, schemes),
//! columns are [`Col`] specs naming a `Scenario::col` label and a metric,
//! and each cell aggregates that metric over the scenario's replications —
//! printed as `mean ±hw` (95% Student-t) once there is more than one seed.
//!
//! One builder instead of fifteen hand-rolled loops: a new figure is a
//! plan plus a column list.

use crate::fmt::table;
use xsched_core::ScenarioResult;

/// Formatting function for a scalar cell value.
pub type Fmt = fn(f64) -> String;

/// One output column: which scenario column it reads, which metric, how
/// it is labelled and formatted.
#[derive(Clone)]
pub struct Col {
    /// `Scenario::col` label this column selects (empty string selects
    /// scenarios with an empty col label — the row-per-scenario shape).
    pub col: String,
    /// Metric name as reported by `ScenarioOutcome::metrics`.
    pub metric: &'static str,
    /// Column header.
    pub header: String,
    /// Cell formatter.
    pub fmt: Fmt,
}

impl Col {
    /// A column reading `metric` from scenarios labelled `col`.
    pub fn new(
        col: impl Into<String>,
        metric: &'static str,
        header: impl Into<String>,
        fmt: Fmt,
    ) -> Col {
        Col {
            col: col.into(),
            metric,
            header: header.into(),
            fmt,
        }
    }

    /// A column for row-per-scenario tables (empty `col` selector).
    pub fn metric(metric: &'static str, header: impl Into<String>, fmt: Fmt) -> Col {
        Col::new("", metric, header, fmt)
    }
}

/// Render one aggregated cell: the replication mean, with `±half-width`
/// appended when ≥ 2 replications make the Student-t interval finite.
///
/// Failure semantics (keep-going sweeps): a cell whose every replication
/// failed renders `FAILED`; a cell where some replications failed renders
/// the surviving mean with a trailing `!` — marked, never silently
/// averaged away.
fn cell(r: Option<&ScenarioResult>, metric: &str, fmt: Fmt) -> String {
    let Some(r) = r else {
        return "-".to_string();
    };
    if !r.failures.is_empty() && r.outcomes.is_empty() {
        return "FAILED".to_string();
    }
    let mark = if r.failures.is_empty() { "" } else { "!" };
    match r.reps.get(metric) {
        None => "-".to_string(),
        Some(w) if w.count() < 2 => format!("{}{mark}", fmt(w.mean())),
        Some(w) => {
            let ci = w.confidence_interval(0.95);
            format!("{} ±{}{mark}", fmt(ci.mean), fmt(ci.half_width))
        }
    }
}

/// Pivot sweep results into a text table.
///
/// `stub` is the header of the leading label column. Row order follows
/// first appearance in `results`, which follows plan order — reports are
/// deterministic.
pub fn pivot_table(stub: &str, results: &[ScenarioResult], cols: &[Col]) -> String {
    let mut row_labels: Vec<&str> = Vec::new();
    for r in results {
        let label = r.scenario.row.as_str();
        if !row_labels.contains(&label) {
            row_labels.push(label);
        }
    }

    let lookup = |row: &str, col: &Col| -> Option<&ScenarioResult> {
        results
            .iter()
            .find(|r| r.scenario.row == row && r.scenario.col == col.col)
    };

    let rows: Vec<Vec<String>> = row_labels
        .iter()
        .map(|row| {
            let mut cells = vec![row.to_string()];
            cells.extend(cols.iter().map(|c| cell(lookup(row, c), c.metric, c.fmt)));
            cells
        })
        .collect();

    let mut headers: Vec<&str> = vec![stub];
    headers.extend(cols.iter().map(|c| c.header.as_str()));
    table(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmt::f1;
    use xsched_core::{RunConfig, Scenario, SweepExecutor, SweepPlan, TaskError};
    use xsched_workload::setup;

    fn tiny_results(seeds: usize) -> Vec<ScenarioResult> {
        let rc = RunConfig {
            warmup_txns: 30,
            measured_txns: 150,
            ..Default::default()
        };
        let scenarios = vec![
            Scenario::tput("curve", setup(1), 1, rc.clone()),
            Scenario::tput("curve", setup(1), 5, rc),
        ];
        SweepExecutor::parallel(0).run(&SweepPlan::new(scenarios).replicated(seeds, 42))
    }

    #[test]
    fn single_seed_cells_are_point_estimates() {
        let t = pivot_table(
            "curve",
            &tiny_results(1),
            &[
                Col::new("MPL 1", "throughput", "MPL 1", f1),
                Col::new("MPL 5", "throughput", "MPL 5", f1),
            ],
        );
        assert!(t.contains("curve"));
        assert!(
            !t.contains('±'),
            "one replication must not print a CI:\n{t}"
        );
    }

    #[test]
    fn replicated_cells_carry_confidence_intervals() {
        let t = pivot_table(
            "curve",
            &tiny_results(3),
            &[Col::new("MPL 5", "throughput", "MPL 5", f1)],
        );
        assert!(t.contains('±'), "3 replications must print CIs:\n{t}");
    }

    #[test]
    fn missing_cells_render_as_dash() {
        let t = pivot_table(
            "curve",
            &tiny_results(1),
            &[Col::new("MPL 99", "throughput", "MPL 99", f1)],
        );
        assert!(t.lines().nth(2).unwrap().trim().ends_with('-'));
    }

    #[test]
    fn fully_failed_cells_render_failed() {
        // A high-priority fraction of 2.0 fails every replication of the
        // MPL 1 cell; the MPL 5 cell beside it is fine.
        let rc = RunConfig {
            warmup_txns: 30,
            measured_txns: 150,
            ..Default::default()
        };
        let mut broken = Scenario::tput("curve", setup(1), 1, rc.clone());
        broken.rc.high_fraction = 2.0;
        let scenarios = vec![broken, Scenario::tput("curve", setup(1), 5, rc)];
        let results = SweepExecutor::serial()
            .with_keep_going(true)
            .run(&SweepPlan::new(scenarios).replicated(2, 42));
        let t = pivot_table(
            "curve",
            &results,
            &[
                Col::new("MPL 1", "throughput", "MPL 1", f1),
                Col::new("MPL 5", "throughput", "MPL 5", f1),
            ],
        );
        let row = t.lines().nth(2).unwrap();
        assert!(
            row.contains("FAILED"),
            "an all-failures cell must render FAILED, not average nothing:\n{t}"
        );
        assert_eq!(row.matches("FAILED").count(), 1, "only MPL 1 failed:\n{t}");
        assert!(!row.contains('!'), "MPL 5 has no failed replication:\n{t}");
    }

    #[test]
    fn partially_failed_cells_are_marked() {
        let mut results = tiny_results(2);
        results[0].failures.push(TaskError("boom".into()));
        let t = pivot_table(
            "curve",
            &results,
            &[
                Col::new("MPL 1", "throughput", "MPL 1", f1),
                Col::new("MPL 5", "throughput", "MPL 5", f1),
            ],
        );
        let row = t.lines().nth(2).unwrap();
        assert!(
            row.contains('!'),
            "a cell with surviving and failed replications must carry `!`:\n{t}"
        );
        assert!(
            !t.contains("FAILED"),
            "survivors still render a value:\n{t}"
        );
    }
}
