//! Kill-safe checkpoint journal for sweep execution.
//!
//! A [`CheckpointJournal`] appends every completed task outcome to a
//! plain-text file the moment it finishes, reusing the bit-exact shard
//! codec ([`encode_outcome`](crate::shard::encode_outcome) /
//! [`encode_failure`](crate::shard::encode_failure)) so a journaled
//! outcome replays byte-identically. Three properties make it safe to
//! `SIGKILL` the writer at any instant:
//!
//! * **Atomic-enough appends.** Each record is one `write(2)` of
//!   `<record> ;\n` followed by `fdatasync`. A kill can only truncate the
//!   *final* line; everything before it is durable and complete.
//! * **Completeness markers.** Every durable line ends with the ` ;`
//!   marker. This matters because a *truncated* record could otherwise
//!   still parse: floats travel as hex bit patterns, and a hex token cut
//!   short is a different — valid-looking — number. The marker turns any
//!   truncation into a detectable partial line.
//! * **Truncation-tolerant replay.** [`JournalReplay::decode`] drops a
//!   marker-less line when it is the journal's final line (the classic
//!   kill point) or immediately precedes the header a resuming process
//!   appended; a marker-less line anywhere else is real corruption and a
//!   typed [`DecodeError`]. Duplicate records (a task journaled by both
//!   the killed run and its resume) keep the first copy — both are
//!   bit-identical by the determinism contract, so this is only
//!   bookkeeping.
//!
//! The journal is sweep-aware: [`CheckpointJournal::begin_sweep`] writes
//! a header carrying the plan fingerprint, and replay groups records per
//! fingerprint — one journal file safely accumulates the several plans a
//! `figures` invocation runs (one per experiment).

use crate::fault::{relock, TaskOutcome};
use crate::shard::{decode_failure, decode_outcome, encode_failure, encode_outcome, DecodeError};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Marker suffix proving a journal line was written in full.
const MARKER: &str = " ;";

/// An append-only, fsync'd journal of completed task outcomes.
#[derive(Debug)]
pub struct CheckpointJournal {
    file: Mutex<File>,
    path: PathBuf,
}

impl CheckpointJournal {
    /// Start a fresh journal at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<CheckpointJournal> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(CheckpointJournal {
            file: Mutex::new(file),
            path,
        })
    }

    /// Open `path` for appending (creating it if absent) — the resume
    /// path. If a killed writer left a partial final line without a
    /// newline, a newline is appended first so the partial bytes stay
    /// isolated on their own (marker-less, hence ignored) line instead
    /// of fusing with the next record.
    pub fn append(path: impl AsRef<Path>) -> io::Result<CheckpointJournal> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        if len > 0 {
            let mut reader = File::open(&path)?;
            reader.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            reader.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
                file.sync_data()?;
            }
        }
        Ok(CheckpointJournal {
            file: Mutex::new(file),
            path,
        })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Write the sweep header: subsequent records belong to the plan
    /// with this fingerprint.
    pub fn begin_sweep(&self, plan_fingerprint: u64, task_count: usize) -> io::Result<()> {
        self.write_line(&format!(
            "xsched-journal v1 plan={plan_fingerprint:016x} tasks={task_count}"
        ))
    }

    /// Durably record one completed task (measured or failed). Called
    /// from worker threads; the internal lock serializes appends.
    pub fn record(&self, task: usize, outcome: &TaskOutcome) -> io::Result<()> {
        let line = match outcome {
            TaskOutcome::Ok(o) => format!("{task} {}", encode_outcome(o)),
            TaskOutcome::Failed(f) => format!("failed {task} {}", encode_failure(f)),
        };
        self.write_line(&line)
    }

    fn write_line(&self, line: &str) -> io::Result<()> {
        let mut file = relock(&self.file);
        file.write_all(format!("{line}{MARKER}\n").as_bytes())?;
        file.sync_data()
    }
}

/// The decoded contents of a checkpoint journal: per-plan-fingerprint
/// maps from global task index to the journaled [`TaskOutcome`].
#[derive(Debug, Default)]
pub struct JournalReplay {
    sweeps: HashMap<u64, HashMap<usize, TaskOutcome>>,
    dropped_partial: usize,
}

impl JournalReplay {
    /// Load and decode the journal at `path`. A missing file is an empty
    /// replay (resuming against a journal nothing was written to yet).
    pub fn load(path: impl AsRef<Path>) -> Result<JournalReplay, DecodeError> {
        let text = match std::fs::read_to_string(path.as_ref()) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(JournalReplay::default()),
            Err(e) => {
                return Err(DecodeError {
                    line: 0,
                    context: path.as_ref().display().to_string(),
                    msg: format!("cannot read journal: {e}"),
                })
            }
        };
        Self::decode(&text)
    }

    /// Decode journal text, tolerating the partial final line a
    /// `SIGKILL` can leave behind (see the module docs for exactly when
    /// a marker-less line is tolerated vs. typed as corruption).
    pub fn decode(text: &str) -> Result<JournalReplay, DecodeError> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        let mut sweeps: HashMap<u64, HashMap<usize, TaskOutcome>> = HashMap::new();
        let mut current: Option<u64> = None;
        let mut dropped_partial = 0usize;
        for (pos, &(no, raw)) in lines.iter().enumerate() {
            let fail = |msg: String| DecodeError::at(no, raw, msg);
            let Some(line) = raw.strip_suffix(MARKER) else {
                let next_is_header = lines
                    .get(pos + 1)
                    .is_none_or(|(_, l)| l.starts_with("xsched-journal "));
                if next_is_header {
                    dropped_partial += 1;
                    continue;
                }
                return Err(fail(
                    "record is missing its completeness marker".to_string(),
                ));
            };
            if let Some(rest) = line.strip_prefix("xsched-journal ") {
                let mut fields = rest.split_whitespace();
                if fields.next() != Some("v1") {
                    return Err(fail(format!("not a v1 journal header: `{line}`")));
                }
                let plan_tok = fields
                    .next()
                    .and_then(|tok| tok.strip_prefix("plan="))
                    .ok_or_else(|| fail("journal header missing `plan=`".to_string()))?;
                let fp = u64::from_str_radix(plan_tok, 16)
                    .map_err(|e| fail(format!("bad plan fingerprint: {e}")))?;
                current = Some(fp);
                continue;
            }
            let fp = current
                .ok_or_else(|| fail("record appears before any journal header".to_string()))?;
            let (t, outcome) = if let Some(rest) = line.strip_prefix("failed ") {
                let (idx, spec) = rest
                    .split_once(' ')
                    .ok_or_else(|| fail("malformed failed record".to_string()))?;
                let t: usize = idx
                    .parse()
                    .map_err(|e| fail(format!("bad task index: {e}")))?;
                (t, TaskOutcome::Failed(decode_failure(spec).map_err(&fail)?))
            } else {
                let (idx, rest) = line
                    .split_once(' ')
                    .ok_or_else(|| fail("malformed journal record".to_string()))?;
                let t: usize = idx
                    .parse()
                    .map_err(|e| fail(format!("bad task index: {e}")))?;
                (t, TaskOutcome::Ok(decode_outcome(rest).map_err(&fail)?))
            };
            sweeps.entry(fp).or_default().entry(t).or_insert(outcome);
        }
        Ok(JournalReplay {
            sweeps,
            dropped_partial,
        })
    }

    /// The journaled outcome for `task` of the plan with this
    /// fingerprint, if any.
    pub fn outcome(&self, plan_fingerprint: u64, task: usize) -> Option<&TaskOutcome> {
        self.sweeps.get(&plan_fingerprint)?.get(&task)
    }

    /// How many tasks are journaled for this plan fingerprint.
    pub fn tasks_for(&self, plan_fingerprint: u64) -> usize {
        self.sweeps.get(&plan_fingerprint).map_or(0, HashMap::len)
    }

    /// True when the journal held no complete records at all.
    pub fn is_empty(&self) -> bool {
        self.sweeps.values().all(HashMap::is_empty)
    }

    /// How many partial (truncated) lines replay tolerated and dropped.
    pub fn dropped_partial(&self) -> usize {
        self.dropped_partial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::ChaosOutcome;
    use crate::fault::TaskError;
    use crate::scenario::ScenarioOutcome;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("xsched-journal-{}-{name}", std::process::id()));
        p
    }

    fn chaos(final_mpl: u32) -> ScenarioOutcome {
        ScenarioOutcome::Chaos(ChaosOutcome {
            final_mpl,
            peak_mpl: final_mpl + 3,
            overshoot: 2,
            reaction_windows: 5,
            post_onset_windows: 9,
            converged: true,
            iterations: 11,
            discarded_windows: 0,
            reference_tput: 123.456,
        })
    }

    fn bits(o: &TaskOutcome) -> String {
        match o {
            TaskOutcome::Ok(o) => encode_outcome(o),
            TaskOutcome::Failed(f) => format!("failed {}", encode_failure(f)),
        }
    }

    #[test]
    fn record_and_replay_round_trip() {
        let path = tmp("roundtrip");
        let journal = CheckpointJournal::create(&path).unwrap();
        journal.begin_sweep(0xabcd, 3).unwrap();
        let ok = TaskOutcome::Ok(chaos(7));
        let failed = TaskOutcome::Failed(TaskError::Panic("kaboom with spaces".to_string()));
        journal.record(0, &ok).unwrap();
        journal.record(2, &failed).unwrap();
        let replay = JournalReplay::load(&path).unwrap();
        assert_eq!(replay.tasks_for(0xabcd), 2);
        assert_eq!(bits(replay.outcome(0xabcd, 0).unwrap()), bits(&ok));
        assert_eq!(bits(replay.outcome(0xabcd, 2).unwrap()), bits(&failed));
        assert!(replay.outcome(0xabcd, 1).is_none());
        assert!(replay.outcome(0x9999, 0).is_none());
        assert_eq!(replay.dropped_partial(), 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_is_an_empty_replay() {
        let replay = JournalReplay::load(tmp("never-created")).unwrap();
        assert!(replay.is_empty());
        assert_eq!(replay.tasks_for(1), 0);
    }

    #[test]
    fn every_truncation_point_replays_a_durable_prefix() {
        let path = tmp("truncate");
        let journal = CheckpointJournal::create(&path).unwrap();
        journal.begin_sweep(0xfeed, 4).unwrap();
        for t in 0..4 {
            journal
                .record(t, &TaskOutcome::Ok(chaos(t as u32 + 1)))
                .unwrap();
        }
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        for cut in 0..=full.len() {
            let replay = JournalReplay::decode(&full[..cut]).unwrap();
            // Every fully-written record before the cut is recovered;
            // the cut line itself never yields a bogus record.
            let complete_records = full[..cut]
                .lines()
                .filter(|l| l.ends_with(MARKER) && !l.starts_with("xsched-journal "))
                .count();
            assert_eq!(replay.tasks_for(0xfeed), complete_records, "cut={cut}");
            assert!(replay.dropped_partial() <= 1, "cut={cut}");
        }
    }

    #[test]
    fn append_after_kill_isolates_the_partial_line() {
        let path = tmp("kill-resume");
        let journal = CheckpointJournal::create(&path).unwrap();
        journal.begin_sweep(0xbeef, 3).unwrap();
        journal.record(0, &TaskOutcome::Ok(chaos(1))).unwrap();
        journal.record(1, &TaskOutcome::Ok(chaos(2))).unwrap();
        drop(journal);
        // Simulate a SIGKILL mid-write: chop the file mid-record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 9]).unwrap();
        // Resume: append mode isolates the partial line, writes a fresh
        // header, and re-records the task the kill destroyed.
        let resumed = CheckpointJournal::append(&path).unwrap();
        resumed.begin_sweep(0xbeef, 3).unwrap();
        resumed.record(1, &TaskOutcome::Ok(chaos(2))).unwrap();
        resumed.record(2, &TaskOutcome::Ok(chaos(3))).unwrap();
        let replay = JournalReplay::load(&path).unwrap();
        assert_eq!(replay.tasks_for(0xbeef), 3);
        assert_eq!(replay.dropped_partial(), 1);
        assert_eq!(
            bits(replay.outcome(0xbeef, 1).unwrap()),
            bits(&TaskOutcome::Ok(chaos(2)))
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_records_keep_the_first_copy() {
        let mut text = String::new();
        text.push_str("xsched-journal v1 plan=000000000000002a tasks=2 ;\n");
        text.push_str(&format!("0 {} ;\n", encode_outcome(&chaos(5))));
        text.push_str(&format!("0 {} ;\n", encode_outcome(&chaos(9))));
        let replay = JournalReplay::decode(&text).unwrap();
        assert_eq!(replay.tasks_for(0x2a), 1);
        assert_eq!(
            bits(replay.outcome(0x2a, 0).unwrap()),
            bits(&TaskOutcome::Ok(chaos(5)))
        );
    }

    #[test]
    fn marker_less_line_mid_journal_is_typed_corruption() {
        let mut text = String::new();
        text.push_str("xsched-journal v1 plan=0000000000000001 tasks=2 ;\n");
        text.push_str("0 X 1 2 3 4 5 1 6 7\n"); // no marker, not final, not pre-header
        text.push_str(&format!("1 {} ;\n", encode_outcome(&chaos(5))));
        let err = JournalReplay::decode(&text).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.msg.contains("completeness marker"), "{err}");
    }

    #[test]
    fn records_before_a_header_are_rejected() {
        let text = format!("0 {} ;\n", encode_outcome(&chaos(5)));
        let err = JournalReplay::decode(&text).unwrap_err();
        assert!(err.msg.contains("before any journal header"), "{err}");
    }
}
