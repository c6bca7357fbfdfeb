//! Fault handling for sweep execution.
//!
//! The sweep executor treats every `(scenario, seed)` task as a pure
//! function, which also makes tasks the natural fault isolation
//! boundary. This module supplies the pieces:
//!
//! * [`TaskError`] — the typed cause of a failed task (caught panic or
//!   watchdog timeout), carried through the shard wire codec bit-exactly;
//! * [`TaskOutcome`] — a task slot's value: either a [`ScenarioOutcome`]
//!   or a typed failure;
//! * [`FaultPolicy`] — what the executor does about a failure: fail fast
//!   (the default), or degrade to a marked failed cell under keep-going
//!   mode, optionally under a per-task watchdog deadline;
//! * [`relock`] — poisoned-`Mutex` recovery for executor bookkeeping
//!   locks, so one caught panic cannot cascade into poisoning every
//!   worker that touches the same slot.
//!
//! Every unit runs exactly once. A task is a pure function of
//! `(scenario, seed)`, so running a failed one again would fail the same
//! way: a failed cell fails once.

use crate::scenario::ScenarioOutcome;
use serde::Serialize;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Why one sweep task (or one of its sub-run units) failed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TaskError {
    /// The task panicked; carries the panic message (lossy: non-string
    /// payloads record a placeholder).
    Panic(String),
    /// The task exceeded the watchdog deadline, in seconds.
    Timeout(f64),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panic(msg) => write!(f, "panicked: {msg}"),
            TaskError::Timeout(limit) => write!(f, "exceeded the {limit}s task deadline"),
        }
    }
}

/// The value a task slot holds: a measured outcome, or a typed failure
/// the sweep degraded to instead of aborting.
// `Ok` dwarfs `Failed`, but it is also the variant nearly every slot
// holds — boxing it would add an allocation per cell to spare the rare
// failure a few bytes.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize)]
pub enum TaskOutcome {
    /// The task produced its outcome.
    Ok(ScenarioOutcome),
    /// The task failed; the cell is marked, not silently dropped.
    Failed(TaskError),
}

impl TaskOutcome {
    /// The measured outcome, if the task succeeded.
    pub fn as_ok(&self) -> Option<&ScenarioOutcome> {
        match self {
            TaskOutcome::Ok(o) => Some(o),
            TaskOutcome::Failed(_) => None,
        }
    }

    /// The failure, if the task failed.
    pub fn as_failed(&self) -> Option<&TaskError> {
        match self {
            TaskOutcome::Ok(_) => None,
            TaskOutcome::Failed(e) => Some(e),
        }
    }
}

/// How the sweep executor treats task failures. Every unit runs once,
/// panic-isolated, whatever the policy; the default has no watchdog and
/// fails fast — the first failed task aborts the sweep with a typed
/// panic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPolicy {
    /// Degrade failed tasks to marked failed cells and keep sweeping.
    /// Off = fail fast: the failure propagates as a panic.
    pub keep_going: bool,
    /// Per-task watchdog deadline in seconds: a unit still running past
    /// it is abandoned on a detached thread and scored
    /// [`TaskError::Timeout`].
    pub task_timeout_secs: Option<f64>,
}

/// Render a caught panic payload as a [`TaskError::Panic`] message.
pub(crate) fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> TaskError {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string());
    TaskError::Panic(msg)
}

/// Lock a mutex, recovering from poisoning instead of cascading the
/// panic.
///
/// Sound for the executor's bookkeeping locks (result slots, sub-run
/// accumulators, cache slots, telemetry series): task code runs *inside*
/// `catch_unwind`, so by the time these locks are taken the protected
/// data is either fully written or untouched — a poisoned flag only
/// means some thread panicked while holding the guard across a plain
/// field write, which cannot leave torn state. Recovering keeps one
/// failed task from wedging every worker that shares the structure.
pub fn relock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_inactive_and_preserves_fail_fast() {
        let p = FaultPolicy::default();
        assert!(!p.keep_going);
        assert_eq!(p.task_timeout_secs, None);
    }

    #[test]
    fn relock_recovers_a_poisoned_mutex() {
        let m = Mutex::new(0u32);
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison it");
        }));
        assert!(m.lock().is_err(), "the mutex really is poisoned");
        *relock(&m) = 7;
        assert_eq!(*relock(&m), 7);
    }

    #[test]
    fn classify_panic_renders_every_payload_as_a_message() {
        assert_eq!(
            classify_panic(Box::new("boom")),
            TaskError::Panic("boom".to_string())
        );
        assert_eq!(
            classify_panic(Box::new(String::from("kaboom"))),
            TaskError::Panic("kaboom".to_string())
        );
        assert_eq!(
            classify_panic(Box::new(17u32)),
            TaskError::Panic("non-string panic payload".to_string())
        );
    }
}
