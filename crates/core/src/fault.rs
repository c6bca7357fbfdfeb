//! Fault handling for sweep execution.
//!
//! The sweep executor treats every `(scenario, seed)` task as a pure
//! function, which also makes tasks the natural fault isolation
//! boundary. This module supplies the pieces:
//!
//! * [`TaskError`] — why a task failed: the message of the panic the
//!   executor caught, carried through the coordinator's wire codec exactly;
//! * [`TaskOutcome`] — a task slot's value: either a [`ScenarioOutcome`]
//!   or a typed failure;
//! * [`relock`] — poisoned-`Mutex` recovery for executor bookkeeping
//!   locks, so one caught panic cannot cascade into poisoning every
//!   worker that touches the same slot.
//!
//! Every task runs exactly once, inline under `catch_unwind`. A task is a
//! pure function of `(scenario, seed)`, so running a failed one again
//! would fail the same way: a failed cell fails once. No task can hang —
//! a stalled simulator and a non-converging solve both panic, and every
//! run loop ends at a completion budget — so no watchdog guards it. What
//! the executor does about a failure is one switch, `keep_going`: fail
//! fast (the default), or degrade to a marked failed cell.

use crate::scenario::ScenarioOutcome;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Why one sweep task failed: the message of the panic it raised (lossy:
/// non-string payloads record a placeholder).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskError(pub String);

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "panicked: {}", self.0)
    }
}

/// The value a task slot holds: a measured outcome, or a typed failure
/// the sweep degraded to instead of aborting.
// `Ok` dwarfs `Failed`, but it is also the variant nearly every slot
// holds — boxing it would add an allocation per cell to spare the rare
// failure a few bytes.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
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

/// Render a caught panic payload as a [`TaskError`] message.
pub(crate) fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> TaskError {
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string());
    TaskError(msg)
}

/// Lock a mutex, recovering from poisoning instead of cascading the
/// panic.
///
/// Sound for the executor's bookkeeping locks (result slots, cache
/// slots, telemetry series): task code runs *inside* `catch_unwind`, so
/// by the time these locks are taken the protected data is either fully
/// written or untouched — a poisoned flag only means some thread
/// panicked while holding the guard across a plain field write, which
/// cannot leave torn state. Recovering keeps one
/// failed task from wedging every worker that shares the structure.
pub fn relock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

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
            TaskError("boom".to_string())
        );
        assert_eq!(
            classify_panic(Box::new(String::from("kaboom"))),
            TaskError("kaboom".to_string())
        );
        assert_eq!(
            classify_panic(Box::new(17u32)),
            TaskError("non-string panic payload".to_string())
        );
    }
}
