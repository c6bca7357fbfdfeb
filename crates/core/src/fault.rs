//! Fault tolerance for sweep execution.
//!
//! The sweep executor treats every `(scenario, seed)` task as a pure
//! function — which also makes tasks the natural *fault isolation*
//! boundary. This module supplies the pieces:
//!
//! * [`TaskError`] / [`TaskFailure`] — typed per-task failure causes
//!   (caught panic, watchdog timeout, injected fault) with the attempt
//!   count, carried through the shard wire codec bit-exactly;
//! * [`TaskOutcome`] — a task slot's value once fault tolerance exists:
//!   either a [`ScenarioOutcome`] or a typed failure;
//! * [`FaultPolicy`] — what the executor does about failures: fail fast
//!   (today's behavior, the default), or isolate + retry with
//!   deterministic backoff + degrade to a marked failed cell under
//!   keep-going mode, optionally under a per-task watchdog deadline;
//! * [`FaultInjector`] — the deterministic harness-side chaos layer:
//!   seed-derived task panics and stalls, mirroring the simulator's
//!   chaos streams, so panic isolation / retry / watchdog paths are
//!   exercisable in CI with reproducible outcomes;
//! * [`relock`] — poisoned-`Mutex` recovery for executor bookkeeping
//!   locks, so one caught panic cannot cascade into poisoning every
//!   worker that touches the same slot.
//!
//! **Determinism.** A retried task re-runs under the *same* scenario
//! seed — tasks are pure, so a retry that succeeds is automatically
//! bit-identical to a first-try success. Only the injector's decision
//! stream folds the attempt number into its derived RNG label
//! (`fault/<task>/<unit>/<attempt>`), so attempt 0 can inject a panic
//! while attempt 1 runs clean — exactly how a transient host fault looks
//! to the harness. The property tests pin both directions.

use crate::scenario::ScenarioOutcome;
use serde::Serialize;
use std::sync::{Mutex, MutexGuard, PoisonError};
use xsched_sim::SimRng;

/// Why one sweep task (or one of its sub-run units) failed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TaskError {
    /// The task panicked; carries the panic message (lossy: non-string
    /// payloads record a placeholder).
    Panic(String),
    /// The task exceeded the watchdog deadline, in seconds.
    Timeout(f64),
    /// The deterministic fault injector killed this attempt.
    Injected(String),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panic(msg) => write!(f, "panicked: {msg}"),
            TaskError::Timeout(limit) => write!(f, "exceeded the {limit}s task deadline"),
            TaskError::Injected(what) => write!(f, "injected fault: {what}"),
        }
    }
}

/// A task's final failure record: the last attempt's error plus how many
/// attempts were made. What a failed cell carries on the wire and in
/// merged results.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TaskFailure {
    /// The error of the final (losing) attempt.
    pub error: TaskError,
    /// Total attempts made (1 = no retry).
    pub attempts: u32,
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (after {} attempts)", self.error, self.attempts)
    }
}

/// The value a task slot holds once fault tolerance exists: a measured
/// outcome, or a typed failure the sweep degraded to instead of aborting.
#[derive(Debug, Clone, Serialize)]
pub enum TaskOutcome {
    /// The task produced its outcome (possibly after retries — bitwise
    /// indistinguishable from a first-try success).
    Ok(ScenarioOutcome),
    /// The task failed every attempt; the cell is marked, not silently
    /// dropped.
    Failed(TaskFailure),
}

impl TaskOutcome {
    /// The measured outcome, if the task succeeded.
    pub fn as_ok(&self) -> Option<&ScenarioOutcome> {
        match self {
            TaskOutcome::Ok(o) => Some(o),
            TaskOutcome::Failed(_) => None,
        }
    }

    /// The failure record, if the task failed.
    pub fn as_failed(&self) -> Option<&TaskFailure> {
        match self {
            TaskOutcome::Ok(_) => None,
            TaskOutcome::Failed(f) => Some(f),
        }
    }
}

/// What the deterministic injector decided for one attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// Panic at task start (isolated by `catch_unwind`).
    Panic,
    /// Stall for this many wall-clock seconds before running — under a
    /// watchdog deadline shorter than the stall, a deterministic timeout.
    Stall(f64),
}

/// Deterministic harness-side fault injector.
///
/// Decisions are a pure function of `(seed, task, unit, attempt)` via a
/// derived RNG stream (`fault/<task>/<unit>/<attempt>`) — the same
/// SplitMix64-hashed label scheme the simulator's chaos layer uses — so
/// an injected-fault sweep produces identical failures on every machine
/// and thread count, and a *retry* draws a fresh decision while the
/// scenario itself re-runs under its unchanged seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultInjector {
    /// Probability an attempt panics at task start.
    pub p_panic: f64,
    /// Probability an attempt stalls (checked after the panic draw).
    pub p_stall: f64,
    /// Stall length in wall-clock seconds.
    pub stall_secs: f64,
}

impl FaultInjector {
    /// The injector's decision for attempt `attempt` of unit `unit` of
    /// task `task` running under `seed`. Pure and deterministic.
    pub fn decide(&self, seed: u64, task: usize, unit: u32, attempt: u32) -> Option<InjectedFault> {
        let mut rng = SimRng::derive(seed, &format!("fault/{task}/{unit}/{attempt}"));
        let u = rng.uniform();
        if u < self.p_panic {
            Some(InjectedFault::Panic)
        } else if u < self.p_panic + self.p_stall {
            Some(InjectedFault::Stall(self.stall_secs))
        } else {
            None
        }
    }
}

/// How the sweep executor treats task failures. Every attempt runs
/// panic-isolated whatever the policy; the default makes one attempt per
/// unit with no watchdog and fails fast — the first failed task aborts
/// the sweep with a typed panic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPolicy {
    /// Degrade failed tasks to marked failed cells and keep sweeping.
    /// Off = fail fast: the final failure propagates as a panic.
    pub keep_going: bool,
    /// Retries per task unit after the first attempt fails.
    pub retries: u32,
    /// Base of the deterministic exponential backoff before retry `a`
    /// (`base · 2^(a−1)` seconds, exponent capped at 6). `0.0` retries
    /// immediately. Wall-clock only — never affects result bytes.
    pub backoff_base_secs: f64,
    /// Per-task watchdog deadline in seconds: an attempt still running
    /// past it is abandoned on a detached thread and scored
    /// [`TaskError::Timeout`].
    pub task_timeout_secs: Option<f64>,
    /// Deterministic fault injection for testing the paths above.
    pub injector: Option<FaultInjector>,
}

impl FaultPolicy {
    /// Backoff before retry attempt `attempt` (1-based), in seconds.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        if self.backoff_base_secs <= 0.0 || attempt == 0 {
            0.0
        } else {
            self.backoff_base_secs * f64::from(1u32 << (attempt - 1).min(6))
        }
    }
}

/// Marker panic payload for injected panics, so the catch site can
/// classify them as [`TaskError::Injected`] rather than a genuine bug.
#[derive(Debug)]
pub(crate) struct InjectedPanic;

/// Render a caught panic payload as a message, classifying injected
/// panics along the way.
pub(crate) fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> TaskError {
    if payload.is::<InjectedPanic>() {
        return TaskError::Injected("panic".to_string());
    }
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
        assert_eq!(p.retries, 0);
        assert_eq!(p.task_timeout_secs, None);
        assert!(p.injector.is_none());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = FaultPolicy {
            backoff_base_secs: 0.01,
            ..Default::default()
        };
        assert_eq!(p.backoff_secs(1), 0.01);
        assert_eq!(p.backoff_secs(2), 0.02);
        assert_eq!(p.backoff_secs(3), 0.04);
        // Exponent caps at 6 so a large retry budget cannot sleep forever.
        assert_eq!(p.backoff_secs(40), 0.01 * 64.0);
        // Zero base = immediate retries.
        assert_eq!(FaultPolicy::default().backoff_secs(3), 0.0);
    }

    #[test]
    fn injector_decisions_are_deterministic_and_attempt_dependent() {
        let inj = FaultInjector {
            p_panic: 0.5,
            p_stall: 0.25,
            stall_secs: 0.5,
        };
        // Same coordinates → same decision, every time.
        for task in 0..50usize {
            for attempt in 0..3u32 {
                assert_eq!(
                    inj.decide(42, task, 0, attempt),
                    inj.decide(42, task, 0, attempt)
                );
            }
        }
        // The attempt number is folded into the stream: some task must
        // decide differently on attempt 0 vs attempt 1 (that is what
        // makes retries able to succeed).
        assert!((0..100usize).any(|t| inj.decide(42, t, 0, 0) != inj.decide(42, t, 0, 1)));
        // And the probabilities roughly hold over many tasks.
        let panics = (0..400usize)
            .filter(|&t| inj.decide(42, t, 0, 0) == Some(InjectedFault::Panic))
            .count();
        assert!((100..300).contains(&panics), "{panics}");
    }

    #[test]
    fn zero_rate_injector_never_fires() {
        let inj = FaultInjector {
            p_panic: 0.0,
            p_stall: 0.0,
            stall_secs: 1.0,
        };
        assert!((0..200usize).all(|t| inj.decide(7, t, 0, 0).is_none()));
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
    fn classify_panic_separates_injected_from_genuine() {
        assert_eq!(
            classify_panic(Box::new(InjectedPanic)),
            TaskError::Injected("panic".to_string())
        );
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
