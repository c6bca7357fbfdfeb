//! Fault handling for sweep execution.
//!
//! The sweep executor treats every `(scenario, seed)` task as a pure
//! function, so a task that panics has hit a bug that comes back on every
//! run: a failed cell fails the run. Every task runs exactly once, inline
//! under `catch_unwind`; the executor stops claiming on the first panic
//! and re-raises it, after delivering every earlier cell, as
//! `sweep task N failed: panicked: …`. No task can hang — a stalled
//! simulator and a non-converging solve both panic, and every run loop
//! ends at a completion budget — so no watchdog guards it. This module
//! supplies the two pieces that rule needs:
//!
//! * [`relock`] — poisoned-`Mutex` recovery for executor bookkeeping
//!   locks, so the caught panic cannot cascade into poisoning every
//!   worker that touches the same slot before the sweep re-raises it;
//! * a private panic-payload-to-message helper for that re-raise.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Render a caught panic payload as its message (lossy: non-string
/// payloads render a placeholder).
pub(crate) fn classify_panic(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
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
        assert_eq!(classify_panic(Box::new("boom")), "boom");
        assert_eq!(classify_panic(Box::new(String::from("kaboom"))), "kaboom");
        assert_eq!(classify_panic(Box::new(17u32)), "non-string panic payload");
    }
}
