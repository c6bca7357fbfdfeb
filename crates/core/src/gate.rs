//! The MPL counting gate.
//!
//! A transaction may enter the DBMS only while fewer than MPL are inside.
//! The controller resizes the MPL at runtime: shrinking below the current
//! occupancy never evicts running transactions, it just blocks admissions
//! until completions drain the excess — exactly how an external front-end
//! has to behave, since it cannot preempt work already inside the DBMS.

/// Counting gate enforcing the multi-programming limit.
#[derive(Debug, Clone)]
pub struct MplGate {
    mpl: u32,
    in_flight: u32,
}

impl MplGate {
    /// A gate with the given limit (`mpl ≥ 1`).
    pub fn new(mpl: u32) -> MplGate {
        assert!(mpl >= 1, "MPL must be at least 1");
        MplGate { mpl, in_flight: 0 }
    }

    /// Current limit.
    pub fn mpl(&self) -> u32 {
        self.mpl
    }

    /// Transactions currently admitted.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Admission slots currently free.
    pub fn available(&self) -> u32 {
        self.mpl.saturating_sub(self.in_flight)
    }

    /// Try to take one admission slot.
    pub fn try_acquire(&mut self) -> bool {
        if self.in_flight < self.mpl {
            self.in_flight += 1;
            true
        } else {
            false
        }
    }

    /// Return one slot (on transaction completion).
    pub fn release(&mut self) {
        assert!(self.in_flight > 0, "release without acquire");
        self.in_flight -= 1;
    }

    /// Change the limit. Occupancy above a lowered limit is allowed to
    /// drain naturally.
    pub fn set_mpl(&mut self, mpl: u32) {
        assert!(mpl >= 1, "MPL must be at least 1");
        self.mpl = mpl;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_up_to_mpl() {
        let mut g = MplGate::new(3);
        assert!(g.try_acquire());
        assert!(g.try_acquire());
        assert!(g.try_acquire());
        assert!(!g.try_acquire());
        assert_eq!(g.in_flight(), 3);
        assert_eq!(g.available(), 0);
    }

    #[test]
    fn release_reopens() {
        let mut g = MplGate::new(1);
        assert!(g.try_acquire());
        assert!(!g.try_acquire());
        g.release();
        assert!(g.try_acquire());
    }

    #[test]
    fn shrink_below_occupancy_blocks_until_drained() {
        let mut g = MplGate::new(4);
        for _ in 0..4 {
            assert!(g.try_acquire());
        }
        g.set_mpl(2);
        assert!(!g.try_acquire());
        g.release();
        assert!(!g.try_acquire(), "still above the new limit");
        g.release();
        g.release();
        assert!(g.try_acquire(), "drained below the new limit");
    }

    #[test]
    fn grow_admits_immediately() {
        let mut g = MplGate::new(1);
        assert!(g.try_acquire());
        g.set_mpl(2);
        assert!(g.try_acquire());
        assert!(!g.try_acquire());
    }

    #[test]
    #[should_panic(expected = "release without acquire")]
    fn release_underflow_panics() {
        MplGate::new(1).release();
    }

    #[test]
    #[should_panic(expected = "MPL must be at least 1")]
    fn zero_mpl_rejected() {
        MplGate::new(0);
    }
}
