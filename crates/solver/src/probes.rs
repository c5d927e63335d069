//! Thread-local probe counters for theory-layer events.
//!
//! Several counters this crate reports live in code with no statistics
//! handle in scope: the interval-propagation round ceiling and the
//! model-reconstruction fallback are free functions deep in [`crate::lia`],
//! and the theory-module dispatcher runs identically under the persistent
//! core and the per-check scratch engine. Those sites bump the fields of a
//! thread-local [`SolverStats`] here instead, and
//! [`crate::solver::Solver::check`] merges the delta across each check into
//! its own stats. Workers are thread-confined (one solver per worker
//! thread), so the delta accounting never mixes two solvers' events.

use std::cell::RefCell;

use crate::solver::SolverStats;

thread_local! {
    static PROBES: RefCell<SolverStats> = const { RefCell::new(SolverStats::ZERO) };
}

/// The cumulative probe counters of the current thread; subtract two
/// readings with [`SolverStats::since`] to attribute events to a region.
pub fn totals() -> SolverStats {
    PROBES.with_borrow(|probes| *probes)
}

/// Applies one mutation to the thread's counters.
pub(crate) fn bump(f: impl FnOnce(&mut SolverStats)) {
    PROBES.with_borrow_mut(f);
}
