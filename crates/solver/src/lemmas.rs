//! Cross-worker theory-lemma sharing.
//!
//! A theory lemma is a set of (polarity-folded) atoms whose conjunction the
//! LIA theory refuted: `¬(a₁ ∧ … ∧ aₙ)` holds under *every* assignment, in
//! every frame, in every solver — the atoms are pure arithmetic facts with
//! no dependence on which worker, program variant or check derived them.
//! Because [`crate::arena`] interns atoms through a process-global registry,
//! an [`AtomId`] names the same atom in every worker, so a lemma can be
//! published as a plain sorted id set and imported by any sibling core that
//! knows (or later learns) those atoms.
//!
//! [`SharedLemmaPool`] is the exchange point: an append-only, deduplicated
//! pool of lemmas shared across workers the way `cpcf`'s
//! `SharedVerdictCache` shares verdicts. The pool is split by access
//! pattern: the publication **log** lives behind an `RwLock`, so the hot
//! path — every core's per-check-boundary cursor read — takes a shared read
//! lock and runs concurrently with every other reader; only the (much
//! rarer) publication of a genuinely new lemma takes the write lock. The
//! content-dedup set sits behind its own mutex, serializing writers without
//! ever blocking readers. Importing stays a cursor read, so a core that
//! imports at every check boundary only ever pays for lemmas it has not yet
//! seen.
//!
//! Sharing is gated by the `CPCF_LEMMA_SHARING` environment variable
//! ([`default_lemma_sharing`]): `on` (the default) or `off` (the ablation
//! leg that measures what sharing buys).
//!
//! Lemmas also persist well: their atoms are universally valid arithmetic
//! facts, so `cpcf`'s analysis store serializes them *by content* (atom
//! structure, not process-local ids — see [`crate::arena::global_atom`])
//! and warm-starts a later run's pool from disk.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, RwLock};

use crate::arena::AtomId;

/// One shared lemma: a sorted, distinct set of polarity-folded atom ids
/// whose conjunction is theory-inconsistent.
pub type SharedLemma = Arc<[AtomId]>;

#[derive(Debug, Default)]
struct PoolInner {
    /// Append-only publication order, so per-core cursors stay valid.
    /// Readers (cursor fetches, length checks) share the lock; only the
    /// append of a new lemma writes.
    log: RwLock<Vec<SharedLemma>>,
    /// Content dedup: the same atom set is only ever published once. Kept
    /// behind a separate mutex so writer deduplication never blocks the
    /// readers of `log`.
    seen: Mutex<HashSet<SharedLemma>>,
}

/// A pool of theory lemmas shared across solver cores (and threads).
///
/// Clones share the same underlying pool, mirroring the handle semantics of
/// `SharedVerdictCache`: the analysis driver creates one pool per run (or
/// the bench harness one per program, spanning both variants) and hands a
/// clone to every session.
#[derive(Debug, Clone, Default)]
pub struct SharedLemmaPool {
    inner: Arc<PoolInner>,
}

impl SharedLemmaPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        SharedLemmaPool::default()
    }

    /// Publishes a lemma: `atoms` is a conjunction of polarity-folded atom
    /// ids the theory refuted. The set is sorted and deduplicated before
    /// insertion; returns `true` when the pool did not already hold it.
    pub fn publish(&self, atoms: &[AtomId]) -> bool {
        if atoms.is_empty() {
            return false;
        }
        let mut sorted: Vec<AtomId> = atoms.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let lemma: SharedLemma = sorted.into();
        // The `seen` mutex serializes publishers, so between the dedup
        // check and the log append no sibling can slip the same lemma in.
        let mut seen = self.inner.seen.lock().expect("lemma pool poisoned");
        if seen.insert(Arc::clone(&lemma)) {
            self.inner
                .log
                .write()
                .expect("lemma pool poisoned")
                .push(lemma);
            true
        } else {
            false
        }
    }

    /// The lemmas published at or after position `cursor`, together with the
    /// new cursor (the pool length). A core that keeps its cursor and calls
    /// this at every check boundary sees each lemma exactly once. Readers
    /// take only the shared side of the log lock, so concurrent fetches
    /// never serialize against each other.
    pub fn fetch_from(&self, cursor: usize) -> (Vec<SharedLemma>, usize) {
        let log = self.inner.log.read().expect("lemma pool poisoned");
        let fresh = log.get(cursor..).unwrap_or(&[]).to_vec();
        (fresh, log.len())
    }

    /// Number of distinct lemmas published so far.
    pub fn len(&self) -> usize {
        self.inner.log.read().expect("lemma pool poisoned").len()
    }

    /// True when no lemma has been published.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Whether lemma sharing is enabled by default, from the
/// `CPCF_LEMMA_SHARING` environment variable: `on` (the default when unset)
/// or `off` (the ablation). An unrecognised value falls back to `on` with a
/// once-per-process warning, so a typo in a CI matrix cannot silently test
/// the wrong configuration.
pub fn default_lemma_sharing() -> bool {
    match std::env::var("CPCF_LEMMA_SHARING").ok().as_deref() {
        Some("off") => false,
        Some("on") | None => true,
        Some(other) => {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "warning: unrecognised CPCF_LEMMA_SHARING `{other}` \
                     (expected on|off); using on"
                );
            });
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use crate::formula::{Atom, CmpOp};
    use crate::term::{Term, Var};

    fn atom_id(arena: &mut Arena, i: u32, n: i64) -> AtomId {
        arena.intern_atom(&Atom::new(Term::var(Var::new(i)), CmpOp::Eq, Term::int(n)))
    }

    #[test]
    fn publish_dedups_and_sorts() {
        let mut arena = Arena::new();
        let a = atom_id(&mut arena, 0, 1);
        let b = atom_id(&mut arena, 1, 2);
        let pool = SharedLemmaPool::new();
        assert!(pool.publish(&[b, a, b]));
        // The same set in any order and multiplicity is one lemma.
        assert!(!pool.publish(&[a, b]));
        assert_eq!(pool.len(), 1);
        let (lemmas, cursor) = pool.fetch_from(0);
        assert_eq!(cursor, 1);
        let mut expected = vec![a, b];
        expected.sort_unstable();
        assert_eq!(lemmas[0].as_ref(), expected.as_slice());
    }

    #[test]
    fn cursors_see_each_lemma_once() {
        let mut arena = Arena::new();
        let a = atom_id(&mut arena, 0, 1);
        let b = atom_id(&mut arena, 1, 2);
        let pool = SharedLemmaPool::new();
        pool.publish(&[a]);
        let (first, cursor) = pool.fetch_from(0);
        assert_eq!(first.len(), 1);
        let (none, cursor) = pool.fetch_from(cursor);
        assert!(none.is_empty());
        pool.publish(&[a, b]);
        let (second, cursor) = pool.fetch_from(cursor);
        assert_eq!(second.len(), 1);
        assert_eq!(cursor, 2);
    }

    #[test]
    fn empty_lemmas_are_rejected() {
        let pool = SharedLemmaPool::new();
        assert!(!pool.publish(&[]));
        assert!(pool.is_empty());
    }

    #[test]
    fn pool_handles_share_state_and_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedLemmaPool>();
        let mut arena = Arena::new();
        let a = atom_id(&mut arena, 0, 1);
        let pool = SharedLemmaPool::new();
        let clone = pool.clone();
        pool.publish(&[a]);
        assert_eq!(clone.len(), 1, "clones see the same pool");
    }

    #[test]
    fn concurrent_publishers_and_readers_converge() {
        // Hammer the split-lock pool from both sides: publishers racing on
        // overlapping lemma sets, readers draining via cursors. Every
        // distinct set must appear exactly once and every cursor walk must
        // observe a consistent append-only log.
        let mut arena = Arena::new();
        let ids: Vec<AtomId> = (0..16).map(|i| atom_id(&mut arena, i, i as i64)).collect();
        let pool = SharedLemmaPool::new();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pool = pool.clone();
                let ids = ids.clone();
                scope.spawn(move || {
                    for i in 0..ids.len().saturating_sub(1) {
                        // Each publisher offers the same sliding pairs; the
                        // pool must dedup them across threads.
                        pool.publish(&[ids[i], ids[i + 1]]);
                        let _ = t;
                    }
                });
            }
            let reader = pool.clone();
            scope.spawn(move || {
                let mut cursor = 0;
                let mut seen = 0;
                while seen < 4 {
                    let (fresh, next) = reader.fetch_from(cursor);
                    assert!(next >= cursor, "the log never shrinks");
                    seen += fresh.len();
                    cursor = next;
                    if fresh.is_empty() {
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert_eq!(pool.len(), 15, "each distinct pair published exactly once");
    }
}
