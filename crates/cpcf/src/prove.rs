//! Reasoning about opaque values: tag-level reasoning done directly on
//! refinements, numeric reasoning delegated to the first-order solver.
//!
//! As in the paper's typed core, only *base values* are ever encoded for
//! the solver (Fig. 4): numeric refinements become integer formulas, the
//! memo tables of opaque functions become functionality constraints, and
//! everything higher-order stays on the semantics side.
//!
//! ## Incremental sessions
//!
//! The original implementation built a fresh [`Solver`] and re-encoded the
//! entire symbolic heap on every numeric query. [`ProverSession`] replaces
//! it with an incremental query engine:
//!
//! * it keeps one **live solver** whose assertion stack mirrors a prefix of
//!   the heap's constraint journal (read incrementally via
//!   [`Heap::journal_suffix`]);
//! * each query **asserts only the journal suffix** the solver has not seen,
//!   bracketed in `push`/`pop` scopes so sibling branches of the evaluator
//!   pop back to the shared prefix instead of re-encoding it;
//! * verdicts are **memoized** in a `(heap fingerprint, query) → Proof`
//!   cache that survives branching, because the fingerprint identifies heap
//!   content, not solver state;
//! * a non-monotone heap update (a [`JournalEvent::Rebase`]) invalidates
//!   formulas already on the solver, so a rebase anywhere in the unseen
//!   suffix makes the session **re-encode the whole heap** as a new base.
//!   Rebases come from overwrite patterns in the evaluator (structural
//!   refinement of a constrained opaque value), not from search order, and
//!   are rare.
//!
//! [`SessionStats`] counts queries, cache hits and full, delta and reused
//! encodings so the savings are measurable.
//!
//! The session drives one [`Solver`] built from the [`SolverConfig`] it was
//! given. By default that is `folic`'s persistent incremental core
//! (hash-consed atoms, a CDCL clause database that survives across queries
//! with frames retracting by activation literals, per-query cone slicing),
//! so the session's `push`/`pop` frames map directly onto core
//! retractions, and a whole-session re-encode
//! ([`Solver::clear_assertions`]) keeps the interned atoms, Tseitin
//! encodings and learned theory lemmas alive instead of discarding the
//! solver.
//!
//! ## The reference oracle
//!
//! [`reference_prove_num`] and [`reference_heap_model`] answer the same
//! questions the original way: translate the whole heap ([`translate_heap`])
//! into a fresh solver and run one query. They keep no state, so the
//! differential tests compare every session verdict against them.
//!
//! ## Counters
//!
//! [`SessionStats`] is declared once with [`folic::counters!`] and nests
//! the solver's own registry, [`SolverStats`]; merging, deltas and the
//! `table1` reports are all generated from the two declarations. Sessions
//! bump their fields directly. Events raised where no session is in scope
//! — heap snapshots and copies in [`crate::pmap`], branch truncations in
//! the evaluator — bump the thread-local [`thread_totals`], whose delta
//! around each export the analysis scheduler merges into that export's
//! stats.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use folic::{
    CmpOp, Formula, Model, Proof, SharedLemmaPool, SmtResult, Solver, SolverConfig, SolverStats,
    Term, Var,
};

use crate::heap::{CRefinement, CSymExpr, Heap, JournalEvent, Loc, SVal, Tag};
use crate::numeric::Number;

/// First solver variable used for auxiliary variables (division/modulo
/// witnesses) by an incremental session. Heap locations are numbered from
/// zero, so keeping auxiliaries in a high, disjoint range means later heap
/// allocations can never collide with an auxiliary introduced by an earlier
/// query.
const SESSION_AUX_BASE: u32 = 1 << 30;

folic::counters! {
    /// Counters describing the work one [`ProverSession`] has done — the
    /// counter registry of this crate, with the first-order solver's
    /// registry nested as `solver`. Reports (`table1 --json` and its text
    /// summary) are generated from this declaration: each counter below is
    /// reported under its field name unless marked otherwise.
    pub struct SessionStats {
        /// Total queries answered (tag, numeric and model queries).
        queries,
        /// Tag queries (answered from refinements, never via the solver).
        tag_queries => _,
        /// Numeric queries (solver-backed).
        num_queries => _,
        /// Heap-model requests (solver-backed).
        model_queries => _,
        /// Queries answered from the verdict cache.
        cache_hits,
        /// The subset of `cache_hits` served by a [`SharedVerdictCache`] — i.e.
        /// verdicts this session did not compute itself but inherited from
        /// another session (a sibling worker, or an earlier analysis run sharing
        /// the cache).
        shared_cache_hits,
        /// The subset of `shared_cache_hits` served by the *persistent* tier
        /// ([`crate::AnalysisStore`]) rather than the in-memory shards — i.e.
        /// verdicts inherited from an earlier process.
        store_hits,
        /// Queries that missed both cache tiers while a persistent store was
        /// attached (the store's reach: `store_hits / (store_hits +
        /// store_misses)` is the warm-start hit rate).
        store_misses,
        /// Verdicts this session newly appended to the persistent store.
        store_writes,
        /// Whole-heap encodings (assertions cleared, whole heap translated).
        full_encodings,
        /// Incremental encodings of a journal suffix only.
        delta_encodings,
        /// Solver-backed queries for which the live solver already matched the
        /// heap exactly — no encoding work at all.
        reused_encodings,
        /// Heap snapshots ([`Heap::clone`]) taken while this session's work
        /// ran. Counted in the thread-local [`thread_totals`] like the other
        /// evaluator-side counters below, and attributed to the session by
        /// the analysis scheduler around each export run.
        snapshots,
        /// Persistent-map nodes structurally copied because a heap write hit a
        /// node still shared with another snapshot (the entire per-write cost of
        /// copy-on-write, in place of the old whole-map deep clones).
        nodes_copied,
        /// Journal bytes snapshots shared by reference instead of deep-copying —
        /// exactly the bytes the old `Vec`-journal representation memcpy'd at
        /// every branch split.
        journal_bytes_shared,
        /// States dropped at the `max_branches` queue bound
        /// ([`crate::EvalOptions::max_branches`]): paths never explored.
        branch_truncations,
        /// Exports whose search ended at a validated counterexample while
        /// states were still queued: the work the early stop saved.
        first_cex_stops,
        /// The first-order solver(s) this session drove.
        solver: SolverStats,
    }
}

thread_local! {
    static THREAD_COUNTERS: RefCell<SessionStats> = const { RefCell::new(SessionStats::ZERO) };
}

/// The current thread's cumulative counts of events raised where no session
/// is in scope (heap snapshots and copies, branch truncations). Heaps and
/// evaluations never cross threads, so the counts are exact; subtract two
/// readings with [`SessionStats::since`] to attribute a region's events.
pub fn thread_totals() -> SessionStats {
    THREAD_COUNTERS.with_borrow(|counters| *counters)
}

/// Applies one mutation to the current thread's counters.
pub(crate) fn bump_thread(f: impl FnOnce(&mut SessionStats)) {
    THREAD_COUNTERS.with_borrow_mut(f);
}

/// A memoizable query. Crate-visible so [`crate::store`] can serialize
/// cache keys content-addressed for the persistent tier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Query {
    Tag(Loc, Tag),
    Num(Loc, CmpOp, CSymExpr),
}

/// A cache key: heap fingerprint, heap generation, and the query itself.
pub(crate) type CacheKey = (u64, u64, Query);

/// Number of lock shards in a [`SharedVerdictCache`]. Shard selection uses
/// the heap fingerprint, which is already a well-mixed 64-bit hash.
const CACHE_SHARDS: usize = 16;

/// Per-shard entry bound, so pathological runs cannot grow without limit
/// (mirrors the private session cache's crude bound).
const SHARD_CAPACITY: usize = 1 << 16;

#[derive(Debug, Default)]
struct SharedCacheInner {
    shards: [Mutex<HashMap<CacheKey, (u32, Proof)>>; CACHE_SHARDS],
    /// The current epoch; entries remember the epoch they were stored in.
    epoch: AtomicU32,
    /// Total lookups served from this cache.
    hits: AtomicU64,
    /// Hits on entries stored in an *earlier* epoch than the lookup's — with
    /// one [`SharedVerdictCache::advance_epoch`] between the correct and
    /// faulty variant runs of a benchmark, this counts exactly the
    /// cross-variant hits.
    cross_epoch_hits: AtomicU64,
    /// Optional persistent tier: misses fall through to this on-disk store
    /// and new verdicts append to it, giving later *processes* a warm
    /// start. Disk hits are adopted into the in-memory shards (at the
    /// current epoch) so each stored verdict pays the disk-map lookup once.
    persist: Option<crate::store::AnalysisStore>,
}

/// A verdict cache sharable across [`ProverSession`]s and across threads:
/// a sharded, fingerprint-keyed `(heap fingerprint, generation, query) →
/// Proof` map behind `Arc<Mutex<…>>` shards.
///
/// Because the fingerprint identifies heap *content* (the constraint
/// journal), verdicts computed by one session are valid for any other
/// session that reaches a heap with the same journal — a sibling worker
/// thread analyzing another export, or a later analysis of a program variant
/// sharing the same module-loading prefix. Epochs make the cross-run reuse
/// measurable: callers bump [`SharedVerdictCache::advance_epoch`] between
/// runs and read [`SharedVerdictCache::cross_epoch_hits`].
#[derive(Debug, Clone, Default)]
pub struct SharedVerdictCache {
    inner: Arc<SharedCacheInner>,
}

impl SharedVerdictCache {
    /// Creates an empty cache (epoch zero).
    pub fn new() -> Self {
        SharedVerdictCache::default()
    }

    /// Creates a cache whose misses fall through to (and whose new verdicts
    /// append to) a persistent [`crate::AnalysisStore`]. The store's engine
    /// fingerprint keeps configurations apart; within one configuration the
    /// content-addressed keys make disk verdicts exactly as trustworthy as
    /// in-memory ones.
    pub fn with_store(store: crate::store::AnalysisStore) -> Self {
        SharedVerdictCache {
            inner: Arc::new(SharedCacheInner {
                persist: Some(store),
                ..SharedCacheInner::default()
            }),
        }
    }

    /// True when a persistent store backs this cache.
    pub fn has_store(&self) -> bool {
        self.inner.persist.is_some()
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<HashMap<CacheKey, (u32, Proof)>> {
        &self.inner.shards[(key.0 as usize) % CACHE_SHARDS]
    }

    /// Looks up a verdict; the second component reports whether it came
    /// from the persistent tier (`true`) or the in-memory shards (`false`).
    fn lookup(&self, key: &CacheKey) -> Option<(Proof, bool)> {
        let entry = self
            .shard(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key)
            .copied();
        if let Some((stored_epoch, proof)) = entry {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            if stored_epoch < self.inner.epoch.load(Ordering::Relaxed) {
                self.inner.cross_epoch_hits.fetch_add(1, Ordering::Relaxed);
            }
            return Some((proof, false));
        }
        let persist = self.inner.persist.as_ref()?;
        let proof = persist.lookup_verdict(&crate::store::verdict_key_bytes(key))?;
        // Adopt the disk verdict into its shard at the *current* epoch (it
        // is not an in-memory cross-run reuse) so repeat lookups stay off
        // the store path. Not counted in `hits`: that counter measures the
        // in-memory tier, the store keeps its own.
        let epoch = self.inner.epoch.load(Ordering::Relaxed);
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        if shard.len() >= SHARD_CAPACITY {
            shard.clear();
        }
        shard.entry(key.clone()).or_insert((epoch, proof));
        Some((proof, true))
    }

    /// Stores a verdict in the in-memory shards and, when a persistent
    /// store is attached, on disk. Returns `true` when the verdict was new
    /// to the store (a record was appended).
    fn store(&self, key: CacheKey, proof: Proof) -> bool {
        let key_bytes = self
            .inner
            .persist
            .as_ref()
            .map(|_| crate::store::verdict_key_bytes(&key));
        let epoch = self.inner.epoch.load(Ordering::Relaxed);
        {
            let mut shard = self.shard(&key).lock().expect("cache shard poisoned");
            if shard.len() >= SHARD_CAPACITY {
                shard.clear();
            }
            // Keep the oldest epoch tag: re-storing an entry in a later run
            // must not mask its cross-run provenance.
            shard.entry(key).or_insert((epoch, proof));
        }
        match (&self.inner.persist, key_bytes) {
            (Some(persist), Some(bytes)) => persist.record_verdict(&bytes, proof),
            _ => false,
        }
    }

    /// Starts a new epoch. Entries stored before the call count as
    /// cross-epoch when hit afterwards.
    pub fn advance_epoch(&self) {
        self.inner.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Total lookups served from this cache, over all sessions and epochs.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Hits on entries stored in an earlier epoch than the lookup's.
    pub fn cross_epoch_hits(&self) -> u64 {
        self.inner.cross_epoch_hits.load(Ordering::Relaxed)
    }

    /// Number of memoized verdicts currently held.
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// True if no verdict is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A synchronized prefix of some heap's journal: the solver's assertion
/// stack up to the frame's scope reflects exactly `len` journal events whose
/// chain fingerprint is `fingerprint`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    len: usize,
    fingerprint: u64,
}

/// Does `heap`'s journal extend the synchronized prefix `frame`?
fn extends(heap: &Heap, frame: &Frame) -> bool {
    heap.journal_len() >= frame.len && heap.journal_fingerprint_at(frame.len) == frame.fingerprint
}

/// A stateful prover: tag reasoning on refinements plus incremental numeric
/// queries against a live first-order solver.
///
/// Unlike the original `Copy` prover, a session owns solver state and must
/// be threaded mutably through the evaluator (it lives in `eval::Ctx`).
#[derive(Debug)]
pub struct ProverSession {
    /// The live solver; its scopes parallel `frames[1..]`.
    solver: Solver,
    /// Synchronized journal prefixes, outermost first. Empty until the first
    /// solver-backed query; `frames[0]` is the base (scope-0) encoding.
    frames: Vec<Frame>,
    /// Memoized verdicts keyed by heap fingerprint + generation + query.
    cache: HashMap<CacheKey, Proof>,
    /// Optional second-level cache shared with other sessions (sibling
    /// worker threads, other analysis runs). Checked after the private
    /// cache; hits are copied into the private cache.
    shared: Option<SharedVerdictCache>,
    /// Work counters.
    stats: SessionStats,
    /// Next auxiliary variable for division/modulo witnesses.
    aux_next: u32,
}

impl Default for ProverSession {
    fn default() -> Self {
        ProverSession::new()
    }
}

impl ProverSession {
    /// Creates a session with the default solver configuration.
    pub fn new() -> Self {
        ProverSession::with_config(SolverConfig::default())
    }

    /// Creates a session whose live solver uses `config`.
    pub fn with_config(config: SolverConfig) -> Self {
        ProverSession {
            solver: Solver::with_config(config),
            frames: Vec::new(),
            cache: HashMap::new(),
            shared: None,
            stats: SessionStats::ZERO,
            aux_next: SESSION_AUX_BASE,
        }
    }

    /// Creates a session backed by a [`SharedVerdictCache`] in addition to
    /// its private cache. Sessions sharing a cache exchange verdicts keyed
    /// by heap fingerprint, which is safe across threads and runs because
    /// the fingerprint identifies constraint content, not session state.
    pub fn with_config_and_cache(config: SolverConfig, shared: SharedVerdictCache) -> Self {
        let mut session = ProverSession::with_config(config);
        session.shared = Some(shared);
        session
    }

    /// The shared cache backing this session, if any.
    pub fn shared_cache(&self) -> Option<&SharedVerdictCache> {
        self.shared.as_ref()
    }

    /// Connects this session to a cross-worker theory-lemma pool
    /// ([`folic::SharedLemmaPool`]): the live solver publishes the theory
    /// lemmas it derives and imports the siblings' at check boundaries.
    /// Lemmas are universally valid facts over globally-interned atoms, so
    /// sharing them never changes which verdicts are sound, only how fast
    /// the searches converge.
    pub fn set_lemma_pool(&mut self, pool: SharedLemmaPool) {
        self.solver.set_lemma_pool(pool);
    }

    /// Builder form of [`ProverSession::set_lemma_pool`].
    pub fn with_lemma_pool(mut self, pool: SharedLemmaPool) -> Self {
        self.set_lemma_pool(pool);
        self
    }

    /// A snapshot of the session's counters, including the live solver's.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            solver: self.solver.stats(),
            ..self.stats
        }
    }

    /// Resets all counters (solver state and cache are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = SessionStats::default();
        self.solver.reset_stats();
    }

    fn cache_lookup(&mut self, heap: &Heap, query: &Query) -> Option<Proof> {
        let key = (heap.fingerprint(), heap.generation(), query.clone());
        if let Some(proof) = self.cache.get(&key).copied() {
            self.stats.cache_hits += 1;
            return Some(proof);
        }
        if let Some(shared) = &self.shared {
            if let Some((proof, from_store)) = shared.lookup(&key) {
                self.stats.cache_hits += 1;
                self.stats.shared_cache_hits += 1;
                if from_store {
                    self.stats.store_hits += 1;
                }
                self.cache.insert(key, proof);
                return Some(proof);
            }
            if shared.has_store() {
                self.stats.store_misses += 1;
            }
        }
        None
    }

    fn cache_store(&mut self, heap: &Heap, query: Query, proof: Proof) {
        // A crude bound so pathological runs cannot grow without limit.
        if self.cache.len() >= 1 << 20 {
            self.cache.clear();
        }
        let key = (heap.fingerprint(), heap.generation(), query);
        if let Some(shared) = &self.shared {
            if shared.store(key.clone(), proof) {
                self.stats.store_writes += 1;
            }
        }
        self.cache.insert(key, proof);
    }

    /// Does the value at `loc` have tag `tag`? Three-valued, using concrete
    /// values and tag refinements (never the solver).
    pub fn prove_tag(&mut self, heap: &Heap, loc: Loc, tag: &Tag) -> Proof {
        self.stats.queries += 1;
        self.stats.tag_queries += 1;
        let query = Query::Tag(loc, tag.clone());
        if let Some(proof) = self.cache_lookup(heap, &query) {
            return proof;
        }
        let proof = tag_verdict(heap, loc, tag);
        self.cache_store(heap, query, proof);
        proof
    }

    /// Does the numeric value at `loc` stand in relation `op` to `rhs`?
    pub fn prove_num(&mut self, heap: &Heap, loc: Loc, op: CmpOp, rhs: &CSymExpr) -> Proof {
        self.stats.queries += 1;
        self.stats.num_queries += 1;
        let query = Query::Num(loc, op, rhs.clone());
        if let Some(proof) = self.cache_lookup(heap, &query) {
            return proof;
        }
        let proof = self.prove_num_live(heap, loc, op, rhs);
        self.cache_store(heap, query, proof);
        proof
    }

    /// Syncs the live solver to the heap's journal, then queries inside a
    /// scope.
    fn prove_num_live(&mut self, heap: &Heap, loc: Loc, op: CmpOp, rhs: &CSymExpr) -> Proof {
        self.sync(heap);
        let mut translation = Translation::with_next_aux(self.aux_next);
        let lhs = Term::var(loc.solver_var());
        let rhs_term = translate_sym_expr(rhs, &mut translation);
        let goal = Formula::atom(lhs, op, rhs_term);
        if translation.formulas.is_empty() {
            return self.solver.prove(&goal);
        }
        // The goal introduced division witnesses: assert their defining
        // constraints in a query-local scope.
        self.aux_next = translation.next_aux;
        self.solver.push();
        for formula in translation.formulas {
            self.solver.assert(formula);
        }
        let proof = self.solver.prove(&goal);
        self.solver.pop();
        proof
    }

    /// A model of the heap's numeric constraints, for counterexample
    /// construction.
    pub fn heap_model(&mut self, heap: &Heap) -> Option<Model> {
        self.stats.queries += 1;
        self.stats.model_queries += 1;
        self.sync(heap);
        match self.solver.check() {
            SmtResult::Sat(model) => Some(model),
            _ => None,
        }
    }

    /// Brings the live solver's assertion stack in sync with `heap`: pops
    /// scopes for abandoned branches and asserts the unseen journal suffix,
    /// or re-encodes from scratch when there is no prefix to extend or the
    /// suffix holds a non-monotone overwrite.
    fn sync(&mut self, heap: &Heap) {
        // Pop back to the deepest synchronized prefix this heap extends.
        while let Some(frame) = self.frames.last() {
            if extends(heap, frame) {
                break;
            }
            self.frames.pop();
            if !self.frames.is_empty() {
                self.solver.pop();
            }
        }
        let Some(frame) = self.frames.last() else {
            return self.full_sync(heap);
        };
        let frame_len = frame.len;
        if heap.journal_len() == frame_len {
            self.stats.reused_encodings += 1;
            return;
        }
        // A rebase invalidates formulas already asserted about the
        // overwritten location, possibly in the base frame.
        if heap
            .journal_suffix(frame_len)
            .any(|entry| matches!(entry.event, JournalEvent::Rebase(_)))
        {
            return self.full_sync(heap);
        }
        let mut translation = Translation::with_next_aux(self.aux_next);
        // Locations re-encoded wholesale by a Touched event need no
        // per-refinement/per-entry delta formulas of their own (the
        // wholesale translation already reflects the location's final
        // state), and repeated events encode only once.
        let wholesale: std::collections::HashSet<Loc> = heap
            .journal_suffix(frame_len)
            .filter_map(|entry| match entry.event {
                JournalEvent::Touched(loc) => Some(loc),
                _ => None,
            })
            .collect();
        let mut pending = wholesale.clone();
        for entry in heap.journal_suffix(frame_len) {
            match entry.event {
                JournalEvent::Touched(loc) => {
                    if pending.remove(&loc) {
                        translate_loc(heap, loc, &mut translation);
                    }
                }
                JournalEvent::Refined(loc, index) => {
                    if !wholesale.contains(&loc) {
                        translate_refinement_at(heap, loc, index, &mut translation);
                    }
                }
                JournalEvent::EntryAdded(loc, index) => {
                    if !wholesale.contains(&loc) {
                        translate_entry_at(heap, loc, index, &mut translation);
                    }
                }
                JournalEvent::Rebase(_) => unreachable!("rebases re-encode above"),
            }
        }
        self.aux_next = translation.next_aux;
        self.solver.push();
        for formula in translation.formulas {
            self.solver.assert(formula);
        }
        self.stats.delta_encodings += 1;
        self.frames.push(Frame {
            len: heap.journal_len(),
            fingerprint: heap.fingerprint(),
        });
    }

    /// Retracts the live solver's assertions and encodes the whole heap as
    /// the new base. Under the persistent solver core the solver object
    /// itself survives — its interned atoms, Tseitin encodings and theory
    /// lemmas carry over, so the re-encode pays hash lookups where the old
    /// engine paid fresh allocations (under [`folic::CoreMode::Scratch`]
    /// the retraction is equivalent to the historical solver swap).
    fn full_sync(&mut self, heap: &Heap) {
        self.solver.clear_assertions();
        self.aux_next = SESSION_AUX_BASE;
        let mut translation = Translation::with_next_aux(self.aux_next);
        for (loc, _) in heap.iter() {
            translate_loc(heap, loc, &mut translation);
        }
        self.aux_next = translation.next_aux;
        for formula in translation.formulas {
            self.solver.assert(formula);
        }
        self.stats.full_encodings += 1;
        self.frames = vec![Frame {
            len: heap.journal_len(),
            fingerprint: heap.fingerprint(),
        }];
    }
}

/// Is `sub` a subtag of `sup` (every `sub` value is a `sup` value)?
fn subtag(sub: &Tag, sup: &Tag) -> bool {
    match (sub, sup) {
        _ if sub == sup => true,
        (Tag::Integer, Tag::Real | Tag::Number) => true,
        (Tag::Real, Tag::Number) => true,
        _ => false,
    }
}

/// Are two tags disjoint (no value has both)?
fn disjoint(a: &Tag, b: &Tag) -> bool {
    if subtag(a, b) || subtag(b, a) {
        return false;
    }
    // Number/Real/Integer overlap each other but nothing else; all remaining
    // tag pairs are disjoint.
    true
}

/// The three-valued tag verdict, computed from concrete values and tag
/// refinements alone.
fn tag_verdict(heap: &Heap, loc: Loc, tag: &Tag) -> Proof {
    match heap.get(loc) {
        SVal::Num(n) => concrete_tag(&number_tag(*n), tag),
        SVal::Bool(_) => concrete_tag(&Tag::Boolean, tag),
        SVal::Str(_) => concrete_tag(&Tag::StringT, tag),
        SVal::Nil => concrete_tag(&Tag::Null, tag),
        SVal::Pair(_, _) => concrete_tag(&Tag::Pair, tag),
        SVal::Closure { .. } | SVal::Guarded { .. } => concrete_tag(&Tag::Procedure, tag),
        SVal::StructVal { tag: name, .. } => concrete_tag(&Tag::Struct(name.clone()), tag),
        SVal::BoxVal(_) => concrete_tag(&Tag::BoxT, tag),
        SVal::Contract(_) => Proof::Refuted,
        SVal::Opaque { refinements, .. } => {
            for refinement in refinements {
                match refinement {
                    CRefinement::Is(known) => {
                        if subtag(known, tag) {
                            return Proof::Proved;
                        }
                        if disjoint(known, tag) {
                            return Proof::Refuted;
                        }
                    }
                    CRefinement::IsNot(known) => {
                        if subtag(tag, known) {
                            return Proof::Refuted;
                        }
                    }
                    CRefinement::NumCmp(_, _) => {
                        // Having a numeric refinement implies being a number.
                        if subtag(&Tag::Integer, tag) {
                            return Proof::Proved;
                        }
                    }
                    CRefinement::IsFalse => {
                        if *tag == Tag::Boolean {
                            return Proof::Proved;
                        }
                        if disjoint(&Tag::Boolean, tag) {
                            return Proof::Refuted;
                        }
                    }
                    CRefinement::IsTruthy => {}
                }
            }
            Proof::Ambiguous
        }
    }
}

fn number_tag(n: Number) -> Tag {
    if n.is_real() {
        Tag::Integer
    } else {
        Tag::Number
    }
}

fn concrete_tag(actual: &Tag, asked: &Tag) -> Proof {
    if subtag(actual, asked) {
        Proof::Proved
    } else {
        Proof::Refuted
    }
}

/// The result of translating a heap into formulas.
#[derive(Debug, Clone, Default)]
pub struct Translation {
    /// Conjuncts describing the heap's numeric content.
    pub formulas: Vec<Formula>,
    next_aux: u32,
}

impl Translation {
    /// An empty translation allocating auxiliary variables from `next_aux`.
    pub fn with_next_aux(next_aux: u32) -> Self {
        Translation {
            formulas: Vec::new(),
            next_aux,
        }
    }

    /// The next auxiliary variable index this translation would hand out.
    pub fn next_aux(&self) -> u32 {
        self.next_aux
    }

    fn fresh_aux(&mut self) -> Var {
        let var = Var::new(self.next_aux);
        self.next_aux += 1;
        var
    }
}

/// Translates the numeric portion of the whole heap into formulas, with
/// auxiliary variables allocated above the heap's own locations. This is the
/// encoding the reference oracle performs on every query.
pub fn translate_heap(heap: &Heap) -> Translation {
    let mut translation = Translation::with_next_aux(heap.next_index());
    for (loc, _) in heap.iter() {
        translate_loc(heap, loc, &mut translation);
    }
    translation
}

/// The reference oracle for [`ProverSession::prove_num`]: translates the
/// whole heap and the goal into a fresh solver built from `config` and asks
/// one query. It shares no state with any session, which is what makes it
/// the baseline the differential tests compare sessions against.
pub fn reference_prove_num(
    heap: &Heap,
    loc: Loc,
    op: CmpOp,
    rhs: &CSymExpr,
    config: SolverConfig,
) -> Proof {
    let mut translation = translate_heap(heap);
    let rhs_term = translate_sym_expr(rhs, &mut translation);
    let goal = Formula::atom(Term::var(loc.solver_var()), op, rhs_term);
    reference_solver(translation, config).prove(&goal)
}

/// The reference oracle for [`ProverSession::heap_model`]: a model of the
/// whole heap's translation, from a fresh solver built from `config`.
pub fn reference_heap_model(heap: &Heap, config: SolverConfig) -> Option<Model> {
    match reference_solver(translate_heap(heap), config).check() {
        SmtResult::Sat(model) => Some(model),
        _ => None,
    }
}

fn reference_solver(translation: Translation, config: SolverConfig) -> Solver {
    let mut solver = Solver::with_config(config);
    for formula in translation.formulas {
        solver.assert(formula);
    }
    solver
}

/// Emits the formulas contributed by a single location: a defining equality
/// for concrete integers, and for opaque values their numeric refinements
/// plus the functionality constraints of the memo table.
fn translate_loc(heap: &Heap, loc: Loc, translation: &mut Translation) {
    match heap.try_get(loc) {
        Some(SVal::Num(Number::Int(n))) => {
            translation
                .formulas
                .push(Formula::eq(Term::var(loc.solver_var()), Term::int(*n)));
        }
        Some(SVal::Opaque {
            refinements,
            entries,
            ..
        }) => {
            for refinement in refinements {
                if let CRefinement::NumCmp(op, rhs) = refinement {
                    let rhs_term = translate_sym_expr(rhs, translation);
                    translation.formulas.push(Formula::atom(
                        Term::var(loc.solver_var()),
                        *op,
                        rhs_term,
                    ));
                }
            }
            // Functionality of the memo table: equal numeric inputs give
            // equal numeric outputs (only encoded for base-valued pairs).
            for i in 0..entries.len() {
                for j in (i + 1)..entries.len() {
                    functionality_formula(heap, &entries[i], &entries[j], translation);
                }
            }
        }
        _ => {}
    }
}

/// Emits the formula for one numeric refinement appended at `loc` (no-op for
/// tag refinements, which are never solver-encoded).
fn translate_refinement_at(heap: &Heap, loc: Loc, index: usize, translation: &mut Translation) {
    if let Some(SVal::Opaque { refinements, .. }) = heap.try_get(loc) {
        if let Some(CRefinement::NumCmp(op, rhs)) = refinements.get(index) {
            let rhs_term = translate_sym_expr(rhs, translation);
            translation
                .formulas
                .push(Formula::atom(Term::var(loc.solver_var()), *op, rhs_term));
        }
    }
}

/// Emits the functionality constraints pairing the memo entry appended at
/// `index` with every earlier entry of the same opaque function.
fn translate_entry_at(heap: &Heap, loc: Loc, index: usize, translation: &mut Translation) {
    if let Some(SVal::Opaque { entries, .. }) = heap.try_get(loc) {
        if let Some(new_entry) = entries.get(index) {
            for old_entry in &entries[..index.min(entries.len())] {
                functionality_formula(heap, old_entry, new_entry, translation);
            }
        }
    }
}

/// `(a₁ = b₁ ∧ … ∧ aₙ = bₙ) ⇒ r = s` for two memo entries of the same
/// arity whose arguments and results are all base-valued.
fn functionality_formula(
    heap: &Heap,
    (args_i, res_i): &(Vec<Loc>, Loc),
    (args_j, res_j): &(Vec<Loc>, Loc),
    translation: &mut Translation,
) {
    let all_base = args_i.len() == args_j.len()
        && args_i
            .iter()
            .chain(args_j)
            .chain([res_i, res_j])
            .all(|&loc| is_base(heap, loc));
    if !all_base {
        return;
    }
    let premise = Formula::and(
        args_i
            .iter()
            .zip(args_j)
            .map(|(a, b)| Formula::eq(Term::var(a.solver_var()), Term::var(b.solver_var())))
            .collect(),
    );
    translation.formulas.push(Formula::implies(
        premise,
        Formula::eq(Term::var(res_i.solver_var()), Term::var(res_j.solver_var())),
    ));
}

fn is_base(heap: &Heap, loc: Loc) -> bool {
    matches!(
        heap.try_get(loc),
        Some(SVal::Num(_)) | Some(SVal::Opaque { .. })
    )
}

/// Translates a symbolic expression, adding division side constraints.
pub fn translate_sym_expr(expr: &CSymExpr, translation: &mut Translation) -> Term {
    match expr {
        CSymExpr::Loc(l) => Term::var(l.solver_var()),
        CSymExpr::Const(n) => Term::int(*n),
        CSymExpr::Add(a, b) => Term::add(
            translate_sym_expr(a, translation),
            translate_sym_expr(b, translation),
        ),
        CSymExpr::Sub(a, b) => Term::sub(
            translate_sym_expr(a, translation),
            translate_sym_expr(b, translation),
        ),
        CSymExpr::Mul(a, b) => Term::mul(
            translate_sym_expr(a, translation),
            translate_sym_expr(b, translation),
        ),
        CSymExpr::Div(a, b) | CSymExpr::Mod(a, b) => {
            let dividend = translate_sym_expr(a, translation);
            let divisor = translate_sym_expr(b, translation);
            let quotient = Term::var(translation.fresh_aux());
            let remainder = Term::var(translation.fresh_aux());
            translation.formulas.push(Formula::eq(
                dividend.clone(),
                Term::add(
                    Term::mul(quotient.clone(), divisor.clone()),
                    remainder.clone(),
                ),
            ));
            translation.formulas.push(Formula::implies(
                Formula::gt(divisor.clone(), Term::int(0)),
                Formula::and(vec![
                    Formula::lt(remainder.clone(), divisor.clone()),
                    Formula::lt(Term::neg(divisor.clone()), remainder.clone()),
                ]),
            ));
            translation.formulas.push(Formula::implies(
                Formula::lt(divisor.clone(), Term::int(0)),
                Formula::and(vec![
                    Formula::lt(remainder.clone(), Term::neg(divisor.clone())),
                    Formula::lt(divisor, remainder.clone()),
                ]),
            ));
            translation.formulas.push(Formula::or(vec![
                Formula::eq(remainder.clone(), Term::int(0)),
                Formula::and(vec![
                    Formula::gt(dividend.clone(), Term::int(0)),
                    Formula::gt(remainder.clone(), Term::int(0)),
                ]),
                Formula::and(vec![
                    Formula::lt(dividend, Term::int(0)),
                    Formula::lt(remainder.clone(), Term::int(0)),
                ]),
            ]));
            if matches!(expr, CSymExpr::Div(_, _)) {
                quotient
            } else {
                remainder
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_lattice() {
        assert!(subtag(&Tag::Integer, &Tag::Number));
        assert!(subtag(&Tag::Integer, &Tag::Real));
        assert!(!subtag(&Tag::Number, &Tag::Integer));
        assert!(disjoint(&Tag::Pair, &Tag::Procedure));
        assert!(!disjoint(&Tag::Integer, &Tag::Number));
    }

    #[test]
    fn concrete_values_have_decided_tags() {
        let mut heap = Heap::new();
        let n = heap.alloc(SVal::Num(Number::Int(3)));
        let c = heap.alloc(SVal::Num(Number::complex(0, 1)));
        let p = heap.alloc(SVal::Pair(n, c));
        let mut session = ProverSession::new();
        assert_eq!(session.prove_tag(&heap, n, &Tag::Integer), Proof::Proved);
        assert_eq!(session.prove_tag(&heap, n, &Tag::Number), Proof::Proved);
        assert_eq!(session.prove_tag(&heap, c, &Tag::Number), Proof::Proved);
        assert_eq!(session.prove_tag(&heap, c, &Tag::Real), Proof::Refuted);
        assert_eq!(session.prove_tag(&heap, p, &Tag::Pair), Proof::Proved);
        assert_eq!(session.prove_tag(&heap, p, &Tag::Number), Proof::Refuted);
    }

    #[test]
    fn refinements_decide_tags() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        let mut session = ProverSession::new();
        assert_eq!(session.prove_tag(&heap, l, &Tag::Pair), Proof::Ambiguous);
        heap.refine(l, CRefinement::Is(Tag::Integer));
        assert_eq!(session.prove_tag(&heap, l, &Tag::Number), Proof::Proved);
        assert_eq!(session.prove_tag(&heap, l, &Tag::Pair), Proof::Refuted);
    }

    #[test]
    fn negative_refinements_refute() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::IsNot(Tag::Pair));
        let mut session = ProverSession::new();
        assert_eq!(session.prove_tag(&heap, l, &Tag::Pair), Proof::Refuted);
        assert_eq!(session.prove_tag(&heap, l, &Tag::Number), Proof::Ambiguous);
    }

    #[test]
    fn numeric_refinements_feed_the_solver() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        let mut session = ProverSession::new();
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0)),
            Proof::Proved
        );
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Eq, &CSymExpr::int(0)),
            Proof::Refuted
        );
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Eq, &CSymExpr::int(7)),
            Proof::Ambiguous
        );
    }

    #[test]
    fn heap_model_solves_linked_refinements() {
        let mut heap = Heap::new();
        let n = heap.alloc_fresh_opaque();
        let d = heap.alloc_fresh_opaque();
        heap.refine(
            d,
            CRefinement::NumCmp(
                CmpOp::Eq,
                CSymExpr::Sub(Box::new(CSymExpr::int(100)), Box::new(CSymExpr::loc(n))),
            ),
        );
        heap.refine(d, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(0)));
        let mut session = ProverSession::new();
        let model = session.heap_model(&heap).expect("satisfiable");
        assert_eq!(model.value(n.solver_var()), Some(100));
    }

    #[test]
    fn memo_table_functionality_is_encoded() {
        let mut heap = Heap::new();
        let a = heap.alloc(SVal::Num(Number::Int(5)));
        let b = heap.alloc(SVal::Num(Number::Int(5)));
        let x = heap.alloc(SVal::Num(Number::Int(1)));
        let y = heap.alloc(SVal::Num(Number::Int(0)));
        let f = heap.alloc_fresh_opaque();
        heap.set(
            f,
            SVal::Opaque {
                refinements: vec![CRefinement::Is(Tag::Procedure)],
                entries: vec![(vec![a], x), (vec![b], y)],
                demonic: Vec::new(),
            },
        );
        let mut session = ProverSession::new();
        assert!(
            session.heap_model(&heap).is_none(),
            "5 ↦ 1 and 5 ↦ 0 conflict"
        );
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        let mut session = ProverSession::new();
        let first = session.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0));
        let second = session.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0));
        assert_eq!(first, second);
        let stats = session.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(
            stats.full_encodings, 1,
            "the heap is encoded once, not twice"
        );
    }

    #[test]
    fn shared_cache_exchanges_verdicts_between_sessions() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        let cache = SharedVerdictCache::new();
        let mut first =
            ProverSession::with_config_and_cache(SolverConfig::default(), cache.clone());
        let mut second =
            ProverSession::with_config_and_cache(SolverConfig::default(), cache.clone());
        let a = first.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0));
        let b = second.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0));
        assert_eq!(a, b);
        assert_eq!(first.stats().shared_cache_hits, 0, "first session computed");
        assert_eq!(
            second.stats().shared_cache_hits,
            1,
            "second session inherited the verdict"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(
            second.stats().full_encodings + second.stats().delta_encodings,
            0,
            "the inherited verdict needed no solver work"
        );
    }

    #[test]
    fn shared_cache_counts_cross_epoch_hits() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        let cache = SharedVerdictCache::new();
        let mut first =
            ProverSession::with_config_and_cache(SolverConfig::default(), cache.clone());
        first.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0));
        cache.advance_epoch();
        // A later run (new session, same heap content) hits the entry
        // planted before the epoch boundary.
        let mut second =
            ProverSession::with_config_and_cache(SolverConfig::default(), cache.clone());
        second.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0));
        assert_eq!(cache.cross_epoch_hits(), 1);
        // Same-epoch hits do not count as cross-epoch.
        let mut third =
            ProverSession::with_config_and_cache(SolverConfig::default(), cache.clone());
        third.prove_num(&heap, l, CmpOp::Le, &CSymExpr::int(4));
        let mut fourth =
            ProverSession::with_config_and_cache(SolverConfig::default(), cache.clone());
        fourth.prove_num(&heap, l, CmpOp::Le, &CSymExpr::int(4));
        assert_eq!(cache.cross_epoch_hits(), 1, "same-epoch hit not counted");
        assert!(cache.hits() >= 2);
    }

    #[test]
    fn shared_cache_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedVerdictCache>();
    }

    #[test]
    fn journal_growth_encodes_only_the_delta() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        let mut session = ProverSession::new();
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0)),
            Proof::Proved
        );
        // Grow the same path: only the new constraint should be asserted.
        heap.refine(l, CRefinement::NumCmp(CmpOp::Le, CSymExpr::int(10)));
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Lt, &CSymExpr::int(11)),
            Proof::Proved
        );
        let stats = session.stats();
        assert_eq!(stats.full_encodings, 1);
        assert_eq!(stats.delta_encodings, 1);
    }

    #[test]
    fn sibling_branches_pop_back_to_the_shared_prefix() {
        let mut parent = Heap::new();
        let l = parent.alloc_fresh_opaque();
        parent.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
        let mut session = ProverSession::new();
        assert_eq!(
            session.prove_num(&parent, l, CmpOp::Ge, &CSymExpr::int(0)),
            Proof::Proved
        );
        let mut yes = parent.clone();
        yes.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(10)));
        let mut no = parent.clone();
        no.refine(l, CRefinement::NumCmp(CmpOp::Lt, CSymExpr::int(10)));
        assert_eq!(
            session.prove_num(&yes, l, CmpOp::Ge, &CSymExpr::int(10)),
            Proof::Proved
        );
        assert_eq!(
            session.prove_num(&no, l, CmpOp::Lt, &CSymExpr::int(10)),
            Proof::Proved
        );
        let stats = session.stats();
        assert_eq!(
            stats.full_encodings, 1,
            "the shared prefix is never re-encoded"
        );
        assert_eq!(stats.delta_encodings, 2, "one delta per branch");
    }

    #[test]
    fn retraction_falls_back_to_reencoding_below_the_base_frame() {
        // The overwritten location's constraint lives in the base (scope-0)
        // encoding: there is no frame to pop, and the session retracts the
        // stale constraint by re-encoding the whole heap.
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        let mut session = ProverSession::new();
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Gt, &CSymExpr::int(0)),
            Proof::Proved
        );
        // Non-monotone overwrite: the numeric constraint disappears.
        let car = heap.alloc_fresh_opaque();
        let cdr = heap.alloc_fresh_opaque();
        heap.set(l, SVal::Pair(car, cdr));
        let m = heap.alloc_fresh_opaque();
        let zero = CSymExpr::int(0);
        assert_eq!(
            session.prove_num(&heap, m, CmpOp::Eq, &zero),
            Proof::Ambiguous,
            "the stale `l ≥ 5` constraint must not leak into the new state"
        );
        assert_eq!(
            reference_prove_num(&heap, m, CmpOp::Eq, &zero, SolverConfig::default()),
            Proof::Ambiguous
        );
        let stats = session.stats();
        assert_eq!(stats.full_encodings, 2, "{stats:?}");
    }

    #[test]
    fn rebases_force_a_full_reencode() {
        // The overwritten location's constraint entered in a delta frame
        // above the base: the rebase still costs exactly one re-encode.
        let reference = |heap: &Heap, loc: Loc, op: CmpOp, rhs: &CSymExpr| {
            reference_prove_num(heap, loc, op, rhs, SolverConfig::default())
        };
        let mut session = ProverSession::new();
        let mut heap = Heap::new();
        let l0 = heap.alloc_fresh_opaque();
        heap.refine(l0, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
        assert_eq!(
            session.prove_num(&heap, l0, CmpOp::Gt, &CSymExpr::int(-1)),
            Proof::Proved,
            "base frame"
        );
        let l1 = heap.alloc_fresh_opaque();
        heap.refine(l1, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        assert_eq!(
            session.prove_num(&heap, l1, CmpOp::Gt, &CSymExpr::int(0)),
            Proof::Proved,
            "first delta frame"
        );
        let l2 = heap.alloc_fresh_opaque();
        heap.refine(l2, CRefinement::NumCmp(CmpOp::Le, CSymExpr::int(2)));
        assert_eq!(
            session.prove_num(&heap, l2, CmpOp::Lt, &CSymExpr::int(3)),
            Proof::Proved,
            "second delta frame"
        );
        let before = session.stats();
        assert_eq!((before.full_encodings, before.delta_encodings), (1, 2));
        // Structural refinement of l1: non-monotone.
        let car = heap.alloc_fresh_opaque();
        let cdr = heap.alloc_fresh_opaque();
        heap.set(l1, SVal::Pair(car, cdr));
        assert_eq!(heap.last_journal_event(), Some(JournalEvent::Rebase(l1)));
        let queries = [
            (l2, CmpOp::Le, CSymExpr::int(2), Proof::Proved),
            (l0, CmpOp::Ge, CSymExpr::int(0), Proof::Proved),
            (l1, CmpOp::Ge, CSymExpr::int(5), Proof::Ambiguous),
        ];
        for (loc, op, rhs, expected) in &queries {
            let verdict = session.prove_num(&heap, *loc, *op, rhs);
            assert_eq!(verdict, *expected, "{loc} {op:?} {rhs:?}");
            assert_eq!(verdict, reference(&heap, *loc, *op, rhs));
        }
        let after = session.stats();
        assert_eq!(
            after.full_encodings,
            before.full_encodings + 1,
            "one re-encode absorbs the rebase: {after:?}"
        );
        assert_eq!(after.delta_encodings, before.delta_encodings, "{after:?}");
    }

    /// An opaque function's memo table [(a, r1), (b, r2)] with r1 ≥ 0 and
    /// r2 ≤ -1 entails a ≠ b via functionality. Structurally refining `a`
    /// to a pair afterwards retracts that implication (the baseline's
    /// is_base check drops it), so the incremental session must rebase
    /// rather than keep the stale formula. `anchor_first` puts the memo
    /// table in a delta frame above a base frame instead of in the base.
    fn overwrite_memo_referenced_location(anchor_first: bool) {
        let mut heap = Heap::new();
        let mut incremental = ProverSession::new();
        if anchor_first {
            let anchor = heap.alloc_fresh_opaque();
            heap.refine(anchor, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
            assert_eq!(
                incremental.prove_num(&heap, anchor, CmpOp::Ge, &CSymExpr::int(0)),
                Proof::Proved
            );
        }
        let f = heap.alloc_fresh_opaque();
        let a = heap.alloc_fresh_opaque();
        let b = heap.alloc_fresh_opaque();
        let r1 = heap.alloc_fresh_opaque();
        let r2 = heap.alloc_fresh_opaque();
        heap.refine(r1, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
        heap.refine(r2, CRefinement::NumCmp(CmpOp::Le, CSymExpr::int(-1)));
        heap.set(
            f,
            SVal::Opaque {
                refinements: Vec::new(),
                entries: vec![(vec![a], r1), (vec![b], r2)],
                demonic: Vec::new(),
            },
        );
        let rhs = CSymExpr::loc(b);
        let reference =
            |heap: &Heap| reference_prove_num(heap, a, CmpOp::Ne, &rhs, SolverConfig::default());
        // Session and reference derive a ≠ b while the entries are
        // base-valued; this also plants the functionality implication on the
        // live solver.
        let before_incremental = incremental.prove_num(&heap, a, CmpOp::Ne, &rhs);
        assert_eq!(before_incremental, Proof::Proved);
        assert_eq!(before_incremental, reference(&heap));
        let before = incremental.stats();
        // Structural refinement: `a` becomes a pair (non-base).
        let car = heap.alloc_fresh_opaque();
        let cdr = heap.alloc_fresh_opaque();
        heap.set(a, SVal::Pair(car, cdr));
        assert_eq!(
            heap.last_journal_event(),
            Some(JournalEvent::Rebase(a)),
            "a non-base overwrite of a memo-referenced location must rebase"
        );
        let after_incremental = incremental.prove_num(&heap, a, CmpOp::Ne, &rhs);
        assert_eq!(
            after_incremental,
            reference(&heap),
            "stale functionality constraints must not survive the overwrite"
        );
        let after = incremental.stats();
        assert_eq!(
            after.full_encodings,
            before.full_encodings + 1,
            "one re-encode absorbs the rebase: {after:?}"
        );
    }

    #[test]
    fn overwriting_memo_referenced_locations_rebases() {
        overwrite_memo_referenced_location(false);
    }

    #[test]
    fn retraction_handles_memo_functionality_overwrites() {
        // The functionality constraints enter the stream in a delta frame;
        // the overwrite retracts them and verdicts match the reference.
        overwrite_memo_referenced_location(true);
    }

    #[test]
    fn alloc_then_refine_delta_asserts_each_formula_once() {
        let mut heap = Heap::new();
        let l0 = heap.alloc_fresh_opaque();
        heap.refine(l0, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
        let mut session = ProverSession::new();
        assert_eq!(
            session.prove_num(&heap, l0, CmpOp::Gt, &CSymExpr::int(-1)),
            Proof::Proved
        );
        // A fresh allocation refined twice since the last sync: the delta
        // must assert exactly the two new formulas, not re-emit the
        // refinements on top of the wholesale encoding of the allocation.
        let l1 = heap.alloc_fresh_opaque();
        heap.refine(l1, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        heap.refine(l1, CRefinement::NumCmp(CmpOp::Le, CSymExpr::int(9)));
        assert_eq!(
            session.prove_num(&heap, l1, CmpOp::Gt, &CSymExpr::int(0)),
            Proof::Proved
        );
        let stats = session.stats();
        assert_eq!(
            stats.solver.assertions, 3,
            "1 base formula + 2 delta formulas, no duplicates: {stats:?}"
        );
    }

    #[test]
    fn reference_oracle_matches_incremental_verdicts() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        heap.refine(l, CRefinement::NumCmp(CmpOp::Le, CSymExpr::int(9)));
        let queries = [
            (CmpOp::Gt, CSymExpr::int(0)),
            (CmpOp::Eq, CSymExpr::int(7)),
            (CmpOp::Gt, CSymExpr::int(9)),
            (CmpOp::Le, CSymExpr::int(9)),
        ];
        let mut incremental = ProverSession::new();
        for (op, rhs) in &queries {
            assert_eq!(
                incremental.prove_num(&heap, l, *op, rhs),
                reference_prove_num(&heap, l, *op, rhs, SolverConfig::default()),
                "verdicts diverge on {op:?} {rhs:?}"
            );
        }
        assert!(incremental.stats().full_encodings < incremental.stats().queries);
        assert_eq!(
            incremental.heap_model(&heap).is_some(),
            reference_heap_model(&heap, SolverConfig::default()).is_some()
        );
    }

    #[test]
    fn concrete_values_are_decided() {
        let mut heap = Heap::new();
        let l = heap.alloc(SVal::Num(Number::Int(0)));
        let mut session = ProverSession::new();
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Eq, &CSymExpr::int(0)),
            Proof::Proved
        );
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Ne, &CSymExpr::int(0)),
            Proof::Refuted
        );
    }

    #[test]
    fn unconstrained_opaque_is_ambiguous() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        let mut session = ProverSession::new();
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Eq, &CSymExpr::int(0)),
            Proof::Ambiguous
        );
    }

    #[test]
    fn refinements_inform_the_proof() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(1)));
        let mut session = ProverSession::new();
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Ne, &CSymExpr::int(0)),
            Proof::Proved
        );
        assert_eq!(
            session.prove_num(&heap, l, CmpOp::Eq, &CSymExpr::int(0)),
            Proof::Refuted
        );
    }

    #[test]
    fn heap_model_reflects_constraints() {
        // A memo entry ties the result of `g` at a concrete argument to the
        // constraints on that result: g 0 = r and 100 - r = 0 force r = 100.
        let mut heap = Heap::new();
        let n = heap.alloc(SVal::Num(Number::Int(0)));
        let r = heap.alloc_fresh_opaque();
        let g = heap.alloc_fresh_opaque();
        heap.set(
            g,
            SVal::Opaque {
                refinements: vec![CRefinement::Is(Tag::Procedure)],
                entries: vec![(vec![n], r)],
                demonic: Vec::new(),
            },
        );
        let d = heap.alloc_fresh_opaque();
        heap.refine(
            d,
            CRefinement::NumCmp(
                CmpOp::Eq,
                CSymExpr::Sub(Box::new(CSymExpr::int(100)), Box::new(CSymExpr::loc(r))),
            ),
        );
        heap.refine(d, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(0)));
        let mut session = ProverSession::new();
        let model = session.heap_model(&heap).expect("satisfiable heap");
        assert_eq!(model.value(r.solver_var()), Some(100));
        assert_eq!(model.value(d.solver_var()), Some(0));
    }

    #[test]
    fn contradictory_heap_has_no_model() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Eq, CSymExpr::int(0)));
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ne, CSymExpr::int(0)));
        let mut session = ProverSession::new();
        assert!(session.heap_model(&heap).is_none());
    }
}
