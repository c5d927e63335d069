//! Property-based integration tests, driven by a seeded [`StdRng`] so runs
//! are reproducible without any external property-testing framework.
//!
//! Four families of properties:
//!
//! 1. **Solver soundness** — every model the first-order solver reports
//!    satisfies the asserted formulas, UNSAT answers agree with brute-force
//!    search on bounded instances, and validity answers are never
//!    contradicted by a witness.
//! 2. **Prover-session equivalence** — over randomized symbolic heaps and
//!    query sequences, and over seeded [`randtest::HeapTrace`]s (both with
//!    branch-cloned sibling heaps and non-monotone overwrites), the
//!    incremental [`cpcf::ProverSession`] returns exactly the verdicts and
//!    model existence of the reference oracle
//!    ([`cpcf::prove::reference_prove_num`] and
//!    [`cpcf::prove::reference_heap_model`]), which re-encodes the whole
//!    heap into a fresh solver on every query. These prove-layer
//!    differentials pin the **scratch** solver core on both sides, so they
//!    share one satisfiability oracle: the axis under test is the prove
//!    layer's bookkeeping (branch pops, deltas, re-encodes on rebases), not
//!    the solver core. (On the persistent core, clauses the session retains
//!    change which budget-limited queries exhaust the iteration budget, and
//!    exact equality fails at seed 119.)
//! 3. **Solver-core refinement fuzzing** — replaying the same traces
//!    through the persistent core (hash-consed atoms, retained clauses,
//!    cone slicing) and the scratch core must *refine* verdicts: whenever
//!    scratch decides (`Proved`/`Refuted`), persistent returns the same
//!    verdict, and persistent decides at least as often. Exact equality is
//!    deliberately not asserted: both cores degrade to `Unknown` only on
//!    budget exhaustion, and the sliced persistent pipeline legitimately
//!    decides queries whose full-instance cube-blocking loop runs out of
//!    iterations — decisive answers can never conflict, because `Sat` is
//!    witness-verified against every live formula and `Unsat` follows from
//!    sound clauses alone (the persistent core falls back to the scratch
//!    engine on any `Unknown` of its own). A companion property checks
//!    that clause retention respects frame pops: a constraint asserted in
//!    a popped frame never influences later verdicts.
//! 4. **Theory-module refinement fuzzing** — replaying traces whose
//!    generator emits native difference-constraint chains and cycles
//!    (`TraceConfig::with_diff_chains`), the engine with the
//!    difference-logic module enabled must refine the LIA-only reference:
//!    identical verdicts wherever LIA decides, at least as many decisions
//!    overall, and witness-checked models at `Sat`.

use folic::{CmpOp, Formula, Model, SmtResult, Solver, Term, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 64;

fn random_cmp(rng: &mut StdRng) -> CmpOp {
    match rng.gen_range(0..6) {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

/// A random linear atom `k·xᵢ op c` over three variables with small
/// coefficients and constants.
fn random_atom(rng: &mut StdRng) -> Formula {
    let var = Term::var(Var::new(rng.gen_range(0u32..3)));
    let coeff = rng.gen_range(-3i64..=3);
    let constant = rng.gen_range(-10i64..=10);
    Formula::atom(
        Term::mul(Term::int(coeff), var),
        random_cmp(rng),
        Term::int(constant),
    )
}

fn random_conjunction(rng: &mut StdRng) -> Vec<Formula> {
    let len = rng.gen_range(1usize..6);
    (0..len).map(|_| random_atom(rng)).collect()
}

/// Brute force: is the conjunction satisfiable with all variables in
/// `-15..=15`? (Coefficients and constants are small, so any satisfiable
/// instance in this fragment has a witness in that box.)
fn brute_force_sat(formulas: &[Formula]) -> bool {
    for x0 in -15i64..=15 {
        for x1 in -15i64..=15 {
            for x2 in -15i64..=15 {
                let model: Model = vec![(Var::new(0), x0), (Var::new(1), x1), (Var::new(2), x2)]
                    .into_iter()
                    .collect();
                if formulas
                    .iter()
                    .all(|f| model.eval_formula(f).unwrap_or(false))
                {
                    return true;
                }
            }
        }
    }
    false
}

#[test]
fn models_satisfy_their_formulas() {
    let mut rng = StdRng::seed_from_u64(0xF011C);
    for _ in 0..CASES {
        let formulas = random_conjunction(&mut rng);
        let mut solver = Solver::new();
        for f in &formulas {
            solver.assert(f.clone());
        }
        if let SmtResult::Sat(model) = solver.check() {
            assert!(
                model.satisfies_all(&formulas),
                "model {model} does not satisfy {formulas:?}"
            );
        }
    }
}

#[test]
fn sat_answers_agree_with_brute_force() {
    let mut rng = StdRng::seed_from_u64(0xB055);
    for _ in 0..CASES {
        let formulas = random_conjunction(&mut rng);
        let mut solver = Solver::new();
        for f in &formulas {
            solver.assert(f.clone());
        }
        match solver.check() {
            SmtResult::Sat(_) => {
                // Soundness of SAT answers is covered by the previous test;
                // here we only require agreement when the solver says UNSAT.
            }
            SmtResult::Unsat => {
                assert!(
                    !brute_force_sat(&formulas),
                    "solver said unsat but {formulas:?} has a model"
                );
            }
            SmtResult::Unknown => {}
        }
    }
}

#[test]
fn validity_is_never_contradicted_by_a_witness() {
    let mut rng = StdRng::seed_from_u64(0xDEC1DE);
    for _ in 0..CASES {
        let formulas = random_conjunction(&mut rng);
        let goal = random_atom(&mut rng);
        let mut solver = Solver::new();
        for f in &formulas {
            solver.assert(f.clone());
        }
        if solver.check_valid(&goal) == folic::Validity::Valid {
            // Then asserting the negation must be unsatisfiable — double-check
            // by asking for a model.
            let result = solver.check_assuming(&[Formula::not(goal.clone())]);
            assert!(
                !result.is_sat(),
                "valid goal {goal} has a countermodel under {formulas:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Prover-session equivalence
// ---------------------------------------------------------------------------

mod session_equivalence {
    use super::*;
    use cpcf::heap::{CRefinement, CSymExpr, Heap, SVal, Tag};
    use cpcf::prove::{reference_heap_model, reference_prove_num};
    use cpcf::{Loc, Number, ProverSession};
    use folic::{CoreMode, SolverConfig};

    /// The solver configuration the prove-layer differentials run both the
    /// session and the reference oracle on: the scratch core, so the two
    /// sides share one satisfiability oracle.
    fn on_scratch_core() -> SolverConfig {
        SolverConfig {
            core: CoreMode::Scratch,
            ..SolverConfig::default()
        }
    }

    /// A random atomic operand: a location or a small constant.
    fn random_operand(rng: &mut StdRng, locs: &[Loc]) -> CSymExpr {
        if rng.gen_bool(0.5) && !locs.is_empty() {
            CSymExpr::loc(locs[rng.gen_range(0..locs.len())])
        } else {
            CSymExpr::int(rng.gen_range(-20i64..=20))
        }
    }

    /// A random symbolic expression over the heap's locations, kept inside
    /// the *linear* fragment (multiplication and division only by constants)
    /// so the bounded LIA search decides every instance quickly — the
    /// property under test is the incremental encoding bookkeeping, not
    /// solver completeness on nonlinear arithmetic.
    fn random_sym_expr(rng: &mut StdRng, locs: &[Loc], depth: u32) -> CSymExpr {
        if depth == 0 {
            return random_operand(rng, locs);
        }
        match rng.gen_range(0..8) {
            0..=2 => random_operand(rng, locs),
            3 => CSymExpr::Add(
                Box::new(random_operand(rng, locs)),
                Box::new(random_operand(rng, locs)),
            ),
            4 => CSymExpr::Sub(
                Box::new(random_operand(rng, locs)),
                Box::new(random_operand(rng, locs)),
            ),
            5 => CSymExpr::Mul(
                Box::new(CSymExpr::int(rng.gen_range(-3i64..=3))),
                Box::new(random_operand(rng, locs)),
            ),
            6 => {
                let divisor = [-3i64, -2, 2, 3][rng.gen_range(0..4usize)];
                CSymExpr::Div(
                    Box::new(random_operand(rng, locs)),
                    Box::new(CSymExpr::int(divisor)),
                )
            }
            _ => {
                let divisor = [-3i64, -2, 2, 3][rng.gen_range(0..4usize)];
                CSymExpr::Mod(
                    Box::new(random_operand(rng, locs)),
                    Box::new(CSymExpr::int(divisor)),
                )
            }
        }
    }

    /// Applies one random mutation to the heap, exercising monotone growth
    /// (refinements, allocations, memo entries) as well as the non-monotone
    /// overwrites that force the incremental engine to re-encode.
    fn random_mutation(rng: &mut StdRng, heap: &mut Heap, locs: &mut Vec<Loc>) {
        match rng.gen_range(0..10) {
            // Most often: a numeric refinement, the evaluator's bread and
            // butter along a path condition.
            0..=4 => {
                let loc = locs[rng.gen_range(0..locs.len())];
                if matches!(heap.get(loc), SVal::Opaque { .. }) {
                    let rhs = random_sym_expr(rng, locs, 1);
                    heap.refine(loc, CRefinement::NumCmp(random_cmp(rng), rhs));
                }
            }
            // A fresh opaque or concrete integer allocation.
            5 | 6 => {
                let loc = if rng.gen_bool(0.5) {
                    heap.alloc_fresh_opaque()
                } else {
                    heap.alloc(SVal::Num(Number::Int(rng.gen_range(-20i64..=20))))
                };
                locs.push(loc);
            }
            // A tag refinement (cache-key relevant, encoding-irrelevant).
            7 => {
                let loc = locs[rng.gen_range(0..locs.len())];
                if matches!(heap.get(loc), SVal::Opaque { .. }) {
                    heap.refine(loc, CRefinement::Is(Tag::Integer));
                }
            }
            // A memo-table entry on an opaque function (functionality).
            8 => {
                let f = locs[rng.gen_range(0..locs.len())];
                let arg = locs[rng.gen_range(0..locs.len())];
                let res = locs[rng.gen_range(0..locs.len())];
                if let SVal::Opaque {
                    refinements,
                    entries,
                } = heap.get(f).clone()
                {
                    let mut entries = entries;
                    if !entries.iter().any(|(a, _)| *a == arg) {
                        entries.push((arg, res));
                        heap.set(
                            f,
                            SVal::Opaque {
                                refinements,
                                entries,
                            },
                        );
                    }
                }
            }
            // A non-monotone overwrite: structural refinement to a pair.
            _ => {
                let loc = locs[rng.gen_range(0..locs.len())];
                if matches!(heap.get(loc), SVal::Opaque { .. }) {
                    let car = heap.alloc_fresh_opaque();
                    let cdr = heap.alloc_fresh_opaque();
                    locs.push(car);
                    locs.push(cdr);
                    heap.set(loc, SVal::Pair(car, cdr));
                }
            }
        }
    }

    #[test]
    fn incremental_session_matches_fresh_baseline() {
        let mut rng = StdRng::seed_from_u64(0x5E55_1011);
        for case in 0..CASES / 2 {
            let mut incremental = ProverSession::with_config(on_scratch_core());
            // A pool of heaps: mutations sometimes fork a branch (cloning a
            // pool member), sometimes extend one, so the incremental session
            // sees the evaluator's real access pattern — interleaved queries
            // on diverging sibling heaps.
            let mut base = Heap::new();
            let locs: Vec<Loc> = (0..rng.gen_range(2usize..5))
                .map(|_| base.alloc_fresh_opaque())
                .collect();
            let mut pool: Vec<(Heap, Vec<Loc>)> = vec![(base, locs)];

            for step in 0..rng.gen_range(4usize..10) {
                let index = rng.gen_range(0..pool.len());
                if pool.len() < 4 && rng.gen_bool(0.3) {
                    let fork = pool[index].clone();
                    pool.push(fork);
                }
                let (heap, locs) = &mut pool[index];
                random_mutation(&mut rng, heap, locs);

                // Query the session and the reference on a random pool
                // member (not necessarily the one just mutated).
                let (query_heap, query_locs) = &pool[rng.gen_range(0..pool.len())];
                let loc = query_locs[rng.gen_range(0..query_locs.len())];
                let op = random_cmp(&mut rng);
                let rhs = random_sym_expr(&mut rng, query_locs, 1);
                let a = incremental.prove_num(query_heap, loc, op, &rhs);
                let b = reference_prove_num(query_heap, loc, op, &rhs, on_scratch_core());
                assert_eq!(
                    a, b,
                    "case {case} step {step}: incremental {a:?} != reference {b:?} \
                     for {loc} {op:?} {rhs} on heap {query_heap}"
                );
                // Asking again must be stable (and exercises the cache).
                let again = incremental.prove_num(query_heap, loc, op, &rhs);
                assert_eq!(a, again, "case {case} step {step}: unstable cached verdict");
            }
            // Every step asked the same question twice on an unchanged heap,
            // so at least half the numeric queries must be cache hits.
            let stats = incremental.stats();
            assert!(
                stats.cache_hits * 2 >= stats.num_queries,
                "case {case}: too few cache hits: {stats:?}"
            );
        }
    }

    #[test]
    fn shared_cache_across_runs_preserves_verdicts_and_grows_hits() {
        use cpcf::SharedVerdictCache;

        // Property: replaying the same query sequence over randomized
        // branching heaps through a *shared* cross-run verdict cache gives
        // exactly the verdicts of a cold-cache run, and the second replay's
        // cache hits are at least the first's (monotone non-decrease: the
        // second run inherits every verdict the first computed).
        let mut rng = StdRng::seed_from_u64(0x5AFE_CAFE);
        for case in 0..CASES / 2 {
            // Build a pool of branching heaps and a query trace over them.
            let mut base = Heap::new();
            let locs: Vec<Loc> = (0..rng.gen_range(2usize..5))
                .map(|_| base.alloc_fresh_opaque())
                .collect();
            let mut pool: Vec<(Heap, Vec<Loc>)> = vec![(base, locs)];
            let mut trace: Vec<(usize, Loc, CmpOp, CSymExpr)> = Vec::new();
            for _ in 0..rng.gen_range(4usize..10) {
                let index = rng.gen_range(0..pool.len());
                if pool.len() < 4 && rng.gen_bool(0.3) {
                    let fork = pool[index].clone();
                    pool.push(fork);
                }
                let (heap, locs) = &mut pool[index];
                random_mutation(&mut rng, heap, locs);
                let query_index = rng.gen_range(0..pool.len());
                let (_, query_locs) = &pool[query_index];
                let loc = query_locs[rng.gen_range(0..query_locs.len())];
                let op = random_cmp(&mut rng);
                let rhs = random_sym_expr(&mut rng, query_locs, 1);
                trace.push((query_index, loc, op, rhs));
            }

            let replay = |session: &mut ProverSession| -> Vec<folic::Proof> {
                trace
                    .iter()
                    .map(|(heap_index, loc, op, rhs)| {
                        session.prove_num(&pool[*heap_index].0, *loc, *op, rhs)
                    })
                    .collect()
            };

            // Control: a cold session with a private cache only.
            let mut cold = ProverSession::new();
            let cold_verdicts = replay(&mut cold);

            // First run against the shared cache (populates it) ...
            let cache = SharedVerdictCache::new();
            let mut first =
                ProverSession::with_config_and_cache(SolverConfig::default(), cache.clone());
            let first_verdicts = replay(&mut first);
            let first_hits = first.stats().cache_hits;
            cache.advance_epoch();
            // ... then a second, fresh session replaying through the now
            // warm cache.
            let mut second =
                ProverSession::with_config_and_cache(SolverConfig::default(), cache.clone());
            let second_verdicts = replay(&mut second);
            let second_stats = second.stats();

            assert_eq!(
                cold_verdicts, first_verdicts,
                "case {case}: shared-cache run diverges from the cold run"
            );
            assert_eq!(
                cold_verdicts, second_verdicts,
                "case {case}: warm-cache replay diverges from the cold run"
            );
            assert!(
                second_stats.cache_hits >= first_hits,
                "case {case}: cache hits decreased across the second run \
                 ({} < {first_hits})",
                second_stats.cache_hits
            );
            assert_eq!(
                second_stats.cache_hits, second_stats.queries,
                "case {case}: the warm replay must answer every query from \
                 the cache: {second_stats:?}"
            );
            assert!(
                cache.cross_epoch_hits() >= second_stats.shared_cache_hits,
                "case {case}: every shared hit of the second run crosses the \
                 epoch boundary"
            );
        }
    }

    #[test]
    fn retraction_matches_the_reference_on_seeded_traces() {
        use randtest::{HeapTrace, TraceConfig};

        // The differential oracle for the session's bookkeeping, in the
        // spirit of the paper's QuickCheck baseline (§5.2): over 200 seeded
        // random heap traces, the session must return exactly the verdicts
        // of the whole-heap reference. Both sides run the scratch solver
        // core, so the only axis varying is the prove layer: branch pops,
        // delta encodings, and the full re-encode by which a rebase retracts
        // the overwritten location's stale constraints.
        const TRACES: u64 = 200;
        let config = TraceConfig::default();
        let mut traces_with_rebases = 0usize;
        for seed in 0..TRACES {
            let trace = HeapTrace::generate(seed, &config);
            if trace.rebases() > 0 {
                traces_with_rebases += 1;
            }
            let mut incremental = ProverSession::with_config(on_scratch_core());
            assert_eq!(
                trace.replay(&mut incremental),
                trace.replay_reference(on_scratch_core()),
                "seed {seed}: the session and the reference disagree"
            );
        }
        // The corpus must actually exercise the non-monotone path.
        assert!(
            traces_with_rebases >= TRACES as usize / 10,
            "only {traces_with_rebases}/{TRACES} traces journalled a rebase"
        );
    }

    #[test]
    fn persistent_core_refines_scratch_over_200_seeds() {
        use cpcf::SessionStats;
        use randtest::{HeapTrace, TraceConfig};

        // The differential oracle for the persistent solver core: replaying
        // seeded heap traces through two identically-configured incremental
        // sessions that differ only in `SolverConfig::core`, the persistent
        // core must return exactly the scratch verdict on every query the
        // scratch core decides. (It may — and does — decide queries scratch
        // returns Ambiguous on: cone slicing answers from the query's own
        // component where the full-instance SMT loop exhausts its iteration
        // budget blocking propositional cubes one by one. Decisive verdicts
        // can never conflict, since Sat answers are witness-checked against
        // every live formula and Unsat answers rest on sound clauses only.)
        const TRACES: u64 = 200;
        let config = TraceConfig::default();
        let engine = |core: CoreMode| SolverConfig {
            core,
            ..SolverConfig::default()
        };
        let decided = |proof: folic::Proof| proof != folic::Proof::Ambiguous;
        let mut persistent_decided = 0usize;
        let mut scratch_decided = 0usize;
        let mut persistent_total = SessionStats::default();
        for seed in 0..TRACES {
            let trace = HeapTrace::generate(seed, &config);
            let mut persistent = ProverSession::with_config(engine(CoreMode::Persistent));
            let mut scratch = ProverSession::with_config(engine(CoreMode::Scratch));
            let persistent_verdicts = trace.replay(&mut persistent);
            let scratch_verdicts = trace.replay(&mut scratch);
            assert_eq!(persistent_verdicts.len(), scratch_verdicts.len());
            for (index, (p, s)) in persistent_verdicts
                .iter()
                .zip(&scratch_verdicts)
                .enumerate()
            {
                if decided(*s) {
                    assert_eq!(
                        p, s,
                        "seed {seed} query {index}: persistent {p:?} does not refine \
                         scratch {s:?}"
                    );
                }
                persistent_decided += usize::from(decided(*p));
                scratch_decided += usize::from(decided(*s));
            }
            // Model validity at Sat: the persistent core must produce a heap
            // model whenever the scratch core does, and its models must
            // satisfy the heap's translation.
            let last = trace.steps.last().expect("traces are non-empty");
            let persistent_model = persistent.heap_model(&last.heap);
            let scratch_model = scratch.heap_model(&last.heap);
            if scratch_model.is_some() {
                assert!(
                    persistent_model.is_some(),
                    "seed {seed}: the persistent core lost a heap model"
                );
            }
            if let Some(model) = &persistent_model {
                let translation = cpcf::prove::translate_heap(&last.heap);
                // Division/modulo witness variables are numbered differently
                // per engine; the cross-check applies to witness-free
                // translations.
                if translation.next_aux() == last.heap.next_index() {
                    assert!(
                        model.satisfies_all(&translation.formulas),
                        "seed {seed}: persistent model {model} violates the translation"
                    );
                }
            }
            persistent_total.merge(&persistent.stats());
        }
        assert!(
            persistent_decided >= scratch_decided,
            "the persistent core decided fewer queries ({persistent_decided}) than \
             scratch ({scratch_decided})"
        );
        assert!(
            persistent_total.solver.atoms_interned > 0,
            "no atoms interned: {persistent_total:?}"
        );
        assert!(
            persistent_total.solver.cone_vars_pruned > 0,
            "cone slicing never pruned a variable: {persistent_total:?}"
        );
    }

    #[test]
    fn difference_logic_refines_the_lia_only_engine_over_200_seeds() {
        use cpcf::SessionStats;
        use randtest::{HeapTrace, TraceConfig};

        // The differential oracle for the difference-logic theory module:
        // replaying seeded heap traces (whose generator now emits native
        // difference-constraint chains and cycles) through two
        // identically-configured sessions that differ only in
        // `TheoryConfig::theory_dl`, the DL-enabled engine must *refine* the
        // LIA-only engine — it returns exactly the LIA verdict on every
        // query LIA decides, and decides at least as many queries overall.
        // The DL module only claims conjunctions wholly inside its fragment
        // (where it is complete), so a decided answer can never flip:
        // DL-side Sat models are witness-checked against the full heap
        // translation below, and DL-side Unsat rests on a sound negative
        // constraint cycle.
        const TRACES: u64 = 200;
        let config = TraceConfig::with_diff_chains();
        let engine = |theory_dl: bool| {
            let mut config = SolverConfig {
                core: CoreMode::Persistent,
                ..SolverConfig::default()
            };
            config.theory.theory_dl = theory_dl;
            config
        };
        let decided = |proof: folic::Proof| proof != folic::Proof::Ambiguous;
        let mut dl_decided = 0usize;
        let mut lia_decided = 0usize;
        let mut dl_total = SessionStats::default();
        for seed in 0..TRACES {
            let trace = HeapTrace::generate(seed, &config);
            let mut with_dl = ProverSession::with_config(engine(true));
            let mut without_dl = ProverSession::with_config(engine(false));
            let dl_verdicts = trace.replay(&mut with_dl);
            let lia_verdicts = trace.replay(&mut without_dl);
            assert_eq!(dl_verdicts.len(), lia_verdicts.len());
            for (index, (d, l)) in dl_verdicts.iter().zip(&lia_verdicts).enumerate() {
                if decided(*l) {
                    assert_eq!(
                        d, l,
                        "seed {seed} query {index}: DL-enabled {d:?} does not refine \
                         LIA-only {l:?}"
                    );
                }
                dl_decided += usize::from(decided(*d));
                lia_decided += usize::from(decided(*l));
            }
            // Witness validity at Sat: whenever the DL-enabled session can
            // produce a heap model, it must satisfy the heap's translation —
            // difference atoms included — so a DL potential function never
            // smuggles in a bogus witness.
            let last = trace.steps.last().expect("traces are non-empty");
            if let Some(model) = with_dl.heap_model(&last.heap) {
                let translation = cpcf::prove::translate_heap(&last.heap);
                if translation.next_aux() == last.heap.next_index() {
                    assert!(
                        model.satisfies_all(&translation.formulas),
                        "seed {seed}: DL-enabled model {model} violates the translation"
                    );
                }
            }
            dl_total.merge(&with_dl.stats());
            let lia_stats = without_dl.stats();
            assert_eq!(
                lia_stats.solver.dl_checks, 0,
                "seed {seed}: the gated-off leg ran the DL module: {lia_stats:?}"
            );
        }
        assert!(
            dl_decided >= lia_decided,
            "the DL-enabled engine decided fewer queries ({dl_decided}) than the \
             LIA-only engine ({lia_decided})"
        );
        assert!(
            dl_total.solver.dl_checks > 0,
            "no query was routed to the DL module: {dl_total:?}"
        );
        assert!(
            dl_total.solver.dl_conflicts > 0,
            "the corpus never produced a contradictory difference cycle: {dl_total:?}"
        );
    }

    #[test]
    fn lemma_sharing_and_clause_reduction_change_no_verdict_over_200_seeds() {
        use cpcf::{SessionStats, SharedLemmaPool};
        use randtest::{HeapTrace, TraceConfig};

        // The differential oracle for the modernized CDCL search, with one
        // pool-less, default-limit persistent-core session as the baseline:
        //
        // * forcing learnt-clause reduction on every check (reduce limit 1)
        //   must leave every verdict bit-identical — deletion only forgets
        //   derived clauses, it cannot steer the theory loop elsewhere;
        // * *publishing* lemmas to a pool must leave every verdict
        //   bit-identical — publication never touches the search;
        // * *importing* sibling lemmas changes the search trajectory, so a
        //   budget-limited query may cross the `max_iterations` line in
        //   either direction (usually Ambiguous → decided). What can never
        //   happen is a contradiction between two decided answers: Sat is
        //   witness-verified against every live formula and Unsat rests on
        //   sound clauses only, imported lemmas included.
        //
        // Sharing is exercised the way the analysis scheduler uses it — two
        // sessions attached to one pool, standing in for two workers.
        const TRACES: u64 = 200;
        let config = TraceConfig::default();
        let engine = |reduce_limit: Option<usize>| {
            let mut config = SolverConfig {
                core: CoreMode::Persistent,
                ..SolverConfig::default()
            };
            config.theory.sat_reduce_limit = reduce_limit;
            config
        };
        let mut pooled_total = SessionStats::default();
        for seed in 0..TRACES {
            let trace = HeapTrace::generate(seed, &config);
            let mut baseline = ProverSession::with_config(engine(None));
            let pool = SharedLemmaPool::new();
            let mut publisher =
                ProverSession::with_config(engine(None)).with_lemma_pool(pool.clone());
            let mut importer =
                ProverSession::with_config(engine(None)).with_lemma_pool(pool.clone());
            let mut reducing = ProverSession::with_config(engine(Some(1)));
            let baseline_verdicts = trace.replay(&mut baseline);
            // The importer replays the same trace after the publisher, so
            // every lemma it could need is already in the pool — the worst
            // case for divergence, and the best case for import coverage.
            let publisher_verdicts = trace.replay(&mut publisher);
            let importer_verdicts = trace.replay(&mut importer);
            let reducing_verdicts = trace.replay(&mut reducing);
            assert_eq!(
                baseline_verdicts, publisher_verdicts,
                "seed {seed}: publishing lemmas changed a verdict"
            );
            assert_eq!(baseline_verdicts.len(), importer_verdicts.len());
            for (index, (b, i)) in baseline_verdicts.iter().zip(&importer_verdicts).enumerate() {
                let decided = |p: &folic::Proof| *p != folic::Proof::Ambiguous;
                if decided(b) && decided(i) {
                    assert_eq!(
                        b, i,
                        "seed {seed} query {index}: imported lemmas contradicted a \
                         decided verdict"
                    );
                }
            }
            assert_eq!(
                baseline_verdicts, reducing_verdicts,
                "seed {seed}: clause-DB reduction changed a verdict"
            );
            pooled_total.merge(&publisher.stats());
            pooled_total.merge(&importer.stats());
        }
        // The corpus must actually exercise both mechanisms: lemmas flow
        // into the pool, and sibling sessions pick them up as clauses.
        assert!(
            pooled_total.solver.lemmas_published > 0,
            "no session published a lemma: {pooled_total:?}"
        );
        assert!(
            pooled_total.solver.lemmas_imported > 0,
            "no session imported a sibling lemma: {pooled_total:?}"
        );
    }

    #[test]
    fn popped_frames_never_leak_into_later_checks() {
        use folic::{Proof, Solver};

        let persistent = || {
            Solver::with_config(SolverConfig {
                core: CoreMode::Persistent,
                ..SolverConfig::default()
            })
        };
        // Deterministic leak check: a frame whose boolean structure forces
        // the CDCL loop to learn theory lemmas is popped; everything the
        // frame implied must revert, while the retained lemmas stay.
        let x0 = || Term::var(Var::new(0));
        let mut solver = persistent();
        solver.assert(Formula::or(vec![
            Formula::eq(x0(), Term::int(0)),
            Formula::eq(x0(), Term::int(1)),
        ]));
        solver.push();
        solver.assert(Formula::ge(x0(), Term::int(5)));
        assert!(solver.check().is_unsat(), "x0 ∈ {{0,1}} ∧ x0 ≥ 5");
        solver.pop();
        let model = solver.check().model().cloned().expect("sat after the pop");
        assert!(
            matches!(model.value(Var::new(0)), Some(0) | Some(1)),
            "popped bound leaked: {model}"
        );
        // A new frame with a different bound decides differently than the
        // popped one would have — nothing of the old frame survives.
        solver.push();
        solver.assert(Formula::ge(x0(), Term::int(1)));
        assert_eq!(
            solver.prove(&Formula::eq(x0(), Term::int(1))),
            Proof::Proved
        );
        solver.pop();
        assert_eq!(
            solver.prove(&Formula::eq(x0(), Term::int(1))),
            Proof::Ambiguous,
            "the popped x0 ≥ 1 frame still proves through retained state"
        );

        // Randomized version: interleave asserts, pushes, pops and proof
        // queries on one persistent solver, and compare every query against
        // a scratch solver rebuilt from just the live assertions — popped
        // frames must never make the persistent solver answer differently
        // on anything the scratch rebuild decides.
        let mut rng = StdRng::seed_from_u64(0xC0DE_F8A3);
        for case in 0..CASES {
            let mut solver = persistent();
            let mut live: Vec<Formula> = Vec::new();
            let mut marks: Vec<usize> = Vec::new();
            for step in 0..rng.gen_range(6usize..14) {
                match rng.gen_range(0u32..8) {
                    0..=2 => {
                        let formula = if rng.gen_bool(0.4) {
                            Formula::or(vec![random_atom(&mut rng), random_atom(&mut rng)])
                        } else {
                            random_atom(&mut rng)
                        };
                        solver.assert(formula.clone());
                        live.push(formula);
                    }
                    3 | 4 => {
                        solver.push();
                        marks.push(live.len());
                    }
                    5 => {
                        if let Some(mark) = marks.pop() {
                            solver.pop();
                            live.truncate(mark);
                        }
                    }
                    _ => {
                        let goal = random_atom(&mut rng);
                        let answer = solver.prove(&goal);
                        let mut scratch = Solver::with_config(SolverConfig {
                            core: CoreMode::Scratch,
                            ..SolverConfig::default()
                        });
                        for formula in &live {
                            scratch.assert(formula.clone());
                        }
                        let expected = scratch.prove(&goal);
                        if expected != Proof::Ambiguous {
                            assert_eq!(
                                answer, expected,
                                "case {case} step {step}: persistent {answer:?} vs \
                                 scratch-rebuild {expected:?} on {goal} under {live:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn session_heap_models_satisfy_the_translation() {
        let mut rng = StdRng::seed_from_u64(0x40DE15);
        for _ in 0..CASES / 2 {
            let mut heap = Heap::new();
            let mut locs: Vec<Loc> = (0..3).map(|_| heap.alloc_fresh_opaque()).collect();
            for _ in 0..rng.gen_range(2usize..8) {
                random_mutation(&mut rng, &mut heap, &mut locs);
            }
            let mut incremental = ProverSession::new();
            let a = incremental.heap_model(&heap);
            let b = reference_heap_model(&heap, SolverConfig::default());
            assert_eq!(
                a.is_some(),
                b.is_some(),
                "model existence diverges on heap {heap}"
            );
            if let Some(model) = a {
                let translation = cpcf::prove::translate_heap(&heap);
                // Division/modulo introduce existential witness variables
                // whose numbering differs between the session and baseline
                // encodings, so the cross-check only applies when the
                // translation is witness-free.
                if translation.next_aux() == heap.next_index() {
                    assert!(
                        model.satisfies_all(&translation.formulas),
                        "incremental model {model} does not satisfy the heap translation {heap}"
                    );
                }
            }
        }
    }
}
