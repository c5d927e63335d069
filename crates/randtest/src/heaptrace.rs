//! A seeded random generator of CPCF **heap traces**: sequences of symbolic
//! heap snapshots and numeric queries, in the access pattern the evaluator
//! produces — interleaved monotone refinements, memo-entry additions and
//! non-monotone `set` overwrites on randomized branching shapes, plus
//! (under [`TraceConfig::with_diff_chains`]) native difference-constraint
//! chains and cycles targeting the difference-logic theory module.
//!
//! The generator is the random-input half of the differential oracle for the
//! prover: replaying one trace through an incremental session (which pops
//! back to shared prefixes and re-encodes on rebases) and through the
//! stateless whole-heap reference ([`cpcf::prove::reference_prove_num`])
//! must produce identical verdict sequences (`tests/solver_properties.rs`
//! asserts this over hundreds of seeds). It plays the same methodological
//! role as the QuickCheck baseline in the paper's §5.2: randomized inputs
//! probing a claimed equivalence — here the engine-independence of verdicts
//! that the relative-completeness argument rests on.

use cpcf::heap::{CRefinement, CSymExpr, Heap, JournalEvent, SVal, Tag};
use cpcf::{Loc, Number, ProverSession};
use folic::{CmpOp, Proof, SolverConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape parameters for [`HeapTrace::generate`].
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Inclusive range the number of mutation/query steps is drawn from.
    pub steps: (usize, usize),
    /// Maximum number of live branch heaps (clones sharing a journal
    /// prefix, as sibling evaluation branches do).
    pub max_branches: usize,
    /// Probability that a step forks a new branch before mutating.
    pub fork_probability: f64,
    /// Inclusive range the initial opaque allocation count is drawn from.
    pub initial_locs: (usize, usize),
    /// Inclusive range integer constants are drawn from.
    pub int_range: (i64, i64),
    /// Whether the mutation mix includes difference-constraint chains and
    /// cycles (contradictory and satisfiable) — the difference-logic
    /// module's native fragment. Off by default: contradictory cycles
    /// multiply budget-limited (`Ambiguous`) queries whose outcome is
    /// trajectory-sensitive, so the bit-identical engine-equivalence
    /// differentials keep the chain-free corpus while the DL refinement
    /// differential opts in.
    pub diff_chains: bool,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            steps: (5, 12),
            max_branches: 4,
            fork_probability: 0.3,
            initial_locs: (2, 4),
            int_range: (-20, 20),
            diff_chains: false,
        }
    }
}

impl TraceConfig {
    /// The default shape with difference-constraint chains enabled.
    pub fn with_diff_chains() -> Self {
        TraceConfig {
            diff_chains: true,
            ..TraceConfig::default()
        }
    }
}

/// One step of a trace: the heap snapshot visible to the prover at query
/// time, and the numeric query asked of it. Snapshots taken on the same
/// branch share journal prefixes, so an incremental session replaying the
/// trace synchronizes by deltas exactly as it would under the evaluator.
#[derive(Debug, Clone)]
pub struct TraceStep {
    /// The heap state at query time.
    pub heap: Heap,
    /// The queried location.
    pub loc: Loc,
    /// The comparison operator.
    pub op: CmpOp,
    /// The right-hand side of the comparison.
    pub rhs: CSymExpr,
}

/// A generated heap trace: an ordered list of snapshot/query steps.
#[derive(Debug, Clone)]
pub struct HeapTrace {
    /// The seed the trace was generated from (for failure reporting).
    pub seed: u64,
    /// The snapshot/query steps, in replay order.
    pub steps: Vec<TraceStep>,
}

impl HeapTrace {
    /// Generates the trace for `seed` under the given shape parameters.
    /// Identical inputs produce identical traces.
    pub fn generate(seed: u64, config: &TraceConfig) -> HeapTrace {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut heap = Heap::new();
        let initial = rng.gen_range(config.initial_locs.0..=config.initial_locs.1);
        let locs: Vec<Loc> = (0..initial.max(1))
            .map(|_| heap.alloc_fresh_opaque())
            .collect();
        let mut pool: Vec<Branch> = vec![Branch { heap, locs }];
        let mut steps = Vec::new();
        for _ in 0..rng.gen_range(config.steps.0..=config.steps.1) {
            let index = rng.gen_range(0..pool.len());
            if pool.len() < config.max_branches && rng.gen_bool(config.fork_probability) {
                let fork = pool[index].clone();
                pool.push(fork);
            }
            {
                let branch = &mut pool[index];
                let op = random_op(&mut rng, config, &branch.heap, &branch.locs);
                let new_locs = apply_op(&mut branch.heap, &op);
                branch.locs.extend(new_locs);
            }
            // Query a random pool member — not necessarily the branch just
            // mutated, so replays interleave branch switches with growth.
            let branch = &pool[rng.gen_range(0..pool.len())];
            steps.push(TraceStep {
                heap: branch.heap.clone(),
                loc: branch.locs[rng.gen_range(0..branch.locs.len())],
                op: random_cmp(&mut rng),
                rhs: random_sym_expr(&mut rng, config, &branch.locs),
            });
        }
        HeapTrace { seed, steps }
    }

    /// The largest number of non-monotone overwrites (journalled
    /// [`JournalEvent::Rebase`] events) visible in any single step's
    /// snapshot. A session replaying the trace re-encodes the whole heap
    /// when it first syncs past each of them, so a nonzero count means the
    /// trace exercises that path.
    pub fn rebases(&self) -> usize {
        self.steps
            .iter()
            .map(|step| {
                step.heap
                    .journal_suffix(0)
                    .filter(|entry| matches!(entry.event, JournalEvent::Rebase { .. }))
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    /// Replays every step's query through `session`, returning the verdict
    /// sequence. Two engines are observationally equivalent on this trace
    /// exactly when their replay results are equal.
    pub fn replay(&self, session: &mut ProverSession) -> Vec<Proof> {
        self.steps
            .iter()
            .map(|step| session.prove_num(&step.heap, step.loc, step.op, &step.rhs))
            .collect()
    }

    /// Answers every step's query with the reference oracle on a solver
    /// built from `config` — the baseline [`HeapTrace::replay`] is compared
    /// against.
    pub fn replay_reference(&self, config: SolverConfig) -> Vec<Proof> {
        self.steps
            .iter()
            .map(|step| {
                cpcf::prove::reference_prove_num(&step.heap, step.loc, step.op, &step.rhs, config)
            })
            .collect()
    }
}

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

/// A random atomic operand: a location or a small constant.
fn random_operand(rng: &mut StdRng, config: &TraceConfig, locs: &[Loc]) -> CSymExpr {
    if rng.gen_bool(0.5) && !locs.is_empty() {
        CSymExpr::loc(locs[rng.gen_range(0..locs.len())])
    } else {
        CSymExpr::int(rng.gen_range(config.int_range.0..=config.int_range.1))
    }
}

/// A random symbolic expression over the heap's locations, kept inside the
/// *linear* fragment (multiplication and division only by constants) so the
/// bounded LIA search decides every instance quickly — the property under
/// test is the engines' encoding bookkeeping, not solver completeness on
/// nonlinear arithmetic.
fn random_sym_expr(rng: &mut StdRng, config: &TraceConfig, locs: &[Loc]) -> CSymExpr {
    match rng.gen_range(0..8) {
        0..=2 => random_operand(rng, config, locs),
        3 => CSymExpr::Add(
            Box::new(random_operand(rng, config, locs)),
            Box::new(random_operand(rng, config, locs)),
        ),
        4 => CSymExpr::Sub(
            Box::new(random_operand(rng, config, locs)),
            Box::new(random_operand(rng, config, locs)),
        ),
        5 => CSymExpr::Mul(
            Box::new(CSymExpr::int(rng.gen_range(-3i64..=3))),
            Box::new(random_operand(rng, config, locs)),
        ),
        6 => {
            let divisor = [-3i64, -2, 2, 3][rng.gen_range(0..4usize)];
            CSymExpr::Div(
                Box::new(random_operand(rng, config, locs)),
                Box::new(CSymExpr::int(divisor)),
            )
        }
        _ => {
            let divisor = [-3i64, -2, 2, 3][rng.gen_range(0..4usize)];
            CSymExpr::Mod(
                Box::new(random_operand(rng, config, locs)),
                Box::new(CSymExpr::int(divisor)),
            )
        }
    }
}

/// One branch of the generator's heap pool: the heap and the locations
/// allocated on the branch so far.
#[derive(Debug, Clone)]
struct Branch {
    heap: Heap,
    locs: Vec<Loc>,
}

/// One generated mutation. [`random_op`] draws it from the RNG and
/// [`apply_op`] applies it, so the RNG is consumed before the heap changes.
#[derive(Debug, Clone)]
enum TraceOp {
    /// Append a numeric refinement to an opaque location.
    RefineNum(Loc, CmpOp, CSymExpr),
    /// Append a tag refinement to a location (skipped if not opaque).
    RefineTag(Loc, Tag),
    /// Allocate a fresh opaque value.
    AllocOpaque,
    /// Allocate a concrete integer.
    AllocInt(i64),
    /// Append `(arg, res)` to the memo table at `f` (skipped if `f` is not
    /// opaque or already maps `arg`).
    MemoEntry { f: Loc, arg: Loc, res: Loc },
    /// Structurally overwrite an opaque location with a pair of fresh
    /// opaques — the non-monotone mutation that journals rebases.
    OverwritePair(Loc),
    /// A chain of difference refinements (`next ≥ prev + c` or the
    /// equivalent `prev ≤ next − c`) over distinct opaque locations,
    /// optionally closed into a cycle whose telescoped offset sum makes it
    /// contradictory (a negative constraint cycle) or satisfiable. This is
    /// the difference-logic fragment, generated natively so the engine
    /// differentials exercise the DL module's routing, refutations and
    /// models rather than meeting difference constraints only by accident.
    DiffChain(Vec<(Loc, CmpOp, CSymExpr)>),
    /// The drawn mutation target turned out ineligible; mutate nothing.
    Nop,
}

/// Draws one random mutation: mostly monotone growth (numeric and tag
/// refinements, allocations, memo entries), with a solid share of the
/// non-monotone structural overwrites that force engines to re-encode
/// solver state. Inspects `heap` only to preserve the historical RNG
/// consumption per case.
fn random_op(rng: &mut StdRng, config: &TraceConfig, heap: &Heap, locs: &[Loc]) -> TraceOp {
    let cases = if config.diff_chains { 14 } else { 12 };
    match rng.gen_range(0..cases) {
        // Numeric refinements: the evaluator's bread and butter along a
        // path condition, and what gives overwrites formulas to invalidate.
        0..=4 => {
            let loc = locs[rng.gen_range(0..locs.len())];
            if matches!(heap.get(loc), SVal::Opaque { .. }) {
                let rhs = random_sym_expr(rng, config, locs);
                TraceOp::RefineNum(loc, random_cmp(rng), rhs)
            } else {
                TraceOp::Nop
            }
        }
        // A fresh opaque or concrete integer allocation.
        5 | 6 => {
            if rng.gen_bool(0.5) {
                TraceOp::AllocOpaque
            } else {
                TraceOp::AllocInt(rng.gen_range(config.int_range.0..=config.int_range.1))
            }
        }
        // A tag refinement (cache-key relevant, encoding-irrelevant).
        7 => TraceOp::RefineTag(locs[rng.gen_range(0..locs.len())], Tag::Integer),
        // A memo-table entry on an opaque function (functionality).
        8 | 9 => TraceOp::MemoEntry {
            f: locs[rng.gen_range(0..locs.len())],
            arg: locs[rng.gen_range(0..locs.len())],
            res: locs[rng.gen_range(0..locs.len())],
        },
        // A non-monotone overwrite: structural refinement to a pair, as a
        // `pair?` tag test does to an opaque value. When the victim already
        // contributed formulas (a numeric refinement, a memo table, or a
        // memo reference), this journals a rebase.
        10 | 11 => TraceOp::OverwritePair(locs[rng.gen_range(0..locs.len())]),
        // A difference-constraint chain, optionally closed into a cycle.
        _ => random_diff_chain(rng, heap, locs),
    }
}

/// Draws a difference chain over 2–4 distinct opaque locations:
/// `l₁ ⋚ l₀ + c₀, l₂ ⋚ l₁ + c₁, …`, each edge rendered either as
/// `next ≥ prev + c` or the equivalent `prev ≤ next − c` (so atom
/// normalization is exercised from both directions). With probability 0.6
/// the chain is closed back to its first location; the closing offset is
/// tuned so half the cycles telescope to a contradiction (the sum of the
/// `c`s ends up positive — a negative cycle in the constraint graph) and
/// half stay satisfiable.
fn random_diff_chain(rng: &mut StdRng, heap: &Heap, locs: &[Loc]) -> TraceOp {
    let opaque: Vec<Loc> = locs
        .iter()
        .copied()
        .filter(|&loc| matches!(heap.get(loc), SVal::Opaque { .. }))
        .collect();
    if opaque.len() < 2 {
        return TraceOp::Nop;
    }
    // `to ≥ from + c`, surface form drawn at random.
    let edge = |rng: &mut StdRng, from: Loc, to: Loc, c: i64| {
        if rng.gen_bool(0.5) {
            let rhs = CSymExpr::Add(Box::new(CSymExpr::loc(from)), Box::new(CSymExpr::int(c)));
            (to, CmpOp::Ge, rhs)
        } else {
            let rhs = CSymExpr::Sub(Box::new(CSymExpr::loc(to)), Box::new(CSymExpr::int(c)));
            (from, CmpOp::Le, rhs)
        }
    };
    let len = rng.gen_range(2..=opaque.len().min(4));
    let start = rng.gen_range(0..opaque.len());
    let chain: Vec<Loc> = (0..len)
        .map(|i| opaque[(start + i) % opaque.len()])
        .collect();
    let mut refinements = Vec::new();
    let mut sum = 0i64;
    for window in chain.windows(2) {
        let c = rng.gen_range(-5i64..=5);
        sum += c;
        refinements.push(edge(rng, window[0], window[1], c));
    }
    if rng.gen_bool(0.6) {
        // Close the cycle. The constraints telescope to `0 ≥ sum + c`, so
        // the closing offset decides satisfiability outright.
        let c = if rng.gen_bool(0.5) {
            1 - sum + rng.gen_range(0i64..=4) // contradictory: sum + c ≥ 1
        } else {
            -sum - rng.gen_range(0i64..=4) // satisfiable: sum + c ≤ 0
        };
        refinements.push(edge(rng, chain[len - 1], chain[0], c));
    }
    TraceOp::DiffChain(refinements)
}

/// Applies one mutation, returning the locations it allocated. Eligibility
/// checks (is the target opaque, is the memo argument fresh) run against
/// `heap`'s state at application time.
fn apply_op(heap: &mut Heap, op: &TraceOp) -> Vec<Loc> {
    match op {
        TraceOp::RefineNum(loc, cmp, rhs) => {
            heap.refine(*loc, CRefinement::NumCmp(*cmp, rhs.clone()));
            Vec::new()
        }
        TraceOp::RefineTag(loc, tag) => {
            if matches!(heap.get(*loc), SVal::Opaque { .. }) {
                heap.refine(*loc, CRefinement::Is(tag.clone()));
            }
            Vec::new()
        }
        TraceOp::AllocOpaque => vec![heap.alloc_fresh_opaque()],
        TraceOp::AllocInt(n) => vec![heap.alloc(SVal::Num(Number::Int(*n)))],
        TraceOp::MemoEntry { f, arg, res } => {
            if let SVal::Opaque {
                refinements,
                entries,
                demonic,
            } = heap.get(*f).clone()
            {
                let mut entries = entries;
                if !entries.iter().any(|(a, _)| a[..] == [*arg]) {
                    entries.push((vec![*arg], *res));
                    heap.set(
                        *f,
                        SVal::Opaque {
                            refinements,
                            entries,
                            demonic,
                        },
                    );
                }
            }
            Vec::new()
        }
        TraceOp::OverwritePair(loc) => {
            if matches!(heap.get(*loc), SVal::Opaque { .. }) {
                let car = heap.alloc_fresh_opaque();
                let cdr = heap.alloc_fresh_opaque();
                heap.set(*loc, SVal::Pair(car, cdr));
                vec![car, cdr]
            } else {
                Vec::new()
            }
        }
        TraceOp::DiffChain(refinements) => {
            for (loc, cmp, rhs) in refinements {
                if matches!(heap.get(*loc), SVal::Opaque { .. }) {
                    heap.refine(*loc, CRefinement::NumCmp(*cmp, rhs.clone()));
                }
            }
            Vec::new()
        }
        TraceOp::Nop => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_reproducible_per_seed() {
        let config = TraceConfig::default();
        let a = HeapTrace::generate(42, &config);
        let b = HeapTrace::generate(42, &config);
        assert_eq!(a.steps.len(), b.steps.len());
        for (x, y) in a.steps.iter().zip(&b.steps) {
            assert_eq!(x.heap.fingerprint(), y.heap.fingerprint());
            assert_eq!((x.loc, x.op), (y.loc, y.op));
            assert_eq!(x.rhs, y.rhs);
        }
        let c = HeapTrace::generate(43, &config);
        assert!(
            a.steps.len() != c.steps.len()
                || a.steps
                    .iter()
                    .zip(&c.steps)
                    .any(|(x, y)| x.heap.fingerprint() != y.heap.fingerprint()),
            "different seeds should produce different traces"
        );
    }

    #[test]
    fn the_seed_corpus_exercises_non_monotone_overwrites() {
        let config = TraceConfig::default();
        let rebasing = (0..50)
            .filter(|&seed| HeapTrace::generate(seed, &config).rebases() > 0)
            .count();
        assert!(
            rebasing >= 10,
            "only {rebasing}/50 seeds journalled a rebase; the generator no \
             longer exercises the re-encoding path"
        );
    }

    #[test]
    fn replay_answers_every_query() {
        let trace = HeapTrace::generate(7, &TraceConfig::default());
        let mut session = ProverSession::new();
        let verdicts = trace.replay(&mut session);
        assert_eq!(verdicts.len(), trace.steps.len());
    }

    /// Recovers the `to ≥ from + c` edge a [`random_diff_chain`] refinement
    /// encodes, whichever surface form it was rendered in.
    fn decode_edge(refinement: &(Loc, CmpOp, CSymExpr)) -> (Loc, Loc, i64) {
        match refinement {
            (to, CmpOp::Ge, CSymExpr::Add(a, b)) => match (a.as_ref(), b.as_ref()) {
                (CSymExpr::Loc(from), CSymExpr::Const(c)) => (*from, *to, *c),
                other => panic!("unexpected ≥ shape: {other:?}"),
            },
            (from, CmpOp::Le, CSymExpr::Sub(a, b)) => match (a.as_ref(), b.as_ref()) {
                (CSymExpr::Loc(to), CSymExpr::Const(c)) => (*from, *to, *c),
                other => panic!("unexpected ≤ shape: {other:?}"),
            },
            other => panic!("not a difference edge: {other:?}"),
        }
    }

    #[test]
    fn the_generator_emits_difference_chains_and_both_cycle_polarities() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut heap = Heap::new();
        let locs: Vec<Loc> = (0..4).map(|_| heap.alloc_fresh_opaque()).collect();
        let (mut chains, mut contradictory, mut satisfiable, mut open) = (0u32, 0u32, 0u32, 0u32);
        for _ in 0..2000 {
            let TraceOp::DiffChain(refinements) = random_diff_chain(&mut rng, &heap, &locs) else {
                panic!("four opaque locations always admit a chain");
            };
            chains += 1;
            let edges: Vec<(Loc, Loc, i64)> = refinements.iter().map(decode_edge).collect();
            let mut nodes: Vec<Loc> = edges.iter().flat_map(|&(f, t, _)| [f, t]).collect();
            nodes.sort();
            nodes.dedup();
            // A path over k nodes has k − 1 edges; a closed cycle has k.
            if edges.len() == nodes.len() {
                let sum: i64 = edges.iter().map(|&(_, _, c)| c).sum();
                if sum > 0 {
                    contradictory += 1;
                } else {
                    satisfiable += 1;
                }
            } else {
                assert_eq!(edges.len() + 1, nodes.len(), "neither path nor cycle");
                open += 1;
            }
        }
        assert_eq!(chains, 2000);
        assert!(
            contradictory >= 200 && satisfiable >= 200 && open >= 200,
            "the generator must mix open chains with cycles of both \
             polarities: {contradictory} contradictory / {satisfiable} \
             satisfiable / {open} open"
        );
    }

    #[test]
    fn difference_chains_survive_into_generated_traces() {
        // Shape-level coverage: a healthy share of seeds produce snapshots
        // carrying at least one two-location difference refinement, so the
        // differential suites downstream actually exercise the DL fragment.
        let config = TraceConfig::with_diff_chains();
        let is_diff_edge = |refinement: &CRefinement| {
            matches!(
                refinement,
                CRefinement::NumCmp(_, CSymExpr::Add(a, b) | CSymExpr::Sub(a, b))
                    if matches!(
                        (a.as_ref(), b.as_ref()),
                        (CSymExpr::Loc(_), CSymExpr::Const(_))
                    )
            )
        };
        let with_chains = (0..50)
            .filter(|&seed| {
                HeapTrace::generate(seed, &config).steps.iter().any(|step| {
                    step.heap.journal_suffix(0).any(|entry| {
                        let JournalEvent::Refined(loc, index) = entry.event else {
                            return false;
                        };
                        match step.heap.get(loc) {
                            SVal::Opaque { refinements, .. } => {
                                refinements.get(index).is_some_and(is_diff_edge)
                            }
                            _ => false,
                        }
                    })
                })
            })
            .count();
        assert!(
            with_chains >= 10,
            "only {with_chains}/50 seeds carried a difference refinement"
        );
    }
}
