//! The symbolic evaluator for CPCF: non-deterministic big-step evaluation
//! over the symbolic heap, with contract monitoring, blame, structural
//! refinement of opaque values and a demonic ("havoc") treatment of values
//! that escape to the unknown context.
//!
//! The typed core (`spcf`) follows the paper's small-step presentation rule
//! for rule; this crate — which has to handle contracts, structures, boxes
//! and dynamic typing — uses an equivalent big-step formulation with an
//! explicit fuel budget, which keeps the many language features manageable.
//! Each evaluation returns *all* possible outcomes, each paired with the
//! heap (path condition) it holds in.
//!
//! Every state split below — truthiness, tag predicates, contract branches,
//! the demonic context — forks the machine state with `heap.clone()`.
//! `Heap::clone` is an O(1) *snapshot* of a persistent copy-on-write
//! structure (see [`crate::heap`]), so the evaluator branches freely: the
//! old representation deep-copied the entire store and the O(path-length)
//! constraint journal at each of these sites, which made splitting the
//! dominant cost on deep paths.
//!
//! Every step is sequenced by one rule: a step yields a list of
//! `(outcome, heap)` states, errors and timeouts pass through unchanged,
//! and each normal value is continued. `then` is that rule for one outcome
//! list. `sequence` applies it left to right over a list of steps and hands
//! the continuation the values in order; argument lists (`bind_list`) and a
//! guarded function's domain monitors both run through it. `bind` is `eval`
//! followed by `then`. An outcome list is cut at
//! [`EvalOptions::max_branches`] in exactly three places: `eval`'s result,
//! and the continuation lists built by `bind` and by `bind_list`'s steps.
//! Each cut bumps the `branch_truncations` counter.
//!
//! The evaluator is split by concern:
//!
//! * [`mod@self`] — the expression dispatcher, the sequencing combinators
//!   (`then`, `sequence`, `bind`, `bind_list`) and the short-circuiting
//!   forms;
//! * `branch` — truthiness, tag predicates and structural refinement: the
//!   places where one symbolic state splits into several;
//! * [`apply`] — function application, including the demonic treatment of
//!   opaque functions and escaped values;
//! * `contracts` — contract monitoring and blame assignment;
//! * `prims` — primitive operations and symbolic arithmetic.
//!
//! All prover queries go through the [`Ctx`]'s [`ProverSession`], which
//! keeps a live incremental solver synchronized with the heap's constraint
//! journal, so the context must be threaded mutably everywhere (it is not
//! `Copy`, and neither are the options that configure it).

use std::collections::HashMap;

use crate::heap::{extend_env, Env, Heap, Loc, SVal};
use crate::numeric::Number;
use crate::prove::ProverSession;
use crate::syntax::{CBlame, Expr, Label, StructDef};

mod apply;
mod branch;
mod contracts;
mod prims;

pub use apply::{apply, havoc};
pub use branch::{refine_to_tag, tag_predicate, truthiness, values_equal};
use contracts::{monitor, Parties};
pub use prims::apply_prim;

use crate::heap::{ContractVal, Tag};
use folic::SolverConfig;

/// A single outcome of evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Normal termination with a value.
    Val(Loc),
    /// Blame.
    Err(CBlame),
    /// The fuel budget ran out along this path.
    Timeout,
}

impl Outcome {
    /// The value location, if this is a normal outcome.
    pub fn value(&self) -> Option<Loc> {
        match self {
            Outcome::Val(l) => Some(*l),
            _ => None,
        }
    }

    /// The blame, if this is an error outcome.
    pub fn blame(&self) -> Option<&CBlame> {
        match self {
            Outcome::Err(b) => Some(b),
            _ => None,
        }
    }
}

/// Evaluation options.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Total fuel (recursive evaluation steps) for one analysis run.
    pub fuel: u64,
    /// Maximum number of outcome branches kept at any point.
    pub max_branches: usize,
    /// How deep the demonic context explores escaped structured values.
    pub havoc_depth: u32,
    /// Configuration of the prover session's solver.
    pub solver: SolverConfig,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            fuel: 60_000,
            max_branches: 512,
            havoc_depth: 3,
            solver: SolverConfig::default(),
        }
    }
}

/// The evaluation context: prover session, options, global definitions,
/// struct declarations and the remaining fuel.
#[derive(Debug)]
pub struct Ctx {
    /// The prover session used for tag and numeric queries. Stateful: it
    /// owns the live solver and the verdict cache.
    pub prover: ProverSession,
    /// Options.
    pub options: EvalOptions,
    /// Global (module-level) definitions: name → location.
    pub globals: HashMap<String, Loc>,
    /// Struct declarations by name.
    pub structs: HashMap<String, StructDef>,
    /// Remaining fuel.
    pub fuel: u64,
    /// Counter for generating fresh opaque labels during havoc.
    pub next_label: u32,
}

impl Ctx {
    /// Creates a context with the given options.
    pub fn new(options: EvalOptions) -> Self {
        let prover = ProverSession::with_config(options.solver);
        Ctx::with_prover(options, prover)
    }

    /// Creates a context around an existing prover session, so a long-lived
    /// session (with its warmed verdict cache and live solver) can be reused
    /// across several evaluations — e.g. by an analysis worker thread
    /// claiming one export after another.
    pub fn with_prover(options: EvalOptions, prover: ProverSession) -> Self {
        let fuel = options.fuel;
        Ctx {
            prover,
            options,
            globals: HashMap::new(),
            structs: HashMap::new(),
            fuel,
            next_label: 1_000_000,
        }
    }

    fn tick(&mut self) -> bool {
        if self.fuel == 0 {
            false
        } else {
            self.fuel -= 1;
            true
        }
    }

    /// A fresh label (used for synthesized opaque values during havoc).
    pub fn fresh_label(&mut self) -> Label {
        let label = Label(self.next_label);
        self.next_label += 1;
        label
    }
}

/// Counts one cut of an outcome list to `max_branches`.
#[cold]
fn note_truncation() {
    crate::prove::bump_thread(|c| c.branch_truncations += 1);
}

/// All outcomes of evaluating `expr`.
pub fn eval(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    expr: &Expr,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    if !ctx.tick() {
        return vec![(Outcome::Timeout, heap.clone())];
    }
    let mut results = eval_inner(ctx, env, owner, expr, heap);
    if results.len() > ctx.options.max_branches {
        results.truncate(ctx.options.max_branches);
        note_truncation();
    }
    results
}

fn eval_inner(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    expr: &Expr,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    match expr {
        Expr::Int(n) => alloc_value(heap, SVal::Num(Number::Int(*n))),
        Expr::Complex(re, im) => alloc_value(heap, SVal::Num(Number::complex(*re, *im))),
        Expr::Bool(b) => alloc_value(heap, SVal::Bool(*b)),
        Expr::Str(s) => alloc_value(heap, SVal::Str(s.clone())),
        Expr::Nil => alloc_value(heap, SVal::Nil),
        Expr::Opaque(label) => {
            let mut heap = heap.clone();
            let loc = heap.alloc_opaque(*label);
            vec![(Outcome::Val(loc), heap)]
        }
        Expr::Var(name) => match env
            .get(name)
            .copied()
            .or_else(|| ctx.globals.get(name).copied())
        {
            Some(loc) => vec![(Outcome::Val(loc), heap.clone())],
            None => vec![(
                Outcome::Err(CBlame {
                    party: owner.to_string(),
                    message: format!("unbound variable `{name}`"),
                    label: Label(u32::MAX),
                }),
                heap.clone(),
            )],
        },
        Expr::Lam { params, body } => alloc_value(
            heap,
            SVal::Closure {
                params: params.clone(),
                body: (**body).clone(),
                env: env.clone(),
                owner: owner.to_string(),
            },
        ),
        Expr::If(condition, then_branch, else_branch) => {
            bind(ctx, env, owner, condition, heap, |ctx, loc, heap| {
                truthiness(ctx, &heap, loc)
                    .into_iter()
                    .flat_map(|(is_true, branch_heap)| {
                        let branch = if is_true { then_branch } else { else_branch };
                        eval(ctx, env, owner, branch, &branch_heap)
                    })
                    .collect()
            })
        }
        Expr::And(parts) => eval_and(ctx, env, owner, parts, heap),
        Expr::Or(parts) => eval_or(ctx, env, owner, parts, heap),
        Expr::Begin(parts) => eval_begin(ctx, env, owner, parts, heap),
        Expr::Let {
            bindings,
            recursive,
            body,
        } => eval_let(ctx, env, owner, bindings, *recursive, body, heap),
        Expr::App(function, args) => bind(ctx, env, owner, function, heap, |ctx, f_loc, heap| {
            bind_list(ctx, env, owner, args, &heap, |ctx, arg_locs, heap| {
                apply(ctx, owner, f_loc, &arg_locs, &heap, Label(u32::MAX))
            })
        }),
        Expr::Prim(prim, args, label) => {
            bind_list(ctx, env, owner, args, heap, |ctx, arg_locs, heap| {
                apply_prim(ctx, owner, *prim, &arg_locs, &heap, *label)
            })
        }
        Expr::StructMake(name, args) => {
            bind_list(ctx, env, owner, args, heap, |_, arg_locs, heap| {
                let mut heap = heap;
                let loc = heap.alloc(SVal::StructVal {
                    tag: name.clone(),
                    fields: arg_locs,
                });
                vec![(Outcome::Val(loc), heap)]
            })
        }
        Expr::StructPred(name, inner) => bind(ctx, env, owner, inner, heap, |ctx, loc, heap| {
            tag_predicate(ctx, &heap, loc, &Tag::Struct(name.clone()))
        }),
        Expr::StructGet(name, index, inner, label) => {
            let field_count = ctx.structs.get(name).map(|d| d.fields.len()).unwrap_or(0);
            let name = name.clone();
            let index = *index;
            let label = *label;
            bind(ctx, env, owner, inner, heap, move |ctx, loc, heap| {
                branch::struct_project(ctx, owner, &heap, loc, &name, index, field_count, label)
            })
        }
        // Contract combinators evaluate to contract values.
        Expr::CAny => alloc_value(heap, SVal::Contract(ContractVal::Any)),
        Expr::CArrow(doms, rng) => bind_list(ctx, env, owner, doms, heap, |ctx, dom_locs, heap| {
            bind(ctx, env, owner, rng, &heap, |_, rng_loc, heap| {
                let mut heap = heap;
                let loc = heap.alloc(SVal::Contract(ContractVal::Func {
                    doms: dom_locs.clone(),
                    rng: rng_loc,
                }));
                vec![(Outcome::Val(loc), heap)]
            })
        }),
        Expr::CAnd(parts) => bind_list(ctx, env, owner, parts, heap, |_, locs, heap| {
            let mut heap = heap;
            let loc = heap.alloc(SVal::Contract(ContractVal::And(locs)));
            vec![(Outcome::Val(loc), heap)]
        }),
        Expr::COr(parts) => bind_list(ctx, env, owner, parts, heap, |_, locs, heap| {
            let mut heap = heap;
            let loc = heap.alloc(SVal::Contract(ContractVal::Or(locs)));
            vec![(Outcome::Val(loc), heap)]
        }),
        Expr::CCons(car, cdr) => bind(ctx, env, owner, car, heap, |ctx, car_loc, heap| {
            bind(ctx, env, owner, cdr, &heap, |_, cdr_loc, heap| {
                let mut heap = heap;
                let loc = heap.alloc(SVal::Contract(ContractVal::Cons(car_loc, cdr_loc)));
                vec![(Outcome::Val(loc), heap)]
            })
        }),
        Expr::CListOf(element) => bind(ctx, env, owner, element, heap, |_, element_loc, heap| {
            let mut heap = heap;
            let loc = heap.alloc(SVal::Contract(ContractVal::ListOf(element_loc)));
            vec![(Outcome::Val(loc), heap)]
        }),
        Expr::COneOf(parts) => bind_list(ctx, env, owner, parts, heap, |_, locs, heap| {
            let mut heap = heap;
            let loc = heap.alloc(SVal::Contract(ContractVal::OneOf(locs)));
            vec![(Outcome::Val(loc), heap)]
        }),
        Expr::Mon {
            contract,
            value,
            pos,
            neg,
            label,
        } => {
            let parties = Parties {
                pos,
                neg,
                label: *label,
            };
            bind(
                ctx,
                env,
                owner,
                contract,
                heap,
                |ctx, contract_loc, heap| {
                    bind(ctx, env, owner, value, &heap, |ctx, value_loc, heap| {
                        monitor(ctx, contract_loc, value_loc, parties, &heap)
                    })
                },
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Plumbing helpers
// ---------------------------------------------------------------------------

/// Allocates a value in a clone of the heap and returns it as the single
/// outcome.
pub(crate) fn alloc_value(heap: &Heap, value: SVal) -> Vec<(Outcome, Heap)> {
    let mut heap = heap.clone();
    let loc = heap.alloc(value);
    vec![(Outcome::Val(loc), heap)]
}

/// Continues every normal outcome with `k`; errors and timeouts pass
/// through unchanged. This is the evaluator's one sequencing rule.
fn then<K>(ctx: &mut Ctx, outcomes: Vec<(Outcome, Heap)>, k: K) -> Vec<(Outcome, Heap)>
where
    K: FnMut(&mut Ctx, Loc, Heap) -> Vec<(Outcome, Heap)>,
{
    then_upto(ctx, outcomes, usize::MAX, k)
}

/// [`then`], but stops (and counts a truncation) once `limit` outcomes have
/// been collected.
fn then_upto<K>(
    ctx: &mut Ctx,
    outcomes: Vec<(Outcome, Heap)>,
    limit: usize,
    mut k: K,
) -> Vec<(Outcome, Heap)>
where
    K: FnMut(&mut Ctx, Loc, Heap) -> Vec<(Outcome, Heap)>,
{
    let mut out = Vec::new();
    for (outcome, heap) in outcomes {
        if out.len() >= limit {
            note_truncation();
            break;
        }
        match outcome {
            Outcome::Val(loc) => out.extend(k(ctx, loc, heap)),
            other => out.push((other, heap)),
        }
    }
    out
}

/// Runs `step(0)`, …, `step(len - 1)` left to right, each in the heap of a
/// normal outcome of the one before, and continues with `k` on the list of
/// their values. Each step's continuations are cut at `limit`.
fn sequence<S, K>(
    ctx: &mut Ctx,
    len: usize,
    heap: Heap,
    limit: usize,
    mut step: S,
    mut k: K,
) -> Vec<(Outcome, Heap)>
where
    S: FnMut(&mut Ctx, usize, &Heap) -> Vec<(Outcome, Heap)>,
    K: FnMut(&mut Ctx, Vec<Loc>, Heap) -> Vec<(Outcome, Heap)>,
{
    fn go<S, K>(
        ctx: &mut Ctx,
        len: usize,
        done: Vec<Loc>,
        heap: Heap,
        limit: usize,
        step: &mut S,
        k: &mut K,
    ) -> Vec<(Outcome, Heap)>
    where
        S: FnMut(&mut Ctx, usize, &Heap) -> Vec<(Outcome, Heap)>,
        K: FnMut(&mut Ctx, Vec<Loc>, Heap) -> Vec<(Outcome, Heap)>,
    {
        if done.len() == len {
            return k(ctx, done, heap);
        }
        let outcomes = step(ctx, done.len(), &heap);
        then_upto(ctx, outcomes, limit, |ctx, loc, branch_heap| {
            let mut done = done.clone();
            done.push(loc);
            go(ctx, len, done, branch_heap, limit, step, k)
        })
    }
    go(ctx, len, Vec::new(), heap, limit, &mut step, &mut k)
}

/// Evaluates `expr` and continues with `k` on every normal outcome.
fn bind<K>(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    expr: &Expr,
    heap: &Heap,
    k: K,
) -> Vec<(Outcome, Heap)>
where
    K: FnMut(&mut Ctx, Loc, Heap) -> Vec<(Outcome, Heap)>,
{
    let outcomes = eval(ctx, env, owner, expr, heap);
    let limit = ctx.options.max_branches;
    then_upto(ctx, outcomes, limit, k)
}

/// Evaluates a list of expressions left to right and continues with the
/// resulting locations.
fn bind_list<K>(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    exprs: &[Expr],
    heap: &Heap,
    k: K,
) -> Vec<(Outcome, Heap)>
where
    K: FnMut(&mut Ctx, Vec<Loc>, Heap) -> Vec<(Outcome, Heap)>,
{
    let limit = ctx.options.max_branches;
    let step = |ctx: &mut Ctx, i: usize, heap: &Heap| eval(ctx, env, owner, &exprs[i], heap);
    sequence(ctx, exprs.len(), heap.clone(), limit, step, k)
}

fn eval_and(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    parts: &[Expr],
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    match parts.split_first() {
        None => alloc_value(heap, SVal::Bool(true)),
        Some((first, [])) => eval(ctx, env, owner, first, heap),
        Some((first, rest)) => bind(ctx, env, owner, first, heap, |ctx, loc, heap| {
            truthiness(ctx, &heap, loc)
                .into_iter()
                .flat_map(|(is_true, branch_heap)| {
                    if is_true {
                        eval_and(ctx, env, owner, rest, &branch_heap)
                    } else {
                        alloc_value(&branch_heap, SVal::Bool(false))
                    }
                })
                .collect()
        }),
    }
}

fn eval_or(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    parts: &[Expr],
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    match parts.split_first() {
        None => alloc_value(heap, SVal::Bool(false)),
        Some((first, [])) => eval(ctx, env, owner, first, heap),
        Some((first, rest)) => bind(ctx, env, owner, first, heap, |ctx, loc, heap| {
            truthiness(ctx, &heap, loc)
                .into_iter()
                .flat_map(|(is_true, branch_heap)| {
                    if is_true {
                        vec![(Outcome::Val(loc), branch_heap)]
                    } else {
                        eval_or(ctx, env, owner, rest, &branch_heap)
                    }
                })
                .collect()
        }),
    }
}

fn eval_begin(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    parts: &[Expr],
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    match parts.split_first() {
        None => alloc_value(heap, SVal::Nil),
        Some((only, [])) => eval(ctx, env, owner, only, heap),
        Some((first, rest)) => bind(ctx, env, owner, first, heap, |ctx, _loc, heap| {
            eval_begin(ctx, env, owner, rest, &heap)
        }),
    }
}

fn eval_let(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    bindings: &[(String, Expr)],
    recursive: bool,
    body: &Expr,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    if recursive {
        // Pre-allocate placeholder locations so right-hand sides can refer to
        // every binding, then overwrite the placeholders with the results.
        let mut heap = heap.clone();
        let placeholders: Vec<(String, Loc)> = bindings
            .iter()
            .map(|(name, _)| (name.clone(), heap.alloc(SVal::opaque())))
            .collect();
        let extended = extend_env(env, placeholders.clone());
        let exprs: Vec<Expr> = bindings.iter().map(|(_, e)| e.clone()).collect();
        bind_list(ctx, &extended, owner, &exprs, &heap, |ctx, locs, heap| {
            let mut heap = heap;
            for ((_, placeholder), value_loc) in placeholders.iter().zip(&locs) {
                let value = heap.get(*value_loc).clone();
                heap.set(*placeholder, value);
            }
            eval(ctx, &extended, owner, body, &heap)
        })
    } else {
        let exprs: Vec<Expr> = bindings.iter().map(|(_, e)| e.clone()).collect();
        let names: Vec<String> = bindings.iter().map(|(n, _)| n.clone()).collect();
        bind_list(ctx, env, owner, &exprs, heap, |ctx, locs, heap| {
            let extended = extend_env(env, names.iter().cloned().zip(locs.iter().copied()));
            eval(ctx, &extended, owner, body, &heap)
        })
    }
}
