//! The symbolic evaluator for CPCF: a worklist machine over the symbolic
//! heap, with contract monitoring, blame, structural refinement of opaque
//! values and a demonic ("havoc") treatment of values that escape to the
//! unknown context. It is the only evaluator: typed SPCF programs (the
//! `spcf` crate) are lowered onto CPCF and run here.
//!
//! **The machine.** A state is a control (code and its environment, an
//! application, a monitor or a demonic exploration), an explicit
//! continuation and a heap (which carries the path condition). A step
//! charges one unit of [`EvalOptions::fuel`] for its control and yields one
//! outcome per branch; the outcomes return into the continuation's frames
//! until the next control, which becomes a queued successor state. Nothing
//! recurses natively with the program, so the native stack stays flat
//! whatever the fuel. The frames are the continuations of the evaluation
//! rules: the rest of an `if`, `and` or `or`; an operation waiting for its
//! next operand (application, primitives, struct and contract forms,
//! monitors, `let`); a guarded function's argument and range monitors; the
//! demonic context's next exploration; and the sequencing of `and/c`,
//! `or/c`, `cons/c`, `listof` and flat contracts. The `or/c` frame is the
//! one handler: an error unwinds to it, and the next alternative is tried.
//!
//! **The search.** The queue pops the state with the fewest charged steps
//! on its path, the newest among equals, so sibling paths advance together
//! and an error a few steps deep is reached before a deep recursion beside
//! it uses up the fuel. [`EvalOptions::max_branches`] bounds the queued
//! states (with the one being stepped); a successor past the bound is
//! dropped and counted in `branch_truncations`, and the analysis of an
//! export that dropped one cannot read `Verified`. [`eval`] runs the
//! machine to completion and returns every final outcome; the analysis
//! drives it one final outcome at a time and stops at the first validated
//! counterexample.
//!
//! Every state split below — truthiness, tag predicates, contract branches,
//! the demonic context — forks the heap with `heap.clone()`, an O(1)
//! *snapshot* of a persistent copy-on-write structure (see [`crate::heap`]).
//! Code is compiled once into shared nodes ([`Code`]), so a state, a frame
//! or a closure points into it at the cost of a reference count.
//!
//! The evaluator is split by concern:
//!
//! * [`mod@self`] — the entry point ([`eval`]) and the expression step;
//! * `machine` — states, frames, delivery of outcomes and the queue;
//! * `code` — the compiled form of expressions;
//! * `branch` — truthiness, tag predicates and structural refinement: the
//!   places where one symbolic state splits into several;
//! * `apply` — function application, including the demonic treatment of
//!   opaque functions and escaped values;
//! * `contracts` — contract monitoring and blame assignment;
//! * `prims` — primitive operations and symbolic arithmetic.
//!
//! All prover queries go through the [`Ctx`]'s [`ProverSession`], which
//! keeps a live incremental solver synchronized with the heap's constraint
//! journal, so the context must be threaded mutably everywhere (it is not
//! `Copy`, and neither are the options that configure it).

use std::collections::HashMap;
use std::rc::Rc;

use crate::heap::{extend_env, ContractVal, Env, Heap, Loc, SVal, Tag};
use crate::prove::ProverSession;
use crate::syntax::{CBlame, Expr, Label, StructDef};

mod apply;
mod branch;
mod code;
mod contracts;
mod machine;
mod prims;

pub use branch::{refine_to_tag, tag_predicate, truthiness, values_equal};
pub use code::Code;
use code::{Node, Op, Operation};
use contracts::Parties;
pub(crate) use machine::Machine;
use machine::{Control, Frame, Kont, Out};
pub use prims::apply_prim;

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
    /// Total fuel for one evaluation: each machine step (evaluating an
    /// expression, applying a function, monitoring a contract or exploring
    /// an escaped value) costs one unit, on whichever path it runs. A path
    /// that finds the fuel gone ends in [`Outcome::Timeout`].
    pub fuel: u64,
    /// The most states the search holds at once: those queued plus the one
    /// being stepped. A successor past the bound is dropped (and counted in
    /// `branch_truncations`), so an analysis that drops one reports
    /// `Exhausted`, not `Verified`.
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

/// Counts one state dropped at the `max_branches` bound.
#[cold]
fn note_truncation() {
    crate::prove::bump_thread(|c| c.branch_truncations += 1);
}

/// All outcomes of evaluating `expr`: runs the machine to completion.
pub fn eval(
    ctx: &mut Ctx,
    env: &Env,
    owner: &str,
    expr: &Expr,
    heap: &Heap,
) -> Vec<(Outcome, Heap)> {
    let mut machine = Machine::evaluate(ctx, env, owner, expr, heap);
    std::iter::from_fn(|| machine.next_outcome(ctx)).collect()
}

/// One evaluation step: `code` in `env`, continued by `kont`.
fn eval_step(
    ctx: &mut Ctx,
    code: &Code,
    env: Env,
    owner: Rc<str>,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    match &*code.0 {
        Node::Const(value) => out.outcomes(alloc_value(&heap, value.clone()), &kont),
        Node::Opaque(label) => {
            let mut heap = heap;
            let loc = heap.alloc_opaque(*label);
            out.done(Outcome::Val(loc), heap, kont);
        }
        Node::Var(name) => {
            let outcome = match env.get(name).or_else(|| ctx.globals.get(name)) {
                Some(&loc) => Outcome::Val(loc),
                None => Outcome::Err(CBlame {
                    party: owner.to_string(),
                    message: format!("unbound variable `{name}`"),
                    label: Label(u32::MAX),
                }),
            };
            out.done(outcome, heap, kont);
        }
        Node::Lam(params, body) => {
            let closure = SVal::Closure {
                params: params.clone(),
                body: body.clone(),
                env,
                owner,
            };
            out.outcomes(alloc_value(&heap, closure), &kont);
        }
        Node::If(condition, then, otherwise) => {
            let frame = Frame::If {
                then: then.clone(),
                otherwise: otherwise.clone(),
                env: env.clone(),
                owner: owner.clone(),
            };
            out.run(
                Control::Eval(condition.clone(), env, owner),
                heap,
                kont.push(frame),
            );
        }
        // An empty `and` is true and an empty `or` false.
        Node::Junction(and, parts) if parts.is_empty() => {
            out.outcomes(alloc_value(&heap, SVal::Bool(*and)), &kont)
        }
        Node::Junction(and, parts) => eval_part(*and, parts, 0, &env, &owner, heap, &kont, out),
        Node::Op(operation) => {
            let mut heap = heap;
            let mut env = env;
            if let Op::Let {
                names,
                recursive: true,
                ..
            } = &operation.op
            {
                // Placeholder locations bind every name in every right-hand
                // side; they are overwritten with the values at the end.
                let placeholders: Vec<(String, Loc)> = names
                    .iter()
                    .map(|name| (name.clone(), heap.alloc(SVal::opaque())))
                    .collect();
                env = extend_env(&env, placeholders);
            }
            operands(
                ctx,
                operation.clone(),
                Vec::new(),
                env,
                owner,
                heap,
                kont,
                out,
            );
        }
    }
}

/// Evaluates `parts[index]` of an `and` (or, when `and` is false, an
/// `or`) under a frame for the parts after it; the last part's value is
/// the form's.
#[allow(clippy::too_many_arguments)]
fn eval_part(
    and: bool,
    parts: &Rc<[Code]>,
    index: usize,
    env: &Env,
    owner: &Rc<str>,
    heap: Heap,
    kont: &Kont,
    out: &mut Out,
) {
    let kont = if index + 1 < parts.len() {
        kont.push(Frame::Junction {
            and,
            parts: parts.clone(),
            next: index + 1,
            env: env.clone(),
            owner: owner.clone(),
        })
    } else {
        kont.clone()
    };
    let control = Control::Eval(parts[index].clone(), env.clone(), owner.clone());
    out.run(control, heap, kont);
}

/// Continues an operation whose first `done.len()` operands have values:
/// evaluates the next operand, or acts once all have.
#[allow(clippy::too_many_arguments)]
fn operands(
    ctx: &mut Ctx,
    operation: Rc<Operation>,
    done: Vec<Loc>,
    env: Env,
    owner: Rc<str>,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let Some(next) = operation.operands.get(done.len()) else {
        return finish(ctx, &operation.op, done, env, owner, heap, kont, out);
    };
    let control = Control::Eval(next.clone(), env.clone(), owner.clone());
    let frame = Frame::Operands {
        operation: operation.clone(),
        done,
        env,
        owner,
    };
    out.run(control, heap, kont.push(frame));
}

/// Acts on an operation's operand values.
#[allow(clippy::too_many_arguments)]
fn finish(
    ctx: &mut Ctx,
    op: &Op,
    values: Vec<Loc>,
    env: Env,
    owner: Rc<str>,
    heap: Heap,
    kont: Kont,
    out: &mut Out,
) {
    let contract = |value| alloc_value(&heap, SVal::Contract(value));
    let outcomes = match op {
        Op::App => {
            let control = Control::Apply {
                function: values[0],
                args: values[1..].to_vec(),
                caller: owner,
                label: Label(u32::MAX),
            };
            return out.run(control, heap, kont);
        }
        Op::Begin => match values.last() {
            Some(&last) => vec![(Outcome::Val(last), heap)],
            None => alloc_value(&heap, SVal::Nil),
        },
        Op::Prim(prim, label) => apply_prim(ctx, &owner, *prim, &values, &heap, *label),
        Op::StructMake(name) => alloc_value(
            &heap,
            SVal::StructVal {
                tag: name.clone(),
                fields: values,
            },
        ),
        Op::StructPred(name) => tag_predicate(ctx, &heap, values[0], &Tag::Struct(name.clone())),
        Op::StructGet(name, index, label) => {
            let field_count = ctx.structs.get(name).map_or(0, |d| d.fields.len());
            let (loc, index, label) = (values[0], *index, *label);
            branch::struct_project(ctx, &owner, &heap, loc, name, index, field_count, label)
        }
        Op::Arrow => {
            let (rng, doms) = values.split_last().expect("an arrow has a range");
            contract(ContractVal::Func {
                doms: doms.to_vec(),
                rng: *rng,
            })
        }
        Op::AndC => contract(ContractVal::And(values)),
        Op::OrC => contract(ContractVal::Or(values)),
        Op::ConsC => contract(ContractVal::Cons(values[0], values[1])),
        Op::ListOfC => contract(ContractVal::ListOf(values[0])),
        Op::OneOfC => contract(ContractVal::OneOf(values)),
        Op::Mon { pos, neg, label } => {
            let control = Control::Monitor {
                contract: values[0],
                value: values[1],
                parties: Parties {
                    pos: pos.clone(),
                    neg: neg.clone(),
                    label: *label,
                },
            };
            return out.run(control, heap, kont);
        }
        Op::Let {
            names,
            recursive,
            body,
        } => {
            let mut heap = heap;
            let env = if *recursive {
                for (name, value_loc) in names.iter().zip(&values) {
                    let value = heap.get(*value_loc).clone();
                    heap.set(env[name], value);
                }
                env
            } else {
                extend_env(&env, names.iter().cloned().zip(values))
            };
            return out.run(Control::Eval(body.clone(), env, owner), heap, kont);
        }
    };
    out.outcomes(outcomes, &kont);
}

/// Allocates a value in a clone of the heap and returns it as the single
/// outcome.
pub(crate) fn alloc_value(heap: &Heap, value: SVal) -> Vec<(Outcome, Heap)> {
    let mut heap = heap.clone();
    let loc = heap.alloc(value);
    vec![(Outcome::Val(loc), heap)]
}
