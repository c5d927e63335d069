//! The worklist machine: states, continuation frames and the search queue.
//!
//! A [`State`] is `(control, continuation, heap)`; the environment travels
//! in the control that needs it. A step takes one *charged* control (an
//! expression to evaluate, an application, a monitor or a demonic
//! exploration), spends one unit of fuel on it, and yields outcomes. Each
//! outcome is then delivered to the continuation at once: a value returns
//! into the top frame, an error unwinds to the nearest `or/c` frame, a
//! timeout ends the path. Delivery is free; it stops at the next charged
//! control, which becomes a successor state, or at an empty continuation,
//! which makes the outcome final.
//!
//! The queue holds successor states, least path length (charged steps)
//! first and, among equals, the newest first. A state whose one successor
//! would be popped next anyway keeps running in place.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::mem;
use std::rc::Rc;

use crate::heap::{Env, Heap, Loc};
use crate::syntax::{Expr, Label};

use super::apply::{self, Demonic};
use super::code::{Code, Operation};
use super::contracts::{self, Parties};
use super::{note_truncation, Ctx, Outcome};

/// What a state does next. Every control costs one unit of fuel.
#[derive(Clone)]
pub(super) enum Control {
    /// Evaluate code in an environment, on behalf of `owner`.
    Eval(Code, Env, Rc<str>),
    /// Apply a function to arguments.
    Apply {
        function: Loc,
        args: Vec<Loc>,
        caller: Rc<str>,
        label: Label,
    },
    /// Monitor a value against a contract.
    Monitor {
        contract: Loc,
        value: Loc,
        parties: Parties,
    },
    /// Explore a value that escaped to the demonic context.
    Havoc {
        loc: Loc,
        depth: u32,
        record: Option<Demonic>,
    },
}

/// One continuation frame: what to do with the value (or, for `MonOr`,
/// the error) of the computation beneath it.
#[derive(Clone)]
pub(super) enum Frame {
    /// `(if □ then otherwise)`.
    If {
        then: Code,
        otherwise: Code,
        env: Env,
        owner: Rc<str>,
    },
    /// `(and … □ parts[next] …)`, or `or` when `and` is false.
    Junction {
        and: bool,
        parts: Rc<[Code]>,
        next: usize,
        env: Env,
        owner: Rc<str>,
    },
    /// An operation with the values of its first `done.len()` operands.
    Operands {
        operation: Rc<Operation>,
        done: Vec<Loc>,
        env: Env,
        owner: Rc<str>,
    },
    /// A guarded application's arguments, monitored against `doms` with
    /// swapped parties one at a time; then `inner` is applied to them.
    GuardArgs {
        doms: Rc<[Loc]>,
        args: Vec<Loc>,
        done: Vec<Loc>,
        parties: Parties,
        inner: Loc,
        caller: Rc<str>,
        label: Label,
    },
    /// A guarded application's result, monitored against the range.
    GuardRange { rng: Loc, parties: Parties },
    /// The result of a demonic application, explored in turn.
    HavocResult { depth: u32, record: Option<Demonic> },
    /// Ignore the value and explore `loc` (the next component).
    HavocNext { loc: Loc, depth: u32 },
    /// An exploration that finished without an error: the unknown context
    /// returns an unknown value.
    HavocDone,
    /// `and/c`: monitor the value against `parts[next]`, and on.
    MonAnd {
        parts: Rc<[Loc]>,
        next: usize,
        parties: Parties,
    },
    /// `or/c`: a value passes; an error tries `parts[next]` on `value`.
    MonOr {
        parts: Rc<[Loc]>,
        next: usize,
        value: Loc,
        parties: Parties,
    },
    /// `cons/c`: the car passed; monitor the cdr, then return the pair.
    PairCdr {
        contract: Loc,
        cdr: Loc,
        value: Loc,
        parties: Parties,
    },
    /// `listof`: an element passed; monitor the rest, then return the list.
    ListRest {
        element: Loc,
        cdr: Loc,
        value: Loc,
        parties: Parties,
        depth: u32,
    },
    /// Ignore the value and return `loc`.
    Return(Loc),
    /// A flat contract's predicate returned: pass `value` or blame.
    FlatResult { value: Loc, parties: Parties },
}

/// A continuation: a persistent stack of frames, shared by the states
/// that forked from one another.
#[derive(Clone, Default)]
pub(super) struct Kont(Option<Rc<KNode>>);

struct KNode {
    frame: Frame,
    next: Kont,
}

impl Drop for KNode {
    /// Unlinks the rest of the stack iteratively: a deep continuation must
    /// not be freed by native recursion.
    fn drop(&mut self) {
        let mut next = self.next.0.take();
        while let Some(node) = next {
            match Rc::try_unwrap(node) {
                Ok(mut node) => next = node.next.0.take(),
                Err(_) => break,
            }
        }
    }
}

impl Kont {
    /// This continuation with `frame` on top.
    pub(super) fn push(&self, frame: Frame) -> Kont {
        Kont(Some(Rc::new(KNode {
            frame,
            next: self.clone(),
        })))
    }

    /// The top frame and the rest; `None` for the empty continuation. The
    /// frame is moved out when no other state shares it.
    fn pop(self) -> Option<(Frame, Kont)> {
        let node = self.0?;
        Some(match Rc::try_unwrap(node) {
            Ok(mut node) => (
                mem::replace(&mut node.frame, Frame::HavocDone),
                mem::take(&mut node.next),
            ),
            Err(node) => (node.frame.clone(), node.next.clone()),
        })
    }

    /// The nearest `MonOr` frame and the continuation below it: where an
    /// error unwinds to.
    fn handler(&self) -> Option<(Frame, Kont)> {
        let mut cursor = self.0.as_ref();
        while let Some(node) = cursor {
            if matches!(node.frame, Frame::MonOr { .. }) {
                return Some((node.frame.clone(), node.next.clone()));
            }
            cursor = node.next.0.as_ref();
        }
        None
    }
}

/// What a step produced for one branch: a control to queue, or an outcome
/// to deliver to the continuation.
pub(super) enum Next {
    Run(Control),
    Done(Outcome),
}

/// The branches a step produced, delivered in order.
#[derive(Default)]
pub(super) struct Out {
    items: VecDeque<(Next, Heap, Kont)>,
}

impl Out {
    /// A branch that continues with `control`.
    pub(super) fn run(&mut self, control: Control, heap: Heap, kont: Kont) {
        self.items.push_back((Next::Run(control), heap, kont));
    }

    /// A branch that ends this computation with `outcome`.
    pub(super) fn done(&mut self, outcome: Outcome, heap: Heap, kont: Kont) {
        self.items.push_back((Next::Done(outcome), heap, kont));
    }

    /// One branch per outcome, all with continuation `kont`.
    pub(super) fn outcomes(&mut self, outcomes: Vec<(Outcome, Heap)>, kont: &Kont) {
        for (outcome, heap) in outcomes {
            self.done(outcome, heap, kont.clone());
        }
    }
}

/// A queued machine state.
pub(super) struct State {
    control: Control,
    kont: Kont,
    heap: Heap,
    /// Charged steps on this state's path.
    steps: u64,
}

/// The search over one evaluation's states. Drive it with
/// [`Machine::next_outcome`] to receive final outcomes as they are reached.
pub(crate) struct Machine {
    /// The state to step next, when it is the queue's least anyway.
    current: Option<State>,
    /// Queued states by `(Reverse(steps), seq)`: the last entry is the one
    /// with the fewest steps and, among those, the newest.
    queue: BTreeMap<(Reverse<u64>, u64), State>,
    seq: u64,
    /// Final outcomes reached but not yet handed out.
    finals: VecDeque<(Outcome, Heap)>,
    /// The bound on queued states plus the one being stepped.
    bound: usize,
    /// States dropped at the bound.
    dropped: u64,
}

impl Machine {
    /// A machine about to evaluate `expr` in `env` on behalf of `owner`.
    pub(crate) fn evaluate(ctx: &Ctx, env: &Env, owner: &str, expr: &Expr, heap: &Heap) -> Self {
        let control = Control::Eval(Code::compile(expr), env.clone(), owner.into());
        Machine {
            current: Some(State {
                control,
                kont: Kont::default(),
                heap: heap.clone(),
                steps: 0,
            }),
            queue: BTreeMap::new(),
            seq: 0,
            finals: VecDeque::new(),
            bound: ctx.options.max_branches.max(1),
            dropped: 0,
        }
    }

    /// Runs until the next final outcome, or `None` once no state is left.
    pub(crate) fn next_outcome(&mut self, ctx: &mut Ctx) -> Option<(Outcome, Heap)> {
        loop {
            if let Some(outcome) = self.finals.pop_front() {
                return Some(outcome);
            }
            let state = match self.current.take() {
                Some(state) => state,
                None => self.queue.pop_last()?.1,
            };
            let successors = self.step(ctx, state);
            self.schedule(successors);
        }
    }

    /// Are states left to explore?
    pub(crate) fn has_pending(&self) -> bool {
        self.current.is_some() || !self.queue.is_empty() || !self.finals.is_empty()
    }

    /// How many states were dropped at the `max_branches` bound.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Takes one charged step and delivers its outcomes, returning the
    /// successor states; final outcomes go to `self.finals`.
    fn step(&mut self, ctx: &mut Ctx, state: State) -> Vec<State> {
        let State {
            control,
            kont,
            heap,
            steps,
        } = state;
        let mut out = Out::default();
        match control {
            Control::Eval(code, env, owner) => {
                if ctx.tick() {
                    super::eval_step(ctx, &code, env, owner, heap, kont, &mut out);
                } else {
                    out.done(Outcome::Timeout, heap, kont);
                }
            }
            Control::Apply {
                function,
                args,
                caller,
                label,
            } => {
                if ctx.tick() {
                    apply::apply_step(ctx, caller, function, args, label, heap, kont, &mut out);
                } else {
                    out.done(Outcome::Timeout, heap, kont);
                }
            }
            Control::Monitor {
                contract,
                value,
                parties,
            } => {
                if ctx.tick() {
                    contracts::monitor_step(ctx, contract, value, parties, heap, kont, &mut out);
                } else {
                    out.done(Outcome::Timeout, heap, kont);
                }
            }
            Control::Havoc { loc, depth, record } => {
                apply::havoc_step(ctx, loc, depth, record, heap, kont, &mut out);
            }
        }
        let mut successors = Vec::new();
        while let Some((next, heap, kont)) = out.items.pop_front() {
            match next {
                Next::Run(control) => successors.push(State {
                    control,
                    kont,
                    heap,
                    steps: steps + 1,
                }),
                Next::Done(outcome) => self.deliver(ctx, outcome, heap, kont, &mut out),
            }
        }
        successors
    }

    /// Delivers an outcome to a continuation.
    fn deliver(&mut self, ctx: &mut Ctx, outcome: Outcome, heap: Heap, kont: Kont, out: &mut Out) {
        match outcome {
            Outcome::Val(loc) => match kont.pop() {
                Some((frame, rest)) => resume(ctx, frame, loc, heap, rest, out),
                None => self.finals.push_back((Outcome::Val(loc), heap)),
            },
            Outcome::Err(blame) => match kont.handler() {
                Some((frame, rest)) => contracts::or_caught(frame, heap, rest, out),
                None => self.finals.push_back((Outcome::Err(blame), heap)),
            },
            Outcome::Timeout => self.finals.push_back((Outcome::Timeout, heap)),
        }
    }

    /// Queues a step's successors, dropping those past the bound. A lone
    /// successor that the queue would pop next keeps running in place.
    fn schedule(&mut self, successors: Vec<State>) {
        if successors.len() == 1 {
            let fair = self
                .queue
                .last_key_value()
                .is_none_or(|(&(Reverse(least), _), _)| successors[0].steps <= least);
            if fair {
                self.current = successors.into_iter().next();
                return;
            }
        }
        let room = self.bound.saturating_sub(self.queue.len());
        // Pushed last to first, so that among states of equal length the
        // first successor is popped first.
        for (index, state) in successors.into_iter().enumerate().rev() {
            if index >= room {
                self.dropped += 1;
                note_truncation();
                continue;
            }
            self.seq += 1;
            self.queue.insert((Reverse(state.steps), self.seq), state);
        }
    }
}

/// Returns `loc` into `frame`.
fn resume(ctx: &mut Ctx, frame: Frame, loc: Loc, heap: Heap, kont: Kont, out: &mut Out) {
    match frame {
        Frame::If {
            then,
            otherwise,
            env,
            owner,
        } => {
            for (is_true, heap) in super::truthiness(ctx, &heap, loc) {
                let branch = if is_true { &then } else { &otherwise };
                let control = Control::Eval(branch.clone(), env.clone(), owner.clone());
                out.run(control, heap, kont.clone());
            }
        }
        Frame::Junction {
            and,
            parts,
            next,
            env,
            owner,
        } => {
            for (is_true, heap) in super::truthiness(ctx, &heap, loc) {
                if is_true != and {
                    // `and` met a false part, or `or` a true one.
                    let value = if and {
                        super::alloc_value(&heap, crate::SVal::Bool(false))
                    } else {
                        vec![(Outcome::Val(loc), heap)]
                    };
                    out.outcomes(value, &kont);
                } else {
                    super::eval_part(and, &parts, next, &env, &owner, heap, &kont, out);
                }
            }
        }
        Frame::Operands {
            operation,
            mut done,
            env,
            owner,
        } => {
            done.push(loc);
            super::operands(ctx, operation, done, env, owner, heap, kont, out);
        }
        Frame::GuardArgs {
            doms,
            args,
            mut done,
            parties,
            inner,
            caller,
            label,
        } => {
            done.push(loc);
            apply::guard_args(
                doms, args, done, parties, inner, caller, label, heap, kont, out,
            );
        }
        Frame::GuardRange { rng, parties } => {
            let control = Control::Monitor {
                contract: rng,
                value: loc,
                parties,
            };
            out.run(control, heap, kont);
        }
        Frame::HavocResult { depth, record } => {
            let control = Control::Havoc {
                loc,
                depth: depth - 1,
                record,
            };
            out.run(control, heap, kont);
        }
        Frame::HavocNext { loc, depth } => {
            let control = Control::Havoc {
                loc,
                depth,
                record: None,
            };
            out.run(control, heap, kont);
        }
        Frame::HavocDone => {
            let mut heap = heap;
            let result = heap.alloc(crate::SVal::opaque());
            out.done(Outcome::Val(result), heap, kont);
        }
        Frame::MonAnd {
            parts,
            next,
            parties,
        } => contracts::monitor_all(parts, next, loc, parties, heap, kont, out),
        Frame::MonOr { .. } => out.done(Outcome::Val(loc), heap, kont),
        Frame::PairCdr {
            contract,
            cdr,
            value,
            parties,
        } => {
            let control = Control::Monitor {
                contract,
                value: cdr,
                parties,
            };
            out.run(control, heap, kont.push(Frame::Return(value)));
        }
        Frame::ListRest {
            element,
            cdr,
            value,
            parties,
            depth,
        } => {
            let kont = kont.push(Frame::Return(value));
            contracts::monitor_listof(ctx, element, cdr, parties, depth, heap, kont, out);
        }
        Frame::Return(value) => out.done(Outcome::Val(value), heap, kont),
        Frame::FlatResult { value, parties } => {
            contracts::flat_result(ctx, loc, value, parties, heap, kont, out)
        }
    }
}
