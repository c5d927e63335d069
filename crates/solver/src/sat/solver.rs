//! The CDCL search loop.
//!
//! The search follows the MiniSat lineage: two-watched-literal propagation,
//! first-UIP conflict analysis with VSIDS variable activities, phase saving,
//! and assumption-based solving, with decision variables picked from an
//! activity-ordered binary heap with lazy removal. Problem, theory and learnt
//! clauses share one arena and are never deleted, and the search never
//! restarts: a cold run of the whole Table-1 corpus has fewer than two
//! hundred conflicts, too few for restarts or learnt-database reduction to
//! pay.

use super::types::{BVar, Lit, SatResult};
use crate::solver::SolverStats;

const UNASSIGNED: u8 = 2;

/// Index of a clause in the solver's clause arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClauseRef(u32);

/// Activity-ordered binary max-heap over variable indices (MiniSat's
/// `VarOrder`). Assigned variables are removed lazily: they stay in the heap
/// until popped, and are re-inserted on backtracking.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, `u32::MAX` when absent.
    position: Vec<u32>,
}

impl VarOrder {
    fn contains(&self, var: u32) -> bool {
        self.position
            .get(var as usize)
            .is_some_and(|&p| p != u32::MAX)
    }

    /// `a` orders before `b`: higher activity first, ties to the lower index
    /// (matching the old linear scan, which kept the first maximum).
    fn better(a: u32, b: u32, activity: &[f64]) -> bool {
        let (aa, ab) = (activity[a as usize], activity[b as usize]);
        aa > ab || (aa == ab && a < b)
    }

    fn sift_up(&mut self, mut index: usize, activity: &[f64]) {
        while index > 0 {
            let parent = (index - 1) / 2;
            if Self::better(self.heap[index], self.heap[parent], activity) {
                self.heap.swap(index, parent);
                self.position[self.heap[index] as usize] = index as u32;
                self.position[self.heap[parent] as usize] = parent as u32;
                index = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut index: usize, activity: &[f64]) {
        loop {
            let left = 2 * index + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::better(self.heap[right], self.heap[left], activity)
            {
                right
            } else {
                left
            };
            if Self::better(self.heap[child], self.heap[index], activity) {
                self.heap.swap(index, child);
                self.position[self.heap[index] as usize] = index as u32;
                self.position[self.heap[child] as usize] = child as u32;
                index = child;
            } else {
                break;
            }
        }
    }

    fn insert(&mut self, var: u32, activity: &[f64]) {
        if self.position.len() <= var as usize {
            self.position.resize(var as usize + 1, u32::MAX);
        }
        if self.contains(var) {
            return;
        }
        self.position[var as usize] = self.heap.len() as u32;
        self.heap.push(var);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        self.position[top as usize] = u32::MAX;
        let last = self.heap.pop().expect("heap non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores the heap invariant for `var` after its activity increased.
    fn bumped(&mut self, var: u32, activity: &[f64]) {
        if let Some(&position) = self.position.get(var as usize) {
            if position != u32::MAX {
                self.sift_up(position as usize, activity);
            }
        }
    }

    /// Rebuilds the heap from the given variables (O(n) heapify).
    fn rebuild(&mut self, vars: impl Iterator<Item = u32>, num_vars: usize, activity: &[f64]) {
        self.heap.clear();
        self.position.clear();
        self.position.resize(num_vars, u32::MAX);
        for var in vars {
            if self.position[var as usize] == u32::MAX {
                self.position[var as usize] = self.heap.len() as u32;
                self.heap.push(var);
            }
        }
        for index in (0..self.heap.len() / 2).rev() {
            self.sift_down(index, activity);
        }
    }
}

/// A conflict-driven clause-learning SAT solver.
///
/// ```
/// use folic::sat::{SatSolver, SatResult};
///
/// let mut solver = SatSolver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause(vec![a.positive(), b.positive()]);
/// solver.add_clause(vec![a.negative()]);
/// match solver.solve() {
///     SatResult::Sat(model) => {
///         assert!(!model[a.index() as usize]);
///         assert!(model[b.index() as usize]);
///     }
///     SatResult::Unsat => panic!("should be satisfiable"),
/// }
/// ```
#[derive(Debug)]
pub struct SatSolver {
    /// Literals of every clause with two or more literals (problem, theory
    /// and learnt alike), indexed by [`ClauseRef`]; never deleted. The first
    /// two literals of each clause are its watches.
    clauses: Vec<Vec<Lit>>,
    /// Watch lists indexed by literal code.
    watches: Vec<Vec<ClauseRef>>,
    /// Current assignment per variable: 0 = false, 1 = true, 2 = unassigned.
    assign: Vec<u8>,
    /// Saved phase per variable for phase saving.
    phase: Vec<bool>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Reason clause for each propagated variable.
    reason: Vec<Option<ClauseRef>>,
    /// Assignment trail.
    trail: Vec<Lit>,
    /// Indices into the trail marking decision levels.
    trail_lim: Vec<usize>,
    /// Head of the propagation queue within the trail.
    qhead: usize,
    /// VSIDS-style activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// Decision-variable heap (rebuilt per solve from the eligible set).
    order: VarOrder,
    /// Variables eligible for free branching in the current solve call.
    eligible: Vec<bool>,
    /// Reusable conflict-analysis buffer (`seen` marks per variable).
    seen: Vec<bool>,
    /// Variables marked in `seen`, for O(marked) clearing.
    seen_list: Vec<u32>,
    /// Set when an empty clause has been added.
    trivially_unsat: bool,
    /// Unit clauses queued before solving (asserted at level 0).
    pending_units: Vec<Lit>,
    /// The search counters of the most recent solve (decisions,
    /// propagations, conflicts, learnt clauses).
    stats: SolverStats,
}

impl Default for SatSolver {
    fn default() -> Self {
        SatSolver::new()
    }
}

impl SatSolver {
    /// Creates an empty solver with no variables and no clauses.
    pub fn new() -> Self {
        SatSolver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            order: VarOrder::default(),
            eligible: Vec::new(),
            seen: Vec::new(),
            seen_list: Vec::new(),
            trivially_unsat: false,
            pending_units: Vec::new(),
            stats: SolverStats::ZERO,
        }
    }

    /// Statistics for the most recent [`SatSolver::solve`] call.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of clauses currently in the database (original, learnt and
    /// theory clauses alike; unit clauses are absorbed into the level-0
    /// assignment and not counted).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Allocates a fresh boolean variable.
    pub fn new_var(&mut self) -> BVar {
        let index = self.assign.len() as u32;
        self.assign.push(UNASSIGNED);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        BVar::new(index)
    }

    /// Ensures variables up to `var` exist.
    pub fn ensure_var(&mut self, var: BVar) {
        while self.num_vars() <= var.index() as usize {
            self.new_var();
        }
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// Tautological clauses are dropped; duplicate literals are removed; the
    /// empty clause marks the instance trivially unsatisfiable.
    pub fn add_clause(&mut self, mut lits: Vec<Lit>) {
        for lit in &lits {
            self.ensure_var(lit.var());
        }
        lits.sort_by_key(|l| l.code());
        lits.dedup();
        // Drop tautologies (contains both l and ¬l).
        for window in lits.windows(2) {
            if window[0].var() == window[1].var() {
                return;
            }
        }
        match lits.len() {
            0 => self.trivially_unsat = true,
            1 => self.pending_units.push(lits[0]),
            _ => {
                self.attach(lits);
            }
        }
    }

    /// Appends a clause of two or more literals to the arena, watching its
    /// first two literals.
    fn attach(&mut self, lits: Vec<Lit>) -> ClauseRef {
        let cref = ClauseRef(u32::try_from(self.clauses.len()).expect("clause index fits u32"));
        self.watches[lits[0].code()].push(cref);
        self.watches[lits[1].code()].push(cref);
        self.clauses.push(lits);
        cref
    }

    fn lits_of(&self, cref: ClauseRef) -> &[Lit] {
        &self.clauses[cref.0 as usize]
    }

    fn value_lit(&self, lit: Lit) -> u8 {
        let v = self.assign[lit.var().index() as usize];
        if v == UNASSIGNED {
            UNASSIGNED
        } else if lit.is_positive() {
            v
        } else {
            1 - v
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn enqueue(&mut self, lit: Lit, reason: Option<ClauseRef>) -> bool {
        match self.value_lit(lit) {
            0 => false,
            1 => true,
            _ => {
                let var = lit.var().index() as usize;
                self.assign[var] = u8::from(lit.is_positive());
                self.phase[var] = lit.is_positive();
                self.level[var] = self.decision_level();
                self.reason[var] = reason;
                self.trail.push(lit);
                self.stats.propagations += 1;
                true
            }
        }
    }

    /// Unit propagation; returns a conflicting clause, if any.
    ///
    /// Watch lists are compacted in place with a read/write index pair: a
    /// moved watch is pushed onto another literal's list (never this one —
    /// the replacement watch is non-false, the traversed literal is false),
    /// so no temporary list is needed.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = lit.negate();
            let watch_index = false_lit.code();
            let mut read = 0usize;
            let mut write = 0usize;
            let mut conflict = None;
            while read < self.watches[watch_index].len() {
                let cref = self.watches[watch_index][read];
                read += 1;
                enum Action {
                    Keep,
                    Move(Lit),
                    Unit(Lit),
                }
                let action = {
                    // Disjoint field borrows: the clause arena mutably (to
                    // reorder watches), the assignment read-only.
                    let assign = &self.assign;
                    let lits = &mut self.clauses[cref.0 as usize];
                    let value_of = |l: Lit| {
                        let v = assign[l.var().index() as usize];
                        if v == UNASSIGNED {
                            UNASSIGNED
                        } else if l.is_positive() {
                            v
                        } else {
                            1 - v
                        }
                    };
                    // Ensure the false literal is at position 1.
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                    let first = lits[0];
                    if value_of(first) == 1 {
                        Action::Keep
                    } else {
                        // Look for a new literal to watch.
                        let mut moved = None;
                        for position in 2..lits.len() {
                            if value_of(lits[position]) != 0 {
                                lits.swap(1, position);
                                moved = Some(lits[1]);
                                break;
                            }
                        }
                        match moved {
                            Some(candidate) => Action::Move(candidate),
                            None => Action::Unit(first),
                        }
                    }
                };
                match action {
                    Action::Keep => {
                        self.watches[watch_index][write] = cref;
                        write += 1;
                    }
                    Action::Move(candidate) => {
                        self.watches[candidate.code()].push(cref);
                    }
                    Action::Unit(first) => {
                        self.watches[watch_index][write] = cref;
                        write += 1;
                        // Clause is unit (or conflicting) on `first`.
                        if !self.enqueue(first, Some(cref)) {
                            conflict = Some(cref);
                            // Keep the unvisited remainder of the list.
                            while read < self.watches[watch_index].len() {
                                self.watches[watch_index][write] = self.watches[watch_index][read];
                                write += 1;
                                read += 1;
                            }
                            break;
                        }
                    }
                }
            }
            self.watches[watch_index].truncate(write);
            if let Some(conflicting) = conflict {
                return Some(conflicting);
            }
        }
        None
    }

    fn bump_var(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > 1e100 {
            for activity in &mut self.activity {
                *activity *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bumped(var as u32, &self.activity);
    }

    /// First-UIP conflict analysis. Returns the learned clause and the level
    /// to backtrack to. Uses the solver's persistent `seen` buffer and reads
    /// clause literals in place (no per-resolution clone).
    fn analyze(&mut self, conflict: ClauseRef) -> (Vec<Lit>, u32) {
        if self.seen.len() < self.num_vars() {
            self.seen.resize(self.num_vars(), false);
        }
        let mut learned: Vec<Lit> = vec![];
        let mut counter = 0usize;
        let mut lit: Option<Lit> = None;
        let mut cref = conflict;
        let mut trail_index = self.trail.len();
        let current_level = self.decision_level();

        loop {
            let skip_first = lit.is_some();
            let clause_len = self.lits_of(cref).len();
            for position in 0..clause_len {
                if skip_first && position == 0 {
                    continue;
                }
                let q = self.lits_of(cref)[position];
                let var = q.var().index() as usize;
                if !self.seen[var] && self.level[var] > 0 {
                    self.seen[var] = true;
                    self.seen_list.push(var as u32);
                    self.bump_var(var);
                    if self.level[var] >= current_level {
                        counter += 1;
                    } else {
                        learned.push(q);
                    }
                }
            }
            // Select the next literal to resolve on: last assigned seen literal.
            loop {
                trail_index -= 1;
                let candidate = self.trail[trail_index];
                if self.seen[candidate.var().index() as usize] {
                    lit = Some(candidate);
                    break;
                }
            }
            let p = lit.expect("resolution literal");
            counter -= 1;
            if counter == 0 {
                // p is the first UIP.
                learned.insert(0, p.negate());
                break;
            }
            cref = self.reason[p.var().index() as usize]
                .expect("propagated literal must have a reason");
        }

        // Clear the seen marks for the next call.
        while let Some(var) = self.seen_list.pop() {
            self.seen[var as usize] = false;
        }

        // Backtrack level: second-highest level in the learned clause.
        let backtrack_level = if learned.len() == 1 {
            0
        } else {
            let mut max_index = 1;
            for index in 2..learned.len() {
                if self.level[learned[index].var().index() as usize]
                    > self.level[learned[max_index].var().index() as usize]
                {
                    max_index = index;
                }
            }
            learned.swap(1, max_index);
            self.level[learned[1].var().index() as usize]
        };
        (learned, backtrack_level)
    }

    fn backtrack_to(&mut self, target_level: u32) {
        while self.decision_level() > target_level {
            let boundary = self.trail_lim.pop().expect("decision level exists");
            while self.trail.len() > boundary {
                let lit = self.trail.pop().expect("trail non-empty");
                let var = lit.var().index() as usize;
                self.assign[var] = UNASSIGNED;
                self.reason[var] = None;
                if self.eligible.get(var).copied().unwrap_or(false) {
                    self.order.insert(var as u32, &self.activity);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    /// Pops unassigned variables off the order heap (lazy removal of
    /// variables assigned by propagation since their insertion).
    fn pick_branch_var(&mut self) -> Option<BVar> {
        while let Some(var) = self.order.pop(&self.activity) {
            if self.assign[var as usize] == UNASSIGNED {
                return Some(BVar::new(var));
            }
        }
        None
    }

    /// Resets the solver to decision level 0, keeping clauses.
    fn reset_search(&mut self) {
        self.backtrack_to(0);
    }

    /// Decides the satisfiability of the clause set.
    pub fn solve(&mut self) -> SatResult {
        self.solve_under(&[], None)
    }

    /// Decides satisfiability of the clause set under `assumptions` —
    /// literals decided (in order) before any free branching, without ever
    /// being flipped. `Unsat` means the clauses are inconsistent *with the
    /// assumptions*; the clause database itself is left untouched, which is
    /// what makes the solver reusable across queries: per-query activation
    /// literals go in here instead of being asserted as units.
    ///
    /// When `decisions` is `Some`, free branching is restricted to the given
    /// variables: the search stops as soon as every one of them is assigned
    /// and no conflict remains, and the returned model reports any variable
    /// propagation never touched as `false`. Callers that restrict decisions
    /// must therefore validate candidate models against whatever the
    /// unrestricted variables encode (the lazy SMT loop does exactly that).
    pub fn solve_under(&mut self, assumptions: &[Lit], decisions: Option<&[BVar]>) -> SatResult {
        self.stats = SolverStats::ZERO;
        if self.trivially_unsat {
            return SatResult::Unsat;
        }
        for lit in assumptions {
            self.ensure_var(lit.var());
        }
        // Clear eligibility before unwinding the previous call's trail so
        // `backtrack_to` does not push stale variables onto the heap.
        self.eligible.clear();
        self.eligible.resize(self.num_vars(), false);
        self.reset_search();
        // Assert pending unit clauses at level 0.
        let units = std::mem::take(&mut self.pending_units);
        for lit in &units {
            if !self.enqueue(*lit, None) {
                self.pending_units = units;
                return SatResult::Unsat;
            }
        }
        self.pending_units = units;
        // Re-propagate the entire level-0 trail: clauses may have been added
        // since the previous solve call and must see existing assignments.
        self.qhead = 0;
        if self.propagate().is_some() {
            return SatResult::Unsat;
        }

        // Branching eligibility and the decision heap for this call. The
        // heap is built from the eligible set only — O(eligible) instead of
        // a mask over every variable the session ever allocated.
        match decisions {
            Some(vars) => {
                for var in vars {
                    let index = var.index() as usize;
                    if index < self.eligible.len() {
                        self.eligible[index] = true;
                    }
                }
                self.order.rebuild(
                    vars.iter()
                        .map(|v| v.index())
                        .filter(|&v| self.assign[v as usize] == UNASSIGNED),
                    self.num_vars(),
                    &self.activity,
                );
            }
            None => {
                for flag in &mut self.eligible {
                    *flag = true;
                }
                self.order.rebuild(
                    (0..self.num_vars() as u32).filter(|&v| self.assign[v as usize] == UNASSIGNED),
                    self.num_vars(),
                    &self.activity,
                );
            }
        }

        loop {
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    if self.decision_level() == 0 {
                        return SatResult::Unsat;
                    }
                    let (learned, backtrack_level) = self.analyze(conflict);
                    self.backtrack_to(backtrack_level);
                    self.stats.learnt_clauses += 1;
                    let asserting = learned[0];
                    if learned.len() == 1 {
                        if !self.enqueue(asserting, None) {
                            return SatResult::Unsat;
                        }
                    } else {
                        let cref = self.attach(learned);
                        if !self.enqueue(asserting, Some(cref)) {
                            return SatResult::Unsat;
                        }
                    }
                    self.var_inc *= 1.05;
                }
                None => {
                    // Establish the assumptions, in order, before any free
                    // branching (backtracking may have unassigned some). An
                    // assumption already false here is implied false by the
                    // clauses together with the earlier assumptions, so the
                    // instance is unsatisfiable under the assumptions.
                    let mut pending_assumption = None;
                    for &lit in assumptions {
                        match self.value_lit(lit) {
                            1 => continue,
                            0 => return SatResult::Unsat,
                            _ => {
                                pending_assumption = Some(lit);
                                break;
                            }
                        }
                    }
                    if let Some(lit) = pending_assumption {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let enqueued = self.enqueue(lit, None);
                        debug_assert!(enqueued, "assumption literal was unassigned");
                        continue;
                    }
                    match self.pick_branch_var() {
                        None => {
                            let model = self
                                .assign
                                .iter()
                                .map(|&value| value == 1)
                                .collect::<Vec<bool>>();
                            return SatResult::Sat(model);
                        }
                        Some(var) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            let phase = self.phase[var.index() as usize];
                            let lit = Lit::new(var, phase);
                            let enqueued = self.enqueue(lit, None);
                            debug_assert!(enqueued, "decision variable was unassigned");
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut SatSolver, count: usize) -> Vec<BVar> {
        (0..count).map(|_| solver.new_var()).collect()
    }

    #[test]
    fn empty_instance_is_sat() {
        let mut solver = SatSolver::new();
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut solver = SatSolver::new();
        solver.add_clause(vec![]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_clauses_propagate() {
        let mut solver = SatSolver::new();
        let vars = lits(&mut solver, 2);
        solver.add_clause(vec![vars[0].positive()]);
        solver.add_clause(vec![vars[0].negative(), vars[1].positive()]);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(model[0]);
                assert!(model[1]);
            }
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut solver = SatSolver::new();
        let vars = lits(&mut solver, 1);
        solver.add_clause(vec![vars[0].positive()]);
        solver.add_clause(vec![vars[0].negative()]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn simple_3sat_instance() {
        // (a ∨ b ∨ c) ∧ (¬a ∨ b) ∧ (¬b ∨ c) ∧ (¬c ∨ ¬a)
        let mut solver = SatSolver::new();
        let v = lits(&mut solver, 3);
        solver.add_clause(vec![v[0].positive(), v[1].positive(), v[2].positive()]);
        solver.add_clause(vec![v[0].negative(), v[1].positive()]);
        solver.add_clause(vec![v[1].negative(), v[2].positive()]);
        solver.add_clause(vec![v[2].negative(), v[0].negative()]);
        match solver.solve() {
            SatResult::Sat(model) => {
                let (a, b, c) = (model[0], model[1], model[2]);
                assert!(a || b || c);
                assert!(!a || b);
                assert!(!b || c);
                assert!(!c || !a);
            }
            SatResult::Unsat => panic!("should be sat"),
        }
    }

    #[test]
    fn pigeonhole_two_pigeons_one_hole_is_unsat() {
        // Variables: p1h1, p2h1. Each pigeon in the hole, not both.
        let mut solver = SatSolver::new();
        let v = lits(&mut solver, 2);
        solver.add_clause(vec![v[0].positive()]);
        solver.add_clause(vec![v[1].positive()]);
        solver.add_clause(vec![v[0].negative(), v[1].negative()]);
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_three_pigeons_two_holes_is_unsat() {
        // p_{i,j}: pigeon i sits in hole j, i in 0..3, j in 0..2.
        let mut solver = SatSolver::new();
        let mut var = vec![vec![BVar::new(0); 2]; 3];
        for row in var.iter_mut() {
            for slot in row.iter_mut() {
                *slot = solver.new_var();
            }
        }
        // Every pigeon is in some hole.
        for row in &var {
            solver.add_clause(vec![row[0].positive(), row[1].positive()]);
        }
        // No two pigeons share a hole.
        #[allow(clippy::needless_range_loop)] // indexes two pigeon rows per hole
        for hole in 0..2 {
            for first in 0..3 {
                for second in (first + 1)..3 {
                    solver.add_clause(vec![
                        var[first][hole].negative(),
                        var[second][hole].negative(),
                    ]);
                }
            }
        }
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn assumptions_restrict_without_mutating() {
        let mut solver = SatSolver::new();
        let v = lits(&mut solver, 2);
        solver.add_clause(vec![v[0].positive(), v[1].positive()]);
        // Under ¬a ∧ ¬b the clause is falsified ...
        assert_eq!(
            solver.solve_under(&[v[0].negative(), v[1].negative()], None),
            SatResult::Unsat
        );
        // ... but nothing sticks: the instance stays satisfiable.
        assert!(solver.solve().is_sat());
        // Assuming ¬a forces b through the clause.
        match solver.solve_under(&[v[0].negative()], None) {
            SatResult::Sat(model) => {
                assert!(!model[0]);
                assert!(model[1]);
            }
            SatResult::Unsat => panic!("should be sat under ¬a"),
        }
    }

    #[test]
    fn assumptions_survive_conflict_driven_backtracking() {
        // A chain forcing conflicts under the assumptions: a → b, b → c,
        // a ∧ c → ⊥, so assuming a must come back unsat after learning.
        let mut solver = SatSolver::new();
        let v = lits(&mut solver, 3);
        solver.add_clause(vec![v[0].negative(), v[1].positive()]);
        solver.add_clause(vec![v[1].negative(), v[2].positive()]);
        solver.add_clause(vec![v[0].negative(), v[2].negative()]);
        assert_eq!(
            solver.solve_under(&[v[0].positive()], None),
            SatResult::Unsat
        );
        // The learned unit ¬a is a valid consequence; solving without the
        // assumption still succeeds.
        assert!(solver.solve().is_sat());
    }

    #[test]
    fn restricted_decisions_cover_the_requested_variables() {
        let mut solver = SatSolver::new();
        let v = lits(&mut solver, 4);
        solver.add_clause(vec![v[0].positive(), v[1].positive()]);
        // Branch only on the first two variables; the others are left to
        // propagation (here: untouched, reported false).
        match solver.solve_under(&[], Some(&[v[0], v[1]])) {
            SatResult::Sat(model) => {
                assert!(model[0] || model[1], "the clause must be satisfied");
                assert!(!model[2] && !model[3], "unrestricted vars stay unassigned");
            }
            SatResult::Unsat => panic!("satisfiable instance"),
        }
    }

    #[test]
    fn var_order_pops_highest_activity_with_index_ties() {
        let mut activity = vec![0.0f64; 5];
        activity[3] = 2.0;
        activity[1] = 2.0;
        activity[4] = 5.0;
        let mut order = VarOrder::default();
        order.rebuild(0..5u32, 5, &activity);
        assert_eq!(order.pop(&activity), Some(4));
        // Ties break towards the lower index, like the old linear scan.
        assert_eq!(order.pop(&activity), Some(1));
        assert_eq!(order.pop(&activity), Some(3));
        assert_eq!(order.pop(&activity), Some(0));
        assert_eq!(order.pop(&activity), Some(2));
        assert_eq!(order.pop(&activity), None);
    }

    #[test]
    fn var_order_reinsert_and_bump() {
        let mut activity = vec![0.0f64; 4];
        let mut order = VarOrder::default();
        order.rebuild(0..4u32, 4, &activity);
        assert_eq!(order.pop(&activity), Some(0));
        assert!(!order.contains(0));
        activity[2] = 3.0;
        order.bumped(2, &activity);
        assert_eq!(order.pop(&activity), Some(2));
        order.insert(0, &activity);
        assert_eq!(order.pop(&activity), Some(0));
        assert_eq!(order.pop(&activity), Some(1));
        assert_eq!(order.pop(&activity), Some(3));
    }

    #[test]
    fn pigeonhole_six_pigeons_five_holes_is_unsat() {
        // A conflict-heavy unsat family: over a hundred conflicts, every
        // learnt clause kept in the one arena.
        let mut solver = SatSolver::new();
        let pigeons = 6usize;
        let holes = 5usize;
        let mut var = vec![vec![BVar::new(0); holes]; pigeons];
        for row in var.iter_mut() {
            for slot in row.iter_mut() {
                *slot = solver.new_var();
            }
        }
        for row in &var {
            solver.add_clause(row.iter().map(|v| v.positive()).collect());
        }
        #[allow(clippy::needless_range_loop)]
        for hole in 0..holes {
            for first in 0..pigeons {
                for second in (first + 1)..pigeons {
                    solver.add_clause(vec![
                        var[first][hole].negative(),
                        var[second][hole].negative(),
                    ]);
                }
            }
        }
        assert_eq!(solver.solve(), SatResult::Unsat);
    }

    #[test]
    fn random_instances_agree_with_brute_force() {
        // Deterministic pseudo-random 3-SAT instances on 8 variables; compare
        // against exhaustive enumeration.
        let mut seed = 0x1234_5678_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _instance in 0..25 {
            let num_vars = 8usize;
            let num_clauses = 28usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..num_clauses {
                let mut clause = Vec::new();
                for _ in 0..3 {
                    let var = (next() % num_vars as u64) as usize;
                    let positive = next() % 2 == 0;
                    clause.push((var, positive));
                }
                clauses.push(clause);
            }
            // Brute force.
            let mut brute_sat = false;
            'outer: for bits in 0..(1u32 << num_vars) {
                for clause in &clauses {
                    let ok = clause
                        .iter()
                        .any(|&(var, positive)| ((bits >> var) & 1 == 1) == positive);
                    if !ok {
                        continue 'outer;
                    }
                }
                brute_sat = true;
                break;
            }
            // CDCL.
            let mut solver = SatSolver::new();
            let vars = lits(&mut solver, num_vars);
            for clause in &clauses {
                let cl = clause
                    .iter()
                    .map(|&(var, positive)| Lit::new(vars[var], positive))
                    .collect();
                solver.add_clause(cl);
            }
            let result = solver.solve();
            assert_eq!(
                result.is_sat(),
                brute_sat,
                "solver disagrees with brute force"
            );
            if let SatResult::Sat(model) = result {
                for clause in &clauses {
                    assert!(
                        clause.iter().any(|&(var, positive)| model[var] == positive),
                        "model does not satisfy clause"
                    );
                }
            }
        }
    }
}
