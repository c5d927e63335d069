//! Hash-consing arena for terms and atoms.
//!
//! The persistent solver core ([`crate::core::TheoryCore`]) sees the same
//! atoms over and over: every query against a symbolic heap re-asserts the
//! translation of refinements that have not changed since the last query.
//! With the boxed-tree [`Term`]/[`Atom`] representation, each occurrence
//! pays a full structural hash, a fresh `vars()` walk and (on the SAT side)
//! a fresh Tseitin variable. The arena interns both layers once:
//!
//! * structurally equal **terms** share one [`TermId`], with their free
//!   variables computed a single time;
//! * structurally equal **atoms** share one [`AtomId`], with their variable
//!   sets and negations cached — so the atom → SAT-literal map and the
//!   theory-literal collection of the lazy SMT loop work on `u32` ids
//!   instead of cloning trees — and with their theory readings (the
//!   difference-logic constraints and the LIA constraint the atom
//!   normalises to) computed on the first check that needs them and reused
//!   by every later one.
//!
//! ## Process-global atom ids
//!
//! Term ids are arena-local, but **atom ids are process-global**: the first
//! time any arena interns a structurally new atom, the atom is registered in
//! a process-wide table and assigned the next global id, and every later
//! interning of that atom — by this arena or by an arena on another worker
//! thread — returns the same [`AtomId`]. This is what makes theory lemmas
//! (sets of atom ids refuted by the theory, see [`crate::lemmas`])
//! meaningful across workers: a lemma published by one solver core can be
//! imported verbatim by a sibling, because the ids name the same atoms.
//!
//! Each arena still keeps its own per-atom caches (the materialized atom,
//! its sorted variable set, its cached negation), keyed by the global id;
//! the global registry is only consulted on a local miss, so the hot path —
//! re-interning an atom the arena has seen — stays a single local hash
//! lookup over two term ids and an operator, exactly as before. Interned
//! state is append-only on both levels: an id, once returned, is valid for
//! the life of the process.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use crate::formula::{Atom, CmpOp};
use crate::term::{Term, Var};
use crate::theory::{AtomReadings, AtomRef};

/// The id of an interned term (arena-local).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The dense index of the term.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The id of an interned atom. Atom ids are **process-global**: two arenas
/// (on any threads) interning structurally equal atoms get the same id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AtomId(u32);

impl AtomId {
    /// The global index of the atom.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The process-global atom registry: structural atom ↔ global id, both ways
/// (the reverse direction lets an arena *adopt* an atom it has only ever
/// seen as a sibling's id — see [`Arena::adopt`]).
#[derive(Debug, Default)]
struct GlobalRegistry {
    ids: HashMap<Atom, u32>,
    atoms: Vec<Atom>,
}

static GLOBAL_ATOMS: OnceLock<Mutex<GlobalRegistry>> = OnceLock::new();

fn global_registry() -> &'static Mutex<GlobalRegistry> {
    GLOBAL_ATOMS.get_or_init(|| Mutex::new(GlobalRegistry::default()))
}

/// The structural atom registered under `id`, or `None` when no arena in
/// this process has issued the id. This is the reverse direction of
/// interning, used when lemmas leave the process: atom *ids* are
/// process-local (the registry numbers atoms in first-sight order), so a
/// persisted lemma must carry atom *content* and be re-interned on load.
pub fn global_atom(id: AtomId) -> Option<Atom> {
    let registry = global_registry()
        .lock()
        .expect("global atom registry poisoned");
    registry.atoms.get(id.index()).cloned()
}

/// The global id of `atom`, registering it on first sight (by any arena).
fn global_atom_id(atom: &Atom) -> AtomId {
    let mut registry = global_registry()
        .lock()
        .expect("global atom registry poisoned");
    let next = registry.atoms.len() as u32;
    match registry.ids.entry(atom.clone()) {
        std::collections::hash_map::Entry::Occupied(entry) => AtomId(*entry.get()),
        std::collections::hash_map::Entry::Vacant(entry) => {
            entry.insert(next);
            registry.atoms.push(atom.clone());
            AtomId(next)
        }
    }
}

/// One interned term node: children are ids, so structural equality of
/// arbitrarily deep trees is a fixed-size comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TermNode {
    Int(i64),
    Var(Var),
    Add(TermId, TermId),
    Sub(TermId, TermId),
    Mul(TermId, TermId),
    Neg(TermId),
}

/// One interned atom: two term ids and a comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AtomNode {
    lhs: TermId,
    op: CmpOp,
    rhs: TermId,
}

/// This arena's cached knowledge about one (globally-identified) atom.
#[derive(Debug)]
struct AtomData {
    node: AtomNode,
    /// The materialized atom, for handing `&Atom` to the theory.
    atom: Atom,
    /// Sorted distinct free variables.
    vars: Vec<Var>,
    /// Cached complement (`¬a`), filled lazily.
    negation: Option<AtomId>,
    /// The atom's theory readings, each filled by the first dispatch that
    /// needs it.
    readings: AtomReadings,
}

/// The hash-consing arena.
#[derive(Debug, Default)]
pub struct Arena {
    term_ids: HashMap<TermNode, TermId>,
    /// Sorted distinct free variables per term id.
    term_vars: Vec<Vec<Var>>,
    /// Local fast path: structural node → global id, no registry lock.
    atom_ids: HashMap<AtomNode, AtomId>,
    /// Per-atom caches, keyed by the global id.
    atom_data: HashMap<AtomId, AtomData>,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Number of distinct atoms *this arena* has interned so far (other
    /// arenas' registrations in the global table are not counted).
    pub fn atom_count(&self) -> usize {
        self.atom_data.len()
    }

    /// Number of distinct terms interned so far.
    pub fn term_count(&self) -> usize {
        self.term_vars.len()
    }

    /// True when this arena has local knowledge of the atom behind `id`
    /// (its tree, variable set and negation caches). An id minted by a
    /// sibling arena is unknown here until this arena interns the same atom.
    pub fn has_atom(&self, id: AtomId) -> bool {
        self.atom_data.contains_key(&id)
    }

    /// Interns the atom behind a global id this arena has never seen
    /// locally — the entry point for consuming another worker's atom ids
    /// (e.g. an imported theory lemma). Returns `false` only when the id
    /// was never minted by any arena in this process.
    pub fn adopt(&mut self, id: AtomId) -> bool {
        if self.atom_data.contains_key(&id) {
            return true;
        }
        let atom = {
            let registry = global_registry()
                .lock()
                .expect("global atom registry poisoned");
            registry.atoms.get(id.index()).cloned()
        };
        match atom {
            Some(atom) => {
                let adopted = self.intern_atom(&atom);
                debug_assert_eq!(adopted, id, "global ids are stable");
                true
            }
            None => false,
        }
    }

    fn intern_node(&mut self, node: TermNode) -> TermId {
        if let Some(&id) = self.term_ids.get(&node) {
            return id;
        }
        let vars = match node {
            TermNode::Int(_) => Vec::new(),
            TermNode::Var(v) => vec![v],
            TermNode::Add(a, b) | TermNode::Sub(a, b) | TermNode::Mul(a, b) => {
                let mut vars = self.term_vars[a.index()].clone();
                merge_sorted(&mut vars, &self.term_vars[b.index()]);
                vars
            }
            TermNode::Neg(a) => self.term_vars[a.index()].clone(),
        };
        let id = TermId(self.term_vars.len() as u32);
        self.term_vars.push(vars);
        self.term_ids.insert(node, id);
        id
    }

    /// Interns a term, returning its id. Structurally equal terms (and all
    /// their shared subterms) map to the same id.
    pub fn intern_term(&mut self, term: &Term) -> TermId {
        let node = match term {
            Term::Int(n) => TermNode::Int(*n),
            Term::Var(v) => TermNode::Var(*v),
            Term::Add(a, b) => TermNode::Add(self.intern_term(a), self.intern_term(b)),
            Term::Sub(a, b) => TermNode::Sub(self.intern_term(a), self.intern_term(b)),
            Term::Mul(a, b) => TermNode::Mul(self.intern_term(a), self.intern_term(b)),
            Term::Neg(a) => TermNode::Neg(self.intern_term(a)),
        };
        self.intern_node(node)
    }

    /// Interns an atom, returning its (process-global) id. The first local
    /// interning materializes the atom's variable set and consults the
    /// global registry; later occurrences are a hash lookup over two term
    /// ids and an operator.
    pub fn intern_atom(&mut self, atom: &Atom) -> AtomId {
        let node = AtomNode {
            lhs: self.intern_term(&atom.lhs),
            op: atom.op,
            rhs: self.intern_term(&atom.rhs),
        };
        if let Some(&id) = self.atom_ids.get(&node) {
            return id;
        }
        let mut vars = self.term_vars[node.lhs.index()].clone();
        merge_sorted(&mut vars, &self.term_vars[node.rhs.index()]);
        let id = global_atom_id(atom);
        self.atom_ids.insert(node, id);
        self.atom_data.insert(
            id,
            AtomData {
                node,
                atom: atom.clone(),
                vars,
                negation: None,
                readings: AtomReadings::default(),
            },
        );
        id
    }

    /// The interned atom behind an id.
    ///
    /// # Panics
    ///
    /// Panics when this arena has never interned the atom (see
    /// [`Arena::has_atom`]).
    pub fn atom(&self, id: AtomId) -> &Atom {
        &self.data(id).atom
    }

    /// The interned atom together with its cached theory readings, as the
    /// theory dispatcher takes it.
    ///
    /// # Panics
    ///
    /// Panics when this arena has never interned the atom.
    pub(crate) fn atom_ref(&self, id: AtomId) -> AtomRef<'_> {
        let data = self.data(id);
        AtomRef {
            atom: &data.atom,
            readings: &data.readings,
        }
    }

    /// The sorted distinct free variables of an atom.
    pub fn atom_free_vars(&self, id: AtomId) -> &[Var] {
        &self.data(id).vars
    }

    fn data(&self, id: AtomId) -> &AtomData {
        self.atom_data
            .get(&id)
            .expect("atom id not interned by this arena")
    }

    /// The id of the complementary atom (`negate(a ≤ b) = a > b`), interned
    /// on first request and cached both ways.
    pub fn negate(&mut self, id: AtomId) -> AtomId {
        let data = self.data(id);
        if let Some(neg) = data.negation {
            return neg;
        }
        let node = data.node;
        let negated_node = AtomNode {
            lhs: node.lhs,
            op: node.op.negate(),
            rhs: node.rhs,
        };
        let neg = match self.atom_ids.get(&negated_node) {
            Some(&existing) => existing,
            None => {
                let atom = data.atom.negate();
                let vars = data.vars.clone();
                let neg = global_atom_id(&atom);
                self.atom_ids.insert(negated_node, neg);
                self.atom_data.insert(
                    neg,
                    AtomData {
                        node: negated_node,
                        atom,
                        vars,
                        negation: Some(id),
                        readings: AtomReadings::default(),
                    },
                );
                neg
            }
        };
        self.atom_data.get_mut(&id).expect("present").negation = Some(neg);
        self.atom_data.get_mut(&neg).expect("present").negation = Some(id);
        neg
    }
}

/// Merges the sorted distinct `extra` variables into the sorted distinct
/// `vars`, keeping the result sorted and distinct.
fn merge_sorted(vars: &mut Vec<Var>, extra: &[Var]) {
    if extra.is_empty() {
        return;
    }
    if vars.is_empty() {
        vars.extend_from_slice(extra);
        return;
    }
    let mut merged = Vec::with_capacity(vars.len() + extra.len());
    let (mut i, mut j) = (0, 0);
    while i < vars.len() && j < extra.len() {
        match vars[i].cmp(&extra[j]) {
            std::cmp::Ordering::Less => {
                merged.push(vars[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(extra[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(vars[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&vars[i..]);
    merged.extend_from_slice(&extra[j..]);
    *vars = merged;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(i: u32) -> Term {
        Term::var(Var::new(i))
    }

    #[test]
    fn equal_terms_share_an_id() {
        let mut arena = Arena::new();
        let t1 = Term::add(x(0), Term::int(1));
        let t2 = Term::add(x(0), Term::int(1));
        assert_eq!(arena.intern_term(&t1), arena.intern_term(&t2));
        // x0, 1, x0 + 1: three distinct nodes in total.
        assert_eq!(arena.term_count(), 3);
    }

    #[test]
    fn subterms_are_shared() {
        let mut arena = Arena::new();
        let shared = Term::add(x(0), x(1));
        arena.intern_term(&Term::mul(shared.clone(), Term::int(2)));
        let before = arena.term_count();
        // Re-interning a tree whose every node is known adds nothing.
        arena.intern_term(&Term::sub(shared, x(0)));
        assert_eq!(arena.term_count(), before + 1, "only the Sub node is new");
    }

    #[test]
    fn atoms_intern_once_with_cached_vars() {
        let mut arena = Arena::new();
        let atom = Atom::new(Term::add(x(2), x(0)), CmpOp::Le, Term::int(5));
        let id = arena.intern_atom(&atom);
        assert_eq!(arena.intern_atom(&atom.clone()), id);
        assert_eq!(arena.atom_count(), 1);
        assert_eq!(arena.atom_free_vars(id), &[Var::new(0), Var::new(2)]);
        assert_eq!(arena.atom(id), &atom);
        assert!(arena.has_atom(id));
    }

    #[test]
    fn negation_round_trips_and_is_cached() {
        let mut arena = Arena::new();
        let atom = Atom::new(x(0).clone(), CmpOp::Lt, Term::int(3));
        let id = arena.intern_atom(&atom);
        let neg = arena.negate(id);
        assert_ne!(id, neg);
        assert_eq!(arena.atom(neg).op, CmpOp::Ge);
        assert_eq!(arena.negate(neg), id, "negation is an involution");
        // Interning the negated atom from scratch finds the cached id.
        assert_eq!(arena.intern_atom(&atom.negate()), neg);
        assert_eq!(arena.atom_count(), 2);
    }

    #[test]
    fn distinct_atoms_get_distinct_ids() {
        let mut arena = Arena::new();
        let a = arena.intern_atom(&Atom::new(x(0), CmpOp::Eq, Term::int(1)));
        let b = arena.intern_atom(&Atom::new(x(0), CmpOp::Eq, Term::int(2)));
        let c = arena.intern_atom(&Atom::new(x(1), CmpOp::Eq, Term::int(1)));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn atom_ids_are_stable_across_arenas_and_threads() {
        let atom = Atom::new(Term::add(x(40), x(41)), CmpOp::Ge, Term::int(-17));
        let mut here = Arena::new();
        let local = here.intern_atom(&atom);
        let sibling = {
            let atom = atom.clone();
            std::thread::spawn(move || {
                let mut there = Arena::new();
                there.intern_atom(&atom)
            })
            .join()
            .expect("sibling arena thread")
        };
        assert_eq!(local, sibling, "global interning gives stable ids");
        // A fresh arena has no local knowledge of a globally-known atom
        // until it interns the atom itself.
        let fresh = Arena::new();
        assert!(!fresh.has_atom(local));
    }

    #[test]
    fn adopt_materializes_a_siblings_atom() {
        let atom = Atom::new(Term::mul(x(50), x(51)), CmpOp::Lt, Term::int(99));
        let id = {
            // The minting arena is dropped; only the global id survives.
            let mut minter = Arena::new();
            minter.intern_atom(&atom)
        };
        let mut arena = Arena::new();
        assert!(!arena.has_atom(id));
        assert!(arena.adopt(id), "the registry remembers the atom");
        assert!(arena.has_atom(id));
        assert_eq!(arena.atom(id), &atom);
        assert_eq!(
            arena.atom_free_vars(id),
            &[Var::new(50), Var::new(51)],
            "adoption computes the variable set like a local intern"
        );
        assert!(!arena.adopt(AtomId(u32::MAX)), "an unminted id is refused");
    }
}
