//! The symbolic heap for CPCF: locations, storeable values, refinements on
//! opaque values, and first-class contract values.
//!
//! Compared to the typed core (the `spcf` crate), values are dynamically
//! tagged: an opaque value accumulates *tag refinements* (`pair?`,
//! `procedure?`, `integer?`, …) alongside numeric refinements, and is
//! structurally refined in place when a tag test determines its shape (an
//! opaque value known to be a pair becomes a pair of fresh opaque values, as
//! §4.2 of the paper describes for user-defined data structures).
//!
//! ## Snapshot representation
//!
//! The symbolic evaluator returns *all* outcomes, each paired with its own
//! heap, so every state split (`truthiness`, tag predicates, contract
//! branches, havoc) snapshots the entire heap via [`Heap::clone`]. The heap
//! is therefore built for **O(1) snapshots with structural sharing** rather
//! than for deep copies:
//!
//! * the location store, the opaque-label table and the memo-reference set
//!   are persistent copy-on-write maps ([`crate::pmap::PMap`]) — a snapshot
//!   copies one pointer per map, and a later write copies only the tree path
//!   still shared with other snapshots;
//! * the constraint journal is an **`Arc`-shared chain of immutable
//!   chunks**: a snapshot captures `(chain, len)` and keeps appending on
//!   either side cheap — an append copies at most the unsealed tail chunk
//!   (and only when that tail is still shared), never the O(path-length)
//!   prefix the old `Vec` journal cloned at every branch split.
//!
//! The journal's *content* — event order and fingerprint chain — is that of
//! a plain `Vec` of entries (a property fuzzed against exactly that oracle
//! in this module's tests), so incremental prover sessions and the
//! fingerprint-keyed verdict caches are unaffected consumers. Sharing is
//! observable through the thread-local counters in
//! [`crate::prove::thread_totals`]: snapshots taken, map nodes copied by
//! shared-path writes, and journal bytes shared instead of copied.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use folic::CmpOp;

use crate::pmap::PMap;

use crate::numeric::Number;
use crate::syntax::{Expr, Label};

/// A heap location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc(u32);

impl Loc {
    /// Creates a location from an index.
    pub fn new(index: u32) -> Self {
        Loc(index)
    }

    /// The index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// The solver variable standing for this location's numeric value.
    pub fn solver_var(self) -> folic::Var {
        folic::Var::new(self.0)
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Environments map names to locations; shared so closures are cheap.
pub type Env = Rc<HashMap<String, Loc>>;

/// Creates an empty environment.
pub fn empty_env() -> Env {
    Rc::new(HashMap::new())
}

/// Extends an environment with new bindings.
pub fn extend_env(env: &Env, bindings: impl IntoIterator<Item = (String, Loc)>) -> Env {
    let mut map = (**env).clone();
    map.extend(bindings);
    Rc::new(map)
}

/// Dynamic type tags used by refinements.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Tag {
    /// Any number (including complex).
    Number,
    /// A real number.
    Real,
    /// An exact integer.
    Integer,
    /// A procedure.
    Procedure,
    /// A pair.
    Pair,
    /// The empty list.
    Null,
    /// A boolean.
    Boolean,
    /// A string.
    StringT,
    /// A mutable box.
    BoxT,
    /// An instance of the named struct.
    Struct(String),
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tag::Number => write!(f, "number?"),
            Tag::Real => write!(f, "real?"),
            Tag::Integer => write!(f, "integer?"),
            Tag::Procedure => write!(f, "procedure?"),
            Tag::Pair => write!(f, "pair?"),
            Tag::Null => write!(f, "null?"),
            Tag::Boolean => write!(f, "boolean?"),
            Tag::StringT => write!(f, "string?"),
            Tag::BoxT => write!(f, "box?"),
            Tag::Struct(name) => write!(f, "{name}?"),
        }
    }
}

/// Symbolic integer expressions over locations (right-hand sides of numeric
/// refinements).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CSymExpr {
    /// A location's numeric value.
    Loc(Loc),
    /// A constant.
    Const(i64),
    /// Addition.
    Add(Box<CSymExpr>, Box<CSymExpr>),
    /// Subtraction.
    Sub(Box<CSymExpr>, Box<CSymExpr>),
    /// Multiplication.
    Mul(Box<CSymExpr>, Box<CSymExpr>),
    /// Truncated division.
    Div(Box<CSymExpr>, Box<CSymExpr>),
    /// Remainder.
    Mod(Box<CSymExpr>, Box<CSymExpr>),
}

impl CSymExpr {
    /// A location operand.
    pub fn loc(l: Loc) -> Self {
        CSymExpr::Loc(l)
    }

    /// A constant operand.
    pub fn int(n: i64) -> Self {
        CSymExpr::Const(n)
    }
}

impl fmt::Display for CSymExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CSymExpr::Loc(l) => write!(f, "{l}"),
            CSymExpr::Const(n) => write!(f, "{n}"),
            CSymExpr::Add(a, b) => write!(f, "(+ {a} {b})"),
            CSymExpr::Sub(a, b) => write!(f, "(- {a} {b})"),
            CSymExpr::Mul(a, b) => write!(f, "(* {a} {b})"),
            CSymExpr::Div(a, b) => write!(f, "(/ {a} {b})"),
            CSymExpr::Mod(a, b) => write!(f, "(modulo {a} {b})"),
        }
    }
}

/// A refinement on an opaque value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CRefinement {
    /// The value has this tag.
    Is(Tag),
    /// The value does not have this tag.
    IsNot(Tag),
    /// The value is a number standing in `op` relation to the expression.
    NumCmp(CmpOp, CSymExpr),
    /// The value is the boolean `false` (used for falsity branches).
    IsFalse,
    /// The value is a true value (anything but `#f`).
    IsTruthy,
}

impl fmt::Display for CRefinement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CRefinement::Is(tag) => write!(f, "{tag}"),
            CRefinement::IsNot(tag) => write!(f, "(not {tag})"),
            CRefinement::NumCmp(op, rhs) => write!(f, "(λx. ({op} x {rhs}))"),
            CRefinement::IsFalse => write!(f, "false?"),
            CRefinement::IsTruthy => write!(f, "truthy?"),
        }
    }
}

/// A first-class contract value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractVal {
    /// A flat contract: the location of a predicate.
    Flat(Loc),
    /// A function contract with domain and range contract locations.
    Func {
        /// Domain contracts.
        doms: Vec<Loc>,
        /// Range contract.
        rng: Loc,
    },
    /// Conjunction of contracts.
    And(Vec<Loc>),
    /// Disjunction of contracts.
    Or(Vec<Loc>),
    /// Contract on pairs.
    Cons(Loc, Loc),
    /// Contract on proper lists.
    ListOf(Loc),
    /// Membership in a fixed set of values.
    OneOf(Vec<Loc>),
    /// The trivial contract.
    Any,
}

/// A storeable value.
#[derive(Debug, Clone, PartialEq)]
pub enum SVal {
    /// A number.
    Num(Number),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// The empty list.
    Nil,
    /// A pair of locations.
    Pair(Loc, Loc),
    /// A closure, remembering the module that owns its code (for blame).
    Closure {
        /// Parameter names.
        params: Vec<String>,
        /// Body expression.
        body: Expr,
        /// Captured environment.
        env: Env,
        /// Owning party (module name or "context").
        owner: String,
    },
    /// A struct instance.
    StructVal {
        /// Struct tag.
        tag: String,
        /// Field locations.
        fields: Vec<Loc>,
    },
    /// A mutable box.
    BoxVal(Loc),
    /// A contract value.
    Contract(ContractVal),
    /// A function wrapped in a function contract (a "guarded" value).
    Guarded {
        /// Domain contract locations.
        doms: Vec<Loc>,
        /// Range contract location.
        rng: Loc,
        /// The wrapped function.
        inner: Loc,
        /// Positive blame party (the function's provider).
        pos: String,
        /// Negative blame party (the function's client).
        neg: String,
        /// Monitor label.
        label: Label,
    },
    /// An opaque value with accumulated refinements and (when used as a
    /// function on simple arguments) a memo table of applications.
    Opaque {
        /// Refinements learned along the current path.
        refinements: Vec<CRefinement>,
        /// Memoised `(argument, result)` pairs (the `case` map).
        entries: Vec<(Loc, Loc)>,
    },
}

impl SVal {
    /// A fresh, completely unknown opaque value.
    pub fn opaque() -> SVal {
        SVal::Opaque {
            refinements: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// True if this is an opaque value.
    pub fn is_opaque(&self) -> bool {
        matches!(self, SVal::Opaque { .. })
    }

    /// The number stored, if any.
    pub fn as_num(&self) -> Option<Number> {
        match self {
            SVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact integer stored, if any.
    pub fn as_int(&self) -> Option<i64> {
        self.as_num().and_then(Number::as_int)
    }
}

impl fmt::Display for SVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SVal::Num(n) => write!(f, "{n}"),
            SVal::Bool(b) => write!(f, "{}", if *b { "#t" } else { "#f" }),
            SVal::Str(s) => write!(f, "{s:?}"),
            SVal::Nil => write!(f, "'()"),
            SVal::Pair(a, b) => write!(f, "(cons {a} {b})"),
            SVal::Closure { params, owner, .. } => {
                write!(f, "#<procedure:{}({})>", owner, params.join(" "))
            }
            SVal::StructVal { tag, fields } => {
                write!(f, "({tag}")?;
                for field in fields {
                    write!(f, " {field}")?;
                }
                write!(f, ")")
            }
            SVal::BoxVal(l) => write!(f, "(box {l})"),
            SVal::Contract(_) => write!(f, "#<contract>"),
            SVal::Guarded { inner, .. } => write!(f, "#<guarded {inner}>"),
            SVal::Opaque { refinements, .. } => {
                write!(f, "•")?;
                for r in refinements {
                    write!(f, ", {r}")?;
                }
                Ok(())
            }
        }
    }
}

/// One event in the heap's constraint journal.
///
/// The journal records, in order, every mutation that can affect the heap's
/// first-order encoding. A branch-cloned heap shares its parent's journal
/// prefix, so an incremental prover session can tell exactly which suffix of
/// events it has not yet asserted — heaps are append-mostly along a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalEvent {
    /// The location was freshly allocated, or overwritten by a value whose
    /// predecessor contributed no formulas; its encoding must be (re)emitted
    /// wholesale.
    Touched(Loc),
    /// `refinements[index]` was appended to the opaque value at the location
    /// (only `NumCmp` refinements contribute formulas, but every appended
    /// refinement advances the fingerprint used as a cache key).
    Refined(Loc, usize),
    /// `entries[index]` was appended to the memo table at the location; the
    /// new entry pairs with every earlier one in the functionality encoding.
    EntryAdded(Loc, usize),
    /// A non-monotone overwrite: formulas previously encoded from this
    /// location may no longer hold, so an incremental consumer that already
    /// asserted some of them must re-encode the whole heap.
    Rebase(Loc),
}

/// A journal event together with the heap fingerprint *after* the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEntry {
    /// What happened.
    pub event: JournalEvent,
    /// The fingerprint chain value after applying the event.
    pub fingerprint: u64,
}

/// Entries per sealed journal chunk. Small enough that the worst-case
/// append (copying a shared, nearly-full tail chunk) stays cheap; large
/// enough that the chain walk per journal access is short.
const JOURNAL_CHUNK: usize = 64;

/// One immutable chunk of the journal chain. `prev` chunks are always
/// sealed (exactly [`JOURNAL_CHUNK`] entries, `base` a multiple of it); the
/// tail chunk grows in place while it is uniquely owned and is copied —
/// alone — when a snapshot still shares it.
#[derive(Debug, Clone)]
struct JournalChunk {
    prev: Option<Arc<JournalChunk>>,
    /// Journal position of `entries[0]`.
    base: usize,
    entries: Vec<JournalEntry>,
}

/// The persistent journal: an `Arc`-shared chunk chain plus a length. A
/// snapshot clones the tail pointer and the length — O(1) regardless of how
/// long the path is — and appends after a snapshot copy at most one chunk.
///
/// Invariant: `len == tail.base + tail.entries.len()` (0 for the empty
/// journal). Appends to a shared tail copy it first, so no holder ever
/// observes entries beyond its own `len`.
#[derive(Debug, Clone, Default)]
struct PJournal {
    tail: Option<Arc<JournalChunk>>,
    len: usize,
}

impl PJournal {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, entry: JournalEntry) {
        match &mut self.tail {
            None => {
                self.tail = Some(Arc::new(JournalChunk {
                    prev: None,
                    base: 0,
                    entries: vec![entry],
                }));
            }
            Some(arc) => {
                let filled = self.len - arc.base;
                debug_assert_eq!(filled, arc.entries.len());
                if filled == JOURNAL_CHUNK {
                    // Seal the full tail and chain a fresh chunk onto it.
                    let prev = self.tail.take();
                    self.tail = Some(Arc::new(JournalChunk {
                        prev,
                        base: self.len,
                        entries: vec![entry],
                    }));
                } else if let Some(chunk) = Arc::get_mut(arc) {
                    chunk.entries.push(entry);
                } else {
                    // The tail is still shared with a snapshot: copy this
                    // one chunk (bounded by JOURNAL_CHUNK) and append to the
                    // copy; the sealed prefix stays shared.
                    let mut entries = Vec::with_capacity((filled + 1).max(8));
                    entries.extend_from_slice(&arc.entries[..filled]);
                    entries.push(entry);
                    self.tail = Some(Arc::new(JournalChunk {
                        prev: arc.prev.clone(),
                        base: arc.base,
                        entries,
                    }));
                }
            }
        }
        self.len += 1;
    }

    /// The entry at `position`.
    ///
    /// # Panics
    ///
    /// Panics when `position >= len`.
    fn entry(&self, position: usize) -> JournalEntry {
        assert!(
            position < self.len,
            "journal position {position} out of bounds (len {})",
            self.len
        );
        let mut chunk = self.tail.as_deref().expect("non-empty journal");
        while position < chunk.base {
            chunk = chunk
                .prev
                .as_deref()
                .expect("chunk chain covers every journal position");
        }
        chunk.entries[position - chunk.base]
    }

    /// The fingerprint after the first `len` entries (0 for none).
    fn fingerprint_at(&self, len: usize) -> u64 {
        if len == 0 {
            0
        } else {
            self.entry(len - 1).fingerprint
        }
    }

    /// Iterates entries from position `from` (inclusive) to the end, in
    /// order. `from` values at or beyond the length yield nothing.
    fn iter_from(&self, from: usize) -> impl Iterator<Item = JournalEntry> + '_ {
        let mut chunks: Vec<&JournalChunk> = Vec::new();
        let mut link = self.tail.as_deref();
        while let Some(chunk) = link {
            chunks.push(chunk);
            if chunk.base <= from {
                break;
            }
            link = chunk.prev.as_deref();
        }
        chunks.reverse();
        chunks.into_iter().flat_map(move |chunk| {
            let skip = from.saturating_sub(chunk.base);
            chunk.entries[skip.min(chunk.entries.len())..]
                .iter()
                .copied()
        })
    }
}

impl PartialEq for PJournal {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        match (&self.tail, &other.tail) {
            (None, None) => true,
            // Snapshots sharing their tail chunk are equal without a walk.
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.iter_from(0).eq(other.iter_from(0)),
        }
    }
}

/// The symbolic heap.
///
/// `Clone` is an O(1) *snapshot*: every component is either `Copy` or a
/// persistent structure sharing its nodes with the clone (see the module
/// docs). The evaluator clones heaps at every state split, so this is the
/// hottest path in the whole analysis.
#[derive(Debug, PartialEq, Default)]
pub struct Heap {
    entries: PMap<Loc, SVal>,
    opaque_locs: PMap<Label, Loc>,
    next: u32,
    journal: PJournal,
    fingerprint: u64,
    /// Locations referenced (as argument or result) by some memo-table
    /// entry. The functionality encoding emits implications over these
    /// locations' solver variables, justified by their base-ness at encoding
    /// time — so overwriting one with a non-base value invalidates formulas
    /// held *elsewhere* and must rebase incremental consumers. Grows
    /// monotonically (a conservative over-approximation).
    memo_refs: PMap<Loc, ()>,
}

impl Clone for Heap {
    /// Takes an O(1) snapshot: pointer copies into every persistent
    /// component, no journal or entry copying. Also feeds the thread-local
    /// sharing counters ([`crate::prove::thread_totals`]) so harnesses can
    /// report how many snapshots were taken and how many journal bytes the
    /// sharing avoided copying.
    fn clone(&self) -> Self {
        crate::pmap::note_snapshot(
            (self.journal.len() * std::mem::size_of::<JournalEntry>()) as u64,
        );
        Heap {
            entries: self.entries.clone(),
            opaque_locs: self.opaque_locs.clone(),
            next: self.next,
            journal: self.journal.clone(),
            fingerprint: self.fingerprint,
            memo_refs: self.memo_refs.clone(),
        }
    }
}

/// A cheap, deterministic summary of a storeable value, mixed into the
/// fingerprint chain so that sibling branches that mutate the same location
/// differently end up with different fingerprints.
fn content_hash(value: &SVal) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    std::mem::discriminant(value).hash(&mut hasher);
    match value {
        SVal::Num(Number::Int(n)) => n.hash(&mut hasher),
        SVal::Num(Number::Complex(re, im)) => (re, im).hash(&mut hasher),
        SVal::Bool(b) => b.hash(&mut hasher),
        SVal::Str(s) => s.hash(&mut hasher),
        SVal::Nil => {}
        SVal::Pair(a, b) => (a, b).hash(&mut hasher),
        SVal::Closure { params, owner, .. } => (params, owner).hash(&mut hasher),
        SVal::StructVal { tag, fields } => (tag, fields).hash(&mut hasher),
        SVal::BoxVal(inner) => inner.hash(&mut hasher),
        SVal::Contract(_) => {}
        SVal::Guarded {
            inner, pos, neg, ..
        } => (inner, pos, neg).hash(&mut hasher),
        SVal::Opaque {
            refinements,
            entries,
        } => (refinements, entries).hash(&mut hasher),
    }
    hasher.finish()
}

/// True if the value contributes formulas to the heap's first-order
/// encoding, so overwriting it is a non-monotone change.
fn encodes_formulas(value: &SVal) -> bool {
    match value {
        SVal::Num(Number::Int(_)) => true,
        SVal::Opaque {
            refinements,
            entries,
        } => {
            entries.len() >= 2
                || refinements
                    .iter()
                    .any(|r| matches!(r, CRefinement::NumCmp(_, _)))
        }
        _ => false,
    }
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap::default()
    }

    /// Number of allocated locations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates a fresh location.
    pub fn alloc(&mut self, value: SVal) -> Loc {
        let loc = Loc::new(self.next);
        self.next += 1;
        let hash = content_hash(&value);
        self.note_memo_refs(&value);
        self.entries.insert(loc, value);
        self.record(JournalEvent::Touched(loc), hash);
        loc
    }

    /// Records the locations referenced by a value's memo entries.
    fn note_memo_refs(&mut self, value: &SVal) {
        if let SVal::Opaque { entries, .. } = value {
            for &(arg, res) in entries {
                self.memo_refs.insert(arg, ());
                self.memo_refs.insert(res, ());
            }
        }
    }

    /// Allocates (or reuses) the location for an opaque source label.
    pub fn alloc_opaque(&mut self, label: Label) -> Loc {
        if let Some(&loc) = self.opaque_locs.get(&label) {
            return loc;
        }
        let loc = self.alloc(SVal::opaque());
        self.opaque_locs.insert(label, loc);
        loc
    }

    /// Allocates a fresh anonymous opaque value.
    pub fn alloc_fresh_opaque(&mut self) -> Loc {
        self.alloc(SVal::opaque())
    }

    /// The location of an opaque source label, if it was reached.
    pub fn opaque_loc(&self, label: Label) -> Option<Loc> {
        self.opaque_locs.get(&label).copied()
    }

    /// Looks up a location.
    ///
    /// # Panics
    ///
    /// Panics on a dangling location (an engine bug, not a user error).
    pub fn get(&self, loc: Loc) -> &SVal {
        self.entries
            .get(&loc)
            .unwrap_or_else(|| panic!("dangling location {loc}"))
    }

    /// Looks up a location without panicking.
    pub fn try_get(&self, loc: Loc) -> Option<&SVal> {
        self.entries.get(&loc)
    }

    /// Replaces the value at a location, journalling the change.
    ///
    /// An opaque value growing into a superset opaque value (appended
    /// refinements or memo entries) is recorded as the individual monotone
    /// additions; overwriting a value that already contributed formulas is a
    /// [`JournalEvent::Rebase`], telling incremental consumers their solver
    /// state is stale.
    pub fn set(&mut self, loc: Loc, value: SVal) {
        enum Change {
            Monotone(Vec<JournalEvent>),
            Touched,
            Rebase,
        }
        let change = match (self.entries.get(&loc), &value) {
            (
                Some(SVal::Opaque {
                    refinements: old_r,
                    entries: old_e,
                }),
                SVal::Opaque {
                    refinements: new_r,
                    entries: new_e,
                },
            ) if new_r.len() >= old_r.len()
                && new_r[..old_r.len()] == old_r[..]
                && new_e.len() >= old_e.len()
                && new_e[..old_e.len()] == old_e[..] =>
            {
                let mut events = Vec::new();
                for index in old_r.len()..new_r.len() {
                    events.push(JournalEvent::Refined(loc, index));
                }
                for index in old_e.len()..new_e.len() {
                    events.push(JournalEvent::EntryAdded(loc, index));
                }
                Change::Monotone(events)
            }
            (Some(old), _) if encodes_formulas(old) => Change::Rebase,
            // The location's solver variable appears in a functionality
            // implication of some memo table, justified by this location
            // being base-valued; a non-base overwrite retracts that formula.
            (Some(_), new)
                if self.memo_refs.contains_key(&loc)
                    && !matches!(new, SVal::Num(_) | SVal::Opaque { .. }) =>
            {
                Change::Rebase
            }
            _ => Change::Touched,
        };
        let hash = content_hash(&value);
        self.note_memo_refs(&value);
        self.entries.insert(loc, value);
        match change {
            Change::Monotone(events) => {
                for event in events {
                    self.record(event, hash);
                }
            }
            Change::Touched => self.record(JournalEvent::Touched(loc), hash),
            Change::Rebase => self.record(JournalEvent::Rebase(loc), hash),
        }
    }

    /// Adds a refinement to the opaque value at `loc`.
    ///
    /// # Panics
    ///
    /// Panics if the location does not hold an opaque value.
    pub fn refine(&mut self, loc: Loc, refinement: CRefinement) {
        // Immutable probe first: a duplicate refinement is a documented
        // no-op and must not path-copy snapshot-shared map nodes the way a
        // `get_mut` walk would.
        match self.entries.get(&loc) {
            Some(SVal::Opaque { refinements, .. }) => {
                if refinements.contains(&refinement) {
                    return;
                }
            }
            other => panic!("refining non-opaque location {loc}: {other:?}"),
        }
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        refinement.hash(&mut hasher);
        let hash = hasher.finish();
        let index = match self.entries.get_mut(&loc) {
            Some(SVal::Opaque { refinements, .. }) => {
                refinements.push(refinement);
                refinements.len() - 1
            }
            _ => unreachable!("probed opaque above"),
        };
        self.record(JournalEvent::Refined(loc, index), hash);
    }

    /// Appends a journal event, advancing the fingerprint chain (FNV-1a
    /// style mixing of the event and a content summary).
    fn record(&mut self, event: JournalEvent, content: u64) {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.fingerprint.hash(&mut hasher);
        std::mem::discriminant(&event).hash(&mut hasher);
        match event {
            JournalEvent::Touched(loc) | JournalEvent::Rebase(loc) => loc.hash(&mut hasher),
            JournalEvent::Refined(loc, index) | JournalEvent::EntryAdded(loc, index) => {
                (loc, index).hash(&mut hasher)
            }
        }
        content.hash(&mut hasher);
        self.fingerprint = hasher.finish();
        self.journal.push(JournalEntry {
            event,
            fingerprint: self.fingerprint,
        });
    }

    /// Number of events in the constraint journal.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// The journal entry at `position` (0-based, oldest first).
    ///
    /// # Panics
    ///
    /// Panics when `position >= journal_len()`.
    pub fn journal_entry(&self, position: usize) -> JournalEntry {
        self.journal.entry(position)
    }

    /// Iterates the journal suffix starting at `from` (inclusive), oldest
    /// first. `from` values at or beyond the length yield nothing. This is
    /// the accessor incremental consumers use to read the delta between a
    /// synchronized prefix and the heap's current state; it walks the shared
    /// chunk chain without copying entries.
    pub fn journal_suffix(&self, from: usize) -> impl Iterator<Item = JournalEntry> + '_ {
        self.journal.iter_from(from)
    }

    /// The most recent journal event, if any (a test convenience).
    pub fn last_journal_event(&self) -> Option<JournalEvent> {
        self.journal
            .len()
            .checked_sub(1)
            .map(|last| self.journal.entry(last).event)
    }

    /// The fingerprint of the journal prefix of length `len`: 0 for the
    /// empty prefix (matching a fresh heap's fingerprint), otherwise the
    /// chain value after the prefix's last event.
    ///
    /// # Panics
    ///
    /// Panics when `len > journal_len()`.
    pub fn journal_fingerprint_at(&self, len: usize) -> u64 {
        self.journal.fingerprint_at(len)
    }

    /// The heap's generation: how many journalled mutations produced it.
    /// A branch-cloned heap's generation extends its parent's.
    pub fn generation(&self) -> u64 {
        self.journal.len() as u64
    }

    /// A fingerprint identifying this heap's mutation history. Two heaps
    /// with equal fingerprints have (up to 64-bit hash collisions) the same
    /// journal and therefore the same constraint content; sibling branches
    /// diverge immediately because their first differing mutation mixes
    /// different content into the chain.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The refinements on `loc` (empty when not opaque).
    pub fn refinements(&self, loc: Loc) -> &[CRefinement] {
        match self.try_get(loc) {
            Some(SVal::Opaque { refinements, .. }) => refinements,
            _ => &[],
        }
    }

    /// True if the opaque value at `loc` carries the given refinement.
    pub fn has_refinement(&self, loc: Loc, refinement: &CRefinement) -> bool {
        self.refinements(loc).contains(refinement)
    }

    /// The concrete number at `loc`, if it holds one.
    pub fn num_at(&self, loc: Loc) -> Option<Number> {
        self.try_get(loc).and_then(SVal::as_num)
    }

    /// The concrete integer at `loc`, if it holds one.
    pub fn int_at(&self, loc: Loc) -> Option<i64> {
        self.try_get(loc).and_then(SVal::as_int)
    }

    /// Iterates over allocated locations in order.
    pub fn iter(&self) -> impl Iterator<Item = (Loc, &SVal)> + '_ {
        self.entries.iter().map(|(l, v)| (*l, v))
    }

    /// Index of the next allocation (for fresh solver variables).
    pub fn next_index(&self) -> u32 {
        self.next
    }
}

impl fmt::Display for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[")?;
        for (loc, value) in self.iter() {
            writeln!(f, "  {loc} ↦ {value}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_lookup() {
        let mut heap = Heap::new();
        let a = heap.alloc(SVal::Num(Number::Int(1)));
        let b = heap.alloc(SVal::Bool(true));
        assert_eq!(heap.int_at(a), Some(1));
        assert_eq!(heap.get(b), &SVal::Bool(true));
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn opaque_reuse_per_label() {
        let mut heap = Heap::new();
        let a = heap.alloc_opaque(Label(1));
        let b = heap.alloc_opaque(Label(1));
        let c = heap.alloc_opaque(Label(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(heap.opaque_loc(Label(1)), Some(a));
    }

    #[test]
    fn refinements_deduplicate() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::Is(Tag::Integer));
        heap.refine(l, CRefinement::Is(Tag::Integer));
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
        assert_eq!(heap.refinements(l).len(), 2);
        assert!(heap.has_refinement(l, &CRefinement::Is(Tag::Integer)));
    }

    #[test]
    fn structural_refinement_replaces_opaque() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        let car = heap.alloc_fresh_opaque();
        let cdr = heap.alloc_fresh_opaque();
        heap.set(l, SVal::Pair(car, cdr));
        assert!(matches!(heap.get(l), SVal::Pair(_, _)));
    }

    #[test]
    fn environments_extend_without_mutating() {
        let base = empty_env();
        let extended = extend_env(&base, vec![("x".to_string(), Loc::new(0))]);
        assert!(base.get("x").is_none());
        assert_eq!(extended.get("x"), Some(&Loc::new(0)));
    }

    #[test]
    fn journal_records_monotone_growth() {
        let mut heap = Heap::new();
        assert_eq!(heap.generation(), 0);
        let l = heap.alloc_fresh_opaque();
        assert!(matches!(
            heap.last_journal_event().unwrap(),
            JournalEvent::Touched(_)
        ));
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
        assert_eq!(
            heap.last_journal_event().unwrap(),
            JournalEvent::Refined(l, 0)
        );
        // Duplicate refinements do not advance the journal.
        let generation = heap.generation();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(0)));
        assert_eq!(heap.generation(), generation);
    }

    #[test]
    fn branch_clones_extend_the_parent_journal() {
        let mut parent = Heap::new();
        let l = parent.alloc_fresh_opaque();
        let mut yes = parent.clone();
        yes.refine(l, CRefinement::Is(Tag::Integer));
        let mut no = parent.clone();
        no.refine(l, CRefinement::IsNot(Tag::Integer));
        // Both children extend the parent's journal prefix...
        let parent_len = parent.journal_len();
        assert!(yes
            .journal_suffix(0)
            .take(parent_len)
            .eq(parent.journal_suffix(0)));
        assert!(no
            .journal_suffix(0)
            .take(parent_len)
            .eq(parent.journal_suffix(0)));
        // ...but diverge in fingerprint at the first differing event.
        assert_ne!(yes.fingerprint(), no.fingerprint());
        assert_ne!(yes.fingerprint(), parent.fingerprint());
    }

    #[test]
    fn superset_opaque_overwrite_is_monotone() {
        let mut heap = Heap::new();
        let f = heap.alloc_fresh_opaque();
        let a = heap.alloc(SVal::Num(Number::Int(5)));
        let r = heap.alloc_fresh_opaque();
        // Appending a memo entry via `set` (as apply_opaque does) journals an
        // EntryAdded, not a rebase.
        if let SVal::Opaque {
            refinements,
            entries,
        } = heap.get(f).clone()
        {
            let mut entries = entries;
            entries.push((a, r));
            heap.set(
                f,
                SVal::Opaque {
                    refinements,
                    entries,
                },
            );
        }
        assert_eq!(
            heap.last_journal_event().unwrap(),
            JournalEvent::EntryAdded(f, 0)
        );
    }

    #[test]
    fn non_monotone_overwrite_is_a_rebase() {
        let mut heap = Heap::new();
        let l = heap.alloc_fresh_opaque();
        heap.refine(l, CRefinement::NumCmp(CmpOp::Ge, CSymExpr::int(5)));
        // Structural refinement throws the numeric constraint away: rebase.
        let car = heap.alloc_fresh_opaque();
        let cdr = heap.alloc_fresh_opaque();
        heap.set(l, SVal::Pair(car, cdr));
        assert_eq!(heap.last_journal_event().unwrap(), JournalEvent::Rebase(l));
        // Overwriting a location that never contributed formulas is not.
        let fresh = heap.alloc_fresh_opaque();
        heap.set(fresh, SVal::Bool(true));
        assert_eq!(
            heap.last_journal_event().unwrap(),
            JournalEvent::Touched(fresh)
        );
    }

    #[test]
    fn overwriting_a_memo_referenced_location_is_a_rebase() {
        let mut heap = Heap::new();
        let f = heap.alloc_fresh_opaque();
        let a = heap.alloc_fresh_opaque();
        let r = heap.alloc_fresh_opaque();
        if let SVal::Opaque { refinements, .. } = heap.get(f).clone() {
            heap.set(
                f,
                SVal::Opaque {
                    refinements,
                    entries: vec![(a, r)],
                },
            );
        }
        assert_eq!(
            heap.last_journal_event().unwrap(),
            JournalEvent::EntryAdded(f, 0)
        );
        // `a` contributes no formula of its own, but the functionality
        // encoding relies on it being base-valued.
        heap.set(a, SVal::Bool(true));
        assert_eq!(heap.last_journal_event().unwrap(), JournalEvent::Rebase(a));
        // A base-valued overwrite keeps the functionality formulas valid.
        heap.set(r, SVal::Num(Number::Int(3)));
        assert_eq!(heap.last_journal_event().unwrap(), JournalEvent::Touched(r));
    }

    /// A random journal entry drawn from `next`.
    fn random_entry(next: &mut impl FnMut() -> usize) -> JournalEntry {
        let loc = Loc::new((next() % 16) as u32);
        let event = match next() % 4 {
            0 => JournalEvent::Touched(loc),
            1 => JournalEvent::Refined(loc, next() % 4),
            2 => JournalEvent::EntryAdded(loc, next() % 4),
            _ => JournalEvent::Rebase(loc),
        };
        let fingerprint = (next() as u64) << 31 | next() as u64;
        JournalEntry { event, fingerprint }
    }

    /// Checks `journal` against its `Vec` oracle; `probe` picks one more
    /// `iter_from` start and the `fingerprint_at` prefix.
    fn assert_journal_agrees(journal: &PJournal, oracle: &[JournalEntry], probe: usize) {
        assert_eq!(journal.len(), oracle.len());
        for (position, expected) in oracle.iter().enumerate() {
            assert_eq!(journal.entry(position), *expected, "entry {position}");
        }
        let len = oracle.len();
        let boundary = len - len % JOURNAL_CHUNK;
        let starts = [
            0,
            boundary.saturating_sub(1),
            boundary,
            probe % (len + 1),
            len,
            len + 1,
        ];
        for from in starts {
            let expected = oracle.get(from..).unwrap_or_default();
            assert!(
                journal.iter_from(from).eq(expected.iter().copied()),
                "iter_from {from}"
            );
        }
        let prefix = probe % (len + 1);
        let expected = prefix
            .checked_sub(1)
            .map_or(0, |last| oracle[last].fingerprint);
        assert_eq!(
            journal.fingerprint_at(prefix),
            expected,
            "fingerprint_at {prefix}"
        );
    }

    #[test]
    fn journal_matches_a_vec_oracle_across_forks() {
        // A deterministic LCG keeps the test self-contained.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut pool: Vec<(PJournal, Vec<JournalEntry>)> = vec![Default::default()];
        let mut shared_full_pushes = 0;
        for step in 0..3000 {
            let index = next() % pool.len();
            let filled = pool[index].1.len() % JOURNAL_CHUNK;
            let nearly_full = filled >= JOURNAL_CHUNK - 3;
            // Fork often near chunk boundaries, so pushes land on shared,
            // nearly full tails.
            if next() % 8 == 0 || (nearly_full && next() % 2 == 0) {
                let fork = pool[index].clone();
                if pool.len() < 8 {
                    pool.push(fork);
                } else {
                    let victim = next() % pool.len();
                    pool[victim] = fork;
                }
            } else {
                let entry = random_entry(&mut next);
                let (journal, oracle) = &mut pool[index];
                if nearly_full
                    && journal
                        .tail
                        .as_ref()
                        .is_some_and(|t| Arc::strong_count(t) > 1)
                {
                    shared_full_pushes += 1;
                }
                journal.push(entry);
                oracle.push(entry);
            }
            let (journal, oracle) = &pool[index];
            assert_journal_agrees(journal, oracle, next());
            // Equality agrees with the oracle's, whether the two journals
            // share chunks or were built apart.
            let (other, other_oracle) = &pool[next() % pool.len()];
            assert_eq!(journal == other, oracle == other_oracle, "step {step}");
            let mut rebuilt = PJournal::default();
            for &entry in oracle {
                rebuilt.push(entry);
            }
            assert!(rebuilt == *journal, "step {step}: rebuilt journal differs");
        }
        for (journal, oracle) in &pool {
            assert_journal_agrees(journal, oracle, next());
        }
        assert!(
            shared_full_pushes >= 20,
            "only {shared_full_pushes} pushes hit a shared, nearly full chunk"
        );
    }

    #[test]
    fn display_of_values_is_informative() {
        let mut heap = Heap::new();
        let l = heap.alloc(SVal::Num(Number::complex(0, 1)));
        assert_eq!(format!("{}", heap.get(l)), "0+1i");
        let o = heap.alloc_fresh_opaque();
        heap.refine(o, CRefinement::Is(Tag::Pair));
        assert!(format!("{}", heap.get(o)).contains("pair?"));
    }
}
