//! A disk-persistent, content-addressed store for verdicts and theory
//! lemmas: the warm-start tier beneath [`crate::SharedVerdictCache`] and
//! [`folic::SharedLemmaPool`].
//!
//! After the solver-side work of earlier milestones, the dominant remaining
//! cost of a corpus run is *redundant work across processes*: every run
//! re-proves verdicts the previous run already established, because the
//! in-memory caches die with the process. This module gives them a disk
//! home. The keys were content-addressed from the start — a verdict is
//! keyed by `(heap fingerprint, generation, query)`, where the fingerprint
//! chain-hashes the heap's constraint journal — so a verdict computed by
//! one process is valid in any other process that reaches a heap with the
//! same journal. Theory lemmas are even easier: they are universally valid
//! arithmetic facts (`¬(a₁ ∧ … ∧ aₙ)` for *every* assignment), so a stored
//! lemma can warm-start any later run's [`folic::SharedLemmaPool`],
//! including runs over different programs.
//!
//! ## On-disk format
//!
//! One append-only file per engine configuration,
//! `store-<fingerprint>.bin`, framed so corruption degrades to a cold miss
//! and never to a panic or a wrong verdict:
//!
//! ```text
//! header:  magic "CPCFSTOR" (8) · schema version u32 · engine fingerprint u64
//! record:  payload length u32 · crc32(payload) u32 · payload
//! payload: tag u8 (1 = verdict, 2 = lemma, 3 = export cone) · body
//! ```
//!
//! All integers are little-endian. On open, the header is validated first:
//! a magic/schema/fingerprint mismatch treats the whole file as cold and
//! rewrites it. Records are then read sequentially; the first framing or
//! CRC failure ends the load (everything before it is kept, the torn tail
//! is truncated so later appends stay readable). A concurrently-written or
//! garbage file therefore loads as whatever valid prefix it has — possibly
//! nothing — without affecting soundness: the store only ever *adds* cache
//! entries that were themselves computed by this same engine configuration.
//!
//! ## Identity across processes
//!
//! Three identities make persistence sound:
//!
//! * **Verdicts** are keyed by the serialized `(fingerprint, generation,
//!   query)` bytes. They live in an index rather than a map of boxed keys:
//!   every key's bytes sit back to back in one buffer, and an FNV-1a hash
//!   of the key leads to its entry (colliding keys chain). A lookup
//!   compares the full key bytes, so a stored verdict is returned only for
//!   a byte-identical key.
//! * **Lemmas** are serialized by atom *content* ([`folic::Atom`]
//!   structure), never by [`folic::AtomId`]: atom ids are process-local
//!   (the global registry numbers atoms in first-sight order), so ids are
//!   resolved through [`folic::global_atom`] on the way out and re-interned
//!   through a scratch [`folic::Arena`] on the way in. That interning
//!   happens once per store handle, at the first warm start: global atom
//!   ids are stable for the life of the process, so every later warm start
//!   only publishes the cached ids.
//! * **Engine configuration** is fingerprinted ([`EngineFingerprint`]) over
//!   every setting and budget that can change a verdict (the solver
//!   configuration, the `CPCF_LEMMA_SHARING` gate, eval budgets, context
//!   depth). The fingerprint names the store file *and* sits in the header,
//!   so runs under different configurations never read each other's
//!   verdicts — a mismatch is a cold start, unit-tested below.
//!
//! ## Incremental re-verification
//!
//! The third record kind persists whole per-export verdicts keyed by
//! `(module, export, dependency-cone hash)` — see
//! [`crate::analyze::AnalyzeOptions::incremental`]. The cone hash covers
//! the export's contract, every definition transitively reachable from it,
//! and the program's struct declarations; an edit outside that cone leaves
//! the hash unchanged and the stored verdict reusable.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use folic::{Arena, Atom, AtomId, CmpOp, Proof, SharedLemmaPool, Term, Var};

use crate::analyze::ExportAnalysis;
use crate::cex::Counterexample;
use crate::heap::{CSymExpr, Tag};
use crate::prove::{CacheKey, Query};
use crate::syntax::{CBlame, Expr, Label, Prim};

/// File magic: identifies an analysis-store file.
const MAGIC: [u8; 8] = *b"CPCFSTOR";

/// On-disk schema version. Bump on any codec change: a mismatch makes the
/// whole file cold.
const SCHEMA_VERSION: u32 = 1;

/// Header length: magic + schema version + engine fingerprint.
const HEADER_LEN: usize = 8 + 4 + 8;

/// Upper bound on a single record's payload, so a corrupt length field
/// cannot trigger a huge allocation.
const MAX_RECORD: usize = 1 << 26;

/// Record payload tags.
const REC_VERDICT: u8 = 1;
const REC_LEMMA: u8 = 2;
const REC_CONE: u8 = 3;

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

/// FNV-1a over a byte string: a stable, dependency-free 64-bit hash used
/// for engine fingerprints and dependency-cone hashes (where the value must
/// be reproducible across processes — `std`'s `DefaultHasher` makes no such
/// promise across versions).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven. Guards every
/// record payload so torn writes and bit rot are detected on load.
fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = 0xffff_ffffu32;
    for &byte in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

/// A little-endian byte encoder for record payloads.
#[derive(Debug, Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Enc::default()
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// The matching decoder. Every read is checked; `None` means the payload is
/// malformed and the caller treats the record as cold.
#[derive(Debug)]
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn finished(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn i64(&mut self) -> Option<i64> {
        Some(i64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return None;
        }
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    /// A collection length, sanity-bounded by the remaining payload (every
    /// element costs at least one byte) so a corrupt count cannot drive a
    /// huge allocation.
    fn count(&mut self) -> Option<usize> {
        let count = self.u32()? as usize;
        if count > self.remaining() {
            return None;
        }
        Some(count)
    }
}

fn encode_proof(enc: &mut Enc, proof: Proof) {
    enc.u8(match proof {
        Proof::Proved => 0,
        Proof::Refuted => 1,
        Proof::Ambiguous => 2,
    });
}

fn decode_proof(dec: &mut Dec) -> Option<Proof> {
    Some(match dec.u8()? {
        0 => Proof::Proved,
        1 => Proof::Refuted,
        2 => Proof::Ambiguous,
        _ => return None,
    })
}

fn encode_tag(enc: &mut Enc, tag: &Tag) {
    match tag {
        Tag::Number => enc.u8(0),
        Tag::Real => enc.u8(1),
        Tag::Integer => enc.u8(2),
        Tag::Procedure => enc.u8(3),
        Tag::Pair => enc.u8(4),
        Tag::Null => enc.u8(5),
        Tag::Boolean => enc.u8(6),
        Tag::StringT => enc.u8(7),
        Tag::BoxT => enc.u8(8),
        Tag::Struct(name) => {
            enc.u8(9);
            enc.str(name);
        }
    }
}

fn encode_cmp_op(enc: &mut Enc, op: CmpOp) {
    enc.u8(match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
    });
}

fn decode_cmp_op(dec: &mut Dec) -> Option<CmpOp> {
    Some(match dec.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        _ => return None,
    })
}

fn encode_csym(enc: &mut Enc, expr: &CSymExpr) {
    match expr {
        CSymExpr::Loc(loc) => {
            enc.u8(0);
            enc.u32(loc.index());
        }
        CSymExpr::Const(n) => {
            enc.u8(1);
            enc.i64(*n);
        }
        CSymExpr::Add(a, b) => {
            enc.u8(2);
            encode_csym(enc, a);
            encode_csym(enc, b);
        }
        CSymExpr::Sub(a, b) => {
            enc.u8(3);
            encode_csym(enc, a);
            encode_csym(enc, b);
        }
        CSymExpr::Mul(a, b) => {
            enc.u8(4);
            encode_csym(enc, a);
            encode_csym(enc, b);
        }
        CSymExpr::Div(a, b) => {
            enc.u8(5);
            encode_csym(enc, a);
            encode_csym(enc, b);
        }
        CSymExpr::Mod(a, b) => {
            enc.u8(6);
            encode_csym(enc, a);
            encode_csym(enc, b);
        }
    }
}

/// Serializes a verdict-cache key. The byte string *is* the store key, so
/// equality on disk is exactly structural equality of the in-memory key.
pub(crate) fn verdict_key_bytes(key: &CacheKey) -> Vec<u8> {
    let (fingerprint, generation, query) = key;
    let mut enc = Enc::new();
    enc.u64(*fingerprint);
    enc.u64(*generation);
    match query {
        Query::Tag(loc, tag) => {
            enc.u8(0);
            enc.u32(loc.index());
            encode_tag(&mut enc, tag);
        }
        Query::Num(loc, op, rhs) => {
            enc.u8(1);
            enc.u32(loc.index());
            encode_cmp_op(&mut enc, *op);
            encode_csym(&mut enc, rhs);
        }
    }
    enc.into_bytes()
}

fn encode_term(enc: &mut Enc, term: &Term) {
    match term {
        Term::Int(n) => {
            enc.u8(0);
            enc.i64(*n);
        }
        Term::Var(v) => {
            enc.u8(1);
            enc.u32(v.index());
        }
        Term::Add(a, b) => {
            enc.u8(2);
            encode_term(enc, a);
            encode_term(enc, b);
        }
        Term::Sub(a, b) => {
            enc.u8(3);
            encode_term(enc, a);
            encode_term(enc, b);
        }
        Term::Mul(a, b) => {
            enc.u8(4);
            encode_term(enc, a);
            encode_term(enc, b);
        }
        Term::Neg(a) => {
            enc.u8(5);
            encode_term(enc, a);
        }
    }
}

fn decode_term(dec: &mut Dec) -> Option<Term> {
    Some(match dec.u8()? {
        0 => Term::Int(dec.i64()?),
        1 => Term::Var(Var::new(dec.u32()?)),
        2 => Term::Add(Box::new(decode_term(dec)?), Box::new(decode_term(dec)?)),
        3 => Term::Sub(Box::new(decode_term(dec)?), Box::new(decode_term(dec)?)),
        4 => Term::Mul(Box::new(decode_term(dec)?), Box::new(decode_term(dec)?)),
        5 => Term::Neg(Box::new(decode_term(dec)?)),
        _ => return None,
    })
}

fn encode_atom(enc: &mut Enc, atom: &Atom) {
    encode_term(enc, &atom.lhs);
    encode_cmp_op(enc, atom.op);
    encode_term(enc, &atom.rhs);
}

fn decode_atom(dec: &mut Dec) -> Option<Atom> {
    let lhs = decode_term(dec)?;
    let op = decode_cmp_op(dec)?;
    let rhs = decode_term(dec)?;
    Some(Atom { lhs, op, rhs })
}

/// The canonical serialization of a lemma's atom set (content, not ids) —
/// also the dedup key that keeps re-recorded lemmas out of the file.
fn lemma_bytes(atoms: &[Atom]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(atoms.len() as u32);
    for atom in atoms {
        encode_atom(&mut enc, atom);
    }
    enc.into_bytes()
}

fn decode_lemma(dec: &mut Dec) -> Option<Vec<Atom>> {
    let count = dec.count()?;
    let mut atoms = Vec::with_capacity(count);
    for _ in 0..count {
        atoms.push(decode_atom(dec)?);
    }
    Some(atoms)
}

fn encode_prim(enc: &mut Enc, prim: Prim) {
    enc.u8(match prim {
        Prim::Add => 0,
        Prim::Sub => 1,
        Prim::Mul => 2,
        Prim::Div => 3,
        Prim::Mod => 4,
        Prim::Add1 => 5,
        Prim::Sub1 => 6,
        Prim::Lt => 7,
        Prim::Le => 8,
        Prim::Gt => 9,
        Prim::Ge => 10,
        Prim::NumEq => 11,
        Prim::IsZero => 12,
        Prim::Not => 13,
        Prim::IsNumber => 14,
        Prim::IsReal => 15,
        Prim::IsInteger => 16,
        Prim::IsProcedure => 17,
        Prim::IsPair => 18,
        Prim::IsNull => 19,
        Prim::IsBoolean => 20,
        Prim::IsString => 21,
        Prim::Cons => 22,
        Prim::Car => 23,
        Prim::Cdr => 24,
        Prim::Equal => 25,
        Prim::Assert => 26,
        Prim::Raise => 27,
        Prim::MakeBox => 28,
        Prim::Unbox => 29,
        Prim::SetBox => 30,
        Prim::StringLength => 31,
        Prim::IsBox => 32,
    });
}

fn decode_prim(dec: &mut Dec) -> Option<Prim> {
    Some(match dec.u8()? {
        0 => Prim::Add,
        1 => Prim::Sub,
        2 => Prim::Mul,
        3 => Prim::Div,
        4 => Prim::Mod,
        5 => Prim::Add1,
        6 => Prim::Sub1,
        7 => Prim::Lt,
        8 => Prim::Le,
        9 => Prim::Gt,
        10 => Prim::Ge,
        11 => Prim::NumEq,
        12 => Prim::IsZero,
        13 => Prim::Not,
        14 => Prim::IsNumber,
        15 => Prim::IsReal,
        16 => Prim::IsInteger,
        17 => Prim::IsProcedure,
        18 => Prim::IsPair,
        19 => Prim::IsNull,
        20 => Prim::IsBoolean,
        21 => Prim::IsString,
        22 => Prim::Cons,
        23 => Prim::Car,
        24 => Prim::Cdr,
        25 => Prim::Equal,
        26 => Prim::Assert,
        27 => Prim::Raise,
        28 => Prim::MakeBox,
        29 => Prim::Unbox,
        30 => Prim::SetBox,
        31 => Prim::StringLength,
        32 => Prim::IsBox,
        _ => return None,
    })
}

fn encode_exprs(enc: &mut Enc, exprs: &[Expr]) {
    enc.u32(exprs.len() as u32);
    for expr in exprs {
        encode_expr(enc, expr);
    }
}

fn decode_exprs(dec: &mut Dec) -> Option<Vec<Expr>> {
    let count = dec.count()?;
    let mut exprs = Vec::with_capacity(count);
    for _ in 0..count {
        exprs.push(decode_expr(dec)?);
    }
    Some(exprs)
}

/// Encodes a syntax expression. Doubles as the byte form hashed by the
/// dependency-cone hash, so it must cover every variant exactly.
pub(crate) fn encode_expr(enc: &mut Enc, expr: &Expr) {
    match expr {
        Expr::Var(name) => {
            enc.u8(0);
            enc.str(name);
        }
        Expr::Int(n) => {
            enc.u8(1);
            enc.i64(*n);
        }
        Expr::Complex(re, im) => {
            enc.u8(2);
            enc.i64(*re);
            enc.i64(*im);
        }
        Expr::Bool(b) => {
            enc.u8(3);
            enc.u8(u8::from(*b));
        }
        Expr::Str(s) => {
            enc.u8(4);
            enc.str(s);
        }
        Expr::Nil => enc.u8(5),
        Expr::Lam { params, body } => {
            enc.u8(6);
            enc.u32(params.len() as u32);
            for param in params {
                enc.str(param);
            }
            encode_expr(enc, body);
        }
        Expr::App(function, args) => {
            enc.u8(7);
            encode_expr(enc, function);
            encode_exprs(enc, args);
        }
        Expr::If(c, t, e) => {
            enc.u8(8);
            encode_expr(enc, c);
            encode_expr(enc, t);
            encode_expr(enc, e);
        }
        Expr::And(es) => {
            enc.u8(9);
            encode_exprs(enc, es);
        }
        Expr::Or(es) => {
            enc.u8(10);
            encode_exprs(enc, es);
        }
        Expr::Begin(es) => {
            enc.u8(11);
            encode_exprs(enc, es);
        }
        Expr::Let {
            bindings,
            recursive,
            body,
        } => {
            enc.u8(12);
            enc.u8(u8::from(*recursive));
            enc.u32(bindings.len() as u32);
            for (name, value) in bindings {
                enc.str(name);
                encode_expr(enc, value);
            }
            encode_expr(enc, body);
        }
        Expr::Prim(prim, args, label) => {
            enc.u8(13);
            encode_prim(enc, *prim);
            encode_exprs(enc, args);
            enc.u32(label.0);
        }
        Expr::Opaque(label) => {
            enc.u8(14);
            enc.u32(label.0);
        }
        Expr::CArrow(doms, rng) => {
            enc.u8(15);
            encode_exprs(enc, doms);
            encode_expr(enc, rng);
        }
        Expr::CAnd(es) => {
            enc.u8(16);
            encode_exprs(enc, es);
        }
        Expr::COr(es) => {
            enc.u8(17);
            encode_exprs(enc, es);
        }
        Expr::CCons(a, b) => {
            enc.u8(18);
            encode_expr(enc, a);
            encode_expr(enc, b);
        }
        Expr::CListOf(inner) => {
            enc.u8(19);
            encode_expr(enc, inner);
        }
        Expr::COneOf(es) => {
            enc.u8(20);
            encode_exprs(enc, es);
        }
        Expr::CAny => enc.u8(21),
        Expr::Mon {
            contract,
            value,
            pos,
            neg,
            label,
        } => {
            enc.u8(22);
            encode_expr(enc, contract);
            encode_expr(enc, value);
            enc.str(pos);
            enc.str(neg);
            enc.u32(label.0);
        }
        Expr::StructMake(name, args) => {
            enc.u8(23);
            enc.str(name);
            encode_exprs(enc, args);
        }
        Expr::StructPred(name, inner) => {
            enc.u8(24);
            enc.str(name);
            encode_expr(enc, inner);
        }
        Expr::StructGet(name, field, inner, label) => {
            enc.u8(25);
            enc.str(name);
            enc.u32(*field as u32);
            encode_expr(enc, inner);
            enc.u32(label.0);
        }
    }
}

fn decode_expr(dec: &mut Dec) -> Option<Expr> {
    Some(match dec.u8()? {
        0 => Expr::Var(dec.str()?),
        1 => Expr::Int(dec.i64()?),
        2 => Expr::Complex(dec.i64()?, dec.i64()?),
        3 => Expr::Bool(dec.u8()? != 0),
        4 => Expr::Str(dec.str()?),
        5 => Expr::Nil,
        6 => {
            let count = dec.count()?;
            let mut params = Vec::with_capacity(count);
            for _ in 0..count {
                params.push(dec.str()?);
            }
            Expr::Lam {
                params,
                body: Box::new(decode_expr(dec)?),
            }
        }
        7 => Expr::App(Box::new(decode_expr(dec)?), decode_exprs(dec)?),
        8 => Expr::If(
            Box::new(decode_expr(dec)?),
            Box::new(decode_expr(dec)?),
            Box::new(decode_expr(dec)?),
        ),
        9 => Expr::And(decode_exprs(dec)?),
        10 => Expr::Or(decode_exprs(dec)?),
        11 => Expr::Begin(decode_exprs(dec)?),
        12 => {
            let recursive = dec.u8()? != 0;
            let count = dec.count()?;
            let mut bindings = Vec::with_capacity(count);
            for _ in 0..count {
                let name = dec.str()?;
                let value = decode_expr(dec)?;
                bindings.push((name, value));
            }
            Expr::Let {
                bindings,
                recursive,
                body: Box::new(decode_expr(dec)?),
            }
        }
        13 => Expr::Prim(decode_prim(dec)?, decode_exprs(dec)?, Label(dec.u32()?)),
        14 => Expr::Opaque(Label(dec.u32()?)),
        15 => Expr::CArrow(decode_exprs(dec)?, Box::new(decode_expr(dec)?)),
        16 => Expr::CAnd(decode_exprs(dec)?),
        17 => Expr::COr(decode_exprs(dec)?),
        18 => Expr::CCons(Box::new(decode_expr(dec)?), Box::new(decode_expr(dec)?)),
        19 => Expr::CListOf(Box::new(decode_expr(dec)?)),
        20 => Expr::COneOf(decode_exprs(dec)?),
        21 => Expr::CAny,
        22 => {
            let contract = Box::new(decode_expr(dec)?);
            let value = Box::new(decode_expr(dec)?);
            let pos = dec.str()?;
            let neg = dec.str()?;
            let label = Label(dec.u32()?);
            Expr::Mon {
                contract,
                value,
                pos,
                neg,
                label,
            }
        }
        23 => Expr::StructMake(dec.str()?, decode_exprs(dec)?),
        24 => Expr::StructPred(dec.str()?, Box::new(decode_expr(dec)?)),
        25 => {
            let name = dec.str()?;
            let field = dec.u32()? as usize;
            let inner = Box::new(decode_expr(dec)?);
            let label = Label(dec.u32()?);
            Expr::StructGet(name, field, inner, label)
        }
        _ => return None,
    })
}

fn encode_blame(enc: &mut Enc, blame: &CBlame) {
    enc.str(&blame.party);
    enc.str(&blame.message);
    enc.u32(blame.label.0);
}

fn decode_blame(dec: &mut Dec) -> Option<CBlame> {
    let party = dec.str()?;
    let message = dec.str()?;
    let label = Label(dec.u32()?);
    Some(CBlame {
        party,
        message,
        label,
    })
}

fn encode_export_analysis(enc: &mut Enc, analysis: &ExportAnalysis) {
    match analysis {
        ExportAnalysis::Verified => enc.u8(0),
        ExportAnalysis::Counterexample(cex) => {
            enc.u8(1);
            encode_blame(enc, &cex.blame);
            enc.u8(u8::from(cex.validated));
            enc.u32(cex.bindings.len() as u32);
            for (label, expr) in &cex.bindings {
                enc.u32(label.0);
                encode_expr(enc, expr);
            }
        }
        ExportAnalysis::ProbableError(blame) => {
            enc.u8(2);
            encode_blame(enc, blame);
        }
        ExportAnalysis::Exhausted => enc.u8(3),
    }
}

fn decode_export_analysis(dec: &mut Dec) -> Option<ExportAnalysis> {
    Some(match dec.u8()? {
        0 => ExportAnalysis::Verified,
        1 => {
            let blame = decode_blame(dec)?;
            let validated = dec.u8()? != 0;
            let count = dec.count()?;
            let mut bindings = Vec::with_capacity(count);
            for _ in 0..count {
                let label = Label(dec.u32()?);
                let expr = decode_expr(dec)?;
                bindings.push((label, expr));
            }
            ExportAnalysis::Counterexample(Counterexample {
                blame,
                bindings,
                validated,
            })
        }
        2 => ExportAnalysis::ProbableError(decode_blame(dec)?),
        3 => ExportAnalysis::Exhausted,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Engine fingerprint
// ---------------------------------------------------------------------------

/// A 64-bit fingerprint of every engine setting that can change a verdict.
///
/// Two runs share stored verdicts only when their fingerprints match: the
/// fingerprint names the store file and sits in its header, so runs under
/// different solver configurations or `CPCF_LEMMA_SHARING` settings (worker
/// counts aside) can share one `--store` directory without
/// cross-contamination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineFingerprint(pub u64);

impl EngineFingerprint {
    /// Hashes an ordered token sequence (FNV-1a with a separator byte, so
    /// token boundaries matter).
    pub fn from_tokens<I, S>(tokens: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut bytes = Vec::new();
        for token in tokens {
            bytes.extend_from_slice(token.as_ref().as_bytes());
            bytes.push(0x1f);
        }
        EngineFingerprint(fnv1a(&bytes))
    }

    /// The fingerprint of an analysis configuration: the evaluator's search
    /// (the worklist machine, which stops at the first validated
    /// counterexample), the solver configuration (core and theory
    /// settings), evaluator budgets, context depth, validation, and the
    /// `CPCF_LEMMA_SHARING` gate. Worker counts are deliberately excluded —
    /// verdicts are scheduling-independent by construction.
    pub fn for_analyze(options: &crate::analyze::AnalyzeOptions) -> Self {
        let eval = &options.eval;
        EngineFingerprint::from_tokens([
            format!("schema={SCHEMA_VERSION}"),
            "search=worklist".to_string(),
            format!("solver={:?}", eval.solver),
            format!("fuel={}", eval.fuel),
            format!("max_branches={}", eval.max_branches),
            format!("havoc_depth={}", eval.havoc_depth),
            format!("validate={}", options.validate),
            format!("context_depth={}", options.context_depth),
            format!("lemma_sharing={}", folic::default_lemma_sharing()),
        ])
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

folic::counters! {
    /// A snapshot of the store's activity counters.
    pub struct StoreCounters {
        /// Verdict lookups served from the persistent tier.
        store_hits,
        /// Verdict lookups that fell through the persistent tier.
        store_misses,
        /// New verdicts appended to the file.
        store_writes,
        /// Stored lemmas re-published into a pool by warm starts.
        lemmas_warm_started,
    }
}

/// The verdict tier: every key's bytes back to back in one buffer, one
/// entry per key, and an FNV-1a hash → entry map whose colliding keys chain
/// through the entries. Loading it costs three allocations rather than one
/// boxed key per verdict, and dropping it three frees.
#[derive(Debug)]
struct VerdictIndex {
    /// The bytes of every key, loaded and appended.
    keys: Vec<u8>,
    entries: Vec<VerdictEntry>,
    /// Key hash → the most recently inserted entry with that hash.
    heads: HashMap<u64, u32>,
}

/// One stored verdict. Offsets and links are `u32`, so an entry takes 20
/// bytes, less than the boxed key it replaces.
#[derive(Debug)]
struct VerdictEntry {
    /// The key's byte range in [`VerdictIndex::keys`].
    start: u32,
    end: u32,
    /// The previously inserted entry with the same key hash, if any.
    next: Option<u32>,
    proof: Proof,
}

impl VerdictIndex {
    /// An empty index with room for `records` keys of `key_bytes` bytes in
    /// total, so loading a file never regrows it.
    fn with_capacity(records: usize, key_bytes: usize) -> Self {
        VerdictIndex {
            keys: Vec::with_capacity(key_bytes),
            entries: Vec::with_capacity(records),
            heads: HashMap::with_capacity(records),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn get(&self, key: &[u8]) -> Option<Proof> {
        self.get_hashed(fnv1a(key), key)
    }

    fn get_hashed(&self, hash: u64, key: &[u8]) -> Option<Proof> {
        let head = self.heads.get(&hash).copied();
        chain_find(&self.entries, &self.keys, head, key).map(|index| self.entries[index].proof)
    }

    /// Records `key`'s verdict unless the key is already present; returns
    /// whether it was new.
    fn insert(&mut self, key: &[u8], proof: Proof) -> bool {
        self.insert_hashed(fnv1a(key), key, proof).is_none()
    }

    /// Applies a verdict read back from the log: replaying in file order, a
    /// key appended twice (by two processes) keeps its later verdict.
    fn replay(&mut self, key: &[u8], proof: Proof) {
        if let Some(stored) = self.insert_hashed(fnv1a(key), key, proof) {
            *stored = proof;
        }
    }

    /// Adds `key` → `proof` under `hash` as the new head of the hash's
    /// chain and returns `None`; a key already present keeps its entry,
    /// whose verdict is returned instead. An index past 4 GiB of keys or
    /// 2³² entries, beyond what `u32` offsets reach, stops indexing new
    /// keys, which only costs misses. The hash is a parameter so tests can
    /// chain two keys without searching for an FNV-1a collision.
    fn insert_hashed(&mut self, hash: u64, key: &[u8], proof: Proof) -> Option<&mut Proof> {
        let (Ok(start), Ok(end), Ok(index)) = (
            u32::try_from(self.keys.len()),
            u32::try_from(self.keys.len() + key.len()),
            u32::try_from(self.entries.len()),
        ) else {
            return None;
        };
        let next = match self.heads.entry(hash) {
            Entry::Vacant(head) => {
                head.insert(index);
                None
            }
            Entry::Occupied(mut head) => {
                let chain = Some(*head.get());
                if let Some(existing) = chain_find(&self.entries, &self.keys, chain, key) {
                    return Some(&mut self.entries[existing].proof);
                }
                Some(head.insert(index))
            }
        };
        self.keys.extend_from_slice(key);
        self.entries.push(VerdictEntry {
            start,
            end,
            next,
            proof,
        });
        None
    }
}

/// Walks a hash chain of `entries` from `cursor` to the entry holding
/// exactly `key`.
fn chain_find(
    entries: &[VerdictEntry],
    keys: &[u8],
    mut cursor: Option<u32>,
    key: &[u8],
) -> Option<usize> {
    while let Some(index) = cursor {
        let entry = &entries[index as usize];
        if keys[entry.start as usize..entry.end as usize] == *key {
            return Some(index as usize);
        }
        cursor = entry.next;
    }
    None
}

#[derive(Debug)]
struct StoreInner {
    path: PathBuf,
    fingerprint: EngineFingerprint,
    /// Persisted verdicts, keyed by the serialized cache-key bytes.
    verdicts: RwLock<VerdictIndex>,
    /// Lemmas loaded from disk, by content.
    loaded_lemmas: Vec<Vec<Atom>>,
    /// `loaded_lemmas` as process-global atom ids, interned by the first
    /// warm start and only published by later ones.
    interned_lemmas: OnceLock<Vec<Vec<AtomId>>>,
    /// Canonical byte forms of every lemma on disk (loaded or appended), so
    /// re-recording is idempotent.
    lemma_seen: Mutex<HashSet<Box<[u8]>>>,
    /// Per-export verdicts keyed by `(module, export, cone hash)` — fully
    /// content-addressed, so the correct and faulty variants of a bench
    /// program (same module and export names, different cones) coexist.
    cones: RwLock<HashMap<(String, String, u64), ExportAnalysis>>,
    /// Append-only writer, positioned after the last valid record.
    writer: Mutex<BufWriter<File>>,
    counters: Mutex<StoreCounters>,
}

/// A handle to one on-disk analysis store. Clones share the same store;
/// the handle is `Send + Sync` and cheap to clone (an `Arc`), mirroring
/// [`crate::SharedVerdictCache`] and [`folic::SharedLemmaPool`].
#[derive(Debug, Clone)]
pub struct AnalysisStore {
    inner: Arc<StoreInner>,
}

impl AnalysisStore {
    /// Opens (or creates) the store for `fingerprint` inside `dir`.
    ///
    /// The file's valid prefix is loaded; a bad header rewrites the file
    /// (cold start), and a torn or corrupt tail is truncated so appends
    /// stay readable. Only real I/O failures (unwritable directory, …)
    /// surface as errors — corrupted *content* never does.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the directory cannot be created or
    /// the store file cannot be opened for writing.
    pub fn open(dir: impl AsRef<Path>, fingerprint: EngineFingerprint) -> std::io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("store-{:016x}.bin", fingerprint.0));

        let existing = std::fs::read(&path).unwrap_or_default();
        let header_ok = existing.len() >= HEADER_LEN
            && existing[..8] == MAGIC
            && u32::from_le_bytes(existing[8..12].try_into().expect("4 bytes")) == SCHEMA_VERSION
            && u64::from_le_bytes(existing[12..HEADER_LEN].try_into().expect("8 bytes"))
                == fingerprint.0;
        let records = if header_ok {
            &existing[HEADER_LEN..]
        } else {
            &[][..]
        };
        // First the CRCs: the longest prefix of CRC-valid records, counting
        // the verdict records (a tag, a proof and the key) on the way so the
        // index is sized once.
        let (mut crc_valid, mut verdict_records, mut key_bytes) = (0, 0, 0);
        for (crc, payload) in frames(records) {
            if crc32(payload) != crc {
                break;
            }
            crc_valid += 8 + payload.len();
            if payload[0] == REC_VERDICT {
                verdict_records += 1;
                key_bytes += payload.len().saturating_sub(2);
            }
        }
        // Then the decoding.
        let mut verdicts = VerdictIndex::with_capacity(verdict_records, key_bytes);
        let mut loaded_lemmas = Vec::new();
        let mut lemma_seen = HashSet::new();
        let mut cones = HashMap::new();
        let mut valid_end = HEADER_LEN;
        for (_, payload) in frames(&records[..crc_valid]) {
            if !apply_record(
                payload,
                &mut verdicts,
                &mut loaded_lemmas,
                &mut lemma_seen,
                &mut cones,
            ) {
                break;
            }
            valid_end += 8 + payload.len();
        }

        let file = if header_ok {
            let mut file = OpenOptions::new().write(true).open(&path)?;
            // Drop the torn tail (if any) so the next append starts at a
            // record boundary every future load can parse.
            file.set_len(valid_end as u64)?;
            file.seek(SeekFrom::Start(valid_end as u64))?;
            file
        } else {
            let mut file = File::create(&path)?;
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC);
            header.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
            header.extend_from_slice(&fingerprint.0.to_le_bytes());
            file.write_all(&header)?;
            file
        };

        Ok(AnalysisStore {
            inner: Arc::new(StoreInner {
                path,
                fingerprint,
                verdicts: RwLock::new(verdicts),
                loaded_lemmas,
                interned_lemmas: OnceLock::new(),
                lemma_seen: Mutex::new(lemma_seen),
                cones: RwLock::new(cones),
                writer: Mutex::new(BufWriter::new(file)),
                counters: Mutex::new(StoreCounters::ZERO),
            }),
        })
    }

    /// The store file's path.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// The engine fingerprint this store is keyed by.
    pub fn fingerprint(&self) -> EngineFingerprint {
        self.inner.fingerprint
    }

    /// Number of persisted verdicts currently known (loaded + appended).
    pub fn verdict_count(&self) -> usize {
        self.inner.verdicts.read().expect("store poisoned").len()
    }

    /// Number of distinct lemmas on disk (loaded + appended).
    pub fn lemma_count(&self) -> usize {
        self.inner.lemma_seen.lock().expect("store poisoned").len()
    }

    /// Number of per-export cone verdicts currently known.
    pub fn cone_count(&self) -> usize {
        self.inner.cones.read().expect("store poisoned").len()
    }

    /// A snapshot of the activity counters.
    pub fn counters(&self) -> StoreCounters {
        *self.inner.counters.lock().expect("store poisoned")
    }

    fn count(&self, f: impl FnOnce(&mut StoreCounters)) {
        f(&mut self.inner.counters.lock().expect("store poisoned"));
    }

    /// Appends one framed record; write errors are swallowed (the store
    /// degrades to not persisting — it never fails an analysis).
    fn append(&self, payload: &[u8]) {
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let mut writer = self.inner.writer.lock().expect("store writer poisoned");
        let _ = writer.write_all(&frame);
    }

    /// Flushes buffered appends to disk. Called at program boundaries by
    /// the bench harness and at the end of each scheduled module run.
    pub fn flush(&self) {
        let _ = self
            .inner
            .writer
            .lock()
            .expect("store writer poisoned")
            .flush();
    }

    /// The persisted verdict for the serialized cache key, if any.
    pub(crate) fn lookup_verdict(&self, key: &[u8]) -> Option<Proof> {
        let proof = self.inner.verdicts.read().expect("store poisoned").get(key);
        match proof {
            Some(proof) => {
                self.count(|c| c.store_hits += 1);
                Some(proof)
            }
            None => {
                self.count(|c| c.store_misses += 1);
                None
            }
        }
    }

    /// Persists a verdict; returns `true` when the key was new (and a
    /// record was appended).
    pub(crate) fn record_verdict(&self, key: &[u8], proof: Proof) -> bool {
        let is_new = self
            .inner
            .verdicts
            .write()
            .expect("store poisoned")
            .insert(key, proof);
        if !is_new {
            return false;
        }
        let mut enc = Enc::new();
        enc.u8(REC_VERDICT);
        encode_proof(&mut enc, proof);
        let mut payload = enc.into_bytes();
        payload.extend_from_slice(key);
        self.append(&payload);
        self.count(|c| c.store_writes += 1);
        true
    }

    /// Re-publishes every stored lemma into `pool`, in file order. The
    /// first call on a handle interns the loaded atoms through a scratch
    /// [`Arena`], which registers them process-globally so sibling cores can
    /// adopt the resulting ids; global ids are stable for the life of the
    /// process, so later calls publish the cached ids. Returns how many
    /// lemmas were new to the pool.
    pub fn warm_start_lemmas(&self, pool: &SharedLemmaPool) -> u64 {
        let lemmas = self.inner.interned_lemmas.get_or_init(|| {
            let mut arena = Arena::new();
            self.inner
                .loaded_lemmas
                .iter()
                .map(|atoms| atoms.iter().map(|atom| arena.intern_atom(atom)).collect())
                .collect()
        });
        let published = lemmas.iter().filter(|ids| pool.publish(ids)).count() as u64;
        self.count(|c| c.lemmas_warm_started += published);
        published
    }

    /// Persists the lemmas `pool` holds at or after `cursor`, resolving
    /// each atom id to its structural content. Lemmas already on disk (by
    /// content) are skipped, so recording a warm-started pool is
    /// idempotent. Returns how many new lemma records were appended.
    pub fn record_lemmas(&self, pool: &SharedLemmaPool, cursor: usize) -> u64 {
        let (fresh, _) = pool.fetch_from(cursor);
        let mut written = 0u64;
        for lemma in fresh {
            let atoms: Option<Vec<Atom>> = lemma.iter().map(|id| folic::global_atom(*id)).collect();
            let Some(atoms) = atoms else {
                continue;
            };
            let bytes = lemma_bytes(&atoms);
            let is_new = self
                .inner
                .lemma_seen
                .lock()
                .expect("store poisoned")
                .insert(bytes.clone().into_boxed_slice());
            if !is_new {
                continue;
            }
            let mut payload = vec![REC_LEMMA];
            payload.extend_from_slice(&bytes);
            self.append(&payload);
            written += 1;
        }
        written
    }

    /// The stored verdict for `(module, export)` whose dependency-cone hash
    /// is exactly `cone_hash`, if any.
    pub fn lookup_export(
        &self,
        module: &str,
        export: &str,
        cone_hash: u64,
    ) -> Option<ExportAnalysis> {
        self.inner
            .cones
            .read()
            .expect("store poisoned")
            .get(&(module.to_string(), export.to_string(), cone_hash))
            .cloned()
    }

    /// Persists an export's verdict under its dependency-cone hash.
    pub fn record_export(
        &self,
        module: &str,
        export: &str,
        cone_hash: u64,
        analysis: &ExportAnalysis,
    ) {
        let key = (module.to_string(), export.to_string(), cone_hash);
        {
            let mut cones = self.inner.cones.write().expect("store poisoned");
            match cones.entry(key) {
                std::collections::hash_map::Entry::Occupied(_) => return,
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(analysis.clone());
                }
            }
        }
        let mut enc = Enc::new();
        enc.u8(REC_CONE);
        enc.str(module);
        enc.str(export);
        enc.u64(cone_hash);
        encode_export_analysis(&mut enc, analysis);
        self.append(enc.bytes());
    }
}

/// The `(crc, payload)` frames at the start of `records`, up to the first
/// frame whose length field is zero, oversized or runs past the end.
fn frames(records: &[u8]) -> impl Iterator<Item = (u32, &[u8])> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let frame = records.get(pos..pos + 8)?;
        let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(frame[4..].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_RECORD {
            return None;
        }
        let payload = records.get(pos + 8..pos + 8 + len)?;
        pos += 8 + len;
        Some((crc, payload))
    })
}

/// Applies one CRC-valid record payload to the in-memory maps. Returns
/// `false` when the payload does not decode — the load stops there and the
/// tail is truncated, exactly like a CRC failure.
fn apply_record(
    payload: &[u8],
    verdicts: &mut VerdictIndex,
    loaded_lemmas: &mut Vec<Vec<Atom>>,
    lemma_seen: &mut HashSet<Box<[u8]>>,
    cones: &mut HashMap<(String, String, u64), ExportAnalysis>,
) -> bool {
    let mut dec = Dec::new(payload);
    match dec.u8() {
        Some(REC_VERDICT) => {
            let Some(proof) = decode_proof(&mut dec) else {
                return false;
            };
            let key = &payload[2..];
            if key.is_empty() {
                return false;
            }
            verdicts.replay(key, proof);
            true
        }
        Some(REC_LEMMA) => {
            let Some(atoms) = decode_lemma(&mut dec) else {
                return false;
            };
            if !dec.finished() || atoms.is_empty() {
                return false;
            }
            if lemma_seen.insert(payload[1..].to_vec().into_boxed_slice()) {
                loaded_lemmas.push(atoms);
            }
            true
        }
        Some(REC_CONE) => {
            let Some(module) = dec.str() else {
                return false;
            };
            let Some(export) = dec.str() else {
                return false;
            };
            let Some(cone_hash) = dec.u64() else {
                return false;
            };
            let Some(analysis) = decode_export_analysis(&mut dec) else {
                return false;
            };
            if !dec.finished() {
                return false;
            }
            cones.insert((module, export, cone_hash), analysis);
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::Loc;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_store_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cpcf-store-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fp(n: u64) -> EngineFingerprint {
        EngineFingerprint(n)
    }

    fn sample_key(i: u64) -> Vec<u8> {
        verdict_key_bytes(&(
            0xdead_beef ^ i,
            i,
            Query::Num(
                Loc::new(i as u32),
                CmpOp::Lt,
                CSymExpr::Add(
                    Box::new(CSymExpr::Loc(Loc::new(1))),
                    Box::new(CSymExpr::Const(7)),
                ),
            ),
        ))
    }

    fn sample_atom(i: u32) -> Atom {
        Atom {
            lhs: Term::Add(
                Box::new(Term::Var(Var::new(i))),
                Box::new(Term::Neg(Box::new(Term::Int(3)))),
            ),
            op: CmpOp::Le,
            rhs: Term::Int(i64::from(i)),
        }
    }

    fn sample_cex() -> ExportAnalysis {
        ExportAnalysis::Counterexample(Counterexample {
            blame: CBlame {
                party: "m".into(),
                message: "division by zero".into(),
                label: Label(7),
            },
            bindings: vec![
                (Label(500_000), Expr::Int(100)),
                (
                    Label(500_001),
                    Expr::lam(
                        vec!["x"],
                        Expr::Prim(Prim::Add, vec![Expr::var("x")], Label(3)),
                    ),
                ),
            ],
            validated: true,
        })
    }

    #[test]
    fn round_trips_verdicts_lemmas_and_cones_across_reopen() {
        let dir = temp_store_dir("roundtrip");
        {
            let store = AnalysisStore::open(&dir, fp(1)).expect("open");
            assert!(store.record_verdict(&sample_key(0), Proof::Proved));
            assert!(store.record_verdict(&sample_key(1), Proof::Refuted));
            assert!(
                !store.record_verdict(&sample_key(0), Proof::Proved),
                "re-recording is deduplicated"
            );
            let pool = SharedLemmaPool::new();
            let mut arena = Arena::new();
            let ids: Vec<_> = (0..3).map(|i| arena.intern_atom(&sample_atom(i))).collect();
            pool.publish(&ids);
            assert_eq!(store.record_lemmas(&pool, 0), 1);
            assert_eq!(store.record_lemmas(&pool, 0), 0, "lemma dedup by content");
            store.record_export("m", "f", 42, &sample_cex());
            store.record_export("m", "g", 43, &ExportAnalysis::Verified);
            store.flush();
        }
        let store = AnalysisStore::open(&dir, fp(1)).expect("reopen");
        assert_eq!(store.verdict_count(), 2);
        assert_eq!(store.lemma_count(), 1);
        assert_eq!(store.cone_count(), 2);
        assert_eq!(store.lookup_verdict(&sample_key(0)), Some(Proof::Proved));
        assert_eq!(store.lookup_verdict(&sample_key(1)), Some(Proof::Refuted));
        assert_eq!(store.lookup_verdict(&sample_key(2)), None);
        assert_eq!(store.lookup_export("m", "f", 42), Some(sample_cex()));
        assert_eq!(
            store.lookup_export("m", "g", 43),
            Some(ExportAnalysis::Verified)
        );
        assert_eq!(store.lookup_export("m", "f", 41), None, "hash must match");
        let counters = store.counters();
        assert_eq!(counters.store_hits, 2);
        assert_eq!(counters.store_misses, 1);
        // Warm-starting a fresh pool re-publishes the stored lemma.
        let pool = SharedLemmaPool::new();
        assert_eq!(store.warm_start_lemmas(&pool), 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(store.counters().lemmas_warm_started, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verdict_lookups_match_whole_keys_only() {
        let dir = temp_store_dir("whole-keys");
        let key = sample_key(3);
        {
            let store = AnalysisStore::open(&dir, fp(7)).expect("open");
            assert!(store.record_verdict(&key, Proof::Refuted));
            store.flush();
        }
        let store = AnalysisStore::open(&dir, fp(7)).expect("reopen");
        let prefix = &key[..key.len() - 1];
        let mut extension = key.clone();
        extension.push(0);
        let mut last_byte = key.clone();
        *last_byte.last_mut().expect("keys are non-empty") ^= 1;
        for near_miss in [prefix, &extension, &last_byte] {
            assert_eq!(store.lookup_verdict(near_miss), None, "{near_miss:?}");
        }
        assert_eq!(store.lookup_verdict(&key), Some(Proof::Refuted));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verdicts_recorded_after_open_are_found_and_survive_reopen() {
        let dir = temp_store_dir("after-open");
        {
            let store = AnalysisStore::open(&dir, fp(8)).expect("open");
            for i in 0..3 {
                assert!(store.record_verdict(&sample_key(i), Proof::Proved));
            }
            store.flush();
        }
        {
            let store = AnalysisStore::open(&dir, fp(8)).expect("reopen");
            assert!(
                !store.record_verdict(&sample_key(1), Proof::Refuted),
                "a loaded key is not recorded again"
            );
            for i in 3..6 {
                assert!(store.record_verdict(&sample_key(i), Proof::Ambiguous));
                assert_eq!(store.lookup_verdict(&sample_key(i)), Some(Proof::Ambiguous));
            }
            assert_eq!(store.lookup_verdict(&sample_key(1)), Some(Proof::Proved));
            assert_eq!(store.verdict_count(), 6);
            store.flush();
        }
        let store = AnalysisStore::open(&dir, fp(8)).expect("third open");
        assert_eq!(store.verdict_count(), 6);
        for i in 0..6 {
            let expected = if i < 3 {
                Proof::Proved
            } else {
                Proof::Ambiguous
            };
            assert_eq!(store.lookup_verdict(&sample_key(i)), Some(expected));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_sharing_a_hash_chain_and_are_both_found() {
        let mut index = VerdictIndex::with_capacity(0, 0);
        let (first, second, absent) = (sample_key(0), sample_key(1), sample_key(2));
        assert!(index.insert_hashed(7, &first, Proof::Proved).is_none());
        assert!(index.insert_hashed(7, &second, Proof::Refuted).is_none());
        assert_eq!(index.get_hashed(7, &first), Some(Proof::Proved));
        assert_eq!(index.get_hashed(7, &second), Some(Proof::Refuted));
        assert_eq!(index.get_hashed(7, &absent), None);
        assert_eq!(
            index.insert_hashed(7, &first, Proof::Ambiguous).copied(),
            Some(Proof::Proved),
            "a chained key already present keeps its entry"
        );
        assert_eq!(index.len(), 2);
    }

    #[test]
    fn warm_starts_into_fresh_pools_publish_the_same_lemmas_in_order() {
        let dir = temp_store_dir("warm-order");
        {
            let store = AnalysisStore::open(&dir, fp(9)).expect("open");
            let pool = SharedLemmaPool::new();
            let mut arena = Arena::new();
            for i in 0..4 {
                let ids: Vec<_> = (i..i + 2)
                    .map(|j| arena.intern_atom(&sample_atom(100 + j)))
                    .collect();
                pool.publish(&ids);
            }
            assert_eq!(store.record_lemmas(&pool, 0), 4);
            store.flush();
        }
        let store = AnalysisStore::open(&dir, fp(9)).expect("reopen");
        let (first, second) = (SharedLemmaPool::new(), SharedLemmaPool::new());
        assert_eq!(store.warm_start_lemmas(&first), 4);
        assert_eq!(store.warm_start_lemmas(&second), 4);
        assert_eq!(
            store.warm_start_lemmas(&second),
            0,
            "the pool already holds them"
        );
        assert_eq!(first.fetch_from(0).0, second.fetch_from(0).0);
        assert_eq!(store.counters().lemmas_warm_started, 8);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schema_mismatch_is_a_cold_start() {
        let dir = temp_store_dir("schema");
        let path = {
            let store = AnalysisStore::open(&dir, fp(2)).expect("open");
            store.record_verdict(&sample_key(0), Proof::Proved);
            store.flush();
            store.path().to_path_buf()
        };
        let mut bytes = std::fs::read(&path).expect("file exists");
        // Pretend a future schema wrote this file.
        bytes[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        let store = AnalysisStore::open(&dir, fp(2)).expect("reopen");
        assert_eq!(store.verdict_count(), 0, "newer schema loads cold");
        // The rewritten file is usable again.
        assert!(store.record_verdict(&sample_key(5), Proof::Ambiguous));
        store.flush();
        let store = AnalysisStore::open(&dir, fp(2)).expect("third open");
        assert_eq!(store.lookup_verdict(&sample_key(5)), Some(Proof::Ambiguous));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_fingerprint_mismatch_is_a_cold_start() {
        let dir = temp_store_dir("fingerprint");
        let path = {
            let store = AnalysisStore::open(&dir, fp(3)).expect("open");
            store.record_verdict(&sample_key(0), Proof::Proved);
            store.flush();
            store.path().to_path_buf()
        };
        // Different fingerprints normally live in different files; simulate
        // a renamed/copied file by corrupting the header fingerprint.
        let mut bytes = std::fs::read(&path).expect("file exists");
        bytes[12..20].copy_from_slice(&99u64.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite");
        let store = AnalysisStore::open(&dir, fp(3)).expect("reopen");
        assert_eq!(
            store.verdict_count(),
            0,
            "foreign engine fingerprint loads cold"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_fingerprints_use_distinct_files() {
        let dir = temp_store_dir("ablation");
        let a = AnalysisStore::open(&dir, fp(10)).expect("open a");
        let b = AnalysisStore::open(&dir, fp(11)).expect("open b");
        assert_ne!(a.path(), b.path());
        a.record_verdict(&sample_key(0), Proof::Proved);
        a.flush();
        assert_eq!(
            b.lookup_verdict(&sample_key(0)),
            None,
            "ablation legs never cross-contaminate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_keeps_the_valid_prefix_and_stays_appendable() {
        let dir = temp_store_dir("truncated");
        let path = {
            let store = AnalysisStore::open(&dir, fp(4)).expect("open");
            for i in 0..3 {
                store.record_verdict(&sample_key(i), Proof::Proved);
            }
            store.flush();
            store.path().to_path_buf()
        };
        let bytes = std::fs::read(&path).expect("file exists");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("truncate");
        let store = AnalysisStore::open(&dir, fp(4)).expect("reopen");
        assert_eq!(store.verdict_count(), 2, "only the torn record is lost");
        assert!(store.record_verdict(&sample_key(3), Proof::Refuted));
        store.flush();
        let store = AnalysisStore::open(&dir, fp(4)).expect("third open");
        assert_eq!(
            store.verdict_count(),
            3,
            "appends after tail repair parse cleanly"
        );
        assert_eq!(store.lookup_verdict(&sample_key(3)), Some(Proof::Refuted));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_short_files_load_cold_without_panicking() {
        for (tag, content) in [
            ("garbage", b"not a store file at all, definitely".to_vec()),
            ("short", b"CPCF".to_vec()),
            ("empty", Vec::new()),
        ] {
            let dir = temp_store_dir(tag);
            std::fs::create_dir_all(&dir).expect("mkdir");
            let path = dir.join(format!("store-{:016x}.bin", 5u64));
            std::fs::write(&path, &content).expect("write garbage");
            let store = AnalysisStore::open(&dir, fp(5)).expect("open");
            assert_eq!(store.verdict_count(), 0);
            assert_eq!(store.lemma_count(), 0);
            assert!(store.record_verdict(&sample_key(0), Proof::Proved));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_record_crc_drops_the_tail_only() {
        let dir = temp_store_dir("crc");
        let path = {
            let store = AnalysisStore::open(&dir, fp(6)).expect("open");
            for i in 0..3 {
                store.record_verdict(&sample_key(i), Proof::Proved);
            }
            store.record_export("m", "f", 1, &ExportAnalysis::Verified);
            store.flush();
            store.path().to_path_buf()
        };
        let mut bytes = std::fs::read(&path).expect("file exists");
        // Flip a byte inside the second record's payload: records 2.. are
        // dropped, record 1 survives.
        let first_len =
            u32::from_le_bytes(bytes[HEADER_LEN..HEADER_LEN + 4].try_into().expect("4")) as usize;
        let second_payload = HEADER_LEN + 8 + first_len + 8;
        bytes[second_payload + 4] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite");
        let store = AnalysisStore::open(&dir, fp(6)).expect("reopen");
        assert_eq!(store.verdict_count(), 1);
        assert_eq!(store.cone_count(), 0, "records after the corruption drop");
        assert_eq!(store.lookup_verdict(&sample_key(0)), Some(Proof::Proved));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_analysis_round_trips_through_the_codec() {
        for analysis in [
            ExportAnalysis::Verified,
            ExportAnalysis::Exhausted,
            ExportAnalysis::ProbableError(CBlame {
                party: "p".into(),
                message: "m".into(),
                label: Label(9),
            }),
            sample_cex(),
        ] {
            let mut enc = Enc::new();
            encode_export_analysis(&mut enc, &analysis);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            let decoded = decode_export_analysis(&mut dec).expect("decodes");
            assert!(dec.finished());
            assert_eq!(decoded, analysis);
        }
    }

    #[test]
    fn expr_codec_covers_every_variant() {
        let deep = Expr::Let {
            bindings: vec![
                ("a".into(), Expr::Complex(1, -2)),
                ("b".into(), Expr::Str("s".into())),
            ],
            recursive: true,
            body: Box::new(Expr::Begin(vec![
                Expr::And(vec![Expr::Bool(true), Expr::Nil]),
                Expr::Or(vec![Expr::Opaque(Label(1))]),
                Expr::Mon {
                    contract: Box::new(Expr::CArrow(
                        vec![Expr::CAnd(vec![Expr::CAny])],
                        Box::new(Expr::COr(vec![Expr::CCons(
                            Box::new(Expr::CAny),
                            Box::new(Expr::CListOf(Box::new(Expr::COneOf(vec![Expr::Int(1)])))),
                        )])),
                    )),
                    value: Box::new(Expr::If(
                        Box::new(Expr::StructPred("n".into(), Box::new(Expr::var("x")))),
                        Box::new(Expr::StructGet(
                            "n".into(),
                            1,
                            Box::new(Expr::StructMake("n".into(), vec![Expr::Int(4)])),
                            Label(2),
                        )),
                        Box::new(Expr::app(
                            Expr::lam(vec!["y"], Expr::Prim(Prim::Car, vec![], Label(5))),
                            vec![Expr::Int(0)],
                        )),
                    )),
                    pos: "pos".into(),
                    neg: "neg".into(),
                    label: Label(3),
                },
            ])),
        };
        let mut enc = Enc::new();
        encode_expr(&mut enc, &deep);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(decode_expr(&mut dec).expect("decodes"), deep);
        assert!(dec.finished());
    }

    #[test]
    fn a_store_written_by_the_big_step_evaluator_opens_cold() {
        // The token list before the worklist search: its stores hold
        // verdicts of an evaluator that stopped at `budget` where the
        // search now finds a counterexample, so they must not be served.
        let options = crate::analyze::AnalyzeOptions::default();
        let eval = &options.eval;
        let big_step = EngineFingerprint::from_tokens([
            format!("schema={SCHEMA_VERSION}"),
            format!("solver={:?}", eval.solver),
            format!("fuel={}", eval.fuel),
            format!("max_branches={}", eval.max_branches),
            format!("havoc_depth={}", eval.havoc_depth),
            format!("validate={}", options.validate),
            format!("context_depth={}", options.context_depth),
            format!("lemma_sharing={}", folic::default_lemma_sharing()),
        ]);
        let worklist = EngineFingerprint::for_analyze(&options);
        assert_ne!(big_step, worklist);
        let dir = temp_store_dir("big-step");
        {
            let store = AnalysisStore::open(&dir, big_step).expect("open");
            store.record_export("sumt", "main", 7, &ExportAnalysis::Exhausted);
            store.record_verdict(&sample_key(0), Proof::Proved);
            store.flush();
        }
        let store = AnalysisStore::open(&dir, worklist).expect("reopen");
        assert_eq!(store.verdict_count(), 0, "no proof verdict carries over");
        assert_eq!(store.lookup_export("sumt", "main", 7), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_fingerprint_tracks_verdict_relevant_options() {
        let base = crate::analyze::AnalyzeOptions::default();
        let mut bigger_fuel = base.clone();
        bigger_fuel.eval.fuel += 1;
        let mut deeper = base.clone();
        deeper.context_depth += 1;
        let same = base.clone();
        assert_eq!(
            EngineFingerprint::for_analyze(&base),
            EngineFingerprint::for_analyze(&same)
        );
        assert_ne!(
            EngineFingerprint::for_analyze(&base),
            EngineFingerprint::for_analyze(&bigger_fuel)
        );
        assert_ne!(
            EngineFingerprint::for_analyze(&base),
            EngineFingerprint::for_analyze(&deeper)
        );
        // Worker counts are excluded: verdicts are scheduling-independent.
        let mut sharded = base.clone();
        sharded.workers = 7;
        assert_eq!(
            EngineFingerprint::for_analyze(&base),
            EngineFingerprint::for_analyze(&sharded)
        );
    }
}
