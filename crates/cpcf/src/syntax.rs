//! Abstract syntax of Contract PCF (CPCF): an untyped, higher-order language
//! with first-class contracts, user-defined structures, mutable boxes and a
//! simple module system — the language the paper's soft-contract
//! verification tool analyses (§4–§5).

use std::collections::HashMap;
use std::fmt;

/// A source label identifying a potentially-failing site or an opaque value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// Primitive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prim {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (truncated integer division; partial)
    Div,
    /// `modulo` (partial)
    Mod,
    /// `add1`
    Add1,
    /// `sub1`
    Sub1,
    /// `<` (requires real operands)
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=` numeric equality
    NumEq,
    /// `zero?`
    IsZero,
    /// `not`
    Not,
    /// `number?`
    IsNumber,
    /// `real?`
    IsReal,
    /// `integer?`
    IsInteger,
    /// `procedure?`
    IsProcedure,
    /// `pair?`
    IsPair,
    /// `null?` (also `empty?`)
    IsNull,
    /// `boolean?`
    IsBoolean,
    /// `string?`
    IsString,
    /// `cons`
    Cons,
    /// `car` (partial)
    Car,
    /// `cdr` (partial)
    Cdr,
    /// `equal?`
    Equal,
    /// `assert` — blames when given `#f`, the only false value (Racket
    /// truthiness: `0` passes), and otherwise returns its argument.
    Assert,
    /// `error` — unconditionally blames.
    Raise,
    /// `box`
    MakeBox,
    /// `unbox` (partial: requires a box)
    Unbox,
    /// `set-box!` (partial: requires a box)
    SetBox,
    /// `string-length` (partial: requires a string)
    StringLength,
    /// `box?`
    IsBox,
}

impl Prim {
    /// The number of arguments the primitive expects, or `None` for
    /// variadic primitives (`+`, `*`, `list`-like).
    pub fn arity(self) -> Option<usize> {
        Some(match self {
            Prim::Add | Prim::Sub | Prim::Mul => return None,
            Prim::Div
            | Prim::Mod
            | Prim::Lt
            | Prim::Le
            | Prim::Gt
            | Prim::Ge
            | Prim::NumEq
            | Prim::Cons
            | Prim::Equal
            | Prim::SetBox => 2,
            _ => 1,
        })
    }

    /// Surface name of the primitive.
    pub fn name(self) -> &'static str {
        match self {
            Prim::Add => "+",
            Prim::Sub => "-",
            Prim::Mul => "*",
            Prim::Div => "/",
            Prim::Mod => "modulo",
            Prim::Add1 => "add1",
            Prim::Sub1 => "sub1",
            Prim::Lt => "<",
            Prim::Le => "<=",
            Prim::Gt => ">",
            Prim::Ge => ">=",
            Prim::NumEq => "=",
            Prim::IsZero => "zero?",
            Prim::Not => "not",
            Prim::IsNumber => "number?",
            Prim::IsReal => "real?",
            Prim::IsInteger => "integer?",
            Prim::IsProcedure => "procedure?",
            Prim::IsPair => "pair?",
            Prim::IsNull => "null?",
            Prim::IsBoolean => "boolean?",
            Prim::IsString => "string?",
            Prim::Cons => "cons",
            Prim::Car => "car",
            Prim::Cdr => "cdr",
            Prim::Equal => "equal?",
            Prim::Assert => "assert",
            Prim::Raise => "error",
            Prim::MakeBox => "box",
            Prim::Unbox => "unbox",
            Prim::SetBox => "set-box!",
            Prim::StringLength => "string-length",
            Prim::IsBox => "box?",
        }
    }

    /// Looks a primitive up by its surface name.
    pub fn from_name(name: &str) -> Option<Prim> {
        Some(match name {
            "+" => Prim::Add,
            "-" => Prim::Sub,
            "*" => Prim::Mul,
            "/" | "quotient" => Prim::Div,
            "modulo" | "remainder" => Prim::Mod,
            "add1" => Prim::Add1,
            "sub1" => Prim::Sub1,
            "<" => Prim::Lt,
            "<=" => Prim::Le,
            ">" => Prim::Gt,
            ">=" => Prim::Ge,
            "=" => Prim::NumEq,
            "zero?" => Prim::IsZero,
            "not" => Prim::Not,
            "number?" => Prim::IsNumber,
            "real?" => Prim::IsReal,
            "integer?" | "exact-integer?" => Prim::IsInteger,
            "procedure?" => Prim::IsProcedure,
            "pair?" | "cons?" => Prim::IsPair,
            "null?" | "empty?" => Prim::IsNull,
            "boolean?" => Prim::IsBoolean,
            "string?" => Prim::IsString,
            "cons" => Prim::Cons,
            "car" | "first" => Prim::Car,
            "cdr" | "rest" => Prim::Cdr,
            "equal?" | "eq?" | "eqv?" => Prim::Equal,
            "assert" => Prim::Assert,
            "error" => Prim::Raise,
            "box" => Prim::MakeBox,
            "unbox" => Prim::Unbox,
            "set-box!" => Prim::SetBox,
            "string-length" => Prim::StringLength,
            "box?" => Prim::IsBox,
            _ => return None,
        })
    }
}

impl fmt::Display for Prim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Blame: which party broke which obligation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CBlame {
    /// The blamed party (a module name, `"context"`, or `"prim"` for raw
    /// primitive misuse inside the blamed party's code).
    pub party: String,
    /// Human-readable description of the violated obligation.
    pub message: String,
    /// The source label of the failing site.
    pub label: Label,
}

impl fmt::Display for CBlame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "blame {}: {} (at {})",
            self.party, self.message, self.label
        )
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Variable reference.
    Var(String),
    /// Integer literal.
    Int(i64),
    /// Exact complex literal.
    Complex(i64, i64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// The empty list `'()`.
    Nil,
    /// `(lambda (x …) body)`
    Lam {
        /// Parameter names.
        params: Vec<String>,
        /// Body.
        body: Box<Expr>,
    },
    /// Application.
    App(Box<Expr>, Vec<Expr>),
    /// `(if c t e)`
    If(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Short-circuiting conjunction.
    And(Vec<Expr>),
    /// Short-circuiting disjunction.
    Or(Vec<Expr>),
    /// Sequencing.
    Begin(Vec<Expr>),
    /// `(let ([x e] …) body)` — kept primitive (not desugared) so that
    /// recursive local bindings via `letrec` can share the machinery.
    Let {
        /// Bindings, evaluated left to right.
        bindings: Vec<(String, Expr)>,
        /// Whether bindings are in scope in their own right-hand sides.
        recursive: bool,
        /// Body.
        body: Box<Expr>,
    },
    /// Primitive application.
    Prim(Prim, Vec<Expr>, Label),
    /// An opaque (unknown) value.
    Opaque(Label),
    /// Function contract `(-> dom … rng)`.
    CArrow(Vec<Expr>, Box<Expr>),
    /// `(and/c c …)`
    CAnd(Vec<Expr>),
    /// `(or/c c …)`
    COr(Vec<Expr>),
    /// `(cons/c c c)`
    CCons(Box<Expr>, Box<Expr>),
    /// `(listof c)`
    CListOf(Box<Expr>),
    /// `(one-of/c v …)`
    COneOf(Vec<Expr>),
    /// `any/c`
    CAny,
    /// Contract monitoring `monᵖᵒˢ,ⁿᵉᵍ(contract, value)`.
    Mon {
        /// Contract expression.
        contract: Box<Expr>,
        /// Monitored expression.
        value: Box<Expr>,
        /// Party blamed when the value breaks the contract.
        pos: String,
        /// Party blamed when the context breaks the contract.
        neg: String,
        /// Source label of the monitor.
        label: Label,
    },
    /// Construct a struct instance.
    StructMake(String, Vec<Expr>),
    /// Test for a struct tag.
    StructPred(String, Box<Expr>),
    /// Project a struct field (partial).
    StructGet(String, usize, Box<Expr>, Label),
}

impl Expr {
    /// `(lambda (params…) body)`
    pub fn lam<S: Into<String>>(params: Vec<S>, body: Expr) -> Expr {
        Expr::Lam {
            params: params.into_iter().map(Into::into).collect(),
            body: Box::new(body),
        }
    }

    /// Application.
    pub fn app(function: Expr, args: Vec<Expr>) -> Expr {
        Expr::App(Box::new(function), args)
    }

    /// Variable.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Conditional.
    pub fn ite(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::If(Box::new(c), Box::new(t), Box::new(e))
    }

    /// Collects the labels of opaque sub-expressions.
    pub fn opaque_labels(&self) -> Vec<Label> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Opaque(label) = e {
                if !out.contains(label) {
                    out.push(*label);
                }
            }
        });
        out
    }

    /// Calls `visit` on every sub-expression (pre-order).
    pub fn walk<F: FnMut(&Expr)>(&self, visit: &mut F) {
        visit(self);
        match self {
            Expr::Var(_)
            | Expr::Int(_)
            | Expr::Complex(_, _)
            | Expr::Bool(_)
            | Expr::Str(_)
            | Expr::Nil
            | Expr::Opaque(_)
            | Expr::CAny => {}
            Expr::Lam { body, .. } => body.walk(visit),
            Expr::App(f, args) => {
                f.walk(visit);
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::If(c, t, e) => {
                c.walk(visit);
                t.walk(visit);
                e.walk(visit);
            }
            Expr::And(es)
            | Expr::Or(es)
            | Expr::Begin(es)
            | Expr::CAnd(es)
            | Expr::COr(es)
            | Expr::COneOf(es) => {
                for e in es {
                    e.walk(visit);
                }
            }
            Expr::Let { bindings, body, .. } => {
                for (_, e) in bindings {
                    e.walk(visit);
                }
                body.walk(visit);
            }
            Expr::Prim(_, args, _) | Expr::StructMake(_, args) => {
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::CArrow(doms, rng) => {
                for d in doms {
                    d.walk(visit);
                }
                rng.walk(visit);
            }
            Expr::CCons(a, b) => {
                a.walk(visit);
                b.walk(visit);
            }
            Expr::CListOf(c) => c.walk(visit),
            Expr::Mon {
                contract, value, ..
            } => {
                contract.walk(visit);
                value.walk(visit);
            }
            Expr::StructPred(_, e) => e.walk(visit),
            Expr::StructGet(_, _, e, _) => e.walk(visit),
        }
    }
}

/// Writes `(head item …)`, or `(item …)` when `head` is empty.
fn write_form<'e>(
    f: &mut fmt::Formatter<'_>,
    head: &str,
    items: impl IntoIterator<Item = &'e Expr>,
) -> fmt::Result {
    write!(f, "({head}")?;
    let mut first = head.is_empty();
    for item in items {
        if !first {
            f.write_str(" ")?;
        }
        first = false;
        write!(f, "{item}")?;
    }
    f.write_str(")")
}

/// Prints the expression as an s-expression that [`crate::parse_expr`]
/// reads back to the same expression up to source labels (the parser
/// assigns fresh ones). Struct forms read back only where their struct is
/// declared; a struct accessor prints its field by index (`point-#0`) and
/// a contract monitor as `(mon pos neg contract value)`, forms the surface
/// syntax does not have.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(name) => f.write_str(name),
            Expr::Int(n) => write!(f, "{n}"),
            Expr::Complex(re, im) => write!(f, "{re}{im:+}i"),
            Expr::Bool(b) => f.write_str(if *b { "#t" } else { "#f" }),
            Expr::Str(s) => write!(f, "\"{s}\""),
            Expr::Nil => f.write_str("'()"),
            Expr::Lam { params, body } => write!(f, "(λ ({}) {body})", params.join(" ")),
            Expr::App(function, args) => {
                write_form(f, "", std::iter::once(&**function).chain(args))
            }
            Expr::If(c, t, e) => write!(f, "(if {c} {t} {e})"),
            Expr::And(es) => write_form(f, "and", es),
            Expr::Or(es) => write_form(f, "or", es),
            Expr::Begin(es) => write_form(f, "begin", es),
            Expr::Let {
                bindings,
                recursive,
                body,
            } => {
                f.write_str(if *recursive { "(letrec (" } else { "(let (" })?;
                for (index, (name, value)) in bindings.iter().enumerate() {
                    let sep = if index == 0 { "" } else { " " };
                    write!(f, "{sep}[{name} {value}]")?;
                }
                write!(f, ") {body})")
            }
            Expr::Prim(prim, args, _) => write_form(f, prim.name(), args),
            Expr::Opaque(_) => f.write_str("•"),
            Expr::CArrow(doms, rng) => write_form(f, "->", doms.iter().chain([&**rng])),
            Expr::CAnd(es) => write_form(f, "and/c", es),
            Expr::COr(es) => write_form(f, "or/c", es),
            Expr::CCons(car, cdr) => write!(f, "(cons/c {car} {cdr})"),
            Expr::CListOf(c) => write!(f, "(listof {c})"),
            Expr::COneOf(es) => write_form(f, "one-of/c", es),
            Expr::CAny => f.write_str("any/c"),
            Expr::Mon {
                contract,
                value,
                pos,
                neg,
                ..
            } => write!(f, "(mon {pos} {neg} {contract} {value})"),
            Expr::StructMake(name, args) => write_form(f, name, args),
            Expr::StructPred(name, e) => write!(f, "({name}? {e})"),
            Expr::StructGet(name, index, e, _) => write!(f, "({name}-#{index} {e})"),
        }
    }
}

/// A struct type declaration `(struct name (field …))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructDef {
    /// Struct name (also the constructor name).
    pub name: String,
    /// Field names, in order.
    pub fields: Vec<String>,
}

/// A top-level definition inside a module.
#[derive(Debug, Clone, PartialEq)]
pub struct Definition {
    /// Defined name.
    pub name: String,
    /// Defining expression.
    pub body: Expr,
}

/// A provided (exported) name together with its contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Provide {
    /// Exported name.
    pub name: String,
    /// Contract expression guarding the export.
    pub contract: Expr,
}

/// A module: struct declarations, definitions and contracted exports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Module {
    /// Module name (the positive blame party for its exports).
    pub name: String,
    /// Struct declarations.
    pub structs: Vec<StructDef>,
    /// Definitions, in order.
    pub definitions: Vec<Definition>,
    /// Contracted exports.
    pub provides: Vec<Provide>,
}

/// A whole program: a sequence of modules. The last module is conventionally
/// the one under analysis unless a name is given explicitly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// The modules, in definition order.
    pub modules: Vec<Module>,
}

impl Program {
    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// Replaces opaque sub-expressions by the bindings' concrete expressions.
pub fn instantiate(expr: &Expr, bindings: &HashMap<Label, Expr>) -> Expr {
    match expr {
        Expr::Opaque(label) => bindings.get(label).cloned().unwrap_or_else(|| expr.clone()),
        Expr::Var(_)
        | Expr::Int(_)
        | Expr::Complex(_, _)
        | Expr::Bool(_)
        | Expr::Str(_)
        | Expr::Nil
        | Expr::CAny => expr.clone(),
        Expr::Lam { params, body } => Expr::Lam {
            params: params.clone(),
            body: Box::new(instantiate(body, bindings)),
        },
        Expr::App(f, args) => Expr::App(
            Box::new(instantiate(f, bindings)),
            args.iter().map(|a| instantiate(a, bindings)).collect(),
        ),
        Expr::If(c, t, e) => Expr::If(
            Box::new(instantiate(c, bindings)),
            Box::new(instantiate(t, bindings)),
            Box::new(instantiate(e, bindings)),
        ),
        Expr::And(es) => Expr::And(es.iter().map(|e| instantiate(e, bindings)).collect()),
        Expr::Or(es) => Expr::Or(es.iter().map(|e| instantiate(e, bindings)).collect()),
        Expr::Begin(es) => Expr::Begin(es.iter().map(|e| instantiate(e, bindings)).collect()),
        Expr::Let {
            bindings: lets,
            recursive,
            body,
        } => Expr::Let {
            bindings: lets
                .iter()
                .map(|(n, e)| (n.clone(), instantiate(e, bindings)))
                .collect(),
            recursive: *recursive,
            body: Box::new(instantiate(body, bindings)),
        },
        Expr::Prim(p, args, label) => Expr::Prim(
            *p,
            args.iter().map(|a| instantiate(a, bindings)).collect(),
            *label,
        ),
        Expr::CArrow(doms, rng) => Expr::CArrow(
            doms.iter().map(|d| instantiate(d, bindings)).collect(),
            Box::new(instantiate(rng, bindings)),
        ),
        Expr::CAnd(es) => Expr::CAnd(es.iter().map(|e| instantiate(e, bindings)).collect()),
        Expr::COr(es) => Expr::COr(es.iter().map(|e| instantiate(e, bindings)).collect()),
        Expr::CCons(a, b) => Expr::CCons(
            Box::new(instantiate(a, bindings)),
            Box::new(instantiate(b, bindings)),
        ),
        Expr::CListOf(c) => Expr::CListOf(Box::new(instantiate(c, bindings))),
        Expr::COneOf(es) => Expr::COneOf(es.iter().map(|e| instantiate(e, bindings)).collect()),
        Expr::Mon {
            contract,
            value,
            pos,
            neg,
            label,
        } => Expr::Mon {
            contract: Box::new(instantiate(contract, bindings)),
            value: Box::new(instantiate(value, bindings)),
            pos: pos.clone(),
            neg: neg.clone(),
            label: *label,
        },
        Expr::StructMake(name, args) => Expr::StructMake(
            name.clone(),
            args.iter().map(|a| instantiate(a, bindings)).collect(),
        ),
        Expr::StructPred(name, e) => {
            Expr::StructPred(name.clone(), Box::new(instantiate(e, bindings)))
        }
        Expr::StructGet(name, index, e, label) => Expr::StructGet(
            name.clone(),
            *index,
            Box::new(instantiate(e, bindings)),
            *label,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_names_round_trip() {
        for prim in [
            Prim::Add,
            Prim::Div,
            Prim::Lt,
            Prim::IsNumber,
            Prim::IsProcedure,
            Prim::Car,
            Prim::SetBox,
            Prim::Raise,
        ] {
            assert_eq!(Prim::from_name(prim.name()), Some(prim));
        }
        assert_eq!(Prim::from_name("no-such-prim"), None);
    }

    #[test]
    fn opaque_labels_are_deduplicated() {
        let e = Expr::app(
            Expr::Opaque(Label(1)),
            vec![Expr::Opaque(Label(1)), Expr::Opaque(Label(2))],
        );
        assert_eq!(e.opaque_labels().len(), 2);
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::ite(
            Expr::Prim(Prim::IsZero, vec![Expr::var("x")], Label(0)),
            Expr::Int(1),
            Expr::app(Expr::var("f"), vec![Expr::Int(2)]),
        );
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 7);
    }

    #[test]
    fn instantiation_replaces_opaques() {
        let e = Expr::app(Expr::Opaque(Label(1)), vec![Expr::Opaque(Label(2))]);
        let identity = Expr::lam(vec!["x"], Expr::var("x"));
        let bindings = HashMap::from([(Label(1), identity.clone())]);
        let instantiated = instantiate(&e, &bindings);
        assert_eq!(
            instantiated,
            Expr::app(identity, vec![Expr::Opaque(Label(2))]),
            "bound opaques are replaced; unbound ones stay"
        );
        assert_eq!(instantiated.opaque_labels(), vec![Label(2)]);
    }

    #[test]
    fn program_lookup_by_name() {
        let mut program = Program::default();
        program.modules.push(Module {
            name: "m".to_string(),
            ..Module::default()
        });
        assert!(program.module("m").is_some());
        assert!(program.module("n").is_none());
    }
}
