//! Lowering of typed SPCF onto CPCF, whose evaluator, prover and
//! counterexample reconstruction then analyse the program.
//!
//! A well-typed program `e` with opaque values `•ᵀ¹ … •ᵀᵏ` becomes one
//! module exporting a function of the opaques:
//!
//! ```text
//! (module spcf
//!   (provide [main (-> T₁′ … Tₖ′ any/c)])
//!   (define (main •₁ … •ₖ) e′))
//! ```
//!
//! `e′` is `e` with each `•ᵢ` replaced by the parameter `•ᵢ`. cpcf's
//! analysis supplies the most general context for `main`: opaque arguments
//! under the domain contracts, which is what `•ᵀ` means in SPCF. Errors in
//! `e` blame the module; a context that breaks a domain contract blames
//! itself, so only the program's own errors count.
//!
//! | SPCF                     | CPCF                                   |
//! |--------------------------|----------------------------------------|
//! | `int`                    | `integer?`                             |
//! | `T → U`                  | `(-> T′ U′)`                           |
//! | `(if c t e)` (0 is false)| `(if (= c 0) e t)`                     |
//! | `(< a b)`, `(= a b)`, …  | `(if (< a b) 1 0)`, …                  |
//! | `(zero? a)`, `(not a)`   | `(if (= a 0) 1 0)`                     |
//! | `(assert a)`             | `(let ([v a]) (if (= v 0) (assert #f) v))` |
//! | `(fix (f : T) e)`        | `(letrec ([f e′]) f)`                  |
//!
//! Primitive applications keep their SPCF labels, so blame points back into
//! the SPCF source.

use cpcf::{
    AnalyzeOptions, Definition, ExportAnalysis, Expr as CExpr, Label as CLabel, Module, Prim,
    Program, Provide,
};

use crate::syntax::{Expr, Label, Op};
use crate::typecheck::{check_program, TypeError};
use crate::types::Type;

/// The name of the module a program lowers to (the party its errors blame).
pub const MODULE: &str = "spcf";

/// The name of the module's one export.
const EXPORT: &str = "main";

/// A lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct Lowered {
    /// The CPCF program: the one module [`MODULE`].
    pub program: Program,
    /// The SPCF opaque labels, in the order of `main`'s parameters.
    pub opaques: Vec<Label>,
}

/// Lowers a program onto CPCF.
///
/// # Errors
///
/// Returns the [`TypeError`] of an ill-typed program.
pub fn lower(program: &Expr) -> Result<Lowered, TypeError> {
    check_program(program)?;
    let opaques = program.opaque_labels();
    let mut lowering = Lowering {
        next_label: opaques
            .iter()
            .map(|(label, _)| *label)
            .chain(program.known_labels())
            .map(|label| label.0 + 1)
            .max()
            .unwrap_or(0),
    };
    let contract = CExpr::CArrow(
        opaques
            .iter()
            .map(|(_, ty)| lowering.contract(ty))
            .collect(),
        Box::new(CExpr::CAny),
    );
    let main = CExpr::lam(
        opaques.iter().map(|(label, _)| parameter(*label)).collect(),
        lowering.expr(program),
    );
    let module = Module {
        name: MODULE.to_string(),
        structs: Vec::new(),
        definitions: vec![Definition {
            name: EXPORT.to_string(),
            body: main,
        }],
        provides: vec![Provide {
            name: EXPORT.to_string(),
            contract,
        }],
    };
    Ok(Lowered {
        program: Program {
            modules: vec![module],
        },
        opaques: opaques.into_iter().map(|(label, _)| label).collect(),
    })
}

/// Analyses a program with cpcf's default options. A counterexample's
/// bindings are keyed by the SPCF opaque labels.
///
/// # Errors
///
/// Returns the [`TypeError`] of an ill-typed program.
pub fn analyze(program: &Expr) -> Result<ExportAnalysis, TypeError> {
    let lowered = lower(program)?;
    let report = cpcf::analyze_module(&lowered.program, MODULE, &AnalyzeOptions::default());
    let (_, verdict) = report
        .exports
        .into_iter()
        .next()
        .expect("the lowered module has one export");
    Ok(match verdict {
        ExportAnalysis::Counterexample(mut cex) => {
            // The context's opaque arguments are `main`'s, in order.
            cex.bindings = lowered
                .opaques
                .iter()
                .zip(cex.bindings)
                .map(|(label, (_, expr))| (CLabel(label.0), expr))
                .collect();
            ExportAnalysis::Counterexample(cex)
        }
        other => other,
    })
}

/// The parameter standing for an opaque value. The space keeps it apart
/// from every SPCF identifier, which is a single token.
fn parameter(label: Label) -> String {
    format!("• {}", label.0)
}

struct Lowering {
    /// Labels for sites SPCF has no label for, above every SPCF label.
    next_label: u32,
}

impl Lowering {
    fn fresh(&mut self) -> CLabel {
        let label = CLabel(self.next_label);
        self.next_label += 1;
        label
    }

    fn contract(&mut self, ty: &Type) -> CExpr {
        match ty {
            Type::Int => {
                let label = self.fresh();
                CExpr::lam(
                    vec!["n"],
                    CExpr::Prim(Prim::IsInteger, vec![CExpr::var("n")], label),
                )
            }
            Type::Arrow(dom, rng) => {
                CExpr::CArrow(vec![self.contract(dom)], Box::new(self.contract(rng)))
            }
        }
    }

    /// `(= e 0)`, labelled afresh.
    fn is_zero(&mut self, e: CExpr) -> CExpr {
        let label = self.fresh();
        CExpr::Prim(Prim::NumEq, vec![e, CExpr::Int(0)], label)
    }

    fn expr(&mut self, expr: &Expr) -> CExpr {
        match expr {
            Expr::Var(x) => CExpr::var(x),
            Expr::Num(n) => CExpr::Int(*n),
            Expr::Opaque(_, label) => CExpr::var(parameter(*label)),
            Expr::Lam { param, body, .. } => CExpr::lam(vec![param.clone()], self.expr(body)),
            Expr::App(f, a) => CExpr::app(self.expr(f), vec![self.expr(a)]),
            Expr::If(c, t, e) => {
                let test = self.expr(c);
                let test = self.is_zero(test);
                CExpr::ite(test, self.expr(e), self.expr(t))
            }
            Expr::Fix { name, body, .. } => CExpr::Let {
                bindings: vec![(name.clone(), self.expr(body))],
                recursive: true,
                body: Box::new(CExpr::var(name)),
            },
            Expr::Prim(op, args, label) => {
                let args = args.iter().map(|a| self.expr(a)).collect();
                self.prim(*op, args, CLabel(label.0))
            }
        }
    }

    fn prim(&mut self, op: Op, mut args: Vec<CExpr>, label: CLabel) -> CExpr {
        let as_int = |test| CExpr::ite(test, CExpr::Int(1), CExpr::Int(0));
        let prim = match op {
            Op::Add => Prim::Add,
            Op::Sub => Prim::Sub,
            Op::Mul => Prim::Mul,
            Op::Div => Prim::Div,
            Op::Mod => Prim::Mod,
            Op::Add1 => Prim::Add1,
            Op::Sub1 => Prim::Sub1,
            Op::Eq => return as_int(CExpr::Prim(Prim::NumEq, args, label)),
            Op::Lt => return as_int(CExpr::Prim(Prim::Lt, args, label)),
            Op::Le => return as_int(CExpr::Prim(Prim::Le, args, label)),
            Op::Gt => return as_int(CExpr::Prim(Prim::Gt, args, label)),
            Op::Ge => return as_int(CExpr::Prim(Prim::Ge, args, label)),
            Op::IsZero | Op::Not => {
                args.push(CExpr::Int(0));
                return as_int(CExpr::Prim(Prim::NumEq, args, label));
            }
            Op::Assert => {
                let test = self.is_zero(CExpr::var("v"));
                return CExpr::Let {
                    bindings: vec![("v".to_string(), args.remove(0))],
                    recursive: false,
                    body: Box::new(CExpr::ite(
                        test,
                        CExpr::Prim(Prim::Assert, vec![CExpr::Bool(false)], label),
                        CExpr::var("v"),
                    )),
                };
            }
        };
        CExpr::Prim(prim, args, label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;

    /// The verdict of a program, which must type-check.
    fn verdict(source: &str) -> ExportAnalysis {
        analyze(&parse(source).expect("parses")).expect("type-checks")
    }

    fn validated(verdict: ExportAnalysis) -> cpcf::Counterexample {
        match verdict {
            ExportAnalysis::Counterexample(cex) if cex.validated => cex,
            other => panic!("expected a validated counterexample, got {other:?}"),
        }
    }

    #[test]
    fn opaques_become_parameters_under_their_contracts() {
        let lowered = lower(&parse("(+ (• int) ((• (-> int int)) 1))").expect("parses"))
            .expect("type-checks");
        assert_eq!(lowered.opaques, vec![Label(1), Label(2)]);
        let module = &lowered.program.modules[0];
        let CExpr::CArrow(doms, rng) = &module.provides[0].contract else {
            panic!("main's contract is an arrow");
        };
        assert_eq!(doms.len(), 2);
        assert!(matches!(doms[1], CExpr::CArrow(_, _)));
        assert_eq!(**rng, CExpr::CAny);
        let CExpr::Lam { params, .. } = &module.definitions[0].body else {
            panic!("main is a lambda");
        };
        assert_eq!(params, &["• 1", "• 2"]);
    }

    #[test]
    fn ill_typed_programs_are_rejected() {
        let program = parse("((lambda (x : int) x) (lambda (y : int) y))").expect("parses");
        assert!(matches!(lower(&program), Err(TypeError::Mismatch { .. })));
    }

    #[test]
    fn worked_example_has_a_higher_order_counterexample() {
        // The §2 program: the context calls f with a function returning 100.
        let cex = validated(verdict(
            "((• (-> (-> (-> int int) int int) int))
              (lambda (g : (-> int int)) (lambda (n : int)
                (div 1 (- 100 (g n))))))",
        ));
        assert_eq!(cex.blame.party, MODULE);
        assert_eq!(cex.blame.label, CLabel(1), "the SPCF label of `div`");
        let [(label, CExpr::Lam { params, body })] = cex.bindings.as_slice() else {
            panic!("one lambda binding, got {:?}", cex.bindings);
        };
        assert_eq!(*label, CLabel(0));
        let mut applies = false;
        body.walk(&mut |e| {
            applies |= matches!(e, CExpr::App(f, _) if **f == CExpr::var(&params[0]));
        });
        assert!(applies, "got {body:?}");
    }

    #[test]
    fn safe_program_is_verified() {
        let verdict = verdict("((lambda (x : int) (+ x 1)) (• int))");
        assert!(verdict.is_verified(), "got {verdict:?}");
    }

    #[test]
    fn guarded_division_is_verified() {
        let verdict = verdict("((lambda (n : int) (if (zero? n) 0 (div 100 n))) (• int))");
        assert!(verdict.is_verified(), "got {verdict:?}");
    }

    #[test]
    fn unguarded_division_yields_counterexample() {
        let cex = validated(verdict("((lambda (n : int) (div 100 n)) (• int))"));
        assert_eq!(cex.bindings, vec![(CLabel(1), CExpr::Int(0))]);
    }

    #[test]
    fn quickcheck_hard_case_is_found() {
        let cex = validated(verdict("((lambda (n : int) (div 1 (- 100 n))) (• int))"));
        assert_eq!(cex.bindings, vec![(CLabel(2), CExpr::Int(100))]);
    }

    #[test]
    fn recursion_lowers_to_letrec() {
        let verdict = verdict(
            "(let (f : (-> int int) (fix (f : (-> int int)) (lambda (n : int)
               (if (<= n 0) 1 (* n (f (- n 1))))))) (div 1 (f 5)))",
        );
        assert!(verdict.is_verified(), "got {verdict:?}");
    }

    #[test]
    fn comparisons_and_assertions_keep_their_0_1_meaning() {
        // (assert (< n 7)) fails exactly when n ≥ 7.
        let cex = validated(verdict("((lambda (n : int) (assert (< n 7))) (• int))"));
        let [(_, CExpr::Int(n))] = cex.bindings.as_slice() else {
            panic!("one integer binding, got {:?}", cex.bindings);
        };
        assert!(*n >= 7, "got {n}");
    }
}
