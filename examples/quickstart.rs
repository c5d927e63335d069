//! Quickstart: the paper's §2 worked example, end to end.
//!
//! ```text
//! let f (g : int → int) (n : int) : int = 1 / (100 - (g n)) in (• f)
//! ```
//!
//! The unknown context `•` receives the higher-order function `f`. The
//! typed program is lowered onto cpcf (`spcf::lower`): the context becomes
//! the argument of an exported `main`, under the contract its type gives.
//! cpcf's symbolic execution lets the unknown context apply `f`, records
//! those applications, accumulates a first-order path condition, and — at
//! the division error — asks the solver for a model. It reconstructs a
//! concrete higher-order counterexample: a context that calls `f` with a
//! function returning 100.
//!
//! Run with `cargo run --example quickstart`; it exits 1 when it misses the
//! counterexample.

use spcf::{analyze, lower, parse, ExportAnalysis};

fn main() {
    let source = "((• (-> (-> (-> int int) int int) int))
                   (lambda (g : (-> int int))
                     (lambda (n : int)
                       (div 1 (- 100 (g n))))))";
    let program = parse::parse(source).expect("the worked example parses");
    println!("program:\n  {program}\n");

    let lowered = lower(&program).expect("the worked example type-checks");
    let module = &lowered.program.modules[0];
    println!(
        "lowered onto cpcf: module `{}` exports `{}`, one argument per opaque {:?}\n",
        module.name, module.provides[0].name, lowered.opaques
    );
    match &analyze(&program).expect("the worked example type-checks") {
        ExportAnalysis::Counterexample(cex) if cex.validated => {
            // The context (the only argument) must apply the function it
            // receives: `(λ (x) ((x G) N))`.
            let applies_its_argument = match &cex.bindings[0].1 {
                cpcf::Expr::Lam { params, body } => {
                    let mut applies = false;
                    body.walk(&mut |e| {
                        applies |= matches!(
                            e, cpcf::Expr::App(f, _) if **f == cpcf::Expr::var(&params[0])
                        );
                    });
                    applies
                }
                _ => false,
            };
            println!("found a counterexample, validated by concrete re-execution:");
            println!("{cex}");
            if !applies_its_argument {
                eprintln!("unexpected: the context does not apply the function it receives");
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("expected a validated counterexample, but the analysis returned {other:?}");
            std::process::exit(1);
        }
    }
}
