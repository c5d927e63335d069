//! The §4.3/§5.2 `argmin` example: a contract that is too weak.
//!
//! `argmin` requires a number-producing key function and a non-empty list,
//! and compares keys with `<`. Racket's `number?` accepts complex numbers,
//! which `<` rejects — so a key function that (legitimately, per the
//! contract) answers `0+1i` crashes `argmin` from inside. The analysis
//! produces exactly that higher-order counterexample.
//!
//! Run with `cargo run --example argmin`.

use cpcf::{analyze_source, ExportAnalysis, Expr};

const PROGRAM: &str = r#"
(module argmin
  (provide [argmin (-> (-> any/c number?) (and/c (listof integer?) pair?) any/c)])
  (define (argmin/acc f b a xs)
    (cond [(null? xs) a]
          [(< b (f (car xs))) (argmin/acc f a b (cdr xs))]
          [else (argmin/acc f (car xs) (f (car xs)) (cdr xs))]))
  (define (argmin f xs)
    (argmin/acc f (car xs) (f (car xs)) (cdr xs))))
"#;

fn main() {
    println!("argmin with contract (-> (-> any/c number?) (and/c (listof any/c) pair?) any/c)\n");
    let report = analyze_source(PROGRAM).expect("parses");
    match &report.exports[0].1 {
        ExportAnalysis::Counterexample(cex) => {
            println!("the contract is too weak — counterexample ({}):", cex.blame);
            for (label, expr) in &cex.bindings {
                println!("  {label} = {expr}");
            }
            let has_complex = cex.bindings.iter().any(|(_, e)| {
                let mut found = false;
                e.walk(&mut |sub| {
                    if matches!(sub, Expr::Complex(_, _)) {
                        found = true;
                    }
                });
                found
            });
            println!(
                "\nthe breaking key function answers with a complex number: {}",
                if has_complex {
                    "yes (as in the paper: f = (λ (x) 0+1i))"
                } else {
                    "no"
                }
            );
            println!("validated by concrete re-execution: {}", cex.validated);
        }
        other => {
            eprintln!("expected a counterexample, got {other:?}");
            std::process::exit(1);
        }
    }
}
