//! The §5.2 object-encoding example: `posn/c` and `first-quadrant?`.
//!
//! Positions are encoded as message-passing functions accepting `"x"` and
//! `"y"`. With the interface only promising `number?` answers, a conforming
//! implementation may answer `0+1i`, which crashes the comparison inside
//! `first-quadrant?`. The counterexample the analysis produces is itself an
//! object: a function from messages to values — a first step towards
//! generating classes and objects as counterexamples, as the paper puts it.
//!
//! Run with `cargo run --example first_quadrant`; it exits 1 when either
//! interface misses its expected verdict.

use cpcf::{analyze_source, ExportAnalysis};

const WEAK: &str = r#"
(module first-quadrant
  (provide [first-quadrant? (-> (-> (one-of/c "x" "y") number?) boolean?)])
  (define (first-quadrant? p)
    (and (>= (p "x") 0) (>= (p "y") 0))))
"#;

const STRONG: &str = r#"
(module first-quadrant
  (provide [first-quadrant? (-> (-> (one-of/c "x" "y") integer?) boolean?)])
  (define (first-quadrant? p)
    (and (>= (p "x") 0) (>= (p "y") 0))))
"#;

fn main() {
    println!("-- interface answering number? (too weak) --");
    let mut unexpected = false;
    let report = analyze_source(WEAK).expect("parses");
    match &report.exports[0].1 {
        ExportAnalysis::Counterexample(cex) if cex.validated => {
            println!("validated counterexample found ({}):", cex.blame);
            for (label, expr) in &cex.bindings {
                println!("  {label} = {expr}");
            }
            println!();
        }
        other => {
            println!("unexpected: {other:?}\n");
            unexpected = true;
        }
    }

    println!("-- interface answering integer? (strong enough) --");
    let report = analyze_source(STRONG).expect("parses");
    match &report.exports[0].1 {
        ExportAnalysis::Verified => println!("verified: no counterexample exists"),
        other => {
            println!("unexpected: {other:?}");
            unexpected = true;
        }
    }
    if unexpected {
        std::process::exit(1);
    }
}
