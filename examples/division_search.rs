//! The §5.2 comparison with random testing: `f n = 1 / (100 - n)`.
//!
//! QuickCheck's default integer generator draws from a small range
//! (the paper quotes −99..=99), so it never tries `n = 100`; symbolic
//! execution reads the `100` out of the program's own arithmetic.
//!
//! Run with `cargo run --example division_search`; it exits 1 when the
//! symbolic analysis misses its validated counterexample or the default
//! random tester finds the bug after all.

use cpcf::{analyze_source, ExportAnalysis};
use randtest::{test_source, RandTestConfig};

const PROGRAM: &str = r#"
(module div100
  (provide [f (-> integer? integer?)])
  (define (f n) (/ 1 (- 100 n))))
"#;

fn main() {
    println!("program: f n = 1 / (100 - n)\n");

    // 1. Symbolic analysis.
    let report = analyze_source(PROGRAM).expect("parses");
    let mut unexpected = false;
    match &report.exports[0].1 {
        ExportAnalysis::Counterexample(cex) if cex.validated => {
            println!("symbolic analysis found a validated counterexample:");
            for (label, expr) in &cex.bindings {
                println!("  {label} = {expr}");
            }
            println!();
        }
        other => {
            println!("symbolic analysis (unexpected!): {other:?}\n");
            unexpected = true;
        }
    }

    // 2. Random testing with the default small-integer generator.
    let result = test_source(PROGRAM, RandTestConfig::default()).expect("parses");
    unexpected |= result.found_bug();
    println!(
        "random testing with integers in -99..=99: {}",
        if result.found_bug() {
            "found the bug (unexpected!)"
        } else {
            "did NOT find the bug — n = 100 is outside the generator's range"
        }
    );

    // 3. Random testing again with a widened generator.
    let widened = RandTestConfig {
        int_range: (-1000, 1000),
        num_tests: 50_000,
        ..RandTestConfig::default()
    };
    let result = test_source(PROGRAM, widened).expect("parses");
    match result {
        randtest::RandTestResult::Failed { tests, inputs } => {
            println!(
            "random testing with integers in -1000..=1000: found the bug after {tests} tests: {}",
            inputs.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
        )
        }
        randtest::RandTestResult::Passed { tests } => println!(
            "random testing with integers in -1000..=1000: still nothing after {tests} tests"
        ),
    }
    if unexpected {
        std::process::exit(1);
    }
}
