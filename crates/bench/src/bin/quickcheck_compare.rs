//! The §5.2 qualitative comparison: symbolic counterexample generation
//! versus QuickCheck-style random testing on `f n = 1/(100 - n)`.
//!
//! The paper's point is that a random tester with the default small-integer
//! generator (−99..=99) never tries `n = 100`, while symbolic execution
//! derives it directly from the program's own arithmetic.
//!
//! Usage: `cargo run --release -p bench --bin quickcheck_compare`

use std::time::Instant;

use cpcf::{analyze_source_with, AnalyzeOptions};
use randtest::{test_source, RandTestConfig, RandTestResult};

const DIV100: &str = r#"
(module div100
  (provide [f (-> integer? integer?)])
  (define (f n) (/ 1 (- 100 n))))
"#;

/// The inputs as space-separated s-expressions.
fn show<'e>(inputs: impl IntoIterator<Item = &'e cpcf::Expr>) -> String {
    let printed: Vec<String> = inputs.into_iter().map(ToString::to_string).collect();
    printed.join(" ")
}

fn main() {
    println!("program: f n = 1 / (100 - n)   (bug requires exactly n = 100)\n");

    // Symbolic analysis.
    let start = Instant::now();
    let report = analyze_source_with(DIV100, &AnalyzeOptions::default()).expect("parses");
    let elapsed = start.elapsed();
    match report.first_counterexample() {
        Some(cex) => println!(
            "symbolic execution : found a validated counterexample in {elapsed:?}: {}",
            show(cex.bindings.iter().map(|(_, e)| e))
        ),
        None => println!("symbolic execution : no counterexample ({elapsed:?})"),
    }

    // Random testing with the paper's quoted default range, then widened.
    for (label, range, tests) in [
        ("random (-99..=99)  ", (-99, 99), 10_000u32),
        ("random (-200..=200)", (-200, 200), 10_000u32),
    ] {
        let config = RandTestConfig {
            int_range: range,
            num_tests: tests,
            ..RandTestConfig::default()
        };
        let start = Instant::now();
        let result = test_source(DIV100, config).expect("parses");
        let elapsed = start.elapsed();
        match result {
            RandTestResult::Failed { tests, inputs } => println!(
                "{label}: found a failing input after {tests} tests in {elapsed:?}: {}",
                show(&inputs)
            ),
            RandTestResult::Passed { tests } => {
                println!("{label}: no failing input after {tests} tests in {elapsed:?}")
            }
        }
    }
}
