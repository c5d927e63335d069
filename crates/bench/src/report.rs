//! Rendering harness results in the shape of the paper's Table 1, plus a
//! machine-readable JSON report carrying the prover-session statistics.

use std::fmt::Write as _;

use cpcf::{SessionStats, Tally};
use serde::{JsonObject, Serialize};

use crate::harness::{counter_fields, stats_json, ProgramResult, RowCounters, Verdict};

/// Renders results as a text table with the same columns as Table 1:
/// program, lines, order, time to analyse the correct variant, time to
/// refute the incorrect variant. Cells show the verdict marker when the
/// outcome is not the expected one (so "probable"/"budget" stand out the
/// way the paper's `*` rows do).
pub fn render_table(results: &[ProgramResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>6} {:>16} {:>18}",
        "Program", "Lines", "Order", "Correct (ms)", "Incorrect (ms)"
    );
    let mut current_group = None;
    for result in results {
        if current_group != Some(&result.group) {
            let _ = writeln!(out, "--- {}", result.group);
            current_group = Some(&result.group);
        }
        let correct_cell = match result.correct_verdict {
            Verdict::Verified => format!("{}", result.correct_ms),
            other => format!("{} ({})", result.correct_ms, other.marker()),
        };
        let faulty_cell = match result.faulty_verdict {
            Verdict::Counterexample => format!("{}", result.faulty_ms),
            other if result.expected_unsolved => {
                format!("{} ({})*", result.faulty_ms, other.marker())
            }
            other => format!("{} ({})", result.faulty_ms, other.marker()),
        };
        let _ = writeln!(
            out,
            "{:<16} {:>6} {:>6} {:>16} {:>18}",
            result.name, result.lines, result.order, correct_cell, faulty_cell
        );
    }
    out
}

/// A short summary: how many rows match the paper's expectation.
pub fn summarize(results: &[ProgramResult]) -> String {
    let total = results.len();
    let matching = results.iter().filter(|r| r.matches_expectation()).count();
    let counterexamples = results
        .iter()
        .filter(|r| r.faulty_verdict == Verdict::Counterexample)
        .count();
    let verified = results
        .iter()
        .filter(|r| r.correct_verdict == Verdict::Verified)
        .count();
    format!(
        "{matching}/{total} rows match the paper's expectation \
         ({verified} correct variants verified, {counterexamples} faulty variants refuted \
         with validated concrete counterexamples)"
    )
}

/// Sums the prover-session statistics over all rows.
pub fn total_stats(results: &[ProgramResult]) -> SessionStats {
    let mut total = SessionStats::ZERO;
    for result in results {
        total.merge(&result.stats);
    }
    total
}

/// Sums the row-level counters over all rows (each row's lemma pool is
/// warm-started independently from the store).
pub fn total_row_counters(results: &[ProgramResult]) -> RowCounters {
    let mut total = RowCounters::ZERO;
    for result in results {
        total.merge(&result.counters);
    }
    total
}

/// A one-line rendering of the aggregated statistics: every reported
/// counter of the summed [`SessionStats`] and [`RowCounters`] as
/// `key=value`.
pub fn summarize_stats(results: &[ProgramResult]) -> String {
    let mut line = String::from("solver stats:");
    let mut push = |key: &str, value: u64| {
        let _ = write!(line, " {key}={value}");
    };
    total_stats(results).visit("", &mut push);
    total_row_counters(results).visit("", &mut push);
    line
}

/// Per-row and aggregate wall-clock timing (the `--timing` view): analysis
/// milliseconds for each variant and their sum per row, the aggregate
/// analysis time across rows, and the harness's end-to-end monotonic
/// wall-clock (which also covers parsing and, under `--workers`, reflects
/// thread-level overlap).
pub fn timing_table(results: &[ProgramResult], wall_ms: u128) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12} {:>12}",
        "Program", "Correct(ms)", "Faulty(ms)", "Total(ms)"
    );
    let mut aggregate = 0u128;
    for result in results {
        let total = result.correct_ms + result.faulty_ms;
        aggregate += total;
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>12} {:>12}",
            result.name, result.correct_ms, result.faulty_ms, total
        );
    }
    let _ = writeln!(
        out,
        "timing: {} rows, {} ms analysis time, {} ms wall-clock",
        results.len(),
        aggregate,
        wall_ms
    );
    out
}

/// The summed per-row analysis time (correct + faulty variants), in
/// milliseconds.
pub fn total_analysis_ms(results: &[ProgramResult]) -> u128 {
    results.iter().map(|r| r.correct_ms + r.faulty_ms).sum()
}

/// Renders the full result set as a JSON document (an object with a `rows`
/// array, aggregate `stats`, and monotonic wall-clock timing), for
/// downstream tooling. `wall_ms` is the harness's end-to-end run time as
/// measured by a monotonic clock ([`std::time::Instant`]).
pub fn to_json(results: &[ProgramResult], wall_ms: u128) -> String {
    let object = JsonObject::new()
        .raw_field("rows", results.to_json())
        .raw_field("stats", stats_json(&total_stats(results)));
    counter_fields(object, &total_row_counters(results))
        .field("analysis_ms", &total_analysis_ms(results))
        .field("wall_ms", &wall_ms)
        .finish()
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;

    /// Session stats with every declared counter set to a distinct nonzero
    /// value.
    fn counted_stats() -> SessionStats {
        let mut stats = SessionStats::ZERO;
        let mut next = 0;
        stats.fill(&mut || {
            next += 1;
            next
        });
        stats
    }

    fn sample(name: &str, verdict: Verdict) -> ProgramResult {
        ProgramResult {
            name: name.to_string(),
            group: "G".to_string(),
            lines: 10,
            order: 1,
            correct_verdict: Verdict::Verified,
            correct_ms: 5,
            faulty_verdict: verdict,
            faulty_ms: 7,
            expected_unsolved: false,
            stats: counted_stats(),
            worker_summaries: vec![counted_stats()],
            counters: RowCounters {
                cross_variant_cache_hits: 1,
                lemmas_warm_started: 2,
                exports_skipped: 1,
            },
        }
    }

    #[test]
    fn table_contains_rows_and_headers() {
        let rows = vec![
            sample("a", Verdict::Counterexample),
            sample("b", Verdict::ProbableError),
        ];
        let table = render_table(&rows);
        assert!(table.contains("Program"));
        assert!(table.contains("a"));
        assert!(table.contains("probable"));
    }

    #[test]
    fn summary_counts_expectations() {
        let rows = vec![
            sample("a", Verdict::Counterexample),
            sample("b", Verdict::ProbableError),
        ];
        let summary = summarize(&rows);
        assert!(summary.starts_with("1/2"));
    }

    /// Rows sum into the aggregate, and every reported counter of the
    /// registry appears exactly once, with its summed value, in the JSON
    /// `stats` object and in the text summary.
    #[test]
    fn stats_summary_aggregates_rows() {
        let rows = vec![
            sample("a", Verdict::Counterexample),
            sample("b", Verdict::Verified),
        ];
        let mut expected = rows[0].stats;
        expected.merge(&rows[1].stats);
        assert_eq!(total_stats(&rows), expected);

        let json = to_json(&rows, 123);
        let start = json.rfind("\"stats\":{").expect("aggregate stats") + "\"stats\":".len();
        let aggregate = &json[start..];
        let aggregate = &aggregate[..=aggregate.find('}').expect("closed")];
        let line = summarize_stats(&rows);
        let mut keys = 0;
        expected.for_each(|key, value| {
            keys += 1;
            assert_eq!(
                aggregate.matches(&format!("\"{key}\":")).count(),
                1,
                "{key}"
            );
            assert!(aggregate.contains(&format!("\"{key}\":{value}")), "{key}");
            assert_eq!(line.matches(&format!(" {key}=")).count(), 1, "{key}");
            assert!(line.contains(&format!(" {key}={value}")), "{key}");
        });
        assert_eq!(aggregate.matches(':').count(), keys, "{aggregate}");
        // The row counters follow the aggregate stats object at the top level.
        let top_level = &json[start + aggregate.len()..];
        let rows_total = total_row_counters(&rows);
        assert_eq!(rows_total.exports_skipped, 2);
        rows_total.for_each(|key, value| {
            keys += 1;
            assert_eq!(top_level.matches(&format!("\"{key}\":")).count(), 1);
            assert!(top_level.contains(&format!("\"{key}\":{value}")), "{key}");
            assert_eq!(line.matches(&format!(" {key}=")).count(), 1, "{key}");
            assert!(line.contains(&format!(" {key}={value}")), "{key}");
        });
        assert_eq!(line.matches('=').count(), keys, "{line}");
        // Counters declared `=> _` stay out of both reports.
        for hidden in ["tag_queries", "decisions", "\"sat\""] {
            assert!(!json.contains(hidden), "{hidden}");
            assert!(!line.contains(hidden), "{hidden}");
        }
    }

    #[test]
    fn solver_time_is_rounded_once_after_summing() {
        let mut row = sample("a", Verdict::Counterexample);
        row.stats = SessionStats::ZERO;
        row.stats.solver.time = Duration::from_micros(600);
        let rows = vec![row.clone(), row];
        assert!(to_json(&rows, 0).contains("\"solver_ms\":1"));
        assert!(summarize_stats(&rows).contains(" solver_ms=1"));
    }

    #[test]
    fn json_report_carries_rows_and_stats() {
        let rows = vec![sample("a", Verdict::Counterexample)];
        let json = to_json(&rows, 123);
        assert!(json.starts_with('{'));
        assert!(json.contains("\"rows\":[{"));
        assert!(json.contains("\"stats\":{\"queries\":1,"));
        assert!(json.contains("\"per_worker\":[{\"queries\":1,"));
        assert!(json.contains("\"lemmas_warm_started\":2"));
        assert!(json.contains("\"exports_skipped\":1"));
        assert!(json.contains("\"analysis_ms\":12"), "5 + 7 ms of analysis");
        assert!(json.contains("\"wall_ms\":123"));
    }

    #[test]
    fn timing_table_reports_rows_and_aggregates() {
        let rows = vec![
            sample("a", Verdict::Counterexample),
            sample("b", Verdict::Verified),
        ];
        let table = timing_table(&rows, 99);
        assert!(table.contains("Correct(ms)"));
        assert!(table.contains("a"));
        assert!(
            table.contains("2 rows, 24 ms analysis time, 99 ms wall-clock"),
            "{table}"
        );
        assert_eq!(total_analysis_ms(&rows), 24);
    }
}
