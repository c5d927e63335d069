//! Turning passes and spans into metrics, per-row tables and JSON.

use std::fmt::Write as _;

use crate::corpus::Program;
use crate::run::Pass;
use crate::trace::Span;

/// A metric as printed in the result line.
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// Its value.
    pub value: f64,
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Every untraced run times at least this many passes.
pub const MIN_PASSES: usize = 5;

/// Samples per pass beyond the tail percentile.
const TAIL_BEYOND_PER_PASS: f64 = 2.5;

/// The tail time to verdict: `(percentile, value, samples beyond it)`.
///
/// Every pass adds one sample per variant, and a variant's time barely
/// changes between passes, so the sorted samples form one block per
/// variant, one sample per pass long. A single rank reads one pass of one
/// variant, which host contention moves; near a block's edge it reads that
/// variant's fastest or slowest pass. So the percentile leaves 2.5 samples
/// per pass beyond it, the middle of the third-slowest variant's block,
/// and the value is the mean of the one pass's worth of samples centred on
/// that rank. That is the highest such percentile with at least ten
/// samples beyond the whole window in a run of [`MIN_PASSES`] passes, and
/// it is fixed per workload, so a faster host only adds samples on both
/// sides.
pub fn tail(values: &[f64], samples_per_pass: usize) -> (f64, f64, usize) {
    let samples_per_pass = samples_per_pass.max(3);
    let p = 100.0 * (1.0 - TAIL_BEYOND_PER_PASS / samples_per_pass as f64);
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (p, 0.0, 0);
    }
    // Nearest rank, 0-based, and a window of one pass's samples around it.
    let at = (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1;
    let passes = (n / samples_per_pass).max(1);
    let lo = at.saturating_sub(passes / 2);
    let hi = (lo + passes).min(n);
    let window = &sorted[lo..hi];
    (p, window.iter().sum::<f64>() / window.len() as f64, n - hi)
}

/// What the end-to-end metrics are computed from, plus their side facts.
pub struct EndToEnd {
    /// Variant analyses attempted in the timed passes.
    pub attempted: usize,
    /// Failed operations (see [`crate::corpus::Answer::is_failure`]).
    pub failed: usize,
    /// Variant analyses per wall second.
    pub variants_per_s: f64,
    /// Median time to verdict.
    pub p50_ms: f64,
    /// The tail time to verdict, its percentile and the samples beyond it.
    pub tail: (f64, f64, usize),
    /// Share of variants whose verdict differs from the known answer.
    pub mismatch_share: f64,
    /// Share of variants ending in `ok` or a validated `cex`.
    pub decided_share: f64,
}

/// End-to-end figures over `passes`.
pub fn end_to_end(passes: &[&Pass], programs: &[Program]) -> EndToEnd {
    let samples = || passes.iter().flat_map(|p| p.samples.iter());
    let attempted = samples().count();
    let answer = |s: &crate::run::Sample| programs[s.program].answers[s.variant];
    let failed = samples()
        .filter(|s| answer(s).is_failure(s.verdict))
        .count();
    let mismatched = samples().filter(|s| !answer(s).matches(s.verdict)).count();
    let decided = samples().filter(|s| s.verdict.is_decided()).count();
    let wall_s: f64 = passes.iter().map(|p| p.wall_ns as f64 / 1e9).sum();
    let times: Vec<f64> = samples().map(|s| s.ns as f64 / 1e6).collect();
    let share = |count: usize| count as f64 / attempted.max(1) as f64;
    EndToEnd {
        attempted,
        failed,
        variants_per_s: attempted as f64 / wall_s,
        p50_ms: median(&times),
        tail: tail(&times, attempted / passes.len().max(1)),
        mismatch_share: share(mismatched),
        decided_share: share(decided),
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end_metrics(e2e: &EndToEnd, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "variants_per_s",
            unit: "1/s",
            value: e2e.variants_per_s,
        },
        Metric {
            name: "verdict_ms_p50",
            unit: "ms",
            value: e2e.p50_ms,
        },
        Metric {
            name: "verdict_ms_tail",
            unit: "ms",
            value: e2e.tail.1,
        },
        Metric {
            name: "mismatch_share",
            unit: "ratio",
            value: e2e.mismatch_share,
        },
        Metric {
            name: "decided_share",
            unit: "ratio",
            value: e2e.decided_share,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb,
        },
    ]
}

/// Per-layer metrics from the traced passes' spans: each is summed over a
/// pass and the median over traced passes is reported, except
/// `sched.cpu_utilization`, which is process CPU over (wall × workers)
/// across all traced passes.
pub fn per_layer_metrics(spans: &[Span], traced: &[&Pass], workers: usize) -> Vec<Metric> {
    let passes: Vec<usize> = spans
        .iter()
        .filter(|s| s.name == "pass")
        .map(|s| s.pass)
        .collect();
    // Per pass: sum of `value(span)` over spans named `name`.
    let per_pass = |name: &str, value: &dyn Fn(&Span) -> f64| -> Vec<f64> {
        passes
            .iter()
            .map(|&pass| {
                spans
                    .iter()
                    .filter(|s| s.pass == pass && s.name == name)
                    .map(value)
                    .sum()
            })
            .collect()
    };
    let ms = |name: &str| per_pass(name, &|s| s.ms());
    let arg = |name: &str, key: &'static str| per_pass(name, &move |s| s.arg(key));
    let ratio = |num: Vec<f64>, den: Vec<f64>| -> Vec<f64> {
        num.iter()
            .zip(&den)
            .map(|(n, d)| if *d > 0.0 { n / d } else { 0.0 })
            .collect()
    };
    let diff =
        |a: Vec<f64>, b: Vec<f64>| -> Vec<f64> { a.iter().zip(&b).map(|(x, y)| x - y).collect() };

    let wall_s: f64 = traced.iter().map(|p| p.wall_ns as f64 / 1e9).sum();
    let cpu_s: f64 = traced.iter().map(|p| p.cpu_ms / 1e3).sum();
    let cpu_utilization = if wall_s > 0.0 {
        cpu_s / (wall_s * workers as f64)
    } else {
        0.0
    };

    let series: Vec<(&'static str, &'static str, Vec<f64>)> = vec![
        ("parse.ms", "ms", ms("parse")),
        ("analyze.ms", "ms", ms("analyze")),
        (
            "analyze.self_ms",
            "ms",
            diff(ms("analyze"), arg("analyze", "check_ms")),
        ),
        ("analyze.exports", "count", arg("analyze", "exports")),
        (
            "analyze.exports_exhausted",
            "count",
            arg("analyze", "exports_exhausted"),
        ),
        ("analyze.cex", "count", arg("analyze", "cex")),
        ("heap.snapshots", "count", arg("analyze", "snapshots")),
        ("heap.nodes_copied", "count", arg("analyze", "nodes_copied")),
        ("prove.queries", "count", arg("analyze", "queries")),
        ("prove.cache_hits", "count", arg("analyze", "cache_hits")),
        (
            "prove.cache_hit_ratio",
            "ratio",
            ratio(arg("analyze", "cache_hits"), arg("analyze", "queries")),
        ),
        (
            "prove.shared_cache_hits",
            "count",
            arg("analyze", "shared_cache_hits"),
        ),
        (
            "prove.full_encodings",
            "count",
            arg("analyze", "full_encodings"),
        ),
        (
            "prove.delta_encodings",
            "count",
            arg("analyze", "delta_encodings"),
        ),
        ("folic.check_ms", "ms", arg("analyze", "check_ms")),
        ("folic.checks", "count", arg("analyze", "checks")),
        (
            "folic.ms_per_check",
            "ms",
            ratio(arg("analyze", "check_ms"), arg("analyze", "checks")),
        ),
        ("folic.conflicts", "count", arg("analyze", "conflicts")),
        (
            "folic.propagations",
            "count",
            arg("analyze", "propagations"),
        ),
        ("folic.dl_checks", "count", arg("analyze", "dl_checks")),
        (
            "folic.lia_dispatches",
            "count",
            arg("analyze", "lia_dispatches"),
        ),
        (
            "folic.lemmas_published",
            "count",
            arg("analyze", "lemmas_published"),
        ),
        (
            "folic.lemmas_imported",
            "count",
            arg("analyze", "lemmas_imported"),
        ),
        (
            "folic.cone_vars_pruned",
            "count",
            arg("analyze", "cone_vars_pruned"),
        ),
        ("store.open_ms", "ms", ms("store.open")),
        ("store.flush_ms", "ms", ms("store.flush")),
        (
            "store.file_bytes",
            "bytes",
            arg("store.flush", "file_bytes"),
        ),
        ("store.hits", "count", arg("store.flush", "hits")),
        ("store.misses", "count", arg("store.flush", "misses")),
        ("store.writes", "count", arg("store.flush", "writes")),
        (
            "store.lemmas_warm_started",
            "count",
            arg("store.flush", "lemmas_warm_started"),
        ),
        (
            "store.exports_skipped",
            "count",
            arg("analyze", "exports_skipped"),
        ),
        ("sched.cpu_utilization", "ratio", vec![cpu_utilization]),
        (
            "sched.worker_queries",
            "count",
            arg("analyze", "other_worker_queries"),
        ),
    ];
    series
        .into_iter()
        .map(|(name, unit, values)| Metric {
            name,
            unit,
            value: median(&values),
        })
        .collect()
}

/// One line per program: both verdicts, median ms per variant, and the
/// share of time-to-verdict spent in `folic` checks.
pub fn rows(passes: &[&Pass], programs: &[Program], selected: &[usize]) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>9} {:>12} {:>12} {:>7}\n",
        "program", "correct", "faulty", "correct_ms", "faulty_ms", "folic%"
    );
    for &program in selected {
        let mut verdicts = ["-"; 2];
        let mut medians = [f64::NAN; 2];
        let (mut folic_s, mut total_s) = (0.0, 0.0);
        for variant in 0..2 {
            let samples: Vec<_> = passes
                .iter()
                .flat_map(|p| p.samples.iter())
                .filter(|s| s.program == program && s.variant == variant)
                .collect();
            if let Some(first) = samples.first() {
                verdicts[variant] = first.verdict.marker();
            }
            let times: Vec<f64> = samples.iter().map(|s| s.ns as f64 / 1e6).collect();
            medians[variant] = median(&times);
            folic_s += samples
                .iter()
                .map(|s| s.stats.solver.time.as_secs_f64())
                .sum::<f64>();
            total_s += samples.iter().map(|s| s.ns as f64 / 1e9).sum::<f64>();
        }
        let _ = writeln!(
            out,
            "{:<28} {:>9} {:>9} {:>12.4} {:>12.4} {:>6.1}%",
            programs[program].key,
            verdicts[0],
            verdicts[1],
            medians[0],
            medians[1],
            100.0 * folic_s / total_s.max(f64::MIN_POSITIVE),
        );
    }
    out
}

/// A JSON number; non-finite values print as 0.
pub fn num(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_reads_the_middle_of_the_third_slowest_variant() {
        for per_pass in [74, 82] {
            for passes in [MIN_PASSES, 10, 13, 14, 300] {
                // Variant v always takes v ms, plus a pass-dependent jitter
                // below 1 ms that orders its samples within its block.
                let values: Vec<f64> = (0..passes)
                    .flat_map(|pass| {
                        (0..per_pass).map(move |v| v as f64 + pass as f64 / passes as f64)
                    })
                    .collect();
                let (p, value, beyond) = tail(&values, per_pass);
                let case = format!("{per_pass} samples per pass, {passes} passes");
                assert_eq!(p, 100.0 * (1.0 - 2.5 / per_pass as f64), "{case}");
                assert!(beyond >= 10, "{case}");
                assert_eq!(value.floor() as usize, per_pass - 3, "{case}");
                let within = value.fract();
                assert!((0.2..=0.8).contains(&within), "{case}: {within}");
            }
        }
    }
}
