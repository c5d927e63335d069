//! Running the analysis on corpus programs and collecting Table 1 rows.
//!
//! Parallelism operates at two grains, both driven by
//! [`AnalyzeOptions::workers`]: inside `cpcf` the per-export analyses of a
//! module are sharded across worker threads, and here the corpus programs
//! themselves are sharded across the same number of threads
//! ([`run_all`]) — the corpus is dominated by single-export modules, so the
//! program-level grain is where most of the wall-clock saving comes from.
//! Each program gets one [`SharedVerdictCache`] spanning its correct and
//! faulty variant runs; the cache's epoch counter makes the cross-variant
//! verdict reuse measurable ([`RowCounters::cross_variant_cache_hits`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use cpcf::{
    analyze_module, AnalyzeOptions, EvalOptions, ExportAnalysis, Expr, SessionStats,
    SharedVerdictCache, Tally,
};
use serde::{JsonObject, Serialize};

use crate::corpus::BenchProgram;

/// Options for a harness run.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Options handed to the analyzer. `analyze.workers` doubles as the
    /// program-level shard count of [`run_all`].
    pub analyze: AnalyzeOptions,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            analyze: AnalyzeOptions {
                eval: EvalOptions {
                    fuel: 3_000,
                    max_branches: 32,
                    havoc_depth: 2,
                    ..EvalOptions::default()
                },
                validate: true,
                context_depth: 2,
                ..AnalyzeOptions::default()
            },
        }
    }
}

impl BenchOptions {
    /// A drastically reduced budget for the debug-build test suite, which
    /// walks the corpus several times: deep enough to find the shallow
    /// bugs, small enough that a single run takes milliseconds.
    pub fn quick() -> Self {
        BenchOptions {
            analyze: AnalyzeOptions {
                eval: EvalOptions {
                    fuel: 800,
                    max_branches: 16,
                    havoc_depth: 1,
                    ..EvalOptions::default()
                },
                validate: true,
                context_depth: 1,
                ..AnalyzeOptions::default()
            },
        }
    }

    /// The same budget sharded over `workers` threads (both the per-export
    /// and the program-level grain). `0` means "auto": one worker per
    /// hardware thread.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.analyze.workers = workers;
        self
    }
}

/// The aggregate verdict for one program variant (all of its exports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every export verified.
    Verified,
    /// Some export has a validated concrete counterexample.
    Counterexample,
    /// Some export has an unconfirmed (probable) violation and none has a
    /// confirmed counterexample.
    ProbableError,
    /// The budget ran out before anything conclusive was found.
    Exhausted,
    /// The program failed to parse (a harness bug, not a benchmark result).
    ParseError,
}

impl Verdict {
    /// Short marker used in the rendered table.
    pub fn marker(self) -> &'static str {
        match self {
            Verdict::Verified => "ok",
            Verdict::Counterexample => "cex",
            Verdict::ProbableError => "probable",
            Verdict::Exhausted => "budget",
            Verdict::ParseError => "parse!",
        }
    }
}

impl Serialize for Verdict {
    fn to_json(&self) -> String {
        serde::escape_string(self.marker())
    }
}

cpcf::counters! {
    /// The counters a corpus row reports beside its [`SessionStats`]: the
    /// per-program cache, lemma-pool and store effects that no single
    /// analysis session sees.
    pub struct RowCounters {
        /// Shared-cache hits during the faulty variant run on verdicts
        /// computed during the correct variant run (both variants share one
        /// cache whose epoch is advanced between them).
        cross_variant_cache_hits,
        /// Stored theory lemmas re-published into the program's lemma pool
        /// before analysis, as the analyzer's warm starts report them (zero
        /// without `--store`, on the cold run, and when `--incremental`
        /// skips every export of both variants).
        lemmas_warm_started,
        /// Exports answered straight from the store because their
        /// dependency-cone hash was unchanged (zero without `--incremental`).
        exports_skipped,
    }
}

/// Appends one JSON field per reported counter of a registry, in
/// declaration order (nested registries flattened).
pub(crate) fn counter_fields(object: JsonObject, counters: &impl Tally) -> JsonObject {
    let mut fields = Vec::new();
    counters.visit("", &mut |key, value| fields.push((key, value)));
    fields
        .iter()
        .fold(object, |object, (key, value)| object.field(key, value))
}

/// Renders session statistics as a flat JSON object with one entry per
/// reported counter of the [`SessionStats`] registry (nested solver
/// counters included), in declaration order.
pub fn stats_json(stats: &SessionStats) -> String {
    counter_fields(JsonObject::new(), stats).finish()
}

/// The Table 1 row produced for one corpus program.
#[derive(Debug, Clone)]
pub struct ProgramResult {
    /// Program name.
    pub name: String,
    /// Group title.
    pub group: String,
    /// Source lines of the analysed (faulty) variant.
    pub lines: usize,
    /// Highest contract order among the exports.
    pub order: u32,
    /// Verdict on the correct variant (expected: `Verified`).
    pub correct_verdict: Verdict,
    /// Analysis time for the correct variant, in milliseconds.
    pub correct_ms: u128,
    /// Verdict on the faulty variant (expected: `Counterexample`, or
    /// `ProbableError` for the `*`-marked rows).
    pub faulty_verdict: Verdict,
    /// Analysis time for the faulty variant, in milliseconds.
    pub faulty_ms: u128,
    /// True for rows the paper itself reports as unsolved ("others-w").
    pub expected_unsolved: bool,
    /// Prover-session statistics summed over both variants.
    pub stats: SessionStats,
    /// Per-analysis-worker statistics, summed across both variants by
    /// worker index (a single entry when the analysis ran sequentially).
    pub worker_summaries: Vec<SessionStats>,
    /// The row-level counters, over both variants.
    pub counters: RowCounters,
}

impl Serialize for ProgramResult {
    fn to_json(&self) -> String {
        let object = JsonObject::new()
            .field("name", &self.name)
            .field("group", &self.group)
            .field("lines", &self.lines)
            .field("order", &self.order)
            .field("correct_verdict", &self.correct_verdict)
            .field("correct_ms", &self.correct_ms)
            .field("faulty_verdict", &self.faulty_verdict)
            .field("faulty_ms", &self.faulty_ms)
            .field("expected_unsolved", &self.expected_unsolved)
            .raw_field("stats", stats_json(&self.stats))
            .raw_field(
                "per_worker",
                format!(
                    "[{}]",
                    self.worker_summaries
                        .iter()
                        .map(stats_json)
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            );
        counter_fields(object, &self.counters).finish()
    }
}

impl ProgramResult {
    /// True if the row behaves as the paper's evaluation expects: the
    /// correct variant produces no counterexample and the faulty variant
    /// produces one (or, for the `*` rows, a probable violation).
    pub fn matches_expectation(&self) -> bool {
        let correct_ok = self.correct_verdict != Verdict::Counterexample
            && self.correct_verdict != Verdict::ParseError;
        let faulty_ok = if self.expected_unsolved {
            matches!(
                self.faulty_verdict,
                Verdict::ProbableError | Verdict::Exhausted
            )
        } else {
            self.faulty_verdict == Verdict::Counterexample
        };
        correct_ok && faulty_ok
    }
}

/// The contract order of an export's contract expression (the paper's
/// "Order" column: `int → int` is order 1, `(int → int) → int` order 2, …).
pub fn contract_order(contract: &Expr) -> u32 {
    match contract {
        Expr::CArrow(doms, rng) => {
            let dom_order = doms.iter().map(contract_order).max().unwrap_or(0) + 1;
            dom_order.max(contract_order(rng))
        }
        Expr::CAnd(parts) | Expr::COr(parts) | Expr::COneOf(parts) => {
            parts.iter().map(contract_order).max().unwrap_or(0)
        }
        Expr::CCons(a, b) => contract_order(a).max(contract_order(b)),
        Expr::CListOf(inner) => contract_order(inner),
        _ => 0,
    }
}

/// Analyses one variant. The returned [`RowCounters`] carry the variant's
/// store effects; the cross-variant count is the caller's.
fn analyze_variant(
    source: &str,
    options: &BenchOptions,
) -> (
    Verdict,
    u128,
    u32,
    SessionStats,
    Vec<SessionStats>,
    RowCounters,
) {
    let start = Instant::now();
    let Ok((program, _)) = cpcf::parse_program(source) else {
        return (
            Verdict::ParseError,
            0,
            0,
            SessionStats::ZERO,
            Vec::new(),
            RowCounters::ZERO,
        );
    };
    let module_name = program
        .modules
        .last()
        .map(|m| m.name.clone())
        .unwrap_or_else(|| "main".to_string());
    let order = program
        .module(&module_name)
        .map(|m| {
            m.provides
                .iter()
                .map(|p| contract_order(&p.contract))
                .max()
                .unwrap_or(0)
        })
        .unwrap_or(0);
    let report = analyze_module(&program, &module_name, &options.analyze);
    let elapsed = start.elapsed().as_millis();
    let mut verdict = Verdict::Verified;
    for (_, export) in &report.exports {
        match export {
            ExportAnalysis::Counterexample(_) => {
                verdict = Verdict::Counterexample;
                break;
            }
            ExportAnalysis::ProbableError(_) => verdict = Verdict::ProbableError,
            ExportAnalysis::Exhausted => {
                if verdict == Verdict::Verified {
                    verdict = Verdict::Exhausted;
                }
            }
            ExportAnalysis::Verified => {}
        }
    }
    (
        verdict,
        elapsed,
        order,
        report.stats,
        report.worker_stats,
        RowCounters {
            lemmas_warm_started: report.lemmas_warm_started,
            exports_skipped: report.skipped.len() as u64,
            ..RowCounters::ZERO
        },
    )
}

/// Runs both variants of a corpus program. The two runs share one
/// [`SharedVerdictCache`] with an epoch boundary between them, so the faulty
/// run reuses every verdict the correct run computed on their (large) shared
/// evaluation prefix — and the reuse is reported as
/// [`RowCounters::cross_variant_cache_hits`]. When lemma sharing is on
/// (`CPCF_LEMMA_SHARING`, see [`cpcf::default_lemma_sharing`]) the variants
/// likewise share one [`cpcf::SharedLemmaPool`]: theory lemmas derived while
/// analysing the correct variant prune the faulty variant's searches.
pub fn run_program(program: &BenchProgram, options: &BenchOptions) -> ProgramResult {
    eprintln!("[table1] analysing {} ...", program.name);
    let mut options = options.clone();
    // With a persistent store attached (`--store`), the per-program shared
    // cache gains the disk tier: misses fall through to verdicts an earlier
    // process proved, and new verdicts are appended for the next one.
    let cache = match &options.analyze.store {
        Some(store) => SharedVerdictCache::with_store(store.clone()),
        None => SharedVerdictCache::new(),
    };
    options.analyze.shared_cache = Some(cache.clone());
    if options.analyze.shared_lemmas.is_none() && cpcf::default_lemma_sharing() {
        options.analyze.shared_lemmas = Some(cpcf::SharedLemmaPool::new());
    }
    let (correct_verdict, correct_ms, order, mut stats, mut worker_summaries, mut counters) =
        analyze_variant(program.correct, &options);
    cache.advance_epoch();
    let (faulty_verdict, faulty_ms, faulty_order, faulty_stats, faulty_workers, faulty_counters) =
        analyze_variant(program.faulty, &options);
    eprintln!(
        "[table1]   {}: correct {:?} in {} ms, faulty {:?} in {} ms",
        program.name, correct_verdict, correct_ms, faulty_verdict, faulty_ms
    );
    stats.merge(&faulty_stats);
    // Per-worker stats are summed across the variants by worker index.
    if worker_summaries.len() < faulty_workers.len() {
        worker_summaries.resize(faulty_workers.len(), SessionStats::ZERO);
    }
    for (slot, worker) in worker_summaries.iter_mut().zip(&faulty_workers) {
        slot.merge(worker);
    }
    counters.merge(&faulty_counters);
    counters.cross_variant_cache_hits = cache.cross_epoch_hits();
    ProgramResult {
        name: program.name.to_string(),
        group: program.group.title().to_string(),
        lines: program.lines(),
        order: order.max(faulty_order),
        correct_verdict,
        correct_ms,
        faulty_verdict,
        faulty_ms,
        expected_unsolved: program.expected_unsolved,
        stats,
        worker_summaries,
        counters,
    }
}

/// Runs a list of programs, sharding them across `options.analyze.workers`
/// threads (each program's two variants stay on one thread so the
/// cross-variant cache sharing is preserved). Results come back in corpus
/// order regardless of completion order.
pub fn run_all(programs: &[BenchProgram], options: &BenchOptions) -> Vec<ProgramResult> {
    // `workers: 0` means "auto" (one per hardware thread), then capped by
    // the number of programs there actually are to run.
    let workers = cpcf::resolve_workers(options.analyze.workers).clamp(1, programs.len().max(1));
    if workers <= 1 {
        return programs.iter().map(|p| run_program(p, options)).collect();
    }
    // The thread budget is shared, not multiplied: with the programs already
    // sharded across `workers` threads, each program's analysis runs its
    // exports sequentially (export-level sharding pays off when a single
    // program is analysed in isolation, e.g. via `run_program`).
    let mut options = options.clone();
    options.analyze.workers = 1;
    let options = &options;
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<ProgramResult>> = vec![None; programs.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut rows = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(program) = programs.get(index) else {
                            break;
                        };
                        rows.push((index, run_program(program, options)));
                    }
                    rows
                })
            })
            .collect();
        for handle in handles {
            for (index, row) in handle.join().expect("bench worker panicked") {
                slots[index] = Some(row);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every program slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::group_programs;

    #[test]
    fn contract_order_matches_paper_convention() {
        let first = cpcf::parse_expr("(-> integer? integer?)").expect("parses");
        assert_eq!(contract_order(&first), 1);
        let second = cpcf::parse_expr("(-> (-> integer? integer?) integer?)").expect("parses");
        assert_eq!(contract_order(&second), 2);
        let third =
            cpcf::parse_expr("(-> (-> (-> integer? integer?) integer?) integer?)").expect("parses");
        assert_eq!(contract_order(&third), 3);
        let flat = cpcf::parse_expr("(and/c integer? pair?)").expect("parses");
        assert_eq!(contract_order(&flat), 0);
    }

    #[test]
    fn intro1_row_matches_the_paper_shape() {
        let program = group_programs(crate::corpus::Group::Kobayashi)
            .into_iter()
            .find(|p| p.name == "intro1")
            .expect("intro1 exists");
        let result = run_program(&program, &BenchOptions::default());
        assert_eq!(result.correct_verdict, Verdict::Verified);
        assert_eq!(result.faulty_verdict, Verdict::Counterexample);
        assert!(result.matches_expectation());
    }

    #[test]
    fn case_map_rows_find_validated_counterexamples() {
        // These faulty variants need the opaque `case` maps (§3.2): without
        // them repeated applications of an unknown function disagree, the
        // reconstructed input does not replay, and the row degrades to a
        // probable error. `validate` is on, so `Counterexample` here means
        // the concrete re-run confirmed the blame.
        let options = BenchOptions::default();
        assert!(options.analyze.validate);
        let programs = crate::corpus::all_programs();
        for name in ["zombie", "argmin", "first-quadrant"] {
            let program = programs
                .iter()
                .find(|p| p.name == name)
                .unwrap_or_else(|| panic!("{name} exists"));
            let result = run_program(program, &options);
            assert_eq!(
                result.faulty_verdict,
                Verdict::Counterexample,
                "{name}: faulty variant must yield a validated counterexample"
            );
        }
    }

    #[test]
    fn unsolved_rows_report_probable_errors() {
        let program = group_programs(crate::corpus::Group::Others)
            .into_iter()
            .find(|p| p.name == "w-square-div")
            .expect("w-square-div exists");
        let result = run_program(&program, &BenchOptions::default());
        assert!(result.expected_unsolved);
        assert_ne!(result.faulty_verdict, Verdict::ParseError);
    }

    #[test]
    fn occurrence_incremental_matches_fresh_and_caches() {
        // The acceptance check for the incremental prover session on the
        // occurrence group: the cache is exercised, and far fewer full-heap
        // encodings than queries are needed. Verdict equality with the
        // whole-heap reference is checked query by query in
        // `tests/solver_properties.rs`.
        let options = BenchOptions::quick();
        let programs: Vec<_> = group_programs(crate::corpus::Group::Occurrence)
            .into_iter()
            .take(2)
            .collect();
        let mut incremental_total = SessionStats::ZERO;
        for program in &programs {
            incremental_total.merge(&run_program(program, &options).stats);
        }
        assert!(
            incremental_total.cache_hits >= 1,
            "no cache hits: {incremental_total:?}"
        );
        assert!(
            incremental_total.full_encodings < incremental_total.queries,
            "incremental mode should encode the heap far less often than it queries: \
             {incremental_total:?}"
        );
    }

    #[test]
    fn program_results_serialize_to_json() {
        let result = ProgramResult {
            name: "a".to_string(),
            group: "G".to_string(),
            lines: 10,
            order: 1,
            correct_verdict: Verdict::Verified,
            correct_ms: 5,
            faulty_verdict: Verdict::Counterexample,
            faulty_ms: 7,
            expected_unsolved: false,
            stats: SessionStats {
                queries: 10,
                cache_hits: 3,
                ..SessionStats::ZERO
            },
            worker_summaries: vec![SessionStats {
                queries: 10,
                ..SessionStats::ZERO
            }],
            counters: RowCounters {
                cross_variant_cache_hits: 2,
                lemmas_warm_started: 4,
                exports_skipped: 1,
            },
        };
        let json = result.to_json();
        assert!(json.contains("\"name\":\"a\""));
        assert!(json.contains("\"correct_verdict\":\"ok\""));
        assert!(json.contains("\"cache_hits\":3"));
        assert!(json.contains("\"cross_variant_cache_hits\":2"));
        assert!(json.contains("\"per_worker\":[{"));
        assert!(json.contains("\"lemmas_warm_started\":4"));
        assert!(json.contains("\"exports_skipped\":1"));
    }

    #[test]
    fn variants_share_verdicts_across_the_epoch_boundary() {
        let program = group_programs(crate::corpus::Group::Kobayashi)
            .into_iter()
            .find(|p| p.name == "intro1")
            .expect("intro1 exists");
        let result = run_program(&program, &BenchOptions::quick());
        assert!(
            result.counters.cross_variant_cache_hits > 0,
            "the faulty variant must reuse verdicts from the correct run: {result:?}"
        );
        assert!(
            result.stats.shared_cache_hits >= result.counters.cross_variant_cache_hits,
            "shared hits include the cross-variant ones: {:?}",
            result.stats
        );
    }

    #[test]
    fn worker_count_does_not_change_row_verdicts() {
        let program = group_programs(crate::corpus::Group::Kobayashi)
            .into_iter()
            .find(|p| p.name == "intro1")
            .expect("intro1 exists");
        let sequential = run_program(&program, &BenchOptions::quick());
        let sharded = run_program(&program, &BenchOptions::quick().with_workers(4));
        assert_eq!(sequential.correct_verdict, sharded.correct_verdict);
        assert_eq!(sequential.faulty_verdict, sharded.faulty_verdict);
    }

    #[test]
    fn run_all_keeps_corpus_order_under_program_sharding() {
        let programs: Vec<_> = group_programs(crate::corpus::Group::Occurrence)
            .into_iter()
            .take(3)
            .collect();
        let rows = run_all(&programs, &BenchOptions::quick().with_workers(3));
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        let expected: Vec<&str> = programs.iter().map(|p| p.name).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn cdcl_counters_flow_into_row_stats() {
        // fold-div's division constraints introduce witness variables with
        // boolean structure (implication/disjunction side conditions), and
        // its verification queries are UNSAT-heavy — the lazy SMT loop must
        // run the CDCL core, so its counters must surface as nonzero.
        let program = group_programs(crate::corpus::Group::Kobayashi)
            .into_iter()
            .find(|p| p.name == "fold-div")
            .expect("fold-div exists");
        let result = run_program(&program, &BenchOptions::quick());
        assert!(
            result.stats.solver.propagations > 0,
            "no CDCL propagations surfaced: {:?}",
            result.stats
        );
        assert!(
            result.stats.solver.conflicts > 0,
            "no CDCL conflicts surfaced: {:?}",
            result.stats
        );
    }
}
