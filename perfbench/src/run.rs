//! The workloads: how one pass drives the public `cpcf` API.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cpcf::{
    analyze_module, AnalysisStore, AnalyzeOptions, EngineFingerprint, EvalOptions, ExportAnalysis,
    ModuleReport, SessionStats, SharedLemmaPool, SharedVerdictCache,
};

use crate::corpus::{Program, Verdict, VARIANTS};
use crate::trace::Trace;

/// Faulty variants left out of the `reverify-store` store, drawn by seed
/// from the light rows.
pub const EDITED_PROGRAMS: usize = 4;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every program, one worker, no store.
    CorpusCold,
    /// The light rows only, one worker, no store.
    CorpusLight,
    /// Incremental re-verification against a copied store.
    ReverifyStore,
    /// Every program at `nproc` workers.
    CorpusParallel,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::CorpusCold,
        Workload::CorpusLight,
        Workload::ReverifyStore,
        Workload::CorpusParallel,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusCold => "corpus-cold",
            Workload::CorpusLight => "corpus-light",
            Workload::ReverifyStore => "reverify-store",
            Workload::CorpusParallel => "corpus-parallel",
        }
    }
}

/// The `table1` budget: fuel 3000, 32 branches, havoc depth 2, context
/// depth 2, validation on.
pub fn table1_options(workers: usize) -> AnalyzeOptions {
    AnalyzeOptions {
        eval: EvalOptions {
            fuel: 3_000,
            max_branches: 32,
            havoc_depth: 2,
            ..EvalOptions::default()
        },
        validate: true,
        context_depth: 2,
        workers,
        ..AnalyzeOptions::default()
    }
}

/// splitmix64: a tiny, dependency-free generator for seeded shuffles.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// One variant analysis.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the corpus.
    pub program: usize,
    /// Index into [`VARIANTS`].
    pub variant: usize,
    /// The aggregate verdict.
    pub verdict: Verdict,
    /// Time to verdict: parse plus `analyze_module` with validation.
    pub ns: u64,
    /// The report's merged statistics (default after a panic or parse error).
    pub stats: SessionStats,
}

/// One pass over the workload's programs.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Whether spans were recorded during this pass.
    pub traced: bool,
    /// Wall time of the pass, including store open and flush.
    pub wall_ns: u64,
    /// Process CPU time spent in the pass, in milliseconds.
    pub cpu_ms: f64,
    /// Every variant analysed, in analysis order.
    pub samples: Vec<Sample>,
    /// Verdicts the pass appended to the store (`reverify-store` only).
    pub store_writes: Option<u64>,
}

/// A workload ready to run passes.
pub struct Bench {
    /// The whole frozen corpus.
    pub programs: Vec<Program>,
    /// Indices of the programs this workload analyses.
    pub selected: Vec<usize>,
    /// Programs whose faulty variant the store lacks (`reverify-store`).
    pub edited: Vec<usize>,
    /// Analyzer options (budget and worker count).
    pub options: AnalyzeOptions,
    /// Scratch directory for store files.
    pub work_dir: Option<PathBuf>,
    /// Seeded generator for program order.
    pub rng: Rng,
    /// The span recorder.
    pub trace: Trace,
}

/// Process CPU time (user + system, all threads) in milliseconds, from
/// `/proc/self/stat` (clock ticks of 10 ms).
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 2..]) else {
        return 0.0;
    };
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

fn analyze_args(report: &ModuleReport) -> Vec<(&'static str, f64)> {
    let stats = &report.stats;
    let solver = &stats.solver;
    let count = |pred: fn(&ExportAnalysis) -> bool| {
        report.exports.iter().filter(|(_, e)| pred(e)).count() as f64
    };
    let busiest = report
        .worker_stats
        .iter()
        .map(|w| w.queries)
        .max()
        .unwrap_or(0);
    vec![
        ("exports", report.exports.len() as f64),
        (
            "exports_exhausted",
            count(|e| matches!(e, ExportAnalysis::Exhausted)),
        ),
        (
            "cex",
            count(|e| matches!(e, ExportAnalysis::Counterexample(_))),
        ),
        ("exports_skipped", report.skipped.len() as f64),
        ("snapshots", stats.snapshots as f64),
        ("nodes_copied", stats.nodes_copied as f64),
        ("queries", stats.queries as f64),
        ("cache_hits", stats.cache_hits as f64),
        ("shared_cache_hits", stats.shared_cache_hits as f64),
        ("full_encodings", stats.full_encodings as f64),
        ("delta_encodings", stats.delta_encodings as f64),
        ("check_ms", solver.time.as_secs_f64() * 1e3),
        ("checks", solver.checks as f64),
        ("conflicts", solver.conflicts as f64),
        ("propagations", solver.propagations as f64),
        ("dl_checks", solver.dl_checks as f64),
        ("lia_dispatches", solver.theory_dispatch_lia as f64),
        ("lemmas_published", solver.lemmas_published as f64),
        ("lemmas_imported", solver.lemmas_imported as f64),
        ("cone_vars_pruned", solver.cone_vars_pruned as f64),
        ("other_worker_queries", (stats.queries - busiest) as f64),
    ]
}

impl Bench {
    /// Parses and analyses one variant, timing it and isolating panics.
    fn run_variant(&mut self, program: usize, variant: usize, options: &AnalyzeOptions) -> Sample {
        let source = &self.programs[program].sources[variant];
        let trace = &mut self.trace;
        let span = trace.begin("variant", || {
            format!("{}:{}", self.programs[program].key, VARIANTS[variant])
        });
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let parse_span = trace.begin("parse", String::new);
            let parsed = cpcf::parse_program(source);
            trace.end(parse_span, Vec::new);
            let Ok((parsed, _structs)) = parsed else {
                return None;
            };
            let module = parsed
                .modules
                .last()
                .map_or_else(|| "main".to_string(), |m| m.name.clone());
            let analyze_span = trace.begin("analyze", String::new);
            let report = analyze_module(&parsed, &module, options);
            trace.end(analyze_span, || analyze_args(&report));
            Some(report)
        }));
        let ns = start.elapsed().as_nanos() as u64;
        let (verdict, stats) = match outcome {
            Ok(Some(report)) => (Verdict::of_report(&report), report.stats),
            Ok(None) => (Verdict::ParseError, SessionStats::default()),
            Err(_) => (Verdict::Panic, SessionStats::default()),
        };
        trace.end(span, Vec::new);
        Sample {
            program,
            variant,
            verdict,
            ns,
            stats,
        }
    }

    /// Analyses both variants of one program (the faulty one unless
    /// `skip_faulty`) with a fresh verdict cache and lemma pool spanning the
    /// two, exactly as `table1` does.
    fn run_program(
        &mut self,
        program: usize,
        store: Option<&AnalysisStore>,
        incremental: bool,
        skip_faulty: bool,
        samples: &mut Vec<Sample>,
    ) {
        let cache = match store {
            Some(store) => SharedVerdictCache::with_store(store.clone()),
            None => SharedVerdictCache::new(),
        };
        let options = AnalyzeOptions {
            shared_cache: Some(cache.clone()),
            shared_lemmas: cpcf::default_lemma_sharing().then(SharedLemmaPool::new),
            store: store.cloned(),
            incremental,
            ..self.options.clone()
        };
        let variants = if skip_faulty { 1 } else { 2 };
        for variant in 0..variants {
            samples.push(self.run_variant(program, variant, &options));
            cache.advance_epoch();
        }
    }

    fn store_dir(&self, leaf: &str) -> PathBuf {
        self.work_dir
            .as_ref()
            .expect("store workloads have a work directory")
            .join(leaf)
    }

    /// Set-up of `reverify-store`: a cold run of every variant except the
    /// edited programs' faulty ones, written into the template store.
    /// Returns the store file's size.
    pub fn populate_store(&mut self) -> std::io::Result<u64> {
        let template = self.store_dir("template");
        let _ = std::fs::remove_dir_all(&template);
        let store = AnalysisStore::open(&template, EngineFingerprint::for_analyze(&self.options))?;
        let mut discard = Vec::new();
        for program in 0..self.programs.len() {
            let skip_faulty = self.edited.contains(&program);
            self.run_program(program, Some(&store), false, skip_faulty, &mut discard);
        }
        store.flush();
        Ok(file_bytes(store.path()))
    }

    /// Runs one pass over the selected programs in a seeded order.
    pub fn run_pass(&mut self, index: usize, traced: bool) -> std::io::Result<Pass> {
        let mut order = self.selected.clone();
        self.rng.shuffle(&mut order);
        let store_dir = self.work_dir.as_ref().map(|_| self.store_dir("pass"));
        if let Some(dir) = &store_dir {
            let _ = std::fs::remove_dir_all(dir);
            copy_dir(&self.store_dir("template"), dir)?;
        }

        self.trace.set_pass(index, traced);
        let cpu_start = process_cpu_ms();
        let start = Instant::now();
        let pass_span = self.trace.begin("pass", || format!("pass {index}"));
        let store = match &store_dir {
            Some(dir) => {
                let span = self.trace.begin("store.open", String::new);
                let store =
                    AnalysisStore::open(dir, EngineFingerprint::for_analyze(&self.options))?;
                self.trace.end(span, Vec::new);
                Some(store)
            }
            None => None,
        };
        let mut samples = Vec::with_capacity(order.len() * 2);
        for program in order {
            self.run_program(
                program,
                store.as_ref(),
                store.is_some(),
                false,
                &mut samples,
            );
        }
        let store_writes = store.map(|store| {
            let span = self.trace.begin("store.flush", String::new);
            store.flush();
            let counters = store.counters();
            self.trace.end(span, || {
                vec![
                    ("file_bytes", file_bytes(store.path()) as f64),
                    ("hits", counters.store_hits as f64),
                    ("misses", counters.store_misses as f64),
                    ("writes", counters.store_writes as f64),
                    ("lemmas_warm_started", counters.lemmas_warm_started as f64),
                ]
            });
            counters.store_writes
        });
        let wall_ns = start.elapsed().as_nanos() as u64;
        let cpu_ms = process_cpu_ms() - cpu_start;
        self.trace.end(pass_span, || vec![("cpu_ms", cpu_ms)]);
        self.trace.set_pass(index, false);
        Ok(Pass {
            traced,
            wall_ns,
            cpu_ms,
            samples,
            store_writes,
        })
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
