//! Regenerates the paper's Table 1: for every corpus program, analyse the
//! correct variant (expected: verified) and the erroneous variant (expected:
//! a validated concrete counterexample), reporting sizes, contract orders,
//! analysis times and the prover-session statistics.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin table1 \
//!     [--group kobayashi|terauchi|occurrence|games|others] \
//!     [--workers N] [--store DIR] [--incremental] [--timing] [--json]
//! ```
//!
//! `--workers N` shards the run over `N` threads (programs across threads,
//! and a module's exports across threads inside the analyzer; `0` means one
//! worker per hardware thread; default: the `ANALYZE_WORKERS` environment
//! variable, or 1); `--store DIR` attaches the persistent analysis store
//! in `DIR` (verdicts and theory lemmas survive the process: the first run
//! populates it, later runs warm-start from it — see the store section of
//! this crate's README); `--incremental` additionally skips exports whose
//! dependency-cone hash already has a stored verdict (requires `--store`),
//! and warm-starts stored lemmas only for modules with an export left to
//! re-analyse, so a rerun with nothing edited reports
//! `lemmas_warm_started` 0;
//! `--timing` appends a per-row and aggregate wall-clock table (monotonic
//! clock); `--json` emits the machine-readable report (per-row and
//! aggregate stats — including retraction, heap snapshot/sharing,
//! per-worker, cross-variant cache-hit and store counters — plus
//! `analysis_ms`/`wall_ms` timing) on stdout.
//!
//! There is one prover engine. Its verdicts are checked query by query
//! against the whole-heap reference oracle (`cpcf::prove::reference_*`) by
//! the seeded differentials in `tests/solver_properties.rs`.

use std::time::Instant;

use scv_bench::corpus::{all_programs, group_programs, Group};
use scv_bench::harness::{run_all, BenchOptions};
use scv_bench::report::{render_table, summarize, summarize_stats, timing_table, to_json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let group = args
        .iter()
        .position(|a| a == "--group")
        .and_then(|i| args.get(i + 1))
        .map(|name| match name.as_str() {
            "kobayashi" => Group::Kobayashi,
            "terauchi" => Group::Terauchi,
            "occurrence" => Group::Occurrence,
            "games" => Group::Games,
            "others" => Group::Others,
            other => {
                eprintln!("unknown group `{other}`");
                std::process::exit(2);
            }
        });
    let json = args.iter().any(|a| a == "--json");
    let timing = args.iter().any(|a| a == "--timing");
    let workers = args.iter().position(|a| a == "--workers").map(|i| {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--workers requires a count");
            std::process::exit(2);
        };
        value.parse::<usize>().unwrap_or_else(|_| {
            eprintln!("invalid worker count `{value}`");
            std::process::exit(2);
        })
    });
    let store_dir = args.iter().position(|a| a == "--store").map(|i| {
        let Some(value) = args.get(i + 1) else {
            eprintln!("--store requires a directory");
            std::process::exit(2);
        };
        value.clone()
    });
    let incremental = args.iter().any(|a| a == "--incremental");
    if incremental && store_dir.is_none() {
        eprintln!("--incremental requires --store DIR");
        std::process::exit(2);
    }

    let programs = match group {
        Some(group) => group_programs(group),
        None => all_programs(),
    };
    let mut options = BenchOptions::default();
    if let Some(workers) = workers {
        options = options.with_workers(workers);
    }
    if let Some(dir) = &store_dir {
        let fingerprint = cpcf::EngineFingerprint::for_analyze(&options.analyze);
        match cpcf::AnalysisStore::open(dir, fingerprint) {
            Ok(store) => {
                eprintln!(
                    "[table1] store {}: {} verdicts, {} lemmas, {} export cones",
                    store.path().display(),
                    store.verdict_count(),
                    store.lemma_count(),
                    store.cone_count(),
                );
                options.analyze.store = Some(store);
                options.analyze.incremental = incremental;
            }
            Err(error) => {
                eprintln!("cannot open store in `{dir}`: {error}");
                std::process::exit(2);
            }
        }
    }

    let start = Instant::now();
    let results = run_all(&programs, &options);
    let wall_ms = start.elapsed().as_millis();
    if json {
        println!("{}", to_json(&results, wall_ms));
        return;
    }
    println!("{}", render_table(&results));
    if timing {
        println!("{}", timing_table(&results, wall_ms));
    }
    println!("{}", summarize(&results));
    println!("{}", summarize_stats(&results));
}
