//! Persistent-store robustness over the real corpus and the randomized
//! heap-trace generator: a warm (second) run against the same store
//! directory must produce bit-identical verdicts to the cold run while
//! re-proving strictly less, and damaged store files must degrade to a cold
//! start — never to a panic or a wrong verdict.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use cpcf::{
    AnalysisStore, AnalyzeOptions, EngineFingerprint, ProverSession, SharedLemmaPool,
    SharedVerdictCache,
};
use folic::SolverConfig;
use randtest::heaptrace::{HeapTrace, TraceConfig};
use scv_bench::corpus::all_programs;
use scv_bench::harness::{run_all, BenchOptions, ProgramResult};
use scv_bench::report::total_stats;

/// A fresh per-test store directory under the system temp dir.
fn temp_store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cpcf-store-bench-{}-{}-{}",
        std::process::id(),
        tag,
        unique
    ))
}

/// The corpus run used by the persistence tests: the quick budget so the
/// debug-build suite stays fast, programs sharded over the hardware
/// threads, and an explicit lemma pool so lemma persistence is exercised
/// regardless of the `CPCF_LEMMA_SHARING` environment.
fn corpus_options(store: AnalysisStore) -> BenchOptions {
    let mut options = BenchOptions::quick().with_workers(0);
    options.analyze.shared_lemmas = Some(SharedLemmaPool::new());
    options.analyze.store = Some(store);
    options
}

fn verdicts(results: &[ProgramResult]) -> Vec<(String, String, String)> {
    results
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                format!("{:?}", r.correct_verdict),
                format!("{:?}", r.faulty_verdict),
            )
        })
        .collect()
}

fn open_store(dir: &PathBuf, options: &AnalyzeOptions) -> AnalysisStore {
    AnalysisStore::open(dir, EngineFingerprint::for_analyze(options)).expect("store opens")
}

#[test]
fn warm_corpus_rerun_is_bit_identical_and_reproves_less() {
    let dir = temp_store_dir("corpus");
    let programs = all_programs();

    // Cold: an empty store sees only misses and writes.
    let cold_options = corpus_options(open_store(&dir, &corpus_options_probe()));
    let cold = run_all(&programs, &cold_options);
    let cold_stats = total_stats(&cold);
    assert_eq!(cold_stats.store_hits, 0, "an empty store cannot hit");
    assert!(cold_stats.store_misses > 0, "cold misses are counted");
    assert!(cold_stats.store_writes > 0, "cold verdicts are persisted");
    drop(cold_options); // release the cold writer before reopening

    // Warm: a new store handle over the same directory, as a second process
    // would open. Verdicts must be bit-identical and strictly fewer queries
    // must fall through to the prover.
    let warm_options = corpus_options(open_store(&dir, &corpus_options_probe()));
    let warm_store = warm_options.analyze.store.clone().expect("store attached");
    assert!(
        warm_store.verdict_count() > 0,
        "the cold run persisted verdicts"
    );
    let warm = run_all(&programs, &warm_options);
    let warm_stats = total_stats(&warm);

    assert_eq!(
        verdicts(&cold),
        verdicts(&warm),
        "cold and warm corpus verdicts must be bit-identical"
    );
    assert!(
        warm_stats.store_hits > 0,
        "the warm rerun answers queries from the store"
    );
    assert!(
        warm_stats.store_misses < cold_stats.store_misses,
        "the warm rerun re-proves strictly fewer queries \
         (cold {} misses vs warm {})",
        cold_stats.store_misses,
        warm_stats.store_misses
    );
    // Every lemma the cold run persisted warm-starts the warm run's pools
    // (summed per program, so the total is at least the store's count when
    // any lemmas were derived at all).
    if warm_store.lemma_count() > 0 {
        let warm_started: u64 = warm.iter().map(|r| r.counters.lemmas_warm_started).sum();
        assert!(
            warm_started >= warm_store.lemma_count() as u64,
            "stored lemmas ({}) warm-start the warm run ({})",
            warm_store.lemma_count(),
            warm_started
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// The analyze options the corpus runs use, for fingerprint computation
/// (must match `corpus_options` in every engine-shaping respect).
fn corpus_options_probe() -> AnalyzeOptions {
    BenchOptions::quick().with_workers(0).analyze
}

/// Replays `seeds` traces through a store-backed session per trace,
/// returning every verdict in order. The optional lemma pool is shared by
/// every session of the replay and recorded to the store at the end, the
/// way one analysis run's pool is.
fn replay_traces(
    seeds: std::ops::Range<u64>,
    config: &TraceConfig,
    store: Option<&AnalysisStore>,
    pool: Option<&SharedLemmaPool>,
) -> Vec<folic::Proof> {
    let mut verdicts = Vec::new();
    for seed in seeds {
        let trace = HeapTrace::generate(seed, config);
        let cache = match store {
            Some(store) => SharedVerdictCache::with_store(store.clone()),
            None => SharedVerdictCache::new(),
        };
        let mut session = ProverSession::with_config_and_cache(SolverConfig::default(), cache);
        if let Some(pool) = pool {
            session.set_lemma_pool(pool.clone());
        }
        verdicts.extend(trace.replay(&mut session));
    }
    if let (Some(store), Some(pool)) = (store, pool) {
        store.record_lemmas(pool, 0);
    }
    if let Some(store) = store {
        store.flush();
    }
    verdicts
}

#[test]
fn heap_trace_differential_cold_vs_warm_over_200_seeds() {
    // The chain-free trace corpus, like the engine-equivalence
    // differentials: difference-chain traces multiply budget-limited
    // (Ambiguous) verdicts whose outcome is trajectory-sensitive between
    // same-process runs, which would test the solver's run-order
    // sensitivity rather than the store. (Warm-vs-cold identity holds even
    // for trajectory-sensitive verdicts — every warm query is answered
    // from the store — but the storeless-vs-cold leg needs stable ground
    // truth.)
    let dir = temp_store_dir("traces");
    let config = TraceConfig::default();
    let fingerprint = EngineFingerprint::from_tokens(["heaptrace-differential"]);

    // Ground truth: no store at all.
    let plain = replay_traces(0..200, &config, None, None);

    // Cold: store attached but empty; verdicts must match the storeless run.
    let cold_store = AnalysisStore::open(&dir, fingerprint).expect("store opens");
    let cold = replay_traces(0..200, &config, Some(&cold_store), None);
    assert_eq!(plain, cold, "an empty store must not perturb verdicts");
    let persisted = cold_store.verdict_count();
    assert!(persisted > 0, "the cold replay persisted verdicts");
    drop(cold_store);

    // Warm: a second process over the same file. Bit-identical verdicts,
    // answered from disk.
    let warm_store = AnalysisStore::open(&dir, fingerprint).expect("store reopens");
    assert_eq!(warm_store.verdict_count(), persisted);
    let warm = replay_traces(0..200, &config, Some(&warm_store), None);
    assert_eq!(cold, warm, "cold and warm trace verdicts are bit-identical");
    let counters = warm_store.counters();
    assert!(
        counters.store_hits > 0,
        "the warm replay answered queries from the store"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_chain_lemmas_persist_and_warm_start_without_changing_verdicts() {
    // The lemma tier, on the traces that actually derive theory lemmas:
    // difference-constraint cycles produce theory-UNSAT explanations the
    // sessions publish to their pool. The cold replay records them; the
    // warm replay re-interns them into a fresh pool before any session
    // exists — and still returns bit-identical verdicts, because every
    // query is answered from the store's verdict tier (a lemma can prune a
    // search, never change its outcome).
    let dir = temp_store_dir("lemmas");
    let config = TraceConfig::with_diff_chains();
    let fingerprint = EngineFingerprint::from_tokens(["heaptrace-lemmas"]);

    let cold_store = AnalysisStore::open(&dir, fingerprint).expect("store opens");
    let cold_pool = SharedLemmaPool::new();
    let cold = replay_traces(0..15, &config, Some(&cold_store), Some(&cold_pool));
    let lemmas = cold_store.lemma_count();
    assert!(
        lemmas > 0,
        "difference-chain traces derive theory lemmas worth persisting"
    );
    drop(cold_store);

    let warm_store = AnalysisStore::open(&dir, fingerprint).expect("store reopens");
    assert_eq!(warm_store.lemma_count(), lemmas, "lemma records survive");
    let warm_pool = SharedLemmaPool::new();
    let warm_started = warm_store.warm_start_lemmas(&warm_pool);
    assert!(
        warm_started > 0,
        "stored lemmas republish into a fresh pool"
    );
    assert_eq!(
        warm_pool.len(),
        warm_started as usize,
        "the fresh pool holds exactly the republished lemmas"
    );
    let warm = replay_traces(0..15, &config, Some(&warm_store), Some(&warm_pool));
    assert_eq!(
        cold, warm,
        "a warm-started lemma pool never changes a stored verdict"
    );
    assert_eq!(warm_store.counters().lemmas_warm_started, warm_started);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The single store file inside `dir` (there is exactly one per
/// fingerprint).
fn store_file(dir: &PathBuf) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("store dir exists")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    assert_eq!(files.len(), 1, "one store file per fingerprint");
    files.pop().expect("one file")
}

#[test]
fn truncated_and_garbage_store_files_degrade_to_cold_starts() {
    let dir = temp_store_dir("damage");
    let config = TraceConfig::default();
    let fingerprint = EngineFingerprint::from_tokens(["damage-robustness"]);

    // Populate a store, then remember the intact verdicts.
    let store = AnalysisStore::open(&dir, fingerprint).expect("store opens");
    let intact = replay_traces(0..20, &config, Some(&store), None);
    let intact_count = store.verdict_count();
    assert!(intact_count > 0);
    drop(store);
    let file = store_file(&dir);
    let bytes = std::fs::read(&file).expect("store file reads");

    // Truncate deep into the verdict region at the front of the file (the
    // replay appends its verdict records before the end-of-run lemma dump,
    // so a 1 KiB prefix holds the header plus a handful of verdicts, almost
    // certainly cut mid-record): the valid prefix survives, everything at
    // or after the cut is dropped, and replaying still produces the intact
    // verdicts (recomputing the dropped ones).
    std::fs::write(&file, &bytes[..1000]).expect("truncate");
    let truncated = AnalysisStore::open(&dir, fingerprint).expect("truncated file opens");
    assert!(
        truncated.verdict_count() < intact_count,
        "records at or after the cut are dropped"
    );
    let replayed = replay_traces(0..20, &config, Some(&truncated), None);
    assert_eq!(intact, replayed, "a truncated store never changes verdicts");
    drop(truncated);

    // Corrupt a payload byte mid-file: everything from the damaged record
    // on is dropped, verdicts still match.
    let mut corrupt = bytes.clone();
    let middle = corrupt.len() / 2;
    corrupt[middle] ^= 0xff;
    std::fs::write(&file, &corrupt).expect("corrupt");
    let corrupted = AnalysisStore::open(&dir, fingerprint).expect("corrupt file opens");
    assert!(corrupted.verdict_count() <= intact_count);
    let replayed = replay_traces(0..20, &config, Some(&corrupted), None);
    assert_eq!(intact, replayed, "a corrupted store never changes verdicts");
    drop(corrupted);

    // Replace the file with garbage entirely: a cold start, fully usable.
    std::fs::write(&file, b"this is not a store file at all").expect("garbage");
    let garbage = AnalysisStore::open(&dir, fingerprint).expect("garbage file opens");
    assert_eq!(garbage.verdict_count(), 0, "garbage loads as a cold store");
    let replayed = replay_traces(0..20, &config, Some(&garbage), None);
    assert_eq!(intact, replayed, "a garbage store never changes verdicts");
    assert!(
        garbage.verdict_count() > 0,
        "the cold start repopulates the recreated file"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
