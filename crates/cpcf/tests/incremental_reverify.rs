//! Incremental re-verification through the persistent analysis store:
//! a cold run populates per-export verdicts keyed by dependency-cone hash,
//! and subsequent `incremental: true` runs skip every export whose cone is
//! unchanged — re-analyzing exactly the exports an edit actually reaches.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use cpcf::{
    analyze_source_with, AnalysisStore, AnalyzeOptions, EngineFingerprint, ExportAnalysis,
    SharedLemmaPool,
};
use folic::{Arena, Atom, CmpOp, Term, Var};

/// A fresh per-test store directory under the system temp dir.
fn temp_store_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let unique = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cpcf-incr-test-{}-{}-{}",
        std::process::id(),
        tag,
        unique
    ))
}

/// Two modules, three exports in `main`: `f` reaches `helpers.double`,
/// `g` and `h` are self-contained. Editing `double` must re-analyze `f`
/// only; `g` and `h` stay skipped.
const SOURCE_V1: &str = r#"
    (module helpers
      (provide [double (-> integer? integer?)])
      (define (double x) (* x 2))
      (define (offset x) (+ x 7)))
    (module main
      (provide [f (-> integer? integer?)]
               [g (-> integer? integer?)]
               [h (-> integer? integer?)])
      (define (f n) (double n))
      (define (g n) (+ n 1))
      (define (h n) (- n 3)))
"#;

fn options_with_store(store: AnalysisStore, incremental: bool) -> AnalyzeOptions {
    AnalyzeOptions {
        store: Some(store),
        incremental,
        workers: 1,
        ..AnalyzeOptions::default()
    }
}

fn open_store(dir: &PathBuf) -> AnalysisStore {
    let fingerprint = EngineFingerprint::for_analyze(&AnalyzeOptions::default());
    AnalysisStore::open(dir, fingerprint).expect("store opens")
}

#[test]
fn unchanged_source_skips_every_export_and_reuses_verdicts() {
    let dir = temp_store_dir("unchanged");

    let cold_store = open_store(&dir);
    let cold =
        analyze_source_with(SOURCE_V1, &options_with_store(cold_store, true)).expect("v1 parses");
    assert!(
        cold.skipped.is_empty(),
        "an empty store has nothing to skip from, got {:?}",
        cold.skipped
    );
    assert!(cold.all_verified(), "the v1 exports all verify");

    // A new process over the same directory: every cone hash is unchanged,
    // so the warm run answers all three exports from the store.
    let warm_store = open_store(&dir);
    assert_eq!(warm_store.cone_count(), 3, "three per-export cone records");
    let warm =
        analyze_source_with(SOURCE_V1, &options_with_store(warm_store, true)).expect("v1 parses");
    assert_eq!(
        warm.skipped,
        vec!["f".to_string(), "g".to_string(), "h".to_string()],
        "a fully warm incremental run skips every export"
    );
    assert_eq!(
        warm.exports, cold.exports,
        "reused verdicts are bit-identical to the cold run's"
    );
    assert_eq!(
        warm.stats.queries, 0,
        "nothing was re-proved on the fully warm run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn editing_one_dependency_reanalyzes_only_its_dependents() {
    let dir = temp_store_dir("edit");

    let cold = analyze_source_with(SOURCE_V1, &options_with_store(open_store(&dir), true))
        .expect("v1 parses");
    assert!(cold.skipped.is_empty());

    // Edit `double` — reached only by `f`. The warm incremental run must
    // re-analyze `f` and answer `g` and `h` from the store.
    let v2 = SOURCE_V1.replace("(* x 2)", "(* x 3)");
    let warm =
        analyze_source_with(&v2, &options_with_store(open_store(&dir), true)).expect("v2 parses");
    assert_eq!(
        warm.skipped,
        vec!["g".to_string(), "h".to_string()],
        "only the exports outside the edited cone are skipped"
    );
    assert!(warm.all_verified(), "the edited `f` still verifies");
    assert_eq!(warm.exports.len(), 3, "skipped exports keep their slots");

    // A third run over the edited source is fully warm again: the edited
    // cone's verdict was recorded under its new hash.
    let rewarm =
        analyze_source_with(&v2, &options_with_store(open_store(&dir), true)).expect("v2 parses");
    assert_eq!(
        rewarm.skipped.len(),
        3,
        "the v2 verdicts are now all stored"
    );

    // And the original source still hits its own records — both program
    // versions coexist in one store, keyed by cone hash.
    let v1_again = analyze_source_with(SOURCE_V1, &options_with_store(open_store(&dir), true))
        .expect("v1 parses");
    assert_eq!(
        v1_again.skipped.len(),
        3,
        "v1 cone records were not evicted"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_incremental_runs_never_skip_but_still_record() {
    let dir = temp_store_dir("record");

    // A plain (non-incremental) run with a store attached records cones...
    let cold = analyze_source_with(SOURCE_V1, &options_with_store(open_store(&dir), false))
        .expect("v1 parses");
    assert!(cold.skipped.is_empty());

    // ...which a later incremental run reuses; but re-running without
    // `incremental` re-analyzes everything even though the store is warm.
    let plain = analyze_source_with(SOURCE_V1, &options_with_store(open_store(&dir), false))
        .expect("v1 parses");
    assert!(
        plain.skipped.is_empty(),
        "skipping is opt-in via `incremental`"
    );
    let incremental = analyze_source_with(SOURCE_V1, &options_with_store(open_store(&dir), true))
        .expect("v1 parses");
    assert_eq!(incremental.skipped.len(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn skipped_counterexample_verdicts_round_trip() {
    let dir = temp_store_dir("cex");

    // `bad` violates its range contract; the cold run finds and validates a
    // counterexample, and the warm incremental run reuses it bit-for-bit.
    let source = r#"
        (module main
          (provide [bad (-> integer? (lambda (n) (> n 0)))]
                   [good (-> integer? integer?)])
          (define (bad n) (- n 100))
          (define (good n) (+ n 1)))
    "#;
    let cold =
        analyze_source_with(source, &options_with_store(open_store(&dir), true)).expect("parses");
    let cold_bad = &cold.exports[0];
    assert!(
        matches!(cold_bad.1, ExportAnalysis::Counterexample(_)),
        "the cold run refutes `bad`, got {:?}",
        cold_bad
    );

    let warm =
        analyze_source_with(source, &options_with_store(open_store(&dir), true)).expect("parses");
    assert_eq!(warm.skipped.len(), 2);
    assert_eq!(
        warm.exports, cold.exports,
        "the stored counterexample (blame, bindings, validation bit) \
         round-trips unchanged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Persists three theory lemmas into the store at `dir`, as an earlier
/// run's pool would have left them.
fn seed_lemmas(dir: &PathBuf) {
    let store = open_store(dir);
    let pool = SharedLemmaPool::new();
    let mut arena = Arena::new();
    for i in 0..3 {
        let atom = Atom {
            lhs: Term::Var(Var::new(900 + i)),
            op: CmpOp::Le,
            rhs: Term::Int(i64::from(i)),
        };
        pool.publish(&[arena.intern_atom(&atom)]);
    }
    assert_eq!(store.record_lemmas(&pool, 0), 3);
    store.flush();
}

/// An incremental run with its own lemma pool, so warm starts happen
/// whatever `CPCF_LEMMA_SHARING` says.
fn options_with_pool(store: AnalysisStore) -> AnalyzeOptions {
    AnalyzeOptions {
        shared_lemmas: Some(SharedLemmaPool::new()),
        ..options_with_store(store, true)
    }
}

#[test]
fn idle_incremental_rerun_warm_starts_no_lemmas() {
    let dir = temp_store_dir("idle");
    seed_lemmas(&dir);

    let cold_store = open_store(&dir);
    let cold =
        analyze_source_with(SOURCE_V1, &options_with_pool(cold_store.clone())).expect("v1 parses");
    assert!(cold.skipped.is_empty());
    assert_eq!(cold.lemmas_warm_started, 3, "an analysing run warm-starts");
    assert_eq!(cold_store.counters().lemmas_warm_started, 3);
    drop(cold_store);

    // Nothing changed: every export is answered from the store, and the
    // lemma pool is never warm-started.
    let warm_store = open_store(&dir);
    let warm =
        analyze_source_with(SOURCE_V1, &options_with_pool(warm_store.clone())).expect("v1 parses");
    assert_eq!(warm.skipped.len(), 3, "a no-op rerun skips every export");
    assert_eq!(warm.lemmas_warm_started, 0);
    assert_eq!(warm_store.counters().lemmas_warm_started, 0);
    assert_eq!(
        warm.exports, cold.exports,
        "reused verdicts are bit-identical to the cold run's"
    );
    drop(warm_store);

    // Editing `g` re-analyses `g` alone, which warm-starts every stored
    // lemma into its fresh pool.
    let v2 = SOURCE_V1.replace("(+ n 1)", "(+ n 2)");
    let edit_store = open_store(&dir);
    let edited =
        analyze_source_with(&v2, &options_with_pool(edit_store.clone())).expect("v2 parses");
    assert_eq!(edited.skipped, vec!["f".to_string(), "h".to_string()]);
    let stored = edit_store.lemma_count() as u64;
    assert_eq!(stored, 3);
    assert_eq!(edited.lemmas_warm_started, stored);
    assert_eq!(edit_store.counters().lemmas_warm_started, stored);

    let _ = std::fs::remove_dir_all(&dir);
}
