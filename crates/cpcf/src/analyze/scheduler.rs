//! The analysis scheduler: shards a module's per-export analyses across a
//! pool of `std::thread` workers.
//!
//! Per-export analyses are embarrassingly parallel — each export is analyzed
//! against its own most general context on its own symbolic heap — so the
//! pool uses the simplest sound work distribution: an atomic claim counter
//! over the export list. Each worker keeps **one long-lived
//! [`ProverSession`]** for every export it claims, so the session's verdict
//! cache (and, when export heaps share a journal prefix, its live solver
//! frames) stay warm across exports; a [`super::SharedVerdictCache`] in the
//! options additionally lets verdicts flow *between* workers and across
//! analysis runs.
//!
//! Determinism: the export slot a verdict lands in is fixed by the export's
//! position in the module, not by completion order, so `ModuleReport`
//! ordering is stable for any worker count. Verdicts themselves are
//! scheduling-independent because every cached proof is keyed by heap
//! content (fingerprint), and the prover is a deterministic function of that
//! content. Statistics are merged in worker-index order.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::prove::SessionStats;
use crate::syntax::{Module, Program};

use super::export::{analyze_export, new_session};
use super::{AnalyzeOptions, ExportAnalysis, ModuleReport};

/// Runs every export of `module`, sharded over `options.workers` threads.
pub(super) fn run_exports(
    program: &Program,
    module: &Module,
    options: &AnalyzeOptions,
) -> ModuleReport {
    let export_count = module.provides.len();
    // Resolve lemma sharing once per module run: every worker session (and
    // every throwaway validation session they spawn) gets a handle to the
    // same pool, so theory lemmas derived against one export prune the
    // searches of the others. An explicit pool in the options wins;
    // otherwise `CPCF_LEMMA_SHARING` decides whether a per-run pool exists.
    let mut options = options.clone();
    if options.shared_lemmas.is_none() && folic::default_lemma_sharing() {
        options.shared_lemmas = Some(folic::SharedLemmaPool::new());
    }
    let options = &options;
    let store = options.store.clone();

    // Dependency-cone hashes, computed once per export whenever a store is
    // attached: incremental mode reads them to skip unchanged cones, and
    // every mode writes freshly computed verdicts under them.
    let cone_hashes: Vec<u64> = if store.is_some() {
        module
            .provides
            .iter()
            .map(|provide| super::cone::export_cone_hash(program, module, provide))
            .collect()
    } else {
        Vec::new()
    };

    let mut slots: Vec<Option<(String, ExportAnalysis)>> = vec![None; export_count];
    let mut skipped: Vec<String> = Vec::new();
    // The work list: export indices that actually need analysis. In
    // incremental mode, an export whose cone hash matches a stored verdict
    // is answered from the store and never claimed by a worker.
    let mut pending: Vec<usize> = Vec::with_capacity(export_count);
    for (index, provide) in module.provides.iter().enumerate() {
        let reused = if options.incremental {
            store
                .as_ref()
                .and_then(|s| s.lookup_export(&module.name, &provide.name, cone_hashes[index]))
        } else {
            None
        };
        match reused {
            Some(analysis) => {
                slots[index] = Some((provide.name.clone(), analysis));
                skipped.push(provide.name.clone());
            }
            None => pending.push(index),
        }
    }

    // Warm-start the lemma pool from disk before any session exists, and
    // only when some export is re-analysed: stored theory lemmas are
    // universally valid arithmetic facts, so the first CDCL search of this
    // run already begins with the previous run's learned blocking clauses,
    // while a run that only reads stored cones never touches the pool.
    let lemmas_warm_started = match (&store, &options.shared_lemmas) {
        (Some(store), Some(pool)) if !pending.is_empty() => store.warm_start_lemmas(pool),
        _ => 0,
    };

    // `workers: 0` means "auto" (one worker per hardware thread); whatever
    // the request resolves to is then capped by the amount of actual work.
    let worker_count = super::resolve_workers(options.workers).clamp(1, pending.len().max(1));
    let next = AtomicUsize::new(0);
    let pending = &pending[..];
    let mut worker_stats: Vec<SessionStats> = Vec::with_capacity(worker_count);

    let place = |slots: &mut Vec<Option<(String, ExportAnalysis)>>,
                 worker_stats: &mut Vec<SessionStats>,
                 outcome: WorkerOutcome| {
        for (index, name, verdict) in outcome.results {
            slots[index] = Some((name, verdict));
        }
        worker_stats.push(outcome.stats);
    };

    if worker_count <= 1 {
        let outcome = worker_loop(program, module, options, pending, &next);
        place(&mut slots, &mut worker_stats, outcome);
    } else {
        // The heap's `Rc`-based environments keep evaluator state
        // thread-local, but the program, options and shared cache are all
        // `Sync`, so scoped threads borrow them directly.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..worker_count)
                .map(|_| scope.spawn(|| worker_loop(program, module, options, pending, &next)))
                .collect();
            for handle in handles {
                let outcome = handle.join().expect("analysis worker panicked");
                place(&mut slots, &mut worker_stats, outcome);
            }
        });
    }

    // Persist what this run added: freshly computed per-export verdicts
    // under their cone hashes (skipped slots are already on disk) and any
    // new theory lemmas, then flush so a crashed *next* process still reads
    // a clean file.
    if let Some(store) = &store {
        for &index in pending {
            if let Some((name, verdict)) = &slots[index] {
                store.record_export(&module.name, name, cone_hashes[index], verdict);
            }
        }
        if let Some(pool) = &options.shared_lemmas {
            store.record_lemmas(pool, 0);
        }
        store.flush();
    }

    let exports: Vec<(String, ExportAnalysis)> = slots
        .into_iter()
        .map(|slot| slot.expect("every export slot is filled by exactly one worker"))
        .collect();
    let mut stats = SessionStats::default();
    for per_worker in &worker_stats {
        stats.merge(per_worker);
    }
    ModuleReport {
        module: module.name.clone(),
        exports,
        stats,
        worker_stats,
        skipped,
        lemmas_warm_started,
    }
}

/// What one worker produced: verdicts tagged with their export index, plus
/// the worker's accumulated session statistics.
struct WorkerOutcome {
    results: Vec<(usize, String, ExportAnalysis)>,
    stats: SessionStats,
}

/// Claims exports off the shared counter (an index into the pending work
/// list, which excludes incrementally skipped exports) until the list is
/// exhausted, reusing one prover session for all of them.
fn worker_loop(
    program: &Program,
    module: &Module,
    options: &AnalyzeOptions,
    pending: &[usize],
    next: &AtomicUsize,
) -> WorkerOutcome {
    let mut session = new_session(options);
    let mut results = Vec::new();
    let mut stats = SessionStats::default();
    loop {
        let claim = next.fetch_add(1, Ordering::SeqCst);
        let Some(&index) = pending.get(claim) else {
            break;
        };
        let provide = &module.provides[index];
        // Heaps and evaluations are thread-local (Rc-based environments),
        // so the per-thread counters attribute this export's snapshot,
        // copy-on-write and truncation events exactly; the delta rides
        // along in the export's SessionStats.
        let thread_before = crate::prove::thread_totals();
        let (verdict, mut export_stats, reusable) =
            analyze_export(program, module, provide, options, session);
        export_stats.merge(&crate::prove::thread_totals().since(&thread_before));
        session = reusable;
        stats.merge(&export_stats);
        results.push((index, provide.name.clone(), verdict));
    }
    WorkerOutcome { results, stats }
}
