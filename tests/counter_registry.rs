//! Properties of every declared counter registry, over every counter each
//! declares: `merge` is field-wise addition, `since` undoes it
//! (`a.merge(b).since(a) == b`), and `ZERO` is the identity.

use std::fmt::Debug;

use cpcf::{SessionStats, StoreCounters};
use folic::{SolverStats, Tally};
use scv_bench::RowCounters;

/// A seeded splitmix64 stream, masked so sums cannot overflow.
fn counts(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & 0xff_ffff_ffff
    }
}

fn filled<T: Tally>(seed: u64) -> T {
    let mut value = T::ZERO;
    value.fill(&mut counts(seed));
    value
}

/// The reported `(key, value)` pairs of a registry value.
fn reported<T: Tally>(value: &T) -> Vec<(&'static str, u64)> {
    let mut pairs = Vec::new();
    value.visit("", &mut |key, count| pairs.push((key, count)));
    pairs
}

fn check_registry<T: Tally + PartialEq + Debug>(name: &str) {
    for seed in 0..200 {
        let a: T = filled(2 * seed);
        let b: T = filled(2 * seed + 1);
        let mut sum = a;
        sum.merge(&b);

        assert_eq!(sum.since(&a), b, "{name}: (a + b) − a = b");
        assert_eq!(sum.since(&b), a, "{name}: (a + b) − b = a");
        assert_eq!(a.since(&sum), T::ZERO, "{name}: since saturates at zero");
        assert_eq!(a.since(&a), T::ZERO, "{name}");
        let mut identity = a;
        identity.merge(&T::ZERO);
        assert_eq!(identity, a, "{name}: zero is the identity");

        let (ra, rb, rsum) = (reported(&a), reported(&b), reported(&sum));
        assert!(!rsum.is_empty(), "{name} reports counters");
        for ((key, x), ((_, y), (_, total))) in ra.iter().zip(rb.iter().zip(&rsum)) {
            assert_eq!(*total, x + y, "{name}.{key}: merge adds field-wise");
        }
    }
    let mut keys: Vec<&str> = reported(&filled::<T>(7)).iter().map(|p| p.0).collect();
    let count = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), count, "{name}: report keys are unique");
}

#[test]
fn solver_stats_registry_laws() {
    check_registry::<SolverStats>("SolverStats");
}

#[test]
fn session_stats_registry_laws() {
    check_registry::<SessionStats>("SessionStats");
}

#[test]
fn store_counters_registry_laws() {
    check_registry::<StoreCounters>("StoreCounters");
}

#[test]
fn row_counters_registry_laws() {
    check_registry::<RowCounters>("RowCounters");
}

#[test]
fn session_stats_report_nested_solver_counters_flat() {
    let stats: SessionStats = filled(3);
    let keys: Vec<&str> = reported(&stats).iter().map(|p| p.0).collect();
    assert_eq!(keys.first(), Some(&"queries"));
    assert!(keys.contains(&"solver_checks"));
    assert!(keys.contains(&"scratch_fallbacks"));
    assert!(keys.contains(&"branch_truncations"));
    assert_eq!(keys.last(), Some(&"solver_ms"));
    assert!(!keys.contains(&"theory_dispatch_dl"));
    assert!(!keys.contains(&"num_queries"), "declared `=> _`");
}
