//! Cross-crate integration of the real-thread runtime: the workload
//! algorithms running on tempo-controlled pools, with correctness
//! verified against oracles under every policy.

use hermes::core::{Frequency, Policy, TempoConfig};
use hermes::rt::{DequeKind, Pool};
use hermes::workloads::{
    convex_hull_oracle, knn_classify, knn_classify_oracle, labeled_points, quickhull, radix_sort,
    ray_cast_set, raycast, raycast_oracle, sample_sort, skewed_keys, triangle_soup, uniform_keys,
    uniform_points2,
};

fn tempo_pool(policy: Policy, workers: usize, deque: DequeKind) -> Pool {
    let tempo = TempoConfig::builder()
        .policy(policy)
        .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
        .workers(workers)
        .build();
    Pool::builder()
        .workers(workers)
        .tempo(tempo)
        .deque(deque)
        .emulated_dvfs(Frequency::from_mhz(2400), 8.0)
        .build()
}

#[test]
fn sorts_are_correct_under_every_policy() {
    for policy in Policy::all() {
        let pool = tempo_pool(policy, 4, DequeKind::The);
        let mut a = uniform_keys(120_000, 5);
        let mut b = skewed_keys(120_000, 6);
        let mut ea = a.clone();
        let mut eb = b.clone();
        ea.sort_unstable();
        eb.sort_unstable();
        pool.install(|| radix_sort(&mut a));
        pool.install(|| sample_sort(&mut b));
        assert_eq!(a, ea, "{policy}: radix");
        assert_eq!(b, eb, "{policy}: sample");
        pool.shutdown();
    }
}

#[test]
fn geometry_benchmarks_match_oracles_with_tempo_control() {
    let pool = tempo_pool(Policy::Unified, 4, DequeKind::The);

    let mut train = labeled_points(3_000, 4, 7);
    let queries = uniform_points2(300, 8);
    let expect = knn_classify_oracle(&train, &queries, 5);
    let got = pool.install(|| knn_classify(&mut train, &queries, 5));
    assert_eq!(got, expect, "knn");

    let tris = triangle_soup(1_500, 0.2, 9);
    let rays = ray_cast_set(200, 10);
    let expect = raycast_oracle(&tris, &rays);
    let got = pool.install(|| raycast(&tris, &rays));
    assert_eq!(got, expect, "ray");

    let pts = uniform_points2(4_000, 11);
    let mut expect: Vec<_> = convex_hull_oracle(&pts)
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    let mut got: Vec<_> = pool
        .install(|| quickhull(&pts))
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect();
    expect.sort_unstable();
    got.sort_unstable();
    assert_eq!(got, expect, "hull");
}

#[test]
fn lock_free_deque_pool_is_equivalent() {
    let pool = tempo_pool(Policy::Unified, 4, DequeKind::LockFree);
    let mut keys = uniform_keys(150_000, 12);
    let mut expect = keys.clone();
    expect.sort_unstable();
    pool.install(|| radix_sort(&mut keys));
    assert_eq!(keys, expect);
    assert!(pool.stats().pushes > 0);
}

#[test]
fn tempo_hooks_fire_under_real_load() {
    let pool = tempo_pool(Policy::Unified, 4, DequeKind::The);
    let mut keys = uniform_keys(400_000, 13);
    pool.install(|| radix_sort(&mut keys));
    let stats = pool.tempo_stats();
    assert!(stats.steals > 0, "steals observed: {stats}");
    assert!(stats.path_downs > 0, "thief procrastination fired: {stats}");
    assert!(
        pool.total_energy().expect("emulated driver present") > 0.0,
        "energy accounted"
    );
}

#[test]
fn emulated_dvfs_accounts_energy_under_tempo_control() {
    // Under the unified policy with emulated DVFS, workers spend time at
    // the slow frequency (dilated) and the accountant integrates energy.
    let mut pool = tempo_pool(Policy::Unified, 4, DequeKind::The);
    let mut keys = uniform_keys(300_000, 14);
    pool.install(|| radix_sort(&mut keys));
    // Freeze the meters before comparing two reads of them: a worker
    // still dilating its last job or spinning idle charges energy
    // between the reads otherwise.
    pool.stop();
    let energy = pool.total_energy().expect("emulated driver present");
    assert!(energy > 0.0, "energy accounted: {energy}");
    let by_worker = pool.energy_by_worker().expect("emulated driver present");
    assert_eq!(by_worker.len(), 4);
    assert!(by_worker.iter().all(|&j| j >= 0.0));
    assert!((by_worker.iter().sum::<f64>() - energy).abs() < 1e-9);
}

#[test]
fn many_pools_lifecycle_cleanly() {
    for i in 0..8 {
        let pool = Pool::new(2 + (i % 3));
        let mut v: Vec<u32> = (0..20_000).rev().collect();
        pool.install(|| radix_sort(&mut v));
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
        pool.shutdown();
    }
}

/// A frequency driver that always fails: tempo control must stay
/// best-effort — scheduling correctness is never coupled to actuation.
#[derive(Debug)]
struct FailingDriver;

impl hermes::rt::FrequencyDriver for FailingDriver {
    fn set_frequency(
        &self,
        _worker: usize,
        _freq: hermes::core::Frequency,
    ) -> Result<(), hermes::rt::DriverError> {
        Err(hermes::rt::DriverError::new("actuation unavailable"))
    }

    fn frequency(&self, _worker: usize) -> Option<hermes::core::Frequency> {
        None
    }

    fn name(&self) -> &'static str {
        "failing"
    }
}

#[test]
fn actuator_failure_never_breaks_scheduling() {
    use std::sync::Arc;
    let tempo = TempoConfig::builder()
        .policy(Policy::Unified)
        .frequencies(vec![Frequency::from_mhz(2400), Frequency::from_mhz(1600)])
        .workers(4)
        .build();
    let pool = Pool::builder()
        .workers(4)
        .tempo(tempo)
        .driver(Arc::new(FailingDriver))
        .build();
    let mut keys = uniform_keys(200_000, 77);
    let mut expect = keys.clone();
    expect.sort_unstable();
    pool.install(|| radix_sort(&mut keys));
    assert_eq!(keys, expect);
    // The controller still made decisions; the driver just dropped them.
    assert!(pool.tempo_stats().actuations > 0);
}

#[test]
fn empty_deque_storm_terminates() {
    // Many workers, almost no work: constant failed steals must neither
    // spin a worker into a livelock nor lose the single task.
    let pool = Pool::new(6);
    for round in 0..50 {
        let got = pool.install(move || round * 2);
        assert_eq!(got, round * 2);
    }
}

#[test]
fn steal_contention_storm_conserves_results() {
    // One deep spine with tiny tasks: thieves hammer a single victim.
    let pool = Pool::new(6);
    let total = pool.install(|| {
        hermes::rt::parallel_map_reduce(100_000, 4, 0u64, &|i| i as u64, &|a, b| a + b)
    });
    assert_eq!(total, 100_000u64 * 99_999 / 2);
    assert!(pool.stats().steals > 0);
}
