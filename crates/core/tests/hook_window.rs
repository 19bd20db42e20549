//! Exactness of `TempoController::hook_window`.
//!
//! Hosts skip an owner-local hook whenever the window says the
//! controller would ignore it, so the window must be *safe* (a hook
//! inside it changes nothing at all) and *tight* (a hook just outside it
//! always acts). Seeded random hook sequences drive every policy with
//! K = 1..=3; at every step both properties are checked for every
//! worker against clones of the live controller.

use hermes_core::{
    Frequency, HookWindow, ImmediacyList, Policy, ProfilerConfig, RecordingActuator, TempoConfig,
    TempoController, TempoStats, WorkerId,
};

const WORKERS: usize = 3;
/// Deque lengths are drawn below this; thresholds from averages in the
/// same range land inside it, so sequences cross bands both ways.
const LEN_CAP: usize = 20;

/// SplitMix64: a seeded, dependency-free source of test choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn controller(policy: Policy, k: usize) -> TempoController {
    let mut ctl = TempoController::new(
        TempoConfig::builder()
            .policy(policy)
            .frequencies(vec![
                Frequency::from_mhz(2400),
                Frequency::from_mhz(1900),
                Frequency::from_mhz(1600),
            ])
            .workers(WORKERS)
            .k_thresholds(k)
            .initial_average(6.0)
            .profiler(ProfilerConfig {
                window: 8,
                ..ProfilerConfig::default()
            })
            .build(),
    );
    ctl.set_tracing(true);
    ctl
}

/// Everything a hook could move.
#[derive(Debug, PartialEq)]
struct Snapshot {
    stats: TempoStats,
    bands: Vec<usize>,
    levels: Vec<i64>,
    links: ImmediacyList,
}

fn snapshot(ctl: &TempoController) -> Snapshot {
    Snapshot {
        stats: ctl.stats(),
        bands: (0..WORKERS).map(|i| ctl.band(WorkerId(i))).collect(),
        levels: (0..WORKERS)
            .map(|i| ctl.virtual_level(WorkerId(i)))
            .collect(),
        links: ctl.immediacy().clone(),
    }
}

/// Run `hook` on a clone of `ctl`; return the clone's snapshot, the
/// actuations it made and the transitions it traced.
fn on_clone(
    ctl: &TempoController,
    hook: impl FnOnce(&mut TempoController, &mut RecordingActuator),
) -> (Snapshot, usize, usize) {
    let mut probe = ctl.clone();
    let mut act = RecordingActuator::new();
    hook(&mut probe, &mut act);
    let mut traced = 0;
    probe.drain_transitions(|_| traced += 1);
    (snapshot(&probe), act.changes().len(), traced)
}

/// How often each tightness edge was exercised, so a run that never
/// reached an edge fails instead of passing vacuously.
#[derive(Debug, Default)]
struct Coverage {
    push_edge: usize,
    pop_edge: usize,
    linked: usize,
}

fn check_window(ctl: &TempoController, w: WorkerId, rng: &mut Rng, cov: &mut Coverage) {
    let before = snapshot(ctl);
    let HookWindow {
        push_max,
        pop_min,
        linked,
    } = ctl.hook_window(w);
    let assert_noop = |what: &str, hook: &dyn Fn(&mut TempoController, &mut RecordingActuator)| {
        let (after, actuations, traced) = on_clone(ctl, |c, a| hook(c, a));
        assert_eq!(after, before, "{what} inside the window moved state");
        assert_eq!(actuations, 0, "{what} inside the window actuated");
        assert_eq!(traced, 0, "{what} inside the window traced");
    };

    // Safe: lengths inside the window leave everything untouched.
    let push_top = push_max.min(4 * LEN_CAP);
    for len in [0, push_top, rng.below(push_top + 1)] {
        assert_noop(&format!("on_push({w}, {len})"), &|c, a| {
            c.on_push(w, len, a)
        });
    }
    for len in [pop_min, pop_min + 1, pop_min + rng.below(4 * LEN_CAP)] {
        assert_noop(&format!("on_pop({w}, {len})"), &|c, a| c.on_pop(w, len, a));
    }
    if !linked {
        assert_noop(&format!("on_out_of_work({w})"), &|c, a| {
            c.on_out_of_work(w, a)
        });
    }

    // Tight: one past either edge, the hook acts.
    if push_max != usize::MAX {
        cov.push_edge += 1;
        let (after, _, _) = on_clone(ctl, |c, a| c.on_push(w, push_max + 1, a));
        assert_ne!(
            after.stats,
            before.stats,
            "on_push({w}, {}) idle",
            push_max + 1
        );
    }
    if pop_min > 0 {
        cov.pop_edge += 1;
        let (after, _, _) = on_clone(ctl, |c, a| c.on_pop(w, pop_min - 1, a));
        assert_ne!(
            after.stats,
            before.stats,
            "on_pop({w}, {}) idle",
            pop_min - 1
        );
    }
    if linked {
        cov.linked += 1;
        let (after, _, _) = on_clone(ctl, |c, a| c.on_out_of_work(w, a));
        assert_ne!(after, before, "on_out_of_work({w}) on a linked worker idle");
    }
}

/// One random scheduler event on the live controller.
fn step(ctl: &mut TempoController, rng: &mut Rng) {
    let mut act = RecordingActuator::new();
    let w = WorkerId(rng.below(WORKERS));
    let len = rng.below(LEN_CAP);
    match rng.below(8) {
        0 | 1 => ctl.on_push(w, len, &mut act),
        2 | 3 => ctl.on_pop(w, len, &mut act),
        4 => {
            let victim = WorkerId((w.0 + 1 + rng.below(WORKERS - 1)) % WORKERS);
            ctl.on_steal(w, victim, len, &mut act);
        }
        5 => ctl.on_out_of_work(w, &mut act),
        6 => {
            if ctl.is_parked(w) {
                ctl.on_unpark(w, &mut act);
            } else {
                ctl.on_park(w, &mut act);
            }
        }
        _ => {
            for _ in 0..WORKERS {
                ctl.record_deque_sample(rng.below(LEN_CAP));
            }
            ctl.recompute_thresholds();
        }
    }
    ctl.drain_transitions(|_| {});
}

#[test]
fn hook_window_is_exact_under_random_hook_sequences() {
    for policy in Policy::all() {
        for k in 1..=3 {
            for seed in 0..4u64 {
                let mut rng = Rng(seed ^ ((k as u64) << 8) ^ ((policy as u64) << 16));
                let mut ctl = controller(policy, k);
                let mut cov = Coverage::default();
                for _ in 0..600 {
                    step(&mut ctl, &mut rng);
                    for i in 0..WORKERS {
                        check_window(&ctl, WorkerId(i), &mut rng, &mut cov);
                    }
                }
                let ctx = format!("{policy} K={k} seed={seed}: {cov:?}");
                if policy.workload() {
                    assert!(cov.push_edge > 0 && cov.pop_edge > 0, "{ctx}");
                } else {
                    assert_eq!(cov.push_edge + cov.pop_edge, 0, "{ctx}");
                }
                if policy.workpath() {
                    assert!(cov.linked > 0, "{ctx}");
                } else {
                    assert_eq!(cov.linked, 0, "{ctx}");
                }
            }
        }
    }
}

#[test]
fn baseline_window_skips_everything() {
    let ctl = controller(Policy::Baseline, 2);
    for i in 0..WORKERS {
        assert_eq!(
            ctl.hook_window(WorkerId(i)),
            HookWindow {
                push_max: usize::MAX,
                pop_min: 0,
                linked: false,
            }
        );
    }
}
