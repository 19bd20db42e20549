//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer — nothing inside the runtime is instrumented. Each span has
//! a name whose first dot-separated word is its layer (`rt.join`,
//! `workloads.radix`, `serve.submit`), a start and end on the tracer's
//! clock, the id of the span that caused it, and the id of the operation
//! or request it belongs to. Spans stay in memory until the run ends and
//! are then written out in one go.

use crate::stats::self_time;
use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Layers the self-time report covers, in report order. `bench` is the
/// benchmark's own code between layer calls; `user` is the compute the
/// benchmark hands the runtime (fib leaves, request kernels).
pub const LAYERS: [&str; 6] = ["bench", "loadgen", "rt", "serve", "user", "workloads"];

/// One recorded span. Times are nanoseconds on the tracer's clock.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Id of the causing span; 0 for a root.
    pub parent: u64,
    /// Id shared by every span of one operation or request.
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span ids are handed out in blocks so each thread allocates without
/// touching a shared cache line.
static NEXT_BLOCK: AtomicU64 = AtomicU64::new(1);
const ID_BLOCK: u64 = 1 << 20;

thread_local! {
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// A fresh span id, unique across threads and never 0.
#[must_use]
pub fn next_id() -> u64 {
    IDS.with(|ids| {
        let (mut next, mut limit) = ids.get();
        if next == limit {
            next = NEXT_BLOCK.fetch_add(1, Ordering::Relaxed) * ID_BLOCK;
            limit = next + ID_BLOCK;
        }
        ids.set((next + 1, limit));
        next
    })
}

/// Collects spans from any thread. Pool workers record into their own
/// shard (indexed by worker), every other thread into the last one, so
/// recording never contends across workers.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            shards: (0..=workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Nanoseconds since the tracer was made.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, span: Span) {
        let last = self.shards.len() - 1;
        let shard = hermes_rt::current_worker_index().map_or(last, |w| w.min(last));
        self.shards[shard]
            .lock()
            .expect("a span shard is never held across a panic")
            .push(span);
    }

    /// Record a span ending now.
    pub fn close(&self, name: &'static str, id: u64, parent: u64, op: u64, start: u64) {
        let end = self.now();
        self.record(Span {
            name,
            id,
            parent,
            op,
            start,
            end,
        });
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        let mut spans: Vec<Span> = self
            .shards
            .into_iter()
            .flat_map(|s| s.into_inner().expect("span shard not poisoned"))
            .collect();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// Self time of every span, in nanoseconds, in `spans` order.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            self_time(s.start, s.end, kids)
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds, in [`LAYERS`] order.
/// Spans of layers outside [`LAYERS`] are ignored.
#[must_use]
pub fn layer_self_ns(spans: &[Span]) -> [u64; LAYERS.len()] {
    let mut totals = [0u64; LAYERS.len()];
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        if let Some(i) = LAYERS.iter().position(|&l| l == s.layer()) {
            totals[i] += ns;
        }
    }
    totals
}

/// Self times of every span named `name`, in nanoseconds.
#[must_use]
pub fn self_ns_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64)
        .collect()
}

/// Durations of every span named `name`, in nanoseconds.
#[must_use]
pub fn durations_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end.saturating_sub(s.start) as f64)
        .collect()
}

/// Write spans as tab-separated lines: name, id, parent, op, start, end.
pub fn write_spans(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tid\tparent\top\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, s.id, s.parent, s.op, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            start,
            end,
        }
    }

    #[test]
    fn layer_self_time_subtracts_overlapping_children() {
        // A join whose two branches ran in parallel on two workers.
        let spans = [
            span("bench.op", 1, 0, 0, 100),
            span("rt.join", 2, 1, 10, 90),
            span("user.fib", 3, 2, 12, 60),
            span("user.fib", 4, 2, 20, 85),
        ];
        let self_ns = layer_self_ns(&spans);
        let get = |l: &str| self_ns[LAYERS.iter().position(|&x| x == l).unwrap()];
        assert_eq!(get("bench"), 20);
        assert_eq!(get("rt"), 80 - 73);
        assert_eq!(get("user"), 48 + 65);
        assert_eq!(self_ns_of(&spans, "rt.join"), vec![7.0]);
        assert_eq!(durations_ns(&spans, "user.fib"), vec![48.0, 65.0]);
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let ids: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..2)
                .map(|_| s.spawn(|| (0..1000).map(|_| next_id()).collect::<Vec<_>>()))
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        assert!(!ids.contains(&0));
    }
}
