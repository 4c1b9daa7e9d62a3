//! Worker-thread fan-out with deterministic, in-order merging.
//!
//! [`map`] runs one closure per item across a scoped worker pool and
//! returns the outputs in item order. Per-thread side channels — the
//! perf accumulator in [`crate::metrics`] and the telemetry global
//! sink — are captured inside each worker and replayed into the calling
//! thread **in item order** after the pool joins, so a parallel run's
//! merged perf block and trace stream are byte-identical to a serial
//! run's (modulo wall-clock seconds, which genuinely differ).
//!
//! Simulations themselves are pure functions of their configs and
//! seeds, so no coordination beyond work-stealing is needed: workers
//! claim items from an atomic cursor and never touch shared state.

use sim_core::QueueProfile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use telemetry::{BufferSink, TraceRecord};

/// Worker-pool width. 0 = not yet configured (auto), 1 = serial.
static WORKERS: AtomicUsize = AtomicUsize::new(1);

/// Set the worker-pool width for subsequent [`map`] calls. `0` selects
/// the machine's available parallelism.
pub fn set_workers(n: usize) {
    let n = if n == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n
    };
    WORKERS.store(n, Ordering::Relaxed);
}

/// The configured worker-pool width.
pub fn workers() -> usize {
    WORKERS.load(Ordering::Relaxed).max(1)
}

/// What one worker item hands back besides its output: the side
/// channels to replay on the orchestrating thread.
struct ItemResult<O> {
    out: O,
    perf: Option<(QueueProfile, f64, u64)>,
    records: Vec<TraceRecord>,
}

/// Apply `f` to every item on a scoped worker pool, returning outputs
/// in item order. With one worker (or one item) the items run inline on
/// the calling thread — same side effects, no thread overhead.
///
/// `f` must be self-contained per item: simulations derive all
/// randomness from the item's seeds, and anything `Rc`-based (trace
/// sinks, collectors) must be constructed inside the call.
pub fn map<I, O, F>(items: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    // Self-profiling forces the fan-out inline: span wall-clock times
    // on concurrent workers would overlap, breaking the tree invariant
    // that children nest inside their parent (Σ children ≤ parent). A
    // profiled run keeps its *outer* parallelism — the experiment
    // runner installs each profiler inside the worker item, where this
    // thread-local check is false on the orchestrating thread.
    let prof = profile::current();
    let n_workers = if prof.enabled() {
        1
    } else {
        workers().min(items.len())
    };
    if n_workers <= 1 {
        let _span = prof.into_span("parallel.map");
        return items.into_iter().map(f).collect();
    }

    // When the caller has a trace sink installed, each worker item runs
    // under its own BufferSink; the buffered records are replayed into
    // the caller's sink in item order after the join.
    let forward_traces = telemetry::global_sink().is_some();

    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<ItemResult<O>>>> =
        (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| {
                // Each worker starts with a clean perf accumulator so
                // the per-item delta is exactly that item's runs.
                let _ = crate::metrics::perf_take();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(slot) = slots.get(idx) else {
                        break;
                    };
                    let item = slot
                        .lock()
                        .expect("item slot")
                        .take()
                        .expect("item taken once");
                    let records = if forward_traces {
                        let sink = std::rc::Rc::new(std::cell::RefCell::new(BufferSink::new()));
                        telemetry::install_global(sink.clone());
                        let out = f(item);
                        telemetry::uninstall_global();
                        let records = sink.borrow_mut().take();
                        *results[idx].lock().expect("result slot") = Some(ItemResult {
                            out,
                            perf: crate::metrics::perf_take(),
                            records,
                        });
                        continue;
                    } else {
                        Vec::new()
                    };
                    let out = f(item);
                    *results[idx].lock().expect("result slot") = Some(ItemResult {
                        out,
                        perf: crate::metrics::perf_take(),
                        records,
                    });
                }
            });
        }
    });

    // Deterministic merge: replay each item's side channels in item
    // order, exactly as a serial run would have produced them.
    let _replay_span = profile::span("parallel.replay");
    let caller_sink = telemetry::global_sink();
    results
        .into_iter()
        .map(|slot| {
            let r = slot
                .into_inner()
                .expect("result mutex")
                .expect("every item produced a result");
            if let Some((profile, wall, runs)) = r.perf {
                crate::metrics::perf_merge(&profile, wall, runs);
            }
            if let Some(sink) = &caller_sink {
                let mut sink = sink.borrow_mut();
                sink.record_all(&r.records);
            }
            r.out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::Instant;
    use std::cell::RefCell;
    use std::rc::Rc;
    use telemetry::{RingSink, SharedSink, TraceEvent};

    fn with_workers<T>(n: usize, body: impl FnOnce() -> T) -> T {
        let prev = workers();
        set_workers(n);
        let out = body();
        set_workers(prev);
        out
    }

    #[test]
    fn outputs_keep_item_order() {
        let items: Vec<u64> = (0..50).collect();
        let serial = with_workers(1, || map(items.clone(), |i| i * i));
        let parallel = with_workers(4, || map(items, |i| i * i));
        assert_eq!(serial, parallel);
        assert_eq!(parallel[49], 49 * 49);
    }

    #[test]
    fn perf_accumulators_merge_across_workers() {
        let _ = crate::metrics::perf_take();
        let profile = QueueProfile {
            scheduled: 3,
            popped: 2,
            cancelled: 0,
            peak_depth: 1,
            horizon: Instant::from_millis(1),
        };
        with_workers(3, || {
            map(vec![profile; 6], |p| {
                crate::metrics::perf_absorb(&p, 0.25);
            })
        });
        let (merged, wall, runs) = crate::metrics::perf_take().expect("perf merged");
        assert_eq!(merged.scheduled, 18);
        assert_eq!(merged.popped, 12);
        assert_eq!(runs, 6);
        assert!((wall - 1.5).abs() < 1e-9);
    }

    #[test]
    fn trace_records_replay_in_item_order() {
        let ring = Rc::new(RefCell::new(RingSink::new(64)));
        telemetry::install_global(ring.clone() as SharedSink);
        with_workers(4, || {
            map((0..10u64).collect(), |i| {
                telemetry::global_handle("worker").emit(Instant::from_nanos(i), || {
                    TraceEvent::Nak {
                        seq: i,
                        cp_index: 0,
                    }
                });
            })
        });
        telemetry::uninstall_global();
        let seqs: Vec<u64> = ring
            .borrow()
            .records()
            .map(|r| match r.event {
                TraceEvent::Nak { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            seqs,
            (0..10).collect::<Vec<_>>(),
            "item order, not completion order"
        );
    }

    #[test]
    fn registry_totals_identical_across_worker_counts() {
        use crate::scenario::{run_lams, ScenarioConfig};
        use std::collections::BTreeMap;

        // Three error-prone runs whose counter registries merge into one
        // total; every worker count must produce the same sums.
        let totals = |n: usize| -> BTreeMap<&'static str, f64> {
            with_workers(n, || {
                let reports = map(vec![1e-5f64; 3], |ber| {
                    let mut cfg = ScenarioConfig::paper_default();
                    cfg.n_packets = 150;
                    cfg.deadline = sim_core::Duration::from_secs(60);
                    cfg.data_residual_ber = ber;
                    run_lams(&cfg)
                });
                let mut merged = BTreeMap::new();
                for r in &reports {
                    for reg in [&r.tx_extras, &r.rx_extras, &r.counters] {
                        for &(name, value) in reg.entries() {
                            *merged.entry(name).or_insert(0.0) += value;
                        }
                    }
                }
                merged
            })
        };
        let serial = totals(1);
        assert!(!serial.is_empty());
        assert_eq!(serial, totals(3));
    }

    #[test]
    fn auto_width_resolves_to_at_least_one() {
        with_workers(1, || {
            set_workers(0);
            assert!(workers() >= 1);
        });
    }
}
