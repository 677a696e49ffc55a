//! Bounded-queue producer/consumer pipeline — the workspace's one worker
//! pool.
//!
//! Each work item runs as `produce(i) → consume(i, payload)`, and the
//! stages of different items overlap:
//!
//! ```text
//!             ┌──────────── bounded queue (≤ depth in flight) ───────────┐
//!   prod(k+1) │ [payload k] [payload k+1] …                              │
//!  ───────────┤                                                          │
//!   workers   │  pop → consume(k) → (k, result) ──mpsc──▶ results[k]     │
//!             └──────────────────────────────────────────────────────────┘
//! ```
//!
//! Every worker is a *hybrid* produce-or-consume loop: it prefers popping a
//! produced payload and consuming it (draining the queue keeps latency to
//! first result low); if the queue has nothing to consume it claims the
//! next item to produce, provided fewer than `depth` payloads are produced
//! or in flight — the backpressure that bounds memory to
//! `depth × payload_bytes`. With one worker the loop degenerates to
//! produce/consume alternation, which is exactly the sequential order.
//!
//! The calling thread receives `(index, result)` pairs over an mpsc channel
//! and stores each at its index. Because item indices (not worker
//! identity) determine every RNG stream, the result vector is bit-identical
//! for every worker count and queue depth — asserted by the proptests in
//! `tests/exp.rs`.
//!
//! [`run_pipeline`] is generic over the payload and the result. The
//! Monte-Carlo engine (`crate::exp`) runs shards on it (packed stimulus →
//! tape execution; on the scalar backend, the shard's schedules →
//! gate-level runs), the fault-campaign engine (`crate::stabilize`) per-job
//! harness builds → per-lane stabilization records, and the fuzz campaign
//! (`crate::fuzz`) whole per-seed checks → the identity.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};

use elastic_core::CoreError;

/// Shared pipeline state behind one mutex; workers sleep on the paired
/// condvar whenever they can neither consume nor produce.
struct PipeState<S> {
    /// Next item index to claim for producing.
    next_pack: usize,
    /// Produced payloads awaiting consumption, in claim order.
    queue: VecDeque<(usize, S)>,
    /// Items currently being produced (claimed, not yet queued).
    packing: usize,
    /// First error any stage hit; set once, aborts the pipeline.
    error: Option<CoreError>,
    /// A worker panicked: its claimed item never completes, so the others
    /// stop instead of waiting for it (`thread::scope` then re-raises the
    /// panic).
    panicked: bool,
}

impl<S> PipeState<S> {
    /// Nothing left to produce, nothing mid-production, nothing queued:
    /// any remaining consumptions are already owned by other workers.
    fn drained(&self, total: usize) -> bool {
        self.next_pack >= total && self.packing == 0 && self.queue.is_empty()
    }
}

/// Marks the pipeline panicked and wakes every sleeping worker when the
/// worker holding it unwinds.
struct WakeOnPanic<'a, S> {
    state: &'a Mutex<PipeState<S>>,
    cvar: &'a Condvar,
}

impl<S> Drop for WakeOnPanic<'_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // `drop` must not panic, so a poisoned lock is skipped; the
            // notify still wakes the sleepers into its poison error.
            if let Ok(mut g) = self.state.lock() {
                g.panicked = true;
            }
            self.cvar.notify_all();
        }
    }
}

/// Runs `total` items through the pipeline on `workers` hybrid threads
/// with a `depth`-bounded payload queue, returning the per-item results in
/// item-index order. `produce(i)` builds item `i`'s payload (the
/// expensive, parallelizable stage: stimulus generation, per-job
/// compilation, a whole fuzz seed); `consume(i, payload)` turns it into
/// the item's result (tape execution, measurement).
///
/// Determinism: results are keyed by item index, never by worker
/// identity, so as long as `produce`/`consume` are deterministic
/// functions of the index the output vector is bit-identical for every
/// worker count and queue depth.
///
/// # Errors
///
/// The first stage error (production or consumption), after the pipeline
/// has drained.
///
/// # Panics
///
/// Re-raises a panic of either stage once every worker has stopped.
pub(crate) fn run_pipeline<S, R>(
    total: usize,
    workers: usize,
    depth: usize,
    produce: impl Fn(usize) -> Result<S, CoreError> + Sync,
    consume: impl Fn(usize, S) -> Result<R, CoreError> + Sync,
) -> Result<Vec<R>, CoreError>
where
    S: Send,
    R: Send,
{
    assert!(workers >= 1, "pipeline needs a worker");
    let depth = depth.max(1);
    let state = Mutex::new(PipeState::<S> {
        next_pack: 0,
        queue: VecDeque::with_capacity(depth),
        packing: 0,
        error: None,
        panicked: false,
    });
    let cvar = Condvar::new();
    let (tx, rx) = mpsc::channel::<(usize, R)>();

    let mut results: Vec<Option<R>> = (0..total).map(|_| None).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (state, cvar) = (&state, &cvar);
            let (produce, consume) = (&produce, &consume);
            s.spawn(move || {
                let _wake = WakeOnPanic { state, cvar };
                let fail = |e: CoreError| {
                    let mut g = state.lock().expect("pipeline lock");
                    g.error.get_or_insert(e);
                    cvar.notify_all();
                };
                let mut guard = state.lock().expect("pipeline lock");
                loop {
                    if guard.error.is_some() || guard.panicked {
                        break;
                    }
                    if let Some((idx, payload)) = guard.queue.pop_front() {
                        drop(guard);
                        // A queue slot freed: producers blocked on depth
                        // can proceed while this worker consumes.
                        cvar.notify_all();
                        match consume(idx, payload) {
                            Ok(res) => {
                                let _ = tx.send((idx, res));
                            }
                            Err(e) => {
                                fail(e);
                                break;
                            }
                        }
                        guard = state.lock().expect("pipeline lock");
                    } else if guard.next_pack < total && guard.queue.len() + guard.packing < depth {
                        let idx = guard.next_pack;
                        guard.next_pack += 1;
                        guard.packing += 1;
                        drop(guard);
                        match produce(idx) {
                            Ok(payload) => {
                                guard = state.lock().expect("pipeline lock");
                                guard.packing -= 1;
                                guard.queue.push_back((idx, payload));
                                cvar.notify_all();
                            }
                            Err(e) => {
                                fail(e);
                                break;
                            }
                        }
                    } else if guard.drained(total) {
                        break;
                    } else {
                        guard = cvar.wait(guard).expect("pipeline lock");
                    }
                }
            });
        }
        // This thread owns the original `tx`; dropping it leaves the
        // workers' clones, so `rx` ends once they all exit.
        drop(tx);
        for (idx, res) in rx {
            results[idx] = Some(res);
        }
    });

    if let Some(e) = state.into_inner().expect("pipeline lock").error {
        return Err(e);
    }
    Ok(results
        .into_iter()
        .map(|r| r.expect("drained pipeline completed every item"))
        .collect())
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

    use super::*;

    /// Loom-style deterministic stress of the `Mutex<PipeState>`+Condvar
    /// hand-off: many iterations per (workers, depth) combo, with
    /// `yield_now` jostling inside both stages to shake out interleavings,
    /// asserting the three pipeline invariants the engines rely on:
    ///
    /// 1. backpressure — at most `depth` payloads are claimed-or-queued
    ///    plus one popped payload in each worker's hands at any instant,
    ///    i.e. live payloads never exceed `depth + workers` (the memory
    ///    bound; the pop happens under the lock, so claimed-or-queued
    ///    alone is not observable from outside the mutex),
    /// 2. exactly-once — every index is produced once and consumed once,
    /// 3. index-keyed results — result `i` is item `i`'s.
    #[test]
    fn pipeline_handoff_invariants_hold_under_stress() {
        const TOTAL: usize = 24;
        for &(workers, depth) in &[(1, 1), (2, 1), (2, 2), (4, 2), (4, 8), (8, 3)] {
            for round in 0..8 {
                let in_system = AtomicIsize::new(0);
                let peak = AtomicIsize::new(0);
                let produced = AtomicUsize::new(0);
                let consumed = AtomicUsize::new(0);
                let out = run_pipeline::<usize, usize>(
                    TOTAL,
                    workers,
                    depth,
                    |i| {
                        let now = in_system.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        produced.fetch_add(1, Ordering::SeqCst);
                        // Jostle the scheduler so claim/queue/pop orders vary.
                        for _ in 0..(i + round) % 3 {
                            std::thread::yield_now();
                        }
                        Ok(i * 10)
                    },
                    |i, payload| {
                        in_system.fetch_sub(1, Ordering::SeqCst);
                        consumed.fetch_add(1, Ordering::SeqCst);
                        for _ in 0..(i + round) % 2 {
                            std::thread::yield_now();
                        }
                        Ok(payload + 1)
                    },
                )
                .expect("clean pipeline");
                assert_eq!(produced.load(Ordering::SeqCst), TOTAL);
                assert_eq!(consumed.load(Ordering::SeqCst), TOTAL);
                let peak = peak.load(Ordering::SeqCst);
                assert!(
                    peak <= (depth + workers) as isize,
                    "backpressure violated: {peak} payloads live > depth {depth} \
                     + workers {workers} (round {round})"
                );
                assert_eq!(out, (0..TOTAL).map(|i| i * 10 + 1).collect::<Vec<_>>());
            }
        }
    }

    /// A producer error aborts the pipeline (first error wins, workers
    /// wake from the condvar and exit) without deadlock, and no item
    /// claimed after the failure leaks a permanent `packing` slot.
    #[test]
    fn pipeline_aborts_on_produce_error_without_deadlock() {
        for &(workers, depth) in &[(1, 1), (3, 2), (4, 4)] {
            let err = run_pipeline::<usize, usize>(
                50,
                workers,
                depth,
                |i| {
                    if i == 7 {
                        Err(CoreError::ScheduleBatch(format!("boom at {i}")))
                    } else {
                        Ok(i)
                    }
                },
                |_, payload| Ok(payload),
            )
            .expect_err("pipeline must surface the stage error");
            assert!(err.to_string().contains("boom at 7"), "{err}");
        }
    }

    /// A consumer error likewise aborts; results already reduced before
    /// the failure are discarded (the call returns `Err`, not a prefix).
    #[test]
    fn pipeline_aborts_on_consume_error_without_deadlock() {
        for &(workers, depth) in &[(2, 1), (4, 3)] {
            let err = run_pipeline::<usize, usize>(40, workers, depth, Ok, |i, payload| {
                if i == 11 {
                    Err(CoreError::ScheduleBatch("consume failed".into()))
                } else {
                    Ok(payload)
                }
            })
            .expect_err("pipeline must surface the stage error");
            assert!(err.to_string().contains("consume failed"), "{err}");
        }
    }

    /// A panicking stage stops every worker and re-raises the panic on the
    /// caller instead of leaving its claimed item in flight forever.
    #[test]
    fn pipeline_reraises_a_stage_panic_without_deadlock() {
        for &(workers, depth) in &[(1, 1), (2, 2), (4, 3)] {
            let run = std::panic::catch_unwind(|| {
                run_pipeline::<usize, usize>(
                    30,
                    workers,
                    depth,
                    |i| {
                        assert_ne!(i, 5, "stage panic");
                        Ok(i)
                    },
                    |_, payload| Ok(payload),
                )
            });
            assert!(run.is_err(), "{workers} workers, depth {depth}");
        }
    }
}
