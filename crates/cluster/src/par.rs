//! Real (host-machine) thread-pool helpers for the engines' computation
//! stages.
//!
//! The simulated cluster charges *virtual* time; the actual Transfer,
//! Combine, Map and Reduce computations run on the host and dominate
//! wall-clock. These helpers fan per-partition work out over scoped std
//! threads while keeping results **deterministic**: work item `i` always
//! lands at slot `i` of the result vector, regardless of which worker ran
//! it or in what order workers finished. Callers then fold results in
//! ascending index (= partition id) order, so message ordering, tallies and
//! reports are bit-identical to a sequential run.
//!
//! `threads == 1` runs inline on the calling thread — no spawn, exactly the
//! legacy sequential execution. Spawned workers enter the caller's
//! `surfer_obs` recording scope, so their spans and counters land in the
//! caller's session and nowhere else.
//!
//! # Panic isolation
//!
//! User-defined functions (`transfer`, `combine`, `map`, `reduce`) run
//! inside these workers. [`try_par_map_vec`] wraps every item in
//! [`std::panic::catch_unwind`], so one poisoned item fails the *batch*
//! with a typed [`WorkerPanic`] naming the item (= partition) instead of
//! aborting the whole process. Every item is still attempted — even after
//! one fails — so the set of side effects (e.g. fault-injection bookkeeping)
//! and the reported item (the smallest failing index) are identical for any
//! thread count.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// A user function panicked inside a worker.
///
/// `index` is the position of the failing item in the input vector — for the
/// engines' per-partition stages that is exactly the partition id (or the
/// reducer machine id).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose closure panicked (smallest, if several did).
    pub index: usize,
    /// The panic payload, rendered to text when it was a string.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panicked on item {}: {}", self.index, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Render a `catch_unwind` payload.
fn payload_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolve a thread-count knob: `0` means "one worker per available core".
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
}

/// [`resolve_threads`], additionally clamped to the host's available cores.
///
/// Oversubscribing std threads on CPU-bound partition scans only adds
/// scheduler churn (a 1-core host running `threads = 2` measured ~0.97x of
/// sequential), so the propagation engine always clamps.
pub fn resolve_threads_clamped(threads: usize) -> usize {
    resolve_threads(threads).min(resolve_threads(0))
}

/// Map `f` over `items`, returning outputs in item order.
///
/// Items are dealt round-robin to `threads` workers (partition sizes are
/// often skewed; striding spreads neighboring — similarly sized —
/// partitions across workers). `f` receives `(index, item)` so callers can
/// use the original partition id.
///
/// A panic in `f` surfaces as a [`WorkerPanic`] for the smallest failing
/// item index, instead of tearing down the process.
///
/// All items are attempted regardless of earlier failures, so `f`'s side
/// effects are the same whether the batch runs on one thread or many.
pub fn try_par_map_vec<I, T, F>(threads: usize, items: Vec<I>, f: F) -> Result<Vec<T>, WorkerPanic>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let run_one = |i: usize, item: I| -> Result<T, WorkerPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, item)))
            .map_err(|p| WorkerPanic { index: i, message: payload_message(p) })
    };

    let threads = resolve_threads(threads).min(items.len().max(1));
    if threads <= 1 {
        let mut out = Vec::with_capacity(items.len());
        let mut failure: Option<WorkerPanic> = None;
        for (i, item) in items.into_iter().enumerate() {
            match run_one(i, item) {
                Ok(v) => out.push(v),
                Err(e) => failure = Some(match failure.take() {
                    Some(prev) if prev.index < e.index => prev,
                    _ => e,
                }),
            }
        }
        return match failure {
            None => Ok(out),
            Some(e) => Err(e),
        };
    }

    // Deal items round-robin, remembering each one's origin index.
    let mut queues: Vec<Vec<(usize, I)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        queues[i % threads].push((i, item));
    }

    let mut slots: Vec<Option<T>> = Vec::new();
    let mut failure: Option<WorkerPanic> = None;
    let obs = surfer_obs::scope();
    std::thread::scope(|s| {
        let handles: Vec<_> = queues
            .into_iter()
            .map(|queue| {
                s.spawn(|| {
                    let _obs = obs.enter();
                    queue
                        .into_iter()
                        .map(|(i, item)| (i, run_one(i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // Workers never unwind (panics are caught per item); a join
            // failure would be a harness bug, not a user one.
            #[expect(
                clippy::expect_used,
                reason = "harness invariant: workers catch per-item panics and never unwind"
            )]
            for (i, out) in h.join().expect("worker harness panicked") {
                match out {
                    Ok(v) => {
                        if i >= slots.len() {
                            slots.resize_with(i + 1, || None);
                        }
                        slots[i] = Some(v);
                    }
                    Err(e) => {
                        failure = Some(match failure.take() {
                            Some(prev) if prev.index < e.index => prev,
                            _ => e,
                        });
                    }
                }
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    #[expect(
        clippy::expect_used,
        reason = "invariant: the loop above fills every slot or returned Err already"
    )]
    let outs = slots.into_iter().map(|slot| slot.expect("every item produces an output")).collect();
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolve_zero_means_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn clamped_resolution_never_exceeds_host_cores() {
        let cores = resolve_threads(0);
        assert_eq!(resolve_threads_clamped(0), cores);
        assert_eq!(resolve_threads_clamped(1), 1);
        assert_eq!(resolve_threads_clamped(cores + 7), cores);
        for t in 1..=cores {
            assert_eq!(resolve_threads_clamped(t), t, "in-budget requests pass through");
        }
    }

    #[test]
    fn results_in_item_order_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for t in [1, 2, 3, 8, 64] {
            let got = try_par_map_vec(t, items.clone(), |_, x| x * x).unwrap();
            assert_eq!(got, expect, "threads = {t}");
        }
    }

    #[test]
    fn index_matches_item_position() {
        let got = try_par_map_vec(4, vec!['a', 'b', 'c'], |i, c| (i, c)).unwrap();
        assert_eq!(got, vec![(0, 'a'), (1, 'b'), (2, 'c')]);
    }

    #[test]
    fn all_items_run_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = try_par_map_vec(5, (0..100).collect(), |_, i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        })
        .unwrap();
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = try_par_map_vec(4, Vec::<u32>::new(), |_, x| x).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn panic_surfaces_as_typed_error_at_every_thread_count() {
        for t in [1, 2, 4, 16] {
            let err = try_par_map_vec(t, (0..20u32).collect(), |_, x| {
                if x == 7 {
                    panic!("poisoned vertex function");
                }
                x * 2
            })
            .unwrap_err();
            assert_eq!(err.index, 7, "threads = {t}");
            assert!(err.message.contains("poisoned"), "threads = {t}: {}", err.message);
        }
    }

    #[test]
    fn smallest_failing_index_wins_deterministically() {
        for t in [1, 2, 3, 8] {
            let err = try_par_map_vec(t, (0..20u32).collect(), |_, x| {
                if x % 5 == 3 {
                    panic!("boom {x}");
                }
                x
            })
            .unwrap_err();
            assert_eq!(err.index, 3, "threads = {t}");
            assert!(err.message.contains("boom 3"));
        }
    }

    #[test]
    fn all_items_still_attempted_after_a_panic() {
        for t in [1, 4] {
            let count = AtomicUsize::new(0);
            let _ = try_par_map_vec(t, (0..50u32).collect(), |_, x| {
                count.fetch_add(1, Ordering::Relaxed);
                if x == 0 {
                    panic!("early failure");
                }
                x
            });
            assert_eq!(count.load(Ordering::Relaxed), 50, "threads = {t}");
        }
    }
}
