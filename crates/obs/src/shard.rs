//! The one in-order shard runner under every parallel job in the
//! workspace: the figure sweeps (`synergy-bench`) and the checkpointable
//! job fabric ([`crate::fabric`], which the campaign and the fleet
//! simulator, and with it the Figure 11 Monte Carlo, run on).
//!
//! [`run_in_order`] computes `work(i)` for every index of a range on a
//! pool of scoped workers and hands each result to `sink(i, r)` **in
//! ascending index order**, one call at a time. Workers claim indices from
//! a shared atomic counter; a result that finishes before its
//! predecessors waits in an ordered buffer until they arrive, and the
//! worker that completes the next-in-order index drains the buffer into
//! the sink, so there is no separate merger thread. Because the sink sees
//! one fixed order, any fold it performs — floating-point sums included —
//! is bit-identical for every worker count, as long as `work(i)` is a pure
//! function of `i`.
//!
//! The buffer holds only results whose predecessors are unfinished. With
//! shards of similar cost that is about one per worker, but a single slow
//! index lets the other workers run ahead and buffer any number of results
//! behind it (at most the rest of the range). Callers that need a hard
//! memory bound should keep per-index results small.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;

/// Resolves a worker-count knob: `0` means the machine's available
/// parallelism (1 when that cannot be determined), anything else is taken
/// as given.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        thread::available_parallelism().map_or(1, NonZeroUsize::get)
    }
}

/// The ordered merge frontier shared by the workers.
struct Frontier<R, S, E> {
    /// The next index the sink expects.
    next: u64,
    /// Finished results waiting for their predecessors.
    pending: BTreeMap<u64, R>,
    sink: S,
    /// The first sink error; once set the sink is never called again.
    error: Option<E>,
}

/// Sets the stop flag if its worker unwinds, so a panic in `work` stops
/// the other workers from claiming further indices.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Runs `work(i)` for every `i` in `range` on up to
/// [`resolve_threads`]`(threads)` workers and feeds `sink(i, work(i))` in
/// ascending `i`, never concurrently.
///
/// When the resolved worker count (capped at the range length) is 1,
/// everything runs inline on the calling thread and nothing is spawned.
///
/// # Errors
///
/// The first `Err` the sink returns stops all workers from claiming new
/// indices and is returned; the sink is not called again after it.
///
/// # Panics
///
/// A panic in `work` or `sink` stops the other workers and is resumed on
/// the caller with its original payload.
pub fn run_in_order<R, E, W, S>(
    range: Range<u64>,
    threads: usize,
    work: W,
    mut sink: S,
) -> Result<(), E>
where
    R: Send,
    E: Send,
    W: Fn(u64) -> R + Sync,
    S: FnMut(u64, R) -> Result<(), E> + Send,
{
    let len = range.end.saturating_sub(range.start);
    let workers = resolve_threads(threads).min(usize::try_from(len).unwrap_or(usize::MAX));
    if workers <= 1 {
        return range.into_iter().try_for_each(|i| sink(i, work(i)));
    }

    // Both atomics publish no other data (results and errors travel
    // through the mutex), so `Relaxed` suffices.
    let claim = AtomicU64::new(range.start);
    let stop = AtomicBool::new(false);
    let frontier = Mutex::new(Frontier {
        next: range.start,
        pending: BTreeMap::new(),
        sink,
        error: None,
    });
    let worker = || {
        let _guard = StopOnPanic(&stop);
        while !stop.load(Ordering::Relaxed) {
            let i = claim.fetch_add(1, Ordering::Relaxed);
            if i >= range.end {
                break;
            }
            let r = work(i);
            // A poisoned lock means another worker panicked inside the
            // sink; its payload is the one the caller sees.
            let Ok(mut f) = frontier.lock() else { break };
            if f.error.is_some() {
                break;
            }
            f.pending.insert(i, r);
            while let Some(r) = {
                let next = f.next;
                f.pending.remove(&next)
            } {
                let at = f.next;
                f.next += 1;
                if let Err(e) = (f.sink)(at, r) {
                    f.error = Some(e);
                    f.pending.clear();
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
    };
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        let mut panic = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
    let f = frontier.into_inner().expect("worker panics were resumed above");
    debug_assert!(f.error.is_some() || f.next == range.end, "every index reached the sink");
    f.error.map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::convert::Infallible;

    /// Collects every `(index, result)` pair the sink sees.
    fn collect(
        range: Range<u64>,
        threads: usize,
        work: impl Fn(u64) -> u64 + Sync,
    ) -> Vec<(u64, u64)> {
        let mut seen = Vec::new();
        let Ok(()) = run_in_order(range, threads, work, |i, r| {
            seen.push((i, r));
            Ok::<(), Infallible>(())
        });
        seen
    }

    #[test]
    fn preserves_order_and_coverage() {
        for threads in [1, 2, 8, 64] {
            let seen = collect(0..257, threads, |i| i * 3 + 1);
            let want: Vec<_> = (0..257).map(|i| (i, i * 3 + 1)).collect();
            assert_eq!(seen, want, "threads={threads}");
        }
        // A range that does not start at zero (the fabric's resume case).
        assert_eq!(collect(5..9, 3, |i| i), vec![(5, 5), (6, 6), (7, 7), (8, 8)]);
    }

    #[test]
    fn handles_empty_and_single() {
        assert!(collect(0..0, 8, |i| i).is_empty());
        assert!(collect(7..7, 8, |i| i).is_empty());
        assert_eq!(collect(0..1, 8, |i| i + 1), vec![(0, 1)]);
    }

    #[test]
    fn single_worker_runs_inline_on_caller() {
        // One worker must take the spawn-free path: every call runs on the
        // calling thread (cheap single-thread runs, and panics surface
        // directly instead of through a worker join).
        let caller = thread::current().id();
        let on_caller = |range: Range<u64>, threads: usize| {
            let mut ids = Vec::new();
            let Ok(()) = run_in_order(range, threads, |_| thread::current().id(), |_, id| {
                ids.push(id);
                Ok::<(), Infallible>(())
            });
            ids.iter().all(|id| *id == caller)
        };
        assert!(on_caller(0..17, 1));
        // A one-index range collapses to the same inline path.
        assert!(on_caller(0..1, 64));
    }

    #[test]
    fn resolve_threads_maps_zero_to_parallelism() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn first_sink_error_stops_the_run() {
        for threads in [1, 4] {
            let mut calls = Vec::new();
            let r = run_in_order(0..1000, threads, |i| i, |i, _| {
                calls.push(i);
                if i == 10 {
                    Err(format!("stop at {i}"))
                } else {
                    Ok(())
                }
            });
            assert_eq!(r, Err("stop at 10".to_string()));
            assert_eq!(calls, (0..=10).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "shard 13 failed")]
    fn worker_panic_propagates() {
        collect(0..64, 4, |i| {
            assert!(i != 13, "shard {i} failed");
            i
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Whatever the range length, worker count and per-index cost, the
        /// sink sees every index exactly once, in ascending order.
        #[test]
        fn sink_sees_every_index_once_in_order(
            n in 0u64..300,
            threads in 1usize..=8,
            jitter in proptest::collection::vec(0u64..2_000, 1..16),
        ) {
            let seen = collect(0..n, threads, |i| {
                // Uneven busy-work so workers finish out of order.
                let spins = jitter[i as usize % jitter.len()];
                (0..spins).fold(i, |x, _| std::hint::black_box(x.rotate_left(5) ^ 1));
                i
            });
            let want: Vec<_> = (0..n).map(|i| (i, i)).collect();
            prop_assert_eq!(seen, want);
        }
    }
}
