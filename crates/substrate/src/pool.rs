//! A scoped worker pool with deterministic, in-order result collection.
//!
//! This is the concurrency primitive behind the parallel study executor:
//! [`par_map`] runs a fixed number of workers that drain a shared queue of
//! indexed tasks inside [`std::thread::scope`], so closures may borrow from
//! the caller's stack (no `'static` bound, no `Arc` plumbing). Three
//! properties matter more than raw speed here:
//!
//! 1. **In-order results.** [`par_map`] returns results in task-index
//!    order, regardless of which worker ran what when. Callers never
//!    observe scheduling.
//! 2. **Panic propagation.** If any task panics, the pool finishes joining
//!    and then re-raises the panic of the *lowest-indexed* failed task via
//!    [`std::panic::resume_unwind`] — deterministic even when several tasks
//!    fail in the same run.
//! 3. **Worker count is a pure throughput knob.** Tasks receive only their
//!    payload — never a worker id — so nothing downstream can accidentally
//!    key behaviour (or a seed) on thread identity.
//!
//! `workers == 1` executes inline on the calling thread: no threads are
//! spawned, which keeps single-threaded runs trivially deterministic and
//! makes the pool safe to use in environments where spawning is costly.
//!
//! The queue is one `Mutex` around the items' `enumerate()` iterator,
//! locked only to pop the next task. The pool's callers queue at most a
//! few hundred tasks per call (a 32-task study wave, 5 analysis passes, one
//! task per linted file), each far longer than a lock round-trip.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Mutex;
use std::thread;

/// Map `f` over `items` on a pool of `workers` threads, preserving order.
///
/// With one worker (or at most one item) the tasks run inline on the
/// calling thread in index order. With more, each worker pops the next
/// `(index, item)` from the shared queue and keeps `(index, result)` in its
/// own list; after the join the lists are sorted by index. The
/// *assignment* of tasks to workers is nondeterministic, but the returned
/// `Vec` is always in item order, so callers cannot observe it.
///
/// # Panics
/// Panics if `workers == 0`: a pool that can run nothing is a
/// configuration bug, not a degenerate mode. If one or more tasks panic,
/// re-raises the payload of the lowest-indexed panicking task after all
/// workers have stopped.
pub fn par_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    assert!(workers > 0, "par_map requires at least one worker");
    let n = items.len();
    if workers == 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    let queue = Mutex::new(items.into_iter().enumerate());
    let (queue, f) = (&queue, &f);
    let mut done: Vec<(usize, thread::Result<R>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                s.spawn(move || {
                    // tft-lint: allow(hot-path-alloc, reason = "once per worker per wave, not per probe")
                    let mut out = Vec::new();
                    loop {
                        // Bound before the task runs, so the guard drops
                        // here and other workers pop while this one works.
                        let next = queue
                            .lock()
                            .expect("the queue lock is held only for a pop, which cannot panic")
                            .next();
                        let Some((i, item)) = next else {
                            return out;
                        };
                        // Tasks are required to be panic-safe by contract:
                        // a panicking task's partial effects are confined
                        // to its own inputs, which are dropped with the
                        // payload.
                        out.push((i, panic::catch_unwind(AssertUnwindSafe(|| f(item)))));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a worker catches its tasks' panics"))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter()
        .map(|(_, result)| result.unwrap_or_else(|payload| panic::resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        for workers in [1, 2, 3, 8] {
            let out = par_map(workers, (0..100u64).collect(), |x| x * x);
            let expected: Vec<u64> = (0..100).map(|x| x * x).collect();
            assert_eq!(out, expected, "workers={workers}");
        }
    }

    #[test]
    fn borrows_from_the_caller_scope() {
        let base = [10u64, 20, 30];
        let out = par_map(4, vec![0usize, 1, 2], |i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(4, empty, |x| x).is_empty());
        assert_eq!(par_map(4, vec![7u8], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_workers_than_tasks() {
        let out = par_map(16, vec![1u8, 2], |x| x * 10);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = par_map(0, vec![1u8, 2], |x| x);
    }

    #[test]
    fn tasks_run_concurrently() {
        // Every task waits until all of them have started. A pool that ran
        // its tasks one at a time (say, holding the queue lock across a
        // task) leaves the first one waiting alone until its spin budget
        // runs out. The budget is a count, not a clock, and is far more
        // yields than starting a few threads takes.
        use std::sync::atomic::{AtomicUsize, Ordering};
        const SPIN_BUDGET: u64 = 10_000_000;
        for workers in [2usize, 3, 8] {
            let started = AtomicUsize::new(0);
            par_map(workers, (0..workers).collect(), |i| {
                started.fetch_add(1, Ordering::SeqCst);
                let mut spins = 0u64;
                while started.load(Ordering::SeqCst) < workers {
                    spins += 1;
                    assert!(spins < SPIN_BUDGET, "task {i} ran alone");
                    thread::yield_now();
                }
            });
        }
    }

    #[test]
    fn contention_stress_many_tiny_tasks() {
        // The per-task overhead path: thousands of near-empty tasks hammer
        // the queue from every worker. Every task must run exactly once,
        // every result must land in index order, and nothing may be lost —
        // at every worker count, including oversubscribed ones.
        use std::sync::atomic::{AtomicU64, Ordering};
        const N: u64 = 10_000;
        for workers in [1usize, 2, 8, 16] {
            let executed = AtomicU64::new(0);
            let out = par_map(workers, (0..N).collect(), |x| {
                executed.fetch_add(1, Ordering::Relaxed);
                x.wrapping_mul(2654435761).rotate_left(7)
            });
            assert_eq!(out.len() as u64, N, "workers={workers}: task lost");
            assert_eq!(
                executed.load(Ordering::Relaxed),
                N,
                "workers={workers}: execution count off"
            );
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(
                    v,
                    (i as u64).wrapping_mul(2654435761).rotate_left(7),
                    "workers={workers}: result {i} out of order"
                );
            }
        }
    }

    #[test]
    fn panic_propagates_lowest_index() {
        // Several tasks panic; the surfaced payload must be the
        // lowest-indexed one regardless of scheduling.
        for workers in [1, 2, 8] {
            let err = std::panic::catch_unwind(|| {
                par_map(workers, (0..32u32).collect(), |x| {
                    if x % 5 == 3 {
                        panic!("task {x} failed");
                    }
                    x
                })
            })
            .expect_err("pool must propagate task panics");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| "non-string payload".into());
            assert_eq!(msg, "task 3 failed", "workers={workers}");
        }
    }

    #[test]
    fn all_tasks_still_complete_when_one_panics() {
        // A panic must not wedge the queue: the remaining tasks run to
        // completion (observable via a side counter) before propagation.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(4, (0..64u32).collect(), |x| {
                if x == 10 {
                    panic!("boom");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                x
            })
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 63);
    }
}
