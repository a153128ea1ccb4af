//! A scoped worker pool with deterministic, in-order result collection.
//!
//! This is the concurrency primitive behind the parallel study executor:
//! a fixed number of workers drain a shared queue of indexed tasks inside
//! [`std::thread::scope`], so closures may borrow from the caller's stack
//! (no `'static` bound, no `Arc` plumbing). Three properties matter more
//! than raw speed here:
//!
//! 1. **In-order results.** [`Pool::run`]/[`par_map`] return results in
//!    task-index order, regardless of which worker ran what when. Callers
//!    never observe scheduling.
//! 2. **Panic propagation.** If any task panics, the pool finishes joining
//!    and then re-raises the panic of the *lowest-indexed* failed task via
//!    [`std::panic::resume_unwind`] — deterministic even when several tasks
//!    fail in the same run.
//! 3. **Worker count is a pure throughput knob.** Tasks receive only their
//!    index and payload — never a worker id — so nothing downstream can
//!    accidentally key behaviour (or a seed) on thread identity.
//!
//! `workers == 1` executes inline on the calling thread: no threads are
//! spawned, which keeps single-threaded runs trivially deterministic and
//! makes the pool safe to use in environments where spawning is costly.

use std::cell::UnsafeCell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;

/// Hooks bracketing the pool's own setup work: slot-vector construction
/// and worker spawning, which run on the calling thread and scale with the
/// worker count. Instrumentation (the bench allocator's accounting run)
/// registers these to exclude pool-internal bookkeeping from per-run
/// measurements — the study's work is worker-count-invariant, the pool's
/// scaffolding is not, and conflating them turns the invariance evidence
/// into noise. Process-wide, set once; `None` costs one relaxed load.
static SETUP_OBSERVER: OnceLock<SetupObserver> = OnceLock::new();

/// An `(enter, exit)` hook pair bracketing pool setup.
type SetupObserver = (fn(), fn());

/// Register the setup observer (`enter` fires before pool setup on the
/// calling thread, `exit` after the last worker is spawned, before the
/// join). Returns false if an observer was already registered.
pub fn set_setup_observer(enter: fn(), exit: fn()) -> bool {
    SETUP_OBSERVER.set((enter, exit)).is_ok()
}

/// A slot owned by exactly one claimant at a time.
///
/// The pool's atomic cursor hands out each slot index exactly once, so the
/// claiming worker has exclusive access to its input slot, and only that
/// worker ever writes the matching output slot. That claim discipline is
/// what makes the raw `UnsafeCell` sound — there is no lock because there
/// is no contention to arbitrate: the cursor's `fetch_add` is the unique
/// point of synchronization, and `thread::scope`'s join provides the
/// happens-before edge for the collector's reads. The previous
/// implementation paid a `Mutex` lock/unlock per slot per task purely to
/// satisfy the type system; with fine-grained work units (hundreds of tiny
/// tasks) that overhead was measurable.
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: a Slot is only ever accessed by the worker that claimed its index
// from the cursor (exactly once), or by the collector after all workers have
// been joined.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Slot<T> {}

#[allow(unsafe_code)]
impl<T> Slot<T> {
    fn filled(value: T) -> Self {
        Slot(UnsafeCell::new(Some(value)))
    }

    fn empty() -> Self {
        Slot(UnsafeCell::new(None))
    }

    /// Take the value out. Caller must be the slot's unique claimant (or
    /// the post-join collector).
    unsafe fn take(&self) -> Option<T> {
        (*self.0.get()).take()
    }

    /// Fill the slot. Caller must be the slot's unique claimant.
    unsafe fn fill(&self, value: T) {
        *self.0.get() = Some(value);
    }

    /// Post-join drain: the filled value, or the named supervisor error
    /// identifying which result slot wedged and why. Caller must be the
    /// post-join collector (sole remaining accessor).
    unsafe fn drain(&self, index: usize) -> Result<T, SlotWedged> {
        self.take().ok_or(SlotWedged {
            index,
            reason: "worker claimed the task but never filled its result slot",
        })
    }
}

/// Supervisor error: a result slot was never filled after every worker
/// joined. This indicates a pool-internal invariant break (a task index was
/// claimed but its output slot stayed empty), not a task failure — task
/// panics are caught and carried through the slot as payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotWedged {
    /// Task index whose result slot was empty at collection time.
    pub index: usize,
    /// Supervisor diagnosis of the wedge.
    pub reason: &'static str,
}

impl fmt::Display for SlotWedged {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pool result slot {} wedged: {}", self.index, self.reason)
    }
}

impl std::error::Error for SlotWedged {}

/// A fixed-size scoped worker pool.
///
/// The pool itself is just a validated worker count; all threads live only
/// for the duration of a single [`Pool::run`] call.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with `workers` worker threads.
    ///
    /// # Panics
    /// Panics if `workers == 0` — a pool that can run nothing is a
    /// configuration bug, not a degenerate mode.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "Pool requires at least one worker");
        Pool { workers }
    }

    /// The configured worker count.
    pub fn workers(self) -> usize {
        self.workers
    }

    /// Run `task` once per item of `items`, returning results in item order.
    ///
    /// `task` is called as `task(index, item)`. With one worker the tasks
    /// run inline on the calling thread in index order; with more, workers
    /// claim indices from a shared counter — the *assignment* of tasks to
    /// workers is nondeterministic, but the returned `Vec` is always in
    /// index order, so callers cannot observe it.
    ///
    /// # Panics
    /// If one or more tasks panic, re-raises the payload of the
    /// lowest-indexed panicking task after all workers have stopped.
    #[allow(unsafe_code)]
    pub fn run<T, R, F>(self, items: Vec<T>, task: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.workers == 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| task(i, item))
                .collect();
        }

        let n = items.len();
        let observer = SETUP_OBSERVER.get().copied();
        if let Some((enter, _)) = observer {
            enter();
        }
        // Each slot index is claimed exactly once via the atomic cursor,
        // then drained/filled lock-free by the claiming worker (see
        // [`Slot`]). Slots hold Options so results can be moved out without
        // `R: Default`.
        let inputs: Vec<Slot<T>> = items.into_iter().map(Slot::filled).collect();
        let outputs: Vec<Slot<thread::Result<R>>> = (0..n).map(|_| Slot::empty()).collect();
        let cursor = AtomicUsize::new(0);
        let task = &task;
        let inputs = &inputs;
        let outputs = &outputs;
        let cursor = &cursor;

        thread::scope(|s| {
            for _ in 0..self.workers.min(n) {
                s.spawn(move || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    // SAFETY: `fetch_add` handed index `i` to this worker
                    // alone, so it is the unique accessor of both slots
                    // until the scope joins.
                    let item = unsafe { inputs[i].take() }.expect("pool task claimed twice");
                    // Tasks are required to be panic-safe by contract: a
                    // panicking task's partial effects are confined to its
                    // own inputs, which are dropped with the payload.
                    let result = panic::catch_unwind(AssertUnwindSafe(|| task(i, item)));
                    unsafe { outputs[i].fill(result) };
                });
            }
            // Setup ends here: every worker is spawned and the calling
            // thread only blocks on the implicit join from this point.
            if let Some((_, exit)) = observer {
                exit();
            }
        });

        let mut results = Vec::with_capacity(n);
        let mut first_panic = None;
        for (i, slot) in outputs.iter().enumerate() {
            // SAFETY: every worker has been joined by `thread::scope`, so
            // the collector is the only accessor left.
            let result = match unsafe { slot.drain(i) } {
                Ok(result) => result,
                Err(wedged) => panic::panic_any(wedged),
            };
            match result {
                Ok(r) => results.push(r),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
        results
    }
}

/// Map `f` over `items` on a pool of `workers` threads, preserving order.
///
/// Convenience wrapper over [`Pool::run`] for the common case where the
/// task doesn't need its index.
///
/// # Panics
/// Propagates the lowest-indexed task panic, and panics if `workers == 0`.
pub fn par_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    Pool::new(workers).run(items, |_, item| f(item))
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
    fn run_passes_indices() {
        let out = Pool::new(4).run(vec!["a", "b", "c"], |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
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
        let _ = Pool::new(0);
    }

    #[test]
    fn setup_observer_brackets_setup_on_the_calling_thread() {
        use std::cell::Cell;
        // Thread-local counts: the hook is process-wide, and other tests in
        // this binary run threaded pools concurrently on their own threads.
        // Counting per thread sees only this test's runs, and would miss a
        // hook that fired on a worker instead of the calling thread.
        thread_local! {
            static ENTERS: Cell<u32> = const { Cell::new(0) };
            static EXITS: Cell<u32> = const { Cell::new(0) };
        }
        fn enter() {
            ENTERS.with(|c| c.set(c.get() + 1));
        }
        fn exit() {
            EXITS.with(|c| c.set(c.get() + 1));
        }
        let counts = || (ENTERS.with(Cell::get), EXITS.with(Cell::get));
        // First registration wins; the process-wide hook stays set.
        let first = set_setup_observer(enter, exit);
        let second = set_setup_observer(enter, exit);
        assert!(!second || first, "second registration must not override");
        let (before_e, before_x) = counts();
        // Inline path (single worker): no setup, observer must not fire.
        let out = Pool::new(1).run(vec![1, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        if first {
            assert_eq!(counts(), (before_e, before_x));
        }
        // Threaded path: exactly one enter/exit pair per run.
        let out = Pool::new(4).run(vec![1, 2, 3, 4], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4, 5]);
        if first {
            assert_eq!(counts(), (before_e + 1, before_x + 1));
        }
    }

    #[test]
    fn contention_stress_many_tiny_tasks() {
        // The per-task overhead path: thousands of near-empty tasks hammer
        // the claim cursor from every worker. Every task must run exactly
        // once, every result must land in index order, and nothing may be
        // lost — at every worker count, including oversubscribed ones.
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
    fn wedged_slot_reports_index_and_reason() {
        // Regression for the old anonymous `panic!("pool task {i} produced
        // no result")`: the drain path must surface a named error carrying
        // the slot index and a diagnosis.
        let slot: Slot<u32> = Slot::empty();
        // SAFETY: freshly constructed local slot; this thread is the only
        // accessor.
        #[allow(unsafe_code)]
        let err = unsafe { slot.drain(5) }.expect_err("empty slot must wedge");
        assert_eq!(err.index, 5);
        assert!(err.reason.contains("never filled"));
        let shown = err.to_string();
        assert!(shown.contains("slot 5"), "display: {shown}");
        assert!(shown.contains("wedged"), "display: {shown}");
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
