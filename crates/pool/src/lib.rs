//! # linarb-pool — scoped work-stealing thread pool
//!
//! A small, dependency-free thread pool for the solver stack. Design
//! constraints, in order:
//!
//! 1. **Borrowed data.** Parsed jobs, CHC systems and benchmark
//!    suites live on the caller's stack; none of them are `'static`.
//!    [`Pool::parallel_map`] is built on [`std::thread::scope`], so
//!    tasks may borrow anything that outlives the call.
//! 2. **Deterministic results.** [`Pool::parallel_map`] returns its
//!    outputs in input order no matter which worker ran which task,
//!    so callers can merge results deterministically.
//! 3. **No runtime state.** Workers are spawned per call and joined
//!    before it returns. There is no global pool, no background
//!    threads between calls, and nothing to shut down. For the
//!    coarse-grained tasks this crate serves (whole solves in the
//!    millisecond-to-second range) the per-call spawn cost is
//!    noise; in exchange, a `threads == 1` pool runs everything
//!    inline on the caller's thread with zero overhead.
//!
//! Work distribution is a mutex-sharded deque per worker: tasks are
//! dealt round-robin at submission, each worker pops its own deque
//! from the front, and an idle worker steals from the *back* of a
//! victim's deque (the classic Chase–Lev orientation, which keeps
//! owners and thieves on opposite ends and steals the largest pending
//! chunks under skewed task sizes).
//!
//! Panics inside tasks are caught, the first payload is kept, and the
//! panic is re-raised on the calling thread after all workers have
//! joined — so a panicking task never leaks threads or deadlocks the
//! caller.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

type Payload = Box<dyn Any + Send + 'static>;

/// Pops a task for worker `w`: own deque front first, then steal from
/// the back of the other deques, scanning from the nearest neighbour.
fn pop_or_steal<T>(queues: &[Mutex<VecDeque<T>>], w: usize) -> Option<T> {
    if let Some(t) = queues[w].lock().unwrap().pop_front() {
        return Some(t);
    }
    let k = queues.len();
    for off in 1..k {
        let victim = (w + off) % k;
        if let Some(t) = queues[victim].lock().unwrap().pop_back() {
            return Some(t);
        }
    }
    None
}

/// Stores the first panic payload; later panics are dropped (the
/// caller can only re-raise one).
fn record_panic(slot: &Mutex<Option<Payload>>, p: Payload) {
    let mut s = slot.lock().unwrap();
    if s.is_none() {
        *s = Some(p);
    }
}

/// A work-stealing thread pool of a fixed width.
///
/// The pool itself owns no threads; each call spawns `threads - 1`
/// scoped helpers (the caller is worker 0) and joins them before
/// returning. A pool of width 1 runs everything inline.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Creates a pool of the given width. Width 0 is promoted to 1.
    pub fn new(threads: usize) -> Pool {
        Pool { threads: threads.max(1) }
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel across the pool's
    /// workers, and returns the results **in input order**.
    ///
    /// Items are dealt round-robin onto per-worker deques; idle
    /// workers steal from the back of their neighbours' deques. With
    /// one worker (or zero/one items) everything runs inline on the
    /// calling thread in input order — the sequential and parallel
    /// paths compute identical results by construction.
    ///
    /// If any task panics, the first panic is re-raised here after
    /// all workers have drained.
    pub fn parallel_map<T, U, F>(&self, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }

        let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let queues: Vec<Mutex<VecDeque<(usize, T)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, item) in items.into_iter().enumerate() {
            queues[i % workers].lock().unwrap().push_back((i, item));
        }
        let pending = AtomicUsize::new(n);
        let panic: Mutex<Option<Payload>> = Mutex::new(None);

        let work = |w: usize| loop {
            match pop_or_steal(&queues, w) {
                Some((i, item)) => {
                    // Once a task has panicked, drain the rest
                    // without running them so everyone exits fast.
                    if panic.lock().unwrap().is_none() {
                        match catch_unwind(AssertUnwindSafe(|| f(item))) {
                            Ok(u) => *slots[i].lock().unwrap() = Some(u),
                            Err(p) => record_panic(&panic, p),
                        }
                    }
                    pending.fetch_sub(1, Ordering::AcqRel);
                }
                None => {
                    if pending.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    thread::yield_now();
                }
            }
        };

        thread::scope(|s| {
            let work = &work;
            let helpers: Vec<_> = (1..workers).map(|w| s.spawn(move || work(w))).collect();
            work(0);
            for h in helpers {
                let _ = h.join();
            }
        });

        if let Some(p) = panic.into_inner().unwrap() {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|s| s.into_inner().unwrap().expect("pool: task result missing"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parallel_map_preserves_input_order() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..257).collect();
        let out = pool.parallel_map(items, |x| x * 2 + 1);
        assert_eq!(out, (0..257).map(|x| x * 2 + 1).collect::<Vec<u64>>());
    }

    #[test]
    fn parallel_map_single_thread_is_inline() {
        let pool = Pool::new(1);
        let out = pool.parallel_map(vec![1, 2, 3], |x| x + 10);
        assert_eq!(out, vec![11, 12, 13]);
    }

    #[test]
    fn parallel_map_borrows_caller_data() {
        let data = vec![String::from("a"), String::from("bb")];
        let pool = Pool::new(2);
        let lens = pool.parallel_map(vec![0usize, 1], |i| data[i].len());
        assert_eq!(lens, vec![1, 2]);
        drop(data);
    }

    #[test]
    fn work_stealing_under_skewed_task_sizes() {
        // Round-robin dealing puts the slow tasks (even indices) on
        // worker 0 and the instant ones on worker 1; worker 1 must
        // steal from worker 0's deque to finish the batch.
        let pool = Pool::new(2);
        let caller = thread::current().id();
        let items: Vec<usize> = (0..8).collect();
        let out = pool.parallel_map(items, |i| {
            if i % 2 == 0 {
                thread::sleep(Duration::from_millis(20));
            }
            (i * i, thread::current().id())
        });
        let squares: Vec<usize> = out.iter().map(|(sq, _)| *sq).collect();
        assert_eq!(squares, (0..8).map(|i| i * i).collect::<Vec<usize>>());
        assert!(
            out.iter().step_by(2).any(|(_, id)| *id != caller),
            "expected the idle worker to steal under a skewed load"
        );
    }

    #[test]
    fn parallel_map_propagates_panics() {
        let pool = Pool::new(4);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.parallel_map((0..16).collect::<Vec<u32>>(), |i| {
                if i == 7 {
                    panic!("task seven exploded");
                }
                i
            })
        }));
        let payload = r.expect_err("panic should propagate to the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "task seven exploded");
    }

    #[test]
    fn zero_width_pool_is_promoted() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.parallel_map(vec![5], |x| x + 1), vec![6]);
    }
}
