//! The one executor every parallel sweep in the workspace runs on.
//!
//! [`WorkerPool::map`] spreads the indices `0..count` over scoped
//! threads that claim chunks of indices from one atomic ticket counter
//! and buffer their results locally; the buffers are merged in index
//! order only after every thread has joined. Scheduling therefore
//! decides *when* an item runs and on which thread, never *what* it
//! computes: a caller whose items are pure functions of their index
//! gets the same output at any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A worker count for [`WorkerPool::map`].
///
/// The pool owns no threads: each `map` spawns scoped threads and joins
/// them before it returns, so a pool costs nothing to create and a
/// panicking job cannot leave it unusable.
#[derive(Debug)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// The most threads one [`WorkerPool::map`] uses.
    pub fn size(&self) -> usize {
        self.workers
    }

    /// Computes `f(0)`, …, `f(count - 1)` on at most
    /// `min(size, count)` threads and returns the results in index
    /// order. With one thread the jobs run on the calling thread, in
    /// index order.
    ///
    /// # Panics
    ///
    /// Re-raises a panicking job's own payload once every thread has
    /// stopped.
    pub fn map<T, F>(&self, count: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let threads = self.workers.min(count);
        if threads <= 1 {
            return (0..count).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let chunk = claim_chunk(count, threads);
        let claim = || {
            let mut local = Vec::with_capacity(count / threads + chunk);
            loop {
                // Relaxed: the counter hands out indices and publishes no
                // data; results reach the caller through `join`.
                let begin = next.fetch_add(chunk, Ordering::Relaxed);
                if begin >= count {
                    return local;
                }
                local.extend((begin..(begin + chunk).min(count)).map(|i| (i, f(i))));
            }
        };
        let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(claim)).collect();
            let mut results = Vec::with_capacity(count);
            for handle in handles {
                match handle.join() {
                    Ok(local) => results.extend(local),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            results
        });
        // Completion order depends on scheduling; result order must not.
        results.sort_unstable_by_key(|&(i, _)| i);
        results.into_iter().map(|(_, t)| t).collect()
    }
}

/// Tickets claimed per fetch: large enough to keep threads off the
/// shared counter's cache line most of the time, small enough that a
/// straggler chunk cannot idle the other threads at the tail. Capped at
/// each thread's fair share, `count / threads`, so no single claim can
/// swallow more items than the smallest even split — without the cap a
/// caller with `threads > count / chunk` could see one thread drain the
/// whole counter while the rest never claim a ticket.
fn claim_chunk(count: usize, threads: usize) -> usize {
    let threads = threads.max(1);
    let fair_share = (count / threads).max(1);
    (count / (threads * 8)).clamp(1, 64).min(fair_share)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        for (count, workers) in [(0, 1), (0, 3), (1, 4), (5, 2), (16, 3), (17, 4), (1000, 3)] {
            let got = WorkerPool::new(workers).map(count, |i| i * i);
            assert_eq!(
                got,
                (0..count).map(|i| i * i).collect::<Vec<_>>(),
                "{count}x{workers}"
            );
        }
    }

    #[test]
    fn single_worker_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = WorkerPool::new(1).map(3, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn job_panic_keeps_its_message_and_the_pool_stays_usable() {
        let pool = WorkerPool::new(2);
        let err = std::panic::catch_unwind(|| {
            pool.map(4, |i| {
                if i == 2 {
                    panic!("instance {i} exploded");
                }
                i
            })
        })
        .expect_err("a job panic must propagate");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic payload");
        assert_eq!(msg, "instance 2 exploded");
        assert_eq!(pool.map(4, |i| i + 1), vec![1, 2, 3, 4]);
    }

    #[test]
    fn claim_chunk_never_exceeds_smallest_worker_share() {
        // Regression: a claim larger than `count / threads` lets one
        // thread drain the ticket counter while others idle.
        for count in [1, 2, 7, 9, 16, 65, 100, 513, 4096, 100_000] {
            for threads in [1, 2, 3, 4, 8, 16, 64, 200] {
                let chunk = claim_chunk(count, threads);
                assert!(chunk >= 1, "{count}x{threads}");
                let fair_share = (count / threads).max(1);
                assert!(
                    chunk <= fair_share,
                    "claim_chunk({count}, {threads}) = {chunk} > fair share {fair_share}"
                );
                assert!(chunk <= 64, "{count}x{threads}");
            }
        }
    }
}
