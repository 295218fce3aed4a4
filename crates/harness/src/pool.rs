//! The parallel job pool: scoped worker threads pulling from a shared
//! job deque.
//!
//! The evaluation matrix is embarrassingly parallel — every
//! (benchmark, configuration, scale) cell builds its own `Simulator` and
//! shares nothing — so the pool is deliberately simple: job indices go
//! into one shared deque, `std::thread::scope` workers pop and run them,
//! and results are reassembled **in job order**. Output order (and
//! therefore every CSV/JSON byte downstream) depends only on the job
//! list, never on worker count or scheduling, which is what makes
//! `--jobs 1` and `--jobs 8` byte-identical.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `f` over every job and returns the results **in job order**,
/// regardless of `workers`.
///
/// `workers == 0` means the machine's available parallelism (1 if
/// unknown). The worker count is clamped to the job count; with one
/// effective worker the jobs run inline on the calling thread (no spawn
/// overhead, same result order).
///
/// # Panics
///
/// If `f` panics on any job the panic propagates to the caller once all
/// workers have stopped (via [`std::thread::scope`]).
///
/// # Examples
///
/// ```
/// use gsim_harness::pool::run_parallel;
///
/// let jobs: Vec<u64> = (0..100).collect();
/// let serial = run_parallel(&jobs, 1, |j| j * j);
/// let parallel = run_parallel(&jobs, 8, |j| j * j);
/// assert_eq!(serial, parallel); // order is the job order, always
/// ```
pub fn run_parallel<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(jobs.len())
    .max(1);
    if workers == 1 {
        return jobs.iter().map(f).collect();
    }

    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..jobs.len()).collect());
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(jobs.len()));
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let idx = queue.lock().expect("job queue poisoned").pop_front();
                let Some(idx) = idx else { break };
                let r = f(&jobs[idx]);
                done.lock().expect("result sink poisoned").push((idx, r));
            });
        }
    });
    let mut v = done.into_inner().expect("result sink poisoned");
    debug_assert_eq!(v.len(), jobs.len());
    v.sort_unstable_by_key(|&(i, _)| i);
    v.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_job_order_for_any_worker_count() {
        let jobs: Vec<usize> = (0..257).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = run_parallel(&jobs, workers, |&j| j * 3);
            assert_eq!(out, jobs.iter().map(|j| j * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let count = AtomicUsize::new(0);
        let jobs: Vec<u32> = (0..100).collect();
        let out = run_parallel(&jobs, 4, |&j| {
            count.fetch_add(1, Ordering::Relaxed);
            j
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn empty_and_tiny_job_lists() {
        let empty: Vec<u32> = vec![];
        assert!(run_parallel(&empty, 8, |&j| j).is_empty());
        assert_eq!(run_parallel(&[7u32], 8, |&j| j + 1), vec![8]);
    }

    #[test]
    fn one_worker_runs_inline_on_the_calling_thread() {
        // --jobs 1 must not pay thread-spawn overhead: every job runs on
        // the caller's own thread. A single job clamps workers to 1 too.
        let caller = std::thread::current().id();
        let jobs: Vec<u32> = (0..32).collect();
        let tids = run_parallel(&jobs, 1, |_| std::thread::current().id());
        assert!(tids.iter().all(|&t| t == caller));
        let tids = run_parallel(&jobs[..1], 8, |_| std::thread::current().id());
        assert_eq!(tids, vec![caller]);
    }

    #[test]
    fn zero_workers_means_auto() {
        let jobs: Vec<u32> = (0..10).collect();
        assert_eq!(run_parallel(&jobs, 0, |&j| j), jobs);
    }

    #[test]
    fn worker_panic_propagates() {
        let jobs: Vec<u32> = (0..8).collect();
        let res = std::panic::catch_unwind(|| {
            run_parallel(&jobs, 4, |&j| {
                assert!(j != 5, "boom");
                j
            })
        });
        assert!(res.is_err());
    }
}
