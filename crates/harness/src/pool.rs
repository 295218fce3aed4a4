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

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count [`run_parallel`] actually uses for a request:
/// `workers` (0 = [`default_jobs`]) clamped to the job count, floor 1.
/// Exposed so callers can report the real thread count instead of the
/// requested one.
pub fn effective_workers(workers: usize, jobs: usize) -> usize {
    let workers = if workers == 0 {
        default_jobs()
    } else {
        workers
    };
    workers.min(jobs).max(1)
}

/// Metadata about one [`run_parallel_meta`] execution: what was asked
/// for and what actually ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolRun {
    /// The worker count the caller requested (0 = auto).
    pub requested: usize,
    /// The worker count that actually ran ([`effective_workers`]).
    pub effective: usize,
    /// How many jobs the pool executed.
    pub jobs: usize,
}

/// Runs `f` over every job and returns the results **in job order**,
/// regardless of `workers`.
///
/// `workers == 0` means [`default_jobs`]. The worker count is clamped to
/// the job count; with one effective worker the jobs run inline on the
/// calling thread (no spawn overhead, same result order).
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
    run_parallel_meta(jobs, workers, f).0
}

/// [`run_parallel`] plus a [`PoolRun`] describing the execution — the
/// requested and effective worker counts — so sweeps can surface how
/// wide they really ran (e.g. in emitted baseline JSON).
pub fn run_parallel_meta<J, R, F>(jobs: &[J], workers: usize, f: F) -> (Vec<R>, PoolRun)
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let meta = PoolRun {
        requested: workers,
        effective: effective_workers(workers, jobs.len()),
        jobs: jobs.len(),
    };
    (run_pool(jobs, meta.effective, f), meta)
}

fn run_pool<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
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
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn effective_workers_clamps_to_jobs_and_floor_one() {
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(2, 100), 2);
        assert_eq!(effective_workers(8, 0), 1);
        assert_eq!(effective_workers(0, 100), default_jobs().min(100));
    }

    #[test]
    fn meta_reports_requested_and_effective() {
        let jobs: Vec<u32> = (0..3).collect();
        let (out, meta) = run_parallel_meta(&jobs, 8, |&j| j);
        assert_eq!(out, jobs);
        assert_eq!(
            meta,
            PoolRun {
                requested: 8,
                effective: 3,
                jobs: 3
            }
        );
        let (_, meta) = run_parallel_meta(&jobs, 0, |&j| j);
        assert_eq!(meta.requested, 0);
        assert_eq!(meta.effective, default_jobs().min(3));
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
