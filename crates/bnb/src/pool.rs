//! Where the thread-parallel driver's workers run.
//!
//! [`solve_parallel`](crate::solve_parallel) does not own threads: it
//! submits its worker loops as jobs to a [`WorkerPool`], runs one loop on
//! the calling thread, and relies on the pool's
//! [`run_all`](WorkerPool::run_all) contract to finish every job before
//! returning. Two pools implement the trait:
//!
//! * `mutree_core::exec::Executor` — long-lived threads shared by a
//!   scheduling layer above the solver (the compact-set pipeline, the
//!   daemon), so group-level task parallelism and intra-solve B&B
//!   parallelism share one thread budget instead of oversubscribing the
//!   machine. Its waits help execute queued work, so a pool of any size
//!   (even one thread) completes the search without deadlocking.
//! * [`SpawnPool`] — for a standalone solve with no executor: one fresh
//!   thread per job, joined before returning.
//!
//! The trait lives here so the solver crate does not depend on the
//! pipeline crate.

/// An owned unit of work submitted to a [`WorkerPool`].
///
/// Jobs are `'static`: they must own (or `Arc`-share) everything they
/// touch, because the pool's threads outlive the submitting stack frame.
pub type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A pool of worker threads that can execute owned jobs on behalf of a
/// caller.
pub trait WorkerPool {
    /// Submits `jobs` for concurrent execution, runs `main` on the calling
    /// thread, and returns only after **every** submitted job has finished.
    ///
    /// Contract, required for deadlock-freedom when jobs coordinate with
    /// `main` (as the search driver's worker loops do):
    ///
    /// * `jobs` are made available to the pool's threads *before* `main`
    ///   runs, so they can proceed in parallel with it;
    /// * while waiting for stragglers after `main` returns, the calling
    ///   thread executes queued work itself ("help-while-wait") instead of
    ///   sleeping, so progress is guaranteed even on a one-thread pool
    ///   whose only worker is the caller;
    /// * a panicking job must not take down a pool thread or abort the
    ///   wait: the pool isolates it and still counts the job as finished.
    fn run_all(&self, jobs: Vec<PoolJob>, main: Box<dyn FnOnce() + '_>);
}

/// The pool for callers without an executor: each
/// [`run_all`](WorkerPool::run_all) spawns one thread per job, runs `main`
/// on the calling thread, then joins every thread. No job ever waits in a
/// queue, so help-while-wait is trivially satisfied, and a panicking job
/// ends only its own thread — `join` reports the panic and the pool
/// drops it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpawnPool;

impl WorkerPool for SpawnPool {
    fn run_all(&self, jobs: Vec<PoolJob>, main: Box<dyn FnOnce() + '_>) {
        let handles: Vec<_> = jobs.into_iter().map(std::thread::spawn).collect();
        main();
        for handle in handles {
            let _ = handle.join();
        }
    }
}
