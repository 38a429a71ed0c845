//! The persistent worker pool behind all parallel execution in the engine.
//!
//! A lazily initialized, process-wide pool of long-lived workers parked on
//! a condvar, instead of scoped threads spawned per kernel call. An epoch
//! is still not free: on a 2-core host it costs 5–15 µs from dispatch to
//! completion when timed back to back and 15–55 µs once the lanes have
//! parked (`perf_report`'s `pool.dispatch_ns` / `pool.parked_dispatch_ns`),
//! against 30+ µs for a scoped spawn. That is why kernels reach the pool
//! only through a measured [`crate::par::Site`], which dispatches where the
//! parallel form has been timed to win, or through an explicit pin.
//!
//! # Dispatch protocol
//!
//! The pool has `W` *lanes*: the calling thread is lane 0 and `W - 1`
//! spawned workers are lanes `1..W` (so a dispatch never pays a context
//! switch for its own share of the work). A [`Pool::run`]`(ntasks, f)` call:
//!
//! 1. takes the fork lock (serializing concurrent dispatchers),
//! 2. publishes a type-erased pointer to the borrowed job closure together
//!    with a bumped *epoch* counter under the control mutex and wakes all
//!    workers,
//! 3. executes its own task share inline — lane `l` runs tasks
//!    `l, l + W, l + 2W, …` — and then
//! 4. blocks on a *latch*: each worker decrements `remaining` after
//!    finishing its share, and the last one signals the dispatcher.
//!
//! Nothing is allocated or spawned on this path: the job is passed by
//! reference (a data pointer plus a monomorphized trampoline), and the only
//! synchronization is two uncontended mutex acquisitions plus the condvar
//! wake. The latch guarantees the borrowed closure — and everything it
//! captures — is no longer referenced by any worker when `run` returns,
//! which is what makes the borrow-based API sound.
//!
//! Worker panics are caught at the task boundary, recorded, and re-raised
//! on the dispatching thread after the latch; the pool itself stays usable
//! (workers never unwind out of their loop).
//!
//! # Tuning and determinism
//!
//! * `SMG_THREADS` sets the lane count of the global pool (see
//!   [`crate::par::max_threads`]); values above the detected parallelism are
//!   honoured, so the threaded paths can be driven on any machine.
//! * With one lane — `SMG_THREADS=1` or the `parallel` feature off — every
//!   entry point degenerates to an inline sequential loop over the tasks:
//!   same results, no synchronization.
//! * Task-to-lane assignment is strided and deterministic, but callers must
//!   not rely on *which* lane runs a task — only that every task index in
//!   `0..ntasks` runs exactly once per dispatch.
//! * Nested dispatch from inside a task (or re-entrant dispatch from the
//!   calling thread) degrades to the inline sequential loop instead of
//!   deadlocking.

use smg_obs as obs;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

thread_local! {
    /// Set on pool workers (permanently) and on dispatching threads (for
    /// the duration of a fork), so nested `run` calls stay inline.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the re-entrancy guard set, so that nested dispatches
/// degrade to the inline loop — the context every pool task body executes
/// in. The simulated executor ([`crate::sim`]) wraps task bodies in this
/// to reproduce the real pool's nested-dispatch degradation.
#[cfg(feature = "sim")]
pub(crate) fn in_task<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_PARALLEL.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(IN_PARALLEL.with(|c| c.replace(true)));
    f()
}

/// A type-erased borrowed job: a data pointer to the caller's closure and a
/// monomorphized trampoline that invokes it with a task index.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    call: unsafe fn(*const (), usize),
}

// SAFETY: the pointer targets a closure that outlives the dispatch (the
// latch in `Pool::run` keeps the borrow alive until all workers are done),
// and the closure is `Sync`, so calling it from worker threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for Job {}

impl Job {
    fn erase<F: Fn(usize) + Sync>(f: &F) -> Job {
        #[allow(unsafe_code)]
        unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), task: usize) {
            // SAFETY: `data` was derived from `&F` in `erase`; `Pool::run`
            // does not return until every worker finished the epoch, so the
            // reference is live for the duration of every call.
            (*(data as *const F))(task)
        }
        Job {
            data: (f as *const F).cast(),
            call: trampoline::<F>,
        }
    }
}

/// Mutable pool state shared between the dispatcher and the workers.
struct Control {
    /// Fork-join generation counter; workers sleep until it advances.
    epoch: u64,
    /// The job of the current epoch (`None` between forks).
    job: Option<Job>,
    /// Number of tasks in the current epoch.
    ntasks: usize,
    /// Workers that have not yet finished the current epoch.
    remaining: usize,
    /// `(lane, epoch)` of the first worker task that panicked in the
    /// current epoch, carried into the re-raised message so real-world
    /// failures are diagnosable without a harness attached.
    panicked: Option<(usize, u64)>,
}

/// A persistent fork-join worker pool; see the module docs for the
/// protocol. Use [`global`] for the engine-wide instance.
pub struct Pool {
    /// Total lanes including the caller's lane 0 (≥ 1).
    lanes: usize,
    ctl: Mutex<Control>,
    /// Workers wait here for a new epoch.
    work_cv: Condvar,
    /// The dispatcher waits here for the latch.
    done_cv: Condvar,
    /// Serializes concurrent dispatchers from different threads.
    fork: Mutex<()>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The control state is transient dispatch bookkeeping; the lane
        // count is the pool's only configuration.
        f.debug_struct("Pool").field("lanes", &self.lanes).finish()
    }
}

impl Pool {
    fn new(lanes: usize) -> Pool {
        Pool {
            lanes: lanes.max(1),
            ctl: Mutex::new(Control {
                epoch: 0,
                job: None,
                ntasks: 0,
                remaining: 0,
                panicked: None,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            fork: Mutex::new(()),
        }
    }

    /// Panic-tolerant control lock: a poisoned mutex only means a dispatcher
    /// unwound; the protected state is always left consistent.
    fn lock_ctl(&self) -> MutexGuard<'_, Control> {
        self.ctl.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn spawn_workers(&'static self) {
        for lane in 1..self.lanes {
            std::thread::Builder::new()
                .name(format!("smg-pool-{lane}"))
                .spawn(move || self.worker_loop(lane))
                .expect("failed to spawn smg-dtmc pool worker");
        }
    }

    /// The number of lanes (caller + workers) this pool fans out over.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Runs `f(t)` exactly once for every task index `t` in `0..ntasks`,
    /// fanning the tasks out over the pool's lanes (lane `l` runs tasks
    /// `l, l + lanes, …`; the calling thread is lane 0 and participates).
    /// Returns once every task has finished.
    ///
    /// Tasks must coordinate their own data access (disjoint indices,
    /// atomics, or locks); see [`Pool::map_chunks`] for the common
    /// disjoint-slice case.
    ///
    /// # Panics
    ///
    /// Re-raises on the calling thread if any task panicked (after all
    /// tasks have settled — the pool itself survives and stays usable).
    pub fn run<F: Fn(usize) + Sync>(&self, ntasks: usize, f: &F) {
        if self.lanes == 1 || ntasks <= 1 || IN_PARALLEL.with(Cell::get) {
            obs::counter_add("smg_pool_inline_runs_total", None, 1);
            for t in 0..ntasks {
                f(t);
            }
            return;
        }
        #[cfg(feature = "sim")]
        if crate::sim::active() {
            crate::sim::run_epoch(self.lanes, ntasks, false, &|t| f(t));
            return;
        }
        // Dispatch instrumentation fires on this (the dispatching) thread,
        // so thread-locally scoped recorders see a full run.
        let dispatch_start = obs::enabled().then(std::time::Instant::now);
        let _fork = self.fork.lock().unwrap_or_else(PoisonError::into_inner);
        IN_PARALLEL.with(|c| c.set(true));
        {
            let mut ctl = self.lock_ctl();
            ctl.job = Some(Job::erase(f));
            ctl.ntasks = ntasks;
            ctl.remaining = self.lanes - 1;
            ctl.panicked = None;
            ctl.epoch += 1;
            self.work_cv.notify_all();
        }
        // Lane 0: the dispatcher's own share, panic-deferred so workers
        // never outlive the borrow of `f`.
        let caller = catch_unwind(AssertUnwindSafe(|| {
            let mut t = 0;
            while t < ntasks {
                f(t);
                t += self.lanes;
            }
        }));
        let mut ctl = self.lock_ctl();
        while ctl.remaining > 0 {
            ctl = self
                .done_cv
                .wait(ctl)
                .unwrap_or_else(PoisonError::into_inner);
        }
        ctl.job = None;
        let worker_panicked = ctl.panicked.take();
        drop(ctl);
        IN_PARALLEL.with(|c| c.set(false));
        if let Some(start) = dispatch_start {
            obs::observe(
                "smg_pool_dispatch_seconds",
                None,
                start.elapsed().as_secs_f64(),
            );
            obs::counter_add("smg_pool_epochs_total", None, 1);
            obs::counter_add("smg_pool_tasks_total", None, ntasks as u64);
            obs::observe(
                "smg_pool_lane_utilization_ratio",
                None,
                ntasks.min(self.lanes) as f64 / self.lanes as f64,
            );
        }
        match caller {
            Err(payload) => resume_unwind(payload),
            Ok(()) => {
                if let Some((lane, epoch)) = worker_panicked {
                    panic!(
                        "smg-dtmc worker pool: a worker task panicked (lane {lane}, epoch {epoch})"
                    )
                }
            }
        }
    }

    /// Runs `f(t)` exactly once for every task index `t` in `0..ntasks`,
    /// with tasks handed to lanes through a shared **atomic cursor** instead
    /// of [`Pool::run`]'s fixed stride. Lanes grab the next unclaimed index
    /// as they finish their previous one, so heavy-tailed task costs
    /// (skewed BFS levels, power-law action fan-out in MDP value iteration)
    /// balance automatically; the stride assignment would leave whole lanes
    /// idle behind one expensive task.
    ///
    /// Which lane runs which task becomes scheduling-dependent — callers
    /// get the same guarantee as [`Pool::run`] (every index exactly once,
    /// all done on return) and must not rely on more. Built on `run`, so
    /// the latch, panic propagation and nested-dispatch degradation carry
    /// over unchanged; with one lane the tasks run inline in index order.
    pub fn run_dynamic<F: Fn(usize) + Sync>(&self, ntasks: usize, f: &F) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let drivers = self.lanes.min(ntasks);
        if drivers <= 1 || IN_PARALLEL.with(Cell::get) {
            for t in 0..ntasks {
                f(t);
            }
            return;
        }
        #[cfg(feature = "sim")]
        if crate::sim::active() {
            // The simulated executor claims tasks through a *virtual*
            // cursor so the interleaver controls claim order; routing
            // through `run` would let lane 0 drain the real cursor whole.
            crate::sim::run_epoch(drivers, ntasks, true, &|t| f(t));
            return;
        }
        let cursor = AtomicUsize::new(0);
        self.run(drivers, &|_| loop {
            let t = cursor.fetch_add(1, Ordering::Relaxed);
            if t >= ntasks {
                break;
            }
            f(t);
        });
    }

    fn worker_loop(&self, lane: usize) {
        IN_PARALLEL.with(|c| c.set(true));
        let mut seen = 0u64;
        loop {
            let (job, ntasks) = {
                let mut ctl = self.lock_ctl();
                while ctl.epoch == seen {
                    ctl = self
                        .work_cv
                        .wait(ctl)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                seen = ctl.epoch;
                (ctl.job.expect("job published with new epoch"), ctl.ntasks)
            };
            let ok = catch_unwind(AssertUnwindSafe(|| {
                let mut t = lane;
                while t < ntasks {
                    // SAFETY: the job closure is alive until the dispatcher
                    // observes `remaining == 0`, which cannot happen before
                    // this worker's decrement below.
                    #[allow(unsafe_code)]
                    unsafe {
                        (job.call)(job.data, t)
                    };
                    t += self.lanes;
                }
            }))
            .is_ok();
            let mut ctl = self.lock_ctl();
            if !ok && ctl.panicked.is_none() {
                ctl.panicked = Some((lane, seen));
            }
            ctl.remaining -= 1;
            if ctl.remaining == 0 {
                self.done_cv.notify_one();
            }
        }
    }

    /// Splits `data` into contiguous chunks of `chunk` elements (the last
    /// possibly shorter), runs `f(offset, chunk_slice)` for each as a pool
    /// task, and returns the per-chunk results in slice order. With one
    /// lane (or a single chunk) the chunks are processed inline, in order,
    /// with identical results.
    #[allow(unsafe_code)]
    pub fn map_chunks<T, R, F>(&self, data: &mut [T], chunk: usize, f: &F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        let n = data.len();
        let chunk = chunk.max(1);
        let ntasks = n.div_ceil(chunk).max(1);
        if ntasks == 1 {
            return vec![f(0, data)];
        }
        if self.lanes == 1 || IN_PARALLEL.with(Cell::get) {
            let mut out = Vec::with_capacity(ntasks);
            let mut offset = 0;
            for piece in data.chunks_mut(chunk) {
                out.push(f(offset, piece));
                offset += piece.len();
            }
            return out;
        }
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(ntasks).collect();
        {
            let data_ptr = SendPtr(data.as_mut_ptr());
            let out_ptr = SendPtr(out.as_mut_ptr());
            let task = move |t: usize| {
                let lo = t * chunk;
                let hi = n.min(lo + chunk);
                // SAFETY: task indices are distinct, so `[lo, hi)` ranges
                // are disjoint subslices of `data`, each reconstituted in
                // exactly one task; `run` does not return until every task
                // finished, so the borrows stay within `data`'s borrow.
                let piece = unsafe { std::slice::from_raw_parts_mut(data_ptr.add(lo), hi - lo) };
                let r = f(lo, piece);
                // SAFETY: slot `t` is written by exactly one task and `out`
                // outlives the dispatch; the overwritten value is `None`.
                unsafe { *out_ptr.add(t) = Some(r) };
            };
            self.run(ntasks, &task);
        }
        out.into_iter()
            .map(|slot| slot.expect("pool chunk task completed"))
            .collect()
    }

    /// [`Pool::map_chunks`] with **dynamic** task distribution: the chunks
    /// are claimed through the atomic cursor of [`Pool::run_dynamic`]
    /// rather than assigned by stride. Callers pick a chunk size small
    /// enough that many chunks exist per lane; uneven per-chunk costs then
    /// balance at run time. Chunk geometry — and therefore every chunk's
    /// content and the result order — is a pure function of `data.len()`
    /// and `chunk`, so results are identical whatever the lane count or
    /// schedule, down to the single-lane inline path.
    #[allow(unsafe_code)]
    pub fn map_chunks_dynamic<T, R, F>(&self, data: &mut [T], chunk: usize, f: &F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        let n = data.len();
        let chunk = chunk.max(1);
        let ntasks = n.div_ceil(chunk).max(1);
        if ntasks == 1 {
            return vec![f(0, data)];
        }
        if self.lanes == 1 || IN_PARALLEL.with(Cell::get) {
            let mut out = Vec::with_capacity(ntasks);
            let mut offset = 0;
            for piece in data.chunks_mut(chunk) {
                out.push(f(offset, piece));
                offset += piece.len();
            }
            return out;
        }
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(ntasks).collect();
        {
            let data_ptr = SendPtr(data.as_mut_ptr());
            let out_ptr = SendPtr(out.as_mut_ptr());
            let task = move |t: usize| {
                let lo = t * chunk;
                let hi = n.min(lo + chunk);
                // SAFETY: identical to `map_chunks` — distinct task indices
                // address disjoint subslices of `data` and distinct `out`
                // slots, and the latch in `run` (via `run_dynamic`) keeps
                // both borrows alive until every task has finished.
                let piece = unsafe { std::slice::from_raw_parts_mut(data_ptr.add(lo), hi - lo) };
                let r = f(lo, piece);
                unsafe { *out_ptr.add(t) = Some(r) };
            };
            self.run_dynamic(ntasks, &task);
        }
        out.into_iter()
            .map(|slot| slot.expect("pool chunk task completed"))
            .collect()
    }
}

/// Raw-pointer wrapper for disjoint-index access from pool tasks. The
/// pointer is reached only through [`SendPtr::add`], so closures capture
/// the whole wrapper (edition-2021 precise capture would otherwise grab
/// the raw field and lose the `Send`/`Sync` impls).
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer offset by `count` elements.
    ///
    /// # Safety
    ///
    /// Same contract as [`pointer::add`]: the offset must stay within the
    /// allocation the pointer was derived from.
    #[allow(unsafe_code)]
    unsafe fn add(&self, count: usize) -> *mut T {
        self.0.add(count)
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the pool's latch confines all cross-thread access to the
// dispatch window, and every user writes/reads disjoint indices only.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SendPtr<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// The process-wide pool, created on first use with
/// [`crate::par::max_threads`] lanes (`SMG_THREADS` overrides; 1 when the
/// `parallel` feature is off). Workers are spawned once and parked between
/// dispatches.
pub fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static SPAWN: Once = Once::new();
    let pool = POOL.get_or_init(|| Pool::new(crate::par::max_threads()));
    SPAWN.call_once(|| pool.spawn_workers());
    pool
}

/// A dedicated pool with an explicit lane count, for tests and benches
/// that need a thread count independent of `SMG_THREADS`. The pool (and
/// its parked workers) is intentionally leaked — callers hold it for the
/// rest of the process.
pub fn with_lanes(lanes: usize) -> &'static Pool {
    let pool: &'static Pool = Box::leak(Box::new(Pool::new(lanes)));
    pool.spawn_workers();
    pool
}

/// The shared pool for an explicit lane count, created once per count per
/// process. Unlike [`with_lanes`] — which deliberately leaks a *fresh*
/// pool on every call for bench isolation — this memoizes, so callers
/// that pin a lane count repeatedly (checking sessions, parameter sweeps)
/// do not accumulate parked OS threads without bound.
pub fn shared(lanes: usize) -> &'static Pool {
    static POOLS: OnceLock<Mutex<Vec<(usize, &'static Pool)>>> = OnceLock::new();
    let lanes = lanes.max(1);
    let mut pools = POOLS
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(&(_, p)) = pools.iter().find(|&&(n, _)| n == lanes) {
        return p;
    }
    let p = with_lanes(lanes);
    pools.push((lanes, p));
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = with_lanes(4);
        for ntasks in [0usize, 1, 3, 4, 17, 100] {
            let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(ntasks, &|t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "ntasks={ntasks}"
            );
        }
    }

    #[test]
    fn pool_is_reused_across_many_dispatches() {
        let pool = with_lanes(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(7, &|t| {
                total.fetch_add(t + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 200 * (7 * 8 / 2));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = with_lanes(4);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|t| {
                // Panic on tasks that land on worker lanes *and* lane 0, so
                // both propagation paths are exercised across runs.
                if t % 2 == 1 {
                    panic!("task {t} exploded");
                }
            });
        }));
        assert!(err.is_err(), "panic must propagate to the dispatcher");
        // The pool must remain fully usable after a panicked epoch.
        let count = AtomicUsize::new(0);
        pool.run(16, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn worker_panic_message_carries_lane_and_epoch() {
        let pool = with_lanes(2);
        // Burn a few epochs so the reported epoch is meaningful.
        for _ in 0..3 {
            pool.run(4, &|_| {});
        }
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|t| {
                // Only the worker lane (task 1 on a 2-lane stride) panics,
                // so the pool's enriched message — not the caller's raw
                // payload — is what propagates.
                if t == 1 {
                    panic!("worker task exploded");
                }
            });
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("enriched pool panic carries a formatted String payload");
        assert!(
            msg.contains("a worker task panicked (lane 1, epoch "),
            "message should name the lane and epoch: {msg}"
        );
    }

    #[test]
    fn caller_lane_panic_propagates_after_latch() {
        let pool = with_lanes(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|t| {
                if t == 0 {
                    panic!("dispatcher task exploded");
                }
            });
        }));
        assert!(err.is_err());
        let count = AtomicUsize::new(0);
        pool.run(4, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn nested_dispatch_degrades_to_inline() {
        let pool = with_lanes(2);
        let outer = AtomicUsize::new(0);
        let inner = AtomicUsize::new(0);
        pool.run(2, &|_| {
            outer.fetch_add(1, Ordering::Relaxed);
            // Re-entrant dispatch from inside a task must not deadlock.
            pool.run(3, &|_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 2);
        assert_eq!(inner.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = with_lanes(1);
        let mut hits = vec![0u32; 5];
        // With one lane the tasks run on the calling thread in order, so a
        // plain mutable borrow is fine through a Cell-free closure… use the
        // chunked API, which hands out &mut chunks.
        let sums = pool.map_chunks(&mut hits, 2, &|off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (off + i) as u32;
            }
            chunk.iter().sum::<u32>()
        });
        assert_eq!(sums, vec![1, 5, 4]);
        assert_eq!(hits, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn run_dynamic_covers_every_task_exactly_once() {
        let pool = with_lanes(4);
        for ntasks in [0usize, 1, 3, 4, 17, 1000] {
            let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run_dynamic(ntasks, &|t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "ntasks={ntasks}"
            );
        }
    }

    #[test]
    fn run_dynamic_balances_heavy_tails() {
        // A single expensive task must not serialize the rest: with the
        // cursor, the lane stuck on task 0 leaves the other 15 tasks to the
        // remaining lanes. We can't assert on timing portably, but we can
        // assert the results are complete and the pool stays healthy.
        let pool = with_lanes(4);
        let total = AtomicUsize::new(0);
        pool.run_dynamic(16, &|t| {
            if t == 0 {
                // Simulated heavy task: spin a little.
                for i in 0..10_000 {
                    std::hint::black_box(i);
                }
            }
            total.fetch_add(t, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..16).sum());
    }

    #[test]
    fn run_dynamic_panic_propagates_and_pool_survives() {
        let pool = with_lanes(3);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_dynamic(8, &|t| {
                if t == 5 {
                    panic!("dynamic task exploded");
                }
            });
        }));
        assert!(err.is_err());
        let count = AtomicUsize::new(0);
        pool.run_dynamic(8, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn map_chunks_dynamic_matches_static_chunking() {
        let pool = with_lanes(4);
        for (n, chunk) in [(0usize, 7usize), (5, 7), (100, 7), (10_000, 999)] {
            let mut a: Vec<u64> = (0..n as u64).collect();
            let mut b = a.clone();
            let ra = pool.map_chunks(&mut a, chunk, &|off, c: &mut [u64]| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = *v * 3 + (off + i) as u64;
                }
                c.iter().sum::<u64>()
            });
            let rb = pool.map_chunks_dynamic(&mut b, chunk, &|off, c: &mut [u64]| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = *v * 3 + (off + i) as u64;
                }
                c.iter().sum::<u64>()
            });
            assert_eq!(a, b, "n={n} chunk={chunk}");
            assert_eq!(ra, rb, "n={n} chunk={chunk}");
        }
    }

    #[test]
    fn map_chunks_dynamic_single_lane_runs_inline_in_order() {
        let pool = with_lanes(1);
        let mut data = vec![0u32; 10];
        let offs = pool.map_chunks_dynamic(&mut data, 3, &|off, c: &mut [u32]| {
            for v in c.iter_mut() {
                *v = off as u32;
            }
            off
        });
        assert_eq!(offs, vec![0, 3, 6, 9]);
        assert_eq!(data, vec![0, 0, 0, 3, 3, 3, 6, 6, 6, 9]);
    }

    #[test]
    fn map_chunks_covers_and_orders() {
        let pool = with_lanes(4);
        let mut data: Vec<u64> = (0..10_000).collect();
        let sums = pool.map_chunks(&mut data, 999, &|off, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                assert_eq!(*v as usize, off + i);
                *v += 1;
            }
            chunk.iter().sum::<u64>()
        });
        assert_eq!(sums.len(), 10_000usize.div_ceil(999));
        let total: u64 = sums.iter().sum();
        let n = data.len() as u64;
        assert_eq!(total, n * (n - 1) / 2 + n);
    }
}
