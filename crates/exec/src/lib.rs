//! Deterministic data-parallel execution layer (std-only).
//!
//! Every hot path in the compressor — matmul row blocks, per-chunk
//! minibatch gradients, per-column encode/decode — funnels through this
//! crate. Two properties are load-bearing:
//!
//! 1. **Determinism.** Work is split into chunks whose boundaries depend
//!    only on the problem size, never on the thread count; every output
//!    element is owned by exactly one task, and any cross-chunk reduction
//!    happens on the calling thread in ascending chunk order. Results are
//!    therefore bit-identical for any `DS_THREADS` setting, including 1 —
//!    required for lossless decompression, where the decoder must
//!    reproduce the encoder's floats exactly regardless of hardware.
//! 2. **No silent sequential degradation.** The thread count resolves as
//!    `DS_THREADS` env var → `available_parallelism()` → an explicit
//!    default of [`DEFAULT_THREADS`]; an erroring `available_parallelism`
//!    no longer quietly disables parallelism (it used to in the MoE
//!    expert dispatch).
//!
//! The pool is a single process-wide set of detached worker threads fed
//! by an injector queue. A parallel call publishes one *batch* (an atomic
//! task cursor over `n_tasks` closures) and invites up to `limit - 1`
//! workers; the calling thread participates too, claiming tasks from the
//! same cursor, so a busy or undersized pool can only slow a call down,
//! never deadlock it. Nested parallel calls from inside a pool task run
//! inline (serially) on the worker — chunk boundaries don't change, so
//! results stay identical; only the scheduling differs.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Fallback worker count when `DS_THREADS` is unset and the OS cannot
/// report `available_parallelism()`.
pub const DEFAULT_THREADS: usize = 4;

/// Upper bound on the resolved thread count (defensive clamp for wild
/// `DS_THREADS` values).
pub const MAX_THREADS: usize = 256;

// ---------------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------------

/// Pure resolution logic, separated for testability: explicit env
/// override → OS-reported parallelism → [`DEFAULT_THREADS`].
fn resolve_threads(env: Option<&str>, os_threads: Option<usize>) -> usize {
    if let Some(v) = env {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n.min(MAX_THREADS);
            }
        }
        // An unparsable or zero DS_THREADS falls through to the OS value
        // rather than silently serializing.
    }
    os_threads.unwrap_or(DEFAULT_THREADS).clamp(1, MAX_THREADS)
}

/// Process-wide thread budget: `DS_THREADS` env var if set, else
/// `available_parallelism()`, else [`DEFAULT_THREADS`]. Read once and
/// cached for the lifetime of the process.
pub fn hardware_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let env = std::env::var("DS_THREADS").ok();
        let os = std::thread::available_parallelism().ok().map(|n| n.get());
        resolve_threads(env.as_deref(), os)
    })
}

thread_local! {
    /// In-process override installed by [`with_thread_limit`].
    static THREAD_LIMIT: Cell<Option<usize>> = const { Cell::new(None) };
    /// True while this thread is executing a pool task; nested parallel
    /// calls then run inline to keep scheduling simple and deadlock-free.
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

/// The thread budget for parallel calls issued by the *current* thread:
/// the innermost [`with_thread_limit`] override, else [`hardware_threads`].
pub fn effective_threads() -> usize {
    THREAD_LIMIT
        .with(Cell::get)
        .unwrap_or_else(hardware_threads)
        .clamp(1, MAX_THREADS)
}

/// Runs `f` with the calling thread's parallelism capped at `limit`
/// (1 = fully serial). Unlike `DS_THREADS`, this is scoped and
/// thread-local, so concurrent tests can pin different limits without
/// racing on process-global environment variables.
pub fn with_thread_limit<T>(limit: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_LIMIT.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_LIMIT.with(|c| c.replace(Some(limit.clamp(1, MAX_THREADS))));
    let _restore = Restore(prev);
    f()
}

// ---------------------------------------------------------------------------
// Pool internals
// ---------------------------------------------------------------------------

/// One parallel call: an atomic cursor over `n_tasks` applications of an
/// erased closure. The closure lives on the submitting thread's stack;
/// the raw pointer stays valid because the submitter blocks until
/// `done == n_tasks`, and workers only dereference it for claimed task
/// indexes, all of which complete before `done` can reach `n_tasks`.
struct Batch {
    run: *const (dyn Fn(usize) + Sync),
    n_tasks: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    /// Notify `done_cv` after *every* task completion, not just the last —
    /// ordered-flush consumers ([`parallel_map_consume`]) stream results
    /// out as they land and need the per-task wakeups.
    notify_each: bool,
    panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

// SAFETY: `run` is only dereferenced while the submitting stack frame is
// alive (see the struct comment); all other fields are Sync.
unsafe impl Send for Batch {}
// SAFETY: same contract as Send above — concurrent access only touches the
// atomic/Mutex/Condvar fields, and `run` points at a Sync closure.
unsafe impl Sync for Batch {}

impl Batch {
    fn new(run: &(dyn Fn(usize) + Sync + 'static), n_tasks: usize, notify_each: bool) -> Batch {
        Batch {
            run: run as *const (dyn Fn(usize) + Sync),
            n_tasks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            notify_each,
            panic_payload: Mutex::new(None),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Claims and executes at most one task; false when the cursor is
    /// already exhausted.
    fn execute_one(&self) -> bool {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if idx >= self.n_tasks {
            return false;
        }
        // SAFETY: idx < n_tasks, so the submitter is still blocked in
        // `wait` (or its drop guard) and the closure is alive.
        let run = unsafe { &*self.run };
        let t0 = ds_obs::now_us();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(idx)));
        ds_obs::hist_rt("exec.task_us", ds_obs::now_us().saturating_sub(t0));
        if let Err(payload) = outcome {
            let mut slot = self.panic_payload.lock().unwrap();
            slot.get_or_insert(payload);
        }
        let finished = self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n_tasks;
        if finished || self.notify_each {
            let _guard = self.done_lock.lock().unwrap();
            self.done_cv.notify_all();
        }
        true
    }

    /// Claims and executes tasks until the cursor is exhausted.
    fn execute(&self) {
        while self.execute_one() {}
    }

    /// Blocks until every task has completed.
    fn wait_done(&self) {
        if self.done.load(Ordering::Acquire) < self.n_tasks {
            let mut guard = self.done_lock.lock().unwrap();
            while self.done.load(Ordering::Acquire) < self.n_tasks {
                guard = self.done_cv.wait(guard).unwrap();
            }
        }
    }

    /// [`Batch::wait_done`], then re-raises the first captured panic (if
    /// any) on the calling thread.
    fn wait(&self) {
        self.wait_done();
        let payload = self.panic_payload.lock().unwrap().take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Capacity of each worker's injector deque. Invites beyond a full deque
/// are dropped — an invite is a wake-up hint, not a work item (every task
/// is claimed through the batch's atomic cursor, and the submitting
/// thread always participates), so dropping one can only reduce the
/// worker head-count of a single call, never lose work.
const INJECTOR_CAP: usize = 8;

struct Pool {
    /// One bounded injector deque per potential worker, indexed by worker
    /// id. Replaces the old single `Mutex<VecDeque>` hot path: submitters
    /// spread invites round-robin and each worker pops its own deque
    /// first, so many small batches no longer serialize on one lock.
    queues: Vec<Mutex<VecDeque<Arc<Batch>>>>,
    /// Wake generation, bumped on every submit; workers sleep on it.
    sleep: Mutex<u64>,
    work_cv: Condvar,
    /// Number of workers actually spawned so far.
    spawned: AtomicUsize,
    /// Serializes worker spawning (spawn count grows monotonically).
    spawn_lock: Mutex<()>,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            queues: (0..MAX_THREADS)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            sleep: Mutex::new(0),
            work_cv: Condvar::new(),
            spawned: AtomicUsize::new(0),
            spawn_lock: Mutex::new(()),
        })
    }

    /// Grows the detached worker set to at least `target` threads.
    fn ensure_workers(&'static self, target: usize) {
        let target = target.min(MAX_THREADS);
        if self.spawned.load(Ordering::Acquire) >= target {
            return;
        }
        let _guard = self.spawn_lock.lock().unwrap();
        let mut n = self.spawned.load(Ordering::Acquire);
        while n < target {
            let name = format!("ds-exec-{n}");
            std::thread::Builder::new()
                .name(name)
                .spawn(move || self.worker_loop(n))
                .expect("spawn ds-exec worker");
            n += 1;
            self.spawned.store(n, Ordering::Release);
        }
    }

    /// Pops work for worker `idx`: its own deque front first, then steals
    /// from the other workers' deque backs scanning in ascending worker
    /// index — a fixed, index-determined steal order (no randomized victim
    /// selection), so claiming behaviour is reproducible run-to-run.
    fn take(&self, idx: usize) -> Option<Arc<Batch>> {
        if let Some(batch) = self.queues[idx].lock().unwrap().pop_front() {
            return Some(batch);
        }
        let n = self.spawned.load(Ordering::Acquire).min(self.queues.len());
        for victim in 0..n {
            if victim == idx {
                continue;
            }
            if let Some(batch) = self.queues[victim].lock().unwrap().pop_back() {
                ds_obs::counter_rt("exec.steals", idx as u64, 1);
                return Some(batch);
            }
        }
        None
    }

    fn worker_loop(&self, idx: usize) {
        IN_POOL_TASK.with(|c| c.set(true));
        loop {
            // Read the wake generation *before* scanning the deques so a
            // submit landing between the scan and the wait cannot be
            // missed: it bumps the generation and the wait exits at once.
            let gen = *self.sleep.lock().unwrap();
            if let Some(batch) = self.take(idx) {
                batch.execute();
                continue;
            }
            let mut guard = self.sleep.lock().unwrap();
            while *guard == gen {
                guard = self.work_cv.wait(guard).unwrap();
            }
        }
    }

    /// Publishes `batch` with up to `invites` worker invitations, spread
    /// round-robin across the per-worker deques in worker-index order.
    fn submit(&self, batch: &Arc<Batch>, invites: usize) {
        let n = self
            .spawned
            .load(Ordering::Acquire)
            .min(self.queues.len())
            .max(1);
        for k in 0..invites {
            let mut queue = self.queues[k % n].lock().unwrap();
            if queue.len() < INJECTOR_CAP {
                queue.push_back(Arc::clone(batch));
                ds_obs::gauge_max_rt("exec.queue_hw", (k % n) as u64, queue.len() as u64);
            }
        }
        let mut gen = self.sleep.lock().unwrap();
        *gen = gen.wrapping_add(1);
        self.work_cv.notify_all();
    }
}

/// A batch published to the pool. Dropping it — also while unwinding —
/// claims whatever tasks are left and blocks until every task has
/// finished, which is what keeps the borrowed closure alive for every
/// worker dereference; it is never leaked.
struct InFlight<'f> {
    batch: Arc<Batch>,
    _task: PhantomData<&'f (dyn Fn(usize) + Sync)>,
}

impl InFlight<'_> {
    /// Claims whatever tasks are left, waits for every task, then
    /// re-raises the first captured panic.
    fn join(self) {
        self.batch.execute();
        self.batch.wait();
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.batch.execute();
        self.batch.wait_done();
    }
}

/// The dispatch prologue of every parallel call. Counts the tasks — on
/// every path, inline or pooled: task counts derive from problem sizes
/// only, so the counter is thread-count-invariant — and returns `None`
/// when the call runs inline on this thread (one task, a thread limit
/// of 1, or a call from inside a pool task). Otherwise it publishes
/// `task` as a batch, invites up to `limit - 1` workers, and runs
/// `participate` on this thread marked as inside a pool task, so any
/// nested parallel call from there runs inline instead of re-entering
/// the pool (which could otherwise self-wait).
fn dispatch<'f>(
    n_tasks: usize,
    task: &'f (dyn Fn(usize) + Sync),
    notify_each: bool,
    participate: impl FnOnce(&Batch),
) -> Option<InFlight<'f>> {
    if n_tasks == 0 {
        return None;
    }
    ds_obs::counter("exec.tasks", n_tasks as u64);
    let limit = effective_threads();
    if n_tasks == 1 || limit <= 1 || IN_POOL_TASK.with(Cell::get) {
        return None;
    }

    let pool = Pool::global();
    let invites = limit.min(n_tasks) - 1;
    pool.ensure_workers(invites);
    // SAFETY: erases the closure's borrow lifetime. The pointer is only
    // dereferenced for claimed task indexes, and the `InFlight` guard
    // built before the submit borrows `task` for `'f` and blocks on drop
    // — also when `participate` or the caller unwinds — until all of them
    // finish, so the closure outlives every dereference (see the `Batch`
    // doc comment).
    let run: &(dyn Fn(usize) + Sync + 'static) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &(dyn Fn(usize) + Sync + 'static)>(task)
    };
    let in_flight = InFlight {
        batch: Arc::new(Batch::new(run, n_tasks, notify_each)),
        _task: PhantomData,
    };
    pool.submit(&in_flight.batch, invites);

    struct ClearFlag(bool);
    impl Drop for ClearFlag {
        fn drop(&mut self) {
            IN_POOL_TASK.with(|c| c.set(self.0));
        }
    }
    let prev = IN_POOL_TASK.with(|c| c.replace(true));
    let _clear = ClearFlag(prev);
    participate(&in_flight.batch);
    Some(in_flight)
}

/// Dispatches `n_tasks` applications of `f`, inline or via the pool.
/// Task *results* never depend on which path runs.
fn run_tasks(n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
    match dispatch(n_tasks, f, false, Batch::execute) {
        Some(in_flight) => in_flight.join(),
        None => (0..n_tasks).for_each(f),
    }
}

// ---------------------------------------------------------------------------
// Public parallel primitives
// ---------------------------------------------------------------------------

/// Runs `f(0..n_tasks)` with each index executed exactly once. Tasks may
/// run concurrently and in any order; use disjoint outputs per index.
pub fn parallel_for(n_tasks: usize, f: impl Fn(usize) + Sync) {
    run_tasks(n_tasks, &f);
}

/// Cell wrapper making a slot vector shareable across tasks; each task
/// writes exactly one distinct slot, so there are no data races.
struct Slot<T>(std::cell::UnsafeCell<Option<T>>);
// SAFETY: each task writes exactly one distinct slot index and the results
// are only read after the barrier in `run_tasks` returns, so no slot is
// ever accessed from two threads at once; T: Send lets the value move to
// the reading thread.
unsafe impl<T: Send> Sync for Slot<T> {}

/// Runs `f` for each index and returns the results **in index order**
/// (independent of execution interleaving).
pub fn parallel_map<T: Send>(n_tasks: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let slots: Vec<Slot<T>> = (0..n_tasks)
        .map(|_| Slot(std::cell::UnsafeCell::new(None)))
        .collect();
    run_tasks(n_tasks, &|idx| {
        let value = f(idx);
        // SAFETY: each idx is claimed by exactly one task, so this slot
        // has a single writer and no concurrent reader.
        unsafe { *slots[idx].0.get() = Some(value) };
    });
    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("task completed"))
        .collect()
}

/// Number of fixed-size chunks covering `n` items.
pub fn chunk_count(n: usize, chunk: usize) -> usize {
    n.div_ceil(chunk.max(1))
}

/// Chunked variant of [`parallel_map`]: results come back in ascending
/// chunk order, so order-sensitive reductions stay deterministic.
pub fn parallel_map_chunks<T: Send>(
    n: usize,
    chunk: usize,
    f: impl Fn(usize, Range<usize>) -> T + Sync,
) -> Vec<T> {
    let chunk = chunk.max(1);
    parallel_map(chunk_count(n, chunk), |c| {
        let start = c * chunk;
        f(c, start..(start + chunk).min(n))
    })
}

/// Runs `f` for every index like [`parallel_map`], but instead of
/// collecting a `Vec`, feeds each result to `consume` **on the calling
/// thread, in ascending index order**, as soon as it and every earlier
/// result are available — while later tasks are still executing.
///
/// This is the ordered-flush primitive behind streaming archive writers:
/// shard `i` hits the sink the moment shards `0..=i` have finished
/// encoding, overlapping encode compute with sink I/O. The consume order
/// (and therefore anything `consume` writes) is independent of the thread
/// count; with a limit of 1 the call degenerates to a perfectly streamed
/// `for idx { consume(idx, f(idx)) }`.
///
/// Panics from `f` propagate to the caller after all claimed tasks have
/// settled; a panic from `consume` itself also waits for in-flight tasks
/// before unwinding (the closure must outlive every worker dereference).
pub fn parallel_map_consume<T: Send>(
    n_tasks: usize,
    f: impl Fn(usize) -> T + Sync,
    mut consume: impl FnMut(usize, T),
) {
    let slots: Vec<Slot<T>> = (0..n_tasks)
        .map(|_| Slot(std::cell::UnsafeCell::new(None)))
        .collect();
    let ready: Vec<AtomicBool> = (0..n_tasks).map(|_| AtomicBool::new(false)).collect();
    let run = |idx: usize| {
        let value = f(idx);
        // SAFETY: each idx is claimed by exactly one task, so this slot
        // has a single writer; readers gate on the Release store below.
        unsafe { *slots[idx].0.get() = Some(value) };
        ready[idx].store(true, Ordering::Release);
    };
    // Hands every ready result at the front to `consume`, in index
    // order; returns how many have been consumed so far.
    let mut next_flush = 0usize;
    let mut flush = || {
        while next_flush < n_tasks && ready[next_flush].load(Ordering::Acquire) {
            // SAFETY: the Acquire load of `ready` synchronizes with the
            // task's Release store; the task has exclusive access only
            // until then, so taking the value here is race-free.
            let value = unsafe { (*slots[next_flush].0.get()).take() }.expect("ready slot");
            consume(next_flush, value);
            next_flush += 1;
        }
        next_flush
    };

    // Phase 1: participate in the batch, flushing the ready prefix
    // between claimed tasks.
    let in_flight = dispatch(n_tasks, &run, true, |batch| {
        while batch.execute_one() {
            flush();
        }
    });
    let Some(in_flight) = in_flight else {
        for idx in 0..n_tasks {
            consume(idx, f(idx));
        }
        return;
    };
    // Phase 2: the cursor is exhausted; flush remaining results as the
    // in-flight workers land them (every completion notifies done_cv
    // because the batch was built with notify_each).
    let batch = &in_flight.batch;
    loop {
        let next = flush();
        if next == n_tasks {
            break;
        }
        if batch.done.load(Ordering::Acquire) >= n_tasks {
            // Every task has finished, so every result is visible now: take
            // any that landed after the flush above. What stays unflushed
            // had its task panic, re-raised below.
            flush();
            break;
        }
        let mut g = batch.done_lock.lock().unwrap();
        while batch.done.load(Ordering::Acquire) < n_tasks && !ready[next].load(Ordering::Acquire) {
            g = batch.done_cv.wait(g).unwrap();
        }
    }
    in_flight.join();
}

struct SendPtr<T>(*mut T);
// SAFETY: SendPtr is a capture aid for `parallel_map_consume`; the pointee
// outlives the batch (owned by the submitting frame) and every task
// dereferences a distinct element, so moving the pointer across threads
// cannot alias live accesses.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: shared references to SendPtr only hand out the raw pointer via
// `get`; all dereferences stay disjoint per task as above.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so edition-2021 precise
    /// closure capture grabs the Sync wrapper, not the raw pointer.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into disjoint fixed-size chunks and hands each task
/// `(chunk_index, start_offset, &mut chunk)`. The chunks partition the
/// slice, so the aliasing is race-free even though tasks run in parallel.
pub fn parallel_chunks_mut<T: Send>(
    data: &mut [T],
    chunk: usize,
    f: impl Fn(usize, usize, &mut [T]) + Sync,
) {
    let n = data.len();
    let chunk = chunk.max(1);
    let base = SendPtr(data.as_mut_ptr());
    run_tasks(chunk_count(n, chunk), &|c| {
        let start = c * chunk;
        let len = (start + chunk).min(n) - start;
        // SAFETY: tasks receive disjoint subslices of `data`, which
        // outlives this call because run_tasks blocks until completion.
        let part = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
        f(c, start, part);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn resolve_threads_priority_order() {
        // Explicit env var wins.
        assert_eq!(resolve_threads(Some("6"), Some(2)), 6);
        assert_eq!(resolve_threads(Some(" 3 "), None), 3);
        // Bad env values fall through to the OS count, not to 1.
        assert_eq!(resolve_threads(Some("zero"), Some(8)), 8);
        assert_eq!(resolve_threads(Some("0"), Some(8)), 8);
        // OS failure yields the explicit default, not silent serial.
        assert_eq!(resolve_threads(None, None), DEFAULT_THREADS);
        assert_eq!(resolve_threads(Some("bad"), None), DEFAULT_THREADS);
        // Clamped at the ceiling.
        assert_eq!(resolve_threads(Some("100000"), None), MAX_THREADS);
    }

    #[test]
    fn parallel_for_runs_every_index_once() {
        for limit in [1, 2, 8] {
            with_thread_limit(limit, || {
                let counts: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
                parallel_for(counts.len(), |i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                });
                assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            });
        }
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        for limit in [1, 3, 8] {
            let out = with_thread_limit(limit, || parallel_map(100, |i| i * i));
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn chunk_boundaries_are_thread_independent() {
        for limit in [1, 2, 8] {
            let chunks = with_thread_limit(limit, || {
                parallel_map_chunks(103, 10, |c, r| (c, r.start, r.end))
            });
            let expected: Vec<_> = (0..11)
                .map(|c| (c, c * 10, (c * 10 + 10).min(103)))
                .collect();
            assert_eq!(chunks, expected);
        }
    }

    #[test]
    fn chunks_mut_partitions_slice() {
        for limit in [1, 2, 8] {
            with_thread_limit(limit, || {
                let mut data = vec![0u32; 101];
                parallel_chunks_mut(&mut data, 7, |c, start, part| {
                    for (k, v) in part.iter_mut().enumerate() {
                        *v = (start + k) as u32 * 3 + c as u32;
                    }
                });
                for (i, &v) in data.iter().enumerate() {
                    let c = i / 7;
                    assert_eq!(v, i as u32 * 3 + c as u32);
                }
            });
        }
    }

    #[test]
    fn nested_calls_run_inline_and_complete() {
        let total = AtomicU64::new(0);
        with_thread_limit(4, || {
            parallel_for(8, |i| {
                // Nested call from (possibly) a pool worker: must not
                // deadlock and must still cover all indexes.
                let inner = parallel_map(5, |j| (i * 5 + j) as u64);
                total.fetch_add(inner.iter().sum::<u64>(), Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..40).sum::<u64>());
    }

    #[test]
    fn with_thread_limit_restores_previous_value() {
        assert_eq!(THREAD_LIMIT.with(Cell::get), None);
        with_thread_limit(2, || {
            assert_eq!(effective_threads(), 2);
            with_thread_limit(5, || assert_eq!(effective_threads(), 5));
            assert_eq!(effective_threads(), 2);
        });
        assert_eq!(THREAD_LIMIT.with(Cell::get), None);
    }

    #[test]
    fn panics_propagate_to_caller() {
        for limit in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_thread_limit(limit, || {
                    parallel_for(16, |i| {
                        if i == 11 {
                            panic!("task 11 exploded");
                        }
                    });
                });
            });
            let payload = caught.expect_err("panic must propagate");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("task 11 exploded"), "got: {msg}");
        }
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let _ = std::panic::catch_unwind(|| {
            with_thread_limit(4, || parallel_for(8, |_| panic!("boom")));
        });
        // Subsequent batches on the same pool still complete.
        let out = with_thread_limit(4, || parallel_map(64, |i| i + 1));
        assert_eq!(out.len(), 64);
        assert_eq!(out[63], 64);
    }

    #[test]
    fn map_consume_flushes_in_ascending_order() {
        for limit in [1, 2, 8] {
            with_thread_limit(limit, || {
                let mut seen = Vec::new();
                parallel_map_consume(
                    97,
                    |i| i * 3,
                    |idx, value| {
                        assert_eq!(value, idx * 3);
                        seen.push(idx);
                    },
                );
                assert_eq!(seen, (0..97).collect::<Vec<_>>());
            });
        }
    }

    #[test]
    fn map_consume_runs_consume_on_calling_thread() {
        let caller = std::thread::current().id();
        with_thread_limit(8, || {
            parallel_map_consume(
                32,
                |i| i,
                |_, _| assert_eq!(std::thread::current().id(), caller),
            );
        });
    }

    #[test]
    fn map_consume_overlaps_consume_with_later_tasks() {
        // With the streaming contract, early results must be flushable
        // before the last task finishes. Hold task N-1 hostage until
        // index 0 has been consumed; a non-overlapping implementation
        // (consume only after all tasks) would deadlock here.
        let n = 16;
        let zero_consumed = Arc::new(AtomicBool::new(false));
        let zc = Arc::clone(&zero_consumed);
        with_thread_limit(4, || {
            parallel_map_consume(
                n,
                move |i| {
                    if i == n - 1 {
                        let mut spins = 0u64;
                        while !zc.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                            spins += 1;
                            // The caller may have claimed task N-1 itself
                            // (then index 0 flushes right after); don't
                            // hang forever in that serial-claim ordering.
                            if spins > 50_000_000 {
                                break;
                            }
                        }
                    }
                    i
                },
                |idx, _| {
                    if idx == 0 {
                        zero_consumed.store(true, Ordering::Release);
                    }
                },
            );
        });
    }

    #[test]
    fn map_consume_propagates_task_panics() {
        for limit in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                with_thread_limit(limit, || {
                    parallel_map_consume(
                        16,
                        |i| {
                            if i == 9 {
                                panic!("encode 9 exploded");
                            }
                            i
                        },
                        |_, _| {},
                    );
                });
            });
            assert!(caught.is_err(), "panic must propagate at limit {limit}");
        }
        // The pool must remain usable afterwards.
        let out = with_thread_limit(4, || parallel_map(32, |i| i));
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn map_consume_zero_and_single() {
        parallel_map_consume(0, |i| i, |_, _| panic!("must not run"));
        let mut seen = Vec::new();
        parallel_map_consume(1, |i| i + 41, |idx, v| seen.push((idx, v)));
        assert_eq!(seen, vec![(0, 41)]);
    }

    #[test]
    fn zero_and_single_task_edge_cases() {
        parallel_for(0, |_| panic!("must not run"));
        assert_eq!(parallel_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, |i| i + 7), vec![7]);
        assert_eq!(chunk_count(0, 8), 0);
        assert_eq!(chunk_count(1, 8), 1);
        assert_eq!(chunk_count(16, 8), 2);
        assert_eq!(chunk_count(17, 8), 3);
        assert_eq!(chunk_count(5, 0), 5); // chunk clamped to 1
    }
}
