//! Data-parallel helpers backed by a **persistent worker pool**, optionally
//! partitioned into **shards**.
//!
//! The original implementation spawned fresh `std::thread::scope` threads on
//! every kernel call; at streaming-video rates (hundreds of GEMMs per frame)
//! thread spawn/join dominated small-layer cost. This module keeps a
//! process-wide pool of persistent workers and dispatches jobs to them with
//! one lock round-trip.
//!
//! # Threading model
//!
//! - The pool is created lazily on first parallel dispatch and lives for the
//!   process. Between jobs a worker **spins briefly, then parks**: it polls
//!   a published-epoch hint for a bounded budget (`SPIN_BUDGET`, on the
//!   order of 100 µs) and only then waits on a condvar, and the submitter
//!   polls the unfinished-chunk count the same way before it waits for the
//!   job to drain. A base-DNN pass is ~45 kernel dispatches a few tens of
//!   microseconds apart; parking between each pair costs a futex sleep and
//!   wake per layer, which (inside a VM especially) is longer than the
//!   layer's share of work. Past the budget the worker parks, so an idle
//!   pool still costs nothing but its stacks.
//! - Spinning applies only where it cannot steal a core from the thread
//!   doing the work: a pool or shard spins iff it has no more threads than
//!   the machine has cores (observed once, at construction). A shard wider
//!   than the machine — or any shard on a one-core box — parks immediately,
//!   as before.
//! - The hint is only a hint. Both polled values are plain atomics mirrored
//!   from the lock-protected state; they end a spin early and decide
//!   nothing. A worker parks, claims a chunk, or exits only on what it reads
//!   under the state lock, and the submitter returns only on the locked
//!   pending count — so a stale or missed hint costs latency, never a chunk.
//! - [`set_threads`] bounds how many *chunks* a kernel is split into, not the
//!   pool size: the split is a deterministic function of the work size and
//!   the configured thread count, so results are **bit-for-bit identical**
//!   for any worker count — including when fewer workers than chunks execute
//!   the job (chunks are claimed dynamically, but each chunk's output range
//!   is fixed up front).
//! - One job runs at a time per pool or shard (callers serialize on a
//!   submission lock); the submitting thread participates in chunk
//!   execution, so dispatch never deadlocks even with zero workers.
//! - Kernels calling kernels (re-entrant dispatch from a worker) degrade to
//!   serial execution of the inner kernel rather than deadlocking.
//!
//! # Sharding
//!
//! Multi-stream workloads want *independent* kernels running concurrently:
//! stream A's GEMM must not serialize behind stream B's. A [`PoolShard`] is
//! a fixed worker subset with its own dispatch state; code run inside
//! [`PoolShard::run`] sends its kernels to that shard (and splits work by
//! the shard's width instead of the global [`set_threads`] setting), so any
//! number of shards execute kernels concurrently while the determinism
//! contract is preserved: the chunk split is still a pure function of the
//! work size and the effective thread count, and every kernel accumulates
//! each output element in a fixed order, so results are bit-for-bit
//! identical for **any** shard width — a sharded run reproduces the global
//! pool (which is simply the one-shard case) exactly.
//!
//! A shard also runs **whole jobs** side by side: [`PoolShard::run_items`]
//! hands each of a handful of independent items (a camera stream's
//! inference pass, say) to its own worker, and the kernels an item
//! dispatches run serially inside it — same bits, coarser grain. An item
//! learns which of the shard's threads runs it from [`slot`], so a caller
//! can keep one scratch per thread rather than one per item.
//!
//! Worker panics are caught, forwarded, and re-raised on the submitting
//! thread after the job drains, so a poisoned job cannot wedge the pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the number of worker threads used by tensor kernels.
///
/// `0` (the default) means "use all available parallelism". `1` forces
/// serial execution. Any value yields bit-identical kernel results; the
/// setting only trades latency for core usage.
///
/// Inside a [`PoolShard::run`] scope the shard's width takes precedence
/// over this global setting.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// Number of chunks kernels will split work into: the enclosing shard's
/// width inside [`PoolShard::run`], otherwise the global [`set_threads`]
/// setting.
pub fn threads() -> usize {
    if let Some(ctx) = CURRENT_SHARD.with(|c| c.get()) {
        return ctx.width;
    }
    match THREADS.load(Ordering::Relaxed) {
        0 => hardware_parallelism(),
        n => n,
    }
}

/// Cached `std::thread::available_parallelism()` — the std call re-reads
/// cgroup quota files (and allocates) on every invocation, which would put
/// filesystem traffic in every kernel dispatch.
fn hardware_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Minimum per-chunk work (in "items", callers choose the unit) below which
/// [`parallel_chunks`] stays serial.
const MIN_ITEMS_PER_THREAD: usize = 8;

/// Minimum output elements before [`parallel_rows_mut`] dispatches to the
/// pool. Dispatch costs a couple of lock round-trips (~1 µs); tiny layers
/// (the microclassifier tails) are cheaper than that, so they must stay
/// serial or streaming becomes dispatch-bound.
const MIN_PARALLEL_ELEMS: usize = 32 * 1024;

/// How long a worker polls for the next job (and a submitter for its last
/// chunk) before parking on the condvar. A duration, not a poll count: one
/// `spin_loop` poll is 11 ns on the box this was tuned on and ten times that
/// on cores with a long `pause`. The clock is read once per
/// [`POLLS_PER_CLOCK_READ`] polls.
///
/// Chosen by a sweep on ffbench `event_storm` (2 cores, `--seconds 12`,
/// seed 7, three runs each; 800 frames/s at the parent, which never spun):
/// 15 / 100 / 400 µs read 1060 / 1165 / 1190 frames/s. 15 µs expires in the
/// gap between two layers' dispatches (the serial layers in between run
/// tens of microseconds); 400 µs buys 2 % more and quadruples what an idle
/// worker burns before it parks.
const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Polls between clock reads while spinning (a read is ~30 ns, a poll ~11).
const POLLS_PER_CLOCK_READ: u32 = 64;

/// A chunk runner with its lifetime erased. Soundness: the submitting thread
/// blocks in [`Pool::run`] until every chunk has finished, so the referent
/// outlives all uses.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    chunks: usize,
}

// SAFETY: the closure behind `f` is `Sync` (required at submission), and the
// pointer never outlives the blocking `run` call that created it.
unsafe impl Send for Job {}

struct State {
    /// Monotonically increasing job id; workers use it to detect new work.
    epoch: u64,
    job: Option<Job>,
    /// Next chunk index to claim.
    next: usize,
    /// Chunks not yet finished.
    pending: usize,
    /// A chunk panicked; re-raised by the submitter once the job drains.
    panicked: bool,
    /// Workers exit at the next wakeup (set when a [`PoolShard`] drops).
    shutdown: bool,
}

impl State {
    fn idle() -> Self {
        State {
            epoch: 0,
            job: None,
            next: 0,
            pending: 0,
            panicked: false,
            shutdown: false,
        }
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signaled when a new job is published.
    work: Condvar,
    /// Signaled when the last chunk of a job finishes.
    done: Condvar,
    /// Mirror of `State::epoch`, stored under the state lock at publication.
    /// Spinning workers poll it; nothing is decided on it (see the module
    /// docs), so `Relaxed` suffices — the lock orders the state it mirrors.
    epoch_hint: AtomicU64,
    /// Mirror of `State::pending`, stored under the state lock; the
    /// submitter polls it before waiting on `done`. Same contract.
    pending_hint: AtomicUsize,
    /// Whether this pool's threads spin before parking: true iff the pool
    /// (workers plus submitter) is no wider than the machine.
    spins: bool,
    /// Whether chunks and items record their run time in `busy_nanos`
    /// (set by [`PoolShard::bind_obs`]).
    timed: AtomicBool,
    /// Nanoseconds this pool's threads spent inside chunks and items since
    /// the enclosing [`PoolShard`] scope last folded it into its
    /// [`ShardObs::busy_nanos`].
    busy_nanos: AtomicU64,
    /// Times a worker went to sleep on `work`, so the tests can tell a job
    /// picked up while spinning from one picked up after parking.
    #[cfg(test)]
    parks: AtomicUsize,
}

impl Shared {
    /// Dispatch state for a pool of `width` threads (submitter included).
    fn new(width: usize) -> Self {
        Shared {
            state: Mutex::new(State::idle()),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch_hint: AtomicU64::new(0),
            pending_hint: AtomicUsize::new(0),
            spins: width > 1 && width <= hardware_parallelism(),
            timed: AtomicBool::new(false),
            busy_nanos: AtomicU64::new(0),
            #[cfg(test)]
            parks: AtomicUsize::new(0),
        }
    }

    /// Polls `settled` for up to [`SPIN_BUDGET`]; a no-op on a pool that
    /// does not spin. Returning proves nothing — callers re-check under the
    /// state lock.
    fn spin_until(&self, settled: impl Fn() -> bool) {
        if !self.spins {
            return;
        }
        let t0 = Instant::now();
        loop {
            for _ in 0..POLLS_PER_CLOCK_READ {
                if settled() {
                    return;
                }
                std::hint::spin_loop();
            }
            if t0.elapsed() >= SPIN_BUDGET {
                return;
            }
        }
    }
}

struct Pool {
    shared: &'static Shared,
    /// Serializes job submission (one job in flight at a time).
    submit: Mutex<()>,
}

/// The shard context a thread dispatches through, installed for the span of
/// [`PoolShard::run`]. Raw pointers because a thread-local cannot hold a
/// borrow; validity is guaranteed by `run` borrowing the shard for the whole
/// scope and dispatch only happening on the installing thread.
#[derive(Clone, Copy)]
struct ShardCtx {
    shared: *const Shared,
    submit: *const Mutex<()>,
    width: usize,
}

thread_local! {
    /// True on pool workers; re-entrant dispatch falls back to serial.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// The enclosing shard, if dispatch is currently scoped to one.
    static CURRENT_SHARD: std::cell::Cell<Option<ShardCtx>> = const { std::cell::Cell::new(None) };
    /// This thread's [`slot`]: its worker index + 1 on a pool worker, 0 on
    /// the thread inside a [`PoolShard`] scope it entered.
    static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// This thread's run time is already being added to a pool's busy
    /// count (an item's kernels run inside the item's timer).
    static TIMING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The calling thread's slot in the [`PoolShard`] it is working for: 0 on
/// the thread that entered the shard's scope ([`PoolShard::run`],
/// [`PoolShard::run_items`]), `1..width` on the shard's workers.
///
/// Concurrently running items of one [`PoolShard::run_items`] call always
/// see distinct slots — each thread runs one item at a time, and an item
/// runs on the submitting thread or on one of the shard's own workers — so
/// scratch indexed by the slot (one per unit of [`PoolShard::width`]) is
/// never contended, and scratch memory scales with the pool's width rather
/// than with the number of items.
pub fn slot() -> usize {
    SLOT.with(|s| s.get())
}

/// Runs `f`, adding its wall time to `shared`'s busy count when the pool is
/// timed and this thread is not already being timed.
fn busy<R>(shared: &Shared, f: impl FnOnce() -> R) -> R {
    if !shared.timed.load(Ordering::Relaxed) || TIMING.with(|t| t.replace(true)) {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    let nanos = t0.elapsed().as_nanos() as u64;
    shared.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
    TIMING.with(|t| t.set(false));
    r
}

static POOL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    fn get() -> &'static Pool {
        POOL.get_or_init(|| {
            let shared: &'static Shared = Box::leak(Box::new(Shared::new(hardware_parallelism())));
            // One worker per core beyond the submitting thread. Workers are
            // detached; they park forever once the process stops submitting.
            for i in 0..hardware_parallelism() - 1 {
                std::thread::Builder::new()
                    .name(format!("ff-tensor-{i}"))
                    .spawn(move || {
                        IS_WORKER.with(|w| w.set(true));
                        SLOT.with(|s| s.set(i + 1));
                        worker_loop(shared);
                    })
                    .expect("spawn tensor pool worker");
            }
            Pool {
                shared,
                submit: Mutex::new(()),
            }
        })
    }
}

/// Runs `f(0..chunks)` across the workers parked on `shared`, blocking until
/// every chunk is done. The submitting thread claims chunks too. `submit`
/// serializes jobs within this pool/shard.
fn submit_and_drain(
    shared: &Shared,
    submit: &Mutex<()>,
    chunks: usize,
    f: &(dyn Fn(usize) + Sync),
) {
    let _guard = submit.lock().unwrap_or_else(|e| e.into_inner());
    let epoch = {
        let mut st = shared.state.lock().unwrap();
        // SAFETY: this function blocks until `pending == 0`, so the erased
        // lifetime outlives every dereference in `drain_chunks`.
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<_, *const (dyn Fn(usize) + Sync)>(f) };
        st.epoch += 1;
        st.job = Some(Job { f: erased, chunks });
        st.next = 0;
        st.pending = chunks;
        shared.pending_hint.store(chunks, Ordering::Relaxed);
        shared.epoch_hint.store(st.epoch, Ordering::Relaxed);
        shared.work.notify_all();
        st.epoch
    };
    // The submitter executes chunks too; mark it in-dispatch so a kernel
    // that itself dispatches (now or in some future fused op) degrades
    // to serial instead of re-locking the submit mutex and deadlocking.
    IS_WORKER.with(|w| w.set(true));
    drain_chunks(shared, epoch);
    IS_WORKER.with(|w| w.set(false));
    // A worker is typically still inside the last chunk it claimed; it is
    // due within a chunk's run time, which is shorter than a futex sleep.
    shared.spin_until(|| shared.pending_hint.load(Ordering::Relaxed) == 0);
    let mut st = shared.state.lock().unwrap();
    while st.pending > 0 {
        st = shared.done.wait(st).unwrap();
    }
    st.job = None;
    let poisoned = std::mem::replace(&mut st.panicked, false);
    drop(st);
    if poisoned {
        panic!("ff-tensor pool worker panicked during parallel kernel");
    }
}

/// Claims and executes chunks of the job with id `epoch` until none remain.
fn drain_chunks(shared: &Shared, epoch: u64) {
    loop {
        let (f, i) = {
            let mut st = shared.state.lock().unwrap();
            if st.epoch != epoch {
                return;
            }
            match st.job {
                Some(job) if st.next < job.chunks => {
                    let i = st.next;
                    st.next += 1;
                    (job.f, i)
                }
                _ => return,
            }
        };
        // SAFETY: the submitter blocks until `pending == 0`, keeping the
        // closure alive for the duration of this call. The busy count is
        // added before `pending` drops under the state lock, and the
        // submitter reads it only after seeing `pending == 0` under that
        // lock, so the lock orders the `Relaxed` add before the read.
        let result = busy(shared, || {
            catch_unwind(AssertUnwindSafe(|| unsafe { (*f)(i) }))
        });
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.pending -= 1;
        shared.pending_hint.store(st.pending, Ordering::Relaxed);
        if st.pending == 0 {
            shared.done.notify_all();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        shared.spin_until(|| shared.epoch_hint.load(Ordering::Relaxed) != seen);
        let epoch = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    break;
                }
                #[cfg(test)]
                shared.parks.fetch_add(1, Ordering::Relaxed);
                st = shared.work.wait(st).unwrap();
            }
            st.epoch
        };
        // A job the submitter drained alone before this worker looked is
        // still *seen*: `drain_chunks` finds nothing to claim and the worker
        // goes back to spinning for the next one instead of parking on a
        // stale epoch.
        seen = epoch;
        drain_chunks(shared, epoch);
    }
}

/// Dispatches `chunks` invocations of `f` (each receiving its chunk index)
/// across the enclosing shard (if any) or the global pool, or serially when
/// parallelism wouldn't pay.
fn run_chunked(chunks: usize, f: &(dyn Fn(usize) + Sync)) {
    if chunks == 0 {
        return;
    }
    if chunks == 1 || IS_WORKER.with(|w| w.get()) {
        for i in 0..chunks {
            f(i);
        }
        return;
    }
    if let Some(ctx) = CURRENT_SHARD.with(|c| c.get()) {
        // SAFETY: the context is installed by `PoolShard::run`, which
        // borrows the shard for the whole scope; the pointers stay valid
        // for every dispatch made within it, and only the installing
        // thread reads them.
        let (shared, submit) = unsafe { (&*ctx.shared, &*ctx.submit) };
        submit_and_drain(shared, submit, chunks, f);
        return;
    }
    let pool = Pool::get();
    submit_and_drain(pool.shared, &pool.submit, chunks, f);
}

/// A fixed worker subset of the persistent pool with independent dispatch
/// state: kernels scoped to different shards execute concurrently instead
/// of serializing on the global submission lock.
///
/// A shard of width `w` owns `w - 1` dedicated parked workers (the
/// submitting thread participates in every job, exactly like the global
/// pool), and code inside [`PoolShard::run`] splits work into `w` chunks.
/// Dropping the shard shuts its workers down.
///
/// The global API is the one-shard case: results are bit-for-bit identical
/// whether a kernel runs on the global pool at any [`set_threads`] setting
/// or on a shard of any width, because the chunk split is deterministic and
/// every kernel fixes each output element's accumulation order up front.
pub struct PoolShard {
    shared: Arc<Shared>,
    /// Serializes job submission within this shard.
    submit: Mutex<()>,
    width: usize,
    obs: Option<ShardObs>,
}

/// Busy-accounting hooks a runtime can bind to a shard with
/// [`PoolShard::bind_obs`].
///
/// `jobs` counts [`PoolShard::run`] entries and [`PoolShard::run_items`]
/// items — the scheduler's dispatch count, a pure function of virtual time
/// and therefore deterministic across thread counts and shard widths.
/// `busy_nanos` is **observability only** (register it volatile); policies
/// must never read it.
#[derive(Debug, Clone)]
pub struct ShardObs {
    /// Jobs dispatched through the shard (deterministic).
    pub jobs: ff_obs::Counter,
    /// **Core occupancy** (volatile): the sum over the shard's threads —
    /// the submitting thread and every worker — of the wall-clock
    /// nanoseconds each spent inside a [`PoolShard::run_items`] item or a
    /// kernel chunk dispatched to the shard. Time inside an item counts
    /// once, whichever of its kernels' chunks it ran itself; serial code in
    /// a [`PoolShard::run`] scope outside any chunk counts nothing. Divided
    /// by `wall × width` it reads the fraction of the shard's cores that
    /// were doing work. Folded in when each scope ends.
    pub busy_nanos: ff_obs::Counter,
}

impl ShardObs {
    /// Fresh, detached cells (adopt them into a registry to export).
    pub fn new() -> Self {
        ShardObs {
            jobs: ff_obs::Counter::new(),
            busy_nanos: ff_obs::Counter::new(),
        }
    }
}

impl Default for ShardObs {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for PoolShard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PoolShard(width {})", self.width)
    }
}

impl PoolShard {
    /// Creates a shard of the given width (clamped to ≥ 1), spawning its
    /// `width - 1` dedicated workers.
    pub fn new(width: usize) -> Self {
        let width = width.max(1);
        let shared = Arc::new(Shared::new(width));
        for i in 0..width - 1 {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ff-shard-{i}"))
                .spawn(move || {
                    IS_WORKER.with(|w| w.set(true));
                    SLOT.with(|s| s.set(i + 1));
                    worker_loop(&sh);
                })
                .expect("spawn shard worker");
        }
        PoolShard {
            shared,
            submit: Mutex::new(()),
            width,
            obs: None,
        }
    }

    /// Binds busy-accounting cells to this shard (see [`ShardObs`] for what
    /// each subsequent scope adds to them). Unbound shards pay nothing.
    pub fn bind_obs(&mut self, obs: ShardObs) {
        self.shared.timed.store(true, Ordering::Relaxed);
        self.obs = Some(obs);
    }

    /// The shard's thread budget (chunk count for kernels scoped to it).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Runs `f` with every tensor-kernel dispatch inside scoped to this
    /// shard: work splits into [`Self::width`] chunks executed by the
    /// shard's workers (plus the calling thread), concurrently with other
    /// shards. Nested scopes restore the previous shard on exit, including
    /// on panic.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        self.scoped(1, f)
    }

    /// [`Self::run`] accounted as `jobs` jobs in the bound [`ShardObs`].
    /// The calling thread is slot 0 for the span of the scope.
    fn scoped<R>(&self, jobs: u64, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<ShardCtx>, usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                CURRENT_SHARD.with(|c| c.set(self.0));
                SLOT.with(|s| s.set(self.1));
            }
        }
        let ctx = ShardCtx {
            shared: &*self.shared,
            submit: &self.submit,
            width: self.width,
        };
        let _restore = Restore(
            CURRENT_SHARD.with(|c| c.replace(Some(ctx))),
            SLOT.with(|s| s.replace(0)),
        );
        let Some(obs) = &self.obs else {
            return f();
        };
        // The job count is driven by the (single-threaded) scheduler, so it
        // is deterministic; only the wall-clock payload varies run to run.
        obs.jobs.add(jobs);
        let r = f();
        // Every chunk and item of the scope has finished and added its time.
        obs.busy_nanos
            .add(self.shared.busy_nanos.swap(0, Ordering::Relaxed));
        r
    }

    /// Runs `f(i, &mut items[i])` for every item as **one pool job per
    /// item** (unlike [`parallel_chunks`], which stays serial up to
    /// `MIN_ITEMS_PER_THREAD` items — right for cheap elements, wrong for
    /// a handful of whole per-stream inference passes), returning each
    /// item's result in item order.
    ///
    /// Every item catches its own unwind, so a panicking item yields `Err`
    /// in its slot while the other items' results and the shard stay
    /// intact — the isolation boundary the edge runtime puts around each
    /// stream's inference stage.
    ///
    /// Kernels dispatched from inside an item run serially on the thread
    /// that claimed it (the submitting thread counts as a worker while it
    /// drains), and kernel results are width-invariant, so an item computes
    /// the same bits here as it would alone on the shard. A single item is
    /// simply [`Self::run`]: it keeps the kernel-level fan-out. Inside an
    /// item, [`slot`] names the thread running it.
    pub fn run_items<T: Send, R: Send>(
        &self,
        items: &mut [T],
        f: impl Fn(usize, &mut T) -> R + Sync,
    ) -> Vec<std::thread::Result<R>> {
        let n = items.len();
        let mut out: Vec<Option<std::thread::Result<R>>> = (0..n).map(|_| None).collect();
        let (items_base, out_base) = (items.as_mut_ptr() as usize, out.as_mut_ptr() as usize);
        self.scoped(n as u64, || {
            run_chunked(n, &|i| {
                // SAFETY: chunk `i` is claimed exactly once and touches only
                // `items[i]` and `out[i]`; the dispatcher blocks until every
                // chunk finishes, so both borrows outlive all uses.
                let (item, slot) = unsafe {
                    (
                        &mut *(items_base as *mut T).add(i),
                        &mut *(out_base as *mut Option<std::thread::Result<R>>).add(i),
                    )
                };
                *slot = Some(busy(&self.shared, || {
                    catch_unwind(AssertUnwindSafe(|| f(i, item)))
                }));
            })
        });
        out.into_iter()
            .map(|r| r.expect("the dispatcher ran every item"))
            .collect()
    }

    /// Shard-scoped [`parallel_chunks`]: splits `0..n` into at most
    /// [`Self::width`] ranges executed on this shard.
    pub fn parallel_chunks(&self, n: usize, f: impl Fn(usize, usize) + Sync) {
        self.run(|| parallel_chunks(n, f));
    }

    /// Shard-scoped [`parallel_rows_mut`]: row blocks execute on this shard,
    /// split by its width.
    pub fn parallel_rows_mut(
        &self,
        out: &mut [f32],
        row_len: usize,
        f: impl Fn(usize, &mut [f32]) + Sync,
    ) {
        self.run(|| parallel_rows_mut(out, row_len, f));
    }
}

impl Drop for PoolShard {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        st.shutdown = true;
        drop(st);
        self.shared.work.notify_all();
    }
}

/// Runs `f(start, end)` over disjoint sub-ranges of `0..n`, possibly in
/// parallel.
///
/// `f` must be safe to run concurrently on disjoint ranges; each invocation
/// receives a half-open `[start, end)` range. The split is contiguous and a
/// deterministic function of `n` and [`threads`] alone, so results written
/// to disjoint output slices are identical regardless of how many workers
/// actually execute.
pub fn parallel_chunks(n: usize, f: impl Fn(usize, usize) + Sync) {
    let t = threads().min(n.div_ceil(MIN_ITEMS_PER_THREAD)).max(1);
    if t == 1 || n == 0 {
        f(0, n);
        return;
    }
    let chunk = n.div_ceil(t);
    run_chunked(n.div_ceil(chunk), &|i| {
        let start = i * chunk;
        let end = ((i + 1) * chunk).min(n);
        if start < end {
            f(start, end);
        }
    });
}

/// Splits `out` into row blocks of `row_len` elements and hands each block to
/// `f` with its starting row index — the common pattern for writing disjoint
/// rows of a matrix in parallel.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `row_len` (unless both are 0).
pub fn parallel_rows_mut(out: &mut [f32], row_len: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if row_len == 0 {
        assert!(out.is_empty(), "row_len 0 with non-empty buffer");
        return;
    }
    assert_eq!(out.len() % row_len, 0, "buffer not a whole number of rows");
    let rows = out.len() / row_len;
    let t = if out.len() < MIN_PARALLEL_ELEMS {
        1
    } else {
        threads().min(rows.div_ceil(MIN_ITEMS_PER_THREAD)).max(1)
    };
    if t == 1 {
        for (r, row) in out.chunks_mut(row_len).enumerate() {
            f(r, row);
        }
        return;
    }
    let chunk_rows = rows.div_ceil(t);
    let base = out.as_mut_ptr() as usize;
    run_chunked(rows.div_ceil(chunk_rows), &|i| {
        let start = i * chunk_rows;
        let end = ((i + 1) * chunk_rows).min(rows);
        for r in start..end {
            // SAFETY: each chunk touches a disjoint row range of `out`, and
            // the dispatcher blocks until all chunks finish.
            let row = unsafe {
                std::slice::from_raw_parts_mut(
                    (base + r * row_len * std::mem::size_of::<f32>()) as *mut f32,
                    row_len,
                )
            };
            f(r, row);
        }
    });
}

/// Splits `out` into at most `t` contiguous blocks of whole rows and hands
/// each block to `f` with its starting row index. The split depends only on
/// the row count and `t`, never on worker scheduling, so any kernel whose
/// per-element result is independent of the block partition is bit-for-bit
/// deterministic across thread counts.
///
/// # Panics
///
/// Panics if `out.len()` is not a multiple of `row_len` (unless both are 0).
pub fn parallel_row_blocks_mut(
    out: &mut [f32],
    row_len: usize,
    t: usize,
    f: impl Fn(usize, &mut [f32]) + Sync,
) {
    row_blocks_indexed(out, row_len, t, |_, start, block| f(start, block));
}

/// [`parallel_row_blocks_mut`] with working memory per block: `scratch` is
/// cut into `t` equal parts, and each block comes with a part no other
/// block gets — so a kernel that needs a buffer per thread takes all of
/// them from its caller once.
///
/// # Panics
///
/// As [`parallel_row_blocks_mut`], or if `t == 0` or `scratch` is not `t`
/// equal parts.
pub fn parallel_row_blocks_scratch_mut(
    out: &mut [f32],
    row_len: usize,
    t: usize,
    scratch: &mut [f32],
    f: impl Fn(usize, &mut [f32], &mut [f32]) + Sync,
) {
    assert!(
        t > 0 && scratch.len().is_multiple_of(t),
        "scratch is not {t} equal parts"
    );
    let part = scratch.len() / t;
    let base = scratch.as_mut_ptr() as usize;
    row_blocks_indexed(out, row_len, t, |i, start, block| {
        // SAFETY: block `i < t` is handed out once, so part `i` of
        // `scratch` is borrowed by this call alone, and the dispatcher
        // blocks until every block is done.
        let part = unsafe {
            std::slice::from_raw_parts_mut(
                (base + i * part * std::mem::size_of::<f32>()) as *mut f32,
                part,
            )
        };
        f(start, block, part);
    });
}

/// The split behind [`parallel_row_blocks_mut`]: `f(i, start, block)` for
/// the `i`-th of at most `t` blocks.
fn row_blocks_indexed(
    out: &mut [f32],
    row_len: usize,
    t: usize,
    f: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    if row_len == 0 {
        assert!(out.is_empty(), "row_len 0 with non-empty buffer");
        return;
    }
    assert_eq!(out.len() % row_len, 0, "buffer not a whole number of rows");
    let rows = out.len() / row_len;
    let t = t.clamp(1, rows.max(1));
    if t == 1 {
        f(0, 0, out);
        return;
    }
    let block_rows = rows.div_ceil(t);
    let base = out.as_mut_ptr() as usize;
    run_chunked(rows.div_ceil(block_rows), &|i| {
        let start = i * block_rows;
        let end = ((i + 1) * block_rows).min(rows);
        // SAFETY: blocks cover disjoint row ranges, and the dispatcher
        // blocks until every chunk finishes.
        let block = unsafe {
            std::slice::from_raw_parts_mut(
                (base + start * row_len * std::mem::size_of::<f32>()) as *mut f32,
                (end - start) * row_len,
            )
        };
        f(i, start, block);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_range_exactly_once() {
        use std::sync::Mutex;
        let hits = Mutex::new(vec![0u32; 1000]);
        parallel_chunks(1000, |a, b| {
            let mut h = hits.lock().unwrap();
            for i in a..b {
                h[i] += 1;
            }
        });
        assert!(hits.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn chunks_handle_zero() {
        parallel_chunks(0, |a, b| assert_eq!((a, b), (0, 0)));
    }

    #[test]
    fn rows_mut_writes_disjoint_rows() {
        let mut buf = vec![0.0f32; 64 * 3];
        parallel_rows_mut(&mut buf, 3, |r, row| {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * 3 + c) as f32;
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn row_blocks_get_scratch_no_other_block_gets() {
        // 10 rows over 4 blocks of 3 rows (the last short), and over more
        // blocks than rows: each block stamps its part of the scratch with
        // its first row, and every row once.
        for t in [1usize, 4, 16] {
            let mut out = vec![0.0f32; 10 * 2];
            let mut scratch = vec![-1.0f32; t * 5];
            let seen = std::sync::Mutex::new(Vec::new());
            parallel_row_blocks_scratch_mut(&mut out, 2, t, &mut scratch, |r0, block, part| {
                assert_eq!(part.len(), 5);
                assert!(part.iter().all(|&v| v == -1.0), "part handed out twice");
                part.fill(r0 as f32);
                block.fill(1.0);
                seen.lock().unwrap().push(r0);
            });
            assert!(out.iter().all(|&v| v == 1.0), "t {t}: a row was missed");
            let mut stamped: Vec<usize> = scratch
                .chunks(5)
                .filter(|p| p[0] >= 0.0)
                .map(|p| p[0] as usize)
                .collect();
            stamped.sort_unstable();
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(stamped, seen, "t {t}");
        }
    }

    #[test]
    fn large_buffers_exercise_the_pool() {
        // Above MIN_PARALLEL_ELEMS so the persistent pool actually runs.
        let rows = 1024;
        let cols = 64;
        let mut buf = vec![0.0f32; rows * cols];
        parallel_rows_mut(&mut buf, cols, |r, row| {
            for (c, v) in row.iter_mut().enumerate() {
                *v = (r * cols + c) as f32;
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i as f32);
        }
    }

    #[test]
    fn repeated_dispatch_reuses_pool() {
        // Hundreds of back-to-back jobs through the same pool must all
        // complete (regression test for lost-wakeup bugs).
        for round in 0..300 {
            let mut buf = vec![0.0f32; 48 * 1024];
            parallel_rows_mut(&mut buf, 1024, |r, row| {
                row.fill(r as f32 + round as f32);
            });
            assert_eq!(buf[1024 * 7], 7.0 + round as f32);
        }
    }

    /// A seeded submitter-side pause between dispatches, straddling
    /// [`SPIN_BUDGET`]: most are shorter (the next job finds the worker
    /// still polling), some several times longer (it has parked).
    fn straddling_pause(rng: &mut u64) {
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let pause = match (*rng >> 33) % 16 {
            0..=8 => return,
            9..=11 => SPIN_BUDGET / 4,
            12..=13 => SPIN_BUDGET * 3 / 2,
            _ => SPIN_BUDGET * 4,
        };
        // Busy-wait: a sleep this short rounds up past the budget.
        let t0 = Instant::now();
        while t0.elapsed() < pause {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn back_to_back_dispatches_run_every_chunk_once_spinning_or_parked() {
        const DISPATCHES: usize = 10_000;
        const ROWS: usize = 16;
        const COLS: usize = 8;
        // Every dispatch adds a function of (dispatch, element) to a
        // running buffer through `width` row blocks, so a chunk that ran
        // twice, or not at all, or a job picked up with a stale closure,
        // changes the final bits. Every 1000th dispatch has a panicking
        // chunk instead.
        let run = |width: usize| -> (Vec<f32>, usize, bool) {
            let shard = PoolShard::new(width);
            let mut acc = vec![0.0f32; ROWS * COLS];
            let mut rng = 0x5eed_u64 + width as u64;
            for d in 0..DISPATCHES {
                straddling_pause(&mut rng);
                if d % 1000 == 999 {
                    let ran = AtomicUsize::new(0);
                    let poisoned = catch_unwind(AssertUnwindSafe(|| {
                        shard.run(|| {
                            parallel_row_blocks_mut(&mut acc, COLS, width, |r0, _| {
                                ran.fetch_add(1, Ordering::Relaxed);
                                if r0 == 0 {
                                    panic!("injected chunk panic");
                                }
                            })
                        })
                    }));
                    assert!(poisoned.is_err(), "width {width}: panic not forwarded");
                    assert_eq!(ran.load(Ordering::Relaxed), width, "width {width}");
                    continue; // ...and poisons only that job: the next one runs.
                }
                let rows_hit = AtomicUsize::new(0);
                shard.run(|| {
                    parallel_row_blocks_mut(&mut acc, COLS, width, |r0, block| {
                        for (i, v) in block.iter_mut().enumerate() {
                            *v += ((d % 251) as f32).sqrt() + (r0 * COLS + i) as f32 * 0.125;
                        }
                        rows_hit.fetch_add(block.len() / COLS, Ordering::Relaxed);
                    })
                });
                assert_eq!(
                    rows_hit.load(Ordering::Relaxed),
                    ROWS,
                    "width {width}, job {d}"
                );
            }
            let parks = shard.shared.parks.load(Ordering::Relaxed);
            (acc, parks, shard.shared.spins)
        };
        let (gold, ..) = run(1);
        for width in 2..=4 {
            let (acc, parks, spins) = run(width);
            assert_eq!(acc, gold, "width {width} diverged from the width-1 bits");
            assert_eq!(spins, width <= hardware_parallelism(), "width {width}");
            if spins {
                // Both pick-up paths ran: the long pauses parked the
                // workers, the back-to-back dispatches found them polling.
                assert!(parks > 0, "width {width}: no worker ever parked");
                assert!(
                    parks < DISPATCHES * (width - 1),
                    "width {width}: {parks} parks over {DISPATCHES} dispatches, \
                     so no job was picked up while spinning"
                );
            }
        }
    }

    #[test]
    fn a_shard_wider_than_the_machine_never_spins() {
        let cores = hardware_parallelism();
        for width in [1, 2, 4, 8, cores, cores + 1] {
            let shard = PoolShard::new(width);
            assert_eq!(
                shard.shared.spins,
                (2..=cores).contains(&width),
                "width {width} on {cores} core(s)"
            );
            // Parked-only shards behave as they always did.
            let mut buf = vec![0.0f32; 64 * 1024];
            for round in 0..50 {
                shard.parallel_rows_mut(&mut buf, 1024, |r, row| row.fill((r + round) as f32));
                assert_eq!(buf[1024 * 9], (9 + round) as f32, "width {width}");
            }
        }
    }

    #[test]
    fn an_idle_worker_parks_inside_a_run_scope() {
        // Both threads of a two-wide shard take an item (they meet at the
        // barrier); the one that is not this thread reports where the
        // kernel keeps its CPU clock.
        let shard = PoolShard::new(2);
        let barrier = std::sync::Barrier::new(2);
        let me = std::thread::current().id();
        let stats = shard.run_items(&mut [(); 2], |_, _| {
            barrier.wait();
            (std::thread::current().id() != me)
                .then(|| std::fs::read_link("/proc/thread-self").ok())
                .flatten()
        });
        let Some(task) = stats.into_iter().find_map(|s| s.unwrap()) else {
            eprintln!("no /proc/thread-self here: worker CPU time not readable, skipping");
            return;
        };
        // utime + stime of the worker, in clock ticks (fields 14 and 15;
        // the thread name in field 2 has no spaces).
        let cpu_ticks = || -> u64 {
            let stat = std::fs::read_to_string(format!("/proc/{}/stat", task.display())).unwrap();
            let mut fields = stat.split_whitespace().skip(13);
            let mut tick = || fields.next().unwrap().parse::<u64>().unwrap();
            tick() + tick()
        };
        shard.run(|| {
            let before = cpu_ticks();
            std::thread::sleep(Duration::from_secs(1));
            let burned = cpu_ticks() - before;
            // A worker spinning through the sleep would burn the whole
            // second (100 ticks at the usual 100 Hz); a parked one burns at
            // most the spin budget.
            assert!(burned <= 5, "idle worker burned {burned} ticks in 1 s");
        });
    }

    #[test]
    fn thread_count_override() {
        let before = threads();
        set_threads(1);
        assert_eq!(threads(), 1);
        set_threads(0);
        assert!(threads() >= 1);
        let _ = before;
    }

    #[test]
    fn shard_scoped_chunks_cover_range_exactly_once() {
        let shard = PoolShard::new(3);
        let hits = Mutex::new(vec![0u32; 777]);
        shard.parallel_chunks(777, |a, b| {
            let mut h = hits.lock().unwrap();
            for i in a..b {
                h[i] += 1;
            }
        });
        assert!(hits.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn shard_results_match_global_pool_bit_for_bit() {
        let fill = |buf: &mut [f32]| {
            parallel_rows_mut(buf, 512, |r, row| {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = (r as f32).sin() * (c as f32).cos();
                }
            });
        };
        set_threads(1);
        let mut gold = vec![0.0f32; 128 * 512];
        fill(&mut gold);
        set_threads(0);
        for width in [1, 2, 4] {
            let shard = PoolShard::new(width);
            let mut buf = vec![0.0f32; 128 * 512];
            shard.run(|| fill(&mut buf));
            assert_eq!(buf, gold, "shard width {width}");
        }
    }

    #[test]
    fn shard_width_overrides_global_threads_inside_scope() {
        let shard = PoolShard::new(3);
        set_threads(7);
        assert_eq!(threads(), 7);
        shard.run(|| assert_eq!(threads(), 3));
        assert_eq!(threads(), 7);
        set_threads(0);
    }

    #[test]
    fn concurrent_shards_run_independent_jobs() {
        // Two shards driven from two threads, many rounds each: jobs must
        // all complete without cross-shard interference or deadlock.
        let shards = [PoolShard::new(2), PoolShard::new(2)];
        std::thread::scope(|s| {
            for (t, shard) in shards.iter().enumerate() {
                s.spawn(move || {
                    for round in 0..200 {
                        let mut buf = vec![0.0f32; 48 * 1024];
                        shard.parallel_rows_mut(&mut buf, 1024, |r, row| {
                            row.fill((t * 1000 + r + round) as f32);
                        });
                        assert_eq!(buf[1024 * 5], (t * 1000 + 5 + round) as f32);
                    }
                });
            }
        });
    }

    #[test]
    fn run_items_hands_each_item_out_once_and_returns_results_in_order() {
        for width in 1..=4 {
            let shard = PoolShard::new(width);
            let mut items: Vec<Vec<u32>> = (0..5).map(|i| vec![i; 3]).collect();
            let sums = shard.run_items(&mut items, |i, item| {
                item.push(100 + i as u32);
                item.iter().sum::<u32>()
            });
            for (i, (item, sum)) in items.iter().zip(sums).enumerate() {
                let i = i as u32;
                assert_eq!(*item, [i, i, i, 100 + i], "width {width}");
                assert_eq!(sum.unwrap(), 4 * i + 100, "width {width}");
            }
            assert!(shard.run_items(&mut [0u8; 0], |_, _| ()).is_empty());
        }
    }

    #[test]
    fn run_items_runs_items_concurrently_and_their_kernels_serially() {
        // Two items on a two-wide shard meet at a barrier — one is claimed
        // by the submitting thread, one by the worker, or this deadlocks —
        // and every chunk of the kernel an item dispatches runs on the
        // thread that claimed the item, submitter and worker alike.
        let shard = PoolShard::new(2);
        let barrier = std::sync::Barrier::new(2);
        let mut items = [0usize; 2];
        let threads_seen = shard.run_items(&mut items, |_, _| {
            barrier.wait();
            // An explicit four-way split: a worker thread carries no shard
            // scope, so `parallel_chunks` there would split by the global
            // setting — one chunk on a one-core box.
            let nested = Mutex::new(Vec::new());
            parallel_row_blocks_mut(&mut [0.0f32; 64], 8, 4, |_, _| {
                nested.lock().unwrap().push(std::thread::current().id());
            });
            let nested = nested.into_inner().unwrap();
            assert_eq!(nested.len(), 4, "the kernel must still split its work");
            assert!(nested.iter().all(|t| *t == std::thread::current().id()));
            std::thread::current().id()
        });
        let ids: Vec<_> = threads_seen.into_iter().map(|r| r.unwrap()).collect();
        assert_ne!(ids[0], ids[1]);
        // A lone item is `run`: its kernels fan out across the shard.
        let fanned = shard.run_items(&mut [0usize], |_, _| {
            let nested = Mutex::new(std::collections::HashSet::new());
            let both = std::sync::Barrier::new(2);
            parallel_chunks(1000, |_, _| {
                both.wait();
                nested.lock().unwrap().insert(std::thread::current().id());
            });
            nested.into_inner().unwrap().len()
        });
        assert_eq!(fanned[0].as_ref().unwrap(), &2);
    }

    #[test]
    fn busy_nanos_sums_each_threads_time_inside_items_and_chunks() {
        let mut shard = PoolShard::new(2);
        let obs = ShardObs::new();
        shard.bind_obs(obs.clone());
        let pause = Duration::from_millis(20);
        let p = pause.as_nanos() as u64;
        // Serial code in a scope, outside any item or chunk: no occupancy.
        shard.run(|| std::thread::sleep(pause));
        assert_eq!(obs.jobs.get(), 1);
        assert_eq!(obs.busy_nanos.get(), 0);
        // Two items side by side: both threads' time counts, up to twice
        // the call's own wall (≈ one pause).
        let barrier = std::sync::Barrier::new(2);
        let t0 = Instant::now();
        shard.run_items(&mut [(); 2], |_, _| {
            barrier.wait();
            std::thread::sleep(pause);
        });
        let wall = t0.elapsed().as_nanos() as u64;
        let busy = obs.busy_nanos.get();
        assert_eq!(obs.jobs.get(), 3, "one `run` plus two items");
        assert!(busy >= 2 * p, "busy {busy} ns for two {p} ns items");
        assert!(
            busy <= 2 * wall,
            "busy {busy} ns on two threads in {wall} ns"
        );
        // A lone item fans its kernel out across the shard: the item counts
        // once on the submitting thread, plus the worker's chunk.
        let both = std::sync::Barrier::new(2);
        shard.run_items(&mut [()], |_, _| {
            parallel_chunks(1000, |_, _| {
                both.wait();
                std::thread::sleep(pause);
            });
        });
        let lone = obs.busy_nanos.get() - busy;
        assert!(
            lone >= 2 * p,
            "item {lone} ns: submitter and worker each {p} ns"
        );
        assert!(
            lone < 5 * p / 2,
            "item {lone} ns: its own chunk counted twice"
        );
        // Nested scopes of one shard still count each thread's time once.
        let before = obs.busy_nanos.get();
        shard.run(|| shard.run_items(&mut [(); 2], |_, _| std::thread::sleep(pause)));
        assert_eq!(obs.jobs.get(), 7);
        assert!(obs.busy_nanos.get() - before >= 2 * p);
    }

    #[test]
    fn concurrent_items_see_distinct_slots_below_the_width() {
        for width in 1..=3 {
            let shard = PoolShard::new(width);
            let barrier = std::sync::Barrier::new(width);
            let mut items = vec![0usize; width];
            let slots: Vec<usize> = shard
                .run_items(&mut items, |_, _| {
                    barrier.wait();
                    slot()
                })
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            let mut sorted = slots.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..width).collect::<Vec<_>>(), "width {width}");
            // A lone item runs on the submitting thread: slot 0.
            let lone = shard.run_items(&mut [()], |_, _| slot());
            assert_eq!(*lone[0].as_ref().unwrap(), 0, "width {width}");
        }
    }

    #[test]
    fn gemm_inside_an_item_matches_top_level_gemm_bit_for_bit() {
        let (m, k, n) = (256, 96, 160); // above the GEMM's threading threshold
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 7) % 23) as f32 * 0.37 - 3.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 5) % 19) as f32 * 0.21 - 1.5)
            .collect();
        set_threads(1);
        let mut gold = vec![0.0f32; m * n];
        crate::matmul::gemm(&a, &b, &mut gold, m, k, n);
        set_threads(0);
        for width in 1..=4 {
            let shard = PoolShard::new(width);
            for n_items in [1, 3] {
                let mut outs = vec![vec![0.0f32; m * n]; n_items];
                let done = shard.run_items(&mut outs, |_, out| {
                    crate::matmul::gemm(&a, &b, out, m, k, n);
                });
                assert!(done.iter().all(|r| r.is_ok()));
                for out in &outs {
                    assert_eq!(*out, gold, "width {width}, {n_items} item(s)");
                }
            }
        }
    }

    #[test]
    fn shard_survives_panicking_items_and_stays_deterministic() {
        let shard = PoolShard::new(2);
        let work = |shard: &PoolShard| -> Vec<f32> {
            let mut buf = vec![0.0f32; 32 * 256];
            shard.parallel_rows_mut(&mut buf, 256, |r, row| {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = (r as f32).sqrt() + c as f32;
                }
            });
            buf
        };
        let gold = work(&shard);
        // A panicking item surfaces as Err in its own slot; its neighbours
        // still ran to completion.
        let mut items = [0u32; 4];
        let results = shard.run_items(&mut items, |i, item| {
            if i == 1 {
                panic!("injected stage panic");
            }
            *item = 10 + i as u32;
            i
        });
        let ok: Vec<Option<usize>> = results.into_iter().map(|r| r.ok()).collect();
        assert_eq!(ok, [Some(0), None, Some(2), Some(3)]);
        assert_eq!(items, [10, 0, 12, 13]);
        // A panic inside a *worker* mid-kernel (a lone item keeps the
        // kernel fan-out) is re-raised on the submitter and caught the
        // same way.
        let results = shard.run_items(&mut [0u8], |_, _| {
            let mut buf = vec![0.0f32; 1024 * 64];
            parallel_rows_mut(&mut buf, 64, |r, _| {
                if r == 1000 {
                    panic!("injected worker panic");
                }
            });
        });
        assert!(results[0].is_err());
        // The shard survives both: later jobs run and match bit-for-bit.
        assert_eq!(work(&shard), gold, "post-panic kernels must be identical");
        assert_eq!(
            shard.run_items(&mut [7], |_, v| *v)[0].as_ref().unwrap(),
            &7
        );
    }

    #[test]
    fn dropped_shard_workers_exit_without_wedging_new_shards() {
        for _ in 0..8 {
            let shard = PoolShard::new(2);
            let mut buf = vec![0.0f32; 64 * 1024];
            shard.parallel_rows_mut(&mut buf, 1024, |r, row| row.fill(r as f32));
            assert_eq!(buf[1024 * 3], 3.0);
            drop(shard);
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let gold: Vec<f32> = {
            set_threads(1);
            let mut buf = vec![0.0f32; 128 * 512];
            parallel_rows_mut(&mut buf, 512, |r, row| {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = (r as f32).sin() * (c as f32).cos();
                }
            });
            buf
        };
        for t in 2..=8 {
            set_threads(t);
            let mut buf = vec![0.0f32; 128 * 512];
            parallel_rows_mut(&mut buf, 512, |r, row| {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = (r as f32).sin() * (c as f32).cos();
                }
            });
            assert_eq!(buf, gold, "thread count {t}");
        }
        set_threads(0);
    }
}
