//! Offline stand-in for `rayon`, backed by a persistent pool of parked
//! OS threads.
//!
//! Exposes the parallel-iterator API subset the workspace uses —
//! `par_iter`, `par_iter_mut`, `into_par_iter`, and the `map`/`zip`/
//! `enumerate`/`with_min_len`/`reduce`/`collect`/`for_each` combinators.
//!
//! The execution model is eager: a parallel iterator materializes its
//! items up front, and `map`/`for_each` split them into ordered chunks,
//! one per thread ([`current_num_threads`], which honours the
//! `RAYON_NUM_THREADS` environment variable rayon itself reads, else the
//! host's available parallelism). Results are reassembled in input
//! order, so they are identical to rayon's for the order-preserving
//! adapters and associative reductions the workspace uses, on any thread
//! count.
//!
//! A section with more than one chunk runs on the pool:
//!
//! * `current_num_threads() - 1` workers are spawned lazily, once per
//!   process, by the first section that needs them. An idle worker parks
//!   on a `Condvar`; nothing spins. With one thread (a single-core host
//!   or `RAYON_NUM_THREADS=1`) every section runs inline and no thread is
//!   ever spawned.
//! * The calling thread runs chunk 0 itself, then claims and runs, one
//!   at a time, the chunks no worker has taken yet (a worker that wakes
//!   late finds its chunk already done), and only then waits
//!   on the section's latch for the chunks workers are still running. A
//!   thread waiting on a latch therefore waits only for chunks that are
//!   running on other threads, which keeps nested sections (a `map`
//!   inside a `for_each` item) deadlock-free.
//! * Each chunk runs under `catch_unwind`. The caller re-raises the panic
//!   of the lowest-numbered panicking chunk, after every chunk finished.
//!
//! Handing a chunk to a parked worker costs tens of microseconds of wall
//! time on a virtualised host (waking the worker, then waking the caller
//! from the latch), plus the cache misses of moving the chunk's data
//! between cores. `with_min_len(n)` keeps at least `n` items in every
//! chunk, as in rayon, so a section with fewer than `2 * n` items runs
//! inline; a call site whose work is too small to pay for the hand-off
//! passes `usize::MAX`.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

/// Threads a parallel stage may use, the caller included. Resolved once
/// per process: `RAYON_NUM_THREADS` if set and positive, otherwise the
/// host's available parallelism.
pub fn current_num_threads() -> usize {
    static CACHED: AtomicUsize = AtomicUsize::new(0);
    let cached = CACHED.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let n = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
    CACHED.store(n, Ordering::Relaxed);
    n
}

/// Lock a mutex whose data every update leaves valid (a counter, a
/// queue): no user code runs while these locks are held, and recovering
/// from poison keeps the pool's own code free of panics between handing
/// a section to the workers and waiting for it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parallel section, shared by its caller and the workers helping it.
struct Section {
    /// Runs chunk `i`. Never unwinds: the closure catches the chunk's
    /// panic and stores it with the chunk's results. It lives in the
    /// caller's frame, which a queue entry may outlive, so it is held as
    /// a raw pointer and dereferenced only in [`Section::help`], for a
    /// chunk index claimed below `chunks`.
    run: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// Next unclaimed chunk. Relaxed: the counter only hands out distinct
    /// indices; items and results travel through the chunk mutexes and
    /// the section itself through the pool's queue mutex.
    next: AtomicUsize,
    /// Chunks 1.. not yet finished: the latch the caller waits on.
    unfinished: Mutex<usize>,
    finished: Condvar,
}

// SAFETY: `run` points at a `Sync` closure, so sharing it and calling it
// from any thread is sound; a section never drops or mutates the closure,
// and dereferences the pointer only under the claim protocol documented
// at `help`. `chunks`, `next`, `unfinished` and `finished` are
// `Send + Sync` themselves.
unsafe impl Send for Section {}
unsafe impl Sync for Section {}

impl Section {
    /// Claim and run chunks until none is left unclaimed, then count the
    /// ones this thread ran off the latch.
    fn help(&self) {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                break;
            }
            // SAFETY: `i` is a claimed chunk, not yet counted off
            // `unfinished`, and `parallel_map`'s frame, which owns the
            // closure `run` points at, does not return or unwind before
            // `unfinished` reaches zero (see the lifetime erasure there).
            // A queue entry that outlives that frame finds every index
            // claimed and never reaches this line.
            unsafe { (*self.run)(i) };
            ran += 1;
        }
        if ran > 0 {
            let mut unfinished = lock(&self.unfinished);
            *unfinished -= ran;
            if *unfinished == 0 {
                self.finished.notify_one();
            }
        }
    }

    /// Block until every chunk claimed by another thread has finished.
    fn wait(&self) {
        let mut unfinished = lock(&self.unfinished);
        while *unfinished > 0 {
            unfinished = self
                .finished
                .wait(unfinished)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Sections waiting for a worker, and how many workers are parked.
struct Queue {
    sections: VecDeque<Arc<Section>>,
    parked: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// The process-wide worker pool.
struct Pool {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Workers actually spawned (spawning may fail; the caller then runs
    /// the chunks no worker takes).
    workers: AtomicUsize,
}

impl Pool {
    /// The pool, its workers spawned on first use.
    fn get() -> &'static Pool {
        static SPAWN: Once = Once::new();
        let pool = POOL.get_or_init(|| Pool {
            queue: Mutex::new(Queue {
                sections: VecDeque::new(),
                parked: 0,
            }),
            wake: Condvar::new(),
            workers: AtomicUsize::new(0),
        });
        SPAWN.call_once(|| {
            let mut spawned = 0;
            for i in 1..current_num_threads() {
                // Workers run for the life of the process and never
                // unwind (every chunk catches its panic), so their
                // handles are not kept.
                let worker = std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || pool.work());
                spawned += usize::from(worker.is_ok());
            }
            // Release pairs with the Acquire in `submit`: a section is
            // handed to workers only once their count is visible.
            pool.workers.store(spawned, Ordering::Release);
        });
        pool
    }

    /// Offer `section` to up to `helpers` workers, waking parked ones.
    fn submit(&self, section: &Arc<Section>, helpers: usize) {
        let helpers = helpers.min(self.workers.load(Ordering::Acquire));
        if helpers == 0 {
            return;
        }
        let mut queue = lock(&self.queue);
        for _ in 0..helpers {
            queue.sections.push_back(Arc::clone(section));
        }
        let wake = helpers.min(queue.parked);
        drop(queue);
        for _ in 0..wake {
            self.wake.notify_one();
        }
    }

    /// A worker's life: take the next queued section, help it, park when
    /// the queue is empty. An entry whose chunks the caller already
    /// claimed costs one failed claim.
    fn work(&self) {
        loop {
            let section = {
                let mut queue = lock(&self.queue);
                loop {
                    if let Some(section) = queue.sections.pop_front() {
                        break section;
                    }
                    queue.parked += 1;
                    queue = self
                        .wake
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                    queue.parked -= 1;
                }
            };
            section.help();
        }
    }
}

/// One chunk's input, then its output.
struct Chunk<T, R> {
    items: Vec<T>,
    out: Option<std::thread::Result<Vec<R>>>,
}

/// Apply `f` to every item in up to one ordered chunk per thread (each
/// chunk at least `min_len` items long), preserving input order in the
/// output. Runs inline at one thread or one chunk.
/// Panics propagate to the caller, like rayon's.
fn parallel_map<T, R, F>(items: Vec<T>, min_len: usize, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = current_num_threads();
    let chunks = threads.min(n / min_len.max(1));
    if chunks <= 1 {
        return items.into_iter().map(f).collect();
    }
    let (base, extra) = (n / chunks, n % chunks);
    let mut iter = items.into_iter();
    let slots: Vec<Mutex<Chunk<T, R>>> = (0..chunks)
        .map(|c| {
            let take = base + usize::from(c < extra);
            Mutex::new(Chunk {
                items: iter.by_ref().take(take).collect(),
                out: None,
            })
        })
        .collect();
    let run = |i: usize| {
        let items = std::mem::take(&mut lock(&slots[i]).items);
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            items.into_iter().map(f).collect::<Vec<R>>()
        }));
        lock(&slots[i]).out = Some(out);
    };
    let run: &(dyn Fn(usize) + Sync) = &run;
    // SAFETY: erases the lifetime of `run`, which borrows `slots` and `f`
    // from this frame, so workers can reach it through the section. A
    // worker calls it only for an index it claimed below `chunks`
    // (`Section::help`), and counts that chunk off `unfinished` after the
    // call returns. Below, this thread does not return or unwind before
    // `unfinished` reaches zero: `run` catches every chunk's panic, the
    // pool's locks recover from poison, and the stored panic is re-raised
    // only after `wait`. Queue entries that outlive this call keep the
    // pointer but never dereference it: every index is claimed by then.
    let erased: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute(run as *const (dyn Fn(usize) + Sync + '_)) };
    let section = Arc::new(Section {
        run: erased,
        chunks,
        next: AtomicUsize::new(1),
        unfinished: Mutex::new(chunks - 1),
        finished: Condvar::new(),
    });
    Pool::get().submit(&section, chunks - 1);
    run(0);
    section.help();
    section.wait();

    let mut out = Vec::with_capacity(n);
    for slot in slots {
        let chunk = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
        match chunk.out.expect("every chunk ran before the latch opened") {
            Ok(part) => out.extend(part),
            Err(payload) => panic::resume_unwind(payload),
        }
    }
    out
}

/// A parallel iterator: the materialized items of the source, consumed
/// by an eager combinator chain.
pub struct Par<T> {
    items: Vec<T>,
    /// Fewest items a `map`/`for_each` chunk may hold (rayon's
    /// `with_min_len`).
    min_len: usize,
}

impl<T: Send> Par<T> {
    fn new(items: Vec<T>) -> Par<T> {
        Par { items, min_len: 1 }
    }

    /// Keep at least `min` items in every chunk `map`/`for_each` hand to
    /// a thread, so sections too small to pay for the hand-off run
    /// inline.
    pub fn with_min_len(mut self, min: usize) -> Par<T> {
        self.min_len = min.max(1);
        self
    }

    /// Map each item, fanned out across the pool.
    pub fn map<R, F>(self, f: F) -> Par<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        Par {
            min_len: self.min_len,
            items: parallel_map(self.items, self.min_len, &f),
        }
    }

    /// Run `f` on every item, fanned out across the pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        parallel_map(self.items, self.min_len, &|item| f(item));
    }

    /// Pair items with another parallel iterator (stops at the shorter).
    pub fn zip<U: Send>(self, other: Par<U>) -> Par<(T, U)> {
        let min_len = self.min_len.max(other.min_len);
        Par {
            items: self.items.into_iter().zip(other.items).collect(),
            min_len,
        }
    }

    /// Pair items with their index.
    pub fn enumerate(self) -> Par<(usize, T)> {
        Par {
            items: self.items.into_iter().enumerate().collect(),
            min_len: self.min_len,
        }
    }

    /// Rayon-style reduction: `identity` seeds each chunk, `op`
    /// combines. The items were already computed by the upstream stages,
    /// so the fold itself is a cheap sequential pass.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        self.items.into_iter().fold(identity(), op)
    }

    /// Collect into any `FromIterator` container.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// `into_par_iter()` for owned collections and ranges.
pub trait IntoParallelIterator {
    /// Item type of the resulting iterator.
    type Item: Send;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Par<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> Par<T> {
        Par::new(self)
    }
}

macro_rules! impl_into_par_range {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> Par<$t> {
                Par::new(self.collect())
            }
        }
    )*};
}

impl_into_par_range!(u32, u64, usize, i32, i64);

/// `par_iter()` for shared slices (and, via deref, vecs and arrays).
pub trait IntoParallelRefIterator<'a> {
    /// Element type.
    type Item: Sync + 'a;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Par<&'a Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> Par<&'a T> {
        Par::new(self.iter().collect())
    }
}

/// `par_iter_mut()` for unique slices (and, via deref, vecs).
pub trait IntoParallelRefMutIterator<'a> {
    /// Element type.
    type Item: Send + 'a;
    /// Mutably borrowing parallel iterator.
    fn par_iter_mut(&'a mut self) -> Par<&'a mut Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> Par<&'a mut T> {
        Par::new(self.iter_mut().collect())
    }
}

/// The usual glob import.
pub mod prelude {
    pub use super::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator, Par,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    #[test]
    fn map_collect_over_range() {
        let v: Vec<u64> = (0u64..5).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn zip_enumerate_map_collect() {
        let mut a = vec![1u32, 2, 3];
        let b = [10u32, 20, 30];
        let out: Vec<u32> = a
            .par_iter_mut()
            .zip(b.par_iter())
            .enumerate()
            .map(|(i, (x, y))| {
                *x += y;
                *x + i as u32
            })
            .collect();
        assert_eq!(out, vec![11, 23, 35]);
        assert_eq!(a, vec![11, 22, 33]);
    }

    #[test]
    fn two_arg_reduce() {
        let data = [(1u64, 2u64), (3, 4), (5, 6)];
        let (a, b) = data
            .par_iter()
            .map(|&(x, y)| (x, y))
            .reduce(|| (0, 0), |p, q| (p.0 + q.0, p.1 + q.1));
        assert_eq!((a, b), (9, 12));
    }

    #[test]
    fn par_iter_on_fixed_array() {
        let configs = [(true, true), (false, true)];
        let n: Vec<usize> = configs.par_iter().enumerate().map(|(i, _)| i).collect();
        assert_eq!(n, vec![0, 1]);
    }

    #[test]
    fn order_preserved_at_any_item_count() {
        // Multiple items per chunk, uneven remainders, and minimum chunk
        // lengths that leave fewer chunks than threads (or one).
        for n in [0usize, 1, 2, 3, 7, 64, 1000] {
            for min_len in [1usize, 2, 3, 5, 64] {
                let v: Vec<usize> = (0..n)
                    .into_par_iter()
                    .with_min_len(min_len)
                    .map(|x| x)
                    .collect();
                assert_eq!(v, (0..n).collect::<Vec<_>>(), "n {n}, min_len {min_len}");
            }
        }
    }

    #[test]
    fn for_each_visits_every_item() {
        let sum = AtomicU64::new(0);
        (0u64..100).into_par_iter().for_each(|x| {
            sum.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn consecutive_maps_reuse_the_same_threads() {
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        for round in 0..200u64 {
            let v: Vec<u64> = (0u64..64)
                .into_par_iter()
                .map(|x| {
                    seen.lock().unwrap().insert(thread::current().id());
                    x + round
                })
                .collect();
            assert_eq!(v, (round..round + 64).collect::<Vec<_>>());
        }
        let distinct = seen.into_inner().unwrap().len();
        assert!(
            distinct <= super::current_num_threads(),
            "{distinct} threads ran items, pool size {}",
            super::current_num_threads()
        );
    }

    #[test]
    fn panic_reaches_the_caller_and_the_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            (0u64..64)
                .into_par_iter()
                .map(|x| {
                    if x == 10 || x == 60 {
                        panic!("item {x}");
                    }
                    x
                })
                .collect::<Vec<u64>>()
        });
        let payload = result.expect_err("the panic propagates");
        // The first panicking chunk in input order wins.
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 10")
        );
        let v: Vec<u64> = (0u64..64).into_par_iter().map(|x| x * 3).collect();
        assert_eq!(v, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_map_inside_for_each_completes() {
        let sum = AtomicU64::new(0);
        (0u64..16).into_par_iter().for_each(|i| {
            let inner: Vec<u64> = (0u64..100).into_par_iter().map(|x| x * i).collect();
            sum.fetch_add(inner.iter().sum(), Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950 * (0..16).sum::<u64>());
    }

    #[test]
    fn sections_shorter_than_two_min_lens_run_inline() {
        let me = thread::current().id();
        let ids: Vec<ThreadId> = (0u64..7)
            .into_par_iter()
            .with_min_len(4)
            .map(|_| thread::current().id())
            .collect();
        assert!(ids.iter().all(|&id| id == me));
    }

    /// Runs only in the child process `one_thread_spawns_no_worker`
    /// starts with `RAYON_NUM_THREADS=1`.
    #[test]
    #[ignore = "run by one_thread_spawns_no_worker in a child process"]
    fn one_thread_child() {
        if std::env::var("RAYON_NUM_THREADS").as_deref() != Ok("1") {
            return;
        }
        assert_eq!(super::current_num_threads(), 1);
        let v: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x + 1).collect();
        assert_eq!(v, (1..1001).collect::<Vec<_>>());
        (0u64..1000).into_par_iter().for_each(|_| {});
        assert!(super::POOL.get().is_none(), "a worker pool was created");
    }

    #[test]
    fn one_thread_spawns_no_worker() {
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "tests::one_thread_child", "--ignored", "--quiet"])
            .env("RAYON_NUM_THREADS", "1")
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap();
        assert!(status.success(), "child test failed: {status}");
    }
}
