//! Scoped std-thread worker pool for parallel index construction.
//!
//! The paper's build paths are embarrassingly parallel per dataset (canonical
//! rectangle enumeration, Algorithms 1/3) and per net direction (score
//! tables, Algorithm 5). This crate provides the one primitive they all
//! share: [`par_map`], a *deterministic* parallel map over indexed work
//! units. `rayon` is unavailable offline, so the pool is built directly on
//! [`std::thread::scope`]:
//!
//! * the caller always starts **alone** (the *solo phase*): it maps items in
//!   index order straight into the output, and a call that finishes this way
//!   spawns nothing and allocates only the output `Vec`, like the serial map;
//! * once the call has run for longer than one scope-and-spawn costs (a
//!   private 50 µs budget) and items remain, it **splits**: the rest of the
//!   input is cut into contiguous chunks of indexes, up to `threads − 1`
//!   helpers are spawned, and the caller keeps working as one of the
//!   `threads` workers;
//! * workers *steal* chunks from a shared atomic cursor (no static
//!   partitioning — a worker that lands on cheap datasets just takes more
//!   chunks);
//! * each chunk's results are kept together and the chunks are merged back
//!   in index order after the solo prefix once the scope joins.
//!
//! The split is self-timed because the same primitive serves two very
//! different kinds of work. An index build's unit (a dataset, a net
//! direction) costs far more than a spawn, so a build splits on its first
//! item. A served request's units are often mask-cache hits, a few
//! microseconds each — far cheaper than spawning a worker — so a warm
//! request runs entirely on its executor thread, and the server's
//! executors supply the parallelism across requests instead.
//!
//! Because every work unit is a pure function of its index and the merge
//! order is fixed, the output is **bit-identical to the serial map for every
//! thread count and every split point** — the property the
//! parallel-equivalence test layer pins for all index families.
//!
//! [`BuildOptions`] carries the thread count through the build APIs; its
//! `Default` resolves `DDS_THREADS` (env override) and falls back to
//! [`std::thread::available_parallelism`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Work units claimed per cursor increment aim for this many chunks per
/// worker, so fast workers can steal the tail of a slow worker's share.
const CHUNKS_PER_WORKER: usize = 4;

/// How long a call runs alone on its caller before it spawns helpers: about
/// one scope-and-spawn (40–85 µs per call on a 2-core x86-64 VM), so a call
/// only fans out once its own work has outlasted one spawn.
const INLINE_BUDGET: Duration = Duration::from_micros(50);

/// A clock read that finds the items since the previous read took less
/// than this doubles the number of items until the next read; a slower
/// stretch resets it to one. Near-free items thus pay for a clock read
/// (tens of ns) only every few hundred items, while items costing
/// microseconds are checked after each one.
const READ_WINDOW: Duration = Duration::from_micros(2);

/// Options controlling parallel index construction.
///
/// The thread count **never** affects results — every build path using the
/// pool is bit-identical to its serial counterpart — so the default can
/// safely exploit all available cores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildOptions {
    /// Number of worker threads (≥ 1). `1` means build serially on the
    /// calling thread.
    pub threads: usize,
}

impl BuildOptions {
    /// Serial build: everything on the calling thread.
    pub fn serial() -> Self {
        BuildOptions { threads: 1 }
    }

    /// Build with exactly `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        BuildOptions { threads }
    }

    /// Resolves the thread count from the environment: the `DDS_THREADS`
    /// variable when set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        let env = std::env::var("DDS_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1);
        let threads = env.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        BuildOptions { threads }
    }
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Derives an independent, collision-free RNG seed for work unit `index`
/// from a build seed (SplitMix64 finalizer over a golden-ratio stride; the
/// map `index → mix_seed(seed, index)` is injective for fixed `seed`).
///
/// Builders seed one `StdRng` per dataset with this instead of threading a
/// single sequential generator through the dataset loop — that is what makes
/// per-dataset sampling independent of both the thread count and the order
/// in which workers claim datasets.
pub fn mix_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic parallel map: `out[i] = f(i, &items[i])`, computed on the
/// calling thread until the call outlasts one thread spawn, then on up to
/// `opts.threads` workers (the caller among them) stealing contiguous index
/// chunks.
///
/// Guarantees, for any thread count:
/// * the output is exactly `items.iter().enumerate().map(f).collect()`;
/// * `f` is called exactly once per item;
/// * a panic in any worker propagates to the caller after the scope joins.
pub fn par_map<T, U, F>(opts: &BuildOptions, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_with(opts, items, || (), |(), i, t| f(i, t))
}

/// [`par_map`] with **per-worker reusable state**: every worker thread (the
/// caller included) calls `init()` exactly once and threads the resulting
/// value through all the work units it claims
/// (`out[i] = f(&mut state, i, &items[i])`).
///
/// This is the primitive behind the batch *query* APIs: the state is a query
/// scratch (bitsets, hit buffers, memo maps) that would otherwise be
/// re-allocated per query. The determinism contract is inherited from
/// [`par_map`] **provided `f`'s output does not depend on the state's
/// history** — scratch must be reset per unit, which every caller in this
/// workspace does.
pub fn par_map_with<T, U, S, I, F>(opts: &BuildOptions, items: &[T], init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    let threads = opts.threads.max(1);
    let started = Instant::now();
    let mut last_read = started;
    let mut stride = 1;
    let mut next_read = 1;
    let mut state = init();
    // Solo phase: the caller maps an index-ordered prefix straight into the
    // output, so a call that never splits allocates exactly what the
    // serial map does.
    let mut out = Vec::with_capacity(n);
    for (i, item) in items.iter().enumerate() {
        out.push(f(&mut state, i, item));
        let done = i + 1;
        // One allowed worker, or one item left: nothing to split.
        let helpers = threads.min(n - done).saturating_sub(1);
        if helpers == 0 || done < next_read {
            continue;
        }
        let now = Instant::now();
        if now - started >= INLINE_BUDGET {
            fan_out(&mut out, &mut state, &items[done..], helpers, &init, &f);
            break;
        }
        stride = if now - last_read < READ_WINDOW {
            stride * 2
        } else {
            1
        };
        last_read = now;
        next_read = done + stride;
    }
    out
}

/// The split: maps `rest` (the items after the solo prefix) on the caller
/// plus `helpers` scoped workers stealing contiguous chunks from a shared
/// cursor, and appends the chunks to `out` in index order.
fn fan_out<T, U, S, I, F>(
    out: &mut Vec<U>,
    state: &mut S,
    rest: &[T],
    helpers: usize,
    init: &I,
    f: &F,
) where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let offset = out.len();
    // Chunk granularity: small enough that workers can steal meaningfully,
    // large enough to amortize the cursor traffic.
    let chunk = (rest.len() / ((helpers + 1) * CHUNKS_PER_WORKER)).max(1);
    let n_chunks = rest.len().div_ceil(chunk);
    let cursor = AtomicUsize::new(0);
    let claim = |state: &mut S| {
        let mut local: Vec<(usize, Vec<U>)> = Vec::new();
        loop {
            let c = cursor.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break local;
            }
            let start = c * chunk;
            let end = (start + chunk).min(rest.len());
            let mapped = rest[start..end]
                .iter()
                .enumerate()
                .map(|(j, item)| f(state, offset + start + j, item))
                .collect();
            local.push((c, mapped));
        }
    };
    let mut by_chunk = std::thread::scope(|s| {
        let handles: Vec<_> = (0..helpers)
            .map(|_| s.spawn(move || claim(&mut init())))
            .collect();
        let mut all = claim(state);
        for h in handles {
            all.extend(h.join().expect("pool worker panicked"));
        }
        all
    });
    // Deterministic merge: chunks back into index order after the prefix.
    by_chunk.sort_unstable_by_key(|(c, _)| *c);
    for (_, mut v) in by_chunk {
        out.append(&mut v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Makes the first few items outlast the inline budget and leaves the
    /// rest near-free, so a call splits partway: a solo prefix, then
    /// chunks merged after it.
    fn slow_head(i: usize) {
        if i < 3 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    #[test]
    fn par_map_matches_serial_for_every_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 4, 7, 8, 64] {
            let opts = BuildOptions::with_threads(threads);
            let got = par_map(&opts, &items, |i, x| x * 3 + i as u64);
            assert_eq!(got, serial, "threads = {threads}");
            let split = par_map(&opts, &items, |i, x| {
                slow_head(i);
                x * 3 + i as u64
            });
            assert_eq!(split, serial, "split partway, threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        let opts = BuildOptions::with_threads(8);
        let empty: Vec<u32> = vec![];
        assert!(par_map(&opts, &empty, |_, x| *x).is_empty());
        assert_eq!(par_map(&opts, &[42u32], |i, x| (i, *x)), vec![(0, 42)]);
        // More threads than items.
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&opts, &items, |_, x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn every_item_is_visited_exactly_once() {
        let n = 257; // deliberately not a multiple of any chunk size
        let items: Vec<usize> = (0..n).collect();
        for delay in [|_| (), slow_head] {
            let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let out = par_map(&BuildOptions::with_threads(5), &items, |i, _| {
                delay(i);
                counts[i].fetch_add(1, Ordering::Relaxed);
                i
            });
            assert_eq!(out, items);
            assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn par_map_with_reuses_state_and_matches_serial() {
        let items: Vec<u64> = (0..500).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 7).collect();
        for threads in [1, 2, 3, 8] {
            // State is a scratch buffer reset per unit; reuse must be
            // invisible in the output.
            let got = par_map_with(
                &BuildOptions::with_threads(threads),
                &items,
                Vec::<u64>::new,
                |buf, _, &x| {
                    buf.clear();
                    buf.extend(std::iter::repeat_n(x, 7));
                    buf.iter().sum::<u64>()
                },
            );
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_with_calls_init_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = par_map_with(
            &BuildOptions::with_threads(4),
            &items,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, i, _| i,
        );
        assert_eq!(out, items);
        assert!(inits.load(Ordering::Relaxed) <= 4, "one init per worker");
    }

    /// The inline path: singleton/empty inputs and `threads == 1` run
    /// entirely on the calling thread (no workers spawned), with results
    /// unchanged from the pooled path.
    #[test]
    fn fast_path_runs_inline_on_caller_thread() {
        let caller = std::thread::current().id();
        let observe = |items: &[u64], threads: usize, unit: Duration| {
            let ids = std::sync::Mutex::new(Vec::new());
            let out = par_map(&BuildOptions::with_threads(threads), items, |i, x| {
                std::thread::sleep(unit);
                ids.lock().unwrap().push(std::thread::current().id());
                x * 5 + i as u64
            });
            (out, ids.into_inner().unwrap())
        };
        // threads == 1 over many items; one item (or none) over many
        // threads — every shape must stay on the caller.
        for (items, threads) in [
            ((0..100).collect::<Vec<u64>>(), 1),
            (vec![42], 8),
            (vec![], 8),
        ] {
            let serial: Vec<u64> = items
                .iter()
                .enumerate()
                .map(|(i, x)| x * 5 + i as u64)
                .collect();
            let (out, ids) = observe(&items, threads, Duration::ZERO);
            assert_eq!(out, serial, "inline results unchanged");
            assert_eq!(ids.len(), items.len(), "one call per item");
            assert!(
                ids.iter().all(|&id| id == caller),
                "the inline path must not leave the calling thread"
            );
        }
        // Control: work that outlasts the inline budget really does use
        // other threads (so the assertion above is meaningful).
        let unit = Duration::from_micros(200);
        let (out, ids) = observe(&(0..64).collect::<Vec<u64>>(), 8, unit);
        assert_eq!(out.len(), 64);
        assert!(
            ids.iter().any(|&id| id != caller),
            "pooled path should recruit workers"
        );
    }

    /// Many workers allowed, but near-free items: the call finishes inside
    /// the inline budget, so it never spawns. A preemption inside the
    /// budget is charged to the call and may legitimately split it, so one
    /// clean run in a few attempts is what is asked for.
    #[test]
    fn cheap_items_never_leave_the_caller() {
        // An unoptimised build's serial map over 4096 items alone outlasts
        // a spawn, so it gets a shorter input.
        let n = if cfg!(debug_assertions) { 512 } else { 4096 };
        let items: Vec<u64> = (0..n).collect();
        let caller = std::thread::current().id();
        let stayed_inline = (0..3).any(|_| {
            let ran_on = par_map_with(
                &BuildOptions::with_threads(8),
                &items,
                || std::thread::current().id(),
                |&mut id, _, _| id,
            );
            assert_eq!(ran_on.len(), items.len());
            ran_on.iter().all(|&id| id == caller)
        });
        assert!(stayed_inline, "cheap items should all run on the caller");
    }

    #[test]
    fn mix_seed_is_injective_per_index() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix_seed(0x5EED, i)), "collision at {i}");
        }
        // Different build seeds give different streams.
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&BuildOptions::with_threads(4), &items, |i, _| {
                if i == 33 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn options_resolve_env_override() {
        // Whatever the ambient environment, explicit construction wins.
        assert_eq!(BuildOptions::serial().threads, 1);
        assert_eq!(BuildOptions::with_threads(6).threads, 6);
        assert!(BuildOptions::from_env().threads >= 1);
    }
}
