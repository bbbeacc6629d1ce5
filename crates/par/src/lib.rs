//! # boe-par
//!
//! A deterministic, zero-dependency data-parallel runtime built on
//! [`std::thread::scope`].
//!
//! The workspace's hot paths (similarity matrices, per-term pipeline
//! fan-out, linkage scoring) are embarrassingly parallel *per item*, but
//! research code must stay reproducible: the same input must yield the
//! same output regardless of the machine's core count. Every combinator
//! here therefore guarantees the **determinism contract**:
//!
//! * items are split into contiguous index chunks, each worker computes
//!   its chunk independently, and results are reassembled **in input
//!   order** — the output `Vec` is identical to the serial
//!   `items.iter().map(f).collect()` for any pure `f`;
//! * a worker panic is re-raised on the calling thread (first panicking
//!   chunk in index order), matching the serial behaviour under
//!   `catch_unwind`.
//!
//! The thread count comes from, in priority order: a process-wide
//! programmatic override ([`set_threads`]), the `BOE_THREADS` environment
//! variable, and finally [`std::thread::available_parallelism`]. A count
//! of 1 (or fewer items than [`MIN_PARALLEL_ITEMS`]) short-circuits to
//! the plain serial loop — no threads are spawned at all, so `BOE_THREADS=1`
//! is a true serial baseline.
//!
//! ## Cooperative early exit
//!
//! The `try_*` combinators ([`try_par_map`], [`try_par_map_indexed`])
//! additionally poll a caller-supplied stop predicate **before every
//! item**. When it first returns `true` the workers stop and the call
//! returns [`ParOutcome::Interrupted`] holding
//! the **deterministic completed prefix**: the longest contiguous run of
//! leading items that finished. Because chunks are contiguous and
//! reassembly is in order, that prefix is always bit-identical to the
//! first `prefix.len()` results of the serial loop — work completed
//! beyond the first gap is discarded rather than surfaced out of order.
//! A worker panic still propagates (first panicking chunk in index
//! order) and the scoped join guarantees no interrupted or poisoned
//! worker can leak or deadlock the scope.
//!
//! Every worker (and the serial short-circuit) hits the
//! `boe_chaos::sites::PAR_WORKER` injection site once before starting
//! its chunk, keyed by the chunk's start index — a no-op unless a chaos
//! plan is armed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Below this many items the combinators run serially even when more
/// threads are available: spawning scoped threads costs tens of
/// microseconds, which dwarfs tiny workloads. Callers with very cheap
/// per-item work should raise the bar further via [`par_map_min`].
pub const MIN_PARALLEL_ITEMS: usize = 2;

/// Process-wide thread-count override; 0 means "not set".
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the thread count for the whole process (benchmarks and
/// determinism tests switch between serial and parallel runs without
/// touching the environment). `None` restores the default resolution
/// ([`threads`]); `Some(0)` is treated as `Some(1)`.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::SeqCst);
}

/// The resolved worker-thread count: the [`set_threads`] override if set,
/// else `BOE_THREADS` (when it parses to ≥ 1), else
/// [`std::thread::available_parallelism`], else 1.
pub fn threads() -> usize {
    let o = OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(s) = std::env::var("BOE_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Outcome of a cancellable parallel map: either every item completed,
/// or the stop predicate fired and only a contiguous leading prefix of
/// results is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParOutcome<U> {
    /// All `n` results, in input order.
    Complete(Vec<U>),
    /// The stop predicate fired; `prefix` holds the results of items
    /// `0..prefix.len()`, bit-identical to the serial loop's first
    /// `prefix.len()` outputs. Items beyond the first gap are discarded
    /// even if some later chunk had finished them.
    Interrupted {
        /// The deterministic completed prefix, in input order.
        prefix: Vec<U>,
    },
}

impl<U> ParOutcome<U> {
    /// Whether the stop predicate cut the run short.
    pub fn is_interrupted(&self) -> bool {
        matches!(self, ParOutcome::Interrupted { .. })
    }

    /// The results regardless of outcome (full vector or prefix).
    pub fn into_results(self) -> Vec<U> {
        match self {
            ParOutcome::Complete(v) => v,
            ParOutcome::Interrupted { prefix } => prefix,
        }
    }
}

/// Map `f` over `0..n` in parallel, returning results in index order;
/// bit-identical to `(0..n).map(f).collect()` for pure `f`. Runs
/// serially unless `n >= min_items`: use a high threshold for cheap
/// per-item work (e.g. a single dot product) where thread-spawn
/// overhead would win.
pub fn par_map_indexed_min<U, F>(n: usize, min_items: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    match chunked_run(n, min_items, None::<&fn() -> bool>, f) {
        ParOutcome::Complete(v) => v,
        // Without a stop predicate no worker ever stops early.
        ParOutcome::Interrupted { .. } => unreachable!("no stop predicate"),
    }
}

/// [`par_map_indexed_min`] with cooperative cancellation: `should_stop` is
/// polled before every item; once it returns `true` the workers wind
/// down and the deterministic completed prefix is returned. The
/// predicate must be monotonic (once `true`, stay `true`) for the
/// prefix guarantee to be meaningful.
pub fn try_par_map_indexed<U, F, S>(n: usize, should_stop: &S, f: F) -> ParOutcome<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    S: Fn() -> bool + Sync,
{
    chunked_run(n, MIN_PARALLEL_ITEMS, Some(should_stop), f)
}

/// The shared chunked executor behind both the plain and the
/// cancellable maps. `stop` is polled before each item; `None` compiles
/// down to the unconditional loop.
fn chunked_run<U, F, S>(n: usize, min_items: usize, stop: Option<&S>, f: F) -> ParOutcome<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
    S: Fn() -> bool + Sync,
{
    // One worker's share: compute items `lo..hi`, polling the stop
    // predicate before each; `true` in the flag means the whole range
    // completed.
    let run_range = |lo: usize, hi: usize| -> (Vec<U>, bool) {
        boe_chaos::inject_keyed(boe_chaos::sites::PAR_WORKER, lo as u64);
        // Trailing chunks can be empty when n isn't divisible by the
        // worker count (lo past the end).
        let mut part = Vec::with_capacity(hi.saturating_sub(lo));
        for i in lo..hi {
            if stop.is_some_and(|s| s()) {
                return (part, false);
            }
            part.push(f(i));
        }
        (part, true)
    };

    let workers = threads().min(n);
    if workers <= 1 || n < min_items.max(MIN_PARALLEL_ITEMS) {
        let (part, complete) = run_range(0, n);
        return if complete {
            ParOutcome::Complete(part)
        } else {
            ParOutcome::Interrupted { prefix: part }
        };
    }
    let chunk = n.div_ceil(workers);
    let run_range = &run_range;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n);
                s.spawn(move || run_range(lo, hi))
            })
            .collect();
        let mut out = Vec::with_capacity(n);
        let mut interrupted = false;
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            match h.join() {
                Ok((part, complete)) => {
                    // Results after the first gap are discarded: the
                    // returned prefix must be contiguous from item 0.
                    if !interrupted {
                        out.extend(part);
                        if !complete {
                            interrupted = true;
                        }
                    }
                }
                // Keep the first panic (lowest chunk index) — the one the
                // serial loop would have hit first.
                Err(payload) if panic.is_none() => panic = Some(payload),
                Err(_) => {}
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        if interrupted {
            ParOutcome::Interrupted { prefix: out }
        } else {
            ParOutcome::Complete(out)
        }
    })
}

/// Map `f` over a slice in parallel, returning results in input order.
///
/// Bit-identical to `items.iter().map(f).collect()` for pure `f`.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_min(items.len(), MIN_PARALLEL_ITEMS, |i| f(&items[i]))
}

/// [`par_map`] with a custom serial threshold (see
/// [`par_map_indexed_min`]).
pub fn par_map_min<T, U, F>(items: &[T], min_items: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_min(items.len(), min_items, |i| f(&items[i]))
}

/// [`par_map`] with cooperative cancellation (see
/// [`try_par_map_indexed`]): returns the deterministic completed prefix
/// when `should_stop` fires mid-run.
pub fn try_par_map<T, U, F, S>(items: &[T], should_stop: &S, f: F) -> ParOutcome<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
    S: Fn() -> bool + Sync,
{
    try_par_map_indexed(items.len(), should_stop, |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `set_threads`/env are process-global; serialize the tests that
    /// touch them.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
        let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(n));
        let out = f();
        set_threads(None);
        out
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x * 3).collect();
        for nt in [1, 2, 3, 8] {
            let par = with_threads(nt, || par_map(&items, |&x| x * 3));
            assert_eq!(par, serial, "threads = {nt}");
        }
    }

    #[test]
    fn par_map_indexed_matches_serial() {
        let serial: Vec<String> = (0..77).map(|i| format!("#{i}")).collect();
        let par = with_threads(4, || {
            par_map_indexed_min(77, MIN_PARALLEL_ITEMS, |i| format!("#{i}"))
        });
        assert_eq!(par, serial);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(with_threads(8, || par_map(&empty, |&x| x)).is_empty());
        assert_eq!(with_threads(8, || par_map(&[41u32], |&x| x + 1)), vec![42]);
    }

    #[test]
    fn min_items_threshold_forces_serial() {
        // Results are identical either way; this just exercises the path.
        let items: Vec<u64> = (0..100).collect();
        let out = with_threads(8, || par_map_min(&items, 1000, |&x| x + 1));
        assert_eq!(out, (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..64).collect();
        let caught = with_threads(4, || {
            std::panic::catch_unwind(|| {
                par_map(&items, |&x| {
                    if x == 40 {
                        panic!("boom at {x}");
                    }
                    x
                })
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn override_and_env_resolution() {
        let _g = GLOBAL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(3));
        assert_eq!(threads(), 3);
        set_threads(Some(0)); // clamps to 1
        assert_eq!(threads(), 1);
        set_threads(None);
        std::env::set_var("BOE_THREADS", "5");
        assert_eq!(threads(), 5);
        std::env::set_var("BOE_THREADS", "not a number");
        assert!(threads() >= 1); // falls through to available_parallelism
        std::env::remove_var("BOE_THREADS");
        assert!(threads() >= 1);
    }

    #[test]
    fn chunks_cover_uneven_splits() {
        // n not divisible by worker count.
        for n in [2usize, 3, 7, 13, 97] {
            let out = with_threads(4, || par_map_indexed_min(n, MIN_PARALLEL_ITEMS, |i| i));
            assert_eq!(out, (0..n).collect::<Vec<usize>>(), "n = {n}");
        }
    }

    #[test]
    fn try_map_without_stop_is_complete() {
        let items: Vec<usize> = (0..50).collect();
        let never = || false;
        for nt in [1, 4] {
            let out = with_threads(nt, || try_par_map(&items, &never, |&x| x * 2));
            assert_eq!(
                out,
                ParOutcome::Complete((0..50).map(|x| x * 2).collect()),
                "threads = {nt}"
            );
        }
    }

    #[test]
    fn try_map_stop_always_yields_empty_prefix() {
        let items: Vec<usize> = (0..64).collect();
        let always = || true;
        for nt in [1, 2, 8] {
            let out = with_threads(nt, || try_par_map(&items, &always, |&x| x));
            assert_eq!(
                out,
                ParOutcome::Interrupted { prefix: Vec::new() },
                "threads = {nt}"
            );
        }
    }

    #[test]
    fn interrupted_prefix_is_serial_prefix() {
        use std::sync::atomic::AtomicUsize;
        let items: Vec<usize> = (0..96).collect();
        let serial: Vec<usize> = items.iter().map(|&x| x + 7).collect();
        for nt in [1, 2, 3, 8] {
            // Trip after a fixed number of polls; the exact cut point
            // varies with scheduling but the prefix must always be a
            // leading slice of the serial output.
            let polls = AtomicUsize::new(0);
            let stop = || polls.fetch_add(1, Ordering::SeqCst) >= 10;
            let out = with_threads(nt, || try_par_map(&items, &stop, |&x| x + 7));
            let prefix = out.into_results();
            assert!(prefix.len() < items.len(), "threads = {nt}");
            assert_eq!(prefix, serial[..prefix.len()], "threads = {nt}");
        }
    }

    #[test]
    fn try_map_panic_beats_interruption() {
        let items: Vec<usize> = (0..64).collect();
        let always = || true;
        let caught = with_threads(4, || {
            std::panic::catch_unwind(|| {
                try_par_map(&items, &always, |&x| {
                    if x == 0 {
                        panic!("poisoned worker");
                    }
                    x
                })
            })
        });
        // Stop-always means item 0 is never computed, so no panic fires
        // and we get a clean empty prefix — but a panic injected before
        // the poll must still propagate. Exercise both shapes.
        assert!(caught.is_ok());
        let caught2 = with_threads(4, || {
            std::panic::catch_unwind(|| {
                let hits = std::sync::atomic::AtomicUsize::new(0);
                let stop = || hits.fetch_add(1, Ordering::SeqCst) >= 30;
                try_par_map(&items, &stop, |&x| {
                    if x == 1 {
                        panic!("poisoned worker");
                    }
                    x
                })
            })
        });
        let payload = caught2.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("poisoned"), "{msg}");
    }
}
