//! The ambient thread count and contiguous index splitting behind the
//! shared [`crate::pool`] worker pool.
//!
//! [`split_ranges`] cuts an index space into contiguous, near-equal chunks;
//! callers fan the chunks out over a [`crate::pool::Backend`] and combine
//! the per-chunk results left to right, so a parallel run is bit-identical
//! to the serial run for any associative combine (exact modular field
//! addition, elliptic-curve point accumulation, statistics counters, …).
//!
//! Thread count resolution, in priority order:
//!
//! 1. a thread-local override installed by [`with_threads`] (used by the
//!    parallel-vs-serial equivalence tests);
//! 2. the `ZKSPEED_THREADS` environment variable (`1` forces the serial
//!    path);
//! 3. [`std::thread::available_parallelism`].
//!
//! Parallel work goes through an explicit [`crate::pool::Backend`] and the
//! [`crate::pool::map_ranges`] / [`crate::pool::map_indices_on`] helpers;
//! [`crate::pool::Ambient`] is the backend that follows the thread count
//! resolved here.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

pub(crate) fn env_threads() -> usize {
    static CACHE: OnceLock<usize> = OnceLock::new();
    *CACHE.get_or_init(|| {
        let hardware = || {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        match std::env::var("ZKSPEED_THREADS") {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => {
                    eprintln!(
                        "zkspeed-rt: ignoring invalid ZKSPEED_THREADS={v:?} \
                         (want an integer >= 1); using hardware parallelism"
                    );
                    hardware()
                }
            },
            Err(_) => hardware(),
        }
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The number of worker threads parallel primitives will use on this thread.
pub fn current_threads() -> usize {
    OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(env_threads)
        .max(1)
}

/// Runs `f` with the thread count pinned to `threads` on the current thread
/// (restored afterwards, even on panic). `with_threads(1, …)` forces every
/// parallel primitive inside `f` onto the exact serial code path.
pub fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    assert!(threads >= 1, "with_threads: need at least one thread");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(threads))));
    f()
}

/// Splits `0..len` into at most `parts` contiguous, near-equal, non-empty
/// ranges covering the whole index space in order.
pub fn split_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_covers_everything_in_order() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for parts in [1usize, 2, 3, 8, 2000] {
                let ranges = split_ranges(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
                if len > 0 {
                    assert!(ranges.len() <= parts.max(1));
                    let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                    let min = sizes.iter().min().unwrap();
                    let max = sizes.iter().max().unwrap();
                    assert!(max - min <= 1, "unbalanced split: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn with_threads_restores_previous_value() {
        let before = current_threads();
        with_threads(3, || assert_eq!(current_threads(), 3));
        assert_eq!(current_threads(), before);
        with_threads(2, || {
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 2);
        });
    }
}
