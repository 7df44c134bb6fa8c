//! Batch-parallel execution helpers for the layer kernels.
//!
//! Layers fan work across a [`crossbeam::thread::scope`] by partitioning
//! *output rows* (or samples) into contiguous chunks, one per compute
//! thread. Every per-element fold the kernels perform is identical no matter
//! how the rows are partitioned, and cross-sample gradient reductions go
//! through [`tree_reduce`], whose combination order depends only on the
//! sample index — so layer outputs and gradients are **bitwise identical at
//! every thread count**. That is the property the distributed-equals-serial
//! invariant (DESIGN §4.4) builds on, and `tests/parallel_determinism.rs`
//! asserts it for thread counts {1, 2, 7}.
//!
//! The thread count is a per-thread knob so the threaded runtime can give
//! each of its workers a bounded share of the machine: explicit
//! [`set_compute_threads`] wins, then the `POSEIDON_THREADS` environment
//! variable, then `std::thread::available_parallelism()`. A count of 1 runs
//! the chunk closure inline on the calling thread — no spawns, the legacy
//! execution path.

use std::cell::Cell;
use std::ops::Range;

thread_local! {
    static COMPUTE_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Pins the compute-thread count for the *calling thread* (and the layer
/// kernels it invokes). Overrides `POSEIDON_THREADS` and the hardware
/// default.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn set_compute_threads(n: usize) {
    assert!(n >= 1, "compute thread count must be >= 1");
    COMPUTE_THREADS.with(|c| c.set(Some(n)));
}

/// Clears a previous [`set_compute_threads`], restoring env/hardware
/// resolution.
pub fn reset_compute_threads() {
    COMPUTE_THREADS.with(|c| c.set(None));
}

/// The compute-thread count in effect on the calling thread:
/// explicit [`set_compute_threads`] > `POSEIDON_THREADS` env >
/// `available_parallelism()` (1 if unknown).
pub fn compute_threads() -> usize {
    if let Some(n) = COMPUTE_THREADS.with(|c| c.get()) {
        return n;
    }
    match std::env::var("POSEIDON_THREADS") {
        Ok(v) => parse_threads(&v).unwrap_or_else(hardware_threads),
        Err(_) => hardware_threads(),
    }
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Parses a `POSEIDON_THREADS` value; `None` for anything that is not a
/// positive integer.
fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// Splits `0..total` into at most `parts` contiguous, non-empty ranges of
/// near-equal length (the first `total % parts` ranges are one longer).
/// Returns an empty vector when `total == 0`.
pub fn chunk_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(total);
    let mut out = Vec::with_capacity(parts);
    if total == 0 {
        return out;
    }
    let base = total / parts;
    let rem = total % parts;
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f(row_range, rows_slice)` over contiguous row chunks of `out`
/// (`total_rows` rows of `row_width` elements), one chunk per compute
/// thread. With one thread (or one row) the closure runs inline on the
/// calling thread.
///
/// The chunks partition `out`, so each invocation owns its slice; `f` must
/// not depend on which partition it receives — with the row-range kernels in
/// `poseidon-tensor` every output element is computed identically regardless
/// of the split, keeping results bitwise thread-count independent.
///
/// # Panics
///
/// Panics if `out.len() != total_rows * row_width`, or if a spawned compute
/// thread panics.
pub fn par_row_chunks<F>(total_rows: usize, row_width: usize, out: &mut [f32], f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    assert_eq!(
        out.len(),
        total_rows * row_width,
        "par_row_chunks: buffer size mismatch"
    );
    let ranges = chunk_ranges(total_rows, compute_threads());
    let rows = split_by_ranges(out, &ranges, row_width);
    par_chunks(ranges.into_iter().zip(rows).collect(), f);
}

/// Splits the head of `buf` into one slice per range, `width` elements per
/// index of the range — the disjoint parts [`par_chunks`] hands out.
///
/// # Panics
///
/// Panics if `buf` is shorter than the ranges cover.
pub fn split_by_ranges<'a, T>(
    mut buf: &'a mut [T],
    ranges: &[Range<usize>],
    width: usize,
) -> Vec<&'a mut [T]> {
    ranges
        .iter()
        .map(|range| {
            let (part, tail) = std::mem::take(&mut buf).split_at_mut(range.len() * width);
            buf = tail;
            part
        })
        .collect()
}

/// Runs `f(range, part)` for every `(range, part)` of `chunks`, each on a
/// compute thread of its own; a single chunk runs inline on the calling
/// thread, so a thread budget of 1 spawns nothing. `part` is whatever the
/// caller split per chunk — output rows, per-sample gradient slots that are
/// then combined with [`tree_reduce`], a thread's scratch buffers.
///
/// # Panics
///
/// Panics if a spawned compute thread panics.
pub fn par_chunks<T, F>(mut chunks: Vec<(Range<usize>, T)>, f: F)
where
    T: Send,
    F: Fn(Range<usize>, T) + Sync,
{
    if chunks.len() <= 1 {
        if let Some((range, part)) = chunks.pop() {
            f(range, part);
        }
        return;
    }
    crossbeam::thread::scope(|scope| {
        for (range, part) in chunks {
            let f = &f;
            scope.spawn(move |_| {
                crate::probe::emit(crate::probe::ProbeEvent::ChunkBegin {
                    lo: range.start,
                    hi: range.end,
                });
                f(range.clone(), part);
                crate::probe::emit(crate::probe::ProbeEvent::ChunkEnd {
                    lo: range.start,
                    hi: range.end,
                });
            });
        }
    })
    .expect("compute thread panicked");
}

/// Reduces `items` into `items[0]` with `combine`, in a **fixed pairwise
/// tree order** that depends only on the number of items, never on thread
/// count or timing: stride-doubling over the original indices (`0+=1, 2+=3,
/// …`, then `0+=2, 4+=6, …`, and so on). The other items are left holding
/// partial sums; an empty slice is a no-op.
///
/// Floating-point addition is not associative, so *some* canonical order has
/// to be fixed for per-sample gradient partials; fixing a tree (rather than
/// a left fold) keeps the result independent of how samples were distributed
/// across threads.
pub fn tree_reduce<T>(items: &mut [T], mut combine: impl FnMut(&mut T, &T)) {
    let n = items.len();
    let mut stride = 1;
    while stride < n {
        let mut i = 0;
        while i + stride < n {
            let (left, right) = items.split_at_mut(i + stride);
            combine(&mut left[i], &right[0]);
            i += 2 * stride;
        }
        stride *= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_partition_the_input() {
        for total in [0usize, 1, 2, 5, 7, 16, 100] {
            for parts in [1usize, 2, 3, 7, 64] {
                let ranges = chunk_ranges(total, parts);
                assert_eq!(ranges.len(), parts.min(total));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "non-empty");
                    next = r.end;
                }
                assert_eq!(next, total, "covers 0..{total}");
                if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
                    assert!(first.len() - last.len() <= 1, "near-equal sizes");
                }
            }
        }
    }

    #[test]
    fn explicit_thread_count_wins() {
        set_compute_threads(3);
        assert_eq!(compute_threads(), 3);
        set_compute_threads(1);
        assert_eq!(compute_threads(), 1);
        reset_compute_threads();
        assert!(compute_threads() >= 1);
    }

    #[test]
    fn parse_threads_rejects_garbage() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn par_row_chunks_fills_disjoint_rows() {
        for threads in [1usize, 2, 5, 7] {
            set_compute_threads(threads);
            let (rows, width) = (11usize, 3usize);
            let mut out = vec![0.0f32; rows * width];
            par_row_chunks(rows, width, &mut out, |range, chunk| {
                for (i, r) in range.clone().enumerate() {
                    for c in 0..width {
                        chunk[i * width + c] = (r * width + c) as f32;
                    }
                }
            });
            let expect: Vec<f32> = (0..rows * width).map(|v| v as f32).collect();
            assert_eq!(out, expect, "threads={threads}");
        }
        reset_compute_threads();
    }

    #[test]
    fn tree_reduce_uses_fixed_pairwise_order() {
        // Track combination order symbolically: each item is a parenthesised
        // string, so the final string is the exact reduction tree.
        let shape = |n: usize| {
            let mut items: Vec<String> = (0..n).map(|i| i.to_string()).collect();
            tree_reduce(&mut items, |a, b| *a = format!("({a}+{b})"));
            items.swap_remove(0)
        };
        assert_eq!(shape(1), "0");
        assert_eq!(shape(2), "(0+1)");
        assert_eq!(shape(3), "((0+1)+2)");
        assert_eq!(shape(4), "((0+1)+(2+3))");
        assert_eq!(shape(5), "(((0+1)+(2+3))+4)");
        assert_eq!(shape(7), "(((0+1)+(2+3))+((4+5)+6))");
    }

    #[test]
    fn tree_reduce_handles_empty_and_sums_correctly() {
        tree_reduce(&mut Vec::<u64>::new(), |a, b| *a += b);
        for n in 1usize..40 {
            let mut items: Vec<u64> = (1..=n as u64).collect();
            tree_reduce(&mut items, |a, b| *a += b);
            assert_eq!(items[0], (n as u64) * (n as u64 + 1) / 2);
        }
    }

    #[test]
    fn par_chunks_hands_every_part_to_its_range_once() {
        for threads in [1usize, 2, 7] {
            let mut slots = vec![0u32; 13];
            let ranges = chunk_ranges(13, threads);
            let parts = split_by_ranges(&mut slots, &ranges, 1);
            let chunks = ranges.into_iter().zip(parts).collect();
            par_chunks(chunks, |range, part: &mut [u32]| {
                for (slot, s) in part.iter_mut().zip(range) {
                    *slot += s as u32 + 1;
                }
            });
            let expect: Vec<u32> = (1..=13).collect();
            assert_eq!(slots, expect, "threads={threads}");
        }
    }
}
