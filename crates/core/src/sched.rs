//! Bounded scheduler for independent simulation tasks.
//!
//! The campaign and sweep drivers used to spawn one OS thread per seed or
//! per probe interval, which oversubscribes the machine as soon as the task
//! matrix outgrows the core count. This module replaces that pattern with a
//! fixed pool of `min(max_threads(), tasks)` workers that claim task
//! indices from one shared cursor. Tasks are a dozen to a few dozen
//! simulation runs of at least 10 ms each, so a worker that finishes early
//! simply claims the next index and a skewed matrix still keeps every core
//! busy; the cursor is touched once per task.
//!
//! `PROBENET_THREADS` sizes this pool and nothing else. Each task runs the
//! serial engine unless its caller asked for partitions explicitly
//! (`SimExperiment::with_partitions`).
//!
//! Determinism: results are returned **in task order**, never in completion
//! order, and tasks carry no shared mutable state, so the output of
//! [`par_map`] is byte-for-byte identical whatever the thread count —
//! including `PROBENET_THREADS=1`, which runs inline with no pool at all.
//! `tests/determinism.rs` pins this property against serial execution.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-thread cap: the `PROBENET_THREADS` environment variable when set
/// (a value that is not a positive integer means 1), otherwise
/// [`std::thread::available_parallelism`].
pub fn max_threads() -> usize {
    // Pool width only: results come back in task order at any width (module
    // docs), so the width cannot alter artifact bytes.
    // probenet-lint: allow(tainted-artifact-path) pool width only, results bit-identical at any width
    match std::env::var("PROBENET_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or(1),
        // probenet-lint: allow(tainted-artifact-path) pool width only (see above)
        Err(_) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// Apply `f` to every item on the bounded pool and return the results in
/// item order (see module docs for the determinism contract).
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_threads(max_threads(), items, f)
}

/// [`par_map`] with an explicit worker cap; `threads == 1` runs inline on
/// the calling thread. The forced-serial path exists so tests can compare
/// parallel output against a pool-free run.
pub fn par_map_threads<T, U, F>(threads: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Task state lives in index-addressed slots so any worker can run any
    // task while results keep a stable order.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("lock poisoned")
                    .take()
                    .expect("task slot taken twice");
                let out = f(item);
                *results[i].lock().expect("lock poisoned") = Some(out);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("worker panicked mid-task")
                .expect("task never ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_threads(4, items.clone(), |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map_threads(1, items.clone(), |x| x.wrapping_mul(0x9e37).rotate_left(7));
        let parallel = par_map_threads(8, items, |x| x.wrapping_mul(0x9e37).rotate_left(7));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicUsize::new(0);
        let out = par_map_threads(3, (0..50).collect::<Vec<usize>>(), |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 50);
        assert_eq!(count.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn empty_and_single_item_edges() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(empty, |x: u32| x).is_empty());
        assert_eq!(par_map(vec![9u32], |x| x + 1), vec![10]);
    }

    #[test]
    fn skewed_costs_still_complete() {
        // One huge task first: its worker chews on it while the others
        // claim the rest.
        let out = par_map_threads(4, (0..20u64).collect::<Vec<_>>(), |i| {
            let spins = if i == 0 { 200_000 } else { 10 };
            let mut acc = i;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        });
        assert_eq!(out.len(), 20);
        for (k, (i, _)) in out.iter().enumerate() {
            assert_eq!(*i, k as u64);
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
