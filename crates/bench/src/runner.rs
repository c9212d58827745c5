//! Deterministic parallel trial runner.
//!
//! Experiments and soaks are embarrassingly parallel: every trial is a pure
//! function of `(algorithm, sweep, seed)` and trials never communicate. This
//! module partitions an indexed set of such trials across a
//! [`std::thread::scope`] pool (no dependencies, no unsafe) and returns the
//! results **in index order**, so any output derived from them is
//! byte-identical to a sequential run — parallelism only changes wall-clock
//! time, never a report.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `task(0..count)` on up to `jobs` worker threads and returns the
/// results in index order.
///
/// Work is distributed by an atomic index counter (work stealing at the
/// granularity of one trial), so uneven trial costs don't idle workers.
/// With `jobs <= 1` the tasks run inline on the caller's thread, in order —
/// the sequential baseline the parallel path must be indistinguishable from.
///
/// # Panics
///
/// Propagates a panic from any task (the scope joins all workers first).
pub fn run_indexed<T, F>(jobs: usize, count: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let jobs = jobs.max(1).min(count.max(1));
    if jobs == 1 {
        return (0..count).map(task).collect();
    }

    let next = AtomicUsize::new(0);
    let task = &task;
    let next = &next;
    let mut buckets: Vec<Vec<(usize, T)>> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        local.push((i, task(i)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => buckets.push(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, value) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} ran twice");
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("index {i} never ran")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 3, 8] {
            let out = run_indexed(jobs, 37, |i| i * i);
            assert_eq!(
                out,
                (0..37).map(|i| i * i).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_for_uneven_tasks() {
        // Tasks of wildly different cost still land in the right slots.
        let work = |i: usize| {
            let mut acc = 0u64;
            for k in 0..(i % 7) * 10_000 {
                acc = acc.wrapping_add(k as u64).rotate_left(1);
            }
            (i, acc)
        };
        assert_eq!(run_indexed(4, 50, work), run_indexed(1, 50, work));
    }

    #[test]
    fn zero_count_and_oversubscription_are_fine() {
        assert_eq!(run_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(64, 3, |i| i), vec![0, 1, 2]);
    }
}
