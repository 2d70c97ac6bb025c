//! Deterministic ordered fan-out over scoped threads.
//!
//! Every parallel path of the workspace — per-unit recording, per-badge-day
//! analysis, per-shard fleet scheduling — has the same shape: `n`
//! independent jobs whose results must come back in index order no matter
//! which thread ran which job. [`ordered_map`] is that shape, written once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Maps `f` over `0..n` on up to `workers` scoped threads and returns the
/// results in index order.
///
/// Threads claim indices from a shared atomic cursor and write each result
/// into its own write-once slot, so the output is identical to
/// `(0..n).map(f).collect()` for any worker count and any scheduling. When
/// `min(workers, n) <= 1` the map runs inline on the calling thread: no
/// thread is spawned and no slot vector is allocated.
///
/// # Panics
///
/// Re-raises the panic of any job.
pub fn ordered_map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                if slots[i].set(f(i)).is_err() {
                    unreachable!("index {i} claimed twice");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    #[test]
    fn empty_input_yields_nothing() {
        assert!(ordered_map(4, 0, |i| i).is_empty());
    }

    #[test]
    fn fewer_jobs_than_workers() {
        assert_eq!(ordered_map(8, 3, |i| i * 10), vec![0, 10, 20]);
    }

    #[test]
    fn zero_and_one_workers_run_inline() {
        let here = std::thread::current().id();
        for workers in [0, 1] {
            let ids: Vec<ThreadId> = ordered_map(workers, 5, |_| std::thread::current().id());
            assert!(ids.iter().all(|&id| id == here), "workers = {workers}");
        }
        // One job needs no thread either, however many workers are offered.
        assert_eq!(ordered_map(4, 1, |_| std::thread::current().id()), [here]);
    }

    #[test]
    fn order_is_kept_under_uneven_task_cost() {
        // Job 0 cannot finish until the last job has, so the other worker
        // runs every later job first; the output must still be in index
        // order.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let done_rx = std::sync::Mutex::new(done_rx);
        let finished = std::sync::Mutex::new(Vec::new());
        let out = ordered_map(2, 6, |i| {
            if i == 0 {
                done_rx.lock().unwrap().recv().unwrap();
            }
            finished.lock().unwrap().push(i);
            if i == 5 {
                done_tx.send(()).unwrap();
            }
            i * i
        });
        assert_eq!(out, [0, 1, 4, 9, 16, 25]);
        assert_eq!(finished.into_inner().unwrap().last(), Some(&0));
    }
}
