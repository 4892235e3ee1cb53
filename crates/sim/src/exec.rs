//! The one worker pool every parallel job list in the workspace runs on.
//!
//! Experiment grids, probed grids, sampling units and trace recordings
//! are all lists of independent, deterministic jobs. [`execute`] fans
//! such a list out over scoped `std::thread` workers that pull indices
//! from a shared atomic cursor and write into per-item slots, so results
//! come back in *item order* whichever worker finished first: the
//! output is the same at any thread count. Job-specific concerns (panic
//! isolation, journaling, telemetry, assembly) stay with the callers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `job(i, &items[i])` for every item on up to `threads` workers
/// (`threads <= 1` runs sequentially on the calling thread) and returns
/// one slot per item, in item order.
///
/// `stop` is polled before every dispatch with the number of jobs
/// completed so far; once it returns `true` no further item is
/// dispatched and the slots of undispatched items stay `None`. Jobs
/// already running finish. With one thread the stop is exact: after
/// `stop(n)` first fires, exactly the first `n` slots are filled.
///
/// A panicking job is not caught here: callers that need per-item
/// isolation wrap `job` in `catch_unwind`.
pub fn execute<T, U>(
    items: &[T],
    threads: usize,
    stop: impl Fn(usize) -> bool + Sync,
    job: impl Fn(usize, &T) -> U + Sync,
) -> Vec<Option<U>>
where
    T: Sync,
    U: Send,
{
    let threads = threads.clamp(1, items.len().max(1));
    // The cursor hands out indices and publishes nothing else. The
    // completed count only feeds `stop` (Release on finish, Acquire on
    // poll); results travel through the slot mutexes and are read after
    // every worker has joined.
    let cursor = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        if stop(completed.load(Ordering::Acquire)) {
            break;
        }
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let out = job(i, item);
        *slots[i].lock().expect("result slot") = Some(out);
        completed.fetch_add(1, Ordering::Release);
    };
    if threads == 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("result slot"))
        .collect()
}
