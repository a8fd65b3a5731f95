//! A std-only work-stealing scheduler for independent indexed jobs.
//!
//! Jobs `0..n` are dealt round-robin onto per-worker deques. Each worker
//! pops from the back of its own deque (LIFO keeps its cache warm) and,
//! when empty, steals from the *front* of a sibling's deque (FIFO steals
//! take the oldest, largest-grained work). Every job runs under
//! [`std::panic::catch_unwind`], so one panicking job surfaces as an error
//! result instead of tearing down the run.
//!
//! Results are reported with their job index, so callers can reassemble a
//! deterministic, input-ordered output regardless of which worker ran what
//! when.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Scheduler-level statistics for one [`run_with_idle`].
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Jobs a worker stole from a sibling's deque.
    pub steals: u64,
    /// Per-worker time spent executing jobs.
    pub worker_busy: Vec<Duration>,
}

/// Extract a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Run jobs `0..n_jobs` across `workers` threads, stealing work between
/// them, and return each job's result in job order: `Ok` holds the job's
/// return value, `Err` the panic message if the job panicked. The job
/// function receives the job index.
///
/// `on_idle(worker)` fires once per worker the moment it finds no job in
/// its own deque and nothing left to steal — i.e. when it goes idle for
/// good. Observability hooks (progress sinks) use this to report tail-end
/// worker starvation; the callback runs on the worker thread and must not
/// panic.
///
/// # Panics
///
/// Panics if `workers == 0` or a worker thread itself dies outside a job
/// (both are scheduler bugs, not job faults).
pub fn run_with_idle<T, F, I>(
    workers: usize,
    n_jobs: usize,
    job: F,
    on_idle: I,
) -> (Vec<Result<T, String>>, RunStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    I: Fn(usize) + Sync,
{
    assert!(workers > 0, "need at least one worker");
    if n_jobs == 0 {
        for worker in 0..workers {
            on_idle(worker);
        }
        return (Vec::new(), RunStats { steals: 0, worker_busy: vec![Duration::ZERO; workers] });
    }

    // Deal jobs round-robin so initial queues are balanced.
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for idx in 0..n_jobs {
        deques[idx % workers].lock().expect("deque poisoned").push_back(idx);
    }

    let steals = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<T, String>)>();

    let mut busy = vec![Duration::ZERO; workers];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let steals = &steals;
            let job = &job;
            let on_idle = &on_idle;
            handles.push(scope.spawn(move || {
                let mut busy = Duration::ZERO;
                loop {
                    // Own queue first (back = most recently dealt).
                    let mut next = None;
                    {
                        let mut q = deques[me].lock().expect("deque poisoned");
                        if let Some(idx) = q.pop_back() {
                            pcv_trace::value("engine.queue_depth", q.len() as u64);
                            next = Some(idx);
                        }
                    }
                    if next.is_none() {
                        // Steal the oldest job from the first non-empty
                        // sibling.
                        for (other, deque) in deques.iter().enumerate() {
                            if other == me {
                                continue;
                            }
                            if let Some(idx) = deque.lock().expect("deque poisoned").pop_front() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                pcv_trace::count("engine.steals", 1);
                                next = Some(idx);
                                break;
                            }
                        }
                    }
                    let Some(idx) = next else {
                        on_idle(me);
                        break;
                    };
                    let start = Instant::now();
                    let result = catch_unwind(AssertUnwindSafe(|| job(idx))).map_err(panic_message);
                    busy += start.elapsed();
                    if tx.send((idx, result)).is_err() {
                        break;
                    }
                }
                busy
            }));
        }
        drop(tx);
        for (worker, h) in handles.into_iter().enumerate() {
            busy[worker] = h.join().expect("worker thread died outside a job");
            pcv_trace::value("engine.worker_busy_us", busy[worker].as_micros() as u64);
        }
    });

    let mut slots: Vec<Option<Result<T, String>>> = (0..n_jobs).map(|_| None).collect();
    for (idx, result) in rx {
        slots[idx] = Some(result);
    }
    let results = slots.into_iter().map(|s| s.expect("every job reports exactly once")).collect();
    (results, RunStats { steals: steals.load(Ordering::Relaxed), worker_busy: busy })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run<T: Send>(
        workers: usize,
        n_jobs: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> (Vec<Result<T, String>>, RunStats) {
        run_with_idle(workers, n_jobs, job, |_| {})
    }

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 4] {
            let (results, stats) = run(workers, 37, |i| i * i);
            assert_eq!(stats.worker_busy.len(), workers);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(*r, Ok(i * i));
            }
        }
    }

    #[test]
    fn empty_run_is_fine() {
        let (results, stats) = run(4, 0, |i| i);
        assert!(results.is_empty());
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn a_panicking_job_is_isolated() {
        let (results, _) = run(3, 10, |i| {
            if i == 4 {
                panic!("boom on {i}");
            }
            i + 1
        });
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                assert_eq!(r.as_ref().unwrap_err(), "boom on 4");
            } else {
                assert_eq!(*r, Ok(i + 1));
            }
        }
    }

    #[test]
    fn idle_callback_fires_once_per_worker() {
        use std::sync::atomic::AtomicU64;
        for (workers, jobs) in [(1usize, 5usize), (4, 9), (4, 0)] {
            let idles = AtomicU64::new(0);
            let (results, _) = run_with_idle(
                workers,
                jobs,
                |i| i,
                |_w| {
                    idles.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(results.len(), jobs);
            assert_eq!(idles.load(Ordering::Relaxed), workers as u64);
        }
    }

    #[test]
    fn uneven_jobs_get_stolen() {
        // Worker 0's queue holds all the slow jobs; the others must steal
        // to finish. With round-robin dealing over 2 workers, even indices
        // land on worker 0.
        let (results, stats) = run(2, 40, |i| {
            if i % 2 == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            i
        });
        assert_eq!(results.len(), 40);
        // Stealing is opportunistic, so only assert it is recorded
        // coherently.
        assert!(stats.steals <= 40);
    }
}
