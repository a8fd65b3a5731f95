//! A std-only pool for independent indexed jobs: one shared cursor.
//!
//! Every worker claims the next job index with one `fetch_add` on a shared
//! counter until it passes the job count, so jobs start in input order and
//! no job waits behind a busy worker while another is free. The engine's
//! jobs are victim clusters of a millisecond or more each, independent of
//! one another, so one atomic per job is all the coordination they need.
//! Every job runs under [`std::panic::catch_unwind`], so one panicking job
//! surfaces as an error result instead of tearing down the run. Each result
//! lands in its job's slot, so the output is in job order whichever worker
//! ran what when.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

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

/// Run jobs `0..n_jobs` across `workers` threads and return each job's
/// result in job order — `Ok` holds the job's return value, `Err` the panic
/// message if the job panicked — and each worker's busy time (time spent
/// inside jobs). The job function receives the job index.
///
/// # Panics
///
/// Panics if `workers == 0` or a worker thread itself dies outside a job
/// (both are scheduler bugs, not job faults).
pub(crate) fn run<T, F>(
    workers: usize,
    n_jobs: usize,
    job: F,
) -> (Vec<Result<T, String>>, Vec<Duration>)
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    assert!(workers > 0, "need at least one worker");
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<T, String>>> = (0..n_jobs).map(|_| OnceLock::new()).collect();
    let work = || {
        let mut busy = Duration::ZERO;
        loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= n_jobs {
                return busy;
            }
            pcv_trace::value("engine.queue_depth", (n_jobs - idx - 1) as u64);
            let start = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| job(idx))).map_err(panic_message);
            busy += start.elapsed();
            assert!(slots[idx].set(result).is_ok(), "job {idx} claimed twice");
        }
    };

    let busy = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
        handles
            .into_iter()
            .map(|h| {
                let busy = h.join().expect("worker thread died outside a job");
                pcv_trace::value("engine.worker_busy_us", busy.as_micros() as u64);
                busy
            })
            .collect()
    });
    let results =
        slots.into_iter().map(|s| s.into_inner().expect("every job reports exactly once"));
    (results.collect(), busy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 4] {
            let (results, busy) = run(workers, 37, |i| i * i);
            assert_eq!(busy.len(), workers);
            for (i, r) in results.iter().enumerate() {
                assert_eq!(*r, Ok(i * i));
            }
        }
    }

    #[test]
    fn empty_run_is_fine() {
        let (results, busy) = run(4, 0, |i| i);
        assert!(results.is_empty());
        assert_eq!(busy, vec![Duration::ZERO; 4]);
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
    fn one_worker_runs_jobs_in_input_order() {
        let calls = Mutex::new(Vec::new());
        let (results, _) = run(1, 9, |i| calls.lock().unwrap().push(i));
        assert_eq!(results.len(), 9);
        assert_eq!(calls.into_inner().unwrap(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn a_busy_worker_strands_no_job() {
        // Job 0 holds its worker until every other job has finished, so
        // the other worker must run all of them. The timeout only turns a
        // stranded job into a failure instead of a hang.
        let n = 12;
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        let (results, _) = run(2, n, |i| {
            if i == 0 {
                let rx = rx.lock().unwrap();
                (1..n).all(|_| rx.recv_timeout(Duration::from_secs(60)).is_ok())
            } else {
                tx.send(i).unwrap();
                true
            }
        });
        assert_eq!(results, vec![Ok(true); n]);
    }
}
