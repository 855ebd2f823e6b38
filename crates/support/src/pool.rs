//! The one worker pool every fan-out in the workspace runs on.
//!
//! [`run`] hands the indices of `order` to up to `width` scoped workers,
//! which claim them one at a time from a shared counter, and returns the
//! results by index whichever worker ran them, so a caller's output never
//! depends on the worker count or on scheduling. Each [`Worker`] reports
//! the indices it claimed and, from [`run_timed`], the CPU time it spent
//! on them. Width 1 runs on the calling thread. A spawned worker hands
//! its telemetry spans to the global sink before it returns, so a
//! [`telemetry::drain_spans`] right after [`run`] sees them, and a job's
//! panic is re-raised on the caller with the job's own payload.
//!
//! # Examples
//!
//! ```
//! use ffisafe_support::pool;
//!
//! let (squares, workers) = pool::run(2, &[2, 0, 1], |i| i * i);
//! assert_eq!(squares, [0, 1, 4]);
//! assert_eq!(workers.iter().map(|w| w.claimed.len()).sum::<usize>(), 3);
//! ```

use crate::telemetry;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What one worker of a [`run`] or [`run_timed`] did.
#[derive(Clone, Debug)]
pub struct Worker {
    /// The indices this worker claimed, in claim order.
    pub claimed: Vec<usize>,
    /// On-CPU seconds over the worker's whole claim loop, read from the
    /// thread's lifetime counter by [`run_timed`]; `None` from [`run`] and
    /// where the counter does not exist.
    pub cpu_seconds: Option<f64>,
}

/// Runs `job` on every index of `order` with up to `width` workers and
/// returns the results by index, plus one [`Worker`] per worker that ran.
///
/// `order` must be a permutation of `0..order.len()`; it sets the order
/// in which workers claim the indices, and `results[i]` is always
/// `job(i)`. A `width` of 0 counts as 1, and no more workers start than
/// there are indices (none for an empty `order`).
pub fn run<T, F>(width: usize, order: &[usize], job: F) -> (Vec<T>, Vec<Worker>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(width, order, job, false)
}

/// [`run`], also reading each worker's on-CPU seconds from
/// [`thread_cpu_ns`] when it starts and when it runs out of indices.
pub fn run_timed<T, F>(width: usize, order: &[usize], job: F) -> (Vec<T>, Vec<Worker>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    fan_out(width, order, job, true)
}

fn fan_out<T, F>(width: usize, order: &[usize], job: F, timed: bool) -> (Vec<T>, Vec<Worker>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let next = AtomicUsize::new(0);
    let cpu = || if timed { thread_cpu_ns().map(|ns| ns as f64 * 1e-9) } else { None };
    let claim = || {
        let start = cpu();
        let (mut claimed, mut results) = (Vec::new(), Vec::new());
        while let Some(&idx) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            claimed.push(idx);
            results.push(job(idx));
        }
        let cpu_seconds = start.zip(cpu()).map(|(start, end)| (end - start).max(0.0));
        (Worker { claimed, cpu_seconds }, results)
    };
    let ran: Vec<(Worker, Vec<T>)> = match width.max(1).min(order.len()) {
        0 => Vec::new(),
        1 => vec![claim()],
        spawned => std::thread::scope(|scope| {
            let handles: Vec<_> = (0..spawned)
                .map(|_| {
                    scope.spawn(|| {
                        let out = claim();
                        // Scoped joins don't wait for thread-local teardown,
                        // so the spans must be handed off before returning.
                        telemetry::flush_thread();
                        out
                    })
                })
                .collect();
            // The scope waits for the other workers, then re-raises this
            // payload itself.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect()
        }),
    };

    let mut slots: Vec<Option<T>> = order.iter().map(|_| None).collect();
    let mut workers = Vec::with_capacity(ran.len());
    for (worker, results) in ran {
        for (&idx, result) in worker.claimed.iter().zip(results) {
            slots[idx] = Some(result);
        }
        workers.push(worker);
    }
    let results = slots.into_iter().map(|slot| slot.expect("`order` is a permutation")).collect();
    (results, workers)
}

/// The machine's available parallelism (at least 1): the core budget
/// every auto-sized pool width and fair share is computed from.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Nanoseconds this thread has spent on-CPU, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`. The kernel brings the running
/// slice up to date inside the call, so the value is exact to the
/// nanosecond without a scheduler event. `None` off Linux.
pub fn thread_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_long};
        /// `struct timespec`: `time_t` is a C `long` in this ABI.
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        extern "C" {
            fn clock_gettime(clock: c_int, now: *mut Timespec) -> c_int;
        }
        const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
        let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `now` is a live, writable `timespec` for the call, which
        // only fills it in.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) } != 0 {
            return None;
        }
        let (secs, nanos) = (u64::try_from(now.tv_sec).ok()?, u64::try_from(now.tv_nsec).ok()?);
        Some(secs * 1_000_000_000 + nanos)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_by_index_at_every_width() {
        let identity: Vec<usize> = (0..7).collect();
        let reversed: Vec<usize> = (0..7).rev().collect();
        for order in [&identity, &reversed] {
            for width in [1, 2, 8] {
                let (results, workers) = run(width, order, |i| format!("item {i}"));
                let want: Vec<String> = (0..7).map(|i| format!("item {i}")).collect();
                assert_eq!(results, want, "width {width}, order {order:?}");
                assert_eq!(workers.len(), width.min(7), "no more workers than items");
                let mut claimed: Vec<usize> =
                    workers.iter().flat_map(|w| w.claimed.clone()).collect();
                claimed.sort_unstable();
                assert_eq!(claimed, identity, "every index claimed exactly once");
            }
        }
    }

    #[test]
    fn one_worker_claims_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let order = [3, 1, 0, 2];
        let (threads, workers) = run(1, &order, |_| std::thread::current().id());
        assert!(threads.iter().all(|&t| t == caller), "width 1 spawns no thread");
        assert_eq!(workers.len(), 1);
        assert_eq!(workers[0].claimed, order, "claims follow `order`");
    }

    #[test]
    fn only_a_timed_run_reads_cpu_time() {
        let order: Vec<usize> = (0..4).collect();
        for width in [1, 2] {
            let (_, untimed) = run(width, &order, |i| i);
            assert!(untimed.iter().all(|w| w.cpu_seconds.is_none()), "width {width}");
            let (_, timed) = run_timed(width, &order, |i| i);
            let counter = thread_cpu_ns().is_some();
            assert!(timed.iter().all(|w| w.cpu_seconds.is_some() == counter), "width {width}");
        }
    }

    #[test]
    fn the_cpu_clock_advances_across_a_busy_loop_that_never_yields() {
        let wall = std::time::Instant::now();
        let Some(start) = thread_cpu_ns() else { return }; // no clock off Linux
        let mut spins = 0u64;
        while wall.elapsed() < std::time::Duration::from_micros(200) {
            spins = std::hint::black_box(spins + 1);
        }
        let end = thread_cpu_ns().expect("the clock read once reads again");
        let wall_ns = wall.elapsed().as_nanos() as u64;
        assert!(end > start, "200 µs on-CPU without a scheduler event left the clock at {start}");
        assert!(end - start <= wall_ns, "on-CPU {} ns over {wall_ns} ns of wall", end - start);
    }

    #[test]
    fn an_empty_order_starts_no_worker() {
        let (results, workers) = run(4, &[], |i| i);
        assert!(results.is_empty());
        assert!(workers.is_empty());
    }

    #[test]
    fn a_panicking_job_re_raises_its_own_payload_on_the_caller() {
        let order: Vec<usize> = (0..6).collect();
        for width in [1, 3] {
            let payload = panic::catch_unwind(|| {
                run(width, &order, |i| {
                    if i == 4 {
                        panic!("job {i} failed at width {width}");
                    }
                    i
                })
            })
            .expect_err("the job's panic reaches the caller");
            let message = payload.downcast::<String>().map(|m| *m).unwrap_or_default();
            assert_eq!(message, format!("job 4 failed at width {width}"));
        }
    }

    #[test]
    fn spans_recorded_in_jobs_are_drained_as_soon_as_run_returns() {
        let _guard = telemetry::tests::TRACING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        telemetry::drain_spans();
        telemetry::set_tracing(true);
        let order: Vec<usize> = (0..6).collect();
        for width in [1, 3] {
            run(width, &order, |_| drop(telemetry::span("pool.probe")));
            let events = telemetry::drain_spans();
            let probes = events.iter().filter(|e| e.name == "pool.probe").count();
            assert_eq!(probes, 6, "width {width}");
        }
        telemetry::set_tracing(false);
    }
}
