//! Join progress heartbeats.
//!
//! A [`Progress`] meter counts processed candidate pairs with a single
//! shared atomic; worker threads add in batches (every few thousand
//! pairs) so the counter never contends on the per-pair path. A monitor
//! thread — see [`Progress::run_reporter`] — periodically prints a
//! `pairs/sec` heartbeat line to stderr, keeping stdout clean for
//! pipeable join output.
//!
//! Executors that track scheduler metrics also feed per-task busy time
//! into the meter ([`Progress::add_busy`] after
//! [`Progress::set_workers`]); the heartbeat then appends worker
//! utilization — busy time over `workers × elapsed` — so a stalled
//! line readily distinguishes "one skewed task pinning one worker"
//! from "everyone still busy".

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Worker batch size: add to the shared counter every this many pairs.
pub const BATCH: u64 = 4096;

/// A shared join-progress counter.
#[derive(Debug)]
pub struct Progress {
    done: AtomicU64,
    start: Instant,
    /// Workers feeding [`Progress::add_busy`]; `0` hides utilization.
    workers: AtomicU64,
    busy_ns: AtomicU64,
}

/// A fresh meter, its clock started. There is no expected total: the
/// streaming executor learns the candidate count only as generation
/// finishes.
impl Default for Progress {
    fn default() -> Progress {
        Progress {
            done: AtomicU64::new(0),
            start: Instant::now(),
            workers: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }
}

impl Progress {
    /// Declares how many workers will report busy time; heartbeats
    /// include a utilization figure once this is nonzero.
    pub fn set_workers(&self, n: usize) {
        self.workers.store(n as u64, Ordering::Relaxed);
    }

    /// Records `ns` nanoseconds of worker busy time (called at task
    /// boundaries, not per pair).
    #[inline]
    pub fn add_busy(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Mean busy fraction across declared workers so far, or `None`
    /// before [`Progress::set_workers`].
    pub fn utilization(&self) -> Option<f64> {
        let workers = self.workers.load(Ordering::Relaxed);
        if workers == 0 {
            return None;
        }
        let elapsed = self.start.elapsed().as_nanos() as u64;
        if elapsed == 0 {
            return Some(0.0);
        }
        let busy = self.busy_ns.load(Ordering::Relaxed);
        Some((busy as f64 / (workers * elapsed) as f64).min(1.0))
    }

    /// Records `n` more processed pairs.
    #[inline]
    pub fn add(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Pairs recorded so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// One heartbeat line, e.g.
    /// `progress: 1234567 pairs, 812345 pairs/sec, 8 workers 97% busy`.
    pub fn report_line(&self) -> String {
        let done = self.done();
        let secs = self.start.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { done as f64 / secs } else { 0.0 };
        let mut line = format!("progress: {done} pairs, {rate:.0} pairs/sec");
        if let Some(util) = self.utilization() {
            let workers = self.workers.load(Ordering::Relaxed);
            line.push_str(&format!(", {workers} workers {:.0}% busy", 100.0 * util));
        }
        line
    }

    /// Heartbeat loop for a monitor thread: prints [`report_line`] to
    /// stderr every `interval` until `stop` is set, then prints a final
    /// line. Returns the number of heartbeats printed (including the
    /// final one).
    ///
    /// [`report_line`]: Progress::report_line
    pub fn run_reporter(&self, stop: &AtomicBool, interval: Duration) -> u64 {
        let mut beats = 0u64;
        while !stop.load(Ordering::Acquire) {
            // Sleep in short slices so a finished join never waits a
            // full interval for the monitor to exit.
            let slice = Duration::from_millis(25).min(interval);
            let mut slept = Duration::ZERO;
            while slept < interval && !stop.load(Ordering::Acquire) {
                std::thread::sleep(slice);
                slept += slice;
            }
            if stop.load(Ordering::Acquire) {
                break;
            }
            eprintln!("{}", self.report_line());
            beats += 1;
        }
        eprintln!("{}", self.report_line());
        let _ = std::io::stderr().flush();
        beats + 1
    }
}

/// A worker-local batcher that flushes to a shared [`Progress`] every
/// [`BATCH`] pairs (and on drop), keeping atomic traffic off the
/// per-pair path.
pub struct ProgressBatch<'a> {
    progress: &'a Progress,
    pending: u64,
}

impl<'a> ProgressBatch<'a> {
    /// A batcher feeding `progress`.
    pub fn new(progress: &'a Progress) -> ProgressBatch<'a> {
        ProgressBatch {
            progress,
            pending: 0,
        }
    }

    /// Counts one pair, flushing when the batch fills.
    #[inline]
    pub fn tick(&mut self) {
        self.pending += 1;
        if self.pending >= BATCH {
            self.progress.add(self.pending);
            self.pending = 0;
        }
    }
}

impl Drop for ProgressBatch<'_> {
    fn drop(&mut self) {
        if self.pending > 0 {
            self.progress.add(self.pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_add_up() {
        let p = Progress::default();
        p.add(40);
        p.add(2);
        assert_eq!(p.done(), 42);
        let line = p.report_line();
        assert!(line.contains("42 pairs"), "{line}");
        assert!(line.contains("pairs/sec"), "{line}");
        assert!(!line.contains('%'), "no percentage without a total: {line}");
    }

    #[test]
    fn utilization_appears_once_workers_report_busy_time() {
        let p = Progress::default();
        assert!(p.utilization().is_none());
        p.set_workers(2);
        std::thread::sleep(Duration::from_millis(5));
        let elapsed = Duration::from_millis(5).as_nanos() as u64;
        // Both workers fully busy for the measured window (and then
        // some, to absorb scheduling slop): clamps to 100%.
        p.add_busy(4 * elapsed);
        let util = p.utilization().expect("workers declared");
        assert!(util > 0.5, "{util}");
        let line = p.report_line();
        assert!(line.contains("2 workers"), "{line}");
        assert!(line.contains("% busy"), "{line}");
    }

    #[test]
    fn batcher_flushes_on_fill_and_drop() {
        let p = Progress::default();
        {
            let mut b = ProgressBatch::new(&p);
            for _ in 0..BATCH + 10 {
                b.tick();
            }
            assert_eq!(p.done(), BATCH);
        }
        assert_eq!(p.done(), BATCH + 10);
    }

    #[test]
    fn reporter_exits_on_stop() {
        let p = Progress::default();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| p.run_reporter(&stop, Duration::from_millis(10)));
            p.add(10);
            std::thread::sleep(Duration::from_millis(60));
            stop.store(true, Ordering::Release);
            let beats = handle.join().expect("reporter panicked");
            assert!(beats >= 1);
        });
    }
}
