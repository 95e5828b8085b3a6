//! Open-loop send discipline: every send has a due time fixed by the
//! schedule, independent of how fast earlier sends completed, and its
//! lag is measured from that due time. A stall therefore shows up in
//! the lag of every send queued behind it, not only in its own.

use std::time::{Duration, Instant};

/// Seconds since the start of the run, and a way to wait for a time.
pub trait Clock {
    fn now(&self) -> f64;
    fn sleep_until(&self, t: f64);
}

/// The wall clock, measured from its construction.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    pub fn starting_now() -> Self {
        WallClock {
            start: Instant::now(),
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn sleep_until(&self, t: f64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_secs_f64(t - now));
        }
    }
}

/// One timed send.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SendRecord {
    /// When the schedule wanted the send to start.
    pub due: f64,
    /// When the generator actually started it.
    pub started: f64,
    /// When the send call returned.
    pub done: f64,
}

impl SendRecord {
    /// Completion minus due time: the ingest lag.
    pub fn lag(&self) -> f64 {
        self.done - self.due
    }

    /// How late the generator started the send (0 when on time).
    pub fn late(&self) -> f64 {
        (self.started - self.due).max(0.0)
    }
}

/// Waits for `due`, runs `send`, and records the three instants.
pub fn send_at<C: Clock, T>(clock: &C, due: f64, send: impl FnOnce() -> T) -> (SendRecord, T) {
    clock.sleep_until(due);
    let started = clock.now();
    let out = send();
    let done = clock.now();
    (SendRecord { due, started, done }, out)
}

/// A deterministic clock for tests: sleeping jumps to the target time,
/// and work advances time by however long the test says it took.
#[cfg(test)]
#[derive(Default)]
pub struct FakeClock {
    t: std::cell::Cell<f64>,
}

#[cfg(test)]
impl FakeClock {
    pub fn advance(&self, dt: f64) {
        self.t.set(self.t.get() + dt);
    }
}

#[cfg(test)]
impl Clock for FakeClock {
    fn now(&self) -> f64 {
        self.t.get()
    }

    fn sleep_until(&self, t: f64) {
        if t > self.t.get() {
            self.t.set(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One 100 ms stall in a 10 ms schedule delays the sends behind it;
    /// their lag counts the wait from their own due time.
    #[test]
    fn a_stall_delays_later_sends_and_their_lag_counts_it() {
        let clock = FakeClock::default();
        let mut records = Vec::new();
        for k in 0..20 {
            let due = k as f64 * 0.010;
            let cost = if k == 5 { 0.100 } else { 0.001 };
            let (record, ()) = send_at(&clock, due, || clock.advance(cost));
            records.push(record);
        }
        // Before the stall: on time, lag = send cost.
        for r in &records[..5] {
            assert!((r.lag() - 0.001).abs() < 1e-12);
            assert_eq!(r.late(), 0.0);
        }
        // The stalled send itself.
        assert!((records[5].lag() - 0.100).abs() < 1e-12);
        // Send 6 was due at 60 ms but could only start at 150 ms.
        assert!((records[6].late() - 0.090).abs() < 1e-12);
        assert!((records[6].lag() - 0.091).abs() < 1e-12);
        // The backlog drains at 1 ms per send against a 10 ms schedule:
        // each later send is 9 ms less late than the one before.
        for pair in records[6..16].windows(2) {
            assert!((pair[0].late() - pair[1].late() - 0.009).abs() < 1e-12);
        }
        // Caught up again by send 16.
        assert!(records[16].late() < 1e-12);
        // A closed loop timing each send from its start would report
        // only the 1 ms cost for send 6; the open loop reports 91 ms.
        assert!(records[6].done - records[6].started < 0.002);
    }

    #[test]
    fn wall_clock_waits_for_the_due_time() {
        let clock = WallClock::starting_now();
        let (record, value) = send_at(&clock, 0.020, || 7);
        assert_eq!(value, 7);
        assert!(record.started >= 0.020);
        assert!(record.lag() >= 0.0);
    }
}
