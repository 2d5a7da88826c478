//! Hypervisor steal over time. On a shared virtual machine the host takes
//! CPU time away from the guest, in bursts and at levels that drift from
//! minute to minute, and every request timed while it does is slower for
//! reasons outside the program. A sampler thread reads the host's steal
//! counter while a phase runs, so each measurement window can be ranked
//! by the share of CPU time stolen during it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How often the sampler reads `/proc/stat` (its counters move in 10 ms
/// ticks).
const PERIOD: Duration = Duration::from_millis(10);

/// Readings of `/proc/stat`: when, stolen ticks, all ticks.
#[derive(Debug, Default)]
pub struct StealLog {
    readings: Vec<(Instant, u64, u64)>,
}

impl StealLog {
    /// Runs `f` while a sampler thread logs readings, with one reading
    /// just before and one just after it.
    pub fn during<T>(f: impl FnOnce() -> T) -> (T, StealLog) {
        let stop = AtomicBool::new(false);
        let mut log = StealLog::default();
        log.read();
        let (value, mut sampled) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut sampled = StealLog::default();
                // ORDERING: a stop flag; nothing is published through it.
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    sampled.read();
                }
                sampled
            });
            let value = f();
            // ORDERING: as above.
            stop.store(true, Ordering::Relaxed);
            (value, sampler.join().unwrap_or_default())
        });
        log.readings.append(&mut sampled.readings);
        log.read();
        (value, log)
    }

    fn read(&mut self) {
        if let Some((stolen, all)) = cpu_ticks() {
            self.readings.push((Instant::now(), stolen, all));
        }
    }

    /// The share of CPU time stolen from the last reading at or before
    /// `from` to the first at or after `to`; `None` when the log does not
    /// span the interval.
    #[must_use]
    pub fn share(&self, from: Instant, to: Instant) -> Option<f64> {
        let before = self.readings.partition_point(|r| r.0 <= from);
        let (_, s0, t0) = *self.readings.get(before.checked_sub(1)?)?;
        let (_, s1, t1) = *self
            .readings
            .get(self.readings.partition_point(|r| r.0 < to))?;
        (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
    }
}

/// The host's `(stolen, all)` CPU ticks from `/proc/stat`: stolen ticks
/// are time the hypervisor ran someone else while this VM wanted the CPU.
#[must_use]
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_spans_the_readings_around_the_interval() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let log = StealLog {
            readings: vec![(at(0), 10, 100), (at(10), 12, 120), (at(20), 12, 140)],
        };
        assert_eq!(log.share(at(0), at(10)), Some(0.1));
        assert_eq!(log.share(at(5), at(15)), Some(0.05));
        assert_eq!(log.share(at(10), at(20)), Some(0.0));
        assert_eq!(log.share(at(5), at(25)), None);
    }
}
