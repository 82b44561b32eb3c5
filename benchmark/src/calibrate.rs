//! A fixed reference kernel, timed next to every job.
//!
//! The hosts this benchmark runs on are shared: for seconds to minutes at
//! a time something below the hypervisor slows both cores by 10–80 % (CPU
//! time inflates with wall time, steal stays near zero). Medians of raw
//! job times then differ between two runs of one commit by 8–35 %, more
//! than any bound worth gating on. The kernel here is the benchmark's own
//! code — text scanning, integer parsing, hashing into a map and growing
//! vectors, on as many threads as a job has map workers — so no change to
//! the program can move it, and whatever slows the host slows it too.
//! Every job's wall time is divided by the kernel runs nearest to it in
//! time ([`scale_each`]); every statistic of a run is taken over that one
//! scaled series.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::procstat;
use crate::spec::WORKERS;

/// Pieces the kernel's input is cut into. Workers take the next piece
/// off a shared counter, the way a job's map workers take segments, so a
/// core that is slowed for a moment costs the kernel what it costs a job:
/// its share of the work, not a wait for the slower half. (With one fixed
/// half per worker the kernel slowed by up to a sixth more than the
/// jobs next to it.)
const PIECES: usize = 32;
/// Lines per piece at full scale.
const LINES_PER_PIECE: usize = 22_500;

/// The unit of every scaled time: a scaled millisecond is a millisecond
/// of a host on which one kernel run takes this long. It is the fastest
/// the kernel ran on the host the benchmark was defined on, so scaled and
/// raw values agree on a quiet host of that kind. Changing it rescales
/// every result and nothing else.
pub const NOMINAL_MS: f64 = 31.5;
/// The same unit for CPU time: the process CPU one kernel run takes on
/// that host (two workers, busy for 97 % of its wall).
pub const NOMINAL_CPU_MS: f64 = 61.0;

/// Kernel runs on each side of a measurement that its scale factor
/// looks at: wide enough that one disturbed kernel run (about one in
/// ten is) cannot move the factor, narrow enough (under two seconds of
/// jobs) to follow the host's drift.
const SMOOTHING_REACH: usize = 2;

/// The kernel's fixed input, built once per process. It does not depend
/// on `--seed`: the same work every run is the point.
pub struct Reference {
    pieces: Vec<Vec<u8>>,
}

impl Reference {
    /// Renders the input — log-like lines of decimal fields, `1/divisor`
    /// of the full amount (`--smoke` shrinks the kernel with the
    /// workloads) — and runs the kernel twice untimed, so the first timed
    /// run does not pay for first-touch page faults.
    pub fn new(divisor: usize) -> Reference {
        let lines = (LINES_PER_PIECE / divisor.max(1)).max(1);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            // xorshift64*: any fixed, well-mixed stream will do.
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let pieces = (0..PIECES)
            .map(|_| {
                let mut text = Vec::with_capacity(lines * 48);
                for i in 0..lines {
                    let r = next();
                    let line = format!(
                        "{}\t{}\t{}\t{:016x}\n",
                        1_420_000_000 + i as u64,
                        r % 5_000,
                        (r >> 20) % 97,
                        r
                    );
                    text.extend_from_slice(line.as_bytes());
                }
                text
            })
            .collect();
        let reference = Reference { pieces };
        reference.run();
        reference.run();
        reference
    }

    /// Runs the kernel once and returns its wall time and the process CPU
    /// time that passed meanwhile (both workers busy throughout, where
    /// `/proc` cannot say).
    pub fn run_with_cpu(&self) -> (Duration, Duration) {
        let before = procstat::process_cpu();
        let wall = self.run();
        let cpu = match (before, procstat::process_cpu()) {
            (Some(before), Some(after)) => after.since(&before).total(),
            _ => wall * WORKERS as u32,
        };
        (wall, cpu)
    }

    /// Runs the kernel once and returns its wall time.
    pub fn run(&self) -> Duration {
        // Counts pieces handed out and publishes nothing else: the pieces
        // themselves were written before any worker started.
        let next = AtomicUsize::new(0);
        let started = Instant::now();
        let sum: u64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut sum = 0u64;
                        while let Some(piece) =
                            self.pieces.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            sum = sum.wrapping_add(scan(piece));
                        }
                        sum
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference kernel panicked"))
                .fold(0, u64::wrapping_add)
        });
        black_box(sum);
        started.elapsed()
    }
}

/// The factor to multiply measurement `i` by, given the kernel's wall
/// time just before each measurement: [`NOMINAL_MS`] over the median of the
/// kernel runs within two of `i` on either side.
fn scale_factors(reference_ms: &[f64]) -> Vec<f64> {
    (0..reference_ms.len())
        .map(|i| {
            let lo = i.saturating_sub(SMOOTHING_REACH);
            let hi = (i + SMOOTHING_REACH + 1).min(reference_ms.len());
            NOMINAL_MS / crate::stats::median(&reference_ms[lo..hi])
        })
        .collect()
}

/// Every measurement scaled by the kernel runs nearest to it in time.
pub fn scale_each(values: &[f64], reference_ms: &[f64]) -> Vec<f64> {
    values
        .iter()
        .zip(scale_factors(reference_ms))
        .map(|(v, f)| v * f)
        .collect()
}

/// One piece: split lines and fields, parse the decimal ones, group the
/// third by the second, fold everything into a checksum.
fn scan(text: &[u8]) -> u64 {
    let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut sum = 0u64;
    for line in text.split(|b| *b == b'\n') {
        let mut fields = line.split(|b| *b == b'\t');
        let mut number = || {
            fields.next().map_or(0u64, |f| {
                f.iter().fold(0u64, |n, b| {
                    n.wrapping_mul(10).wrapping_add(u64::from(b & 0x0f))
                })
            })
        };
        let (ts, key, value) = (number(), number(), number());
        sum = sum.rotate_left(5) ^ ts;
        groups.entry(key).or_default().push(value);
    }
    for (key, values) in &groups {
        sum = sum.wrapping_add(key.wrapping_mul(values.iter().sum::<u64>() | 1));
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_work() {
        let r = Reference::new(100);
        assert_eq!(r.pieces.len(), PIECES);
        assert_eq!(scan(&r.pieces[0]), scan(&r.pieces[0]));
        assert_ne!(scan(&r.pieces[0]), scan(&r.pieces[1]));
        assert_eq!(r.pieces, Reference::new(100).pieces);
        assert!(r.run() > Duration::ZERO);
    }

    #[test]
    fn factors_follow_drift_and_ignore_one_outlier() {
        let nominal = NOMINAL_MS;
        // A quiet host reads 1.0 throughout, one disturbed kernel run or not.
        let mut quiet = vec![nominal; 9];
        quiet[4] = nominal * 1.6;
        assert!(scale_factors(&quiet)
            .iter()
            .all(|f| (f - 1.0).abs() < 1e-12));
        // A host that slows by a quarter half way is followed within the reach.
        let drift: Vec<f64> = (0..10)
            .map(|i| if i < 5 { nominal } else { nominal * 1.25 })
            .collect();
        let f = scale_factors(&drift);
        assert!((f[0] - 1.0).abs() < 1e-12 && (f[9] - 0.8).abs() < 1e-12);
        assert!((f[3] - 1.0).abs() < 1e-12 && (f[6] - 0.8).abs() < 1e-12);
        assert!(scale_factors(&[]).is_empty());
        assert!((scale_factors(&[nominal * 2.0])[0] - 0.5).abs() < 1e-12);
        assert_eq!(scale_each(&[10.0; 3], &[nominal * 2.0; 3]), [5.0; 3]);
    }
}
