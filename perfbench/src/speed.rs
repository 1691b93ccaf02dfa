//! Host-speed calibration of the gated times.
//!
//! The shared machine this benchmark was built on changes speed for
//! minutes at a time as neighbouring jobs come and go: the same B1 search
//! took 5.0 s of process CPU time in one five-minute stretch and 2.5 s in
//! the next, and batch-1 serving moved between 0.22 and 0.13 ms within a
//! minute. Process CPU time does not help; the slowdown is on the core
//! itself (a latency-bound integer loop kept its speed while
//! throughput-bound code slowed). No choice of window or statistic inside
//! one run removes a shift that lasts longer than the run.
//!
//! So the benchmark times a fixed reference kernel of its own between its
//! samples, and scales every gated time by how fast the reference ran
//! around that sample: a sample taken while the reference ran at twice its
//! nominal time counts half. The reference is the benchmark's code, not the
//! repository's, so no change to the program moves it; a slower program is
//! slower against the same reference. Each metric's base prints the raw
//! median and the reference's median next to the calibrated value.

use crate::report::{median, Better, Report};
use crate::setup::cpu_seconds;
use std::hint::black_box;

/// CPU seconds the reference kernel takes when the host runs at full speed
/// (measured on a 2-vCPU x86-64 VM in its fast state). Calibrated values
/// are in seconds of that host.
pub const REFERENCE_NOMINAL_S: f64 = 0.010;

/// The reference kernel: naive f32 matrix products (throughput-bound
/// arithmetic, like the convolutions and GEMMs under test) and sorts of
/// pseudo-random integers (branches and memory, like the search's control
/// plane). Returns a checksum so that nothing is optimized away.
fn reference_kernel() -> f64 {
    const N: usize = 64;
    let a: Vec<f32> = (0..N * N)
        .map(|i| ((i * 7919) % 97) as f32 / 97.0)
        .collect();
    let b: Vec<f32> = (0..N * N)
        .map(|i| ((i * 104_729) % 89) as f32 / 89.0)
        .collect();
    let mut c = vec![0f32; N * N];
    for _ in 0..32 {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * b[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut v = vec![0u32; 8192];
    let mut sum = 0u64;
    for _ in 0..24 {
        for x in v.iter_mut() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *x = (state >> 33) as u32;
        }
        v.sort_unstable();
        sum = sum.wrapping_add(u64::from(black_box(&v)[v.len() / 2]));
    }
    f64::from(c[N + 1]) + sum as f64
}

/// The reference's CPU seconds, timed between samples. Sample `i` of a
/// [`Series`] falls in interval `i`: after tick `i` and before tick `i + 1`.
pub struct HostSpeed {
    ticks: Vec<f64>,
}

impl HostSpeed {
    /// Starts with a first tick.
    pub fn new() -> HostSpeed {
        // One unmeasured run, so the first tick does not pay for warm-up.
        black_box(reference_kernel());
        let mut s = HostSpeed { ticks: Vec::new() };
        s.tick();
        s
    }

    /// Times the reference once, closing the current interval.
    pub fn tick(&mut self) {
        let t0 = cpu_seconds();
        black_box(reference_kernel());
        self.ticks.push(cpu_seconds() - t0);
    }

    /// The interval a sample taken now falls in.
    pub fn interval(&self) -> usize {
        self.ticks.len() - 1
    }

    /// Reference seconds around interval `i`: the mean of the ticks before
    /// and after it (the tick before alone, while the interval is open).
    fn around(&self, i: usize) -> f64 {
        match self.ticks.get(i + 1) {
            Some(after) => (self.ticks[i] + after) / 2.0,
            None => self.ticks[i],
        }
    }

    /// Mean reference seconds of the ticks from `LONG_WINDOW` before
    /// interval `i` to `LONG_WINDOW` after it.
    fn window(&self, i: usize) -> f64 {
        let lo = i.saturating_sub(LONG_WINDOW);
        let hi = (i + 2 + LONG_WINDOW).min(self.ticks.len());
        self.ticks[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
    }

    /// Median reference seconds of the run, for the bases.
    pub fn median_s(&self) -> f64 {
        median(&self.ticks)
    }
}

/// Ticks on each side of a long sample that its reference averages: those
/// of the four side rounds (two ticks each) before and after a real-mode
/// search.
const LONG_WINDOW: usize = 8;

/// Share, on a log scale, of the reference's slowdown that a long sample
/// is taken to suffer.
const LONG_EXPONENT: f64 = 0.5;

/// Samples of one metric, each with the interval it was taken in.
#[derive(Debug, Default)]
pub struct Series {
    samples: Vec<(usize, f64)>,
    /// Samples that each span many ticks (a real-mode search, seconds
    /// long): see [`Series::long`].
    long: bool,
}

impl Series {
    /// A series of samples that each span many ticks.
    ///
    /// The reference flips between two speeds every few seconds, and the
    /// two ticks around a seconds-long search say little about its inside.
    /// Its reference is the mean of the ticks in a window around it. And
    /// fine-tuning slows by less than the reference in the slow state
    /// (measured: 1.1x for B7 and 1.45x for B1, against the reference's
    /// 1.7x), so it is scaled by the square root of the reference's ratio:
    /// full scaling overcorrected B7 and none left B1 as noisy as raw.
    pub fn long() -> Series {
        Series {
            samples: Vec::new(),
            long: true,
        }
    }

    /// Records a raw sample taken now.
    pub fn push(&mut self, speed: &HostSpeed, raw: f64) {
        self.samples.push((speed.interval(), raw));
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The raw samples.
    pub fn raw(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// The samples scaled to the reference's nominal speed: a time is
    /// multiplied by nominal / reference seconds around it, a rate divided
    /// (for a [`Series::long`], by the square root of that ratio over a
    /// window of ticks).
    pub fn calibrated(&self, speed: &HostSpeed, better: Better) -> Vec<f64> {
        self.samples
            .iter()
            .map(|&(i, raw)| {
                let f = if self.long {
                    (REFERENCE_NOMINAL_S / speed.window(i)).powf(LONG_EXPONENT)
                } else {
                    REFERENCE_NOMINAL_S / speed.around(i)
                };
                match better {
                    Better::Lower => raw * f,
                    Better::Higher => raw / f,
                }
            })
            .collect()
    }

    /// Reports the median calibrated sample under `name`; the base adds
    /// the sample count, the raw median and the reference to `what`.
    pub fn report(
        &self,
        r: &mut Report,
        speed: &HostSpeed,
        name: &str,
        unit: &'static str,
        better: Better,
        what: &str,
    ) {
        r.metric(
            name,
            median(&self.calibrated(speed, better)),
            unit,
            format!(
                "{what}; host-speed calibrated median of {} samples (raw median {:.6e}, \
                 reference median {:.3} ms, nominal {} ms)",
                self.len(),
                median(&self.raw()),
                speed.median_s() * 1e3,
                REFERENCE_NOMINAL_S * 1e3
            ),
        );
    }
}

impl From<Vec<(usize, f64)>> for Series {
    /// Short samples with the intervals they were taken in.
    fn from(samples: Vec<(usize, f64)>) -> Series {
        Series {
            samples,
            long: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-12, "{got:?} != {want:?}");
        }
    }

    fn speed(ticks: &[f64]) -> HostSpeed {
        HostSpeed {
            ticks: ticks.to_vec(),
        }
    }

    #[test]
    fn samples_are_scaled_by_the_reference_around_them() {
        let n = REFERENCE_NOMINAL_S;
        // Interval 0 between ticks at nominal speed, interval 1 between a
        // nominal tick and one at half speed, interval 2 still open.
        let s = speed(&[n, n, 3.0 * n]);
        let series = Series::from(vec![(0, 6.0), (1, 6.0), (2, 6.0)]);
        close(&series.calibrated(&s, Better::Lower), &[6.0, 3.0, 2.0]);
        close(&series.calibrated(&s, Better::Higher), &[6.0, 12.0, 18.0]);
    }

    #[test]
    fn long_samples_take_the_root_of_a_window_mean() {
        let n = REFERENCE_NOMINAL_S;
        // Interval 0 averages ticks 0..=9 (mean 4n); interval 18 averages
        // ticks 10..=27: ten at 4n and eight slow ones at 15.25n, mean 9n.
        let mut ticks = vec![4.0 * n; 20];
        ticks.extend([15.25 * n; 8]);
        let s = speed(&ticks);
        let mut series = Series::long();
        series.samples = vec![(0, 6.0), (18, 6.0)];
        close(&series.calibrated(&s, Better::Lower), &[3.0, 2.0]);
        close(&series.calibrated(&s, Better::Higher), &[12.0, 18.0]);
    }

    #[test]
    fn a_report_gives_the_calibrated_median_and_the_raw_one() {
        let n = REFERENCE_NOMINAL_S;
        let s = speed(&[2.0 * n, 2.0 * n]);
        let series = Series::from(vec![(0, 4.0), (0, 2.0), (0, 6.0)]);
        let mut r = Report::default();
        series.report(&mut r, &s, "x_s", "s", Better::Lower, "what");
        close(&[r.metrics[0].value], &[2.0]);
        assert!(r.metrics[0]
            .base
            .starts_with("what; host-speed calibrated median of 3"));
        assert!(r.metrics[0].base.contains("raw median 4.000000e0"));
    }

    #[test]
    fn samples_take_the_open_interval() {
        let mut s = HostSpeed::new();
        let mut series = Series::default();
        series.push(&s, 1.0);
        s.tick();
        series.push(&s, 1.0);
        assert_eq!(series.samples, vec![(0, 1.0), (1, 1.0)]);
        assert!(s.median_s() > 0.0);
    }
}
