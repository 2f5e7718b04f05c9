//! The benchmark's only wall-clock reads, and the machine-speed probe that
//! turns them into reference seconds. Everything else in this package (and
//! the whole program under test) stays clock-free, so the workspace's
//! `no-wallclock` contract holds outside this one file.
//!
//! The benchmark shares its host with other tenants, and the host's speed
//! drifts in phases of seconds to a minute: the same selection takes 1.5 s in
//! one phase and 2.4 s in the next. A fixed probe kernel, timed right before
//! and right after every sample, measures the phase, and each sample is
//! reported in *reference seconds*: wall seconds scaled to a machine that runs
//! the probe in exactly [`REFERENCE_PROBE_S`]. A change to the program moves
//! reference seconds exactly as it moves wall seconds, because the probe is
//! benchmark code and calls nothing in the workspace.

// c4u-lint: allow(no-wallclock, reason = "the benchmark harness is the timing layer")
use std::time::Instant;

/// A running wall-clock timer.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // c4u-lint: allow(no-wallclock, reason = "the benchmark harness is the timing layer")
    start: Instant,
}

impl Stopwatch {
    /// Starts a timer now.
    pub fn start() -> Self {
        Self {
            // c4u-lint: allow(no-wallclock, reason = "the benchmark harness is the timing layer")
            start: Instant::now(),
        }
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Probe wall time on the reference machine, by definition.
pub const REFERENCE_PROBE_S: f64 = 0.02;

/// Length of the probe's buffer (512 KiB of `f64`).
const PROBE_LEN: usize = 1 << 16;

/// Passes of the probe over its buffer.
const PROBE_PASSES: usize = 60;

/// The probe: fixed floating-point work (one `exp` per element) streamed
/// over a 512 KiB buffer, about 20 ms long. Of the kernels tried, this one
/// tracked the speed of a 30 000-worker selection best (correlation 0.77
/// over 140 runs, against 0.68 for scattered `exp` + `ln_1p` over 256 KiB).
/// The buffer is allocated once, so no run pays for page faults.
fn probe_work(values: &mut [f64]) -> f64 {
    for (i, v) in values.iter_mut().enumerate() {
        *v = i as f64 * 1e-5;
    }
    let mut sum = 0.0;
    for _ in 0..PROBE_PASSES {
        for v in values.iter_mut() {
            let y = 0.5 * (-*v).exp() + 0.25;
            *v = y;
            sum += y;
        }
    }
    sum
}

/// Converts the wall time of consecutive samples into reference seconds.
#[derive(Debug)]
pub struct SpeedProbe {
    buffer: Vec<f64>,
    last_s: f64,
}

impl SpeedProbe {
    /// Probes once, before the first sample.
    pub fn start() -> Self {
        let mut probe = Self {
            buffer: vec![0.0; PROBE_LEN],
            last_s: 0.0,
        };
        probe.last_s = probe.probe_s();
        probe
    }

    /// Wall seconds of one probe run.
    fn probe_s(&mut self) -> f64 {
        let t = Stopwatch::start();
        std::hint::black_box(probe_work(&mut self.buffer));
        t.elapsed_s()
    }

    /// Probes again, after a sample, and returns the factor that turns the
    /// sample's wall seconds into reference seconds: [`REFERENCE_PROBE_S`]
    /// over the mean of the probes right before and right after it. Above 1
    /// the host ran faster than the reference machine.
    pub fn scale(&mut self) -> f64 {
        let now_s = self.probe_s();
        let scale = REFERENCE_PROBE_S / (0.5 * (self.last_s + now_s));
        self.last_s = now_s;
        scale
    }
}
