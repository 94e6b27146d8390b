//! The reference clock: host time scaled to the machine's reference speed.
//!
//! The benchmark runs on a shared virtual machine whose speed drifts with
//! its neighbours' load: a fixed compute loop timed back to back for 40 s
//! ranged from 0.76x to 1.44x its median, in spells of about a second, with
//! under 1 % steal time, so it is not preemption. Between runs of a few
//! seconds that drift is larger than the regressions the benchmark is
//! meant to catch.
//!
//! A [`RefClock`] times a phase in segments. At a [`RefClock::tick`] at
//! least [`PROBE_EVERY`] after the last probe it closes the segment and
//! times [`probe`], a fixed compute kernel that touches nothing of the
//! program. Each segment is scaled by [`REF_PROBE_S`] over the mean of the
//! probes on either side of it. A slower program is reported as slower; a
//! slower machine slows the probes alongside it and cancels out. Probe time
//! is left out of both the raw and the scaled time.
//!
//! The probe works on a 4 KiB array that stays in the L1 cache, so the
//! program's own cache footprint does not change how long it takes. It
//! follows the machine only in part: the program misses the caches far
//! more and slowed about three times as much when the neighbours were
//! busy. Probes that chase pointers through the L2 cache or beyond
//! followed it worse, because how long they take depends on what the
//! program left in the cache. A probe updating a 1 MiB hash map tracked a
//! repeated replay one for one in isolation, but over five seeds it left
//! the spread of `infer-minibatch` and `replay-sweep` no lower than this
//! one does.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::trace;

/// Least program time between two probes.
pub const PROBE_EVERY: Duration = Duration::from_millis(20);

/// [`probe`]'s median time on the machine the nominal figures come from
/// (2 vCPUs of an Intel Xeon at 2.1 GHz, in a quiet spell), s. Reference
/// seconds are seconds of that machine at that speed.
pub const REF_PROBE_S: f64 = 0.38e-3;

/// Times the fixed probe kernel once; returns its seconds.
pub fn probe() -> f64 {
    let _s = trace::span("refclock::probe", "bench", 0, "");
    let t = Instant::now();
    let mut words = [0u64; 512];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 1.0f64;
    for _ in 0..300 {
        for (i, w) in words.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = w.wrapping_add(x ^ i as u64);
            acc = acc * 1.000_001 + (*w & 0xff) as f64 * 1e-9;
        }
        black_box(&words);
    }
    black_box((acc, x));
    t.elapsed().as_secs_f64()
}

/// A phase's time, raw and on the reference clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Wall-clock, probes left out, s.
    pub raw_s: f64,
    /// The same time at the reference speed, s.
    pub ref_s: f64,
}

impl Timing {
    /// Reference seconds per raw second: what scales any other time taken
    /// during the phase onto the reference clock.
    pub fn factor(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.ref_s / self.raw_s
        } else {
            1.0
        }
    }
}

/// Times one phase on the reference clock, split into laps; see the
/// module docs.
pub struct RefClock {
    segment: Instant,
    last_probe_s: f64,
    lap: Timing,
    total: Timing,
}

impl RefClock {
    /// Probes once, then starts timing.
    pub fn start() -> RefClock {
        let last_probe_s = probe();
        RefClock {
            segment: Instant::now(),
            last_probe_s,
            lap: Timing::default(),
            total: Timing::default(),
        }
    }

    /// Marks a point between two pieces of work; probes when the current
    /// segment has run for [`PROBE_EVERY`].
    pub fn tick(&mut self) {
        if self.segment.elapsed() >= PROBE_EVERY {
            self.close_segment();
        }
    }

    /// Ends a lap (one job, one stream load): probes, and returns the
    /// lap's time.
    pub fn lap(&mut self) -> Timing {
        self.close_segment();
        std::mem::take(&mut self.lap)
    }

    /// Stops timing and returns the whole phase's time.
    pub fn stop(mut self) -> Timing {
        self.close_segment();
        self.total
    }

    fn close_segment(&mut self) {
        let raw_s = self.segment.elapsed().as_secs_f64();
        let p = probe();
        let ref_s = raw_s * REF_PROBE_S / ((self.last_probe_s + p) / 2.0);
        for t in [&mut self.lap, &mut self.total] {
            t.raw_s += raw_s;
            t.ref_s += ref_s;
        }
        self.last_probe_s = p;
        self.segment = Instant::now();
    }
}
