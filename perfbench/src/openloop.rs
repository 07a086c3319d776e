//! Arrival schedules, the in-process open-loop driver and the search for
//! the highest rate that meets the latency objective.
//!
//! An open loop sends on a precomputed Poisson schedule whatever the
//! system does, and times each operation from the instant it was *due*,
//! so a stall is charged to every operation queued behind it. How late the
//! driver itself started each operation (its lag) is recorded beside the
//! latency: if the lag rises, the latencies are measuring the driver.

use crate::config;
use crate::stats::Samples;
use crate::trace::SpanBuf;
use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own generator, so schedules do not change
/// when the program's random streams do.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seed for one named stream of one run: distinct streams of the same
/// run, and the same stream of distinct runs, never share a seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    SplitMix::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// Poisson arrivals at `rate` per second over `duration`: offsets in
/// nanoseconds from the start, ascending. The same arguments always give
/// the same schedule.
///
/// # Panics
/// Panics if `rate` is not strictly positive.
pub fn poisson_schedule(seed: u64, rate: f64, duration: Duration) -> Vec<u64> {
    assert!(rate > 0.0, "offered rate must be positive");
    let mut rng = SplitMix::new(seed);
    let horizon = duration.as_secs_f64();
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate * horizon * 1.1) as usize + 1);
    loop {
        // Inverse CDF of Exp(rate); `1 - unit()` lies in (0, 1].
        at += -(1.0 - rng.unit()).ln() / rate;
        if at >= horizon {
            return out;
        }
        out.push((at * 1e9) as u64);
    }
}

/// What one open-loop phase measured.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopResult {
    /// The nominal offered rate.
    pub offered_rps: f64,
    /// Operations due in the schedule.
    pub scheduled: usize,
    /// Operations started (sent).
    pub attempted: usize,
    /// Operations that completed successfully.
    pub completed: usize,
    /// Operations that failed (non-200, shed, refused, reset).
    pub failed: usize,
    /// The phase stopped early because the driver fell more than
    /// [`config::ABORT_LAG`] behind its schedule: the rate is far past
    /// what the system sustains.
    pub aborted: bool,
    /// Latency of each successful operation, from its due instant to its
    /// completion, in microseconds.
    pub latency_us: Samples,
    /// How late each operation started against its due instant, in
    /// microseconds.
    pub lag_us: Samples,
    /// Schedule offset of the first and last due operation, in ns.
    pub first_due_ns: u64,
    /// Offset of the last due operation, in ns.
    pub last_due_ns: u64,
    /// Offset of the last completion, in ns.
    pub last_done_ns: u64,
}

impl OpenLoopResult {
    /// Completions per second from the first due instant to the last
    /// completion.
    pub fn achieved_rps(&self) -> f64 {
        let span = self.last_done_ns.saturating_sub(self.first_due_ns).max(1);
        self.completed as f64 / (span as f64 / 1e9)
    }

    /// The schedule's own realized rate (due operations over the span
    /// they are due in). The backlog test compares against this instead
    /// of the nominal rate, so a short schedule's Poisson noise is not
    /// mistaken for a growing queue.
    pub fn realized_rps(&self) -> f64 {
        let span = self.last_due_ns.saturating_sub(self.first_due_ns).max(1);
        self.scheduled as f64 / (span as f64 / 1e9)
    }

    /// Whether the phase met the objective: nothing failed, it ran to the
    /// end of its schedule, completions kept pace with arrivals, and the
    /// p90 latency stayed within the limit.
    pub fn meets_slo(&mut self) -> bool {
        !self.aborted
            && self.failed == 0
            && self.completed == self.scheduled
            && self.achieved_rps() >= config::SLO_MIN_ACHIEVED * self.realized_rps()
            && self.latency_us.quantile(0.9) <= config::SLO_P90_US
    }
}

/// One probe of the rate search.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Offered rate.
    pub rate: f64,
    /// Whether it met the objective.
    pub pass: bool,
    /// Its p90 latency in microseconds.
    pub p90_us: f64,
    /// Its achieved rate.
    pub achieved_rps: f64,
    /// Its failures.
    pub failed: usize,
}

/// Searches for the highest rate that meets the objective. From
/// [`config::OPEN_LOOP_RPS`] it doubles the rate until a probe misses (or
/// halves it until one passes), then bisects the bracket in log-rate
/// [`config::BISECT_STEPS`] times. A rate misses only if two probes at it
/// miss, so one disturbed probe does not send the search down. Returns the
/// highest rate that passed (half the lowest rate tried when none did)
/// and every probe made. `probe(rate, i)` runs the `i`-th probe at `rate`.
pub fn slo_search(mut probe: impl FnMut(f64, usize) -> OpenLoopResult) -> (f64, Vec<Probe>) {
    let mut probes = Vec::new();
    let mut test = |rate: f64, probes: &mut Vec<Probe>| {
        for _ in 0..2 {
            let mut result = probe(rate, probes.len());
            let pass = result.meets_slo();
            probes.push(Probe {
                rate,
                pass,
                p90_us: result.latency_us.quantile(0.9),
                achieved_rps: result.achieved_rps(),
                failed: result.failed,
            });
            if pass {
                return true;
            }
        }
        false
    };
    let start = config::OPEN_LOOP_RPS;
    let (mut lo, mut hi) = if test(start, &mut probes) {
        let mut lo = start;
        while lo * 2.0 <= config::SEARCH_MAX_RPS && test(lo * 2.0, &mut probes) {
            lo *= 2.0;
        }
        (lo, lo * 2.0)
    } else {
        let mut hi = start;
        while hi / 2.0 >= config::SEARCH_MIN_RPS && !test(hi / 2.0, &mut probes) {
            hi /= 2.0;
        }
        (hi / 2.0, hi)
    };
    if lo * 2.0 > config::SEARCH_MAX_RPS || lo < config::SEARCH_MIN_RPS {
        return (lo, probes);
    }
    for _ in 0..config::BISECT_STEPS {
        let mid = (lo * hi).sqrt();
        if test(mid, &mut probes) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, probes)
}

/// Drives `op` from one thread on `schedule`: waits until each operation
/// is due, runs it, and times it from the due instant. `op(i)`
/// performs the `i`-th operation and returns whether it succeeded.
/// Each operation is recorded in `spans` as `span_name`, from its due
/// instant to its completion.
pub fn run_in_process(
    schedule: &[u64],
    offered_rps: f64,
    spans: &mut SpanBuf,
    span_name: &'static str,
    mut op: impl FnMut(usize, &mut SpanBuf) -> bool,
) -> OpenLoopResult {
    let mut result = OpenLoopResult {
        offered_rps,
        scheduled: schedule.len(),
        first_due_ns: schedule.first().copied().unwrap_or(0),
        last_due_ns: schedule.last().copied().unwrap_or(0),
        ..OpenLoopResult::default()
    };
    let start = Instant::now();
    let mut free = start;
    for (i, &due_ns) in schedule.iter().enumerate() {
        let due = start + Duration::from_nanos(due_ns);
        // Spin rather than sleep: the operation runs on this thread, and a
        // sleeping thread's wake-up (hundreds of microseconds on a
        // virtual machine) would be charged to the program.
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let began = Instant::now();
        if began.saturating_duration_since(due) > config::ABORT_LAG {
            result.aborted = true;
            break;
        }
        // The driver's own lateness: from when the operation could have
        // started (due, and the previous one finished) to when it did.
        // Waiting behind the previous operation is queueing, and counts in
        // the latency only.
        let lag = began.saturating_duration_since(due.max(free));
        result.lag_us.push(lag.as_nanos() as f64 / 1e3);
        result.attempted += 1;
        spans.enter_at(span_name, i as u64, due);
        let ok = op(i, spans);
        spans.exit();
        let done = Instant::now();
        free = done;
        if ok {
            result.completed += 1;
            result
                .latency_us
                .push(done.saturating_duration_since(due).as_nanos() as f64 / 1e3);
        } else {
            result.failed += 1;
        }
        result.last_done_ns = u64::try_from((done - start).as_nanos()).unwrap_or(u64::MAX);
    }
    result
}
