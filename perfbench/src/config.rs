//! The benchmark's fixed constants: offered rates, the latency objective,
//! corpus sizes and phase lengths. They are the same for every run and
//! every commit, so a parent and a change are offered identical load.

use std::time::Duration;

/// Latency objective of the rate search: p90 of the open-loop latency,
/// in microseconds.
pub const SLO_P90_US: f64 = 1000.0;
/// Backlog test: completions must keep at least this share of the
/// schedule's realized arrival rate.
pub const SLO_MIN_ACHIEVED: f64 = 0.98;
/// The fixed open-loop rate of the traced run's open-loop phase.
pub const OPEN_LOOP_RPS: f64 = 2000.0;
/// The rate search never probes below this rate...
pub const SEARCH_MIN_RPS: f64 = 250.0;
/// ...nor above this one.
pub const SEARCH_MAX_RPS: f64 = 256_000.0;
/// Bisections of the final factor-of-two bracket: 5 resolve the highest
/// passing rate to 2^(1/32), about 2.2%.
pub const BISECT_STEPS: usize = 5;
/// Length of one probe of the rate search, as a share of `--seconds`
/// (a search makes about a dozen).
pub const PROBE_SHARE: f64 = 0.02;
/// Rounds of the traced run's traced back-to-back pass. Every metric
/// pools the whole pass; the rounds are printed to show how the machine's
/// speed drifts.
pub const ROUNDS: usize = 4;
/// Length of each of the traced run's two back-to-back passes (untraced,
/// then traced), as a share of `--seconds`.
pub const TRACED_PASS_SHARE: f64 = 0.25;
/// Length of the traced run's fixed-rate open-loop phase, as a share of
/// `--seconds`.
pub const OPEN_LOOP_SHARE: f64 = 0.2;
/// Untimed warm-up of the per-document path before each round, in
/// seconds: first-touch page faults, and caches a fit just evicted.
pub const WARMUP_S: f64 = 0.5;
/// A probe whose driver falls this far behind its schedule stops early:
/// the rate is far beyond what the system sustains.
pub const ABORT_LAG: Duration = Duration::from_millis(50);
/// Requests a connection may have outstanding before its sender waits.
pub const MAX_PIPELINE: usize = 64;
/// Interval between `GET /stats` samples in the traced run's HTTP probe.
pub const STATS_SAMPLE_INTERVAL: Duration = Duration::from_millis(20);
/// Repetitions of each set-up step in a run; the median is reported.
pub const SETUP_REPS: usize = 5;
/// Documents the repeated ingest of a training corpus covers in all (at
/// least three passes); the median pass is reported.
pub const INGEST_DOCS: usize = 24_000;
/// Peers of the simulated collaborative training every workload runs.
pub const PEERS: usize = 4;
/// Markup dialects of the generated DBLP corpora.
pub const DIALECTS: usize = 3;
/// Similarity parameters of every model: content weight `f` and the
/// matching threshold `γ`.
pub const F: f64 = 0.5;
/// See [`F`].
pub const GAMMA: f64 = 0.4;
/// The clustering engine's own seed (the input seed draws the corpora).
pub const ENGINE_SEED: u64 = 3;
/// Seed of the workloads' fixed training corpora: a model is part of its
/// workload, so its costs do not move with `--seed`; the seed draws the
/// documents of the per-document path.
pub const MODEL_SEED: u64 = 0x5EED_C0DE;
/// Held-out documents `classify_batch_k256` draws from `--seed`.
pub const HELD_OUT_DOCS: usize = 2000;
/// Documents the per-layer probes classify, parse and time.
pub const PROBE_DOCS: usize = 400;
