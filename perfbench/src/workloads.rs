//! The two workloads. Each builds its inputs from the seed, trains its
//! model through the public training API, sets up its serving path
//! (timed, [`config::SETUP_REPS`] times), checks its outputs outside the
//! timed regions, and measures its per-document path back to back for
//! `--seconds`:
//!
//! * `classify_batch_k256` — single-thread `Classifier::classify` against a
//!   k = 256 model reloaded from its snapshot (`cxk classify --stream`);
//! * `train_p2p_m4` — `cxk train --stream --k 16 --m 4` on 3000 documents;
//!   its per-document path is one document of streaming ingest.
//!
//! The traced run shares `--seconds` between an untraced and a traced
//! back-to-back pass (the difference is the tracing overhead) and the same
//! path driven open loop at [`config::OPEN_LOOP_RPS`] plus a search for
//! the highest rate that meets the latency objective; then it probes every
//! layer, HTTP serving of the same model included.

use crate::config;
use crate::http::Traffic;
use crate::metrics::Report;
use crate::openloop::{self, poisson_schedule, stream_seed, OpenLoopResult, Probe};
use crate::pipeline::{self, secs, Corpus, Ingested};
use crate::probes::{self, DocIngest};
use crate::stats::{mean_of, median_of, Samples};
use crate::trace::SpanBuf;
use cxk_core::{FitOutcome, TrainedModel};
use cxk_eval::f_measure;
use cxk_serve::Classifier;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["classify_batch_k256", "train_p2p_m4"];

/// Training documents of the `classify_batch_k256` model (3 per cluster).
const CLASSIFY_TRAIN_DOCS: usize = 800;
/// Documents `train_p2p_m4` trains on: the paper's DBLP size.
const TRAIN_DOCS: usize = 3000;
/// Fits of each workload's model, about 15 s (`classify_batch_k256`) and
/// 25 s (`train_p2p_m4`) of training on a 2-vCPU cloud VM: `train_s` is
/// their mean, and they must agree exactly. The first makes the model;
/// each of the others runs between two rounds of the back-to-back pass.
const CLASSIFY_FITS: usize = 4;
/// See [`CLASSIFY_FITS`].
const TRAIN_FITS: usize = 3;
/// Time the traced run's HTTP probe drives the server.
const HTTP_PROBE: Duration = Duration::from_secs(1);

/// Runs `workload`; `None` for an unknown name.
pub fn run(workload: &str, seed: u64, seconds: f64, spans: &mut SpanBuf) -> Option<Report> {
    match workload {
        "classify_batch_k256" => Some(classify_batch_k256(seed, seconds, spans)),
        "train_p2p_m4" => Some(train_p2p_m4(seed, seconds, spans)),
        _ => None,
    }
}

fn dur(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.001))
}

/// Length of a back-to-back pass: all of `--seconds` in an untraced run.
/// A traced run shares `--seconds` between an untraced pass, a traced pass
/// (their difference is the tracing overhead) and the open loop.
fn pass_seconds(seconds: f64, spans: &SpanBuf) -> f64 {
    if spans.enabled() {
        seconds * config::TRACED_PASS_SHARE
    } else {
        seconds
    }
}

/// The back-to-back measurements of one pass, pooled over the whole pass:
/// throughput is every document over the time spent in the per-document
/// calls (the driver's own clock reads and bookkeeping, about 0.6%, are
/// left out) and the latency percentiles are exact over every sample. The machine's speed drifts
/// over seconds, and a pooled figure averages that drift where the median
/// of short rounds jumps with it. The throughput of each round is printed
/// to show the drift.
#[derive(Debug, Default)]
struct Closed {
    round_docs_per_s: Vec<f64>,
    docs: usize,
    seconds: f64,
    latency_us: Samples,
    attempted: usize,
    failed: usize,
}

impl Closed {
    /// Adds a round: `latency_us.len()` documents that took `seconds` in
    /// all.
    fn add_round(&mut self, latency_us: &Samples, seconds: f64) {
        self.round_docs_per_s
            .push(latency_us.len() as f64 / seconds);
        self.docs += latency_us.len();
        self.seconds += seconds;
        self.latency_us.extend(latency_us);
    }

    fn docs_per_s(&self) -> f64 {
        self.docs as f64 / self.seconds
    }

    fn p50_us(&mut self) -> f64 {
        self.latency_us.quantile(0.5)
    }

    fn p90_us(&mut self) -> f64 {
        self.latency_us.quantile(0.9)
    }

    fn record(&mut self, report: &mut Report) {
        report.set("docs_per_s", self.docs_per_s(), self.docs);
        let n = self.latency_us.len();
        report.set("latency_p50_us", self.p50_us(), n);
        report.set("latency_p90_us", self.p90_us(), n);
        report.attempted += self.attempted;
        report.failed += self.failed;
        let rounds: Vec<String> = self
            .round_docs_per_s
            .iter()
            .map(|x| format!("{x:.1}"))
            .collect();
        println!("rounds: docs_per_s [{}]", rounds.join(" "));
        println!("latency {}", self.latency_us.summary("us"));
    }
}

/// Tracing overhead: the traced pass's end-to-end values minus the
/// untraced pass's.
fn print_overhead(untraced: &mut Closed, traced: &mut Closed) {
    let rows = [
        ("docs_per_s", untraced.docs_per_s(), traced.docs_per_s()),
        ("latency_p50_us", untraced.p50_us(), traced.p50_us()),
        ("latency_p90_us", untraced.p90_us(), traced.p90_us()),
    ];
    for (name, off, on) in rows {
        println!(
            "trace overhead {name:<16} untraced={off:.2} traced={on:.2} traced-untraced={:.2} ({:+.1}%)",
            on - off,
            100.0 * (on - off) / off
        );
    }
}

/// The traced run's open-loop measurements: the fixed-rate phase and the
/// rate search.
#[derive(Debug, Default)]
struct Open {
    latency_us: Samples,
    lag_us: Samples,
    max_rps: f64,
    probes: Vec<Probe>,
    attempted: usize,
    failed: usize,
}

impl Open {
    /// Counts a phase's operations.
    fn add(&mut self, result: &OpenLoopResult) {
        self.attempted += result.attempted;
        self.failed += result.failed;
    }

    fn record(&mut self, report: &mut Report) {
        let n = self.latency_us.len();
        report.set("openloop.p50_us", self.latency_us.quantile(0.5), n);
        report.set("openloop.p90_us", self.latency_us.quantile(0.9), n);
        report.set("openloop.max_rps_at_slo", self.max_rps, self.probes.len());
        let lags = self.lag_us.len();
        report.set("loadgen.lag_p50_us", self.lag_us.quantile(0.5), lags);
        report.set("loadgen.lag_p99_us", self.lag_us.quantile(0.99), lags);
        report.attempted += self.attempted;
        report.failed += self.failed;
        println!(
            "open loop at {} rps: {}",
            config::OPEN_LOOP_RPS,
            self.latency_us.summary("us")
        );
        println!("loadgen lag {}", self.lag_us.summary("us"));
        for p in &self.probes {
            println!(
                "  slo probe {:>9.1} rps: {} p90={:.1}us achieved={:.1} rps failed={}",
                p.rate,
                if p.pass { "pass" } else { "miss" },
                p.p90_us,
                p.achieved_rps,
                p.failed
            );
        }
    }
}

/// An in-process per-document operation: `op(i, spans)` handles the
/// `i`-th document of the workload's rotation and returns whether it
/// succeeded, or `None` when it only did the benchmark's own upkeep
/// (starting an exhausted stream over), which is neither timed nor
/// counted.
type LocalOp<'a> = dyn FnMut(usize, &mut SpanBuf) -> Option<bool> + 'a;

/// Runs `op` back to back for `seconds` in `rounds` rounds, continuing
/// the rotation at `*next`. Before every round but the first it calls
/// `between`, the workload's remaining fits: the machine's speed drifts
/// by tens of percent over tens of seconds, so both the fits and the
/// rounds are spread over the whole run and average the same drift.
/// Every round starts with [`config::WARMUP_S`] of untimed operations.
#[allow(clippy::too_many_arguments)]
fn local_closed(
    seconds: f64,
    rounds: usize,
    span_name: &'static str,
    spans: &mut SpanBuf,
    op: &mut LocalOp<'_>,
    next: &mut usize,
    between: &mut dyn FnMut(),
) -> Closed {
    let mut closed = Closed::default();
    let rounds = rounds.max(1);
    for round in 0..rounds {
        if round > 0 {
            between();
        }
        let warm = Instant::now() + dur(config::WARMUP_S);
        let mut quiet = SpanBuf::new(false, spans.epoch());
        while Instant::now() < warm {
            op(*next, &mut quiet);
            *next += 1;
        }
        let deadline = Instant::now() + dur(seconds / rounds as f64);
        let mut latency = Samples::new();
        let mut busy = Duration::ZERO;
        while Instant::now() < deadline {
            let t = Instant::now();
            spans.enter(span_name, *next as u64);
            let ok = op(*next, spans);
            spans.exit();
            let took = t.elapsed();
            *next += 1;
            match ok {
                Some(true) => {
                    latency.push(took.as_nanos() as f64 / 1e3);
                    busy += took;
                }
                Some(false) => closed.failed += 1,
                None => continue,
            }
            closed.attempted += 1;
        }
        closed.add_round(&latency, busy.as_secs_f64());
    }
    closed
}

/// Drives `op` open loop from one thread: at [`config::OPEN_LOOP_RPS`]
/// for [`config::OPEN_LOOP_SHARE`] of `seconds`, then through the rate
/// search.
fn local_open(
    seed: u64,
    seconds: f64,
    span_name: &'static str,
    spans: &mut SpanBuf,
    op: &mut LocalOp<'_>,
    next: &mut usize,
) -> Open {
    let mut open = Open::default();
    let mut run = |rate: f64, stream: u64, length: f64, spans: &mut SpanBuf| {
        let schedule = poisson_schedule(stream_seed(seed, stream), rate, dur(length));
        let base = *next;
        let result = openloop::run_in_process(&schedule, rate, spans, span_name, |j, s| loop {
            if let Some(ok) = op(base + j, s) {
                break ok;
            }
        });
        *next += schedule.len();
        result
    };
    let fixed = run(
        config::OPEN_LOOP_RPS,
        10,
        seconds * config::OPEN_LOOP_SHARE,
        spans,
    );
    open.add(&fixed);
    open.latency_us = fixed.latency_us;
    open.lag_us = fixed.lag_us;
    let (max_rps, probes) = openloop::slo_search(|rate, p| {
        let result = run(rate, 100 + p as u64, seconds * config::PROBE_SHARE, spans);
        open.add(&result);
        result
    });
    open.max_rps = max_rps;
    open.probes = probes;
    open
}

/// A workload's training: the dataset, built by repeated ingest, and
/// every fit so far. The first fit makes the model; the others are
/// spread over the run (see [`local_closed`]) and must equal it.
struct Training {
    k: usize,
    ingested: Ingested,
    fit: FitOutcome,
    fit_s: Vec<f64>,
    repeats: bool,
}

impl Training {
    /// Ingests `text` (`documents` documents), repeated to cover
    /// [`config::INGEST_DOCS`], then fits `k` clusters once.
    fn new(text: &str, documents: usize, k: usize, spans: &mut SpanBuf) -> Self {
        spans.enter("bench.train", k as u64);
        let reps = config::INGEST_DOCS.div_ceil(documents).max(3);
        let ingested = pipeline::ingest(text, reps, spans);
        let (fit, fit_s) = pipeline::fit(&ingested.dataset, k, spans);
        spans.exit();
        Self {
            k,
            ingested,
            fit,
            fit_s: vec![fit_s],
            repeats: true,
        }
    }

    /// Fits again, checks the fit equals the first and returns it.
    fn refit(&mut self, spans: &mut SpanBuf) -> FitOutcome {
        let (again, s) = pipeline::fit(&self.ingested.dataset, self.k, spans);
        self.repeats &= pipeline::assignment_digest(&again.assignments)
            == pipeline::assignment_digest(&self.fit.assignments)
            && again.total_bytes == self.fit.total_bytes
            && again.total_work == self.fit.total_work
            && again.total_messages == self.fit.total_messages;
        self.fit_s.push(s);
        again
    }

    /// Records the training gates and `traffic_bytes`.
    fn record(&self, report: &mut Report) {
        report.gate("ingest repeats the same dataset", self.ingested.repeatable);
        report.gate(
            "training repeats: assignments, traffic, messages and work",
            self.repeats && self.fit_s.len() >= 2,
        );
        report.set("traffic_bytes", self.fit.total_bytes as f64, 1);
        println!(
            "trained k={} m={} on {} docs / {} transactions: rounds={} converged={} trash={} fit_s={:.3?}",
            self.k,
            config::PEERS,
            self.ingested.documents,
            self.ingested.dataset.stats.transactions,
            self.fit.rounds,
            self.fit.converged,
            self.fit.trash_count(),
            self.fit_s
        );
    }
}

/// Snapshot timings of the set-up repetitions.
#[derive(Debug, Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    into_model_s: Vec<f64>,
    save_s: Vec<f64>,
    load_s: Vec<f64>,
    bytes: usize,
    digests: Vec<u64>,
    round_trip_failures: usize,
}

impl SetupTimes {
    fn add(&mut self, snap: &pipeline::Snapshot) -> f64 {
        self.into_model_s.push(snap.into_model_s);
        self.save_s.push(snap.save_s);
        self.load_s.push(snap.load_s);
        self.bytes = snap.bytes;
        self.round_trip_failures += usize::from(!snap.round_trip);
        self.digests.push(snap.digest);
        snap.into_model_s + snap.save_s + snap.load_s
    }

    /// Records `train_s` (mean fit plus mean `into_model`: a mean over
    /// seconds of training averages the machine's drift) and the snapshot
    /// gates.
    fn record(&self, report: &mut Report, fit_s: &[f64]) {
        report.set(
            "train_s",
            mean_of(fit_s) + mean_of(&self.into_model_s),
            fit_s.len(),
        );
        report.gate(
            "load_model(save_model(m)) keeps the digest",
            self.round_trip_failures == 0,
        );
        report.gate(
            "every snapshot of the model has the same digest",
            self.digests.windows(2).all(|w| w[0] == w[1]),
        );
    }
}

/// Records `rss_peak_mb`, the peak resident set so far. Called before the
/// back-to-back pass: the pass keeps every latency sample, which would tie
/// the figure to throughput. The fits between its rounds repeat the first
/// one, whose peak the figure already holds.
fn record_rss(report: &mut Report) {
    report.set("rss_peak_mb", pipeline::rss_peak_mb(), 1);
}

/// The reference cluster of each document, from an in-process classifier.
fn reference_clusters(model: &Arc<TrainedModel>, docs: &[String]) -> Vec<u32> {
    let mut classifier = Classifier::shared(Arc::clone(model));
    docs.iter()
        .map(|d| {
            classifier
                .classify(d)
                .expect("generated XML classifies")
                .cluster
        })
        .collect()
}

/// The training, ingest and snapshot layers every traced workload
/// reports.
fn layer_tail(
    report: &mut Report,
    text: &str,
    training: &Training,
    times: &SetupTimes,
    spans: &mut SpanBuf,
) {
    let t = training;
    probes::training_layers(report, &t.ingested, &t.fit, &t.fit_s, &times.into_model_s);
    probes::model_layers(report, &times.save_s, &times.load_s, times.bytes);
    probes::ingest_layers(report, text, t.ingested.documents, spans);
}

/// Single-thread in-process classification against a k = 256 model.
fn classify_batch_k256(seed: u64, seconds: f64, spans: &mut SpanBuf) -> Report {
    let mut report = Report::default();
    let train = Corpus::dblp(config::MODEL_SEED ^ 256, CLASSIFY_TRAIN_DOCS);
    let text = train.stream_text();
    let mut training = Training::new(&text, CLASSIFY_TRAIN_DOCS, 256, spans);
    // Drawn after training, so the fits run on the same heap whatever the
    // seed: a seed-dependent heap layout moved fit times by ±8%.
    let held = Corpus::dblp(stream_seed(seed, 2), config::HELD_OUT_DOCS);

    let mut times = SetupTimes::default();
    let mut live: Option<(Classifier, Arc<TrainedModel>)> = None;
    for rep in 0..config::SETUP_REPS as u64 {
        drop(live.take());
        let copy = training.fit.clone();
        spans.enter("bench.setup", rep);
        let snap = pipeline::snapshot(copy, &training.ingested.dataset, spans);
        let mut total = times.add(&snap);
        let t = Instant::now();
        let model = Arc::new(snap.model);
        let classifier = spans.span("classify.build", rep, || {
            Classifier::shared(Arc::clone(&model))
        });
        total += secs(t);
        spans.exit();
        times.total_s.push(total);
        live = Some((classifier, model));
    }
    let (mut classifier, model) = live.expect("at least one set-up repetition");
    report.set("setup_s", median_of(&times.total_s), times.total_s.len());

    // Gate: the index changes no assignment.
    let mut agree = true;
    let mut expected = Vec::with_capacity(held.docs.len());
    for doc in &held.docs {
        let indexed = classifier.classify(doc).expect("generated XML classifies");
        let brute = classifier
            .classify_brute(doc)
            .expect("generated XML classifies");
        // Candidate counts differ by design; every assignment must not.
        agree &= indexed.cluster == brute.cluster
            && indexed.score == brute.score
            && indexed.tuples.len() == brute.tuples.len()
            && indexed
                .tuples
                .iter()
                .zip(&brute.tuples)
                .all(|(a, b)| a.cluster == b.cluster && a.similarity == b.similarity);
        expected.push(indexed.cluster);
    }
    report.gate("every indexed assignment equals classify_brute", agree);
    report.set(
        "f_measure",
        f_measure(&held.labels, &expected),
        expected.len(),
    );

    let first = (stream_seed(seed, 5) % held.docs.len() as u64) as usize;
    let n = held.docs.len();
    let mut quiet = SpanBuf::new(false, spans.epoch());
    let mut op =
        |i: usize, _: &mut SpanBuf| Some(classifier.classify(&held.docs[(first + i) % n]).is_ok());
    let mut next = 0;
    let pass = pass_seconds(seconds, spans);
    let name = "classify.classify";
    record_rss(&mut report);
    let mut untraced = local_closed(
        pass,
        CLASSIFY_FITS,
        name,
        &mut SpanBuf::new(false, spans.epoch()),
        &mut op,
        &mut next,
        &mut || {
            training.refit(&mut quiet);
        },
    );
    untraced.record(&mut report);
    training.record(&mut report);
    times.record(&mut report, &training.fit_s);
    if spans.enabled() {
        let rounds = config::ROUNDS;
        let mut traced = local_closed(pass, rounds, name, spans, &mut op, &mut next, &mut || {});
        print_overhead(&mut untraced, &mut traced);
        local_open(
            seed,
            seconds,
            "classify.classify",
            spans,
            &mut op,
            &mut next,
        )
        .record(&mut report);
        probes::classify_layers(&mut report, &model, &held.docs, spans);
        let traffic = Traffic {
            docs: &held.docs,
            expected: &expected,
        };
        probes::http_layers(&mut report, &model, traffic, seed, HTTP_PROBE, spans);
        layer_tail(&mut report, &text, &training, &times, spans);
    }
    report
}

/// `cxk train --stream --k 16 --m 4` on 3000 documents; set-up is
/// building the dataset (`ingest_stream` + `finish`). The training corpus
/// is fixed, like `classify_batch_k256`'s: its traffic, rounds and quality
/// are properties of the corpus, and across seeds the total traffic moved
/// by ±28%. The seed draws the stream the per-document ingest path reads.
fn train_p2p_m4(seed: u64, seconds: f64, spans: &mut SpanBuf) -> Report {
    let mut report = Report::default();
    let corpus = Corpus::dblp(config::MODEL_SEED ^ 16, TRAIN_DOCS);
    let text = corpus.stream_text();
    let mut training = Training::new(&text, TRAIN_DOCS, 16, spans);
    let ingested = &training.ingested;
    report.set("setup_s", ingested.build_s(), ingested.ingest_s.len());
    let truth = cxk_corpus::transaction_labels(&corpus.labels, &ingested.dataset.doc_of);
    report.set(
        "f_measure",
        f_measure(&truth, &training.fit.assignments),
        truth.len(),
    );

    // `into_model` is quadratic in cluster size (seconds at 3000
    // documents), so the snapshot path runs once per fit, not per set-up
    // repetition.
    let mut times = SetupTimes::default();
    spans.enter("bench.snapshot", 0);
    let snap = pipeline::snapshot(training.fit.clone(), &training.ingested.dataset, spans);
    spans.exit();
    times.add(&snap);
    let model = Arc::new(snap.model);

    let stream = Corpus::dblp(stream_seed(seed, 3), TRAIN_DOCS);
    let stream_text = stream.stream_text();
    let mut ingest = DocIngest::new(&stream_text);
    let mut quiet = SpanBuf::new(false, spans.epoch());
    let mut op = |i: usize, s: &mut SpanBuf| ingest.step(i as u64, s);
    let mut next = 0;
    let pass = pass_seconds(seconds, spans);
    let name = "transact.ingest_doc";
    record_rss(&mut report);
    let mut untraced = local_closed(
        pass,
        TRAIN_FITS,
        name,
        &mut SpanBuf::new(false, spans.epoch()),
        &mut op,
        &mut next,
        &mut || {
            let again = training.refit(&mut quiet);
            times.add(&pipeline::snapshot(
                again,
                &training.ingested.dataset,
                &mut quiet,
            ));
        },
    );
    untraced.record(&mut report);
    training.record(&mut report);
    times.record(&mut report, &training.fit_s);
    if spans.enabled() {
        let rounds = config::ROUNDS;
        let mut traced = local_closed(pass, rounds, name, spans, &mut op, &mut next, &mut || {});
        print_overhead(&mut untraced, &mut traced);
        local_open(
            seed,
            seconds,
            "transact.ingest_doc",
            spans,
            &mut op,
            &mut next,
        )
        .record(&mut report);
        let expected = reference_clusters(&model, &stream.docs);
        probes::classify_layers(&mut report, &model, &stream.docs, spans);
        let traffic = Traffic {
            docs: &stream.docs,
            expected: &expected,
        };
        probes::http_layers(&mut report, &model, traffic, seed, HTTP_PROBE, spans);
        layer_tail(&mut report, &text, &training, &times, spans);
    }
    report
}
