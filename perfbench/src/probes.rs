//! Per-layer probes for the traced run: the benchmark calls each layer's
//! public functions itself, on the workload's own model and documents,
//! and times every call in a span.

use crate::config;
use crate::http::{self, Traffic};
use crate::metrics::Report;
use crate::openloop::{poisson_schedule, stream_seed};
use crate::pipeline::{nproc, secs, Ingested};
use crate::stats::Samples;
use crate::trace::SpanBuf;
use cxk_core::{FitOutcome, TrainedModel};
use cxk_serve::{Classifier, ServeOptions, Server, TagPathIndex};
use cxk_transact::{BuildOptions, DatasetBuilder};
use cxk_util::Interner;
use cxk_xml::{extract_tree_tuples, parse_document, StreamingTupleExtractor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Streaming ingest one document at a time over a corpus text, starting
/// over with a fresh builder when the text runs out: the per-document
/// path of `train_p2p_m4` (`StreamingTupleExtractor::next_document`, then
/// `DatasetBuilder::add_streamed` — the two calls `ingest_stream` makes
/// per document).
pub struct DocIngest<'a> {
    text: &'a str,
    builder: DatasetBuilder,
    extractor: StreamingTupleExtractor<&'a [u8]>,
    /// Time in `next_document`, per document, in microseconds.
    pub extract_us: Samples,
    /// Time in `add_streamed`, per document, in microseconds.
    pub featurize_us: Samples,
}

impl<'a> DocIngest<'a> {
    /// A fresh ingest over `text`.
    pub fn new(text: &'a str) -> Self {
        let (builder, extractor) = Self::fresh(text);
        Self {
            text,
            builder,
            extractor,
            extract_us: Samples::new(),
            featurize_us: Samples::new(),
        }
    }

    fn fresh(text: &'a str) -> (DatasetBuilder, StreamingTupleExtractor<&'a [u8]>) {
        let options = BuildOptions::default();
        let extractor =
            StreamingTupleExtractor::new(text.as_bytes(), options.parse.clone(), options.limits);
        (DatasetBuilder::new(options), extractor)
    }

    /// Ingests the next document and returns whether it parsed. At the
    /// end of the text it starts over with a fresh builder instead and
    /// returns `None`: dropping a builder of the whole text took up to
    /// 13 ms, which no document of a real ingest pays. The two calls are
    /// timed only when `spans` records.
    pub fn step(&mut self, id: u64, spans: &mut SpanBuf) -> Option<bool> {
        let timed = spans.enabled();
        let t = timed.then(Instant::now);
        let doc = spans.span("xml.next_document", id, || {
            self.extractor.next_document(self.builder.labels_mut())
        });
        match doc {
            Ok(Some(doc)) => {
                if let Some(t) = t {
                    self.extract_us.push(us(t));
                }
                let t = timed.then(Instant::now);
                spans.span("transact.add_streamed", id, || {
                    self.builder.add_streamed(doc)
                });
                if let Some(t) = t {
                    self.featurize_us.push(us(t));
                }
                Some(true)
            }
            Ok(None) => {
                (self.builder, self.extractor) = Self::fresh(self.text);
                None
            }
            Err(_) => Some(false),
        }
    }
}

/// Records the training layers: ingest (`cxk_transact`), the fit
/// (`cxk_core`) and its exchanged traffic (`cxk_p2p`).
pub fn training_layers(
    report: &mut Report,
    ingested: &Ingested,
    fit: &FitOutcome,
    fit_s: &[f64],
    into_model_s: &[f64],
) {
    let reps = ingested.ingest_s.len();
    report.set("transact.ingest_us", 1e6 / ingested.docs_per_s(), reps);
    report.set(
        "transact.finish_ms",
        crate::stats::median_of(&ingested.finish_s) * 1e3,
        reps,
    );
    report.set(
        "transact.transactions",
        ingested.dataset.stats.transactions as f64,
        1,
    );
    let fit_mean = crate::stats::mean_of(fit_s);
    report.set("core.fit_s", fit_mean, fit_s.len());
    report.set("core.rounds", fit.rounds as f64, 1);
    report.set("core.work", fit.total_work as f64, 1);
    report.set(
        "core.work_per_s",
        fit.total_work as f64 / fit_mean,
        fit_s.len(),
    );
    report.set(
        "core.into_model_s",
        crate::stats::mean_of(into_model_s),
        into_model_s.len(),
    );
    report.set("p2p.messages", fit.total_messages as f64, 1);
    report.set("p2p.bytes", fit.total_bytes as f64, 1);
    report.set(
        "p2p.round_bytes_max",
        fit.per_round.iter().map(|r| r.bytes).max().unwrap_or(0) as f64,
        fit.per_round.len(),
    );
    report.set("p2p.simulated_s", fit.simulated_seconds, 1);
    let per_round: Vec<String> = fit.per_round.iter().map(|r| r.bytes.to_string()).collect();
    println!(
        "p2p per-round bytes [{}] over {} rounds, {} messages",
        per_round.join(", "),
        fit.rounds,
        fit.total_messages
    );
}

/// Records one streaming-ingest pass over the `documents` of `text`,
/// document by document (`transact.featurize_us`, and the SAX extraction
/// beside it).
pub fn ingest_layers(report: &mut Report, text: &str, documents: usize, spans: &mut SpanBuf) {
    let mut ingest = DocIngest::new(text);
    let start = Instant::now();
    for id in 0..documents as u64 {
        spans.enter("transact.ingest_doc", id);
        let ok = ingest.step(id, spans);
        spans.exit();
        if ok != Some(true) {
            break;
        }
    }
    report.set(
        "transact.featurize_us",
        ingest.featurize_us.mean(),
        ingest.featurize_us.len(),
    );
    println!(
        "streaming ingest pass: {} docs in {:.3}s, next_document {:.1}us/doc, add_streamed {:.1}us/doc",
        ingest.featurize_us.len(),
        secs(start),
        ingest.extract_us.mean(),
        ingest.featurize_us.mean()
    );
}

/// Records the model snapshot layer.
pub fn model_layers(report: &mut Report, save_s: &[f64], load_s: &[f64], bytes: usize) {
    report.set(
        "model.save_ms",
        crate::stats::median_of(save_s) * 1e3,
        save_s.len(),
    );
    report.set(
        "model.load_ms",
        crate::stats::median_of(load_s) * 1e3,
        load_s.len(),
    );
    report.set("model.bytes", bytes as f64, 1);
}

/// Times `cxk_xml` parsing and tuple extraction, `cxk_serve` classifier
/// and index construction, and indexed against brute-force classification
/// on the first [`config::PROBE_DOCS`] of `docs`.
pub fn classify_layers(
    report: &mut Report,
    model: &Arc<TrainedModel>,
    docs: &[String],
    spans: &mut SpanBuf,
) {
    let mut build = Samples::new();
    let mut index_build = Samples::new();
    for rep in 0..config::SETUP_REPS as u64 {
        let t = Instant::now();
        let classifier = spans.span("classify.build", rep, || {
            Classifier::shared(Arc::clone(model))
        });
        build.push(us(t));
        drop(classifier);
        let t = Instant::now();
        let index = spans.span("index.build", rep, || {
            TagPathIndex::build(&model.reps, &model.paths, model.params)
        });
        index_build.push(us(t));
        drop(index);
    }
    let mut classifier = Classifier::shared(Arc::clone(model));
    report.set("classify.build_us", build.median(), build.len());
    report.set("index.build_us", index_build.median(), index_build.len());
    report.set(
        "index.postings_bytes",
        classifier.index().postings_bytes() as f64,
        1,
    );

    let mut labels = Interner::new();
    let (mut parse, mut tuples_t, mut indexed, mut brute) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    let (mut tuples, mut candidates, mut query_tuples, mut trash) =
        (0usize, 0usize, 0usize, 0usize);
    let probe = &docs[..docs.len().min(config::PROBE_DOCS)];
    for (d, doc) in probe.iter().enumerate() {
        let id = d as u64;
        spans.enter("probe.doc", id);
        let t = Instant::now();
        let tree = spans.span("xml.parse", id, || {
            parse_document(doc, &mut labels, &model.build.parse).expect("generated XML parses")
        });
        parse.push(us(t));
        let t = Instant::now();
        let extracted = spans.span("xml.tuples", id, || {
            extract_tree_tuples(&tree, &model.build.limits)
        });
        tuples_t.push(us(t));
        tuples += extracted.len();
        let t = Instant::now();
        let report_i = spans.span("classify.indexed", id, || {
            classifier.classify(doc).expect("generated XML classifies")
        });
        indexed.push(us(t));
        let t = Instant::now();
        spans.span("classify.brute", id, || {
            classifier
                .classify_brute(doc)
                .expect("generated XML classifies")
        });
        brute.push(us(t));
        spans.exit();
        candidates += report_i.tuples.iter().map(|t| t.candidates).sum::<usize>();
        query_tuples += report_i.tuples.len();
        trash += usize::from(report_i.cluster == classifier.trash_id());
    }
    let n = probe.len();
    let k = classifier.k() as f64;
    let per_tuple = candidates as f64 / query_tuples.max(1) as f64;
    report.set("xml.parse_us", parse.mean(), n);
    report.set("xml.tuples_us", tuples_t.mean(), n);
    report.set("xml.tuples_per_doc", tuples as f64 / n as f64, n);
    report.set("classify.indexed_us", indexed.mean(), n);
    report.set("classify.brute_us", brute.mean(), n);
    report.set(
        "classify.featurize_score_us",
        indexed.mean() - parse.mean() - tuples_t.mean(),
        n,
    );
    report.set("classify.trash_ratio", trash as f64 / n as f64, n);
    report.set("index.candidates_per_tuple", per_tuple, query_tuples);
    report.set("index.prune_ratio", per_tuple / k, query_tuples);
    report.set("index.gain", brute.mean() / indexed.mean(), n);
}

/// What a server reported over a phase, as per-layer metrics.
pub fn server_layers(
    report: &mut Report,
    server: &Server,
    client_p50_us: f64,
    lag_p50_us: f64,
    queue_len: &mut Samples,
) {
    let stats = server.stats();
    let requests = stats.requests as usize;
    report.set(
        "http.service_p50_us",
        stats.service_p50_micros as f64,
        requests,
    );
    report.set(
        "http.service_p99_us",
        stats.service_p99_micros as f64,
        requests,
    );
    report.set(
        "http.outside_p50_us",
        client_p50_us - stats.service_p50_micros as f64 - lag_p50_us,
        requests,
    );
    report.set(
        "http.queue_len_p90",
        queue_len.quantile(0.9),
        queue_len.len(),
    );
    report.set("http.rejected", stats.rejected as f64, requests);
    report.set("http.errors", stats.errors as f64, requests);
    report.set(
        "http.reuse_ratio",
        stats.reused as f64 / stats.connections.max(1) as f64,
        stats.connections as usize,
    );
}

/// Serves `model` over loopback with the default replicated engine
/// (`nproc` workers), drives it open loop at [`config::OPEN_LOOP_RPS`]
/// over `nproc` pipelined keep-alive connections for `duration` while
/// sampling `GET /stats`, reloads it [`config::SETUP_REPS`] times, and
/// records the HTTP and slot layers. Gates: every answer equals the
/// in-process reference and carries `X-Model-Epoch`.
pub fn http_layers(
    report: &mut Report,
    model: &TrainedModel,
    traffic: Traffic<'_>,
    seed: u64,
    duration: Duration,
    spans: &mut SpanBuf,
) {
    let server = spans.span("http.start", 0, || {
        Server::start(
            model.clone(),
            ("127.0.0.1", 0),
            ServeOptions {
                threads: nproc(),
                ..ServeOptions::default()
            },
        )
        .expect("bind a loopback port")
    });
    let schedule = poisson_schedule(stream_seed(seed, 20), config::OPEN_LOOP_RPS, duration);
    let stop = AtomicBool::new(false);
    let ((mut open, check), mut queue_len) = std::thread::scope(|scope| {
        let sampler = scope
            .spawn(|| http::sample_queue_len(server.addr(), &stop, config::STATS_SAMPLE_INTERVAL));
        let open = http::open_loop(
            server.addr(),
            traffic,
            nproc(),
            0,
            &schedule,
            config::OPEN_LOOP_RPS,
            spans,
        );
        stop.store(true, Ordering::Relaxed);
        (open, sampler.join().expect("stats sampler thread"))
    });
    report.gate(
        "every HTTP answer equals the in-process reference",
        check.mismatched == 0 && check.checked > 0,
    );
    report.gate(
        "every HTTP answer carries X-Model-Epoch",
        check.missing_epoch == 0,
    );
    let mut reload = Samples::new();
    for rep in 0..config::SETUP_REPS as u64 {
        let copy = model.clone();
        let t = Instant::now();
        spans.span("slot.reload", rep, || server.reload(copy));
        reload.push(us(t));
    }
    let client_p50 = open.latency_us.median();
    let lag_p50 = open.lag_us.median();
    server_layers(report, &server, client_p50, lag_p50, &mut queue_len);
    report.set("slot.reload_us", reload.median(), reload.len());
    report.set("slot.reloads", server.stats().reloads as f64, 1);
    println!(
        "http probe: {} requests open loop at {} rps over {} connections, {} failed, client {}",
        open.attempted,
        config::OPEN_LOOP_RPS,
        nproc(),
        open.failed,
        open.latency_us.summary("us")
    );
    server.shutdown();
}
