//! Self-tests of the benchmark's own machinery: exact percentiles,
//! schedule determinism, span self-time arithmetic, failure counting
//! against a server that sheds load, and agreement between the metric
//! catalogue and `BENCHMARK.json`.

use cxk_perfbench::http::{self, Traffic};
use cxk_perfbench::metrics::{END_TO_END, PER_LAYER};
use cxk_perfbench::openloop::{poisson_schedule, stream_seed};
use cxk_perfbench::pipeline::{self, Corpus};
use cxk_perfbench::stats::Samples;
use cxk_perfbench::trace::{SpanBuf, Trace};
use cxk_perfbench::workloads::WORKLOADS;
use cxk_serve::{Classifier, ServeOptions, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn percentiles_are_exact_order_statistics() {
    let mut s = Samples::new();
    for v in (1..=100).rev() {
        s.push(f64::from(v));
    }
    assert_eq!(s.len(), 100);
    assert_eq!(s.quantile(0.5), 50.0);
    assert_eq!(s.quantile(0.9), 90.0);
    assert_eq!(s.quantile(0.99), 99.0);
    assert_eq!(s.quantile(1.0), 100.0);
    assert_eq!(s.quantile(0.0), 1.0);
    assert_eq!(s.beyond(0.9), 10);
    // A value between two samples is never invented.
    let mut two = Samples::new();
    two.push(10.0);
    two.push(20.0);
    assert_eq!(two.median(), 10.0);
    assert!(Samples::new().quantile(0.5).is_nan());
}

#[test]
fn schedules_repeat_for_a_seed_and_match_their_rate() {
    let a = poisson_schedule(7, 2000.0, Duration::from_secs(5));
    let b = poisson_schedule(7, 2000.0, Duration::from_secs(5));
    let c = poisson_schedule(8, 2000.0, Duration::from_secs(5));
    assert_eq!(a, b, "same seed, same schedule");
    assert_ne!(a, c, "another seed, another schedule");
    assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
    assert!(a.iter().all(|&t| t < 5_000_000_000), "within the horizon");
    let expected = 2000.0 * 5.0;
    let n = a.len() as f64;
    assert!(
        (n - expected).abs() < 0.05 * expected,
        "{n} arrivals, expected about {expected}"
    );
    assert_ne!(stream_seed(1, 2), stream_seed(2, 1));
    assert_eq!(stream_seed(1, 2), stream_seed(1, 2));
}

#[test]
fn self_time_subtracts_merged_child_coverage() {
    let epoch = Instant::now();
    let at = |us: u64| epoch + Duration::from_micros(us);
    let mut buf = SpanBuf::new(true, epoch);
    buf.enter_at("a.parent", 1, at(0));
    // Two overlapping children cover 10..50; a third sticks out of the
    // parent and counts only up to its end.
    buf.record("b.child", 1, at(10), at(30));
    buf.record("b.child", 1, at(20), at(50));
    buf.record("c.late", 1, at(90), at(120));
    buf.exit_at(at(100));
    buf.record("a.parent", 2, at(200), at(260));
    let mut trace = Trace::new();
    trace.absorb(buf);

    let times = trace.self_times();
    let parent = times["a.parent"];
    assert_eq!(parent.count, 2);
    assert_eq!(parent.total_ns, 160_000);
    assert_eq!(parent.self_ns, 50_000 + 60_000, "100 - (40 + 10), plus 60");
    assert_eq!(
        times["b.child"].self_ns,
        20_000 + 30_000,
        "siblings each count"
    );
    assert_eq!(times["c.late"].self_ns, 30_000);
    let layers = trace.layer_self_times();
    assert_eq!(layers["a"].self_ns, 110_000);
    assert_eq!(layers["b"].total_ns, 50_000);
    assert!(trace.spans().iter().all(|s| s.id == 1 || s.id == 2));

    let mut off = SpanBuf::new(false, epoch);
    off.enter("a.parent", 1);
    off.exit();
    let mut empty = Trace::new();
    empty.absorb(off);
    assert!(
        empty.spans().is_empty(),
        "a disabled recorder records nothing"
    );
}

#[test]
fn sheds_and_resets_count_as_failures_and_the_run_completes() {
    let corpus = Corpus::dblp(1, 60);
    let mut spans = SpanBuf::new(false, Instant::now());
    let ingested = pipeline::ingest(&corpus.stream_text(), 1, &mut spans);
    let (fit, _) = pipeline::fit(&ingested.dataset, 2, &mut spans);
    let model = pipeline::snapshot(fit, &ingested.dataset, &mut spans).model;
    let shared = Arc::new(model.clone());
    let mut classifier = Classifier::shared(Arc::clone(&shared));
    let expected: Vec<u32> = corpus
        .docs
        .iter()
        .map(|d| classifier.classify(d).expect("classifies").cluster)
        .collect();

    // One worker stalled per request and a queue of one: with four
    // connections, requests beyond the one in service and the one queued
    // are shed with 503.
    let server = Server::start(
        model,
        ("127.0.0.1", 0),
        ServeOptions {
            threads: 1,
            queue_depth: 1,
            worker_delay: Some(Duration::from_millis(5)),
            ..ServeOptions::default()
        },
    )
    .expect("bind a loopback port");
    let traffic = Traffic {
        docs: &corpus.docs,
        expected: &expected,
    };
    let schedule = poisson_schedule(3, 1000.0, Duration::from_millis(300));
    let (result, check) =
        http::open_loop(server.addr(), traffic, 4, 0, &schedule, 1000.0, &mut spans);
    let stats = server.stats();
    server.shutdown();

    assert!(stats.rejected > 0, "the server shed load: {stats:?}");
    assert!(result.failed > 0, "sheds are failures");
    assert!(
        result.failed >= stats.rejected as usize,
        "every 503 counts: {} failed, {} shed",
        result.failed,
        stats.rejected
    );
    assert_eq!(result.completed + result.failed, result.attempted);
    assert!(result.attempted <= schedule.len());
    assert!(result.completed > 0, "answers still arrive");
    assert_eq!(check.mismatched, 0, "answered requests match the reference");
    assert_eq!(check.missing_epoch, 0, "every answer carries its epoch");
}

#[test]
fn refused_connections_count_as_failures() {
    // Bind and drop a listener: its port now refuses connections.
    let addr = std::net::TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral port");
    let docs = vec!["<a>x</a>".to_string()];
    let expected = vec![0u32];
    let traffic = Traffic {
        docs: &docs,
        expected: &expected,
    };
    let schedule = poisson_schedule(5, 500.0, Duration::from_millis(100));
    let mut spans = SpanBuf::new(false, Instant::now());
    let (result, _) = http::open_loop(addr, traffic, 2, 0, &schedule, 500.0, &mut spans);
    assert_eq!(result.completed, 0);
    assert_eq!(result.failed, result.attempted);
    assert_eq!(result.attempted, schedule.len());
}

#[test]
fn the_catalogue_matches_benchmark_json() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    for def in END_TO_END.iter().chain(PER_LAYER) {
        let needle = format!(
            r#"{{"name": "{}", "unit": "{}", "better": "{}""#,
            def.name, def.unit, def.better
        );
        assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
    }
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!(r#"{{"name": "{workload}", "why": "#)),
            "BENCHMARK.json lacks workload {workload}"
        );
    }
    let entries = json.matches(r#"{"name": "#).count();
    assert_eq!(
        entries,
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "BENCHMARK.json lists exactly the catalogue"
    );
}
