//! The metric catalogue (names, units, directions, the layer each
//! per-layer metric measures and the end-to-end metric it should move),
//! and the per-run report that fills it. `BENCHMARK.json` lists the same
//! names, units and directions; a self-test keeps the two equal.

use std::collections::BTreeMap;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `lower` or `higher` is better.
    pub better: &'static str,
    /// The layer (module or crate) it measures.
    pub layer: &'static str,
    /// The end-to-end metric (and workload) it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

/// End-to-end metrics, reported with tracing off on every workload. Each
/// workload's per-document path is `Classifier::classify`
/// (`classify_batch_k256`) or one document of streaming ingest
/// (`train_p2p_m4`), driven back to back.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", "all", "-"),
    m("docs_per_s", "docs/s", "higher", "all", "-"),
    m("latency_p50_us", "us", "lower", "all", "-"),
    m("latency_p90_us", "us", "lower", "all", "-"),
    m("f_measure", "ratio", "higher", "all", "-"),
    m("train_s", "s", "lower", "all", "-"),
    m("traffic_bytes", "bytes", "lower", "all", "-"),
    m("rss_peak_mb", "MiB", "lower", "all", "-"),
];

/// Per-layer metrics, reported by the traced run on every workload.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    m("openloop.p50_us", "us", "lower", "all (open loop at 2000 rps)", "latency_p50_us"),
    m("openloop.p90_us", "us", "lower", "all (open loop at 2000 rps)", "latency_p90_us"),
    m("openloop.max_rps_at_slo", "1/s", "higher", "all (open-loop rate search)", "docs_per_s"),
    m("loadgen.lag_p50_us", "us", "lower", "perfbench::openloop", "nothing (if it rises, latencies measure the driver)"),
    m("loadgen.lag_p99_us", "us", "lower", "perfbench::openloop", "nothing (if it rises, latencies measure the driver)"),
    m("http.service_p50_us", "us", "lower", "cxk_serve::http", "HTTP probe client latency (traced only)"),
    m("http.service_p99_us", "us", "lower", "cxk_serve::http", "HTTP probe client latency (traced only)"),
    m("http.outside_p50_us", "us", "lower", "cxk_serve::http", "HTTP probe client latency (traced only)"),
    m("http.queue_len_p90", "count", "lower", "cxk_serve::http", "HTTP probe client latency (traced only)"),
    m("http.rejected", "count", "lower", "cxk_serve::http", "HTTP probe failures (traced only)"),
    m("http.errors", "count", "lower", "cxk_serve::http", "HTTP probe failures (traced only)"),
    m("http.reuse_ratio", "ratio", "higher", "cxk_serve::http", "HTTP probe failures (traced only)"),
    m("slot.reload_us", "us", "lower", "cxk_serve::slot", "setup_s on classify_batch_k256"),
    m("slot.reloads", "count", "higher", "cxk_serve::slot", "HTTP probe reloads (traced only)"),
    m("classify.build_us", "us", "lower", "cxk_serve::classify", "setup_s on classify_batch_k256"),
    m("classify.indexed_us", "us", "lower", "cxk_serve::classify", "docs_per_s on classify_batch_k256"),
    m("classify.brute_us", "us", "lower", "cxk_serve::classify", "docs_per_s on classify_batch_k256"),
    m("classify.featurize_score_us", "us", "lower", "cxk_serve::classify", "docs_per_s on classify_batch_k256"),
    m("classify.trash_ratio", "ratio", "lower", "cxk_serve::classify", "f_measure"),
    m("xml.parse_us", "us", "lower", "cxk_xml", "docs_per_s on classify_batch_k256"),
    m("xml.tuples_us", "us", "lower", "cxk_xml", "docs_per_s on classify_batch_k256"),
    m("xml.tuples_per_doc", "count", "lower", "cxk_xml", "docs_per_s on classify_batch_k256"),
    m("index.candidates_per_tuple", "count", "lower", "cxk_serve::index", "docs_per_s on classify_batch_k256"),
    m("index.prune_ratio", "ratio", "lower", "cxk_serve::index", "docs_per_s on classify_batch_k256"),
    m("index.gain", "ratio", "higher", "cxk_serve::index", "docs_per_s on classify_batch_k256"),
    m("index.build_us", "us", "lower", "cxk_serve::index", "setup_s"),
    m("index.postings_bytes", "bytes", "lower", "cxk_serve::index", "setup_s, rss_peak_mb"),
    m("transact.ingest_us", "us", "lower", "cxk_transact", "setup_s on train_p2p_m4"),
    m("transact.featurize_us", "us", "lower", "cxk_transact", "docs_per_s, latency_p50_us on train_p2p_m4"),
    m("transact.finish_ms", "ms", "lower", "cxk_transact", "setup_s on train_p2p_m4"),
    m("transact.transactions", "count", "higher", "cxk_transact", "train_s"),
    m("core.fit_s", "s", "lower", "cxk_core", "train_s"),
    m("core.rounds", "count", "lower", "cxk_core", "train_s"),
    m("core.work", "count", "lower", "cxk_core", "train_s"),
    m("core.work_per_s", "1/s", "higher", "cxk_core", "train_s"),
    m("core.into_model_s", "s", "lower", "cxk_core", "train_s; setup_s on classify_batch_k256"),
    m("model.save_ms", "ms", "lower", "cxk_core::model", "setup_s on classify_batch_k256"),
    m("model.load_ms", "ms", "lower", "cxk_core::model", "setup_s on classify_batch_k256"),
    m("model.bytes", "bytes", "lower", "cxk_core::model", "setup_s on classify_batch_k256"),
    m("p2p.messages", "count", "lower", "cxk_p2p", "traffic_bytes"),
    m("p2p.bytes", "bytes", "lower", "cxk_p2p", "traffic_bytes"),
    m("p2p.round_bytes_max", "bytes", "lower", "cxk_p2p", "traffic_bytes"),
    m("p2p.simulated_s", "s", "lower", "cxk_p2p", "train_s (the paper's modeled runtime)"),
];

/// One measured value.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// Samples behind it (1 for a single measurement or a count).
    pub samples: usize,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name.
    pub values: BTreeMap<&'static str, Value>,
    /// Operations attempted in the measured phases.
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// Correctness gates that failed, by name.
    pub gate_failures: Vec<String>,
}

impl Report {
    /// Records `name = value`, measured from `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, Value { value, samples });
    }

    /// Records a correctness gate; a failed one is kept by name.
    pub fn gate(&mut self, name: &str, ok: bool) {
        println!("gate {name}: {}", if ok { "pass" } else { "FAIL" });
        if !ok {
            self.gate_failures.push(name.to_string());
        }
    }

    /// The final line: the JSON result over `defs`.
    ///
    /// # Panics
    /// Panics if a metric in `defs` was not measured or is not finite: a
    /// result with a hole in it must not be mistaken for a measurement.
    pub fn result_json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .values
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                assert!(v.value.is_finite(), "metric {} is {}", d.name, v.value);
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    d.name, v.value, d.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.gate_failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// Human-readable lines: every metric of `defs` with unit and sample
    /// count.
    pub fn print_table(&self, defs: &[MetricDef]) {
        for d in defs {
            if let Some(v) = self.values.get(d.name) {
                println!(
                    "metric {:<28} {:>16.4} {:<7} n={:<7} [{}]",
                    d.name, v.value, d.unit, v.samples, d.layer
                );
            }
        }
    }
}
