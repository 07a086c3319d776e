//! The training pipeline every workload runs, driven through the public
//! API of the crates: streaming ingest (`cxk_xml` + `cxk_transact`),
//! collaborative training (`cxk_core` over the `cxk_p2p` cost model), and
//! model snapshots (`cxk_core::model`).

use crate::config;
use crate::stats::median_of;
use crate::trace::SpanBuf;
use cxk_core::{
    load_model, save_model, snapshot_digest, Backend, EngineBuilder, FitOutcome, TrainedModel,
};
use cxk_corpus::dblp::{self, DblpConfig};
use cxk_transact::{BuildOptions, Dataset, DatasetBuilder};
use std::time::Instant;

/// Generated documents with their hybrid (record type × topic) labels.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// One XML document per entry.
    pub docs: Vec<String>,
    /// The generator's hybrid class of each document.
    pub labels: Vec<u32>,
}

impl Corpus {
    /// `documents` 3-dialect DBLP records drawn from `seed`.
    pub fn dblp(seed: u64, documents: usize) -> Self {
        let corpus = dblp::generate(&DblpConfig {
            documents,
            seed,
            dialects: config::DIALECTS,
        });
        Self {
            docs: corpus.documents,
            labels: corpus.hybrid_class,
        }
    }

    /// The corpus as newline-delimited text, the `cxk train --stream`
    /// input format.
    pub fn stream_text(&self) -> String {
        let mut text = self.docs.join("\n");
        text.push('\n');
        text
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Repeated builds of the dataset from one stream.
#[derive(Debug)]
pub struct Ingested {
    /// The dataset of the last repetition.
    pub dataset: Dataset,
    /// Documents in the stream.
    pub documents: usize,
    /// `ingest_stream` wall time of each repetition.
    pub ingest_s: Vec<f64>,
    /// `finish` wall time of each repetition.
    pub finish_s: Vec<f64>,
    /// Every repetition produced the same dataset statistics.
    pub repeatable: bool,
}

impl Ingested {
    /// Median `ingest_stream + finish` time.
    pub fn build_s(&self) -> f64 {
        let totals: Vec<f64> = self
            .ingest_s
            .iter()
            .zip(&self.finish_s)
            .map(|(a, b)| a + b)
            .collect();
        median_of(&totals)
    }

    /// Documents per second of the median `ingest_stream` call.
    pub fn docs_per_s(&self) -> f64 {
        self.documents as f64 / median_of(&self.ingest_s)
    }
}

/// Builds the dataset from `text` `reps` times (`ingest_stream`, then
/// `finish`), as `cxk train --stream` does.
///
/// # Panics
/// Panics if the generated stream does not parse.
pub fn ingest(text: &str, reps: usize, spans: &mut SpanBuf) -> Ingested {
    let mut ingest_s = Vec::with_capacity(reps);
    let mut finish_s = Vec::with_capacity(reps);
    let mut last: Option<Dataset> = None;
    let mut repeatable = true;
    let mut documents = 0;
    for rep in 0..reps.max(1) {
        let rep = rep as u64;
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        let t = Instant::now();
        let stats = spans.span("transact.ingest_stream", rep, || {
            builder
                .ingest_stream(text.as_bytes())
                .expect("generated corpus parses")
        });
        ingest_s.push(secs(t));
        documents = stats.documents as usize;
        let t = Instant::now();
        let dataset = spans.span("transact.finish", rep, || builder.finish());
        finish_s.push(secs(t));
        if let Some(prev) = &last {
            // `DatasetStats` has no `PartialEq`; its debug rendering lists
            // every field.
            repeatable &= format!("{:?}", prev.stats) == format!("{:?}", dataset.stats)
                && prev.doc_of == dataset.doc_of;
        }
        last = Some(dataset);
    }
    Ingested {
        dataset: last.expect("at least one repetition"),
        documents,
        ingest_s,
        finish_s,
        repeatable,
    }
}

/// Collaborative CXK-means with `k` clusters over [`config::PEERS`]
/// simulated peers, timed.
///
/// # Panics
/// Panics if the configuration is invalid or training fails.
pub fn fit(dataset: &Dataset, k: usize, spans: &mut SpanBuf) -> (FitOutcome, f64) {
    let engine = EngineBuilder::new(k)
        .backend(Backend::SimulatedP2p {
            peers: config::PEERS,
        })
        .similarity(config::F, config::GAMMA)
        .seed(config::ENGINE_SEED)
        .build()
        .expect("valid engine configuration");
    let t = Instant::now();
    let outcome = spans.span("core.fit", k as u64, || {
        engine.fit(dataset).expect("training runs")
    });
    (outcome, secs(t))
}

/// FNV-1a over an assignment vector: equal digests, equal assignments.
pub fn assignment_digest(assignments: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in assignments {
        for b in a.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// A servable model made from a fit, with its snapshot round trip timed.
#[derive(Debug)]
pub struct Snapshot {
    /// The model as reloaded from its snapshot bytes.
    pub model: TrainedModel,
    /// `FitOutcome::into_model` wall time.
    pub into_model_s: f64,
    /// `save_model` wall time.
    pub save_s: f64,
    /// `load_model` wall time.
    pub load_s: f64,
    /// Snapshot size.
    pub bytes: usize,
    /// The snapshot's content digest.
    pub digest: u64,
    /// `save_model(load_model(save_model(m)))` has the same digest.
    pub round_trip: bool,
}

/// `into_model` → `save_model` → `load_model`, each timed and traced; the
/// reloaded model is saved once more (untimed) to check the digest.
///
/// # Panics
/// Panics if the snapshot does not decode.
pub fn snapshot(fit: FitOutcome, dataset: &Dataset, spans: &mut SpanBuf) -> Snapshot {
    let t = Instant::now();
    let model = spans.span("core.into_model", 0, || {
        fit.into_model(dataset, BuildOptions::default())
    });
    let into_model_s = secs(t);
    let t = Instant::now();
    let bytes = spans.span("model.save", 0, || save_model(&model));
    let save_s = secs(t);
    let t = Instant::now();
    let model = spans.span("model.load", 0, || {
        load_model(&bytes).expect("a saved snapshot loads")
    });
    let load_s = secs(t);
    let digest = snapshot_digest(&bytes).expect("a saved snapshot has a digest");
    let round_trip = snapshot_digest(&save_model(&model)) == Some(digest);
    Snapshot {
        model,
        into_model_s,
        save_s,
        load_s,
        bytes: bytes.len(),
        digest,
        round_trip,
    }
}

/// Peak resident set of this process in MiB, less its file-backed pages:
/// `VmHWM − RssFile − RssShmem`. The file-backed part is mostly the
/// program's own code, and how much of it is resident depends on the page
/// cache (it moved the peak by 2 MiB between runs of one binary), while it
/// stays put once the program runs. `NaN` where `/proc` is unavailable.
pub fn rss_peak_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    let kb = |field: &str| {
        status.lines().find_map(|line| {
            let kb = line.strip_prefix(field)?.trim().strip_suffix("kB")?;
            kb.trim().parse::<f64>().ok()
        })
    };
    match (kb("VmHWM:"), kb("RssFile:"), kb("RssShmem:")) {
        (Some(peak), Some(file), Some(shmem)) => (peak - file - shmem) / 1024.0,
        _ => f64::NAN,
    }
}

/// Worker threads and client connections: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
