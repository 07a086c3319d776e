//! Golden regression: a fixed-seed collaborative fit pinned to the bit.
//!
//! The similarity kernels (`simγJ`, Fig. 6's `rank_C`) may be rewritten for
//! speed only if every result stays bit-identical, because
//! `GenerateTreeTuple` batches items by *exact* f64 rank equality and the
//! relocation argmax compares exact scores. These values were recorded from
//! the dense reference kernels; any reassociation of a floating-point sum
//! moves at least one of them.

use cxk_core::{save_model, snapshot_digest, Backend, EngineBuilder, FitOutcome};
use cxk_corpus::dblp::{self, DblpConfig};
use cxk_transact::{BuildOptions, Dataset, DatasetBuilder};

/// FNV-1a over the assignment vector: equal digests, equal assignments.
fn assignment_digest(assignments: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in assignments {
        for b in a.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn dataset(documents: usize, seed: u64) -> Dataset {
    let corpus = dblp::generate(&DblpConfig {
        documents,
        seed,
        dialects: 3,
    });
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in &corpus.documents {
        builder.add_xml(doc).expect("generated document parses");
    }
    builder.finish()
}

/// The four pinned values of one fit: assignment digest, `total_work`,
/// `total_bytes` and the digest of the servable snapshot.
fn fingerprint(ds: &Dataset, fit: FitOutcome) -> (u64, u64, u64, u64) {
    let digest = assignment_digest(&fit.assignments);
    let (work, bytes) = (fit.total_work, fit.total_bytes);
    let model = fit.into_model(ds, BuildOptions::default());
    let snapshot = snapshot_digest(&save_model(&model)).expect("a valid snapshot");
    (digest, work, bytes, snapshot)
}

fn fit(ds: &Dataset, k: usize, backend: Backend, f: f64, gamma: f64) -> (u64, u64, u64, u64) {
    let engine = EngineBuilder::new(k)
        .backend(backend)
        .similarity(f, gamma)
        .seed(3)
        .build()
        .expect("valid configuration");
    fingerprint(ds, engine.fit(ds).expect("training runs"))
}

#[test]
fn collaborative_dblp_fit_is_bit_identical() {
    let ds = dataset(300, 0x5EED_0012);
    let got = fit(&ds, 8, Backend::SimulatedP2p { peers: 4 }, 0.5, 0.4);
    assert_eq!(
        got,
        (
            12_794_877_298_585_035_583,
            4_326_834,
            37_692,
            16_994_427_811_872_225_334
        ),
        "assignment digest, work, bytes, snapshot"
    );
}

#[test]
fn pure_structure_and_pure_content_fits_are_bit_identical() {
    // f = 1 and f = 0 take the single-term branches of Eq. (1).
    let ds = dataset(120, 0x5EED_0013);
    let structure = fit(&ds, 4, Backend::Centralized, 1.0, 0.6);
    assert_eq!(
        structure,
        (
            15_338_834_611_376_003_335,
            634_122,
            0,
            17_581_129_660_475_455_656
        ),
        "f = 1"
    );
    let content = fit(&ds, 4, Backend::SimulatedP2p { peers: 2 }, 0.0, 0.3);
    assert_eq!(
        content,
        (
            1_226_928_141_254_602_368,
            1_654_225,
            9_268,
            7_795_152_064_800_966_989
        ),
        "f = 0"
    );
}
