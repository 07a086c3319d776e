//! Bit-exactness of Fig. 6's sparse ranking kernels against the dense
//! loops they replace.
//!
//! `GenerateTreeTuple` batches items by exact f64 rank equality, so the
//! sparse `rank_C` self-join must reproduce the dense `Σ_o sim_C(e, o)`
//! bit for bit: same products, same per-pair term order, same order of the
//! outer sum.

use cxk_core::{content_ranks, fig6_ranks};
use cxk_corpus::dblp::{self, DblpConfig};
use cxk_text::SparseVec;
use cxk_transact::item::ItemView;
use cxk_transact::{BuildOptions, Dataset, DatasetBuilder, SimParams};
use cxk_util::{FxHashMap, Symbol};
use cxk_xml::path::PathId;
use proptest::prelude::*;

/// `SimCtx::sim_c` written out: cosine, with two empty vectors identical.
fn dense_sim_c(a: &SparseVec, b: &SparseVec) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let denom = a.norm() * b.norm();
    if denom == 0.0 {
        return 0.0;
    }
    (a.dot(b) / denom).clamp(0.0, 1.0)
}

/// The dense Fig. 6 loop: every vector against every vector, in order.
fn dense_content_ranks(vectors: &[&SparseVec]) -> Vec<f64> {
    vectors
        .iter()
        .map(|v| {
            let mut rank = 0.0;
            for o in vectors {
                rank += dense_sim_c(v, o);
            }
            rank
        })
        .collect()
}

fn assert_bit_identical(got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "rank {i}: {g} vs dense {w}");
    }
}

/// A base set of vectors (some empty) and a pool drawing from it with
/// repetition, so duplicate vectors appear at several positions.
type PoolSpec = (Vec<Vec<(u32, f64)>>, Vec<usize>);

fn pool_strategy(vocabulary: u32, max_pool: usize) -> impl Strategy<Value = PoolSpec> {
    (
        proptest::collection::vec(
            proptest::collection::vec((0..vocabulary, 0.001f64..10.0), 0..8),
            1..12,
        ),
        proptest::collection::vec(0usize..12, 1..max_pool),
    )
}

fn check_pool((base, picks): &PoolSpec) {
    let base: Vec<SparseVec> = base
        .iter()
        .map(|pairs| SparseVec::from_pairs(pairs.iter().map(|&(t, w)| (Symbol(t), w)).collect()))
        .collect();
    let pool: Vec<&SparseVec> = picks.iter().map(|&i| &base[i % base.len()]).collect();
    assert_bit_identical(&content_ranks(&pool), &dense_content_ranks(&pool));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_overlap_matches_dense_sum(spec in pool_strategy(6, 40)) {
        check_pool(&spec);
    }

    #[test]
    fn sparse_overlap_matches_dense_sum(spec in pool_strategy(200, 40)) {
        check_pool(&spec);
    }

    #[test]
    fn single_item_pools_match_dense_sum(spec in pool_strategy(6, 2)) {
        check_pool(&spec);
    }
}

#[test]
fn all_empty_pool_ranks_by_count() {
    let empty = SparseVec::new();
    let pool = vec![&empty; 5];
    assert_bit_identical(&content_ranks(&pool), &[5.0; 5]);
}

fn dataset() -> Dataset {
    let corpus = dblp::generate(&DblpConfig {
        documents: 60,
        seed: 0x5EED_0014,
        dialects: 3,
    });
    let mut builder = DatasetBuilder::new(BuildOptions::default());
    for doc in &corpus.documents {
        builder.add_xml(doc).expect("generated document parses");
    }
    builder.finish()
}

#[test]
fn fig6_ranks_match_the_dense_formulation_on_dblp() {
    let ds = dataset();
    // Pools: every item, and the distinct items of a few clusters.
    let mut pools: Vec<Vec<usize>> = vec![(0..ds.items.len()).collect()];
    for chunk in ds.transactions.chunks(7) {
        let mut ids: Vec<usize> = chunk
            .iter()
            .flat_map(|t| t.items().iter().map(|id| id.index()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        pools.push(ids);
    }
    for (f, gamma) in [(0.0, 0.3), (0.5, 0.4), (0.7, 0.85), (1.0, 1.0)] {
        let ctx = ds.sim_ctx(SimParams::new(f, gamma));
        for ids in &pools {
            let pool: Vec<(PathId, ItemView<'_>)> = ids
                .iter()
                .map(|&i| (ds.items[i].path, ds.items[i].view()))
                .collect();
            // The dense formulation, as Fig. 6 states it.
            let mut paths: FxHashMap<PathId, (PathId, u64)> = FxHashMap::default();
            for (path, view) in &pool {
                paths.entry(*path).or_insert((view.tag_path, 0)).1 += 1;
            }
            let want: Vec<f64> = pool
                .iter()
                .map(|(_, view)| {
                    let matched: u64 = paths
                        .values()
                        .filter(|(tag_path, _)| ctx.tag_sim.sim(view.tag_path, *tag_path) >= gamma)
                        .map(|(_, h)| h)
                        .sum();
                    let rank_s = matched as f64 / paths.len() as f64;
                    let mut rank_c = 0.0;
                    for (_, other) in &pool {
                        rank_c += dense_sim_c(view.vector, other.vector);
                    }
                    f * rank_s + (1.0 - f) * rank_c
                })
                .collect();
            let mut work = 0u64;
            let got = fig6_ranks(&ctx, &pool, &mut work);
            assert_bit_identical(&got, &want);
            let n = pool.len() as u64;
            assert_eq!(work, n * (n + paths.len() as u64), "analytic work");
        }
    }
}
