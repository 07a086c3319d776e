//! Bit-exactness of the `simγJ` kernel (Eq. 4) against a naive oracle.
//!
//! The oracle is the direct hash-set formulation of `matchγ`: a full item
//! similarity matrix evaluated pair by pair through the tag-path table,
//! and the γ-shared items and the union collected into `FxHashSet`s. The
//! kernel resolves ranks and norms once per call, reuses per-thread
//! scratch and counts fingerprints by sorting; every result must agree to
//! the bit, including repeated fingerprints within and across transactions,
//! empty transactions, empty vectors and the `f ∈ {0, 1}` branches. A
//! mixed `f` other than 0.5 makes both products of Eq. (1) inexact, so a
//! reassociated or fused sum shows up at the exact-similarity `γ` probes.

use cxk_text::SparseVec;
use cxk_transact::item::ItemView;
use cxk_transact::pathsim::TagPathSimTable;
use cxk_transact::txsim::{gamma_shared, sim_gamma_j, union_size};
use cxk_transact::{SimCtx, SimParams};
use cxk_util::{FxHashSet, Interner, Symbol};
use cxk_xml::path::{PathId, PathTable};
use proptest::prelude::*;

/// Eq. (1) evaluated pair by pair, with the cosine written out in full.
fn oracle_sim(ctx: &SimCtx<'_>, a: ItemView<'_>, b: ItemView<'_>) -> f64 {
    let sim_s = || ctx.tag_sim.sim(a.tag_path, b.tag_path);
    let sim_c = || {
        if a.vector.is_empty() && b.vector.is_empty() {
            return 1.0;
        }
        let denom = a.vector.norm() * b.vector.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (a.vector.dot(b.vector) / denom).clamp(0.0, 1.0)
    };
    let f = ctx.params.f;
    if f >= 1.0 {
        return sim_s();
    }
    if f <= 0.0 {
        return sim_c();
    }
    f * sim_s() + (1.0 - f) * sim_c()
}

fn oracle_gamma_shared(
    ctx: &SimCtx<'_>,
    tr1: &[ItemView<'_>],
    tr2: &[ItemView<'_>],
) -> FxHashSet<u64> {
    let mut shared = FxHashSet::default();
    if tr1.is_empty() || tr2.is_empty() {
        return shared;
    }
    let gamma = ctx.params.gamma;
    let (n1, n2) = (tr1.len(), tr2.len());
    let mut matrix = vec![0.0f64; n1 * n2];
    for (i, &a) in tr1.iter().enumerate() {
        for (j, &b) in tr2.iter().enumerate() {
            matrix[i * n2 + j] = oracle_sim(ctx, a, b);
        }
    }
    for j in 0..n2 {
        let mut best = 0.0f64;
        for i in 0..n1 {
            best = best.max(matrix[i * n2 + j]);
        }
        if best >= gamma {
            for (i, a) in tr1.iter().enumerate() {
                if matrix[i * n2 + j] == best {
                    shared.insert(a.fingerprint);
                }
            }
        }
    }
    for i in 0..n1 {
        let mut best = 0.0f64;
        for j in 0..n2 {
            best = best.max(matrix[i * n2 + j]);
        }
        if best >= gamma {
            for (j, b) in tr2.iter().enumerate() {
                if matrix[i * n2 + j] == best {
                    shared.insert(b.fingerprint);
                }
            }
        }
    }
    shared
}

fn oracle_union(tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> usize {
    let mut set: FxHashSet<u64> = FxHashSet::default();
    set.extend(tr1.iter().map(|v| v.fingerprint));
    set.extend(tr2.iter().map(|v| v.fingerprint));
    set.len()
}

fn oracle_sim_gamma_j(ctx: &SimCtx<'_>, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> f64 {
    if tr1.is_empty() && tr2.is_empty() {
        return 1.0;
    }
    let union = oracle_union(tr1, tr2);
    if union == 0 {
        return 0.0;
    }
    let shared = oracle_gamma_shared(ctx, tr1, tr2).len();
    (shared as f64 / union as f64).clamp(0.0, 1.0)
}

/// Tag paths, TCU vectors (some empty), and the tag-path table over them.
struct Fixture {
    table: TagPathSimTable,
    tag_paths: Vec<PathId>,
    vectors: Vec<SparseVec>,
}

/// Paths as label sequences, vectors as `(term, weight)` pairs.
type FixtureSpec = (Vec<Vec<u8>>, Vec<Vec<(u8, f64)>>);

fn fixture_strategy() -> impl Strategy<Value = FixtureSpec> {
    (
        proptest::collection::vec(proptest::collection::vec(0u8..6, 1..5), 1..6),
        proptest::collection::vec(
            proptest::collection::vec((0u8..10, 0.01f64..5.0), 0..5),
            1..8,
        ),
    )
}

fn build_fixture((paths, vectors): &FixtureSpec) -> Fixture {
    let mut interner = Interner::new();
    let mut table = PathTable::new();
    let ids: Vec<PathId> = paths
        .iter()
        .map(|labels| {
            let symbols: Vec<Symbol> = labels
                .iter()
                .map(|l| interner.intern(&format!("t{l}")))
                .collect();
            table.intern(&symbols)
        })
        .collect();
    let mut distinct = ids.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let vectors = vectors
        .iter()
        .map(|pairs| {
            SparseVec::from_pairs(
                pairs
                    .iter()
                    .map(|&(t, w)| (Symbol(u32::from(t)), w))
                    .collect(),
            )
        })
        .collect();
    Fixture {
        table: TagPathSimTable::build(&distinct, &table),
        tag_paths: ids,
        vectors,
    }
}

/// Items as `(path, vector, fingerprint)` indices. Fingerprints come from a
/// small range, so they repeat within and across transactions.
type TxSpec = Vec<(usize, usize, u64)>;

fn tx_strategy() -> impl Strategy<Value = TxSpec> {
    proptest::collection::vec((0usize..8, 0usize..8, 0u64..6), 0..7)
}

fn views<'a>(fx: &'a Fixture, spec: &TxSpec) -> Vec<ItemView<'a>> {
    spec.iter()
        .map(|&(p, v, fingerprint)| ItemView {
            tag_path: fx.tag_paths[p % fx.tag_paths.len()],
            vector: &fx.vectors[v % fx.vectors.len()],
            fingerprint,
        })
        .collect()
}

const FS: [f64; 4] = [0.0, 0.3, 0.5, 1.0];
const GAMMAS: [f64; 4] = [0.0, 0.4, 0.85, 1.0];

/// Asserts kernel == oracle on one pair for every `(f, γ)` of the grid,
/// and for `γ` equal to item similarities of the pair, where an entry off
/// by one ulp would flip a `≥ γ` test.
fn assert_matches_oracle(fx: &Fixture, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) {
    for f in FS {
        let probe = SimCtx::new(&fx.table, SimParams::new(f, 0.5));
        let exact = tr1
            .iter()
            .zip(tr2.iter().rev())
            .map(|(&a, &b)| oracle_sim(&probe, a, b));
        for gamma in GAMMAS.into_iter().chain(exact) {
            let ctx = SimCtx::new(&fx.table, SimParams::new(f, gamma));
            let got = sim_gamma_j(&ctx, tr1, tr2);
            let want = oracle_sim_gamma_j(&ctx, tr1, tr2);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "simγJ f={f} γ={gamma}: {got} vs oracle {want}"
            );
            assert_eq!(
                gamma_shared(&ctx, tr1, tr2),
                oracle_gamma_shared(&ctx, tr1, tr2),
                "matchγ f={f} γ={gamma}"
            );
        }
    }
    assert_eq!(union_size(tr1, tr2), oracle_union(tr1, tr2));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_matches_naive_oracle(
        spec in fixture_strategy(),
        tr1 in tx_strategy(),
        tr2 in tx_strategy(),
    ) {
        let fx = build_fixture(&spec);
        let (a, b) = (views(&fx, &tr1), views(&fx, &tr2));
        assert_matches_oracle(&fx, &a, &b);
        assert_matches_oracle(&fx, &b, &a);
        assert_matches_oracle(&fx, &a, &a);
    }
}

#[test]
fn scratch_reuse_across_shapes_keeps_results_exact() {
    // Shrinking and growing pairs on one thread reuse the same scratch: a
    // stale hit flag or matrix cell from a larger call must never leak.
    let spec: FixtureSpec = (
        vec![vec![0, 1, 2], vec![0, 1, 3], vec![4, 5]],
        vec![
            vec![(0, 1.0), (1, 2.5)],
            vec![(1, 0.5), (2, 1.5)],
            vec![],
            vec![(0, 1.0), (1, 2.5)],
        ],
    );
    let fx = build_fixture(&spec);
    let big: TxSpec = (0..6).map(|i| (i, i + 1, i as u64)).collect();
    let small: TxSpec = vec![(1, 2, 9)];
    let dup: TxSpec = vec![(0, 0, 3), (1, 3, 3), (2, 2, 4)];
    for (x, y) in [(&big, &big), (&small, &big), (&dup, &small), (&big, &dup)] {
        assert_matches_oracle(&fx, &views(&fx, x), &views(&fx, y));
    }
}
