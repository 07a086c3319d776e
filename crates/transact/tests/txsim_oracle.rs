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
//!
//! The one-to-many kernel (`sim_gamma_j_each` over a `PreparedReps`) must
//! return, for every representative, the bits of the pairwise kernel and
//! of the oracle; its argmax must follow the relocation rule (strict `>`,
//! ties to the earliest id, trash when nothing scores above zero).

use cxk_text::SparseVec;
use cxk_transact::item::ItemView;
use cxk_transact::pathsim::TagPathSimTable;
use cxk_transact::txsim::{
    argmax_sim_gamma_j, gamma_shared, sim_gamma_j, sim_gamma_j_each, union_size, PreparedReps,
};
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

/// The relocation rule written out over the oracle.
fn oracle_argmax(
    ctx: &SimCtx<'_>,
    query: &[ItemView<'_>],
    reps: &[Vec<ItemView<'_>>],
    ids: &[u32],
    trash: u32,
) -> (u32, f64) {
    let mut best_j = trash;
    let mut best_s = 0.0f64;
    for &j in ids {
        let s = oracle_sim_gamma_j(ctx, query, &reps[j as usize]);
        if s > best_s {
            best_s = s;
            best_j = j;
        }
    }
    if best_s == 0.0 {
        (trash, 0.0)
    } else {
        (best_j, best_s)
    }
}

/// Asserts that the one-to-many kernel scores `query` against every
/// representative with the bits of the pairwise kernel and of the oracle,
/// over the `(f, γ)` grid plus `γ` at exact item similarities, and that its
/// argmax agrees with the oracle's over all ids and over every other id.
/// Scores are checked over all ids, every other id, each id alone and all
/// ids backwards with a repeat, so the postings are walked whole and span
/// by span.
fn assert_each_matches_pairwise(fx: &Fixture, reps: &[Vec<ItemView<'_>>], query: &[ItemView<'_>]) {
    let prepared = PreparedReps::new(reps.iter().map(|r| r.iter().copied()));
    assert_eq!(prepared.len(), reps.len());
    let ranks = prepared.ranks(&fx.table);
    let all: Vec<u32> = (0..reps.len() as u32).collect();
    let odd: Vec<u32> = all.iter().copied().filter(|j| j % 2 == 1).collect();
    let backwards: Vec<u32> = all.iter().rev().chain(all.first()).copied().collect();
    let id_lists: Vec<Vec<u32>> = [all.clone(), odd.clone(), backwards]
        .into_iter()
        .chain(all.iter().map(|&j| vec![j]))
        .collect();
    let trash = reps.len() as u32;
    for f in FS {
        let probe = SimCtx::new(&fx.table, SimParams::new(f, 0.5));
        let exact: Vec<f64> = reps
            .iter()
            .flat_map(|rep| {
                query
                    .iter()
                    .zip(rep.iter().rev())
                    .map(|(&a, &b)| oracle_sim(&probe, a, b))
            })
            .take(6)
            .collect();
        for gamma in GAMMAS.into_iter().chain(exact) {
            let ctx = SimCtx::new(&fx.table, SimParams::new(f, gamma));
            for ids in &id_lists {
                let mut seen: Vec<(u32, f64)> = Vec::new();
                sim_gamma_j_each(
                    &ctx,
                    &prepared,
                    &ranks,
                    query,
                    ids.iter().copied(),
                    |j, s| seen.push((j, s)),
                );
                let order: Vec<u32> = seen.iter().map(|&(j, _)| j).collect();
                assert_eq!(&order, ids, "one score per id, in the order given");
                for (j, got) in seen {
                    let rep = &reps[j as usize];
                    let pairwise = sim_gamma_j(&ctx, query, rep);
                    let want = oracle_sim_gamma_j(&ctx, query, rep);
                    assert_eq!(
                        got.to_bits(),
                        pairwise.to_bits(),
                        "rep {j} f={f} γ={gamma} ids={ids:?}: {got} vs pairwise {pairwise}"
                    );
                    assert_eq!(got.to_bits(), want.to_bits(), "rep {j} vs oracle");
                }
            }
            for ids in [&all, &odd] {
                let (j, s) =
                    argmax_sim_gamma_j(&ctx, &prepared, &ranks, query, ids.iter().copied(), trash);
                let (want_j, want_s) = oracle_argmax(&ctx, query, reps, ids, trash);
                assert_eq!(
                    (j, s.to_bits()),
                    (want_j, want_s.to_bits()),
                    "argmax f={f} γ={gamma} ids={ids:?}"
                );
            }
        }
    }
}

/// Query items may also carry `foreign` vectors, whose terms (≥ 100) no
/// representative item has.
fn query_views<'a>(fx: &'a Fixture, foreign: &'a [SparseVec], spec: &TxSpec) -> Vec<ItemView<'a>> {
    spec.iter()
        .map(|&(p, v, fingerprint)| {
            let v = v % (fx.vectors.len() + foreign.len());
            ItemView {
                tag_path: fx.tag_paths[p % fx.tag_paths.len()],
                vector: fx
                    .vectors
                    .get(v)
                    .unwrap_or_else(|| &foreign[v - fx.vectors.len()]),
                fingerprint,
            }
        })
        .collect()
}

fn foreign_vectors() -> Vec<SparseVec> {
    vec![
        SparseVec::from_pairs(vec![(Symbol(100), 1.0), (Symbol(101), 0.5)]),
        SparseVec::from_pairs(vec![(Symbol(1), 0.7), (Symbol(150), 2.0)]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_to_many_matches_pairwise_and_oracle(
        spec in fixture_strategy(),
        reps in proptest::collection::vec(tx_strategy(), 0..6),
        query in tx_strategy(),
    ) {
        let fx = build_fixture(&spec);
        let foreign = foreign_vectors();
        let rep_views: Vec<Vec<ItemView<'_>>> = reps.iter().map(|r| views(&fx, r)).collect();
        assert_each_matches_pairwise(&fx, &rep_views, &query_views(&fx, &foreign, &query));
        // Every representative scored against the set it belongs to.
        for rep in &rep_views {
            assert_each_matches_pairwise(&fx, &rep_views, rep);
        }
    }

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

#[test]
fn argmax_breaks_ties_to_the_earliest_id_and_trashes_zero() {
    let spec: FixtureSpec = (
        vec![vec![0, 1, 2], vec![3, 4]],
        vec![vec![(0, 1.0), (1, 2.5)], vec![(5, 1.0)]],
    );
    let fx = build_fixture(&spec);
    let a: TxSpec = vec![(0, 0, 1)];
    let b: TxSpec = vec![(1, 1, 2)];
    // Representatives 1 and 2 are identical; 0 and 3 share nothing with `a`.
    let reps: Vec<Vec<ItemView<'_>>> = [&b, &a, &a, &vec![]]
        .into_iter()
        .map(|r| views(&fx, r))
        .collect();
    let prepared = PreparedReps::new(reps.iter().map(|r| r.iter().copied()));
    let ranks = prepared.ranks(&fx.table);
    let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.9));
    let query = views(&fx, &a);
    let argmax =
        |ids: &[u32]| argmax_sim_gamma_j(&ctx, &prepared, &ranks, &query, ids.iter().copied(), 4);
    assert_eq!(argmax(&[0, 1, 2, 3]), (1, 1.0), "tie goes to the lower id");
    assert_eq!(argmax(&[2, 3]), (2, 1.0));
    assert_eq!(
        argmax(&[0, 3]),
        (4, 0.0),
        "no similarity above zero is trash"
    );
    assert_eq!(argmax(&[]), (4, 0.0), "no candidates is trash");
    // An empty query only matches the empty representative; a zero score
    // still never wins.
    let empty: Vec<ItemView<'_>> = Vec::new();
    let got = argmax_sim_gamma_j(&ctx, &prepared, &ranks, &empty, 0..4, 4);
    assert_eq!(got, (3, 1.0));
    let mut scores = Vec::new();
    sim_gamma_j_each(&ctx, &prepared, &ranks, &empty, 0..4, |j, s| {
        scores.push((j, s))
    });
    assert_eq!(scores, vec![(0, 0.0), (1, 0.0), (2, 0.0), (3, 1.0)]);
}

#[test]
fn one_to_many_calls_nest_and_reuse_scratch() {
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
    let reps: Vec<Vec<ItemView<'_>>> = [&big, &small, &dup]
        .into_iter()
        .map(|r| views(&fx, r))
        .collect();
    let prepared = PreparedReps::new(reps.iter().map(|r| r.iter().copied()));
    let ranks = prepared.ranks(&fx.table);
    let ctx = SimCtx::new(&fx.table, SimParams::new(0.3, 0.4));
    // Scoring each representative against the whole set from inside the
    // outer call's callback must leave both calls exact.
    sim_gamma_j_each(&ctx, &prepared, &ranks, &reps[0], 0..3, |j, s| {
        assert_eq!(
            s.to_bits(),
            sim_gamma_j(&ctx, &reps[0], &reps[j as usize]).to_bits()
        );
        sim_gamma_j_each(&ctx, &prepared, &ranks, &reps[j as usize], 0..3, |i, t| {
            let want = sim_gamma_j(&ctx, &reps[j as usize], &reps[i as usize]);
            assert_eq!(t.to_bits(), want.to_bits());
        });
    });
    for query in [&big, &small, &dup, &big] {
        assert_each_matches_pairwise(&fx, &reps, &views(&fx, query));
    }
}

#[test]
fn scattered_ids_over_long_postings_stay_exact() {
    // Forty representatives share terms 0 and 1, so those posting lists are
    // long against a handful of scored ids and are walked span by span.
    let spec: FixtureSpec = (
        vec![vec![0, 1, 2], vec![0, 1, 3], vec![4]],
        vec![
            vec![(0, 1.0), (1, 2.5)],
            vec![(0, 0.3), (1, 0.5), (2, 1.5)],
            vec![(1, 0.25), (3, 4.0)],
            vec![],
        ],
    );
    let fx = build_fixture(&spec);
    let specs: Vec<TxSpec> = (0..40usize)
        .map(|j| match j % 5 {
            0 => vec![],
            1 => vec![(0, 0, j as u64)],
            2 => vec![(1, 1, 1), (2, 2, j as u64), (0, 3, 2)],
            3 => vec![(2, 0, 3), (0, 1, 3)],
            _ => vec![(1, 2, j as u64), (1, 0, 4), (2, 1, 5)],
        })
        .collect();
    let reps: Vec<Vec<ItemView<'_>>> = specs.iter().map(|r| views(&fx, r)).collect();
    let prepared = PreparedReps::new(reps.iter().map(|r| r.iter().copied()));
    let ranks = prepared.ranks(&fx.table);
    let queries: [TxSpec; 3] = [
        vec![(0, 0, 1), (1, 1, 1), (2, 2, 9)],
        vec![(1, 1, 2), (0, 3, 7)],
        vec![(2, 2, 3)],
    ];
    let id_lists: [Vec<u32>; 6] = [
        vec![7],
        vec![3, 17, 30],
        vec![39, 0, 21, 21, 8],
        (10..20).collect(),
        (0..40).step_by(9).collect(),
        (0..40).collect(),
    ];
    for query in &queries {
        let query = views(&fx, query);
        for f in FS {
            for gamma in GAMMAS {
                let ctx = SimCtx::new(&fx.table, SimParams::new(f, gamma));
                for ids in &id_lists {
                    let mut seen = Vec::new();
                    sim_gamma_j_each(
                        &ctx,
                        &prepared,
                        &ranks,
                        &query,
                        ids.iter().copied(),
                        |j, s| seen.push((j, s.to_bits())),
                    );
                    let want: Vec<(u32, u64)> = ids
                        .iter()
                        .map(|&j| (j, sim_gamma_j(&ctx, &query, &reps[j as usize]).to_bits()))
                        .collect();
                    assert_eq!(seen, want, "f={f} γ={gamma} ids={ids:?}");
                }
            }
        }
    }
}
