//! The item ranking of Fig. 6, shared by `ComputeLocalRepresentative` and
//! `ComputeGlobalRepresentative`.
//!
//! Every item `e` of a pool `I` (a cluster's distinct items, or the items
//! of the local representatives being merged) is ranked by
//!
//! ```text
//! rank(e)   = f · rank_S(e) + (1 − f) · rank_C(e)
//! rank_S(e) = Σ { h_p : p ∈ P, sim_S(e, p) ≥ γ } / |P|
//! rank_C(e) = Σ_{o ∈ I} sim_C(e, o)            (e itself included)
//! ```
//!
//! where `P` holds the pool's distinct complete paths and `h_p` counts the
//! pool items carrying `p`. As a dense double loop `rank_C` costs `|I|²`
//! cosines, the dominant cost of §4.3.2. [`content_ranks`] computes it as a
//! self-join over term postings instead: only items sharing a term have a
//! non-zero cosine, so the cost is `Σ_t |postings_t|²`, and the result is
//! bit-identical to the dense sum (see its documentation).

use cxk_text::sparse::cosine_from_dot;
use cxk_text::SparseVec;
use cxk_transact::item::ItemView;
use cxk_transact::SimCtx;
use cxk_util::FxHashMap;
use cxk_xml::path::PathId;

/// Ranks every item of `pool`, given as `(complete path, view)` pairs, by
/// Fig. 6's blend `f · rank_S + (1 − f) · rank_C`, in pool order. Charges
/// the analytic work of the dense formulation, `|I| · (|I| + |P|)`.
pub fn fig6_ranks(ctx: &SimCtx<'_>, pool: &[(PathId, ItemView<'_>)], work: &mut u64) -> Vec<f64> {
    // P: per distinct complete path, the dense rank of its tag path and
    // the number of pool items carrying it.
    let mut path_counts: FxHashMap<PathId, (usize, u64)> = FxHashMap::default();
    for (path, view) in pool {
        let entry = path_counts
            .entry(*path)
            .or_insert_with(|| (ctx.tag_sim.dense_rank(view.tag_path), 0));
        entry.1 += 1;
    }
    let paths: Vec<(usize, u64)> = path_counts.into_values().collect();
    let p = paths.len() as f64;
    let vectors: Vec<&SparseVec> = pool.iter().map(|(_, view)| view.vector).collect();
    let rank_c = content_ranks(&vectors);
    *work += (pool.len() as u64) * (pool.len() as u64 + paths.len() as u64);

    let (f, gamma) = (ctx.params.f, ctx.params.gamma);
    pool.iter()
        .zip(rank_c)
        .map(|((_, view), rank_c)| {
            let own = ctx.tag_sim.dense_rank(view.tag_path);
            let matched: u64 = paths
                .iter()
                .filter(|&&(tag_rank, _)| ctx.tag_sim.sim_by_rank(own, tag_rank) >= gamma)
                .map(|&(_, h)| h)
                .sum();
            let rank_s = matched as f64 / p;
            f * rank_s + (1.0 - f) * rank_c
        })
        .collect()
}

/// `rank_C` of every vector: `Σ_o sim_C(v, o)` over all of `vectors`, self
/// included, where `sim_C` is the cosine and two empty vectors count as
/// identical (`1.0`), as in `SimCtx::sim_c`.
///
/// Computed as a sparse self-join over term postings, sequentially, and
/// bit-identical to the dense double loop:
///
/// * a pair sharing no term has cosine `0.0`, and adding `0.0` to the
///   non-negative running sum leaves it unchanged, so such pairs are
///   skipped;
/// * each pair's dot product adds its `w_v · w_o` products in ascending
///   term order, the merge order of `SparseVec::dot`;
/// * the non-zero cosines are added in ascending position in `vectors`,
///   the order of the dense loop;
/// * an empty vector matches exactly the empty vectors, so its rank is
///   their count; a non-empty vector gains nothing from them.
pub fn content_ranks(vectors: &[&SparseVec]) -> Vec<f64> {
    let n = vectors.len();
    let norms: Vec<f64> = vectors.iter().map(|v| v.norm()).collect();
    let empties = vectors.iter().filter(|v| v.is_empty()).count();

    // Postings: every (term, position, weight) entry, grouped by term and
    // ascending in position within a term.
    let mut offsets = vec![0usize; n + 1];
    for (i, v) in vectors.iter().enumerate() {
        offsets[i + 1] = offsets[i] + v.nnz();
    }
    let mut postings: Vec<(u32, usize, f64)> = Vec::with_capacity(offsets[n]);
    for (pos, v) in vectors.iter().enumerate() {
        postings.extend(v.iter().map(|(term, w)| (term.0, pos, w)));
    }
    postings.sort_unstable_by_key(|&(term, pos, _)| (term, pos));
    // For every vector entry, in the vector's own (ascending) term order,
    // the range of `postings` holding its term.
    let mut spans = vec![(0usize, 0usize); offsets[n]];
    let mut cursor = offsets[..n].to_vec();
    let mut start = 0;
    while start < postings.len() {
        let term = postings[start].0;
        let len = postings[start..]
            .iter()
            .take_while(|&&(t, _, _)| t == term)
            .count();
        for &(_, pos, _) in &postings[start..start + len] {
            spans[cursor[pos]] = (start, start + len);
            cursor[pos] += 1;
        }
        start += len;
    }

    let mut dot = vec![0.0f64; n];
    let mut stamp = vec![usize::MAX; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut ranks = Vec::with_capacity(n);
    for (i, v) in vectors.iter().enumerate() {
        if v.is_empty() {
            ranks.push(empties as f64);
            continue;
        }
        touched.clear();
        for ((_, w), &(lo, hi)) in v.iter().zip(&spans[offsets[i]..offsets[i + 1]]) {
            for &(_, o, w_o) in &postings[lo..hi] {
                if stamp[o] != i {
                    stamp[o] = i;
                    dot[o] = 0.0;
                    touched.push(o);
                }
                dot[o] += w * w_o;
            }
        }
        touched.sort_unstable();
        let mut rank = 0.0;
        for &o in &touched {
            rank += cosine_from_dot(dot[o], norms[i], norms[o]);
        }
        ranks.push(rank);
    }
    ranks
}
