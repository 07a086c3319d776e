//! Transaction similarity — the enhanced intersection `matchγ` and
//! `simγJ` (Eq. 4).
//!
//! The Jaccard coefficient's exact intersection is too brittle for XML
//! items that share structure or content only to a degree, so the paper
//! replaces it with the set of *γ-shared* items:
//!
//! ```text
//! matchγ(tr_i → tr_j) = { e ∈ tr_i | ∃ e_h ∈ tr_j : sim(e, e_h) ≥ γ
//!                                     ∧ ∄ e′ ∈ tr_i : sim(e′, e_h) > sim(e, e_h) }
//! matchγ(tr_1, tr_2)  = matchγ(tr_1 → tr_2) ∪ matchγ(tr_2 → tr_1)
//! simγJ(tr_1, tr_2)   = |matchγ(tr_1, tr_2)| / |tr_1 ∪ tr_2|
//! ```
//!
//! Items are identified by fingerprint (see `item`), so items shared between
//! the two transactions count once in both the match set and the union.

use crate::item::ItemView;
use crate::itemsim::SimCtx;
use cxk_text::sparse::cosine_from_dot;
use cxk_util::FxHashSet;
use std::cell::RefCell;

/// Which terms of Eq. (1) a context evaluates: like [`SimCtx::sim`], the
/// structural term is skipped when `f ≤ 0` and the content term when
/// `f ≥ 1`.
#[derive(Clone, Copy)]
enum Mix {
    Structure,
    Content,
    Both,
}

/// The kernel's working memory, one per thread, grown to the largest
/// transaction pair seen and reused: a call allocates nothing once warm.
#[derive(Default)]
struct Scratch {
    /// Dense tag-path rank of each tr1 / tr2 item (structure term).
    rank1: Vec<usize>,
    rank2: Vec<usize>,
    /// TCU vector norm of each tr1 / tr2 item (content term).
    norm1: Vec<f64>,
    norm2: Vec<f64>,
    /// Row-major `|tr1| × |tr2|` item similarities.
    matrix: Vec<f64>,
    /// Whether each tr1 / tr2 item is γ-shared.
    hit1: Vec<bool>,
    hit2: Vec<bool>,
    /// `(fingerprint, γ-shared)` of every item of both transactions.
    keys: Vec<(u64, bool)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// Marks the items of `matchγ(tr1, tr2)` in `hit1` / `hit2`; both
    /// transactions must be non-empty. Each item's tag-path rank and vector
    /// norm is resolved once, so the `|tr1|·|tr2|` matrix costs one table
    /// lookup and one sparse dot per pair; every entry is bit-identical to
    /// [`SimCtx::sim`].
    fn mark_shared(&mut self, ctx: &SimCtx<'_>, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) {
        let Scratch {
            rank1,
            rank2,
            norm1,
            norm2,
            matrix,
            hit1,
            hit2,
            ..
        } = self;
        let f = ctx.params.f;
        let mix = if f >= 1.0 {
            Mix::Structure
        } else if f <= 0.0 {
            Mix::Content
        } else {
            Mix::Both
        };
        let table = ctx.tag_sim;
        rank1.clear();
        rank2.clear();
        norm1.clear();
        norm2.clear();
        if !matches!(mix, Mix::Content) {
            rank1.extend(tr1.iter().map(|a| table.dense_rank(a.tag_path)));
            rank2.extend(tr2.iter().map(|b| table.dense_rank(b.tag_path)));
        }
        if !matches!(mix, Mix::Structure) {
            norm1.extend(tr1.iter().map(|a| a.vector.norm()));
            norm2.extend(tr2.iter().map(|b| b.vector.norm()));
        }
        let sim_s = |i: usize, j: usize| table.sim_by_rank(rank1[i], rank2[j]);
        let sim_c = |i: usize, j: usize| {
            let (a, b) = (tr1[i].vector, tr2[j].vector);
            if a.is_empty() && b.is_empty() {
                1.0
            } else {
                cosine_from_dot(a.dot(b), norm1[i], norm2[j])
            }
        };
        let (n1, n2) = (tr1.len(), tr2.len());
        matrix.clear();
        for i in 0..n1 {
            matrix.extend((0..n2).map(|j| match mix {
                Mix::Structure => sim_s(i, j),
                Mix::Content => sim_c(i, j),
                Mix::Both => f * sim_s(i, j) + (1.0 - f) * sim_c(i, j),
            }));
        }

        let gamma = ctx.params.gamma;
        hit1.clear();
        hit1.resize(n1, false);
        hit2.clear();
        hit2.resize(n2, false);
        // Direction tr1 -> tr2: for each target e_h (column j), the best
        // source rows whose similarity reaches gamma are gamma-shared.
        for j in 0..n2 {
            let best = (0..n1).fold(0.0f64, |best, i| best.max(matrix[i * n2 + j]));
            if best >= gamma {
                for (i, hit) in hit1.iter_mut().enumerate() {
                    if matrix[i * n2 + j] == best {
                        *hit = true;
                    }
                }
            }
        }
        // Direction tr2 -> tr1: rows are targets.
        for row in matrix.chunks_exact(n2) {
            let best = row.iter().fold(0.0f64, |best, &s| best.max(s));
            if best >= gamma {
                for (hit, &s) in hit2.iter_mut().zip(row) {
                    if s == best {
                        *hit = true;
                    }
                }
            }
        }
    }

    /// `(|matchγ(tr1, tr2)|, |tr1 ∪ tr2|)` by fingerprint identity, after
    /// [`Self::mark_shared`]: sorting the fingerprints groups repeats
    /// (within or across the transactions), and a fingerprint is shared if
    /// any of its occurrences is.
    fn count(&mut self, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> (usize, usize) {
        self.keys.clear();
        self.keys.extend(
            tr1.iter()
                .zip(&self.hit1)
                .chain(tr2.iter().zip(&self.hit2))
                .map(|(v, &hit)| (v.fingerprint, hit)),
        );
        self.keys.sort_unstable_by_key(|&(fp, _)| fp);
        self.keys.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 |= later.1;
            }
            same
        });
        let shared = self.keys.iter().filter(|&&(_, hit)| hit).count();
        (shared, self.keys.len())
    }
}

/// Computes `matchγ(tr1, tr2)` as a fingerprint set.
pub fn gamma_shared(
    ctx: &SimCtx<'_>,
    tr1: &[ItemView<'_>],
    tr2: &[ItemView<'_>],
) -> FxHashSet<u64> {
    let mut shared = FxHashSet::default();
    if tr1.is_empty() || tr2.is_empty() {
        return shared;
    }
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.mark_shared(ctx, tr1, tr2);
        let items = tr1.iter().zip(&s.hit1).chain(tr2.iter().zip(&s.hit2));
        shared.extend(items.filter(|(_, &hit)| hit).map(|(v, _)| v.fingerprint));
    });
    shared
}

/// `|tr1 ∪ tr2|` by fingerprint identity.
pub fn union_size(tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> usize {
    let mut set: FxHashSet<u64> = FxHashSet::default();
    set.extend(tr1.iter().map(|v| v.fingerprint));
    set.extend(tr2.iter().map(|v| v.fingerprint));
    set.len()
}

/// Eq. (4): `simγJ(tr1, tr2)` in `[0, 1]`.
///
/// Two empty transactions are defined to be identical (`1.0`); an empty
/// against a non-empty is `0.0`. Allocation-free once the calling thread's
/// scratch buffers have grown to the largest pair it has scored.
pub fn sim_gamma_j(ctx: &SimCtx<'_>, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> f64 {
    if tr1.is_empty() || tr2.is_empty() {
        return if tr1.is_empty() && tr2.is_empty() {
            1.0
        } else {
            0.0
        };
    }
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        s.mark_shared(ctx, tr1, tr2);
        let (shared, union) = s.count(tr1, tr2);
        (shared as f64 / union as f64).clamp(0.0, 1.0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemsim::SimParams;
    use crate::pathsim::TagPathSimTable;
    use cxk_text::SparseVec;
    use cxk_util::{Interner, Symbol};
    use cxk_xml::path::{PathId, PathTable};

    struct Fixture {
        table: TagPathSimTable,
        tag_paths: Vec<PathId>,
        vectors: Vec<SparseVec>,
    }

    /// Three tag paths: two near-identical bibliographic ones and one
    /// structurally unrelated; four vectors: three distinct topics plus one
    /// duplicate of topic 0.
    fn fixture() -> Fixture {
        let mut interner = Interner::new();
        let mut paths = PathTable::new();
        let specs = [
            vec!["dblp", "article", "title"],
            vec!["dblp", "inproceedings", "title"],
            vec!["play", "act", "scene", "speech"],
        ];
        let ids: Vec<PathId> = specs
            .iter()
            .map(|spec| {
                let labels: Vec<Symbol> = spec.iter().map(|t| interner.intern(t)).collect();
                paths.intern(&labels)
            })
            .collect();
        let table = TagPathSimTable::build(&ids, &paths);
        let vectors = vec![
            SparseVec::from_pairs(vec![(Symbol(0), 1.0), (Symbol(1), 1.0)]),
            SparseVec::from_pairs(vec![(Symbol(2), 1.0), (Symbol(3), 1.0)]),
            SparseVec::from_pairs(vec![(Symbol(4), 1.0)]),
            SparseVec::from_pairs(vec![(Symbol(0), 1.0), (Symbol(1), 1.0)]),
        ];
        Fixture {
            table,
            tag_paths: ids,
            vectors,
        }
    }

    fn view<'a>(fx: &'a Fixture, path: usize, vector: usize, fp: u64) -> ItemView<'a> {
        ItemView {
            tag_path: fx.tag_paths[path],
            vector: &fx.vectors[vector],
            fingerprint: fp,
        }
    }

    #[test]
    fn identical_transactions_have_sim_one() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.8));
        let tr = vec![view(&fx, 0, 0, 1), view(&fx, 1, 1, 2)];
        assert!((sim_gamma_j(&ctx, &tr, &tr) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_transactions_have_sim_zero() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.95));
        let tr1 = vec![view(&fx, 0, 0, 1)];
        let tr2 = vec![view(&fx, 2, 2, 2)];
        assert_eq!(sim_gamma_j(&ctx, &tr1, &tr2), 0.0);
    }

    #[test]
    fn near_matches_count_with_loose_gamma() {
        let fx = fixture();
        // Same content, sibling structure (article vs inproceedings title).
        let tr1 = vec![view(&fx, 0, 0, 1)];
        let tr2 = vec![view(&fx, 1, 3, 2)];
        let loose = SimCtx::new(&fx.table, SimParams::new(0.5, 0.6));
        let strict = SimCtx::new(&fx.table, SimParams::new(0.5, 0.999));
        // Loose: both items gamma-share; union = 2 -> 2/2 = 1.
        assert!((sim_gamma_j(&loose, &tr1, &tr2) - 1.0).abs() < 1e-12);
        assert_eq!(sim_gamma_j(&strict, &tr1, &tr2), 0.0);
    }

    #[test]
    fn symmetric() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.4, 0.7));
        let tr1 = vec![view(&fx, 0, 0, 1), view(&fx, 2, 2, 3)];
        let tr2 = vec![view(&fx, 1, 1, 2)];
        let ab = sim_gamma_j(&ctx, &tr1, &tr2);
        let ba = sim_gamma_j(&ctx, &tr2, &tr1);
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn shared_items_count_once_in_union() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.8));
        // Both transactions contain the identical item (same fingerprint).
        let shared_item = view(&fx, 0, 0, 42);
        let tr1 = vec![shared_item, view(&fx, 2, 2, 7)];
        let tr2 = vec![shared_item];
        // Union = {42, 7} = 2; match contains 42 (identical => sim 1).
        let s = sim_gamma_j(&ctx, &tr1, &tr2);
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn best_match_rule_excludes_dominated_items() {
        let fx = fixture();
        // tr1 has an exact duplicate of tr2's item and a weaker near-match;
        // only the best (exact) one is gamma-shared in direction tr1->tr2.
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.5, 0.6));
        let exact = view(&fx, 0, 0, 1);
        let weaker = view(&fx, 1, 0, 2); // same content, sibling path
        let target = view(&fx, 0, 0, 3);
        let tr1 = vec![exact, weaker];
        let tr2 = vec![target];
        let shared = gamma_shared(&ctx, &tr1, &tr2);
        assert!(shared.contains(&1), "exact match included");
        assert!(!shared.contains(&2), "dominated item excluded");
        // Direction tr2 -> tr1 adds the target itself.
        assert!(shared.contains(&3));
    }

    #[test]
    fn empty_transaction_conventions() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::default());
        let tr = vec![view(&fx, 0, 0, 1)];
        let empty: Vec<ItemView<'_>> = Vec::new();
        assert_eq!(sim_gamma_j(&ctx, &empty, &empty), 1.0);
        assert_eq!(sim_gamma_j(&ctx, &empty, &tr), 0.0);
        assert_eq!(sim_gamma_j(&ctx, &tr, &empty), 0.0);
    }

    #[test]
    fn range_stays_in_unit_interval() {
        let fx = fixture();
        let ctx = SimCtx::new(&fx.table, SimParams::new(0.3, 0.5));
        let tr1 = vec![view(&fx, 0, 0, 1), view(&fx, 1, 1, 2), view(&fx, 2, 2, 3)];
        let tr2 = vec![view(&fx, 1, 3, 4), view(&fx, 2, 1, 5)];
        let s = sim_gamma_j(&ctx, &tr1, &tr2);
        assert!((0.0..=1.0).contains(&s), "simγJ = {s}");
    }
}
