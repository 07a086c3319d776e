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
//!
//! Two kernels compute Eq. (4) with bit-identical results:
//! [`sim_gamma_j`] scores one pair, and [`sim_gamma_j_each`] scores one
//! transaction against many representatives of a [`PreparedReps`], built
//! once per representative set. [`argmax_sim_gamma_j`] is the relocation
//! rule of Fig. 5 over the latter, shared by training, streaming and
//! serving.

use crate::item::ItemView;
use crate::itemsim::SimCtx;
use crate::pathsim::TagPathSimTable;
use cxk_text::sparse::cosine_from_dot;
use cxk_util::FxHashSet;
use cxk_xml::path::PathId;
use std::cell::RefCell;
use std::ops::Range;

/// Which terms of Eq. (1) a context evaluates: like [`SimCtx::sim`], the
/// structural term is skipped when `f ≤ 0` and the content term when
/// `f ≥ 1`.
#[derive(Clone, Copy)]
enum Mix {
    Structure,
    Content,
    Both,
}

impl Mix {
    fn of(f: f64) -> Self {
        if f >= 1.0 {
            Mix::Structure
        } else if f <= 0.0 {
            Mix::Content
        } else {
            Mix::Both
        }
    }

    fn structure(self) -> bool {
        !matches!(self, Mix::Content)
    }

    fn content(self) -> bool {
        !matches!(self, Mix::Structure)
    }
}

/// Fills `matrix` row-major with Eq. (1) for the `n1 × n2` item pairs of
/// two transactions, from each pair's structural and content terms; the
/// term a mix skips is never evaluated.
fn fill_matrix(
    matrix: &mut Vec<f64>,
    (n1, n2): (usize, usize),
    mix: Mix,
    f: f64,
    sim_s: impl Fn(usize, usize) -> f64,
    sim_c: impl Fn(usize, usize) -> f64,
) {
    matrix.clear();
    for i in 0..n1 {
        matrix.extend((0..n2).map(|j| match mix {
            Mix::Structure => sim_s(i, j),
            Mix::Content => sim_c(i, j),
            Mix::Both => f * sim_s(i, j) + (1.0 - f) * sim_c(i, j),
        }));
    }
}

/// Marks the items of `matchγ(tr1, tr2)` in `hit1` / `hit2` from the
/// row-major `|tr1| × |tr2|` item-similarity matrix.
fn mark_shared(
    matrix: &[f64],
    (n1, n2): (usize, usize),
    gamma: f64,
    hit1: &mut Vec<bool>,
    hit2: &mut Vec<bool>,
) {
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

/// `(|matchγ(tr1, tr2)|, |tr1 ∪ tr2|)` by fingerprint identity, from each
/// transaction's `(fingerprint, γ-shared)` pairs in ascending fingerprint
/// order: merging the two runs groups repeats (within or across the
/// transactions), and a fingerprint is shared if any of its occurrences is.
fn count_sorted(
    tr1: impl Iterator<Item = (u64, bool)>,
    tr2: impl Iterator<Item = (u64, bool)>,
) -> (usize, usize) {
    let (mut tr1, mut tr2) = (tr1.peekable(), tr2.peekable());
    let (mut shared, mut union) = (0usize, 0usize);
    let mut last: Option<(u64, bool)> = None;
    loop {
        let next = match (tr1.peek(), tr2.peek()) {
            (Some(a), Some(b)) if a.0 <= b.0 => tr1.next(),
            (_, Some(_)) => tr2.next(),
            _ => tr1.next(),
        };
        let Some((fp, hit)) = next else { break };
        match &mut last {
            Some((last_fp, last_hit)) if *last_fp == fp => {
                if hit && !*last_hit {
                    shared += 1;
                    *last_hit = true;
                }
            }
            _ => {
                union += 1;
                shared += usize::from(hit);
                last = Some((fp, hit));
            }
        }
    }
    (shared, union)
}

/// Fills `order` with the indices of `items` in ascending fingerprint
/// order.
fn sort_by_fingerprint(order: &mut Vec<u32>, items: &[ItemView<'_>]) {
    order.clear();
    order.extend(0..items.len() as u32);
    order.sort_unstable_by_key(|&i| items[i as usize].fingerprint);
}

/// The kernels' working memory, one per thread, grown to the largest
/// shapes seen and reused: a call allocates nothing once warm.
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
    /// tr1 / tr2 item indices in fingerprint order.
    order1: Vec<u32>,
    order2: Vec<u32>,
    /// One-to-many content dot products, `dots[b · |query| + i]` for
    /// prepared item `b` and query item `i`; all zero between calls.
    dots: Vec<f64>,
    /// The `dots` cells written by the current call.
    touched: Vec<usize>,
    /// The representatives a one-to-many call scores, in the order given.
    ids: Vec<u32>,
    /// Their non-empty item ranges, ascending, adjacent ones merged.
    spans: Vec<Range<usize>>,
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
    fn mark_pair(&mut self, ctx: &SimCtx<'_>, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) {
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
        let mix = Mix::of(ctx.params.f);
        let table = ctx.tag_sim;
        rank1.clear();
        rank2.clear();
        norm1.clear();
        norm2.clear();
        if mix.structure() {
            rank1.extend(tr1.iter().map(|a| table.dense_rank(a.tag_path)));
            rank2.extend(tr2.iter().map(|b| table.dense_rank(b.tag_path)));
        }
        if mix.content() {
            norm1.extend(tr1.iter().map(|a| a.vector.norm()));
            norm2.extend(tr2.iter().map(|b| b.vector.norm()));
        }
        let shape = (tr1.len(), tr2.len());
        fill_matrix(
            matrix,
            shape,
            mix,
            ctx.params.f,
            |i, j| table.sim_by_rank(rank1[i], rank2[j]),
            |i, j| {
                let (a, b) = (tr1[i].vector, tr2[j].vector);
                if a.is_empty() && b.is_empty() {
                    1.0
                } else {
                    cosine_from_dot(a.dot(b), norm1[i], norm2[j])
                }
            },
        );
        mark_shared(matrix, shape, ctx.params.gamma, hit1, hit2);
    }

    /// Resolves the one-to-many query once — its tag-path ranks and norms
    /// (as the mix needs them) and its fingerprint order — and adds every
    /// content dot product between it and the items of the representatives
    /// in `ids` into `dots`, noting each written cell in `touched`.
    ///
    /// A posting list is walked span by span (two binary searches per span
    /// of scored items) unless it is short against the number of spans,
    /// in which case it is walked whole: cells of unscored items are
    /// harmless, and reset with the rest. Either way each cell receives its
    /// query item's terms in ascending order.
    fn prepare_query(
        &mut self,
        ctx: &SimCtx<'_>,
        mix: Mix,
        reps: &PreparedReps,
        query: &[ItemView<'_>],
    ) {
        let n1 = query.len();
        self.rank1.clear();
        self.norm1.clear();
        if mix.structure() {
            let table = ctx.tag_sim;
            self.rank1
                .extend(query.iter().map(|a| table.dense_rank(a.tag_path)));
        }
        sort_by_fingerprint(&mut self.order1, query);
        if !mix.content() {
            return;
        }
        self.norm1.extend(query.iter().map(|a| a.vector.norm()));
        let cells = reps.item_count() * n1;
        if self.dots.len() < cells {
            self.dots.resize(cells, 0.0);
        }
        let Scratch {
            dots,
            touched,
            ids,
            spans,
            ..
        } = self;
        spans.clear();
        spans.extend(ids.iter().map(|&j| reps.items(j)).filter(|r| !r.is_empty()));
        spans.sort_unstable_by_key(|r| r.start);
        spans.dedup_by(|next, span| {
            let adjacent = next.start <= span.end;
            if adjacent {
                span.end = span.end.max(next.end);
            }
            adjacent
        });
        let mut add = |i: usize, postings: &[(u32, f64)], wa: f64| {
            for &(b, wb) in postings {
                let cell = b as usize * n1 + i;
                if dots[cell] == 0.0 {
                    touched.push(cell);
                }
                dots[cell] += wa * wb;
            }
        };
        for (i, a) in query.iter().enumerate() {
            for (term, wa) in a.vector.iter() {
                let mut rest = reps.postings(term.0);
                if rest.len() <= 4 * spans.len() {
                    add(i, rest, wa);
                    continue;
                }
                for span in spans.iter() {
                    rest = &rest[rest.partition_point(|&(b, _)| (b as usize) < span.start)..];
                    let n = rest.partition_point(|&(b, _)| (b as usize) < span.end);
                    add(i, &rest[..n], wa);
                    rest = &rest[n..];
                    if rest.is_empty() {
                        break;
                    }
                }
            }
        }
    }

    /// `(|matchγ(tr1, tr2)|, |tr1 ∪ tr2|)` after [`Self::mark_pair`].
    fn count_pair(&mut self, tr1: &[ItemView<'_>], tr2: &[ItemView<'_>]) -> (usize, usize) {
        sort_by_fingerprint(&mut self.order1, tr1);
        sort_by_fingerprint(&mut self.order2, tr2);
        let (hit1, hit2) = (&self.hit1, &self.hit2);
        count_sorted(
            self.order1
                .iter()
                .map(|&i| (tr1[i as usize].fingerprint, hit1[i as usize])),
            self.order2
                .iter()
                .map(|&j| (tr2[j as usize].fingerprint, hit2[j as usize])),
        )
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
        s.mark_pair(ctx, tr1, tr2);
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
        s.mark_pair(ctx, tr1, tr2);
        let (shared, union) = s.count_pair(tr1, tr2);
        (shared as f64 / union as f64).clamp(0.0, 1.0)
    })
}

/// A set of representatives prepared once for one-to-many `simγJ`
/// ([`sim_gamma_j_each`]): per item its tag path, vector norm, empty-vector
/// flag and fingerprint; per representative its item range and its items
/// in fingerprint order; and one term-postings table, term →
/// `(item, weight)` in ascending item order.
///
/// The set owns its data and borrows nothing, so it can outlive the
/// representatives it was built from. Tag paths are stored as [`PathId`]s:
/// their dense ranks belong to a [`TagPathSimTable`] and are resolved
/// separately ([`Self::ranks`]).
#[derive(Debug, Clone, Default)]
pub struct PreparedReps {
    /// Representative `j`'s items are `starts[j]..starts[j + 1]`.
    starts: Vec<usize>,
    tag_paths: Vec<PathId>,
    norms: Vec<f64>,
    empty: Vec<bool>,
    fingerprints: Vec<u64>,
    /// Each representative's item indices in fingerprint order, aligned
    /// with `starts`.
    by_fingerprint: Vec<u32>,
    /// Distinct terms, ascending: the postings of `terms[t]` are
    /// `postings[offsets[t]..offsets[t + 1]]`.
    terms: Vec<u32>,
    offsets: Vec<usize>,
    postings: Vec<(u32, f64)>,
}

/// Dense ranks of a [`PreparedReps`]' item tag paths in one
/// [`TagPathSimTable`] (see [`PreparedReps::ranks`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepRanks(Vec<usize>);

impl PreparedReps {
    /// Prepares `reps`, each given as its item views; representative `j`
    /// is the `j`-th.
    pub fn new<'a, R, I>(reps: R) -> Self
    where
        R: IntoIterator<Item = I>,
        I: IntoIterator<Item = ItemView<'a>>,
    {
        let mut set = Self {
            starts: vec![0],
            ..Self::default()
        };
        let mut entries: Vec<(u32, u32, f64)> = Vec::new();
        for rep in reps {
            let lo = set.tag_paths.len();
            for view in rep {
                let item = set.tag_paths.len() as u32;
                set.tag_paths.push(view.tag_path);
                set.norms.push(view.vector.norm());
                set.empty.push(view.vector.is_empty());
                set.fingerprints.push(view.fingerprint);
                entries.extend(view.vector.iter().map(|(term, w)| (term.0, item, w)));
            }
            let hi = set.tag_paths.len();
            let fingerprints = &set.fingerprints;
            set.by_fingerprint.extend(lo as u32..hi as u32);
            set.by_fingerprint[lo..].sort_unstable_by_key(|&b| fingerprints[b as usize]);
            set.starts.push(hi);
        }
        // Items were numbered in ascending order, so a stable sort by term
        // leaves every posting list in ascending item order.
        entries.sort_by_key(|&(term, _, _)| term);
        for (term, item, weight) in entries {
            if set.terms.last() != Some(&term) {
                set.terms.push(term);
                set.offsets.push(set.postings.len());
            }
            set.postings.push((item, weight));
        }
        set.offsets.push(set.postings.len());
        set
    }

    /// Number of representatives.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Whether the set holds no representatives.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total items over all representatives.
    pub fn item_count(&self) -> usize {
        self.tag_paths.len()
    }

    /// Representative `j`'s item range.
    fn items(&self, j: u32) -> Range<usize> {
        self.starts[j as usize]..self.starts[j as usize + 1]
    }

    /// The `(item, weight)` postings of `term`, empty if no item has it.
    fn postings(&self, term: u32) -> &[(u32, f64)] {
        match self.terms.binary_search(&term) {
            Ok(t) => &self.postings[self.offsets[t]..self.offsets[t + 1]],
            Err(_) => &[],
        }
    }

    /// Resolves every item's tag path to its dense rank in `table`; redo
    /// it whenever the table is rebuilt.
    ///
    /// # Panics
    /// Panics if an item's tag path is not registered in `table`.
    pub fn ranks(&self, table: &TagPathSimTable) -> RepRanks {
        RepRanks(
            self.tag_paths
                .iter()
                .map(|&p| table.dense_rank(p))
                .collect(),
        )
    }
}

/// One-to-many Eq. (4): calls `each(j, simγJ(query, rep_j))` for every
/// representative `j` of `ids`, in the order given, bit-identical to
/// [`sim_gamma_j`]`(ctx, query, rep_j)`. `ranks` must be
/// `reps.ranks(ctx.tag_sim)`.
///
/// The query's tag-path ranks, norms and fingerprint order are resolved
/// once per call, and only if a scored representative is non-empty (an
/// empty one scores `0.0` without a lookup, as in the pairwise kernel).
/// Every content dot product comes at once from the postings of the
/// query's terms, restricted to the scored representatives' item ranges
/// (`dots[b][i] += w_i · w_b`): each pair's products are added in
/// ascending term order starting from `0.0`, the merge order of
/// [`cxk_text::SparseVec::dot`], and pairs that share no term keep exactly
/// `0.0`. Each scored representative then costs its `|query| · |rep_j|`
/// table lookups, the γ-marking and a merge of the two fingerprint runs.
/// `each` may itself call the kernels.
pub fn sim_gamma_j_each(
    ctx: &SimCtx<'_>,
    reps: &PreparedReps,
    ranks: &RepRanks,
    query: &[ItemView<'_>],
    ids: impl IntoIterator<Item = u32>,
    mut each: impl FnMut(u32, f64),
) {
    if query.is_empty() {
        for j in ids {
            each(j, if reps.items(j).is_empty() { 1.0 } else { 0.0 });
        }
        return;
    }
    // Out of the thread-local for the whole call, so a nested call from
    // `each` works on scratch of its own.
    let mut s = SCRATCH.with(RefCell::take);
    s.ids.clear();
    s.ids.extend(ids);
    let mix = Mix::of(ctx.params.f);
    let table = ctx.tag_sim;
    let n1 = query.len();
    if s.ids.iter().any(|&j| !reps.items(j).is_empty()) {
        s.prepare_query(ctx, mix, reps, query);
    }

    let Scratch {
        rank1,
        norm1,
        matrix,
        hit1,
        hit2,
        order1,
        dots,
        ids,
        ..
    } = &mut s;
    for &j in ids.iter() {
        let items = reps.items(j);
        if items.is_empty() {
            each(j, 0.0);
            continue;
        }
        let lo = items.start;
        let shape = (n1, items.len());
        fill_matrix(
            matrix,
            shape,
            mix,
            ctx.params.f,
            |i, jj| table.sim_by_rank(rank1[i], ranks.0[lo + jj]),
            |i, jj| {
                let b = lo + jj;
                if query[i].vector.is_empty() && reps.empty[b] {
                    1.0
                } else {
                    cosine_from_dot(dots[b * n1 + i], norm1[i], reps.norms[b])
                }
            },
        );
        mark_shared(matrix, shape, ctx.params.gamma, hit1, hit2);
        let (shared, union) = count_sorted(
            order1
                .iter()
                .map(|&i| (query[i as usize].fingerprint, hit1[i as usize])),
            reps.by_fingerprint[items]
                .iter()
                .map(|&b| (reps.fingerprints[b as usize], hit2[b as usize - lo])),
        );
        each(j, (shared as f64 / union as f64).clamp(0.0, 1.0));
    }

    for &cell in &s.touched {
        s.dots[cell] = 0.0;
    }
    s.touched.clear();
    SCRATCH.with(|scratch| scratch.replace(s));
}

/// The relocation rule of Fig. 5 over [`sim_gamma_j_each`]: the
/// representative of `ids` with the highest `simγJ`, strict `>` so ties go
/// to the earliest id (`ids` ascend wherever the lowest id must win), and
/// `(trash, 0.0)` when nothing scores above zero.
pub fn argmax_sim_gamma_j(
    ctx: &SimCtx<'_>,
    reps: &PreparedReps,
    ranks: &RepRanks,
    query: &[ItemView<'_>],
    ids: impl IntoIterator<Item = u32>,
    trash: u32,
) -> (u32, f64) {
    let mut best = (trash, 0.0f64);
    sim_gamma_j_each(ctx, reps, ranks, query, ids, |j, s| {
        if s > best.1 {
            best = (j, s);
        }
    });
    best
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
