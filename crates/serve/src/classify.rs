//! Online classification of XML documents against a trained model.
//!
//! Classification mirrors the training pipeline with **frozen corpus
//! statistics**: the incoming document is parsed, its tree tuples
//! extracted, and every TCU weighted with `ttf.itf` against the training
//! collection's `N_T` / `n_{j,T}` — the document does *not* join the
//! collection, so classification is read-only with respect to the model's
//! statistics and any arrival order of requests yields identical scores.
//! (Unseen terms get `n_{j,T} = 0` and weight 0; unseen tags only ever
//! exact-match themselves, so the symbols they intern into the session's
//! private interners cannot affect similarities either.)
//!
//! The state splits along the sharing boundary the serving layer needs:
//!
//! * `QuerySession` (crate-private) is the **per-worker mutable** half —
//!   private copies of the model's interners and path table (parsing
//!   interns unseen markup), plus the lazily extended tag-path similarity
//!   table. It is cheap relative to the model: no representatives, no
//!   postings.
//! * The [`TrainedModel`] and any index built over its representatives are
//!   **immutable** once published, so they can sit behind an `Arc` and be
//!   shared by every worker — the memory model the sharded engine
//!   (`crate::shard`) is built on.
//!
//! Each tree tuple is assigned by the paper's relocation rule — argmax of
//! `simγJ` over the representatives, trash when every similarity is zero —
//! and the document aggregates its tuples by summed similarity per
//! cluster. [`Classifier::classify`] consults the index first;
//! [`Classifier::classify_brute`] scores every representative. The two are
//! guaranteed to agree exactly (see the `index` module docs), and the
//! sharded scatter/gather path ([`crate::shard::ShardedClassifier`])
//! agrees with both (see the `shard` module docs). [`ClassifyEngine`] is
//! the seam servers hold: one enum over the replicated and sharded
//! execution strategies with a single classify surface.

use crate::index::{Candidates, TagPathIndex};
use crate::remote::{RemoteClassifier, RemoteEngine};
use crate::shard::{ShardedClassifier, ShardedEngine};
use crate::tree::{TreeClassifier, TreeEngine};
use cxk_core::rep::{RepItem, Representative};
use cxk_core::TrainedModel;
use cxk_p2p::NetworkError;
use cxk_text::{preprocess, ttf_itf, SparseVec, TermStatsBuilder};
use cxk_transact::item::{item_fingerprint, ItemView};
use cxk_transact::txsim::{argmax_sim_gamma_j, sim_gamma_j_each, PreparedReps, RepRanks};
use cxk_transact::{SimCtx, SimParams, TagPathSimTable};
use cxk_util::{FxHashMap, FxHashSet, Interner, Symbol};
use cxk_xml::parser::{parse_document, XmlError};
use cxk_xml::path::{leaf_tag_path, PathId, PathTable};
use cxk_xml::tuple::{count_tree_tuples, extract_tree_tuples};
use std::sync::Arc;

/// Assignment of one tree tuple (transaction) of the document.
#[derive(Debug, Clone, PartialEq)]
pub struct TupleAssignment {
    /// Cluster id; `k` is the trash cluster.
    pub cluster: u32,
    /// `simγJ` against the winning representative (0 for trash).
    pub similarity: f64,
    /// Representatives actually scored (≤ `k`; the index pruned the rest).
    pub candidates: usize,
}

/// Document-level assignment: the aggregate over the document's tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentAssignment {
    /// Winning cluster id; `k` (trash) when no tuple γ-matched anything.
    pub cluster: u32,
    /// Summed `simγJ` of the tuples assigned to the winning cluster.
    pub score: f64,
    /// Per-tuple assignments, in tree-tuple extraction order.
    pub tuples: Vec<TupleAssignment>,
    /// Whether tuple enumeration hit the per-tree cap
    /// (`TupleLimits::max_tuples_per_tree`): the document was scored on a
    /// truncated tuple set, so the assignment is a best-effort answer.
    pub capped: bool,
}

/// A classification failure, as surfaced through [`ClassifyEngine`].
///
/// The in-process strategies only ever fail to parse; the remote strategy
/// adds the network: a shard's whole replica set timing out or hanging up
/// ([`ClassifyError::Network`] — a [`NetworkError::Timeout`] stays typed
/// so callers can distinguish deadline misses from hangups), or a daemon
/// answering with a protocol/configuration error such as a model-digest
/// mismatch ([`ClassifyError::Remote`]).
#[derive(Debug)]
pub enum ClassifyError {
    /// The document failed to parse.
    Xml(XmlError),
    /// A remote shard could not be reached within the failover budget.
    Network(NetworkError),
    /// A remote shard answered, but with a protocol or configuration
    /// error.
    Remote(String),
}

impl std::fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassifyError::Xml(e) => write!(f, "{e}"),
            ClassifyError::Network(e) => write!(f, "remote shard unavailable: {e}"),
            ClassifyError::Remote(message) => write!(f, "remote shard error: {message}"),
        }
    }
}

impl std::error::Error for ClassifyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClassifyError::Xml(e) => Some(e),
            ClassifyError::Network(e) => Some(e),
            ClassifyError::Remote(_) => None,
        }
    }
}

impl From<XmlError> for ClassifyError {
    fn from(e: XmlError) -> Self {
        ClassifyError::Xml(e)
    }
}

impl From<NetworkError> for ClassifyError {
    fn from(e: NetworkError) -> Self {
        ClassifyError::Network(e)
    }
}

/// The per-worker mutable half of a classification session: private
/// interner copies plus the derived structural-similarity table, extended
/// lazily as unseen markup arrives (exactly like the streaming clusterer),
/// and the representatives' tag-path ranks in that table.
///
/// A session is built from (a shared reference to) a model and never
/// touches it again — every mutation lands in the session's own copies, so
/// any number of sessions can share one `Arc<TrainedModel>`, one immutable
/// index and one [`PreparedReps`] across threads.
#[derive(Debug)]
pub(crate) struct QuerySession {
    /// Copy of the model's label interner (grows with unseen tags).
    labels: Interner,
    /// Copy of the model's term vocabulary (grows with unseen terms).
    vocabulary: Interner,
    /// Copy of the model's path table (grows with unseen paths).
    paths: PathTable,
    /// Preprocessing options frozen at training time.
    build: cxk_transact::BuildOptions,
    tag_sim: TagPathSimTable,
    /// The epoch's representatives prepared for scoring, shared.
    reps: Arc<PreparedReps>,
    /// Dense ranks of `reps`' items in `tag_sim`, re-resolved only when
    /// `tag_sim` is rebuilt.
    rep_ranks: RepRanks,
    /// The representatives' tag paths — the permanent base of `tag_sim`.
    base_tag_paths: Vec<PathId>,
    /// Tag paths currently covered by `tag_sim` (base + query paths seen
    /// since the last reset).
    known_tag_paths: FxHashSet<PathId>,
    /// Cap on `known_tag_paths`: the `sim_S` table is dense (`P²` cells,
    /// `O(P²·d²)` to rebuild), so a stream of documents with ever-fresh
    /// markup must not grow it without bound. Past the cap the cache
    /// resets to the base paths; re-arriving paths just re-enter it.
    pub(crate) tag_path_cap: usize,
}

impl QuerySession {
    /// Builds the session's private derived state from `model`, scoring
    /// against `reps` (the model's representatives, prepared once per
    /// epoch).
    pub(crate) fn new(model: &TrainedModel, reps: Arc<PreparedReps>) -> Self {
        let rep_tag_paths = model.rep_tag_paths();
        let tag_sim = TagPathSimTable::build(&rep_tag_paths, &model.paths);
        Self {
            labels: model.labels.clone(),
            vocabulary: model.vocabulary.clone(),
            paths: model.paths.clone(),
            build: model.build.clone(),
            rep_ranks: reps.ranks(&tag_sim),
            reps,
            tag_sim,
            known_tag_paths: rep_tag_paths.iter().copied().collect(),
            tag_path_cap: (rep_tag_paths.len() * 4).max(1024),
            base_tag_paths: rep_tag_paths,
        }
    }

    /// The similarity context for scoring this session's queries.
    pub(crate) fn sim_ctx(&self, params: SimParams) -> SimCtx<'_> {
        SimCtx::new(&self.tag_sim, params)
    }

    /// `simγJ` of one query tuple against each prepared representative of
    /// `ids`, in order ([`sim_gamma_j_each`]).
    pub(crate) fn sim_each(
        &self,
        params: SimParams,
        views: &[ItemView<'_>],
        ids: impl Iterator<Item = u32>,
        each: impl FnMut(u32, f64),
    ) {
        let ctx = self.sim_ctx(params);
        sim_gamma_j_each(&ctx, &self.reps, &self.rep_ranks, views, ids, each);
    }

    /// The relocation rule for one query tuple over the candidate `ids`
    /// (ascending, so ties go to the lowest id): [`argmax_sim_gamma_j`]
    /// against the session's prepared representatives.
    pub(crate) fn argmax(
        &self,
        params: SimParams,
        views: &[ItemView<'_>],
        ids: impl Iterator<Item = u32>,
        trash: u32,
    ) -> (u32, f64) {
        let ctx = self.sim_ctx(params);
        argmax_sim_gamma_j(&ctx, &self.reps, &self.rep_ranks, views, ids, trash)
    }

    /// The session's path table (the model's, extended by query markup).
    pub(crate) fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Paths currently covered by the similarity table (diagnostics).
    #[cfg(test)]
    pub(crate) fn known_tag_paths(&self) -> usize {
        self.known_tag_paths.len()
    }

    /// Parses `xml` and produces its query transactions: per tree tuple, a
    /// list of items weighted against the frozen corpus statistics
    /// (`term_stats` is the model's).
    pub(crate) fn extract(
        &mut self,
        xml: &str,
        term_stats: &TermStatsBuilder,
    ) -> Result<QueryTuples, XmlError> {
        let tree = parse_document(xml, &mut self.labels, &self.build.parse)?;
        let capped = count_tree_tuples(&tree) > self.build.limits.max_tuples_per_tree as u64;
        let tuples = extract_tree_tuples(&tree, &self.build.limits);

        // Per-leaf preprocessing, mirroring the batch builder.
        struct Leaf {
            path: PathId,
            tag_path: PathId,
            raw: String,
            terms: Vec<Symbol>,
            distinct: Vec<Symbol>,
        }
        let mut leaves: Vec<Leaf> = Vec::new();
        let mut leaf_index: FxHashMap<cxk_xml::tree::NodeId, u32> = FxHashMap::default();
        let mut term_doc_counts: FxHashMap<Symbol, u32> = FxHashMap::default();
        let mut new_tag_paths = false;
        for leaf in tree.leaves() {
            let complete = tree.label_path(leaf);
            let path = self.paths.intern(&complete);
            let tag = leaf_tag_path(&tree, leaf);
            let tag_path = self.paths.intern(&tag);
            new_tag_paths |= self.known_tag_paths.insert(tag_path);
            let raw = tree.node(leaf).value().unwrap_or_default().to_string();
            let terms = preprocess(&raw, &mut self.vocabulary, &self.build.pipeline);
            let mut distinct = terms.clone();
            distinct.sort_unstable();
            distinct.dedup();
            // The document does NOT join the collection statistics — but
            // its own document-level counts participate in ttf.itf.
            for &t in &distinct {
                *term_doc_counts.entry(t).or_insert(0) += 1;
            }
            leaf_index.insert(leaf, leaves.len() as u32);
            leaves.push(Leaf {
                path,
                tag_path,
                raw,
                terms,
                distinct,
            });
        }

        if new_tag_paths {
            // Unseen markup: extend the precomputed structural table so
            // sim_S lookups cover the query paths (any index is over the
            // representatives only and needs no rebuild).
            if self.known_tag_paths.len() > self.tag_path_cap {
                // Past the cap, restart the cache from the representatives'
                // paths plus this request's — scores are unaffected (the
                // table always covers rep × query pairs; evicted paths
                // simply rebuild on their next appearance).
                self.known_tag_paths = self.base_tag_paths.iter().copied().collect();
                self.known_tag_paths
                    .extend(leaves.iter().map(|l| l.tag_path));
            }
            let mut all: Vec<PathId> = self.known_tag_paths.iter().copied().collect();
            all.sort_unstable();
            self.tag_sim = TagPathSimTable::build(&all, &self.paths);
            self.rep_ranks = self.reps.ranks(&self.tag_sim);
        }

        let n_xt = leaves.len() as u32;
        let n_t = term_stats.total_tcus();

        // Document-wide item domain keyed by (path, answer), averaging the
        // ttf.itf weights over the item's occurrences within the document —
        // the batch builder's reconciliation scoped to one document.
        let mut domain: FxHashMap<(PathId, Box<str>), u32> = FxHashMap::default();
        struct QueryItem {
            item: RepItem,
            acc: FxHashMap<Symbol, f64>,
            occurrences: u32,
        }
        let mut items: Vec<QueryItem> = Vec::new();
        let mut tuple_item_ids: Vec<Vec<u32>> = Vec::with_capacity(tuples.len());

        for tuple in &tuples {
            let n_tau = tuple.leaves.len() as u32;
            let mut tuple_counts: FxHashMap<Symbol, u32> = FxHashMap::default();
            for leaf in &tuple.leaves {
                let li = leaf_index[leaf] as usize;
                for &t in &leaves[li].distinct {
                    *tuple_counts.entry(t).or_insert(0) += 1;
                }
            }

            let mut ids: Vec<u32> = Vec::with_capacity(tuple.leaves.len());
            for leaf in &tuple.leaves {
                let li = leaf_index[leaf] as usize;
                let leaf_data = &leaves[li];
                let key = (leaf_data.path, leaf_data.raw.clone().into_boxed_str());
                let id = *domain.entry(key).or_insert_with(|| {
                    items.push(QueryItem {
                        item: RepItem {
                            path: leaf_data.path,
                            tag_path: leaf_data.tag_path,
                            vector: SparseVec::new(),
                            fingerprint: item_fingerprint(leaf_data.path, &leaf_data.raw),
                            source: None,
                        },
                        acc: FxHashMap::default(),
                        occurrences: 0,
                    });
                    (items.len() - 1) as u32
                });
                ids.push(id);

                let entry = &mut items[id as usize];
                entry.occurrences += 1;
                let mut tf: FxHashMap<Symbol, u32> = FxHashMap::default();
                for &t in &leaf_data.terms {
                    *tf.entry(t).or_insert(0) += 1;
                }
                for (&term, &count) in &tf {
                    let nj_tau = tuple_counts.get(&term).copied().unwrap_or(0);
                    let nj_xt = term_doc_counts.get(&term).copied().unwrap_or(0);
                    let nj_t = term_stats.tcus_containing(term);
                    let w = ttf_itf(count, nj_tau, n_tau, nj_xt, n_xt, nj_t, n_t);
                    *entry.acc.entry(term).or_insert(0.0) += w;
                }
            }
            tuple_item_ids.push(ids);
        }

        let items: Vec<RepItem> = items
            .into_iter()
            .map(|q| {
                let n = f64::from(q.occurrences.max(1));
                let pairs: Vec<(Symbol, f64)> = q.acc.iter().map(|(&t, &w)| (t, w / n)).collect();
                RepItem {
                    vector: SparseVec::from_pairs(pairs),
                    ..q.item
                }
            })
            .collect();

        let transactions = tuple_item_ids
            .into_iter()
            .map(|ids| {
                // Transactions are item *sets*: deduplicate repeated items.
                let mut seen: FxHashSet<u32> = FxHashSet::default();
                ids.into_iter()
                    .filter(|&id| seen.insert(id))
                    .map(|id| items[id as usize].clone())
                    .collect()
            })
            .collect();
        Ok(QueryTuples {
            transactions,
            capped,
        })
    }
}

/// One parsed query document's transactions, plus whether the tree-tuple
/// cap truncated the enumeration — every classify strategy carries the
/// flag through to [`DocumentAssignment::capped`].
pub(crate) struct QueryTuples {
    /// Per tree tuple, the deduplicated weighted items.
    pub transactions: Vec<Vec<RepItem>>,
    /// The document exceeded `TupleLimits::max_tuples_per_tree`.
    pub capped: bool,
}

/// Document aggregate over per-tuple assignments: summed similarity per
/// proper cluster, ties to the lowest id; all-trash documents are trash.
/// `capped` records whether the tuple set was truncated at extraction.
pub(crate) fn aggregate_document(
    k: usize,
    tuples: Vec<TupleAssignment>,
    capped: bool,
) -> DocumentAssignment {
    let mut totals = vec![0.0f64; k];
    for t in &tuples {
        if (t.cluster as usize) < k {
            totals[t.cluster as usize] += t.similarity;
        }
    }
    let mut cluster = k as u32;
    let mut score = 0.0f64;
    for (j, &total) in totals.iter().enumerate() {
        if total > score {
            score = total;
            cluster = j as u32;
        }
    }
    DocumentAssignment {
        cluster,
        score,
        tuples,
        capped,
    }
}

/// A classification session over a trained model, scoring against its
/// **own full index** — the replicated strategy: every worker that builds
/// one carries a private copy of the postings.
///
/// The classifier is single-threaded by design (`&mut self`: its session's
/// interners grow as unseen markup arrives); servers give each worker its
/// own instance. The model itself is behind an `Arc` and never mutated, so
/// instances built via [`Classifier::shared`] duplicate only the postings
/// and the session, not the representatives.
pub struct Classifier {
    model: Arc<TrainedModel>,
    session: QuerySession,
    index: TagPathIndex,
}

impl Classifier {
    /// Builds the derived state (session, inverted index) for `model`.
    pub fn new(model: TrainedModel) -> Self {
        Self::shared(Arc::new(model))
    }

    /// Builds a classifier over an already shared model (hot-reload
    /// workers: the model `Arc` is cloned, the index, the prepared
    /// representatives and the session are this worker's own).
    pub fn shared(model: Arc<TrainedModel>) -> Self {
        let session = QuerySession::new(&model, Arc::new(Representative::prepare(&model.reps)));
        let index = TagPathIndex::build(&model.reps, &model.paths, model.params);
        Self {
            model,
            session,
            index,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &TrainedModel {
        &self.model
    }

    /// The inverted index (diagnostics).
    pub fn index(&self) -> &TagPathIndex {
        &self.index
    }

    /// Number of proper clusters `k`.
    pub fn k(&self) -> usize {
        self.model.k()
    }

    /// The trash cluster's id (`k`).
    pub fn trash_id(&self) -> u32 {
        self.model.trash_id()
    }

    #[cfg(test)]
    pub(crate) fn session_mut(&mut self) -> &mut QuerySession {
        &mut self.session
    }

    /// Classifies one XML document using the inverted index.
    ///
    /// # Errors
    /// Returns the XML parse error; the classifier stays usable.
    pub fn classify(&mut self, xml: &str) -> Result<DocumentAssignment, XmlError> {
        self.classify_impl(xml, true)
    }

    /// Classifies one XML document scoring every representative (the
    /// reference the index must agree with).
    ///
    /// # Errors
    /// Returns the XML parse error; the classifier stays usable.
    pub fn classify_brute(&mut self, xml: &str) -> Result<DocumentAssignment, XmlError> {
        self.classify_impl(xml, false)
    }

    fn classify_impl(&mut self, xml: &str, indexed: bool) -> Result<DocumentAssignment, XmlError> {
        let query = self.session.extract(xml, &self.model.term_stats)?;
        let tuples = query.transactions;
        let k = self.model.k();

        let mut assignments = Vec::with_capacity(tuples.len());
        for tuple in &tuples {
            let views: Vec<ItemView<'_>> = tuple.iter().map(RepItem::view).collect();
            let candidates = if indexed {
                self.index.candidates(&views, self.session.paths())
            } else {
                Candidates::All
            };
            let (cluster, similarity) =
                self.session
                    .argmax(self.model.params, &views, candidates.ids(k), k as u32);
            assignments.push(TupleAssignment {
                cluster,
                similarity,
                candidates: candidates.len(k),
            });
        }
        Ok(aggregate_document(k, assignments, query.capped))
    }
}

/// The serving-layer seam over the classify execution strategies: a
/// worker holds one `ClassifyEngine` per model epoch and drives it through
/// a single surface, regardless of how scoring is laid out.
///
/// * [`ClassifyEngine::Replicated`] — the worker owns a full
///   [`Classifier`] (its own postings copy). Memory scales with the worker
///   count; no cross-worker sharing.
/// * [`ClassifyEngine::Sharded`] — the worker holds a lightweight
///   [`ShardedClassifier`] over the epoch's shared
///   [`ShardedEngine`]: one immutable index per epoch for the
///   whole pool, representatives partitioned across shards, queries
///   scattered and gathered (bit-identical to brute force; see the `shard`
///   module docs).
/// * [`ClassifyEngine::Remote`] — the worker holds a
///   [`RemoteClassifier`] over the server's shared [`RemoteEngine`]
///   topology: the same scatter/gather, but the shards are daemons in
///   other processes and only postings for *their* ranges are resident
///   anywhere (bit-identical too; see the `remote` module docs).
/// * [`ClassifyEngine::Tree`] — the worker holds a [`TreeClassifier`]
///   over the epoch's shared [`TreeEngine`]: assignment descends a
///   hierarchical representative tree under a beam-width knob, then
///   exactly re-ranks the reached leaves. The only *approximate*
///   strategy — bit-identical to brute force at full beam, a measured
///   accuracy/latency trade-off below it (see the `tree` module docs).
pub enum ClassifyEngine {
    /// One private full-index classifier (the historical layout).
    Replicated(Box<Classifier>),
    /// A per-worker session over the epoch's shared sharded engine.
    Sharded(Box<ShardedClassifier>),
    /// A per-worker session over the shared remote shard topology.
    Remote(Box<RemoteClassifier>),
    /// A per-worker session over the epoch's shared representative tree.
    Tree(Box<TreeClassifier>),
}

impl ClassifyEngine {
    /// Builds the engine for one epoch: remote when the server was
    /// configured with a remote topology (which outlives epochs), sharded
    /// when the epoch published a shared sharded engine, tree when it
    /// published a shared representative tree, replicated otherwise.
    pub fn for_epoch(
        model: &Arc<TrainedModel>,
        sharded: Option<&Arc<ShardedEngine>>,
        remote: Option<&Arc<RemoteEngine>>,
        tree: Option<&Arc<TreeEngine>>,
    ) -> Self {
        match (remote, sharded, tree) {
            (Some(topology), _, _) => ClassifyEngine::Remote(Box::new(RemoteClassifier::new(
                Arc::clone(topology),
                Arc::clone(model),
            ))),
            (None, Some(engine), _) => {
                ClassifyEngine::Sharded(Box::new(ShardedClassifier::new(Arc::clone(engine))))
            }
            (None, None, Some(engine)) => {
                ClassifyEngine::Tree(Box::new(TreeClassifier::new(Arc::clone(engine))))
            }
            (None, None, None) => {
                ClassifyEngine::Replicated(Box::new(Classifier::shared(Arc::clone(model))))
            }
        }
    }

    /// Classifies one XML document (index-pruned).
    ///
    /// # Errors
    /// [`ClassifyError::Xml`] on parse failure; the network variants only
    /// when running remote. The engine stays usable either way.
    pub fn classify(&mut self, xml: &str) -> Result<DocumentAssignment, ClassifyError> {
        match self {
            ClassifyEngine::Replicated(c) => c.classify(xml).map_err(ClassifyError::Xml),
            ClassifyEngine::Sharded(c) => c.classify(xml).map_err(ClassifyError::Xml),
            ClassifyEngine::Remote(c) => c.classify(xml),
            ClassifyEngine::Tree(c) => c.classify(xml).map_err(ClassifyError::Xml),
        }
    }

    /// Classifies one XML document scoring every representative.
    ///
    /// # Errors
    /// As [`ClassifyEngine::classify`].
    pub fn classify_brute(&mut self, xml: &str) -> Result<DocumentAssignment, ClassifyError> {
        match self {
            ClassifyEngine::Replicated(c) => c.classify_brute(xml).map_err(ClassifyError::Xml),
            ClassifyEngine::Sharded(c) => c.classify_brute(xml).map_err(ClassifyError::Xml),
            ClassifyEngine::Remote(c) => c.classify_brute(xml),
            ClassifyEngine::Tree(c) => c.classify_brute(xml).map_err(ClassifyError::Xml),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &TrainedModel {
        match self {
            ClassifyEngine::Replicated(c) => c.model(),
            ClassifyEngine::Sharded(c) => c.model(),
            ClassifyEngine::Remote(c) => c.model(),
            ClassifyEngine::Tree(c) => c.model(),
        }
    }

    /// The trash cluster's id (`k`).
    pub fn trash_id(&self) -> u32 {
        self.model().trash_id()
    }

    /// Total posting entries resident in *this* process behind the engine
    /// (the worker's own index, or the shared shard set; zero when remote
    /// — the postings live in the daemons — and when running the tree,
    /// which holds merged representatives instead of postings).
    pub fn posting_entries(&self) -> usize {
        match self {
            ClassifyEngine::Replicated(c) => c.index().posting_entries(),
            ClassifyEngine::Sharded(c) => c.engine().posting_entries(),
            ClassifyEngine::Remote(_) => 0,
            ClassifyEngine::Tree(_) => 0,
        }
    }

    /// The shared sharded engine, when running sharded.
    pub fn sharded_engine(&self) -> Option<&Arc<ShardedEngine>> {
        match self {
            ClassifyEngine::Sharded(c) => Some(c.engine()),
            _ => None,
        }
    }

    /// The shared remote topology, when running remote.
    pub fn remote_engine(&self) -> Option<&Arc<RemoteEngine>> {
        match self {
            ClassifyEngine::Remote(c) => Some(c.engine()),
            _ => None,
        }
    }

    /// The shared representative tree, when running the tree strategy.
    pub fn tree_engine(&self) -> Option<&Arc<TreeEngine>> {
        match self {
            ClassifyEngine::Tree(c) => Some(c.engine()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxk_core::{CxkConfig, EngineBuilder, TrainedModel};
    use cxk_transact::{BuildOptions, DatasetBuilder, SimParams};

    fn mining_doc(i: usize) -> String {
        let titles = [
            "mining frequent patterns clustering trees",
            "clustering transactional data mining streams",
            "frequent subtree mining patterns forest",
            "partitional clustering centroids mining",
            "itemset mining patterns association clustering",
            "tree mining clustering xml patterns",
        ];
        format!(
            r#"<dblp><inproceedings key="m{i}"><author>A. Miner</author><title>{}</title><booktitle>KDD</booktitle></inproceedings></dblp>"#,
            titles[i % titles.len()]
        )
    }

    fn networking_doc(i: usize) -> String {
        let titles = [
            "routing congestion protocols networks",
            "packet routing networks latency congestion",
            "congestion control protocols bandwidth networks",
            "network routing topology protocols packets",
            "wireless networks routing protocols handoff",
            "multicast routing networks congestion packets",
        ];
        format!(
            r#"<dblp><article key="n{i}"><author>B. Netter</author><title>{}</title><journal>Networking</journal></article></dblp>"#,
            titles[i % titles.len()]
        )
    }

    fn model() -> TrainedModel {
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        for i in 0..6 {
            builder.add_xml(&mining_doc(i)).unwrap();
        }
        for i in 0..6 {
            builder.add_xml(&networking_doc(i)).unwrap();
        }
        let ds = builder.finish();
        let mut config = CxkConfig::new(2);
        config.params = SimParams::new(0.5, 0.6);
        config.seed = 7;
        EngineBuilder::from_cxk_config(&config)
            .build()
            .expect("valid test config")
            .fit(&ds)
            .expect("fit succeeds")
            .into_model(&ds, BuildOptions::default())
    }

    #[test]
    fn classifies_into_the_topical_cluster() {
        let mut c = Classifier::new(model());
        let mining = c.classify(&mining_doc(17)).expect("classify");
        let networking = c.classify(&networking_doc(17)).expect("classify");
        assert_ne!(mining.cluster, c.trash_id());
        assert_ne!(networking.cluster, c.trash_id());
        assert_ne!(mining.cluster, networking.cluster);
        assert!(mining.score > 0.0);
        assert!(!mining.tuples.is_empty());
    }

    #[test]
    fn indexed_matches_brute_force_exactly() {
        let mut c = Classifier::new(model());
        let docs = [
            mining_doc(9),
            networking_doc(9),
            r#"<recipes><recipe id="r1"><chef>Q. Cook</chef><dish>braised seitan stew</dish></recipe></recipes>"#.to_string(),
        ];
        for doc in &docs {
            let indexed = c.classify(doc).expect("indexed");
            let brute = c.classify_brute(doc).expect("brute");
            assert_eq!(indexed.cluster, brute.cluster, "{doc}");
            assert_eq!(indexed.score, brute.score, "bit-for-bit: {doc}");
            assert_eq!(indexed.tuples.len(), brute.tuples.len());
            for (a, b) in indexed.tuples.iter().zip(&brute.tuples) {
                assert_eq!(a.cluster, b.cluster);
                assert_eq!(a.similarity, b.similarity);
                assert!(a.candidates <= b.candidates);
            }
        }
    }

    #[test]
    fn alien_document_is_trash_and_pruned_to_nothing() {
        let mut c = Classifier::new(model());
        let alien = r#"<menu><entree id="e1"><flavor>umami</flavor></entree></menu>"#;
        let report = c.classify(alien).expect("classify");
        assert_eq!(report.cluster, c.trash_id());
        assert_eq!(report.score, 0.0);
        // Nothing shares a tag or a term with the bibliographic model: the
        // index prunes every representative.
        assert!(report.tuples.iter().all(|t| t.candidates == 0));
    }

    #[test]
    fn unseen_markup_does_not_poison_later_requests() {
        let mut c = Classifier::new(model());
        let before = c.classify(&mining_doc(3)).unwrap();
        // An alien document interns new labels, paths and terms…
        let _ = c
            .classify(r#"<menu><entree id="e1"><flavor>umami braised</flavor></entree></menu>"#)
            .unwrap();
        // …and the same mining document still scores identically.
        let after = c.classify(&mining_doc(3)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn tag_path_cache_stays_bounded_under_ever_fresh_markup() {
        let mut c = Classifier::new(model());
        c.session_mut().tag_path_cap = 8; // shrink to exercise the reset cheaply
        let cap = c.session_mut().tag_path_cap;
        let before = c.classify(&mining_doc(1)).unwrap();
        // A hostile stream where every document invents new markup must not
        // grow the dense sim_S table without bound.
        for i in 0..50 {
            let doc = format!("<r{i}><leaf{i}>word{i}</leaf{i}></r{i}>");
            let report = c.classify(&doc).unwrap();
            assert_eq!(report.cluster, c.trash_id());
            assert!(
                c.session_mut().known_tag_paths() <= cap + 4,
                "cache must reset: {} paths after doc {i}",
                c.session_mut().known_tag_paths()
            );
        }
        // Evicted paths re-enter on their next appearance with identical
        // scores.
        let after = c.classify(&mining_doc(1)).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn parse_errors_leave_the_classifier_usable() {
        let mut c = Classifier::new(model());
        assert!(c.classify("<broken><xml>").is_err());
        let report = c.classify(&mining_doc(0)).expect("still works");
        assert_ne!(report.cluster, c.trash_id());
    }

    #[test]
    fn shared_models_are_not_duplicated() {
        let model = Arc::new(model());
        let a = Classifier::shared(Arc::clone(&model));
        let _b = Classifier::shared(Arc::clone(&model));
        // Both classifiers point at the same representatives allocation.
        assert!(std::ptr::eq(a.model(), &*model));
        assert_eq!(Arc::strong_count(&model), 3);
    }

    #[test]
    fn engine_seam_agrees_across_strategies() {
        let model = Arc::new(model());
        let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), 3));
        let mut replicated = ClassifyEngine::for_epoch(&model, None, None, None);
        let mut sharded = ClassifyEngine::for_epoch(&model, Some(&engine), None, None);
        assert!(replicated.sharded_engine().is_none());
        assert!(sharded.sharded_engine().is_some());
        assert!(sharded.remote_engine().is_none());
        assert!(sharded.tree_engine().is_none());
        for doc in [mining_doc(2), networking_doc(4)] {
            let a = replicated.classify(&doc).expect("replicated");
            let b = sharded.classify(&doc).expect("sharded");
            assert_eq!(a, b, "strategies must be bit-identical");
            let brute = sharded.classify_brute(&doc).expect("sharded brute");
            assert_eq!(a.cluster, brute.cluster);
            assert_eq!(a.score, brute.score);
        }
        assert!(replicated.posting_entries() > 0);
        assert_eq!(
            replicated.posting_entries(),
            sharded.posting_entries(),
            "sharding repartitions the postings without changing their total"
        );
    }

    #[test]
    fn engine_seam_tree_arm_matches_brute_at_full_beam() {
        use crate::tree::{TreeConfig, TreeEngine};
        let model = Arc::new(model());
        // k = 2 with B = 2: level-less tree, trivially exact — the seam
        // test exercises selection and plumbing, `tree_properties`
        // exercises the descent.
        let tree = Arc::new(TreeEngine::build(
            Arc::clone(&model),
            TreeConfig { branch: 2, beam: 2 },
        ));
        let mut engine = ClassifyEngine::for_epoch(&model, None, None, Some(&tree));
        assert!(engine.tree_engine().is_some());
        assert!(engine.sharded_engine().is_none());
        assert_eq!(engine.posting_entries(), 0, "the tree holds no postings");
        let mut brute = ClassifyEngine::for_epoch(&model, None, None, None);
        for doc in [mining_doc(2), networking_doc(4)] {
            let a = engine.classify(&doc).expect("tree");
            let b = brute.classify_brute(&doc).expect("brute");
            assert_eq!(a, b, "exact tree must be bit-identical");
        }
        assert!(tree.stats().tuples > 0);
    }

    /// Bit-level identity of two document assignments.
    fn assert_bits_equal(a: &DocumentAssignment, b: &DocumentAssignment, what: &str) {
        assert_eq!(a.cluster, b.cluster, "{what}: cluster");
        assert_eq!(a.score.to_bits(), b.score.to_bits(), "{what}: score");
        assert_eq!(a.tuples.len(), b.tuples.len(), "{what}: tuples");
        for (ta, tb) in a.tuples.iter().zip(&b.tuples) {
            assert_eq!(ta.cluster, tb.cluster, "{what}: tuple cluster");
            assert_eq!(
                ta.similarity.to_bits(),
                tb.similarity.to_bits(),
                "{what}: tuple similarity"
            );
        }
    }

    #[test]
    fn table_rebuild_reresolves_representative_ranks() {
        use crate::shard::{ShardedClassifier, ShardedEngine};
        // `note` occurs in one training document only, early enough that
        // its tag path's id sorts before representative paths interned
        // after it. A query carrying it rebuilds the session table over
        // the sorted known paths, which shifts the representatives' ranks.
        let mut builder = DatasetBuilder::new(BuildOptions::default());
        builder
            .add_xml(r#"<dblp><inproceedings key="x"><note>draft version</note><author>A. Miner</author><title>mining frequent patterns</title><booktitle>KDD</booktitle></inproceedings></dblp>"#)
            .unwrap();
        for i in 0..6 {
            builder.add_xml(&mining_doc(i)).unwrap();
            builder.add_xml(&networking_doc(i)).unwrap();
        }
        let ds = builder.finish();
        let mut config = CxkConfig::new(2);
        config.params = SimParams::new(0.5, 0.6);
        config.seed = 7;
        let model = Arc::new(
            EngineBuilder::from_cxk_config(&config)
                .build()
                .expect("valid test config")
                .fit(&ds)
                .expect("fit succeeds")
                .into_model(&ds, BuildOptions::default()),
        );
        let noted = r#"<dblp><inproceedings key="q"><note>draft</note><author>A. Miner</author><title>clustering mining trees</title><booktitle>KDD</booktitle></inproceedings></dblp>"#;

        let mut replicated = Classifier::shared(Arc::clone(&model));
        let engine = Arc::new(ShardedEngine::build(Arc::clone(&model), 2));
        let mut sharded = ShardedClassifier::new(engine);
        let before = replicated.session.rep_ranks.clone();
        let a = replicated.classify(noted).unwrap();
        let b = sharded.classify(noted).unwrap();
        assert_bits_equal(&a, &b, "unseen markup: indexed vs sharded");
        assert_ne!(
            replicated.session.rep_ranks, before,
            "the rebuild must move the representatives' ranks"
        );

        // A fresh classifier never rebuilt its table: it is the reference.
        let mut fresh = Classifier::shared(Arc::clone(&model));
        for doc in (0..6).flat_map(|i| [mining_doc(i), networking_doc(i)]) {
            let reference = fresh.classify_brute(&doc).unwrap();
            let indexed = replicated.classify(&doc).unwrap();
            let brute = replicated.classify_brute(&doc).unwrap();
            let scatter = sharded.classify(&doc).unwrap();
            assert_bits_equal(&indexed, &reference, "indexed after rebuild");
            assert_bits_equal(&brute, &reference, "brute after rebuild");
            assert_bits_equal(&scatter, &reference, "sharded after rebuild");
        }
        assert!(fresh.classify(noted).is_ok());
        assert_bits_equal(&fresh.classify(noted).unwrap(), &a, "noted document");
    }
}
