//! Criterion micro-benchmarks for the pipeline stages: parsing, tree-tuple
//! extraction, the similarity kernels (Eqs. 1-4) and representative
//! computation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cxk_bench::{prepare, CorpusKind};
use cxk_core::compute_local_representative;
use cxk_corpus::dblp::{generate, DblpConfig};
use cxk_transact::txsim::{gamma_shared, sim_gamma_j, sim_gamma_j_each, PreparedReps};
use cxk_transact::{pathsim, BuildOptions, DatasetBuilder, SimParams};
use cxk_util::Interner;
use cxk_xml::{count_tree_tuples, extract_tree_tuples, parse_document, ParseOptions, TupleLimits};

fn bench_parser(c: &mut Criterion) {
    let corpus = generate(&DblpConfig {
        documents: 50,
        seed: 1,
        dialects: 1,
    });
    let docs = corpus.documents;
    let total_bytes: usize = docs.iter().map(String::len).sum();
    let mut group = c.benchmark_group("parser");
    group.throughput(criterion::Throughput::Bytes(total_bytes as u64));
    group.bench_function("parse_50_dblp_docs", |b| {
        b.iter(|| {
            let mut interner = Interner::new();
            let options = ParseOptions::default();
            for doc in &docs {
                black_box(parse_document(doc, &mut interner, &options).unwrap());
            }
        })
    });
    group.finish();
}

fn bench_tuple_extraction(c: &mut Criterion) {
    let corpus = generate(&DblpConfig {
        documents: 50,
        seed: 2,
        dialects: 1,
    });
    let mut interner = Interner::new();
    let trees: Vec<_> = corpus
        .documents
        .iter()
        .map(|d| parse_document(d, &mut interner, &ParseOptions::default()).unwrap())
        .collect();
    c.bench_function("tuple_extraction_50_docs", |b| {
        b.iter(|| {
            let limits = TupleLimits::default();
            for tree in &trees {
                black_box(extract_tree_tuples(tree, &limits));
            }
        })
    });
    c.bench_function("tuple_counting_50_docs", |b| {
        b.iter(|| {
            for tree in &trees {
                black_box(count_tree_tuples(tree));
            }
        })
    });
}

fn bench_path_similarity(c: &mut Criterion) {
    let mut interner = Interner::new();
    let p1: Vec<_> = ["dblp", "inproceedings", "author"]
        .iter()
        .map(|t| interner.intern(t))
        .collect();
    let p2: Vec<_> = ["dblp", "article", "section", "author"]
        .iter()
        .map(|t| interner.intern(t))
        .collect();
    c.bench_function("tag_path_similarity", |b| {
        b.iter(|| black_box(pathsim::tag_path_similarity(&p1, &p2)))
    });
}

fn bench_transaction_similarity(c: &mut Criterion) {
    let p = prepare(CorpusKind::Dblp, 0.2, 3);
    let ctx = p.dataset.sim_ctx(SimParams::new(0.5, 0.6));
    let a = p.dataset.views(&p.dataset.transactions[0]);
    let z = p.dataset.views(p.dataset.transactions.last().unwrap());
    c.bench_function("sim_gamma_j", |b| {
        b.iter(|| black_box(sim_gamma_j(&ctx, &a, &z)))
    });
    c.bench_function("gamma_shared", |b| {
        b.iter(|| black_box(gamma_shared(&ctx, &a, &z)))
    });
    // One transaction against k representatives (dataset transactions):
    // the one-to-many kernel over a prepared set, next to k pairwise calls.
    for k in [16usize, 256] {
        let reps: Vec<_> = p.dataset.transactions[1..]
            .iter()
            .cycle()
            .take(k)
            .map(|t| p.dataset.views(t))
            .collect();
        let prepared = PreparedReps::new(reps.iter().map(|r| r.iter().copied()));
        let ranks = prepared.ranks(ctx.tag_sim);
        c.bench_function(&format!("sim_gamma_j_each_k{k}"), |b| {
            b.iter(|| {
                let mut total = 0.0;
                sim_gamma_j_each(&ctx, &prepared, &ranks, &a, 0..k as u32, |_, s| total += s);
                black_box(total)
            })
        });
        c.bench_function(&format!("sim_gamma_j_pairwise_k{k}"), |b| {
            b.iter(|| black_box(reps.iter().map(|r| sim_gamma_j(&ctx, &a, r)).sum::<f64>()))
        });
    }
}

fn bench_local_representative(c: &mut Criterion) {
    let p = prepare(CorpusKind::Dblp, 0.2, 4);
    let ctx = p.dataset.sim_ctx(SimParams::new(0.5, 0.6));
    let cluster: Vec<usize> = (0..40.min(p.dataset.stats.transactions)).collect();
    c.bench_function("compute_local_representative_40tx", |b| {
        b.iter(|| {
            let mut work = 0u64;
            black_box(compute_local_representative(
                &p.dataset, &ctx, &cluster, &mut work,
            ))
        })
    });
}

fn bench_dataset_build(c: &mut Criterion) {
    let corpus = generate(&DblpConfig {
        documents: 60,
        seed: 5,
        dialects: 1,
    });
    c.bench_function("dataset_build_60_docs", |b| {
        b.iter(|| {
            let mut builder = DatasetBuilder::new(BuildOptions::default());
            for doc in &corpus.documents {
                builder.add_xml(doc).unwrap();
            }
            black_box(builder.finish())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_parser, bench_tuple_extraction, bench_path_similarity,
              bench_transaction_similarity, bench_local_representative,
              bench_dataset_build
}
criterion_main!(benches);
