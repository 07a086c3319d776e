//! The CXK-means benchmark: end-to-end measurements of collaborative
//! training and batch classification, and per-layer measurements of
//! those and of HTTP serving, driven through the public API of the
//! workspace crates.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <classify_batch_k256|train_p2p_m4> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is a JSON object with
//! every end-to-end metric; with `--trace 1` it carries every per-layer
//! metric instead, and the run also reports per-layer self times and the
//! tracing overhead, and writes its first 100 000 spans to
//! `.bench_trace/<workload>-seed<n>.jsonl`. See `perfbench/README.md`.

#![warn(missing_docs)]

pub mod config;
pub mod http;
pub mod metrics;
pub mod openloop;
pub mod pipeline;
pub mod probes;
pub mod stats;
pub mod trace;
pub mod workloads;
