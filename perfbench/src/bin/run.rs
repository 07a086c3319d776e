//! Command-line entry point of the benchmark; see the library docs.

use cxk_perfbench::metrics::{END_TO_END, PER_LAYER};
use cxk_perfbench::trace::{SpanBuf, Trace};
use cxk_perfbench::{pipeline, workloads};
use std::io::Write;
use std::time::Instant;

const USAGE: &str = "usage: run --workload <classify_batch_k256|train_p2p_m4> \
--seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < seconds <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let epoch = Instant::now();
    let mut spans = SpanBuf::new(args.trace, epoch);
    println!(
        "# workload={} seed={} seconds={} trace={} available_parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pipeline::nproc()
    );
    let Some(report) = workloads::run(&args.workload, args.seed, args.seconds, &mut spans) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    report.print_table(END_TO_END);
    let defs = if args.trace {
        report.print_table(PER_LAYER);
        let mut trace = Trace::new();
        trace.absorb(spans);
        print_self_times(&trace);
        write_trace(&trace, &args.workload, args.seed);
        PER_LAYER
    } else {
        END_TO_END
    };
    println!(
        "# run took {:.2}s, attempted={} failed={}",
        epoch.elapsed().as_secs_f64(),
        report.attempted,
        report.failed
    );
    println!("{}", report.result_json(defs));
}

fn print_self_times(trace: &Trace) {
    println!("# self time per layer (span time minus child spans)");
    for (layer, t) in trace.layer_self_times() {
        println!(
            "self layer={layer:<10} spans={:<8} total_ms={:>10.3} self_ms={:>10.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    for (name, t) in trace.self_times() {
        println!(
            "self span={name:<24} spans={:<8} total_ms={:>10.3} self_ms={:>10.3} mean_us={:>9.2}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.total_ns as f64 / 1e3 / t.count.max(1) as f64
        );
    }
}

/// Spans written out per run: every span feeds the self-time table, but a
/// traced back-to-back pass records about a million, so the file keeps
/// the first ones only.
const MAX_WRITTEN_SPANS: usize = 100_000;

/// Writes the spans under `.bench_trace/` in the working directory.
fn write_trace(trace: &Trace, workload: &str, seed: u64) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            trace.write_jsonl(&mut out, MAX_WRITTEN_SPANS)?;
            out.flush()
        });
    let total = trace.spans().len();
    match written {
        Ok(()) => println!(
            "# wrote {} of {total} spans to {}",
            total.min(MAX_WRITTEN_SPANS),
            path.display()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}
