//! `perfbench`: the end-to-end and per-layer benchmark of stgcheck.
//!
//! ```text
//! perfbench --workload <table1-static|table1-sift|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --stgcheck <binary> --state-dir <dir>
//! ```
//!
//! Run it through `perfbench/run.sh`, which builds both binaries and
//! supplies the last two flags. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and the metrics —
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See `perfbench/README.md`.

mod layers;
mod nets;
mod record;
mod reference;
mod serve;
mod stats;
mod tables;

use std::path::PathBuf;

use record::Record;
use stats::Metrics;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    stgcheck: PathBuf,
    state_dir: PathBuf,
}

pub struct RunResult {
    metrics: Metrics,
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Exact per-net counts, compared with earlier runs of the same build.
    record: Record,
}

fn fatal(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut stgcheck, mut state_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a number"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--stgcheck" => stgcheck = Some(PathBuf::from(value)),
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        stgcheck: stgcheck.ok_or_else(|| missing("--stgcheck"))?,
        state_dir: state_dir.ok_or_else(|| missing("--state-dir"))?,
    })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fatal(&e));
    let exe = std::env::current_exe().unwrap_or_else(|e| fatal(&e.to_string()));
    let build = record::build_hash(&[&exe, &args.stgcheck]).unwrap_or_else(|e| fatal(&e));
    let result = match args.workload.as_str() {
        "serve-mixed" => serve::run(&args),
        name => match tables::Table::named(name) {
            Some(t) => tables::run(&t, &args),
            None => fatal(&format!("unknown workload `{name}`")),
        },
    };
    let mut correct = result.correct && result.metrics.all_finite();
    // Every workload verifies the same distinct nets whatever the seed,
    // so one record per workload and build.
    let key = format!("{}-{build:016x}", args.workload);
    match record::check(&args.state_dir, &key, &result.record) {
        Ok(diffs) => {
            for d in &diffs {
                eprintln!("perfbench: exact count differs from an earlier run: {d}");
            }
            correct &= diffs.is_empty();
        }
        Err(e) => fatal(&e),
    }
    println!("{}", result.metrics.result_line(correct, result.attempted, result.failed));
}
