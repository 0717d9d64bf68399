//! The Table 1 workloads: the paper's families verified one by one
//! through `verify`, as the CLI and `table1` do.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stgcheck_core::{verify, EngineKind, EngineOptions, ReorderMode, VerifyOptions};
use stgcheck_stg::Stg;

use crate::layers::{put_metrics, run_traced, Counts, Totals};
use crate::nets::{Expected, Family};
use crate::record::Record;
use crate::reference::{normalize, reference_s};
use crate::stats::{geomean, median, peak_rss_mb, Metrics};
use crate::{Args, RunResult};

/// `table1-static`: the families under saturation with the static
/// interleaved order. Traversal kernels, the unique table and GC do
/// the work; the check phases are a real share; sifting does nothing.
fn static_set() -> Vec<Family> {
    let mut f = Vec::new();
    f.extend([8, 16, 24, 32].map(Family::Muller));
    f.extend([8, 16, 24].map(Family::ParHs));
    f.extend([8, 16, 24].map(Family::Ring));
    f.extend([3, 4, 5, 6].map(Family::Mutex));
    f.push(Family::VmeRead);
    f.extend([4, 8, 10, 12, 13].map(Family::MasterRead));
    f
}

/// `table1-sift`: the same families under `--reorder auto`, at sizes
/// where sifting dominates and the checks on the small sifted sets do
/// little. Larger members (master-read-12 and up, muller-24 and up) take
/// 3–18 s each here: a 30-s run would sample the slowest net too few
/// times for its median to hold steady on the reference box.
fn sift_set() -> Vec<Family> {
    let mut f = Vec::new();
    f.extend([16, 20].map(Family::Muller));
    f.push(Family::ParHs(16));
    f.extend([16, 24].map(Family::Ring));
    f.extend([5, 6].map(Family::Mutex));
    f.push(Family::VmeRead);
    f.push(Family::MasterRead(10));
    f
}

pub struct Table {
    families: Vec<Family>,
    reorder: ReorderMode,
}

impl Table {
    pub fn named(name: &str) -> Option<Table> {
        match name {
            "table1-static" => Some(Table { families: static_set(), reorder: ReorderMode::None }),
            "table1-sift" => Some(Table { families: sift_set(), reorder: ReorderMode::Auto }),
            _ => None,
        }
    }
}

/// One prepared net of a table.
struct Row {
    name: String,
    stg: Stg,
    opts: VerifyOptions,
    expected: Expected,
}

/// How often the net set is built per timing of set-up; set-up is timed
/// before every pass, so its median spans the whole run.
const SETUP_REPEATS: usize = 11;

/// The seconds of each of [`SETUP_REPEATS`] builds of the table's nets.
fn setup_secs(t: &Table) -> Vec<f64> {
    (0..SETUP_REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(generate(t));
            start.elapsed().as_secs_f64()
        })
        .collect()
}

/// Builds the table's nets with their generators, as `table1` does: the
/// nets carry their initial code, so `verify` infers none.
fn generate(t: &Table) -> Vec<Stg> {
    t.families.iter().map(|f| f.generate()).collect()
}

fn prepare(t: &Table) -> Vec<Row> {
    t.families
        .iter()
        .zip(generate(t))
        .map(|(&f, stg)| {
            let mut opts = VerifyOptions {
                engine: EngineOptions {
                    kind: EngineKind::Saturation,
                    jobs: 1,
                    ..Default::default()
                },
                reorder: t.reorder,
                ..VerifyOptions::default()
            };
            opts.policy.allow_arbitration = f.arbitration();
            Row { name: stg.name().to_string(), expected: f.expected(&stg), stg, opts }
        })
        .collect()
}

/// Verdicts, states and counts checked against the expectations and
/// against the first pass.
#[derive(Default)]
struct Checker {
    first: BTreeMap<String, Counts>,
    /// With `--reorder none` no sifting pass may run.
    static_order: bool,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Checker {
    fn new(reorder: ReorderMode) -> Checker {
        Checker { static_order: reorder == ReorderMode::None, correct: true, ..Checker::default() }
    }

    /// Checks one verification of `row`; `false` when it failed. Every
    /// net is expected to pass, so any failure fails the run.
    fn check(&mut self, row: &Row, got: Result<Counts, String>) -> bool {
        self.attempted += 1;
        let counts = match got {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", row.name);
                self.failed += 1;
                self.correct = false;
                return false;
            }
        };
        let mut ok = true;
        if counts.verdict != row.expected.verdict || counts.states != row.expected.states {
            eprintln!(
                "perfbench: {}: got {} with {} states, expected {} with {}",
                row.name, counts.verdict, counts.states, row.expected.verdict, row.expected.states
            );
            ok = false;
        }
        if self.static_order && counts.sift_runs != 0 {
            eprintln!(
                "perfbench: {}: {} sifting passes under the static order",
                row.name, counts.sift_runs
            );
            ok = false;
        }
        match self.first.get(&row.name) {
            None => {
                self.first.insert(row.name.clone(), counts);
            }
            Some(first) if *first != counts => {
                eprintln!(
                    "perfbench: {}: counts changed between repeats: `{}` then `{}`",
                    row.name,
                    first.line(),
                    counts.line()
                );
                ok = false;
            }
            Some(_) => {}
        }
        if !ok {
            self.failed += 1;
            self.correct = false;
        }
        ok
    }

    fn record(&self) -> Record {
        self.first.iter().map(|(k, v)| (k.clone(), v.line())).collect()
    }
}

/// The least time a net is verified for within one pass.
const MIN_SAMPLE_S: f64 = 0.1;

fn verify_row(row: &Row) -> (f64, Result<Counts, String>) {
    let start = Instant::now();
    let r = verify(&row.stg, row.opts);
    let secs = start.elapsed().as_secs_f64();
    (secs, r.map(|r| Counts::of_report(&r)).map_err(|e| e.to_string()))
}

pub fn run(t: &Table, args: &Args) -> RunResult {
    let rows = prepare(t);
    let mut check = Checker::new(t.reorder);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Per-net seconds of the untraced `verify`, one per pass: normalised
    // to the reference speed (see reference.rs), and as measured.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); rows.len()];
    let mut setup = Vec::new();
    let mut traced: Vec<Totals> = Vec::new();
    let mut passes = 0;
    let mut before = reference_s();
    // Every net is expected to pass: the first failure ends the run, and
    // no timing of a failed verification enters a metric.
    'run: while passes == 0 || start.elapsed() < budget {
        let secs = setup_secs(t);
        let after = reference_s();
        setup.extend(secs.iter().map(|&s| normalize(s, before, after)));
        before = after;
        // The traced run alternates which kind of pass goes first, so
        // neither gains from the state the other leaves behind.
        let kinds: &[bool] = match (args.trace, passes % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced_pass in kinds {
            if traced_pass {
                let mut totals = Totals::default();
                for row in &rows {
                    match run_traced(&row.stg, &row.opts) {
                        Ok(tr) if check.check(row, Ok(tr.counts.clone())) => totals.add(&tr),
                        Ok(_) => break 'run,
                        Err(e) => {
                            check.check(row, Err(e));
                            break 'run;
                        }
                    }
                }
                traced.push(totals);
                continue;
            }
            for ((row, walls), raw) in rows.iter().zip(&mut walls).zip(&mut raw) {
                // A small net is verified until it has run for
                // MIN_SAMPLE_S and contributes the median of those repeats;
                // the traced run compares single verifications.
                let mut repeats = Vec::new();
                while repeats.is_empty()
                    || !args.trace && repeats.iter().sum::<f64>() < MIN_SAMPLE_S
                {
                    let (secs, got) = verify_row(row);
                    if !check.check(row, got) {
                        break 'run;
                    }
                    repeats.push(secs);
                }
                let after = reference_s();
                raw.push(median(&repeats));
                walls.push(normalize(median(&repeats), before, after));
                before = after;
            }
        }
        passes += 1;
        let last = |w: &Vec<Vec<f64>>| w.iter().map(|w| w[w.len() - 1]).sum::<f64>();
        eprintln!(
            "perfbench: pass {passes}: {:.4} s normalised, {:.4} s measured",
            last(&walls),
            last(&raw)
        );
    }

    if !check.correct {
        return RunResult {
            metrics: Metrics::default(),
            correct: false,
            attempted: check.attempted,
            failed: check.failed,
            record: check.record(),
        };
    }
    let per_net: Vec<f64> = walls.iter().map(|w| median(w)).collect();
    for (row, w) in rows.iter().zip(&per_net) {
        eprintln!(
            "perfbench: {:<16} {:>10.3} ms (median of {passes}, normalised)",
            row.name,
            w * 1e3
        );
    }
    let verify_s: f64 = per_net.iter().sum();
    let per_net_ms: Vec<f64> = per_net.iter().map(|s| s * 1e3).collect();
    // With a few dozen nets no percentile above the median has ten nets
    // beyond it, so the tail is the slowest net (itself a median).
    let slowest_ms = per_net_ms.iter().copied().fold(0.0, f64::max);
    eprintln!("perfbench: {} nets x {passes} passes", rows.len());
    let peak_nodes: usize = check.first.values().map(|c| c.peak_nodes).sum();

    let mut m = Metrics::default();
    if args.trace {
        let untraced: Vec<f64> =
            (0..passes).map(|p| raw.iter().map(|w| w[p]).sum::<f64>() * 1e3).collect();
        layer_metrics(&mut m, &traced, median(&untraced));
    } else {
        m.put("setup_s", median(&setup), "s");
        m.put("verify_s", verify_s, "s");
        m.put("verify_geomean_ms", geomean(&per_net_ms), "ms");
        m.put("peak_nodes", peak_nodes as f64, "count");
        m.put("peak_rss_mb", peak_rss_mb(None).unwrap_or(f64::NAN), "MB");
        m.put("throughput_rps", rows.len() as f64 / verify_s, "1/s");
        m.put("latency_p50_ms", median(&per_net_ms), "ms");
        m.put("latency_p99_ms", slowest_ms, "ms");
        m.put("ok_frac", 1.0 - check.failed as f64 / check.attempted as f64, "ratio");
    }
    RunResult {
        metrics: m,
        correct: check.correct,
        attempted: check.attempted,
        failed: check.failed,
        record: check.record(),
    }
}

fn layer_metrics(m: &mut Metrics, traced: &[Totals], untraced_ms: f64) {
    // The tables verify generated nets: they parse no `.g` text and go
    // through neither the daemon nor the result store.
    m.put("stg.parser.parse_ms", 0.0, "ms");
    m.put("core.protocol.parse_request_ms", 0.0, "ms");
    put_metrics(m, &traced.iter().collect::<Vec<_>>());
    for name in [
        "core.serve.queue_wait_ms_p50",
        "core.serve.queue_wait_ms_p99",
        "core.serve.job_wall_ms_p50",
        "core.store.warm_read_ms",
        "core.store.cold_overhead_ms",
    ] {
        m.put(name, 0.0, "ms");
    }
    m.put("core.serve.coalesced_frac", 0.0, "ratio");
    m.put("core.store.warm_frac", 0.0, "ratio");
    let traced_ms = median(&traced.iter().map(|t| t.ms.total).collect::<Vec<_>>());
    m.put("trace.overhead_frac", (traced_ms - untraced_ms) / untraced_ms, "ratio");
}
