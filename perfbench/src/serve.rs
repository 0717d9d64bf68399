//! `serve-mixed`: a closed loop of inline-`.g` requests against the
//! `stgcheck serve` daemon.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use stgcheck_core::protocol::{json_escape, parse_json, parse_request, Json, Request};
use stgcheck_core::{verify, verify_persistent, PersistOptions, VerifyOptions};
use stgcheck_stg::parse_g;

use crate::layers::{put_metrics, run_traced, Counts, Totals};
use crate::nets::{serve_pool, Net};
use crate::record::Record;
use crate::reference::{normalize, reference_s};
use crate::stats::{geomean, median, peak_rss_mb, tail, Metrics};
use crate::{Args, RunResult};

/// Requests per round; each round runs against a fresh daemon and a
/// fresh cache directory, so every round has the same cold/warm mix.
const REQUESTS: usize = 4000;
/// Requests kept in flight by the closed loop.
const IN_FLIGHT: usize = 2;
/// Chance (in percent) that a request repeats the previous one's net,
/// which is what lets the daemon coalesce in-flight duplicates.
const REPEAT_PCT: u64 = 20;

/// Minimal xorshift64* stream: the benchmark's only source of
/// randomness, fully determined by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03 | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded request stream: indices into the pool. Fresh draws deal
/// from a shuffled deck of the whole pool, reshuffled when it runs out,
/// so every net is requested (and verified cold once per round); the
/// rest repeat the previous request's net.
fn stream(pool_len: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut deck: Vec<usize> = Vec::new();
    let mut out: Vec<usize> = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        let repeat = out.last().copied().filter(|_| rng.next_u64() % 100 < REPEAT_PCT);
        let idx = repeat.unwrap_or_else(|| {
            if deck.is_empty() {
                deck = (0..pool_len).collect();
                for i in (1..deck.len()).rev() {
                    deck.swap(i, rng.below(i + 1));
                }
            }
            deck.pop().expect("the deck was just refilled")
        });
        out.push(idx);
    }
    out
}

fn request_line(k: usize, net: &Net) -> String {
    let arb = if net.arbitration { ",\"arbitration\":true" } else { "" };
    format!("{{\"id\":\"r{k}\",\"net\":\"{}\"{arb}}}", json_escape(&net.text))
}

/// One net's answer: what the oracle checks and the exact peak.
#[derive(Clone, PartialEq, Eq)]
struct Answer {
    verdict: String,
    states: String,
    peak: usize,
}

/// Response checks against the oracle, and the per-net exact counts.
struct Checker {
    /// The first answer per pool index.
    seen: HashMap<usize, Answer>,
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Checker {
    /// Counts a failed request or net. Every one is expected to pass, so
    /// any failure fails the run.
    fn fail(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.failed += 1;
        self.correct = false;
    }

    /// Checks one answer for net `idx`: the oracle's verdict and states,
    /// and the same peak as every earlier answer for the net. `false`
    /// when it failed.
    fn answer(&mut self, idx: usize, net: &Net, got: Answer) -> bool {
        let exp = &net.expected;
        if got.verdict != exp.verdict.to_string() || got.states != exp.states.to_string() {
            let msg = format!(
                "{}: got {} with {} states, expected {} with {}",
                net.name, got.verdict, got.states, exp.verdict, exp.states
            );
            self.fail(msg);
            return false;
        }
        match self.seen.get(&idx) {
            None => {
                self.seen.insert(idx, got);
            }
            Some(first) if first.peak != got.peak => {
                let msg = format!("{}: peak {} then {}", net.name, first.peak, got.peak);
                self.fail(msg);
                return false;
            }
            Some(_) => {}
        }
        true
    }

    fn record(&self, pool: &[Net]) -> Record {
        let line = |a: &Answer| format!("{} {} {}", a.verdict, a.states, a.peak);
        self.seen.iter().map(|(&i, a)| (pool[i].name.clone(), line(a))).collect()
    }
}

/// What one daemon round measured.
struct Round {
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
    latency_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    job_wall_ms: Vec<f64>,
    /// Answers shared from an in-flight duplicate.
    coalesced: usize,
    /// Answers marked `warm`: read from the result store, or shared
    /// from a duplicate that was (a coalesced answer copies its
    /// leader's cache status).
    warm: usize,
    /// Answers the daemon verified itself.
    cold: usize,
}

impl Round {
    /// Scales the end-to-end timings to the reference speed (see
    /// reference.rs); the per-layer ones stay as measured.
    fn normalize(&mut self, before: f64, after: f64) {
        self.setup_s = normalize(self.setup_s, before, after);
        self.wall_s = normalize(self.wall_s, before, after);
        for l in &mut self.latency_ms {
            *l = normalize(*l, before, after);
        }
    }
}

struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(stgcheck: &Path, cache: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(stgcheck)
            .args(["serve", "--workers", "2", "--cache-dir"])
            .arg(cache)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", stgcheck.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Daemon { child, stdin, stdout })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let w = self.stdin.as_mut().expect("stdin open until shutdown");
        writeln!(w, "{line}").and_then(|()| w.flush()).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon closed its output".to_string()),
            Ok(_) => parse_json(line.trim_end()).map_err(|e| format!("bad response `{line}`: {e}")),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Closes stdin (a clean drain) and waits for a zero exit.
    fn shutdown(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).map_err(|e| e.to_string())? > 0 {}
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !rest.trim().is_empty() {
            return Err(format!("unexpected output after the last answer: {rest}"));
        }
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // A round that failed leaves the daemon running: stop it.
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

fn round(
    stgcheck: &Path,
    cache: &Path,
    lines: &[String],
    stream: &[usize],
    pool: &[Net],
    check: &mut Checker,
) -> Result<Round, String> {
    let _ = std::fs::remove_dir_all(cache);
    let t0 = Instant::now();
    let mut d = Daemon::spawn(stgcheck, cache)?;
    d.send("{\"op\":\"ping\",\"id\":\"setup\"}")?;
    let pong = d.recv()?;
    if pong.get("op").and_then(Json::as_str) != Some("ping") {
        return Err("the first answer is not the ping's".to_string());
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let mut r = Round {
        setup_s,
        wall_s: 0.0,
        rss_mb: 0.0,
        latency_ms: Vec::with_capacity(lines.len()),
        queue_wait_ms: Vec::new(),
        job_wall_ms: Vec::new(),
        coalesced: 0,
        warm: 0,
        cold: 0,
    };
    let mut sent: Vec<Option<Instant>> = vec![None; lines.len()];
    let start = Instant::now();
    let mut next = 0;
    let mut answered = 0;
    while answered < lines.len() {
        while next < lines.len() && next - answered < IN_FLIGHT {
            sent[next] = Some(Instant::now());
            d.send(&lines[next])?;
            next += 1;
        }
        let resp = d.recv()?;
        let k: usize = resp
            .get("id")
            .and_then(Json::as_str)
            .and_then(|id| id.strip_prefix('r'))
            .and_then(|k| k.parse().ok())
            .filter(|&k: &usize| k < lines.len())
            .ok_or("answer without a known id")?;
        let at = sent[k].take().ok_or("a request was answered twice")?;
        let latency_ms = at.elapsed().as_secs_f64() * 1e3;
        answered += 1;
        check.attempted += 1;
        let idx = stream[k];
        let field = |key| resp.get(key).and_then(Json::as_str).unwrap_or("");
        if field("status") != "ok" || field("outcome") != "ok" {
            check.fail(format!("{}: answered {resp:?}", pool[idx].name));
            continue;
        }
        let got = Answer {
            verdict: field("verdict").to_string(),
            states: field("states").to_string(),
            peak: num(&resp, "peak_nodes") as usize,
        };
        if !check.answer(idx, &pool[idx], got) {
            continue;
        }
        r.latency_ms.push(latency_ms);
        r.queue_wait_ms.push(num(&resp, "queue_wait_ms"));
        let warm = field("cache") == "warm";
        r.warm += usize::from(warm);
        if resp.get("coalesced").and_then(Json::as_bool) == Some(true) {
            r.coalesced += 1;
        } else {
            r.job_wall_ms.push(num(&resp, "wall_ms"));
            r.cold += usize::from(!warm);
        }
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r.rss_mb = peak_rss_mb(Some(d.child.id())).unwrap_or(f64::NAN);
    d.shutdown()?;
    let _ = std::fs::remove_dir_all(cache);
    Ok(r)
}

pub fn run(args: &Args) -> RunResult {
    let pool = match serve_pool(Path::new("benchmarks")) {
        Ok(p) => p,
        Err(e) => crate::fatal(&e),
    };
    let stream = stream(pool.len(), args.seed);
    let lines: Vec<String> =
        stream.iter().enumerate().map(|(k, &i)| request_line(k, &pool[i])).collect();
    let distinct = {
        let mut s = stream.clone();
        s.sort_unstable();
        s.dedup();
        s.len()
    };
    let cache = args.state_dir.join(format!("serve-cache-{}", std::process::id()));
    let mut check = Checker { seen: HashMap::new(), attempted: 0, failed: 0, correct: true };
    let mut rounds = Vec::new();
    let mut raw_walls = Vec::new();
    let mut layers = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut before = reference_s();
    // The first failure ends the run; a failed run reports no metrics.
    while check.correct && (rounds.is_empty() || start.elapsed() < budget) {
        let answered = check.attempted;
        let r = round(&args.stgcheck, &cache, &lines, &stream, &pool, &mut check);
        let after = reference_s();
        match r {
            Ok(mut r) => {
                raw_walls.push(r.wall_s);
                r.normalize(before, after);
                rounds.push(r);
            }
            Err(e) => {
                // A broken round fails the run; every request it left
                // unanswered counts as failed.
                let _ = std::fs::remove_dir_all(&cache);
                let missing = REQUESTS - (check.attempted - answered);
                check.attempted += missing;
                check.failed += missing.saturating_sub(1);
                check.fail(format!("round {}: {e}", rounds.len() + 1));
                break;
            }
        }
        if args.trace {
            layers.push(in_process_pass(&lines, &stream, &pool, &cache, &mut check));
        }
        before = reference_s();
    }
    eprintln!(
        "perfbench: serve-mixed: {} rounds of {REQUESTS} requests over {distinct} distinct nets \
         ({} in the pool)",
        rounds.len(),
        pool.len()
    );
    let walls: Vec<String> = raw_walls.iter().map(|w| format!("{w:.3}")).collect();
    eprintln!("perfbench: measured round walls (s): {}", walls.join(" "));
    let share = |f: &dyn Fn(&Round) -> usize| {
        let n: usize = rounds.iter().map(f).sum();
        100.0 * n as f64 / (rounds.len() * REQUESTS).max(1) as f64
    };
    eprintln!(
        "perfbench: answers: {:.1} % cold, {:.1} % warm, {:.1} % coalesced",
        share(&|r| r.cold),
        share(&|r| r.latency_ms.len() - r.cold - r.coalesced),
        share(&|r| r.coalesced)
    );

    let mut m = Metrics::default();
    let all = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    if !check.correct {
        return RunResult {
            metrics: m,
            correct: check.correct,
            attempted: check.attempted,
            failed: check.failed,
            record: check.record(&pool),
        };
    }
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    if args.trace {
        let answered = (rounds.len() * REQUESTS) as f64;
        let queue = all(&|r| &r.queue_wait_ms);
        let walls = all(&|r| &r.job_wall_ms);
        let coalesced: usize = rounds.iter().map(|r| r.coalesced).sum();
        let warm: usize = rounds.iter().map(|r| r.warm).sum();
        let med = |f: &dyn Fn(&Pass) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());
        m.put("stg.parser.parse_ms", med(&|p| p.parse_ms), "ms");
        m.put("core.protocol.parse_request_ms", med(&|p| p.parse_request_ms), "ms");
        put_metrics(&mut m, &layers.iter().map(|p| &p.layers).collect::<Vec<_>>());
        m.put("core.serve.queue_wait_ms_p50", median(&queue), "ms");
        m.put("core.serve.queue_wait_ms_p99", tail(&queue).1, "ms");
        m.put("core.serve.job_wall_ms_p50", median(&walls), "ms");
        m.put("core.serve.coalesced_frac", coalesced as f64 / answered, "ratio");
        m.put("core.store.warm_frac", warm as f64 / answered, "ratio");
        m.put("core.store.warm_read_ms", med(&|p| p.warm_read_ms), "ms");
        m.put("core.store.cold_overhead_ms", med(&|p| p.cold_ms - p.verify_ms), "ms");
        m.put(
            "trace.overhead_frac",
            med(&|p| (p.layers.ms.total - p.verify_ms) / p.verify_ms),
            "ratio",
        );
    } else {
        let latency = all(&|r| &r.latency_ms);
        let (pct, p_tail) = tail(&latency);
        eprintln!("perfbench: latency over {} requests; the tail is p{pct:.0}", latency.len());
        let peak_nodes: usize = check.seen.values().map(|a| a.peak).sum();
        m.put("setup_s", per_round(&|r| r.setup_s), "s");
        m.put("verify_s", per_round(&|r| r.wall_s), "s");
        m.put("verify_geomean_ms", geomean(&latency), "ms");
        m.put("peak_nodes", peak_nodes as f64, "count");
        m.put("peak_rss_mb", per_round(&|r| r.rss_mb), "MB");
        m.put("throughput_rps", per_round(&|r| REQUESTS as f64 / r.wall_s), "1/s");
        m.put("latency_p50_ms", median(&latency), "ms");
        m.put("latency_p99_ms", p_tail, "ms");
        m.put("ok_frac", 1.0 - check.failed as f64 / check.attempted as f64, "ratio");
    }
    RunResult {
        metrics: m,
        correct: check.correct,
        attempted: check.attempted,
        failed: check.failed,
        record: check.record(&pool),
    }
}

/// One in-process pass over the request stream, as the daemon would
/// run it: every request line is parsed, every net's first occurrence
/// is verified (traced and untraced) and stored in a fresh cache, and
/// then read back warm.
#[derive(Default)]
struct Pass {
    parse_request_ms: f64,
    parse_ms: f64,
    layers: Totals,
    verify_ms: f64,
    cold_ms: f64,
    warm_read_ms: f64,
}

fn in_process_pass(
    lines: &[String],
    stream: &[usize],
    pool: &[Net],
    cache: &Path,
    check: &mut Checker,
) -> Pass {
    let _ = std::fs::remove_dir_all(cache);
    let persist =
        PersistOptions { cache_dir: Some(cache.to_path_buf()), ..PersistOptions::default() };
    let defaults = VerifyOptions::default();
    let mut p = Pass::default();
    let mut done = vec![false; pool.len()];
    let mut stored = Vec::new();
    for (line, &idx) in lines.iter().zip(stream) {
        let t = Instant::now();
        let req = parse_request(line, &defaults);
        p.parse_request_ms += t.elapsed().as_secs_f64() * 1e3;
        let Ok(Request::Verify(req)) = req else {
            check.fail(format!("request for {} does not parse", pool[idx].name));
            continue;
        };
        let t = Instant::now();
        let stg = parse_g(req.net.as_deref().unwrap_or(""));
        p.parse_ms += t.elapsed().as_secs_f64() * 1e3;
        let Ok(stg) = stg else {
            check.fail(format!("net {} does not parse", pool[idx].name));
            continue;
        };
        if std::mem::replace(&mut done[idx], true) {
            continue;
        }
        let net = &pool[idx];
        check.attempted += 1;
        // Half the nets run traced first, so neither side gains from
        // caches the other warmed.
        let traced_first = check.attempted.is_multiple_of(2);
        let traced_before = traced_first.then(|| run_traced(&stg, &req.options));
        let t = Instant::now();
        let plain = verify(&stg, req.options);
        p.verify_ms += t.elapsed().as_secs_f64() * 1e3;
        let traced = traced_before.unwrap_or_else(|| run_traced(&stg, &req.options));
        let t = Instant::now();
        let cold = verify_persistent(&stg, req.options, &persist);
        p.cold_ms += t.elapsed().as_secs_f64() * 1e3;
        let (Ok(plain), Ok(traced), Ok(cold)) = (plain, traced, cold) else {
            check.fail(format!("{}: an in-process verification failed", net.name));
            continue;
        };
        let same = Counts::of_report(&plain);
        if traced.counts != same || cold.report().map(Counts::of_report) != Some(same.clone()) {
            check.fail(format!(
                "{}: traced `{}` or stored run disagrees with verify `{}`",
                net.name,
                traced.counts.line(),
                same.line()
            ));
            continue;
        }
        let c = &traced.counts;
        let got = Answer {
            verdict: c.verdict.to_string(),
            states: c.states.to_string(),
            peak: c.peak_nodes,
        };
        check.answer(idx, net, got);
        p.layers.add(&traced);
        stored.push((stg, req.options));
    }
    for (stg, opts) in &stored {
        let t = Instant::now();
        let warm = verify_persistent(stg, *opts, &persist);
        p.warm_read_ms += t.elapsed().as_secs_f64() * 1e3;
        if !matches!(warm, Ok(ref r) if r.cache == stgcheck_core::CacheStatus::Warm) {
            check.fail(format!("{}: the stored result was not read back warm", stg.name()));
        }
    }
    let _ = std::fs::remove_dir_all(cache);
    p
}
