//! The traced run: `verify` taken apart into its layers.
//!
//! [`run_traced`] makes the same public calls `verify` makes, in the
//! order of its `finish_verification`, and times each call from the
//! outside. Its verdict, state count and peak must equal those of the
//! untraced `verify` on the same net; the callers assert that.

use std::time::Instant;

use stgcheck_bdd::Budget;
use stgcheck_core::{ReorderMode, SymbolicStg, VerifyOptions};
use stgcheck_stg::{Implementability, Stg};

use crate::stats::{median, Metrics};

/// Milliseconds spent in each layer for one net.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerMs {
    /// `SymbolicStg::new`.
    pub new: f64,
    /// `effective_initial_code`.
    pub infer: f64,
    /// `traverse_with_engine`.
    pub fixpoint: f64,
    /// Consistency, safeness and deadlock.
    pub consistency: f64,
    /// Signal and transition persistency (with the marking projection).
    pub persistency: f64,
    /// Fake freedom and nondeterminism.
    pub fake: f64,
    /// `check_csc`.
    pub csc: f64,
    /// `has_complementary_input_sequences` on the signals failing CSC.
    pub reducibility: f64,
    /// The whole traced verification.
    pub total: f64,
}

impl LayerMs {
    pub fn add(&mut self, o: &LayerMs) {
        self.new += o.new;
        self.infer += o.infer;
        self.fixpoint += o.fixpoint;
        self.consistency += o.consistency;
        self.persistency += o.persistency;
        self.fake += o.fake;
        self.csc += o.csc;
        self.reducibility += o.reducibility;
        self.total += o.total;
    }
}

/// The exact counts of one verification; they must repeat run to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    pub verdict: Implementability,
    pub states: u128,
    pub peak_nodes: usize,
    pub final_nodes: usize,
    pub iterations: usize,
    pub gc_runs: usize,
    pub gc_full_runs: usize,
    pub sift_runs: usize,
}

impl Counts {
    pub fn of_report(r: &stgcheck_core::SymbolicReport) -> Counts {
        Counts {
            verdict: r.verdict,
            states: r.num_states,
            peak_nodes: r.bdd_peak,
            final_nodes: r.bdd_final,
            iterations: r.traversal.iterations,
            gc_runs: r.gc_collections,
            gc_full_runs: r.gc_full_collections,
            sift_runs: r.sift_passes,
        }
    }

    /// One record line; the fields in a fixed order.
    pub fn line(&self) -> String {
        format!(
            "verdict={} states={} peak={} final={} iterations={} gc={} gc_full={} sift={}",
            self.verdict,
            self.states,
            self.peak_nodes,
            self.final_nodes,
            self.iterations,
            self.gc_runs,
            self.gc_full_runs,
            self.sift_runs
        )
    }
}

/// What the traced run reports for one net.
pub struct Traced {
    pub counts: Counts,
    /// Peak live nodes of the main traversal alone.
    pub traversal_peak: usize,
    pub sift_swaps: usize,
    pub gc_pause_ms: f64,
    pub gc_reclaimed: usize,
    pub ms: LayerMs,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Verifies `stg` layer by layer.
///
/// # Errors
///
/// The initial code cannot be inferred.
pub fn run_traced(stg: &Stg, opts: &VerifyOptions) -> Result<Traced, String> {
    let mut ms = LayerMs::default();
    let start = Instant::now();
    let t = Instant::now();
    let mut sym = SymbolicStg::new(stg, opts.order);
    ms.new = ms_since(t);
    let mut engine = opts.engine;
    if opts.reorder != ReorderMode::None {
        engine.reorder = opts.reorder;
    }
    sym.set_engine(engine);
    // `verify` installs an unlimited budget; so does the traced run.
    sym.manager_mut().set_budget(Budget::new(None, 0, 0, None));

    let t = Instant::now();
    let code = sym.effective_initial_code().map_err(|e| format!("initial code: {e}"))?;
    ms.infer = ms_since(t);

    let t = Instant::now();
    let traversal = sym.traverse_with_engine(code, &engine);
    ms.fixpoint = ms_since(t);
    let reached = traversal.reached;

    let t = Instant::now();
    let consistency = sym.check_consistency(reached);
    let safety = sym.check_safeness(reached);
    let _deadlock = sym.check_deadlock(reached);
    ms.consistency = ms_since(t);

    let t = Instant::now();
    let r_n = sym.project_markings(reached);
    let persistency = sym.check_signal_persistency(reached, opts.policy);
    let _transition_persistency = sym.check_transition_persistency(reached);
    ms.persistency = ms_since(t);

    let t = Instant::now();
    let fake_violations = sym.check_fake_freedom(r_n);
    let deterministic = sym.nondeterminism_set(reached).is_false();
    ms.fake = ms_since(t);

    let t = Instant::now();
    let csc = sym.check_csc(reached);
    ms.csc = ms_since(t);

    let t = Instant::now();
    let failing: Vec<_> =
        csc.iter().filter(|a| !a.holds).map(|a| (a.signal, a.contradictory)).collect();
    let irreducible = failing
        .into_iter()
        .filter(|&(s, cont)| sym.has_complementary_input_sequences(reached, s, cont))
        .count();
    ms.reducibility = ms_since(t);
    ms.total = ms_since(start);

    let csc_holds = csc.iter().all(|a| a.holds);
    let reducible = deterministic && fake_violations.is_empty() && irreducible == 0;
    let verdict = if !safety.is_empty()
        || !consistency.is_empty()
        || !persistency.is_empty()
        || !fake_violations.is_empty()
    {
        Implementability::NotImplementable
    } else if csc_holds {
        Implementability::Gate
    } else if reducible {
        Implementability::InputOutput
    } else {
        Implementability::SpeedIndependent
    };

    let stats = sym.manager().stats();
    Ok(Traced {
        counts: Counts {
            verdict,
            states: traversal.stats.num_states,
            peak_nodes: sym.manager().peak_live_nodes(),
            final_nodes: traversal.stats.final_nodes,
            iterations: traversal.stats.iterations,
            gc_runs: stats.gc_runs,
            gc_full_runs: stats.gc_full_runs,
            sift_runs: stats.sift_runs,
        },
        traversal_peak: traversal.stats.peak_nodes,
        sift_swaps: stats.sift_swaps,
        gc_pause_ms: stats.gc_pause_ns as f64 / 1e6,
        gc_reclaimed: stats.gc_reclaimed,
        ms,
    })
}

/// Sums of the traced run over the nets of one pass.
#[derive(Default)]
pub struct Totals {
    pub ms: LayerMs,
    pub iterations: usize,
    pub traversal_peak: usize,
    pub final_nodes: usize,
    pub gc_runs: usize,
    pub gc_full_runs: usize,
    pub gc_pause_ms: f64,
    pub gc_reclaimed: usize,
    pub sift_runs: usize,
    pub sift_swaps: usize,
}

impl Totals {
    pub fn add(&mut self, t: &Traced) {
        self.ms.add(&t.ms);
        self.iterations += t.counts.iterations;
        self.traversal_peak += t.traversal_peak;
        self.final_nodes += t.counts.final_nodes;
        self.gc_runs += t.counts.gc_runs;
        self.gc_full_runs += t.counts.gc_full_runs;
        self.gc_pause_ms += t.gc_pause_ms;
        self.gc_reclaimed += t.gc_reclaimed;
        self.sift_runs += t.counts.sift_runs;
        self.sift_swaps += t.sift_swaps;
    }
}

/// The per-layer metrics of the verification pipeline: times are
/// medians over the passes, counts are exact (equal in every pass).
pub fn put_metrics(m: &mut Metrics, passes: &[&Totals]) {
    let med = |f: &dyn Fn(&Totals) -> f64| median(&passes.iter().map(|t| f(t)).collect::<Vec<_>>());
    let last = passes.last().expect("at least one traced pass");
    let fixpoint = med(&|t| t.ms.fixpoint);
    let gc_pause = med(&|t| t.gc_pause_ms);
    m.put("core.encode.new_ms", med(&|t| t.ms.new), "ms");
    m.put("core.traverse.infer_ms", med(&|t| t.ms.infer), "ms");
    m.put("core.traverse.fixpoint_ms", fixpoint, "ms");
    m.put("core.traverse.iterations", last.iterations as f64, "count");
    m.put("core.traverse.peak_nodes", last.traversal_peak as f64, "count");
    m.put("core.traverse.final_nodes", last.final_nodes as f64, "count");
    m.put("bdd.manager.gc_runs", last.gc_runs as f64, "count");
    m.put("bdd.manager.gc_full_runs", last.gc_full_runs as f64, "count");
    m.put("bdd.manager.gc_pause_ms", gc_pause, "ms");
    m.put("bdd.manager.gc_reclaimed", last.gc_reclaimed as f64, "count");
    m.put("bdd.manager.gc_pause_share", gc_pause / fixpoint, "ratio");
    m.put("bdd.sift.runs", last.sift_runs as f64, "count");
    m.put("bdd.sift.swaps", last.sift_swaps as f64, "count");
    m.put("core.consistency.ms", med(&|t| t.ms.consistency), "ms");
    m.put("core.persistency.ms", med(&|t| t.ms.persistency), "ms");
    m.put("core.fake.ms", med(&|t| t.ms.fake), "ms");
    m.put("core.csc.ms", med(&|t| t.ms.csc), "ms");
    m.put("core.csc.reducibility_ms", med(&|t| t.ms.reducibility), "ms");
}
