//! The nets each workload verifies, and the answers they must get.
//!
//! Expected results come from outside the symbolic engine: closed-form
//! state counts for the paper's families, and the explicit state-graph
//! oracle (`check_explicit` plus the explicit fake-freedom check) for
//! every other net.

use std::collections::HashSet;
use std::path::Path;

use stgcheck_bench::workloads_from_dir;
use stgcheck_petri::ReachOptions;
use stgcheck_stg::{
    check_explicit, fake_freedom_violations, gen, parse_g, write_g, Implementability,
    PersistencyPolicy, SgOptions, Stg,
};

/// The verdict and state count a net must get.
pub struct Expected {
    pub verdict: Implementability,
    pub states: u128,
}

/// One net as the program receives it: `.g` text without an initial
/// code, so the program infers it.
pub struct Net {
    pub name: String,
    pub text: String,
    /// Mutual-exclusion nets are checked under the arbitration policy.
    pub arbitration: bool,
    pub expected: Expected,
}

/// A Table 1 family member: generator, size, closed-form state count.
#[derive(Copy, Clone, Debug)]
pub enum Family {
    Muller(usize),
    ParHs(usize),
    Ring(usize),
    Mutex(usize),
    MasterRead(usize),
    VmeRead,
}

impl Family {
    pub fn generate(self) -> Stg {
        match self {
            Family::Muller(n) => gen::muller_pipeline(n),
            Family::ParHs(n) => gen::par_handshakes(n),
            Family::Ring(n) => gen::ring(n),
            Family::Mutex(n) => gen::mutex(n),
            Family::MasterRead(n) => gen::master_read(n),
            Family::VmeRead => gen::vme_read(),
        }
    }

    /// Closed-form state count; `None` for vme-read, which the explicit
    /// oracle answers.
    fn closed_form_states(self) -> Option<u128> {
        let pow = |b: u128, n: usize| b.pow(u32::try_from(n).expect("family sizes are small"));
        match self {
            Family::Muller(n) => Some(pow(2, n)),
            Family::ParHs(n) => Some(pow(4, n)),
            Family::Ring(n) => Some(4 * n as u128),
            Family::Mutex(n) => Some((n as u128 + 1) * pow(2, n)),
            Family::MasterRead(n) => Some(2 * pow(3, n) + 2),
            Family::VmeRead => None,
        }
    }

    pub fn arbitration(self) -> bool {
        matches!(self, Family::Mutex(_))
    }

    /// The answer the member must get: closed form where one exists,
    /// the explicit oracle otherwise.
    pub fn expected(self, stg: &Stg) -> Expected {
        match self.closed_form_states() {
            Some(states) => Expected { verdict: Implementability::Gate, states },
            None => oracle(stg, self.arbitration()).expect("vme-read has an explicit state graph"),
        }
    }

    /// The member as `.g` text, the way the daemon receives it.
    pub fn net(self) -> Net {
        let text = write_g(&self.generate());
        let stg = parse_g(&text).expect("generated nets parse");
        let expected = self.expected(&stg);
        Net { name: stg.name().to_string(), text, arbitration: self.arbitration(), expected }
    }
}

/// The explicit oracle's answer, or `None` when the explicit state graph
/// cannot be built (inconsistent, unbounded or ambiguous initial code):
/// such nets are not used as inputs.
fn oracle(stg: &Stg, arbitration: bool) -> Option<Expected> {
    let report = check_explicit(
        stg,
        SgOptions::default(),
        PersistencyPolicy { allow_arbitration: arbitration },
    );
    if !report.consistent() {
        return None;
    }
    let rg = stg.net().reachability_graph(ReachOptions::default()).ok()?;
    // Fake conflicts reject a net outright, as the paper's tool does.
    let fake = !fake_freedom_violations(stg, &rg).is_empty();
    let verdict =
        if !report.safe || fake { Implementability::NotImplementable } else { report.verdict };
    Some(Expected { verdict, states: report.states as u128 })
}

/// `stg` as `.g` text (which carries no initial code), checked by the
/// oracle on the net the text parses back to.
fn oracle_net(stg: &Stg, arbitration: bool) -> Option<Net> {
    let text = write_g(stg);
    let parsed = parse_g(&text).ok()?;
    let expected = oracle(&parsed, arbitration)?;
    Some(Net { name: parsed.name().to_string(), text, arbitration, expected })
}

/// Number of `random_safe_stg` nets in the serve pool.
const RANDOM_NETS: usize = 360;

/// The distinct nets the `serve-mixed` stream draws from: the
/// `benchmarks/` corpus, the defect nets, small family members, and the
/// first [`RANDOM_NETS`] `random_safe_stg` seeds the oracle accepts.
/// The pool is the same for every benchmark seed, so every run does the
/// same cold work; the seed drives the request stream.
pub fn serve_pool(corpus_dir: &Path) -> Result<Vec<Net>, String> {
    let mut pool = Vec::new();
    for w in workloads_from_dir(corpus_dir)? {
        let net = oracle_net(&w.stg, w.arbitration)
            .ok_or_else(|| format!("{}: no explicit state graph", w.name))?;
        pool.push(net);
    }
    let defects = [
        (gen::csc_violation_stg(), false),
        (gen::irreducible_csc_stg(), false),
        (gen::nonpersistent_stg(), false),
        (gen::fig3_d1(), false),
        (gen::fig3_d2(), false),
    ];
    for (stg, arbitration) in defects {
        let name = stg.name().to_string();
        pool.push(
            oracle_net(&stg, arbitration)
                .ok_or_else(|| format!("{name}: no explicit state graph"))?,
        );
    }
    let mut small: Vec<Family> = Vec::new();
    small.extend((3..=10).map(Family::Muller));
    small.extend((2..=5).map(Family::MasterRead));
    small.extend((2..=6).map(Family::ParHs));
    small.extend((2..=8).map(Family::Ring));
    small.extend((2..=4).map(Family::Mutex));
    small.push(Family::VmeRead);
    pool.extend(small.into_iter().map(Family::net));
    // One net per content hash: the result store keys nets by it, and
    // many small random nets (and some corpus files and family members)
    // are the same net under another name or declaration order.
    let mut seen = HashSet::new();
    let mut distinct =
        |net: &Net| seen.insert(parse_g(&net.text).expect("pool nets parse").content_hash());
    pool.retain(&mut distinct);
    // Seeds whose net has no explicit state graph (ambiguous initial
    // code) are not valid inputs and are skipped.
    let random = (0u64..)
        .filter_map(|s| oracle_net(&gen::random_safe_stg(s), false))
        .filter(|net| distinct(net))
        .take(RANDOM_NETS);
    pool.extend(random);
    Ok(pool)
}
