//! The machine-speed reference every timing is normalised by.
//!
//! The reference box changes speed by up to 1.6× from one few-second
//! stretch to the next, for all code alike (a net's median over a
//! hundred repeats can read 0.27 ms in one stretch and 0.44 ms in the
//! next). Medians within a run cannot remove a slow stretch that covers
//! much of the run. So the benchmark times a fixed reference workload
//! of its own next to every sample, and reports each sample scaled to
//! the reference's nominal speed:
//!
//! `reported = measured × NOMINAL_S / mean(reference before, reference after)`
//!
//! The reference is a small BDD package of its own (hash-consed nodes,
//! a memoised apply) building the 7-queens BDD, so it stresses the
//! caches and allocator the way the program does. It is part of the
//! benchmark, never of the program under test: a change to stgcheck
//! cannot move it. Standard error carries the raw measurements too.

use std::collections::HashMap;
use std::time::Instant;

/// About the reference's typical time on the box the benchmark was
/// written on, so normalised timings read close to measured ones there;
/// it only sets the scale of the reported numbers.
pub const NOMINAL_S: f64 = 0.016;

const F: u32 = 0;
const T: u32 = 1;

#[derive(Default)]
struct Bdd {
    /// `[var, lo, hi]`; slots 0 and 1 are the terminals.
    nodes: Vec<[u32; 3]>,
    unique: HashMap<[u32; 3], u32>,
    memo: HashMap<(bool, u32, u32), u32>,
}

impl Bdd {
    fn mk(&mut self, v: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        let next = u32::try_from(self.nodes.len()).expect("the reference BDD is small");
        let id = *self.unique.entry([v, lo, hi]).or_insert(next);
        if id == next {
            self.nodes.push([v, lo, hi]);
        }
        id
    }

    /// Conjunction, or disjunction when `or`.
    fn apply(&mut self, or: bool, a: u32, b: u32) -> u32 {
        let (zero, one) = if or { (T, F) } else { (F, T) };
        if a == zero || b == zero {
            return zero;
        }
        if a == one || a == b {
            return b;
        }
        if b == one {
            return a;
        }
        let key = (or, a.min(b), a.max(b));
        if let Some(&r) = self.memo.get(&key) {
            return r;
        }
        let ([va, la, ha], [vb, lb, hb]) = (self.nodes[a as usize], self.nodes[b as usize]);
        let v = va.min(vb);
        let (al, ah) = if va == v { (la, ha) } else { (a, a) };
        let (bl, bh) = if vb == v { (lb, hb) } else { (b, b) };
        let lo = self.apply(or, al, bl);
        let hi = self.apply(or, ah, bh);
        let r = self.mk(v, lo, hi);
        self.memo.insert(key, r);
        r
    }
}

/// Builds the n-queens BDD; returns its node count.
fn queens(n: u32) -> usize {
    let mut b = Bdd { nodes: vec![[u32::MAX, F, F], [u32::MAX, T, T]], ..Bdd::default() };
    let cell = |i: u32, j: u32| i * n + j;
    let mut all = T;
    for i in 0..n {
        for j in 0..n {
            // A queen on (i, j) leaves every cell it attacks empty.
            let mut free = T;
            for k in 0..n {
                for l in 0..n {
                    let attacked =
                        (k, l) != (i, j) && (k == i || l == j || k + j == i + l || k + l == i + j);
                    if attacked {
                        let empty = b.mk(cell(k, l), T, F);
                        free = b.apply(false, free, empty);
                    }
                }
            }
            let empty = b.mk(cell(i, j), T, F);
            let c = b.apply(true, empty, free);
            all = b.apply(false, all, c);
        }
        // Every row holds a queen.
        let mut row = F;
        for j in 0..n {
            let queen = b.mk(cell(i, j), F, T);
            row = b.apply(true, row, queen);
        }
        all = b.apply(false, all, row);
    }
    b.nodes.len()
}

/// Runs the reference once; returns its wall seconds.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let nodes = std::hint::black_box(queens(std::hint::black_box(7)));
    assert_eq!(nodes, 24471, "the reference builds the same BDD every time");
    start.elapsed().as_secs_f64()
}

/// Scales `secs`, measured between reference runs taking `before` and
/// `after` seconds, to the reference's nominal speed.
pub fn normalize(secs: f64, before: f64, after: f64) -> f64 {
    secs * NOMINAL_S * 2.0 / (before + after)
}
