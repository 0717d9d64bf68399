//! Boolean operations on BDDs: negation, the binary connectives and `ite`.
//!
//! With complement edges, negation is a tag flip — no traversal, no cache,
//! no arena growth — and the connectives collapse onto a small core:
//! `or` is De Morgan over `and`, `implies`/`diff` are `and` with one
//! negated operand, `iff` is a negated `xor`. The core operations memoise
//! complement-*normalized* keys (operand order for the symmetric ops,
//! tags stripped where the operation commutes with negation), so `f∧g`,
//! `g∧f`, `¬f∨¬g` and `¬(f∧g)` all resolve through a single cache line.
//!
//! The recursive bodies are written once in [`crate::Access`]; the
//! `&self` methods here are their shared-mode spelling.

use crate::access::raw::Raw;
use crate::access::Access;
use crate::manager::{BddManager, BinOp};
use crate::node::Bdd;

impl BddManager {
    /// Logical negation `¬f` — O(1): flips the complement tag of the
    /// handle, touching neither the arena nor any cache.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::BddManager;
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let f = m.var(x);
    /// let nf = m.not(f);
    /// assert_eq!(nf, m.nvar(x));
    /// assert_eq!(m.not(nf), f);
    /// ```
    #[inline]
    pub fn not(&self, f: Bdd) -> Bdd {
        f.complement()
    }

    /// Conjunction `f ∧ g`.
    pub fn and(&self, f: Bdd, g: Bdd) -> Bdd {
        Access::and(&mut { self }, f, g)
    }

    /// Disjunction `f ∨ g`, by De Morgan through the `and` cache:
    /// `f ∨ g = ¬(¬f ∧ ¬g)`.
    pub fn or(&self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f.complement(), g.complement()).complement()
    }

    /// Exclusive or `f ⊕ g`.
    ///
    /// Complement-normalized: `¬f ⊕ g = f ⊕ ¬g = ¬(f ⊕ g)`, so both
    /// operands are stripped to their regular handles before the cache is
    /// consulted and the combined tag parity is re-applied to the result.
    pub fn xor(&self, f: Bdd, g: Bdd) -> Bdd {
        Access::xor(&mut { self }, f, g)
    }

    /// Set difference `f ∧ ¬g` — the idiom used throughout the traversal
    /// algorithms (`New = From − Reached`). The negation is free, so this
    /// is exactly one `and`.
    pub fn diff(&self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f, g.complement())
    }

    /// Implication `f → g = ¬(f ∧ ¬g)`.
    pub fn implies(&self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f, g.complement()).complement()
    }

    /// Biconditional `f ↔ g = ¬(f ⊕ g)`.
    pub fn iff(&self, f: Bdd, g: Bdd) -> Bdd {
        self.xor(f, g).complement()
    }

    /// If-then-else `(f ∧ g) ∨ (¬f ∧ h)`, the universal connective.
    ///
    /// Normalized before the cache probe: a complemented condition swaps
    /// the branches (`ite(¬f,g,h) = ite(f,h,g)`) and a complemented then
    /// branch factors out (`ite(f,¬g,¬h) = ¬ite(f,g,h)`), so the cached
    /// key always has a regular `f` and a regular `g`.
    pub fn ite(&self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        Access::ite(&mut { self }, f, g, h)
    }

    /// Functional composition: substitutes `g` for variable `v` in `f`
    /// (`f[v := g]`), by Shannon expansion `ite(g, f|ᵥ₌₁, f|ᵥ₌₀)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::BddManager;
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let y = m.new_var("y");
    /// let z = m.new_var("z");
    /// let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
    /// let f = m.and(vx, vy);
    /// let g = m.or(vy, vz);
    /// let h = m.compose(f, x, g); // (y∨z) ∧ y = y
    /// assert_eq!(h, vy);
    /// ```
    pub fn compose(&self, f: Bdd, v: crate::Var, g: Bdd) -> Bdd {
        let f1 = self.restrict(f, v, true);
        let f0 = self.restrict(f, v, false);
        self.ite(g, f1, f0)
    }

    /// Conjunction of many functions. Returns `TRUE` for an empty slice.
    pub fn and_many(&self, fs: &[Bdd]) -> Bdd {
        let mut acc = Bdd::TRUE;
        for &f in fs {
            acc = self.and(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction of many functions. Returns `FALSE` for an empty slice.
    pub fn or_many(&self, fs: &[Bdd]) -> Bdd {
        let mut acc = Bdd::FALSE;
        for &f in fs {
            acc = self.or(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Tests whether `f ∧ g` is satisfiable (set-intersection emptiness
    /// test) without building the conjunction: an early-exit recursion
    /// that allocates no node and stops at the first common path
    /// (CUDD's `Cudd_bddLeq` idea). A disjoint pair is recorded as the
    /// `and`-cache entry `f ∧ g = 0`, so a later `and` of the same pair —
    /// or a repeated test — answers from the cache; an intersecting pair
    /// records nothing (the conjunction was never built).
    pub fn intersects(&self, f: Bdd, g: Bdd) -> bool {
        if f.is_false() || g.is_false() || f == g.complement() {
            return false;
        }
        if f.is_true() || g.is_true() || f == g {
            return true;
        }
        let (a, b) = (f.min(g), f.max(g));
        if let Some(r) = self.caches.bin_get(BinOp::And, a, b) {
            return !r.is_false();
        }
        // Inert like `and`, whose answer this must match.
        if self.inert() {
            return false;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        if self.intersects(f0, g0) || self.intersects(f1, g1) {
            return true;
        }
        if !self.inert() {
            Raw::bin_insert(&mut { self }, BinOp::And, a, b, Bdd::FALSE);
        }
        false
    }

    /// Tests language inclusion `f ⊆ g` (i.e. `f → g` is a tautology),
    /// as the allocation-free emptiness test `¬intersects(f, ¬g)`.
    pub fn is_subset(&self, f: Bdd, g: Bdd) -> bool {
        !self.intersects(f, g.complement())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (BddManager, Bdd, Bdd, Bdd) {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        (m, vx, vy, vz)
    }

    #[test]
    fn de_morgan() {
        let (m, x, y, _) = setup();
        let lhs0 = m.and(x, y);
        let lhs = m.not(lhs0);
        let (nx, ny) = (m.not(x), m.not(y));
        let rhs = m.or(nx, ny);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation_is_free() {
        let (m, x, y, _) = setup();
        let f = m.xor(x, y);
        let live = m.live_nodes();
        let nodes = m.nodes.len();
        let nf = m.not(f);
        assert_eq!(m.not(nf), f);
        // O(1) negation: no node was created or even looked up.
        assert_eq!(m.live_nodes(), live);
        assert_eq!(m.nodes.len(), nodes);
    }

    #[test]
    fn and_or_absorption() {
        let (m, x, y, _) = setup();
        let xy = m.and(x, y);
        assert_eq!(m.or(x, xy), x);
        let x_or_y = m.or(x, y);
        assert_eq!(m.and(x, x_or_y), x);
    }

    #[test]
    fn contradiction_and_excluded_middle() {
        let (m, x, y, _) = setup();
        let f = m.xor(x, y);
        let nf = m.not(f);
        assert_eq!(m.and(f, nf), Bdd::FALSE);
        assert_eq!(m.or(f, nf), Bdd::TRUE);
    }

    #[test]
    fn xor_properties() {
        let (m, x, y, _) = setup();
        assert_eq!(m.xor(x, x), Bdd::FALSE);
        let t = m.one();
        let nx = m.not(x);
        assert_eq!(m.xor(x, t), nx);
        let a = m.xor(x, y);
        let b = m.xor(y, x);
        assert_eq!(a, b);
        // Complement normalization: ¬x ⊕ y = ¬(x ⊕ y).
        let c = m.xor(nx, y);
        assert_eq!(c, a.complement());
        let ny = m.not(y);
        assert_eq!(m.xor(nx, ny), a);
    }

    #[test]
    fn ite_equals_definition() {
        let (m, f, g, h) = setup();
        let ite = m.ite(f, g, h);
        let fg = m.and(f, g);
        let nf = m.not(f);
        let nfh = m.and(nf, h);
        let by_def = m.or(fg, nfh);
        assert_eq!(ite, by_def);
    }

    #[test]
    fn ite_normalizations() {
        let (m, f, g, h) = setup();
        let base = m.ite(f, g, h);
        // ite(¬f, h, g) == ite(f, g, h).
        let nf = m.not(f);
        assert_eq!(m.ite(nf, h, g), base);
        // ite(f, ¬g, ¬h) == ¬ite(f, g, h).
        let (ng, nh) = (m.not(g), m.not(h));
        assert_eq!(m.ite(f, ng, nh), base.complement());
        // ite(f, g, ¬g) == f ↔ g.
        let ng = m.not(g);
        let lhs = m.ite(f, g, ng);
        let rhs = m.iff(f, g);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn implies_and_iff() {
        let (m, x, y, _) = setup();
        let imp = m.implies(x, y);
        let nx = m.not(x);
        let expected = m.or(nx, y);
        assert_eq!(imp, expected);
        let iff = m.iff(x, x);
        assert!(iff.is_true());
        let iff_xy = m.iff(x, y);
        let xnor0 = m.xor(x, y);
        let xnor = m.not(xnor0);
        assert_eq!(iff_xy, xnor);
    }

    #[test]
    fn diff_is_relative_complement() {
        let (m, x, y, _) = setup();
        let d = m.diff(x, y);
        let ny = m.not(y);
        let expected = m.and(x, ny);
        assert_eq!(d, expected);
        assert!(m.is_subset(d, x));
        assert!(!m.intersects(d, y));
    }

    #[test]
    fn many_variants() {
        let (m, x, y, z) = setup();
        let all = m.and_many(&[x, y, z]);
        let xy = m.and(x, y);
        let expected = m.and(xy, z);
        assert_eq!(all, expected);
        assert_eq!(m.and_many(&[]), Bdd::TRUE);
        let any = m.or_many(&[x, y, z]);
        let xoy = m.or(x, y);
        let expected = m.or(xoy, z);
        assert_eq!(any, expected);
        assert_eq!(m.or_many(&[]), Bdd::FALSE);
    }

    #[test]
    fn compose_laws() {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let f = m.xor(vx, vy);
        // Identity substitution.
        assert_eq!(m.compose(f, x, vx), f);
        // Constant substitution equals restriction.
        let t = m.one();
        let composed = m.compose(f, x, t);
        let restricted = m.restrict(f, x, true);
        assert_eq!(composed, restricted);
        // Substituting z for x: x⊕y becomes z⊕y.
        let h = m.compose(f, x, vz);
        let expected = m.xor(vz, vy);
        assert_eq!(h, expected);
        // Variables not in the support are untouched.
        assert_eq!(m.compose(f, z, vy), f);
    }

    #[test]
    fn subset_and_intersection() {
        let (m, x, y, _) = setup();
        let xy = m.and(x, y);
        assert!(m.is_subset(xy, x));
        assert!(m.is_subset(xy, y));
        assert!(!m.is_subset(x, xy));
        assert!(m.intersects(x, y));
        let nx = m.not(x);
        assert!(!m.intersects(x, nx));
    }
}
