//! Boolean operations on BDDs: negation, the binary connectives and `ite`.
//!
//! With complement edges, negation is a tag flip — no traversal, no cache,
//! no arena growth — and the connectives collapse onto a small core:
//! `or` is De Morgan over `and`, `implies`/`diff` are `and` with one
//! negated operand, `iff` is a negated `xor`. The core operations memoise
//! complement-*normalized* keys (operand order for the symmetric ops,
//! tags stripped where the operation commutes with negation), so `f∧g`,
//! `g∧f`, `¬f∨¬g` and `¬(f∧g)` all resolve through a single cache line.

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
        // Terminal and trivial cases.
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return g;
        }
        if g.is_true() || f == g {
            return f;
        }
        if f == g.complement() {
            return Bdd::FALSE;
        }
        let (a, b) = (f.min(g), f.max(g));
        if let Some(r) = self.caches.bin_get(BinOp::And, a, b) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let lo = self.and(f0, g0);
        let hi = self.and(f1, g1);
        let r = self.mk(top, lo, hi);
        // A trip below this frame means `lo`/`hi` may be inert garbage:
        // never publish such a result to the memo table.
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.bin_insert(BinOp::And, a, b, r);
        r
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
        let parity = f.is_complemented() ^ g.is_complemented();
        let (f, g) = (f.regular(), g.regular());
        if f == g {
            return Bdd::TRUE.complement_if(!parity);
        }
        // After regularization the only reachable terminal is TRUE.
        if f.is_true() {
            return g.complement_if(!parity);
        }
        if g.is_true() {
            return f.complement_if(!parity);
        }
        let (a, b) = (f.min(g), f.max(g));
        if let Some(r) = self.caches.bin_get(BinOp::Xor, a, b) {
            return r.complement_if(parity);
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let lo = self.xor(f0, g0);
        let hi = self.xor(f1, g1);
        let r = self.mk(top, lo, hi);
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.bin_insert(BinOp::Xor, a, b, r);
        r.complement_if(parity)
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
        // Terminal cases.
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g == h.complement() {
            // ite(f, g, ¬g) = f ↔ g.
            return self.iff(f, g);
        }
        // Operand coincidences route into the shared and-cache.
        if f == g {
            return self.or(f, h); // ite(f, f, h)
        }
        if f == g.complement() {
            return self.and(f.complement(), h); // ite(f, ¬f, h)
        }
        if f == h {
            return self.and(f, g); // ite(f, g, f)
        }
        if f == h.complement() {
            return self.or(f.complement(), g); // ite(f, g, ¬f)
        }
        if g.is_true() {
            return self.or(f, h);
        }
        if g.is_false() {
            return self.and(f.complement(), h);
        }
        if h.is_false() {
            return self.and(f, g);
        }
        if h.is_true() {
            return self.or(f.complement(), g);
        }
        // Normalization 1: regular condition.
        let (f, g, h) = if f.is_complemented() { (f.complement(), h, g) } else { (f, g, h) };
        // Normalization 2: regular then-branch; the tag moves to the result.
        let flip = g.is_complemented();
        let (g, h) = if flip { (g.complement(), h.complement()) } else { (g, h) };
        if let Some(r) = self.caches.ite_get(f, g, h) {
            return r.complement_if(flip);
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let (lh, he0, he1) = self.peek(h);
        let top = lf.min(lg).min(lh);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let (h0, h1) = if lh == top { (he0, he1) } else { (h, h) };
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.ite_insert(f, g, h, r);
        r.complement_if(flip)
    }

    /// Exclusive-mode [`BddManager::and`]: identical recursion, results
    /// and memoisation, but every node is hash-consed through the
    /// exclusive `mk` (plain bump allocation, `get_mut` on the
    /// unique-table shard) and every cache publication is a plain
    /// (non-release) store. The `&mut` receiver is the entire
    /// safety argument — borrowck proves no concurrent reader exists, so
    /// the atomic-publication protocol of the shared path is pure
    /// overhead here. Cache *probes* stay on the shared read path (an
    /// acquire load is a plain load on the architectures we target), so
    /// both paths populate and consume the same memo tables.
    pub fn and_x(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return g;
        }
        if g.is_true() || f == g {
            return f;
        }
        if f == g.complement() {
            return Bdd::FALSE;
        }
        let (a, b) = (f.min(g), f.max(g));
        if let Some(r) = self.caches.bin_get(BinOp::And, a, b) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let lo = self.and_x(f0, g0);
        let hi = self.and_x(f1, g1);
        let r = self.mk_x(top, lo, hi);
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.bin_insert_mut(BinOp::And, a, b, r);
        r
    }

    /// Exclusive-mode [`BddManager::or`]: De Morgan through
    /// [`BddManager::and_x`].
    pub fn or_x(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and_x(f.complement(), g.complement()).complement()
    }

    /// Exclusive-mode [`BddManager::diff`]: `f ∧ ¬g` through
    /// [`BddManager::and_x`].
    pub fn diff_x(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and_x(f, g.complement())
    }

    /// Exclusive-mode [`BddManager::implies`].
    pub fn implies_x(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and_x(f, g.complement()).complement()
    }

    /// Exclusive-mode [`BddManager::iff`].
    pub fn iff_x(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.xor_x(f, g).complement()
    }

    /// Exclusive-mode [`BddManager::xor`] — see [`BddManager::and_x`]
    /// for the mode contract.
    pub fn xor_x(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let parity = f.is_complemented() ^ g.is_complemented();
        let (f, g) = (f.regular(), g.regular());
        if f == g {
            return Bdd::TRUE.complement_if(!parity);
        }
        if f.is_true() {
            return g.complement_if(!parity);
        }
        if g.is_true() {
            return f.complement_if(!parity);
        }
        let (a, b) = (f.min(g), f.max(g));
        if let Some(r) = self.caches.bin_get(BinOp::Xor, a, b) {
            return r.complement_if(parity);
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let lo = self.xor_x(f0, g0);
        let hi = self.xor_x(f1, g1);
        let r = self.mk_x(top, lo, hi);
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.bin_insert_mut(BinOp::Xor, a, b, r);
        r.complement_if(parity)
    }

    /// Exclusive-mode [`BddManager::ite`] — see [`BddManager::and_x`]
    /// for the mode contract.
    pub fn ite_x(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g == h.complement() {
            return self.iff_x(f, g);
        }
        if f == g {
            return self.or_x(f, h);
        }
        if f == g.complement() {
            return self.and_x(f.complement(), h);
        }
        if f == h {
            return self.and_x(f, g);
        }
        if f == h.complement() {
            return self.or_x(f.complement(), g);
        }
        if g.is_true() {
            return self.or_x(f, h);
        }
        if g.is_false() {
            return self.and_x(f.complement(), h);
        }
        if h.is_false() {
            return self.and_x(f, g);
        }
        if h.is_true() {
            return self.or_x(f.complement(), g);
        }
        let (f, g, h) = if f.is_complemented() { (f.complement(), h, g) } else { (f, g, h) };
        let flip = g.is_complemented();
        let (g, h) = if flip { (g.complement(), h.complement()) } else { (g, h) };
        if let Some(r) = self.caches.ite_get(f, g, h) {
            return r.complement_if(flip);
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let (lh, he0, he1) = self.peek(h);
        let top = lf.min(lg).min(lh);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let (h0, h1) = if lh == top { (he0, he1) } else { (h, h) };
        let lo = self.ite_x(f0, g0, h0);
        let hi = self.ite_x(f1, g1, h1);
        let r = self.mk_x(top, lo, hi);
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.ite_insert_mut(f, g, h, r);
        r.complement_if(flip)
    }

    /// Exclusive-mode [`BddManager::and_many`].
    pub fn and_many_x(&mut self, fs: &[Bdd]) -> Bdd {
        let mut acc = Bdd::TRUE;
        for &f in fs {
            acc = self.and_x(acc, f);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Exclusive-mode [`BddManager::or_many`].
    pub fn or_many_x(&mut self, fs: &[Bdd]) -> Bdd {
        let mut acc = Bdd::FALSE;
        for &f in fs {
            acc = self.or_x(acc, f);
            if acc.is_true() {
                break;
            }
        }
        acc
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
            self.caches.bin_insert(BinOp::And, a, b, Bdd::FALSE);
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
    fn exclusive_ops_return_the_shared_canonical_handles() {
        // The fast-path contract: `*_x` must produce bit-identical
        // handles to the shared ops — same hash-consing, same
        // complement normal form, same memo entries — regardless of
        // which path ran first and populated the caches.
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 6);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        for i in 0..6 {
            for j in 0..6 {
                let (a, b) = (lits[i], lits[j].complement());
                let shared_and = m.and(a, b);
                assert_eq!(m.and_x(a, b), shared_and);
                let excl_xor = m.xor_x(a, b);
                assert_eq!(m.xor(a, b), excl_xor);
                let c = lits[(i + j) % 6];
                let shared_ite = m.ite(shared_and, excl_xor, c);
                assert_eq!(m.ite_x(shared_and, excl_xor, c), shared_ite);
                let excl_or = m.or_x(shared_and, c);
                assert_eq!(m.or(shared_and, c), excl_or);
            }
        }
        m.check_invariants();
    }

    #[test]
    fn exclusive_ops_stay_inert_after_a_trip() {
        let mut m = BddManager::new();
        let vars = m.new_vars("x", 8);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        m.budget().trip(crate::ResourceError::ArenaExhausted);
        // Tripped managers answer FALSE without memoising garbage.
        assert_eq!(m.and_x(lits[0], lits[1]), Bdd::FALSE);
        assert_eq!(m.xor_x(lits[2], lits[3]), Bdd::FALSE);
        assert_eq!(m.ite_x(lits[4], lits[5], lits[6]), Bdd::FALSE);
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
