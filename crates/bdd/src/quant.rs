//! Quantification and cofactors: the workhorses of symbolic traversal.
//!
//! The paper's transition function (Section 4) is computed entirely from
//! *cube cofactors* (`f_c`: restrict `f` by the literals of a cube `c` and
//! drop those variables) and products. Reachability additionally needs
//! existential abstraction `∃x.f` and the fused relational product
//! [`BddManager::and_exists`]; the fused engines fire a transition with
//! the one-pass cube substitution [`BddManager::substitute_cube`].
//!
//! Complement edges shape this module twice over: the cube cofactor
//! commutes with negation (`(¬f)_c = ¬(f_c)`), so its cache is keyed on
//! regular handles only, and universal abstraction is the free dual
//! `∀c.f = ¬∃c.¬f` — one recursion serves both quantifiers through one
//! cache.

use crate::manager::{BddManager, BinOp};
use crate::node::{Bdd, Literal, Var, TERMINAL_LEVEL};

impl BddManager {
    /// Builds the cube (conjunction of literals) `∧ lits`.
    ///
    /// Duplicate literals are allowed; contradictory literals yield `FALSE`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::{BddManager, Literal};
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let y = m.new_var("y");
    /// let c = m.cube(&[Literal::positive(x), Literal::negative(y)]);
    /// let vx = m.var(x);
    /// let ny = m.nvar(y);
    /// assert_eq!(c, m.and(vx, ny));
    /// ```
    pub fn cube(&self, lits: &[Literal]) -> Bdd {
        let mut acc = Bdd::TRUE;
        // Conjoin bottom-up (deepest level first) so each `and` is O(1)-ish.
        let mut sorted: Vec<Literal> = lits.to_vec();
        sorted.sort_by_key(|l| std::cmp::Reverse(self.level_of(l.var())));
        for l in sorted {
            let lit = self.literal(l);
            acc = self.and(lit, acc);
        }
        acc
    }

    /// Builds the positive cube `∧ vars`, the usual quantification prefix.
    pub fn vars_cube(&self, vars: &[Var]) -> Bdd {
        let lits: Vec<Literal> = vars.iter().map(|&v| Literal::positive(v)).collect();
        self.cube(&lits)
    }

    /// Returns `true` if `f` is a cube: a single path to `TRUE`.
    pub fn is_cube(&self, f: Bdd) -> bool {
        let mut g = f;
        if g.is_false() {
            return false;
        }
        while !g.is_terminal() {
            let (lo, hi) = self.children(g);
            match (lo.is_false(), hi.is_false()) {
                (true, false) => g = hi,
                (false, true) => g = lo,
                _ => return false,
            }
        }
        g.is_true()
    }

    /// Decomposes a cube into its literals.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a cube (see [`BddManager::is_cube`]).
    pub fn cube_literals(&self, f: Bdd) -> Vec<Literal> {
        assert!(self.is_cube(f), "cube_literals called on a non-cube");
        let mut lits = Vec::new();
        let mut g = f;
        while !g.is_terminal() {
            let v = self.var_at(self.node(g).level as usize);
            let (lo, hi) = self.children(g);
            if lo.is_false() {
                lits.push(Literal::positive(v));
                g = hi;
            } else {
                lits.push(Literal::negative(v));
                g = lo;
            }
        }
        lits
    }

    /// Top level of a cube plus its tail (the cube minus its top
    /// literal), in one arena read; `TRUE` reports [`TERMINAL_LEVEL`]
    /// and itself. The shared skip-step of every quantifier recursion.
    #[inline]
    fn cube_peek(&self, c: Bdd) -> (crate::node::Level, Bdd) {
        if c.is_terminal() {
            return (TERMINAL_LEVEL, c);
        }
        let (cl, clo, chi) = self.peek(c);
        (cl, if clo.is_false() { chi } else { clo })
    }

    /// Restricts `f` by `v = value` (Shannon cofactor w.r.t. one literal).
    pub fn restrict(&self, f: Bdd, v: Var, value: bool) -> Bdd {
        let lit = Literal::new(v, value);
        let c = self.literal(lit);
        self.cofactor_cube(f, c)
    }

    /// Generalised cofactor `f_c` of `f` with respect to a cube `c`
    /// (Section 4 of the paper): every variable of `c` is fixed to its
    /// polarity in `c` and *removed* from the function.
    ///
    /// Commutes with complementation, so the memo table is keyed on the
    /// regular handle of `f` and serves `f_c` and `(¬f)_c` alike.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `c` is not a cube.
    pub fn cofactor_cube(&self, f: Bdd, c: Bdd) -> Bdd {
        // A tripped manager may be handed garbage built by inert ops; the
        // recursion below bails out inert before touching it.
        debug_assert!(self.inert() || self.is_cube(c), "cofactor requires a cube");
        let tag = f.is_complemented();
        self.cofactor_rec(f.regular(), c).complement_if(tag)
    }

    /// Recursive cofactor over a *regular* `f`.
    fn cofactor_rec(&self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(!f.is_complemented());
        if c.is_true() || f.is_terminal() {
            return f;
        }
        if let Some(r) = self.caches.bin_get(BinOp::CofactorCube, f, c) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (fl, flo, fhi) = self.peek(f);
        let (cl, clo, chi) = self.peek(c);
        // `c` is a cube: its tail is whichever child is not FALSE, and
        // `clo` doubles as the polarity of the top literal.
        let next = if clo.is_false() { chi } else { clo };
        let r = if cl < fl {
            // `f` does not depend on the cube's top variable: skip it.
            self.cofactor_rec(f, next)
        } else if cl == fl {
            let branch = if clo.is_false() { fhi } else { flo };
            let tag = branch.is_complemented();
            self.cofactor_rec(branch.regular(), next).complement_if(tag)
        } else {
            let hi_tag = fhi.is_complemented();
            let lo = self.cofactor_rec(flo, c);
            let hi = self.cofactor_rec(fhi.regular(), c).complement_if(hi_tag);
            self.mk(fl, lo, hi)
        };
        // Budget trip below this frame → sub-results may be inert
        // garbage: never publish them to the memo table.
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.bin_insert(BinOp::CofactorCube, f, c, r);
        r
    }

    /// Existential abstraction `∃ vars(c) . f` where `c` is a (positive)
    /// cube listing the variables to abstract.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::BddManager;
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let y = m.new_var("y");
    /// let (vx, vy) = (m.var(x), m.var(y));
    /// let f = m.and(vx, vy);
    /// let cube = m.vars_cube(&[x]);
    /// assert_eq!(m.exists(f, cube), vy); // ∃x. x∧y = y
    /// ```
    pub fn exists(&self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.is_cube(c), "quantification prefix must be a cube");
        self.exists_rec(f, c)
    }

    fn exists_rec(&self, f: Bdd, mut c: Bdd) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        let (fl, flo, fhi) = self.peek(f);
        // Skip cube variables above the root of f.
        let (cl, ctail) = loop {
            let (cl, tail) = self.cube_peek(c);
            if cl >= fl {
                break (cl, tail);
            }
            c = tail;
        };
        if c.is_true() {
            return f;
        }
        if let Some(r) = self.caches.bin_get(BinOp::Exists, f, c) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let r = if cl == fl {
            let lo = self.exists_rec(flo, ctail);
            if lo.is_true() {
                // Early termination: the disjunction is already TRUE.
                Bdd::TRUE
            } else {
                let hi = self.exists_rec(fhi, ctail);
                self.or(lo, hi)
            }
        } else {
            let lo = self.exists_rec(flo, c);
            let hi = self.exists_rec(fhi, c);
            self.mk(fl, lo, hi)
        };
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.bin_insert(BinOp::Exists, f, c, r);
        r
    }

    /// Universal abstraction `∀ vars(c) . f`, as the free complement dual
    /// `¬∃ vars(c) . ¬f` — no recursion or cache of its own.
    pub fn forall(&self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.is_cube(c), "quantification prefix must be a cube");
        self.exists_rec(f.complement(), c).complement()
    }

    /// Fused relational product `∃ vars(c) . (f ∧ g)`.
    ///
    /// Avoids materialising the intermediate conjunction, which is the
    /// classic optimisation for image computations.
    pub fn and_exists(&self, f: Bdd, g: Bdd, c: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.is_cube(c), "quantification prefix must be a cube");
        self.and_exists_rec(f, g, c)
    }

    fn and_exists_rec(&self, f: Bdd, g: Bdd, c: Bdd) -> Bdd {
        if f.is_false() || g.is_false() || f == g.complement() {
            return Bdd::FALSE;
        }
        if f.is_true() || f == g {
            return self.exists_rec(g, c);
        }
        if g.is_true() {
            return self.exists_rec(f, c);
        }
        if c.is_true() {
            return self.and(f, g);
        }
        let (a, b) = (f.min(g), f.max(g));
        if let Some(r) = self.caches.and_exists_get(a, b, c) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let top = lf.min(lg);
        // Skip cube variables above both operands.
        let mut c2 = c;
        let (cl, ctail) = loop {
            let (cl, tail) = self.cube_peek(c2);
            if cl >= top {
                break (cl, tail);
            }
            c2 = tail;
        };
        if c2.is_true() {
            let r = self.and(f, g);
            self.caches.and_exists_insert(a, b, c, r);
            return r;
        }
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let r = if cl == top {
            let lo = self.and_exists_rec(f0, g0, ctail);
            if lo.is_true() {
                // Early termination: the disjunction is already TRUE.
                Bdd::TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, ctail);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, c2);
            let hi = self.and_exists_rec(f1, g1, c2);
            self.mk(top, lo, hi)
        };
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.and_exists_insert(a, b, c, r);
        r
    }

    /// Cube substitution `(f|before) ∧ after`: restricts `f` by the
    /// literals of `before` and re-imposes those of `after` in one
    /// memoised pass — a transition firing's image in the paper's
    /// Section 4 algebra (`before` selects the enabled states, `after`
    /// states what holds once the transition fired).
    ///
    /// `before` and `after` must be cubes over the *same* variables.
    /// Then `∃ vars(before) . (f ∧ before)` is exactly the cofactor
    /// `f|before`, and the result equals
    /// `and(and_exists(f, before, vars(before)), after)` without building
    /// the intermediate product: above the cubes' top variable the
    /// recursion keeps `f`'s shape, and at each cube variable it follows
    /// `before`'s branch of `f` and emits `after`'s literal as a single
    /// node.
    ///
    /// # Examples
    ///
    /// ```
    /// use stgcheck_bdd::{BddManager, Literal};
    /// let mut m = BddManager::new();
    /// let x = m.new_var("x");
    /// let y = m.new_var("y");
    /// let (vx, vy) = (m.var(x), m.var(y));
    /// let f = m.and(vx, vy);
    /// let before = m.cube(&[Literal::positive(x)]);
    /// let after = m.cube(&[Literal::negative(x)]);
    /// // Firing x− (x = 1 before, x = 0 after) from x∧y lands in ¬x∧y.
    /// let nx = m.nvar(x);
    /// assert_eq!(m.substitute_cube(f, before, after), m.and(nx, vy));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `before` and `after` are not cubes
    /// over one variable set.
    pub fn substitute_cube(&self, f: Bdd, before: Bdd, after: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.same_cube_support(before, after));
        self.substitute_rec(f, before, after)
    }

    /// `true` when `before` and `after` are cubes over one variable set.
    fn same_cube_support(&self, before: Bdd, after: Bdd) -> bool {
        self.is_cube(before) && self.is_cube(after) && self.support(before) == self.support(after)
    }

    fn substitute_rec(&self, f: Bdd, before: Bdd, after: Bdd) -> Bdd {
        if f.is_false() || before.is_true() {
            return f;
        }
        if f.is_true() {
            return after;
        }
        if let Some(r) = self.caches.substitute_get(f, before, after) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (fl, f0, f1) = self.peek(f);
        let (cl, b0, b1) = self.peek(before);
        let r = if fl < cl {
            // Above the cubes: keep f's branching structure.
            let lo = self.substitute_rec(f0, before, after);
            let hi = self.substitute_rec(f1, before, after);
            self.mk(fl, lo, hi)
        } else {
            // `before`'s top literal picks f's branch (f itself when f
            // skips the variable); `after`'s literal is re-imposed.
            let (_, a0, a1) = self.peek(after);
            let (branch, btail) = match (b0.is_false(), fl == cl) {
                (true, true) => (f1, b1),
                (false, true) => (f0, b0),
                (true, false) => (f, b1),
                (false, false) => (f, b0),
            };
            if a0.is_false() {
                let sub = self.substitute_rec(branch, btail, a1);
                self.mk(cl, Bdd::FALSE, sub)
            } else {
                let sub = self.substitute_rec(branch, btail, a0);
                self.mk(cl, sub, Bdd::FALSE)
            }
        };
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.substitute_insert(f, before, after, r);
        r
    }

    /// Exclusive-mode [`BddManager::cofactor_cube`] — same recursion,
    /// results and memo keys, but nodes and cache entries are written
    /// through the `&mut`-proven plain-store path (see
    /// [`BddManager::and_x`] for the mode contract).
    pub fn cofactor_cube_x(&mut self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.is_cube(c), "cofactor requires a cube");
        let tag = f.is_complemented();
        self.cofactor_rec_x(f.regular(), c).complement_if(tag)
    }

    fn cofactor_rec_x(&mut self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(!f.is_complemented());
        if c.is_true() || f.is_terminal() {
            return f;
        }
        if let Some(r) = self.caches.bin_get(BinOp::CofactorCube, f, c) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (fl, flo, fhi) = self.peek(f);
        let (cl, clo, chi) = self.peek(c);
        let next = if clo.is_false() { chi } else { clo };
        let r = if cl < fl {
            self.cofactor_rec_x(f, next)
        } else if cl == fl {
            let branch = if clo.is_false() { fhi } else { flo };
            let tag = branch.is_complemented();
            self.cofactor_rec_x(branch.regular(), next).complement_if(tag)
        } else {
            let hi_tag = fhi.is_complemented();
            let lo = self.cofactor_rec_x(flo, c);
            let hi = self.cofactor_rec_x(fhi.regular(), c).complement_if(hi_tag);
            self.mk_x(fl, lo, hi)
        };
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.bin_insert_mut(BinOp::CofactorCube, f, c, r);
        r
    }

    /// Exclusive-mode [`BddManager::exists`] — see [`BddManager::and_x`]
    /// for the mode contract.
    pub fn exists_x(&mut self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.is_cube(c), "quantification prefix must be a cube");
        self.exists_rec_x(f, c)
    }

    fn exists_rec_x(&mut self, f: Bdd, mut c: Bdd) -> Bdd {
        if f.is_terminal() {
            return f;
        }
        let (fl, flo, fhi) = self.peek(f);
        let (cl, ctail) = loop {
            let (cl, tail) = self.cube_peek(c);
            if cl >= fl {
                break (cl, tail);
            }
            c = tail;
        };
        if c.is_true() {
            return f;
        }
        if let Some(r) = self.caches.bin_get(BinOp::Exists, f, c) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let r = if cl == fl {
            let lo = self.exists_rec_x(flo, ctail);
            if lo.is_true() {
                Bdd::TRUE
            } else {
                let hi = self.exists_rec_x(fhi, ctail);
                self.or_x(lo, hi)
            }
        } else {
            let lo = self.exists_rec_x(flo, c);
            let hi = self.exists_rec_x(fhi, c);
            self.mk_x(fl, lo, hi)
        };
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.bin_insert_mut(BinOp::Exists, f, c, r);
        r
    }

    /// Exclusive-mode [`BddManager::forall`].
    pub fn forall_x(&mut self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.is_cube(c), "quantification prefix must be a cube");
        self.exists_rec_x(f.complement(), c).complement()
    }

    /// Exclusive-mode [`BddManager::and_exists`] — see
    /// [`BddManager::and_x`] for the mode contract.
    pub fn and_exists_x(&mut self, f: Bdd, g: Bdd, c: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.is_cube(c), "quantification prefix must be a cube");
        self.and_exists_rec_x(f, g, c)
    }

    fn and_exists_rec_x(&mut self, f: Bdd, g: Bdd, c: Bdd) -> Bdd {
        if f.is_false() || g.is_false() || f == g.complement() {
            return Bdd::FALSE;
        }
        if f.is_true() || f == g {
            return self.exists_rec_x(g, c);
        }
        if g.is_true() {
            return self.exists_rec_x(f, c);
        }
        if c.is_true() {
            return self.and_x(f, g);
        }
        let (a, b) = (f.min(g), f.max(g));
        if let Some(r) = self.caches.and_exists_get(a, b, c) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.peek(f);
        let (lg, ge0, ge1) = self.peek(g);
        let top = lf.min(lg);
        let mut c2 = c;
        let (cl, ctail) = loop {
            let (cl, tail) = self.cube_peek(c2);
            if cl >= top {
                break (cl, tail);
            }
            c2 = tail;
        };
        if c2.is_true() {
            let r = self.and_x(f, g);
            self.caches.and_exists_insert_mut(a, b, c, r);
            return r;
        }
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let r = if cl == top {
            let lo = self.and_exists_rec_x(f0, g0, ctail);
            if lo.is_true() {
                Bdd::TRUE
            } else {
                let hi = self.and_exists_rec_x(f1, g1, ctail);
                self.or_x(lo, hi)
            }
        } else {
            let lo = self.and_exists_rec_x(f0, g0, c2);
            let hi = self.and_exists_rec_x(f1, g1, c2);
            self.mk_x(top, lo, hi)
        };
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.and_exists_insert_mut(a, b, c, r);
        r
    }

    /// Exclusive-mode [`BddManager::substitute_cube`] — same recursion,
    /// results and memo keys (see [`BddManager::and_x`] for the mode
    /// contract).
    pub fn substitute_cube_x(&mut self, f: Bdd, before: Bdd, after: Bdd) -> Bdd {
        debug_assert!(self.inert() || self.same_cube_support(before, after));
        self.substitute_rec_x(f, before, after)
    }

    fn substitute_rec_x(&mut self, f: Bdd, before: Bdd, after: Bdd) -> Bdd {
        if f.is_false() || before.is_true() {
            return f;
        }
        if f.is_true() {
            return after;
        }
        if let Some(r) = self.caches.substitute_get(f, before, after) {
            return r;
        }
        if self.inert() {
            return Bdd::FALSE;
        }
        let (fl, f0, f1) = self.peek(f);
        let (cl, b0, b1) = self.peek(before);
        let r = if fl < cl {
            let lo = self.substitute_rec_x(f0, before, after);
            let hi = self.substitute_rec_x(f1, before, after);
            self.mk_x(fl, lo, hi)
        } else {
            let (_, a0, a1) = self.peek(after);
            let (branch, btail) = match (b0.is_false(), fl == cl) {
                (true, true) => (f1, b1),
                (false, true) => (f0, b0),
                (true, false) => (f, b1),
                (false, false) => (f, b0),
            };
            if a0.is_false() {
                let sub = self.substitute_rec_x(branch, btail, a1);
                self.mk_x(cl, Bdd::FALSE, sub)
            } else {
                let sub = self.substitute_rec_x(branch, btail, a0);
                self.mk_x(cl, sub, Bdd::FALSE)
            }
        };
        if self.inert() {
            return Bdd::FALSE;
        }
        self.caches.substitute_insert_mut(f, before, after, r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup3() -> (BddManager, Var, Var, Var) {
        let mut m = BddManager::new();
        let x = m.new_var("x");
        let y = m.new_var("y");
        let z = m.new_var("z");
        (m, x, y, z)
    }

    #[test]
    fn cube_building_and_decomposition() {
        let (m, x, y, z) = setup3();
        let lits = vec![Literal::positive(x), Literal::negative(y), Literal::positive(z)];
        let c = m.cube(&lits);
        assert!(m.is_cube(c));
        let mut back = m.cube_literals(c);
        back.sort();
        let mut expect = lits.clone();
        expect.sort();
        assert_eq!(back, expect);
    }

    #[test]
    fn contradictory_cube_is_false() {
        let (m, x, _, _) = setup3();
        let c = m.cube(&[Literal::positive(x), Literal::negative(x)]);
        assert!(c.is_false());
        assert!(!m.is_cube(c));
    }

    #[test]
    fn non_cube_detection() {
        let (m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.or(vx, vy);
        assert!(!m.is_cube(f));
        assert!(m.is_cube(m.one()));
        // A complemented cube is generally not a cube.
        let c = m.cube(&[Literal::positive(x), Literal::positive(y)]);
        assert!(m.is_cube(c));
        let nc = m.not(c);
        assert!(!m.is_cube(nc));
    }

    #[test]
    fn restrict_single_literal() {
        let (m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.xor(vx, vy);
        let f_x1 = m.restrict(f, x, true);
        let ny = m.nvar(y);
        assert_eq!(f_x1, ny);
        let f_x0 = m.restrict(f, x, false);
        assert_eq!(f_x0, vy);
    }

    #[test]
    fn cofactor_commutes_with_negation() {
        let (m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let xy = m.and(vx, vy);
        let f = m.or(xy, vz);
        let c = m.cube(&[Literal::positive(x), Literal::negative(z)]);
        let pos = m.cofactor_cube(f, c);
        let nf = m.not(f);
        let neg = m.cofactor_cube(nf, c);
        assert_eq!(neg, m.not(pos));
    }

    #[test]
    fn cofactor_cube_matches_sequential_restrict() {
        let (m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let xy = m.and(vx, vy);
        let f = m.or(xy, vz);
        let c = m.cube(&[Literal::positive(x), Literal::negative(z)]);
        let via_cube = m.cofactor_cube(f, c);
        let step1 = m.restrict(f, x, true);
        let step2 = m.restrict(step1, z, false);
        assert_eq!(via_cube, step2);
        assert_eq!(via_cube, vy); // (1∧y)∨0 = y
    }

    #[test]
    fn exists_removes_variable() {
        let (m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        let cx = m.vars_cube(&[x]);
        let g = m.exists(f, cx);
        assert_eq!(g, vy);
        assert!(m.support(g).iter().all(|&v| v != x));
    }

    #[test]
    fn exists_is_disjunction_of_cofactors() {
        let (m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let t0 = m.and(vx, vy);
        let nz = m.not(vz);
        let t1 = m.xor(vy, nz);
        let f = m.or(t0, t1);
        for v in [x, y, z] {
            let c = m.vars_cube(&[v]);
            let q = m.exists(f, c);
            let f0 = m.restrict(f, v, false);
            let f1 = m.restrict(f, v, true);
            let expected = m.or(f0, f1);
            assert_eq!(q, expected);
        }
    }

    #[test]
    fn forall_is_dual_of_exists() {
        let (m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let t0 = m.or(vx, vy);
        let f = m.and(t0, vz);
        let c = m.vars_cube(&[x, z]);
        let all = m.forall(f, c);
        let nf = m.not(f);
        let ex = m.exists(nf, c);
        let dual = m.not(ex);
        assert_eq!(all, dual);
        // And the Shannon law directly.
        let f0 = m.restrict(f, x, false);
        let f1 = m.restrict(f, x, true);
        let cx = m.vars_cube(&[x]);
        let fa = m.forall(f, cx);
        let expected = m.and(f0, f1);
        assert_eq!(fa, expected);
    }

    #[test]
    fn and_exists_equals_unfused() {
        let (m, x, y, z) = setup3();
        let (vx, vy, vz) = (m.var(x), m.var(y), m.var(z));
        let f = m.or(vx, vy);
        let g = m.xor(vy, vz);
        let c = m.vars_cube(&[y]);
        let fused = m.and_exists(f, g, c);
        let conj = m.and(f, g);
        let unfused = m.exists(conj, c);
        assert_eq!(fused, unfused);
    }

    #[test]
    fn and_exists_of_complements_is_empty() {
        let (m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.or(vx, vy);
        let nf = m.not(f);
        let c = m.vars_cube(&[x]);
        assert!(m.and_exists(f, nf, c).is_false());
    }

    #[test]
    fn quantifying_irrelevant_vars_is_identity() {
        let (m, x, y, z) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        let cz = m.vars_cube(&[z]);
        assert_eq!(m.exists(f, cz), f);
        assert_eq!(m.forall(f, cz), f);
    }

    #[test]
    fn exclusive_quantifiers_return_the_shared_canonical_handles() {
        let mut m = BddManager::new();
        let vars: Vec<Var> = (0..8).map(|i| m.new_var(format!("x{i}"))).collect();
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let t0 = m.and(lits[0], lits[3]);
        let t1 = m.xor(lits[1], lits[5]);
        let f = m.or(t0, t1);
        let t2 = m.and(lits[2], lits[5]);
        let g = m.xor(t2, lits[6]);
        let c = m.vars_cube(&[vars[1], vars[3], vars[5]]);
        let shared_ex = m.exists(f, c);
        assert_eq!(m.exists_x(f, c), shared_ex);
        let excl_fa = m.forall_x(g, c);
        assert_eq!(m.forall(g, c), excl_fa);
        let shared_ae = m.and_exists(f, g, c);
        assert_eq!(m.and_exists_x(f, g, c), shared_ae);
        let excl_cof = m.cofactor_cube_x(f, c);
        assert_eq!(m.cofactor_cube(f, c), excl_cof);
        m.check_invariants();
    }

    /// The cube substitution of either mode returns the same handle and
    /// leaves the same arena behind, whichever mode runs first: two
    /// identically built managers, one starting shared and one starting
    /// exclusive, must agree handle for handle.
    #[test]
    fn exclusive_cube_substitution_agrees_whichever_mode_runs_first() {
        let build = || {
            let mut m = BddManager::new();
            let vars: Vec<Var> = (0..8).map(|i| m.new_var(format!("x{i}"))).collect();
            let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
            let t0 = m.and(lits[0], lits[3]);
            let t1 = m.xor(lits[1], lits[5]);
            let t2 = m.or(t0, t1);
            let f = m.xor(t2, lits[6]);
            let before = m.cube(&[
                Literal::positive(vars[1]),
                Literal::negative(vars[3]),
                Literal::positive(vars[5]),
            ]);
            let after = m.cube(&[
                Literal::negative(vars[1]),
                Literal::positive(vars[3]),
                Literal::positive(vars[5]),
            ]);
            (m, f, before, after)
        };
        let (mut shared_first, f, before, after) = build();
        let (mut exclusive_first, ..) = build();
        let mut results = Vec::new();
        for g in [f, f.complement()] {
            let a = shared_first.substitute_cube(g, before, after);
            let b = exclusive_first.substitute_cube_x(g, before, after);
            assert_eq!(a, b, "first call differs between modes");
            assert_eq!(shared_first.live_nodes(), exclusive_first.live_nodes());
            // The second mode on each manager hits the first one's memo.
            assert_eq!(shared_first.substitute_cube_x(g, before, after), a);
            assert_eq!(exclusive_first.substitute_cube(g, before, after), a);
            assert_eq!(shared_first.live_nodes(), exclusive_first.live_nodes());
            results.push(a);
        }
        // And both equal the unfused image `(∃c. g ∧ before) ∧ after`.
        let m = &shared_first;
        let c = m.vars_cube(&m.support(before));
        for (g, r) in [f, f.complement()].into_iter().zip(results) {
            let moved = m.and_exists(g, before, c);
            assert_eq!(m.and(moved, after), r);
        }
        shared_first.check_invariants();
        exclusive_first.check_invariants();
    }

    #[test]
    fn exists_over_whole_support_gives_constant() {
        let (m, x, y, _) = setup3();
        let (vx, vy) = (m.var(x), m.var(y));
        let f = m.and(vx, vy);
        let c = m.vars_cube(&[x, y]);
        assert!(m.exists(f, c).is_true());
        assert!(m.forall(f, c).is_false());
        let zero = m.zero();
        assert!(m.exists(zero, c).is_false());
    }
}
