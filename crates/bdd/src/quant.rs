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
//!
//! The recursions are written once in [`crate::Access`]; the `&self`
//! methods here are their shared-mode spelling.

use crate::access::Access;
use crate::manager::BddManager;
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
    pub(crate) fn cube_peek(&self, c: Bdd) -> (crate::node::Level, Bdd) {
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
        Access::cofactor_cube(&mut { self }, f, c)
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
        Access::exists(&mut { self }, f, c)
    }

    /// Universal abstraction `∀ vars(c) . f`, as the free complement dual
    /// `¬∃ vars(c) . ¬f` — no recursion or cache of its own.
    pub fn forall(&self, f: Bdd, c: Bdd) -> Bdd {
        self.exists(f.complement(), c).complement()
    }

    /// Fused relational product `∃ vars(c) . (f ∧ g)`.
    ///
    /// Avoids materialising the intermediate conjunction, which is the
    /// classic optimisation for image computations.
    pub fn and_exists(&self, f: Bdd, g: Bdd, c: Bdd) -> Bdd {
        Access::and_exists(&mut { self }, f, g, c)
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
        Access::substitute_cube(&mut { self }, f, before, after)
    }

    /// `true` when `before` and `after` are cubes over one variable set.
    pub(crate) fn same_cube_support(&self, before: Bdd, after: Bdd) -> bool {
        self.is_cube(before) && self.is_cube(after) && self.support(before) == self.support(after)
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
