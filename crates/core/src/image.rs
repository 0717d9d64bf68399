//! The symbolic transition function δ and its inverse (Section 4).
//!
//! Forward, for a set of full states `M` and transition `t`:
//!
//! ```text
//! δN(M,t) = ((M_{E(t)} · NPM(t))_{NSM(t)}) · ASM(t)          (markings)
//! δD(M,t) = (δN(M,t))_{a′} · a    if λ(t) = a+               (code update)
//!           (δN(M,t))_{a}  · a′   if λ(t) = a−
//! ```
//!
//! where `f_c` is the generalised cofactor by cube `c`. The cofactor both
//! *selects* the states where the cube holds and *removes* its variables,
//! so the subsequent product re-imposes the post-firing values. The same
//! four steps mirrored give the exact pre-image. Self-loop places work
//! unchanged because the cofactor/product pairs compose correctly.
//!
//! Note the complete absence of next-state variables: this is the paper's
//! key encoding trick, and the ablation benchmarks measure what it buys.

use stgcheck_bdd::{Access, Bdd, Var};
use stgcheck_petri::TransId;
use stgcheck_stg::Polarity;

use crate::encode::{SymbolicStg, TransCubes};
use crate::engine::StepDirection;

/// What δ reads of one transition besides the manager: its four
/// characteristic cubes and, for a labelled transition, the signal
/// variable and edge. Detached from the [`SymbolicStg`] so an engine can
/// apply it while it holds the manager exclusively.
pub(crate) struct Firing {
    cubes: TransCubes,
    code: Option<(Var, Polarity)>,
}

impl Firing {
    /// `δ(M, t)` forward, or its exact inverse backward; on the marking
    /// variables only or on full states. Generic over the manager access
    /// mode, so the shared and the exclusive engines run this one body.
    pub(crate) fn apply<A: Access>(
        &self,
        mgr: &mut A,
        m: Bdd,
        direction: StepDirection,
        marking_only: bool,
    ) -> Bdd {
        let c = &self.cubes;
        // Backward runs the forward cofactor/product steps mirrored.
        let mut steps = [c.enabled, c.no_pred, c.no_succ, c.all_succ];
        if direction == StepDirection::Backward {
            steps.reverse();
        }
        let r = mgr.cofactor_cube(m, steps[0]);
        let r = mgr.and(r, steps[1]);
        let r = mgr.cofactor_cube(r, steps[2]);
        let moved = mgr.and(r, steps[3]);
        let code = if marking_only { None } else { self.code };
        let Some((v, polarity)) = code else { return moved };
        // Forward a+ selects a = 0 and imposes a = 1; backward a+ and
        // forward a− the opposite.
        let high = (polarity == Polarity::Rise) == (direction == StepDirection::Forward);
        let sel = if high { mgr.nvar(v) } else { mgr.var(v) };
        let r = mgr.cofactor_cube(moved, sel);
        let lit = if high { mgr.var(v) } else { mgr.nvar(v) };
        mgr.and(r, lit)
    }
}

impl SymbolicStg<'_> {
    /// The δ of transition `t`, detached from this context.
    pub(crate) fn firing(&self, t: TransId) -> Firing {
        let code = self.stg().label(t).map(|l| (self.signal_var(l.signal), l.polarity));
        Firing { cubes: self.cubes(t).clone(), code }
    }

    /// Forward image on the marking variables only: `δN(M, t)`.
    ///
    /// States where `t` is not enabled contribute nothing; states where a
    /// successor place (other than a self-loop) is already marked are
    /// dropped by the `NSM` cofactor — the safeness check reports those
    /// separately.
    pub fn image_marking(&self, m: Bdd, t: TransId) -> Bdd {
        self.firing(t).apply(&mut self.manager(), m, StepDirection::Forward, true)
    }

    /// Full forward image `δD(M, t)`: marking update plus the signal-code
    /// update for labelled transitions.
    ///
    /// States whose code is inconsistent with the label (e.g. `a+` fired
    /// with `a = 1`) are silently dropped by the code cofactor; the
    /// consistency check detects them before they would matter.
    pub fn image(&self, m: Bdd, t: TransId) -> Bdd {
        self.firing(t).apply(&mut self.manager(), m, StepDirection::Forward, false)
    }

    /// Backward image on the marking variables only: all markings from
    /// which firing `t` lands in `M`.
    pub fn preimage_marking(&self, m: Bdd, t: TransId) -> Bdd {
        self.firing(t).apply(&mut self.manager(), m, StepDirection::Backward, true)
    }

    /// Full backward image: all full states from which firing `t` lands in
    /// `M`.
    pub fn preimage(&self, m: Bdd, t: TransId) -> Bdd {
        self.firing(t).apply(&mut self.manager(), m, StepDirection::Backward, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::VarOrder;
    use stgcheck_stg::{gen, Code, StgBuilder};

    #[test]
    fn image_follows_token_game() {
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let net = stg.net();
        let init = sym.initial_state(Code::ZERO);

        let r1p = net.trans_by_name("r1+").unwrap();
        let next = sym.image(init, r1p);
        assert_eq!(sym.manager().sat_count(next), 1);
        let w = sym.decode_witness(next).unwrap();
        assert_eq!(w.code, "1000"); // r1 rose
        assert!(w.marked_places.contains(&"req1".to_string()));
        assert!(!w.marked_places.contains(&"idle1".to_string()));

        // a1+ is not enabled before r1+: empty image from the initial state.
        let a1p = net.trans_by_name("a1+").unwrap();
        assert!(sym.image(init, a1p).is_false());
    }

    #[test]
    fn image_and_preimage_are_adjoint() {
        // img(S,t) ∩ T ≠ ∅  ⇔  S ∩ pre(T,t) ≠ ∅, here with S,T = whole
        // reachable space slices of the mutex element.
        let stg = gen::mutex_element();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::ZERO);
        let net = stg.net();
        for t in net.transitions() {
            let fwd = sym.image(init, t);
            if fwd.is_false() {
                continue;
            }
            let back = sym.preimage(fwd, t);
            // The pre-image of the image contains the source state.
            let mgr = sym.manager_mut();
            assert!(mgr.is_subset(init, back), "t = {}", net.trans_name(t));
        }
    }

    #[test]
    fn preimage_inverts_image_exactly_on_singletons() {
        let stg = gen::muller_pipeline(3);
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::ZERO);
        let net = stg.net();
        let c0p = net.trans_by_name("c0+").unwrap();
        let next = sym.image(init, c0p);
        assert_eq!(sym.manager().sat_count(next), 1);
        let back = sym.preimage(next, c0p);
        assert_eq!(back, init);
    }

    #[test]
    fn self_loop_place_is_preserved() {
        // Transition with a self-loop on place `l`: the token must remain.
        let mut b = StgBuilder::new("selfloop");
        b.input("x");
        let l = b.place("l", 1);
        let src = b.place("src", 1);
        let dst = b.place("dst", 0);
        b.pt(l, "x+");
        b.tp("x+", l);
        b.pt(src, "x+");
        b.tp("x+", dst);
        b.initial_code_str("0");
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::PlacesThenSignals);
        let init = sym.initial_state(Code::ZERO);
        let xp = stg.net().trans_by_name("x+").unwrap();
        let next = sym.image(init, xp);
        let w = sym.decode_witness(next).unwrap();
        assert!(w.marked_places.contains(&"l".to_string()));
        assert!(w.marked_places.contains(&"dst".to_string()));
        assert!(!w.marked_places.contains(&"src".to_string()));
        // And backward returns exactly the initial state.
        let back = sym.preimage(next, xp);
        assert_eq!(back, init);
    }

    #[test]
    fn inconsistent_firing_is_dropped_by_code_cofactor() {
        // Firing a+ from a state where a=1 yields the empty set.
        let mut b = StgBuilder::new("m");
        b.input("a");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.pt(p, "a+");
        b.tp("a+", q);
        b.initial_code_str("1"); // a already high!
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::from_bit_string("1").unwrap());
        let ap = stg.net().trans_by_name("a+").unwrap();
        assert!(sym.image(init, ap).is_false());
        // The marking-only image ignores codes and does fire.
        assert!(!sym.image_marking(init, ap).is_false());
    }

    #[test]
    fn dummy_transitions_change_no_signal() {
        let mut b = StgBuilder::new("m");
        b.input("a");
        let p = b.place("p", 1);
        let q = b.place("q", 0);
        b.dummy("eps");
        b.pt(p, "eps");
        b.tp("eps", q);
        b.initial_code_str("0");
        let stg = b.build().unwrap();
        let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
        let init = sym.initial_state(Code::ZERO);
        let eps = stg.net().trans_by_name("eps").unwrap();
        let next = sym.image(init, eps);
        let w = sym.decode_witness(next).unwrap();
        assert_eq!(w.code, "0");
        assert_eq!(w.marked_places, vec!["q".to_string()]);
    }

    /// The fused engines' cube substitution is a third formulation of
    /// the same δ: for every transition it must agree with this module's
    /// cofactor/product pipeline — forward and backward, in the shared
    /// and in the exclusive mode.
    #[test]
    fn cube_substitution_matches_cofactor_pipeline() {
        use crate::engine::build_fused_cubes;
        for stg in [gen::mutex_element(), gen::muller_pipeline(4), gen::master_read(2)] {
            let mut sym = SymbolicStg::new(&stg, VarOrder::Interleaved);
            let code = sym.effective_initial_code().unwrap();
            let t = sym.traverse(code, crate::traverse::TraversalStrategy::Chained);
            let transitions: Vec<_> = stg.net().transitions().collect();
            let fused = build_fused_cubes(&mut sym, false, &transitions);
            for (i, &tr) in transitions.iter().enumerate() {
                let (before, after) = (fused[i].before, fused[i].after);
                for (pipeline, select, reimpose) in [
                    (sym.image(t.reached, tr), before, after),
                    (sym.preimage(t.reached, tr), after, before),
                ] {
                    let shared = sym.manager().substitute_cube(t.reached, select, reimpose);
                    assert_eq!(shared, pipeline, "{} t={}", stg.name(), stg.net().trans_name(tr));
                    let exclusive =
                        Access::substitute_cube(sym.manager_mut(), t.reached, select, reimpose);
                    assert_eq!(exclusive, shared, "{} modes disagree", stg.name());
                }
            }
        }
    }
}
