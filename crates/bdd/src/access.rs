//! Shared and exclusive access to a manager: the one seam between each
//! recursive BDD operation and the way it publishes nodes and memo
//! entries. The mode contract is documented on [`Access`].

use std::sync::atomic::Ordering;

use crate::budget::ResourceError;
use crate::manager::{BddManager, BinOp};
use crate::node::{Bdd, Level, Node, Var};

pub(crate) mod raw {
    use super::*;

    /// The per-mode primitives under [`Access`]. Sealed: it lives in a
    /// private module, so [`Access`] has exactly the two implementations
    /// below.
    pub trait Raw: Sized {
        /// The manager itself: node reads, cache probes, budget state.
        fn mgr(&self) -> &BddManager;

        /// The stored node `(level, lo, hi)` (`lo` regular), found in or
        /// added to its level's unique-table shard, and whether it was
        /// added. `None` when no slot is left.
        fn intern(&mut self, level: Level, lo: Bdd, hi: Bdd) -> Option<(Bdd, bool)>;

        /// Claims a node slot: recycled from the free list when the last
        /// GC left any, freshly allocated otherwise (the `arena-alloc`
        /// failpoint site). `None` when the arena is exhausted. A
        /// recycled slot is recorded as *young*: it is about to hold a
        /// node allocated after the generational watermark, so the next
        /// minor collection must mark and sweep it.
        fn claim_slot(&mut self) -> Option<u32>;

        /// Counts one new live node (and the peak); returns the live count.
        fn count_node(&mut self) -> usize;

        /// Publishes a binary-op memo entry.
        fn bin_insert(&mut self, op: BinOp, f: Bdd, g: Bdd, r: Bdd);

        /// Publishes an `ite` memo entry.
        fn ite_insert(&mut self, f: Bdd, g: Bdd, h: Bdd, r: Bdd);

        /// Publishes an `and_exists` memo entry.
        fn and_exists_insert(&mut self, f: Bdd, g: Bdd, c: Bdd, r: Bdd);

        /// Publishes a `substitute_cube` memo entry.
        fn substitute_insert(&mut self, f: Bdd, before: Bdd, after: Bdd, r: Bdd);
    }
}

use raw::Raw;

impl Raw for &BddManager {
    #[inline]
    fn mgr(&self) -> &BddManager {
        self
    }

    #[inline]
    fn intern(&mut self, level: Level, lo: Bdd, hi: Bdd) -> Option<(Bdd, bool)> {
        // A copy of the manager reference, so the shard guard borrows the
        // manager and not `self`, which the slot claim needs.
        let m = *self;
        // Lookup and insert under one shard lock, so threads racing on
        // one function converge on one slot.
        let mut table = m.subtables[level as usize].lock().expect("unique-table shard");
        if let Some(&found) = table.get(&(lo, hi)) {
            return Some((found, false));
        }
        let slot = self.claim_slot()?;
        // Publish order: node data first, then the table entry. The
        // mutex release (and any later release-store of the handle)
        // carries the data to every reader.
        m.nodes.set(slot as usize, Node { level, lo, hi });
        let id = Bdd::from_slot(slot);
        table.insert((lo, hi), id);
        Some((id, true))
    }

    fn claim_slot(&mut self) -> Option<u32> {
        if self.free_hint.load(Ordering::Relaxed) > 0 {
            let mut free = self.free.lock().expect("free list");
            if let Some(slot) = free.pop() {
                self.free_hint.store(free.len(), Ordering::Relaxed);
                drop(free);
                self.young_recycled.lock().expect("young-recycled list").push(slot);
                return Some(slot);
            }
        }
        self.nodes.alloc()
    }

    #[inline]
    fn count_node(&mut self) -> usize {
        let cur = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        if cur > self.peak_live.load(Ordering::Relaxed) {
            self.peak_live.fetch_max(cur, Ordering::Relaxed);
        }
        cur
    }

    #[inline]
    fn bin_insert(&mut self, op: BinOp, f: Bdd, g: Bdd, r: Bdd) {
        self.caches.bin.insert(crate::cache::bin_key(op, f, g), r);
    }

    #[inline]
    fn ite_insert(&mut self, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        self.caches.ite.insert(f.0, g.0, h.0, r);
    }

    #[inline]
    fn and_exists_insert(&mut self, f: Bdd, g: Bdd, c: Bdd, r: Bdd) {
        self.caches.and_exists.insert(f.0, g.0, c.0, r);
    }

    #[inline]
    fn substitute_insert(&mut self, f: Bdd, before: Bdd, after: Bdd, r: Bdd) {
        self.caches.substitute.insert(f.0, before.0, after.0, r);
    }
}

impl Raw for BddManager {
    #[inline]
    fn mgr(&self) -> &BddManager {
        self
    }

    #[inline]
    fn intern(&mut self, level: Level, lo: Bdd, hi: Bdd) -> Option<(Bdd, bool)> {
        let table = self.subtables[level as usize].get_mut().expect("unique-table shard");
        if let Some(&found) = table.get(&(lo, hi)) {
            return Some((found, false));
        }
        let slot = self.claim_slot()?;
        self.nodes.set(slot as usize, Node { level, lo, hi });
        let id = Bdd::from_slot(slot);
        self.subtables[level as usize].get_mut().expect("unique-table shard").insert((lo, hi), id);
        Some((id, true))
    }

    fn claim_slot(&mut self) -> Option<u32> {
        let free = self.free.get_mut().expect("free list");
        match free.pop() {
            Some(slot) => {
                *self.free_hint.get_mut() = free.len();
                self.young_recycled.get_mut().expect("young-recycled list").push(slot);
                Some(slot)
            }
            None => self.nodes.alloc_mut(),
        }
    }

    #[inline]
    fn count_node(&mut self) -> usize {
        let live = *self.live.get_mut() + 1;
        *self.live.get_mut() = live;
        if live > *self.peak_live.get_mut() {
            *self.peak_live.get_mut() = live;
        }
        live
    }

    #[inline]
    fn bin_insert(&mut self, op: BinOp, f: Bdd, g: Bdd, r: Bdd) {
        self.caches.bin.insert_mut(crate::cache::bin_key(op, f, g), r);
    }

    #[inline]
    fn ite_insert(&mut self, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        self.caches.ite.insert_mut(f.0, g.0, h.0, r);
    }

    #[inline]
    fn and_exists_insert(&mut self, f: Bdd, g: Bdd, c: Bdd, r: Bdd) {
        self.caches.and_exists.insert_mut(f.0, g.0, c.0, r);
    }

    #[inline]
    fn substitute_insert(&mut self, f: Bdd, before: Bdd, after: Bdd, r: Bdd) {
        self.caches.substitute.insert_mut(f.0, before.0, after.0, r);
    }
}

/// A manager held for BDD operations: `&BddManager` (shared) or
/// `&mut BddManager` (exclusive).
///
/// Every recursive operation — `and`, `xor`, `ite`, the cube cofactor,
/// `∃`, the relational product, the cube substitution — and the
/// hash-consing constructor behind them are written once, generic over
/// this trait, and instantiated twice:
///
/// * **shared** (`&BddManager`): unique-table shards are locked, memo
///   entries are published with release stores (and a CAS claim for the
///   ternary tables), and the live/peak counters are atomic
///   read-modify-writes, so any number of threads may run operations on
///   one manager at once;
/// * **exclusive** (`&mut BddManager`): the borrow proves that no other
///   thread can touch the manager, so shards are reached through
///   `Mutex::get_mut`, memo entries are plain stores and the counters
///   plain integers. Monomorphisation keeps this instantiation free of
///   atomic read-modify-writes.
///
/// Both instantiations run the same recursion in the same order,
/// hash-cons into the same unique table and write the same memo-entry
/// layout, so they return identical handles, allocate identical slots
/// and may be interleaved on one manager freely. Cache probes and node
/// reads go through `&BddManager` in both modes (an acquire load is a
/// plain load on the architectures this runs on).
///
/// The mode follows from the borrow. The `&self` methods of
/// [`BddManager`] (`m.and(f, g)`) run shared; with this trait in scope,
/// the same call on a `&mut BddManager` runs exclusive, and generic code
/// (`fn step<A: Access>(m: &mut A, …)`) takes either. Sealed: these are
/// the only two implementations.
///
/// Budget contract, both modes: once the installed [`crate::Budget`] has
/// tripped, every recursion answers [`Bdd::FALSE`] without memoising, and
/// a frame whose children may have been computed under a trip never
/// publishes its result.
///
/// # Examples
///
/// ```
/// use stgcheck_bdd::{Access, Bdd, BddManager};
///
/// // One body, either mode.
/// fn majority<A: Access>(m: &mut A, x: Bdd, y: Bdd, z: Bdd) -> Bdd {
///     let both = m.and(y, z);
///     let either = m.or(y, z);
///     m.ite(x, either, both)
/// }
///
/// let mut m = BddManager::new();
/// let v = m.new_vars("v", 3);
/// let (x, y, z) = (m.var(v[0]), m.var(v[1]), m.var(v[2]));
/// let shared = majority(&mut &m, x, y, z);
/// let exclusive = majority(&mut m, x, y, z);
/// assert_eq!(shared, exclusive);
/// assert_eq!(m.sat_count(shared), 4);
/// ```
pub trait Access: Raw {
    /// The function of the single positive literal `v`
    /// ([`BddManager::var`]).
    fn var(&mut self, v: Var) -> Bdd {
        let level = self.mgr().level_of_var[v.index()];
        mk(self, level, Bdd::FALSE, Bdd::TRUE)
    }

    /// The function of the single negative literal `¬v`
    /// ([`BddManager::nvar`]).
    fn nvar(&mut self, v: Var) -> Bdd {
        let level = self.mgr().level_of_var[v.index()];
        mk(self, level, Bdd::TRUE, Bdd::FALSE)
    }

    /// Conjunction `f ∧ g` ([`BddManager::and`]).
    fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
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
        if let Some(r) = self.mgr().caches.bin_get(BinOp::And, a, b) {
            return r;
        }
        if self.mgr().inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.mgr().peek(f);
        let (lg, ge0, ge1) = self.mgr().peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let lo = self.and(f0, g0);
        let hi = self.and(f1, g1);
        let r = mk(self, top, lo, hi);
        // A trip below this frame means `lo`/`hi` may be inert garbage:
        // never publish such a result to the memo table.
        if self.mgr().inert() {
            return Bdd::FALSE;
        }
        self.bin_insert(BinOp::And, a, b, r);
        r
    }

    /// Disjunction `f ∨ g = ¬(¬f ∧ ¬g)` ([`BddManager::or`]).
    fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f.complement(), g.complement()).complement()
    }

    /// Set difference `f ∧ ¬g` ([`BddManager::diff`]).
    fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.and(f, g.complement())
    }

    /// Exclusive or `f ⊕ g` ([`BddManager::xor`]).
    fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        // ¬f ⊕ g = f ⊕ ¬g = ¬(f ⊕ g): key the cache on regular operands
        // and re-apply the tag parity to the result.
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
        if let Some(r) = self.mgr().caches.bin_get(BinOp::Xor, a, b) {
            return r.complement_if(parity);
        }
        if self.mgr().inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.mgr().peek(f);
        let (lg, ge0, ge1) = self.mgr().peek(g);
        let top = lf.min(lg);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let lo = self.xor(f0, g0);
        let hi = self.xor(f1, g1);
        let r = mk(self, top, lo, hi);
        if self.mgr().inert() {
            return Bdd::FALSE;
        }
        self.bin_insert(BinOp::Xor, a, b, r);
        r.complement_if(parity)
    }

    /// If-then-else `(f ∧ g) ∨ (¬f ∧ h)` ([`BddManager::ite`]).
    fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
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
            return self.xor(f, g).complement();
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
        if let Some(r) = self.mgr().caches.ite_get(f, g, h) {
            return r.complement_if(flip);
        }
        if self.mgr().inert() {
            return Bdd::FALSE;
        }
        let (lf, fe0, fe1) = self.mgr().peek(f);
        let (lg, ge0, ge1) = self.mgr().peek(g);
        let (lh, he0, he1) = self.mgr().peek(h);
        let top = lf.min(lg).min(lh);
        let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
        let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
        let (h0, h1) = if lh == top { (he0, he1) } else { (h, h) };
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = mk(self, top, lo, hi);
        if self.mgr().inert() {
            return Bdd::FALSE;
        }
        self.ite_insert(f, g, h, r);
        r.complement_if(flip)
    }

    /// Generalised cofactor `f_c` by a cube `c`
    /// ([`BddManager::cofactor_cube`]).
    fn cofactor_cube(&mut self, f: Bdd, c: Bdd) -> Bdd {
        // A tripped manager may be handed garbage built by inert ops; the
        // recursion bails out inert before touching it.
        debug_assert!(self.mgr().inert() || self.mgr().is_cube(c), "cofactor requires a cube");
        // `(¬f)_c = ¬(f_c)`: one memo entry, keyed on the regular `f`.
        let tag = f.is_complemented();
        cofactor_rec(self, f.regular(), c).complement_if(tag)
    }

    /// Existential abstraction `∃ vars(c) . f` ([`BddManager::exists`]).
    fn exists(&mut self, f: Bdd, c: Bdd) -> Bdd {
        debug_assert!(
            self.mgr().inert() || self.mgr().is_cube(c),
            "quantification prefix must be a cube"
        );
        exists_rec(self, f, c)
    }

    /// Universal abstraction `∀ vars(c) . f = ¬∃ vars(c) . ¬f`
    /// ([`BddManager::forall`]).
    fn forall(&mut self, f: Bdd, c: Bdd) -> Bdd {
        self.exists(f.complement(), c).complement()
    }

    /// Fused relational product `∃ vars(c) . (f ∧ g)`
    /// ([`BddManager::and_exists`]).
    fn and_exists(&mut self, f: Bdd, g: Bdd, c: Bdd) -> Bdd {
        debug_assert!(
            self.mgr().inert() || self.mgr().is_cube(c),
            "quantification prefix must be a cube"
        );
        and_exists_rec(self, f, g, c)
    }

    /// Cube substitution `(f|before) ∧ after`
    /// ([`BddManager::substitute_cube`]).
    fn substitute_cube(&mut self, f: Bdd, before: Bdd, after: Bdd) -> Bdd {
        debug_assert!(self.mgr().inert() || self.mgr().same_cube_support(before, after));
        substitute_rec(self, f, before, after)
    }
}

impl Access for &BddManager {}

impl Access for BddManager {}

/// Hash-consing constructor — the only way nodes are created.
///
/// Canonicalizes to the complement-edge normal form: when the requested
/// `lo` edge is complemented, the *negated* node is stored (`¬lo`, `¬hi`
/// — with `¬lo` regular) and the complemented handle is returned, so
/// `FALSE` never appears as a stored else edge and every function has
/// exactly one representation.
///
/// When the arena is exhausted this trips the installed budget and
/// returns [`Bdd::FALSE`] — a valid handle — without publishing anything;
/// the enclosing operations observe the trip, stop memoising and unwind
/// inertly.
pub(crate) fn mk<A: Raw>(m: &mut A, level: Level, lo: Bdd, hi: Bdd) -> Bdd {
    debug_assert!(!m.mgr().node(lo).is_dead() && !m.mgr().node(hi).is_dead());
    debug_assert!(m.mgr().level(lo) > level && m.mgr().level(hi) > level);
    if lo == hi {
        return lo;
    }
    // Complement-edge canonicalization: store the regular-lo form.
    let flip = lo.is_complemented();
    let (lo, hi) = if flip { (lo.complement(), hi.complement()) } else { (lo, hi) };
    let Some((id, created)) = m.intern(level, lo, hi) else {
        m.mgr().budget.trip(ResourceError::ArenaExhausted);
        return Bdd::FALSE;
    };
    if created {
        let live = m.count_node();
        if m.mgr().budget_limited {
            // The node itself stays valid either way; a trip here merely
            // makes the *next* recursion steps bail out inertly.
            m.mgr().budget.note_alloc(live);
        }
    }
    id.complement_if(flip)
}

/// Recursive cube cofactor over a *regular* `f`.
fn cofactor_rec<A: Access>(m: &mut A, f: Bdd, c: Bdd) -> Bdd {
    debug_assert!(!f.is_complemented());
    if c.is_true() || f.is_terminal() {
        return f;
    }
    if let Some(r) = m.mgr().caches.bin_get(BinOp::CofactorCube, f, c) {
        return r;
    }
    if m.mgr().inert() {
        return Bdd::FALSE;
    }
    let (fl, flo, fhi) = m.mgr().peek(f);
    let (cl, clo, chi) = m.mgr().peek(c);
    // `c` is a cube: its tail is whichever child is not FALSE, and `clo`
    // doubles as the polarity of the top literal.
    let next = if clo.is_false() { chi } else { clo };
    let r = if cl < fl {
        // `f` does not depend on the cube's top variable: skip it.
        cofactor_rec(m, f, next)
    } else if cl == fl {
        let branch = if clo.is_false() { fhi } else { flo };
        let tag = branch.is_complemented();
        cofactor_rec(m, branch.regular(), next).complement_if(tag)
    } else {
        let hi_tag = fhi.is_complemented();
        let lo = cofactor_rec(m, flo, c);
        let hi = cofactor_rec(m, fhi.regular(), c).complement_if(hi_tag);
        mk(m, fl, lo, hi)
    };
    // Budget trip below this frame → sub-results may be inert garbage:
    // never publish them to the memo table.
    if m.mgr().inert() {
        return Bdd::FALSE;
    }
    m.bin_insert(BinOp::CofactorCube, f, c, r);
    r
}

fn exists_rec<A: Access>(m: &mut A, f: Bdd, mut c: Bdd) -> Bdd {
    if f.is_terminal() {
        return f;
    }
    let (fl, flo, fhi) = m.mgr().peek(f);
    // Skip cube variables above the root of f.
    let (cl, ctail) = loop {
        let (cl, tail) = m.mgr().cube_peek(c);
        if cl >= fl {
            break (cl, tail);
        }
        c = tail;
    };
    if c.is_true() {
        return f;
    }
    if let Some(r) = m.mgr().caches.bin_get(BinOp::Exists, f, c) {
        return r;
    }
    if m.mgr().inert() {
        return Bdd::FALSE;
    }
    let r = if cl == fl {
        let lo = exists_rec(m, flo, ctail);
        if lo.is_true() {
            // Early termination: the disjunction is already TRUE.
            Bdd::TRUE
        } else {
            let hi = exists_rec(m, fhi, ctail);
            m.or(lo, hi)
        }
    } else {
        let lo = exists_rec(m, flo, c);
        let hi = exists_rec(m, fhi, c);
        mk(m, fl, lo, hi)
    };
    if m.mgr().inert() {
        return Bdd::FALSE;
    }
    m.bin_insert(BinOp::Exists, f, c, r);
    r
}

fn and_exists_rec<A: Access>(m: &mut A, f: Bdd, g: Bdd, c: Bdd) -> Bdd {
    if f.is_false() || g.is_false() || f == g.complement() {
        return Bdd::FALSE;
    }
    if f.is_true() || f == g {
        return exists_rec(m, g, c);
    }
    if g.is_true() {
        return exists_rec(m, f, c);
    }
    if c.is_true() {
        return m.and(f, g);
    }
    let (a, b) = (f.min(g), f.max(g));
    if let Some(r) = m.mgr().caches.and_exists_get(a, b, c) {
        return r;
    }
    if m.mgr().inert() {
        return Bdd::FALSE;
    }
    let (lf, fe0, fe1) = m.mgr().peek(f);
    let (lg, ge0, ge1) = m.mgr().peek(g);
    let top = lf.min(lg);
    // Skip cube variables above both operands.
    let mut c2 = c;
    let (cl, ctail) = loop {
        let (cl, tail) = m.mgr().cube_peek(c2);
        if cl >= top {
            break (cl, tail);
        }
        c2 = tail;
    };
    if c2.is_true() {
        let r = m.and(f, g);
        m.and_exists_insert(a, b, c, r);
        return r;
    }
    let (f0, f1) = if lf == top { (fe0, fe1) } else { (f, f) };
    let (g0, g1) = if lg == top { (ge0, ge1) } else { (g, g) };
    let r = if cl == top {
        let lo = and_exists_rec(m, f0, g0, ctail);
        if lo.is_true() {
            // Early termination: the disjunction is already TRUE.
            Bdd::TRUE
        } else {
            let hi = and_exists_rec(m, f1, g1, ctail);
            m.or(lo, hi)
        }
    } else {
        let lo = and_exists_rec(m, f0, g0, c2);
        let hi = and_exists_rec(m, f1, g1, c2);
        mk(m, top, lo, hi)
    };
    if m.mgr().inert() {
        return Bdd::FALSE;
    }
    m.and_exists_insert(a, b, c, r);
    r
}

fn substitute_rec<A: Access>(m: &mut A, f: Bdd, before: Bdd, after: Bdd) -> Bdd {
    if f.is_false() || before.is_true() {
        return f;
    }
    if f.is_true() {
        return after;
    }
    if let Some(r) = m.mgr().caches.substitute_get(f, before, after) {
        return r;
    }
    if m.mgr().inert() {
        return Bdd::FALSE;
    }
    let (fl, f0, f1) = m.mgr().peek(f);
    let (cl, b0, b1) = m.mgr().peek(before);
    let r = if fl < cl {
        // Above the cubes: keep f's branching structure.
        let lo = substitute_rec(m, f0, before, after);
        let hi = substitute_rec(m, f1, before, after);
        mk(m, fl, lo, hi)
    } else {
        // `before`'s top literal picks f's branch (f itself when f skips
        // the variable); `after`'s literal is re-imposed.
        let (_, a0, a1) = m.mgr().peek(after);
        let (branch, btail) = match (b0.is_false(), fl == cl) {
            (true, true) => (f1, b1),
            (false, true) => (f0, b0),
            (true, false) => (f, b1),
            (false, false) => (f, b0),
        };
        if a0.is_false() {
            let sub = substitute_rec(m, branch, btail, a1);
            mk(m, cl, Bdd::FALSE, sub)
        } else {
            let sub = substitute_rec(m, branch, btail, a0);
            mk(m, cl, sub, Bdd::FALSE)
        }
    };
    if m.mgr().inert() {
        return Bdd::FALSE;
    }
    m.substitute_insert(f, before, after, r);
    r
}
