//! Incremental ECO re-analysis: dirty cones and the per-source path cache.
//!
//! After an engineering change order (a gate swap, resize, or net rewire —
//! see `sta_circuits::transforms`), re-enumerating the whole circuit throws
//! away everything the previous run proved about sources whose paths cannot
//! have changed. This module makes the reuse *sound*:
//!
//! 1. **Dirty cone.** For a *delay-only* edit (a resize, or a swap between
//!    cells with the same truth table), vector lists and justification
//!    outcomes are unchanged everywhere — only arc delays through the edited
//!    gate move. A path's timing changes iff it traverses one of the edited
//!    gate's pins, i.e. contains a net in `D0 = ins(G) ∪ {out(G)}`, and a
//!    source can launch such a path iff it lies in the transitive fanin of
//!    `D0`. [`dirty_sources`] computes exactly that set. For a
//!    *function-changing* edit (swap to a different truth table, or a
//!    rewire) the structural rule is unsound — justification and conflict
//!    chains couple sources through side inputs far outside any cone — so
//!    every source is conservatively dirtied and the saving reduces to the
//!    resident compiled state (kernel table, characterization).
//!
//! 2. **Per-source cache.** [`SourceCache`] files the paths of one
//!    global N-worst search — the same search as a cold
//!    [`PathEnumerator::run`] — under their launching primary input, and
//!    records for every slot the *floor* it was searched under: the
//!    search's final shared admission bound. An incremental update
//!    re-searches only the dirty sources (the mask comes in through
//!    [`EnumerationConfig::source_filter`]) with the shared bound seeded
//!    from the clean slots, repairs any clean slot the edit left stale,
//!    and [`SourceCache::splice`] rebuilds the global answer:
//!    concatenate, sort by [`TruePath::canonical_cmp`], truncate to N.
//!
//! **The invariant.** Slot `s` holds the canonical top N of source `s`'s
//! paths whose worst arrival is at least `floor[s]`. Let `w_N` be the
//! N-th worst arrival of the union of all slots (−∞ when the union holds
//! fewer than N paths). The splice is exact when every slot holding
//! fewer than N paths has `floor[s] ≤ w_N`.
//!
//! *Proof.* Take a path `p` of source `s` missing from slot `s`. If the
//! slot is full, its N paths all precede `p` canonically (they are the
//! top N of a set that either contains `p` or lies at or above
//! `floor[s] > w(p)`), so `p` cannot be in the global top N. Otherwise
//! `p` is hidden by the floor: `w(p) < floor[s] ≤ w_N(union) ≤
//! w_N(global)` — the union is a set of real paths — so `p` falls
//! strictly below the global N-th arrival. Hence the union contains the
//! global top N, and sorting it canonically and truncating to N
//! reproduces the cold run byte for byte. In full enumeration every
//! floor is −∞ and every slot is complete.
//!
//! **Why the searches keep it.** Thresholds only rise during a search
//! and pruning and admission are tie-inclusive, so every searched path
//! at or above the final bound `B` reached the sink (see the `parallel`
//! module): the slot invariant holds with `floor = B`, once paths below
//! `B` are dropped. The floor condition needs `B ≤ w_N(union)`:
//!
//! * **Build.** One search over every source, starting at −∞. `B` is a
//!   worker's N-th largest admission (or −∞), and those N paths are all
//!   at or above `B`, so each sits in the union or is displaced from a
//!   full slot by N paths at or above it: `B ≤ w_N`.
//! * **Update, dirty search.** Clean slots hold unchanged, real paths,
//!   so the N-th worst arrival among them is a lower bound on the new
//!   `w_N`; the dirty sources are searched with the shared bound seeded
//!   there, and their floors become the final bound (≤ `w_N` by the
//!   build argument, the seed included).
//! * **Update, repair.** A clean slot keeps its old floor. When the edit
//!   made the top paths faster, `w_N` can fall below it, and a clean
//!   slot holding fewer than N paths then hides paths that now belong
//!   in the answer. Those stale slots are searched once more, seeded at
//!   the current `w_N`. A repaired slot gets back every path of its
//!   source at or above its new floor (up to N), and a floor above the
//!   seed comes with N admitted paths at or above it, so the union still
//!   holds N paths at or above the old `w_N`: `w_N` can only rise, every
//!   other slot's condition survives, and one round is enough.
//!
//! The guarantee requires untruncated searches
//! ([`EnumerationStats::truncated`] false on both sides) — decision and
//! path budgets bite at run-dependent points.

use std::collections::HashMap;

use sta_circuits::GateEdit;
use sta_netlist::{NetId, Netlist};

use crate::enumerate::{EnumerationStats, PathEnumerator};
use crate::path::TruePath;

#[cfg(doc)]
use crate::enumerate::EnumerationConfig;

/// Transitive fanin: every net from which some seed net is structurally
/// reachable (seeds included). Returned as a mask indexed by
/// [`NetId::index`].
pub fn fanin_cone(nl: &Netlist, seeds: &[NetId]) -> Vec<bool> {
    let mut mask = vec![false; nl.num_nets()];
    let mut work: Vec<NetId> = Vec::new();
    for &s in seeds {
        if !mask[s.index()] {
            mask[s.index()] = true;
            work.push(s);
        }
    }
    while let Some(net) = work.pop() {
        if let Some(g) = nl.net(net).driver() {
            for &inp in nl.gate(g).inputs() {
                if !mask[inp.index()] {
                    mask[inp.index()] = true;
                    work.push(inp);
                }
            }
        }
    }
    mask
}

/// Transitive fanout: every net structurally reachable from some seed net
/// (seeds included). Returned as a mask indexed by [`NetId::index`].
pub fn fanout_cone(nl: &Netlist, seeds: &[NetId]) -> Vec<bool> {
    let mut mask = vec![false; nl.num_nets()];
    let mut work: Vec<NetId> = Vec::new();
    for &s in seeds {
        if !mask[s.index()] {
            mask[s.index()] = true;
            work.push(s);
        }
    }
    while let Some(net) = work.pop() {
        for pin in nl.net(net).fanout() {
            let out = nl.gate(pin.gate).output();
            if !mask[out.index()] {
                mask[out.index()] = true;
                work.push(out);
            }
        }
    }
    mask
}

/// The sources whose cached paths an edit may invalidate, as a mask
/// indexed like [`Netlist::inputs`] (the [`EnumerationConfig::source_filter`]
/// convention).
///
/// Delay-only edits (`edit.function_changed == false`) dirty exactly the
/// primary inputs in the transitive fanin of the edited gate's touched
/// nets; function-changing edits dirty every source (see the module
/// documentation for why the structural rule is unsound there).
pub fn dirty_sources(nl: &Netlist, edit: &GateEdit) -> Vec<bool> {
    if edit.function_changed {
        return vec![true; nl.inputs().len()];
    }
    let cone = fanin_cone(nl, &edit.touched);
    nl.inputs().iter().map(|&pi| cone[pi.index()]).collect()
}

/// Per-source top-N path cache backing incremental ECO re-analysis.
///
/// Indexed by primary-input *position* (like [`Netlist::inputs`]); each
/// slot holds that source's canonically ordered worst paths at or above
/// the slot's floor, truncated to the run's `n_worst` (or complete in
/// full-enumeration mode). See the module documentation for the
/// invariant that makes the splice exact.
#[derive(Clone, Debug)]
pub struct SourceCache {
    n_worst: Option<usize>,
    per_source: Vec<Vec<TruePath>>,
    /// The admission bound each slot was last searched under.
    floor: Vec<f64>,
    /// Sources the last update's repair round re-searched.
    repaired: usize,
}

fn pi_positions(nl: &Netlist) -> HashMap<NetId, usize> {
    nl.inputs()
        .iter()
        .enumerate()
        .map(|(i, &pi)| (pi, i))
        .collect()
}

impl SourceCache {
    /// Runs one global enumeration — the same search as a cold
    /// [`PathEnumerator::run`], with the same statistics — and files its
    /// paths per source.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has a
    /// [`EnumerationConfig::source_filter`] (a build must cover all
    /// sources).
    pub fn build(enumr: &PathEnumerator) -> (SourceCache, EnumerationStats) {
        assert!(
            enumr.cfg.source_filter.is_none(),
            "SourceCache::build must enumerate every source"
        );
        let n_sources = enumr.nl.inputs().len();
        let mut cache = SourceCache {
            n_worst: enumr.cfg.n_worst,
            per_source: vec![Vec::new(); n_sources],
            floor: vec![f64::NEG_INFINITY; n_sources],
            repaired: 0,
        };
        let stats = cache.search(enumr, &vec![true; n_sources], f64::NEG_INFINITY);
        (cache, stats)
    }

    /// Re-enumerates the sources selected by the enumerator's
    /// [`EnumerationConfig::source_filter`] (the dirty mask from
    /// [`dirty_sources`]) over the *edited* netlist and replaces their
    /// cached lists, then re-searches any clean slot the edit left stale
    /// (see the module documentation). The returned statistics cover
    /// both searches; [`SourceCache::repaired_sources`] counts the
    /// second. Each search has its own `max_decisions` / `max_paths`
    /// budget, so a truncated update can spend up to twice the caps.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration has a source filter, or when the
    /// enumerator's input count or `n_worst` disagrees with the cache (an
    /// ECO edit never adds or removes primary inputs).
    pub fn update(&mut self, enumr: &PathEnumerator) -> EnumerationStats {
        let filter = enumr
            .cfg
            .source_filter
            .clone()
            .expect("SourceCache::update requires a source filter");
        assert_eq!(
            filter.len(),
            self.per_source.len(),
            "edited netlist changed the primary-input count"
        );
        assert_eq!(
            enumr.cfg.n_worst, self.n_worst,
            "incremental update must keep the cache's n_worst"
        );
        let mut stats = self.search_dirty(enumr, &filter);
        stats.merge(&self.repair(enumr));
        stats
    }

    /// The first half of [`SourceCache::update`]: re-searches the dirty
    /// sources with the shared bound seeded at the N-th worst arrival of
    /// the clean slots.
    fn search_dirty(&mut self, enumr: &PathEnumerator, dirty: &[bool]) -> EnumerationStats {
        let seed = self.nth_arrival(|i| !dirty[i]);
        self.search(enumr, dirty, seed)
    }

    /// The second half of [`SourceCache::update`]: re-searches, seeded at
    /// the splice's N-th worst arrival, every slot that holds fewer than
    /// N paths under a floor above it.
    fn repair(&mut self, enumr: &PathEnumerator) -> EnumerationStats {
        let Some(n) = self.n_worst else {
            return EnumerationStats::default();
        };
        let w_n = self.nth_arrival(|_| true);
        let stale: Vec<bool> = (0..self.per_source.len())
            .map(|i| self.per_source[i].len() < n && self.floor[i] > w_n)
            .collect();
        self.repaired = stale.iter().filter(|&&s| s).count();
        if self.repaired == 0 {
            return EnumerationStats::default();
        }
        self.search(enumr, &stale, w_n)
    }

    /// Clears the slots `mask` selects, searches their sources with the
    /// shared N-worst bound starting at `bound`, and files the paths at
    /// or above the final bound, which becomes the slots' floor.
    fn search(&mut self, enumr: &PathEnumerator, mask: &[bool], bound: f64) -> EnumerationStats {
        for (slot, _) in self.per_source.iter_mut().zip(mask).filter(|(_, &m)| m) {
            slot.clear();
        }
        let pos = pi_positions(enumr.nl);
        let per_source = &mut self.per_source;
        let (stats, floor) = enumr.run_sources(Some(mask), bound, &mut |p| {
            per_source[pos[&p.source]].push(p)
        });
        for i in (0..mask.len()).filter(|&i| mask[i]) {
            self.floor[i] = floor;
            let slot = &mut self.per_source[i];
            slot.retain(|p| p.worst_arrival() >= floor);
            slot.sort_by(TruePath::canonical_cmp);
            if let Some(n) = self.n_worst {
                slot.truncate(n);
            }
        }
        stats
    }

    /// The N-th worst arrival among the paths of the slots `include`
    /// selects (−∞ when they hold fewer than N, or in full enumeration).
    fn nth_arrival(&self, include: impl Fn(usize) -> bool) -> f64 {
        let Some(k) = self.n_worst.and_then(|n| n.checked_sub(1)) else {
            return f64::NEG_INFINITY;
        };
        let mut arrivals: Vec<f64> = (0..self.per_source.len())
            .filter(|&i| include(i))
            .flat_map(|i| self.per_source[i].iter().map(TruePath::worst_arrival))
            .collect();
        if k >= arrivals.len() {
            return f64::NEG_INFINITY;
        }
        *arrivals.select_nth_unstable_by(k, |a, b| b.total_cmp(a)).1
    }

    /// The global answer: all cached lists concatenated, canonically
    /// sorted, and truncated to `n_worst` — byte-identical to a cold
    /// [`PathEnumerator::run`] over the same netlist when neither side
    /// truncated its search (see the module documentation).
    pub fn splice(&self) -> Vec<TruePath> {
        let mut all: Vec<TruePath> = self.per_source.iter().flatten().cloned().collect();
        all.sort_by(TruePath::canonical_cmp);
        if let Some(n) = self.n_worst {
            all.truncate(n);
        }
        all
    }

    /// Number of source slots (the netlist's primary-input count).
    pub fn num_sources(&self) -> usize {
        self.per_source.len()
    }

    /// Total cached paths across all sources.
    pub fn num_cached_paths(&self) -> usize {
        self.per_source.iter().map(Vec::len).sum()
    }

    /// The per-path truncation threshold the cache was built with.
    pub fn n_worst(&self) -> Option<usize> {
        self.n_worst
    }

    /// The cached canonical path list of one source slot (read-only —
    /// the audit layer checks the structural invariants over it).
    pub fn source_paths(&self, i: usize) -> &[TruePath] {
        &self.per_source[i]
    }

    /// The admission bound slot `i` was last searched under: the slot
    /// holds every path of its source at or above it, up to `n_worst`.
    pub fn floor(&self, i: usize) -> f64 {
        self.floor[i]
    }

    /// How many sources the last [`SourceCache::update`]'s repair round
    /// re-searched (0 after a build).
    pub fn repaired_sources(&self) -> usize {
        self.repaired
    }
}

/// Which [`SourceCache`] structural invariant [`corrupt_source_cache`]
/// violates. Each mode maps to one clause of the ECO002 audit in
/// `sta-lint`, mirroring the fault-injector discipline of the netlist
/// and library lint rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheCorruption {
    /// Move a path into another source's slot (source membership).
    Misfile,
    /// Swap two adjacent paths out of canonical order (sort order).
    Unsort,
    /// Duplicate a path past the `n_worst` truncation limit (overfill).
    Overfill,
    /// Raise the floor of a slot holding fewer than `n_worst` paths
    /// above the splice's N-th arrival (stale floor).
    RaiseFloor,
}

/// Fault injector: break exactly one structural invariant of a built
/// cache so the ECO002 audit rule can be pinned to it. Returns `false`
/// (cache untouched) when the cache has no slot shaped so the chosen
/// corruption is observable — e.g. `Unsort` needs a slot with two
/// strictly-ordered paths, `Misfile` needs at least two source slots
/// with one non-empty, `Overfill` a full slot, `RaiseFloor` one that is
/// not full.
pub fn corrupt_source_cache(cache: &mut SourceCache, mode: CacheCorruption) -> bool {
    match mode {
        CacheCorruption::Misfile => {
            if cache.per_source.len() < 2 {
                return false;
            }
            let from = match cache.per_source.iter().position(|s| !s.is_empty()) {
                Some(i) => i,
                None => return false,
            };
            let to = if from == 0 { 1 } else { 0 };
            let path = cache.per_source[from].remove(0);
            cache.per_source[to].insert(0, path);
            true
        }
        CacheCorruption::Unsort => {
            for slot in &mut cache.per_source {
                for i in 0..slot.len().saturating_sub(1) {
                    if TruePath::canonical_cmp(&slot[i], &slot[i + 1]).is_lt() {
                        slot.swap(i, i + 1);
                        return true;
                    }
                }
            }
            false
        }
        CacheCorruption::Overfill => {
            let n = match cache.n_worst {
                Some(n) => n,
                None => return false,
            };
            for slot in &mut cache.per_source {
                if slot.len() == n {
                    let dup = slot[slot.len() - 1].clone();
                    slot.push(dup);
                    return true;
                }
            }
            false
        }
        CacheCorruption::RaiseFloor => {
            let Some(n) = cache.n_worst else {
                return false;
            };
            let Some(i) = cache.per_source.iter().position(|s| s.len() < n) else {
                return false;
            };
            cache.floor[i] = f64::INFINITY;
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::EnumerationConfig;
    use sta_cells::{Corner, Library, Technology};
    use sta_charlib::{characterize_cached, CharConfig, TimingLibrary};
    use sta_circuits::{catalog, resize_gate, rewire_net, swap_gate};
    use std::sync::Arc;

    fn setup() -> (Library, TimingLibrary, Corner) {
        let tech = Technology::n90();
        let lib = Library::standard();
        let tlib = characterize_cached(
            &lib,
            &tech,
            &CharConfig::fast(),
            &std::env::temp_dir().join("sta-eco-test-cache"),
        )
        .unwrap();
        let corner = Corner::nominal(&tech);
        (lib, tlib, corner)
    }

    #[test]
    fn cones_are_transitive_and_include_seeds() {
        let lib = Library::standard();
        let nl = catalog::mapped("c17", &lib).unwrap().unwrap();
        let out = nl.outputs()[0];
        let fi = fanin_cone(&nl, &[out]);
        assert!(fi[out.index()]);
        // Every PO of c17 depends on at least one PI.
        assert!(nl.inputs().iter().any(|&pi| fi[pi.index()]));
        let pi = nl.inputs()[0];
        let fo = fanout_cone(&nl, &[pi]);
        assert!(fo[pi.index()]);
        assert!(nl.outputs().iter().any(|&po| fo[po.index()]));
        // Duality: pi ∈ fanin(out) ⇔ out ∈ fanout(pi).
        for &o in nl.outputs() {
            assert_eq!(fanin_cone(&nl, &[o])[pi.index()], fo[o.index()]);
        }
    }

    #[test]
    fn delay_only_edits_dirty_only_the_fanin_cone() {
        let lib = Library::standard();
        let mut nl = catalog::mapped("c432", &lib).unwrap().unwrap();
        let inst = nl.net_label(nl.gate(sta_netlist::GateId::from_index(0)).output());
        let edit = resize_gate(&mut nl, &lib, &inst).unwrap();
        assert!(!edit.function_changed);
        let dirty = dirty_sources(&nl, &edit);
        let n_dirty = dirty.iter().filter(|&&d| d).count();
        assert!(n_dirty >= 1, "an edited gate has at least one PI above it");
        assert!(
            n_dirty < dirty.len(),
            "a single near-input gate of c432 must not dirty every source"
        );
        // Rewires are function-changing: everything is dirty.
        let inst2 = nl.net_label(nl.gate(sta_netlist::GateId::from_index(1)).output());
        let pi_name = nl.net_label(nl.inputs()[0]);
        let edit2 = rewire_net(&mut nl, &inst2, 0, &pi_name).unwrap();
        assert!(dirty_sources(&nl, &edit2).iter().all(|&d| d));
    }

    /// The build is the cold run's search: same statistics at one
    /// thread, and its splice is the cold answer.
    #[test]
    fn build_runs_the_cold_search() {
        let (lib, tlib, corner) = setup();
        let nl = catalog::mapped("c432", &lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(corner).with_n_worst(10);
        let (cache, built) =
            SourceCache::build(&PathEnumerator::new(&nl, &lib, &tlib, cfg.clone()));
        let (cold, cold_stats) = PathEnumerator::new(&nl, &lib, &tlib, cfg).run();
        assert!(!built.truncated);
        assert_eq!(built, cold_stats);
        assert_eq!(cache.splice(), cold);
    }

    /// An edit that speeds up the top paths of c432 leaves clean slots
    /// whose floors sit above the new N-th arrival: the dirty search
    /// alone splices a wrong answer, and the repair round mends it.
    #[test]
    fn repair_restores_the_cold_answer() {
        let (lib, tlib, corner) = setup();
        let mut nl = catalog::mapped("c432", &lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(corner).with_n_worst(10);
        let resize = |nl: &mut Netlist, idx: usize| {
            let inst = nl.net_label(nl.gate(sta_netlist::GateId::from_index(idx)).output());
            resize_gate(nl, &lib, &inst).unwrap()
        };
        for idx in 0..3 {
            resize(&mut nl, idx);
        }
        let (mut cache, _) =
            SourceCache::build(&PathEnumerator::new(&nl, &lib, &tlib, cfg.clone()));

        let edit = resize(&mut nl, 3);
        let dirty = dirty_sources(&nl, &edit);
        let filtered = cfg.clone().with_source_filter(Arc::new(dirty.clone()));
        let upd = PathEnumerator::new(&nl, &lib, &tlib, filtered);
        let (cold, _) = PathEnumerator::new(&nl, &lib, &tlib, cfg).run();

        assert!(!cache.search_dirty(&upd, &dirty).truncated);
        assert_ne!(cache.splice(), cold, "the dirty search alone must miss");
        assert!(!cache.repair(&upd).truncated);
        assert!(cache.repaired_sources() > 0);
        assert_eq!(cache.splice(), cold);
        for i in 0..cache.num_sources() {
            assert!(cache.source_paths(i).len() == 10 || cache.floor(i) <= cold[9].worst_arrival());
        }
    }

    #[test]
    fn spliced_cache_matches_cold_run_after_resize() {
        let (lib, tlib, corner) = setup();
        let mut nl = catalog::mapped("c17", &lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(corner).with_n_worst(10);

        let enumr = PathEnumerator::new(&nl, &lib, &tlib, cfg.clone());
        let (mut cache, stats) = SourceCache::build(&enumr);
        assert!(!stats.truncated);
        let kernel = enumr.kernel_arc();
        drop(enumr);

        // Splice before any edit already reproduces the cold run.
        let (cold, _) = PathEnumerator::new(&nl, &lib, &tlib, cfg.clone()).run();
        assert_eq!(cache.splice(), cold);

        // Swap one NAND2 for its drive variant and update incrementally.
        let inst = nl.net_label(nl.gate(sta_netlist::GateId::from_index(2)).output());
        let edit = swap_gate(&mut nl, &lib, &inst, "NAND2_X2").unwrap();
        assert!(!edit.function_changed);
        let dirty = dirty_sources(&nl, &edit);
        let filtered = cfg.clone().with_source_filter(Arc::new(dirty));
        let upd = PathEnumerator::with_prebuilt(&nl, &lib, &tlib, filtered, Some(kernel), None);
        let stats = cache.update(&upd);
        assert!(!stats.truncated);

        let (cold_edited, _) = PathEnumerator::new(&nl, &lib, &tlib, cfg).run();
        assert_eq!(cache.splice(), cold_edited);
        assert_ne!(cold, cold_edited, "the resize must actually move delays");
    }
}
