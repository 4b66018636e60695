//! Root-task enumeration over a work-stealing pool — the enumerator's
//! only driver.
//!
//! The search space of the single-pass algorithm shards naturally into
//! **root tasks**: one per (primary input, launch-gate, sensitization
//! vector) triple, i.e. one per first arc out of a source. Each subtree is
//! independent given a private implication engine, so the tasks are
//! distributed over a crossbeam deque pool (global FIFO injector,
//! per-worker FIFO deques, stealing from siblings) and every worker runs
//! the [`Search`] machinery with its own engine and its own justification
//! memo table. `threads = 1` is this pool with one worker, run inline on
//! the calling thread: no spawned thread, no channel, no reorder window —
//! it opens the tasks in order and hands each path straight to the
//! caller's sink.
//!
//! # Deterministic merge
//!
//! Tasks are generated in the order a single-pass DFS over the sources
//! opens them and carry a sequence number. With several workers, each
//! buffers the paths of one task and sends `(seq, paths)` over a channel;
//! the coordinator releases buffers to the caller's sink strictly in
//! sequence order. In full enumeration this makes the `run_with` stream —
//! and therefore the `run` result — byte-identical at any thread count.
//!
//! # Shared pruning bound (N-worst mode)
//!
//! Each worker keeps a local admission threshold (its N-th-largest
//! admitted arrival) and publishes it to an `AtomicU64` holding a
//! total-order encoding of the `f64` bound (monotone `fetch_max`, relaxed
//! ordering — the bound is a pure performance hint and never affects
//! correctness). Soundness: a worker's N-th-largest admitted arrival
//! never exceeds the global N-th-largest `T` (its admissions are a subset
//! of all paths), so the effective threshold `max(local, shared)` is
//! always ≤ `T`; with tie-inclusive admission (`w < threshold` rejects,
//! ties pass) every path with arrival ≥ `T` reaches the sink under any
//! schedule. `run` then sorts by the canonical total order of
//! [`TruePath::canonical_cmp`] and truncates to N — identical output at
//! any thread count, though the *superset* streamed by `run_with` (and
//! the search-effort counters) may differ with the schedule.
//!
//! The bound starts at −∞ for a plain run. The ECO cache searches a
//! subset of the sources with the bound seeded at the N-th worst arrival
//! among paths it already holds — no higher than the N-th worst of the
//! answer it assembles — and reads back the final bound: every searched
//! path at or above it reached the sink (see `sta_core::eco`).
//!
//! # Budgets
//!
//! `max_decisions` / `max_paths` count across the whole run at every
//! thread count. Each worker adds its decisions and admitted paths to a
//! shared [`RunBudget`] at every task boundary, and each budget check
//! compares the worker's not-yet-added count plus the shared total
//! against the cap. With one worker that is a single running count, so a
//! truncated run stops at the same point every time. With W workers a
//! worker sees the others' spending only at their task boundaries, so a
//! truncated run spends at most W × (`max_decisions` +
//! `justify_decision_limit` + 1) decisions and admits at most
//! W × `max_paths` paths, and which paths it found depends on the
//! schedule.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use sta_cells::Library;
use sta_charlib::CompiledCorner;
use sta_logic::{toggle_analysis, Dual, ImplicationEngine, Mask, Toggle};
use sta_netlist::{GateId, NetId, Netlist};

use crate::arrival::ArcBounds;
use crate::enumerate::{
    cell_of, sensitizable_reach, EnumerationConfig, EnumerationStats, PathEnumerator, PolTimings,
    Search,
};
use crate::justify::{JustifyCache, JustifyScratch};
use crate::learn::{ConeScratch, NogoodStore, NogoodView};
use crate::path::{PathArc, TruePath};

/// Total-order encoding of an `f64` into a `u64`: `encode` is strictly
/// monotone over the reals (including infinities), so `fetch_max` on the
/// encoded value implements an atomic floating-point maximum.
pub(crate) fn encode_bound(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverse of [`encode_bound`].
pub(crate) fn decode_bound(e: u64) -> f64 {
    f64::from_bits(if e >> 63 == 1 { e & !(1 << 63) } else { !e })
}

/// The run-wide `max_decisions` / `max_paths` ledger: what every worker
/// had spent as of its last task boundary (see the module docs).
#[derive(Default)]
pub(crate) struct RunBudget {
    pub(crate) decisions: AtomicU64,
    pub(crate) paths: AtomicUsize,
}

/// One shard of the search: the first arc out of a source, identified by
/// its position in the single-pass opening order.
struct RootTask {
    /// Position in opening order — the merge key.
    seq: usize,
    /// Index into the plan list.
    src: usize,
    gate: GateId,
    pin: u8,
    vector: usize,
}

/// Per-source state every task of that source needs, computed once by the
/// coordinator.
struct SrcPlan {
    src: NetId,
    deltas: Vec<Toggle>,
    reach: Vec<bool>,
    /// Toggle-compatible arrival upper bound to any PO, per net
    /// (see [`crate::arrival::tightened_remaining`]); present only when
    /// learning-mode dominance pruning is active.
    tight_rem: Option<Vec<f64>>,
}

/// Read-only context shared by all workers.
struct WorkerCtx<'a> {
    nl: &'a Netlist,
    lib: &'a Library,
    cfg: &'a EnumerationConfig,
    /// Corner-compiled kernel table, folded once by the enumerator and
    /// shared read-only by every worker.
    kernel: &'a CompiledCorner,
    /// Compiled bit-parallel simulation program, built once by the
    /// enumerator; each worker wraps it in its own `BitsimFilter`.
    schedule: Option<&'a sta_logic::Schedule>,
    plans: &'a [SrcPlan],
    remaining: &'a Option<Vec<f64>>,
    fanouts: &'a [f64],
    is_output: &'a [bool],
    injector: &'a Injector<RootTask>,
    shared_bound: &'a AtomicU64,
    budget: &'a RunBudget,
    /// Shared learned-nogood store, cloned into every worker's `Search`
    /// so clauses learned on one worker prune the others. `None` when
    /// `cfg.learning` is off.
    nogoods: Option<Arc<NogoodStore>>,
    /// Per-arc delay upper bounds for dominance pruning, computed once
    /// by the coordinator and shared read-only.
    arc_bounds: Option<Arc<ArcBounds>>,
}

/// Runs the enumeration of `enumr` over `cfg.threads` workers, streaming
/// emitted paths to `sink` in opening order. `sources` selects the
/// primary inputs to search by position (`None`: all of them), and the
/// shared N-worst bound starts at `bound` instead of −∞ — any value at
/// or below the N-th worst arrival of the answer the caller assembles
/// (see `sta_core::eco`). Returns the run's statistics and its final
/// shared bound: every selected path whose worst arrival is at least
/// that bound reached `sink`.
pub(crate) fn run_pool(
    enumr: &PathEnumerator<'_>,
    sources: Option<&[bool]>,
    bound: f64,
    sink: &mut dyn FnMut(TruePath),
) -> (EnumerationStats, f64) {
    let nl = enumr.nl;
    let lib = enumr.lib;
    let is_output = enumr.output_flags();
    let remaining = enumr.prune_bounds();
    let fanouts = enumr.fanouts();
    let arc_bounds = enumr.learn_arc_bounds();
    let nogoods = enumr.cfg.learning.then(|| {
        enumr
            .nogood_store
            .clone()
            .unwrap_or_else(|| Arc::new(NogoodStore::new()))
    });

    // Plan phase: the per-source setup (toggle analysis, sensitizable
    // reach, launch-conflict mask) and the root arcs in opening order.
    let mut plans: Vec<SrcPlan> = Vec::new();
    let mut tasks: Vec<RootTask> = Vec::new();
    let mut eng = ImplicationEngine::new(nl, lib);
    if let Some(f) = sources {
        assert_eq!(
            f.len(),
            nl.inputs().len(),
            "source filter length must match the primary-input count"
        );
    }
    for (pi_pos, &src) in nl.inputs().iter().enumerate() {
        if sources.is_some_and(|f| !f[pi_pos]) {
            continue;
        }
        let deltas = toggle_analysis(nl, lib, src);
        let reach = sensitizable_reach(nl, lib, &deltas, &is_output);
        if !reach[src.index()] {
            continue;
        }
        eng.set_toggles(Some(deltas.clone()));
        let mark = eng.mark();
        let conflicts = eng.assign(src, Dual::transition(false), Mask::BOTH);
        let mask = Mask::BOTH.minus(conflicts);
        eng.rollback(mark);
        eng.set_toggles(None);
        if !mask.any() {
            continue;
        }
        let src_idx = plans.len();
        for pr in nl.net(src).fanout() {
            let out = nl.gate(pr.gate).output();
            if !reach[out.index()] && !is_output[out.index()] {
                continue;
            }
            let cell_id = cell_of(nl, pr.gate);
            let n_vectors = lib.cell(cell_id).vectors_of(pr.pin as u8).len();
            for vector in 0..n_vectors {
                tasks.push(RootTask {
                    seq: tasks.len(),
                    src: src_idx,
                    gate: pr.gate,
                    pin: pr.pin as u8,
                    vector,
                });
            }
        }
        let tight_rem = arc_bounds
            .as_ref()
            .map(|ab| crate::arrival::tightened_remaining(nl, lib, ab, &deltas, &is_output));
        plans.push(SrcPlan {
            src,
            deltas,
            reach,
            tight_rem,
        });
    }
    let n_tasks = tasks.len();
    if n_tasks == 0 {
        return (EnumerationStats::default(), bound);
    }

    let threads = enumr.cfg.threads.clamp(1, n_tasks);
    let injector = Injector::new();
    for t in tasks {
        injector.push(t);
    }
    let mut locals: Vec<Worker<RootTask>> = (0..threads).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<RootTask>> = locals.iter().map(Worker::stealer).collect();
    let shared_bound = AtomicU64::new(encode_bound(bound));
    let budget = RunBudget::default();
    let ctx = WorkerCtx {
        nl,
        lib,
        cfg: &enumr.cfg,
        kernel: &enumr.kernel,
        schedule: enumr.schedule.as_deref(),
        plans: &plans,
        remaining: &remaining,
        fanouts: &fanouts,
        is_output: &is_output,
        injector: &injector,
        shared_bound: &shared_bound,
        budget: &budget,
        nogoods,
        arc_bounds,
    };

    let final_bound = || decode_bound(shared_bound.load(Ordering::Relaxed));
    if threads == 1 {
        let local = locals.pop().expect("one worker");
        let stats = worker_loop(&ctx, local, &stealers, sink, &mut |_| true);
        return (stats, final_bound());
    }

    let (tx, rx) = mpsc::channel::<(usize, Vec<TruePath>)>();
    let result = crossbeam::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for local in locals {
            let tx = tx.clone();
            let ctx = &ctx;
            let stealers = &stealers;
            handles.push(s.spawn(move |_| {
                // The task buffer the Search sink writes into; shipped to
                // the coordinator with the task's sequence number.
                let buf = RefCell::new(Vec::new());
                let mut buffer = |p: TruePath| buf.borrow_mut().push(p);
                let mut ship = |seq: usize| tx.send((seq, buf.take())).is_ok();
                worker_loop(ctx, local, stealers, &mut buffer, &mut ship)
            }));
        }
        drop(tx);

        // Reorder window: release task buffers to the sink strictly in
        // opening (seq) order. The stream ends when every worker is done;
        // a budget stop leaves gaps, released in order after the loop.
        let mut pending: BTreeMap<usize, Vec<TruePath>> = BTreeMap::new();
        let mut next = 0usize;
        for (seq, paths) in rx {
            pending.insert(seq, paths);
            while let Some(batch) = pending.remove(&next) {
                for p in batch {
                    sink(p);
                }
                next += 1;
            }
        }
        for (_, batch) in std::mem::take(&mut pending) {
            for p in batch {
                sink(p);
            }
        }

        let mut total = EnumerationStats::default();
        for h in handles {
            match h.join() {
                Ok(ws) => total.merge(&ws),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        total
    });
    match result {
        Ok(stats) => (stats, final_bound()),
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Claims the next task: own deque first, then a batch from the global
/// injector, then stealing from a sibling. `steals` counts only the
/// sibling-deque case — the work-stealing events proper.
fn next_task(
    local: &Worker<RootTask>,
    injector: &Injector<RootTask>,
    stealers: &[Stealer<RootTask>],
    steals: &sta_obs::Counter,
) -> Option<RootTask> {
    if let Some(t) = local.pop() {
        return Some(t);
    }
    loop {
        match injector.steal_batch_and_pop(local) {
            Steal::Success(t) => return Some(t),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    for s in stealers {
        loop {
            match s.steal() {
                Steal::Success(t) => {
                    steals.inc();
                    return Some(t);
                }
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
}

/// One worker: claims root tasks until the pool is empty or a budget is
/// spent, hands every admitted path to `sink`, and calls `task_done` with
/// the sequence number after each task (`false` stops the worker).
fn worker_loop(
    ctx: &WorkerCtx<'_>,
    local: Worker<RootTask>,
    stealers: &[Stealer<RootTask>],
    sink: &mut dyn FnMut(TruePath),
    task_done: &mut dyn FnMut(usize) -> bool,
) -> EnumerationStats {
    let mut search = Search {
        nl: ctx.nl,
        lib: ctx.lib,
        cfg: ctx.cfg,
        kernel: ctx.kernel,
        eng: ImplicationEngine::new(ctx.nl, ctx.lib),
        remaining: ctx.remaining.clone(),
        fanouts: ctx.fanouts.to_vec(),
        is_output: ctx.is_output.to_vec(),
        reach: Vec::new(),
        obligations: Vec::new(),
        delays_r: Vec::new(),
        delays_f: Vec::new(),
        sink,
        emitted: 0,
        worst_arrivals: Vec::new(),
        threshold: f64::NEG_INFINITY,
        shared_bound: ctx.shared_bound,
        budget: ctx.budget,
        flushed_decisions: 0,
        flushed_paths: 0,
        justify_cache: JustifyCache::new(),
        side_scratch: Vec::new(),
        justify_todo: Vec::new(),
        justify_scratch: JustifyScratch::default(),
        filter: ctx.schedule.map(crate::bitsim::BitsimFilter::new),
        learn_eng: ctx
            .cfg
            .learning
            .then(|| ImplicationEngine::new(ctx.nl, ctx.lib)),
        nogoods: ctx.nogoods.clone(),
        nogood_view: NogoodView::new(),
        cone_scratch: ConeScratch::default(),
        learn_todo: Vec::new(),
        learn_scratch: JustifyScratch::default(),
        arc_bounds: ctx.arc_bounds.clone(),
        tight_rem: None,
        stats: EnumerationStats::default(),
        progress: ctx.cfg.obs.progress(),
        justify_hist: ctx.cfg.obs.histogram("justify.decisions_per_call"),
        path_len_hist: ctx.cfg.obs.histogram("enumerate.path_gates"),
        bound_updates: ctx.cfg.obs.counter("enumerate.bound_updates"),
    };
    // Per-worker scheduling counters; the metric handles are fetched once
    // here and bumped lock-free inside the task loop.
    let steals = ctx.cfg.obs.counter("parallel.steals");
    let tasks_done = ctx.cfg.obs.counter("parallel.tasks");
    let mut current_src: Option<usize> = None;
    let mut mask = Mask::NONE;
    // Path stacks live outside the task loop: one allocation per worker.
    let mut nodes: Vec<NetId> = Vec::new();
    let mut arcs: Vec<PathArc> = Vec::new();
    let launch = PolTimings::launch(ctx.cfg.input_slew);
    while let Some(task) = next_task(&local, ctx.injector, stealers, &steals) {
        if search.budget_exhausted() {
            break;
        }
        tasks_done.inc();
        let plan = &ctx.plans[task.src];
        if current_src != Some(task.src) {
            // Install the per-source state: toggle deltas, the launched
            // transition (whose trail entries persist across this
            // source's tasks — each try_arc rolls back to its own mark),
            // and the reachability map.
            search.eng.reset();
            search.eng.set_toggles(Some(plan.deltas.clone()));
            let conflicts = search
                .eng
                .assign(plan.src, Dual::transition(false), Mask::BOTH);
            mask = Mask::BOTH.minus(conflicts);
            search.reach.clone_from(&plan.reach);
            search.tight_rem.clone_from(&plan.tight_rem);
            search.obligations.clear();
            search.delays_r.clear();
            search.delays_f.clear();
            // The source is the DFS root: it occupies the path stack and
            // faces the N-worst prune check once, before its first arc.
            search.stats.scratch_path_hwm = search.stats.scratch_path_hwm.max(1);
            if mask.any() && search.prunes(plan.src, mask, &launch) {
                search.stats.pruned += 1;
                mask = Mask::NONE;
            }
            current_src = Some(task.src);
        }
        if mask.any() {
            nodes.clear();
            nodes.push(plan.src);
            arcs.clear();
            search.try_arc(
                task.gate,
                task.pin,
                task.vector,
                false,
                mask,
                launch,
                &mut nodes,
                &mut arcs,
            );
        }
        search.flush_budget();
        if !task_done(task.seq) {
            break;
        }
    }
    let mut total = search.stats;
    total.justify_cache_hits = search.justify_cache.hits;
    if let Some(f) = &search.filter {
        total.bitsim_words = f.words;
        total.bitsim_lanes_filtered = f.lanes_filtered;
        total.bitsim_exact_calls_saved = f.exact_calls_saved;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_encoding_round_trips_and_orders() {
        let samples = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            1e-12,
            3.25,
            1e300,
            f64::INFINITY,
        ];
        for &x in &samples {
            assert_eq!(decode_bound(encode_bound(x)).to_bits(), x.to_bits(), "{x}");
        }
        for w in samples.windows(2) {
            assert!(
                encode_bound(w[0]) <= encode_bound(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        // Strictly monotone away from the −0.0/0.0 pair.
        assert!(encode_bound(-2.5) < encode_bound(3.25));
    }

    #[test]
    fn fetch_max_implements_float_max() {
        let bound = AtomicU64::new(encode_bound(f64::NEG_INFINITY));
        for x in [-3.0, 7.5, 2.0, 7.0] {
            bound.fetch_max(encode_bound(x), std::sync::atomic::Ordering::Relaxed);
        }
        let got = decode_bound(bound.load(std::sync::atomic::Ordering::Relaxed));
        assert_eq!(got, 7.5);
    }
}
