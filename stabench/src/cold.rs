//! `cold-nworst`: cold single-scenario N-worst analyses one after another
//! through `AnalysisRequest::run` — the paper's Table 6 use.
//!
//! The timed run repeats passes over c432, c499 and the random-logic
//! netlists. c880 (11–14 s per analysis at two threads) would leave one
//! or two samples per run, so it is analysed by the traced run only, which
//! records its digest check and its search counters.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sta_cells::Edge;
use sta_charlib::TimingLibrary;
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_circuits::{catalog, map_netlist};
use sta_core::{
    arc_bounds_compiled, path_delay_compiled, slack_report, static_bounds_compiled,
    AnalysisRequest, EnumerationConfig, PathEnumerator, TruePath, ARC_SWEEP_MARGIN,
};
use sta_logic::Schedule;
use sta_netlist::Netlist;
use sta_obs::Observer;

use crate::common::{
    certify, insert_self_times, insert_summary, json_nested, json_numbers, json_strings,
    raw_tail_json, recertify, report_us_per_decision, Ctx, Ops, Outcome, SearchTally, DEFAULT_SEED,
    HELD_OUT_SEED,
};
use crate::stats::{median, ItemTimes};
use crate::trace::Tracer;

const N_WORST: usize = 50;
const THREADS: usize = 2;
const SLEW: f64 = 60.0;
/// Catalog circuits of the timed run.
const CATALOG: [&str; 2] = ["c432", "c499"];
/// Catalog circuits of the traced run.
const TRACED_CATALOG: [&str; 3] = ["c432", "c499", "c880"];
/// Random-logic netlists per run, each about 400 mapped gates.
const RANDOM: usize = 2;
/// Repetitions of the set-up; `setup_s` is their median. Set-up takes
/// ~20 ms, so it is repeated often enough for the median to be steady.
const SETUP_REPS: usize = 21;
/// Times each finished result is read (serialized and digested), so each
/// circuit's best read misses a stretch of host contention.
const READS_PER_RESULT: usize = 10;
/// Whole passes every run completes (a pass takes ~5 s); after them the
/// run stops at the first circuit that would start past `--seconds`.
const MIN_PASSES: usize = 2;

/// Certificate digests recorded in advance (every circuit of this
/// workload is seed-independent).
const EXPECTED: &[(&str, &str)] = &[
    ("c432", "fnv1a64:2a4409a4a6784e39"),
    ("c499", "fnv1a64:ba7c0cb9389a7ef1"),
    ("c880", "fnv1a64:bbcf897d1aca7a09"),
];

fn expected(name: &str) -> Option<&'static str> {
    EXPECTED.iter().find(|&&(n, _)| n == name).map(|&(_, d)| d)
}

struct Circuit {
    name: String,
    /// Mapped netlist; random-logic circuits are passed to the request
    /// with `with_netlist`, catalog ones by name.
    netlist: Netlist,
    random: bool,
}

/// The random-logic suite is the same for every seed: analysis cost over
/// generator seeds is heavy-tailed (0.13–6.4 s for 200-gate netlists over
/// twelve seeds), so seed-drawn netlists would swamp any bound. The
/// `--seed` permutes the analysis order of every pass instead.
fn random_params(i: usize) -> RandParams {
    RandParams {
        name: format!("rand{i}"),
        inputs: 36,
        outputs: 24,
        gates: 410,
        seed: i as u64 * 7919 + 3,
        window: 60,
    }
}

/// Library load, netlist generation and mapping: everything before the
/// first request.
fn setup(ctx: &Ctx, catalog_names: &[&str]) -> (Vec<Circuit>, TimingLibrary) {
    let tlib = ctx.load_timing();
    let mut circuits: Vec<Circuit> = catalog_names
        .iter()
        .map(|&name| Circuit {
            name: name.to_string(),
            netlist: catalog::mapped(name, &ctx.lib)
                .expect("catalog circuits map")
                .expect("catalog circuit exists"),
            random: false,
        })
        .collect();
    for i in 0..RANDOM {
        let params = random_params(i);
        let raw = random_logic(&params);
        circuits.push(Circuit {
            name: params.name.clone(),
            netlist: map_netlist(&raw, &ctx.lib).expect("random logic maps"),
            random: true,
        });
    }
    (circuits, tlib)
}

fn request(ctx: &Ctx, c: &Circuit, threads: usize, obs: Observer) -> AnalysisRequest {
    let req = AnalysisRequest::new(&c.name)
        .n_worst(Some(N_WORST))
        .threads(threads)
        .cache_dir(ctx.cache_dir.clone())
        .observer(obs);
    if c.random {
        req.with_netlist(c.netlist.clone())
    } else {
        req
    }
}

/// One analysis: `run()` wall time, then reading its certificates.
struct Analysis {
    run_s: f64,
    read_s: Vec<f64>,
    digest: String,
    paths: Vec<TruePath>,
    stats: sta_core::EnumerationStats,
}

fn analyze(ctx: &Ctx, c: &Circuit, threads: usize, obs: Observer) -> Result<Analysis, String> {
    let req = request(ctx, c, threads, obs);
    let t = Instant::now();
    let outcome = req.run().map_err(|e| e.to_string())?;
    let run_s = t.elapsed().as_secs_f64();
    let mut read_s = Vec::new();
    let mut digest = String::new();
    for _ in 0..READS_PER_RESULT {
        let paths = outcome.paths.clone();
        let t = Instant::now();
        digest = certify(&outcome.netlist, outcome.input_slew, paths).1;
        read_s.push(t.elapsed().as_secs_f64());
    }
    Ok(Analysis {
        run_s,
        read_s,
        digest,
        paths: outcome.paths,
        stats: outcome.stats,
    })
}

/// Checks one analysis result; the first result per circuit is kept as
/// the reference the later passes must reproduce byte for byte.
fn check(
    ops: &mut Ops,
    op: usize,
    circuit: &str,
    digest: &str,
    paths: &[TruePath],
    truncated: bool,
    reference: &mut BTreeMap<String, (String, Vec<TruePath>)>,
) {
    ops.check(op, !truncated, || "search truncated".into());
    if let Some(want) = expected(circuit) {
        ops.check(op, digest == want, || {
            format!("digest {digest} != recorded {want}")
        });
    }
    match reference.get(circuit) {
        Some((d, _)) => ops.check(op, digest == d, || {
            format!("digest {digest} differs from this run's first {d}")
        }),
        None => {
            reference.insert(circuit.to_string(), (digest.to_string(), paths.to_vec()));
        }
    }
}

/// Analyses the circuits once, in `order`, checking every result, and
/// stops before a circuit that would start past `deadline`; returns each
/// successful analysis with its circuit's index.
#[allow(clippy::too_many_arguments)]
fn pass(
    ctx: &Ctx,
    circuits: &[Circuit],
    order: &[usize],
    threads: usize,
    obs: &Observer,
    label: &str,
    ops: &mut Ops,
    reference: &mut BTreeMap<String, (String, Vec<TruePath>)>,
    deadline: Option<Instant>,
) -> Vec<(usize, Analysis)> {
    let mut done = Vec::new();
    for &i in order {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        let c = &circuits[i];
        let op = ops.start(format!("analyze {} {label}", c.name));
        match analyze(ctx, c, threads, obs.clone()) {
            Ok(a) => {
                let truncated = a.stats.truncated;
                check(ops, op, &c.name, &a.digest, &a.paths, truncated, reference);
                done.push((i, a));
            }
            Err(e) => ops.fail(op, e),
        }
    }
    done
}

fn config(ctx: &Ctx, circuits: &[Circuit]) -> String {
    let names: Vec<String> = circuits
        .iter()
        .map(|c| format!("{} ({} gates)", c.name, c.netlist.num_gates()))
        .collect();
    let randoms: Vec<String> = (0..RANDOM)
        .map(|i| format!("{:?}", random_params(i)))
        .collect();
    format!(
        "{{\"circuits\":{},\"random_logic\":{},\"tech\":\"90nm\",\"char_grid\":\"standard\",\"corners\":[\"nominal\"],\"modes\":[\"unconstrained\"],\"n_worst\":{N_WORST},\"threads\":{THREADS},\"batch_threads\":1,\"engine\":{{\"kernels\":true,\"bitsim\":true,\"learning\":true}},\"seed\":{},\"named_seeds\":[{DEFAULT_SEED},{HELD_OUT_SEED}]}}",
        json_strings(&names),
        json_strings(&randoms),
        ctx.args.seed
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.args.trace {
        return run_traced(ctx);
    }
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        state = Some(setup(ctx, &CATALOG));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let (circuits, tlib) = state.expect("at least one set-up");

    let mut ops = Ops::default();
    let mut reference = BTreeMap::new();
    let mut pass_s = Vec::new();
    let mut runs = ItemTimes::new(circuits.len());
    let mut reads = ItemTimes::new(circuits.len());
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds());
    while pass_s.len() < MIN_PASSES || Instant::now() < deadline {
        let mut order: Vec<usize> = (0..circuits.len()).collect();
        ctx.rng(300 + pass_s.len() as u64).shuffle(&mut order);
        let label = format!("pass {}", pass_s.len());
        let off = Observer::disabled();
        let done = pass(
            ctx,
            &circuits,
            &order,
            THREADS,
            &off,
            &label,
            &mut ops,
            &mut reference,
            (pass_s.len() >= MIN_PASSES).then_some(deadline),
        );
        for (i, a) in &done {
            runs.push(*i, a.run_s);
            for &r in &a.read_s {
                reads.push(*i, r);
            }
        }
        if done.len() < circuits.len() {
            break;
        }
        pass_s.push(done.iter().map(|(_, a)| a.run_s).sum());
    }

    // Outside the timed region: the lint oracle re-certifies each
    // circuit's result once (later passes are byte-identical to it).
    for c in &circuits {
        if let Some((_, paths)) = reference.get(&c.name) {
            let op = ops.start(format!("recertify {}", c.name));
            if let Err(e) = recertify(&c.netlist, &ctx.lib, &tlib, paths, SLEW, ctx.corner()) {
                ops.fail(op, e);
            }
        }
    }

    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), median(&setup_times));
    let mut record = vec![
        ("setup_s_samples".into(), json_numbers(&setup_times)),
        ("pass_s_samples".into(), json_numbers(&pass_s)),
    ];
    let bests = runs.bests();
    if !bests.is_empty() {
        insert_summary(&mut m, &bests, &reads.bests());
        let names: Vec<&str> = circuits.iter().map(|c| c.name.as_str()).collect();
        record.push(("circuits".into(), json_strings(&names)));
        record.push(("per_circuit_best_s".into(), json_numbers(&bests)));
        record.push(("per_circuit_median_s".into(), json_numbers(&runs.medians())));
        record.push(("run_s_samples".into(), json_nested(runs.per_item())));
        record.push(("read_s_samples".into(), json_nested(reads.per_item())));
        record.push(("raw_tail".into(), raw_tail_json(&runs.all())));
        let digests: Vec<String> = names
            .iter()
            .map(|n| {
                reference
                    .get(*n)
                    .map_or("-".into(), |(d, _)| format!("{n}={d}"))
            })
            .collect();
        record.push(("digests".into(), json_strings(&digests)));
    }
    Outcome {
        ops,
        metrics: m,
        record,
        config: config(ctx, &circuits),
    }
}

/// The traced run: the same circuits analysed (1) untraced, (2) with the
/// program's own observer on, (3) layer by layer through the public entry
/// points under the harness's spans, and (4) once more at one thread for
/// schedule-independent counters.
fn run_traced(ctx: &Ctx) -> Outcome {
    let mut m = BTreeMap::new();
    let mut ops = Ops::default();
    // The same for every workload, so only this one pays for it.
    m.insert(
        "charlib.characterize_cold_s".into(),
        ctx.characterize_cold(),
    );
    let (circuits, tlib) = setup(ctx, &TRACED_CATALOG);
    let mut reference = BTreeMap::new();

    // (1) and (2): end-to-end with tracing off, then with the observer.
    let all: Vec<usize> = (0..circuits.len()).collect();
    let run_s = |done: Vec<(usize, Analysis)>| done.iter().map(|(_, a)| a.run_s).sum::<f64>();
    let (off, obs) = (Observer::disabled(), Observer::enabled());
    let untraced = run_s(pass(
        ctx,
        &circuits,
        &all,
        THREADS,
        &off,
        "untraced",
        &mut ops,
        &mut reference,
        None,
    ));
    let observed = run_s(pass(
        ctx,
        &circuits,
        &all,
        THREADS,
        &obs,
        "observed",
        &mut ops,
        &mut reference,
        None,
    ));
    let snap = obs.metrics_snapshot();
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    m.insert("obs.overhead_ratio".into(), observed / untraced);
    m.insert("parallel.tasks".into(), counter("parallel.tasks"));
    m.insert("parallel.steals".into(), counter("parallel.steals"));

    // (3) layer walk.
    let tracer = Tracer::new();
    let mut tally = SearchTally::default();
    let corner = ctx.corner();
    let mut eval_ns = Vec::new();
    let mut per_circuit = Vec::new();
    for c in &circuits {
        tracer.next_request();
        let op = ops.start(format!("layer walk {}", c.name));
        let (paths, stats, digest) = tracer.time("analysis", || {
            let nl = tracer.time("circuits.map", || {
                if c.random {
                    c.netlist.clone()
                } else {
                    catalog::mapped(&c.name, &ctx.lib)
                        .expect("catalog circuits map")
                        .expect("catalog circuit exists")
                }
            });
            let tl = tracer.time("charlib.load", || ctx.load_timing());
            let kernel = tracer.time("charlib.kernel_compile", || {
                Arc::new(tl.compile_corner(corner))
            });
            let sched = tracer.time("logic.schedule_compile", || {
                Arc::new(Schedule::compile(&nl, &ctx.lib))
            });
            let cfg = EnumerationConfig::new(corner)
                .with_n_worst(N_WORST)
                .with_threads(THREADS);
            tracer.time("core.static_bounds", || {
                static_bounds_compiled(&nl, &tl, &kernel, SLEW, cfg.prune_margin)
            });
            tracer.time("core.arc_bounds", || {
                arc_bounds_compiled(&nl, &tl, &kernel, SLEW, ARC_SWEEP_MARGIN)
            });
            let enumr = tracer.time("core.enumerator_build", || {
                PathEnumerator::with_prebuilt(
                    &nl,
                    &ctx.lib,
                    &tl,
                    cfg,
                    Some(kernel.clone()),
                    Some(sched),
                )
            });
            let t = Instant::now();
            let (paths, stats) = tracer.time("core.enumerate", || enumr.run());
            tally.add(&stats, paths.len(), t.elapsed().as_secs_f64());
            let (certs, digest) = tracer.time("core.certify", || certify(&nl, SLEW, paths));
            let (evals, ns) = tracer.time("charlib.kernel_eval", || {
                kernel_eval(&nl, &tl, &kernel, &certs.paths, SLEW)
            });
            if evals > 0 {
                eval_ns.push(ns / evals as f64);
            }
            tracer.time("core.slack", || {
                let probe = slack_report(&nl, &tl, corner, SLEW, 0.0);
                let worst = probe.timing.worst_arrival(&nl);
                slack_report(&nl, &tl, corner, SLEW, 0.9 * worst)
            });
            (certs.paths, stats, digest)
        });
        per_circuit.push(stats_json(&c.name, THREADS, &stats));
        check(
            &mut ops,
            op,
            &c.name,
            &digest,
            &paths,
            stats.truncated,
            &mut reference,
        );
    }
    insert_self_times(
        &mut m,
        &tracer,
        &[
            ("circuits.map_s", "circuits.map"),
            ("charlib.load_s", "charlib.load"),
            ("charlib.kernel_compile_s", "charlib.kernel_compile"),
            ("logic.schedule_compile_s", "logic.schedule_compile"),
            ("core.static_bounds_s", "core.static_bounds"),
            ("core.arc_bounds_s", "core.arc_bounds"),
            ("core.enumerator_build_s", "core.enumerator_build"),
            ("core.enumerate_s", "core.enumerate"),
            ("core.certify_s", "core.certify"),
            ("core.slack_s", "core.slack"),
        ],
    );
    if !eval_ns.is_empty() {
        m.insert("charlib.kernel_eval_ns".into(), median(&eval_ns));
    }
    // What `run()` does, layer by layer: map, load, compile, enumerate.
    // The standalone bound sweeps repeat work `enumerate` does inside.
    let attributed: f64 = [
        "circuits.map_s",
        "charlib.load_s",
        "charlib.kernel_compile_s",
        "logic.schedule_compile_s",
        "core.enumerator_build_s",
        "core.enumerate_s",
    ]
    .iter()
    .map(|k| m[*k])
    .sum();
    m.insert(
        "trace.unattributed_share".into(),
        (untraced - attributed) / untraced,
    );
    tally.report(&mut m, "");
    report_us_per_decision(&mut m, &tally);

    // (4) one thread: counters that repeat exactly run to run.
    let mut t1 = SearchTally::default();
    for (i, a) in pass(
        ctx,
        &circuits,
        &all,
        1,
        &off,
        "threads=1",
        &mut ops,
        &mut reference,
        None,
    ) {
        t1.add(&a.stats, a.paths.len(), a.run_s);
        per_circuit.push(stats_json(&circuits[i].name, 1, &a.stats));
    }
    t1.report(&mut m, ".t1");

    for c in &circuits {
        if let Some((_, paths)) = reference.get(&c.name) {
            let op = ops.start(format!("recertify {}", c.name));
            if let Err(e) = recertify(&c.netlist, &ctx.lib, &tlib, paths, SLEW, corner) {
                ops.fail(op, e);
            }
        }
    }
    let mut record = crate::mcmm::measure(ctx, &mut m, &mut ops);
    record.extend([
        ("untraced_pass_s".into(), untraced.to_string()),
        ("observed_pass_s".into(), observed.to_string()),
        ("attributed_s".into(), attributed.to_string()),
        (
            "per_circuit_stats".into(),
            format!("[{}]", per_circuit.join(",")),
        ),
        ("spans".into(), tracer.to_json()),
    ]);
    Outcome {
        ops,
        metrics: m,
        record,
        config: config(ctx, &circuits),
    }
}

/// One circuit's engine counters for the run record.
fn stats_json(circuit: &str, threads: usize, stats: &sta_core::EnumerationStats) -> String {
    format!(
        "{{\"circuit\":{circuit:?},\"threads\":{threads},\"stats\":{}}}",
        serde_json::to_string(stats).expect("stats serialize")
    )
}

/// Evaluates every certified path's delay through the compiled kernel;
/// returns (arc evaluations, nanoseconds).
pub fn kernel_eval(
    nl: &Netlist,
    tlib: &TimingLibrary,
    kernel: &sta_charlib::CompiledCorner,
    paths: &[TruePath],
    slew: f64,
) -> (u64, f64) {
    let mut evals = 0u64;
    let t = Instant::now();
    for p in paths {
        for (launch, on) in [
            (Edge::Rise, p.rise.is_some()),
            (Edge::Fall, p.fall.is_some()),
        ] {
            if on {
                let b = path_delay_compiled(nl, tlib, kernel, p, launch, slew)
                    .expect("certified paths are mapped");
                std::hint::black_box(b);
                evals += p.arcs.len() as u64;
            }
        }
    }
    (evals, t.elapsed().as_secs_f64() * 1e9)
}
