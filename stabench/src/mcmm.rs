//! The MCMM layer, measured by the `cold-nworst` traced run:
//! `AnalysisRequest::run_batch` over fast/typ/slow corners × two seeded
//! clock modes on c432, once untraced and once with the program's observer
//! on, whose span tree gives the batch's prep/scenario split.

use std::collections::BTreeMap;
use std::time::Instant;

use sta_circuits::catalog;
use sta_core::{AnalysisRequest, BatchOutcome, CornerDef, Mode, Scenario, TruePath};
use sta_obs::{Observer, SpanNode};

use crate::common::{certify, json_strings, recertify, Ctx, Ops};
use crate::stats::self_time;

const CIRCUIT: &str = "c432";
const N_WORST: usize = 50;
const BATCH_THREADS: usize = 2;
const SLEW: f64 = 60.0;

/// The fast, typical and slow `T,V` corners. They are the same for every
/// seed: batch cost moves with the operating point (c499's batch took
/// 5.2–8.1 s over five seeds when each seed drew one corner per band).
/// Modes change only slack, not search cost.
const CORNERS: [&str; 3] = ["-20,1.08", "25,1", "90,0.92"];

/// The corners in seeded submission order and two clock-period modes
/// drawn from the seed.
fn draw(ctx: &Ctx) -> (Vec<CornerDef>, Vec<Mode>) {
    let mut rng = ctx.rng(400);
    let mut corners: Vec<CornerDef> = CORNERS
        .iter()
        .map(|spec| CornerDef::parse(spec, &ctx.tech).expect("T,V corners parse"))
        .collect();
    rng.shuffle(&mut corners);
    let modes = (0..2)
        .map(|i| {
            let period = (rng.uniform(600.0, 1400.0) / 10.0).round() * 10.0;
            Mode::with_sdc(
                &format!("m{i}"),
                &format!("create_clock -period {period}\n"),
            )
        })
        .collect();
    (corners, modes)
}

fn batch(
    ctx: &Ctx,
    corners: &[CornerDef],
    modes: &[Mode],
    obs: Observer,
) -> Result<BatchOutcome, String> {
    AnalysisRequest::new(CIRCUIT)
        .scenarios(Scenario::matrix(corners, modes))
        .n_worst(Some(N_WORST))
        .threads(1)
        .batch_threads(BATCH_THREADS)
        .cache_dir(ctx.cache_dir.clone())
        .observer(obs)
        .run_batch()
        .map_err(|e| e.to_string())
}

/// Scenario digests and paths of a batch.
type Certified = (Vec<String>, Vec<Vec<TruePath>>);

/// Checks a batch: no scenario truncated, every mode of a corner has the
/// corner's certificates (modes change only slack), and the batch equals
/// `reference`, the run's first batch, once there is one.
fn check(
    ops: &mut Ops,
    op: usize,
    out: &BatchOutcome,
    n_modes: usize,
    reference: &mut Option<Certified>,
) {
    let mut digests = Vec::new();
    let mut paths = Vec::new();
    for (i, s) in out.scenarios.iter().enumerate() {
        ops.check(op, !s.stats.truncated, || {
            format!("{} truncated", s.scenario.name())
        });
        let (certs, d) = certify(&out.netlist, out.input_slew, out.certificates(i).paths);
        digests.push(d);
        paths.push(certs.paths);
    }
    for (i, d) in digests.iter().enumerate() {
        let first_of_corner = &digests[i - i % n_modes];
        ops.check(op, d == first_of_corner, || {
            format!(
                "scenario {i} digest {d} differs from its corner's first mode {first_of_corner}"
            )
        });
    }
    match reference {
        Some((want, _)) => ops.check(op, *want == digests, || {
            format!("digests {digests:?} differ from this run's first batch {want:?}")
        }),
        None => *reference = Some((digests, paths)),
    }
}

/// Each corner's certificates re-certified by the lint oracle, and one
/// seeded corner re-run as an independent single-scenario analysis that
/// must match the batch.
fn oracles(ctx: &Ctx, corners: &[CornerDef], modes: &[Mode], ops: &mut Ops, want: &Certified) {
    let (digests, paths) = want;
    let nl = catalog::mapped(CIRCUIT, &ctx.lib)
        .expect("catalog circuits map")
        .expect("catalog circuit exists");
    let tlib = ctx.load_timing();
    for (k, corner) in corners.iter().enumerate() {
        let op = ops.start(format!("recertify {CIRCUIT} {}", corner.name));
        if let Err(e) = recertify(
            &nl,
            &ctx.lib,
            &tlib,
            &paths[k * modes.len()],
            SLEW,
            corner.corner,
        ) {
            ops.fail(op, e);
        }
    }
    let pick = ctx.rng(401).below(corners.len());
    let op = ops.start(format!("independent run {CIRCUIT} {}", corners[pick].name));
    let single = AnalysisRequest::new(CIRCUIT)
        .scenario(Scenario::new(corners[pick].clone(), modes[0].clone()))
        .n_worst(Some(N_WORST))
        .cache_dir(ctx.cache_dir.clone())
        .run();
    match single {
        Ok(o) => {
            let (_, d) = certify(&o.netlist, o.input_slew, o.paths);
            let want = &digests[pick * modes.len()];
            ops.check(op, &d == want, || {
                format!("independent digest {d} != batch {want}")
            });
        }
        Err(e) => ops.fail(op, e.to_string()),
    }
}

/// Seconds of a span node.
fn secs(n: &SpanNode) -> (f64, f64) {
    let s = n.start_ns as f64 * 1e-9;
    (s, s + n.duration_ns as f64 * 1e-9)
}

fn count_named(n: &SpanNode, name: &str) -> usize {
    usize::from(n.name == name)
        + n.children
            .iter()
            .map(|c| count_named(c, name))
            .sum::<usize>()
}

/// Runs the batches, checks them and inserts the `mcmm.*` metrics into
/// `m`; returns the fields it adds to the run record.
pub fn measure(ctx: &Ctx, m: &mut BTreeMap<String, f64>, ops: &mut Ops) -> Vec<(String, String)> {
    let (corners, modes) = draw(ctx);
    let mut reference = None;

    let op = ops.start(format!("batch {CIRCUIT} untraced"));
    let t = Instant::now();
    let untraced = match batch(ctx, &corners, &modes, Observer::disabled()) {
        Ok(out) => {
            let dt = t.elapsed().as_secs_f64();
            check(ops, op, &out, modes.len(), &mut reference);
            dt
        }
        Err(e) => {
            ops.fail(op, e);
            0.0
        }
    };
    let obs = Observer::enabled();
    let op = ops.start(format!("batch {CIRCUIT} observed"));
    let t = Instant::now();
    let observed = match batch(ctx, &corners, &modes, obs.clone()) {
        Ok(out) => {
            let dt = t.elapsed().as_secs_f64();
            check(ops, op, &out, modes.len(), &mut reference);
            dt
        }
        Err(e) => {
            ops.fail(op, e);
            0.0
        }
    };

    let (mut prep, mut scen, mut searches, mut root_self, mut root_total) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut balance: f64 = 0.0;
    for root in obs.span_tree().iter().filter(|n| n.name == "mcmm") {
        let (rs, re) = secs(root);
        let kids: Vec<(f64, f64)> = root.children.iter().map(secs).collect();
        root_self += self_time(rs, re, &kids);
        root_total += re - rs;
        let durs: Vec<f64> = root
            .children
            .iter()
            .filter(|c| c.name == "scenario")
            .map(|c| c.duration_ns as f64 * 1e-9)
            .collect();
        prep += root
            .children
            .iter()
            .filter(|c| c.name != "scenario" && c.name != "merge")
            .map(|c| c.duration_ns as f64 * 1e-9)
            .sum::<f64>();
        scen += durs.iter().sum::<f64>();
        searches += count_named(root, "enumerate") as f64;
        if !durs.is_empty() {
            let mean = durs.iter().sum::<f64>() / durs.len() as f64;
            balance = balance.max(durs.iter().copied().fold(0.0, f64::max) / mean);
        }
    }
    m.insert("mcmm.prep_s".into(), prep);
    m.insert("mcmm.scenario_s".into(), scen);
    m.insert("mcmm.searches".into(), searches);
    m.insert("mcmm.scenario_balance".into(), balance);
    if let Some(want) = &reference {
        oracles(ctx, &corners, &modes, ops, want);
    }

    let corner_names: Vec<String> = corners.iter().map(|c| c.name.clone()).collect();
    let mode_specs: Vec<String> = modes
        .iter()
        .map(|m| format!("{}: {}", m.name, m.sdc.as_deref().unwrap_or("").trim()))
        .collect();
    let coordinator_share = if root_total > 0.0 {
        root_self / root_total
    } else {
        0.0
    };
    vec![(
        "mcmm".into(),
        format!(
            "{{\"circuit\":{CIRCUIT:?},\"corners\":{},\"modes\":{},\"n_worst\":{N_WORST},\"threads\":1,\"batch_threads\":{BATCH_THREADS},\"untraced_s\":{untraced},\"observed_s\":{observed},\"coordinator_share\":{coordinator_share}}}",
            json_strings(&corner_names),
            json_strings(&mode_specs),
        ),
    )]
}
