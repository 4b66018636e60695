//! `eco-session`: one client, closed loop, against a resident timing
//! daemon through `Server::handle_line` — the call the NDJSON transport
//! makes. `load` c432, then a seeded stream of edits, each followed by the
//! reads `paths` and `slack`, and a final `verify`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::Value;
use sta_cells::Library;
use sta_circuits::{catalog, resize_gate, rewire_net, swap_gate, EditError, GateEdit};
use sta_core::{
    arc_bounds_compiled, dirty_sources, slack_report, static_bounds_compiled, AnalysisRequest,
    EnumerationConfig, PathEnumerator, SourceCache, ARC_SWEEP_MARGIN,
};
use sta_logic::Schedule;
use sta_netlist::{GateKind, Netlist};
use sta_obs::Observer;
use sta_serve::{Server, ServerConfig};

use crate::common::{
    certify, insert_self_times, insert_summary, json_nested, json_numbers, json_strings,
    raw_tail_json, report_us_per_decision, Ctx, Ops, Outcome, Rng, SearchTally, DEFAULT_SEED,
    HELD_OUT_SEED,
};
use crate::stats::{median, ItemTimes};
use crate::trace::Tracer;

const CIRCUIT: &str = "c432";
const N_WORST: usize = 10;
/// The daemon's default: one enumeration thread (the serial driver).
const THREADS: usize = 1;
const SLEW: f64 = 60.0;
/// Resizable instances are sorted by the number of sources their edit
/// dirties and split into this many equal strata; every cycle resizes the
/// middle instance of each stratum. The set is the same for every seed:
/// resize latency on c432 follows the dirty-cone size (0.05 s at 2 dirty
/// sources, 1.9 s at 36), so a seed-drawn set would move every write
/// metric with the draw. The function-changing edits likewise always hit
/// the swappable and the rewirable instance at the lower quartile of cone
/// size, and a swap always moves to the first other cell of its family (at
/// the median instance, four swaps to seed-drawn cells took 1.8–5.2 s).
/// The seed draws the order of the edits, where the pair falls and the pin
/// and net a rewire moves.
const STRATA: usize = 5;
/// Distinct edits of the stream: the resizes, a swap and its undo, a
/// rewire and its undo. Each is an item whose latency is its best over
/// the cycles.
const ITEMS: usize = STRATA + 4;
/// Whole cycles every run completes (a cycle takes 6–8 s; each
/// function-changing edit comes every other one); after them the run stops
/// at the first edit that would start past `--seconds`, never between a
/// function-changing edit and its undo.
const MIN_CYCLES: usize = 2;
/// Times the reads follow each edit: they take well under a millisecond,
/// so they are repeated for each edit's best read to be steady.
const READS_PER_EDIT: usize = 10;
/// Set-ups per run: each includes the daemon's ~1.5 s `load`.
const SETUP_REPS: usize = 3;
/// Edits replayed by the traced run (two cycles).
const TRACED_CYCLES: usize = 2;
/// Same-arity cells a function-changing `swap` moves between.
const SWAP_FAMILIES: [[&str; 4]; 3] = [
    ["NAND2", "NOR2", "AND2", "OR2"],
    ["NAND3", "NOR3", "AND3", "OR3"],
    ["NAND4", "NOR4", "AND4", "OR4"],
];

#[derive(Clone, Debug)]
enum Edit {
    Resize {
        instance: String,
    },
    Swap {
        instance: String,
        cell: String,
    },
    Rewire {
        instance: String,
        pin: usize,
        net: String,
    },
}

impl Edit {
    fn request(&self) -> String {
        match self {
            Edit::Resize { instance } => format!(
                "{{\"op\":\"edit\",\"circuit\":\"{CIRCUIT}\",\"kind\":\"resize\",\"instance\":{instance:?}}}"
            ),
            Edit::Swap { instance, cell } => format!(
                "{{\"op\":\"edit\",\"circuit\":\"{CIRCUIT}\",\"kind\":\"swap\",\"instance\":{instance:?},\"cell\":{cell:?}}}"
            ),
            Edit::Rewire { instance, pin, net } => format!(
                "{{\"op\":\"edit\",\"circuit\":\"{CIRCUIT}\",\"kind\":\"rewire\",\"instance\":{instance:?},\"pin\":{pin},\"net\":{net:?}}}"
            ),
        }
    }

    fn apply(&self, nl: &mut Netlist, lib: &Library) -> Result<GateEdit, EditError> {
        match self {
            Edit::Resize { instance } => resize_gate(nl, lib, instance),
            Edit::Swap { instance, cell } => swap_gate(nl, lib, instance, cell),
            Edit::Rewire { instance, pin, net } => rewire_net(nl, instance, *pin, net),
        }
    }
}

/// One edit of the stream. A function-changing edit is always followed
/// by the edit that undoes it, so the netlist never drifts far from c432
/// and the revert's digest must equal the one before the pair.
#[derive(Clone, Debug)]
struct Step {
    edit: Edit,
    reverts: bool,
    /// Which edit of the cycle this is (`0..ITEMS`).
    item: usize,
}

/// The seeded edit stream. It keeps a mirror of the daemon's netlist so
/// every edit it emits is valid at the revision it is sent to.
struct Stream {
    lib: Library,
    mirror: Netlist,
    resizes: Vec<String>,
    swap_instance: String,
    rewire_instance: String,
    inputs: Vec<String>,
    rng: Rng,
    cycle: usize,
}

fn instance_name(nl: &Netlist, g: sta_netlist::GateId) -> Option<String> {
    nl.net(nl.gate(g).output()).name().map(str::to_string)
}

fn base_name(lib: &Library, nl: &Netlist, instance: &str) -> String {
    let net = nl.net_by_name(instance).expect("instance names a net");
    let gate = nl.net(net).driver().expect("instance has a driver");
    match nl.gate(gate).kind() {
        GateKind::Cell(c) => lib.cell(c).name().trim_end_matches("_X2").to_string(),
        GateKind::Prim(_) => String::new(),
    }
}

/// Sources an edit of `nl` dirties, or `None` when the edit is invalid.
fn dirty_count(
    nl: &Netlist,
    edit: impl FnOnce(&mut Netlist) -> Result<GateEdit, EditError>,
) -> Option<usize> {
    let mut probe = nl.clone();
    let e = edit(&mut probe).ok()?;
    Some(dirty_sources(&probe, &e).iter().filter(|&&d| d).count())
}

/// The instance at the lower quartile of dirty-cone size.
fn quartile_instance(mut v: Vec<(usize, String)>) -> String {
    assert!(!v.is_empty(), "no candidate instance");
    v.sort();
    v.swap_remove(v.len() / 4).1
}

impl Stream {
    fn new(lib: &Library, nl: &Netlist, rng: Rng) -> Stream {
        let mut sized: Vec<(usize, String)> = Vec::new();
        let mut swappable = Vec::new();
        let mut rewirable = Vec::new();
        let first_input = nl.inputs()[0];
        for g in nl.gate_ids() {
            let Some(inst) = instance_name(nl, g) else {
                continue;
            };
            if let Some(d) = dirty_count(nl, |n| resize_gate(n, lib, &inst)) {
                sized.push((d, inst.clone()));
            }
            let base = base_name(lib, nl, &inst);
            if let Some(f) = SWAP_FAMILIES.iter().find(|f| f.contains(&base.as_str())) {
                let to = f
                    .iter()
                    .find(|&&c| c != base)
                    .expect("families have four cells");
                if let Some(d) = dirty_count(nl, |n| swap_gate(n, lib, &inst, to)) {
                    swappable.push((d, inst.clone()));
                }
            }
            let ins = nl.gate(g).inputs();
            let named_inputs = ins.iter().all(|&n| nl.net(n).name().is_some());
            if nl.gate(g).fanin() >= 2 && named_inputs && !ins.contains(&first_input) {
                let net = nl.net(first_input).name().expect("inputs are named");
                if let Some(d) = dirty_count(nl, |n| rewire_net(n, &inst, 0, net)) {
                    rewirable.push((d, inst));
                }
            }
        }
        sized.sort();
        let per = sized.len().div_ceil(STRATA);
        let resizes = sized
            .chunks(per)
            .map(|c| c[c.len() / 2].1.clone())
            .collect();
        let inputs = nl
            .inputs()
            .iter()
            .filter_map(|&n| nl.net(n).name().map(str::to_string))
            .collect();
        Stream {
            lib: lib.clone(),
            mirror: nl.clone(),
            resizes,
            swap_instance: quartile_instance(swappable),
            rewire_instance: quartile_instance(rewirable),
            inputs,
            rng,
            cycle: 0,
        }
    }

    /// What each item of a cycle edits, for the run record.
    fn item_labels(&self) -> Vec<String> {
        let mut v: Vec<String> = self.resizes.iter().map(|i| format!("resize {i}")).collect();
        v.push(format!("swap {}", self.swap_instance));
        v.push(format!("swap {} back", self.swap_instance));
        v.push(format!("rewire {}", self.rewire_instance));
        v.push(format!("rewire {} back", self.rewire_instance));
        v
    }

    /// The next cycle: the resizes in seeded order with one
    /// function-changing pair (the swap pair on even cycles, the rewire
    /// pair on odd ones) at a seeded position.
    fn next_cycle(&mut self) -> Vec<Step> {
        let mut order: Vec<usize> = (0..STRATA).collect();
        self.rng.shuffle(&mut order);
        // Slots 0..STRATA are resizes, STRATA the swap pair and STRATA + 1
        // the rewire pair.
        let pair = STRATA + self.cycle % 2;
        order.insert(self.rng.below(order.len() + 1), pair);
        self.cycle += 1;
        let mut steps = Vec::new();
        for slot in order {
            if slot < STRATA {
                let instance = self.resizes[slot].clone();
                self.push(&mut steps, Edit::Resize { instance }, slot, false);
            } else if slot == STRATA {
                self.push_swap(&mut steps);
            } else {
                self.push_rewire(&mut steps);
            }
        }
        steps
    }

    fn push(&mut self, steps: &mut Vec<Step>, edit: Edit, item: usize, reverts: bool) {
        edit.apply(&mut self.mirror, &self.lib)
            .expect("the stream only emits edits valid at the mirror's revision");
        steps.push(Step {
            edit,
            reverts,
            item,
        });
    }

    fn push_swap(&mut self, steps: &mut Vec<Step>) {
        let inst = self.swap_instance.clone();
        let net = self.mirror.net_by_name(&inst).expect("instance net");
        let gate = self.mirror.net(net).driver().expect("driven");
        let GateKind::Cell(cur) = self.mirror.gate(gate).kind() else {
            unreachable!("mapped netlist")
        };
        let current = self.lib.cell(cur).name().to_string();
        let base = current.trim_end_matches("_X2");
        let family = SWAP_FAMILIES
            .iter()
            .find(|f| f.contains(&base))
            .expect("swappable instances are in a family");
        let cell = family
            .iter()
            .find(|&&c| c != base)
            .expect("families have four cells")
            .to_string();
        let edit = Edit::Swap {
            instance: inst.clone(),
            cell,
        };
        let undo = Edit::Swap {
            instance: inst,
            cell: current,
        };
        self.push(steps, edit, STRATA, false);
        self.push(steps, undo, STRATA + 1, true);
    }

    fn push_rewire(&mut self, steps: &mut Vec<Step>) {
        let inst = self.rewire_instance.clone();
        let net = self.mirror.net_by_name(&inst).expect("instance net");
        let gate = self.mirror.net(net).driver().expect("driven");
        let ins = self.mirror.gate(gate).inputs().to_vec();
        let pin = self.rng.below(ins.len());
        let old = self.mirror.net(ins[pin]).name().expect("named").to_string();
        let free: Vec<&String> = self
            .inputs
            .iter()
            .filter(|pi| {
                let id = self.mirror.net_by_name(pi).expect("input net");
                !ins.contains(&id)
            })
            .collect();
        let to = free[self.rng.below(free.len())].clone();
        let edit = Edit::Rewire {
            instance: inst.clone(),
            pin,
            net: to,
        };
        let undo = Edit::Rewire {
            instance: inst,
            pin,
            net: old,
        };
        self.push(steps, edit, STRATA + 2, false);
        self.push(steps, undo, STRATA + 3, true);
    }
}

fn load_request() -> String {
    format!("{{\"op\":\"load\",\"circuit\":\"{CIRCUIT}\",\"tech\":\"90nm\",\"nworst\":{N_WORST},\"threads\":{THREADS}}}")
}

fn read_requests() -> [(&'static str, String); 2] {
    [
        (
            "paths",
            format!("{{\"op\":\"paths\",\"circuit\":\"{CIRCUIT}\",\"limit\":10}}"),
        ),
        (
            "slack",
            format!("{{\"op\":\"slack\",\"circuit\":\"{CIRCUIT}\"}}"),
        ),
    ]
}

/// A parsed daemon reply.
struct Reply(Value);

impl Reply {
    fn parse(text: &str) -> Reply {
        Reply(serde_json::from_str::<Value>(text).unwrap_or(Value::Null))
    }

    fn get(&self, key: &str) -> Option<&Value> {
        serde::get_field(&self.0, key).ok()
    }

    fn flag(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Value::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    fn text(&self, key: &str) -> Option<String> {
        match self.get(key) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        }
    }

    fn ok(&self) -> bool {
        self.flag("ok") == Some(true)
    }
}

/// Sends one request; returns the reply and the `handle_line` seconds.
fn send(server: &mut Server, line: &str) -> (Reply, f64, String) {
    let t = Instant::now();
    let (text, _) = server.handle_line(line);
    let dt = t.elapsed().as_secs_f64();
    (Reply::parse(&text), dt, text)
}

fn server(ctx: &Ctx, obs: Observer) -> Server {
    Server::new(ServerConfig {
        cache_dir: ctx.cache_dir.clone(),
        input_slew: SLEW,
        obs,
        ..ServerConfig::default()
    })
}

/// Everything before the first timed request: library, mapping, the
/// edit plan, and the daemon's `load` (its per-source cache build).
fn setup(ctx: &Ctx, ops: &mut Ops, obs: Observer) -> (Server, Stream, String, f64) {
    let nl = catalog::mapped(CIRCUIT, &ctx.lib)
        .expect("c432 maps")
        .expect("c432 exists");
    let stream = Stream::new(&ctx.lib, &nl, ctx.rng(200));
    let mut srv = server(ctx, obs);
    let op = ops.start("load");
    let (reply, dt, text) = send(&mut srv, &load_request());
    ops.check(
        op,
        reply.ok() && reply.flag("truncated") == Some(false),
        || format!("load reply {text}"),
    );
    (srv, stream, reply.text("digest").unwrap_or_default(), dt)
}

/// Checks an edit reply; `before` is the digest before a reverted pair.
fn check_edit(ops: &mut Ops, op: usize, reply: &Reply, text: &str, step: &Step, before: &str) {
    ops.check(op, reply.ok(), || format!("reply {text}"));
    ops.check(op, reply.flag("truncated") == Some(false), || {
        "search truncated".into()
    });
    if step.reverts {
        let d = reply.text("digest").unwrap_or_default();
        ops.check(op, d == before, || {
            format!("revert digest {d} != digest before the pair {before}")
        });
    }
}

fn config(ctx: &Ctx) -> String {
    format!(
        "{{\"circuits\":[\"{CIRCUIT}\"],\"tech\":\"90nm\",\"char_grid\":\"standard\",\"corners\":[\"nominal\"],\"modes\":[\"unconstrained\"],\"n_worst\":{N_WORST},\"threads\":{THREADS},\"batch_threads\":1,\"engine\":{{\"kernels\":true,\"bitsim\":true,\"learning\":true}},\"edits_per_cycle\":{},\"function_changing_per_cycle\":2,\"reads_per_edit\":{READS_PER_EDIT},\"read\":[\"paths limit 10\",\"slack\"],\"seed\":{},\"named_seeds\":[{DEFAULT_SEED},{HELD_OUT_SEED}]}}",
        STRATA + 2,
        ctx.args.seed
    )
}

pub fn run(ctx: &Ctx) -> Outcome {
    if ctx.args.trace {
        return run_traced(ctx);
    }
    let mut ops = Ops::default();
    let mut setup_times = Vec::new();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        state = Some(setup(ctx, &mut ops, Observer::disabled()));
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let (mut srv, mut stream, mut digest, _) = state.expect("at least one set-up");

    let mut edits = ItemTimes::new(ITEMS);
    let mut reads = ItemTimes::new(ITEMS);
    let mut cycles = Vec::new();
    let mut pair_base = digest.clone();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds());
    'run: while cycles.len() < MIN_CYCLES || Instant::now() < deadline {
        let mut cycle = 0.0;
        for step in stream.next_cycle() {
            if cycles.len() >= MIN_CYCLES && !step.reverts && Instant::now() >= deadline {
                break 'run;
            }
            if !step.reverts {
                pair_base = digest.clone();
            }
            let op = ops.start(format!("edit {:?}", step.edit));
            let (reply, dt, text) = send(&mut srv, &step.edit.request());
            edits.push(step.item, dt);
            cycle += dt;
            check_edit(&mut ops, op, &reply, &text, &step, &pair_base);
            digest = reply.text("digest").unwrap_or_default();
            // One read sample is the pair: `paths` (~0.1 ms) and `slack`
            // (~0.4 ms) apart would put the median between two clusters.
            for _ in 0..READS_PER_EDIT {
                let mut read = 0.0;
                for (what, line) in read_requests() {
                    let op = ops.start(what);
                    let (reply, dt, text) = send(&mut srv, &line);
                    read += dt;
                    ops.check(op, reply.ok(), || format!("reply {text}"));
                }
                reads.push(step.item, read);
                cycle += read;
            }
        }
        cycles.push(cycle);
    }

    // Outside the timed region: the daemon's own splice-vs-cold proof.
    let op = ops.start("verify");
    let (reply, _, text) = send(
        &mut srv,
        &format!("{{\"op\":\"verify\",\"circuit\":\"{CIRCUIT}\"}}"),
    );
    ops.check(
        op,
        reply.ok()
            && reply.flag("identical") == Some(true)
            && reply.flag("truncated") == Some(false),
        || format!("verify reply {text}"),
    );

    let mut m = BTreeMap::new();
    m.insert("setup_s".into(), median(&setup_times));
    insert_summary(&mut m, &edits.bests(), &reads.bests());
    let record = vec![
        ("setup_s_samples".into(), json_numbers(&setup_times)),
        ("cycle_s_samples".into(), json_numbers(&cycles)),
        ("edit_items".into(), json_strings(&stream.item_labels())),
        ("edit_s_samples".into(), json_nested(edits.per_item())),
        ("edit_best_s".into(), json_numbers(&edits.bests())),
        ("edit_median_s".into(), json_numbers(&edits.medians())),
        ("read_s_samples".into(), json_nested(reads.per_item())),
        ("raw_tail".into(), raw_tail_json(&edits.all())),
        ("final_digest".into(), format!("{digest:?}")),
    ];
    Outcome {
        ops,
        metrics: m,
        record,
        config: config(ctx),
    }
}

/// The traced run replays the stream three ways: through an untraced
/// daemon, through a daemon with the program's observer on, and layer by
/// layer through the public entry points the daemon calls, asserting at
/// every revision that the replay's digest equals the daemon's.
fn run_traced(ctx: &Ctx) -> Outcome {
    let mut m = BTreeMap::new();
    let mut ops = Ops::default();
    let tracer = Tracer::new();
    let corner = ctx.corner();

    tracer.next_request();
    let mut nl = tracer.time("circuits.map", || {
        catalog::mapped(CIRCUIT, &ctx.lib)
            .expect("c432 maps")
            .expect("c432 exists")
    });
    let tl = tracer.time("charlib.load", || ctx.load_timing());
    let kernel = tracer.time("charlib.kernel_compile", || {
        Arc::new(tl.compile_corner(corner))
    });

    let (mut plain, mut stream, _, _) = setup(ctx, &mut ops, Observer::disabled());
    let obs = Observer::enabled();
    let (mut observed, _, loaded, load_s) = setup(ctx, &mut ops, obs.clone());
    m.insert("serve.load_s".into(), load_s);

    let cfg = EnumerationConfig::new(corner)
        .with_n_worst(N_WORST)
        .with_threads(THREADS)
        .with_per_source_n_worst(true);
    let (mut cache, _) = tracer.time("eco.build", || {
        let enumr = PathEnumerator::with_prebuilt(
            &nl,
            &ctx.lib,
            &tl,
            cfg.clone(),
            Some(kernel.clone()),
            None,
        );
        SourceCache::build(&enumr)
    });
    let (_, built) = certify(&nl, SLEW, cache.splice());
    let op = ops.start("replay build");
    ops.check(op, built == loaded, || {
        format!("replayed build {built} != daemon load {loaded}")
    });

    let mut tally = SearchTally::default();
    let (mut plain_ms, mut edit_ms, mut paths_ms, mut slack_ms) = (vec![], vec![], vec![], vec![]);
    let (mut protocol_ms, mut unattributed, mut vs_cold, mut dirty_share) =
        (vec![], vec![], vec![], vec![]);
    let mut certified = Vec::new();
    let mut pair_base = loaded.clone();
    let mut digest = loaded;
    for _ in 0..TRACED_CYCLES {
        for step in stream.next_cycle() {
            if !step.reverts {
                pair_base = digest.clone();
            }
            let op = ops.start(format!("edit {:?}", step.edit));
            let (reply, dt, text) = send(&mut plain, &step.edit.request());
            check_edit(&mut ops, op, &reply, &text, &step, &pair_base);
            plain_ms.push(dt * 1e3);
            let (reply, daemon_s, text) = send(&mut observed, &step.edit.request());
            check_edit(&mut ops, op, &reply, &text, &step, &pair_base);
            edit_ms.push(daemon_s * 1e3);
            digest = reply.text("digest").unwrap_or_default();

            // The same edit, layer by layer.
            tracer.next_request();
            let t = Instant::now();
            let (replayed, stats, n_paths) = tracer.time("edit", || {
                let edit = tracer
                    .time("eco.apply", || step.edit.apply(&mut nl, &ctx.lib))
                    .expect("stream edits apply");
                let dirty = tracer.time("eco.dirty_sources", || dirty_sources(&nl, &edit));
                dirty_share.push(dirty.iter().filter(|&&d| d).count() as f64 / dirty.len() as f64);
                let sched = tracer.time("logic.schedule_compile", || {
                    Arc::new(Schedule::compile(&nl, &ctx.lib))
                });
                let enumr = tracer.time("core.enumerator_build", || {
                    PathEnumerator::with_prebuilt(
                        &nl,
                        &ctx.lib,
                        &tl,
                        cfg.clone().with_source_filter(Arc::new(dirty)),
                        Some(kernel.clone()),
                        Some(sched),
                    )
                });
                let stats = tracer.time("eco.update", || cache.update(&enumr));
                let (certs, d) = tracer.time("core.certify", || certify(&nl, SLEW, cache.splice()));
                tracer.time("core.slack", || {
                    let probe = slack_report(&nl, &tl, corner, SLEW, 0.0);
                    probe.timing.worst_arrival(&nl)
                });
                certified = certs.paths;
                (d, stats, certified.len())
            });
            let replay_s = t.elapsed().as_secs_f64();
            tally.add(&stats, n_paths, 0.0);
            ops.check(op, replayed == digest, || {
                format!("replayed digest {replayed} != daemon digest {digest}")
            });
            protocol_ms.push((daemon_s - replay_s) * 1e3);
            unattributed.push((daemon_s - replay_s) / daemon_s);

            // Standalone bound sweeps over this revision (work the
            // enumerator repeats inside `eco.update`).
            tracer.time("core.static_bounds", || {
                static_bounds_compiled(&nl, &tl, &kernel, SLEW, cfg.prune_margin)
            });
            tracer.time("core.arc_bounds", || {
                arc_bounds_compiled(&nl, &tl, &kernel, SLEW, ARC_SWEEP_MARGIN)
            });
            // The cold run the edit should beat, on the same revision.
            let t = Instant::now();
            let cold = AnalysisRequest::new(CIRCUIT)
                .with_netlist(nl.clone())
                .n_worst(Some(N_WORST))
                .threads(THREADS)
                .cache_dir(ctx.cache_dir.clone())
                .run();
            let cold_s = t.elapsed().as_secs_f64();
            match cold {
                Ok(c) => {
                    let (_, cd) = certify(&c.netlist, c.input_slew, c.paths);
                    ops.check(op, cd == digest, || {
                        format!("cold digest {cd} != spliced digest {digest}")
                    });
                    vs_cold.push(daemon_s / cold_s);
                }
                Err(e) => ops.fail(op, e.to_string()),
            }
            for (what, line) in read_requests() {
                let op = ops.start(what);
                let (reply, dt, text) = send(&mut observed, &line);
                ops.check(op, reply.ok(), || format!("reply {text}"));
                if what == "paths" {
                    paths_ms.push(dt * 1e3);
                } else {
                    slack_ms.push(dt * 1e3);
                }
            }
        }
    }
    let op = ops.start("verify");
    let (reply, verify_s, text) = send(
        &mut observed,
        &format!("{{\"op\":\"verify\",\"circuit\":\"{CIRCUIT}\"}}"),
    );
    ops.check(
        op,
        reply.ok() && reply.flag("identical") == Some(true),
        || format!("verify reply {text}"),
    );
    m.insert("serve.verify_s".into(), verify_s);

    let (evals, ns) = crate::cold::kernel_eval(&nl, &tl, &kernel, &certified, SLEW);
    if evals > 0 {
        m.insert("charlib.kernel_eval_ns".into(), ns / evals as f64);
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
            ("core.enumerate_s", "eco.update"),
            ("core.certify_s", "core.certify"),
            ("core.slack_s", "core.slack"),
            ("eco.build_s", "eco.build"),
            ("eco.dirty_sources_s", "eco.dirty_sources"),
            ("eco.update_s", "eco.update"),
        ],
    );
    tally.enumerate_s = m["eco.update_s"];
    tally.report(&mut m, "");
    // The session is single-threaded, so its counters already repeat
    // exactly; `.t1` reports the same tally.
    tally.report(&mut m, ".t1");
    report_us_per_decision(&mut m, &tally);
    let snap = obs.metrics_snapshot();
    let counter = |n: &str| snap.counters.get(n).copied().unwrap_or(0) as f64;
    m.insert("parallel.tasks".into(), counter("parallel.tasks"));
    m.insert("parallel.steals".into(), counter("parallel.steals"));
    m.insert(
        "eco.dirty_share".into(),
        dirty_share.iter().sum::<f64>() / dirty_share.len() as f64,
    );
    m.insert("eco.vs_cold_ratio".into(), median(&vs_cold));
    m.insert("serve.edit_ms".into(), median(&edit_ms));
    m.insert("serve.paths_ms".into(), median(&paths_ms));
    m.insert("serve.slack_ms".into(), median(&slack_ms));
    m.insert("serve.protocol_ms".into(), median(&protocol_ms));
    m.insert(
        "obs.overhead_ratio".into(),
        median(&edit_ms) / median(&plain_ms),
    );
    m.insert("trace.unattributed_share".into(), median(&unattributed));
    let record = vec![
        ("edit_ms_untraced".into(), json_numbers(&plain_ms)),
        ("edit_ms_observed".into(), json_numbers(&edit_ms)),
        ("vs_cold".into(), json_numbers(&vs_cold)),
        ("spans".into(), tracer.to_json()),
    ];
    Outcome {
        ops,
        metrics: m,
        record,
        config: config(ctx),
    }
}
