//! What every workload shares: arguments, the benchmark-owned
//! characterization cache, operation bookkeeping, the metric catalogue,
//! provenance and the run record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize_cached, CharConfig, TimingLibrary};
use sta_core::{CertificateSet, EnumerationStats, TruePath};
use sta_netlist::Netlist;
use sta_obs::digest_string;

use crate::stats::{summarize, tail};

/// Directory of the benchmark package, relative to the repository root
/// the benchmark runs from.
pub const BENCH_DIR: &str = "stabench";

/// The seed the first recorded numbers were taken with, and one held out
/// so a later claim can be re-checked on a seed nobody tuned on.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 7919;

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_s", "s"),
    ("geomean_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
];

/// Counters of the search layers; the traced run reports each from the
/// workload's own thread count and again (suffix `.t1`) from one thread.
pub const SEARCH_COUNTERS: &[&str] = &[
    "core.decisions",
    "core.justify_decisions",
    "core.justify_unsat_decisions",
    "core.conflicts",
    "core.pruned",
    "core.justify_aborts",
    "core.justify_cache_hits",
    "core.delay_evals",
    "core.paths_emitted",
    "core.paths_certified",
    "core.emit_ratio",
    "learn.attempts",
    "learn.stored",
    "learn.verify_failures",
    "learn.hits",
    "learn.bound_cuts",
    "learn.store_ratio",
    "bitsim.words",
    "bitsim.lanes_filtered",
    "bitsim.calls_saved",
    "bitsim.filter_ratio",
];

/// Per-layer metrics (`--trace 1`) other than [`SEARCH_COUNTERS`]. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.map_s", "s"),
    ("charlib.load_s", "s"),
    ("charlib.characterize_cold_s", "s"),
    ("charlib.kernel_compile_s", "s"),
    ("charlib.kernel_eval_ns", "ns"),
    ("logic.schedule_compile_s", "s"),
    ("core.static_bounds_s", "s"),
    ("core.arc_bounds_s", "s"),
    ("core.enumerator_build_s", "s"),
    ("core.enumerate_s", "s"),
    ("core.us_per_decision", "us"),
    ("parallel.tasks", "count"),
    ("parallel.steals", "count"),
    ("core.certify_s", "s"),
    ("core.slack_s", "s"),
    ("eco.build_s", "s"),
    ("eco.dirty_sources_s", "s"),
    ("eco.dirty_share", "ratio"),
    ("eco.update_s", "s"),
    ("eco.vs_cold_ratio", "ratio"),
    ("mcmm.prep_s", "s"),
    ("mcmm.scenario_s", "s"),
    ("mcmm.searches", "count"),
    ("mcmm.scenario_balance", "ratio"),
    ("serve.load_s", "s"),
    ("serve.edit_ms", "ms"),
    ("serve.paths_ms", "ms"),
    ("serve.slack_ms", "ms"),
    ("serve.verify_s", "s"),
    ("serve.protocol_ms", "ms"),
    ("obs.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
];

fn counter_unit(name: &str) -> &'static str {
    if name.ends_with("_ratio") || name.ends_with("_ratio.t1") {
        "ratio"
    } else {
        "count"
    }
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for c in SEARCH_COUNTERS {
        out.push((c.to_string(), counter_unit(c)));
    }
    for c in SEARCH_COUNTERS {
        out.push((format!("{c}.t1"), counter_unit(c)));
    }
    out
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad --seed {value:?}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("missing --workload")?;
        if !["cold-nworst", "eco-session"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// SplitMix64: the benchmark's own seeded generator, so the inputs a seed
/// gives never depend on another crate's RNG.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Operation bookkeeping: an operation fails once, for its first reason.
#[derive(Default)]
pub struct Ops {
    labels: Vec<String>,
    failures: Vec<Option<String>>,
}

impl Ops {
    pub fn start(&mut self, label: impl Into<String>) -> usize {
        self.labels.push(label.into());
        self.failures.push(None);
        self.labels.len() - 1
    }

    pub fn fail(&mut self, op: usize, why: impl Into<String>) {
        if self.failures[op].is_none() {
            let why = why.into();
            eprintln!("stabench: FAILED {}: {why}", self.labels[op]);
            self.failures[op] = Some(why);
        }
    }

    /// Fails `op` unless `ok`.
    pub fn check(&mut self, op: usize, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(op, why());
        }
    }

    pub fn attempted(&self) -> usize {
        self.labels.len()
    }

    pub fn failed(&self) -> usize {
        self.failures.iter().filter(|f| f.is_some()).count()
    }
}

/// What a workload hands back: its operations, metrics and the extra
/// fields of the run record (raw JSON values).
pub struct Outcome {
    pub ops: Ops,
    pub metrics: BTreeMap<String, f64>,
    pub record: Vec<(String, String)>,
    pub config: String,
}

/// Shared run context.
pub struct Ctx {
    pub args: Args,
    pub lib: Library,
    pub tech: Technology,
    pub cache_dir: PathBuf,
    pub started: Instant,
}

impl Ctx {
    /// Checks the working directory and fills the benchmark-owned
    /// characterization cache. Filling it is a warm-up no run counts.
    pub fn new(args: Args) -> Result<Ctx, String> {
        let started = Instant::now();
        if !Path::new(BENCH_DIR).join("Cargo.toml").is_file() {
            return Err(format!(
                "run from the repository root ({BENCH_DIR}/ not found)"
            ));
        }
        let cache_dir = Path::new(BENCH_DIR).join(".cache").join("char");
        let lib = Library::standard();
        let tech = Technology::n90();
        characterize_cached(&lib, &tech, &CharConfig::standard(), &cache_dir)
            .map_err(|e| format!("characterization warm-up failed: {e}"))?;
        Ok(Ctx {
            args,
            lib,
            tech,
            cache_dir,
            started,
        })
    }

    pub fn seconds(&self) -> f64 {
        self.args.seconds
    }

    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.args.seed, stream)
    }

    /// Loads the standard-grid timing library from the warm cache.
    pub fn load_timing(&self) -> TimingLibrary {
        characterize_cached(
            &self.lib,
            &self.tech,
            &CharConfig::standard(),
            &self.cache_dir,
        )
        .expect("the cache was filled at start-up")
    }

    pub fn corner(&self) -> Corner {
        Corner::nominal(&self.tech)
    }

    /// Characterizes the standard grid into an empty directory (the cost
    /// a fresh checkout pays once), seconds.
    pub fn characterize_cold(&self) -> f64 {
        let dir = Path::new(BENCH_DIR)
            .join(".cache")
            .join(format!("cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        characterize_cached(&self.lib, &self.tech, &CharConfig::standard(), &dir)
            .expect("cold characterization of the standard grid");
        let dt = t.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        dt
    }

    /// Validates the outcome, writes the run record and renders the
    /// result line.
    pub fn finish(&self, out: Outcome) -> Result<String, String> {
        let catalogue: Vec<(String, &str)> = if self.args.trace {
            per_layer_catalogue()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut metrics = out.metrics;
        if !self.args.trace {
            metrics.insert("peak_rss_mb".into(), peak_rss_mb());
        }
        if let Some(name) = metrics
            .keys()
            .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("workload reported unknown metric {name}"));
        }
        let mut rendered = Vec::new();
        for (name, unit) in &catalogue {
            let value = match metrics.get(name) {
                Some(&v) => v,
                None if self.args.trace => 0.0,
                None => return Err(format!("workload did not measure {name}")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            rendered.push(format!("{name:?}:{{\"value\":{value},\"unit\":{unit:?}}}"));
        }
        let failed = out.ops.failed();
        let attempted = out.ops.attempted().max(1);
        let line = format!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
            failed == 0 && out.ops.attempted() > 0,
            rendered.join(",")
        );
        self.write_record(&out.config, &out.record, &out.ops, &line);
        Ok(line)
    }

    fn write_record(&self, config: &str, extra: &[(String, String)], ops: &Ops, line: &str) {
        let dir = Path::new(BENCH_DIR).join("out");
        let path = dir.join(format!(
            "{}-seed{}-trace{}.json",
            self.args.workload,
            self.args.seed,
            u8::from(self.args.trace)
        ));
        let failures: Vec<String> = ops
            .labels
            .iter()
            .zip(&ops.failures)
            .filter_map(|(l, f)| f.as_ref().map(|f| format!("{:?}", format!("{l}: {f}"))))
            .collect();
        let mut fields = vec![
            ("provenance".to_string(), provenance(&self.args)),
            ("config".to_string(), config.to_string()),
            ("result".to_string(), line.to_string()),
            ("failures".to_string(), format!("[{}]", failures.join(","))),
            (
                "wall_s".to_string(),
                self.started.elapsed().as_secs_f64().to_string(),
            ),
        ];
        fields.extend(extra.iter().cloned());
        let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
        let text = format!("{{{}}}\n", body.join(","));
        let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
        match written {
            Ok(()) => eprintln!("stabench: run record written to {}", path.display()),
            Err(e) => eprintln!("stabench: could not write {}: {e}", path.display()),
        }
    }
}

/// Git revision, host, toolchain and source fingerprint of this run.
fn provenance(args: &Args) -> String {
    let git = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"git_rev\":{git:?},\"source_digest\":{:?},\"nproc\":{nproc},\"rustc\":{rustc:?},\"workload\":{:?},\"seed\":{},\"seconds\":{},\"trace\":{},\"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED}}}",
        source_digest(),
        args.workload,
        args.seed,
        args.seconds,
        args.trace
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Digest over the program's sources (`crates/**`, sorted by path), which
/// identifies the code when the checkout is not a git repository.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.is_file() {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    digest_string(&bytes)
}

/// Peak resident memory of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Certificate digest of a path list: the path-set identity.
pub fn certify(nl: &Netlist, input_slew: f64, paths: Vec<TruePath>) -> (CertificateSet, String) {
    let certs = CertificateSet::new(nl, input_slew, paths);
    let digest = digest_string(certs.to_json().as_bytes());
    (certs, digest)
}

/// Re-certifies `paths` with the independent lint oracle; `Err` names the
/// first finding.
pub fn recertify(
    nl: &Netlist,
    lib: &Library,
    tlib: &TimingLibrary,
    paths: &[TruePath],
    input_slew: f64,
    corner: Corner,
) -> Result<(), String> {
    let out = sta_lint::verify_paths(nl, lib, tlib, paths, input_slew, corner);
    if out.all_certified() && out.checked == paths.len() {
        Ok(())
    } else {
        Err(format!(
            "verify_paths re-certified {}/{} paths; first finding: {}",
            out.certified,
            paths.len(),
            out.diagnostics
                .first()
                .map_or("none".to_string(), |d| format!("{d:?}"))
        ))
    }
}

/// Search-layer counters of one or more enumerations. `certified` is the
/// number of paths kept, `enumerate_s` the time the runs took.
#[derive(Clone, Copy, Default)]
pub struct SearchTally {
    pub stats: EnumerationStats,
    pub certified: u64,
    pub enumerate_s: f64,
}

impl SearchTally {
    pub fn add(&mut self, stats: &EnumerationStats, certified: usize, enumerate_s: f64) {
        self.stats.merge(stats);
        self.certified += certified as u64;
        self.enumerate_s += enumerate_s;
    }

    /// Writes the [`SEARCH_COUNTERS`] (with `suffix`) into `m`.
    pub fn report(&self, m: &mut BTreeMap<String, f64>, suffix: &str) {
        let s = &self.stats;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let values = [
            s.decisions as f64,
            s.justify_decisions as f64,
            s.justify_unsat_decisions as f64,
            s.conflicts as f64,
            s.pruned as f64,
            s.justify_aborts as f64,
            s.justify_cache_hits as f64,
            (s.compiled_evals + s.fallback_evals) as f64,
            s.paths as f64,
            self.certified as f64,
            ratio(self.certified, s.paths as u64),
            s.learn_attempts as f64,
            s.learn_stored as f64,
            s.learn_verify_failures as f64,
            s.learn_hits as f64,
            s.learn_bound_cuts as f64,
            ratio(s.learn_stored, s.learn_attempts),
            s.bitsim_words as f64,
            s.bitsim_lanes_filtered as f64,
            s.bitsim_exact_calls_saved as f64,
            ratio(s.bitsim_lanes_filtered, 64 * s.bitsim_words),
        ];
        for (name, v) in SEARCH_COUNTERS.iter().zip(values) {
            m.insert(format!("{name}{suffix}"), v);
        }
    }
}

/// Inserts `core.us_per_decision` from a tally at the workload's threads.
pub fn report_us_per_decision(m: &mut BTreeMap<String, f64>, t: &SearchTally) {
    if t.stats.decisions > 0 {
        m.insert(
            "core.us_per_decision".into(),
            t.enumerate_s * 1e6 / t.stats.decisions as f64,
        );
    }
}

/// Inserts the write and read metrics every workload reports, from its
/// items' best write latencies and best read latencies (seconds); see
/// [`crate::stats::Summary`].
pub fn insert_summary(m: &mut BTreeMap<String, f64>, writes: &[f64], reads: &[f64]) {
    let w = summarize(writes);
    m.insert("pass_s".into(), w.pass);
    m.insert("geomean_ms".into(), w.geomean * 1e3);
    m.insert("write_p50_ms".into(), w.p50 * 1e3);
    m.insert("write_tail_ms".into(), w.tail * 1e3);
    m.insert("read_p50_ms".into(), summarize(reads).p50 * 1e3);
}

/// The tail over the raw write samples, for the run record: the highest
/// percentile with at least ten samples beyond it, with the sample count.
pub fn raw_tail_json(samples: &[f64]) -> String {
    let t = tail(samples, 10);
    format!(
        "{{\"value_s\":{},\"percentile\":{},\"samples\":{}}}",
        t.value, t.percentile, t.samples
    )
}

/// Inserts the summed self time of each span name as a metric.
pub fn insert_self_times(
    m: &mut BTreeMap<String, f64>,
    tracer: &crate::trace::Tracer,
    pairs: &[(&str, &str)],
) {
    let selfs = tracer.self_time_by_name();
    for &(metric, span) in pairs {
        m.insert(metric.into(), selfs.get(span).copied().unwrap_or(0.0));
    }
}

/// Renders a string list as a JSON array.
pub fn json_strings<S: AsRef<str>>(items: &[S]) -> String {
    let v: Vec<String> = items.iter().map(|s| format!("{:?}", s.as_ref())).collect();
    format!("[{}]", v.join(","))
}

/// Renders a number list as a JSON array.
pub fn json_numbers(items: &[f64]) -> String {
    let v: Vec<String> = items.iter().map(f64::to_string).collect();
    format!("[{}]", v.join(","))
}

/// Renders a list of number lists as a JSON array of arrays.
pub fn json_nested(items: &[Vec<f64>]) -> String {
    let v: Vec<String> = items.iter().map(|x| json_numbers(x)).collect();
    format!("[{}]", v.join(","))
}
