//! Measures what the resident-state ECO path buys over a cold restart,
//! circuit by circuit, and writes `BENCH_serve.json` (repo root).
//!
//! For each circuit the benchmark builds the daemon's resident state (a
//! per-source `SourceCache` plus the compiled corner kernel), applies a
//! single-gate resize at the gate with the smallest dirty-source cone
//! (the canonical near-input ECO), and times two ways of answering the
//! same question on the edited netlist:
//!
//! * **cold** — what a batch restart pays: compile the kernel, enumerate
//!   every source from scratch;
//! * **incremental** — what `sta-repro serve` pays: compute the dirty
//!   cone, re-enumerate only the dirty sources against the resident
//!   kernel, splice into the cached per-source lists.
//!
//! Both answers are digest-compared (the splice-identity invariant of
//! DESIGN.md §5.10) before any latency is reported; a mismatch aborts
//! the benchmark. The headline criterion is `speedup >= 5` on c880 at
//! `n_worst = 50`.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use sta_bench::{benchmark, library, timing_library};
use sta_cells::{Corner, Technology};
use sta_circuits::resize_gate;
use sta_core::{dirty_sources, CertificateSet, EnumerationConfig, PathEnumerator, SourceCache};
use sta_netlist::{GateId, Netlist};
use sta_obs::digest_string;

#[derive(Serialize)]
struct CircuitResult {
    circuit: String,
    n_worst: usize,
    /// Instance name of the resized gate (the net it drives).
    edited_instance: String,
    sources: usize,
    /// Sources re-enumerated by the incremental path.
    dirty_sources: usize,
    paths: usize,
    cold_ms: f64,
    incremental_ms: f64,
    /// `cold_ms / incremental_ms`.
    speedup: f64,
    /// FNV digest of the cold certificate set; the spliced set is
    /// asserted equal before this row is emitted.
    digest: String,
    digest_identical: bool,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    technology: String,
    threads: usize,
    note: &'static str,
    circuits: Vec<CircuitResult>,
}

/// Picks the gate whose resize dirties the fewest sources (ties to the
/// lowest index) — the canonical near-input single-gate ECO.
fn smallest_cone_edit(nl: &Netlist, lib: &sta_cells::Library) -> (String, usize) {
    let mut best: Option<(usize, String)> = None;
    for idx in 0..nl.num_gates() {
        let inst = nl.net_label(nl.gate(GateId::from_index(idx)).output());
        let mut trial = nl.clone();
        let Ok(edit) = resize_gate(&mut trial, lib, &inst) else {
            continue;
        };
        let dirty = dirty_sources(&trial, &edit).iter().filter(|&&d| d).count();
        if best.as_ref().is_none_or(|(d, _)| dirty < *d) {
            best = Some((dirty, inst));
        }
    }
    let (dirty, inst) = best.expect("at least one gate is resizable");
    (inst, dirty)
}

fn main() {
    let only: Option<Vec<String>> = std::env::args()
        .nth(1)
        .map(|s| s.split(',').map(str::to_string).collect());
    let tech = Technology::n90();
    let lib = library();
    let tlib = timing_library(&tech);
    let corner = Corner::nominal(&tech);
    let threads = 1;
    let n_worst = 50;

    let mut circuits = Vec::new();
    for name in ["c432", "c880", "c1908"] {
        if let Some(only) = &only {
            if !only.iter().any(|o| o == name) {
                continue;
            }
        }
        let nl = benchmark(name).mapped.clone();
        let (inst, dirty_count) = smallest_cone_edit(&nl, lib);

        // Resident state, built once before the edit arrives (untimed:
        // the daemon amortizes it over the whole session).
        let cache_cfg = EnumerationConfig::new(corner)
            .with_n_worst(n_worst)
            .with_threads(threads);
        let enumr = PathEnumerator::new(&nl, lib, tlib, cache_cfg.clone());
        let (mut cache, stats) = SourceCache::build(&enumr);
        assert!(!stats.truncated, "{name}: resident build truncated");
        let kernel = enumr.kernel_arc();
        drop(enumr);

        let mut edited = nl.clone();
        let edit = resize_gate(&mut edited, lib, &inst).expect("chosen gate resizes");

        // Incremental: dirty cone -> filtered re-enumeration against the
        // resident kernel -> splice.
        let t0 = Instant::now();
        let dirty = dirty_sources(&edited, &edit);
        let upd_cfg = cache_cfg.clone().with_source_filter(Arc::new(dirty));
        let upd = PathEnumerator::with_prebuilt(&edited, lib, tlib, upd_cfg, Some(kernel), None);
        let stats = cache.update(&upd);
        let spliced = CertificateSet::new(&edited, 60.0, cache.splice());
        let incremental_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(!stats.truncated, "{name}: incremental update truncated");

        // Cold: what a batch restart pays for the same answer.
        let cold_cfg = EnumerationConfig::new(corner)
            .with_n_worst(n_worst)
            .with_threads(threads);
        let t0 = Instant::now();
        let (cold_paths, cold_stats) = PathEnumerator::new(&edited, lib, tlib, cold_cfg).run();
        let cold = CertificateSet::new(&edited, 60.0, cold_paths);
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(!cold_stats.truncated, "{name}: cold run truncated");

        let digest = digest_string(cold.to_json().as_bytes());
        let identical = digest_string(spliced.to_json().as_bytes()) == digest;
        assert!(
            identical,
            "{name}: spliced digest diverged from the cold run"
        );

        let speedup = cold_ms / incremental_ms;
        println!(
            "{name:>6}: edit {inst:<12} dirty {dirty_count:>3}/{:<3} sources  \
             cold {cold_ms:9.2} ms  incremental {incremental_ms:9.2} ms  ({speedup:6.1}x)",
            cache.num_sources(),
        );
        circuits.push(CircuitResult {
            circuit: name.to_string(),
            n_worst,
            edited_instance: inst,
            sources: cache.num_sources(),
            dirty_sources: dirty_count,
            paths: spliced.paths.len(),
            cold_ms,
            incremental_ms,
            speedup,
            digest,
            digest_identical: identical,
        });
    }

    let report = Report {
        bench: "serve",
        technology: tech.name.clone(),
        threads,
        note: "single-gate resize at the smallest dirty cone; incremental = dirty-cone \
               re-enumeration against the resident kernel + splice, digest-asserted \
               identical to the cold restart before timing is reported",
        circuits,
    };
    std::fs::write(
        "BENCH_serve.json",
        serde_json::to_string_pretty(&report).unwrap(),
    )
    .unwrap();
    println!("wrote BENCH_serve.json");
}
