//! Enumeration is byte-identical at any thread count.
//!
//! Every run goes through the root-task pool (see `sta-core`'s
//! `parallel` module); one thread is the pool with one worker. The pool
//! claims that `PathEnumerator::run` produces the same path list at any
//! thread count, and that in full enumeration even the `run_with`
//! *stream* is identical. These tests pin both claims on catalog circuits
//! and on randomly generated logic, and pin that the `max_decisions` /
//! `max_paths` budgets are run-wide at every thread count.

use std::sync::OnceLock;

use proptest::prelude::*;

use sta_cells::{Corner, Library, Technology};
use sta_charlib::{characterize, CharConfig, TimingLibrary};
use sta_circuits::randlogic::{random_logic, RandParams};
use sta_circuits::{catalog, map_netlist};
use sta_core::{EnumerationConfig, EnumerationStats, PathEnumerator, TruePath};
use sta_netlist::Netlist;

fn setup() -> (&'static Library, &'static TimingLibrary, Technology) {
    static LIB: OnceLock<Library> = OnceLock::new();
    static TLIB: OnceLock<TimingLibrary> = OnceLock::new();
    let tech = Technology::n90();
    let lib = LIB.get_or_init(Library::standard);
    let tlib = TLIB.get_or_init(|| {
        characterize(lib, &tech, &CharConfig::fast()).expect("characterization succeeds")
    });
    (lib, tlib, tech)
}

fn run_at(
    nl: &Netlist,
    lib: &Library,
    tlib: &TimingLibrary,
    cfg: &EnumerationConfig,
    threads: usize,
) -> (Vec<TruePath>, EnumerationStats) {
    let cfg = cfg.clone().with_threads(threads);
    PathEnumerator::new(nl, lib, tlib, cfg).run()
}

/// Byte-level equality via the serialized form — stricter than
/// `PartialEq` in that it also covers field ordering and formatting of
/// every float.
fn bytes(paths: &[TruePath]) -> String {
    serde_json::to_string(paths).expect("paths serialize")
}

/// Full enumeration: identical path lists at 1/2/4 threads on catalog
/// circuits, and the `run_with` stream itself is in serial order.
#[test]
fn full_enumeration_is_byte_identical_across_thread_counts() {
    let (lib, tlib, tech) = setup();
    for name in ["c17", "sample"] {
        let nl = catalog::mapped(name, lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (serial, serial_stats) = run_at(&nl, lib, tlib, &cfg, 1);
        assert!(!serial.is_empty(), "{name}: serial run found paths");
        for threads in [2, 4] {
            let (par, par_stats) = run_at(&nl, lib, tlib, &cfg, threads);
            assert_eq!(
                bytes(&serial),
                bytes(&par),
                "{name}: {threads}-thread run() differs from serial"
            );
            // Search effort is schedule-independent in full enumeration;
            // only the cache-hit counter depends on how the roots were
            // partitioned over workers.
            let mut normalized = par_stats;
            normalized.justify_cache_hits = serial_stats.justify_cache_hits;
            assert_eq!(serial_stats, normalized, "{name}: {threads}-thread stats");

            // The streamed emission order equals the serial order, not
            // just the sorted result.
            let mut serial_stream = Vec::new();
            PathEnumerator::new(&nl, lib, tlib, cfg.clone()).run_with(|p| serial_stream.push(p));
            let mut par_stream = Vec::new();
            PathEnumerator::new(&nl, lib, tlib, cfg.clone().with_threads(threads))
                .run_with(|p| par_stream.push(p));
            assert_eq!(
                bytes(&serial_stream),
                bytes(&par_stream),
                "{name}: {threads}-thread run_with stream differs"
            );
        }
    }
}

/// N-worst mode: the shared atomic bound prunes differently per
/// schedule, but the final result is still byte-identical.
#[test]
fn n_worst_is_byte_identical_across_thread_counts() {
    let (lib, tlib, tech) = setup();
    for (name, n) in [("c17", 3), ("c432", 40)] {
        let nl = catalog::mapped(name, lib).unwrap().unwrap();
        let cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(n);
        let (serial, _) = run_at(&nl, lib, tlib, &cfg, 1);
        assert_eq!(serial.len(), n, "{name}: expected {n} worst paths");
        for threads in [2, 4] {
            let (par, _) = run_at(&nl, lib, tlib, &cfg, threads);
            assert_eq!(
                bytes(&serial),
                bytes(&par),
                "{name}: {threads}-thread n-worst run differs from serial"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random mapped logic: a 2-thread full enumeration equals serial.
    #[test]
    fn random_logic_parallel_matches_serial(
        seed in 0u64..1_000,
        gates in 10usize..40,
        inputs in 3usize..6,
    ) {
        let (lib, tlib, tech) = setup();
        let params = RandParams {
            name: format!("rand_{seed}"),
            inputs,
            outputs: 2,
            gates,
            seed,
            window: 8,
        };
        let raw = random_logic(&params);
        let nl = map_netlist(&raw, lib).expect("mapping succeeds");
        let cfg = EnumerationConfig::new(Corner::nominal(&tech));
        let (serial, _) = run_at(&nl, lib, tlib, &cfg, 1);
        let (par, _) = run_at(&nl, lib, tlib, &cfg, 2);
        prop_assert_eq!(bytes(&serial), bytes(&par), "seed {}", seed);
    }
}

/// The decision budget counts across the whole run, not per root task:
/// each of W workers stops once the shared total it can see reaches the
/// cap, so a truncated run spends at most W × (`max_decisions` +
/// `justify_decision_limit` + 1) decisions.
#[test]
fn decision_budget_is_run_wide_at_every_thread_count() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let mut cfg = EnumerationConfig::new(Corner::nominal(&tech)).with_n_worst(50);
    cfg.max_decisions = 2_000;
    for threads in [2, 4] {
        let (_, stats) = run_at(&nl, lib, tlib, &cfg, threads);
        assert!(stats.truncated, "{threads} threads: the budget bites");
        let cap = threads as u64 * (cfg.max_decisions + cfg.justify_decision_limit + 1);
        assert!(
            stats.decisions <= cap,
            "{threads} threads: {} decisions > {cap}",
            stats.decisions
        );
    }
}

/// The path budget is run-wide too: a truncated full enumeration admits
/// at most W × `max_paths` paths.
#[test]
fn path_budget_is_run_wide_at_every_thread_count() {
    let (lib, tlib, tech) = setup();
    let nl = catalog::mapped("c432", lib).unwrap().unwrap();
    let mut cfg = EnumerationConfig::new(Corner::nominal(&tech));
    cfg.max_paths = Some(10);
    for threads in [2, 4] {
        let mut streamed = 0usize;
        let stats = PathEnumerator::new(&nl, lib, tlib, cfg.clone().with_threads(threads))
            .run_with(|_| streamed += 1);
        assert!(stats.truncated, "{threads} threads: the budget bites");
        assert!(
            streamed <= threads * 10,
            "{threads} threads: {streamed} paths > {}",
            threads * 10
        );
    }
}
