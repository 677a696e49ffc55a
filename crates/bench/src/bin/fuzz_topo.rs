//! Differential fuzz campaign over randomly generated elastic topologies.
//!
//! Samples `--count` seeded topologies (`elastic_core::gen`) — random
//! fork/join graphs with early-evaluation joins, anti-token counterflow,
//! buffer chains, variable-latency units and ring back edges, live by
//! construction — and cross-checks each of them three ways:
//!
//! 1. the behavioural reference simulator, whose per-channel transfer
//!    trace is replayed onto an independently lowered dual marked graph
//!    with per-arc token capacity windows (`elastic_dmg::exec::Replayer`);
//! 2. the PR-4 compiled execution pipeline (optimizing compile →
//!    peephole tape → packed-stimulus wide simulation), compared
//!    rail-for-rail per cycle per lane;
//! 3. the analytic `min_cycle_ratio` throughput bound, which lazy samples
//!    must respect.
//!
//! Any mismatch is shrunk to a minimal failing `TopoParams` and reported;
//! the process exits non-zero. `--inject` flips the campaign into its
//! sensitivity self-test: each seed compiles one fault from the full
//! family — dropped anti-token, rail flip, stuck-at-0/1 valids and stops,
//! duplicated token, lost token — into a probed-effective site, and every
//! injected fault must be caught by the differential; a silently accepted
//! fault is shrunk to minimal `TopoParams` and reported.
//!
//! Usage: `fuzz_topo [--seed N] [--count N] [--cycles N] [--lanes N]
//! [--threads N] [--json PATH] [--inject]`; every count is at least 1 and
//! `--lanes` at most 64, or the run exits 2 naming the flag.

use elastic_bench::exp::default_threads;
use elastic_bench::fuzz::{run_fuzz, FuzzOpts};
use elastic_lint::cli::{flag_value, parse_flag, reject_unknown_flags, ReportFile};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(
        &args,
        &[
            "--seed",
            "--count",
            "--cycles",
            "--lanes",
            "--threads",
            "--json",
        ],
        &["--inject"],
    );
    let opts = FuzzOpts {
        seed: parse_flag(&args, "--seed", 1),
        count: parse_flag(&args, "--count", 200),
        cycles: parse_flag(&args, "--cycles", 256),
        lanes: parse_flag(&args, "--lanes", 4),
        threads: parse_flag(&args, "--threads", default_threads()),
        inject: args.iter().any(|a| a == "--inject"),
    };
    if let Some(e) = opts.range_error() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let report_file = ReportFile::open(flag_value(&args, "--json").as_deref());

    println!(
        "fuzz_topo: {} topologies from seed {}, {} cycles x {} lanes, {} threads{}",
        opts.count,
        opts.seed,
        opts.cycles,
        opts.lanes,
        opts.threads,
        if opts.inject {
            " [inject: fault-family sensitivity self-test]"
        } else {
            ""
        }
    );

    let summary = run_fuzz(&opts);

    let passed = summary.reports().count();
    let ee: usize = summary.reports().map(|r| r.ee_joins).sum();
    let bound_checked = summary.reports().filter(|r| r.bound.is_some()).count();
    println!(
        "  {passed}/{} differentials clean ({ee} early joins exercised, \
         {bound_checked} bound checks) in {:.2}s",
        summary.outcomes.len(),
        summary.wall_secs
    );

    for o in summary.mismatches() {
        eprintln!("MISMATCH at seed {}:", o.seed);
        if let Err(e) = &o.report {
            eprintln!("  {e}");
        }
        eprintln!(
            "  minimal failing params: {:?}",
            o.minimal.as_ref().unwrap_or(&o.params)
        );
    }
    for o in summary.lint_violations() {
        eprintln!(
            "LINT VIOLATION at seed {}: {}\n  minimal failing params: {:?}",
            o.seed,
            o.lint.as_deref().unwrap_or("?"),
            o.minimal.as_ref().unwrap_or(&o.params)
        );
    }
    if opts.inject {
        let (lint_eligible, lint_caught) = summary.lint_sabotage_counts();
        println!("  lint token-drop sabotage: {lint_caught}/{lint_eligible} caught as E101");
        let (eligible, caught) = summary.injection_counts();
        println!("  injected faults: {caught}/{eligible} caught");
        for (class, e, c) in summary.injections_by_class() {
            if e > 0 {
                println!("    {class:<16} {c}/{e} caught");
            }
        }
        for m in summary.missed() {
            eprintln!(
                "MISSED INJECTION at seed {} (class {}): minimal params {:?}",
                m.seed,
                m.fault.unwrap_or("?"),
                m.minimal.as_ref().unwrap_or(&m.params)
            );
        }
        if eligible == 0 {
            eprintln!(
                "error: no topology in this band had an effective site for any fault \
                 class — the sensitivity self-test proved nothing (widen --count or \
                 move --seed)"
            );
        }
    }

    let name = format!(
        "fuzz_topo seed={} count={} cycles={} lanes={}{}",
        opts.seed,
        opts.count,
        opts.cycles,
        opts.lanes,
        if opts.inject { " inject" } else { "" }
    );
    report_file.write(&summary.to_json(&name));

    if !summary.ok() {
        eprintln!("fuzz_topo: FAILED");
        std::process::exit(1);
    }
    println!("fuzz_topo: ok");
}
