//! Fault-injection recovery-time Monte-Carlo campaign — the binary behind
//! `BENCH_pr7.json` and the CI fault smoke.
//!
//! Sweeps fault classes × injection sites × generated topologies: every
//! topology × class job compiles the network with a corruption gate
//! spliced into a probed-effective rail, arms an independent single-shot
//! injection window per packed lane, and scores each lane's trace with a
//! streaming SELF recovery detector on the faulted channel — did the
//! trace re-enter the legal `(I*R*T)*` language, after how many cycles,
//! and at what throughput cost? Per class the report carries the
//! recovery-time distribution (p50/p99), the non-recovery rate and the
//! mean throughput dip versus the fault-free run of the same stimulus.
//! Each window is a one-shot fault process run by the stabilization
//! engine (`elastic_bench::stabilize`).
//!
//! The whole report is bit-identical for every thread count and queue
//! depth (seeds derive from job indices, reduction is in job order);
//! `--check` re-runs the campaign at a different worker count and asserts
//! exactly that before writing the JSON.
//!
//! Usage: `fault_campaign [--topologies N] [--trials N] [--cycles N]
//! [--seed N] [--threads N] [--queue N] [--window N] [--tail N]
//! [--classes a,b,...|all] [--check] [--json PATH]`
//! (JSON defaults to `BENCH_pr7.json`; `--trials` is lanes per job,
//! `--window` the armed cycles per lane, `1..=cycles`).

use elastic_bench::exp::{check_determinism, default_threads, parse_classes};
use elastic_bench::stabilize::{run_fault_sweep, StabilizationOpts, FAULT_CLASSES};
use elastic_lint::cli::{parse_flag, reject_unknown_flags};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(
        &args,
        &[
            "--topologies",
            "--seed",
            "--cycles",
            "--trials",
            "--window",
            "--tail",
            "--threads",
            "--queue",
            "--classes",
            "--json",
        ],
        &["--check"],
    );
    let opts = StabilizationOpts {
        topologies: parse_flag(&args, "--topologies", 100usize).max(1),
        seed: parse_flag(&args, "--seed", 1),
        cycles: parse_flag(&args, "--cycles", 256usize),
        lanes: parse_flag(&args, "--trials", 64usize),
        intensities: vec![parse_flag(&args, "--window", 1usize)],
        recovery_tail: parse_flag(&args, "--tail", 16usize),
        threads: parse_flag(&args, "--threads", default_threads()),
        queue: parse_flag(&args, "--queue", 2usize),
        classes: parse_classes(&args, &FAULT_CLASSES),
        ..StabilizationOpts::default()
    };
    let json_path = parse_flag(&args, "--json", "BENCH_pr7.json".to_string());

    println!(
        "fault_campaign: {} topologies x {} classes, {} trials x {} cycles each, \
         window {}, tail {}, {} threads",
        opts.topologies,
        opts.classes.len(),
        opts.lanes,
        opts.cycles,
        opts.intensities[0],
        opts.recovery_tail,
        opts.threads
    );

    let report = run_fault_sweep(&opts).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    println!(
        "  {:<16} {:>5} {:>7} {:>9} {:>9} {:>8} {:>8} {:>8} {:>9}",
        "class", "sites", "trials", "disturbed", "recovered", "p50", "p99", "nonrec", "mean dip"
    );
    for c in &report.classes {
        let p = &c.points[0];
        println!(
            "  {:<16} {:>5} {:>7} {:>9} {:>9} {:>8.1} {:>8.1} {:>7.1}% {:>9.4}",
            c.class,
            p.sites,
            p.trials,
            p.disturbed,
            p.stabilized,
            p.stab_p50,
            p.stab_p99,
            p.non_stabilization_rate * 100.0,
            p.mean_disturbed_dip
        );
    }
    println!(
        "  {} jobs in {:.2}s on {} worker(s)",
        report.jobs.len(),
        report.wall_secs,
        report.threads
    );

    // Sensitivity gate: a campaign in which no class disturbed anything
    // measured nothing — fail loudly instead of archiving empty
    // distributions (mirrors the fuzz campaign's eligible > 0 rule).
    let disturbed: usize = report.classes.iter().map(|c| c.points[0].disturbed).sum();
    if !report.classes.is_empty() && disturbed == 0 {
        eprintln!(
            "error: no injected fault disturbed any lane — widen --topologies or move --seed"
        );
        std::process::exit(1);
    }

    if args.iter().any(|a| a == "--check") {
        check_determinism(&report, run_fault_sweep);
    }

    std::fs::write(&json_path, report.to_recovery_json()).expect("write json");
    println!("wrote {json_path}");
}
