//! End-to-end Monte-Carlo campaign runner for the streaming experiment
//! engine — the binary behind `BENCH_pr6.json` and the CI cross-check.
//!
//! Runs a `sweep_ee_prob`-equivalent campaign (early vs lazy at three
//! fast-branch probabilities) at arbitrary trial counts through the
//! streaming producer/consumer pipeline (runtime-dispatched word width,
//! cache-blocked tapes, bounded stimulus queue; the harness is compiled
//! once per configuration and amortized across its points), then:
//!
//! 1. **Determinism check** — re-runs one point at a *different* thread
//!    count **and queue depth** and asserts the per-lane vector is
//!    bit-identical (the engine's shard/seed/reduce contract).
//! 2. **Backend equivalence** — the same point re-run on the forced
//!    single-word backend must be bit-identical lane by lane (neither
//!    runtime dispatch nor chunk size can change results), and a 64-trial
//!    sub-batch re-run through the **scalar interpreter on the unoptimized
//!    netlist** must match too — the end-to-end cross-check of the
//!    optimize → levelize → peephole → generate pipeline. Either
//!    divergence exits non-zero.
//! 3. **Analytic cross-check** — the lazy configuration's measured mean
//!    must respect the marked-graph `min_cycle_ratio` bound
//!    (`elastic_core::dmg_bridge`); early evaluation is expected to beat
//!    it. A violation exits non-zero.
//! 4. **Thread scaling** — one reference point at requested 1/2/4/8
//!    threads; each row records the requested *and* the effective
//!    (clamped) worker count, so an oversubscribed request measures the
//!    clamp working rather than timeslicing overhead (the BENCH_pr4.json
//!    scaling bug).
//!
//! Every JSON point carries `cycles_per_sec` (trials × cycles / wall), the
//! per-core metric the PR-6 acceptance gate compares against
//! `BENCH_pr4.json`, plus the `dispatch`/`backend` pair recording the
//! runtime width choice.
//!
//! Usage: `campaign [--trials N] [--threads N] [--cycles N] [--seed N]
//! [--queue N] [--backend {auto,scalar,wide,wide1,wide2,wide4,wide8}]
//! [--json PATH]`; the report is written only to the `--json` path.

use elastic_bench::exp::{
    ee_prob_experiment, lazy_bound_check, run_prepared, CampaignReport, CliOpts, EngineOpts,
    Experiment, ScalingRow, EE_CONFIGS,
};
use elastic_bench::{Backend, BackendSel, WideHarness};
use elastic_core::network::ElasticNetwork;
use elastic_core::systems::Config;

/// Fast-branch probabilities swept per configuration cell.
const CELLS_P: [f64; 3] = [0.0, 0.5, 1.0];

/// Builds the point spec for one (probability, config) cell — the shared
/// `sweep_ee_prob` construction, so campaign points stay equivalent to the
/// sweep's.
fn point(p_i: f64, config: Config, tag: &str, opts: &CliOpts) -> Experiment {
    ee_prob_experiment(p_i, config, tag, opts.cycles, opts.trials, opts.seed).expect("builds")
}

fn main() {
    // Defaults match the BENCH_pr4.json campaign (1024 trials x 2000
    // cycles) so `cycles_per_sec` is comparable point by point.
    let opts = CliOpts::parse(1024, 2000);
    let engine = opts.engine();
    let mut report = CampaignReport {
        name: format!(
            "pr6_campaign trials={} cycles={} threads={} queue={} backend={}",
            opts.trials,
            opts.cycles,
            opts.threads,
            opts.queue,
            opts.backend.label()
        ),
        ..Default::default()
    };
    println!(
        "campaign: {} trials x {} cycles per point, {} threads, queue {}, backend {}",
        opts.trials,
        opts.cycles,
        opts.threads,
        opts.queue,
        opts.backend.label()
    );

    // Compile each configuration once; every point of that configuration
    // (and every probe/replay below) reuses the same harness, so per-point
    // wall time measures the streaming pipeline, not recompilation.
    let prepared: Vec<(Config, ElasticNetwork, WideHarness)> = EE_CONFIGS
        .iter()
        .map(|&(config, _)| {
            let exp = point(0.0, config, "x", &opts);
            let (network, out) = exp.system.build().expect("builds");
            let harness = WideHarness::try_new(&network, out).expect("compiles");
            (config, network, harness)
        })
        .collect();
    let for_config = |config: Config| {
        let (_, network, harness) = prepared
            .iter()
            .find(|&&(c, _, _)| c == config)
            .expect("prepared above");
        (network, harness)
    };

    // Untimed warm-up: fault in the binary, allocator arenas, and branch
    // predictors before the measured sweep — the first point otherwise
    // pays the process's cold start, which per-point BENCH comparisons
    // would misread as engine throughput.
    for _ in 0..2 {
        for &(config, tag) in &EE_CONFIGS {
            let exp = point(0.5, config, tag, &opts);
            let (network, harness) = for_config(config);
            run_prepared(harness, network, &exp, &engine).expect("warm-up point");
        }
    }

    let cells: Vec<(f64, Config, &str)> = CELLS_P
        .iter()
        .flat_map(|&p| EE_CONFIGS.map(|(config, tag)| (p, config, tag)))
        .collect();
    for &(p_i, config, tag) in &cells {
        let exp = point(p_i, config, tag, &opts);
        let (network, harness) = for_config(config);
        let res = run_prepared(harness, network, &exp, &engine).expect("campaign point");
        println!(
            "  {:<18} {}  [{} shards, {} thread(s), {}/{}, {:.3}s, {:.2}M cycles/s]",
            res.label,
            res.summary(),
            res.shards,
            res.threads,
            res.dispatch,
            res.backend,
            res.wall_secs,
            res.cycles_per_sec() / 1e6
        );
        report.points.push(res);
    }

    // 1. Determinism: a different thread count and queue depth must be bit
    //    identical. With a single shard both runs clamp to 1 worker and the
    //    comparison is only a reproducibility check — the printed counts
    //    say which one ran.
    let probe = point(0.5, Config::ActiveAntiTokens, "early", &opts);
    let (probe_net, probe_harness) = for_config(Config::ActiveAntiTokens);
    let multi = report
        .points
        .iter()
        .find(|r| r.label == probe.label)
        .expect("probe point ran in the sweep above")
        .clone();
    let reference = run_prepared(
        probe_harness,
        probe_net,
        &probe,
        &EngineOpts {
            threads: if multi.threads == 1 { 2 } else { 1 },
            queue: if engine.queue == 1 { 8 } else { 1 },
            ..engine
        },
    )
    .expect("probe reference");
    assert_eq!(
        multi.stats.per_lane, reference.stats.per_lane,
        "campaign diverged between thread counts / queue depths"
    );
    println!(
        "determinism: {} thread(s)/queue {} == {} thread(s)/queue {} on {} lanes (bit-identical)",
        multi.threads,
        multi.queue,
        reference.threads,
        reference.queue,
        multi.stats.trials()
    );

    // 2. Backend equivalence. (a) The forced single-word backend re-chunks
    //    the same seeds into 64-lane shards — the per-lane vector must not
    //    move. (b) A 64-trial sub-batch through the scalar interpreter on
    //    the *unoptimized* netlist anchors the whole optimized pipeline to
    //    the reference semantics (full-size scalar replays would take
    //    minutes; 64 trials exercise every moving part).
    if multi.backend != Backend::Wide1.label() {
        let narrow = run_prepared(
            probe_harness,
            probe_net,
            &probe,
            &EngineOpts {
                backend: BackendSel::Fixed(Backend::Wide1),
                ..engine
            },
        )
        .expect("single-word replay");
        assert_eq!(
            multi.stats.per_lane, narrow.stats.per_lane,
            "re-chunking for the single-word backend changed the results"
        );
        println!(
            "backend equivalence: {} == wide1 on {} lanes (bit-identical)",
            multi.backend,
            multi.stats.trials()
        );
    }
    {
        let sub = 64.min(opts.trials);
        let scheds = WideHarness::schedules(probe_net, &probe.env, probe.seed, probe.cycles, sub);
        let scalar = probe_harness.run_scalar(&scheds);
        assert_eq!(
            &multi.stats.per_lane[..sub],
            &scalar.per_lane[..],
            "optimized pipeline diverged from the scalar interpreter"
        );
        println!("scalar anchor: first {sub} lanes == unoptimized gate-level interpreter");
    }

    // 3. Analytic cross-check: lazy throughput respects its marked-graph
    //    bound. The tolerance covers finite-horizon noise only: three
    //    CI-half-widths plus one token's worth of horizon truncation.
    for &(p_i, config, tag) in &cells {
        if config != Config::NoEarlyEval {
            continue;
        }
        let exp = point(p_i, config, tag, &opts);
        let (network, _) = for_config(config);
        let res = report
            .points
            .iter()
            .find(|r| r.label == exp.label)
            .expect("point ran");
        let tol = 3.0 * res.stats.ci95() + 1.0 / opts.cycles as f64;
        let check =
            lazy_bound_check(network, &exp.env, res.stats.mean(), tol).expect("bound analysis");
        println!(
            "bound check {:<14} measured {:.4} <= bound {:.4} (+{:.4}): {} [critical: {}]",
            exp.label,
            check.measured,
            check.bound,
            check.tolerance,
            if check.ok { "ok" } else { "VIOLATED" },
            check.critical.join(" -> ")
        );
        assert!(
            check.ok,
            "lazy configuration exceeded its min-cycle-ratio bound"
        );
        report.bound_checks.push((exp.label.clone(), check));
    }

    // 4. Thread scaling on one reference point. Every requested rung is
    //    measured and recorded with the worker count the engine actually
    //    spawned — on an oversubscribed host the wall times should be flat
    //    (the clamp at work), never *worse* than one thread.
    println!("scaling (p_i=0.50/early point, {} shards):", multi.shards);
    for threads in [1usize, 2, 4, 8] {
        let res = run_prepared(
            probe_harness,
            probe_net,
            &probe,
            &EngineOpts { threads, ..engine },
        )
        .expect("scaling point");
        println!(
            "  requested {threads} -> {} worker(s): {:.3}s",
            res.threads, res.wall_secs
        );
        report.scaling.push(ScalingRow {
            requested: threads,
            effective: res.threads,
            wall_secs: res.wall_secs,
        });
    }

    opts.json.write(&report.to_json());
}
