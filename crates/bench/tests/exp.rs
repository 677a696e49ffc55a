//! Property tests for the sharded Monte-Carlo experiment engine: the
//! shard/seed/reduce pipeline must be indistinguishable from driving the
//! 64-lane words directly, for any trial count and any thread count.

use elastic_bench::exp::{
    effective_threads, run_experiment, shards_for, EngineOpts, Experiment, SystemSpec,
};
use elastic_bench::{Backend, BackendSel, WideHarness};
use elastic_core::sim::{EnvConfig, SinkCfg, SourceCfg};
use elastic_core::systems::linear_pipeline;
use elastic_netlist::wide::LANES;
use proptest::prelude::*;

/// A small but non-trivial environment: throttled source, back-pressuring
/// and killing sink, so schedules actually differ between seeds.
fn stress_env() -> EnvConfig {
    EnvConfig {
        default_source: SourceCfg {
            rate: 0.8,
            ..Default::default()
        },
        default_sink: SinkCfg {
            stop_prob: 0.25,
            kill_prob: 0.1,
        },
        ..Default::default()
    }
}

fn pipeline_experiment(trials: usize, seed: u64, cycles: usize) -> Experiment {
    let (network, _, output) = linear_pipeline(2, 1).unwrap();
    Experiment {
        label: format!("prop/{trials}/{seed}"),
        system: SystemSpec::Custom { network, output },
        env: stress_env(),
        cycles,
        trials,
        seed,
    }
}

/// Default engine options on `threads` workers.
fn workers(threads: usize) -> EngineOpts {
    EngineOpts {
        threads,
        ..EngineOpts::default()
    }
}

/// Reference path: generate and run each 64-lane word directly through
/// the single-word `WideHarness` path (no worker pool, no cursor, no
/// reduction) and flatten in seed order.
fn direct_per_lane(exp: &Experiment) -> Vec<f64> {
    let (net, out) = exp.system.build().unwrap();
    let h = WideHarness::new(&net, out);
    let plan = h.program().block_plan(1, usize::MAX);
    shards_for(exp.trials, exp.seed, LANES)
        .iter()
        .flat_map(|s| {
            let stim = h
                .generate_stimulus(&net, &exp.env, s.seed, exp.cycles, s.lanes, 1)
                .unwrap();
            h.try_run_stim(&stim, s.lanes, &plan).unwrap().per_lane
        })
        .collect()
}

proptest! {
    /// Sharded `trials = N` reproduces the direct single-word runs exactly
    /// for the covered lanes — including `N < 64` and `N % 64 != 0`, where
    /// the final partial word's dead lanes must contribute nothing.
    #[test]
    fn sharded_equals_direct_wide_runs(n in 1usize..150, seed in 0u64..1000) {
        let exp = pipeline_experiment(n, seed, 30);
        let res = run_experiment(&exp, &workers(3)).unwrap();
        prop_assert_eq!(res.stats.trials(), n);
        let direct = direct_per_lane(&exp);
        prop_assert_eq!(&res.stats.per_lane, &direct);
        // Means agree exactly, not just approximately: same summands, same
        // order.
        let direct_mean = direct.iter().sum::<f64>() / direct.len() as f64;
        prop_assert_eq!(res.stats.mean(), direct_mean);
    }

    /// Per-shard seeding is a pure function of (base seed, shard index):
    /// every thread count flattens to the same per-lane vector.
    #[test]
    fn seeding_is_deterministic_across_thread_counts(
        n in 1usize..200,
        seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        let exp = pipeline_experiment(n, seed, 25);
        let reference = run_experiment(&exp, &workers(1)).unwrap();
        let multi = run_experiment(&exp, &workers(threads)).unwrap();
        prop_assert_eq!(&reference.stats.per_lane, &multi.stats.per_lane);
        prop_assert_eq!(reference.stats.cycles, multi.stats.cycles);
    }

    /// The shard partition itself: covers exactly `seed..seed+n` in order,
    /// all words full except possibly the last — for the classic 64-lane
    /// chunking and every wider backend chunk size.
    #[test]
    fn shard_partition_is_exact(n in 1usize..5000, seed in 0u64..u64::MAX / 2) {
        for chunk in [LANES, 2 * LANES, 4 * LANES, 8 * LANES] {
            let sh = shards_for(n, seed, chunk);
            prop_assert_eq!(sh.len(), n.div_ceil(chunk));
            let mut next = seed;
            for (i, s) in sh.iter().enumerate() {
                prop_assert_eq!(s.seed, next);
                let full = i + 1 < sh.len();
                prop_assert!(if full { s.lanes == chunk } else { (1..=chunk).contains(&s.lanes) });
                next += s.lanes as u64;
            }
            prop_assert_eq!(next, seed + n as u64);
        }
    }

    /// Tentpole invariant: the streaming pipeline is bit-identical to the
    /// direct reference for every queue depth, cache-block budget, thread
    /// count, and backend (runtime-dispatched or forced) — streaming is an
    /// execution strategy, never a semantic knob.
    #[test]
    fn streaming_is_invariant_under_queue_block_and_backend(
        n in 1usize..150,
        seed in 0u64..500,
        threads in 1usize..5,
    ) {
        let exp = pipeline_experiment(n, seed, 30);
        let direct = direct_per_lane(&exp);
        for queue in [1usize, 2, 8] {
            for block_bytes in [usize::MAX, 4096, 64] {
                for backend in [
                    BackendSel::Auto,
                    BackendSel::Fixed(Backend::Wide1),
                    BackendSel::Fixed(Backend::Wide8),
                ] {
                    let opts = EngineOpts { threads, queue, backend, block_bytes };
                    let res = run_experiment(&exp, &opts).unwrap();
                    prop_assert_eq!(
                        &res.stats.per_lane, &direct,
                        "queue={} block={} backend={}",
                        queue, block_bytes, opts.backend.label()
                    );
                }
            }
        }
    }
}

/// The scalar reference backend runs its shards through the same worker
/// pool as the wide backends: every worker count and queue depth replays
/// the direct single-word vector, the reported depth included.
#[test]
fn scalar_backend_is_invariant_under_workers_and_queue() {
    let exp = pipeline_experiment(150, 11, 30);
    let direct = direct_per_lane(&exp);
    for (threads, queue) in [(1, 1), (2, 2), (3, 8)] {
        let opts = EngineOpts {
            queue,
            backend: BackendSel::Fixed(Backend::Scalar),
            ..workers(threads)
        };
        let res = run_experiment(&exp, &opts).unwrap();
        assert_eq!(
            res.stats.per_lane, direct,
            "{threads} workers, queue {queue}"
        );
        assert_eq!((res.backend, res.shards, res.queue), ("scalar", 3, queue));
    }
}

/// Satellite regression: a single-trial campaign must report finite
/// statistics (the `n − 1` sample-variance divisor degenerates at one
/// trial) and serialize to JSON without any `NaN`/`inf` literal.
#[test]
fn single_trial_campaign_has_finite_stats_and_clean_json() {
    use elastic_bench::exp::CampaignReport;
    let exp = pipeline_experiment(1, 42, 50);
    let res = run_experiment(&exp, &workers(2)).unwrap();
    assert_eq!(res.stats.trials(), 1);
    assert!(res.stats.mean().is_finite());
    assert_eq!(
        res.stats.stddev(),
        0.0,
        "sample sd of one trial is 0, not NaN"
    );
    assert_eq!(
        res.stats.ci95(),
        0.0,
        "CI half-width of one trial is 0, not NaN"
    );
    assert!(res.summary().chars().all(|c| c != 'N'), "{}", res.summary());
    let report = CampaignReport {
        name: "trials=1".into(),
        points: vec![res],
        ..Default::default()
    };
    let json = report.to_json().to_string();
    assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    assert!(json.contains("\"sd\": 0.000000"), "{json}");
    assert!(json.contains("\"ci95\": 0.000000"), "{json}");
}

/// Satellite regression (the BENCH_pr4.json scaling bug): an oversubscribed
/// thread request no longer spawns more workers than the host can run or
/// the shard count can feed. The request is honored in the report
/// (`requested_threads`) but the engine clamps the spawned pool, and the
/// results are bit-identical to the single-threaded run.
#[test]
fn oversubscribed_thread_requests_are_clamped() {
    // 80 trials on the auto-dispatched width collapse to very few shards;
    // request far more threads than either the shards or this machine.
    let exp = pipeline_experiment(80, 7, 25);
    let opts = EngineOpts {
        threads: 64,
        ..EngineOpts::default()
    };
    let res = run_experiment(&exp, &opts).unwrap();
    assert_eq!(res.requested_threads, 64);
    assert_eq!(res.threads, effective_threads(64, res.shards));
    assert!(
        res.threads <= res.shards,
        "spawned {} workers for {} shards",
        res.threads,
        res.shards
    );
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    assert!(
        res.threads <= avail,
        "spawned {} workers on a {avail}-way host",
        res.threads
    );
    let single = run_experiment(&exp, &workers(1)).unwrap();
    assert_eq!(single.stats.per_lane, res.stats.per_lane);

    // The clamp is monotone and bounded for any request.
    for requested in [1usize, 2, 7, 64, 1024] {
        let eff = effective_threads(requested, 4);
        assert!(eff >= 1 && eff <= 4.min(avail.max(1)));
        assert!(eff <= requested);
    }
    assert_eq!(effective_threads(0, 4), 1, "zero requests still run");
    assert_eq!(effective_threads(8, 0), 1, "zero shards still spawn one");
}

/// The generated-topology system spec plugs into the Monte-Carlo engine
/// like any other system: deterministic per-lane results for any thread
/// count, using the topology's own environment.
#[test]
fn generated_system_spec_runs_in_the_engine() {
    use elastic_core::gen::{self, TopoParams};
    let params = TopoParams::sample(3);
    let sys = gen::generate(&params).unwrap();
    let exp = Experiment {
        label: "gen/3".into(),
        system: SystemSpec::Generated(params),
        env: sys.env.clone(),
        cycles: 60,
        trials: 70,
        seed: 9,
    };
    let one = run_experiment(&exp, &workers(1)).unwrap();
    let multi = run_experiment(&exp, &workers(3)).unwrap();
    assert_eq!(one.stats.per_lane, multi.stats.per_lane);
    assert_eq!(one.stats.trials(), 70);
}

/// A NaN or infinite source rate or sink probability is a typed error at
/// every engine entry point. A NaN stop probability used to stop every
/// lane of the streaming engine while the scalar backend never stopped,
/// and a NaN rate panicked the scalar backend while the streaming engine
/// never offered.
#[test]
fn non_finite_probabilities_are_typed_errors() {
    use elastic_bench::exp::{run_prepared, ExpError};
    let base = pipeline_experiment(70, 3, 20);
    let (net, out) = base.system.build().unwrap();
    let harness = WideHarness::new(&net, out);
    let mut nan_stop = base.clone();
    nan_stop.env.default_sink.stop_prob = f64::NAN;
    let mut nan_rate = base.clone();
    nan_rate.env.default_source.rate = f64::NAN;
    let mut inf_kill = base.clone();
    inf_kill.env.sinks.insert(
        "snk".into(),
        SinkCfg {
            stop_prob: 0.1,
            kill_prob: f64::INFINITY,
        },
    );
    for (exp, component, field) in [
        (&nan_stop, "default sink", "stop_prob"),
        (&nan_rate, "default source", "rate"),
        (&inf_kill, "snk", "kill_prob"),
    ] {
        let scalar = EngineOpts {
            backend: BackendSel::Fixed(Backend::Scalar),
            ..workers(1)
        };
        let results = [
            run_experiment(exp, &workers(1)),
            run_experiment(exp, &scalar),
            run_prepared(&harness, &net, exp, &EngineOpts::default()),
        ];
        for res in results {
            match res {
                Err(ExpError::NonFiniteProbability {
                    component: c,
                    field: f,
                    ..
                }) => assert_eq!((c.as_str(), f), (component, field)),
                other => panic!("{component} {field}: {other:?}"),
            }
        }
    }
    assert!(run_prepared(&harness, &net, &base, &EngineOpts::default()).is_ok());
}
