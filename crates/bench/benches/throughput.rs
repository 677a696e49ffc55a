//! Criterion benches: simulation speed of the Table 1 configurations, the
//! linear pipeline, and the DMG analyses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use elastic_core::sim::{BehavSim, EnvConfig, RandomEnv};
use elastic_core::systems::{linear_pipeline, paper_example, Config};

fn bench_table1(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_sim");
    g.sample_size(10);
    for config in Config::all() {
        g.bench_with_input(
            BenchmarkId::from_parameter(config.label()),
            &config,
            |b, &config| {
                b.iter(|| elastic_bench::run_table1_row(config, 2000, 7));
            },
        );
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_sim");
    for stages in [4usize, 16, 64] {
        g.bench_with_input(
            BenchmarkId::from_parameter(stages),
            &stages,
            |b, &stages| {
                let (net, _, _) = linear_pipeline(stages, stages / 2).expect("builds");
                b.iter(|| {
                    let mut sim = BehavSim::new(&net).expect("valid");
                    sim.set_check_protocol(false);
                    let mut env = RandomEnv::new(1, EnvConfig::default());
                    sim.run(&mut env, 1000).expect("runs");
                    sim.report().cycles
                });
            },
        );
    }
    g.finish();
}

fn bench_dmg(c: &mut Criterion) {
    c.bench_function("min_cycle_ratio_fig9", |b| {
        let sys = paper_example(Config::NoEarlyEval).expect("builds");
        b.iter(|| {
            elastic_core::dmg_bridge::lazy_throughput_bound(&sys.network, &sys.env_config)
                .expect("bound")
                .bound
        });
    });
    c.bench_function("dmg_reachability_fig1", |b| {
        let g = elastic_dmg::examples::fig1_dmg();
        b.iter(|| {
            elastic_dmg::analysis::explore(&g, elastic_dmg::analysis::ReachOptions::default())
                .expect("explores")
                .num_states()
        });
    });
}

/// 64 Monte-Carlo trials through the bit-parallel backend vs one-by-one
/// through the scalar gate-level interpreter — the per-trial speedup that
/// makes the Fig. 5–9 sweeps cheap. The wide side generates its stimulus
/// inside the loop; the scalar side replays pre-built schedules.
fn bench_wide_mc(c: &mut Criterion) {
    use elastic_bench::WideHarness;
    use elastic_netlist::wide::LANES;
    let sys = paper_example(Config::ActiveAntiTokens).expect("builds");
    let harness = WideHarness::new(&sys.network, sys.output_channel);
    let plan = harness.program().block_plan(1, usize::MAX);
    let scheds = WideHarness::schedules(&sys.network, &sys.env_config, 3, 500, LANES);
    let mut g = c.benchmark_group("mc_64_trials_500_cycles");
    g.sample_size(10);
    g.bench_with_input(BenchmarkId::from_parameter("wide_backend"), &(), |b, ()| {
        b.iter(|| {
            let stim = harness
                .generate_stimulus(&sys.network, &sys.env_config, 3, 500, LANES, 1)
                .expect("generates");
            harness
                .try_run_stim(&stim, LANES, &plan)
                .expect("runs")
                .mean()
        });
    });
    g.bench_with_input(
        BenchmarkId::from_parameter("scalar_backend"),
        &(),
        |b, ()| {
            b.iter(|| harness.run_scalar(&scheds).mean());
        },
    );
    g.finish();
}

/// Per-backend attribution of the execution pipeline on one 512-trial
/// batch: stimulus generation plus the tape, in shards of each multi-word
/// backend's lane count.
fn bench_mc_backends(c: &mut Criterion) {
    use elastic_bench::{Backend, WideHarness, MAX_TRIALS_PER_RUN};
    use elastic_netlist::wide::LANES;
    let sys = paper_example(Config::ActiveAntiTokens).expect("builds");
    let harness = WideHarness::new(&sys.network, sys.output_channel);
    let mut g = c.benchmark_group("mc_512_trials_500_cycles");
    g.sample_size(10);
    for backend in [
        Backend::Wide1,
        Backend::Wide2,
        Backend::Wide4,
        Backend::Wide8,
    ] {
        let lanes = backend.lanes();
        let width = lanes / LANES;
        let plan = harness.program().block_plan(width, usize::MAX);
        let run = |seed: u64| -> f64 {
            let stim = harness
                .generate_stimulus(&sys.network, &sys.env_config, seed, 500, lanes, width)
                .expect("generates");
            harness
                .try_run_stim(&stim, lanes, &plan)
                .expect("runs")
                .mean()
        };
        g.bench_with_input(
            BenchmarkId::from_parameter(backend.label()),
            &backend,
            |b, _| {
                b.iter(|| {
                    (0..MAX_TRIALS_PER_RUN / lanes)
                        .map(|i| run(3 + (i * lanes) as u64))
                        .sum::<f64>()
                });
            },
        );
    }
    g.finish();
}

fn bench_gate_sim(c: &mut Criterion) {
    c.bench_function("gate_level_fig9_1k_cycles", |b| {
        use elastic_core::compile::{compile, CompileOptions};
        use elastic_netlist::sim::Simulator;
        let sys = paper_example(Config::ActiveAntiTokens).expect("builds");
        let compiled = compile(
            &sys.network,
            &CompileOptions {
                data_width: 2,
                ..CompileOptions::default()
            },
        )
        .expect("compiles");
        let inputs: Vec<_> = compiled.netlist.inputs().to_vec();
        b.iter(|| {
            let mut sim = Simulator::new(&compiled.netlist).expect("valid");
            let drive: Vec<_> = inputs.iter().map(|&i| (i, true)).collect();
            for _ in 0..1000 {
                sim.cycle(&drive).expect("runs");
            }
            sim.time()
        });
    });
}

criterion_group!(
    benches,
    bench_table1,
    bench_pipeline,
    bench_dmg,
    bench_gate_sim,
    bench_wide_mc,
    bench_mc_backends
);
criterion_main!(benches);
