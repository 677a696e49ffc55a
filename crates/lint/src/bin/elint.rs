//! `elint` — static analysis driver for elastic systems.
//!
//! Lints the five named paper systems (Table 1 configurations) and,
//! optionally, a sweep of generated topologies, at every IR level: the
//! component network (token-liveness, arity, counterflow, reachability,
//! throughput bound), then the compiled gate netlist's levelized tapes
//! before and after peephole optimization, and after folding to the inputs
//! the system's environment holds fixed (translation validation), where a
//! run of the unfolded tape also re-checks every flip-flop the fold
//! dropped (E206). The fold is linted on the full compile and on the tape
//! the Monte-Carlo engine runs, the compile pruned to the output channel's
//! rails.
//!
//! Usage: `elint [--seed N] [--gen-count N] [--corpus] [--skip-tape]
//! [--json PATH] [--quiet]`
//!
//! `--corpus` additionally lints every benchmark-corpus design
//! (`elastic_core::corpus`) under all five control configurations.
//!
//! Exits 0 when no target produced an error diagnostic, 1 otherwise
//! (warnings never fail the run), 2 on a usage error (an unknown flag, or
//! a flag missing its value) or a `--json` path that cannot be written.
//! No report file is written without `--json`.

use elastic_core::compile::{compile, CompileOptions, Compiled};
use elastic_core::corpus::{self, CorpusConfig, Knobs, DESIGNS};
use elastic_core::gen::{generate, TopoParams};
use elastic_core::systems::{paper_example, Config};
use elastic_core::verify::{NetlistTestbench, PackedStimulus};
use elastic_core::ChanId;
use elastic_lint::cli::{flag_value, parse_flag, reject_unknown_flags, ReportFile};
use elastic_lint::json::Json;
use elastic_lint::tape::check_fold_pins;
use elastic_lint::{lint_network_with_env, lint_program, LintReport};
use elastic_netlist::levelize::Program;
use elastic_netlist::opt::optimize_observed;
use elastic_netlist::reach::DEEP_BUDGET;

/// The flags `elint` reads that take a value.
const VALUE_FLAGS: [&str; 3] = ["--seed", "--gen-count", "--json"];
/// The flags `elint` reads that stand alone.
const SWITCHES: [&str; 3] = ["--corpus", "--skip-tape", "--quiet"];

/// One linted target: its name and the merged findings of every pass
/// level that ran on it.
struct Target {
    name: String,
    report: LintReport,
}

/// Network + tape lint of one system. Tape validation compiles the
/// network (control rails and the payload bits its guards read) and
/// checks the levelized program both raw (strict dependency order) and
/// after the peephole pass, then the folds of the full and of the
/// observed tape (the compile pruned to the rails of `out`).
fn lint_system(
    name: &str,
    net: &elastic_core::network::ElasticNetwork,
    env: &elastic_core::sim::EnvConfig,
    out: ChanId,
    tape: bool,
) -> Target {
    let mut report = lint_network_with_env(net, env);
    if tape && report.is_clean() {
        match compile(net, &CompileOptions::default()) {
            Ok(compiled) => {
                match Program::compile(&compiled.netlist) {
                    Ok(p) => report.merge(lint_program(&compiled.netlist, &p, false)),
                    Err(e) => report.diagnostics.push(elastic_lint::Diagnostic::error(
                        "E204",
                        name.to_string(),
                        format!("levelization failed: {e}"),
                    )),
                }
                if let Ok((p, _)) = Program::compile_optimized(&compiled.netlist) {
                    report.merge(lint_program(&compiled.netlist, &p, true));
                    report.merge(lint_folded(name, net, env, &compiled.netlist, &p, "folded"));
                }
                report.merge(lint_observed(name, net, env, &compiled, out));
            }
            Err(e) => report.diagnostics.push(elastic_lint::Diagnostic::error(
                "E102",
                name.to_string(),
                format!("compile failed: {e}"),
            )),
        }
    }
    Target {
        name: name.to_string(),
        report,
    }
}

/// Tape lint of `optimized` folded to the inputs `env` holds fixed
/// ([`Program::fold_inputs`] under [`DEEP_BUDGET`], the budget of the
/// deepest fold the Monte-Carlo engine runs, whose dropped flip-flops
/// include those of the first-use fold), and the check that no flip-flop
/// the fold dropped leaves its power-up value on a run of `optimized` in
/// that environment ([`check_fold_pins`]); its diagnostics' sites start
/// with `tape`.
fn lint_folded(
    name: &str,
    net: &elastic_core::network::ElasticNetwork,
    env: &elastic_core::sim::EnvConfig,
    netlist: &elastic_netlist::Netlist,
    optimized: &Program,
    tape: &str,
) -> LintReport {
    // A one-lane, one-cycle matrix carries the environment's fixed inputs.
    let folded = NetlistTestbench::new(net, netlist)
        .and_then(|tb| PackedStimulus::generate(&tb, net, env, 0, 1, 1, 1))
        .map_err(|e| e.to_string())
        .and_then(|stim| {
            let fixed = stim.fixed_inputs().to_vec();
            let folded = optimized.fold_inputs(&fixed, DEEP_BUDGET);
            folded
                .map(|(folded, _)| (folded, fixed))
                .map_err(|e| e.to_string())
        });
    match folded {
        Ok((folded, fixed)) => {
            let mut report = lint_program(netlist, &folded, true);
            let pins = check_fold_pins(netlist, optimized, &folded, &fixed);
            report.diagnostics.extend(pins);
            for d in &mut report.diagnostics {
                d.site = format!("{tape} {}", d.site);
            }
            report
        }
        Err(e) => LintReport::new(vec![elastic_lint::Diagnostic::error(
            "E204",
            name.to_string(),
            format!("folding to the environment failed: {e}"),
        )]),
    }
}

/// [`lint_folded`] on the tape the Monte-Carlo engine runs: the compile
/// pruned to the `V⁺/S⁺/V⁻` rails of the output channel `out`
/// ([`optimize_observed`], as `elastic_bench::SimLowering` lowers it).
/// Its smaller state space lets the deep search finish where the full
/// compile's gives up, so E206 re-checks the flip-flops the engine's deep
/// fold drops; its diagnostics' sites start with `observed folded`.
fn lint_observed(
    name: &str,
    net: &elastic_core::network::ElasticNetwork,
    env: &elastic_core::sim::EnvConfig,
    compiled: &Compiled,
    out: ChanId,
) -> LintReport {
    let o = &compiled.channels[out.index()];
    let lowered = optimize_observed(&compiled.netlist, &[o.vp, o.sp, o.vn])
        .and_then(|(netlist, _)| Program::compile_optimized(&netlist).map(|(p, _)| (netlist, p)));
    match lowered {
        Ok((netlist, p)) => lint_folded(name, net, env, &netlist, &p, "observed folded"),
        Err(e) => LintReport::new(vec![elastic_lint::Diagnostic::error(
            "E204",
            name.to_string(),
            format!("observed-rail lowering failed: {e}"),
        )]),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    reject_unknown_flags(&args, &VALUE_FLAGS, &SWITCHES);
    let seed: u64 = parse_flag(&args, "--seed", 2007);
    let gen_count: usize = parse_flag(&args, "--gen-count", 0);
    let corpus = args.iter().any(|a| a == "--corpus");
    let tape = !args.iter().any(|a| a == "--skip-tape");
    let quiet = args.iter().any(|a| a == "--quiet");
    let report_file = ReportFile::open(flag_value(&args, "--json").as_deref());

    let mut targets = Vec::new();
    for config in Config::all() {
        let sys = match paper_example(config) {
            Ok(sys) => sys,
            Err(e) => {
                eprintln!("error: building {} failed: {e}", config.label());
                std::process::exit(2);
            }
        };
        targets.push(lint_system(
            config.label(),
            &sys.network,
            &sys.env_config,
            sys.output_channel,
            tape,
        ));
    }
    if corpus {
        for design in DESIGNS {
            for config in CorpusConfig::all() {
                let name = format!("{design}/{}", config.tag());
                match corpus::build(design, config, &Knobs::default()) {
                    Ok(sys) => targets.push(lint_system(
                        &name,
                        &sys.network,
                        &sys.env,
                        sys.output_channel,
                        tape,
                    )),
                    Err(e) => {
                        eprintln!("error: building {name} failed: {e}");
                        std::process::exit(2);
                    }
                }
            }
        }
    }
    for i in 0..gen_count {
        let topo_seed = seed.wrapping_add(i as u64);
        let params = TopoParams::sample(topo_seed);
        match generate(&params) {
            Ok(sys) => targets.push(lint_system(
                &format!("gen-{topo_seed}"),
                &sys.network,
                &sys.env,
                sys.output_channel,
                tape,
            )),
            Err(e) => targets.push(Target {
                name: format!("gen-{topo_seed}"),
                report: LintReport::new(vec![elastic_lint::Diagnostic::error(
                    "E104",
                    format!("gen-{topo_seed}"),
                    format!("generation failed: {e}"),
                )]),
            }),
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for t in &targets {
        let e = t.report.errors().count();
        let w = t.report.warnings().count();
        errors += e;
        warnings += w;
        if !quiet && (e + w > 0) {
            println!("== {}", t.name);
            print!("{}", t.report.render_human());
        }
    }
    println!(
        "elint: {} target(s), {errors} error(s), {warnings} warning(s)",
        targets.len()
    );

    let report = Json::object([
        (
            "targets",
            Json::array(targets.iter().map(|t| {
                Json::object([
                    ("name", t.name.as_str().into()),
                    ("errors", t.report.errors().count().into()),
                    ("warnings", t.report.warnings().count().into()),
                    ("diagnostics", t.report.to_json()),
                ])
            })),
        ),
        ("errors", errors.into()),
        ("warnings", warnings.into()),
        ("ok", (errors == 0).into()),
    ]);
    report_file.write(&report);

    std::process::exit(i32::from(errors > 0));
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_lint::cli::unknown_flag;

    #[test]
    fn every_elint_flag_is_known_and_typos_are_not() {
        let unknown = |line: &str| -> Option<String> {
            let args: Vec<String> = std::iter::once("elint")
                .chain(line.split_whitespace())
                .map(String::from)
                .collect();
            unknown_flag(&args, &VALUE_FLAGS, &SWITCHES).map(String::from)
        };
        assert_eq!(
            unknown("--seed 2007 --gen-count 32 --corpus --skip-tape --json out.json --quiet"),
            None
        );
        assert_eq!(unknown("--corpsu --quiet").as_deref(), Some("--corpsu"));
        assert_eq!(unknown("--gen-cout 4").as_deref(), Some("--gen-cout"));
    }
}
