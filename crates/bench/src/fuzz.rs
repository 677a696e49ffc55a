//! Multi-threaded differential fuzz campaign over generated elastic
//! topologies — the `fuzz_topo` binary's engine.
//!
//! The campaign sweeps a band of master seeds; each seed samples a
//! [`TopoParams`] knob set, generates a network (`elastic_core::gen`),
//! lints it with the `elastic_lint` static analyzer (the fourth oracle:
//! live-by-construction generation must produce zero error diagnostics)
//! and runs the tri-backend differential (DMG replay ↔ compiled-pipeline
//! cosim ↔ min-cycle-ratio bound). Seeds run through the Monte-Carlo
//! engine's worker pool (`stream::run_pipeline`, whose produce stage is the
//! whole per-seed check), and outcomes are reduced in seed order so reports
//! are deterministic for any thread count.
//!
//! Failures are shrunk to a minimal failing parameter set before being
//! reported. In `--inject` mode the campaign instead *sabotages* each
//! eligible topology with one fault from the full [`FaultInjection`]
//! family — the class rotates with the master seed over
//! [`INJECT_CLASSES`]: the PR-5 dropped-anti-token lowering bug plus
//! every transient rail class (flip, stuck-at-0/1, duplicated and lost
//! tokens, armed for a single *effective* cycle probed by
//! [`injectable_site`]) — and asserts the harness flags every one. A
//! silently accepted fault is shrunk ([`shrink_params_by`]) to a minimal
//! `TopoParams` that still accepts the same class, and reported with its
//! fault spec.

use std::io::Write as _;
use std::time::Instant;

use elastic_core::compile::FaultInjection;
use elastic_core::gen::{
    differential_check, generate, injectable_join, injectable_site, shrink_params,
    shrink_params_by, DiffOptions, DiffReport, GeneratedSystem, TopoParams,
};
use elastic_core::network::{ComponentKind, ElasticNetwork};
use elastic_lint::{json_str, lint_network};
use elastic_netlist::wide::LANES;

use crate::exp::{effective_threads, json_f64};
use crate::stream::run_pipeline;

/// Fault classes the inject mode rotates through, keyed on the master
/// seed: the lowering sabotage plus every transient rail class of
/// [`crate::stabilize::FAULT_CLASSES`].
pub const INJECT_CLASSES: [&str; 6] = [
    "drop_anti_token",
    "rail_flip",
    "stuck_at_0",
    "stuck_at_1",
    "duplicate_token",
    "lose_token",
];

/// Campaign options (the `fuzz_topo` CLI surface).
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// First master seed; the campaign covers `seed..seed + count`.
    pub seed: u64,
    /// Topologies to sample.
    pub count: usize,
    /// Simulated cycles per lane per topology.
    pub cycles: usize,
    /// Schedule lanes per topology (`1..=64`: the differential runs one
    /// 64-lane word).
    pub lanes: usize,
    /// Worker threads requested; the campaign clamps them like the
    /// Monte-Carlo engine ([`effective_threads`]).
    pub threads: usize,
    /// Negative mode: inject a dropped-anti-token fault into one eligible
    /// early join per topology and require the harness to catch it.
    pub inject: bool,
}

impl FuzzOpts {
    /// The usage error of the first option outside its range, naming its
    /// `fuzz_topo` flag.
    pub fn range_error(&self) -> Option<String> {
        let counts = [
            ("--count", self.count),
            ("--cycles", self.cycles),
            ("--lanes", self.lanes),
            ("--threads", self.threads),
        ];
        if let Some((flag, _)) = counts.iter().find(|&&(_, v)| v == 0) {
            return Some(format!("{flag} must be at least 1"));
        }
        (self.lanes > LANES).then(|| format!("--lanes must be at most {LANES} (one lane word)"))
    }
}

impl Default for FuzzOpts {
    fn default() -> Self {
        FuzzOpts {
            seed: 1,
            count: 200,
            cycles: 256,
            lanes: 4,
            threads: 1,
            inject: false,
        }
    }
}

/// Outcome of one sampled topology.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Master seed of the sample.
    pub seed: u64,
    /// The sampled parameters.
    pub params: TopoParams,
    /// The differential result (clean mode), or the failure message.
    pub report: Result<DiffReport, String>,
    /// Minimal failing parameter set (only on failure).
    pub minimal: Option<TopoParams>,
    /// Inject mode: `Some(caught)` when a fault was injected; `None` when
    /// the topology had no effective site for the seed's fault class.
    pub injected: Option<bool>,
    /// Inject mode: the fault class injected (label from
    /// [`INJECT_CLASSES`]), when a site was found.
    pub fault: Option<&'static str>,
    /// First error diagnostic of the static lint over the *clean*
    /// topology — the fourth oracle. Generation is live-by-construction,
    /// so any value here is a bug in the generator or the analyzer.
    pub lint: Option<String>,
    /// Inject mode: `Some(caught)` when the token-drop lint sabotage was
    /// applicable (the network has a cycle) — the analyzer must flag the
    /// de-tokenized variant with `E101`. `None` for acyclic topologies.
    pub lint_sabotage: Option<bool>,
}

/// Aggregate campaign result.
#[derive(Debug, Clone)]
pub struct FuzzSummary {
    /// Per-seed outcomes, in seed order.
    pub outcomes: Vec<FuzzOutcome>,
    /// Wall-clock seconds for the whole campaign.
    pub wall_secs: f64,
    /// Worker threads spawned.
    pub threads: usize,
    /// Whether the campaign ran in inject (sensitivity self-test) mode.
    pub inject: bool,
}

impl FuzzSummary {
    /// Seeds whose differential failed (clean mode).
    pub fn mismatches(&self) -> Vec<&FuzzOutcome> {
        self.outcomes.iter().filter(|o| o.report.is_err()).collect()
    }

    /// Seeds whose injected fault was silently accepted (inject mode) —
    /// each carries the shrunk minimal topology in
    /// [`FuzzOutcome::minimal`].
    pub fn missed(&self) -> Vec<&FuzzOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.injected == Some(false))
            .collect()
    }

    /// Per-class `(class, eligible, caught)` counts of the inject mode,
    /// in [`INJECT_CLASSES`] order.
    pub fn injections_by_class(&self) -> Vec<(&'static str, usize, usize)> {
        INJECT_CLASSES
            .iter()
            .map(|&class| {
                let eligible = self
                    .outcomes
                    .iter()
                    .filter(|o| o.fault == Some(class))
                    .count();
                let caught = self
                    .outcomes
                    .iter()
                    .filter(|o| o.fault == Some(class) && o.injected == Some(true))
                    .count();
                (class, eligible, caught)
            })
            .collect()
    }

    /// Topologies whose clean-network lint reported an error — static
    /// false positives (or generator liveness bugs); acceptance requires
    /// zero.
    pub fn lint_violations(&self) -> Vec<&FuzzOutcome> {
        self.outcomes.iter().filter(|o| o.lint.is_some()).collect()
    }

    /// `(eligible, caught)` counts of the token-drop lint sabotage
    /// (inject mode).
    pub fn lint_sabotage_counts(&self) -> (usize, usize) {
        let eligible = self
            .outcomes
            .iter()
            .filter(|o| o.lint_sabotage.is_some())
            .count();
        let caught = self
            .outcomes
            .iter()
            .filter(|o| o.lint_sabotage == Some(true))
            .count();
        (eligible, caught)
    }

    /// `(eligible, caught)` counts of the inject mode.
    pub fn injection_counts(&self) -> (usize, usize) {
        let eligible = self
            .outcomes
            .iter()
            .filter(|o| o.injected.is_some())
            .count();
        let caught = self
            .outcomes
            .iter()
            .filter(|o| o.injected == Some(true))
            .count();
        (eligible, caught)
    }

    /// Whether the campaign met its acceptance criteria: zero differential
    /// mismatches, zero clean-lint violations, and in inject mode every
    /// injected fault caught, every token-drop lint sabotage caught, *and*
    /// at least one topology eligible for each — a sensitivity self-test
    /// that found nothing to sabotage proved nothing, and must not pass
    /// silently (e.g. after generator drift empties the seed band of
    /// active early joins or of rings).
    pub fn ok(&self) -> bool {
        let (eligible, caught) = self.injection_counts();
        let (lint_eligible, lint_caught) = self.lint_sabotage_counts();
        self.mismatches().is_empty()
            && self.lint_violations().is_empty()
            && caught == eligible
            && lint_caught == lint_eligible
            && (!self.inject || (eligible > 0 && lint_eligible > 0))
    }

    /// Renders the campaign as a JSON object (hand-rolled like the
    /// Monte-Carlo engine's reports; the workspace vendors no serde).
    pub fn to_json(&self, name: &str) -> String {
        let (eligible, caught) = self.injection_counts();
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"campaign\": {},\n", json_str(name)));
        s.push_str(&format!("  \"topologies\": {},\n", self.outcomes.len()));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"wall_secs\": {},\n", json_f64(self.wall_secs)));
        s.push_str(&format!(
            "  \"ee_joins\": {},\n",
            self.outcomes
                .iter()
                .filter_map(|o| o.report.as_ref().ok())
                .map(|r| r.ee_joins)
                .sum::<usize>()
        ));
        s.push_str(&format!(
            "  \"bound_checked\": {},\n",
            self.outcomes
                .iter()
                .filter_map(|o| o.report.as_ref().ok())
                .filter(|r| r.bound.is_some())
                .count()
        ));
        s.push_str(&format!("  \"injected\": {eligible},\n"));
        s.push_str(&format!("  \"injected_caught\": {caught},\n"));
        let (lint_eligible, lint_caught) = self.lint_sabotage_counts();
        s.push_str(&format!(
            "  \"lint_sabotage\": {{\"eligible\": {lint_eligible}, \"caught\": {lint_caught}}},\n"
        ));
        s.push_str("  \"lint_violations\": [\n");
        let lint_violations = self.lint_violations();
        for (i, o) in lint_violations.iter().enumerate() {
            let sep = if i + 1 == lint_violations.len() {
                ""
            } else {
                ","
            };
            s.push_str(&format!(
                "    {{\"seed\": {}, \"error\": {}, \"minimal\": {}}}{sep}\n",
                o.seed,
                json_str(o.lint.as_deref().unwrap_or("?")),
                json_str(&format!("{:?}", o.minimal.as_ref().unwrap_or(&o.params))),
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"injected_by_class\": {\n");
        let by_class = self.injections_by_class();
        for (i, (class, eligible, caught)) in by_class.iter().enumerate() {
            let sep = if i + 1 == by_class.len() { "" } else { "," };
            s.push_str(&format!(
                "    {}: {{\"eligible\": {eligible}, \"caught\": {caught}}}{sep}\n",
                json_str(class)
            ));
        }
        s.push_str("  },\n");
        s.push_str("  \"missed_injections\": [\n");
        let missed = self.missed();
        for (i, o) in missed.iter().enumerate() {
            let sep = if i + 1 == missed.len() { "" } else { "," };
            s.push_str(&format!(
                "    {{\"seed\": {}, \"class\": {}, \"minimal\": {}}}{sep}\n",
                o.seed,
                json_str(o.fault.unwrap_or("?")),
                json_str(&format!("{:?}", o.minimal.as_ref().unwrap_or(&o.params))),
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"mismatches\": [\n");
        let mismatches = self.mismatches();
        for (i, o) in mismatches.iter().enumerate() {
            let sep = if i + 1 == mismatches.len() { "" } else { "," };
            let msg = o.report.as_ref().err().map(String::as_str).unwrap_or("");
            s.push_str(&format!(
                "    {{\"seed\": {}, \"error\": {}, \"minimal\": {}}}{sep}\n",
                o.seed,
                json_str(msg),
                json_str(&format!("{:?}", o.minimal.as_ref().unwrap_or(&o.params))),
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"ok\": {}\n}}\n", self.ok()));
        s
    }

    /// Writes the JSON rendering to `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_json(&self, name: &str, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json(name).as_bytes())
    }
}

/// Probes one topology for an injectable fault of `class`, returning the
/// fault plus the single-cycle injection window (`None` window for the
/// always-on lowering sabotage). Probing uses the differential's own seed
/// so the eligibility check observes lane 0 of the very run the fault is
/// injected into.
fn probe_site(
    sys: &GeneratedSystem,
    class: &'static str,
    seed: u64,
    cycles: usize,
) -> Option<(FaultInjection, Option<(usize, usize)>)> {
    if class == "drop_anti_token" {
        injectable_join(sys, seed, cycles)
            .map(|join| (FaultInjection::DropAntiToken { join }, None))
    } else {
        injectable_site(sys, class, seed, cycles).map(|(fault, t)| (fault, Some((t, 1))))
    }
}

/// Whether the network contains any directed cycle, tokens ignored.
/// Written as Kahn-style indegree elimination — deliberately a different
/// algorithm from the DFS walk behind E101
/// ([`ElasticNetwork::find_uncut_cycle`]), so the sabotage expectation
/// ("dropping all tokens from a cyclic network must trip E101") does not
/// share code with the oracle under test.
fn has_cycle(net: &ElasticNetwork) -> bool {
    let n = net.num_components();
    let mut indeg = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for ch in net.channels() {
        let c = net.channel(ch);
        out[c.from.0.index()].push(c.to.0.index());
        indeg[c.to.0.index()] += 1;
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    let mut removed = 0usize;
    while let Some(v) = queue.pop() {
        removed += 1;
        for &w in &out[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                queue.push(w);
            }
        }
    }
    removed < n
}

/// Clears every initial token in `net`.
fn drop_all_tokens(net: &mut ElasticNetwork) {
    let buffers: Vec<_> = net
        .components()
        .filter(|&c| {
            matches!(
                net.component(c).kind,
                ComponentKind::Eb {
                    init_token: true,
                    ..
                }
            )
        })
        .collect();
    for c in buffers {
        net.set_init_token(c, false).expect("known buffer id");
    }
}

/// The token-drop lint sabotage: de-tokenize the network and require the
/// analyzer to flag the starved cycle. Only applicable to cyclic
/// topologies (a DAG stays live with zero tokens). A miss shrinks to a
/// minimal parameter set that still misses.
fn lint_token_drop_sabotage(
    sys: &GeneratedSystem,
    params: &TopoParams,
) -> (Option<bool>, Option<TopoParams>) {
    if !has_cycle(&sys.network) {
        return (None, None);
    }
    let mut sick = sys.network.clone();
    drop_all_tokens(&mut sick);
    let caught = lint_network(&sick).has_code("E101");
    let minimal = (!caught).then(|| {
        shrink_params_by(params, |p| {
            let Ok(sys) = generate(p) else { return false };
            if !has_cycle(&sys.network) {
                return false;
            }
            let mut sick = sys.network.clone();
            drop_all_tokens(&mut sick);
            !lint_network(&sick).has_code("E101")
        })
    });
    (Some(caught), minimal)
}

/// Runs one seed of the campaign.
fn run_seed(seed: u64, opts: &FuzzOpts) -> FuzzOutcome {
    let params = TopoParams::sample(seed);
    let diff = DiffOptions {
        cycles: opts.cycles,
        lanes: opts.lanes,
        seed: seed.wrapping_add(0x5eed),
        fault: None,
        fault_window: None,
    };
    let sys = match generate(&params) {
        Ok(sys) => sys,
        Err(e) => {
            return FuzzOutcome {
                seed,
                params,
                report: Err(format!("generation failed: {e}")),
                minimal: None,
                injected: None,
                fault: None,
                lint: None,
                lint_sabotage: None,
            }
        }
    };
    // Fourth oracle: the clean topology must pass the static analyzer —
    // generation is live-by-construction, so an error diagnostic here is
    // a generator or analyzer bug. A violation shrinks like a mismatch.
    let lint = lint_network(&sys.network)
        .errors()
        .next()
        .map(ToString::to_string);
    let lint_minimal = lint.is_some().then(|| {
        shrink_params_by(&params, |p| {
            generate(p).is_ok_and(|sys| !lint_network(&sys.network).is_clean())
        })
    });
    if opts.inject {
        let class = INJECT_CLASSES[(seed % INJECT_CLASSES.len() as u64) as usize];
        let (injected, fault, missed_minimal) =
            match probe_site(&sys, class, diff.seed, opts.cycles) {
                None => (None, None, None),
                Some((fault, fault_window)) => {
                    let faulty = DiffOptions {
                        fault: Some(fault),
                        fault_window,
                        ..diff.clone()
                    };
                    let caught = differential_check(&sys, &faulty).is_err();
                    // A silently accepted fault shrinks to a minimal
                    // topology that still accepts the same class —
                    // regenerate, re-probe, and require the differential
                    // to stay quiet.
                    let minimal = (!caught).then(|| {
                        shrink_params_by(&params, |p| {
                            let Ok(sys) = generate(p) else { return false };
                            let Some((fault, fault_window)) =
                                probe_site(&sys, class, diff.seed, opts.cycles)
                            else {
                                return false;
                            };
                            let faulty = DiffOptions {
                                fault: Some(fault),
                                fault_window,
                                ..diff.clone()
                            };
                            differential_check(&sys, &faulty).is_ok()
                        })
                    });
                    (Some(caught), Some(class), minimal)
                }
            };
        // Negative lint oracle: dropping every token from a cyclic
        // topology must trip the liveness code.
        let (lint_sabotage, lint_sabotage_minimal) = lint_token_drop_sabotage(&sys, &params);
        // Inject mode still runs the clean differential: a harness that
        // flags faults but also flags clean systems is useless.
        let report = differential_check(&sys, &diff).map_err(|e| e.to_string());
        let minimal = report
            .is_err()
            .then(|| shrink_params(&params, &diff))
            .or(missed_minimal)
            .or(lint_minimal)
            .or(lint_sabotage_minimal);
        return FuzzOutcome {
            seed,
            params,
            report,
            minimal,
            injected,
            fault,
            lint,
            lint_sabotage,
        };
    }
    match differential_check(&sys, &diff) {
        Ok(report) => FuzzOutcome {
            seed,
            params,
            report: Ok(report),
            minimal: lint_minimal,
            injected: None,
            fault: None,
            lint,
            lint_sabotage: None,
        },
        Err(e) => FuzzOutcome {
            seed,
            params: params.clone(),
            report: Err(e.to_string()),
            minimal: Some(shrink_params(&params, &diff)),
            injected: None,
            fault: None,
            lint,
            lint_sabotage: None,
        },
    }
}

/// Runs the campaign: `count` seeded topologies through the worker pool,
/// outcomes in seed order.
pub fn run_fuzz(opts: &FuzzOpts) -> FuzzSummary {
    let t0 = Instant::now();
    let threads = effective_threads(opts.threads, opts.count);
    let outcomes = run_pipeline(
        opts.count,
        threads,
        threads,
        |i| Ok(run_seed(opts.seed.wrapping_add(i as u64), opts)),
        |_, outcome| Ok(outcome),
    )
    .expect("fuzz stages never fail");
    FuzzSummary {
        outcomes,
        wall_secs: t0.elapsed().as_secs_f64(),
        threads,
        inject: opts.inject,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let opts = FuzzOpts {
            seed: 1,
            count: 6,
            cycles: 120,
            lanes: 2,
            threads: 2,
            inject: false,
        };
        let a = run_fuzz(&opts);
        assert!(a.ok(), "mismatches: {:?}", a.mismatches());
        assert_eq!(a.outcomes.len(), 6);
        // Outcomes are seed-ordered and thread-count independent.
        let measured = |s: &FuzzSummary| -> Vec<_> {
            let m = |r: &DiffReport| (r.throughput, r.bound, r.firings);
            s.outcomes
                .iter()
                .map(|o| (o.seed, o.report.as_ref().ok().map(m)))
                .collect()
        };
        for threads in [1, 3] {
            let b = run_fuzz(&FuzzOpts { threads, ..opts });
            assert_eq!(measured(&b), measured(&a), "{threads} workers");
        }
        let json = a.to_json("unit");
        assert!(json.contains("\"ok\": true"), "{json}");
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(json.matches(open).count(), json.matches(close).count());
        }
    }

    #[test]
    fn inject_mode_catches_every_fault_class() {
        // 18 seeds rotate three times through the 6-class family; several
        // distinct classes must find an effective site, and every injected
        // fault must be flagged.
        let opts = FuzzOpts {
            seed: 1,
            count: 18,
            cycles: 200,
            lanes: 2,
            threads: 2,
            inject: true,
        };
        let summary = run_fuzz(&opts);
        let (eligible, caught) = summary.injection_counts();
        assert!(eligible >= 4, "only {eligible} injectable topologies");
        assert_eq!(
            caught,
            eligible,
            "missed injections: {:?}",
            summary.missed()
        );
        let by_class = summary.injections_by_class();
        let classes_hit = by_class.iter().filter(|&&(_, e, _)| e > 0).count();
        assert!(
            classes_hit >= 3,
            "only {classes_hit} classes found a site: {by_class:?}"
        );
        for (class, e, c) in by_class {
            assert_eq!(e, c, "class {class} was silently accepted");
        }
        // Lint oracle: at least one cyclic topology was token-drop
        // sabotaged, and the analyzer flagged every such drop as E101.
        let (lint_eligible, lint_caught) = summary.lint_sabotage_counts();
        assert!(lint_eligible > 0, "no cyclic topology to sabotage");
        assert_eq!(
            lint_caught, lint_eligible,
            "lint missed a token-drop sabotage"
        );
        assert!(summary.missed().is_empty());
        assert!(summary.ok());
        let json = summary.to_json("unit");
        assert!(json.contains("\"injected_by_class\""), "{json}");
        assert!(json.contains("\"missed_injections\": [\n  ]"), "{json}");
        assert!(json.contains("\"lint_sabotage\""), "{json}");
    }

    #[test]
    fn out_of_range_options_name_their_flag() {
        type Edit = fn(&mut FuzzOpts);
        let error = |edit: Edit| {
            let mut opts = FuzzOpts::default();
            edit(&mut opts);
            opts.range_error()
        };
        assert_eq!(error(|_| {}), None);
        assert_eq!(error(|o| o.lanes = LANES), None);
        let cases: [(Edit, &str); 5] = [
            (|o| o.count = 0, "--count must be at least 1"),
            (|o| o.cycles = 0, "--cycles must be at least 1"),
            (|o| o.lanes = 0, "--lanes must be at least 1"),
            (|o| o.threads = 0, "--threads must be at least 1"),
            (|o| o.lanes = LANES + 1, "--lanes must be at most 64"),
        ];
        for (edit, flag) in cases {
            let err = error(edit).expect("out of range");
            assert!(err.starts_with(flag), "{err}");
        }
    }
}
