//! A benchmark corpus of real-design-shaped synchronous datapaths,
//! elasticized under five Table-1-style control configurations.
//!
//! Each design is described as a [`SyncDatapath`] (the Sect. 6 input
//! format) and converted by [`elasticize`] — the corpus exercises the
//! conversion flow on structures found in production RTL rather than on
//! the paper's single Fig. 9 example:
//!
//! | design | shape | inspiration |
//! |---|---|---|
//! | [`flow_counter`] | up/down event counter with an accumulator loop | bsg_misc flow counters |
//! | [`rr_arbiter`] | two-requester arbiter with a grant-history ring | round-robin arbiters |
//! | [`fifo_chain`] | two two-element FIFOs with a bypass mux | bsg_two_fifo chains |
//! | [`nic_split`] | header/payload split and rejoin | NIC ingress pipelines |
//! | [`mac_loop`] | multiply-accumulate with a clear opcode | DSP MAC units |
//! | [`scoreboard`] | issue stage rotating tokens through stations | scoreboard rings |
//!
//! Every design has one *merge* block where early evaluation applies, a
//! *cheap* input that suffices with probability `ee_prob` (the guard
//! payload convention: `0` = cheap branch, `1` = expensive branch), and a
//! slow path whose delay is set by the `latency` knob — so the whole
//! corpus sweeps on the same two axes as the paper's Table 1.

use crate::channel::ChanId;
use crate::ee::{EarlyEval, EeTerm};
use crate::elasticize::{elasticize, SyncDatapath};
use crate::error::CoreError;
use crate::network::ElasticNetwork;
use crate::sim::{DataGen, EnvConfig, LatencyDist, SourceCfg};

pub mod fifo_chain;
pub mod flow_counter;
pub mod mac_loop;
pub mod nic_split;
pub mod rr_arbiter;
pub mod scoreboard;

/// The five Table-1-style control configurations applied to every design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusConfig {
    /// Early-evaluation merge with full anti-token counterflow (row 1).
    Active,
    /// Like [`CorpusConfig::Active`], but the decoupling register on the
    /// design's cheap path is removed (row 2's missing `C` buffer).
    NoBypass,
    /// Passive anti-token interface on the slow-path boundary into the
    /// merge (row 3).
    PassiveA,
    /// Passive anti-token interface on the design's second boundary —
    /// state loop or fast path (row 4).
    PassiveB,
    /// Conventional lazy merge; no anti-tokens anywhere (row 5).
    Lazy,
}

impl CorpusConfig {
    /// All five configurations, Table 1 row order.
    pub fn all() -> [CorpusConfig; 5] {
        [
            CorpusConfig::Active,
            CorpusConfig::NoBypass,
            CorpusConfig::PassiveA,
            CorpusConfig::PassiveB,
            CorpusConfig::Lazy,
        ]
    }

    /// Short machine-readable tag (network names, JSON keys).
    pub fn tag(self) -> &'static str {
        match self {
            CorpusConfig::Active => "active",
            CorpusConfig::NoBypass => "nobypass",
            CorpusConfig::PassiveA => "passive_a",
            CorpusConfig::PassiveB => "passive_b",
            CorpusConfig::Lazy => "lazy",
        }
    }

    /// Human-readable row label.
    pub fn label(self) -> &'static str {
        match self {
            CorpusConfig::Active => "Active anti-tokens",
            CorpusConfig::NoBypass => "No bypass register",
            CorpusConfig::PassiveA => "Passive (slow boundary)",
            CorpusConfig::PassiveB => "Passive (second boundary)",
            CorpusConfig::Lazy => "No early evaluation",
        }
    }

    fn cheap_stages(self) -> usize {
        match self {
            CorpusConfig::NoBypass => 0,
            _ => 1,
        }
    }
}

/// The two environment axes every corpus design is swept on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Knobs {
    /// Probability that the merge's guard selects the cheap branch.
    pub ee_prob: f64,
    /// Slow latency of the design's variable-latency unit(s); each draw is
    /// 1 or `latency` with equal probability.
    pub latency: u32,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            ee_prob: 0.6,
            latency: 8,
        }
    }
}

/// A built corpus system, ready for simulation, linting and export.
#[derive(Debug, Clone)]
pub struct CorpusSystem {
    /// Design name (one of [`DESIGNS`]).
    pub design: &'static str,
    /// The control configuration it was elasticized under.
    pub config: CorpusConfig,
    /// The elastic control network.
    pub network: ElasticNetwork,
    /// Environment: guard distribution and latency draws per [`Knobs`].
    pub env: EnvConfig,
    /// The channel whose positive-transfer rate is the design throughput.
    pub output_channel: ChanId,
}

/// All corpus design names, build order.
pub const DESIGNS: [&str; 6] = [
    "flow_counter",
    "rr_arbiter",
    "fifo_chain",
    "nic_split",
    "mac_loop",
    "scoreboard",
];

/// Builds one design by name.
///
/// # Errors
///
/// [`CoreError::Netlist`] for an unknown design name; construction errors
/// otherwise (none expected for the fixed topologies).
pub fn build(design: &str, config: CorpusConfig, knobs: &Knobs) -> Result<CorpusSystem, CoreError> {
    match design {
        "flow_counter" => flow_counter::system(config, knobs),
        "rr_arbiter" => rr_arbiter::system(config, knobs),
        "fifo_chain" => fifo_chain::system(config, knobs),
        "nic_split" => nic_split::system(config, knobs),
        "mac_loop" => mac_loop::system(config, knobs),
        "scoreboard" => scoreboard::system(config, knobs),
        other => Err(CoreError::Netlist(format!(
            "unknown corpus design {other:?}"
        ))),
    }
}

/// Every design under every configuration (30 systems) at the given knobs.
///
/// # Errors
///
/// Propagates construction errors.
pub fn all_systems(knobs: &Knobs) -> Result<Vec<CorpusSystem>, CoreError> {
    let mut out = Vec::with_capacity(DESIGNS.len() * 5);
    for design in DESIGNS {
        for config in CorpusConfig::all() {
            out.push(build(design, config, knobs)?);
        }
    }
    Ok(out)
}

/// The corpus-wide two-way merge function under the guard convention
/// (payload bit 0: `0` = cheap, `1` = expensive): the cheap term needs
/// `cheap_required` and forwards `cheap_select`, the expensive term
/// `full_required`/`full_select`. Guard is always join input 0.
fn mux2(
    cheap_required: Vec<usize>,
    cheap_select: usize,
    full_required: Vec<usize>,
    full_select: usize,
) -> EarlyEval {
    EarlyEval::new(
        0,
        vec![
            EeTerm {
                guard_mask: 1,
                guard_value: 0,
                required: cheap_required,
                select: cheap_select,
            },
            EeTerm {
                guard_mask: 1,
                guard_value: 1,
                required: full_required,
                select: full_select,
            },
        ],
    )
}

/// Static description each design hands to [`assemble`].
struct Spec {
    design: &'static str,
    /// Channel observed for throughput.
    output: &'static str,
    /// Source nodes carrying the guard distribution.
    guards: &'static [&'static str],
    /// Variable-latency controller names taking the `latency` knob.
    vls: &'static [&'static str],
    /// Channel made passive under [`CorpusConfig::PassiveA`].
    passive_a: &'static str,
    /// Channel made passive under [`CorpusConfig::PassiveB`].
    passive_b: &'static str,
}

/// Shared tail of every design builder: elasticize, apply passivity,
/// validate (ports + token liveness), attach the knob-driven environment.
fn assemble(
    dp: &SyncDatapath,
    config: CorpusConfig,
    knobs: &Knobs,
    spec: &Spec,
) -> Result<CorpusSystem, CoreError> {
    let mut net = elasticize(dp)?;
    let passive = match config {
        CorpusConfig::PassiveA => Some(spec.passive_a),
        CorpusConfig::PassiveB => Some(spec.passive_b),
        _ => None,
    };
    if let Some(name) = passive {
        let id = net
            .channel_by_name(name)
            .ok_or_else(|| CoreError::Netlist(format!("no passive boundary {name}")))?;
        net.set_passive(id)?;
    }
    net.check_token_liveness()?;

    let mut env = EnvConfig::default();
    for g in spec.guards {
        env.sources.insert(
            (*g).to_string(),
            SourceCfg {
                rate: 1.0,
                data: DataGen::Weighted(vec![(0, knobs.ee_prob), (1, 1.0 - knobs.ee_prob)]),
            },
        );
    }
    for v in spec.vls {
        env.vls.insert(
            (*v).to_string(),
            LatencyDist::weighted(vec![(1, 0.5), (knobs.latency, 0.5)]),
        );
    }

    let output_channel = net
        .channel_by_name(spec.output)
        .ok_or_else(|| CoreError::Netlist(format!("no output channel {}", spec.output)))?;
    Ok(CorpusSystem {
        design: spec.design,
        config,
        network: net,
        env,
        output_channel,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{BehavSim, RandomEnv};

    fn throughput(sys: &CorpusSystem, cycles: u64, seed: u64) -> f64 {
        let mut sim = BehavSim::new(&sys.network).expect("valid corpus network");
        let mut env = RandomEnv::new(seed, sys.env.clone());
        sim.run(&mut env, cycles).expect("simulates");
        sim.report().positive_rate(sys.output_channel)
    }

    #[test]
    fn every_design_and_config_builds_checks_and_moves_tokens() {
        let knobs = Knobs::default();
        for sys in all_systems(&knobs).unwrap() {
            sys.network.check().unwrap();
            sys.network.check_token_liveness().unwrap();
            let th = throughput(&sys, 400, 11);
            assert!(
                th > 0.02 && th <= 1.0,
                "{} / {}: throughput {th}",
                sys.design,
                sys.config.tag()
            );
        }
    }

    #[test]
    fn early_evaluation_beats_lazy_on_every_design() {
        let knobs = Knobs {
            ee_prob: 0.8,
            latency: 12,
        };
        for design in DESIGNS {
            let active = build(design, CorpusConfig::Active, &knobs).unwrap();
            let lazy = build(design, CorpusConfig::Lazy, &knobs).unwrap();
            let th_a = throughput(&active, 6000, 7);
            let th_l = throughput(&lazy, 6000, 7);
            assert!(
                th_a > th_l,
                "{design}: active {th_a} should beat lazy {th_l}"
            );
        }
    }

    #[test]
    fn passive_boundaries_stop_negative_crossings() {
        let knobs = Knobs::default();
        for design in DESIGNS {
            let sys = build(design, CorpusConfig::PassiveA, &knobs).unwrap();
            let passive: Vec<_> = sys
                .network
                .channels()
                .filter(|&c| sys.network.channel(c).passive)
                .collect();
            assert_eq!(passive.len(), 1, "{design}: one passive boundary");
            let mut sim = BehavSim::new(&sys.network).unwrap();
            let mut env = RandomEnv::new(13, sys.env.clone());
            sim.run(&mut env, 2000).unwrap();
            let r = sim.report();
            assert_eq!(
                r.channel(passive[0]).negative,
                0,
                "{design}: no anti-token crosses the passive boundary"
            );
        }
    }

    #[test]
    fn unknown_design_is_a_typed_error() {
        assert!(build("nonesuch", CorpusConfig::Active, &Knobs::default()).is_err());
    }
}
