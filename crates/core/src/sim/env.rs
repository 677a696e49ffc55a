//! Environment models: who offers tokens, who stops or kills them, and how
//! long variable-latency units take.
//!
//! The paper's Verilog testbench "incorporates statements to randomly
//! generate the values of the control signals according to the probability
//! distributions defined by the user" and "random delays for the
//! variable-latency units" (Sect. 6.1). [`RandomEnv`] is that testbench.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::network::CompId;

/// Decides the per-cycle behaviour of sources, sinks and variable-latency
/// units during behavioural simulation — the programmable face of the
/// paper's randomized testbench (Sect. 6.1). Implemented by [`RandomEnv`]
/// (fresh draws every cycle) and by `crate::verify::Schedule` (pre-recorded
/// streams replayable against the gate-level back-ends).
///
/// Components are identified both by id and by display name so
/// configurations can be written against stable names.
pub trait Environment {
    /// Called when `comp` (a source) is idle: return `Some(payload)` to
    /// offer a new token this cycle.
    fn source_offer(&mut self, comp: CompId, name: &str, time: u64) -> Option<u64>;

    /// Whether the sink stops (back-pressures) this cycle.
    fn sink_stop(&mut self, comp: CompId, name: &str, time: u64) -> bool;

    /// Whether the sink launches an anti-token this cycle (ignored while a
    /// previous anti-token is still pending — persistence is enforced by
    /// the simulator).
    fn sink_kill(&mut self, comp: CompId, name: &str, time: u64) -> bool;

    /// Latency draw for a variable-latency unit accepting a token now.
    /// Values are clamped to at least 1 by the simulator.
    fn vl_latency(&mut self, comp: CompId, name: &str, time: u64) -> u32;
}

/// Payload generator for sources.
#[derive(Debug, Clone, PartialEq)]
pub enum DataGen {
    /// Always the same value.
    Const(u64),
    /// 0, 1, 2, ... (handy for checking FIFO order).
    Counter,
    /// Alternating 0/1 — the producers of the paper's Fig. 8(b) correctness
    /// testbench.
    Alternate,
    /// Weighted choice among values (used for the opcode distribution of
    /// the paper's example: 0.6/0.3/0.1).
    Weighted(Vec<(u64, f64)>),
}

impl DataGen {
    /// Draws the next payload for [`RandomEnv`]. `seq` is the per-source
    /// sequence counter the stateful generators ([`DataGen::Counter`],
    /// [`DataGen::Alternate`]) advance; stateless generators leave it
    /// untouched. The pre-generated schedules of
    /// [`crate::verify::Schedule`] sample the same distributions (paper
    /// Sect. 6.1) from the stimulus contract's hashed uniforms instead.
    pub fn sample(&self, rng: &mut StdRng, seq: &mut u64) -> u64 {
        match self {
            DataGen::Const(v) => *v,
            DataGen::Counter => {
                let v = *seq;
                *seq += 1;
                v
            }
            DataGen::Alternate => {
                let v = *seq % 2;
                *seq += 1;
                v
            }
            DataGen::Weighted(choices) => weighted_draw(choices, rng).map_or(0, |i| choices[i].0),
        }
    }
}

/// Draws an index from `choices` proportionally to the weights, ignoring
/// entries whose weight is not a positive finite number.
///
/// Degenerate distributions never panic (the old code hit `gen_range` on
/// an empty `0.0..0.0` range when every weight was zero): an empty list
/// returns `None`, and a non-empty list with no usable weight falls back
/// deterministically to `Some(0)` — the first entry — so simulations stay
/// reproducible.
fn weighted_draw<T>(choices: &[(T, f64)], rng: &mut StdRng) -> Option<usize> {
    let usable = |w: f64| w.is_finite() && w > 0.0;
    let total: f64 = choices.iter().map(|&(_, w)| w).filter(|&w| usable(w)).sum();
    if !(total.is_finite() && total > 0.0) {
        // Degenerate distribution: deterministic fallback to the first
        // entry (if any) so simulations stay reproducible.
        return if choices.is_empty() { None } else { Some(0) };
    }
    let mut x = rng.gen_range(0.0..total);
    let mut last = None;
    for (i, &(_, w)) in choices.iter().enumerate() {
        if !usable(w) {
            continue;
        }
        if x < w {
            return Some(i);
        }
        x -= w;
        last = Some(i);
    }
    // Floating-point slop can exhaust the loop; the last usable entry is
    // the right owner of the residual mass.
    last
}

/// Per-source configuration: how often the environment offers a token and
/// which payload it carries (the paper's "probability distributions defined
/// by the user", Sect. 6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SourceCfg {
    /// Probability of offering a token on an idle cycle.
    pub rate: f64,
    /// Payload generator.
    pub data: DataGen,
}

impl Default for SourceCfg {
    fn default() -> Self {
        SourceCfg {
            rate: 1.0,
            data: DataGen::Const(0),
        }
    }
}

impl SourceCfg {
    /// The offer draw this source makes on each idle cycle: `None` when it
    /// offers every cycle without drawing (`rate >= 1`), else the
    /// Bernoulli probability it draws with. A negative or NaN rate reads
    /// as 0. Every stimulus producer ([`RandomEnv`],
    /// `crate::verify::Schedule::random` and
    /// `crate::verify::PackedStimulus::generate`) reads the rate through
    /// this one function, so they agree on when a source draws.
    pub fn offer_draw(&self) -> Option<f64> {
        // A NaN rate fails the first test, and `f64::max` returns the
        // non-NaN operand.
        if self.rate >= 1.0 {
            None
        } else {
            Some(self.rate.max(0.0))
        }
    }
}

/// Per-sink configuration: back-pressure and anti-token launch rates. A
/// non-zero `kill_prob` makes the consumer emit the negative tokens of
/// Sect. 2 that travel upstream and annihilate work in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SinkCfg {
    /// Probability of stopping on any cycle.
    pub stop_prob: f64,
    /// Probability of launching an anti-token on any cycle (when none is
    /// pending).
    pub kill_prob: f64,
}

impl Default for SinkCfg {
    fn default() -> Self {
        SinkCfg {
            stop_prob: 0.0,
            kill_prob: 0.0,
        }
    }
}

impl SinkCfg {
    /// The stop draw this sink makes each cycle: `None` when it never
    /// stops and draws nothing (`stop_prob <= 0` or NaN), else the
    /// Bernoulli probability, capped at 1. Shared by every stimulus
    /// producer, like [`SourceCfg::offer_draw`].
    pub fn stop_draw(&self) -> Option<f64> {
        sink_draw(self.stop_prob)
    }

    /// The kill draw this sink makes each cycle; read like
    /// [`Self::stop_draw`].
    pub fn kill_draw(&self) -> Option<f64> {
        sink_draw(self.kill_prob)
    }
}

fn sink_draw(p: f64) -> Option<f64> {
    (p > 0.0).then(|| p.min(1.0))
}

/// A weighted latency distribution for variable-latency units — e.g. the
/// paper's cached multiplier `M1` taking 2 cycles with probability 0.8 and
/// 10 with probability 0.2 (Sect. 6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyDist {
    /// `(latency, weight)` pairs; weights need not sum to 1.
    pub choices: Vec<(u32, f64)>,
}

impl LatencyDist {
    /// Single fixed latency.
    pub fn fixed(latency: u32) -> Self {
        LatencyDist {
            choices: vec![(latency, 1.0)],
        }
    }

    /// Weighted mixture, e.g. the paper's `M1`: 2 or 10 cycles with
    /// probabilities 0.8 / 0.2.
    pub fn weighted(choices: Vec<(u32, f64)>) -> Self {
        LatencyDist { choices }
    }

    /// Expected latency. Degenerate weight sets (empty, all zero/negative)
    /// fall back to the first latency, or 1 for an empty distribution,
    /// mirroring the sampling fallback.
    pub fn mean(&self) -> f64 {
        let usable = |w: f64| w.is_finite() && w > 0.0;
        let total: f64 = self
            .choices
            .iter()
            .map(|&(_, w)| w)
            .filter(|&w| usable(w))
            .sum();
        if !(total.is_finite() && total > 0.0) {
            return self.choices.first().map_or(1.0, |&(l, _)| f64::from(l));
        }
        self.choices
            .iter()
            .filter(|&&(_, w)| usable(w))
            .map(|&(l, w)| f64::from(l) * w)
            .sum::<f64>()
            / total
    }

    /// The probability of the Bernoulli `finish` stream that pre-generated
    /// schedules draw for this unit every cycle: `1 / mean`, clamped to
    /// `[0.05, 1]`, so completion delays are geometric with this mean.
    pub fn finish_draw(&self) -> f64 {
        (1.0 / self.mean()).clamp(0.05, 1.0)
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        weighted_draw(&self.choices, rng).map_or(1, |i| self.choices[i].0)
    }
}

impl Default for LatencyDist {
    fn default() -> Self {
        LatencyDist::fixed(1)
    }
}

/// Configuration of a [`RandomEnv`]: per-component overrides keyed by
/// component display name, with defaults for unnamed components.
#[derive(Debug, Clone, Default)]
pub struct EnvConfig {
    /// Source overrides by name.
    pub sources: HashMap<String, SourceCfg>,
    /// Sink overrides by name.
    pub sinks: HashMap<String, SinkCfg>,
    /// Variable-latency overrides by name.
    pub vls: HashMap<String, LatencyDist>,
    /// Default source behaviour (always offer, payload 0).
    pub default_source: SourceCfg,
    /// Default sink behaviour (always accept, never kill).
    pub default_sink: SinkCfg,
    /// Default latency (1 cycle).
    pub default_vl: LatencyDist,
}

/// Seeded random environment implementing the paper's testbench behaviour.
#[derive(Debug, Clone)]
pub struct RandomEnv {
    rng: StdRng,
    cfg: EnvConfig,
    counters: HashMap<CompId, u64>,
}

impl RandomEnv {
    /// Creates a reproducible environment.
    pub fn new(seed: u64, cfg: EnvConfig) -> Self {
        RandomEnv {
            rng: StdRng::seed_from_u64(seed),
            cfg,
            counters: HashMap::new(),
        }
    }

    fn gen_data(&mut self, comp: CompId, gen: &DataGen) -> u64 {
        gen.sample(&mut self.rng, self.counters.entry(comp).or_insert(0))
    }
}

impl Environment for RandomEnv {
    fn source_offer(&mut self, comp: CompId, name: &str, _time: u64) -> Option<u64> {
        let cfg = self
            .cfg
            .sources
            .get(name)
            .unwrap_or(&self.cfg.default_source)
            .clone();
        cfg.offer_draw()
            .is_none_or(|p| self.rng.gen_bool(p))
            .then(|| self.gen_data(comp, &cfg.data))
    }

    fn sink_stop(&mut self, _comp: CompId, name: &str, _time: u64) -> bool {
        let cfg = self
            .cfg
            .sinks
            .get(name)
            .copied()
            .unwrap_or(self.cfg.default_sink);
        cfg.stop_draw().is_some_and(|p| self.rng.gen_bool(p))
    }

    fn sink_kill(&mut self, _comp: CompId, name: &str, _time: u64) -> bool {
        let cfg = self
            .cfg
            .sinks
            .get(name)
            .copied()
            .unwrap_or(self.cfg.default_sink);
        cfg.kill_draw().is_some_and(|p| self.rng.gen_bool(p))
    }

    fn vl_latency(&mut self, _comp: CompId, name: &str, _time: u64) -> u32 {
        let dist = self
            .cfg
            .vls
            .get(name)
            .cloned()
            .unwrap_or_else(|| self.cfg.default_vl.clone());
        dist.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_distribution_mean() {
        let m1 = LatencyDist::weighted(vec![(2, 0.8), (10, 0.2)]);
        assert!((m1.mean() - 3.6).abs() < 1e-12);
        assert_eq!(LatencyDist::fixed(4).mean(), 4.0);
    }

    #[test]
    fn latency_samples_come_from_support() {
        let m2 = LatencyDist::weighted(vec![(1, 0.5), (2, 0.5)]);
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen1 = false;
        let mut seen2 = false;
        for _ in 0..100 {
            match m2.sample(&mut rng) {
                1 => seen1 = true,
                2 => seen2 = true,
                other => panic!("impossible latency {other}"),
            }
        }
        assert!(seen1 && seen2);
    }

    #[test]
    fn weighted_data_matches_probabilities_roughly() {
        let mut env = RandomEnv::new(
            42,
            EnvConfig {
                default_source: SourceCfg {
                    rate: 1.0,
                    data: DataGen::Weighted(vec![(0, 0.6), (1, 0.3), (2, 0.1)]),
                },
                ..Default::default()
            },
        );
        let mut counts = [0u32; 3];
        for t in 0..10_000 {
            let v = env.source_offer(CompId(0), "s", t).unwrap();
            counts[v as usize] += 1;
        }
        assert!((counts[0] as f64 / 10_000.0 - 0.6).abs() < 0.03);
        assert!((counts[1] as f64 / 10_000.0 - 0.3).abs() < 0.03);
        assert!((counts[2] as f64 / 10_000.0 - 0.1).abs() < 0.03);
    }

    #[test]
    fn zero_weight_distribution_does_not_panic() {
        // Regression: gen_range(0.0..0.0) used to panic on an empty range
        // when every weight was zero. The fallback is deterministic: the
        // first entry.
        let gen = DataGen::Weighted(vec![(7, 0.0), (9, 0.0)]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seq = 0;
        for _ in 0..10 {
            assert_eq!(gen.sample(&mut rng, &mut seq), 7);
        }
        // An empty choice list degrades to payload 0.
        let empty = DataGen::Weighted(vec![]);
        assert_eq!(empty.sample(&mut rng, &mut seq), 0);
    }

    #[test]
    fn negative_and_nan_weights_are_ignored() {
        // Negative weights used to corrupt the cumulative walk (x -= w
        // grows x); now only positive finite weights carry mass.
        let gen = DataGen::Weighted(vec![(1, -5.0), (2, 1.0), (3, f64::NAN)]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut seq = 0;
        for _ in 0..50 {
            assert_eq!(gen.sample(&mut rng, &mut seq), 2);
        }
        // All-negative falls back to the first entry.
        let neg = DataGen::Weighted(vec![(4, -1.0), (5, -2.0)]);
        assert_eq!(neg.sample(&mut rng, &mut seq), 4);
    }

    #[test]
    fn degenerate_latency_distribution_is_safe() {
        let zero = LatencyDist::weighted(vec![(6, 0.0), (8, 0.0)]);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(zero.sample(&mut rng), 6);
        assert_eq!(zero.mean(), 6.0);
        let empty = LatencyDist::weighted(vec![]);
        assert_eq!(empty.sample(&mut rng), 1);
        assert_eq!(empty.mean(), 1.0);
        // Mixed: the negative entry contributes nothing to the mean.
        let mixed = LatencyDist::weighted(vec![(2, 1.0), (100, -1.0)]);
        assert_eq!(mixed.mean(), 2.0);
    }

    #[test]
    fn alternate_generator_toggles() {
        let mut env = RandomEnv::new(
            1,
            EnvConfig {
                default_source: SourceCfg {
                    rate: 1.0,
                    data: DataGen::Alternate,
                },
                ..Default::default()
            },
        );
        let seq: Vec<u64> = (0..6)
            .map(|t| env.source_offer(CompId(0), "p", t).unwrap())
            .collect();
        assert_eq!(seq, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn source_rate_zero_never_offers() {
        let mut env = RandomEnv::new(
            1,
            EnvConfig {
                default_source: SourceCfg {
                    rate: 0.0,
                    data: DataGen::Const(9),
                },
                ..Default::default()
            },
        );
        for t in 0..50 {
            assert!(env.source_offer(CompId(0), "s", t).is_none());
        }
    }

    #[test]
    fn per_name_overrides_apply() {
        let mut cfg = EnvConfig::default();
        cfg.sinks.insert(
            "x".into(),
            SinkCfg {
                stop_prob: 1.0,
                kill_prob: 0.0,
            },
        );
        let mut env = RandomEnv::new(1, cfg);
        assert!(env.sink_stop(CompId(0), "x", 0));
        assert!(!env.sink_stop(CompId(1), "other", 0));
    }
}
