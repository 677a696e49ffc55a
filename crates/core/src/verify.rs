//! Verification harnesses reproducing Sect. 5 / Fig. 8 of the paper.
//!
//! Three layers:
//!
//! 1. **Co-simulation** — the behavioural simulator and the compiled gate
//!    netlist run the same pre-generated environment schedule and must agree
//!    on every channel rail every cycle ([`cosim_check`]).
//! 2. **Protocol model checking** (Fig. 8(a)) — the compiled netlist with
//!    its nondeterministic environment inputs is explored exhaustively and
//!    the paper's four CTL properties are checked per channel
//!    ([`paper_properties`], [`check_network_properties`]).
//! 3. **Data correctness** (Fig. 8(b)) — producers emit alternating 0/1
//!    payloads into an acyclic netlist whose consumers nondeterministically
//!    accept or kill; consumers must always observe an alternating stream
//!    (exercised by the integration tests via sink data recording).

use std::collections::HashMap;

use elastic_mc::{
    check_fair, netlist_kripke, parse, BridgeOptions, ConvergenceReport, Kripke, NetlistKripke,
};
use elastic_netlist::sim::Simulator;
use elastic_netlist::wide::{WideSimulator, LANES};
use elastic_netlist::NetId;
use rand::rngs::{StdRng, StdRngLanes, BLOCK_LANES};
use rand::{Rng, SeedableRng};

use crate::compile::{compile, sanitize, CompileOptions, FaultInjection};
use crate::error::CoreError;
use crate::network::{CompId, ComponentKind, ElasticNetwork};
use crate::sim::{BehavSim, DataGen, EnvConfig, Environment};

/// A pre-generated environment schedule, replayable both by the behavioural
/// simulator (as an [`Environment`]) and by the netlist testbench (as
/// primary-input values). One entry per cycle per component.
#[derive(Debug, Clone)]
pub struct Schedule {
    offers: HashMap<String, Vec<Option<u64>>>,
    stops: HashMap<String, Vec<bool>>,
    kills: HashMap<String, Vec<bool>>,
    finishes: HashMap<String, Vec<bool>>,
    /// Per-cycle arm stream of each compiled-in fault site, in
    /// [`crate::compile::CompileOptions::faults`] order. A missing or empty
    /// stream (the default) keeps its site dormant: the arm input is driven
    /// low every cycle and the corruption gate passes the raw rail through.
    faults: Vec<Vec<bool>>,
    cycles: usize,
}

impl Schedule {
    /// Generates a random schedule for `net` using the probabilities in
    /// `cfg`. Source payloads are drawn from the configured
    /// [`crate::sim::DataGen`] (e.g. the paper's 0.6/0.3/0.1 opcode
    /// distribution, Sect. 6.1). Variable-latency completion streams are
    /// Bernoulli with rate `1/mean(latency)` — any stream is a legal delay
    /// behaviour, and both back-ends interpret the *same* stream, so
    /// equivalence is exact.
    pub fn random(net: &ElasticNetwork, cfg: &EnvConfig, seed: u64, cycles: usize) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = Schedule {
            offers: HashMap::new(),
            stops: HashMap::new(),
            kills: HashMap::new(),
            finishes: HashMap::new(),
            faults: Vec::new(),
            cycles,
        };
        for comp in net.components() {
            let name = net.component(comp).name.clone();
            match &net.component(comp).kind {
                ComponentKind::Source => {
                    let c = cfg.sources.get(&name).unwrap_or(&cfg.default_source);
                    let offer = c.offer_draw();
                    let mut seq = 0u64;
                    let stream = (0..cycles)
                        .map(|_| {
                            offer
                                .is_none_or(|p| rng.gen_bool(p))
                                .then(|| c.data.sample(&mut rng, &mut seq))
                        })
                        .collect();
                    s.offers.insert(name, stream);
                }
                ComponentKind::Sink => {
                    let c = cfg.sinks.get(&name).copied().unwrap_or(cfg.default_sink);
                    for (draw, streams) in
                        [(c.stop_draw(), &mut s.stops), (c.kill_draw(), &mut s.kills)]
                    {
                        let stream = (0..cycles)
                            .map(|_| draw.is_some_and(|p| rng.gen_bool(p)))
                            .collect();
                        streams.insert(name.clone(), stream);
                    }
                }
                ComponentKind::VarLatency => {
                    let p = cfg.vls.get(&name).unwrap_or(&cfg.default_vl).finish_draw();
                    s.finishes
                        .insert(name, (0..cycles).map(|_| rng.gen_bool(p)).collect());
                }
                _ => {}
            }
        }
        s
    }

    /// Horizon of the schedule in cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The payload the named source offers at cycle `t`, if any. These
    /// per-cycle accessors let testbenches drive a compiled netlist's
    /// primary inputs from the same stream the behavioural simulator
    /// replays through [`Environment`].
    pub fn offer_at(&self, name: &str, t: u64) -> Option<u64> {
        self.offers
            .get(name)
            .and_then(|v| v.get(t as usize).copied().flatten())
    }

    /// Whether the named sink back-pressures (stop) at cycle `t`.
    pub fn stop_at(&self, name: &str, t: u64) -> bool {
        Schedule::bit(&self.stops, name, t)
    }

    /// Whether the named sink launches an anti-token (kill) at cycle `t`.
    pub fn kill_at(&self, name: &str, t: u64) -> bool {
        Schedule::bit(&self.kills, name, t)
    }

    /// Whether the named variable-latency unit raises `finish` at cycle `t`.
    pub fn finish_at(&self, name: &str, t: u64) -> bool {
        Schedule::bit(&self.finishes, name, t)
    }

    /// Arms fault site `site` — entry `site` of the netlist's
    /// [`crate::compile::CompileOptions::faults`] — for `len` cycles
    /// starting at `start`. Multi-site fault processes arm each of their
    /// sites independently this way. A schedule replayed against a netlist
    /// without that site simply has no arm input to drive.
    ///
    /// # Errors
    ///
    /// [`CoreError::FaultSite`] when the window is empty or extends past
    /// the schedule horizon.
    pub fn arm_fault(&mut self, site: usize, start: usize, len: usize) -> Result<(), CoreError> {
        if len == 0 {
            return Err(CoreError::FaultSite("empty injection window".into()));
        }
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.cycles)
            .ok_or_else(|| {
                CoreError::FaultSite(format!(
                    "injection window {start}+{len} exceeds the {}-cycle horizon",
                    self.cycles
                ))
            })?;
        if self.faults.len() <= site {
            self.faults.resize(site + 1, Vec::new());
        }
        let stream = &mut self.faults[site];
        if stream.is_empty() {
            *stream = vec![false; self.cycles];
        }
        for slot in &mut stream[start..end] {
            *slot = true;
        }
        Ok(())
    }

    /// Whether fault site `site` is armed at cycle `t`.
    pub fn fault_at(&self, site: usize, t: u64) -> bool {
        self.faults
            .get(site)
            .and_then(|v| v.get(t as usize).copied())
            .unwrap_or(false)
    }

    fn offer(&self, name: &str, t: u64) -> Option<u64> {
        self.offer_at(name, t)
    }

    fn bit(map: &HashMap<String, Vec<bool>>, name: &str, t: u64) -> bool {
        map.get(name)
            .and_then(|v| v.get(t as usize).copied())
            .unwrap_or(false)
    }
}

impl Environment for Schedule {
    fn source_offer(&mut self, _comp: CompId, name: &str, time: u64) -> Option<u64> {
        self.offer(name, time)
    }

    fn sink_stop(&mut self, _comp: CompId, name: &str, time: u64) -> bool {
        Schedule::bit(&self.stops, name, time)
    }

    fn sink_kill(&mut self, _comp: CompId, name: &str, time: u64) -> bool {
        Schedule::bit(&self.kills, name, time)
    }

    fn vl_latency(&mut self, _comp: CompId, name: &str, time: u64) -> u32 {
        // Latency = distance to the next asserted finish bit, inclusive.
        let Some(stream) = self.finishes.get(name) else {
            return 1;
        };
        let start = time as usize;
        for (i, &f) in stream.iter().enumerate().skip(start) {
            if f {
                return (i - start + 1) as u32;
            }
        }
        // No completion scheduled within the horizon: effectively stuck.
        (stream.len() - start + 1) as u32
    }
}

/// Handles to the environment-facing primary inputs of a compiled network:
/// one `offer`/`din*` group per source, `stop`/`kill` per sink and `finish`
/// per variable-latency unit — the nondeterministic closure of Sect. 5,
/// resolved against the rail-naming convention of [`crate::compile`].
///
/// A testbench translates a [`Schedule`] into per-cycle primary-input
/// assignments for one scalar simulator run ([`Self::inputs_at`]), and
/// fixes the column order of the lane words [`PackedStimulus::generate`]
/// writes for the bit-parallel backends.
#[derive(Debug, Clone)]
pub struct NetlistTestbench {
    srcs: Vec<(String, NetId, Vec<NetId>)>,
    sinks: Vec<(String, NetId, NetId)>,
    vls: Vec<(String, NetId)>,
    /// The `fault.<channel>.<rail>` arm inputs of a fault-compiled netlist,
    /// in site order. Always the **last** input columns, so a fault-free
    /// compilation's stimulus layout is byte-identical to one that never
    /// heard of faults.
    faults: Vec<NetId>,
}

impl NetlistTestbench {
    /// Resolves the input handles of `compiled` (a compilation of `net`
    /// with `data_width` payload bits).
    ///
    /// # Errors
    ///
    /// [`elastic_netlist::NetlistError::UnknownName`] (via
    /// [`CoreError::Netlist`] conversion) when the compiled netlist does not
    /// follow the expected naming, e.g. because `data_width` differs from
    /// the compilation options.
    pub fn new(
        net: &ElasticNetwork,
        nl: &elastic_netlist::Netlist,
        data_width: usize,
    ) -> Result<Self, CoreError> {
        let mut srcs: Vec<(String, NetId, Vec<NetId>)> = Vec::new();
        let mut sinks: Vec<(String, NetId, NetId)> = Vec::new();
        let mut vls: Vec<(String, NetId)> = Vec::new();
        for comp in net.components() {
            let raw = net.component(comp).name.clone();
            let name = sanitize(&raw);
            match &net.component(comp).kind {
                ComponentKind::Source => {
                    let offer = nl.find(&format!("{name}.offer"))?;
                    let dins = (0..data_width)
                        .map(|i| nl.find(&format!("{name}.din{i}")))
                        .collect::<Result<Vec<_>, _>>()?;
                    srcs.push((raw, offer, dins));
                }
                ComponentKind::Sink => {
                    let stop = nl.find(&format!("{name}.stop"))?;
                    let kill = nl.find(&format!("{name}.kill"))?;
                    sinks.push((raw, stop, kill));
                }
                ComponentKind::VarLatency => {
                    let fin = nl.find(&format!("{name}.finish"))?;
                    vls.push((raw, fin));
                }
                _ => {}
            }
        }
        Ok(NetlistTestbench {
            srcs,
            sinks,
            vls,
            faults: Vec::new(),
        })
    }

    /// Like [`Self::new`], additionally resolving the arm input of every
    /// rail fault the netlist was compiled with
    /// ([`crate::compile::CompileOptions::faults`]), in site order. Site
    /// *i*'s stimulus column is `fault_cols()[i]`, matching
    /// [`Schedule::arm_fault`] site indices. Structural faults
    /// ([`FaultInjection::DropAntiToken`]) have no arm wire and are
    /// skipped, so a structural-only list resolves like [`Self::new`].
    ///
    /// # Errors
    ///
    /// [`CoreError::FaultSite`] when any listed fault has no arm input in
    /// the netlist (it was compiled fault-free or with different faults),
    /// plus everything [`Self::new`] reports.
    pub fn with_faults(
        net: &ElasticNetwork,
        nl: &elastic_netlist::Netlist,
        data_width: usize,
        faults: &[FaultInjection],
    ) -> Result<Self, CoreError> {
        let mut tb = NetlistTestbench::new(net, nl, data_width)?;
        for fault in faults {
            let Some(name) = fault.input_name() else {
                continue;
            };
            let id = nl.find(&name).map_err(|_| {
                CoreError::FaultSite(format!(
                    "netlist has no fault-arm input {name:?}; compile with this fault first"
                ))
            })?;
            tb.faults.push(id);
        }
        Ok(tb)
    }

    /// The packed-stimulus columns of every resolved fault-arm input, in
    /// site order (column *i* is [`Schedule`] fault site *i*): the last
    /// columns, after every source, sink and variable-latency group. Empty
    /// for a fault-free testbench.
    pub fn fault_cols(&self) -> Vec<usize> {
        let base = self
            .srcs
            .iter()
            .map(|(_, _, dins)| 1 + dins.len())
            .sum::<usize>()
            + 2 * self.sinks.len()
            + self.vls.len();
        (base..base + self.faults.len()).collect()
    }

    /// Primary-input assignments for cycle `t` of one schedule.
    pub fn inputs_at(&self, schedule: &Schedule, t: u64) -> Vec<(NetId, bool)> {
        let mut inputs: Vec<(NetId, bool)> = Vec::new();
        for (name, offer, dins) in &self.srcs {
            let o = schedule.offer_at(name, t);
            inputs.push((*offer, o.is_some()));
            for (i, &din) in dins.iter().enumerate() {
                inputs.push((din, o.is_some_and(|d| d >> i & 1 == 1)));
            }
        }
        for (name, stop, kill) in &self.sinks {
            inputs.push((*stop, schedule.stop_at(name, t)));
            inputs.push((*kill, schedule.kill_at(name, t)));
        }
        for (name, fin) in &self.vls {
            inputs.push((*fin, schedule.finish_at(name, t)));
        }
        for (site, &arm) in self.faults.iter().enumerate() {
            inputs.push((arm, schedule.fault_at(site, t)));
        }
        inputs
    }
}

/// A dense, pre-packed stimulus matrix for the bit-parallel Monte-Carlo hot
/// path: one `cycles × input-slots` table of lane-word groups, generated
/// once per shard by [`PackedStimulus::generate`] for up to `width × 64`
/// trials and then streamed into
/// [`elastic_netlist::wide::WideSim::cycle_packed`] by raw slot index — no
/// per-cycle heap allocation, no per-lane `HashMap` lookups and no `NetId`
/// validation inside the simulation loop.
///
/// Lane `l` of every row is trial `l`; word `l / 64`, bit `l % 64`. Column
/// `i` is the testbench's `i`-th input, in [`NetlistTestbench::inputs_at`]
/// order, and `slots[i]` is the dense arena index of its net. Lanes past
/// the trial count are zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedStimulus {
    cycles: usize,
    width: usize,
    slots: Vec<u32>,
    /// Row-major: `words[(t * slots.len() + i) * width + w]` is lane word
    /// `w` of input `i` at cycle `t`.
    words: Vec<u64>,
}

/// `1 / 2^53`: the scale of the rand shim's 53-bit unit-interval draw.
const UNIT_53: f64 = 1.0 / (1u64 << 53) as f64;

/// Integer-threshold Bernoulli, bit-identical to the rand shim's
/// `gen_bool(p)` (which tests `((r >> 11) as f64) * 2⁻⁵³ < p`).
///
/// Let `m = r >> 11 < 2^53`. Both `m as f64` and the `2⁻⁵³` scaling are
/// exact, so `gen_bool` accepts iff `m < p·2^53` as reals; `p·2^53` is
/// itself exact for any `p ∈ [0, 1]` (a power-of-two scaling never
/// rounds), hence `m < p·2^53 ⇔ m < ⌈p·2^53⌉` over the integers. One
/// shift and one integer compare per draw, no float conversion — the form
/// [`below`] evaluates for 64 lanes at once, asserted equivalent in
/// `bool_draw_matches_gen_bool`.
struct BoolDraw {
    threshold: u64,
}

impl BoolDraw {
    fn new(p: f64) -> BoolDraw {
        debug_assert!((0.0..=1.0).contains(&p));
        BoolDraw {
            threshold: (p * (1u64 << 53) as f64).ceil() as u64,
        }
    }
}

// The generator's RNG blocks and the stimulus matrix's lane words have the
// same 64 lanes.
const _: () = assert!(BLOCK_LANES == LANES);

/// Bit `l` is set when the top 53 bits of `draws[l]` lie below `threshold`
/// — [`BoolDraw`]'s test for 64 lanes at once.
#[inline(always)]
fn below(draws: &[u64; BLOCK_LANES], threshold: u64) -> u64 {
    let mut mask = 0u64;
    for (l, &r) in draws.iter().enumerate() {
        // Both `r >> 11` and `threshold` lie in [0, 2^53], so the sign bit
        // of their difference is exactly `r >> 11 < threshold`.
        mask |= ((r >> 11).wrapping_sub(threshold) >> 63) << l;
    }
    mask
}

/// The stimulus kernel: runs one stream of the 64 lanes of `rngs` for
/// `cycles` cycles and hands cycle `t`'s masks to `emit(t, hit, below)`.
/// A cycle makes up to two draws per lane, in [`Schedule::random`]'s
/// order:
///
/// * `first`: when `Some(threshold)`, every lane draws and bit `l` of
///   `hit` is set when lane `l`'s draw is below `threshold`; when `None`,
///   nothing is drawn and `hit` is all ones. This is a source's offer or a
///   sink's or VL unit's Bernoulli column.
/// * `second`: when `Some(cuts)`, the lanes of `hit` draw again (a masked
///   step: the other lanes keep their state) and bit `l` of `below[c]` is
///   set when lane `l`'s draw is below `cuts[c]`. This is a weighted
///   payload, with the cuts of its [`SrcPlan::Walk`] (possibly none); a
///   lane outside `hit` reads a draw it has not made. When `None`,
///   `below` is empty.
///
/// No lane loop carries a dependence from one lane to the next, so they
/// vectorize.
#[inline(always)]
fn threshold_stream(
    rngs: &mut StdRngLanes,
    first: Option<u64>,
    second: Option<&[u64]>,
    cycles: usize,
    mut emit: impl FnMut(usize, u64, &[u64]),
) {
    let mut draws = [0u64; BLOCK_LANES];
    let mut masks = vec![0u64; second.map_or(0, <[u64]>::len)];
    for t in 0..cycles {
        let hit = match first {
            Some(threshold) => {
                rngs.next_u64s(&mut draws);
                below(&draws, threshold)
            }
            None => u64::MAX,
        };
        if let Some(cuts) = second {
            // Without an offer draw every lane steps: the plain step draws
            // what a masked step under `u64::MAX` would, without the blend.
            if first.is_some() {
                rngs.next_u64s_masked(hit, &mut draws);
            } else {
                rngs.next_u64s(&mut draws);
            }
            for (mask, &cut) in masks.iter_mut().zip(cuts) {
                *mask = below(&draws, cut);
            }
        }
        emit(t, hit, &masks);
    }
}

/// [`threshold_stream`] built with AVX2 enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn threshold_stream_avx2(
    rngs: &mut StdRngLanes,
    first: Option<u64>,
    second: Option<&[u64]>,
    cycles: usize,
    emit: impl FnMut(usize, u64, &[u64]),
) {
    threshold_stream(rngs, first, second, cycles, emit);
}

/// [`threshold_stream`] built with AVX-512F enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn threshold_stream_avx512(
    rngs: &mut StdRngLanes,
    first: Option<u64>,
    second: Option<&[u64]>,
    cycles: usize,
    emit: impl FnMut(usize, u64, &[u64]),
) {
    threshold_stream(rngs, first, second, cycles, emit);
}

/// A build of [`threshold_stream`]. Every build draws the same words and
/// emits the same masks; they differ only in the instructions the
/// compiler may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Built for the baseline target.
    Portable,
    /// Built with AVX2 enabled. Only [`Kernel::available`] constructs it,
    /// after checking that the CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Built with AVX-512F enabled. Only [`Kernel::available`] constructs
    /// it, after checking that the CPU has AVX-512F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// Every build this CPU can run, fastest first.
    fn available() -> Vec<Kernel> {
        let mut builds = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                builds.push(Kernel::Avx512);
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                builds.push(Kernel::Avx2);
            }
        }
        builds.push(Kernel::Portable);
        builds
    }

    /// The fastest build this CPU can run.
    fn best() -> Kernel {
        Kernel::available()[0]
    }

    /// Runs [`threshold_stream`] through this build.
    fn run(
        self,
        rngs: &mut StdRngLanes,
        first: Option<u64>,
        second: Option<&[u64]>,
        cycles: usize,
        emit: impl FnMut(usize, u64, &[u64]),
    ) {
        match self {
            Kernel::Portable => threshold_stream(rngs, first, second, cycles, emit),
            // SAFETY: `Kernel::Avx2` and `Kernel::Avx512` are only
            // constructed by `Kernel::available`, once
            // `is_x86_feature_detected!` has returned true for their target
            // feature, so this CPU executes the build.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { threshold_stream_avx2(rngs, first, second, cycles, emit) },
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { threshold_stream_avx512(rngs, first, second, cycles, emit) },
        }
    }
}

/// Pre-resolved payload of one stimulus stream: what a lane sends on the
/// cycles it offers. The per-draw work of `weighted_draw` (re-summing the
/// weight total, re-filtering unusable entries, the float walk) is hoisted
/// to construction, keeping a weighted draw to one `next_u64` and integer
/// compares with **exactly** the original's FP semantics and RNG
/// consumption (including the degenerate-distribution early return that
/// draws nothing).
enum SrcPlan {
    /// A constant payload, no draw: `Const`, a degenerate weighted
    /// distribution, and the empty payload of a Bernoulli column.
    Fixed(u64),
    /// `Counter` (`Count(64)`) and `Alternate` (`Count(1)`), no draw: the
    /// low bits of the number of earlier offers of the lane.
    Count(usize),
    /// Weighted distribution, compiled to integer mantissa cutoffs: a draw
    /// with top-53-bit mantissa `m` selects `values[#cuts ≤ m]`. The cuts
    /// are non-decreasing, so the cuts at or below `m` are a prefix.
    Walk { cuts: Vec<u64>, values: Vec<u64> },
}

/// The entry index `weighted_draw` picks for a raw mantissa `m`, replicated
/// operation for operation: `rng.gen_range(0.0..total)` is start + unit ×
/// (end − start) clamped below the open upper bound, followed by the
/// first-hit subtractive walk with last-usable-entry fallback.
fn walk_select(m: u64, total: f64, entries: &[(u64, f64)]) -> usize {
    let v = m as f64 * UNIT_53 * total;
    let mut x = if v < total {
        v
    } else {
        total.next_down().max(0.0)
    };
    for (i, &(_, w)) in entries.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    entries.len() - 1
}

impl SrcPlan {
    fn new(data: &DataGen) -> SrcPlan {
        let choices = match data {
            DataGen::Const(v) => return SrcPlan::Fixed(*v),
            DataGen::Counter => return SrcPlan::Count(64),
            DataGen::Alternate => return SrcPlan::Count(1),
            DataGen::Weighted(choices) => choices,
        };
        let usable = |w: f64| w.is_finite() && w > 0.0;
        let total: f64 = choices.iter().map(|&(_, w)| w).filter(|&w| usable(w)).sum();
        if !(total.is_finite() && total > 0.0) {
            // weighted_draw returns before touching the RNG here: an empty
            // list maps to payload 0, anything else to the first entry.
            return SrcPlan::Fixed(choices.first().map_or(0, |c| c.0));
        }
        let entries: Vec<(u64, f64)> = choices
            .iter()
            .filter(|&&(_, w)| usable(w))
            .copied()
            .collect();
        // The selected index is monotone non-decreasing in the mantissa
        // (every step of `walk_select` — two multiplications, the clamp,
        // and the running subtraction — preserves ordering), so each
        // boundary is an exact integer cutoff recoverable by binary search
        // over the 2^53 mantissa values. This moves all floating-point off
        // the per-draw path: a draw is one shift plus `entries.len() - 1`
        // integer compares.
        let cuts: Vec<u64> = (0..entries.len() - 1)
            .map(|i| {
                // Smallest m with walk_select(m) > i; 2^53 when unreachable.
                let (mut lo, mut hi) = (0u64, 1u64 << 53);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if walk_select(mid, total, &entries) > i {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                lo
            })
            .collect();
        SrcPlan::Walk {
            cuts,
            values: entries.into_iter().map(|(v, _)| v).collect(),
        }
    }
}

/// Rejects a batch of `lanes` trials that is empty or exceeds the lane
/// capacity of a `width`-word matrix.
fn check_lanes(lanes: usize, width: usize) -> Result<(), CoreError> {
    if lanes == 0 {
        return Err(CoreError::ScheduleBatch("empty schedule batch".into()));
    }
    if lanes > width * LANES {
        return Err(CoreError::ScheduleBatch(format!(
            "{lanes} schedules exceed the {}-lane capacity of a {width}-word backend",
            width * LANES
        )));
    }
    Ok(())
}

/// The dense arena slot of every testbench input, in stimulus column
/// order: each source's offer and payload bits, each sink's stop and
/// kill, each VL unit's finish, then the fault arms.
fn input_slots(tb: &NetlistTestbench) -> Vec<u32> {
    let mut slots: Vec<u32> = Vec::new();
    for (_, offer, dins) in &tb.srcs {
        slots.push(offer.index() as u32);
        slots.extend(dins.iter().map(|d| d.index() as u32));
    }
    for (_, stop, kill) in &tb.sinks {
        slots.push(stop.index() as u32);
        slots.push(kill.index() as u32);
    }
    for (_, fin) in &tb.vls {
        slots.push(fin.index() as u32);
    }
    slots.extend(tb.faults.iter().map(|f| f.index() as u32));
    slots
}

/// How [`PackedStimulus::generate`] fills one stimulus stream of a 64-lane
/// word group, resolved once from the environment. Streams are listed in
/// the order [`Schedule::random`] draws them. A source's stream is its
/// offer column and the payload columns after it; a sink's stop or kill
/// and a VL unit's finish are a Bernoulli column with no payload.
struct Stream {
    /// The offer or Bernoulli column.
    col: usize,
    /// The Bernoulli draw behind `col`, `None` for a source that offers on
    /// every cycle without drawing.
    offer: Option<BoolDraw>,
    /// Payload columns after `col` (a source's data bits).
    bits: usize,
    /// What an offering lane sends.
    plan: SrcPlan,
}

impl Stream {
    /// A Bernoulli column drawn with probability `p`.
    fn bernoulli(col: usize, p: f64) -> Stream {
        Stream {
            col,
            offer: Some(BoolDraw::new(p)),
            bits: 0,
            plan: SrcPlan::Fixed(0),
        }
    }
}

impl PackedStimulus {
    /// Generates `lanes` random schedules seeded `seed..seed + lanes`
    /// (wrapping at `u64::MAX`) **directly into packed form**, without
    /// materializing a [`Schedule`].
    ///
    /// This is the only producer of stimulus lane words; every campaign
    /// and the wide co-simulation ([`cosim_check_wide`]) run on it. Each
    /// 64-lane word group keeps its lanes' xoshiro256** states side by side
    /// ([`StdRngLanes`]) and runs every stream through one kernel, which
    /// advances all 64 lanes together, one cycle at a time, so a cycle's
    /// lane word comes out of one vectorized pass over the lanes. The
    /// kernel runs as its AVX-512F or AVX2 build when the CPU has that
    /// feature. Per cycle and lane, a stream makes at most two draws:
    ///
    /// * sink stops and kills, VL finishes and sub-rate offers draw one
    ///   word in every lane and compare it against the probability's
    ///   threshold;
    /// * weighted payloads draw a second word, compared against the cuts
    ///   of the payload's walk. At full rate every lane draws it; at a
    ///   sub-rate only the lanes that offered this cycle step their
    ///   generator, and the others keep their state (a masked step);
    /// * `Const`, `Counter`, `Alternate` and degenerate weighted payloads
    ///   draw nothing. `Counter` and `Alternate` keep one sequence counter
    ///   per lane, bit-sliced across the lanes and incremented under the
    ///   offer mask.
    ///
    /// Every lane makes **exactly the draws [`Schedule::random`] makes, in
    /// the same order**, so lane `j` is bit-identical to
    /// [`NetlistTestbench::inputs_at`] of `Schedule::random(net, cfg,
    /// seed + j, cycles)` on every cycle: `Schedule` is the scalar and
    /// behavioural view of the generated stream (asserted by unit tests
    /// on every kernel build, and by the wide co-simulation).
    ///
    /// # Errors
    ///
    /// [`CoreError::ScheduleBatch`] when `lanes` is zero or exceeds the
    /// `width × 64` lane capacity.
    ///
    /// # Panics
    ///
    /// Panics if `tb` was not resolved against (a compilation of) `net`:
    /// the testbench must list exactly `net`'s sources, sinks and
    /// variable-latency units, in component order.
    pub fn generate(
        tb: &NetlistTestbench,
        net: &ElasticNetwork,
        cfg: &EnvConfig,
        seed: u64,
        lanes: usize,
        cycles: usize,
        width: usize,
    ) -> Result<PackedStimulus, CoreError> {
        Self::generate_with(Kernel::best(), tb, net, cfg, seed, lanes, cycles, width)
    }

    /// [`Self::generate`] through the given kernel build.
    #[allow(clippy::too_many_arguments)]
    fn generate_with(
        kernel: Kernel,
        tb: &NetlistTestbench,
        net: &ElasticNetwork,
        cfg: &EnvConfig,
        seed: u64,
        lanes: usize,
        cycles: usize,
        width: usize,
    ) -> Result<PackedStimulus, CoreError> {
        check_lanes(lanes, width)?;
        let slots = input_slots(tb);
        let n = slots.len();
        let streams = Self::streams(tb, net, cfg);
        // The fault-arm columns (if any) stay all-zero: freshly generated
        // schedules are unarmed, matching `Schedule::random`. Campaigns arm
        // per-lane windows afterwards with [`Self::arm_fault`].
        let mut words = vec![0u64; cycles * n * width];
        let cell = |t: usize, col: usize, w: usize| (t * n + col) * width + w;
        for g in 0..lanes.div_ceil(LANES) {
            let glen = LANES.min(lanes - g * LANES);
            let live = u64::MAX >> (LANES - glen);
            let mut rngs = StdRngLanes::seed_from_u64(seed.wrapping_add((g * LANES) as u64));
            for stream in &streams {
                let &Stream {
                    col,
                    ref offer,
                    bits,
                    ref plan,
                } = stream;
                let threshold = offer.as_ref().map(|d| d.threshold);
                // One kernel call per payload plan, each with a small
                // emission forced inline. An emission behind a call, or one
                // closure branching on the plan, kept the compiler from
                // holding the lanes' generator state in registers across
                // cycles and cost the AVX-512 build about half its gain.
                match plan {
                    SrcPlan::Fixed(v) => kernel.run(
                        &mut rngs,
                        threshold,
                        None,
                        cycles,
                        #[inline(always)]
                        |t, hit, _| {
                            let offered = hit & live;
                            let base = cell(t, col, g);
                            words[base] = offered;
                            for j in 0..bits {
                                words[base + (1 + j) * width] =
                                    offered & 0u64.wrapping_sub(v >> j & 1);
                            }
                        },
                    ),
                    SrcPlan::Count(modulus_bits) => {
                        // Bit-sliced per-lane sequence counter: `count[j]`
                        // holds bit `j` of every lane's number of earlier
                        // offers, modulo the payload width.
                        let mut count = vec![0u64; bits.min(*modulus_bits)];
                        kernel.run(
                            &mut rngs,
                            threshold,
                            None,
                            cycles,
                            #[inline(always)]
                            |t, hit, _| {
                                let offered = hit & live;
                                let base = cell(t, col, g);
                                words[base] = offered;
                                for (j, &plane) in count.iter().enumerate() {
                                    words[base + (1 + j) * width] = plane & offered;
                                }
                                // Ripple-carry increment of the offering lanes.
                                let mut carry = offered;
                                for plane in &mut count {
                                    (*plane, carry) = (*plane ^ carry, *plane & carry);
                                }
                            },
                        );
                    }
                    SrcPlan::Walk { cuts, values } => {
                        // A lane takes `values[i]` with `i` the number of
                        // cuts at or below its draw, so `below[c]` is set
                        // exactly when `i <= c`. Reading down from the last
                        // value, payload bit `j` flips at every cut where
                        // adjacent values differ in bit `j`.
                        let last = values[cuts.len()];
                        kernel.run(
                            &mut rngs,
                            threshold,
                            Some(cuts),
                            cycles,
                            #[inline(always)]
                            |t, hit, below| {
                                let offered = hit & live;
                                let base = cell(t, col, g);
                                words[base] = offered;
                                for j in 0..bits {
                                    let mut plane = 0u64.wrapping_sub(last >> j & 1);
                                    for (c, &b) in below.iter().enumerate() {
                                        if (values[c] ^ values[c + 1]) >> j & 1 == 1 {
                                            plane ^= b;
                                        }
                                    }
                                    words[base + (1 + j) * width] = plane & offered;
                                }
                            },
                        );
                    }
                }
            }
        }
        Ok(PackedStimulus {
            cycles,
            width,
            slots,
            words,
        })
    }

    /// Resolves `cfg` for every source, sink and VL unit of `net` into the
    /// streams [`Schedule::random`] draws, in its order, each with its
    /// stimulus column. A stop or kill that never fires draws nothing and
    /// gets no stream.
    fn streams(tb: &NetlistTestbench, net: &ElasticNetwork, cfg: &EnvConfig) -> Vec<Stream> {
        let mut src_col = 0;
        let mut sink_col: usize = tb.srcs.iter().map(|(_, _, dins)| 1 + dins.len()).sum();
        let mut vl_col = sink_col + 2 * tb.sinks.len();
        let (mut src_i, mut sink_i, mut vl_i) = (0, 0, 0);
        let mut streams = Vec::new();
        for comp in net.components() {
            let name = net.component(comp).name.as_str();
            match &net.component(comp).kind {
                ComponentKind::Source => {
                    let (tb_name, _, dins) = &tb.srcs[src_i];
                    debug_assert_eq!(tb_name, name, "testbench/network source order");
                    let c = cfg.sources.get(name).unwrap_or(&cfg.default_source);
                    streams.push(Stream {
                        col: src_col,
                        offer: c.offer_draw().map(BoolDraw::new),
                        bits: dins.len(),
                        plan: SrcPlan::new(&c.data),
                    });
                    src_col += 1 + dins.len();
                    src_i += 1;
                }
                ComponentKind::Sink => {
                    let (tb_name, _, _) = &tb.sinks[sink_i];
                    debug_assert_eq!(tb_name, name, "testbench/network sink order");
                    let c = cfg.sinks.get(name).copied().unwrap_or(cfg.default_sink);
                    for (col, p) in [(sink_col, c.stop_draw()), (sink_col + 1, c.kill_draw())] {
                        if let Some(p) = p {
                            streams.push(Stream::bernoulli(col, p));
                        }
                    }
                    sink_col += 2;
                    sink_i += 1;
                }
                ComponentKind::VarLatency => {
                    let (tb_name, _) = &tb.vls[vl_i];
                    debug_assert_eq!(tb_name, name, "testbench/network VL order");
                    let dist = cfg.vls.get(name).unwrap_or(&cfg.default_vl);
                    streams.push(Stream::bernoulli(vl_col, dist.finish_draw()));
                    vl_col += 1;
                    vl_i += 1;
                }
                _ => {}
            }
        }
        streams
    }

    /// Horizon of the packed schedules, in cycles.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Lane words per input (the `W` of the target backend).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Dense arena slot of every input column, in testbench input order.
    /// Validate once against the target simulator with
    /// [`elastic_netlist::wide::WideSim::check_input_slots`].
    pub fn slots(&self) -> &[u32] {
        &self.slots
    }

    /// The stimulus row of cycle `t`: `slots.len() × width` lane words,
    /// ready for [`elastic_netlist::wide::WideSim::cycle_packed`].
    ///
    /// # Panics
    ///
    /// Panics if `t >= cycles`.
    pub fn row(&self, t: usize) -> &[u64] {
        let stride = self.slots.len() * self.width;
        &self.words[t * stride..(t + 1) * stride]
    }

    /// Arms the fault column `col` (an entry of
    /// [`NetlistTestbench::fault_cols`]) for lane `lane` over the window
    /// `start..start + len` — each packed trial gets its own independent
    /// fault instance this way. The lane then reads like its [`Schedule`]
    /// with the same window armed by [`Schedule::arm_fault`] on that
    /// column's site.
    ///
    /// # Errors
    ///
    /// [`CoreError::FaultSite`] when the column or lane does not exist, the
    /// window is empty, or it extends past the packed horizon.
    pub fn arm_fault(
        &mut self,
        col: usize,
        lane: usize,
        start: usize,
        len: usize,
    ) -> Result<(), CoreError> {
        let n = self.slots.len();
        if col >= n {
            return Err(CoreError::FaultSite(format!(
                "no stimulus column {col} (the matrix has {n})"
            )));
        }
        if lane >= self.width * LANES {
            return Err(CoreError::FaultSite(format!(
                "lane {lane} exceeds the {}-lane capacity",
                self.width * LANES
            )));
        }
        if len == 0 {
            return Err(CoreError::FaultSite("empty injection window".into()));
        }
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.cycles)
            .ok_or_else(|| {
                CoreError::FaultSite(format!(
                    "injection window {start}+{len} exceeds the {}-cycle horizon",
                    self.cycles
                ))
            })?;
        let (w, bit) = (lane / LANES, lane % LANES);
        for t in start..end {
            self.words[(t * n + col) * self.width + w] |= 1 << bit;
        }
        Ok(())
    }
}

/// Runs the behavioural simulator and the compiled netlist side by side
/// under the same [`Schedule`] and compares all four rails of every channel
/// on every cycle.
///
/// # Errors
///
/// Returns the first divergence as [`CoreError::ProtocolViolation`], or
/// propagates simulation/compilation errors.
pub fn cosim_check(
    net: &ElasticNetwork,
    schedule: &Schedule,
    data_width: usize,
) -> Result<(), CoreError> {
    let mut behav = BehavSim::new(net)?;
    let mut sched_env = schedule.clone();
    let compiled = compile(
        net,
        &CompileOptions {
            data_width,
            ..CompileOptions::default()
        },
    )?;
    let nl = &compiled.netlist;
    let mut gates = Simulator::new(nl)?;
    let tb = NetlistTestbench::new(net, nl, data_width)?;

    for t in 0..schedule.cycles as u64 {
        gates.cycle(&tb.inputs_at(schedule, t))?;
        behav.step(&mut sched_env)?;

        // Compare every rail.
        for chan in net.channels() {
            let b = behav.signals(chan);
            let nets = &compiled.channels[chan.index()];
            let g = (
                gates.value(nets.vp),
                gates.value(nets.sp),
                gates.value(nets.vn),
                gates.value(nets.sn),
            );
            if (b.vp, b.sp, b.vn, b.sn) != g {
                return Err(CoreError::ProtocolViolation {
                    channel: chan,
                    message: format!(
                        "co-simulation divergence at cycle {t} on {}: behavioural {b}, \
                         gates V+={} S+={} V-={} S-={}",
                        net.channel(chan).name,
                        u8::from(g.0),
                        u8::from(g.1),
                        u8::from(g.2),
                        u8::from(g.3),
                    ),
                });
            }
            if b.vp && data_width > 0 {
                for (i, &dn) in nets.data.iter().enumerate() {
                    let gb = gates.value(dn);
                    let bb = b.data >> i & 1 == 1;
                    if gb != bb {
                        return Err(CoreError::ProtocolViolation {
                            channel: chan,
                            message: format!(
                                "data divergence at cycle {t} on {} bit {i}",
                                net.channel(chan).name
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

/// Three-way co-simulation of the bit-parallel backend: generates `lanes`
/// trials seeded `seed..seed + lanes` with [`PackedStimulus::generate`]
/// and runs them through a [`WideSimulator`], replays each lane's
/// [`Schedule::random`] through the behavioural simulator and lane 0's
/// through the scalar gate-level [`Simulator`], and compares all four
/// rails (and payload bits on valid cycles) of every channel, every cycle,
/// in every lane.
///
/// This is the compiled-backend extension of the paper's Fig. 8
/// verification story: the generated stimulus and the wide backend must be
/// indistinguishable from the reference interpreters before their
/// Monte-Carlo statistics (Table 1, Figs. 5–7, 9) can be trusted.
///
/// # Errors
///
/// [`CoreError::ScheduleBatch`] when `lanes` is 0 or above 64; the first
/// divergence as [`CoreError::ProtocolViolation`] naming the cycle,
/// channel and lane; simulation and compilation errors otherwise.
#[allow(clippy::too_many_lines)]
pub fn cosim_check_wide(
    net: &ElasticNetwork,
    cfg: &EnvConfig,
    seed: u64,
    lanes: usize,
    cycles: usize,
    data_width: usize,
) -> Result<(), CoreError> {
    let compiled = compile(
        net,
        &CompileOptions {
            data_width,
            ..CompileOptions::default()
        },
    )?;
    let nl = &compiled.netlist;
    let tb = NetlistTestbench::new(net, nl, data_width)?;
    let stim = PackedStimulus::generate(&tb, net, cfg, seed, lanes, cycles, 1)?;
    let mut wide = WideSimulator::new(nl)?;
    wide.check_input_slots(stim.slots())?;
    let mut scalar = Simulator::new(nl)?;
    let mut behavs: Vec<(BehavSim, Schedule)> = (0..lanes as u64)
        .map(|k| {
            let sched = Schedule::random(net, cfg, seed.wrapping_add(k), cycles);
            Ok((BehavSim::new(net)?, sched))
        })
        .collect::<Result<_, CoreError>>()?;

    let diverged = |t: usize, chan, lane: usize, what: &str| CoreError::ProtocolViolation {
        channel: chan,
        message: format!(
            "wide co-simulation divergence at cycle {t} on {} lane {lane}: {what}",
            net.channel(chan).name
        ),
    };

    for t in 0..cycles {
        wide.cycle_packed(stim.slots(), stim.row(t));
        scalar.cycle(&tb.inputs_at(&behavs[0].1, t as u64))?;
        for (behav, sched) in &mut behavs {
            behav.step(sched)?;
        }
        for chan in net.channels() {
            let nets = &compiled.channels[chan.index()];
            // Lane 0 must bit-match the scalar gate-level interpreter on
            // every rail net.
            for (rail, id) in [
                ("vp", nets.vp),
                ("sp", nets.sp),
                ("vn", nets.vn),
                ("sn", nets.sn),
            ] {
                if wide.value_lane(id, 0) != scalar.value(id) {
                    return Err(diverged(t, chan, 0, &format!("{rail} != scalar gates")));
                }
            }
            // Every lane must match its behavioural run.
            for (lane, (behav, _)) in behavs.iter().enumerate() {
                let b = behav.signals(chan);
                let g = (
                    wide.value_lane(nets.vp, lane),
                    wide.value_lane(nets.sp, lane),
                    wide.value_lane(nets.vn, lane),
                    wide.value_lane(nets.sn, lane),
                );
                if (b.vp, b.sp, b.vn, b.sn) != g {
                    return Err(diverged(
                        t,
                        chan,
                        lane,
                        &format!(
                            "behavioural {b}, wide V+={} S+={} V-={} S-={}",
                            u8::from(g.0),
                            u8::from(g.1),
                            u8::from(g.2),
                            u8::from(g.3)
                        ),
                    ));
                }
                if b.vp {
                    for (i, &dn) in nets.data.iter().enumerate() {
                        if wide.value_lane(dn, lane) != (b.data >> i & 1 == 1) {
                            return Err(diverged(t, chan, lane, &format!("data bit {i}")));
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// The four CTL properties of Sect. 5 for one channel, over the rail-net
/// naming convention of the compiler.
pub fn paper_properties(channel_name: &str) -> [(String, String); 4] {
    let c = sanitize(channel_name);
    [
        (
            "Retry+".to_string(),
            format!("AG ({c}.vp & {c}.sp -> AX {c}.vp)"),
        ),
        (
            "Retry-".to_string(),
            format!("AG ({c}.vn & {c}.sn -> AX {c}.vn)"),
        ),
        (
            "Invariant".to_string(),
            format!("AG ((!{c}.vn | !{c}.sp) & (!{c}.vp | !{c}.sn))"),
        ),
        (
            "Liveness".to_string(),
            format!("AG AF (({c}.vp & !{c}.sp) | ({c}.vn & !{c}.sn))"),
        ),
    ]
}

/// Result of model-checking one property on one channel.
#[derive(Debug, Clone)]
pub struct PropertyResult {
    /// Channel display name.
    pub channel: String,
    /// Property short name (`Retry+`, `Retry-`, `Invariant`, `Liveness`).
    pub property: String,
    /// The CTL formula that was checked.
    pub formula: String,
    /// Whether it holds in all initial states.
    pub holds: bool,
}

/// Compiles `net` and exhaustively model-checks the paper's four properties
/// on every channel, under fairness constraints making every environment
/// input recur (offers, accepts and completions happen infinitely often,
/// kills stay finite).
///
/// Returns one [`PropertyResult`] per (channel, property) pair plus the
/// explored state-space size.
///
/// # Errors
///
/// Propagates compilation and model-checking errors (including the input
/// budget when the environment is too wide for exhaustive exploration).
pub fn check_network_properties(
    net: &ElasticNetwork,
    opts: BridgeOptions,
) -> Result<(Vec<PropertyResult>, usize), CoreError> {
    let compiled = compile(net, &CompileOptions::default())?;
    let kripke = build_kripke(net, &compiled.netlist, opts)?;
    let mut results = Vec::new();
    for chan in net.channels() {
        let cname = net.channel(chan).name.clone();
        for (prop, formula) in paper_properties(&cname) {
            let f = parse(&formula).map_err(|e| CoreError::Netlist(e.to_string()))?;
            let holds = check_fair(&kripke, &f)
                .map_err(|e| CoreError::Netlist(e.to_string()))?
                .holds();
            results.push(PropertyResult {
                channel: cname.clone(),
                property: prop,
                formula,
                holds,
            });
        }
    }
    let states = kripke.num_states();
    Ok((results, states))
}

/// Exhaustive self-stabilization check: compiles `net` with the corruption
/// gates of `process` (every site becomes a free `fault.<channel>.<rail>`
/// arm input) and asks, by explicit-state exploration, whether the
/// protocol re-enters its legal `(I*R*T)*` state set from **every**
/// fault-reachable state once the arms go quiet — the convergence half of
/// a self-stabilization proof; closure holds by construction since the
/// legal set is the arm-low reachable set. `horizon` is only used to
/// validate the process spec (the state-space analysis is horizon-free).
///
/// # Errors
///
/// [`CoreError::FaultProcess`] / [`CoreError::FaultSite`] for an invalid
/// process, compilation errors, and [`CoreError::Netlist`] wrapping the
/// model checker's budget errors when the faulted environment is too wide
/// for exhaustive exploration. `data_width` is the compiled payload width
/// (early-evaluation guards dictate a minimum; 0 for pure control
/// checking) — every data bit is another free environment input, so keep
/// it minimal.
pub fn check_network_convergence(
    net: &ElasticNetwork,
    process: &crate::fault::FaultProcess,
    horizon: usize,
    data_width: usize,
    opts: BridgeOptions,
) -> Result<ConvergenceReport, CoreError> {
    process.validate(net, horizon)?;
    let compiled = compile(
        net,
        &CompileOptions {
            faults: process.sites(),
            data_width,
            ..CompileOptions::default()
        },
    )?;
    let kripke = netlist_kripke(&compiled.netlist, &[], opts)
        .map_err(|e| CoreError::Netlist(e.to_string()))?;
    Ok(kripke.convergence_report())
}

/// Builds the Kripke structure of a compiled network with the standard
/// fairness constraints: every source offers infinitely often, every sink
/// is non-stopping and non-killing infinitely often, and every
/// variable-latency unit finishes infinitely often.
fn build_kripke(
    net: &ElasticNetwork,
    nl: &elastic_netlist::Netlist,
    opts: BridgeOptions,
) -> Result<NetlistKripke, CoreError> {
    // Fairness nets must exist by name; add helper nets for negated
    // conditions (e.g. "not stopping") before bridging.
    let mut nl = nl.clone();
    let mut fairness: Vec<String> = Vec::new();
    for comp in net.components() {
        let name = sanitize(&net.component(comp).name);
        match &net.component(comp).kind {
            ComponentKind::Source => fairness.push(format!("{name}.offer")),
            ComponentKind::Sink => {
                let stop = nl.find(&format!("{name}.stop"))?;
                let go = nl.not(stop);
                let gname = format!("{name}.accepting");
                nl.set_name(go, &gname)?;
                fairness.push(gname);
                let kill = nl.find(&format!("{name}.kill"))?;
                let nk = nl.not(kill);
                let nkname = format!("{name}.benign");
                nl.set_name(nk, &nkname)?;
                fairness.push(nkname);
            }
            ComponentKind::VarLatency => fairness.push(format!("{name}.finish")),
            _ => {}
        }
    }
    let fair_refs: Vec<&str> = fairness.iter().map(String::as_str).collect();
    netlist_kripke(&nl, &fair_refs, opts).map_err(|e| CoreError::Netlist(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{SinkCfg, SourceCfg};
    use crate::systems::linear_pipeline;
    use rand::RngCore;

    fn stress_cfg() -> EnvConfig {
        EnvConfig {
            default_source: SourceCfg {
                rate: 0.7,
                // Uniform over the 2-bit payload space so the data rails are
                // exercised (schedules honor the configured DataGen).
                data: crate::sim::DataGen::Weighted(vec![
                    (0, 0.25),
                    (1, 0.25),
                    (2, 0.25),
                    (3, 0.25),
                ]),
            },
            default_sink: SinkCfg {
                stop_prob: 0.3,
                kill_prob: 0.15,
            },
            ..Default::default()
        }
    }

    #[test]
    fn cosim_linear_pipeline() {
        let (net, _, _) = linear_pipeline(3, 1).unwrap();
        let sched = Schedule::random(&net, &stress_cfg(), 11, 600);
        cosim_check(&net, &sched, 2).unwrap();
    }

    #[test]
    fn cosim_join_fork_network() {
        let mut net = ElasticNetwork::new("jf");
        let s1 = net.add_source("s1").unwrap();
        let s2 = net.add_source("s2").unwrap();
        let b1 = net.add_eb("b1", false).unwrap();
        let b2 = net.add_eb("b2", true).unwrap();
        let j = net.add_join("j", 2).unwrap();
        let bj = net.add_eb("bj", false).unwrap();
        let f = net.add_fork("f", 2).unwrap();
        let k1 = net.add_sink("k1").unwrap();
        let k2 = net.add_sink("k2").unwrap();
        net.connect(s1, 0, b1, 0, "c1").unwrap();
        net.connect(s2, 0, b2, 0, "c2").unwrap();
        net.connect(b1, 0, j, 0, "j1").unwrap();
        net.connect(b2, 0, j, 1, "j2").unwrap();
        net.connect(j, 0, bj, 0, "jo").unwrap();
        net.connect(bj, 0, f, 0, "fi").unwrap();
        net.connect(f, 0, k1, 0, "o1").unwrap();
        net.connect(f, 1, k2, 0, "o2").unwrap();
        let sched = Schedule::random(&net, &stress_cfg(), 23, 800);
        cosim_check(&net, &sched, 1).unwrap();
    }

    #[test]
    fn cosim_early_join_with_vl() {
        use crate::ee::{EarlyEval, EeTerm};
        let mut net = ElasticNetwork::new("ejvl");
        let g = net.add_source("g").unwrap();
        let s1 = net.add_source("s1").unwrap();
        let bg = net.add_eb("bg", false).unwrap();
        let b1 = net.add_eb("b1", false).unwrap();
        let vl = net.add_var_latency("vl").unwrap();
        let ee = EarlyEval::new(
            0,
            vec![
                EeTerm {
                    guard_mask: 1,
                    guard_value: 0,
                    required: vec![],
                    select: 0,
                },
                EeTerm {
                    guard_mask: 1,
                    guard_value: 1,
                    required: vec![1],
                    select: 1,
                },
            ],
        );
        let j = net.add_early_join("w", 2, ee).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(g, 0, bg, 0, "cg").unwrap();
        net.connect(s1, 0, b1, 0, "c1").unwrap();
        net.connect(b1, 0, vl, 0, "bv").unwrap();
        net.connect(bg, 0, j, 0, "jg").unwrap();
        net.connect(vl, 0, j, 1, "jv").unwrap();
        net.connect(j, 0, snk, 0, "out").unwrap();
        let sched = Schedule::random(&net, &stress_cfg(), 31, 800);
        cosim_check(&net, &sched, 1).unwrap();
    }

    #[test]
    fn cosim_paper_example_all_configs() {
        use crate::systems::{paper_example, Config};
        for config in Config::all() {
            let sys = paper_example(config).unwrap();
            let sched = Schedule::random(&sys.network, &sys.env_config, 5, 400);
            cosim_check(&sys.network, &sched, 2).unwrap_or_else(|e| panic!("{config:?}: {e}"));
        }
    }

    #[test]
    fn wide_cosim_fig6_controllers() {
        // The Fig. 6 / Fig. 8(a) model-checked controllers: short pipelines
        // with and without initial tokens. 16 lanes of independent
        // schedules; lane 0 is additionally checked against the scalar
        // gate-level interpreter inside cosim_check_wide.
        for (stages, tokens) in [(1usize, 0usize), (2, 1)] {
            let (net, _, _) = linear_pipeline(stages, tokens).unwrap();
            cosim_check_wide(&net, &stress_cfg(), 100, 16, 400, 1)
                .unwrap_or_else(|e| panic!("{stages} stages: {e}"));
        }
    }

    #[test]
    fn wide_cosim_fig8_pipeline_full_64_lanes() {
        // The Fig. 8(b) data-correctness pipeline under a killing
        // environment, with every one of the 64 lanes holding a distinct
        // schedule.
        let (net, _, _) = linear_pipeline(3, 1).unwrap();
        cosim_check_wide(&net, &stress_cfg(), 7000, 64, 300, 2).unwrap();
    }

    #[test]
    fn wide_cosim_paper_example_all_configs() {
        use crate::systems::{paper_example, Config};
        for config in Config::all() {
            let sys = paper_example(config).unwrap();
            cosim_check_wide(&sys.network, &sys.env_config, 40, 8, 250, 2)
                .unwrap_or_else(|e| panic!("{config:?}: {e}"));
        }
    }

    #[test]
    fn wide_cosim_rejects_bad_lane_counts_typed() {
        let (net, _, _) = linear_pipeline(1, 0).unwrap();
        for lanes in [0, LANES + 1] {
            assert!(
                matches!(
                    cosim_check_wide(&net, &stress_cfg(), 1, lanes, 10, 1),
                    Err(CoreError::ScheduleBatch(_))
                ),
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn generate_matches_pack_of_random_schedules() {
        // The generator must be bit-identical to the scalar view of
        // Schedule::random, lane by lane, for every stream kind and every
        // RNG branch: full-rate and sub-rate sources, zero and non-zero
        // stop/kill probabilities, configured and default VL distributions,
        // and partial final word groups — through every kernel build the
        // host runs.
        use crate::corpus::{self, CorpusConfig, Knobs, DESIGNS};
        use crate::systems::{paper_example, Config};
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let compiled = compile(
            &sys.network,
            &CompileOptions {
                data_width: 2,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let tb = NetlistTestbench::new(&sys.network, &compiled.netlist, 2).unwrap();
        for (cfg, tag) in [(sys.env_config.clone(), "paper"), (stress_cfg(), "stress")] {
            // 150 lanes: two full words and a 22-lane partial on width 3,
            // seeds wrapping near u64::MAX.
            for seed in [0u64, 424242, u64::MAX - 10] {
                let tag = format!("{tag} seed {seed}");
                assert_matches_schedules(&sys.network, &tb, &cfg, seed, 37, &[(150, 3)], &tag);
            }
        }
        // Degenerate lane counts are typed errors.
        assert!(matches!(
            PackedStimulus::generate(&tb, &sys.network, &sys.env_config, 1, 0, 10, 1),
            Err(CoreError::ScheduleBatch(_))
        ));
        assert!(matches!(
            PackedStimulus::generate(&tb, &sys.network, &sys.env_config, 1, 65, 10, 1),
            Err(CoreError::ScheduleBatch(_))
        ));

        // Every word width against lane counts around the group edges, on
        // full-rate weighted sources (the paper) and sub-rate sources with
        // stops and kills (stress).
        let shapes: Vec<(usize, usize)> = [1usize, 2, 4, 8]
            .into_iter()
            .flat_map(|w| {
                [1usize, 63, 64, 65, 511, 512]
                    .into_iter()
                    .filter(move |&l| l <= w * LANES)
                    .map(move |l| (l, w))
            })
            .collect();
        for (cfg, tag) in [(sys.env_config.clone(), "paper"), (stress_cfg(), "stress")] {
            assert_matches_schedules(&sys.network, &tb, &cfg, 77, 9, &shapes, tag);
        }

        // Weighted payloads with 0 to 5 cuts, adjacent equal values, a
        // value wider than the two data bits, and degenerate weights —
        // each offered every cycle (the walk, or a constant payload) and
        // at a sub-rate (the walk's masked step).
        let payloads = [
            vec![(2, 1.0)],
            vec![(0, 0.5), (3, 0.5)],
            vec![(1, 0.2), (2, 0.3), (3, 0.5)],
            vec![(0, 0.1), (1, 0.2), (1, 0.3), (2, 0.4)],
            vec![(3, 0.1), (0, 0.2), (5, 0.1), (1, 0.25), (2, 0.15), (0, 0.2)],
            vec![(0, 0.0), (1, f64::NAN), (2, 0.5), (3, -1.0)],
            vec![(3, 0.0), (1, 0.0)],
            vec![],
        ];
        let mut cfg = sys.env_config.clone();
        for choices in payloads {
            for rate in [1.0, 0.6] {
                cfg.default_source = SourceCfg {
                    rate,
                    data: crate::sim::DataGen::Weighted(choices.clone()),
                };
                let tag = format!("rate {rate} weights {choices:?}");
                assert_matches_schedules(&sys.network, &tb, &cfg, 5, 23, &[(70, 2)], &tag);
            }
        }

        // Stop, kill and finish at p = 0 and p = 1. A finish stream always
        // draws: its probability floors at 0.05 (a 1000-cycle latency).
        for (stop_prob, kill_prob) in [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)] {
            for latency in [1, 1000] {
                let cfg = EnvConfig {
                    default_sink: SinkCfg {
                        stop_prob,
                        kill_prob,
                    },
                    default_vl: crate::sim::LatencyDist::fixed(latency),
                    vls: HashMap::new(),
                    ..sys.env_config.clone()
                };
                let tag = format!("stop {stop_prob} kill {kill_prob} latency {latency}");
                assert_matches_schedules(&sys.network, &tb, &cfg, 3, 17, &[(65, 2)], &tag);
            }
        }

        // The 30 corpus design × configuration environments: guard
        // sources with one-cut walks, and full-rate `Const(0)` sources
        // that draw nothing.
        for design in DESIGNS {
            for config in CorpusConfig::all() {
                let sys = corpus::build(design, config, &Knobs::default()).unwrap();
                let nl = compile(
                    &sys.network,
                    &CompileOptions {
                        data_width: sys.data_width,
                        ..CompileOptions::default()
                    },
                )
                .unwrap();
                let tb = NetlistTestbench::new(&sys.network, &nl.netlist, sys.data_width).unwrap();
                let tag = format!("{design}/{}", config.tag());
                assert_matches_schedules(&sys.network, &tb, &sys.env, 11, 13, &[(65, 2)], &tag);
            }
        }
    }

    /// Asserts that, for each `(lanes, width)`, every kernel build
    /// generates exactly the [`inputs_at_matrix`] of `Schedule::random` for
    /// seeds `seed..seed + lanes`.
    fn assert_matches_schedules(
        net: &ElasticNetwork,
        tb: &NetlistTestbench,
        cfg: &EnvConfig,
        seed: u64,
        cycles: usize,
        shapes: &[(usize, usize)],
        tag: &str,
    ) {
        let most = shapes.iter().map(|&(lanes, _)| lanes).max().unwrap_or(0);
        let scheds: Vec<Schedule> = (0..most as u64)
            .map(|k| Schedule::random(net, cfg, seed.wrapping_add(k), cycles))
            .collect();
        for &(lanes, width) in shapes {
            let reference = inputs_at_matrix(tb, &scheds[..lanes], width);
            for kernel in Kernel::available() {
                let generated =
                    PackedStimulus::generate_with(kernel, tb, net, cfg, seed, lanes, cycles, width)
                        .unwrap();
                assert_eq!(
                    generated, reference,
                    "{tag}: {lanes} lanes, width {width}, {kernel:?}"
                );
            }
        }
    }

    /// `schedules` laid out as a stimulus matrix through the scalar view
    /// [`NetlistTestbench::inputs_at`], lane `l` in bit `l % 64` of word
    /// `l / 64`. Column `i`'s slot is the arena index of `inputs_at`'s
    /// `i`-th net, and every lane past `schedules.len()` (the partial final
    /// word and any unused words) is zero, so equality with this matrix
    /// asserts both of generate's layout rules as well as every lane word.
    fn inputs_at_matrix(
        tb: &NetlistTestbench,
        schedules: &[Schedule],
        width: usize,
    ) -> PackedStimulus {
        let cycles = schedules[0].cycles();
        let slots: Vec<u32> = tb
            .inputs_at(&schedules[0], 0)
            .iter()
            .map(|&(id, _)| id.index() as u32)
            .collect();
        let n = slots.len();
        let mut words = vec![0u64; cycles * n * width];
        for (lane, sched) in schedules.iter().enumerate() {
            for t in 0..cycles {
                for (i, &(_, v)) in tb.inputs_at(sched, t as u64).iter().enumerate() {
                    words[(t * n + i) * width + lane / LANES] |= u64::from(v) << (lane % LANES);
                }
            }
        }
        PackedStimulus {
            cycles,
            width,
            slots,
            words,
        }
    }

    #[test]
    fn nan_probabilities_read_alike_in_both_producers() {
        // A NaN stop probability used to stop every lane on every cycle in
        // the fused generator while schedules never stopped; a NaN source
        // rate panicked in `Schedule::random` and never offered in the
        // generator. Both producers now read a NaN stop or kill as "never,
        // without drawing" and a NaN rate as "draw, never offer".
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let nl = compile(&net, &CompileOptions::default()).unwrap();
        let tb = NetlistTestbench::new(&net, &nl.netlist, 0).unwrap();
        let nan_stop = EnvConfig {
            default_sink: SinkCfg {
                stop_prob: f64::NAN,
                kill_prob: 0.2,
            },
            ..stress_cfg()
        };
        let nan_rate = EnvConfig {
            default_source: SourceCfg {
                rate: f64::NAN,
                data: crate::sim::DataGen::Const(1),
            },
            ..stress_cfg()
        };
        let stops = Schedule::random(&net, &nan_stop, 4, 50);
        assert!((0..50).all(|t| !stops.stop_at("snk", t)));
        let offers = Schedule::random(&net, &nan_rate, 4, 50);
        assert!((0..50).all(|t| offers.offer_at("src", t).is_none()));
        for (cfg, tag) in [(nan_stop, "NaN stop"), (nan_rate, "NaN rate")] {
            assert_matches_schedules(&net, &tb, &cfg, 4, 50, &[(70, 2)], tag);
        }
    }

    #[test]
    fn bool_draw_matches_gen_bool() {
        let mut probs = vec![0.0, 1.0, 0.3, 1.0 / 3.0, 1e-300, 1.0f64.next_down(), 0.5];
        probs.extend((1..20).map(|k| f64::from(k) / 20.0));
        for p in probs {
            let b = BoolDraw::new(p);
            // The threshold sits exactly on gen_bool's boundary.
            if b.threshold > 0 {
                assert!(((b.threshold - 1) as f64 * UNIT_53) < p, "p {p}");
            }
            if b.threshold < 1 << 53 {
                assert!((b.threshold as f64 * UNIT_53) >= p, "p {p}");
            }
            // The kernel's 64-lane compare, lane by lane.
            let (mut x, mut y) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            let mut draws = [0u64; BLOCK_LANES];
            for _ in 0..16 {
                draws.fill_with(|| x.next_u64());
                let mask = below(&draws, b.threshold);
                for l in 0..BLOCK_LANES {
                    assert_eq!(mask >> l & 1 == 1, y.gen_bool(p), "p {p} lane {l}");
                }
            }
        }
    }

    #[test]
    fn generate_matches_pack_for_stateful_datagens() {
        // Counter/Alternate payloads advance a per-(lane, source) sequence
        // counter; the fused generator keeps it bit-sliced across the lanes
        // and increments it under the offer mask. Counts run past the
        // payload width (carries out of the top bit are dropped), at full
        // rate and at sub-rates, on every kernel build.
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        for data_width in [1, 2, 5] {
            let compiled = compile(
                &net,
                &CompileOptions {
                    data_width,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            let tb = NetlistTestbench::new(&net, &compiled.netlist, data_width).unwrap();
            for data in [crate::sim::DataGen::Counter, crate::sim::DataGen::Alternate] {
                for rate in [1.0, 0.6, 0.05] {
                    let cfg = EnvConfig {
                        default_source: SourceCfg {
                            rate,
                            data: data.clone(),
                        },
                        default_sink: SinkCfg {
                            stop_prob: 0.2,
                            kill_prob: 0.0,
                        },
                        ..Default::default()
                    };
                    let tag = format!("{data:?} rate {rate} width {data_width}");
                    assert_matches_schedules(&net, &tb, &cfg, 50, 70, &[(70, 2)], &tag);
                }
            }
        }
    }

    #[test]
    fn optimized_compile_keeps_rails_cycle_exact() {
        // The CompileOptions::optimize knob: remapped rails must report the
        // same four-rail trace as the raw compilation, cycle by cycle, and
        // the optimized netlist must actually be smaller.
        use crate::systems::{paper_example, Config};
        for config in [Config::ActiveAntiTokens, Config::NoEarlyEval] {
            let sys = paper_example(config).unwrap();
            let raw = compile(
                &sys.network,
                &CompileOptions {
                    data_width: 2,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            let opt = compile(
                &sys.network,
                &CompileOptions {
                    data_width: 2,
                    optimize: true,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            assert!(
                opt.netlist.len() < raw.netlist.len(),
                "{config:?}: {} !< {}",
                opt.netlist.len(),
                raw.netlist.len()
            );
            let tb_raw = NetlistTestbench::new(&sys.network, &raw.netlist, 2).unwrap();
            let tb_opt = NetlistTestbench::new(&sys.network, &opt.netlist, 2).unwrap();
            let sched = Schedule::random(&sys.network, &sys.env_config, 77, 300);
            let mut sim_raw = Simulator::new(&raw.netlist).unwrap();
            let mut sim_opt = Simulator::new(&opt.netlist).unwrap();
            for t in 0..300u64 {
                sim_raw.cycle(&tb_raw.inputs_at(&sched, t)).unwrap();
                sim_opt.cycle(&tb_opt.inputs_at(&sched, t)).unwrap();
                for chan in sys.network.channels() {
                    let (r, o) = (&raw.channels[chan.index()], &opt.channels[chan.index()]);
                    for (rail, (rr, oo)) in [
                        ("vp", (r.vp, o.vp)),
                        ("sp", (r.sp, o.sp)),
                        ("vn", (r.vn, o.vn)),
                        ("sn", (r.sn, o.sn)),
                    ] {
                        assert_eq!(
                            sim_raw.value(rr),
                            sim_opt.value(oo),
                            "{config:?} cycle {t} {} {rail}",
                            sys.network.channel(chan).name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn paper_properties_have_expected_shape() {
        let props = paper_properties("a->b");
        assert_eq!(props.len(), 4);
        assert!(props[0].1.contains("a__b.vp"));
        assert!(props[3].1.contains("AG AF"));
    }

    #[test]
    fn model_check_single_buffer() {
        let (net, _, _) = linear_pipeline(1, 0).unwrap();
        let (results, states) = check_network_properties(&net, BridgeOptions::default()).unwrap();
        assert!(states > 4);
        for r in &results {
            assert!(
                r.holds,
                "{} on {} failed: {}",
                r.property, r.channel, r.formula
            );
        }
    }

    #[test]
    fn model_check_two_buffer_pipeline() {
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let (results, _) = check_network_properties(&net, BridgeOptions::default()).unwrap();
        for r in &results {
            assert!(r.holds, "{} on {} failed", r.property, r.channel);
        }
    }

    #[test]
    fn fault_arm_window_validation() {
        let (net, _, _) = linear_pipeline(1, 0).unwrap();
        let mut s = Schedule::random(&net, &EnvConfig::default(), 3, 20);
        assert!(matches!(s.arm_fault(0, 5, 0), Err(CoreError::FaultSite(_))));
        assert!(matches!(
            s.arm_fault(0, 15, 6),
            Err(CoreError::FaultSite(_))
        ));
        assert!(matches!(
            s.arm_fault(0, usize::MAX, 2),
            Err(CoreError::FaultSite(_))
        ));
        s.arm_fault(0, 5, 3).unwrap();
        assert!(!s.fault_at(0, 4) && s.fault_at(0, 5) && s.fault_at(0, 7) && !s.fault_at(0, 8));
        // Exactly-at-horizon windows are legal.
        s.arm_fault(0, 18, 2).unwrap();
        assert!(s.fault_at(0, 19));
        // Sites are independent streams; an unarmed site reads low.
        s.arm_fault(2, 1, 1).unwrap();
        assert!(s.fault_at(2, 1) && !s.fault_at(2, 5) && !s.fault_at(1, 1) && !s.fault_at(0, 1));
    }

    #[test]
    fn fault_testbench_resolution() {
        use crate::compile::FaultRail;
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let fault = FaultInjection::RailFlip {
            channel: "c1".into(),
            rail: FaultRail::Vp,
        };
        let plain = compile(&net, &CompileOptions::default()).unwrap();
        // A fault-free netlist has no arm input to resolve.
        assert!(matches!(
            NetlistTestbench::with_faults(&net, &plain.netlist, 0, std::slice::from_ref(&fault)),
            Err(CoreError::FaultSite(_))
        ));
        let faults = vec![
            fault,
            FaultInjection::LoseToken {
                channel: "out".into(),
            },
        ];
        let faulty = compile(
            &net,
            &CompileOptions {
                faults: faults.clone(),
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let tb = NetlistTestbench::with_faults(&net, &faulty.netlist, 0, &faults).unwrap();
        // Arm columns are last, in site order: source offer + sink
        // stop/kill, then one arm per site.
        assert_eq!(tb.fault_cols(), vec![3, 4]);
        // DropAntiToken has no arm wire; it resolves like new().
        let drop = FaultInjection::DropAntiToken { join: "x".into() };
        let tb2 = NetlistTestbench::with_faults(&net, &plain.netlist, 0, &[drop]).unwrap();
        assert!(tb2.fault_cols().is_empty());
    }

    #[test]
    fn packed_fault_column_matches_armed_schedules() {
        use crate::compile::FaultRail;
        let (net, _, _) = linear_pipeline(2, 0).unwrap();
        let fault = FaultInjection::StuckAt {
            channel: "c1".into(),
            rail: FaultRail::Sp,
            value: true,
        };
        let compiled = compile(
            &net,
            &CompileOptions {
                data_width: 2,
                faults: vec![fault.clone()],
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let tb = NetlistTestbench::with_faults(&net, &compiled.netlist, 2, &[fault]).unwrap();
        let col = tb.fault_cols()[0];
        let cycles = 30usize;
        // Lane k gets the window (k % 20, 3): arm the schedules, and arm
        // the generated matrix after generation, on every kernel build.
        let cfg = stress_cfg();
        let mut scheds: Vec<Schedule> = (0..70)
            .map(|k| Schedule::random(&net, &cfg, 600 + k, cycles))
            .collect();
        for (k, s) in scheds.iter_mut().enumerate() {
            s.arm_fault(0, k % 20, 3).unwrap();
        }
        let reference = inputs_at_matrix(&tb, &scheds, 2);
        for kernel in Kernel::available() {
            let mut armed =
                PackedStimulus::generate_with(kernel, &tb, &net, &cfg, 600, 70, cycles, 2).unwrap();
            for k in 0..70 {
                armed.arm_fault(col, k, k % 20, 3).unwrap();
            }
            assert_eq!(armed, reference, "{kernel:?}");
        }
        // arm_fault window/site validation on the packed matrix.
        let mut fused = PackedStimulus::generate(&tb, &net, &cfg, 600, 70, cycles, 2).unwrap();
        assert!(matches!(
            fused.arm_fault(col + 1, 0, 0, 1),
            Err(CoreError::FaultSite(_))
        ));
        assert!(matches!(
            fused.arm_fault(col, 128, 0, 1),
            Err(CoreError::FaultSite(_))
        ));
        assert!(matches!(
            fused.arm_fault(col, 0, 0, 0),
            Err(CoreError::FaultSite(_))
        ));
        assert!(matches!(
            fused.arm_fault(col, 0, cycles - 1, 2),
            Err(CoreError::FaultSite(_))
        ));
    }
}
