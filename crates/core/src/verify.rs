//! Verification harnesses reproducing Sect. 5 / Fig. 8 of the paper.
//!
//! Three layers:
//!
//! 1. **Co-simulation** — the behavioural simulator, the scalar gate
//!    interpreter and the bit-parallel simulator run the same generated
//!    environment and must agree on every channel rail every cycle
//!    ([`cosim_check`]).
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
use elastic_netlist::kernel::Kernel;
use elastic_netlist::sim::Simulator;
use elastic_netlist::wide::{WideSimulator, LANES};
use elastic_netlist::NetId;

use crate::compile::{compile, sanitize, CompileOptions, FaultInjection};
use crate::error::CoreError;
use crate::network::{CompId, ComponentKind, ElasticNetwork};
use crate::sim::{BehavSim, DataGen, EnvConfig, Environment};

/// Version of the stimulus contract: the rule by which
/// [`PackedStimulus::generate`] turns a seed and an environment into lane
/// words, and [`Schedule::random`] into the view of one lane. Every report
/// header carries it. A rule that moves any draw is a new version, checked
/// against the reports of the last one statistically rather than bit for
/// bit.
///
/// Version 2 draws every environment column as a Bernoulli process, 64
/// lanes at a time:
///
/// * A column's probability (read through
///   [`crate::sim::SourceCfg::offer_draw`],
///   [`crate::sim::SinkCfg::stop_draw`], [`crate::sim::SinkCfg::kill_draw`]
///   or [`crate::sim::LatencyDist::finish_draw`]) is quantized to
///   `P = round(p·2³²)`. `P = 0` never fires and `P = 2³²` always does;
///   neither draws.
/// * Lane `l`'s uniform at cycle `t` is the 32-bit `U` whose bit `31 − j`
///   is bit `l` of `u_j = SplitMix64(key + γ·(32t + j + 1))`, with `γ`
///   SplitMix64's Weyl increment. The lane fires when `U < P`.
/// * `key` hashes the seed of the lane word's first lane, the environment
///   column and the draw within the column, never a component name. The
///   environment columns are every source's offer, then every sink's stop
///   and kill, then every variable-latency unit's finish, each group in
///   component order. Draw 0 is the column's Bernoulli draw, draw 1 a
///   source's payload.
/// * A weighted payload takes entry `i` when `i` of the integer cumulative
///   cuts of its weights lie at or below its uniform (draw 1). A sub-rate
///   source draws its payload on every cycle and sends it when it offers.
///   `Counter` and `Alternate` payloads count the lane's offers and draw
///   nothing.
pub const STIMULUS_CONTRACT: u32 = 2;

/// `2³²`, the scale of a quantized probability.
const ONE: u64 = 1 << 32;

/// Bits of a lane's uniform, one hashed word each.
const UNIFORM_BITS: usize = 32;

/// SplitMix64's Weyl increment.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function.
#[inline(always)]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `p` quantized to `round(p·2³²)`, for `p` in `[0, 1]`.
fn quantize(p: f64) -> u64 {
    // The cast saturates, and reads a NaN as 0.
    (p * ONE as f64).round() as u64
}

/// The key of draw `draw` of environment column `col` in the lane word
/// whose first lane is seeded `seed`.
fn draw_key(seed: u64, col: usize, draw: usize) -> u64 {
    let stream = (2 * col + draw + 1) as u64;
    mix64(mix64(seed).wrapping_add(GAMMA.wrapping_mul(stream)))
}

/// Word `j` of cycle `t` under `key`: bit `l` is bit `31 − j` of lane
/// `l`'s uniform.
#[inline(always)]
fn uniform_word(key: u64, t: u64, j: usize) -> u64 {
    let counter = t
        .wrapping_mul(UNIFORM_BITS as u64)
        .wrapping_add(j as u64 + 1);
    mix64(key.wrapping_add(GAMMA.wrapping_mul(counter)))
}

/// How many of the non-decreasing `cuts` lie at or below lane `lane`'s
/// uniform at cycle `t` under `key`: the lane view of [`compare_column`].
/// The uniform's bits are read from the top only while a cut lies inside
/// the range they leave open, so the count is the full 32-bit
/// comparison's.
fn lane_rank(key: u64, t: u64, lane: usize, cuts: &[u64]) -> usize {
    let mut low = 0u64;
    for j in 0..UNIFORM_BITS {
        let high = low + (ONE >> j);
        if cuts.iter().all(|&c| c <= low || c >= high) {
            break;
        }
        low |= (uniform_word(key, t, j) >> lane & 1) << (UNIFORM_BITS - 1 - j);
    }
    cuts.iter().filter(|&&c| c <= low).count()
}

/// Cycles the comparison kernel draws together, one per vector lane.
const BLOCK: usize = 16;

/// `γ·32i` for the `i`-th cycle of a block: the counter step between the
/// words of consecutive cycles.
const BLOCK_OFFSETS: [u64; BLOCK] = {
    let mut offsets = [0; BLOCK];
    let mut i = 0;
    while i < BLOCK {
        offsets[i] = GAMMA.wrapping_mul((UNIFORM_BITS * i) as u64);
        i += 1;
    }
    offsets
};

/// The stimulus kernel: compares the uniforms of the lanes of `live`
/// under `key` with `cut`, for `below.len()` blocks of [`BLOCK`] cycles.
/// Bit `l` of `below[b][i]` is set when lane `l`'s uniform at cycle
/// `b·BLOCK + i` lies below `cut`.
///
/// The comparison is bit-sliced, one hashed word per uniform bit from the
/// top, over the cycles of a block at once: a lane is decided at the
/// first bit where it differs from the cut. A block stops drawing once
/// every lane is decided, or once the cut's remaining bits are 0, where an
/// undecided lane is equal so far and so not below. A cut of 0 or `2³²`
/// decides every lane without drawing.
#[inline(always)]
fn compare_column(key: u64, cut: u64, live: u64, below: &mut [[u64; BLOCK]]) {
    let drawn = cut > 0 && cut < ONE;
    let bits = if drawn {
        UNIFORM_BITS - cut.trailing_zeros() as usize
    } else {
        0
    };
    for (b, mask) in below.iter_mut().enumerate() {
        *mask = [if cut >= ONE { live } else { 0 }; BLOCK];
        let mut open = [if drawn { live } else { 0 }; BLOCK];
        for j in 0..bits {
            let base = (b * BLOCK * UNIFORM_BITS + j + 1) as u64;
            let base = key.wrapping_add(GAMMA.wrapping_mul(base));
            // All ones where the cut has a 1 at this bit: there, an
            // undecided lane with a 0 falls below it. Elsewhere a lane
            // with a 1 rises above it.
            let set = 0u64.wrapping_sub(cut >> (UNIFORM_BITS - 1 - j) & 1);
            let mut undecided = 0;
            for ((m, o), off) in mask.iter_mut().zip(&mut open).zip(BLOCK_OFFSETS) {
                let word = mix64(base.wrapping_add(off));
                *m |= *o & !word & set;
                *o &= !(word ^ set);
                undecided |= *o;
            }
            if undecided == 0 {
                break;
            }
        }
    }
}

/// [`compare_column`] through `kernel`, once for each of the
/// non-decreasing `cuts`: `below` holds `cuts.len()` runs of blocks, the
/// run of cut `c` first at `c · below.len() / cuts.len()`.
fn draw_column(kernel: Kernel, key: u64, cuts: &[u64], live: u64, below: &mut [[u64; BLOCK]]) {
    let blocks = below.len() / cuts.len();
    for (&cut, run) in cuts.iter().zip(below.chunks_exact_mut(blocks)) {
        kernel.run(
            run,
            #[inline(always)]
            |run| compare_column(key, cut, live, run),
        );
    }
}

/// The rail an environment column drives.
#[derive(Debug, Clone, Copy)]
enum Rail {
    Offer,
    Stop,
    Kill,
    Finish,
}

/// One environment column of [`STIMULUS_CONTRACT`], resolved from the
/// configuration.
struct EnvColumn<'a> {
    /// The component's display name.
    name: &'a str,
    rail: Rail,
    /// The quantized probability of the column's Bernoulli draw: 2³² for
    /// a source that offers on every cycle, 0 for a stop or kill that
    /// never fires.
    p: u64,
    /// A source's payload; a constant 0 on the other rails.
    plan: SrcPlan,
}

/// The environment columns of `net` under `cfg`, in key order: every
/// source's offer, then every sink's stop and kill, then every
/// variable-latency unit's finish, each group in component order.
fn env_columns<'a>(net: &'a ElasticNetwork, cfg: &EnvConfig) -> Vec<EnvColumn<'a>> {
    let (mut srcs, mut sinks, mut vls) = (Vec::new(), Vec::new(), Vec::new());
    let column = |name, rail, p| EnvColumn {
        name,
        rail,
        p,
        plan: SrcPlan::Fixed(0),
    };
    for comp in net.components() {
        let name = net.component(comp).name.as_str();
        match &net.component(comp).kind {
            ComponentKind::Source => {
                let c = cfg.sources.get(name).unwrap_or(&cfg.default_source);
                srcs.push(EnvColumn {
                    plan: SrcPlan::new(&c.data),
                    ..column(name, Rail::Offer, c.offer_draw().map_or(ONE, quantize))
                });
            }
            ComponentKind::Sink => {
                let c = cfg.sinks.get(name).copied().unwrap_or(cfg.default_sink);
                for (rail, draw) in [(Rail::Stop, c.stop_draw()), (Rail::Kill, c.kill_draw())] {
                    sinks.push(column(name, rail, draw.map_or(0, quantize)));
                }
            }
            ComponentKind::VarLatency => {
                let dist = cfg.vls.get(name).unwrap_or(&cfg.default_vl);
                vls.push(column(name, Rail::Finish, quantize(dist.finish_draw())));
            }
            _ => {}
        }
    }
    srcs.into_iter().chain(sinks).chain(vls).collect()
}

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
    /// The schedule of lane `lane` of the lane word seeded `seed` (see
    /// [`STIMULUS_CONTRACT`]): the per-lane view of the words
    /// [`PackedStimulus::generate`] writes for that lane, drawn from the
    /// same hashed words. Source payloads follow the configured
    /// [`crate::sim::DataGen`] (e.g. the paper's 0.6/0.3/0.1 opcode
    /// distribution, Sect. 6.1). Variable-latency completion streams are
    /// Bernoulli with rate `1/mean(latency)`: any stream is a legal delay
    /// behaviour, and both back-ends interpret the *same* stream, so
    /// equivalence is exact.
    ///
    /// Trial `k` of a campaign seeded `s` is lane `k mod 64` of the word
    /// seeded `s + 64⌊k/64⌋`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not below 64.
    pub fn random(
        net: &ElasticNetwork,
        cfg: &EnvConfig,
        seed: u64,
        lane: usize,
        cycles: usize,
    ) -> Schedule {
        assert!(lane < LANES, "lane {lane} of a {LANES}-lane word");
        let mut s = Schedule {
            offers: HashMap::new(),
            stops: HashMap::new(),
            kills: HashMap::new(),
            finishes: HashMap::new(),
            faults: Vec::new(),
            cycles,
        };
        for (col, c) in env_columns(net, cfg).iter().enumerate() {
            let rank = |draw, t: usize, cuts: &[u64]| {
                lane_rank(draw_key(seed, col, draw), t as u64, lane, cuts)
            };
            let fires = (0..cycles).map(|t| rank(0, t, &[c.p]) == 0);
            let name = c.name.to_string();
            let flags = match c.rail {
                Rail::Offer => {
                    let mut seq = 0u64;
                    let stream = fires
                        .enumerate()
                        .map(|(t, offers)| {
                            offers.then(|| match &c.plan {
                                SrcPlan::Fixed(v) => *v,
                                SrcPlan::Count(modulus_bits) => {
                                    seq += 1;
                                    (seq - 1) & u64::MAX >> (64 - modulus_bits)
                                }
                                SrcPlan::Walk { cuts, values } => values[rank(1, t, cuts)],
                            })
                        })
                        .collect();
                    s.offers.insert(name, stream);
                    continue;
                }
                Rail::Stop => &mut s.stops,
                Rail::Kill => &mut s.kills,
                Rail::Finish => &mut s.finishes,
            };
            flags.insert(name, fires.collect());
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
    /// Resolves the input handles of `nl`, a compilation of `net`. Each
    /// source's payload inputs `din0, din1, …` are read off the netlist, so
    /// the testbench carries whatever payload width the compile emitted.
    ///
    /// # Errors
    ///
    /// [`elastic_netlist::NetlistError::UnknownName`] (via
    /// [`CoreError::Netlist`] conversion) when the compiled netlist does not
    /// follow the expected naming, e.g. because it compiles another network.
    pub fn new(net: &ElasticNetwork, nl: &elastic_netlist::Netlist) -> Result<Self, CoreError> {
        let mut srcs: Vec<(String, NetId, Vec<NetId>)> = Vec::new();
        let mut sinks: Vec<(String, NetId, NetId)> = Vec::new();
        let mut vls: Vec<(String, NetId)> = Vec::new();
        for comp in net.components() {
            let raw = net.component(comp).name.clone();
            let name = sanitize(&raw);
            match &net.component(comp).kind {
                ComponentKind::Source => {
                    let offer = nl.find(&format!("{name}.offer"))?;
                    let dins = (0..)
                        .map_while(|i| nl.find(&format!("{name}.din{i}")).ok())
                        .collect();
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
    /// ([`crate::compile::CompileOptions::faults`]), in site order: arm
    /// *i* is site *i* of [`Schedule::arm_fault`] and
    /// [`PackedStimulus::arm_fault`]. Structural faults
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
        faults: &[FaultInjection],
    ) -> Result<Self, CoreError> {
        let mut tb = NetlistTestbench::new(net, nl)?;
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
    /// The `(slot, value)` of every column the environment holds at one
    /// value, in column order (see [`Self::fixed_inputs`]).
    fixed: Vec<(u32, bool)>,
    /// The fault-arm columns, the last ones, one per testbench fault site.
    faults: usize,
}

/// Pre-resolved payload of a source: what a lane sends on the cycles it
/// offers.
enum SrcPlan {
    /// A constant payload, no draw: `Const`, a weighted distribution with
    /// one usable entry or none, and the empty payload of the other rails.
    Fixed(u64),
    /// `Counter` (`Count(64)`) and `Alternate` (`Count(1)`), no draw: the
    /// low bits of the number of earlier offers of the lane.
    Count(usize),
    /// A weighted distribution: a lane whose uniform has `i` of the
    /// non-decreasing `cuts` at or below it sends `values[i]`.
    Walk { cuts: Vec<u64>, values: Vec<u64> },
}

impl SrcPlan {
    /// Bit `j` of every payload this plan sends, when all share it.
    fn shared_bit(&self, j: usize) -> Option<bool> {
        let bit = |v: u64| v >> j & 1 == 1;
        match self {
            SrcPlan::Fixed(v) => Some(bit(*v)),
            // The counter's bits from `modulus_bits` up stay 0.
            SrcPlan::Count(modulus_bits) => (j >= *modulus_bits).then_some(false),
            SrcPlan::Walk { values, .. } => {
                let first = bit(values[0]);
                values.iter().all(|&v| bit(v) == first).then_some(first)
            }
        }
    }

    fn new(data: &DataGen) -> SrcPlan {
        let choices = match data {
            DataGen::Const(v) => return SrcPlan::Fixed(*v),
            DataGen::Counter => return SrcPlan::Count(64),
            DataGen::Alternate => return SrcPlan::Count(1),
            DataGen::Weighted(choices) => choices,
        };
        // Entries without a positive finite weight are never drawn; with
        // none left, or a total that overflows, the payload is the first
        // entry (0 for an empty list), as in the behavioural environment's
        // weighted draw.
        let entries: Vec<(u64, f64)> = choices
            .iter()
            .filter(|&&(_, w)| w.is_finite() && w > 0.0)
            .copied()
            .collect();
        let total: f64 = entries.iter().map(|&(_, w)| w).sum();
        if entries.is_empty() || !total.is_finite() {
            return SrcPlan::Fixed(choices.first().map_or(0, |c| c.0));
        }
        if let [(v, _)] = entries[..] {
            return SrcPlan::Fixed(v);
        }
        // Entry `i` takes the uniforms from cut `i − 1` up to cut `i`: the
        // running sum of the weights, as a share of 2³².
        let mut sum = 0.0;
        let cuts = entries[..entries.len() - 1]
            .iter()
            .map(|&(_, w)| {
                sum += w;
                quantize((sum / total).min(1.0))
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

/// Lane word `w` of column `col` of a row-major stimulus matrix of `n`
/// columns of `width` words, cycle by cycle.
fn column_words(
    words: &mut [u64],
    n: usize,
    width: usize,
    w: usize,
    col: usize,
) -> impl Iterator<Item = &mut u64> {
    words[col * width + w..].iter_mut().step_by(n * width)
}

/// An environment column placed in the stimulus matrix: its offer, stop,
/// kill or finish column `col`, and the `bits` payload columns after a
/// source's offer.
struct Stream<'a> {
    env: EnvColumn<'a>,
    col: usize,
    bits: usize,
}

impl PackedStimulus {
    /// Generates lane words for `lanes` trials under [`STIMULUS_CONTRACT`]:
    /// lane `k` is lane `k mod 64` of the lane word seeded
    /// `seed + 64⌊k/64⌋` (wrapping at `u64::MAX`), whatever the width, so
    /// shards of 64-lane multiples seeded at their first trial split a
    /// point without changing a trial.
    ///
    /// This is the only producer of stimulus lane words; every campaign
    /// and the co-simulation ([`cosim_check`]) run on it. Every
    /// column comes from one primitive, a 64-lane Bernoulli mask drawn by
    /// a bit-sliced comparison of hashed words with the column's quantized
    /// probability (see [`STIMULUS_CONTRACT`]). The comparison runs
    /// through [`Kernel::best`], vectorized across cycles, on every word
    /// width. A weighted payload compares its own uniform with the cuts of
    /// its weights in the same way, and a sub-rate source sends it only on
    /// the cycles it offers. `Counter` and `Alternate` payloads are
    /// bit-sliced per-lane counters incremented under the offer mask.
    ///
    /// Lane `k` is bit-identical to [`NetlistTestbench::inputs_at`] of
    /// `Schedule::random(net, cfg, seed + 64⌊k/64⌋, k mod 64, cycles)` on
    /// every cycle: [`Schedule`] is the scalar and behavioural view of the
    /// generated words (asserted by unit tests on every kernel build, and
    /// by the wide co-simulation).
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
        let blocks = cycles.div_ceil(BLOCK);
        let mut fires = vec![[0u64; BLOCK]; blocks];
        let mut below = Vec::new();
        for g in 0..lanes.div_ceil(LANES) {
            let live = u64::MAX >> (LANES - LANES.min(lanes - g * LANES));
            let word_seed = seed.wrapping_add((g * LANES) as u64);
            for (k, s) in streams.iter().enumerate() {
                let key = |draw| draw_key(word_seed, k, draw);
                draw_column(kernel, key(0), &[s.env.p], live, &mut fires);
                let fired = fires.as_flattened();
                for (w, &f) in column_words(&mut words, n, width, g, s.col).zip(fired) {
                    *w = f;
                }
                let plane = |j: usize| s.col + 1 + j;
                match &s.env.plan {
                    _ if s.bits == 0 => {}
                    SrcPlan::Fixed(v) => {
                        for j in 0..s.bits {
                            let bit = 0u64.wrapping_sub(v >> j & 1);
                            for (w, &f) in
                                column_words(&mut words, n, width, g, plane(j)).zip(fired)
                            {
                                *w = f & bit;
                            }
                        }
                    }
                    SrcPlan::Count(modulus_bits) => {
                        // Bit-sliced per-lane sequence counter: `count[j]`
                        // holds bit `j` of every lane's number of earlier
                        // offers, modulo the payload width.
                        let mut count = vec![0u64; s.bits.min(*modulus_bits)];
                        for (t, &offered) in fired[..cycles].iter().enumerate() {
                            for (j, &c) in count.iter().enumerate() {
                                words[(t * n + plane(j)) * width + g] = c & offered;
                            }
                            // Ripple-carry increment of the offering lanes.
                            let mut carry = offered;
                            for c in &mut count {
                                (*c, carry) = (*c ^ carry, *c & carry);
                            }
                        }
                    }
                    SrcPlan::Walk { cuts, values } => {
                        below.resize(blocks * cuts.len(), [0; BLOCK]);
                        draw_column(kernel, key(1), cuts, live, &mut below);
                        let masks: Vec<&[u64]> = below
                            .chunks_exact(blocks)
                            .map(<[_]>::as_flattened)
                            .collect();
                        // A lane takes `values[i]` with `i` the number of
                        // cuts at or below its uniform, so `below[c]` is set
                        // exactly when `i <= c`. Reading down from the last
                        // value, payload bit `j` flips at every cut where
                        // adjacent values differ in bit `j`.
                        for j in 0..s.bits {
                            let last = 0u64.wrapping_sub(values[cuts.len()] >> j & 1);
                            let flips: Vec<&[u64]> = (0..cuts.len())
                                .filter(|&c| (values[c] ^ values[c + 1]) >> j & 1 == 1)
                                .map(|c| masks[c])
                                .collect();
                            for (t, w) in
                                column_words(&mut words, n, width, g, plane(j)).enumerate()
                            {
                                let bit = flips.iter().fold(last, |bit, m| bit ^ m[t]);
                                *w = bit & fired[t];
                            }
                        }
                    }
                }
            }
        }
        let fixed = Self::fixed_inputs_of(&streams, &slots);
        Ok(PackedStimulus {
            cycles,
            width,
            slots,
            words,
            fixed,
            faults: tb.faults.len(),
        })
    }

    /// The list [`Self::fixed_inputs`] returns, read off the `streams` of
    /// a testbench's columns.
    fn fixed_inputs_of(streams: &[Stream], slots: &[u32]) -> Vec<(u32, bool)> {
        let mut fixed = Vec::new();
        for s in streams {
            let fires = match s.env.p {
                0 => Some(false),
                ONE => Some(true),
                _ => None,
            };
            let payload = (0..s.bits).map(|j| match (fires, s.env.plan.shared_bit(j)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), bit) => bit,
                (None, _) => None,
            });
            for (col, k) in (s.col..).zip(std::iter::once(fires).chain(payload)) {
                if let Some(v) = k {
                    fixed.push((slots[col], v));
                }
            }
        }
        fixed
    }

    /// Places the environment columns of `net` under `cfg` in `tb`'s
    /// stimulus columns: `tb` lists the same components, grouped in the
    /// same order.
    fn streams<'a>(
        tb: &NetlistTestbench,
        net: &'a ElasticNetwork,
        cfg: &EnvConfig,
    ) -> Vec<Stream<'a>> {
        let widths: Vec<(&str, usize)> = tb
            .srcs
            .iter()
            .map(|(name, _, dins)| (name.as_str(), dins.len()))
            .chain(
                tb.sinks
                    .iter()
                    .flat_map(|(name, _, _)| [(name.as_str(), 0); 2]),
            )
            .chain(tb.vls.iter().map(|(name, _)| (name.as_str(), 0)))
            .collect();
        let columns = env_columns(net, cfg);
        assert_eq!(columns.len(), widths.len(), "testbench/network columns");
        let mut col = 0;
        columns
            .into_iter()
            .zip(widths)
            .map(|(env, (tb_name, bits))| {
                debug_assert_eq!(tb_name, env.name, "testbench/network column order");
                col += 1 + bits;
                Stream {
                    env,
                    col: col - 1 - bits,
                    bits,
                }
            })
            .collect()
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

    /// The inputs this matrix holds at one value on every cycle and every
    /// live lane because of how the environment is built, as `(slot,
    /// value)` pairs in column order: the offer of a source that makes no
    /// offer draw (1); payload bits every value of the source's plan
    /// shares, under such an offer, or that are 0 in every value; sink
    /// stops and kills that never draw (0); and Bernoulli columns with
    /// probability 0 or 1. A fault arm is never listed, since
    /// [`Self::arm_fault`] writes it after generation. Lanes past the
    /// trial count read 0 in every column whatever this lists; the matrix
    /// keeps every column.
    pub fn fixed_inputs(&self) -> &[(u32, bool)] {
        &self.fixed
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

    /// Arms fault site `site` (in the site order of
    /// [`NetlistTestbench::with_faults`]) for lane `lane` over the window
    /// `start..start + len` — each packed trial gets its own independent
    /// fault instance this way. The lane then reads like its [`Schedule`]
    /// with the same window armed by [`Schedule::arm_fault`] on that site.
    ///
    /// # Errors
    ///
    /// [`CoreError::FaultSite`] when the site (every site, on a fault-free
    /// matrix) or the lane does not exist, the window is empty, or it
    /// extends past the packed horizon.
    pub fn arm_fault(
        &mut self,
        site: usize,
        lane: usize,
        start: usize,
        len: usize,
    ) -> Result<(), CoreError> {
        let n = self.slots.len();
        if site >= self.faults {
            return Err(CoreError::FaultSite(format!(
                "no fault site {site} (the matrix arms {})",
                self.faults
            )));
        }
        let col = n - self.faults + site;
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

/// Three-way co-simulation of the compiled netlist: generates the `lanes`
/// trials of the lane word seeded `seed` with [`PackedStimulus::generate`]
/// and runs them through a [`WideSimulator`], replays each lane's view
/// ([`Schedule::random`]) through the behavioural simulator and lane 0's
/// through the scalar gate-level [`Simulator`], and compares all four
/// rails of every channel, every cycle, in every lane, and every payload
/// bit on valid cycles. The payload is the subject here, so the caller
/// picks its width ([`CompileOptions::data_width`]; the compile never
/// emits fewer bits than the guards read). One lane checks one
/// [`Schedule::random`]`(net, cfg, seed, 0, cycles)` against the scalar
/// and behavioural interpreters.
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
pub fn cosim_check(
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
    let tb = NetlistTestbench::new(net, nl)?;
    let stim = PackedStimulus::generate(&tb, net, cfg, seed, lanes, cycles, 1)?;
    let mut wide = WideSimulator::new(nl)?;
    wide.check_input_slots(stim.slots())?;
    let mut scalar = Simulator::new(nl)?;
    let mut behavs: Vec<(BehavSim, Schedule)> = (0..lanes)
        .map(|k| {
            let sched = Schedule::random(net, cfg, seed, k, cycles);
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
            // every rail net, and on every payload bit while valid.
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
            if scalar.value(nets.vp) {
                for (i, &dn) in nets.data.iter().enumerate() {
                    if wide.value_lane(dn, 0) != scalar.value(dn) {
                        return Err(diverged(
                            t,
                            chan,
                            0,
                            &format!("data bit {i} != scalar gates"),
                        ));
                    }
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
/// kills stay finite). The compile carries the payload bits the
/// early-evaluation guards read and no more, each a free input.
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
/// for exhaustive exploration. The compile carries the payload bits the
/// early-evaluation guards read ([`ElasticNetwork::required_data_width`])
/// and no more: every data bit is another free environment input.
pub fn check_network_convergence(
    net: &ElasticNetwork,
    process: &crate::fault::FaultProcess,
    horizon: usize,
    opts: BridgeOptions,
) -> Result<ConvergenceReport, CoreError> {
    process.validate(net, horizon)?;
    let compiled = compile(
        net,
        &CompileOptions {
            faults: process.sites(),
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
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

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
        cosim_check(&net, &stress_cfg(), 11, 1, 600, 2).unwrap();
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
        cosim_check(&net, &stress_cfg(), 23, 1, 800, 1).unwrap();
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
        cosim_check(&net, &stress_cfg(), 31, 1, 800, 1).unwrap();
    }

    #[test]
    fn cosim_paper_example_all_configs() {
        use crate::systems::{paper_example, Config};
        for config in Config::all() {
            let sys = paper_example(config).unwrap();
            cosim_check(&sys.network, &sys.env_config, 5, 1, 400, 2)
                .unwrap_or_else(|e| panic!("{config:?}: {e}"));
        }
    }

    #[test]
    fn wide_cosim_fig6_controllers() {
        // The Fig. 6 / Fig. 8(a) model-checked controllers: short pipelines
        // with and without initial tokens. 16 lanes of independent
        // schedules; lane 0 is additionally checked against the scalar
        // gate-level interpreter inside cosim_check.
        for (stages, tokens) in [(1usize, 0usize), (2, 1)] {
            let (net, _, _) = linear_pipeline(stages, tokens).unwrap();
            cosim_check(&net, &stress_cfg(), 100, 16, 400, 1)
                .unwrap_or_else(|e| panic!("{stages} stages: {e}"));
        }
    }

    #[test]
    fn wide_cosim_fig8_pipeline_full_64_lanes() {
        // The Fig. 8(b) data-correctness pipeline under a killing
        // environment, with every one of the 64 lanes holding a distinct
        // schedule.
        let (net, _, _) = linear_pipeline(3, 1).unwrap();
        cosim_check(&net, &stress_cfg(), 7000, 64, 300, 2).unwrap();
    }

    #[test]
    fn wide_cosim_paper_example_all_configs() {
        use crate::systems::{paper_example, Config};
        for config in Config::all() {
            let sys = paper_example(config).unwrap();
            cosim_check(&sys.network, &sys.env_config, 40, 8, 250, 2)
                .unwrap_or_else(|e| panic!("{config:?}: {e}"));
        }
    }

    #[test]
    fn wide_cosim_rejects_bad_lane_counts_typed() {
        let (net, _, _) = linear_pipeline(1, 0).unwrap();
        for lanes in [0, LANES + 1] {
            assert!(
                matches!(
                    cosim_check(&net, &stress_cfg(), 1, lanes, 10, 1),
                    Err(CoreError::ScheduleBatch(_))
                ),
                "{lanes} lanes"
            );
        }
    }

    #[test]
    fn generate_matches_pack_of_random_schedules() {
        // The generator must be bit-identical to the lane view of
        // Schedule::random, lane by lane, for every stream kind: full-rate
        // and sub-rate sources, zero and non-zero stop/kill probabilities,
        // configured and default VL distributions, and partial final word
        // groups — through every kernel build the host runs.
        use crate::corpus::{self, CorpusConfig, Knobs, DESIGNS};
        use crate::systems::{paper_example, Config};
        // Fig. 9 compiles the two opcode bits its guard reads.
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let compiled = compile(&sys.network, &CompileOptions::default()).unwrap();
        let tb = NetlistTestbench::new(&sys.network, &compiled.netlist).unwrap();
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
        // at a sub-rate (the walk under the offer mask).
        let payloads = [
            vec![(2, 1.0)],
            vec![(0, 0.5), (3, 0.5)],
            vec![(1, 0.2), (2, 0.3), (3, 0.5)],
            vec![(0, 0.1), (1, 0.2), (1, 0.3), (2, 0.4)],
            vec![(3, 0.1), (0, 0.2), (5, 0.1), (1, 0.25), (2, 0.15), (0, 0.2)],
            vec![(0, 0.0), (1, f64::NAN), (2, 0.5), (3, -1.0)],
            vec![(3, 0.0), (1, 0.0)],
            vec![(1, f64::MAX), (2, f64::MAX)],
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

        // Stop, kill and finish at p = 0 and p = 1. A finish stream's
        // probability floors at 0.05 (a 1000-cycle latency).
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
                let nl = compile(&sys.network, &CompileOptions::default()).unwrap();
                let tb = NetlistTestbench::new(&sys.network, &nl.netlist).unwrap();
                let tag = format!("{design}/{}", config.tag());
                assert_matches_schedules(&sys.network, &tb, &sys.env, 11, 13, &[(65, 2)], &tag);
            }
        }
    }

    /// Asserts that, for each `(lanes, width)`, every kernel build
    /// generates exactly the [`inputs_at_matrix`] of the [`lane_views`] of
    /// a point seeded `seed`.
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
        let scheds = lane_views(net, cfg, seed, most, cycles);
        for &(lanes, width) in shapes {
            let reference = inputs_at_matrix(tb, &scheds[..lanes], width);
            for kernel in Kernel::available() {
                let generated =
                    PackedStimulus::generate_with(kernel, tb, net, cfg, seed, lanes, cycles, width)
                        .unwrap();
                assert_constant(&generated, lanes, &format!("{tag}: {kernel:?}"));
                assert_eq!(
                    without_fixed(generated),
                    reference,
                    "{tag}: {lanes} lanes, width {width}, {kernel:?}"
                );
            }
        }
    }

    /// The schedules of the first `lanes` trials of a point seeded `seed`:
    /// trial `k` is lane `k mod 64` of the word seeded `seed + 64⌊k/64⌋`.
    fn lane_views(
        net: &ElasticNetwork,
        cfg: &EnvConfig,
        seed: u64,
        lanes: usize,
        cycles: usize,
    ) -> Vec<Schedule> {
        (0..lanes)
            .map(|k| {
                let word_seed = seed.wrapping_add((k / LANES * LANES) as u64);
                Schedule::random(net, cfg, word_seed, k % LANES, cycles)
            })
            .collect()
    }

    /// `stim` without its list of fixed inputs, which a matrix built by
    /// [`inputs_at_matrix`] does not have.
    fn without_fixed(stim: PackedStimulus) -> PackedStimulus {
        PackedStimulus {
            fixed: Vec::new(),
            ..stim
        }
    }

    /// The `(slot, value)` of every column of `stim` that holds one value
    /// on every cycle and in each of its first `lanes` lanes, in column
    /// order.
    fn scanned_constants(stim: &PackedStimulus, lanes: usize) -> Vec<(u32, bool)> {
        let width = stim.width();
        let live: Vec<u64> = (0..width)
            .map(|w| match lanes.saturating_sub(w * LANES) {
                0 => 0,
                l if l >= LANES => u64::MAX,
                l => (1 << l) - 1,
            })
            .collect();
        let mut out = Vec::new();
        for (col, &slot) in stim.slots().iter().enumerate() {
            let (mut ones, mut zeros) = (true, true);
            for t in 0..stim.cycles() {
                let words = &stim.row(t)[col * width..(col + 1) * width];
                for (&word, &mask) in words.iter().zip(&live) {
                    ones &= word & mask == mask;
                    zeros &= word & mask == 0;
                }
            }
            if ones || zeros {
                out.push((slot, ones));
            }
        }
        out
    }

    /// Asserts that every input `stim` lists as fixed holds its value on
    /// every cycle and live lane of `stim`.
    fn assert_constant(stim: &PackedStimulus, lanes: usize, tag: &str) {
        let constant = scanned_constants(stim, lanes);
        for fixed in stim.fixed_inputs() {
            assert!(
                constant.contains(fixed),
                "{tag}: {fixed:?} listed as fixed, scan finds {constant:?}"
            );
        }
    }

    #[test]
    fn fixed_inputs_list_exactly_the_constant_columns() {
        use crate::compile::FaultRail;
        use crate::corpus::{self, CorpusConfig, Knobs, DESIGNS};
        use crate::sim::DataGen;
        use crate::systems::{paper_example, Config};
        // Every stream kind on a two-stage pipeline with a fault arm: an
        // offer drawing at 0, a sub-rate or 1; constant, counted,
        // alternating and walked payloads; sink stops and kills that never
        // draw, draw at a sub-rate, or draw at 1.
        let (net, _, _) = linear_pipeline(2, 0).unwrap();
        let fault = FaultInjection::StuckAt {
            channel: "c1".into(),
            rail: FaultRail::Sp,
            value: true,
        };
        let compiled = compile(
            &net,
            &CompileOptions {
                data_width: 3,
                faults: vec![fault.clone()],
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let tb = NetlistTestbench::with_faults(&net, &compiled.netlist, &[fault]).unwrap();
        let slots = input_slots(&tb);
        let arm = tb.faults[0].index() as u32;
        let (offer, dins, stop, kill) = (slots[0], &slots[1..4], slots[4], slots[5]);
        // Each payload with the mask of bits every value shares and of
        // bits 0 in every value.
        let payloads = [
            (DataGen::Const(0b101), 0b111, 0b010),
            (DataGen::Counter, 0b000, 0b000),
            (DataGen::Alternate, 0b110, 0b110),
            (
                DataGen::Weighted(vec![(0b001, 0.5), (0b011, 0.5)]),
                0b101,
                0b100,
            ),
            (
                DataGen::Weighted(vec![(0b110, 0.3), (0b010, 0.7)]),
                0b011,
                0b001,
            ),
        ];
        for rate in [0.0, 0.6, 1.0] {
            for (data, shared, zero) in &payloads {
                for (stop_prob, kill_prob) in [(0.0, 0.3), (1.0, 0.0), (0.4, 1.0)] {
                    let cfg = EnvConfig {
                        default_source: SourceCfg {
                            rate,
                            data: data.clone(),
                        },
                        default_sink: SinkCfg {
                            stop_prob,
                            kill_prob,
                        },
                        ..EnvConfig::default()
                    };
                    let tag = format!("rate {rate} {data:?} stop {stop_prob} kill {kill_prob}");
                    let stim = PackedStimulus::generate(&tb, &net, &cfg, 9, 70, 40, 2).unwrap();
                    assert_constant(&stim, 70, &tag);
                    let listed = |slot: u32| stim.fixed_inputs().iter().any(|&(s, _)| s == slot);
                    assert!(!listed(arm), "{tag}: fault arm listed");
                    // A column drawn at a sub-rate is never listed, nor a
                    // payload bit that differs between offered values.
                    assert_eq!(listed(offer), rate != 0.6, "{tag}: offer");
                    assert_eq!(listed(stop), stop_prob != 0.4, "{tag}: stop");
                    assert_eq!(listed(kill), kill_prob != 0.3, "{tag}: kill");
                    for (j, &din) in dins.iter().enumerate() {
                        let fixed = rate == 0.0
                            || zero >> j & 1 == 1
                            || rate == 1.0 && shared >> j & 1 == 1;
                        assert_eq!(listed(din), fixed, "{tag}: payload bit {j}");
                    }
                }
            }
        }
        // The Fig. 9 and the 30 corpus environments, at the payload width
        // their guards read: the listed set is what a scan of a 2000-cycle
        // matrix finds constant.
        let mut systems: Vec<(String, ElasticNetwork, EnvConfig)> = Config::all()
            .into_iter()
            .map(|c| {
                let sys = paper_example(c).unwrap();
                (c.label().to_string(), sys.network, sys.env_config)
            })
            .collect();
        for design in DESIGNS {
            for config in CorpusConfig::all() {
                let sys = corpus::build(design, config, &Knobs::default()).unwrap();
                let label = format!("{design}/{}", config.tag());
                systems.push((label, sys.network, sys.env));
            }
        }
        for (label, net, env) in systems {
            let nl = compile(&net, &CompileOptions::default()).unwrap().netlist;
            let tb = NetlistTestbench::new(&net, &nl).unwrap();
            let stim = PackedStimulus::generate(&tb, &net, &env, 3, 64, 2000, 1).unwrap();
            assert_eq!(stim.fixed_inputs(), scanned_constants(&stim, 64), "{label}");
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
            fixed: Vec::new(),
            faults: tb.faults.len(),
        }
    }

    #[test]
    fn nan_probabilities_read_alike_in_both_producers() {
        // A NaN stop probability used to stop every lane on every cycle in
        // the fused generator while schedules never stopped; a NaN source
        // rate panicked in `Schedule::random` and never offered in the
        // generator. Both producers now read a NaN stop, kill or rate as
        // "never, without drawing".
        let (net, _, _) = linear_pipeline(2, 1).unwrap();
        let nl = compile(&net, &CompileOptions::default()).unwrap();
        let tb = NetlistTestbench::new(&net, &nl.netlist).unwrap();
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
        let stops = Schedule::random(&net, &nan_stop, 4, 0, 50);
        assert!((0..50).all(|t| !stops.stop_at("snk", t)));
        let offers = Schedule::random(&net, &nan_rate, 4, 0, 50);
        assert!((0..50).all(|t| offers.offer_at("src", t).is_none()));
        for (cfg, tag) in [(nan_stop, "NaN stop"), (nan_rate, "NaN rate")] {
            assert_matches_schedules(&net, &tb, &cfg, 4, 50, &[(70, 2)], tag);
        }
    }

    /// Lane `lane`'s uniform at cycle `t` under `key`, built from all 32
    /// of its hashed words.
    fn full_uniform(key: u64, t: u64, lane: usize) -> u64 {
        (0..UNIFORM_BITS).fold(0, |u, j| u << 1 | (uniform_word(key, t, j) >> lane & 1))
    }

    #[test]
    fn kernel_matches_the_full_comparison_on_every_build() {
        // Every mask bit of every build is the full 32-bit comparison of
        // the lane's uniform with each cut, early exits and all, and so
        // is the lane view's rank; lanes outside `live` stay clear.
        let mut rng = StdRng::seed_from_u64(23);
        let mut cut_sets: Vec<Vec<u64>> = [0, 1, ONE / 2, ONE - 1, ONE]
            .into_iter()
            .map(|p| vec![p])
            .collect();
        cut_sets.extend((0..6).map(|_| vec![rng.gen_range(0..ONE + 1)]));
        // Walks: edges among the cuts, equal cuts, two to five cuts.
        cut_sets.push(vec![0, ONE / 3, ONE]);
        cut_sets.push(vec![ONE / 4, ONE / 4, 3 * ONE / 4]);
        for n in 2..=5 {
            let mut cuts: Vec<u64> = (0..n).map(|_| rng.gen_range(0..ONE + 1)).collect();
            cuts.sort_unstable();
            cut_sets.push(cuts);
        }
        // 37 cycles: two full blocks and a partial one.
        let cycles: usize = 37;
        for kernel in Kernel::available() {
            for cuts in &cut_sets {
                for live in [u64::MAX, 0x00FF_F0F0_0000_FFFF] {
                    let key = rng.next_u64();
                    let blocks = cycles.div_ceil(BLOCK);
                    let mut below = vec![[0; BLOCK]; blocks * cuts.len()];
                    draw_column(kernel, key, cuts, live, &mut below);
                    for t in 0..cycles {
                        for lane in 0..LANES {
                            let u = full_uniform(key, t as u64, lane);
                            let on = live >> lane & 1 == 1;
                            for (c, &cut) in cuts.iter().enumerate() {
                                assert_eq!(
                                    below[c * blocks + t / BLOCK][t % BLOCK] >> lane & 1 == 1,
                                    on && u < cut,
                                    "{kernel:?} cuts {cuts:?} cut {c} cycle {t} lane {lane}"
                                );
                            }
                            let rank = cuts.iter().filter(|&&c| c <= u).count();
                            assert_eq!(lane_rank(key, t as u64, lane, cuts), rank);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_width_gives_a_lane_the_same_words() {
        // A point generated at widths 1, 2 and 8 gives every lane the
        // words of its own 64-lane word, generated alone at that word's
        // seed: the words depend on neither the width nor the shard split.
        use crate::systems::{paper_example, Config};
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let nl = compile(&sys.network, &CompileOptions::default())
            .unwrap()
            .netlist;
        let tb = NetlistTestbench::new(&sys.network, &nl).unwrap();
        let (seed, cycles) = (u64::MAX - 70, 45);
        for cfg in [sys.env_config.clone(), stress_cfg()] {
            let alone: Vec<PackedStimulus> = (0..2)
                .map(|g| {
                    let word_seed = seed.wrapping_add(64 * g);
                    PackedStimulus::generate(&tb, &sys.network, &cfg, word_seed, 64, cycles, 1)
                        .unwrap()
                })
                .collect();
            for (lanes, width) in [(64, 1), (64, 2), (64, 8), (128, 2), (128, 8), (100, 8)] {
                let stim =
                    PackedStimulus::generate(&tb, &sys.network, &cfg, seed, lanes, cycles, width)
                        .unwrap();
                let n = stim.slots().len();
                for (g, word) in alone.iter().enumerate().take(lanes.div_ceil(64)) {
                    let live = u64::MAX >> (64 - (lanes - 64 * g).min(64));
                    for t in 0..cycles {
                        for col in 0..n {
                            assert_eq!(
                                stim.row(t)[col * width + g],
                                word.row(t)[col] & live,
                                "{lanes} lanes, width {width}, cycle {t}, column {col}, word {g}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_column_fires_at_its_quantized_rate() {
        // Over 10⁶ lane-draws, each Bernoulli column and each weighted
        // payload bit fires within 5σ of its quantized probability, on the
        // Fig. 9 environment and the stress environment.
        use crate::systems::{paper_example, Config};
        let sys = paper_example(Config::ActiveAntiTokens).unwrap();
        let nl = compile(&sys.network, &CompileOptions::default())
            .unwrap()
            .netlist;
        let tb = NetlistTestbench::new(&sys.network, &nl).unwrap();
        let cycles = 15_625;
        for cfg in [sys.env_config.clone(), stress_cfg()] {
            let stim =
                PackedStimulus::generate(&tb, &sys.network, &cfg, 99, 64, cycles, 1).unwrap();
            for s in PackedStimulus::streams(&tb, &sys.network, &cfg) {
                let fire = s.env.p as f64 / ONE as f64;
                // The share of 2³² each payload value covers.
                let shares: Vec<(u64, f64)> = match &s.env.plan {
                    SrcPlan::Walk { cuts, values } => {
                        let mut edges = vec![0];
                        edges.extend(cuts);
                        edges.push(ONE);
                        let spans = edges.windows(2).map(|e| (e[1] - e[0]) as f64 / ONE as f64);
                        values.iter().copied().zip(spans).collect()
                    }
                    SrcPlan::Fixed(v) => vec![(*v, 1.0)],
                    SrcPlan::Count(_) => continue,
                };
                let payload = (0..s.bits).map(|j| {
                    let share: f64 = shares
                        .iter()
                        .filter(|(v, _)| v >> j & 1 == 1)
                        .map(|s| s.1)
                        .sum();
                    (s.col + 1 + j, fire * share)
                });
                for (col, rate) in std::iter::once((s.col, fire)).chain(payload) {
                    let hits: u64 = (0..cycles)
                        .map(|t| u64::from(stim.row(t)[col].count_ones()))
                        .sum();
                    let draws = (cycles * LANES) as f64;
                    let sigma = (draws * rate * (1.0 - rate)).sqrt();
                    assert!(
                        (hits as f64 - draws * rate).abs() <= 5.0 * sigma,
                        "{} column {col}: {hits} hits in {draws} draws at rate {rate}",
                        s.env.name
                    );
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
            let tb = NetlistTestbench::new(&net, &compiled.netlist).unwrap();
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
        // The fuzz differential's lowering, one optimizer pass observing
        // every channel rail and payload bit, on the five Fig. 9 systems
        // and the 30 corpus systems: the remapped nets must report the same
        // trace as the raw compilation, cycle by cycle, and the optimized
        // netlist must actually be smaller.
        use crate::compile::ChannelNets;
        use crate::corpus::{all_systems, Knobs};
        use crate::gen::observe_every_rail;
        use crate::systems::{paper_example, Config};
        let mut systems: Vec<(String, ElasticNetwork, EnvConfig)> = Config::all()
            .into_iter()
            .map(|c| {
                let sys = paper_example(c).unwrap();
                (c.label().to_string(), sys.network, sys.env_config)
            })
            .collect();
        for sys in all_systems(&Knobs::default()).unwrap() {
            let label = format!("{}/{}", sys.design, sys.config.tag());
            systems.push((label, sys.network, sys.env));
        }
        assert_eq!(systems.len(), 35);
        let nets = |c: &ChannelNets| {
            let rails = [("vp", c.vp), ("sp", c.sp), ("vn", c.vn), ("sn", c.sn)];
            let data = c.data.iter().map(|&d| ("data", d));
            rails.into_iter().chain(data).collect::<Vec<_>>()
        };
        for (label, net, env) in &systems {
            let raw = compile(
                net,
                &CompileOptions {
                    data_width: 2,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            let opt = observe_every_rail(&raw).unwrap();
            assert!(
                opt.netlist.len() < raw.netlist.len(),
                "{label}: {} !< {}",
                opt.netlist.len(),
                raw.netlist.len()
            );
            let tb_raw = NetlistTestbench::new(net, &raw.netlist).unwrap();
            let tb_opt = NetlistTestbench::new(net, &opt.netlist).unwrap();
            let sched = Schedule::random(net, env, 77, 0, 300);
            let mut sim_raw = Simulator::new(&raw.netlist).unwrap();
            let mut sim_opt = Simulator::new(&opt.netlist).unwrap();
            for t in 0..300u64 {
                sim_raw.cycle(&tb_raw.inputs_at(&sched, t)).unwrap();
                sim_opt.cycle(&tb_opt.inputs_at(&sched, t)).unwrap();
                for chan in net.channels() {
                    let (r, o) = (&raw.channels[chan.index()], &opt.channels[chan.index()]);
                    for ((rail, rr), (_, oo)) in nets(r).into_iter().zip(nets(o)) {
                        assert_eq!(
                            sim_raw.value(rr),
                            sim_opt.value(oo),
                            "{label} cycle {t} {} {rail}",
                            net.channel(chan).name
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
    fn model_check_early_join_reading_a_guard_bit() {
        // The compile carries the payload bit the guard reads, so the four
        // properties are checked (and hold) on every channel of an early
        // join: guard bit 0 low fires on the guard alone, high waits for
        // the second input.
        use crate::ee::{EarlyEval, EeTerm};
        let term = |guard_value, required: Vec<usize>, select| EeTerm {
            guard_mask: 1,
            guard_value,
            required,
            select,
        };
        let ee = EarlyEval::new(0, vec![term(0, vec![], 0), term(1, vec![1], 1)]);
        let mut net = ElasticNetwork::new("ej");
        let g = net.add_source("g").unwrap();
        let s = net.add_source("s").unwrap();
        let j = net.add_early_join("j", 2, ee).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(g, 0, j, 0, "cg").unwrap();
        net.connect(s, 0, j, 1, "cs").unwrap();
        net.connect(j, 0, snk, 0, "out").unwrap();
        let (results, _) = check_network_properties(&net, BridgeOptions::default()).unwrap();
        assert_eq!(results.len(), 12, "four properties on three channels");
        for r in &results {
            assert!(r.holds, "{} on {} failed", r.property, r.channel);
        }
    }

    #[test]
    fn fault_arm_window_validation() {
        let (net, _, _) = linear_pipeline(1, 0).unwrap();
        let mut s = Schedule::random(&net, &EnvConfig::default(), 3, 0, 20);
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
            NetlistTestbench::with_faults(&net, &plain.netlist, std::slice::from_ref(&fault)),
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
        let tb = NetlistTestbench::with_faults(&net, &faulty.netlist, &faults).unwrap();
        // Arm columns are last, in site order: source offer + sink
        // stop/kill, then one arm per site.
        let arms: Vec<u32> = faults
            .iter()
            .map(|f| {
                faulty
                    .netlist
                    .find(&f.input_name().unwrap())
                    .unwrap()
                    .index() as u32
            })
            .collect();
        assert_eq!(input_slots(&tb)[3..], arms[..]);
        // DropAntiToken has no arm wire; it resolves like new().
        let drop = FaultInjection::DropAntiToken { join: "x".into() };
        let tb2 = NetlistTestbench::with_faults(&net, &plain.netlist, &[drop]).unwrap();
        assert!(tb2.faults.is_empty());
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
        let tb = NetlistTestbench::with_faults(&net, &compiled.netlist, &[fault]).unwrap();
        let cycles = 30usize;
        // Lane k gets the window (k % 20, 3): arm the schedules, and arm
        // the generated matrix after generation, on every kernel build.
        let cfg = stress_cfg();
        let mut scheds = lane_views(&net, &cfg, 600, 70, cycles);
        for (k, s) in scheds.iter_mut().enumerate() {
            s.arm_fault(0, k % 20, 3).unwrap();
        }
        let reference = inputs_at_matrix(&tb, &scheds, 2);
        for kernel in Kernel::available() {
            let mut armed =
                PackedStimulus::generate_with(kernel, &tb, &net, &cfg, 600, 70, cycles, 2).unwrap();
            for k in 0..70 {
                armed.arm_fault(0, k, k % 20, 3).unwrap();
            }
            assert_eq!(without_fixed(armed), reference, "{kernel:?}");
        }
        // arm_fault window/site validation on the packed matrix: a site
        // one past the last arm, and any site of a fault-free matrix (whose
        // last column is a sink's kill), is no site.
        let mut fused = PackedStimulus::generate(&tb, &net, &cfg, 600, 70, cycles, 2).unwrap();
        let clean = NetlistTestbench::new(&net, &compiled.netlist).unwrap();
        let mut unarmed = PackedStimulus::generate(&clean, &net, &cfg, 600, 70, cycles, 2).unwrap();
        for err in [
            fused.arm_fault(1, 0, 0, 1),
            unarmed.arm_fault(0, 0, 0, 1),
            fused.arm_fault(0, 128, 0, 1),
            fused.arm_fault(0, 0, 0, 0),
            fused.arm_fault(0, 0, cycles - 1, 2),
        ] {
            assert!(matches!(err, Err(CoreError::FaultSite(_))), "{err:?}");
        }
    }
}
