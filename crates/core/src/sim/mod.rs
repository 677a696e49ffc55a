//! Reference (behavioural) simulator for elastic networks.
//!
//! The simulator evaluates, cycle by cycle, the boolean control equations of
//! every controller — the same equations the gate-level compiler emits — and
//! advances the component state. Within a cycle all four channel rails
//! settle to a fixpoint (valid rails ripple forward, stop rails backward),
//! which terminates because [`ElasticNetwork::check`] rejects buffer-free
//! cycles.
//!
//! Passive channels (Fig. 7a) are handled at the signal level: after every
//! evaluation pass the interface forces `S⁻ = ¬V⁺` on them, and producers
//! never see their `V⁻` in backward-propagation logic — anti-tokens wait at
//! the boundary and annihilate with the next arriving token.
//!
//! Environment behaviour (source offers, sink stops and kills,
//! variable-latency draws) is factored behind the [`Environment`] trait;
//! [`RandomEnv`] reproduces the paper's randomized testbench.

mod env;

pub use env::{DataGen, EnvConfig, Environment, LatencyDist, RandomEnv, SinkCfg, SourceCfg};

use crate::channel::{ChanId, ChannelSignals};
use crate::compile::{FaultInjection, FaultRail};
use crate::error::CoreError;
use crate::fault::FaultProcess;
use crate::network::{CompId, ComponentKind, ElasticNetwork};
use crate::protocol::ProtocolMonitor;
use crate::stats::{ChannelStats, SimReport};

/// Runtime state of one component.
#[derive(Debug, Clone, PartialEq)]
enum CompState {
    Source {
        offering: bool,
        data: u64,
    },
    Sink {
        stop_now: bool,
        killing: bool,
        received: Vec<u64>,
    },
    Eb {
        v: bool,
        vs: bool,
        nv: bool,
        nvs: bool,
        data: u64,
        data_skid: u64,
    },
    Join {
        pend: Vec<bool>,
    },
    Fork {
        done: Vec<bool>,
    },
    Vl {
        phase: VlPhase,
        data: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VlPhase {
    Idle,
    Busy { left: u32 },
    Done,
}

/// Cycle-accurate behavioural simulator — the executable semantics of the
/// paper's controller library (Sect. 4): elastic buffers, lazy joins,
/// eager forks, early-evaluation joins with anti-token generation
/// (Sect. 4.2–4.3), passive interfaces (Fig. 7a) and variable-latency
/// go/done/ack units (Sect. 4.4).
///
/// For statistical experiments over many random schedules prefer the
/// compiled bit-parallel backend (`elastic_netlist::wide::WideSimulator`
/// driven by `crate::verify::PackedStimulus::generate`), which this
/// simulator cross-validates lane by lane on each lane's
/// `crate::verify::Schedule` (see `crate::verify::cosim_check_wide`).
///
/// # Example
///
/// ```
/// use elastic_core::network::ElasticNetwork;
/// use elastic_core::sim::{BehavSim, EnvConfig, RandomEnv};
///
/// # fn main() -> Result<(), elastic_core::CoreError> {
/// let mut net = ElasticNetwork::new("demo");
/// let src = net.add_source("src").unwrap();
/// let eb = net.add_buffer("eb", 2, 0).unwrap();
/// let snk = net.add_sink("snk").unwrap();
/// net.connect(src, 0, eb, 0, "in")?;
/// let out = net.connect(eb, 0, snk, 0, "out")?;
/// let mut sim = BehavSim::new(&net)?;
/// let mut env = RandomEnv::new(7, EnvConfig::default());
/// sim.run(&mut env, 100)?;
/// assert!(sim.report().positive_rate(out) > 0.9, "free-flowing pipeline");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BehavSim {
    net: ElasticNetwork,
    state: Vec<CompState>,
    sig: Vec<ChannelSignals>,
    stats: Vec<ChannelStats>,
    monitor: ProtocolMonitor,
    check_protocol: bool,
    internal_annihilations: u64,
    time: u64,
    /// Armed rail-fault sites, one entry per distinct channel rail.
    faults: Vec<ArmedFault>,
}

/// An armed rail-fault site: `(fault, site channel, rail, windows)` where
/// the rail is corrupted while `start <= time < end` for any
/// `(start, end)` window, mirroring the compiled corruption gates
/// (`crate::compile`).
type ArmedFault = (FaultInjection, ChanId, FaultRail, Vec<(u64, u64)>);

impl BehavSim {
    /// Builds a simulator over a validated copy of the network.
    ///
    /// # Errors
    ///
    /// Propagates [`ElasticNetwork::check`] failures.
    pub fn new(net: &ElasticNetwork) -> Result<Self, CoreError> {
        net.check()?;
        let state = net
            .components()
            .map(|c| match &net.component(c).kind {
                ComponentKind::Source => CompState::Source {
                    offering: false,
                    data: 0,
                },
                ComponentKind::Sink => CompState::Sink {
                    stop_now: false,
                    killing: false,
                    received: Vec::new(),
                },
                ComponentKind::Eb {
                    init_token,
                    init_data,
                } => CompState::Eb {
                    v: *init_token,
                    vs: false,
                    nv: false,
                    nvs: false,
                    data: *init_data,
                    data_skid: 0,
                },
                ComponentKind::Join { inputs, .. } => CompState::Join {
                    pend: vec![false; *inputs],
                },
                ComponentKind::Fork { outputs } => CompState::Fork {
                    done: vec![false; *outputs],
                },
                ComponentKind::VarLatency => CompState::Vl {
                    phase: VlPhase::Idle,
                    data: 0,
                },
            })
            .collect();
        let nch = net.num_channels();
        Ok(BehavSim {
            net: net.clone(),
            state,
            sig: vec![ChannelSignals::default(); nch],
            stats: vec![ChannelStats::default(); nch],
            monitor: ProtocolMonitor::new(nch),
            check_protocol: true,
            internal_annihilations: 0,
            time: 0,
            faults: Vec::new(),
        })
    }

    /// Arms a whole [`FaultProcess`] — a one-shot window is
    /// [`FaultProcess::Once`]: validates it eagerly against this network
    /// and the `cycles` horizon, then arms every site with its
    /// deterministic `(seed, lane)` window expansion. While a window is
    /// active the site's rail is corrupted after every settlement pass —
    /// the behavioural counterpart of compiling with
    /// [`crate::compile::CompileOptions::faults`] `= process.sites()` and
    /// arming the trailing stimulus columns with
    /// [`FaultProcess::windows`]. The two backends apply the *same fault
    /// specification*; they are not guaranteed bit-identical under an
    /// active fault, because controllers feed back their raw
    /// (pre-corruption) rail values internally at slightly different
    /// points. Calling it repeatedly composes processes on disjoint channel
    /// rails.
    ///
    /// Injecting a fault usually also means disabling the erroring monitor
    /// ([`BehavSim::set_check_protocol`]) and scoring the trace with
    /// [`crate::protocol::RecoveryDetector`] instead.
    ///
    /// # Errors
    ///
    /// [`CoreError::FaultProcess`] / [`CoreError::FaultSite`] from
    /// [`FaultProcess::validate`] (an unknown channel is `FaultSite`; an
    /// empty or late window, or the structural
    /// [`FaultInjection::DropAntiToken`], which has no behavioural
    /// counterpart, is `FaultProcess`), and [`CoreError::FaultProcess`]
    /// when a site collides with an already-armed channel rail.
    pub fn inject_process(
        &mut self,
        process: &FaultProcess,
        seed: u64,
        lane: usize,
        cycles: usize,
    ) -> Result<(), CoreError> {
        process.validate(&self.net, cycles)?;
        for (site, windows) in process
            .sites()
            .into_iter()
            .zip(process.windows(seed, lane, cycles))
        {
            self.arm_site(
                site,
                windows
                    .into_iter()
                    .map(|(s, l)| (s as u64, (s + l) as u64))
                    .collect(),
            )?;
        }
        Ok(())
    }

    /// Arms one corruption site with a list of `(start, end)` windows.
    fn arm_site(
        &mut self,
        fault: FaultInjection,
        windows: Vec<(u64, u64)>,
    ) -> Result<(), CoreError> {
        let Some(site) = fault.channel() else {
            return Err(CoreError::FaultSite(
                "drop-anti-token is a compile-time sabotage, not a behavioural rail fault".into(),
            ));
        };
        let chan = self
            .net
            .channels()
            .find(|&c| self.net.channel(c).name == site)
            .ok_or_else(|| CoreError::FaultSite(format!("no channel named {site:?} to corrupt")))?;
        let rail = fault.rail().expect("rail faults target a rail");
        if self
            .faults
            .iter()
            .any(|&(_, c, r, _)| c == chan && r == rail)
        {
            return Err(CoreError::FaultProcess(format!(
                "channel {site:?} rail {} is already armed: overlapping windows on one rail \
                 must share a single site",
                rail.label()
            )));
        }
        self.faults.push((fault, chan, rail, windows));
        Ok(())
    }

    /// Disables the runtime protocol monitor (kept on by default; only worth
    /// disabling in throughput micro-benchmarks).
    pub fn set_check_protocol(&mut self, on: bool) {
        self.check_protocol = on;
    }

    /// Completed cycles.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The settled signals of the last completed cycle: the four SELF rails
    /// `(V⁺, S⁺, V⁻, S⁻)` of the dual channel (paper Sect. 3, Fig. 5) plus
    /// the forward payload.
    ///
    /// # Panics
    ///
    /// Panics if `chan` is out of range.
    pub fn signals(&self, chan: ChanId) -> ChannelSignals {
        self.sig[chan.index()]
    }

    /// Data values accepted so far by a sink, in arrival order — the
    /// observation stream of the paper's Fig. 8(b) data-correctness
    /// testbench (consumers must see the produced sequence with deletions
    /// only, never reordering or duplication).
    ///
    /// Returns an empty slice for non-sink components.
    pub fn sink_received(&self, comp: CompId) -> &[u64] {
        match &self.state[comp.index()] {
            CompState::Sink { received, .. } => received,
            _ => &[],
        }
    }

    /// Statistics accumulated so far: per-channel positive/negative
    /// transfer, retry and kill counts — the raw material of the paper's
    /// Table 1 columns and the throughput plots of Sect. 6.1.
    pub fn report(&self) -> SimReport {
        SimReport {
            channels: self.stats.clone(),
            names: self
                .net
                .channels()
                .map(|c| self.net.channel(c).name.clone())
                .collect(),
            cycles: self.time,
            internal_annihilations: self.internal_annihilations,
        }
    }

    /// Runs `cycles` cycles under `env`.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`BehavSim::step`].
    pub fn run(&mut self, env: &mut dyn Environment, cycles: u64) -> Result<(), CoreError> {
        for _ in 0..cycles {
            self.step(env)?;
        }
        Ok(())
    }

    /// Simulates one cycle: refresh environment decisions, settle the four
    /// rails, record statistics, advance component state.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoFixpoint`] if the rails fail to settle (implementation
    /// bug) and [`CoreError::ProtocolViolation`] from the runtime monitor.
    pub fn step(&mut self, env: &mut dyn Environment) -> Result<(), CoreError> {
        self.refresh_env(env);
        self.settle()?;
        self.observe()?;
        self.update(env);
        self.time += 1;
        Ok(())
    }

    fn refresh_env(&mut self, env: &mut dyn Environment) {
        for comp in self.net.components() {
            let name = self.net.component(comp).name.clone();
            match &mut self.state[comp.index()] {
                CompState::Source { offering, data } if !*offering => {
                    if let Some(d) = env.source_offer(comp, &name, self.time) {
                        *offering = true;
                        *data = d;
                    }
                }
                CompState::Sink {
                    stop_now, killing, ..
                } => {
                    *stop_now = env.sink_stop(comp, &name, self.time);
                    if !*killing && env.sink_kill(comp, &name, self.time) {
                        *killing = true;
                    }
                }
                _ => {}
            }
        }
    }

    fn settle(&mut self) -> Result<(), CoreError> {
        for s in &mut self.sig {
            *s = ChannelSignals::default();
        }
        let budget = self.net.num_components() + self.net.num_channels() + 4;
        let comps: Vec<CompId> = self.net.components().collect();
        let passive: Vec<ChanId> = self
            .net
            .channels()
            .filter(|&c| self.net.channel(c).passive)
            .collect();
        for _ in 0..budget {
            let before = self.sig.clone();
            for &comp in &comps {
                self.eval_component(comp);
            }
            // Armed rail faults: corrupt each settled rail whose site has
            // an active window, like the compiled corruption gates between
            // producer and consumers. Every pass re-evaluates the raw
            // value, so the corruption is stable across passes.
            for (fault, chan, rail, windows) in &self.faults {
                if windows.iter().any(|&(s, e)| (s..e).contains(&self.time)) {
                    let s = &mut self.sig[chan.index()];
                    match rail {
                        FaultRail::Vp => s.vp = fault.corrupt(s.vp, true),
                        FaultRail::Sp => s.sp = fault.corrupt(s.sp, true),
                        FaultRail::Vn => s.vn = fault.corrupt(s.vn, true),
                    }
                }
            }
            // Passive anti-token interfaces force S⁻ = ¬V⁺ at the boundary.
            for &chan in &passive {
                let s = &mut self.sig[chan.index()];
                s.sn = !s.vp;
            }
            if before == self.sig {
                return Ok(());
            }
        }
        Err(CoreError::NoFixpoint)
    }

    /// `V⁻` for the producer's *backward-propagation* logic (an anti-token
    /// entering the producer's storage or FSM): masked to zero on passive
    /// channels, where anti-tokens must wait at the boundary. The kill
    /// condition `V⁺ ∧ V⁻` stays channel-local and uses the raw value.
    fn backward_vn(&self, chan: ChanId) -> bool {
        if self.net.channel(chan).passive {
            false
        } else {
            self.sig[chan.index()].vn
        }
    }

    #[allow(clippy::too_many_lines)]
    fn eval_component(&mut self, comp: CompId) {
        let kind = self.net.component(comp).kind.clone();
        match kind {
            ComponentKind::Source => {
                let c = self.net.output_channel(comp, 0).expect("wired");
                let (offering, data) = match &self.state[comp.index()] {
                    CompState::Source { offering, data } => (*offering, *data),
                    _ => unreachable!(),
                };
                let s = &mut self.sig[c.index()];
                s.vp = offering;
                if offering {
                    s.data = data;
                }
                // Passive anti-token interface toward the environment.
                s.sn = !offering;
            }
            ComponentKind::Sink => {
                let a = self.net.input_channel(comp, 0).expect("wired");
                let (stop_now, killing) = match &self.state[comp.index()] {
                    CompState::Sink {
                        stop_now, killing, ..
                    } => (*stop_now, *killing),
                    _ => unreachable!(),
                };
                let s = &mut self.sig[a.index()];
                s.vn = killing;
                s.sp = stop_now && !killing;
            }
            ComponentKind::Eb { .. } => {
                // The EB registers all four rails: V⁺/V⁻ from the main
                // slots, S⁺/S⁻ from the skid slots — no combinational path
                // crosses the buffer in either direction, mirroring the
                // latched V and S of the paper's EHB pair.
                let a = self.net.input_channel(comp, 0).expect("wired");
                let b = self.net.output_channel(comp, 0).expect("wired");
                let (v, vs, nv, nvs, data) = match &self.state[comp.index()] {
                    CompState::Eb {
                        v,
                        vs,
                        nv,
                        nvs,
                        data,
                        ..
                    } => (*v, *vs, *nv, *nvs, *data),
                    _ => unreachable!(),
                };
                {
                    let sb = &mut self.sig[b.index()];
                    sb.vp = v;
                    if v {
                        sb.data = data;
                    }
                    sb.sn = nvs;
                }
                {
                    let sa = &mut self.sig[a.index()];
                    sa.vn = nv;
                    sa.sp = vs;
                }
            }
            ComponentKind::Join { inputs, ee } => {
                let ins: Vec<ChanId> = (0..inputs)
                    .map(|i| self.net.input_channel(comp, i).expect("wired"))
                    .collect();
                let b = self.net.output_channel(comp, 0).expect("wired");
                let pend = match &self.state[comp.index()] {
                    CompState::Join { pend } => pend.clone(),
                    _ => unreachable!(),
                };
                let vp_in: Vec<bool> = ins.iter().map(|&c| self.sig[c.index()].vp).collect();
                let vpeff: Vec<bool> = vp_in.iter().zip(&pend).map(|(&vi, &p)| vi && !p).collect();
                let any_pend = pend.iter().any(|&p| p);
                let (enabled, select) = match &ee {
                    Some(f) => {
                        let guard_data = self.sig[ins[f.guard_input].index()].data;
                        match f.eval(&vpeff, guard_data) {
                            Some(t) => (true, f.terms[t].select),
                            None => (false, 0),
                        }
                    }
                    None => (vpeff.iter().all(|&vi| vi), 0),
                };
                let vp_b = enabled && !any_pend;
                let data_b = self.sig[ins[select].index()].data;
                let sp_b = self.sig[b.index()].sp;
                let vn_b = self.backward_vn(b);
                // Output transfer or output kill both consume the inputs.
                let fire = vp_b && !sp_b;
                let absorb = vn_b && !vp_b && !any_pend;
                {
                    let sb = &mut self.sig[b.index()];
                    sb.vp = vp_b;
                    if vp_b {
                        sb.data = data_b;
                    }
                    sb.sn = !absorb && !vp_b;
                }
                for (i, &a) in ins.iter().enumerate() {
                    let g = fire && !vpeff[i]; // anti-token generation (G gates)
                    let vn_a = pend[i] || g;
                    let sa = &mut self.sig[a.index()];
                    sa.vn = vn_a;
                    sa.sp = !fire && !vn_a;
                }
            }
            ComponentKind::Fork { outputs } => {
                let a = self.net.input_channel(comp, 0).expect("wired");
                let outs: Vec<ChanId> = (0..outputs)
                    .map(|i| self.net.output_channel(comp, i).expect("wired"))
                    .collect();
                let done = match &self.state[comp.index()] {
                    CompState::Fork { done } => done.clone(),
                    _ => unreachable!(),
                };
                let vp_a = self.sig[a.index()].vp;
                let data_a = self.sig[a.index()].data;
                let sn_a = self.sig[a.index()].sn;
                for (i, &b) in outs.iter().enumerate() {
                    let sb = &mut self.sig[b.index()];
                    sb.vp = vp_a && !done[i];
                    if sb.vp {
                        sb.data = data_a;
                    }
                }
                // Which output copies are resolved (already done, transfer,
                // or killed by a consumer anti-token)?
                let mut all_res = true;
                let mut all_vn = true;
                for (i, &b) in outs.iter().enumerate() {
                    let s = self.sig[b.index()];
                    let t = s.vp && !s.sp && !s.vn;
                    let k = s.vp && s.vn;
                    if !(done[i] || t || k) {
                        all_res = false;
                    }
                    if !self.backward_vn(b) {
                        all_vn = false;
                    }
                }
                // Backward lazy join of anti-tokens (pure counterflow case).
                let vn_a = all_vn && !vp_a;
                let consumed_neg = vn_a && !sn_a;
                {
                    let sa = &mut self.sig[a.index()];
                    sa.vn = vn_a;
                    sa.sp = !all_res && !vn_a;
                }
                for &b in &outs {
                    let vp_b = self.sig[b.index()].vp;
                    let sb = &mut self.sig[b.index()];
                    sb.sn = !consumed_neg && !vp_b;
                }
            }
            ComponentKind::VarLatency => {
                let a = self.net.input_channel(comp, 0).expect("wired");
                let b = self.net.output_channel(comp, 0).expect("wired");
                let (phase, data) = match &self.state[comp.index()] {
                    CompState::Vl { phase, data } => (*phase, *data),
                    _ => unreachable!(),
                };
                let idle = phase == VlPhase::Idle;
                let done = phase == VlPhase::Done;
                let vn_b = self.backward_vn(b);
                // Anti-tokens pass through an idle unit; a busy unit absorbs
                // them (annihilating the in-flight token); a done unit kills
                // at the output channel.
                let vn_a = vn_b && idle;
                let sn_a = self.sig[a.index()].sn;
                let sp_b = self.sig[b.index()].sp;
                // Accept a new token when idle, or in the same cycle the
                // finished result leaves (ack overlaps the next go, so the
                // unit sustains one token per `latency` cycles).
                let out_resolving = done && !sp_b;
                let can_accept = idle || out_resolving;
                {
                    let sa = &mut self.sig[a.index()];
                    sa.vn = vn_a;
                    sa.sp = !can_accept && !vn_a;
                }
                let sa = self.sig[a.index()];
                let resolved_at_a = sa.vn && (sa.vp || !sn_a);
                let sn_b = if idle { vn_b && !resolved_at_a } else { false };
                {
                    let sb = &mut self.sig[b.index()];
                    sb.vp = done;
                    if done {
                        sb.data = data;
                    }
                    sb.sn = sn_b && !done;
                }
            }
        }
    }

    fn observe(&mut self) -> Result<(), CoreError> {
        for chan in self.net.channels() {
            let s = self.sig[chan.index()];
            if self.check_protocol {
                if let Err(msg) = s.check_invariants() {
                    return Err(CoreError::ProtocolViolation {
                        channel: chan,
                        message: msg.to_string(),
                    });
                }
                self.monitor.observe(chan, s)?;
            }
            self.stats[chan.index()].record(s.event());
        }
        Ok(())
    }

    #[allow(clippy::too_many_lines)]
    fn update(&mut self, env: &mut dyn Environment) {
        for comp in self.net.components() {
            let kind = self.net.component(comp).kind.clone();
            let name = self.net.component(comp).name.clone();
            match kind {
                ComponentKind::Source => {
                    let c = self.net.output_channel(comp, 0).expect("wired");
                    let s = self.sig[c.index()];
                    if let CompState::Source { offering, .. } = &mut self.state[comp.index()] {
                        let transferred = s.vp && !s.sp && !s.vn;
                        let killed = s.vp && s.vn;
                        if transferred || killed {
                            *offering = false;
                        }
                    }
                }
                ComponentKind::Sink => {
                    let a = self.net.input_channel(comp, 0).expect("wired");
                    let s = self.sig[a.index()];
                    if let CompState::Sink {
                        killing, received, ..
                    } = &mut self.state[comp.index()]
                    {
                        if s.vp && !s.sp && !s.vn {
                            received.push(s.data);
                        }
                        if *killing {
                            let kill = s.vn && s.vp;
                            let neg_t = s.vn && !s.sn && !s.vp;
                            if kill || neg_t {
                                *killing = false;
                            }
                        }
                    }
                }
                ComponentKind::Eb { .. } => {
                    let a = self.net.input_channel(comp, 0).expect("wired");
                    let b = self.net.output_channel(comp, 0).expect("wired");
                    let sa = self.sig[a.index()];
                    let sb = self.sig[b.index()];
                    let vn_b = self.backward_vn(b);
                    if let CompState::Eb {
                        v,
                        vs,
                        nv,
                        nvs,
                        data,
                        data_skid,
                    } = &mut self.state[comp.index()]
                    {
                        let t_in = sa.vp && !sa.sp && !sa.vn;
                        let tn_in = vn_b && !sb.sn && !sb.vp;
                        if t_in && tn_in {
                            // A token and an anti-token entered the empty
                            // buffer from opposite sides: annihilate.
                            self.internal_annihilations += 1;
                        }
                        let t_enter = t_in && !tn_in;
                        let tn_enter = tn_in && !t_in;
                        // Positive side: the main slot departs on transfer
                        // or kill (the consumer's invariant gate clears S⁺
                        // during a kill), then refills from skid or input.
                        let out_gone = *v && !sb.sp;
                        let freed = !*v || out_gone;
                        let new_v = (*v && !out_gone) || (freed && (*vs || t_enter));
                        let new_vs = (*vs || t_enter) && !freed;
                        if freed && *vs {
                            *data = *data_skid;
                        } else if freed && t_enter {
                            *data = sa.data;
                        }
                        if t_enter && !freed {
                            *data_skid = sa.data;
                        }
                        // Negative side: the mirror image.
                        let ngone = *nv && !sa.sn;
                        let nfreed = !*nv || ngone;
                        let new_nv = (*nv && !ngone) || (nfreed && (*nvs || tn_enter));
                        let new_nvs = (*nvs || tn_enter) && !nfreed;
                        *v = new_v;
                        *vs = new_vs;
                        *nv = new_nv;
                        *nvs = new_nvs;
                    }
                }
                ComponentKind::Join { inputs, .. } => {
                    let ins: Vec<ChanId> = (0..inputs)
                        .map(|i| self.net.input_channel(comp, i).expect("wired"))
                        .collect();
                    let b = self.net.output_channel(comp, 0).expect("wired");
                    let sb = self.sig[b.index()];
                    let vn_b = self.backward_vn(b);
                    let any_pend = match &self.state[comp.index()] {
                        CompState::Join { pend } => pend.iter().any(|&p| p),
                        _ => unreachable!(),
                    };
                    let absorb = vn_b && !sb.vp && !any_pend;
                    let resolutions: Vec<(bool, bool)> = ins
                        .iter()
                        .map(|&a| {
                            let sa = self.sig[a.index()];
                            let t_n = sa.vn && !sa.sn && !sa.vp;
                            let k = sa.vn && sa.vp;
                            (sa.vn, t_n || k)
                        })
                        .collect();
                    if let CompState::Join { pend } = &mut self.state[comp.index()] {
                        for (i, p) in pend.iter_mut().enumerate() {
                            let (vn_now, resolved) = resolutions[i];
                            let owed = *p || vn_now || absorb;
                            *p = owed && !resolved;
                        }
                    }
                }
                ComponentKind::Fork { outputs } => {
                    let a = self.net.input_channel(comp, 0).expect("wired");
                    let outs: Vec<ChanId> = (0..outputs)
                        .map(|i| self.net.output_channel(comp, i).expect("wired"))
                        .collect();
                    let vp_a = self.sig[a.index()].vp;
                    let res: Vec<bool> = outs
                        .iter()
                        .enumerate()
                        .map(|(i, &bch)| {
                            let s = self.sig[bch.index()];
                            let t = s.vp && !s.sp && !s.vn;
                            let k = s.vp && s.vn;
                            let done_i = match &self.state[comp.index()] {
                                CompState::Fork { done } => done[i],
                                _ => unreachable!(),
                            };
                            done_i || t || k
                        })
                        .collect();
                    let consumed = vp_a && res.iter().all(|&r| r);
                    if let CompState::Fork { done } = &mut self.state[comp.index()] {
                        for (d, &r) in done.iter_mut().zip(&res) {
                            *d = r && !consumed;
                        }
                    }
                }
                ComponentKind::VarLatency => {
                    let a = self.net.input_channel(comp, 0).expect("wired");
                    let b = self.net.output_channel(comp, 0).expect("wired");
                    let sa = self.sig[a.index()];
                    let sb = self.sig[b.index()];
                    let vn_b = self.backward_vn(b);
                    let t_in = sa.vp && !sa.sp && !sa.vn;
                    if let CompState::Vl { phase, data } = &mut self.state[comp.index()] {
                        // Launch state for a token accepted this cycle: the
                        // result becomes visible `latency` cycles later.
                        let launch = |data_slot: &mut u64, env: &mut dyn Environment| {
                            *data_slot = sa.data;
                            let lat = env.vl_latency(comp, &name, self.time).max(1);
                            if lat == 1 {
                                VlPhase::Done
                            } else {
                                VlPhase::Busy { left: lat - 1 }
                            }
                        };
                        *phase = match *phase {
                            VlPhase::Idle => {
                                if t_in {
                                    launch(data, env)
                                } else {
                                    VlPhase::Idle
                                }
                            }
                            VlPhase::Busy { left } => {
                                if vn_b {
                                    VlPhase::Idle // computation aborted by anti-token
                                } else if left <= 1 {
                                    VlPhase::Done
                                } else {
                                    VlPhase::Busy { left: left - 1 }
                                }
                            }
                            VlPhase::Done => {
                                if sb.vp && !sb.sp {
                                    // Result left (transfer or kill): start
                                    // the next computation immediately when a
                                    // token entered in the same cycle.
                                    if t_in {
                                        launch(data, env)
                                    } else {
                                        VlPhase::Idle
                                    }
                                } else {
                                    VlPhase::Done
                                }
                            }
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelEvent;
    use crate::ee::{EarlyEval, EeTerm};

    /// src -> eb(2 stages) -> snk.
    fn pipeline(tokens: usize) -> (ElasticNetwork, ChanId, ChanId) {
        let mut net = ElasticNetwork::new("lin");
        let src = net.add_source("src").unwrap();
        let eb = net.add_buffer("eb", 2, tokens).unwrap();
        let snk = net.add_sink("snk").unwrap();
        let cin = net.connect(src, 0, eb, 0, "in").unwrap();
        let cout = net.connect(eb, 0, snk, 0, "out").unwrap();
        (net, cin, cout)
    }

    #[test]
    fn free_flow_reaches_full_throughput() {
        let (net, cin, cout) = pipeline(0);
        let mut sim = BehavSim::new(&net).unwrap();
        let mut env = RandomEnv::new(3, EnvConfig::default());
        sim.run(&mut env, 200).unwrap();
        let r = sim.report();
        assert!(
            r.positive_rate(cin) > 0.95,
            "in rate {}",
            r.positive_rate(cin)
        );
        assert!(
            r.positive_rate(cout) > 0.95,
            "out rate {}",
            r.positive_rate(cout)
        );
    }

    #[test]
    fn latency_through_buffer_is_one_cycle_per_stage() {
        let (net, _cin, cout) = pipeline(0);
        let mut sim = BehavSim::new(&net).unwrap();
        let mut env = RandomEnv::new(3, EnvConfig::default());
        // Cycle 0: token enters stage 0. Cycle 1: moves to stage 1.
        // Cycle 2: leaves on the output channel.
        sim.step(&mut env).unwrap();
        assert_eq!(sim.signals(cout).event(), ChannelEvent::Idle);
        sim.step(&mut env).unwrap();
        assert_eq!(sim.signals(cout).event(), ChannelEvent::Idle);
        sim.step(&mut env).unwrap();
        assert_eq!(sim.signals(cout).event(), ChannelEvent::PositiveTransfer);
    }

    #[test]
    fn backpressure_stalls_without_losing_tokens() {
        let (net, cin, cout) = pipeline(0);
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sinks.insert(
            "snk".into(),
            SinkCfg {
                stop_prob: 1.0,
                kill_prob: 0.0,
            },
        );
        let mut env = RandomEnv::new(3, cfg);
        sim.run(&mut env, 50).unwrap();
        let r = sim.report();
        // Two EBs of capacity 2: exactly four tokens entered, none left.
        assert_eq!(r.channel(cin).positive, 4);
        assert_eq!(r.channel(cout).positive, 0);
        assert!(r.channel(cout).retries > 40);
    }

    #[test]
    fn sink_kill_annihilates_tokens() {
        let (net, _cin, cout) = pipeline(2);
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sources.insert(
            "src".into(),
            SourceCfg {
                rate: 0.0,
                data: DataGen::Const(0),
            },
        );
        cfg.sinks.insert(
            "snk".into(),
            SinkCfg {
                stop_prob: 0.0,
                kill_prob: 1.0,
            },
        );
        let mut env = RandomEnv::new(3, cfg);
        sim.run(&mut env, 10).unwrap();
        let r = sim.report();
        // The two initial tokens are killed on the output channel; further
        // anti-tokens travel backwards into the empty pipeline and stop at
        // the source interface.
        assert_eq!(r.channel(cout).kills, 2);
        assert!(r.channel(cout).negative >= 1);
    }

    #[test]
    fn data_payloads_travel_in_order() {
        let (net, _cin, _cout) = pipeline(0);
        let snk = net.component_by_name("snk").unwrap();
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sources.insert(
            "src".into(),
            SourceCfg {
                rate: 1.0,
                data: DataGen::Counter,
            },
        );
        let mut env = RandomEnv::new(3, cfg);
        sim.run(&mut env, 20).unwrap();
        let got = sim.sink_received(snk);
        assert!(got.len() >= 10);
        for (i, &d) in got.iter().enumerate() {
            assert_eq!(d, i as u64, "FIFO order and no loss/duplication");
        }
    }

    #[test]
    fn lazy_join_waits_for_all_inputs() {
        let mut net = ElasticNetwork::new("join");
        let s1 = net.add_source("s1").unwrap();
        let s2 = net.add_source("s2").unwrap();
        let b1 = net.add_eb("b1", false).unwrap();
        let b2 = net.add_eb("b2", false).unwrap();
        let j = net.add_join("j", 2).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(s1, 0, b1, 0, "a1").unwrap();
        net.connect(s2, 0, b2, 0, "a2").unwrap();
        net.connect(b1, 0, j, 0, "j1").unwrap();
        net.connect(b2, 0, j, 1, "j2").unwrap();
        let out = net.connect(j, 0, snk, 0, "out").unwrap();
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        // s2 only offers half the time: join throughput tracks the slow one.
        cfg.sources.insert(
            "s2".into(),
            SourceCfg {
                rate: 0.5,
                data: DataGen::Const(0),
            },
        );
        let mut env = RandomEnv::new(5, cfg);
        sim.run(&mut env, 2000).unwrap();
        let r = sim.report();
        let th = r.positive_rate(out);
        assert!((0.4..0.6).contains(&th), "join rate {th}");
    }

    #[test]
    fn eager_fork_lets_fast_branch_run_ahead_one_token() {
        let mut net = ElasticNetwork::new("fork");
        let src = net.add_source("src").unwrap();
        let f = net.add_fork("f", 2).unwrap();
        let fast = net.add_sink("fast").unwrap();
        let slow = net.add_sink("slow").unwrap();
        net.connect(src, 0, f, 0, "in").unwrap();
        let cf = net.connect(f, 0, fast, 0, "cf").unwrap();
        let cs = net.connect(f, 1, slow, 0, "cs").unwrap();
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sinks.insert(
            "slow".into(),
            SinkCfg {
                stop_prob: 1.0,
                kill_prob: 0.0,
            },
        );
        let mut env = RandomEnv::new(5, cfg);
        sim.run(&mut env, 30).unwrap();
        let r = sim.report();
        // Eager: the fast branch gets the first token immediately even
        // though the slow branch never accepts; then the fork blocks.
        assert_eq!(r.channel(cf).positive, 1);
        assert_eq!(r.channel(cs).positive, 0);
        assert!(r.channel(cs).retries > 20);
    }

    /// Builds the EJ test harness: guard and s1 always offer; the EE
    /// function always selects input 1, so input 2's tokens are never used
    /// as data. Returns `(network, c2, j2, out)`.
    fn ej_harness() -> (ElasticNetwork, ChanId, ChanId, ChanId) {
        let mut net = ElasticNetwork::new("ej");
        let gs = net.add_source("guard").unwrap();
        let s1 = net.add_source("s1").unwrap();
        let s2 = net.add_source("s2").unwrap();
        let bg = net.add_eb("bg", false).unwrap();
        let b1 = net.add_eb("b1", false).unwrap();
        let b2 = net.add_eb("b2", false).unwrap();
        let ee = EarlyEval::new(
            0,
            vec![EeTerm {
                guard_mask: 1,
                guard_value: 0,
                required: vec![1],
                select: 1,
            }],
        );
        let j = net.add_early_join("w", 3, ee).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(gs, 0, bg, 0, "cg").unwrap();
        net.connect(s1, 0, b1, 0, "c1").unwrap();
        let c2 = net.connect(s2, 0, b2, 0, "c2").unwrap();
        net.connect(bg, 0, j, 0, "jg").unwrap();
        net.connect(b1, 0, j, 1, "j1").unwrap();
        let j2 = net.connect(b2, 0, j, 2, "j2").unwrap();
        let out = net.connect(j, 0, snk, 0, "out").unwrap();
        (net, c2, j2, out)
    }

    #[test]
    fn early_join_generates_anti_tokens_that_kill_late_tokens() {
        // s2 offers only half the time: early fires race ahead of branch 2,
        // leaving anti-tokens behind that annihilate the late arrivals.
        let (net, c2, j2, out) = ej_harness();
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sources.insert(
            "s2".into(),
            SourceCfg {
                rate: 0.5,
                data: DataGen::Const(0),
            },
        );
        let mut env = RandomEnv::new(5, cfg);
        sim.run(&mut env, 4000).unwrap();
        let r = sim.report();
        // Token conservation: every operation consumes one branch-2 token,
        // either as data or as a kill victim, so the long-run rate tracks
        // s2's rate — the early join buys decoupling, not rate.
        let th = r.positive_rate(out);
        assert!((0.42..0.58).contains(&th), "out rate {th}");
        assert!(
            r.channel(j2).negative > 100,
            "anti-tokens flow on j2: {:?}",
            r.channel(j2)
        );
        let kills = r.channel(j2).kills + r.channel(c2).kills;
        assert!(kills > 100, "late tokens are annihilated: {kills}");
        // Conservation: every fire consumes one branch-2 token, either as a
        // j2 transfer (data) or through exactly one annihilation somewhere
        // on the branch. Allow a few units of in-flight slack.
        let fires = r.channel(out).positive;
        let consumed = r.channel(j2).positive
            + r.channel(j2).kills
            + r.channel(c2).kills
            + r.internal_annihilations;
        assert!(
            fires.abs_diff(consumed) <= 3,
            "fires {fires} vs branch-2 consumption {consumed}"
        );
    }

    #[test]
    fn early_join_blocks_when_anti_token_storage_is_exhausted() {
        // s2 never offers: the first two early fires park anti-tokens in
        // b2's two slots, the third parks one in the EJ's pending
        // flip-flop, and the B-gate then blocks further fires — bounded
        // counterflow storage, exactly the behaviour the paper's B gate
        // enforces ("it would be possible to extend the approach to store
        // multiple anti-tokens at every controller", Conclusions).
        let (net, _c2, j2, out) = ej_harness();
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sources.insert(
            "s2".into(),
            SourceCfg {
                rate: 0.0,
                data: DataGen::Const(0),
            },
        );
        let mut env = RandomEnv::new(5, cfg);
        sim.run(&mut env, 100).unwrap();
        let r = sim.report();
        assert_eq!(r.channel(out).positive, 3, "three fires, then blocked");
        assert_eq!(r.channel(j2).negative, 2, "two anti-tokens entered b2");
        assert!(r.channel(j2).negative_retries > 90, "the next one waits");
    }

    #[test]
    fn early_join_consumes_present_unneeded_inputs() {
        // s2 offers every cycle: its tokens are consumed by the fires as
        // ordinary transfers (no anti-tokens are ever generated).
        let (net, c2, j2, out) = ej_harness();
        let mut sim = BehavSim::new(&net).unwrap();
        let mut env = RandomEnv::new(5, EnvConfig::default());
        sim.run(&mut env, 200).unwrap();
        let r = sim.report();
        assert!(r.positive_rate(out) > 0.9);
        assert_eq!(r.channel(j2).kills, 0);
        assert_eq!(r.channel(c2).kills, 0);
        assert_eq!(r.channel(j2).negative, 0);
        assert!(
            r.channel(j2).positive > 190,
            "branch-2 tokens consumed as data"
        );
    }

    #[test]
    fn variable_latency_unit_delays_tokens() {
        let mut net = ElasticNetwork::new("vl");
        let src = net.add_source("src").unwrap();
        let b = net.add_eb("b", false).unwrap();
        let vl = net.add_var_latency("m").unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, b, 0, "in").unwrap();
        net.connect(b, 0, vl, 0, "bm").unwrap();
        let out = net.connect(vl, 0, snk, 0, "out").unwrap();
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.vls.insert("m".into(), LatencyDist::fixed(4));
        let mut env = RandomEnv::new(9, cfg);
        sim.run(&mut env, 400).unwrap();
        let th = sim.report().positive_rate(out);
        // One token per 4 cycles (plus handoff overhead cannot exceed 1/4).
        assert!((0.2..=0.26).contains(&th), "vl throughput {th}");
    }

    #[test]
    fn protocol_monitor_accepts_long_random_runs() {
        let (net, _cin, _cout) = pipeline(1);
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sources.insert(
            "src".into(),
            SourceCfg {
                rate: 0.6,
                data: DataGen::Counter,
            },
        );
        cfg.sinks.insert(
            "snk".into(),
            SinkCfg {
                stop_prob: 0.4,
                kill_prob: 0.1,
            },
        );
        let mut env = RandomEnv::new(11, cfg);
        // Any invariant or persistence violation would error out here.
        sim.run(&mut env, 5000).unwrap();
    }

    #[test]
    fn fault_site_validation_is_typed_per_variant() {
        let (net, _cin, _cout) = pipeline(0);
        let mut sim = BehavSim::new(&net).unwrap();
        let mut inject = |fault, start, len| sim.inject_process(&once(fault, start, len), 0, 0, 16);
        // Unknown channel: every rail-fault variant is a typed error.
        for fault in [
            FaultInjection::RailFlip {
                channel: "nope".into(),
                rail: FaultRail::Vp,
            },
            FaultInjection::StuckAt {
                channel: "nope".into(),
                rail: FaultRail::Sp,
                value: true,
            },
            FaultInjection::DuplicateToken {
                channel: "nope".into(),
            },
            FaultInjection::LoseToken {
                channel: "nope".into(),
            },
        ] {
            let label = format!("{fault:?}");
            assert!(
                matches!(inject(fault, 0, 1), Err(CoreError::FaultSite(_))),
                "{label} on a nonexistent channel must be FaultSite"
            );
        }
        // Empty window on a valid channel.
        let flip = FaultInjection::RailFlip {
            channel: "out".into(),
            rail: FaultRail::Vp,
        };
        assert!(matches!(
            inject(flip, 3, 0),
            Err(CoreError::FaultProcess(_))
        ));
        // The structural sabotage has no behavioural counterpart.
        assert!(matches!(
            inject(FaultInjection::DropAntiToken { join: "j".into() }, 0, 1),
            Err(CoreError::FaultProcess(_))
        ));
    }

    /// A one-shot fault window, as the tests below inject it on lane 0
    /// (no per-lane stagger).
    fn once(fault: FaultInjection, start: usize, len: usize) -> FaultProcess {
        FaultProcess::Once { fault, start, len }
    }

    #[test]
    fn stuck_at_forces_rail_during_window_only() {
        let (net, _cin, cout) = pipeline(0);
        let mut sim = BehavSim::new(&net).unwrap();
        sim.set_check_protocol(false);
        let stuck = FaultInjection::StuckAt {
            channel: "out".into(),
            rail: FaultRail::Sp,
            value: true,
        };
        sim.inject_process(&once(stuck, 5, 4), 0, 0, 20).unwrap();
        let mut env = RandomEnv::new(3, EnvConfig::default());
        for t in 0..20u64 {
            sim.step(&mut env).unwrap();
            let s = sim.signals(cout);
            if (5..9).contains(&t) {
                assert!(s.sp, "S+ stuck high inside the window (t={t})");
            } else if t >= 10 {
                assert!(!s.sp, "free-flowing sink never stops outside (t={t})");
            }
        }
    }

    #[test]
    fn lose_token_suppresses_a_flowing_valid() {
        let (net, _cin, cout) = pipeline(0);
        let mut clean = BehavSim::new(&net).unwrap();
        let mut faulty = clean.clone();
        faulty.set_check_protocol(false);
        let lose = FaultInjection::LoseToken {
            channel: "out".into(),
        };
        faulty.inject_process(&once(lose, 6, 1), 0, 0, 12).unwrap();
        let mut env_c = RandomEnv::new(3, EnvConfig::default());
        let mut env_f = RandomEnv::new(3, EnvConfig::default());
        for t in 0..12u64 {
            clean.step(&mut env_c).unwrap();
            faulty.step(&mut env_f).unwrap();
            if t == 6 {
                assert!(clean.signals(cout).vp, "clean run offers a token");
                assert!(!faulty.signals(cout).vp, "faulted run lost it");
            }
        }
        // One fewer token was delivered downstream.
        let snk = net.component_by_name("snk").unwrap();
        assert_eq!(
            clean.sink_received(snk).len(),
            faulty.sink_received(snk).len() + 1
        );
    }

    #[test]
    fn duplicate_token_asserts_valid_on_idle_channel() {
        let (net, _cin, cout) = pipeline(0);
        let mut sim = BehavSim::new(&net).unwrap();
        sim.set_check_protocol(false);
        let mut cfg = EnvConfig::default();
        cfg.sources.insert(
            "src".into(),
            SourceCfg {
                rate: 0.0,
                data: DataGen::Const(0),
            },
        );
        let dup = FaultInjection::DuplicateToken {
            channel: "out".into(),
        };
        sim.inject_process(&once(dup, 4, 1), 0, 0, 8).unwrap();
        let mut env = RandomEnv::new(3, cfg);
        for t in 0..8u64 {
            sim.step(&mut env).unwrap();
            assert_eq!(
                sim.signals(cout).vp,
                t == 4,
                "spurious token exactly in the window (t={t})"
            );
        }
    }

    #[test]
    fn rail_flip_inverts_for_one_cycle() {
        let (net, _cin, cout) = pipeline(0);
        let mut sim = BehavSim::new(&net).unwrap();
        sim.set_check_protocol(false);
        let flip = FaultInjection::RailFlip {
            channel: "out".into(),
            rail: FaultRail::Vp,
        };
        sim.inject_process(&once(flip, 5, 1), 0, 0, 10).unwrap();
        let mut env = RandomEnv::new(3, EnvConfig::default());
        // Free flow: vp is high every cycle from t=2 on, except the flip.
        for t in 0..10u64 {
            sim.step(&mut env).unwrap();
            if t >= 2 {
                assert_eq!(sim.signals(cout).vp, t != 5, "t={t}");
            }
        }
    }

    #[test]
    fn passive_channel_blocks_backward_propagation() {
        // src -> b1 -> b2 -> snk with killing sink; the b2->snk channel
        // passive: anti-tokens must wait there instead of entering b2.
        let mut net = ElasticNetwork::new("passive");
        let src = net.add_source("src").unwrap();
        let b1 = net.add_eb("b1", false).unwrap();
        let b2 = net.add_eb("b2", false).unwrap();
        let snk = net.add_sink("snk").unwrap();
        let c1 = net.connect(src, 0, b1, 0, "c1").unwrap();
        let c2 = net.connect(b1, 0, b2, 0, "c2").unwrap();
        let c3 = net.connect(b2, 0, snk, 0, "c3").unwrap();
        net.set_passive(c3).unwrap();
        let mut sim = BehavSim::new(&net).unwrap();
        let mut cfg = EnvConfig::default();
        cfg.sources.insert(
            "src".into(),
            SourceCfg {
                rate: 0.3,
                data: DataGen::Const(0),
            },
        );
        cfg.sinks.insert(
            "snk".into(),
            SinkCfg {
                stop_prob: 0.0,
                kill_prob: 0.5,
            },
        );
        let mut env = RandomEnv::new(13, cfg);
        sim.run(&mut env, 2000).unwrap();
        let r = sim.report();
        assert_eq!(r.channel(c2).negative, 0, "no anti-token crosses c2");
        assert_eq!(r.channel(c1).negative, 0);
        assert!(
            r.channel(c3).kills > 100,
            "kills happen at the passive boundary"
        );
        assert_eq!(
            r.channel(c3).negative,
            0,
            "anti-tokens never cross c3 either"
        );
    }
}
