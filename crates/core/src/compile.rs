//! Compilation of elastic networks into gate-level netlists.
//!
//! Every controller is emitted as the gate equations that the behavioural
//! simulator evaluates, so the two back-ends are cycle-equivalent (checked
//! by the co-simulation harness in [`crate::verify`]). The environment is
//! exposed as primary inputs — source offers, sink stops/kills and
//! variable-latency completions are free variables, which is exactly the
//! nondeterministic closure the paper model-checks (Sect. 5).
//!
//! Channel rails become named nets (`<channel>.vp`, `.sp`, `.vn`, `.sn`,
//! `.d<i>`), so simulation probes and CTL atoms can reference any channel.
//! Passive channels get their `S⁻ = ¬V⁺` treatment here: producers see a
//! constant-zero `V⁻` and consumers a `¬V⁺` stop, which lets the optimizer
//! strip the upstream negative rails — the area savings of Table 1's
//! passive rows.

use elastic_netlist::opt::optimize;
use elastic_netlist::{NetId, Netlist};

use crate::channel::ChanId;
use crate::ee::EarlyEval;
use crate::error::CoreError;
use crate::network::{CompId, ComponentKind, ElasticNetwork};

/// One of the three forward/backward handshake rails a fault can target.
///
/// `S⁻` is deliberately not faultable: on passive channels it is a
/// synthesized boundary inverter rather than a controller output, so a
/// fault there would test the compiler's plumbing, not the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultRail {
    /// Forward valid `V⁺`.
    Vp,
    /// Forward stop `S⁺`.
    Sp,
    /// Backward valid `V⁻` (anti-token).
    Vn,
}

impl FaultRail {
    /// Every faultable rail.
    pub const ALL: [FaultRail; 3] = [FaultRail::Vp, FaultRail::Sp, FaultRail::Vn];

    /// Net-name suffix of the rail (`vp`/`sp`/`vn`).
    pub fn label(self) -> &'static str {
        match self {
            FaultRail::Vp => "vp",
            FaultRail::Sp => "sp",
            FaultRail::Vn => "vn",
        }
    }
}

/// A deliberate controller bug injected at compile time — mutation testing
/// for the verification harnesses. A differential harness that cannot
/// detect these faults is not testing anything; the fuzz campaign's
/// negative mode compiles one lowering with a fault and asserts the
/// divergence is caught (`crate::gen`).
///
/// `DropAntiToken` is a *structural* fault: the sabotaged gates are wrong
/// on every cycle. The other variants are *transient* faults: compilation
/// inserts a corruption gate on the targeted rail, controlled by a new
/// primary input `fault.<channel>.<rail>` that the testbench arms for a
/// chosen cycle window — per lane in the packed wide backends, so each of
/// the 512 trials of a word can carry an independent fault instance. The
/// behavioural simulator applies the same corruption by forcing the rail
/// during signal settlement (`crate::sim::BehavSim::inject_process`).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultInjection {
    /// Suppress the anti-token generation (G) gates of the named
    /// early-evaluation join: the join still fires early, but the inputs it
    /// fired without are never sent the anti-token that should kill their
    /// late tokens — the canonical EE-join bug of Sect. 4.3.
    DropAntiToken {
        /// Display name of the join component to sabotage.
        join: String,
    },
    /// Invert the chosen rail while the fault input is armed — the
    /// single-event-upset model (a transient bit flip when armed for one
    /// cycle).
    RailFlip {
        /// Display name of the channel whose rail is corrupted.
        channel: String,
        /// Which rail flips.
        rail: FaultRail,
    },
    /// Force the chosen rail to `value` while the fault input is armed —
    /// stuck-at-0/1 over a cycle window.
    StuckAt {
        /// Display name of the channel whose rail is corrupted.
        channel: String,
        /// Which rail sticks.
        rail: FaultRail,
        /// The stuck value.
        value: bool,
    },
    /// Assert `V⁺` while armed even though the producer offers nothing —
    /// a spurious (duplicated) token materializes on the channel.
    DuplicateToken {
        /// Display name of the channel gaining the token.
        channel: String,
    },
    /// Suppress `V⁺` while armed even though the producer offers a token —
    /// the token is lost in flight.
    LoseToken {
        /// Display name of the channel losing the token.
        channel: String,
    },
}

impl FaultInjection {
    /// The channel a rail-level fault targets (`None` for the structural
    /// `DropAntiToken`).
    pub fn channel(&self) -> Option<&str> {
        match self {
            FaultInjection::DropAntiToken { .. } => None,
            FaultInjection::RailFlip { channel, .. }
            | FaultInjection::StuckAt { channel, .. }
            | FaultInjection::DuplicateToken { channel }
            | FaultInjection::LoseToken { channel } => Some(channel),
        }
    }

    /// The rail a rail-level fault corrupts. Duplicated and lost tokens
    /// are `V⁺` faults.
    pub fn rail(&self) -> Option<FaultRail> {
        match self {
            FaultInjection::DropAntiToken { .. } => None,
            FaultInjection::RailFlip { rail, .. } | FaultInjection::StuckAt { rail, .. } => {
                Some(*rail)
            }
            FaultInjection::DuplicateToken { .. } | FaultInjection::LoseToken { .. } => {
                Some(FaultRail::Vp)
            }
        }
    }

    /// Name of the arming primary input the compiled netlist exposes for
    /// this fault (`None` for `DropAntiToken`, which needs no arming).
    pub fn input_name(&self) -> Option<String> {
        let rail = self.rail()?;
        let channel = self.channel()?;
        Some(format!("fault.{}.{}", sanitize(channel), rail.label()))
    }

    /// Corrupted rail value for a raw (fault-free) rail value and an arm
    /// bit — the behavioural-simulator mirror of the injected gate.
    pub fn corrupt(&self, raw: bool, armed: bool) -> bool {
        if !armed {
            return raw;
        }
        match self {
            FaultInjection::DropAntiToken { .. } => raw,
            FaultInjection::RailFlip { .. } => !raw,
            FaultInjection::StuckAt { value, .. } => *value,
            FaultInjection::DuplicateToken { .. } => true,
            FaultInjection::LoseToken { .. } => false,
        }
    }

    /// Short class label for campaign reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultInjection::DropAntiToken { .. } => "drop_anti_token",
            FaultInjection::RailFlip { .. } => "rail_flip",
            FaultInjection::StuckAt { value: false, .. } => "stuck_at_0",
            FaultInjection::StuckAt { value: true, .. } => "stuck_at_1",
            FaultInjection::DuplicateToken { .. } => "duplicate_token",
            FaultInjection::LoseToken { .. } => "lose_token",
        }
    }
}

/// Options controlling compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Payload width in bits (0 = control only). Guard-driven early joins
    /// need enough bits to cover their guard masks.
    pub data_width: usize,
    /// Give every lazy join a nondeterministic data merge (an extra primary
    /// input steering a mux), as in the paper's Fig. 8(b) data-correctness
    /// testbenches.
    pub nondet_merge: bool,
    /// Run [`elastic_netlist::opt::optimize`] on the emitted netlist before
    /// returning — the paper's "simple logic synthesis techniques" step
    /// (Sect. 6) applied ahead of simulation instead of only for area
    /// reports. Every channel rail is marked as an output first, so all
    /// [`ChannelNets`] survive and are remapped through the optimizer's
    /// net map (a rail may land on a folded constant, e.g. the upstream
    /// `V⁻` of a passive channel). Defaults to `false`, which preserves
    /// the raw gate-for-gate emission.
    pub optimize: bool,
    /// Deliberate faults, for negative tests of the verification harnesses
    /// and for fault campaigns; empty (the default) compiles the faithful
    /// controllers. A [`crate::fault::FaultProcess`] compiles with its
    /// [`sites`](crate::fault::FaultProcess::sites) here (correlated bursts
    /// strike several channels, a Byzantine adversary arms both side rails
    /// of one channel). Each rail site gets its own corruption gate and arm
    /// input, in list order; two sites on the same channel rail are
    /// rejected with [`CoreError::FaultProcess`].
    pub faults: Vec<FaultInjection>,
}

/// Per-channel rail nets of a compiled network.
#[derive(Debug, Clone)]
pub struct ChannelNets {
    /// Forward valid.
    pub vp: NetId,
    /// Forward stop.
    pub sp: NetId,
    /// Backward valid (anti-token).
    pub vn: NetId,
    /// Backward stop.
    pub sn: NetId,
    /// Payload bits (empty when compiled control-only).
    pub data: Vec<NetId>,
}

/// Result of compiling an [`ElasticNetwork`].
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The gate-level netlist. Raw gate-for-gate emission by default; the
    /// optimized rebuild when [`CompileOptions::optimize`] is set (run
    /// [`elastic_netlist::opt::optimize`] yourself for area reports on the
    /// raw form).
    pub netlist: Netlist,
    /// Rail nets per channel, indexed by [`ChanId`]. Under
    /// [`CompileOptions::optimize`] these are already remapped into the
    /// optimized netlist.
    pub channels: Vec<ChannelNets>,
}

/// Sanitizes display names into atom-safe identifiers (alphanumerics and
/// `_`; other characters become `_`).
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The net a producer binds for a given channel rail: the raw shadow wire
/// on a faulted rail (the corruption gate re-drives the public net), the
/// public rail net everywhere else. Multi-site processes register several
/// sites; at most one can match since duplicates are rejected up front.
fn drive_net(
    channels: &[ChannelNets],
    fault_sites: &[(usize, FaultRail, NetId)],
    chan: ChanId,
    rail: FaultRail,
) -> NetId {
    match fault_sites
        .iter()
        .find(|&&(c, r, _)| c == chan.index() && r == rail)
    {
        Some(&(_, _, raw)) => raw,
        None => {
            let ch = &channels[chan.index()];
            match rail {
                FaultRail::Vp => ch.vp,
                FaultRail::Sp => ch.sp,
                FaultRail::Vn => ch.vn,
            }
        }
    }
}

/// Compiles the network.
///
/// # Errors
///
/// Propagates structural errors from [`ElasticNetwork::check`], netlist
/// errors, [`CoreError::FaultSite`] when a [`CompileOptions::faults`] entry
/// names a nonexistent join or channel, and [`CoreError::BadEarlyEval`] when a
/// guard mask does not fit in `opts.data_width` bits.
#[allow(clippy::too_many_lines)]
pub fn compile(net: &ElasticNetwork, opts: &CompileOptions) -> Result<Compiled, CoreError> {
    net.check()?;
    let w = opts.data_width;
    let mut n = Netlist::new(net.name());

    // Allocate the four rails (+ data) of every channel as late-bound wires.
    let mut channels: Vec<ChannelNets> = Vec::with_capacity(net.num_channels());
    for chan in net.channels() {
        let base = sanitize(&net.channel(chan).name);
        let mk = |n: &mut Netlist, rail: &str| -> Result<NetId, CoreError> {
            let id = n.wire();
            n.set_name(id, format!("{base}.{rail}"))?;
            Ok(id)
        };
        let vp = mk(&mut n, "vp")?;
        let sp = mk(&mut n, "sp")?;
        let vn = mk(&mut n, "vn")?;
        let sn = mk(&mut n, "sn")?;
        let data = (0..w)
            .map(|i| mk(&mut n, &format!("d{i}")))
            .collect::<Result<Vec<_>, _>>()?;
        channels.push(ChannelNets {
            vp,
            sp,
            vn,
            sn,
            data,
        });
    }

    // Passive channels: the boundary inverter S⁻ = ¬V⁺ replaces whatever the
    // producer would drive, so producers bind a shadow net instead.
    let mut sn_shadow: Vec<NetId> = Vec::with_capacity(net.num_channels());
    for chan in net.channels() {
        let ch = &channels[chan.index()];
        if net.channel(chan).passive {
            let inv = n.not(ch.vp);
            n.bind_wire(ch.sn, inv)?;
            // Producer's computed sn goes to an unnamed scratch wire.
            sn_shadow.push(n.wire());
        } else {
            sn_shadow.push(ch.sn);
        }
    }

    // Fault-site validation and corruption-gate insertion. A rail fault
    // splices `rail = corrupt(raw, arm)` between the producer and every
    // consumer of the targeted rail: the producer is redirected onto a
    // fresh `raw` wire (via [`drive_net`]) while the public rail — the net
    // all consumers, probes and output marks reference — is bound to the
    // corruption gate, controlled by the new primary input
    // `fault.<channel>.<rail>`. Unknown site names are typed errors, not
    // silent no-ops.
    let mut fault_sites: Vec<(usize, FaultRail, NetId)> = Vec::new();
    for fault in &opts.faults {
        match fault {
            FaultInjection::DropAntiToken { join } => {
                let found = net.components().any(|c| {
                    net.component(c).name == *join
                        && matches!(net.component(c).kind, ComponentKind::Join { .. })
                });
                if !found {
                    return Err(CoreError::FaultSite(format!(
                        "no join component named {join:?} to sabotage"
                    )));
                }
            }
            fault => {
                let site = fault.channel().expect("rail faults name a channel");
                let chan = net
                    .channels()
                    .find(|&c| net.channel(c).name == site)
                    .ok_or_else(|| {
                        CoreError::FaultSite(format!("no channel named {site:?} to corrupt"))
                    })?;
                let rail = fault.rail().expect("rail faults target a rail");
                if fault_sites
                    .iter()
                    .any(|&(c, r, _)| c == chan.index() && r == rail)
                {
                    return Err(CoreError::FaultProcess(format!(
                        "two corruption gates requested on channel {site:?} rail {}: \
                         overlapping windows on one rail must share a single site",
                        rail.label()
                    )));
                }
                let ch = &channels[chan.index()];
                let public = match rail {
                    FaultRail::Vp => ch.vp,
                    FaultRail::Sp => ch.sp,
                    FaultRail::Vn => ch.vn,
                };
                let arm = n.input(fault.input_name().expect("rail faults are armed"));
                let raw = n.wire();
                n.set_name(raw, format!("{}.{}.raw", sanitize(site), rail.label()))?;
                let corrupted = match fault {
                    FaultInjection::RailFlip { .. } => n.xor(raw, arm),
                    FaultInjection::StuckAt { value: true, .. }
                    | FaultInjection::DuplicateToken { .. } => n.or2(raw, arm),
                    FaultInjection::StuckAt { value: false, .. }
                    | FaultInjection::LoseToken { .. } => n.and_not(raw, arm),
                    FaultInjection::DropAntiToken { .. } => unreachable!("handled above"),
                };
                n.bind_wire(public, corrupted)?;
                fault_sites.push((chan.index(), rail, raw));
            }
        }
    }

    let zero = n.constant(false);

    // The V⁻ a producer's backward logic sees: zero on passive channels.
    let backward_vn = |channels: &[ChannelNets], chan: ChanId| -> NetId {
        if net.channel(chan).passive {
            zero
        } else {
            channels[chan.index()].vn
        }
    };

    for comp in net.components() {
        let cname = sanitize(&net.component(comp).name);
        match net.component(comp).kind.clone() {
            ComponentKind::Source => {
                let c = net.output_channel(comp, 0).expect("wired");
                let ch = channels[c.index()].clone();
                let offer = n.input(format!("{cname}.offer"));
                let offering = n.dff(false);
                n.set_name(offering, format!("{cname}.offering"))?;
                let vp = n.or2(offering, offer);
                n.bind_wire(drive_net(&channels, &fault_sites, c, FaultRail::Vp), vp)?;
                let sn = n.not(vp);
                n.bind_wire(sn_shadow[c.index()], sn)?;
                // Hold while retried: vp & sp & !vn.
                let nvn = n.not(ch.vn);
                let hold = n.and([vp, ch.sp, nvn]);
                n.bind_dff(offering, hold)?;
                // Data: captured at the start of an offer, stable during it.
                let start = n.and_not(offer, offering);
                for (i, &dw) in ch.data.iter().enumerate() {
                    let din = n.input(format!("{cname}.din{i}"));
                    let dff = n.dff(false);
                    let dbit = n.mux(start, din, dff);
                    n.bind_dff(dff, dbit)?;
                    n.bind_wire(dw, dbit)?;
                }
            }
            ComponentKind::Sink => {
                let a = net.input_channel(comp, 0).expect("wired");
                let ch = channels[a.index()].clone();
                let stop = n.input(format!("{cname}.stop"));
                let kill = n.input(format!("{cname}.kill"));
                let killing = n.dff(false);
                n.set_name(killing, format!("{cname}.killing"))?;
                let vn = n.or2(killing, kill);
                n.bind_wire(drive_net(&channels, &fault_sites, a, FaultRail::Vn), vn)?;
                let sp = n.and_not(stop, vn);
                n.bind_wire(drive_net(&channels, &fault_sites, a, FaultRail::Sp), sp)?;
                // killing' = vn & !vp & sn (anti-token still unresolved).
                let nvp = n.not(ch.vp);
                let hold = n.and([vn, nvp, ch.sn]);
                n.bind_dff(killing, hold)?;
            }
            ComponentKind::Eb {
                init_token,
                init_data,
            } => {
                // Skid-buffer EB: main/skid token slots (v, vs) and the
                // mirror anti-token slots (nv, nvs). All four rails are
                // driven from flip-flops, so the buffer cuts every
                // combinational path, like the latched V/S of the paper's
                // EHB pair.
                let a = net.input_channel(comp, 0).expect("wired");
                let b = net.output_channel(comp, 0).expect("wired");
                let cha = channels[a.index()].clone();
                let chb = channels[b.index()].clone();
                let v = n.dff(init_token);
                n.set_name(v, format!("{cname}.v"))?;
                let vs = n.dff(false);
                n.set_name(vs, format!("{cname}.vs"))?;
                let nv = n.dff(false);
                n.set_name(nv, format!("{cname}.nv"))?;
                let nvs = n.dff(false);
                n.set_name(nvs, format!("{cname}.nvs"))?;
                let vnb = backward_vn(&channels, b);
                // Rails we produce (all registered).
                n.bind_wire(drive_net(&channels, &fault_sites, b, FaultRail::Vp), v)?;
                n.bind_wire(drive_net(&channels, &fault_sites, a, FaultRail::Sp), vs)?;
                n.bind_wire(drive_net(&channels, &fault_sites, a, FaultRail::Vn), nv)?;
                n.bind_wire(sn_shadow[b.index()], nvs)?;
                // Entries.
                let nvs_not = n.not(vs);
                let nnv = n.not(nv);
                let t_in = n.and([cha.vp, nvs_not, nnv]);
                n.set_name(t_in, format!("{cname}.en"))?;
                n.mark_output(t_in)?;
                let real_sn_b = channels[b.index()].sn;
                let nsn_b = n.not(real_sn_b);
                let not_v = n.not(v);
                let tn_in = n.and([vnb, nsn_b, not_v]);
                let no_tn = n.not(tn_in);
                let t_enter = n.and2(t_in, no_tn);
                let no_t = n.not(t_in);
                let tn_enter = n.and2(tn_in, no_t);
                // Positive slots.
                let nsp_b = n.not(chb.sp);
                let out_gone = n.and2(v, nsp_b);
                let ngone_out = n.not(out_gone);
                let hold_v = n.and2(v, ngone_out);
                let freed = n.or2(not_v, out_gone);
                let from_store = n.or2(vs, t_enter);
                let refill = n.and2(freed, from_store);
                let v_next = n.or2(hold_v, refill);
                n.bind_dff(v, v_next)?;
                let nfreed_not = n.not(freed);
                let vs_owed = n.or2(vs, t_enter);
                let vs_next = n.and2(vs_owed, nfreed_not);
                n.bind_dff(vs, vs_next)?;
                // Negative slots (mirror).
                let nsn_a = n.not(cha.sn);
                let ngone = n.and2(nv, nsn_a);
                let nngone = n.not(ngone);
                let hold_nv = n.and2(nv, nngone);
                let not_nv2 = n.not(nv);
                let nfreed = n.or2(not_nv2, ngone);
                let nfrom = n.or2(nvs, tn_enter);
                let nrefill = n.and2(nfreed, nfrom);
                let nv_next = n.or2(hold_nv, nrefill);
                n.bind_dff(nv, nv_next)?;
                let nnfreed = n.not(nfreed);
                let nvs_owed = n.or2(nvs, tn_enter);
                let nvs_next = n.and2(nvs_owed, nnfreed);
                n.bind_dff(nvs, nvs_next)?;
                // Data registers: main captures from skid or input; skid
                // captures on overflow.
                let take_skid = n.and2(freed, vs);
                let take_in = n.and2(freed, t_enter);
                let skid_cap = n.and2(t_enter, nfreed_not);
                for (i, (&da, &db)) in cha.data.iter().zip(&chb.data).enumerate() {
                    let dmain = n.dff(init_data >> i & 1 == 1);
                    let dskid = n.dff(false);
                    let sk_mux = n.mux(skid_cap, da, dskid);
                    n.bind_dff(dskid, sk_mux)?;
                    let m1 = n.mux(take_in, da, dmain);
                    let m2 = n.mux(take_skid, dskid, m1);
                    n.bind_dff(dmain, m2)?;
                    n.bind_wire(db, dmain)?;
                }
            }
            ComponentKind::Join { inputs, ee } => {
                emit_join(
                    &mut n,
                    net,
                    &channels,
                    &sn_shadow,
                    &fault_sites,
                    comp,
                    inputs,
                    ee.as_ref(),
                    opts,
                )?;
            }
            ComponentKind::Fork { outputs } => {
                let a = net.input_channel(comp, 0).expect("wired");
                let cha = channels[a.index()].clone();
                let outs: Vec<ChanId> = (0..outputs)
                    .map(|i| net.output_channel(comp, i).expect("wired"))
                    .collect();
                let mut dones = Vec::new();
                let mut res = Vec::new();
                let mut vns_gated = Vec::new();
                for (i, &b) in outs.iter().enumerate() {
                    let chb = channels[b.index()].clone();
                    let done = n.dff(false);
                    n.set_name(done, format!("{cname}.done{i}"))?;
                    dones.push(done);
                    let nd = n.not(done);
                    let vp_b = n.and2(cha.vp, nd);
                    n.bind_wire(drive_net(&channels, &fault_sites, b, FaultRail::Vp), vp_b)?;
                    for (&da, &db) in cha.data.iter().zip(&chb.data) {
                        n.bind_wire(db, da)?;
                    }
                    let nsp = n.not(chb.sp);
                    let nvn = n.not(chb.vn);
                    let t = n.and([vp_b, nsp, nvn]);
                    let k = n.and2(vp_b, chb.vn);
                    let r = n.or([done, t, k]);
                    res.push(r);
                    vns_gated.push(backward_vn(&channels, b));
                }
                let all_res = n.and(res.clone());
                let nvp_a = n.not(cha.vp);
                let mut vn_in = vns_gated.clone();
                vn_in.push(nvp_a);
                let vn_a = n.and(vn_in);
                n.bind_wire(drive_net(&channels, &fault_sites, a, FaultRail::Vn), vn_a)?;
                let nall = n.not(all_res);
                let nvn_a = n.not(vn_a);
                let sp_a = n.and2(nall, nvn_a);
                n.bind_wire(drive_net(&channels, &fault_sites, a, FaultRail::Sp), sp_a)?;
                let nsn_a = n.not(cha.sn);
                let consumed_neg = n.and2(vn_a, nsn_a);
                let ncons_neg = n.not(consumed_neg);
                for &b in &outs {
                    let chb = channels[b.index()].clone();
                    let nvp_b = n.not(chb.vp);
                    let sn_b = n.and2(ncons_neg, nvp_b);
                    n.bind_wire(sn_shadow[b.index()], sn_b)?;
                }
                let consumed = n.and2(cha.vp, all_res);
                let ncons = n.not(consumed);
                for (done, r) in dones.iter().zip(&res) {
                    let next = n.and2(*r, ncons);
                    n.bind_dff(*done, next)?;
                }
            }
            ComponentKind::VarLatency => {
                let a = net.input_channel(comp, 0).expect("wired");
                let b = net.output_channel(comp, 0).expect("wired");
                let cha = channels[a.index()].clone();
                let chb = channels[b.index()].clone();
                let finish = n.input(format!("{cname}.finish"));
                let busy = n.dff(false);
                n.set_name(busy, format!("{cname}.busy"))?;
                let done = n.dff(false);
                n.set_name(done, format!("{cname}.done"))?;
                let nbusy = n.not(busy);
                let ndone = n.not(done);
                let idle = n.and2(nbusy, ndone);
                let vnb = backward_vn(&channels, b);
                let vn_a = n.and2(vnb, idle);
                n.bind_wire(drive_net(&channels, &fault_sites, a, FaultRail::Vn), vn_a)?;
                let nsp_b = n.not(chb.sp);
                let out_resolving = n.and2(done, nsp_b);
                let can_accept = n.or2(idle, out_resolving);
                let ncan = n.not(can_accept);
                let nvn_a = n.not(vn_a);
                let sp_a = n.and2(ncan, nvn_a);
                n.bind_wire(drive_net(&channels, &fault_sites, a, FaultRail::Sp), sp_a)?;
                let nsp_a = n.not(sp_a);
                let t_in = n.and([cha.vp, nsp_a, nvn_a]);
                n.set_name(t_in, format!("{cname}.go"))?;
                n.mark_output(t_in)?;
                n.bind_wire(drive_net(&channels, &fault_sites, b, FaultRail::Vp), done)?;
                // sn(b): pass-through resolution when idle, absorb when busy.
                let nsn_a2 = n.not(cha.sn);
                let res_t = n.or2(cha.vp, nsn_a2); // vp_a | !sn_a
                let resolved_a = n.and2(vn_a, res_t);
                let nres = n.not(resolved_a);
                let sn_b = n.and([idle, vnb, nres, ndone]);
                n.bind_wire(sn_shadow[b.index()], sn_b)?;
                // State transitions.
                let nfin = n.not(finish);
                let abort = n.and2(busy, vnb);
                let nabort = n.not(abort);
                let launch_busy = n.and2(t_in, nfin);
                let keep_busy = n.and([busy, nfin, nabort]);
                let busy_next = n.or2(launch_busy, keep_busy);
                n.bind_dff(busy, busy_next)?;
                let launch_done = n.and2(t_in, finish);
                let finish_done = n.and([busy, finish, nabort]);
                let hold_done = n.and2(done, chb.sp);
                let done_next = n.or([launch_done, finish_done, hold_done]);
                n.bind_dff(done, done_next)?;
                // Data pipeline register (identity transform).
                for (&da, &db) in cha.data.iter().zip(&chb.data) {
                    let dff = n.dff(false);
                    let dmux = n.mux(t_in, da, dff);
                    n.bind_dff(dff, dmux)?;
                    n.bind_wire(db, dff)?;
                }
            }
        }
    }

    // Environment interface: mark the rails of channels touching sources and
    // sinks as primary outputs so optimization preserves the interface.
    for comp in net.components() {
        let kind = &net.component(comp).kind;
        let chan = match kind {
            ComponentKind::Source => net.output_channel(comp, 0),
            ComponentKind::Sink => net.input_channel(comp, 0),
            _ => continue,
        }
        .expect("wired");
        let ch = channels[chan.index()].clone();
        for rail in [ch.vp, ch.sp, ch.vn, ch.sn] {
            n.mark_output(rail)?;
        }
        for &d in &ch.data {
            n.mark_output(d)?;
        }
    }

    let compiled = Compiled {
        netlist: n,
        channels,
    };
    if opts.optimize {
        return optimize_compiled(compiled);
    }
    Ok(compiled)
}

/// Optimizes a freshly compiled netlist and remaps every channel rail
/// through the old→new net map. All rails are marked as outputs first so
/// none can be dropped by dead-code elimination — constant folding still
/// strips the logic *behind* a rail that settles to a constant, which is
/// where the lazy/passive configurations shed their counterflow gates.
fn optimize_compiled(compiled: Compiled) -> Result<Compiled, CoreError> {
    let mut nl = compiled.netlist;
    for ch in &compiled.channels {
        for r in [ch.vp, ch.sp, ch.vn, ch.sn] {
            nl.mark_output(r)?;
        }
        for &d in &ch.data {
            nl.mark_output(d)?;
        }
    }
    let (opt, map) = optimize(&nl)?;
    let remap = |id: NetId| -> Result<NetId, CoreError> {
        map[id.index()].ok_or_else(|| {
            CoreError::Netlist(format!("channel rail {id} lost during optimization"))
        })
    };
    let channels = compiled
        .channels
        .iter()
        .map(|ch| {
            Ok(ChannelNets {
                vp: remap(ch.vp)?,
                sp: remap(ch.sp)?,
                vn: remap(ch.vn)?,
                sn: remap(ch.sn)?,
                data: ch
                    .data
                    .iter()
                    .map(|&d| remap(d))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect::<Result<Vec<_>, CoreError>>()?;
    Ok(Compiled {
        netlist: opt,
        channels,
    })
}

/// Emits a join (lazy or early-evaluation) controller.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn emit_join(
    n: &mut Netlist,
    net: &ElasticNetwork,
    channels: &[ChannelNets],
    sn_shadow: &[NetId],
    fault_sites: &[(usize, FaultRail, NetId)],
    comp: CompId,
    inputs: usize,
    ee: Option<&EarlyEval>,
    opts: &CompileOptions,
) -> Result<(), CoreError> {
    let cname = sanitize(&net.component(comp).name);
    let ins: Vec<ChanId> = (0..inputs)
        .map(|i| net.input_channel(comp, i).expect("wired"))
        .collect();
    let b = net.output_channel(comp, 0).expect("wired");
    let chb = channels[b.index()].clone();
    let vn_b = if net.channel(b).passive {
        None
    } else {
        Some(chb.vn)
    };

    // Pending anti-token flip-flops, one per input (the FFs of Fig. 6).
    let pend: Vec<NetId> = (0..inputs)
        .map(|i| {
            let p = n.dff(false);
            n.set_name(p, format!("{cname}.pend{i}")).map(|()| p)
        })
        .collect::<Result<_, _>>()?;
    let vpeff: Vec<NetId> = ins
        .iter()
        .zip(&pend)
        .map(|(&a, &p)| {
            let np = n.not(p);
            n.and2(channels[a.index()].vp, np)
        })
        .collect();
    let any_pend = n.or(pend.clone());

    // Enabling function: conventional AND or the EE block of Fig. 6(c).
    let enable = match ee {
        None => n.and(vpeff.clone()),
        Some(f) => {
            // Guard bits come from the guard channel's payload.
            let guard_bits = channels[ins[f.guard_input].index()].data.clone();
            let max_bit = f
                .terms
                .iter()
                .map(|t| 64 - t.guard_mask.leading_zeros() as usize)
                .max()
                .unwrap_or(0);
            if max_bit > guard_bits.len() {
                return Err(CoreError::BadEarlyEval(format!(
                    "guard mask needs {max_bit} data bits, compiled width is {}",
                    guard_bits.len()
                )));
            }
            let mut terms = Vec::new();
            for t in &f.terms {
                let mut conj = vec![vpeff[f.guard_input]];
                for (i, &gb) in guard_bits.iter().enumerate() {
                    if t.guard_mask >> i & 1 == 1 {
                        if t.guard_value >> i & 1 == 1 {
                            conj.push(gb);
                        } else {
                            conj.push(n.not(gb));
                        }
                    }
                }
                for &r in &t.required {
                    conj.push(vpeff[r]);
                }
                terms.push(n.and(conj));
            }
            n.or(terms)
        }
    };
    let npend = n.not(any_pend);
    let vp_b = n.and2(enable, npend);
    n.bind_wire(drive_net(channels, fault_sites, b, FaultRail::Vp), vp_b)?;
    let nsp_b = n.not(chb.sp);
    let fire = n.and2(vp_b, nsp_b);
    let nvp_b = n.not(vp_b);
    let vn_b_net = vn_b.unwrap_or_else(|| n.constant(false));
    let absorb = n.and([vn_b_net, nvp_b, npend]);
    let nabsorb = n.not(absorb);
    let sn_b = n.and2(nabsorb, nvp_b);
    n.bind_wire(sn_shadow[b.index()], sn_b)?;

    // Fault injection: a sabotaged join keeps firing early but never
    // raises its G gates, so late inputs are never killed.
    let drop_anti = opts.faults.iter().any(
        |f| matches!(f, FaultInjection::DropAntiToken { join } if *join == net.component(comp).name),
    );
    let nfire = n.not(fire);
    for (i, &a) in ins.iter().enumerate() {
        let cha = channels[a.index()].clone();
        let nveff = n.not(vpeff[i]);
        let g = if drop_anti {
            n.constant(false)
        } else {
            n.and2(fire, nveff)
        };
        let vn_a = n.or2(pend[i], g);
        n.bind_wire(drive_net(channels, fault_sites, a, FaultRail::Vn), vn_a)?;
        let nvn_a = n.not(vn_a);
        let sp_a = n.and2(nfire, nvn_a);
        n.bind_wire(drive_net(channels, fault_sites, a, FaultRail::Sp), sp_a)?;
        // pend' = (pend | G | absorb) & !resolved.
        let nsn_a = n.not(cha.sn);
        let res_t = n.or2(cha.vp, nsn_a);
        let resolved = n.and2(vn_a, res_t);
        let nres = n.not(resolved);
        let owed = n.or([pend[i], g, absorb]);
        let pnext = n.and2(owed, nres);
        n.bind_dff(pend[i], pnext)?;
    }

    // Output payload: priority mux over the EE terms, or a (possibly
    // nondeterministic) merge for lazy joins.
    if opts.data_width > 0 {
        let datas: Vec<Vec<NetId>> = ins
            .iter()
            .map(|&a| channels[a.index()].data.clone())
            .collect();
        let out_bits: Vec<NetId> = match ee {
            Some(f) => {
                // Term-match signals (guard pattern only) drive a priority
                // data mux; validity is already folded into vp_b.
                let guard_bits = channels[ins[f.guard_input].index()].data.clone();
                let mut bits = Vec::new();
                #[allow(clippy::needless_range_loop)] // bit indexes several parallel vectors
                for bit in 0..opts.data_width {
                    let mut expr = datas[f.terms.last().expect("nonempty").select][bit];
                    for t in f.terms.iter().rev().skip(1) {
                        let mut conj = Vec::new();
                        for (i, &gb) in guard_bits.iter().enumerate() {
                            if t.guard_mask >> i & 1 == 1 {
                                if t.guard_value >> i & 1 == 1 {
                                    conj.push(gb);
                                } else {
                                    conj.push(n.not(gb));
                                }
                            }
                        }
                        let m = n.and(conj);
                        expr = n.mux(m, datas[t.select][bit], expr);
                    }
                    bits.push(expr);
                }
                bits
            }
            None => {
                if opts.nondet_merge && inputs > 1 {
                    // Chain of nondeterministic 2:1 merges (Fig. 8(b)).
                    let mut acc = datas[0].clone();
                    for (i, d) in datas.iter().enumerate().skip(1) {
                        let pick = n.input(format!("{cname}.merge{i}"));
                        acc = acc
                            .iter()
                            .zip(d)
                            .map(|(&x, &y)| n.mux(pick, y, x))
                            .collect();
                    }
                    acc
                } else {
                    datas[0].clone()
                }
            }
        };
        for (&dw, &ob) in chb.data.iter().zip(&out_bits) {
            n.bind_wire(dw, ob)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elastic_netlist::area::AreaReport;
    use elastic_netlist::opt::optimize;
    use elastic_netlist::sim::Simulator;

    fn pipeline() -> (ElasticNetwork, ChanId, ChanId) {
        let mut net = ElasticNetwork::new("lin");
        let src = net.add_source("src").unwrap();
        let eb = net.add_buffer("eb", 2, 0).unwrap();
        let snk = net.add_sink("snk").unwrap();
        let cin = net.connect(src, 0, eb, 0, "cin").unwrap();
        let cout = net.connect(eb, 0, snk, 0, "cout").unwrap();
        (net, cin, cout)
    }

    #[test]
    fn compiles_and_simulates_pipeline() {
        let (net, _cin, _cout) = pipeline();
        let compiled = compile(&net, &CompileOptions::default()).unwrap();
        let nl = &compiled.netlist;
        let mut sim = Simulator::new(nl).unwrap();
        let offer = nl.find("src.offer").unwrap();
        let stop = nl.find("snk.stop").unwrap();
        let kill = nl.find("snk.kill").unwrap();
        let vp_out = nl.find("cout.vp").unwrap();
        // Always offer, never stop: after two cycles tokens stream out.
        let mut seen = 0;
        for _ in 0..10 {
            sim.cycle(&[(offer, true), (stop, false), (kill, false)])
                .unwrap();
            if sim.value(vp_out) {
                seen += 1;
            }
        }
        assert!(seen >= 8, "tokens flow: {seen}");
    }

    #[test]
    fn backpressure_in_gates() {
        let (net, cin, _) = pipeline();
        let compiled = compile(&net, &CompileOptions::default()).unwrap();
        let nl = &compiled.netlist;
        let mut sim = Simulator::new(nl).unwrap();
        let offer = nl.find("src.offer").unwrap();
        let stop = nl.find("snk.stop").unwrap();
        let sp_in = compiled.channels[cin.index()].sp;
        for _ in 0..6 {
            sim.cycle(&[(offer, true), (stop, true)]).unwrap();
        }
        assert!(sim.value(sp_in), "capacity-2 buffer full, input stopped");
    }

    #[test]
    fn optimization_strips_dead_negative_rails() {
        // Making the output channel passive cuts backward propagation, so
        // the nv flip-flops upstream die and area shrinks.
        let (net, _, cout) = pipeline();
        let mut passive_net = net.clone();
        passive_net.set_passive(cout).unwrap();
        let full = compile(&net, &CompileOptions::default()).unwrap();
        let pass = compile(&passive_net, &CompileOptions::default()).unwrap();
        let (full_opt, _) = optimize(&full.netlist).unwrap();
        let (pass_opt, _) = optimize(&pass.netlist).unwrap();
        let a_full = AreaReport::of(&full_opt);
        let a_pass = AreaReport::of(&pass_opt);
        assert!(
            a_pass.flipflops < a_full.flipflops,
            "passive {a_pass} vs active {a_full}"
        );
        assert!(a_pass.literals < a_full.literals);
    }

    #[test]
    fn join_controller_compiles() {
        let mut net = ElasticNetwork::new("join");
        let s1 = net.add_source("s1").unwrap();
        let s2 = net.add_source("s2").unwrap();
        let j = net.add_join("j", 2).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(s1, 0, j, 0, "a1").unwrap();
        net.connect(s2, 0, j, 1, "a2").unwrap();
        net.connect(j, 0, snk, 0, "out").unwrap();
        let compiled = compile(&net, &CompileOptions::default()).unwrap();
        let nl = &compiled.netlist;
        let mut sim = Simulator::new(nl).unwrap();
        let o1 = nl.find("s1.offer").unwrap();
        let o2 = nl.find("s2.offer").unwrap();
        let vp = nl.find("out.vp").unwrap();
        sim.cycle(&[(o1, true), (o2, false)]).unwrap();
        assert!(!sim.value(vp), "lazy join waits");
        sim.cycle(&[(o1, true), (o2, true)]).unwrap();
        assert!(sim.value(vp), "fires when both valid");
    }

    #[test]
    fn guard_mask_must_fit_data_width() {
        use crate::ee::{EarlyEval, EeTerm};
        let build = || {
            let mut net = ElasticNetwork::new("ej");
            let g = net.add_source("g").unwrap();
            let s = net.add_source("s").unwrap();
            let ee = EarlyEval::new(
                0,
                vec![EeTerm {
                    guard_mask: 0b100,
                    guard_value: 0b100,
                    required: vec![1],
                    select: 1,
                }],
            );
            let j = net.add_early_join("j", 2, ee).unwrap();
            let snk = net.add_sink("snk").unwrap();
            net.connect(g, 0, j, 0, "cg").unwrap();
            net.connect(s, 0, j, 1, "cs").unwrap();
            net.connect(j, 0, snk, 0, "out").unwrap();
            net
        };
        let err = compile(
            &build(),
            &CompileOptions {
                data_width: 1,
                ..CompileOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::BadEarlyEval(_)));
        compile(
            &build(),
            &CompileOptions {
                data_width: 3,
                ..CompileOptions::default()
            },
        )
        .unwrap();
    }

    #[test]
    fn data_travels_through_compiled_pipeline() {
        let (net, _cin, _cout) = pipeline();
        let compiled = compile(
            &net,
            &CompileOptions {
                data_width: 1,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let nl = &compiled.netlist;
        let mut sim = Simulator::new(nl).unwrap();
        let offer = nl.find("src.offer").unwrap();
        let din = nl.find("src.din0").unwrap();
        let vp = nl.find("cout.vp").unwrap();
        let dout = nl.find("cout.d0").unwrap();
        // Alternate payloads; collect what arrives.
        let mut sent = Vec::new();
        let mut got = Vec::new();
        for t in 0..12u64 {
            let bit = t % 2 == 0;
            sim.cycle(&[(offer, true), (din, bit)]).unwrap();
            sent.push(bit);
            if sim.value(vp) {
                got.push(sim.value(dout));
            }
        }
        assert!(got.len() >= 10);
        for (i, &g) in got.iter().enumerate() {
            assert_eq!(g, sent[i], "payload order preserved at {i}");
        }
    }

    #[test]
    fn exports_work_on_compiled_controllers() {
        let (net, _, _) = pipeline();
        let compiled = compile(&net, &CompileOptions::default()).unwrap();
        let v = elastic_netlist::export::to_verilog(&compiled.netlist).unwrap();
        assert!(v.contains("module lin"));
        let smv = elastic_netlist::export::to_smv(&compiled.netlist).unwrap();
        assert!(smv.contains("MODULE main"));
        let blif = elastic_netlist::export::to_blif(&compiled.netlist).unwrap();
        assert!(blif.contains(".model lin"));
    }
}
