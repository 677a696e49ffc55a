//! Elastic networks: components wired by dual channels.
//!
//! A network is the control-layer view of an elastic system: sources and
//! sinks abstract the environment, elastic half-buffer stages provide
//! storage, joins/forks synchronize flows, early-evaluation joins generate
//! anti-tokens, and variable-latency units wrap multi-cycle datapath blocks
//! behind a go/done/ack handshake.
//!
//! The same network drives both back-ends: the reference behavioural
//! simulator ([`crate::sim`]) and the gate-level compiler
//! ([`crate::compile`]).

use std::collections::HashMap;
use std::fmt;

use crate::channel::ChanId;
use crate::ee::EarlyEval;
use crate::error::CoreError;

/// Identifier of a component in an [`ElasticNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompId(pub(crate) u32);

impl CompId {
    /// Dense index of this component.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// The kind (and static parameters) of a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentKind {
    /// Environment producer: offers tokens on its single output channel
    /// according to the environment policy; absorbs anti-tokens passively
    /// (`S⁻ = ¬V⁺`), annihilating them against its own pending tokens.
    Source,
    /// Environment consumer on a single input channel: accepts or stalls
    /// tokens and may emit anti-tokens (kills) per the environment policy.
    Sink,
    /// Elastic buffer (EB): forward latency one cycle, capacity two tokens
    /// *or* two anti-tokens, with both stop rails registered — the
    /// flip-flop equivalent of the paper's pair of elastic half-buffers,
    /// whose latched V and S signals cut every combinational path
    /// (Sect. 4, Fig. 5).
    Eb {
        /// Whether the buffer powers up holding one token.
        init_token: bool,
        /// Payload of the initial token.
        init_data: u64,
    },
    /// Join: `inputs` input channels, one output. `ee = None` is the lazy
    /// join (fires when all inputs are valid); `Some` is the
    /// early-evaluation join of Fig. 6(c), which generates anti-tokens on
    /// the inputs it fired without.
    Join {
        /// Number of input channels.
        inputs: usize,
        /// Optional early-evaluation function.
        ee: Option<EarlyEval>,
    },
    /// Eager fork: one input, `outputs` output channels. Each output fires
    /// as soon as its consumer is ready; per-output flip-flops remember who
    /// already took the current token (Fig. 4(b)/6(b)).
    Fork {
        /// Number of output channels.
        outputs: usize,
    },
    /// Variable-latency unit (Fig. 7(b)): one input, one output, go/done/ack
    /// handshake around a multi-cycle computation whose latency is drawn by
    /// the environment policy. A busy unit annihilates an arriving
    /// anti-token against its in-flight token; an idle unit lets anti-tokens
    /// flow through backwards.
    VarLatency,
}

impl ComponentKind {
    /// Number of input ports.
    pub fn num_inputs(&self) -> usize {
        match self {
            ComponentKind::Source => 0,
            ComponentKind::Sink | ComponentKind::Eb { .. } | ComponentKind::VarLatency => 1,
            ComponentKind::Join { inputs, .. } => *inputs,
            ComponentKind::Fork { .. } => 1,
        }
    }

    /// Number of output ports.
    pub fn num_outputs(&self) -> usize {
        match self {
            ComponentKind::Sink => 0,
            ComponentKind::Source | ComponentKind::Eb { .. } | ComponentKind::VarLatency => 1,
            ComponentKind::Join { .. } => 1,
            ComponentKind::Fork { outputs } => *outputs,
        }
    }

    /// Whether every combinational rail (forward valid *and* both backward
    /// stop rails) is registered through this component. Only elastic
    /// buffers cut all of them; variable-latency units register V⁺ but pass
    /// the stop rails through, and joins/forks are fully combinational —
    /// so every cycle of the network must contain an [`ComponentKind::Eb`].
    pub fn cuts_forward_path(&self) -> bool {
        matches!(
            self,
            ComponentKind::Source | ComponentKind::Sink | ComponentKind::Eb { .. }
        )
    }

    /// Whether no token-free cycle passes through this component: a
    /// buffer holding an initial token puts a token on every cycle through
    /// it, and sources and sinks lie on no cycle. The token-liveness check
    /// ([`ElasticNetwork::check_token_liveness`]) looks for a cycle avoiding
    /// all of them.
    pub fn cuts_token_free_path(&self) -> bool {
        matches!(
            self,
            ComponentKind::Source
                | ComponentKind::Sink
                | ComponentKind::Eb {
                    init_token: true,
                    ..
                }
        )
    }
}

/// A component instance: kind plus display name.
#[derive(Debug, Clone)]
pub struct Component {
    /// Static parameters.
    pub kind: ComponentKind,
    /// Display name (used in diagnostics, stats and compiled net names).
    pub name: String,
}

/// A channel instance.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Display name.
    pub name: String,
    /// Producing component and its output-port index.
    pub from: (CompId, usize),
    /// Consuming component and its input-port index.
    pub to: (CompId, usize),
    /// Whether the channel uses the passive anti-token interface of
    /// Fig. 7(a): anti-tokens are stopped at this boundary (`S⁻ = ¬V⁺`) and
    /// wait for a token to kill instead of propagating further upstream.
    pub passive: bool,
}

/// An elastic control network.
///
/// Build with the `add_*` methods and [`ElasticNetwork::connect`], then
/// validate with [`ElasticNetwork::check`] (the simulator and compiler call
/// it for you).
///
/// # Example
///
/// ```
/// use elastic_core::network::ElasticNetwork;
///
/// # fn main() -> Result<(), elastic_core::CoreError> {
/// let mut net = ElasticNetwork::new("pipeline");
/// let src = net.add_source("src")?;
/// let b = net.add_buffer("b", 2, 1)?; // one EB (2 stages), one initial token
/// let snk = net.add_sink("snk")?;
/// net.connect(src, 0, b, 0, "in")?;
/// net.connect(b, 0, snk, 0, "out")?;
/// net.check()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ElasticNetwork {
    name: String,
    components: Vec<Component>,
    channels: Vec<Channel>,
    /// For each component: input-port -> channel (filled by `connect`).
    in_conn: Vec<Vec<Option<ChanId>>>,
    /// For each component: output-port -> channel.
    out_conn: Vec<Vec<Option<ChanId>>>,
    /// `(first stage, last stage)` pairs of buffer chains, so that
    /// connecting *from* a chain's handle attaches to its last stage.
    buffer_alias: Vec<(CompId, CompId)>,
    /// Component name -> id. Enforces name uniqueness at `add` time and
    /// makes `component_by_name` O(1).
    name_index: HashMap<String, u32>,
}

impl ElasticNetwork {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        ElasticNetwork {
            name: name.into(),
            components: Vec::new(),
            channels: Vec::new(),
            in_conn: Vec::new(),
            out_conn: Vec::new(),
            buffer_alias: Vec::new(),
            name_index: HashMap::new(),
        }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a component of arbitrary kind.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] if a component with the same name
    /// already exists: names key [`ElasticNetwork::component_by_name`] and
    /// the sanitized identifiers of the Verilog/BLIF exporters, so they
    /// must be unique per network.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        kind: ComponentKind,
    ) -> Result<CompId, CoreError> {
        let name = name.into();
        if self.name_index.contains_key(&name) {
            return Err(CoreError::DuplicateName(name));
        }
        let id = CompId(self.components.len() as u32);
        self.in_conn.push(vec![None; kind.num_inputs()]);
        self.out_conn.push(vec![None; kind.num_outputs()]);
        self.name_index.insert(name.clone(), id.0);
        self.components.push(Component { kind, name });
        Ok(id)
    }

    /// Adds an environment source.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn add_source(&mut self, name: impl Into<String>) -> Result<CompId, CoreError> {
        self.add(name, ComponentKind::Source)
    }

    /// Adds an environment sink.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn add_sink(&mut self, name: impl Into<String>) -> Result<CompId, CoreError> {
        self.add(name, ComponentKind::Sink)
    }

    /// Adds a single elastic buffer (capacity 2, latency 1).
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn add_eb(
        &mut self,
        name: impl Into<String>,
        init_token: bool,
    ) -> Result<CompId, CoreError> {
        self.add(
            name,
            ComponentKind::Eb {
                init_token,
                init_data: 0,
            },
        )
    }

    /// Adds a chain of `stages` elastic buffers carrying `tokens` initial
    /// tokens, placed in the downstream-most buffers like the paper's
    /// initialized EBs.
    ///
    /// The stages are separate `Eb` components named `<name>.<i>` and wired
    /// internally. The returned handle stands for the whole chain when
    /// passed to [`ElasticNetwork::connect`]: connecting *to* it attaches to
    /// the first stage's input; connecting *from* it attaches to the last
    /// stage's output.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] if any stage name `<name>.<i>` clashes.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0` or `tokens > stages`.
    pub fn add_buffer(
        &mut self,
        name: impl Into<String>,
        stages: usize,
        tokens: usize,
    ) -> Result<CompId, CoreError> {
        let name = name.into();
        assert!(stages > 0, "buffer needs at least one stage");
        assert!(tokens <= stages, "one initial token per stage at most");
        let mut ids = Vec::with_capacity(stages);
        for i in 0..stages {
            // Fill tokens from the output end (stages count down).
            let holds = i >= stages - tokens;
            let id = self.add(
                format!("{name}.{i}"),
                ComponentKind::Eb {
                    init_token: holds,
                    init_data: 0,
                },
            )?;
            ids.push(id);
        }
        for w in ids.windows(2) {
            self.connect(w[0], 0, w[1], 0, format!("{name}.int{}", w[0].0))
                .expect("fresh ports cannot clash");
        }
        // Alias bookkeeping: input = first stage, output = last stage.
        self.buffer_alias
            .push((ids[0], *ids.last().expect("non-empty")));
        Ok(ids[0])
    }

    /// Adds a lazy join with `inputs` inputs.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn add_join(
        &mut self,
        name: impl Into<String>,
        inputs: usize,
    ) -> Result<CompId, CoreError> {
        self.add(name, ComponentKind::Join { inputs, ee: None })
    }

    /// Adds an early-evaluation join.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::BadEarlyEval`] from validation, and
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn add_early_join(
        &mut self,
        name: impl Into<String>,
        inputs: usize,
        ee: EarlyEval,
    ) -> Result<CompId, CoreError> {
        ee.validate(inputs)?;
        self.add(
            name,
            ComponentKind::Join {
                inputs,
                ee: Some(ee),
            },
        )
    }

    /// Adds an eager fork with `outputs` outputs.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn add_fork(
        &mut self,
        name: impl Into<String>,
        outputs: usize,
    ) -> Result<CompId, CoreError> {
        self.add(name, ComponentKind::Fork { outputs })
    }

    /// Adds a variable-latency unit.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn add_var_latency(&mut self, name: impl Into<String>) -> Result<CompId, CoreError> {
        self.add(name, ComponentKind::VarLatency)
    }

    /// Connects output port `out_port` of `from` to input port `in_port` of
    /// `to` with a fresh channel.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadPort`] if a port index is out of range or already
    /// connected; [`CoreError::UnknownComponent`] for bad ids.
    pub fn connect(
        &mut self,
        from: CompId,
        out_port: usize,
        to: CompId,
        in_port: usize,
        name: impl Into<String>,
    ) -> Result<ChanId, CoreError> {
        let from = self.resolve_out(from);
        let to = self.resolve_in(to);
        self.check_comp(from)?;
        self.check_comp(to)?;
        let out_slot = self
            .out_conn
            .get_mut(from.index())
            .and_then(|v| v.get_mut(out_port))
            .ok_or(CoreError::BadPort {
                comp: from,
                port: out_port,
                input: false,
            })?;
        if out_slot.is_some() {
            return Err(CoreError::BadPort {
                comp: from,
                port: out_port,
                input: false,
            });
        }
        let id = ChanId(self.channels.len() as u32);
        *out_slot = Some(id);
        let in_slot = self
            .in_conn
            .get_mut(to.index())
            .and_then(|v| v.get_mut(in_port))
            .ok_or(CoreError::BadPort {
                comp: to,
                port: in_port,
                input: true,
            })?;
        if in_slot.is_some() {
            // roll back the output slot
            self.out_conn[from.index()][out_port] = None;
            return Err(CoreError::BadPort {
                comp: to,
                port: in_port,
                input: true,
            });
        }
        *in_slot = Some(id);
        self.channels.push(Channel {
            name: name.into(),
            from: (from, out_port),
            to: (to, in_port),
            passive: false,
        });
        Ok(id)
    }

    /// Marks a channel as using the passive anti-token interface
    /// (Fig. 7(a)).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownChannel`] for a bad id.
    pub fn set_passive(&mut self, chan: ChanId) -> Result<(), CoreError> {
        self.channels
            .get_mut(chan.index())
            .ok_or(CoreError::UnknownChannel(chan))?
            .passive = true;
        Ok(())
    }

    /// Number of components (buffer chains count one component per stage).
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Number of channels.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Component metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn component(&self, id: CompId) -> &Component {
        &self.components[id.index()]
    }

    /// Channel metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn channel(&self, id: ChanId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Iterator over component ids.
    pub fn components(&self) -> impl ExactSizeIterator<Item = CompId> + '_ {
        (0..self.components.len() as u32).map(CompId)
    }

    /// Iterator over channel ids.
    pub fn channels(&self) -> impl ExactSizeIterator<Item = ChanId> + '_ {
        (0..self.channels.len() as u32).map(ChanId)
    }

    /// Looks up a component by name. Names are unique (enforced by
    /// [`ElasticNetwork::add`]), so this is an O(1) index lookup.
    pub fn component_by_name(&self, name: &str) -> Option<CompId> {
        self.name_index.get(name).map(|&i| CompId(i))
    }

    /// Looks up a channel by name (first match).
    pub fn channel_by_name(&self, name: &str) -> Option<ChanId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(|i| ChanId(i as u32))
    }

    /// Channel connected to an input port, if wired.
    pub fn input_channel(&self, comp: CompId, port: usize) -> Option<ChanId> {
        self.in_conn
            .get(comp.index())
            .and_then(|v| v.get(port))
            .copied()
            .flatten()
    }

    /// Channel connected to an output port, if wired.
    pub fn output_channel(&self, comp: CompId, port: usize) -> Option<ChanId> {
        self.out_conn
            .get(comp.index())
            .and_then(|v| v.get(port))
            .copied()
            .flatten()
    }

    /// Sets the power-up token of an elastic buffer.
    ///
    /// Used by the liveness lint's sabotage tests and the fuzzer's
    /// negative oracle to derive token-starved variants of a network
    /// without rebuilding it.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownComponent`] for a bad id,
    /// [`CoreError::NotABuffer`] if the component is not an
    /// [`ComponentKind::Eb`].
    pub fn set_init_token(&mut self, id: CompId, token: bool) -> Result<(), CoreError> {
        self.check_comp(id)?;
        match &mut self.components[id.index()].kind {
            ComponentKind::Eb { init_token, .. } => {
                *init_token = token;
                Ok(())
            }
            _ => Err(CoreError::NotABuffer(id)),
        }
    }

    /// Validates the network: all ports wired, and no buffer-free cycle.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnconnectedPort`] or [`CoreError::BufferlessCycle`].
    pub fn check(&self) -> Result<(), CoreError> {
        for comp in self.components() {
            for (port, slot) in self.in_conn[comp.index()].iter().enumerate() {
                if slot.is_none() {
                    return Err(CoreError::UnconnectedPort {
                        comp,
                        port,
                        input: true,
                    });
                }
            }
            for (port, slot) in self.out_conn[comp.index()].iter().enumerate() {
                if slot.is_none() {
                    return Err(CoreError::UnconnectedPort {
                        comp,
                        port,
                        input: false,
                    });
                }
            }
        }
        // Cycle check over pass-through (non-registering) components.
        self.check_bufferless_cycles()
    }

    fn check_bufferless_cycles(&self) -> Result<(), CoreError> {
        match self.find_uncut_cycle(ComponentKind::cuts_forward_path) {
            Some(cycle) => Err(CoreError::BufferlessCycle(self.names(&cycle))),
            None => Ok(()),
        }
    }

    /// Checks the token-liveness obligation of paper Sect. 2: every
    /// directed cycle of the network must carry at least one initial token,
    /// or the components on it wait on each other forever. A cycle carries
    /// a token exactly when it passes through an [`ComponentKind::Eb`] with
    /// `init_token` set, so the check looks for a cycle avoiding all of
    /// them. Unlike [`ElasticNetwork::check`] this does not require all
    /// ports to be wired — it is usable mid-construction, and lint E101 of
    /// `elastic_lint` runs the same search.
    ///
    /// # Errors
    ///
    /// [`CoreError::TokenStarvedCycle`] with the component names of a
    /// token-free cycle.
    pub fn check_token_liveness(&self) -> Result<(), CoreError> {
        match self.find_uncut_cycle(ComponentKind::cuts_token_free_path) {
            Some(cycle) => Err(CoreError::TokenStarvedCycle(self.names(&cycle))),
            None => Ok(()),
        }
    }

    /// The payload bits the early-evaluation guards read: the bit count of
    /// the widest guard mask of any early-evaluation join (the EE block of
    /// Fig. 6(c) reads bits of its guard channel's payload), 0 when the
    /// network has none. [`crate::compile::compile`] always emits at least
    /// this many payload bits per channel, so a control simulation needs
    /// no width of its own.
    pub fn required_data_width(&self) -> usize {
        self.components
            .iter()
            .filter_map(|c| match &c.kind {
                ComponentKind::Join { ee: Some(f), .. } => Some(&f.terms),
                _ => None,
            })
            .flatten()
            .map(|t| 64 - t.guard_mask.leading_zeros() as usize)
            .max()
            .unwrap_or(0)
    }

    /// The names of `comps`, in order.
    fn names(&self, comps: &[CompId]) -> Vec<String> {
        comps
            .iter()
            .map(|c| self.components[c.index()].name.clone())
            .collect()
    }

    /// Finds one directed cycle avoiding every component for which `cuts`
    /// is true, returning the components on it in path order. DFS over
    /// components in id order, following output ports in port order, where
    /// only non-cutting components propagate the path. Unwired output
    /// ports simply end the path, so the search is usable before
    /// [`ElasticNetwork::check`] — the lint passes of `elastic_lint` run it
    /// on networks in any state of construction.
    pub fn find_uncut_cycle(&self, cuts: impl Fn(&ComponentKind) -> bool) -> Option<Vec<CompId>> {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.components.len();
        let mut colour = vec![WHITE; n];
        for start in 0..n {
            if colour[start] != WHITE || cuts(&self.components[start].kind) {
                continue;
            }
            let mut stack = vec![(start, 0usize)];
            let mut path = vec![start];
            colour[start] = GREY;
            while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
                let outs = &self.out_conn[v];
                if *cursor < outs.len() {
                    let Some(chan) = outs[*cursor] else {
                        *cursor += 1;
                        continue;
                    };
                    *cursor += 1;
                    let w = self.channels[chan.index()].to.0.index();
                    if cuts(&self.components[w].kind) {
                        continue;
                    }
                    match colour[w] {
                        WHITE => {
                            colour[w] = GREY;
                            stack.push((w, 0));
                            path.push(w);
                        }
                        GREY => {
                            let pos = path.iter().position(|&p| p == w).expect("on path");
                            return Some(path[pos..].iter().map(|&p| CompId(p as u32)).collect());
                        }
                        _ => {}
                    }
                } else {
                    colour[v] = BLACK;
                    stack.pop();
                    path.pop();
                }
            }
        }
        None
    }

    fn check_comp(&self, id: CompId) -> Result<(), CoreError> {
        if id.index() >= self.components.len() {
            return Err(CoreError::UnknownComponent(id));
        }
        Ok(())
    }

    fn resolve_out(&self, id: CompId) -> CompId {
        for &(first, last) in &self.buffer_alias {
            if id == first {
                return last;
            }
        }
        id
    }

    fn resolve_in(&self, id: CompId) -> CompId {
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_linear_pipeline() {
        let mut net = ElasticNetwork::new("lin");
        let src = net.add_source("src").unwrap();
        let b1 = net.add_eb("b1", true).unwrap();
        let b2 = net.add_eb("b2", false).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, b1, 0, "c0").unwrap();
        net.connect(b1, 0, b2, 0, "c1").unwrap();
        net.connect(b2, 0, snk, 0, "c2").unwrap();
        net.check().unwrap();
        assert_eq!(net.num_components(), 4);
        assert_eq!(net.num_channels(), 3);
    }

    #[test]
    fn unconnected_port_detected() {
        let mut net = ElasticNetwork::new("bad");
        let src = net.add_source("src").unwrap();
        let snk = net.add_sink("snk").unwrap();
        let _ = src;
        let _ = snk;
        let err = net.check().unwrap_err();
        assert!(matches!(err, CoreError::UnconnectedPort { .. }));
    }

    #[test]
    fn double_connection_rejected() {
        let mut net = ElasticNetwork::new("dup");
        let src = net.add_source("src").unwrap();
        let f = net.add_fork("f", 2).unwrap();
        let snk1 = net.add_sink("s1").unwrap();
        net.connect(src, 0, f, 0, "a").unwrap();
        let err = net.connect(src, 0, snk1, 0, "b").unwrap_err();
        assert!(matches!(err, CoreError::BadPort { input: false, .. }));
    }

    #[test]
    fn bufferless_cycle_detected() {
        // fork -> join -> fork with no buffer: combinational loop.
        let mut net = ElasticNetwork::new("loop");
        let src = net.add_source("src").unwrap();
        let join = net.add_join("j", 2).unwrap();
        let fork = net.add_fork("f", 2).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, join, 0, "in").unwrap();
        net.connect(join, 0, fork, 0, "jf").unwrap();
        net.connect(fork, 0, join, 1, "fb").unwrap();
        net.connect(fork, 1, snk, 0, "out").unwrap();
        let err = net.check().unwrap_err();
        assert!(matches!(err, CoreError::BufferlessCycle(_)), "{err:?}");
    }

    #[test]
    fn buffered_cycle_is_fine() {
        let mut net = ElasticNetwork::new("ring");
        let join = net.add_join("j", 2).unwrap();
        let fork = net.add_fork("f", 2).unwrap();
        let b = net.add_eb("b", true).unwrap();
        let src = net.add_source("src").unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, join, 0, "in").unwrap();
        net.connect(join, 0, fork, 0, "jf").unwrap();
        net.connect(fork, 0, b, 0, "fb").unwrap();
        net.connect(b, 0, join, 1, "bj").unwrap();
        net.connect(fork, 1, snk, 0, "out").unwrap();
        net.check().unwrap();
    }

    #[test]
    fn buffer_chain_aliases_last_stage_output() {
        let mut net = ElasticNetwork::new("chain");
        let src = net.add_source("src").unwrap();
        let eb = net.add_buffer("eb", 2, 1).unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, eb, 0, "in").unwrap();
        net.connect(eb, 0, snk, 0, "out").unwrap();
        net.check().unwrap();
        // Two stages created, internal channel wired.
        assert_eq!(net.num_components(), 4);
        assert_eq!(net.num_channels(), 3);
        let last = net.component_by_name("eb.1").unwrap();
        match &net.component(last).kind {
            ComponentKind::Eb { init_token, .. } => assert!(*init_token),
            other => panic!("unexpected {other:?}"),
        }
        let first = net.component_by_name("eb.0").unwrap();
        match &net.component(first).kind {
            ComponentKind::Eb { init_token, .. } => assert!(!*init_token),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn token_liveness_flags_starved_ring() {
        // A buffered ring whose only buffer holds no token: structurally
        // fine (check passes) but deadlocked from cycle 0.
        let mut net = ElasticNetwork::new("starved");
        let join = net.add_join("j", 2).unwrap();
        let fork = net.add_fork("f", 2).unwrap();
        let b = net.add_eb("b", false).unwrap();
        let src = net.add_source("src").unwrap();
        let snk = net.add_sink("snk").unwrap();
        net.connect(src, 0, join, 0, "in").unwrap();
        net.connect(join, 0, fork, 0, "jf").unwrap();
        net.connect(fork, 0, b, 0, "fb").unwrap();
        net.connect(b, 0, join, 1, "bj").unwrap();
        net.connect(fork, 1, snk, 0, "out").unwrap();
        net.check().unwrap();
        let err = net.check_token_liveness().unwrap_err();
        let CoreError::TokenStarvedCycle(names) = err else {
            panic!("unexpected error kind");
        };
        assert!(names.contains(&"b".to_string()), "{names:?}");
        // Flipping the token in restores liveness.
        net.set_init_token(b, true).unwrap();
        net.check_token_liveness().unwrap();
    }

    #[test]
    fn token_liveness_usable_before_check() {
        // An unwired output port must not panic the liveness walk.
        let mut net = ElasticNetwork::new("partial");
        let join = net.add_join("j", 2).unwrap();
        let fork = net.add_fork("f", 2).unwrap();
        net.connect(join, 0, fork, 0, "jf").unwrap();
        net.connect(fork, 0, join, 1, "fb").unwrap();
        assert!(net.check().is_err());
        let err = net.check_token_liveness().unwrap_err();
        assert!(matches!(err, CoreError::TokenStarvedCycle(_)));
    }

    #[test]
    fn set_init_token_rejects_non_buffers() {
        let mut net = ElasticNetwork::new("t");
        let src = net.add_source("src").unwrap();
        let err = net.set_init_token(src, true).unwrap_err();
        assert!(matches!(err, CoreError::NotABuffer(_)));
        assert!(net.set_init_token(CompId(99), true).is_err());
    }

    #[test]
    fn passive_marking() {
        let mut net = ElasticNetwork::new("p");
        let src = net.add_source("src").unwrap();
        let snk = net.add_sink("snk").unwrap();
        let c = net.connect(src, 0, snk, 0, "c").unwrap();
        net.set_passive(c).unwrap();
        assert!(net.channel(c).passive);
        assert!(net.set_passive(ChanId(9)).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut net = ElasticNetwork::new("dupname");
        net.add_source("x").unwrap();
        let err = net.add_sink("x").unwrap_err();
        assert_eq!(err, CoreError::DuplicateName("x".into()));
        // Buffer stages claim `<name>.<i>`, so a clash inside a chain is
        // caught too.
        net.add_eb("c.1", false).unwrap();
        assert!(matches!(
            net.add_buffer("c", 2, 0),
            Err(CoreError::DuplicateName(_))
        ));
        // The failed adds must not have corrupted the lookup index.
        assert_eq!(net.component_by_name("x"), Some(CompId(0)));
    }

    #[test]
    fn lookup_by_name() {
        let mut net = ElasticNetwork::new("n");
        let src = net.add_source("alpha").unwrap();
        let snk = net.add_sink("beta").unwrap();
        let c = net.connect(src, 0, snk, 0, "alpha->beta").unwrap();
        assert_eq!(net.component_by_name("alpha"), Some(src));
        assert_eq!(net.channel_by_name("alpha->beta"), Some(c));
        assert_eq!(net.input_channel(snk, 0), Some(c));
        assert_eq!(net.output_channel(src, 0), Some(c));
    }

    #[test]
    fn required_data_width_is_the_widest_guard_mask() {
        use crate::corpus::{all_systems, CorpusConfig, Knobs};
        use crate::systems::{paper_example, Config};
        // Fig. 9's guard reads the two-bit opcode; the lazy join reads none.
        for config in Config::all() {
            let want = if config == Config::NoEarlyEval { 0 } else { 2 };
            let net = paper_example(config).unwrap().network;
            assert_eq!(net.required_data_width(), want, "{config:?}");
        }
        // Every corpus merge guards on payload bit 0.
        for sys in all_systems(&Knobs::default()).unwrap() {
            let want = usize::from(sys.config != CorpusConfig::Lazy);
            let width = sys.network.required_data_width();
            assert_eq!(width, want, "{}/{}", sys.design, sys.config.tag());
        }
        let (net, _, _) = crate::systems::linear_pipeline(2, 1).unwrap();
        assert_eq!(net.required_data_width(), 0);
    }
}
