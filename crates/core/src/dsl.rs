//! Typed combinator DSL over [`ElasticNetwork`]: channels as move-semantics
//! values, controllers as arity-typed modules.
//!
//! The imperative builder ([`ElasticNetwork::connect`] on raw
//! [`CompId`]/port pairs) discovers wiring mistakes late: a double-connected
//! output surfaces as a [`CoreError::BadPort`] at the offending call, a
//! dangling port only at [`ElasticNetwork::check`] time, and the lint layer
//! (E103/E104) later still. This module makes both states unrepresentable
//! at the source level:
//!
//! * a [`Chan`] is the *value of an unconnected producer port*. It is
//!   move-only (no `Clone`/`Copy`), every combinator consumes it, and the
//!   borrow checker rejects connecting it twice at compile time;
//! * a [`Port`] is the *obligation to drive one consumer port*
//!   ([`Dsl::drive`]); joins with feedback edges hand them out explicitly
//!   ([`Dsl::open_join`]) so rings are closed declaratively;
//! * a [`Module`] packages a reusable sub-circuit with const-generic
//!   input/output arity — [`Module::then`] (sequential), [`par`]
//!   (side-by-side) and [`Dsl::ring`] (token-carrying feedback) compose
//!   them with the arities checked by the compiler.
//!
//! Components are auto-named per kind (`eb0`, `join1`, …) when given an
//! empty name; channels default to the elasticizer's `"<from>-><to>"`
//! convention and can be pinned with [`Chan::label`]. [`Dsl::finish`] runs
//! [`ElasticNetwork::check`] *and*
//! [`ElasticNetwork::check_token_liveness`], so a leaked `Chan` or an
//! undriven `Port` still cannot escape as a silently broken network.
//!
//! ```
//! use elastic_core::dsl::Dsl;
//!
//! # fn main() -> Result<(), elastic_core::CoreError> {
//! let mut d = Dsl::new("pipeline");
//! let src = d.source("src")?;
//! let b = d.buffer("b", 2, 1, src)?;
//! d.sink("snk", b)?;
//! let net = d.finish()?;
//! assert_eq!(net.num_components(), 4);
//! # Ok(())
//! # }
//! ```

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::channel::ChanId;
use crate::ee::EarlyEval;
use crate::error::CoreError;
use crate::network::{CompId, ElasticNetwork};

/// An unconnected producer port, as a linear (move-only) value.
///
/// Produced by every [`Dsl`] combinator that creates an output; consumed by
/// exactly one downstream combinator. Dropping one leaves a dangling output
/// that [`Dsl::finish`] reports as [`CoreError::UnconnectedPort`].
#[derive(Debug)]
#[must_use = "an elastic channel must be consumed by exactly one consumer"]
pub struct Chan {
    comp: CompId,
    port: usize,
    /// Logical producer name, for the default `"<from>-><to>"` channel name.
    src: String,
    label: Option<String>,
    passive: bool,
}

impl Chan {
    /// Pins the channel's name instead of the default `"<from>-><to>"`.
    pub fn label(mut self, name: impl Into<String>) -> Chan {
        self.label = Some(name.into());
        self
    }

    /// Marks the channel as a passive anti-token boundary (Fig. 7a):
    /// anti-tokens are stopped here and wait to annihilate instead of
    /// propagating upstream.
    pub fn passive(mut self) -> Chan {
        self.passive = true;
        self
    }
}

/// An undriven consumer port: the obligation to connect exactly one
/// producer, discharged by [`Dsl::drive`]. Handed out by
/// [`Dsl::open_join`]/[`Dsl::open_early_join`]/[`Dsl::open_buffer`] so
/// feedback edges (rings) can be closed after their driver exists.
#[derive(Debug)]
#[must_use = "an open input port must be driven"]
pub struct Port {
    comp: CompId,
    port: usize,
    /// Logical consumer name, for the default channel name.
    dst: String,
}

/// The builder context: wraps an [`ElasticNetwork`] under construction,
/// auto-names components, and wires [`Chan`]s to consumers.
#[derive(Debug)]
pub struct Dsl {
    net: ElasticNetwork,
    counters: HashMap<&'static str, usize>,
}

impl Dsl {
    /// Creates an empty builder for a network called `name`.
    pub fn new(name: impl Into<String>) -> Dsl {
        Dsl {
            net: ElasticNetwork::new(name),
            counters: HashMap::new(),
        }
    }

    fn autoname(&mut self, kind: &'static str, name: &str) -> String {
        if name.is_empty() {
            let c = self.counters.entry(kind).or_insert(0);
            let n = *c;
            *c += 1;
            format!("{kind}{n}")
        } else {
            name.to_string()
        }
    }

    fn chan(comp: CompId, port: usize, src: String) -> Chan {
        Chan {
            comp,
            port,
            src,
            label: None,
            passive: false,
        }
    }

    fn wire(&mut self, ch: Chan, to: CompId, port: usize, dst: &str) -> Result<ChanId, CoreError> {
        let name = match ch.label {
            Some(l) => l,
            None => format!("{}->{dst}", ch.src),
        };
        let id = self.net.connect(ch.comp, ch.port, to, port, name)?;
        if ch.passive {
            self.net.set_passive(id)?;
        }
        Ok(id)
    }

    /// Adds an environment source and returns its output channel.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn source(&mut self, name: &str) -> Result<Chan, CoreError> {
        let name = self.autoname("src", name);
        let id = self.net.add_source(name.clone())?;
        Ok(Self::chan(id, 0, name))
    }

    /// Adds an environment sink consuming `input`; returns the channel id
    /// (the usual throughput observation point).
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn sink(&mut self, name: &str, input: Chan) -> Result<ChanId, CoreError> {
        let name = self.autoname("snk", name);
        let id = self.net.add_sink(name.clone())?;
        self.wire(input, id, 0, &name)
    }

    /// Adds a single elastic buffer behind `input`.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn eb(&mut self, name: &str, init_token: bool, input: Chan) -> Result<Chan, CoreError> {
        let name = self.autoname("eb", name);
        let id = self.net.add_eb(name.clone(), init_token)?;
        self.wire(input, id, 0, &name)?;
        Ok(Self::chan(id, 0, name))
    }

    /// Adds a chain of `stages` elastic buffers carrying `tokens` initial
    /// tokens behind `input` (see [`ElasticNetwork::add_buffer`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0` or `tokens > stages`.
    pub fn buffer(
        &mut self,
        name: &str,
        stages: usize,
        tokens: usize,
        input: Chan,
    ) -> Result<Chan, CoreError> {
        let name = self.autoname("buf", name);
        let id = self.net.add_buffer(name.clone(), stages, tokens)?;
        self.wire(input, id, 0, &name)?;
        Ok(Self::chan(id, 0, name))
    }

    /// Adds a buffer chain with *both* ends open: returns its output
    /// channel and its undriven input port. This is the token-carrying back
    /// edge of a ring — the output can feed a join before the input's
    /// driver exists.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    ///
    /// # Panics
    ///
    /// Panics if `stages == 0` or `tokens > stages`.
    pub fn open_buffer(
        &mut self,
        name: &str,
        stages: usize,
        tokens: usize,
    ) -> Result<(Chan, Port), CoreError> {
        let name = self.autoname("buf", name);
        let id = self.net.add_buffer(name.clone(), stages, tokens)?;
        Ok((
            Self::chan(id, 0, name.clone()),
            Port {
                comp: id,
                port: 0,
                dst: name,
            },
        ))
    }

    /// Adds a variable-latency (go/done/ack) unit behind `input`.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn var_latency(&mut self, name: &str, input: Chan) -> Result<Chan, CoreError> {
        let name = self.autoname("vl", name);
        let id = self.net.add_var_latency(name.clone())?;
        self.wire(input, id, 0, &name)?;
        Ok(Self::chan(id, 0, name))
    }

    /// Adds an eager fork of compile-time arity `N` behind `input`.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn fork<const N: usize>(
        &mut self,
        name: &str,
        input: Chan,
    ) -> Result<[Chan; N], CoreError> {
        let name = self.autoname("fork", name);
        let id = self.net.add_fork(name.clone(), N)?;
        self.wire(input, id, 0, &name)?;
        Ok(std::array::from_fn(|i| Self::chan(id, i, name.clone())))
    }

    /// Adds a lazy join of compile-time arity `N` consuming `inputs` (in
    /// port order).
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn join<const N: usize>(
        &mut self,
        name: &str,
        inputs: [Chan; N],
    ) -> Result<Chan, CoreError> {
        let (out, ports) = self.open_join::<N>(name)?;
        for (p, ch) in ports.into_iter().zip(inputs) {
            self.drive(p, ch)?;
        }
        Ok(out)
    }

    /// Adds an early-evaluation join of arity `N` consuming `inputs`.
    ///
    /// # Errors
    ///
    /// [`CoreError::BadEarlyEval`] if `ee` fails validation against `N`
    /// inputs; [`CoreError::DuplicateName`] on a name clash.
    pub fn early_join<const N: usize>(
        &mut self,
        name: &str,
        ee: EarlyEval,
        inputs: [Chan; N],
    ) -> Result<Chan, CoreError> {
        let (out, ports) = self.open_early_join::<N>(name, ee)?;
        for (p, ch) in ports.into_iter().zip(inputs) {
            self.drive(p, ch)?;
        }
        Ok(out)
    }

    /// Adds a lazy join with all `N` input ports left open — for topologies
    /// where some input is a feedback edge that does not exist yet.
    ///
    /// # Errors
    ///
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn open_join<const N: usize>(
        &mut self,
        name: &str,
    ) -> Result<(Chan, [Port; N]), CoreError> {
        let name = self.autoname("join", name);
        let id = self.net.add_join(name.clone(), N)?;
        Ok((
            Self::chan(id, 0, name.clone()),
            std::array::from_fn(|i| Port {
                comp: id,
                port: i,
                dst: name.clone(),
            }),
        ))
    }

    /// [`Dsl::open_join`] with an early-evaluation function (validated
    /// immediately against `N`).
    ///
    /// # Errors
    ///
    /// [`CoreError::BadEarlyEval`] from validation;
    /// [`CoreError::DuplicateName`] on a name clash.
    pub fn open_early_join<const N: usize>(
        &mut self,
        name: &str,
        ee: EarlyEval,
    ) -> Result<(Chan, [Port; N]), CoreError> {
        let name = self.autoname("join", name);
        let id = self.net.add_early_join(name.clone(), N, ee)?;
        Ok((
            Self::chan(id, 0, name.clone()),
            std::array::from_fn(|i| Port {
                comp: id,
                port: i,
                dst: name.clone(),
            }),
        ))
    }

    /// Discharges an open consumer port with a producer channel; returns
    /// the created channel's id.
    ///
    /// # Errors
    ///
    /// Propagates [`ElasticNetwork::connect`] errors (none expected: both
    /// endpoints are typed as unconnected).
    pub fn drive(&mut self, port: Port, ch: Chan) -> Result<ChanId, CoreError> {
        self.wire(ch, port.comp, port.port, &port.dst)
    }

    /// Closes a token-carrying ring around `body`: `input` joins with a
    /// feedback buffer of `back_stages` stages holding `back_tokens`
    /// initial tokens, flows through `body`, and forks into the returned
    /// forward output and the feedback edge.
    ///
    /// Components are named `<name>.j`, `<name>.f`, `<name>.b`.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the body and the ring plumbing.
    ///
    /// # Panics
    ///
    /// Panics if `back_tokens == 0` (the ring would deadlock at power-up —
    /// paper Sect. 2's liveness obligation) or `back_tokens > back_stages`.
    pub fn ring(
        &mut self,
        name: &str,
        input: Chan,
        body: Module<1, 1>,
        back_stages: usize,
        back_tokens: usize,
    ) -> Result<Chan, CoreError> {
        assert!(back_tokens >= 1, "a ring needs an initial token to be live");
        let name = self.autoname("ring", name);
        let (j, [p_in, p_back]) = self.open_join::<2>(&format!("{name}.j"))?;
        self.drive(p_in, input)?;
        let [body_out] = body.apply(self, [j])?;
        let [out, back] = self.fork::<2>(&format!("{name}.f"), body_out)?;
        let back = self.buffer(&format!("{name}.b"), back_stages, back_tokens, back)?;
        self.drive(p_back, back)?;
        Ok(out)
    }

    /// Read access to the network under construction (e.g. to resolve
    /// channel ids by name before finishing).
    pub fn network(&self) -> &ElasticNetwork {
        &self.net
    }

    /// Validates and returns the built network: every port wired
    /// ([`ElasticNetwork::check`] — a dropped [`Chan`] or undriven
    /// [`Port`] surfaces here as a typed error) and every cycle
    /// token-carrying ([`ElasticNetwork::check_token_liveness`]).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnconnectedPort`], [`CoreError::BufferlessCycle`] or
    /// [`CoreError::TokenStarvedCycle`].
    pub fn finish(self) -> Result<ElasticNetwork, CoreError> {
        self.net.check()?;
        self.net.check_token_liveness()?;
        Ok(self.net)
    }
}

/// A reusable sub-circuit with `I` input and `O` output channels, composed
/// with [`Module::then`] / [`seq`] (sequential), [`par`] (parallel) and
/// [`Dsl::ring`] (feedback). Arity mismatches are compile-time type errors.
#[must_use = "a module does nothing until applied"]
pub struct Module<const I: usize, const O: usize> {
    #[allow(clippy::type_complexity)]
    build: Box<dyn FnOnce(&mut Dsl, [Chan; I]) -> Result<[Chan; O], CoreError>>,
}

impl<const I: usize, const O: usize> Module<I, O> {
    /// Wraps a build closure as a module.
    pub fn new(
        f: impl FnOnce(&mut Dsl, [Chan; I]) -> Result<[Chan; O], CoreError> + 'static,
    ) -> Module<I, O> {
        Module { build: Box::new(f) }
    }

    /// Instantiates the module in `d`, consuming `inputs`.
    ///
    /// # Errors
    ///
    /// Whatever the module body returns.
    pub fn apply(self, d: &mut Dsl, inputs: [Chan; I]) -> Result<[Chan; O], CoreError> {
        (self.build)(d, inputs)
    }

    /// Sequential composition: `self`'s outputs feed `next`'s inputs. The
    /// arities must agree — checked by the type system, not at run time.
    pub fn then<const P: usize>(self, next: Module<O, P>) -> Module<I, P> {
        Module::new(move |d, ins| {
            let mid = self.apply(d, ins)?;
            next.apply(d, mid)
        })
    }
}

impl Module<1, 1> {
    /// A single elastic buffer as a module.
    pub fn eb(name: &str, init_token: bool) -> Module<1, 1> {
        let name = name.to_string();
        Module::new(move |d, [x]| Ok([d.eb(&name, init_token, x)?]))
    }

    /// A buffer chain as a module.
    pub fn buffer(name: &str, stages: usize, tokens: usize) -> Module<1, 1> {
        let name = name.to_string();
        Module::new(move |d, [x]| Ok([d.buffer(&name, stages, tokens, x)?]))
    }

    /// A variable-latency unit as a module.
    pub fn var_latency(name: &str) -> Module<1, 1> {
        let name = name.to_string();
        Module::new(move |d, [x]| Ok([d.var_latency(&name, x)?]))
    }
}

/// Sequential composition — free-function spelling of [`Module::then`].
pub fn seq<const I: usize, const M: usize, const O: usize>(
    a: Module<I, M>,
    b: Module<M, O>,
) -> Module<I, O> {
    a.then(b)
}

/// Parallel composition of two single-channel modules: the result consumes
/// two channels and produces two, with no interaction between the lanes.
pub fn par(a: Module<1, 1>, b: Module<1, 1>) -> Module<2, 2> {
    Module::new(move |d, [x, y]| {
        let [xo] = a.apply(d, [x])?;
        let [yo] = b.apply(d, [y])?;
        Ok([xo, yo])
    })
}

/// Checks that two networks are structurally identical up to component and
/// channel *ids*: same component names with the same kinds (including
/// early-evaluation functions and initial tokens), and the same channels
/// keyed by `(name, from component, to component, to port, passivity)`.
/// Fork output-port indices are deliberately ignored — eager fork outputs
/// are symmetric, so two isomorphic builders may hand them out in any
/// order; join input ports are significant (early-evaluation functions
/// index them).
///
/// Returns the first difference as a human-readable message.
///
/// # Errors
///
/// `Err(description)` when the networks differ.
pub fn isomorphic(a: &ElasticNetwork, b: &ElasticNetwork) -> Result<(), String> {
    let comps = |n: &ElasticNetwork| -> BTreeMap<String, String> {
        n.components()
            .map(|c| {
                let comp = n.component(c);
                (comp.name.clone(), format!("{:?}", comp.kind))
            })
            .collect()
    };
    let ca = comps(a);
    let cb = comps(b);
    if ca != cb {
        for (name, kind) in &ca {
            match cb.get(name) {
                None => return Err(format!("component {name:?} only in left network")),
                Some(k) if k != kind => {
                    return Err(format!(
                        "component {name:?} differs: left {kind}, right {k}"
                    ))
                }
                _ => {}
            }
        }
        for name in cb.keys() {
            if !ca.contains_key(name) {
                return Err(format!("component {name:?} only in right network"));
            }
        }
    }
    let chans = |n: &ElasticNetwork| -> BTreeSet<String> {
        n.channels()
            .map(|c| {
                let ch = n.channel(c);
                format!(
                    "{:?}: {} -> {}[{}] passive={}",
                    ch.name,
                    n.component(ch.from.0).name,
                    n.component(ch.to.0).name,
                    ch.to.1,
                    ch.passive
                )
            })
            .collect()
    };
    let la = chans(a);
    let lb = chans(b);
    if let Some(only_left) = la.difference(&lb).next() {
        return Err(format!("channel only in left network: {only_left}"));
    }
    if let Some(only_right) = lb.difference(&la).next() {
        return Err(format!("channel only in right network: {only_right}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ee::EeTerm;

    #[test]
    fn linear_chain_builds_and_checks() {
        let mut d = Dsl::new("lin");
        let s = d.source("src").unwrap();
        let b = d.buffer("b", 2, 1, s).unwrap();
        d.sink("snk", b).unwrap();
        let net = d.finish().unwrap();
        assert_eq!(net.num_components(), 4);
        assert_eq!(net.num_channels(), 3);
        assert!(net.channel_by_name("src->b").is_some());
        assert!(net.channel_by_name("b->snk").is_some());
    }

    #[test]
    fn auto_naming_counts_per_kind() {
        let mut d = Dsl::new("auto");
        let s0 = d.source("").unwrap();
        let s1 = d.source("").unwrap();
        let e0 = d.eb("", false, s0).unwrap();
        let e1 = d.eb("", false, s1).unwrap();
        let j = d.join("", [e0, e1]).unwrap();
        d.sink("", j).unwrap();
        let net = d.finish().unwrap();
        for name in ["src0", "src1", "eb0", "eb1", "join0", "snk0"] {
            assert!(net.component_by_name(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn dropped_chan_is_a_typed_unconnected_port() {
        let mut d = Dsl::new("leak");
        let s = d.source("src").unwrap();
        let [a, b] = d.fork::<2>("f", s).unwrap();
        d.sink("snk", a).unwrap();
        drop(b); // leaked fork leg
        let err = d.finish().unwrap_err();
        assert!(matches!(
            err,
            CoreError::UnconnectedPort { input: false, .. }
        ));
    }

    #[test]
    fn undriven_port_is_a_typed_unconnected_port() {
        let mut d = Dsl::new("open");
        let (out, [p0, p1]) = d.open_join::<2>("j").unwrap();
        let s = d.source("src").unwrap();
        d.drive(p0, s).unwrap();
        d.sink("snk", out).unwrap();
        drop(p1);
        let err = d.finish().unwrap_err();
        assert!(matches!(
            err,
            CoreError::UnconnectedPort { input: true, .. }
        ));
    }

    #[test]
    fn ring_is_live_by_construction() {
        let mut d = Dsl::new("ring");
        let s = d.source("src").unwrap();
        let out = d.ring("r", s, Module::eb("stage", false), 1, 1).unwrap();
        d.sink("snk", out).unwrap();
        let net = d.finish().unwrap();
        net.check_token_liveness().unwrap();
        // join + eb + fork + back buffer + src + snk
        assert_eq!(net.num_components(), 6);
    }

    #[test]
    fn starved_ring_is_rejected_at_finish() {
        // Bypass `ring`'s token assertion by wiring the feedback manually
        // with a token-free buffer: finish() must flag it.
        let mut d = Dsl::new("starved");
        let (j, [p0, p1]) = d.open_join::<2>("j").unwrap();
        let s = d.source("src").unwrap();
        d.drive(p0, s).unwrap();
        let [out, back] = d.fork::<2>("f", j).unwrap();
        let back = d.buffer("b", 1, 0, back).unwrap();
        d.drive(p1, back).unwrap();
        d.sink("snk", out).unwrap();
        let err = d.finish().unwrap_err();
        assert!(matches!(err, CoreError::TokenStarvedCycle(_)));
    }

    #[test]
    fn modules_compose_sequentially_and_in_parallel() {
        let mut d = Dsl::new("mods");
        let a = d.source("a").unwrap();
        let b = d.source("b").unwrap();
        let lanes = par(
            Module::eb("ra", false).then(Module::var_latency("va")),
            Module::buffer("rb", 2, 0),
        );
        let [ao, bo] = lanes.apply(&mut d, [a, b]).unwrap();
        let j = d.join("j", [ao, bo]).unwrap();
        let j = seq(Module::eb("out", false), Module::eb("out2", false))
            .apply(&mut d, [j])
            .unwrap();
        let [j] = j;
        d.sink("snk", j).unwrap();
        let net = d.finish().unwrap();
        assert!(net.component_by_name("va").is_some());
        assert!(net.component_by_name("rb.1").is_some());
        assert!(net.component_by_name("out2").is_some());
    }

    #[test]
    fn labels_and_passivity_stick() {
        let mut d = Dsl::new("lp");
        let s = d.source("src").unwrap();
        let b = d.eb("b", false, s.label("in")).unwrap();
        d.sink("snk", b.label("out").passive()).unwrap();
        let net = d.finish().unwrap();
        let out = net.channel_by_name("out").unwrap();
        assert!(net.channel(out).passive);
        assert!(net.channel_by_name("in").is_some());
    }

    #[test]
    fn early_join_validation_is_immediate() {
        let bad = EarlyEval::new(
            0,
            vec![EeTerm {
                guard_mask: 1,
                guard_value: 0,
                required: vec![9],
                select: 9,
            }],
        );
        let mut d = Dsl::new("bad");
        let err = d.open_early_join::<2>("j", bad).unwrap_err();
        assert!(matches!(err, CoreError::BadEarlyEval(_)));
    }

    #[test]
    fn isomorphic_accepts_reordered_identical_nets() {
        let mut a = ElasticNetwork::new("x");
        let sa = a.add_source("s").unwrap();
        let ka = a.add_sink("k").unwrap();
        let ba = a.add_eb("b", true).unwrap();
        a.connect(sa, 0, ba, 0, "c0").unwrap();
        a.connect(ba, 0, ka, 0, "c1").unwrap();

        let mut b = ElasticNetwork::new("y");
        let bb = b.add_eb("b", true).unwrap();
        let sb = b.add_source("s").unwrap();
        let kb = b.add_sink("k").unwrap();
        b.connect(sb, 0, bb, 0, "c0").unwrap();
        b.connect(bb, 0, kb, 0, "c1").unwrap();

        isomorphic(&a, &b).unwrap();
    }

    #[test]
    fn isomorphic_rejects_kind_channel_and_passivity_drift() {
        let build = |tok: bool, pass: bool, cname: &str| {
            let mut n = ElasticNetwork::new("x");
            let s = n.add_source("s").unwrap();
            let k = n.add_sink("k").unwrap();
            let b = n.add_eb("b", tok).unwrap();
            n.connect(s, 0, b, 0, cname).unwrap();
            let c = n.connect(b, 0, k, 0, "c1").unwrap();
            if pass {
                n.set_passive(c).unwrap();
            }
            n
        };
        let reference = build(true, false, "c0");
        assert!(isomorphic(&reference, &build(false, false, "c0")).is_err());
        assert!(isomorphic(&reference, &build(true, true, "c0")).is_err());
        assert!(isomorphic(&reference, &build(true, false, "weird")).is_err());
        isomorphic(&reference, &build(true, false, "c0")).unwrap();
    }
}
