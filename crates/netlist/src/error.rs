use std::fmt;

use crate::build::NetId;

/// One net on a reported combinational cycle: its display name plus the
/// gate kind ([`crate::build::Gate::kind_name`]), so the report tells the
/// reader *what* is looping, not just which nets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleNet {
    /// Display name of the net (or its `w<i>` fallback).
    pub name: String,
    /// Gate-kind label, e.g. `"and"`, `"latch.H"`.
    pub kind: &'static str,
}

impl fmt::Display for CycleNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.name, self.kind)
    }
}

/// Errors produced while building, checking or simulating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net id referenced an index outside the netlist.
    UnknownNet(NetId),
    /// A flip-flop or latch data input was never bound.
    UnboundState {
        /// The state element's output net.
        net: NetId,
        /// Its display name, if one was assigned.
        name: String,
    },
    /// `bind_dff`/`bind_latch` was applied to a net that is not of that kind,
    /// or applied twice.
    BadBind(NetId),
    /// The netlist contains a combinational cycle (not cut by any flip-flop
    /// or by latches of both phases). The *shortest* offending cycle is
    /// reported (BFS within its strongly connected component), each net
    /// with its name and gate kind.
    CombinationalCycle(Vec<CycleNet>),
    /// Simulation failed to reach a fixpoint within the iteration budget —
    /// the symptom of an oscillating (level-sensitive) loop.
    Oscillation {
        /// The clock phase during which the oscillation was observed.
        phase: &'static str,
    },
    /// A state vector of the wrong width was passed to `load_state` or
    /// `load_carried`.
    StateWidthMismatch {
        /// Number of state elements in the netlist.
        expected: usize,
        /// Length of the supplied vector.
        got: usize,
    },
    /// A duplicate net name was assigned.
    DuplicateName(String),
    /// A name lookup failed.
    UnknownName(String),
    /// A per-lane accessor was given a lane index outside the simulator's
    /// lane word.
    LaneOutOfRange {
        /// The requested lane.
        lane: usize,
        /// Number of lanes the simulator holds.
        lanes: usize,
    },
    /// Two distinct nets sanitize to the same exported identifier, so the
    /// emitted Verilog/BLIF/SMV would silently merge them.
    DuplicateIdent {
        /// The colliding sanitized identifier.
        ident: String,
        /// The first net that claimed the identifier.
        first: NetId,
        /// The other net that sanitizes to the same identifier.
        second: NetId,
    },
    /// An I/O failure while writing an exported artefact to disk. Holds the
    /// rendered `std::io::Error` message (kept as a string so the error type
    /// stays `Clone`/`Eq`).
    Io(String),
    /// An export round-trip consistency check failed: a renderer produced
    /// different text on a second pass, or an emitted artefact disagrees
    /// structurally with the netlist (see `export::round_trip_check`).
    RoundTrip(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownNet(n) => write!(f, "unknown net id {}", n.index()),
            NetlistError::UnboundState { net, name } => {
                write!(
                    f,
                    "state element {} ({name}) has no bound data input",
                    net.index()
                )
            }
            NetlistError::BadBind(n) => {
                write!(
                    f,
                    "net {} cannot be (re)bound: not an unbound state element",
                    n.index()
                )
            }
            NetlistError::CombinationalCycle(nets) => {
                let rendered: Vec<String> = nets.iter().map(ToString::to_string).collect();
                write!(
                    f,
                    "combinational cycle ({} nets, shortest in its scc): {}",
                    nets.len(),
                    rendered.join(" -> ")
                )
            }
            NetlistError::Oscillation { phase } => {
                write!(f, "simulation oscillated during the {phase} phase")
            }
            NetlistError::StateWidthMismatch { expected, got } => {
                write!(
                    f,
                    "state vector has {got} bits, netlist has {expected} state elements"
                )
            }
            NetlistError::DuplicateName(n) => write!(f, "duplicate net name {n:?}"),
            NetlistError::UnknownName(n) => write!(f, "no net named {n:?}"),
            NetlistError::LaneOutOfRange { lane, lanes } => {
                write!(f, "lane {lane} out of range for a {lanes}-lane simulator")
            }
            NetlistError::DuplicateIdent {
                ident,
                first,
                second,
            } => {
                write!(
                    f,
                    "nets {} and {} both export as identifier {ident:?}",
                    first.index(),
                    second.index()
                )
            }
            NetlistError::Io(msg) => write!(f, "export i/o failure: {msg}"),
            NetlistError::RoundTrip(msg) => write!(f, "export round-trip check failed: {msg}"),
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetlistError::CombinationalCycle(vec![
            CycleNet {
                name: "a".into(),
                kind: "and",
            },
            CycleNet {
                name: "b".into(),
                kind: "not",
            },
        ]);
        assert!(e.to_string().contains("a[and] -> b[not]"), "{e}");
    }

    #[test]
    fn send_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<NetlistError>();
    }
}
