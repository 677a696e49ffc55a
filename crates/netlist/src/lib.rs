//! Gate-level netlist substrate for the elastic-circuits reproduction.
//!
//! The paper's framework emits Verilog for simulation, SMV for model
//! checking and BLIF for logic synthesis; this crate is the equivalent
//! home-grown substrate:
//!
//! * a netlist representation (AND/OR/NOT/XOR/MUX gates, constants, primary
//!   inputs, D flip-flops and transparent latches) built through
//!   [`Netlist`]'s builder methods,
//! * a cycle-accurate two-phase [`sim::Simulator`] with oscillation
//!   detection,
//! * a compiled, bit-parallel backend: [`levelize::Program`] lowers the
//!   gate graph into a flat instruction tape and [`wide::WideSimulator`]
//!   steps 64 independent trials per cycle with word-wide operations,
//!   through the portable, AVX2 or AVX-512F build a [`kernel::Kernel`]
//!   selects at run time,
//! * structural sanity checks, including combinational-cycle detection,
//! * an [`area`] model that counts factored-form literals, latches and
//!   flip-flops the way SIS reports them in the paper's Table 1,
//! * [`export`] back-ends for structural **Verilog**, **BLIF** and **SMV**.
//!
//! # Example
//!
//! ```
//! use elastic_netlist::{Netlist, sim::Simulator};
//!
//! # fn main() -> Result<(), elastic_netlist::NetlistError> {
//! let mut n = Netlist::new("toggle");
//! let q = n.dff(false);           // flip-flop, input bound below
//! let d = n.not(q);
//! n.bind_dff(q, d)?;              // q' = !q
//! n.set_name(q, "q")?;
//!
//! let mut sim = Simulator::new(&n)?;
//! let mut seen = Vec::new();
//! for _ in 0..4 {
//!     sim.cycle(&[])?;
//!     seen.push(sim.value(q));
//! }
//! assert_eq!(seen, vec![false, true, false, true]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod build;
mod error;

pub mod area;
pub mod check;
pub mod export;
pub mod kernel;
pub mod levelize;
pub mod opt;
pub mod reach;
pub mod sim;
pub mod vcd;
pub mod wide;

pub use build::{Gate, LatchPhase, NetId, Netlist};
pub use error::NetlistError;
