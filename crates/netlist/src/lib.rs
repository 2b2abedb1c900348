//! Gate-level netlist infrastructure for the OraP logic-locking reproduction.
//!
//! This crate provides the circuit representation shared by every other crate
//! in the workspace:
//!
//! - [`Circuit`]: a gate-level netlist whose sequential elements (D flip-flops)
//!   are kept at the boundary, exposing the *combinational part* the way the
//!   OraP paper (and every combinational logic-locking work) treats circuits.
//! - [`mod@bench`]: a parser and writer for the ISCAS-89 `.bench` format used by
//!   the ISCAS'89 and ITC'99 benchmark suites.
//! - [`generate`]: a deterministic synthetic benchmark generator that matches
//!   the published size profiles of the circuits used in the paper
//!   (s38417, s38584, b17–b22), since the original netlists are not
//!   redistributable here.
//! - [`samples`]: small embedded, well-known circuits (c17, adders, majority)
//!   used as ground truth in tests.
//! - [`rng`]: a tiny, stable [SplitMix64](rng::SplitMix64) PRNG so generated
//!   circuits are bit-reproducible regardless of external crate versions.
//!
//! # Example
//!
//! ```
//! use netlist::{Circuit, GateKind};
//!
//! # fn main() -> Result<(), netlist::Error> {
//! let mut c = Circuit::new("half_adder");
//! let a = c.add_input("a");
//! let b = c.add_input("b");
//! let sum = c.add_gate(GateKind::Xor, vec![a, b], "sum")?;
//! let carry = c.add_gate(GateKind::And, vec![a, b], "carry")?;
//! c.mark_output(sum);
//! c.mark_output(carry);
//! c.validate()?;
//! assert_eq!(c.num_gates(), 2);
//! # Ok(())
//! # }
//! ```

pub mod bench;
pub mod verilog;
mod circuit;
pub mod compiled;
mod error;
pub mod generate;
pub mod rng;
pub mod samples;
mod stats;
pub mod stream;
mod topo;

pub use circuit::{Circuit, Dff, Gate, GateKind, Net, NetId};
pub use compiled::{CompiledCircuit, EngineCounters, EvalScratch, Lanes, LevelQueue};
pub use stream::StreamBuilder;
pub use error::Error;
pub use stats::CircuitStats;
pub use topo::{Levelization, TransitiveFanin};
