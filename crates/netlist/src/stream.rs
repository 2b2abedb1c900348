//! The streaming compile path: build a [`CompiledCircuit`] gate by gate,
//! without ever materializing a [`Circuit`](crate::Circuit).
//!
//! The [`Circuit`](crate::Circuit) representation spends a `String` name, a `Vec<NetId>`
//! fanin allocation and a name-interning hash entry on every net — fine at
//! ISCAS scale, prohibitive at 10⁶ gates. [`StreamBuilder`] instead appends
//! each gate directly into the flat CSR pools the engine evaluates:
//!
//! - fanins may only reference **already-created** nets, so the dense id
//!   order is topological *by construction* and compilation never runs a
//!   cycle check or Kahn pass;
//! - logic levels are computed incrementally as gates arrive
//!   (`1 + max(fanin levels)`), so [`StreamBuilder::finish`] assembles the
//!   levelization in O(1) from parts it already has;
//! - total allocation is a handful of `Vec`s that grow amortized-linearly
//!   with the gate count — no per-gate allocations at all.
//!
//! The finished artifact is byte-for-byte interchangeable with the output
//! of [`CompiledCircuit::compile`] as far as every consumer is concerned
//! (same CSR semantics, same kernels, same counters); only the topological
//! order may differ (identity here, Kahn order there), which no consumer
//! is allowed to depend on beyond its topological validity.

use crate::compiled::CompiledCircuit;
use crate::{Error, GateKind, Levelization, NetId};

/// Incremental builder producing a [`CompiledCircuit`] directly.
///
/// ```
/// use netlist::{GateKind, StreamBuilder};
///
/// # fn main() -> Result<(), netlist::Error> {
/// let mut b = StreamBuilder::new();
/// let a = b.add_input()?;
/// let bb = b.add_input()?;
/// let sum = b.add_gate(GateKind::Xor, &[a, bb])?;
/// let carry = b.add_gate(GateKind::And, &[a, bb])?;
/// let cc = b.finish(vec![a, bb], vec![sum, carry])?;
/// assert_eq!(cc.num_nets(), 4);
/// assert_eq!(cc.depth(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamBuilder {
    kinds: Vec<Option<GateKind>>,
    fanin_pool: Vec<u32>,
    fanin_start: Vec<u32>,
    level: Vec<u32>,
}

impl Default for StreamBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        StreamBuilder {
            kinds: Vec::new(),
            fanin_pool: Vec::new(),
            fanin_start: vec![0],
            level: Vec::new(),
        }
    }

    /// Nets created so far.
    pub fn num_nets(&self) -> usize {
        self.kinds.len()
    }

    /// Logic level of an already-created net.
    pub fn level_of(&self, net: u32) -> u32 {
        self.level[net as usize]
    }

    fn next_id(&self) -> Result<u32, Error> {
        if self.kinds.len() >= u32::MAX as usize {
            return Err(Error::TooManyNets);
        }
        Ok(self.kinds.len() as u32)
    }

    /// Creates an undriven input net and returns its dense id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyNets`] past the `u32` id space.
    pub fn add_input(&mut self) -> Result<u32, Error> {
        let id = self.next_id()?;
        self.kinds.push(None);
        self.fanin_start.push(self.fanin_pool.len() as u32);
        self.level.push(0);
        Ok(id)
    }

    /// Creates a gate net driven by `kind` over `fanin` and returns its
    /// dense id. Fanins must be nets this builder already created, which is
    /// what makes the construction acyclic and topologically ordered for
    /// free.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadArity`] for an illegal fanin count,
    /// [`Error::UnknownNet`] for a fanin id not created yet, and
    /// [`Error::TooManyNets`] past the `u32` id space.
    pub fn add_gate(&mut self, kind: GateKind, fanin: &[u32]) -> Result<u32, Error> {
        if !kind.accepts_arity(fanin.len()) {
            return Err(Error::BadArity {
                kind: kind.as_str(),
                got: fanin.len(),
            });
        }
        let id = self.next_id()?;
        let mut lvl = 0u32;
        for &f in fanin {
            if f >= id {
                return Err(Error::UnknownNet(f));
            }
            lvl = lvl.max(self.level[f as usize] + 1);
        }
        self.kinds.push(Some(kind));
        self.fanin_pool.extend_from_slice(fanin);
        self.fanin_start.push(self.fanin_pool.len() as u32);
        self.level.push(lvl);
        Ok(id)
    }

    /// Finishes the build into a [`CompiledCircuit`].
    ///
    /// `inputs` is the combinational input view in the order consumers feed
    /// words (for a sequential design: primary inputs then flip-flop
    /// outputs); `outputs` the combinational output view (primary outputs
    /// then flip-flop inputs — duplicates allowed, matching
    /// [`Circuit::comb_outputs`](crate::Circuit::comb_outputs) semantics).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNet`] if a listed net was never created,
    /// [`Error::Undriven`] if `inputs` lists a driven net or misses an
    /// undriven one (every undriven net must be fed, or evaluation would
    /// silently read zeros).
    pub fn finish(self, inputs: Vec<u32>, outputs: Vec<u32>) -> Result<CompiledCircuit, Error> {
        let n = self.kinds.len();
        for &id in inputs.iter().chain(&outputs) {
            if id as usize >= n {
                return Err(Error::UnknownNet(id));
            }
        }
        let mut is_input = vec![false; n];
        for &id in &inputs {
            if self.kinds[id as usize].is_some() || is_input[id as usize] {
                return Err(Error::Undriven(format!("n{id}")));
            }
            is_input[id as usize] = true;
        }
        if let Some(orphan) = (0..n).find(|&i| self.kinds[i].is_none() && !is_input[i]) {
            return Err(Error::Undriven(format!("n{orphan}")));
        }

        let order: Vec<NetId> = (0..n).map(NetId::from_index).collect();
        let lv = Levelization::from_parts(order, self.level);
        Ok(CompiledCircuit::assemble(
            self.kinds,
            self.fanin_pool,
            self.fanin_start,
            lv,
            inputs.into_iter().map(|i| NetId::from_index(i as usize)).collect(),
            outputs.into_iter().map(|o| NetId::from_index(o as usize)).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, CompiledCircuit, EvalScratch};

    /// Builds the same half-adder through both paths and checks the
    /// artifacts agree on everything observable.
    #[test]
    fn streamed_artifact_matches_compiled_artifact() {
        let mut c = Circuit::new("ha");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let sum = c.add_gate(GateKind::Xor, vec![a, b], "sum").unwrap();
        let carry = c.add_gate(GateKind::And, vec![a, b], "carry").unwrap();
        c.mark_output(sum);
        c.mark_output(carry);
        let via_circuit = CompiledCircuit::compile(&c).unwrap();

        let mut sb = StreamBuilder::new();
        let sa = sb.add_input().unwrap();
        let sbb = sb.add_input().unwrap();
        let ssum = sb.add_gate(GateKind::Xor, &[sa, sbb]).unwrap();
        let scarry = sb.add_gate(GateKind::And, &[sa, sbb]).unwrap();
        let via_stream = sb.finish(vec![sa, sbb], vec![ssum, scarry]).unwrap();

        assert_eq!(via_stream.num_nets(), via_circuit.num_nets());
        assert_eq!(via_stream.depth(), via_circuit.depth());
        for id in 0..via_circuit.num_nets() as u32 {
            assert_eq!(via_stream.kind_of(id), via_circuit.kind_of(id));
            assert_eq!(via_stream.fanin(id), via_circuit.fanin(id));
            assert_eq!(via_stream.level_of(id), via_circuit.level_of(id));
            let mut sf = via_stream.fanout(id).to_vec();
            let mut cf = via_circuit.fanout(id).to_vec();
            sf.sort_unstable();
            cf.sort_unstable();
            assert_eq!(sf, cf);
        }
        assert_eq!(via_stream.inputs(), via_circuit.inputs());
        assert_eq!(via_stream.outputs(), via_circuit.outputs());

        let words = vec![0b1100u64, 0b1010u64];
        let (mut x, mut y) = (Vec::new(), Vec::new());
        via_stream.eval_full_into(&words, &mut x);
        via_circuit.eval_full_into(&words, &mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn incremental_kernel_runs_on_streamed_artifact() {
        let mut sb = StreamBuilder::new();
        let a = sb.add_input().unwrap();
        let b = sb.add_input().unwrap();
        let g = sb.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let h = sb.add_gate(GateKind::Xor, &[g, a]).unwrap();
        let cc = sb.finish(vec![a, b], vec![h]).unwrap();
        let mut scratch = EvalScratch::new(&cc);
        scratch.eval_full(&cc, &[0u64, !0u64]);
        let before = scratch.value(h);
        let diff = scratch.propagate(&cc, a, !0u64);
        assert_eq!(diff, before ^ scratch.value(h));
        scratch.revert();
        assert_eq!(scratch.value(h), before);
    }

    #[test]
    fn forward_reference_rejected() {
        let mut sb = StreamBuilder::new();
        let a = sb.add_input().unwrap();
        assert!(matches!(
            sb.add_gate(GateKind::And, &[a, 7]),
            Err(Error::UnknownNet(7))
        ));
        // Self-reference is a forward reference too (id not yet created).
        assert!(matches!(
            sb.add_gate(GateKind::Not, &[1]),
            Err(Error::UnknownNet(1))
        ));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut sb = StreamBuilder::new();
        let a = sb.add_input().unwrap();
        assert!(matches!(
            sb.add_gate(GateKind::Not, &[a, a]),
            Err(Error::BadArity { .. })
        ));
    }

    #[test]
    fn io_views_validated() {
        let mut sb = StreamBuilder::new();
        let a = sb.add_input().unwrap();
        let g = sb.add_gate(GateKind::Not, &[a]).unwrap();
        // Driven net listed as input.
        assert!(sb.finish(vec![a, g], vec![g]).is_err());

        let mut sb = StreamBuilder::new();
        let a = sb.add_input().unwrap();
        let _orphan = sb.add_input().unwrap();
        let g = sb.add_gate(GateKind::Not, &[a]).unwrap();
        // Undriven net missing from the input view.
        assert!(sb.finish(vec![a], vec![g]).is_err());

        let mut sb = StreamBuilder::new();
        let a = sb.add_input().unwrap();
        let g = sb.add_gate(GateKind::Not, &[a]).unwrap();
        // Unknown output id.
        assert!(matches!(
            sb.finish(vec![a], vec![g, 99]),
            Err(Error::UnknownNet(99))
        ));
    }

    #[test]
    fn levels_match_longest_path() {
        let mut sb = StreamBuilder::new();
        let a = sb.add_input().unwrap();
        let short = sb.add_gate(GateKind::Not, &[a]).unwrap();
        let long1 = sb.add_gate(GateKind::Buf, &[a]).unwrap();
        let long2 = sb.add_gate(GateKind::Not, &[long1]).unwrap();
        let out = sb.add_gate(GateKind::And, &[short, long2]).unwrap();
        assert_eq!(sb.level_of(out), 3);
        let cc = sb.finish(vec![a], vec![out]).unwrap();
        assert_eq!(cc.depth(), 3);
        assert_eq!(cc.level_of(out), 3);
    }
}
