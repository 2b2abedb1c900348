//! The differential battery over the simulation engines.
//!
//! One run cross-checks, on a single circuit:
//!
//! 1. **full sweep vs naive** — [`netlist::CompiledCircuit::eval_full_into`]
//!    against [`crate::reference::eval_nets`], every net, 64 lanes;
//! 2. **incremental vs naive** — a deterministic walk of single-input
//!    changes through [`netlist::EvalScratch::propagate`], comparing every
//!    net *and* the returned `out_diff` mask against the naive recomputation
//!    of the proposed state;
//! 3. **revert snapshots** — every other step is reverted, and the scratch
//!    must restore the committed state bit-exactly;
//! 4. **four-lane sweep vs naive** — the full sweep over `[u64; 4]` lane
//!    blocks (the Hamming-distance sweep's width), every net, each lane
//!    against the naive interpreter on that lane's words.
//!
//! The same entry point doubles as the engine-mutant executioner: an
//! [`EngineFault`] is injected into the compiled artifact (or the scratch's
//! undo log) before the walk, and the battery must notice. The walk flips
//! every input in round-robin order so fanout-level faults cannot hide
//! behind untouched inputs.

use netlist::rng::SplitMix64;
use netlist::{Circuit, CompiledCircuit, EvalScratch};

/// A semantic fault injected into the compiled engine under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineFault {
    /// Flip one gate's function to its complement (And↔Or, Xor↔Xnor, …) on
    /// the topologically last gate.
    FlipKind,
    /// Rewire one fanin edge of the topologically last multi-fanin gate to
    /// a primary input it did not read.
    CrossFanin,
    /// Swap a dependent (producer, consumer) pair in the cached
    /// levelization order, so the full sweep reads a stale value.
    SwapOrder,
    /// Drop one combinational output from the output mask, corrupting the
    /// `out_diff` change reporting of the incremental kernel.
    ClearOutputMask,
    /// Detach a primary input's fanout edges, so incremental propagation
    /// never wakes its readers.
    RedirectFanout,
    /// Drop the first undo-log record, so the next revert leaves a stale
    /// net behind.
    DropUndo,
    /// Skew one gate's CSR fanin-start offset by one — the classic
    /// off-by-one a streaming compile can plant in the flat pools: the gate
    /// loses its first fanin and its id-predecessor gains a stray one.
    SkewFaninStart,
}

/// All engine faults, in catalog order.
pub const ENGINE_FAULTS: [EngineFault; 7] = [
    EngineFault::FlipKind,
    EngineFault::CrossFanin,
    EngineFault::SwapOrder,
    EngineFault::ClearOutputMask,
    EngineFault::RedirectFanout,
    EngineFault::DropUndo,
    EngineFault::SkewFaninStart,
];

/// Injects a compiled-artifact fault. Returns `false` when the circuit has
/// no applicable site (e.g. no gate whose fanin is itself a gate for
/// [`EngineFault::SwapOrder`]).
fn inject_compiled(fault: EngineFault, cc: &mut CompiledCircuit) -> bool {
    let order: Vec<u32> = cc.order().iter().map(|id| id.index() as u32).collect();
    match fault {
        EngineFault::FlipKind => {
            for &n in order.iter().rev() {
                if cc.kind_of(n).is_some() {
                    return cc.mutate_flip_kind(n);
                }
            }
            false
        }
        EngineFault::CrossFanin => {
            for &n in order.iter().rev() {
                if cc.kind_of(n).is_none() || cc.fanin(n).is_empty() {
                    continue;
                }
                let old = cc.fanin(n)[0];
                let new = cc
                    .inputs()
                    .iter()
                    .map(|id| id.index() as u32)
                    .find(|&i| i != old);
                if let Some(new) = new {
                    return cc.mutate_set_fanin(n, 0, new);
                }
            }
            false
        }
        EngineFault::SwapOrder => {
            // A producer that is itself a gate: inputs are written before
            // the order walk, so only gate-to-gate dependencies can be
            // broken by reordering.
            for &n in order.iter().rev() {
                if cc.kind_of(n).is_none() {
                    continue;
                }
                if let Some(&f) = cc
                    .fanin(n)
                    .iter()
                    .find(|&&f| cc.kind_of(f).is_some())
                {
                    cc.mutate_swap_order(cc.rank(f) as usize, cc.rank(n) as usize);
                    return true;
                }
            }
            false
        }
        EngineFault::ClearOutputMask => {
            // Target the last *uniquely listed* output so the expected
            // out_diff genuinely loses a contribution.
            let outs: Vec<u32> = cc.outputs().iter().map(|id| id.index() as u32).collect();
            for &o in outs.iter().rev() {
                if outs.iter().filter(|&&x| x == o).count() == 1 {
                    return cc.mutate_clear_output_mask(o);
                }
            }
            false
        }
        EngineFault::RedirectFanout => {
            let ins: Vec<u32> = cc.inputs().iter().map(|id| id.index() as u32).collect();
            for &i in &ins {
                let edges = cc.fanout(i).len();
                if edges > 0 {
                    // Detach every edge: self-targets are inert (popped
                    // events on undriven nets are skipped).
                    for k in 0..edges {
                        cc.mutate_redirect_fanout(i, k, i);
                    }
                    return true;
                }
            }
            false
        }
        EngineFault::SkewFaninStart => {
            // A multi-fanin gate, so the skewed slice is still non-empty
            // and the lost first fanin genuinely changes the function.
            for &n in order.iter().rev() {
                if cc.kind_of(n).is_some() && cc.fanin(n).len() >= 2 {
                    return cc.mutate_skew_fanin_start(n);
                }
            }
            false
        }
        EngineFault::DropUndo => unreachable!("DropUndo targets the scratch, not the artifact"),
    }
}

fn compare_nets(stage: &str, step: usize, got: &[u64], want: &[u64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{stage} (step {step}): value array length {} vs {}",
            got.len(),
            want.len()
        ));
    }
    for (net, (&g, &w)) in got.iter().zip(want).enumerate() {
        if g != w {
            return Err(format!(
                "{stage} (step {step}): net {net} disagrees: {g:#018x} vs naive {w:#018x}"
            ));
        }
    }
    Ok(())
}

/// Runs the differential battery on one circuit.
///
/// - `fault = None`: conformance mode. `Ok(true)` means every engine agreed
///   on every net of every step; `Err` is a genuine engine inconsistency.
/// - `fault = Some(_)`: mutation mode. `Err` is the *desired* outcome (the
///   battery detected the mutant); `Ok(true)` means the mutant survived
///   this circuit; `Ok(false)` means the fault had no applicable site here.
///
/// The walk is fully deterministic in `(circuit, seed, steps)`.
pub fn differential_check(
    c: &Circuit,
    fault: Option<EngineFault>,
    seed: u64,
    steps: usize,
) -> Result<bool, String> {
    let mut cc = CompiledCircuit::compile(c).map_err(|e| format!("compile failed: {e:?}"))?;
    if let Some(f) = fault {
        if f != EngineFault::DropUndo && !inject_compiled(f, &mut cc) {
            return Ok(false);
        }
    }
    let input_nets: Vec<u32> = cc.inputs().iter().map(|id| id.index() as u32).collect();
    let n_inputs = input_nets.len();
    assert!(n_inputs > 0, "battery circuits have inputs");
    let mut rng = SplitMix64::new(seed ^ 0x5EED_D1FF);

    let mut inwords: Vec<u64> = (0..n_inputs).map(|_| rng.next_u64()).collect();

    // Leg 1 vs leg 2: one full sweep against the naive interpreter.
    let mut full = Vec::new();
    cc.eval_full_into(&inwords, &mut full);
    let mut cur_naive = crate::reference::eval_nets(c, &inwords);
    compare_nets("full sweep vs naive", 0, &full, &cur_naive)?;

    // Leg 3: the incremental walk. Base state, then single-input changes,
    // alternating revert (even steps) and commit (odd steps) so both undo
    // paths stay exercised — revert first, so a dropped undo record is
    // observable before it gets absolved by a commit.
    let mut scratch = EvalScratch::new(&cc);
    scratch.eval_full(&cc, &inwords);
    if fault == Some(EngineFault::DropUndo) {
        scratch.sabotage_drop_undo(0);
    }
    let outputs = c.comb_outputs();
    for step in 0..steps {
        let i = step % n_inputs;
        let flip = rng.next_u64() | 1; // nonzero: every step changes lanes
        let w = inwords[i] ^ flip;
        let diff = scratch.propagate(&cc, input_nets[i], w);

        let mut proposed = inwords.clone();
        proposed[i] = w;
        let naive = crate::reference::eval_nets(c, &proposed);
        let mut expected_diff = 0u64;
        for o in &outputs {
            expected_diff |= naive[o.index()] ^ cur_naive[o.index()];
        }
        if diff != expected_diff {
            return Err(format!(
                "out_diff mask (step {step}): propagate returned {diff:#018x}, naive expects {expected_diff:#018x}"
            ));
        }
        compare_nets("incremental vs naive", step, scratch.values(), &naive)?;

        if step % 2 == 0 {
            scratch.revert();
            compare_nets("revert snapshot", step, scratch.values(), &cur_naive)?;
        } else {
            scratch.commit();
            inwords = proposed;
            cur_naive = naive;
        }
    }

    // Leg 4: one full sweep over four-word lane blocks, each lane against
    // the naive interpreter on that lane's words.
    let blocks: Vec<[u64; 4]> = (0..n_inputs)
        .map(|_| std::array::from_fn(|_| rng.next_u64()))
        .collect();
    let mut wide = Vec::new();
    cc.eval_full_into(&blocks, &mut wide);
    for lane in 0..4 {
        let words: Vec<u64> = blocks.iter().map(|b| b[lane]).collect();
        let got: Vec<u64> = wide.iter().map(|b| b[lane]).collect();
        let stage = format!("four-lane sweep lane {lane} vs naive");
        compare_nets(&stage, 0, &got, &crate::reference::eval_nets(c, &words))?;
    }
    Ok(true)
}

/// The hand-crafted engine-battery circuit: small, independent output
/// cones and gate-to-gate dependencies, so *every* [`EngineFault`] has an
/// applicable site and a deterministic observation path (e.g. the last
/// output `Xor(c, d)` changes alone when input `c` flips, which is what
/// convicts [`EngineFault::ClearOutputMask`]).
pub fn crafted_engine_circuit() -> Circuit {
    let mut c = Circuit::new("conformance_engine_crafted");
    let a = c.add_input("a");
    let b = c.add_input("b");
    let ci = c.add_input("c");
    let d = c.add_input("d");
    let n1 = c.add_gate(netlist::GateKind::And, vec![a, b], "n1").unwrap();
    let n2 = c.add_gate(netlist::GateKind::Or, vec![n1, ci], "n2").unwrap();
    let n3 = c.add_gate(netlist::GateKind::Not, vec![n2], "n3").unwrap();
    let n4 = c.add_gate(netlist::GateKind::Xor, vec![n3, a], "n4").unwrap();
    let o1 = c.add_gate(netlist::GateKind::Nand, vec![n4, d], "o1").unwrap();
    let o2 = c.add_gate(netlist::GateKind::Xor, vec![ci, d], "o2").unwrap();
    c.mark_output(o1);
    c.mark_output(o2);
    c.validate().expect("crafted circuit is well-formed");
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_engines_agree_on_crafted_circuit() {
        let c = crafted_engine_circuit();
        assert_eq!(differential_check(&c, None, 7, 16), Ok(true));
    }

    #[test]
    fn every_engine_fault_is_detected_on_crafted_circuit() {
        let c = crafted_engine_circuit();
        for fault in ENGINE_FAULTS {
            let r = differential_check(&c, Some(fault), 7, 16);
            assert!(
                r.is_err(),
                "engine fault {fault:?} survived the crafted battery: {r:?}"
            );
        }
    }
}
