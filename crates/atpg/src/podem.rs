//! PODEM deterministic test generation.
//!
//! PODEM (path-oriented decision making) searches the primary-input space
//! directly: pick an objective (excite the fault, then advance its effect
//! through the D-frontier), backtrace the objective to an unassigned input,
//! imply, and backtrack on failure. The search is complete, so an exhausted
//! decision stack proves the fault *redundant*; hitting the backtrack limit
//! *aborts* the fault. These are exactly the Atalanta outcome classes that
//! the paper's Table II counts.

use std::sync::Arc;

use netlist::{Circuit, CompiledCircuit, Error, GateKind, LevelQueue, NetId};

use crate::fault::{Fault, FaultSite};

/// Result of targeting one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// A detecting input assignment over the combinational inputs
    /// (don't-cares filled with 0).
    Test(Vec<bool>),
    /// Proven untestable.
    Redundant,
    /// Backtrack limit exhausted.
    Aborted,
}

/// A PODEM test generator over a shared [`CompiledCircuit`].
#[derive(Debug)]
pub struct Podem {
    cc: Arc<CompiledCircuit>,
    input_pos: Vec<Option<u32>>, // net index -> comb input position
    backtrack_limit: usize,
    state: Implication,
}

/// The dual (good/faulty) three-valued implication state and its reusable
/// event queue: implying a decision allocates nothing.
#[derive(Debug)]
struct Implication {
    good: Vec<Option<bool>>,
    faulty: Vec<Option<bool>>,
    /// Nets with a known fault effect (good != faulty, both assigned).
    effected: Vec<bool>,
    /// Count of *outputs* currently showing a fault effect.
    effect_at_outputs: usize,
    /// Event-queue scratch.
    scheduled: Vec<bool>,
    queue: LevelQueue,
}

/// AND-type three-valued evaluation: `Some(ctrl)` if some input carries
/// the controlling value `ctrl`, otherwise X if some input is X, otherwise
/// `Some(!ctrl)`.
fn controlled(vals: impl Iterator<Item = Option<bool>>, ctrl: bool) -> Option<bool> {
    let mut unknown = false;
    for v in vals {
        match v {
            Some(b) if b == ctrl => return Some(ctrl),
            None => unknown = true,
            Some(_) => {}
        }
    }
    if unknown {
        None
    } else {
        Some(!ctrl)
    }
}

/// Three-valued evaluation of one gate over its fanin values.
fn eval3(kind: GateKind, mut vals: impl Iterator<Item = Option<bool>>) -> Option<bool> {
    match kind {
        GateKind::And => controlled(vals, false),
        GateKind::Nand => controlled(vals, false).map(|b| !b),
        GateKind::Or => controlled(vals, true),
        GateKind::Nor => controlled(vals, true).map(|b| !b),
        GateKind::Xor | GateKind::Xnor => {
            let p = vals.try_fold(false, |acc, v| v.map(|b| acc ^ b))?;
            Some(if kind == GateKind::Xor { p } else { !p })
        }
        GateKind::Not => vals.next().expect("NOT takes one fanin").map(|b| !b),
        GateKind::Buf => vals.next().expect("BUFF takes one fanin"),
        GateKind::Const0 => Some(false),
        GateKind::Const1 => Some(true),
    }
}

impl Implication {
    fn new(cc: &CompiledCircuit) -> Self {
        let n = cc.num_nets();
        Implication {
            good: vec![None; n],
            faulty: vec![None; n],
            effected: vec![false; n],
            effect_at_outputs: 0,
            scheduled: vec![false; n],
            queue: LevelQueue::new(cc.depth()),
        }
    }

    /// Refreshes the effect bookkeeping for one net after its values change.
    fn refresh_effect(&mut self, cc: &CompiledCircuit, net: usize) {
        let now = matches!(
            (self.good[net], self.faulty[net]),
            (Some(a), Some(b)) if a != b
        );
        if now != self.effected[net] {
            self.effected[net] = now;
            if cc.is_output(net as u32) {
                if now {
                    self.effect_at_outputs += 1;
                } else {
                    self.effect_at_outputs -= 1;
                }
            }
        }
    }

    /// The good and faulty values of gate `net` (of kind `kind`) under
    /// `fault`, evaluated straight from the fanin slice.
    fn eval_net(
        &self,
        cc: &CompiledCircuit,
        kind: GateKind,
        net: usize,
        fault: &Fault,
    ) -> (Option<bool>, Option<bool>) {
        let fanin = cc.fanin(net as u32);
        let good = eval3(kind, fanin.iter().map(|&f| self.good[f as usize]));
        let faulty = match fault.site {
            FaultSite::Stem(n) if n.index() == net => Some(fault.stuck_at),
            FaultSite::Pin { gate_out, pin } if gate_out.index() == net => eval3(
                kind,
                fanin.iter().enumerate().map(|(k, &f)| {
                    if k == pin {
                        Some(fault.stuck_at)
                    } else {
                        self.faulty[f as usize]
                    }
                }),
            ),
            _ => eval3(kind, fanin.iter().map(|&f| self.faulty[f as usize])),
        };
        (good, faulty)
    }

    /// Recomputes one gate's good/faulty values under `fault`. Returns true
    /// when either value changed.
    fn recompute(&mut self, cc: &CompiledCircuit, net: usize, fault: &Fault) -> bool {
        let Some(kind) = cc.kind_of(net as u32) else {
            return false;
        };
        let (new_good, new_faulty) = self.eval_net(cc, kind, net, fault);
        let changed = new_good != self.good[net] || new_faulty != self.faulty[net];
        self.good[net] = new_good;
        self.faulty[net] = new_faulty;
        if changed {
            self.refresh_effect(cc, net);
        }
        changed
    }

    fn schedule_fanout(&mut self, cc: &CompiledCircuit, net: u32) {
        for &f in cc.fanout(net) {
            if !self.scheduled[f as usize] {
                self.scheduled[f as usize] = true;
                self.queue.push(cc.level_of(f), f);
            }
        }
    }

    /// Event-driven re-implication after one primary input changed. Events
    /// run in level order; any topological order reaches the same fixpoint.
    fn propagate_from(&mut self, cc: &CompiledCircuit, start_net: usize, fault: &Fault) {
        self.schedule_fanout(cc, start_net as u32);
        while let Some(n) = self.queue.pop() {
            self.scheduled[n as usize] = false;
            if self.recompute(cc, n as usize, fault) {
                self.schedule_fanout(cc, n);
            }
        }
    }

    /// Applies one primary-input change (assignment, flip or retraction)
    /// and re-implies incrementally.
    fn update_pi(&mut self, cc: &CompiledCircuit, idx: usize, value: Option<bool>, fault: &Fault) {
        let net = cc.inputs()[idx].index();
        self.good[net] = value;
        self.faulty[net] = value;
        if let FaultSite::Stem(n) = fault.site {
            if n.index() == net {
                self.faulty[net] = Some(fault.stuck_at);
            }
        }
        self.refresh_effect(cc, net);
        self.propagate_from(cc, net, fault);
    }

    /// Three-valued dual (good/faulty) implication from scratch with every
    /// input unassigned (used once per fault; decisions and backtracks then
    /// use [`Self::update_pi`]).
    fn imply(&mut self, cc: &CompiledCircuit, fault: &Fault) {
        self.effected.iter_mut().for_each(|b| *b = false);
        self.effect_at_outputs = 0;
        self.good.iter_mut().for_each(|v| *v = None);
        self.faulty.iter_mut().for_each(|v| *v = None);
        // A stem fault on an input stays forced: only gates are evaluated.
        if let FaultSite::Stem(n) = fault.site {
            self.faulty[n.index()] = Some(fault.stuck_at);
        }
        for &id in cc.order() {
            let i = id.index();
            let Some(kind) = cc.kind_of(i as u32) else {
                continue;
            };
            (self.good[i], self.faulty[i]) = self.eval_net(cc, kind, i, fault);
        }
        for i in 0..self.good.len() {
            self.refresh_effect(cc, i);
        }
    }
}

impl Podem {
    /// Compiles a generator with the given backtrack limit.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the circuit is cyclic.
    pub fn new(circuit: &Circuit, backtrack_limit: usize) -> Result<Self, Error> {
        Ok(Self::from_compiled(
            Arc::new(CompiledCircuit::compile(circuit)?),
            backtrack_limit,
        ))
    }

    /// Wraps an already-compiled artifact (shares it, no recompilation).
    pub fn from_compiled(cc: Arc<CompiledCircuit>, backtrack_limit: usize) -> Self {
        let mut input_pos = vec![None; cc.num_nets()];
        for (i, id) in cc.inputs().iter().enumerate() {
            input_pos[id.index()] = Some(i as u32);
        }
        let state = Implication::new(&cc);
        Podem {
            cc,
            input_pos,
            backtrack_limit,
            state,
        }
    }

    fn effect_at_output(&self) -> bool {
        debug_assert_eq!(
            self.state.effect_at_outputs,
            self.cc
                .outputs()
                .iter()
                .filter(|o| matches!(
                    (self.state.good[o.index()], self.state.faulty[o.index()]),
                    (Some(a), Some(b)) if a != b
                ))
                .count()
        );
        self.state.effect_at_outputs > 0
    }

    fn has_effect(&self, net: usize) -> bool {
        matches!(
            (self.state.good[net], self.state.faulty[net]),
            (Some(a), Some(b)) if a != b
        )
    }

    /// Picks the next objective `(net, value)` or `None` when the search
    /// state is hopeless (fault unexcitable / empty D-frontier).
    fn objective(&self, fault: &Fault) -> Option<(NetId, bool)> {
        // 1. Excitation: the good value at the fault site must become the
        //    complement of the stuck value.
        let (site_net, site_good) = match fault.site {
            FaultSite::Stem(n) => (n, self.state.good[n.index()]),
            FaultSite::Pin { gate_out, pin } => {
                let fanin = self.cc.fanin(gate_out.index() as u32);
                debug_assert!(!fanin.is_empty(), "pin fault implies gate");
                let n = NetId::from_index(fanin[pin] as usize);
                (n, self.state.good[n.index()])
            }
        };
        match site_good {
            None => return Some((site_net, !fault.stuck_at)),
            Some(v) if v == fault.stuck_at => return None, // unexcitable here
            _ => {}
        }
        // 2. Propagation: find a D-frontier gate — an output without effect
        //    yet, with at least one effected input — and set one of its X
        //    inputs to the non-controlling value. Candidates are the fanouts
        //    of effected nets (plus the faulted gate for pin faults), sorted
        //    by rank for determinism.
        let mut candidates: Vec<NetId> = Vec::new();
        for (n, &eff) in self.state.effected.iter().enumerate() {
            if eff {
                candidates.extend(
                    self.cc
                        .fanout(n as u32)
                        .iter()
                        .map(|&f| NetId::from_index(f as usize)),
                );
            }
        }
        if let FaultSite::Pin { gate_out, .. } = fault.site {
            candidates.push(gate_out);
        }
        candidates.sort_by_key(|n| self.cc.rank(n.index() as u32));
        candidates.dedup();
        for &id in &candidates {
            let Some(kind) = self.cc.kind_of(id.index() as u32) else {
                continue;
            };
            let fanin = self.cc.fanin(id.index() as u32);
            if self.has_effect(id.index()) {
                continue;
            }
            if self.state.good[id.index()].is_some() && self.state.faulty[id.index()].is_some() {
                continue; // both known & equal: effect blocked through here
            }
            let any_effected_input = fanin.iter().enumerate().any(|(k, &f)| {
                if self.state.effected[f as usize] {
                    return true;
                }
                // A pin fault's effect originates at the pin itself: the
                // faulted gate joins the D-frontier once its pin sees the
                // complement of the stuck value in the good machine.
                if let FaultSite::Pin { gate_out, pin } = fault.site {
                    gate_out == id
                        && pin == k
                        && self.state.good[f as usize] == Some(!fault.stuck_at)
                } else {
                    false
                }
            });
            if !any_effected_input {
                continue;
            }
            let x_input = fanin
                .iter()
                .find(|&&f| self.state.good[f as usize].is_none())
                .copied();
            if let Some(f) = x_input {
                let value = match kind {
                    GateKind::And | GateKind::Nand => true,
                    GateKind::Or | GateKind::Nor => false,
                    // XOR family has no controlling value; either binds.
                    _ => false,
                };
                return Some((NetId::from_index(f as usize), value));
            }
        }
        None
    }

    /// Walks an objective backwards to an unassigned primary input.
    fn backtrace(&self, mut net: NetId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            if let Some(pos) = self.input_pos[net.index()] {
                debug_assert!(self.state.good[net.index()].is_none());
                return Some((pos as usize, value));
            }
            let kind = self.cc.kind_of(net.index() as u32)?;
            let fanin = self.cc.fanin(net.index() as u32);
            let x_input = fanin
                .iter()
                .find(|&&f| self.state.good[f as usize].is_none())
                .copied()?;
            value = match kind {
                GateKind::And | GateKind::Buf => value,
                GateKind::Nand | GateKind::Not => !value,
                GateKind::Or => value,
                GateKind::Nor => !value,
                // Parity gates: target the same value (heuristic only;
                // completeness comes from backtracking).
                GateKind::Xor | GateKind::Xnor => value,
                GateKind::Const0 | GateKind::Const1 => return None,
            };
            net = NetId::from_index(x_input as usize);
        }
    }

    /// Attempts to generate a test for `fault`. `stop` is consulted before
    /// every decision and backtrack; once it returns `true` the search ends
    /// and returns `None`. Pass `&|| false` to search to completion.
    pub fn generate(&mut self, fault: &Fault, stop: &dyn Fn() -> bool) -> Option<Outcome> {
        let cc = &*self.cc;
        let mut pi: Vec<Option<bool>> = vec![None; cc.inputs().len()];
        // Decision stack: (pi index, current value, other value tried?).
        let mut decisions: Vec<(usize, bool, bool)> = Vec::new();
        let mut backtracks = 0usize;
        self.state.imply(cc, fault);
        loop {
            if stop() {
                return None;
            }
            if self.effect_at_output() {
                return Some(Outcome::Test(
                    pi.iter().map(|v| v.unwrap_or(false)).collect(),
                ));
            }
            let advance = self
                .objective(fault)
                .and_then(|(net, val)| self.backtrace(net, val));
            match advance {
                Some((idx, val)) => {
                    debug_assert!(pi[idx].is_none());
                    pi[idx] = Some(val);
                    decisions.push((idx, val, false));
                    self.state.update_pi(cc, idx, Some(val), fault);
                }
                None => {
                    // Backtrack: retract exhausted decisions, then flip the
                    // most recent untried one in a single update.
                    loop {
                        match decisions.pop() {
                            None => return Some(Outcome::Redundant),
                            Some((idx, _, true)) => {
                                pi[idx] = None;
                                self.state.update_pi(cc, idx, None, fault);
                            }
                            Some((idx, val, false)) => {
                                backtracks += 1;
                                if backtracks > self.backtrack_limit {
                                    return Some(Outcome::Aborted);
                                }
                                pi[idx] = Some(!val);
                                decisions.push((idx, !val, true));
                                self.state.update_pi(cc, idx, Some(!val), fault);
                                break;
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsim::FaultSim;
    use netlist::samples;

    fn check_all_faults(c: &Circuit) -> (usize, usize, usize) {
        let faults = crate::collapse(c, crate::enumerate_faults(c));
        let mut podem = Podem::new(c, 10_000).unwrap();
        let mut fsim = FaultSim::new(c).unwrap();
        let (mut tested, mut redundant, mut aborted) = (0, 0, 0);
        for f in &faults {
            match podem.generate(f, &|| false).unwrap() {
                Outcome::Test(pattern) => {
                    assert!(
                        fsim.detects(&pattern, f),
                        "PODEM test {pattern:?} fails to detect {f} in {}",
                        c.name()
                    );
                    tested += 1;
                }
                Outcome::Redundant => redundant += 1,
                Outcome::Aborted => aborted += 1,
            }
        }
        (tested, redundant, aborted)
    }

    #[test]
    fn c17_all_faults_tested() {
        let (tested, redundant, aborted) = check_all_faults(&samples::c17());
        assert_eq!(redundant, 0);
        assert_eq!(aborted, 0);
        assert!(tested > 0);
    }

    #[test]
    fn adder_all_faults_tested() {
        let (_, redundant, aborted) = check_all_faults(&samples::ripple_adder(3));
        assert_eq!(redundant, 0);
        assert_eq!(aborted, 0);
    }

    #[test]
    fn majority_and_mux_tested() {
        for c in [samples::majority3(), samples::mux2()] {
            let (_, redundant, aborted) = check_all_faults(&c);
            assert_eq!(redundant, 0, "{}", c.name());
            assert_eq!(aborted, 0, "{}", c.name());
        }
    }

    #[test]
    fn random_circuits_tests_verified_by_fault_sim() {
        for seed in 0..4 {
            let c = netlist::generate::random_comb(seed, 8, 4, 60).unwrap();
            // check_all_faults asserts every returned test really detects.
            let (tested, _, aborted) = check_all_faults(&c);
            assert!(tested > 0);
            assert_eq!(aborted, 0, "tiny circuits should not abort");
        }
    }

    #[test]
    fn redundant_fault_proven() {
        // y = a & (a | b): b's OR pin is redundant.
        let mut c = netlist::Circuit::new("red");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let o = c.add_gate(GateKind::Or, vec![a, b], "o").unwrap();
        let y = c.add_gate(GateKind::And, vec![a, o], "y").unwrap();
        c.mark_output(y);
        let mut podem = Podem::new(&c, 10_000).unwrap();
        // b stuck-at-1: to detect we need a=1 (to sensitize the AND) and
        // o to differ; with a=1, o=1 regardless of b -> redundant.
        let f = Fault::stem_sa1(b);
        assert_eq!(podem.generate(&f, &|| false), Some(Outcome::Redundant));
    }

    /// `f = AND(XOR(a..), XNOR(a..))` over `n` inputs: `f` is constant 0,
    /// and PODEM's three-valued implication cannot see it before every
    /// input is assigned, so proving `f` stuck-at-0 redundant takes an
    /// exhaustive search of all `2^n` assignments.
    fn parity_contradiction(n: usize) -> (Circuit, Fault) {
        let mut c = netlist::Circuit::new("parity");
        let a: Vec<NetId> = (0..n).map(|i| c.add_input(format!("a{i}"))).collect();
        let p = c.add_gate(GateKind::Xor, a.clone(), "p").unwrap();
        let q = c.add_gate(GateKind::Xnor, a, "q").unwrap();
        let f = c.add_gate(GateKind::And, vec![p, q], "f").unwrap();
        c.mark_output(f);
        (c, Fault::stem_sa0(f))
    }

    #[test]
    fn stop_ends_an_exhaustive_search() {
        let (c, f) = parity_contradiction(6);
        let mut podem = Podem::new(&c, usize::MAX).unwrap();
        assert_eq!(podem.generate(&f, &|| false), Some(Outcome::Redundant));

        // At 40 inputs the search would run ~2^40 backtracks; the stop
        // check ends it at the 1000th decision or backtrack.
        let (c, f) = parity_contradiction(40);
        let mut podem = Podem::new(&c, usize::MAX).unwrap();
        let calls = std::cell::Cell::new(0u32);
        let stop = || {
            calls.set(calls.get() + 1);
            calls.get() >= 1000
        };
        assert_eq!(podem.generate(&f, &stop), None);
        assert_eq!(calls.get(), 1000);
    }

    #[test]
    fn tiny_backtrack_limit_aborts_or_solves() {
        let c = netlist::generate::random_comb(5, 10, 4, 100).unwrap();
        let faults = crate::collapse(&c, crate::enumerate_faults(&c));
        let mut podem = Podem::new(&c, 0).unwrap();
        let mut outcomes = std::collections::HashSet::new();
        for f in faults.iter().take(40) {
            match podem.generate(f, &|| false).unwrap() {
                Outcome::Test(_) => outcomes.insert("test"),
                Outcome::Redundant => outcomes.insert("red"),
                Outcome::Aborted => outcomes.insert("abort"),
            };
        }
        // With a zero budget the generator must still terminate; it may
        // still find easy tests that need no backtracking.
        assert!(!outcomes.is_empty());
    }

    #[test]
    fn input_stem_fault_test() {
        let c = samples::majority3();
        let a = c.primary_inputs()[0];
        let mut podem = Podem::new(&c, 1000).unwrap();
        let mut fsim = FaultSim::new(&c).unwrap();
        for f in [Fault::stem_sa0(a), Fault::stem_sa1(a)] {
            match podem.generate(&f, &|| false).unwrap() {
                Outcome::Test(p) => assert!(fsim.detects(&p, &f)),
                other => panic!("expected test for {f}, got {other:?}"),
            }
        }
    }
}
