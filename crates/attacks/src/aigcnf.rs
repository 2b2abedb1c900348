//! AIG-reduced CNF encoding: the one encoder behind every SAT-based attack
//! (the SAT family, DynUnlock, key sensitization) and [`crate::verify`].
//!
//! Rather than Tseitin-translating the raw netlist gate by gate, which
//! would add a full, unreduced circuit clone per miter copy and per I/O
//! constraint, all encoding routes through the workspace's and-inverter
//! graph ([`aigsynth::Aig`]). That buys five structural reductions before a
//! single clause is emitted:
//!
//! 1. **Structural hashing** — identical subcircuits collapse to one AIG
//!    node, so shared logic is encoded once per copy.
//! 2. **Constant propagation** — inputs bound to constants (every per-DIP
//!    I/O constraint fixes the data inputs) cofactor the graph down to the
//!    key-dependent residue at encode time; the data-side logic folds away
//!    entirely instead of becoming thousands of unit-implied clauses.
//! 3. **Cone-of-influence restriction** — the miter is built only over
//!    outputs whose transitive fanin contains a key input; key-independent
//!    outputs can never distinguish two keys. Within the key-affected
//!    cones, nodes *below* the key frontier are encoded once and shared
//!    between the two (or four) key copies.
//! 4. **Polarity-aware (Plaisted–Greenbaum) emission** — each AND node gets
//!    only the implication clauses for the polarities actually demanded by
//!    the constraints above it, roughly halving clause count. Polarity
//!    demand is tracked per copy, so later constraints (e.g. an oracle
//!    response fixing an output the other way) incrementally add the
//!    missing direction.
//! 5. **XOR-cluster recovery** — the AIG lowers `a ^ b` to three AND
//!    nodes whose per-node clauses cannot propagate backwards (knowing
//!    the XOR output and one input implies nothing about the other input
//!    until a full case split). Weighted locking splices an XOR/XNOR key
//!    gate onto every locked net, so this pattern sits on the attack's
//!    critical path; the encoder detects the two-level AND shape and
//!    emits the flat four-clause XOR gadget, restoring two-way
//!    propagation.
//!
//! Soundness: Plaisted–Greenbaum preserves satisfiability, and any model of
//! the emitted clauses, restricted to the input/key variables, satisfies the
//! original circuit constraints — so extracted DIPs and keys are exactly as
//! valid as under the full Tseitin encoding, while UNSAT ("no DIP remains")
//! verdicts carry over unchanged.

use aigsynth::{Aig, AigLit};
use cdcl::{Lit, Solver, Var};
use locking::LockedCircuit;
use netlist::NetId;

/// Clause-polarity bit: the gate variable may be asserted true, so the
/// clauses `y → fanins` must exist.
const POS: u8 = 1;
/// Clause-polarity bit: the gate variable may be asserted false.
const NEG: u8 = 2;
/// Both polarities.
const BOTH: u8 = POS | NEG;

#[inline]
fn flip(mask: u8) -> u8 {
    ((mask & POS) << 1) | ((mask & NEG) >> 1)
}

/// Encoded value of an AIG literal in one copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EncVal {
    Const(bool),
    Lit(Lit),
}

/// Per-node encoding state within one copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Not yet reached by any constraint.
    Unvisited,
    /// Folded to a constant (data cofactoring or AIG constant).
    Const(bool),
    /// A bound input: the literal needs no defining clauses.
    Leaf(Lit),
    /// Folded onto another AIG literal (e.g. `AND(x, TRUE) = x`).
    Alias(AigLit),
    /// A real AND gate with a fresh solver variable; `emitted` tracks which
    /// polarity clauses have been added so far.
    Gate { lit: Lit, emitted: u8 },
    /// A recognized XOR cluster `a ^ b` (the AIG builds XOR from three AND
    /// nodes, which encodes to clauses that cannot propagate backwards —
    /// e.g. `z=1, a=1` no longer implies `b=0`). Locking splices XOR/XNOR
    /// key gates on every locked net, so those clusters sit exactly where
    /// the miter search happens; emitting the flat 4-clause XOR gadget
    /// restores two-way unit propagation there.
    Xor {
        lit: Lit,
        a: AigLit,
        b: AigLit,
        emitted: u8,
    },
}

/// Matches the structural-hash shape of [`aigsynth::Aig::xor_lit`]:
/// `n = !(u·v) · !(!u·!v) = u ^ v`. Returns the XOR operands.
fn xor_fanins(aig: &Aig, n: usize) -> Option<(AigLit, AigLit)> {
    let (p, q) = aig.and_fanins(n)?;
    if !p.complemented() || !q.complemented() {
        return None;
    }
    let (a1, b1) = aig.and_fanins(p.node())?;
    let (a2, b2) = aig.and_fanins(q.node())?;
    if (a2 == !a1 && b2 == !b1) || (a2 == !b1 && b2 == !a1) {
        Some((a1, b1))
    } else {
        None
    }
}

/// The compiled circuit: one strashed AIG plus the key/data input split and
/// the key cone-of-influence, shared by every copy an attack encodes.
#[derive(Debug, Clone)]
struct Compiled {
    aig: Aig,
    data_inputs: Vec<NetId>,
    /// Per AIG input: `Ok(j)` = j-th data input, `Err(j)` = j-th key input.
    input_src: Vec<Result<usize, usize>>,
    /// Per AIG node: whether a key input lies in its cone.
    key_dep: Vec<bool>,
    /// Output positions (into `comb_outputs`) whose cones contain a key.
    key_dep_outputs: Vec<usize>,
    outputs: Vec<NetId>,
}

impl Compiled {
    fn new(locked: &LockedCircuit) -> Self {
        let c = &locked.circuit;
        let aig = Aig::from_circuit(c).expect("attack targets are acyclic");
        let comb_inputs = c.comb_inputs();
        let outputs = c.comb_outputs();
        let mut data_inputs = Vec::new();
        let mut input_src = Vec::with_capacity(comb_inputs.len());
        let mut key_flag = vec![false; comb_inputs.len()];
        for (i, &net) in comb_inputs.iter().enumerate() {
            match locked.key_inputs.iter().position(|&k| k == net) {
                Some(j) => {
                    key_flag[i] = true;
                    input_src.push(Err(j));
                }
                None => {
                    input_src.push(Ok(data_inputs.len()));
                    data_inputs.push(net);
                }
            }
        }
        let key_dep = aig.input_dependence(&key_flag);
        let key_dep_outputs = aig
            .outputs()
            .iter()
            .enumerate()
            .filter(|(_, l)| key_dep[l.node()])
            .map(|(j, _)| j)
            .collect();
        Compiled {
            aig,
            data_inputs,
            input_src,
            key_dep,
            key_dep_outputs,
            outputs,
        }
    }
}

/// Test-only semantic faults for the conformance mutation-kill harness
/// (`crates/conformance`). Each variant plants one deliberate encoding bug
/// so the harness can prove the conformance battery detects it. Production
/// code must never install one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncoderSabotage {
    /// AND-gate clause emission flips the polarity of the first fanin
    /// literal in the positive-polarity clauses.
    FlipGateClauseLit,
    /// [`ReducedEncoder::assert_miter`] silently omits the last
    /// key-dependent output from the difference disjunction.
    SkipMiterOutput,
    /// The flat XOR gadget flips the polarity of one literal in its first
    /// positive-polarity clause.
    FlipXorGadgetLit,
}

/// Multi-copy encoder for one locked circuit: the symbolic copies share the
/// data variables (and the entire key-independent cone), differing only in
/// their key variables. See the [module docs](self) for the reduction
/// pipeline.
#[derive(Debug, Clone)]
pub struct ReducedEncoder {
    cnf: Compiled,
    /// Key-independent cone over the symbolic data vars, shared by copies.
    shared: Vec<Slot>,
    /// Key-dependent cone per copy.
    copies: Vec<Vec<Slot>>,
    data_vars: Vec<Var>,
    key_vars: Vec<Vec<Var>>,
    /// Test-only fault injection, always `None` in production use.
    sabotage: Option<EncoderSabotage>,
}

impl ReducedEncoder {
    /// Compiles `locked` and allocates shared data variables plus
    /// `n_copies` independent key-variable sets in `solver`.
    pub fn new(locked: &LockedCircuit, solver: &mut Solver, n_copies: usize) -> Self {
        let cnf = Compiled::new(locked);
        let data_vars: Vec<Var> = cnf.data_inputs.iter().map(|_| solver.new_var()).collect();
        let key_vars: Vec<Vec<Var>> = (0..n_copies)
            .map(|_| locked.key_inputs.iter().map(|_| solver.new_var()).collect())
            .collect();
        let shared = Self::input_slots(&cnf, |src| match src {
            Ok(j) => Slot::Leaf(data_vars[j].positive()),
            // Key inputs are key-dependent by definition, so the shared
            // cone never reads them; poison them to catch bugs.
            Err(_) => Slot::Unvisited,
        });
        let copies = (0..n_copies)
            .map(|k| {
                Self::input_slots(&cnf, |src| match src {
                    Ok(j) => Slot::Leaf(data_vars[j].positive()),
                    Err(j) => Slot::Leaf(key_vars[k][j].positive()),
                })
            })
            .collect();
        ReducedEncoder {
            cnf,
            shared,
            copies,
            data_vars,
            key_vars,
            sabotage: None,
        }
    }

    /// Test-only mutation hook: installs (or clears) an [`EncoderSabotage`]
    /// fault on this encoder instance. Only the conformance mutation-kill
    /// harness calls this.
    pub fn set_sabotage(&mut self, sabotage: Option<EncoderSabotage>) {
        self.sabotage = sabotage;
    }

    fn input_slots(cnf: &Compiled, mut bind: impl FnMut(Result<usize, usize>) -> Slot) -> Vec<Slot> {
        let mut slots = vec![Slot::Unvisited; cnf.aig.num_nodes()];
        slots[0] = Slot::Const(false); // AIG node 0 is constant FALSE
        for (n, slot) in slots.iter_mut().enumerate() {
            if let Some(i) = cnf.aig.input_of(n) {
                *slot = bind(cnf.input_src[i]);
            }
        }
        slots
    }

    /// The non-key combinational inputs, in encoding order.
    pub fn data_inputs(&self) -> &[NetId] {
        &self.cnf.data_inputs
    }

    /// The combinational outputs (all of them, in `comb_outputs` order).
    pub fn outputs(&self) -> &[NetId] {
        &self.cnf.outputs
    }

    /// Number of outputs whose cone contains a key input — the only ones a
    /// miter needs to compare.
    pub fn num_key_dep_outputs(&self) -> usize {
        self.cnf.key_dep_outputs.len()
    }

    /// The shared data variables, aligned with [`data_inputs`](Self::data_inputs).
    pub fn data_vars(&self) -> &[Var] {
        &self.data_vars
    }

    /// The key variables of one copy, aligned with the locked circuit's
    /// `key_inputs`.
    pub fn key_vars(&self, copy: usize) -> &[Var] {
        &self.key_vars[copy]
    }

    /// Asserts that copies `a` and `b` differ on at least one key-dependent
    /// output. `extra` is appended to the disjunction (the activation
    /// literal that lets the same solver later run extraction queries with
    /// the miter disabled).
    pub fn assert_miter(&mut self, solver: &mut Solver, a: usize, b: usize, extra: Option<Lit>) {
        let mut diffs: Vec<Lit> = Vec::with_capacity(self.cnf.key_dep_outputs.len() + 1);
        // Fault injection (test-only): drop the last key-dependent output.
        let n_outputs = if self.sabotage == Some(EncoderSabotage::SkipMiterOutput) {
            self.cnf.key_dep_outputs.len().saturating_sub(1)
        } else {
            self.cnf.key_dep_outputs.len()
        };
        for idx in 0..n_outputs {
            let j = self.cnf.key_dep_outputs[idx];
            let root = self.cnf.aig.outputs()[j];
            // The difference indicator constrains both sides in both
            // directions, so demand both polarities.
            let o1 = self.encode(solver, a, root, BOTH);
            let o2 = self.encode(solver, b, root, BOTH);
            match (o1, o2) {
                (EncVal::Const(x), EncVal::Const(y)) => {
                    if x != y {
                        // Cannot happen for two copies of one circuit, but
                        // keep the encoding total: a constant difference.
                        let t = solver.new_var().positive();
                        solver.add_clause(&[t]);
                        diffs.push(t);
                    }
                }
                (EncVal::Lit(l), EncVal::Const(c)) | (EncVal::Const(c), EncVal::Lit(l)) => {
                    diffs.push(if c { !l } else { l });
                }
                (EncVal::Lit(l1), EncVal::Lit(l2)) => {
                    if l1 == l2 {
                        continue; // structurally identical: never differs
                    }
                    if l1 == !l2 {
                        let t = solver.new_var().positive();
                        solver.add_clause(&[t]);
                        diffs.push(t);
                        continue;
                    }
                    diffs.push(xor_pos(solver, l1, l2));
                }
            }
        }
        if let Some(e) = extra {
            diffs.push(e);
        }
        solver.add_clause(&diffs);
    }

    /// Constrains copy `copy` to reproduce the oracle response `y` on the
    /// data input `x`: the data cone is cofactored under the constants of
    /// `x`, leaving only the key-dependent residue as fresh clauses.
    /// Returns `false` if the constraint made the solver unsatisfiable
    /// (inconsistent oracle).
    pub fn add_io_constraint(
        &mut self,
        solver: &mut Solver,
        copy: usize,
        x: &[bool],
        y: &[bool],
    ) -> bool {
        assert_eq!(x.len(), self.cnf.data_inputs.len(), "input width mismatch");
        assert_eq!(y.len(), self.cnf.outputs.len(), "output width mismatch");
        // A fresh cofactor scope: data inputs become constants, so none of
        // the symbolic caches apply.
        let key_vars = &self.key_vars[copy];
        let mut slots = Self::input_slots(&self.cnf, |src| match src {
            Ok(j) => Slot::Const(x[j]),
            Err(j) => Slot::Leaf(key_vars[j].positive()),
        });
        let mut scope = Scope {
            aig: &self.cnf.aig,
            key_dep: None,
            shared: &mut slots,
            own: None,
            sabotage: self.sabotage,
        };
        let mut ok = true;
        for (&root, &want) in self.cnf.aig.outputs().iter().zip(y) {
            // Only the demanded polarity of each output cone is emitted.
            match scope.encode(solver, root, if want { POS } else { NEG }) {
                EncVal::Const(b) => {
                    if b != want {
                        ok &= solver.add_clause(&[]);
                    }
                }
                EncVal::Lit(l) => {
                    ok &= solver.add_clause(&[if want { l } else { !l }]);
                }
            }
        }
        ok
    }

    /// Encodes output cones of one symbolic copy (shared cone split off by
    /// key dependence).
    fn encode(&mut self, solver: &mut Solver, copy: usize, root: AigLit, mask: u8) -> EncVal {
        let mut scope = Scope {
            aig: &self.cnf.aig,
            key_dep: Some(&self.cnf.key_dep),
            shared: &mut self.shared,
            own: Some(&mut self.copies[copy]),
            sabotage: self.sabotage,
        };
        scope.encode(solver, root, mask)
    }
}

/// A borrowed encoding scope: either a single slot table (cofactor scopes)
/// or a shared/per-copy split keyed by the key cone-of-influence.
struct Scope<'a> {
    aig: &'a Aig,
    key_dep: Option<&'a [bool]>,
    shared: &'a mut Vec<Slot>,
    own: Option<&'a mut Vec<Slot>>,
    /// Test-only fault injection inherited from the owning encoder.
    sabotage: Option<EncoderSabotage>,
}

impl Scope<'_> {
    #[inline]
    fn is_own(&self, n: usize) -> bool {
        matches!(self.key_dep, Some(dep) if dep[n]) && self.own.is_some()
    }

    #[inline]
    fn slot(&self, n: usize) -> Slot {
        if self.is_own(n) {
            self.own.as_ref().expect("checked")[n]
        } else {
            self.shared[n]
        }
    }

    #[inline]
    fn set(&mut self, n: usize, s: Slot) {
        if self.is_own(n) {
            self.own.as_mut().expect("checked")[n] = s;
        } else {
            self.shared[n] = s;
        }
    }

    /// Resolves an AIG literal to its encoded value, following aliases.
    fn resolve(&self, l: AigLit) -> EncVal {
        let mut cur = l;
        loop {
            match self.slot(cur.node()) {
                Slot::Const(b) => return EncVal::Const(b ^ cur.complemented()),
                Slot::Leaf(lit) | Slot::Gate { lit, .. } | Slot::Xor { lit, .. } => {
                    return EncVal::Lit(if cur.complemented() { !lit } else { lit });
                }
                Slot::Alias(of) => {
                    cur = if cur.complemented() { !of } else { of };
                }
                Slot::Unvisited => unreachable!("resolve before compute"),
            }
        }
    }

    /// Phase A: bottom-up value computation (with constant folding and
    /// aliasing) over the cone of `root`. Allocates gate variables but adds
    /// no clauses yet.
    fn compute(&mut self, solver: &mut Solver, root: usize) {
        if self.slot(root) != Slot::Unvisited {
            return;
        }
        let mut stack: Vec<usize> = vec![root];
        while let Some(&n) = stack.last() {
            if self.slot(n) != Slot::Unvisited {
                stack.pop();
                continue;
            }
            // XOR clusters bypass their intermediate AND nodes entirely:
            // the children to wait on are the XOR operands themselves.
            let xor = xor_fanins(self.aig, n);
            let (a, b) = match xor {
                Some(ops) => ops,
                None => self
                    .aig
                    .and_fanins(n)
                    .expect("inputs and constant are pre-bound"),
            };
            let mut ready = true;
            for child in [a.node(), b.node()] {
                if self.slot(child) == Slot::Unvisited {
                    stack.push(child);
                    ready = false;
                }
            }
            if !ready {
                continue;
            }
            stack.pop();
            let va = self.resolve(a);
            let vb = self.resolve(b);
            let slot = if xor.is_some() {
                match (va, vb) {
                    (EncVal::Const(x), EncVal::Const(y)) => Slot::Const(x ^ y),
                    (EncVal::Const(x), EncVal::Lit(_)) => Slot::Alias(if x { !b } else { b }),
                    (EncVal::Lit(_), EncVal::Const(y)) => Slot::Alias(if y { !a } else { a }),
                    (EncVal::Lit(l1), EncVal::Lit(l2)) => {
                        if l1 == l2 {
                            Slot::Const(false)
                        } else if l1 == !l2 {
                            Slot::Const(true)
                        } else {
                            Slot::Xor {
                                lit: solver.new_var().positive(),
                                a,
                                b,
                                emitted: 0,
                            }
                        }
                    }
                }
            } else {
                match (va, vb) {
                    (EncVal::Const(false), _) | (_, EncVal::Const(false)) => Slot::Const(false),
                    (EncVal::Const(true), EncVal::Const(true)) => Slot::Const(true),
                    (EncVal::Const(true), _) => Slot::Alias(b),
                    (_, EncVal::Const(true)) => Slot::Alias(a),
                    (EncVal::Lit(l1), EncVal::Lit(l2)) => {
                        if l1 == l2 {
                            Slot::Alias(a)
                        } else if l1 == !l2 {
                            Slot::Const(false)
                        } else {
                            Slot::Gate {
                                lit: solver.new_var().positive(),
                                emitted: 0,
                            }
                        }
                    }
                }
            };
            self.set(n, slot);
        }
    }

    /// Phase B: demand-driven polarity propagation, emitting the missing
    /// implication clauses top-down.
    fn demand(&mut self, solver: &mut Solver, root: AigLit, mask: u8) {
        let mut work: Vec<(AigLit, u8)> = vec![(root, mask)];
        while let Some((l, m)) = work.pop() {
            let nm = if l.complemented() { flip(m) } else { m };
            let n = l.node();
            match self.slot(n) {
                Slot::Const(_) | Slot::Leaf(_) => {}
                Slot::Alias(of) => work.push((of, nm)),
                Slot::Gate { lit, emitted } => {
                    let new = nm & !emitted;
                    if new == 0 {
                        continue;
                    }
                    self.set(
                        n,
                        Slot::Gate {
                            lit,
                            emitted: emitted | new,
                        },
                    );
                    let (a, b) = self.aig.and_fanins(n).expect("gate slots are ANDs");
                    let (EncVal::Lit(la), EncVal::Lit(lb)) = (self.resolve(a), self.resolve(b))
                    else {
                        unreachable!("constant fanins fold in compute")
                    };
                    if new & POS != 0 {
                        // Fault injection (test-only): flip the first fanin
                        // literal's polarity in the positive clauses.
                        let la_emit = if self.sabotage == Some(EncoderSabotage::FlipGateClauseLit)
                        {
                            !la
                        } else {
                            la
                        };
                        solver.add_clause(&[!lit, la_emit]);
                        solver.add_clause(&[!lit, lb]);
                        work.push((a, POS));
                        work.push((b, POS));
                    }
                    if new & NEG != 0 {
                        solver.add_clause(&[lit, !la, !lb]);
                        work.push((a, NEG));
                        work.push((b, NEG));
                    }
                }
                Slot::Xor {
                    lit,
                    a,
                    b,
                    emitted,
                } => {
                    let new = nm & !emitted;
                    if new == 0 {
                        continue;
                    }
                    self.set(
                        n,
                        Slot::Xor {
                            lit,
                            a,
                            b,
                            emitted: emitted | new,
                        },
                    );
                    let (EncVal::Lit(la), EncVal::Lit(lb)) = (self.resolve(a), self.resolve(b))
                    else {
                        unreachable!("constant operands fold in compute")
                    };
                    if new & POS != 0 {
                        // Fault injection (test-only): corrupt one literal
                        // of the first gadget clause.
                        let la_emit = if self.sabotage == Some(EncoderSabotage::FlipXorGadgetLit)
                        {
                            !la
                        } else {
                            la
                        };
                        solver.add_clause(&[!lit, la_emit, lb]);
                        solver.add_clause(&[!lit, !la, !lb]);
                    }
                    if new & NEG != 0 {
                        solver.add_clause(&[lit, !la, lb]);
                        solver.add_clause(&[lit, la, !lb]);
                    }
                    // Every XOR clause mentions both signs of both operands.
                    work.push((a, BOTH));
                    work.push((b, BOTH));
                }
                Slot::Unvisited => unreachable!("demand before compute"),
            }
        }
    }

    fn encode(&mut self, solver: &mut Solver, root: AigLit, mask: u8) -> EncVal {
        self.compute(solver, root.node());
        self.demand(solver, root, mask);
        self.resolve(root)
    }
}

impl ReducedEncoder {
    /// Breaks the `K_a ↔ K_b` swap symmetry of a two-copy miter by asserting
    /// `K_a ≤ K_b` lexicographically. The miter predicate is symmetric in
    /// its key copies, so every distinguishing pair has an ordered
    /// representative and the UNSAT proof ("no DIP remains") covers half the
    /// pair space. Key extraction is unaffected: any single consistent key
    /// `K` extends to the ordered model `K_a = K_b = K`.
    pub fn assert_key_lex_le(&self, solver: &mut Solver, a: usize, b: usize) {
        // eq-prefix chain: e[0] = true; e[i+1] <-> e[i] & (ka[i] = kb[i]);
        // ordering: e[i] -> (ka[i] -> kb[i]).
        let mut eq: Option<Lit> = None; // None encodes the constant TRUE
        let n = self.key_vars[a].len();
        for i in 0..n {
            let ka = self.key_vars[a][i].positive();
            let kb = self.key_vars[b][i].positive();
            match eq {
                None => solver.add_clause(&[!ka, kb]),
                Some(e) => solver.add_clause(&[!e, !ka, kb]),
            };
            if i + 1 == n {
                break; // the last equality chain link is never read
            }
            let next = solver.new_var().positive();
            match eq {
                None => {
                    // e[1] <-> (ka = kb)
                    solver.add_clause(&[!next, !ka, kb]);
                    solver.add_clause(&[!next, ka, !kb]);
                    solver.add_clause(&[next, !ka, !kb]);
                    solver.add_clause(&[next, ka, kb]);
                }
                Some(e) => {
                    solver.add_clause(&[!next, e]);
                    solver.add_clause(&[!next, !ka, kb]);
                    solver.add_clause(&[!next, ka, !kb]);
                    solver.add_clause(&[next, !e, !ka, !kb]);
                    solver.add_clause(&[next, !e, ka, kb]);
                }
            }
            eq = Some(next);
        }
    }
}

/// XOR difference indicator with positive-polarity (Plaisted–Greenbaum)
/// clauses only: asserting the returned literal forces `a != b`; leaving it
/// free never constrains them.
pub fn xor_pos(solver: &mut Solver, a: Lit, b: Lit) -> Lit {
    let d = solver.new_var().positive();
    solver.add_clause(&[!d, a, b]);
    solver.add_clause(&[!d, !a, !b]);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdcl::SolveResult;
    use netlist::samples;

    /// The reduced encoding must agree with simulation for every assignment
    /// (positive and negative output polarity both exercised).
    #[test]
    fn reduced_encoding_matches_simulation() {
        let c = samples::full_adder();
        let locked = locking::random::lock(
            &c,
            &locking::random::RllConfig { key_bits: 2, seed: 7 },
        )
        .unwrap();
        let sim = gatesim::CombSim::new(&locked.circuit).unwrap();
        let n_in = locked.circuit.comb_inputs().len();
        let n_data = n_in - 2;
        for m in 0..(1u32 << n_in) {
            let all: Vec<bool> = (0..n_in).map(|k| (m >> k) & 1 == 1).collect();
            // Split per the simulator's comb_inputs order.
            let comb = locked.circuit.comb_inputs();
            let mut solver = Solver::new();
            let enc = ReducedEncoder::new(&locked, &mut solver, 1);
            let mut x = vec![false; n_data];
            let mut key = vec![false; 2];
            for (i, &net) in comb.iter().enumerate() {
                if let Some(j) = enc.data_inputs().iter().position(|&d| d == net) {
                    x[j] = all[i];
                } else {
                    let j = locked.key_inputs.iter().position(|&k| k == net).unwrap();
                    key[j] = all[i];
                }
            }
            let expect = sim.eval_bools(&all);
            // Constrain the copy to the expected response; with the key
            // fixed to the matching bits this must be satisfiable, with any
            // output bit flipped it must not.
            let mut s_ok = solver.clone();
            assert!(enc.clone().add_io_constraint(&mut s_ok, 0, &x, &expect));
            let assumptions: Vec<Lit> = enc
                .key_vars(0)
                .iter()
                .zip(&key)
                .map(|(&v, &b)| v.lit(b))
                .collect();
            assert_eq!(s_ok.solve_with(&assumptions), SolveResult::Sat, "m={m}");
            for flip_out in 0..expect.len() {
                let mut wrong = expect.clone();
                wrong[flip_out] = !wrong[flip_out];
                let mut s_bad = solver.clone();
                let ok = enc.clone().add_io_constraint(&mut s_bad, 0, &x, &wrong);
                assert!(
                    !ok || s_bad.solve_with(&assumptions) == SolveResult::Unsat,
                    "m={m} flipped output {flip_out} must be inconsistent"
                );
            }
        }
    }

    /// Key-independent outputs are excluded from the miter.
    #[test]
    fn key_independent_outputs_skipped() {
        let mut c = netlist::Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let k = c.add_input("k");
        let free = c.add_gate(netlist::GateKind::And, vec![a, b], "free").unwrap();
        let dep = c.add_gate(netlist::GateKind::Xor, vec![a, k], "dep").unwrap();
        c.mark_output(free);
        c.mark_output(dep);
        let locked = LockedCircuit {
            circuit: c,
            key_inputs: vec![k],
            correct_key: vec![false],
            scheme: "test",
        };
        let mut solver = Solver::new();
        let mut enc = ReducedEncoder::new(&locked, &mut solver, 2);
        assert_eq!(enc.num_key_dep_outputs(), 1);
        enc.assert_miter(&mut solver, 0, 1, None);
        // The miter is satisfiable exactly when the two key copies differ.
        assert_eq!(solver.solve(), SolveResult::Sat);
        let k0 = enc.key_vars(0)[0];
        let k1 = enc.key_vars(1)[0];
        assert_ne!(solver.value(k0), solver.value(k1));
    }

    /// PG emission must still produce correct *models* (not just verdicts):
    /// a satisfying assignment projected onto inputs satisfies the circuit.
    #[test]
    fn miter_models_are_genuine_dips() {
        let original = samples::ripple_adder(3);
        let locked = locking::random::lock(
            &original,
            &locking::random::RllConfig { key_bits: 4, seed: 11 },
        )
        .unwrap();
        let sim = gatesim::CombSim::new(&locked.circuit).unwrap();
        let mut solver = Solver::new();
        let mut enc = ReducedEncoder::new(&locked, &mut solver, 2);
        enc.assert_miter(&mut solver, 0, 1, None);
        assert_eq!(solver.solve(), SolveResult::Sat);
        // Read the model: x, k1, k2; simulating must show an output diff.
        let x: Vec<bool> = enc
            .data_vars()
            .iter()
            .map(|&v| solver.value(v).unwrap_or(false))
            .collect();
        let eval = |key: Vec<bool>| {
            let comb = locked.circuit.comb_inputs();
            let mut input = vec![false; comb.len()];
            for (i, &net) in comb.iter().enumerate() {
                if let Some(j) = enc.data_inputs().iter().position(|&d| d == net) {
                    input[i] = x[j];
                } else {
                    let j = locked.key_inputs.iter().position(|&k| k == net).unwrap();
                    input[i] = key[j];
                }
            }
            sim.eval_bools(&input)
        };
        let key_of = |copy: usize| -> Vec<bool> {
            enc.key_vars(copy)
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect()
        };
        assert_ne!(
            eval(key_of(0)),
            eval(key_of(1)),
            "model must be a genuine distinguishing input"
        );
    }
}
