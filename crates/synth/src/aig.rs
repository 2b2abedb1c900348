use std::collections::HashMap;

use netlist::{Circuit, Error, GateKind, Levelization, NetId};

/// A literal in the AIG: a node index with a complement flag, packed as
/// `node << 1 | complemented`. Node 0 is the constant-FALSE node, so
/// `AigLit::FALSE` is `0` and `AigLit::TRUE` is `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigLit(u32);

impl AigLit {
    /// Constant false.
    pub const FALSE: AigLit = AigLit(0);
    /// Constant true.
    pub const TRUE: AigLit = AigLit(1);

    /// Builds a literal for a node.
    #[inline]
    pub fn new(node: usize, complemented: bool) -> Self {
        AigLit(((node as u32) << 1) | u32::from(complemented))
    }

    /// The node index.
    #[inline]
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the edge is complemented.
    #[inline]
    pub fn complemented(self) -> bool {
        self.0 & 1 == 1
    }
}

impl std::ops::Not for AigLit {
    type Output = AigLit;

    #[inline]
    fn not(self) -> AigLit {
        AigLit(self.0 ^ 1)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    Const,
    Input(u32),       // index into inputs
    And(AigLit, AigLit),
}

/// An and-inverter graph with structural hashing.
///
/// Nodes are created through [`Aig::and`] (and the derived [`Aig::or`],
/// [`Aig::xor_lit`], [`Aig::mux`]); identical structures are shared, constant
/// and trivial cases fold immediately.
#[derive(Debug, Clone)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<(AigLit, AigLit), usize>,
    num_inputs: usize,
    outputs: Vec<AigLit>,
}

impl Aig {
    /// Creates an AIG with `num_inputs` inputs and no outputs.
    pub fn new(num_inputs: usize) -> Self {
        let mut nodes = Vec::with_capacity(num_inputs + 1);
        nodes.push(Node::Const);
        for i in 0..num_inputs {
            nodes.push(Node::Input(i as u32));
        }
        Aig {
            nodes,
            strash: HashMap::new(),
            num_inputs,
            outputs: Vec::new(),
        }
    }

    /// Number of inputs.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The literal of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn input(&self, i: usize) -> AigLit {
        assert!(i < self.num_inputs, "input {i} out of range");
        AigLit::new(1 + i, false)
    }

    /// Registers an output.
    pub fn add_output(&mut self, lit: AigLit) {
        self.outputs.push(lit);
    }

    /// The outputs.
    pub fn outputs(&self) -> &[AigLit] {
        &self.outputs
    }

    /// Total node count (constant + inputs + ANDs).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The fanins of an AND node, or `None` for inputs/constant.
    pub fn and_fanins(&self, node: usize) -> Option<(AigLit, AigLit)> {
        match self.nodes[node] {
            Node::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// The input index of an input node, or `None` for ANDs/constant.
    pub fn input_of(&self, node: usize) -> Option<usize> {
        match self.nodes[node] {
            Node::Input(i) => Some(i as usize),
            _ => None,
        }
    }

    /// Per-node cone-of-influence membership: `result[n]` is `true` iff some
    /// input `i` with `flagged[i]` set lies in node `n`'s transitive fanin
    /// (inputs themselves included). One forward pass — node indices are
    /// topologically ordered by construction.
    ///
    /// The SAT-attack encoder uses this with the key inputs flagged to
    /// restrict miter encoding to the key-affected output cones.
    ///
    /// # Panics
    ///
    /// Panics if `flagged.len() != num_inputs`.
    pub fn input_dependence(&self, flagged: &[bool]) -> Vec<bool> {
        assert_eq!(flagged.len(), self.num_inputs, "flag width mismatch");
        let mut dep = vec![false; self.nodes.len()];
        for n in 0..self.nodes.len() {
            dep[n] = match self.nodes[n] {
                Node::Const => false,
                Node::Input(i) => flagged[i as usize],
                Node::And(a, b) => dep[a.node()] || dep[b.node()],
            };
        }
        dep
    }

    /// AND of two literals, with structural hashing and trivial-case folding.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Normalize order.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        // Trivial cases.
        if a == AigLit::FALSE {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if a == b {
            return a;
        }
        if a == !b {
            return AigLit::FALSE;
        }
        if let Some(&n) = self.strash.get(&(a, b)) {
            return AigLit::new(n, false);
        }
        let n = self.nodes.len();
        self.nodes.push(Node::And(a, b));
        self.strash.insert((a, b), n);
        AigLit::new(n, false)
    }

    /// OR of two literals.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// XOR of two literals (three AND nodes worst case):
    /// `a ^ b = !(a&b) & !(!a&!b)`.
    pub fn xor_lit(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let nand_ab = !self.and(a, b);
        let nand_nanb = !self.and(!a, !b);
        self.and(nand_ab, nand_nanb)
    }

    /// Multiplexer: `s ? t : e`.
    pub fn mux(&mut self, s: AigLit, t: AigLit, e: AigLit) -> AigLit {
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// Number of AND nodes *reachable from the outputs* — the area metric.
    /// Dead nodes left behind by rewriting do not count.
    pub fn num_ands(&self) -> usize {
        let mut mark = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|l| l.node()).collect();
        let mut count = 0;
        while let Some(n) = stack.pop() {
            if mark[n] {
                continue;
            }
            mark[n] = true;
            if let Node::And(a, b) = self.nodes[n] {
                count += 1;
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        count
    }

    /// Depth (maximum AND-chain length from any input to any output).
    pub fn depth(&self) -> usize {
        let mut level = Vec::new();
        self.extend_levels(&mut level);
        self.outputs
            .iter()
            .map(|l| level[l.node()])
            .max()
            .unwrap_or(0)
    }

    /// Extends per-node levels (0 for inputs/constant) to cover every node.
    ///
    /// `levels` must hold the levels of a prefix of the node vector, as a
    /// previous call left it. Nodes are only ever appended and a node's
    /// level depends on earlier nodes alone, so a pass that builds a graph
    /// can keep one vector current in O(1) per new node.
    pub fn extend_levels(&self, levels: &mut Vec<usize>) {
        for n in levels.len()..self.nodes.len() {
            let level = match self.nodes[n] {
                Node::And(a, b) => 1 + levels[a.node()].max(levels[b.node()]),
                _ => 0,
            };
            levels.push(level);
        }
    }

    /// Fanout count per node, counting output references too.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut f = vec![0u32; self.nodes.len()];
        for n in 0..self.nodes.len() {
            if let Node::And(a, b) = self.nodes[n] {
                f[a.node()] += 1;
                f[b.node()] += 1;
            }
        }
        for o in &self.outputs {
            f[o.node()] += 1;
        }
        f
    }

    /// Evaluates the AIG on 64 packed patterns per input word.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs`.
    pub fn eval_words(&self, inputs: &[u64]) -> Vec<u64> {
        assert_eq!(inputs.len(), self.num_inputs, "input width mismatch");
        let mut v = vec![0u64; self.nodes.len()];
        for n in 0..self.nodes.len() {
            v[n] = match self.nodes[n] {
                Node::Const => 0,
                Node::Input(i) => inputs[i as usize],
                Node::And(a, b) => {
                    let va = v[a.node()] ^ if a.complemented() { !0 } else { 0 };
                    let vb = v[b.node()] ^ if b.complemented() { !0 } else { 0 };
                    va & vb
                }
            };
        }
        self.outputs
            .iter()
            .map(|l| v[l.node()] ^ if l.complemented() { !0 } else { 0 })
            .collect()
    }

    /// Evaluates on booleans.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != num_inputs`.
    pub fn eval_bools(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.eval_words(&words).into_iter().map(|w| w & 1 == 1).collect()
    }

    /// Encodes the combinational part of a [`Circuit`] into an AIG. Inputs
    /// follow [`Circuit::comb_inputs`] order, outputs
    /// [`Circuit::comb_outputs`] order.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the circuit is cyclic.
    pub fn from_circuit(circuit: &Circuit) -> Result<Self, Error> {
        let lv = Levelization::build(circuit)?;
        let comb_inputs = circuit.comb_inputs();
        let mut aig = Aig::new(comb_inputs.len());
        let mut map: Vec<AigLit> = vec![AigLit::FALSE; circuit.num_nets()];
        for (i, &n) in comb_inputs.iter().enumerate() {
            map[n.index()] = aig.input(i);
        }
        for &id in lv.order() {
            if let Some(g) = circuit.gate(id) {
                let f: Vec<AigLit> = g.fanin.iter().map(|x| map[x.index()]).collect();
                let lit = match g.kind {
                    GateKind::And => f.iter().copied().reduce(|a, b| aig.and(a, b)).expect("arity"),
                    GateKind::Nand => {
                        !f.iter().copied().reduce(|a, b| aig.and(a, b)).expect("arity")
                    }
                    GateKind::Or => f.iter().copied().reduce(|a, b| aig.or(a, b)).expect("arity"),
                    GateKind::Nor => {
                        !f.iter().copied().reduce(|a, b| aig.or(a, b)).expect("arity")
                    }
                    GateKind::Xor => f
                        .iter()
                        .copied()
                        .reduce(|a, b| aig.xor_lit(a, b))
                        .expect("arity"),
                    GateKind::Xnor => {
                        !f.iter()
                            .copied()
                            .reduce(|a, b| aig.xor_lit(a, b))
                            .expect("arity")
                    }
                    GateKind::Not => !f[0],
                    GateKind::Buf => f[0],
                    GateKind::Const0 => AigLit::FALSE,
                    GateKind::Const1 => AigLit::TRUE,
                };
                map[id.index()] = lit;
            }
        }
        for &o in &circuit.comb_outputs() {
            let lit = map[o.index()];
            aig.add_output(lit);
        }
        Ok(aig)
    }

    /// Decodes the AIG back into a gate-level circuit of AND2/NOT gates.
    /// The i-th input becomes primary input `i<i>`; the j-th output becomes
    /// primary output `o<j>` (the flip-flop boundary is not reconstructed —
    /// the optimizer works on the combinational part, which is all the
    /// paper's metrics need).
    pub fn to_circuit(&self, name: &str) -> Circuit {
        let mut c = Circuit::new(name);
        let mut net_of_node: Vec<Option<NetId>> = vec![None; self.nodes.len()];
        let mut not_cache: HashMap<NetId, NetId> = HashMap::new();
        for i in 0..self.num_inputs {
            net_of_node[1 + i] = Some(c.add_input(format!("i{i}")));
        }
        let const0 = std::cell::Cell::new(None::<NetId>);
        let lit_net = |c: &mut Circuit,
                           net_of_node: &mut Vec<Option<NetId>>,
                           not_cache: &mut HashMap<NetId, NetId>,
                           lit: AigLit|
         -> NetId {
            let base = if lit.node() == 0 {
                if const0.get().is_none() {
                    let z = c
                        .add_gate(GateKind::Const0, vec![], "const0")
                        .expect("const arity");
                    const0.set(Some(z));
                }
                const0.get().expect("just set")
            } else {
                net_of_node[lit.node()].expect("topological construction")
            };
            if lit.complemented() {
                *not_cache.entry(base).or_insert_with(|| {
                    c.add_gate(GateKind::Not, vec![base], format!("n_{}", base.index()))
                        .expect("NOT arity")
                })
            } else {
                base
            }
        };
        for n in 0..self.nodes.len() {
            if let Node::And(a, b) = self.nodes[n] {
                let fa = lit_net(&mut c, &mut net_of_node, &mut not_cache, a);
                let fb = lit_net(&mut c, &mut net_of_node, &mut not_cache, b);
                let g = c
                    .add_gate(GateKind::And, vec![fa, fb], format!("a{n}"))
                    .expect("AND arity");
                net_of_node[n] = Some(g);
            }
        }
        for (j, &o) in self.outputs.iter().enumerate() {
            let net = lit_net(&mut c, &mut net_of_node, &mut not_cache, o);
            // Buffer so multiple outputs pointing at the same literal keep
            // distinct names.
            let buf = c
                .add_gate(GateKind::Buf, vec![net], format!("o{j}"))
                .expect("BUFF arity");
            c.mark_output(buf);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    #[test]
    fn literal_packing() {
        let l = AigLit::new(5, true);
        assert_eq!(l.node(), 5);
        assert!(l.complemented());
        assert_eq!(!l, AigLit::new(5, false));
        assert_eq!(AigLit::TRUE, !AigLit::FALSE);
    }

    #[test]
    fn strash_shares_structure() {
        let mut a = Aig::new(2);
        let (x, y) = (a.input(0), a.input(1));
        let g1 = a.and(x, y);
        let g2 = a.and(y, x);
        assert_eq!(g1, g2);
        assert_eq!(a.num_ands_total(), 1);
    }

    impl Aig {
        fn num_ands_total(&self) -> usize {
            self.nodes
                .iter()
                .filter(|n| matches!(n, Node::And(..)))
                .count()
        }
    }

    #[test]
    fn trivial_folding() {
        let mut a = Aig::new(1);
        let x = a.input(0);
        assert_eq!(a.and(x, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(a.and(x, AigLit::TRUE), x);
        assert_eq!(a.and(x, x), x);
        assert_eq!(a.and(x, !x), AigLit::FALSE);
        assert_eq!(a.num_ands_total(), 0);
    }

    #[test]
    fn xor_and_mux_truth() {
        let mut a = Aig::new(3);
        let (x, y, s) = (a.input(0), a.input(1), a.input(2));
        let xo = a.xor_lit(x, y);
        let m = a.mux(s, x, y);
        a.add_output(xo);
        a.add_output(m);
        for bits in 0..8u32 {
            let input = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let out = a.eval_bools(&input);
            assert_eq!(out[0], input[0] ^ input[1]);
            assert_eq!(out[1], if input[2] { input[0] } else { input[1] });
        }
    }

    #[test]
    fn from_circuit_matches_netlist() {
        let c = samples::full_adder();
        let aig = Aig::from_circuit(&c).unwrap();
        for bits in 0..8u32 {
            let input = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let expect = {
                let total = input.iter().filter(|&&b| b).count();
                vec![total % 2 == 1, total >= 2]
            };
            assert_eq!(aig.eval_bools(&input), expect, "{input:?}");
        }
    }

    #[test]
    fn roundtrip_through_circuit() {
        let c = netlist::generate::random_comb(9, 8, 5, 80).unwrap();
        let aig = Aig::from_circuit(&c).unwrap();
        let back = aig.to_circuit("rt");
        let aig2 = Aig::from_circuit(&back).unwrap();
        let mut rng = netlist::rng::SplitMix64::new(4);
        for _ in 0..64 {
            let input: Vec<bool> = (0..8).map(|_| rng.bool()).collect();
            assert_eq!(aig.eval_bools(&input), aig2.eval_bools(&input));
        }
    }

    #[test]
    fn depth_and_area_of_chain() {
        let mut a = Aig::new(4);
        let mut acc = a.input(0);
        for i in 1..4 {
            let x = a.input(i);
            acc = a.and(acc, x);
        }
        a.add_output(acc);
        assert_eq!(a.num_ands(), 3);
        assert_eq!(a.depth(), 3);
    }

    #[test]
    fn dead_nodes_not_counted() {
        let mut a = Aig::new(2);
        let (x, y) = (a.input(0), a.input(1));
        let _dead = a.and(x, y);
        let live = a.or(x, y);
        a.add_output(live);
        assert_eq!(a.num_ands(), 1);
        assert_eq!(a.num_ands_total(), 2);
    }

    #[test]
    fn const_gates_convert() {
        let mut c = netlist::Circuit::new("k");
        let a = c.add_input("a");
        let one = c.add_gate(GateKind::Const1, vec![], "one").unwrap();
        let y = c.add_gate(GateKind::Or, vec![a, one], "y").unwrap();
        c.mark_output(y);
        let aig = Aig::from_circuit(&c).unwrap();
        assert_eq!(aig.eval_bools(&[false]), vec![true]);
        assert_eq!(aig.num_ands(), 0, "OR with const 1 folds away");
    }
}
