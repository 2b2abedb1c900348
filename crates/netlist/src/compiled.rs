//! The compiled-netlist engine: one cache-friendly artifact shared by every
//! evaluation layer (simulation, fault simulation, ATPG, CNF encoding,
//! locking heuristics).
//!
//! [`CompiledCircuit::compile`] lowers a [`Circuit`] exactly once into flat
//! CSR adjacency (fanin *and* fanout as `u32` pools with offset tables — no
//! `Vec<Vec<u32>>`), per-net gate kinds, the cached [`Levelization`] with
//! dense topological ranks, and the combinational input/output views. The
//! [`StreamBuilder`](crate::stream::StreamBuilder) produces the same
//! artifact without ever materializing a [`Circuit`], which is how
//! million-gate synthetic circuits are compiled with bounded memory.
//!
//! Two evaluation kernels run over the artifact:
//!
//! - the **full sweep** ([`CompiledCircuit::eval_full_into`]): the classic
//!   word-parallel pass, driven by a *rank-major* copy of the gate kinds and
//!   fanin windows (`sweep_*` arrays) so the hot loop reads its schedule
//!   sequentially instead of chasing the order permutation. It is generic
//!   over the [`Lanes`] block a gate visit evaluates: one `u64` (64
//!   patterns) for most callers, `[u64; N]` where one gate visit should
//!   serve several words (the Hamming-distance sweep);
//! - the **incremental kernel** ([`EvalScratch::propagate`]): an
//!   event-driven update that re-evaluates only the cone disturbed by a
//!   single net change, using a [`LevelQueue`] (per-level FIFO buckets with
//!   a min-heap over the non-empty levels — O(1) pushes, no per-event
//!   tuple comparisons) and reusable scratch buffers, with an undo log
//!   ([`EvalScratch::revert`]) so a rejected change costs the same as the
//!   cone it touched.
//!
//! The artifact also carries a per-net **cone mass** — a saturating
//! estimate of the downstream work a change at that net causes — which the
//! fault simulator uses to cut its fault list into balanced coarse chunks.
//!
//! Consumers share one artifact (typically behind `Arc<CompiledCircuit>`)
//! instead of privately re-levelizing the netlist; [`EngineCounters`]
//! records how much work each kernel did for benchmark telemetry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{Circuit, Error, GateKind, Levelization, NetId};

/// Saturation cap for the per-net cone-mass estimate. Reconvergent fanout
/// makes the naive "1 + sum of fanout masses" recurrence overcount
/// exponentially; capping keeps the estimate a useful *relative* work
/// weight without overflow.
const CONE_MASS_CAP: u32 = 1 << 20;

/// A block of pattern lanes that one gate visit evaluates: a `u64` word
/// (64 patterns, one per bit) or `[u64; N]` (64·N patterns).
///
/// A full-sweep gate visit costs more in kind dispatch and fanin walking
/// than in the logic itself, so a wider block amortizes that cost over
/// several words. The gate functions ([`CompiledCircuit::eval_gate`]) and
/// the sweep are written once over this trait and shared by every width.
pub trait Lanes: Copy {
    /// Every lane 0.
    const ZERO: Self;
    /// Every lane 1.
    const ONES: Self;
    /// Lane-wise AND.
    fn and(self, other: Self) -> Self;
    /// Lane-wise OR.
    fn or(self, other: Self) -> Self;
    /// Lane-wise XOR.
    fn xor(self, other: Self) -> Self;
    /// Lane-wise complement.
    fn not(self) -> Self;
}

impl Lanes for u64 {
    const ZERO: Self = 0;
    const ONES: Self = !0;
    #[inline]
    fn and(self, other: Self) -> Self {
        self & other
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        self | other
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        self ^ other
    }
    #[inline]
    fn not(self) -> Self {
        !self
    }
}

impl<const N: usize> Lanes for [u64; N] {
    const ZERO: Self = [0; N];
    const ONES: Self = [!0; N];
    #[inline]
    fn and(self, other: Self) -> Self {
        std::array::from_fn(|i| self[i] & other[i])
    }
    #[inline]
    fn or(self, other: Self) -> Self {
        std::array::from_fn(|i| self[i] | other[i])
    }
    #[inline]
    fn xor(self, other: Self) -> Self {
        std::array::from_fn(|i| self[i] ^ other[i])
    }
    #[inline]
    fn not(self) -> Self {
        self.map(|w| !w)
    }
}

/// Work counters of the two evaluation kernels, exported as benchmark
/// telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Full word-parallel sweeps executed.
    pub full_evals: u64,
    /// Incremental propagations started (one per forced net change).
    pub incremental_props: u64,
    /// Events processed by the incremental kernel (nets re-evaluated).
    pub events: u64,
}

impl EngineCounters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &EngineCounters) {
        self.full_evals += other.full_evals;
        self.incremental_props += other.incremental_props;
        self.events += other.events;
    }
}

/// A [`Circuit`] lowered into flat, evaluation-ready form.
///
/// The artifact is immutable after [`compile`](CompiledCircuit::compile) and
/// freely shareable across threads; per-evaluation state lives in
/// [`EvalScratch`] (or in the consumer's own buffers).
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    num_nets: usize,
    /// Gate kind per net; `None` for undriven nets (inputs).
    kinds: Vec<Option<GateKind>>,
    /// CSR fanin: `fanin_pool[fanin_start[n]..fanin_start[n+1]]`.
    fanin_pool: Vec<u32>,
    fanin_start: Vec<u32>,
    /// CSR fanout: `fanout_pool[fanout_start[n]..fanout_start[n+1]]`.
    fanout_pool: Vec<u32>,
    fanout_start: Vec<u32>,
    /// The levelization, built exactly once per artifact.
    lv: Levelization,
    /// Dense topological rank per net (position in `lv.order()`).
    rank: Vec<u32>,
    /// Dense logic level per net (copy of the levelization's levels, kept
    /// next to the kernels that index it per event).
    level: Vec<u32>,
    /// Maximum level over all nets; sizes the kernels' level buckets.
    depth: u32,
    /// Saturating downstream-cone work estimate per net (see
    /// [`cone_mass`](CompiledCircuit::cone_mass)).
    cone_mass: Vec<u32>,
    /// Rank-major sweep view: driven nets in topological order with their
    /// kinds and fanin windows copied into dense arrays, so the full sweep
    /// streams its schedule from memory instead of permuting through
    /// `lv.order()`.
    sweep_net: Vec<u32>,
    sweep_kind: Vec<GateKind>,
    sweep_fanin_start: Vec<u32>,
    sweep_fanin_pool: Vec<u32>,
    /// Combinational inputs (primary inputs then flip-flop outputs).
    inputs: Vec<NetId>,
    /// Combinational outputs (primary outputs then flip-flop inputs).
    outputs: Vec<NetId>,
    /// Membership mask over `outputs` (a net may appear there twice; the
    /// mask is positional-duplicate-blind).
    output_mask: Vec<bool>,
}

impl CompiledCircuit {
    /// Lowers `circuit` into the compiled artifact. This is the single
    /// place [`Levelization::build`] runs for all engine consumers.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CombinationalCycle`] if the combinational part is
    /// cyclic.
    pub fn compile(circuit: &Circuit) -> Result<Self, Error> {
        let lv = Levelization::build(circuit)?;
        let n = circuit.num_nets();

        let mut kinds = vec![None; n];
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanin_pool = Vec::new();
        fanin_start.push(0u32);
        for id in circuit.net_ids() {
            if let Some(g) = circuit.gate(id) {
                kinds[id.index()] = Some(g.kind);
                fanin_pool.extend(g.fanin.iter().map(|f| f.0));
            }
            fanin_start.push(fanin_pool.len() as u32);
        }

        Ok(Self::assemble(
            kinds,
            fanin_pool,
            fanin_start,
            lv,
            circuit.comb_inputs(),
            circuit.comb_outputs(),
        ))
    }

    /// Shared finishing pass of the [`compile`](CompiledCircuit::compile)
    /// and streaming ([`crate::stream::StreamBuilder`]) paths: derives the
    /// fanout CSR (counting sort over the fanin pool — no per-net `Vec`),
    /// the dense rank/level arrays, the rank-major sweep view and the
    /// cone-mass estimates, each in O(V+E).
    pub(crate) fn assemble(
        kinds: Vec<Option<GateKind>>,
        fanin_pool: Vec<u32>,
        fanin_start: Vec<u32>,
        lv: Levelization,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Self {
        let n = kinds.len();

        // Fanout CSR via counting sort over the fanin pool.
        let mut counts = vec![0u32; n];
        for &f in &fanin_pool {
            counts[f as usize] += 1;
        }
        let mut fanout_start = Vec::with_capacity(n + 1);
        fanout_start.push(0u32);
        let mut acc = 0u32;
        for &c in &counts {
            acc += c;
            fanout_start.push(acc);
        }
        let mut fanout_pool = vec![0u32; fanin_pool.len()];
        let mut cursor: Vec<u32> = fanout_start[..n].to_vec();
        for id in 0..n {
            let (s, e) = (fanin_start[id], fanin_start[id + 1]);
            for &f in &fanin_pool[s as usize..e as usize] {
                fanout_pool[cursor[f as usize] as usize] = id as u32;
                cursor[f as usize] += 1;
            }
        }

        let mut rank = vec![0u32; n];
        for (r, id) in lv.order().iter().enumerate() {
            rank[id.index()] = r as u32;
        }
        let level = lv.levels().to_vec();
        let depth = lv.depth();

        let mut output_mask = vec![false; n];
        for o in &outputs {
            output_mask[o.index()] = true;
        }

        let (sweep_net, sweep_kind, sweep_fanin_start, sweep_fanin_pool) =
            Self::build_sweep(&kinds, &fanin_pool, &fanin_start, lv.order());

        // Cone mass: reverse-topological accumulation, saturating at the
        // cap. Undriven nets count too (a stem fault on an input has the
        // whole input cone as work).
        let mut cone_mass = vec![0u32; n];
        for id in lv.order().iter().rev() {
            let i = id.index();
            let mut m = 1u32;
            let (s, e) = (fanout_start[i] as usize, fanout_start[i + 1] as usize);
            for &f in &fanout_pool[s..e] {
                m = m.saturating_add(cone_mass[f as usize]);
            }
            cone_mass[i] = m.min(CONE_MASS_CAP);
        }

        CompiledCircuit {
            num_nets: n,
            kinds,
            fanin_pool,
            fanin_start,
            fanout_pool,
            fanout_start,
            lv,
            rank,
            level,
            depth,
            cone_mass,
            sweep_net,
            sweep_kind,
            sweep_fanin_start,
            sweep_fanin_pool,
            inputs,
            outputs,
            output_mask,
        }
    }

    /// Builds the rank-major sweep arrays from the id-indexed CSR and a
    /// topological order.
    fn build_sweep(
        kinds: &[Option<GateKind>],
        fanin_pool: &[u32],
        fanin_start: &[u32],
        order: &[NetId],
    ) -> (Vec<u32>, Vec<GateKind>, Vec<u32>, Vec<u32>) {
        let gates = kinds.iter().filter(|k| k.is_some()).count();
        let mut sweep_net = Vec::with_capacity(gates);
        let mut sweep_kind = Vec::with_capacity(gates);
        let mut sweep_fanin_start = Vec::with_capacity(gates + 1);
        let mut sweep_fanin_pool = Vec::with_capacity(fanin_pool.len());
        sweep_fanin_start.push(0u32);
        for id in order {
            let i = id.index();
            let Some(kind) = kinds[i] else { continue };
            sweep_net.push(i as u32);
            sweep_kind.push(kind);
            let (s, e) = (fanin_start[i] as usize, fanin_start[i + 1] as usize);
            sweep_fanin_pool.extend_from_slice(&fanin_pool[s..e]);
            sweep_fanin_start.push(sweep_fanin_pool.len() as u32);
        }
        (sweep_net, sweep_kind, sweep_fanin_start, sweep_fanin_pool)
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.num_nets
    }

    /// The gate kind driving `net`, or `None` for undriven nets.
    #[inline]
    pub fn kind_of(&self, net: u32) -> Option<GateKind> {
        self.kinds[net as usize]
    }

    /// The fanin nets of `net`'s driving gate (empty for inputs).
    #[inline]
    pub fn fanin(&self, net: u32) -> &[u32] {
        &self.fanin_pool[self.fanin_start[net as usize] as usize
            ..self.fanin_start[net as usize + 1] as usize]
    }

    /// The nets whose driving gate reads `net`.
    #[inline]
    pub fn fanout(&self, net: u32) -> &[u32] {
        &self.fanout_pool[self.fanout_start[net as usize] as usize
            ..self.fanout_start[net as usize + 1] as usize]
    }

    /// Topological rank of `net` (its position in the cached order).
    #[inline]
    pub fn rank(&self, net: u32) -> u32 {
        self.rank[net as usize]
    }

    /// Logic level of `net` (inputs at 0, gates at `1 + max(fanin levels)`).
    #[inline]
    pub fn level_of(&self, net: u32) -> u32 {
        self.level[net as usize]
    }

    /// Maximum level over all nets.
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Saturating estimate of the downstream work a change at `net` causes:
    /// `1 + sum of fanout cone masses`, capped. Reconvergence makes this an
    /// overcount, which is fine for its purpose — a *relative* weight for
    /// cutting fault lists into balanced simulation chunks.
    #[inline]
    pub fn cone_mass(&self, net: u32) -> u32 {
        self.cone_mass[net as usize]
    }

    /// Whether `net` is a combinational output (primary output or flip-flop
    /// input).
    #[inline]
    pub fn is_output(&self, net: u32) -> bool {
        self.output_mask[net as usize]
    }

    /// The cached levelization (order plus logic levels), built once at
    /// compile time.
    pub fn levelization(&self) -> &Levelization {
        &self.lv
    }

    /// The nets in topological order.
    pub fn order(&self) -> &[NetId] {
        self.lv.order()
    }

    /// The combinational inputs: primary inputs then flip-flop outputs.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The combinational outputs: primary outputs then flip-flop inputs.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    // ------------------------------------------------------------------
    // Test-only mutation hooks (conformance mutation-kill harness).
    //
    // Each hook plants one deterministic semantic fault in the compiled
    // artifact so `crates/conformance` can verify the differential test
    // battery detects it. None of them are called by production code.
    // The hooks keep the id-indexed CSR and the rank-major sweep view
    // consistent with each other, so both kernels see the same fault.
    // ------------------------------------------------------------------

    /// Sweep-view position of `net`, if driven (test-only linear scan).
    fn sweep_pos(&self, net: u32) -> Option<usize> {
        self.sweep_net.iter().position(|&x| x == net)
    }

    /// Test-only mutation hook: replaces the gate kind of `net` with its
    /// dual (`And`↔`Or`, `Nand`↔`Nor`, `Xor`↔`Xnor`, `Not`↔`Buf`,
    /// `Const0`↔`Const1`). Returns `false` if `net` is undriven.
    pub fn mutate_flip_kind(&mut self, net: u32) -> bool {
        let Some(kind) = self.kinds[net as usize] else {
            return false;
        };
        let flipped = match kind {
            GateKind::And => GateKind::Or,
            GateKind::Or => GateKind::And,
            GateKind::Nand => GateKind::Nor,
            GateKind::Nor => GateKind::Nand,
            GateKind::Xor => GateKind::Xnor,
            GateKind::Xnor => GateKind::Xor,
            GateKind::Not => GateKind::Buf,
            GateKind::Buf => GateKind::Not,
            GateKind::Const0 => GateKind::Const1,
            GateKind::Const1 => GateKind::Const0,
        };
        self.kinds[net as usize] = Some(flipped);
        let pos = self.sweep_pos(net).expect("driven net has a sweep slot");
        self.sweep_kind[pos] = flipped;
        true
    }

    /// Test-only mutation hook: rewires fanin pin `pin` of `net` to read
    /// `new_net` instead (a CSR cross-wiring fault; the fanout table is
    /// deliberately left stale). Returns `false` if the pin does not exist.
    pub fn mutate_set_fanin(&mut self, net: u32, pin: usize, new_net: u32) -> bool {
        let s = self.fanin_start[net as usize] as usize;
        let e = self.fanin_start[net as usize + 1] as usize;
        if pin >= e - s {
            return false;
        }
        self.fanin_pool[s + pin] = new_net;
        let pos = self.sweep_pos(net).expect("driven net has a sweep slot");
        let ss = self.sweep_fanin_start[pos] as usize;
        self.sweep_fanin_pool[ss + pin] = new_net;
        true
    }

    /// Test-only mutation hook: swaps positions `i` and `j` of the cached
    /// topological order *and* the dense rank array, then rebuilds the
    /// rank-major sweep view, so both kernels see the corrupted schedule
    /// consistently.
    pub fn mutate_swap_order(&mut self, i: usize, j: usize) {
        let a = self.lv.order()[i];
        let b = self.lv.order()[j];
        self.lv.mutate_swap_order_entries(i, j);
        self.rank[a.index()] = j as u32;
        self.rank[b.index()] = i as u32;
        let (sn, sk, sfs, sfp) =
            Self::build_sweep(&self.kinds, &self.fanin_pool, &self.fanin_start, self.lv.order());
        self.sweep_net = sn;
        self.sweep_kind = sk;
        self.sweep_fanin_start = sfs;
        self.sweep_fanin_pool = sfp;
    }

    /// Test-only mutation hook: clears the output-membership bit of `net`,
    /// so [`EvalScratch::propagate`] no longer reports differences on it.
    /// Returns `false` if `net` was not an output.
    pub fn mutate_clear_output_mask(&mut self, net: u32) -> bool {
        let was = self.output_mask[net as usize];
        self.output_mask[net as usize] = false;
        was
    }

    /// Test-only mutation hook: redirects fanout edge `k` of `net` to
    /// `new_target`, so the incremental kernel stops scheduling the real
    /// reader. Returns `false` if the edge does not exist.
    pub fn mutate_redirect_fanout(&mut self, net: u32, k: usize, new_target: u32) -> bool {
        let s = self.fanout_start[net as usize] as usize;
        let e = self.fanout_start[net as usize + 1] as usize;
        if k >= e - s {
            return false;
        }
        self.fanout_pool[s + k] = new_target;
        true
    }

    /// Test-only mutation hook: skews the CSR fanin window of `net` one
    /// slot forward — the classic streaming-compile off-by-one where a
    /// start offset is pushed one gate late, so the gate silently loses its
    /// first fanin. Applied to both the id-indexed CSR and the sweep view.
    /// Returns `false` if `net` has no fanin to lose.
    pub fn mutate_skew_fanin_start(&mut self, net: u32) -> bool {
        let s = self.fanin_start[net as usize];
        let e = self.fanin_start[net as usize + 1];
        if e <= s {
            return false;
        }
        self.fanin_start[net as usize] = s + 1;
        let pos = self.sweep_pos(net).expect("driven net has a sweep slot");
        self.sweep_fanin_start[pos] += 1;
        true
    }

    /// Evaluates one gate function over lane blocks drawn from `values` at
    /// the `fanin` indices.
    #[inline]
    pub fn eval_gate<L: Lanes>(kind: GateKind, fanin: &[u32], values: &[L]) -> L {
        Self::fold(kind, fanin.iter().map(|&x| values[x as usize]))
    }

    /// Like [`eval_gate`](CompiledCircuit::eval_gate) but with fanin
    /// position `pin` forced to `forced` — the gate-input-pin fault case,
    /// evaluated without any temporary allocation.
    #[inline]
    pub fn eval_gate_with_pin<L: Lanes>(
        kind: GateKind,
        fanin: &[u32],
        values: &[L],
        pin: usize,
        forced: L,
    ) -> L {
        Self::fold(
            kind,
            fanin
                .iter()
                .enumerate()
                .map(|(i, &x)| if i == pin { forced } else { values[x as usize] }),
        )
    }

    #[inline]
    fn fold<L: Lanes>(kind: GateKind, mut vals: impl Iterator<Item = L>) -> L {
        match kind {
            GateKind::And => vals.fold(L::ONES, L::and),
            GateKind::Nand => vals.fold(L::ONES, L::and).not(),
            GateKind::Or => vals.fold(L::ZERO, L::or),
            GateKind::Nor => vals.fold(L::ZERO, L::or).not(),
            GateKind::Xor => vals.fold(L::ZERO, L::xor),
            GateKind::Xnor => vals.fold(L::ZERO, L::xor).not(),
            GateKind::Not => vals.next().expect("NOT takes one fanin").not(),
            GateKind::Buf => vals.next().expect("BUFF takes one fanin"),
            GateKind::Const0 => L::ZERO,
            GateKind::Const1 => L::ONES,
        }
    }

    /// The full-sweep kernel: evaluates the whole circuit lane-parallel
    /// (one pattern per bit of each [`Lanes`] block) into `values`, which is
    /// resized to [`num_nets`](CompiledCircuit::num_nets). The walk streams
    /// the rank-major sweep arrays — kinds and fanin windows are read
    /// sequentially from memory, once per gate whatever the block width.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the combinational input
    /// count.
    pub fn eval_full_into<L: Lanes>(&self, input_words: &[L], values: &mut Vec<L>) {
        assert_eq!(
            input_words.len(),
            self.inputs.len(),
            "expected {} input words",
            self.inputs.len()
        );
        values.clear();
        values.resize(self.num_nets, L::ZERO);
        for (net, &w) in self.inputs.iter().zip(input_words) {
            values[net.index()] = w;
        }
        for (s, (&net, &kind)) in self.sweep_net.iter().zip(&self.sweep_kind).enumerate() {
            let fanin = &self.sweep_fanin_pool
                [self.sweep_fanin_start[s] as usize..self.sweep_fanin_start[s + 1] as usize];
            values[net as usize] = Self::eval_gate(kind, fanin, values);
        }
    }
}

/// A level-indexed event queue: one FIFO bucket per logic level plus a
/// min-heap over the currently non-empty levels.
///
/// Pushing is O(1) amortized (heap pushes happen once per *level
/// activation*, not per event); popping drains levels in ascending order
/// and each bucket in insertion order. The buckets persist across
/// propagations — this is the arena the incremental kernels reuse instead
/// of a `BinaryHeap<(rank, net)>` whose per-event tuple comparisons
/// dominate at scale.
#[derive(Debug, Clone)]
pub struct LevelQueue {
    buckets: Vec<Vec<u32>>,
    /// Per-level cursor into the bucket (FIFO without draining the `Vec`).
    heads: Vec<u32>,
    /// Levels with unread events, deduplicated by `active_mask`.
    active: BinaryHeap<Reverse<u32>>,
    active_mask: Vec<bool>,
}

impl LevelQueue {
    /// Creates a queue for levels `0..=depth`.
    pub fn new(depth: u32) -> Self {
        let n = depth as usize + 1;
        LevelQueue {
            buckets: vec![Vec::new(); n],
            heads: vec![0; n],
            active: BinaryHeap::new(),
            active_mask: vec![false; n],
        }
    }

    /// Enqueues `net` at `level`.
    #[inline]
    pub fn push(&mut self, level: u32, net: u32) {
        let l = level as usize;
        self.buckets[l].push(net);
        if !self.active_mask[l] {
            self.active_mask[l] = true;
            self.active.push(Reverse(level));
        }
    }

    /// Dequeues the next net: lowest level first, insertion order within a
    /// level.
    #[inline]
    pub fn pop(&mut self) -> Option<u32> {
        loop {
            let &Reverse(level) = self.active.peek()?;
            let l = level as usize;
            let h = self.heads[l] as usize;
            if h < self.buckets[l].len() {
                self.heads[l] = h as u32 + 1;
                return Some(self.buckets[l][h]);
            }
            self.buckets[l].clear();
            self.heads[l] = 0;
            self.active_mask[l] = false;
            self.active.pop();
        }
    }
}

/// Reusable per-thread state for the incremental evaluation kernel.
///
/// A scratch holds the current 64-pattern values of every net, the
/// level-bucketed event queue, and an undo log. The intended cycle is:
///
/// 1. [`eval_full`](EvalScratch::eval_full) to establish a base state;
/// 2. [`propagate`](EvalScratch::propagate) one or more forced net changes
///    (only the disturbed cone is re-evaluated);
/// 3. either [`commit`](EvalScratch::commit) to keep the new state or
///    [`revert`](EvalScratch::revert) to restore the pre-propagation
///    values in O(touched).
#[derive(Debug, Clone)]
pub struct EvalScratch {
    values: Vec<u64>,
    scheduled: Vec<bool>,
    queue: LevelQueue,
    /// Undo log: `(net, value before the first change)` in touch order.
    touched: Vec<(u32, u64)>,
    counters: EngineCounters,
    /// Test-only fault injection: when `Some(n)`, the n-th future undo-log
    /// record (0-based) is silently dropped. See
    /// [`sabotage_drop_undo`](EvalScratch::sabotage_drop_undo).
    drop_undo_countdown: Option<u64>,
}

impl EvalScratch {
    /// Creates a scratch sized for `cc`.
    pub fn new(cc: &CompiledCircuit) -> Self {
        EvalScratch {
            values: vec![0; cc.num_nets()],
            scheduled: vec![false; cc.num_nets()],
            queue: LevelQueue::new(cc.depth()),
            touched: Vec::new(),
            counters: EngineCounters::default(),
            drop_undo_countdown: None,
        }
    }

    /// Test-only mutation hook (conformance mutation-kill harness): arranges
    /// for the `nth` undo-log record from now (0-based) to be dropped, so a
    /// later [`revert`](EvalScratch::revert) leaves that net stale. Never
    /// call this outside fault-injection tests.
    pub fn sabotage_drop_undo(&mut self, nth: u64) {
        self.drop_undo_countdown = Some(nth);
    }

    /// Records one undo-log entry, honouring the test-only drop fault.
    #[inline]
    fn record_touch(&mut self, net: u32, old: u64) {
        if let Some(n) = self.drop_undo_countdown {
            self.drop_undo_countdown = n.checked_sub(1);
            if n == 0 {
                return;
            }
        }
        self.touched.push((net, old));
    }

    /// Runs the full sweep into this scratch and clears the undo log.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the combinational input
    /// count of `cc`.
    pub fn eval_full(&mut self, cc: &CompiledCircuit, input_words: &[u64]) {
        cc.eval_full_into(input_words, &mut self.values);
        self.touched.clear();
        self.counters.full_evals += 1;
    }

    /// Current value word of `net`.
    #[inline]
    pub fn value(&self, net: u32) -> u64 {
        self.values[net as usize]
    }

    /// Current value words of all nets, indexed by net id.
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The undo log since the last [`eval_full`](EvalScratch::eval_full),
    /// [`commit`](EvalScratch::commit) or [`revert`](EvalScratch::revert):
    /// `(net, previous value)` pairs, each net at most once per
    /// [`propagate`](EvalScratch::propagate) call.
    pub fn touched(&self) -> &[(u32, u64)] {
        &self.touched
    }

    /// Kernel work counters accumulated by this scratch.
    pub fn counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// The incremental kernel: forces `net` to `word` and re-evaluates only
    /// the downstream cone, in level order. The forced net keeps `word` even
    /// if it has a driver (the stuck-at / key-flip semantics); every value
    /// change is recorded in the undo log. Returns the mask of patterns on
    /// which some combinational output changed relative to the state before
    /// this call.
    pub fn propagate(&mut self, cc: &CompiledCircuit, net: u32, word: u64) -> u64 {
        self.counters.incremental_props += 1;
        let mut out_diff = 0u64;
        let old = self.values[net as usize];
        if old == word {
            return 0;
        }
        self.values[net as usize] = word;
        self.record_touch(net, old);
        if cc.is_output(net) {
            out_diff |= old ^ word;
        }
        for &f in cc.fanout(net) {
            self.schedule(cc, f);
        }
        // The forced net cannot re-enter the queue: only its fanins could
        // schedule it, and they are strictly upstream of the disturbed cone.
        while let Some(n) = self.queue.pop() {
            self.scheduled[n as usize] = false;
            self.counters.events += 1;
            let Some(kind) = cc.kind_of(n) else { continue };
            let new = CompiledCircuit::eval_gate(kind, cc.fanin(n), &self.values);
            let cur = self.values[n as usize];
            if new != cur {
                self.values[n as usize] = new;
                self.record_touch(n, cur);
                if cc.is_output(n) {
                    out_diff |= cur ^ new;
                }
                for &f in cc.fanout(n) {
                    self.schedule(cc, f);
                }
            }
        }
        out_diff
    }

    #[inline]
    fn schedule(&mut self, cc: &CompiledCircuit, net: u32) {
        if !self.scheduled[net as usize] {
            self.scheduled[net as usize] = true;
            self.queue.push(cc.level_of(net), net);
        }
    }

    /// Accepts the propagated state: clears the undo log.
    pub fn commit(&mut self) {
        self.touched.clear();
    }

    /// Rejects the propagated state: restores every touched net to its
    /// value before the first touch (reverse order, so nets touched by
    /// several [`propagate`](EvalScratch::propagate) calls resolve to their
    /// original value) and clears the undo log.
    pub fn revert(&mut self) {
        while let Some((net, old)) = self.touched.pop() {
            self.values[net as usize] = old;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    /// Naive reference: per-gate bool eval over one pattern.
    fn naive_eval(c: &Circuit, input: &[bool]) -> Vec<bool> {
        let lv = Levelization::build(c).unwrap();
        let mut values = vec![false; c.num_nets()];
        for (net, &b) in c.comb_inputs().iter().zip(input) {
            values[net.index()] = b;
        }
        for &id in lv.order() {
            if let Some(g) = c.gate(id) {
                values[id.index()] =
                    g.kind.eval(g.fanin.iter().map(|f| values[f.index()]));
            }
        }
        values
    }

    #[test]
    fn csr_matches_circuit_adjacency() {
        let c = samples::c17();
        let cc = CompiledCircuit::compile(&c).unwrap();
        let fanouts = c.fanouts();
        for id in c.net_ids() {
            let want_fanin: Vec<u32> = c
                .gate(id)
                .map(|g| g.fanin.iter().map(|f| f.0).collect())
                .unwrap_or_default();
            assert_eq!(cc.fanin(id.0), want_fanin.as_slice(), "fanin of {id}");
            let mut want_fanout: Vec<u32> = fanouts[id.index()].iter().map(|n| n.0).collect();
            let mut got_fanout = cc.fanout(id.0).to_vec();
            want_fanout.sort_unstable();
            got_fanout.sort_unstable();
            assert_eq!(got_fanout, want_fanout, "fanout of {id}");
        }
    }

    #[test]
    fn rank_is_dense_topological_position() {
        let c = samples::ripple_adder(4);
        let cc = CompiledCircuit::compile(&c).unwrap();
        for (r, id) in cc.order().iter().enumerate() {
            assert_eq!(cc.rank(id.0), r as u32);
        }
        for id in c.net_ids() {
            for &f in cc.fanin(id.0) {
                assert!(cc.rank(f) < cc.rank(id.0), "fanin rank must precede");
            }
        }
    }

    #[test]
    fn full_sweep_matches_naive() {
        let c = samples::full_adder();
        let cc = CompiledCircuit::compile(&c).unwrap();
        let mut values = Vec::new();
        for m in 0..8u64 {
            let input: Vec<bool> = (0..3).map(|k| (m >> k) & 1 == 1).collect();
            let words: Vec<u64> = input.iter().map(|&b| if b { !0 } else { 0 }).collect();
            cc.eval_full_into(&words, &mut values);
            let want = naive_eval(&c, &input);
            for id in c.net_ids() {
                assert_eq!(
                    values[id.index()] & 1 == 1,
                    want[id.index()],
                    "net {id} at m={m}"
                );
            }
        }
    }

    #[test]
    fn incremental_matches_full_resweep() {
        let c = crate::generate::random_comb(11, 8, 4, 120).unwrap();
        let cc = CompiledCircuit::compile(&c).unwrap();
        let mut rng = crate::rng::SplitMix64::new(99);
        let base: Vec<u64> = (0..cc.inputs().len()).map(|_| rng.next_u64()).collect();
        let mut scratch = EvalScratch::new(&cc);
        scratch.eval_full(&cc, &base);
        for step in 0..40 {
            let i = (rng.next_u64() as usize) % cc.inputs().len();
            let w = rng.next_u64();
            let net = cc.inputs()[i].0;
            scratch.propagate(&cc, net, w);
            scratch.commit();
            let mut full = Vec::new();
            let current: Vec<u64> = cc.inputs().iter().map(|n| scratch.value(n.0)).collect();
            cc.eval_full_into(&current, &mut full);
            assert_eq!(scratch.values(), full.as_slice(), "step {step}");
        }
        assert!(scratch.counters().incremental_props >= 1);
        assert!(scratch.counters().full_evals == 1);
    }

    #[test]
    fn revert_restores_exact_state() {
        let c = samples::c17();
        let cc = CompiledCircuit::compile(&c).unwrap();
        let mut scratch = EvalScratch::new(&cc);
        let base = vec![0xAAAA_5555_u64; cc.inputs().len()];
        scratch.eval_full(&cc, &base);
        let before = scratch.values().to_vec();
        // Two stacked propagations, then revert both.
        scratch.propagate(&cc, cc.inputs()[0].0, !0);
        scratch.propagate(&cc, cc.inputs()[1].0, 0);
        scratch.revert();
        assert_eq!(scratch.values(), before.as_slice());
        assert!(scratch.touched().is_empty());
    }

    #[test]
    fn propagate_reports_output_diff_mask() {
        // y = AND(a, b): flipping a changes y only where b is 1.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate(GateKind::And, vec![a, b], "y").unwrap();
        c.mark_output(y);
        let cc = CompiledCircuit::compile(&c).unwrap();
        let mut scratch = EvalScratch::new(&cc);
        scratch.eval_full(&cc, &[0u64, 0b1100u64]);
        let diff = scratch.propagate(&cc, a.0, !0u64);
        assert_eq!(diff, 0b1100);
        let _ = y;
    }

    #[test]
    fn forced_gate_output_stays_forced() {
        // Stuck-at semantics: forcing a driven net keeps the forced value.
        let mut c = Circuit::new("t");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::Not, vec![a], "g").unwrap();
        let y = c.add_gate(GateKind::Not, vec![g], "y").unwrap();
        c.mark_output(y);
        let cc = CompiledCircuit::compile(&c).unwrap();
        let mut scratch = EvalScratch::new(&cc);
        scratch.eval_full(&cc, &[0u64]);
        assert_eq!(scratch.value(y.0), 0);
        let diff = scratch.propagate(&cc, g.0, 0u64); // g would be 1 naturally
        assert_eq!(scratch.value(g.0), 0);
        assert_eq!(scratch.value(y.0), !0u64);
        assert_eq!(diff, !0u64);
    }

    #[test]
    fn pin_override_eval_matches_temp_copy() {
        let vals = [0b1010u64, 0b0110, 0b1100];
        let fanin = [0u32, 1, 2];
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand] {
            for pin in 0..3 {
                for forced in [0u64, !0u64, 0b1111] {
                    let mut copy = vals;
                    copy[pin] = forced;
                    let want = CompiledCircuit::eval_gate(kind, &fanin, &copy);
                    let got =
                        CompiledCircuit::eval_gate_with_pin(kind, &fanin, &vals, pin, forced);
                    assert_eq!(got, want, "{kind} pin {pin}");
                }
            }
        }
    }

    #[test]
    fn cyclic_circuit_rejected() {
        let mut c = Circuit::new("cyc");
        let a = c.add_input("a");
        let g = c.add_gate(GateKind::And, vec![a, a], "g").unwrap();
        let h = c.add_gate(GateKind::Not, vec![g], "h").unwrap();
        c.set_driver(g, crate::Gate::new(GateKind::And, vec![a, h]).unwrap())
            .unwrap();
        assert!(matches!(
            CompiledCircuit::compile(&c),
            Err(Error::CombinationalCycle(_))
        ));
    }

    #[test]
    fn level_queue_pops_levels_ascending_fifo_within() {
        let mut q = LevelQueue::new(5);
        q.push(3, 30);
        q.push(1, 10);
        q.push(3, 31);
        q.push(0, 0);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(10));
        // Pushing below the current frontier still works (mutant safety).
        q.push(2, 20);
        assert_eq!(q.pop(), Some(20));
        assert_eq!(q.pop(), Some(30));
        q.push(5, 50);
        assert_eq!(q.pop(), Some(31));
        assert_eq!(q.pop(), Some(50));
        assert_eq!(q.pop(), None);
        // Reuse after drain.
        q.push(4, 40);
        assert_eq!(q.pop(), Some(40));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn levels_and_depth_exposed() {
        let c = samples::ripple_adder(4);
        let cc = CompiledCircuit::compile(&c).unwrap();
        let lv = Levelization::build(&c).unwrap();
        assert_eq!(cc.depth(), lv.depth());
        for id in c.net_ids() {
            assert_eq!(cc.level_of(id.0), lv.level(id));
            for &f in cc.fanin(id.0) {
                assert!(cc.level_of(f) < cc.level_of(id.0));
            }
        }
    }

    #[test]
    fn cone_mass_counts_downstream_work() {
        // a feeds g and h; g feeds y. mass(y)=1, mass(g)=2, mass(h)=1,
        // mass(a)=1+mass(g)+mass(h)=4.
        let mut c = Circuit::new("m");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g = c.add_gate(GateKind::And, vec![a, b], "g").unwrap();
        let h = c.add_gate(GateKind::Or, vec![a, b], "h").unwrap();
        let y = c.add_gate(GateKind::Not, vec![g], "y").unwrap();
        c.mark_output(y);
        c.mark_output(h);
        let cc = CompiledCircuit::compile(&c).unwrap();
        assert_eq!(cc.cone_mass(y.0), 1);
        assert_eq!(cc.cone_mass(g.0), 2);
        assert_eq!(cc.cone_mass(h.0), 1);
        assert_eq!(cc.cone_mass(a.0), 4);
    }

    #[test]
    fn skew_fanin_start_mutant_changes_semantics() {
        let c = samples::full_adder();
        let mut cc = CompiledCircuit::compile(&c).unwrap();
        let clean = CompiledCircuit::compile(&c).unwrap();
        // Pick a driven net with >= 2 fanins and a nonzero first-fanin
        // sensitivity; the skew must change some full-sweep output.
        let target = c
            .net_ids()
            .find(|id| cc.fanin(id.0).len() >= 2)
            .expect("full adder has multi-fanin gates");
        assert!(cc.mutate_skew_fanin_start(target.0));
        assert_eq!(cc.fanin(target.0).len(), clean.fanin(target.0).len() - 1);
        let words: Vec<u64> = (0..cc.inputs().len()).map(|i| 0xA5A5 << i).collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        cc.eval_full_into(&words, &mut got);
        clean.eval_full_into(&words, &mut want);
        assert_ne!(got, want, "skewed CSR must be observable");
    }
}
