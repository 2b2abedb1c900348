//! Construction of an OraP-protected design.
//!
//! The designer-side flow: lock the combinational part with weighted logic
//! locking, configure the key-register LFSR (characteristic polynomial with
//! a tap every `tap_spacing` cells, reseeding points), pick the unlock
//! schedule shape, and *solve over GF(2)* for the memory words (the key
//! sequence) that make the LFSR land exactly on the lock's correct key.
//!
//! For the modified scheme (Fig. 3), part of the injections come from
//! circuit flip-flops, which couples the key-register trajectory to the
//! circuit's own (locked) responses. Seed solving stays *exact* by
//! exploiting propagation delay: a memory word injected at cycle `t` cannot
//! influence a tapped flip-flop before cycle `t + 1 + depth`, where `depth`
//! is the flip-flop's sequential distance from the nearest key gate. The
//! construction taps the deepest flip-flops, plays zero words for the head
//! of the schedule, and solves the GF(2) system over only the tail cycles —
//! which provably cannot disturb the response stream (see DESIGN.md).

use std::collections::HashSet;

use lfsr::gf2::{BitMatrix, BitVec};
use lfsr::{KeySequence, Lfsr, LfsrConfig, UnlockSchedule};
use locking::weighted::{self, WllConfig};
use locking::LockedCircuit;
use netlist::{Circuit, NetId, TransitiveFanin};

/// Which OraP variant to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OrapVariant {
    /// Fig. 1: all reseeding points driven by the tamper-proof memory.
    #[default]
    Basic,
    /// Fig. 3: half the reseeding points driven by circuit flip-flops, so
    /// the responses produced *during* unlocking are needed to unlock.
    Modified,
}

/// The fixed primary-input stimulus the logic-locking controller applies
/// while the unlock process runs. Any agreed constant works; the modified
/// scheme needs one that makes the tapped flip-flops actually toggle from
/// reset (all-ones suits enable-style inputs, hence the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnlockStimulus {
    /// Hold every primary input low.
    AllZero,
    /// Hold every primary input high.
    #[default]
    AllOnes,
}

impl UnlockStimulus {
    /// The constant value applied to each primary input.
    pub fn value(self) -> bool {
        matches!(self, UnlockStimulus::AllOnes)
    }
}

/// Seeds in the key sequence (auto-raised until the GF(2) system is
/// solvable, up to 4× this value).
const UNLOCK_SEEDS: usize = 4;

/// OraP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct OrapConfig {
    /// Scheme variant.
    pub variant: OrapVariant,
    /// Primary-input stimulus during unlocking.
    pub unlock_stimulus: UnlockStimulus,
    /// New feedback tap every this many LFSR cells (the paper uses 8).
    pub tap_spacing: usize,
    /// Free-run cycles after each seed (Basic variant; the Modified variant
    /// injects responses on every cycle, so "free run" means an all-zero
    /// memory word).
    pub free_run: usize,
    /// Number of scan chains on the chip.
    pub scan_chains: usize,
    /// PRNG seed for all designer-side choices.
    pub seed: u64,
}

impl Default for OrapConfig {
    fn default() -> Self {
        OrapConfig {
            variant: OrapVariant::Basic,
            unlock_stimulus: UnlockStimulus::AllOnes,
            tap_spacing: 8,
            free_run: 2,
            scan_chains: 4,
            seed: 0x0DA7,
        }
    }
}

/// Errors during OraP construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OrapError {
    /// The underlying netlist/locking step failed.
    Netlist(netlist::Error),
    /// The GF(2) system for the key sequence was unsolvable even after
    /// extending the schedule (insufficient controllability).
    Unsolvable {
        /// Rank achieved versus the key width.
        rank: usize,
        /// Key width required.
        width: usize,
    },
    /// The design has no flip-flops but the modified variant needs them.
    NoFlipFlops,
}

impl std::fmt::Display for OrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrapError::Netlist(e) => write!(f, "netlist error: {e}"),
            OrapError::Unsolvable { rank, width } => write!(
                f,
                "key sequence unsolvable: seed-to-key rank {rank} < key width {width}"
            ),
            OrapError::NoFlipFlops => {
                write!(f, "modified OraP needs circuit flip-flops to tap")
            }
        }
    }
}

impl std::error::Error for OrapError {}

impl From<netlist::Error> for OrapError {
    fn from(e: netlist::Error) -> Self {
        OrapError::Netlist(e)
    }
}

/// A fully constructed OraP-protected design: everything the designer tapes
/// out plus the secrets that go to the tamper-proof memory.
#[derive(Debug, Clone)]
pub struct OrapProtected {
    /// The WLL-locked netlist (key inputs driven by the LFSR cells on chip).
    pub locked: LockedCircuit,
    /// The key-register configuration.
    pub lfsr: LfsrConfig,
    /// Scheme variant.
    pub variant: OrapVariant,
    /// Reseeding points driven by the tamper-proof memory.
    pub memory_points: Vec<usize>,
    /// Reseeding points driven by circuit flip-flops (empty for Basic).
    pub response_points: Vec<usize>,
    /// Flip-flop indices (into the design's [`Circuit::dffs`]) feeding the
    /// response points, positionally matched to `response_points`.
    pub response_ffs: Vec<usize>,
    /// The secret key sequence: one memory word per unlock cycle
    /// (word width = `memory_points.len()`).
    pub key_sequence: Vec<Vec<bool>>,
    /// Free-run cycles after each seed (Basic variant only; Modified runs
    /// every cycle with response injection).
    pub free_run: usize,
    /// Primary-input stimulus applied by the unlock controller.
    pub unlock_stimulus: UnlockStimulus,
    /// Number of scan chains.
    pub scan_chains: usize,
    /// Hardware cost of the OraP additions, in gate counts that Table I
    /// folds into the area overhead.
    pub hardware: OrapHardwareCost,
}

/// The extra gates OraP adds (beyond the WLL key gates), per the paper's
/// accounting: reseeding XORs + characteristic-polynomial XORs + one pulse
/// generator per cell (the NAND2; inverters are excluded from gate counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrapHardwareCost {
    /// XOR gates (reseeding points + feedback taps − 1).
    pub xor_gates: usize,
    /// Pulse-generator NAND gates (one per LFSR cell).
    pub pulse_nands: usize,
}

impl OrapHardwareCost {
    /// Total extra gates, excluding inverters (the Table I convention; the
    /// LFSR flip-flops are excluded too because every locking scheme needs a
    /// key register).
    pub fn gates(&self) -> usize {
        self.xor_gates + self.pulse_nands
    }
}

impl OrapProtected {
    /// Key width (= LFSR width).
    pub fn key_bits(&self) -> usize {
        self.lfsr.width
    }

    /// Unlock latency in clock cycles.
    pub fn unlock_cycles(&self) -> usize {
        match self.variant {
            OrapVariant::Basic => self.key_sequence.len() * (1 + self.free_run),
            OrapVariant::Modified => self.key_sequence.len(),
        }
    }
}

/// Chip-accurate simulation of the modified unlock process: the circuit's
/// flip-flops and the key register co-evolve (the key gates see the evolving
/// LFSR state; the LFSR sees the flip-flop responses). Returns the response
/// stream (per-cycle values at the tapped flip-flops, sampled before the
/// clock) and the final key-register state.
#[allow(clippy::too_many_arguments)]
fn simulate_modified_unlock(
    design: &Circuit,
    locked: &LockedCircuit,
    lfsr_cfg: &LfsrConfig,
    memory_points: &[usize],
    response_points: &[usize],
    response_ffs: &[usize],
    seeds: &[Vec<bool>],
    stimulus: UnlockStimulus,
) -> (Vec<Vec<bool>>, Vec<bool>) {
    let comb = gatesim::CombSim::new(&locked.circuit).expect("validated circuit");
    let n_orig_pis = design.primary_inputs().len();
    // Classify combinational input positions: original PIs, key inputs, FFs.
    let key_nets: HashSet<NetId> = locked.key_inputs.iter().copied().collect();
    let dff_qs: Vec<NetId> = locked.circuit.dffs().iter().map(|d| d.q).collect();
    let mut key_pos = vec![usize::MAX; locked.key_inputs.len()];
    let mut state_pos = Vec::new();
    let mut pi_pos = Vec::new();
    for (i, n) in comb.inputs().iter().enumerate() {
        if key_nets.contains(n) {
            let k = locked
                .key_inputs
                .iter()
                .position(|kn| kn == n)
                .expect("in set");
            key_pos[k] = i;
        } else if dff_qs.contains(n) {
            state_pos.push(i);
        } else {
            pi_pos.push(i);
        }
    }
    debug_assert_eq!(pi_pos.len(), n_orig_pis);

    let n_pos = locked.circuit.primary_outputs().len();
    let mut state = vec![false; dff_qs.len()];
    let mut reg = Lfsr::new(lfsr_cfg.clone());
    let mut stream = Vec::with_capacity(seeds.len());
    for word in seeds {
        let responses: Vec<bool> = response_ffs.iter().map(|&f| state[f]).collect();
        let mut injection = vec![false; lfsr_cfg.reseed_points.len()];
        for (&p, &b) in memory_points.iter().zip(word) {
            injection[p] = b;
        }
        for (&p, &b) in response_points.iter().zip(&responses) {
            injection[p] = b;
        }
        stream.push(responses);
        // Circuit clocks with the current register state as key.
        let mut input = vec![0u64; comb.inputs().len()];
        for &p in &pi_pos {
            input[p] = if stimulus.value() { !0 } else { 0 };
        }
        for (&p, &b) in state_pos.iter().zip(&state) {
            input[p] = if b { !0 } else { 0 };
        }
        for (&p, b) in key_pos.iter().zip(reg.state()) {
            input[p] = if b { !0 } else { 0 };
        }
        let out = comb.eval_words(&input);
        state = out[n_pos..].iter().map(|w| w & 1 == 1).collect();
        reg.step(&injection);
    }
    (stream, reg.state())
}

/// Flip-flops whose *sequential* input cone (transitive through other
/// flip-flops) avoids every net in `avoid`: their unlock-time trajectory is
/// independent of the key-register state.
pub fn sequentially_clean_ffs(circuit: &Circuit, avoid: &HashSet<NetId>) -> Vec<usize> {
    let dffs = circuit.dffs();
    let n = dffs.len();
    // d-cone of each FF and which FFs it reads.
    let mut cone_dirty = vec![false; n];
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, dff) in dffs.iter().enumerate() {
        let cone = TransitiveFanin::of(circuit, [dff.d]);
        cone_dirty[i] = avoid.iter().any(|net| cone.contains(*net));
        for (j, other) in dffs.iter().enumerate() {
            if cone.contains(other.q) {
                reads[i].push(j);
            }
        }
    }
    // Fixpoint: an FF is dirty if its cone is dirty or it reads a dirty FF.
    let mut dirty = cone_dirty;
    loop {
        let mut changed = false;
        for i in 0..n {
            if !dirty[i] && reads[i].iter().any(|&j| dirty[j]) {
                dirty[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (0..n).filter(|&i| !dirty[i]).collect()
}

/// Builds an OraP-protected design from `design`.
///
/// The returned [`OrapProtected`] carries the locked netlist, the LFSR and
/// scan configuration, and the solved key sequence whose execution leaves
/// the LFSR holding exactly the lock's correct key.
///
/// # Errors
///
/// - [`OrapError::Netlist`] if locking fails (e.g. too few lockable nets);
/// - [`OrapError::NoFlipFlops`] for [`OrapVariant::Modified`] on a purely
///   combinational design;
/// - [`OrapError::Unsolvable`] if the schedule cannot reach the key even
///   after extension (pathological LFSR configurations).
pub fn protect(
    design: &Circuit,
    wll: &WllConfig,
    config: &OrapConfig,
) -> Result<OrapProtected, OrapError> {
    match config.variant {
        OrapVariant::Basic => protect_basic(design, wll, config),
        OrapVariant::Modified => protect_modified(design, wll, config),
    }
}

fn build_lfsr(width: usize, tap_spacing: usize) -> LfsrConfig {
    LfsrConfig::with_tap_spacing(width, tap_spacing.max(1))
}

fn hardware_cost(lfsr: &LfsrConfig) -> OrapHardwareCost {
    OrapHardwareCost {
        xor_gates: lfsr.xor_gate_cost(),
        pulse_nands: lfsr.width,
    }
}

fn protect_basic(
    design: &Circuit,
    wll: &WllConfig,
    config: &OrapConfig,
) -> Result<OrapProtected, OrapError> {
    let locked = weighted::lock(design, wll)?;
    let width = locked.key_bits();
    let lfsr = build_lfsr(width, config.tap_spacing);
    // All points memory-driven.
    let memory_points: Vec<usize> = lfsr.reseed_points.clone();

    // Solve for seeds; extend the schedule if the map lacks rank.
    let mut seeds_count = UNLOCK_SEEDS;
    let max_seeds = UNLOCK_SEEDS * 4;
    loop {
        let shape = KeySequence::new(
            vec![vec![false; memory_points.len()]; seeds_count],
            vec![config.free_run; seeds_count],
        );
        let schedule = UnlockSchedule::new(lfsr.clone(), shape);
        match schedule.solve_seeds_for_key(&locked.correct_key) {
            Some(solved) => {
                debug_assert_eq!(
                    UnlockSchedule::new(lfsr.clone(), solved.clone()).derive_key(),
                    locked.correct_key
                );
                let hardware = hardware_cost(&lfsr);
                return Ok(OrapProtected {
                    locked,
                    lfsr,
                    variant: OrapVariant::Basic,
                    memory_points,
                    response_points: Vec::new(),
                    response_ffs: Vec::new(),
                    key_sequence: solved.seeds,
                    free_run: config.free_run,
                    unlock_stimulus: config.unlock_stimulus,
                    scan_chains: config.scan_chains.max(1),
                    hardware,
                });
            }
            None if seeds_count < max_seeds => seeds_count *= 2,
            None => {
                let (a, _) = UnlockSchedule::new(
                    lfsr.clone(),
                    KeySequence::new(
                        vec![vec![false; memory_points.len()]; seeds_count],
                        vec![config.free_run; seeds_count],
                    ),
                )
                .seed_to_key_map();
                return Err(OrapError::Unsolvable {
                    rank: a.rank(),
                    width,
                });
            }
        }
    }
}

fn protect_modified(
    design: &Circuit,
    wll: &WllConfig,
    config: &OrapConfig,
) -> Result<OrapProtected, OrapError> {
    if design.dffs().is_empty() {
        return Err(OrapError::NoFlipFlops);
    }
    // 1. Lock first: plain impact-guided WLL, unconstrained (best HD).
    let locked = weighted::lock(design, wll)?;
    let width = locked.key_bits();
    let key_nets: HashSet<NetId> = locked.key_inputs.iter().copied().collect();

    // 2. Key sequential distance of every flip-flop: depth(f) = 1 when a
    //    key gate sits in f's direct input cone, else 1 + min depth of the
    //    flip-flops that cone reads (usize::MAX = never influenced). The
    //    value a flip-flop holds at cycle u of the unlock process is
    //    key-independent for all u < depth(f).
    let dffs = locked.circuit.dffs().to_vec();
    let nf = dffs.len();
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); nf];
    let mut depth: Vec<usize> = vec![usize::MAX; nf];
    for (i, dff) in dffs.iter().enumerate() {
        let cone = TransitiveFanin::of(&locked.circuit, [dff.d]);
        if key_nets.iter().any(|k| cone.contains(*k)) {
            depth[i] = 1;
        }
        for (j, other) in dffs.iter().enumerate() {
            if cone.contains(other.q) {
                reads[i].push(j);
            }
        }
    }
    loop {
        let mut changed = false;
        for i in 0..nf {
            let via: usize = reads[i]
                .iter()
                .map(|&j| depth[j].saturating_add(1))
                .min()
                .unwrap_or(usize::MAX);
            if via < depth[i] {
                depth[i] = via;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 3. Tap the deepest (least key-coupled) flip-flops; try progressively
    //    fewer taps until the tail system below is solvable.
    let mut by_depth: Vec<usize> = (0..nf).collect();
    by_depth.sort_by_key(|&i| std::cmp::Reverse(depth[i]));
    let want_responses = (width / 2).max(1).min(nf);
    let lfsr = build_lfsr(width, config.tap_spacing);

    let mut r = want_responses;
    loop {
        let response_ffs: Vec<usize> = by_depth[..r].to_vec();
        // Tail length: seeds injected at cycle t reach the key inputs at
        // cycle t+1 and a tapped value at cycle t+1+depth; with the stream
        // read up to cycle `cycles-1`, the last `depth_min` cycles of seeds
        // cannot disturb it.
        let depth_min = response_ffs
            .iter()
            .map(|&f| depth[f])
            .min()
            .unwrap_or(usize::MAX)
            .clamp(1, 16);

        // Interleave response and memory points (the paper's guideline).
        let mut response_points = Vec::with_capacity(r);
        let mut memory_points = Vec::with_capacity(width - r);
        for cell in 0..width {
            if cell % 2 == 1 && response_points.len() < r {
                response_points.push(cell);
            } else {
                memory_points.push(cell);
            }
        }
        let m = memory_points.len();

        // Tail map: contribution of the last `k` cycles of memory words.
        // A seed injected at cycle t reaches a tapped flip-flop's value no
        // earlier than cycle t + 1 + depth, so the last `depth_min + 1`
        // cycles provably cannot disturb the stream. Search that window for
        // the smallest tail with full rank.
        let k_max = depth_min.saturating_add(1).min(64);
        let mut k = width.div_ceil(m).max(1).min(k_max);
        let a_tail = loop {
            let mem_lfsr =
                LfsrConfig::new(width, lfsr.taps.clone(), memory_points.clone());
            let tail_shape = KeySequence::new(vec![vec![false; m]; k], vec![0; k]);
            let (a, _) = UnlockSchedule::new(mem_lfsr, tail_shape).seed_to_key_map();
            if a.rank() == width {
                break a;
            }
            if k < k_max {
                k += 1;
                continue;
            }
            if r > 1 {
                break BitMatrix::zeros(0, 0); // sentinel: retry with fewer taps
            }
            return Err(OrapError::Unsolvable {
                rank: a.rank(),
                width,
            });
        };
        if a_tail.rows() == 0 {
            r /= 2;
            continue;
        }

        // Head: enough zero cycles that the schedule looks like the paper's
        // multi-seed process (and gives the response stream time to mix).
        let head = UNLOCK_SEEDS * 2;
        let cycles = head + k;
        let zero_seeds = vec![vec![false; m]; cycles];
        let (stream, _) = simulate_modified_unlock(
            design,
            &locked,
            &lfsr,
            &memory_points,
            &response_points,
            &response_ffs,
            &zero_seeds,
            config.unlock_stimulus,
        );
        // c: key-register state after the full schedule with zero memory
        // words but the real response stream.
        let mut reg = Lfsr::new(lfsr.clone());
        for resp in &stream {
            let mut injection = vec![false; lfsr.reseed_points.len()];
            for (&p, &v) in response_points.iter().zip(resp) {
                injection[p] = v;
            }
            reg.step(&injection);
        }
        let mut rhs = BitVec::from_bools(&locked.correct_key);
        rhs.xor_assign(&BitVec::from_bools(&reg.state()));
        let sol = a_tail.solve(&rhs).expect("rank checked above");
        let mut seeds = vec![vec![false; m]; head];
        for cyc in 0..k {
            seeds.push((0..m).map(|j| sol.get(cyc * m + j)).collect());
        }

        // Designer verification: the coupled execution must land exactly on
        // the correct key (guaranteed when the tail really cannot disturb
        // the stream; checked here unconditionally).
        let (_, key) = simulate_modified_unlock(
            design,
            &locked,
            &lfsr,
            &memory_points,
            &response_points,
            &response_ffs,
            &seeds,
            config.unlock_stimulus,
        );
        if key != locked.correct_key {
            if r > 1 {
                r /= 2;
                continue;
            }
            return Err(OrapError::Unsolvable { rank: width, width });
        }

        let hardware = hardware_cost(&lfsr);
        let protected = OrapProtected {
            locked,
            lfsr,
            variant: OrapVariant::Modified,
            memory_points,
            response_points,
            response_ffs,
            key_sequence: seeds,
            free_run: 0,
            unlock_stimulus: config.unlock_stimulus,
            scan_chains: config.scan_chains.max(1),
            hardware,
        };
        debug_assert_eq!(
            derive_key_modified(design, &protected),
            protected.locked.correct_key
        );
        return Ok(protected);
    }
}

/// Honest (Trojan-free) execution of the modified unlock process: the
/// chip-accurate coupled simulation of the circuit's flip-flops and the key
/// register. Returns the final key-register state.
pub fn derive_key_modified(design: &Circuit, protected: &OrapProtected) -> Vec<bool> {
    let (_, key) = simulate_modified_unlock(
        design,
        &protected.locked,
        &protected.lfsr,
        &protected.memory_points,
        &protected.response_points,
        &protected.response_ffs,
        &protected.key_sequence,
        protected.unlock_stimulus,
    );
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;

    fn wll(bits: usize) -> WllConfig {
        WllConfig {
            key_bits: bits,
            control_width: 3,
            seed: 5,
        }
    }

    #[test]
    fn basic_scheme_lands_on_correct_key() {
        let design = samples::counter(8);
        let p = protect(&design, &wll(12), &OrapConfig::default()).unwrap();
        let shape = KeySequence::new(
            p.key_sequence.clone(),
            vec![p.free_run; p.key_sequence.len()],
        );
        let schedule = UnlockSchedule::new(p.lfsr.clone(), shape);
        assert_eq!(schedule.derive_key(), p.locked.correct_key);
    }

    #[test]
    fn basic_scheme_on_combinational_design() {
        let design = samples::ripple_adder(8);
        let p = protect(&design, &wll(9), &OrapConfig::default()).unwrap();
        assert_eq!(p.key_bits(), 9);
        assert!(p.unlock_cycles() > 0);
    }

    #[test]
    fn modified_scheme_lands_on_correct_key() {
        let design = samples::counter(10);
        let cfg = OrapConfig {
            variant: OrapVariant::Modified,
            ..OrapConfig::default()
        };
        let p = protect(&design, &wll(8), &cfg).unwrap();
        assert_eq!(p.variant, OrapVariant::Modified);
        assert!(!p.response_points.is_empty());
        assert_eq!(derive_key_modified(&design, &p), p.locked.correct_key);
    }

    #[test]
    fn modified_scheme_on_generated_benchmark() {
        let profile = netlist::generate::profile(netlist::generate::BenchmarkId::B20)
            .scaled(0.02);
        let design = netlist::generate::synthesize(&profile).unwrap();
        let cfg = OrapConfig {
            variant: OrapVariant::Modified,
            ..OrapConfig::default()
        };
        let p = protect(&design, &wll(16), &cfg).unwrap();
        assert_eq!(derive_key_modified(&design, &p), p.locked.correct_key);
    }

    #[test]
    fn modified_needs_flip_flops() {
        let design = samples::ripple_adder(4);
        let cfg = OrapConfig {
            variant: OrapVariant::Modified,
            ..OrapConfig::default()
        };
        assert_eq!(
            protect(&design, &wll(6), &cfg).unwrap_err(),
            OrapError::NoFlipFlops
        );
    }

    #[test]
    fn wrong_responses_yield_wrong_key() {
        // The modified scheme's core property: freeze the responses (all
        // zero, as a Trojan holding the FFs in reset would) and the derived
        // key is wrong.
        let design = samples::counter(10);
        let cfg = OrapConfig {
            variant: OrapVariant::Modified,
            ..OrapConfig::default()
        };
        let p = protect(&design, &wll(8), &cfg).unwrap();
        let mut reg = Lfsr::new(p.lfsr.clone());
        for word in &p.key_sequence {
            let mut injection = vec![false; p.lfsr.reseed_points.len()];
            for (&pt, &v) in p.memory_points.iter().zip(word) {
                injection[pt] = v;
            }
            // response points: frozen at zero
            reg.step(&injection);
        }
        assert_ne!(
            reg.state(),
            p.locked.correct_key,
            "frozen responses must corrupt the key"
        );
    }

    #[test]
    fn hardware_cost_accounting() {
        let design = samples::counter(8);
        let p = protect(&design, &wll(12), &OrapConfig::default()).unwrap();
        // tap-spacing-8 LFSR of width 12: taps {0, 8, 11} -> 2 XORs,
        // 12 reseed XORs, 12 pulse NANDs.
        assert_eq!(p.hardware.xor_gates, 12 + 2);
        assert_eq!(p.hardware.pulse_nands, 12);
        assert_eq!(p.hardware.gates(), 26);
    }

    #[test]
    fn clean_ff_analysis_detects_key_cones() {
        let design = samples::counter(6);
        let locked = weighted::lock(&design, &wll(6)).unwrap();
        let key_nets: HashSet<NetId> = locked.key_inputs.iter().copied().collect();
        let clean = sequentially_clean_ffs(&locked.circuit, &key_nets);
        // The counter is a carry chain: key gates on low bits dirty all
        // higher bits; whatever is clean must genuinely avoid key nets.
        for &f in &clean {
            let d = locked.circuit.dffs()[f].d;
            let cone = TransitiveFanin::of(&locked.circuit, [d]);
            for k in &key_nets {
                assert!(!cone.contains(*k));
            }
        }
    }

    #[test]
    fn unlock_cycles_reported() {
        let design = samples::counter(8);
        let p = protect(&design, &wll(12), &OrapConfig::default()).unwrap();
        assert_eq!(
            p.unlock_cycles(),
            p.key_sequence.len() * (1 + p.free_run)
        );
    }
}
