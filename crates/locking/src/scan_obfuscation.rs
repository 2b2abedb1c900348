//! Dynamic scan-chain obfuscation (after DynUnlock's target scheme,
//! arXiv:2001.06724).
//!
//! Static scan locking XORs a fixed key into fixed chain hops, so one leaked
//! chain image reveals the key. *Dynamic* obfuscation re-keys the chain on
//! **every shift cycle**: an on-chip LFSR is seeded from a secret key at
//! reset, steps once per shift clock, and its state drives a set of keyed
//! *stages* spliced into the chains — XOR inverters on hops and conditional
//! swaps of adjacent cells. The bit pattern a tester shifts in therefore
//! lands in the flip-flops permuted and inverted by a keystream, and what
//! shifts out is scrambled the same way; without the seed the scan interface
//! is useless as an oracle.
//!
//! The scheme is the workload for the DynUnlock attack
//! (`attacks::dyn_unlock`), which unrolls a bounded load→capture→unload
//! session of this model into a combinational circuit whose key inputs are
//! the LFSR seed, then runs the standard oracle-guided SAT loop on it. The
//! [`unroll`](ScanObfLocked::unroll) method here produces exactly that
//! circuit, so scheme and attack share one definition of the key schedule.
//!
//! Key-schedule model:
//!
//! ```text
//! S_0     = key (LFSR seeded at session reset)
//! S_{t+1} = LFSR_step(S_t)        // once per SHIFT cycle; capture does not step
//! stage s active in cycle t  <=>  S_t[cell(s)] = 1
//! ```
//!
//! Stages apply *after* the plain shift of [`ScanChains::shift_image`], in
//! catalog order: an `Invert` at position `p < len` flips the cell at hop
//! `p`; an `Invert` at `p == len` flips the outgoing scan-out bit; a `Swap`
//! at `p` exchanges the cells at hops `p` and `p+1` when its keystream bit
//! is set.

use std::collections::HashMap;

use gatesim::scan::ScanChains;
use gatesim::SeqSim;
use lfsr::{Lfsr, LfsrConfig};
use netlist::rng::SplitMix64;
use netlist::{Circuit, Error, GateKind, NetId};

use crate::LockedCircuit;

/// Parameters of the dynamic scan obfuscation scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanObfConfig {
    /// LFSR width = secret key width (the seed).
    pub key_bits: usize,
    /// Number of scan chains to thread the flip-flops onto (clamped to the
    /// flip-flop count).
    pub num_chains: usize,
    /// Place an inverter stage every this many hop positions per chain
    /// (`0` = no inverter stages). Position `len` is the scan-out hop.
    pub invert_spacing: usize,
    /// Place a swap stage every this many hop positions per chain
    /// (`0` = no swap stages).
    pub swap_spacing: usize,
    /// PRNG seed for stage→LFSR-cell wiring and the secret key.
    pub seed: u64,
}

impl ScanObfConfig {
    /// A balanced default: two chains, a keyed stage every other hop.
    pub fn balanced(key_bits: usize, seed: u64) -> Self {
        ScanObfConfig {
            key_bits,
            num_chains: 2,
            invert_spacing: 2,
            swap_spacing: 2,
            seed,
        }
    }
}

/// What a keyed stage does when its keystream bit is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// XOR the keystream bit into the cell at `pos` (or into the scan-out
    /// bit when `pos == chain_len`).
    Invert,
    /// Exchange the cells at `pos` and `pos + 1`.
    Swap,
}

/// One keyed stage spliced into a scan chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObfStage {
    /// Which chain the stage sits on.
    pub chain: usize,
    /// Hop position along the chain (see [`StageKind`]).
    pub pos: usize,
    /// LFSR cell whose state bit drives the stage.
    pub cell: usize,
    /// Stage function.
    pub kind: StageKind,
}

/// A circuit whose scan access is dynamically obfuscated.
///
/// Unlike combinational schemes there is no key input in the netlist: the
/// key lives in the scan path. [`ObfScanSim`] is the behavioural model (the
/// "chip"), [`unroll`](ScanObfLocked::unroll) the attack-facing
/// combinational view.
#[derive(Debug, Clone)]
pub struct ScanObfLocked {
    /// The functional netlist (unchanged by the scheme).
    pub circuit: Circuit,
    /// Scan-chain assignment.
    pub chains: ScanChains,
    /// The keystream LFSR (no reseeding points; the seed is the key).
    pub lfsr: LfsrConfig,
    /// The secret LFSR seed.
    pub correct_key: Vec<bool>,
    /// Keyed stages, in application order.
    pub stages: Vec<ObfStage>,
}

/// Applies dynamic scan obfuscation to a sequential circuit.
///
/// # Errors
///
/// Returns [`Error::BadProfile`] if `key_bits` is 0, the circuit has no
/// flip-flops, or the spacings produce no stages at all.
pub fn lock(original: &Circuit, config: &ScanObfConfig) -> Result<ScanObfLocked, Error> {
    if config.key_bits == 0 {
        return Err(Error::BadProfile("scan_obf key_bits must be positive".into()));
    }
    let ndffs = original.dffs().len();
    if ndffs == 0 {
        return Err(Error::BadProfile(
            "scan obfuscation needs a sequential circuit (no flip-flops found)".into(),
        ));
    }
    let num_chains = config.num_chains.clamp(1, ndffs);
    let chains = ScanChains::balanced(ndffs, num_chains);

    let mut rng = SplitMix64::new(config.seed ^ 0x5ca9_0bf5_eed5_2020);
    let mut stages = Vec::new();
    for c in 0..chains.num_chains() {
        let len = chains.chain(c).len();
        if len == 0 {
            continue;
        }
        if config.invert_spacing > 0 {
            for pos in (0..=len).step_by(config.invert_spacing) {
                stages.push(ObfStage {
                    chain: c,
                    pos,
                    cell: rng.below_usize(config.key_bits),
                    kind: StageKind::Invert,
                });
            }
        }
        if config.swap_spacing > 0 && len >= 2 {
            for pos in (0..len - 1).step_by(config.swap_spacing) {
                stages.push(ObfStage {
                    chain: c,
                    pos,
                    cell: rng.below_usize(config.key_bits),
                    kind: StageKind::Swap,
                });
            }
        }
    }
    if stages.is_empty() {
        return Err(Error::BadProfile(
            "scan_obf spacings produce no keyed stages".into(),
        ));
    }

    let mut correct_key: Vec<bool> = (0..config.key_bits).map(|_| rng.bool()).collect();
    if correct_key.iter().all(|&b| !b) {
        // An all-zero seed leaves the LFSR stuck at zero and every stage
        // permanently inactive; force a live keystream.
        correct_key[0] = true;
    }
    let taps = LfsrConfig::with_tap_spacing(config.key_bits, 8).taps;
    let lfsr = LfsrConfig::new(config.key_bits, taps, Vec::new());

    Ok(ScanObfLocked {
        circuit: original.clone(),
        chains,
        lfsr,
        correct_key,
        stages,
    })
}

/// Applies the keyed stages for one shift cycle to a concrete state image.
/// `ks` is the LFSR state for this cycle; `outs` the per-chain scan-out bits
/// produced by the plain shift.
fn apply_stages(
    stages: &[ObfStage],
    chains: &ScanChains,
    ks: &[bool],
    state: &mut [bool],
    outs: &mut [bool],
) {
    for st in stages {
        let chain = chains.chain(st.chain);
        let bit = ks[st.cell];
        match st.kind {
            StageKind::Invert => {
                if st.pos == chain.len() {
                    outs[st.chain] ^= bit;
                } else {
                    state[chain[st.pos]] ^= bit;
                }
            }
            StageKind::Swap => {
                if bit {
                    state.swap(chain[st.pos], chain[st.pos + 1]);
                }
            }
        }
    }
}

/// Behavioural model of the obfuscated chip: the thing an attacker's tester
/// talks to. Holds the real key; the attack only ever calls
/// [`session`](ObfScanSim::session).
#[derive(Debug, Clone)]
pub struct ObfScanSim {
    seq: SeqSim,
    chains: ScanChains,
    stages: Vec<ObfStage>,
    lfsr: Lfsr,
    key: Vec<bool>,
}

impl ObfScanSim {
    /// Builds the chip model with the given LFSR seed loaded (the chip is in
    /// its post-reset state).
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the combinational part is cyclic.
    ///
    /// # Panics
    ///
    /// Panics if `key` does not match the LFSR width.
    pub fn new(locked: &ScanObfLocked, key: &[bool]) -> Result<Self, Error> {
        assert_eq!(key.len(), locked.lfsr.width, "key width mismatch");
        let mut sim = ObfScanSim {
            seq: SeqSim::new(&locked.circuit)?,
            chains: locked.chains.clone(),
            stages: locked.stages.clone(),
            lfsr: Lfsr::new(locked.lfsr.clone()),
            key: key.to_vec(),
        };
        sim.reset();
        Ok(sim)
    }

    /// Chip reset: clears the flip-flops and reseeds the LFSR from the key.
    pub fn reset(&mut self) {
        self.seq.reset();
        self.lfsr.load(&self.key);
    }

    /// Current flip-flop state (white-box, for tests).
    pub fn state(&self) -> &[bool] {
        self.seq.state()
    }

    /// Current LFSR state (white-box, for tests).
    pub fn keystream(&self) -> Vec<bool> {
        self.lfsr.state()
    }

    /// The scan-chain configuration.
    pub fn chains(&self) -> &ScanChains {
        &self.chains
    }

    /// One shift clock: plain shift, then the keyed stages under the current
    /// LFSR state, then the LFSR steps. Returns the per-chain scan-out bits.
    ///
    /// # Panics
    ///
    /// Panics if `scan_in` does not hold one bit per chain.
    pub fn shift_clock(&mut self, scan_in: &[bool]) -> Vec<bool> {
        let mut state = self.seq.state().to_vec();
        let mut outs = self.chains.shift_image(&mut state, scan_in);
        let ks = self.lfsr.state();
        apply_stages(&self.stages, &self.chains, &ks, &mut state, &mut outs);
        self.seq.set_state(&state);
        self.lfsr.step(&[]);
        outs
    }

    /// One functional (capture) clock: evaluates the circuit with `pis`,
    /// latches the next state, returns the primary outputs. The LFSR does
    /// not step on capture cycles.
    pub fn capture(&mut self, pis: &[bool]) -> Vec<bool> {
        self.seq.step(pis)
    }

    /// One full tester session from reset: `load_cycles` shifts of
    /// `scan_stream` (cycle-major, one bit per chain per cycle), one capture
    /// with `pis`, then `unload_cycles` shifts with zero scan-in.
    ///
    /// Returns everything the tester observes, concatenated:
    /// load-phase scan-outs (`load_cycles * num_chains` bits), capture
    /// primary outputs, unload-phase scan-outs.
    ///
    /// # Panics
    ///
    /// Panics if `scan_stream` is not `load_cycles * num_chains` bits.
    pub fn session(
        &mut self,
        load_cycles: usize,
        unload_cycles: usize,
        scan_stream: &[bool],
        pis: &[bool],
    ) -> Vec<bool> {
        let nc = self.chains.num_chains();
        assert_eq!(
            scan_stream.len(),
            load_cycles * nc,
            "scan stream must hold one bit per chain per load cycle"
        );
        self.reset();
        let mut observed = Vec::new();
        for t in 0..load_cycles {
            observed.extend(self.shift_clock(&scan_stream[t * nc..(t + 1) * nc]));
        }
        observed.extend(self.capture(pis));
        let zeros = vec![false; nc];
        for _ in 0..unload_cycles {
            observed.extend(self.shift_clock(&zeros));
        }
        observed
    }
}

/// Bounds for [`ScanObfLocked::unroll`].
#[derive(Debug, Clone, Copy, Default)]
pub struct UnrollOptions {
    /// Load-phase shift cycles (`0` = the longest chain's length).
    pub load_cycles: usize,
    /// Unload-phase shift cycles (`0` = the longest chain's length).
    pub unload_cycles: usize,
}

/// A bounded scan session unrolled into a combinational [`LockedCircuit`]
/// whose key inputs are the LFSR seed.
///
/// Input order of `locked.circuit`: the `key_bits` seed inputs
/// (`scan_key_i`), then the load-phase scan-in bits cycle-major
/// (`sin_{t}_{c}`), then the original primary inputs. Output order: load
/// scan-outs cycle-major, capture primary outputs, unload scan-outs — the
/// exact layout [`ObfScanSim::session`] returns.
#[derive(Debug, Clone)]
pub struct UnrolledSession {
    /// The combinational session model as a locked circuit (scheme
    /// `"scan_obf"`), ready for the SAT pipeline.
    pub locked: LockedCircuit,
    /// Chains in the underlying model (= scan-in/-out bits per cycle).
    pub num_chains: usize,
    /// Load-phase cycles unrolled.
    pub load_cycles: usize,
    /// Unload-phase cycles unrolled.
    pub unload_cycles: usize,
    /// Primary outputs observed at the capture cycle.
    pub capture_outputs: usize,
}

impl UnrolledSession {
    /// Total clocked cycles modelled: load + capture + unload.
    pub fn unroll_depth(&self) -> usize {
        self.load_cycles + 1 + self.unload_cycles
    }

    /// Observed bits per shift frame (one per chain).
    pub fn frame_bits(&self) -> usize {
        self.num_chains
    }

    /// Non-key (data) input bits of the session circuit.
    pub fn data_bits(&self) -> usize {
        self.locked.circuit.comb_inputs().len() - self.locked.key_inputs.len()
    }
}

impl ScanObfLocked {
    /// Key (LFSR seed) width.
    pub fn key_bits(&self) -> usize {
        self.correct_key.len()
    }

    /// Unrolls one bounded load→capture→unload session into a combinational
    /// circuit. See [`UnrolledSession`] for the I/O layout.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if gate construction fails (it cannot for a
    /// validated circuit).
    pub fn unroll(&self, opts: &UnrollOptions) -> Result<UnrolledSession, Error> {
        let max_len = self.chains.max_len().max(1);
        let load = if opts.load_cycles == 0 { max_len } else { opts.load_cycles };
        let unload = if opts.unload_cycles == 0 { max_len } else { opts.unload_cycles };
        let nc = self.chains.num_chains();
        let w = self.key_bits();

        let mut c = Circuit::new(format!("{}_scan_unroll", self.circuit.name()));
        let key_nets: Vec<NetId> = (0..w).map(|i| c.add_input(format!("scan_key_{i}"))).collect();
        let sin: Vec<Vec<NetId>> = (0..load)
            .map(|t| (0..nc).map(|ch| c.add_input(format!("sin_{t}_{ch}"))).collect())
            .collect();
        let pi_nets: Vec<NetId> = self
            .circuit
            .primary_inputs()
            .iter()
            .map(|&p| c.add_input(self.circuit.net(p).name()))
            .collect();
        let zero = c.add_gate(GateKind::Const0, Vec::new(), "scan_zero")?;

        // Symbolic LFSR schedule: S_0 is the seed, one step per shift cycle.
        let total_shifts = load + unload;
        let mut lstates: Vec<Vec<NetId>> = Vec::with_capacity(total_shifts);
        lstates.push(key_nets.clone());
        for t in 1..total_shifts {
            let prev = &lstates[t - 1];
            let fb = if self.lfsr.taps.len() == 1 {
                prev[self.lfsr.taps[0]]
            } else {
                let fanin: Vec<NetId> = self.lfsr.taps.iter().map(|&tp| prev[tp]).collect();
                c.add_gate(GateKind::Xor, fanin, format!("lfsr_fb_{t}"))?
            };
            let mut next = Vec::with_capacity(w);
            next.push(fb);
            next.extend_from_slice(&prev[..w - 1]);
            lstates.push(next);
        }

        // Session state starts from chip reset: every cell at constant 0.
        let mut cells: Vec<NetId> = vec![zero; self.chains.num_dffs()];
        let mut observed: Vec<NetId> = Vec::new();

        for (t, sins) in sin.iter().enumerate() {
            let outs = self.sym_shift(&mut c, &lstates[t], &mut cells, sins, zero, t)?;
            observed.extend(outs);
        }

        // Capture: instantiate the combinational core once over the loaded
        // symbolic state.
        let mut map: HashMap<NetId, NetId> = HashMap::new();
        for (i, &p) in self.circuit.primary_inputs().iter().enumerate() {
            map.insert(p, pi_nets[i]);
        }
        for (ff, dff) in self.circuit.dffs().iter().enumerate() {
            map.insert(dff.q, cells[ff]);
        }
        let mapped = instantiate_comb(&mut c, &self.circuit, &mut map)?;
        let npo = self.circuit.primary_outputs().len();
        observed.extend_from_slice(&mapped[..npo]);
        for (ff, cell) in cells.iter_mut().enumerate() {
            *cell = mapped[npo + ff];
        }

        let zeros_in = vec![zero; nc];
        for u in 0..unload {
            let outs =
                self.sym_shift(&mut c, &lstates[load + u], &mut cells, &zeros_in, zero, load + u)?;
            observed.extend(outs);
        }

        // Buffer every observed bit onto a fresh net before marking: outputs
        // may alias (mark_output dedups), and the oracle layout needs one
        // output per observed bit in order.
        for (i, &net) in observed.iter().enumerate() {
            let buf = c.add_gate(GateKind::Buf, vec![net], format!("obs_{i}"))?;
            c.mark_output(buf);
        }

        Ok(UnrolledSession {
            locked: LockedCircuit {
                circuit: c,
                key_inputs: key_nets,
                correct_key: self.correct_key.clone(),
                scheme: "scan_obf",
            },
            num_chains: nc,
            load_cycles: load,
            unload_cycles: unload,
            capture_outputs: npo,
        })
    }

    /// Symbolic mirror of one [`ObfScanSim::shift_clock`]: plain shift of
    /// the `cells` nets, then stage logic under the cycle's LFSR state nets.
    fn sym_shift(
        &self,
        c: &mut Circuit,
        ks: &[NetId],
        cells: &mut [NetId],
        sin: &[NetId],
        zero: NetId,
        t: usize,
    ) -> Result<Vec<NetId>, Error> {
        let mut outs = Vec::with_capacity(self.chains.num_chains());
        for (ci, &sin_net) in sin.iter().enumerate().take(self.chains.num_chains()) {
            let chain = self.chains.chain(ci);
            outs.push(chain.last().map(|&ff| cells[ff]).unwrap_or(zero));
            for i in (1..chain.len()).rev() {
                cells[chain[i]] = cells[chain[i - 1]];
            }
            if let Some(&first) = chain.first() {
                cells[first] = sin_net;
            }
        }
        for (si, st) in self.stages.iter().enumerate() {
            let chain = self.chains.chain(st.chain);
            let s = ks[st.cell];
            match st.kind {
                StageKind::Invert => {
                    if st.pos == chain.len() {
                        outs[st.chain] = c.add_gate(
                            GateKind::Xor,
                            vec![outs[st.chain], s],
                            format!("inv_{t}_{si}"),
                        )?;
                    } else {
                        let ff = chain[st.pos];
                        cells[ff] = c.add_gate(
                            GateKind::Xor,
                            vec![cells[ff], s],
                            format!("inv_{t}_{si}"),
                        )?;
                    }
                }
                StageKind::Swap => {
                    let (a_ff, b_ff) = (chain[st.pos], chain[st.pos + 1]);
                    let (a, b) = (cells[a_ff], cells[b_ff]);
                    let ns = c.add_gate(GateKind::Not, vec![s], format!("swn_{t}_{si}"))?;
                    let sa = c.add_gate(GateKind::And, vec![s, b], format!("swa_{t}_{si}"))?;
                    let ka = c.add_gate(GateKind::And, vec![ns, a], format!("swb_{t}_{si}"))?;
                    cells[a_ff] =
                        c.add_gate(GateKind::Or, vec![sa, ka], format!("swl_{t}_{si}"))?;
                    let sb = c.add_gate(GateKind::And, vec![s, a], format!("swc_{t}_{si}"))?;
                    let kb = c.add_gate(GateKind::And, vec![ns, b], format!("swd_{t}_{si}"))?;
                    cells[b_ff] =
                        c.add_gate(GateKind::Or, vec![sb, kb], format!("swh_{t}_{si}"))?;
                }
            }
        }
        Ok(outs)
    }
}

/// Copies the combinational cone of `src` into `dst`, with `map` pre-seeded
/// for every comb input (primary inputs and flip-flop outputs). Returns the
/// mapped comb outputs (`src` primary outputs, then flip-flop `d` nets).
fn instantiate_comb(
    dst: &mut Circuit,
    src: &Circuit,
    map: &mut HashMap<NetId, NetId>,
) -> Result<Vec<NetId>, Error> {
    let outputs = src.comb_outputs();
    let mut stack: Vec<(NetId, bool)> = outputs.iter().map(|&n| (n, false)).collect();
    while let Some((net, expanded)) = stack.pop() {
        if map.contains_key(&net) {
            continue;
        }
        let gate = src
            .gate(net)
            .expect("every unmapped net in a validated circuit is gate-driven");
        if expanded {
            let fanin: Vec<NetId> = gate.fanin.iter().map(|f| map[f]).collect();
            let id = dst.add_gate(gate.kind, fanin, src.net(net).name())?;
            map.insert(net, id);
        } else {
            stack.push((net, true));
            for &f in &gate.fanin {
                if !map.contains_key(&f) {
                    stack.push((f, false));
                }
            }
        }
    }
    Ok(outputs.iter().map(|n| map[n]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gatesim::CombSim;
    use netlist::samples;

    fn cfg() -> ScanObfConfig {
        ScanObfConfig {
            key_bits: 8,
            num_chains: 2,
            invert_spacing: 2,
            swap_spacing: 2,
            seed: 3,
        }
    }

    #[test]
    fn unrolled_matches_session_under_correct_key() {
        let orig = samples::counter(8);
        let locked = lock(&orig, &cfg()).unwrap();
        let unrolled = locked.unroll(&UnrollOptions::default()).unwrap();
        unrolled.locked.circuit.validate().unwrap();
        let sim = CombSim::new(&unrolled.locked.circuit).unwrap();
        let mut chip = ObfScanSim::new(&locked, &locked.correct_key).unwrap();
        let mut rng = SplitMix64::new(9);
        for _ in 0..32 {
            let stream: Vec<bool> = (0..unrolled.load_cycles * unrolled.num_chains)
                .map(|_| rng.bool())
                .collect();
            let pis: Vec<bool> = (0..orig.primary_inputs().len()).map(|_| rng.bool()).collect();
            let want = chip.session(unrolled.load_cycles, unrolled.unload_cycles, &stream, &pis);
            let mut x = locked.correct_key.clone();
            x.extend(&stream);
            x.extend(&pis);
            assert_eq!(sim.eval_bools(&x), want);
        }
    }

    #[test]
    fn wrong_key_scrambles_the_session() {
        let orig = samples::counter(8);
        let locked = lock(&orig, &cfg()).unwrap();
        let mut wrong = locked.correct_key.clone();
        for b in wrong.iter_mut() {
            *b = !*b;
        }
        let mut good = ObfScanSim::new(&locked, &locked.correct_key).unwrap();
        let mut bad = ObfScanSim::new(&locked, &wrong).unwrap();
        let depth = locked.chains.max_len();
        let mut rng = SplitMix64::new(17);
        let mut differed = false;
        for _ in 0..16 {
            let stream: Vec<bool> =
                (0..depth * locked.chains.num_chains()).map(|_| rng.bool()).collect();
            let a = good.session(depth, depth, &stream, &[false]);
            let b = bad.session(depth, depth, &stream, &[false]);
            differed |= a != b;
        }
        assert!(differed, "a flipped seed must disturb the observed session");
    }

    #[test]
    fn deterministic_by_seed() {
        let orig = samples::counter(6);
        let a = lock(&orig, &cfg()).unwrap();
        let b = lock(&orig, &cfg()).unwrap();
        assert_eq!(a.correct_key, b.correct_key);
        assert_eq!(a.stages, b.stages);
    }

    #[test]
    fn rejects_bad_profiles() {
        assert!(lock(&samples::c17(), &ScanObfConfig::balanced(8, 0)).is_err());
        let orig = samples::counter(4);
        assert!(lock(&orig, &ScanObfConfig { key_bits: 0, ..ScanObfConfig::balanced(8, 0) }).is_err());
        assert!(lock(
            &orig,
            &ScanObfConfig { invert_spacing: 0, swap_spacing: 0, ..ScanObfConfig::balanced(8, 0) }
        )
        .is_err());
    }

    #[test]
    fn session_layout_matches_unroll_metadata() {
        let orig = samples::counter(8);
        let locked = lock(&orig, &cfg()).unwrap();
        let unrolled = locked.unroll(&UnrollOptions::default()).unwrap();
        assert_eq!(unrolled.unroll_depth(), 4 + 1 + 4);
        assert_eq!(unrolled.frame_bits(), 2);
        assert_eq!(unrolled.capture_outputs, 8);
        let n_out = unrolled.locked.circuit.primary_outputs().len();
        assert_eq!(
            n_out,
            unrolled.load_cycles * unrolled.num_chains
                + unrolled.capture_outputs
                + unrolled.unload_cycles * unrolled.num_chains
        );
        assert_eq!(
            unrolled.data_bits(),
            unrolled.load_cycles * unrolled.num_chains + orig.primary_inputs().len()
        );
    }
}
