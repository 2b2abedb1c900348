//! Cycle-accurate model of a fabricated OraP-protected chip.
//!
//! The model exposes exactly the interface an attacker (or tester) has:
//! primary input pins, primary output pins, `scan_enable`, per-chain scan-in
//! and scan-out pins, and the clock. Internally it carries the locked
//! combinational part, the design's state flip-flops, the key-register LFSR
//! with one pulse generator per cell, the scan chains — which, per the
//! paper's design guideline, contain the LFSR cells *interleaved before*
//! ordinary flip-flops — and the unlock controller that plays the key
//! sequence from the tamper-proof memory.
//!
//! The Trojan switches of [`crate::threat`] act on this model; with all
//! switches off the chip is honest and, as the paper argues, never yields a
//! correct response through scan.

use gatesim::CombSim;
use lfsr::{Lfsr, PulseGenerator};
use netlist::{Error, NetId};

use crate::scheme::{OrapProtected, OrapVariant};

/// One position in a scan chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainCell {
    /// An ordinary design flip-flop (index into the design's DFF list).
    State(usize),
    /// A key-register LFSR cell.
    Key(usize),
}

/// Result of one clock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockResult {
    /// Primary output values observed during the cycle.
    pub outputs: Vec<bool>,
    /// Scan-out bit per chain (the last cell's value before the shift).
    pub scan_out: Vec<bool>,
}

/// Trojan switches an untrusted foundry might have implanted. All off in an
/// honest chip; the cost of turning each on is quantified in
/// [`crate::threat`].
#[derive(Debug, Clone, Default)]
pub struct TrojanState {
    /// Threat (a): per-cell pulse-generator suppression (reset never fires
    /// for cells marked `true`).
    pub suppress_reset: Vec<bool>,
    /// Threat (b): the LFSR ignores `scan_enable` entirely — cells neither
    /// reset nor shift — and bypass muxes stitch the chains around them.
    pub hold_and_bypass_lfsr: bool,
    /// Threat (c): a shadow register captures the key when unlocking
    /// completes and drives the key gates during test mode.
    pub shadow_register: bool,
    /// Threat (e): state flip-flops ignore updates while the unlock
    /// controller runs (their reset/enable is suppressed).
    pub freeze_state_ffs: bool,
}

/// The fabricated chip.
#[derive(Debug, Clone)]
pub struct ProtectedChip {
    design: OrapProtected,
    comb: CombSim,
    /// Positions of (original PIs, state FF outputs, key inputs) within the
    /// locked circuit's comb-input list.
    pi_pos: Vec<usize>,
    state_pos: Vec<usize>,
    key_pos: Vec<usize>,
    num_pos_outputs: usize,

    state: Vec<bool>,
    key_reg: Lfsr,
    pulses: Vec<PulseGenerator>,
    chains: Vec<Vec<ChainCell>>,
    scan_enable: bool,
    shadow: Option<Vec<bool>>,
    unlocking: bool,
    pub(crate) trojan: TrojanState,
}

impl ProtectedChip {
    /// Builds the chip model from a protected design.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the locked circuit is cyclic.
    pub fn new(design: &OrapProtected) -> Result<Self, Error> {
        let c = &design.locked.circuit;
        let comb = CombSim::new(c)?;
        let key_nets: Vec<NetId> = design.locked.key_inputs.clone();
        // comb inputs = PIs (incl. key inputs, which were added as PIs) then
        // FF outputs. Classify each position.
        let mut pi_pos = Vec::new();
        let mut key_pos = vec![usize::MAX; key_nets.len()];
        let mut state_pos = Vec::new();
        let dff_qs: Vec<NetId> = c.dffs().iter().map(|d| d.q).collect();
        for (i, n) in comb.inputs().iter().enumerate() {
            if let Some(k) = key_nets.iter().position(|kn| kn == n) {
                key_pos[k] = i;
            } else if dff_qs.contains(n) {
                state_pos.push(i);
            } else {
                pi_pos.push(i);
            }
        }
        assert!(key_pos.iter().all(|&p| p != usize::MAX), "key inputs found");

        let num_ffs = c.dffs().len();
        let width = design.key_bits();
        let chains = build_chains(num_ffs, width, design.scan_chains);
        Ok(ProtectedChip {
            comb,
            pi_pos,
            state_pos,
            key_pos,
            num_pos_outputs: c.primary_outputs().len(),
            state: vec![false; num_ffs],
            key_reg: Lfsr::new(design.lfsr.clone()),
            pulses: vec![PulseGenerator::new(); width],
            chains,
            scan_enable: false,
            shadow: None,
            unlocking: false,
            trojan: TrojanState {
                suppress_reset: vec![false; width],
                ..TrojanState::default()
            },
            design: design.clone(),
        })
    }

    /// The protected design this chip implements.
    pub fn design(&self) -> &OrapProtected {
        &self.design
    }

    /// Number of primary input pins (excluding key/scan pins).
    pub fn num_primary_inputs(&self) -> usize {
        self.pi_pos.len()
    }

    /// Number of primary output pins.
    pub fn num_primary_outputs(&self) -> usize {
        self.num_pos_outputs
    }

    /// Number of design flip-flops.
    pub fn num_state_ffs(&self) -> usize {
        self.state.len()
    }

    /// Number of scan chains.
    pub fn num_scan_chains(&self) -> usize {
        self.chains.len()
    }

    /// The scan-chain layout (LFSR cells interleaved before state FFs).
    pub fn chains(&self) -> &[Vec<ChainCell>] {
        &self.chains
    }

    /// Drives the `scan_enable` pin.
    pub fn set_scan_enable(&mut self, value: bool) {
        self.scan_enable = value;
    }

    /// Current `scan_enable` value.
    pub fn scan_enable(&self) -> bool {
        self.scan_enable
    }

    /// White-box test helper: does the key register hold the correct key?
    pub fn key_register_holds_correct_key(&self) -> bool {
        self.key_reg.state() == self.design.locked.correct_key
    }

    /// White-box test helper: raw key-register state.
    pub fn key_register_state(&self) -> Vec<bool> {
        self.key_reg.state()
    }

    /// White-box test helper: design flip-flop values.
    pub fn state_ffs(&self) -> &[bool] {
        &self.state
    }

    /// White-box test helper: overwrite flip-flop values.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn set_state_ffs(&mut self, state: &[bool]) {
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        self.state.copy_from_slice(state);
    }

    /// Arms the threat-(a) reset-suppression Trojan for a single key-register
    /// cell. [`crate::threat::arm`] suppresses every cell; partial
    /// suppression lets experiments show that half a Trojan gains nothing.
    pub fn trojan_suppress_cell(&mut self, cell: usize) {
        if let Some(b) = self.trojan.suppress_reset.get_mut(cell) {
            *b = true;
        }
    }

    /// The value the key gates actually see: the key register, or — when
    /// the threat-(c) shadow Trojan is active and armed — the shadow copy.
    /// (The shadow mux keeps the chip's functional behaviour intact, which
    /// the paper's threat model requires of any implanted Trojan.)
    fn effective_key(&self, key_state: &[bool]) -> Vec<bool> {
        if self.trojan.shadow_register {
            if let Some(s) = &self.shadow {
                return s.clone();
            }
        }
        key_state.to_vec()
    }

    fn comb_eval(&self, pis: &[bool], key: &[bool]) -> (Vec<bool>, Vec<bool>) {
        assert_eq!(pis.len(), self.pi_pos.len(), "primary input width mismatch");
        let mut input = vec![false; self.comb.inputs().len()];
        for (&p, &b) in self.pi_pos.iter().zip(pis) {
            input[p] = b;
        }
        for (&p, &b) in self.state_pos.iter().zip(&self.state) {
            input[p] = b;
        }
        for (&p, &b) in self.key_pos.iter().zip(key) {
            input[p] = b;
        }
        let words: Vec<u64> = input.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let out = self.comb.eval_words(&words);
        let bits: Vec<bool> = out.into_iter().map(|w| w & 1 == 1).collect();
        let pos = bits[..self.num_pos_outputs].to_vec();
        let next_state = bits[self.num_pos_outputs..].to_vec();
        (pos, next_state)
    }

    /// Applies one clock cycle.
    ///
    /// Pulse generators sample `scan_enable` first: on a 0→1 transition each
    /// unsuppressed cell of the key register clears *before* anything
    /// shifts — the OraP invariant.
    ///
    /// In scan mode (`scan_enable` high) the chains shift by one position
    /// (one scan-in bit per chain); in functional mode the combinational
    /// part evaluates with the current key-register state and the state
    /// flip-flops latch.
    ///
    /// # Panics
    ///
    /// Panics on pin-width mismatches.
    pub fn clock(&mut self, pis: &[bool], scan_in: &[bool]) -> ClockResult {
        // 1. Pulse generators (per cell).
        let mut key_state = self.key_reg.state();
        if !self.trojan.hold_and_bypass_lfsr {
            for (i, pg) in self.pulses.iter_mut().enumerate() {
                let mut fired = pg.clock(self.scan_enable);
                if self.trojan.suppress_reset.get(i).copied().unwrap_or(false) {
                    fired = false;
                }
                if fired {
                    key_state[i] = false;
                }
            }
        }

        // 2. Scan-out values (pre-shift last-cell values).
        let scan_out: Vec<bool> = self
            .chains
            .iter()
            .map(|chain| {
                chain
                    .iter()
                    .rev()
                    .find(|cell| self.cell_visible_in_chain(cell))
                    .map(|cell| self.read_cell(cell, &key_state))
                    .unwrap_or(false)
            })
            .collect();

        if self.scan_enable {
            assert_eq!(
                scan_in.len(),
                self.chains.len(),
                "one scan-in bit per chain"
            );
            // 3a. Shift every chain by one position (skipping bypassed key
            // cells under the threat-(b) Trojan).
            let chains = self.chains.clone();
            for (ci, chain) in chains.iter().enumerate() {
                let cells: Vec<&ChainCell> = chain
                    .iter()
                    .filter(|c| self.cell_visible_in_chain(c))
                    .collect();
                // Shift from tail to head.
                for w in (1..cells.len()).rev() {
                    let v = self.read_cell(cells[w - 1], &key_state);
                    self.write_cell(cells[w], v, &mut key_state);
                }
                if let Some(first) = cells.first() {
                    self.write_cell(first, scan_in[ci], &mut key_state);
                }
            }
            let key = self.effective_key(&key_state);
            let (outputs, _) = self.comb_eval(pis, &key);
            self.key_reg.load(&key_state);
            ClockResult { outputs, scan_out }
        } else {
            // 3b. Functional cycle.
            let key = self.effective_key(&key_state);
            let (outputs, next_state) = self.comb_eval(pis, &key);
            let freeze = self.trojan.freeze_state_ffs && self.unlocking;
            if !freeze {
                self.state = next_state;
            }
            self.key_reg.load(&key_state);
            ClockResult { outputs, scan_out }
        }
    }

    fn cell_visible_in_chain(&self, cell: &ChainCell) -> bool {
        match cell {
            ChainCell::State(_) => true,
            ChainCell::Key(_) => !self.trojan.hold_and_bypass_lfsr,
        }
    }

    fn read_cell(&self, cell: &ChainCell, key_state: &[bool]) -> bool {
        match cell {
            ChainCell::State(i) => self.state[*i],
            ChainCell::Key(i) => key_state[*i],
        }
    }

    fn write_cell(&mut self, cell: &ChainCell, value: bool, key_state: &mut [bool]) {
        match cell {
            ChainCell::State(i) => self.state[*i] = value,
            ChainCell::Key(i) => key_state[*i] = value,
        }
    }

    /// Power-on flow of a legitimate owner: reset the key register (the
    /// logic-locking controller pulses `scan_enable` once, as the paper
    /// describes), then play the key sequence from the tamper-proof memory.
    /// After this the chip computes with the correct key — unless a Trojan
    /// interfered.
    pub fn power_on_and_unlock(&mut self) {
        // Controller-produced scan_enable pulse to clear the key register.
        self.set_scan_enable(true);
        let zeros_in = vec![false; self.chains.len()];
        // Sample the edge without shifting state (the controller gates the
        // clock so only the pulse generators see the edge; model: one scan
        // cycle whose shifted-in zeros land on a register that is about to
        // be overwritten by the unlock process, with state FFs restored).
        let saved_state = self.state.clone();
        self.clock(&vec![false; self.pi_pos.len()], &zeros_in);
        self.state = saved_state;
        self.set_scan_enable(false);
        if !self.trojan.hold_and_bypass_lfsr {
            // The pulse cleared the register (unless suppressed); for
            // suppressed cells the shift above may have moved bits — a real
            // Trojan would also gate the controller pulse, so restore those
            // cells to their pre-pulse values is unnecessary here: the
            // register is about to be rebuilt by the reseeding process.
            let mut st = self.key_reg.state();
            for (i, cell) in st.iter_mut().enumerate() {
                if !self.trojan.suppress_reset.get(i).copied().unwrap_or(false) {
                    *cell = false;
                }
            }
            self.key_reg.load(&st);
        }
        // State FFs start from reset for the unlock run.
        if !self.trojan.freeze_state_ffs {
            self.state.iter_mut().for_each(|b| *b = false);
        }

        self.unlocking = true;
        let pis = vec![
            self.design.unlock_stimulus.value();
            self.pi_pos.len()
        ];
        match self.design.variant {
            OrapVariant::Basic => {
                let words = self.design.key_sequence.clone();
                for word in &words {
                    self.inject_and_clock(word, &pis);
                    for _ in 0..self.design.free_run {
                        let zero = vec![false; self.design.memory_points.len()];
                        self.inject_and_clock(&zero, &pis);
                    }
                }
            }
            OrapVariant::Modified => {
                let words = self.design.key_sequence.clone();
                for word in &words {
                    self.inject_and_clock(word, &pis);
                }
            }
        }
        self.unlocking = false;
        if self.trojan.shadow_register {
            self.shadow = Some(self.key_reg.state());
        }
    }

    /// One unlock cycle: the memory word (and, for the modified variant, the
    /// live FF responses) is injected while the chip clocks functionally.
    fn inject_and_clock(&mut self, memory_word: &[bool], pis: &[bool]) {
        // The pulse generators see every clock; they must sample the (low)
        // scan_enable here or their edge detectors go stale and a later
        // scan entry would fail to clear the register.
        for pg in self.pulses.iter_mut() {
            let fired = pg.clock(self.scan_enable);
            debug_assert!(!fired, "scan_enable is low during unlock");
        }
        let mut injection = vec![false; self.design.lfsr.reseed_points.len()];
        for (&p, &b) in self.design.memory_points.iter().zip(memory_word) {
            injection[p] = b;
        }
        for (&p, &ff) in self
            .design
            .response_points
            .iter()
            .zip(&self.design.response_ffs)
        {
            injection[p] = self.state[ff];
        }
        // The circuit clocks with the *current* register state as key.
        let (_, next_state) = self.comb_eval(pis, &self.key_reg.state());
        if !(self.trojan.freeze_state_ffs && self.unlocking) {
            self.state = next_state;
        }
        self.key_reg.step(&injection);
    }

    /// The tester/attacker scan procedure: shift a full state image in,
    /// apply primary inputs for one capture cycle, shift the captured image
    /// out. Returns `(primary_outputs_at_capture, captured_image)`; the
    /// image covers state FFs and key cells in chain order
    /// ([`Self::image_layout`]).
    ///
    /// On an honest chip the key register was cleared when `scan_enable`
    /// rose, so the response corresponds to the *locked* circuit.
    ///
    /// # Panics
    ///
    /// Panics on width mismatches.
    pub fn scan_test(&mut self, image: &[bool], pis: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let layout = self.image_layout();
        assert_eq!(image.len(), layout.len(), "image width mismatch");
        self.set_scan_enable(true);
        let depth = self
            .chains
            .iter()
            .map(|c| c.iter().filter(|cell| self.cell_visible_in_chain(cell)).count())
            .max()
            .unwrap_or(0);
        // Shift in: cell at position p (0 = nearest scan-in) receives its
        // value on cycle depth-1-p.
        for cycle in 0..depth {
            let bits: Vec<bool> = (0..self.chains.len())
                .map(|ci| {
                    let visible: Vec<usize> = self.visible_positions(ci);
                    let p = depth - 1 - cycle;
                    if p < visible.len() {
                        image[visible[p]]
                    } else {
                        false
                    }
                })
                .collect();
            self.clock(&vec![false; self.pi_pos.len()], &bits);
        }
        // Capture.
        self.set_scan_enable(false);
        let res = self.clock(pis, &vec![false; self.chains.len()]);
        // Shift out.
        self.set_scan_enable(true);
        let mut captured = vec![false; layout.len()];
        let zeros = vec![false; self.chains.len()];
        for cycle in 0..depth {
            let out = self.clock(&vec![false; self.pi_pos.len()], &zeros);
            for (ci, &bit) in out.scan_out.iter().enumerate() {
                let visible = self.visible_positions(ci);
                if let Some(p) = visible.len().checked_sub(1 + cycle) {
                    captured[visible[p]] = bit;
                }
            }
        }
        self.set_scan_enable(false);
        (res.outputs, captured)
    }

    /// Flat image layout used by [`Self::scan_test`]: index `k` of the image
    /// corresponds to `layout[k]`.
    pub fn image_layout(&self) -> Vec<ChainCell> {
        let mut layout = Vec::new();
        for ci in 0..self.chains.len() {
            for cell in &self.chains[ci] {
                if self.cell_visible_in_chain(cell) {
                    layout.push(*cell);
                }
            }
        }
        layout
    }

    fn visible_positions(&self, chain: usize) -> Vec<usize> {
        // Positions into the flat image for this chain's visible cells, in
        // shift order.
        let mut offset = 0;
        for prev in 0..chain {
            offset += self.chains[prev]
                .iter()
                .filter(|c| self.cell_visible_in_chain(c))
                .count();
        }
        let count = self.chains[chain]
            .iter()
            .filter(|c| self.cell_visible_in_chain(c))
            .count();
        (offset..offset + count).collect()
    }
}

/// Builds the chip's scan chains per the paper's guideline: LFSR cells are
/// placed *before* ordinary flip-flops and interleaved with them, so a
/// Trojan that excludes them from the chains needs a bypass mux per cell.
fn build_chains(num_ffs: usize, key_width: usize, num_chains: usize) -> Vec<Vec<ChainCell>> {
    let num_chains = num_chains.max(1);
    let mut chains = vec![Vec::new(); num_chains];
    // Distribute key cells round-robin, then interleave state FFs after
    // them chainwise (key cell, state FF, key cell, state FF, ... with key
    // cells leading).
    let mut key_iter = (0..key_width).map(ChainCell::Key);
    let mut ff_iter = (0..num_ffs).map(ChainCell::State);
    let mut ci = 0;
    loop {
        match (key_iter.next(), ff_iter.next()) {
            (Some(k), Some(f)) => {
                chains[ci].push(k);
                chains[ci].push(f);
            }
            (Some(k), None) => chains[ci].push(k),
            (None, Some(f)) => chains[ci].push(f),
            (None, None) => break,
        }
        ci = (ci + 1) % num_chains;
    }
    chains
}

/// How a [`ProtectedChipOracle`] reports the scan responses it obtains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// The adapter knows the responses are locked-circuit outputs and
    /// reports the oracle as unavailable (`query` → `None`).
    Strict,
    /// The adapter naively returns whatever the chip scans out — which is
    /// the locked circuit's response; attacks then recover keys that fail
    /// verification.
    Naive,
}

/// The [`attacks::Oracle`] view of a [`ProtectedChip`]: queries are served
/// through the scan interface, so on an honest chip the key register is
/// cleared before any response can be captured.
#[derive(Debug, Clone)]
pub struct ProtectedChipOracle {
    chip: ProtectedChip,
    mode: OracleMode,
    queries: usize,
    /// Cached correct-response map for detecting whether the chip leaks
    /// (None in normal operation; used by tests via `leak_check`).
    reference: Option<CombSim>,
}

impl ProtectedChipOracle {
    /// Wraps a chip. The chip is unlocked first (the attacker bought a
    /// functional, activated part from the open market).
    pub fn new(mut chip: ProtectedChip, mode: OracleMode) -> Self {
        chip.power_on_and_unlock();
        ProtectedChipOracle {
            chip,
            mode,
            queries: 0,
            reference: None,
        }
    }

    /// Performs the raw scan-based query and returns whatever the chip
    /// produces (primary outputs ++ captured state-FF image), regardless of
    /// mode. This is the locked response on an honest chip.
    pub fn raw_scan_query(&mut self, input: &[bool]) -> Vec<bool> {
        let n_pi = self.chip.num_primary_inputs();
        assert_eq!(
            input.len(),
            n_pi + self.chip.num_state_ffs(),
            "query covers PIs then state image"
        );
        let (pis, state_bits) = input.split_at(n_pi);
        // Build the scan image: state FF values as requested, key cells as
        // zeros (the attacker has nothing better to put there).
        let layout = self.chip.image_layout();
        let mut image = vec![false; layout.len()];
        for (k, cell) in layout.iter().enumerate() {
            if let ChainCell::State(i) = cell {
                image[k] = state_bits[*i];
            }
        }
        let (pos, captured) = self.chip.scan_test(&image, pis);
        // Extract captured state FFs in DFF order.
        let mut next_state = vec![false; self.chip.num_state_ffs()];
        for (k, cell) in layout.iter().enumerate() {
            if let ChainCell::State(i) = cell {
                next_state[*i] = captured[k];
            }
        }
        let mut resp = pos;
        resp.extend(next_state);
        resp
    }

    /// White-box check used by experiments: would this scan response match
    /// the true unlocked circuit?
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the locked circuit is cyclic.
    pub fn response_is_correct(&mut self, input: &[bool]) -> Result<bool, Error> {
        if self.reference.is_none() {
            self.reference = Some(CombSim::new(&self.chip.design.locked.circuit)?);
        }
        let got = self.raw_scan_query(input);
        let sim = self.reference.as_ref().expect("just set");
        let chip = &self.chip;
        let mut full = vec![false; sim.inputs().len()];
        let (pis, state_bits) = input.split_at(chip.num_primary_inputs());
        for (&p, &b) in chip.pi_pos.iter().zip(pis) {
            full[p] = b;
        }
        for (&p, &b) in chip.state_pos.iter().zip(state_bits) {
            full[p] = b;
        }
        for (&p, &b) in chip
            .key_pos
            .iter()
            .zip(&chip.design.locked.correct_key)
        {
            full[p] = b;
        }
        let words: Vec<u64> = full.iter().map(|&b| if b { !0 } else { 0 }).collect();
        let want: Vec<bool> = sim
            .eval_words(&words)
            .into_iter()
            .map(|w| w & 1 == 1)
            .collect();
        Ok(got == want)
    }
}

impl attacks::Oracle for ProtectedChipOracle {
    fn num_inputs(&self) -> usize {
        self.chip.num_primary_inputs() + self.chip.num_state_ffs()
    }

    fn num_outputs(&self) -> usize {
        self.chip.num_primary_outputs() + self.chip.num_state_ffs()
    }

    fn query(&mut self, input: &[bool]) -> Option<Vec<bool>> {
        self.queries += 1;
        match self.mode {
            OracleMode::Strict => {
                // The scan responses come from the locked circuit (key
                // register cleared); a knowledgeable attacker discards them.
                let _ = self.raw_scan_query(input);
                None
            }
            OracleMode::Naive => Some(self.raw_scan_query(input)),
        }
    }

    fn queries_attempted(&self) -> usize {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::{protect, OrapConfig, OrapVariant};
    use locking::weighted::WllConfig;
    use netlist::samples;

    fn protected_counter(variant: OrapVariant) -> crate::OrapProtected {
        let design = samples::counter(10);
        protect(
            &design,
            &WllConfig {
                key_bits: 8,
                control_width: 3,
                seed: 7,
            },
            &OrapConfig {
                variant,
                ..OrapConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn unlock_produces_correct_key_basic() {
        let p = protected_counter(OrapVariant::Basic);
        let mut chip = ProtectedChip::new(&p).unwrap();
        assert!(!chip.key_register_holds_correct_key());
        chip.power_on_and_unlock();
        assert!(chip.key_register_holds_correct_key());
    }

    #[test]
    fn unlock_produces_correct_key_modified() {
        let p = protected_counter(OrapVariant::Modified);
        let mut chip = ProtectedChip::new(&p).unwrap();
        chip.power_on_and_unlock();
        assert!(chip.key_register_holds_correct_key());
    }

    #[test]
    fn scan_enable_clears_key_register() {
        let p = protected_counter(OrapVariant::Basic);
        let mut chip = ProtectedChip::new(&p).unwrap();
        chip.power_on_and_unlock();
        assert!(chip.key_register_holds_correct_key());
        chip.set_scan_enable(true);
        let res = chip.clock(&[false], &vec![false; chip.num_scan_chains()]);
        // The pulse fires before the first shift: the key is destroyed and
        // the bits appearing on the scan-out pins carry no key information
        // (chains whose last cell is a key cell emit 0).
        assert!(!chip.key_register_holds_correct_key());
        let layout_tails: Vec<ChainCell> = chip
            .chains()
            .iter()
            .filter_map(|c| c.last().copied())
            .collect();
        for (tail, &out) in layout_tails.iter().zip(&res.scan_out) {
            if matches!(tail, ChainCell::Key(_)) {
                assert!(!out, "key cell at chain tail must scan out 0");
            }
        }
    }

    #[test]
    fn functional_operation_after_unlock_matches_original() {
        let design = samples::counter(10);
        let p = protect(
            &design,
            &WllConfig {
                key_bits: 8,
                control_width: 3,
                seed: 7,
            },
            &OrapConfig::default(),
        )
        .unwrap();
        let mut chip = ProtectedChip::new(&p).unwrap();
        chip.power_on_and_unlock();
        // Reset state, then run the counter; it must count like the
        // original.
        chip.set_state_ffs(&[false; 10]);
        let mut reference = gatesim::SeqSim::new(&design).unwrap();
        for _ in 0..20 {
            let out = chip.clock(&[true], &vec![false; chip.num_scan_chains()]);
            let want = reference.step(&[true]);
            assert_eq!(out.outputs, want);
        }
    }

    #[test]
    fn locked_chip_behaves_incorrectly_without_unlock() {
        let design = samples::counter(10);
        let p = protect(
            &design,
            &WllConfig {
                key_bits: 8,
                control_width: 3,
                seed: 7,
            },
            &OrapConfig::default(),
        )
        .unwrap();
        let mut chip = ProtectedChip::new(&p).unwrap();
        // No unlock: key register all zero (reset state).
        let mut reference = gatesim::SeqSim::new(&design).unwrap();
        let mut diverged = false;
        for _ in 0..30 {
            let out = chip.clock(&[true], &vec![false; chip.num_scan_chains()]);
            let want = reference.step(&[true]);
            if out.outputs != want {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "locked chip must not behave like the original");
    }

    #[test]
    fn scan_test_returns_locked_circuit_response() {
        // The heart of OraP: the captured response corresponds to the
        // LOCKED circuit (key register cleared, then loaded with the
        // attacker's image — all zero here), not the true function.
        let p = protected_counter(OrapVariant::Basic);
        let mut chip = ProtectedChip::new(&p).unwrap();
        let layout = chip.image_layout();
        let mut image = vec![false; layout.len()];
        let state_bits: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        for (k, cell) in layout.iter().enumerate() {
            if let ChainCell::State(i) = cell {
                image[k] = state_bits[*i];
            }
        }
        let (pos, captured) = chip.scan_test(&image, &[false]);
        // Reference: locked circuit with key = all-zero.
        let sim = gatesim::CombSim::new(&p.locked.circuit).unwrap();
        let mut input = vec![0u64; sim.inputs().len()];
        let key_set: std::collections::HashSet<_> =
            p.locked.key_inputs.iter().copied().collect();
        let mut state_iter = state_bits.iter();
        let dff_qs: Vec<_> = p.locked.circuit.dffs().iter().map(|d| d.q).collect();
        for (i, n) in sim.inputs().iter().enumerate() {
            if key_set.contains(n) {
                input[i] = 0;
            } else if dff_qs.contains(n) {
                input[i] = if *state_iter.next().unwrap() { !0 } else { 0 };
            } else {
                input[i] = 0; // en = false
            }
        }
        let out = sim.eval_words(&input);
        let bits: Vec<bool> = out.into_iter().map(|w| w & 1 == 1).collect();
        let n_pos = p.locked.circuit.primary_outputs().len();
        assert_eq!(pos, bits[..n_pos].to_vec(), "primary outputs");
        let want_state = &bits[n_pos..];
        for (k, cell) in layout.iter().enumerate() {
            if let ChainCell::State(i) = cell {
                assert_eq!(captured[k], want_state[*i], "state FF {i}");
            }
        }
    }

    #[test]
    fn honest_chip_never_scans_out_correct_responses() {
        let p = protected_counter(OrapVariant::Basic);
        let chip = ProtectedChip::new(&p).unwrap();
        let mut oracle = ProtectedChipOracle::new(chip, OracleMode::Naive);
        let mut rng = netlist::rng::SplitMix64::new(3);
        let n = 1 + 10; // en + state image
        let mut any_correct = false;
        let mut all_correct = true;
        for _ in 0..24 {
            let input: Vec<bool> = (0..n).map(|_| rng.bool()).collect();
            let ok = oracle.response_is_correct(&input).unwrap();
            any_correct |= ok;
            all_correct &= ok;
        }
        assert!(
            !all_correct,
            "locked responses must differ from unlocked ones somewhere"
        );
        // Some patterns may coincide by chance; what matters is that the
        // correct function is not reproduced wholesale.
        let _ = any_correct;
    }

    #[test]
    fn chains_interleave_key_cells_first() {
        let chains = build_chains(6, 4, 2);
        // Chain 0 starts with a key cell.
        assert!(matches!(chains[0][0], ChainCell::Key(_)));
        let total: usize = chains.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn strict_oracle_returns_none() {
        let p = protected_counter(OrapVariant::Basic);
        let chip = ProtectedChip::new(&p).unwrap();
        let mut oracle = ProtectedChipOracle::new(chip, OracleMode::Strict);
        use attacks::Oracle as _;
        assert_eq!(oracle.query(&vec![false; oracle.num_inputs()]), None);
        assert_eq!(oracle.queries_attempted(), 1);
    }
}
