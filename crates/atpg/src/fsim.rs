//! Parallel-pattern fault simulation with fault dropping (the HOPE role).

use std::sync::Arc;

use netlist::{Circuit, CompiledCircuit, EngineCounters, Error, LevelQueue};

use crate::fault::{Fault, FaultSite};

/// Upper bound on the number of chunks [`chunk_plan`] cuts a fault list
/// into. A function of nothing but this constant and the data, so chunk
/// boundaries — and therefore results — never depend on the thread count.
const TARGET_CHUNKS: usize = 64;

/// Per-evaluation scratch of the fault kernel: the faulty mirror, the undo
/// list, and the level-bucketed event queue. One instance per worker
/// thread — the compiled circuit itself is shared read-only, and the
/// buffers (including the queue's level buckets) persist across faults so
/// a fault costs its disturbed cone, not an allocation.
#[derive(Debug, Clone)]
struct FaultScratch {
    faulty: Vec<u64>,
    /// The batch whose good values `faulty` mirrors, in a multi-batch run.
    mirrors: Option<usize>,
    /// Nets whose faulty value currently diverges from the good value.
    touched: Vec<u32>,
    /// Scheduled flags for the event queue.
    scheduled: Vec<bool>,
    queue: LevelQueue,
    /// Events processed (nets popped off the queue), for telemetry.
    events: u64,
}

impl FaultScratch {
    fn new(cc: &CompiledCircuit) -> Self {
        FaultScratch {
            faulty: vec![0; cc.num_nets()],
            mirrors: None,
            touched: Vec::new(),
            scheduled: vec![false; cc.num_nets()],
            queue: LevelQueue::new(cc.depth()),
            events: 0,
        }
    }

    /// Makes the faulty mirror equal batch `b`'s good values `good`; a
    /// no-op when it already mirrors that batch.
    fn mirror(&mut self, b: usize, good: &[u64]) {
        if self.mirrors != Some(b) {
            self.faulty.copy_from_slice(good);
            self.mirrors = Some(b);
        }
    }

    #[inline]
    fn schedule(&mut self, cc: &CompiledCircuit, net: u32) {
        if !self.scheduled[net as usize] {
            self.scheduled[net as usize] = true;
            self.queue.push(cc.level_of(net), net);
        }
    }
}

/// The compiled net a fault's disturbance starts at (the stem itself, or
/// the output of the gate whose input pin is faulted).
#[inline]
fn seed_net(fault: &Fault) -> u32 {
    match fault.site {
        FaultSite::Stem(n) => n.index() as u32,
        FaultSite::Pin { gate_out, .. } => gate_out.index() as u32,
    }
}

/// Cuts `faults` into at most [`TARGET_CHUNKS`]`+1` contiguous chunks of
/// roughly equal *estimated propagation work* — the sum of each fault's
/// seed-net [`cone_mass`](CompiledCircuit::cone_mass) — and returns the
/// exclusive end offsets ([`exec::Pool::par_chunks_stealing`] format).
///
/// Equal-count chunks mis-balance badly at scale: faults near the inputs
/// disturb cones orders of magnitude larger than faults near the outputs,
/// so a count-based cut can leave one chunk holding most of the actual
/// work. Cost-based cuts keep every chunk coarse enough to amortize
/// dispatch yet similar enough in cost that workers finish together.
///
/// Deterministic: a pure function of the fault list and the artifact.
fn chunk_plan(cc: &CompiledCircuit, faults: &[Fault]) -> Vec<usize> {
    if faults.is_empty() {
        return Vec::new();
    }
    let total: u64 = faults.iter().map(|f| cc.cone_mass(seed_net(f)) as u64).sum();
    let target = total.div_ceil(TARGET_CHUNKS as u64).max(1);
    let mut ends = Vec::new();
    let mut acc = 0u64;
    for (i, f) in faults.iter().enumerate() {
        acc += cc.cone_mass(seed_net(f)) as u64;
        if acc >= target {
            ends.push(i + 1);
            acc = 0;
        }
    }
    if ends.last() != Some(&faults.len()) {
        ends.push(faults.len());
    }
    ends
}

/// Event-driven propagation of one fault over the current 64-pattern batch,
/// against shared good values. Returns the mask of patterns on which some
/// output differs; the faulty mirror in `s` is restored to `good` before
/// returning.
fn fault_effect(cc: &CompiledCircuit, good: &[u64], s: &mut FaultScratch, fault: &Fault) -> u64 {
    debug_assert!(s.touched.is_empty());
    let stuck = if fault.stuck_at { !0u64 } else { 0u64 };
    let mut diff = 0u64;

    // Seed the queue.
    let forced_pin = match fault.site {
        FaultSite::Stem(n) => {
            let i = n.index();
            if s.faulty[i] != stuck {
                s.faulty[i] = stuck;
                s.touched.push(i as u32);
                if cc.is_output(i as u32) {
                    diff |= good[i] ^ stuck;
                }
                for &f in cc.fanout(i as u32) {
                    s.schedule(cc, f);
                }
            }
            None
        }
        FaultSite::Pin { gate_out, pin } => {
            s.schedule(cc, gate_out.index() as u32);
            Some((gate_out.index() as u32, pin))
        }
    };

    let stem_net = match fault.site {
        // The stem stays forced; it cannot re-enter the queue (only its
        // strictly-upstream fanins could schedule it), but guard anyway.
        FaultSite::Stem(n) => n.index() as u32,
        _ => u32::MAX,
    };

    while let Some(n) = s.queue.pop() {
        s.scheduled[n as usize] = false;
        s.events += 1;
        if n == stem_net {
            continue;
        }
        let Some(kind) = cc.kind_of(n) else { continue };
        let fanin = cc.fanin(n);
        let new = match forced_pin {
            Some((g, pin)) if g == n => {
                CompiledCircuit::eval_gate_with_pin(kind, fanin, &s.faulty, pin, stuck)
            }
            _ => CompiledCircuit::eval_gate(kind, fanin, &s.faulty),
        };
        if new != s.faulty[n as usize] {
            if s.faulty[n as usize] == good[n as usize] {
                s.touched.push(n);
            }
            s.faulty[n as usize] = new;
            if cc.is_output(n) {
                diff |= good[n as usize] ^ new;
            }
            for &f in cc.fanout(n) {
                s.schedule(cc, f);
            }
        }
    }

    // Undo: restore the faulty mirror to the good values.
    for &n in &s.touched {
        s.faulty[n as usize] = good[n as usize];
    }
    s.touched.clear();
    diff
}

/// A 64-pattern-parallel fault simulator over a shared [`CompiledCircuit`].
///
/// For each batch of 64 input patterns it computes the good-circuit values
/// once (the engine's full-sweep kernel); every candidate fault is then
/// simulated *event-driven*: only the gates whose value actually changes
/// are re-evaluated, in topological order, which keeps per-fault cost
/// proportional to the disturbed cone rather than the whole circuit.
#[derive(Debug, Clone)]
pub struct FaultSim {
    cc: Arc<CompiledCircuit>,
    good: Vec<u64>,
    scratch: FaultScratch,
    /// Test-only fault injection: drop the first fault of every chunk but
    /// the first in the parallel path. See
    /// [`sabotage_drop_chunk_boundary`](FaultSim::sabotage_drop_chunk_boundary).
    drop_chunk_boundary: bool,
}

impl FaultSim {
    /// Compiles a fault simulator for `circuit`.
    ///
    /// # Errors
    ///
    /// Returns a netlist error if the circuit is cyclic.
    pub fn new(circuit: &Circuit) -> Result<Self, Error> {
        Ok(Self::from_compiled(Arc::new(CompiledCircuit::compile(
            circuit,
        )?)))
    }

    /// Wraps an already-compiled artifact (shares it, no recompilation).
    pub fn from_compiled(cc: Arc<CompiledCircuit>) -> Self {
        let n = cc.num_nets();
        let scratch = FaultScratch::new(&cc);
        FaultSim {
            cc,
            good: vec![0; n],
            scratch,
            drop_chunk_boundary: false,
        }
    }

    /// Test-only mutation hook (conformance mutation-kill harness): makes
    /// the parallel path silently skip the first fault of every chunk after
    /// the first — the classic off-by-one a chunked rewrite can introduce
    /// at chunk boundaries. Never call this outside fault-injection tests.
    pub fn sabotage_drop_chunk_boundary(&mut self) {
        self.drop_chunk_boundary = true;
    }

    /// The shared compiled artifact backing this simulator.
    pub fn compiled(&self) -> &Arc<CompiledCircuit> {
        &self.cc
    }

    fn run_good(&mut self, input_words: &[u64]) {
        self.cc.eval_full_into(input_words, &mut self.good);
        // Faulty mirror starts equal; fault_effect keeps it in sync through
        // the `touched` undo list.
        self.scratch.faulty.copy_from_slice(&self.good);
    }

    /// Simulates a batch of 64 patterns and returns the indices (into
    /// `faults`) of the faults detected by at least one pattern.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len()` differs from the combinational input
    /// count.
    pub fn detect_batch(&mut self, input_words: &[u64], faults: &[Fault]) -> Vec<usize> {
        self.run_good(input_words);
        let mut detected = Vec::new();
        for (i, f) in faults.iter().enumerate() {
            if fault_effect(&self.cc, &self.good, &mut self.scratch, f) != 0 {
                detected.push(i);
            }
        }
        detected
    }

    /// Simulates several 64-pattern batches (`batches[b]` holds one word per
    /// combinational input) and returns the ascending indices (into
    /// `faults`) of the faults some batch detects, with the engine work
    /// counters of the run, distributing the fault list across `pool` in
    /// coarse work-weighted chunks with work-stealing.
    ///
    /// The detected set equals a word-by-word loop over
    /// [`detect_batch`](FaultSim::detect_batch) that drops each detected
    /// fault before the next batch, but all batches share one dispatch. The
    /// good-circuit values of every batch are computed once, up front, so
    /// the caller bounds the memory a run holds by the number of batches it
    /// passes. The fault list is cut by
    /// [`cone_mass`](CompiledCircuit::cone_mass) into at most ~64 chunks of
    /// roughly equal estimated propagation work; each chunk runs the
    /// batches in order and drops a fault at its first detecting batch.
    /// Each *worker* (not each chunk) owns one `FaultScratch` — faulty
    /// mirror, undo list, level queue — allocated once and reused for every
    /// chunk it steals. Chunk boundaries depend only on the fault list and
    /// the circuit, and every fault's effect is independent of chunk
    /// placement (the faulty mirror is restored after each fault), so the
    /// detected set is bit-identical for any thread count; steal order
    /// affects scheduling telemetry only.
    ///
    /// The counters record one full sweep per batch, one incremental
    /// propagation per fault evaluation actually run (a dropped fault is
    /// not simulated on later batches), and events summed over all chunks.
    ///
    /// `stop` is consulted before every batch's good-value sweep and before
    /// every batch inside every chunk; once it returns `true` the run ends
    /// and returns `None`. Pass `&|| false` to run to completion.
    ///
    /// # Panics
    ///
    /// Panics if a batch's length differs from the combinational input
    /// count.
    pub fn detect_batch_par(
        &self,
        pool: &exec::Pool,
        batches: &[Vec<u64>],
        faults: &[Fault],
        stop: &(dyn Fn() -> bool + Sync),
    ) -> Option<(Vec<usize>, EngineCounters)> {
        let mut goods = Vec::with_capacity(batches.len());
        for words in batches {
            if stop() {
                return None;
            }
            let mut good = Vec::new();
            self.cc.eval_full_into(words, &mut good);
            goods.push(good);
        }
        let ends = chunk_plan(&self.cc, faults);
        let cc = &self.cc;
        let goods = &goods;
        let sabotage = self.drop_chunk_boundary;
        let per_chunk = pool.par_chunks_stealing(
            "fsim_fault_chunks",
            faults,
            &ends,
            || FaultScratch::new(cc),
            |k, slice, scratch| {
                let base = if k == 0 { 0 } else { ends[k - 1] };
                let before = scratch.events;
                // Chunk positions of the faults no batch has detected yet.
                let mut alive: Vec<usize> = (0..slice.len())
                    .filter(|&j| !(sabotage && k > 0 && j == 0))
                    .collect();
                let mut detected = Vec::new();
                let mut evals = 0u64;
                for (b, good) in goods.iter().enumerate() {
                    if alive.is_empty() {
                        break;
                    }
                    if stop() {
                        return None;
                    }
                    scratch.mirror(b, good);
                    evals += alive.len() as u64;
                    alive.retain(|&j| {
                        let hit = fault_effect(cc, good, scratch, &slice[j]) != 0;
                        if hit {
                            detected.push(base + j);
                        }
                        !hit
                    });
                }
                detected.sort_unstable();
                Some((detected, evals, scratch.events - before))
            },
        );
        let mut detected = Vec::new();
        let mut counters = EngineCounters {
            full_evals: batches.len() as u64,
            ..EngineCounters::default()
        };
        for chunk in per_chunk {
            let (d, evals, events) = chunk?;
            detected.extend(d);
            counters.incremental_props += evals;
            counters.events += events;
        }
        Some((detected, counters))
    }

    /// Checks whether a single pattern (booleans over the combinational
    /// inputs) detects a single fault.
    ///
    /// # Panics
    ///
    /// Panics if `pattern.len()` differs from the combinational input count.
    pub fn detects(&mut self, pattern: &[bool], fault: &Fault) -> bool {
        let words: Vec<u64> = pattern.iter().map(|&b| if b { !0 } else { 0 }).collect();
        self.run_good(&words);
        fault_effect(&self.cc, &self.good, &mut self.scratch, fault) & 1 == 1
    }

    /// Number of nets in the compiled circuit.
    pub fn num_nets(&self) -> usize {
        self.cc.num_nets()
    }

    #[cfg(test)]
    fn good_value(&self, net: netlist::NetId) -> u64 {
        self.good[net.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::samples;
    use netlist::{GateKind, Levelization};

    /// Reference implementation: full resimulation with the fault injected.
    fn full_resim_effect(c: &Circuit, input_words: &[u64], fault: &Fault) -> u64 {
        let lv = Levelization::build(c).unwrap();
        let eval = |values: &mut Vec<u64>, fault: Option<&Fault>| {
            for &id in lv.order() {
                if let Some(g) = c.gate(id) {
                    if let Some(Fault {
                        site: FaultSite::Stem(n),
                        ..
                    }) = fault
                    {
                        if *n == id {
                            continue;
                        }
                    }
                    let mut vals: Vec<u64> =
                        g.fanin.iter().map(|f| values[f.index()]).collect();
                    if let Some(Fault {
                        site: FaultSite::Pin { gate_out, pin },
                        stuck_at,
                    }) = fault
                    {
                        if *gate_out == id {
                            vals[*pin] = if *stuck_at { !0 } else { 0 };
                        }
                    }
                    values[id.index()] = match g.kind {
                        GateKind::And => vals.iter().fold(!0u64, |a, &x| a & x),
                        GateKind::Nand => !vals.iter().fold(!0u64, |a, &x| a & x),
                        GateKind::Or => vals.iter().fold(0u64, |a, &x| a | x),
                        GateKind::Nor => !vals.iter().fold(0u64, |a, &x| a | x),
                        GateKind::Xor => vals.iter().fold(0u64, |a, &x| a ^ x),
                        GateKind::Xnor => !vals.iter().fold(0u64, |a, &x| a ^ x),
                        GateKind::Not => !vals[0],
                        GateKind::Buf => vals[0],
                        GateKind::Const0 => 0,
                        GateKind::Const1 => !0,
                    };
                }
            }
        };
        let mut good = vec![0u64; c.num_nets()];
        for (net, &w) in c.comb_inputs().iter().zip(input_words) {
            good[net.index()] = w;
        }
        eval(&mut good, None);
        let mut bad = vec![0u64; c.num_nets()];
        for (net, &w) in c.comb_inputs().iter().zip(input_words) {
            bad[net.index()] = w;
        }
        if let FaultSite::Stem(n) = fault.site {
            bad[n.index()] = if fault.stuck_at { !0 } else { 0 };
        }
        eval(&mut bad, Some(fault));
        if let FaultSite::Stem(n) = fault.site {
            bad[n.index()] = if fault.stuck_at { !0 } else { 0 };
        }
        let mut diff = 0u64;
        for o in c.comb_outputs() {
            diff |= good[o.index()] ^ bad[o.index()];
        }
        diff
    }

    #[test]
    fn event_driven_matches_full_resimulation() {
        let mut rng = netlist::rng::SplitMix64::new(17);
        for seed in 0..6 {
            let c = netlist::generate::random_comb(seed, 10, 6, 150).unwrap();
            let faults = crate::collapse(&c, crate::enumerate_faults(&c));
            let mut sim = FaultSim::new(&c).unwrap();
            let words: Vec<u64> = (0..10).map(|_| rng.next_u64()).collect();
            sim.run_good(&words);
            for f in &faults {
                let fast = fault_effect(&sim.cc, &sim.good, &mut sim.scratch, f);
                let slow = full_resim_effect(&c, &words, f);
                assert_eq!(fast, slow, "fault {f} in seed-{seed} circuit");
            }
        }
    }

    #[test]
    fn faulty_mirror_restored_between_faults() {
        let c = samples::c17();
        let faults = crate::collapse(&c, crate::enumerate_faults(&c));
        let mut sim = FaultSim::new(&c).unwrap();
        let words = vec![0xDEAD_BEEFu64; 5];
        sim.run_good(&words);
        for f in &faults {
            let _ = fault_effect(&sim.cc, &sim.good, &mut sim.scratch, f);
            assert_eq!(
                sim.scratch.faulty, sim.good,
                "mirror must be restored after {f}"
            );
        }
    }

    #[test]
    fn input_fault_requires_sensitized_path() {
        // y = AND(a, b): a/sa0 only detectable when a=1 AND b=1.
        let mut c = netlist::Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let y = c.add_gate(GateKind::And, vec![a, b], "y").unwrap();
        c.mark_output(y);
        let mut sim = FaultSim::new(&c).unwrap();
        let f = Fault::stem_sa0(a);
        assert!(sim.detects(&[true, true], &f));
        assert!(!sim.detects(&[true, false], &f));
        assert!(!sim.detects(&[false, true], &f));
    }

    #[test]
    fn pin_fault_affects_only_one_branch() {
        let mut c = netlist::Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, vec![a, b], "g1").unwrap();
        let g2 = c.add_gate(GateKind::Or, vec![a, b], "g2").unwrap();
        c.mark_output(g1);
        c.mark_output(g2);
        let mut sim = FaultSim::new(&c).unwrap();
        let pin_fault = Fault {
            site: FaultSite::Pin { gate_out: g1, pin: 0 },
            stuck_at: false,
        };
        let words = vec![!0u64, !0u64];
        sim.run_good(&words);
        let diff = fault_effect(&sim.cc, &sim.good, &mut sim.scratch, &pin_fault);
        assert_eq!(diff, !0u64);
        let _ = sim.good_value(g2);
    }

    #[test]
    fn stem_fault_affects_all_branches() {
        let mut c = netlist::Circuit::new("t");
        let a = c.add_input("a");
        let b = c.add_input("b");
        let g1 = c.add_gate(GateKind::And, vec![a, b], "g1").unwrap();
        let g2 = c.add_gate(GateKind::Or, vec![a, b], "g2").unwrap();
        c.mark_output(g1);
        c.mark_output(g2);
        let mut sim = FaultSim::new(&c).unwrap();
        let f = Fault::stem_sa0(a);
        let words = vec![!0u64, 0u64];
        sim.run_good(&words);
        let diff = fault_effect(&sim.cc, &sim.good, &mut sim.scratch, &f);
        assert_eq!(diff, !0u64);
    }

    #[test]
    fn detect_batch_par_identical_for_1_2_8_threads() {
        let mut rng = netlist::rng::SplitMix64::new(23);
        for seed in 0..3 {
            let c = netlist::generate::random_comb(seed, 10, 6, 200).unwrap();
            let faults = crate::collapse(&c, crate::enumerate_faults(&c));
            let mut sim = FaultSim::new(&c).unwrap();
            let words: Vec<u64> = (0..10).map(|_| rng.next_u64()).collect();
            let sequential = sim.detect_batch(&words, &faults);
            for threads in [1, 2, 8] {
                let pool = exec::Pool::with_threads(threads);
                let batch = std::slice::from_ref(&words);
                let (par, _) = sim.detect_batch_par(&pool, batch, &faults, &|| false).unwrap();
                assert_eq!(par, sequential, "seed {seed}, {threads} threads");
            }
        }
    }

    #[test]
    fn par_counters_are_thread_invariant() {
        let c = netlist::generate::random_comb(5, 10, 6, 200).unwrap();
        let faults = crate::collapse(&c, crate::enumerate_faults(&c));
        let sim = FaultSim::new(&c).unwrap();
        let words = vec![0x0123_4567_89AB_CDEFu64; 10];
        let mut seen = Vec::new();
        for threads in [1, 2, 8] {
            let pool = exec::Pool::with_threads(threads);
            let batch = std::slice::from_ref(&words);
            let (_, counters) = sim.detect_batch_par(&pool, batch, &faults, &|| false).unwrap();
            assert_eq!(counters.full_evals, 1);
            assert_eq!(counters.incremental_props, faults.len() as u64);
            assert!(counters.events > 0);
            seen.push(counters);
        }
        assert_eq!(seen[0], seen[1]);
        assert_eq!(seen[1], seen[2]);
    }

    #[test]
    fn chunk_plan_covers_faults_with_bounded_chunk_count() {
        let c = netlist::generate::random_comb(31, 12, 6, 400).unwrap();
        let faults = crate::collapse(&c, crate::enumerate_faults(&c));
        let cc = CompiledCircuit::compile(&c).unwrap();
        let ends = chunk_plan(&cc, &faults);
        assert_eq!(*ends.last().unwrap(), faults.len());
        assert!(ends.windows(2).all(|w| w[0] < w[1]), "strictly ascending");
        assert!(ends.len() <= TARGET_CHUNKS + 1, "{} chunks", ends.len());
        // Same inputs, same plan.
        assert_eq!(ends, chunk_plan(&cc, &faults));
        // Empty fault list: empty plan.
        assert!(chunk_plan(&cc, &[]).is_empty());
    }

    #[test]
    fn chunk_plan_balances_by_cone_mass_not_count() {
        // A long inverter chain: the fault at the head has a cone as large
        // as the whole chain, faults at the tail have tiny cones. A
        // count-based cut would put equally many faults per chunk; the
        // mass-based cut must give the head faults fewer companions.
        let mut c = netlist::Circuit::new("chain");
        let mut prev = c.add_input("i");
        let mut nets = vec![prev];
        for k in 0..256 {
            prev = c.add_gate(GateKind::Not, vec![prev], format!("g{k}")).unwrap();
            nets.push(prev);
        }
        c.mark_output(prev);
        let cc = CompiledCircuit::compile(&c).unwrap();
        let faults: Vec<Fault> = nets.iter().map(|&n| Fault::stem_sa0(n)).collect();
        let ends = chunk_plan(&cc, &faults);
        let first_chunk = ends[0];
        let last_chunk = ends[ends.len() - 1] - ends[ends.len() - 2];
        assert!(
            first_chunk < last_chunk,
            "head chunk ({first_chunk} faults) must be smaller than tail ({last_chunk})"
        );
    }

    #[test]
    fn sabotaged_chunk_boundary_changes_parallel_detection() {
        let c = netlist::generate::random_comb(3, 10, 6, 300).unwrap();
        let faults = crate::collapse(&c, crate::enumerate_faults(&c));
        let mut sim = FaultSim::new(&c).unwrap();
        let words = vec![0x5A5A_F00D_1234_8765u64; 10];
        let pool = exec::Pool::with_threads(2);
        let batch = std::slice::from_ref(&words);
        let (clean, _) = sim.detect_batch_par(&pool, batch, &faults, &|| false).unwrap();
        sim.sabotage_drop_chunk_boundary();
        let (broken, _) = sim.detect_batch_par(&pool, batch, &faults, &|| false).unwrap();
        assert_ne!(clean, broken, "dropped boundary faults must be observable");
    }

    #[test]
    fn detect_batch_matches_single_pattern_checks() {
        let c = samples::full_adder();
        let faults = crate::collapse(&c, crate::enumerate_faults(&c));
        let mut sim = FaultSim::new(&c).unwrap();
        let mut words = vec![0u64; 3];
        for m in 0..8u64 {
            for (i, w) in words.iter_mut().enumerate() {
                if (m >> i) & 1 == 1 {
                    *w |= 1 << m;
                }
            }
        }
        let batch = sim.detect_batch(&words, &faults);
        for (i, f) in faults.iter().enumerate() {
            let mut single = false;
            for m in 0..8u64 {
                let pattern: Vec<bool> = (0..3).map(|k| (m >> k) & 1 == 1).collect();
                if sim.detects(&pattern, f) {
                    single = true;
                    break;
                }
            }
            assert_eq!(batch.contains(&i), single, "fault {f}");
        }
    }
}
