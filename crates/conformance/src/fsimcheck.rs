//! Fault-simulator battery: sequential vs chunked-parallel detection.
//!
//! [`atpg::FaultSim`] has two detection paths over the same compiled
//! artifact: the sequential [`detect_batch`](atpg::FaultSim::detect_batch)
//! and the coarse-chunked, work-stealing
//! [`detect_batch_par`](atpg::FaultSim::detect_batch_par). The parallel
//! path is *specified* to be bit-identical to the sequential one for any
//! thread count — chunk boundaries are a pure function of the circuit and
//! the fault list, and the per-worker scratch is restored after every
//! fault. This battery enforces that contract across thread counts and
//! doubles as the executioner for the chunk-boundary mutant
//! ([`FsimFault::DropChunkBoundary`]).
//!
//! The parallel path also takes several batches in one dispatch and drops
//! each fault at its first detecting batch; its second leg compares that
//! against the sequential path fed word by word with the same dropping.

use atpg::{collapse, enumerate_faults, Fault, FaultSim};
use exec::Pool;
use netlist::rng::SplitMix64;
use netlist::Circuit;

/// A semantic fault injected into the parallel fault-simulation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsimFault {
    /// Silently drop the first fault of every chunk after the first — the
    /// classic off-by-one a chunked re-partition can introduce at chunk
    /// boundaries.
    DropChunkBoundary,
}

/// The battery circuit set: the crafted engine circuit (small enough that
/// the mass-balanced chunk plan degenerates to one fault per chunk, so a
/// boundary fault drops almost everything) plus two deterministic random
/// circuits large enough to produce multi-fault chunks.
fn battery_circuits() -> Vec<Circuit> {
    vec![
        crate::differential::crafted_engine_circuit(),
        netlist::generate::random_comb(3, 10, 6, 300).expect("synthesizable"),
        netlist::generate::random_comb(5, 8, 5, 160).expect("synthesizable"),
    ]
}

/// Runs the fault-sim battery.
///
/// - `fault = None`: conformance mode — the parallel detected set must be
///   bit-identical to the sequential one on every circuit, batch and
///   thread count, and the engine counters must be truthful.
/// - `fault = Some(_)`: mutation mode — `Err` is the *desired* outcome.
///
/// The sequential path never consults the sabotage flag, so it stays an
/// honest reference even on a sabotaged simulator.
pub fn fsim_battery(fault: Option<FsimFault>) -> Result<(), String> {
    for (ci, c) in battery_circuits().iter().enumerate() {
        let faults = collapse(c, enumerate_faults(c));
        let mut sim =
            FaultSim::new(c).map_err(|e| format!("circuit {ci}: compile failed: {e:?}"))?;
        match fault {
            Some(FsimFault::DropChunkBoundary) => sim.sabotage_drop_chunk_boundary(),
            None => {}
        }
        let n_in = sim.compiled().inputs().len();
        let mut rng = SplitMix64::new(0xF51A + ci as u64);
        for batch in 0..2 {
            let words: Vec<u64> = (0..n_in).map(|_| rng.next_u64()).collect();
            let seq = sim.detect_batch(&words, &faults);
            for threads in [1usize, 2, 4] {
                let pool = Pool::with_threads(threads);
                let one = std::slice::from_ref(&words);
                let (par, counters) = sim
                    .detect_batch_par(&pool, one, &faults, &|| false)
                    .expect("never stopped");
                if par != seq {
                    return Err(format!(
                        "circuit {ci}, batch {batch}, {threads} threads: parallel \
                         detected {} faults, sequential detected {}",
                        par.len(),
                        seq.len()
                    ));
                }
                if counters.full_evals != 1 || counters.incremental_props != faults.len() as u64 {
                    return Err(format!(
                        "circuit {ci}, batch {batch}, {threads} threads: untruthful \
                         counters {counters:?} for {} faults",
                        faults.len()
                    ));
                }
            }
        }
        multi_batch_leg(ci, &mut sim, &faults)?;
    }
    Ok(())
}

/// Batches of the multi-batch leg per circuit.
const MULTI_BATCHES: usize = 6;

/// The sequential reference of a multi-batch run: `detect_batch` fed word
/// by word, each detected fault dropped before the next batch. Returns the
/// ascending detected indices and the fault evaluations run.
fn dropping_reference(
    sim: &mut FaultSim,
    batches: &[Vec<u64>],
    faults: &[Fault],
) -> (Vec<usize>, u64) {
    let mut alive: Vec<usize> = (0..faults.len()).collect();
    let mut detected = Vec::new();
    let mut evals = 0u64;
    for words in batches {
        let subset: Vec<Fault> = alive.iter().map(|&i| faults[i].clone()).collect();
        evals += subset.len() as u64;
        let hits = sim.detect_batch(words, &subset);
        detected.extend(hits.iter().map(|&h| alive[h]));
        let mut hits = hits.into_iter().peekable();
        let mut k = 0;
        alive.retain(|_| {
            let hit = hits.next_if_eq(&k).is_some();
            k += 1;
            !hit
        });
    }
    detected.sort_unstable();
    (detected, evals)
}

/// The multi-batch leg's [`MULTI_BATCHES`] sparse batches for circuit
/// `ci`: each word is the AND of three random words, so detections spread
/// over several batches and dropping matters.
fn multi_batches(ci: usize, n_in: usize) -> Vec<Vec<u64>> {
    let mut rng = SplitMix64::new(0xB47C + ci as u64);
    (0..MULTI_BATCHES)
        .map(|_| {
            (0..n_in)
                .map(|_| rng.next_u64() & rng.next_u64() & rng.next_u64())
                .collect()
        })
        .collect()
}

/// The multi-batch leg: [`multi_batches`] in one `detect_batch_par` call
/// at 1, 2 and 4 threads must detect exactly what
/// [`dropping_reference`] detects, with one full sweep per batch and one
/// incremental propagation per fault evaluation run.
fn multi_batch_leg(ci: usize, sim: &mut FaultSim, faults: &[Fault]) -> Result<(), String> {
    let batches = multi_batches(ci, sim.compiled().inputs().len());
    let (seq, evals) = dropping_reference(sim, &batches, faults);
    for threads in [1usize, 2, 4] {
        let pool = Pool::with_threads(threads);
        let (par, counters) = sim
            .detect_batch_par(&pool, &batches, faults, &|| false)
            .expect("never stopped");
        if par != seq {
            return Err(format!(
                "circuit {ci}, {MULTI_BATCHES} batches, {threads} threads: parallel \
                 detected {} faults, word-by-word dropping detected {}",
                par.len(),
                seq.len()
            ));
        }
        if counters.full_evals != MULTI_BATCHES as u64 || counters.incremental_props != evals {
            return Err(format!(
                "circuit {ci}, {MULTI_BATCHES} batches, {threads} threads: untruthful \
                 counters {counters:?} for {evals} fault evaluations"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_paths_agree() {
        assert_eq!(fsim_battery(None), Ok(()));
    }

    #[test]
    fn chunk_boundary_mutant_is_detected() {
        let r = fsim_battery(Some(FsimFault::DropChunkBoundary));
        assert!(r.is_err(), "chunk-boundary mutant survived: {r:?}");
    }

    #[test]
    fn chunk_boundary_mutant_dies_in_the_multi_batch_leg_too() {
        let c = &battery_circuits()[1];
        let faults = collapse(c, enumerate_faults(c));
        let mut sim = FaultSim::new(c).unwrap();
        assert_eq!(multi_batch_leg(1, &mut sim, &faults), Ok(()));
        // The leg's batches leave faults for later batches and drop some:
        // some but not all evaluations are skipped.
        let batches = multi_batches(1, sim.compiled().inputs().len());
        let (_, evals) = dropping_reference(&mut sim, &batches, &faults);
        let n = faults.len() as u64;
        assert!(
            n < evals && evals < n * MULTI_BATCHES as u64,
            "{evals} of {n}"
        );
        sim.sabotage_drop_chunk_boundary();
        let r = multi_batch_leg(1, &mut sim, &faults);
        assert!(r.is_err(), "chunk-boundary mutant survived: {r:?}");
    }
}
