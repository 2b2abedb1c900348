//! Thread-count determinism of the chunked-parallel fault simulator at the
//! 10⁵-gate tier: the detected-fault set (and the engine work counters)
//! must be bit-identical across 1, 2 and 8 worker threads, and identical
//! to the sequential path — chunk placement and steal order are scheduling
//! details, never semantics.

use std::sync::Arc;

use atpg::{Fault, FaultSim};
use netlist::generate::{profile, synthesize_compiled, BenchmarkId};
use netlist::rng::SplitMix64;
use netlist::NetId;

/// Samples stem faults over the driven nets with a fixed stride so the
/// fault list spans the whole circuit (shallow and deep cones alike).
fn sampled_stem_faults(cc: &netlist::CompiledCircuit, count: usize) -> Vec<Fault> {
    let driven: Vec<u32> = (0..cc.num_nets() as u32)
        .filter(|&n| cc.kind_of(n).is_some())
        .collect();
    let stride = (driven.len() / count).max(1);
    driven
        .iter()
        .step_by(stride)
        .take(count)
        .enumerate()
        .map(|(i, &n)| {
            let net = NetId::from_index(n as usize);
            if i % 2 == 0 {
                Fault::stem_sa0(net)
            } else {
                Fault::stem_sa1(net)
            }
        })
        .collect()
}

#[test]
fn detected_sets_identical_across_1_2_8_threads_at_1e5_gates() {
    let p = profile(BenchmarkId::B18).scaled_to_gates(100_000);
    let cc = Arc::new(synthesize_compiled(&p).expect("synthesizable at 1e5 gates"));
    assert!(cc.num_nets() >= 100_000, "scaling tier circuit too small");

    let faults = sampled_stem_faults(&cc, 300);
    let mut sim = FaultSim::from_compiled(Arc::clone(&cc));
    let mut rng = SplitMix64::new(0x1E5_0AB);
    let words: Vec<u64> = (0..cc.inputs().len()).map(|_| rng.next_u64()).collect();

    let seq = sim.detect_batch(&words, &faults);
    assert!(
        !seq.is_empty() && seq.len() < faults.len(),
        "detection must be nontrivial to be a meaningful determinism probe \
         (got {}/{})",
        seq.len(),
        faults.len()
    );

    let batch = std::slice::from_ref(&words);
    let (ref_par, ref_counters) = sim
        .detect_batch_par(&exec::Pool::with_threads(1), batch, &faults, &|| false)
        .expect("never stopped");
    assert_eq!(ref_par, seq, "parallel path diverged from sequential");
    for threads in [2usize, 8] {
        let pool = exec::Pool::with_threads(threads);
        let (par, counters) = sim
            .detect_batch_par(&pool, batch, &faults, &|| false)
            .expect("never stopped");
        assert_eq!(par, seq, "detected set diverged on {threads} threads");
        assert_eq!(
            counters, ref_counters,
            "engine counters diverged on {threads} threads"
        );
    }
}
