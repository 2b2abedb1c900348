//! Golden pins of the defender pipeline's deterministic outputs.
//!
//! The `defend` benchmark workload and the Table I/II binaries run OraP
//! protection, the Hamming-distance measurement, AIG resynthesis and ATPG.
//! Their kernels may change how they allocate, dispatch and schedule, but
//! never what they compute. This test pins, for each Table-I profile at
//! seed 1 (the workload's sizes and control widths):
//!
//! - `run_atpg` on the scale-0.002 design protected with 12 WLL bits: the
//!   fault totals and an FNV-1a digest of the PODEM test set, once with
//!   the workload's 4096 random patterns and once with none, so that every
//!   fault goes to PODEM and every profile pins a non-empty test set;
//! - `aigsynth::optimize` area and depth of the scale-0.01 design and of its
//!   24-bit protected version;
//! - `average_hd_random_keys(.., 10, 16384, 1)` of that protected version,
//!   as the bits of the `f64`.

use atpg::{run_atpg, AtpgConfig};
use locking::weighted::WllConfig;
use netlist::generate::{self, BenchmarkId};
use netlist::Circuit;
use orap::{protect, OrapConfig, OrapProtected};

const SEED: u64 = 1;

/// One profile's pinned outputs.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    id: BenchmarkId,
    /// `(total, detected, redundant, aborted, FNV-1a of tests)`; the digest
    /// is `0xcbf29ce484222325`, that of an empty set, where the random
    /// patterns leave PODEM no test to find.
    atpg: (usize, usize, usize, usize, u64),
    /// The same with no random patterns: PODEM targets every fault.
    podem: (usize, usize, usize, usize, u64),
    /// `(area, depth)` of the unprotected scale-0.01 design.
    synth_orig: (usize, usize),
    /// `(area, depth)` of its 24-bit protected version.
    synth_prot: (usize, usize),
    /// `f64::to_bits` of the protected version's average HD.
    hd_bits: u64,
}

/// Captured from the reference kernels at seed 1. A change to how the
/// kernels allocate, dispatch or schedule must leave every entry as it is.
const PINS: &[Pin] = &[
    Pin {
        id: BenchmarkId::S38417,
        atpg: (131, 124, 7, 0, 0xcbf29ce484222325),
        podem: (131, 124, 7, 0, 0xddb8d24481b89899),
        synth_orig: (178, 35),
        synth_prot: (213, 40),
        hd_bits: 0x404691e98e38e38e,
    },
    Pin {
        id: BenchmarkId::S38584,
        atpg: (163, 150, 13, 0, 0xcbf29ce484222325),
        podem: (163, 150, 13, 0, 0x484b608629738299),
        synth_orig: (226, 51),
        synth_prot: (274, 54),
        hd_bits: 0x40410c4878787878,
    },
    Pin {
        id: BenchmarkId::B17,
        atpg: (323, 283, 38, 2, 0xcbf29ce484222325),
        podem: (323, 275, 38, 10, 0xbc3052b9ce9aa910),
        synth_orig: (556, 132),
        synth_prot: (598, 134),
        hd_bits: 0x40316c8c00000000,
    },
    Pin {
        id: BenchmarkId::B18,
        atpg: (930, 840, 64, 26, 0x5a6ddd364d63bfd9),
        podem: (930, 837, 64, 29, 0xf923471b7afcc651),
        synth_orig: (1929, 334),
        synth_prot: (1970, 336),
        hd_bits: 0x4029f016db6db6dd,
    },
    Pin {
        id: BenchmarkId::B19,
        atpg: (1863, 1586, 67, 210, 0x8df05b0a9aeae409),
        podem: (1863, 1427, 67, 369, 0xd95899cff6734434),
        synth_orig: (3889, 591),
        synth_prot: (3922, 591),
        hd_bits: 0x401ed6e3c3c3c3c3,
    },
    Pin {
        id: BenchmarkId::B20,
        atpg: (216, 197, 19, 0, 0xcbf29ce484222325),
        podem: (216, 197, 19, 0, 0x5c1b05e82d3db55f),
        synth_orig: (313, 95),
        synth_prot: (422, 108),
        hd_bits: 0x4038db9eaaaaaaaa,
    },
    Pin {
        id: BenchmarkId::B21,
        atpg: (206, 193, 12, 1, 0xcbf29ce484222325),
        podem: (206, 193, 12, 1, 0xd093a2865e8b0e7e),
        synth_orig: (357, 106),
        synth_prot: (411, 106),
        hd_bits: 0x403ff35955555556,
    },
    Pin {
        id: BenchmarkId::B22,
        atpg: (300, 276, 23, 1, 0xcbf29ce484222325),
        podem: (300, 275, 23, 2, 0x3899fa2439c8d941),
        synth_orig: (587, 129),
        synth_prot: (627, 133),
        hd_bits: 0x403b923f1c71c71d,
    },
];

/// Key inputs per control gate, as the `defend` workload picks them.
fn control_width(id: BenchmarkId) -> usize {
    match id {
        BenchmarkId::B18 | BenchmarkId::B19 => 5,
        _ => 3,
    }
}

fn design(id: BenchmarkId, scale: f64) -> Circuit {
    generate::synthesize(&generate::profile(id).scaled(scale)).expect("profile synthesizes")
}

fn protected(id: BenchmarkId, design: &Circuit, key_bits: usize) -> OrapProtected {
    let wll = WllConfig {
        key_bits,
        control_width: control_width(id),
        seed: SEED,
    };
    let config = OrapConfig {
        seed: SEED,
        ..OrapConfig::default()
    };
    protect(design, &wll, &config).expect("protect")
}

/// FNV-1a over the test set rendered as `0`/`1` lines.
fn fnv1a(tests: &[Vec<bool>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in tests.iter().flat_map(|t| {
        t.iter()
            .map(|&b| if b { b'1' } else { b'0' })
            .chain([b'\n'])
    }) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `run_atpg` at backtrack limit 100 and seed 1, as the pinned tuple.
fn atpg_pin(circuit: &Circuit, random_patterns: usize) -> (usize, usize, usize, usize, u64) {
    let config = AtpgConfig {
        random_patterns,
        backtrack_limit: 100,
        seed: SEED,
    };
    let rep = run_atpg(circuit, &config).expect("acyclic");
    (
        rep.total_faults,
        rep.detected,
        rep.redundant,
        rep.aborted,
        fnv1a(&rep.tests),
    )
}

fn measure(id: BenchmarkId) -> Pin {
    let small = protected(id, &design(id, 0.002), 12).locked.circuit;

    let table = design(id, 0.01);
    let prot = protected(id, &table, 24);
    let orig = aigsynth::optimize(&table).expect("acyclic");
    let opt = aigsynth::optimize(&prot.locked.circuit).expect("acyclic");
    let hd = gatesim::hd::average_hd_random_keys(
        &prot.locked.circuit,
        &prot.locked.key_inputs,
        &prot.locked.correct_key,
        10,
        16384,
        SEED,
    )
    .expect("acyclic");
    Pin {
        id,
        atpg: atpg_pin(&small, 4096),
        podem: atpg_pin(&small, 0),
        synth_orig: (orig.area, orig.depth),
        synth_prot: (opt.area, opt.depth),
        hd_bits: hd.to_bits(),
    }
}

/// One pin as the Rust source of a `PINS` entry.
fn render(p: &Pin) -> String {
    let atpg = |(t, d, r, a, h): (usize, usize, usize, usize, u64)| {
        format!("({t}, {d}, {r}, {a}, {h:#018x})")
    };
    format!(
        "    Pin {{\n        id: BenchmarkId::{:?},\n        atpg: {},\n        podem: {},\n        synth_orig: {:?},\n        synth_prot: {:?},\n        hd_bits: {:#018x},\n    }},\n",
        p.id,
        atpg(p.atpg),
        atpg(p.podem),
        p.synth_orig,
        p.synth_prot,
        p.hd_bits
    )
}

#[test]
fn defender_outputs_match_their_pins() {
    let got: Vec<Pin> = BenchmarkId::ALL.iter().map(|&id| measure(id)).collect();
    let table: String = got.iter().map(render).collect();
    assert_eq!(got.as_slice(), PINS, "measured pins:\n{table}");
}
