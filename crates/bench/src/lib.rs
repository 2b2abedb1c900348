//! Shared plumbing for the experiment binaries that regenerate the paper's
//! tables and figures (see DESIGN.md §4 for the experiment index).

use std::path::{Path, PathBuf};

pub mod json;

/// Command-line scale options shared by all table binaries.
///
/// The synthetic stand-ins for the ISCAS'89/ITC'99 circuits are generated at
/// a configurable fraction of their published gate counts so the experiments
/// run in minutes on a laptop; relative sizes (and hence the paper's trends)
/// are preserved at any scale. `--full` uses the paper's exact gate counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// Benchmark scale factor (1.0 = the paper's gate counts).
    pub scale: f64,
    /// Patterns for Hamming-distance measurement.
    pub hd_patterns: usize,
    /// Random wrong keys averaged for HD.
    pub hd_keys: usize,
    /// Random patterns for the ATPG prefilter phase.
    pub atpg_random: usize,
    /// PODEM backtrack limit ("high effort" scales with this).
    pub atpg_backtrack: usize,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            scale: 0.05,
            hd_patterns: 16 * 1024,
            hd_keys: 10,
            atpg_random: 4096,
            atpg_backtrack: 100,
        }
    }
}

impl RunOptions {
    /// Parses `--scale <f>`, `--full` and `--quick` from the process
    /// arguments, starting from defaults.
    pub fn from_args() -> Self {
        let mut opts = RunOptions::default();
        let args: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) {
                        opts.scale = v;
                        i += 1;
                    }
                }
                "--full" => opts.scale = 1.0,
                "--quick" => {
                    opts.scale = 0.02;
                    opts.hd_patterns = 4096;
                    opts.hd_keys = 5;
                    opts.atpg_random = 1024;
                    opts.atpg_backtrack = 50;
                }
                _ => {}
            }
            i += 1;
        }
        opts
    }
}

/// Writes an experiment's machine-readable results next to the printed
/// table, into `results/<name>.json` under the workspace root.
///
/// # Errors
///
/// Returns an I/O error if the results directory cannot be created or the
/// file cannot be written.
pub fn write_results<T: json::ToJson>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    write_json(&path, value)?;
    Ok(path)
}

/// Writes `value` pretty-printed, with a trailing newline, to `path`.
fn write_json<T: json::ToJson>(path: &Path, value: &T) -> std::io::Result<()> {
    let mut text = value.to_json().pretty();
    text.push('\n');
    std::fs::write(path, text)
}

/// Formats a nanosecond duration with an adaptive unit (ns/µs/ms/s), for
/// the walls the `scaling` bench and the `kill_matrix` binary print.
pub fn human_time(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Picks the control-gate width per benchmark as the paper does (5 inputs
/// for the two largest ITC'99 circuits, 3 otherwise).
pub fn control_width(id: netlist::generate::BenchmarkId) -> usize {
    use netlist::generate::BenchmarkId::*;
    match id {
        B18 | B19 => 5,
        _ => 3,
    }
}

/// Key (LFSR) sizes per benchmark from Table I column 4, scaled down with
/// the circuit so that HD measurement stays meaningful.
pub fn key_bits(id: netlist::generate::BenchmarkId, scale: f64) -> usize {
    use netlist::generate::BenchmarkId::*;
    let full = match id {
        S38417 => 256,
        S38584 => 186,
        B17 => 256,
        B18 => 97,
        B19 => 208,
        B20 => 236,
        B21 => 229,
        B22 => 243,
    };
    if scale >= 1.0 {
        full
    } else {
        // Scale the key with the circuit, keeping control-gate alignment and
        // a sensible floor.
        ((full as f64 * scale.max(0.05)) as usize).clamp(12, full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_sane() {
        let o = RunOptions::default();
        assert!(o.scale > 0.0 && o.scale <= 1.0);
        assert!(o.hd_patterns >= 1024);
    }

    #[test]
    fn human_units() {
        assert_eq!(human_time(12.3), "12.3 ns");
        assert_eq!(human_time(12_300.0), "12.300 µs");
        assert_eq!(human_time(12_300_000.0), "12.300 ms");
        assert_eq!(human_time(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn key_bits_scale() {
        use netlist::generate::BenchmarkId;
        assert_eq!(key_bits(BenchmarkId::S38417, 1.0), 256);
        assert!(key_bits(BenchmarkId::S38417, 0.05) >= 12);
        assert_eq!(control_width(BenchmarkId::B18), 5);
        assert_eq!(control_width(BenchmarkId::S38417), 3);
    }

    /// The file `write_results` produces parses back to the written value,
    /// escapes and floats included.
    #[test]
    fn write_results_roundtrip() {
        let doc = json_object! {
            x: 7u32,
            values: vec![1.5f64, 2.0, 3.25],
            nested: json_object! { deep: "yes\nwith\tescapes\"" },
        };
        let path = std::env::temp_dir().join(format!("orap-bench-{}.json", std::process::id()));
        write_json(&path, &doc).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"x\": 7"));
        assert_eq!(json::parse(text.trim_end()).unwrap(), doc);
    }
}
