//! The repository benchmark: four workloads that load different layers of
//! the OraP reproduction, measured end to end and per layer.
//!
//! - `sat-hard` — solver-bound SAT attacks plus exact verification on one
//!   b19-profile circuit ([`sat_hard`]);
//! - `attack-mix` — many short lock→attack→verify sessions across schemes
//!   and engines, where fixed per-session costs dominate ([`attack_mix`]);
//! - `serve-mixed` — the same session shape through the `serve` daemon,
//!   mostly cache hits with one cold build in eight ([`serve_mixed`]);
//! - `defend` — the paper's defender pipeline: OraP protection, Hamming
//!   distance, resynthesis and ATPG over the eight Table-I circuits
//!   ([`defend`]).
//!
//! Every workload runs closed loops of *sessions* (a caller waits for each
//! session before starting the next) in the rounds of [`load`], checks
//! each session's result, and returns a [`Report`]. The benchmark calls
//! only public functions of the repository crates and times them from
//! outside; the spans in [`trace`] are recorded by this crate around those
//! calls, and [`heap`] counts the live heap.

#![warn(missing_docs)]

pub mod attack_mix;
pub mod defend;
pub mod heap;
pub mod load;
pub mod sat_hard;
pub mod serve_mixed;
pub mod session;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub use load::Sessions;

#[global_allocator]
static ALLOC: heap::CountingAlloc = heap::CountingAlloc;

use load::{drive, Driven};
use trace::{LayerTimes, Span, Tracer};

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Solver-bound attacks on one b19-profile circuit.
    SatHard,
    /// Short sessions over many schemes and engines.
    AttackMix,
    /// Sessions through the `serve` daemon.
    ServeMixed,
    /// The OraP defender pipeline.
    Defend,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::SatHard,
        Workload::AttackMix,
        Workload::ServeMixed,
        Workload::Defend,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SatHard => "sat-hard",
            Workload::AttackMix => "attack-mix",
            Workload::ServeMixed => "serve-mixed",
            Workload::Defend => "defend",
        }
    }

    /// Sessions per latency sample: a `defend` sample is one suite of the
    /// eight Table-I circuits, each circuit its own session.
    pub fn group(self) -> u64 {
        match self {
            Workload::Defend => netlist::generate::BenchmarkId::ALL.len() as u64,
            _ => 1,
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. The command line always uses [`Size::Standard`]; the smoke
/// test uses [`Size::Tiny`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the published numbers come from.
    Standard,
    /// Sizes small enough for a debug-build test.
    Tiny,
}

/// How long a run lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// About this long in all: the first round starts sessions for a
    /// [`load::ROUNDS`]-th of it (a session in progress still completes).
    After(Duration),
    /// The first round runs this many latency samples: sessions, or groups
    /// of them ([`Workload::group`]).
    Sessions(u64),
}

/// How to run one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Derives every circuit, lock and pattern seed of the run.
    pub seed: u64,
    /// Input sizes.
    pub size: Size,
    /// When to stop.
    pub stop: Stop,
    /// Trace every session.
    pub trace: bool,
    /// Host cores; caps the load-generating threads.
    pub nproc: usize,
}

/// Deterministic work counters, summed over sessions.
pub type Counts = BTreeMap<&'static str, u64>;

/// Adds `v` to counter `name`.
pub(crate) fn add(counts: &mut Counts, name: &'static str, v: u64) {
    *counts.entry(name).or_default() += v;
}

/// Derives an independent seed for item `index` of input stream `stream`.
pub(crate) fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mixed = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    netlist::rng::SplitMix64::new(mixed).next_u64()
}

/// Input stream tags for [`derive`].
pub(crate) mod stream {
    pub const CIRCUIT: u64 = 1;
    pub const LOCK: u64 = 2;
    pub const PICK: u64 = 3;
    pub const PATTERNS: u64 = 4;
}

/// Differences of the global `exec` pool's counters over the timed window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecDelta {
    /// Worker time spent executing tasks.
    pub busy_ns: u64,
    /// Worker time spent waiting for tasks.
    pub idle_ns: u64,
    /// Chunks taken beyond a worker's fair share.
    pub stolen: u64,
}

impl ExecDelta {
    fn totals() -> ExecDelta {
        let stats = exec::global().stats();
        stats
            .stages
            .iter()
            .fold(ExecDelta::default(), |a, s| ExecDelta {
                busy_ns: a.busy_ns + s.busy_ns,
                idle_ns: a.idle_ns + s.idle_ns,
                stolen: a.stolen + s.stolen,
            })
    }

    fn since(self, earlier: ExecDelta) -> ExecDelta {
        ExecDelta {
            busy_ns: self.busy_ns.saturating_sub(earlier.busy_ns),
            idle_ns: self.idle_ns.saturating_sub(earlier.idle_ns),
            stolen: self.stolen.saturating_sub(earlier.stolen),
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Duration of each set-up repetition.
    pub setup: Vec<Duration>,
    /// Load threads, each a closed loop.
    pub threads: usize,
    /// Sessions per latency sample (the circuits of a `defend` suite).
    pub group: u64,
    /// Sessions per round.
    pub batch: u64,
    /// Wall time of each round.
    pub round_walls: Vec<Duration>,
    /// Session outcomes and counters.
    pub sessions: Sessions,
    /// `exec` pool activity during the timed window.
    pub exec: ExecDelta,
    /// Daemon-side time totals over the timed window (`serve-mixed` only):
    /// `serve.busy_ns`, `serve.queue_wait_ns`, `serve.cache_build_ns`.
    pub daemon_ns: BTreeMap<&'static str, u64>,
    /// Recorded spans, one vector per load-generating thread.
    pub spans: Vec<Vec<Span>>,
    /// Measured cost of recording one span (traced runs only).
    pub span_cost_ns: f64,
}

impl Report {
    fn new(workload: Workload, setup: Vec<Duration>, driven: Driven, exec: ExecDelta) -> Report {
        Report {
            workload,
            setup,
            threads: driven.threads,
            group: driven.group,
            batch: driven.batch,
            round_walls: driven.round_walls,
            sessions: driven.sessions,
            exec,
            daemon_ns: BTreeMap::new(),
            spans: driven.spans,
            span_cost_ns: 0.0,
        }
    }

    /// Whether every session passed its checks.
    pub fn correct(&self) -> bool {
        self.sessions.failures.is_empty()
    }

    /// Span times aggregated over every thread.
    pub fn layer_times(&self) -> LayerTimes {
        let mut all = LayerTimes::default();
        for spans in &self.spans {
            all.merge(&LayerTimes::from_spans(spans));
        }
        all
    }

    /// Median set-up time.
    pub fn setup_s(&self) -> f64 {
        let mut s: Vec<f64> = self.setup.iter().map(Duration::as_secs_f64).collect();
        s.sort_by(f64::total_cmp);
        s.get(s.len() / 2).copied().unwrap_or(0.0)
    }

    /// Latency samples: each session's fastest round, or for grouped
    /// sessions each complete group's sum of them.
    pub fn latencies_ns(&self) -> Vec<u64> {
        let best = &self.sessions.best_ns;
        if self.group == 1 {
            return best.values().copied().collect();
        }
        (0..self.batch / self.group)
            .filter_map(|g| {
                (g * self.group..(g + 1) * self.group)
                    .map(|id| best.get(&id))
                    .sum::<Option<u64>>()
            })
            .collect()
    }

    /// Quantile `q` (nearest rank) of the latency samples.
    pub fn latency_ms(&self, q: f64) -> f64 {
        quantile_ms(self.latencies_ns(), q)
    }

    /// Closed-loop throughput at the measured latencies: load threads ÷
    /// mean latency.
    pub fn sessions_per_s(&self) -> f64 {
        let lat = self.latencies_ns();
        let total_s = lat.iter().sum::<u64>() as f64 / 1e9;
        if total_s > 0.0 {
            self.threads as f64 * lat.len() as f64 / total_s
        } else {
            0.0
        }
    }

    /// Median over session executions of the peak live heap above the
    /// live size at the execution's start.
    pub fn session_heap_mib(&self) -> f64 {
        let mut peaks = self.sessions.heap_peaks.clone();
        peaks.sort_unstable();
        peaks
            .get(peaks.len() / 2)
            .map_or(0.0, |&b| b as f64 / (1024.0 * 1024.0))
    }

    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let values = [
            self.setup_s(),
            self.sessions_per_s(),
            self.latency_ms(0.5),
            self.latency_ms(0.9),
            self.session_heap_mib(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    }

    /// The per-layer metrics, in [`PER_LAYER`] order. Counts are means per
    /// session execution; shares are of the traced session wall.
    pub fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        let layers = self.layer_times();
        let attempted = self.sessions.attempted.max(1) as f64;
        let count = |name: &str| self.sessions.counts.get(name).copied().unwrap_or(0);
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let spans: u64 = layers.calls.values().sum();
        let overhead_pct =
            100.0 * spans as f64 * self.span_cost_ns / layers.session_ns.max(1) as f64;
        let daemon = |name: &str| self.daemon_ns.get(name).copied().unwrap_or(0);
        let hits = count("serve.circuit_cache.hits") + count("serve.locked_cache.hits");
        let builds = count("serve.circuit_cache.builds") + count("serve.locked_cache.builds");
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.accounted_pct" => 100.0 - layers.self_pct("bench"),
                    "trace.overhead_pct" => overhead_pct,
                    "exec.busy_pct" => {
                        trace::percent(self.exec.busy_ns, self.exec.busy_ns + self.exec.idle_ns)
                    }
                    "exec.stolen" => self.exec.stolen as f64 / attempted,
                    "serve.lock_pct" => layers.total_pct("serve.lock"),
                    "serve.attack_pct" => layers.total_pct("serve.attack"),
                    "serve.verify_pct" => layers.total_pct("serve.verify"),
                    "serve.submit_pct" => layers.total_pct("serve.submit"),
                    "serve.queue_wait_pct" => trace::percent(
                        daemon("serve.queue_wait_ns"),
                        daemon("serve.queue_wait_ns") + daemon("serve.busy_ns"),
                    ),
                    "serve.cache_build_pct" => {
                        trace::percent(daemon("serve.cache_build_ns"), daemon("serve.busy_ns"))
                    }
                    "serve.cache_hit_ratio" => ratio(hits, hits + builds),
                    _ => match name.strip_suffix(".self_pct") {
                        Some(layer) => layers.self_pct(layer),
                        None => match session::exact_key_counters(name) {
                            Some((exact, sessions)) => ratio(count(exact), count(sessions)),
                            None => count(name) as f64 / attempted,
                        },
                    },
                };
                (name, v, unit)
            })
            .collect()
    }
}

/// Nearest-rank quantile `q` of nanosecond samples, in milliseconds (0 for
/// no samples).
pub fn quantile_ms(mut ns: Vec<u64>, q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64 / 1e6
}

/// End-to-end metric names and units (`BENCHMARK.json` `end_to_end`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("session_p50_ms", "ms"),
    ("session_p90_ms", "ms"),
    ("session_heap_mib", "MiB"),
];

/// The layers whose self time is reported as `<layer>.self_pct`. `bench`
/// is the benchmark's own code inside a session (session-root self time).
pub const LAYERS: [&str; 10] = [
    "bench", "netlist", "locking", "sim", "orap", "attacks", "verify", "synth", "atpg", "serve",
];

/// Per-layer metric names and units (`BENCHMARK.json` `per_layer`).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("bench.self_pct", "%"),
    ("netlist.self_pct", "%"),
    ("locking.self_pct", "%"),
    ("sim.self_pct", "%"),
    ("orap.self_pct", "%"),
    ("attacks.self_pct", "%"),
    ("verify.self_pct", "%"),
    ("synth.self_pct", "%"),
    ("atpg.self_pct", "%"),
    ("serve.self_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("locking.locks", "count"),
    ("sim.oracle_builds", "count"),
    ("sim.oracle_queries", "count"),
    ("sim.hd_calls", "count"),
    ("orap.protects", "count"),
    ("attacks.steps", "count"),
    ("attacks.iterations", "count"),
    ("attacks.oracle_queries", "count"),
    ("attacks.clauses", "count"),
    ("attacks.vars", "count"),
    ("attacks.exact_key_ratio.appsat", "ratio"),
    ("attacks.exact_key_ratio.hill_climbing", "ratio"),
    ("attacks.exact_key_ratio.sensitization", "ratio"),
    ("verify.calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.decisions", "count"),
    ("sat.restarts", "count"),
    ("sat.learned_clauses", "count"),
    ("sat.learned_literals_post", "count"),
    ("sat.db_reductions", "count"),
    ("sat.inprocessings", "count"),
    ("sat.eliminated_vars", "count"),
    ("synth.area_orig", "count"),
    ("synth.area_protected", "count"),
    ("atpg.faults", "count"),
    ("atpg.detected", "count"),
    ("atpg.red_abrt", "count"),
    ("exec.busy_pct", "%"),
    ("exec.stolen", "count"),
    ("serve.lock_pct", "%"),
    ("serve.attack_pct", "%"),
    ("serve.verify_pct", "%"),
    ("serve.submit_pct", "%"),
    ("serve.queue_wait_pct", "%"),
    ("serve.cache_build_pct", "%"),
    ("serve.circuit_cache.hits", "count"),
    ("serve.circuit_cache.builds", "count"),
    ("serve.circuit_cache.coalesced", "count"),
    ("serve.locked_cache.hits", "count"),
    ("serve.locked_cache.builds", "count"),
    ("serve.cache_hit_ratio", "ratio"),
];

/// Runs one workload.
///
/// # Errors
///
/// A set-up failure (for example, the daemon cannot bind). Session failures
/// are not errors: they are counted in the report.
pub fn run(workload: Workload, cfg: &RunConfig, epoch: Instant) -> Result<Report, String> {
    let mut report = match workload {
        Workload::SatHard => sat_hard::run(cfg, epoch),
        Workload::AttackMix => attack_mix::run(cfg, epoch),
        Workload::ServeMixed => serve_mixed::run(cfg, epoch),
        Workload::Defend => defend::run(cfg, epoch),
    }?;
    if cfg.trace {
        report.span_cost_ns = trace::span_cost_ns();
    }
    Ok(report)
}

/// Runs a single-caller workload's rounds and assembles its report. `op`
/// runs one session: `(tracer, session id, counters)`.
pub(crate) fn single_caller_report(
    workload: Workload,
    cfg: &RunConfig,
    epoch: Instant,
    setup: Vec<Duration>,
    op: impl Fn(&Tracer, u64, &mut Counts) -> Result<(), String> + Sync,
) -> Report {
    let before = ExecDelta::totals();
    let driven = drive(
        cfg,
        1,
        workload.group(),
        epoch,
        || Ok(()),
        |_, tr, id, _, counts| op(tr, id, counts),
    );
    Report::new(workload, setup, driven, ExecDelta::totals().since(before))
}
