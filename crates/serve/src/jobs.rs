//! Job kinds and their adapters over the shared compiled artifacts.
//!
//! Every job is parsed from the `submit` op's `job` object (schemas in
//! DESIGN.md §10.3), validated *before* queueing (schema errors are
//! protocol errors, not failed jobs), and executed against [`ServeState`]:
//! the two content-hashed caches. Job adapters checkpoint between pipeline
//! stages; `attack` and `verify` jobs go further and hand the [`JobCtx`]'s
//! cancel flag and deadline to an `AttackCtl`, so cancellation and timeouts
//! fire per engine step — and, through the solver's interrupt hook, even
//! mid-solve. Engine progress events are rendered into the job's progress
//! log for the `subscribe` op.
//!
//! Security model, mirroring the paper: the daemon holds each lock's
//! correct key server-side and **never returns it**. Clients get the
//! artifact id; `attack` jobs exercise the oracle path against the stored
//! key, and `verify` jobs answer exact-equivalence queries about candidate
//! keys — exactly the interface an attacker-facing oracle exposes.

use std::sync::Arc;

use atpg::AtpgConfig;
use attacks::engine::{self, AttackCtl, AttackEngine, Interrupt, ProgressEvent};
use attacks::{
    appsat, double_dip, dyn_unlock, hill_climbing, sat, sensitization, CombOracle, FailureReason,
};
use locking::LockedCircuit;
use netlist::{Circuit, CompiledCircuit};
use orap_bench::json::Json;
use orap_bench::json_object;

use crate::cache::ArtifactCache;
use crate::hash::{fnv1a64, fnv1a64_extend, hex16};
use crate::proto::{self, get_str, get_u64};
use crate::queue::{JobCtx, JobError};

/// A parsed-and-compiled source circuit, shared across jobs via the cache.
pub struct CircuitArtifact {
    /// Canonical `.bench` text (re-emitted, so the hash is formatting
    /// independent).
    pub bench: String,
    /// The parsed circuit.
    pub circuit: Circuit,
    /// The shared compiled engine artifact.
    pub compiled: Arc<CompiledCircuit>,
    /// Artifact id (`hex16(fnv1a64(bench))`).
    pub id: String,
}

/// A locked circuit plus its compiled artifact, shared across jobs.
pub struct LockedArtifact {
    /// The locked circuit with its (server-private) correct key.
    pub locked: LockedCircuit,
    /// Compiled artifact of `locked.circuit`.
    pub compiled: Arc<CompiledCircuit>,
    /// Source-circuit artifact id this lock was derived from.
    pub source: String,
    /// This artifact's id.
    pub id: String,
    /// For `protect`-built artifacts: the unlock-schedule/hardware summary
    /// (so cache hits report the same numbers as the build). `None` for
    /// plain `lock` artifacts.
    pub schedule: Option<Json>,
}

/// Shared daemon state: the two artifact caches.
pub struct ServeState {
    /// Source circuits, keyed by canonical-bench content hash.
    pub circuits: ArtifactCache<CircuitArtifact>,
    /// Locked artifacts, keyed by `(source, scheme, key_bits, seed)` hash.
    pub locked: ArtifactCache<LockedArtifact>,
}

impl ServeState {
    /// Creates the state with the given cache capacities (0 = unbounded).
    pub fn new(circuit_capacity: usize, locked_capacity: usize) -> ServeState {
        ServeState {
            circuits: ArtifactCache::new(circuit_capacity),
            locked: ArtifactCache::new(locked_capacity),
        }
    }

    /// Parses + compiles `bench_text` through the circuit cache
    /// (single-flight per content hash).
    fn circuit_artifact(&self, bench_text: &str) -> Result<Arc<CircuitArtifact>, String> {
        // Parse outside the cache to canonicalize: the content hash must
        // not depend on client formatting (comments, whitespace, net-name
        // case). Parsing is cheap next to compilation.
        let circuit = netlist::bench::parse(bench_text).map_err(|e| format!("bad bench: {e}"))?;
        let bench = netlist::bench::write(&circuit);
        let id = hex16(fnv1a64(bench.as_bytes()));
        let id2 = id.clone();
        self.circuits.get_or_build(&id, move || {
            let compiled = CompiledCircuit::compile(&circuit)
                .map_err(|e| format!("compile failed: {e}"))?;
            Ok(CircuitArtifact {
                bench,
                circuit,
                compiled: Arc::new(compiled),
                id: id2,
            })
        })
    }
}

/// The locking schemes the `lock` job accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockScheme {
    /// Random XOR/XNOR key-gate insertion.
    Rll,
    /// Weighted logic locking (control width 3).
    Wll,
    /// Stripped-functionality logic locking (SFLL-HD).
    Sfll,
    /// K-Gate multi-key input encoding (one key word per input class).
    KGate,
    /// Dynamic scan obfuscation; the artifact is the *unrolled* bounded
    /// scan session (load + capture + unload) with the LFSR seed as its
    /// key, i.e. exactly what DynUnlock attacks.
    ScanObf,
}

impl LockScheme {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            LockScheme::Rll => "rll",
            LockScheme::Wll => "wll",
            LockScheme::Sfll => "sfll",
            LockScheme::KGate => "kgate",
            LockScheme::ScanObf => "scan_obf",
        }
    }

    /// Parses the wire name.
    pub fn from_wire(s: &str) -> Option<LockScheme> {
        match s {
            "rll" => Some(LockScheme::Rll),
            "wll" => Some(LockScheme::Wll),
            "sfll" => Some(LockScheme::Sfll),
            "kgate" => Some(LockScheme::KGate),
            "scan_obf" => Some(LockScheme::ScanObf),
            _ => None,
        }
    }
}

/// The attacks the `attack` job runs — one wire name per engine behind
/// [`attacks::engine::AttackEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// The SAT attack (DIP elimination).
    Sat,
    /// AppSAT (approximate, early-exit on settlement).
    AppSat,
    /// Double-DIP (2-discriminating inputs, SAT fallback).
    DoubleDip,
    /// Hill climbing against sampled oracle responses.
    Hill,
    /// Key sensitization (per-bit miter probing).
    Sensitization,
    /// DynUnlock: the SAT loop over unrolled scan sessions (pair with
    /// `scan_obf` artifacts).
    DynUnlock,
}

impl AttackKind {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            AttackKind::Sat => "sat",
            AttackKind::AppSat => "appsat",
            AttackKind::DoubleDip => "double_dip",
            AttackKind::Hill => "hill",
            AttackKind::Sensitization => "sensitization",
            AttackKind::DynUnlock => "dyn_unlock",
        }
    }

    /// Parses the wire name.
    pub fn from_wire(s: &str) -> Option<AttackKind> {
        match s {
            "sat" => Some(AttackKind::Sat),
            "appsat" => Some(AttackKind::AppSat),
            "double_dip" => Some(AttackKind::DoubleDip),
            "hill" => Some(AttackKind::Hill),
            "sensitization" => Some(AttackKind::Sensitization),
            "dyn_unlock" => Some(AttackKind::DynUnlock),
            _ => None,
        }
    }
}

/// A validated job specification (the `job` object of a `submit`).
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Lock a circuit; produces a locked artifact (the key stays
    /// server-side).
    Lock {
        /// `.bench` text of the circuit to lock.
        bench: String,
        /// Scheme to apply.
        scheme: LockScheme,
        /// Key width.
        key_bits: usize,
        /// Scheme PRNG seed.
        seed: u64,
        /// SFLL-HD protected-cube Hamming distance (ignored by `rll`/`wll`).
        hamming_distance: usize,
        /// K-Gate input-class count (ignored by every other scheme; the
        /// per-class word width is `key_bits / classes`).
        classes: usize,
    },
    /// Run an oracle-guided attack against a locked artifact.
    Attack {
        /// Locked-artifact id (from a `lock` result).
        target: String,
        /// Which attack.
        attack: AttackKind,
        /// Iteration cap (DIPs for `sat`/`appsat`/`double_dip`, restarts
        /// for `hill`, probes per bit for `sensitization`); 0 = the
        /// attack's default.
        max_iterations: usize,
        /// Oracle-query budget enforced at the oracle boundary; 0 =
        /// unlimited.
        query_budget: u64,
    },
    /// Apply the full OraP protection (WLL + LFSR key register + unlock
    /// schedule) and expose the protected netlist as a locked artifact.
    Protect {
        /// `.bench` text of the design to protect.
        bench: String,
        /// WLL key width.
        key_bits: usize,
        /// Scheme variant (`basic` requires no flip-flops; `modified`
        /// needs a sequential design).
        variant: orap::OrapVariant,
        /// Designer-side PRNG seed.
        seed: u64,
    },
    /// Exact SAT-miter equivalence check of a candidate key.
    Verify {
        /// Locked-artifact id.
        target: String,
        /// Candidate key, wire bitstring order.
        key: Vec<bool>,
    },
    /// Full stuck-at ATPG over a circuit.
    Atpg {
        /// `.bench` text of the circuit.
        bench: String,
        /// Random patterns before PODEM (0 = default).
        random_patterns: usize,
        /// PODEM backtrack limit (0 = default).
        backtrack_limit: usize,
    },
    /// Diagnostic no-op that sleeps cancellably — the knob load tests and
    /// the failure-path tests use to occupy workers deterministically.
    Sleep {
        /// Milliseconds to sleep.
        ms: u64,
    },
}

impl JobSpec {
    /// Wire name of the job kind.
    pub fn kind(&self) -> &'static str {
        match self {
            JobSpec::Lock { .. } => "lock",
            JobSpec::Attack { .. } => "attack",
            JobSpec::Protect { .. } => "protect",
            JobSpec::Verify { .. } => "verify",
            JobSpec::Atpg { .. } => "atpg",
            JobSpec::Sleep { .. } => "sleep",
        }
    }

    /// Parses and validates a `job` object. Errors are schema violations
    /// (protocol error 102), phrased for the client.
    pub fn parse(job: &Json) -> Result<JobSpec, String> {
        let kind = get_str(job, "kind").ok_or("job.kind must be a string")?;
        match kind {
            "lock" => {
                let bench = get_str(job, "bench").ok_or("lock.bench must be a string")?;
                let scheme_s = get_str(job, "scheme").ok_or("lock.scheme must be a string")?;
                let scheme = LockScheme::from_wire(scheme_s)
                    .ok_or_else(|| format!("unknown scheme: {scheme_s}"))?;
                let key_bits = get_u64(job, "key_bits").ok_or("lock.key_bits must be a number")?;
                if key_bits == 0 || key_bits > 4096 {
                    return Err("lock.key_bits must be in 1..=4096".to_string());
                }
                let seed = get_u64(job, "seed").unwrap_or(1);
                let hamming_distance = get_u64(job, "hamming_distance").unwrap_or(1);
                if hamming_distance > key_bits {
                    return Err("lock.hamming_distance must be <= key_bits".to_string());
                }
                let classes = get_u64(job, "classes").unwrap_or(4);
                if scheme == LockScheme::KGate {
                    if !(2..=64).contains(&classes) || !classes.is_power_of_two() {
                        return Err(
                            "lock.classes must be a power of two in 2..=64".to_string()
                        );
                    }
                    if key_bits % classes != 0 {
                        return Err(
                            "lock.key_bits must be a multiple of lock.classes".to_string()
                        );
                    }
                }
                Ok(JobSpec::Lock {
                    bench: bench.to_string(),
                    scheme,
                    key_bits: key_bits as usize,
                    seed,
                    hamming_distance: hamming_distance as usize,
                    classes: classes as usize,
                })
            }
            "attack" => {
                let target = get_str(job, "target").ok_or("attack.target must be a string")?;
                let attack_s = get_str(job, "attack").ok_or("attack.attack must be a string")?;
                let attack = AttackKind::from_wire(attack_s)
                    .ok_or_else(|| format!("unknown attack: {attack_s}"))?;
                Ok(JobSpec::Attack {
                    target: target.to_string(),
                    attack,
                    max_iterations: get_u64(job, "max_iterations").unwrap_or(0) as usize,
                    query_budget: get_u64(job, "query_budget").unwrap_or(0),
                })
            }
            "protect" => {
                let bench = get_str(job, "bench").ok_or("protect.bench must be a string")?;
                let key_bits =
                    get_u64(job, "key_bits").ok_or("protect.key_bits must be a number")?;
                if key_bits == 0 || key_bits > 4096 {
                    return Err("protect.key_bits must be in 1..=4096".to_string());
                }
                let variant = match get_str(job, "variant").unwrap_or("basic") {
                    "basic" => orap::OrapVariant::Basic,
                    "modified" => orap::OrapVariant::Modified,
                    other => return Err(format!("unknown protect variant: {other}")),
                };
                Ok(JobSpec::Protect {
                    bench: bench.to_string(),
                    key_bits: key_bits as usize,
                    variant,
                    seed: get_u64(job, "seed").unwrap_or(1),
                })
            }
            "verify" => {
                let target = get_str(job, "target").ok_or("verify.target must be a string")?;
                let key_s = get_str(job, "key").ok_or("verify.key must be a string")?;
                let key = proto::key_from_bits(key_s)
                    .ok_or("verify.key must be a bitstring of 0/1")?;
                Ok(JobSpec::Verify {
                    target: target.to_string(),
                    key,
                })
            }
            "atpg" => {
                let bench = get_str(job, "bench").ok_or("atpg.bench must be a string")?;
                Ok(JobSpec::Atpg {
                    bench: bench.to_string(),
                    random_patterns: get_u64(job, "random_patterns").unwrap_or(0) as usize,
                    backtrack_limit: get_u64(job, "backtrack_limit").unwrap_or(0) as usize,
                })
            }
            "sleep" => {
                let ms = get_u64(job, "ms").ok_or("sleep.ms must be a number")?;
                Ok(JobSpec::Sleep { ms })
            }
            other => Err(format!("unknown job kind: {other}")),
        }
    }
}

/// Renders one engine progress event as the compact-JSON line the
/// `subscribe` op streams. Stage names are static identifiers from the
/// engine layer, so direct embedding needs no escaping.
fn render_progress(e: &ProgressEvent) -> String {
    match e {
        ProgressEvent::Stage { name } => {
            format!("{{\"type\":\"stage\",\"name\":\"{name}\"}}")
        }
        ProgressEvent::Milestone(m) => format!(
            "{{\"type\":\"milestone\",\"stage\":\"{}\",\"iterations\":{},\
             \"dips_eliminated\":{},\"clauses_learned\":{},\"oracle_queries\":{}}}",
            m.stage, m.iterations, m.dips_eliminated, m.clauses_learned, m.oracle_queries
        ),
    }
}

/// Executes one job. The returned [`Json`] is the `result` object of the
/// `result`/`status` ops — free of wall-clock values, so results are
/// byte-deterministic (the golden-transcript property).
///
/// # Errors
///
/// [`JobError::Failed`] for semantic failures (unknown artifact, engine
/// errors), [`JobError::Cancelled`]/[`JobError::TimedOut`] when a
/// checkpoint observes an interrupt.
pub fn run_job(state: &ServeState, ctx: &JobCtx, spec: &JobSpec) -> Result<Json, JobError> {
    match spec {
        JobSpec::Lock {
            bench,
            scheme,
            key_bits,
            seed,
            hamming_distance,
            classes,
        } => {
            ctx.set_stage("compile");
            let src = state
                .circuit_artifact(bench)
                .map_err(JobError::Failed)?;
            ctx.checkpoint()?;
            ctx.set_stage("lock");
            let mut h = fnv1a64(src.id.as_bytes());
            h = fnv1a64_extend(h, scheme.as_str().as_bytes());
            h = fnv1a64_extend(h, &(*key_bits as u64).to_le_bytes());
            h = fnv1a64_extend(h, &seed.to_le_bytes());
            // Folded in only where it matters, so rll/wll artifact ids are
            // stable across the sfll addition.
            if *scheme == LockScheme::Sfll {
                h = fnv1a64_extend(h, &(*hamming_distance as u64).to_le_bytes());
            }
            if *scheme == LockScheme::KGate {
                h = fnv1a64_extend(h, &(*classes as u64).to_le_bytes());
            }
            let id = hex16(h);
            let key = id.clone();
            let scheme = *scheme;
            let key_bits = *key_bits;
            let seed = *seed;
            let hamming_distance = *hamming_distance;
            let classes = *classes;
            let src2 = Arc::clone(&src);
            let art = state
                .locked
                .get_or_build(&id, move || {
                    let locked = match scheme {
                        LockScheme::Rll => locking::random::lock(
                            &src2.circuit,
                            &locking::random::RllConfig {
                                key_bits,
                                seed,
                            },
                        ),
                        LockScheme::Wll => locking::weighted::lock(
                            &src2.circuit,
                            &locking::weighted::WllConfig {
                                key_bits,
                                control_width: 3,
                                seed,
                            },
                        ),
                        LockScheme::Sfll => locking::sfll::sfll_hd(
                            &src2.circuit,
                            &locking::sfll::SfllConfig {
                                key_bits,
                                hamming_distance,
                                seed,
                            },
                        ),
                        LockScheme::KGate => locking::kgate::lock(
                            &src2.circuit,
                            &locking::kgate::KGateConfig {
                                classes,
                                word_bits: key_bits / classes,
                                seed,
                            },
                        ),
                        // The stored artifact is the unrolled bounded scan
                        // session: a combinational circuit whose key inputs
                        // are the LFSR seed, attackable by any engine.
                        LockScheme::ScanObf => locking::scan_obfuscation::lock(
                            &src2.circuit,
                            &locking::scan_obfuscation::ScanObfConfig::balanced(key_bits, seed),
                        )
                        .and_then(|sol| {
                            sol.unroll(&locking::scan_obfuscation::UnrollOptions::default())
                                .map(|u| u.locked)
                        }),
                    }
                    .map_err(|e| format!("lock failed: {e}"))?;
                    let compiled = CompiledCircuit::compile(&locked.circuit)
                        .map_err(|e| format!("compile failed: {e}"))?;
                    Ok(LockedArtifact {
                        locked,
                        compiled: Arc::new(compiled),
                        source: src2.id.clone(),
                        id: key,
                        schedule: None,
                    })
                })
                .map_err(JobError::Failed)?;
            Ok(json_object! {
                artifact: art.id,
                source: art.source,
                scheme: scheme.as_str(),
                key_bits: art.locked.key_bits(),
                gates: art.locked.circuit.num_gates(),
            })
        }
        JobSpec::Attack {
            target,
            attack,
            max_iterations,
            query_budget,
        } => {
            ctx.set_stage("oracle");
            let art = state
                .locked
                .get(target)
                .ok_or_else(|| JobError::Failed(format!("unknown artifact: {target}")))?;
            let mut oracle =
                CombOracle::from_locked_compiled(&art.locked, Arc::clone(&art.compiled));
            ctx.checkpoint()?;
            ctx.set_stage("attack");
            // One engine per wire name; `max_iterations` maps onto each
            // engine's own notion of an iteration.
            let mi = *max_iterations;
            let eng: Box<dyn AttackEngine> = match attack {
                AttackKind::Sat => {
                    let mut config = sat::SatAttackConfig::default();
                    if mi > 0 {
                        config.max_iterations = mi;
                    }
                    Box::new(sat::SatEngine { config })
                }
                AttackKind::AppSat => {
                    let mut config = appsat::AppSatConfig::default();
                    if mi > 0 {
                        config.max_iterations = mi;
                    }
                    Box::new(appsat::AppSatEngine { config })
                }
                AttackKind::DoubleDip => {
                    let mut config = double_dip::DoubleDipConfig::default();
                    if mi > 0 {
                        config.max_iterations = mi;
                    }
                    Box::new(double_dip::DoubleDipEngine { config })
                }
                AttackKind::Hill => {
                    let mut config = hill_climbing::HillClimbConfig::default();
                    if mi > 0 {
                        config.restarts = mi;
                    }
                    Box::new(hill_climbing::HillClimbEngine { config })
                }
                AttackKind::Sensitization => {
                    let mut config = sensitization::SensitizationConfig::default();
                    if mi > 0 {
                        config.probes_per_bit = mi;
                    }
                    Box::new(sensitization::SensitizationEngine { config })
                }
                AttackKind::DynUnlock => {
                    let mut config = sat::SatAttackConfig::default();
                    if mi > 0 {
                        config.max_iterations = mi;
                    }
                    Box::new(dyn_unlock::DynUnlockEngine { config })
                }
            };
            // The engine's control block observes the *same* cancel flag
            // the `cancel` op raises and the job's submit-time deadline, so
            // interrupts land mid-solve instead of at stage boundaries.
            let progress = ctx.progress_log();
            let mut ctl = AttackCtl::new()
                .with_cancel(ctx.cancel_flag())
                .with_deadline(ctx.deadline())
                .with_query_budget(if *query_budget > 0 {
                    Some(*query_budget)
                } else {
                    None
                })
                .with_progress(Box::new(move |e| progress.push(render_progress(e))));
            let outcome = engine::run(eng.as_ref(), &art.locked, &mut oracle, &mut ctl);
            match outcome.failure {
                Some(FailureReason::Cancelled) => return Err(JobError::Cancelled),
                Some(FailureReason::TimedOut) => return Err(JobError::TimedOut),
                _ => {}
            }
            Ok(json_object! {
                succeeded: outcome.succeeded(),
                key: outcome.key.as_deref().map(proto::key_to_bits),
                key_bits: art.locked.key_bits(),
                iterations: outcome.iterations,
                oracle_queries: outcome.oracle_queries,
                failure: outcome.failure.map(|f| f.to_string()),
                solver: outcome.telemetry.solver,
            })
        }
        JobSpec::Protect {
            bench,
            key_bits,
            variant,
            seed,
        } => {
            ctx.set_stage("compile");
            let src = state
                .circuit_artifact(bench)
                .map_err(JobError::Failed)?;
            ctx.checkpoint()?;
            ctx.set_stage("protect");
            let variant_str = match variant {
                orap::OrapVariant::Basic => "basic",
                orap::OrapVariant::Modified => "modified",
            };
            let mut h = fnv1a64(src.id.as_bytes());
            h = fnv1a64_extend(h, b"orap");
            h = fnv1a64_extend(h, variant_str.as_bytes());
            h = fnv1a64_extend(h, &(*key_bits as u64).to_le_bytes());
            h = fnv1a64_extend(h, &seed.to_le_bytes());
            let id = hex16(h);
            let key = id.clone();
            let key_bits = *key_bits;
            let variant = *variant;
            let seed = *seed;
            let src2 = Arc::clone(&src);
            let art = state
                .locked
                .get_or_build(&id, move || {
                    let protected = orap::protect(
                        &src2.circuit,
                        &locking::weighted::WllConfig {
                            key_bits,
                            control_width: 3,
                            seed,
                        },
                        &orap::OrapConfig {
                            variant,
                            seed,
                            ..orap::OrapConfig::default()
                        },
                    )
                    .map_err(|e| format!("protect failed: {e}"))?;
                    let compiled = CompiledCircuit::compile(&protected.locked.circuit)
                        .map_err(|e| format!("compile failed: {e}"))?;
                    let schedule = json_object! {
                        unlock_cycles: protected.unlock_cycles(),
                        memory_points: protected.memory_points.len(),
                        response_points: protected.response_points.len(),
                        hardware_gates: protected.hardware.gates(),
                    };
                    Ok(LockedArtifact {
                        locked: protected.locked,
                        compiled: Arc::new(compiled),
                        source: src2.id.clone(),
                        id: key,
                        schedule: Some(schedule),
                    })
                })
                .map_err(JobError::Failed)?;
            ctx.checkpoint()?;
            Ok(json_object! {
                artifact: art.id,
                source: art.source,
                scheme: "orap",
                variant: variant_str,
                key_bits: art.locked.key_bits(),
                gates: art.locked.circuit.num_gates(),
                schedule: art.schedule.clone(),
            })
        }
        JobSpec::Verify { target, key } => {
            ctx.set_stage("verify");
            let art = state
                .locked
                .get(target)
                .ok_or_else(|| JobError::Failed(format!("unknown artifact: {target}")))?;
            if key.len() != art.locked.key_bits() {
                return Err(JobError::Failed(format!(
                    "key width mismatch: got {}, artifact has {}",
                    key.len(),
                    art.locked.key_bits()
                )));
            }
            ctx.checkpoint()?;
            // The same interrupt sources as an attack job, so a long exact
            // verify honours `cancel` and `timeout_ms` mid-solve.
            let ctl = AttackCtl::new()
                .with_cancel(ctx.cancel_flag())
                .with_deadline(ctx.deadline());
            let cex = attacks::verify::keys_exact_counterexample_ctl(
                &art.locked,
                key,
                &art.locked.correct_key,
                &ctl,
            )
            .map_err(|i| match i {
                Interrupt::Cancelled => JobError::Cancelled,
                _ => JobError::TimedOut,
            })?;
            Ok(json_object! {
                exact: cex.is_none(),
                counterexample: cex.as_deref().map(proto::key_to_bits),
            })
        }
        JobSpec::Atpg {
            bench,
            random_patterns,
            backtrack_limit,
        } => {
            ctx.set_stage("compile");
            let src = state
                .circuit_artifact(bench)
                .map_err(JobError::Failed)?;
            ctx.checkpoint()?;
            ctx.set_stage("atpg");
            let mut cfg = AtpgConfig::default();
            if *random_patterns > 0 {
                cfg.random_patterns = *random_patterns;
            }
            if *backtrack_limit > 0 {
                cfg.backtrack_limit = *backtrack_limit;
            }
            let report = atpg::run_atpg_compiled(&src.circuit, Arc::clone(&src.compiled), &cfg)
                .map_err(|e| JobError::Failed(format!("atpg failed: {e}")))?;
            ctx.checkpoint()?;
            Ok(json_object! {
                total_faults: report.total_faults,
                detected: report.detected,
                coverage_percent: report.coverage_percent(),
                redundant: report.redundant,
                aborted: report.aborted,
                patterns: report.tests.len(),
            })
        }
        JobSpec::Sleep { ms } => {
            ctx.set_stage("sleep");
            ctx.sleep_cancellable(std::time::Duration::from_millis(*ms))?;
            Ok(json_object! { slept_ms: *ms })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_schema_violations() {
        let bad = [
            r#"{"kind":"nope"}"#,
            r#"{"kind":"lock","scheme":"rll","key_bits":4}"#,
            r#"{"kind":"lock","bench":"x","scheme":"xyz","key_bits":4}"#,
            r#"{"kind":"lock","bench":"x","scheme":"rll","key_bits":0}"#,
            r#"{"kind":"attack","target":"t","attack":"frob"}"#,
            r#"{"kind":"verify","target":"t","key":"10a1"}"#,
            r#"{"kind":"sleep"}"#,
            r#"{"no_kind":true}"#,
            r#"{"kind":"lock","bench":"x","scheme":"sfll","key_bits":4,"hamming_distance":9}"#,
            r#"{"kind":"lock","bench":"x","scheme":"kgate","key_bits":12,"classes":3}"#,
            r#"{"kind":"lock","bench":"x","scheme":"kgate","key_bits":5,"classes":4}"#,
            r#"{"kind":"lock","bench":"x","scheme":"kgate","key_bits":128,"classes":128}"#,
            r#"{"kind":"protect","bench":"x","key_bits":0}"#,
            r#"{"kind":"protect","bench":"x","key_bits":8,"variant":"turbo"}"#,
        ];
        for b in bad {
            let j = orap_bench::json::parse(b).unwrap();
            assert!(JobSpec::parse(&j).is_err(), "{b} must be rejected");
        }
    }

    #[test]
    fn parse_accepts_all_kinds() {
        let ok = [
            (r#"{"kind":"lock","bench":"INPUT(a)","scheme":"wll","key_bits":6,"seed":3}"#, "lock"),
            (r#"{"kind":"attack","target":"abc","attack":"sat"}"#, "attack"),
            (r#"{"kind":"attack","target":"abc","attack":"appsat","query_budget":64}"#, "attack"),
            (r#"{"kind":"attack","target":"abc","attack":"double_dip"}"#, "attack"),
            (r#"{"kind":"attack","target":"abc","attack":"sensitization"}"#, "attack"),
            (r#"{"kind":"lock","bench":"x","scheme":"sfll","key_bits":4,"hamming_distance":1}"#, "lock"),
            (r#"{"kind":"lock","bench":"x","scheme":"kgate","key_bits":12,"classes":4}"#, "lock"),
            (r#"{"kind":"lock","bench":"x","scheme":"scan_obf","key_bits":8,"seed":3}"#, "lock"),
            (r#"{"kind":"attack","target":"abc","attack":"dyn_unlock"}"#, "attack"),
            (r#"{"kind":"protect","bench":"x","key_bits":8,"variant":"basic"}"#, "protect"),
            (r#"{"kind":"verify","target":"abc","key":"0110"}"#, "verify"),
            (r#"{"kind":"atpg","bench":"INPUT(a)"}"#, "atpg"),
            (r#"{"kind":"sleep","ms":5}"#, "sleep"),
        ];
        for (text, kind) in ok {
            let j = orap_bench::json::parse(text).unwrap();
            assert_eq!(JobSpec::parse(&j).unwrap().kind(), kind);
        }
    }

    #[test]
    fn bench_hash_is_formatting_independent() {
        let state = ServeState::new(0, 0);
        let canonical = netlist::bench::write(&netlist::samples::c17());
        let noisy = format!("# a comment\n\n{canonical}\n# trailing\n");
        let a = state.circuit_artifact(&canonical).unwrap();
        let b = state.circuit_artifact(&noisy).unwrap();
        assert_eq!(a.id, b.id);
        let s = state.circuits.stats();
        assert_eq!((s.builds, s.hits), (1, 1), "second parse must hit");
    }
}
