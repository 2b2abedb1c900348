use crate::types::{Lit, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

// Inprocessing lives in child modules so it can reach the solver's private
// state without widening field visibility: `simplify.rs` holds root-level
// cleanup, subsumption/strengthening, bounded variable elimination and the
// elimination/restore machinery; `vivify.rs` holds clause vivification.
#[path = "simplify.rs"]
mod simplify;
#[path = "vivify.rs"]
mod vivify;

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

const UNDEF: i8 = 0;
const TRUE: i8 = 1;
const FALSE: i8 = -1;

/// The deadline is consulted only on conflicts where
/// `conflicts & DEADLINE_CHECK_MASK == 0`, keeping the `Instant::now()`
/// syscall off the per-conflict hot path (the interrupt *flag* is a plain
/// atomic load and is checked on every conflict).
pub const DEADLINE_CHECK_MASK: u64 = 63;

/// Arena offset of a clause's header word.
type ClauseRef = u32;
const REASON_NONE: ClauseRef = u32::MAX;

// Clauses live in one flat `Vec<u32>` arena so that propagation walks
// contiguous memory instead of chasing a `Vec<Lit>` heap pointer per
// clause. Layout per clause, starting at its `ClauseRef` offset:
//
//   [ header | lbd | activity (f32 bits) | lit 0 | lit 1 | ... ]
//
// The header packs the length with three flag bits. `lbd` is the
// literal-block distance: distinct decision levels in the clause at learn
// time, refreshed whenever the clause participates in conflict analysis;
// glue clauses (`lbd <= GLUE_LBD`) are never deleted.
const HDR: usize = 3;
const LEN_MASK: u32 = 0x0FFF_FFFF;
const FLAG_LEARNT: u32 = 1 << 28;
const FLAG_DELETED: u32 = 1 << 29;
/// Used in conflict analysis since the last DB reduction; such clauses
/// survive one extra reduction round (Glucose-style protection).
const FLAG_USED: u32 = 1 << 30;

#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: ClauseRef,
    /// For long clauses: a cached literal whose truth lets the visit skip
    /// the clause entirely. For binary clauses: the *other* literal, making
    /// the watch entry self-contained (no clause-memory access at all).
    blocker: Lit,
}

/// Learnt clauses with LBD at or below this are *glue* clauses and are never
/// deleted by DB reduction.
const GLUE_LBD: u32 = 2;
/// VSIDS variable-activity decay: the activity increment is divided by this
/// after each conflict.
const VAR_DECAY: f64 = 0.95;
/// Clause-activity decay, applied the same way.
const CLA_DECAY: f32 = 0.999;

/// Search schedule parameters, all with MiniSat/Glucose-class defaults.
///
/// Production solves run the defaults. Tests lower these so inprocessing,
/// EMA restarts and learnt-clause DB reduction fire on tiny formulas (see
/// `EXPERIMENTS.md`, "Solver knobs").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Minimum conflicts between EMA restart decisions (both forcing and
    /// blocking). Restarts are Glucose-style: *forced* when the fast
    /// average of conflict LBDs exceeds the slow one (recent conflicts are
    /// unusually bad), *blocked* when the trail is much deeper than its
    /// long-run average (the search may be closing in on a model).
    pub restart_min_interval: u64,
    /// Conflicts before the first learnt-clause DB reduction.
    pub reduce_base: u64,
    /// Increment added to the reduction interval after every reduction, so
    /// the DB is allowed to grow over time.
    pub reduce_increment: u64,
    /// Inprocessing trigger: a simplification round (subsumption +
    /// strengthening, bounded variable elimination, vivification) runs at
    /// the start of a solve once the clauses added since the last round
    /// reach `inprocess_trigger + live_clauses / 16`. The DB-proportional
    /// term amortizes each O(DB) round against real growth on large
    /// incremental instances. `0` disables inprocessing entirely.
    pub inprocess_trigger: usize,
    /// Minimum live-clause count before inprocessing is considered at all.
    /// A round costs a fixed occurrence-list rebuild plus per-clause
    /// vivification probes — milliseconds that dwarf the solve time of a
    /// formula with a few hundred clauses. The default skips formulas that
    /// any search strategy dispatches instantly; set to `0` to inprocess
    /// regardless of size (the conformance batteries do, so the passes are
    /// exercised on small crafted instances).
    pub inprocess_min_clauses: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            restart_min_interval: 50,
            reduce_base: 2000,
            reduce_increment: 300,
            inprocess_trigger: 64,
            inprocess_min_clauses: 2000,
        }
    }
}

/// Cumulative search statistics, monotone across incremental solves.
///
/// Read them with [`Solver::stats`]; experiment binaries export them through
/// `orap_bench::json`. `learned_literals_pre/post` measure how much
/// clause minimization shrinks first-UIP clauses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// `solve`/`solve_with` calls completed.
    pub solves: u64,
    /// Branching decisions (assumption applications excluded).
    pub decisions: u64,
    /// Literals enqueued by unit propagation.
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Learnt clauses attached (units included).
    pub learned_clauses: u64,
    /// Total literals in learnt clauses before minimization.
    pub learned_literals_pre: u64,
    /// Total literals in learnt clauses after minimization.
    pub learned_literals_post: u64,
    /// Learnt-clause database reductions.
    pub db_reductions: u64,
    /// Learnt clauses deleted by DB reductions.
    pub clauses_deleted: u64,
    /// Inprocessing rounds executed between solves.
    pub inprocessings: u64,
    /// Clauses deleted because another clause subsumed them.
    pub subsumed_clauses: u64,
    /// Clauses shortened by self-subsuming strengthening.
    pub strengthened_clauses: u64,
    /// Variables eliminated by bounded variable elimination.
    pub eliminated_vars: u64,
    /// Eliminated variables re-introduced because a later clause or
    /// assumption mentioned them (restore-on-demand).
    pub restored_vars: u64,
    /// Literals removed from clauses by vivification.
    pub vivified_literals: u64,
    /// EMA restarts blocked because the trail was unusually deep.
    pub restarts_blocked: u64,
    /// EMA restarts forced by the fast/slow LBD crossover.
    pub restarts_forced: u64,
}

/// A CDCL SAT solver. See the [crate documentation](crate) for an overview
/// and example.
#[derive(Debug, Clone)]
pub struct Solver {
    /// Flat clause storage (see the layout comment at [`HDR`]).
    arena: Vec<u32>,
    /// Arena words occupied by deleted clauses; triggers garbage collection.
    wasted: usize,
    /// Live (non-deleted) attached clauses.
    live_clauses: usize,
    watches: Vec<Vec<Watch>>, // indexed by Lit::code of the *falsified* literal
    watches_bin: Vec<Vec<Watch>>, // binary clauses, same indexing
    assigns: Vec<i8>,         // indexed by var
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    // VSIDS
    activity: Vec<f64>,
    var_inc: f64,
    heap: IndexedHeap,
    saved_phase: Vec<bool>,

    cla_inc: f32,
    /// Conflicts since the last DB reduction.
    conflicts_since_reduce: u64,
    /// Conflict count that triggers the next DB reduction.
    next_reduce: u64,

    config: SolverConfig,
    ok: bool,
    stats: SolverStats,
    budget: Option<u64>,
    /// Cooperative interrupt flag, shared with the caller; checked once per
    /// conflict so even a single long solve observes an external cancel.
    interrupt: Option<Arc<AtomicBool>>,
    /// Wall-clock deadline, checked every [`DEADLINE_CHECK_MASK`]+1 conflicts.
    deadline: Option<Instant>,
    /// Whether the last solve stopped because of the interrupt flag or
    /// deadline (as opposed to the conflict budget).
    interrupted: bool,

    // scratch for analyze / minimization / LBD
    seen: Vec<bool>,
    analyze_toclear: Vec<Lit>,
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,

    /// Model snapshot from the last successful solve (empty otherwise).
    assigns_model: Vec<i8>,

    // Inprocessing state (see `simplify.rs` / `vivify.rs`).
    /// Per-variable "never eliminate" marks ([`Solver::set_frozen`]).
    frozen: Vec<bool>,
    /// Variables currently eliminated by bounded variable elimination.
    eliminated: Vec<bool>,
    /// Reconstruction stack, one record per eliminated variable in
    /// elimination order. Walked in reverse to extend models; consulted by
    /// restore-on-demand when an eliminated variable reappears.
    elim_stack: Vec<ElimRecord>,
    /// Clauses attached (externally or learnt) since the last inprocessing
    /// round; drives the [`SolverConfig::inprocess_trigger`] schedule.
    adds_since_inprocess: usize,
    /// Round-robin cursor so successive vivification rounds cover different
    /// parts of the clause DB.
    viv_cursor: usize,

    // EMA restart state, persistent across solves.
    ema_lbd_fast: f64,
    ema_lbd_slow: f64,
    ema_trail: f64,
    ema_seen_conflicts: bool,

    /// Test-only fault injection, always `None` in production use. See
    /// [`SolverSabotage`] and [`Solver::set_sabotage`].
    sabotage: Option<SolverSabotage>,
}

/// One bounded-variable-elimination record: the variable plus the original
/// clauses that mentioned it, saved when it was eliminated.
///
/// Invariant: at elimination time every *other* variable in the saved
/// clauses was active, so a reverse walk of the stack meets each saved
/// clause with all of its non-record variables already valued.
#[derive(Debug, Clone)]
struct ElimRecord {
    var: u32,
    clauses: Vec<Vec<Lit>>,
    /// Set when the variable was re-introduced (the saved clauses were added
    /// back to the DB); the record is then inert for model extension.
    restored: bool,
}

/// Test-only semantic faults for the conformance mutation-kill harness
/// (`crates/conformance`). Each variant plants one deliberate bug in the
/// solver so the harness can prove the test battery detects it. Production
/// code must never install one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverSabotage {
    /// Binary-clause watches are never visited during propagation, making
    /// two-literal clauses invisible to the search (models may violate
    /// them; unsatisfiable formulas may come back `Sat`).
    SkipBinaryWatch,
    /// Learnt clauses of three or more literals are attached with their
    /// last literal dropped — an unsound strengthening that can turn
    /// satisfiable formulas `Unsat`.
    ShrinkLearntClause,
    /// Inprocessing subsumption compares variables while ignoring polarity,
    /// deleting clauses that are not actually subsumed (the formula weakens,
    /// so models may violate deleted constraints).
    UnsoundSubsumption,
    /// Bounded variable elimination drops the last resolvent of every
    /// elimination, losing a constraint the resolution closure requires.
    BveDropResolvent,
    /// Vivification removes the final literal of probed clauses even when
    /// the probe proved nothing — an unsound strengthening that can turn
    /// satisfiable formulas `Unsat`.
    VivifyDropLiteral,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver with default [`SolverConfig`].
    pub fn new() -> Self {
        Self::with_config(SolverConfig::default())
    }

    /// Creates an empty solver with explicit search parameters.
    pub fn with_config(config: SolverConfig) -> Self {
        Solver {
            arena: Vec::new(),
            wasted: 0,
            live_clauses: 0,
            watches: Vec::new(),
            watches_bin: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: IndexedHeap::new(),
            saved_phase: Vec::new(),
            cla_inc: 1.0,
            conflicts_since_reduce: 0,
            next_reduce: config.reduce_base,
            config,
            ok: true,
            stats: SolverStats::default(),
            budget: None,
            interrupt: None,
            deadline: None,
            interrupted: false,
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            assigns_model: Vec::new(),
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_stack: Vec::new(),
            adds_since_inprocess: 0,
            viv_cursor: 0,
            ema_lbd_fast: 0.0,
            ema_lbd_slow: 0.0,
            ema_trail: 0.0,
            ema_seen_conflicts: false,
            sabotage: None,
        }
    }

    /// Test-only mutation hook: installs (or clears) a [`SolverSabotage`]
    /// fault. Only the conformance mutation-kill harness calls this.
    pub fn set_sabotage(&mut self, sabotage: Option<SolverSabotage>) {
        self.sabotage = sabotage;
    }

    /// The current search parameters.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(UNDEF);
        self.level.push(0);
        self.reason.push(REASON_NONE);
        self.activity.push(0.0);
        self.saved_phase.push(false);
        self.seen.push(false);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.watches_bin.push(Vec::new());
        self.watches_bin.push(Vec::new());
        if !self.assigns_model.is_empty() {
            self.assigns_model.push(UNDEF);
        }
        self.heap.insert(v.index(), &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Marks `v` as frozen: inprocessing will never eliminate it.
    ///
    /// Freezing is a *performance* hint for incremental use — correctness
    /// never depends on it, because a clause or assumption that mentions an
    /// eliminated variable re-introduces it on demand — but freezing the
    /// variables that future clauses or assumptions will mention (activation
    /// literals, key variables) avoids eliminate/restore churn.
    pub fn set_frozen(&mut self, v: Var, frozen: bool) {
        self.frozen[v.index()] = frozen;
    }

    /// Number of (non-deleted) clauses, including learnt ones.
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Total conflicts encountered so far (monotone across calls).
    pub fn conflicts(&self) -> u64 {
        self.stats.conflicts
    }

    /// Limits the *next* solve calls to `budget` additional conflicts each;
    /// `None` removes the limit. When the budget runs out, `solve` returns
    /// [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Installs (or clears) a cooperative interrupt flag. The flag is
    /// polled once per conflict during search; when it reads `true`,
    /// `solve` stops at the next conflict with [`SolveResult::Unknown`]
    /// and [`Solver::interrupted`] reports `true`. The flag is shared —
    /// the caller keeps a clone of the `Arc` and sets it from another
    /// thread (or from a signal handler) to cancel a long solve.
    pub fn set_interrupt(&mut self, flag: Option<Arc<AtomicBool>>) {
        self.interrupt = flag;
    }

    /// Installs (or clears) a wall-clock deadline. Checked every
    /// [`DEADLINE_CHECK_MASK`]`+1` conflicts during search; once passed,
    /// `solve` returns [`SolveResult::Unknown`] and
    /// [`Solver::interrupted`] reports `true`.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Whether the most recent solve stopped because of the interrupt flag
    /// or deadline (distinguishing an external cancel from an exhausted
    /// conflict budget, which also yields [`SolveResult::Unknown`]).
    pub fn interrupted(&self) -> bool {
        self.interrupted
    }

    #[inline]
    fn lit_value(&self, l: Lit) -> i8 {
        let a = self.assigns[l.var().index()];
        if l.is_positive() {
            a
        } else {
            -a
        }
    }

    /// The value of `v` in the model found by the last successful solve
    /// (valid until the next `solve` call), or its root-level assignment
    /// otherwise. `None` if unassigned.
    pub fn value(&self, v: Var) -> Option<bool> {
        let a = if self.assigns_model.is_empty() {
            self.assigns[v.index()]
        } else {
            self.assigns_model[v.index()]
        };
        match a {
            TRUE => Some(true),
            FALSE => Some(false),
            _ => None,
        }
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (including via this clause being empty after
    /// simplification); the solver stays unusable from then on.
    ///
    /// Must be called at decision level 0 (i.e. not from inside a solve —
    /// which is always the case for external callers; after a solve returns,
    /// the solver backtracks to level 0 automatically).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty());
        if !self.ok {
            return false;
        }
        // Restore-on-demand: a new clause mentioning an eliminated variable
        // re-introduces it (and, transitively, anything its saved clauses
        // mention) before the clause is attached.
        for l in lits {
            if self.eliminated[l.var().index()] {
                self.restore_var(l.var().index());
                if !self.ok {
                    return false;
                }
            }
        }
        // Simplify: dedupe, drop falsified-at-root literals, detect
        // tautologies and satisfied clauses.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable_by_key(|l| l.code());
        ls.dedup();
        let mut simplified = Vec::with_capacity(ls.len());
        let mut i = 0;
        while i < ls.len() {
            let l = ls[i];
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return true; // tautology: x | !x
            }
            match self.lit_value(l) {
                TRUE => return true, // already satisfied at root
                FALSE => {}          // drop root-falsified literal
                _ => simplified.push(l),
            }
            i += 1;
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.adds_since_inprocess += 1;
                self.unchecked_enqueue(simplified[0], REASON_NONE);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(&simplified, false, 0);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        // Fault injection (test-only): drop the last literal of long learnt
        // clauses, an unsound strengthening.
        let lits = if learnt
            && lits.len() >= 3
            && self.sabotage == Some(SolverSabotage::ShrinkLearntClause)
        {
            &lits[..lits.len() - 1]
        } else {
            lits
        };
        debug_assert!(lits.len() >= 2);
        debug_assert!(lits.len() as u32 <= LEN_MASK);
        let cref = self.arena.len() as ClauseRef;
        let mut header = lits.len() as u32;
        if learnt {
            header |= FLAG_LEARNT;
        }
        self.arena.push(header);
        self.arena.push(lbd);
        self.arena.push(0f32.to_bits());
        self.arena.extend(lits.iter().map(|l| l.0));
        self.live_clauses += 1;
        // Reset to zero at the end of each inprocessing round, so clauses
        // re-attached during a round do not count toward the next trigger.
        self.adds_since_inprocess += 1;
        let w0 = lits[0];
        let w1 = lits[1];
        let lists = if lits.len() == 2 {
            &mut self.watches_bin
        } else {
            &mut self.watches
        };
        lists[(!w0).code()].push(Watch { cref, blocker: w1 });
        lists[(!w1).code()].push(Watch { cref, blocker: w0 });
        cref
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        let v = l.var().index();
        self.assigns[v] = if l.is_positive() { TRUE } else { FALSE };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;

            // Binary clauses first: the watch entry carries the other
            // literal, so a visit costs no clause-memory access and the
            // watch never moves.
            let bins = if self.sabotage == Some(SolverSabotage::SkipBinaryWatch) {
                Vec::new() // fault injection: binary clauses become invisible
            } else {
                std::mem::take(&mut self.watches_bin[p.code()])
            };
            let mut conflict: Option<ClauseRef> = None;
            for w in &bins {
                match self.lit_value(w.blocker) {
                    TRUE => {}
                    FALSE => {
                        conflict = Some(w.cref);
                        break;
                    }
                    _ => {
                        self.stats.propagations += 1;
                        self.unchecked_enqueue(w.blocker, w.cref);
                    }
                }
            }
            self.watches_bin[p.code()] = bins;
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }

            // The list at p.code() holds clauses in which !p is watched;
            // !p just became false, so each needs a new watch or is
            // unit/conflicting (MiniSat convention).
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            'watches: while i < ws.len() {
                let w = ws[i];
                // Quick skip via blocker.
                if self.lit_value(w.blocker) == TRUE {
                    i += 1;
                    continue;
                }
                let cref = w.cref;
                let base = cref as usize;
                let header = self.arena[base];
                if header & FLAG_DELETED != 0 {
                    ws.swap_remove(i);
                    continue;
                }
                // Make sure the falsified watch is at position 1.
                let false_lit = !p;
                if Lit(self.arena[base + HDR]) == false_lit {
                    self.arena.swap(base + HDR, base + HDR + 1);
                }
                debug_assert_eq!(Lit(self.arena[base + HDR + 1]), false_lit);
                let first = Lit(self.arena[base + HDR]);
                if first != w.blocker && self.lit_value(first) == TRUE {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = (header & LEN_MASK) as usize;
                for k in 2..len {
                    let lk = Lit(self.arena[base + HDR + k]);
                    if self.lit_value(lk) != FALSE {
                        self.arena.swap(base + HDR + 1, base + HDR + k);
                        self.watches[(!lk).code()].push(Watch {
                            cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'watches;
                    }
                }
                // No new watch: clause is unit or conflicting.
                ws[i].blocker = first;
                if self.lit_value(first) == FALSE {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.stats.propagations += 1;
                self.unchecked_enqueue(first, cref);
                i += 1;
            }
            let slot = &mut self.watches[p.code()];
            if slot.is_empty() {
                *slot = ws;
            } else {
                // New watches were appended for p while we processed; merge.
                let mut merged = ws;
                merged.append(slot);
                *slot = merged;
            }
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.update(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let slot = cref as usize + 2;
        let act = f32::from_bits(self.arena[slot]) + self.cla_inc;
        self.arena[slot] = act.to_bits();
        if act > 1e20 {
            let mut off = 0usize;
            while off < self.arena.len() {
                let a = f32::from_bits(self.arena[off + 2]) * 1e-20;
                self.arena[off + 2] = a.to_bits();
                off += HDR + (self.arena[off] & LEN_MASK) as usize;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal-block distance of a literal slice: the number of distinct
    /// non-root decision levels among its variables.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        if self.lbd_stamp.len() < self.trail_lim.len() + 2 {
            self.lbd_stamp.resize(self.trail_lim.len() + 2, 0);
        }
        let mut lbd = 0u32;
        for l in lits {
            let lv = self.level[l.var().index()] as usize;
            if lv > 0 && self.lbd_stamp[lv] != stamp {
                self.lbd_stamp[lv] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// [`compute_lbd`](Self::compute_lbd) over a clause stored in the arena.
    fn compute_lbd_clause(&mut self, cref: ClauseRef) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        if self.lbd_stamp.len() < self.trail_lim.len() + 2 {
            self.lbd_stamp.resize(self.trail_lim.len() + 2, 0);
        }
        let base = cref as usize;
        let len = (self.arena[base] & LEN_MASK) as usize;
        let mut lbd = 0u32;
        for k in 0..len {
            let lv = self.level[Lit(self.arena[base + HDR + k]).var().index()] as usize;
            if lv > 0 && self.lbd_stamp[lv] != stamp {
                self.lbd_stamp[lv] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// First-UIP conflict analysis with local clause minimization. Returns
    /// the learnt clause (asserting literal first), its LBD, and the
    /// backtrack level.
    fn analyze(&mut self, mut conflict: ClauseRef) -> (Vec<Lit>, u32, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        self.analyze_toclear.clear();

        loop {
            self.bump_clause(conflict);
            let base = conflict as usize;
            if self.arena[base] & FLAG_LEARNT != 0 {
                self.arena[base] |= FLAG_USED;
                // Refresh the LBD of learnt clauses that keep causing
                // conflicts; a clause that has become glue gains permanent
                // protection.
                let fresh = self.compute_lbd_clause(conflict);
                if fresh < self.arena[base + 1] {
                    self.arena[base + 1] = fresh;
                }
            }
            // When expanding a reason clause, skip the implied literal
            // itself. Long clauses keep it at slot 0, but binary-clause
            // literals are never reordered, so match on the variable.
            let pv = p.map(Lit::var);
            let clen = (self.arena[base] & LEN_MASK) as usize;
            for k in 0..clen {
                let q = Lit(self.arena[base + HDR + k]);
                if Some(q.var()) == pv {
                    continue;
                }
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.analyze_toclear.push(q);
                    self.bump_var(v);
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand from the trail.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var().index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found above").var().index();
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p.expect("found above");
                break;
            }
            conflict = self.reason[pv];
            debug_assert_ne!(conflict, REASON_NONE, "UIP literal must have a reason");
        }

        self.stats.learned_literals_pre += learnt.len() as u64;

        // Clause minimization: a literal is redundant if its reason clause
        // is entirely absorbed by the remaining clause (the `seen` flags
        // mark exactly the variables of `learnt[1..]`).
        let mut minimized = vec![learnt[0]];
        minimized.extend(learnt[1..].iter().copied().filter(|&l| {
            self.reason[l.var().index()] == REASON_NONE || !self.lit_redundant_basic(l)
        }));
        self.stats.learned_literals_post += minimized.len() as u64;

        // Clear seen flags (the UIP and every analyzed literal).
        self.seen[learnt[0].var().index()] = false;
        for i in 0..self.analyze_toclear.len() {
            let v = self.analyze_toclear[i].var().index();
            self.seen[v] = false;
        }

        let lbd = self.compute_lbd(&minimized);

        // Backtrack level: second-highest level in the clause.
        let bt = if minimized.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            self.level[minimized[1].var().index()]
        };
        (minimized, lbd, bt)
    }

    /// Local (non-recursive) redundancy test: `l` is redundant if every
    /// other literal of its reason clause is already in the learnt clause
    /// (`seen`) or fixed at level 0.
    fn lit_redundant_basic(&self, l: Lit) -> bool {
        let cref = self.reason[l.var().index()];
        debug_assert_ne!(cref, REASON_NONE);
        let base = cref as usize;
        let clen = (self.arena[base] & LEN_MASK) as usize;
        for k in 0..clen {
            let q = Lit(self.arena[base + HDR + k]);
            if q.var() == l.var() {
                continue;
            }
            let v = q.var().index();
            if !self.seen[v] && self.level[v] > 0 {
                return false;
            }
        }
        true
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.saved_phase[v] = l.is_positive();
            self.assigns[v] = UNDEF;
            self.reason[v] = REASON_NONE;
            self.heap.insert(v, &self.activity);
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v] == UNDEF && !self.eliminated[v] {
                return Some(Var(v as u32).lit(self.saved_phase[v]));
            }
        }
        None
    }

    /// LBD-driven learnt-clause DB reduction: sort deletable learnt clauses
    /// worst-first (highest LBD, then lowest activity) and delete half.
    /// Glue clauses, reason clauses, binary clauses, and clauses used in a
    /// conflict since the last reduction are kept (the latter lose their
    /// protection mark for the next round).
    fn reduce_db(&mut self) {
        let mut cands: Vec<(u32, f32, ClauseRef)> = Vec::new();
        let mut off = 0usize;
        while off < self.arena.len() {
            let header = self.arena[off];
            let len = (header & LEN_MASK) as usize;
            let cref = off as ClauseRef;
            off += HDR + len;
            if header & FLAG_LEARNT == 0
                || header & (FLAG_DELETED | FLAG_USED) != 0
                || len <= 2
                || self.arena[cref as usize + 1] <= GLUE_LBD
                || self.is_reason(cref)
            {
                continue;
            }
            cands.push((
                self.arena[cref as usize + 1],
                f32::from_bits(self.arena[cref as usize + 2]),
                cref,
            ));
        }
        // Worst first: highest LBD, ties broken by lowest activity.
        cands.sort_by(|a, b| {
            b.0.cmp(&a.0).then(
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_delete = cands.len() / 2;
        for &(_, _, cref) in cands.iter().take(to_delete) {
            let base = cref as usize;
            self.arena[base] |= FLAG_DELETED;
            self.wasted += HDR + (self.arena[base] & LEN_MASK) as usize;
            self.live_clauses -= 1;
        }
        // Protection is one-round: clear the marks so clauses must stay
        // useful to survive the next reduction too.
        let mut off = 0usize;
        while off < self.arena.len() {
            let header = self.arena[off];
            if header & FLAG_LEARNT != 0 && header & FLAG_DELETED == 0 {
                self.arena[off] = header & !FLAG_USED;
            }
            off += HDR + (header & LEN_MASK) as usize;
        }
        self.stats.db_reductions += 1;
        self.stats.clauses_deleted += to_delete as u64;
        // Compact the arena once a third of it is dead weight.
        if self.wasted * 3 > self.arena.len() {
            self.collect_garbage();
        }
    }

    /// Rebuilds the arena without deleted clauses, remapping every watch
    /// list and reason reference. Reasons always point at live clauses
    /// (binary and glue clauses are never deleted, and `reduce_db` skips
    /// clauses currently acting as reasons).
    fn collect_garbage(&mut self) {
        let mut new_arena: Vec<u32> = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut remap: std::collections::HashMap<ClauseRef, ClauseRef> =
            std::collections::HashMap::with_capacity(self.live_clauses);
        for list in self.watches.iter_mut().chain(self.watches_bin.iter_mut()) {
            list.clear();
        }
        let mut off = 0usize;
        while off < self.arena.len() {
            let header = self.arena[off];
            let len = (header & LEN_MASK) as usize;
            if header & FLAG_DELETED == 0 {
                let cref = new_arena.len() as ClauseRef;
                remap.insert(off as ClauseRef, cref);
                new_arena.extend_from_slice(&self.arena[off..off + HDR + len]);
                let w0 = Lit(self.arena[off + HDR]);
                let w1 = Lit(self.arena[off + HDR + 1]);
                let lists = if len == 2 {
                    &mut self.watches_bin
                } else {
                    &mut self.watches
                };
                lists[(!w0).code()].push(Watch { cref, blocker: w1 });
                lists[(!w1).code()].push(Watch { cref, blocker: w0 });
            }
            off += HDR + len;
        }
        self.arena = new_arena;
        self.wasted = 0;
        for v in 0..self.reason.len() {
            if self.assigns[v] != UNDEF && self.reason[v] != REASON_NONE {
                self.reason[v] = remap[&self.reason[v]];
            }
        }
    }

    fn is_reason(&self, cref: ClauseRef) -> bool {
        // Propagation keeps the implied literal of a long clause at slot 0
        // for as long as the clause acts as a reason (binary clauses are
        // never deletion candidates, so they never reach this check).
        let first = Lit(self.arena[cref as usize + HDR]);
        let v = first.var().index();
        self.assigns[v] != UNDEF && self.reason[v] == cref
    }

    /// Checks the cooperative interrupt sources, latching
    /// [`Solver::interrupted`] when one has fired. The flag is always
    /// consulted; the deadline only when `check_deadline` is set (it costs
    /// a syscall).
    #[inline]
    fn poll_interrupt(&mut self, check_deadline: bool) -> bool {
        if let Some(flag) = &self.interrupt {
            if flag.load(Ordering::Relaxed) {
                self.interrupted = true;
                return true;
            }
        }
        if check_deadline {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.interrupted = true;
                    return true;
                }
            }
        }
        false
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumptions. On [`SolveResult::Sat`] the model
    /// is available through [`value`](Solver::value) until the next
    /// mutation. On return the solver is back at decision level 0, keeping
    /// all learnt clauses (incremental use).
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert!(self.trail_lim.is_empty());
        self.interrupted = false;
        // A cancel raised before (or between) solves must still be honored:
        // check once up front so an already-fired flag or expired deadline
        // never starts a search.
        if self.poll_interrupt(true) {
            return SolveResult::Unknown;
        }

        // Re-introduce any eliminated variable the assumptions mention, then
        // run an inprocessing round if enough clauses arrived since the last
        // one. The round temporarily pins the assumption variables so it
        // cannot eliminate them right back.
        for a in assumptions {
            if self.eliminated[a.var().index()] {
                self.restore_var(a.var().index());
            }
        }
        if self.ok
            && self.config.inprocess_trigger > 0
            && self.live_clauses >= self.config.inprocess_min_clauses
            && self.adds_since_inprocess
                >= self.config.inprocess_trigger + self.live_clauses / 16
        {
            self.inprocess(assumptions);
        }
        if !self.ok {
            return SolveResult::Unsat;
        }

        let budget_end = self.budget.map(|b| self.stats.conflicts + b);
        let mut conflicts_since_restart = 0u64;
        let result;

        'main: loop {
            match self.propagate() {
                Some(conflict) => {
                    self.stats.conflicts += 1;
                    self.conflicts_since_reduce += 1;
                    if self.decision_level() == 0 {
                        self.ok = false;
                        result = SolveResult::Unsat;
                        break 'main;
                    }
                    // Conflict below/at the assumption prefix: under these
                    // assumptions the formula is UNSAT.
                    let (learnt, lbd, bt) = self.analyze(conflict);
                    // Glucose-style EMA restart state, fed on every conflict.
                    conflicts_since_restart += 1;
                    let lbd_f = f64::from(lbd.max(1));
                    let trail_f = self.trail.len() as f64;
                    if self.ema_seen_conflicts {
                        self.ema_lbd_fast += (lbd_f - self.ema_lbd_fast) / EMA_FAST_WINDOW;
                        self.ema_lbd_slow += (lbd_f - self.ema_lbd_slow) / EMA_SLOW_WINDOW;
                        self.ema_trail += (trail_f - self.ema_trail) / EMA_SLOW_WINDOW;
                    } else {
                        self.ema_lbd_fast = lbd_f;
                        self.ema_lbd_slow = lbd_f;
                        self.ema_trail = trail_f;
                        self.ema_seen_conflicts = true;
                    }
                    if conflicts_since_restart >= self.config.restart_min_interval
                        && trail_f > EMA_BLOCK_RATIO * self.ema_trail
                        && self.ema_lbd_fast > EMA_FORCE_RATIO * self.ema_lbd_slow
                    {
                        // The trail is unusually deep: the search may be
                        // close to a model, so cancel the pending force.
                        self.ema_lbd_fast = self.ema_lbd_slow;
                        self.stats.restarts_blocked += 1;
                    }
                    if (self.decision_level() as usize) <= assumptions.len() {
                        // Learn the clause anyway if it is at root level.
                        self.backtrack_to(0);
                        if learnt.len() == 1 {
                            if self.lit_value(learnt[0]) == UNDEF {
                                self.unchecked_enqueue(learnt[0], REASON_NONE);
                                self.stats.learned_clauses += 1;
                            } else if self.lit_value(learnt[0]) == FALSE {
                                self.ok = false;
                            }
                        } else {
                            let cref = self.attach_clause(&learnt, true, lbd);
                            self.stats.learned_clauses += 1;
                            self.bump_clause(cref);
                        }
                        result = SolveResult::Unsat;
                        break 'main;
                    }
                    self.backtrack_to(bt);
                    self.stats.learned_clauses += 1;
                    if learnt.len() == 1 {
                        // Unit clauses are asserted at the root; any
                        // assumptions above `bt` are re-applied by the main
                        // loop as it rebuilds the decision prefix.
                        debug_assert_eq!(bt, 0);
                        if self.lit_value(learnt[0]) == UNDEF {
                            self.unchecked_enqueue(learnt[0], REASON_NONE);
                        } else if self.lit_value(learnt[0]) == FALSE {
                            result = SolveResult::Unsat;
                            break 'main;
                        }
                    } else {
                        let cref = self.attach_clause(&learnt, true, lbd);
                        self.bump_clause(cref);
                        if self.lit_value(learnt[0]) == UNDEF {
                            self.unchecked_enqueue(learnt[0], cref);
                        }
                    }
                    self.var_inc /= VAR_DECAY;
                    self.cla_inc /= CLA_DECAY;
                    // Cooperative interrupt: flag every conflict, deadline
                    // every DEADLINE_CHECK_MASK+1 conflicts. Sits next to the
                    // budget check so one long solve observes an external
                    // cancel with conflict granularity.
                    if self.poll_interrupt(self.stats.conflicts & DEADLINE_CHECK_MASK == 0) {
                        result = SolveResult::Unknown;
                        break 'main;
                    }
                    if let Some(end) = budget_end {
                        if self.stats.conflicts >= end {
                            result = SolveResult::Unknown;
                            break 'main;
                        }
                    }
                    if self.conflicts_since_reduce >= self.next_reduce {
                        self.reduce_db();
                        self.conflicts_since_reduce = 0;
                        self.next_reduce += self.config.reduce_increment;
                    }
                }
                None => {
                    let restart_due = conflicts_since_restart >= self.config.restart_min_interval
                        && self.ema_lbd_fast > EMA_FORCE_RATIO * self.ema_lbd_slow;
                    if restart_due && (self.decision_level() as usize) > assumptions.len() {
                        conflicts_since_restart = 0;
                        // Demand fresh evidence before the next force.
                        self.ema_lbd_fast = self.ema_lbd_slow;
                        self.stats.restarts_forced += 1;
                        self.stats.restarts += 1;
                        self.backtrack_to(assumptions.len() as u32);
                        continue;
                    }
                    // Apply pending assumptions as decisions.
                    let dl = self.decision_level() as usize;
                    if dl < assumptions.len() {
                        let a = assumptions[dl];
                        match self.lit_value(a) {
                            TRUE => {
                                // Already implied: introduce an empty decision
                                // level to keep the prefix aligned.
                                self.trail_lim.push(self.trail.len());
                            }
                            FALSE => {
                                result = SolveResult::Unsat;
                                break 'main;
                            }
                            _ => {
                                self.trail_lim.push(self.trail.len());
                                self.unchecked_enqueue(a, REASON_NONE);
                            }
                        }
                        continue;
                    }
                    match self.pick_branch() {
                        None => {
                            result = SolveResult::Sat;
                            break 'main;
                        }
                        Some(l) => {
                            self.stats.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(l, REASON_NONE);
                        }
                    }
                }
            }
        }

        self.stats.solves += 1;
        if result == SolveResult::Sat {
            // The model must stay readable through `value` after the
            // mandatory backtrack to level 0, so snapshot `assigns` first
            // (MiniSat copies the model the same way). Eliminated variables
            // are then valued by walking the reconstruction stack, so the
            // reported model satisfies the *original* pre-elimination CNF.
            let mut model: Vec<i8> = self.assigns.clone();
            self.backtrack_to(0);
            self.extend_model(&mut model);
            self.assigns_model = model;
        } else {
            self.backtrack_to(0);
            self.assigns_model.clear();
        }
        result
    }
}

// EMA restart tuning (Glucose-class values): the fast average tracks the
// last ~32 conflict LBDs, the slow one the last ~4096; a force fires when
// fast exceeds slow by 25%, and a deep trail (40% over its long-run
// average) blocks the pending force.
const EMA_FAST_WINDOW: f64 = 32.0;
const EMA_SLOW_WINDOW: f64 = 4096.0;
const EMA_FORCE_RATIO: f64 = 1.25;
const EMA_BLOCK_RATIO: f64 = 1.4;

/// Indexed max-heap over variable activities.
#[derive(Debug, Clone, Default)]
struct IndexedHeap {
    heap: Vec<usize>,      // heap of var indices
    pos: Vec<i32>,         // var -> heap position or -1
}

impl IndexedHeap {
    fn new() -> Self {
        IndexedHeap::default()
    }

    fn ensure(&mut self, v: usize) {
        if v >= self.pos.len() {
            self.pos.resize(v + 1, -1);
        }
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        self.ensure(v);
        if self.pos[v] >= 0 {
            return;
        }
        self.pos[v] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: usize, act: &[f64]) {
        self.ensure(v);
        if self.pos[v] >= 0 {
            self.sift_up(self.pos[v] as usize, act);
        }
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.pos[top] = -1;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i]] > act[self.heap[parent]] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l]] > act[self.heap[best]] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r]] > act[self.heap[best]] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = i as i32;
        self.pos[self.heap[j]] = j as i32;
    }
}
