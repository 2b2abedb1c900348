//! Inprocessing core: root-level cleanup, occurrence-list backward
//! subsumption with self-subsuming strengthening, and bounded variable
//! elimination (BVE) with model reconstruction.
//!
//! This is a child module of [`super`] (the solver), so it works on the
//! solver's private state directly. A round runs at decision level 0 with
//! every root reason cleared ([`Solver::propagate_root_clear`]): conflict
//! analysis never expands level-0 literals, and with no reason pointers
//! into the arena every clause is free to be deleted or rebuilt. Watch
//! entries of deleted clauses are removed eagerly — the binary watch lists
//! carry no deleted-flag check, so a stale entry there would be unsound.
//!
//! Elimination soundness for incremental use: eliminating `v` replaces its
//! occurrence clauses by their pairwise resolvents, which preserves
//! satisfiability but not equivalence. The original occurrence clauses are
//! saved in an [`ElimRecord`]; models are extended over eliminated
//! variables by walking the records in reverse ([`Solver::extend_model`]),
//! and any later clause or assumption that mentions an eliminated variable
//! re-adds the saved clauses ([`Solver::restore_var`]), restoring full
//! equivalence for that variable.

use super::*;
use std::collections::HashMap;

/// Longest clause allowed to act as a subsumer.
const SUB_MAX_CLEN: usize = 20;
/// Skip subsumption checks through literals hotter than this (e.g. the
/// activation literal of a miter, which occurs in almost every clause).
const SUB_MAX_OCCS: usize = 3000;
/// BVE: max occurrences per polarity for an elimination candidate.
const BVE_MAX_OCC: usize = 16;
/// BVE: max length of clauses feeding a resolution.
const BVE_MAX_CLEN: usize = 16;
/// BVE: max length of a produced resolvent.
const BVE_MAX_RES_LEN: usize = 24;

/// Result of the combined subsumption/strengthening check.
enum SubsumeResult {
    None,
    /// The subsumer implies the candidate: delete the candidate.
    Subsume,
    /// All literals match except one occurring negated in the candidate:
    /// self-subsuming resolution removes that literal from the candidate.
    Strengthen(Lit),
}

impl Solver {
    /// One inprocessing round, run at the start of a solve. `assumptions`
    /// are pinned (frozen) for the duration so the round cannot eliminate a
    /// variable this very solve is about to assume.
    pub(super) fn inprocess(&mut self, assumptions: &[Lit]) {
        debug_assert!(self.trail_lim.is_empty());
        self.stats.inprocessings += 1;
        if !self.propagate_root_clear() {
            self.ok = false;
            self.adds_since_inprocess = 0;
            return;
        }
        let mut pinned: Vec<usize> = Vec::new();
        for a in assumptions {
            let v = a.var().index();
            if !self.frozen[v] {
                self.frozen[v] = true;
                pinned.push(v);
            }
        }
        self.cleanup_root();
        if self.ok {
            self.simplify_round();
        }
        if self.ok {
            self.vivify_round();
        }
        for v in pinned {
            self.frozen[v] = false;
        }
        self.adds_since_inprocess = 0;
        if self.ok && self.wasted * 3 > self.arena.len() {
            self.collect_garbage();
        }
    }

    /// Root-level propagation for inprocessing: propagates to fixpoint and
    /// clears the reason of every trail literal. Returns `false` on a root
    /// conflict.
    pub(super) fn propagate_root_clear(&mut self) -> bool {
        debug_assert!(self.trail_lim.is_empty());
        let conflict = self.propagate();
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            self.reason[v] = REASON_NONE;
        }
        conflict.is_none()
    }

    /// The literals of a clause, copied out of the arena.
    pub(super) fn clause_lits(&self, cref: ClauseRef) -> Vec<Lit> {
        let base = cref as usize;
        let len = (self.arena[base] & LEN_MASK) as usize;
        (0..len).map(|k| Lit(self.arena[base + HDR + k])).collect()
    }

    /// Removes the two watch entries of a live clause (long or binary).
    pub(super) fn detach_watches(&mut self, cref: ClauseRef) {
        let base = cref as usize;
        let len = (self.arena[base] & LEN_MASK) as usize;
        let w0 = Lit(self.arena[base + HDR]);
        let w1 = Lit(self.arena[base + HDR + 1]);
        let lists = if len == 2 {
            &mut self.watches_bin
        } else {
            &mut self.watches
        };
        lists[(!w0).code()].retain(|w| w.cref != cref);
        lists[(!w1).code()].retain(|w| w.cref != cref);
    }

    /// Re-adds the watch entries of a clause whose slots are untouched.
    pub(super) fn attach_watches(&mut self, cref: ClauseRef) {
        let base = cref as usize;
        let len = (self.arena[base] & LEN_MASK) as usize;
        let w0 = Lit(self.arena[base + HDR]);
        let w1 = Lit(self.arena[base + HDR + 1]);
        let lists = if len == 2 {
            &mut self.watches_bin
        } else {
            &mut self.watches
        };
        lists[(!w0).code()].push(Watch { cref, blocker: w1 });
        lists[(!w1).code()].push(Watch { cref, blocker: w0 });
    }

    /// Marks an already-detached clause deleted and fixes the counters.
    pub(super) fn delete_detached(&mut self, cref: ClauseRef) {
        let base = cref as usize;
        let header = self.arena[base];
        debug_assert_eq!(header & FLAG_DELETED, 0);
        self.arena[base] = header | FLAG_DELETED;
        self.wasted += HDR + (header & LEN_MASK) as usize;
        self.live_clauses -= 1;
    }

    /// Deletes a live attached clause, removing its watches eagerly.
    pub(super) fn delete_clause(&mut self, cref: ClauseRef) {
        self.detach_watches(cref);
        self.delete_detached(cref);
    }

    /// Attaches a clause during inprocessing: dedupes, drops tautologies,
    /// satisfied clauses and root-falsified literals; units are enqueued at
    /// the root (reasons cleared). Returns the `ClauseRef` of clauses that
    /// were actually attached.
    pub(super) fn add_inprocess_clause(
        &mut self,
        lits: &[Lit],
        learnt: bool,
        lbd: u32,
    ) -> Option<ClauseRef> {
        if !self.ok {
            return None;
        }
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_unstable_by_key(|l| l.code());
        ls.dedup();
        let mut simplified = Vec::with_capacity(ls.len());
        for (i, &l) in ls.iter().enumerate() {
            if i + 1 < ls.len() && ls[i + 1] == !l {
                return None; // tautology
            }
            match self.lit_value(l) {
                TRUE => return None,
                FALSE => {}
                _ => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                None
            }
            1 => {
                self.unchecked_enqueue(simplified[0], REASON_NONE);
                if !self.propagate_root_clear() {
                    self.ok = false;
                }
                None
            }
            _ => {
                let lbd = lbd.clamp(1, simplified.len() as u32 - 1);
                Some(self.attach_clause(&simplified, learnt, lbd))
            }
        }
    }

    /// Deletes root-satisfied clauses and strips root-falsified literals
    /// from the rest, so the occurrence lists built afterwards see only
    /// live literals.
    fn cleanup_root(&mut self) {
        let end = self.arena.len();
        let mut off = 0usize;
        while off < end {
            let header = self.arena[off];
            let len = (header & LEN_MASK) as usize;
            let cref = off as ClauseRef;
            off += HDR + len;
            if header & FLAG_DELETED != 0 {
                continue;
            }
            let mut satisfied = false;
            let mut falsified = false;
            for k in 0..len {
                match self.lit_value(Lit(self.arena[cref as usize + HDR + k])) {
                    TRUE => {
                        satisfied = true;
                        break;
                    }
                    FALSE => falsified = true,
                    _ => {}
                }
            }
            if satisfied {
                self.delete_clause(cref);
            } else if falsified {
                let lits = self.clause_lits(cref);
                let lits: Vec<Lit> = lits
                    .into_iter()
                    .filter(|&l| self.lit_value(l) != FALSE)
                    .collect();
                let learnt = header & FLAG_LEARNT != 0;
                let lbd = self.arena[cref as usize + 1];
                self.delete_clause(cref);
                self.add_inprocess_clause(&lits, learnt, lbd);
                if !self.ok {
                    return;
                }
            }
        }
    }

    /// Builds occurrence lists and runs subsumption/strengthening followed
    /// by bounded variable elimination.
    fn simplify_round(&mut self) {
        let nlits = self.assigns.len() * 2;
        let mut occ: Vec<Vec<ClauseRef>> = vec![Vec::new(); nlits];
        let mut sig: HashMap<ClauseRef, u64> = HashMap::new();
        let mut queue: Vec<ClauseRef> = Vec::new();
        let mut off = 0usize;
        while off < self.arena.len() {
            let header = self.arena[off];
            let len = (header & LEN_MASK) as usize;
            let cref = off as ClauseRef;
            off += HDR + len;
            if header & FLAG_DELETED != 0 {
                continue;
            }
            let mut s = 0u64;
            for k in 0..len {
                let l = Lit(self.arena[cref as usize + HDR + k]);
                occ[l.code()].push(cref);
                s |= 1u64 << (l.var().index() & 63);
            }
            sig.insert(cref, s);
            queue.push(cref);
        }
        // Shortest subsumers first: they delete the most.
        queue.sort_by_key(|&c| self.arena[c as usize] & LEN_MASK);
        self.subsume_round(&mut occ, &mut sig, queue);
        if self.ok {
            self.bve_round(&mut occ, &mut sig);
        }
    }

    /// Backward subsumption + self-subsuming strengthening over a worklist.
    /// Strengthened clauses are re-queued until fixpoint.
    fn subsume_round(
        &mut self,
        occ: &mut [Vec<ClauseRef>],
        sig: &mut HashMap<ClauseRef, u64>,
        mut queue: Vec<ClauseRef>,
    ) {
        let mut qi = 0usize;
        while qi < queue.len() {
            let c = queue[qi];
            qi += 1;
            let cbase = c as usize;
            let cheader = self.arena[cbase];
            if cheader & FLAG_DELETED != 0 {
                continue;
            }
            let clen = (cheader & LEN_MASK) as usize;
            if clen > SUB_MAX_CLEN {
                continue;
            }
            let clits = self.clause_lits(c);
            let csig = sig[&c];
            let mut c_learnt = cheader & FLAG_LEARNT != 0;
            // Scan candidates through the least-occurring literal, both
            // polarities (the negated list catches strengthenings whose
            // flipped literal is the pivot itself).
            let lmin = clits
                .iter()
                .copied()
                .min_by_key(|&l| occ[l.code()].len() + occ[(!l).code()].len())
                .expect("clauses have at least two literals");
            if occ[lmin.code()].len() + occ[(!lmin).code()].len() > SUB_MAX_OCCS {
                continue;
            }
            let cands: Vec<ClauseRef> = occ[lmin.code()]
                .iter()
                .chain(occ[(!lmin).code()].iter())
                .copied()
                .collect();
            for d in cands {
                if d == c {
                    continue;
                }
                let dbase = d as usize;
                let dheader = self.arena[dbase];
                if dheader & FLAG_DELETED != 0 {
                    continue;
                }
                if ((dheader & LEN_MASK) as usize) < clen {
                    continue;
                }
                if csig & !sig[&d] != 0 {
                    continue;
                }
                match self.subsume_check(&clits, d) {
                    SubsumeResult::None => {}
                    SubsumeResult::Subsume => {
                        // A learnt clause subsuming an original is promoted
                        // to original first, so a later DB reduction can
                        // never delete both (CaDiCaL's rule).
                        if c_learnt && dheader & FLAG_LEARNT == 0 {
                            self.arena[cbase] &= !(FLAG_LEARNT | FLAG_USED);
                            c_learnt = false;
                        }
                        self.delete_clause(d);
                        self.stats.subsumed_clauses += 1;
                    }
                    SubsumeResult::Strengthen(flip) => {
                        let newlits: Vec<Lit> = self
                            .clause_lits(d)
                            .into_iter()
                            .filter(|&l| l != flip)
                            .collect();
                        let d_learnt = dheader & FLAG_LEARNT != 0;
                        let dlbd = self.arena[dbase + 1];
                        self.delete_clause(d);
                        self.stats.strengthened_clauses += 1;
                        if let Some(nref) = self.add_inprocess_clause(&newlits, d_learnt, dlbd) {
                            let mut s = 0u64;
                            for l in self.clause_lits(nref) {
                                occ[l.code()].push(nref);
                                s |= 1u64 << (l.var().index() & 63);
                            }
                            sig.insert(nref, s);
                            queue.push(nref);
                        }
                        if !self.ok {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Does `clits` subsume (or strengthen-by-one-flip) clause `d`?
    fn subsume_check(&self, clits: &[Lit], d: ClauseRef) -> SubsumeResult {
        let dbase = d as usize;
        let dlen = (self.arena[dbase] & LEN_MASK) as usize;
        // Fault injection (test-only): compare variables while ignoring
        // polarity, yielding bogus Subsume verdicts.
        if self.sabotage == Some(SolverSabotage::UnsoundSubsumption) {
            for &cl in clits {
                let found = (0..dlen)
                    .any(|k| Lit(self.arena[dbase + HDR + k]).var() == cl.var());
                if !found {
                    return SubsumeResult::None;
                }
            }
            return SubsumeResult::Subsume;
        }
        let mut flip: Option<Lit> = None;
        for &cl in clits {
            let mut hit = false;
            for k in 0..dlen {
                let dl = Lit(self.arena[dbase + HDR + k]);
                if dl == cl {
                    hit = true;
                    break;
                }
                if dl == !cl {
                    if flip.is_some() {
                        return SubsumeResult::None;
                    }
                    flip = Some(dl);
                    hit = true;
                    break;
                }
            }
            if !hit {
                return SubsumeResult::None;
            }
        }
        match flip {
            None => SubsumeResult::Subsume,
            Some(f) => SubsumeResult::Strengthen(f),
        }
    }

    /// Bounded variable elimination, cheapest candidates first.
    fn bve_round(&mut self, occ: &mut [Vec<ClauseRef>], sig: &mut HashMap<ClauseRef, u64>) {
        let nvars = self.assigns.len();
        let mut cands: Vec<(usize, usize)> = (0..nvars)
            .filter(|&v| !self.frozen[v] && !self.eliminated[v] && self.assigns[v] == UNDEF)
            .filter_map(|v| {
                let p = Var(v as u32).positive();
                let n = occ[p.code()].len() + occ[(!p).code()].len();
                (n > 0).then_some((n, v))
            })
            .collect();
        cands.sort_unstable();
        for (_, v) in cands {
            if !self.ok {
                return;
            }
            if self.frozen[v] || self.eliminated[v] || self.assigns[v] != UNDEF {
                continue;
            }
            self.try_eliminate(v, occ, sig);
        }
    }

    /// Eliminates `v` if the pairwise resolvents of its occurrence clauses
    /// do not outnumber the clauses they replace.
    fn try_eliminate(
        &mut self,
        v: usize,
        occ: &mut [Vec<ClauseRef>],
        sig: &mut HashMap<ClauseRef, u64>,
    ) {
        let pvar = Var(v as u32);
        let plit = pvar.positive();
        let nlit = pvar.negative();
        // Live occurrences; originals feed the resolution, learnt clauses
        // mentioning the variable are dropped on elimination (they stay
        // implied by the remaining formula, but may not survive without v).
        let mut pos_orig: Vec<ClauseRef> = Vec::new();
        let mut neg_orig: Vec<ClauseRef> = Vec::new();
        let mut learnt_occ: Vec<ClauseRef> = Vec::new();
        for (lit, bucket) in [(plit, &mut pos_orig), (nlit, &mut neg_orig)] {
            for &c in &occ[lit.code()] {
                let header = self.arena[c as usize];
                if header & FLAG_DELETED != 0 {
                    continue;
                }
                if header & FLAG_LEARNT != 0 {
                    learnt_occ.push(c);
                    continue;
                }
                if (header & LEN_MASK) as usize > BVE_MAX_CLEN {
                    return;
                }
                bucket.push(c);
            }
        }
        if pos_orig.len() > BVE_MAX_OCC || neg_orig.len() > BVE_MAX_OCC {
            return;
        }
        if pos_orig.is_empty() && neg_orig.is_empty() {
            return;
        }
        // Count (and keep) the non-tautological resolvents; give up on any
        // growth over the clauses being replaced.
        let budget = pos_orig.len() + neg_orig.len();
        let mut resolvents: Vec<Vec<Lit>> = Vec::new();
        for &p in &pos_orig {
            for &n in &neg_orig {
                if let Some(r) = self.resolve(p, n, pvar) {
                    if r.len() > BVE_MAX_RES_LEN {
                        return;
                    }
                    resolvents.push(r);
                    if resolvents.len() > budget {
                        return;
                    }
                }
            }
        }
        // Commit: save the original occurrence clauses for reconstruction,
        // delete every clause mentioning v, then add the resolvents.
        let saved: Vec<Vec<Lit>> = pos_orig
            .iter()
            .chain(neg_orig.iter())
            .map(|&c| self.clause_lits(c))
            .collect();
        for &c in pos_orig.iter().chain(neg_orig.iter()).chain(learnt_occ.iter()) {
            self.delete_clause(c);
        }
        self.eliminated[v] = true;
        self.stats.eliminated_vars += 1;
        self.elim_stack.push(ElimRecord {
            var: v as u32,
            clauses: saved,
            restored: false,
        });
        occ[plit.code()].clear();
        occ[nlit.code()].clear();
        // Fault injection (test-only): drop the last resolvent.
        let keep = if self.sabotage == Some(SolverSabotage::BveDropResolvent)
            && !resolvents.is_empty()
        {
            resolvents.len() - 1
        } else {
            resolvents.len()
        };
        for r in resolvents.into_iter().take(keep) {
            let lbd = r.len().max(2) as u32 - 1;
            if let Some(nref) = self.add_inprocess_clause(&r, false, lbd) {
                let mut s = 0u64;
                for l in self.clause_lits(nref) {
                    occ[l.code()].push(nref);
                    s |= 1u64 << (l.var().index() & 63);
                }
                sig.insert(nref, s);
            }
            if !self.ok {
                return;
            }
        }
    }

    /// Resolvent of two clauses on `pivot`; `None` for tautologies.
    fn resolve(&self, p: ClauseRef, n: ClauseRef, pivot: Var) -> Option<Vec<Lit>> {
        let mut out: Vec<Lit> = Vec::new();
        for l in self.clause_lits(p) {
            if l.var() != pivot {
                out.push(l);
            }
        }
        for l in self.clause_lits(n) {
            if l.var() != pivot {
                out.push(l);
            }
        }
        // Lit codes of x and !x are adjacent, so complementary pairs meet
        // after sorting (same trick as `add_clause`).
        out.sort_unstable_by_key(|l| l.code());
        out.dedup();
        for w in out.windows(2) {
            if w[1] == !w[0] {
                return None;
            }
        }
        Some(out)
    }

    /// Re-introduces an eliminated variable (and, transitively, any variable
    /// its saved clauses mention) by adding the saved occurrence clauses
    /// back. Afterwards the formula is again fully equivalent to the
    /// original with respect to these variables.
    pub(super) fn restore_var(&mut self, v: usize) {
        debug_assert!(self.trail_lim.is_empty());
        if !self.eliminated[v] {
            return;
        }
        let mut work = vec![v];
        let mut to_add: Vec<usize> = Vec::new();
        while let Some(w) = work.pop() {
            if !self.eliminated[w] {
                continue;
            }
            self.eliminated[w] = false;
            self.stats.restored_vars += 1;
            let idx = self
                .elim_stack
                .iter()
                .rposition(|r| r.var as usize == w && !r.restored)
                .expect("eliminated variable must have a live record");
            self.elim_stack[idx].restored = true;
            for clause in &self.elim_stack[idx].clauses {
                for l in clause {
                    if self.eliminated[l.var().index()] {
                        work.push(l.var().index());
                    }
                }
            }
            to_add.push(idx);
            self.heap.insert(w, &self.activity);
        }
        for idx in to_add {
            let clauses = self.elim_stack[idx].clauses.clone();
            for clause in clauses {
                if !self.add_clause(&clause) {
                    return;
                }
            }
        }
    }

    /// Values the eliminated variables of a model by walking the
    /// reconstruction stack in reverse. Each record's variable is set true
    /// exactly when some saved positive-occurrence clause is not satisfied
    /// by the other literals; the resolvents kept in the formula guarantee
    /// no negative-occurrence clause is left unsatisfied in that case.
    pub(super) fn extend_model(&self, model: &mut [i8]) {
        for rec in self.elim_stack.iter().rev() {
            if rec.restored {
                continue;
            }
            let v = rec.var as usize;
            let mut val = FALSE;
            'clauses: for clause in &rec.clauses {
                let mut pivot_positive = false;
                for &l in clause {
                    if l.var().index() == v {
                        pivot_positive = l.is_positive();
                        continue;
                    }
                    let a = model[l.var().index()];
                    if (a == TRUE && l.is_positive()) || (a == FALSE && !l.is_positive()) {
                        continue 'clauses; // satisfied without the pivot
                    }
                }
                if pivot_positive {
                    val = TRUE;
                    break;
                }
            }
            model[v] = val;
        }
    }
}
