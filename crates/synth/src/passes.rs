//! Optimization passes over the [`Aig`].
//!
//! All passes are *rebuilding* passes: they construct a fresh, structurally
//! hashed AIG containing only logic reachable from the outputs, translating
//! node by node in topological order (the node vector is topologically
//! ordered by construction). This keeps every pass safe: the worst a bad
//! heuristic can do is fail to shrink the graph.

use crate::{Aig, AigLit};

/// Standard cofactor patterns for up to 6 truth-table variables.
const VAR_PATTERN: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

fn xlate(map: &[AigLit], lit: AigLit) -> AigLit {
    let m = map[lit.node()];
    if lit.complemented() {
        !m
    } else {
        m
    }
}

fn reachable(aig: &Aig) -> Vec<bool> {
    let mut mark = vec![false; aig.num_nodes()];
    mark[0] = true;
    let mut stack: Vec<usize> = aig.outputs().iter().map(|l| l.node()).collect();
    while let Some(n) = stack.pop() {
        if mark[n] {
            continue;
        }
        mark[n] = true;
        if let Some((a, b)) = aig.and_fanins(n) {
            stack.push(a.node());
            stack.push(b.node());
        }
    }
    for m in mark.iter_mut().take(aig.num_inputs() + 1) {
        *m = true;
    }
    mark
}

/// Structural hashing / dead-node sweep: rebuilds the reachable logic with
/// hashing and trivial-case folding (ABC's `strash`).
pub fn strash(aig: &Aig) -> Aig {
    let live = reachable(aig);
    let mut new = Aig::new(aig.num_inputs());
    let mut map = vec![AigLit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_inputs() {
        map[1 + i] = new.input(i);
    }
    for n in 0..aig.num_nodes() {
        if !live[n] {
            continue;
        }
        if let Some((a, b)) = aig.and_fanins(n) {
            let (ta, tb) = (xlate(&map, a), xlate(&map, b));
            map[n] = new.and(ta, tb);
        }
    }
    for &o in aig.outputs() {
        let lit = xlate(&map, o);
        new.add_output(lit);
    }
    new
}

/// AND-tree balancing: collects maximal single-fanout conjunction trees and
/// rebuilds them depth-optimally (Huffman pairing on levels), reducing the
/// delay metric (ABC's `balance`).
pub fn balance(aig: &Aig) -> Aig {
    let live = reachable(aig);
    let fanout = aig.fanout_counts();
    let mut new = Aig::new(aig.num_inputs());
    let mut map = vec![AigLit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_inputs() {
        map[1 + i] = new.input(i);
    }
    // Levels of `new`, extended as nodes are appended.
    let mut levels = Vec::new();
    for n in 0..aig.num_nodes() {
        if !live[n] {
            continue;
        }
        if aig.and_fanins(n).is_some() {
            // Gather conjunction leaves by descending through
            // non-complemented, single-fanout AND children.
            let mut leaves: Vec<AigLit> = Vec::new();
            let mut stack = vec![AigLit::new(n, false)];
            while let Some(l) = stack.pop() {
                let expandable = !l.complemented()
                    && aig.and_fanins(l.node()).is_some()
                    && (l.node() == n || fanout[l.node()] == 1);
                if expandable {
                    let (a, b) = aig.and_fanins(l.node()).expect("checked");
                    stack.push(a);
                    stack.push(b);
                } else {
                    leaves.push(xlate(&map, l));
                }
            }
            // Pair the two shallowest leaves repeatedly.
            new.extend_levels(&mut levels);
            let mut items: Vec<(usize, AigLit)> = leaves
                .into_iter()
                .map(|l| (levels[l.node()], l))
                .collect();
            while items.len() > 1 {
                items.sort_by_key(|&(lv, _)| std::cmp::Reverse(lv));
                let (la, a) = items.pop().expect("len > 1");
                let (lb, b) = items.pop().expect("len > 1");
                let g = new.and(a, b);
                items.push((la.max(lb) + 1, g));
            }
            map[n] = items.pop().expect("at least one leaf").1;
        }
    }
    for &o in aig.outputs() {
        let lit = xlate(&map, o);
        new.add_output(lit);
    }
    new
}

/// Cut-based local resynthesis (ABC's `rewrite`/`refactor` simplified): for
/// each node, extract a cut of at most `k` (≤ 6) leaves, compute its truth
/// table, resynthesize it by Shannon decomposition, and keep whichever of
/// {original structure, resynthesized structure} adds fewer nodes.
///
/// # Panics
///
/// Panics if `k` is 0 or greater than 6.
pub fn rewrite(aig: &Aig, k: usize) -> Aig {
    assert!((1..=6).contains(&k), "cut size must be 1..=6");
    let live = reachable(aig);
    let fanout = aig.fanout_counts();
    let mut new = Aig::new(aig.num_inputs());
    let mut map = vec![AigLit::FALSE; aig.num_nodes()];
    for i in 0..aig.num_inputs() {
        map[1 + i] = new.input(i);
    }
    let mut memo = Vec::new();
    for n in 0..aig.num_nodes() {
        if !live[n] {
            continue;
        }
        let Some((a, b)) = aig.and_fanins(n) else {
            continue;
        };
        let cut = find_cut(aig, n, k, &fanout);
        let candidate = if cut.len() <= k {
            let tt = truth_table(aig, n, &cut, &mut memo);
            let leaf_lits: Vec<AigLit> = cut.iter().map(|&c| map[c]).collect();
            // Try resynthesis first, then the plain translation; pick the
            // variant that grew the graph least (dead nodes are swept by the
            // next strash).
            let before = new.num_nodes();
            let resynth = synth_tt(&mut new, tt, &leaf_lits, cut.len());
            let added_resynth = new.num_nodes() - before;
            let before2 = new.num_nodes();
            let plain = {
                let (ta, tb) = (xlate(&map, a), xlate(&map, b));
                new.and(ta, tb)
            };
            let added_plain = new.num_nodes() - before2;
            if added_resynth < added_plain {
                resynth
            } else {
                plain
            }
        } else {
            let (ta, tb) = (xlate(&map, a), xlate(&map, b));
            new.and(ta, tb)
        };
        map[n] = candidate;
    }
    for &o in aig.outputs() {
        let lit = xlate(&map, o);
        new.add_output(lit);
    }
    strash(&new)
}

/// Greedily grows a cut from `root`, expanding AND nodes (preferring
/// single-fanout ones) while the leaf set stays within `k`. Returns leaf
/// node indices, deterministic order.
fn find_cut(aig: &Aig, root: usize, k: usize, fanout: &[u32]) -> Vec<usize> {
    let mut leaves: Vec<usize> = Vec::new();
    let (a, b) = aig.and_fanins(root).expect("cut of an AND node");
    leaves.push(a.node());
    if !leaves.contains(&b.node()) {
        leaves.push(b.node());
    }
    loop {
        // Find the best expandable leaf: an AND node whose expansion keeps
        // the leaf count within k; prefer single-fanout leaves.
        let mut best: Option<(usize, usize)> = None; // (score, position)
        for (pos, &leaf) in leaves.iter().enumerate() {
            let Some((la, lb)) = aig.and_fanins(leaf) else {
                continue;
            };
            let mut grow = 0usize;
            if !leaves.contains(&la.node()) {
                grow += 1;
            }
            if !leaves.contains(&lb.node()) && la.node() != lb.node() {
                grow += 1;
            }
            if leaves.len() - 1 + grow > k {
                continue;
            }
            let score = if fanout[leaf] == 1 { 0 } else { 1 };
            if best.map(|(s, _)| score < s).unwrap_or(true) {
                best = Some((score, pos));
            }
        }
        match best {
            Some((_, pos)) => {
                let leaf = leaves.swap_remove(pos);
                let (la, lb) = aig.and_fanins(leaf).expect("expandable");
                if !leaves.contains(&la.node()) {
                    leaves.push(la.node());
                }
                if !leaves.contains(&lb.node()) {
                    leaves.push(lb.node());
                }
            }
            None => break,
        }
    }
    leaves.sort_unstable();
    leaves
}

/// Truth table of node `root` as a function of the cut leaves (≤ 6).
///
/// `memo` is the caller's reused `(node, table)` scratch: a cut's cone is a
/// handful of nodes, so a linear scan beats hashing and nothing is
/// allocated per call.
fn truth_table(aig: &Aig, root: usize, cut: &[usize], memo: &mut Vec<(usize, u64)>) -> u64 {
    memo.clear();
    memo.push((0, 0)); // constant node
    memo.extend(
        cut.iter()
            .enumerate()
            .map(|(i, &leaf)| (leaf, VAR_PATTERN[i])),
    );
    fn rec(aig: &Aig, n: usize, memo: &mut Vec<(usize, u64)>) -> u64 {
        if let Some(&(_, v)) = memo.iter().find(|&&(m, _)| m == n) {
            return v;
        }
        let (a, b) = aig
            .and_fanins(n)
            .expect("inner cone nodes are AND nodes");
        let va = rec(aig, a.node(), memo) ^ if a.complemented() { !0 } else { 0 };
        let vb = rec(aig, b.node(), memo) ^ if b.complemented() { !0 } else { 0 };
        let v = va & vb;
        memo.push((n, v));
        v
    }
    let tt = rec(aig, root, memo);
    tt & mask(cut.len())
}

fn mask(vars: usize) -> u64 {
    if vars >= 6 {
        !0
    } else {
        (1u64 << (1 << vars)) - 1
    }
}

/// Shannon-decomposition resynthesis of a truth table over the given leaf
/// literals. Structural hashing provides sharing between cofactors.
fn synth_tt(aig: &mut Aig, tt: u64, leaves: &[AigLit], vars: usize) -> AigLit {
    let m = mask(vars);
    let tt = tt & m;
    if tt == 0 {
        return AigLit::FALSE;
    }
    if tt == m {
        return AigLit::TRUE;
    }
    debug_assert!(vars > 0, "non-constant table needs variables");
    // Split on the highest variable: low half = cofactor at 0, high = at 1.
    let v = vars - 1;
    let half = 1usize << v;
    let (f0, f1) = if vars == 6 {
        (tt & mask(5), tt >> 32)
    } else {
        let low_mask = (1u64 << half) - 1;
        (tt & low_mask, (tt >> half) & low_mask)
    };
    // Re-expand cofactors to full patterns of `v` variables.
    let r0 = synth_tt(aig, spread(f0, v), leaves, v);
    let r1 = synth_tt(aig, spread(f1, v), leaves, v);
    let s = leaves[v];
    if r0 == r1 {
        return r0;
    }
    if r0 == !r1 {
        // f = s ? r1 : !r1  =  s XNOR r1... check: s=0 -> r0 = !r1. So
        // f = (s & r1) | (!s & !r1) = XNOR(s, r1).
        return !aig.xor_lit(s, r1);
    }
    aig.mux(s, r1, r0)
}

/// Repeats a `2^vars`-bit table to fill the 64-bit word (so recursion can
/// keep using the same VAR_PATTERN masks).
fn spread(tt: u64, vars: usize) -> u64 {
    let bits = 1usize << vars;
    if bits >= 64 {
        return tt;
    }
    let mut out = tt & ((1u64 << bits) - 1);
    let mut width = bits;
    while width < 64 {
        out |= out << width;
        width *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::rng::SplitMix64;

    fn random_aig(seed: u64, inputs: usize, gates: usize) -> Aig {
        let mut rng = SplitMix64::new(seed);
        let mut aig = Aig::new(inputs);
        let mut lits: Vec<AigLit> = (0..inputs).map(|i| aig.input(i)).collect();
        for _ in 0..gates {
            let a = lits[rng.below_usize(lits.len())];
            let b = lits[rng.below_usize(lits.len())];
            let a = if rng.bool() { !a } else { a };
            let b = if rng.bool() { !b } else { b };
            let g = aig.and(a, b);
            lits.push(g);
        }
        for _ in 0..4 {
            let o = lits[lits.len() - 1 - rng.below_usize(lits.len() / 2)];
            aig.add_output(if rng.bool() { !o } else { o });
        }
        aig
    }

    fn assert_equiv(a: &Aig, b: &Aig, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        assert_eq!(a.num_inputs(), b.num_inputs());
        for _ in 0..32 {
            let input: Vec<u64> = (0..a.num_inputs()).map(|_| rng.next_u64()).collect();
            assert_eq!(a.eval_words(&input), b.eval_words(&input));
        }
    }

    #[test]
    fn strash_preserves_function() {
        for seed in 0..5 {
            let aig = random_aig(seed, 8, 60);
            let s = strash(&aig);
            assert_equiv(&aig, &s, seed + 100);
            assert!(s.num_ands() <= aig.num_ands());
        }
    }

    #[test]
    fn balance_preserves_function_and_depth_not_worse_much() {
        for seed in 0..5 {
            let aig = random_aig(seed, 8, 80);
            let b = balance(&aig);
            assert_equiv(&aig, &b, seed + 200);
        }
    }

    #[test]
    fn balance_flattens_chain() {
        // A linear 8-input AND chain (depth 7) balances to depth 3.
        let mut aig = Aig::new(8);
        let mut acc = aig.input(0);
        for i in 1..8 {
            let x = aig.input(i);
            acc = aig.and(acc, x);
        }
        aig.add_output(acc);
        assert_eq!(aig.depth(), 7);
        let b = balance(&aig);
        assert_eq!(b.depth(), 3);
        assert_equiv(&aig, &b, 42);
    }

    #[test]
    fn rewrite_preserves_function() {
        for seed in 0..8 {
            let aig = random_aig(seed, 10, 120);
            let r = rewrite(&aig, 4);
            assert_equiv(&aig, &r, seed + 300);
            let r6 = rewrite(&aig, 6);
            assert_equiv(&aig, &r6, seed + 400);
        }
    }

    #[test]
    fn rewrite_removes_redundancy() {
        // Build and(a, and(a, b)) style redundancy that plain strash cannot
        // see but a 2-input cut truth table can: f = a & (a & b) == a & b.
        let mut aig = Aig::new(2);
        let a = aig.input(0);
        let b = aig.input(1);
        let inner = aig.and(a, b);
        let outer = aig.and(a, inner);
        aig.add_output(outer);
        assert_eq!(aig.num_ands(), 2);
        let r = rewrite(&aig, 4);
        assert_equiv(&aig, &r, 7);
        assert_eq!(r.num_ands(), 1, "redundant conjunction should collapse");
    }

    #[test]
    fn synth_tt_reproduces_tables() {
        // For every 3-variable truth table, resynthesize and compare.
        for tt in 0u64..256 {
            let mut aig = Aig::new(3);
            let leaves = [aig.input(0), aig.input(1), aig.input(2)];
            let lit = synth_tt(&mut aig, tt, &leaves, 3);
            aig.add_output(lit);
            for m in 0..8u64 {
                let input = [(m & 1) != 0, (m & 2) != 0, (m & 4) != 0];
                let expect = (tt >> m) & 1 == 1;
                assert_eq!(aig.eval_bools(&input)[0], expect, "tt={tt:#x} m={m}");
            }
        }
    }

    #[test]
    fn spread_fills_word() {
        assert_eq!(spread(0b10, 1), 0xAAAA_AAAA_AAAA_AAAA);
        assert_eq!(spread(0b1100, 2), 0xCCCC_CCCC_CCCC_CCCC);
    }

    #[test]
    fn var_patterns_are_cofactor_masks() {
        for (i, &p) in VAR_PATTERN.iter().enumerate() {
            for m in 0..64u64 {
                let expect = (m >> i) & 1 == 1;
                assert_eq!((p >> m) & 1 == 1, expect, "var {i} minterm {m}");
            }
        }
    }
}
