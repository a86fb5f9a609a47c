//! The ordering dataflow (paper §4.1).
//!
//! The paper derives node orderings from two rules, *"similar to the
//! `SCPⁿ(k)` lattice of Callahan and Subhlok"*:
//!
//! 1. if `r` dominates `s` in the control-flow graph of their task, `r`
//!    must precede `s`;
//! 2. if for all sync edges `{r, s}`, `s` precedes some node `t`, then `r`
//!    must precede `t`.
//!
//! What the refined algorithm actually needs from this analysis is
//! **wave exclusion**: `SEQUENCEABLE[h]` must contain only nodes that can
//! never sit on an execution wave together with `h` (two such nodes cannot
//! both be deadlock heads, constraint 3a). We therefore compute the
//! relation in that form directly:
//!
//! > `executed_before(a, b)` — in every execution, by the time `b` is on
//! > the wave, `a` has already executed.
//!
//! as the least fixpoint of
//!
//! * `X(a, b)` if `b` is not initial and **every** control predecessor `p`
//!   of `b` satisfies `Y(a, p)`, where
//! * `Y(a, p)` ("by the time `p` finishes executing, `a` has executed") if
//!   `a = p`, or `X(a, p)`, or `p` has at least one sync partner and every
//!   partner `q` satisfies `a = q ∨ X(a, q)`.
//!
//! Rule 1 is the `a = p` chain along a task (dominance falls out
//! inductively), rule 2 is the partner clause — including the dual
//! direction the paper's own Figure-1 walk-through uses (*"s can rendezvous
//! only with v, and s must follow r; therefore v must execute after r"*).
//! Two nodes of the *same* task are always wave-exclusive (a wave holds one
//! node per task), which additionally enforces deadlock-cycle constraint 1c
//! for the hypothesised head's task.
//!
//! # Column form
//!
//! The condition for `X(a, b)` reads only `X(a, ·)`, so every `a` can be
//! solved at once: one 64-lane [`BitSet`] column `X(·, b)` per node,
//!
//! * `X(·, b) = ⋂_{p ∈ preds(b)} Y(·, p) ∖ {b}`,
//! * `Y(·, p) = {p} ∪ X(·, p) ∪ [partners(p) ≠ ∅] ⋂_q ({q} ∪ X(·, q))`,
//!
//! with initial and unreachable `b` keeping an empty column. Column `b`
//! *reads* column `c` when `c` is a control predecessor of `b` or a
//! partner of one. The columns grow from `∅`, one strong component of
//! that read graph at a time in topological order, each component swept
//! until none of its columns is pending; a column that grows marks its
//! readers pending. On control-acyclic graphs (this module's contract)
//! the read graph is mostly acyclic, so most columns are evaluated once,
//! after every column they read. The equations are monotone, so any such
//! iteration reaches the same least fixpoint as the per-row formulation.
//! The sweep probes the caller's [`Budget`] once per 64 column
//! evaluations.
//!
//! The finish-before-start relation `S` ([`FinishOrder`]) is built on
//! demand from `X`: only the constraint-4 rescue, the literal-relation
//! ablation, the exact checker's finish-before constraint, and the
//! Theorem 2 checks read it, and the verdict path never does.

use iwa_core::{Budget, IwaError};
use iwa_graphs::{transpose, BitMatrix, BitSet, GraphBuilder, Scc};
use iwa_syncgraph::{SyncGraph, B};

/// How many column evaluations run between two budget probes.
const PROBE_COLUMNS: u64 = 64;

/// The wave-exclusion relation of a sync graph.
///
/// The paper's single word "sequenceable" covers two semantically
/// different orders:
///
/// * [`executed_before`](SequenceInfo::executed_before) /
///   [`wave_exclusive`](SequenceInfo::wave_exclusive) — **wave exclusion**:
///   `a` is already executed whenever `b` is on the wave. This is the
///   relation the *refined algorithm's marking* needs: two wave-exclusive
///   nodes cannot both be deadlock heads. It is the only sound choice
///   there — see below.
/// * [`FinishOrder::finishes_before`] — the paper's literal reading, *"one
///   must always finish executing before the other starts"*: in every
///   execution in which `b` fires, `a` fired strictly earlier. This is the
///   relation the **Theorem 2 construction** relies on (its ordering tasks
///   force exactly such orderings), so the exact checker uses it when
///   validating that reduction.
///
/// **Contract: acyclic control flow.** Both relations are consumed after
/// Lemma-1 unrolling. On graphs *with* control cycles, `executed_before`
/// still means "a fired at least once before b waves", but a fired node
/// can re-enter the wave on a later iteration, so wave *exclusion* no
/// longer follows — apply `unroll_twice` first, as the certify driver
/// does. (The property fuzzers pin this boundary.)
///
/// The two genuinely differ, and mixing them up breaks things in both
/// directions: the heads of the plain crossed deadlock (`t1: send a;
/// accept b` / `t2: send b; accept a`) satisfy finish-before-start — each
/// send fires before the opposite send can fire — yet they sit together on
/// the deadlocked wave, so marking with finish-before-start would certify
/// a deadlocking program (the `paper_sequence_relation` option demonstrates
/// this empirically); conversely wave-exclusion is too weak to kill the
/// Theorem-2 ordering-task detours.
#[derive(Clone, Debug)]
pub struct SequenceInfo {
    /// `columns[b].contains(a)` ⇔ `X(a, b)` above. Indexed by sync-graph
    /// node (entries `0`/`1` — `b`/`e` — stay empty).
    columns: Vec<BitSet>,
    /// Precomputed wave-exclusion rows: `excl[h]` = all nodes wave-exclusive
    /// with `h` (`X` row ∪ `Xᵀ` row ∪ same-task nodes, minus `h`). The
    /// refined algorithm's `SEQUENCEABLE[h]` marking consumes whole rows at
    /// once, so they are materialised here as 64-lane word sets instead of
    /// being re-derived scalar-by-scalar per head hypothesis.
    excl: Vec<BitSet>,
    /// Bitset words processed by the whole-set operations of
    /// [`compute_budgeted`](SequenceInfo::compute_budgeted).
    word_ops: u64,
}

impl SequenceInfo {
    /// Run the fixpoint on `sg` with no budget.
    #[must_use]
    pub fn compute(sg: &SyncGraph) -> SequenceInfo {
        SequenceInfo::compute_budgeted(sg, &Budget::unlimited())
            .expect("an unlimited budget never trips")
    }

    /// Run the fixpoint on `sg`, probing `budget` (wall clock and cancel
    /// token, no steps) once per 64 column evaluations.
    ///
    /// Cost: each column evaluation is `O((|preds| + |partners|) · N/64)`
    /// word operations; a column is re-evaluated only when a column it
    /// reads grew, which outside strong components of the read graph
    /// never happens.
    ///
    /// # Errors
    ///
    /// [`IwaError::BudgetExceeded`] when a probe finds the deadline passed
    /// or the cancel token set.
    pub fn compute_budgeted(sg: &SyncGraph, budget: &Budget) -> Result<SequenceInfo, IwaError> {
        let n = sg.num_nodes();
        let words = BitSet::new(n).num_words() as u64;
        let mut word_ops = 0u64;

        // Columns the equations can grow: rendezvous nodes with at least
        // one control predecessor, none of them `b`.
        let mut live = BitSet::new(n);
        for v in sg.rendezvous_nodes() {
            let ps = sg.control.predecessors(v);
            if !ps.is_empty() && !ps.contains(&(B as u32)) {
                live.insert(v);
            }
        }
        // Which columns read which: `c → b` when `c` is a control
        // predecessor of `b` or a partner of one.
        let mut reads = GraphBuilder::with_nodes(n);
        for b in live.iter_ones() {
            for &p in sg.control.predecessors(b) {
                reads.add_arc(p as usize, b);
                for &q in sg.sync_neighbors(p as usize) {
                    reads.add_arc(q as usize, b);
                }
            }
        }
        let reads = reads.freeze();
        // Evaluation order: the strong components of `reads` in
        // topological order (Tarjan numbers them in reverse), each swept
        // in node order until none of its columns is pending. On a
        // control-acyclic graph most components are single columns,
        // evaluated once after everything they read.
        let scc = Scc::compute(&reads, None);
        let mut dirty = live.clone();
        let mut columns = vec![BitSet::new(n); n];
        let mut scratch = Scratch::new(n);
        let mut evaluated = 0u64;
        for component in scc.members.iter().rev() {
            let mut members = component.clone();
            members.sort_unstable();
            while members.iter().any(|&v| dirty.contains(v as usize)) {
                for &v in &members {
                    let b = v as usize;
                    if !dirty.remove(b) {
                        continue;
                    }
                    if evaluated.is_multiple_of(PROBE_COLUMNS) {
                        budget.probe("ordering dataflow")?;
                    }
                    evaluated += 1;
                    word_ops += scratch.evaluate(sg, &columns, b) + words;
                    if columns[b].union_with(&scratch.acc) {
                        for &d in reads.successors(b) {
                            dirty.insert(d as usize);
                        }
                    }
                }
            }
        }

        // Materialise the wave-exclusion rows: the X row (the transposed
        // columns) ∪ the X column ∪ the node's task, minus the node.
        let mut excl = transpose(&columns, n);
        word_ops += words * words * 64; // one pass over 64×64 blocks
        for (row, column) in excl.iter_mut().zip(&columns) {
            row.union_with(column);
            word_ops += words;
        }
        let mut mask = BitSet::new(n);
        for t in 0..sg.num_tasks {
            let task = iwa_core::TaskId(t as u32);
            mask.clear();
            for &v in sg.nodes_of_task(task) {
                mask.insert(v as usize);
            }
            for &v in sg.nodes_of_task(task) {
                excl[v as usize].union_with(&mask);
                word_ops += words;
            }
        }
        for (a, row) in excl.iter_mut().enumerate() {
            row.remove(a); // irreflexive
        }

        Ok(SequenceInfo {
            columns,
            excl,
            word_ops,
        })
    }

    /// Must `a` be executed (past) whenever `b` is on the wave?
    #[must_use]
    pub fn executed_before(&self, a: usize, b: usize) -> bool {
        self.columns[b].contains(a)
    }

    /// Can `a` and `b` never be on an execution wave simultaneously?
    ///
    /// True when either order is forced, or when they belong to the same
    /// task (a wave holds exactly one node per task). This is the
    /// `SEQUENCEABLE` test of the refined algorithm.
    #[must_use]
    pub fn wave_exclusive(&self, sg: &SyncGraph, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        if sg.node(a).task == sg.node(b).task {
            return true;
        }
        self.executed_before(a, b) || self.executed_before(b, a)
    }

    /// `SEQUENCEABLE[h]` as a precomputed bit row (all nodes wave-exclusive
    /// with `h`), ready for whole-row union into a ban set.
    #[must_use]
    pub fn wave_exclusive_row(&self, h: usize) -> &BitSet {
        &self.excl[h]
    }

    /// `SEQUENCEABLE[h]`: all nodes wave-exclusive with `h`.
    #[must_use]
    pub fn sequenceable_with(&self, sg: &SyncGraph, h: usize) -> Vec<usize> {
        let _ = sg;
        self.excl[h].to_vec()
    }

    /// Number of ordered pairs derived (diagnostic).
    #[must_use]
    pub fn num_ordered_pairs(&self) -> usize {
        self.columns.iter().map(BitSet::count).sum()
    }

    /// Bitset words the computation processed: the deterministic work
    /// count behind [`Counters::sequence_word_ops`](iwa_core::Counters).
    #[must_use]
    pub fn word_ops(&self) -> u64 {
        self.word_ops
    }
}

/// Working sets for one column evaluation.
struct Scratch {
    /// The evaluated column `X(·, b)`.
    acc: BitSet,
    /// `Y(·, p)` of the predecessor at hand.
    y: BitSet,
    /// The partner meet `⋂_q ({q} ∪ X(·, q))`.
    meet: BitSet,
}

impl Scratch {
    fn new(n: usize) -> Scratch {
        Scratch {
            acc: BitSet::new(n),
            y: BitSet::new(n),
            meet: BitSet::new(n),
        }
    }

    /// `X(·, b)` from the current columns into `acc`; returns the bitset
    /// words processed.
    fn evaluate(&mut self, sg: &SyncGraph, columns: &[BitSet], b: usize) -> u64 {
        let words = self.acc.num_words() as u64;
        let mut ops = 0;
        for (i, &p) in sg.control.predecessors(b).iter().enumerate() {
            let p = p as usize;
            self.y.copy_from(&columns[p]);
            self.y.insert(p);
            ops += words;
            if let Some((&q0, rest)) = sg.sync_neighbors(p).split_first() {
                self.meet.copy_from(&columns[q0 as usize]);
                self.meet.insert(q0 as usize);
                ops += words;
                for &q in rest {
                    // meet ∩ ({q} ∪ X(·, q))
                    let q = q as usize;
                    let had_q = self.meet.contains(q);
                    self.meet.intersect_with(&columns[q]);
                    if had_q {
                        self.meet.insert(q);
                    }
                    ops += words;
                }
                self.y.union_with(&self.meet);
                ops += words;
            }
            if i == 0 {
                self.acc.copy_from(&self.y);
            } else {
                self.acc.intersect_with(&self.y);
            }
            ops += words;
        }
        self.acc.remove(b);
        ops
    }
}

/// The finish-before-start relation `S` (the paper's literal
/// "sequenceable"), built on demand from a [`SequenceInfo`]; see there for
/// why the refined marking must not use it.
#[derive(Clone, Debug)]
pub struct FinishOrder {
    /// `finishes_before.get(a, b)` ⇔ `S(a, b)`: every execution firing `b`
    /// fired `a` strictly earlier.
    finishes_before: BitMatrix,
}

impl FinishOrder {
    /// The least fixpoint of:
    ///
    /// * `S(a, b)` if `a` strictly dominates `b` in `b`'s task (firing `b`
    ///   implies the task already fired `a`);
    /// * `S(a, b)` if `X(a, b)` (executed before `b` even waves);
    /// * `S(a, b)` if `b` has ≥ 1 partner and all partners `q` have
    ///   `S(a, q)` (`b` fires simultaneously with one of them);
    /// * `S` transitively closed;
    ///
    /// made irreflexive.
    #[must_use]
    pub fn compute(sg: &SyncGraph, seq: &SequenceInfo) -> FinishOrder {
        let n = sg.num_nodes();
        let mut s = BitMatrix::new(n, n);
        for (b, column) in seq.columns.iter().enumerate() {
            for a in column.iter_ones() {
                s.set(a, b);
            }
        }
        // Dominance seeds, per task.
        for t in 0..sg.num_tasks {
            let task = iwa_core::TaskId(t as u32);
            let view = sg.task_control_view(task);
            let dom = iwa_graphs::Dominators::compute(&view, B);
            let nodes = sg.nodes_of_task(task);
            for &a in nodes {
                for &b in nodes {
                    if a != b && dom.dominates(a as usize, b as usize) {
                        s.set(a as usize, b as usize);
                    }
                }
            }
        }
        loop {
            let mut changed = false;
            // Partner rule.
            for b in sg.rendezvous_nodes() {
                let partners = sg.sync_neighbors(b);
                if partners.is_empty() {
                    continue;
                }
                for a in sg.rendezvous_nodes() {
                    if a == b || s.get(a, b) {
                        continue;
                    }
                    if partners.iter().all(|&q| s.get(a, q as usize)) {
                        s.set(a, b);
                        changed = true;
                    }
                }
            }
            // Transitive closure: row(a) |= row(c) for each c in row(a).
            for a in sg.rendezvous_nodes() {
                let cs: Vec<usize> = s.row_iter(a).collect();
                for c in cs {
                    changed |= s.or_row_into(c, a);
                }
            }
            if !changed {
                break;
            }
        }
        // Strictness: a node never fires strictly before itself.
        for a in 0..n {
            s.unset(a, a);
        }
        FinishOrder { finishes_before: s }
    }

    /// Does `a` fire strictly before `b` in every execution that fires `b`
    /// (the paper's literal "finish before the other starts")?
    #[must_use]
    pub fn finishes_before(&self, a: usize, b: usize) -> bool {
        self.finishes_before.get(a, b)
    }

    /// The paper's literal sequenceable relation: ordered one way or the
    /// other under finish-before-start, or same task.
    #[must_use]
    pub fn paper_sequenceable(&self, sg: &SyncGraph, a: usize, b: usize) -> bool {
        if a == b {
            return false;
        }
        if sg.node(a).task == sg.node(b).task {
            return true;
        }
        self.finishes_before(a, b) || self.finishes_before(b, a)
    }
}

/// The per-row formulation the column dataflow replaced, kept as the
/// reference the tests pin it against.
#[cfg(test)]
mod reference {
    use super::*;

    /// `X` (rows = `a`), `S`, and the wave-exclusion rows.
    pub(super) struct Reference {
        pub x: BitMatrix,
        pub s: BitMatrix,
        pub excl: Vec<BitSet>,
    }

    pub(super) fn compute(sg: &SyncGraph) -> Reference {
        let n = sg.num_nodes();
        let mut x = BitMatrix::new(n, n);
        let preds: Vec<Vec<usize>> = (0..n)
            .map(|b| {
                sg.control
                    .predecessors(b)
                    .iter()
                    .map(|&p| p as usize)
                    .collect()
            })
            .collect();
        for a in sg.rendezvous_nodes() {
            // Fixpoint for row `a`: X(a, ·).
            loop {
                let mut changed = false;
                for b in sg.rendezvous_nodes() {
                    if b == a || x.get(a, b) {
                        continue;
                    }
                    let ps = &preds[b];
                    if ps.is_empty() || ps.contains(&B) {
                        continue; // initial or unreachable: never excluded
                    }
                    let all = ps.iter().all(|&p| {
                        // Y(a, p)
                        if p == a || x.get(a, p) {
                            return true;
                        }
                        let partners = sg.sync_neighbors(p);
                        !partners.is_empty()
                            && partners
                                .iter()
                                .all(|&q| q as usize == a || x.get(a, q as usize))
                    });
                    if all {
                        x.set(a, b);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        let mut s = x.clone();
        for t in 0..sg.num_tasks {
            let task = iwa_core::TaskId(t as u32);
            let view = sg.task_control_view(task);
            let dom = iwa_graphs::Dominators::compute(&view, B);
            let nodes = sg.nodes_of_task(task);
            for &a in nodes {
                for &b in nodes {
                    if a != b && dom.dominates(a as usize, b as usize) {
                        s.set(a as usize, b as usize);
                    }
                }
            }
        }
        loop {
            let mut changed = false;
            for b in sg.rendezvous_nodes() {
                let partners = sg.sync_neighbors(b);
                if partners.is_empty() {
                    continue;
                }
                for a in sg.rendezvous_nodes() {
                    if a == b || s.get(a, b) {
                        continue;
                    }
                    if partners.iter().all(|&q| s.get(a, q as usize)) {
                        s.set(a, b);
                        changed = true;
                    }
                }
            }
            for a in sg.rendezvous_nodes() {
                let cs: Vec<usize> = s.row_iter(a).collect();
                for c in cs {
                    changed |= s.or_row_into(c, a);
                }
            }
            if !changed {
                break;
            }
        }
        for a in 0..n {
            s.unset(a, a);
        }

        let mut excl: Vec<BitSet> = vec![BitSet::new(n); n];
        for a in sg.rendezvous_nodes() {
            let row = x.row(a);
            for b in row.iter_ones() {
                excl[b].insert(a);
            }
            excl[a].union_with(&row);
        }
        for t in 0..sg.num_tasks {
            let task = iwa_core::TaskId(t as u32);
            let mut mask = BitSet::new(n);
            for &v in sg.nodes_of_task(task) {
                mask.insert(v as usize);
            }
            for &v in sg.nodes_of_task(task) {
                excl[v as usize].union_with(&mask);
            }
        }
        for (a, row) in excl.iter_mut().enumerate() {
            row.remove(a);
        }
        Reference { x, s, excl }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwa_tasklang::transforms::{inline_procs, unroll_twice};
    use iwa_tasklang::{parse, Program};
    use iwa_workloads::{
        adversarial, classics, figures, random_balanced, random_structured, BalancedConfig,
        StructuredConfig,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn info(src: &str) -> (SyncGraph, SequenceInfo) {
        let sg = SyncGraph::from_program(&parse(src).unwrap());
        let seq = SequenceInfo::compute(&sg);
        (sg, seq)
    }

    fn finish(src: &str) -> (SyncGraph, FinishOrder) {
        let (sg, seq) = info(src);
        let fo = FinishOrder::compute(&sg, &seq);
        (sg, fo)
    }

    /// The analysed image of `p`: procedures inlined, loops unrolled.
    fn analysed(p: &Program) -> SyncGraph {
        let p = if p.has_calls() { inline_procs(p).unwrap() } else { p.clone() };
        let p = if p.is_loop_free() { p } else { unroll_twice(&p) };
        SyncGraph::from_program(&p)
    }

    /// A `hops`-hop request/response chain (`hop0 → … → hopN` and back).
    fn relay_chain(hops: usize) -> Program {
        let mut src = String::new();
        for i in 0..=hops {
            src.push_str(&format!("task hop{i} {{ "));
            if i > 0 {
                src.push_str("accept fwd; ");
            }
            if i < hops {
                src.push_str(&format!("send hop{}.fwd; accept back; ", i + 1));
            }
            if i > 0 {
                src.push_str(&format!("send hop{}.back; ", i - 1));
            }
            src.push_str("}\n");
        }
        parse(&src).unwrap()
    }

    /// Pin the column dataflow and the on-demand `S` against the per-row
    /// reference on every node pair.
    fn assert_matches_reference(sg: &SyncGraph) -> Result<(), TestCaseError> {
        let seq = SequenceInfo::compute(sg);
        let fo = FinishOrder::compute(sg, &seq);
        let r = reference::compute(sg);
        let n = sg.num_nodes();
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(seq.executed_before(a, b), r.x.get(a, b), "X({}, {})", a, b);
                prop_assert_eq!(fo.finishes_before(a, b), r.s.get(a, b), "S({}, {})", a, b);
            }
            prop_assert_eq!(seq.wave_exclusive_row(a), &r.excl[a], "excl[{}]", a);
        }
        let pairs: usize = (0..n).map(|a| r.x.row_count(a)).sum();
        prop_assert_eq!(seq.num_ordered_pairs(), pairs);
        Ok(())
    }

    proptest! {
        #[test]
        fn columns_match_the_reference_on_structured_programs(
            seed in 0u64..1_000_000,
            loopy in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = random_structured(
                &mut rng,
                &StructuredConfig {
                    tasks: 3,
                    rendezvous_per_task: 4,
                    branch_prob: 0.3,
                    loop_prob: if loopy == 1 { 0.2 } else { 0.0 },
                    message_types: 2,
                },
            );
            assert_matches_reference(&analysed(&p))?;
            // The least fixpoint does not depend on the evaluation order,
            // so the columns match even off the acyclic contract.
            assert_matches_reference(&SyncGraph::from_program(&p))?;
        }

        #[test]
        fn columns_match_the_reference_on_balanced_programs(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = random_balanced(
                &mut rng,
                &BalancedConfig { tasks: 4, events: 8, message_types: 2, swaps: 4 },
            );
            assert_matches_reference(&analysed(&p))?;
        }
    }

    #[test]
    fn columns_match_the_reference_on_figures_and_generators() {
        let mut inputs: Vec<(String, Program)> = figures::all_figures()
            .into_iter()
            .map(|(name, p)| (name.to_owned(), p))
            .collect();
        for n in [2, 3, 5] {
            inputs.push((format!("token_ring-{n}"), classics::token_ring(n)));
            inputs.push((format!("token_ring_broken-{n}"), classics::token_ring_broken(n)));
            inputs.push((format!("relay_chain-{n}"), relay_chain(n)));
            inputs.push((format!("pipeline-{n}"), classics::pipeline(n, 2)));
            inputs.push((format!("pipeline_looping-{n}"), classics::pipeline_looping(n)));
            for ordered in [true, false] {
                inputs.push((
                    format!("rendezvous_mesh-{n}-{ordered}"),
                    adversarial::rendezvous_mesh(n, ordered),
                ));
            }
        }
        for (name, p) in &inputs {
            if let Err(e) = assert_matches_reference(&analysed(p)) {
                panic!("{name}: {e:?}");
            }
        }
    }

    #[test]
    fn word_ops_are_deterministic_and_nonzero() {
        let sg = analysed(&classics::token_ring(4));
        let a = SequenceInfo::compute(&sg);
        let b = SequenceInfo::compute(&sg);
        assert!(a.word_ops() > 0);
        assert_eq!(a.word_ops(), b.word_ops());
    }

    #[test]
    fn an_expired_budget_trips_the_dataflow() {
        let sg = analysed(&classics::token_ring(4));
        let dead = Budget::with_deadline(Duration::ZERO);
        let err = SequenceInfo::compute_budgeted(&sg, &dead).unwrap_err();
        assert!(err.to_string().contains("ordering dataflow"), "{err}");
        let cancelled = Budget::unlimited();
        cancelled.cancel_token().cancel();
        assert!(SequenceInfo::compute_budgeted(&sg, &cancelled).is_err());
        // Probing consumes no steps.
        let counted = Budget::unlimited();
        SequenceInfo::compute_budgeted(&sg, &counted).unwrap();
        assert_eq!(counted.steps(), 0);
    }

    #[test]
    fn straight_line_chain_orders_by_partner_execution() {
        // t1's first send must have executed before t2 can stand at its
        // second accept.
        let (sg, seq) = info(
            "task t1 { send t2.a as s1; send t2.b as s2; }
             task t2 { accept a as r1; accept b as r2; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let r2 = sg.node_by_label("r2").unwrap();
        let r1 = sg.node_by_label("r1").unwrap();
        let s2 = sg.node_by_label("s2").unwrap();
        assert!(seq.executed_before(s1, r2), "s1 executed before r2 waves");
        assert!(seq.executed_before(r1, s2), "r1 executed before s2 waves");
        assert!(!seq.executed_before(s1, r1), "s1 and r1 wave together");
        assert!(seq.wave_exclusive(&sg, s1, r2));
        assert!(!seq.wave_exclusive(&sg, s1, r1));
    }

    #[test]
    fn same_task_nodes_are_always_wave_exclusive() {
        let (sg, seq) = info(
            "task t1 { send t2.a as s1; send t2.b as s2; }
             task t2 { accept a; accept b; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let s2 = sg.node_by_label("s2").unwrap();
        assert!(seq.wave_exclusive(&sg, s1, s2));
        assert!(!seq.wave_exclusive(&sg, s1, s1), "irreflexive");
    }

    #[test]
    fn figure_1_refinement_r_before_v() {
        // The paper's Figure 1: v must execute after r because t2 can pass
        // its accept (t or u) only by rendezvousing with r.
        let (sg, seq) = info(
            "task t1 { send t2.sig1 as r; accept sig2 as s; }
             task t2 {
                if { accept sig1 as t; } else { accept sig1 as u; }
                send t1.sig2 as v;
             }",
        );
        let r = sg.node_by_label("r").unwrap();
        let v = sg.node_by_label("v").unwrap();
        assert!(
            seq.executed_before(r, v),
            "r executed before v can be on the wave"
        );
        assert!(seq.wave_exclusive(&sg, r, v));
    }

    #[test]
    fn branches_with_different_partners_stay_unordered() {
        // t2's second node can be reached after syncing with either of two
        // *different* senders, so no single sender is forced-executed.
        let (sg, seq) = info(
            "task p1 { send t2.a as sa; }
             task p2 { send t2.b as sb; }
             task t2 {
                if { accept a; } else { accept b; }
                accept c as rc;
             }
             task p3 { send t2.c; }",
        );
        let sa = sg.node_by_label("sa").unwrap();
        let sb = sg.node_by_label("sb").unwrap();
        let rc = sg.node_by_label("rc").unwrap();
        assert!(!seq.executed_before(sa, rc));
        assert!(!seq.executed_before(sb, rc));
        assert!(!seq.wave_exclusive(&sg, sa, rc));
    }

    #[test]
    fn initial_nodes_are_never_preceded() {
        let (sg, seq) = info(
            "task t1 { send t2.a as s1; } task t2 { accept a as r1; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let r1 = sg.node_by_label("r1").unwrap();
        for n in sg.rendezvous_nodes() {
            assert!(!seq.executed_before(n, s1));
            assert!(!seq.executed_before(n, r1));
        }
    }

    #[test]
    fn ordering_propagates_across_three_tasks() {
        // t1: s1 then s2. t3 waits for t2's relay, which waits on s1's
        // partner — so s1 executed before t3's accept can wave… check the
        // chain: s1 < r_relay (same-task dominance via partner) etc.
        let (sg, seq) = info(
            "task t1 { send t2.a as s1; }
             task t2 { accept a as r1; send t3.b as s2; }
             task t3 { accept b as r2; accept c as r3; }
             task t4 { send t3.c as s3; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let r3 = sg.node_by_label("r3").unwrap();
        // r3 waves only after r2 executed; r2's only partner is s2; s2
        // waves only after r1 executed; r1's only partner is s1.
        assert!(seq.executed_before(s1, r3));
        let s3 = sg.node_by_label("s3").unwrap();
        assert!(!seq.executed_before(s3, r3), "s3 is r3's own partner");
    }

    #[test]
    fn finish_before_start_orders_crossed_deadlock_heads() {
        // The two relations genuinely differ: the crossed deadlock's sends
        // are finish-before-start ordered (each can only fire after the
        // other's accept waved, hence after the other send fired)… yet they
        // wave together in the deadlock.
        let src = "task t1 { send t2.a as sa; accept b as rb; }
             task t2 { send t1.b as sb; accept a as ra; }";
        let (sg, seq) = info(src);
        let fo = FinishOrder::compute(&sg, &seq);
        let sa = sg.node_by_label("sa").unwrap();
        let sb = sg.node_by_label("sb").unwrap();
        assert!(fo.finishes_before(sa, sb), "sb fires only after sa fired");
        assert!(fo.finishes_before(sb, sa), "and symmetrically");
        assert!(fo.paper_sequenceable(&sg, sa, sb));
        assert!(
            !seq.wave_exclusive(&sg, sa, sb),
            "but they CAN wave together (and deadlock)"
        );
    }

    #[test]
    fn finish_before_start_includes_dominance_and_wave_order() {
        let (sg, fo) = finish(
            "task t1 { send t2.a as s1; send t2.b as s2; }
             task t2 { accept a as r1; accept b as r2; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let s2 = sg.node_by_label("s2").unwrap();
        let r2 = sg.node_by_label("r2").unwrap();
        assert!(fo.finishes_before(s1, s2), "dominance seed");
        assert!(fo.finishes_before(s1, r2), "X ⊆ S");
        assert!(!fo.finishes_before(s2, s1));
        assert!(!fo.finishes_before(s1, s1), "irreflexive");
    }

    #[test]
    fn finish_before_start_is_transitive_across_partners() {
        // s1 < r1 (partner rule: r1's only partner is... r1 fires WITH s1 —
        // not strictly before). Check a genuine chain instead: s1 < s2
        // (dominance), all partners of r2 = {s2}, so s1 < r2.
        let (sg, fo) = finish(
            "task t1 { send t2.a as s1; send t2.b as s2; }
             task t2 { accept a as r1; accept b as r2; }
             task t3 { accept c as r3; }
             task t4 { send t3.c as s3; }",
        );
        let s1 = sg.node_by_label("s1").unwrap();
        let r1 = sg.node_by_label("r1").unwrap();
        let r2 = sg.node_by_label("r2").unwrap();
        assert!(
            !fo.finishes_before(s1, r1),
            "a node does not fire strictly before its own rendezvous partner"
        );
        assert!(fo.finishes_before(s1, r2));
        let s3 = sg.node_by_label("s3").unwrap();
        let r3 = sg.node_by_label("r3").unwrap();
        assert!(!fo.finishes_before(s3, r3));
        assert!(!fo.finishes_before(r2, s3), "independent tasks unordered");
    }

    #[test]
    fn partnerless_nodes_do_not_unlock_successors() {
        // r1 has no partner (no one sends a): nothing after r1 ever waves,
        // but X must not claim orderings *through* vacuous rendezvous.
        let (sg, seq) = info(
            "task t1 { accept a as r1; accept b as r2; }
             task t2 { send t1.b as sb; }",
        );
        let sb = sg.node_by_label("sb").unwrap();
        let r2 = sg.node_by_label("r2").unwrap();
        // r2 can only be reached by executing r1, which never fires; the
        // analysis stays conservative about sb-before-r2 (vacuously true
        // but not derivable through a partnerless rendezvous) and must not
        // invent an ordering of sb before the initial r1.
        let r1 = sg.node_by_label("r1").unwrap();
        assert!(!seq.executed_before(sb, r1));
        assert!(!seq.executed_before(sb, r2));
    }
}
