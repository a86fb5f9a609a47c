//! The wait-graph core shared by the `.lok` and `.chan` frontends.
//!
//! Both languages reduce their deadlock question to the same shape: a
//! directed graph whose nodes are the resources a process can block on
//! (mutexes for `.lok`, channel ports for `.chan`) and whose edge
//! `x → y` records that some process may be blocked at `x` while holding
//! back what the waiters at `y` need. A deadlock is a cycle of that
//! graph. This module owns everything about the graph that is not
//! language-specific:
//!
//! * `cycles` — the canonical witness cycles ([`WaitCycle`]);
//! * `render_ring` — the `x → y → x (site; site)` witness text;
//! * `lower` — the exact lowering onto the paper's sync-graph model.
//!
//! [`LockGraph`](crate::lok::LockGraph) and
//! [`CommGraph`](crate::chan::CommGraph) keep what is theirs: how the
//! edges are found, the node names, and the per-edge site phrase.
//!
//! # The lowering and why it is exact
//!
//! Each resource owner becomes a skippable task carrying one signal per
//! node it owns (`.lok`: mutex `m` ↦ task `T_m` with signal `held`;
//! `.chan`: channel `c` ↦ task `T_c` with signals `snd`/`rcv`, one per
//! port). Each wait edge `x → y` becomes its own begin-to-end branch of
//! the task owning `x`:
//!
//! ```text
//! b → A(accept sig(x)) → B(send sig(y)) → e
//! ```
//!
//! `A` is the **wait-point** ("some process is blocked at `x` here") and
//! `B` the **request** ("…while `y`'s waiters need what it holds back").
//! Sync edges follow from the signal typing: every `A` of node `x` pairs
//! with every `B` sending `sig(x)`. All tasks are skippable — a wait
//! pattern may simply never be reached — so waves where some branches
//! never start are legal.
//!
//! * *CLG side.* A `B` node's only control successor is `e`, so any CLG
//!   cycle must alternate `A_i → B_i` control steps with `B_i — A_{i+1}`
//!   sync steps; each alternation follows one wait edge, so CLG cycles ⇔
//!   wait-graph cycles. The lowered graph has no control loops, so no
//!   Lemma 1 unrolling is needed and the naive §3.1 cycle check is exact.
//! * *Wave side.* On a stuck wave only `A` nodes can have outgoing
//!   coupling edges (a node's strict control descendants must include a
//!   sync partner of the coupled node, and only `A` has a rendezvous
//!   successor), and `A(x)`'s couplings point along wait edges into `x`.
//!   So every coupling cycle — the paper's deadlocked set `D`,
//!   Theorem 1 — traces a wait-graph cycle; conversely a wave holding
//!   every `A` of a wait-graph cycle is reachable (all tasks are
//!   skippable) and stuck. Acyclic wait graphs still produce stall-only
//!   stuck waves, which are benign here: the oracle runs in deadlock-only
//!   mode (`ignore_stalls`).
//!
//! A self-edge `x → x` lowers to `A(accept sig(x)) → B(send sig(x))`
//! inside one task — the same shape as tasklang's self-send, which the
//! whole stack flags as a one-node deadlock cycle.
//!
//! Every analysis on the lowered graph therefore returns the verdict
//! `cycles` already gives, which is why the engine answers `.lok` and
//! `.chan` models from the cycle set directly; the lowered graph stays on
//! the model for the cross-checks that prove the equivalence.

use iwa_core::{Rendezvous, Span, Symbols, TaskId};
use iwa_graphs::{Csr, GraphBuilder, Scc};
use iwa_syncgraph::{SyncGraph, SyncGraphBuilder, B, E};
use std::collections::VecDeque;

/// An edge of a wait graph: `from` may block while starving `to`.
pub(crate) trait WaitEdge: Clone {
    /// The `(from, to)` node pair.
    fn ends(&self) -> (usize, usize);
}

/// One wait-graph cycle, with its witness edge chain.
#[derive(Clone, Debug)]
pub struct WaitCycle<Ed> {
    /// The nodes on the cycle, starting from the smallest id; length 1
    /// for a self-edge.
    pub nodes: Vec<usize>,
    /// The edges closing the cycle: `chain[i]` goes from `nodes[i]` to
    /// `nodes[(i+1) % len]`.
    pub chain: Vec<Ed>,
}

/// Deterministic witness cycles of the graph on `num_nodes` nodes with
/// `edges`: one length-1 cycle per self-edge (a self-edge deadlocks on its
/// own, even inside a larger component), then one shortest cycle per
/// strong component of two or more nodes, found by BFS from the
/// component's smallest id with successors in edge order. Sorted by node
/// sequence — byte-stable across runs.
#[must_use]
pub(crate) fn cycles<Ed: WaitEdge>(num_nodes: usize, edges: &[Ed]) -> Vec<WaitCycle<Ed>> {
    let mut g: GraphBuilder<u32> = GraphBuilder::with_nodes(num_nodes);
    for (i, e) in edges.iter().enumerate() {
        let (from, to) = e.ends();
        g.add_edge(from, to, i as u32);
    }
    let g = g.freeze();
    let scc = Scc::compute(&g, None);

    let mut out: Vec<WaitCycle<Ed>> = edges
        .iter()
        .filter(|e| e.ends().0 == e.ends().1)
        .map(|e| WaitCycle {
            nodes: vec![e.ends().0],
            chain: vec![e.clone()],
        })
        .collect();
    for comp in scc.nontrivial_components(&g) {
        // A single node is only non-trivial through a self-edge, which
        // was already emitted above.
        if comp.len() < 2 {
            continue;
        }
        let start = comp.iter().copied().min().expect("non-empty") as usize;
        out.push(shortest_cycle_through(&g, &scc, edges, start));
    }
    out.sort_by(|a, b| a.nodes.cmp(&b.nodes));
    out
}

/// Shortest cycle through `start` staying inside its strong component,
/// successors in edge order (the CSR keeps per-source insertion order).
fn shortest_cycle_through<Ed: WaitEdge>(
    g: &Csr<u32>,
    scc: &Scc,
    edges: &[Ed],
    start: usize,
) -> WaitCycle<Ed> {
    // parent[v] = index of the edge used to first reach v.
    let mut parent: Vec<Option<u32>> = vec![None; g.num_nodes()];
    let mut queue = VecDeque::from([start]);
    let mut closing: Option<u32> = None;
    'bfs: while let Some(u) = queue.pop_front() {
        for (&v, &eidx) in g.successors(u).iter().zip(g.successor_labels(u)) {
            let v = v as usize;
            // Self-edges are reported as their own length-1 cycles.
            if v == u {
                continue;
            }
            if v == start {
                closing = Some(eidx);
                break 'bfs;
            }
            if scc.same_component(start, v) && parent[v].is_none() {
                parent[v] = Some(eidx);
                queue.push_back(v);
            }
        }
    }
    let closing = closing.expect("a non-trivial SCC has a cycle through every member");
    let mut chain = vec![edges[closing as usize].clone()];
    let mut cur = chain[0].ends().0;
    while cur != start {
        let eidx = parent[cur].expect("BFS reached every chain node") as usize;
        chain.push(edges[eidx].clone());
        cur = edges[eidx].ends().0;
    }
    chain.reverse();
    WaitCycle {
        nodes: chain.iter().map(|e| e.ends().0).collect(),
        chain,
    }
}

/// Render a cycle as `x → y → x (site; site)`: the ring of node names
/// closed on its first node, then each chain edge's site phrase.
#[must_use]
pub(crate) fn render_ring<Ed>(
    c: &WaitCycle<Ed>,
    node_name: impl Fn(usize) -> String,
    site: impl Fn(&Ed) -> String,
) -> String {
    let ring: Vec<String> = c
        .nodes
        .iter()
        .chain(c.nodes.first())
        .map(|&n| node_name(n))
        .collect();
    let sites: Vec<String> = c.chain.iter().map(site).collect();
    format!("{} ({})", ring.join(" → "), sites.join("; "))
}

/// One lowered branch's two rendezvous nodes: the wait-point `A` and the
/// request `B`, each as its node label and source span.
pub(crate) struct Branch {
    /// Label and span of the wait-point (`accept sig(from)`).
    pub(crate) wait: (String, Span),
    /// Label and span of the request (`send sig(to)`).
    pub(crate) request: (String, Span),
}

/// Lower a wait graph onto a sync graph (see the module docs for the
/// construction and its exactness). `tasks` names the resource owners,
/// `signals` the signal names every task carries, and `signal_of(n)`
/// gives node `n`'s `(task, signal)` indices into those two lists.
/// Returns the graph and the wait-point (`A`) node indices in edge order
/// — the head seeds for the refined analysis (every deadlock cycle of the
/// lowered graph passes through a wait-point).
#[must_use]
pub(crate) fn lower<Ed: WaitEdge>(
    tasks: &[String],
    signals: &[&str],
    signal_of: impl Fn(usize) -> (usize, usize),
    edges: &[Ed],
    branch: impl Fn(&Ed) -> Branch,
) -> (SyncGraph, Vec<usize>) {
    let mut symbols = Symbols::new();
    let task_ids: Vec<TaskId> = tasks.iter().map(|name| symbols.intern_task(name)).collect();
    let sigs: Vec<Vec<_>> = task_ids
        .iter()
        .map(|&t| {
            signals
                .iter()
                .map(|s| symbols.intern_signal(t, s))
                .collect()
        })
        .collect();
    let sig = |n: usize| {
        let (t, s) = signal_of(n);
        (task_ids[t], sigs[t][s])
    };

    let mut builder = SyncGraphBuilder::new(symbols, task_ids.len());
    for &t in &task_ids {
        builder.mark_task_skippable(t);
    }
    let mut wait_points = Vec::with_capacity(edges.len());
    for e in edges {
        let (from, to) = e.ends();
        let (task, held) = sig(from);
        let Branch { wait, request } = branch(e);
        let a = builder.add_node_full(
            task,
            Rendezvous::accept(held),
            Some(wait.0),
            Vec::new(),
            None,
            None,
            wait.1,
        );
        let b = builder.add_node_full(
            task,
            Rendezvous::send(sig(to).1),
            Some(request.0),
            Vec::new(),
            None,
            None,
            request.1,
        );
        builder.add_control(B, a);
        builder.add_control(a, b);
        builder.add_control(b, E);
        wait_points.push(a);
    }
    builder.derive_sync_edges();
    (builder.build(), wait_points)
}

#[cfg(test)]
mod tests {
    //! The lowering's exactness, checked on both frontends: the cycle
    //! set, the naive CLG check, the seeded refined search, and the
    //! deadlock-only oracle all give the same verdict.

    use super::*;
    use crate::{ChanFrontend, Frontend, LokFrontend, ModelIr};
    use iwa_analysis::{naive_analysis, AnalysisCtx, RefinedOptions};
    use iwa_wavesim::{explore, ExploreConfig, Verdict};

    /// A loaded model's cycle count, lowered graph, and seeds.
    fn load(frontend: &dyn Frontend, src: &str) -> (usize, SyncGraph, Vec<usize>) {
        match frontend.load(src).unwrap().ir {
            ModelIr::Lok(m) => (m.cycles.len(), m.sg, m.hold_points),
            ModelIr::Chan(m) => (m.cycles.len(), m.sg, m.wait_points),
            ModelIr::Tasklang(_) => unreachable!("wait-graph frontends only"),
        }
    }

    /// Assert every analysis of the lowered graph agrees that `src`
    /// deadlocks iff `deadlock`, and that the cycle set says so too.
    fn agrees(frontend: &dyn Frontend, src: &str, deadlock: bool) {
        let (cycles, sg, seeds) = load(frontend, src);
        assert_eq!(cycles > 0, deadlock, "cycle set: {src}");
        assert_eq!(naive_analysis(&sg).deadlock_free, !deadlock, "naive: {src}");
        let refined = AnalysisCtx::builder()
            .build()
            .refined_seeded(&sg, &seeds, &RefinedOptions::default())
            .unwrap();
        assert_eq!(refined.deadlock_free, !deadlock, "refined: {src}");
        let config = ExploreConfig {
            ignore_stalls: true,
            ..ExploreConfig::default()
        };
        let e = explore(&sg, &config).unwrap();
        assert_eq!(e.has_deadlock(), deadlock, "oracle: {src}");
        let want = if deadlock {
            Verdict::Anomalous
        } else {
            Verdict::AnomalyFree
        };
        assert_eq!(e.verdict, want, "oracle verdict: {src}");
    }

    const ABBA: &str = "thread t1 { with a { lock b; unlock b; } }
                        thread t2 { with b { lock a; unlock a; } }";
    const CROSSED: &str = "chan a; chan b;
                           proc p1 { send a; send b; }
                           proc p2 { recv b; recv a; }";

    #[test]
    fn lock_cycles_deadlock_on_every_analysis() {
        agrees(&LokFrontend, ABBA, true);
        agrees(&LokFrontend, "thread t { lock a; lock a; unlock a; }", true);
        agrees(
            &LokFrontend,
            "thread t1 { with a { lock b; unlock b; } }
             thread t2 { with b { lock c; unlock c; } }
             thread t3 { with c { lock a; unlock a; } }",
            true,
        );
    }

    #[test]
    fn ordered_locks_are_clean_on_every_analysis() {
        agrees(
            &LokFrontend,
            "thread t1 { with a { lock b; unlock b; } }
             thread t2 { with a { lock b; unlock b; } }",
            false,
        );
    }

    #[test]
    fn channel_cycles_deadlock_on_every_analysis() {
        agrees(&ChanFrontend, CROSSED, true);
        agrees(&ChanFrontend, "chan a; proc p { send a; recv a; }", true);
        agrees(
            &ChanFrontend,
            "chan c0; chan c1; chan c2;
             proc p0 { send c0; recv c2; }
             proc p1 { send c1; recv c0; }
             proc p2 { send c2; recv c1; }",
            true,
        );
    }

    #[test]
    fn matching_channel_order_is_clean_on_every_analysis() {
        agrees(
            &ChanFrontend,
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv a; recv b; }",
            false,
        );
        // No wait edges at all: an empty, clean lowered graph.
        let edgeless = "chan q[2];
                        proc p1 { send q; send q; }
                        proc p2 { recv q; recv q; }";
        agrees(&ChanFrontend, edgeless, false);
        assert!(load(&ChanFrontend, edgeless).2.is_empty());
    }

    #[test]
    fn lowered_graphs_are_control_loop_free_with_real_spans() {
        for (frontend, src) in [
            (&LokFrontend as &dyn Frontend, ABBA),
            (&ChanFrontend, CROSSED),
        ] {
            let (_, sg, seeds) = load(frontend, src);
            assert_eq!(seeds.len() * 2, sg.rendezvous_nodes().count());
            for n in sg.rendezvous_nodes() {
                assert!(sg.node(n).span.is_real(), "node {n} lost its span");
            }
            // b → A → B → e only: every wait-point has exactly one
            // control successor, and it is the request rendezvous.
            for &a in &seeds {
                let succs = sg.control.successors(a);
                assert_eq!(succs.len(), 1);
                assert!(sg.is_rendezvous(succs[0] as usize));
            }
        }
    }

    #[test]
    fn wait_points_cover_poss_heads() {
        // The generic head scan can only propose wait-points (B nodes'
        // sole successor is e), so seeding them loses nothing.
        for (frontend, src) in [
            (&LokFrontend as &dyn Frontend, ABBA),
            (&ChanFrontend, CROSSED),
        ] {
            let (_, sg, seeds) = load(frontend, src);
            for h in sg.poss_heads() {
                assert!(seeds.contains(&h), "poss_head {h} is not a wait-point");
            }
        }
    }

    #[derive(Clone, Debug)]
    struct Pair(usize, usize);

    impl WaitEdge for Pair {
        fn ends(&self) -> (usize, usize) {
            (self.0, self.1)
        }
    }

    #[test]
    fn cycles_are_canonical_shortest_and_self_edges_first() {
        // Component {0,1,2} with a chord, plus a self-edge on 3 and an
        // acyclic tail 3 → 4.
        let edges = [
            Pair(2, 0),
            Pair(0, 1),
            Pair(1, 2),
            Pair(1, 0),
            Pair(3, 3),
            Pair(3, 4),
        ];
        let cs = cycles(5, &edges);
        let nodes: Vec<_> = cs.iter().map(|c| c.nodes.clone()).collect();
        assert_eq!(nodes, [vec![0, 1], vec![3]]);
        let ring = render_ring(&cs[0], |n| format!("n{n}"), |e| format!("{}>{}", e.0, e.1));
        assert_eq!(ring, "n0 → n1 → n0 (0>1; 1>0)");
        assert!(cycles(5, &edges[5..]).is_empty());
    }
}
