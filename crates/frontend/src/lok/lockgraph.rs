//! The static lock-order graph: edge `m1 → m2` whenever some thread may
//! hold `m1` while acquiring `m2`.
//!
//! Built by a path-insensitive may-hold walk over each thread's
//! structured body. Branches union their exits; `with` blocks restore
//! the guard mutex's pre-entry state on exit; loop bodies are walked
//! **twice** — the may-hold transfer function of a structured body is
//! `S ↦ (S ∩ M) ∪ G` (a kill-mask plus a gen-set, both closed under
//! sequencing and branch union), which is idempotent after one
//! application, so the second walk runs from the loop's fixpoint state
//! and sees every cross-iteration hold. This is the same "twice is
//! enough" argument behind the paper's Lemma 1 unrolling.
//!
//! A self-edge `m → m` is a double acquire of a non-reentrant mutex —
//! itself a deadlock — and shows up as a length-one [`LockCycle`].
//! Cycles, witness rings, and the sync-graph lowering come from the
//! shared [`waitgraph`] core.

use super::ast::{LokProgram, LokStmt};
use crate::waitgraph::{self, Branch, WaitCycle, WaitEdge};
use iwa_core::Span;
use iwa_syncgraph::SyncGraph;

/// One lock-order edge: `thread` may hold `from` (acquired at
/// `held_span`) while acquiring `to` (at `acquire_span`).
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// The held mutex.
    pub from: usize,
    /// The mutex being acquired.
    pub to: usize,
    /// The thread the hold pattern occurs in.
    pub thread: String,
    /// Acquire site of the held mutex.
    pub held_span: Span,
    /// The acquire site that creates the edge.
    pub acquire_span: Span,
}

/// A suspicious-but-analysable pattern the walk surfaced.
#[derive(Clone, Debug)]
pub enum LockIssue {
    /// `unlock m` where `m` is held on no path.
    UnlockNotHeld {
        /// The releasing thread.
        thread: String,
        /// The mutex.
        mutex: usize,
        /// Span of the `unlock`.
        span: Span,
    },
    /// A thread's body can end with `m` still held.
    ExitHolding {
        /// The exiting thread.
        thread: String,
        /// The mutex.
        mutex: usize,
        /// The acquire site left unreleased.
        span: Span,
    },
}

/// One lock-order cycle: `nodes` are the mutexes on the cycle, `chain`
/// the acquisition edges closing it, each carrying the spans of the two
/// acquire sites involved.
pub type LockCycle = WaitCycle<LockEdge>;

impl WaitEdge for LockEdge {
    fn ends(&self) -> (usize, usize) {
        (self.from, self.to)
    }
}

/// The static lock-order graph of a [`LokProgram`].
#[derive(Clone, Debug)]
pub struct LockGraph {
    /// Interned mutex names (shared index space with the program).
    pub mutexes: Vec<String>,
    /// The lock-order edges, deduplicated to the first witness per
    /// `(from, to)` pair in walk order (threads in declaration order).
    pub edges: Vec<LockEdge>,
    /// The issues the walk surfaced.
    pub issues: Vec<LockIssue>,
}

/// Per-mutex may-hold state: the acquire span while possibly held.
type HeldState = Vec<Option<Span>>;

struct Walker<'a> {
    thread: &'a str,
    edges: Vec<LockEdge>,
    seen_pairs: std::collections::HashSet<(usize, usize)>,
    issues: Vec<LockIssue>,
}

impl Walker<'_> {
    fn acquire(&mut self, state: &mut HeldState, mutex: usize, span: Span) {
        for (h, held) in state.iter().enumerate() {
            if let Some(held_span) = held {
                if self.seen_pairs.insert((h, mutex)) {
                    self.edges.push(LockEdge {
                        from: h,
                        to: mutex,
                        thread: self.thread.to_owned(),
                        held_span: *held_span,
                        acquire_span: span,
                    });
                }
            }
        }
        if state[mutex].is_none() {
            state[mutex] = Some(span);
        }
    }

    fn release(&mut self, state: &mut HeldState, mutex: usize, span: Span, implicit: bool) {
        if state[mutex].is_none() && !implicit {
            self.issues.push(LockIssue::UnlockNotHeld {
                thread: self.thread.to_owned(),
                mutex,
                span,
            });
        }
        state[mutex] = None;
    }

    fn walk(&mut self, state: &mut HeldState, body: &[LokStmt]) {
        for stmt in body {
            match stmt {
                LokStmt::Lock { mutex, span } => self.acquire(state, *mutex, *span),
                LokStmt::Unlock { mutex, span } => self.release(state, *mutex, *span, false),
                LokStmt::With { mutex, body, span } => {
                    let pre = state[*mutex];
                    self.acquire(state, *mutex, *span);
                    self.walk(state, body);
                    // Scoped release: restore the guard mutex to its
                    // pre-entry state (an outer hold survives the block).
                    state[*mutex] = pre;
                }
                LokStmt::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    let mut else_state = state.clone();
                    self.walk(state, then_branch);
                    self.walk(&mut else_state, else_branch);
                    merge_may(state, &else_state);
                }
                LokStmt::Loop { body, .. } => {
                    // Zero iterations leave the state alone; one walk
                    // reaches the may-fixpoint; the second walk observes
                    // cross-iteration holds from it (see module docs).
                    let entry = state.clone();
                    self.walk(state, body);
                    self.walk(state, body);
                    merge_may(state, &entry);
                }
            }
        }
    }
}

/// Union two may-hold states in place (keep `a`'s span when both hold).
fn merge_may(a: &mut HeldState, b: &HeldState) {
    for (x, y) in a.iter_mut().zip(b) {
        if x.is_none() {
            *x = *y;
        }
    }
}

impl LockGraph {
    /// Build the lock-order graph of `p`.
    #[must_use]
    pub fn build(p: &LokProgram) -> LockGraph {
        let n = p.mutexes.len();
        let mut edges = Vec::new();
        let mut issues = Vec::new();
        let mut seen_pairs = std::collections::HashSet::new();
        for thread in &p.threads {
            let mut walker = Walker {
                thread: &thread.name,
                edges: Vec::new(),
                seen_pairs: std::mem::take(&mut seen_pairs),
                issues: Vec::new(),
            };
            let mut state: HeldState = vec![None; n];
            walker.walk(&mut state, &thread.body);
            for (m, held) in state.iter().enumerate() {
                if let Some(span) = held {
                    walker.issues.push(LockIssue::ExitHolding {
                        thread: thread.name.clone(),
                        mutex: m,
                        span: *span,
                    });
                }
            }
            edges.extend(walker.edges);
            issues.extend(walker.issues);
            seen_pairs = walker.seen_pairs;
        }
        // Loop bodies are walked twice, which can surface the same issue
        // twice; keep the first occurrence.
        let mut seen_issues = std::collections::HashSet::new();
        issues.retain(|i| {
            seen_issues.insert(match i {
                LockIssue::UnlockNotHeld { thread, mutex, span } => {
                    (0u8, thread.clone(), *mutex, *span)
                }
                LockIssue::ExitHolding { thread, mutex, span } => {
                    (1u8, thread.clone(), *mutex, *span)
                }
            })
        });
        LockGraph {
            mutexes: p.mutexes.clone(),
            edges,
            issues,
        }
    }

    /// Number of mutexes (= node count of the graph).
    #[must_use]
    pub fn num_mutexes(&self) -> usize {
        self.mutexes.len()
    }

    /// The name of mutex `m`.
    #[must_use]
    pub fn mutex_name(&self, m: usize) -> &str {
        self.mutexes.get(m).map_or("<unknown mutex>", String::as_str)
    }

    /// Deterministic witness cycles (`waitgraph::cycles`): empty iff
    /// the model is deadlock-free.
    #[must_use]
    pub fn cycles(&self) -> Vec<LockCycle> {
        waitgraph::cycles(self.num_mutexes(), &self.edges)
    }

    /// Lower onto the sync-graph model (`waitgraph::lower`): mutex `m`
    /// becomes task `T_m` with the one signal `held`. Returns the graph
    /// and the hold-point node indices in lock-edge order.
    #[must_use]
    pub fn lower(&self) -> (SyncGraph, Vec<usize>) {
        waitgraph::lower(&self.mutexes, &["held"], |m| (m, 0), &self.edges, |e| Branch {
            wait: (
                format!("{} held by {}", self.mutex_name(e.from), e.thread),
                e.held_span,
            ),
            request: (
                format!("{} wanted by {}", self.mutex_name(e.to), e.thread),
                e.acquire_span,
            ),
        })
    }

    /// Render one issue as a human-readable warning line.
    #[must_use]
    pub fn render_issue(&self, i: &LockIssue) -> String {
        match i {
            LockIssue::UnlockNotHeld {
                thread,
                mutex,
                span,
            } => format!(
                "thread {} unlocks {} ({}) while it is not held",
                thread,
                self.mutex_name(*mutex),
                span
            ),
            LockIssue::ExitHolding {
                thread,
                mutex,
                span,
            } => format!(
                "thread {} may exit still holding {} (locked at {})",
                thread,
                self.mutex_name(*mutex),
                span
            ),
        }
    }

    /// Render one cycle as the span-anchored acquisition chain the
    /// reports and lints print:
    /// `a → b → a (thread t1 holds a (2:5) while locking b (3:5); …)`.
    #[must_use]
    pub fn render_cycle(&self, c: &LockCycle) -> String {
        waitgraph::render_ring(
            c,
            |m| self.mutex_name(m).to_owned(),
            |e| {
                format!(
                    "thread {} holds {} ({}) while locking {} ({})",
                    e.thread,
                    self.mutex_name(e.from),
                    e.held_span,
                    self.mutex_name(e.to),
                    e.acquire_span
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::parser::parse_lok;
    use super::*;

    fn graph(src: &str) -> LockGraph {
        LockGraph::build(&parse_lok(src).unwrap())
    }

    #[test]
    fn ordered_chain_is_acyclic() {
        let g = graph(
            "thread t1 { with a { with b { } } }
             thread t2 { with a { with b { } } }",
        );
        assert_eq!(g.edges.len(), 1);
        assert!(g.cycles().is_empty());
        assert!(g.issues.is_empty());
    }

    #[test]
    fn abba_is_a_two_cycle_with_spans() {
        let g = graph(
            "thread t1 { with a { lock b; unlock b; } }
             thread t2 { with b { lock a; unlock a; } }",
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.nodes.len(), 2);
        assert_eq!(c.chain.len(), 2);
        for e in &c.chain {
            assert!(e.held_span.is_real() && e.acquire_span.is_real());
        }
        let rendered = g.render_cycle(c);
        assert!(rendered.contains("a → b → a"), "got: {rendered}");
        assert!(rendered.contains("thread t1"), "got: {rendered}");
    }

    #[test]
    fn double_lock_is_a_self_cycle() {
        let g = graph("thread t { lock a; lock a; unlock a; }");
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].nodes, [0]);
    }

    #[test]
    fn with_restores_the_outer_hold() {
        // The inner `with a` is a double acquire; after it exits, `a` is
        // still held from the outer block, so `lock b` sees it.
        let g = graph("thread t { with a { with a { } lock b; unlock b; } }");
        assert!(g.edges.iter().any(|e| e.from == 0 && e.to == 0));
        assert!(g.edges.iter().any(|e| e.from == 0 && e.to == 1));
    }

    #[test]
    fn branches_union_their_holds() {
        let g = graph(
            "thread t {
                 if { lock a; } else { lock b; }
                 lock c;
                 unlock a; unlock b; unlock c;
             }",
        );
        assert!(g.edges.iter().any(|e| e.from == 0 && e.to == 2), "a→c");
        assert!(g.edges.iter().any(|e| e.from == 1 && e.to == 2), "b→c");
        // The unlocks release may-held mutexes: no UnlockNotHeld issues.
        assert!(g.issues.is_empty());
    }

    #[test]
    fn loop_carried_holds_create_cross_iteration_edges() {
        // Each iteration acquires `a` at its tail and releases it at the
        // head of the *next* iteration, so `lock b` runs holding the
        // previous iteration's `a` — only the second walk sees it.
        // (Mutex ids are first-mention order: b = 0, a = 1.)
        let g = graph("thread t { loop { lock b; unlock a; unlock b; lock a; } }");
        assert!(
            g.edges.iter().any(|e| e.from == 1 && e.to == 0),
            "cross-iteration a→b edge missing: {:?}",
            g.edges
        );
    }

    #[test]
    fn issues_are_surfaced() {
        let g = graph("thread t { unlock a; lock b; }");
        assert!(matches!(
            g.issues[0],
            LockIssue::UnlockNotHeld { mutex: 0, .. }
        ));
        assert!(matches!(
            g.issues[1],
            LockIssue::ExitHolding { mutex: 1, .. }
        ));
    }

    #[test]
    fn three_cycle_has_a_deterministic_witness() {
        let src = "thread t1 { with a { lock b; unlock b; } }
                   thread t2 { with b { lock c; unlock c; } }
                   thread t3 { with c { lock a; unlock a; } }";
        let g = graph(src);
        let c1 = g.cycles();
        let c2 = graph(src).cycles();
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].nodes, c2[0].nodes);
        assert_eq!(c1[0].nodes.len(), 3);
        assert_eq!(c1[0].nodes[0], 0, "canonical start = smallest id");
    }
}
