//! The communication dependency graph: nodes are channel *ports*
//! (`c!` = the send end, `c?` = the receive end), and an edge `h → q`
//! records that some process may block at port `h` while withholding an
//! op the waiters at port `q` need ([`super::effects`] produces the
//! edges). A cycle is a circular wait over channel ends — the `.chan`
//! analogue of a lock-order cycle, and exactly what the lowering turns
//! into a CLG deadlock. Cycles, witness rings, and the lowering come from
//! the shared [`waitgraph`] core.

use super::ast::{Capacity, ChanProgram, Dir};
use super::effects::{port_chan, port_dir, ChanEffects, ChanIssue, DepEdge};
use crate::waitgraph::{self, Branch, WaitCycle, WaitEdge};
use iwa_syncgraph::SyncGraph;

/// One communication cycle: `nodes` are the ports on the cycle, `chain`
/// the wait edges closing it, each carrying the spans of the blocked and
/// withheld ops involved.
pub type CommCycle = WaitCycle<DepEdge>;

impl WaitEdge for DepEdge {
    fn ends(&self) -> (usize, usize) {
        (self.from, self.to)
    }
}

/// The communication dependency graph of a [`ChanProgram`].
#[derive(Clone, Debug)]
pub struct CommGraph {
    /// Channel names (shared index space with the program).
    pub chans: Vec<String>,
    /// Channel capacities, same index space.
    pub capacities: Vec<Capacity>,
    /// The wait edges, deduplicated to the first witness per
    /// `(from, to)` port pair in walk order.
    pub edges: Vec<DepEdge>,
}

impl CommGraph {
    /// Assemble the graph from a program's computed effects.
    #[must_use]
    pub fn build(p: &ChanProgram, effects: &ChanEffects) -> CommGraph {
        CommGraph {
            chans: p.chans.iter().map(|c| c.name.clone()).collect(),
            capacities: p.chans.iter().map(|c| c.capacity).collect(),
            edges: effects.dep_edges.clone(),
        }
    }

    /// Number of ports (= node count of the graph).
    #[must_use]
    pub fn num_ports(&self) -> usize {
        self.chans.len() * 2
    }

    /// The name of channel `c`.
    #[must_use]
    pub fn chan_name(&self, c: usize) -> &str {
        self.chans.get(c).map_or("<unknown channel>", String::as_str)
    }

    /// The display name of port `p`: CSP notation, `c!` for the send
    /// end and `c?` for the receive end.
    #[must_use]
    pub fn port_name(&self, p: usize) -> String {
        let mark = match port_dir(p) {
            Dir::Send => '!',
            Dir::Recv => '?',
        };
        format!("{}{}", self.chan_name(port_chan(p)), mark)
    }

    /// Deterministic witness cycles (`waitgraph::cycles`): empty iff
    /// the model is deadlock-free.
    #[must_use]
    pub fn cycles(&self) -> Vec<CommCycle> {
        waitgraph::cycles(self.num_ports(), &self.edges)
    }

    /// Lower onto the sync-graph model (`waitgraph::lower`): channel `c`
    /// becomes task `T_c` with the signal pair `snd`/`rcv`, one per port.
    /// A select without `default` contributes one wait edge per arm (the
    /// accept-alternative shape); a `default` arm contributes none — the
    /// select never blocks. Returns the graph and the wait-point node
    /// indices in wait-edge order.
    #[must_use]
    pub fn lower(&self) -> (SyncGraph, Vec<usize>) {
        let signal_of = |p: usize| (port_chan(p), port_dir(p) as usize);
        waitgraph::lower(&self.chans, &["snd", "rcv"], signal_of, &self.edges, |e| Branch {
            wait: (
                format!("{} blocked in {}", self.port_name(e.from), e.proc_name),
                e.blocked_span,
            ),
            request: (
                format!("{} starved by {}", self.port_name(e.to), e.proc_name),
                e.withheld_span,
            ),
        })
    }

    /// Render one issue as a human-readable warning line.
    #[must_use]
    pub fn render_issue(&self, i: &ChanIssue) -> String {
        match i {
            ChanIssue::SendOnClosed {
                proc_name,
                chan,
                span,
                closed_span,
            } => format!(
                "proc {} sends on {} ({}) after it is closed ({}) — a runtime fault",
                proc_name,
                self.chan_name(*chan),
                span,
                closed_span
            ),
            ChanIssue::CloseOfClosed {
                proc_name,
                chan,
                span,
                closed_span,
            } => format!(
                "proc {} closes {} ({}) twice (first closed at {})",
                proc_name,
                self.chan_name(*chan),
                span,
                closed_span
            ),
        }
    }

    /// Render one cycle as the span-anchored wait chain the reports and
    /// lints print:
    /// `a! → b? → a! (proc p1 blocks at send a (2:5) withholding send b
    /// (3:5); …)`.
    #[must_use]
    pub fn render_cycle(&self, c: &CommCycle) -> String {
        waitgraph::render_ring(
            c,
            |p| self.port_name(p),
            |e| {
                format!(
                    "proc {} blocks at {} {} ({}) withholding {} {} ({})",
                    e.proc_name,
                    port_dir(e.from).verb(),
                    self.chan_name(port_chan(e.from)),
                    e.blocked_span,
                    e.withheld.verb(),
                    self.chan_name(e.withheld_chan),
                    e.withheld_span
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::effects::ChanEffects;
    use super::super::parser::parse_chan;
    use super::*;

    fn graph(src: &str) -> CommGraph {
        let p = parse_chan(src).unwrap();
        let e = ChanEffects::compute(&p);
        CommGraph::build(&p, &e)
    }

    #[test]
    fn crossed_pair_is_a_two_cycle_with_spans() {
        let g = graph(
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv b; recv a; }",
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        let c = &cycles[0];
        assert_eq!(c.nodes.len(), 2);
        for e in &c.chain {
            assert!(e.blocked_span.is_real() && e.withheld_span.is_real());
        }
        let rendered = g.render_cycle(c);
        assert!(rendered.contains("a! → b? → a!"), "got: {rendered}");
        assert!(rendered.contains("proc p1 blocks at send a"), "got: {rendered}");
        assert!(rendered.contains("withholding recv a"), "got: {rendered}");
    }

    #[test]
    fn matching_order_is_acyclic() {
        let g = graph(
            "chan a; chan b;
             proc p1 { send a; send b; }
             proc p2 { recv a; recv b; }",
        );
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn self_rendezvous_is_a_length_one_cycle() {
        let g = graph("chan a; proc p { send a; recv a; }");
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].nodes, [0]);
        let rendered = g.render_cycle(&cycles[0]);
        assert!(rendered.contains("a! → a!"), "got: {rendered}");
    }

    #[test]
    fn ring_has_a_deterministic_witness() {
        let src = "chan c0; chan c1; chan c2;
                   proc p0 { send c0; recv c2; }
                   proc p1 { send c1; recv c0; }
                   proc p2 { send c2; recv c1; }";
        let c1 = graph(src).cycles();
        let c2 = graph(src).cycles();
        assert_eq!(c1.len(), 1);
        assert_eq!(c1[0].nodes, c2[0].nodes);
        assert_eq!(c1[0].nodes.len(), 3);
        assert_eq!(c1[0].nodes[0], 0, "canonical start = smallest id");
    }

    #[test]
    fn bounded_handoff_is_clean() {
        let g = graph(
            "chan q[2];
             proc p1 { send q; send q; }
             proc p2 { recv q; recv q; }",
        );
        assert!(g.edges.is_empty());
        assert!(g.cycles().is_empty());
    }

    #[test]
    fn issues_render_with_spans() {
        let g = graph("chan c[*]; proc p { close c; send c; }");
        // Rebuild effects to fetch the issue (build() copies edges only).
        let p = parse_chan("chan c[*]; proc p { close c; send c; }").unwrap();
        let e = ChanEffects::compute(&p);
        let rendered = g.render_issue(&e.issues[0]);
        assert!(rendered.contains("sends on c"), "got: {rendered}");
        assert!(rendered.contains("after it is closed"), "got: {rendered}");
    }
}
