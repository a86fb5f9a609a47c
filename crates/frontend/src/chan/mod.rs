//! The `.chan` channel/select language and its lowering onto the
//! paper's sync-graph model.
//!
//! A `.chan` program declares channels (rendezvous, bounded, or
//! unbounded) and processes communicating over them, with multi-arm
//! `select` (optionally non-blocking via `default`), `close`, branches,
//! and loops:
//!
//! ```text
//! chan req;
//! chan log[*];
//! proc worker {
//!     loop {
//!         select {
//!             recv req { send log; }
//!             default { }
//!         }
//!     }
//! }
//! ```
//!
//! Two anomaly families are analysed statically:
//!
//! * **Deadlock** — a circular wait over channel *ports* (send/recv
//!   ends). The per-process channel-effect dataflow ([`effects`])
//!   records which ports a process may block at and which ops it
//!   withholds while blocked; the resulting communication dependency
//!   graph ([`commgraph`]) has a cycle iff processes can starve each
//!   other in a ring. Its cycles and the exact lowering onto the CLG
//!   (channel ↦ task with a send/recv signal pair, wait edge ↦
//!   wait-point → request branch) come from the shared
//!   [`waitgraph`](crate::waitgraph) core — the same construction and
//!   exactness argument as the `.lok` frontend.
//! * **Livelock** — loops traversable forever without externally
//!   visible communication ([`livelock`]): spin-on-default selects with
//!   starved arms and closed-channel busy-waits, reported as
//!   span-anchored witnesses with a ranked starved-arm rationale.
//!   Livelock is a property of process-level control loops, which the
//!   (control-loop-free) lowering abstracts away, so it is detected on
//!   the AST and reported alongside the graph verdict.
//!
//! Non-circular infinite waits (a lone `send` nobody ever matches) are
//! *stalls*; as with `.lok`, the stall half of the ladder does not
//! apply to this frontend — such patterns surface through the lint
//! family (`never-received` and friends), not the verdict.

pub mod ast;
pub mod commgraph;
pub mod effects;
pub mod livelock;
pub mod parser;

pub use ast::{Capacity, ChanProgram, ChanStmt, Dir, Proc, SelectArm};
pub use commgraph::{CommCycle, CommGraph};
pub use effects::{ChanEffects, ChanIssue, DepEdge};
pub use livelock::{LivelockKind, LivelockWitness, StarvedArm};
pub use parser::{parse_chan, MAX_NESTING_DEPTH};

use crate::{Frontend, Lang, LoadedModel, ModelIr};
use iwa_core::IwaError;
use iwa_syncgraph::SyncGraph;

/// A fully loaded `.chan` model: AST, channel effects, communication
/// dependency graph (with its cycles precomputed), livelock witnesses,
/// and the lowered sync graph.
#[derive(Clone, Debug)]
pub struct ChanModel {
    /// The parsed program.
    pub program: ChanProgram,
    /// The computed channel effects (op sites, selects, wait records).
    pub effects: ChanEffects,
    /// The communication dependency graph.
    pub comm_graph: CommGraph,
    /// Deterministic witness cycles of the dependency graph (empty iff
    /// the model is deadlock-free).
    pub cycles: Vec<CommCycle>,
    /// Static livelock witnesses (empty iff no loop admits a silent
    /// traversal with a spin or busy-wait).
    pub livelocks: Vec<LivelockWitness>,
    /// The lowered sync graph ([`CommGraph::lower`]).
    pub sg: SyncGraph,
    /// Sync-graph indices of the wait-point (`A`) nodes, in wait-edge
    /// order — the head seeds for the refined analysis.
    pub wait_points: Vec<usize>,
}

impl ChanModel {
    /// Render livelock witness `w` (convenience over
    /// [`livelock::render_livelock`] with this model's program).
    #[must_use]
    pub fn render_livelock(&self, w: &LivelockWitness) -> String {
        livelock::render_livelock(&self.program, w)
    }

    /// The engine's witness list: every channel-wait cycle with its
    /// span-anchored wait chain, then every livelock witness (empty iff
    /// the model is deadlock- and livelock-free).
    #[must_use]
    pub fn witnesses(&self) -> Vec<String> {
        self.cycles
            .iter()
            .map(|c| format!("channel-wait cycle: {}", self.comm_graph.render_cycle(c)))
            .chain(self.livelocks.iter().map(|w| self.render_livelock(w)))
            .collect()
    }
}

/// The `.chan` frontend.
pub struct ChanFrontend;

impl Frontend for ChanFrontend {
    fn lang(&self) -> Lang {
        Lang::Chan
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["chan"]
    }

    fn description(&self) -> &'static str {
        "processes over channels with select/close; deadlocks are port-wait cycles, \
         plus static livelock classification"
    }

    fn load(&self, src: &str) -> Result<LoadedModel, IwaError> {
        let program = parse_chan(src)?;
        let effects = ChanEffects::compute(&program);
        let comm_graph = CommGraph::build(&program, &effects);
        let warnings = effects
            .issues
            .iter()
            .map(|i| comm_graph.render_issue(i))
            .collect();
        let cycles = comm_graph.cycles();
        let livelocks = livelock::find_livelocks(&program, &effects);
        let (sg, wait_points) = comm_graph.lower();
        Ok(LoadedModel {
            lang: Lang::Chan,
            ir: ModelIr::Chan(Box::new(ChanModel {
                program,
                effects,
                comm_graph,
                cycles,
                livelocks,
                sg,
                wait_points,
            })),
            warnings,
        })
    }
}
