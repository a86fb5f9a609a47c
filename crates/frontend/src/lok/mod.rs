//! The `.lok` lock-order language and its lowering onto the paper's
//! sync-graph model.
//!
//! A `.lok` program is a set of threads acquiring and releasing named
//! mutexes, with scoped guard blocks, branches, and loops:
//!
//! ```text
//! thread worker {
//!     lock a;
//!     with b { lock c; unlock c; }
//!     unlock a;
//! }
//! ```
//!
//! The analysis question is the classic one: can a set of threads reach a
//! circular wait, each holding one mutex while blocking on the next?
//! Statically that is a cycle in the **lock-order graph** — the graph
//! with an edge `m1 → m2` whenever some thread may hold `m1` while
//! acquiring `m2` ([`lockgraph`]). Its cycles, witness rings, and the
//! exact lowering onto the paper's CLG (mutex `m` ↦ skippable task `T_m`
//! with signal `held`; lock edge ↦ hold-point → request branch) come from
//! the shared [`waitgraph`](crate::waitgraph) core, which also carries
//! the exactness argument.

pub mod ast;
pub mod lockgraph;
pub mod parser;

pub use ast::{LokProgram, LokStmt, Thread};
pub use lockgraph::{LockCycle, LockEdge, LockGraph, LockIssue};
pub use parser::{parse_lok, MAX_NESTING_DEPTH};

use crate::{Frontend, Lang, LoadedModel, ModelIr};
use iwa_core::IwaError;
use iwa_syncgraph::SyncGraph;

/// A fully loaded `.lok` model: AST, lock-order graph (with its cycles
/// precomputed), and the lowered sync graph.
#[derive(Clone, Debug)]
pub struct LokModel {
    /// The parsed program.
    pub program: LokProgram,
    /// The static lock-order graph.
    pub lock_graph: LockGraph,
    /// Deterministic witness cycles of the lock-order graph (empty iff
    /// the model is deadlock-free).
    pub cycles: Vec<LockCycle>,
    /// The lowered sync graph ([`LockGraph::lower`]).
    pub sg: SyncGraph,
    /// Sync-graph indices of the hold-point (`A`) nodes, in lock-edge
    /// order — the head seeds for the refined analysis.
    pub hold_points: Vec<usize>,
}

impl LokModel {
    /// The engine's witness list: every lock-order cycle with its
    /// span-anchored acquisition chain (empty iff deadlock-free).
    #[must_use]
    pub fn witnesses(&self) -> Vec<String> {
        self.cycles
            .iter()
            .map(|c| format!("lock-order cycle: {}", self.lock_graph.render_cycle(c)))
            .collect()
    }
}

/// The `.lok` frontend.
pub struct LokFrontend;

impl Frontend for LokFrontend {
    fn lang(&self) -> Lang {
        Lang::Lok
    }

    fn extensions(&self) -> &'static [&'static str] {
        &["lok"]
    }

    fn description(&self) -> &'static str {
        "threads acquiring/releasing named mutexes; deadlocks are lock-order cycles"
    }

    fn load(&self, src: &str) -> Result<LoadedModel, IwaError> {
        let program = parse_lok(src)?;
        let lock_graph = LockGraph::build(&program);
        let warnings = lock_graph
            .issues
            .iter()
            .map(|i| lock_graph.render_issue(i))
            .collect();
        let cycles = lock_graph.cycles();
        let (sg, hold_points) = lock_graph.lower();
        Ok(LoadedModel {
            lang: Lang::Lok,
            ir: ModelIr::Lok(Box::new(LokModel {
                program,
                lock_graph,
                cycles,
                sg,
                hold_points,
            })),
            warnings,
        })
    }
}
