//! The verdict call the end-to-end metrics time, and the traced replay
//! that times each layer's public entry point on the same input, in
//! pipeline order, with spans kept by this benchmark (the program itself
//! is not instrumented).

use crate::inputs::{Expect, Input};
use crate::stats::ms;
use iwa_analysis::{
    naive_analysis, AnalysisCtx, CertifyOptions, CoexecInfo, RefinedOptions, SequenceInfo,
    StallOptions,
};
use iwa_core::obs::Counters;
use iwa_core::Metrics;
use iwa_engine::{analyze_model, EngineOptions, EngineReport, EngineVerdict, Rung};
use iwa_frontend::{registry, Lang, LoadedModel, ModelIr};
use iwa_graphs::Scc;
use iwa_lint::{registry_for, run_lints, run_lints_chan, run_lints_lok, Diagnostic, LintConfig};
use iwa_syncgraph::{Clg, PortClg, SyncGraph};
use iwa_tasklang::transforms::{inline_procs, unroll_twice};
use serde::{Serialize, Value};
use std::hint::black_box;
use std::time::Instant;

/// The engine workloads' options: heads tier, one worker, no deadline and
/// no step ceiling, so rung selection never depends on timing.
pub fn engine_options() -> EngineOptions {
    EngineOptions {
        start: Rung::Heads,
        deadline: None,
        max_steps: None,
        workers: 1,
        ..EngineOptions::default()
    }
}

/// Source text to finished report: `registry.load` + `analyze_model`.
pub fn verdict(input: &Input, source: &str) -> Result<EngineReport, String> {
    let model = registry::by_lang(input.lang)
        .load(source)
        .map_err(|e| e.to_string())?;
    analyze_model(&model, &engine_options()).map_err(|e| e.to_string())
}

/// How one report measures up against the input's known answer.
pub struct Judged {
    /// An `ok`, non-degraded report.
    pub ok: bool,
    /// The verdict equals the known answer.
    pub precise: bool,
}

/// Judge a report. `Err` is a correctness-gate violation: a known-anomalous
/// input reported clean.
pub fn judge(input: &Input, report: &EngineReport) -> Result<Judged, String> {
    let precise = match (input.expected, report.verdict) {
        (Expect::Anomalous, EngineVerdict::Clean) => {
            return Err(format!("{}: known anomalous, reported Clean", input.name))
        }
        (Expect::Clean, EngineVerdict::Clean) | (Expect::Anomalous, EngineVerdict::Anomalous) => {
            true
        }
        _ => false,
    };
    Ok(Judged {
        ok: !report.degraded,
        precise,
    })
}

/// Per-layer wall times of one input, in milliseconds.
pub const TIME_FIELDS: [&str; 16] = [
    "frontend.load_ms",
    "tasklang.transform_ms",
    "syncgraph.build_ms",
    "syncgraph.clg_ms",
    "syncgraph.port_clg_ms",
    "graphs.scc_ms",
    "analysis.sequence_ms",
    "analysis.coexec_ms",
    "analysis.naive_ms",
    "analysis.refined_ms",
    "analysis.head_search_ms",
    "analysis.stall_ms",
    "engine.analyze_ms",
    "engine.witness_ms",
    "engine.untraced_ms",
    "lint.run_ms",
];

/// Per-layer deterministic work counts of one input.
pub const COUNT_FIELDS: [&str; 9] = [
    "frontend.model_nodes",
    "tasklang.unrolled_nodes",
    "syncgraph.sync_edges",
    "syncgraph.port_clg_nodes",
    "analysis.sequence_pairs",
    "analysis.heads_examined",
    "analysis.scc_runs",
    "analysis.pruning_hits",
    "analysis.stall_combinations",
];

const LOAD: usize = 0;
const TRANSFORM: usize = 1;
const BUILD: usize = 2;
const CLG: usize = 3;
const PORT_CLG: usize = 4;
const SCC: usize = 5;
const SEQUENCE: usize = 6;
const COEXEC: usize = 7;
const NAIVE: usize = 8;
const REFINED: usize = 9;
const HEAD_SEARCH: usize = 10;
const STALL: usize = 11;
const ANALYZE: usize = 12;
const WITNESS: usize = 13;
const UNTRACED: usize = 14;
const LINT: usize = 15;

const MODEL_NODES: usize = 0;
const UNROLLED_NODES: usize = 1;
const SYNC_EDGES: usize = 2;
const PORT_NODES: usize = 3;
const SEQ_PAIRS: usize = 4;
const HEADS: usize = 5;
const SCC_RUNS: usize = 6;
const PRUNING: usize = 7;
const STALL_COMBOS: usize = 8;

/// One traced replay of one input.
pub struct Row {
    pub times: [f64; TIME_FIELDS.len()],
    pub counts: [u64; COUNT_FIELDS.len()],
    /// The engine's rung without witness rendering: `AnalysisCtx::certify`
    /// (tasklang) or `refined_seeded` (`.lok`/`.chan`).
    pub core_ms: f64,
    /// The report of the replay's `analyze_model` call.
    pub report: EngineReport,
}

impl Row {
    /// Fill the fields that are differences of measured ones.
    pub fn derive(&mut self) {
        let t = &mut self.times;
        t[HEAD_SEARCH] = t[REFINED] - (t[CLG] + t[PORT_CLG] + t[SCC] + t[SEQUENCE] + t[COEXEC]);
        t[WITNESS] = t[ANALYZE] - self.core_ms;
        // Layers a model's pipeline does not run read 0.
        t[UNTRACED] = t[ANALYZE] - (t[TRANSFORM] + t[BUILD] + t[NAIVE] + t[REFINED] + t[STALL]);
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot = ms(t0.elapsed());
    out
}

fn ctx_with(metrics: &Metrics) -> AnalysisCtx {
    AnalysisCtx::builder().metrics(metrics.clone()).build()
}

/// The sub-layers `AnalysisCtx::refined` runs, each called on its own,
/// then `refined` (or `refined_seeded`) itself; the head search is what
/// `refined` spends beyond its sub-layer calls.
fn graph_layers(
    sg: &SyncGraph,
    seeds: Option<&[usize]>,
    t: &mut [f64],
    c: &mut [u64],
) -> Result<(), String> {
    // Each table is dropped before the next call, so `refined` (which
    // builds them all again) starts from the same heap as inside the
    // engine.
    black_box(timed(&mut t[CLG], || Clg::build(sg)));
    let pg = timed(&mut t[PORT_CLG], || PortClg::build(sg));
    c[PORT_NODES] = pg.num_nodes() as u64;
    black_box(timed(&mut t[SCC], || Scc::compute(&pg.graph, None)));
    drop(pg);
    let seq = timed(&mut t[SEQUENCE], || SequenceInfo::compute(sg));
    c[SEQ_PAIRS] = seq.num_ordered_pairs() as u64;
    drop(seq);
    black_box(timed(&mut t[COEXEC], || CoexecInfo::compute(sg)));

    let metrics = Metrics::new();
    let ctx = ctx_with(&metrics);
    let opts = RefinedOptions::default();
    let refined = timed(&mut t[REFINED], || match seeds {
        Some(seeds) => ctx.refined_seeded(sg, seeds, &opts),
        None => ctx.refined(sg, &opts),
    })
    .map_err(|e| e.to_string())?;
    black_box(refined);
    let Counters {
        heads_examined,
        scc_runs,
        sequenceable_hits,
        coaccept_hits,
        not_coexec_hits,
        constraint4_rescues,
        ..
    } = metrics.snapshot();
    c[HEADS] = heads_examined;
    c[SCC_RUNS] = scc_runs;
    c[PRUNING] = sequenceable_hits + coaccept_hits + not_coexec_hits + constraint4_rescues;
    Ok(())
}

fn lint(model: &LoadedModel) -> Result<Vec<Diagnostic>, String> {
    let config = LintConfig::default();
    let passes = registry_for(model.lang);
    Ok(match &model.ir {
        ModelIr::Tasklang(p) => run_lints(&AnalysisCtx::builder().build(), p, &config, &passes)
            .map_err(|e| e.to_string())?,
        ModelIr::Lok(m) => run_lints_lok(m, &config, &passes),
        ModelIr::Chan(m) => run_lints_chan(m, &config, &passes),
    })
}

/// The diagnostics the language's lint entry point reports for `source`,
/// as the daemon serialises them.
pub fn lint_value(lang: Lang, source: &str) -> Result<Value, String> {
    let model = registry::by_lang(lang)
        .load(source)
        .map_err(|e| e.to_string())?;
    Ok(lint(&model)?.to_value())
}

/// Replay `input` layer by layer.
///
/// Tasklang: load → inline + unroll → sync graph → naive → CLG, port CLG,
/// shared SCC, SEQUENCEABLE, NOT-COEXEC → refined → stall, then the
/// engine's `analyze_model` and `AnalysisCtx::certify` for the witness
/// share. `.lok`/`.chan`: load (which lowers to the sync graph) → the same
/// graph layers → `refined_seeded` → `analyze_model`. Every model ends
/// with its language's lint run.
pub fn trace_input(input: &Input) -> Result<Row, String> {
    let mut t = [0.0; TIME_FIELDS.len()];
    let mut c = [0u64; COUNT_FIELDS.len()];
    let model = timed(&mut t[LOAD], || {
        registry::by_lang(input.lang).load(&input.source)
    })
    .map_err(|e| e.to_string())?;
    c[MODEL_NODES] = crate::inputs::loaded_nodes(&model)? as u64;

    let mut core_ms = 0.0;
    let report = match &model.ir {
        ModelIr::Tasklang(p) => {
            let t0 = Instant::now();
            let inlined = if p.has_calls() {
                Some(inline_procs(p).map_err(|e| e.to_string())?)
            } else {
                None
            };
            let p = inlined.as_ref().unwrap_or(p);
            let unrolled = (!p.is_loop_free()).then(|| unroll_twice(p));
            let target = unrolled.as_ref().unwrap_or(p);
            t[TRANSFORM] = ms(t0.elapsed());

            let sg = timed(&mut t[BUILD], || SyncGraph::from_program(target));
            c[UNROLLED_NODES] = sg.num_nodes() as u64;
            c[SYNC_EDGES] = sg.num_sync_edges() as u64;
            black_box(timed(&mut t[NAIVE], || naive_analysis(&sg)));
            graph_layers(&sg, None, &mut t, &mut c)?;

            let metrics = Metrics::new();
            let stall_ctx = ctx_with(&metrics);
            let stall_opts = StallOptions::default();
            black_box(timed(&mut t[STALL], || stall_ctx.stall(p, &stall_opts)));
            c[STALL_COMBOS] = metrics.snapshot().stall_combinations;

            let report = timed(&mut t[ANALYZE], || analyze_model(&model, &engine_options()))
                .map_err(|e| e.to_string())?;
            let certificate = timed(&mut core_ms, || {
                AnalysisCtx::builder()
                    .build()
                    .certify(p, &CertifyOptions::default())
            })
            .map_err(|e| e.to_string())?;
            black_box(certificate);
            report
        }
        ModelIr::Lok(_) | ModelIr::Chan(_) => {
            let (sg, seeds) = match &model.ir {
                ModelIr::Lok(m) => (&m.sg, &m.hold_points),
                ModelIr::Chan(m) => (&m.sg, &m.wait_points),
                ModelIr::Tasklang(_) => unreachable!("matched above"),
            };
            c[UNROLLED_NODES] = 0;
            c[SYNC_EDGES] = sg.num_sync_edges() as u64;
            graph_layers(sg, Some(seeds), &mut t, &mut c)?;
            let report = timed(&mut t[ANALYZE], || analyze_model(&model, &engine_options()))
                .map_err(|e| e.to_string())?;
            // The ladder's heads rung is `refined_seeded` plus witness
            // rendering from the cycles the frontend precomputed.
            core_ms = t[REFINED];
            report
        }
    };
    black_box(timed(&mut t[LINT], || lint(&model))?);
    let mut row = Row {
        times: t,
        counts: c,
        core_ms,
        report,
    };
    row.derive();
    Ok(row)
}

/// The time of the verdict work inside a traced replay (what the
/// untraced loop times as one verdict).
pub fn verdict_ms(row: &Row) -> f64 {
    row.times[LOAD] + row.times[ANALYZE]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{realise, slots};

    #[test]
    fn deterministic_counts_repeat_for_a_seed() {
        // The small inputs of the mixed-language workload: every frontend,
        // kept small enough for an unoptimised build.
        let small = |seed| {
            realise(&slots("serve_replay").expect("known workload"), seed)
                .expect("inputs realise")
                .into_iter()
                .filter(|i| crate::inputs::model_nodes(i.lang, &i.source).expect("loads") <= 300)
                .collect::<Vec<_>>()
        };
        let (a, b) = (small(5), small(5));
        assert!(a.len() >= 20);
        for (x, y) in a.iter().zip(&b) {
            let rx = trace_input(x).expect("replays");
            let ry = trace_input(y).expect("replays");
            assert_eq!(rx.counts, ry.counts, "{}", x.name);
            assert!(rx.counts[MODEL_NODES] > 0, "{}", x.name);
        }
    }
}
