//! Cross-checks for the `.lok` lock-order frontend over `corpus/locks/`
//! and the `lock_chain`/`lock_mesh` workload generators.
//!
//! Every fixture carries an `// expect: deadlock|clean` header, and every
//! generator documents its flavour. For each input, five independent
//! answers must agree with it and with each other:
//!
//! 1. the static lock-order graph (cycles present iff deadlock);
//! 2. the naive CLG cycle check on the lowered sync graph — exact for
//!    this frontend, since every CLG cycle of the lowering traces a lock
//!    cycle and vice versa;
//! 3. the refined per-head search seeded with the frontend's hold points;
//! 4. the wavesim oracle in deadlock-only mode (`ignore_stalls`: the
//!    lowering makes every task skippable, so acyclic models still stall);
//! 5. the engine's `analyze_model` from every start rung, which answers
//!    from the cycle set directly and must never degrade.

use iwa::analysis::{naive_analysis, AnalysisCtx, RefinedOptions};
use iwa::engine::{analyze_model, EngineOptions, EngineVerdict, LADDER};
use iwa::frontend::{registry, Lang, LoadedModel};
use iwa::wavesim::{explore, ExploreConfig};
use std::fs;
use std::path::PathBuf;

fn corpus_fixtures() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus/locks");
    let mut out: Vec<(String, String)> = fs::read_dir(&dir)
        .expect("corpus/locks exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "lok"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let src = fs::read_to_string(&p).expect("readable fixture");
            (name, src)
        })
        .collect();
    out.sort();
    assert!(out.len() >= 9, "the locks corpus shrank: {out:?}");
    out
}

fn expectation(name: &str, src: &str) -> bool {
    let header = src.lines().next().unwrap_or_default();
    if header.contains("expect: deadlock") {
        true
    } else if header.contains("expect: clean") {
        false
    } else {
        panic!("{name}: first line must be `// expect: deadlock|clean`, got {header:?}");
    }
}

/// Assert that all five answers agree that `model` deadlocks iff
/// `expect_deadlock`.
fn assert_agrees(name: &str, model: &LoadedModel, expect_deadlock: bool) {
    let m = model.as_lok().expect("lok frontend yields a lok model");

    // 1. Lock-order graph.
    assert_eq!(
        !m.cycles.is_empty(),
        expect_deadlock,
        "{name}: lock graph cycles {:?}",
        m.cycles
    );

    // 2. Naive §3.1 CLG check — exact for this lowering.
    let naive = naive_analysis(&m.sg);
    assert_eq!(naive.deadlock_free, !expect_deadlock, "{name}: naive");

    // 3. Refined search seeded from the frontend's hold points.
    let refined = AnalysisCtx::builder()
        .build()
        .refined_seeded(&m.sg, &m.hold_points, &RefinedOptions::default())
        .unwrap_or_else(|e| panic!("{name}: refined: {e}"));
    assert_eq!(refined.deadlock_free, !expect_deadlock, "{name}: refined");
    assert_eq!(
        refined.flagged.is_empty(),
        !expect_deadlock,
        "{name}: flagged heads"
    );

    // 4. Exhaustive wave oracle, deadlock-only mode.
    let e = explore(
        &m.sg,
        &ExploreConfig {
            ignore_stalls: true,
            ..ExploreConfig::default()
        },
    )
    .unwrap_or_else(|err| panic!("{name}: oracle: {err}"));
    assert_eq!(e.has_deadlock(), expect_deadlock, "{name}: oracle");

    // 5. The engine, from every start rung, reports the cycle set.
    let want = if expect_deadlock {
        EngineVerdict::Anomalous
    } else {
        EngineVerdict::Clean
    };
    for start in LADDER {
        let opts = EngineOptions {
            start,
            ..EngineOptions::default()
        };
        let r = analyze_model(model, &opts).unwrap_or_else(|err| panic!("{name}: engine: {err}"));
        assert_eq!((r.verdict, r.rung, r.degraded), (want, start, false), "{name} from {start}");
        assert_eq!(r.flagged, m.witnesses(), "{name} from {start}");
    }
}

/// Static graph, naive CLG check, seeded refined search, the wave oracle,
/// and the engine all agree with each fixture's `// expect:` header.
#[test]
fn every_fixture_agrees_across_all_four_analyses() {
    let frontend = registry::by_lang(Lang::Lok);
    for (name, src) in corpus_fixtures() {
        let expect_deadlock = expectation(&name, &src);
        let model = frontend.load(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_agrees(&name, &model, expect_deadlock);
    }
}

/// The same five answers on the bench generators at sizes the oracle
/// explores within its default limits: unordered chains and meshes
/// deadlock, ordered ones are clean.
#[test]
fn generator_families_agree_across_all_analyses() {
    use iwa::workloads::locks::{lock_chain, lock_mesh};
    let frontend = registry::by_lang(Lang::Lok);
    for n in 2..=4 {
        for ordered in [false, true] {
            for (family, src) in [("lock_chain", lock_chain(n, ordered)), ("lock_mesh", lock_mesh(n, ordered))] {
                let name = format!("{family}({n}, ordered: {ordered})");
                let model = frontend.load(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_agrees(&name, &model, !ordered);
            }
        }
    }
}

/// The seeded acceptance case: a three-mutex ring is reported with a
/// witness chain naming every mutex and anchoring each acquire site to
/// its source span.
#[test]
fn three_cycle_witness_walks_the_ring_with_spans() {
    let (_, src) = corpus_fixtures()
        .into_iter()
        .find(|(name, _)| name == "three_cycle.lok")
        .expect("three_cycle.lok present");
    let frontend = registry::by_lang(Lang::Lok);
    let model = frontend.load(&src).unwrap();
    let m = model.as_lok().unwrap();
    assert_eq!(m.cycles.len(), 1, "exactly one ring: {:?}", m.cycles);
    let witness = m.lock_graph.render_cycle(&m.cycles[0]);
    assert!(witness.contains("a → b → c → a"), "chain: {witness}");
    for mutex in ["a", "b", "c"] {
        assert!(
            witness.contains(&format!("holds {mutex} (")),
            "span-anchored hold of {mutex}: {witness}"
        );
    }
    // Spans are line:column pairs into the fixture source.
    assert!(witness.contains("(6:13)"), "acquire spans: {witness}");
}

/// The lock-order frontend's hold-point seeds are a subset of the generic
/// head scan, and seeding them loses nothing: the refined verdict matches
/// the unseeded one on every fixture.
#[test]
fn seeded_and_unseeded_refined_verdicts_match() {
    let frontend = registry::by_lang(Lang::Lok);
    let ctx = AnalysisCtx::builder().build();
    for (name, src) in corpus_fixtures() {
        let model = frontend.load(&src).unwrap();
        let m = model.as_lok().unwrap();
        let opts = RefinedOptions::default();
        let seeded = ctx.refined_seeded(&m.sg, &m.hold_points, &opts).unwrap();
        let unseeded = ctx.refined(&m.sg, &opts).unwrap();
        assert_eq!(
            seeded.deadlock_free, unseeded.deadlock_free,
            "{name}: seeding changed the verdict"
        );
    }
}
