//! Cross-checks for the `.chan` channel/select frontend over
//! `corpus/channels/` and the `chan_ring`/`chan_select_storm` workload
//! generators.
//!
//! Every fixture carries an `// expect: deadlock|livelock|clean` header,
//! and every generator documents its flavour. The *deadlock* half of each
//! verdict must agree across four independent answers:
//!
//! 1. the communication dependency graph (cycles present iff deadlock);
//! 2. the naive CLG cycle check on the lowered sync graph — exact for
//!    this frontend, since every CLG cycle of the lowering traces a
//!    port-wait cycle and vice versa;
//! 3. the refined per-head search seeded with the frontend's wait
//!    points;
//! 4. the wavesim oracle in deadlock-only mode (`ignore_stalls`: the
//!    lowering makes every task skippable, so acyclic models still
//!    stall).
//!
//! The *livelock* half lives in the AST (the lowering is
//! control-loop-free), so it is checked against the static witness list,
//! and the engine must fold both halves into one verdict from every start
//! rung, without degrading: `Anomalous` iff the input deadlocks or
//! livelocks.

use iwa::analysis::{naive_analysis, AnalysisCtx, RefinedOptions};
use iwa::engine::{analyze_model, EngineOptions, EngineVerdict, LADDER};
use iwa::frontend::{registry, Lang, LoadedModel};
use iwa::wavesim::{explore, ExploreConfig};
use std::fs;
use std::path::PathBuf;

fn corpus_fixtures() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus/channels");
    let mut out: Vec<(String, String)> = fs::read_dir(&dir)
        .expect("corpus/channels exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "chan"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let src = fs::read_to_string(&p).expect("readable fixture");
            (name, src)
        })
        .collect();
    out.sort();
    assert!(out.len() >= 9, "the channels corpus shrank: {out:?}");
    out
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Expect {
    Deadlock,
    Livelock,
    Clean,
}

fn expectation(name: &str, src: &str) -> Expect {
    let header = src.lines().next().unwrap_or_default();
    if header.contains("expect: deadlock") {
        Expect::Deadlock
    } else if header.contains("expect: livelock") {
        Expect::Livelock
    } else if header.contains("expect: clean") {
        Expect::Clean
    } else {
        panic!("{name}: first line must be `// expect: deadlock|livelock|clean`, got {header:?}");
    }
}

/// Assert that every analysis agrees with `expect` on `model`.
fn assert_agrees(name: &str, model: &LoadedModel, expect: Expect) {
    let deadlock = expect == Expect::Deadlock;
    let m = model.as_chan().expect("chan frontend yields a chan model");

    // 1. Communication dependency graph.
    assert_eq!(
        !m.cycles.is_empty(),
        deadlock,
        "{name}: comm graph cycles {:?}",
        m.cycles
    );
    assert_eq!(
        !m.livelocks.is_empty(),
        expect == Expect::Livelock,
        "{name}: livelock witnesses {:?}",
        m.livelocks
    );

    // 2. Naive §3.1 CLG check — exact for this lowering.
    let naive = naive_analysis(&m.sg);
    assert_eq!(naive.deadlock_free, !deadlock, "{name}: naive");

    // 3. Refined search seeded from the frontend's wait points.
    let refined = AnalysisCtx::builder()
        .build()
        .refined_seeded(&m.sg, &m.wait_points, &RefinedOptions::default())
        .unwrap_or_else(|e| panic!("{name}: refined: {e}"));
    assert_eq!(refined.deadlock_free, !deadlock, "{name}: refined");
    assert_eq!(
        refined.flagged.is_empty(),
        !deadlock,
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
    assert_eq!(e.has_deadlock(), deadlock, "{name}: oracle");

    // 5. The engine folds both halves into one verdict on every rung.
    let want = if expect == Expect::Clean {
        EngineVerdict::Clean
    } else {
        EngineVerdict::Anomalous
    };
    for start in LADDER {
        let opts = EngineOptions {
            start,
            ..EngineOptions::default()
        };
        let r = analyze_model(model, &opts).unwrap_or_else(|err| panic!("{name}: engine: {err}"));
        assert_eq!((r.verdict, r.rung, r.degraded), (want, start, false), "{name} from {start}");
        assert_eq!(r.flagged, m.witnesses(), "{name} from {start}");
        assert_eq!(r.flagged.is_empty(), expect == Expect::Clean, "{name}: engine flagged");
    }
}

/// Communication graph, naive CLG check, seeded refined search, wave
/// oracle, and the engine ladder all agree with each fixture's
/// `// expect:` header.
#[test]
fn every_fixture_agrees_across_all_analyses() {
    let frontend = registry::by_lang(Lang::Chan);
    for (name, src) in corpus_fixtures() {
        let expect = expectation(&name, &src);
        let model = frontend.load(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_agrees(&name, &model, expect);
    }
}

/// The same answers on the bench generators at sizes the oracle explores
/// within its default limits: the ring deadlocks unless broken, the
/// storm livelocks iff it spins.
#[test]
fn generator_families_agree_across_all_analyses() {
    use iwa::workloads::chan::{chan_ring, chan_select_storm};
    let frontend = registry::by_lang(Lang::Chan);
    for n in 2..=4 {
        let inputs = [
            ("chan_ring", chan_ring(n, false), Expect::Deadlock),
            ("chan_ring_broken", chan_ring(n, true), Expect::Clean),
            ("chan_select_storm_spin", chan_select_storm(n, true), Expect::Livelock),
            ("chan_select_storm", chan_select_storm(n, false), Expect::Clean),
        ];
        for (family, src, expect) in inputs {
            let name = format!("{family}({n})");
            let model = frontend.load(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_agrees(&name, &model, expect);
        }
    }
}

/// The seeded acceptance case: the spin-on-default poller is reported
/// with a span-anchored witness naming the loop, the select, and the
/// starved arm with its ranked rationale.
#[test]
fn select_default_spin_witness_is_span_anchored_with_rationale() {
    let (_, src) = corpus_fixtures()
        .into_iter()
        .find(|(name, _)| name == "select_default_spin.chan")
        .expect("select_default_spin.chan present");
    let frontend = registry::by_lang(Lang::Chan);
    let model = frontend.load(&src).unwrap();
    let m = model.as_chan().unwrap();
    assert!(m.cycles.is_empty(), "no deadlock: {:?}", m.cycles);
    assert_eq!(m.livelocks.len(), 1, "one witness: {:?}", m.livelocks);
    let w = &m.livelocks[0];
    assert!(w.loop_span.is_real() && w.site_span.is_real());
    assert_eq!(w.starved.len(), 1);
    assert_eq!(w.starved[0].counterparts, 0, "the arm can never fire");
    let rendered = m.render_livelock(w);
    assert!(rendered.contains("proc poller livelocks"), "{rendered}");
    assert!(rendered.contains("spins on select default"), "{rendered}");
    assert!(
        rendered.contains("recv c") && rendered.contains("can never fire"),
        "starved-arm rationale: {rendered}"
    );
    // Spans are line:column pairs into the fixture source.
    assert!(rendered.contains(&w.site_span.to_string()), "{rendered}");
}

/// The ring acceptance case: the three-process ring is reported with a
/// witness chain walking every port and anchoring each blocked site.
#[test]
fn ring_three_witness_walks_the_ring_with_spans() {
    let (_, src) = corpus_fixtures()
        .into_iter()
        .find(|(name, _)| name == "ring_three.chan")
        .expect("ring_three.chan present");
    let frontend = registry::by_lang(Lang::Chan);
    let model = frontend.load(&src).unwrap();
    let m = model.as_chan().unwrap();
    assert_eq!(m.cycles.len(), 1, "exactly one ring: {:?}", m.cycles);
    let witness = m.comm_graph.render_cycle(&m.cycles[0]);
    for port in ["c0!", "c1!", "c2!"] {
        assert!(witness.contains(port), "port {port} in chain: {witness}");
    }
    assert!(witness.contains("blocks at"), "span-anchored: {witness}");
}

/// The bench workload generators deliver the flavours they document:
/// the ring deadlocks unless broken, the storm livelocks iff it spins.
#[test]
fn workload_generator_flavours_have_the_documented_verdicts() {
    use iwa::workloads::chan::{chan_ring, chan_select_storm};
    let frontend = registry::by_lang(Lang::Chan);
    let load = |src: String| frontend.load(&src).expect("generated .chan is valid");
    for n in [2, 3, 8] {
        let ring = load(chan_ring(n, false));
        let m = ring.as_chan().unwrap();
        assert_eq!(m.cycles.len(), 1, "ring({n}): {:?}", m.cycles);
        assert!(m.livelocks.is_empty(), "ring({n})");
        let broken = load(chan_ring(n, true));
        let m = broken.as_chan().unwrap();
        assert!(m.cycles.is_empty(), "broken ring({n}): {:?}", m.cycles);
        assert!(m.livelocks.is_empty(), "broken ring({n})");

        let spin = load(chan_select_storm(n, true));
        let m = spin.as_chan().unwrap();
        assert!(m.cycles.is_empty(), "spin storm({n}): {:?}", m.cycles);
        assert_eq!(m.livelocks.len(), 1, "spin storm({n})");
        assert_eq!(m.livelocks[0].starved.len(), n, "spin storm({n}) arms");
        let served = load(chan_select_storm(n, false));
        let m = served.as_chan().unwrap();
        assert!(m.cycles.is_empty(), "served storm({n}): {:?}", m.cycles);
        assert!(m.livelocks.is_empty(), "served storm({n})");
    }
}

/// The channel frontend's wait-point seeds are a subset of the generic
/// head scan, and seeding them loses nothing: the refined verdict
/// matches the unseeded one on every fixture.
#[test]
fn seeded_and_unseeded_refined_verdicts_match() {
    let frontend = registry::by_lang(Lang::Chan);
    let ctx = AnalysisCtx::builder().build();
    for (name, src) in corpus_fixtures() {
        let model = frontend.load(&src).unwrap();
        let m = model.as_chan().unwrap();
        let opts = RefinedOptions::default();
        let seeded = ctx.refined_seeded(&m.sg, &m.wait_points, &opts).unwrap();
        let unseeded = ctx.refined(&m.sg, &opts).unwrap();
        assert_eq!(
            seeded.deadlock_free, unseeded.deadlock_free,
            "{name}: seeding changed the verdict"
        );
    }
}
