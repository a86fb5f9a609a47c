//! Witness provenance: the refined rungs name the nodes of the graph they
//! analysed (after inlining and Lemma-1 unrolling), not of the source
//! program's own graph.

use iwa_analysis::{AnalysisCtx, CertifyOptions, RefinedOptions, Tier};
use iwa_engine::{analyze, EngineOptions, Rung};
use iwa_syncgraph::SyncGraph;
use iwa_tasklang::transforms::inline_procs;
use iwa_tasklang::{parse, Program};
use iwa_workloads::{adversarial, classics, figures};
use std::path::Path;

/// `task:label`, or `task:signal±` for an unlabelled node.
fn name(sg: &SyncGraph, n: usize) -> String {
    let d = sg.node(n);
    let label = d.label.clone().unwrap_or_else(|| {
        format!(
            "{}{}",
            sg.symbols.signal_name(d.rendezvous.signal),
            d.rendezvous.sign
        )
    });
    format!("{}:{label}", sg.symbols.task_name(d.task))
}

/// The node names a flagged line mentions (`head X`, `confirmed by Y`).
fn named_nodes(line: &str) -> Vec<&str> {
    ["head ", "confirmed by "]
        .iter()
        .filter_map(|key| line.split(key).nth(1))
        .filter_map(|rest| rest.split(' ').next())
        .collect()
}

fn start_at(rung: Rung) -> EngineOptions {
    EngineOptions {
        start: rung,
        ..EngineOptions::default()
    }
}

fn tier(rung: Rung) -> Tier {
    match rung {
        Rung::HeadTails => Tier::HeadTails,
        Rung::HeadPairs => Tier::HeadPairs,
        _ => Tier::Heads,
    }
}

/// Every program this suite names witnesses on: the `.iwa` corpus, the
/// paper's figures, and generator inputs the refined rungs flag.
fn inputs() -> Vec<(String, Program)> {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let mut out = Vec::new();
    for dir in [corpus.clone(), corpus.join("lints")] {
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .expect("corpus directory")
            .map(|e| e.expect("entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "iwa"))
            .collect();
        files.sort();
        for f in files {
            let src = std::fs::read_to_string(&f).expect("readable");
            let p = parse(&src).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
            out.push((f.display().to_string(), p));
        }
    }
    for (name, p) in figures::all_figures() {
        out.push((name.to_owned(), p));
    }
    for n in [2, 3, 4] {
        out.push((
            format!("token_ring_broken-{n}"),
            classics::token_ring_broken(n),
        ));
        out.push((format!("pipeline-{n}"), classics::pipeline(n, 4)));
        out.push((
            format!("pipeline_looping-{n}"),
            classics::pipeline_looping(n),
        ));
        out.push((
            format!("rendezvous_mesh-{n}"),
            adversarial::rendezvous_mesh(n, false),
        ));
    }
    out.push((
        "rpc_with_procedures-2".into(),
        classics::rpc_with_procedures(2),
    ));
    out.push((
        "readers_writers_broken".into(),
        classics::readers_writers_broken(),
    ));
    out
}

#[test]
fn looping_pipeline_heads_are_named_from_the_unrolled_graph() {
    let p = classics::pipeline_looping(3);
    let cert = AnalysisCtx::builder()
        .build()
        .certify(&p, &CertifyOptions::default())
        .unwrap();
    assert!(cert.was_unrolled);
    assert!(cert.refined.flagged.iter().any(|f| f.head == 5));
    assert_eq!(name(&cert.graph, 5), "stage1:stage2.data+");

    let r = analyze(&p, &start_at(Rung::Heads)).unwrap();
    assert!(
        r.flagged
            .iter()
            .any(|f| f.starts_with("potential deadlock: head stage1:stage2.data+ (")),
        "{:?}",
        r.flagged
    );
}

#[test]
fn every_named_witness_node_exists_in_the_analysed_graph() {
    let mut named = 0;
    for (input, p) in inputs() {
        // `analyze` inlines before certifying; name against that program.
        let p = if p.has_calls() {
            inline_procs(&p).unwrap()
        } else {
            p
        };
        for rung in [Rung::Heads, Rung::HeadPairs, Rung::HeadTails] {
            let cert = AnalysisCtx::builder()
                .build()
                .certify(
                    &p,
                    &CertifyOptions {
                        refined: RefinedOptions {
                            tier: tier(rung),
                            ..RefinedOptions::default()
                        },
                        ..CertifyOptions::default()
                    },
                )
                .unwrap();
            let nodes: Vec<String> = cert
                .graph
                .rendezvous_nodes()
                .map(|n| name(&cert.graph, n))
                .collect();
            let r = analyze(&p, &start_at(rung)).unwrap();
            assert_eq!(r.rung, rung, "{input}: unbudgeted, so not degraded");
            let lines: Vec<&String> = r
                .flagged
                .iter()
                .filter(|l| l.starts_with("potential deadlock: head "))
                .collect();
            assert_eq!(lines.len(), cert.refined.flagged.len(), "{input} at {rung}");
            for (line, flag) in lines.into_iter().zip(&cert.refined.flagged) {
                let names = named_nodes(line);
                let mut want = vec![name(&cert.graph, flag.head)];
                want.extend(flag.partner.map(|q| name(&cert.graph, q)));
                assert_eq!(names, want, "{input} at {rung}: {line}");
                for n in names {
                    assert!(nodes.iter().any(|m| m == n), "{input} at {rung}: {n}");
                    named += 1;
                }
            }
        }
    }
    assert!(named > 50, "the suite names witnesses ({named})");
}
