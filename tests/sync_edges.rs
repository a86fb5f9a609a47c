//! Sync edges are derived by pairing the send and accept buckets of each
//! signal; this pins the result to the definition — an edge between every
//! pair of complementary same-signal rendezvous points — on every graph the
//! corpus, the paper's figures and the `.lok`/`.chan` lowerings build.

use iwa::frontend::{registry, Lang};
use iwa::syncgraph::SyncGraph;
use iwa::tasklang::transforms::{inline_procs, unroll_twice};
use iwa::tasklang::{parse, Program};
use iwa::workloads::{chan, figures, locks};
use std::path::Path;

/// The all-pairs sync adjacency of `sg`'s nodes, sorted per node.
fn all_pairs(sg: &SyncGraph) -> Vec<Vec<u32>> {
    let mut adj = vec![Vec::new(); sg.num_nodes()];
    for i in sg.rendezvous_nodes() {
        for j in sg.rendezvous_nodes().skip_while(|&j| j <= i) {
            if sg.node(i).rendezvous.matches(sg.node(j).rendezvous) {
                adj[i].push(j as u32);
                adj[j].push(i as u32);
            }
        }
    }
    adj
}

fn assert_all_pairs(what: &str, sg: &SyncGraph) {
    let want = all_pairs(sg);
    for (v, w) in want.iter().enumerate() {
        assert_eq!(sg.sync_neighbors(v), &w[..], "{what}: node {v}");
    }
    let edges = want.iter().map(Vec::len).sum::<usize>() / 2;
    assert_eq!(sg.num_sync_edges(), edges, "{what}");
}

/// The program's own graph and, when it differs, its analysed image.
fn assert_program(what: &str, p: &Program) {
    let p = if p.has_calls() {
        inline_procs(p).unwrap()
    } else {
        p.clone()
    };
    assert_all_pairs(what, &SyncGraph::from_program(&p));
    if !p.is_loop_free() {
        assert_all_pairs(
            &format!("{what} (unrolled)"),
            &SyncGraph::from_program(&unroll_twice(&p)),
        );
    }
}

fn corpus_files(dir: &str, ext: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("corpus")
        .join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|f| {
            (
                f.display().to_string(),
                std::fs::read_to_string(&f).expect("readable"),
            )
        })
        .collect()
}

#[test]
fn corpus_programs_and_figures_get_every_complementary_pair() {
    let mut seen = 0;
    for dir in ["", "lints"] {
        for (name, src) in corpus_files(dir, "iwa") {
            assert_program(&name, &parse(&src).unwrap());
            seen += 1;
        }
    }
    for (name, p) in figures::all_figures() {
        assert_program(name, &p);
        seen += 1;
    }
    assert!(seen > 20, "{seen} programs");
}

#[test]
fn wait_graph_lowerings_get_every_complementary_pair() {
    let mut models = Vec::new();
    for (name, src) in corpus_files("locks", "lok") {
        models.push((name, Lang::Lok, src));
    }
    for (name, src) in corpus_files("channels", "chan") {
        models.push((name, Lang::Chan, src));
    }
    for n in [2, 5] {
        for flag in [false, true] {
            models.push((
                format!("lock_chain-{n}-{flag}"),
                Lang::Lok,
                locks::lock_chain(n, flag),
            ));
            models.push((
                format!("lock_mesh-{n}-{flag}"),
                Lang::Lok,
                locks::lock_mesh(n, flag),
            ));
            models.push((
                format!("chan_ring-{n}-{flag}"),
                Lang::Chan,
                chan::chan_ring(n, flag),
            ));
            models.push((
                format!("chan_select_storm-{n}-{flag}"),
                Lang::Chan,
                chan::chan_select_storm(n, flag),
            ));
        }
    }
    for (name, lang, src) in models {
        let model = registry::by_lang(lang).load(&src).unwrap();
        assert_all_pairs(&name, &model.sync_graph());
    }
}
