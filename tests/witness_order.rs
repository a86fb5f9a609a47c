//! Witness order-invariance for the wait-graph frontends: the answer
//! must be stable across equivalent declaration orders.
//!
//! Reordering the threads of a `.lok` program, or the channels and the
//! processes of a `.chan` program, renumbers the wait graph's nodes and
//! reorders its edges, and so can change which member of a strong
//! component starts a witness ring and which acquire sites a chain
//! quotes. It must not change what is reported: the verdict, the number
//! of witnesses, the set of name-level wait edges, or which nodes are
//! self-cycles. Inputs are the `corpus/locks` and `corpus/channels`
//! fixtures plus the `lock_chain`, `lock_mesh`, `chan_ring`, and
//! `chan_select_storm` generators in both flavours at small sizes.

use iwa::engine::{analyze_model, EngineOptions, EngineVerdict};
use iwa::frontend::{registry, Lang, LoadedModel, ModelIr};
use iwa::workloads::{chan, locks};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

/// Every input: `(name, lang, source)`.
fn inputs() -> Vec<(String, Lang, String)> {
    let mut out = Vec::new();
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus");
    for (dir, lang) in [("locks", Lang::Lok), ("channels", Lang::Chan)] {
        let mut paths: Vec<PathBuf> = fs::read_dir(root.join(dir))
            .expect("corpus dir exists")
            .map(|e| e.expect("readable dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == lang.name()))
            .collect();
        paths.sort();
        for p in paths {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            out.push((
                name,
                lang,
                fs::read_to_string(&p).expect("readable fixture"),
            ));
        }
    }
    for n in 2..=5 {
        for flag in [false, true] {
            out.push((
                format!("lock_chain({n}, {flag})"),
                Lang::Lok,
                locks::lock_chain(n, flag),
            ));
            out.push((
                format!("lock_mesh({n}, {flag})"),
                Lang::Lok,
                locks::lock_mesh(n, flag),
            ));
            out.push((
                format!("chan_ring({n}, {flag})"),
                Lang::Chan,
                chan::chan_ring(n, flag),
            ));
            out.push((
                format!("chan_select_storm({n}, {flag})"),
                Lang::Chan,
                chan::chan_select_storm(n, flag),
            ));
        }
    }
    out
}

/// Split a `.lok`/`.chan` source into its top-level declarations, with
/// `//` comments dropped: each item ends at a `;` or a closing `}` at
/// brace depth zero.
fn declarations(src: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut depth = 0usize;
    for line in src.lines() {
        let code = line.split("//").next().unwrap_or_default();
        for ch in code.chars().chain(['\n']) {
            cur.push(ch);
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            if depth == 0 && (ch == ';' || ch == '}') {
                items.push(std::mem::take(&mut cur).trim().to_owned());
            }
        }
    }
    assert!(cur.trim().is_empty(), "trailing text: {cur:?}");
    items
}

/// Most declarations of one kind in any input.
const MAX_DECLS: usize = 16;

/// Reorder `src`'s declarations by sorting them on `keys`: threads
/// (`.lok`), or channels and processes each among themselves (`.chan`
/// channels must be declared before use, so all of them stay ahead of
/// the processes).
fn permuted(src: &str, keys: &[u64]) -> String {
    let (chans, rest): (Vec<String>, Vec<String>) = declarations(src)
        .into_iter()
        .partition(|d| d.starts_with("chan "));
    let shuffle = |v: Vec<String>| {
        assert!(v.len() <= MAX_DECLS, "raise MAX_DECLS to {}", v.len());
        let mut keyed: Vec<(u64, String)> = keys.iter().copied().zip(v).collect();
        keyed.sort();
        keyed.into_iter().map(|(_, d)| d)
    };
    shuffle(chans)
        .chain(shuffle(rest))
        .collect::<Vec<_>>()
        .join("\n")
}

/// What must not depend on declaration order.
#[derive(Debug, PartialEq, Eq)]
struct Answer {
    verdict: EngineVerdict,
    witnesses: usize,
    edges: BTreeSet<(String, String)>,
    self_cycles: BTreeSet<String>,
}

fn answer(model: &LoadedModel) -> Answer {
    let report = analyze_model(model, &EngineOptions::default()).expect("wait graphs analyse");
    let (edges, self_cycles) = match &model.ir {
        ModelIr::Lok(m) => {
            let g = &m.lock_graph;
            let name = |n: usize| g.mutex_name(n).to_owned();
            (
                g.edges.iter().map(|e| (name(e.from), name(e.to))).collect(),
                m.cycles
                    .iter()
                    .filter(|c| c.nodes.len() == 1)
                    .map(|c| name(c.nodes[0]))
                    .collect(),
            )
        }
        ModelIr::Chan(m) => {
            let g = &m.comm_graph;
            (
                g.edges
                    .iter()
                    .map(|e| (g.port_name(e.from), g.port_name(e.to)))
                    .collect(),
                m.cycles
                    .iter()
                    .filter(|c| c.nodes.len() == 1)
                    .map(|c| g.port_name(c.nodes[0]))
                    .collect(),
            )
        }
        ModelIr::Tasklang(_) => unreachable!("wait-graph frontends only"),
    };
    Answer {
        verdict: report.verdict,
        witnesses: report.flagged.len(),
        edges,
        self_cycles,
    }
}

#[test]
fn declarations_round_trip_every_input() {
    for (name, lang, src) in inputs() {
        let items = declarations(&src);
        assert!(!items.is_empty(), "{name}");
        let rejoined = registry::by_lang(lang)
            .load(&items.join("\n"))
            .expect("re-parses");
        let original = registry::by_lang(lang).load(&src).expect("parses");
        assert_eq!(answer(&rejoined), answer(&original), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn witnesses_are_stable_across_declaration_orders(
        keys in proptest::collection::vec(0u64..u64::MAX, MAX_DECLS..=MAX_DECLS),
    ) {
        for (name, lang, src) in inputs() {
            let frontend = registry::by_lang(lang);
            let want = answer(&frontend.load(&src).expect("parses"));
            let reordered = permuted(&src, &keys);
            let got = answer(&frontend.load(&reordered).expect("reordered input parses"));
            prop_assert_eq!(&got, &want, "{}: reordered as\n{}", name, reordered);
        }
    }
}
