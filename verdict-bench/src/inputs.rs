//! The three workloads as seeded draws over generators with documented
//! answers, and the manifest every realised input is checked against.
//!
//! A workload is a fixed list of *slots*. A generated slot names a
//! generator family and a size; the seed draws a fresh spelling of every
//! numbered identifier the generator emits (`node7` becomes `node7_qhx`),
//! so inputs differ between seeds while every model — and therefore every
//! figure — keeps its shape. (Drawing sizes instead made `peak_rss_mb`
//! bimodal: allocation capacities double at power-of-two sizes.) A
//! fixture slot is one corpus file, expected verdict taken from its
//! `// expect:` header.

use crate::stats::Rng;
use iwa_frontend::{registry, Lang, LoadedModel};
use iwa_syncgraph::SyncGraph;
use iwa_tasklang::transforms::inline_procs;
use iwa_workloads::{adversarial, chan, classics, locks};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The answer an input is known to have, from its generator's documented
/// contract or its fixture header — never from `iwa` itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Clean,
    Anomalous,
}

impl Expect {
    pub fn name(self) -> &'static str {
        match self {
            Expect::Clean => "clean",
            Expect::Anomalous => "anomalous",
        }
    }
}

/// A generator family and the verdict its documentation promises.
pub struct Family {
    pub name: &'static str,
    pub lang: Lang,
    pub expected: Expect,
    pub generate: fn(usize) -> String,
}

// Contracts, quoted from the generators' documentation:
// token_ring "Anomaly-free"; rendezvous_mesh ordered "breaks every
// circular wait", unordered "one maximal deadlocked set"; relay_chain
// "Deadlock-free" (straight-line and balanced, so stall-free by Lemma 3);
// token_ring_broken "Deadlocks immediately"; pipeline "Anomaly-free";
// pipeline_looping loops with `while` (0+ iterations, chosen per task),
// so an upstream stage may stop while its consumer still waits: a stall.
// lock_chain/lock_mesh: ordered is "certifiably clean", unordered has a
// cycle; chan_ring: broken drains ("certifiably clean"), unbroken is an
// n-cycle; chan_select_storm: spin "spins silently forever" (livelock),
// no-spin "nothing cycles".
const fn fam(
    name: &'static str,
    lang: Lang,
    expected: Expect,
    generate: fn(usize) -> String,
) -> Family {
    Family {
        name,
        lang,
        expected,
        generate,
    }
}

pub const TOKEN_RING: Family = fam("token_ring", Lang::Tasklang, Expect::Clean, |n| {
    classics::token_ring(n).to_source()
});
pub const MESH_ORDERED: Family = fam(
    "rendezvous_mesh_ordered",
    Lang::Tasklang,
    Expect::Clean,
    |n| adversarial::rendezvous_mesh(n, true).to_source(),
);
pub const RELAY_CHAIN: Family = fam("relay_chain", Lang::Tasklang, Expect::Clean, |n| {
    iwa_bench::families::relay_chain(n).to_source()
});
pub const TOKEN_RING_BROKEN: Family = fam(
    "token_ring_broken",
    Lang::Tasklang,
    Expect::Anomalous,
    |n| classics::token_ring_broken(n).to_source(),
);
pub const PIPELINE_X4: Family = fam("pipeline_x4", Lang::Tasklang, Expect::Clean, |n| {
    classics::pipeline(n, 4).to_source()
});
pub const PIPELINE_LOOPING: Family =
    fam("pipeline_looping", Lang::Tasklang, Expect::Anomalous, |n| {
        classics::pipeline_looping(n).to_source()
    });
pub const MESH_UNORDERED: Family = fam(
    "rendezvous_mesh_unordered",
    Lang::Tasklang,
    Expect::Anomalous,
    |n| adversarial::rendezvous_mesh(n, false).to_source(),
);
pub const LOCK_CHAIN: Family = fam("lock_chain", Lang::Lok, Expect::Anomalous, |n| {
    locks::lock_chain(n, false)
});
pub const LOCK_CHAIN_ORDERED: Family = fam("lock_chain_ordered", Lang::Lok, Expect::Clean, |n| {
    locks::lock_chain(n, true)
});
pub const LOCK_MESH: Family = fam("lock_mesh", Lang::Lok, Expect::Anomalous, |n| {
    locks::lock_mesh(n, false)
});
pub const LOCK_MESH_ORDERED: Family = fam("lock_mesh_ordered", Lang::Lok, Expect::Clean, |n| {
    locks::lock_mesh(n, true)
});
pub const CHAN_RING: Family = fam("chan_ring", Lang::Chan, Expect::Anomalous, |n| {
    chan::chan_ring(n, false)
});
pub const CHAN_RING_BROKEN: Family = fam("chan_ring_broken", Lang::Chan, Expect::Clean, |n| {
    chan::chan_ring(n, true)
});
pub const STORM: Family = fam("chan_select_storm", Lang::Chan, Expect::Clean, |n| {
    chan::chan_select_storm(n, false)
});
pub const STORM_SPIN: Family = fam(
    "chan_select_storm_spin",
    Lang::Chan,
    Expect::Anomalous,
    |n| chan::chan_select_storm(n, true),
);

/// One position of a workload.
pub enum Slot {
    Generated(&'static Family, usize),
    /// A corpus file, relative to the repository root.
    Fixture(&'static str),
}

/// The benchmark's workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["rendezvous_scale", "waitgraph_scale", "serve_replay"];

fn gen<'a>(f: &'static Family, sizes: &'a [usize]) -> impl Iterator<Item = Slot> + 'a {
    sizes.iter().map(move |&n| Slot::Generated(f, n))
}

/// The slots of `workload`, or `None` for an unknown name.
pub fn slots(workload: &str) -> Option<Vec<Slot>> {
    let mut v: Vec<Slot> = Vec::new();
    match workload {
        // Eight clean inputs (the ordering dataflow dominates) and eight
        // flagged ones (per-head witness naming dominates). Sizes reach
        // 10^3 sync-graph nodes while a pass stays near 0.6 s, so a run
        // repeats every input often enough for its best time to settle.
        "rendezvous_scale" => {
            v.extend(gen(&TOKEN_RING, &[256, 384, 512]));
            v.extend(gen(&MESH_ORDERED, &[16, 24]));
            v.extend(gen(&RELAY_CHAIN, &[32, 48, 64]));
            v.extend(gen(&TOKEN_RING_BROKEN, &[128, 256]));
            v.extend(gen(&PIPELINE_X4, &[16, 32]));
            v.extend(gen(&PIPELINE_LOOPING, &[32, 64]));
            v.extend(gen(&MESH_UNORDERED, &[12, 16]));
        }
        // Both flavours of every lok/chan generator at two sizes, plus
        // both corpora.
        "waitgraph_scale" => {
            v.extend(gen(&LOCK_CHAIN, &[128, 512]));
            v.extend(gen(&LOCK_CHAIN_ORDERED, &[128, 512]));
            v.extend(gen(&LOCK_MESH, &[12, 16]));
            v.extend(gen(&LOCK_MESH_ORDERED, &[12, 16]));
            v.extend(gen(&CHAN_RING, &[64, 128]));
            v.extend(gen(&CHAN_RING_BROKEN, &[64, 128]));
            v.extend(gen(&STORM, &[16, 32]));
            v.extend(gen(&STORM_SPIN, &[16, 32]));
            v.extend(
                LOCK_FIXTURES
                    .iter()
                    .chain(CHAN_FIXTURES)
                    .map(|&f| Slot::Fixture(f)),
            );
        }
        // Mixed-language traffic: the corpus plus mid-sized generated
        // inputs, each well under 100 ms direct.
        "serve_replay" => {
            v.extend(gen(&TOKEN_RING, &[384]));
            v.extend(gen(&MESH_ORDERED, &[16]));
            v.extend(gen(&RELAY_CHAIN, &[48]));
            v.extend(gen(&TOKEN_RING_BROKEN, &[128]));
            v.extend(gen(&PIPELINE_X4, &[24]));
            v.extend(gen(&LOCK_CHAIN, &[256]));
            v.extend(gen(&LOCK_CHAIN_ORDERED, &[256]));
            v.extend(gen(&LOCK_MESH, &[16]));
            v.extend(gen(&CHAN_RING, &[128]));
            v.extend(gen(&CHAN_RING_BROKEN, &[128]));
            v.extend(gen(&STORM, &[32]));
            v.extend(gen(&STORM_SPIN, &[32]));
            v.extend(
                IWA_FIXTURES
                    .iter()
                    .chain(LOCK_FIXTURES)
                    .chain(CHAN_FIXTURES)
                    .map(|&f| Slot::Fixture(f)),
            );
        }
        _ => return None,
    }
    Some(v)
}

// The tasklang corpus files whose header states a whole-program verdict
// (`watchdog` promises only deadlock freedom and `door_controller` only
// transform-assisted stall freedom, so neither has a known answer).
const IWA_FIXTURES: &[&str] = &[
    "corpus/adversarial_nest.iwa",
    "corpus/bank_transfer.iwa",
    "corpus/boot_sequence.iwa",
    "corpus/build_farm.iwa",
    "corpus/chat_room.iwa",
    "corpus/elevator.iwa",
    "corpus/factory_cell.iwa",
    "corpus/handshake_race.iwa",
    "corpus/printer_spooler.iwa",
];
const LOCK_FIXTURES: &[&str] = &[
    "corpus/locks/abba.lok",
    "corpus/locks/branch_cycle.lok",
    "corpus/locks/diamond.lok",
    "corpus/locks/double_lock.lok",
    "corpus/locks/guarded.lok",
    "corpus/locks/loop_carried.lok",
    "corpus/locks/ordered_chain.lok",
    "corpus/locks/three_cycle.lok",
    "corpus/locks/unbalanced.lok",
];
const CHAN_FIXTURES: &[&str] = &[
    "corpus/channels/bounded_handoff.chan",
    "corpus/channels/closed_busy_wait.chan",
    "corpus/channels/closed_hygiene.chan",
    "corpus/channels/crossed_pair.chan",
    "corpus/channels/pipeline.chan",
    "corpus/channels/ring_three.chan",
    "corpus/channels/select_arm_cycle.chan",
    "corpus/channels/select_both_served.chan",
    "corpus/channels/select_default_spin.chan",
    "corpus/channels/self_rendezvous.chan",
    "corpus/channels/starved_arm.chan",
    "corpus/channels/unbounded_log.chan",
];

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// One realised input.
#[derive(Clone, Debug)]
pub struct Input {
    /// The slot's stable name (`token_ring-512`, or the fixture path).
    pub name: String,
    pub lang: Lang,
    /// Generator size; `None` for fixtures.
    pub size: Option<usize>,
    pub expected: Expect,
    pub source: String,
}

impl Input {
    /// File name used when the input is written to the work directory.
    pub fn file_name(&self, index: usize) -> String {
        let stem: String = self
            .name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        format!("{index:03}-{stem}.{}", self.lang.name())
    }
}

fn slot_name(slot: &Slot) -> String {
    match slot {
        Slot::Generated(f, n) => format!("{}-{n}", f.name),
        Slot::Fixture(path) => (*path).to_owned(),
    }
}

/// Append `_{tag}` to every identifier that ends in a digit. Keywords
/// never do, so the program is the same up to renaming.
fn respell(source: &str, tag: &str) -> String {
    let mut out = String::with_capacity(source.len() + source.len() / 4);
    let mut ident = String::new();
    let flush = |ident: &mut String, out: &mut String| {
        if ident.ends_with(|c: char| c.is_ascii_digit())
            && !ident.starts_with(|c: char| c.is_ascii_digit())
        {
            ident.push('_');
            ident.push_str(tag);
        }
        out.push_str(ident);
        ident.clear();
    };
    for c in source.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            ident.push(c);
        } else {
            flush(&mut ident, &mut out);
            out.push(c);
        }
    }
    flush(&mut ident, &mut out);
    out
}

fn fixture(path: &str) -> Result<(Lang, Expect, String), String> {
    let full = repo_root().join(path);
    let source = std::fs::read_to_string(&full).map_err(|e| format!("{path}: {e}"))?;
    let lang = registry::by_extension(&full)
        .ok_or_else(|| format!("{path}: no frontend for this extension"))?
        .lang();
    let header = source
        .lines()
        .find_map(|l| l.trim().strip_prefix("// expect:"))
        .ok_or_else(|| format!("{path}: no `// expect:` header"))?;
    let expected = match header.trim() {
        "clean" => Expect::Clean,
        "deadlock" | "stall" | "livelock" => Expect::Anomalous,
        other => {
            return Err(format!(
                "{path}: expectation '{other}' is not a whole-program verdict"
            ))
        }
    };
    Ok((lang, expected, source))
}

/// Realise `slots` for `seed`: the same seed always gives the same inputs.
pub fn realise(slots: &[Slot], seed: u64) -> Result<Vec<Input>, String> {
    let mut rng = Rng::new(seed ^ 0x1a7e_0f5e_ed00);
    slots
        .iter()
        .map(|slot| match slot {
            Slot::Generated(f, size) => {
                let tag: String = (0..3)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect();
                Ok(Input {
                    name: slot_name(slot),
                    lang: f.lang,
                    size: Some(*size),
                    expected: f.expected,
                    source: respell(&(f.generate)(*size), &tag),
                })
            }
            Slot::Fixture(path) => {
                let (lang, expected, source) = fixture(path)?;
                Ok(Input {
                    name: slot_name(slot),
                    lang,
                    size: None,
                    expected,
                    source,
                })
            }
        })
        .collect()
}

/// `frontend.model_nodes` of `source`: `LoadedModel::sync_graph()`'s node
/// count. (`Counters.sg_nodes` reads 0 for `.lok`/`.chan` models, so the
/// counter cannot serve here.)
pub fn model_nodes(lang: Lang, source: &str) -> Result<usize, String> {
    let model = registry::by_lang(lang)
        .load(source)
        .map_err(|e| e.to_string())?;
    loaded_nodes(&model)
}

/// `LoadedModel::sync_graph()` panics on a tasklang model that still has
/// procedure calls, so such a model is measured after `inline_procs`.
pub fn loaded_nodes(model: &LoadedModel) -> Result<usize, String> {
    match model.as_tasklang() {
        Some(p) if p.has_calls() => {
            let inlined = inline_procs(p).map_err(|e| e.to_string())?;
            Ok(SyncGraph::from_program(&inlined).num_nodes())
        }
        _ => Ok(model.sync_graph().num_nodes()),
    }
}

/// The committed manifest: one line per input slot.
pub const MANIFEST: &str = include_str!("../manifest.tsv");
const MANIFEST_HEADER: &str = "# workload\tinput\tlang\texpected\tsize\tmodel_nodes";

fn manifest_line(workload: &str, input: &Input, nodes: usize) -> String {
    let size = input.size.map_or_else(|| "-".to_owned(), |s| s.to_string());
    format!(
        "{workload}\t{}\t{}\t{}\t{size}\t{nodes}",
        input.name,
        input.lang.name(),
        input.expected.name()
    )
}

/// Regenerate the manifest text from the generators and the corpus.
pub fn write_manifest() -> Result<String, String> {
    let mut out = String::new();
    let _ = writeln!(out, "{MANIFEST_HEADER}");
    for workload in WORKLOADS {
        for input in realise(&slots(workload).expect("known workload"), 0)? {
            let nodes = model_nodes(input.lang, &input.source)?;
            let _ = writeln!(out, "{}", manifest_line(workload, &input, nodes));
        }
    }
    Ok(out)
}

/// Check the realised inputs of `workload` against the manifest: the same
/// inputs in the same order, each with the recorded language, expected
/// verdict, generator size and model size. `nodes[i]` is input `i`'s
/// measured `frontend.model_nodes`.
pub fn check_manifest(workload: &str, inputs: &[Input], nodes: &[usize]) -> Result<(), String> {
    let recorded: Vec<&str> = MANIFEST
        .lines()
        .filter(|l| l.split('\t').next() == Some(workload))
        .collect();
    if recorded.len() != inputs.len() {
        return Err(format!(
            "{workload}: {} inputs realised, the manifest records {}; an input was added or removed",
            inputs.len(),
            recorded.len()
        ));
    }
    for ((input, &n), want) in inputs.iter().zip(nodes).zip(recorded) {
        let got = manifest_line(workload, input, n);
        if got != want {
            return Err(format!(
                "{workload}: realised `{got}` where the manifest records `{want}`; \
                 the input shrank, grew, or changed its language or expected verdict"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respelling_renames_numbered_identifiers_only() {
        assert_eq!(
            respell("task node1 { send node2.token; accept token; }", "abc"),
            "task node1_abc { send node2_abc.token; accept token; }"
        );
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_match_the_manifest() {
        for workload in WORKLOADS {
            let slots = slots(workload).expect("known workload");
            let a = realise(&slots, 7).expect("inputs realise");
            let b = realise(&slots, 7).expect("inputs realise");
            let other = realise(&slots, 8).expect("inputs realise");
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.source == y.source),
                "{workload}"
            );
            assert!(
                a.iter().zip(&other).any(|(x, y)| x.source != y.source),
                "{workload}"
            );
            let nodes: Vec<usize> = a
                .iter()
                .map(|i| model_nodes(i.lang, &i.source).expect("input loads"))
                .collect();
            check_manifest(workload, &a, &nodes).expect("manifest matches");
            let mut shrunk = nodes.clone();
            shrunk[0] -= 1;
            assert!(check_manifest(workload, &a, &shrunk).is_err(), "{workload}");
            assert!(
                check_manifest(workload, &a[1..], &nodes[1..]).is_err(),
                "{workload}"
            );
        }
    }
}
