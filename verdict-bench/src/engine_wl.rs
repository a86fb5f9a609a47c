//! The engine workloads (`rendezvous_scale`, `waitgraph_scale`): inputs
//! run one at a time, single-threaded, with no deadline.

use crate::inputs::Input;
use crate::layers::{self, Judged, Row, COUNT_FIELDS, TIME_FIELDS};
use crate::stats::{median, ms, peak_rss_mb, percentile, Metrics};
use crate::{Outcome, WorkDir};
use iwa_engine::{collect_sources, EngineReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups timed before each pass; each pass keeps the best of them.
const SETUP_BURST: usize = 5;
/// `setup_s` is the median over this many equal stretches of the run of
/// the best set-up in each stretch. Host contention slows every set-up of
/// a stretch of seconds by about 1.6×; a median of consecutive set-ups
/// took one mode or the other per run.
const SETUP_WINDOWS: usize = 3;

/// `iwa_engine::collect_sources` on the input directory (walk and
/// frontend resolution) plus reading every file: the cost paid before the
/// first verdict. Returns its time in seconds and the sources in input
/// order.
fn set_up(work: &WorkDir, inputs: &[Input]) -> Result<(f64, Vec<String>), String> {
    let t0 = Instant::now();
    let found = collect_sources(&work.path).map_err(|e| e.to_string())?;
    let sources: Vec<String> = found
        .files
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<_, _>>()?;
    let elapsed = t0.elapsed().as_secs_f64();
    if sources.len() != inputs.len() || sources.iter().zip(inputs).any(|(s, i)| *s != i.source) {
        return Err("the input directory does not hold exactly the workload's inputs".to_owned());
    }
    Ok((elapsed, sources))
}

/// What one input's verdict must keep being across passes.
#[derive(PartialEq)]
struct Answer {
    verdict: String,
    rung: String,
    flagged: Vec<String>,
}

impl Answer {
    fn of(r: &EngineReport) -> Answer {
        Answer {
            verdict: format!("{:?}", r.verdict),
            rung: r.rung.name().to_owned(),
            flagged: r.flagged.clone(),
        }
    }
}

/// Tallies of one measured phase.
#[derive(Default)]
struct Tally {
    /// Verdicts judged: one per input per pass, however many timing
    /// repeats the input had in that pass.
    judged: u64,
    /// Judged verdicts whose every repeat in the pass was an `ok`,
    /// non-degraded report.
    ok: u64,
    /// Judged verdicts equal to the input's known answer.
    precise: u64,
    /// The best set-up time in each of the [`SETUP_WINDOWS`] stretches.
    setup_best_s: [f64; SETUP_WINDOWS],
    /// Every verdict time of each input, in milliseconds.
    samples_ms: Vec<Vec<f64>>,
    answers: Vec<Option<Answer>>,
}

impl Tally {
    /// Judge one report; `Err` on a correctness-gate violation (a
    /// known-anomalous input reported clean, or an answer that changed
    /// between passes).
    fn check(&mut self, i: usize, input: &Input, report: &EngineReport) -> Result<Judged, String> {
        let j = layers::judge(input, report)?;
        let answer = Answer::of(report);
        match &self.answers[i] {
            Some(first) if *first != answer => {
                Err(format!("{}: the answer changed between passes", input.name))
            }
            Some(_) => Ok(j),
            None => {
                self.answers[i] = Some(answer);
                Ok(j)
            }
        }
    }

    /// The median over stretches of the run of the best set-up time.
    fn setup_s(&self) -> f64 {
        let best: Vec<f64> = self
            .setup_best_s
            .iter()
            .copied()
            .filter(|t| t.is_finite())
            .collect();
        median(&best)
    }

    /// The best (smallest) verdict time of each timed input.
    fn best_ms(&self, inputs: &[Input]) -> Vec<f64> {
        self.samples_ms
            .iter()
            .zip(inputs)
            .filter(|(v, input)| timed(input) && !v.is_empty())
            .map(|(v, _)| v.iter().copied().fold(f64::INFINITY, f64::min))
            .collect()
    }
}

/// Whether an input's time enters the timing metrics: generated inputs
/// do; corpus fixtures (2 to 10 nodes, microseconds) are gated and counted
/// but would otherwise make up most of `waitgraph_scale`'s percentiles.
fn timed(input: &Input) -> bool {
    input.size.is_some()
}

/// Reports per second at each input's best time: one input of each per
/// `Σ best` milliseconds.
pub fn rate_per_s(best_ms: &[f64]) -> f64 {
    best_ms.len() as f64 / (best_ms.iter().sum::<f64>() / 1e3)
}

fn guarded<T>(input: &Input, f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| format!("{}: the analysis panicked", input.name))
}

/// Verdicts faster than this are repeated [`TINY_REPEATS`] times per pass,
/// so their best time is a warm one rather than the first after a large
/// input evicted the caches.
const TINY_MS: f64 = 1.0;
const TINY_REPEATS: usize = 10;

/// Run passes over the inputs in `work`, in slot order, each after a
/// burst of set-ups, until another pass would end past `seconds` (at least
/// one pass).
fn measure(work: &WorkDir, inputs: &[Input], seconds: f64) -> Result<Tally, String> {
    let mut tally = Tally {
        setup_best_s: [f64::INFINITY; SETUP_WINDOWS],
        samples_ms: inputs.iter().map(|_| Vec::new()).collect(),
        answers: inputs.iter().map(|_| None).collect(),
        ..Tally::default()
    };
    let mut sources = Vec::new();
    let start = Instant::now();
    let mut last_pass = 0.0;
    while tally.judged == 0 || start.elapsed().as_secs_f64() + last_pass <= seconds {
        let pass_start = Instant::now();
        let window = (SETUP_WINDOWS as f64 * start.elapsed().as_secs_f64() / seconds) as usize;
        let best = &mut tally.setup_best_s[window.min(SETUP_WINDOWS - 1)];
        for _ in 0..SETUP_BURST {
            let (t, read) = set_up(work, inputs)?;
            *best = best.min(t);
            sources = read;
        }
        for (i, (input, source)) in inputs.iter().zip(&sources).enumerate() {
            // The repeats only add timing samples: the input is judged
            // once per pass, so the number of repeats, which follows its
            // speed, cannot move `precise_pct` or `ok_pct`.
            let tiny = tally.samples_ms[i].iter().any(|&t| t < TINY_MS);
            let mut ok = true;
            let mut precise = false;
            for repeat in 0..if tiny { TINY_REPEATS } else { 1 } {
                let t0 = Instant::now();
                let result = guarded(input, || layers::verdict(input, source))?;
                let elapsed = ms(t0.elapsed());
                match result {
                    Ok(report) => {
                        tally.samples_ms[i].push(elapsed);
                        let j = tally.check(i, input, &report)?;
                        ok &= j.ok;
                        precise |= repeat == 0 && j.precise;
                    }
                    // An input error is a failed verdict, not a sample.
                    Err(e) => {
                        eprintln!("{}: error: {e}", input.name);
                        ok = false;
                    }
                }
            }
            tally.judged += 1;
            tally.ok += u64::from(ok);
            tally.precise += u64::from(precise);
        }
        last_pass = pass_start.elapsed().as_secs_f64();
    }
    Ok(tally)
}

/// The untraced run: the seven end-to-end metrics. Timings are each
/// input's best of its passes (see README.md, "Steadiness").
pub fn run(work: &WorkDir, inputs: &[Input], seconds: f64) -> Result<Outcome, String> {
    let tally = measure(work, inputs, seconds)?;
    let best = tally.best_ms(inputs);
    let judged = tally.judged;
    let mut m = Metrics::default();
    m.put("verdict_ms_p50", percentile(&best, 0.5), "ms");
    m.put("verdict_ms_p90", percentile(&best, 0.9), "ms");
    m.put("verdicts_per_s", rate_per_s(&best), "1/s");
    m.put(
        "precise_pct",
        100.0 * tally.precise as f64 / judged as f64,
        "%",
    );
    m.put("ok_pct", 100.0 * tally.ok as f64 / judged as f64, "%");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("setup_s", tally.setup_s(), "s");
    eprintln!(
        "{judged} verdicts judged over {} inputs ({} timed), at least {} samples each",
        inputs.len(),
        best.len(),
        tally.samples_ms.iter().map(Vec::len).min().unwrap_or(0)
    );
    Ok(Outcome {
        attempted: judged,
        failed: judged - tally.ok,
        metrics: m,
    })
}

/// The traced passes: one row per input, each time field the input's
/// best over the passes; counts must repeat exactly.
pub struct Traced {
    pub rows: Vec<Row>,
    /// Each timed input's best verdict time inside the replay
    /// (`frontend.load_ms` + `engine.analyze_ms`).
    pub best_verdict_ms: Vec<f64>,
    pub passes: usize,
}

/// Replay every input layer by layer, in passes, until another pass would
/// end past `seconds` (at least one pass).
pub fn trace_passes(inputs: &[Input], seconds: f64) -> Result<Traced, String> {
    let start = Instant::now();
    let mut per_input: Vec<Vec<Row>> = inputs.iter().map(|_| Vec::new()).collect();
    let mut last_pass = 0.0;
    while per_input[0].is_empty() || start.elapsed().as_secs_f64() + last_pass <= seconds {
        let pass_start = Instant::now();
        for (input, rows) in inputs.iter().zip(&mut per_input) {
            let row = guarded(input, || layers::trace_input(input))??;
            layers::judge(input, &row.report)?;
            if let Some(first) = rows.first() {
                if first.counts != row.counts {
                    return Err(format!(
                        "{}: deterministic counts differ between passes",
                        input.name
                    ));
                }
            }
            rows.push(row);
        }
        last_pass = pass_start.elapsed().as_secs_f64();
    }
    let passes = per_input[0].len();
    let best = |v: Vec<f64>| v.into_iter().fold(f64::INFINITY, f64::min);
    let best_verdict_ms = per_input
        .iter()
        .zip(inputs)
        .filter(|(_, input)| timed(input))
        .map(|(rows, _)| rows)
        .map(|rows| best(rows.iter().map(layers::verdict_ms).collect()))
        .collect();
    let rows = per_input
        .into_iter()
        .map(|mut rows| {
            let mut times = [0.0; TIME_FIELDS.len()];
            for (k, t) in times.iter_mut().enumerate() {
                *t = best(rows.iter().map(|r| r.times[k]).collect());
            }
            let core_ms = best(rows.iter().map(|r| r.core_ms).collect());
            let mut row = rows.swap_remove(0);
            row.times = times;
            row.core_ms = core_ms;
            row.derive();
            row
        })
        .collect();
    Ok(Traced {
        rows,
        best_verdict_ms,
        passes,
    })
}

/// Sum the per-input rows into the per-layer metrics.
pub fn layer_metrics(rows: &[Row]) -> Metrics {
    let mut m = Metrics::default();
    for (k, name) in TIME_FIELDS.iter().enumerate() {
        m.put(name, rows.iter().map(|r| r.times[k]).sum(), "ms");
    }
    for (k, name) in COUNT_FIELDS.iter().enumerate() {
        m.put(name, rows.iter().map(|r| r.counts[k] as f64).sum(), "count");
    }
    m
}

/// Print one JSON line per input with every layer field.
pub fn print_rows(inputs: &[Input], rows: &[Row]) {
    for (input, row) in inputs.iter().zip(rows) {
        let mut fields = vec![
            format!("\"input\": {}", crate::stats::json_str(&input.name)),
            format!("\"lang\": \"{}\"", input.lang.name()),
            format!("\"expected\": \"{}\"", input.expected.name()),
            format!("\"verdict\": \"{:?}\"", row.report.verdict),
        ];
        for (k, name) in TIME_FIELDS.iter().enumerate() {
            fields.push(format!("\"{name}\": {}", crate::stats::num(row.times[k])));
        }
        for (k, name) in COUNT_FIELDS.iter().enumerate() {
            fields.push(format!("\"{name}\": {}", row.counts[k]));
        }
        println!("{{\"row\": {{{}}}}}", fields.join(", "));
    }
}

/// The traced run: untraced passes for a third of the time (the overhead
/// baseline), then the layer-by-layer passes.
pub fn run_traced(work: &WorkDir, inputs: &[Input], seconds: f64) -> Result<Outcome, String> {
    let untraced = measure(work, inputs, seconds / 3.0)?;
    let traced = trace_passes(inputs, seconds * 2.0 / 3.0)?;
    print_rows(inputs, &traced.rows);
    let mut m = layer_metrics(&traced.rows);
    // These workloads never go through the daemon.
    for (name, unit) in crate::serve_wl::SERVE_FIELDS {
        m.put(name, 0.0, unit);
    }
    let overhead =
        1.0 - rate_per_s(&traced.best_verdict_ms) / rate_per_s(&untraced.best_ms(inputs));
    m.put("trace_overhead_pct", 100.0 * overhead, "%");
    let replays = traced.rows.len() * traced.passes;
    Ok(Outcome {
        attempted: untraced.judged + replays as u64,
        failed: untraced.judged - untraced.ok,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{realise, slots};

    #[test]
    fn each_input_is_judged_once_per_pass() {
        // The fixtures (all judged precise) run in microseconds and so take
        // timing repeats; `pipeline_x4-32` (clean, flagged by the heads
        // tier) takes milliseconds and runs once per pass.
        let realised = |workload| realise(&slots(workload).expect("known workload"), 3);
        let mut inputs: Vec<Input> = realised("waitgraph_scale")
            .expect("inputs realise")
            .into_iter()
            .filter(|i| !timed(i))
            .collect();
        inputs.extend(
            realised("rendezvous_scale")
                .expect("inputs realise")
                .into_iter()
                .filter(|i| i.name == "pipeline_x4-32"),
        );
        let work = WorkDir::create("judged-once", 3, &inputs).expect("inputs written");
        let tally = measure(&work, &inputs, 1.0).expect("measures");
        let n = inputs.len() as u64;
        let passes = tally.judged / n;
        assert!(passes >= 2, "{passes} passes");
        assert!(tally.samples_ms[0].len() as u64 > passes, "fixtures repeat");
        assert_eq!(tally.samples_ms[inputs.len() - 1].len() as u64, passes);
        assert_eq!(tally.judged, passes * n);
        assert_eq!(tally.ok, tally.judged);
        assert_eq!(tally.precise, passes * (n - 1));
    }
}
