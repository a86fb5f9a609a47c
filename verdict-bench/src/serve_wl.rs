//! `serve_replay`: an in-process daemon (2 workers) driven as a closed
//! loop by 2 client connections.
//!
//! The traffic follows the replay model of `iwa serve-bench`
//! (`crates/serve/src/bench.rs`, defaults `rounds: 5`,
//! `mutate_permille: 10`), which reached a 78% cache hit rate in
//! `BENCH_serve.json`: every input is resubmitted round after round, and
//! before each later round a seeded 1% of the inputs take a persistent
//! whitespace mutation (a miss with the same verdict; the mutated bytes
//! then hit in the rounds after). About 79% of `analyze` requests hit.
//! That model has no `lint` requests; here each input is also linted once
//! per iteration, with its first `analyze`, an assumption no recorded
//! traffic supports yet.
//!
//! Each client owns every other input and replays it in iterations of
//! [`ROUNDS`] rounds. A client sends its next request only after the
//! previous answer, and a repeat goes out on the connection that carried
//! its first copy, so cache hits follow the seed, not timing. Every
//! iteration salts its bytes with a distinct trailing-whitespace tag, so
//! each iteration starts cold.

use crate::inputs::{Expect, Input};
use crate::layers::{self, lint_value};
use crate::stats::{median, ms, peak_rss_mb, percentile, Metrics, Rng};
use crate::Outcome;
use iwa_serve::{fnv1a, Client, ServeOptions, ServeStats, Server};
use serde::{Serialize, Value};
use std::time::{Duration, Instant};

/// The serve layer's per-layer metrics (zero on the engine workloads,
/// which never go through the daemon).
pub const SERVE_FIELDS: [(&str, &str); 5] = [
    ("serve.overhead_ms", "ms"),
    ("serve.cache_hit_pct", "%"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("serve.errors", "count"),
];

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Rounds per iteration (`iwa serve-bench`'s default).
const ROUNDS: u64 = 5;
/// Chance, in permille, that an input mutates before a round after the
/// first (`iwa serve-bench`'s default).
const MUTATE_PERMILLE: usize = 10;
const SETUP_REPEATS: usize = 31;
/// Iterations per client in each phase of the traced run (fixed, so the
/// cache hit share is a deterministic count).
const TRACED_ITERATIONS: u64 = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Analyze,
    Lint,
}

/// `base` plus a trailing-whitespace encoding of `tag`: new bytes (so a
/// new cache key) with every token, and so every span, unchanged.
fn salted(base: &str, tag: u64) -> String {
    let mut s = String::with_capacity(base.len() + 72);
    s.push_str(base);
    s.push('\n');
    s.extend(
        format!("{tag:b}")
            .chars()
            .map(|b| if b == '1' { '\t' } else { ' ' }),
    );
    s.push('\n');
    s
}

/// One request of the schedule: `tag` names its exact bytes.
#[derive(Clone, Copy)]
struct Req {
    op: Op,
    input: usize,
    tag: u64,
}

/// The requests client `client` sends in iteration `it`, in order.
fn schedule(seed: u64, client: usize, it: u64, mine: &[usize]) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ (client as u64) << 48 ^ it << 8);
    // Each input's current bytes; a mutation moves it to the next tag, so
    // tags stay inside this iteration's `ROUNDS` values.
    let mut tags = vec![it * ROUNDS; mine.len()];
    let mut out = Vec::new();
    for r in 0..ROUNDS {
        if r > 0 {
            for tag in &mut tags {
                if rng.below(1000) < MUTATE_PERMILLE {
                    *tag += 1;
                }
            }
        }
        let mut order: Vec<usize> = (0..mine.len()).collect();
        rng.shuffle(&mut order);
        for k in order {
            let req = Req {
                op: Op::Analyze,
                input: mine[k],
                tag: tags[k],
            };
            out.push(req);
            if r == 0 {
                out.push(Req {
                    op: Op::Lint,
                    ..req
                });
            }
        }
    }
    out
}

fn request(id: u64, req: &Req, input: &Input, deadline_ms: u64) -> Value {
    let op = match req.op {
        Op::Analyze => "analyze",
        Op::Lint => "lint",
    };
    Value::Object(vec![
        ("id".to_owned(), Value::UInt(id)),
        ("op".to_owned(), Value::String(op.to_owned())),
        (
            "source".to_owned(),
            Value::String(salted(&input.source, req.tag)),
        ),
        (
            "lang".to_owned(),
            Value::String(input.lang.name().to_owned()),
        ),
        ("deadline_ms".to_owned(), Value::UInt(deadline_ms)),
    ])
}

/// One answered (or failed) request.
struct Sample {
    req: Req,
    rtt_ms: f64,
    /// `ok` status, and for `analyze` a non-degraded report.
    ok: bool,
    cached: bool,
    /// An `analyze` verdict equal to the input's known answer.
    precise: bool,
    /// [`answer_print`] of the report, for the served-vs-direct gate.
    answer: Option<u64>,
}

/// A hash of what must match between a served and a direct answer:
/// `verdict`, `rung` and `flagged` of an `analyze` report, or a `lint`
/// report's diagnostics (`report` is the diagnostics array itself).
fn answer_print(op: Op, report: &Value) -> u64 {
    let answer = match op {
        Op::Analyze => Value::Array(
            ["verdict", "rung", "flagged"]
                .iter()
                .map(|k| report.get(k).cloned().unwrap_or(Value::Null))
                .collect(),
        ),
        Op::Lint => report.clone(),
    };
    fnv1a(
        serde_json::to_string(&answer)
            .unwrap_or_default()
            .as_bytes(),
    )
}

fn verdict_name(expected: Expect) -> &'static str {
    match expected {
        Expect::Clean => "Clean",
        Expect::Anomalous => "Anomalous",
    }
}

/// One replay phase: which iterations every client sends.
#[derive(Clone, Copy)]
struct Phase {
    seed: u64,
    /// Iteration numbers (and so salts) start here, so phases sharing a
    /// daemon never reuse bytes.
    first_iteration: u64,
    /// Iterations per client: the same count for every client, so each
    /// run has the same request mix and no client replays alone at the
    /// end for an iteration the other did not get.
    iterations: u64,
    deadline_ms: u64,
}

/// Drive one client's iterations of `phase`.
fn drive(
    addr: std::net::SocketAddr,
    inputs: &[Input],
    mine: &[usize],
    client: usize,
    phase: Phase,
) -> Result<Vec<Sample>, String> {
    let Phase {
        seed,
        first_iteration,
        iterations,
        deadline_ms,
    } = phase;
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // A hang is a failed request, not a hung benchmark.
    let timeout = Duration::from_millis(2 * deadline_ms + 5_000);
    let mut samples = Vec::new();
    let mut id = 0;
    for it in first_iteration..first_iteration + iterations {
        for req in schedule(seed, client, it, mine) {
            id += 1;
            let t0 = Instant::now();
            let resp = conn.request(&request(id, &req, &inputs[req.input], deadline_ms), timeout);
            let rtt_ms = ms(t0.elapsed());
            let sample = match resp {
                Ok(v) => {
                    let status_ok = v.get("status").and_then(Value::as_str) == Some("ok");
                    let report = v.get("report");
                    let field = |k: &str| report.and_then(|r| r.get(k));
                    let degraded = field("degraded").and_then(Value::as_bool).unwrap_or(false);
                    let verdict = field("verdict").and_then(Value::as_str);
                    let answer = match req.op {
                        Op::Analyze => report.map(|r| answer_print(req.op, r)),
                        Op::Lint => field("diagnostics").map(|d| answer_print(req.op, d)),
                    };
                    Sample {
                        req,
                        rtt_ms,
                        ok: status_ok && !degraded,
                        cached: v.get("cached").and_then(Value::as_bool).unwrap_or(false),
                        precise: verdict == Some(verdict_name(inputs[req.input].expected)),
                        answer,
                    }
                }
                Err(e) => {
                    eprintln!("{}: request failed: {e}", inputs[req.input].name);
                    // The connection's state is unknown after a failure.
                    conn = Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                    Sample {
                        req,
                        rtt_ms,
                        ok: false,
                        cached: false,
                        precise: false,
                        answer: None,
                    }
                }
            };
            samples.push(sample);
        }
    }
    Ok(samples)
}

/// Run every client concurrently; returns all samples and the phase's
/// wall seconds.
fn replay(server: &Server, inputs: &[Input], phase: Phase) -> Result<(Vec<Sample>, f64), String> {
    let addr = server.local_addr();
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mine: Vec<usize> = (c..inputs.len()).step_by(CLIENTS).collect();
                s.spawn(move || drive(addr, inputs, &mine, c, phase))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".to_owned()))
            })
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    for r in per_client {
        samples.extend(r?);
    }
    Ok((samples, wall))
}

/// The direct answer to one exact byte string, for the served-vs-direct
/// gate.
struct Direct {
    answer: u64,
    ms: f64,
}

/// Compute the direct answer for every distinct request in `samples`
/// (two threads), judge it against the known answer, and check that every
/// served report equals it. Returns the check's per-request direct times
/// for `analyze` misses, keyed like the samples.
fn check_served(inputs: &[Input], samples: &[Sample]) -> Result<Vec<Option<f64>>, String> {
    let mut keys: Vec<(Op, usize, u64)> = samples
        .iter()
        .map(|s| (s.req.op, s.req.input, s.req.tag))
        .collect();
    keys.sort_by_key(|&(op, i, t)| (op == Op::Lint, i, t));
    keys.dedup();
    let directs: Vec<Result<Direct, String>> = std::thread::scope(|s| {
        let chunks: Vec<_> = keys
            .chunks(keys.len().div_ceil(CLIENTS).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&(op, i, tag)| {
                            let input = &inputs[i];
                            let bytes = salted(&input.source, tag);
                            let t0 = Instant::now();
                            let value = match op {
                                Op::Analyze => {
                                    let report = layers::verdict(input, &bytes)?;
                                    layers::judge(input, &report)?;
                                    report.to_value()
                                }
                                Op::Lint => lint_value(input.lang, &bytes)?,
                            };
                            let elapsed = ms(t0.elapsed());
                            Ok(Direct {
                                answer: answer_print(op, &value),
                                ms: elapsed,
                            })
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        chunks
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![Err("a direct check panicked".to_owned())])
            })
            .collect()
    });
    let directs: Vec<Direct> = directs.into_iter().collect::<Result<_, _>>()?;
    let mut direct_ms = Vec::with_capacity(samples.len());
    for s in samples {
        let k = keys
            .binary_search_by_key(
                &(s.req.op == Op::Lint, s.req.input, s.req.tag),
                |&(op, i, t)| (op == Op::Lint, i, t),
            )
            .expect("every sample has a key");
        let direct = &directs[k];
        let name = &inputs[s.req.input].name;
        if s.ok && s.answer != Some(direct.answer) {
            return Err(format!(
                "{name}: the served {:?} report differs from a direct run on the same bytes",
                s.req.op
            ));
        }
        direct_ms.push((s.req.op == Op::Analyze && !s.cached).then_some(direct.ms));
    }
    Ok(direct_ms)
}

/// Start the daemon and answer one `ping`, [`SETUP_REPEATS`] times; report
/// the median and keep the last daemon running.
fn set_up(opts: &ServeOptions) -> Result<(f64, Server), String> {
    let mut samples = Vec::with_capacity(SETUP_REPEATS);
    loop {
        let t0 = Instant::now();
        let server = Server::start(opts.clone()).map_err(|e| format!("serve start: {e}"))?;
        let mut client =
            Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let pong = client
            .request(&Client::simple_request(0, "ping"), Duration::from_secs(10))
            .map_err(|e| format!("ping: {e}"))?;
        samples.push(t0.elapsed().as_secs_f64());
        if pong.get("status").and_then(Value::as_str) != Some("ok") {
            return Err("the daemon did not answer ping with ok".to_owned());
        }
        if samples.len() == SETUP_REPEATS {
            return Ok((median(&samples), server));
        }
        server.shutdown();
        server.join();
    }
}

/// Direct answers to the unsalted inputs: gate them, and size the request
/// deadline at 10× the slowest (at least 2 s), so a degraded answer is a
/// failure, not noise.
fn serve_options(inputs: &[Input]) -> Result<(ServeOptions, u64), String> {
    let mut slowest: f64 = 0.0;
    for input in inputs {
        let t0 = Instant::now();
        let report = layers::verdict(input, &input.source)?;
        slowest = slowest.max(ms(t0.elapsed()));
        layers::judge(input, &report)?;
    }
    let deadline_ms = ((10.0 * slowest).ceil() as u64).max(2_000);
    let deadline = Duration::from_millis(deadline_ms);
    let opts = ServeOptions {
        workers: WORKERS,
        default_deadline: deadline,
        max_deadline: deadline.max(Duration::from_secs(30)),
        ..ServeOptions::default()
    };
    Ok((opts, deadline_ms))
}

fn stop(server: Server) -> ServeStats {
    server.shutdown();
    server.join()
}

/// The untraced run: the seven end-to-end metrics.
pub fn run(inputs: &[Input], seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (opts, deadline_ms) = serve_options(inputs)?;
    let (setup_s, server) = set_up(&opts)?;
    let first = Phase {
        seed,
        first_iteration: 0,
        iterations: 1,
        deadline_ms,
    };
    let replayed = replay(&server, inputs, first).and_then(|(mut samples, wall)| {
        // As many iterations in all as the first one says fit `seconds`.
        let more = Phase {
            first_iteration: 1,
            iterations: ((seconds / wall).floor() as u64).saturating_sub(1),
            ..first
        };
        let (rest, rest_wall) = replay(&server, inputs, more)?;
        samples.extend(rest);
        Ok((samples, wall + rest_wall))
    });
    // Read before the served-vs-direct check, whose two threads are not
    // part of the workload.
    let peak_mb = peak_rss_mb();
    let stats = stop(server);
    let (samples, wall) = replayed?;
    check_served(inputs, &samples)?;

    let attempted = samples.len() as u64;
    let ok = samples.iter().filter(|s| s.ok).count() as u64;
    let analyzed: Vec<&Sample> = samples.iter().filter(|s| s.req.op == Op::Analyze).collect();
    let precise = analyzed.iter().filter(|s| s.ok && s.precise).count();
    let rtts: Vec<f64> = samples.iter().map(|s| s.rtt_ms).collect();
    let mut m = Metrics::default();
    m.put("verdict_ms_p50", percentile(&rtts, 0.5), "ms");
    m.put("verdict_ms_p90", percentile(&rtts, 0.9), "ms");
    m.put("verdicts_per_s", attempted as f64 / wall, "1/s");
    m.put(
        "precise_pct",
        100.0 * precise as f64 / analyzed.len().max(1) as f64,
        "%",
    );
    m.put("ok_pct", 100.0 * ok as f64 / attempted.max(1) as f64, "%");
    m.put("peak_rss_mb", peak_mb, "MB");
    m.put("setup_s", setup_s, "s");
    eprintln!(
        "{attempted} requests ({} analyze) in {wall:.2} s; cache hits {} misses {}; deadline {deadline_ms} ms",
        analyzed.len(),
        stats.cache_hits,
        stats.cache_misses
    );
    Ok(Outcome {
        attempted,
        failed: attempted - ok,
        metrics: m,
    })
}

/// The traced run: a fixed replay untraced, the same replay again with a
/// span kept per request, then every distinct input layer by layer.
pub fn run_traced(inputs: &[Input], seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (opts, deadline_ms) = serve_options(inputs)?;
    let (_, server) = set_up(&opts)?;
    let phase = Phase {
        seed,
        first_iteration: 0,
        iterations: TRACED_ITERATIONS,
        deadline_ms,
    };
    let untraced = replay(&server, inputs, phase);
    let before = server.stats();
    let traced = replay(
        &server,
        inputs,
        Phase {
            first_iteration: TRACED_ITERATIONS,
            ..phase
        },
    );
    let after = server.stats();
    let stats = stop(server);
    let (untraced, untraced_wall) = untraced?;
    let (traced, traced_wall) = traced?;
    check_served(inputs, &untraced)?;
    let direct_ms = check_served(inputs, &traced)?;

    let overheads: Vec<f64> = traced
        .iter()
        .zip(&direct_ms)
        .filter_map(|(s, d)| d.map(|d| s.rtt_ms - d))
        .collect();
    let hits = after.cache_hits - before.cache_hits;
    let lookups = hits + after.cache_misses - before.cache_misses;

    let layered = crate::engine_wl::trace_passes(inputs, seconds)?;
    crate::engine_wl::print_rows(inputs, &layered.rows);
    let mut m = crate::engine_wl::layer_metrics(&layered.rows);
    m.put("serve.overhead_ms", median(&overheads), "ms");
    m.put(
        "serve.cache_hit_pct",
        100.0 * hits as f64 / lookups.max(1) as f64,
        "%",
    );
    m.put("serve.shed", stats.shed as f64, "count");
    m.put("serve.timeouts", stats.timeouts as f64, "count");
    m.put("serve.errors", stats.errors as f64, "count");
    let untraced_vps = untraced.len() as f64 / untraced_wall;
    let traced_vps = traced.len() as f64 / traced_wall;
    m.put(
        "trace_overhead_pct",
        100.0 * (1.0 - traced_vps / untraced_vps),
        "%",
    );
    let attempted = (untraced.len() + traced.len()) as u64;
    let ok = untraced.iter().chain(&traced).filter(|s| s.ok).count() as u64;
    Ok(Outcome {
        attempted,
        failed: attempted - ok,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{realise, slots};

    fn fixtures() -> Vec<Input> {
        let all =
            realise(&slots("serve_replay").expect("known workload"), 3).expect("inputs realise");
        all.into_iter().filter(|i| i.size.is_none()).collect()
    }

    /// One cold iteration on a fresh daemon: which requests hit the cache.
    fn hits(inputs: &[Input], seed: u64) -> (u64, Vec<bool>) {
        let (opts, deadline_ms) = serve_options(inputs).expect("options");
        let server = Server::start(opts).expect("daemon starts");
        let phase = Phase {
            seed,
            first_iteration: 0,
            iterations: 1,
            deadline_ms,
        };
        let replayed = replay(&server, inputs, phase);
        let stats = stop(server);
        let (samples, _) = replayed.expect("replay runs");
        check_served(inputs, &samples).expect("served answers equal direct ones");
        let mut cached: Vec<(usize, u64, bool)> = samples
            .iter()
            .map(|s| (s.req.input, s.req.tag, s.cached))
            .collect();
        cached.sort_unstable();
        (
            stats.cache_hits,
            cached.into_iter().map(|(_, _, c)| c).collect(),
        )
    }

    #[test]
    fn cache_hits_follow_the_seed_not_timing() {
        let inputs = fixtures();
        let (first, pattern) = hits(&inputs, 9);
        let (second, again) = hits(&inputs, 9);
        assert_eq!(first, second);
        assert_eq!(pattern, again);
        // Every repeat of an `analyze` on the same bytes hits, nothing
        // else does.
        let mut want = 0;
        let mut requests = 0;
        for c in 0..CLIENTS {
            let mine: Vec<usize> = (c..inputs.len()).step_by(CLIENTS).collect();
            let mut seen = std::collections::HashSet::new();
            for req in schedule(9, c, 0, &mine) {
                if req.op == Op::Analyze {
                    requests += 1;
                    want += u64::from(!seen.insert((req.input, req.tag)));
                }
            }
        }
        assert_eq!(first, want);
        // The hit share of the replay model: 4 of 5 rounds, less the 1%
        // mutated before each.
        let share = want as f64 / requests as f64;
        assert!((0.70..=0.80).contains(&share), "hit share {share}");
    }

    #[test]
    fn salting_keeps_every_span() {
        let input = &fixtures()[0];
        let a = lint_value(input.lang, &input.source).expect("lints");
        let b = lint_value(input.lang, &salted(&input.source, 0b1011)).expect("lints");
        assert_eq!(a, b);
    }
}
