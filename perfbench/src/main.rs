//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload against a freshly spawned `zeroconf-serve` daemon and
//! prints a report followed, as the last stdout line, by one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics of a separate traced
//! run with `--trace 1`. Exits non-zero, printing no result, when the
//! daemon is missing or the run cannot be measured.

use std::collections::HashMap;
use std::time::Instant;

use zeroconf_client::{Client, Json, Response};
use zeroconf_perfbench::daemon::{self, Daemon};
use zeroconf_perfbench::gen::{one_cell_line, Generator, Request, Unit, Verb, Workload};
use zeroconf_perfbench::load::{self, LoadResult};
use zeroconf_perfbench::replay::{self, Replay};
use zeroconf_perfbench::report::{self, Metrics, END_TO_END, PER_LAYER};
use zeroconf_perfbench::stats::{median, mix_median, percentile};
use zeroconf_perfbench::steal::{self, StealLog};
use zeroconf_perfbench::trace::{self, Trace};
use zeroconf_perfbench::verify::verify;

/// Throw-away daemons spawned to time set-up, before the measured one.
const SETUP_SPAWNS: usize = 40;
/// `open-mixed` session rate, sessions per second: about half of the
/// 160–180 the reference host (2 CPUs) sustains for the mix without a
/// growing backlog (see `BENCHMARK.json`).
const MIXED_RATE: f64 = 80.0;
/// Unmeasured load before timing, seconds.
const WARMUP_S: f64 = 1.0;
/// Unit indices used by the warm-up, far from the timed stream's.
const WARMUP_BASE: u64 = 1 << 40;
/// Requests a timed closed loop gathers at least (running past
/// `--seconds` on a slow host), so the reported p99 has ten beyond it.
const P99_REQUESTS: usize = 1000;
/// Idle 1-cell round trips timed for `serve.rtt_floor_us`.
const FLOOR_SAMPLES: usize = 200;
/// Timed units replayed in-process per traced run.
const REPLAY_UNITS: usize = 64;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}; usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")))
    };
    let workload = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {seconds}"));
    }
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() {
    let code = match run() {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let gen = Generator::new(args.workload, args.seed);
    let binary = daemon::binary();
    if !binary.is_file() {
        return Err(format!(
            "no daemon at {}; build it with perfbench/run.sh",
            binary.display()
        ));
    }
    // Set-up is timed on throw-away daemons; those the hypervisor stole
    // a CPU tick from are left out, unless too few are left.
    let setups = daemon::setup_samples(&binary, SETUP_SPAWNS)?;
    let all_setups: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let calm_setups: Vec<f64> = setups.iter().filter(|s| s.1 == 0).map(|s| s.0).collect();
    let setup = median(if calm_setups.len() * 4 >= setups.len() {
        &calm_setups
    } else {
        &all_setups
    });
    let (daemon, _) = Daemon::spawn(&binary)?;
    let lanes = if args.workload == Workload::OpenMixed {
        2
    } else {
        1
    };
    let mut clients = (0..lanes)
        .map(|_| daemon.connect())
        .collect::<Result<Vec<Client>, String>>()?;

    let hello = ask(&mut clients[0], &one_cell_line("hello"), "hello")?;
    let stats = clients[0]
        .stats("host")
        .map_err(|e| format!("stats: {e}"))?;
    let field = |r: &Response, path: &[&str]| match r.member(path) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(x)) => format!("{x}"),
        _ => "unknown".to_owned(),
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{}",
        report::host_block(
            &field(&stats, &["stats", "engine", "kernel_backend"]),
            &field(&stats, &["stats", "engine", "dist_backend"]),
            &field(&hello, &["stats", "workers"]),
            &field(&stats, &["stats", "server", "inflight_budget"]),
        )
    );

    let priming = gen.priming()?;
    for request in &priming {
        ask(&mut clients[0], &request.line, &request.id)?;
    }
    let warm = phase(&mut clients, &gen, WARMUP_BASE, WARMUP_S, 0, None)?;
    if warm.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm.messages));
    }

    let ticks_before = steal::cpu_ticks();
    let mut metrics = Metrics::default();
    let (mut attempted, mut failed, mut samples, mut messages) = (0, 0, Vec::new(), Vec::new());
    let mut absorb = |r: &mut LoadResult| {
        attempted += r.attempted;
        failed += r.failed;
        samples.append(&mut r.samples);
        messages.append(&mut r.messages);
    };
    if args.trace {
        let mut traced = traced_run(&mut clients, &gen, &priming, args.seconds)?;
        let attribution = traced.fill(&mut metrics)?;
        absorb(&mut traced.untraced);
        absorb(&mut traced.traced);
        println!("{attribution}");
    } else {
        let cpu_before = daemon.cpu_ms()?;
        let (result, steal_log) =
            StealLog::during(|| phase(&mut clients, &gen, 0, args.seconds, P99_REQUESTS, None));
        let mut result = result?;
        let cpu_ms = daemon.cpu_ms()? - cpu_before;
        let answered = result.answered().max(1) as f64;
        let windows = result.windows(Some(&steal_log));
        let calm = load::calm(&windows);
        let over = |ws: &[load::Window], f: fn(&load::Window) -> f64| {
            median(&ws.iter().map(f).collect::<Vec<_>>())
        };
        metrics.set(&END_TO_END, "setup_s", setup);
        metrics.set(
            &END_TO_END,
            "latency_mean_ms",
            over(&calm, |w| w.mean) * 1e3,
        );
        metrics.set(&END_TO_END, "throughput_rps", over(&calm, |w| w.rps));
        metrics.set(&END_TO_END, "cells_per_s", over(&calm, |w| w.cells_per_s));
        metrics.set(&END_TO_END, "daemon_cpu_ms_per_req", cpu_ms / answered);
        metrics.set(&END_TO_END, "daemon_rss_mb", daemon.peak_rss_mib()?);
        let steal_range = |ws: &[load::Window]| {
            let s: Vec<f64> = ws.iter().filter_map(|w| w.steal).collect();
            let (lo, hi) = s.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            });
            if s.is_empty() {
                "unknown".to_owned()
            } else {
                format!("{:.1}–{:.1}%", lo * 100.0, hi * 100.0)
            }
        };
        println!(
            "samples: {} request(s), {} failed; latency and rates are medians over the {} of {} window(s) of {}+ requests with no more hypervisor steal than the calmest tenth ({} stolen; all windows {})",
            result.attempted,
            result.failed,
            calm.len(),
            windows.len(),
            windows.iter().map(|w| w.samples).min().unwrap_or(0),
            steal_range(&calm),
            steal_range(&windows),
        );
        println!(
            "all windows: latency_mean {:.4} ms, throughput {:.3} 1/s, cells {:.1} 1/s (reported, not gated)",
            over(&windows, |w| w.mean) * 1e3,
            over(&windows, |w| w.rps),
            over(&windows, |w| w.cells_per_s),
        );
        println!(
            "set-up: median of the {} of {} spawn(s) with no stolen CPU tick (all spawns if fewer than a quarter were); median of all {:.6} s",
            calm_setups.len(),
            setups.len(),
            median(&all_setups),
        );
        print_by_verb(&result);
        // The percentiles are reported, not gated. On `open-mixed` the
        // latencies have a prompt and a stalled mode, and the p50 lies on
        // the edge between them; the p99 follows hypervisor steal. Both
        // spread between runs past any bound (see the README).
        for p in [50.0, 99.0] {
            match percentile(&result.latencies(), p) {
                Ok(q) => println!(
                    "p{p}: {:.4} ms over {} requests, {} beyond it (reported, not a gated metric)",
                    q.value * 1e3,
                    q.samples,
                    q.beyond
                ),
                Err(e) => println!("p{p}: {e}"),
            }
        }
        absorb(&mut result);
    }
    println!("{}", report::steal_line(ticks_before, steal::cpu_ticks()));
    drop(clients);
    drop(daemon);

    let mismatches = verify(&samples);
    println!(
        "verified: {} sampled unit(s) bit for bit against an in-process engine, {} mismatch(es)",
        samples.len(),
        mismatches.len()
    );
    failed += mismatches.len() as u64;
    for m in messages.iter().chain(&mismatches) {
        println!("failure: {m}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !metrics.covers(table) {
        return Err("a metric was not measured".to_owned());
    }
    println!("error_ratio: {} failed of {} attempted", failed, attempted);
    print!("{}", metrics.rows());
    println!(
        "{}",
        report::result_line(
            failed == 0 && attempted > 0,
            attempted.max(1),
            failed,
            &metrics
        )
    );
    Ok(())
}

/// One exchange outside the timed phases; any failure aborts the run.
fn ask(client: &mut Client, line: &str, id: &str) -> Result<Response, String> {
    client.send_raw(line).map_err(|e| format!("{id}: {e}"))?;
    let response = client.wait(id).map_err(|e| format!("{id}: {e}"))?;
    match response.error() {
        Some(error) => Err(format!("{id} answered with error: {error}")),
        None => Ok(response),
    }
}

/// One load phase of the workload's shape starting at unit `first`. A
/// closed loop runs on past `seconds` while fewer than `min_requests`
/// have ended; the open loop sends `seconds × MIXED_RATE` sessions.
fn phase(
    clients: &mut [Client],
    gen: &Generator,
    first: u64,
    seconds: f64,
    min_requests: usize,
    traces: Option<&mut [Trace]>,
) -> Result<LoadResult, String> {
    match gen.workload() {
        Workload::OpenMixed => {
            let count = (seconds * MIXED_RATE).round() as u64;
            let units: Vec<(u64, Unit)> = (first..first + count)
                .map(|i| gen.unit(i).map(|u| (i, u)))
                .collect::<Result<_, _>>()?;
            load::open_loop(clients, &units, MIXED_RATE, traces)
        }
        Workload::WarmSweep | Workload::ColdCalibrate => {
            let trace = traces.and_then(|t| t.first_mut());
            load::closed_loop(&mut clients[0], gen, first, seconds, min_requests, trace)
        }
    }
}

fn print_by_verb(result: &LoadResult) {
    for verb in ["sweep", "rescore", "frontier", "calibrate"] {
        let ms: Vec<f64> = result
            .outcomes
            .iter()
            .filter(|o| o.verb.is_some_and(|v| v.name() == verb) && o.latency.is_finite())
            .map(|o| o.latency * 1e3)
            .collect();
        if !ms.is_empty() {
            println!(
                "  {verb:<10} {:>6} answered, median {:.3} ms",
                ms.len(),
                median(&ms)
            );
        }
    }
}

/// Everything the traced run measured.
struct Traced {
    workload: Workload,
    untraced: LoadResult,
    traced: LoadResult,
    traces: Vec<Trace>,
    verbs: HashMap<String, Verb>,
    before: Vec<Response>,
    after: Vec<Response>,
    floor_us: f64,
    replay: Replay,
}

/// The traced run: an untraced and a traced socket phase of half the run
/// each (their difference is the tracing overhead), the daemon's `stats`
/// around the traced phase, the idle 1-cell round-trip floor, and the
/// in-process replay of the traced phase's lines.
fn traced_run(
    clients: &mut [Client],
    gen: &Generator,
    priming: &[Request],
    seconds: f64,
) -> Result<Traced, String> {
    let half = seconds / 2.0;
    let untraced = phase(clients, gen, 0, half, 0, None)?;
    let epoch = Instant::now();
    let mut traces: Vec<Trace> = (0..clients.len())
        .map(|lane| Trace::new(epoch, lane as u64))
        .collect();
    let snapshot = |clients: &mut [Client], tag: &str| {
        clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                c.stats(&format!("{tag}{i}"))
                    .map_err(|e| format!("stats: {e}"))
            })
            .collect::<Result<Vec<Response>, String>>()
    };
    let before = snapshot(clients, "before")?;
    let first = untraced.units;
    let traced = phase(clients, gen, first, half, 0, Some(&mut traces))?;
    let after = snapshot(clients, "after")?;

    let mut floor = Vec::with_capacity(FLOOR_SAMPLES);
    for i in 0..FLOOR_SAMPLES {
        let id = format!("floor{i}");
        let t = Instant::now();
        ask(&mut clients[0], &one_cell_line(&id), &id)?;
        floor.push(t.elapsed().as_secs_f64() * 1e6);
    }

    let warm_units = warm_units(gen.workload()).min(first);
    let warm = gen.units(first - warm_units, warm_units)?;
    let sent = gen.units(first, traced.units)?;
    let verbs = sent
        .iter()
        .flatten()
        .map(|r| (r.id.clone(), r.verb))
        .collect();
    let measured = &sent[..sent.len().min(REPLAY_UNITS)];
    let mut replay_trace = Trace::new(epoch, clients.len() as u64);
    let replay = replay::replay(priming, &warm, measured, &mut replay_trace)?;
    traces.push(replay_trace);
    Ok(Traced {
        workload: gen.workload(),
        untraced,
        traced,
        traces,
        verbs,
        before,
        after,
        floor_us: median(&floor),
        replay,
    })
}

/// Units replayed untimed before the measured window so the in-process
/// engines reach the daemon's π-cache state: enough new distributions
/// to fill the 1024-table cache.
fn warm_units(workload: Workload) -> u64 {
    match workload {
        // The primed pool is the whole working set.
        Workload::WarmSweep => 0,
        // 200 new tables per request.
        Workload::ColdCalibrate => 1024u64.div_ceil(200) + 2,
        // 50 new tables every fourth session.
        Workload::OpenMixed => 1024u64.div_ceil(50) * 4 + 8,
    }
}

impl Traced {
    /// Fills the per-layer metrics and returns the attribution report.
    fn fill(&self, m: &mut Metrics) -> Result<String, String> {
        let spans = |name: &str| -> Vec<(Option<Verb>, f64)> {
            self.traces
                .iter()
                .flat_map(|t| &t.spans)
                .filter(|s| s.name == name)
                .map(|s| (self.verbs.get(&s.request).copied(), s.seconds()))
                .collect()
        };
        let us = |name: &str| mix_median(&spans(name)) * 1e6;
        let (send_us, wait_us, decode_us) =
            (us("client.send"), us("client.wait"), us("client.decode"));
        let untraced_p50 = percentile(&self.untraced.latencies(), 50.0)?.value * 1e6;
        let request_s: Vec<f64> = spans("request").into_iter().map(|(_, s)| s).collect();
        let traced_p50 = percentile(&request_s, 50.0)?.value * 1e6;

        let answered = self.traced.answered().max(1) as f64;
        let delta = |path: &[&str], lanes: std::ops::Range<usize>| -> f64 {
            lanes
                .map(|i| {
                    self.after[i].number(path).unwrap_or(0.0)
                        - self.before[i].number(path).unwrap_or(0.0)
                })
                .sum()
        };
        let lanes = self.after.len();
        let conn = |key: &str| delta(&["stats", "conn", key], 0..lanes);
        let engine = |key: &str| delta(&["stats", "engine", key], 0..1);
        // The `before` snapshots' own answers leave after their counters
        // were read, so they land in the `bytes_out` delta.
        let stats_bytes: usize = self.before.iter().map(|r| r.line.len() + 1).sum();
        let queue_us = conn("queue_ns_total") / answered / 1e3;
        let service_us = conn("service_ns_total") / answered / 1e3;
        let bytes_out = (conn("bytes_out") - stats_bytes as f64) / answered;
        let (hits, misses, grown) = (
            engine("cache_hits"),
            engine("cache_misses"),
            engine("cache_len"),
        );
        let lookups = hits + misses;

        let r = &self.replay.requests;
        if r.is_empty() {
            return Err("the replay measured no request".to_owned());
        }
        let per_req = |f: &dyn Fn(&replay::Replayed) -> f64| {
            mix_median(&r.iter().map(|x| (x.verb, f(x))).collect::<Vec<_>>())
        };
        let sum = |f: &dyn Fn(&replay::Replayed) -> f64| r.iter().map(f).sum::<f64>();
        let parse_us = per_req(&|x| x.parse_s) * 1e6;
        let encode_us = per_req(&|x| x.encode_s) * 1e6;
        let session_us = per_req(&|x| x.session_s) * 1e6;
        let verb_us = per_req(&|x| x.verb_s) * 1e6;
        let cells = sum(&|x| x.cells as f64);
        let pi_ns = sum(&|x| x.pi_build_s) * 1e9 / sum(&|x| x.pi_entries as f64);
        let kernel_ns = sum(&|x| x.kernel_s) * 1e9 / sum(&|x| x.kernel_cells as f64);
        let param_ns = sum(&|x| x.param_s) * 1e9 / sum(&|x| x.param_points as f64);
        let workers = &self.replay.cells_per_worker;
        let worker_total: u64 = workers.iter().sum();
        let imbalance = if worker_total == 0 {
            1.0
        } else {
            *workers.iter().max().unwrap_or(&0) as f64 * workers.len() as f64 / worker_total as f64
        };
        let mut lags = self.untraced.send_lag.clone();
        lags.extend(&self.traced.send_lag);
        let lag_p99 = percentile(&lags, 99.0)?;

        // Self time per layer, µs per request (each verb's median,
        // weighted by its share). The π build, kernel
        // and frontier scan inside a verb are modelled from their
        // standalone rates and the verb's own counters.
        let dist_in =
            per_req(&|x| x.batch.cache_misses as f64 * x.entries_per_table as f64 * pi_ns / 1e3);
        let kernel_in = per_req(&|x| x.batch.cells as f64 * kernel_ns / 1e3);
        let param_in = per_req(&|x| {
            if x.frontier {
                x.param_points as f64 * param_ns / 1e3
            } else {
                0.0
            }
        });
        let layers = [
            ("client", send_us + decode_us),
            ("serve", self.floor_us),
            (
                "engine.pipeline",
                (session_us - parse_us - verb_us - encode_us) + queue_us,
            ),
            ("engine.wire", parse_us + encode_us),
            ("engine", verb_us - dist_in - kernel_in - param_in),
            ("dist", dist_in),
            ("core.kernel", kernel_in),
            ("core.param", param_in),
        ];
        let attributed: f64 = layers.iter().map(|(_, v)| v).sum();
        let unattributed = 1.0 - attributed / untraced_p50;
        let overhead = (traced_p50 - untraced_p50) / untraced_p50;

        for (name, value) in [
            ("client.send_us", send_us),
            ("client.decode_us", decode_us),
            ("serve.rtt_floor_us", self.floor_us),
            ("serve.residual_us", wait_us - session_us),
            ("serve.bytes_out_per_req", bytes_out),
            ("engine.pipeline.queue_us", queue_us),
            ("engine.pipeline.service_us", service_us),
            ("engine.wire.parse_us", parse_us),
            ("engine.wire.encode_us", encode_us),
            (
                "engine.wire.encode_ns_per_cell",
                sum(&|x| x.encode_s) * 1e9 / cells,
            ),
            (
                "engine.wire.bytes_per_cell",
                sum(&|x| x.encode_bytes as f64) / cells,
            ),
            ("engine.session_us", session_us),
            ("engine.verb_us", verb_us),
            (
                "engine.cache.hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 1.0 },
            ),
            ("engine.cache.misses_per_req", misses / answered),
            (
                "engine.cache.evictions_per_req",
                (misses - grown) / answered,
            ),
            ("engine.pool.imbalance", imbalance),
            ("dist.pi_build_ns_per_entry", pi_ns),
            ("core.kernel.ns_per_cell", kernel_ns),
            ("core.param.ns_per_point", param_ns),
            ("loadgen.send_lag_p99_ms", lag_p99.value * 1e3),
            ("trace.unattributed_share", unattributed),
            ("trace.overhead_share", overhead),
        ] {
            m.set(&PER_LAYER, name, value);
        }

        let path = std::path::PathBuf::from(format!(
            "perfbench/out/{}-spans.jsonl",
            self.workload.name()
        ));
        let refs: Vec<&Trace> = self.traces.iter().collect();
        trace::write_spans(&path, &refs).map_err(|e| format!("{}: {e}", path.display()))?;

        let mut out = format!(
            "traced: {} untraced + {} traced request(s); replayed {} in-process; π lookups in the traced phase: {lookups} ({hits} hits)\n\
             spans: {} written to {}\n\
             attribution (self time per request, µs; per-verb medians weighted by share):\n",
            self.untraced.attempted,
            self.traced.attempted,
            r.len(),
            refs.iter().map(|t| t.spans.len()).sum::<usize>(),
            path.display()
        );
        for (name, value) in layers {
            out.push_str(&format!("  {name:<16} {value:>12.1}\n"));
        }
        out.push_str(&format!(
            "  {:<16} {attributed:>12.1}  vs untraced latency_p50 {untraced_p50:.1} µs: unattributed {:.1}%, tracing overhead {:.1}%\n",
            "sum",
            unattributed * 100.0,
            overhead * 100.0
        ));
        out.push_str(&self.purpose(
            untraced_p50,
            encode_us + decode_us,
            verb_us,
            misses / answered,
            (misses - grown) / answered,
        ));
        Ok(out)
    }

    /// The check each workload exists for, stated against the seed.
    fn purpose(
        &self,
        p50_us: f64,
        wire_us: f64,
        verb_us: f64,
        misses: f64,
        evictions: f64,
    ) -> String {
        let verdict = |ok: bool| if ok { "holds" } else { "DOES NOT HOLD" };
        match self.workload {
            Workload::WarmSweep => format!(
                "purpose: encode + client decode = {wire_us:.0} µs of latency_p50 {p50_us:.0} µs (> half: {})",
                verdict(wire_us > p50_us / 2.0)
            ),
            Workload::ColdCalibrate => format!(
                "purpose: engine verb = {verb_us:.0} µs of latency_p50 {p50_us:.0} µs (> half: {}); evictions {evictions:.1} vs misses {misses:.1} per request",
                verdict(verb_us > p50_us / 2.0)
            ),
            Workload::OpenMixed => format!(
                "purpose: cache read by dependent verbs and written by sweeps; misses {misses:.1}, evictions {evictions:.1} per request"
            ),
        }
    }
}
