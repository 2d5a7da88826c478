//! Throughput of the batched landscape-evaluation engine.
//!
//! Times one 200 × 200 `(n, r)` sweep of the Figure-2 scenario four ways —
//! single-threaded vs the full worker pool, cache-cold vs cache-warm — and
//! once more from a fresh engine over spill files, plus a kernel-vs-legacy
//! column microbenchmark (the single-pass
//! [`zeroconf_cost::kernel::ColumnKernel`] against the per-`n`
//! `*_from_pis` closed forms over the same precomputed π-tables) and a
//! 16-request session dispatched serially vs through the pipelined
//! front-end, and the wire layer: encoding a warm 32 × 100 sweep answer
//! and parsing it back. Measurements go to `BENCH_engine.json` at the
//! repository root for machine consumption, alongside the human-readable
//! summary on stdout. Uses a custom `main` on top of [`zeroconf_bench::harness`]
//! rather than the Criterion-shaped macros, because the cold/warm split
//! needs explicit control over engine lifetimes.
//!
//! Knobs:
//!
//! * `--samples N` — timed samples per benchmark (default 7). `--samples 2`
//!   is the CI smoke setting.
//! * `--out PATH` — where to write the JSON report (default
//!   `BENCH_engine.json` at the repository root).
//! * `ZEROCONF_BENCH_THREADS=K` — cap the "full pool" thread count instead
//!   of taking `available_parallelism`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use zeroconf_bench::harness::{black_box, format_nanos, measure, BenchRecord};
use zeroconf_bench::schema;
use zeroconf_cost::kernel::{Backend, ColumnBlockKernel, ColumnKernel, Mode};
use zeroconf_cost::{cost, paper};
use zeroconf_engine::wire::{parse_json, WireResponse};
use zeroconf_engine::{
    CalibrateRequest, Engine, EngineConfig, FrontierRequest, GridSpec, ParamAxis, Pipeline,
    PipelineConfig, SweepRequest,
};

/// Grid size: 200 probe counts × 200 listening periods = 40 000 cells.
const N_MAX: u32 = 200;
const R_POINTS: usize = 200;
const DEFAULT_SAMPLES: usize = 7;
const GRID_CELLS: usize = N_MAX as usize * R_POINTS;

fn sweep() -> SweepRequest {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    SweepRequest::new(scenario, GridSpec::linspace(N_MAX, 0.1, 30.0, R_POINTS))
}

fn config(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        // Room for every r column, so the warm runs never evict.
        cache_tables: R_POINTS.next_power_of_two(),
        cache_dir: None,
        ..EngineConfig::default()
    }
}

/// Cache-cold sweep: a fresh engine per iteration, so every π-table is
/// computed. Pool spawn cost is included — it is part of the cold path.
fn cold(threads: usize, samples: usize, request: &SweepRequest) -> BenchRecord {
    measure(&schema::row_engine("cold", threads), samples, || {
        let engine = Engine::new(config(threads));
        engine.evaluate(request).expect("sweep evaluates")
    })
}

/// Cache-warm sweep: one long-lived engine, primed once, so every π-table
/// is served from the cache and only Eq. (3)/(4) arithmetic remains.
fn warm(threads: usize, samples: usize, request: &SweepRequest) -> BenchRecord {
    let engine = Engine::new(config(threads));
    engine.evaluate(request).expect("priming sweep evaluates");
    measure(&schema::row_engine("warm", threads), samples, || {
        engine.evaluate(request).expect("sweep evaluates")
    })
}

/// Engine start from the spill tier: a writer engine spills every
/// π-table to disk once, then each iteration builds a *fresh* engine over
/// that directory and sweeps the grid, reading every table from its spill
/// file (zero recomputation, asserted). Compare with the single-thread
/// cold row, which recomputes every table instead.
fn spill_start(samples: usize, request: &SweepRequest) -> BenchRecord {
    let dir = std::env::temp_dir().join(format!("zeroconf-bench-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spilled = || EngineConfig {
        cache_dir: Some(dir.clone()),
        ..config(1)
    };
    Engine::new(spilled())
        .evaluate(request)
        .expect("spill sweep evaluates");
    let record = measure(schema::ROW_ENGINE_SPILL_START, samples, || {
        let engine = Engine::new(spilled());
        let response = engine.evaluate(request).expect("sweep evaluates");
        assert_eq!(
            response.stats.cache_misses, 0,
            "every table must be read from a spill file, not recomputed"
        );
        response
    });
    let _ = std::fs::remove_dir_all(&dir);
    record
}

/// Blocked batch kernel, cold: each iteration batch-computes every
/// π-table ([`ColumnBlockKernel::pi_table_block`], with the zero-tail
/// cutoff, into one flat slab) and then evaluates the whole grid in one
/// r-major block pass. This is the engine's cold path without pool or
/// cache overhead.
fn block_columns(samples: usize, request: &SweepRequest) -> BenchRecord {
    let block = ColumnBlockKernel::new(&request.scenario);
    let rs = request.grid.r_values.clone();
    let mut costs = vec![0.0f64; GRID_CELLS];
    let mut errors = vec![0.0f64; GRID_CELLS];
    measure(schema::ROW_KERNEL_BLOCK, samples, move || {
        let tables = block.pi_table_block(N_MAX, &rs).expect("pi tables compute");
        block
            .evaluate(
                N_MAX,
                &rs,
                &tables.views(),
                Some(&mut costs),
                Some(&mut errors),
            )
            .expect("block evaluates");
        black_box((costs.last().copied(), errors.last().copied()))
    })
}

/// Blocked batch kernel on the widest SIMD tier the host supports, in
/// exact mode (bit-identical results to [`block_columns`] — the parity
/// suite proves it; this row measures what the identical bits cost).
/// On a host without AVX2 the backend clamps to scalar and the row
/// duplicates [`schema::ROW_KERNEL_BLOCK`], which the note records.
fn block_simd(samples: usize, request: &SweepRequest) -> BenchRecord {
    let block = ColumnBlockKernel::with_backend(&request.scenario, Backend::detect(), Mode::Exact);
    let rs = request.grid.r_values.clone();
    let mut costs = vec![0.0f64; GRID_CELLS];
    let mut errors = vec![0.0f64; GRID_CELLS];
    measure(schema::ROW_KERNEL_BLOCK_SIMD, samples, move || {
        let tables = block.pi_table_block(N_MAX, &rs).expect("pi tables compute");
        block
            .evaluate(
                N_MAX,
                &rs,
                &tables.views(),
                Some(&mut costs),
                Some(&mut errors),
            )
            .expect("block evaluates");
        black_box((costs.last().copied(), errors.last().copied()))
    })
}

/// Single-pass column kernel over precomputed π-tables: the O(n_max) path
/// the engine actually runs once tables are cached.
fn kernel_columns(samples: usize, request: &SweepRequest) -> BenchRecord {
    let kernel = ColumnKernel::new(&request.scenario);
    let tables: Vec<Vec<f64>> = request
        .grid
        .r_values
        .iter()
        .map(|&r| cost::pi_table(&request.scenario, N_MAX, r).expect("pi table computes"))
        .collect();
    let mut costs = vec![0.0f64; N_MAX as usize];
    let mut errors = vec![0.0f64; N_MAX as usize];
    measure(schema::ROW_KERNEL_SINGLE_PASS, samples, move || {
        for (r, pis) in request.grid.r_values.iter().zip(&tables) {
            kernel
                .evaluate(N_MAX, *r, pis, Some(&mut costs), Some(&mut errors))
                .expect("kernel evaluates");
        }
        black_box((costs.last().copied(), errors.last().copied()))
    })
}

/// Legacy per-`n` path over the same precomputed π-tables: each cell pays
/// an O(n) prefix sum inside `mean_cost_from_pis`, so a column is O(n²).
fn legacy_columns(samples: usize, request: &SweepRequest) -> BenchRecord {
    let tables: Vec<Vec<f64>> = request
        .grid
        .r_values
        .iter()
        .map(|&r| cost::pi_table(&request.scenario, N_MAX, r).expect("pi table computes"))
        .collect();
    let mut costs = vec![0.0f64; N_MAX as usize];
    let mut errors = vec![0.0f64; N_MAX as usize];
    measure(schema::ROW_KERNEL_LEGACY, samples, move || {
        for (r, pis) in request.grid.r_values.iter().zip(&tables) {
            for n in 1..=N_MAX {
                costs[n as usize - 1] = cost::mean_cost_from_pis(&request.scenario, n, *r, pis)
                    .expect("cost evaluates");
                errors[n as usize - 1] =
                    cost::error_probability_from_pis(&request.scenario, n, pis)
                        .expect("error evaluates");
            }
        }
        black_box((costs.last().copied(), errors.last().copied()))
    })
}

/// Session shape for the pipelined-vs-serial comparison: 16 moderate
/// sweeps with staggered r-grids (no π-table aliasing between requests).
const SESSION_REQUESTS: usize = 16;
const SESSION_N_MAX: u32 = 32;
const SESSION_R_POINTS: usize = 40;

fn session_requests() -> Vec<SweepRequest> {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    (0..SESSION_REQUESTS)
        .map(|k| {
            let lo = 0.1 + 0.013 * k as f64;
            SweepRequest::new(
                scenario.clone(),
                GridSpec::linspace(SESSION_N_MAX, lo, 30.0, SESSION_R_POINTS),
            )
        })
        .collect()
}

/// Baseline session: the requests evaluated one at a time on a fresh
/// engine — the old blocking `Session` dispatch pattern.
fn serial_session(threads: usize, samples: usize, requests: &[SweepRequest]) -> BenchRecord {
    measure(&schema::row_session_serial(threads), samples, || {
        let engine = Engine::new(config(threads));
        requests
            .iter()
            .map(|request| {
                engine
                    .evaluate(request)
                    .expect("sweep evaluates")
                    .landscape
                    .len()
            })
            .sum::<usize>()
    })
}

/// The same requests streamed through a `Pipeline` with `depth` in
/// flight, drained at the end. On a multi-core host the overlap wins; on
/// a single-CPU host this measures pure pipelining overhead, and is
/// expected to come out *slower* than the serial dispatch.
fn pipelined_session(
    threads: usize,
    depth: usize,
    samples: usize,
    requests: &[SweepRequest],
) -> BenchRecord {
    measure(
        &schema::row_session_pipelined(depth, threads),
        samples,
        || {
            let engine = Arc::new(Engine::new(config(threads)));
            let mut pipeline = Pipeline::new(engine, PipelineConfig::with_depth(depth));
            for request in requests {
                pipeline.submit(request.clone()).expect("sweep submits");
            }
            pipeline.drain().len()
        },
    )
}

/// Parametric-verb shape: a 32 × 40 scenario grid swept by a 64 × 64
/// `(E, c)` parameter grid — the frontier acceptance geometry.
const PARAM_N_MAX: u32 = 32;
const PARAM_R_POINTS: usize = 40;
const PARAM_AXIS_POINTS: usize = 64;
/// Stride of the per-point-recompute baseline: an 8 × 8 subsample of the
/// same axes, because a cold sweep per parameter point is orders of
/// magnitude slower than the statistic scan. Rows are normalized to
/// parameter-cell evaluations (`candidates × grid cells`), so
/// `cells_per_sec` stays directly comparable across the two.
const RECOMPUTE_STRIDE: usize = 8;

fn param_grid() -> GridSpec {
    GridSpec::linspace(PARAM_N_MAX, 0.1, 30.0, PARAM_R_POINTS)
}

/// Log-spaced collision costs and linear probe costs for the frontier.
fn frontier_axes() -> (Vec<f64>, Vec<f64>) {
    let span = (PARAM_AXIS_POINTS - 1) as f64;
    let error_costs = (0..PARAM_AXIS_POINTS)
        .map(|i| 10f64.powf(10.0 + 25.0 * i as f64 / span))
        .collect();
    let probe_costs = (0..PARAM_AXIS_POINTS)
        .map(|i| 0.5 + 3.5 * i as f64 / span)
        .collect();
    (error_costs, probe_costs)
}

fn frontier_request() -> FrontierRequest {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    let (error_costs, probe_costs) = frontier_axes();
    FrontierRequest::builder()
        .scenario(scenario)
        .grid(param_grid())
        .x(ParamAxis::ErrorCost, error_costs)
        .y(ParamAxis::ProbeCost, probe_costs)
        .build()
        .expect("frontier request is valid")
}

/// Warm frontier: the first call builds the sufficient-statistic
/// landscape (and the π-tables under it); every timed pass answers the
/// full 64 × 64 parameter grid from the cached statistic with zero π
/// work, as asserted each iteration.
fn frontier_warm(samples: usize) -> BenchRecord {
    let engine = Engine::new(config(1));
    let request = frontier_request();
    let primed = engine
        .frontier(&request)
        .expect("priming frontier evaluates");
    assert!(!primed.points.is_empty());
    measure(schema::ROW_FRONTIER_WARM, samples, move || {
        let response = engine.frontier(&request).expect("frontier evaluates");
        assert_eq!(
            response.stats.cache_misses, 0,
            "warm frontier must not recompute π-tables"
        );
        black_box(response.points.len())
    })
}

/// The naive baseline the frontier verb replaces: per parameter point, a
/// cold engine (pool spawn included, as in the cold row) recomputes every
/// π-table, sweeps the grid, and scans for the cheapest cell.
fn frontier_recompute(samples: usize) -> BenchRecord {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    let (error_costs, probe_costs) = frontier_axes();
    let grid = param_grid();
    measure(schema::ROW_FRONTIER_RECOMPUTE, samples, move || {
        let mut finite = 0_usize;
        for &error_cost in error_costs.iter().step_by(RECOMPUTE_STRIDE) {
            for &probe_cost in probe_costs.iter().step_by(RECOMPUTE_STRIDE) {
                let point = ParamAxis::ErrorCost
                    .apply(&scenario, error_cost)
                    .and_then(|s| ParamAxis::ProbeCost.apply(&s, probe_cost))
                    .expect("axis values are valid");
                let engine = Engine::new(config(1));
                let response = engine
                    .evaluate(&SweepRequest::new(point, grid.clone()))
                    .expect("sweep evaluates");
                let best = response
                    .landscape
                    .iter()
                    .filter(|cell| cell.mean_cost.is_some_and(f64::is_finite))
                    .min_by(|a, b| a.mean_cost.partial_cmp(&b.mean_cost).expect("finite costs"));
                finite += usize::from(best.is_some());
            }
        }
        black_box(finite)
    })
}

/// Closed-form `E*` calibration against the warm statistic: after the
/// priming call the engine's landscape slot answers without touching a
/// single π-table.
fn calibrate_warm(samples: usize) -> BenchRecord {
    let engine = Engine::new(config(1));
    let grid = param_grid();
    // An interior target in the regime where π_n is still representable:
    // at larger r the n-probe no-answer probability underflows to zero
    // and no finite collision cost can make the cell optimal.
    let target_r = grid.r_values[5];
    let request = CalibrateRequest::builder()
        .scenario(paper::figure2_scenario().expect("paper scenario is valid"))
        .grid(grid)
        .target(4, target_r)
        .build()
        .expect("calibrate request is valid");
    engine
        .calibrate(&request)
        .expect("priming calibration evaluates");
    measure(schema::ROW_CALIBRATE_WARM, samples, move || {
        let response = engine.calibrate(&request).expect("calibration evaluates");
        black_box(response.error_cost)
    })
}

/// Wire-layer shape: a 32 × 100 sweep answer, the size of the serve
/// benchmark's warm sweeps (about 330 KB on the wire).
const WIRE_N_MAX: u32 = 32;
const WIRE_R_POINTS: usize = 100;
const WIRE_CELLS: usize = WIRE_N_MAX as usize * WIRE_R_POINTS;

/// A warm 32 × 100 sweep answer, ready to encode.
fn wire_response() -> WireResponse {
    let scenario = paper::figure2_scenario().expect("paper scenario is valid");
    let request = SweepRequest::new(
        scenario,
        GridSpec::linspace(WIRE_N_MAX, 0.1, 30.0, WIRE_R_POINTS),
    );
    let engine = Engine::new(config(1));
    engine.evaluate(&request).expect("priming sweep evaluates");
    WireResponse::Sweep {
        id: "wire".to_owned(),
        response: engine.evaluate(&request).expect("sweep evaluates"),
    }
}

/// Response encode: the answer serialized to its JSON line.
fn wire_encode(samples: usize, response: &WireResponse) -> BenchRecord {
    measure(schema::ROW_WIRE_ENCODE_SWEEP, samples, || {
        response.to_line()
    })
}

/// Response decode: the generic JSON parse a client runs on that line.
fn wire_decode(samples: usize, line: &str) -> BenchRecord {
    measure(schema::ROW_WIRE_DECODE_SWEEP, samples, || {
        parse_json(line).expect("response line parses")
    })
}

struct Options {
    samples: usize,
    out: PathBuf,
}

fn parse_options() -> Options {
    let mut samples = DEFAULT_SAMPLES;
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--samples" => {
                let value = args.next().expect("--samples takes a count");
                samples = value.parse().expect("--samples takes an integer");
            }
            "--out" => {
                out = PathBuf::from(args.next().expect("--out takes a path"));
            }
            // `cargo bench` forwards its own flags (e.g. `--bench`); ignore
            // anything we do not recognise rather than failing the run.
            _ => {}
        }
    }
    Options { samples, out }
}

fn pool_threads() -> usize {
    if let Ok(value) = std::env::var("ZEROCONF_BENCH_THREADS") {
        if let Ok(parsed) = value.parse::<usize>() {
            return parsed.max(1);
        }
        eprintln!("ignoring non-numeric ZEROCONF_BENCH_THREADS={value:?}");
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .max(2)
}

fn main() {
    let options = parse_options();
    let samples = options.samples;
    let request = sweep();
    let pool = pool_threads();
    let single_cpu = std::thread::available_parallelism().map_or(true, |p| p.get() < 2);
    println!(
        "engine throughput on a {N_MAX} x {R_POINTS} grid ({} cells, {samples} samples):",
        request.grid.cells()
    );
    let grid_runs = [
        (cold(1, samples, &request), 1, "cold"),
        (cold(pool, samples, &request), pool, "cold"),
        (warm(1, samples, &request), 1, "warm"),
        (warm(pool, samples, &request), pool, "warm"),
        (spill_start(samples, &request), 1, "spill-start"),
    ];
    // The SIMD row's note pins the dispatched backend, so a scalar-clamped
    // run on a host without AVX2 is visible in the artifact.
    let simd_note = format!("backend={}", Backend::detect().name());
    let kernel_runs = [
        (block_columns(samples, &request), 1, "cold", None),
        (
            block_simd(samples, &request),
            1,
            "cold",
            Some(simd_note.as_str()),
        ),
        (kernel_columns(samples, &request), 1, "warm", None),
        (legacy_columns(samples, &request), 1, "warm", None),
    ];
    // Parametric verbs: one candidate costs `grid cells` reconstruction
    // work, so rows are normalized to parameter-cell evaluations and
    // `cells_per_sec` compares the statistic scan against the naive
    // per-point recompute directly.
    let param_cells = PARAM_N_MAX as usize * PARAM_R_POINTS;
    let frontier_candidates = PARAM_AXIS_POINTS * PARAM_AXIS_POINTS;
    let recompute_candidates = frontier_candidates / (RECOMPUTE_STRIDE * RECOMPUTE_STRIDE);
    let recompute_note = format!(
        "{}x{} subsample of the {}x{} parameter grid; cells count \
         parameter-cell evaluations",
        PARAM_AXIS_POINTS / RECOMPUTE_STRIDE,
        PARAM_AXIS_POINTS / RECOMPUTE_STRIDE,
        PARAM_AXIS_POINTS,
        PARAM_AXIS_POINTS
    );
    let param_runs = [
        (
            frontier_warm(samples),
            "warm",
            frontier_candidates * param_cells,
            None,
        ),
        (
            frontier_recompute(samples),
            "cold",
            recompute_candidates * param_cells,
            Some(recompute_note.as_str()),
        ),
        (calibrate_warm(samples), "warm", param_cells, None),
    ];
    let response = wire_response();
    let line = response.to_line();
    let wire_runs = [wire_encode(samples, &response), wire_decode(samples, &line)];
    let requests = session_requests();
    let session_cells = SESSION_REQUESTS * SESSION_N_MAX as usize * SESSION_R_POINTS;
    let depth = SESSION_REQUESTS.min(4);
    let pipelined_note = if single_cpu {
        Some(
            "single-CPU host: pipelining only adds dispatch overhead here, \
             so slower-than-serial is the expected result",
        )
    } else {
        None
    };
    let session_runs = [
        (serial_session(1, samples, &requests), 1, "cold", None),
        (
            pipelined_session(1, depth, samples, &requests),
            1,
            "cold",
            pipelined_note,
        ),
    ];
    for (record, _, _) in &grid_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    for (record, _, _, _) in &kernel_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    for (record, _, _, _) in &param_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    for (record, _, _, _) in &session_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples)",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples
        );
    }
    for record in &wire_runs {
        println!(
            "  {:<36} median {:>10}/run (min {}, {} samples), {:.0} ns/cell",
            record.id,
            format_nanos(record.median_ns),
            format_nanos(record.min_ns),
            record.samples,
            record.median_ns / WIRE_CELLS as f64
        );
    }
    let speedup = |single: &BenchRecord, multi: &BenchRecord| single.median_ns / multi.median_ns;
    println!(
        "  cold speedup at {pool} threads: {:.2}x, warm: {:.2}x",
        speedup(&grid_runs[0].0, &grid_runs[1].0),
        speedup(&grid_runs[2].0, &grid_runs[3].0)
    );
    println!(
        "  spill start (1 thread) vs cold: {:.2}x",
        speedup(&grid_runs[0].0, &grid_runs[4].0)
    );
    println!(
        "  block kernel (incl. pi) vs cold engine (1 thread): {:.2}x",
        speedup(&grid_runs[0].0, &kernel_runs[0].0)
    );
    println!(
        "  simd block kernel ({}) vs scalar block: {:.2}x",
        Backend::detect().name(),
        speedup(&kernel_runs[0].0, &kernel_runs[1].0)
    );
    println!(
        "  single-pass kernel vs legacy per-n columns: {:.2}x",
        speedup(&kernel_runs[3].0, &kernel_runs[2].0)
    );
    println!(
        "  pipelined session (depth {depth}) vs serial: {:.2}x over {} requests",
        speedup(&session_runs[0].0, &session_runs[1].0),
        SESSION_REQUESTS
    );
    // Throughput ratio in parameter-cell evaluations per second: the warm
    // statistic scan against the per-point cold recompute.
    let per_cell = |run: &(BenchRecord, &str, usize, Option<&str>)| run.2 as f64 / run.0.median_ns;
    println!(
        "  warm frontier vs per-point recompute: {:.0}x parameter-cell throughput",
        per_cell(&param_runs[0]) / per_cell(&param_runs[1])
    );
    if single_cpu {
        println!(
            "  note: host exposes a single CPU, so the {pool}-thread and pipelined \
             runs can only measure dispatch overhead, not speedup"
        );
    }

    let mut lines: Vec<String> = grid_runs
        .iter()
        .map(|(record, threads, cache)| {
            schema::row_json(record, *threads, cache, N_MAX, R_POINTS, GRID_CELLS, None)
        })
        .collect();
    lines.extend(kernel_runs.iter().map(|(record, threads, cache, note)| {
        schema::row_json(record, *threads, cache, N_MAX, R_POINTS, GRID_CELLS, *note)
    }));
    lines.extend(param_runs.iter().map(|(record, cache, cells, note)| {
        schema::row_json(record, 1, cache, PARAM_N_MAX, PARAM_R_POINTS, *cells, *note)
    }));
    lines.extend(session_runs.iter().map(|(record, threads, cache, note)| {
        schema::row_json(
            record,
            *threads,
            cache,
            SESSION_N_MAX,
            SESSION_R_POINTS,
            session_cells,
            *note,
        )
    }));
    lines.extend(wire_runs.iter().map(|record| {
        schema::row_json(
            record,
            1,
            "warm",
            WIRE_N_MAX,
            WIRE_R_POINTS,
            WIRE_CELLS,
            None,
        )
    }));
    let json = format!("[\n  {}\n]\n", lines.join(",\n  "));
    match std::fs::write(&options.out, json) {
        Ok(()) => println!("  wrote {}", options.out.display()),
        Err(e) => eprintln!("  could not write {}: {e}", options.out.display()),
    }
}
