//! The traced run's in-process half: the lines the daemon was sent,
//! replayed through each layer's public functions on engines brought to
//! the daemon's cache state, with every call timed.
//!
//! Two engines replay the same line sequence, so both see the cache state
//! the daemon saw: engine A behind a [`PipelinedSession`] (the daemon's
//! per-connection codec), engine B called verb by verb. The π build,
//! block kernel and frontier scan are then timed on their own, outside
//! any cache, over the same distribution and grid.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use zeroconf_cost::kernel::{ColumnBlockKernel, ScenarioFactors};
use zeroconf_cost::param::ParamLandscape;
use zeroconf_cost::Scenario;
use zeroconf_engine::wire::{
    parse_request_line, PipelinedSession, WireRequest, WireResponse, WorkTarget,
};
use zeroconf_engine::{
    AxisSpec, BatchStats, CalibrateRequest, Engine, EngineConfig, FrontierRequest, GridSpec,
    PipelineConfig, SweepRequest, WorkResponse,
};
use zeroconf_simd::{Backend, KernelChoice, Mode};

use crate::gen::{Request, Unit, Verb};
use crate::trace::Trace;

/// The daemon's per-connection pipeline shape at its default
/// `--inflight 8` (depth = budget, executors = min(budget, 4)).
const DAEMON_PIPELINE: PipelineConfig = PipelineConfig {
    depth: 8,
    executors: 4,
};

/// Timings and counts of one replayed request.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// The request's verb.
    pub verb: Option<Verb>,
    /// Grid cells the request covers.
    pub cells: u64,
    /// `parse_request_line`, seconds.
    pub parse_s: f64,
    /// `PipelinedSession::submit_line` to the answer, seconds.
    pub session_s: f64,
    /// The `Engine` verb call, seconds.
    pub verb_s: f64,
    /// `WireResponse::to_line`, seconds.
    pub encode_s: f64,
    /// Bytes of the encoded answer.
    pub encode_bytes: u64,
    /// The verb's own counters (π hits/misses, cells evaluated).
    pub batch: BatchStats,
    /// π-table entries built by the standalone π build.
    pub pi_entries: u64,
    /// The standalone π build, seconds.
    pub pi_build_s: f64,
    /// π-table entries per table for this request's grid (`n_max + 1`).
    pub entries_per_table: u64,
    /// Cells the standalone block-kernel pass evaluated.
    pub kernel_cells: u64,
    /// The standalone block-kernel pass, seconds.
    pub kernel_s: f64,
    /// Frontier points scanned (one, the request's own economics, for
    /// verbs without a frontier).
    pub param_points: u64,
    /// `min_cost_cell_with` over those points, seconds.
    pub param_s: f64,
    /// Whether this request's scan is work the verb itself does.
    pub frontier: bool,
}

/// Everything the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// One entry per measured request.
    pub requests: Vec<Replayed>,
    /// Engine B's `cells_per_worker` growth over the measured window.
    pub cells_per_worker: Vec<u64>,
}

/// Scenario and grid a request evaluates against.
#[derive(Clone)]
struct Target {
    scenario: Scenario,
    grid: GridSpec,
}

struct Replayer {
    session: PipelinedSession,
    engine: Engine,
    bases: HashMap<String, SweepRequest>,
    backend: Backend,
}

impl Replayer {
    fn new() -> Replayer {
        Replayer {
            session: PipelinedSession::with_engine(
                Arc::new(Engine::new(EngineConfig::default())),
                DAEMON_PIPELINE,
            ),
            engine: Engine::new(EngineConfig::default()),
            bases: HashMap::new(),
            backend: KernelChoice::Auto.resolve(),
        }
    }

    /// Replays one line through both engines; `Some` timings when
    /// `measure` is set.
    fn replay(
        &mut self,
        request: &Request,
        measure: bool,
        trace: &mut Trace,
    ) -> Result<Option<Replayed>, String> {
        let root = trace.reserve();
        let t0 = Instant::now();
        let decoded = parse_request_line(&request.line)
            .map_err(|e| format!("{}: replay parse: {e}", request.id))?;
        let t1 = Instant::now();
        let (target, response, batch, axes) = self.verb(decoded)?;
        let t2 = Instant::now();
        let line = WireResponse::from_result(&request.id, Ok(response)).to_line();
        let t3 = Instant::now();
        let answers = {
            let mut out = self.session.submit_line(&request.line);
            out.extend(self.session.drain());
            out
        };
        let t4 = Instant::now();
        if answers.len() != 1 || answers[0].contains("\"error\"") {
            return Err(format!(
                "{}: in-process session answered {answers:?}",
                request.id
            ));
        }
        if !measure {
            return Ok(None);
        }
        trace.record("engine.wire.parse", &request.id, root, t0, t1);
        trace.record("engine.verb", &request.id, root, t1, t2);
        trace.record("engine.wire.encode", &request.id, root, t2, t3);
        trace.record("engine.session", &request.id, root, t3, t4);
        let mut r = Replayed {
            verb: Some(request.verb),
            cells: request.cells,
            parse_s: (t1 - t0).as_secs_f64(),
            verb_s: (t2 - t1).as_secs_f64(),
            encode_s: (t3 - t2).as_secs_f64(),
            session_s: (t4 - t3).as_secs_f64(),
            encode_bytes: line.len() as u64,
            batch,
            ..Replayed::default()
        };
        self.layers(&target, request, axes.as_ref(), &mut r, root, trace)?;
        trace.record_as(root, "replay", &request.id, 0, t0, Instant::now());
        Ok(Some(r))
    }

    /// Engine B's verb call for a decoded line.
    #[allow(clippy::type_complexity)]
    fn verb(
        &mut self,
        decoded: WireRequest,
    ) -> Result<
        (
            Target,
            WorkResponse,
            BatchStats,
            Option<(AxisSpec, AxisSpec)>,
        ),
        String,
    > {
        let base = |bases: &HashMap<String, SweepRequest>, of: &str| {
            bases
                .get(of)
                .cloned()
                .ok_or_else(|| format!("replay: no sweep `{of}`"))
        };
        let resolve = |bases: &HashMap<String, SweepRequest>, target: WorkTarget| match target {
            WorkTarget::Base(of) => base(bases, &of).map(|b| Target {
                scenario: b.scenario,
                grid: b.grid,
            }),
            WorkTarget::Inline { scenario, grid } => Ok(Target { scenario, grid }),
        };
        let fail = |e: zeroconf_engine::EngineError| format!("replay verb: {e}");
        match decoded {
            WireRequest::Sweep { id, request } => {
                let response = self.engine.evaluate(&request).map_err(fail)?;
                let target = Target {
                    scenario: request.scenario.clone(),
                    grid: request.grid.clone(),
                };
                self.bases.insert(id, request);
                let batch = response.stats;
                Ok((target, WorkResponse::Sweep(response), batch, None))
            }
            WireRequest::Rescore { of, delta, .. } => {
                let base = base(&self.bases, &of)?;
                let (rescored, response) = self.engine.rescore(&base, &delta).map_err(fail)?;
                let target = Target {
                    scenario: rescored.scenario,
                    grid: rescored.grid,
                };
                let batch = response.stats;
                Ok((target, WorkResponse::Sweep(response), batch, None))
            }
            WireRequest::Calibrate { target, n, r, .. } => {
                let target = resolve(&self.bases, target)?;
                let response = self
                    .engine
                    .calibrate(&CalibrateRequest {
                        scenario: target.scenario.clone(),
                        grid: target.grid.clone(),
                        target_n: n,
                        target_r: r,
                    })
                    .map_err(fail)?;
                let batch = response.stats;
                Ok((target, WorkResponse::Calibrate(response), batch, None))
            }
            WireRequest::Frontier { target, x, y, .. } => {
                let target = resolve(&self.bases, target)?;
                let response = self
                    .engine
                    .frontier(&FrontierRequest {
                        scenario: target.scenario.clone(),
                        grid: target.grid.clone(),
                        x: x.clone(),
                        y: y.clone(),
                    })
                    .map_err(fail)?;
                let batch = response.stats;
                Ok((
                    target,
                    WorkResponse::Frontier(response),
                    batch,
                    Some((x, y)),
                ))
            }
            WireRequest::Cancel { .. } => Err("replay: cancels are never generated".to_owned()),
        }
    }

    /// Times the π build, the block kernel and the frontier scan for the
    /// request's distribution and grid, through their public functions.
    fn layers(
        &self,
        target: &Target,
        request: &Request,
        axes: Option<&(AxisSpec, AxisSpec)>,
        r: &mut Replayed,
        root: u64,
        trace: &mut Trace,
    ) -> Result<(), String> {
        let cost = |e: zeroconf_cost::CostError| format!("{}: replay layer: {e}", request.id);
        let n_max = target.grid.n_max;
        let rs = &target.grid.r_values;
        let cells = rs.len() * n_max as usize;
        let kernel = ColumnBlockKernel::with_backend(&target.scenario, self.backend, Mode::Exact);
        let t0 = Instant::now();
        let tables = std::hint::black_box(kernel.pi_tables(n_max, rs).map_err(cost)?);
        let t1 = Instant::now();
        trace.record("dist.pi_build", &request.id, root, t0, t1);
        r.pi_build_s = (t1 - t0).as_secs_f64();
        r.entries_per_table = u64::from(n_max) + 1;
        r.pi_entries = rs.len() as u64 * r.entries_per_table;
        // The engine runs the cost/error pass for sweeps and rescores and
        // the sufficient-statistic pass for calibrate and frontier.
        let (mut prefix, mut pi_n) = (vec![0.0; cells], vec![0.0; cells]);
        let statistic = matches!(request.verb, Verb::Calibrate | Verb::Frontier);
        let t2 = Instant::now();
        if statistic {
            kernel
                .evaluate_with_statistic(
                    n_max,
                    rs,
                    &tables,
                    None,
                    None,
                    Some(&mut prefix),
                    Some(&mut pi_n),
                )
                .map_err(cost)?;
        } else {
            let (mut costs, mut errors) = (vec![0.0; cells], vec![0.0; cells]);
            kernel
                .evaluate(n_max, rs, &tables, Some(&mut costs), Some(&mut errors))
                .map_err(cost)?;
            std::hint::black_box((&costs, &errors));
        }
        let t3 = Instant::now();
        trace.record("core.kernel", &request.id, root, t2, t3);
        r.kernel_s = (t3 - t2).as_secs_f64();
        r.kernel_cells = cells as u64;
        if !statistic {
            kernel
                .evaluate_with_statistic(
                    n_max,
                    rs,
                    &tables,
                    None,
                    None,
                    Some(&mut prefix),
                    Some(&mut pi_n),
                )
                .map_err(cost)?;
        }
        let landscape = ParamLandscape::from_parts(n_max, rs.clone(), prefix, pi_n);
        let points: Vec<ScenarioFactors> = match axes {
            Some((x, y)) => {
                let mut points = Vec::with_capacity(x.values.len() * y.values.len());
                for &xv in &x.values {
                    let on_x = x.axis.apply(&target.scenario, xv).map_err(cost)?;
                    for &yv in &y.values {
                        points.push(ScenarioFactors::new(
                            &y.axis.apply(&on_x, yv).map_err(cost)?,
                        ));
                    }
                }
                points
            }
            None => vec![ScenarioFactors::new(&target.scenario)],
        };
        let t4 = Instant::now();
        for factors in &points {
            std::hint::black_box(landscape.min_cost_cell_with(factors, self.backend));
        }
        let t5 = Instant::now();
        trace.record("core.param", &request.id, root, t4, t5);
        r.param_s = (t5 - t4).as_secs_f64();
        r.param_points = points.len() as u64;
        r.frontier = axes.is_some();
        Ok(())
    }
}

/// Replays `warm` (untimed, to reach the daemon's cache state) and then
/// `measured` through both engines.
///
/// # Errors
///
/// When a line fails in-process that the daemon answered.
pub fn replay(
    priming: &[Request],
    warm: &[Unit],
    measured: &[Unit],
    trace: &mut Trace,
) -> Result<Replay, String> {
    let mut replayer = Replayer::new();
    for request in priming.iter().chain(warm.iter().flatten()) {
        replayer.replay(request, false, trace)?;
    }
    let before = replayer.engine.stats().cells_per_worker;
    let mut out = Replay::default();
    for request in measured.iter().flatten() {
        if let Some(r) = replayer.replay(request, true, trace)? {
            out.requests.push(r);
        }
    }
    out.cells_per_worker = replayer
        .engine
        .stats()
        .cells_per_worker
        .iter()
        .zip(&before)
        .map(|(after, before)| after - before)
        .collect();
    Ok(out)
}
