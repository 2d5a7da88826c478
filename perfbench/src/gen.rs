//! The seeded load generator: every request line the daemon receives.
//!
//! Lines are a pure function of `(workload, seed, unit index)`, so a run
//! can be replayed in-process (the traced run does) and two runs on one
//! seed send byte-identical traffic. A *unit* is what the load loop sends
//! at once: one request for the closed loops, one pipelined session of
//! four requests for `open-mixed`.

use zeroconf_cost::kernel::ScenarioFactors;
use zeroconf_cost::param::ParamLandscape;
use zeroconf_engine::wire::{parse_request_line, WireRequest, WIRE_VERSION};
use zeroconf_rng::{Rng, SeedableRng, Xoshiro256PlusPlus};

/// The benchmark's workloads. `BENCHMARK.json` records why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, 1 connection: warm 32×100 sweeps from a primed pool.
    WarmSweep,
    /// Closed loop, 1 connection: inline 64×200 calibrations, each with a
    /// reply-time distribution not seen before.
    ColdCalibrate,
    /// Open loop, 2 connections: pipelined sweep → rescore, frontier,
    /// calibrate sessions at a fixed rate.
    OpenMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmSweep,
        Workload::ColdCalibrate,
        Workload::OpenMixed,
    ];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSweep => "warm-sweep",
            Workload::ColdCalibrate => "cold-calibrate",
            Workload::OpenMixed => "open-mixed",
        }
    }

    /// Parses a command-line workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which verb a request line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// A full sweep.
    Sweep,
    /// A rescore of an earlier sweep.
    Rescore,
    /// A frontier anchored at an earlier sweep.
    Frontier,
    /// A calibration, inline or anchored at an earlier sweep.
    Calibrate,
}

impl Verb {
    /// Short label used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verb::Sweep => "sweep",
            Verb::Rescore => "rescore",
            Verb::Frontier => "frontier",
            Verb::Calibrate => "calibrate",
        }
    }
}

/// One generated request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The wire id (unique within a run).
    pub id: String,
    /// The full request line, without the trailing newline.
    pub line: String,
    /// The verb the line carries.
    pub verb: Verb,
    /// Grid cells the request covers (for calibrate and frontier: the
    /// cells of the statistic's grid).
    pub cells: u64,
}

/// One unit of load: a single request, or a pipelined session.
pub type Unit = Vec<Request>;

/// Sweep grid of `warm-sweep`: 32 probe counts × 100 listening periods.
pub const WARM_GRID: (u32, usize) = (32, 100);
/// Calibration grid of `cold-calibrate`: 64 × 200.
pub const COLD_GRID: (u32, usize) = (64, 200);
/// Sweep grid of an `open-mixed` session: 16 × 50.
pub const MIXED_GRID: (u32, usize) = (16, 50);
/// Values per frontier axis in an `open-mixed` session (32 × 32 points).
pub const FRONTIER_AXIS: usize = 32;
/// Scenarios in the warm pools of `warm-sweep` and `open-mixed`.
pub const POOL: usize = 4;
/// Every how many `open-mixed` sessions one uses a new distribution.
pub const NEW_DIST_EVERY: usize = 4;

/// A generated scenario and grid, in wire form.
#[derive(Debug, Clone)]
struct Model {
    /// The economic parameters: `"hosts":…,"probe_cost":…,"error_cost":…`.
    economics: String,
    /// The reply-time distribution, which with `r` keys the daemon's π-tables.
    reply_time: String,
    n_max: u32,
    r: Vec<f64>,
}

impl Model {
    fn scenario(&self) -> String {
        format!("{{{},\"reply_time\":{}}}", self.economics, self.reply_time)
    }

    /// The same distribution and grid under new economic parameters: a
    /// sweep of it finds every π-table of the original in the cache, but
    /// its answer has other numbers to encode.
    fn reprice(&self, rng: &mut Xoshiro256PlusPlus) -> Model {
        Model {
            economics: economics(rng),
            ..self.clone()
        }
    }

    fn grid(&self) -> String {
        format!("{{\"n_max\":{},\"r\":{}}}", self.n_max, list(&self.r))
    }

    fn sweep_line(&self, id: &str) -> String {
        format!(
            "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"scenario\":{},\"grid\":{}}}",
            self.scenario(),
            self.grid()
        )
    }

    fn cells(&self) -> u64 {
        u64::from(self.n_max) * self.r.len() as u64
    }
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(","))
}

/// The seeded request source for one workload.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    stream: u64,
    pool: Vec<Model>,
}

impl Generator {
    /// Builds the generator (and its warm pool) for `workload` on `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
        let stream = rng.gen::<u64>();
        let pool = match workload {
            Workload::WarmSweep => (0..POOL)
                .map(|_| model(&mut rng, WARM_GRID, false))
                .collect(),
            Workload::ColdCalibrate => Vec::new(),
            Workload::OpenMixed => (0..POOL)
                .map(|_| model(&mut rng, MIXED_GRID, false))
                .collect(),
        };
        Generator {
            workload,
            stream,
            pool,
        }
    }

    /// The workload this generator feeds.
    #[must_use]
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Requests sent (untimed) before measurement: the warm pool's sweeps,
    /// or for `cold-calibrate` enough calibrations to fill the daemon's
    /// 1024-table π cache, so eviction runs from the first timed request.
    ///
    /// # Errors
    ///
    /// When no answerable calibration target is found (see [`Generator::unit`]).
    pub fn priming(&self) -> Result<Vec<Request>, String> {
        match self.workload {
            Workload::WarmSweep | Workload::OpenMixed => Ok(self
                .pool
                .iter()
                .enumerate()
                .map(|(k, m)| Request {
                    id: format!("p{k}"),
                    line: m.sweep_line(&format!("p{k}")),
                    verb: Verb::Sweep,
                    cells: m.cells(),
                })
                .collect()),
            Workload::ColdCalibrate => {
                let fill = 1024usize.div_ceil(COLD_GRID.1) + 1;
                (0..fill)
                    .map(|k| self.cold(&format!("p{k}"), u64::MAX - k as u64))
                    .collect()
            }
        }
    }

    /// Unit `index` of the timed stream.
    ///
    /// # Errors
    ///
    /// When 64 seeded attempts find no calibration target with a positive
    /// finite `E*` (never on the committed parameter ranges; a seed that
    /// hit it would fail loudly rather than send an unanswerable line).
    pub fn unit(&self, index: u64) -> Result<Unit, String> {
        match self.workload {
            Workload::WarmSweep => {
                let mut rng = self.rng(index);
                let m = self.pool[rng.gen_range(0..POOL)].reprice(&mut rng);
                let id = format!("w{index}");
                Ok(vec![Request {
                    line: m.sweep_line(&id),
                    id,
                    verb: Verb::Sweep,
                    cells: m.cells(),
                }])
            }
            Workload::ColdCalibrate => Ok(vec![self.cold(&format!("c{index}"), index)?]),
            Workload::OpenMixed => self.session(index),
        }
    }

    /// `count` consecutive units starting at `first`.
    ///
    /// # Errors
    ///
    /// As for [`Generator::unit`].
    pub fn units(&self, first: u64, count: u64) -> Result<Vec<Unit>, String> {
        (first..first + count).map(|i| self.unit(i)).collect()
    }

    fn rng(&self, index: u64) -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(self.stream ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn cold(&self, id: &str, index: u64) -> Result<Request, String> {
        let mut rng = self.rng(index);
        let weibull = rng.gen_bool(0.25);
        let m = model(&mut rng, COLD_GRID, weibull);
        let (n, r) = answerable_target(&mut rng, &m)?;
        Ok(Request {
            id: id.to_owned(),
            line: format!(
                "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"scenario\":{},\"grid\":{},\"calibrate\":{{\"n\":{n},\"r\":{r:?}}}}}",
                m.scenario(),
                m.grid()
            ),
            verb: Verb::Calibrate,
            cells: m.cells(),
        })
    }

    fn session(&self, index: u64) -> Result<Unit, String> {
        let mut rng = self.rng(index);
        let m = if index % NEW_DIST_EVERY as u64 == NEW_DIST_EVERY as u64 - 1 {
            model(&mut rng, MIXED_GRID, false)
        } else {
            self.pool[rng.gen_range(0..POOL)].reprice(&mut rng)
        };
        let base = format!("s{index}");
        let (n, r) = answerable_target(&mut rng, &m)?;
        let error_cost = log_uniform(&mut rng, 10.0, 35.0);
        let e0 = rng.gen_range(8.0..16.0);
        let de = rng.gen_range(0.3..0.6);
        let x: Vec<f64> = (0..FRONTIER_AXIS)
            .map(|k| 10f64.powf(e0 + k as f64 * de))
            .collect();
        let c0 = rng.gen_range(0.5..1.0);
        let dc = rng.gen_range(0.1..0.3);
        let y: Vec<f64> = (0..FRONTIER_AXIS).map(|k| c0 + k as f64 * dc).collect();
        let cells = m.cells();
        let request = |suffix: &str, verb: Verb, body: String| Request {
            id: format!("{base}.{suffix}"),
            line: format!("{{\"v\":{WIRE_VERSION},\"id\":\"{base}.{suffix}\",{body}}}"),
            verb,
            cells,
        };
        Ok(vec![
            Request {
                id: base.clone(),
                line: m.sweep_line(&base),
                verb: Verb::Sweep,
                cells,
            },
            request(
                "rescore",
                Verb::Rescore,
                format!("\"rescore\":{{\"of\":\"{base}\",\"error_cost\":{error_cost:?}}}"),
            ),
            request(
                "frontier",
                Verb::Frontier,
                format!(
                    "\"frontier\":{{\"of\":\"{base}\",\"x\":{{\"axis\":\"error_cost\",\"values\":{}}},\"y\":{{\"axis\":\"probe_cost\",\"values\":{}}}}}",
                    list(&x),
                    list(&y)
                ),
            ),
            request(
                "calibrate",
                Verb::Calibrate,
                format!("\"calibrate\":{{\"of\":\"{base}\",\"n\":{n},\"r\":{r:?}}}"),
            ),
        ])
    }
}

/// The 1-cell sweep used to time set-up and the idle round-trip floor.
#[must_use]
pub fn one_cell_line(id: &str) -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"scenario\":{{\"hosts\":1000,\"probe_cost\":2.0,\"error_cost\":1e35,\"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-15,\"rate\":10.0,\"delay\":1.0}}}},\"grid\":{{\"n_max\":1,\"r\":[1.0]}}}}"
    )
}

fn log_uniform(rng: &mut Xoshiro256PlusPlus, lo: f64, hi: f64) -> f64 {
    10f64.powf(rng.gen_range(lo..hi))
}

/// A seeded scenario over a seeded explicit grid. Listening periods are
/// multiples of 1e-4 so every `r` prints short and parses back to the
/// same bits on both sides of the socket.
fn model(rng: &mut Xoshiro256PlusPlus, (n_max, points): (u32, usize), weibull: bool) -> Model {
    let economics = economics(rng);
    let delay = rng.gen_range(0.5..1.5);
    let reply_time = if weibull {
        format!(
            "{{\"kind\":\"weibull\",\"mass\":{:?},\"shape\":{:?},\"scale\":{:?},\"delay\":{delay:?}}}",
            1.0 - log_uniform(rng, -12.0, -6.0),
            rng.gen_range(0.8..2.5),
            rng.gen_range(0.05..0.3),
        )
    } else {
        format!(
            "{{\"kind\":\"exponential\",\"loss\":{:?},\"rate\":{:?},\"delay\":{delay:?}}}",
            log_uniform(rng, -15.0, -6.0),
            rng.gen_range(5.0..15.0),
        )
    };
    let first = rng.gen_range(1000u64..3000);
    let step = rng.gen_range(60u64..120) * 200 / points as u64;
    let r = (0..points as u64)
        .map(|k| (first + k * step) as f64 / 10_000.0)
        .collect();
    Model {
        economics,
        reply_time,
        n_max,
        r,
    }
}

/// Seeded economic parameters of a scenario, in wire form.
fn economics(rng: &mut Xoshiro256PlusPlus) -> String {
    let hosts = rng.gen_range(500u32..2000);
    let probe_cost = rng.gen_range(1.0..4.0);
    let error_cost = log_uniform(rng, 15.0, 35.0);
    format!("\"hosts\":{hosts},\"probe_cost\":{probe_cost:?},\"error_cost\":{error_cost:?}")
}

/// Picks a calibration target `(n, r)` whose closed-form `E*` is positive
/// and finite, by the engine's own central difference over the target's
/// grid neighbours — evaluated here with the core crate's reference
/// statistic, so the daemon is never sent a target it must refuse.
fn answerable_target(rng: &mut Xoshiro256PlusPlus, m: &Model) -> Result<(u32, f64), String> {
    let scenario = match parse_request_line(&m.sweep_line("probe")) {
        Ok(WireRequest::Sweep { request, .. }) => request.scenario,
        Ok(_) => return Err("generated sweep decoded as another verb".to_owned()),
        Err(e) => return Err(format!("generated sweep does not decode: {e}")),
    };
    let zero_e = ScenarioFactors::new(
        &scenario
            .with_error_cost(0.0)
            .map_err(|e| format!("zero-E scenario: {e}"))?,
    );
    for _ in 0..64 {
        let n = rng.gen_range(1..m.n_max.min(8) + 1);
        let k = rng.gen_range(1..m.r.len() - 1);
        let stat = ParamLandscape::build(&scenario, n, &[m.r[k - 1], m.r[k + 1]])
            .map_err(|e| format!("target statistic: {e}"))?;
        let d_alpha = stat.cost_at(&zero_e, 1, n) - stat.cost_at(&zero_e, 0, n);
        let d_err = stat.error_at(&zero_e, 1, n) - stat.error_at(&zero_e, 0, n);
        let e_star = -d_alpha / d_err;
        if e_star.is_finite() && e_star > 0.0 {
            return Ok((n, m.r[k]));
        }
    }
    Err("no answerable calibration target in 64 seeded attempts".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(workload: Workload, seed: u64) -> Vec<String> {
        let g = Generator::new(workload, seed);
        let mut out: Vec<String> = g.priming().unwrap().into_iter().map(|r| r.line).collect();
        for unit in g.units(0, 8).unwrap() {
            out.extend(unit.into_iter().map(|r| r.line));
        }
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_lines_and_another_seed_does_not() {
        for workload in Workload::ALL {
            assert_eq!(lines(workload, 7), lines(workload, 7), "{workload:?}");
            assert_ne!(lines(workload, 7), lines(workload, 8), "{workload:?}");
        }
    }

    #[test]
    fn units_are_independent_of_generation_order() {
        let g = Generator::new(Workload::OpenMixed, 3);
        let forward = g.units(0, 6).unwrap();
        let single = g.unit(4).unwrap();
        assert_eq!(forward[4], single);
    }

    #[test]
    fn every_line_decodes_with_the_promised_shape() {
        for workload in Workload::ALL {
            let g = Generator::new(workload, 11);
            for unit in g.units(0, 16).unwrap() {
                for request in unit {
                    let decoded = parse_request_line(&request.line)
                        .unwrap_or_else(|e| panic!("{}: {e}", request.line));
                    let (verb, cells) = match decoded {
                        WireRequest::Sweep { request: r, .. } => (Verb::Sweep, r.grid.cells()),
                        WireRequest::Rescore { .. } => (Verb::Rescore, 0),
                        WireRequest::Frontier { .. } => (Verb::Frontier, 0),
                        WireRequest::Calibrate { target, .. } => match target {
                            zeroconf_engine::wire::WorkTarget::Inline { grid, .. } => {
                                (Verb::Calibrate, grid.cells())
                            }
                            zeroconf_engine::wire::WorkTarget::Base(_) => (Verb::Calibrate, 0),
                        },
                        WireRequest::Cancel { .. } => panic!("no cancels are generated"),
                    };
                    assert_eq!(verb, request.verb);
                    if cells > 0 {
                        assert_eq!(cells as u64, request.cells);
                    }
                }
            }
        }
    }

    /// The part of a sweep line that keys the daemon's π-tables: the
    /// reply-time distribution and the grid.
    fn tables_of(line: &str) -> String {
        line[line.find("\"reply_time\"").unwrap()..].to_owned()
    }

    #[test]
    fn open_mixed_uses_a_new_distribution_in_one_session_of_four() {
        let g = Generator::new(Workload::OpenMixed, 5);
        let pooled: Vec<String> = g
            .priming()
            .unwrap()
            .iter()
            .map(|r| tables_of(&r.line))
            .collect();
        for (i, unit) in g.units(0, 16).unwrap().into_iter().enumerate() {
            let fresh = !pooled.contains(&tables_of(&unit[0].line));
            assert_eq!(
                fresh,
                i % NEW_DIST_EVERY == NEW_DIST_EVERY - 1,
                "session {i}"
            );
        }
    }

    #[test]
    fn warm_sweeps_reuse_primed_tables_under_new_economics() {
        let g = Generator::new(Workload::WarmSweep, 5);
        let primed: Vec<String> = g.priming().unwrap().into_iter().map(|r| r.line).collect();
        let pooled: Vec<String> = primed.iter().map(|l| tables_of(l)).collect();
        let scenario_of = |line: &str| line[line.find("\"scenario\"").unwrap()..].to_owned();
        for unit in g.units(0, 16).unwrap() {
            assert!(pooled.contains(&tables_of(&unit[0].line)));
            assert!(!primed
                .iter()
                .any(|p| scenario_of(p) == scenario_of(&unit[0].line)));
        }
    }
}
