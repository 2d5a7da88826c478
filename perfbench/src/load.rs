//! The load loops: a closed loop on one connection and an open loop at a
//! fixed session rate on two, both checking every answer's shape and
//! keeping a seeded sample of answers for bit-exact verification.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use zeroconf_client::{parse_json, Client, Json};

use crate::gen::{Generator, Request, Unit, Verb};
use crate::steal::StealLog;
use crate::trace::Trace;

/// About how long a measurement window lasts, seconds: short, so a
/// burst of host noise moves few windows and their median not at all,
/// yet ten of `/proc/stat`'s 10 ms ticks long, so its steal share reads.
pub const WINDOW_SECONDS: f64 = 0.1;
/// Fewest requests per measurement window.
pub const WINDOW_SAMPLES: usize = 8;

/// One unit in this many is kept for bit-exact verification.
pub const SAMPLE_EVERY: u64 = 16;
/// Units generated per refill of the closed loop's queue.
const CHUNK: u64 = 64;
/// Failure messages kept for the report.
const MAX_MESSAGES: usize = 8;

/// Request and response lines of one sampled unit.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// The unit's request lines, in send order.
    pub lines: Vec<String>,
    /// `(id, response line)` for every answered request of the unit.
    pub responses: Vec<(String, String)>,
}

/// Latency and rates over one window of consecutive completions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Requests in the window.
    pub samples: usize,
    /// Mean latency, seconds; `INFINITY` if a request failed.
    pub mean: f64,
    /// Answered requests per second.
    pub rps: f64,
    /// Grid cells of answered requests per second.
    pub cells_per_s: f64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// window, when known.
    pub steal: Option<f64>,
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// When it ended, in seconds of phase time (generator work excluded).
    pub at: f64,
    /// Latency in seconds; `INFINITY` for a failed request.
    pub latency: f64,
    /// Grid cells covered; 0 for a failed request.
    pub cells: u64,
    /// The request's verb, when known.
    pub verb: Option<Verb>,
    /// When it ended.
    pub done: Instant,
}

/// What a load phase measured.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Every request's outcome, in completion order per connection.
    pub outcomes: Vec<Outcome>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed, were refused, or failed a check.
    pub failed: u64,
    /// How late each send ran against when it was due, in seconds.
    pub send_lag: Vec<f64>,
    /// Units kept for bit-exact verification.
    pub samples: Vec<Sample>,
    /// The first few failure messages.
    pub messages: Vec<String>,
    /// Units consumed from the generator.
    pub units: u64,
    origin: Option<Instant>,
    paused: Duration,
}

impl LoadResult {
    /// Requests answered without failure.
    #[must_use]
    pub fn answered(&self) -> u64 {
        self.attempted.saturating_sub(self.failed)
    }

    /// Latencies in seconds, `INFINITY` for failures.
    #[must_use]
    pub fn latencies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency).collect()
    }

    /// Splits the phase into windows of equal request counts, in
    /// completion order: one per [`WINDOW_SECONDS`] of the phase, but
    /// none with fewer than [`WINDOW_SAMPLES`] requests. Reporting the median over windows keeps a burst of
    /// host noise in a few windows from moving the whole run's figures.
    /// `steal` gives each window its share of stolen CPU time.
    #[must_use]
    pub fn windows(&self, steal: Option<&StealLog>) -> Vec<Window> {
        let mut outcomes = self.outcomes.clone();
        outcomes.sort_by(|a, b| a.at.total_cmp(&b.at));
        let seconds = outcomes.last().map_or(0.0, |o| o.at);
        let count = (outcomes.len() / WINDOW_SAMPLES)
            .min((seconds / WINDOW_SECONDS) as usize)
            .max(1);
        let size = outcomes.len() / count;
        let mut start = 0.0;
        let mut since = outcomes.first().map(|o| o.done);
        let mut out = Vec::with_capacity(count);
        for k in 0..count {
            let end = if k + 1 == count {
                outcomes.len()
            } else {
                (k + 1) * size
            };
            let window = &outcomes[k * size..end];
            let stop = window.last().map_or(start, |o| o.at);
            let span = (stop - start).max(f64::MIN_POSITIVE);
            start = stop;
            let until = window.last().map(|o| o.done);
            let stolen = match (steal, since, until) {
                (Some(log), Some(from), Some(to)) => log.share(from, to),
                _ => None,
            };
            since = until;
            let answered = window.iter().filter(|o| o.latency.is_finite()).count();
            out.push(Window {
                samples: window.len(),
                mean: window.iter().map(|o| o.latency).sum::<f64>() / window.len() as f64,
                rps: answered as f64 / span,
                cells_per_s: window.iter().map(|o| o.cells).sum::<u64>() as f64 / span,
                steal: stolen,
            });
        }
        out
    }

    /// Phase time so far, in seconds: wall time less generator work.
    fn clock(&self) -> f64 {
        self.origin.map_or(0.0, |o| {
            o.elapsed().saturating_sub(self.paused).as_secs_f64()
        })
    }

    /// Counts one failed request.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.outcomes.push(Outcome {
            at: self.clock(),
            latency: f64::INFINITY,
            cells: 0,
            verb: None,
            done: Instant::now(),
        });
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    fn merge(&mut self, other: LoadResult) {
        self.outcomes.extend(other.outcomes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.send_lag.extend(other.send_lag);
        self.samples.extend(other.samples);
        for m in other.messages {
            if self.messages.len() < MAX_MESSAGES {
                self.messages.push(m);
            }
        }
        self.units += other.units;
    }

    fn answer(&mut self, request: &Request, latency: f64) {
        self.outcomes.push(Outcome {
            at: self.clock(),
            latency,
            cells: request.cells,
            verb: Some(request.verb),
            done: Instant::now(),
        });
    }
}

/// The windows in which the hypervisor stole no more CPU time than in the
/// calmest tenth of them, in completion order; all of them when a
/// window's steal is unknown. Steal only ever slows a window, and on a
/// shared host its level drifts between runs far more than any change
/// worth gating, so the calm windows measure the program and the rest
/// measure its neighbours. Ties are all kept, so a calm run keeps windows
/// from its whole length and not only from its start.
#[must_use]
pub fn calm(windows: &[Window]) -> Vec<Window> {
    let Some(mut steal) = windows
        .iter()
        .map(|w| w.steal)
        .collect::<Option<Vec<f64>>>()
    else {
        return windows.to_vec();
    };
    steal.sort_by(f64::total_cmp);
    let Some(&limit) = steal.get(windows.len().div_ceil(10).saturating_sub(1)) else {
        return Vec::new();
    };
    windows
        .iter()
        .filter(|w| w.steal.is_some_and(|s| s <= limit))
        .copied()
        .collect()
}

/// Checks one answer's shape: no `error` member, and the payload the
/// verb promises — exactly the grid's cell count for a sweep or rescore.
///
/// # Errors
///
/// A description of the first problem.
pub fn check_shape(request: &Request, json: &Json) -> Result<(), String> {
    if let Some(error) = json.get("error") {
        return Err(format!("{} answered with error {error:?}", request.id));
    }
    match json.get("id") {
        Some(Json::Str(id)) if *id == request.id => {}
        other => return Err(format!("{} answered with id {other:?}", request.id)),
    }
    let ok = match request.verb {
        Verb::Sweep | Verb::Rescore => match json.get("cells") {
            Some(Json::Arr(cells)) => cells.len() as u64 == request.cells,
            _ => false,
        },
        Verb::Calibrate => matches!(
            json.get("calibrate").and_then(|c| c.get("error_cost")),
            Some(Json::Num(e)) if e.is_finite() && *e > 0.0
        ),
        Verb::Frontier => matches!(
            json.get("frontier").and_then(|f| f.get("points")),
            Some(Json::Arr(points)) if !points.is_empty()
        ),
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} ({}) answer lacks its payload",
            request.id,
            request.verb.name()
        ))
    }
}

/// One request/answer exchange on a connection with nothing else in
/// flight. Traced: spans for the send, the wait for the line and its
/// decode, under a root span for the request.
fn exchange(
    client: &mut Client,
    request: &Request,
    trace: Option<&mut Trace>,
) -> Result<(Json, String), String> {
    let Some(trace) = trace else {
        client
            .send_raw(&request.line)
            .map_err(|e| format!("{}: send: {e}", request.id))?;
        let response = client
            .wait(&request.id)
            .map_err(|e| format!("{}: wait: {e}", request.id))?;
        return Ok((response.json, response.line));
    };
    let root = trace.reserve();
    let t0 = Instant::now();
    client
        .send_raw(&request.line)
        .map_err(|e| format!("{}: send: {e}", request.id))?;
    let t1 = Instant::now();
    let line = client
        .next_line()
        .map_err(|e| format!("{}: wait: {e}", request.id))?
        .ok_or_else(|| format!("{}: daemon closed the connection", request.id))?;
    let t2 = Instant::now();
    let json = parse_json(&line).map_err(|e| format!("{}: decode: {e}", request.id))?;
    let t3 = Instant::now();
    trace.record("client.send", &request.id, root, t0, t1);
    trace.record("client.wait", &request.id, root, t1, t2);
    trace.record("client.decode", &request.id, root, t2, t3);
    trace.record_as(root, "request", &request.id, 0, t0, t3);
    Ok((json, line))
}

/// Drives a closed loop on one connection: each unit's single request
/// is sent when the previous answer has been handled, for `seconds`
/// of wall time — longer, up to three times that, while fewer than
/// `min_requests` have ended, so a slow host still yields a p99. Latency
/// runs from the send call to the decoded answer.
///
/// # Errors
///
/// Only generator failures; request failures are counted in the result.
pub fn closed_loop(
    client: &mut Client,
    gen: &Generator,
    first_unit: u64,
    seconds: f64,
    min_requests: usize,
    mut trace: Option<&mut Trace>,
) -> Result<LoadResult, String> {
    let mut result = LoadResult::default();
    let mut queue: VecDeque<(u64, Unit)> = VecDeque::new();
    let mut next = first_unit;
    let start = Instant::now();
    result.origin = Some(start);
    let mut ready = start;
    while result.clock() < seconds
        || (result.outcomes.len() < min_requests && result.clock() < 3.0 * seconds)
    {
        if queue.is_empty() {
            let t = Instant::now();
            for (k, unit) in gen.units(next, CHUNK)?.into_iter().enumerate() {
                queue.push_back((next + k as u64, unit));
            }
            next += CHUNK;
            result.paused += t.elapsed();
            ready = Instant::now();
        }
        let Some((index, unit)) = queue.pop_front() else {
            break;
        };
        result.units += 1;
        for request in &unit {
            result.attempted += 1;
            let sent = Instant::now();
            result.send_lag.push((sent - ready).as_secs_f64());
            let exchanged = exchange(client, request, trace.as_deref_mut());
            let done = Instant::now();
            match exchanged {
                Ok((json, line)) => {
                    let checked = Instant::now();
                    match check_shape(request, &json) {
                        Ok(()) => result.answer(request, (done - sent).as_secs_f64()),
                        Err(e) => result.fail(e),
                    }
                    if index % SAMPLE_EVERY == 0 {
                        result.samples.push(Sample {
                            lines: vec![request.line.clone()],
                            responses: vec![(request.id.clone(), line)],
                        });
                    }
                    result.paused += checked.elapsed();
                }
                Err(e) => {
                    // The connection state is unknown after a failed
                    // exchange; end the phase rather than cascade.
                    result.fail(e);
                    return Ok(result);
                }
            }
            ready = Instant::now();
        }
    }
    Ok(result)
}

/// A request awaiting its answer in the open loop.
struct Outstanding {
    request: Request,
    due: Instant,
    sample: Option<usize>,
    root: u64,
    sent: Instant,
}

/// Drives the open loop: session `k` of `units` is due at
/// `start + k / rate` and goes out on connection `k mod clients.len()`,
/// whose thread sends every due session before reading further answers.
/// Latency runs from the session's due time, so a stall shows in the
/// latencies of everything scheduled behind it.
///
/// # Errors
///
/// When a load thread panics.
pub fn open_loop(
    clients: &mut [Client],
    units: &[(u64, Unit)],
    rate: f64,
    traces: Option<&mut [Trace]>,
) -> Result<LoadResult, String> {
    let start = Instant::now() + Duration::from_millis(5);
    let lanes = clients.len();
    let mut traces: Vec<Option<&mut Trace>> = match traces {
        Some(t) => t.iter_mut().map(Some).collect(),
        None => (0..lanes).map(|_| None).collect(),
    };
    let results: Vec<std::thread::Result<LoadResult>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(traces.iter_mut())
            .enumerate()
            .map(|(lane, (client, trace))| {
                let mine: Vec<(Instant, &(u64, Unit))> = units
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| k % lanes == lane)
                    .map(|(k, u)| (start + Duration::from_secs_f64(k as f64 / rate), u))
                    .collect();
                let trace = trace.take();
                scope.spawn(move || open_lane(client, &mine, start, trace))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut total = LoadResult::default();
    for r in results {
        total.merge(r.map_err(|_| "an open-loop thread panicked".to_owned())?);
    }
    Ok(total)
}

fn open_lane(
    client: &mut Client,
    schedule: &[(Instant, &(u64, Unit))],
    start: Instant,
    mut trace: Option<&mut Trace>,
) -> LoadResult {
    let mut result = LoadResult {
        origin: Some(start),
        ..LoadResult::default()
    };
    let mut outstanding: HashMap<String, Outstanding> = HashMap::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        if let Some(&(due, (index, unit))) = schedule.get(next) {
            if now >= due {
                result.units += 1;
                let sample = (index % SAMPLE_EVERY == 0).then(|| {
                    result.samples.push(Sample {
                        lines: unit.iter().map(|r| r.line.clone()).collect(),
                        responses: Vec::new(),
                    });
                    result.samples.len() - 1
                });
                for request in unit {
                    result.attempted += 1;
                    let root = trace.as_deref_mut().map_or(0, Trace::reserve);
                    let t0 = Instant::now();
                    result.send_lag.push((t0 - due).as_secs_f64());
                    if let Err(e) = client.send_raw(&request.line) {
                        result.fail(format!("{}: send: {e}", request.id));
                        continue;
                    }
                    let t1 = Instant::now();
                    if let Some(trace) = trace.as_deref_mut() {
                        trace.record("client.send", &request.id, root, t0, t1);
                    }
                    outstanding.insert(
                        request.id.clone(),
                        Outstanding {
                            request: request.clone(),
                            due,
                            sample,
                            root,
                            sent: t1,
                        },
                    );
                }
                next += 1;
                continue;
            }
            if outstanding.is_empty() {
                std::thread::sleep(due - now);
                continue;
            }
        } else if outstanding.is_empty() {
            break;
        }
        let read = match trace.as_deref_mut() {
            None => client
                .next_response(Instant::now() + crate::daemon::CLIENT_DEADLINE)
                .map(|r| r.map(|r| (r.json, r.line, Instant::now()))),
            Some(_) => client
                .next_line()
                .map(|l| l.map(|l| (Json::Null, l, Instant::now()))),
        };
        let (json, line, received) = match read {
            Ok(Some(x)) => x,
            Ok(None) => {
                fail_outstanding(
                    &mut result,
                    &mut outstanding,
                    "daemon closed the connection",
                );
                break;
            }
            Err(e) => {
                fail_outstanding(&mut result, &mut outstanding, &format!("read: {e}"));
                break;
            }
        };
        let (json, done) = if let Some(trace) = trace.as_deref_mut() {
            match parse_json(&line) {
                Ok(json) => {
                    let done = Instant::now();
                    let id = response_id(&json);
                    if let Some(o) = outstanding.get(&id) {
                        trace.record("client.wait", &id, o.root, o.sent, received);
                        trace.record("client.decode", &id, o.root, received, done);
                        trace.record_as(o.root, "request", &id, 0, o.due, done);
                    }
                    (json, done)
                }
                Err(e) => {
                    result.fail(format!("undecodable answer: {e}"));
                    continue;
                }
            }
        } else {
            (json, received)
        };
        let id = response_id(&json);
        let Some(o) = outstanding.remove(&id) else {
            result.fail(format!("answer for unknown id {id:?}"));
            continue;
        };
        match check_shape(&o.request, &json) {
            Ok(()) => result.answer(&o.request, (done - o.due).as_secs_f64()),
            Err(e) => result.fail(e),
        }
        if let Some(s) = o.sample {
            result.samples[s].responses.push((id, line));
        }
    }
    result
}

fn response_id(json: &Json) -> String {
    match json.get("id") {
        Some(Json::Str(id)) => id.clone(),
        _ => String::new(),
    }
}

fn fail_outstanding(
    result: &mut LoadResult,
    outstanding: &mut HashMap<String, Outstanding>,
    why: &str,
) {
    for (id, _) in outstanding.drain() {
        result.fail(format!("{id}: {why}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(mean: f64, steal: Option<f64>) -> Window {
        Window {
            samples: 8,
            mean,
            rps: 1.0 / mean,
            cells_per_s: 1.0,
            steal,
        }
    }

    #[test]
    fn calm_keeps_the_tenth_with_the_least_steal_and_every_tie() {
        let steal = |k: usize| Some([0.2, 0.0, 0.4, 0.1][k % 4]);
        let windows: Vec<Window> = (0..20).map(|k| window(k as f64, steal(k))).collect();
        let kept: Vec<f64> = calm(&windows).iter().map(|w| w.mean).collect();
        assert_eq!(kept, [1.0, 5.0, 9.0, 13.0, 17.0]);
        let stormy: Vec<Window> = (0..20)
            .map(|k| window(k as f64, Some(k as f64 / 100.0)))
            .collect();
        let kept: Vec<f64> = calm(&stormy).iter().map(|w| w.mean).collect();
        assert_eq!(kept, [0.0, 1.0]);
    }

    #[test]
    fn calm_keeps_every_window_when_steal_is_unknown() {
        let windows = [
            window(1.0, Some(0.0)),
            window(2.0, None),
            window(3.0, Some(0.1)),
        ];
        assert_eq!(calm(&windows), windows);
    }
}
