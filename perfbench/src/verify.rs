//! Bit-exact verification of sampled answers against an in-process engine.

use std::sync::Arc;

use zeroconf_engine::wire::{parse_json, Json, PipelinedSession};
use zeroconf_engine::{Engine, EngineConfig, PipelineConfig};

use crate::load::Sample;

/// Replays each sample's lines through a fresh in-process session and
/// compares every answer the daemon gave with the one the engine gives,
/// every number by `to_bits`. The per-request `stats` member (timings,
/// cache counters) is the only part left out.
///
/// Returns one message per mismatching answer.
#[must_use]
pub fn verify(samples: &[Sample]) -> Vec<String> {
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }));
    let mut mismatches = Vec::new();
    for sample in samples {
        let mut session =
            PipelinedSession::with_engine(Arc::clone(&engine), PipelineConfig::default());
        let mut expected = Vec::new();
        for line in &sample.lines {
            expected.extend(session.submit_line(line));
            expected.extend(session.drain());
        }
        for (id, got) in &sample.responses {
            let want = expected
                .iter()
                .filter_map(|line| parse_json(line).ok())
                .find(|json| matches!(json.get("id"), Some(Json::Str(s)) if s == id));
            let verdict = match (want, parse_json(got)) {
                (Some(want), Ok(got)) => same_bits(&strip_stats(want), &strip_stats(got)),
                (None, _) => false,
                (_, Err(_)) => false,
            };
            if !verdict {
                mismatches.push(format!("{id}: answer differs from the in-process engine"));
            }
        }
    }
    mismatches
}

fn strip_stats(json: Json) -> Json {
    match json {
        Json::Obj(members) => {
            Json::Obj(members.into_iter().filter(|(k, _)| k != "stats").collect())
        }
        other => other,
    }
}

/// Structural equality with numbers compared by their bits.
#[must_use]
pub fn same_bits(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
        (Json::Arr(xs), Json::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
        }
        (Json::Obj(xs), Json::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
        }
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Generator, Workload};

    #[test]
    fn a_correct_answer_verifies_and_a_one_ulp_change_does_not() {
        let g = Generator::new(Workload::OpenMixed, 2);
        let unit = g.unit(0).unwrap();
        let lines: Vec<String> = unit.iter().map(|r| r.line.clone()).collect();
        let engine = Engine::new(EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        });
        let mut session = PipelinedSession::new(engine, PipelineConfig::default());
        let mut answers = Vec::new();
        for line in &lines {
            answers.extend(session.submit_line(line));
            answers.extend(session.drain());
        }
        let responses: Vec<(String, String)> = unit
            .iter()
            .map(|r| r.id.clone())
            .zip(answers.iter().cloned())
            .collect();
        let good = Sample {
            lines: lines.clone(),
            responses: responses.clone(),
        };
        assert_eq!(verify(&[good]), Vec::<String>::new());

        // Nudge the first cell's mean cost by one ulp.
        let (id, line) = &responses[0];
        let json = parse_json(line).unwrap();
        let Some(Json::Arr(cells)) = json.get("cells") else {
            panic!("sweep answer without cells: {line}");
        };
        let Some(Json::Num(cost)) = cells[0].get("mean_cost") else {
            panic!("cell without mean_cost");
        };
        let nudged = f64::from_bits(cost.to_bits() + 1);
        let bad_line = line.replacen(&format!("{cost:?}"), &format!("{nudged:?}"), 1);
        assert_ne!(&bad_line, line);
        let bad = Sample {
            lines,
            responses: vec![(id.clone(), bad_line)],
        };
        assert_eq!(verify(&[bad]).len(), 1);
    }
}
