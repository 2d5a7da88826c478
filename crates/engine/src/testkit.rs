//! Wire-protocol line builders shared by test harnesses.
//!
//! The wire error-path suites (`crates/engine/tests/wire_errors.rs`), the
//! pipeline tests and the `zeroconf serve` socket harness all drive
//! sessions with the same JSON-lines requests; these builders keep the
//! fixture shapes in one place so a schema change updates every harness
//! at once. Everything here is plain string assembly — no engine state,
//! no panics — and every versioned frame interpolates
//! [`WIRE_VERSION`](crate::wire::WIRE_VERSION) rather than respelling it
//! (the `const-drift` audit rule holds for this module like any other).

use crate::wire::WIRE_VERSION;

/// A syntactically broken frame: truncated mid-object. Parsers must
/// answer it with an `error` line and keep the session alive.
pub const MALFORMED_FRAME: &str = "{\"id\":\"broken\",\"scenario\":";

/// A frame carrying a protocol version this build does not speak.
#[must_use]
pub fn unsupported_version_line(id: &str) -> String {
    format!(
        "{{\"v\":{},\"id\":\"{id}\",\"cancel\":\"x\"}}",
        WIRE_VERSION + 1
    )
}

/// A well-formed frame whose verb key no dispatcher knows.
#[must_use]
pub fn unknown_verb_line(id: &str) -> String {
    format!("{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"frobnicate\":true}}")
}

/// A small sweep over an explicit `r` list (exponential reply time,
/// `q = 0.5` — the fixture scenario the session tests standardize on).
#[must_use]
pub fn sweep_line(id: &str, n_max: u32, rs: &[f64]) -> String {
    let r_list = rs
        .iter()
        .map(|r| format!("{r:?}"))
        .collect::<Vec<String>>()
        .join(",");
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
         \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
         \"grid\":{{\"n_max\":{n_max},\"r\":[{r_list}]}}}}"
    )
}

/// A deliberately expensive sweep (dense linspace grid) for cancellation
/// and drain-under-load tests that need requests to still be in flight
/// when the next event lands.
#[must_use]
pub fn heavy_sweep_line(id: &str, n_max: u32, r_points: usize) -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
         \"reply_time\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":10.0,\"delay\":1.0}}}},\
         \"grid\":{{\"n_max\":{n_max},\"r_min\":0.1,\"r_max\":30.0,\"r_points\":{r_points}}}}}"
    )
}

/// Reply-time components of a [`slow_sweep_line`]: each π-table entry
/// costs one CDF evaluation per component.
const SLOW_COMPONENTS: usize = 2000;

/// `r` columns of a [`slow_sweep_line`].
const SLOW_R_POINTS: usize = 2000;

/// A cold sweep that outlasts any disconnect or admission round trip by
/// orders of magnitude, for tests that need requests still in flight
/// when the next event lands. Its reply time mixes 2000 exponentials, so
/// each cell costs thousands of CDF evaluations: on a 2-CPU host the
/// 64 × 2000 grid took 1.7 s in a release build and 12 s in a debug
/// build. A cancellation lands at the next chunk boundary, within a
/// quarter of that. `salt` shifts every rate, so sweeps with different
/// salts share no π-table. The line is about 170 KB.
#[must_use]
pub fn slow_sweep_line(id: &str, salt: u32) -> String {
    let components = (0..SLOW_COMPONENTS)
        .map(|k| {
            let rate = 10.0 + f64::from(salt) + k as f64 * 1e-3;
            format!(
                "{{\"weight\":1.0,\"dist\":{{\"kind\":\"exponential\",\"loss\":1e-6,\"rate\":{rate:?},\"delay\":1.0}}}}"
            )
        })
        .collect::<Vec<String>>()
        .join(",");
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"scenario\":{{\"q\":0.5,\"probe_cost\":2.0,\"error_cost\":1e6,\
         \"reply_time\":{{\"kind\":\"mixture\",\"components\":[{components}]}}}},\
         \"grid\":{{\"n_max\":64,\"r_min\":0.1,\"r_max\":30.0,\"r_points\":{SLOW_R_POINTS}}}}}"
    )
}

/// A rescore of `of` under a changed collision cost.
#[must_use]
pub fn rescore_line(id: &str, of: &str, error_cost: f64) -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\
         \"rescore\":{{\"of\":\"{of}\",\"error_cost\":{error_cost:?}}}}}"
    )
}

/// A cancellation of the in-flight request `of`.
#[must_use]
pub fn cancel_request_line(id: &str, of: &str) -> String {
    format!("{{\"v\":{WIRE_VERSION},\"id\":\"{id}\",\"cancel\":\"{of}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{parse_json, parse_request_line, WireRequest};

    #[test]
    fn builders_produce_decodable_frames() {
        let sweep = sweep_line("s1", 3, &[0.5, 1.0]);
        assert!(matches!(
            parse_request_line(&sweep),
            Ok(WireRequest::Sweep { .. })
        ));
        let heavy = heavy_sweep_line("h", 16, 200);
        let WireRequest::Sweep { request, .. } = parse_request_line(&heavy).unwrap() else {
            panic!("heavy sweep decodes as a sweep");
        };
        assert_eq!(request.grid.r_values.len(), 200);
        let slow = slow_sweep_line("e", 1);
        let WireRequest::Sweep { request, .. } = parse_request_line(&slow).unwrap() else {
            panic!("slow sweep decodes as a sweep");
        };
        assert_eq!(request.grid.cells(), 64 * SLOW_R_POINTS);
        assert_ne!(slow, slow_sweep_line("e", 2));
        assert!(matches!(
            parse_request_line(&rescore_line("s2", "s1", 1e9)),
            Ok(WireRequest::Rescore { .. })
        ));
        assert!(matches!(
            parse_request_line(&cancel_request_line("c", "s1")),
            Ok(WireRequest::Cancel { .. })
        ));
    }

    #[test]
    fn broken_frames_fail_as_intended() {
        assert!(parse_json(MALFORMED_FRAME).is_err());
        let err = parse_request_line(&unknown_verb_line("u")).unwrap_err();
        assert!(err.message.contains("unknown request verb"), "{err}");
        let err = parse_request_line(&unsupported_version_line("v")).unwrap_err();
        assert!(
            err.message.contains("unsupported protocol version"),
            "{err}"
        );
    }
}
