//! Server-wide and per-connection counters, and the `stats` wire verb.
//!
//! Two scopes, two ownership models:
//!
//! - [`ServerMetrics`] is shared by the accept loops and every handler
//!   thread, so it is all relaxed atomics. It also mints connection ids
//!   (the `conn` half of the server-side request identity
//!   `conn_id:wire_id` — see DESIGN.md on id namespacing).
//! - [`ConnMetrics`] belongs to exactly one handler thread and is plain
//!   integers; queue/service latency for the connection comes from its
//!   session's [`PipelineStats`](zeroconf_engine::PipelineStats) rather
//!   than being re-measured here.
//!
//! A client asks for a snapshot with the serve-level `stats` verb —
//! `{"v":1,"id":"…","stats":true}` — answered entirely by the handler
//! (the line never reaches the engine session). The response carries
//! three blocks: this connection, the whole server, and the shared
//! engine; the engine block is what lets a client observe that another
//! client's sweep warmed the π-table cache it now hits.

use std::sync::atomic::{AtomicU64, Ordering};

use zeroconf_engine::wire::{Escaped, WIRE_VERSION};

use crate::conn::MAX_LINE_BYTES;
use zeroconf_engine::{EngineStats, PipelineStats};

/// Counters shared by the whole server process.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Connections accepted and handed to a handler thread. Also the
    /// connection-id mint: a connection's id is its accept ordinal.
    pub connections_opened: AtomicU64,
    /// Connections whose handler has finished (any path).
    pub connections_closed: AtomicU64,
    /// Connections refused because the server was at capacity.
    pub connections_rejected: AtomicU64,
    /// Request lines received across all connections.
    pub requests: AtomicU64,
    /// Response lines written across all connections.
    pub responses: AtomicU64,
    /// Requests withdrawn because their connection disconnected while
    /// they were still unanswered.
    pub cancelled_on_disconnect: AtomicU64,
}

impl ServerMetrics {
    /// Mints the next connection id (1-based) and counts the accept.
    pub fn next_connection_id(&self) -> u64 {
        // ORDERING: the fetch_add's atomicity alone makes ids unique;
        // the counter doubles as a statistics tally.
        self.connections_opened.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Connections currently being served.
    #[must_use]
    pub fn open_connections(&self) -> u64 {
        // ORDERING: a gauge derived from two independently updated
        // tallies; momentary skew between them is acceptable (the
        // capacity check tolerates off-by-a-few during churn).
        let opened = self.connections_opened.load(Ordering::Relaxed);
        let closed = self.connections_closed.load(Ordering::Relaxed);
        opened.saturating_sub(closed)
    }
}

/// Counters for one connection, owned by its handler thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConnMetrics {
    /// Non-empty request lines received.
    pub requests: u64,
    /// Response lines written.
    pub responses: u64,
    /// Cancellations: `cancel` verbs received plus requests withdrawn at
    /// disconnect.
    pub cancellations: u64,
    /// Bytes read from the client.
    pub bytes_in: u64,
    /// Bytes written to the client.
    pub bytes_out: u64,
}

/// Everything a `stats` response snapshots, gathered by the handler.
pub struct StatsSnapshot<'a> {
    /// The connection's id (the `conn` half of `conn_id:wire_id`).
    pub conn_id: u64,
    /// The connection's own counters.
    pub conn: ConnMetrics,
    /// Unanswered requests currently admitted for this connection.
    pub pending: usize,
    /// The connection's pipeline counters (queue/service latency).
    pub pipeline: PipelineStats,
    /// The server-wide counters.
    pub server: &'a ServerMetrics,
    /// The global in-flight budget size.
    pub budget_capacity: usize,
    /// The shared engine's lifetime counters.
    pub engine: EngineStats,
}

/// Renders the response line for a `stats` verb with request id `id`.
#[must_use]
pub fn stats_response_line(id: &str, snapshot: &StatsSnapshot<'_>) -> String {
    let c = snapshot.conn;
    let p = snapshot.pipeline;
    let s = snapshot.server;
    let e = &snapshot.engine;
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"{}\",\"stats\":{{\
         \"conn\":{{\"id\":{},\"requests\":{},\"responses\":{},\"cancellations\":{},\
         \"bytes_in\":{},\"bytes_out\":{},\"pending\":{},\
         \"queue_ns_total\":{},\"queue_ns_max\":{},\"service_ns_total\":{},\"service_ns_max\":{}}},\
         \"server\":{{\"connections_open\":{},\"connections_total\":{},\"connections_rejected\":{},\
         \"requests\":{},\"responses\":{},\"cancelled_on_disconnect\":{},\"inflight_budget\":{}}},\
         \"engine\":{{\"requests\":{},\"cells\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_len\":{},\
         \"kernel_backend\":\"{}\",\"dist_backend\":\"{}\"}}}}}}",
        Escaped(id),
        snapshot.conn_id,
        c.requests,
        c.responses,
        c.cancellations,
        c.bytes_in,
        c.bytes_out,
        snapshot.pending,
        p.queue_nanos_total,
        p.queue_nanos_max,
        p.service_nanos_total,
        p.service_nanos_max,
        s.open_connections(),
        // ORDERING: statistics snapshot for the stats line; the counters
        // are independent and a torn view across them is acceptable.
        s.connections_opened.load(Ordering::Relaxed),
        s.connections_rejected.load(Ordering::Relaxed),
        s.requests.load(Ordering::Relaxed),
        // ORDERING: same snapshot (the block above is out of the
        // adjacency window for these last two reads).
        s.responses.load(Ordering::Relaxed),
        s.cancelled_on_disconnect.load(Ordering::Relaxed),
        snapshot.budget_capacity,
        e.requests,
        e.cells,
        e.cache_hits,
        e.cache_misses,
        e.cache_len,
        e.kernel_backend,
        e.dist_backend,
    )
}

/// The refusal line written to a connection accepted over the
/// `--max-conns` bound, before it is closed.
#[must_use]
pub fn capacity_refusal_line() -> String {
    format!("{{\"v\":{WIRE_VERSION},\"id\":\"\",\"error\":\"server at connection capacity\"}}")
}

/// The one answer to a request line longer than [`MAX_LINE_BYTES`]; the
/// line itself is discarded and the connection serves on.
#[must_use]
pub fn oversize_line_refusal() -> String {
    format!(
        "{{\"v\":{WIRE_VERSION},\"id\":\"\",\"error\":\"request line longer than {MAX_LINE_BYTES} bytes\"}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(server: &ServerMetrics) -> StatsSnapshot<'_> {
        StatsSnapshot {
            conn_id: 3,
            conn: ConnMetrics {
                requests: 5,
                responses: 4,
                cancellations: 1,
                bytes_in: 200,
                bytes_out: 900,
            },
            pending: 1,
            pipeline: PipelineStats::default(),
            server,
            budget_capacity: 8,
            engine: EngineStats {
                requests: 7,
                cells: 84,
                cache_hits: 10,
                cache_misses: 2,
                cache_len: 2,
                cells_per_worker: vec![84],
                wall_nanos: 1,
                kernel_backend: "scalar",
                dist_backend: "scalar",
            },
        }
    }

    #[test]
    fn stats_line_is_valid_wire_json_with_all_blocks() {
        let server = ServerMetrics::default();
        server.next_connection_id();
        let line = stats_response_line("q\"1", &snapshot(&server));
        let parsed = zeroconf_engine::wire::parse_json(&line).unwrap();
        assert_eq!(
            parsed.get("id"),
            Some(&zeroconf_engine::wire::Json::Str("q\"1".to_owned()))
        );
        let stats = parsed.get("stats").unwrap();
        for block in ["conn", "server", "engine"] {
            assert!(stats.get(block).is_some(), "missing {block}: {line}");
        }
        assert_eq!(
            stats.get("conn").unwrap().get("id"),
            Some(&zeroconf_engine::wire::Json::Num(3.0))
        );
        assert_eq!(
            stats.get("engine").unwrap().get("cache_hits"),
            Some(&zeroconf_engine::wire::Json::Num(10.0))
        );
    }

    #[test]
    fn stats_line_escapes_its_id_like_every_wire_line() {
        let server = ServerMetrics::default();
        let id = "q\"1\\a\nb\u{1}";
        let line = stats_response_line(id, &snapshot(&server));
        let prefix = format!("{{\"v\":{WIRE_VERSION},\"id\":\"q\\\"1\\\\a\\nb\\u0001\",\"stats\":");
        assert!(line.starts_with(&prefix), "{line}");
        let parsed = zeroconf_engine::wire::parse_json(&line).unwrap();
        assert_eq!(
            parsed.get("id"),
            Some(&zeroconf_engine::wire::Json::Str(id.to_owned()))
        );
    }

    #[test]
    fn connection_ids_are_one_based_and_open_count_tracks_closes() {
        let server = ServerMetrics::default();
        assert_eq!(server.next_connection_id(), 1);
        assert_eq!(server.next_connection_id(), 2);
        assert_eq!(server.open_connections(), 2);
        server.connections_closed.fetch_add(1, Ordering::Relaxed);
        assert_eq!(server.open_connections(), 1);
    }

    #[test]
    fn refusal_line_parses() {
        let line = capacity_refusal_line();
        let parsed = zeroconf_engine::wire::parse_json(&line).unwrap();
        assert!(parsed.get("error").is_some(), "{line}");
    }
}
