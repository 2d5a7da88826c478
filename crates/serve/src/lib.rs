//! `zeroconf serve` — a multi-client socket daemon over one shared engine.
//!
//! The cost model earns its keep when many operators query landscapes,
//! rescores and optimal-`(n, r)` answers against one *warm* π-table
//! cache; a per-invocation CLI pays process startup and cold caches every
//! time. This crate turns the engine's JSON-lines wire protocol
//! ([`zeroconf_engine::wire`]) into a resident service:
//!
//! - **Listeners**: any number of TCP and Unix-domain sockets
//!   ([`Endpoint`]), each driven by one readiness event loop — a
//!   reactor thread multiplexing the nonblocking listener and every
//!   accepted connection through a minimal vendored `epoll(7)` shim
//!   (Linux only; see the `reactor` module), with a connection bound
//!   enforced at accept time (`--max-conns`; excess connections receive
//!   one refusal line and are closed).
//! - **Sessions**: every connection gets its own
//!   [`PipelinedSession`](zeroconf_engine::wire::PipelinedSession)
//!   handle on the daemon's one
//!   [`ExecutorTeam`](zeroconf_engine::ExecutorTeam) — `min(inflight, 4)`
//!   executor threads over the one shared
//!   [`Engine`](zeroconf_engine::Engine), spawned at bind. π-tables
//!   computed for one client are warm for all, while request ids stay
//!   session-scoped (the server-side identity of a request is
//!   `conn_id:wire_id`, so client-chosen ids can never collide across
//!   connections). The daemon's thread count is therefore fixed by its
//!   configuration, however many connections send work; engine
//!   completions wake the owning event loop through an `eventfd`.
//! - **Fairness and backpressure**: admission into the engine is
//!   governed by a global in-flight budget ([`FairBudget`],
//!   `--inflight`) granted round-robin across asking connections — a
//!   client that pipelines hundreds of sweeps cannot starve one that
//!   sends a single request. The budget is the only admission decision:
//!   every ticket on the team holds a permit and the team's depth equals
//!   the budget's capacity, so the team's own gate never blocks the
//!   reactor. Completions are polled unconditionally, so
//!   permits return the moment work finishes; a client that stops
//!   *reading* instead has its own intake gated (reads and admissions
//!   pause above the output high-water mark), so a slow reader can
//!   never pin memory or a budget permit.
//! - **Observability**: the serve-level `stats` wire verb
//!   (`{"v":1,"id":"…","stats":true}`) answers with per-connection,
//!   server-wide and shared-engine counters.
//! - **Lifecycle**: a client disconnect withdraws that connection's
//!   unanswered requests (and only those); `SIGTERM`/`SIGINT` (via
//!   [`zeroconf_engine::signal`]) or a programmatic [`Shutdown`] trigger
//!   drains the whole server — stop accepting, stop reading, answer
//!   everything in flight, flush, exit cleanly.
//!
//! See DESIGN.md ("Serving architecture") for the connection lifecycle
//! and the fairness/drain semantics in detail.

// The `reactor` module is this crate's only unsafe surface (vendored
// epoll FFI); everything else stays panic-free safe Rust, enforced
// by `zeroconf audit`.
#![deny(unsafe_op_in_unsafe_fn)]

mod budget;
mod conn;
mod listener;
mod metrics;
// Exhaustive-interleaving model tests (the vendored loom replacement);
// opt in with RUSTFLAGS="--cfg zeroconf_loom" — see ci.sh.
#[cfg(all(test, zeroconf_loom))]
mod model_tests;
mod reactor;

pub use budget::FairBudget;
pub use conn::MAX_LINE_BYTES;
pub use listener::Endpoint;
pub use metrics::{
    capacity_refusal_line, stats_response_line, ConnMetrics, ServerMetrics, StatsSnapshot,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use zeroconf_engine::{Engine, EngineConfig, ExecutorTeam, PipelineConfig};

/// A fatal serve error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

/// The server's stop signal: a local flag (for tests and embedders)
/// optionally combined with the process-wide termination flag raised by
/// `SIGTERM`/`SIGINT` handlers ([`zeroconf_engine::signal`]).
#[derive(Clone)]
pub struct Shutdown {
    local: Arc<AtomicBool>,
    follow_process_signal: bool,
}

impl Shutdown {
    fn new(follow_process_signal: bool) -> Shutdown {
        Shutdown {
            local: Arc::new(AtomicBool::new(false)),
            follow_process_signal,
        }
    }

    /// Triggers the drain programmatically. Idempotent.
    pub fn trigger(&self) {
        // ORDERING: standalone sticky drain flag; pollers need only
        // eventually observe it, nothing else rides on the store.
        self.local.store(true, Ordering::Relaxed);
    }

    /// Whether the server should drain: locally triggered, or (when
    /// following process signals) a `SIGTERM`/`SIGINT` arrived.
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        // ORDERING: polling the standalone drain flag; a late observation
        // delays the drain by one loop tick at worst.
        self.local.load(Ordering::Relaxed)
            || (self.follow_process_signal && zeroconf_engine::signal::termination_requested())
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Addresses to listen on (at least one).
    pub endpoints: Vec<Endpoint>,
    /// The shared engine's configuration (workers, cache, spill dir).
    pub engine: EngineConfig,
    /// The global in-flight budget shared fairly across connections.
    pub inflight: usize,
    /// Maximum concurrently served connections.
    pub max_connections: usize,
    /// Whether the server drains on process `SIGTERM`/`SIGINT` (the
    /// daemon path). Embedded/test servers keep this off and use
    /// [`Server::shutdown_handle`] instead.
    pub follow_process_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            endpoints: Vec::new(),
            engine: EngineConfig::default(),
            inflight: 8,
            max_connections: 64,
            follow_process_signals: false,
        }
    }
}

impl ServeConfig {
    /// Parses daemon flags: repeatable `--tcp ADDR` / `--unix PATH`
    /// endpoints plus `--workers N`, `--cache TABLES`, `--cache-dir
    /// PATH`, `--kernel scalar|simd|auto`, `--inflight N` and
    /// `--max-conns N`. The parsed config follows
    /// process signals (it is the daemon entry path).
    ///
    /// # Errors
    ///
    /// [`ServeError`] for unknown flags, malformed values or a missing
    /// endpoint.
    pub fn from_args(args: &[String]) -> Result<ServeConfig, ServeError> {
        let mut config = ServeConfig {
            follow_process_signals: true,
            ..ServeConfig::default()
        };
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value_of = |name: &str| {
                iter.next()
                    .cloned()
                    .ok_or_else(|| ServeError(format!("--{name} requires a value")))
            };
            match flag.as_str() {
                "--tcp" => config.endpoints.push(Endpoint::Tcp(value_of("tcp")?)),
                "--unix" => config
                    .endpoints
                    .push(Endpoint::Unix(std::path::PathBuf::from(value_of("unix")?))),
                "--workers" => {
                    config.engine.workers = parse_count("workers", &value_of("workers")?)?
                }
                "--cache" => {
                    config.engine.cache_tables = parse_count("cache", &value_of("cache")?)?
                }
                "--cache-dir" => {
                    config.engine.cache_dir =
                        Some(std::path::PathBuf::from(value_of("cache-dir")?));
                }
                "--kernel" => {
                    let raw = value_of("kernel")?;
                    config.engine.kernel =
                        zeroconf_engine::KernelChoice::parse(&raw).ok_or_else(|| {
                            ServeError(format!(
                                "--kernel must be scalar, simd or auto (got '{raw}')"
                            ))
                        })?;
                }
                "--inflight" => config.inflight = parse_count("inflight", &value_of("inflight")?)?,
                "--max-conns" => {
                    config.max_connections = parse_count("max-conns", &value_of("max-conns")?)?;
                }
                other => {
                    return Err(ServeError(format!(
                        "unknown serve flag '{other}'\n{}",
                        serve_usage()
                    )))
                }
            }
        }
        if config.endpoints.is_empty() {
            return Err(ServeError(format!(
                "serve needs at least one --tcp ADDR or --unix PATH endpoint\n{}",
                serve_usage()
            )));
        }
        Ok(config)
    }
}

fn parse_count(name: &str, raw: &str) -> Result<usize, ServeError> {
    raw.parse::<usize>()
        .ok()
        .filter(|n| *n > 0)
        .ok_or_else(|| ServeError(format!("--{name} expects a positive integer, got '{raw}'")))
}

/// The serve flag summary (shared by the bin and the `zeroconf` CLI).
#[must_use]
pub fn serve_usage() -> String {
    "usage: zeroconf serve (--tcp ADDR | --unix PATH)... [--workers N] [--cache TABLES]\n\
     \u{20}      [--cache-dir PATH] [--kernel scalar|simd|auto]\n\
     \u{20}      [--inflight N] [--max-conns N]"
        .to_owned()
}

/// State shared by every endpoint event loop and connection.
pub(crate) struct ServerShared {
    /// The daemon's one executor team (and through it the engine); its
    /// depth equals `budget.capacity()`.
    pub(crate) team: Arc<ExecutorTeam>,
    pub(crate) budget: FairBudget,
    pub(crate) shutdown: Shutdown,
    pub(crate) metrics: ServerMetrics,
    pub(crate) max_connections: usize,
}

/// A bound (but not yet running) server: sockets are listening, so
/// clients can connect the moment [`Server::run`] starts accepting.
pub struct Server {
    shared: Arc<ServerShared>,
    listeners: Vec<listener::BoundListener>,
}

impl Server {
    /// Binds every configured endpoint and builds the shared engine and
    /// the executor team every connection submits to (its threads are
    /// spawned here and joined when the server drops).
    ///
    /// # Errors
    ///
    /// [`ServeError`] when an endpoint cannot be bound or the config has
    /// no endpoints.
    pub fn bind(config: ServeConfig) -> Result<Server, ServeError> {
        if config.endpoints.is_empty() {
            return Err(ServeError("serve needs at least one endpoint".to_owned()));
        }
        let mut listeners = Vec::with_capacity(config.endpoints.len());
        for endpoint in &config.endpoints {
            listeners.push(listener::BoundListener::bind(endpoint)?);
        }
        let budget = FairBudget::new(config.inflight);
        let shared = Arc::new(ServerShared {
            team: daemon_team(Engine::new(config.engine), &budget),
            budget,
            shutdown: Shutdown::new(config.follow_process_signals),
            metrics: ServerMetrics::default(),
            max_connections: config.max_connections.max(1),
        });
        Ok(Server { shared, listeners })
    }

    /// `scheme:address` descriptions of the bound sockets, in endpoint
    /// order. TCP entries report the actual local address, so binding
    /// port `0` reveals the OS-picked port here.
    #[must_use]
    pub fn endpoints(&self) -> Vec<String> {
        self.listeners
            .iter()
            .map(listener::BoundListener::description)
            .collect()
    }

    /// A handle that triggers this server's graceful drain.
    #[must_use]
    pub fn shutdown_handle(&self) -> Shutdown {
        self.shared.shutdown.clone()
    }

    /// Serves until shutdown, then drains: accepting stops, every
    /// connection answers its in-flight work and flushes, reactor
    /// threads are joined, Unix socket files are removed. Returns a
    /// one-line summary.
    ///
    /// Each endpoint's event loop is constructed *here*, before its
    /// thread spawns, so a reactor that cannot start (poller or wakeup
    /// creation, registration) is a startup error rather than a silent
    /// background failure.
    ///
    /// # Errors
    ///
    /// [`ServeError`] when an event loop cannot be built or its thread
    /// cannot be spawned.
    pub fn run(self) -> Result<String, ServeError> {
        let mut loops = Vec::with_capacity(self.listeners.len());
        for bound in self.listeners {
            loops.push(listener::EndpointLoop::new(
                bound,
                Arc::clone(&self.shared),
            )?);
        }
        let mut reactors = Vec::with_capacity(loops.len());
        for (index, event_loop) in loops.into_iter().enumerate() {
            let spawned = std::thread::Builder::new()
                .name(format!("zeroconf-reactor-{index}"))
                .spawn(move || event_loop.run());
            match spawned {
                Ok(handle) => reactors.push(handle),
                Err(e) => {
                    // Loops already running must drain before the error
                    // returns, or their sockets would outlive the Server.
                    self.shared.shutdown.trigger();
                    for handle in reactors {
                        let _ = handle.join();
                    }
                    return Err(ServeError(format!("spawning reactor loop: {e}")));
                }
            }
        }
        for handle in reactors {
            let _ = handle.join();
        }
        let m = &self.shared.metrics;
        // ORDERING: final statistics read; every reactor thread is joined
        // above, so these relaxed loads race with nothing.
        Ok(format!(
            "drained cleanly: {} connection(s) served, {} request(s), {} response(s), \
             {} withdrawn at disconnect",
            m.connections_opened.load(Ordering::Relaxed),
            m.requests.load(Ordering::Relaxed),
            // ORDERING: same post-join statistics read.
            m.responses.load(Ordering::Relaxed),
            m.cancelled_on_disconnect.load(Ordering::Relaxed),
        ))
    }
}

/// The daemon's executor team: depth equal to the budget's capacity, so
/// every ticket holds a permit and the team's gate never binds, and
/// `min(capacity, 4)` executors.
pub(crate) fn daemon_team(engine: Engine, budget: &FairBudget) -> Arc<ExecutorTeam> {
    let capacity = budget.capacity();
    ExecutorTeam::new(
        Arc::new(engine),
        PipelineConfig {
            depth: capacity,
            executors: capacity.min(4),
        },
    )
}

/// The daemon entry path shared by the `zeroconf-serve` bin and the
/// `zeroconf serve` subcommand: parse flags, install the termination
/// handlers, bind, announce each endpoint as a `listening <scheme:addr>`
/// line on `out`, serve until SIGTERM/SIGINT, drain, return the summary.
///
/// # Errors
///
/// [`ServeError`] for flag, bind or spawn failures.
pub fn run_cli(args: &[String], out: &mut dyn std::io::Write) -> Result<String, ServeError> {
    let config = ServeConfig::from_args(args)?;
    if config.follow_process_signals {
        let _ = zeroconf_engine::signal::install_termination_handler();
    }
    let server = Server::bind(config)?;
    for endpoint in server.endpoints() {
        writeln!(out, "listening {endpoint}")
            .map_err(|e| ServeError(format!("writing startup line: {e}")))?;
    }
    out.flush()
        .map_err(|e| ServeError(format!("flushing startup lines: {e}")))?;
    server.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn from_args_parses_endpoints_and_tuning() {
        let config = ServeConfig::from_args(&args(
            "--tcp 127.0.0.1:0 --unix /tmp/z.sock --workers 2 --cache 64 \
             --kernel scalar --inflight 6 --max-conns 9",
        ))
        .unwrap();
        assert_eq!(config.endpoints.len(), 2);
        assert_eq!(config.endpoints[0], Endpoint::Tcp("127.0.0.1:0".into()));
        assert_eq!(
            config.endpoints[1],
            Endpoint::Unix(std::path::PathBuf::from("/tmp/z.sock"))
        );
        assert_eq!(config.engine.workers, 2);
        assert_eq!(config.engine.cache_tables, 64);
        assert_eq!(config.engine.kernel, zeroconf_engine::KernelChoice::Scalar);
        assert_eq!(config.inflight, 6);
        assert_eq!(config.max_connections, 9);
        assert!(config.follow_process_signals);
    }

    #[test]
    fn from_args_requires_an_endpoint_and_rejects_junk() {
        let e = ServeConfig::from_args(&args("--tcp x --kernel turbo")).unwrap_err();
        assert!(e.0.contains("--kernel must be"), "{e}");
        let e = ServeConfig::from_args(&args("--workers 2")).unwrap_err();
        assert!(e.0.contains("at least one"), "{e}");
        let e = ServeConfig::from_args(&args("--bogus 1")).unwrap_err();
        assert!(e.0.contains("unknown serve flag"), "{e}");
        let e = ServeConfig::from_args(&args("--tcp")).unwrap_err();
        assert!(e.0.contains("requires a value"), "{e}");
        let e = ServeConfig::from_args(&args("--tcp x --inflight zero")).unwrap_err();
        assert!(e.0.contains("positive integer"), "{e}");
        let e = ServeConfig::from_args(&args("--tcp x --inflight 0")).unwrap_err();
        assert!(e.0.contains("positive integer"), "{e}");
    }

    /// The removed mmap spill tier left no switch behind.
    #[test]
    fn from_args_rejects_mmap_as_an_unknown_flag() {
        let e = ServeConfig::from_args(&args("--tcp x --cache-dir /tmp/z --mmap")).unwrap_err();
        assert!(e.0.contains("unknown serve flag '--mmap'"), "{e}");
    }

    #[test]
    fn shutdown_handle_triggers_locally() {
        let shutdown = Shutdown::new(false);
        assert!(!shutdown.is_triggered());
        shutdown.clone().trigger();
        assert!(shutdown.is_triggered());
    }

    #[test]
    fn binding_port_zero_reports_the_real_port() {
        let server = Server::bind(ServeConfig {
            endpoints: vec![Endpoint::Tcp("127.0.0.1:0".into())],
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            ..ServeConfig::default()
        })
        .unwrap();
        let endpoints = server.endpoints();
        assert_eq!(endpoints.len(), 1);
        assert!(endpoints[0].starts_with("tcp:127.0.0.1:"), "{endpoints:?}");
        assert!(!endpoints[0].ends_with(":0"), "{endpoints:?}");
    }
}
