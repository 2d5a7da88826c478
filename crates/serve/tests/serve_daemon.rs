//! Integration tests for the `zeroconf serve` daemon: real sockets,
//! concurrent clients, one shared engine, one reactor thread per
//! endpoint.
//!
//! The in-process tests bind a [`Server`] on an ephemeral TCP port and
//! drive it with [`zeroconf_client::Client`] — the same typed blocking
//! client `ci.sh` and the serve benches use, so there is exactly one
//! frame reader in the workspace. The signal test spawns the actual
//! `zeroconf-serve` binary on a Unix socket and delivers a real
//! `SIGTERM`. Request frames come from [`zeroconf_engine::testkit`] —
//! the same builders the engine's own wire-error suite uses.

use std::time::{Duration, Instant};

use zeroconf_client::{Client, Json, Response};
use zeroconf_engine::{testkit, EngineConfig};
use zeroconf_serve::{Endpoint, ServeConfig, ServeError, Server, Shutdown, MAX_LINE_BYTES};

const DEADLINE: Duration = Duration::from_secs(60);

/// An in-process server on an ephemeral TCP port.
struct TestServer {
    addr: String,
    shutdown: Shutdown,
    thread: Option<std::thread::JoinHandle<Result<String, ServeError>>>,
}

impl TestServer {
    fn start(inflight: usize, max_connections: usize) -> TestServer {
        let server = Server::bind(ServeConfig {
            endpoints: vec![Endpoint::Tcp("127.0.0.1:0".into())],
            engine: EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
            inflight,
            max_connections,
            follow_process_signals: false,
        })
        .expect("bind test server");
        let addr = server.endpoints()[0]
            .strip_prefix("tcp:")
            .expect("tcp endpoint description")
            .to_owned();
        let shutdown = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            shutdown,
            thread: Some(thread),
        }
    }

    fn connect(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect to test server")
    }

    fn stop(mut self) -> String {
        self.shutdown.trigger();
        self.thread
            .take()
            .expect("server thread present")
            .join()
            .expect("server thread joins")
            .expect("server drains cleanly")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.shutdown.trigger();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Path lookup that fails the test (rather than returning `None`) when
/// the member is missing — keeps assertion sites short.
fn number(response: &Response, path: &[&str]) -> f64 {
    response
        .number(path)
        .unwrap_or_else(|| panic!("missing number at {path:?} in {}", response.line))
}

/// Polls the connection's own `stats` until `count` of its requests are
/// admitted and unanswered.
fn wait_for_pending(client: &mut Client, count: usize) {
    let end = Instant::now() + DEADLINE;
    for poll in 0.. {
        let stats = client
            .stats(&format!("pending{poll}"))
            .expect("stats response");
        if number(&stats, &["stats", "conn", "pending"]) == count as f64 {
            return;
        }
        assert!(
            Instant::now() < end,
            "{count} requests never pending: {}",
            stats.line
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn four_concurrent_clients_share_one_warm_engine() {
    let server = TestServer::start(8, 16);

    // Client 0 warms the cache: its identical-shape sweep misses all
    // three pi-tables.
    let mut warmer = server.connect();
    warmer
        .send_raw(&testkit::sweep_line("warm", 6, &[0.5, 1.0, 1.5]))
        .expect("send warm sweep");
    let cold = warmer.wait("warm").expect("warm response");
    assert!(cold.line.contains("\"cache_misses\":3"), "{}", cold.line);

    // Four more clients, concurrently, all issuing the identical sweep:
    // every one is served from the warm shared cache.
    let addr = server.addr.clone();
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect worker");
                let id = format!("c{i}");
                client
                    .send_raw(&testkit::sweep_line(&id, 6, &[0.5, 1.0, 1.5]))
                    .expect("send worker sweep");
                client.wait(&id).expect("worker response")
            })
        })
        .collect();
    for worker in workers {
        let response = worker.join().expect("client thread joins");
        assert!(response.has_cells(), "{}", response.line);
        assert!(
            response.line.contains("\"cache_misses\":0"),
            "a later client must hit the cache another client warmed: {}",
            response.line
        );
    }

    // The shared-engine block of `stats` shows the cross-client hits.
    let stats = warmer.stats("st").expect("stats response");
    assert!(
        number(&stats, &["stats", "engine", "cache_hits"]) >= 12.0,
        "{}",
        stats.line
    );
    assert_eq!(number(&stats, &["stats", "engine", "cache_misses"]), 3.0);
    assert!(number(&stats, &["stats", "server", "connections_total"]) >= 5.0);
    assert_eq!(number(&stats, &["stats", "conn", "id"]), 1.0);

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn mid_flight_disconnect_cancels_only_that_connection() {
    let server = TestServer::start(4, 16);

    // The victim pipelines a sweep that takes seconds plus a rescore
    // held back behind it, waits until both are admitted, then vanishes
    // without reading any answer.
    let mut victim = server.connect();
    victim
        .send_raw(&testkit::slow_sweep_line("doomed", 0))
        .expect("send doomed sweep");
    victim
        .send_raw(&testkit::rescore_line("follow", "doomed", 1e9))
        .expect("send follow rescore");
    wait_for_pending(&mut victim, 2);
    drop(victim);

    // A survivor connected to the same engine still gets its answer.
    let mut survivor = server.connect();
    survivor
        .send_raw(&testkit::sweep_line("ok", 4, &[1.0, 2.0]))
        .expect("send survivor sweep");
    let response = survivor.wait("ok").expect("survivor response");
    assert!(response.has_cells(), "{}", response.line);

    // Both of the victim's requests — the in-flight sweep and the
    // held-back rescore — are withdrawn; the survivor's are not.
    let end = Instant::now() + DEADLINE;
    loop {
        let stats = survivor.stats("st").expect("stats response");
        let withdrawn = number(&stats, &["stats", "server", "cancelled_on_disconnect"]);
        if withdrawn >= 2.0 {
            assert_eq!(number(&stats, &["stats", "conn", "cancellations"]), 0.0);
            break;
        }
        assert!(
            Instant::now() < end,
            "disconnect never cancelled the victim's requests: {}",
            stats.line
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let summary = server.stop();
    assert!(summary.contains("2 withdrawn at disconnect"), "{summary}");
}

#[test]
fn wire_errors_and_capacity_refusals_over_a_real_socket() {
    let server = TestServer::start(4, 1);
    let mut client = server.connect();

    // Malformed frame mid-stream: an error line, session stays alive.
    client
        .send_raw(&testkit::sweep_line("s1", 4, &[1.0, 2.0]))
        .expect("send s1");
    client.wait("s1").expect("s1 response");
    client
        .send_raw(testkit::MALFORMED_FRAME)
        .expect("send malformed frame");
    let broken = client
        .next_line()
        .expect("read error line")
        .expect("error line before EOF");
    assert!(broken.contains("\"error\""), "{broken}");
    client
        .send_raw(&testkit::unknown_verb_line("u1"))
        .expect("send unknown verb");
    let unknown = client.wait("u1").expect("u1 response");
    assert!(
        unknown
            .error()
            .is_some_and(|e| e.contains("unknown request verb")),
        "{}",
        unknown.line
    );
    client
        .send_raw(&testkit::sweep_line("s2", 4, &[1.0, 2.0]))
        .expect("send s2");
    let alive = client.wait("s2").expect("s2 response");
    assert!(alive.has_cells(), "{}", alive.line);

    // The server is at --max-conns 1: a second connection is refused
    // with one structured error line and closed.
    let mut refused = server.connect();
    let refusal = refused
        .next_line()
        .expect("read refusal line")
        .expect("refusal line before EOF");
    assert!(
        refusal.contains("server at connection capacity"),
        "{refusal}"
    );
    assert!(
        refused
            .next_line()
            .expect("read post-refusal EOF")
            .is_none(),
        "refused connection must be closed after the refusal line"
    );

    let stats = client.stats("st").expect("stats response");
    assert_eq!(
        number(&stats, &["stats", "server", "connections_rejected"]),
        1.0
    );

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn programmatic_drain_answers_everything_in_flight() {
    // Budget of 2 permits under 4 pipelined sweeps: when the drain
    // lands, the tail of the pipeline is still *parked* waiting for a
    // permit, not merely in flight. Parked work must drain losslessly
    // too — the pre-reactor daemon answered a five-deep pipeline against
    // `--inflight 4` across SIGTERM, and the ci smoke still does.
    let server = TestServer::start(2, 8);
    let mut client = server.connect();
    let ids = ["q1", "q2", "q3", "q4"];
    for id in ids {
        client
            .send_raw(&testkit::heavy_sweep_line(id, 32, 1200))
            .expect("send pipelined sweep");
    }
    // Let the daemon admit the head of the pipeline, then drain under
    // load with the tail parked.
    std::thread::sleep(Duration::from_millis(200));
    server.shutdown.trigger();
    for (id, response) in ids
        .iter()
        .zip(client.wait_all(&ids).expect("drained responses"))
    {
        assert!(
            response.has_cells(),
            "lossy drain for {id}: {}",
            response.line
        );
    }
    let summary = server.stop();
    assert!(summary.contains("4 request(s)"), "{summary}");
}

#[test]
fn one_greedy_pipeliner_cannot_monopolize_the_budget() {
    // Budget of 2 permits; a greedy client floods 8 sweeps *without
    // reading any responses* while a modest client asks for one. The
    // greedy connection's output backs up in its write buffer, so this
    // only terminates if (a) admission rotates round-robin and (b)
    // permits return when completions are polled, not when the write
    // lands — i.e. a non-reading flooder cannot hold the budget.
    let server = TestServer::start(2, 8);

    let mut greedy = server.connect();
    for i in 0..8 {
        greedy
            .send_raw(&testkit::heavy_sweep_line(&format!("g{i}"), 24, 600))
            .expect("send greedy sweep");
    }
    std::thread::sleep(Duration::from_millis(100));
    let mut modest = server.connect();
    modest
        .send_raw(&testkit::sweep_line("m", 4, &[1.0, 2.0]))
        .expect("send modest sweep");
    let response = modest.wait("m").expect("modest response");
    assert!(response.has_cells(), "{}", response.line);
    let greedy_ids: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
    let greedy_refs: Vec<&str> = greedy_ids.iter().map(String::as_str).collect();
    for response in greedy.wait_all(&greedy_refs).expect("greedy responses") {
        assert!(response.has_cells(), "{}", response.line);
    }
    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn lines_sharing_one_id_each_hold_a_budget_permit() {
    // Budget of 2. A flooder streams 8 sweeps that all carry id `x`
    // while a modest client asks for one. Each `x` line holds its own
    // permit (permits count requests, not distinct ids), so the flood
    // parks behind the fair budget like any other, the modest client is
    // admitted in turn, and every `x` is still answered.
    let server = TestServer::start(2, 8);
    let mut flood = server.connect();
    for _ in 0..8 {
        flood
            .send_raw(&testkit::heavy_sweep_line("x", 24, 600))
            .expect("send flood sweep");
    }
    let mut modest = server.connect();
    modest
        .send_raw(&testkit::sweep_line("m", 4, &[1.0, 2.0]))
        .expect("send modest sweep");
    assert!(modest.wait("m").expect("modest response").has_cells());
    let deadline = Instant::now() + DEADLINE;
    for _ in 0..8 {
        let response = flood
            .next_response(deadline)
            .expect("flood response")
            .expect("flood response before EOF");
        assert_eq!(response.id(), "x", "{}", response.line);
        assert!(response.has_cells(), "{}", response.line);
    }
    let stats = flood.stats("st").expect("flood stats");
    assert_eq!(number(&stats, &["stats", "conn", "pending"]), 0.0);

    // A client that vanishes with two same-id tickets running withdraws
    // both: it counts two abandoned requests, not one id. Each sweep
    // has its own reply-time rates and takes seconds, so both admitted
    // ones are still running when the hangup is seen; the other four
    // stay parked behind the exhausted budget.
    let mut quitter = server.connect();
    for salt in 0..2 {
        let cold = testkit::slow_sweep_line("y", 20 + salt);
        quitter.send_raw(&cold).expect("send quitter sweep");
    }
    wait_for_pending(&mut quitter, 2);
    for salt in 2..6 {
        let cold = testkit::slow_sweep_line("y", 20 + salt);
        quitter.send_raw(&cold).expect("send quitter sweep");
    }
    drop(quitter);
    modest
        .send_raw(&testkit::sweep_line("m2", 4, &[1.0, 2.0]))
        .expect("send second modest sweep");
    assert!(modest
        .wait("m2")
        .expect("second modest response")
        .has_cells());
    let stats = modest.stats("st").expect("modest stats");
    assert_eq!(
        number(&stats, &["stats", "server", "cancelled_on_disconnect"]),
        2.0,
        "{}",
        stats.line
    );
    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn overload_past_max_conns_refuses_structurally_and_recovers() {
    // 300 clients against --max-conns 256: exactly 256 are admitted and
    // answered, the other 44 get one structured refusal line and a
    // close, the listener never stalls, and once the crowd leaves a
    // fresh client is served normally.
    const CAPACITY: usize = 256;
    const CROWD: usize = 300;
    let server = TestServer::start(8, CAPACITY);

    let mut crowd: Vec<Client> = Vec::with_capacity(CROWD);
    for i in 0..CROWD {
        let mut client = server.connect();
        // A past-capacity connection may already be refused and reset
        // before this write lands; the read below classifies it either
        // way, so a broken pipe here is just an early refusal.
        match client.send_raw(&testkit::sweep_line(&format!("o{i}"), 2, &[1.0])) {
            Ok(()) => {}
            Err(zeroconf_client::ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
                ) => {}
            Err(e) => panic!("send overload sweep {i}: {e}"),
        }
        crowd.push(client);
    }

    // A refused connection gets one structured refusal line and a close.
    // Because these clients already pipelined a sweep the server never
    // reads, that close arrives as a TCP RST — which may reach the
    // client before it reads the refusal and discard it. Either
    // observation (the refusal line, or the reset) classifies the
    // connection as refused; the deterministic assertion on the refusal
    // line's exact shape lives in
    // `wire_errors_and_capacity_refusals_over_a_real_socket`.
    enum First {
        Line(String),
        Closed,
    }
    fn first_line(client: &mut Client) -> First {
        match client.next_line() {
            Ok(Some(line)) => First::Line(line),
            Ok(None) => First::Closed,
            Err(zeroconf_client::ClientError::Io(e))
                if e.kind() == std::io::ErrorKind::ConnectionReset =>
            {
                First::Closed
            }
            Err(e) => panic!("reading overload response: {e}"),
        }
    }
    let mut admitted = 0usize;
    let mut refused = 0usize;
    for client in &mut crowd {
        match first_line(client) {
            First::Line(line) if line.contains("server at connection capacity") => {
                refused += 1;
                assert!(
                    matches!(first_line(client), First::Closed),
                    "refused connection must be closed: {line}"
                );
            }
            First::Line(line) => {
                admitted += 1;
                assert!(line.contains("\"cells\""), "{line}");
            }
            First::Closed => refused += 1,
        }
    }
    assert_eq!(admitted, CAPACITY, "every slot under --max-conns is usable");
    assert_eq!(refused, CROWD - CAPACITY, "every overflow is refused");

    // Clean recovery: the crowd leaves, a fresh client gets a slot.
    drop(crowd);
    let end = Instant::now() + DEADLINE;
    loop {
        let mut fresh = server.connect();
        fresh
            .send_raw(&testkit::sweep_line("after", 2, &[1.0]))
            .expect("send recovery sweep");
        match first_line(&mut fresh) {
            First::Line(line) if line.contains("\"cells\"") => {
                let stats = fresh.stats("st").expect("stats response");
                assert!(
                    number(&stats, &["stats", "server", "connections_rejected"])
                        >= (CROWD - CAPACITY) as f64,
                    "{}",
                    stats.line
                );
                break;
            }
            // The reactor may not have reaped the dropped crowd yet.
            First::Line(line) => assert!(
                line.contains("server at connection capacity"),
                "unexpected recovery response: {line}"
            ),
            First::Closed => {}
        }
        assert!(
            Instant::now() < end,
            "capacity never recovered after the crowd left"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn one_reactor_thread_holds_a_thousand_idle_conns_and_serves_64_pipeliners() {
    use std::net::TcpStream;

    // The acceptance bar for the reactor rewrite: >=1000 concurrent
    // established connections on one event-loop thread while 64 clients
    // actively pipeline. No connection costs a thread (every session is
    // a handle on the server's one executor team), so holding a thousand
    // of them is cheap.
    const IDLE: usize = 1000;
    const ACTIVE: usize = 64;
    const PIPELINE: usize = 8;
    let server = TestServer::start(8, 2 * IDLE);

    let idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| TcpStream::connect(&server.addr).unwrap_or_else(|e| panic!("idle conn {i}: {e}")))
        .collect();

    let addr = server.addr.clone();
    let workers: Vec<_> = (0..ACTIVE)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect pipeliner");
                let ids: Vec<String> = (0..PIPELINE).map(|j| format!("p{i}-{j}")).collect();
                for id in &ids {
                    client
                        .send_raw(&testkit::sweep_line(id, 4, &[0.5, 1.0]))
                        .expect("send pipelined sweep");
                }
                let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
                for response in client.wait_all(&refs).expect("pipelined responses") {
                    assert!(response.has_cells(), "{}", response.line);
                }
                ids.len()
            })
        })
        .collect();
    let answered: usize = workers
        .into_iter()
        .map(|w| w.join().expect("pipeliner joins"))
        .sum();
    assert_eq!(answered, ACTIVE * PIPELINE);

    // All thousand idle connections are still established alongside the
    // pipeliners' — the reactor held every one of them concurrently.
    let mut inspector = server.connect();
    let stats = inspector.stats("st").expect("stats response");
    assert!(
        number(&stats, &["stats", "server", "connections_open"]) >= (IDLE + 1) as f64,
        "{}",
        stats.line
    );
    assert!(
        number(&stats, &["stats", "server", "connections_total"]) >= (IDLE + ACTIVE + 1) as f64,
        "{}",
        stats.line
    );

    drop(idle);
    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

#[test]
fn stats_wire_field_names_survive_the_reactor_rewrite() {
    // The stats response is machine-consumed (dashboards, ci.sh, the
    // serve bench): every field name below is wire contract. A rename
    // breaks this test on purpose — bump consumers in the same change.
    let server = TestServer::start(4, 8);
    let mut client = server.connect();
    client
        .send_raw(&testkit::sweep_line("s1", 4, &[1.0, 2.0]))
        .expect("send sweep");
    client.wait("s1").expect("sweep response");
    let stats = client.stats("st").expect("stats response");

    for field in [
        "id",
        "requests",
        "responses",
        "cancellations",
        "bytes_in",
        "bytes_out",
        "pending",
        "queue_ns_total",
        "queue_ns_max",
        "service_ns_total",
        "service_ns_max",
    ] {
        number(&stats, &["stats", "conn", field]);
    }
    for field in [
        "connections_open",
        "connections_total",
        "connections_rejected",
        "requests",
        "responses",
        "cancelled_on_disconnect",
        "inflight_budget",
    ] {
        number(&stats, &["stats", "server", field]);
    }
    for field in [
        "requests",
        "cells",
        "cache_hits",
        "cache_misses",
        "cache_len",
    ] {
        number(&stats, &["stats", "engine", field]);
    }
    // The engine block also names its dispatched backends — string
    // fields, pinned since the SIMD/dispatch PR.
    for field in ["kernel_backend", "dist_backend"] {
        match stats.member(&["stats", "engine", field]) {
            Some(Json::Str(name)) if !name.is_empty() => {}
            other => panic!("stats.engine.{field} must be a nonempty string, got {other:?}"),
        }
    }

    // And the counters in it must be live, not placeholders. The
    // snapshot is taken before its own response line is counted, so it
    // sees two requests (sweep + stats) but only the sweep's response.
    assert_eq!(number(&stats, &["stats", "conn", "requests"]), 2.0);
    assert_eq!(number(&stats, &["stats", "server", "responses"]), 1.0);
    assert!(number(&stats, &["stats", "engine", "cells"]) >= 8.0);

    let summary = server.stop();
    assert!(summary.contains("drained cleanly"), "{summary}");
}

/// The real daemon under a real `SIGTERM`: spawned binary, Unix socket,
/// two clients with work in flight, lossless drain, exit status 0.
#[cfg(unix)]
#[test]
fn sigterm_drains_the_spawned_daemon_losslessly() {
    use std::io::{BufRead, BufReader, Read};

    let socket =
        std::env::temp_dir().join(format!("zeroconf-serve-test-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_zeroconf-serve"))
        .args([
            "--unix",
            &socket.display().to_string(),
            "--workers",
            "2",
            "--inflight",
            "4",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn zeroconf-serve");

    struct Reap(std::process::Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut child_stdout = BufReader::new(child.stdout.take().expect("capture child stdout"));
    let mut reap = Reap(child);

    let mut announce = String::new();
    child_stdout
        .read_line(&mut announce)
        .expect("read listening line");
    assert!(announce.starts_with("listening unix:"), "{announce}");

    let mut client_a = Client::connect_unix(&socket).expect("connect client a");
    let mut client_b = Client::connect_unix(&socket).expect("connect client b");
    client_a
        .send_raw(&testkit::heavy_sweep_line("a1", 32, 2000))
        .expect("send a1");
    client_a
        .send_raw(&testkit::sweep_line("a2", 4, &[1.0, 2.0]))
        .expect("send a2");
    client_b
        .send_raw(&testkit::heavy_sweep_line("b1", 32, 2000))
        .expect("send b1");
    client_b
        .send_raw(&testkit::sweep_line("b2", 4, &[1.5, 2.5]))
        .expect("send b2");
    std::thread::sleep(Duration::from_millis(200));

    let status = std::process::Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", reap.0.id())])
        .status()
        .expect("deliver SIGTERM");
    assert!(status.success(), "kill -TERM failed");

    // Every request sent before the signal is answered during the drain.
    for response in client_a.wait_all(&["a1", "a2"]).expect("client a drained") {
        assert!(response.has_cells(), "{}", response.line);
    }
    for response in client_b.wait_all(&["b1", "b2"]).expect("client b drained") {
        assert!(response.has_cells(), "{}", response.line);
    }
    drop(client_a);
    drop(client_b);

    let status = reap.0.wait().expect("daemon exits");
    assert!(
        status.success(),
        "SIGTERM drain must exit 0, got {status:?}"
    );
    let mut rest = String::new();
    child_stdout
        .read_to_string(&mut rest)
        .expect("read daemon summary");
    assert!(rest.contains("drained cleanly"), "{rest}");
    assert!(!socket.exists(), "socket file must be unlinked on drain");
}

/// The real `zeroconf-serve` binary at its default flags on an ephemeral
/// loopback port, killed and reaped on drop.
#[cfg(target_os = "linux")]
struct SpawnedDaemon {
    child: std::process::Child,
    addr: String,
}

#[cfg(target_os = "linux")]
impl SpawnedDaemon {
    fn start() -> SpawnedDaemon {
        use std::io::{BufRead, BufReader};

        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_zeroconf-serve"))
            .args(["--tcp", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn zeroconf-serve");
        let mut announce = String::new();
        BufReader::new(child.stdout.take().expect("capture child stdout"))
            .read_line(&mut announce)
            .expect("read listening line");
        let addr = announce
            .trim()
            .strip_prefix("listening tcp:")
            .unwrap_or_else(|| panic!("unexpected announce line {announce:?}"))
            .to_owned();
        SpawnedDaemon { child, addr }
    }

    fn connect(&self) -> Client {
        Client::connect_tcp(&self.addr).expect("connect to spawned daemon")
    }

    /// The daemon's live thread count, from its own `/proc` entry (the
    /// test process runs other tests' threads in parallel).
    fn threads(&self) -> usize {
        std::fs::read_dir(format!("/proc/{}/task", self.child.id()))
            .expect("read the daemon's task list")
            .count()
    }
}

#[cfg(target_os = "linux")]
impl Drop for SpawnedDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Thread use is bounded by configuration, never by clients: the daemon
/// runs one executor team, so a connection that sends work adds no
/// thread.
#[cfg(target_os = "linux")]
#[test]
fn daemon_thread_count_does_not_grow_with_busy_connections() {
    let daemon = SpawnedDaemon::start();
    let mut clients = Vec::new();
    let sweep_on_a_new_connection = |clients: &mut Vec<Client>| {
        let mut client = daemon.connect();
        let id = format!("s{}", clients.len());
        client
            .send_raw(&testkit::sweep_line(&id, 4, &[1.0, 2.0]))
            .expect("send sweep");
        assert!(client.wait(&id).expect("sweep answer").has_cells());
        clients.push(client);
    };
    sweep_on_a_new_connection(&mut clients);
    let with_one = daemon.threads();
    // 64 is the default --max-conns.
    while clients.len() < 64 {
        sweep_on_a_new_connection(&mut clients);
    }
    assert_eq!(
        daemon.threads(),
        with_one,
        "64 busy connections must run on the threads one connection had"
    );
}

/// One client line nested 200 000 levels deep must not exhaust the
/// reactor thread's stack in the recursive JSON parser (that would abort
/// the daemon and every client with it): it is one error line, and the
/// same connection is served on.
#[cfg(target_os = "linux")]
#[test]
fn deeply_nested_line_is_one_error_and_the_connection_serves_on() {
    let daemon = SpawnedDaemon::start();
    let mut client = daemon.connect();
    client
        .send_raw(&"[".repeat(200_000))
        .expect("send nested line");
    client
        .send_raw(&testkit::sweep_line("s1", 4, &[1.0, 2.0]))
        .expect("send sweep");
    let error = client
        .next_line()
        .expect("read error line")
        .expect("error line before EOF");
    assert!(error.contains("nesting deeper than"), "{error}");
    let answer = client
        .next_line()
        .expect("read sweep answer")
        .expect("sweep answer before EOF");
    assert!(
        answer.contains("\"id\":\"s1\"") && answer.contains("\"cells\""),
        "{answer}"
    );
}

/// A client that streams bytes with no newline cannot grow the daemon's
/// memory past [`MAX_LINE_BYTES`]: once the line passes the cap it gets
/// one error line at once, the rest of it is discarded up to its
/// newline, and the next line on the same connection is answered.
#[test]
fn newline_free_stream_past_the_line_cap_is_one_error_and_serves_on() {
    use std::io::{BufRead, BufReader, Write};

    let server = TestServer::start(4, 8);
    let mut stream = std::net::TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut next_line = || {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("an answer within the read timeout");
        line
    };

    stream
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send oversize prefix");
    let error = next_line();
    assert!(
        error.contains("\"error\"") && error.contains(&MAX_LINE_BYTES.to_string()),
        "{error}"
    );

    // The rest of the oversize line is discarded without another answer.
    stream.write_all(&[b'y'; 4096]).expect("send more of it");
    stream.write_all(b"\n").expect("end the oversize line");
    let sweep = testkit::sweep_line("after", 4, &[1.0, 2.0]);
    writeln!(stream, "{sweep}").expect("send sweep");
    let answer = next_line();
    assert!(
        answer.contains("\"id\":\"after\"") && answer.contains("\"cells\""),
        "{answer}"
    );
}
