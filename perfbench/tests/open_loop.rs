//! The open loop times each request from when it was due, so a stall in
//! the server shows in the latencies of everything scheduled behind it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Duration;

use zeroconf_client::Client;
use zeroconf_perfbench::gen::{Request, Unit, Verb};
use zeroconf_perfbench::load::open_loop;

/// A one-connection stand-in for the daemon: answers each line with a
/// minimal well-formed calibrate answer, stalling once before `stall_at`.
fn stalling_server(stall_at: usize, stall: Duration) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let mut writer = stream.try_clone().unwrap();
        for (k, line) in BufReader::new(stream).lines().enumerate() {
            let Ok(line) = line else { break };
            let id = line.split('"').nth(3).unwrap_or_default().to_owned();
            if k == stall_at {
                std::thread::sleep(stall);
            }
            let answer =
                format!("{{\"v\":1,\"id\":\"{id}\",\"calibrate\":{{\"error_cost\":1.0}}}}\n");
            if writer.write_all(answer.as_bytes()).is_err() {
                break;
            }
        }
    });
    (addr, handle)
}

#[test]
fn a_stall_shows_in_the_latencies_of_later_requests() {
    const UNITS: u64 = 30;
    const RATE: f64 = 100.0; // one request due every 10 ms
    let stall = Duration::from_millis(200);
    let (addr, server) = stalling_server(5, stall);
    let units: Vec<(u64, Unit)> = (0..UNITS)
        .map(|k| {
            let id = format!("k{k}");
            let request = Request {
                line: format!("{{\"id\":\"{id}\"}}"),
                id,
                verb: Verb::Calibrate,
                cells: 1,
            };
            (k, vec![request])
        })
        .collect();
    let mut clients = vec![Client::connect_tcp(&addr).unwrap()];
    let result = open_loop(&mut clients, &units, RATE, None).unwrap();
    drop(clients);
    server.join().unwrap();

    assert_eq!(result.attempted, UNITS);
    assert_eq!(result.failed, 0, "{:?}", result.messages);
    let latency_ms = |id: u64| {
        let mut by_completion = result.outcomes.clone();
        by_completion.sort_by(|a, b| a.at.total_cmp(&b.at));
        by_completion[id as usize].latency * 1e3
    };
    // Request 5 is due at 50 ms and answered after the 200 ms stall; the
    // requests due at 60..=200 ms queue behind it. Timed from their due
    // time they carry the remaining stall; timed from their (late) send
    // they would not.
    assert!(
        latency_ms(5) >= 190.0,
        "stalled request: {} ms",
        latency_ms(5)
    );
    assert!(
        latency_ms(10) >= 140.0,
        "queued request: {} ms",
        latency_ms(10)
    );
    assert!(
        latency_ms(UNITS - 1) < 50.0,
        "after recovery: {} ms",
        latency_ms(UNITS - 1)
    );
    // The generator itself ran late while it waited: the lag shows it.
    let worst_lag_ms = result.send_lag.iter().copied().fold(0.0, f64::max) * 1e3;
    assert!(worst_lag_ms >= 100.0, "send lag {worst_lag_ms} ms");
}
