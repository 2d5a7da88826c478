//! One client connection as a readiness-driven state machine.
//!
//! Connections no longer own a thread: the endpoint's event loop
//! ([`crate::listener::EndpointLoop`]) drives every [`Connection`]
//! through nonblocking reads, incremental JSON-line framing, fair
//! admission, and coalesced vectored writes. A connection therefore
//! *never blocks* — every method here either makes progress with the
//! bytes and permits available right now or records what it is waiting
//! for in its [`Interest`].
//!
//! The per-connection session ([`PipelinedSession`], a handle on the
//! server's one [`ExecutorTeam`](zeroconf_engine::ExecutorTeam)) is
//! created lazily on the first request line, so idle connections cost a
//! socket and a few buffers each, and busy ones add no threads: the
//! team's executors serve every connection. Request-id namespacing is
//! unchanged from the threaded server: the server-side identity of a
//! request is `conn_id:wire_id`.
//!
//! **Backpressure** is the load-bearing invariant. Completions are
//! *always* polled — a permit returns to the [`FairBudget`] the moment
//! its response is polled out of the pipeline, never later — so a slow
//! reader can never pin a permit (PR 6's poll-time-release rule,
//! extended to the reactor). What a slow reader *does* stall is its own
//! intake: once the connection's output buffer crosses
//! [`OUT_HIGH_WATER`] (or too many lines are parked waiting for
//! permits), the loop stops reading from that socket and stops admitting
//! its parked lines — stepping out of the budget queue rather than
//! camping at its head — so buffered output stays bounded by the high
//! water mark plus the responses already admitted, and kernel TCP
//! backpressure propagates to the client.
//!
//! End-of-stream semantics are those of the threaded server: **EOF (or
//! any read/write failure) means the client is gone** — the socket is
//! torn down immediately, unanswered requests are cancelled, and the
//! connection lingers as a socketless "zombie" only until the engine
//! confirms those cancellations, at which point its permits are all
//! home. Server drain is the opposite: stop reading, then answer
//! everything already received — parked lines trickle through the
//! fair budget as permits free, exactly as they would have without
//! the drain — flush, close.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use zeroconf_engine::wire::{self, Json, PipelinedSession};

use crate::metrics::{oversize_line_refusal, stats_response_line, ConnMetrics, StatsSnapshot};
use crate::reactor::{Interest, WakeHandle};
use crate::ServerShared;

/// Buffered-output bound (bytes) above which the connection stops
/// reading and admitting: the client must drain what it already has
/// coming before it can cause more to exist.
const OUT_HIGH_WATER: usize = 256 * 1024;

/// Parked-line bound with the same role on the input side: a client
/// that floods requests faster than the budget admits them is left in
/// the kernel socket buffer, not in server memory.
const MAX_PARKED: usize = 1024;

/// Read chunk size, and (via [`MAX_READ_CHUNKS`]) the per-event read
/// bound that keeps one chatty connection from starving the loop.
const READ_CHUNK: usize = 4096;
const MAX_READ_CHUNKS: usize = 16;

/// Longest request line the daemon frames, newline excluded: 1 MiB,
/// hundreds of times the longest line the workspace's clients send (a
/// sweep with an explicit `r` list of a few hundred values is a few
/// KiB). A longer line is answered with one error line and discarded up
/// to its newline, so a newline-free stream costs the daemon at most
/// this much memory per connection.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A connected client socket. The reactor needs concrete types (for
/// `as_raw_fd`), not the old `ClientStream` trait object.
pub(crate) enum ClientSocket {
    Tcp(TcpStream),
    Unix(std::os::unix::net::UnixStream),
}

impl ClientSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientSocket::Tcp(s) => s.read(buf),
            ClientSocket::Unix(s) => s.read(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            ClientSocket::Tcp(s) => s.write_vectored(bufs),
            ClientSocket::Unix(s) => s.write_vectored(bufs),
        }
    }

    /// Best-effort blocking write of one refusal line (used on sockets
    /// rejected at the connection cap, before they join the loop).
    pub(crate) fn write_line_best_effort(&mut self, line: &str) {
        let result = match self {
            ClientSocket::Tcp(s) => s
                .write_all(line.as_bytes())
                .and_then(|()| s.write_all(b"\n"))
                .and_then(|()| s.flush()),
            ClientSocket::Unix(s) => s
                .write_all(line.as_bytes())
                .and_then(|()| s.write_all(b"\n"))
                .and_then(|()| s.flush()),
        };
        let _ = result;
    }

    pub(crate) fn raw_fd(&self) -> crate::reactor::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            ClientSocket::Tcp(s) => s.as_raw_fd(),
            ClientSocket::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// The coalescing output buffer: response lines queue as byte chunks
/// and leave through `writev`-style vectored writes, so a burst of
/// completions costs one syscall, not one per line.
#[derive(Default)]
struct OutBuf {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already written.
    head: usize,
    /// Total unwritten bytes across all chunks.
    len: usize,
}

/// At most this many `IoSlice`s per vectored write (the kernel caps at
/// `IOV_MAX` anyway; 64 keeps the stack array small).
const MAX_IOVECS: usize = 64;

impl OutBuf {
    /// Queues `line` and its newline, reusing the line's buffer: an
    /// answer is never copied on its way to the socket.
    fn push_line(&mut self, line: String) {
        let mut chunk = line.into_bytes();
        chunk.push(b'\n');
        self.len += chunk.len();
        self.chunks.push_back(chunk);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        self.chunks.clear();
        self.head = 0;
        self.len = 0;
    }

    /// Writes as much as the socket will take. Returns the bytes moved;
    /// `WouldBlock` is progress-so-far, any other error propagates.
    fn write_to(&mut self, socket: &mut ClientSocket) -> io::Result<usize> {
        let mut written_total = 0;
        while !self.is_empty() {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(MAX_IOVECS.min(self.chunks.len()));
            for (i, chunk) in self.chunks.iter().take(MAX_IOVECS).enumerate() {
                let start = if i == 0 { self.head } else { 0 };
                slices.push(IoSlice::new(&chunk[start..]));
            }
            match socket.write_vectored(&slices) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(mut n) => {
                    written_total += n;
                    self.len -= n;
                    while n > 0 {
                        let Some(front) = self.chunks.front() else {
                            break;
                        };
                        let remaining = front.len() - self.head;
                        if n >= remaining {
                            n -= remaining;
                            self.head = 0;
                            self.chunks.pop_front();
                        } else {
                            self.head += n;
                            n = 0;
                        }
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(written_total)
    }
}

/// One client connection, owned and driven by its endpoint's event loop.
pub(crate) struct Connection {
    /// `None` once the client is gone and the loop has dropped the fd.
    socket: Option<ClientSocket>,
    conn_id: u64,
    shared: Arc<ServerShared>,
    /// The loop's wakeup handle, cloned into the session's completion
    /// notifier so engine executors can wake `epoll_wait`.
    wake: WakeHandle,
    /// Created on the first request line; idle connections stay cheap.
    session: Option<PipelinedSession>,
    /// Bytes read but not yet framed into a line.
    inbuf: LineFramer,
    /// Complete lines waiting for a budget permit (or behind one that
    /// is): admission order is arrival order, always.
    parked: VecDeque<String>,
    out: OutBuf,
    metrics: ConnMetrics,
    /// Budget permits held; kept equal to the session's pending count
    /// (requests, not distinct wire ids).
    permits: usize,
    /// Client gone (EOF, read/write error, hangup): withdrawing.
    gone: bool,
    /// Server drain: no more reading; parked and in-flight work is
    /// still answered, then the output is flushed and the conn closes.
    draining: bool,
}

impl Connection {
    pub(crate) fn new(
        socket: ClientSocket,
        conn_id: u64,
        shared: Arc<ServerShared>,
        wake: WakeHandle,
    ) -> Connection {
        Connection {
            socket: Some(socket),
            conn_id,
            shared,
            wake,
            session: None,
            inbuf: LineFramer::default(),
            parked: VecDeque::new(),
            out: OutBuf::default(),
            metrics: ConnMetrics::default(),
            permits: 0,
            gone: false,
            draining: false,
        }
    }

    /// What this connection currently waits on. The event loop
    /// reregisters the fd whenever this changes.
    pub(crate) fn interest(&self) -> Interest {
        Interest {
            readable: !self.gone && !self.draining && !self.intake_gated(),
            writable: !self.gone && !self.out.is_empty(),
        }
    }

    /// Whether intake is paused by backpressure: the client has enough
    /// output to drain (or enough lines parked) already.
    fn intake_gated(&self) -> bool {
        self.out.len() >= OUT_HIGH_WATER || self.parked.len() >= MAX_PARKED
    }

    /// The connection has nothing left to do and can be reaped.
    pub(crate) fn finished(&self) -> bool {
        let pending = self.pending();
        if self.gone {
            return pending == 0;
        }
        self.draining && pending == 0 && self.parked.is_empty() && self.out.is_empty()
    }

    pub(crate) fn is_gone(&self) -> bool {
        self.gone
    }

    /// Takes the socket so the loop can deregister and drop the fd
    /// (teardown order matters: deregister, then close).
    pub(crate) fn take_socket(&mut self) -> Option<ClientSocket> {
        self.socket.take()
    }

    pub(crate) fn raw_fd(&self) -> Option<crate::reactor::RawFd> {
        self.socket.as_ref().map(ClientSocket::raw_fd)
    }

    fn pending(&self) -> usize {
        self.session.as_ref().map_or(0, PipelinedSession::pending)
    }

    /// Requests withdrawn because the client vanished (for the server
    /// gauge, already counted — exposed for loop-side assertions only).
    #[cfg(test)]
    fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Readable readiness: read until `WouldBlock` (bounded per event),
    /// frame complete lines, process or park each in arrival order.
    pub(crate) fn on_readable(&mut self) {
        if self.gone || self.draining {
            return;
        }
        let mut chunk = [0_u8; READ_CHUNK];
        for _ in 0..MAX_READ_CHUNKS {
            if self.intake_gated() {
                break;
            }
            let Some(socket) = &mut self.socket else {
                return;
            };
            match socket.read(&mut chunk) {
                Ok(0) => {
                    self.become_gone();
                    return;
                }
                Ok(n) => {
                    self.metrics.bytes_in += n as u64;
                    for frame in self.inbuf.push(&chunk[..n]) {
                        let Some(line) = frame else {
                            // An oversize line never reaches the budget
                            // or the session: its one answer is this.
                            self.count_request();
                            self.push_out(oversize_line_refusal());
                            continue;
                        };
                        // Once anything is parked, everything parks:
                        // responses must come back in request order.
                        if !self.parked.is_empty() || !self.try_process_line(&line) {
                            self.parked.push_back(line);
                        }
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                    ) =>
                {
                    break;
                }
                Err(_) => {
                    self.become_gone();
                    return;
                }
            }
        }
    }

    /// Hangup/error readiness: `EPOLLHUP`/`EPOLLERR` mean the peer is
    /// unreachable in both directions (a half-close arrives as readable
    /// EOF instead), so the client is gone no matter what state the
    /// connection was in — including drain, where waiting to flush to a
    /// dead socket would stall the whole shutdown.
    pub(crate) fn on_hangup(&mut self) {
        self.become_gone();
    }

    /// The per-tick pump: poll completions (always — this is what frees
    /// permits), retry parked admissions, flush output.
    pub(crate) fn pump(&mut self) {
        let ready = match &mut self.session {
            Some(session) => session.poll_responses(),
            None => Vec::new(),
        };
        // Permits return the moment completions are polled — before any
        // write, which can lag behind a slow reader. A slow reader
        // therefore backpressures only itself, never the shared budget.
        self.sync_permits();
        if !self.gone {
            for line in ready {
                self.push_out(line);
            }
            self.admit_parked();
            self.flush();
        }
    }

    /// Writable readiness: same flush the pump does, but driven by the
    /// socket opening up rather than by new completions.
    pub(crate) fn on_writable(&mut self) {
        self.flush();
    }

    /// Enters drain mode: discard unframed input and stop reading.
    /// Everything already framed — parked lines included — is still
    /// answered: the pump keeps retrying [`Connection::admit_parked`],
    /// so parked work flows through the fair budget as permits free,
    /// then the flush empties `out`. The pre-reactor daemon answered
    /// five pipelined requests against `--inflight 4` across a SIGTERM;
    /// losing the parked fifth would regress that invariant.
    pub(crate) fn begin_drain(&mut self) {
        if self.draining || self.gone {
            return;
        }
        self.draining = true;
        self.inbuf.clear();
        self.admit_parked();
    }

    /// Admits parked lines in order until one must keep waiting. Under
    /// backpressure the connection steps *out* of the budget queue —
    /// holding the queue head while refusing to make progress would
    /// starve every other connection.
    fn admit_parked(&mut self) {
        loop {
            if self.parked.is_empty() {
                return;
            }
            if self.intake_gated_for_admission() {
                self.shared.budget.leave(self.conn_id);
                return;
            }
            let Some(line) = self.parked.pop_front() else {
                return;
            };
            if !self.try_process_line(&line) {
                self.parked.push_front(line);
                return;
            }
        }
    }

    /// Admission backpressure: the output-side half of
    /// [`Connection::intake_gated`]. Applies during drain too — a slow
    /// reader's parked work admits only as it consumes its responses,
    /// so even a draining connection never pins unbounded output.
    fn intake_gated_for_admission(&self) -> bool {
        self.out.len() >= OUT_HIGH_WATER
    }

    /// Attempts one request line. Returns `false` when the line needs a
    /// budget permit that is not available right now (the caller parks
    /// it; nothing has been counted or submitted).
    fn try_process_line(&mut self, line: &str) -> bool {
        let line = line.trim();
        if line.is_empty() {
            return true;
        }
        let parsed = wire::parse_json(line).ok();
        // Stats lines are answered *before* admission — the threaded
        // handler's ordering. They submit no engine work, so they must
        // never consume a permit: admitting first would leak one on a
        // crafted line carrying both "stats" and a work verb (acquired
        // here, but never counted in `self.permits`, so `sync_permits`
        // could never bring it home).
        if let Some(value) = &parsed {
            if value.get("stats").is_some() {
                self.count_request();
                let id = str_member(value, "id").unwrap_or_default().to_owned();
                let stats_line = stats_response_line(&id, &self.snapshot());
                self.push_out(stats_line);
                return true;
            }
        }
        let adds_work = parsed.as_ref().is_some_and(|v| {
            v.get("scenario").is_some()
                || v.get("rescore").is_some()
                || v.get(wire::VERB_CALIBRATE).is_some()
                || v.get(wire::VERB_FRONTIER).is_some()
        });
        if adds_work && !self.shared.budget.try_acquire(self.conn_id) {
            return false;
        }
        self.count_request();
        if let Some(value) = &parsed {
            if value.get("cancel").is_some() {
                self.metrics.cancellations += 1;
            }
        }
        if adds_work {
            self.permits += 1;
        }
        let immediate = self.session().submit_line(line);
        for response in immediate {
            self.push_out(response);
        }
        self.sync_permits();
        true
    }

    /// Test seam (listener drain tests): queues output exactly as a
    /// polled completion would, without needing a live session.
    #[cfg(test)]
    pub(crate) fn test_push_out(&mut self, line: String) {
        self.push_out(line);
    }

    /// Counts one request as processed (exactly once per line, at the
    /// point where the line can no longer be parked or refused).
    fn count_request(&mut self) {
        self.metrics.requests += 1;
        // ORDERING: server-wide statistics tally; readers only report it.
        self.shared
            .metrics
            .requests
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// The lazily created pipelined session, attached to the server's
    /// executor team; the completion notifier is wired to the loop's
    /// wakeup handle here.
    fn session(&mut self) -> &mut PipelinedSession {
        if self.session.is_none() {
            let session = PipelinedSession::attach(Arc::clone(&self.shared.team));
            let wake = self.wake.clone();
            session.set_completion_notifier(Arc::new(move || wake.notify()));
            self.session = Some(session);
        }
        // The arm above just filled the slot; this cannot recurse.
        match &mut self.session {
            Some(session) => session,
            None => unreachable!("session was just created"),
        }
    }

    /// Releases permits for requests no longer pending, keeping
    /// `permits == session.pending()`.
    fn sync_permits(&mut self) {
        let pending = self.pending();
        if self.permits > pending {
            self.shared.budget.release_many(self.permits - pending);
            self.permits = pending;
        }
    }

    /// Queues one response line (counted here, written by the flush).
    fn push_out(&mut self, line: String) {
        self.metrics.responses += 1;
        // ORDERING: server-wide statistics tally; readers only report it.
        self.shared
            .metrics
            .responses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.out.push_line(line);
    }

    /// Moves buffered output into the socket until it would block.
    fn flush(&mut self) {
        if self.gone || self.out.is_empty() {
            return;
        }
        let Some(socket) = &mut self.socket else {
            return;
        };
        match self.out.write_to(socket) {
            Ok(n) => self.metrics.bytes_out += n as u64,
            Err(_) => self.become_gone(),
        }
    }

    /// The client-gone transition: cancel every unanswered request of
    /// this connection (and only this one), discard everything buffered,
    /// step out of the budget queue. Permits for in-flight work come
    /// home as the engine confirms each cancellation (via the pump);
    /// until then the connection lingers socketless in the loop's map.
    fn become_gone(&mut self) {
        if self.gone {
            return;
        }
        self.gone = true;
        let abandoned = self.pending() as u64;
        self.metrics.cancellations += abandoned;
        // ORDERING: server-wide statistics tally; readers only report it.
        self.shared
            .metrics
            .cancelled_on_disconnect
            .fetch_add(abandoned, std::sync::atomic::Ordering::Relaxed);
        if let Some(session) = &mut self.session {
            let _ = session.cancel_all();
        }
        self.sync_permits();
        self.inbuf.clear();
        self.parked.clear();
        self.out.clear();
        self.shared.budget.leave(self.conn_id);
    }

    /// Final accounting when the loop reaps this connection.
    pub(crate) fn close(&mut self) {
        self.sync_permits();
        // A reaped connection must not leak permits even if a session
        // invariant broke; the budget caps releases at capacity anyway.
        if self.permits > 0 {
            self.shared.budget.release_many(self.permits);
            self.permits = 0;
        }
        self.shared.budget.leave(self.conn_id);
        // ORDERING: statistics tally; the opened/closed pair is only a
        // gauge, momentary skew between the two counters is acceptable.
        self.shared
            .metrics
            .connections_closed
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn snapshot(&self) -> StatsSnapshot<'_> {
        let (pipeline, engine) = match &self.session {
            Some(session) => (session.pipeline_stats(), session.stats()),
            None => (
                zeroconf_engine::PipelineStats::default(),
                self.shared.team.engine().stats(),
            ),
        };
        StatsSnapshot {
            conn_id: self.conn_id,
            conn: self.metrics,
            pending: self.pending(),
            pipeline,
            server: &self.shared.metrics,
            budget_capacity: self.shared.budget.capacity(),
            engine,
        }
    }
}

/// Incremental `\n` framing under the [`MAX_LINE_BYTES`] cap. Each
/// byte is scanned for a newline once, however many reads a line takes.
#[derive(Default)]
struct LineFramer {
    /// The unframed tail: part of one line, never a newline.
    buf: Vec<u8>,
    /// Discarding the rest of an oversize line, up to its newline.
    skipping: bool,
}

impl LineFramer {
    /// Frames the lines `bytes` completes, in order: `Some(line)` for a
    /// line within the cap, `None` (once per line) for an oversize one.
    fn push(&mut self, mut bytes: &[u8]) -> Vec<Option<String>> {
        let mut frames = Vec::new();
        while let Some(pos) = bytes.iter().position(|&b| b == b'\n') {
            let (head, rest) = (&bytes[..pos], &bytes[pos + 1..]);
            bytes = rest;
            if std::mem::take(&mut self.skipping) {
                continue;
            }
            if self.buf.len() + head.len() > MAX_LINE_BYTES {
                frames.push(None);
            } else {
                self.buf.extend_from_slice(head);
                frames.push(Some(String::from_utf8_lossy(&self.buf).into_owned()));
            }
            self.buf.clear();
        }
        if !self.skipping {
            if self.buf.len() + bytes.len() > MAX_LINE_BYTES {
                frames.push(None);
                self.buf = Vec::new();
                self.skipping = true;
            } else {
                self.buf.extend_from_slice(bytes);
            }
        }
        frames
    }

    /// Forgets the unframed tail (drain, client gone).
    fn clear(&mut self) {
        *self = LineFramer::default();
    }
}

fn str_member<'j>(value: &'j Json, key: &str) -> Option<&'j str> {
    match value.get(key) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(frames: Vec<Option<String>>) -> Vec<String> {
        frames
            .into_iter()
            .map(|f| f.expect("no oversize frame"))
            .collect()
    }

    #[test]
    fn framer_keeps_partial_tail() {
        let mut framer = LineFramer::default();
        assert_eq!(lines(framer.push(b"one\ntwo\nthr")), vec!["one", "two"]);
        assert_eq!(framer.buf, b"thr");
        assert_eq!(lines(framer.push(b"ee\n")), vec!["three"]);
        assert!(framer.buf.is_empty());
    }

    #[test]
    fn framer_handles_empty_and_blank_lines() {
        let mut framer = LineFramer::default();
        assert_eq!(lines(framer.push(b"\n\nx\n")), vec!["", "", "x"]);
        assert!(framer.buf.is_empty());
    }

    #[test]
    fn an_oversize_line_is_one_frame_and_is_skipped_to_its_newline() {
        let mut framer = LineFramer::default();
        let chunk = vec![b'x'; READ_CHUNK];
        let mut frames = Vec::new();
        for _ in 0..=MAX_LINE_BYTES / READ_CHUNK {
            frames.extend(framer.push(&chunk));
        }
        assert_eq!(frames, vec![None], "one frame once the cap is passed");
        assert!(framer.buf.is_empty(), "the oversize prefix is dropped");
        assert!(framer.push(&chunk).is_empty(), "the rest is discarded");
        assert_eq!(lines(framer.push(b"tail\nnext\n")), vec!["next"]);

        // The cap counts bytes, newline excluded: a line exactly at the
        // cap is served, one byte more is refused even when its newline
        // arrives in the read that crosses the cap.
        let mut framer = LineFramer::default();
        let at_cap = vec![b'y'; MAX_LINE_BYTES];
        assert!(framer.push(&at_cap).is_empty());
        assert_eq!(lines(framer.push(b"\n"))[0].len(), MAX_LINE_BYTES);
        assert!(framer.push(&at_cap).is_empty());
        assert_eq!(framer.push(b"z\nok\n"), vec![None, Some("ok".to_owned())]);
    }

    #[test]
    fn outbuf_tracks_partial_vectored_writes() {
        // A socketpair via TcpStream would need a real fd; exercise the
        // chunk bookkeeping directly instead.
        let mut out = OutBuf::default();
        out.push_line("hello".to_owned());
        out.push_line("world!".to_owned());
        assert_eq!(out.len(), 13);
        assert!(!out.is_empty());
        out.clear();
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
    }

    #[test]
    fn outbuf_flushes_through_a_real_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut socket = ClientSocket::Tcp(server);

        let mut out = OutBuf::default();
        out.push_line("alpha".to_owned());
        out.push_line("beta".to_owned());
        let written = out.write_to(&mut socket).unwrap();
        assert_eq!(written, 11);
        assert!(out.is_empty());

        let mut reader = std::io::BufReader::new(client);
        let mut got = String::new();
        std::io::BufRead::read_line(&mut reader, &mut got).unwrap();
        assert_eq!(got, "alpha\n");
        got.clear();
        std::io::BufRead::read_line(&mut reader, &mut got).unwrap();
        assert_eq!(got, "beta\n");
    }

    fn test_shared(inflight: usize) -> Arc<crate::ServerShared> {
        let budget = crate::FairBudget::new(inflight);
        Arc::new(crate::ServerShared {
            team: crate::daemon_team(
                zeroconf_engine::Engine::new(zeroconf_engine::EngineConfig {
                    workers: 1,
                    ..zeroconf_engine::EngineConfig::default()
                }),
                &budget,
            ),
            budget,
            shutdown: crate::Shutdown::new(false),
            metrics: crate::ServerMetrics::default(),
            max_connections: 4,
        })
    }

    fn test_conn(shared: Arc<crate::ServerShared>) -> Connection {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let wake = WakeHandle::new().unwrap();
        Connection::new(ClientSocket::Tcp(server), 1, shared, wake)
    }

    #[test]
    fn interest_reflects_backpressure_and_output() {
        let mut conn = test_conn(test_shared(2));

        // Fresh connection: read-only interest.
        assert_eq!(conn.interest(), Interest::READ);

        // Queued output adds write interest.
        conn.push_out("pong".to_owned());
        assert!(conn.interest().writable);
        assert!(conn.interest().readable);

        // Crossing the high-water mark gates reading.
        let big = "x".repeat(OUT_HIGH_WATER);
        conn.push_out(big);
        assert!(!conn.interest().readable, "reads gate above high water");
        assert!(conn.interest().writable);
        assert_eq!(conn.parked_len(), 0);
    }

    /// Regression: a crafted line carrying both `"stats"` and a work
    /// verb must be answered as a stats request *without* touching the
    /// budget. The ordering bug (admission before the stats
    /// early-return) acquired a permit such a line never released,
    /// permanently shrinking the shared pool.
    #[test]
    fn stats_line_with_work_verb_never_consumes_a_permit() {
        let shared = test_shared(2);
        let capacity = shared.budget.capacity();
        let mut conn = test_conn(Arc::clone(&shared));

        for line in [
            r#"{"v":1,"id":"s","stats":true}"#,
            r#"{"v":1,"id":"s","stats":true,"scenario":{"n":4}}"#,
            r#"{"v":1,"id":"s","stats":true,"rescore":{}}"#,
        ] {
            assert!(conn.try_process_line(line), "stats lines never park");
        }
        assert_eq!(
            shared.budget.available(),
            capacity,
            "stats lines must not acquire (or leak) budget permits"
        );
        assert_eq!(conn.permits, 0);
        assert_eq!(conn.metrics.responses, 3, "each stats line is answered");
    }

    /// Regression: permits count requests, not distinct wire ids. When
    /// they counted ids, lines sharing one id held a single permit
    /// between them, so a connection could put more tickets on the
    /// daemon's team than the budget allows and block the reactor in
    /// the team's depth gate.
    #[test]
    fn lines_sharing_an_id_each_hold_a_permit() {
        let shared = test_shared(2);
        let capacity = shared.budget.capacity();
        let mut conn = test_conn(Arc::clone(&shared));
        let sweep = zeroconf_engine::testkit::sweep_line("x", 4, &[1.0, 2.0]);

        assert!(conn.try_process_line(&sweep));
        assert!(conn.try_process_line(&sweep));
        assert!(
            !conn.try_process_line(&sweep),
            "the line past capacity waits for a permit"
        );
        assert_eq!(conn.permits, capacity);
        assert_eq!(shared.budget.available(), 0);

        conn.parked.push_back(sweep);
        while !conn.parked.is_empty() || conn.pending() > 0 {
            // Read in this order, the sum can only over-state the
            // tickets: only this thread returns permits, and executors
            // only take tickets off the team meanwhile.
            let available = shared.budget.available();
            assert!(
                available + shared.team.in_flight() <= capacity,
                "every ticket on the team holds a permit"
            );
            conn.pump();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        conn.pump();
        assert_eq!(conn.permits, 0);
        assert_eq!(shared.budget.available(), capacity);
    }
}
