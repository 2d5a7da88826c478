//! The readiness shim: a minimal, vendored `epoll(7)` surface.
//!
//! The serve daemon runs one event-loop thread per endpoint; this module
//! is the only place that loop touches the kernel's readiness API. Like
//! [`zeroconf_engine::signal`] — the workspace's other FFI site — it is
//! deliberately tiny and self-contained: a handful of POSIX constants, a
//! few-symbol `extern "C"` block, and safe wrappers that own their file
//! descriptors ([`std::os::fd::OwnedFd`], closed on drop). Three things
//! are exported:
//!
//! - [`Poller`]: level-triggered readiness over registered descriptors —
//!   `epoll_create1`/`epoll_ctl`/`epoll_wait`.
//! - [`WakeHandle`]: the completion-wakeup channel from the engine's
//!   executor threads into the loop — an `eventfd(2)`. Cloneable and
//!   `Send + Sync`; registered with the poller like any descriptor, so
//!   an engine completion wakes `epoll_wait` exactly like socket
//!   readiness does.
//! - [`set_nonblocking`]: `fcntl(F_SETFL, O_NONBLOCK)` for accepted
//!   sockets (`accept(2)` does not inherit the listener's flags).
//!
//! Off Linux the poller and wakeup constructors return
//! [`io::ErrorKind::Unsupported`](std::io::ErrorKind::Unsupported): the
//! daemon compiles on other unix targets but reports at startup that
//! readiness serving needs Linux.
//!
//! Every `unsafe` block carries its own `SAFETY:` justification and the
//! module is on the audit's unsafe-confinement allowlist
//! (`zeroconf audit`, rule 1); the invariants are catalogued in
//! DESIGN.md ("Unsafe inventory & invariants").

/// What a registered descriptor wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Interest {
    /// Wake when the descriptor has bytes to read (or a peer hangup to
    /// observe as EOF).
    pub(crate) readable: bool,
    /// Wake when the descriptor can accept writes again.
    pub(crate) writable: bool,
}

impl Interest {
    pub(crate) const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// What actually happened on a descriptor, as reported by one wait.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Readiness {
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    /// Error or hangup: the kernel reports these regardless of interest;
    /// the connection should be read to EOF and torn down.
    pub(crate) hangup: bool,
}

/// One readiness report: the token passed at registration, plus what the
/// descriptor is ready for.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub(crate) token: u64,
    pub(crate) ready: Readiness,
}

pub(crate) use imp::{set_nonblocking, Poller, WakeHandle};

pub(crate) type RawFd = std::os::unix::io::RawFd;

#[cfg(target_os = "linux")]
mod imp {
    use super::{Event, Interest, Readiness};
    use std::ffi::c_int;
    use std::io;
    use std::os::fd::{FromRawFd, OwnedFd};
    use std::os::unix::io::{AsRawFd, RawFd};
    use std::sync::Arc;
    use std::time::Duration;

    /// Linux `epoll`/`eventfd`/`fcntl` constants (stable kernel ABI,
    /// identical across architectures this workspace builds on).
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;
    const F_GETFL: c_int = 3;
    const F_SETFL: c_int = 4;
    const O_NONBLOCK: c_int = 0o4000;

    /// Mirror of the kernel's `struct epoll_event`. The kernel ABI packs
    /// it on x86-64 (and only there), so the layout attribute is
    /// arch-conditional, exactly as in the system headers.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        /// `epoll_create1(2)`: a new epoll instance; returns its fd or -1.
        fn epoll_create1(flags: c_int) -> c_int;
        /// `epoll_ctl(2)`: add/modify/remove one descriptor's registration.
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        /// `epoll_wait(2)`: blocks up to `timeout` ms for readiness events.
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        /// `eventfd(2)`: a kernel counter usable as a wakeup channel.
        fn eventfd(initval: u32, flags: c_int) -> c_int;
        /// `read(2)` / `write(2)`: used only on the eventfd (8-byte counter).
        fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
        fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
        /// `fcntl(2)`: get/set descriptor status flags (`O_NONBLOCK`).
        fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    }

    fn check(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Marks `fd` nonblocking. Accepted sockets need this explicitly:
    /// `accept(2)` does not inherit the listening socket's flags.
    pub(crate) fn set_nonblocking(fd: RawFd) -> io::Result<()> {
        // SAFETY: `fcntl(F_GETFL)` on a caller-owned open descriptor reads
        // its status flags; no memory is passed, no aliasing is possible.
        let flags = check(unsafe { fcntl(fd, F_GETFL, 0) })?;
        // SAFETY: `fcntl(F_SETFL)` with the flags just read plus
        // `O_NONBLOCK` only changes I/O mode; the descriptor stays owned
        // by the caller.
        check(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
        Ok(())
    }

    fn interest_mask(interest: Interest) -> u32 {
        let mut mask = 0;
        if interest.readable {
            // RDHUP makes a peer's half-close visible as readiness, so a
            // vanished client is noticed without a read timeout tick.
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            mask |= EPOLLOUT;
        }
        mask
    }

    /// Level-triggered readiness over registered descriptors (epoll).
    pub(crate) struct Poller {
        epoll: OwnedFd,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            // SAFETY: `epoll_create1` takes only a flags word and returns
            // a fresh descriptor (or -1, mapped to an error by `check`).
            let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: `fd` was just returned by a successful
            // `epoll_create1`, so it is open and owned by no one else;
            // wrapping it transfers that sole ownership to the `OwnedFd`,
            // which closes it exactly once on drop.
            let epoll = unsafe { OwnedFd::from_raw_fd(fd) };
            Ok(Poller {
                epoll,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&mut self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut event = EpollEvent {
                events: interest_mask(interest),
                data: token,
            };
            // SAFETY: `event` is a properly initialized, live stack value
            // matching the kernel's `struct epoll_event` layout; the
            // kernel copies it during the call and keeps no pointer to it.
            check(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) })?;
            Ok(())
        }

        /// Starts watching `fd`, reporting events under `token`.
        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        /// Changes what an already-registered `fd` is watched for.
        pub(crate) fn reregister(
            &mut self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        /// Stops watching `fd`. Must be called before the descriptor is
        /// closed (epoll auto-removal only happens on the *final* close).
        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // SAFETY: `EPOLL_CTL_DEL` ignores the event argument on every
            // kernel this workspace supports (>= 2.6.9), so a null
            // pointer is the documented calling convention.
            check(unsafe {
                epoll_ctl(
                    self.epoll.as_raw_fd(),
                    EPOLL_CTL_DEL,
                    fd,
                    std::ptr::null_mut(),
                )
            })?;
            Ok(())
        }

        /// Blocks up to `timeout` for readiness, appending reports to
        /// `events` (which is cleared first).
        pub(crate) fn wait(
            &mut self,
            events: &mut Vec<Event>,
            timeout: Duration,
        ) -> io::Result<()> {
            events.clear();
            let millis = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
            let max = c_int::try_from(self.buf.len()).unwrap_or(c_int::MAX);
            // SAFETY: `buf` is a live, initialized Vec of `buf.len()`
            // `EpollEvent`s and `max` equals that length, so the kernel
            // writes only inside the allocation; the returned count is
            // bounded by `max`.
            let n = check(unsafe {
                epoll_wait(self.epoll.as_raw_fd(), self.buf.as_mut_ptr(), max, millis)
            })?;
            for slot in self.buf.iter().take(n.max(0) as usize) {
                let mask = slot.events;
                events.push(Event {
                    token: slot.data,
                    ready: Readiness {
                        readable: mask & (EPOLLIN | EPOLLRDHUP) != 0,
                        writable: mask & EPOLLOUT != 0,
                        hangup: mask & (EPOLLERR | EPOLLHUP) != 0,
                    },
                });
            }
            Ok(())
        }
    }

    /// The engine-pool → event-loop wakeup channel: an `eventfd`.
    /// Cloneable (all clones share the counter); `notify` is safe to call
    /// from any thread, including the pipeline executors.
    #[derive(Clone)]
    pub(crate) struct WakeHandle {
        fd: Arc<OwnedFd>,
    }

    impl WakeHandle {
        pub(crate) fn new() -> io::Result<WakeHandle> {
            // SAFETY: `eventfd` takes an initial counter and flags and
            // returns a fresh descriptor or -1 (mapped to an error).
            let fd = check(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            // SAFETY: `fd` was just returned by a successful `eventfd`
            // call, so wrapping it hands its sole ownership to the
            // `OwnedFd`, closed exactly once when the last clone drops.
            Ok(WakeHandle {
                fd: Arc::new(unsafe { OwnedFd::from_raw_fd(fd) }),
            })
        }

        /// The descriptor to register with the poller (readable interest).
        pub(crate) fn raw_fd(&self) -> RawFd {
            self.fd.as_raw_fd()
        }

        /// Wakes the loop. Never blocks: the eventfd is nonblocking and
        /// an `EAGAIN` (counter saturated) still leaves it readable,
        /// which is all a wakeup needs.
        pub(crate) fn notify(&self) {
            let one: u64 = 1;
            // SAFETY: writes exactly the 8 bytes of a live `u64` — the
            // size `eventfd` requires — from this thread's stack; the fd
            // is kept open by the `Arc<OwnedFd>` this handle holds.
            let _ = unsafe { write(self.fd.as_raw_fd(), (&raw const one).cast(), 8) };
        }

        /// Consumes pending wakeups so a level-triggered poller stops
        /// reporting the handle readable until the next `notify`.
        pub(crate) fn drain(&self) {
            let mut counter = [0_u8; 8];
            // SAFETY: reads at most 8 bytes into a live 8-byte stack
            // buffer; an eventfd read transfers exactly 8 or fails with
            // EAGAIN, either of which leaves the buffer validly owned.
            let _ = unsafe { read(self.fd.as_raw_fd(), counter.as_mut_ptr(), 8) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    //! Off-Linux stub: the daemon compiles, but the poller and wakeup
    //! constructors report readiness serving unsupported, which
    //! `Server::run` turns into a startup error. Both types are
    //! uninhabited, so nothing past construction can run.

    use super::{Event, Interest, RawFd};
    use std::io;
    use std::time::Duration;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "the serve reactor requires Linux (epoll readiness)",
        )
    }

    pub(crate) fn set_nonblocking(_fd: RawFd) -> io::Result<()> {
        Err(unsupported())
    }

    pub(crate) enum Poller {}

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Err(unsupported())
        }

        pub(crate) fn register(&mut self, _fd: RawFd, _token: u64, _i: Interest) -> io::Result<()> {
            match *self {}
        }

        pub(crate) fn reregister(
            &mut self,
            _fd: RawFd,
            _token: u64,
            _i: Interest,
        ) -> io::Result<()> {
            match *self {}
        }

        pub(crate) fn deregister(&mut self, _fd: RawFd) -> io::Result<()> {
            match *self {}
        }

        pub(crate) fn wait(&mut self, _events: &mut Vec<Event>, _t: Duration) -> io::Result<()> {
            match *self {}
        }
    }

    #[derive(Clone)]
    pub(crate) enum WakeHandle {}

    impl WakeHandle {
        pub(crate) fn new() -> io::Result<WakeHandle> {
            Err(unsupported())
        }

        pub(crate) fn raw_fd(&self) -> RawFd {
            match *self {}
        }

        pub(crate) fn notify(&self) {
            match *self {}
        }

        pub(crate) fn drain(&self) {
            match *self {}
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::time::Duration;

    #[test]
    fn wake_handle_round_trips_through_the_poller() {
        let mut poller = Poller::new().unwrap();
        let wake = WakeHandle::new().unwrap();
        poller.register(wake.raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Nothing pending: the wait times out empty.
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert!(events.is_empty());

        // A notify from another thread wakes the wait with our token.
        let remote = wake.clone();
        let notifier = std::thread::spawn(move || remote.notify());
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        notifier.join().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].ready.readable);

        // Draining consumes the wakeup; the next wait is empty again.
        wake.drain();
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readiness_and_interest_changes_are_reported() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = std::net::TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        use std::os::unix::io::AsRawFd;
        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), 42, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        client.write_all(b"ping\n").unwrap();
        client.flush().unwrap();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.ready.readable));

        // Write interest on an idle socket reports writable immediately.
        poller
            .reregister(
                server.as_raw_fd(),
                42,
                Interest {
                    readable: false,
                    writable: true,
                },
            )
            .unwrap();
        poller
            .wait(&mut events, Duration::from_millis(500))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 42 && e.ready.writable));

        // Deregistered descriptors stop reporting.
        poller.deregister(server.as_raw_fd()).unwrap();
        let mut buf = [0u8; 8];
        let mut server_read = &server;
        let _ = server_read.read(&mut buf);
        poller.wait(&mut events, Duration::from_millis(1)).unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn set_nonblocking_makes_reads_return_would_block() {
        use std::os::unix::io::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        set_nonblocking(server.as_raw_fd()).unwrap();
        let mut buf = [0u8; 8];
        let err = server.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }
}
