//! Readiness-driven I/O primitives for the broker's shard event loops.
//!
//! Each shard owns one [`Poller`] — a thin wrapper over the platform's
//! readiness API — and multiplexes every connection it owns (TCP sockets
//! and in-process socket pairs alike), its
//! mailbox waker, keep-alive deadlines, and fault-delay timers on a
//! single thread. No connection ever gets a dedicated thread: broker-side
//! thread count is O(shards), not O(connections).
//!
//! Two implementations are provided, both speaking directly to the
//! already-linked platform libc via thin `extern "C"` declarations (no
//! external registry crates):
//!
//! * [`EpollPoller`] (Linux): `epoll_create1` / `epoll_ctl` /
//!   `epoll_wait`, level-triggered. Scales O(ready), not O(registered) —
//!   the wait cost of a shard parked on 10 000 idle connections is the
//!   same as one parked on ten.
//! * [`PollPoller`] (portable fallback): classic `poll(2)` over the
//!   registered set. O(registered) per wait, kept for non-Linux unix
//!   targets and as a differential reference in tests.
//!
//! [`Poller`] aliases whichever fits the target. The [`waker`] pair turns
//! the shard mailbox (a std `mpsc` channel) into a pollable event source:
//! producers write one byte into a nonblocking `UnixStream` pair (only
//! when the consumer has *armed* the waker, so a busy shard costs
//! producers a single atomic swap, not a syscall), and the shard drains
//! the byte when its poll wakes.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::c_int;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Token reserved for the shard's mailbox waker.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (or peer-closed / errored: a `read` will surface it).
    pub readable: bool,
    /// Writable (or errored: a `write` will surface it).
    pub writable: bool,
}

/// The platform-preferred poller.
#[cfg(target_os = "linux")]
pub type Poller = EpollPoller;
/// The platform-preferred poller.
#[cfg(not(target_os = "linux"))]
pub type Poller = PollPoller;

/// Rounds a timeout up to whole milliseconds for the C APIs (never rounds
/// down: waking *before* a deadline would spin).
fn timeout_ms(timeout: Option<Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let ms = d
                .as_millis()
                .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0));
            ms.min(c_int::MAX as u128) as c_int
        }
    }
}

// ---------------------------------------------------------------------
// epoll (Linux)
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod epoll_sys {
    use std::os::raw::c_int;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    /// Mirror of `struct epoll_event`; packed on x86 per the kernel ABI.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// Level-triggered epoll-backed poller (Linux only).
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    epfd: RawFd,
    buf: Vec<epoll_sys::EpollEvent>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// Creates the epoll instance.
    pub fn new() -> io::Result<EpollPoller> {
        // SAFETY: plain syscall, no pointers involved.
        let epfd = unsafe { epoll_sys::epoll_create1(epoll_sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollPoller {
            epfd,
            buf: vec![epoll_sys::EpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn interest(readable: bool, writable: bool) -> u32 {
        let mut ev = epoll_sys::EPOLLRDHUP;
        if readable {
            ev |= epoll_sys::EPOLLIN;
        }
        if writable {
            ev |= epoll_sys::EPOLLOUT;
        }
        ev
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
        let mut ev = epoll_sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { epoll_sys::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest set.
    pub fn add(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(
            epoll_sys::EPOLL_CTL_ADD,
            fd,
            Self::interest(readable, writable),
            token,
        )
    }

    /// Replaces the interest set of a registered `fd`.
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        self.ctl(
            epoll_sys::EPOLL_CTL_MOD,
            fd,
            Self::interest(readable, writable),
            token,
        )
    }

    /// Deregisters `fd`.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        self.ctl(epoll_sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Waits for readiness, appending events to `out`. `None` blocks
    /// indefinitely. `EINTR` retries transparently.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        let ms = timeout_ms(timeout);
        let n = loop {
            // SAFETY: `buf` is a live, properly sized allocation for the
            // duration of the call.
            let rc = unsafe {
                epoll_sys::epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            // Copy out of the (possibly packed) struct before use.
            let events = ev.events;
            let token = ev.data;
            out.push(PollEvent {
                token,
                readable: events
                    & (epoll_sys::EPOLLIN
                        | epoll_sys::EPOLLRDHUP
                        | epoll_sys::EPOLLHUP
                        | epoll_sys::EPOLLERR)
                    != 0,
                writable: events
                    & (epoll_sys::EPOLLOUT | epoll_sys::EPOLLHUP | epoll_sys::EPOLLERR)
                    != 0,
            });
        }
        Ok(())
    }
}

#[cfg(target_os = "linux")]
impl Drop for EpollPoller {
    fn drop(&mut self) {
        // SAFETY: closing an fd we own exactly once.
        unsafe { epoll_sys::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------
// poll(2) fallback (portable unix)
// ---------------------------------------------------------------------

mod poll_sys {
    use std::os::raw::{c_int, c_short, c_ulong};

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// `poll(2)`-backed poller: a registry of interests rebuilt into a
/// `pollfd` array per wait. O(registered) per call — the portable
/// fallback and the differential reference for [`EpollPoller`].
pub struct PollPoller {
    reg: Vec<(RawFd, u64, bool, bool)>,
}

impl PollPoller {
    /// Creates an empty registry.
    pub fn new() -> io::Result<PollPoller> {
        Ok(PollPoller { reg: Vec::new() })
    }

    /// Registers `fd` under `token` with the given interest set.
    pub fn add(&mut self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        if self.reg.iter().any(|(f, ..)| *f == fd) {
            return Err(io::Error::from(io::ErrorKind::AlreadyExists));
        }
        self.reg.push((fd, token, readable, writable));
        Ok(())
    }

    /// Replaces the interest set of a registered `fd`.
    pub fn modify(
        &mut self,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match self.reg.iter_mut().find(|(f, ..)| *f == fd) {
            Some(slot) => {
                *slot = (fd, token, readable, writable);
                Ok(())
            }
            None => Err(io::Error::from(io::ErrorKind::NotFound)),
        }
    }

    /// Deregisters `fd`.
    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        let before = self.reg.len();
        self.reg.retain(|(f, ..)| *f != fd);
        if self.reg.len() == before {
            return Err(io::Error::from(io::ErrorKind::NotFound));
        }
        Ok(())
    }

    /// Waits for readiness, appending events to `out`. `None` blocks
    /// indefinitely. `EINTR` retries transparently.
    pub fn wait(&mut self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        let mut fds: Vec<poll_sys::PollFd> = self
            .reg
            .iter()
            .map(|&(fd, _, readable, writable)| poll_sys::PollFd {
                fd,
                events: if readable { poll_sys::POLLIN } else { 0 }
                    | if writable { poll_sys::POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let ms = timeout_ms(timeout);
        loop {
            // SAFETY: `fds` is a live, properly sized allocation.
            let rc = unsafe { poll_sys::poll(fds.as_mut_ptr(), fds.len() as _, ms) };
            if rc >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        for (pfd, &(_, token, ..)) in fds.iter().zip(self.reg.iter()) {
            if pfd.revents == 0 {
                continue;
            }
            let err = pfd.revents & (poll_sys::POLLERR | poll_sys::POLLHUP) != 0;
            out.push(PollEvent {
                token,
                readable: pfd.revents & poll_sys::POLLIN != 0 || err,
                writable: pfd.revents & poll_sys::POLLOUT != 0 || err,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Mailbox waker
// ---------------------------------------------------------------------

struct WakeShared {
    armed: AtomicBool,
    tx: UnixStream,
}

/// Producer half of a shard waker: cheap to clone, safe to call from any
/// thread. [`WakeHandle::wake`] costs one atomic swap when the shard is
/// busy (waker disarmed) and one 1-byte write when it is parked.
#[derive(Clone)]
pub struct WakeHandle {
    shared: Arc<WakeShared>,
}

impl WakeHandle {
    /// Wakes the owning shard if it is (about to be) parked.
    pub fn wake(&self) {
        if self.shared.armed.swap(false, Ordering::AcqRel) {
            let _ = (&self.shared.tx).write(&[1]);
        }
    }
}

impl std::fmt::Debug for WakeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WakeHandle")
    }
}

/// Consumer half of a shard waker: registered in the shard's [`Poller`]
/// under [`WAKE_TOKEN`].
pub struct WakeReceiver {
    rx: UnixStream,
    shared: Arc<WakeShared>,
}

impl WakeReceiver {
    /// The fd to register for readability.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Arms the waker. Must be called *before* the final mailbox
    /// emptiness check that precedes a blocking wait: a producer that
    /// enqueued before arming is seen by that check, one that enqueued
    /// after finds the waker armed and writes the wake byte.
    pub fn arm(&self) {
        self.shared.armed.store(true, Ordering::Release);
    }

    /// Drains any pending wake bytes (call when the poller reports the
    /// waker fd readable).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Creates a connected waker pair over a nonblocking `UnixStream` pair.
pub fn waker() -> io::Result<(WakeHandle, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let shared = Arc::new(WakeShared {
        armed: AtomicBool::new(false),
        tx,
    });
    Ok((
        WakeHandle {
            shared: Arc::clone(&shared),
        },
        WakeReceiver { rx, shared },
    ))
}

/// Per-shard queue of connections with pending writes. A
/// [`crate::transport::FrameSender`] pushes its connection id here (once per quiet period, deduplicated by an
/// atomic flag) and wakes the owner shard, which drains the queue and
/// flushes each connection's write queue with vectored writes.
pub(crate) struct WriteScheduler {
    /// Connection ids with queued frames awaiting a flush.
    pub ids: Mutex<Vec<u64>>,
    /// Wakes the owner shard after a push.
    pub waker: WakeHandle,
}

impl WriteScheduler {
    pub(crate) fn new(waker: WakeHandle) -> WriteScheduler {
        WriteScheduler {
            ids: Mutex::new(Vec::new()),
            waker,
        }
    }

    /// Enqueues `conn` for a flush pass and wakes the shard.
    pub(crate) fn schedule(&self, conn: u64) {
        self.ids.lock().expect("write scheduler lock").push(conn);
        self.waker.wake();
    }

    /// Takes the current batch of connections to flush.
    pub(crate) fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.ids.lock().expect("write scheduler lock"))
    }

    /// True when no flush is pending (the shard's pre-park recheck).
    pub(crate) fn is_empty(&self) -> bool {
        self.ids.lock().expect("write scheduler lock").is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn exercise_readability(mut poller: impl FnMut(&mut Vec<PollEvent>, Option<Duration>)) {
        let mut out = Vec::new();
        // Nothing ready: times out empty.
        poller(&mut out, Some(Duration::from_millis(20)));
        assert!(out.is_empty(), "spurious readiness: {out:?}");
    }

    #[test]
    fn poll_poller_reports_readable() {
        let (a, mut b) = pair();
        let mut p = PollPoller::new().unwrap();
        p.add(a.as_raw_fd(), 7, true, false).unwrap();
        exercise_readability(|out, t| p.wait(out, t).unwrap());
        b.write_all(b"x").unwrap();
        let mut out = Vec::new();
        p.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 7);
        assert!(out[0].readable);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_reports_readable() {
        let (a, mut b) = pair();
        let mut p = EpollPoller::new().unwrap();
        p.add(a.as_raw_fd(), 9, true, false).unwrap();
        exercise_readability(|out, t| p.wait(out, t).unwrap());
        b.write_all(b"y").unwrap();
        let mut out = Vec::new();
        p.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 9);
        assert!(out[0].readable);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_poller_interest_modify_and_remove() {
        let (a, _b) = pair();
        let mut p = EpollPoller::new().unwrap();
        p.add(a.as_raw_fd(), 1, true, false).unwrap();
        // A connected socket with an empty send buffer is writable.
        p.modify(a.as_raw_fd(), 1, false, true).unwrap();
        let mut out = Vec::new();
        p.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert!(out.iter().any(|e| e.token == 1 && e.writable));
        p.remove(a.as_raw_fd()).unwrap();
        out.clear();
        p.wait(&mut out, Some(Duration::from_millis(20))).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn poll_poller_writable_and_remove() {
        let (a, _b) = pair();
        let mut p = PollPoller::new().unwrap();
        p.add(a.as_raw_fd(), 3, false, true).unwrap();
        let mut out = Vec::new();
        p.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert!(out.iter().any(|e| e.token == 3 && e.writable));
        p.remove(a.as_raw_fd()).unwrap();
        assert!(p.remove(a.as_raw_fd()).is_err());
    }

    #[test]
    fn waker_wakes_a_parked_poller() {
        let (handle, recv) = waker().unwrap();
        let mut p = Poller::new().unwrap();
        p.add(recv.fd(), WAKE_TOKEN, true, false).unwrap();
        recv.arm();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            handle.wake();
        });
        let start = Instant::now();
        let mut out = Vec::new();
        p.wait(&mut out, Some(Duration::from_secs(5))).unwrap();
        assert!(out.iter().any(|e| e.token == WAKE_TOKEN && e.readable));
        assert!(start.elapsed() < Duration::from_secs(2));
        recv.drain();
        t.join().unwrap();
    }

    #[test]
    fn waker_skips_syscall_when_disarmed() {
        let (handle, recv) = waker().unwrap();
        // Disarmed: wake() must not write a byte.
        handle.wake();
        let mut p = Poller::new().unwrap();
        p.add(recv.fd(), WAKE_TOKEN, true, false).unwrap();
        let mut out = Vec::new();
        p.wait(&mut out, Some(Duration::from_millis(20))).unwrap();
        assert!(out.is_empty(), "disarmed wake still wrote: {out:?}");
        // Armed: the byte lands.
        recv.arm();
        handle.wake();
        p.wait(&mut out, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn timeout_rounds_up() {
        assert_eq!(timeout_ms(None), -1);
        assert_eq!(timeout_ms(Some(Duration::from_millis(5))), 5);
        assert_eq!(timeout_ms(Some(Duration::from_micros(1))), 1);
        assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
    }
}
