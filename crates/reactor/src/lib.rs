//! # skyferry-reactor
//!
//! A minimal readiness reactor over `poll(2)` — the multiplexing core
//! of the sharded `skyferryd` event loops and the many-connection load
//! generator. Vendored for the same reason `crates/bufs` exists: the
//! workspace builds offline with zero external dependencies, so the
//! usual `mio`/`polling` crates are out and the ~30 lines of FFI they
//! wrap come in-tree instead.
//!
//! The design is deliberately the smallest thing that serves the
//! serving layer:
//!
//! * [`Poller`] — an edge-agnostic (level-triggered, like `poll(2)`
//!   itself) readiness set: register a raw fd with a caller-chosen
//!   [`Token`] and an [`Interest`], then [`Poller::wait`] for events.
//! * [`Event`] — `(token, readable, writable, hangup)`, the complete
//!   verdict for one fd.
//! * [`Waker`] — a `UnixStream` pair whose read end lives in the
//!   poller; any thread can [`Waker::wake`] the loop out of `wait`
//!   without touching the reactor itself. This is how shard inboxes,
//!   shutdown and cross-shard completions interrupt a blocked loop.
//!   Wakes are edge-triggered under an arming contract: senders
//!   publish their work, then `wake`, and only the first wake after a
//!   drain pays a `write(2)`; the loop, when `wait` reports the waker
//!   readable, calls [`WakeReceiver::drain`] (pipe dry, then re-arm)
//!   and only then drains its work queue. Then no wake is lost.
//!
//! This crate is the one place in the workspace allowed to contain
//! `unsafe`: a single FFI declaration of `poll` and its `repr(C)`
//! argument struct, both annotated with the invariants they uphold.
//! Everything above the syscall boundary is safe Rust over
//! `std::os::fd` types.

use std::io;
use std::os::fd::RawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Opaque per-registration identifier, echoed back on every [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Token(pub u64);

/// What readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd has bytes to read (or a peer hangup).
    pub readable: bool,
    /// Wake when the fd can accept writes without blocking.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Read + write interest — a connection with a backed-up write
    /// buffer waiting for the socket to drain.
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One fd's readiness verdict from a [`Poller::wait`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: Token,
    /// Bytes (or EOF) are available to read.
    pub readable: bool,
    /// The fd accepts writes without blocking.
    pub writable: bool,
    /// Peer hangup / error (`POLLHUP`/`POLLERR`/`POLLNVAL`): the
    /// connection is done regardless of the interest set.
    pub hangup: bool,
}

// `poll(2)` constants, straight from poll.h on every Unix this
// workspace targets.
const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

/// The `struct pollfd` of `poll(2)`.
///
/// SAFETY: the layout (`int fd; short events; short revents;`) is fixed
/// by POSIX and `repr(C)` pins the Rust side to it; the kernel only
/// ever reads `fd`/`events` and writes `revents`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

extern "C" {
    // SAFETY: the canonical POSIX prototype — `int poll(struct pollfd
    // *fds, nfds_t nfds, int timeout)` with `nfds_t` an unsigned long
    // on linux; libc is already linked by std.
    fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
}

/// Level-triggered readiness over a set of registered fds.
///
/// Registration order is preserved, so two `wait` calls over the same
/// kernel state report events in the same order — the event loops built
/// on this stay deterministic in everything they control.
#[derive(Debug, Default)]
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<Token>,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> Poller {
        Poller::default()
    }

    /// Number of registered fds.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Register `fd` under `token`. The fd must outlive the
    /// registration (deregister before closing); `token` need not be
    /// unique, but event attribution is by token, so callers want it
    /// unique in practice.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) {
        self.fds.push(PollFd {
            fd,
            events: interest_bits(interest),
            revents: 0,
        });
        self.tokens.push(token);
    }

    /// Change the interest set of the registration under `token`.
    /// Unknown tokens are ignored (the connection raced a close).
    pub fn modify(&mut self, token: Token, interest: Interest) {
        if let Some(i) = self.tokens.iter().position(|t| *t == token) {
            self.fds[i].events = interest_bits(interest);
        }
    }

    /// Remove the registration under `token` (a no-op for unknown
    /// tokens, so close paths need not track registration state).
    pub fn deregister(&mut self, token: Token) {
        if let Some(i) = self.tokens.iter().position(|t| *t == token) {
            self.fds.remove(i);
            self.tokens.remove(i);
        }
    }

    /// Block until at least one registered fd is ready (or `timeout_ms`
    /// elapses; `None` blocks indefinitely), then collect every ready
    /// fd's verdict into `events` (cleared first). Returns the number
    /// of events delivered; `0` means the timeout fired. `EINTR`
    /// retries internally.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout_ms: Option<i32>) -> io::Result<usize> {
        events.clear();
        if self.fds.is_empty() {
            // poll(NULL, 0, t) is a sleep; model it without the syscall.
            return Ok(0);
        }
        let timeout = timeout_ms.unwrap_or(-1);
        loop {
            // SAFETY: `fds` is a live, exclusively-borrowed Vec of
            // `repr(C)` PollFd; the pointer/length pair is exactly its
            // initialized contents, and poll only writes `revents`.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(e);
            }
            break;
        }
        for (pfd, token) in self.fds.iter().zip(&self.tokens) {
            let r = pfd.revents;
            if r == 0 {
                continue;
            }
            events.push(Event {
                token: *token,
                readable: r & POLLIN != 0,
                writable: r & POLLOUT != 0,
                hangup: r & (POLLHUP | POLLERR | POLLNVAL) != 0,
            });
        }
        Ok(events.len())
    }
}

fn interest_bits(interest: Interest) -> i16 {
    let mut bits = 0;
    if interest.readable {
        bits |= POLLIN;
    }
    if interest.writable {
        bits |= POLLOUT;
    }
    bits
}

/// Cross-thread wakeup for a poller-blocked event loop.
///
/// The read end registers with the loop's [`Poller`]; any holder of a
/// clone of the [`Waker`] can interrupt `wait` from another thread.
///
/// Wakes are edge-triggered. Every clone and the paired
/// [`WakeReceiver`] share one *woken* flag: [`Waker::wake`] writes its
/// byte only when it is the wake that sets the flag, and
/// [`WakeReceiver::drain`] clears it once the pipe is dry, re-arming
/// the waker. So a loop pays one `write(2)` per sleep, not one per
/// message. The arming contract that keeps this lossless:
///
/// * a sender publishes its work (pushes to the loop's queue) *before*
///   calling `wake`;
/// * the loop, whenever `wait` reports the waker readable, calls
///   `drain` and only *then* drains its work queue.
///
/// A wake that finds the flag already set is then covered either by a
/// byte the loop has not yet read or by the queue drain that follows
/// the re-arm.
#[derive(Debug, Clone)]
pub struct Waker {
    write_half: Arc<UnixStream>,
    woken: Arc<AtomicBool>,
}

/// The loop-owned read end of a waker pair.
#[derive(Debug)]
pub struct WakeReceiver {
    read_half: UnixStream,
    woken: Arc<AtomicBool>,
}

impl Waker {
    /// A connected waker pair; register [`WakeReceiver::fd`] readable
    /// in the loop's poller.
    pub fn pair() -> io::Result<(Waker, WakeReceiver)> {
        let (read_half, write_half) = UnixStream::pair()?;
        read_half.set_nonblocking(true)?;
        write_half.set_nonblocking(true)?;
        let woken = Arc::new(AtomicBool::new(false));
        let waker = Waker {
            write_half: Arc::new(write_half),
            woken: Arc::clone(&woken),
        };
        Ok((waker, WakeReceiver { read_half, woken }))
    }

    /// Interrupt the paired loop's `wait`. Publish the work first: a
    /// wake that finds the loop already woken writes nothing, because
    /// the loop has an unread byte or has yet to drain its queue.
    /// Never blocks: a full pipe already holds unread wakes.
    pub fn wake(&self) {
        use std::io::Write;
        if self.woken.swap(true, Ordering::SeqCst) {
            return;
        }
        // The flag is set now; it must not stand without its byte.
        loop {
            match (&*self.write_half).write(&[1u8]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => return,
            }
        }
    }
}

impl WakeReceiver {
    /// The fd to register (readable) in the loop's poller.
    pub fn fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        self.read_half.as_raw_fd()
    }

    /// Read the pipe dry, then re-arm the waker so the next
    /// [`Waker::wake`] writes again. Call when `wait` reports the
    /// waker readable, and drain the loop's work queue *after* this
    /// returns: re-arming before the read could swallow a byte written
    /// after the re-arm, leaving the flag set with no byte to wake on.
    pub fn drain(&self) {
        use std::io::Read;
        let mut sink = [0u8; 64];
        loop {
            match (&self.read_half).read(&mut sink) {
                Ok(0) => break, // peer gone: nothing more will arrive
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained
            }
        }
        self.woken.store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Mutex;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).expect("nonblocking");
        server.set_nonblocking(true).expect("nonblocking");
        (client, server)
    }

    #[test]
    fn readable_fires_only_after_bytes_arrive() {
        let (client, mut server) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(client.as_raw_fd(), Token(7), Interest::READ);
        let mut events = Vec::new();

        let n = poller.wait(&mut events, Some(0)).expect("poll");
        assert_eq!(n, 0, "no bytes yet");

        server.write_all(b"ping").expect("write");
        let n = poller.wait(&mut events, Some(1000)).expect("poll");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);
        assert!(!events[0].hangup);

        let mut buf = [0u8; 16];
        let got = (&client).read(&mut buf).expect("read");
        assert_eq!(&buf[..got], b"ping");
        // Level-triggered: drained fd goes quiet again.
        let n = poller.wait(&mut events, Some(0)).expect("poll");
        assert_eq!(n, 0);
    }

    #[test]
    fn writable_and_modify_round_trip() {
        let (client, _server) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(client.as_raw_fd(), Token(1), Interest::READ);
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(0)).expect("poll"), 0);

        // An empty socket buffer is immediately writable.
        poller.modify(Token(1), Interest::READ_WRITE);
        let n = poller.wait(&mut events, Some(1000)).expect("poll");
        assert_eq!(n, 1);
        assert!(events[0].writable);
        assert!(!events[0].readable);

        poller.deregister(Token(1));
        assert!(poller.is_empty());
        assert_eq!(poller.wait(&mut events, Some(0)).expect("poll"), 0);
    }

    #[test]
    fn hangup_reported_on_peer_close() {
        let (client, server) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(client.as_raw_fd(), Token(3), Interest::READ);
        drop(server);
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(1000)).expect("poll");
        assert_eq!(n, 1);
        // Linux reports EOF as POLLIN (read returns 0) and usually also
        // POLLHUP for TCP; either way the loop must see *something*.
        assert!(events[0].readable || events[0].hangup);
    }

    #[test]
    fn waker_interrupts_wait_from_another_thread() {
        let (waker, receiver) = Waker::pair().expect("pair");
        let mut poller = Poller::new();
        poller.register(receiver.fd(), Token(0), Interest::READ);

        let remote = waker.clone();
        let t = std::thread::spawn(move || remote.wake());
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(5000)).expect("poll");
        t.join().expect("waker thread");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(0));
        assert!(events[0].readable);

        receiver.drain();
        let n = poller.wait(&mut events, Some(0)).expect("poll");
        assert_eq!(n, 0, "drained waker goes quiet");
    }

    #[test]
    fn wakes_coalesce_without_blocking() {
        let (waker, receiver) = Waker::pair().expect("pair");
        // Far more wakes than the pipe buffers: wake never blocks.
        for _ in 0..1_000_000 {
            waker.wake();
        }
        let mut poller = Poller::new();
        poller.register(receiver.fd(), Token(0), Interest::READ);
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(1000)).expect("poll"), 1);
        receiver.drain();
        assert_eq!(poller.wait(&mut events, Some(0)).expect("poll"), 0);
    }

    #[test]
    fn wakes_between_drains_write_one_byte() {
        let (waker, receiver) = Waker::pair().expect("pair");
        let other = waker.clone();
        for _ in 0..100 {
            waker.wake();
            other.wake();
        }
        let mut buf = [0u8; 256];
        let got = (&receiver.read_half).read(&mut buf).expect("one byte");
        assert_eq!(got, 1, "200 wakes between drains, one write");
        let err = (&receiver.read_half).read(&mut buf).expect_err("dry");
        assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock);
    }

    #[test]
    fn drain_rearms_the_waker() {
        let (waker, receiver) = Waker::pair().expect("pair");
        let mut poller = Poller::new();
        poller.register(receiver.fd(), Token(0), Interest::READ);
        let mut events = Vec::new();
        waker.wake();
        receiver.drain();
        assert_eq!(poller.wait(&mut events, Some(0)).expect("poll"), 0);
        waker.wake();
        assert_eq!(
            poller.wait(&mut events, Some(1000)).expect("poll"),
            1,
            "the first wake after a drain writes again"
        );
    }

    /// One direction of a two-thread ping-pong: a FIFO mailbox plus the
    /// waker of the loop that owns it, used the way a shard inbox is.
    struct Mailbox {
        queue: Mutex<VecDeque<u32>>,
        waker: Waker,
    }

    impl Mailbox {
        fn pair() -> (Mailbox, WakeReceiver) {
            let (waker, receiver) = Waker::pair().expect("pair");
            let queue = Mutex::new(VecDeque::new());
            (Mailbox { queue, waker }, receiver)
        }

        fn send(&self, msg: u32) {
            self.queue.lock().expect("mailbox").push_back(msg);
            self.waker.wake();
        }
    }

    /// The owning loop: `wait`, then the pipe (re-arming), then the
    /// queue, until at least `owed` more messages arrived. A bounded
    /// `wait` that times out while messages are owed is a lost wakeup.
    fn receive(rx: &WakeReceiver, mailbox: &Mailbox, owed: usize, got: &mut Vec<u32>) {
        let mut poller = Poller::new();
        poller.register(rx.fd(), Token(0), Interest::READ);
        let mut events = Vec::new();
        let target = got.len() + owed;
        while got.len() < target {
            let n = poller.wait(&mut events, Some(10_000)).expect("poll");
            assert_eq!(n, 1, "lost wakeup: {} messages owed", target - got.len());
            rx.drain();
            got.extend(mailbox.queue.lock().expect("mailbox").drain(..));
        }
    }

    #[test]
    fn ping_pong_never_loses_a_wakeup() {
        const TOTAL: u32 = 10_000;
        let (to_echo, echo_rx) = Mailbox::pair();
        let (to_main, main_rx) = Mailbox::pair();
        std::thread::scope(|s| {
            s.spawn(|| {
                // Echo every message back as its own send, one wake each.
                let mut got = Vec::new();
                while got.len() < TOTAL as usize {
                    let seen = got.len();
                    receive(&echo_rx, &to_echo, 1, &mut got);
                    for &m in &got[seen..] {
                        to_main.send(m);
                    }
                }
            });
            // Alternate single messages, each sent while the echo thread
            // waits in `poll` for it, with bursts of up to 64 that race
            // its drain; waiting for every ack forces the interleaving.
            let (mut next, mut round) = (0, 0);
            let mut acks = Vec::new();
            while next < TOTAL {
                let size = if round % 2 == 0 { 1 } else { 1 + round % 64 };
                let size = size.min(TOTAL - next);
                for m in next..next + size {
                    to_echo.send(m);
                }
                next += size;
                round += 1;
                receive(&main_rx, &to_main, size as usize, &mut acks);
                assert_eq!(acks.len(), next as usize, "no ack arrives unasked");
            }
            assert!(acks.iter().copied().eq(0..TOTAL), "FIFO, none lost");
        });
    }

    #[test]
    fn multiple_registrations_attribute_by_token() {
        let (c1, mut s1) = tcp_pair();
        let (c2, mut s2) = tcp_pair();
        let mut poller = Poller::new();
        poller.register(c1.as_raw_fd(), Token(10), Interest::READ);
        poller.register(c2.as_raw_fd(), Token(20), Interest::READ);
        s2.write_all(b"x").expect("write");
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(1000)).expect("poll");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(20));
        s1.write_all(b"y").expect("write");
        let n = poller.wait(&mut events, Some(1000)).expect("poll");
        assert_eq!(n, 2, "both ready, registration order preserved");
        assert_eq!(events[0].token, Token(10));
        assert_eq!(events[1].token, Token(20));
    }
}
