//! The event-driven front end: one thread multiplexing every connection.
//!
//! A readiness loop built on the [`crate::netpoll`] shim owns the
//! listener, a [`WakePipe`], and every client connection — all
//! non-blocking, each with its own read/write buffers and newline
//! framing. Parsed requests go through the same
//! [`crate::server::route_inline`] router as the legacy front end:
//! `stats2`, `place-incremental`, `shutdown`, and every error
//! are answered inline by this thread (so metrics stay readable even
//! with the solver pool saturated), while `solve` is dispatched into the
//! bounded pool with a completion-queue reply sink. Workers push the
//! finished line and wake the poller; the loop flushes it on the right
//! connection in request order.
//!
//! # Reply ordering
//!
//! The wire contract is one reply per line, in order. Each connection
//! keeps an ordered queue of reply slots: inline replies are born ready,
//! solves start pending and are fulfilled by worker completions. Only
//! the ready *prefix* is flushed, so a fast `stats2` pipelined behind a
//! slow `solve` on the same connection still waits its turn (order is
//! part of the protocol), while on separate connections it is answered
//! immediately — monitoring traffic should use its own connection.
//!
//! # Shutdown
//!
//! `shutdown` (or [`crate::Server::shutdown`]) raises the stop flag and
//! self-connects, which wakes the poll. The loop then fails any
//! still-pending slots with `err shutting-down`, best-effort flushes
//! every buffer (the `ok draining=1` reply in particular), and closes.

#![cfg(unix)]

use crate::netpoll::{poll_ready, PollEntry, WakePipe, POLLERR, POLLIN, POLLNVAL, POLLOUT};
use crate::pool::SolveJob;
use crate::protocol::{ErrCode, WireError};
use crate::server::{route_inline, Routed, Shared};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll timeout: the loop re-checks the stop flag at least this often
/// even if no fd ever becomes ready (wakes normally arrive via the
/// listener self-connect or the wake pipe long before this).
const POLL_TIMEOUT_MS: i32 = 100;

/// Per-read chunk size; connections needing more just loop.
const READ_CHUNK: usize = 16 * 1024;

/// How long shutdown keeps flushing unsent replies before closing.
const DRAIN_FLUSH: Duration = Duration::from_secs(2);

/// Worker→event-loop reply transport: finished lines keyed by slot
/// token, plus the self-pipe that interrupts a sleeping poll.
struct Completions {
    queue: parking_lot::Mutex<Vec<(u64, String)>>,
    wake: WakePipe,
}

impl Completions {
    fn push(&self, token: u64, line: String) {
        self.queue.lock().push((token, line));
        self.wake.wake();
    }

    fn drain(&self) -> Vec<(u64, String)> {
        std::mem::take(&mut *self.queue.lock())
    }
}

/// One ordered reply obligation on a connection.
enum Slot {
    /// Reply known — flushable once every earlier slot is too.
    Ready(String),
    /// A solve in flight in the pool, identified by completion token.
    Pending(u64),
}

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet framed into a complete line.
    rbuf: Vec<u8>,
    /// Length of the prefix of `rbuf` already searched for a newline, so
    /// a long line arriving over many reads is scanned once, not per read.
    scanned: usize,
    /// Reply bytes accepted by the protocol but not yet by the kernel.
    wbuf: Vec<u8>,
    /// Ordered reply slots (front = oldest request).
    slots: VecDeque<Slot>,
    /// Client half-closed its sending side (EOF seen).
    read_closed: bool,
    /// Unrecoverable socket error; reap without further IO.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            slots: VecDeque::new(),
            read_closed: false,
            dead: false,
        }
    }

    /// Marks the pending slot `token` ready with its reply line.
    fn fulfill(&mut self, token: u64, line: String) {
        for slot in self.slots.iter_mut() {
            if matches!(slot, Slot::Pending(t) if *t == token) {
                *slot = Slot::Ready(line);
                return;
            }
        }
    }

    /// Moves the ready prefix of the slot queue into the write buffer.
    fn pump(&mut self) {
        while let Some(Slot::Ready(_)) = self.slots.front() {
            let Some(Slot::Ready(line)) = self.slots.pop_front() else {
                unreachable!()
            };
            self.wbuf.extend_from_slice(line.as_bytes());
            self.wbuf.push(b'\n');
        }
    }

    /// Writes as much of the buffer as the socket accepts right now.
    fn flush(&mut self) {
        while !self.wbuf.is_empty() {
            match self.stream.write(&self.wbuf) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.wbuf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Reads everything currently available; returns complete lines.
    fn read_lines(&mut self) -> Vec<String> {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        let mut lines = Vec::new();
        let mut start = 0;
        let mut from = self.scanned;
        while let Some(pos) = self.rbuf[from..].iter().position(|&b| b == b'\n') {
            let end = from + pos;
            lines.push(String::from_utf8_lossy(&self.rbuf[start..end]).into_owned());
            start = end + 1;
            from = start;
        }
        self.rbuf.drain(..start);
        self.scanned = self.rbuf.len();
        lines
    }

    /// True once nothing more can happen on this connection.
    fn finished(&self) -> bool {
        self.dead || (self.read_closed && self.wbuf.is_empty() && self.slots.is_empty())
    }
}

/// Routes one framed line and queues its reply slot.
fn handle_line(
    conn_id: u64,
    line: &str,
    conn: &mut Conn,
    shared: &Shared,
    completions: &Arc<Completions>,
    token_conn: &mut HashMap<u64, u64>,
    next_token: &mut u64,
) {
    let line = line.trim();
    if line.is_empty() {
        return; // blank lines draw no reply, as in legacy mode
    }
    // same panic fence as the legacy per-line handler: a routing bug
    // costs this request an `err internal`, never the event loop
    let routed =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route_inline(line, shared)))
            .unwrap_or_else(|_| {
                Routed::Inline(
                    WireError::new(ErrCode::Internal, "request handler panicked").to_line(),
                )
            });
    match routed {
        Routed::Inline(reply) => conn.slots.push_back(Slot::Ready(reply)),
        Routed::Solve(spec) => {
            let now = Instant::now();
            let deadline = spec.deadline_ms.map(|ms| now + Duration::from_millis(ms));
            let token = *next_token;
            *next_token += 1;
            let sink = {
                let completions = Arc::clone(completions);
                Box::new(move |reply: String| completions.push(token, reply))
            };
            let job = SolveJob::new(*spec, now, deadline, sink);
            match shared.pool.lock().submit(job) {
                Ok(()) => {
                    conn.slots.push_back(Slot::Pending(token));
                    token_conn.insert(token, conn_id);
                }
                Err(e) => {
                    if e.code == ErrCode::Overloaded {
                        shared.metrics.overloaded.inc();
                    }
                    conn.slots.push_back(Slot::Ready(e.to_line()));
                }
            }
        }
    }
}

/// The readiness loop: owns the listener and every connection until
/// shutdown. Runs on the dedicated `hgp-event` thread.
pub(crate) fn event_loop(listener: TcpListener, shared: Arc<Shared>) {
    if listener.set_nonblocking(true).is_err() {
        // no way to multiplex a blocking listener — serve legacy-style
        return crate::server::accept_loop(listener, shared);
    }
    let completions = Arc::new(Completions {
        queue: parking_lot::Mutex::new(Vec::new()),
        wake: WakePipe::new().expect("create event-loop wake pipe"),
    });
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut token_conn: HashMap<u64, u64> = HashMap::new();
    let mut next_conn_id: u64 = 0;
    let mut next_token: u64 = 0;
    let mut entries: Vec<PollEntry> = Vec::new();
    let mut slot_ids: Vec<u64> = Vec::new();

    while !shared.stopping() {
        // (re)build the poll set: listener, wake pipe, then every conn
        entries.clear();
        slot_ids.clear();
        entries.push(PollEntry::new(listener.as_raw_fd(), POLLIN));
        entries.push(PollEntry::new(completions.wake.read_fd(), POLLIN));
        for (&id, c) in conns.iter() {
            let mut interest: i16 = 0;
            if !c.read_closed {
                interest |= POLLIN;
            }
            if !c.wbuf.is_empty() {
                interest |= POLLOUT;
            }
            entries.push(PollEntry::new(c.stream.as_raw_fd(), interest));
            slot_ids.push(id);
        }
        if poll_ready(&mut entries, POLL_TIMEOUT_MS).is_err() {
            continue; // non-EINTR poll failure: retry (stop flag breaks us out)
        }
        if shared.stopping() {
            break;
        }

        // 1. worker completions: fulfill slots and flush immediately so a
        //    finished solve never waits for unrelated socket traffic
        completions.wake.drain();
        for (token, line) in completions.drain() {
            if let Some(cid) = token_conn.remove(&token) {
                if let Some(c) = conns.get_mut(&cid) {
                    c.fulfill(token, line);
                    c.pump();
                    c.flush();
                }
            }
        }

        // 2. new connections (accept until the backlog is empty)
        if entries[0].readable() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        shared.conn_opened();
                        conns.insert(next_conn_id, Conn::new(stream));
                        next_conn_id += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }

        // 3. per-connection IO on the fds poll reported
        for (i, entry) in entries.iter().enumerate().skip(2) {
            let id = slot_ids[i - 2];
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if entry.ready & (POLLERR | POLLNVAL) != 0 {
                conn.dead = true;
                continue;
            }
            if entry.readable() {
                for line in conn.read_lines() {
                    handle_line(
                        id,
                        &line,
                        conns.get_mut(&id).expect("conn alive while handling"),
                        &shared,
                        &completions,
                        &mut token_conn,
                        &mut next_token,
                    );
                }
            }
            let conn = conns.get_mut(&id).expect("conn alive after routing");
            conn.pump();
            if !conn.wbuf.is_empty() {
                conn.flush();
            }
        }

        // 4. reap finished connections (and forget their pending tokens —
        //    a completion for a gone client is dropped on the floor)
        conns.retain(|_, c| {
            if c.finished() {
                for slot in &c.slots {
                    if let Slot::Pending(t) = slot {
                        token_conn.remove(t);
                    }
                }
                shared.conn_closed();
                false
            } else {
                true
            }
        });
    }

    // drain: every still-pending slot answers shutting-down (its job was
    // dropped by the pool drain), then flush what we can and close
    let draining = WireError::new(ErrCode::ShuttingDown, "server is draining").to_line();
    for conn in conns.values_mut() {
        for slot in conn.slots.iter_mut() {
            if matches!(slot, Slot::Pending(_)) {
                *slot = Slot::Ready(draining.clone());
            }
        }
        conn.pump();
    }
    let deadline = Instant::now() + DRAIN_FLUSH;
    while Instant::now() < deadline {
        let mut unsent = false;
        for conn in conns.values_mut() {
            if !conn.dead && !conn.wbuf.is_empty() {
                conn.flush();
                unsent |= !conn.dead && !conn.wbuf.is_empty();
            }
        }
        if !unsent {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for _ in conns.drain() {
        shared.conn_closed();
    }
}
