//! The event-driven front end: one thread multiplexing every connection.
//!
//! A readiness loop built on the [`crate::netpoll`] shim owns the
//! listener, the wake pipe, and every client connection — all
//! non-blocking, each with its own read/write buffers and newline
//! framing. `stats2`, `place-incremental`, `shutdown`, and every error
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
//! # Bounds
//!
//! A connection holds at most one unterminated line of
//! [`MAX_LINE_BYTES`] (a longer one draws `err bad-request` and closes
//! the connection). While its unsent reply bytes exceed
//! [`MAX_UNSENT_BYTES`] or its queued replies [`MAX_QUEUED_REPLIES`], the
//! loop neither polls it for input nor frames the lines it has buffered:
//! a client that pipelines without reading stalls only itself, and
//! resumes once it reads.
//!
//! # Shutdown
//!
//! `shutdown` (or [`crate::Server::shutdown`]) raises the stop flag and
//! rings the wake pipe, which wakes the poll. The loop then fails any
//! still-pending slots with `err shutting-down`, flushes every buffer
//! (the `ok draining=1` reply in particular) for up to [`DRAIN_FLUSH`],
//! and closes every connection before it returns.

use crate::netpoll::{poll_ready, PollEntry, WakePipe, POLLERR, POLLIN, POLLNVAL, POLLOUT};
use crate::pool::SolveJob;
use crate::protocol::{
    ErrCode, Request, SolveSpec, WireError, MAX_LINE_BYTES, MAX_QUEUED_REPLIES, MAX_UNSENT_BYTES,
};
use crate::server::Shared;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll timeout: the loop re-checks the stop flag at least this often
/// even if no fd ever becomes ready (completions and shutdown ring the
/// wake pipe long before this).
const POLL_TIMEOUT_MS: i32 = 100;

/// Per-read chunk size; connections needing more just loop.
const READ_CHUNK: usize = 16 * 1024;

/// How long shutdown keeps flushing unsent replies before closing.
const DRAIN_FLUSH: Duration = Duration::from_secs(2);

/// Worker→event-loop reply transport: finished lines keyed by slot
/// token, plus the self-pipe that interrupts a sleeping poll (which
/// shutdown rings too).
pub(crate) struct Completions {
    queue: parking_lot::Mutex<Vec<(u64, String)>>,
    wake: WakePipe,
}

impl Completions {
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(Self {
            queue: parking_lot::Mutex::new(Vec::new()),
            wake: WakePipe::new()?,
        })
    }

    fn push(&self, token: u64, line: String) {
        self.queue.lock().push((token, line));
        self.wake.wake();
    }

    /// Wakes the loop with no reply to deliver.
    pub(crate) fn wake(&self) {
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
    /// Bytes read; those before `rpos` are framed and consumed.
    rbuf: Vec<u8>,
    /// Start of the unconsumed bytes of `rbuf`.
    rpos: usize,
    /// End of the part of `rbuf` already searched for a newline, so a
    /// long line arriving over many reads is scanned once, not per read.
    scanned: usize,
    /// Reply bytes accepted by the protocol; those before `wpos` are
    /// already accepted by the kernel too.
    wbuf: Vec<u8>,
    /// Start of the unsent bytes of `wbuf`.
    wpos: usize,
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
            rpos: 0,
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
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

    /// Reply bytes the socket has not accepted yet.
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Writes as much of the buffer as the socket accepts right now.
    /// Writes advance an offset; the buffer is compacted once it has
    /// drained, or once its sent prefix outweighs the rest, so each byte
    /// moves at most once however many partial writes it takes.
    fn flush(&mut self) {
        while self.unsent() > 0 {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.unsent() == 0 {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > self.unsent() {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    /// Whether the loop may take more requests from this connection: its
    /// unsent replies and queued slots are both under their marks.
    fn accepts_input(&self) -> bool {
        self.unsent() <= MAX_UNSENT_BYTES && self.slots.len() <= MAX_QUEUED_REPLIES
    }

    /// Frames the next complete line of the read buffer, if it holds one.
    fn next_line(&mut self) -> Option<String> {
        let pos = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n');
        let Some(pos) = pos else {
            self.scanned = self.rbuf.len();
            return None;
        };
        let end = self.scanned + pos;
        let line = String::from_utf8_lossy(&self.rbuf[self.rpos..end]).into_owned();
        self.rpos = end + 1;
        self.scanned = self.rpos;
        Some(line)
    }

    /// Reads one chunk into the buffer, dropping the consumed prefix
    /// first (only the unterminated tail moves). Returns whether it
    /// read anything; EOF and socket errors are recorded on the conn.
    fn read_chunk(&mut self) -> bool {
        if self.rpos > 0 {
            self.rbuf.drain(..self.rpos);
            self.scanned -= self.rpos;
            self.rpos = 0;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return false;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    return true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return false,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return false;
                }
            }
        }
    }

    /// True once nothing more can happen on this connection.
    fn finished(&self) -> bool {
        self.dead
            || (self.read_closed
                && self.scanned == self.rbuf.len()
                && self.unsent() == 0
                && self.slots.is_empty())
    }
}

/// Routes the lines a connection has buffered, reading more (only when
/// `readable`) as each runs out, until it has no complete line left;
/// then flushes what is ready. Above a high-water mark it flushes first
/// and stops only if it is still above: then either unsent bytes keep
/// `POLLOUT` armed or queued slots await completions, and each wakes the
/// loop, so buffered lines never wait for the poll timeout.
fn serve(
    conn_id: u64,
    conn: &mut Conn,
    readable: bool,
    shared: &Shared,
    token_conn: &mut HashMap<u64, u64>,
    next_token: &mut u64,
) {
    while !conn.dead {
        if !conn.accepts_input() {
            conn.flush();
            if !conn.accepts_input() {
                return;
            }
        }
        if let Some(line) = conn.next_line() {
            handle_line(conn_id, &line, conn, shared, token_conn, next_token);
            conn.pump();
            continue;
        }
        if conn.rbuf.len() - conn.rpos > MAX_LINE_BYTES {
            let msg = format!("request line longer than {MAX_LINE_BYTES} bytes");
            shared.metrics.requests.inc();
            shared.metrics.bad_requests.inc();
            conn.slots.push_back(Slot::Ready(
                WireError::new(ErrCode::BadRequest, msg).to_line(),
            ));
            conn.read_closed = true;
            conn.rbuf = Vec::new();
            (conn.rpos, conn.scanned) = (0, 0);
            break;
        }
        if !readable || conn.read_closed || !conn.read_chunk() {
            break;
        }
    }
    conn.pump();
    conn.flush();
}

/// Routes one framed line and queues its reply slot.
fn handle_line(
    conn_id: u64,
    line: &str,
    conn: &mut Conn,
    shared: &Shared,
    token_conn: &mut HashMap<u64, u64>,
    next_token: &mut u64,
) {
    let line = line.trim();
    if line.is_empty() {
        return; // blank lines draw no reply
    }
    // panic fence: a routing bug costs this request an `err internal`,
    // never the event loop
    let slot = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        route(line, shared, next_token)
    }))
    .unwrap_or_else(|_| {
        Slot::Ready(WireError::new(ErrCode::Internal, "request handler panicked").to_line())
    });
    if let Slot::Pending(token) = slot {
        token_conn.insert(token, conn_id);
    }
    conn.slots.push_back(slot);
}

/// Parses one request line and answers it: everything except `solve`
/// inline, a `solve` by submitting it to the pool.
fn route(line: &str, shared: &Shared, next_token: &mut u64) -> Slot {
    let metrics = &shared.metrics;
    metrics.requests.inc();
    let request = match Request::parse(line) {
        Ok(r) => r,
        Err(e) => {
            metrics.bad_requests.inc();
            return Slot::Ready(e.to_line());
        }
    };
    Slot::Ready(match request {
        Request::Solve(_) if shared.stopping() => {
            WireError::new(ErrCode::ShuttingDown, "server is draining").to_line()
        }
        Request::Solve(spec) => return submit(*spec, shared, next_token),
        Request::Incr(op) => match shared.sessions.apply(op) {
            Ok(out) => {
                metrics.incr_ops.inc();
                metrics
                    .sessions_open
                    .set(shared.sessions.open_count() as u64);
                metrics.session_mutations.add(out.mutations);
                metrics.session_moves.add(out.moves);
                if out.warm_solve {
                    metrics.session_warm_solves.inc();
                }
                format!("ok {}", out.reply)
            }
            Err(e) => {
                if e.code == ErrCode::BadRequest {
                    metrics.bad_requests.inc();
                }
                e.to_line()
            }
        },
        Request::Stats2 => {
            metrics
                .sessions_open
                .set(shared.sessions.open_count() as u64);
            format!(
                "ok {}",
                metrics.stats2_line(shared.cache.hits(), shared.cache.misses())
            )
        }
        Request::Shutdown => {
            shared.trigger_shutdown();
            "ok draining=1".to_string()
        }
    })
}

/// Queues a solve in the pool with a completion-queue reply sink. The
/// slot is pending under a fresh token, or ready with the pool's refusal.
fn submit(spec: SolveSpec, shared: &Shared, next_token: &mut u64) -> Slot {
    let now = Instant::now();
    let deadline = spec.deadline_ms.map(|ms| now + Duration::from_millis(ms));
    let token = *next_token;
    *next_token += 1;
    let sink = {
        let completions = Arc::clone(&shared.completions);
        Box::new(move |reply: String| completions.push(token, reply))
    };
    let job = SolveJob::new(spec, now, deadline, sink);
    match shared.pool.lock().submit(job) {
        Ok(()) => Slot::Pending(token),
        Err(e) => {
            if e.code == ErrCode::Overloaded {
                shared.metrics.overloaded.inc();
            }
            Slot::Ready(e.to_line())
        }
    }
}

/// The readiness loop: owns the listener and every connection until
/// shutdown. Runs on the dedicated `hgp-event` thread.
pub(crate) fn event_loop(listener: TcpListener, shared: Arc<Shared>) {
    let completions = &shared.completions;
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
            if !c.read_closed && c.accepts_input() {
                interest |= POLLIN;
            }
            if c.unsent() > 0 {
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
                        conns.insert(next_conn_id, Conn::new(stream));
                        next_conn_id += 1;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
            shared.metrics.conns_open.set(conns.len() as u64);
        }

        // 3. per-connection IO on the fds poll reported: flush first, so
        //    a client that read its replies drops under the high-water
        //    marks, then route buffered and newly readable lines (every
        //    connection, since completions may also have freed one)
        for (i, entry) in entries.iter().enumerate().skip(2) {
            let id = slot_ids[i - 2];
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            if entry.ready & (POLLERR | POLLNVAL) != 0 {
                conn.dead = true;
                continue;
            }
            conn.flush();
            serve(
                id,
                conn,
                entry.readable(),
                &shared,
                &mut token_conn,
                &mut next_token,
            );
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
                false
            } else {
                true
            }
        });
        shared.metrics.conns_open.set(conns.len() as u64);
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
            if !conn.dead && conn.unsent() > 0 {
                conn.flush();
                unsent |= !conn.dead && conn.unsent() > 0;
            }
        }
        if !unsent {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    conns.clear();
    shared.metrics.conns_open.set(0);
}
