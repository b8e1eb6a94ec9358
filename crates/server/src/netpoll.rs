//! Readiness polling for the event-driven front end: a vendored-style
//! shim over POSIX `poll(2)` and `pipe(2)`.
//!
//! The workspace is deliberately crates.io-free, so instead of `mio`/
//! `libc` this module declares the two syscall entry points the event
//! loop needs as `extern "C"` bindings and wraps them in a safe,
//! minimal API: [`poll_ready`] over a caller-owned slice of [`PollEntry`]s,
//! and a [`WakePipe`] self-pipe that lets solver workers (or any other
//! thread) interrupt a sleeping `poll` when a reply is ready to flush.
//!
//! `poll(2)` rather than `epoll(7)` is a deliberate trade: it is
//! portable POSIX (no Linux-only fd lifecycle to manage), carries no
//! registration state that could drift from the connection table, and
//! its O(n)-per-wakeup scan is cheap at the connection counts this
//! server targets (the loopback test `event_loop_holds_hundreds_of_connections`
//! holds hundreds open through it). The shim is private to the crate,
//! which is unix-only for its sake.

use std::io;
use std::os::unix::io::RawFd;

/// Readable interest / readiness (POSIX `POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable interest / readiness (POSIX `POLLOUT`).
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only; POSIX `POLLERR`).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only; POSIX `POLLHUP`).
pub const POLLHUP: i16 = 0x010;
/// Invalid fd (revents only; POSIX `POLLNVAL`).
pub const POLLNVAL: i16 = 0x020;

extern "C" {
    // nfds_t is `unsigned long` on the 64-bit unix targets this
    // workspace builds for.
    fn poll(fds: *mut PollEntry, nfds: u64, timeout: i32) -> i32;
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn fcntl(fd: i32, cmd: i32, arg: i32) -> i32;
}

const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const F_SETFD: i32 = 2;
const FD_CLOEXEC: i32 = 1;
#[cfg(target_os = "linux")]
const O_NONBLOCK: i32 = 0o4000;
#[cfg(not(target_os = "linux"))]
const O_NONBLOCK: i32 = 0x0004;

/// One fd the caller wants readiness for. Laid out as `struct pollfd`
/// (`fd`, `events`, `revents`, identical on every unix libc), so a slice
/// of entries goes to `poll(2)` as it is.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollEntry {
    /// The file descriptor.
    pub fd: i32,
    /// Requested events (`POLLIN | POLLOUT`).
    pub interest: i16,
    /// Returned events after [`poll_ready`] (includes error conditions).
    pub ready: i16,
}

impl PollEntry {
    /// An entry asking for `interest` on `fd` with no readiness yet.
    pub fn new(fd: RawFd, interest: i16) -> Self {
        Self {
            fd,
            interest,
            ready: 0,
        }
    }

    /// True when the fd is readable (or in an error/hangup state, which
    /// a subsequent `read` surfaces as 0/err — the caller must read to
    /// observe it).
    pub fn readable(&self) -> bool {
        self.ready & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// Blocks until at least one entry is ready or `timeout_ms` elapses
/// (`-1` blocks indefinitely). Fills each entry's `ready` mask and
/// returns how many entries are ready; `Ok(0)` is a timeout. `EINTR`
/// is retried internally so callers never see spurious failures from
/// signals.
pub fn poll_ready(entries: &mut [PollEntry], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `PollEntry` has `struct pollfd`'s layout, and `entries`
        // is a live, correctly-sized array of them for the whole call.
        let rc = unsafe { poll(entries.as_mut_ptr(), entries.len() as u64, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A self-pipe: any thread holding the pipe can [`WakePipe::wake`] a
/// poller that includes [`WakePipe::read_fd`] in its entry set. Writes
/// and reads are non-blocking; a full pipe is fine (the wake is already
/// pending) and an empty drain is fine (another drain got there first).
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

// SAFETY: the pipe fds are only used through atomic read/write syscalls.
unsafe impl Send for WakePipe {}
unsafe impl Sync for WakePipe {}

impl WakePipe {
    /// Creates the pipe with both ends non-blocking and close-on-exec.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid 2-element array.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return Err(io::Error::last_os_error());
        }
        for fd in fds {
            // SAFETY: fd is a freshly-created pipe end we own.
            unsafe {
                let flags = fcntl(fd, F_GETFL, 0);
                fcntl(fd, F_SETFL, flags | O_NONBLOCK);
                fcntl(fd, F_SETFD, FD_CLOEXEC);
            }
        }
        Ok(WakePipe {
            read_fd: fds[0],
            write_fd: fds[1],
        })
    }

    /// The fd a poller should watch with [`POLLIN`].
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Makes the read end readable, waking a sleeping poller. Lossy by
    /// design: if the pipe is already full the wake is already pending.
    pub fn wake(&self) {
        let byte = [1u8];
        // SAFETY: write_fd is a live pipe end owned by self; a short or
        // failed write (EAGAIN on a full pipe) is intentionally ignored.
        unsafe {
            let _ = write(self.write_fd, byte.as_ptr(), 1);
        }
    }

    /// Empties the read end so the next [`WakePipe::wake`] edge is
    /// observable again. Call after `poll` reports the read fd ready.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: read_fd is a live non-blocking pipe end; buf is a
            // valid buffer of the stated length.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return; // drained (EAGAIN) or raced with another drain
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        // SAFETY: both fds are owned by self and closed exactly once.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn wake_pipe_interrupts_a_sleeping_poll() {
        let pipe = std::sync::Arc::new(WakePipe::new().unwrap());
        let waker = std::sync::Arc::clone(&pipe);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let mut entries = [PollEntry::new(pipe.read_fd(), POLLIN)];
        let start = Instant::now();
        let n = poll_ready(&mut entries, 5_000).unwrap();
        assert_eq!(n, 1);
        assert!(entries[0].readable());
        assert!(start.elapsed() < Duration::from_secs(4), "poll never woke");
        pipe.drain();
        // drained: an immediate re-poll times out
        let mut entries = [PollEntry::new(pipe.read_fd(), POLLIN)];
        assert_eq!(poll_ready(&mut entries, 0).unwrap(), 0);
        t.join().unwrap();
    }

    #[test]
    fn wake_is_idempotent_and_drain_safe_when_empty() {
        let pipe = WakePipe::new().unwrap();
        pipe.drain(); // empty drain is a no-op
        for _ in 0..1000 {
            pipe.wake(); // far beyond pipe capacity must not block
        }
        let mut entries = [PollEntry::new(pipe.read_fd(), POLLIN)];
        assert_eq!(poll_ready(&mut entries, 0).unwrap(), 1);
        pipe.drain();
    }

    #[test]
    fn poll_reports_tcp_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();

        let mut entries = [PollEntry::new(server_side.as_raw_fd(), POLLIN | POLLOUT)];
        let n = poll_ready(&mut entries, 1_000).unwrap();
        assert!(n >= 1);
        assert!(
            entries[0].ready & POLLOUT != 0,
            "fresh socket must be writable"
        );

        client.write_all(b"hello\n").unwrap();
        let mut entries = [PollEntry::new(server_side.as_raw_fd(), POLLIN)];
        let n = poll_ready(&mut entries, 1_000).unwrap();
        assert_eq!(n, 1);
        assert!(entries[0].readable());
        let mut buf = [0u8; 16];
        let got = (&server_side).read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"hello\n");
    }

    #[test]
    fn poll_times_out_when_nothing_is_ready() {
        let pipe = WakePipe::new().unwrap();
        let mut entries = [PollEntry::new(pipe.read_fd(), POLLIN)];
        let start = Instant::now();
        assert_eq!(poll_ready(&mut entries, 50).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(45));
    }
}
