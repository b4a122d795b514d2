//! Minimal `poll(2)` binding, declared locally (like the daemon's
//! `signal` handler) to keep the workspace dependency-free.

use std::io;
use std::os::unix::io::RawFd;

/// Readable-data event flag.
pub const POLLIN: i16 = 0x001;
/// Writable-without-blocking event flag.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// Invalid fd (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One entry of the `poll(2)` fd set; layout-compatible with `struct
/// pollfd` on Linux.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by the kernel.
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for `events`.
    pub fn new(fd: RawFd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// True when the kernel reported any of `flags`.
    pub fn has(&self, flags: i16) -> bool {
        self.revents & flags != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Block until an fd is ready or `timeout_ms` elapses (−1 = forever).
/// Returns the number of ready fds; `EINTR` is reported as 0 so callers
/// simply re-loop.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a live, exclusively borrowed slice of `PollFd`,
    // which is `#[repr(C)]` with the layout of `struct pollfd`, and `nfds`
    // is its length, so the kernel reads the entries and writes their
    // `revents` only within memory the slice owns, and only during the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_sees_readable_socketpair() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Nothing written yet: times out with no ready fds.
        assert_eq!(poll_fds(&mut fds, 10).unwrap(), 0);
        a.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert!(fds[0].has(POLLIN));
    }
}
