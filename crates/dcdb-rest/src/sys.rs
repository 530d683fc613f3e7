//! Raw `poll(2)` binding — the readiness primitive for the event-loop
//! server and the high-concurrency bench client.
//!
//! The workspace vendors no `libc` or `mio` crate, so the one symbol
//! needed is declared directly against the platform C library (always
//! linked on the targets this workspace supports). Everything else the
//! event loops need — non-blocking sockets, a shutdown wake socket —
//! comes from `std` (`set_nonblocking`, `UnixStream::pair`).

use std::io;
use std::os::raw::{c_int, c_ulong};

/// Mirror of `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch (negative entries are ignored).
    pub fd: c_int,
    /// Requested events ([`POLLIN`] / [`POLLOUT`]).
    pub events: i16,
    /// Returned events; also reports [`POLLERR`] / [`POLLHUP`] /
    /// [`POLLNVAL`] regardless of `events`.
    pub revents: i16,
}

impl PollFd {
    /// A pollfd watching `fd` for `events`.
    pub fn new(fd: c_int, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// Readable data (or a pending accept) is available.
pub const POLLIN: i16 = 0x001;
/// Writing will not block.
pub const POLLOUT: i16 = 0x004;
/// Error condition on the descriptor.
pub const POLLERR: i16 = 0x008;
/// Peer hung up.
pub const POLLHUP: i16 = 0x010;
/// Descriptor is not open.
pub const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Waits up to `timeout_ms` for readiness on `fds`, retrying on
/// `EINTR`. Returns the number of descriptors with non-zero `revents`.
pub fn poll_ready(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_reports_readable_pipe() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        assert_eq!(poll_ready(&mut fds, 0).unwrap(), 0);
        tx.write_all(&[1]).unwrap();
        assert_eq!(poll_ready(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn poll_times_out_on_quiet_fd() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        assert_eq!(poll_ready(&mut fds, 10).unwrap(), 0);
    }
}
