//! Minimal readiness-notification layer for the network front-end: one
//! `epoll` [`Poller`] and one `eventfd` [`Waker`].
//!
//! Both wrap the Linux system calls directly through `extern "C"`
//! declarations — the symbols are in libc, which std already links, so no
//! new crate is needed. There is no portable fallback: Linux is the only
//! target this crate is built and tested on.
//!
//! The surface is the intersection the event loop actually needs: register
//! a file descriptor with a `u64` token and a read/write interest mask,
//! re-arm it, drop it, and wait — plus a way for *other threads* to end that
//! wait. Edge cases like `EPOLLERR`/`EPOLLHUP` are folded into "readable" so
//! the loop discovers closures through a zero read, the same path as an
//! orderly shutdown.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Interest in readability (mapped to `EPOLLIN`).
pub const READABLE: u32 = 0x001;
/// Interest in writability (mapped to `EPOLLOUT`).
pub const WRITABLE: u32 = 0x004;

/// One readiness notification: the token the fd was registered with plus
/// the [`READABLE`]/[`WRITABLE`] bits that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token supplied at registration.
    pub token: u64,
    /// The readiness bits ([`READABLE`] | [`WRITABLE`]).
    pub ready: u32,
}

impl Event {
    /// `true` if the fd is readable (or errored/hung up, which reads
    /// report too).
    pub fn readable(&self) -> bool {
        self.ready & READABLE != 0
    }

    /// `true` if the fd is writable.
    pub fn writable(&self) -> bool {
        self.ready & WRITABLE != 0
    }
}

// epoll's event struct is packed on x86-64 (a 12-byte layout the kernel ABI
// fixes); other architectures use natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

/// Readiness poller backed by an `epoll` instance.
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

impl Poller {
    /// Creates the epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes no pointers; a negative return is
        // reported through errno.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: i32, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent {
            events: (if interest & READABLE != 0 { EPOLLIN } else { 0 })
                | (if interest & WRITABLE != 0 {
                    EPOLLOUT
                } else {
                    0
                }),
            data: token,
        };
        let event_ptr = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut event as *mut EpollEvent
        };
        // SAFETY: `event` outlives the call (the kernel copies it); DEL
        // passes null as the man page allows on kernels >= 2.6.9.
        if unsafe { epoll_ctl(self.epfd, op, fd, event_ptr) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest mask.
    pub fn register(&mut self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Replaces the interest mask of an already registered `fd`.
    pub fn rearm(&mut self, fd: i32, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Removes `fd` from the poller. Errors are swallowed: the fd may
    /// already be closed, which deregisters implicitly.
    pub fn deregister(&mut self, fd: i32) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks until an event fires — or, with `Some(timeout)`, until it
    /// elapses — and stores the notifications in `events` (cleared first).
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        events.clear();
        const CAP: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAP];
        let millis = match timeout {
            Some(timeout) => timeout.as_millis().min(i32::MAX as u128) as i32,
            None => -1,
        };
        // SAFETY: `raw` is a valid writable buffer of CAP entries for the
        // duration of the call.
        let n = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as i32, millis) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for entry in raw.iter().take(n as usize) {
            let bits = entry.events;
            let mut ready = 0u32;
            if bits & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
                ready |= READABLE;
            }
            if bits & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0 {
                ready |= WRITABLE;
            }
            events.push(Event {
                token: entry.data,
                ready,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd was returned by epoll_create1 and is closed exactly
        // once.
        unsafe {
            close(self.epfd);
        }
    }
}

/// Lets any thread end a [`Poller::wait`]: an `eventfd` the poller watches
/// for readability (register [`Waker::fd`] under a token of its own), plus
/// a `notified` flag so that however many threads call [`Waker::wake`]
/// between two [`Waker::reset`]s, one `write` is issued and one event fires.
///
/// The owner of the poller calls [`Waker::reset`] when the waker's token
/// fires and only *then* looks at whatever the wakers published (a channel,
/// a stop flag): a `wake` that found the flag still set — and therefore
/// wrote nothing — is ordered before the reset's swap, so what its caller
/// published beforehand is visible to that look.
#[derive(Debug)]
pub struct Waker {
    fd: i32,
    notified: AtomicBool,
}

impl Waker {
    /// Creates the eventfd (close-on-exec, nonblocking).
    pub fn new() -> io::Result<Waker> {
        // SAFETY: eventfd takes no pointers; a negative return is reported
        // through errno.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Waker {
            fd,
            notified: AtomicBool::new(false),
        })
    }

    /// The fd to register with the [`Poller`] ([`READABLE`] interest).
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Makes the waker's token fire. Cheap when it already will: only the
    /// first call after a [`Waker::reset`] reaches the kernel.
    pub fn wake(&self) {
        if !self.notified.swap(true, Ordering::SeqCst) {
            let one = 1u64.to_ne_bytes();
            // SAFETY: `one` is 8 readable bytes, the size eventfd requires.
            // The write cannot fail short of counter overflow (2^64 - 2
            // wakes without a reset), so its result carries no information.
            unsafe {
                write(self.fd, one.as_ptr(), one.len());
            }
        }
    }

    /// Consumes the pending event and re-arms [`Waker::wake`]. The counter
    /// is drained *before* the flag is cleared: the other order would let a
    /// concurrent `wake` write a count this call then swallows, leaving the
    /// flag set with nothing to fire — every later `wake` a no-op.
    pub fn reset(&self) {
        let mut count = [0u8; 8];
        // SAFETY: `count` is 8 writable bytes, the size eventfd requires. A
        // zero counter makes the nonblocking read fail with EAGAIN, which
        // is as good as a drained one.
        unsafe {
            read(self.fd, count.as_mut_ptr(), count.len());
        }
        // A swap, not a store: reading the flag a `wake` set is what orders
        // that wake's caller before whatever this thread does next.
        self.notified.swap(false, Ordering::SeqCst);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: fd was returned by eventfd and is closed exactly once.
        unsafe {
            close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAKER: u64 = 9;

    fn poller_with_waker() -> (Poller, Waker, Vec<Event>) {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.fd(), WAKER, READABLE).unwrap();
        (poller, waker, Vec::new())
    }

    #[test]
    fn poller_sees_a_readable_listener() {
        use std::io::Write;
        use std::net::{TcpListener, TcpStream};
        use std::os::unix::io::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(listener.as_raw_fd(), 7, READABLE).unwrap();
        let mut events = Vec::new();
        // Nothing pending: a wait that only polls reports nothing.
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());

        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(b"x").unwrap();
        // `connect` returned, so the connection sits in the backlog: an
        // untimed wait returns it.
        poller.wait(&mut events, None).unwrap();
        assert_eq!(
            events,
            [Event {
                token: 7,
                ready: READABLE
            }]
        );
        poller.deregister(listener.as_raw_fd());
    }

    #[test]
    fn a_wake_before_the_wait_ends_an_untimed_wait() {
        let (mut poller, waker, mut events) = poller_with_waker();
        waker.wake();
        poller.wait(&mut events, None).unwrap();
        assert_eq!(
            events,
            [Event {
                token: WAKER,
                ready: READABLE
            }]
        );
    }

    #[test]
    fn a_wake_from_another_thread_ends_an_untimed_wait() {
        let (mut poller, waker, mut events) = poller_with_waker();
        std::thread::scope(|scope| {
            scope.spawn(|| waker.wake());
            poller.wait(&mut events, None).unwrap();
        });
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, WAKER);
    }

    #[test]
    fn wakes_between_resets_coalesce_into_one_event() {
        let (mut poller, waker, mut events) = poller_with_waker();
        waker.wake();
        waker.wake();
        poller.wait(&mut events, None).unwrap();
        assert_eq!(events.len(), 1);
        // The second wake never reached the kernel: the counter reads 1.
        let mut count = [0u8; 8];
        // SAFETY: `count` is 8 writable bytes, the size eventfd requires.
        let n = unsafe { read(waker.fd, count.as_mut_ptr(), count.len()) };
        assert_eq!((n, u64::from_ne_bytes(count)), (8, 1));
        waker.reset();
        // Nothing is left to fire, so a wait that only polls reports
        // nothing.
        poller.wait(&mut events, Some(Duration::ZERO)).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn a_wake_after_a_reset_fires_again() {
        let (mut poller, waker, mut events) = poller_with_waker();
        for _ in 0..3 {
            waker.wake();
            poller.wait(&mut events, None).unwrap();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].token, WAKER);
            waker.reset();
        }
    }
}
