//! The readiness-based serving core: one event-loop thread owning every
//! socket, a fixed worker pool doing only CPU work.
//!
//! The blocking pool ([`crate::pool`]) dedicates a worker thread to a
//! connection for its whole lifetime, so slow clients occupy workers
//! and concurrency is capped at the thread count. The reactor inverts
//! that: the event loop does all socket IO (nonblocking accept, read,
//! write) and all protocol parsing via the per-connection state machine
//! in [`crate::conn`]; workers only ever see fully parsed requests and
//! return fully rendered results. Thousands of connections cost one
//! thread plus a few KiB each.
//!
//! Plumbing, mirroring the no-FFI-crate discipline of
//! `stj-store::Mapping`: a private `sys` module declares the four
//! `epoll` / `eventfd` syscalls straight from the C ABI, Linux-only;
//! every other platform falls back to the blocking pool.
//!
//! - **In**: readable sockets append to the connection's read buffer;
//!   each complete request is pushed onto a *bounded* job queue. A full
//!   queue sheds that request with a keep-alive `429 Retry-After: 1` —
//!   per request, not per connection, written by the event loop itself.
//! - **Out**: workers park results on a completion queue and wake the
//!   event loop via `eventfd`; responses are rendered into the
//!   connection's write buffer and flushed as the socket accepts them.
//! - **Streams**: `/v1/discover` replies are pulled chunk by chunk. The
//!   next chunk's job is enqueued only after the previous chunk fully
//!   reached the socket, so a slow reader applies backpressure and the
//!   server holds at most one chunk per stream. Stream continuations
//!   ride an *unbounded* lane of the job queue — shedding them would
//!   corrupt a response already underway.
//! - **Drain**: on shutdown the loop stops accepting, closes idle
//!   connections, lets dispatched work and write-outs finish (bounded
//!   by `DRAIN_TIMEOUT` = 10 s), then stops the workers.

#[cfg(target_os = "linux")]
use crate::conn::{Conn, ParseStep, Phase};
#[cfg(target_os = "linux")]
use crate::query::Response;
use crate::{ServeCtx, ShutdownFlag};
use std::io;
use std::net::TcpListener;
use std::sync::Arc;

/// Whether this platform has the reactor (Linux epoll); elsewhere
/// `Server::run` uses the blocking pool.
pub fn supported() -> bool {
    cfg!(target_os = "linux")
}

/// Serves `listener` until `shutdown`, reactor-style. Errors with
/// `Unsupported` on non-Linux platforms.
#[cfg(not(target_os = "linux"))]
pub fn run(_listener: TcpListener, _ctx: Arc<ServeCtx>, _shutdown: ShutdownFlag) -> io::Result<()> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "reactor requires linux epoll",
    ))
}

#[cfg(target_os = "linux")]
pub use imp::run;

/// Raw syscall surface. Declared directly against the C ABI — the
/// workspace builds offline with no libc crate (the same pattern as
/// `stj-store`'s `mmap` module).
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    /// `struct epoll_event`. x86-64 packs it to 12 bytes; other
    /// architectures use natural alignment.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
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
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn close(fd: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::sys;
    use super::*;
    use crate::conn::ParsedRequest;
    use crate::discover::DiscoverStream;
    use crate::query::{self, Reply};
    use crate::ConnState;
    use std::collections::VecDeque;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Condvar, Mutex};
    use std::time::{Duration, Instant};
    use stj_core::RelateScratch;

    /// Epoll token of the listening socket.
    const TOKEN_LISTENER: u64 = u64::MAX;
    /// Epoll token of the completion-wakeup eventfd.
    const TOKEN_WAKE: u64 = u64::MAX - 1;

    /// How long a drain may wait for in-flight work and write-outs.
    const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

    /// Requests at least this slow get a span line on stderr.
    const SLOW_REQUEST_LOG: Duration = Duration::from_millis(500);

    /// Hard cap on buffered-but-unparsed bytes per connection (pipelined
    /// requests queued behind a dispatched one). Far above any legal
    /// single request; a peer exceeding it is flooding.
    const MAX_BUFFERED_BYTES: usize = 2 * 1024 * 1024;

    /// Slot index + epoch → epoll token (and worker-completion tag).
    fn token_of(idx: usize, epoch: u32) -> u64 {
        (u64::from(epoch) << 32) | idx as u64
    }

    /// RAII epoll instance.
    struct Epoll {
        fd: i32,
    }

    impl Epoll {
        fn new() -> io::Result<Epoll> {
            // SAFETY: plain syscall, no pointers.
            let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Epoll { fd })
        }

        fn ctl(&self, op: i32, fd: i32, token: u64, events: u32) -> io::Result<()> {
            let mut ev = sys::EpollEvent {
                events,
                data: token,
            };
            let evp = if op == sys::EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev
            };
            // SAFETY: `evp` points at a live EpollEvent (or is null for
            // DEL, which ignores it); the kernel copies it out before
            // returning.
            if unsafe { sys::epoll_ctl(self.fd, op, fd, evp) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn add(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_ADD, fd, token, events)
        }

        fn modify(&self, fd: i32, token: u64, events: u32) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_MOD, fd, token, events)
        }

        fn del(&self, fd: i32) -> io::Result<()> {
            self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Waits for events; EINTR reports as zero events.
        fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> io::Result<usize> {
            // SAFETY: the buffer outlives the call and its length is
            // passed as maxevents.
            let n = unsafe {
                sys::epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            Ok(n as usize)
        }
    }

    impl Drop for Epoll {
        fn drop(&mut self) {
            // SAFETY: fd is owned by this instance.
            unsafe { sys::close(self.fd) };
        }
    }

    /// The completion wakeup: workers `wake()` after parking a result,
    /// the event loop `drain()`s the counter when the token fires.
    struct EventFd {
        fd: i32,
    }

    impl EventFd {
        fn new() -> io::Result<EventFd> {
            // SAFETY: plain syscall, no pointers.
            let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EventFd { fd })
        }

        fn wake(&self) {
            let one: u64 = 1;
            // SAFETY: writes 8 bytes from a live u64; eventfd writes
            // are async-signal- and thread-safe.
            unsafe {
                sys::write(self.fd, (&one as *const u64).cast(), 8);
            }
        }

        fn drain(&self) {
            let mut buf = 0u64;
            // SAFETY: reads 8 bytes into a live u64; EFD_NONBLOCK makes
            // the read fail with EAGAIN once the counter is zero.
            unsafe {
                sys::read(self.fd, (&mut buf as *mut u64).cast(), 8);
            }
        }
    }

    impl Drop for EventFd {
        fn drop(&mut self) {
            // SAFETY: fd is owned by this instance.
            unsafe { sys::close(self.fd) };
        }
    }

    // SAFETY: EventFd is just an fd; eventfd read/write are thread-safe.
    unsafe impl Send for EventFd {}
    unsafe impl Sync for EventFd {}

    /// Work for the pool.
    enum Job {
        /// A fresh, fully parsed request (bounded lane — sheddable).
        Request {
            token: u64,
            parsed: ParsedRequest,
            enqueued: Instant,
            trace_id: u64,
        },
        /// The next chunk of an in-flight stream (unbounded lane —
        /// never shed; at most one exists per connection).
        Chunk {
            token: u64,
            stream: DiscoverStream,
            enqueued: Instant,
        },
    }

    /// A finished unit of worker output.
    enum Done {
        Response {
            token: u64,
            resp: Response,
            keep_alive: bool,
        },
        /// Stream start: rendered head + first chunk; `stream` is
        /// `None` when that chunk was also the last.
        StreamHead {
            token: u64,
            head: Vec<u8>,
            chunk: Vec<u8>,
            stream: Option<DiscoverStream>,
        },
        StreamChunk {
            token: u64,
            chunk: Vec<u8>,
            stream: Option<DiscoverStream>,
        },
    }

    /// Two-lane job queue: bounded fresh requests, unbounded stream
    /// continuations. Continuations pop first — finishing a response in
    /// flight beats starting a new one.
    struct JobQueue {
        state: Mutex<Lanes>,
        ready: Condvar,
        depth: usize,
        stopped: AtomicBool,
    }

    #[derive(Default)]
    struct Lanes {
        fresh: VecDeque<Job>,
        cont: VecDeque<Job>,
    }

    impl JobQueue {
        fn new(depth: usize) -> JobQueue {
            JobQueue {
                state: Mutex::new(Lanes::default()),
                ready: Condvar::new(),
                depth: depth.max(1),
                stopped: AtomicBool::new(false),
            }
        }

        /// Queues a fresh request; returns `false` (dropping the job)
        /// when the lane is full so the caller sheds it.
        fn push_fresh(&self, job: Job, stats: &crate::ServeStats) -> bool {
            let mut q = self.state.lock().expect("job queue lock");
            if q.fresh.len() >= self.depth {
                return false;
            }
            q.fresh.push_back(job);
            stats.queue_depth.set(q.fresh.len() as u64);
            drop(q);
            self.ready.notify_one();
            true
        }

        fn push_cont(&self, job: Job) {
            self.state
                .lock()
                .expect("job queue lock")
                .cont
                .push_back(job);
            self.ready.notify_one();
        }

        /// Blocks for the next job; `None` once stopped and empty.
        fn pop(&self, stats: &crate::ServeStats) -> Option<Job> {
            let mut q = self.state.lock().expect("job queue lock");
            loop {
                if let Some(job) = q.cont.pop_front() {
                    return Some(job);
                }
                if let Some(job) = q.fresh.pop_front() {
                    stats.queue_depth.set(q.fresh.len() as u64);
                    return Some(job);
                }
                if self.stopped.load(Ordering::SeqCst) {
                    return None;
                }
                let (guard, _) = self
                    .ready
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("job queue lock");
                q = guard;
            }
        }

        fn stop(&self) {
            self.stopped.store(true, Ordering::SeqCst);
            self.ready.notify_all();
        }
    }

    /// Worker → event loop results, with the eventfd wakeup attached.
    struct DoneQueue {
        q: Mutex<VecDeque<Done>>,
        waker: Arc<EventFd>,
    }

    impl DoneQueue {
        fn push(&self, d: Done) {
            self.q.lock().expect("done queue lock").push_back(d);
            self.waker.wake();
        }

        fn drain_into(&self, out: &mut Vec<Done>) {
            let mut q = self.q.lock().expect("done queue lock");
            out.extend(q.drain(..));
        }
    }

    /// One worker: pops parsed requests, runs handlers with its own
    /// scratch arena, parks results. Never touches a socket.
    fn worker_loop(ctx: &ServeCtx, jobs: &JobQueue, done: &DoneQueue) {
        let mut scratch = RelateScratch::default();
        while let Some(job) = jobs.pop(&ctx.stats) {
            let d = match job {
                Job::Request {
                    token,
                    parsed,
                    enqueued,
                    trace_id,
                } => run_request(ctx, token, parsed, enqueued, trace_id, &mut scratch),
                Job::Chunk {
                    token,
                    mut stream,
                    enqueued,
                } => {
                    ctx.stats
                        .state_latency(ConnState::Queue)
                        .record(enqueued.elapsed().as_nanos() as u64);
                    let start = Instant::now();
                    let chunk = stream.next_chunk(ctx, &mut scratch).unwrap_or_default();
                    ctx.stats
                        .state_latency(ConnState::Exec)
                        .record(start.elapsed().as_nanos() as u64);
                    let more = (!stream.is_finished()).then_some(stream);
                    Done::StreamChunk {
                        token,
                        chunk,
                        stream: more,
                    }
                }
            };
            done.push(d);
        }
    }

    fn run_request(
        ctx: &ServeCtx,
        token: u64,
        parsed: ParsedRequest,
        enqueued: Instant,
        trace_id: u64,
        scratch: &mut RelateScratch,
    ) -> Done {
        ctx.stats
            .state_latency(ConnState::Queue)
            .record(enqueued.elapsed().as_nanos() as u64);
        ctx.stats.in_flight.inc();
        let keep_alive_req = parsed.keep_alive();
        let start = Instant::now();
        let (endpoint, reply) = match parsed {
            ParsedRequest::Http(req) => {
                let endpoint = query::endpoint_of(&req.path);
                let reply = query::dispatch_reply(
                    ctx,
                    &req.method,
                    &req.path,
                    &req.query,
                    &req.body,
                    scratch,
                );
                (endpoint, reply)
            }
            ParsedRequest::Framed(req) => {
                let endpoint = query::endpoint_of(req.target.split('?').next().unwrap_or(""));
                let reply = match query::parse_target(&req.target) {
                    Ok((path, q)) => {
                        query::dispatch_reply(ctx, &req.method, &path, &q, &req.body, scratch)
                    }
                    Err(resp) => Reply::Full(resp),
                };
                // Framing has no streamed responses; buffer them whole.
                (endpoint, Reply::Full(reply.into_response(ctx, scratch)))
            }
        };
        let elapsed = start.elapsed();
        ctx.stats
            .latency(endpoint)
            .record(elapsed.as_nanos() as u64);
        ctx.stats
            .state_latency(ConnState::Exec)
            .record(elapsed.as_nanos() as u64);
        ctx.stats.in_flight.dec();
        if elapsed >= SLOW_REQUEST_LOG {
            ctx.stats.slow_requests.inc();
            eprintln!(
                "stj-serve: slow request trace_id={trace_id} endpoint={} dur_ms={:.1}",
                endpoint.name(),
                elapsed.as_secs_f64() * 1e3,
            );
        }
        match reply {
            Reply::Full(resp) => {
                ctx.stats.note_status(resp.status);
                if resp.truncated {
                    ctx.stats.truncated_responses.inc();
                }
                let keep_alive = keep_alive_req && !resp.close;
                Done::Response {
                    token,
                    resp,
                    keep_alive,
                }
            }
            Reply::Stream(mut s) => {
                ctx.stats.note_status(200);
                let id = trace_id.to_string();
                let head =
                    crate::http::streaming_head(200, s.content_type(), &[("x-stj-trace-id", &id)]);
                let chunk = s.next_chunk(ctx, scratch).unwrap_or_default();
                let more = (!s.is_finished()).then_some(s);
                Done::StreamHead {
                    token,
                    head,
                    chunk,
                    stream: more,
                }
            }
        }
    }

    /// Why a connection hit a deadline.
    enum TimeoutCause {
        Idle,
        Header,
    }

    /// The event loop's owned state: connection slab plus shared
    /// handles.
    struct Loop<'a> {
        epoll: &'a Epoll,
        ctx: &'a ServeCtx,
        jobs: &'a JobQueue,
        shutdown: &'a ShutdownFlag,
        slots: Vec<Option<Conn>>,
        free: Vec<usize>,
        next_epoch: u32,
        draining: bool,
    }

    impl Loop<'_> {
        /// Resolves a token to a live slot, rejecting stale epochs.
        fn index_of(&self, token: u64) -> Option<usize> {
            let idx = (token & 0xFFFF_FFFF) as usize;
            let epoch = (token >> 32) as u32;
            match self.slots.get(idx) {
                Some(Some(c)) if c.epoch == epoch => Some(idx),
                _ => None,
            }
        }

        fn accept_all(&mut self, listener: &TcpListener) {
            loop {
                match listener.accept() {
                    Ok((sock, _peer)) => {
                        let _ = sock.set_nonblocking(true);
                        let _ = sock.set_nodelay(true);
                        self.ctx.stats.connections.inc();
                        self.next_epoch = self.next_epoch.wrapping_add(1).max(1);
                        let epoch = self.next_epoch;
                        let idx = self.free.pop().unwrap_or_else(|| {
                            self.slots.push(None);
                            self.slots.len() - 1
                        });
                        let conn = Conn::new(sock, epoch);
                        let fd = conn.sock.as_raw_fd();
                        if self
                            .epoll
                            .add(fd, token_of(idx, epoch), sys::EPOLLIN)
                            .is_err()
                        {
                            self.free.push(idx);
                            continue;
                        }
                        self.ctx.stats.open_connections.inc();
                        self.slots[idx] = Some(conn);
                        self.slots[idx].as_mut().expect("just stored").interest = sys::EPOLLIN;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }

        fn close(&mut self, idx: usize) {
            if let Some(conn) = self.slots[idx].take() {
                let _ = self.epoll.del(conn.sock.as_raw_fd());
                self.ctx.stats.open_connections.dec();
                let backlog = conn.backlog();
                if backlog > 0 {
                    self.ctx.stats.write_backlog_bytes.sub(backlog as u64);
                }
                self.free.push(idx);
                // Dropping the Conn closes the socket and releases any
                // paused stream (and its pinned generation).
            }
        }

        /// Re-registers the socket's epoll interest if it changed.
        fn want(&mut self, idx: usize, mask: u32) {
            let Some(conn) = self.slots[idx].as_mut() else {
                return;
            };
            if conn.interest == mask {
                return;
            }
            let token = token_of(idx, conn.epoch);
            let fd = conn.sock.as_raw_fd();
            conn.interest = mask;
            if self.epoll.modify(fd, token, mask).is_err() {
                self.close(idx);
            }
        }

        fn on_readable(&mut self, idx: usize) {
            let mut buf = [0u8; 16 * 1024];
            loop {
                let Some(conn) = self.slots[idx].as_mut() else {
                    return;
                };
                match conn.sock.read(&mut buf) {
                    Ok(0) => {
                        self.close(idx);
                        return;
                    }
                    Ok(n) => {
                        let now = Instant::now();
                        conn.last_activity = now;
                        if conn.phase == Phase::Reading && conn.head_started.is_none() {
                            conn.head_started = Some(now);
                        }
                        conn.rbuf.extend_from_slice(&buf[..n]);
                        if conn.rbuf.len() > MAX_BUFFERED_BYTES {
                            self.close(idx);
                            return;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close(idx);
                        return;
                    }
                }
            }
            self.try_dispatch(idx);
        }

        /// Parses and dispatches the next buffered request, if the
        /// connection is ready for one. At most one request per
        /// connection is in flight; pipelined followers wait in the
        /// read buffer until the response flushes.
        fn try_dispatch(&mut self, idx: usize) {
            let (step, keep_alive_hint) = {
                let Some(conn) = self.slots[idx].as_mut() else {
                    return;
                };
                if conn.phase != Phase::Reading {
                    return;
                }
                let step = conn.try_parse();
                let hint = match &step {
                    ParseStep::Request(p, _) => p.keep_alive(),
                    _ => false,
                };
                (step, hint)
            };
            match step {
                ParseStep::NeedMore => {}
                ParseStep::Error(resp) => {
                    self.ctx.stats.note_status(resp.status);
                    self.enqueue_and_flush(idx, &resp, false);
                }
                ParseStep::Request(parsed, consumed) => {
                    let stats = &self.ctx.stats;
                    stats.requests_total.inc();
                    match &parsed {
                        ParsedRequest::Http(_) => stats.requests_http.inc(),
                        ParsedRequest::Framed(_) => stats.requests_framed.inc(),
                    }
                    stats.bytes_in.add(consumed as u64);
                    let trace_id = stats.trace_seq.next();
                    let token = {
                        let conn = self.slots[idx].as_mut().expect("checked above");
                        if let Some(hs) = conn.head_started.take() {
                            stats
                                .state_latency(ConnState::Read)
                                .record(hs.elapsed().as_nanos() as u64);
                        }
                        conn.trace_id = trace_id;
                        token_of(idx, conn.epoch)
                    };
                    let job = Job::Request {
                        token,
                        parsed,
                        enqueued: Instant::now(),
                        trace_id,
                    };
                    if self.jobs.push_fresh(job, stats) {
                        let conn = self.slots[idx].as_mut().expect("checked above");
                        conn.phase = Phase::Dispatched;
                        // Interest stays readable so a peer close is
                        // noticed; new bytes just buffer.
                    } else {
                        // Queue full: shed THIS request, keep the
                        // connection (clients retry after 1s).
                        stats.rejected_429.inc();
                        let resp =
                            Response::error(429, "overloaded", "job queue full, retry later");
                        self.enqueue_and_flush(idx, &resp, keep_alive_hint);
                    }
                }
            }
        }

        /// Renders a reactor-originated response (sheds, parse errors)
        /// and starts flushing it.
        fn enqueue_and_flush(&mut self, idx: usize, resp: &Response, keep_alive: bool) {
            let Some(conn) = self.slots[idx].as_mut() else {
                return;
            };
            let before = conn.backlog();
            conn.enqueue_response(resp, keep_alive);
            let added = conn.backlog() - before;
            self.ctx.stats.write_backlog_bytes.add(added as u64);
            self.want(idx, sys::EPOLLIN | sys::EPOLLOUT);
            self.flush(idx);
        }

        fn flush(&mut self, idx: usize) {
            loop {
                let Some(conn) = self.slots[idx].as_mut() else {
                    return;
                };
                if conn.wpos >= conn.wbuf.len() {
                    break;
                }
                match conn.sock.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        self.close(idx);
                        return;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        conn.last_activity = Instant::now();
                        self.ctx.stats.bytes_out.add(n as u64);
                        self.ctx.stats.write_backlog_bytes.sub(n as u64);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.want(idx, sys::EPOLLIN | sys::EPOLLOUT);
                        return;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close(idx);
                        return;
                    }
                }
            }
            self.after_flush(idx);
        }

        /// The write buffer just drained: recycle, continue the stream,
        /// or close.
        fn after_flush(&mut self, idx: usize) {
            let (streaming, token) = {
                let Some(conn) = self.slots[idx].as_mut() else {
                    return;
                };
                conn.wbuf.clear();
                conn.wpos = 0;
                if let Some(ws) = conn.write_started.take() {
                    self.ctx
                        .stats
                        .state_latency(ConnState::Write)
                        .record(ws.elapsed().as_nanos() as u64);
                }
                (conn.streaming, token_of(idx, conn.epoch))
            };
            if streaming {
                let pending = self.slots[idx]
                    .as_mut()
                    .and_then(|c| c.pending_stream.take());
                match pending {
                    Some(stream) => {
                        // Backpressure point: only now that the previous
                        // chunk fully reached the socket does the next
                        // one get produced.
                        if let Some(conn) = self.slots[idx].as_mut() {
                            conn.phase = Phase::Dispatched;
                        }
                        self.want(idx, sys::EPOLLIN);
                        self.jobs.push_cont(Job::Chunk {
                            token,
                            stream,
                            enqueued: Instant::now(),
                        });
                    }
                    None => self.close(idx),
                }
                return;
            }
            let close = {
                let Some(conn) = self.slots[idx].as_mut() else {
                    return;
                };
                conn.close_after_write || self.shutdown.requested()
            };
            if close {
                self.close(idx);
                return;
            }
            {
                let conn = self.slots[idx].as_mut().expect("checked above");
                conn.phase = Phase::Reading;
                conn.trace_id = 0;
                // Pipelined bytes already buffered count as a started
                // request head for the slow-loris deadline.
                conn.head_started = (!conn.rbuf.is_empty()).then(Instant::now);
            }
            self.want(idx, sys::EPOLLIN);
            // Level-triggered epoll will not re-fire for bytes already
            // in our buffer — re-parse leftovers now.
            self.try_dispatch(idx);
        }

        fn apply_done(&mut self, d: Done) {
            match d {
                Done::Response {
                    token,
                    resp,
                    keep_alive,
                } => {
                    let Some(idx) = self.index_of(token) else {
                        return; // connection died while the job ran
                    };
                    let keep = keep_alive && !self.shutdown.requested();
                    self.enqueue_and_flush(idx, &resp, keep);
                }
                Done::StreamHead {
                    token,
                    head,
                    chunk,
                    stream,
                } => {
                    let Some(idx) = self.index_of(token) else {
                        return;
                    };
                    let added = {
                        let conn = self.slots[idx].as_mut().expect("index_of checked");
                        conn.streaming = true;
                        conn.close_after_write = true;
                        conn.pending_stream = stream;
                        conn.phase = Phase::Writing;
                        conn.write_started = Some(Instant::now());
                        conn.wbuf.extend_from_slice(&head);
                        conn.wbuf.extend_from_slice(&chunk);
                        (head.len() + chunk.len()) as u64
                    };
                    self.ctx.stats.write_backlog_bytes.add(added);
                    self.want(idx, sys::EPOLLIN | sys::EPOLLOUT);
                    self.flush(idx);
                }
                Done::StreamChunk {
                    token,
                    chunk,
                    stream,
                } => {
                    let Some(idx) = self.index_of(token) else {
                        return;
                    };
                    let added = {
                        let conn = self.slots[idx].as_mut().expect("index_of checked");
                        conn.pending_stream = stream;
                        conn.phase = Phase::Writing;
                        conn.write_started = Some(Instant::now());
                        conn.wbuf.extend_from_slice(&chunk);
                        chunk.len() as u64
                    };
                    self.ctx.stats.write_backlog_bytes.add(added);
                    self.want(idx, sys::EPOLLIN | sys::EPOLLOUT);
                    self.flush(idx);
                }
            }
        }

        /// Enforces the idle and header (slow-loris) deadlines.
        fn check_deadlines(&mut self) {
            let idle = self.ctx.config.idle_deadline();
            let header = self.ctx.config.header_deadline();
            let now = Instant::now();
            for idx in 0..self.slots.len() {
                let Some(conn) = self.slots[idx].as_ref() else {
                    continue;
                };
                let cause = match conn.phase {
                    Phase::Reading => match conn.head_started {
                        // Wall-clock from first head byte: activity does
                        // NOT reset it — that is exactly the attack.
                        Some(hs) if now.duration_since(hs) >= header => Some(TimeoutCause::Header),
                        Some(_) => None,
                        None if now.duration_since(conn.last_activity) >= idle => {
                            Some(TimeoutCause::Idle)
                        }
                        None => None,
                    },
                    // A stalled writer (including a slow stream reader)
                    // is bounded by write progress.
                    Phase::Writing if now.duration_since(conn.last_activity) >= idle => {
                        Some(TimeoutCause::Idle)
                    }
                    // Dispatched work is bounded by the handler
                    // deadline; the queue is bounded by depth.
                    _ => None,
                };
                match cause {
                    Some(TimeoutCause::Header) => {
                        self.ctx.stats.header_timeouts.inc();
                        self.close(idx);
                    }
                    Some(TimeoutCause::Idle) => {
                        self.ctx.stats.idle_timeouts.inc();
                        self.close(idx);
                    }
                    None => {}
                }
            }
        }

        /// Shutdown observed: stop accepting, drop connections with no
        /// response in progress.
        fn begin_drain(&mut self, listener: &TcpListener) {
            self.draining = true;
            let _ = self.epoll.del(listener.as_raw_fd());
            for idx in 0..self.slots.len() {
                let drop_it = matches!(
                    self.slots[idx].as_ref(),
                    Some(c) if c.phase == Phase::Reading
                );
                if drop_it {
                    self.close(idx);
                }
            }
        }

        fn open_count(&self) -> usize {
            self.slots.iter().filter(|s| s.is_some()).count()
        }
    }

    /// The reactor entry point: spawns the worker pool and runs the
    /// event loop on the calling thread until shutdown + drain.
    pub fn run(
        listener: TcpListener,
        ctx: Arc<ServeCtx>,
        shutdown: ShutdownFlag,
    ) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let epoll = Epoll::new()?;
        let waker = Arc::new(EventFd::new()?);
        epoll.add(listener.as_raw_fd(), TOKEN_LISTENER, sys::EPOLLIN)?;
        epoll.add(waker.fd, TOKEN_WAKE, sys::EPOLLIN)?;
        let jobs = JobQueue::new(ctx.config.queue_depth);
        let done = DoneQueue {
            q: Mutex::new(VecDeque::new()),
            waker: Arc::clone(&waker),
        };
        let threads = ctx.config.effective_threads();

        std::thread::scope(|scope| -> io::Result<()> {
            for w in 0..threads {
                let ctx = &*ctx;
                let jobs = &jobs;
                let done = &done;
                std::thread::Builder::new()
                    .name(format!("stj-serve-{w}"))
                    .spawn_scoped(scope, move || worker_loop(ctx, jobs, done))
                    .expect("spawn worker");
            }

            let mut lp = Loop {
                epoll: &epoll,
                ctx: &ctx,
                jobs: &jobs,
                shutdown: &shutdown,
                slots: Vec::new(),
                free: Vec::new(),
                next_epoch: 0,
                draining: false,
            };
            let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
            let mut completions: Vec<Done> = Vec::new();
            let mut drain_deadline: Option<Instant> = None;

            let result = loop {
                if !lp.draining && shutdown.requested() {
                    lp.begin_drain(&listener);
                    drain_deadline = Some(Instant::now() + DRAIN_TIMEOUT);
                }
                if lp.draining {
                    if lp.open_count() == 0 {
                        break Ok(());
                    }
                    if drain_deadline.is_some_and(|d| Instant::now() >= d) {
                        for idx in 0..lp.slots.len() {
                            lp.close(idx);
                        }
                        break Ok(());
                    }
                }
                if crate::pool::sighup_requested() {
                    // Reload on a throwaway thread: loading can take
                    // seconds and must not stall the event loop.
                    let ctx = Arc::clone(&ctx);
                    std::thread::spawn(move || {
                        if let Err(e) = ctx.reload(None) {
                            eprintln!("stj-serve: SIGHUP reload failed: {e}");
                        }
                    });
                }

                let n = match epoll.wait(&mut events, 100) {
                    Ok(n) => n,
                    Err(e) => break Err(e),
                };
                for &ev in &events[..n] {
                    let token = ev.data;
                    let mask = ev.events;
                    match token {
                        TOKEN_WAKE => waker.drain(),
                        TOKEN_LISTENER => {
                            if !lp.draining {
                                lp.accept_all(&listener);
                            }
                        }
                        _ => {
                            let Some(idx) = lp.index_of(token) else {
                                continue;
                            };
                            if mask & sys::EPOLLERR != 0 {
                                lp.close(idx);
                                continue;
                            }
                            if mask & (sys::EPOLLIN | sys::EPOLLHUP) != 0 {
                                lp.on_readable(idx);
                            }
                            if mask & sys::EPOLLOUT != 0 && lp.index_of(token).is_some() {
                                lp.flush(idx);
                            }
                        }
                    }
                }
                done.drain_into(&mut completions);
                for d in completions.drain(..) {
                    lp.apply_done(d);
                }
                lp.check_deadlines();
            };

            jobs.stop();
            result
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{LoadedDataset, ServeConfig};
        use stj_geom::{Polygon, Rect};
        use stj_index::Tiling;
        use stj_raster::Grid;

        fn test_ctx(config: ServeConfig) -> ServeCtx {
            let grid = Grid::new(Rect::from_coords(0.0, 0.0, 100.0, 100.0), 8);
            let polys = vec![
                Polygon::rect(Rect::from_coords(10.0, 10.0, 40.0, 40.0)),
                Polygon::rect(Rect::from_coords(20.0, 20.0, 30.0, 30.0)),
            ];
            let arena = stj_core::DatasetArena::build(
                "boxes",
                &polys,
                &grid,
                stj_core::DEFAULT_MAX_INTERVALS,
                1,
            );
            let tiling = Tiling::for_probes(arena.mbrs());
            let loaded = LoadedDataset {
                name: "boxes".to_string(),
                arena,
                grid,
                tiling,
            };
            ServeCtx::new(config, vec![loaded])
        }

        #[test]
        fn reactor_serves_http_and_framed_then_drains() {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let config = ServeConfig {
                addr: addr.to_string(),
                threads: 2,
                ..ServeConfig::default()
            };
            let ctx = Arc::new(test_ctx(config));
            let shutdown = ShutdownFlag::new();
            let handle = {
                let ctx = Arc::clone(&ctx);
                let shutdown = shutdown.clone();
                std::thread::spawn(move || run(listener, ctx, shutdown))
            };

            let mut http = crate::Client::new(addr.to_string(), false);
            let (status, body) = http.request("GET", "/healthz", b"").expect("healthz");
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            // Keep-alive: a second request on the same connection.
            let (status, _) = http.request("GET", "/v1/datasets", b"").expect("datasets");
            assert_eq!(status, 200);

            let mut framed = crate::Client::new(addr.to_string(), true);
            let (status, body) = framed
                .request(
                    "POST",
                    "/v1/relate?dataset=boxes",
                    b"POLYGON((22 22, 28 22, 28 28, 22 28, 22 22))",
                )
                .expect("relate");
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            assert!(String::from_utf8_lossy(&body).contains("inside"));

            // Streaming discover over HTTP (close-delimited body).
            let (status, body) = http
                .request(
                    "POST",
                    "/v1/discover?dataset=boxes",
                    b"POLYGON((22 22, 28 22, 28 28, 22 28, 22 22))",
                )
                .expect("discover");
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
            let text = String::from_utf8_lossy(&body);
            assert!(text.contains("\"summary\""), "{text}");

            shutdown.trigger();
            handle.join().expect("join").expect("run ok");
            assert_eq!(ctx.stats.open_connections.get(), 0);
        }
    }
}
