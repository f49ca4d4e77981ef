//! Per-connection state for the reactor: protocol sniffing, buffered
//! incremental parsing, and the read→dispatch→write lifecycle.
//!
//! A [`Conn`] owns its nonblocking socket plus a read buffer and a
//! write buffer. Everything protocol-shaped lives here as pure
//! byte-buffer logic ([`Conn::try_parse`] never touches the socket), so
//! the state machine is testable without a live event loop; the reactor
//! only moves bytes between the socket and these buffers and reacts to
//! the outcomes.
//!
//! Lifecycle per request:
//!
//! ```text
//!   Reading --(complete request parsed)--> Dispatched
//!   Dispatched --(worker completion applied)--> Writing
//!   Writing --(buffer flushed, keep-alive)--> Reading   [re-parse leftovers]
//!   Writing --(buffer flushed, close)-----> closed
//!   Writing --(stream chunk flushed, more)-> Dispatched [continuation job]
//! ```
//!
//! Two wall-clock deadlines protect the reactor from slow peers (see
//! `ServeConfig::{idle_ms, header_ms}`): an *idle* deadline for quiet
//! keep-alive connections and stalled writers, and a *header* deadline
//! measured from the first byte of a request to its complete parse —
//! byte-at-a-time "slow loris" writers keep resetting activity but can
//! never reset that one.

use crate::framing::{self, FrameError};
use crate::http::{self, RecvError};
use crate::query::Response;
use std::net::TcpStream;
use std::time::Instant;

/// The wire protocol a connection speaks, sniffed from its first four
/// bytes (the `STJB` magic selects binary framing; anything else is
/// HTTP/1.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Not enough bytes seen yet.
    Unknown,
    Http,
    Framed,
}

/// Where a connection is in its request lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Accumulating request bytes; parse attempts run on every read.
    Reading,
    /// A request (or stream continuation) is with the worker pool; the
    /// socket stays readable only to notice an early peer close.
    Dispatched,
    /// Flushing the write buffer.
    Writing,
}

/// One parsed request, either protocol.
pub enum ParsedRequest {
    Http(http::Request),
    Framed(framing::FramedRequest),
}

impl ParsedRequest {
    /// Whether the client asked to keep the connection open after the
    /// response (framed clients always do; closing is server-driven).
    pub fn keep_alive(&self) -> bool {
        match self {
            ParsedRequest::Http(r) => r.keep_alive,
            ParsedRequest::Framed(_) => true,
        }
    }
}

/// The outcome of a parse attempt against the read buffer.
pub enum ParseStep {
    /// The buffer holds a prefix of a request; keep reading.
    NeedMore,
    /// One complete request, with the byte count it consumed.
    Request(ParsedRequest, usize),
    /// The buffer is unsalvageable; write this error and close.
    Error(Response),
}

/// Per-connection state. The reactor stores these in a slab indexed by
/// the epoll token.
pub struct Conn {
    /// The nonblocking socket.
    pub sock: TcpStream,
    /// Epoch tag baked into the epoll token; detects stale events and
    /// stale worker completions after a slot is reused.
    pub epoch: u32,
    pub proto: Proto,
    pub phase: Phase,
    /// Bytes read but not yet consumed by a parse (may hold pipelined
    /// follow-up requests).
    pub rbuf: Vec<u8>,
    /// Bytes queued for write-out; `wpos` marks how far they got.
    pub wbuf: Vec<u8>,
    pub wpos: usize,
    /// Close once the write buffer drains.
    pub close_after_write: bool,
    /// The current response is a discover stream: after each flush the
    /// reactor asks for the next chunk instead of recycling the
    /// connection.
    pub streaming: bool,
    /// The paused stream between a flushed chunk and the continuation
    /// job (holds the pinned generation alive).
    pub pending_stream: Option<crate::discover::DiscoverStream>,
    /// Last socket progress (read or write), for the idle deadline.
    pub last_activity: Instant,
    /// When the first byte of the *current* request arrived; cleared on
    /// dispatch. The slow-loris deadline is measured from here.
    pub head_started: Option<Instant>,
    /// When the current response entered the write buffer (for the
    /// `Write` state latency).
    pub write_started: Option<Instant>,
    /// The epoll interest mask currently registered for this socket.
    pub interest: u32,
    /// Trace id of the request currently in flight (0 when none).
    pub trace_id: u64,
}

impl Conn {
    /// Wraps a freshly accepted socket.
    pub fn new(sock: TcpStream, epoch: u32) -> Conn {
        Conn {
            sock,
            epoch,
            proto: Proto::Unknown,
            phase: Phase::Reading,
            rbuf: Vec::with_capacity(1024),
            wbuf: Vec::new(),
            wpos: 0,
            close_after_write: false,
            streaming: false,
            pending_stream: None,
            last_activity: Instant::now(),
            head_started: None,
            write_started: None,
            interest: 0,
            trace_id: 0,
        }
    }

    /// Unflushed write-buffer bytes.
    pub fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Sniffs the protocol once four bytes are buffered. The framing
    /// magic is consumed (clients send it once per connection, before
    /// the first frame).
    fn sniff(&mut self) {
        if self.proto == Proto::Unknown && self.rbuf.len() >= 4 {
            if self.rbuf[..4] == framing::MAGIC {
                self.proto = Proto::Framed;
                self.rbuf.drain(..4);
            } else {
                self.proto = Proto::Http;
            }
        }
    }

    /// Attempts to parse one complete request from the front of the
    /// read buffer, consuming it on success. Pure buffer logic: the
    /// socket is never touched.
    pub fn try_parse(&mut self) -> ParseStep {
        self.sniff();
        match self.proto {
            Proto::Unknown => {
                // Under four bytes and none of them can rule out the
                // magic yet — except a prefix that already diverges.
                if !framing::MAGIC.starts_with(&self.rbuf) {
                    self.proto = Proto::Http;
                    return self.try_parse();
                }
                ParseStep::NeedMore
            }
            Proto::Http => match http::parse_request(&self.rbuf) {
                Ok(None) => ParseStep::NeedMore,
                Ok(Some((req, consumed))) => {
                    self.rbuf.drain(..consumed);
                    ParseStep::Request(ParsedRequest::Http(req), consumed)
                }
                Err(RecvError::HeadTooLarge) => ParseStep::Error(Response::error(
                    431,
                    "head_too_large",
                    RecvError::HeadTooLarge.to_string(),
                )),
                Err(RecvError::BodyTooLarge) => ParseStep::Error(Response::error(
                    413,
                    "body_too_large",
                    RecvError::BodyTooLarge.to_string(),
                )),
                Err(RecvError::Malformed(m)) => {
                    ParseStep::Error(Response::error(400, "malformed_request", m))
                }
                // parse_request never does IO.
                Err(RecvError::Closed) | Err(RecvError::Io(_)) => ParseStep::NeedMore,
            },
            Proto::Framed => match framing::parse_request_frame(&self.rbuf) {
                Ok(None) => ParseStep::NeedMore,
                Ok(Some((req, consumed))) => {
                    self.rbuf.drain(..consumed);
                    ParseStep::Request(ParsedRequest::Framed(req), consumed)
                }
                Err(FrameError::TooLarge) => ParseStep::Error(Response::error(
                    413,
                    "frame_too_large",
                    "frame exceeds size cap",
                )),
                Err(FrameError::Malformed(m)) => {
                    ParseStep::Error(Response::error(400, "malformed_frame", m))
                }
                Err(FrameError::Closed) | Err(FrameError::Io(_)) => ParseStep::NeedMore,
            },
        }
    }

    /// Renders `resp` into the write buffer in this connection's wire
    /// format and flips the phase to `Writing`. For HTTP, `keep_alive`
    /// decides the `connection:` header; 429s carry `retry-after: 1`
    /// and nonzero trace ids an `x-stj-trace-id`.
    pub fn enqueue_response(&mut self, resp: &Response, keep_alive: bool) {
        match self.proto {
            Proto::Framed => {
                self.wbuf
                    .extend_from_slice(&framing::render_response_frame(resp.status, &resp.body));
            }
            // Unknown degrades to HTTP: an error response to a client
            // that never finished identifying itself.
            Proto::Http | Proto::Unknown => {
                let id = self.trace_id.to_string();
                let mut headers: Vec<(&str, &str)> = Vec::with_capacity(2);
                if resp.status == 429 {
                    headers.push(("retry-after", "1"));
                }
                if self.trace_id != 0 {
                    headers.push(("x-stj-trace-id", &id));
                }
                let _ = http::write_response(
                    &mut self.wbuf,
                    resp.status,
                    resp.content_type,
                    &headers,
                    &resp.body,
                    keep_alive,
                );
            }
        }
        self.close_after_write = !keep_alive;
        self.phase = Phase::Writing;
        self.write_started = Some(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected socket pair for tests (the sockets are never used by
    /// the parse logic, but `Conn` owns one).
    fn test_conn() -> Conn {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sock = TcpStream::connect(addr).expect("connect");
        let _accepted = listener.accept().expect("accept");
        Conn::new(sock, 1)
    }

    #[test]
    fn sniffs_http_from_first_bytes() {
        let mut c = test_conn();
        c.rbuf.extend_from_slice(b"GET ");
        assert!(matches!(c.try_parse(), ParseStep::NeedMore));
        assert_eq!(c.proto, Proto::Http);
        c.rbuf.clear();
        c.rbuf.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n");
        match c.try_parse() {
            ParseStep::Request(ParsedRequest::Http(req), consumed) => {
                assert_eq!(req.path, "/healthz");
                assert_eq!(consumed, 25);
            }
            _ => panic!("expected a parsed request"),
        }
        assert!(c.rbuf.is_empty(), "request bytes must be consumed");
    }

    #[test]
    fn single_byte_g_resolves_to_http() {
        let mut c = test_conn();
        // 'G' already rules out the STJB magic prefix.
        c.rbuf.extend_from_slice(b"G");
        assert!(matches!(c.try_parse(), ParseStep::NeedMore));
        assert_eq!(c.proto, Proto::Http);
    }

    #[test]
    fn magic_prefix_stays_unknown_until_complete() {
        let mut c = test_conn();
        c.rbuf.extend_from_slice(b"ST");
        assert!(matches!(c.try_parse(), ParseStep::NeedMore));
        assert_eq!(c.proto, Proto::Unknown);
        c.rbuf.extend_from_slice(b"JB");
        assert!(matches!(c.try_parse(), ParseStep::NeedMore));
        assert_eq!(c.proto, Proto::Framed);
        assert!(c.rbuf.is_empty(), "magic must be consumed");
    }

    #[test]
    fn framed_request_parses_after_magic() {
        let mut c = test_conn();
        let mut wire = Vec::new();
        wire.extend_from_slice(&framing::MAGIC);
        let payload = b"GET /healthz\n";
        wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        wire.extend_from_slice(payload);
        c.rbuf.extend_from_slice(&wire);
        match c.try_parse() {
            ParseStep::Request(ParsedRequest::Framed(req), consumed) => {
                assert_eq!(req.target, "/healthz");
                assert_eq!(consumed, 4 + payload.len());
            }
            _ => panic!("expected a framed request"),
        }
    }

    #[test]
    fn pipelined_requests_parse_one_at_a_time() {
        let mut c = test_conn();
        c.rbuf
            .extend_from_slice(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        match c.try_parse() {
            ParseStep::Request(ParsedRequest::Http(r), _) => assert_eq!(r.path, "/a"),
            _ => panic!("first request"),
        }
        assert!(!c.rbuf.is_empty(), "second request must remain buffered");
        match c.try_parse() {
            ParseStep::Request(ParsedRequest::Http(r), _) => assert_eq!(r.path, "/b"),
            _ => panic!("second request"),
        }
        assert!(c.rbuf.is_empty());
    }

    #[test]
    fn malformed_http_is_a_parse_error() {
        let mut c = test_conn();
        c.rbuf.extend_from_slice(b"NOT A REQUEST\r\n\r\n");
        match c.try_parse() {
            ParseStep::Error(resp) => assert_eq!(resp.status, 400),
            _ => panic!("expected an error step"),
        }
    }

    #[test]
    fn enqueue_response_renders_http_with_trace() {
        let mut c = test_conn();
        c.proto = Proto::Http;
        c.trace_id = 7;
        let resp = Response::error(429, "overloaded", "busy");
        c.enqueue_response(&resp, true);
        assert_eq!(c.phase, Phase::Writing);
        assert!(!c.close_after_write, "keep-alive shed");
        let text = String::from_utf8_lossy(&c.wbuf);
        assert!(text.contains("HTTP/1.1 429"), "{text}");
        assert!(text.contains("retry-after: 1"), "{text}");
        assert!(text.contains("x-stj-trace-id: 7"), "{text}");
        assert!(text.contains("connection: keep-alive"), "{text}");
    }

    #[test]
    fn enqueue_response_renders_frame() {
        let mut c = test_conn();
        c.proto = Proto::Framed;
        let resp = Response {
            status: 200,
            content_type: "application/json",
            body: b"{}".to_vec(),
            close: false,
            truncated: false,
        };
        c.enqueue_response(&resp, true);
        assert_eq!(&c.wbuf[..4], &(6u32).to_le_bytes(), "len('200\\n{{}}')");
        assert_eq!(&c.wbuf[4..], b"200\n{}");
    }
}
