//! The placement service client: reconnect, seeded backoff, idempotent
//! retry, and typed outcomes.
//!
//! [`ServiceClient`] is generic over the [`Transport`], so the exact retry
//! logic that talks to a production [`crate::server::TcpServer`] also runs
//! under the deterministic [`crate::simnet::SimNet`] fault fabric.
//!
//! The retry discipline:
//!
//! - Every logical call allocates one request id; *all* retries of that
//!   call reuse it. The daemon's WAL-journaled dedup window maps the
//!   `(client_id, request_id)` pair back to the original outcome, so a
//!   retry after a lost `Accepted` can never double-place a container.
//! - Transport failures (disconnect, timeout, overflow) drop the
//!   connection, wait a seeded exponential backoff with half-jitter, and
//!   resend on a fresh connection.
//! - Explicit backpressure (`Rejected`) honors the daemon's retry-after
//!   hint: the wait is the *maximum* of the hint and the jittered backoff.
//! - `Shed`, `Expired`, and `Malformed` outcomes surface as typed
//!   [`ClientError`] variants instead of opaque response frames.
//!
//! The client never reads a clock: per-request timeouts are counted in
//! poll intervals ([`Transport::poll_ms`]) and jitter comes from a seeded
//! SplitMix64 stream, so a sim-transport run is replayable from its seed.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

use crate::proto::{
    frame, Envelope, FrameAssembler, ProtoError, RejectReason, Reply, Request, Response,
};
use crate::transport::{Conn, Transport, TransportError};
use goldilocks_rng::SplitMix64;
use goldilocks_topology::Resources;

/// Tunables for [`ServiceClient`].
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Stable nonzero client identity — the dedup key prefix. Two clients
    /// must not share an id unless one is a restart of the other (sharing
    /// is exactly how a restarted client resumes its idempotency window).
    pub client_id: u64,
    /// First request id to allocate (a restarted client that persisted its
    /// counter resumes above everything it already sent).
    pub first_request_id: u64,
    /// Per-attempt reply budget, in milliseconds (counted in poll
    /// intervals, never by reading a clock).
    pub request_timeout_ms: u64,
    /// Total attempts per logical call before giving up.
    pub max_attempts: u32,
    /// Base of the exponential backoff between retries.
    pub backoff_base_ms: u64,
    /// Ceiling of the exponential backoff.
    pub backoff_cap_ms: u64,
    /// Seed for the backoff jitter stream.
    pub jitter_seed: u64,
    /// Milliseconds per daemon virtual tick, to honor retry-after hints.
    pub tick_ms: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            client_id: 1,
            first_request_id: 1,
            request_timeout_ms: 1_000,
            max_attempts: 8,
            backoff_base_ms: 10,
            backoff_cap_ms: 2_000,
            jitter_seed: 0x5EED_C11E,
            tick_ms: 1,
        }
    }
}

/// Typed failures of a client call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// The daemon kept rejecting with backpressure through every attempt;
    /// the last hint is carried so the caller can wait smarter.
    Overloaded {
        /// Why the last attempt was rejected.
        reason: RejectReason,
        /// The daemon's last retry-after hint, in virtual ticks.
        retry_after_ticks: u64,
    },
    /// The request was accepted as `seq` but shed under overload.
    Shed {
        /// The shed request's durable sequence number.
        seq: u64,
    },
    /// The request was accepted as `seq` but its deadline lapsed before
    /// its batch committed.
    Expired {
        /// The expired request's durable sequence number.
        seq: u64,
    },
    /// The daemon could not decode what we sent (version skew or a bug).
    Malformed,
    /// The transport gave out through every attempt.
    Transport(TransportError),
    /// The daemon's reply did not decode or did not fit the request.
    Protocol(ProtoError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Overloaded {
                reason,
                retry_after_ticks,
            } => write!(
                f,
                "daemon overloaded ({reason:?}); retry after {retry_after_ticks} ticks"
            ),
            ClientError::Shed { seq } => write!(f, "request {seq} was shed under overload"),
            ClientError::Expired { seq } => write!(f, "request {seq} expired before commit"),
            ClientError::Malformed => write!(f, "daemon reported the request malformed"),
            ClientError::Transport(e) => write!(f, "transport failed: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Outcome of a [`ServiceClient::query`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryStatus {
    /// Still waiting in the admission queue.
    Queued,
    /// Running on the given server.
    Placed {
        /// Hosting server id.
        server: u64,
    },
    /// Unknown: never admitted, already removed, shed, or expired.
    NotFound,
}

/// Client-side retry counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Connections established after the first one (reconnects).
    pub reconnects: u64,
    /// Retries caused by transport failures.
    pub retries_transport: u64,
    /// Retries caused by explicit backpressure (`Rejected`).
    pub retries_backpressure: u64,
}

/// A retrying, reconnecting placement-service client over any
/// [`Transport`].
pub struct ServiceClient<T: Transport> {
    transport: T,
    cfg: ClientConfig,
    conn: Option<T::C>,
    asm: FrameAssembler,
    next_request_id: u64,
    rng: SplitMix64,
    ever_connected: bool,
    stats: ClientStats,
}

impl<T: Transport> ServiceClient<T> {
    /// A fresh client over `transport`.
    pub fn new(transport: T, cfg: ClientConfig) -> Self {
        let rng = SplitMix64::from_state(
            cfg.jitter_seed ^ cfg.client_id.rotate_left(17) ^ 0x0DD5_0C8E_u64,
        );
        ServiceClient {
            next_request_id: cfg.first_request_id.max(1),
            transport,
            cfg,
            conn: None,
            asm: FrameAssembler::new(),
            rng,
            ever_connected: false,
            stats: ClientStats::default(),
        }
    }

    /// The retry counters so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Admits a container; returns its durable sequence number.
    pub fn admit(
        &mut self,
        priority: u8,
        demand: Resources,
        deadline_ticks: u64,
    ) -> Result<u64, ClientError> {
        let rid = self.alloc_rid();
        self.mutate(
            rid,
            Request::Admit {
                priority,
                demand,
                deadline_ticks,
                tag: rid,
            },
        )
    }

    /// Resizes an admitted container; returns the resize's sequence number.
    pub fn resize(
        &mut self,
        target_seq: u64,
        priority: u8,
        demand: Resources,
        deadline_ticks: u64,
    ) -> Result<u64, ClientError> {
        let rid = self.alloc_rid();
        self.mutate(
            rid,
            Request::Resize {
                priority,
                target_seq,
                demand,
                deadline_ticks,
                tag: rid,
            },
        )
    }

    /// Removes an admitted container; returns the remove's sequence number.
    pub fn remove(
        &mut self,
        target_seq: u64,
        priority: u8,
        deadline_ticks: u64,
    ) -> Result<u64, ClientError> {
        let rid = self.alloc_rid();
        self.mutate(
            rid,
            Request::Remove {
                priority,
                target_seq,
                deadline_ticks,
                tag: rid,
            },
        )
    }

    /// Looks up the current disposition of `target_seq`.
    pub fn query(&mut self, target_seq: u64) -> Result<QueryStatus, ClientError> {
        let rid = self.alloc_rid();
        match self.call(
            rid,
            Request::Query {
                target_seq,
                tag: rid,
            },
        )? {
            Response::Queued { .. } => Ok(QueryStatus::Queued),
            Response::Placed { server, .. } => Ok(QueryStatus::Placed { server }),
            Response::NotFound { .. } => Ok(QueryStatus::NotFound),
            Response::Malformed { .. } => Err(ClientError::Malformed),
            _ => Err(ClientError::Protocol(ProtoError::BadTag(0))),
        }
    }

    fn alloc_rid(&mut self) -> u64 {
        let rid = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1).max(1);
        rid
    }

    fn mutate(&mut self, rid: u64, req: Request) -> Result<u64, ClientError> {
        match self.call(rid, req)? {
            Response::Accepted { seq, .. } => Ok(seq),
            Response::Shed { seq, .. } => Err(ClientError::Shed { seq }),
            Response::Expired { seq, .. } => Err(ClientError::Expired { seq }),
            Response::Malformed { .. } => Err(ClientError::Malformed),
            _ => Err(ClientError::Protocol(ProtoError::BadTag(0))),
        }
    }

    /// One logical call: send the envelope, await its reply, retry through
    /// backpressure and transport failures. Every resend reuses `rid`, so
    /// the daemon's dedup window makes the call idempotent.
    fn call(&mut self, rid: u64, req: Request) -> Result<Response, ClientError> {
        let env = Envelope {
            client: self.cfg.client_id,
            request_id: rid,
            request: req,
        };
        let wire = frame(&env.encode());
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            match self.attempt(&wire, rid) {
                Ok(Response::Rejected {
                    reason,
                    retry_after_ticks,
                    ..
                }) => {
                    if attempt >= self.cfg.max_attempts.max(1) {
                        return Err(ClientError::Overloaded {
                            reason,
                            retry_after_ticks,
                        });
                    }
                    self.stats.retries_backpressure += 1;
                    // Honor the daemon's hint; never wait less than it.
                    let hint_ms = retry_after_ticks.saturating_mul(self.cfg.tick_ms);
                    let wait = hint_ms.max(self.backoff(attempt));
                    self.transport.sleep_ms(wait);
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.disconnect();
                    if attempt >= self.cfg.max_attempts.max(1) {
                        return Err(ClientError::Transport(e));
                    }
                    self.stats.retries_transport += 1;
                    let wait = self.backoff(attempt);
                    self.transport.sleep_ms(wait);
                }
            }
        }
    }

    /// Sends one already-framed envelope and waits for the reply carrying
    /// `rid`. Any transport-level failure (including a reply timeout)
    /// leaves the caller to drop the connection and retry.
    fn attempt(&mut self, wire: &[u8], rid: u64) -> Result<Response, TransportError> {
        if self.conn.is_none() {
            // A fresh stream starts a fresh frame boundary: drop any
            // half-frame carried over from the dead connection.
            self.asm = FrameAssembler::new();
            let c = self.transport.connect()?;
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            self.conn = Some(c);
        }
        let poll = self.transport.poll_ms().max(1);
        let budget = self.cfg.request_timeout_ms.max(1);
        let Some(conn) = self.conn.as_mut() else {
            return Err(TransportError::Disconnected);
        };
        let mut waited = 0u64;
        // Write the whole frame; short writes loop, stalls burn budget.
        let mut off = 0usize;
        while off < wire.len() {
            let Some(rest) = wire.get(off..) else { break };
            match conn.write(rest) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => off += n,
                Err(TransportError::WouldBlock) => {
                    waited = waited.saturating_add(poll);
                    if waited >= budget {
                        return Err(TransportError::WouldBlock);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        // Await the matching reply.
        let mut buf = vec![0u8; 4096];
        loop {
            loop {
                match self.asm.next_frame() {
                    Ok(Some(payload)) => match Reply::decode(&payload) {
                        // A reply to an older attempt of a *previous* call
                        // could in principle linger; drop anything whose id
                        // is not ours.
                        Ok(r) if r.request_id == rid => return Ok(r.response),
                        Ok(_) => {}
                        Err(_) => return Err(TransportError::Corrupt),
                    },
                    Ok(None) => break,
                    Err(_) => return Err(TransportError::Corrupt),
                }
            }
            let Some(conn) = self.conn.as_mut() else {
                return Err(TransportError::Disconnected);
            };
            match conn.read(&mut buf) {
                Ok(0) => return Err(TransportError::Disconnected),
                Ok(n) => {
                    if let Some(chunk) = buf.get(..n) {
                        self.asm.feed(chunk);
                    }
                }
                Err(TransportError::WouldBlock) => {
                    waited = waited.saturating_add(poll);
                    if waited >= budget {
                        return Err(TransportError::WouldBlock);
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn disconnect(&mut self) {
        if let Some(mut c) = self.conn.take() {
            c.close();
        }
        self.asm = FrameAssembler::new();
    }

    /// Seeded exponential backoff with half-jitter: `[base/2, base]` where
    /// `base = backoff_base_ms × 2^(attempt-1)`, capped.
    fn backoff(&mut self, attempt: u32) -> u64 {
        let exp = attempt.saturating_sub(1).min(16);
        let base = self
            .cfg
            .backoff_base_ms
            .max(1)
            .saturating_mul(1u64 << exp)
            .min(self.cfg.backoff_cap_ms.max(1));
        let half = base / 2;
        half + self.rng.below(half + 1)
    }
}

/// [`Transport`] over real blocking TCP sockets.
#[derive(Clone, Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    connect_timeout_ms: u64,
    poll_ms: u64,
}

impl TcpTransport {
    /// A transport dialing `addr` with default timeouts.
    pub fn new(addr: SocketAddr) -> Self {
        TcpTransport {
            addr,
            connect_timeout_ms: 1_000,
            poll_ms: 5,
        }
    }

    /// Overrides the poll interval (read/write timeout granularity).
    pub fn with_poll_ms(mut self, poll_ms: u64) -> Self {
        self.poll_ms = poll_ms.max(1);
        self
    }

    /// Overrides the connect timeout.
    pub fn with_connect_timeout_ms(mut self, ms: u64) -> Self {
        self.connect_timeout_ms = ms.max(1);
        self
    }
}

/// One live TCP connection.
pub struct TcpConn {
    stream: TcpStream,
}

fn map_io(e: &io::Error) -> TransportError {
    use std::io::ErrorKind as K;
    match e.kind() {
        K::WouldBlock | K::TimedOut => TransportError::WouldBlock,
        K::ConnectionRefused => TransportError::Refused,
        K::ConnectionReset | K::ConnectionAborted | K::BrokenPipe | K::NotConnected => {
            TransportError::Disconnected
        }
        _ => TransportError::Io(e.to_string()),
    }
}

impl Conn for TcpConn {
    fn write(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        match io::Write::write(&mut self.stream, bytes) {
            Ok(n) => Ok(n),
            Err(e) => Err(map_io(&e)),
        }
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        match io::Read::read(&mut self.stream, buf) {
            Ok(n) => Ok(n),
            Err(e) => Err(map_io(&e)),
        }
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl Transport for TcpTransport {
    type C = TcpConn;

    fn connect(&mut self) -> Result<TcpConn, TransportError> {
        let stream = TcpStream::connect_timeout(
            &self.addr,
            Duration::from_millis(self.connect_timeout_ms.max(1)),
        )
        .map_err(|e| map_io(&e))?;
        let poll = Duration::from_millis(self.poll_ms.max(1));
        stream
            .set_read_timeout(Some(poll))
            .and_then(|()| stream.set_write_timeout(Some(poll)))
            .map_err(|e| map_io(&e))?;
        let _ = stream.set_nodelay(true);
        Ok(TcpConn { stream })
    }

    fn sleep_ms(&mut self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }

    fn poll_ms(&self) -> u64 {
        self.poll_ms
    }
}
