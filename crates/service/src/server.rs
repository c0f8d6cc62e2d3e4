//! The blocking TCP front end of the placement daemon, and the connection
//! core every serving fabric runs.
//!
//! ## The connection core
//!
//! `ServerCore` (crate-private) writes each serving rule once: accept or
//! refuse at `max_connections`, count every close by its reason, stamp
//! requests with the open epoch's tick, and the pump step. It owns the
//! daemon, the [`ServerConfig`] (whose predicates are the idle rule and the
//! write-buffer cap) and the [`ServerStats`], and it touches no socket,
//! reads no clock and spawns no thread. [`TcpServer`] drives it from socket
//! threads under one mutex, [`crate::simnet::SimNet`] from a virtual clock;
//! each keeps its per-connection state (the [`Session`], quiet time, link).
//!
//! The pump step commits the next epoch, drains the outbox and calls
//! [`PlacementDaemon::compact_journal`], so a served journal is the latest
//! snapshot pair plus its suffix: bounded by `snapshot_every` commits, not
//! by uptime, and recovering to the same placement as the whole log. After
//! a failed commit the daemon's volatile state may be ahead of its journal,
//! so the core commits nothing more and [`ServerStats::pump_failed`] tells
//! the embedder to crash-restart from the journal.
//!
//! ## The TCP server
//!
//! One accept-loop thread owns the listener; each accepted connection gets
//! a thread with its own [`Session`], so a frame split across reads is
//! reassembled per stream. The core's mutex is taken once per frame. The
//! defenses:
//!
//! - **Connection cap** — accepts beyond `max_connections` are closed at
//!   once; the client sees EOF and backs off.
//! - **Idle deadline** — reads time out every `poll_ms`, and a connection
//!   with no complete frame for `idle_timeout_ms` (a quiet peer, or a
//!   slowloris holding or trickling a torn frame) is dropped. Quiet time
//!   is counted in poll intervals, one per timed-out read and one per read
//!   that completes no frame, so the crate never reads a clock.
//! - **Corrupt stream** — a bad checksum or an impossible length ends the
//!   stream: every frame before it is answered and flushed, then the
//!   connection closes.
//! - **Bounded write buffer** — a peer leaving more than
//!   `write_buffer_cap` reply bytes unread is dropped; it re-learns state
//!   via retry + dedup.
//! - **Graceful drain** — [`ServerHandle::drain`] is SIGTERM-style: stop
//!   accepting, answer and flush what each connection already received
//!   (those accepts are journaled), close, and hand the daemon back. A
//!   retry of any ack the drain cut off is deduplicated after restart.
//!
//! An optional pump thread runs the pump step every `epoch_interval_ms`,
//! mapping wall time to virtual ticks only through the epoch counter.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::daemon::PlacementDaemon;
use crate::proto::{Envelope, Response, Session};

/// Tunables for every serving fabric: [`TcpServer`] and
/// [`crate::simnet::SimNet`]. All timeouts are in milliseconds — real ones
/// on TCP, where they are enforced only through OS socket timeouts and
/// sleeps, never by reading a clock; virtual ones in the sim.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum simultaneously served connections; the rest are refused.
    pub max_connections: usize,
    /// Socket read/write poll interval (the unit idle time is counted in).
    pub poll_ms: u64,
    /// A connection with no complete frame for this long is dropped.
    pub idle_timeout_ms: u64,
    /// Maximum unflushed reply bytes per connection before it is dropped.
    pub write_buffer_cap: usize,
    /// How long [`ServerHandle::drain`] waits for connections to finish.
    pub drain_wait_ms: u64,
    /// Commit a placement epoch every this many milliseconds (0 disables
    /// the pump; the embedder drives [`ServerHandle::commit_next_epoch`]).
    pub epoch_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 128,
            poll_ms: 5,
            idle_timeout_ms: 10_000,
            write_buffer_cap: 256 * 1024,
            drain_wait_ms: 2_000,
            epoch_interval_ms: 50,
        }
    }
}

impl ServerConfig {
    /// The idle rule: a connection that has sent no complete frame for
    /// `quiet_ms` is dropped.
    pub(crate) fn idle_expired(&self, quiet_ms: u64) -> bool {
        quiet_ms >= self.idle_timeout_ms
    }

    /// The write-buffer cap: a peer leaving more than this many reply
    /// bytes unread is dropped rather than buffered without bound.
    pub(crate) fn overflows(&self, unsent: usize) -> bool {
        unsent > self.write_buffer_cap
    }
}

/// Serving counters, kept by the connection core and changed only on
/// accept, close and commit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted into service.
    pub conns_accepted: u64,
    /// Connections refused at the cap.
    pub conns_refused: u64,
    /// Connections dropped by the idle deadline.
    pub idle_disconnects: u64,
    /// Connections dropped because their write buffer overflowed.
    pub overflow_disconnects: u64,
    /// Connections dropped for sending corrupt frames.
    pub corrupt_disconnects: u64,
    /// Epochs committed by the pump (or manually).
    pub epochs_committed: u64,
    /// Admits placed across all committed epochs.
    pub placed_total: u64,
    /// Connections currently being served.
    pub live_conns: u64,
    /// True if an epoch commit failed (journal stall mid-commit); nothing
    /// more commits, and the embedder must drain and crash-restart from
    /// the journal.
    pub pump_failed: bool,
}

/// Why a served connection closed: the peer hung up (or the link failed,
/// or the server drained), or one of the three counted rules fired.
pub(crate) enum Close {
    Hangup,
    Idle,
    Overflow,
    Corrupt,
}

/// The serving rules both fabrics run (see the module docs).
pub(crate) struct ServerCore {
    pub(crate) daemon: PlacementDaemon,
    pub(crate) cfg: ServerConfig,
    stats: ServerStats,
    /// The epoch the next pump step commits.
    next_epoch: u64,
}

impl ServerCore {
    pub(crate) fn new(daemon: PlacementDaemon, cfg: ServerConfig) -> Self {
        ServerCore {
            next_epoch: daemon.last_committed().map_or(0, |e| e.wrapping_add(1)),
            daemon,
            cfg,
            stats: ServerStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The epoch the next pump step commits.
    pub(crate) fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// Serves `daemon`, recovered from the journal after a kill -9: every
    /// connection died with the old process, and the pump resumes after
    /// the recovered epoch.
    pub(crate) fn restart(&mut self, daemon: PlacementDaemon) {
        let counters = std::mem::take(&mut self.stats);
        *self = ServerCore::new(daemon, self.cfg.clone());
        self.stats = ServerStats {
            live_conns: 0,
            pump_failed: false,
            ..counters
        };
    }

    /// Takes a new connection into service, or refuses it at the cap.
    pub(crate) fn accept(&mut self) -> bool {
        if self.stats.live_conns >= self.cfg.max_connections as u64 {
            self.stats.conns_refused += 1;
            return false;
        }
        self.stats.conns_accepted += 1;
        self.stats.live_conns += 1;
        true
    }

    /// Counts the close of a connection [`ServerCore::accept`] took in.
    pub(crate) fn close(&mut self, why: Close) {
        self.stats.live_conns = self.stats.live_conns.saturating_sub(1);
        match why {
            Close::Hangup => {}
            Close::Idle => self.stats.idle_disconnects += 1,
            Close::Overflow => self.stats.overflow_disconnects += 1,
            Close::Corrupt => self.stats.corrupt_disconnects += 1,
        }
    }

    /// Submits a decoded request, stamped just past the opening tick of
    /// the epoch the next pump step commits.
    pub(crate) fn submit(&mut self, env: Envelope) -> Response {
        let now = self
            .next_epoch
            .wrapping_mul(self.daemon.config().epoch_ticks)
            .wrapping_add(1);
        self.daemon.submit_envelope(now, env)
    }

    /// The pump step: commit the next epoch, count it, drain the outbox and
    /// compact the journal. After a failed commit it commits nothing more.
    pub(crate) fn commit(&mut self) -> bool {
        if self.stats.pump_failed {
            return false;
        }
        match self.daemon.commit_epoch(self.next_epoch) {
            Ok(rec) => {
                self.stats.placed_total += rec.placed;
                self.stats.epochs_committed += 1;
                self.next_epoch = self.next_epoch.wrapping_add(1);
                // No push channel exists for async outcomes — clients learn
                // terminal state via Query; draining keeps the outbox
                // bounded.
                let _ = self.daemon.drain_outbox();
                // For the same reason, drop the journal before the latest
                // snapshot pair: a long-running server's log stays bounded.
                self.daemon.compact_journal();
                true
            }
            Err(_) => {
                self.stats.pump_failed = true;
                false
            }
        }
    }
}

struct Shared {
    core: Mutex<ServerCore>,
    draining: AtomicBool,
}

/// A poisoning panic can only come from outside the daemon (it is
/// panic-free by lint); serving degraded beats refusing everything.
fn lock_core(m: &Mutex<ServerCore>) -> MutexGuard<'_, ServerCore> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The blocking TCP transport server. [`TcpServer::start`] spawns the
/// accept loop (and epoch pump) and returns a [`ServerHandle`].
pub struct TcpServer;

impl TcpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving `daemon`.
    pub fn start(
        daemon: PlacementDaemon,
        cfg: ServerConfig,
        addr: &str,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            core: Mutex::new(ServerCore::new(daemon, cfg.clone())),
            draining: AtomicBool::new(false),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name("svc-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &cfg))?
        };
        let pump = if cfg.epoch_interval_ms > 0 {
            let shared = Arc::clone(&shared);
            let interval = Duration::from_millis(cfg.epoch_interval_ms);
            Some(
                std::thread::Builder::new()
                    .name("svc-pump".into())
                    .spawn(move || pump_loop(&shared, interval))?,
            )
        } else {
            None
        };

        Ok(ServerHandle {
            shared,
            addr: local,
            accept: Some(accept),
            pump,
            cfg,
        })
    }
}

/// A running server: address, stats, daemon access, and the drain switch.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pump: Option<JoinHandle<()>>,
    cfg: ServerConfig,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        lock_core(&self.shared.core).stats().clone()
    }

    /// Runs `f` against the live daemon (serving pauses for the duration).
    pub fn with_daemon<R>(&self, f: impl FnOnce(&mut PlacementDaemon) -> R) -> R {
        f(&mut lock_core(&self.shared.core).daemon)
    }

    /// Commits the next epoch by hand — the embedder's hook when the pump
    /// is disabled (`epoch_interval_ms == 0`). Returns `false` once a
    /// commit has failed (see [`ServerStats::pump_failed`]).
    pub fn commit_next_epoch(&self) -> bool {
        lock_core(&self.shared.core).commit()
    }

    /// SIGTERM-style graceful shutdown: stop accepting, let connections
    /// answer + flush what they already received, stop the pump, and hand
    /// back the daemon (journal included). Returns `None` if a connection
    /// outlived `drain_wait_ms` — the journal is still durable; restart
    /// via [`PlacementDaemon::recover`] in that case.
    pub fn drain(mut self) -> Option<PlacementDaemon> {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a wake-up connection to ourselves.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        if let Some(t) = self.pump.take() {
            let _ = t.join();
        }
        // Each connection thread holds the shared state until it has
        // flushed and closed.
        let ServerHandle {
            mut shared, cfg, ..
        } = self;
        let step = cfg.poll_ms.max(1);
        for _ in 0..=cfg.drain_wait_ms / step {
            match Arc::try_unwrap(shared) {
                Ok(sh) => {
                    let core = sh.core.into_inner();
                    return Some(core.unwrap_or_else(PoisonError::into_inner).daemon);
                }
                Err(still_shared) => shared = still_shared,
            }
            std::thread::sleep(Duration::from_millis(step));
        }
        None
    }
}

fn pump_loop(shared: &Shared, interval: Duration) {
    while !shared.draining.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        if shared.draining.load(Ordering::SeqCst) || !lock_core(&shared.core).commit() {
            return;
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, cfg: &ServerConfig) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.draining.load(Ordering::SeqCst) {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                if !lock_core(&shared.core).accept() {
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                let sh = Arc::clone(shared);
                let c = cfg.clone();
                let spawned = std::thread::Builder::new()
                    .name("svc-conn".into())
                    .spawn(move || serve_conn(stream, &sh, &c));
                if spawned.is_err() {
                    lock_core(&shared.core).close(Close::Hangup);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Writes as much of `pending` as the socket takes within one poll
/// interval; a short or timed-out write keeps the rest for the next round.
fn try_flush(stream: &mut TcpStream, pending: &mut Vec<u8>) -> io::Result<()> {
    while !pending.is_empty() {
        match stream.write(pending) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                pending.drain(..n);
            }
            Err(e) if is_poll_timeout(&e) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn serve_conn(mut stream: TcpStream, shared: &Shared, cfg: &ServerConfig) {
    let mut session = Session::new();
    let why = serve_frames(&mut stream, &mut session, shared, cfg);
    // Counted before the peer can see the close, so a client that reads
    // EOF also reads the count.
    lock_core(&shared.core).close(why);
    // Flush journaled acks best-effort before closing; anything lost here
    // is safe to retry thanks to the dedup window. After a corrupt frame
    // this delivers the replies to every frame before it.
    let _ = try_flush(&mut stream, session.outbound());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Answers the connection's frames until one of the close rules fires.
fn serve_frames(
    stream: &mut TcpStream,
    session: &mut Session,
    shared: &Shared,
    cfg: &ServerConfig,
) -> Close {
    let poll_ms = cfg.poll_ms.max(1);
    let poll = Duration::from_millis(poll_ms);
    if stream.set_read_timeout(Some(poll)).is_err() || stream.set_write_timeout(Some(poll)).is_err()
    {
        return Close::Hangup;
    }
    let _ = stream.set_nodelay(true);
    let mut quiet_ms = 0u64;
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Close::Hangup,
            Ok(n) => {
                // The core's lock is taken once per frame, so connections
                // interleave frame by frame.
                let fed = session.feed(buf.get(..n).unwrap_or_default(), |env| {
                    lock_core(&shared.core).submit(env)
                });
                match fed {
                    // Bytes but no complete frame count as a poll interval
                    // of quiet time, so a peer trickling a torn frame faster
                    // than the poll interval still meets the deadline.
                    Ok(0) => quiet_ms = quiet_ms.saturating_add(poll_ms),
                    Ok(_) => quiet_ms = 0,
                    Err(_) => return Close::Corrupt,
                }
            }
            Err(e) if is_poll_timeout(&e) => quiet_ms = quiet_ms.saturating_add(poll_ms),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Close::Hangup,
        }
        if cfg.idle_expired(quiet_ms) {
            return Close::Idle;
        }
        let pending = session.outbound();
        if try_flush(stream, pending).is_err() {
            return Close::Hangup;
        }
        if cfg.overflows(pending.len()) {
            return Close::Overflow;
        }
        if shared.draining.load(Ordering::SeqCst) && pending.is_empty() {
            // Drain: everything received has been answered and flushed.
            return Close::Hangup;
        }
    }
}
