//! The blocking TCP front end of the placement daemon.
//!
//! ## Connection lifecycle
//!
//! One accept-loop thread owns the listener; each accepted connection gets
//! a thread with its own [`Session`], the one frame→reply loop every
//! transport shares, so a frame split across reads — the common case on a
//! real socket — is reassembled per stream. Each decoded envelope is
//! submitted to the shared daemon under a mutex taken once per frame
//! (admission, journal-before-ack, and the dedup window all live there),
//! and the framed replies are written back from the session's bounded
//! outbound buffer.
//!
//! Defenses, all explicit:
//!
//! - **Connection cap** — accepts beyond `max_connections` are counted and
//!   closed immediately; the client sees EOF and backs off.
//! - **Idle/read deadlines** — socket reads use an OS-enforced poll
//!   timeout; a connection that stays quiet for `idle_timeout_ms`
//!   (slowloris: a torn frame held open forever) is dropped. Idle time is
//!   counted in poll intervals, so the crate never reads a wall clock.
//! - **Corrupt stream** — a frame with a bad checksum or an impossible
//!   length ends the stream: every frame before it is answered and its
//!   reply flushed, then the connection is closed and counted. The sim
//!   fabric ([`crate::simnet`]) follows the same rule.
//! - **Bounded write buffer** — replies a slow peer will not drain
//!   accumulate up to `write_buffer_cap` bytes, then the connection is
//!   dropped with a counted overflow. Memory stays bounded; the client
//!   re-learns state via retry + dedup.
//! - **Graceful drain** — [`ServerHandle::drain`] is SIGTERM-style: stop
//!   accepting, let every connection answer and flush what it already
//!   received (those accepts are journaled), close cleanly, and hand the
//!   daemon (journal included) back to the caller. A retry of any ack the
//!   drain cut off is deduplicated after restart.
//!
//! An optional epoch-pump thread commits placement epochs every
//! `epoch_interval_ms` of real time, mapping wall time to the daemon's
//! virtual ticks only through the epoch counter (tick = epochs × tick
//! width — no clock reads).
//!
//! ## Bounded journal
//!
//! Every commit, pumped or driven by hand, is followed by
//! [`PlacementDaemon::compact_journal`]: the served journal is the latest
//! snapshot pair plus the records after it, so its size is bounded by
//! `snapshot_every` commits rather than by uptime. The daemon handed back
//! by [`ServerHandle::drain`] holds that compacted journal, and it recovers
//! to the same placement as the whole log would.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::daemon::PlacementDaemon;
use crate::proto::Session;

/// Tunables for [`TcpServer`]. All timeouts are in real milliseconds —
/// this is the one edge of the system that touches wall time, and it does
/// so only through OS-enforced socket timeouts and sleeps, never by
/// reading a clock.
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

/// Monotonic serving counters, all updated lock-free.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted into service.
    pub conns_accepted: u64,
    /// Connections refused at the cap (or during drain).
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
    /// True if an epoch commit failed (journal stall mid-commit); the
    /// embedder must drain and crash-restart from the journal.
    pub pump_failed: bool,
}

struct Shared {
    daemon: Mutex<PlacementDaemon>,
    now_ticks: AtomicU64,
    next_epoch: AtomicU64,
    draining: AtomicBool,
    pump_failed: AtomicBool,
    conns: AtomicUsize,
    conns_accepted: AtomicU64,
    conns_refused: AtomicU64,
    idle_disconnects: AtomicU64,
    overflow_disconnects: AtomicU64,
    corrupt_disconnects: AtomicU64,
    epochs_committed: AtomicU64,
    placed_total: AtomicU64,
}

fn lock_daemon(m: &Mutex<PlacementDaemon>) -> MutexGuard<'_, PlacementDaemon> {
    match m.lock() {
        Ok(g) => g,
        // A poisoning panic can only come from outside the daemon (it is
        // panic-free by lint); serving degraded beats refusing everything.
        Err(p) => p.into_inner(),
    }
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
        let epoch_ticks = daemon.config().epoch_ticks;
        let next_epoch = daemon.last_committed().map_or(0, |e| e.wrapping_add(1));
        let shared = Arc::new(Shared {
            daemon: Mutex::new(daemon),
            now_ticks: AtomicU64::new(next_epoch.wrapping_mul(epoch_ticks).wrapping_add(1)),
            next_epoch: AtomicU64::new(next_epoch),
            draining: AtomicBool::new(false),
            pump_failed: AtomicBool::new(false),
            conns: AtomicUsize::new(0),
            conns_accepted: AtomicU64::new(0),
            conns_refused: AtomicU64::new(0),
            idle_disconnects: AtomicU64::new(0),
            overflow_disconnects: AtomicU64::new(0),
            corrupt_disconnects: AtomicU64::new(0),
            epochs_committed: AtomicU64::new(0),
            placed_total: AtomicU64::new(0),
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
            let cfg = cfg.clone();
            Some(
                std::thread::Builder::new()
                    .name("svc-pump".into())
                    .spawn(move || pump_loop(&shared, &cfg, epoch_ticks))?,
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
        ServerStats {
            conns_accepted: self.shared.conns_accepted.load(Ordering::Relaxed),
            conns_refused: self.shared.conns_refused.load(Ordering::Relaxed),
            idle_disconnects: self.shared.idle_disconnects.load(Ordering::Relaxed),
            overflow_disconnects: self.shared.overflow_disconnects.load(Ordering::Relaxed),
            corrupt_disconnects: self.shared.corrupt_disconnects.load(Ordering::Relaxed),
            epochs_committed: self.shared.epochs_committed.load(Ordering::Relaxed),
            placed_total: self.shared.placed_total.load(Ordering::Relaxed),
            live_conns: self.shared.conns.load(Ordering::Relaxed) as u64,
            pump_failed: self.shared.pump_failed.load(Ordering::Relaxed),
        }
    }

    /// Runs `f` against the live daemon (serving pauses for the duration).
    pub fn with_daemon<R>(&self, f: impl FnOnce(&mut PlacementDaemon) -> R) -> R {
        let mut d = lock_daemon(&self.shared.daemon);
        f(&mut d)
    }

    /// Commits the next epoch by hand — the embedder's hook when the pump
    /// is disabled (`epoch_interval_ms == 0`).
    pub fn commit_next_epoch(&self) -> bool {
        commit_one(&self.shared, self.with_daemon(|d| d.config().epoch_ticks))
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
        let mut waited = 0u64;
        while self.shared.conns.load(Ordering::SeqCst) > 0 && waited < self.cfg.drain_wait_ms {
            std::thread::sleep(Duration::from_millis(self.cfg.poll_ms.max(1)));
            waited = waited.saturating_add(self.cfg.poll_ms.max(1));
        }
        let ServerHandle { shared, .. } = self;
        match Arc::try_unwrap(shared) {
            Ok(sh) => Some(match sh.daemon.into_inner() {
                Ok(d) => d,
                Err(p) => p.into_inner(),
            }),
            Err(_) => None,
        }
    }
}

fn commit_one(shared: &Shared, epoch_ticks: u64) -> bool {
    let mut d = lock_daemon(&shared.daemon);
    let epoch = shared.next_epoch.fetch_add(1, Ordering::SeqCst);
    match d.commit_epoch(epoch) {
        Ok(rec) => {
            shared.placed_total.fetch_add(rec.placed, Ordering::Relaxed);
            shared.epochs_committed.fetch_add(1, Ordering::Relaxed);
            // Requests arriving from now on belong to the next epoch's
            // interval: stamp them just past its opening tick.
            shared.now_ticks.store(
                epoch
                    .wrapping_add(1)
                    .wrapping_mul(epoch_ticks)
                    .wrapping_add(1),
                Ordering::Relaxed,
            );
            // No push channel exists for async outcomes — clients learn
            // terminal state via Query; draining keeps the outbox bounded.
            let _ = d.drain_outbox();
            // For the same reason, drop the journal before the latest
            // snapshot pair: a long-running server's log stays bounded.
            d.compact_journal();
            true
        }
        Err(_) => {
            shared.pump_failed.store(true, Ordering::SeqCst);
            false
        }
    }
}

fn pump_loop(shared: &Shared, cfg: &ServerConfig, epoch_ticks: u64) {
    while !shared.draining.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(cfg.epoch_interval_ms.max(1)));
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        if !commit_one(shared, epoch_ticks) {
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
                if shared.conns.load(Ordering::SeqCst) >= cfg.max_connections {
                    shared.conns_refused.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.shutdown(Shutdown::Both);
                    continue;
                }
                shared.conns.fetch_add(1, Ordering::SeqCst);
                shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
                let sh = Arc::clone(shared);
                let c = cfg.clone();
                let spawned =
                    std::thread::Builder::new()
                        .name("svc-conn".into())
                        .spawn(move || {
                            serve_conn(stream, &sh, &c);
                            sh.conns.fetch_sub(1, Ordering::SeqCst);
                        });
                if spawned.is_err() {
                    shared.conns.fetch_sub(1, Ordering::SeqCst);
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
    let poll = Duration::from_millis(cfg.poll_ms.max(1));
    if stream.set_read_timeout(Some(poll)).is_err() || stream.set_write_timeout(Some(poll)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut session = Session::new();
    let mut idle_ms = 0u64;
    let mut buf = vec![0u8; 16 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                // The daemon lock is taken once per frame, so connections
                // interleave frame by frame.
                let fed = session.feed(buf.get(..n).unwrap_or_default(), |env| {
                    let now = shared.now_ticks.load(Ordering::Relaxed);
                    lock_daemon(&shared.daemon).submit_envelope(now, env)
                });
                match fed {
                    Ok(0) => {}
                    Ok(_) => idle_ms = 0,
                    Err(_) => {
                        // Unrecoverable stream (bad checksum / hostile
                        // length): answer what we can, then cut.
                        shared.corrupt_disconnects.fetch_add(1, Ordering::Relaxed);
                        let _ = try_flush(&mut stream, session.outbound());
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                }
            }
            Err(e) if is_poll_timeout(&e) => {
                idle_ms = idle_ms.saturating_add(cfg.poll_ms.max(1));
                if idle_ms >= cfg.idle_timeout_ms {
                    // Slowloris defense: quiet too long (including a
                    // partial frame held open) — drop the connection.
                    shared.idle_disconnects.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
        let pending = session.outbound();
        if try_flush(&mut stream, pending).is_err() {
            break;
        }
        if pending.len() > cfg.write_buffer_cap {
            // The peer is not draining its replies; disconnect explicitly
            // rather than buffer without bound.
            shared.overflow_disconnects.fetch_add(1, Ordering::Relaxed);
            break;
        }
        if shared.draining.load(Ordering::SeqCst) && pending.is_empty() {
            // Drain: everything received has been answered and flushed.
            break;
        }
    }
    // Flush journaled acks best-effort before closing; anything lost here
    // is safe to retry thanks to the dedup window.
    let _ = try_flush(&mut stream, session.outbound());
    let _ = stream.shutdown(Shutdown::Both);
}
