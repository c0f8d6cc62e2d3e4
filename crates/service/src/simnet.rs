//! A deterministic in-memory transport fabric for chaos drills.
//!
//! [`SimNet`] owns a [`PlacementDaemon`] and hands out [`SimTransport`]
//! handles that implement the same [`Transport`] trait as the TCP path, so
//! a [`crate::client::ServiceClient`] runs its real reconnect/backoff/
//! dedup logic against it unchanged. Time is virtual (every connection op
//! advances it by 1 ms; sleeps advance it directly) and an epoch
//! auto-commits every 50 ms of virtual time — no clocks, no threads,
//! fully replayable from a seed.
//!
//! The server side of each connection is a [`Session`], the frame→reply
//! loop [`crate::server::TcpServer`] and
//! [`PlacementDaemon::handle_frames`] run too, so the fabric answers any
//! byte stream exactly as they do. That includes the corrupt-stream rule:
//! a frame with a bad checksum or an impossible length ends the stream,
//! every frame before it is answered and its reply still delivered, then
//! the connection is closed. [`SimStats`] counts the fabric's faults and,
//! under the TCP server's names ([`ServerStats`]), everything the server
//! counts.
//!
//! Seeded socket faults, rolled per operation from a SplitMix64 stream:
//!
//! - **disconnect mid-frame** — a write's connection dies partway through
//!   it, before the server answers any of its bytes;
//! - **split/coalesced I/O** — writes are partially accepted and reads
//!   hand back seeded-size chunks, exercising cross-read reassembly;
//! - **stalled writers / half-open peers** — a connection silently stops
//!   delivering replies (they are withheld, not lost) until a seeded
//!   recovery roll, forcing client timeouts and reconnects;
//! - **write-buffer overflow** — more than 64 KiB of undelivered replies
//!   kills the connection, mirroring the TCP server's bounded-buffer
//!   policy;
//! - **idle kill** — a torn frame sitting quiet for 400 ms gets the
//!   connection dropped (the slowloris defense, virtualized).
//!
//! A [`SimNet::crash_restart`] models kill -9: the daemon is rebuilt from
//! its journal via [`PlacementDaemon::recover`] and every connection dies.
//! The dedup window rides the journal, so in-flight retries stay
//! idempotent across the crash.

use std::cell::RefCell;
use std::rc::Rc;

use goldilocks_core::ServiceConfig;
use goldilocks_rng::SplitMix64;
use goldilocks_topology::DcTree;

use crate::daemon::{PlacementDaemon, RecoveryReport, ServiceError};
use crate::proto::Session;
use crate::server::ServerStats;
use crate::transport::{Conn, Transport, TransportError};

/// An epoch commits whenever virtual time crosses a multiple of this.
const EPOCH_INTERVAL_MS: u64 = 50;
/// Connection cap; connects beyond it are refused.
const MAX_CONNECTIONS: usize = 64;
/// A connection holding a partial frame quiet for this long is killed.
const IDLE_TIMEOUT_MS: u64 = 400;
/// Reply bytes buffered per connection before it is killed.
const WRITE_BUFFER_CAP: usize = 64 * 1024;
/// Virtual cost of one connection operation.
const OP_COST_MS: u64 = 1;
/// Poll interval reported to clients (their timeout-counting unit).
const POLL_MS: u64 = 5;

/// Seeded fault rates, each rolled independently per operation.
#[derive(Clone, Copy, Debug)]
pub struct SimFaultConfig {
    /// RNG seed for every fault roll.
    pub seed: u64,
    /// Per-write chance the connection is cut after delivering a seeded
    /// prefix of the bytes (disconnect mid-frame).
    pub cut_per_write: f64,
    /// Per-write chance only a seeded prefix is accepted (short write; the
    /// client loops, the server sees split frames).
    pub partial_write: f64,
    /// Chance a fresh connection starts stalled (half-open peer: requests
    /// are served but replies are withheld).
    pub stall_on_connect: f64,
    /// Per-read chance a stalled connection recovers and releases its
    /// withheld replies.
    pub unstall_per_read: f64,
    /// Deliver reads in seeded small chunks (split/coalesced reads).
    pub chunked_reads: bool,
}

impl SimFaultConfig {
    /// No faults at all (plain deterministic fabric).
    pub fn quiet(seed: u64) -> Self {
        SimFaultConfig {
            seed,
            cut_per_write: 0.0,
            partial_write: 0.0,
            stall_on_connect: 0.0,
            unstall_per_read: 0.0,
            chunked_reads: false,
        }
    }
}

/// Fabric counters (deterministic given the seed and the op sequence):
/// the fault counters, plus the server-side counters under the TCP
/// server's names.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Connections cut mid-frame by the fault roll.
    pub cuts: u64,
    /// Connections that started stalled (half-open).
    pub stalls: u64,
    /// Stalled connections that recovered.
    pub unstalls: u64,
    /// Crash-restarts performed.
    pub crashes: u64,
    /// Accepts, refusals, disconnects and epoch commits, counted as
    /// [`crate::server::TcpServer`] counts them (`pump_failed` flags a
    /// failed commit, only possible with injected WAL faults).
    pub server: ServerStats,
}

/// Where a fabric connection is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Link {
    /// Serving in both directions.
    Open,
    /// Closed by the server after a corrupt frame: the replies answered
    /// before it still arrive, then the peer is gone (the TCP server's
    /// flush-then-shutdown).
    Closing,
    /// Gone; undelivered replies died with it.
    Dead,
}

struct SimConnState {
    link: Link,
    /// Replies are withheld from reads until a seeded recovery roll.
    stalled: bool,
    session: Session,
    last_progress_ms: u64,
}

struct SimNetInner {
    daemon: PlacementDaemon,
    service: ServiceConfig,
    tree: DcTree,
    faults: SimFaultConfig,
    rng: SplitMix64,
    now_ms: u64,
    epochs_committed: u64,
    conns: std::collections::BTreeMap<u64, SimConnState>,
    next_conn: u64,
    stats: SimStats,
}

/// A trial with probability `p`. Certain outcomes (`p <= 0` or `p >= 1`)
/// draw nothing, so a fault rate at either extreme leaves the stream where
/// it was.
fn chance(rng: &mut SplitMix64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    rng.chance(p)
}

/// Uniform index in `[0, n)`; `n == 0` draws as `n == 1` (always 0).
fn index(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n.max(1) as u64) as usize
}

impl SimNetInner {
    fn advance(&mut self, ms: u64) {
        self.now_ms = self.now_ms.saturating_add(ms);
        // Virtual epoch pump.
        while self
            .epochs_committed
            .saturating_add(1)
            .saturating_mul(EPOCH_INTERVAL_MS)
            <= self.now_ms
        {
            if self.stats.server.pump_failed {
                break;
            }
            match self.daemon.commit_epoch(self.epochs_committed) {
                Ok(rec) => {
                    self.stats.server.placed_total += rec.placed;
                    self.stats.server.epochs_committed += 1;
                    self.epochs_committed += 1;
                    let _ = self.daemon.drain_outbox();
                }
                Err(_) => {
                    self.stats.server.pump_failed = true;
                    break;
                }
            }
        }
        // Idle sweep: a partial frame held quiet past the deadline kills
        // its connection (the virtual slowloris defense).
        let now = self.now_ms;
        for c in self.conns.values_mut() {
            if c.link == Link::Open
                && c.session.pending_bytes() > 0
                && now.saturating_sub(c.last_progress_ms) >= IDLE_TIMEOUT_MS
            {
                c.link = Link::Dead;
                self.stats.server.idle_disconnects += 1;
            }
        }
    }

    fn now_tick(&self) -> u64 {
        self.epochs_committed
            .wrapping_mul(self.daemon.config().epoch_ticks)
            .wrapping_add(1)
    }

    fn connect(&mut self) -> Result<u64, TransportError> {
        self.advance(OP_COST_MS);
        let live = self.conns.values().filter(|c| c.link == Link::Open).count();
        if live >= MAX_CONNECTIONS {
            self.stats.server.conns_refused += 1;
            return Err(TransportError::Refused);
        }
        let stalled = chance(&mut self.rng, self.faults.stall_on_connect);
        if stalled {
            self.stats.stalls += 1;
        }
        self.stats.server.conns_accepted += 1;
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            SimConnState {
                link: Link::Open,
                stalled,
                session: Session::new(),
                last_progress_ms: self.now_ms,
            },
        );
        Ok(id)
    }

    fn conn_write(&mut self, id: u64, bytes: &[u8]) -> Result<usize, TransportError> {
        self.advance(OP_COST_MS);
        if bytes.is_empty() {
            return Ok(0);
        }
        let cut = chance(&mut self.rng, self.faults.cut_per_write);
        let short = chance(&mut self.rng, self.faults.partial_write);
        // Where a cut tears the write. Drawn on every write to keep the
        // stream's order; the server answers nothing a cut write carried.
        let _cut_at = index(&mut self.rng, bytes.len());
        let short_len = 1 + index(&mut self.rng, bytes.len());
        let now = self.now_tick();
        let Some(c) = self.conns.get_mut(&id) else {
            return Err(TransportError::Disconnected);
        };
        if c.link != Link::Open {
            return Err(TransportError::Disconnected);
        }
        if cut {
            // Disconnect mid-frame: the client must reconnect and retry
            // through the dedup window.
            c.link = Link::Dead;
            self.stats.cuts += 1;
            return Err(TransportError::Disconnected);
        }
        let n = if short { short_len } else { bytes.len() };
        let daemon = &mut self.daemon;
        let fed = c.session.feed(bytes.get(..n).unwrap_or_default(), |env| {
            daemon.submit_envelope(now, env)
        });
        match fed {
            Ok(0) => {}
            Ok(_) => c.last_progress_ms = self.now_ms,
            Err(_) => {
                c.link = Link::Closing;
                self.stats.server.corrupt_disconnects += 1;
                return Err(TransportError::Corrupt);
            }
        }
        if c.session.outbound().len() > WRITE_BUFFER_CAP {
            c.link = Link::Dead;
            self.stats.server.overflow_disconnects += 1;
        }
        Ok(n)
    }

    fn conn_read(&mut self, id: u64, buf: &mut [u8]) -> Result<usize, TransportError> {
        self.advance(OP_COST_MS);
        let unstall = chance(&mut self.rng, self.faults.unstall_per_read);
        let chunked = self.faults.chunked_reads;
        let pick = self.rng.next_u64();
        let Some(c) = self.conns.get_mut(&id) else {
            return Err(TransportError::Disconnected);
        };
        let out = c.session.outbound();
        match c.link {
            Link::Open => {}
            Link::Closing if !c.stalled && !out.is_empty() => {}
            // Undelivered replies died with the connection — exactly the
            // lost-Accepted window the dedup drill exercises.
            _ => return Err(TransportError::Disconnected),
        }
        if c.stalled {
            if !unstall {
                return Err(TransportError::WouldBlock);
            }
            c.stalled = false;
            self.stats.unstalls += 1;
        }
        if out.is_empty() || buf.is_empty() {
            return Err(TransportError::WouldBlock);
        }
        let max = out.len().min(buf.len());
        let n = if chunked && max > 1 {
            1 + (pick as usize) % max
        } else {
            max
        };
        for (dst, src) in buf.iter_mut().zip(out.drain(..n)) {
            *dst = src;
        }
        Ok(n)
    }

    fn conn_close(&mut self, id: u64) {
        if let Some(c) = self.conns.get_mut(&id) {
            c.link = Link::Dead;
        }
    }
}

/// The shared fabric handle. Clone freely; all handles see one daemon.
pub struct SimNet {
    inner: Rc<RefCell<SimNetInner>>,
}

impl Clone for SimNet {
    fn clone(&self) -> Self {
        SimNet {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl SimNet {
    /// A fresh fabric around a new daemon.
    pub fn new(service: ServiceConfig, tree: DcTree, faults: SimFaultConfig) -> Self {
        let daemon = PlacementDaemon::new(service.clone(), tree.clone());
        SimNet {
            inner: Rc::new(RefCell::new(SimNetInner {
                daemon,
                service,
                tree,
                rng: SplitMix64::from_state(faults.seed ^ 0x51D0_0E75_F4B1_1C00),
                faults,
                now_ms: 0,
                epochs_committed: 0,
                conns: std::collections::BTreeMap::new(),
                next_conn: 1,
                stats: SimStats::default(),
            })),
        }
    }

    /// A [`Transport`] handle for one client.
    pub fn transport(&self) -> SimTransport {
        SimTransport {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Advances virtual time (committing any due epochs and running the
    /// idle sweep).
    pub fn advance(&self, ms: u64) {
        self.inner.borrow_mut().advance(ms);
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.inner.borrow().now_ms
    }

    /// Runs `f` against the daemon.
    pub fn with_daemon<R>(&self, f: impl FnOnce(&mut PlacementDaemon) -> R) -> R {
        f(&mut self.inner.borrow_mut().daemon)
    }

    /// kill -9: rebuild the daemon from its journal (optionally truncated
    /// at `cut` bytes to model a torn tail on the durable medium) and drop
    /// every connection. Returns the recovery report.
    pub fn crash_restart(&self, cut: Option<usize>) -> Result<RecoveryReport, ServiceError> {
        let mut n = self.inner.borrow_mut();
        let mut wal = n.daemon.wal_bytes().to_vec();
        if let Some(c) = cut {
            wal.truncate(c.min(wal.len()));
        }
        let (d, report) = PlacementDaemon::recover(n.service.clone(), n.tree.clone(), &wal)?;
        n.epochs_committed = d.last_committed().map_or(0, |e| e.wrapping_add(1));
        n.daemon = d;
        n.conns.clear();
        n.stats.crashes += 1;
        Ok(report)
    }

    /// A snapshot of the fabric counters.
    pub fn stats(&self) -> SimStats {
        let n = self.inner.borrow();
        let mut stats = n.stats.clone();
        stats.server.live_conns = n.conns.values().filter(|c| c.link == Link::Open).count() as u64;
        stats
    }
}

/// A client-side [`Transport`] over the fabric.
pub struct SimTransport {
    inner: Rc<RefCell<SimNetInner>>,
}

/// One fabric connection (dies on fault rolls like a real socket).
pub struct SimConn {
    inner: Rc<RefCell<SimNetInner>>,
    id: u64,
}

impl Conn for SimConn {
    fn write(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        self.inner.borrow_mut().conn_write(self.id, bytes)
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        self.inner.borrow_mut().conn_read(self.id, buf)
    }

    fn close(&mut self) {
        self.inner.borrow_mut().conn_close(self.id);
    }
}

impl Transport for SimTransport {
    type C = SimConn;

    fn connect(&mut self) -> Result<SimConn, TransportError> {
        let id = self.inner.borrow_mut().connect()?;
        Ok(SimConn {
            inner: Rc::clone(&self.inner),
            id,
        })
    }

    fn sleep_ms(&mut self, ms: u64) {
        self.inner.borrow_mut().advance(ms);
    }

    fn poll_ms(&self) -> u64 {
        POLL_MS
    }
}
