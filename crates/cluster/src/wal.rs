//! The controller's write-ahead log, and the workspace's one byte codec.
//!
//! Every durable control-plane decision — epoch start, chosen placement,
//! each executed migration unit, epoch commit, and periodic full
//! [`ClusterState`](crate::ClusterState) snapshots — is appended as one
//! length-prefixed, CRC-32-checksummed record. The workspace links no
//! serialization crate, so the codec here is hand-rolled little-endian
//! binary: byte-identical on every platform, which is what lets the
//! recovery drill compare logs across crash-restarted runs.
//!
//! The codec has three parts, and every byte the workspace journals or
//! sends over a socket passes through them: the [`Enc`]/[`Dec`] cursor,
//! the frame writer [`frame_with`] (with its wrappers [`frame_into`] and
//! [`frame`]), and the frame scanner [`decode_frame`].
//! The serving layer's protocol messages and service-journal records are
//! built on the same three, so there is one frame format in the code:
//!
//! ```text
//! [payload_len: u32 LE][crc32(payload): u32 LE][payload]
//! ```
//!
//! Decoding tolerates a *torn tail*: a final record cut short or corrupted
//! mid-write (the classic crash-during-append) terminates the scan and the
//! intact prefix is returned, flagged via [`DecodedLog::torn_tail`]. A torn
//! record never panics and never corrupts the records before it.

use goldilocks_placement::Placement;
use goldilocks_topology::ServerId;

use crate::executor::Disposition;
use crate::lifecycle::Transition;
use crate::powergate::PowerState;
use crate::snapshot::ClusterState;

/// Errors from decoding a single WAL record — the error type of every
/// [`Dec`] read, whichever codec is reading.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// The buffer ended before the record did.
    Truncated,
    /// An unknown event or field tag.
    BadTag(u8),
    /// A decoded count or id does not fit the host's address width. On a
    /// 64-bit controller this only fires on corrupt input; on narrower
    /// hosts it replaces what would otherwise be a silent `as` truncation.
    Overflow(u64),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Truncated => write!(f, "record truncated"),
            WalError::BadTag(t) => write!(f, "unknown record tag {t}"),
            WalError::Overflow(v) => write!(f, "value {v} exceeds addressable range"),
        }
    }
}

impl std::error::Error for WalError {}

/// Byte-at-a-time lookup table for [`crc32`]: entry `i` is the CRC register
/// after shifting byte `i` through eight steps of the reflected polynomial.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut entry = 0u32;
    let mut i = 0;
    while i < 256 {
        let mut crc = entry;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        entry += 1;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), one table lookup per byte —
/// every journal append and decode checksums its payload.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let [low, ..] = crc.to_le_bytes();
        crc = (crc >> 8) ^ CRC32_TABLE[usize::from(low ^ b)];
    }
    !crc
}

// analyze:codec -- every encode/decode here is fingerprinted in the golden wire schema

/// Append-only little-endian encoder: the one byte writer behind every WAL
/// record, service-journal record and protocol message. The serving crate
/// calls the cursor once per field, so its methods are `#[inline]` to be
/// inlined across the crate boundary.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Appends a `u32`, little-endian.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// Appends an `f64` as its IEEE-754 bits, little-endian.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    /// Appends bytes verbatim.
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// The encoded bytes.
    #[inline]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian decoding cursor over one payload: the reading half of
/// [`Enc`]. Every read is bounds-checked and reports
/// [`WalError::Truncated`] instead of panicking.
pub struct Dec<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `b`.
    #[inline]
    pub fn new(b: &'a [u8]) -> Self {
        Dec { b, pos: 0 }
    }
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        let end = self.pos.checked_add(n).ok_or(WalError::Truncated)?;
        if end > self.b.len() {
            return Err(WalError::Truncated);
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WalError> {
        self.take(1)?.first().copied().ok_or(WalError::Truncated)
    }
    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, WalError> {
        let a: [u8; 4] = self.take(4)?.try_into().map_err(|_| WalError::Truncated)?;
        Ok(u32::from_le_bytes(a))
    }
    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, WalError> {
        let a: [u8; 8] = self.take(8)?.try_into().map_err(|_| WalError::Truncated)?;
        Ok(u64::from_le_bytes(a))
    }
    /// Reads an `f64` written by [`Enc::f64`].
    #[inline]
    pub fn f64(&mut self) -> Result<f64, WalError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// Reads the next `n` bytes verbatim.
    #[inline]
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        self.take(n)
    }
    /// Reads a `u64` count or id and converts it to `usize`, surfacing a
    /// typed error instead of an `as` truncation on narrow hosts.
    #[inline]
    pub fn count(&mut self) -> Result<usize, WalError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WalError::Overflow(v))
    }
    /// True once every byte has been read.
    #[inline]
    pub fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

/// Wraps a payload in the one frame format every WAL record and wire
/// message uses: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    frame_into(&mut out, payload);
    out
}

/// Appends the frame of `payload` (see [`frame`]) to `out`, with no
/// intermediate framed copy.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(payload.len() + 8);
    frame_with(out, |e| e.raw(payload));
}

/// Appends one frame (see [`frame`]) to `out` whose payload `write` encodes
/// in place: the one frame writer. The 8-byte header is reserved first,
/// `write` encodes the payload straight behind it, and the header's `len`
/// and `crc32` are patched in afterwards, so a record lands in a log or an
/// outbound buffer without a payload buffer of its own.
pub(crate) fn frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Enc)) {
    let start = out.len();
    // The cursor writes into `out`'s own buffer, swapped in and back out.
    let mut e = Enc::default();
    std::mem::swap(&mut e.buf, out);
    e.u32(0);
    e.u32(0);
    write(&mut e);
    std::mem::swap(&mut e.buf, out);
    let body = start + 8;
    let len = out.len() - body;
    debug_assert!(len as u64 <= u64::from(u32::MAX));
    // lint:allow(no-lossy-cast-in-codecs) -- frame headers are u32 by format;
    // payloads are single records or messages, far below 4 GiB (debug-asserted)
    let len = (len as u32).to_le_bytes();
    let crc = crc32(&out[body..]).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..body].copy_from_slice(&crc);
}

/// What [`decode_frame`] found at an offset of a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameScan<'a> {
    /// An intact frame: its payload, and the offset just past the frame.
    Intact {
        /// The checksum-verified payload.
        payload: &'a [u8],
        /// The buffer offset just past the frame.
        end: usize,
    },
    /// The buffer ends inside the frame.
    Incomplete {
        /// The payload length the header declares (`usize::MAX` when it
        /// exceeds the address space), or `None` while the header itself
        /// is incomplete.
        len: Option<usize>,
    },
    /// The payload does not match the header's checksum.
    BadChecksum,
}

/// Reads the frame at offset `at` of `bytes`: the one frame-header parse
/// and checksum check in the workspace. Never panics on arbitrary input.
pub fn decode_frame(bytes: &[u8], at: usize) -> FrameScan<'_> {
    let mut d = Dec::new(bytes.get(at..).unwrap_or_default());
    let (Ok(len), Ok(crc)) = (d.u32(), d.u32()) else {
        return FrameScan::Incomplete { len: None };
    };
    let len = usize::try_from(len).unwrap_or(usize::MAX);
    let Ok(payload) = d.raw(len) else {
        return FrameScan::Incomplete { len: Some(len) };
    };
    if crc32(payload) != crc {
        return FrameScan::BadChecksum;
    }
    FrameScan::Intact {
        payload,
        end: at + d.pos,
    }
}

/// `None` is encoded as `u64::MAX`; server ids are far below it.
const NONE_SENTINEL: u64 = u64::MAX;

pub(crate) fn put_placement(e: &mut Enc, p: &Placement) {
    e.u64(p.assignment.len() as u64);
    for a in &p.assignment {
        e.u64(a.map_or(NONE_SENTINEL, |s| s.0 as u64));
    }
}

pub(crate) fn get_placement(d: &mut Dec<'_>) -> Result<Placement, WalError> {
    let n = d.count()?;
    let mut assignment = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let v = d.u64()?;
        assignment.push(if v == NONE_SENTINEL {
            None
        } else {
            let s = usize::try_from(v).map_err(|_| WalError::Overflow(v))?;
            Some(ServerId(s))
        });
    }
    Ok(Placement { assignment })
}

pub(crate) fn put_transition(e: &mut Enc, t: &Transition) {
    match *t {
        Transition::Start { container, on } => {
            e.u8(0);
            e.u64(container as u64);
            e.u64(on.0 as u64);
        }
        Transition::Migrate {
            container,
            from,
            to,
        } => {
            e.u8(1);
            e.u64(container as u64);
            e.u64(from.0 as u64);
            e.u64(to.0 as u64);
        }
        Transition::Stop { container, on } => {
            e.u8(2);
            e.u64(container as u64);
            e.u64(on.0 as u64);
        }
    }
}

pub(crate) fn get_transition(d: &mut Dec<'_>) -> Result<Transition, WalError> {
    match d.u8()? {
        0 => Ok(Transition::Start {
            container: d.count()?,
            on: ServerId(d.count()?),
        }),
        1 => Ok(Transition::Migrate {
            container: d.count()?,
            from: ServerId(d.count()?),
            to: ServerId(d.count()?),
        }),
        2 => Ok(Transition::Stop {
            container: d.count()?,
            on: ServerId(d.count()?),
        }),
        t => Err(WalError::BadTag(t)),
    }
}

pub(crate) fn put_gate_states(e: &mut Enc, states: &[PowerState]) {
    e.u64(states.len() as u64);
    for s in states {
        match *s {
            PowerState::Off => e.u8(0),
            PowerState::Booting { remaining_s } => {
                e.u8(1);
                e.u32(remaining_s);
            }
            PowerState::On => e.u8(2),
        }
    }
}

pub(crate) fn get_gate_states(d: &mut Dec<'_>) -> Result<Vec<PowerState>, WalError> {
    let n = d.count()?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        out.push(match d.u8()? {
            0 => PowerState::Off,
            1 => PowerState::Booting {
                remaining_s: d.u32()?,
            },
            2 => PowerState::On,
            t => return Err(WalError::BadTag(t)),
        });
    }
    Ok(out)
}

fn put_disposition(e: &mut Enc, d: Disposition) {
    e.u8(match d {
        Disposition::Applied => 0,
        Disposition::Completed => 1,
        Disposition::Abandoned => 2,
        Disposition::TimedOut => 3,
        Disposition::ForcedRestart => 4,
        Disposition::Repair => 5,
    });
}

fn get_disposition(d: &mut Dec<'_>) -> Result<Disposition, WalError> {
    Ok(match d.u8()? {
        0 => Disposition::Applied,
        1 => Disposition::Completed,
        2 => Disposition::Abandoned,
        3 => Disposition::TimedOut,
        4 => Disposition::ForcedRestart,
        5 => Disposition::Repair,
        t => return Err(WalError::BadTag(t)),
    })
}

/// One durable control-plane event.
#[derive(Clone, Debug, PartialEq)]
pub enum WalEvent {
    /// The controller entered epoch `epoch` with the given migration-roll
    /// RNG state (logged *before* planning, which consumes no randomness).
    EpochBegin {
        /// Epoch index.
        epoch: u64,
        /// SplitMix64 state of the migration-roll stream at epoch start.
        rng_state: u64,
    },
    /// The placement the planner decided for the open epoch.
    Decision {
        /// Epoch index.
        epoch: u64,
        /// Which fallback rung produced the placement (driver-defined tag).
        fallback: u8,
        /// Containers shed by the planner.
        shed: u64,
        /// The intended placement.
        intended: Placement,
    },
    /// One executed migration unit: the transitions that were applied to the
    /// cluster, the unit's resolution, and the RNG state *after* the unit's
    /// failure rolls were consumed.
    Unit {
        /// The container the unit reconciled (`u64::MAX` for a multi-container
        /// anti-entropy repair batch).
        container: u64,
        /// How the unit resolved.
        disposition: Disposition,
        /// Post-unit RNG state.
        rng_state: u64,
        /// Transitions applied, in order (rollbacks included).
        transitions: Vec<Transition>,
    },
    /// The epoch completed: power-gate states after the epoch's gating step
    /// and the RNG state at commit.
    EpochCommit {
        /// Epoch index.
        epoch: u64,
        /// Post-epoch RNG state.
        rng_state: u64,
        /// Power-gate state per server after this epoch's gating step.
        gate: Vec<PowerState>,
    },
    /// A periodic full snapshot; recovery replays only the suffix after the
    /// last intact snapshot.
    Snapshot(ClusterState),
    /// An opaque serving-layer record (admission ledger entries, batch
    /// drains, service snapshots). The control-plane replay skips these;
    /// [`crate::recovery::recover`] collects them in append order so the
    /// daemon can rebuild its admission state from the same log.
    Service(Vec<u8>),
}

impl WalEvent {
    /// Encodes the event's payload onto `e` — in place behind a frame
    /// header when [`Wal::append`] writes it.
    fn encode_into(&self, e: &mut Enc) {
        match self {
            WalEvent::EpochBegin { epoch, rng_state } => {
                e.u8(1);
                e.u64(*epoch);
                e.u64(*rng_state);
            }
            WalEvent::Decision {
                epoch,
                fallback,
                shed,
                intended,
            } => {
                e.u8(2);
                e.u64(*epoch);
                e.u8(*fallback);
                e.u64(*shed);
                put_placement(e, intended);
            }
            WalEvent::Unit {
                container,
                disposition,
                rng_state,
                transitions,
            } => {
                e.u8(3);
                e.u64(*container);
                put_disposition(e, *disposition);
                e.u64(*rng_state);
                // Transition counts travel as u64 like every other count in
                // this codec (was u32 before PR 10 — a deliberate format
                // change, bumped in the golden wire schema).
                e.u64(transitions.len() as u64);
                for t in transitions {
                    put_transition(e, t);
                }
            }
            WalEvent::EpochCommit {
                epoch,
                rng_state,
                gate,
            } => {
                e.u8(4);
                e.u64(*epoch);
                e.u64(*rng_state);
                put_gate_states(e, gate);
            }
            WalEvent::Snapshot(s) => {
                e.u8(5);
                s.encode(e);
            }
            WalEvent::Service(payload) => {
                e.u8(6);
                e.u64(payload.len() as u64);
                e.raw(payload);
            }
        }
    }

    fn decode(payload: &[u8]) -> Result<WalEvent, WalError> {
        let mut d = Dec::new(payload);
        let ev = match d.u8()? {
            1 => WalEvent::EpochBegin {
                epoch: d.u64()?,
                rng_state: d.u64()?,
            },
            2 => WalEvent::Decision {
                epoch: d.u64()?,
                fallback: d.u8()?,
                shed: d.u64()?,
                intended: get_placement(&mut d)?,
            },
            3 => {
                let container = d.u64()?;
                let disposition = get_disposition(&mut d)?;
                let rng_state = d.u64()?;
                let n = d.count()?;
                let mut transitions = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    transitions.push(get_transition(&mut d)?);
                }
                WalEvent::Unit {
                    container,
                    disposition,
                    rng_state,
                    transitions,
                }
            }
            4 => WalEvent::EpochCommit {
                epoch: d.u64()?,
                rng_state: d.u64()?,
                gate: get_gate_states(&mut d)?,
            },
            5 => WalEvent::Snapshot(ClusterState::decode(&mut d)?),
            6 => {
                let n = d.count()?;
                WalEvent::Service(d.raw(n)?.to_vec())
            }
            t => return Err(WalError::BadTag(t)),
        };
        if !d.done() {
            // Trailing garbage inside a checksummed payload is a codec bug.
            return Err(WalError::Truncated);
        }
        Ok(ev)
    }
}

/// An injected write failure for fault testing the append path.
///
/// Both model what a real log file sees when the disk misbehaves during an
/// append: either nothing lands (`DiskFull`) or a prefix of the frame lands
/// and the record is torn (`ShortWrite`). In both cases the *previously
/// acknowledged* records must stay intact and recoverable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteFault {
    /// The whole append is dropped; the buffer is unchanged.
    DiskFull,
    /// Only the first `n` bytes of the framed record land, leaving a torn
    /// tail. `n` is clamped to the frame length; `n == frame_len` degrades
    /// to a successful write.
    ShortWrite(usize),
}

/// Error returned when an (injected) write fault interrupted an append.
///
/// The record was **not** durably written; callers must not acknowledge it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalFull;

impl std::fmt::Display for WalFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wal append failed (write fault)")
    }
}

impl std::error::Error for WalFull {}

/// Result of scanning a log buffer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecodedLog {
    /// The intact record prefix, in append order.
    pub events: Vec<WalEvent>,
    /// True when trailing bytes could not be decoded (torn final record).
    pub torn_tail: bool,
    /// Bytes of the buffer covered by intact records.
    pub intact_bytes: usize,
}

/// An append-only write-ahead log over an in-memory byte buffer.
///
/// The buffer *is* the durable medium of the simulation: crash-restart hands
/// the surviving bytes to [`crate::recovery::recover`], exactly as a real
/// controller would re-open its log file.
#[derive(Clone, Debug, Default)]
pub struct Wal {
    buf: Vec<u8>,
}

impl Wal {
    /// An empty log.
    pub fn new() -> Self {
        Wal::default()
    }

    /// Adopts an existing (possibly torn) byte buffer.
    pub fn from_bytes(buf: Vec<u8>) -> Self {
        Wal { buf }
    }

    /// Appends one event as a framed, checksummed record.
    // analyze:sink(wal-append) -- appended bytes must replay byte-identically
    // analyze:hot-path -- records are encoded in place: an append into spare capacity allocates nothing
    pub fn append(&mut self, ev: &WalEvent) {
        frame_with(&mut self.buf, |e| ev.encode_into(e));
    }

    /// Appends one event through an optional injected write fault.
    ///
    /// On `Ok(())` the record is fully durable. On `Err(WalFull)` the record
    /// was not written — `DiskFull` leaves the buffer untouched, while
    /// `ShortWrite(n)` leaves a torn partial frame that
    /// [`Wal::truncate_torn_tail`] (or a crash-restart through
    /// [`Wal::decode`]) rolls back to the intact prefix. Either way, no
    /// previously appended record is harmed.
    // analyze:sink(wal-append) -- fault-injected appends share the replay contract
    // analyze:hot-path -- the serving journal's append: encoded in place, no allocation
    pub fn append_with_fault(
        &mut self,
        ev: &WalEvent,
        fault: Option<WriteFault>,
    ) -> Result<(), WalFull> {
        if fault == Some(WriteFault::DiskFull) {
            return Err(WalFull);
        }
        let start = self.buf.len();
        frame_with(&mut self.buf, |e| ev.encode_into(e));
        match fault {
            // Only the first `n` bytes of the frame land: a torn tail.
            Some(WriteFault::ShortWrite(n)) if start + n < self.buf.len() => {
                self.buf.truncate(start + n);
                Err(WalFull)
            }
            _ => Ok(()),
        }
    }

    /// Rolls a torn tail back to the intact record prefix, returning how
    /// many bytes were discarded. A clean log is left untouched (returns 0).
    ///
    /// This is the log-repair step a controller runs after a failed append
    /// (or on re-open after a crash) so later appends land on a record
    /// boundary instead of extending garbage.
    pub fn truncate_torn_tail(&mut self) -> usize {
        let decoded = Wal::decode(&self.buf);
        let dropped = self.buf.len() - decoded.intact_bytes;
        self.buf.truncate(decoded.intact_bytes);
        dropped
    }

    /// Drops the first `offset` bytes of the log, returning how many were
    /// dropped (`offset` clamped to the log's length).
    ///
    /// This is log compaction: `offset` must be a record boundary at which
    /// the log is self-contained — in practice the start of the latest
    /// snapshot, from which [`crate::recovery::recover`] replays — so the
    /// remaining bytes decode and replay exactly as the suffix they were.
    // analyze:sink(wal-append) -- the kept suffix must replay byte-identically
    pub fn drop_prefix(&mut self, offset: usize) -> usize {
        let offset = offset.min(self.buf.len());
        self.buf.drain(..offset);
        offset
    }

    /// The raw log bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Log size in bytes.
    pub fn len_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The offset just past each intact `[len u32][crc u32][payload]`
    /// record of `bytes`, in order: every record boundary a crash may leave.
    ///
    /// A record is intact when [`decode_frame`] reads it as
    /// [`FrameScan::Intact`]: its header and payload fit in the buffer and
    /// the payload matches its checksum.
    /// The walk stops at the first record that is not intact (a torn tail).
    /// Payloads are not decoded. Never panics on arbitrary input.
    pub fn record_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut pos = 0usize;
        while let FrameScan::Intact { end, .. } = decode_frame(bytes, pos) {
            pos = end;
            ends.push(pos);
        }
        ends
    }

    /// Scans a byte buffer into its intact event prefix, tolerating a torn
    /// final record. A checksummed payload that fails [`WalEvent`]
    /// decoding ends the prefix like a torn record. Never panics on
    /// arbitrary input.
    pub fn decode(bytes: &[u8]) -> DecodedLog {
        let mut log = DecodedLog::default();
        while let FrameScan::Intact { payload, end } = decode_frame(bytes, log.intact_bytes) {
            let Ok(ev) = WalEvent::decode(payload) else {
                break;
            };
            log.events.push(ev);
            log.intact_bytes = end;
        }
        log.torn_tail = log.intact_bytes < bytes.len();
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_events() -> Vec<WalEvent> {
        vec![
            WalEvent::EpochBegin {
                epoch: 0,
                rng_state: 0xDEAD_BEEF,
            },
            WalEvent::Decision {
                epoch: 0,
                fallback: 2,
                shed: 3,
                intended: Placement {
                    assignment: vec![Some(ServerId(4)), None, Some(ServerId(0))],
                },
            },
            WalEvent::Unit {
                container: 0,
                disposition: Disposition::Completed,
                rng_state: 77,
                transitions: vec![
                    Transition::Migrate {
                        container: 0,
                        from: ServerId(1),
                        to: ServerId(4),
                    },
                    Transition::Migrate {
                        container: 0,
                        from: ServerId(4),
                        to: ServerId(1),
                    },
                ],
            },
            WalEvent::EpochCommit {
                epoch: 0,
                rng_state: 78,
                gate: vec![
                    PowerState::On,
                    PowerState::Off,
                    PowerState::Booting { remaining_s: 120 },
                ],
            },
            WalEvent::Snapshot(ClusterState {
                committed_epoch: Some(0),
                intended: Placement {
                    assignment: vec![Some(ServerId(4)), None, Some(ServerId(0))],
                },
                actual: vec![(0, 4), (2, 0)],
                gate: Some(vec![PowerState::On, PowerState::Off, PowerState::On]),
                rng_state: Some(78),
            }),
            WalEvent::Service(vec![0x06, 0x00, 0xFF, 0x7A, 0x00]),
        ]
    }

    #[test]
    fn round_trip_every_event_kind() {
        let events = sample_events();
        let mut wal = Wal::new();
        for ev in &events {
            wal.append(ev);
        }
        let decoded = Wal::decode(wal.bytes());
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.events, events);
        assert_eq!(decoded.intact_bytes, wal.len_bytes());
    }

    #[test]
    fn truncation_yields_intact_prefix() {
        let events = sample_events();
        let mut wal = Wal::new();
        for ev in &events {
            wal.append(ev);
        }
        let bytes = wal.bytes();
        // Cut the buffer anywhere inside the final record.
        let ends = Wal::record_ends(bytes);
        let last_start = ends[ends.len() - 2];
        for cut in last_start + 1..bytes.len() {
            let decoded = Wal::decode(&bytes[..cut]);
            assert!(decoded.torn_tail, "cut at {cut} must read as torn");
            assert_eq!(decoded.events, events[..events.len() - 1]);
        }
        // Cutting exactly at the record boundary is a clean (shorter) log.
        let decoded = Wal::decode(&bytes[..last_start]);
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.events, events[..events.len() - 1]);
    }

    #[test]
    fn framing_walk_matches_decode_on_clean_and_torn_logs() {
        let events = sample_events();
        let mut wal = Wal::new();
        let mut appended_ends = Vec::new();
        for ev in &events {
            wal.append(ev);
            appended_ends.push(wal.len_bytes());
        }
        let bytes = wal.bytes();
        assert_eq!(Wal::record_ends(bytes), appended_ends);
        assert_eq!(appended_ends.last(), Some(&Wal::decode(bytes).intact_bytes));
        // Every cut: one end per decoded event, the last at the intact prefix.
        for cut in 0..bytes.len() {
            let decoded = Wal::decode(&bytes[..cut]);
            let ends = Wal::record_ends(&bytes[..cut]);
            assert_eq!(ends.len(), decoded.events.len(), "cut at {cut}");
            assert_eq!(ends.last().copied().unwrap_or(0), decoded.intact_bytes);
        }
        // A checksum mismatch stops the walk where decode stops.
        let mut flipped = bytes.to_vec();
        flipped[appended_ends[2] + 9] ^= 0x40;
        assert_eq!(Wal::record_ends(&flipped), appended_ends[..3]);
        assert_eq!(Wal::decode(&flipped).intact_bytes, appended_ends[2]);
        assert!(Wal::record_ends(&[]).is_empty());
        assert!(Wal::record_ends(&[0xFF; 37]).is_empty());
    }

    #[test]
    fn bit_flip_in_final_record_detected() {
        let events = sample_events();
        let mut wal = Wal::new();
        for ev in &events {
            wal.append(ev);
        }
        let clean_len = wal.len_bytes();
        for flip in clean_len - 20..clean_len {
            let mut bytes = wal.bytes().to_vec();
            bytes[flip] ^= 0x40;
            let decoded = Wal::decode(&bytes);
            assert!(
                decoded.events.len() >= events.len() - 1,
                "flip at {flip} lost more than the final record"
            );
            assert!(
                decoded.events[..events.len() - 1] == events[..events.len() - 1],
                "flip at {flip} corrupted the intact prefix"
            );
        }
    }

    #[test]
    fn frame_scanner_reports_each_outcome() {
        let f = frame(b"abc");
        assert_eq!(
            decode_frame(&f, 0),
            FrameScan::Intact {
                payload: b"abc",
                end: 11
            }
        );
        // A header cut short, a payload cut short (its length is known),
        // and offsets at or past the end.
        assert_eq!(
            decode_frame(&f[..5], 0),
            FrameScan::Incomplete { len: None }
        );
        assert_eq!(
            decode_frame(&f[..10], 0),
            FrameScan::Incomplete { len: Some(3) }
        );
        assert_eq!(decode_frame(&f, 11), FrameScan::Incomplete { len: None });
        assert_eq!(decode_frame(&f, 99), FrameScan::Incomplete { len: None });
        let mut bad = f.clone();
        bad[10] ^= 0x01;
        assert_eq!(decode_frame(&bad, 0), FrameScan::BadChecksum);
        // A second frame is read at the first one's end offset.
        let mut two = f.clone();
        two.extend_from_slice(&frame(b""));
        assert_eq!(
            decode_frame(&two, 11),
            FrameScan::Intact {
                payload: b"",
                end: 19
            }
        );
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise CRC-32: eight shift steps per byte, no table.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    proptest! {
        /// The table-driven CRC is bit-identical to the bitwise one.
        #[test]
        fn table_crc32_matches_bitwise(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(crc32(&data), crc32_bitwise(&data));
        }
    }

    /// A random event of any variant, every collection possibly empty.
    fn random_event(rng: &mut goldilocks_rng::SplitMix64) -> WalEvent {
        let server = |rng: &mut goldilocks_rng::SplitMix64| ServerId(rng.below(16) as usize);
        let placement = |rng: &mut goldilocks_rng::SplitMix64| Placement {
            assignment: (0..rng.below(6))
                .map(|_| (rng.below(4) > 0).then(|| ServerId(rng.below(16) as usize)))
                .collect(),
        };
        let gate = |rng: &mut goldilocks_rng::SplitMix64| -> Vec<PowerState> {
            (0..rng.below(5))
                .map(|_| match rng.below(3) {
                    0 => PowerState::Off,
                    1 => PowerState::Booting {
                        remaining_s: rng.below(300) as u32,
                    },
                    _ => PowerState::On,
                })
                .collect()
        };
        match rng.below(6) {
            0 => WalEvent::EpochBegin {
                epoch: rng.next_u64(),
                rng_state: rng.next_u64(),
            },
            1 => WalEvent::Decision {
                epoch: rng.below(1000),
                fallback: rng.below(5) as u8,
                shed: rng.below(10),
                intended: placement(rng),
            },
            2 => WalEvent::Unit {
                container: rng.next_u64(),
                disposition: Disposition::Repair,
                rng_state: rng.next_u64(),
                transitions: (0..rng.below(4))
                    .map(|_| {
                        let container = rng.below(64) as usize;
                        match rng.below(3) {
                            0 => Transition::Start {
                                container,
                                on: server(rng),
                            },
                            1 => Transition::Migrate {
                                container,
                                from: server(rng),
                                to: server(rng),
                            },
                            _ => Transition::Stop {
                                container,
                                on: server(rng),
                            },
                        }
                    })
                    .collect(),
            },
            3 => WalEvent::EpochCommit {
                epoch: rng.below(1000),
                rng_state: rng.next_u64(),
                gate: gate(rng),
            },
            4 => WalEvent::Snapshot(ClusterState {
                committed_epoch: (rng.below(2) == 0).then(|| rng.below(1000)),
                intended: placement(rng),
                actual: (0..rng.below(4))
                    .map(|_| (rng.below(64), rng.below(16)))
                    .collect(),
                gate: (rng.below(2) == 0).then(|| gate(rng)),
                rng_state: (rng.below(2) == 0).then(|| rng.next_u64()),
            }),
            _ => WalEvent::Service((0..rng.below(40)).map(|_| rng.below(256) as u8).collect()),
        }
    }

    /// The record of `ev` built the two-step way: the payload encoded into
    /// a buffer of its own, then the header written by hand in front of it.
    fn two_step_frame(ev: &WalEvent) -> Vec<u8> {
        let mut e = Enc::default();
        ev.encode_into(&mut e);
        let payload = e.into_bytes();
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Framing in place writes the bytes the two-step framing wrote,
        /// after any log prefix, for every variant; a short write leaves
        /// exactly the frame's first `n` bytes (the whole frame, and no
        /// error, once `n` covers it), and a full disk leaves the log as it
        /// was.
        #[test]
        fn in_place_records_match_the_two_step_frame(
            seed in any::<u64>(),
            events in 1usize..8,
            cut in any::<u64>(),
        ) {
            let mut rng = goldilocks_rng::SplitMix64::seed_from_u64(seed);
            let mut wal = Wal::new();
            for _ in 0..events {
                let ev = random_event(&mut rng);
                let expected = two_step_frame(&ev);
                let prefix = wal.bytes().to_vec();

                let n = (cut % (expected.len() as u64 + 2)) as usize;
                let mut torn = wal.clone();
                let res = torn.append_with_fault(&ev, Some(WriteFault::ShortWrite(n)));
                prop_assert_eq!(res.is_err(), n < expected.len());
                prop_assert_eq!(&torn.bytes()[..prefix.len()], &prefix[..]);
                prop_assert_eq!(&torn.bytes()[prefix.len()..], &expected[..n.min(expected.len())]);

                let mut full = wal.clone();
                prop_assert!(full.append_with_fault(&ev, Some(WriteFault::DiskFull)).is_err());
                prop_assert_eq!(full.bytes(), &prefix[..]);

                wal.append(&ev);
                prop_assert_eq!(&wal.bytes()[..prefix.len()], &prefix[..]);
                prop_assert_eq!(&wal.bytes()[prefix.len()..], &expected[..]);
                let mut framed = prefix.clone();
                frame_into(&mut framed, &expected[8..]);
                prop_assert_eq!(&framed[..], wal.bytes());
            }
        }
    }

    #[test]
    fn dropping_a_record_prefix_leaves_the_suffix() {
        let events = sample_events();
        let mut wal = Wal::new();
        wal.append(&events[0]);
        wal.append(&events[1]);
        let boundary = wal.len_bytes();
        for ev in &events[2..] {
            wal.append(ev);
        }
        let total = wal.len_bytes();
        assert_eq!(wal.drop_prefix(boundary), boundary);
        assert_eq!(wal.len_bytes(), total - boundary);
        let decoded = Wal::decode(wal.bytes());
        assert!(!decoded.torn_tail);
        assert_eq!(decoded.events, events[2..]);
        // Appends continue on the compacted log; an oversized offset
        // empties it.
        wal.append(&events[0]);
        assert_eq!(Wal::decode(wal.bytes()).events.len(), events.len() - 1);
        let left = wal.len_bytes();
        assert_eq!(wal.drop_prefix(usize::MAX), left);
        assert!(wal.bytes().is_empty());
    }

    #[test]
    fn empty_and_garbage_buffers() {
        assert_eq!(Wal::decode(&[]), DecodedLog::default());
        let garbage = [0xFFu8; 37];
        let decoded = Wal::decode(&garbage);
        assert!(decoded.torn_tail);
        assert!(decoded.events.is_empty());
    }
}
