//! The daemon's wire protocol: framed, checksummed request/response
//! messages.
//!
//! Messages are encoded with the cluster WAL's [`Enc`]/[`Dec`] cursor and
//! framed by its frame writer and scanner
//! ([`goldilocks_cluster::frame`], [`decode_frame`]) — one codec and one
//! frame format, `[payload_len: u32 LE][crc32(payload): u32 LE][payload]`,
//! for the journal and the wire. A torn final frame on a stream is
//! therefore detected and skipped exactly like a torn WAL tail, and every
//! message is byte-identical across platforms.

use goldilocks_cluster::{decode_frame, frame_into, Dec, Enc, FrameScan, WalError};
use goldilocks_topology::Resources;

/// Errors from decoding a single protocol message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The buffer ended before the message did.
    Truncated,
    /// An unknown message or field tag.
    BadTag(u8),
    /// A frame failed its checksum or declared an impossible length. On a
    /// stream transport the connection is dropped at this point — bytes
    /// after a corrupt header cannot be re-synchronized.
    Corrupt,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "message truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::Corrupt => write!(f, "frame corrupt (bad checksum or length)"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The cursor's errors, in protocol terms: an overflowing count is a
/// corrupt message.
impl From<WalError> for ProtoError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Truncated => ProtoError::Truncated,
            WalError::BadTag(t) => ProtoError::BadTag(t),
            WalError::Overflow(_) => ProtoError::Corrupt,
        }
    }
}

/// Client-assigned request priority; higher values are more important and
/// are the last to be shed under overload.
pub type Priority = u8;

/// A client request to the placement daemon.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Admit a new container with the given resource demand.
    Admit {
        /// Shed/eviction priority (higher survives longer).
        priority: Priority,
        /// Requested resources.
        demand: Resources,
        /// Deadline budget in ticks from arrival; `0` means "use the
        /// daemon's default budget".
        deadline_ticks: u64,
        /// Opaque client correlation tag, echoed in every response.
        tag: u64,
    },
    /// Change the resource demand of a previously admitted container.
    Resize {
        /// Priority of this request in the admission queue.
        priority: Priority,
        /// The `Accepted.seq` of the admit being resized.
        target_seq: u64,
        /// The new resource demand.
        demand: Resources,
        /// Deadline budget in ticks from arrival (`0` = default).
        deadline_ticks: u64,
        /// Opaque client correlation tag.
        tag: u64,
    },
    /// Remove a previously admitted container.
    Remove {
        /// Priority of this request in the admission queue.
        priority: Priority,
        /// The `Accepted.seq` of the admit being removed.
        target_seq: u64,
        /// Deadline budget in ticks from arrival (`0` = default).
        deadline_ticks: u64,
        /// Opaque client correlation tag.
        tag: u64,
    },
    /// Read-only lookup of a request's current disposition. Queries bypass
    /// admission control and are never journaled.
    Query {
        /// The `Accepted.seq` to look up.
        target_seq: u64,
        /// Opaque client correlation tag.
        tag: u64,
    },
}

impl Request {
    /// The request's admission priority (queries have none and report max).
    pub fn priority(&self) -> Priority {
        match self {
            Request::Admit { priority, .. }
            | Request::Resize { priority, .. }
            | Request::Remove { priority, .. } => *priority,
            Request::Query { .. } => Priority::MAX,
        }
    }

    /// The client correlation tag.
    pub fn tag(&self) -> u64 {
        match self {
            Request::Admit { tag, .. }
            | Request::Resize { tag, .. }
            | Request::Remove { tag, .. }
            | Request::Query { tag, .. } => *tag,
        }
    }

    /// The deadline budget in ticks (`0` = daemon default; queries are
    /// immediate and report 0).
    pub fn deadline_ticks(&self) -> u64 {
        match self {
            Request::Admit { deadline_ticks, .. }
            | Request::Resize { deadline_ticks, .. }
            | Request::Remove { deadline_ticks, .. } => *deadline_ticks,
            Request::Query { .. } => 0,
        }
    }
}

/// Why a request was rejected at admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue is full and the request's priority did
    /// not beat the lowest queued priority.
    QueueFull,
    /// The token-bucket admission controller is out of tokens.
    Throttled,
    /// The journal could not durably record the request (write stall); the
    /// request was *not* accepted and must be retried.
    WalUnavailable,
}

/// A daemon response. Every accepted mutation is first journaled, so an
/// `Accepted` ack implies the request survives any crash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// The request was journaled and queued; `seq` is its durable identity.
    Accepted {
        /// Durable sequence number.
        seq: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// Explicit backpressure: not accepted, retry after the given ticks.
    Rejected {
        /// Why admission refused the request.
        reason: RejectReason,
        /// Hint: ticks until the gate is expected to reopen.
        retry_after_ticks: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// The request was accepted but shed under overload (queue eviction by
    /// a higher-priority arrival, or the planner's degradation ladder).
    Shed {
        /// The shed request's sequence number.
        seq: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// The request's deadline passed before its batch committed.
    Expired {
        /// The expired request's sequence number.
        seq: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// An admit was placed on (or currently runs on) the given server.
    Placed {
        /// The admit's sequence number.
        seq: u64,
        /// Hosting server id.
        server: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// A resize was applied.
    Resized {
        /// The resize request's sequence number.
        seq: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// A remove was applied.
    Removed {
        /// The remove request's sequence number.
        seq: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// The referenced target is unknown (never admitted, already removed,
    /// shed, or expired).
    NotFound {
        /// The sequence number of the request that referenced the target.
        seq: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// Query result: the target is still waiting in the admission queue.
    Queued {
        /// The queried sequence number.
        seq: u64,
        /// Echoed client tag.
        tag: u64,
    },
    /// The frame decoded but the message inside did not; nothing was done.
    Malformed {
        /// Echoed client tag when recoverable, else 0.
        tag: u64,
    },
}

// analyze:codec -- every encode/decode here is fingerprinted in the golden wire schema

pub(crate) fn put_resources(e: &mut Enc, r: &Resources) {
    e.f64(r.cpu);
    e.f64(r.memory_gb);
    e.f64(r.network_mbps);
}

impl Request {
    /// Encodes the request payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        match self {
            Request::Admit {
                priority,
                demand,
                deadline_ticks,
                tag,
            } => {
                e.u8(1);
                e.u8(*priority);
                put_resources(&mut e, demand);
                e.u64(*deadline_ticks);
                e.u64(*tag);
            }
            Request::Resize {
                priority,
                target_seq,
                demand,
                deadline_ticks,
                tag,
            } => {
                e.u8(2);
                e.u8(*priority);
                e.u64(*target_seq);
                put_resources(&mut e, demand);
                e.u64(*deadline_ticks);
                e.u64(*tag);
            }
            Request::Remove {
                priority,
                target_seq,
                deadline_ticks,
                tag,
            } => {
                e.u8(3);
                e.u8(*priority);
                e.u64(*target_seq);
                e.u64(*deadline_ticks);
                e.u64(*tag);
            }
            Request::Query { target_seq, tag } => {
                e.u8(4);
                e.u64(*target_seq);
                e.u64(*tag);
            }
        }
        e.into_bytes()
    }

    /// Decodes a request payload (unframed). Rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Dec::new(payload);
        let req = match d.u8()? {
            1 => Request::Admit {
                priority: d.u8()?,
                demand: Resources::new(d.f64()?, d.f64()?, d.f64()?),
                deadline_ticks: d.u64()?,
                tag: d.u64()?,
            },
            2 => Request::Resize {
                priority: d.u8()?,
                target_seq: d.u64()?,
                demand: Resources::new(d.f64()?, d.f64()?, d.f64()?),
                deadline_ticks: d.u64()?,
                tag: d.u64()?,
            },
            3 => Request::Remove {
                priority: d.u8()?,
                target_seq: d.u64()?,
                deadline_ticks: d.u64()?,
                tag: d.u64()?,
            },
            4 => Request::Query {
                target_seq: d.u64()?,
                tag: d.u64()?,
            },
            t => return Err(ProtoError::BadTag(t)),
        };
        if !d.done() {
            return Err(ProtoError::Truncated);
        }
        Ok(req)
    }
}

impl Response {
    /// Encodes the response payload (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        match self {
            Response::Accepted { seq, tag } => {
                e.u8(1);
                e.u64(*seq);
                e.u64(*tag);
            }
            Response::Rejected {
                reason,
                retry_after_ticks,
                tag,
            } => {
                e.u8(2);
                e.u8(match reason {
                    RejectReason::QueueFull => 0,
                    RejectReason::Throttled => 1,
                    RejectReason::WalUnavailable => 2,
                });
                e.u64(*retry_after_ticks);
                e.u64(*tag);
            }
            Response::Shed { seq, tag } => {
                e.u8(3);
                e.u64(*seq);
                e.u64(*tag);
            }
            Response::Expired { seq, tag } => {
                e.u8(4);
                e.u64(*seq);
                e.u64(*tag);
            }
            Response::Placed { seq, server, tag } => {
                e.u8(5);
                e.u64(*seq);
                e.u64(*server);
                e.u64(*tag);
            }
            Response::Resized { seq, tag } => {
                e.u8(6);
                e.u64(*seq);
                e.u64(*tag);
            }
            Response::Removed { seq, tag } => {
                e.u8(7);
                e.u64(*seq);
                e.u64(*tag);
            }
            Response::NotFound { seq, tag } => {
                e.u8(8);
                e.u64(*seq);
                e.u64(*tag);
            }
            Response::Queued { seq, tag } => {
                e.u8(9);
                e.u64(*seq);
                e.u64(*tag);
            }
            Response::Malformed { tag } => {
                e.u8(10);
                e.u64(*tag);
            }
        }
        e.into_bytes()
    }

    /// Decodes a response payload (unframed). Rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(payload);
        let resp = match d.u8()? {
            1 => Response::Accepted {
                seq: d.u64()?,
                tag: d.u64()?,
            },
            2 => Response::Rejected {
                reason: match d.u8()? {
                    0 => RejectReason::QueueFull,
                    1 => RejectReason::Throttled,
                    2 => RejectReason::WalUnavailable,
                    t => return Err(ProtoError::BadTag(t)),
                },
                retry_after_ticks: d.u64()?,
                tag: d.u64()?,
            },
            3 => Response::Shed {
                seq: d.u64()?,
                tag: d.u64()?,
            },
            4 => Response::Expired {
                seq: d.u64()?,
                tag: d.u64()?,
            },
            5 => Response::Placed {
                seq: d.u64()?,
                server: d.u64()?,
                tag: d.u64()?,
            },
            6 => Response::Resized {
                seq: d.u64()?,
                tag: d.u64()?,
            },
            7 => Response::Removed {
                seq: d.u64()?,
                tag: d.u64()?,
            },
            8 => Response::NotFound {
                seq: d.u64()?,
                tag: d.u64()?,
            },
            9 => Response::Queued {
                seq: d.u64()?,
                tag: d.u64()?,
            },
            10 => Response::Malformed { tag: d.u64()? },
            t => return Err(ProtoError::BadTag(t)),
        };
        if !d.done() {
            return Err(ProtoError::Truncated);
        }
        Ok(resp)
    }
}

/// A transport-level request envelope: a [`Request`] plus the client
/// identity and client-assigned request id that make retries idempotent.
///
/// `client == 0` means anonymous — the daemon skips the dedup window for
/// such requests (the in-process [`crate::PlacementDaemon::submit`] path
/// uses it). Any nonzero `(client, request_id)` pair names one logical
/// request forever: a retry carrying the same pair after a lost `Accepted`
/// replays the original outcome instead of double-placing.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Stable client identity (0 = anonymous, no dedup).
    pub client: u64,
    /// Client-assigned id, unique per logical request within the client.
    pub request_id: u64,
    /// The request itself.
    pub request: Request,
}

impl Envelope {
    /// Encodes the envelope payload (unframed):
    /// `[client u64][request_id u64][request]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u64(self.client);
        e.u64(self.request_id);
        e.raw(&self.request.encode());
        e.into_bytes()
    }

    /// Decodes an envelope payload (unframed). Rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Envelope, ProtoError> {
        let mut d = Dec::new(payload);
        let client = d.u64()?;
        let request_id = d.u64()?;
        let request = Request::decode(d.raw(payload.len().saturating_sub(16))?)?;
        Ok(Envelope {
            client,
            request_id,
            request,
        })
    }
}

/// A transport-level response envelope: the [`Response`] plus the
/// `request_id` it answers, so a client can discard stale replies after a
/// reconnect.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The `request_id` of the envelope this answers (0 when the envelope
    /// itself was undecodable).
    pub request_id: u64,
    /// The daemon's response.
    pub response: Response,
}

impl Reply {
    /// Encodes the reply payload (unframed): `[request_id u64][response]`.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.u64(self.request_id);
        e.raw(&self.response.encode());
        e.into_bytes()
    }

    /// Decodes a reply payload (unframed). Rejects trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Reply, ProtoError> {
        let mut d = Dec::new(payload);
        let request_id = d.u64()?;
        let response = Response::decode(d.raw(payload.len().saturating_sub(8))?)?;
        Ok(Reply {
            request_id,
            response,
        })
    }
}

/// Upper bound on a single frame's payload. A header declaring more is
/// treated as corruption: a garbage (or hostile) length must not make the
/// receiver buffer gigabytes waiting for a frame that never completes.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Streaming frame reassembler: owns the carry-over buffer between reads
/// so a frame split across two (or twenty) socket reads is reassembled
/// instead of being reported as torn.
///
/// Feed raw bytes as they arrive with [`feed`](FrameAssembler::feed), then
/// drain complete payloads with [`next_frame`](FrameAssembler::next_frame).
/// `Ok(None)` means "need more bytes"; `Err` means the stream is
/// unrecoverable (checksum mismatch or impossible length) and the
/// connection should be dropped.
#[derive(Clone, Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameAssembler {
    /// A fresh assembler with an empty carry-over buffer.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Appends newly received bytes to the carry-over buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily: only when the consumed prefix dominates the
        // buffer, so steady-state feeds stay O(new bytes).
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame payload, if one is fully buffered.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ProtoError> {
        match decode_frame(&self.buf, self.pos) {
            FrameScan::Intact { payload, end } if payload.len() <= MAX_FRAME_BYTES => {
                let out = payload.to_vec();
                self.pos = end;
                Ok(Some(out))
            }
            FrameScan::Incomplete { len } if len.is_none_or(|n| n <= MAX_FRAME_BYTES) => Ok(None),
            // An oversized header is refused before its payload is buffered.
            _ => Err(ProtoError::Corrupt),
        }
    }
}

/// Wraps a message payload in the wire framing
/// (`[len: u32 LE][crc32: u32 LE][payload]`) — the WAL's frame writer.
// analyze:sink(proto-encode) -- framed bytes cross the socket; both ends must agree
pub fn frame(payload: &[u8]) -> Vec<u8> {
    goldilocks_cluster::frame(payload)
}

/// The server side of one connection, and the one frame→reply loop: the
/// TCP server, the sim fabric and
/// [`PlacementDaemon::handle_frames`](crate::PlacementDaemon::handle_frames)
/// all turn stream bytes into replies here.
///
/// [`feed`](Session::feed) reassembles frames across any chunking, hands
/// each decoded [`Envelope`] to the caller's `submit`, and appends the
/// framed [`Reply`] to the outbound buffer; an envelope that does not
/// decode is answered `Malformed` without reaching `submit`. The transport
/// drains [`outbound`](Session::outbound) as its peer takes bytes.
#[derive(Clone, Debug, Default)]
pub struct Session {
    asm: FrameAssembler,
    out: Vec<u8>,
}

impl Session {
    /// A session with nothing buffered in either direction.
    pub fn new() -> Self {
        Session::default()
    }

    /// Feeds stream bytes and answers every frame they complete, returning
    /// how many were answered. On a corrupt stream (bad checksum or
    /// impossible length) every frame before the bad one is answered, the
    /// reassembly buffer is reset, and `Err(ProtoError::Corrupt)` tells the
    /// caller to flush the replies and drop the connection.
    pub fn feed(
        &mut self,
        bytes: &[u8],
        mut submit: impl FnMut(Envelope) -> Response,
    ) -> Result<usize, ProtoError> {
        self.asm.feed(bytes);
        let mut answered = 0;
        loop {
            let payload = match self.asm.next_frame() {
                Ok(Some(payload)) => payload,
                Ok(None) => return Ok(answered),
                Err(e) => {
                    self.asm = FrameAssembler::new();
                    return Err(e);
                }
            };
            let reply = match Envelope::decode(&payload) {
                Ok(env) => Reply {
                    request_id: env.request_id,
                    response: submit(env),
                },
                Err(_) => Reply {
                    request_id: 0,
                    response: Response::Malformed { tag: 0 },
                },
            };
            frame_into(&mut self.out, &reply.encode());
            answered += 1;
        }
    }

    /// Framed replies not yet written to the peer.
    pub fn outbound(&mut self) -> &mut Vec<u8> {
        &mut self.out
    }
}

/// Scans a byte stream into intact frame payloads, tolerating a torn final
/// frame (returned as `torn = true`). Corrupt (checksum-failed) frames
/// terminate the scan like a torn tail — on a stream transport the
/// connection would be dropped at that point.
pub fn deframe(bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while let FrameScan::Intact { payload, end } = decode_frame(bytes, pos) {
        frames.push(payload.to_vec());
        pos = end;
    }
    (frames, pos < bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Admit {
                priority: 7,
                demand: Resources::new(50.0, 2.0, 100.0),
                deadline_ticks: 4_000,
                tag: 11,
            },
            Request::Resize {
                priority: 3,
                target_seq: 42,
                demand: Resources::new(80.0, 4.0, 200.0),
                deadline_ticks: 0,
                tag: 12,
            },
            Request::Remove {
                priority: 9,
                target_seq: 42,
                deadline_ticks: 1,
                tag: 13,
            },
            Request::Query {
                target_seq: 42,
                tag: 14,
            },
        ]
    }

    #[test]
    fn request_round_trip() {
        for req in sample_requests() {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc), Ok(req));
        }
    }

    #[test]
    fn response_round_trip() {
        let responses = vec![
            Response::Accepted { seq: 1, tag: 2 },
            Response::Rejected {
                reason: RejectReason::Throttled,
                retry_after_ticks: 250,
                tag: 3,
            },
            Response::Shed { seq: 4, tag: 5 },
            Response::Expired { seq: 6, tag: 7 },
            Response::Placed {
                seq: 8,
                server: 9,
                tag: 10,
            },
            Response::Resized { seq: 11, tag: 12 },
            Response::Removed { seq: 13, tag: 14 },
            Response::NotFound { seq: 15, tag: 16 },
            Response::Queued { seq: 17, tag: 18 },
            Response::Malformed { tag: 19 },
        ];
        for resp in responses {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc), Ok(resp));
        }
    }

    #[test]
    fn deframe_tolerates_torn_tail() {
        let mut stream = Vec::new();
        for req in sample_requests() {
            stream.extend_from_slice(&frame(&req.encode()));
        }
        let (frames, torn) = deframe(&stream);
        assert!(!torn);
        assert_eq!(frames.len(), 4);
        // Every proper prefix that cuts a frame is torn but keeps the
        // intact prefix.
        let (frames, torn) = deframe(&stream[..stream.len() - 3]);
        assert!(torn);
        assert_eq!(frames.len(), 3);
    }

    #[test]
    fn deframe_detects_corruption() {
        let mut stream = frame(&sample_requests().swap_remove(0).encode());
        let n = stream.len();
        if let Some(b) = stream.get_mut(n - 1) {
            *b ^= 0x10;
        }
        let (frames, torn) = deframe(&stream);
        assert!(torn);
        assert!(frames.is_empty());
    }

    #[test]
    fn envelope_and_reply_round_trip() {
        for (i, req) in sample_requests().into_iter().enumerate() {
            let env = Envelope {
                client: 7,
                request_id: 100 + i as u64,
                request: req,
            };
            assert_eq!(Envelope::decode(&env.encode()), Ok(env));
        }
        let reply = Reply {
            request_id: 42,
            response: Response::Accepted { seq: 9, tag: 42 },
        };
        assert_eq!(Reply::decode(&reply.encode()), Ok(reply));
        assert_eq!(Envelope::decode(&[1, 2, 3]), Err(ProtoError::Truncated));
        assert_eq!(Reply::decode(&[1]), Err(ProtoError::Truncated));
    }

    #[test]
    fn assembler_reassembles_across_arbitrary_splits() {
        let mut stream = Vec::new();
        let mut payloads = Vec::new();
        for (i, req) in sample_requests().into_iter().enumerate() {
            let env = Envelope {
                client: 1,
                request_id: i as u64,
                request: req,
            };
            let p = env.encode();
            stream.extend_from_slice(&frame(&p));
            payloads.push(p);
        }
        // Byte-at-a-time worst case.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &stream {
            asm.feed(std::slice::from_ref(b));
            while let Ok(Some(p)) = asm.next_frame() {
                got.push(p);
            }
        }
        assert_eq!(got, payloads);
        // Whole stream at once.
        let mut asm = FrameAssembler::new();
        asm.feed(&stream);
        let mut got = Vec::new();
        while let Ok(Some(p)) = asm.next_frame() {
            got.push(p);
        }
        assert_eq!(got, payloads);
    }

    #[test]
    fn assembler_flags_corruption_and_oversized_frames() {
        let mut stream = frame(&[1, 2, 3, 4]);
        let n = stream.len();
        if let Some(b) = stream.get_mut(n - 1) {
            *b ^= 0x40;
        }
        let mut asm = FrameAssembler::new();
        asm.feed(&stream);
        assert_eq!(asm.next_frame(), Err(ProtoError::Corrupt));

        let mut asm = FrameAssembler::new();
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(u32::MAX).to_le_bytes());
        hostile.extend_from_slice(&0u32.to_le_bytes());
        asm.feed(&hostile);
        assert_eq!(asm.next_frame(), Err(ProtoError::Corrupt));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut enc = Request::Query {
            target_seq: 1,
            tag: 2,
        }
        .encode();
        enc.push(0);
        assert_eq!(Request::decode(&enc), Err(ProtoError::Truncated));
    }
}
