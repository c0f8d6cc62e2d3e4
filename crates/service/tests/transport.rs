//! Transport-layer integration tests: real loopback sockets end to end,
//! idempotent retry across reconnects, the crash-between-ack-and-reply
//! drill, kill-safe drain, the slowloris idle deadline, the compacted
//! served journal's crash drill, the deterministic sim fabric driving
//! the same client, and one byte stream answered alike in process, over
//! the fabric and over a socket.

use goldilocks_core::ServiceConfig;
use goldilocks_rng::SplitMix64;
use goldilocks_service::{
    ClientConfig, Envelope, PlacementDaemon, QueryStatus, Request, Response, ServerConfig,
    ServiceClient, SimFaultConfig, SimNet, TcpServer, TcpTransport,
};
use goldilocks_topology::{builders::single_rack, DcTree, Resources};

fn rack() -> DcTree {
    single_rack(4, Resources::new(100.0, 16.0, 1000.0), 1000.0)
}

fn svc_cfg() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 64,
        outbox_capacity: 256,
        batch_max: 64,
        epoch_ticks: 1_000,
        bucket_capacity: 256,
        tokens_per_epoch: 128,
        default_deadline_ticks: 100_000,
        snapshot_every: 8,
        ..ServiceConfig::default()
    }
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        poll_ms: 2,
        idle_timeout_ms: 2_000,
        drain_wait_ms: 2_000,
        epoch_interval_ms: 0, // commits are driven by hand for determinism
        ..ServerConfig::default()
    }
}

fn client_cfg(id: u64) -> ClientConfig {
    ClientConfig {
        client_id: id,
        request_timeout_ms: 2_000,
        backoff_base_ms: 2,
        backoff_cap_ms: 50,
        ..ClientConfig::default()
    }
}

fn demand() -> Resources {
    Resources::new(10.0, 1.0, 10.0)
}

#[test]
fn loopback_round_trip_places_a_container() {
    let daemon = PlacementDaemon::new(svc_cfg(), rack());
    let handle = TcpServer::start(daemon, server_cfg(), "127.0.0.1:0").expect("bind");
    let transport = TcpTransport::new(handle.addr()).with_poll_ms(2);
    let mut client = ServiceClient::new(transport, client_cfg(7));

    let seq = client.admit(5, demand(), 0).expect("admit");
    assert_eq!(client.query(seq).expect("query"), QueryStatus::Queued);

    assert!(handle.commit_next_epoch());
    match client.query(seq).expect("query") {
        QueryStatus::Placed { .. } => {}
        other => panic!("expected Placed, got {other:?}"),
    }

    let daemon = handle.drain().expect("drain hands the daemon back");
    assert_eq!(daemon.live(), 1);
}

#[test]
fn frames_split_across_many_writes_still_round_trip() {
    // Satellite 1 over a real socket: a frame dribbled one byte at a time
    // (worst-case split reads server-side) must decode identically.
    use std::io::{Read, Write};
    let daemon = PlacementDaemon::new(svc_cfg(), rack());
    let handle = TcpServer::start(daemon, server_cfg(), "127.0.0.1:0").expect("bind");
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");

    let wire = goldilocks_service::frame(
        &Envelope {
            client: 3,
            request_id: 1,
            request: Request::Admit {
                priority: 5,
                demand: demand(),
                deadline_ticks: 0,
                tag: 1,
            },
        }
        .encode(),
    );
    for b in &wire {
        raw.write_all(std::slice::from_ref(b)).expect("write");
        raw.flush().expect("flush");
    }
    let mut asm = goldilocks_service::FrameAssembler::new();
    let mut buf = [0u8; 1024];
    let reply = loop {
        if let Some(p) = asm.next_frame().expect("frame") {
            break goldilocks_service::Reply::decode(&p).expect("reply");
        }
        let n = raw.read(&mut buf).expect("read");
        assert!(n > 0, "server closed before replying");
        asm.feed(&buf[..n]);
    };
    assert_eq!(reply.request_id, 1);
    assert!(matches!(reply.response, Response::Accepted { seq: 0, .. }));
    drop(raw);
    let _ = handle.drain();
}

#[test]
fn retry_after_reconnect_replays_the_original_accept() {
    // A client restart (same client_id, same request-id counter) resending
    // a call whose reply was lost must get the original seq back and the
    // daemon must not double-place.
    let daemon = PlacementDaemon::new(svc_cfg(), rack());
    let handle = TcpServer::start(daemon, server_cfg(), "127.0.0.1:0").expect("bind");

    let mut first = ServiceClient::new(
        TcpTransport::new(handle.addr()).with_poll_ms(2),
        client_cfg(9),
    );
    let seq = first.admit(5, demand(), 0).expect("admit");
    drop(first); // connection dies; pretend the reply never arrived

    let mut retry = ServiceClient::new(
        TcpTransport::new(handle.addr()).with_poll_ms(2),
        client_cfg(9), // same identity, same first_request_id
    );
    let seq2 = retry.admit(5, demand(), 0).expect("retry admit");
    assert_eq!(seq, seq2);
    assert_eq!(handle.with_daemon(|d| d.seqs_issued()), 1);

    assert!(handle.commit_next_epoch());
    let daemon = handle.drain().expect("drain");
    assert_eq!(daemon.live(), 1);
}

#[test]
fn crash_between_ack_and_reply_never_double_places() {
    // The ack is journaled before the reply is written. Kill the daemon in
    // that window, recover from the journal, and retry the same envelope:
    // the dedup window (rebuilt from the WAL) replays the original seq.
    let mut d = PlacementDaemon::new(svc_cfg(), rack());
    let env = Envelope {
        client: 4,
        request_id: 11,
        request: Request::Admit {
            priority: 5,
            demand: demand(),
            deadline_ticks: 0,
            tag: 11,
        },
    };
    let resp = d.submit_envelope(1, env.clone());
    assert!(matches!(resp, Response::Accepted { seq: 0, .. }));

    // kill -9: everything volatile is gone; only the journal survives.
    let wal = d.wal_bytes().to_vec();
    drop(d);
    let (mut d, _report) = PlacementDaemon::recover(svc_cfg(), rack(), &wal).expect("recover");

    let resp = d.submit_envelope(1, env);
    assert!(
        matches!(resp, Response::Accepted { seq: 0, .. }),
        "retry must replay the original accept, got {resp:?}"
    );
    assert_eq!(d.seqs_issued(), 1);
    let rec = d.commit_epoch(0).expect("commit");
    assert_eq!(rec.placed, 1);
    assert_eq!(d.live(), 1);
}

#[test]
fn drain_stops_accepting_and_hands_back_state() {
    let daemon = PlacementDaemon::new(svc_cfg(), rack());
    let handle = TcpServer::start(daemon, server_cfg(), "127.0.0.1:0").expect("bind");
    let addr = handle.addr();
    let mut client = ServiceClient::new(TcpTransport::new(addr).with_poll_ms(2), client_cfg(2));
    let seq = client.admit(5, demand(), 0).expect("admit");
    drop(client);

    let daemon = handle.drain().expect("drain hands the daemon back");
    assert_eq!(daemon.seqs_issued(), 1);
    assert!(!daemon.wal_bytes().is_empty(), "accept is journaled");
    let _ = seq;

    // The listener is gone: a fresh client cannot get anything through.
    let mut late = ServiceClient::new(
        TcpTransport::new(addr)
            .with_poll_ms(2)
            .with_connect_timeout_ms(100),
        ClientConfig {
            max_attempts: 2,
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
            ..client_cfg(3)
        },
    );
    assert!(late.admit(5, demand(), 0).is_err());
}

#[test]
fn slowloris_partial_frame_is_cut_by_the_idle_deadline() {
    use std::io::{Read, Write};
    let daemon = PlacementDaemon::new(svc_cfg(), rack());
    let cfg = ServerConfig {
        poll_ms: 2,
        idle_timeout_ms: 40,
        ..server_cfg()
    };
    let handle = TcpServer::start(daemon, cfg, "127.0.0.1:0").expect("bind");
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");

    // Half a frame header, then silence.
    raw.write_all(&[0xAA, 0xBB, 0xCC]).expect("write");
    raw.flush().expect("flush");

    // The server must cut us, not wait forever: the next read sees EOF.
    let mut buf = [0u8; 16];
    let start_deadline = std::time::Duration::from_secs(10);
    raw.set_read_timeout(Some(start_deadline)).expect("timeout");
    let n = raw.read(&mut buf).expect("read");
    assert_eq!(n, 0, "expected EOF after the idle deadline");
    assert_eq!(handle.stats().idle_disconnects, 1);
    let _ = handle.drain();
}

#[test]
fn sim_fabric_runs_the_same_client_deterministically() {
    let run = |seed: u64| {
        let net = SimNet::new(
            svc_cfg(),
            rack(),
            ServerConfig::default(),
            SimFaultConfig::quiet(seed),
        );
        let mut client = ServiceClient::new(net.transport(), client_cfg(1));
        let a = client.admit(5, demand(), 0).expect("admit");
        let b = client.admit(4, demand(), 0).expect("admit");
        net.advance(100); // crosses the 50 ms epoch interval: commits
        let qa = client.query(a).expect("query");
        let qb = client.query(b).expect("query");
        (
            a,
            b,
            qa,
            qb,
            net.stats(),
            net.with_daemon(|d| d.wal_bytes().to_vec()),
        )
    };
    let (a, b, qa, qb, stats, wal) = run(42);
    assert_eq!((a, b), (0, 1));
    assert!(matches!(qa, QueryStatus::Placed { .. }));
    assert!(matches!(qb, QueryStatus::Placed { .. }));
    assert!(stats.server.epochs_committed >= 1);

    // Same seed → byte-identical journal and identical stats.
    let (a2, b2, qa2, qb2, stats2, wal2) = run(42);
    assert_eq!((a, b, qa, qb), (a2, b2, qa2, qb2));
    assert_eq!(stats, stats2);
    assert_eq!(wal, wal2);
}

#[test]
fn sim_crash_restart_preserves_the_dedup_window() {
    let net = SimNet::new(
        svc_cfg(),
        rack(),
        ServerConfig::default(),
        SimFaultConfig::quiet(7),
    );
    let mut client = ServiceClient::new(net.transport(), client_cfg(6));
    let seq = client.admit(5, demand(), 0).expect("admit");

    // kill -9 with the full journal intact (in-memory WAL *is* the
    // durable medium): connections die, state recovers.
    net.crash_restart().expect("recover");

    // The client's next attempt hits a dead connection, reconnects, and
    // a replayed duplicate of the same call returns the original seq.
    let mut replay = ServiceClient::new(net.transport(), client_cfg(6));
    let seq2 = replay.admit(5, demand(), 0).expect("replay");
    assert_eq!(seq, seq2);
    assert_eq!(net.with_daemon(|d| d.seqs_issued()), 1);
}

/// The compaction drills' request stream: one framed call at a time over a
/// raw link, so the served daemon and an in-process reference see the
/// same envelopes at the same ticks.
struct Drill {
    /// Sends one envelope to the served daemon and returns its answer.
    link: Box<dyn FnMut(&Envelope) -> Response>,
    reference: PlacementDaemon,
    next_id: u64,
    admitted: Vec<u64>,
    sent: Vec<Envelope>,
}

/// Reads one reply to request `request_id` through `asm`, refilling it
/// from `read`.
fn read_reply(
    asm: &mut goldilocks_service::FrameAssembler,
    request_id: u64,
    mut read: impl FnMut(&mut [u8]) -> usize,
) -> Response {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(p) = asm.next_frame().expect("frame") {
            let reply = goldilocks_service::Reply::decode(&p).expect("reply");
            assert_eq!(reply.request_id, request_id);
            return reply.response;
        }
        let n = read(&mut buf);
        assert!(n > 0, "server closed before replying");
        asm.feed(&buf[..n]);
    }
}

/// A drill link over a raw socket to `addr`.
fn tcp_link(addr: std::net::SocketAddr) -> Box<dyn FnMut(&Envelope) -> Response> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    let mut asm = goldilocks_service::FrameAssembler::new();
    Box::new(move |env| {
        stream
            .write_all(&goldilocks_service::frame(&env.encode()))
            .expect("write");
        read_reply(&mut asm, env.request_id, |buf| {
            stream.read(buf).expect("read")
        })
    })
}

/// A drill link over one fault-free fabric connection.
fn sim_link(net: &SimNet) -> Box<dyn FnMut(&Envelope) -> Response> {
    use goldilocks_service::{Conn, Transport};
    let mut conn = net.transport().connect().expect("connect");
    let mut asm = goldilocks_service::FrameAssembler::new();
    Box::new(move |env| {
        let wire = goldilocks_service::frame(&env.encode());
        assert_eq!(conn.write(&wire), Ok(wire.len()));
        read_reply(&mut asm, env.request_id, |buf| {
            conn.read(buf).expect("read")
        })
    })
}

impl Drill {
    /// Sends `request` to the server and to the reference at tick `now`;
    /// both must answer alike.
    fn new(cfg: &ServiceConfig, link: Box<dyn FnMut(&Envelope) -> Response>) -> Self {
        Drill {
            link,
            reference: PlacementDaemon::new(cfg.clone(), rack()),
            next_id: 0,
            admitted: Vec::new(),
            sent: Vec::new(),
        }
    }

    fn call(&mut self, now: u64, request: Request) -> Response {
        self.next_id += 1;
        let env = Envelope {
            client: 30 + self.next_id % 2,
            request_id: self.next_id,
            request,
        };
        let resp = (self.link)(&env);
        assert_eq!(resp, self.reference.submit_envelope(now, env.clone()));
        self.sent.push(env);
        resp
    }

    /// Epoch `epoch`'s mutations: three admits, a resize from epoch 1 on
    /// and a remove on even epochs from 2 on.
    fn mutate(&mut self, epoch: u64, ticks: u64) {
        let now = epoch * ticks + 1;
        let small = |cpu: f64| Resources::new(cpu, 0.25, 2.0);
        for i in 0..3 {
            let admit = Request::Admit {
                priority: 5,
                demand: small(1.0 + i as f64),
                deadline_ticks: 0,
                tag: epoch,
            };
            match self.call(now, admit) {
                Response::Accepted { seq, .. } => self.admitted.push(seq),
                other => panic!("admit refused: {other:?}"),
            }
        }
        if epoch >= 1 {
            let target_seq = self.admitted[(epoch as usize * 7) % self.admitted.len()];
            let resize = Request::Resize {
                priority: 5,
                target_seq,
                demand: small(1.0 + (epoch % 3) as f64),
                deadline_ticks: 0,
                tag: epoch,
            };
            assert!(matches!(self.call(now, resize), Response::Accepted { .. }));
        }
        if epoch >= 2 && epoch.is_multiple_of(2) {
            let i = (epoch as usize * 5) % self.admitted.len();
            let target_seq = self.admitted.remove(i);
            let remove = Request::Remove {
                priority: 5,
                target_seq,
                deadline_ticks: 0,
                tag: epoch,
            };
            assert!(matches!(self.call(now, remove), Response::Accepted { .. }));
        }
    }
}

#[test]
fn compacted_served_journal_recovers_like_the_whole_log() {
    use goldilocks_cluster::{Wal, WalEvent};
    const SNAPSHOT_EVERY: u64 = 4;
    const EPOCHS: u64 = 3 * SNAPSHOT_EVERY + 2;
    let cfg = ServiceConfig {
        snapshot_every: SNAPSHOT_EVERY,
        ..svc_cfg()
    };
    let ticks = cfg.epoch_ticks;
    let handle = TcpServer::start(
        PlacementDaemon::new(cfg.clone(), rack()),
        server_cfg(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut drill = Drill::new(&cfg, tcp_link(handle.addr()));

    // The uncompacted reference's assignment after each epoch.
    let mut assignment_at = Vec::new();
    for epoch in 0..EPOCHS {
        drill.mutate(epoch, ticks);
        assert!(handle.commit_next_epoch());
        drill
            .reference
            .commit_epoch(epoch)
            .expect("reference commit");
        assignment_at.push(drill.reference.assignment());
        assert_eq!(
            handle.with_daemon(|d| d.assignment()),
            drill.reference.assignment()
        );
    }

    // A retry of the first call, acked three compactions ago, replays its
    // original seq without journaling anything.
    let first = drill.sent[0].clone();
    let issued = handle.with_daemon(|d| d.seqs_issued());
    assert!(matches!(
        (drill.link)(&first),
        Response::Accepted { seq: 0, .. }
    ));
    assert_eq!(handle.with_daemon(|d| d.seqs_issued()), issued);

    let Drill {
        link,
        mut reference,
        ..
    } = drill;
    drop(link);
    let mut served = handle.drain().expect("drain hands the daemon back");
    let wal = served.wal_bytes().to_vec();

    // The served journal is the latest pair plus its suffix: it starts
    // with the cluster snapshot of epoch 11's pair and is smaller than
    // the whole log of the same requests.
    let events = Wal::decode(&wal).events;
    match &events[0] {
        WalEvent::Snapshot(state) => {
            assert_eq!(state.committed_epoch, Some(3 * SNAPSHOT_EVERY - 1))
        }
        other => panic!("compacted journal starts with {other:?}"),
    }
    assert!(matches!(events[1], WalEvent::Service(_)));
    assert!(
        wal.len() < reference.wal_bytes().len(),
        "compacted {} B vs whole log {} B",
        wal.len(),
        reference.wal_bytes().len()
    );

    // kill -9 at every record boundary past the leading pair and at
    // seeded torn offsets: each recovery is a byte-exact prefix of the
    // served journal and holds the reference's assignment at its epoch.
    let ends = Wal::record_ends(&wal);
    assert_eq!(*ends.last().expect("records"), wal.len());
    let pair_end = ends[1];
    let mut rng = SplitMix64::seed_from_u64(0x5EED_C0DE);
    let torn = (0..40).map(|_| pair_end + 1 + rng.range(0..wal.len() - pair_end - 1));
    let cuts: Vec<usize> = ends[1..].iter().copied().chain(torn).collect();
    for &cut in &cuts {
        let (d, _) = PlacementDaemon::recover(cfg.clone(), rack(), &wal[..cut])
            .unwrap_or_else(|e| panic!("recovery at {cut}: {e}"));
        assert!(wal.starts_with(d.wal_bytes()), "cut {cut} diverged");
        let epoch = d.last_committed().expect("the pair commits an epoch");
        assert_eq!(
            d.assignment(),
            assignment_at[epoch as usize],
            "cut {cut} at epoch {epoch}"
        );
    }
    // A cut inside the leading pair is not a state compaction leaves
    // behind; recovery refuses it rather than lose the ledger.
    assert!(PlacementDaemon::recover(cfg.clone(), rack(), &wal[..ends[0]]).is_err());

    // After restart, a retry of that first call still gets its seq back.
    let (mut back, _) = PlacementDaemon::recover(cfg.clone(), rack(), &wal).expect("recover");
    assert_eq!(back.assignment(), served.assignment());
    assert!(matches!(
        back.submit_envelope(EPOCHS * ticks + 1, first),
        Response::Accepted { seq: 0, .. }
    ));

    // A crash between the two records of the next pair: run the served
    // daemon in process up to epoch 15's pair and cut after its cluster
    // snapshot. Recovery re-appends the service half.
    let next_pair = 4 * SNAPSHOT_EVERY - 1;
    for epoch in EPOCHS..=next_pair {
        let now = epoch * ticks + 1;
        let env = Envelope {
            client: 40,
            request_id: epoch,
            request: Request::Admit {
                priority: 5,
                demand: Resources::new(1.0, 0.25, 2.0),
                deadline_ticks: 0,
                tag: epoch,
            },
        };
        let resp = served.submit_envelope(now, env.clone());
        assert!(matches!(resp, Response::Accepted { .. }));
        assert_eq!(resp, reference.submit_envelope(now, env));
        served.commit_epoch(epoch).expect("commit");
        reference.commit_epoch(epoch).expect("reference commit");
    }
    let live = served.wal_bytes().to_vec();
    let ends = Wal::record_ends(&live);
    let between = ends[ends.len() - 2];
    let (d, _) = PlacementDaemon::recover(cfg.clone(), rack(), &live[..between])
        .expect("recover between the snapshot records");
    assert_eq!(d.wal_bytes(), &live[..]);
    assert_eq!(d.assignment(), reference.assignment());

    // Compacting onto that pair keeps the same daemon.
    assert!(served.compact_journal() > 0);
    let (d, _) = PlacementDaemon::recover(cfg, rack(), served.wal_bytes()).expect("recover");
    assert_eq!(d.assignment(), reference.assignment());
    assert_eq!(d.seqs_issued(), reference.seqs_issued());
}

#[test]
fn sim_crash_restart_recovers_from_the_compacted_journal() {
    use goldilocks_cluster::{Wal, WalEvent};
    const SNAPSHOT_EVERY: u64 = 4;
    const EPOCHS: u64 = 2 * SNAPSHOT_EVERY + 2;
    let cfg = ServiceConfig {
        snapshot_every: SNAPSHOT_EVERY,
        ..svc_cfg()
    };
    let ticks = cfg.epoch_ticks;
    let server = ServerConfig::default();
    let interval = server.epoch_interval_ms;
    let net = SimNet::new(cfg.clone(), rack(), server, SimFaultConfig::quiet(9));
    let mut drill = Drill::new(&cfg, sim_link(&net));

    // Each epoch's calls land before virtual time crosses its end, where
    // the fabric's pump commits it.
    for epoch in 0..EPOCHS {
        drill.mutate(epoch, ticks);
        net.advance((epoch + 1) * interval - net.now_ms());
        drill
            .reference
            .commit_epoch(epoch)
            .expect("reference commit");
    }
    assert_eq!(net.stats().server.epochs_committed, EPOCHS);

    // The fabric compacts as the TCP server does: its journal starts with
    // epoch 7's snapshot pair and is smaller than the whole log.
    let wal = net.with_daemon(|d| d.wal_bytes().to_vec());
    match &Wal::decode(&wal).events[0] {
        WalEvent::Snapshot(state) => {
            assert_eq!(state.committed_epoch, Some(2 * SNAPSHOT_EVERY - 1))
        }
        other => panic!("compacted journal starts with {other:?}"),
    }
    assert!(wal.len() < drill.reference.wal_bytes().len());

    // kill -9 from the compacted journal: the placement and the issued
    // seqs are the whole-log daemon's, and a retry of the first call,
    // acked two compactions ago, replays its seq on a new connection.
    net.crash_restart().expect("recover");
    assert_eq!(
        net.with_daemon(|d| d.assignment()),
        drill.reference.assignment()
    );
    let issued = drill.reference.seqs_issued();
    assert_eq!(net.with_daemon(|d| d.seqs_issued()), issued);
    drill.link = sim_link(&net);
    let first = drill.sent[0].clone();
    let now = EPOCHS * ticks + 1;
    let replayed = (drill.link)(&first);
    assert!(matches!(replayed, Response::Accepted { seq: 0, .. }));
    assert_eq!(replayed, drill.reference.submit_envelope(now, first));
    assert_eq!(net.with_daemon(|d| d.seqs_issued()), issued);
}

/// The cross-transport stream, one entry per client write: two admits in
/// one write, a third admit split across two writes, an undecodable
/// envelope (answered `Malformed`), then a fourth admit followed by a frame
/// whose checksum is broken, in one write.
fn equivalence_writes() -> Vec<Vec<u8>> {
    let admit = |request_id: u64| {
        goldilocks_service::frame(
            &Envelope {
                client: 5,
                request_id,
                request: Request::Admit {
                    priority: 5,
                    demand: demand(),
                    deadline_ticks: 0,
                    tag: request_id,
                },
            }
            .encode(),
        )
    };
    let split = admit(3);
    let mut broken = admit(5);
    broken[4] ^= 0xFF;
    vec![
        [admit(1), admit(2)].concat(),
        split[..7].to_vec(),
        split[7..].to_vec(),
        goldilocks_service::frame(&[1, 2, 3]),
        [admit(4), broken].concat(),
    ]
}

/// Reads what `conn` delivers until it reports anything but data.
fn drain_sim_conn(conn: &mut goldilocks_service::SimConn, out: &mut Vec<u8>) {
    use goldilocks_service::Conn;
    let mut buf = [0u8; 256];
    while let Ok(n @ 1..) = conn.read(&mut buf) {
        out.extend_from_slice(&buf[..n]);
    }
}

#[test]
fn every_transport_answers_one_stream_alike() {
    use goldilocks_service::{Conn, Transport, TransportError};
    use std::io::{Read, Write};
    let writes = equivalence_writes();
    let last = writes.len() - 1;

    // In process, through `handle_frames`.
    let mut d = PlacementDaemon::new(svc_cfg(), rack());
    let mut in_process = Vec::new();
    for (i, w) in writes.iter().enumerate() {
        let (out, corrupt) = d.handle_frames(1, w);
        in_process.extend_from_slice(&out);
        assert_eq!(corrupt, i == last, "write {i}");
    }
    let replies = goldilocks_service::deframe(&in_process).0;
    assert_eq!(replies.len(), 5, "four admits and one Malformed answered");
    assert!(replies.iter().any(|p| matches!(
        goldilocks_service::Reply::decode(p).map(|r| r.response),
        Ok(Response::Malformed { tag: 0 })
    )));

    // Over the deterministic fabric.
    let net = SimNet::new(svc_cfg(), rack(), server_cfg(), SimFaultConfig::quiet(1));
    let mut conn = net.transport().connect().expect("connect");
    let mut sim = Vec::new();
    for (i, w) in writes.iter().enumerate() {
        let wrote = conn.write(w);
        if i == last {
            assert_eq!(wrote, Err(TransportError::Corrupt));
        } else {
            assert_eq!(wrote, Ok(w.len()), "write {i}");
        }
        drain_sim_conn(&mut conn, &mut sim);
    }
    assert_eq!(
        (
            goldilocks_service::deframe(&sim).0.len(),
            net.with_daemon(|d| d.seqs_issued())
        ),
        (replies.len(), d.seqs_issued()),
        "(replies, accepts) over the fabric"
    );
    assert_eq!(sim, in_process, "the fabric's reply bytes differ");
    assert_eq!(net.stats().server.corrupt_disconnects, 1);

    // Over a real socket.
    let handle = TcpServer::start(
        PlacementDaemon::new(svc_cfg(), rack()),
        server_cfg(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut raw = std::net::TcpStream::connect(handle.addr()).expect("connect");
    raw.set_nodelay(true).expect("nodelay");
    raw.set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    for w in &writes {
        raw.write_all(w).expect("write");
        raw.flush().expect("flush");
    }
    let mut tcp = Vec::new();
    raw.read_to_end(&mut tcp)
        .expect("the server closes after the corrupt frame");
    assert_eq!(
        (
            goldilocks_service::deframe(&tcp).0.len(),
            handle.with_daemon(|d| d.seqs_issued())
        ),
        (replies.len(), d.seqs_issued()),
        "(replies, accepts) over the socket"
    );
    assert_eq!(tcp, in_process, "the socket's reply bytes differ");
    assert_eq!(handle.stats().corrupt_disconnects, 1);
    let _ = handle.drain();
}

/// A short write that lets the next commit's batch record through and
/// tears a later record of the same commit, sized by committing a copy of
/// `d` recovered from its journal.
fn mid_commit_tear(d: &PlacementDaemon) -> goldilocks_cluster::WriteFault {
    use goldilocks_cluster::Wal;
    let (mut copy, _) =
        PlacementDaemon::recover(svc_cfg(), rack(), d.wal_bytes()).expect("recover");
    let from = copy.wal_bytes().len();
    copy.commit_epoch(d.last_committed().map_or(0, |e| e + 1))
        .expect("commit");
    let ends = Wal::record_ends(copy.wal_bytes());
    let starts = std::iter::once(0).chain(ends.iter().copied());
    // The commit's frame lengths, its batch record first.
    let frames: Vec<usize> = starts
        .zip(&ends)
        .filter(|&(start, _)| start >= from)
        .map(|(start, &end)| end - start)
        .collect();
    assert!(
        frames[1..].iter().any(|&f| f > frames[0]),
        "no record to tear"
    );
    goldilocks_cluster::WriteFault::ShortWrite(frames[0])
}

#[test]
fn a_failed_commit_stops_the_pump_on_both_fabrics() {
    // Over a socket, committed by hand.
    let handle = TcpServer::start(
        PlacementDaemon::new(svc_cfg(), rack()),
        server_cfg(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let mut client = ServiceClient::new(
        TcpTransport::new(handle.addr()).with_poll_ms(2),
        client_cfg(12),
    );
    client.admit(5, demand(), 0).expect("admit");
    assert!(handle.commit_next_epoch());
    for _ in 0..3 {
        client.admit(5, demand(), 0).expect("admit");
    }
    let tear = handle.with_daemon(|d| mid_commit_tear(d));
    handle.with_daemon(|d| d.set_wal_fault(Some(tear)));
    assert!(!handle.commit_next_epoch(), "the torn commit fails");
    let committed = handle.with_daemon(|d| d.last_committed());
    handle.with_daemon(|d| d.set_wal_fault(None));
    assert!(
        !handle.commit_next_epoch(),
        "a commit followed a failed one"
    );
    let stats = handle.stats();
    assert!(stats.pump_failed);
    assert_eq!(stats.epochs_committed, 1);
    assert_eq!(handle.with_daemon(|d| d.last_committed()), committed);
    drop(client);
    let _ = handle.drain();

    // Over the fabric, pumped by virtual time.
    let net = SimNet::new(
        svc_cfg(),
        rack(),
        ServerConfig::default(),
        SimFaultConfig::quiet(3),
    );
    let interval = ServerConfig::default().epoch_interval_ms;
    let mut client = ServiceClient::new(net.transport(), client_cfg(12));
    client.admit(5, demand(), 0).expect("admit");
    net.advance(interval);
    assert_eq!(net.stats().server.epochs_committed, 1);
    for _ in 0..3 {
        client.admit(5, demand(), 0).expect("admit");
    }
    let tear = net.with_daemon(|d| mid_commit_tear(d));
    net.with_daemon(|d| d.set_wal_fault(Some(tear)));
    net.advance(interval);
    assert!(net.stats().server.pump_failed, "the torn commit fails");
    let committed = net.with_daemon(|d| d.last_committed());
    net.with_daemon(|d| d.set_wal_fault(None));
    net.advance(4 * interval);
    let stats = net.stats().server;
    assert!(stats.pump_failed);
    assert_eq!(stats.epochs_committed, 1);
    assert_eq!(net.with_daemon(|d| d.last_committed()), committed);
}

#[test]
fn both_fabrics_count_one_connection_life_alike() {
    use goldilocks_service::{Conn, ServerStats, Transport, TransportError};
    use std::io::{Read, Write};
    // One connection at a time, a short idle deadline, no pump.
    let cfg = ServerConfig {
        max_connections: 1,
        idle_timeout_ms: 300,
        ..server_cfg()
    };
    let torn = [0xAA, 0xBB, 0xCC];
    // A frame header announcing more bytes than the trickle ever sends.
    let trickle_header = [0, 0, 8, 0, 0, 0, 0, 0];
    let mut corrupt = equivalence_writes()[0].clone();
    corrupt[4] ^= 0xFF;
    // A refusal at the cap; a quiet connection, a held torn frame and a
    // torn frame trickled a byte at a time, all cut by the idle deadline;
    // and a corrupt frame.
    let expect = ServerStats {
        conns_accepted: 4,
        conns_refused: 1,
        idle_disconnects: 3,
        corrupt_disconnects: 1,
        ..ServerStats::default()
    };

    // Over the fabric.
    let net = SimNet::new(svc_cfg(), rack(), cfg.clone(), SimFaultConfig::quiet(1));
    let mut t = net.transport();
    let mut buf = [0u8; 16];
    let mut quiet = t.connect().expect("accepted");
    assert!(matches!(t.connect(), Err(TransportError::Refused)));
    net.advance(cfg.idle_timeout_ms);
    assert_eq!(quiet.read(&mut buf), Err(TransportError::Disconnected));
    let mut held = t.connect().expect("accepted");
    assert_eq!(held.write(&torn), Ok(torn.len()));
    net.advance(cfg.idle_timeout_ms);
    assert_eq!(held.read(&mut buf), Err(TransportError::Disconnected));
    let mut trickle = t.connect().expect("accepted");
    assert_eq!(trickle.write(&trickle_header), Ok(trickle_header.len()));
    let sent = (0..2 * cfg.idle_timeout_ms)
        .take_while(|_| trickle.write(&[0]) == Ok(1))
        .count() as u64;
    assert!(
        sent < cfg.idle_timeout_ms,
        "the trickle outlived the deadline"
    );
    let mut bad = t.connect().expect("accepted");
    assert_eq!(bad.write(&corrupt), Err(TransportError::Corrupt));
    assert_eq!(net.stats().server, expect, "over the fabric");

    // Over a socket: each close is counted before the peer reads EOF.
    let handle = TcpServer::start(
        PlacementDaemon::new(svc_cfg(), rack()),
        cfg.clone(),
        "127.0.0.1:0",
    )
    .expect("bind");
    let connect = || {
        let s = std::net::TcpStream::connect(handle.addr()).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("timeout");
        s
    };
    let closed = |mut s: std::net::TcpStream| match s.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the server to close, got {other:?}"),
    };
    let quiet = connect();
    closed(connect());
    closed(quiet);
    let mut held = connect();
    held.write_all(&torn).expect("write");
    closed(held);
    // One byte a millisecond, faster than the 2 ms poll interval, until
    // the server cuts the connection.
    let mut trickle = connect();
    trickle.write_all(&trickle_header).expect("write");
    let sent = (0..10 * cfg.idle_timeout_ms)
        .take_while(|_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            trickle.write_all(&[0]).is_ok()
        })
        .count() as u64;
    assert!(sent < 10 * cfg.idle_timeout_ms, "the trickle was never cut");
    closed(trickle);
    let mut bad = connect();
    bad.write_all(&corrupt).expect("write");
    closed(bad);
    assert_eq!(handle.stats(), expect, "over the socket");
    let _ = handle.drain();
}
