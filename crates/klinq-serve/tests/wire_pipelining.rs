//! Reactor-transport behaviors the codec tests can't see: request
//! pipelining with out-of-order completion matched by id (bitwise-equal
//! to direct classification on both backends and both transports),
//! client read timeouts, the connection budget's accept backpressure,
//! idle-connection reaping, wire-level version skew, a
//! 256-connection pipelined load on one reactor thread, and the
//! liveness of the epoll transport's completion wake.

use klinq_core::testkit;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem};
use klinq_serve::{
    wire, Priority, RequestOptions, ServeConfig, ServeError, ShardedReadoutServer, Transport,
    WireClient, WireConfig, WireServer,
};
use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The shared smoke system (disk-cached across the workspace's test
/// binaries, see `klinq_core::testkit`).
fn system() -> Arc<KlinqSystem> {
    static SYS: OnceLock<Arc<KlinqSystem>> = OnceLock::new();
    Arc::clone(SYS.get_or_init(|| {
        Arc::new(testkit::cached_smoke_system(Path::new(env!(
            "CARGO_TARGET_TMPDIR"
        ))))
    }))
}

/// Both readiness mechanisms, so every scenario below exercises the
/// epoll loop *and* the portable poll-loop fallback in one run. `Auto`
/// additionally honours the `KLINQ_WIRE_TRANSPORT` override CI uses.
fn transports() -> Vec<Transport> {
    vec![Transport::PollLoop, Transport::Auto]
}

#[test]
fn a_server_that_accepts_but_never_replies_times_out_typed() {
    // The kernel completes the TCP handshake from the backlog, so a
    // listener that never calls accept() stands in for a wedged server:
    // the client's request vanishes into the void and only the read
    // timeout can get control back.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap();
    let mut client =
        WireClient::connect_timeout(&addr, 0, Duration::from_secs(5)).expect("handshake");
    client
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    let req_id = client
        .submit_to_opts(0, RequestOptions::new(), &[])
        .expect("request buffered by the kernel");
    assert_eq!(req_id, 1, "client request ids start at 1");
    let t0 = Instant::now();
    match client.recv_response() {
        Err(ServeError::Timeout) => {}
        other => panic!("expected ServeError::Timeout, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "timeout did not fire promptly: {:?}",
        t0.elapsed()
    );
    // The blocking wrapper surfaces the same typed error.
    let mut blocking =
        WireClient::connect_timeout(&addr, 0, Duration::from_secs(5)).expect("handshake");
    blocking
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set read timeout");
    let shot = system().test_data().shot(0).clone();
    match blocking
        .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
        .map(|s| s[0])
    {
        Err(ServeError::Timeout) => {}
        other => panic!("expected ServeError::Timeout, got {other:?}"),
    }
}

#[test]
fn pipelined_requests_complete_out_of_order_and_match_direct() {
    // One connection, many frames in flight, responses matched by id:
    // throughput requests parked on device 0's lingering batch must NOT
    // block latency requests to device 1 from answering first, and every
    // response must be bitwise-identical to direct classification.
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    let park: [Range<usize>; 3] = [0..5, 5..9, 9..16];
    let overtake: [Range<usize>; 3] = [16..20, 20..27, 27..30];
    let flush: Range<usize> = 30..33;
    for backend in Backend::ALL {
        let direct =
            BatchDiscriminator::new(sys.discriminators()).classify_shots_on(backend, &shots);
        for transport in transports() {
            let fleet = ShardedReadoutServer::start(
                vec![system(), system()],
                ServeConfig {
                    backend,
                    // Long enough that parked responses can only arrive
                    // via the expediting latency request below — which
                    // makes the out-of-order assertion deterministic.
                    max_linger: Duration::from_secs(15),
                    max_batch_shots: usize::MAX,
                    ..ServeConfig::default()
                },
            );
            let server = WireServer::start_with(
                &fleet,
                TcpListener::bind("127.0.0.1:0").unwrap(),
                WireConfig {
                    transport,
                    ..WireConfig::default()
                },
            )
            .expect("start wire server");
            let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
            let mut expected: HashMap<u64, Range<usize>> = HashMap::new();
            let mut parked_ids = Vec::new();
            for r in &park {
                let id = client
                    .submit_to_opts(0, RequestOptions::new(), &shots[r.clone()])
                    .unwrap();
                expected.insert(id, r.clone());
                parked_ids.push(id);
            }
            let mut overtaking_ids = Vec::new();
            for r in &overtake {
                let id = client
                    .submit_to_opts(
                        1,
                        RequestOptions::new().priority(Priority::Latency),
                        &shots[r.clone()],
                    )
                    .unwrap();
                expected.insert(id, r.clone());
                overtaking_ids.push(id);
            }
            assert_eq!(client.in_flight(), park.len() + overtake.len());
            // The device-1 responses arrive while device 0 still
            // lingers: completion order differs from submission order.
            for _ in &overtake {
                let (id, result) = client.recv_response().expect("transport alive");
                assert!(
                    overtaking_ids.contains(&id),
                    "device-0 request {id} answered while its batch should be parked \
                     ({backend}, {transport:?})"
                );
                let r = expected.remove(&id).expect("each id answered once");
                assert_eq!(result.expect("served"), direct[r], "{backend}, {transport:?}");
            }
            // A latency request to device 0 expedites the parked batch;
            // the three parked responses and this one drain in any order.
            let flush_id = client
                .submit_to_opts(
                    0,
                    RequestOptions::new().priority(Priority::Latency),
                    &shots[flush.clone()],
                )
                .unwrap();
            expected.insert(flush_id, flush.clone());
            for _ in 0..=park.len() {
                let (id, result) = client.recv_response().expect("transport alive");
                let r = expected.remove(&id).expect("each id answered once");
                assert_eq!(result.expect("served"), direct[r], "{backend}, {transport:?}");
            }
            assert!(expected.is_empty());
            assert_eq!(client.in_flight(), 0);
            server.shutdown();
            let stats = fleet.shutdown();
            assert_eq!(stats.requests, 7, "{backend}, {transport:?}");
        }
    }
}

#[test]
fn the_connection_budget_applies_accept_backpressure() {
    let sys = system();
    let shot = sys.test_data().shot(0).clone();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot);
    for transport in transports() {
        let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
        let server = WireServer::start_with(
            &fleet,
            TcpListener::bind("127.0.0.1:0").unwrap(),
            WireConfig {
                max_connections: 2,
                idle_timeout: None,
                transport,
                ..WireConfig::default()
            },
        )
        .unwrap();
        let mut c1 = WireClient::connect(server.local_addr(), 0).unwrap();
        let mut c2 = WireClient::connect(server.local_addr(), 0).unwrap();
        assert_eq!(
            c1.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
                .map(|s| s[0])
                .unwrap(),
            direct
        );
        assert_eq!(
            c2.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
                .map(|s| s[0])
                .unwrap(),
            direct
        );
        // The third connection handshakes (kernel backlog) but sits
        // unaccepted at the budget: its request gets no answer.
        let mut c3 = WireClient::connect(server.local_addr(), 0).unwrap();
        c3.set_read_timeout(Some(Duration::from_millis(300)))
            .unwrap();
        c3.submit_to_opts(0, RequestOptions::new(), std::slice::from_ref(&shot))
            .unwrap();
        match c3.recv_response() {
            Err(ServeError::Timeout) => {}
            other => panic!("budget ignored: third connection got {other:?}"),
        }
        // A slot frees; the reactor resumes accepting, reads the
        // buffered request, and answers it.
        drop(c1);
        c3.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let (_, result) = c3.recv_response().expect("accepted after a slot freed");
        assert_eq!(result.expect("served"), vec![direct]);
        let stats = server.stats();
        assert_eq!(stats.wire_accepted, 3, "{transport:?}");
        assert_eq!(stats.wire_peak_open, 2, "{transport:?}: budget breached");
        server.shutdown();
        fleet.shutdown();
    }
}

#[test]
fn idle_connections_are_reaped_under_the_configured_timeout() {
    let sys = system();
    let shot = sys.test_data().shot(1).clone();
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        WireConfig {
            idle_timeout: Some(Duration::from_millis(200)),
            ..WireConfig::default()
        },
    )
    .unwrap();
    let mut idle = WireClient::connect(server.local_addr(), 0).unwrap();
    idle.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
        .map(|s| s[0])
        .expect("served before going idle");
    std::thread::sleep(Duration::from_millis(1200));
    let stats = server.stats();
    assert_eq!(stats.wire_reaped, 1, "quiet connection not reaped");
    assert_eq!(stats.wire_open, 0);
    // The reaped client transparently reconnects on its next call —
    // the server hung up, but the address still serves...
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(
        idle.classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
            .map(|s| s[0])
            .expect("reconnected after the reap"),
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot)
    );
    // ...and with reconnection disabled, the hang-up surfaces as a
    // typed `Disconnected` instead (never a panic or a silent hang).
    let mut doomed = WireClient::connect(server.local_addr(), 0).unwrap();
    doomed.set_reconnect(None);
    doomed
        .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
        .map(|s| s[0])
        .expect("served before going idle");
    std::thread::sleep(Duration::from_millis(1200));
    assert_eq!(
        doomed
            .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
            .map(|s| s[0]),
        Err(ServeError::Disconnected)
    );
    // ...while fresh connections serve as ever.
    let mut fresh = WireClient::connect(server.local_addr(), 0).unwrap();
    assert_eq!(
        fresh
            .classify_shots_opts(RequestOptions::new(), std::slice::from_ref(&shot))
            .map(|s| s[0])
            .expect("server alive"),
        BatchDiscriminator::new(sys.discriminators()).classify_shot_on(Backend::Float, &shot)
    );
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn wire_version_skew_earns_a_typed_error_frame() {
    use std::io::Write;
    let fleet = ShardedReadoutServer::start(vec![system()], ServeConfig::default());
    let server = WireServer::start(&fleet, TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
    // A protocol-v1 peer (PR 5: no request ids) sends a well-formed v1
    // request; the server must answer with the version-skew error on the
    // connection lane, not misparse the body or hang up silently.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut v1 = Vec::new();
    v1.extend_from_slice(&0x514Bu16.to_le_bytes());
    v1.push(1); // version 1
    v1.push(1); // request
    v1.extend_from_slice(&0u16.to_le_bytes()); // device
    v1.push(0); // priority
    v1.extend_from_slice(&0u32.to_le_bytes()); // zero shots
    raw.write_all(&(v1.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&v1).unwrap();
    let payload = wire::read_frame(&mut raw)
        .expect("server answers before hanging up")
        .expect("an error frame, not a silent close");
    match wire::decode_message(&payload) {
        Ok(wire::WireMessage::Error {
            req_id: wire::CONNECTION_REQ_ID,
            error: ServeError::Protocol(msg),
        }) => assert!(msg.contains("version"), "{msg}"),
        other => panic!("expected a version-skew error frame, got {other:?}"),
    }
    server.shutdown();
    fleet.shutdown();
}

#[test]
fn the_reactor_sustains_256_pipelined_connections() {
    // 256 concurrent connections, each with two requests in flight,
    // multiplexed by ONE reactor thread — no thread-per-connection. A
    // single test thread drives them all; pipelining is what makes that
    // possible (submit everything, then drain).
    const CONNS: usize = 256;
    const REQS_PER_CONN: usize = 2;
    const SLICE: usize = 2;
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(Backend::Float, &shots);
    let fleet = ShardedReadoutServer::start(
        vec![system()],
        ServeConfig {
            max_pending: 4096,
            ..ServeConfig::default()
        },
    );
    let server = WireServer::start(&fleet, TcpListener::bind("127.0.0.1:0").unwrap()).unwrap();
    let mut clients = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        clients.push(WireClient::connect(server.local_addr(), 0).unwrap());
    }
    let start = |c: usize, j: usize| (c * REQS_PER_CONN + j) * SLICE % (shots.len() - SLICE);
    let mut expected: Vec<HashMap<u64, usize>> = Vec::with_capacity(CONNS);
    for (c, client) in clients.iter_mut().enumerate() {
        let mut ids = HashMap::new();
        for j in 0..REQS_PER_CONN {
            let s = start(c, j);
            let id = client
                .submit_to_opts(0, RequestOptions::new(), &shots[s..s + SLICE])
                .expect("submitted");
            ids.insert(id, s);
        }
        expected.push(ids);
    }
    for (client, ids) in clients.iter_mut().zip(&mut expected) {
        client.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        for _ in 0..REQS_PER_CONN {
            let (id, result) = client.recv_response().expect("response under load");
            let s = ids.remove(&id).expect("each id answered exactly once");
            assert_eq!(result.expect("served"), direct[s..s + SLICE]);
        }
        assert!(ids.is_empty());
    }
    let stats = server.stats();
    assert_eq!(stats.wire_peak_open, CONNS as u64);
    assert_eq!(stats.wire_accepted, CONNS as u64);
    drop(clients);
    server.shutdown();
    let fleet_stats = fleet.shutdown();
    assert_eq!(fleet_stats.requests, (CONNS * REQS_PER_CONN) as u64);
}

#[cfg(target_os = "linux")]
#[test]
fn a_never_timing_out_epoll_reactor_answers_every_pipelined_latency_request() {
    // With no idle timeout the epoll reactor parks with no timeout at
    // all, so only the completion waker brings answers back: a lost
    // wakeup is a hang here, caught by the client's read timeout. The
    // loop keeps 32 one-shot latency requests in flight, one new
    // request per answer, like a mid-circuit feed-forward controller.
    const DEPTH: usize = 32;
    const ROUND_TRIPS: usize = 4096;
    let sys = system();
    let shots = sys.test_data().shots().to_vec();
    let config = ServeConfig::default();
    let direct =
        BatchDiscriminator::new(sys.discriminators()).classify_shots_on(config.backend, &shots);
    let fleet = ShardedReadoutServer::start(vec![system()], config);
    let server = WireServer::start_with(
        &fleet,
        TcpListener::bind("127.0.0.1:0").unwrap(),
        WireConfig {
            idle_timeout: None,
            transport: Transport::Epoll,
            ..WireConfig::default()
        },
    )
    .expect("start the epoll transport");
    let mut client = WireClient::connect(server.local_addr(), 0).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut expected: HashMap<u64, usize> = HashMap::with_capacity(DEPTH);
    let mut submitted = 0;
    let mut submit = |client: &mut WireClient, expected: &mut HashMap<u64, usize>| {
        let s = submitted % shots.len();
        let id = client
            .submit_to_opts(
                0,
                RequestOptions::new().priority(Priority::Latency),
                &shots[s..=s],
            )
            .expect("submitted");
        expected.insert(id, s);
        submitted += 1;
    };
    for _ in 0..DEPTH {
        submit(&mut client, &mut expected);
    }
    for answered in 0..ROUND_TRIPS {
        let (id, result) = client
            .recv_response()
            .unwrap_or_else(|e| panic!("answer {answered} of {ROUND_TRIPS} never came: {e:?}"));
        let s = expected.remove(&id).expect("each id answered exactly once");
        assert_eq!(result.expect("served"), direct[s..=s], "request {id}");
        if answered + DEPTH < ROUND_TRIPS {
            submit(&mut client, &mut expected);
        }
    }
    assert!(expected.is_empty());
    server.shutdown();
    let stats = fleet.shutdown();
    assert_eq!(stats.requests, ROUND_TRIPS as u64);
}
