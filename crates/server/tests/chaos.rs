//! Network chaos suite for the TCP front ends (DESIGN.md §13): scripted
//! connection-level faults — truncated frames, mid-frame stalls past the
//! read deadline, garbage bodies, oversized headers, abrupt closes —
//! singly and in a seeded random sweep. After every schedule the server
//! must still answer a healthy request, hold no workers hostage, and keep
//! its counters consistent: chaos degrades one connection, never the
//! service.
//!
//! Every scripted fault runs against *both* serving architectures (the
//! thread pool and, on Linux, the epoll reactor), and a differential test
//! replays the seeded sweep against both front ends asserting
//! byte-identical response transcripts. `SOFTREP_FRONTEND=threads|epoll`
//! restricts a run to one architecture.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softrep_core::clock::SimClock;
use softrep_core::db::ReputationDb;
use softrep_proto::framing::write_frame;
use softrep_proto::{Request, Response};
use softrep_server::tcp::{Frontend, FrontendServer, TcpClient, TcpServerConfig};
use softrep_server::{ReputationServer, ServerConfig};

fn reputation_server() -> Arc<ReputationServer> {
    Arc::new(ReputationServer::new(
        ReputationDb::in_memory("chaos-pepper"),
        Arc::new(SimClock::new()),
        ServerConfig {
            puzzle_difficulty: 0,
            flood_capacity: u32::MAX,
            flood_refill_per_hour: u32::MAX,
            ..ServerConfig::default()
        },
        7,
    ))
}

/// The front ends this run exercises: both by default, one when
/// `SOFTREP_FRONTEND` says so.
fn frontends() -> Vec<Frontend> {
    match std::env::var("SOFTREP_FRONTEND").as_deref() {
        Ok("threads") => vec![Frontend::Threads],
        #[cfg(target_os = "linux")]
        Ok("epoll") => vec![Frontend::Epoll],
        _ => {
            #[cfg(target_os = "linux")]
            {
                vec![Frontend::Threads, Frontend::Epoll]
            }
            #[cfg(not(target_os = "linux"))]
            {
                vec![Frontend::Threads]
            }
        }
    }
}

fn spawn_with(
    frontend: Frontend,
    read_timeout: Duration,
) -> (FrontendServer, Arc<ReputationServer>) {
    let server = reputation_server();
    let fe = FrontendServer::spawn_with(
        Arc::clone(&server),
        "127.0.0.1:0",
        TcpServerConfig { frontend, read_timeout, ..TcpServerConfig::default() },
    )
    .unwrap();
    (fe, server)
}

fn query() -> Request {
    Request::QuerySoftware { software_id: "ab".repeat(20) }
}

/// A healthy exchange must succeed — the proof that chaos did not take
/// the service down with the connection it hit.
fn assert_service_healthy(fe: &FrontendServer) {
    let mut client = TcpClient::connect(fe.local_addr()).unwrap();
    let response = client.call(&query()).unwrap();
    assert!(
        !matches!(&response, Response::Error { code, .. } if code == "overloaded"),
        "healthy request shed after chaos: {response:?}"
    );
}

fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "not reached within 5s: {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A frame whose header promises more bytes than ever arrive, then a
/// clean close: the body read fails mid-frame and the connection is
/// dropped without a response — and without wedging the front end.
#[test]
fn truncated_request_frame_drops_only_that_connection() {
    for frontend in frontends() {
        let (fe, _server) = spawn_with(frontend, Duration::from_secs(30));

        let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
        let body = query().encode();
        stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(&body.as_bytes()[..body.len() / 2]).unwrap();
        stream.flush().unwrap();
        drop(stream); // tear: the rest of the frame never arrives

        wait_for("truncated connection closed", || fe.stats().closed == 1);
        let stats = fe.stats();
        assert_eq!(stats.accepted, 1, "{frontend:?}");
        assert_eq!(stats.requests_served, 0, "{frontend:?}: a torn request must not be dispatched");
        assert_eq!(stats.active, 0, "{frontend:?}: capacity freed");

        assert_service_healthy(&fe);
        fe.shutdown();
    }
}

/// A peer that sends half a frame and then goes silent (socket open, no
/// bytes) is evicted at the read deadline, freeing its capacity — the
/// delay path of the chaos matrix.
#[test]
fn mid_frame_stall_is_evicted_at_the_read_deadline() {
    for frontend in frontends() {
        let (fe, _server) = spawn_with(frontend, Duration::from_millis(200));

        let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
        let body = query().encode();
        stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        stream.write_all(&body.as_bytes()[..4]).unwrap();
        stream.flush().unwrap();
        // Keep the socket open and silent: only the deadline can free the
        // connection now.
        let started = Instant::now();
        wait_for("stalled connection evicted", || fe.stats().closed == 1);
        assert!(
            started.elapsed() >= Duration::from_millis(150),
            "{frontend:?}: eviction should come from the read deadline, not an instant error"
        );
        let stats = fe.stats();
        assert_eq!(stats.timed_out, 1, "{frontend:?}: eviction accounted as a timeout");
        assert_eq!(stats.requests_served, 0, "{frontend:?}");
        assert_eq!(stats.active, 0, "{frontend:?}");
        drop(stream);

        assert_service_healthy(&fe);
        fe.shutdown();
    }
}

/// While capacity is pinned by stalled peers, new arrivals are shed with
/// an explicit `overloaded` frame; once the deadline evicts the stallers,
/// service resumes — shed and deadline paths composing.
#[test]
fn shed_path_engages_while_stalled_peers_pin_the_workers() {
    for frontend in frontends() {
        let server = reputation_server();
        let fe = FrontendServer::spawn_with(
            Arc::clone(&server),
            "127.0.0.1:0",
            TcpServerConfig {
                frontend,
                max_connections: 2,
                max_open_connections: 2,
                read_timeout: Duration::from_millis(400),
                ..TcpServerConfig::default()
            },
        )
        .unwrap();

        // Two silent peers pin the whole capacity.
        let pin_a = TcpStream::connect(fe.local_addr()).unwrap();
        let pin_b = TcpStream::connect(fe.local_addr()).unwrap();
        wait_for("capacity pinned", || fe.stats().active == 2);

        // A third connection is shed with a decodable overloaded frame.
        let mut client = TcpClient::connect(fe.local_addr()).unwrap();
        client.set_timeouts(Some(Duration::from_secs(5)), None).unwrap();
        match client.call(&query()) {
            Ok(Response::Error { code, .. }) => assert_eq!(code, "overloaded", "{frontend:?}"),
            other => panic!("{frontend:?}: expected an overloaded error frame, got {other:?}"),
        }
        assert_eq!(fe.stats().rejected_overload, 1, "{frontend:?}");

        // The deadline evicts the stallers and capacity returns.
        wait_for("stallers evicted", || fe.stats().timed_out == 2);
        drop(pin_a);
        drop(pin_b);
        assert_service_healthy(&fe);
        fe.shutdown();
    }
}

/// One connection of the seeded sweep. Responses received on well-formed
/// exchanges are appended to `transcript` (raw frame bytes) so the
/// differential test can compare front ends byte-for-byte; fault cases
/// append a fixed marker keyed by the case.
fn run_sweep_connection(
    fe: &FrontendServer,
    rng: &mut StdRng,
    i: u64,
    ctx: &dyn Fn() -> String,
    well_formed: &mut u64,
    transcript: &mut Vec<Vec<u8>>,
) {
    match rng.gen_range(0..6) {
        // A healthy request/response exchange; the queried id varies per
        // connection so the echoed response body differs too.
        0 => {
            let software_id = format!("{i:02}").repeat(20);
            let request = Request::QuerySoftware { software_id };
            let mut client = TcpClient::connect(fe.local_addr()).unwrap();
            let response = client.call(&request).unwrap_or_else(|e| panic!("{}: {e}", ctx()));
            transcript.push(response.encode().into_bytes());
            *well_formed += 1;
        }
        // Connect and immediately hang up.
        1 => {
            drop(TcpStream::connect(fe.local_addr()).unwrap());
            transcript.push(b"<hangup>".to_vec());
        }
        // Truncated frame, then close.
        2 => {
            let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
            let body = query().encode();
            let keep = rng.gen_range(0..body.len());
            stream.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
            stream.write_all(&body.as_bytes()[..keep]).unwrap();
            transcript.push(b"<truncated>".to_vec());
        }
        // A frame header promising more than the 1 MiB cap.
        3 => {
            let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
            stream.write_all(&(8 * 1024 * 1024u32).to_be_bytes()).unwrap();
            transcript.push(b"<oversized>".to_vec());
        }
        // A well-framed body that is not a protocol message: answered
        // with a bad-request error, connection stays up.
        4 => {
            let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
            write_frame(&mut stream, "<gibberish>").unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let frame = softrep_proto::framing::read_frame(&mut reader)
                .unwrap_or_else(|e| panic!("{}: no bad-request reply: {e}", ctx()));
            match Response::decode(&frame) {
                Ok(Response::Error { ref code, .. }) => assert_eq!(code, "bad-request"),
                other => panic!("{}: expected bad-request, got {other:?}", ctx()),
            }
            transcript.push(frame.into_bytes());
            *well_formed += 1;
        }
        // A partial header (less than 4 length bytes), then close.
        _ => {
            let mut stream = TcpStream::connect(fe.local_addr()).unwrap();
            stream.write_all(&[0u8; 2]).unwrap();
            transcript.push(b"<partial-header>".to_vec());
        }
    }
}

/// The seeded 32-connection sweep against one front end, returning its
/// response transcript. Whatever the schedule, every connection ends, no
/// capacity leaks, well-formed requests are all answered, malformed ones
/// are never dispatched, and the server still serves.
fn sweep(frontend: Frontend, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (fe, _server) = spawn_with(frontend, Duration::from_millis(300));
    let mut transcript = Vec::new();
    let mut well_formed = 0u64;
    for i in 0..32u64 {
        let ctx = || format!("{frontend:?}, connection {i}");
        run_sweep_connection(&fe, &mut rng, i, &ctx, &mut well_formed, &mut transcript);
    }
    // Every connection winds down (the stragglers at the read deadline).
    wait_for("sweep settled", || {
        let s = fe.stats();
        s.closed + s.rejected_overload >= 32 && s.active == 0
    });
    assert_eq!(fe.stats().requests_served, well_formed, "{frontend:?}");
    assert_service_healthy(&fe);
    fe.shutdown();
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// Seeded random sweep: a few dozen connections each misbehave in a
    /// randomly chosen way, against every front end. A failure reports the
    /// `PROPTEST_SEED_OFFSET` that replays it.
    #[test]
    fn seeded_fault_sweep_never_degrades_the_service(seed in 0..u64::MAX) {
        for frontend in frontends() {
            sweep(frontend, seed);
        }
    }

    /// Differential oracle: the thread front end and the epoll reactor must
    /// produce **byte-identical** response transcripts for the same seeded
    /// 32-connection misbehaviour schedule against identically-seeded
    /// servers. The thread pool is the simple, obviously-correct
    /// implementation; any divergence is a reactor bug.
    #[cfg(target_os = "linux")]
    #[test]
    fn differential_sweep_is_byte_identical_across_front_ends(seed in 0..u64::MAX) {
        let threads = sweep(Frontend::Threads, seed);
        let epoll = sweep(Frontend::Epoll, seed);
        assert_eq!(threads.len(), epoll.len());
        let markers: [&[u8]; 4] = [b"<hangup>", b"<truncated>", b"<oversized>", b"<partial-header>"];
        assert!(
            threads.iter().any(|t| !markers.contains(&t.as_slice())),
            "the seeded schedule must exercise at least one served response"
        );
        for (i, (t, e)) in threads.iter().zip(&epoll).enumerate() {
            assert_eq!(
                t,
                e,
                "connection {i}: front ends diverged\n threads: {:?}\n epoll:   {:?}",
                String::from_utf8_lossy(t),
                String::from_utf8_lossy(e)
            );
        }
    }
}
