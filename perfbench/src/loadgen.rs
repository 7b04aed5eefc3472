//! The load generator: one thread per connection, two connections, over
//! real loopback sockets. The open loop sends on a seeded Poisson schedule
//! whatever the server does and times each request from its *intended*
//! send time, so a stall shows up in every request queued behind it. The
//! closed loop keeps one request outstanding per connection and counts
//! completions.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use softrep_proto::{Request, Response};

use crate::rng::Rng;
use crate::workload::{Check, Kind, Population, Spec, Stream};

pub const CONNECTIONS: usize = 2;

#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Poisson arrivals at this total rate over all connections.
    Open { rate_rps: f64 },
    /// One request outstanding per connection, the next sent as soon as
    /// the previous answer arrives.
    Closed,
}

/// Everything one pass over the socket produced.
#[derive(Default)]
pub struct Pass {
    /// `(intended send time, latency)` per successful request, both in
    /// nanoseconds; send times count from the pass's start, latency from
    /// the intended send time.
    pub lookups: Vec<(u64, u64)>,
    pub writes: Vec<(u64, u64)>,
    /// Completion times from the pass's start, nanoseconds.
    pub done_ns: Vec<u64>,
    /// How late the generator sent each request, nanoseconds.
    pub lag_ns: Vec<u64>,
    pub sent: u64,
    pub completed: u64,
    pub failed: u64,
    /// Writes acknowledged (the base of per-write ratios).
    pub writes_ok: u64,
    /// Sending window, seconds.
    pub window_s: f64,
    /// Acknowledged votes in acknowledgement order per user.
    pub votes: Vec<(usize, usize, u8)>,
    /// Sampled lookups and the exact response bytes the server sent.
    pub samples: Vec<(Request, String)>,
    /// First few failure descriptions.
    pub failures: Vec<String>,
}

impl Pass {
    fn absorb(&mut self, other: Pass) {
        self.lookups.extend(other.lookups);
        self.writes.extend(other.writes);
        self.done_ns.extend(other.done_ns);
        self.lag_ns.extend(other.lag_ns);
        self.sent += other.sent;
        self.completed += other.completed;
        self.failed += other.failed;
        self.writes_ok += other.writes_ok;
        self.window_s = self.window_s.max(other.window_s);
        self.votes.extend(other.votes);
        self.samples.extend(other.samples);
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Drive `addr` for `duration` with the workload's stream. `salt` selects
/// the stream, so two passes with the same salt send the same requests.
#[allow(clippy::too_many_arguments)]
pub fn run(
    addr: SocketAddr,
    spec: &Spec,
    pop: &Population,
    seed: u64,
    salt: u64,
    mode: Mode,
    duration: Duration,
    sample_every: u64,
) -> Pass {
    let mut total = Pass::default();
    let origin = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let stream = Stream::new(spec, pop, seed, salt, conn, CONNECTIONS);
                let gaps = Rng::new(seed, 5_000 + salt * 16 + conn as u64);
                scope.spawn(move || drive(addr, stream, gaps, mode, origin, duration, sample_every))
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(pass) => total.absorb(pass),
                Err(_) => {
                    total.failed += 1;
                    total.failures.push("load generator thread panicked".into());
                }
            }
        }
    });
    total
}

struct Pending {
    intended: Instant,
    kind: Kind,
    check: Check,
    sample: Option<Request>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

/// Wait until `fd` is readable (or writable, when asked) or `timeout`
/// passes, with nanosecond resolution.
fn wait(fd: i32, want_write: bool, timeout: Duration) {
    let mut pfd = PollFd { fd, events: POLLIN | if want_write { POLLOUT } else { 0 }, revents: 0 };
    let ts = Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: timeout.subsec_nanos() as i64 };
    // SAFETY: one valid pollfd, a valid timespec, and a null signal mask.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Default timer slack (50 µs) would make every scheduled send late.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer argument.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

fn drive(
    addr: SocketAddr,
    mut stream: Stream<'_>,
    mut gaps: Rng,
    mode: Mode,
    origin: Instant,
    duration: Duration,
    sample_every: u64,
) -> Pass {
    let mut pass = Pass::default();
    let mut sock = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            pass.failed += 1;
            pass.failures.push(format!("connect: {e}"));
            return pass;
        }
    };
    let _ = sock.set_nodelay(true);
    let _ = sock.set_nonblocking(true);
    tighten_timer_slack();
    let fd = sock.as_raw_fd();

    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut out: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut out_pos = 0usize;
    let mut inbuf: Vec<u8> = Vec::with_capacity(256 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut lookups_seen = 0u64;

    let start = origin;
    let end = start + duration;
    let mean_gap_s = match mode {
        Mode::Open { rate_rps } => CONNECTIONS as f64 / rate_rps,
        Mode::Closed => 0.0,
    };
    let mut next_due = start + Duration::from_secs_f64(gaps.exp(mean_gap_s));
    let mut sending = true;
    let mut broken = false;

    // Requests that came due while the connection was busy wait here;
    // their latency still counts from the intended send time.
    let mut queued: VecDeque<(Pending, String)> = VecDeque::new();
    let mut make = |intended: Instant, lookups_seen: &mut u64, pass: &mut Pass| {
        let op = stream.next_op();
        let body = op.request.encode();
        let sample = if op.kind.is_lookup() {
            *lookups_seen += 1;
            (sample_every > 0 && lookups_seen.is_multiple_of(sample_every))
                .then(|| op.request.clone())
        } else {
            None
        };
        pass.sent += 1;
        (Pending { intended, kind: op.kind, check: op.check, sample }, body)
    };

    loop {
        let now = Instant::now();
        if sending && !broken {
            match mode {
                Mode::Open { .. } => {
                    while next_due <= now {
                        if next_due >= end {
                            sending = false;
                            break;
                        }
                        queued.push_back(make(next_due, &mut lookups_seen, &mut pass));
                        pass.lag_ns.push(now.duration_since(next_due).as_nanos() as u64);
                        next_due += Duration::from_secs_f64(gaps.exp(mean_gap_s));
                    }
                }
                Mode::Closed => {
                    if now >= end {
                        sending = false;
                    } else if queued.is_empty() && inflight.is_empty() {
                        queued.push_back(make(now, &mut lookups_seen, &mut pass));
                    }
                }
            }
        }
        // One request on the wire per connection, as the repository's
        // clients do: the server sets no TCP_NODELAY, so pipelined responses
        // would measure Nagle's algorithm against delayed ACKs instead of
        // the server.
        if inflight.is_empty() && !broken {
            if let Some((pending, body)) = queued.pop_front() {
                out.extend_from_slice(&(body.len() as u32).to_be_bytes());
                out.extend_from_slice(body.as_bytes());
                inflight.push_back(pending);
            }
        }

        // Flush what the socket takes.
        while out_pos < out.len() && !broken {
            match sock.write(&out[out_pos..]) {
                Ok(0) => broken = true,
                Ok(n) => out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    pass.failures.push(format!("write: {e}"));
                    broken = true;
                }
            }
        }
        if out_pos == out.len() {
            out.clear();
            out_pos = 0;
        }

        // Read whatever has arrived and complete every whole frame.
        loop {
            match sock.read(&mut chunk) {
                Ok(0) => {
                    if !inflight.is_empty() {
                        pass.failures.push("server closed the connection".into());
                    }
                    broken = true;
                    break;
                }
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    pass.failures.push(format!("read: {e}"));
                    broken = true;
                    break;
                }
            }
        }
        let arrived = Instant::now();
        let mut pos = 0usize;
        while inbuf.len() - pos >= 4 {
            let len =
                u32::from_be_bytes([inbuf[pos], inbuf[pos + 1], inbuf[pos + 2], inbuf[pos + 3]])
                    as usize;
            if inbuf.len() - pos - 4 < len {
                break;
            }
            let body = &inbuf[pos + 4..pos + 4 + len];
            pos += 4 + len;
            let Some(pending) = inflight.pop_front() else {
                pass.failed += 1;
                pass.failures.push("response without a request".into());
                continue;
            };
            let at = pending.intended.duration_since(origin).as_nanos() as u64;
            let latency = arrived.duration_since(pending.intended).as_nanos() as u64;
            pass.done_ns.push(arrived.duration_since(origin).as_nanos() as u64);
            complete(&mut pass, pending, body, at, latency);
        }
        inbuf.drain(..pos);

        if broken {
            pass.failed += (inflight.len() + queued.len()) as u64;
            break;
        }
        if !sending && inflight.is_empty() && queued.is_empty() && out.is_empty() {
            break;
        }
        let now = Instant::now();
        if !sending && now > end + Duration::from_secs(20) {
            pass.failures
                .push(format!("{} responses never arrived", inflight.len() + queued.len()));
            pass.failed += (inflight.len() + queued.len()) as u64;
            break;
        }
        let ready_to_send = inflight.is_empty()
            && (!queued.is_empty() || (sending && matches!(mode, Mode::Closed)));
        if ready_to_send {
            continue;
        }
        let timeout = match mode {
            Mode::Open { .. } if sending => next_due.saturating_duration_since(now),
            _ => Duration::from_millis(10),
        };
        wait(fd, out_pos < out.len(), timeout.min(Duration::from_millis(10)));
    }
    pass.window_s = duration.as_secs_f64();
    pass
}

fn complete(pass: &mut Pass, pending: Pending, body: &[u8], at: u64, latency: u64) {
    pass.completed += 1;
    let text = std::str::from_utf8(body).unwrap_or("");
    let ok = match Response::decode(text) {
        Ok(response) => {
            if pending.check.accepts(&response) {
                true
            } else {
                if pass.failures.len() < 8 {
                    pass.failures.push(format!("{}: unexpected {response:?}", pending.kind.name()));
                }
                false
            }
        }
        Err(e) => {
            if pass.failures.len() < 8 {
                pass.failures.push(format!("{}: undecodable response: {e:?}", pending.kind.name()));
            }
            false
        }
    };
    if !ok {
        pass.failed += 1;
        return;
    }
    if pending.kind.is_lookup() {
        pass.lookups.push((at, latency));
    } else {
        pass.writes.push((at, latency));
        pass.writes_ok += 1;
    }
    if let Check::Vote { user, title, score } = pending.check {
        pass.votes.push((user, title, score));
    }
    if let Some(request) = pending.sample {
        pass.samples.push((request, text.to_string()));
    }
}
