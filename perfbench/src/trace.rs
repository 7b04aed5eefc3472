//! The traced run: per-layer numbers, timed from the benchmark's own code
//! around calls into each layer's public functions (no tracing inside the
//! program).
//!
//! * (a) Socket pass — the workload's seeded stream over the socket, once
//!   untraced and once traced (allocation counting armed, the store's
//!   `Vfs` wrapper recording), with per-instance counters read around it.
//! * (b) In-process replay — a sample of the same requests through
//!   `Request::encode`, the framing round trip, `XmlNode::parse`,
//!   `Request::from_xml`, `ReputationServer::handle`, `Response::encode`
//!   and `Response::decode`, one span around each call.
//! * (c) Replication walk — the primary's log page by page through
//!   `Store::replication_read` and `serve_subscribe`.
//! * (d) Durable commit probe — votes from two threads into a store of the
//!   probe's own opened with `Durability::Always`.
//!
//! Spans are kept in memory and written to `.perfbench/trace/` at the end.

use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use softrep_core::clock::{Clock, SystemClock};
use softrep_core::db::ReputationDb;
use softrep_crypto::salted::SecretPepper;
use softrep_proto::framing::{encode_frame_into, read_frame_into};
use softrep_proto::{Request, Response, XmlNode};
use softrep_server::repl::serve_subscribe;
use softrep_storage::{DurabilityMode, ReplRead};

use crate::alloc;
use crate::harness::{self, Node};
use crate::loadgen::{self, Mode, Pass};
use crate::report::{self, quantile, Output};
use crate::rng::Rng;
use crate::tracevfs::{IoOp, IoSpan, TraceVfs};
use crate::workload::{Kind, Population, Spec, Stream};
use crate::{verify, Args, Rejections};

/// Requests of the workload's own stream replayed in-process.
const REPLAY_STREAM: usize = 2_000;
/// Extra requests of every kind, so each handler has a figure on every
/// workload.
const REPLAY_PER_KIND: usize = 100;
/// Titles probed for the report-miss and direct-vote timings.
const CORE_PROBES: usize = 200;
/// The `Always` probe's population and votes per thread.
const PROBE_USERS: usize = 20;
const PROBE_TITLES: usize = 200;
const PROBE_VOTES: usize = 1_000;
/// The replica tail's default page caps (`ReplicaTailConfig`).
const PAGE_ENTRIES: u32 = 256;
const PAGE_BYTES: u32 = 128 * 1024;
/// Slices of the closed loop; `throughput_rps` is the upper quartile over
/// them.
const THROUGHPUT_SLICES: usize = 6;

/// The closed-loop phase runs for a quarter of the open-loop window.
fn closed_window(seconds: u64) -> Duration {
    Duration::from_secs_f64((seconds as f64 / 4.0).max(1.0))
}

/// The in-process stages, in request order.
const STAGES: [&str; 8] = [
    "req_encode",
    "req_frame",
    "req_parse",
    "req_from_xml",
    "handle",
    "resp_encode",
    "resp_frame",
    "resp_decode",
];

struct StageSpan {
    request: usize,
    kind: Kind,
    stage: usize,
    start_ns: u64,
    dur_ns: u64,
    allocs: u64,
    req_bytes: usize,
    resp_bytes: usize,
}

/// Per-instance counters read around the traced socket pass.
struct Counters {
    agg: softrep_core::aggregate_engine::AggregationStats,
    /// Process-wide obs series. Only one reactor is live during the pass,
    /// so these describe the primary alone.
    wakeups: u64,
    dispatch: Vec<(u64, u64)>,
}

impl Counters {
    fn read(node: &Node) -> Self {
        let registry = softrep_obs::registry();
        Counters {
            agg: node.db().aggregation_stats(),
            wakeups: registry.counter("softrep_reactor_wakeups_total").get(),
            dispatch: registry
                .histogram("softrep_reactor_dispatch_us")
                .snapshot()
                .cumulative_buckets(),
        }
    }
}

/// p50 of the samples recorded between two cumulative bucket readouts.
fn bucket_delta_p50(before: &[(u64, u64)], after: &[(u64, u64)]) -> f64 {
    let at = |buckets: &[(u64, u64)], bound: u64| {
        buckets.iter().take_while(|(b, _)| *b <= bound).last().map_or(0, |(_, c)| *c)
    };
    let total = after.last().map_or(0, |(_, c)| *c) - before.last().map_or(0, |(_, c)| *c);
    if total == 0 {
        return 0.0;
    }
    for (bound, _) in after {
        if (at(after, *bound) - at(before, *bound)) * 2 >= total {
            return *bound as f64;
        }
    }
    0.0
}

fn io_stats(spans: &[IoSpan], op: IoOp) -> (u64, u64, Vec<u64>) {
    let mut count = 0;
    let mut bytes = 0;
    let mut durs = Vec::new();
    for s in spans.iter().filter(|s| s.op == op) {
        count += 1;
        bytes += s.bytes;
        durs.push(s.dur_ns);
    }
    (count, bytes, durs)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(spec: &Spec, args: &Args, work: &Path) -> Result<Output, String> {
    let epoch = Instant::now();
    let vfs = TraceVfs::new(epoch);
    let started = Instant::now();
    let (node, pop) =
        harness::setup(spec, args.seed, &work.join("primary"), Some(Arc::clone(&vfs)))?;
    let setup_s = started.elapsed().as_secs_f64();
    let rejected_before = Rejections::read(&node);
    let mut out = Output::default();
    let mut trace_lines = Vec::new();

    // Catch-up with both stores' file I/O recorded, then the walk.
    let replica_vfs = TraceVfs::new(epoch);
    vfs.recording(true);
    replica_vfs.recording(true);
    let catch = harness::catch_up(&node, &work.join("replica"), Some(Arc::clone(&replica_vfs)))?;
    vfs.recording(false);
    dump_io(&mut trace_lines, "catchup.primary", &vfs.drain());
    dump_io(&mut trace_lines, "catchup.replica", &replica_vfs.drain());
    walk(&node, &vfs, catch.seconds, &mut out, &mut trace_lines)?;

    // (a) Socket passes: an untraced baseline on a sibling stream, then
    // the traced pass on the untraced run's own stream (replaying one
    // stream twice would turn its second pass into cache hits).
    let seconds = Duration::from_secs(args.seconds);
    let half = Duration::from_secs_f64((args.seconds as f64 / 2.0).max(1.0));
    let rate = Mode::Open { rate_rps: spec.rate_rps };
    let base = loadgen::run(node.addr, spec, &pop, args.seed, 2, rate, seconds, 0);
    let window = closed_window(args.seconds);
    let closed = loadgen::run(node.addr, spec, &pop, args.seed, 1, Mode::Closed, window, 0);
    let before = Counters::read(&node);
    let allocs_before = alloc::process_count();
    vfs.recording(true);
    alloc::arm(true);
    let traced = loadgen::run(node.addr, spec, &pop, args.seed, 0, rate, half, crate::SAMPLE_EVERY);
    alloc::arm(false);
    vfs.recording(false);
    let allocs = alloc::process_count() - allocs_before;
    let after = Counters::read(&node);
    let pass_io = vfs.drain();
    dump_io(&mut trace_lines, "socket_pass", &pass_io);

    verify(
        spec,
        &node,
        &pop,
        &[&base, &closed, &traced],
        catch.consistent,
        &rejected_before,
        &mut out,
    );
    let attempted = out.attempted as f64;
    out.add(
        "error_frac",
        ratio(out.failed as f64, attempted),
        "ratio",
        format!("{} of {}", out.failed, out.attempted),
    );

    // Latencies of the untraced pass. They are reported here, without a
    // bound: on the shared 2-vCPU machine neither the p50 nor any tail
    // percentile repeats from run to run within a bound an end-to-end
    // metric may carry.
    for q in [0.5, 0.99] {
        out.add_latency("lookup", q, &[&base.lookups]);
        out.add_latency("write", q, &[&base.writes]);
    }
    let slices = report::slice_rates(&closed.done_ns, window.as_secs_f64(), THROUGHPUT_SLICES);
    out.add(
        "throughput_rps",
        report::upper_quartile(&slices),
        "req/s",
        format!("{} completed, upper quartile of {} slices", closed.completed, slices.len()),
    );
    let mut lag = base.lag_ns.clone();
    out.add(
        "loadgen.send_lag_p99_us",
        quantile(&mut lag, 0.99) as f64 / 1e3,
        "us",
        format!("n={}", lag.len()),
    );
    out.add(
        "loadgen.offered_rps",
        base.sent as f64 / base.window_s,
        "req/s",
        format!("{} sent", base.sent),
    );

    // (b) In-process replay.
    let replay = replay(spec, &node, &pop, args.seed, epoch);
    for s in &replay {
        trace_lines.push(format!(
            "replay\t{}\t{}\t{}\t{}\t{}\tallocs={}",
            s.request,
            s.kind.name(),
            STAGES[s.stage],
            s.start_ns,
            s.dur_ns,
            s.allocs
        ));
    }
    let p50 = |samples| {
        report::lower_quartile(&report::window_quantiles(samples, 0.5, report::MAX_WINDOWS).0)
    };
    let (untraced_p50, traced_p50) = (p50(&base.lookups), p50(&traced.lookups));
    proto_and_alloc(&replay, &traced, allocs, untraced_p50, traced_p50, &mut out);

    // Front end and handler.
    let requests = traced.completed as f64;
    out.add(
        "server.wakeups_per_request",
        ratio((after.wakeups - before.wakeups) as f64, requests),
        "count",
        "softrep_reactor_wakeups_total delta (obs registry; one reactor live)",
    );
    out.add(
        "server.dispatch_us_p50",
        bucket_delta_p50(&before.dispatch, &after.dispatch),
        "us",
        "softrep_reactor_dispatch_us delta (obs registry; bucket bound)",
    );
    let rejected = Rejections::read(&node);
    out.add(
        "server.flood_rejected",
        (rejected.flood - rejected_before.flood) as f64,
        "count",
        "FloodGuard::stats",
    );
    out.add(
        "server.overload_rejected",
        (rejected.overload - rejected_before.overload) as f64,
        "count",
        "FrontendServer::stats",
    );
    for kind in Kind::ALL {
        let mut durs: Vec<u64> = replay
            .iter()
            .filter(|s| s.kind == kind && STAGES[s.stage] == "handle")
            .map(|s| s.dur_ns)
            .collect();
        let n = durs.len();
        out.add(
            format!("server.handle_ns.{}", kind.name()),
            quantile(&mut durs, 0.5) as f64,
            "ns",
            format!("n={n}"),
        );
    }

    // Database layer.
    let hits = (after.agg.report_cache_hits - before.agg.report_cache_hits) as f64;
    let misses = (after.agg.report_cache_misses - before.agg.report_cache_misses) as f64;
    out.add(
        "core.report_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        "ReputationDb::aggregation_stats",
    );
    out.add("core.report_cache_lookups", hits + misses, "count", "base of the hit ratio");
    let vhits = (after.agg.vendor_cache_hits - before.agg.vendor_cache_hits) as f64;
    let vmisses = (after.agg.vendor_cache_misses - before.agg.vendor_cache_misses) as f64;
    out.add(
        "core.vendor_cache_hit_ratio",
        ratio(vhits, vhits + vmisses),
        "ratio",
        "ReputationDb::aggregation_stats",
    );
    out.add("core.vendor_cache_lookups", vhits + vmisses, "count", "base of the hit ratio");
    let writes = traced.writes_ok as f64;
    out.add(
        "core.dirty_marks_per_write",
        ratio((after.agg.dirty_marks - before.agg.dirty_marks) as f64, writes),
        "count",
        format!("over {writes} acknowledged writes"),
    );
    core_probes(&node, &pop, args.seed, &mut out)?;

    // Storage layer, from the primary's own Vfs wrapper and Store::stats.
    let (appends, append_bytes, mut append_ns) = io_stats(&pass_io, IoOp::Append);
    out.add("storage.appends_per_write", ratio(appends as f64, writes), "count", "Vfs wrapper");
    out.add(
        "storage.wal_bytes_per_write",
        ratio(append_bytes as f64, writes),
        "bytes",
        "Vfs wrapper",
    );
    out.add(
        "storage.append_us_p50",
        quantile(&mut append_ns, 0.5) as f64 / 1e3,
        "us",
        format!("n={appends}"),
    );
    durable_probe(&pop, args.seed, &work.join("durable"), epoch, &mut out, &mut trace_lines)?;
    out.add("trace.setup_s", setup_s, "s", "single traced set-up");

    write_trace(spec, args, &trace_lines);
    node.shutdown();
    Ok(out)
}

fn dump_io(lines: &mut Vec<String>, phase: &str, spans: &[IoSpan]) {
    for s in spans {
        lines.push(format!(
            "io\t{phase}\t{}\t{}\t{}\tbytes={}",
            s.op.name(),
            s.start_ns,
            s.dur_ns,
            s.bytes
        ));
    }
}

fn write_trace(spec: &Spec, args: &Args, lines: &[String]) {
    let dir = Path::new(".perfbench").join("trace");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{}-seed{}.tsv", spec.name, args.seed));
        let mut text = String::from("# layer\tid/phase\tkind/op\tstage/start_ns\t...\n");
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        let _ = std::fs::write(path, text);
    }
}

/// (c) Walk the primary's log page by page, as a fresh replica would.
fn walk(
    node: &Node,
    vfs: &TraceVfs,
    catchup_s: f64,
    out: &mut Output,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let store = &node.store;
    let committed = store.committed_seq();
    let timed_read = |from: u64| -> Result<Option<f64>, String> {
        let started = Instant::now();
        match store.replication_read(from, PAGE_ENTRIES as usize, PAGE_BYTES as usize) {
            Ok(ReplRead::Entries { .. }) => Ok(Some(started.elapsed().as_secs_f64() * 1e6)),
            Ok(ReplRead::SnapshotNeeded { .. }) => Ok(None),
            Err(e) => Err(format!("replication_read: {e}")),
        }
    };
    // Where the log starts: 0 when uncompacted, else the first sequence
    // number after the snapshot (found by bisection).
    let (mut lo, mut hi) = (0u64, committed.saturating_sub(1));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if timed_read(mid)?.is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let log_start = lo;
    let first_us = timed_read(log_start)?.ok_or("log start not servable")?;
    let last_us = timed_read(committed.saturating_sub(1))?.ok_or("log end not servable")?;

    vfs.recording(true);
    let _ = vfs.drain();
    let mut from = log_start;
    let mut pages = 0u64;
    let mut entries = 0u64;
    let mut payload = 0u64;
    let mut page_us = Vec::new();
    let mut read_bytes = 0u64;
    while from < committed {
        let started = Instant::now();
        let response = serve_subscribe(store, from, PAGE_ENTRIES, PAGE_BYTES);
        page_us.push(started.elapsed().as_secs_f64() * 1e6);
        let Response::ReplEntries { entries: page, .. } = response else {
            vfs.recording(false);
            return Err(format!("walk at {from}: unexpected {response:?}"));
        };
        let Some(last) = page.last() else { break };
        from = last.seq;
        pages += 1;
        entries += page.len() as u64;
        payload += page.iter().map(|e| e.batch.len() as u64).sum::<u64>();
        let spans = vfs.drain();
        read_bytes += spans.iter().filter(|s| s.op == IoOp::TryRead).map(|s| s.bytes).sum::<u64>();
        dump_io(lines, &format!("walk.page{pages}"), &spans);
    }
    vfs.recording(false);

    let per_page = ratio(read_bytes as f64, pages as f64);
    out.add(
        "storage.read_bytes_per_page",
        per_page,
        "bytes",
        format!("{pages} pages, Vfs wrapper"),
    );
    out.add(
        "storage.wal_bytes",
        store.stats().wal_bytes as f64,
        "bytes",
        "Store::stats: log length during the walk",
    );
    out.add(
        "storage.read_amplification",
        ratio(read_bytes as f64, payload as f64),
        "ratio",
        "bytes read / entry bytes shipped",
    );
    out.add(
        "storage.replication_read_us_first",
        first_us,
        "us",
        format!("Store::replication_read from seq {log_start}"),
    );
    out.add(
        "storage.replication_read_us_last",
        last_us,
        "us",
        format!("from seq {}", committed.saturating_sub(1)),
    );
    out.add("repl.pages", pages as f64, "count", format!("{entries} entries"));
    out.add(
        "repl.entries_per_page",
        ratio(entries as f64, pages as f64),
        "count",
        "serve_subscribe",
    );
    let total_us: f64 = page_us.iter().sum();
    out.add("repl.subscribe_page_us_p50", report::median_f(&page_us), "us", "serve_subscribe");
    out.add(
        "repl.read_share",
        ratio(total_us / 1e6, catchup_s),
        "ratio",
        format!("walk {:.3} s / catch-up {:.3} s", total_us / 1e6, catchup_s),
    );
    Ok(())
}

/// (b) Replay sampled requests through each layer's public functions.
fn replay(spec: &Spec, node: &Node, pop: &Population, seed: u64, epoch: Instant) -> Vec<StageSpan> {
    let mut ops = Vec::new();
    let mut stream = Stream::new(spec, pop, seed, 0, 0, loadgen::CONNECTIONS);
    ops.extend((0..REPLAY_STREAM).map(|_| stream.next_op()));
    let mut extra = Stream::new(spec, pop, seed, 9, 0, loadgen::CONNECTIONS);
    for kind in Kind::ALL {
        ops.extend((0..REPLAY_PER_KIND).map(|_| extra.make(kind)));
    }

    let mut spans = Vec::with_capacity(ops.len() * STAGES.len());
    let mut framed = Vec::new();
    let mut frame_buf = Vec::new();
    alloc::arm(true);
    for (id, op) in ops.iter().enumerate() {
        let mut marks = [(Instant::now(), alloc::thread_count()); STAGES.len() + 1];
        let mut mark = |i: usize| marks[i] = (Instant::now(), alloc::thread_count());
        mark(0);
        let body = op.request.encode();
        mark(1);
        let _ = encode_frame_into(&body, &mut framed);
        let _ = read_frame_into(&mut Cursor::new(&framed), &mut frame_buf);
        let text = std::str::from_utf8(&frame_buf).unwrap_or("");
        mark(2);
        let node_xml = XmlNode::parse(text);
        mark(3);
        let request = node_xml.ok().and_then(|x| Request::from_xml(&x).ok());
        mark(4);
        let Some(request) = request else { continue };
        let response = node.server.handle(&request, "perfbench-replay");
        mark(5);
        let encoded = response.encode();
        mark(6);
        let _ = encode_frame_into(&encoded, &mut framed);
        let _ = read_frame_into(&mut Cursor::new(&framed), &mut frame_buf);
        let text = std::str::from_utf8(&frame_buf).unwrap_or("");
        mark(7);
        let _ = Response::decode(text);
        mark(8);
        let (req_bytes, resp_bytes) = (body.len(), encoded.len());
        for stage in 0..STAGES.len() {
            let (t0, a0) = marks[stage];
            let (t1, a1) = marks[stage + 1];
            spans.push(StageSpan {
                request: id,
                kind: op.kind,
                stage,
                start_ns: t0.duration_since(epoch).as_nanos() as u64,
                dur_ns: t1.duration_since(t0).as_nanos() as u64,
                allocs: a1 - a0,
                req_bytes,
                resp_bytes,
            });
        }
    }
    alloc::arm(false);
    spans
}

/// Proto-layer and allocation figures over the replayed lookups, and the
/// reconciliation of their stage p50s with the untraced lookup p50.
fn proto_and_alloc(
    replay: &[StageSpan],
    traced: &Pass,
    process_allocs: u64,
    untraced_p50: f64,
    traced_p50: f64,
    out: &mut Output,
) {
    // Only the workload's own stream (not the per-kind extras), lookups.
    let lookups: Vec<&StageSpan> =
        replay.iter().filter(|s| s.request < REPLAY_STREAM && s.kind.is_lookup()).collect();
    let stage_p50 = |stage: &str| -> f64 {
        let mut d: Vec<u64> =
            lookups.iter().filter(|s| STAGES[s.stage] == stage).map(|s| s.dur_ns).collect();
        quantile(&mut d, 0.5) as f64
    };
    let stage_allocs = |stage: &str| -> f64 {
        let v: Vec<u64> =
            lookups.iter().filter(|s| STAGES[s.stage] == stage).map(|s| s.allocs).collect();
        ratio(v.iter().sum::<u64>() as f64, v.len() as f64)
    };
    let n = lookups.iter().filter(|s| s.stage == 0).count();
    let bytes = |f: fn(&StageSpan) -> usize| {
        ratio(lookups.iter().filter(|s| s.stage == 0).map(|s| f(s) as f64).sum(), n as f64)
    };
    let p50: Vec<f64> = STAGES.iter().map(|s| stage_p50(s)).collect();
    for (name, stage) in [
        ("proto.req_encode_ns", "req_encode"),
        ("proto.req_parse_ns", "req_parse"),
        ("proto.req_from_xml_ns", "req_from_xml"),
        ("proto.resp_encode_ns", "resp_encode"),
        ("proto.resp_decode_ns", "resp_decode"),
    ] {
        out.add(name, stage_p50(stage), "ns", format!("p50 over {n} lookups"));
    }
    out.add(
        "proto.frame_ns",
        stage_p50("req_frame") + stage_p50("resp_frame"),
        "ns",
        "request + response framing round trips, p50 each",
    );
    out.add("proto.req_bytes", bytes(|s| s.req_bytes), "bytes", "mean per lookup");
    out.add("proto.resp_bytes", bytes(|s| s.resp_bytes), "bytes", "mean per lookup");

    out.add(
        "alloc.per_request_e2e",
        ratio(process_allocs as f64, traced.completed as f64),
        "count",
        format!("process-wide over {} socket requests", traced.completed),
    );
    out.add("alloc.req_encode", stage_allocs("req_encode"), "count", "per lookup, thread-local");
    out.add(
        "alloc.req_decode",
        stage_allocs("req_frame") + stage_allocs("req_parse") + stage_allocs("req_from_xml"),
        "count",
        "frame + parse + from_xml",
    );
    out.add("alloc.handle", stage_allocs("handle"), "count", "per lookup, thread-local");
    out.add(
        "alloc.resp_encode",
        stage_allocs("resp_encode") + stage_allocs("resp_frame"),
        "count",
        "encode + frame",
    );
    out.add("alloc.resp_decode", stage_allocs("resp_decode"), "count", "per lookup, thread-local");

    // The latency window closes when the response frame has arrived, so
    // the client's response decode is reported but not part of the sum.
    let in_process_us: f64 =
        STAGES.iter().zip(&p50).filter(|(s, _)| **s != "resp_decode").map(|(_, v)| v).sum::<f64>()
            / 1e3;
    let gap = untraced_p50 - in_process_us;
    out.add("server.frontend_gap_p50_us", gap, "us", "untraced lookup p50 - sum of stage p50s");
    out.add("trace.overhead_us", traced_p50 - untraced_p50, "us", "traced - untraced lookup p50");

    out.preamble
        .push("reconciliation of the lookup p50 (in-process stage p50s + front-end gap):".into());
    for (stage, v) in STAGES.iter().zip(&p50) {
        let note =
            if *stage == "resp_decode" { "  (client side, after the timed window)" } else { "" };
        out.preamble.push(format!("  {stage:<28} {:>10.3} us{note}", v / 1e3));
    }
    out.preamble.push(format!("  {:<28} {:>10.3} us", "frontend + loopback gap", gap));
    out.preamble
        .push(format!("  {:<28} {:>10.3} us  (untraced lookup p50)", "total", untraced_p50));
    out.preamble.push(format!(
        "  tracing overhead: traced lookup p50 {traced_p50:.3} us vs untraced {untraced_p50:.3} us"
    ));
}

/// (d) The commit layer under `Durability::Always`. No workload serves
/// with `Always`: fsync-bound latencies on the shared VM's disk varied
/// tenfold between runs, beyond any bound an end-to-end metric may carry.
/// So a store of the probe's own, behind its own `Vfs` wrapper, takes
/// votes from two threads through `ReputationDb::submit_vote`, as two
/// connections would, and its fsyncs and group commits are measured.
fn durable_probe(
    pop: &Population,
    seed: u64,
    dir: &Path,
    epoch: Instant,
    out: &mut Output,
    lines: &mut Vec<String>,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let vfs = TraceVfs::new(epoch);
    let store = harness::open_store(dir, DurabilityMode::Always, Some(&vfs))?;
    let db = ReputationDb::new(Arc::clone(&store), SecretPepper::new(harness::PEPPER.to_vec()));
    let now = SystemClock.now();
    let mut rng = Rng::new(seed, 41);
    let users = &pop.users[..PROBE_USERS.min(pop.users.len())];
    let titles = &pop.titles[..PROBE_TITLES.min(pop.titles.len())];
    for (user, name) in users.iter().enumerate() {
        let email = Population::email(user);
        let token = db
            .register_user(name, &Population::password(user), &email, now, &mut rng)
            .map_err(|e| format!("probe user: {e}"))?;
        db.activate_user(name, &token).map_err(|e| format!("probe activate: {e}"))?;
    }
    for id in titles {
        db.register_software(id, "probe.exe", 1, None, None, now)
            .map_err(|e| format!("probe title: {e}"))?;
    }

    let before = store.stats();
    vfs.recording(true);
    let per_thread: Vec<Result<Vec<u64>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..loadgen::CONNECTIONS)
            .map(|conn| {
                let db = &db;
                scope.spawn(move || {
                    let mut rng = Rng::new(seed, 50 + conn as u64);
                    let mut took = Vec::with_capacity(PROBE_VOTES);
                    for _ in 0..PROBE_VOTES {
                        let user = rng.below(users.len() / 2) * 2 + conn;
                        let title = &titles[rng.below(titles.len())];
                        let started = Instant::now();
                        db.submit_vote(
                            &users[user],
                            title,
                            1 + rng.below(10) as u8,
                            Vec::new(),
                            now,
                        )
                        .map_err(|e| format!("probe vote: {e}"))?;
                        took.push(started.elapsed().as_nanos() as u64);
                    }
                    Ok(took)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("probe panicked".into())))
            .collect()
    });
    vfs.recording(false);
    let after = store.stats();
    let mut vote_ns = Vec::new();
    for took in per_thread {
        vote_ns.extend(took?);
    }
    let spans = vfs.drain();
    dump_io(lines, "durable_probe", &spans);
    let (syncs, _, mut sync_ns) = io_stats(&spans, IoOp::Sync);
    let votes = vote_ns.len() as f64;
    let n = vote_ns.len();
    out.add(
        "storage.durable_vote_us_p50",
        quantile(&mut vote_ns, 0.5) as f64 / 1e3,
        "us",
        format!("n={n}, Always probe, {} threads", loadgen::CONNECTIONS),
    );
    out.add(
        "storage.fsync_us_p50",
        quantile(&mut sync_ns, 0.5) as f64 / 1e3,
        "us",
        format!("n={syncs}, Always probe"),
    );
    out.add(
        "storage.fsync_us_p99",
        quantile(&mut sync_ns, 0.99) as f64 / 1e3,
        "us",
        format!("n={syncs}, Always probe"),
    );
    out.add("storage.fsyncs_per_write", ratio(syncs as f64, votes), "count", "Always probe");
    out.add(
        "storage.group_depth_max",
        after.max_group_depth as f64,
        "count",
        "Store::stats of the probe store",
    );
    out.add(
        "storage.fsyncs_saved",
        (after.fsyncs_saved - before.fsyncs_saved) as f64,
        "count",
        "Store::stats delta, Always probe",
    );
    drop(db);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Direct timings of the database layer and the aggregation engine.
fn core_probes(node: &Node, pop: &Population, seed: u64, out: &mut Output) -> Result<(), String> {
    let db = node.db();
    let mut rng = Rng::new(seed, 31);
    let mut miss_ns = Vec::new();
    for _ in 0..CORE_PROBES {
        let id = &pop.titles[rng.below(pop.titles.len())];
        db.purge_read_caches();
        let started = Instant::now();
        db.software_report(id).map_err(|e| format!("report: {e}"))?;
        miss_ns.push(started.elapsed().as_nanos() as u64);
    }
    out.add(
        "core.report_miss_us",
        quantile(&mut miss_ns, 0.5) as f64 / 1e3,
        "us",
        format!("n={CORE_PROBES}, after purge_read_caches"),
    );

    let now = SystemClock.now();
    let mut vote_ns = Vec::new();
    for _ in 0..CORE_PROBES {
        let user = &pop.users[rng.below(pop.users.len())];
        let title = &pop.titles[rng.below(pop.titles.len())];
        let started = Instant::now();
        db.submit_vote(user, title, 1 + rng.below(10) as u8, Vec::new(), now)
            .map_err(|e| format!("vote: {e}"))?;
        vote_ns.push(started.elapsed().as_nanos() as u64);
    }
    out.add(
        "core.submit_vote_us",
        quantile(&mut vote_ns, 0.5) as f64 / 1e3,
        "us",
        format!("n={CORE_PROBES}, Os"),
    );

    // Aggregation passes: the maintenance thread's, plus one now over the
    // marks the run left.
    let started = Instant::now();
    let titles = db.force_aggregation_incremental(now).map_err(|e| format!("aggregate: {e}"))?;
    let mut passes = node.agg_log.lock().unwrap_or_else(|e| e.into_inner()).clone();
    passes.push((started.elapsed().as_secs_f64() * 1e3, titles));
    let ms: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let per_pass: Vec<f64> = passes.iter().map(|p| p.1 as f64).collect();
    out.add(
        "core.agg_incremental_ms",
        report::median_f(&ms),
        "ms",
        format!("median of {} passes", passes.len()),
    );
    out.add("core.agg_titles_per_pass", report::median_f(&per_pass), "count", "median");
    Ok(())
}
