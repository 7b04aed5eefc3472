//! The repository's end-to-end benchmark.
//!
//! One seeded, single-process harness: it assembles what `softrep-serverd`
//! runs, loads a workload's population, and drives the server over real
//! loopback sockets. See `perfbench/README.md` for the workloads, metrics
//! and how to read the traced run.
//!
//! ```text
//! perfbench --workload lookup_hot|vote_burst|replica_catchup
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones.

mod alloc;
mod harness;
mod loadgen;
mod report;
mod rng;
mod trace;
mod tracevfs;
mod workload;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use harness::{CatchUp, Node};
use loadgen::{Mode, Pass};
use report::Output;
use workload::{Population, Spec};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Rounds (set-ups) per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Keep every n-th lookup answer for the in-process comparison.
const SAMPLE_EVERY: u64 = 50;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 6, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if workload::spec(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}; got '{}'",
            workload::NAMES.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else { std::process::exit(2) };
    let work = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    let result = if args.trace {
        trace::run(&spec, &args, &work)
    } else {
        run_untraced(&spec, &args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(output) => output.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// The untraced run: every end-to-end metric. It runs in [`SETUPS`]
/// rounds, each on a fresh server: set-up, then the round's share of the
/// open loop cut into slices with a catch-up after each, then the checks.
/// The workload's catch-ups ([`Spec::catchups`]) are spread evenly over
/// every slice of the run, so a slow spell of the shared machine lasting a
/// few seconds reaches only a few of them.
/// The latency figures, printed in the table, are quartiles over every
/// slice's windows (see [`report::lower_quartile`]).
fn run_untraced(spec: &Spec, args: &Args, work: &Path) -> Result<Output, String> {
    let mut out = Output::default();
    let mut setup_s = Vec::new();
    let mut catches: Vec<CatchUp> = Vec::new();
    let mut opens = Vec::new();
    let slices = spec.catchups.div_ceil(SETUPS).max(1);
    let slots = SETUPS * slices;
    let open_block = Duration::from_secs_f64(args.seconds as f64 / slots as f64);
    for round in 0..SETUPS {
        let started = Instant::now();
        let (node, pop) =
            harness::setup(spec, args.seed, &work.join(format!("primary{round}")), None)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let rejected_before = Rejections::read(&node);

        let rate = Mode::Open { rate_rps: spec.rate_rps };
        let mut consistent = true;
        let first = opens.len();
        for slice in 0..slices {
            let salt = open_salt(slice);
            opens.push(loadgen::run(
                node.addr,
                spec,
                &pop,
                args.seed,
                salt,
                rate,
                open_block,
                SAMPLE_EVERY,
            ));
            // Slot `slot` of `slots` takes a catch-up when the count due by
            // its end (spread evenly, rounded up so that a single catch-up
            // comes first, in a fresh process) exceeds the count done.
            let slot = round * slices + slice + 1;
            if catches.len() < (spec.catchups * slot).div_ceil(slots) {
                let catch = harness::catch_up(&node, &work.join("replica"), None)?;
                consistent &= catch.consistent;
                catches.push(catch);
            }
        }
        let round_passes: Vec<&Pass> = opens[first..].iter().collect();
        verify(spec, &node, &pop, &round_passes, consistent, &rejected_before, &mut out);
        node.shutdown();
    }

    out.add("setup_s", report::median_f(&setup_s), "s", format!("median of {SETUPS} set-ups"));
    // Latency goes in the table only: on a shared machine it does not
    // repeat within any bound an end-to-end metric may carry, so the traced
    // run reports it (and the closed-loop throughput) as unbounded
    // per-layer figures.
    for (name, samples) in [
        ("lookup", opens.iter().map(|p| p.lookups.as_slice()).collect::<Vec<_>>()),
        ("write", opens.iter().map(|p| p.writes.as_slice()).collect()),
    ] {
        let (p50, note) = report::latency(0.5, &samples);
        out.preamble.push(format!("  {name} p50 {p50:.1} us ({note}; not a bounded metric)"));
    }
    // All catch-ups pooled, as if one long one: the machine runs a catch-up
    // at one of two speeds, and a median of a dozen flips between them as
    // their shares change from run to run, where the pooled rate moves
    // with the shares.
    let entries: u64 = catches.iter().map(|c| c.entries).sum();
    let seconds: f64 = catches.iter().map(|c| c.seconds).sum();
    let rates: Vec<f64> = catches.iter().map(|c| c.entries as f64 / c.seconds).collect();
    let note = match catches.len() {
        1 => format!("{entries} entries, one catch-up"),
        n => format!(
            "{entries} entries in {seconds:.3} s over {n} catch-ups (per catch-up quartiles {:.0}-{:.0})",
            report::lower_quartile(&rates),
            report::upper_quartile(&rates)
        ),
    };
    out.add("catchup_entries_per_s", entries as f64 / seconds, "entries/s", note);
    let each: Vec<String> = catches
        .iter()
        .map(|c| format!("{:.0}/{:.3}", c.entries as f64 / c.seconds, c.seconds))
        .collect();
    out.preamble.push(format!("  catch-ups in run order (entries/s / s): {}", each.join(" ")));
    out.add("peak_rss_mb", report::peak_rss_mb(), "MiB", "VmHWM");
    let mut lag: Vec<u64> = opens.iter().flat_map(|p| p.lag_ns.iter().copied()).collect();
    let sent: u64 = opens.iter().map(|p| p.sent).sum();
    out.preamble.insert(
        0,
        format!(
            "perfbench {} seed {}: offered {:.0} req/s open loop for {} s, send lag p99 {:.1} us",
            spec.name,
            args.seed,
            sent as f64 / args.seconds as f64,
            args.seconds,
            report::quantile(&mut lag, 0.99) as f64 / 1e3
        ),
    );
    Ok(out)
}

/// Request-stream salt of a round's open-loop slice. Slice 0 draws the
/// stream the traced run replays; later slices draw fresh streams, past
/// the salts of the traced run's closed loop (1) and baseline (2).
fn open_salt(slice: usize) -> u64 {
    if slice == 0 {
        0
    } else {
        2 + slice as u64
    }
}

/// Flood-guard and overload rejections, read from their per-instance
/// sources.
pub struct Rejections {
    pub flood: u64,
    pub overload: u64,
}

impl Rejections {
    pub fn read(node: &Node) -> Self {
        Rejections {
            flood: node.server.flood_guard().stats().rejected,
            overload: node.frontend.as_ref().map_or(0, |f| f.stats().rejected_overload),
        }
    }
}

/// Every correctness check. Failed requests and failed checks both count
/// into `failed`; requests and checks both count into `attempted`.
pub fn verify(
    spec: &Spec,
    node: &Node,
    pop: &Population,
    passes: &[&Pass],
    replica_consistent: bool,
    before: &Rejections,
    out: &mut Output,
) {
    for pass in passes {
        out.attempted += pass.sent;
        out.failed += pass.failed;
        out.problems.extend(pass.failures.iter().cloned());
    }

    // Sampled lookup answers equal the in-process handler's answer.
    if spec.compare_lookups {
        let mut mismatches = 0u64;
        for pass in passes {
            for (request, wire) in &pass.samples {
                out.attempted += 1;
                if node.server.handle(request, "perfbench-check").encode() != *wire {
                    mismatches += 1;
                }
            }
        }
        if mismatches > 0 {
            out.failed += mismatches;
            out.problems
                .push(format!("{mismatches} sampled lookups differ from the in-process answer"));
        }
    }

    // Every acknowledged vote reads back with its last acknowledged score.
    let mut last: HashMap<(usize, usize), u8> = HashMap::new();
    for pass in passes {
        for &(user, title, score) in &pass.votes {
            last.insert((user, title), score);
        }
    }
    let mut lost = 0u64;
    for (&(user, title), &score) in &last {
        out.attempted += 1;
        match node.db().vote_of(&pop.users[user], &pop.titles[title]) {
            Ok(Some(vote)) if vote.score == score => {}
            _ => lost += 1,
        }
    }
    if lost > 0 {
        out.failed += lost;
        out.problems.push(format!("{lost} acknowledged votes do not read back"));
    }

    out.attempted += 1;
    if !replica_consistent {
        out.failed += 1;
        out.problems.push("replica differs from the primary after catch-up".into());
    }

    let after = Rejections::read(node);
    if after.flood != before.flood || after.overload != before.overload {
        out.problems.push(format!(
            "flood guard rejected {} and front end shed {} requests",
            after.flood - before.flood,
            after.overload - before.overload
        ));
    }
}
