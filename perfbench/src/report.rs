//! Result assembly: exact quantiles, the human-readable table (with the
//! sample count behind every percentile), and the final JSON line.

use std::fmt::Write as _;

/// Nearest-rank quantile of `values` (sorted in place). 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Nearest-rank lower quartile: the figure of the better windows of a
/// latency. The machine this benchmark runs on is shared; slow spells of
/// several seconds, during which even the load generator runs milliseconds
/// late, hit one run in five and would decide any whole-run figure. A
/// window figure reduced by its lower quartile moves only when a change
/// moves most of the run.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (v.len() as f64 * 0.25).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// Nearest-rank upper quartile, the same reduction for a rate.
pub fn upper_quartile(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let rank = (v.len() as f64 * 0.75).ceil() as usize;
    v.get(rank.max(1) - 1).copied().unwrap_or(0.0)
}

/// Median, averaging the two middle values of an even count.
pub fn median_f(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Requests per latency window: enough that a window's p99 has ten
/// samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 1_000;
pub const MAX_WINDOWS: usize = 10;

/// Per-window `q`-quantiles (µs) of `(send time, latency)` samples: the
/// samples are cut into consecutive windows of at least
/// [`MIN_WINDOW_SAMPLES`] requests, at most `max_windows`. Also returns
/// the fewest samples above the quantile in any window.
pub fn window_quantiles(samples: &[(u64, u64)], q: f64, max_windows: usize) -> (Vec<f64>, usize) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let windows = (sorted.len() / MIN_WINDOW_SAMPLES).clamp(1, max_windows.max(1));
    let per = (sorted.len() / windows).max(1);
    let (mut values, mut beyond_min) = (Vec::new(), usize::MAX);
    for window in sorted.chunks(per).filter(|w| w.len() * 2 >= per) {
        let mut latencies: Vec<u64> = window.iter().map(|(_, l)| *l).collect();
        let v = quantile(&mut latencies, q);
        beyond_min = beyond_min.min(latencies.iter().filter(|l| **l > v).count());
        values.push(v as f64 / 1e3);
    }
    (values, beyond_min)
}

/// The reduction behind [`Output::add_latency`]: the figure in µs and a
/// note with the sample and window counts.
pub fn latency(q: f64, passes: &[&[(u64, u64)]]) -> (f64, String) {
    let (mut values, mut beyond_min, mut n) = (Vec::new(), usize::MAX, 0);
    for samples in passes {
        let (v, beyond) = window_quantiles(samples, q, MAX_WINDOWS / passes.len().max(1));
        values.extend(v);
        beyond_min = beyond_min.min(beyond);
        n += samples.len();
    }
    // Fewer than ten samples beyond a tail percentile make it a guess; the
    // table says so rather than hiding the figure.
    let caveat = if q > 0.5 && beyond_min < 10 { " (too few for a p99)" } else { "" };
    let note = format!(
        "n={n}, lower quartile of {} windows, >={beyond_min} beyond each{caveat}",
        values.len()
    );
    (lower_quartile(&values), note)
}

/// Completions per second in each of `slices` equal slices of
/// `[0, window_s)`.
pub fn slice_rates(done_ns: &[u64], window_s: f64, slices: usize) -> Vec<f64> {
    let slice_ns = window_s * 1e9 / slices as f64;
    let mut counts = vec![0u64; slices];
    for t in done_ns {
        let i = (*t as f64 / slice_ns) as usize;
        if let Some(c) = counts.get_mut(i) {
            *c += 1;
        }
    }
    counts.iter().map(|c| *c as f64 / (slice_ns / 1e9)).collect()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value, or its source, for the table.
    pub note: String,
}

#[derive(Default)]
pub struct Output {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra lines printed above the table (e.g. the reconciliation).
    pub preamble: Vec<String>,
}

impl Output {
    pub fn add(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric { name: name.into(), value, unit, note: note.into() });
    }

    /// Add `<prefix>_p50_us` or `<prefix>_p99_us` (`q` = 0.5 or 0.99) of
    /// `(send time, latency)` samples from one or more passes: the lower
    /// quartile of the per-window quantiles over all passes (see
    /// [`window_quantiles`] and [`lower_quartile`]).
    pub fn add_latency(&mut self, prefix: &str, q: f64, passes: &[&[(u64, u64)]]) {
        let name = format!("{prefix}_p{}_us", (q * 100.0).round());
        let (value, note) = latency(q, passes);
        self.add(name, value, "us", note);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn print(&self) {
        for line in &self.preamble {
            println!("{line}");
        }
        for m in &self.metrics {
            println!("  {:<38} {:>14.4} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
