//! Deterministic failpoint registry for fault-injection testing.
//!
//! A *failpoint* is a named interception site inside the storage engine's
//! I/O layer (see [`crate::vfs`] for the catalogue of site names). Each
//! registered point carries a [`FailAction`] describing when it fires and
//! a [`Fault`] describing what the intercepted operation should do when
//! it does. Everything is deterministic: `Nth` fires on an exact hit
//! count, `Chance` draws from a SplitMix64 stream seeded by the caller,
//! so a failing schedule is replayable from its seed alone.
//!
//! Two registries exist:
//!
//! * **Instance registries** — every [`crate::vfs::SimVfs`] owns a
//!   private [`Failpoints`], so concurrent tests in one binary can
//!   inject faults without seeing each other's configuration.
//! * **The global registry** — consulted by [`crate::vfs::RealVfs`] and
//!   loaded once from the `SOFTREP_FAILPOINTS` environment variable, so
//!   integration binaries can be fault-injected from the outside without
//!   code changes. It is armed only when at least one point is
//!   configured; the disarmed fast path is a single relaxed atomic load,
//!   which is what keeps the production `RealVfs` zero-cost.
//!
//! Spec grammar (comma-separated, whitespace ignored):
//!
//! ```text
//! point[~path-substring]=action
//! action := off | err | torn | err@N | torn@N | err%P:SEED | torn%P:SEED
//! ```
//!
//! `err@3` fires an I/O error on the third evaluation only; `torn%25:7`
//! tears one in four operations on average, drawn from seed 7. The
//! optional `~substring` scopes the point to paths containing the
//! substring, so one test's store directory can be targeted without
//! tripping unrelated stores in the same process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

/// What a fired failpoint does to the intercepted operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the call with an injected I/O error; no state changes.
    Err,
    /// Persist a *prefix* of the operation's effect, then fail: a torn
    /// append or a short fsync. On the real filesystem this degrades to
    /// [`Fault::Err`] — only [`crate::vfs::SimVfs`] can tear
    /// deterministically.
    Torn,
}

/// When a failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Never fires (registered but dormant).
    Off,
    /// Fires on every evaluation.
    Every(Fault),
    /// Fires on exactly the `n`-th evaluation (1-based), then goes quiet.
    Nth(Fault, u64),
    /// Fires with probability `percent`/100 per evaluation, drawn from a
    /// private SplitMix64 stream seeded with the given seed.
    Chance(Fault, u8, u64),
}

/// One registered point: its action plus evaluation bookkeeping.
#[derive(Debug)]
struct Point {
    action: FailAction,
    /// Only paths containing this substring are intercepted.
    path_filter: Option<String>,
    /// Evaluations that passed the path filter.
    hits: u64,
    /// Evaluations that actually fired a fault.
    trips: u64,
    /// Private RNG state for `Chance`.
    rng: u64,
}

/// A set of named failpoints. Cheap when empty: evaluation takes one
/// mutex acquisition and a hash lookup, and the [`crate::vfs::RealVfs`]
/// path never reaches it unless the global registry is armed.
#[derive(Debug, Default)]
pub struct Failpoints {
    points: Mutex<HashMap<String, Point>>,
}

impl Failpoints {
    /// An empty registry.
    pub fn new() -> Self {
        Failpoints::default()
    }

    /// Register (or replace) `name` with `action`, unscoped.
    pub fn set(&self, name: &str, action: FailAction) {
        self.insert(name, None, action);
    }

    /// Register (or replace) `name`, firing only for paths that contain
    /// `path_substring`.
    pub fn set_scoped(&self, name: &str, path_substring: &str, action: FailAction) {
        self.insert(name, Some(path_substring.to_string()), action);
    }

    fn insert(&self, name: &str, path_filter: Option<String>, action: FailAction) {
        let seed = match action {
            FailAction::Chance(_, _, seed) => seed,
            _ => 0,
        };
        self.points
            .lock()
            .insert(name.to_string(), Point { action, path_filter, hits: 0, trips: 0, rng: seed });
    }

    /// Remove `name` entirely.
    pub fn clear(&self, name: &str) {
        self.points.lock().remove(name);
    }

    /// Remove every registered point.
    pub fn clear_all(&self) {
        self.points.lock().clear();
    }

    /// True when no point is registered.
    pub fn is_empty(&self) -> bool {
        self.points.lock().is_empty()
    }

    /// How many times `name` actually fired.
    pub fn trip_count(&self, name: &str) -> u64 {
        self.points.lock().get(name).map_or(0, |p| p.trips)
    }

    /// Evaluate the point `name` against `path`. Returns the fault to
    /// inject, or `None` to let the operation proceed. Each call that
    /// passes the path filter advances the point's hit counter, which is
    /// what `Nth` and `Chance` are keyed on.
    pub fn evaluate(&self, name: &str, path: &str) -> Option<Fault> {
        let mut points = self.points.lock();
        let point = points.get_mut(name)?;
        if let Some(filter) = point.path_filter.as_deref() {
            if !path.contains(filter) {
                return None;
            }
        }
        point.hits += 1;
        let fired = match point.action {
            FailAction::Off => None,
            FailAction::Every(fault) => Some(fault),
            FailAction::Nth(fault, n) => (point.hits == n).then_some(fault),
            FailAction::Chance(fault, percent, _) => {
                let draw = splitmix64(&mut point.rng) % 100;
                (draw < u64::from(percent)).then_some(fault)
            }
        };
        if fired.is_some() {
            point.trips += 1;
        }
        fired
    }

    /// Parse a spec string (see module docs for the grammar) and register
    /// every point in it. Returns the number of points registered.
    pub fn apply_spec(&self, spec: &str) -> Result<usize, String> {
        let mut count = 0usize;
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let Some((target, action)) = clause.split_once('=') else {
                return Err(format!("failpoint clause `{clause}` is missing `=action`"));
            };
            let action = parse_action(action.trim())?;
            let target = target.trim();
            match target.split_once('~') {
                Some((name, filter)) => self.set_scoped(name.trim(), filter.trim(), action),
                None => self.set(target, action),
            }
            count += 1;
        }
        Ok(count)
    }
}

/// Parse one action token: `off`, `err`, `torn`, `err@N`, `torn@N`,
/// `err%P:SEED`, `torn%P:SEED`.
fn parse_action(token: &str) -> Result<FailAction, String> {
    if token == "off" {
        return Ok(FailAction::Off);
    }
    if let Some((kind, rest)) = token.split_once('@') {
        let fault = parse_fault(kind)?;
        let n: u64 = rest.parse().map_err(|_| format!("bad hit count `{rest}` in `{token}`"))?;
        if n == 0 {
            return Err(format!("hit count in `{token}` is 1-based; 0 never fires"));
        }
        return Ok(FailAction::Nth(fault, n));
    }
    if let Some((kind, rest)) = token.split_once('%') {
        let fault = parse_fault(kind)?;
        let Some((percent, seed)) = rest.split_once(':') else {
            return Err(format!("`{token}` needs the form kind%percent:seed"));
        };
        let percent: u8 =
            percent.parse().map_err(|_| format!("bad percent `{percent}` in `{token}`"))?;
        if percent > 100 {
            return Err(format!("percent {percent} > 100 in `{token}`"));
        }
        let seed: u64 = seed.parse().map_err(|_| format!("bad seed `{seed}` in `{token}`"))?;
        return Ok(FailAction::Chance(fault, percent, seed));
    }
    Ok(FailAction::Every(parse_fault(token)?))
}

fn parse_fault(token: &str) -> Result<Fault, String> {
    match token {
        "err" => Ok(Fault::Err),
        "torn" => Ok(Fault::Torn),
        other => Err(format!("unknown fault kind `{other}` (expected err|torn)")),
    }
}

/// One SplitMix64 step (Steele et al.), inlined so the storage crate
/// stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// True once the global registry holds at least one point. Checked with a
/// relaxed load on every `RealVfs` operation — the entire production cost
/// of the failpoint system when faults are not being injected.
static GLOBAL_ARMED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Failpoints> = OnceLock::new();

/// The process-wide registry consulted by `RealVfs`. First use loads
/// `SOFTREP_FAILPOINTS` (a malformed spec is reported to stderr and
/// ignored — a fault injector must never take the process down).
pub fn global() -> &'static Failpoints {
    GLOBAL.get_or_init(|| {
        let points = Failpoints::new();
        if let Ok(spec) = std::env::var("SOFTREP_FAILPOINTS") {
            match points.apply_spec(&spec) {
                Ok(n) if n > 0 => GLOBAL_ARMED.store(true, Ordering::Relaxed),
                Ok(_) => {}
                Err(e) => eprintln!("SOFTREP_FAILPOINTS ignored: {e}"),
            }
        }
        points
    })
}

/// Force the `SOFTREP_FAILPOINTS` load. `RealVfs` construction calls this
/// so env-configured points are armed before the first I/O, while the
/// per-operation fast path stays a single atomic load.
pub fn init_from_env() {
    let _ = global();
}

/// Register a point on the global registry and arm it. Test-only in
/// spirit, but exported so integration binaries can script faults.
pub fn arm_global(name: &str, action: FailAction) {
    global().set(name, action);
    GLOBAL_ARMED.store(true, Ordering::Relaxed);
}

/// Like [`arm_global`] but scoped to paths containing `path_substring`,
/// which is how concurrent tests sharing one process avoid tripping each
/// other's stores.
pub fn arm_global_scoped(name: &str, path_substring: &str, action: FailAction) {
    global().set_scoped(name, path_substring, action);
    GLOBAL_ARMED.store(true, Ordering::Relaxed);
}

/// Remove one point from the global registry; disarms the fast path when
/// the registry ends up empty.
pub fn disarm_global(name: &str) {
    let points = global();
    points.clear(name);
    if points.is_empty() {
        GLOBAL_ARMED.store(false, Ordering::Relaxed);
    }
}

/// Evaluate a global point. Returns `None` without touching the registry
/// when nothing is armed.
pub fn global_evaluate(name: &str, path: &str) -> Option<Fault> {
    if !GLOBAL_ARMED.load(Ordering::Relaxed) {
        return None;
    }
    global().evaluate(name, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unregistered_points_never_fire() {
        let fps = Failpoints::new();
        assert_eq!(fps.evaluate("vfs.sync", "/x/WAL"), None);
        assert!(fps.is_empty());
    }

    #[test]
    fn every_and_off_actions() {
        let fps = Failpoints::new();
        fps.set("vfs.sync", FailAction::Every(Fault::Err));
        assert_eq!(fps.evaluate("vfs.sync", "/x"), Some(Fault::Err));
        assert_eq!(fps.evaluate("vfs.sync", "/x"), Some(Fault::Err));
        assert_eq!(fps.trip_count("vfs.sync"), 2);
        fps.set("vfs.sync", FailAction::Off);
        assert_eq!(fps.evaluate("vfs.sync", "/x"), None);
        fps.clear_all();
        assert!(fps.is_empty());
    }

    #[test]
    fn nth_fires_exactly_once_on_the_right_hit() {
        let fps = Failpoints::new();
        fps.set("vfs.append", FailAction::Nth(Fault::Torn, 3));
        assert_eq!(fps.evaluate("vfs.append", "/x"), None);
        assert_eq!(fps.evaluate("vfs.append", "/x"), None);
        assert_eq!(fps.evaluate("vfs.append", "/x"), Some(Fault::Torn));
        assert_eq!(fps.evaluate("vfs.append", "/x"), None);
        assert_eq!(fps.trip_count("vfs.append"), 1);
    }

    #[test]
    fn path_filter_scopes_interception_and_hit_counting() {
        let fps = Failpoints::new();
        fps.set_scoped("vfs.sync", "store-a", FailAction::Nth(Fault::Err, 2));
        // Non-matching paths neither fire nor advance the hit counter.
        assert_eq!(fps.evaluate("vfs.sync", "/tmp/store-b/WAL"), None);
        assert_eq!(fps.evaluate("vfs.sync", "/tmp/store-a/WAL"), None);
        assert_eq!(fps.evaluate("vfs.sync", "/tmp/store-b/WAL"), None);
        assert_eq!(fps.evaluate("vfs.sync", "/tmp/store-a/WAL"), Some(Fault::Err));
    }

    #[test]
    fn chance_stream_is_deterministic_per_seed() {
        let draw = |seed: u64| {
            let fps = Failpoints::new();
            fps.set("p", FailAction::Chance(Fault::Err, 30, seed));
            (0..64).map(|_| fps.evaluate("p", "/x").is_some()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7), "same seed, same schedule");
        assert_ne!(draw(7), draw(8), "different seeds diverge");
        let fired = draw(7).iter().filter(|f| **f).count();
        assert!(fired > 0 && fired < 64, "30% chance fires some but not all of 64 draws");
    }

    #[test]
    fn spec_parsing_round_trips_every_form() {
        let fps = Failpoints::new();
        let n = fps.apply_spec("a=err, b=torn@2, c~sub=err%50:9, d=off,").expect("spec must parse");
        assert_eq!(n, 4);
        assert_eq!(fps.evaluate("a", "/x"), Some(Fault::Err));
        assert_eq!(fps.evaluate("b", "/x"), None);
        assert_eq!(fps.evaluate("b", "/x"), Some(Fault::Torn));
        assert_eq!(fps.evaluate("d", "/x"), None);
        // The scoped point only sees matching paths.
        assert_eq!(fps.evaluate("c", "/other"), None);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        let fps = Failpoints::new();
        for bad in ["a", "a=banana", "a=err@0", "a=err@x", "a=err%200:1", "a=err%50"] {
            let err = fps.apply_spec(bad).expect_err(bad);
            assert!(!err.is_empty(), "error message for `{bad}` must not be empty");
        }
    }

    #[test]
    fn global_registry_is_disarmed_by_default_and_armable() {
        // Uses a name no other test shares: the registry is process-wide.
        assert_eq!(global_evaluate("test.fp.global", "/x"), None);
        arm_global_scoped("test.fp.global", "magic-path", FailAction::Every(Fault::Err));
        assert_eq!(global_evaluate("test.fp.global", "/elsewhere"), None);
        assert_eq!(global_evaluate("test.fp.global", "/magic-path/WAL"), Some(Fault::Err));
        disarm_global("test.fp.global");
        assert_eq!(global_evaluate("test.fp.global", "/magic-path/WAL"), None);
    }
}
