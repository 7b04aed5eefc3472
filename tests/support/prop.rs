//! Workload interpreter for the aggregation-equivalence property: a
//! randomized [`Op`] sequence over small fixed pools of users and
//! software titles, replayed in lockstep against an incrementally and a
//! fully aggregating database ([`run_equivalence_case`]). Generation and
//! shrinking live in the vendored `proptest` (see `tests/properties.rs`).

use softrep_core::clock::{Timestamp, DAY_SECS};
use softrep_core::db::ReputationDb;
use softrep_core::moderation::{ModerationDecision, ModerationPolicy};
use softrep_crypto::salted::SecretPepper;
use softrep_storage::Store;

use rand::rngs::StdRng;
use rand::SeedableRng;

use std::sync::Arc;

/// Users available to a workload (small pool: collisions — re-votes,
/// repeated remarks, trust churn on the same account — are the interesting
/// cases).
pub const USERS: [&str; 6] = ["alice", "bob", "carol", "dave", "erin", "frank"];

/// Software pool size.
pub const TITLES: usize = 8;

/// The `i`-th software id in the pool (40 hex chars, like a SHA-1).
pub fn title(i: usize) -> String {
    format!("{i:040x}")
}

/// One step of a randomized workload. Every variant is deterministic given
/// its fields, so a `Vec<Op>` replays identically on any database.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `user` votes `score` on `title`, reporting `behaviours`.
    Vote { user: usize, title: usize, score: u8, behaviours: Vec<String> },
    /// `user` comments on `title`.
    Comment { user: usize, title: usize },
    /// `user` remarks (positive/negative) on comment `nth` modulo the
    /// number created so far (a no-op before the first) — may target an
    /// unpublished or own comment, which must fail identically on both
    /// databases.
    Remark { user: usize, nth: usize, positive: bool },
    /// Direct trust adjustment (the server does this for analyzer
    /// agreement and administrative corrections).
    AdjustTrust { user: usize, delta_half_points: i64 },
    /// Administrator decides the oldest pending comment.
    Moderate { approve: bool },
    /// Advance simulated time by `days` (drives weekly trust caps and the
    /// 24 h schedule).
    AdvanceDays { days: u64 },
    /// Run an aggregation batch on both databases and compare.
    Aggregate,
}

/// Which aggregation path a database under test uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    Incremental,
    Full,
}

/// A database plus the interpreter state needed to replay a workload.
pub struct Replay {
    pub db: ReputationDb,
    pub mode: AggMode,
    /// Comment ids in creation order (`Op::Remark.nth` indexes this).
    comment_ids: Vec<u64>,
}

impl Replay {
    /// Fresh in-memory database with the user/software pools installed.
    /// `PreApproval` moderation so `Op::Moderate` has a queue to work on.
    pub fn new(mode: AggMode, seed: u64) -> Self {
        let db = ReputationDb::with_moderation(
            Arc::new(Store::in_memory()),
            SecretPepper::new(b"prop-pepper".to_vec()),
            ModerationPolicy::PreApproval,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let t0 = Timestamp(0);
        for (i, user) in USERS.iter().enumerate() {
            let email = format!("{user}@example.test");
            let token = db
                .register_user(user, "hunter2", &email, t0, &mut rng)
                .expect("pool user registers");
            db.activate_user(user, &token).expect("pool user activates");
            // Stagger initial trust so weights differ from the start.
            db.adjust_trust(user, i as f64, t0).expect("initial trust");
        }
        for i in 0..TITLES {
            db.register_software(
                &title(i),
                &format!("app{i}.exe"),
                1024 + i as u64,
                None,
                None,
                t0,
            )
            .expect("pool software registers");
        }
        Replay { db, mode, comment_ids: Vec::new() }
    }

    /// Apply one op at simulated time `now`. Domain errors (self-remark,
    /// remark on a pending comment, no pending comment to moderate) are
    /// swallowed — the point is that both databases take the *same* path,
    /// which the caller checks by comparing end states.
    pub fn apply(&mut self, op: &Op, now: Timestamp) {
        match op {
            Op::Vote { user, title: t, score, behaviours } => {
                self.db
                    .submit_vote(USERS[*user], &title(*t), *score, behaviours.clone(), now)
                    .expect("pool votes are always valid");
            }
            Op::Comment { user, title: t } => {
                let id = self
                    .db
                    .submit_comment(USERS[*user], &title(*t), "observed behaviour", now)
                    .expect("pool comments are always valid");
                self.comment_ids.push(id);
            }
            Op::Remark { user, nth, positive } => {
                if let Some(&id) = self.comment_ids.get(nth % self.comment_ids.len().max(1)) {
                    // May fail (pending comment, self-remark): identically
                    // on both databases.
                    let _ = self.db.remark_comment(USERS[*user], id, *positive, now);
                }
            }
            Op::AdjustTrust { user, delta_half_points } => {
                self.db
                    .adjust_trust(USERS[*user], *delta_half_points as f64 * 0.5, now)
                    .expect("trust adjustment never errors for known users");
            }
            Op::Moderate { approve } => {
                let pending = self.db.pending_comments().expect("pending scan");
                if let Some(first) = pending.first() {
                    let decision = if *approve {
                        ModerationDecision::Approve
                    } else {
                        ModerationDecision::Reject
                    };
                    self.db.moderate_comment(first.id, decision, now).expect("moderation applies");
                }
            }
            Op::AdvanceDays { .. } => {}
            Op::Aggregate => {
                match self.mode {
                    AggMode::Incremental => self.db.force_aggregation_incremental(now),
                    AggMode::Full => self.db.force_aggregation_full(now),
                }
                .expect("aggregation never errors");
            }
        }
    }
}

/// Replay `ops` against an incremental and a full database in lockstep and
/// return a divergence description, or `None` if the rating tables agree
/// (content bytes, `computed_at` excluded) at every `Op::Aggregate`. A
/// final `Op::Aggregate` is always appended, so every workload — shrunk
/// ones included — checks equivalence at least once.
pub fn run_equivalence_case(seed: u64, ops: &[Op]) -> Option<String> {
    let mut incremental = Replay::new(AggMode::Incremental, seed);
    let mut full = Replay::new(AggMode::Full, seed);
    let mut now = Timestamp(1_000);
    for (step, op) in ops.iter().chain([&Op::Aggregate]).enumerate() {
        incremental.apply(op, now);
        full.apply(op, now);
        if let Op::Aggregate = op {
            if let Some(diff) = diverged(&incremental.db, &full.db) {
                return Some(format!("step {step}: {diff}"));
            }
        }
        now = match op {
            Op::AdvanceDays { days } => Timestamp(now.0 + days * DAY_SECS),
            // Every op takes a little wall time so records carry distinct
            // timestamps.
            _ => Timestamp(now.0 + 17),
        };
    }
    None
}

/// Compare the two databases' full rating tables by content bytes.
pub fn diverged(incremental: &ReputationDb, full: &ReputationDb) -> Option<String> {
    let a = incremental.ratings_snapshot().expect("snapshot A");
    let b = full.ratings_snapshot().expect("snapshot B");
    if a.len() != b.len() {
        return Some(format!("rating counts differ: incremental {} vs full {}", a.len(), b.len()));
    }
    for (ra, rb) in a.iter().zip(&b) {
        if ra.software_id != rb.software_id {
            return Some(format!(
                "rating key order differs: {} vs {}",
                ra.software_id, rb.software_id
            ));
        }
        if ra.content_bytes() != rb.content_bytes() {
            return Some(format!(
                "rating for {} diverged: incremental {:?} vs full {:?}",
                ra.software_id, ra, rb
            ));
        }
    }
    None
}
