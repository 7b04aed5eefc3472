//! Crash-schedule explorer: enumerate every durable-effect site of a
//! recorded workload, reconstruct the on-disk image a crash there would
//! leave, and prove the production recovery path restores a consistent
//! prefix — no lost committed batch, no half-applied batch, no panic.
//!
//! The matrix is (durable site k) × (crash style): `DurableOnly` models a
//! clean power cut, `TornHalf` a tear in the unsynced tail, `AllPending`
//! an OS that flushed everything the process wrote. See DESIGN.md §13.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use softwareputation::core::clock::Timestamp;
use softwareputation::core::db::ReputationDb;
use softwareputation::crypto::salted::SecretPepper;
use softwareputation::storage::failpoint::{self, FailAction};
use softwareputation::storage::{
    durable_image_at, CrashStyle, DurabilityMode, Fault, SimVfs, Store, StoreOptions, WriteBatch,
};

#[path = "support/crash.rs"]
mod crash;
#[path = "support/tempdir.rs"]
mod tempdir;

use crash::{check_recovery, materialize, record_canonical_workload, site_label, Recording};
use tempdir::TempDir;

const STYLES: [CrashStyle; 3] =
    [CrashStyle::DurableOnly, CrashStyle::TornHalf, CrashStyle::AllPending];

/// Recover the image a crash at every durable site of `rec` leaves —
/// `k == rec.sites` is the "no crash" end of the range — under every
/// crash style; `workload` prefixes each assertion label.
fn recover_at_every_site(rec: &Recording, tag: &str, workload: &str) {
    let dir = TempDir::new(tag);
    for k in 0..=rec.sites {
        for style in STYLES {
            let label = format!("{workload}{}", site_label(rec, k, style));
            let image = durable_image_at(&rec.log, k, style);
            materialize(&image, dir.path());
            check_recovery(dir.path(), rec, k, &label);
        }
    }
}

/// The tentpole assertion: the canonical workload exposes a rich schedule
/// (ISSUE acceptance: at least 25 distinct durable-effect sites) and the
/// recovery invariant holds at every one of them, under every crash style.
#[test]
fn canonical_workload_recovers_at_every_durable_site() {
    let rec = record_canonical_workload(18, &[5, 11]);
    assert!(
        rec.sites >= 25,
        "canonical workload only produced {} durable sites; the explorer \
         needs >= 25 to cover append/sync/rotate/snapshot/retire schedules",
        rec.sites
    );
    recover_at_every_site(&rec, "crash-matrix", "");
}

/// The final image (all sites durable) recovers the complete history.
#[test]
fn final_image_recovers_every_batch() {
    let rec = record_canonical_workload(12, &[7]);
    let dir = TempDir::new("crash-final");
    let image = durable_image_at(&rec.log, rec.sites, CrashStyle::DurableOnly);
    materialize(&image, dir.path());
    let n = check_recovery(dir.path(), &rec, rec.sites, "final image");
    assert_eq!(n, rec.total_batches, "fully-synced image must recover every batch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// Randomized exploration: the workload shape (batch count, compaction
    /// points) is drawn from `seed`. A failure reports the
    /// `PROPTEST_SEED_OFFSET` that replays it.
    #[test]
    fn randomized_workload_recovers_at_every_durable_site(seed in 0..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);

        let total = rng.gen_range(8..=24);
        let compact_after: Vec<usize> = (0..total).filter(|_| rng.gen_bool(0.2)).collect();
        let rec = record_canonical_workload(total, &compact_after);
        let workload = format!("{total} batches, compact after {compact_after:?}: ");
        recover_at_every_site(&rec, "crash-random", &workload);
    }
}

/// Accumulator consistency across crashes: whatever vote prefix survives,
/// the incremental aggregation path over the recovered store must agree
/// with a from-scratch full aggregation — a crash may shorten history but
/// never fork the ratings.
#[test]
fn recovered_accumulators_match_full_reaggregation_at_every_site() {
    let sw = |tag: u8| -> String { format!("{tag:02x}").repeat(20) };

    // Record a vote-heavy DB workload over the simulator.
    let vfs = SimVfs::new();
    let store = Store::open_with_vfs(
        "/sim/crash-db",
        StoreOptions { durability: DurabilityMode::Always, shards: 4 },
        Arc::new(vfs.clone()),
    )
    .expect("open sim store");
    let db = ReputationDb::new(Arc::new(store), SecretPepper::new("it-pepper"));
    let mut rng = StdRng::seed_from_u64(42);
    for (i, user) in ["alice", "bob", "carol"].iter().enumerate() {
        let token = db
            .register_user(user, "pw", &format!("{user}@x.example"), Timestamp(i as u64), &mut rng)
            .expect("register");
        db.activate_user(user, &token).expect("activate");
    }
    for tag in 1..=3u8 {
        db.register_software(&sw(tag), &format!("app{tag}.exe"), 512, None, None, Timestamp(5))
            .expect("register software");
    }
    let mut t = 10u64;
    for round in 0..4u64 {
        for user in ["alice", "bob", "carol"] {
            for tag in 1..=3u8 {
                let verdict = u8::try_from((round + u64::from(tag)) % 10).expect("verdict fits");
                db.submit_vote(user, &sw(tag), verdict, vec!["spyware".into()], Timestamp(t))
                    .expect("vote");
                t += 1;
            }
        }
        db.force_aggregation_incremental(Timestamp(t)).expect("aggregate");
        t += 1;
    }
    db.store().sync().expect("final sync");
    drop(db);

    let log = vfs.event_log();
    let sites = vfs.durable_site_count();
    assert!(sites >= 10, "DB workload produced only {sites} durable sites");

    let dir = TempDir::new("crash-db");
    for k in 0..=sites {
        let image = durable_image_at(&log, k, CrashStyle::DurableOnly);
        materialize(&image, dir.path());
        let db = ReputationDb::new(
            Arc::new(Store::open(dir.path()).unwrap_or_else(|e| panic!("site {k}: reopen: {e}"))),
            SecretPepper::new("it-pepper"),
        );
        // Incremental catch-up over whatever survived...
        db.force_aggregation_incremental(Timestamp(10_000))
            .unwrap_or_else(|e| panic!("site {k}: incremental aggregation: {e}"));
        let incremental: Vec<Vec<u8>> = db
            .ratings_snapshot()
            .unwrap_or_else(|e| panic!("site {k}: snapshot: {e}"))
            .iter()
            .map(|r| r.content_bytes())
            .collect();
        // ...must agree with replaying every recovered vote from scratch.
        db.force_aggregation_full(Timestamp(10_001))
            .unwrap_or_else(|e| panic!("site {k}: full aggregation: {e}"));
        let full: Vec<Vec<u8>> = db
            .ratings_snapshot()
            .unwrap_or_else(|e| panic!("site {k}: snapshot: {e}"))
            .iter()
            .map(|r| r.content_bytes())
            .collect();
        assert_eq!(
            incremental, full,
            "site {k}/{sites}: incremental accumulators diverge from full reaggregation"
        );
    }
}

/// ISSUE acceptance: an injected fsync failure surfaces as a typed storage
/// error — never a panic — and the store keeps serving reads; clearing the
/// failpoint restores write service on a fresh handle.
#[test]
fn injected_fsync_failure_is_a_typed_error_not_a_panic() {
    let vfs = SimVfs::new();
    let store = Store::open_with_vfs(
        "/sim/fsync-fault",
        StoreOptions { durability: DurabilityMode::Always, shards: 2 },
        Arc::new(vfs.clone()),
    )
    .expect("open sim store");

    let mut batch = WriteBatch::new();
    batch.put("t", b"k0".to_vec(), b"v0".to_vec());
    store.apply(&batch).expect("healthy apply");

    vfs.failpoints().set("vfs.sync", FailAction::Every(Fault::Err));
    let mut batch = WriteBatch::new();
    batch.put("t", b"k1".to_vec(), b"v1".to_vec());
    let err = store.apply(&batch).expect_err("apply must fail while fsync is failing");
    let msg = err.to_string();
    assert!(msg.contains("vfs.sync"), "error should name the failing site, got: {msg}");
    assert!(vfs.failpoints().trip_count("vfs.sync") > 0, "failpoint never tripped");

    // Reads keep working; the durable image was not corrupted.
    assert_eq!(store.get("t", b"k0"), Some(b"v0".to_vec()));

    // Clearing the fault and reopening recovers: batch 0 is there, and new
    // writes succeed again. (The failed flush may have poisoned the live
    // WAL handle by design — reopen is the documented recovery.)
    vfs.failpoints().clear("vfs.sync");
    drop(store);
    let store = Store::open_with_vfs(
        "/sim/fsync-fault",
        StoreOptions { durability: DurabilityMode::Always, shards: 2 },
        Arc::new(vfs.clone()),
    )
    .expect("reopen after clearing fault");
    assert_eq!(store.get("t", b"k0"), Some(b"v0".to_vec()));
    let mut batch = WriteBatch::new();
    batch.put("t", b"k2".to_vec(), b"v2".to_vec());
    store.apply(&batch).expect("writes recover after the fault clears");
}

/// The global registry (the `SOFTREP_FAILPOINTS` backend) injects faults
/// into the real filesystem VFS too, scoped by path substring so other
/// tests in this binary are unaffected.
#[test]
fn global_failpoints_reach_the_real_vfs() {
    let dir = TempDir::new("global-fp-reach");
    let scope = dir
        .path()
        .file_name()
        .and_then(|n| n.to_str())
        .expect("temp dir name is utf-8")
        .to_string();

    let store = Store::open_with(
        dir.path(),
        StoreOptions { durability: DurabilityMode::Always, shards: 2 },
    )
    .expect("open real store");
    let mut batch = WriteBatch::new();
    batch.put("t", b"k0".to_vec(), b"v0".to_vec());
    store.apply(&batch).expect("healthy apply");

    failpoint::arm_global_scoped("vfs.sync", &scope, FailAction::Every(Fault::Err));
    let mut batch = WriteBatch::new();
    batch.put("t", b"k1".to_vec(), b"v1".to_vec());
    let err = store.apply(&batch).expect_err("global failpoint must fail the apply");
    assert!(err.to_string().contains("vfs.sync"), "unexpected error: {err}");
    failpoint::disarm_global("vfs.sync");

    drop(store);
    let store = Store::open(dir.path()).expect("reopen after disarming");
    assert_eq!(store.get("t", b"k0"), Some(b"v0".to_vec()));
    let mut batch = WriteBatch::new();
    batch.put("t", b"k2".to_vec(), b"v2".to_vec());
    store.apply(&batch).expect("writes recover once the global point is disarmed");
}
