//! Property tests over the paper's rules and the machinery under them.
//!
//! The central one: the incremental aggregation engine is behaviourally
//! equivalent to the paper's full 24 h batch. Each case replays one random
//! workload (votes, comments, remarks, trust adjustments, moderation, time
//! advances) against two databases in lockstep — one aggregating
//! incrementally, one with the paper-faithful full scan — and asserts
//! their entire rating tables agree bit-for-bit (modulo `computed_at`,
//! which the full path restamps on clean titles) at every batch.
//!
//! Every property runs on the vendored `proptest`: `PROPTEST_CASES`
//! overrides each test's case count and `PROPTEST_SEED_OFFSET` (decimal or
//! `0x` hex) selects the generated stream. A failure is shrunk — a
//! diverging workload to a 1-minimal op sequence — and reported with the
//! `PROPTEST_SEED_OFFSET` that replays it.

#[path = "support/prop.rs"]
mod prop;
#[path = "support/repl_oracle.rs"]
mod repl_oracle;
#[path = "support/tempdir.rs"]
mod tempdir;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use prop::{run_equivalence_case, Op, TITLES, USERS};
use softrep_core::aggregate::weighted_mean;
use softrep_core::clock::Timestamp;
use softrep_core::trust::{TrustEngine, MAX_TRUST, MIN_TRUST, WEEKLY_TRUST_GROWTH_CAP};

/// One workload step; votes dominate, as they are the aggregation input.
fn op() -> impl Strategy<Value = Op> {
    const BEHAVIOURS: [&str; 4] = ["popup_ads", "tracking", "bad_uninstall", "toolbar"];
    let user = || 0..USERS.len();
    let behaviours = vec(0..BEHAVIOURS.len(), 0..3)
        .prop_map(|picks| picks.into_iter().map(|i| BEHAVIOURS[i].to_string()).collect());
    prop_oneof![
        40 => (user(), 0..TITLES, 1u8..=10, behaviours)
            .prop_map(|(user, title, score, behaviours)| Op::Vote { user, title, score, behaviours }),
        15 => (user(), 0..TITLES).prop_map(|(user, title)| Op::Comment { user, title }),
        15 => (user(), 0usize..64, 0u8..10)
            .prop_map(|(user, nth, roll)| Op::Remark { user, nth, positive: roll < 6 }),
        // −3.0 .. +8.0 in half-point steps: crosses the clamp floor and the
        // weekly growth cap.
        10 => (user(), -6i64..=16)
            .prop_map(|(user, delta_half_points)| Op::AdjustTrust { user, delta_half_points }),
        7 => (0u8..10).prop_map(|roll| Op::Moderate { approve: roll < 7 }),
        7 => (1u64..=3).prop_map(|days| Op::AdvanceDays { days }),
        6 => Just(Op::Aggregate),
    ]
}

/// A vote weight in 0.01..=100.0, or zero a fifth of the time: zero
/// weights must contribute nothing.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![1 => Just(0.0), 4 => (1u32..=10_000).prop_map(|w| f64::from(w) / 100.0)]
}

/// A u64 with a random magnitude: raw 64-bit draws alone almost never
/// exercise the low buckets, so shift by a random amount first.
fn sample() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Workloads average 60 ops; with no minimum length a diverging one
    /// shrinks to the few ops that matter.
    #[test]
    fn incremental_aggregation_equals_full_batch_on_random_workloads(
        seed in 0..u64::MAX,
        ops in vec(op(), 0..120),
    ) {
        prop_assert_eq!(run_equivalence_case(seed, &ops), None);
    }

    #[test]
    fn weighted_mean_stays_in_score_bounds_and_is_none_iff_weightless(
        pairs in vec((1u8..=10, weight()), 0..30),
    ) {
        let any_weight = pairs.iter().any(|(_, w)| *w > 0.0);
        match weighted_mean(pairs.iter().copied()) {
            None => prop_assert!(!any_weight, "None only when no positive weight exists"),
            Some(mean) => {
                prop_assert!(any_weight);
                prop_assert!((1.0..=10.0).contains(&mean), "mean {mean} outside score bounds");
            }
        }
    }

    /// Steps are (delta in −5.0 .. +7.0 in half-point steps, jump of 0–9 days).
    #[test]
    fn trust_engine_respects_clamp_and_weekly_cap_under_random_deltas(
        steps in vec((0u32..25, 0u64..10), 0..60),
    ) {
        let mut record = TrustEngine::new_user(USERS[0], Timestamp(0));
        let mut now = Timestamp(0);
        let mut week_start_trust = record.trust;
        let mut current_week = now.week_index();
        for (half_points, days) in steps {
            let delta = f64::from(half_points) * 0.5 - 5.0;
            now = Timestamp(now.0 + days * 86_400);
            if now.week_index() != current_week {
                current_week = now.week_index();
                week_start_trust = record.trust;
            }
            let before = record.trust;
            let applied = TrustEngine::apply_delta(&mut record, delta, now);
            prop_assert!(
                (MIN_TRUST..=MAX_TRUST).contains(&record.trust),
                "trust {} escaped [{MIN_TRUST}, {MAX_TRUST}]",
                record.trust
            );
            prop_assert!(
                (record.trust - before - applied).abs() < 1e-9,
                "apply_delta return value must equal the actual change"
            );
            prop_assert!(
                record.trust - week_start_trust <= WEEKLY_TRUST_GROWTH_CAP + 1e-9,
                "weekly growth {} exceeds the +{WEEKLY_TRUST_GROWTH_CAP} cap",
                record.trust - week_start_trust
            );
        }
    }

    // -----------------------------------------------------------------
    // Observability histogram (crates/obs): the log-linear histogram must
    // classify *arbitrary* u64 samples without losing any, keep its bucket
    // walk monotone, bound every quantile it reports, and merge like the
    // commutative monoid the sharded exposition assumes it is.
    // -----------------------------------------------------------------

    #[test]
    fn histogram_buckets_are_monotone_and_lose_no_samples(samples in vec(sample(), 1..=200)) {
        use softrep_obs::{Histogram, HistogramSnapshot};
        let hist = Histogram::new();
        for &v in &samples {
            hist.record(v);
        }
        let n = samples.len();
        let expected_sum = samples.iter().fold(0u64, |sum, &v| sum.wrapping_add(v));
        let max = samples.iter().copied().max().unwrap_or(0);
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count() as usize, n, "samples lost or double-counted");
        prop_assert_eq!(snap.sum(), expected_sum, "sum drifted from the samples");
        // The cumulative walk is sorted by bound and non-decreasing in
        // count, ends exactly at n, and every sample's bucket bound holds
        // the sample (bound_of(v) >= v — the readout never understates).
        let walk = snap.cumulative_buckets();
        for pair in walk.windows(2) {
            prop_assert!(pair[0].0 < pair[1].0, "bucket bounds out of order: {walk:?}");
            prop_assert!(pair[0].1 <= pair[1].1, "cumulative count decreased: {walk:?}");
        }
        prop_assert_eq!(walk.last().map(|&(_, c)| c), Some(n as u64));
        prop_assert!(HistogramSnapshot::bound_of(max) >= max);
    }

    #[test]
    fn histogram_quantiles_bound_the_true_order_statistics(mut samples in vec(sample(), 1..=300)) {
        use softrep_obs::{Histogram, HistogramSnapshot};
        let hist = Histogram::new();
        for &v in &samples {
            hist.record(v);
        }
        samples.sort_unstable();
        let n = samples.len();
        let snap = hist.snapshot();
        for &q in &[0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n as u64) as usize;
            let true_value = samples[rank - 1];
            let reported = snap.quantile(q);
            // The readout is the upper bound of the bucket holding the
            // rank-th sample: never below the true order statistic, and
            // no looser than that bucket's own bound.
            prop_assert!(reported >= true_value, "q={q}: reported {reported} < true {true_value}");
            prop_assert!(
                reported <= HistogramSnapshot::bound_of(true_value),
                "q={q}: reported {reported} overshoots the bucket bound of {true_value}"
            );
        }
        // Degenerate q is clamped, not misread.
        prop_assert_eq!(snap.quantile(-1.0), snap.quantile(0.0));
        prop_assert_eq!(snap.quantile(2.0), snap.quantile(1.0));
    }

    #[test]
    fn histogram_merge_is_associative_commutative_with_identity(
        a in vec(sample(), 0..60),
        b in vec(sample(), 0..60),
        c in vec(sample(), 0..60),
    ) {
        use softrep_obs::{Histogram, HistogramSnapshot};
        let shard = |samples: &[u64]| {
            let hist = Histogram::new();
            for &v in samples {
                hist.record(v);
            }
            hist.snapshot()
        };
        let (a, b, c) = (shard(&a), shard(&b), shard(&c));
        prop_assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)), "merge is not associative");
        prop_assert_eq!(a.merge(&b), b.merge(&a), "merge is not commutative");
        let empty = HistogramSnapshot::empty();
        prop_assert_eq!(a.merge(&empty), a, "empty is not a right identity");
        prop_assert_eq!(empty.merge(&a), a, "empty is not a left identity");
        // Merging is lossless: totals add up.
        let merged = a.merge(&b);
        prop_assert_eq!(merged.count(), a.count() + b.count());
    }
}

#[test]
fn max_reachable_is_monotone_and_clamped() {
    let mut previous = 0.0;
    for weeks in 0..200 {
        let reachable = TrustEngine::max_reachable(weeks);
        assert!(reachable >= previous, "max_reachable must be monotone in account age");
        assert!(reachable <= MAX_TRUST);
        previous = reachable;
    }
    // Long-lived accounts saturate at the ceiling.
    assert_eq!(TrustEngine::max_reachable(10_000), MAX_TRUST);
    // Sanity: the constant relationship from the paper's model — one week
    // of membership buys at most one cap's worth of growth.
    assert!(TrustEngine::max_reachable(1) <= MIN_TRUST + 2.0 * WEEKLY_TRUST_GROWTH_CAP);
}

// ---------------------------------------------------------------------
// Crash-recovery property: single-fault schedules (DESIGN.md §13)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Random workloads under random single-fault `SimVfs` schedules:
    /// every storage operation either succeeds or returns a typed error
    /// (the fault never panics), and reopening the durable image after a
    /// crash at a random point recovers a gapless, batch-atomic prefix
    /// containing every batch whose apply was confirmed durable before the
    /// crash. The schedule is drawn while the case runs, from `seed`.
    #[test]
    fn single_fault_crash_schedules_recover_every_committed_batch(seed in 0..u64::MAX) {
        use std::sync::Arc;

        use softwareputation::storage::failpoint::FailAction;
        use softwareputation::storage::{
            durable_image_at, CrashStyle, DurabilityMode, Fault, SimVfs, Store, StoreOptions,
            WriteBatch,
        };
        use tempdir::TempDir;

        const TREE_A: &str = "prop_a";
        const TREE_B: &str = "prop_b";
        const SITES: [&str; 6] =
            ["vfs.append", "vfs.sync", "vfs.write", "vfs.rename", "vfs.remove", "vfs.create"];

        let key = |i: u64| format!("key-{i:04}").into_bytes();
        let value = |i: u64| format!("value-{i:04}").into_bytes();
        let mut rng = StdRng::seed_from_u64(seed);

        // One fault, armed after open so the initial recovery is clean.
        let site = SITES[rng.gen_range(0..SITES.len())];
        let fault = if rng.gen_bool(0.5) { Fault::Torn } else { Fault::Err };
        let trigger = rng.gen_range(0..14);

        let vfs = SimVfs::new();
        let store = Store::open_with_vfs(
            "/sim/prop-crash",
            StoreOptions { durability: DurabilityMode::Always, shards: 2 },
            Arc::new(vfs.clone()),
        )
        .unwrap_or_else(|e| panic!("pristine open failed: {e}"));
        vfs.failpoints().set(site, FailAction::Nth(fault, trigger));

        // Random workload: numbered two-tree batches with syncs and
        // compactions mixed in. Everything may fail (typed) once the
        // fault trips; committed = the applies that returned Ok.
        let batches = rng.gen_range(6..20);
        let mut committed_at: Vec<(u64, usize)> = Vec::new();
        for i in 0..batches {
            let mut batch = WriteBatch::new();
            batch.put(TREE_A, key(i), value(i));
            batch.put(TREE_B, key(i), value(i));
            if store.apply(&batch).is_ok() {
                // `Always` mode: Ok means group-commit durable.
                committed_at.push((i, vfs.durable_site_count()));
            }
            if rng.gen_bool(0.15) {
                let _ = store.sync();
            }
            if rng.gen_bool(0.15) {
                let _ = store.compact();
            }
        }
        drop(store);

        // Crash at a random durable site with a random style, or at the
        // very end (every durable site applied).
        let log = vfs.event_log();
        let sites = vfs.durable_site_count();
        let k = rng.gen_range(0..=sites);
        let style =
            [CrashStyle::DurableOnly, CrashStyle::TornHalf, CrashStyle::AllPending][rng.gen_range(0..3usize)];
        let image = durable_image_at(&log, k, style);

        let dir = TempDir::new("prop-crash");
        for (path, bytes) in &image {
            let name = path.file_name().expect("image paths have file names");
            std::fs::write(dir.path().join(name), bytes).expect("write image file");
        }

        let detail =
            format!("fault {site}={fault:?}@{trigger}, crash at site {k}/{sites} style {style:?}");
        let store = Store::open(dir.path())
            .unwrap_or_else(|e| panic!("{detail}: recovery failed: {e}"));
        let mut recovered = 0u64;
        for i in 0..batches {
            match (store.get(TREE_A, &key(i)), store.get(TREE_B, &key(i))) {
                (Some(av), Some(bv)) => {
                    assert_eq!(av, value(i), "{detail}: batch {i} corrupt");
                    assert_eq!(bv, value(i), "{detail}: batch {i} corrupt");
                    assert_eq!(recovered, i, "{detail}: gap before batch {i}");
                    recovered += 1;
                }
                (None, None) => {}
                (a, b) => panic!(
                    "{detail}: half-applied batch {i} ({TREE_A}={} {TREE_B}={})",
                    a.is_some(),
                    b.is_some()
                ),
            }
        }
        let required = committed_at.iter().filter(|&&(_, at)| at <= k).count() as u64;
        assert!(
            recovered >= required,
            "{detail}: lost committed batches — {recovered} recovered, {required} required"
        );
    }
}

// ---------------------------------------------------------------------
// Replication property: gapless applied prefix (DESIGN.md §15)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random primary workloads tailed under random kill/reconnect schedules:
    /// pages cut mid-apply (a killed replica), stale resubscribes (a lost
    /// response redelivered), replica reopens, primary reopens (some after a
    /// torn append), and compactions forcing snapshot bootstraps. After every
    /// step the replica's applied watermark `w` must identify a **gapless
    /// prefix**: its user-visible contents equal the fold of the primary's
    /// committed batches `1..=w`, `w` never exceeds the primary's committed
    /// sequence, and never regresses. At quiesce the replica drains to full
    /// byte equality. Every page the primary serves must equal the one the
    /// whole-log reference reader (`tests/support/repl_oracle.rs`) computes.
    /// The schedule is drawn while the case runs, from `seed`.
    #[test]
    fn replica_watermark_is_always_a_gapless_prefix_under_random_schedules(seed in 0..u64::MAX) {
        use std::collections::BTreeMap;
        use std::path::Path;
        use std::sync::Arc;

        use softwareputation::storage::{FailAction, Fault};

        use softwareputation::storage::replication::{
            applied_watermark, apply_replicated, install_snapshot,
        };
        use softwareputation::storage::{
            DurabilityMode, ReplRead, SimVfs, Store, StoreOptions, WriteBatch,
        };

        /// One committed primary batch, mirrored test-side so the expected
        /// replica state at any watermark can be refolded exactly.
        type Mutation = (String, Vec<u8>, Option<Vec<u8>>);

        fn open(vfs: &SimVfs, path: &str) -> Store {
            Store::open_with_vfs(
                path,
                StoreOptions { durability: DurabilityMode::Os, shards: 2 },
                Arc::new(vfs.clone()),
            )
            .expect("sim open")
        }

        /// The replica's user-visible contents as a flat map.
        fn contents(store: &Store) -> BTreeMap<(String, Vec<u8>), Vec<u8>> {
            let mut map = BTreeMap::new();
            for name in store.tree_names() {
                if name.starts_with("__repl") {
                    continue;
                }
                for (key, value) in store.scan_all(&name) {
                    map.insert((name.clone(), key), value);
                }
            }
            map
        }

        /// The expected contents after applying committed batches `1..=w`.
        fn fold(log: &[Vec<Mutation>], w: u64) -> BTreeMap<(String, Vec<u8>), Vec<u8>> {
            let mut map = BTreeMap::new();
            for ops in log.iter().take(w as usize) {
                for (tree, key, value) in ops {
                    match value {
                        Some(v) => {
                            map.insert((tree.clone(), key.clone()), v.clone());
                        }
                        None => {
                            map.remove(&(tree.clone(), key.clone()));
                        }
                    }
                }
            }
            map
        }

        const PRIMARY_DIR: &str = "/sim/repl-prop-p";

        /// `primary.replication_read`, checked against the reference reader.
        fn read_page(
            primary: &Store,
            vfs: &SimVfs,
            from_seq: u64,
            max_entries: usize,
            max_bytes: usize,
            ctx: &dyn Fn(&str) -> String,
        ) -> ReplRead {
            let page = primary.replication_read(from_seq, max_entries, max_bytes).expect("read");
            let reference = repl_oracle::whole_log_read(
                vfs,
                Path::new(PRIMARY_DIR),
                from_seq,
                primary.committed_seq(),
                max_entries,
                max_bytes,
            );
            assert_eq!(
                page,
                reference,
                "{}",
                ctx(&format!("page from {from_seq} caps {max_entries}/{max_bytes} != whole-log read"))
            );
            page
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = |step: usize, detail: &str| format!("step {step}: {detail}");

        let primary_vfs = SimVfs::new();
        let replica_vfs = SimVfs::new();
        let mut primary = open(&primary_vfs, PRIMARY_DIR);
        let mut replica = open(&replica_vfs, "/sim/repl-prop-r");

        // The committed log, mirrored op-for-op: log[i] is batch seq i+1.
        let mut log: Vec<Vec<Mutation>> = Vec::new();
        let mut writes = 0usize;

        let steps = rng.gen_range(40..100);
        for step in 0..steps {
            let w_before = applied_watermark(&replica);
            let step_ctx = |detail: &str| ctx(step, detail);
            match rng.gen_range(0..100) {
                // A burst of puts, long enough to span several WAL index
                // strides, so pages start between index marks.
                0..=2 => {
                    for _ in 0..rng.gen_range(20..170) {
                        let key = format!("k{}", rng.gen_range(0..40)).into_bytes();
                        let v = vec![b'b'; rng.gen_range(1..=60)];
                        primary.put("alpha", key.clone(), v.clone()).expect("put");
                        log.push(vec![("alpha".to_string(), key, Some(v))]);
                        writes += 1;
                    }
                }
                // Mixed write on the primary (put / delete / multi-op).
                3..=44 => {
                    let tree = ["alpha", "beta", "gamma"][rng.gen_range(0..3usize)].to_string();
                    let key = format!("k{}", rng.gen_range(0..40)).into_bytes();
                    let mut ops: Vec<Mutation> = Vec::new();
                    if rng.gen_bool(0.2) && writes > 0 {
                        primary.delete(&tree, key.clone()).expect("delete");
                        ops.push((tree, key, None));
                    } else if rng.gen_bool(0.15) {
                        let mut batch = WriteBatch::new();
                        for j in 0..rng.gen_range(2..6) {
                            let k = format!("k{}-{j}", rng.gen_range(0..40)).into_bytes();
                            let v = vec![b'm'; rng.gen_range(1..=60)];
                            batch.put(&tree, k.clone(), v.clone());
                            ops.push((tree.clone(), k, Some(v)));
                        }
                        primary.apply(&batch).expect("apply");
                    } else {
                        let v = vec![b'v'; rng.gen_range(1..=120)];
                        primary.put(&tree, key.clone(), v.clone()).expect("put");
                        ops.push((tree, key, Some(v)));
                    }
                    log.push(ops);
                    writes += 1;
                }
                // Poll a page with random caps; apply a random prefix of
                // it (a kill mid-page leaves the rest undelivered).
                45..=69 => {
                    let w = applied_watermark(&replica);
                    let max_entries =
                        if rng.gen_bool(0.2) { 100 } else { rng.gen_range(1..=6) };
                    let max_bytes = [32usize, 256, 4096, 1 << 20][rng.gen_range(0..4usize)];
                    match read_page(&primary, &primary_vfs, w, max_entries, max_bytes, &step_ctx) {
                        ReplRead::Entries { entries, .. } => {
                            let cut = if rng.gen_bool(0.25) {
                                rng.gen_range(0..entries.len().max(1))
                            } else {
                                entries.len()
                            };
                            for e in entries.iter().take(cut) {
                                apply_replicated(&replica, e)
                                    .unwrap_or_else(|e| panic!("{}", ctx(step, &e.to_string())));
                            }
                        }
                        ReplRead::SnapshotNeeded { .. } => {
                            let (_, bytes) = primary.export_snapshot();
                            install_snapshot(&replica, &bytes)
                                .unwrap_or_else(|e| panic!("{}", ctx(step, &e.to_string())));
                        }
                    }
                }
                // Stale resubscribe: a lost response makes the replica
                // re-request from an old watermark; redelivered entries
                // at or below the real watermark must be skipped.
                70..=77 => {
                    let back = if rng.gen_bool(0.25) { rng.gen_range(0..200) } else { rng.gen_range(0..5) };
                    let w = applied_watermark(&replica).saturating_sub(back);
                    if let ReplRead::Entries { entries, .. } =
                        read_page(&primary, &primary_vfs, w, 8, 4096, &step_ctx)
                    {
                        for e in &entries {
                            apply_replicated(&replica, e)
                                .unwrap_or_else(|e| panic!("{}", ctx(step, &e.to_string())));
                        }
                    }
                }
                // Replica crash + recovery.
                78..=85 => {
                    drop(replica);
                    replica = open(&replica_vfs, "/sim/repl-prop-r");
                }
                // Primary crash + recovery (sequence numbering must
                // resume exactly). Half the time the crash tears a write
                // mid-append first: the write fails, so it never
                // committed, and reopen truncates the torn tail.
                86..=92 => {
                    if rng.gen_bool(0.5) {
                        primary_vfs.failpoints().set("vfs.append", FailAction::Every(Fault::Torn));
                        let torn = primary.put("alpha", b"torn".to_vec(), vec![b't'; 40]);
                        primary_vfs.failpoints().clear_all();
                        assert!(torn.is_err(), "{}", ctx(step, "torn append reported success"));
                    }
                    drop(primary);
                    primary = open(&primary_vfs, PRIMARY_DIR);
                    assert_eq!(
                        primary.committed_seq(),
                        log.len() as u64,
                        "{}",
                        ctx(step, "primary ledger diverged from the committed log on reopen")
                    );
                }
                // Primary compaction: retires the log suffix, so lagging
                // subscribers must be told to bootstrap.
                _ => {
                    primary.compact().expect("compact");
                }
            }

            // The invariant, after every step.
            let w = applied_watermark(&replica);
            assert!(
                w <= primary.committed_seq(),
                "{}",
                ctx(step, &format!("watermark {w} beyond committed {}", primary.committed_seq()))
            );
            assert!(
                w >= w_before || w_before == 0,
                "{}",
                ctx(step, &format!("watermark regressed {w_before} -> {w}"))
            );
            assert_eq!(
                contents(&replica),
                fold(&log, w),
                "{}",
                ctx(step, &format!("contents are not the gapless prefix 1..={w}"))
            );
        }

        // Quiesce: drain to full equality.
        let mut guard = 0;
        loop {
            let w = applied_watermark(&replica);
            if w == primary.committed_seq() {
                break;
            }
            guard += 1;
            assert!(guard < 10_000, "drain did not converge");
            let drain_ctx = |detail: &str| format!("drain: {detail}");
            match read_page(&primary, &primary_vfs, w, 64, 1 << 20, &drain_ctx) {
                ReplRead::Entries { entries, .. } => {
                    for e in &entries {
                        apply_replicated(&replica, e).expect("drain apply");
                    }
                }
                ReplRead::SnapshotNeeded { .. } => {
                    let (_, bytes) = primary.export_snapshot();
                    install_snapshot(&replica, &bytes).expect("drain install");
                }
            }
        }
        assert_eq!(
            primary.content_dump(),
            replica.content_dump(),
            "stores must be byte-identical at quiesce"
        );
    }
}
