//! Assembles what `softrep-serverd` runs — a file-backed store, the
//! reputation database, the server with the binary's configuration, the
//! epoll front end and a maintenance thread — and loads a workload's
//! seeded population into it. Also runs replica catch-ups against it.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use softrep_core::clock::{Clock, SystemClock};
use softrep_core::db::ReputationDb;
use softrep_crypto::salted::SecretPepper;
use softrep_proto::{Request, Response};
use softrep_server::repl::ReplicaTail;
use softrep_server::tcp::{FrontendServer, TcpServerConfig};
use softrep_server::{ReputationServer, ServerConfig};
use softrep_storage::replication::applied_watermark;
use softrep_storage::{DurabilityMode, Store, StoreOptions};

use crate::rng::Rng;
use crate::tracevfs::TraceVfs;
use crate::workload::{Population, Spec};

pub const PEPPER: &[u8] = b"perfbench-pepper";

/// The server's own RNG seed (sessions, puzzles, the pseudonym key). Fixed
/// rather than derived from `--seed`: the key search dominates set-up
/// time, and it must cost the same in every run.
const SERVER_RNG_SEED: u64 = 0x5EED_0F5E;

/// The flood guard's burst and refill. `softrep-serverd` throttles any
/// single source after 60 requests (120/h refill) and has no flag for it;
/// the load generator is one source, so only these two knobs are raised.
/// The guard still runs on every request.
const FLOOD_ALLOWANCE: u32 = 1_000_000_000;

/// The release binary's server configuration, with the flood allowance
/// raised as described above.
fn server_config() -> ServerConfig {
    ServerConfig {
        puzzle_difficulty: 12,
        pseudonym_key_bits: 1024,
        flood_capacity: FLOOD_ALLOWANCE,
        flood_refill_per_hour: FLOOD_ALLOWANCE,
        ..ServerConfig::default()
    }
}

pub fn open_store(
    dir: &Path,
    durability: DurabilityMode,
    vfs: Option<&Arc<TraceVfs>>,
) -> Result<Arc<Store>, String> {
    let options = StoreOptions { durability, ..StoreOptions::default() };
    let store = match vfs {
        Some(vfs) => Store::open_with_vfs(dir, options, Arc::clone(vfs) as _),
        None => Store::open_with(dir, options),
    };
    store.map(Arc::new).map_err(|e| format!("open store {}: {e}", dir.display()))
}

fn new_server(store: Arc<Store>, config: ServerConfig) -> Arc<ReputationServer> {
    let db = ReputationDb::new(store, SecretPepper::new(PEPPER.to_vec()));
    Arc::new(ReputationServer::new(db, Arc::new(SystemClock), config, SERVER_RNG_SEED))
}

/// Aggregation passes run by the maintenance thread: (milliseconds,
/// titles recomputed).
pub type AggLog = Arc<Mutex<Vec<(f64, usize)>>>;

/// The binary's maintenance loop: aggregation schedule, session pruning
/// and a WAL sync, on a configurable cadence.
struct Maintenance {
    stop: Arc<(Mutex<bool>, Condvar)>,
    /// Held by the thread for each pass; holding it elsewhere holds the
    /// maintenance work off.
    gate: Arc<Mutex<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Maintenance {
    fn spawn(server: Arc<ReputationServer>, spec: &Spec, log: AggLog) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let every = spec.maintenance_every;
        let aggregate = spec.maintenance_aggregates;
        let flag = Arc::clone(&stop);
        let gate = Arc::new(Mutex::new(()));
        let pass_gate = Arc::clone(&gate);
        let thread = std::thread::spawn(move || loop {
            {
                let (lock, cv) = &*flag;
                let guard = lock.lock().unwrap_or_else(|e| e.into_inner());
                let (guard, _) =
                    cv.wait_timeout_while(guard, every, |s| !*s).unwrap_or_else(|e| e.into_inner());
                if *guard {
                    return;
                }
            }
            let _pass = pass_gate.lock().unwrap_or_else(|e| e.into_inner());
            if aggregate {
                let started = Instant::now();
                let titles = server.db().force_aggregation_incremental(server.now()).unwrap_or(0);
                let ms = started.elapsed().as_secs_f64() * 1e3;
                log.lock().unwrap_or_else(|e| e.into_inner()).push((ms, titles));
            }
            server.tick();
            let _ = server.db().store().sync();
        });
        Maintenance { stop, gate, thread: Some(thread) }
    }

    fn shutdown(&mut self) {
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A running primary.
pub struct Node {
    pub dir: PathBuf,
    pub store: Arc<Store>,
    pub server: Arc<ReputationServer>,
    pub frontend: Option<FrontendServer>,
    pub addr: SocketAddr,
    pub agg_log: AggLog,
    maintenance: Maintenance,
}

impl Node {
    pub fn db(&self) -> &ReputationDb {
        self.server.db()
    }

    /// Hold maintenance off (no background writes) while the guard lives.
    pub fn quiesce(&self) -> std::sync::MutexGuard<'_, ()> {
        self.maintenance.gate.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Stop the front end and maintenance thread, then delete the data.
    pub fn shutdown(mut self) {
        if let Some(frontend) = self.frontend.take() {
            frontend.shutdown();
        }
        self.maintenance.shutdown();
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
        crate::alloc::release_free_memory();
    }
}

/// Build a primary from an empty `dir` and load the workload's seeded
/// population. Everything here is set-up time.
pub fn setup(
    spec: &Spec,
    seed: u64,
    dir: &Path,
    vfs: Option<Arc<TraceVfs>>,
) -> Result<(Node, Population), String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut pop = Population::plan(spec, seed);

    // Every workload serves with the binary's default durability (`Os`).
    let store = open_store(dir, DurabilityMode::Os, vfs.as_ref())?;
    let db = ReputationDb::new(Arc::clone(&store), SecretPepper::new(PEPPER.to_vec()));
    load(spec, seed, &db, &mut pop)?;
    store.sync().map_err(|e| format!("sync: {e}"))?;
    if spec.compact_population {
        store.compact().map_err(|e| format!("compact: {e}"))?;
    }
    drop(db);

    let server = new_server(Arc::clone(&store), server_config());
    for (user, name) in pop.users.iter().enumerate() {
        let login = Request::Login { username: name.clone(), password: Population::password(user) };
        match server.handle(&login, "perfbench-setup") {
            Response::Session { token } => pop.sessions.push(token),
            other => return Err(format!("login {name}: {other:?}")),
        }
    }
    // Let the read caches fill before timing, where the hot set fits.
    if pop.titles.len() <= 4_096 {
        for id in &pop.titles {
            server.db().software_report(id).map_err(|e| format!("warm: {e}"))?;
        }
        for vendor in &pop.vendors {
            server.db().vendor_report(vendor).map_err(|e| format!("warm: {e}"))?;
        }
    }
    let committed = store.committed_seq();
    if committed < spec.min_committed {
        return Err(format!("population left {committed} entries, need {}", spec.min_committed));
    }

    let frontend =
        FrontendServer::spawn_with(Arc::clone(&server), "127.0.0.1:0", TcpServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
    let addr = frontend.local_addr();
    let agg_log = AggLog::default();
    let maintenance = Maintenance::spawn(Arc::clone(&server), spec, Arc::clone(&agg_log));
    Ok((
        Node {
            dir: dir.to_path_buf(),
            store,
            server,
            frontend: Some(frontend),
            addr,
            agg_log,
            maintenance,
        },
        pop,
    ))
}

impl rand::RngCore for Rng {
    fn next_u32(&mut self) -> u32 {
        (Rng::next_u64(self) >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        Rng::next_u64(self)
    }
}

fn load(spec: &Spec, seed: u64, db: &ReputationDb, pop: &mut Population) -> Result<(), String> {
    let now = SystemClock.now();
    let mut rng = Rng::new(seed, 2);
    let err = |what: &str, e: softrep_core::CoreError| format!("{what}: {e}");
    for (user, name) in pop.users.iter().enumerate() {
        let token = db
            .register_user(
                name,
                &Population::password(user),
                &Population::email(user),
                now,
                &mut rng,
            )
            .map_err(|e| err("register user", e))?;
        db.activate_user(name, &token).map_err(|e| err("activate", e))?;
    }
    for (title, id) in pop.titles.iter().enumerate() {
        let vendor = pop.vendors[pop.title_vendor[title]].clone();
        let file_name = format!("tool{title}.exe");
        let version = Some(format!("{}.{}", 1 + title % 9, title % 17));
        db.register_software(id, &file_name, 50_000 + title as u64, Some(vendor), version, now)
            .map_err(|e| err("register software", e))?;
    }
    let users = pop.users.len();
    let comment = |db: &ReputationDb, rng: &mut Rng, pop: &mut Population, title: usize| {
        let author = rng.below(users);
        let text = format!(
            "Seeded remark {} on {}: asks before installing extras.",
            rng.below(1 << 20),
            title
        );
        let id = db
            .submit_comment(&pop.users[author], &pop.titles[title], &text, now)
            .map_err(|e| err("comment", e))?;
        pop.comments.push((id, author));
        Ok::<(), String>(())
    };
    for title in 0..pop.titles.len() {
        if spec.max_votes_per_title > 0 {
            for _ in 0..1 + rng.below(spec.max_votes_per_title) {
                let user = rng.below(users);
                let score = 1 + rng.below(10) as u8;
                db.submit_vote(&pop.users[user], &pop.titles[title], score, Vec::new(), now)
                    .map_err(|e| err("vote", e))?;
            }
        }
        for _ in 0..rng.below(spec.max_comments_per_title + 1) {
            comment(db, &mut rng, pop, title)?;
        }
    }
    for _ in 0..spec.scattered_comments {
        let title = rng.below(pop.titles.len());
        comment(db, &mut rng, pop, title)?;
    }
    for _ in 0..spec.bulk_votes {
        let (user, title) = (rng.below(users), rng.below(pop.titles.len()));
        let score = 1 + rng.below(10) as u8;
        db.submit_vote(&pop.users[user], &pop.titles[title], score, Vec::new(), now)
            .map_err(|e| err("vote", e))?;
    }
    db.force_aggregation_full(now).map_err(|e| err("aggregate", e))?;
    Ok(())
}

pub struct CatchUp {
    pub entries: u64,
    pub seconds: f64,
    /// Replica watermark equals the primary's committed sequence and the
    /// two stores' contents are byte-identical.
    pub consistent: bool,
}

/// Attach a fresh in-process replica to `primary` and time it from
/// `ReplicaTail::spawn` until its applied watermark reaches the primary's
/// committed sequence number. Nothing writes to the primary meanwhile.
pub fn catch_up(primary: &Node, dir: &Path, vfs: Option<Arc<TraceVfs>>) -> Result<CatchUp, String> {
    let _ = std::fs::remove_dir_all(dir);
    let _quiet = primary.quiesce();
    let target = primary.store.committed_seq();
    let store = open_store(dir, DurabilityMode::Os, vfs.as_ref())?;
    // The replica serves no pseudonym requests here, so it skips the
    // key search (seconds of CPU that would only lengthen the run).
    let config = ServerConfig { pseudonym_key_bits: 0, ..server_config() };
    let replica = new_server(Arc::clone(&store), config);
    let started = Instant::now();
    let tail = ReplicaTail::spawn(Arc::clone(&replica), primary.addr.to_string())
        .map_err(|e| format!("spawn tail: {e}"))?;
    while applied_watermark(&store) < target {
        if started.elapsed() > Duration::from_secs(150) {
            tail.shutdown();
            return Err(format!("replica stuck at {} of {target}", applied_watermark(&store)));
        }
        // A millisecond is a sixth of a percent of the shortest catch-up;
        // polling faster only takes CPU from the tail on a 2-vCPU machine.
        std::thread::sleep(Duration::from_millis(1));
    }
    let seconds = started.elapsed().as_secs_f64();
    tail.shutdown();
    let consistent = applied_watermark(&store) == primary.store.committed_seq()
        && store.content_dump() == primary.store.content_dump();
    drop(replica);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    crate::alloc::release_free_memory();
    Ok(CatchUp { entries: target, seconds, consistent })
}
