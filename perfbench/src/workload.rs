//! The workloads: population shapes, request mixes, offered rates, and the
//! seeded request streams the load generator sends.

use std::time::Duration;

use softrep_proto::{Request, Response};

use crate::rng::{Rng, Zipf};

/// Request kinds the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    QuerySoftware,
    QueryVendor,
    QueryDetails,
    SubmitVote,
    SubmitComment,
    RateComment,
    RegisterSoftware,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::QuerySoftware,
        Kind::QueryVendor,
        Kind::QueryDetails,
        Kind::SubmitVote,
        Kind::SubmitComment,
        Kind::RateComment,
        Kind::RegisterSoftware,
    ];

    pub fn is_lookup(self) -> bool {
        matches!(self, Kind::QuerySoftware | Kind::QueryVendor | Kind::QueryDetails)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::QuerySoftware => "query_software",
            Kind::QueryVendor => "query_vendor",
            Kind::QueryDetails => "query_details",
            Kind::SubmitVote => "submit_vote",
            Kind::SubmitComment => "submit_comment",
            Kind::RateComment => "rate_comment",
            Kind::RegisterSoftware => "register_software",
        }
    }
}

/// Everything that distinguishes one workload from another.
pub struct Spec {
    pub name: &'static str,
    pub users: usize,
    pub titles: usize,
    pub vendors: usize,
    /// Each title gets 1..=this many seeded votes (0: none).
    pub max_votes_per_title: usize,
    /// Each title gets 0..=this many seeded comments.
    pub max_comments_per_title: usize,
    /// Comments on uniformly chosen titles, beyond the per-title ones.
    pub scattered_comments: usize,
    /// Votes on uniformly chosen (user, title) pairs: bulk log volume
    /// written through the vote path.
    pub bulk_votes: usize,
    /// Request mix, weights in per mille.
    pub mix: &'static [(Kind, u32)],
    /// Share of software-id lookups aimed at ids the server never saw.
    pub unseeded_permille: u32,
    /// Zipf exponent of title popularity; `None` is uniform.
    pub zipf: Option<f64>,
    /// Open-loop offered rate over both connections.
    pub rate_rps: f64,
    /// Maintenance cadence; the release binary's loop runs every 60 s.
    pub maintenance_every: Duration,
    /// Whether each maintenance pass runs an incremental aggregation.
    pub maintenance_aggregates: bool,
    /// The population must leave at least this many committed entries.
    pub min_committed: u64,
    /// Compact the log once the population is loaded, as the binary's
    /// hourly compaction leaves a long-running server; a replica then
    /// bootstraps from the snapshot instead of tailing the whole log.
    pub compact_population: bool,
    /// Replica catch-ups per untraced run, spread evenly over it;
    /// `catchup_entries_per_s` pools them.
    pub catchups: usize,
    /// Sampled lookup answers must equal the in-process handler's answer
    /// after the run (only where nothing in the run changes them).
    pub compare_lookups: bool,
}

const LOOKUP_MIX: &[(Kind, u32)] = &[
    (Kind::QuerySoftware, 900),
    (Kind::QueryVendor, 40),
    (Kind::QueryDetails, 20),
    (Kind::SubmitVote, 30),
    (Kind::RegisterSoftware, 10),
];

const WRITE_MIX: &[(Kind, u32)] = &[
    (Kind::SubmitVote, 550),
    (Kind::SubmitComment, 150),
    (Kind::RateComment, 100),
    (Kind::QuerySoftware, 200),
];

const BINARY_MAINTENANCE: Duration = Duration::from_secs(60);

pub const NAMES: [&str; 3] = ["lookup_hot", "vote_burst", "replica_catchup"];

pub fn spec(name: &str) -> Option<Spec> {
    match name {
        "lookup_hot" => Some(Spec {
            name: "lookup_hot",
            users: 500,
            titles: 2_000,
            vendors: 100,
            max_votes_per_title: 16,
            max_comments_per_title: 10,
            scattered_comments: 0,
            bulk_votes: 0,
            mix: LOOKUP_MIX,
            unseeded_permille: 20,
            zipf: Some(0.99),
            rate_rps: 5_000.0,
            maintenance_every: BINARY_MAINTENANCE,
            maintenance_aggregates: false,
            min_committed: 0,
            compact_population: true,
            catchups: 15,
            compare_lookups: true,
        }),
        "vote_burst" => Some(Spec {
            name: "vote_burst",
            users: 2_000,
            titles: 50_000,
            vendors: 500,
            max_votes_per_title: 0,
            max_comments_per_title: 0,
            scattered_comments: 2_000,
            bulk_votes: 0,
            mix: WRITE_MIX,
            unseeded_permille: 0,
            zipf: None,
            rate_rps: 2_000.0,
            maintenance_every: Duration::from_secs(1),
            maintenance_aggregates: true,
            min_committed: 0,
            compact_population: true,
            catchups: 12,
            compare_lookups: false,
        }),
        "replica_catchup" => Some(Spec {
            name: "replica_catchup",
            users: 500,
            titles: 2_000,
            vendors: 100,
            max_votes_per_title: 0,
            max_comments_per_title: 0,
            scattered_comments: 7_000,
            bulk_votes: 80_000,
            mix: LOOKUP_MIX,
            unseeded_permille: 20,
            zipf: Some(0.99),
            rate_rps: 5_000.0,
            maintenance_every: BINARY_MAINTENANCE,
            maintenance_aggregates: false,
            min_committed: 100_000,
            compact_population: false,
            catchups: 1,
            compare_lookups: true,
        }),
        _ => None,
    }
}

/// The seeded population: what the server holds before the run, and what
/// the request streams draw their keys from.
pub struct Population {
    pub titles: Vec<String>,
    /// Vendor index of each title.
    pub title_vendor: Vec<usize>,
    pub vendors: Vec<String>,
    pub users: Vec<String>,
    /// Session token per user, filled in once the server logs them in.
    pub sessions: Vec<String>,
    /// `(comment id, author index)` of every seeded comment.
    pub comments: Vec<(u64, usize)>,
    popularity: Option<Zipf>,
}

impl Population {
    /// Plan ids and names; the harness performs the writes.
    pub fn plan(spec: &Spec, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let titles = (0..spec.titles).map(|_| rng.hex40()).collect();
        let title_vendor = (0..spec.titles).map(|_| rng.below(spec.vendors)).collect();
        let vendors = (0..spec.vendors).map(|v| format!("Vendor {v:03} Software")).collect();
        let users = (0..spec.users).map(|u| format!("member{u:05}")).collect();
        let popularity = spec.zipf.map(|s| Zipf::new(spec.titles, s, &mut rng));
        Population {
            titles,
            title_vendor,
            vendors,
            users,
            sessions: Vec::new(),
            comments: Vec::new(),
            popularity,
        }
    }

    pub fn password(user: usize) -> String {
        format!("pw-{user}")
    }

    pub fn email(user: usize) -> String {
        format!("member{user}@example.org")
    }
}

/// What a correct response to a request looks like.
#[derive(Debug, Clone)]
pub enum Check {
    Software,
    Unknown,
    Vendor,
    Ok,
    /// An acknowledged vote that must read back afterwards.
    Vote {
        user: usize,
        title: usize,
        score: u8,
    },
}

impl Check {
    pub fn accepts(&self, response: &Response) -> bool {
        matches!(
            (self, response),
            (Check::Software, Response::Software(_))
                | (Check::Unknown, Response::UnknownSoftware { .. })
                | (Check::Vendor, Response::Vendor { .. })
                | (Check::Ok | Check::Vote { .. }, Response::Ok)
        )
    }
}

pub struct Op {
    pub kind: Kind,
    pub request: Request,
    pub check: Check,
}

const BEHAVIOURS: [&str; 4] = ["popup_ads", "tracking", "bundled_installer", "homepage_hijack"];

/// One connection's request stream. Users are partitioned by connection
/// (user index parity), so every user's writes are ordered on one socket
/// and the last acknowledged vote per (user, title) is well defined.
pub struct Stream<'a> {
    rng: Rng,
    spec: &'a Spec,
    pop: &'a Population,
    conn: usize,
    conns: usize,
    serial: u64,
}

impl<'a> Stream<'a> {
    pub fn new(
        spec: &'a Spec,
        pop: &'a Population,
        seed: u64,
        salt: u64,
        conn: usize,
        conns: usize,
    ) -> Self {
        Stream {
            rng: Rng::new(seed, 1000 + salt * 16 + conn as u64),
            spec,
            pop,
            conn,
            conns,
            serial: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let mut pick = self.rng.below(1000) as u32;
        let mut kind = self.spec.mix[0].0;
        for &(k, weight) in self.spec.mix {
            if pick < weight {
                kind = k;
                break;
            }
            pick -= weight;
        }
        self.make(kind)
    }

    pub fn make(&mut self, kind: Kind) -> Op {
        self.serial += 1;
        let pop = self.pop;
        match kind {
            Kind::QuerySoftware | Kind::QueryDetails => {
                let (software_id, check) =
                    if (self.rng.below(1000) as u32) < self.spec.unseeded_permille {
                        (self.rng.hex40(), Check::Unknown)
                    } else {
                        (pop.titles[self.title()].clone(), Check::Software)
                    };
                let request = if kind == Kind::QuerySoftware {
                    Request::QuerySoftware { software_id }
                } else {
                    Request::QueryDetails { software_id }
                };
                Op { kind, request, check }
            }
            Kind::QueryVendor => {
                let vendor = pop.title_vendor[self.title()];
                Op {
                    kind,
                    request: Request::QueryVendor { vendor: pop.vendors[vendor].clone() },
                    check: Check::Vendor,
                }
            }
            Kind::SubmitVote => {
                let (user, title) = (self.user(), self.title());
                let score = 1 + self.rng.below(10) as u8;
                let behaviours = if self.rng.below(10) < 3 {
                    vec![BEHAVIOURS[self.rng.below(BEHAVIOURS.len())].to_string()]
                } else {
                    Vec::new()
                };
                Op {
                    kind,
                    request: Request::SubmitVote {
                        session: pop.sessions[user].clone(),
                        software_id: pop.titles[title].clone(),
                        score,
                        behaviours,
                    },
                    check: Check::Vote { user, title, score },
                }
            }
            Kind::SubmitComment => {
                let (user, title) = (self.user(), self.title());
                let text = format!(
                    "Run {} showed {} after install; uninstaller left a startup entry behind.",
                    self.serial,
                    BEHAVIOURS[self.rng.below(BEHAVIOURS.len())]
                );
                Op {
                    kind,
                    request: Request::SubmitComment {
                        session: pop.sessions[user].clone(),
                        software_id: pop.titles[title].clone(),
                        text,
                    },
                    check: Check::Ok,
                }
            }
            Kind::RateComment => {
                let (comment_id, author) = pop.comments[self.rng.below(pop.comments.len())];
                let mut rater = self.user();
                if rater == author {
                    rater = (rater + self.conns) % (pop.users.len() - pop.users.len() % self.conns);
                }
                Op {
                    kind,
                    request: Request::RateComment {
                        session: pop.sessions[rater].clone(),
                        comment_id,
                        positive: self.rng.below(4) != 0,
                    },
                    check: Check::Ok,
                }
            }
            Kind::RegisterSoftware => {
                // Fresh ids under vendors nobody queries, so registrations
                // never change an answer a lookup can observe.
                let software_id = self.rng.hex40();
                Op {
                    kind,
                    request: Request::RegisterSoftware {
                        file_name: format!("setup-{}.exe", &software_id[..8]),
                        software_id,
                        file_size: 4_096 + self.rng.below(1 << 24) as u64,
                        company: Some(format!("Unlisted {}", self.rng.below(1000))),
                        version: Some(format!("{}.{}", self.rng.below(10), self.rng.below(100))),
                    },
                    check: Check::Ok,
                }
            }
        }
    }

    fn title(&mut self) -> usize {
        match &self.pop.popularity {
            Some(zipf) => zipf.sample(&mut self.rng),
            None => self.rng.below(self.pop.titles.len()),
        }
    }

    fn user(&mut self) -> usize {
        let per_conn = self.pop.users.len() / self.conns;
        self.rng.below(per_conn) * self.conns + self.conn
    }
}
