//! `ingest_browse`: DATALINK ingest transactions beside hub-local
//! browse and QBE reads, on the turbulence archive without federated
//! sites.
//!
//! A write is one transaction that archives `FILES_PER_TXN` result
//! files: `Archive::archive_file_local`, then a DATALINK
//! `INSERT INTO RESULT_FILE` per file through `begin_txn` /
//! `txn_execute`, then the commit inside a group-commit window. The
//! database lets only one in-flight transaction hold pending DATALINK
//! operations, so there is one writer and each window commits one
//! transaction. Reads (PK browse of a simulation's files, QBE by
//! timestep) go through `WebApp::handle_at`; every fourth transaction
//! has a browse while it is still open, which must show committed rows
//! only.
//!
//! RESULT_FILE grows through the episode, and costs grow with it
//! (`Dlfm::commit` walks every controlled path; browse pages tokenize
//! every DATALINK URL), so the stream is a fixed number of operations
//! per episode, each on a fresh archive, and a run measures whole
//! episodes.

use crate::portal::page_rows;
use crate::stats::{diff_counters, parse_exposition};
use crate::trace::Tracer;
use crate::{metric, Metric, Sample, Tallies, Workload};
use easia_core::{paper_link_spec, turbulence, Archive, WebApp};
use easia_db::{ResultSet, Value};
use easia_fs::FileContent;
use easia_web::auth::Role;
use easia_web::browse::{render_results, BrowseContext};
use easia_web::http::{Request, Response};
use easia_web::qbe::build_browse_query;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const HOST: &str = "fs1.example";
/// Hub simulations; each starts with 3 result files.
const SIMS: usize = 3;
const SEEDED_FILES: usize = 3 * SIMS;
/// Result files archived per ingest transaction.
const FILES_PER_TXN: usize = 20;
/// Ingest transactions per episode: RESULT_FILE grows from 9 rows to
/// 9 + 100 x 20 = 2,009.
const TXNS_PER_EPISODE: usize = 100;
/// Every `IN_TXN_EVERY`-th transaction has a browse while it is open.
const IN_TXN_EVERY: usize = 4;
/// Operations per episode: every transaction, the browses inside open
/// transactions, and one read after every commit.
const EPISODE_OPS: usize = TXNS_PER_EPISODE * 2 + TXNS_PER_EPISODE / IN_TXN_EVERY;

const INSERT: &str = "INSERT INTO result_file VALUES (?, ?, ?, 'u,v,w,p', 'EDF', ?, ?)";

/// One planned step of an episode.
#[derive(Debug, Clone, PartialEq)]
enum Plan {
    /// Transaction `t`: `FILES_PER_TXN` files for simulation `sim`,
    /// with a browse of `browse_sim` while it is open, if any.
    Write {
        t: usize,
        sim: usize,
        browse_sim: Option<usize>,
    },
    /// After the commit of transaction `t`: browse simulation `sim`'s
    /// files, or (`qbe_txn`) a QBE for the files of an earlier
    /// transaction by timestep.
    Read { sim: usize, qbe_txn: Option<usize> },
}

/// The episode's steps for `seed`. Simulations take ingest in a
/// seeded rotation and reads alternate between browse and QBE, so every
/// seed grows the same page sizes; the seed picks which simulation and
/// which earlier transaction each read asks for.
fn plan(seed: u64) -> Vec<Plan> {
    let offset = crate::mix(seed, 0x1A6E, u64::MAX) as usize;
    let mut steps = Vec::new();
    for t in 0..TXNS_PER_EPISODE {
        let h = crate::mix(seed, 0x1A6E, t as u64);
        steps.push(Plan::Write {
            t,
            sim: (t + offset) % SIMS,
            browse_sim: t
                .is_multiple_of(IN_TXN_EVERY)
                .then_some((h % SIMS as u64) as usize),
        });
        steps.push(Plan::Read {
            sim: ((h >> 16) % SIMS as u64) as usize,
            qbe_txn: (t + offset)
                .is_multiple_of(2)
                .then(|| ((h >> 32) % (t as u64 + 1)) as usize),
        });
    }
    steps
}

/// The episode's plan as text, and each operation kind's share.
pub fn describe_inputs(seed: u64) -> (String, BTreeMap<String, f64>) {
    let mut text = String::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |k: &str| *counts.entry(k.to_string()).or_default() += 1.0 / EPISODE_OPS as f64;
    for p in plan(seed) {
        let _ = writeln!(text, "{p:?}");
        match p {
            Plan::Write { browse_sim, .. } => {
                add("write");
                if browse_sim.is_some() {
                    add("browse_in_txn");
                }
            }
            Plan::Read { qbe_txn, .. } => add(if qbe_txn.is_some() { "qbe" } else { "browse" }),
        }
    }
    (text, counts)
}

fn sim_key(sim: usize) -> String {
    format!("S{:02}", sim + 1)
}

fn timestep(t: usize) -> i64 {
    1000 + t as i64
}

/// A fresh episode archive and its reader session.
fn build_app() -> (WebApp, String) {
    let mut a = Archive::builder()
        .file_server(HOST, paper_link_spec())
        .token_ttl(100_000_000)
        .build();
    turbulence::install_schema(&mut a).expect("schema");
    turbulence::seed_demo_data(&mut a, SIMS, 8).expect("demo data");
    a.users.add_user("ingest", "turbulence", Role::Researcher);
    let u = a
        .users
        .authenticate("ingest", "turbulence")
        .expect("researcher")
        .clone();
    let now = a.clock.now();
    let token = a.sessions.open(&u, now);
    (WebApp::new(a), token)
}

/// The `ingest_browse` workload.
pub struct Ingest {
    steps: Vec<Plan>,
    app: WebApp,
    token: String,
    /// Position in the episode's plan.
    pos: usize,
    /// Committed ingest files per simulation in this episode.
    committed: [usize; SIMS],
    /// Counter changes the replays caused on the current archive,
    /// excluded from the workload's counters.
    replayed: BTreeMap<String, f64>,
    builds: Vec<f64>,
    errors: Vec<String>,
    acc: Tallies,
    /// `(linked files before the commit, commit window µs)` per traced
    /// commit.
    commit_points: Vec<(f64, f64)>,
}

impl Ingest {
    /// Build the first episode's archive.
    pub fn build(seed: u64, _traced: bool) -> Self {
        let t0 = Instant::now();
        let (app, token) = build_app();
        Ingest {
            steps: plan(seed),
            app,
            token,
            pos: 0,
            committed: [0; SIMS],
            replayed: BTreeMap::new(),
            builds: vec![t0.elapsed().as_secs_f64()],
            errors: Vec::new(),
            acc: Tallies::default(),
            commit_points: Vec::new(),
        }
    }

    fn linked_files(&self) -> usize {
        let (_, server) = self.app.archive.server(HOST).expect("file server");
        server
            .borrow()
            .dlfm()
            .controlled_paths()
            .filter(|(_, s)| matches!(s, easia_fs::dlfm::LinkState::Linked { .. }))
            .count()
    }

    /// End-of-episode checks: every ingested file is both a RESULT_FILE
    /// row and a linked file under DLFM control.
    fn check_episode(&mut self) {
        let want = SEEDED_FILES + TXNS_PER_EPISODE * FILES_PER_TXN;
        let rows = self
            .app
            .archive
            .db
            .execute("SELECT COUNT(*) FROM RESULT_FILE")
            .ok()
            .and_then(|rs| rs.rows.first().and_then(|r| r.first()).cloned());
        if rows != Some(Value::Int(want as i64)) {
            self.errors
                .push(format!("RESULT_FILE holds {rows:?} rows, want {want}"));
        }
        let linked = self.linked_files();
        if linked != want {
            self.errors
                .push(format!("DLFM controls {linked} linked files, want {want}"));
        }
    }

    /// Browse a simulation's files through the portal; correct when the
    /// page lists exactly its committed files.
    fn browse(&mut self, tr: &mut Tracer, op: u64, sim: usize) -> (f64, bool) {
        let url = format!(
            "/browse/pk/RESULT_FILE.SIMULATION_KEY?value={}",
            sim_key(sim)
        );
        let want = 3 + self.committed[sim];
        let (us, resp, span) = self.request(tr, op, Request::get(&url).with_session(&self.token));
        if tr.enabled() {
            self.replay_read(tr, op, span, &sim_key(sim));
        }
        (
            us,
            resp.status == 200 && page_rows(&resp.body_text()) == Some(want),
        )
    }

    fn request(&mut self, tr: &mut Tracer, op: u64, req: Request) -> (f64, Response, usize) {
        let now = self.app.archive.net.now();
        let app = &mut self.app;
        let t0 = Instant::now();
        let (resp, span) = tr.span("web.request", op, None, || app.handle_at(req, now));
        (t0.elapsed().as_secs_f64() * 1e6, resp, span)
    }

    /// Replays after a traced PK browse: the statement through the
    /// parser, the snapshot read that feeds the page, and the page's
    /// `render_results`. Their counter movements are set aside so the
    /// diff reports the workload's own.
    fn replay_read(&mut self, tr: &mut Tracer, op: u64, parent: usize, key: &str) {
        let before = parse_exposition(&self.app.archive.obs.metrics.render());
        let Some(xt) = self.app.archive.xuis.table("RESULT_FILE").cloned() else {
            return;
        };
        let sql = build_browse_query(&xt, "SIMULATION_KEY");
        tr.span_warm("db.parse", op, Some(parent), || {
            std::hint::black_box(easia_db::sql::parse(&sql)).is_ok()
        });
        let archive = &mut self.app.archive;
        let (rs, _) = tr.span("db.read", op, Some(parent), || {
            archive.snapshot_read(&sql, &[Value::Str(key.to_string())])
        });
        if let Ok(rs) = rs {
            let (_, idx) = tr.span_warm("web.render", op, Some(parent), || {
                std::hint::black_box(render_page(&self.app.archive, &rs).len())
            });
            tr.set_rows(idx, rs.rows.len() as u64);
        }
        let after = parse_exposition(&self.app.archive.obs.metrics.render());
        for (k, v) in diff_counters(&before, &after) {
            *self.replayed.entry(k).or_default() += v;
        }
    }

    /// One ingest transaction, with a browse while it is open when
    /// planned. The write's sample times its own calls only; the browse
    /// is an operation of its own.
    fn write(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        t: usize,
        sim: usize,
        browse_sim: Option<usize>,
        out: &mut Vec<Sample>,
    ) {
        let traced = tr.enabled();
        let t0 = Instant::now();
        let (txn, parent) = tr.span("db.txn", op, None, || self.app.archive.db.begin_txn());
        let parent = traced.then_some(parent);
        let mut ok = true;
        for j in 0..FILES_PER_TXN {
            let name = format!("r{t:04}_{j}.edf");
            let path = format!("/data/{}/{name}", sim_key(sim));
            let archive = &mut self.app.archive;
            let (url, _) = tr.span("fs.ingest", op, parent, || {
                archive.archive_file_local(
                    HOST,
                    &path,
                    FileContent::Synthetic {
                        size: 4096 + j as u64,
                        seed: t as u64,
                    },
                )
            });
            let Ok(url) = url else {
                ok = false;
                continue;
            };
            let params = [
                Value::Str(name),
                Value::Str(sim_key(sim)),
                Value::Int(timestep(t)),
                Value::Int(4096 + j as i64),
                Value::Str(url),
            ];
            let db = &mut self.app.archive.db;
            let (res, _) = tr.span("db.txn_write", op, parent, || {
                db.txn_execute(txn, INSERT, &params)
            });
            ok &= res.is_ok();
        }
        let mut wall_us = t0.elapsed().as_secs_f64() * 1e6;
        if let Some(b) = browse_sim {
            let (us, read_ok) = self.browse(tr, op | 1 << 32, b);
            out.push(local(false, us, read_ok));
        }
        let linked = if traced {
            self.linked_files() as f64
        } else {
            0.0
        };
        let db = &mut self.app.archive.db;
        let t1 = Instant::now();
        let (res, idx) = tr.span("db.commit", op, parent, || {
            db.begin_commit_window();
            let csn = db.commit_txn(txn);
            let flushed = db.end_commit_window();
            csn.and(flushed)
        });
        wall_us += t1.elapsed().as_secs_f64() * 1e6;
        ok &= res.is_ok();
        if ok {
            self.committed[sim] += FILES_PER_TXN;
        }
        if traced {
            self.acc.commits += 1;
            let us = tr.spans()[idx].us();
            self.commit_points.push((linked, us));
        }
        // The write is recorded before the browse it enclosed, matching
        // the order the operations started in.
        out.insert(
            out.len() - usize::from(browse_sim.is_some()),
            local(true, wall_us, ok),
        );
    }

    fn qbe(&mut self, tr: &mut Tracer, op: u64, t: usize) -> (f64, bool) {
        let ts = timestep(t).to_string();
        let req = Request::post("/query/RESULT_FILE", &[("val_TIMESTEP", ts.as_str())])
            .with_session(&self.token);
        let (us, resp, _) = self.request(tr, op, req);
        (
            us,
            resp.status == 200 && page_rows(&resp.body_text()) == Some(FILES_PER_TXN),
        )
    }
}

/// A hub-local operation: no WAN traffic, no simulated time.
fn local(key: bool, wall_us: f64, ok: bool) -> Sample {
    Sample {
        key,
        wall_us,
        sim_s: 0.0,
        wan_bytes: 0.0,
        ok,
    }
}

/// The result page body `WebApp` renders for RESULT_FILE rows, built
/// from the same public pieces.
fn render_page(a: &Archive, rs: &ResultSet) -> String {
    let row_ops: Vec<Vec<easia_xuis::Operation>> = rs
        .rows
        .iter()
        .map(|row| {
            let pairs: Vec<(String, String)> = rs
                .columns
                .iter()
                .zip(row)
                .map(|(c, v)| (format!("RESULT_FILE.{c}"), v.to_string()))
                .collect();
            a.catalog
                .applicable("RESULT_FILE", &pairs, false)
                .into_iter()
                .map(|e| e.op.clone())
                .collect()
        })
        .collect();
    let sizes = |url: &str| a.file_size_of(url);
    let ctx = BrowseContext {
        xuis: &a.xuis,
        table: "RESULT_FILE",
        is_guest: false,
        row_operations: row_ops.iter().map(|v| v.iter().collect()).collect(),
        file_size: Some(&sizes),
    };
    render_results(&ctx, rs)
}

impl Workload for Ingest {
    fn episode_ops(&self) -> usize {
        EPISODE_OPS
    }

    fn reset(&mut self) {
        let t0 = Instant::now();
        (self.app, self.token) = build_app();
        self.builds.push(t0.elapsed().as_secs_f64());
        self.replayed.clear();
        self.committed = [0; SIMS];
        self.pos = 0;
    }

    fn build_secs(&self) -> &[f64] {
        &self.builds
    }

    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<Sample>) -> Duration {
        let op = self.pos as u64;
        match self.steps[self.pos].clone() {
            Plan::Write { t, sim, browse_sim } => self.write(tr, op, t, sim, browse_sim, out),
            Plan::Read { sim, qbe_txn } => {
                let (wall_us, ok) = match qbe_txn {
                    Some(t) => self.qbe(tr, op, t),
                    None => self.browse(tr, op, sim),
                };
                out.push(local(false, wall_us, ok));
            }
        }
        self.pos += 1;
        Duration::ZERO
    }

    fn counters(&self) -> BTreeMap<String, f64> {
        let current = parse_exposition(&self.app.archive.obs.metrics.render());
        current
            .into_iter()
            .map(|(k, v)| {
                let r = self.replayed.get(&k).copied().unwrap_or(0.0);
                (k, v - r)
            })
            .collect()
    }

    fn finish_episode(&mut self) -> Vec<String> {
        self.check_episode();
        std::mem::take(&mut self.errors)
    }

    fn tallies(&self) -> Tallies {
        self.acc
    }

    fn layers(&self, tr: &Tracer) -> Vec<Metric> {
        vec![
            metric("web.request_us", tr.median_us("web.request"), "us"),
            metric(
                "web.self_us",
                tr.median_self_us("web.request", &["db.read", "web.render"]),
                "us",
            ),
            metric("web.render_us_per_row", tr.us_per_row("web.render"), "us"),
            metric("db.read_us", tr.median_us("db.read"), "us"),
            metric("db.txn_write_us", tr.median_us("db.txn_write"), "us"),
            metric("db.commit_us", tr.median_us("db.commit"), "us"),
            metric("fs.ingest_us", tr.median_us("fs.ingest"), "us"),
            metric(
                "dlfm.commit_us_per_1k_links",
                crate::stats::slope(&self.commit_points) * 1000.0,
                "us",
            ),
        ]
    }
}
