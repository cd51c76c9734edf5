//! `portal_mix`: E14's request mix through `WebApp::handle_at` on E14's
//! standard archive, one closed-loop client.
//!
//! The archive is built the way `easia_bench::load` builds it (that
//! builder is private to its crate): the turbulence hub with 3
//! simulations x 3 timesteps, 2 foreign sites x 10 simulations, 12
//! guest and 12 researcher sessions, admission on with E14's limits.
//! The generator keeps E14's mix but draws `/op` slices from the
//! operation's declared choices that fit the datasets; E14's own
//! generator sends `slice=z1`, which the portal rejects with 400 (see
//! NOTES.md).

use crate::trace::Tracer;
use crate::{metric, mix, wan_bytes, Metric, Sample, Tallies, Workload};
use easia_core::{
    paper_link_spec, turbulence, AdmissionConfig, Archive, ClassLimits, RouteClass, WebApp,
};
use easia_db::Value;
use easia_med::Partition;
use easia_web::auth::Role;
use easia_web::http::{url_encode, Request, Response};
use easia_web::qbe::{build_browse_query, build_join_query};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const SITE_NAMES: [&str; 2] = ["cam", "edin"];
const SIMS_PER_SITE: usize = 10;
const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];
/// Hub simulations seeded by `turbulence::seed_demo_data` (3 timesteps
/// each, so 9 result files).
const HUB_SIMS: usize = 3;
const GUESTS: usize = 12;
const RESEARCHERS: usize = 12;
/// The GetImage slice choices the XUIS declares (x0, x8, x16, z0; see
/// `turbulence::attach_standard_operations`) that exist in the grid-8
/// demo datasets: x8 and x16 index past the grid and fail with 400.
const SLICES: [&str; 2] = ["x0", "z0"];
/// Requests per episode.
const EPISODE_OPS: usize = 2000;

/// Remote partitions reuse the paper's SIMULATION shape, as in E14.
const REMOTE_SIM_DDL: &str = "CREATE TABLE simulation (
    simulation_key VARCHAR(30) PRIMARY KEY,
    title VARCHAR(200) NOT NULL,
    author_key VARCHAR(30),
    grid_size INTEGER,
    reynolds DOUBLE,
    timesteps INTEGER,
    description CLOB)";

/// Remote simulation `n` at site `i`: (topic, author number 1..=3).
/// Topics and authors rotate from a seeded offset, so every seed gives
/// each topic and author the same number of simulations, give or take
/// one.
fn remote_sim(seed: u64, site: usize, n: usize) -> (&'static str, u64) {
    let h = mix(seed, site as u64 + 1, 0);
    let topic = TOPICS[(n + (h >> 8) as usize) % TOPICS.len()];
    (topic, (n as u64 + h) % 3 + 1)
}

struct Session {
    token: String,
    guest: bool,
}

/// The built portal plus what the generator and checks need.
struct Built {
    app: WebApp,
    sessions: Vec<Session>,
    urls: Vec<String>,
    datasets: Vec<String>,
}

fn build_portal(seed: u64) -> Built {
    let mut b = Archive::builder()
        .file_server("fs1.example", paper_link_spec())
        .token_ttl(100_000_000);
    for site in SITE_NAMES {
        b = b.federated_site(site, paper_link_spec());
    }
    let mut a = b.build();
    turbulence::install_schema(&mut a).expect("schema");
    turbulence::seed_demo_data(&mut a, HUB_SIMS, 8).expect("demo data");
    let mut partitions = vec![Partition::new(None, &[])];
    for (i, site) in SITE_NAMES.iter().enumerate() {
        let s = a.federation.site(site).expect("registered site");
        let mut db = s.db.borrow_mut();
        db.execute(REMOTE_SIM_DDL).expect("remote schema");
        for n in 0..SIMS_PER_SITE {
            let h = mix(seed, i as u64 + 1, n as u64);
            let (topic, author) = remote_sim(seed, i, n);
            db.execute(&format!(
                "INSERT INTO simulation VALUES ('{site}-{n:03}', \
                 '{topic} turbulence run {n}', 'A{author}', {}, {}, 3, \
                 'Remote simulation {n} archived at {site}.')",
                64 << (h % 3),
                300.0 + (h % 500) as f64,
            ))
            .expect("remote row");
        }
        drop(db);
        partitions.push(Partition::new(Some(site), &[]));
    }
    a.federation
        .catalog
        .import_foreign_table(&a.db, "SIMULATION", None, partitions)
        .expect("foreign table registers");
    a.federation.analyze(&mut a.db).expect("analyze");
    a.generate_xuis_federated(4);
    let mut column = |sql: &str| -> Vec<String> {
        a.db.execute(sql)
            .expect("dataset urls")
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect()
    };
    let urls = column("SELECT download_result FROM RESULT_FILE ORDER BY simulation_key, file_name");
    let datasets = column(
        "SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE \
         ORDER BY simulation_key, file_name",
    );
    for r in 0..RESEARCHERS {
        a.users
            .add_user(&format!("res{r:02}"), "turbulence", Role::Researcher);
    }
    let now = a.clock.now();
    let mut sessions = Vec::new();
    for i in 0..GUESTS + RESEARCHERS {
        let (user, pass) = if i < GUESTS {
            ("guest".to_string(), "guest")
        } else {
            (format!("res{:02}", i - GUESTS), "turbulence")
        };
        let u = a.users.authenticate(&user, pass).expect("user").clone();
        sessions.push(Session {
            token: a.sessions.open(&u, now),
            guest: i < GUESTS,
        });
    }
    let admission = AdmissionConfig::default()
        .with_class(RouteClass::Browse, ClassLimits::new(8, 16).with_floor(0.08))
        .with_class(RouteClass::Scan, ClassLimits::new(4, 8))
        .with_class(
            RouteClass::Download,
            ClassLimits::new(4, 8).with_floor(0.05),
        );
    Built {
        app: WebApp::with_admission(a, admission),
        sessions,
        urls,
        datasets,
    }
}

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Qbe,
    Walk,
    FedBrowse,
    Op,
    Upload,
    Lob,
    Download,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Qbe => "qbe",
            Kind::Walk => "walk",
            Kind::FedBrowse => "fedbrowse",
            Kind::Op => "op",
            Kind::Upload => "upload",
            Kind::Lob => "lob",
            Kind::Download => "download",
        }
    }

    /// Reaches federated sites (the scan route class of E14's QBE and
    /// FK-browse storm).
    fn federated(self) -> bool {
        matches!(self, Kind::Qbe | Kind::FedBrowse)
    }
}

/// What a correct answer looks like.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// Status 200 and a result page with this many rows.
    Rows(usize),
    /// Status 200 and a non-empty body.
    Body,
}

/// The four QBE forms of E14's storm.
const FORMS: [&[(&str, &str)]; 4] = [
    &[("all", "All data")],
    &[("ret_TITLE", "on"), ("val_TITLE", "Forced%")],
    &[
        ("ret_TITLE", "on"),
        ("ret_AUTHOR_KEY", "on"),
        ("val_TITLE", "Channel%"),
    ],
    &[("ret_TITLE", "on"), ("ret_GRID_SIZE", "on")],
];

/// Request `n` of the stream for `seed`: E14's mix (40% QBE, 22% hub
/// browse walk, 13% federated browse, 10% `/op` and `/upload` for
/// researchers, 15% download or LOB), with valid slices.
fn gen_request(
    seed: u64,
    n: u64,
    sessions: &[Session],
    urls: &[String],
    datasets: &[String],
) -> (Kind, Request, Expect) {
    let h = mix(seed, 0x5043, n);
    let s = &sessions[(h >> 40) as usize % sessions.len()];
    let draw = h % 100;
    let k = (h >> 24) % 3 + 1;
    if draw < 40 {
        let form = (h >> 32) as usize % FORMS.len();
        let rows = match form {
            1 => (0..SITE_NAMES.len())
                .flat_map(|i| (0..SIMS_PER_SITE).map(move |n| (i, n)))
                .filter(|&(i, n)| remote_sim(seed, i, n).0 == "Forced")
                .count(),
            2 => HUB_SIMS,
            _ => HUB_SIMS + SITE_NAMES.len() * SIMS_PER_SITE,
        };
        let req = Request::post("/query/SIMULATION", FORMS[form]).with_session(&s.token);
        (Kind::Qbe, req, Expect::Rows(rows))
    } else if draw < 62 {
        let (url, expect) = match (h >> 16) % 3 {
            0 => (
                format!("/browse/fk/AUTHOR.AUTHOR_KEY?value=A{k}"),
                Expect::Rows(1),
            ),
            1 => (
                format!("/browse/pk/RESULT_FILE.SIMULATION_KEY?value=S{k:02}"),
                Expect::Rows(3),
            ),
            _ => ("/tables".to_string(), Expect::Body),
        };
        (
            Kind::Walk,
            Request::get(&url).with_session(&s.token),
            expect,
        )
    } else if draw < 75 {
        let hub = (0..HUB_SIMS).filter(|i| (i % 3) as u64 + 1 == k).count();
        let remote = (0..SITE_NAMES.len())
            .flat_map(|i| (0..SIMS_PER_SITE).map(move |n| (i, n)))
            .filter(|&(i, n)| remote_sim(seed, i, n).1 == k)
            .count();
        let url = format!("/browse/pk/SIMULATION.AUTHOR_KEY?value=A{k}");
        (
            Kind::FedBrowse,
            Request::get(&url).with_session(&s.token),
            Expect::Rows(hub + remote),
        )
    } else if draw < 85 && !s.guest {
        let dataset = &datasets[(h >> 24) as usize % datasets.len()];
        if (h >> 16).is_multiple_of(3) {
            let form = [
                ("dataset", dataset.as_str()),
                ("code", "INPUTSIZE\nPRINTNUM\nHALT"),
            ];
            (
                Kind::Upload,
                Request::post("/upload", &form).with_session(&s.token),
                Expect::Body,
            )
        } else {
            let slice = SLICES[(h >> 20) as usize % SLICES.len()];
            let form = [
                ("dataset", dataset.as_str()),
                ("slice", slice),
                ("type", "u"),
            ];
            (
                Kind::Op,
                Request::post("/op/RESULT_FILE/GetImage", &form).with_session(&s.token),
                Expect::Body,
            )
        }
    } else if s.guest {
        let url = format!("/lob/SIMULATION/DESCRIPTION?SIMULATION_KEY=S{k:02}");
        (
            Kind::Lob,
            Request::get(&url).with_session(&s.token),
            Expect::Body,
        )
    } else {
        let url = &urls[(h >> 24) as usize % urls.len()];
        (
            Kind::Download,
            Request::get(&format!("/download?url={}", url_encode(url))).with_session(&s.token),
            Expect::Body,
        )
    }
}

/// Row count printed on a result page (`<p>N row(s)</p>`).
pub fn page_rows(body: &str) -> Option<usize> {
    let end = body.find(" row(s)</p>")?;
    let start = body[..end].rfind("<p>")? + 3;
    body[start..end].parse().ok()
}

fn answer_ok(resp: &Response, expect: Expect) -> bool {
    if resp.status != 200 || resp.body.is_empty() {
        return false;
    }
    match expect {
        Expect::Rows(n) => page_rows(&resp.body_text()) == Some(n),
        Expect::Body => true,
    }
}

/// An episode's generated requests as text, and each kind's share.
pub fn describe_inputs(seed: u64) -> (String, BTreeMap<String, f64>) {
    let b = build_portal(seed);
    let n = EPISODE_OPS as u64;
    let mut text = String::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    for i in 0..n {
        let (kind, req, expect) = gen_request(seed, i, &b.sessions, &b.urls, &b.datasets);
        let _ = writeln!(
            text,
            "{} {} {:?} {:?}",
            kind.label(),
            req.path,
            req.form,
            expect
        );
        *counts.entry(kind.label().to_string()).or_default() += 1.0 / n as f64;
    }
    (text, counts)
}

/// The `portal_mix` workload.
pub struct Portal {
    seed: u64,
    live: Built,
    /// Identical archive that replays run against in the traced run, so
    /// replays leave the measured archive and its counters untouched.
    twin: Option<WebApp>,
    builds: Vec<f64>,
    next: u64,
    acc: Tallies,
    /// The first few wrong answers, for the report.
    failures: Vec<String>,
}

impl Portal {
    /// Build the portal (and, when traced, its replay twin).
    pub fn build(seed: u64, traced: bool) -> Self {
        let t0 = Instant::now();
        let live = build_portal(seed);
        Portal {
            seed,
            live,
            builds: vec![t0.elapsed().as_secs_f64()],
            twin: traced.then(|| build_portal(seed).app),
            next: 0,
            acc: Tallies::default(),
            failures: Vec::new(),
        }
    }

    /// Replays after a traced request: the statement through the SQL
    /// parser, the federated query through the twin's mediator, the
    /// operation through the twin's runner.
    fn replay(
        &mut self,
        tr: &mut Tracer,
        op: u64,
        parent: usize,
        kind: Kind,
        req: &Request,
        prefetch_hit: bool,
    ) {
        let Some(twin) = self.twin.as_mut() else {
            return;
        };
        let stmt = match kind {
            Kind::Qbe => twin
                .archive
                .xuis
                .table("SIMULATION")
                .and_then(|xt| build_join_query(xt, &req.form).ok()),
            Kind::Walk | Kind::FedBrowse => {
                let segs = req.segments();
                segs.get(2)
                    .and_then(|colid| colid.rsplit_once('.'))
                    .and_then(|(t, c)| twin.archive.xuis.table(t).map(|xt| (xt, c)))
                    .map(|(xt, c)| {
                        let value = req.param("value").unwrap_or("").to_string();
                        (build_browse_query(xt, c), vec![Value::Str(value)])
                    })
            }
            _ => None,
        };
        if let Some((sql, params)) = stmt {
            tr.span_warm("db.parse", op, Some(parent), || {
                std::hint::black_box(easia_db::sql::parse(&sql)).is_ok()
            });
            if kind.federated() && !prefetch_hit {
                let (rows, idx) = tr.span("med.query", op, Some(parent), || {
                    twin.archive
                        .federated_query(&sql, &params)
                        .map_or(0, |o| o.rs.rows.len() as u64)
                });
                tr.set_rows(idx, rows);
            }
        }
        if kind == Kind::Op {
            let mut params: BTreeMap<String, String> = req.form.clone();
            let dataset = params.remove("dataset").unwrap_or_default();
            let session = req.session.clone().unwrap_or_default();
            tr.span("ops.run", op, Some(parent), || {
                twin.archive
                    .run_operation(
                        "RESULT_FILE",
                        "GetImage",
                        &dataset,
                        &params,
                        Role::Researcher,
                        &session,
                    )
                    .is_ok()
            });
        }
    }
}

impl Workload for Portal {
    fn episode_ops(&self) -> usize {
        EPISODE_OPS
    }

    fn reset(&mut self) {
        let t0 = Instant::now();
        self.live = build_portal(self.seed);
        self.builds.push(t0.elapsed().as_secs_f64());
        if self.twin.is_some() {
            self.twin = Some(build_portal(self.seed).app);
        }
        self.next = 0;
    }

    fn build_secs(&self) -> &[f64] {
        &self.builds
    }

    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<Sample>) -> Duration {
        let n = self.next;
        self.next += 1;
        let (kind, req, expect) = gen_request(
            self.seed,
            n,
            &self.live.sessions,
            &self.live.urls,
            &self.live.datasets,
        );
        let traced = tr.enabled();
        let replay_req = traced.then(|| req.clone());
        let registry = self.live.app.archive.obs.metrics.clone();
        let hits = || {
            registry
                .value("easia_med_prefetch_hits_total", &[])
                .unwrap_or(0.0)
        };
        let hits0 = if traced { hits() } else { 0.0 };
        let writes0 = self.live.app.archive.db.write_counter();
        let bytes0 = wan_bytes(&self.live.app.archive.net);
        let t_sim = self.live.app.archive.net.now();
        let app = &mut self.live.app;
        let t0 = Instant::now();
        let (resp, span) = tr.span("web.request", n, None, || app.handle_at(req, t_sim));
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let sim_s = self.live.app.archive.net.now() - t_sim;
        let ok = answer_ok(&resp, expect);
        if !ok && self.failures.len() < 5 {
            let body = resp.body_text();
            self.failures.push(format!(
                "request {n} ({}): status {} expected {expect:?}: {}",
                kind.label(),
                resp.status,
                body.chars().take(160).collect::<String>()
            ));
        }
        if let Some(req) = replay_req {
            if kind.federated() {
                self.acc.fed_queries += 1;
                self.acc.hub_writes_in_fed += self.live.app.archive.db.write_counter() - writes0;
            }
            if kind == Kind::Op {
                self.acc.op_requests += 1;
                self.acc.op_cache_hits += u64::from(resp.body_text().contains("(cached result)"));
            }
            let prefetch_hit = hits() > hits0;
            self.replay(tr, n, span, kind, &req, prefetch_hit);
        }
        out.push(Sample {
            key: kind.federated(),
            wall_us,
            sim_s,
            wan_bytes: wan_bytes(&self.live.app.archive.net) - bytes0,
            ok,
        });
        Duration::ZERO
    }

    fn counters(&self) -> BTreeMap<String, f64> {
        crate::stats::parse_exposition(&self.live.app.archive.obs.metrics.render())
    }

    fn finish_episode(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }

    fn tallies(&self) -> Tallies {
        self.acc
    }

    fn layers(&self, tr: &Tracer) -> Vec<Metric> {
        vec![
            metric("web.request_us", tr.median_us("web.request"), "us"),
            metric(
                "web.self_us",
                tr.median_self_us("web.request", &["med.query", "ops.run"]),
                "us",
            ),
            metric("med.query_us", tr.median_us("med.query"), "us"),
            metric("ops.run_us", tr.median_us("ops.run"), "us"),
        ]
    }
}
