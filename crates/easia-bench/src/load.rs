//! The open-loop load harness behind `exp_e14_load`: a seeded arrival
//! process drives thousands of simulated portal users — QBE storms over
//! the federated SIMULATION catalog, FK-browse hypertext walks,
//! DATALINK downloads, a guest/researcher mix — against the webapp at
//! fixed arrival rates that do *not* slow down when the portal is busy.
//!
//! Closed-loop experiments (E1–E12) can never show overload: each
//! simulated client waits for its answer before asking again, so the
//! offered load self-limits. Here the arrival clock is decoupled from
//! the service clock. A calibration phase measures the mean federated
//! scan service time, giving the scan class's capacity; the measured
//! workload then ramps through 0.5x, 1x and 2x of that capacity. With
//! admission control on, the 2x phase sheds the excess with 503 +
//! computed `Retry-After` while admitted-request queue delay stays
//! bounded; with it off (the ablation) queue delay grows without bound
//! — the classic open-loop collapse curve, reproduced bit-for-bit from
//! the seed.

use easia_core::{
    paper_link_spec, turbulence, AdmissionConfig, Archive, ClassLimits, RouteClass, WebApp,
};
use easia_crypto::sha256::{hex, sha256};
use easia_med::Partition;
use easia_net::retry::unit_from;
use easia_web::auth::Role;
use easia_web::http::{url_encode, Request};
use std::fmt::Write as _;

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Seed for arrivals, request mix and session assignment.
    pub seed: u64,
    /// Foreign sites holding remote SIMULATION partitions (1..=2).
    pub sites: usize,
    /// Remote simulations per site.
    pub sims_per_site: usize,
    /// Guest sessions in the population.
    pub guests: usize,
    /// Researcher sessions in the population.
    pub researchers: usize,
    /// Closed-loop federated queries used to measure scan service time.
    pub calibration_requests: usize,
    /// Open-loop arrivals per measured phase.
    pub phase_requests: usize,
    /// Admission control on (false = the ablation).
    pub admission: bool,
    /// Run the federation gather in the pre-E13 lockstep barrier mode
    /// (true = the ablation; E13 measures the capacity delta).
    pub lockstep: bool,
}

impl LoadConfig {
    /// The default scenario: 2 foreign sites × 10 simulations, 12 guest
    /// + 12 researcher sessions, 1000 arrivals per phase.
    pub fn standard(seed: u64) -> Self {
        LoadConfig {
            seed,
            sites: 2,
            sims_per_site: 10,
            guests: 12,
            researchers: 12,
            calibration_requests: 25,
            phase_requests: 1000,
            admission: true,
            lockstep: false,
        }
    }
}

/// Scan-class virtual servers (the bottleneck class under the ramp).
pub(crate) const SCAN_CONCURRENCY: usize = 4;
/// Scan-class queue depth: bounds admitted queue delay at roughly
/// `depth / concurrency` service times.
const SCAN_DEPTH: usize = 8;
/// Share of arrivals that are scan-class work (QBE + federated browse);
/// the ramp's load factors are expressed against scan capacity.
pub(crate) const SCAN_SHARE: f64 = 0.6;
/// The overload ramp, as multiples of measured scan capacity.
pub const LOAD_FACTORS: [f64; 3] = [0.5, 1.0, 2.0];

/// One phase's per-class observations.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// Metric label of the class.
    pub class: &'static str,
    /// Requests admitted (status < 503).
    pub admitted: usize,
    /// Requests shed with 503 + Retry-After.
    pub shed: usize,
    /// Median queue delay of admitted requests (s).
    pub p50_delay: f64,
    /// 99th-percentile queue delay of admitted requests (s).
    pub p99_delay: f64,
    /// Worst queue delay of admitted requests (s).
    pub max_delay: f64,
    /// 99th-percentile end-to-end latency (queue delay + service, s).
    pub p99_latency: f64,
}

/// One measured phase of the ramp.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Phase label, e.g. `ramp-2.0x`.
    pub label: String,
    /// Arrival rate as a multiple of scan capacity.
    pub load_factor: f64,
    /// Total arrival rate (requests per simulated second).
    pub arrival_rate: f64,
    /// Per-class stats, in Browse/Scan/Download order.
    pub classes: Vec<ClassStats>,
    /// Mean scan queue delay over the first quarter of the phase's
    /// scan admissions — with the last quarter, the collapse detector.
    pub scan_delay_first_q: f64,
    /// Mean scan queue delay over the last quarter.
    pub scan_delay_last_q: f64,
}

/// Everything a load run produced, plus the reproducibility digest.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// Measured mean federated-scan service time (s).
    pub mean_scan_service: f64,
    /// Scan-class capacity (requests per simulated second).
    pub scan_capacity: f64,
    /// Ramp phases, in [`LOAD_FACTORS`] order.
    pub phases: Vec<PhaseResult>,
    /// Human-readable log of the whole run.
    pub transcript: String,
    /// SHA-256 of the transcript (covers the metrics snapshot too).
    pub digest: String,
    /// Metrics registry snapshot at the end of the run.
    pub metrics_snapshot: String,
}

/// Remote partitions reuse the paper's SIMULATION shape (minus the FK
/// constraint — foreign sites do not hold the hub's AUTHOR table).
const REMOTE_SIM_DDL: &str = "CREATE TABLE simulation (
    simulation_key VARCHAR(30) PRIMARY KEY,
    title VARCHAR(200) NOT NULL,
    author_key VARCHAR(30),
    grid_size INTEGER,
    reynolds DOUBLE,
    timesteps INTEGER,
    description CLOB)";

const SITE_NAMES: [&str; 2] = ["cam", "edin"];
const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];

/// One pre-authenticated simulated user.
pub(crate) struct SessionSpec {
    pub(crate) token: String,
    pub(crate) guest: bool,
}

pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// Build the portal under test: the turbulence archive on the hub with
/// its file server, plus foreign sites each holding a remote SIMULATION
/// partition, all over the paper's measured WAN profiles.
pub(crate) fn build_app(cfg: &LoadConfig) -> (WebApp, Vec<SessionSpec>, Vec<String>, Vec<String>) {
    assert!((1..=SITE_NAMES.len()).contains(&cfg.sites), "1..=2 sites");
    let mut b = Archive::builder()
        .file_server("fs1.example", paper_link_spec())
        // Sessions must survive a multi-hour simulated ramp.
        .token_ttl(100_000_000);
    for site in &SITE_NAMES[..cfg.sites] {
        b = b.federated_site(site, paper_link_spec());
    }
    let mut a = b.build();
    turbulence::install_schema(&mut a).expect("schema");
    turbulence::seed_demo_data(&mut a, 3, 8).expect("demo data");
    // Remote partitions: same catalog shape, site-local rows whose
    // AUTHOR_KEY values reference the hub's three authors, so the QBE
    // FK-substitute join crosses sites exactly as E12 exercises.
    let mut partitions = vec![Partition::new(None, &[])];
    for (i, site) in SITE_NAMES[..cfg.sites].iter().enumerate() {
        let s = a.federation.site(site).expect("registered site");
        let mut db = s.db.borrow_mut();
        db.execute(REMOTE_SIM_DDL).expect("remote schema");
        for n in 0..cfg.sims_per_site {
            let h = mix(cfg.seed, i as u64 + 1, n as u64);
            let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
            let grid = 64 << (h % 3);
            db.execute(&format!(
                "INSERT INTO simulation VALUES ('{site}-{n:03}', \
                 '{topic} turbulence run {n}', 'A{}', {grid}, {}, 3, \
                 'Remote simulation {n} archived at {site}.')",
                h % 3 + 1,
                300.0 + (h % 500) as f64,
            ))
            .expect("remote row");
        }
        drop(db);
        partitions.push(Partition::new(Some(site), &[]));
    }
    // No SITE column in the paper's schema, so no pruning: every QBE
    // scatters to every site — the expensive class the ramp saturates.
    a.federation
        .catalog
        .import_foreign_table(&a.db, "SIMULATION", None, partitions)
        .expect("foreign table registers");
    a.federation.analyze(&a.db).expect("analyze");
    a.federation.lockstep = cfg.lockstep;
    a.generate_xuis_federated(4);

    let urls: Vec<String> =
        a.db.execute("SELECT download_result FROM RESULT_FILE ORDER BY simulation_key, file_name")
            .expect("download urls")
            .rows
            .iter()
            .map(|r| r[0].to_string())
            .collect();
    assert!(!urls.is_empty(), "seeded archive has files");
    // Token-complete dataset URLs for /op and /upload invocations (the
    // huge token TTL above keeps them valid through the whole ramp).
    let datasets: Vec<String> =
        a.db.execute(
            "SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE \
             ORDER BY simulation_key, file_name",
        )
        .expect("dataset urls")
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect();

    // The session population, opened directly on the session registry
    // (the generator never re-authenticates mid-storm).
    for r in 0..cfg.researchers {
        a.users
            .add_user(&format!("res{r:02}"), "turbulence", Role::Researcher);
    }
    let now = a.clock.now();
    let mut sessions = Vec::new();
    for _ in 0..cfg.guests {
        let u = a
            .users
            .authenticate("guest", "guest")
            .expect("guest")
            .clone();
        sessions.push(SessionSpec {
            token: a.sessions.open(&u, now),
            guest: true,
        });
    }
    for r in 0..cfg.researchers {
        let u = a
            .users
            .authenticate(&format!("res{r:02}"), "turbulence")
            .expect("researcher")
            .clone();
        sessions.push(SessionSpec {
            token: a.sessions.open(&u, now),
            guest: false,
        });
    }

    let admission = AdmissionConfig {
        enabled: cfg.admission,
        ..AdmissionConfig::default()
    }
    .with_class(RouteClass::Browse, ClassLimits::new(8, 16).with_floor(0.08))
    .with_class(
        RouteClass::Scan,
        ClassLimits::new(SCAN_CONCURRENCY, SCAN_DEPTH),
    )
    .with_class(
        RouteClass::Download,
        ClassLimits::new(4, 8).with_floor(0.05),
    );
    (
        WebApp::with_admission(a, admission),
        sessions,
        urls,
        datasets,
    )
}

/// The QBE storm: rotating form submissions against the federated
/// SIMULATION catalog (full scatter, LIKE scans, FK-substitute joins).
pub(crate) fn qbe_request(h: u64, token: &str) -> Request {
    let forms: [&[(&str, &str)]; 4] = [
        &[("all", "All data")],
        &[("ret_TITLE", "on"), ("val_TITLE", "Forced%")],
        &[
            ("ret_TITLE", "on"),
            ("ret_AUTHOR_KEY", "on"),
            ("val_TITLE", "Channel%"),
        ],
        &[("ret_TITLE", "on"), ("ret_GRID_SIZE", "on")],
    ];
    Request::post("/query/SIMULATION", forms[(h >> 32) as usize % forms.len()]).with_session(token)
}

/// One deterministic request from session `s` for arrival `n`:
/// `kind` ∈ {qbe, hub browse walk, federated browse, op/upload
/// invocations, download/lob}.
pub(crate) fn gen_request(
    h: u64,
    s: &SessionSpec,
    urls: &[String],
    datasets: &[String],
) -> (&'static str, Request) {
    // Mix: 40% QBE storm, 22% hub browse walk, 13% federated browse,
    // 10% server-side operations (researchers invoke /op, with a slice
    // of /upload sandbox runs; guests fall back to a CLOB fetch — the
    // E5 policy keeps them off ops and uploads), 15% bulk fetch
    // (researchers download DATALINK files, guests re-materialise a
    // CLOB). The /op and /upload POSTs land in the scan admission
    // class, so overload sheds them alongside the QBE storm.
    let draw = h % 100;
    if draw < 40 {
        ("qbe", qbe_request(h, &s.token))
    } else if draw < 62 {
        let kind = (h >> 16) % 3;
        let url = match kind {
            0 => format!("/browse/fk/AUTHOR.AUTHOR_KEY?value=A{}", (h >> 24) % 3 + 1),
            1 => format!(
                "/browse/pk/RESULT_FILE.SIMULATION_KEY?value=S{:02}",
                (h >> 24) % 3 + 1
            ),
            _ => "/tables".to_string(),
        };
        ("walk", Request::get(&url).with_session(&s.token))
    } else if draw < 75 {
        let url = format!(
            "/browse/pk/SIMULATION.AUTHOR_KEY?value=A{}",
            (h >> 24) % 3 + 1
        );
        ("fedbrowse", Request::get(&url).with_session(&s.token))
    } else if draw < 85 && !s.guest {
        let dataset = &datasets[(h >> 24) as usize % datasets.len()];
        if (h >> 16).is_multiple_of(3) {
            (
                "upload",
                Request::post(
                    "/upload",
                    &[
                        ("dataset", dataset.as_str()),
                        ("code", "INPUTSIZE\nPRINTNUM\nHALT"),
                    ],
                )
                .with_session(&s.token),
            )
        } else {
            let slice = ["z0", "z1"][(h >> 20) as usize % 2];
            (
                "op",
                Request::post(
                    "/op/RESULT_FILE/GetImage",
                    &[
                        ("dataset", dataset.as_str()),
                        ("slice", slice),
                        ("type", "u"),
                    ],
                )
                .with_session(&s.token),
            )
        }
    } else if s.guest {
        let url = format!(
            "/lob/SIMULATION/DESCRIPTION?SIMULATION_KEY=S{:02}",
            (h >> 24) % 3 + 1
        );
        ("lob", Request::get(&url).with_session(&s.token))
    } else {
        let url = &urls[(h >> 24) as usize % urls.len()];
        (
            "download",
            Request::get(&format!("/download?url={}", url_encode(url))).with_session(&s.token),
        )
    }
}

pub(crate) fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

pub(crate) fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Run the calibration plus the three-phase ramp for `cfg`.
pub fn run_load(cfg: &LoadConfig) -> LoadResult {
    let (mut app, sessions, urls, datasets) = build_app(cfg);
    let mut log = String::new();
    let _ = writeln!(
        log,
        "load seed={} sites={} sims_per_site={} guests={} researchers={} \
         phase_requests={} admission={} lockstep={}",
        cfg.seed,
        cfg.sites,
        cfg.sims_per_site,
        cfg.guests,
        cfg.researchers,
        cfg.phase_requests,
        cfg.admission,
        cfg.lockstep
    );

    // Calibration: closed-loop QBE storms measure the mean scan service
    // time on the simulated network, which defines scan capacity.
    let researcher = sessions.iter().find(|s| !s.guest).expect("researcher");
    let cal_t0 = app.archive.net.now();
    for n in 0..cfg.calibration_requests.max(1) {
        let h = mix(cfg.seed, 0xCA11, n as u64);
        let r = app.handle(qbe_request(h, &researcher.token));
        assert_eq!(r.status, 200, "calibration query: {}", r.body_text());
    }
    let mean_scan_service =
        (app.archive.net.now() - cal_t0) / cfg.calibration_requests.max(1) as f64;
    let scan_capacity = SCAN_CONCURRENCY as f64 / mean_scan_service.max(1.0e-6);
    let _ = writeln!(
        log,
        "calibration: mean_scan_service={mean_scan_service:.6}s capacity={scan_capacity:.6}/s"
    );

    // The open-loop ramp: the arrival clock starts at the service clock
    // but advances independently — arrivals do not wait for answers.
    let mut arrival = app.archive.net.now();
    let mut phases = Vec::new();
    for (pi, factor) in LOAD_FACTORS.iter().enumerate() {
        let rate = factor * scan_capacity / SCAN_SHARE;
        let label = format!("ramp-{factor:.1}x");
        let mut delays: [Vec<f64>; 3] = Default::default();
        let mut latencies: [Vec<f64>; 3] = Default::default();
        let mut admitted = [0usize; 3];
        let mut shed = [0usize; 3];
        let mut scan_delay_seq = Vec::new();
        for n in 0..cfg.phase_requests {
            let h = mix(cfg.seed, (pi + 1) as u64, n as u64);
            let u = unit_from(cfg.seed ^ 0xA441_0000, (pi * cfg.phase_requests + n) as u64);
            arrival += -(1.0 - u).ln() / rate;
            let s = &sessions[(h >> 40) as usize % sessions.len()];
            let (kind, req) = gen_request(h, s, &urls, &datasets);
            let t0 = app.archive.net.now();
            let resp = app.handle_at(req, arrival);
            let service = app.archive.net.now() - t0;
            // Same mapping as the portal's own classifier, so the
            // per-class report lines up with the metric families.
            let class = match kind {
                "qbe" | "fedbrowse" | "op" | "upload" => 1,
                "download" | "lob" => 2,
                _ => 0,
            };
            if resp.status == 503 && resp.retry_after.is_some() {
                shed[class] += 1;
                let _ = writeln!(
                    log,
                    "{label} n={n} t={arrival:.6} {kind} SHED retry_after={}",
                    resp.retry_after.unwrap_or(0)
                );
            } else {
                assert!(
                    resp.status < 500,
                    "{label} n={n} {kind}: unexpected {} {}",
                    resp.status,
                    resp.body_text()
                );
                admitted[class] += 1;
                let delay = app.admission.last_queue_delay(RouteClass::ALL[class]);
                delays[class].push(delay);
                latencies[class].push(delay + service);
                if class == 1 {
                    scan_delay_seq.push(delay);
                }
                let _ = writeln!(
                    log,
                    "{label} n={n} t={arrival:.6} {kind} status={} delay={delay:.6} \
                     service={service:.6}",
                    resp.status
                );
            }
        }
        let classes: Vec<ClassStats> = RouteClass::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let d = sorted(delays[i].clone());
                let l = sorted(latencies[i].clone());
                ClassStats {
                    class: c.label(),
                    admitted: admitted[i],
                    shed: shed[i],
                    p50_delay: percentile(&d, 0.5),
                    p99_delay: percentile(&d, 0.99),
                    max_delay: d.last().copied().unwrap_or(0.0),
                    p99_latency: percentile(&l, 0.99),
                }
            })
            .collect();
        let q = (scan_delay_seq.len() / 4).max(1);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let first_q = mean(&scan_delay_seq[..q.min(scan_delay_seq.len())]);
        let last_q = mean(&scan_delay_seq[scan_delay_seq.len().saturating_sub(q)..]);
        for c in &classes {
            let _ = writeln!(
                log,
                "{label} class={} admitted={} shed={} p50_delay={:.6} p99_delay={:.6} \
                 max_delay={:.6} p99_latency={:.6}",
                c.class, c.admitted, c.shed, c.p50_delay, c.p99_delay, c.max_delay, c.p99_latency
            );
        }
        let _ = writeln!(
            log,
            "{label} scan_delay_first_q={first_q:.6} scan_delay_last_q={last_q:.6}"
        );
        phases.push(PhaseResult {
            label,
            load_factor: *factor,
            arrival_rate: rate,
            classes,
            scan_delay_first_q: first_q,
            scan_delay_last_q: last_q,
        });
    }

    let metrics_snapshot = app.handle(Request::get("/metrics")).body_text();
    let _ = writeln!(
        log,
        "metrics sha256={}",
        hex(&sha256(metrics_snapshot.as_bytes()))
    );
    let digest = hex(&sha256(log.as_bytes()));
    LoadResult {
        mean_scan_service,
        scan_capacity,
        phases,
        transcript: log,
        digest,
        metrics_snapshot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64, admission: bool) -> LoadConfig {
        LoadConfig {
            sims_per_site: 6,
            guests: 6,
            researchers: 6,
            calibration_requests: 10,
            phase_requests: 200,
            admission,
            ..LoadConfig::standard(seed)
        }
    }

    #[test]
    fn same_seed_runs_digest_identically() {
        let a = run_load(&small(14, true));
        let b = run_load(&small(14, true));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        // The generator mix covers the operation and upload routes, so
        // the scan queue's admission behaviour is measured over them.
        assert!(a.transcript.contains(" op "), "mix reaches /op");
        assert!(a.transcript.contains(" upload "), "mix reaches /upload");
        for family in [
            "easia_http_queue_depth",
            "easia_http_shed_total",
            "easia_http_admitted_total",
            "easia_http_queue_delay_seconds",
            "easia_http_latency_seconds",
        ] {
            assert!(
                a.metrics_snapshot.contains(family),
                "missing {family} in snapshot"
            );
        }
    }

    #[test]
    fn overload_sheds_with_admission_and_collapses_without() {
        // 400 arrivals per phase: with browses mostly served from
        // prefetch, 200 arrivals end the 2x phase before the ablation's
        // scan queue has built up (E14 itself runs 1,000).
        let cfg = |admission| LoadConfig {
            phase_requests: 400,
            ..small(15, admission)
        };
        let on = run_load(&cfg(true));
        let off = run_load(&cfg(false));
        let on2 = on.phases.last().unwrap();
        let off2 = off.phases.last().unwrap();
        let on_scan = &on2.classes[1];
        let off_scan = &off2.classes[1];
        assert!(on_scan.shed > 0, "2x overload sheds: {on_scan:?}");
        assert_eq!(off_scan.shed, 0, "ablation never sheds");
        assert!(
            off_scan.p99_delay > 5.0 * on_scan.p99_delay.max(1.0e-9),
            "collapse without admission: off p99 {} vs on p99 {}",
            off_scan.p99_delay,
            on_scan.p99_delay
        );
        assert!(
            off2.scan_delay_last_q > off2.scan_delay_first_q,
            "off 2x delay grows through the phase: {} -> {}",
            off2.scan_delay_first_q,
            off2.scan_delay_last_q
        );
        // Underload sheds nothing even with admission on.
        assert_eq!(on.phases[0].classes[1].shed, 0, "0.5x never sheds");
    }
}
