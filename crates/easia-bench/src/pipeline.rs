//! The pipelined-gather harness behind `exp_e13_pipeline`: the E13
//! latency experiments for the event-driven federation pump.
//!
//! Four scenarios, one seeded run, one digest:
//!
//! 1. **Max-of-sites latency.** A SIM catalog partitioned over two
//!    deliberately slow, asymmetric WAN links is queried per-site and
//!    then as one scatter. The combined screen's latency tracks the
//!    slowest single site, not the serial sum — the pump overlaps every
//!    site's request/stream chain in one clock-ordered event loop.
//!    The lockstep ablation answers bit-for-bit identically (same row
//!    hash), pinning that the refactor changed scheduling, not merge
//!    semantics.
//! 2. **Sibling overlap.** Two site-pruned statements from one portal
//!    session run through [`Federation::query_many`]: pipelined they
//!    share the pump and their WAN round trips overlap; lockstep they
//!    serialise — the measured ratio is the E13 sibling win.
//! 3. **Speculative FK-browse walk.** A hypertext ping-pong over a
//!    federated AUTHOR/SIMULATION pair: every screen prefetches the
//!    keyed scans behind its own links, so every follow-the-link click
//!    is a prefetch hit until a committed remote write invalidates the
//!    parked screens (one stale, served live, then hits resume).
//! 4. **E14 capacity delta.** The open-loop load harness is calibrated
//!    twice — pipelined and lockstep — to show the event-driven pump
//!    preserves scan capacity and 2x-overload shedding while buying
//!    its latency wins.
//!
//! [`Federation::query_many`]: easia_med::Federation::query_many

use crate::load::{run_load, LoadConfig};
use easia_core::{paper_link_spec, Archive, WebApp};
use easia_crypto::sha256::{hex, sha256};
use easia_db::Value;
use easia_med::Partition;
use easia_net::LinkSpec;
use easia_web::http::Request;
use std::fmt::Write as _;

/// Parameters of one E13 run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Seed for generated rows and the load sub-run.
    pub seed: u64,
    /// Remote SIM rows per site in the gather rig.
    pub rows_per_site: usize,
    /// Rows per shipped batch frame in the gather rig (small, so each
    /// site streams several frames and the pump's overlap is visible).
    pub batch_rows: usize,
    /// Follow-the-link clicks in the FK-browse walk.
    pub browse_clicks: usize,
    /// The E14 load sub-run measured under both pump modes.
    pub load: LoadConfig,
}

impl PipelineConfig {
    /// The default scenario: 40 rows/site in 8-row frames, a 6-click
    /// browse walk, and a reduced E14 ramp for the capacity delta.
    pub fn standard(seed: u64) -> Self {
        PipelineConfig {
            seed,
            rows_per_site: 40,
            batch_rows: 8,
            browse_clicks: 6,
            load: LoadConfig {
                sims_per_site: 6,
                guests: 6,
                researchers: 6,
                calibration_requests: 10,
                phase_requests: 300,
                ..LoadConfig::standard(seed)
            },
        }
    }
}

/// One timed federated statement.
#[derive(Debug, Clone)]
pub struct Timing {
    /// What was measured (site name or scenario label).
    pub label: String,
    /// Simulated seconds the statement(s) took.
    pub elapsed: f64,
    /// SHA-256 over the merged rows.
    pub row_hash: String,
    /// Bytes placed on the WAN.
    pub bytes_wire: u64,
}

/// Prefetch-walk observations.
#[derive(Debug, Clone, Default)]
pub struct PrefetchStats {
    /// Browse clicks issued.
    pub clicks: usize,
    /// Clicks served from a parked speculative outcome.
    pub hits: u64,
    /// Clicks whose parked outcome a write had invalidated.
    pub stale: u64,
    /// Speculative scans issued across the walk.
    pub issued: u64,
}

impl PrefetchStats {
    /// Fraction of clicks answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.clicks.max(1)) as f64
    }
}

/// Everything an E13 run produced, plus the reproducibility digest.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Per-site single-partition screen latencies (scenario 1).
    pub per_site: Vec<Timing>,
    /// The combined scatter under the pipelined pump.
    pub combined_pipelined: Timing,
    /// The combined scatter under the lockstep ablation.
    pub combined_lockstep: Timing,
    /// Two sibling statements through `query_many`, lockstep.
    pub siblings_lockstep: Timing,
    /// Two sibling statements through `query_many`, pipelined.
    pub siblings_pipelined: Timing,
    /// The FK-browse walk (scenario 3).
    pub prefetch: PrefetchStats,
    /// E14 scan capacity (req/s) under the lockstep ablation.
    pub capacity_lockstep: f64,
    /// E14 scan capacity (req/s) under the pipelined pump.
    pub capacity_pipelined: f64,
    /// Requests shed in the 2x phase, (lockstep, pipelined).
    pub shed_2x: (usize, usize),
    /// Human-readable log of the whole run.
    pub transcript: String,
    /// SHA-256 of the transcript.
    pub digest: String,
}

impl PipelineResult {
    /// Serial per-site sum the combined screen is measured against.
    pub fn serial_sum(&self) -> f64 {
        self.per_site.iter().map(|t| t.elapsed).sum()
    }

    /// The slowest single site's screen latency.
    pub fn slowest_site(&self) -> f64 {
        self.per_site.iter().map(|t| t.elapsed).fold(0.0, f64::max)
    }
}

/// The gather rig's WAN: two deliberately slow, asymmetric links, so a
/// batch frame's transfer time dominates its latency and the serial
/// sum clearly separates from the max.
const GATHER_SITES: [(&str, f64, f64); 2] = [("cam", 40_000.0, 0.05), ("edin", 30_000.0, 0.08)];

const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];

const SIM_DDL: &str = "CREATE TABLE SIM (
    K VARCHAR(20) PRIMARY KEY,
    SITE VARCHAR(10),
    N INTEGER,
    NOTES VARCHAR(160)
)";

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

fn insert_sim_rows(db: &mut easia_db::Database, site: &str, site_no: u64, n: usize, seed: u64) {
    db.execute(SIM_DDL).expect("SIM schema");
    for i in 0..n {
        let h = mix(seed, site_no, i as u64);
        let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
        let notes = format!(
            "{topic} cascade batch {i} archived at {site} with spectral \
             coefficients and restart planes retained for replay"
        );
        db.execute(&format!(
            "INSERT INTO SIM VALUES ('{site}-{i:04}', '{site}', {}, '{notes}')",
            h % 1000
        ))
        .expect("SIM row");
    }
}

/// A fresh gather rig: hub partition plus [`GATHER_SITES`], SIM
/// imported with SITE partition pruning, small batch frames, and the
/// requested pump mode. Fresh per measurement so breakers, caches and
/// the network clock never leak between timings.
fn gather_rig(cfg: &PipelineConfig, lockstep: bool) -> Archive {
    let mut b = Archive::builder();
    for (site, bps, lat) in GATHER_SITES {
        b = b.federated_site(site, LinkSpec::symmetric(bps, lat));
    }
    let mut a = b.build();
    insert_sim_rows(&mut a.db, "soton", 0, 4, cfg.seed);
    let mut partitions = vec![Partition::new(None, &["soton"])];
    for (i, (site, _, _)) in GATHER_SITES.iter().enumerate() {
        let s = a.federation.site(site).expect("registered site");
        insert_sim_rows(
            &mut s.db.borrow_mut(),
            site,
            i as u64 + 1,
            cfg.rows_per_site,
            cfg.seed,
        );
        partitions.push(Partition::new(Some(site), &[site]));
    }
    a.federation
        .catalog
        .import_foreign_table(&a.db, "SIM", Some("SITE"), partitions)
        .expect("foreign table registers");
    a.federation.analyze(&a.db).expect("analyze");
    a.federation.batch_rows = cfg.batch_rows;
    a.federation.lockstep = lockstep;
    a
}

fn row_hash(rows: &[Vec<Value>]) -> String {
    let mut text = String::new();
    for row in rows {
        let cells: Vec<String> = row.iter().map(Value::to_string).collect();
        let _ = writeln!(text, "{}", cells.join("|"));
    }
    hex(&sha256(text.as_bytes()))
}

fn timed_query(a: &mut Archive, label: &str, sql: &str) -> Timing {
    let t0 = a.net.now();
    let out = a.federated_query(sql, &[]).expect("federated query");
    Timing {
        label: label.to_string(),
        elapsed: a.net.now() - t0,
        row_hash: row_hash(&out.rs.rows),
        bytes_wire: out.explain.bytes_wire(),
    }
}

/// Two site-pruned sibling statements through one `query_many` call;
/// the timing covers both answers landing.
fn timed_siblings(a: &mut Archive, label: &str) -> Timing {
    let queries: Vec<(String, Vec<Value>)> = GATHER_SITES
        .iter()
        .map(|(site, _, _)| {
            (
                format!("SELECT K, N, NOTES FROM SIM WHERE SITE = '{site}' ORDER BY K"),
                Vec::new(),
            )
        })
        .collect();
    let t0 = a.net.now();
    let results = a
        .federation
        .query_many(&mut a.net, a.db_host, &a.db, Some(&a.obs), &queries);
    let elapsed = a.net.now() - t0;
    let mut rows = Vec::new();
    let mut bytes = 0u64;
    for r in results {
        let out = r.expect("sibling query");
        bytes += out.explain.bytes_wire();
        rows.extend(out.rs.rows);
    }
    Timing {
        label: label.to_string(),
        elapsed,
        row_hash: row_hash(&rows),
        bytes_wire: bytes,
    }
}

/// First value of an unlabeled counter in a metrics snapshot.
fn counter_value(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

const AUTHOR_DDL: &str = "CREATE TABLE AUTHOR (
    AUTHOR_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    NAME VARCHAR(80)
)";
const SIMULATION_DDL: &str = "CREATE TABLE SIMULATION (
    SIMULATION_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    TITLE VARCHAR(80),
    AUTHOR_KEY VARCHAR(40) REFERENCES AUTHOR(AUTHOR_KEY)
)";

/// The paper's hypertext browsing pattern over a federated AUTHOR /
/// SIMULATION pair: render a result screen, then keep following the
/// links that screen offers. Each render speculatively runs the keyed
/// scans behind its own FK/PK links, so the next click is served from
/// the prefetch cache; midway a committed write on the remote site
/// invalidates the parked screens and exactly one click runs live.
fn browse_walk(cfg: &PipelineConfig, log: &mut String) -> PrefetchStats {
    let mut a = Archive::builder()
        .federated_site("cam", paper_link_spec())
        .build();
    for ddl in [AUTHOR_DDL, SIMULATION_DDL] {
        a.db.execute(ddl).expect("hub schema");
    }
    a.db.execute("INSERT INTO AUTHOR VALUES ('A1', 'soton', 'Mark')")
        .expect("hub author");
    a.db.execute("INSERT INTO SIMULATION VALUES ('soton-0', 'soton', 'Local run', 'A1')")
        .expect("hub simulation");
    {
        let site = a.federation.site("cam").expect("cam registered");
        let mut db = site.db.borrow_mut();
        for ddl in [AUTHOR_DDL, SIMULATION_DDL] {
            db.execute(ddl).expect("site schema");
        }
        db.execute("INSERT INTO AUTHOR VALUES ('A2', 'cam', 'Remote')")
            .expect("site author");
        for i in 0..3 {
            db.execute(&format!(
                "INSERT INTO SIMULATION VALUES ('cam-{i}', 'cam', 'Remote run {i}', 'A2')"
            ))
            .expect("site simulation");
        }
    }
    for table in ["AUTHOR", "SIMULATION"] {
        a.federation
            .catalog
            .import_foreign_table(
                &a.db,
                table,
                Some("SITE"),
                vec![
                    Partition::new(None, &["soton"]),
                    Partition::new(Some("cam"), &["cam"]),
                ],
            )
            .expect("foreign table registers");
    }
    a.generate_xuis_federated(4);
    let now = a.clock.now();
    let u = a
        .users
        .authenticate("admin", "hpcc-admin")
        .expect("admin")
        .clone();
    let token = a.sessions.open(&u, now);
    let mut app = WebApp::new(a);

    // The anchor screen: its FK links are speculatively executed while
    // it renders.
    let r =
        app.handle(Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&token));
    assert_eq!(r.status, 200, "anchor screen: {}", r.body_text());
    let _ = writeln!(
        log,
        "walk anchor parked={} body_has_fk={}",
        app.archive.prefetch.len(),
        r.body_text().contains("/browse/fk/AUTHOR.AUTHOR_KEY")
    );

    // Ping-pong the remote author's drill-down: AUTHOR screen offers
    // its simulations, the SIMULATION screen offers the author back.
    // Every click follows a link the previous screen prefetched.
    let mut clicks = 0usize;
    for i in 0..cfg.browse_clicks {
        if i == cfg.browse_clicks / 2 {
            // A committed write at the site invalidates every parked
            // screen: the very next click must run live.
            app.archive
                .federation
                .site("cam")
                .expect("cam registered")
                .db
                .borrow_mut()
                .execute("UPDATE AUTHOR SET NAME = 'Renamed' WHERE AUTHOR_KEY = 'A2'")
                .expect("remote write");
            let _ = writeln!(log, "walk write committed before click {i}");
        }
        let url = if i % 2 == 0 {
            "/browse/fk/AUTHOR.AUTHOR_KEY?value=A2"
        } else {
            "/browse/pk/SIMULATION.AUTHOR_KEY?value=A2"
        };
        let r = app.handle(Request::get(url).with_session(&token));
        assert_eq!(r.status, 200, "walk click {i}: {}", r.body_text());
        clicks += 1;
        let prefetched = r.body_text().contains("served from speculative prefetch");
        let _ = writeln!(log, "walk click {i} url={url} prefetched={prefetched}");
    }

    let m = app.archive.obs.metrics.render();
    let stats = PrefetchStats {
        clicks,
        hits: counter_value(&m, "easia_med_prefetch_hits_total"),
        stale: counter_value(&m, "easia_med_prefetch_stale_total"),
        issued: counter_value(&m, "easia_med_prefetch_issued_total"),
    };
    let _ = writeln!(
        log,
        "walk clicks={} hits={} stale={} issued={} hit_rate={:.3}",
        stats.clicks,
        stats.hits,
        stats.stale,
        stats.issued,
        stats.hit_rate()
    );
    stats
}

/// Run all four E13 scenarios for `cfg` and capture the transcript.
pub fn run_pipeline(cfg: &PipelineConfig) -> PipelineResult {
    let mut log = String::new();
    let _ = writeln!(
        log,
        "pipeline seed={} rows_per_site={} batch_rows={} browse_clicks={} \
         load_phase_requests={}",
        cfg.seed, cfg.rows_per_site, cfg.batch_rows, cfg.browse_clicks, cfg.load.phase_requests
    );

    // Scenario 1: per-site screens, then the combined scatter in both
    // pump modes. Fresh rig per timing.
    let mut per_site = Vec::new();
    for (site, _, _) in GATHER_SITES {
        let mut a = gather_rig(cfg, false);
        let t = timed_query(
            &mut a,
            site,
            &format!("SELECT K, N, NOTES FROM SIM WHERE SITE = '{site}' ORDER BY K"),
        );
        let _ = writeln!(
            log,
            "site={} elapsed={:.6} bytes={} rows_sha={}",
            t.label, t.elapsed, t.bytes_wire, t.row_hash
        );
        per_site.push(t);
    }
    const ALL_SQL: &str = "SELECT K, N, NOTES FROM SIM ORDER BY K";
    let combined_pipelined = timed_query(&mut gather_rig(cfg, false), "pipelined", ALL_SQL);
    let combined_lockstep = timed_query(&mut gather_rig(cfg, true), "lockstep", ALL_SQL);
    for t in [&combined_pipelined, &combined_lockstep] {
        let _ = writeln!(
            log,
            "combined={} elapsed={:.6} bytes={} rows_sha={}",
            t.label, t.elapsed, t.bytes_wire, t.row_hash
        );
    }
    assert_eq!(
        combined_pipelined.row_hash, combined_lockstep.row_hash,
        "pump modes must merge bit-for-bit identical screens"
    );

    // Scenario 2: sibling statements through one query_many call.
    let siblings_lockstep = timed_siblings(&mut gather_rig(cfg, true), "siblings-lockstep");
    let siblings_pipelined = timed_siblings(&mut gather_rig(cfg, false), "siblings-pipelined");
    for t in [&siblings_lockstep, &siblings_pipelined] {
        let _ = writeln!(
            log,
            "{} elapsed={:.6} bytes={} rows_sha={}",
            t.label, t.elapsed, t.bytes_wire, t.row_hash
        );
    }
    assert_eq!(
        siblings_lockstep.row_hash, siblings_pipelined.row_hash,
        "sibling answers must agree across pump modes"
    );

    // Scenario 3: the speculative FK-browse walk.
    let prefetch = browse_walk(cfg, &mut log);

    // Scenario 4: the E14 capacity delta. Same seed, same ramp, only
    // the pump mode differs.
    let lock = run_load(&LoadConfig {
        lockstep: true,
        ..cfg.load.clone()
    });
    let pipe = run_load(&LoadConfig {
        lockstep: false,
        ..cfg.load.clone()
    });
    let shed_at = |r: &crate::load::LoadResult| {
        r.phases
            .last()
            .map(|p| p.classes[1].shed)
            .unwrap_or_default()
    };
    let shed_2x = (shed_at(&lock), shed_at(&pipe));
    let _ = writeln!(
        log,
        "load lockstep capacity={:.6} mean_scan_service={:.6} shed_2x={} digest={}",
        lock.scan_capacity, lock.mean_scan_service, shed_2x.0, lock.digest
    );
    let _ = writeln!(
        log,
        "load pipelined capacity={:.6} mean_scan_service={:.6} shed_2x={} digest={}",
        pipe.scan_capacity, pipe.mean_scan_service, shed_2x.1, pipe.digest
    );

    let digest = hex(&sha256(log.as_bytes()));
    PipelineResult {
        per_site,
        combined_pipelined,
        combined_lockstep,
        siblings_lockstep,
        siblings_pipelined,
        prefetch,
        capacity_lockstep: lock.scan_capacity,
        capacity_pipelined: pipe.scan_capacity,
        shed_2x,
        transcript: log,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> PipelineConfig {
        PipelineConfig {
            rows_per_site: 16,
            batch_rows: 4,
            browse_clicks: 4,
            load: LoadConfig {
                sims_per_site: 4,
                guests: 4,
                researchers: 4,
                calibration_requests: 6,
                phase_requests: 120,
                ..LoadConfig::standard(seed)
            },
            ..PipelineConfig::standard(seed)
        }
    }

    #[test]
    fn same_seed_runs_digest_identically() {
        let a = run_pipeline(&small(13));
        let b = run_pipeline(&small(13));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.transcript, b.transcript);
    }

    #[test]
    fn combined_screen_tracks_the_slowest_site_and_siblings_overlap() {
        let r = run_pipeline(&small(17));
        // Scenario 1: latency = max of sites, not the serial sum.
        assert!(
            r.combined_pipelined.elapsed < 0.8 * r.serial_sum(),
            "combined {:.4}s must beat the serial sum {:.4}s",
            r.combined_pipelined.elapsed,
            r.serial_sum()
        );
        assert!(
            r.combined_pipelined.elapsed >= 0.9 * r.slowest_site(),
            "combined {:.4}s cannot beat the slowest site {:.4}s",
            r.combined_pipelined.elapsed,
            r.slowest_site()
        );
        // Scenario 2: sibling round trips overlap under the pump.
        assert!(
            r.siblings_pipelined.elapsed < 0.85 * r.siblings_lockstep.elapsed,
            "siblings pipelined {:.4}s vs lockstep {:.4}s",
            r.siblings_pipelined.elapsed,
            r.siblings_lockstep.elapsed
        );
        assert_eq!(
            r.siblings_pipelined.bytes_wire,
            r.siblings_lockstep.bytes_wire
        );
        // Scenario 3: the walk hits until the write, exactly one stale.
        assert!(r.prefetch.hits >= 2, "walk hits: {:?}", r.prefetch);
        assert_eq!(
            r.prefetch.stale, 1,
            "one invalidated click: {:?}",
            r.prefetch
        );
        assert!(r.prefetch.issued >= r.prefetch.hits);
        // Scenario 4: capacity survives the refactor, both modes shed.
        assert!(r.capacity_pipelined > 0.0 && r.capacity_lockstep > 0.0);
        assert!(
            r.capacity_pipelined >= 0.75 * r.capacity_lockstep,
            "pipelined capacity {:.4} vs lockstep {:.4}",
            r.capacity_pipelined,
            r.capacity_lockstep
        );
        assert!(r.shed_2x.0 > 0 && r.shed_2x.1 > 0, "2x sheds in both modes");
    }
}
