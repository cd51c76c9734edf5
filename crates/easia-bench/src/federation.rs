//! The federation harness behind `exp_e10_federation`: a multi-hub
//! archive (Southampton plus foreign sites on the paper's WAN
//! profiles), a deterministic partitioned SIMULATION catalog, and a
//! five-query browse workload run through the SQL/MED scatter-gather
//! engine — once with pushdown, once shipping everything — with the
//! whole run captured as a transcript and hashed, E9-style.

use easia_core::{paper_link_spec, Archive};
use easia_crypto::sha256::{hex, sha256};
use easia_db::{Database, Value};
use easia_med::Partition;
use std::fmt::Write as _;

/// Parameters of one federation run.
#[derive(Debug, Clone)]
pub struct FedBenchConfig {
    /// Seed for all generated catalog data.
    pub seed: u64,
    /// Number of foreign sites (1..=3 named cam/edin/mcc).
    pub sites: usize,
    /// Simulations per site (the hub's local partition included).
    pub rows_per_site: usize,
    /// Enable predicate/projection/top-k pushdown and pruning.
    pub pushdown: bool,
}

impl FedBenchConfig {
    /// The default scenario: 2 foreign sites × 60 simulations each.
    pub fn standard(seed: u64) -> Self {
        FedBenchConfig {
            seed,
            sites: 2,
            rows_per_site: 60,
            pushdown: true,
        }
    }
}

/// Everything a federation run produced, plus the reproducibility
/// digest.
#[derive(Debug, Clone)]
pub struct FedBenchResult {
    /// Human-readable log: per query the SQL, the EXPLAIN FEDERATED
    /// report, and a hash of the merged rows.
    pub transcript: String,
    /// SHA-256 of the transcript (covers the metrics snapshot too).
    pub digest: String,
    /// Bytes placed on the WAN across the workload.
    pub bytes_wire: u64,
    /// Rows shipped from remote sites across the workload.
    pub rows_shipped: u64,
    /// Simulated seconds the workload took.
    pub elapsed_secs: f64,
    /// Queries executed.
    pub queries: usize,
    /// Metrics registry snapshot at the end of the run.
    pub metrics_snapshot: String,
}

const SITE_NAMES: [&str; 3] = ["cam", "edin", "mcc"];

/// Titles follow the seed paper's turbulence vocabulary.
const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

const SIM_DDL: &str = "CREATE TABLE SIMULATION (
    SIMULATION_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    TITLE VARCHAR(80),
    GRID_SIZE INTEGER,
    VISCOSITY DOUBLE,
    CREATED TIMESTAMP
)";

fn seed_partition(db: &mut Database, site: &str, site_no: u64, cfg: &FedBenchConfig) {
    db.execute(SIM_DDL).expect("simulation schema");
    for i in 0..cfg.rows_per_site {
        let h = mix(cfg.seed, site_no, i as u64);
        let grid = 64 << (h % 4); // 64..512
        let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
        let viscosity = ((h >> 16) % 1000) as f64 / 1000.0;
        let created = 900_000_000 + ((h >> 24) % 100_000) as i64;
        db.execute(&format!(
            "INSERT INTO SIMULATION VALUES ('{site}-{i:04}', '{site}', \
             '{topic} turbulence run {i}', {grid}, {viscosity}, {created})"
        ))
        .expect("seed row");
    }
}

/// Build the multi-hub archive for `cfg`: the hub holds the `soton`
/// partition, each foreign site its own, all over the paper's measured
/// SuperJANET day/evening profiles.
pub fn build_federated_archive(cfg: &FedBenchConfig) -> Archive {
    assert!((1..=SITE_NAMES.len()).contains(&cfg.sites), "1..=3 sites");
    let mut b = Archive::builder();
    for site in &SITE_NAMES[..cfg.sites] {
        b = b.federated_site(site, paper_link_spec());
    }
    let mut a = b.build();
    seed_partition(&mut a.db, "soton", 0, cfg);
    let mut partitions = vec![Partition::new(None, &["soton"])];
    for (i, site) in SITE_NAMES[..cfg.sites].iter().enumerate() {
        let s = a.federation.site(site).expect("registered site");
        seed_partition(&mut s.db.borrow_mut(), site, i as u64 + 1, cfg);
        partitions.push(Partition::new(Some(site), &[site]));
    }
    a.federation
        .catalog
        .import_foreign_table(&a.db, "SIMULATION", Some("SITE"), partitions)
        .expect("foreign table registers");
    a.federation.analyze(&a.db).expect("analyze");
    a.federation.pushdown = cfg.pushdown;
    a
}

/// The browse workload: site-key point lookup (pruning), predicate
/// pushdown, top-k, a grouped aggregate, and a LIKE scan.
pub fn workload() -> Vec<&'static str> {
    vec![
        "SELECT SIMULATION_KEY, TITLE FROM SIMULATION WHERE SITE = 'cam'",
        "SELECT SIMULATION_KEY, GRID_SIZE FROM SIMULATION \
         WHERE GRID_SIZE >= 256 AND VISCOSITY < 0.5",
        "SELECT SIMULATION_KEY, CREATED FROM SIMULATION \
         ORDER BY CREATED DESC, SIMULATION_KEY LIMIT 5",
        "SELECT SITE, COUNT(*), MAX(GRID_SIZE) FROM SIMULATION GROUP BY SITE ORDER BY SITE",
        "SELECT SIMULATION_KEY FROM SIMULATION WHERE TITLE LIKE 'Decaying%' \
         ORDER BY SIMULATION_KEY",
    ]
}

/// Run the workload for `cfg` and capture the transcript.
pub fn run_federation(cfg: &FedBenchConfig) -> FedBenchResult {
    let mut a = build_federated_archive(cfg);
    let mut log = String::new();
    let _ = writeln!(
        log,
        "federation seed={} sites={} rows_per_site={} pushdown={}",
        cfg.seed, cfg.sites, cfg.rows_per_site, cfg.pushdown
    );
    let start = a.net.now();
    let mut bytes_wire = 0u64;
    let mut rows_shipped = 0u64;
    let queries = workload();
    for sql in &queries {
        let out = a.federated_query(sql, &[]).expect("federated query");
        bytes_wire += out.explain.bytes_wire();
        rows_shipped += out.explain.rows_shipped();
        let mut rows_text = String::new();
        for row in &out.rs.rows {
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            let _ = writeln!(rows_text, "{}", cells.join("|"));
        }
        let _ = writeln!(log, "query: {sql}");
        let _ = writeln!(log, "{}", out.explain.render());
        let _ = writeln!(
            log,
            "rows={} sha256={}",
            out.rs.rows.len(),
            hex(&sha256(rows_text.as_bytes()))
        );
    }
    let elapsed = a.net.now() - start;
    let _ = writeln!(log, "elapsed={elapsed:.6}");

    let metrics_snapshot = a.obs.metrics.render();
    let _ = writeln!(
        log,
        "metrics sha256={}",
        hex(&sha256(metrics_snapshot.as_bytes()))
    );
    let digest = hex(&sha256(log.as_bytes()));
    FedBenchResult {
        digest,
        bytes_wire,
        rows_shipped,
        elapsed_secs: elapsed,
        queries: queries.len(),
        metrics_snapshot,
        transcript: log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_runs_digest_identically() {
        let cfg = FedBenchConfig {
            rows_per_site: 20,
            ..FedBenchConfig::standard(13)
        };
        let a = run_federation(&cfg);
        let b = run_federation(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert!(a.metrics_snapshot.contains("easia_med_rows_shipped_total"));
        assert!(a.metrics_snapshot.contains("easia_med_bytes_wire_total"));
        assert!(a.metrics_snapshot.contains("easia_med_rows_pruned_total"));
    }

    #[test]
    fn pushdown_reduces_bytes_and_time() {
        let cfg = FedBenchConfig {
            rows_per_site: 20,
            ..FedBenchConfig::standard(7)
        };
        let on = run_federation(&cfg);
        let off = run_federation(&FedBenchConfig {
            pushdown: false,
            ..cfg
        });
        assert!(
            on.bytes_wire < off.bytes_wire,
            "pushdown {} vs ship-all {}",
            on.bytes_wire,
            off.bytes_wire
        );
        assert!(on.rows_shipped < off.rows_shipped);
        assert!(on.elapsed_secs <= off.elapsed_secs);
    }

    #[test]
    fn federated_results_match_a_single_hub_oracle() {
        let cfg = FedBenchConfig {
            rows_per_site: 15,
            ..FedBenchConfig::standard(21)
        };
        let mut a = build_federated_archive(&cfg);
        // Oracle: one database holding every partition's rows.
        let mut oracle = Database::new_in_memory();
        seed_partition(&mut oracle, "soton", 0, &cfg);
        for (i, site) in SITE_NAMES[..cfg.sites].iter().enumerate() {
            let mut tmp = Database::new_in_memory();
            seed_partition(&mut tmp, site, i as u64 + 1, &cfg);
            let rows = tmp.execute("SELECT * FROM SIMULATION").unwrap().rows;
            for r in rows {
                oracle.insert_row("SIMULATION", r).unwrap();
            }
        }
        for sql in workload() {
            let fed = a.federated_query(sql, &[]).expect("federated").rs;
            let want = oracle.execute(sql).expect("oracle");
            assert_eq!(fed.rows, want.rows, "divergence on {sql}");
        }
    }
}
