//! The semi-join shipping harness behind `exp_e12_semijoin`: a
//! multi-hub archive whose RESULT_FILE catalog deliberately references
//! simulations held at *other* sites, run through the browse-screen
//! join workload twice — once with semi-join key shipping, once with
//! the key cap forced to zero so every keyed leg degrades to a
//! full-partition ship — with the whole run captured as a transcript
//! and hashed, E10-style.

use easia_core::{paper_link_spec, Archive};
use easia_crypto::sha256::{hex, sha256};
use easia_db::Value;
use easia_med::Partition;
use std::fmt::Write as _;

/// Parameters of one semi-join run.
#[derive(Debug, Clone)]
pub struct SemiJoinBenchConfig {
    /// Seed for all generated catalog data.
    pub seed: u64,
    /// Number of foreign sites (1..=3 named cam/edin/mcc).
    pub sites: usize,
    /// Simulations per site (the hub's local partition included).
    pub sims_per_site: usize,
    /// Result files per simulation, each referencing a simulation at
    /// the *next* site round-robin so every join crosses a partition.
    pub files_per_sim: usize,
    /// Ship join keys to the remote side (false forces the
    /// full-partition fallback by capping the key list at zero).
    pub semijoin: bool,
}

impl SemiJoinBenchConfig {
    /// The default scenario: 2 foreign sites, 40 simulations each,
    /// 3 result files per simulation.
    pub fn standard(seed: u64) -> Self {
        SemiJoinBenchConfig {
            seed,
            sites: 2,
            sims_per_site: 60,
            files_per_sim: 2,
            semijoin: true,
        }
    }
}

/// Everything a semi-join run produced, plus the reproducibility
/// digest.
#[derive(Debug, Clone)]
pub struct SemiJoinBenchResult {
    /// Human-readable log: per query the SQL, the EXPLAIN FEDERATED
    /// report, and a hash of the merged rows.
    pub transcript: String,
    /// SHA-256 of the transcript (covers the metrics snapshot too).
    pub digest: String,
    /// Per-query SHA-256 of the merged rows — mode-independent, so a
    /// keyed run can be checked row-for-row against a full-ship run.
    pub row_hashes: Vec<String>,
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

// The simulation side is deliberately wide (title plus a notes blob):
// it is the table a naive join ships wholesale, and the one semi-join
// shipping reduces to the handful of referenced rows.
const SIM_DDL: &str = "CREATE TABLE SIMULATION (
    SIMULATION_KEY VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    TITLE VARCHAR(80),
    NOTES VARCHAR(200),
    GRID_SIZE INTEGER,
    VISCOSITY DOUBLE
)";

// No REFERENCES clause: the files point at simulations held by other
// sites, which a per-site constraint could never validate (the paper's
// XUIS links carry the relationship instead).
const RF_DDL: &str = "CREATE TABLE RESULT_FILE (
    FILE_NAME VARCHAR(40) PRIMARY KEY,
    SITE VARCHAR(20),
    SIMULATION_KEY VARCHAR(40),
    FILE_SIZE INTEGER
)";

fn seed_partition(
    db: &mut easia_db::Database,
    site: &str,
    site_no: u64,
    cfg: &SemiJoinBenchConfig,
) {
    db.execute(SIM_DDL).expect("simulation schema");
    db.execute(RF_DDL).expect("result file schema");
    let n_sites = cfg.sites + 1; // foreign sites plus the soton hub
    let all_sites: Vec<&str> = std::iter::once("soton")
        .chain(SITE_NAMES[..cfg.sites].iter().copied())
        .collect();
    for i in 0..cfg.sims_per_site {
        let h = mix(cfg.seed, site_no, i as u64);
        let grid = 64 << (h % 4); // 64..512
        let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
        let viscosity = ((h >> 16) % 1000) as f64 / 1000.0;
        let notes = format!(
            "{topic} box turbulence, {grid}^3 collocation points, \
             hyperviscous closure {viscosity:.3}, archived from the \
             {site} compute cluster with full restart dumps retained"
        );
        db.execute(&format!(
            "INSERT INTO SIMULATION VALUES ('{site}-{i:04}', '{site}', \
             '{topic} turbulence run {i}', '{notes}', {grid}, {viscosity})"
        ))
        .expect("seed simulation");
        for f in 0..cfg.files_per_sim {
            let hf = mix(cfg.seed, site_no * 1000 + i as u64, f as u64);
            // Reference a simulation one site over: every file's parent
            // lives in a different partition than the file itself.
            let ref_site = all_sites[(site_no as usize + 1) % n_sites];
            let size = (hf % 1000) as i64;
            db.execute(&format!(
                "INSERT INTO RESULT_FILE VALUES ('{site}-f{i:04}-{f}', \
                 '{site}', '{ref_site}-{i:04}', {size})"
            ))
            .expect("seed result file");
        }
    }
}

/// Build the multi-hub archive for `cfg`: the hub holds the `soton`
/// partition, each foreign site its own, all over the paper's measured
/// SuperJANET day/evening profiles.
pub fn build_semijoin_archive(cfg: &SemiJoinBenchConfig) -> Archive {
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
    for table in ["SIMULATION", "RESULT_FILE"] {
        a.federation
            .catalog
            .import_foreign_table(&a.db, table, Some("SITE"), partitions.clone())
            .expect("foreign table registers");
    }
    a.federation.analyze(&a.db).expect("analyze");
    if !cfg.semijoin {
        // A zero-key cap makes every keyed leg overflow, degrading to
        // the annotated full-partition ship — the ablation baseline.
        a.federation.semijoin_max_keys = 0;
    }
    a
}

/// The join workload: the browse screens' shapes — a selective anchor
/// joined to its cross-site parents, a LEFT JOIN substitute lookup,
/// and a grouped rollup over the joined pair.
pub fn workload() -> Vec<&'static str> {
    vec![
        "SELECT R.FILE_NAME, S.TITLE FROM RESULT_FILE R \
         JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY \
         WHERE R.FILE_SIZE >= 970 ORDER BY R.FILE_NAME",
        "SELECT R.FILE_NAME, R.FILE_SIZE, S.TITLE, S.GRID_SIZE FROM RESULT_FILE R \
         LEFT JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY \
         WHERE R.SITE = 'cam' AND R.FILE_SIZE < 40 ORDER BY R.FILE_NAME",
        "SELECT S.SITE, COUNT(*) FROM RESULT_FILE R \
         JOIN SIMULATION S ON R.SIMULATION_KEY = S.SIMULATION_KEY \
         WHERE R.FILE_SIZE >= 980 GROUP BY S.SITE ORDER BY S.SITE",
    ]
}

/// Run the workload for `cfg` and capture the transcript.
pub fn run_semijoin(cfg: &SemiJoinBenchConfig) -> SemiJoinBenchResult {
    let mut a = build_semijoin_archive(cfg);
    let mut log = String::new();
    let _ = writeln!(
        log,
        "semijoin seed={} sites={} sims_per_site={} files_per_sim={} semijoin={}",
        cfg.seed, cfg.sites, cfg.sims_per_site, cfg.files_per_sim, cfg.semijoin
    );
    let start = a.net.now();
    let mut bytes_wire = 0u64;
    let mut rows_shipped = 0u64;
    let mut row_hashes = Vec::new();
    let queries = workload();
    for sql in &queries {
        let out = a.federated_query(sql, &[]).expect("federated join");
        bytes_wire += out.explain.bytes_wire();
        rows_shipped += out.explain.rows_shipped();
        let mut rows_text = String::new();
        for row in &out.rs.rows {
            let cells: Vec<String> = row.iter().map(Value::to_string).collect();
            let _ = writeln!(rows_text, "{}", cells.join("|"));
        }
        let rows_sha = hex(&sha256(rows_text.as_bytes()));
        let _ = writeln!(log, "query: {sql}");
        let _ = writeln!(log, "{}", out.explain.render());
        let _ = writeln!(log, "rows={} sha256={}", out.rs.rows.len(), rows_sha);
        row_hashes.push(rows_sha);
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
    SemiJoinBenchResult {
        digest,
        row_hashes,
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
        let cfg = SemiJoinBenchConfig {
            sims_per_site: 12,
            ..SemiJoinBenchConfig::standard(13)
        };
        let a = run_semijoin(&cfg);
        let b = run_semijoin(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert!(a
            .metrics_snapshot
            .contains("easia_med_semijoin_keys_shipped_total"));
    }

    #[test]
    fn key_shipping_beats_full_ship_by_3x_with_identical_rows() {
        let cfg = SemiJoinBenchConfig::standard(7);
        let keyed = run_semijoin(&cfg);
        let full = run_semijoin(&SemiJoinBenchConfig {
            semijoin: false,
            ..cfg
        });
        assert_eq!(keyed.row_hashes, full.row_hashes, "join answers must agree");
        assert!(
            keyed.bytes_wire * 3 <= full.bytes_wire,
            "semi-join {} vs full-ship {} bytes",
            keyed.bytes_wire,
            full.bytes_wire
        );
        assert!(keyed.rows_shipped < full.rows_shipped);
        assert!(keyed.elapsed_secs <= full.elapsed_secs);
        assert!(full
            .metrics_snapshot
            .contains("easia_med_semijoin_fallbacks_total"));
    }
}
