//! The partial-aggregate pushdown harness behind `exp_e17_partial_agg`:
//! a multi-hub archive whose sites each hold tens of thousands of
//! catalog rows, run through a grouped-aggregate browse workload twice
//! — once with partial-aggregate pushdown (each site ships one state
//! row per group), once with the ablation flag off so every aggregate
//! ships its raw rows — with the whole run captured as a transcript
//! and hashed, E10-style.
//!
//! The generated DOUBLE column is a dyadic rational (k/256) so SUM and
//! AVG are exact in f64 regardless of addition order: the partial-merge
//! answer is bit-for-bit the ship-everything answer, and the harness
//! asserts exactly that.

use easia_core::{paper_link_spec, Archive};
use easia_crypto::sha256::{hex, sha256};
use easia_db::Value;
use easia_med::Partition;
use std::fmt::Write as _;

/// Parameters of one partial-aggregate run.
#[derive(Debug, Clone)]
pub struct PartialAggBenchConfig {
    /// Seed for all generated catalog data.
    pub seed: u64,
    /// Number of foreign sites (1..=3 named cam/edin/mcc).
    pub sites: usize,
    /// Simulations per site (the hub's local partition included).
    pub rows_per_site: usize,
    /// Push partial aggregates to the sites (false ships raw rows —
    /// the ablation baseline).
    pub partial_agg: bool,
}

impl PartialAggBenchConfig {
    /// The default scenario: 2 foreign sites, 10 000 rows each.
    pub fn standard(seed: u64) -> Self {
        PartialAggBenchConfig {
            seed,
            sites: 2,
            rows_per_site: 10_000,
            partial_agg: true,
        }
    }
}

/// Everything a partial-aggregate run produced, plus the
/// reproducibility digest.
#[derive(Debug, Clone)]
pub struct PartialAggBenchResult {
    /// Human-readable log: per query the SQL, the EXPLAIN FEDERATED
    /// report, and a hash of the merged rows.
    pub transcript: String,
    /// SHA-256 of the transcript (covers the metrics snapshot too).
    pub digest: String,
    /// Per-query SHA-256 of the merged rows — mode-independent, so a
    /// partial run can be checked row-for-row against a raw-ship run.
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

/// Titles follow the seed paper's turbulence vocabulary — also the
/// GROUP BY key, so every site contributes partial states for every
/// group.
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
    TOPIC VARCHAR(20),
    GRID_SIZE INTEGER,
    VISCOSITY DOUBLE
)";

fn seed_partition(
    db: &mut easia_db::Database,
    site: &str,
    site_no: u64,
    cfg: &PartialAggBenchConfig,
) {
    db.execute(SIM_DDL).expect("simulation schema");
    for i in 0..cfg.rows_per_site {
        let h = mix(cfg.seed, site_no, i as u64);
        let grid = 64 << (h % 4); // 64..512
        let topic = TOPICS[(h >> 8) as usize % TOPICS.len()];
        // Dyadic rational (k/256): exactly representable in f64, so
        // SUM/AVG are order-independent and the partial merge is
        // bit-identical to the single-pass answer.
        let viscosity = ((h >> 16) % 256) as f64 / 256.0;
        db.insert_row(
            "SIMULATION",
            vec![
                Value::Str(format!("{site}-{i:06}")),
                Value::Str(site.to_string()),
                Value::Str(topic.to_string()),
                Value::Int(grid),
                Value::Double(viscosity),
            ],
        )
        .expect("seed simulation");
    }
}

/// Build the multi-hub archive for `cfg`: the hub holds the `soton`
/// partition, each foreign site its own, all over the paper's measured
/// SuperJANET day/evening profiles.
pub fn build_partial_agg_archive(cfg: &PartialAggBenchConfig) -> Archive {
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
    a.federation.partial_agg = cfg.partial_agg;
    a
}

/// The aggregate workload: the archive's summary screens — a grouped
/// rollup per topic, a global census, and a filtered per-site rollup
/// with a HAVING cut.
pub fn workload() -> Vec<&'static str> {
    vec![
        "SELECT TOPIC, COUNT(*), SUM(GRID_SIZE), AVG(VISCOSITY) FROM SIMULATION \
         GROUP BY TOPIC ORDER BY TOPIC",
        "SELECT COUNT(*), MIN(GRID_SIZE), MAX(GRID_SIZE), SUM(VISCOSITY) FROM SIMULATION",
        "SELECT SITE, COUNT(*), MAX(VISCOSITY) FROM SIMULATION \
         WHERE GRID_SIZE >= 256 GROUP BY SITE HAVING COUNT(*) > 10 ORDER BY SITE",
    ]
}

/// Run the workload for `cfg` and capture the transcript.
pub fn run_partial_agg(cfg: &PartialAggBenchConfig) -> PartialAggBenchResult {
    let mut a = build_partial_agg_archive(cfg);
    let mut log = String::new();
    let _ = writeln!(
        log,
        "partial_agg seed={} sites={} rows_per_site={} partial_agg={}",
        cfg.seed, cfg.sites, cfg.rows_per_site, cfg.partial_agg
    );
    let start = a.net.now();
    let mut bytes_wire = 0u64;
    let mut rows_shipped = 0u64;
    let mut row_hashes = Vec::new();
    let queries = workload();
    for sql in &queries {
        let out = a.federated_query(sql, &[]).expect("federated aggregate");
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
    PartialAggBenchResult {
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
        let cfg = PartialAggBenchConfig {
            rows_per_site: 400,
            ..PartialAggBenchConfig::standard(13)
        };
        let a = run_partial_agg(&cfg);
        let b = run_partial_agg(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics_snapshot, b.metrics_snapshot);
        assert!(a
            .metrics_snapshot
            .contains("easia_med_partial_agg_queries_total"));
        assert!(a
            .metrics_snapshot
            .contains("easia_med_partial_agg_groups_shipped_total"));
    }

    #[test]
    fn partial_states_beat_raw_ship_by_10x_with_identical_rows() {
        let cfg = PartialAggBenchConfig {
            rows_per_site: 600,
            ..PartialAggBenchConfig::standard(7)
        };
        let partial = run_partial_agg(&cfg);
        let raw = run_partial_agg(&PartialAggBenchConfig {
            partial_agg: false,
            ..cfg
        });
        assert_eq!(
            partial.row_hashes, raw.row_hashes,
            "aggregate answers must agree"
        );
        assert!(
            partial.bytes_wire * 10 <= raw.bytes_wire,
            "partial {} vs raw {} bytes",
            partial.bytes_wire,
            raw.bytes_wire
        );
        assert!(partial.rows_shipped < raw.rows_shipped);
        assert!(partial.elapsed_secs <= raw.elapsed_secs);
        assert!(raw
            .metrics_snapshot
            .contains("easia_med_partial_agg_fallbacks_total"));
        assert!(partial.transcript.contains("aggregate: partial pushdown"));
        assert!(raw.transcript.contains("aggregate: ship-rows fallback"));
    }
}
