//! `fed_scan`: analyst queries through `Archive::federated_query` on
//! E17's archive (hub plus 2 sites, 10,000 SIMULATION rows per
//! partition), checked against a single-database oracle holding the
//! same rows.
//!
//! Queries alternate between the partial-aggregate path (grouped and
//! global aggregates; merged in memory, no hub staging table) and the
//! ship-rows path (a filter returning about 1-5% of rows, and a pushed
//! top-k; merged through the hub staging table), so a change to either
//! merge shows on its half of the stream only.

use crate::trace::Tracer;
use crate::{metric, mix, wan_bytes, Metric, Sample, Tallies, Workload};
use easia_bench::partial_agg::{build_partial_agg_archive, PartialAggBenchConfig};
use easia_core::Archive;
use easia_db::sql::{expr_to_sql, parse, Stmt};
use easia_db::{Database, Value};
use easia_med::planner::{externalize, plan_select, strip_qualifiers};
use easia_med::remote::{scan_rows, serve_scan};
use easia_med::{decode_batch, encode_batch, ScanRequest};
use easia_obs::Registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Rows per partition (hub and each site), as in E17.
const ROWS_PER_PARTITION: usize = 10_000;
const SITES: usize = 2;
/// Queries per episode: each of the four shapes three times, once per
/// parameter choice.
const EPISODE_OPS: usize = 12;
const TOPICS: [&str; 4] = ["Decaying", "Forced", "Rotating", "Sheared"];

/// Position `k` of a seeded permutation of `0..n`.
fn permuted(seed: u64, salt: u64, n: usize, k: usize) -> usize {
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| mix(seed, salt, i as u64));
    idx[k % n]
}

/// Query `n` of an episode for `seed`, and whether it takes the
/// partial-aggregate path. Shapes rotate; each shape's parameters are a
/// fixed balanced set in a seeded order, so every seed asks for the
/// same amount of work.
fn gen_query(seed: u64, n: u64) -> (&'static str, Vec<Value>, bool) {
    let k = (n / 4) as usize;
    let topic = || {
        let first = mix(seed, 0x70, 0) as usize;
        Value::Str(TOPICS[(first + k) % TOPICS.len()].to_string())
    };
    match n % 4 {
        0 => (
            "SELECT TOPIC, COUNT(*), SUM(GRID_SIZE), AVG(VISCOSITY), MIN(VISCOSITY) \
             FROM SIMULATION WHERE GRID_SIZE >= ? GROUP BY TOPIC ORDER BY TOPIC",
            vec![Value::Int(64 << permuted(seed, 0x61, 3, k))],
            true,
        ),
        1 => {
            // VISCOSITY is k/256 with k uniform, so a window of w
            // buckets keeps w/256 of the rows: 3, 7 and 11 buckets keep
            // 1.2%, 2.7% and 4.3%.
            let width = 3 + 4 * permuted(seed, 0x62, 3, k) as u64;
            let lo = mix(seed, 0x63, n) % (256 - width);
            (
                "SELECT SIMULATION_KEY, SITE, GRID_SIZE, VISCOSITY FROM SIMULATION \
                 WHERE VISCOSITY >= ? AND VISCOSITY < ? ORDER BY SIMULATION_KEY",
                vec![
                    Value::Double(lo as f64 / 256.0),
                    Value::Double((lo + width) as f64 / 256.0),
                ],
                false,
            )
        }
        2 => (
            "SELECT COUNT(*), MIN(GRID_SIZE), MAX(GRID_SIZE), SUM(VISCOSITY) \
             FROM SIMULATION WHERE TOPIC = ?",
            vec![topic()],
            true,
        ),
        _ => (
            "SELECT SIMULATION_KEY, TOPIC, VISCOSITY FROM SIMULATION WHERE TOPIC = ? \
             ORDER BY VISCOSITY DESC, SIMULATION_KEY LIMIT 25",
            vec![topic()],
            false,
        ),
    }
}

/// An episode's generated queries as text, and each path's share.
pub fn describe_inputs(seed: u64) -> (String, BTreeMap<String, f64>) {
    let n = EPISODE_OPS as u64;
    let mut text = String::new();
    let mut shares: BTreeMap<String, f64> = BTreeMap::new();
    for i in 0..n {
        let (sql, params, partial) = gen_query(seed, i);
        let _ = writeln!(text, "{sql} {params:?}");
        let path = if partial { "partial_agg" } else { "ship_rows" };
        *shares.entry(path.to_string()).or_default() += 1.0 / n as f64;
    }
    (text, shares)
}

fn build_archive(seed: u64) -> Archive {
    build_partial_agg_archive(&PartialAggBenchConfig {
        seed,
        sites: SITES,
        rows_per_site: ROWS_PER_PARTITION,
        partial_agg: true,
    })
}

/// One database holding every partition's rows: the oracle the
/// federated answers must match.
fn build_oracle(a: &mut Archive) -> Database {
    let mut oracle = Database::new_in_memory();
    oracle
        .execute(
            "CREATE TABLE SIMULATION (SIMULATION_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), TOPIC VARCHAR(20), GRID_SIZE INTEGER, VISCOSITY DOUBLE)",
        )
        .expect("oracle schema");
    let mut copy = |db: &mut Database| {
        let rs = db
            .execute("SELECT SIMULATION_KEY, SITE, TOPIC, GRID_SIZE, VISCOSITY FROM SIMULATION")
            .expect("partition rows");
        for row in rs.rows {
            oracle.insert_row("SIMULATION", row).expect("oracle row");
        }
    };
    copy(&mut a.db);
    for name in a.federation.site_names() {
        let site = a.federation.site(&name).expect("listed site");
        copy(&mut site.db.borrow_mut());
    }
    oracle
}

/// The replay side of a traced run: a second archive whose site
/// databases report to their own registry.
struct Twin {
    archive: Archive,
    sites: Registry,
}

fn build_twin(seed: u64) -> Twin {
    let archive = build_archive(seed);
    let sites = Registry::new();
    for name in archive.federation.site_names() {
        let site = archive.federation.site(&name).expect("listed site");
        site.db.borrow_mut().attach_metrics(&sites);
    }
    Twin { archive, sites }
}

/// The `fed_scan` workload.
pub struct FedScan {
    seed: u64,
    archive: Archive,
    oracle: Database,
    /// Oracle answers by statement and parameters: the data is the same
    /// in every episode, and most statements recur.
    answers: BTreeMap<String, Vec<Vec<Value>>>,
    twin: Option<Twin>,
    builds: Vec<f64>,
    /// The first few wrong answers, for the report.
    failures: Vec<String>,
    next: u64,
    acc: Tallies,
    /// Replayed site-scan time (ns) and the rows those scans read.
    replay_scan_ns: f64,
    replay_rows_scanned: f64,
}

impl FedScan {
    /// Build E17's archive, its oracle, and (when traced) the twin.
    pub fn build(seed: u64, traced: bool) -> Self {
        let t0 = Instant::now();
        let mut archive = build_archive(seed);
        let builds = vec![t0.elapsed().as_secs_f64()];
        let oracle = build_oracle(&mut archive);
        FedScan {
            seed,
            archive,
            oracle,
            answers: BTreeMap::new(),
            twin: traced.then(|| build_twin(seed)),
            builds,
            failures: Vec::new(),
            next: 0,
            acc: Tallies::default(),
            replay_scan_ns: 0.0,
            replay_rows_scanned: 0.0,
        }
    }

    /// Replays after a traced query: parse, then the query's pushed
    /// `ScanRequest` through each site's `serve_scan` and the hub's
    /// local partition scan, then the codec over the shipped frames.
    fn replay(&mut self, tr: &mut Tracer, op: u64, parent: usize, sql: &str, params: &[Value]) {
        let (stmt, _) = tr.span_warm("db.parse", op, Some(parent), || parse(sql));
        let Some(twin) = self.twin.as_mut() else {
            return;
        };
        let Ok(Stmt::Select(sel)) = stmt else {
            return;
        };
        let Some(req) = scan_request(&twin.archive, &sel, params) else {
            return;
        };
        let frame = req.encode();
        let batch_rows = twin.archive.federation.batch_rows;
        let scanned = || {
            twin.sites
                .value("easia_db_rows_scanned_total", &[])
                .unwrap_or(0.0)
        };
        for name in twin.archive.federation.site_names() {
            let site = twin.archive.federation.site(&name).expect("listed site");
            let before = scanned();
            let (frames, idx) = tr.span("med.serve_scan", op, Some(parent), || {
                serve_scan(&mut site.db.borrow_mut(), &frame, batch_rows).unwrap_or_default()
            });
            self.replay_scan_ns += tr.spans()[idx].us() * 1e3;
            self.replay_rows_scanned += scanned() - before;
            let (batches, dec) = tr.span_warm("med.wire_decode", op, Some(parent), || {
                frames
                    .iter()
                    .filter_map(|f| decode_batch(f).ok())
                    .collect::<Vec<_>>()
            });
            let rows: u64 = batches.iter().map(|b| b.rows.len() as u64).sum();
            tr.set_rows(idx, rows);
            tr.set_rows(dec, rows);
            let (_, enc) = tr.span_warm("med.wire_encode", op, Some(parent), || {
                for b in &batches {
                    std::hint::black_box(encode_batch(&b.rows, b.seq, b.write_counter));
                }
            });
            tr.set_rows(enc, rows);
        }
        let (rows, idx) = tr.span("med.local_scan", op, Some(parent), || {
            scan_rows(&mut twin.archive.db, &req).map_or(0, |r| r.len() as u64)
        });
        tr.set_rows(idx, rows);
    }
}

/// The pushed scan the mediator ships for `sel`, built from the public
/// planner the way `Federation::query` builds it.
fn scan_request(
    a: &Archive,
    sel: &easia_db::sql::SelectStmt,
    params: &[Value],
) -> Option<ScanRequest> {
    let table = sel.from.as_ref()?.name.to_ascii_uppercase();
    let ft = a.federation.catalog.table(&table)?;
    let plan = plan_select(sel, ft, params).ok()?;
    let mut req_params = Vec::new();
    let mut rendered = Vec::new();
    for c in &plan.pushed {
        let e = externalize(&strip_qualifiers(c), params, &mut req_params).ok()?;
        rendered.push(expr_to_sql(&e));
    }
    Some(ScanRequest {
        table: ft.name.clone(),
        columns: plan.columns.clone(),
        predicate: rendered.join(" AND "),
        params: req_params,
        order_by: plan
            .order_limit
            .as_ref()
            .map(|(k, _)| k.clone())
            .unwrap_or_default(),
        limit: plan.order_limit.as_ref().map(|(_, n)| *n),
        resume_from: 0,
        key_filter: None,
        partial_agg: plan.partial_agg.as_ref().map(|p| p.spec()),
    })
}

impl Workload for FedScan {
    fn episode_ops(&self) -> usize {
        EPISODE_OPS
    }

    fn reset(&mut self) {
        let t0 = Instant::now();
        self.archive = build_archive(self.seed);
        self.builds.push(t0.elapsed().as_secs_f64());
        if self.twin.is_some() {
            self.twin = Some(build_twin(self.seed));
        }
        self.next = 0;
    }

    fn build_secs(&self) -> &[f64] {
        &self.builds
    }

    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<Sample>) -> Duration {
        let n = self.next;
        self.next += 1;
        let (sql, params, _) = gen_query(self.seed, n);
        let writes0 = self.archive.db.write_counter();
        let bytes0 = wan_bytes(&self.archive.net);
        let t_sim = self.archive.net.now();
        let archive = &mut self.archive;
        let t0 = Instant::now();
        let (res, span) = tr.span("med.query", n, None, || {
            archive.federated_query(sql, &params)
        });
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let sim_s = self.archive.net.now() - t_sim;
        if tr.enabled() {
            self.acc.fed_queries += 1;
            self.acc.hub_writes_in_fed += self.archive.db.write_counter() - writes0;
            if let Ok(out) = &res {
                tr.set_rows(span, out.rs.rows.len() as u64);
            }
            self.replay(tr, n, span, sql, &params);
        }
        let t_check = Instant::now();
        let key = format!("{sql} {params:?}");
        if !self.answers.contains_key(&key) {
            let want = self
                .oracle
                .execute_with_params(sql, &params)
                .expect("oracle answers every generated query");
            self.answers.insert(key.clone(), want.rows);
        }
        let ok = match &res {
            Ok(out) => out.rs.rows == self.answers[&key],
            Err(_) => false,
        };
        if !ok && self.failures.len() < 5 {
            let got = res.map(|out| out.rs.rows.len());
            self.failures.push(format!(
                "query {n} {key}: got {got:?} rows, oracle has {}",
                self.answers[&key].len()
            ));
        }
        let checks = t_check.elapsed();
        out.push(Sample {
            key: true,
            wall_us,
            sim_s,
            wan_bytes: wan_bytes(&self.archive.net) - bytes0,
            ok,
        });
        checks
    }

    fn counters(&self) -> BTreeMap<String, f64> {
        crate::stats::parse_exposition(&self.archive.obs.metrics.render())
    }

    fn finish_episode(&mut self) -> Vec<String> {
        std::mem::take(&mut self.failures)
    }

    fn tallies(&self) -> Tallies {
        self.acc
    }

    fn layers(&self, tr: &Tracer) -> Vec<Metric> {
        let children = [
            "db.parse",
            "med.serve_scan",
            "med.wire_decode",
            "med.wire_encode",
            "med.local_scan",
        ];
        vec![
            metric("med.query_us", tr.median_us("med.query"), "us"),
            metric(
                "med.self_us",
                tr.median_self_us("med.query", &children),
                "us",
            ),
            metric("med.serve_scan_us", tr.median_us("med.serve_scan"), "us"),
            metric(
                "med.wire_encode_ns_per_row",
                tr.us_per_row("med.wire_encode") * 1000.0,
                "ns",
            ),
            metric(
                "med.wire_decode_ns_per_row",
                tr.us_per_row("med.wire_decode") * 1000.0,
                "ns",
            ),
            metric(
                "db.scan_ns_per_row",
                crate::stats::ratio(self.replay_scan_ns, self.replay_rows_scanned),
                "ns",
            ),
        ]
    }
}
