//! Federation under failure: foreign-site outages before the scan,
//! mid-stream during the gather phase, the opt-in PARTIAL policy, and
//! recovery-then-retry — plus the portal's 503/Retry-After surface.

use easia_core::{Archive, ArchiveError, WebApp};
use easia_db::Value;
use easia_med::{BreakerState, PartialPolicy, Partition, DEFAULT_RETRY_AFTER_SECS};
use easia_net::FaultSchedule;
use easia_web::http::Request;

const DDL: &str = "CREATE TABLE SIMULATION (\
     SIMULATION_KEY VARCHAR(40) PRIMARY KEY, \
     SITE VARCHAR(20), \
     TITLE VARCHAR(80), \
     GRID_SIZE INTEGER)";

/// A hub plus two foreign sites, each holding `rows_per_site` rows of
/// the shared SIMULATION table, partitioned on SITE.
fn fed_archive(rows_per_site: usize) -> Archive {
    let mut a = Archive::builder()
        .federated_site("cam", easia_core::paper_link_spec())
        .federated_site("edin", easia_core::paper_link_spec())
        .build();
    a.db.execute(DDL).unwrap();
    for i in 0..rows_per_site {
        a.db.execute(&format!(
            "INSERT INTO SIMULATION VALUES \
             ('soton-{i:04}', 'soton', 'Decaying turbulence run {i}', {})",
            64 + i
        ))
        .unwrap();
    }
    for site in ["cam", "edin"] {
        let s = a.federation.site(site).unwrap();
        let mut db = s.db.borrow_mut();
        db.execute(DDL).unwrap();
        for i in 0..rows_per_site {
            db.execute(&format!(
                "INSERT INTO SIMULATION VALUES \
                 ('{site}-{i:04}', '{site}', 'Forced turbulence run {i}', {})",
                128 + i
            ))
            .unwrap();
        }
    }
    a.federation
        .catalog
        .import_foreign_table(
            &a.db,
            "SIMULATION",
            Some("SITE"),
            vec![
                Partition::new(None, &["soton"]),
                Partition::new(Some("cam"), &["cam"]),
                Partition::new(Some("edin"), &["edin"]),
            ],
        )
        .unwrap();
    a.federation.analyze(&a.db).unwrap();
    a.generate_xuis_federated(4);
    a
}

fn unavailable_parts(e: &ArchiveError) -> (String, u64) {
    match e {
        ArchiveError::Fs(easia_fs::FsError::Unavailable {
            host,
            retry_after_secs,
        }) => (host.clone(), *retry_after_secs),
        other => panic!("expected typed Unavailable, got {other:?}"),
    }
}

#[test]
fn outage_before_scan_fails_closed_with_retry_hint() {
    let mut a = fed_archive(6);
    a.federation.site("cam").unwrap().crash();

    let err = a
        .federated_query("SELECT * FROM SIMULATION", &[])
        .unwrap_err();
    let (host, retry) = unavailable_parts(&err);
    assert_eq!(host, "cam");
    assert_eq!(retry, DEFAULT_RETRY_AFTER_SECS);

    // Pruning still beats the outage: a query pinned to a live site's
    // partition never talks to the dead one.
    let out = a
        .federated_query(
            "SELECT SIMULATION_KEY FROM SIMULATION WHERE SITE = 'edin'",
            &[],
        )
        .unwrap();
    assert_eq!(out.rs.rows.len(), 6);
}

#[test]
fn outage_surfaces_as_503_with_retry_after_on_the_portal() {
    let a = fed_archive(4);
    a.federation.site("edin").unwrap().crash();
    let mut app = WebApp::new(a);

    let r = app.handle(Request::post(
        "/login",
        &[("username", "admin"), ("password", "hpcc-admin")],
    ));
    let token = r.set_session.unwrap();

    let resp =
        app.handle(Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&token));
    assert_eq!(resp.status, 503);
    assert_eq!(resp.retry_after, Some(DEFAULT_RETRY_AFTER_SECS));
    assert!(
        resp.body_text().contains("edin"),
        "error names the dead site: {}",
        resp.body_text()
    );

    // The degraded response is recorded on the shared registry like any
    // other HTTP outcome.
    let metrics = app
        .handle(Request::get("/metrics").with_session(&token))
        .body_text();
    assert!(
        metrics.contains("route=\"query\",status=\"503\"")
            || metrics.contains("status=\"503\",route=\"query\""),
        "503 shows up in http metrics: {metrics}"
    );
}

#[test]
fn partial_policy_returns_survivors_and_annotates_the_skip() {
    let mut a = fed_archive(5);
    a.federation.policy = PartialPolicy::Partial;
    a.federation.site("cam").unwrap().crash();

    let out = a
        .federated_query(
            "SELECT SIMULATION_KEY, SITE FROM SIMULATION ORDER BY SIMULATION_KEY",
            &[],
        )
        .unwrap();
    assert_eq!(out.explain.skipped, vec!["cam".to_string()]);
    // soton (local) + edin survive; cam's partition is absent.
    assert_eq!(out.rs.rows.len(), 10);
    assert!(out.rs.rows.iter().all(|r| r[1] != Value::Str("cam".into())));

    let report = out.explain.render();
    assert!(
        report.contains("SKIPPED"),
        "render flags the skip: {report}"
    );
    let notice = easia_web::fed::federation_notice(&out.explain);
    assert!(notice.contains("PARTIAL"));
    assert!(notice.contains("cam"));
}

#[test]
fn outage_mid_stream_and_recovery_then_retry() {
    let sql = "SELECT * FROM SIMULATION ORDER BY SIMULATION_KEY";
    let rows_per_site = 150;

    // Baseline: the undisturbed run tells us (deterministically) how
    // long the scatter-gather takes, so we can aim a host-crash window
    // at the middle of the batch stream.
    let mut probe = fed_archive(rows_per_site);
    probe.federation.batch_rows = 32;
    let baseline = probe.federated_query(sql, &[]).unwrap();
    let elapsed = probe.net.now();
    assert_eq!(baseline.rs.rows.len(), 3 * rows_per_site);
    assert!(elapsed > 0.1, "gather phase is long enough to interrupt");

    // Same archive, same query, but cam's host dies halfway through.
    let mut a = fed_archive(rows_per_site);
    a.federation.batch_rows = 32;
    let cam_host = a.federation.site("cam").unwrap().host;
    let down_at = elapsed * 0.5;
    let up_at = down_at + 7_200.0;
    let mut faults = FaultSchedule::new();
    faults.host_crash(cam_host, down_at, up_at);
    a.net.set_fault_schedule(faults);

    let err = a.federated_query(sql, &[]).unwrap_err();
    let (host, retry) = unavailable_parts(&err);
    assert_eq!(host, "cam");
    // The hint is derived from the fault schedule (end of the crash
    // window), not the blanket default.
    assert!(
        retry > DEFAULT_RETRY_AFTER_SECS && retry as f64 <= up_at + 1.0,
        "retry-after {retry} should point at the crash window end"
    );

    // Recovery: wait out the crash window, retry, get the full answer.
    a.advance_to(up_at + 1.0);
    let out = a.federated_query(sql, &[]).unwrap();
    assert_eq!(out.rs.rows, baseline.rs.rows);

    // The same dance for a software outage: crash the service, fail
    // closed; restart it, the retry succeeds.
    let mut b = fed_archive(3);
    b.federation.site("edin").unwrap().crash();
    assert!(b.federated_query(sql, &[]).is_err());
    b.federation.site("edin").unwrap().restart();
    let out = b.federated_query(sql, &[]).unwrap();
    assert_eq!(out.rs.rows.len(), 9);
}

#[test]
fn mid_stream_outage_with_recovery_inside_deadline_resumes_to_completion() {
    let sql = "SELECT * FROM SIMULATION ORDER BY SIMULATION_KEY";
    let rows_per_site = 150;

    // Baseline: the undisturbed run's rows and duration.
    let mut probe = fed_archive(rows_per_site);
    probe.federation.batch_rows = 32;
    let baseline = probe.federated_query(sql, &[]).unwrap();
    let elapsed = probe.net.now();

    // Same archive, but cam's host dies halfway through the batch
    // stream and recovers 90 s later — well inside the 600 s query
    // deadline. The retry ladder waits out the crash, re-issues the
    // scan with a resume_from cursor, and the answer comes back
    // complete: no error, no skip, no stale rows.
    let mut a = fed_archive(rows_per_site);
    a.federation.batch_rows = 32;
    let cam_host = a.federation.site("cam").unwrap().host;
    let down_at = elapsed * 0.5;
    let mut faults = FaultSchedule::new();
    faults.host_crash(cam_host, down_at, down_at + 90.0);
    a.net.set_fault_schedule(faults);

    let out = a.federated_query(sql, &[]).unwrap();
    assert_eq!(out.rs.rows, baseline.rs.rows);
    assert!(out.explain.skipped.is_empty());
    assert!(out.explain.stale.is_empty());
    let cam = out.explain.sites.iter().find(|s| s.site == "cam").unwrap();
    assert!(cam.retries >= 1, "cam was retried: {}", cam.retries);
    assert!(
        out.explain.render().contains("retries:"),
        "EXPLAIN FEDERATED reports the retry count"
    );
    // The retry waited for the recovery, so the query took at least
    // until the end of the crash window.
    assert!(a.net.now() >= down_at + 90.0);
}

const RF_DDL: &str = "CREATE TABLE RESULT_FILE (\
     FILE_NAME VARCHAR(40) PRIMARY KEY, \
     SIMULATION_KEY VARCHAR(40), \
     SITE VARCHAR(20), \
     FILE_SIZE INTEGER)";

const JOIN_SQL: &str = "SELECT R.FILE_NAME, S.TITLE \
     FROM RESULT_FILE R JOIN SIMULATION S \
     ON R.SIMULATION_KEY = S.SIMULATION_KEY \
     ORDER BY R.FILE_NAME";

/// [`fed_archive`] plus a federated RESULT_FILE table whose rows
/// deliberately reference simulations held at *other* sites, so the
/// join's keyed leg has real cross-site traffic on every partition.
fn join_archive(rows_per_site: usize, cache: bool) -> Archive {
    let sites = ["soton", "cam", "edin"];
    let mut a = Archive::builder()
        .federated_site("cam", easia_core::paper_link_spec())
        .federated_site("edin", easia_core::paper_link_spec())
        .build();
    if cache {
        a.federation.enable_replica_cache(600.0, 10_000);
    }
    a.db.execute(DDL).unwrap();
    a.db.execute(RF_DDL).unwrap();
    for site in ["cam", "edin"] {
        let s = a.federation.site(site).unwrap();
        let mut db = s.db.borrow_mut();
        db.execute(DDL).unwrap();
        db.execute(RF_DDL).unwrap();
    }
    for (si, site) in sites.iter().enumerate() {
        for i in 0..rows_per_site {
            let sim = format!(
                "INSERT INTO SIMULATION VALUES \
                 ('{site}-{i:04}', '{site}', 'Turbulence run {i}', {})",
                64 + i
            );
            // Each file references the same-index simulation one site
            // over, so following the key always crosses a partition.
            let ref_site = sites[(si + 1) % 3];
            let file = format!(
                "INSERT INTO RESULT_FILE VALUES \
                 ('{site}-f{i:04}', '{ref_site}-{i:04}', '{site}', {})",
                1000 + i
            );
            if *site == "soton" {
                a.db.execute(&sim).unwrap();
                a.db.execute(&file).unwrap();
            } else {
                let s = a.federation.site(site).unwrap();
                let mut db = s.db.borrow_mut();
                db.execute(&sim).unwrap();
                db.execute(&file).unwrap();
            }
        }
    }
    for table in ["SIMULATION", "RESULT_FILE"] {
        a.federation
            .catalog
            .import_foreign_table(
                &a.db,
                table,
                Some("SITE"),
                vec![
                    Partition::new(None, &["soton"]),
                    Partition::new(Some("cam"), &["cam"]),
                    Partition::new(Some("edin"), &["edin"]),
                ],
            )
            .unwrap();
    }
    a.federation.analyze(&a.db).unwrap();
    a
}

#[test]
fn outage_mid_keyed_scan_resumes_the_join_via_batch_cursor() {
    let rows_per_site = 150;

    // With any fault schedule installed the gather clock advances in
    // stall-timeout quanta rather than event-exact times, so the
    // baseline must be measured under the same regime: a benign
    // far-future crash of the client host (never involved in a
    // federated scan) switches the probe to quantised timing without
    // disturbing the query.
    let mut probe = join_archive(rows_per_site, false);
    probe.federation.batch_rows = 32;
    let mut benign = FaultSchedule::new();
    benign.host_crash(probe.client_host, 1.0e9, 1.0e9 + 1.0);
    probe.net.set_fault_schedule(benign);
    let baseline = probe.federated_query(JOIN_SQL, &[]).unwrap();
    let elapsed = probe.net.now();
    assert_eq!(baseline.rs.rows.len(), 3 * rows_per_site);

    // Same archive, but cam's host dies inside the keyed-scan phase
    // (the anchor and keyed legs stream the same number of batch
    // quanta, so 3/4 of the run is mid-keyed-stream) and recovers 90 s
    // later — within the query deadline. The retry ladder waits out
    // the crash, re-issues the keyed scan with a resume_from cursor,
    // and the join completes identically.
    let mut a = join_archive(rows_per_site, false);
    a.federation.batch_rows = 32;
    let cam_host = a.federation.site("cam").unwrap().host;
    let down_at = elapsed * 0.75;
    let mut faults = FaultSchedule::new();
    faults.host_crash(cam_host, down_at, down_at + 90.0);
    a.net.set_fault_schedule(faults);

    let out = a.federated_query(JOIN_SQL, &[]).unwrap();
    assert_eq!(out.rs.rows, baseline.rs.rows);
    assert!(out.explain.skipped.is_empty());
    assert!(out.explain.stale.is_empty());
    assert!(
        out.explain
            .sites
            .iter()
            .any(|s| s.site == "cam" && s.table == "SIMULATION" && s.retries >= 1),
        "cam's keyed SIMULATION leg was retried: {}",
        out.explain.render()
    );
    assert!(
        out.explain.render().contains("semi-join keyed on"),
        "the retried run still shipped keys: {}",
        out.explain.render()
    );
    assert!(
        a.net.now() >= down_at + 90.0,
        "the retry waited out the crash"
    );
}

#[test]
fn open_breaker_under_degraded_policy_serves_stale_join_side_with_banner() {
    let rows_per_site = 5;
    let mut a = join_archive(rows_per_site, true);
    a.federation.policy = PartialPolicy::Degraded;

    // Warm run: every foreign partition ships whole and lands in the
    // hub's replica cache.
    let baseline = a.federated_query(JOIN_SQL, &[]).unwrap();
    assert_eq!(baseline.rs.rows.len(), 3 * rows_per_site);

    // Kill cam and keep querying: each failure feeds the breaker until
    // it opens.
    a.federation.site("cam").unwrap().crash();
    for _ in 0..a.federation.breaker_threshold {
        let out = a.federated_query(JOIN_SQL, &[]).unwrap();
        assert_eq!(
            out.rs.rows, baseline.rs.rows,
            "stale replica keeps the join whole"
        );
        if a.federation.site("cam").unwrap().breaker_state() == BreakerState::Open {
            break;
        }
    }
    assert_eq!(
        a.federation.site("cam").unwrap().breaker_state(),
        BreakerState::Open,
        "repeated failures opened cam's breaker"
    );

    // With the breaker open the next join never touches cam's WAN link:
    // both of cam's join legs are served from the stale replica, the
    // answer still matches, and the degradation is announced.
    let out = a.federated_query(JOIN_SQL, &[]).unwrap();
    assert_eq!(out.rs.rows, baseline.rs.rows);
    assert!(out.explain.skipped.is_empty());
    assert!(
        out.explain.stale.iter().any(|s| s.site == "cam"),
        "stale serve annotated: {}",
        out.explain.render()
    );
    assert!(out.explain.render().contains("STALE replica served"));
    let banner = easia_web::fed::federation_banner(&out.explain);
    assert!(banner.contains("banner warning"), "{banner}");
    assert!(banner.contains("STALE"), "{banner}");
    assert!(banner.contains("cam"), "{banner}");
}

#[test]
fn deadline_expiry_mid_stream_cancels_wan_work_without_breaker_penalty() {
    let sql = "SELECT * FROM SIMULATION ORDER BY SIMULATION_KEY";
    let rows_per_site = 150;

    // Baseline: how long the undisturbed scatter-gather takes.
    let mut probe = fed_archive(rows_per_site);
    probe.federation.batch_rows = 32;
    let t0 = probe.net.now();
    probe.federated_query(sql, &[]).unwrap();
    let full_stream = probe.net.now() - t0;

    // Same workload, but the query's deadline budget expires at 40% of
    // the stream. The gather must stop issuing EMB1 batch requests at
    // the first wave boundary past the deadline — an abandoned query
    // may not keep burning WAN capacity nobody will consume.
    let mut a = fed_archive(rows_per_site);
    a.federation.batch_rows = 32;
    a.federation.policy = PartialPolicy::Partial;
    a.federation.deadline_secs = full_stream * 0.4;
    let t0 = a.net.now();
    let out = a.federated_query(sql, &[]).unwrap();
    let elapsed = a.net.now() - t0;
    assert!(
        elapsed < full_stream * 0.7,
        "gather kept streaming past the deadline: {elapsed:.1}s of {full_stream:.1}s"
    );
    // Both remote streams were cancelled mid-flight; under PARTIAL the
    // hub's own partition still answers.
    assert_eq!(
        out.explain.skipped,
        vec!["cam".to_string(), "edin".to_string()]
    );
    assert_eq!(out.rs.rows.len(), rows_per_site);
    // Deadline expiry is client-side cancellation: the sites did
    // nothing wrong, so their breakers stay closed and later queries
    // go straight back to the WAN.
    for site in ["cam", "edin"] {
        assert_eq!(
            a.federation.site(site).unwrap().breaker_state(),
            BreakerState::Closed,
            "{site} breaker must not trip on a client-side deadline"
        );
        assert_eq!(
            a.obs
                .metrics
                .value("easia_med_deadline_cancelled_total", &[("site", site)]),
            Some(1.0),
            "{site} cancellation is visible on /metrics"
        );
    }
    // With a sane budget the very next query completes whole.
    a.federation.deadline_secs = easia_med::DEFAULT_DEADLINE_SECS;
    let out = a.federated_query(sql, &[]).unwrap();
    assert_eq!(out.rs.rows.len(), 3 * rows_per_site);
    assert!(out.explain.skipped.is_empty());
}

#[test]
fn mid_stream_outage_under_partial_policy_keeps_survivors() {
    let sql = "SELECT SIMULATION_KEY, SITE FROM SIMULATION ORDER BY SIMULATION_KEY";
    let rows_per_site = 150;

    let mut probe = fed_archive(rows_per_site);
    probe.federation.batch_rows = 32;
    probe.federated_query(sql, &[]).unwrap();
    let elapsed = probe.net.now();

    let mut a = fed_archive(rows_per_site);
    a.federation.batch_rows = 32;
    a.federation.policy = PartialPolicy::Partial;
    let cam_host = a.federation.site("cam").unwrap().host;
    let mut faults = FaultSchedule::new();
    faults.host_crash(cam_host, elapsed * 0.5, elapsed * 0.5 + 7_200.0);
    a.net.set_fault_schedule(faults);

    let out = a.federated_query(sql, &[]).unwrap();
    assert_eq!(out.explain.skipped, vec!["cam".to_string()]);
    // Whatever cam managed to ship before dying is discarded whole —
    // partial results are per-site, never per-batch.
    assert_eq!(out.rs.rows.len(), 2 * rows_per_site);
    assert!(out.rs.rows.iter().all(|r| r[1] != Value::Str("cam".into())));
}
