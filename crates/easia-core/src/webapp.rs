//! The web application: EASIA's generated interface wired to the
//! archive. Routes follow the paper's interaction flow — log in, pick a
//! table, fill the QBE form, browse results via hypertext links, invoke
//! operations, upload code.

use crate::admission::{Admission, AdmissionConfig, AdmissionController, RouteClass};
use crate::archive::{Archive, ArchiveError};
use easia_db::{ResultSet, Value};
use easia_ops::catalog::OperationCatalog;
use easia_web::auth::Role;
use easia_web::browse::{render_results, BrowseContext};
use easia_web::fed::{explain_page_body, federation_banner, federation_notice};
use easia_web::html::{escape, link, page};
use easia_web::http::{url_encode, Method, Request, Response};
use easia_web::qbe::{build_browse_query, build_join_query, join_tables, render_query_form};
use easia_xuis::Widget;
use std::collections::BTreeMap;

/// The application: archive + transient per-session operation outputs.
pub struct WebApp {
    /// The archive.
    pub archive: Archive,
    /// Bounded per-route-class admission queues (overload protection).
    pub admission: AdmissionController,
    /// Operation outputs by `(session, filename)` so result pages can
    /// link to the produced files.
    outputs: BTreeMap<(String, String), Vec<u8>>,
}

impl WebApp {
    /// Wrap an archive with the default admission limits (deep enough
    /// that closed-loop use never sheds).
    pub fn new(archive: Archive) -> Self {
        Self::with_admission(archive, AdmissionConfig::default())
    }

    /// Wrap an archive with explicit admission limits — the load
    /// harness and the ablation use this.
    pub fn with_admission(archive: Archive, config: AdmissionConfig) -> Self {
        let admission = AdmissionController::new(config, &archive.obs.metrics);
        WebApp {
            archive,
            admission,
            outputs: BTreeMap::new(),
        }
    }

    /// Handle one request, recording it on the archive's metrics
    /// registry by route and status. The request is timestamped with
    /// the current simulated network clock — the closed-loop case,
    /// where a caller never issues a request before the previous answer
    /// arrived.
    pub fn handle(&mut self, req: Request) -> Response {
        let arrival = self.archive.net.now();
        self.handle_at(req, arrival)
    }

    /// Handle one request arriving at `arrival` seconds on an
    /// *open-loop* clock that may run ahead of the service clock — the
    /// load harness's entry point. The request first passes admission:
    /// a shed gets an immediate 503 whose `Retry-After` is the queue's
    /// computed drain time, an admitted request is dispatched and its
    /// measured service time fed back to the queue model.
    pub fn handle_at(&mut self, req: Request, arrival: f64) -> Response {
        let route = route_label(&req);
        if route == "metrics" {
            // Scrapes are exempt from admission — observability must
            // survive overload — and the route records itself before
            // rendering, so the exposition carries its own sample.
            return self.dispatch(req);
        }
        let class = self.classify(&req);
        let ticket = match self.admission.admit(class, arrival) {
            Admission::Admitted(t) => t,
            Admission::Shed { retry_after_secs } => {
                let resp = Response::unavailable(
                    &format!(
                        "portal overloaded: {} queue full, retry after {retry_after_secs}s",
                        class.label()
                    ),
                    retry_after_secs,
                );
                self.record_http(route, resp.status);
                return resp;
            }
        };
        let t0 = self.archive.net.now();
        let resp = self.dispatch(req);
        let service = self.archive.net.now() - t0;
        self.admission.complete(ticket, service);
        self.record_http(route, resp.status);
        resp
    }

    /// Classify a request onto its admission queue: bulk byte delivery
    /// (DATALINK downloads, LOB rematerialisation, operation outputs)
    /// is `Download`; work that scatters to federated sites or runs
    /// server-side codes is `Scan`; everything hub-local is `Browse`.
    fn classify(&self, req: &Request) -> RouteClass {
        let segs = req.segments();
        match (req.method, segs.first().copied()) {
            (_, Some("download" | "lob" | "result")) => RouteClass::Download,
            (Method::Post, Some("federated" | "op" | "upload")) => RouteClass::Scan,
            (Method::Post, Some("query")) => {
                let fed = segs
                    .get(1)
                    .and_then(|t| self.archive.xuis.table(t))
                    .is_some_and(|xt| self.query_is_federated(xt));
                if fed {
                    RouteClass::Scan
                } else {
                    RouteClass::Browse
                }
            }
            (Method::Get, Some("browse")) => {
                let fed = segs
                    .get(2)
                    .and_then(|colid| colid.rsplit_once('.'))
                    .and_then(|(table, _)| self.archive.xuis.table(table))
                    .is_some_and(|xt| self.query_is_federated(xt));
                if fed {
                    RouteClass::Scan
                } else {
                    RouteClass::Browse
                }
            }
            _ => RouteClass::Browse,
        }
    }

    fn record_http(&self, route: &str, status: u16) {
        let r = &self.archive.obs.metrics;
        r.counter_with(
            "easia_http_requests_total",
            "HTTP requests handled by the portal, by route and status.",
            &[("route", route), ("status", &status.to_string())],
        )
        .inc();
        if status == 503 {
            r.counter(
                "easia_http_unavailable_total",
                "Responses degraded to 503 Service Unavailable with a Retry-After hint.",
            )
            .inc();
        }
    }

    fn dispatch(&mut self, req: Request) -> Response {
        let segments: Vec<String> = req.segments().iter().map(|s| s.to_string()).collect();
        // Unauthenticated routes.
        match (req.method, segments.first().map(String::as_str)) {
            (Method::Get, Some("metrics")) => {
                self.record_http("metrics", 200);
                return Response::text(self.archive.obs.metrics.render());
            }
            (Method::Get, None | Some("login")) if req.method == Method::Get => {
                if self.session_of(&req).is_some() && segments.is_empty() {
                    return Response::redirect("/tables");
                }
                if segments.first().map(String::as_str) == Some("login") || segments.is_empty() {
                    return self.login_page(None);
                }
            }
            (Method::Post, Some("login")) => return self.do_login(&req),
            _ => {}
        }
        let Some((user, role, session)) = self.session_of(&req) else {
            return Response::redirect("/login");
        };
        match (req.method, segments.as_slice()) {
            (Method::Get, [s]) if s == "logout" => {
                self.archive.sessions.close(&session);
                Response::redirect("/login")
            }
            (Method::Get, [s]) if s == "tables" => self.tables_page(),
            (Method::Get, [q, table]) if q == "query" => self.query_form(table),
            (Method::Post, [q, table]) if q == "query" => self.run_query(table, &req, role),
            (Method::Get, [b, kind, colid]) if b == "browse" => {
                let value = req.param("value").unwrap_or("").to_string();
                self.browse(kind, colid, &value, role)
            }
            (Method::Get, [l, table, column]) if l == "lob" => self.lob(table, column, &req),
            (Method::Get, [o, table, op]) if o == "op" => self.op_form(table, op, &req, role),
            (Method::Post, [o, table, op]) if o == "op" => {
                self.op_run(table, op, &req, role, &session)
            }
            (Method::Get, [r, name]) if r == "result" => {
                match self.outputs.get(&(session.clone(), name.clone())) {
                    Some(data) => Response::bytes(mime_of(name), data.clone()),
                    None => Response::error(404, "no such result"),
                }
            }
            (Method::Get, [d]) if d == "download" => self.download_route(&req, role),
            (Method::Get, [u]) if u == "upload" => self.upload_form(role),
            (Method::Post, [u]) if u == "upload" => self.do_upload(&req, role, &session),
            (Method::Get, [f]) if f == "federated" => self.federation_page(),
            (Method::Post, [f, e, table]) if f == "federated" && e == "explain" => {
                self.federated_explain_route(table, &req)
            }
            (Method::Get, [p]) if p == "progress" => self.progress_page(),
            (Method::Get, [s]) if s == "stats" => self.stats_page(),
            (Method::Get, [u]) if u == "users" => self.users_page(role),
            (Method::Post, [u]) if u == "users" => self.add_user(&req, role),
            _ => {
                let _ = user;
                Response::error(404, &format!("no route for {}", req.path))
            }
        }
    }

    fn session_of(&self, req: &Request) -> Option<(String, Role, String)> {
        let token = req.session.clone()?;
        let now = self.archive.clock.now();
        let (user, role) = self.archive.sessions.resolve(&token, now)?;
        Some((user.to_string(), role, token))
    }

    fn login_page(&self, error: Option<&str>) -> Response {
        let err = error
            .map(|e| format!("<p style=\"color:red\">{}</p>", escape(e)))
            .unwrap_or_default();
        Response::html(page(
            "Log in",
            &format!(
                "{err}<form method=\"post\" action=\"/login\">\
                 <p>Username <input name=\"username\"/> (try guest)</p>\
                 <p>Password <input type=\"password\" name=\"password\"/> (try guest)</p>\
                 <p><input type=\"submit\" value=\"Log in\"/></p></form>"
            ),
        ))
    }

    fn do_login(&mut self, req: &Request) -> Response {
        let user = req.param("username").unwrap_or("");
        let pass = req.param("password").unwrap_or("");
        match self.archive.users.authenticate(user, pass).cloned() {
            Some(u) => {
                let now = self.archive.clock.now();
                let token = self.archive.sessions.open(&u, now);
                Response::redirect("/tables").with_session(&token)
            }
            None => self.login_page(Some("invalid username or password")),
        }
    }

    fn tables_page(&self) -> Response {
        let mut body =
            String::from("<p>Select a link to a query form for a particular table:</p><ul>");
        for t in self.archive.xuis.visible_tables() {
            body.push_str(&format!(
                "<li>{}</li>",
                link(&format!("/query/{}", t.name), t.display_name())
            ));
        }
        body.push_str("</ul>");
        body.push_str(&format!(
            "<p>{} | {} | {}</p>",
            link("/upload", "Upload post-processing code"),
            link("/progress", "Job progress"),
            link("/stats", "Operation statistics")
        ));
        Response::html(page("Turbulence archive", &body))
    }

    fn query_form(&self, table: &str) -> Response {
        match self.archive.xuis.table(table) {
            Some(t) if !t.hidden => Response::html(page(
                &format!("Search {}", t.display_name()),
                &render_query_form(t),
            )),
            _ => Response::error(404, &format!("no table {table}")),
        }
    }

    fn run_query(&mut self, table: &str, req: &Request, role: Role) -> Response {
        let Some(xt) = self.archive.xuis.table(table).cloned() else {
            return Response::error(404, &format!("no table {table}"));
        };
        // FK columns with a substitute display column become LEFT JOIN
        // legs, so the readable value is part of the statement itself.
        let (sql, params) = match build_join_query(&xt, &req.form) {
            Ok(q) => q,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        // Queries touching any federated table — the table itself or a
        // joined FK target — run transparently across every registered
        // site; everything else runs on the hub alone.
        let mut notice = String::new();
        let rs = if self.query_is_federated(&xt) {
            match self.archive.federated_query(&sql, &params) {
                Ok(out) => {
                    notice = format!(
                        "{}{}",
                        federation_banner(&out.explain),
                        federation_notice(&out.explain)
                    );
                    out.rs
                }
                Err(e) => return error_response(&e),
            }
        } else {
            // Hub-local QBE reads run on a snapshot: stable rows even
            // while ingest or link control is mid-transaction.
            match self.archive.snapshot_read(&sql, &params) {
                Ok(rs) => rs,
                Err(e) => return Response::error(400, &e.to_string()),
            }
        };
        self.render_result_page(&xt.name, &rs, role, &notice)
    }

    /// Does a QBE/browse query for this table touch any federated
    /// table (the table itself, or an FK-substitute join target)?
    fn query_is_federated(&self, xt: &easia_xuis::XuisTable) -> bool {
        join_tables(xt)
            .iter()
            .any(|t| self.archive.federation.catalog.is_federated(t))
    }

    /// Speculatively run the federated keyed scans behind this screen's
    /// FK/PK browse links while the screen renders, so the next click
    /// is served from the prefetch cache instead of waiting on the WAN.
    /// Bounded to the first few distinct link targets; parked results
    /// are invalidated by the federation write fingerprint, so a write
    /// anywhere between render and click forces a live re-run.
    fn speculative_prefetch(&mut self, xt: &easia_xuis::XuisTable, rs: &ResultSet) {
        const MAX_PREFETCH: usize = 4;
        let mut queries: Vec<(String, Vec<Value>)> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        'rows: for row in &rs.rows {
            for (c, v) in rs.columns.iter().zip(row) {
                if v.is_null() {
                    continue;
                }
                let Some(xc) = xt.column(c) else { continue };
                // The same targets render_cell links to: the FK's
                // referenced row, and child rows per referencing table.
                let mut targets: Vec<String> = Vec::new();
                if let Some(fk) = &xc.fk {
                    targets.push(fk.tablecolumn.clone());
                }
                targets.extend(xc.pk_refby.iter().cloned());
                for colid in targets {
                    let Some((table, column)) = colid.rsplit_once('.') else {
                        continue;
                    };
                    let Some(txt) = self.archive.xuis.table(table) else {
                        continue;
                    };
                    // Hub-local targets answer without WAN latency;
                    // speculation buys nothing there.
                    if !self.query_is_federated(txt) {
                        continue;
                    }
                    let sql = build_browse_query(txt, column);
                    let value = v.to_string();
                    if seen.insert((sql.clone(), value.clone())) {
                        queries.push((sql, vec![Value::Str(value)]));
                        if queries.len() >= MAX_PREFETCH {
                            break 'rows;
                        }
                    }
                }
            }
        }
        self.archive.prefetch_queries(&queries);
    }

    fn render_result_page(
        &mut self,
        table: &str,
        rs: &ResultSet,
        role: Role,
        notice: &str,
    ) -> Response {
        if let Some(xt) = self.archive.xuis.table(table).cloned() {
            self.speculative_prefetch(&xt, rs);
        }
        // Row-level operation applicability.
        let is_guest = matches!(role, Role::Guest);
        let mut row_ops = Vec::with_capacity(rs.rows.len());
        for row in &rs.rows {
            let pairs: Vec<(String, String)> = rs
                .columns
                .iter()
                .zip(row)
                .map(|(c, v)| {
                    (
                        format!("{}.{}", table.to_ascii_uppercase(), c),
                        v.to_string(),
                    )
                })
                .collect();
            row_ops.push(
                self.archive
                    .catalog
                    .applicable(table, &pairs, is_guest)
                    .into_iter()
                    .map(|e| e.op.clone())
                    .collect::<Vec<_>>(),
            );
        }
        let sizes = |url: &str| self.archive.file_size_of(url);
        let op_refs: Vec<Vec<&easia_xuis::Operation>> =
            row_ops.iter().map(|v| v.iter().collect()).collect();
        let ctx = BrowseContext {
            xuis: &self.archive.xuis,
            table,
            is_guest,
            row_operations: op_refs,
            file_size: Some(&sizes),
        };
        let table_html = render_results(&ctx, rs);
        let count = rs.rows.len();
        Response::html(page(
            &format!("Results from {table}"),
            &format!("<p>{count} row(s)</p>{notice}{table_html}"),
        ))
    }

    fn browse(&mut self, kind: &str, colid: &str, value: &str, role: Role) -> Response {
        // fk: colid is the referenced TABLE.COLUMN — fetch that row.
        // pk: colid is the referencing TABLE.COLUMN — fetch child rows.
        if kind != "fk" && kind != "pk" {
            return Response::error(404, "unknown browse kind");
        }
        let Some((table, column)) = colid.rsplit_once('.') else {
            return Response::error(400, "bad column id");
        };
        let Some(xt) = self.archive.xuis.table(table).cloned() else {
            return Response::error(404, &format!("no table {table}"));
        };
        let sql = build_browse_query(&xt, column);
        let params = [Value::Str(value.to_string())];
        // Hyperlink browsing also sees the whole federation — including
        // the FK-substitute join legs the statement now carries.
        let (rs, notice) = if self.query_is_federated(&xt) {
            match self.archive.federated_query(&sql, &params) {
                Ok(out) => {
                    let n = format!(
                        "{}{}",
                        federation_banner(&out.explain),
                        federation_notice(&out.explain)
                    );
                    (out.rs, n)
                }
                Err(e) => return error_response(&e),
            }
        } else {
            // Hyperlink browsing is read-only: serve it from a snapshot.
            match self.archive.snapshot_read(&sql, &params) {
                Ok(rs) => (rs, String::new()),
                Err(e) => return Response::error(400, &e.to_string()),
            }
        };
        self.render_result_page(table, &rs, role, &notice)
    }

    fn lob(&mut self, table: &str, column: &str, req: &Request) -> Response {
        // Identify the row by the primary-key query parameters.
        let Some(schema) = self.archive.db.schema(table).cloned() else {
            return Response::error(404, &format!("no table {table}"));
        };
        let mut conj = Vec::new();
        let mut params = Vec::new();
        for pk in &schema.primary_key {
            let Some(v) = req.param(pk) else {
                return Response::error(400, &format!("missing key {pk}"));
            };
            conj.push(format!("{pk} = ?"));
            params.push(Value::Str(v.to_string()));
        }
        if conj.is_empty() {
            return Response::error(400, "table has no primary key");
        }
        let sql = format!("SELECT {column} FROM {table} WHERE {}", conj.join(" AND "));
        match self.archive.db.execute_with_params(&sql, &params) {
            Ok(rs) => match rs.scalar() {
                // "BLOB and CLOB ... rematerialised and returned to the
                // client" with the appropriate MIME type.
                Some(Value::Blob(b)) => Response::bytes("application/octet-stream", b.clone()),
                Some(Value::Clob(c)) => Response::text(c.clone()),
                Some(Value::Null) | None => Response::error(404, "no such object"),
                Some(v) => Response::text(v.to_string()),
            },
            Err(e) => Response::error(400, &e.to_string()),
        }
    }

    fn op_form(&mut self, table: &str, op_name: &str, req: &Request, role: Role) -> Response {
        let Some(entry) = self.archive.catalog.find(table, op_name).cloned() else {
            return Response::error(404, &format!("no operation {op_name}"));
        };
        if !entry.op.guest_access && !role.can_run_restricted_ops() {
            return Response::error(403, "operation not available to guest users");
        }
        let dataset = req.param("dataset").unwrap_or("");
        // "An HTML form will be created to request these parameters at
        // invocation time."
        let mut body = format!(
            "<p>Operation <b>{}</b> on dataset <code>{}</code></p>",
            escape(op_name),
            escape(dataset)
        );
        if let Some(d) = &entry.op.description {
            body.push_str(&format!("<p>{}</p>", escape(d)));
        }
        body.push_str(&format!(
            "<form method=\"post\" action=\"/op/{}/{}\">\
             <input type=\"hidden\" name=\"dataset\" value=\"{}\"/>",
            url_encode(table),
            url_encode(op_name),
            escape(dataset)
        ));
        for p in &entry.op.parameters {
            body.push_str(&format!("<p>{}<br/>", escape(&p.description)));
            match &p.widget {
                Widget::Select {
                    name,
                    size,
                    options,
                } => {
                    body.push_str(&format!(
                        "<select name=\"{}\" size=\"{}\">",
                        escape(name),
                        size
                    ));
                    for (v, label) in options {
                        body.push_str(&format!(
                            "<option value=\"{}\">{}</option>",
                            escape(v),
                            escape(label)
                        ));
                    }
                    body.push_str("</select>");
                }
                Widget::Radio { name, options } => {
                    for (v, label) in options {
                        body.push_str(&format!(
                            "<input type=\"radio\" name=\"{}\" value=\"{}\"/>{} ",
                            escape(name),
                            escape(v),
                            escape(label)
                        ));
                    }
                }
                Widget::Text { name, default } => {
                    body.push_str(&format!(
                        "<input type=\"text\" name=\"{}\" value=\"{}\"/>",
                        escape(name),
                        escape(default)
                    ));
                }
            }
            body.push_str("</p>");
        }
        body.push_str("<p><input type=\"submit\" value=\"Run operation\"/></p></form>");
        Response::html(page(&format!("Invoke {op_name}"), &body))
    }

    fn op_run(
        &mut self,
        table: &str,
        op_name: &str,
        req: &Request,
        role: Role,
        session: &str,
    ) -> Response {
        let Some(dataset) = req.param("dataset").map(str::to_string) else {
            return Response::error(400, "missing dataset");
        };
        let mut params: BTreeMap<String, String> = req.form.clone();
        params.remove("dataset");
        match self
            .archive
            .run_operation(table, op_name, &dataset, &params, role, session)
        {
            Ok(out) => {
                let mut body =
                    format!(
                    "<p>Operation complete in {:.1} simulated seconds{} — {} byte(s) returned.</p>",
                    out.elapsed_secs,
                    if out.from_cache { " (cached result)" } else { "" },
                    out.shipped_bytes as u64
                );
                if !out.stdout.is_empty() {
                    body.push_str(&format!("<pre>{}</pre>", escape(&out.stdout)));
                }
                if !out.outputs.is_empty() {
                    body.push_str("<ul>");
                    for (name, data) in &out.outputs {
                        self.outputs
                            .insert((session.to_string(), name.clone()), data.clone());
                        body.push_str(&format!(
                            "<li>{} ({} bytes)</li>",
                            link(&format!("/result/{}", url_encode(name)), name),
                            data.len()
                        ));
                    }
                    body.push_str("</ul>");
                }
                Response::html(page(&format!("{op_name} output"), &body))
            }
            Err(e) => error_response(&e),
        }
    }

    fn download_route(&mut self, req: &Request, role: Role) -> Response {
        let Some(url) = req.param("url").map(str::to_string) else {
            return Response::error(400, "missing url");
        };
        match self.archive.download(&url, role) {
            Ok((data, _secs)) => Response::bytes("application/octet-stream", data),
            Err(e) => error_response(&e),
        }
    }

    fn upload_form(&self, role: Role) -> Response {
        if !role.can_upload_code() {
            return Response::error(403, "guest users cannot upload post-processing codes");
        }
        Response::html(page(
            "Upload post-processing code",
            "<p>Code must accept the dataset filename as its first parameter and \
             write output to relative filenames.</p>\
             <form method=\"post\" action=\"/upload\">\
             <p>Dataset URL <input name=\"dataset\" size=\"60\"/></p>\
             <p>EPC source<br/><textarea name=\"code\" rows=\"12\" cols=\"70\"></textarea></p>\
             <p><input type=\"submit\" value=\"Upload and run\"/></p></form>",
        ))
    }

    fn do_upload(&mut self, req: &Request, role: Role, session: &str) -> Response {
        let dataset = req.param("dataset").unwrap_or("").to_string();
        let code = req.param("code").unwrap_or("").to_string();
        match self.archive.upload_and_run(
            "RESULT_FILE",
            "DOWNLOAD_RESULT",
            &dataset,
            code.into_bytes(),
            "main.epc",
            &BTreeMap::new(),
            role,
            session,
        ) {
            Ok(out) => {
                let mut body = format!(
                    "<p>Uploaded code ran in the sandbox: {} instruction(s), {:.1} simulated seconds.</p>",
                    out.instructions, out.elapsed_secs
                );
                if !out.stdout.is_empty() {
                    body.push_str(&format!("<pre>{}</pre>", escape(&out.stdout)));
                }
                for (name, data) in &out.outputs {
                    self.outputs
                        .insert((session.to_string(), name.clone()), data.clone());
                    body.push_str(&format!(
                        "<p>{}</p>",
                        link(&format!("/result/{}", url_encode(name)), name)
                    ));
                }
                Response::html(page("Upload complete", &body))
            }
            Err(e) => error_response(&e),
        }
    }

    fn progress_page(&self) -> Response {
        let mut body = String::from("<table><tr><th>Job</th><th>State</th></tr>");
        for (job, phase) in self.archive.board.snapshot() {
            body.push_str(&format!(
                "<tr><td>{}</td><td>{:?}</td></tr>",
                escape(&job),
                phase
            ));
        }
        body.push_str("</table>");
        Response::html(page("Job progress", &body))
    }

    /// Federation status: registered foreign servers and the
    /// foreign-table catalog with per-partition row estimates.
    fn federation_page(&self) -> Response {
        let fed = &self.archive.federation;
        let mut body = String::from("<h2>Foreign servers</h2><ul>");
        for name in fed.site_names() {
            let site = fed.site(&name).expect("listed site exists");
            body.push_str(&format!(
                "<li>{} — {}</li>",
                escape(&name),
                if site.is_up() { "up" } else { "DOWN" }
            ));
        }
        body.push_str(
            "</ul><h2>Foreign tables</h2><table>\
             <tr><th>Table</th><th>Site key</th><th>Partitions</th></tr>",
        );
        for (name, ft) in &fed.catalog.tables {
            let parts: Vec<String> = ft
                .partitions
                .iter()
                .map(|p| format!("{} (est {} rows)", p.site_label(), p.est_rows.get()))
                .collect();
            body.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>",
                escape(name),
                escape(ft.site_key.as_deref().unwrap_or("-")),
                escape(&parts.join(", "))
            ));
        }
        body.push_str("</table>");
        Response::html(page("Federation", &body))
    }

    /// `EXPLAIN FEDERATED` for a QBE form submission: plan the query the
    /// form would run and show per-site pushed vs. hub-evaluated
    /// conjuncts and the pruning decisions, without executing it.
    fn federated_explain_route(&mut self, table: &str, req: &Request) -> Response {
        let Some(xt) = self.archive.xuis.table(table).cloned() else {
            return Response::error(404, &format!("no table {table}"));
        };
        if !self.query_is_federated(&xt) {
            return Response::error(400, &format!("{table} is not a federated table"));
        }
        let (sql, params) = match build_join_query(&xt, &req.form) {
            Ok(q) => q,
            Err(e) => return Response::error(400, &e.to_string()),
        };
        match self.archive.federated_explain(&sql, &params) {
            Ok(text) => Response::html(page(
                &format!("EXPLAIN FEDERATED {}", xt.name),
                &explain_page_body(&sql, &text),
            )),
            Err(e) => error_response(&e),
        }
    }

    fn stats_page(&self) -> Response {
        let mut body = String::from(
            "<table><tr><th>Operation</th><th>Runs</th><th>Failures</th>\
             <th>Mean time (s)</th><th>Mean output (bytes)</th></tr>",
        );
        for (name, s) in self.archive.stats.report() {
            body.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{:.2}</td><td>{:.0}</td></tr>",
                escape(name),
                s.runs,
                s.failures,
                s.mean_exec_secs(),
                s.mean_output_bytes()
            ));
        }
        body.push_str("</table>");
        Response::html(page("Operation statistics", &body))
    }

    fn users_page(&self, role: Role) -> Response {
        if !role.can_manage_users() {
            return Response::error(403, "user management requires the admin role");
        }
        let mut body = String::from("<table><tr><th>User</th><th>Role</th></tr>");
        for u in self.archive.users.list() {
            body.push_str(&format!(
                "<tr><td>{}</td><td>{:?}</td></tr>",
                escape(&u.username),
                u.role
            ));
        }
        body.push_str(
            "</table><form method=\"post\" action=\"/users\">\
             <p>New user <input name=\"username\"/> password <input name=\"password\"/>\
             role <select name=\"role\"><option>Researcher</option><option>Guest</option>\
             <option>Admin</option></select> <input type=\"submit\" value=\"Add\"/></p></form>",
        );
        Response::html(page("User management", &body))
    }

    fn add_user(&mut self, req: &Request, role: Role) -> Response {
        if !role.can_manage_users() {
            return Response::error(403, "user management requires the admin role");
        }
        let username = req.param("username").unwrap_or("");
        let password = req.param("password").unwrap_or("");
        if username.is_empty() || password.is_empty() {
            return Response::error(400, "username and password required");
        }
        let new_role = match req.param("role") {
            Some("Admin") => Role::Admin,
            Some("Guest") => Role::Guest,
            _ => Role::Researcher,
        };
        self.archive.users.add_user(username, password, new_role);
        Response::redirect("/users")
    }

    /// Run an operation directly (used by experiments that bypass HTTP).
    pub fn catalog(&self) -> &OperationCatalog {
        &self.archive.catalog
    }
}

/// Collapse a request path onto the bounded route-label set used by
/// `easia_http_requests_total`, so hostile or mistyped paths cannot
/// mint unbounded label values.
fn route_label(req: &Request) -> &'static str {
    let segs = req.segments();
    match segs.first() {
        None => "root",
        Some(s) => match *s {
            // The federated explain sub-route gets its own label; the
            // table name stays out of the label set.
            "federated" if segs.get(1).is_some_and(|s| *s == "explain") => "federated_explain",
            "federated" => "federated",
            "login" => "login",
            "logout" => "logout",
            "tables" => "tables",
            "query" => "query",
            "browse" => "browse",
            "lob" => "lob",
            "op" => "op",
            "result" => "result",
            "download" => "download",
            "upload" => "upload",
            "progress" => "progress",
            "stats" => "stats",
            "users" => "users",
            "metrics" => "metrics",
            _ => "other",
        },
    }
}

/// Map archive-level errors onto HTTP: permission problems are 403, an
/// unreachable file server degrades to 503 with a Retry-After hint, and
/// everything else is a 400 with the error text.
fn error_response(e: &ArchiveError) -> Response {
    match e {
        ArchiveError::Denied(m) => Response::error(403, m),
        ArchiveError::Fs(easia_fs::FsError::Unavailable {
            retry_after_secs, ..
        }) => Response::unavailable(&e.to_string(), *retry_after_secs),
        _ => Response::error(400, &e.to_string()),
    }
}

fn mime_of(name: &str) -> &'static str {
    if name.ends_with(".ppm") {
        "image/x-portable-pixmap"
    } else if name.ends_with(".html") {
        "text/html; charset=utf-8"
    } else if name.ends_with(".txt") {
        "text/plain; charset=utf-8"
    } else {
        "application/octet-stream"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turbulence;
    use crate::Archive;

    fn app() -> WebApp {
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .build();
        turbulence::install_schema(&mut a).unwrap();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        WebApp::new(a)
    }

    fn login(app: &mut WebApp, user: &str, pass: &str) -> String {
        let resp = app.handle(Request::post(
            "/login",
            &[("username", user), ("password", pass)],
        ));
        assert_eq!(resp.status, 302, "{}", resp.body_text());
        resp.set_session.expect("session cookie set")
    }

    #[test]
    fn login_flow() {
        let mut app = app();
        // Unauthenticated access redirects to login.
        let r = app.handle(Request::get("/tables"));
        assert_eq!(r.status, 302);
        assert_eq!(r.location.as_deref(), Some("/login"));
        // Bad credentials re-render the form.
        let r = app.handle(Request::post(
            "/login",
            &[("username", "guest"), ("password", "wrong")],
        ));
        assert!(r.body_text().contains("invalid"));
        // Good credentials open a session.
        let sess = login(&mut app, "guest", "guest");
        let r = app.handle(Request::get("/tables").with_session(&sess));
        assert_eq!(r.status, 200);
        assert!(r.body_text().contains("Result files"), "alias shown");
        // Logout closes it.
        let r = app.handle(Request::get("/logout").with_session(&sess));
        assert_eq!(r.status, 302);
        let r = app.handle(Request::get("/tables").with_session(&sess));
        assert_eq!(r.status, 302, "session gone");
    }

    #[test]
    fn query_form_and_search() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r = app.handle(Request::get("/query/SIMULATION").with_session(&sess));
        assert!(r.body_text().contains("op_TITLE"));
        let r = app.handle(
            Request::post(
                "/query/SIMULATION",
                &[
                    ("ret_TITLE", "on"),
                    ("ret_AUTHOR_KEY", "on"),
                    ("val_TITLE", "Channel%"),
                ],
            )
            .with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("1 row(s)"), "{body}");
        // FK substitution: author shown by name, linking to the author.
        assert!(body.contains("Mark Papiani"), "{body}");
        assert!(body.contains("/browse/fk/AUTHOR.AUTHOR_KEY"), "{body}");
    }

    #[test]
    fn browse_links_work() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r =
            app.handle(Request::get("/browse/fk/AUTHOR.AUTHOR_KEY?value=A1").with_session(&sess));
        assert!(
            r.body_text().contains("papiani@computer.org"),
            "{}",
            r.body_text()
        );
        // PK browsing from SIMULATION to RESULT_FILE.
        let r = app.handle(
            Request::get("/browse/pk/RESULT_FILE.SIMULATION_KEY?value=S01").with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("t000.edf"), "{body}");
        assert!(body.contains("GetImage"), "operations column: {body}");
    }

    #[test]
    fn clob_rematerialisation() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r = app.handle(
            Request::get("/lob/SIMULATION/DESCRIPTION?SIMULATION_KEY=S01").with_session(&sess),
        );
        assert_eq!(r.status, 200);
        assert!(r.content_type.starts_with("text/plain"));
        assert!(r.body_text().contains("Direct numerical simulation"));
    }

    #[test]
    fn operation_form_and_run() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let rs = app
            .archive
            .db
            .execute("SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let url = rs.rows[0][0].to_string();
        let r = app.handle(
            Request::get(&format!(
                "/op/RESULT_FILE/GetImage?dataset={}",
                url_encode(&url)
            ))
            .with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("Select the slice"), "{body}");
        assert!(body.contains("name=\"type\""), "{body}");
        let r = app.handle(
            Request::post(
                "/op/RESULT_FILE/GetImage",
                &[("dataset", url.as_str()), ("slice", "z0"), ("type", "u")],
            )
            .with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("Operation complete"), "{body}");
        assert!(body.contains("slice_u_z0.ppm"), "{body}");
        // Fetch the produced image.
        let r = app.handle(Request::get("/result/slice_u_z0.ppm").with_session(&sess));
        assert_eq!(r.content_type, "image/x-portable-pixmap");
        assert!(r.body.starts_with(b"P6"));
    }

    #[test]
    fn guest_restrictions_via_http() {
        let mut app = app();
        let sess = login(&mut app, "guest", "guest");
        // Guests see no download links.
        let r = app.handle(
            Request::post("/query/RESULT_FILE", &[("all", "All data")]).with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("download restricted"), "{body}");
        // Guests cannot open the upload form.
        let r = app.handle(Request::get("/upload").with_session(&sess));
        assert_eq!(r.status, 403);
        // Guests cannot manage users.
        let r = app.handle(Request::get("/users").with_session(&sess));
        assert_eq!(r.status, 403);
    }

    #[test]
    fn crashed_file_server_degrades_to_503_with_retry_after() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let rs = app
            .archive
            .db
            .execute("SELECT download_result FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let url = rs.rows[0][0].to_string();
        let rs = app
            .archive
            .db
            .execute("SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let stored = rs.rows[0][0].to_string();
        // Download works while the server is up.
        let r = app.handle(
            Request::get(&format!("/download?url={}", url_encode(&url))).with_session(&sess),
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(!r.body.is_empty());
        // Kill the server: the same request degrades to 503 + Retry-After.
        app.archive
            .server("fs1.example")
            .unwrap()
            .1
            .borrow_mut()
            .crash();
        let r = app.handle(
            Request::get(&format!("/download?url={}", url_encode(&url))).with_session(&sess),
        );
        assert_eq!(r.status, 503, "{}", r.body_text());
        assert_eq!(r.retry_after, Some(easia_fs::DEFAULT_RETRY_AFTER_SECS));
        assert!(r.body_text().contains("unavailable"), "{}", r.body_text());
        // Operations against datasets on the dead server degrade too.
        let r = app.handle(
            Request::post(
                "/op/RESULT_FILE/GetImage",
                &[("dataset", stored.as_str()), ("slice", "z0"), ("type", "u")],
            )
            .with_session(&sess),
        );
        assert_eq!(r.status, 503, "{}", r.body_text());
        // Restart: service resumes.
        app.archive
            .server("fs1.example")
            .unwrap()
            .1
            .borrow_mut()
            .restart();
        let r = app.handle(
            Request::get(&format!("/download?url={}", url_encode(&url))).with_session(&sess),
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
    }

    #[test]
    fn upload_via_http() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let rs = app
            .archive
            .db
            .execute("SELECT DLURLCOMPLETE(download_result) FROM RESULT_FILE LIMIT 1")
            .unwrap();
        let url = rs.rows[0][0].to_string();
        let r = app.handle(
            Request::post(
                "/upload",
                &[
                    ("dataset", url.as_str()),
                    ("code", "INPUTSIZE\nPRINTNUM\nHALT"),
                ],
            )
            .with_session(&sess),
        );
        let body = r.body_text();
        assert!(body.contains("ran in the sandbox"), "{body}");
        let size = app.archive.file_size_of(&url).unwrap();
        assert!(body.contains(&size.to_string()), "{body}");
    }

    #[test]
    fn admin_pages() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r = app.handle(
            Request::post(
                "/users",
                &[
                    ("username", "mark"),
                    ("password", "pw"),
                    ("role", "Researcher"),
                ],
            )
            .with_session(&sess),
        );
        assert_eq!(r.status, 302);
        let r = app.handle(Request::get("/users").with_session(&sess));
        assert!(r.body_text().contains("mark"));
        let r = app.handle(Request::get("/stats").with_session(&sess));
        assert_eq!(r.status, 200);
        let r = app.handle(Request::get("/progress").with_session(&sess));
        assert_eq!(r.status, 200);
    }

    #[test]
    fn metrics_endpoint_exposes_every_layer() {
        let mut app = app();
        let sess = login(&mut app, "admin", "hpcc-admin");
        let r = app.handle(Request::get("/tables").with_session(&sess));
        assert_eq!(r.status, 200);
        let r = app.handle(Request::get("/metrics"));
        assert_eq!(r.status, 200);
        assert!(
            r.content_type.starts_with("text/plain"),
            "{}",
            r.content_type
        );
        let body = r.body_text();
        for needle in [
            "easia_db_statements_total",     // database execution
            "easia_db_rows_scanned_total",   // scans
            "easia_transfer_attempts_total", // transfer client
            "easia_transfer_retries_total",
            "easia_dlfm_tokens_issued_total", // datalink manager
            "easia_fs_links_total",           // file servers (seeding linked files)
            "easia_http_requests_total",      // HTTP routing
            "easia_http_queue_depth",         // admission controller
            "easia_http_shed_total",
            "easia_http_admitted_total",
            "easia_http_queue_delay_seconds",
            "easia_http_latency_seconds",
        ] {
            assert!(body.contains(needle), "missing {needle} in:\n{body}");
        }
        // The admission families carry every class label eagerly, at
        // zero sheds, before any overload has happened.
        for class in ["browse", "scan", "download"] {
            let needle = format!("easia_http_shed_total{{class=\"{class}\"}} 0");
            assert!(body.contains(&needle), "missing {needle} in:\n{body}");
        }
        // The route records itself before rendering, so the returned
        // exposition already carries its own request sample.
        assert!(body.contains("route=\"metrics\""), "{body}");
        // Seeding linked files, so the fs counter is non-zero.
        assert!(
            body.contains("easia_fs_links_total{host=\"fs1.example\"}"),
            "{body}"
        );
        // Unbounded paths collapse onto the "other" label.
        let _ = app.handle(Request::get("/no/such/route").with_session(&sess));
        let r = app.handle(Request::get("/metrics"));
        assert!(r.body_text().contains("route=\"other\",status=\"404\""));
    }

    #[test]
    fn degraded_federated_answer_shows_banner_and_breaker_metrics() {
        const DDL: &str = "CREATE TABLE SIMULATION (\
             SIMULATION_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), \
             TITLE VARCHAR(80), \
             GRID_SIZE INTEGER)";
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .federated_site("cam", crate::paper_link_spec())
            .federation_policy(easia_med::PartialPolicy::Partial)
            .replica_cache(300.0, 1_000)
            .build();
        a.db.execute(DDL).unwrap();
        a.db.execute("INSERT INTO SIMULATION VALUES ('soton-0', 'soton', 'Local run', 64)")
            .unwrap();
        {
            let site = a.federation.site("cam").unwrap();
            let mut db = site.db.borrow_mut();
            db.execute(DDL).unwrap();
            db.execute("INSERT INTO SIMULATION VALUES ('cam-0', 'cam', 'Remote run', 128)")
                .unwrap();
        }
        a.federation
            .catalog
            .import_foreign_table(
                &a.db,
                "SIMULATION",
                Some("SITE"),
                vec![
                    easia_med::Partition::new(None, &["soton"]),
                    easia_med::Partition::new(Some("cam"), &["cam"]),
                ],
            )
            .unwrap();
        a.generate_xuis_federated(4);
        a.federation.site("cam").unwrap().crash();
        let mut app = WebApp::new(a);
        let sess = login(&mut app, "admin", "hpcc-admin");

        // The PARTIAL answer renders with the visible degradation
        // banner naming the skipped site.
        let r = app
            .handle(Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&sess));
        assert_eq!(r.status, 200, "{}", r.body_text());
        let body = r.body_text();
        assert!(body.contains("banner warning"), "{body}");
        assert!(body.contains("INCOMPLETE"), "{body}");
        assert!(body.contains("cam"), "{body}");

        // The resilience metric families render on /metrics — the
        // breaker gauge per site, retry and cache counters — without
        // needing a retry or cache hit to have happened first.
        let m = app.handle(Request::get("/metrics")).body_text();
        for needle in [
            "easia_med_breaker_state{site=\"cam\"}",
            "easia_med_scan_retries_total{site=\"cam\"}",
            "easia_med_cache_hits_total{site=\"cam\"}",
            "easia_med_cache_stale_served_total{site=\"cam\"}",
        ] {
            assert!(m.contains(needle), "missing {needle} in:\n{m}");
        }
    }

    #[test]
    fn fk_browse_is_served_from_speculative_prefetch_until_a_write_lands() {
        const AUTHOR_DDL: &str = "CREATE TABLE AUTHOR (\
             AUTHOR_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), \
             NAME VARCHAR(80))";
        const SIM_DDL: &str = "CREATE TABLE SIMULATION (\
             SIMULATION_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), \
             TITLE VARCHAR(80), \
             AUTHOR_KEY VARCHAR(40) REFERENCES AUTHOR(AUTHOR_KEY))";
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .federated_site("cam", crate::paper_link_spec())
            .build();
        for ddl in [AUTHOR_DDL, SIM_DDL] {
            a.db.execute(ddl).unwrap();
        }
        a.db.execute("INSERT INTO AUTHOR VALUES ('A1', 'soton', 'Mark')")
            .unwrap();
        a.db.execute("INSERT INTO SIMULATION VALUES ('soton-0', 'soton', 'Local run', 'A1')")
            .unwrap();
        {
            let site = a.federation.site("cam").unwrap();
            let mut db = site.db.borrow_mut();
            for ddl in [AUTHOR_DDL, SIM_DDL] {
                db.execute(ddl).unwrap();
            }
            db.execute("INSERT INTO AUTHOR VALUES ('A2', 'cam', 'Remote')")
                .unwrap();
            db.execute("INSERT INTO SIMULATION VALUES ('cam-0', 'cam', 'Remote run', 'A2')")
                .unwrap();
        }
        for table in ["AUTHOR", "SIMULATION"] {
            a.federation
                .catalog
                .import_foreign_table(
                    &a.db,
                    table,
                    Some("SITE"),
                    vec![
                        easia_med::Partition::new(None, &["soton"]),
                        easia_med::Partition::new(Some("cam"), &["cam"]),
                    ],
                )
                .unwrap();
        }
        a.generate_xuis_federated(4);
        let mut app = WebApp::new(a);
        let sess = login(&mut app, "admin", "hpcc-admin");

        // Rendering the SIMULATION result screen speculatively runs
        // the AUTHOR browse scans behind its FK links.
        let r = app
            .handle(Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&sess));
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(
            r.body_text().contains("/browse/fk/AUTHOR.AUTHOR_KEY"),
            "screen offers FK links: {}",
            r.body_text()
        );
        assert!(!app.archive.prefetch.is_empty(), "scans were parked");

        // The click is a prefetch hit: answered from the parked
        // outcome, annotated in the provenance notice.
        let r =
            app.handle(Request::get("/browse/fk/AUTHOR.AUTHOR_KEY?value=A1").with_session(&sess));
        let body = r.body_text();
        assert!(body.contains("Mark"), "{body}");
        assert!(body.contains("served from speculative prefetch"), "{body}");
        let m = app.handle(Request::get("/metrics")).body_text();
        assert!(m.contains("easia_med_prefetch_hits_total 1"), "{m}");
        assert!(m.contains("easia_med_prefetch_issued_total"), "{m}");

        // A committed write anywhere in the federation invalidates the
        // remaining parked screens: the next click runs live.
        app.archive
            .federation
            .site("cam")
            .unwrap()
            .db
            .borrow_mut()
            .execute("UPDATE AUTHOR SET NAME = 'Renamed' WHERE AUTHOR_KEY = 'A2'")
            .unwrap();
        let r =
            app.handle(Request::get("/browse/fk/AUTHOR.AUTHOR_KEY?value=A2").with_session(&sess));
        let body = r.body_text();
        assert!(body.contains("Renamed"), "stale screen never shown: {body}");
        assert!(!body.contains("served from speculative prefetch"), "{body}");
        let m = app.handle(Request::get("/metrics")).body_text();
        assert!(m.contains("easia_med_prefetch_stale_total 1"), "{m}");
    }

    #[test]
    fn another_sessions_live_query_keeps_a_parked_prefetch_fresh() {
        const AUTHOR_DDL: &str = "CREATE TABLE AUTHOR (\
             AUTHOR_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), \
             NAME VARCHAR(80))";
        const SIM_DDL: &str = "CREATE TABLE SIMULATION (\
             SIMULATION_KEY VARCHAR(40) PRIMARY KEY, \
             SITE VARCHAR(20), \
             TITLE VARCHAR(80), \
             AUTHOR_KEY VARCHAR(40) REFERENCES AUTHOR(AUTHOR_KEY))";
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .federated_site("cam", crate::paper_link_spec())
            .build();
        let cam = a.federation.site("cam").unwrap().db.clone();
        for (db, site_name, n) in [(&mut a.db, "soton", 1), (&mut *cam.borrow_mut(), "cam", 2)] {
            db.execute(AUTHOR_DDL).unwrap();
            db.execute(SIM_DDL).unwrap();
            db.execute(&format!(
                "INSERT INTO AUTHOR VALUES ('A{n}', '{site_name}', 'Author {n}')"
            ))
            .unwrap();
            db.execute(&format!(
                "INSERT INTO SIMULATION VALUES ('{site_name}-0', '{site_name}', 'Run', 'A{n}')"
            ))
            .unwrap();
        }
        for table in ["AUTHOR", "SIMULATION"] {
            a.federation
                .catalog
                .import_foreign_table(
                    &a.db,
                    table,
                    Some("SITE"),
                    vec![
                        easia_med::Partition::new(None, &["soton"]),
                        easia_med::Partition::new(Some("cam"), &["cam"]),
                    ],
                )
                .unwrap();
        }
        a.generate_xuis_federated(4);
        let mut app = WebApp::new(a);
        let sess_a = login(&mut app, "admin", "hpcc-admin");
        let sess_b = login(&mut app, "admin", "hpcc-admin");

        // Session A's SIMULATION screen parks the AUTHOR scans behind
        // its FK links.
        let r = app.handle(
            Request::post("/query/SIMULATION", &[("all", "All data")]).with_session(&sess_a),
        );
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(!app.archive.prefetch.is_empty(), "scans were parked");

        // Session B runs an unrelated live federated query. A read
        // writes nothing, so A's parked screens stay fresh.
        let r = app
            .handle(Request::post("/query/AUTHOR", &[("all", "All data")]).with_session(&sess_b));
        assert_eq!(r.status, 200, "{}", r.body_text());
        assert!(!r.body_text().contains("served from speculative prefetch"));

        let r =
            app.handle(Request::get("/browse/fk/AUTHOR.AUTHOR_KEY?value=A1").with_session(&sess_a));
        let body = r.body_text();
        assert!(body.contains("Author 1"), "{body}");
        assert!(body.contains("served from speculative prefetch"), "{body}");
        let m = app.handle(Request::get("/metrics")).body_text();
        assert!(m.contains("easia_med_prefetch_hits_total 1"), "{m}");
    }

    #[test]
    fn admission_sheds_open_loop_burst_with_drain_derived_retry_after() {
        use crate::admission::{AdmissionConfig, ClassLimits, RouteClass};
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .build();
        turbulence::install_schema(&mut a).unwrap();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        // One virtual server, one queue slot, 10 s modelled per page:
        // of three simultaneous arrivals the third must shed.
        let cfg = AdmissionConfig::default()
            .with_class(RouteClass::Browse, ClassLimits::new(1, 1).with_floor(10.0));
        let mut app = WebApp::with_admission(a, cfg);
        // The login occupies the single virtual server for 10 s, the
        // first page takes the one queue slot, the second is shed.
        let sess = login(&mut app, "guest", "guest");
        let now = app.archive.net.now();
        let r1 = app.handle_at(Request::get("/tables").with_session(&sess), now);
        assert_eq!(r1.status, 200, "queue slot absorbs the first");
        let r2 = app.handle_at(Request::get("/tables").with_session(&sess), now);
        assert_eq!(r2.status, 503, "{}", r2.body_text());
        // The head of the queue starts when the login's 10 s finish —
        // that drain time is the Retry-After hint.
        assert_eq!(r2.retry_after, Some(10));
        assert!(r2.body_text().contains("overloaded"), "{}", r2.body_text());
        // Shed and admitted totals are visible on /metrics, and the
        // shed request was recorded on the 503 counters.
        let m = app.handle(Request::get("/metrics")).body_text();
        assert!(
            m.contains("easia_http_shed_total{class=\"browse\"} 1"),
            "{m}"
        );
        assert!(
            m.contains("easia_http_requests_total{route=\"tables\",status=\"503\"} 1"),
            "{m}"
        );
        // Once the burst drains, the same client is admitted again.
        let r = app.handle_at(Request::get("/tables").with_session(&sess), now + 30.0);
        assert_eq!(r.status, 200);
    }

    #[test]
    fn shed_retry_after_matches_fs_and_federation_derivations() {
        // Satellite pin: all 503 paths — file-server unavailability
        // (PR 1), federation FailClosed (PR 3), and admission shedding
        // — derive Retry-After through the one shared helper. Crash
        // the file-server host and the federated site's host over the
        // same window and check the two layers' headers agree exactly.
        const DDL: &str = "CREATE TABLE SENSOR (\
             SENSOR_KEY VARCHAR(40) PRIMARY KEY, \
             TITLE VARCHAR(80))";
        let mut a = Archive::builder()
            .file_server("fs1.example", crate::paper_link_spec())
            .federated_site("cam", crate::paper_link_spec())
            .build();
        turbulence::install_schema(&mut a).unwrap();
        turbulence::seed_demo_data(&mut a, 1, 8).unwrap();
        a.db.execute(DDL).unwrap();
        a.federation
            .catalog
            .import_foreign_table(
                &a.db,
                "SENSOR",
                None,
                vec![easia_med::Partition::new(Some("cam"), &[])],
            )
            .unwrap();
        a.generate_xuis_federated(4);
        let rs =
            a.db.execute("SELECT download_result FROM RESULT_FILE LIMIT 1")
                .unwrap();
        let url = rs.rows[0][0].to_string();
        // Both hosts down until well past the federation deadline, so
        // neither layer can wait the outage out.
        let now = a.net.now();
        let recover = now + 5_000.0;
        let fs_host = a.server("fs1.example").unwrap().0;
        let cam_host = a.federation.site("cam").unwrap().host;
        let mut faults = easia_net::FaultSchedule::new();
        faults.host_crash(fs_host, now, recover);
        faults.host_crash(cam_host, now, recover);
        a.net.set_fault_schedule(faults);
        let mut app = WebApp::new(a);
        let sess = login(&mut app, "admin", "hpcc-admin");
        let fs_503 = app.handle(
            Request::get(&format!("/download?url={}", url_encode(&url))).with_session(&sess),
        );
        assert_eq!(fs_503.status, 503, "{}", fs_503.body_text());
        let fed_503 =
            app.handle(Request::post("/query/SENSOR", &[("all", "All data")]).with_session(&sess));
        assert_eq!(fed_503.status, 503, "{}", fed_503.body_text());
        let expected = (recover - app.archive.net.now()).ceil() as u64;
        assert_eq!(fs_503.retry_after, Some(expected));
        assert_eq!(
            fs_503.retry_after, fed_503.retry_after,
            "layers disagree on Retry-After"
        );
    }

    #[test]
    fn unknown_routes_404() {
        let mut app = app();
        let sess = login(&mut app, "guest", "guest");
        assert_eq!(
            app.handle(Request::get("/nonsense").with_session(&sess))
                .status,
            404
        );
        assert_eq!(
            app.handle(Request::get("/query/NOPE").with_session(&sess))
                .status,
            404
        );
    }
}
