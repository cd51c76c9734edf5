//! Two-clock benchmark of the EASIA archive.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload portal_mix|fed_scan|ingest_browse --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-check
//! ```
//!
//! One process, one closed-loop client: every caller of
//! `WebApp::handle_at` and `Archive::federated_query` waits for its
//! reply. A workload is a seeded stream of fixed-length episodes, each
//! on a freshly built archive (per-request cost grows with the requests
//! an archive has served, so a fixed episode keeps a faster machine
//! from measuring a more worn archive). The first episode warms the
//! process up and fixes the sim-time figures; the run then measures
//! whole episodes for `--seconds` of wall time, checks every answer,
//! and prints each metric as `metric <name> <value> <unit>`, then one
//! JSON summary as the last line. Wall-clock numbers never enter the
//! sim-time figures, which repeat bit for bit at a given seed.
//! `--trace 1` measures half the window untraced and half with spans
//! recorded around (and replays through) each layer's public calls,
//! and reports per-layer metrics plus the tracing overhead. See
//! `NOTES.md`.

mod fedscan;
mod ingest;
mod portal;
mod stats;
mod trace;

use stats::{diff_counters, family_sum, median, percentile, ratio, sorted};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::Tracer;

/// What one completed operation cost on both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Member of the workload's key class: federated scans in
    /// `portal_mix`, every query in `fed_scan`, ingest transactions in
    /// `ingest_browse`.
    pub key: bool,
    /// Wall time of the operation's own calls (µs).
    pub wall_us: f64,
    /// Latency on the simulated WAN clock (s).
    pub sim_s: f64,
    /// Bytes that crossed simulated links during the operation.
    pub wan_bytes: f64,
    /// Answer correct and status below 400.
    pub ok: bool,
}

/// SplitMix-style hash of `(seed, a, b)`: the stream's only source of
/// randomness.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 27)
}

/// Bytes that have crossed the simulated links so far.
pub fn wan_bytes(net: &easia_net::SimNet) -> f64 {
    net.link_ids().into_iter().map(|l| net.link_bytes(l)).sum()
}

/// One reported figure.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A seeded stream of fixed-length episodes over fresh archives.
pub trait Workload {
    /// Operations per episode.
    fn episode_ops(&self) -> usize;
    /// Replace the archive (and any replay twin) with freshly built
    /// ones for the next episode; the stream restarts from its first
    /// operation. Accumulated tallies survive.
    fn reset(&mut self);
    /// Wall time (s) of every archive build so far.
    fn build_secs(&self) -> &[f64];
    /// Run the next step of the episode, appending one sample per
    /// completed operation. Returns wall time spent checking answers,
    /// which is excluded from throughput.
    fn step(&mut self, tr: &mut Tracer, out: &mut Vec<Sample>) -> Duration;
    /// Registry counters of the current archive, less any change the
    /// benchmark's own replays caused.
    fn counters(&self) -> BTreeMap<String, f64>;
    /// End-of-episode answer checks; one message per failure.
    fn finish_episode(&mut self) -> Vec<String>;
    /// Client-side tallies of traced episodes.
    fn tallies(&self) -> Tallies;
    /// Workload-specific per-layer metrics of traced episodes.
    fn layers(&self, tr: &Tracer) -> Vec<Metric>;
}

/// Counts the benchmark keeps itself while tracing, where the registry
/// has no counter for them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tallies {
    /// Federated queries issued (one per scan-class request or query).
    pub fed_queries: u64,
    /// Hub `Database::write_counter` increase across those read-only
    /// federated operations.
    pub hub_writes_in_fed: u64,
    /// `/op` requests.
    pub op_requests: u64,
    /// `/op` requests answered from the operation-result cache.
    pub op_cache_hits: u64,
    /// Ingest transactions committed.
    pub commits: u64,
}

/// Per-layer metrics every workload reports, 0 where the layer is idle:
/// registry counter ratios over the traced episodes, client tallies,
/// and the SQL parse replay. With the tracing overhead they make up the
/// JSON summary of a traced run, in `BENCHMARK.json` order.
fn universal_layers(
    tr: &Tracer,
    diff: &BTreeMap<String, f64>,
    ops: usize,
    t: &Tallies,
) -> Vec<Metric> {
    let sum = |family| family_sum(diff, family);
    let fed = t.fed_queries as f64;
    vec![
        metric("db.parse_us", tr.median_us("db.parse"), "us"),
        metric(
            "db.rows_scanned_per_row_returned",
            ratio(
                sum("easia_db_rows_scanned_total"),
                sum("easia_db_rows_returned_total"),
            ),
            "ratio",
        ),
        metric(
            "db.index_scan_share",
            ratio(
                sum("easia_db_index_scans_total"),
                sum("easia_db_index_scans_total") + sum("easia_db_heap_scans_total"),
            ),
            "ratio",
        ),
        metric(
            "db.wal_syncs_per_commit",
            ratio(sum("easia_db_wal_fsyncs_total"), t.commits as f64),
            "count",
        ),
        metric(
            "med.rows_shipped_per_query",
            ratio(sum("easia_med_rows_shipped_total"), fed),
            "count",
        ),
        metric(
            "med.bytes_wire_per_query",
            ratio(sum("easia_med_bytes_wire_total"), fed),
            "B",
        ),
        metric(
            "med.partial_agg_share",
            ratio(sum("easia_med_partial_agg_queries_total"), fed),
            "ratio",
        ),
        metric(
            "med.prefetch_hit_ratio",
            ratio(sum("easia_med_prefetch_hits_total"), fed),
            "ratio",
        ),
        metric(
            "med.hub_writes_per_read",
            ratio(t.hub_writes_in_fed as f64, fed),
            "count",
        ),
        metric(
            "datalink.tokens_per_op",
            ratio(sum("easia_dlfm_tokens_issued_total"), ops as f64),
            "count",
        ),
        metric(
            "ops.cache_hit_ratio",
            ratio(t.op_cache_hits as f64, t.op_requests as f64),
            "ratio",
        ),
        metric("admission.shed", sum("easia_http_shed_total"), "count"),
        metric(
            "dlfm.links_per_commit",
            ratio(sum("easia_fs_links_total"), t.commits as f64),
            "count",
        ),
    ]
}

/// What [`reference_us`] takes on the machine the benchmark was tuned
/// on, in a quiet phase. Wall figures are reported at this speed.
const REFERENCE_NOMINAL_US: f64 = 1300.0;

/// Wall time (µs) of a fixed allocation- and pointer-heavy task that
/// uses the standard library only: the median of five runs.
///
/// Other tenants of the shared machine slow this program by up to 1.6x
/// in phases that often outlast a run. The slowdown tracks contention
/// for caches and memory, not CPU cycles: per-episode latency
/// correlated 0.65 with this task and 0.2 with an arithmetic loop. Each
/// episode's wall figures are therefore scaled by `REFERENCE_NOMINAL_US`
/// over the mean of this task's time right before and right after the
/// episode. The task shares no code with the program, so a change to
/// the program moves the scaled figures exactly as it moves the raw
/// ones; the raw figures are printed beside them.
fn reference_us() -> f64 {
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut m = BTreeMap::new();
            for i in 0..4000u64 {
                let key = format!("key{}", i.wrapping_mul(2_654_435_761) % 100_000);
                m.insert(key, vec![i; 4]);
            }
            let mut keys: Vec<&String> = m.keys().collect();
            keys.sort_by(|a, b| b.cmp(a));
            std::hint::black_box(keys.len());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&runs)
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["portal_mix", "fed_scan", "ingest_browse"];

/// Build `name`'s workload for `seed`; `traced` also builds the twin
/// archive replays run against.
fn build(name: &str, seed: u64, traced: bool) -> Box<dyn Workload> {
    match name {
        "portal_mix" => Box::new(portal::Portal::build(seed, traced)),
        "fed_scan" => Box::new(fedscan::FedScan::build(seed, traced)),
        "ingest_browse" => Box::new(ingest::Ingest::build(seed, traced)),
        _ => unreachable!("workload validated by the argument parser"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-check") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Some(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    }))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => std::process::exit(self_check()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    print!("{}", report.text);
    println!("{}", report.json);
    if !report.correct {
        std::process::exit(1);
    }
}

/// The samples of whole episodes and what they showed.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    /// Registry counter change over the window's episodes.
    diff: BTreeMap<String, f64>,
    /// Wall time (s) each episode spent in steps, less answer checks.
    busy: Vec<f64>,
    /// Scale from each episode's machine speed to the reference speed,
    /// measured right before and right after the episode.
    speeds: Vec<f64>,
    errors: Vec<String>,
}

/// Run one episode on the workload's current archive, then build the
/// next archive.
fn episode(w: &mut dyn Workload, tr: &mut Tracer, win: &mut Window) {
    let before = w.counters();
    let ref_before = reference_us();
    let mut out = Vec::new();
    let start = win.samples.len();
    let mut busy = 0.0;
    while win.samples.len() - start < w.episode_ops() {
        out.clear();
        let t0 = Instant::now();
        let checks = w.step(tr, &mut out);
        busy += t0.elapsed().saturating_sub(checks).as_secs_f64();
        win.samples.extend_from_slice(&out);
    }
    assert_eq!(
        win.samples.len() - start,
        w.episode_ops(),
        "an episode ends on a step boundary"
    );
    win.busy.push(busy);
    win.speeds
        .push(2.0 * REFERENCE_NOMINAL_US / (ref_before + reference_us()));
    win.errors.extend(w.finish_episode());
    for (k, v) in diff_counters(&before, &w.counters()) {
        *win.diff.entry(k).or_default() += v;
    }
    w.reset();
}

/// Run whole episodes until `secs` of wall time have passed.
fn measure(w: &mut dyn Workload, tr: &mut Tracer, secs: f64) -> Window {
    let start = Instant::now();
    let mut win = Window::default();
    while win.busy.is_empty() || start.elapsed().as_secs_f64() < secs {
        episode(w, tr, &mut win);
    }
    win
}

struct Report {
    text: String,
    json: String,
    correct: bool,
}

/// Wall-clock figures of a set of operations.
#[derive(Debug, Clone, Copy)]
struct Wall {
    ops_per_s: f64,
    p50: f64,
    p99: f64,
    key_p50: f64,
    key_p99: f64,
}

impl Wall {
    fn of(samples: &[Sample], busy_s: f64) -> Wall {
        let times = |key_only: bool| {
            sorted(
                &samples
                    .iter()
                    .filter(|s| s.key || !key_only)
                    .map(|s| s.wall_us)
                    .collect::<Vec<_>>(),
            )
        };
        let (all, key) = (times(false), times(true));
        Wall {
            ops_per_s: ratio(samples.len() as f64, busy_s),
            p50: percentile(&all, 0.5),
            p99: percentile(&all, 0.99),
            key_p50: percentile(&key, 0.5),
            key_p99: percentile(&key, 0.99),
        }
    }
}

/// A window's wall figures: each one per episode, scaled by the
/// episode's speed factor when `scale` is set, then the median across
/// episodes.
fn wall_metrics(win: &Window, scale: bool) -> Wall {
    let per_episode = win.samples.len() / win.busy.len().max(1);
    let eps: Vec<Wall> = win
        .samples
        .chunks(per_episode.max(1))
        .zip(win.busy.iter().zip(&win.speeds))
        .map(|(samples, (&busy, &speed))| {
            let f = if scale { speed } else { 1.0 };
            let w = Wall::of(samples, busy);
            Wall {
                ops_per_s: w.ops_per_s / f,
                p50: w.p50 * f,
                p99: w.p99 * f,
                key_p50: w.key_p50 * f,
                key_p99: w.key_p99 * f,
            }
        })
        .collect();
    let pick = |f: fn(&Wall) -> f64| median(&eps.iter().map(f).collect::<Vec<_>>());
    Wall {
        ops_per_s: pick(|w| w.ops_per_s),
        p50: pick(|w| w.p50),
        p99: pick(|w| w.p99),
        key_p50: pick(|w| w.key_p50),
        key_p99: pick(|w| w.key_p99),
    }
}

fn run(args: &Args) -> Report {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut w = build(&args.workload, args.seed, args.trace);
    let mut off = Tracer::new(false);

    // The first episode warms the process up and fixes the sim-time
    // figures: the same seed gives the same episode, bit for bit.
    let mut first = Window::default();
    episode(w.as_mut(), &mut off, &mut first);
    let sim = sorted(&first.samples.iter().map(|s| s.sim_s).collect::<Vec<_>>());
    let wan_per_op =
        first.samples.iter().map(|s| s.wan_bytes).sum::<f64>() / first.samples.len() as f64;
    let digest = determinism_digest(&sim, wan_per_op, &first.diff);

    let (untraced, traced) = if args.trace {
        let plain = measure(w.as_mut(), &mut off, args.seconds / 2.0);
        let mut on = Tracer::new(true);
        let t = measure(w.as_mut(), &mut on, args.seconds / 2.0);
        (plain, Some((t, on)))
    } else {
        (measure(w.as_mut(), &mut off, args.seconds), None)
    };

    let windows: Vec<&Window> = std::iter::once(&first)
        .chain(std::iter::once(&untraced))
        .chain(traced.as_ref().map(|(t, _)| t))
        .collect();
    let attempted: usize = windows.iter().map(|w| w.samples.len()).sum();
    let failed = windows
        .iter()
        .flat_map(|w| &w.samples)
        .filter(|s| !s.ok)
        .count();
    let errors: Vec<&String> = windows.iter().flat_map(|w| &w.errors).collect();
    let correct = failed == 0 && errors.is_empty();
    for e in &errors {
        let _ = writeln!(text, "# CHECK FAILED: {e}");
    }
    let wall = wall_metrics(&untraced, true);
    let raw = wall_metrics(&untraced, false);
    let speed = median(
        &windows
            .iter()
            .flat_map(|w| w.speeds.iter().copied())
            .collect::<Vec<_>>(),
    );
    let shed: f64 = windows
        .iter()
        .map(|w| family_sum(&w.diff, "easia_http_shed_total"))
        .sum();
    let setup = w.build_secs();
    let _ = writeln!(
        text,
        "# episodes={} episode_ops={} samples={} key_samples={} archive_builds={}",
        untraced.busy.len(),
        w.episode_ops(),
        untraced.samples.len(),
        untraced.samples.iter().filter(|s| s.key).count(),
        setup.len()
    );
    let _ = writeln!(text, "# determinism digest={digest}");

    let json_metrics: Vec<Metric> = match traced {
        None => {
            let e2e = vec![
                metric("setup_s", median(setup) * speed, "s"),
                metric("ops_per_s", wall.ops_per_s, "1/s"),
                metric("p50_us", wall.p50, "us"),
                metric("p99_us", wall.p99, "us"),
                metric("key_p50_us", wall.key_p50, "us"),
                metric("key_p99_us", wall.key_p99, "us"),
                metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
            ];
            // The key class under its own name, and figures that
            // exist only on some workloads or are 0 by construction:
            // printed for readers, left out of the JSON summary.
            let (lo, hi) = match args.workload.as_str() {
                "ingest_browse" => ("write_p50_us", "write_p99_us"),
                _ => ("scan_p50_us", "scan_p99_us"),
            };
            let extra = [
                metric(lo, wall.key_p50, "us"),
                metric(hi, wall.key_p99, "us"),
                metric(
                    "failed_ratio",
                    ratio(failed as f64, attempted as f64),
                    "ratio",
                ),
                metric("sim_p50_s", percentile(&sim, 0.5), "s"),
                metric("sim_p99_s", percentile(&sim, 0.99), "s"),
                metric("wan_bytes_per_op", wan_per_op, "B"),
                metric("admission_shed", shed, "count"),
                metric("raw_setup_s", median(setup), "s"),
                metric("raw_ops_per_s", raw.ops_per_s, "1/s"),
                metric("raw_p50_us", raw.p50, "us"),
                metric("raw_p99_us", raw.p99, "us"),
                metric("raw_key_p50_us", raw.key_p50, "us"),
                metric("raw_key_p99_us", raw.key_p99, "us"),
                metric("speed_scale", speed, "ratio"),
            ];
            for m in e2e.iter().chain(&extra) {
                let _ = writeln!(text, "metric {} {} {}", m.name, m.value, m.unit);
            }
            e2e
        }
        Some((t, tr)) => {
            // Per-layer metrics every workload reports make up the JSON
            // summary; workload-specific ones are printed only.
            let traced_p50 = wall_metrics(&t, true).p50;
            let overhead = traced_p50 - wall.p50;
            let mut summary = universal_layers(&tr, &t.diff, t.samples.len(), &w.tallies());
            summary.push(metric(
                "trace.overhead_share",
                ratio(overhead, wall.p50),
                "ratio",
            ));
            let mut specific = w.layers(&tr);
            specific.push(metric("trace.overhead_us", overhead, "us"));
            for m in summary.iter().chain(&specific) {
                let _ = writeln!(text, "metric {} {} {}", m.name, m.value, m.unit);
            }
            write_trace_files(&args.workload, &tr, &t.diff);
            summary
        }
    };
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in json_metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    Report {
        text,
        json,
        correct,
    }
}

/// JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Hash of the sim-time figures and counters of the first episode.
fn determinism_digest(sim: &[f64], wan_per_op: f64, diff: &BTreeMap<String, f64>) -> String {
    use easia_crypto::sha256::{hex, sha256};
    let mut s = String::new();
    for v in sim {
        let _ = writeln!(s, "{}", v.to_bits());
    }
    let _ = writeln!(s, "{}", wan_per_op.to_bits());
    for (k, v) in diff {
        let _ = writeln!(s, "{k} {}", v.to_bits());
    }
    hex(&sha256(s.as_bytes()))
}

/// Write the traced run's spans and counter diff under `out/` in the
/// benchmark's directory.
fn write_trace_files(workload: &str, tr: &Tracer, diff: &BTreeMap<String, f64>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut counters = String::new();
    for (k, v) in diff {
        let _ = writeln!(counters, "{k} {v}");
    }
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("trace-{workload}.tsv")), tr.render()))
        .and_then(|()| std::fs::write(dir.join(format!("counters-{workload}.txt")), counters));
    if let Err(e) = res {
        eprintln!("perfbench: could not write trace files: {e}");
    }
}

/// Determinism self-check, on one episode of every workload: the same
/// seed twice gives identical generated inputs, sim-time figures and
/// registry counters; another seed gives different inputs with the same
/// operation-mix shares. Returns the process exit code.
fn self_check() -> i32 {
    let mut failures = 0;
    for name in WORKLOADS {
        let a = fingerprint(name, 7);
        let b = fingerprint(name, 7);
        let c = fingerprint(name, 8);
        let same = a == b;
        let differs = a.inputs != c.inputs;
        // Shares are drawn per operation, so another seed matches the
        // mix to within sampling noise, not exactly.
        let shares = a.shares.len() == c.shares.len()
            && a.shares
                .iter()
                .zip(&c.shares)
                .all(|((ka, va), (kc, vc))| ka == kc && (va - vc).abs() <= 0.03);
        println!(
            "self-check {name}: same-seed identical={same} other-seed inputs differ={differs} \
             mix shares equal={shares} shares={:?}",
            a.shares
        );
        failures += usize::from(!same) + usize::from(!differs) + usize::from(!shares);
    }
    if failures == 0 {
        println!("self-check passed");
        0
    } else {
        println!("self-check FAILED ({failures})");
        1
    }
}

/// Everything a seed determines about a workload's first episode.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    inputs: String,
    shares: BTreeMap<String, f64>,
    sim_bits: Vec<u64>,
    counters: BTreeMap<String, u64>,
}

fn fingerprint(name: &str, seed: u64) -> Fingerprint {
    let (inputs, shares) = match name {
        "portal_mix" => portal::describe_inputs(seed),
        "fed_scan" => fedscan::describe_inputs(seed),
        _ => ingest::describe_inputs(seed),
    };
    let mut w = build(name, seed, false);
    let mut win = Window::default();
    episode(w.as_mut(), &mut Tracer::new(false), &mut win);
    Fingerprint {
        inputs,
        shares,
        sim_bits: win
            .samples
            .iter()
            .flat_map(|s| [s.sim_s.to_bits(), s.wan_bytes.to_bits()])
            .collect(),
        counters: win
            .diff
            .into_iter()
            .map(|(k, v)| (k, v.to_bits()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn determinism_self_check_passes() {
        assert_eq!(super::self_check(), 0);
    }
}
