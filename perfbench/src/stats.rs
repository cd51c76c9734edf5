//! Order statistics, counter diffs and process memory.

use std::collections::BTreeMap;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Sort a copy ascending.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted slice (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v), 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Least-squares slope of `y` against `x` (0 for fewer than two
/// distinct x values).
pub fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    if points.len() < 2 {
        return 0.0;
    }
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    ratio(sxy, sxx)
}

/// Every counter and gauge sample of a Prometheus text exposition,
/// keyed by series (name plus label block). Histogram buckets are kept
/// too: they are plain samples in the text format.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Per-series difference `after - before`, dropping series that did
/// not move. Gauges appear as their change over the window.
pub fn diff_counters(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .filter_map(|(k, v)| {
            let d = v - before.get(k).copied().unwrap_or(0.0);
            (d != 0.0).then(|| (k.clone(), d))
        })
        .collect()
}

/// Sum of every series of `family` (all label sets) in a diff.
pub fn family_sum(diff: &BTreeMap<String, f64>, family: &str) -> f64 {
    diff.iter()
        .filter(|(k, _)| {
            k.strip_prefix(family)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
        })
        .map(|(_, v)| v)
        .sum::<f64>()
        + 0.0 // an empty sum is -0.0
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_slope() {
        let v = sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        let line: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 1.0)).collect();
        assert!((slope(&line) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exposition_diff_sums_families() {
        let a = parse_exposition("# HELP x y\nx_total{k=\"a\"} 1\nx_total{k=\"b\"} 2\nxy 5\n");
        let b = parse_exposition("x_total{k=\"a\"} 4\nx_total{k=\"b\"} 2\nxy 6\n");
        let d = diff_counters(&a, &b);
        assert_eq!(d.len(), 2);
        assert_eq!(family_sum(&d, "x_total"), 3.0);
        assert_eq!(family_sum(&d, "xy"), 1.0);
    }
}
