//! Order statistics, process memory and small parsing helpers shared
//! by the workloads.

use std::collections::BTreeMap;

/// Median of `v` (mean of the two middle values for even lengths);
/// NaN for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// A latency percentile with the sample count it rests on.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    /// The value at the requested percentile (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `v`.
pub fn percentile(v: &[f64], q: f64) -> Pct {
    if v.is_empty() {
        return Pct { value: f64::NAN, samples: 0, beyond: 0 };
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    Pct { value: s[rank - 1], samples: s.len(), beyond: s.len() - rank }
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set, so that the next workload of `--workload all` reports
/// its own peak rather than that of the workloads before it. Heap pages
/// the allocator still holds after an earlier workload are handed back
/// first, or they would count in the next workload's peak.
pub fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointers and only returns
    // free heap pages to the kernel.
    unsafe { malloc_trim(0) };
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("could not reset the peak resident set: {e}");
    }
}

/// Peak resident set of this process in MiB (`VmHWM` of
/// `/proc/self/status`) since the last [`reset_peak_rss`]; NaN when it
/// cannot be read.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Parses Prometheus text exposition into `series -> value`, keeping
/// each series' label set in its key (`name{k="v"}`).
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `after - before` per series (a series missing before counts from 0).
pub fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after.iter().map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0))).collect()
}

/// The process-global `alid-obs` registry as `series -> value`.
pub fn global_samples() -> BTreeMap<String, f64> {
    alid_obs::global().snapshot_samples().into_iter().map(|s| (s.series, s.value)).collect()
}

/// FNV-1a over a canonical form of a clustering's member lists: each
/// cluster's members sorted, the lists sorted. Equal digests mean equal
/// member sets, independent of cluster order.
pub fn digest(clusters: impl IntoIterator<Item = Vec<u64>>) -> u64 {
    let mut lists: Vec<Vec<u64>> = clusters
        .into_iter()
        .map(|mut m| {
            m.sort_unstable();
            m
        })
        .collect();
    lists.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(lists.len() as u64);
    for l in &lists {
        eat(l.len() as u64);
        l.iter().for_each(|&m| eat(m));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p = percentile(&v, 0.95);
        assert_eq!((p.value, p.samples, p.beyond), (190.0, 200, 10));
        assert_eq!(percentile(&[5.0, 1.0], 0.95).value, 5.0);
    }

    #[test]
    fn digest_ignores_order_only() {
        let a = digest(vec![vec![3, 1], vec![7]]);
        assert_eq!(a, digest(vec![vec![7], vec![1, 3]]));
        assert_ne!(a, digest(vec![vec![1, 3, 7]]));
    }

    #[test]
    fn exposition_parses_labelled_series() {
        let m = parse_exposition("# HELP x y\nx_total 3\nh_sum{path=\"/ingest\"} 0.5\n");
        assert_eq!(m["x_total"], 3.0);
        assert_eq!(m["h_sum{path=\"/ingest\"}"], 0.5);
    }

    #[test]
    fn rss_is_positive_after_a_reset() {
        reset_peak_rss();
        assert!(peak_rss_mib() > 0.0);
    }
}
