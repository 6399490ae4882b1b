//! Per-layer readings shared by the workloads: counters the program
//! already exposes, and the LSH query replay.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use alid_affinity::clustering::Clustering;
use alid_affinity::cost::CostSnapshot;
use alid_affinity::vector::Dataset;
use alid_lsh::LshIndex;

use crate::report::{Outcome, WORKERS};

const MIB: f64 = 1024.0 * 1024.0;

/// `exec.*` from a delta of the global registry around the measured call.
pub fn exec(out: &mut Outcome, d: &BTreeMap<String, f64>) {
    let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let busy = get("alid_exec_job_seconds_sum");
    let phase = get("alid_exec_phase_seconds_sum");
    out.layer("exec.jobs", get("alid_exec_jobs_total"));
    out.layer("exec.phases", get("alid_exec_phases_total"));
    out.layer("exec.steals", get("alid_exec_queue_help_steals_total"));
    out.layer("exec.parks", get("alid_exec_parks_total"));
    out.layer("exec.busy_s", busy);
    out.layer("exec.phase_s", phase);
    if phase > 0.0 {
        out.layer("exec.utilization", busy / (phase * WORKERS as f64));
    }
}

/// `affinity.*` from the cost model of the measured call. Auxiliary
/// bytes only shrink through tombstone compaction, so their high-water
/// mark is the larger of the reading after the index build and the
/// final one.
pub fn affinity(out: &mut Outcome, snap: &CostSnapshot, aux_after_build: u64) {
    out.layer("affinity.kernel_evals", snap.kernel_evals as f64);
    out.layer("affinity.entries_peak", snap.entries_peak as f64);
    out.layer("affinity.aux_bytes_peak", snap.aux_bytes.max(aux_after_build) as f64);
}

/// `lsh.*`: build time and auxiliary size of an index, and
/// `multi_query` replayed with each detected support as the query set
/// (the query mix CIVS issues).
pub fn lsh<'a>(
    out: &mut Outcome,
    ds: &Dataset,
    index: &LshIndex,
    build_s: f64,
    aux_bytes: u64,
    supports: impl IntoIterator<Item = &'a [u32]>,
) {
    let (mut vectors, mut hits, mut nanos) = (0usize, 0usize, 0u128);
    for support in supports {
        let queries: Vec<&[f64]> = support.iter().map(|&m| ds.get(m as usize)).collect();
        let t = Instant::now();
        let found = black_box(index.multi_query(black_box(queries.iter().copied())));
        nanos += t.elapsed().as_nanos();
        vectors += queries.len();
        hits += found.len();
    }
    out.layer("lsh.build_s", build_s);
    out.layer("lsh.aux_mib", aux_bytes as f64 / MIB);
    if vectors > 0 {
        out.layer("lsh.query_ns", nanos as f64 / vectors as f64);
        out.layer("lsh.hits_per_query", hits as f64 / vectors as f64);
    }
}

/// Member lists of a clustering, for digests.
pub fn member_lists(c: &Clustering) -> Vec<Vec<u64>> {
    c.clusters.iter().map(|k| k.members.iter().map(|&m| u64::from(m)).collect()).collect()
}
