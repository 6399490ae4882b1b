//! Measurement shared by the two batch workloads (`palid_sift`,
//! `peel_bounded`): repeated detection calls on one input, point
//! queries after them, and the output checks.
//!
//! For a batch workload the "ingest" latency is one detection call
//! (input handed in, clusters back). The "query" latency is, on
//! `palid_sift`, one point query ("the dominant cluster around item i":
//! a `detect_one` from an item in a dense region against an index of the
//! whole input) and, on `peel_bounded`, one read of the result (the
//! dominant-cluster selection and its per-item labels). Point queries on
//! the bounded regime's small clusters spread by a quarter from run to
//! run, more than the bound allows; reads of its 63000-cluster result do
//! not.

use std::hint::black_box;
use std::time::Instant;

use alid_affinity::clustering::Clustering;
use alid_affinity::cost::CostModel;
use alid_affinity::vector::Dataset;
use alid_bench::RunCfg;
use alid_core::seeding::sample_seeds;
use alid_core::{detect_one, AlidParams, PalidParams};
use alid_data::groundtruth::GroundTruth;
use alid_data::metrics::avg_f1;
use alid_lsh::LshIndex;

use crate::layers::member_lists;
use crate::report::{Ctx, Outcome};
use crate::stats::{digest, median, peak_rss_mib, percentile};

/// Point queries per run.
const POINT_QUERIES: usize = 128;
/// Result-read samples per detection call; each is the mean of
/// `READS_PER_SAMPLE` consecutive reads.
const READ_SAMPLES: usize = 32;
const READS_PER_SAMPLE: u32 = 32;

/// What the measured repeats collected.
#[derive(Default)]
pub struct Repeats {
    /// Detection-call wall times, seconds.
    pub walls: Vec<f64>,
    /// Query latencies, milliseconds.
    pub queries: Vec<f64>,
    /// Cost-model peaks, MiB.
    pub peaks: Vec<f64>,
    pub digests: Vec<u64>,
    pub avg_f: Vec<f64>,
    /// Which of the run's inputs each repeat ran on.
    pub inputs: Vec<usize>,
}

impl Repeats {
    /// Records one repeat's detection output on input `input`: scores
    /// and digests it.
    pub fn record(
        &mut self,
        input: usize,
        wall_s: f64,
        peak_mib: f64,
        out: &Clustering,
        cfg: &RunCfg,
        truth: &GroundTruth,
    ) {
        let dominant = out.dominant(cfg.dominant_density, cfg.dominant_min_size);
        self.walls.push(wall_s);
        self.peaks.push(peak_mib);
        self.avg_f.push(avg_f1(truth, &dominant));
        self.digests.push(digest(member_lists(out)));
        self.inputs.push(input);
    }

    /// Fills the end-to-end metrics and checks every repeat: its AVG-F
    /// reaches the reference and its digest equals that of the first
    /// repeat on the same input.
    pub fn finish(&self, out: &mut Outcome, ctx: &Ctx, items: usize) {
        let wall_ms: Vec<f64> = self.walls.iter().map(|w| w * 1e3).collect();
        out.e2e.insert("items_per_s", items as f64 / median(&self.walls));
        out.pct("ingest_p50_ms", percentile(&wall_ms, 0.50));
        out.pct("ingest_p95_ms", percentile(&wall_ms, 0.95));
        out.pct("query_p50_ms", percentile(&self.queries, 0.50));
        out.pct("query_p90_ms", percentile(&self.queries, 0.90));
        out.e2e.insert("avg_f", median(&self.avg_f));
        out.e2e.insert("peak_mib", median(&self.peaks));
        out.e2e.insert("rss_mib", peak_rss_mib());
        let walls: Vec<String> = self.walls.iter().map(|w| format!("{w:.3}")).collect();
        out.notes.push(format!("detection-call walls (s), in order: {}", walls.join(" ")));
        for (i, (&d, &f)) in self.digests.iter().zip(&self.avg_f).enumerate() {
            let first = self.inputs.iter().position(|&x| x == self.inputs[i]).expect("recorded");
            let ok = d == self.digests[first] && f >= ctx.avg_f_reference;
            out.attempted += 1;
            out.failed += u64::from(!ok);
            out.check(
                format!("repeat {i}"),
                ok,
                format!(
                    "input {}, digest {d:016x}, AVG-F {f:.4} (reference {})",
                    self.inputs[i], ctx.avg_f_reference
                ),
            );
        }
    }
}

/// Times one `detect_one` from each of the first `POINT_QUERIES` items
/// PALID's seed sampling picks from the large LSH buckets (items in dense
/// regions, with PALID's default sampling parameters), against an index
/// of `ds` built beforehand (untimed).
pub fn point_queries(ds: &Dataset, params: &AlidParams) -> Vec<f64> {
    let cost = CostModel::shared();
    let index = LshIndex::build(ds, params.lsh, &cost);
    let pp = PalidParams::with_executors(1);
    let seeds = sample_seeds(&index, pp.min_bucket, pp.sample_rate, pp.seed);
    seeds
        .iter()
        .take(POINT_QUERIES)
        .map(|&i| {
            let t = Instant::now();
            black_box(detect_one(ds, params, &index, i, &cost));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect()
}

/// Times reads of a detection output: the dominant-cluster selection
/// and the per-item labels of the selection.
pub fn result_reads(out: &Clustering, cfg: &RunCfg) -> Vec<f64> {
    (0..READ_SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..READS_PER_SAMPLE {
                let d = black_box(out.dominant(cfg.dominant_density, cfg.dominant_min_size));
                black_box(d.labels());
            }
            t.elapsed().as_secs_f64() * 1e3 / f64::from(READS_PER_SAMPLE)
        })
        .collect()
}

/// A run outside the measured repeats whose clustering must equal the
/// reference digest (another executor count, or the untraced run).
pub fn same_output(out: &mut Outcome, name: &str, reference: u64, other: &Clustering) {
    let d = digest(member_lists(other));
    out.attempted += 1;
    out.failed += u64::from(d != reference);
    out.check(name, d == reference, format!("digest {d:016x}, expected {reference:016x}"));
}
