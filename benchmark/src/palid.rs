//! `palid_sift`: `palid_detect` on the SIFT simulator with two
//! executors. Detection-bound: inside each mapper's CIVS the LSH
//! multi-query dominates, with LID and the Eq. 17 rows next.

use std::time::{Duration, Instant};

use alid_affinity::cost::CostModel;
use alid_affinity::vector::Dataset;
use alid_bench::RunCfg;
use alid_core::seeding::sample_seeds;
use alid_core::{detect_one, palid_detect, AlidParams, PalidParams};
use alid_data::sift::{sift, SiftConfig};
use alid_exec::ExecPolicy;
use alid_lsh::LshIndex;
use serde::Serialize;

use crate::batch::{point_queries, same_output, Repeats};
use crate::layers;
use crate::report::{Ctx, Outcome, WORKERS};
use crate::stats::{delta, global_samples, median, percentile};
use crate::trace::Tracer;

/// Descriptors in the input (128-d, 60% noise, visual words of ~100).
pub const ITEMS: usize = 3_000;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 100;

pub fn run(ctx: &Ctx, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let gen = sift(&SiftConfig::scaled(ITEMS, ctx.seed));
    let dim = gen.data.dim();
    let cfg = RunCfg::default().with_exec(ExecPolicy::workers(WORKERS));
    out.facts.extend([
        ("items", ITEMS.to_json()),
        ("dim", dim.to_json()),
        ("visual_words", gen.truth.cluster_count().to_json()),
        ("noise_items", gen.truth.noise_count().to_json()),
        ("executors", WORKERS.to_json()),
    ]);

    // Set-up: build the data set from the generated rows and calibrate
    // the parameters.
    let mut setup = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let ds = Dataset::from_rows(dim, gen.data.iter());
        let params = cfg.alid_params(&gen);
        setup.push(t.elapsed().as_secs_f64());
        built = Some((ds, params));
    }
    let (ds, params) = built.expect("SETUPS >= 1");
    out.e2e.insert("setup_s", median(&setup));
    let pp = PalidParams::with_executors(WORKERS);

    if tr.on() {
        traced(ctx, tr, &mut out, &ds, &params, &pp, &cfg, &gen.truth);
        return out;
    }
    let mut reps = Repeats::default();
    let started = Instant::now();
    let mut last = Duration::ZERO;
    while ctx.another(started, reps.walls.len(), last, 2) {
        let cost = CostModel::shared();
        let t = Instant::now();
        let clustering = palid_detect(&ds, &params, &pp, &cost);
        let wall = t.elapsed().as_secs_f64();
        reps.record(0, wall, cost.snapshot().peak_mib(), &clustering, &cfg, &gen.truth);
        last = t.elapsed();
    }
    reps.queries = point_queries(&ds, &params);
    reps.finish(&mut out, ctx, ITEMS);
    let one = palid_detect(&ds, &params, &one_executor(&pp), &CostModel::shared());
    same_output(&mut out, "1 executor", reps.digests[0], &one);
    out
}

/// The same parameters on one executor.
fn one_executor(pp: &PalidParams) -> PalidParams {
    PalidParams { exec: ExecPolicy::workers(1), ..*pp }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    tr: &Tracer,
    out: &mut Outcome,
    ds: &Dataset,
    params: &AlidParams,
    pp: &PalidParams,
    cfg: &RunCfg,
    truth: &alid_data::groundtruth::GroundTruth,
) {
    let t = Instant::now();
    let untraced = palid_detect(ds, params, pp, &CostModel::shared());
    let untraced_s = t.elapsed().as_secs_f64();

    alid_obs::trace::enable(alid_obs::trace::DEFAULT_CAPACITY);
    tr.span("run", 0, |root| {
        let cost = CostModel::shared();
        let before = global_samples();
        let t = Instant::now();
        let clustering = tr.span("palid_detect", root, |_| palid_detect(ds, params, pp, &cost));
        let wall2 = t.elapsed().as_secs_f64();
        layers::exec(out, &delta(&before, &global_samples()));
        let snap = cost.snapshot();
        layers::affinity(out, &snap, 0);
        let mut reps = Repeats::default();
        reps.record(0, wall2, snap.peak_mib(), &clustering, cfg, truth);
        reps.finish(out, ctx, ITEMS);
        same_output(out, "untraced run", reps.digests[0], &untraced);

        let t = Instant::now();
        let one = tr.span("palid_detect_1exec", root, |_| {
            palid_detect(ds, params, &one_executor(pp), &CostModel::shared())
        });
        let wall1 = t.elapsed().as_secs_f64();
        same_output(out, "1 executor", reps.digests[0], &one);

        // The map phase taken apart on one thread: build, sampling and
        // one `detect_one` per seed, as `palid_detect` runs them.
        let dcost = CostModel::shared();
        let t = Instant::now();
        let index = tr.span("lsh_build", root, |_| LshIndex::build(ds, params.lsh, &dcost));
        let build_s = t.elapsed().as_secs_f64();
        let aux_after_build = dcost.snapshot().aux_bytes;
        let t = Instant::now();
        let mut seeds = tr.span("sample_seeds", root, |_| {
            sample_seeds(&index, pp.min_bucket, pp.sample_rate, pp.seed)
        });
        let sample_s = t.elapsed().as_secs_f64();
        if seeds.is_empty() {
            seeds = (0..ds.len() as u32).collect();
        }
        let mut outcomes = Vec::with_capacity(seeds.len());
        let mut det_ms = Vec::with_capacity(seeds.len());
        for &seed in &seeds {
            let t = Instant::now();
            outcomes.push(
                tr.span("detect_one", root, |_| detect_one(ds, params, &index, seed, &dcost)),
            );
            det_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        tr.span("multi_query", root, |_| {
            let supports = outcomes.iter().map(|o| o.cluster.members.as_slice());
            layers::lsh(out, ds, &index, build_s, aux_after_build, supports);
        });

        out.layer("seeding.seeds", seeds.len() as f64);
        out.layer("seeding.sample_s", sample_s);
        let n = outcomes.len() as f64;
        out.layer("alid.detections", n);
        out.layer("alid.detect_ms_p50", percentile(&det_ms, 0.50).value);
        out.layer("alid.detect_ms_p99", percentile(&det_ms, 0.99).value);
        out.layer("alid.iterations", outcomes.iter().map(|o| o.iterations as f64).sum());
        out.layer("alid.lid_iterations", outcomes.iter().map(|o| o.lid_iterations as f64).sum());
        out.layer(
            "alid.capped_frac",
            outcomes.iter().filter(|o| !o.converged_globally).count() as f64 / n,
        );
        out.layer(
            "alid.touched_per_detection",
            outcomes.iter().map(|o| o.touched.len() as f64).sum::<f64>() / n,
        );
        out.notes.push(format!("alid.detect_ms percentiles over {} detections", det_ms.len()));
        out.layer("palid.serial_s", build_s + sample_s);
        out.layer("palid.speedup", wall1 / wall2);
        out.layer("bench.trace_overhead_frac", untraced_s / wall2);
    });
    let map_s = crate::trace::self_times(&tr.spans()).get("detect_one").map_or(0.0, |t| t.2);
    out.layer("palid.map_s", map_s);
}
