//! `peel_bounded`: `Peeler::detect_all_with_stats` on the bounded
//! synthetic regime (100-d, `a* <= P`, mostly noise) with two workers.
//! Some fifteen thousand near-singleton detections with almost no
//! kernel or LID work: the time goes to LSH hashing, tombstones,
//! peel-round bookkeeping and exec dispatch of tiny jobs.

use std::time::{Duration, Instant};

use alid_affinity::cost::CostModel;
use alid_affinity::vector::Dataset;
use alid_bench::RunCfg;
use alid_core::Peeler;
use alid_data::groundtruth::LabeledDataset;
use alid_data::synthetic::{generate, Regime, SyntheticConfig};
use alid_exec::ExecPolicy;
use alid_lsh::LshIndex;
use serde::Serialize;

use crate::batch::{result_reads, same_output, Repeats};
use crate::layers;
use crate::report::{Ctx, Outcome, WORKERS};
use crate::stats::{delta, global_samples, median};
use crate::trace::Tracer;

/// Items in the input. A repeat (set-up plus detection call) takes
/// about 1.2 s on a two-CPU host, so a run of 25 s holds the
/// `MIN_CALLS` measured calls that `ingest_p95_ms` needs.
pub const ITEMS: usize = 16_000;
/// Measured detection calls per run, whatever `--seconds` says: with 20
/// or more, the nearest-rank p95 is not the slowest call.
const MIN_CALLS: usize = 20;
/// The regime's cap on the positive items (20 clusters of `P / 20`).
const P_CAP: usize = 1_000;
/// Inputs drawn from one `--seed`; the repeats take them in turn. The
/// cost-model peak is that of the largest detections, whose sizes
/// follow the input by a fifth; the median over several inputs does
/// not.
const INPUTS: usize = 4;

/// Input `i` of the run with seed `seed`: distinct seeds never share
/// an input.
fn input(seed: u64, i: usize) -> LabeledDataset {
    generate(&SyntheticConfig::paper(
        ITEMS,
        Regime::Bounded { p: P_CAP },
        seed * INPUTS as u64 + i as u64,
    ))
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let gen = input(ctx.seed, 0);
    let dim = gen.data.dim();
    let cfg = RunCfg::default().with_exec(ExecPolicy::workers(WORKERS));
    let params = cfg.alid_params(&gen);
    out.facts.extend([
        ("items", ITEMS.to_json()),
        ("inputs", INPUTS.to_json()),
        ("dim", dim.to_json()),
        ("clusters", gen.truth.cluster_count().to_json()),
        ("noise_items", gen.truth.noise_count().to_json()),
        ("workers", WORKERS.to_json()),
    ]);
    // Set-up is the data set plus `Peeler::new` (which builds the LSH
    // index); the peeler is consumed by the detection call, so every
    // repeat sets up afresh and `setup_s` is the median.
    if tr.on() {
        let ds = Dataset::from_rows(dim, gen.data.iter());
        let peeler = Peeler::new(&ds, params, CostModel::shared());
        let t = Instant::now();
        let (untraced, _) = peeler.detect_all_with_stats();
        let untraced_s = t.elapsed().as_secs_f64();

        alid_obs::trace::enable(alid_obs::trace::DEFAULT_CAPACITY);
        tr.span("run", 0, |root| {
            let cost = CostModel::shared();
            let t = Instant::now();
            let peeler = tr.span("peeler_new", root, |_| Peeler::new(&ds, params, cost.clone()));
            let build_s = t.elapsed().as_secs_f64();
            let aux_after_build = cost.snapshot().aux_bytes;
            let before = global_samples();
            let t = Instant::now();
            let (clustering, stats) =
                tr.span("detect_all_with_stats", root, |_| peeler.detect_all_with_stats());
            let wall = t.elapsed().as_secs_f64();
            layers::exec(&mut out, &delta(&before, &global_samples()));
            let snap = cost.snapshot();
            layers::affinity(&mut out, &snap, aux_after_build);
            let mut reps = Repeats::default();
            reps.record(0, wall, snap.peak_mib(), &clustering, &cfg, &gen.truth);
            reps.finish(&mut out, ctx, ITEMS);
            same_output(&mut out, "untraced run", reps.digests[0], &untraced);

            out.layer("peel.rounds", stats.rounds.len() as f64);
            out.layer("peel.speculated", stats.speculated as f64);
            out.layer("peel.accepted", stats.accepted as f64);
            out.layer("peel.wasted", stats.wasted() as f64);
            if stats.speculated > 0 {
                out.layer("peel.useful_frac", stats.accepted as f64 / stats.speculated as f64);
            }
            if !stats.rounds.is_empty() {
                out.layer("peel.mean_width", stats.mean_width());
            }
            // The replay index is built with every item alive, as the
            // peeler's index is before its first round.
            let index = tr.span("lsh_build", root, |_| {
                LshIndex::build(&ds, params.lsh, &CostModel::shared())
            });
            tr.span("multi_query", root, |_| {
                let supports = clustering.clusters.iter().map(|c| c.members.as_slice());
                layers::lsh(&mut out, &ds, &index, build_s, aux_after_build, supports);
            });
            out.layer("bench.trace_overhead_frac", untraced_s / wall);
        });
        return out;
    }

    // One untimed repeat first: the first call pays the page faults of
    // the allocations the later ones reuse.
    Peeler::new(&Dataset::from_rows(dim, gen.data.iter()), params, CostModel::shared())
        .detect_all_with_stats();
    drop(gen);
    let mut reps = Repeats::default();
    let mut setup = Vec::new();
    let started = Instant::now();
    let mut last = Duration::ZERO;
    while ctx.another(started, reps.walls.len(), last, MIN_CALLS) {
        let repeat = Instant::now();
        let i = reps.walls.len() % INPUTS;
        let gen = input(ctx.seed, i);
        let params = cfg.alid_params(&gen);
        let cost = CostModel::shared();
        let t = Instant::now();
        let ds = Dataset::from_rows(dim, gen.data.iter());
        let peeler = Peeler::new(&ds, params, cost.clone());
        setup.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (clustering, _) = peeler.detect_all_with_stats();
        let wall = t.elapsed().as_secs_f64();
        reps.record(i, wall, cost.snapshot().peak_mib(), &clustering, &cfg, &gen.truth);
        reps.queries.extend(result_reads(&clustering, &cfg));
        last = repeat.elapsed();
    }
    out.e2e.insert("setup_s", median(&setup));
    reps.finish(&mut out, ctx, ITEMS);
    out
}
