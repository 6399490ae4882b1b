//! The ALID benchmark: three workloads from one process, each checked
//! for correct output, reporting end-to-end metrics with tracing off
//! and per-layer metrics from a separate traced run.
//!
//! ```text
//! alid-benchmark --workload <palid_sift|peel_bounded|served_ingest|all>
//!                [--seed <n>] [--seconds <n>] [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: every `end_to_end`
//! metric of `BENCHMARK.json` with `--trace 0`, every `per_layer` one
//! with `--trace 1`. Above it comes a readable report (units, sample
//! counts, checks, provenance). Results and span files go under
//! `.bench_out/`. The exit code is 1 when an output check failed.

mod batch;
mod layers;
mod palid;
mod peel;
mod report;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::{Json, Serialize};

use report::{Ctx, Outcome};
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["palid_sift", "peel_bounded", "served_ingest"];
const OUT_DIR: &str = ".bench_out";

/// Metric names and units from `BENCHMARK.json`, plus the seeds and
/// AVG-F references from `meta.json`.
struct Catalog {
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
    run_seconds: f64,
    default_seed: u64,
    avg_f_reference: BTreeMap<String, f64>,
}

impl Catalog {
    fn load() -> Self {
        let bench = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let meta =
            serde_json::from_str(include_str!("../meta.json")).expect("meta.json is valid JSON");
        let metrics = |key: &str| -> Vec<(String, String)> {
            bench
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit");
                    (field("name").to_string(), field("unit").to_string())
                })
                .collect()
        };
        let per_layer = metrics("per_layer");
        // Every per-layer metric is placed in the layer map, and the
        // map names nothing the benchmark does not declare.
        let mapped: Vec<&str> = meta
            .get("layers")
            .and_then(Json::as_arr)
            .expect("layer map")
            .iter()
            .flat_map(|l| l.get("metrics").and_then(Json::as_arr).expect("layer metrics"))
            .map(|m| m.as_str().expect("metric name"))
            .collect();
        let declared: Vec<&str> = per_layer.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(mapped, declared, "meta.json layer map and BENCHMARK.json per_layer differ");
        let avg_f_reference = match meta.get("avg_f_reference") {
            Some(Json::Obj(fields)) => {
                fields.iter().map(|(k, v)| (k.clone(), v.as_f64().expect("reference"))).collect()
            }
            _ => panic!("meta.json lacks avg_f_reference"),
        };
        Self {
            end_to_end: metrics("end_to_end"),
            per_layer,
            run_seconds: bench.get("run_seconds").and_then(Json::as_f64).expect("run_seconds"),
            default_seed: meta.get("default_seed").and_then(Json::as_u64).expect("default_seed"),
            avg_f_reference,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: alid-benchmark --workload <{}|all> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(cat: &Catalog) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: cat.default_seed,
        seconds: cat.run_seconds,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => {
                args.seed = value().parse().unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("--seconds takes a number"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown option {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

fn main() {
    // Provenance asks git for the revision; keep it from reading any
    // repository above the working directory.
    if let Some(parent) =
        std::env::current_dir().ok().and_then(|d| d.parent().map(Path::to_path_buf))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    let cat = Catalog::load();
    let args = parse_args(&cat);
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).expect("create .bench_out in the working directory");

    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut lines = Vec::new();
    let mut all_correct = true;
    for name in &names {
        let ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            out_dir: out_dir.clone(),
            avg_f_reference: cat.avg_f_reference[*name],
        };
        let tr = Tracer::new(args.trace);
        stats::reset_peak_rss();
        let mut out = match *name {
            "palid_sift" => palid::run(&ctx, &tr),
            "peel_bounded" => peel::run(&ctx, &tr),
            _ => served::run(&ctx, &tr),
        };
        if args.trace {
            let obs = alid_obs::trace::drain();
            alid_obs::trace::disable();
            let spans = tr.spans();
            out.spans_jsonl = Some(trace::render_jsonl(name, &spans, &obs));
            let times = trace::self_times(&spans);
            for (span, &(_, _, self_s)) in &times {
                out.layer(&format!("self_s.{span}"), self_s);
            }
            out.self_times = times;
        }
        let (line, correct) = finish(name, &ctx, args.trace, &cat, &mut out);
        all_correct &= correct;
        lines.push((*name, line));
    }
    if names.len() > 1 {
        // `all`: each workload's line, then one line over all of them
        // with metric names prefixed by the workload.
        for (_, line) in &lines {
            println!("{}", serde_json::to_string(line).expect("renders"));
        }
        let mut metrics = Vec::new();
        let (mut attempted, mut failed) = (0, 0);
        for (name, line) in &lines {
            attempted += line.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += line.get("failed").and_then(Json::as_u64).unwrap_or(0);
            if let Some(Json::Obj(m)) = line.get("metrics") {
                metrics.extend(m.iter().map(|(k, v)| (format!("{name}.{k}"), v.clone())));
            }
        }
        let summary = Json::Obj(vec![
            ("correct".into(), Json::Bool(all_correct)),
            ("attempted".into(), Json::UInt(attempted)),
            ("failed".into(), Json::UInt(failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]);
        println!("{}", serde_json::to_string(&summary).expect("renders"));
    } else {
        println!("{}", serde_json::to_string(&lines[0].1).expect("renders"));
    }
    if !all_correct {
        std::process::exit(1);
    }
}

/// Prints the readable report, writes the result and span files, and
/// returns the result line and whether every check passed.
fn finish(name: &str, ctx: &Ctx, trace: bool, cat: &Catalog, out: &mut Outcome) -> (Json, bool) {
    let wanted = if trace { &cat.per_layer } else { &cat.end_to_end };
    let mut metrics = Vec::new();
    let mut absent = Vec::new();
    println!("\n== {name}  seed {}  trace {} ==", ctx.seed, u8::from(trace));
    for (metric, unit) in wanted {
        let value = if trace {
            out.layer.get(metric).copied()
        } else {
            out.e2e.get(metric.as_str()).copied()
        };
        let value = value.filter(|v| v.is_finite());
        let shown = match value {
            Some(v) => {
                let n = out
                    .samples
                    .get(metric.as_str())
                    .map_or(String::new(), |p| format!("  (n={}, {} beyond)", p.samples, p.beyond));
                format!("{v:.6} {unit}{n}")
            }
            None => "absent".to_string(),
        };
        println!("  {metric:<32} {shown}");
        if !trace && !value.is_some_and(|v| v > 0.0) {
            out.check(
                format!("{metric} measured"),
                false,
                "end-to-end metric missing or not positive",
            );
        }
        if value.is_none() {
            absent.push(metric.clone());
        }
        // A per-layer metric the workload does not exercise is listed
        // as absent here and in the result file; the result line must
        // still carry a number for it, and carries 0.
        let v = value.unwrap_or(0.0);
        metrics.push((
            metric.clone(),
            Json::object([("value", Json::Num(v)), ("unit", unit.to_json())]),
        ));
    }
    if !trace {
        // Usually 0, so it travels as the result line's `attempted` and
        // `failed` rather than as a metric.
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        println!(
            "  {:<32} {frac:.6} fraction  ({} of {})",
            "failed_frac", out.failed, out.attempted
        );
    }
    for note in &out.notes {
        println!("  note: {note}");
    }
    if trace {
        println!("  self time by span (count, total s, self s):");
        for (span, (count, total, self_s)) in &out.self_times {
            println!("    {span:<28} {count:>7} {total:>12.6} {self_s:>12.6}");
        }
    }
    let correct = out.checks.iter().all(|c| c.ok);
    for c in &out.checks {
        println!("  check {:<24} {}  {}", c.name, if c.ok { "ok" } else { "FAILED" }, c.detail);
    }

    let mut header = alid_bench::report::run_header("alid-benchmark/1", report::WORKERS);
    let provenance: Vec<(&'static str, Json)> = vec![
        ("workload", name.to_json()),
        ("seed", ctx.seed.to_json()),
        ("seconds", ctx.seconds.to_json()),
        ("trace", trace.to_json()),
        ("features", Json::Arr(Vec::new())),
        ("simd_lanes", false.to_json()),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_json()),
    ];
    let registry = header.iter().position(|(k, _)| *k == "metrics").map(|i| header.remove(i));
    header.extend(provenance);
    header.extend(out.facts.iter().cloned());
    println!(
        "  provenance {}",
        serde_json::to_string(&Json::object(header.clone())).expect("renders")
    );

    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(out.attempted.max(1))),
        ("failed".into(), Json::UInt(out.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    let stem = format!("{name}-seed{}-trace{}", ctx.seed, u8::from(trace));
    let mut record = header;
    record.extend(registry);
    record.push(("result", line.clone()));
    record.push(("absent", absent.to_json()));
    record.push((
        "samples",
        Json::Obj(
            out.samples
                .iter()
                .map(|(k, p)| {
                    (
                        k.to_string(),
                        Json::object([("n", p.samples.to_json()), ("beyond", p.beyond.to_json())]),
                    )
                })
                .collect(),
        ),
    ));
    record.push((
        "checks",
        Json::Arr(
            out.checks
                .iter()
                .map(|c| {
                    Json::object([
                        ("name", c.name.to_json()),
                        ("ok", c.ok.to_json()),
                        ("detail", c.detail.to_json()),
                    ])
                })
                .collect(),
        ),
    ));
    record.push(("notes", out.notes.to_json()));
    let path = ctx.out_dir.join(format!("{stem}.json"));
    if let Err(e) =
        std::fs::write(&path, serde_json::to_string_pretty(&Json::object(record)).expect("renders"))
    {
        eprintln!("could not write {}: {e}", path.display());
    }
    if let Some(jsonl) = &out.spans_jsonl {
        let path = ctx.out_dir.join(format!("{stem}.spans.jsonl"));
        match std::fs::write(&path, jsonl) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    (line, correct)
}
