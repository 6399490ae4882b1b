//! `served_ingest`: an in-process `alid-service` HTTP front end (two
//! shards, sweep period 32, journal on, ingest acknowledged after the
//! group-commit fsync) fed the `bench_service` burst stream.
//!
//! Load comes from this process over at most two connections: one
//! closed-loop client sends 32-item `POST /ingest` requests, and one
//! open-loop reader polls `GET /clusters?view=merged&k=10` at a fixed
//! 20/s, its latency measured from each poll's due time. Per-item cost
//! grows with stream length (noise stays pending and every sweep
//! re-peels it), so the stream size is part of the workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alid_affinity::clustering::{Clustering, DetectedCluster};
use alid_affinity::cost::CostModel;
use alid_affinity::kernel::{LaplacianKernel, LpNorm};
use alid_affinity::vector::Dataset;
use alid_core::AlidParams;
use alid_data::groundtruth::GroundTruth;
use alid_data::metrics::avg_f1;
use alid_data::stream::{generate_stream, Burst, StreamConfig, StreamScenario};
use alid_exec::ExecPolicy;
use alid_lsh::LshIndex;
use alid_service::http::{self, Client, HttpOptions, HttpServer};
use alid_service::{recover_and_open, JournalConfig, Service, ServiceConfig};
use serde::{Json, Serialize};

use crate::layers;
use crate::report::{Ctx, Outcome, WORKERS};
use crate::stats::{delta, median, parse_exposition, peak_rss_mib, percentile};
use crate::trace::Tracer;

/// Stream length.
pub const ITEMS: usize = 6_000;
const DIM: usize = 8;
const SHARDS: usize = 2;
const SWEEP_PERIOD: usize = 32;
/// Items per `POST /ingest`: one sweep period. With half a period per
/// request, about half the requests sweep a shard and half do not, and
/// the median ingest latency would sit on the step between the two.
const REQUEST_ITEMS: usize = SWEEP_PERIOD;
/// The reader's fixed poll rate.
const READER_HZ: f64 = 20.0;
const READER_PATH: &str = "/clusters?view=merged&k=10";
/// Set-ups per pass; `setup_s` is the median over all of them.
const SETUPS_PER_PASS: usize = 20;

/// Seed of `bench_service`'s own stream, whose burst centres every run
/// keeps. A centre drawn near one of the router's hyperplanes splits its
/// burst across the shards, and every merged-view reduce then re-detects
/// the joined fragments (hundreds of milliseconds each), so drawn centres
/// would make the reader's load depend on the seed rather than on the
/// code. The seed draws the arrival schedule, the jitter and the noise.
const CENTRES_SEED: u64 = 0xbe9c;

fn stream_config(seed: u64) -> StreamConfig {
    let burst = ITEMS / 6;
    StreamConfig {
        dim: DIM,
        total: ITEMS,
        bursts: vec![
            Burst { start: ITEMS / 10, size: burst, spacing: 1 },
            Burst { start: ITEMS / 2, size: burst, spacing: 1 },
            Burst { start: ITEMS * 7 / 10, size: burst, spacing: 1 },
        ],
        jitter: 0.05,
        noise_span: 25.0,
        seed,
    }
}

/// The `bench_service` burst stream (three bursts, half the stream is
/// signal) drawn under `seed` with each burst moved onto the fixed
/// centre, plus its detection parameters.
fn workload(seed: u64) -> (Vec<Vec<f64>>, GroundTruth, AlidParams) {
    let fixed = generate_stream(&stream_config(CENTRES_SEED));
    let drawn = generate_stream(&stream_config(seed));
    let centroid = |sc: &StreamScenario, b: usize| {
        let idx: Vec<usize> = sc.truth.clusters()[b].iter().map(|&i| i as usize).collect();
        sc.data.centroid(&idx)
    };
    let shift: Vec<Vec<f64>> = (0..fixed.truth.cluster_count())
        .map(|b| centroid(&fixed, b).iter().zip(centroid(&drawn, b)).map(|(f, d)| f - d).collect())
        .collect();
    let items = drawn
        .data
        .iter()
        .zip(&drawn.burst_of)
        .map(|(v, b)| match b {
            Some(b) => v.iter().zip(&shift[*b]).map(|(x, s)| x + s).collect(),
            None => v.to_vec(),
        })
        .collect();
    let kernel = LaplacianKernel::calibrate(drawn.scale * 2.0, 0.9, LpNorm::L2);
    let mut params = AlidParams::new(kernel);
    params.first_roi_radius = kernel.distance_at(0.5);
    params.density_threshold = 0.75;
    params.min_cluster_size = 4;
    params.lsh.seed = 11;
    params.exec = ExecPolicy::workers(WORKERS);
    (items, drawn.truth, params)
}

fn service_config(params: AlidParams) -> ServiceConfig {
    ServiceConfig::new(DIM, SHARDS, params)
        .with_batch(SWEEP_PERIOD)
        .with_exec(ExecPolicy::workers(WORKERS))
}

/// A running front end and the journal directory behind it.
struct Served {
    service: Arc<Service>,
    server: HttpServer,
    addr: String,
    dir: PathBuf,
}

impl Served {
    /// Service construction, journal open, bind and readiness: the
    /// workload's set-up.
    fn start(params: AlidParams, dir: PathBuf) -> Served {
        let _ = std::fs::remove_dir_all(&dir);
        let mut service = Service::new(service_config(params));
        let journal =
            recover_and_open(JournalConfig { dir: dir.clone(), compact_every: 0 }, &service, 0)
                .expect("open the journal under .bench_out");
        service.set_journal(journal);
        let service = Arc::new(service);
        let opts = HttpOptions { http_workers: 2, snapshot_path: None };
        let server = http::start(Arc::clone(&service), "127.0.0.1:0", opts).expect("bind loopback");
        let addr = server.addr().to_string();
        http::wait_ready(&addr, Duration::from_secs(30)).expect("front end never became ready");
        Served { service, server, addr, dir }
    }

    /// Stops the acceptors, closes the journal and removes its files.
    fn stop(self) {
        self.server.shutdown();
        drop(self.service);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Sets up `SETUPS_PER_PASS` times, keeping the last front end.
fn set_up(params: AlidParams, dir: &Path, setup: &mut Vec<f64>) -> Served {
    let mut kept = None;
    for _ in 0..SETUPS_PER_PASS {
        if let Some(old) = kept.take() {
            Served::stop(old);
        }
        let t = Instant::now();
        kept = Some(Served::start(params, dir.to_path_buf()));
        setup.push(t.elapsed().as_secs_f64());
    }
    kept.expect("SETUPS_PER_PASS >= 1")
}

/// What one pass of the stream through the front end observed.
#[derive(Default)]
struct Pass {
    ingest_s: f64,
    /// Client-observed ingest latencies, ms (infinite when failed).
    ingest_ms: Vec<f64>,
    /// Reader latencies from each poll's due time, ms (infinite when failed).
    query_ms: Vec<f64>,
    /// How late each poll was sent, ms.
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    pending_max: u64,
    /// The final `GET /clusters?view=merged` and `GET /clusters` bodies.
    merged: Option<Json>,
    raw: Option<Json>,
    /// Member lists of the final merged view (the HTTP view carries
    /// sizes only), in admission-order ids.
    members: Vec<Vec<u64>>,
    metrics_before: BTreeMap<String, f64>,
    metrics_after: BTreeMap<String, f64>,
}

fn items_json(batch: &[Vec<f64>]) -> Json {
    let rows = batch.iter().map(|v| Json::Arr(v.iter().map(|&x| Json::Num(x)).collect())).collect();
    Json::object([("items", Json::Arr(rows))])
}

fn scrape(client: &mut Client, tr: &Tracer, parent: u64) -> BTreeMap<String, f64> {
    let (status, text) = tr
        .span("get_metrics", parent, |_| client.request_text("GET", "/metrics"))
        .expect("GET /metrics");
    assert_eq!(status, 200, "GET /metrics answered {status}");
    parse_exposition(&text)
}

/// One pass: the closed-loop ingest of the whole stream beside the
/// open-loop reader, then the final cluster views.
fn pass(served: &Served, items: &[Vec<f64>], tr: &Tracer, root: u64) -> Pass {
    let mut p = Pass::default();
    let mut client = Client::connect(&served.addr).expect("connect the ingest client");
    if tr.on() {
        p.metrics_before = scrape(&mut client, tr, root);
    }
    let stop = AtomicBool::new(false);
    tr.span("ingest_phase", root, |phase| {
        std::thread::scope(|s| {
            let t0 = Instant::now();
            let stop = &stop;
            let reader = s.spawn(move || read_loop(&served.addr, t0, stop, tr, phase));
            for chunk in items.chunks(REQUEST_ITEMS) {
                let body = items_json(chunk);
                let t = Instant::now();
                let reply = tr
                    .span("post_ingest", phase, |_| client.request("POST", "/ingest", Some(&body)));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                p.attempted += 1;
                let ok = match &reply {
                    Ok((200, resp)) => {
                        let pending: u64 =
                            resp.get("depths").and_then(Json::as_arr).map_or(0, |d| {
                                d.iter().filter_map(|s| s.get("pending")?.as_u64()).sum()
                            });
                        p.pending_max = p.pending_max.max(pending);
                        // A `busy` verdict is a refused admission.
                        resp.get("results").and_then(Json::as_arr).is_some_and(|r| {
                            r.len() == chunk.len()
                                && r.iter().all(|a| {
                                    a.get("status").and_then(Json::as_str) == Some("enqueued")
                                })
                        })
                    }
                    _ => false,
                };
                p.failed += u64::from(!ok);
                p.ingest_ms.push(if ok { ms } else { f64::INFINITY });
            }
            p.ingest_s = t0.elapsed().as_secs_f64();
            stop.store(true, Ordering::SeqCst);
            let r = reader.join().expect("reader thread panicked");
            p.query_ms = r.0;
            p.late_ms = r.1;
            p.attempted += r.2;
            p.failed += r.3;
        });
    });
    if tr.on() {
        p.metrics_after = scrape(&mut client, tr, root);
    }
    p.members = merged_members(&served.service);
    tr.span("final_clusters", root, |_| {
        for (path, slot) in [("/clusters?view=merged", &mut p.merged), ("/clusters", &mut p.raw)] {
            p.attempted += 1;
            match client.request("GET", path, None) {
                Ok((200, body)) => *slot = body.get("clusters").cloned(),
                _ => p.failed += 1,
            }
        }
    });
    p
}

/// The open-loop reader: polls are due every `1 / READER_HZ` from `t0`
/// until `stop`; a poll sent late still counts from its due time.
/// Returns (latencies ms, lateness ms, attempted, failed).
fn read_loop(
    addr: &str,
    t0: Instant,
    stop: &AtomicBool,
    tr: &Tracer,
    parent: u64,
) -> (Vec<f64>, Vec<f64>, u64, u64) {
    let (mut lat, mut late, mut attempted, mut failed) = (Vec::new(), Vec::new(), 0, 0);
    let mut client = Client::connect(addr).expect("connect the reader");
    let period = Duration::from_secs_f64(1.0 / READER_HZ);
    for k in 0u32.. {
        let due = t0 + period * k;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let sent = Instant::now();
        late.push((sent - due).as_secs_f64() * 1e3);
        let reply = tr.span("get_clusters", parent, |_| client.request("GET", READER_PATH, None));
        let ok = matches!(reply, Ok((200, _)));
        attempted += 1;
        failed += u64::from(!ok);
        lat.push(if ok { due.elapsed().as_secs_f64() * 1e3 } else { f64::INFINITY });
    }
    (lat, late, attempted, failed)
}

fn merged_members(service: &Service) -> Vec<Vec<u64>> {
    service.merged_view().clusters.iter().map(|c| c.members.clone()).collect()
}

/// The final answers of a pass, for comparison with the replay.
struct Views {
    merged: Json,
    raw: Json,
    members: Vec<Vec<u64>>,
}

/// The same stream through the library with no reader, no journal and
/// no HTTP: the reference the served answers must equal.
fn replay(params: AlidParams, items: &[Vec<f64>]) -> Views {
    let service = Service::new(service_config(params));
    for chunk in items.chunks(REQUEST_ITEMS) {
        service.ingest_batch(chunk.iter().map(Vec::as_slice));
        service.drain();
    }
    // Through text and back, as the served answers arrive.
    let reparse = |j: Json| {
        serde_json::from_str(&serde_json::to_string(&j).expect("renders")).expect("parses")
    };
    Views {
        merged: reparse(service.top_k_merged(usize::MAX).to_json()),
        raw: reparse(service.top_k(usize::MAX).to_json()),
        members: merged_members(&service),
    }
}

/// The merged view as a clustering over admission-order ids.
fn merged_clustering(members: &[Vec<u64>]) -> Clustering {
    let mut c = Clustering::new(ITEMS);
    for m in members {
        let ids = m.iter().map(|&x| u32::try_from(x).expect("ids below ITEMS")).collect();
        c.clusters.push(DetectedCluster::uniform(ids, 1.0));
    }
    c
}

pub fn run(ctx: &Ctx, tr: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (items, truth, params) = workload(ctx.seed);
    out.facts.extend([
        ("items", ITEMS.to_json()),
        ("dim", DIM.to_json()),
        ("shards", SHARDS.to_json()),
        ("sweep_period", SWEEP_PERIOD.to_json()),
        ("request_items", REQUEST_ITEMS.to_json()),
        ("reader_hz", READER_HZ.to_json()),
        ("shard_workers", WORKERS.to_json()),
        ("connections", 2usize.to_json()),
    ]);
    let dir = ctx.out_dir.join(format!("journal-{}", std::process::id()));
    let mut setup = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peaks = Vec::new();
    let mut rss_mib = f64::NAN;

    if tr.on() {
        let served = set_up(params, &dir, &mut setup);
        let untraced = pass(&served, &items, &Tracer::new(false), 0);
        served.stop();
        tr.span("run", 0, |root| {
            let served = tr.span("service_setup", root, |_| Served::start(params, dir.clone()));
            let p = pass(&served, &items, tr, root);
            let snap = served.service.cost().snapshot();
            served.stop();
            served_layers(&mut out, &p, &snap);
            out.layer("bench.trace_overhead_frac", untraced.ingest_s / p.ingest_s);
            let reference = tr.span("replay", root, |_| replay(params, &items));
            check_pass(&mut out, ctx, &truth, &reference, "untraced pass", &untraced);
            check_pass(&mut out, ctx, &truth, &reference, "traced pass", &p);
            // LSH replay over the whole stream with the shards' LSH
            // parameters, queried with the final merged supports.
            let ds = Dataset::from_rows(DIM, items.iter().map(Vec::as_slice));
            let cost = CostModel::shared();
            let t = Instant::now();
            let index = tr.span("lsh_build", root, |_| LshIndex::build(&ds, params.lsh, &cost));
            let build_s = t.elapsed().as_secs_f64();
            let merged = merged_clustering(&p.members);
            tr.span("multi_query", root, |_| {
                let supports = merged.clusters.iter().map(|c| c.members.as_slice());
                layers::lsh(&mut out, &ds, &index, build_s, cost.snapshot().aux_bytes, supports);
            });
        });
        return out;
    }

    let started = Instant::now();
    let mut last = Duration::ZERO;
    while ctx.another(started, passes.len(), last, 2) {
        let t = Instant::now();
        let served = set_up(params, &dir, &mut setup);
        let p = pass(&served, &items, tr, 0);
        peaks.push(served.service.cost().snapshot().peak_mib());
        served.stop();
        if passes.is_empty() {
            // The resident peak of the first pass only: each later pass
            // starts on heap the allocator kept from the ones before, and
            // how many passes a run holds depends on the host's speed.
            rss_mib = peak_rss_mib();
        }
        passes.push(p);
        last = t.elapsed();
    }
    let reference = replay(params, &items);
    let all = |f: fn(&Pass) -> &Vec<f64>| {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect::<Vec<f64>>()
    };
    let (ingest, query, late) = (all(|p| &p.ingest_ms), all(|p| &p.query_ms), all(|p| &p.late_ms));
    out.e2e.insert("setup_s", median(&setup));
    out.e2e.insert(
        "items_per_s",
        ITEMS as f64 / median(&passes.iter().map(|p| p.ingest_s).collect::<Vec<_>>()),
    );
    out.pct("ingest_p50_ms", percentile(&ingest, 0.50));
    out.pct("ingest_p95_ms", percentile(&ingest, 0.95));
    out.pct("query_p50_ms", percentile(&query, 0.50));
    out.pct("query_p90_ms", percentile(&query, 0.90));
    out.e2e.insert("peak_mib", median(&peaks));
    out.e2e.insert("rss_mib", rss_mib);
    let lp = percentile(&late, 0.90);
    out.notes.push(format!(
        "reader ran late by p50 {:.3} ms, p90 {:.3} ms (n={}, {} beyond); {} passes, {} set-ups",
        percentile(&late, 0.50).value,
        lp.value,
        lp.samples,
        lp.beyond,
        passes.len(),
        setup.len()
    ));
    let mut f = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        f.push(check_pass(&mut out, ctx, &truth, &reference, &format!("pass {i}"), p));
    }
    out.e2e.insert("avg_f", median(&f));
    out
}

/// Counts the pass's requests and checks its final views: equal to the
/// reader-free replay, and the merged view's AVG-F at the reference.
/// Returns the AVG-F.
fn check_pass(
    out: &mut Outcome,
    ctx: &Ctx,
    truth: &GroundTruth,
    reference: &Views,
    name: &str,
    p: &Pass,
) -> f64 {
    let f = avg_f1(truth, &merged_clustering(&p.members));
    let same = p.merged.as_ref() == Some(&reference.merged)
        && p.raw.as_ref() == Some(&reference.raw)
        && p.members == reference.members;
    let ok = same && f >= ctx.avg_f_reference;
    out.attempted += p.attempted;
    out.failed += p.failed + u64::from(!ok);
    out.check(
        name,
        ok && p.failed == 0,
        format!(
            "{} requests, {} failed; final views {} the replay; AVG-F {f:.4} (reference {})",
            p.attempted,
            p.failed,
            if same { "equal" } else { "DIFFER from" },
            ctx.avg_f_reference
        ),
    );
    f
}

/// Per-layer readings of a traced pass: `/metrics` deltas around the
/// ingest phase, the ingest responses' queue depths, the service's cost
/// model, and the reader's lateness.
fn served_layers(out: &mut Outcome, p: &Pass, snap: &alid_affinity::cost::CostSnapshot) {
    let d = delta(&p.metrics_before, &p.metrics_after);
    let get = |k: &str| d.get(k).copied().unwrap_or(0.0);
    let sum_of =
        |prefix: &str| d.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum::<f64>();

    out.layer("service.drains", get("alid_service_drains_total"));
    out.layer("service.drain_s", get("alid_service_drain_seconds_sum"));
    let forced = get("alid_service_sweeps_total");
    if forced > 0.0 {
        out.layer("service.sweeps", forced);
    } else {
        out.notes.push(
            "service.sweeps counts forced sweeps only; this workload sweeps inline (see peel.*)"
                .into(),
        );
    }
    out.layer("service.pending_max", p.pending_max as f64);
    out.layer("service.reduce_s", get("alid_service_reduce_seconds_sum"));
    let (hits, misses) = (
        get("alid_service_reduce_cache_hits_total"),
        get("alid_service_reduce_cache_misses_total"),
    );
    if hits + misses > 0.0 {
        out.layer("service.reduce_hit_frac", hits / (hits + misses));
    }
    out.layer("service.busy", sum_of("alid_service_busy_total{"));

    let (appends, fsyncs) = (
        get("alid_service_journal_appends_total"),
        get("alid_service_journal_fsync_seconds_count"),
    );
    out.layer("journal.appends", appends);
    out.layer("journal.bytes_per_item", get("alid_service_journal_bytes_total") / ITEMS as f64);
    out.layer("journal.fsyncs", fsyncs);
    out.layer("journal.fsync_s", get("alid_service_journal_fsync_seconds_sum"));
    if fsyncs > 0.0 {
        out.layer("journal.frames_per_fsync", appends / fsyncs);
    }

    let server_s = get("alid_http_request_seconds_sum{path=\"/ingest\"}");
    let client_s: f64 = p.ingest_ms.iter().sum::<f64>() * 1e-3;
    out.layer("http.requests", get("alid_http_requests_total"));
    out.layer("http.keepalive_reuses", get("alid_http_keepalive_reuses_total"));
    out.layer("http.ingest_server_s", server_s);
    out.layer("http.client_gap_s", client_s - server_s);

    layers::exec(out, &d);
    let (rounds, speculated) = (get("alid_peel_rounds_total"), get("alid_peel_speculated_total"));
    let accepted = get("alid_peel_accepted_total");
    out.layer("peel.rounds", rounds);
    out.layer("peel.speculated", speculated);
    out.layer("peel.accepted", accepted);
    out.layer("peel.wasted", get("alid_peel_absorbed_total") + get("alid_peel_rerun_total"));
    if speculated > 0.0 {
        out.layer("peel.useful_frac", accepted / speculated);
    }
    if rounds > 0.0 {
        out.layer("peel.mean_width", speculated / rounds);
    }
    layers::affinity(out, snap, 0);

    let late = percentile(&p.late_ms, 0.90);
    out.layer("bench.reader_late_ms_p90", late.value);
    out.notes.push(format!(
        "bench.reader_late_ms_p90 over {} polls ({} beyond)",
        late.samples, late.beyond
    ));
}
