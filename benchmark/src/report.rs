//! What one workload run hands back, and the shared context it runs in.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Json;

use crate::stats::Pct;

/// Exec-layer workers (executors, shard workers, peel workers) of every
/// workload: the benchmark host has two CPUs.
pub const WORKERS: usize = 2;

/// Settings shared by every workload run.
pub struct Ctx {
    /// Feeds the input generators only.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Where journals, results and span files go (inside the checkout).
    pub out_dir: PathBuf,
    /// The AVG-F the workload's output must reach.
    pub avg_f_reference: f64,
}

impl Ctx {
    /// Whether another repeat of `last` length still fits the measured
    /// phase that began at `started`; `min` repeats always run.
    pub fn another(&self, started: Instant, done: usize, last: Duration, min: usize) -> bool {
        done < min || (started.elapsed() + last).as_secs_f64() <= self.seconds
    }
}

/// One output check.
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Sample counts behind the end-to-end percentiles.
    pub samples: BTreeMap<&'static str, Pct>,
    /// Per-layer metrics by name (traced runs only).
    pub layer: BTreeMap<String, f64>,
    /// Output checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Operations attempted and failed (runs for batch workloads,
    /// requests for the served one).
    pub attempted: u64,
    pub failed: u64,
    /// Input sizes and other facts for the provenance header.
    pub facts: Vec<(&'static str, Json)>,
    /// Free-form lines for the human-readable report.
    pub notes: Vec<String>,
    /// JSON Lines of the traced run's spans.
    pub spans_jsonl: Option<String>,
    /// Per span name: (count, total s, self s).
    pub self_times: BTreeMap<&'static str, (usize, f64, f64)>,
}

impl Outcome {
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.into(), ok, detail: detail.into() });
    }

    /// Records a percentile as an end-to-end metric, keeping its count.
    pub fn pct(&mut self, name: &'static str, p: Pct) {
        self.e2e.insert(name, p.value);
        self.samples.insert(name, p);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }
}
