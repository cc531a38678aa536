//! The metric tables and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; the smoke test checks the two agree.

use std::collections::BTreeMap;

/// Whether a larger value of a metric is worse or better.
pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

/// `(name, unit, better)` of a metric.
pub type Metric = (&'static str, &'static str, &'static str);

/// End-to-end metrics (tracing off). Every workload prints all of them.
pub const END_TO_END: &[Metric] = &[
    ("setup_s", "s", LOWER),
    ("success_ratio", "ratio", HIGHER),
    ("write_amp", "ratio", LOWER),
    ("peak_rss_mb", "MiB", LOWER),
];

/// Served request kinds of `serve_mixed`, which name the per-op
/// `proto.*` metrics.
pub const OP_KINDS: &[&str] = &[
    "similar",
    "text_search",
    "hybrid_search",
    "query",
    "resolve",
    "list_models",
    "update_card",
];

/// Per-layer metrics (traced run), excluding the per-op `proto.*` ones
/// generated from [`OP_KINDS`]. A layer the workload's timed phase never
/// calls reports 0. The first seven are end-to-end in kind (`rate_p99_ms`
/// is the open-loop tail of `serve_mixed`), but on a shared 2-core host
/// their run-to-run spread exceeds the largest bound a metric may have,
/// so they are reported here, unbounded.
pub const PER_LAYER: &[Metric] = &[
    ("open_ms", "ms", LOWER),
    ("first_query_ms", "ms", LOWER),
    ("ops_per_s", "1/s", HIGHER),
    ("p50_ms", "ms", LOWER),
    ("p99_ms", "ms", LOWER),
    ("rate_p99_ms", "ms", LOWER),
    ("persist_ms", "ms", LOWER),
    ("server.api_handle_us", "us", LOWER),
    ("server.wire_share", "ratio", LOWER),
    ("server.queue_depth_max", "count", LOWER),
    ("server.coverage", "ratio", HIGHER),
    ("core.similar_us", "us", LOWER),
    ("core.text_us", "us", LOWER),
    ("core.hybrid_us", "us", LOWER),
    ("core.update_card_us", "us", LOWER),
    ("core.ingest_us", "us", LOWER),
    ("core.model_decode_us", "us", LOWER),
    ("core.cache_hit_ratio", "ratio", HIGHER),
    ("core.index_build_ms", "ms", LOWER),
    ("core.store_faults", "count", LOWER),
    ("core.resident_bytes", "bytes", LOWER),
    ("core.segment_bytes_per_persist", "bytes", LOWER),
    ("core.ingest_coverage", "ratio", HIGHER),
    ("fingerprint.intrinsic_us", "us", LOWER),
    ("fingerprint.extrinsic_us", "us", LOWER),
    ("fingerprint.hybrid_us", "us", LOWER),
    ("index.insert_us", "us", LOWER),
    ("index.search_us", "us", LOWER),
    ("index.expansions_per_query", "count", LOWER),
    ("text.insert_us", "us", LOWER),
    ("text.search_us", "us", LOWER),
    ("query.prepare_us", "us", LOWER),
    ("query.run_us", "us", LOWER),
    ("wal.append_us", "us", LOWER),
    ("wal.sync_us", "us", LOWER),
    ("wal.bytes_per_op", "bytes", LOWER),
    ("obs.overhead_pct", "%", LOWER),
    ("load.late_p99_ms", "ms", LOWER),
];

/// Every metric a run with the given trace mode prints, as
/// `(name, unit, better)`.
pub fn expected(trace: bool) -> Vec<(String, &'static str, &'static str)> {
    let owned = |&(n, u, b): &Metric| (n.to_string(), u, b);
    if !trace {
        return END_TO_END.iter().map(owned).collect();
    }
    let mut all: Vec<_> = PER_LAYER.iter().map(owned).collect();
    for dir in ["encode", "decode"] {
        for op in OP_KINDS {
            all.push((format!("proto.{dir}_us.{op}"), "us", LOWER));
        }
    }
    all
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued (requests, ingests/updates, or queries).
    pub attempted: u64,
    /// Failed operations plus failed output checks.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Sets to 0 the layers a workload's timed phase never calls.
    pub fn zero(&mut self, names: &[&str]) {
        for name in names {
            self.set(*name, 0.0);
        }
    }

    /// Zeroes every per-op `proto.*` metric (workloads without a server).
    pub fn zero_proto(&mut self) {
        for dir in ["encode", "decode"] {
            for op in OP_KINDS {
                self.set(format!("proto.{dir}_us.{op}"), 0.0);
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Counts `n` failures.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            eprintln!("lakebench: {n} failed: {why}");
            self.failed += n;
        }
    }

    /// The result line: exactly the metrics of the trace mode, each with
    /// its unit. Errors if a metric was never measured or is not finite.
    pub fn json(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit, _) in expected(trace) {
            let value = *self
                .values
                .get(&name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}
