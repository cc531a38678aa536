//! Smoke runs of every workload on a tiny lake: every metric that
//! `BENCHMARK.json` names prints with its unit, every output check
//! passes, and each layer shows its work where the benchmark predicts.

use serde::Content;
use std::process::Command;

// The benchmark's own metric table, compiled in so the declared
// directions can be checked against it.
#[allow(dead_code)]
#[path = "../src/report.rs"]
mod report;

const WORKLOADS: &[&str] = &["serve_mixed", "ingest_durable", "reopen_cold"];

fn field<'a>(c: &'a Content, key: &str) -> &'a Content {
    serde::content_get(c.as_map().expect("an object"), key)
        .unwrap_or_else(|| panic!("missing key {key}"))
}

fn text(c: &Content) -> &str {
    match c {
        Content::Str(s) => s,
        other => panic!("expected a string, got {}", other.kind()),
    }
}

fn number(c: &Content) -> f64 {
    match c {
        Content::F64(v) => *v,
        Content::U64(v) => *v as f64,
        Content::I64(v) => *v as f64,
        other => panic!("expected a number, got {}", other.kind()),
    }
}

/// `(name, unit, better)` of every metric in one section of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    field(&spec, section)
        .as_seq()
        .expect("a list")
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
                text(field(m, "better")).to_string(),
            )
        })
        .collect()
}

/// Runs one smoke workload and returns its metrics by name.
fn run(workload: &str, trace: bool) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_lakebench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = serde_json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert!(
        matches!(field(&result, "correct"), Content::Bool(true)),
        "{workload}: {stdout}"
    );
    assert_eq!(number(field(&result, "failed")), 0.0, "{workload}");
    assert!(number(field(&result, "attempted")) >= 1.0, "{workload}");

    let section = if trace { "per_layer" } else { "end_to_end" };
    let metrics = field(&result, "metrics").as_map().expect("metrics object");
    let want = declared(section);
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    want.iter()
        .map(|(name, unit, _)| {
            let m = serde::content_get(metrics, name)
                .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
            assert_eq!(text(field(m, "unit")), unit, "{workload}: unit of {name}");
            (name.clone(), number(field(m, "value")))
        })
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .expect(name)
}

#[test]
fn declared_metrics_match_the_benchmark_table() {
    for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
        let table: Vec<(String, String, String)> = report::expected(trace)
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(declared(section), table, "{section}");
    }
}

#[test]
fn end_to_end_metrics_print_with_units_and_checks_pass() {
    for workload in WORKLOADS {
        let metrics = run(workload, false);
        for (name, v) in &metrics {
            assert!(*v > 0.0, "{workload}: {name} = {v}");
        }
    }
}

#[test]
fn layers_show_their_work_where_predicted() {
    for workload in WORKLOADS {
        let m = run(workload, true);
        let wal = ["wal.append_us", "wal.sync_us", "wal.bytes_per_op"];
        let durable = *workload == "ingest_durable";
        for name in wal {
            assert_eq!(value(&m, name) > 0.0, durable, "{workload}: {name}");
        }
        let cold = *workload == "reopen_cold";
        assert_eq!(
            value(&m, "core.index_build_ms") > 0.0,
            cold,
            "{workload}: index build"
        );
        if *workload == "serve_mixed" {
            assert!(
                value(&m, "core.cache_hit_ratio") > 0.0,
                "serve_mixed: cache hits"
            );
            assert!(
                value(&m, "server.api_handle_us") > 0.0,
                "serve_mixed: handler time"
            );
        }
        if durable {
            assert!(
                value(&m, "core.ingest_coverage") > 0.0,
                "ingest_durable: coverage"
            );
        }
    }
}

#[test]
fn unknown_workload_prints_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_lakebench"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
