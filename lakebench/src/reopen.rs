//! `reopen_cold`: cold start — `open`, lazy blob fault-in and the
//! deferred index build — then warm queries.
//!
//! Setup ingests about 1,000 models into an in-memory lake and persists
//! a snapshot. Each cycle opens the snapshot, asks a first (cold)
//! `similar` and a first text search, sweeps warm `similar`/hybrid
//! queries back to back, and drops the lake. Sweep anchors are distinct
//! and outnumber the 128-entry query cache, so the cache is bypassed.
//! Every checked answer must equal, bit for bit, the pre-persist lake's
//! answer, which is taken before the timed phase.

use crate::cold::{self, bits, open_times};
use crate::inputs::{self, Catalog};
use crate::layers::{self, ObsTotals, ShadowIndex, ShadowText};
use crate::report::Report;
use crate::stats::{dir_bytes, median, peak_rss_mb, ratio, release_freed, reset_peak_rss, Samples};
use crate::Ctx;
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_fingerprint::FingerprintKind;
use mlake_tensor::Seed;
use std::time::Instant;

const MODELS: usize = 1000;
const SETUPS: usize = 3;
/// Warm queries per cycle, each on a distinct anchor.
const SWEEP: usize = 500;
const K: usize = 10;
/// Every n-th warm answer is checked against the pre-persist lake.
const CHECK_EVERY: usize = 8;
/// Cold model decodes timed in the traced replay.
const DECODES: usize = 50;
/// Bare opens after each cycle, so `open_ms` comes from many opens
/// spread over the run (see `cold`).
const OPENS: usize = 4;

type Bits = Vec<(u64, u32)>;

#[derive(Clone, Copy)]
enum Ask {
    Similar = 0,
    Text = 1,
    Hybrid = 2,
}

impl Ask {
    /// The sweep alternates `similar` and hybrid.
    fn sweep(j: usize) -> Ask {
        if j.is_multiple_of(2) {
            Ask::Similar
        } else {
            Ask::Hybrid
        }
    }
}

fn ask(lake: &ModelLake, q: Ask, a: usize, catalog: &Catalog) -> Result<Bits, String> {
    let id = ModelId(a as u64);
    let hybrid = FingerprintKind::Hybrid;
    let query = &catalog.queries[a];
    match q {
        Ask::Similar => lake.similar(id, hybrid, K),
        Ask::Text => lake.text_search(query, K),
        Ask::Hybrid => lake.hybrid_search(query, id, hybrid, K),
    }
    .map(|hits| bits(&hits))
    .map_err(|e| e.to_string())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let gt = inputs::lake(MODELS, ctx.seed, ctx.smoke);
    let catalog = Catalog::new(&gt);
    let n = catalog.len();
    let cards: Vec<_> = (0..n).map(|i| catalog.card(i, 0)).collect();
    let err = |e: mlake_core::LakeError| e.to_string();
    let mut report = Report::default();

    // Set up several times; the last lake stays as the pre-persist
    // reference every cold answer must equal.
    let (mut setups, mut persists) = (Vec::new(), Vec::new());
    let mut reference = None;
    // A fresh directory each time: deleting the last snapshot would
    // queue discards behind this one's fsyncs.
    let dir = |s: usize| ctx.work.join(format!("snapshot-{s}"));
    for s in 0..SETUPS {
        drop(reference.take());
        let t = Instant::now();
        let lake = ModelLake::new(LakeConfig::default());
        for (i, m) in gt.models.iter().enumerate() {
            lake.ingest_model(&m.name, &m.model, Some(cards[i].clone()))
                .map_err(err)?;
        }
        let p = Instant::now();
        lake.persist(&dir(s)).map_err(err)?;
        persists.push(p.elapsed().as_secs_f64() * 1e3);
        setups.push(t.elapsed().as_secs_f64());
        reference = Some(lake);
    }
    let reference = reference.expect("at least one setup");
    let dir = dir(SETUPS - 1);
    report.set("setup_s", median(&setups));
    report.set("persist_ms", median(&persists));
    report.set(
        "write_amp",
        ratio(dir_bytes(&dir) as f64, catalog.user_bytes(&cards) as f64),
    );

    // The pre-persist lake's answer to every question a cycle may ask,
    // so it and the input weights are gone before the timed phase and
    // `peak_rss_mb` counts only the cold lake's work.
    let expected: Vec<[Bits; 3]> = (0..n)
        .map(|a| {
            Ok([
                ask(&reference, Ask::Similar, a, &catalog)?,
                ask(&reference, Ask::Text, a, &catalog)?,
                ask(&reference, Ask::Hybrid, a, &catalog)?,
            ])
        })
        .collect::<Result<_, String>>()?;
    drop(reference);
    drop(gt);

    let sweep = SWEEP.min(n.saturating_sub(1));
    let mut rng = Seed::new(ctx.seed).derive("reopen-anchors").rng();
    let (mut open_ms, mut first_ms, mut resident) = (Vec::new(), Vec::new(), Vec::new());
    let mut latency = Samples::default();
    let (mut similar_op, mut hybrid_op, mut text_first) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut sweep_rates = Vec::new();
    let mut answers = Vec::new();
    let mut queried = Vec::new();
    reset_peak_rss();
    let before = ObsTotals::capture();
    let start = Instant::now();
    let mut cycles = 0;
    while cycles == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        cycles += 1;
        let mut anchors: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut anchors);
        let t = Instant::now();
        let lake = ModelLake::open(&dir, LakeConfig::default()).map_err(err)?;
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let cold = ask(&lake, Ask::Similar, anchors[0], &catalog)?;
        first_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let text = ask(&lake, Ask::Text, anchors[0], &catalog)?;
        text_first.push(t.elapsed());
        answers.push((Ask::Similar, anchors[0], cold));
        answers.push((Ask::Text, anchors[0], text));

        // Warm sweep: alternate `similar` and hybrid over distinct anchors.
        let t_sweep = Instant::now();
        for (j, &a) in anchors[1..=sweep].iter().enumerate() {
            let q = Ask::sweep(j);
            let t = Instant::now();
            let hits = ask(&lake, q, a, &catalog)?;
            let took = t.elapsed();
            latency.push(took);
            match q {
                Ask::Similar => similar_op.push(took),
                _ => hybrid_op.push(took),
            }
            if j % CHECK_EVERY == 0 {
                answers.push((q, a, hits));
            }
        }
        sweep_rates.push(sweep as f64 / t_sweep.elapsed().as_secs_f64());
        resident.push(lake.resident_bytes() as f64);
        queried.extend_from_slice(&anchors[..=sweep]);
        drop(lake);
        release_freed();
        open_ms.extend(open_times(&dir, OPENS)?);
        report.attempted += (2 + sweep) as u64;
    }
    let totals = ObsTotals::capture().since(&before);
    report.set("peak_rss_mb", peak_rss_mb());
    let mismatches = answers
        .iter()
        .filter(|(q, a, hits)| *hits != expected[*a][*q as usize])
        .count();
    report.attempted += answers.len() as u64;
    report.fail(
        mismatches as u64,
        "reopened lake answers differ from the pre-persist lake",
    );

    report.set("ops_per_s", median(&sweep_rates));
    report.set("p50_ms", latency.pct_ms(0.5));
    report.set("p99_ms", latency.pct_ms(0.99));
    report.set("open_ms", cold::open_ms(&open_ms));
    report.set("first_query_ms", median(&first_ms));
    report.set(
        "success_ratio",
        1.0 - ratio(report.failed as f64, report.attempted as f64),
    );
    eprintln!(
        "lakebench: reopen_cold {cycles} cycles; open {:.1}ms (10th percentile) first query {:.1}ms; warm n={} p50={:.3}ms p99={:.3}ms",
        cold::open_ms(&open_ms),
        median(&first_ms),
        latency.len(),
        latency.pct_ms(0.5),
        latency.pct_ms(0.99),
    );

    if ctx.trace {
        totals.report(&mut report, cycles);
        report.set("core.similar_us", similar_op.mean_us());
        report.set("core.hybrid_us", hybrid_op.mean_us());
        report.set("core.text_us", text_first.mean_us());
        report.set(
            "core.resident_bytes",
            resident.iter().copied().fold(0.0, f64::max),
        );
        report.set(
            "wal.bytes_per_op",
            ratio(totals.wal_bytes as f64, report.attempted as f64),
        );

        // Cold decodes: each `model` call on a fresh open faults its blob.
        let lake = ModelLake::open(&dir, LakeConfig::default()).map_err(err)?;
        let mut decode = Samples::default();
        for &a in queried.iter().take(DECODES) {
            let t = Instant::now();
            std::hint::black_box(lake.model(ModelId(a as u64)).map_err(err)?);
            decode.push(t.elapsed());
        }
        report.set("core.model_decode_us", decode.mean_us());

        // The deferred build inserts every model; queries fingerprint
        // their anchor and search; text searches score family words.
        let models = (0..n as u64)
            .map(|i| lake.model(ModelId(i)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let models: Vec<&mlake_nn::Model> = models.iter().collect();
        let prints = layers::fingerprints(lake.fingerprinter(), &models);
        report.set("fingerprint.intrinsic_us", prints.intrinsic_us);
        report.set("fingerprint.extrinsic_us", prints.extrinsic_us);
        report.set("fingerprint.hybrid_us", prints.hybrid_us);
        let mut index = ShadowIndex::new(lake.config());
        for (i, m) in models.iter().enumerate() {
            index.insert(layers::route_key(m), i as u64, &prints.fps[i]);
        }
        let mut text = ShadowText::new();
        for (i, m) in models.iter().enumerate() {
            let arch = m.architecture().signature();
            let doc = inputs::text_document(&catalog.names[i], &arch, &cards[i]);
            text.load(i as u64, &doc);
        }
        for &a in queried.iter().take(SWEEP) {
            index.search(&prints.fps[a][2], K);
            text.search(&catalog.queries[a], K);
        }
        report.set("index.insert_us", index.insert.mean_us());
        report.set("index.search_us", index.search.mean_us());
        report.set("text.search_us", text.search.mean_us());
        let (append, sync) = layers::wal_replay(&ctx.work.join("scratch-wal"), &[]);
        report.set("wal.append_us", append);
        report.set("wal.sync_us", sync);
        report.zero(&[
            "rate_p99_ms",
            "load.late_p99_ms",
            "server.api_handle_us",
            "server.wire_share",
            "server.queue_depth_max",
            "server.coverage",
            "core.update_card_us",
            "core.ingest_us",
            "core.segment_bytes_per_persist",
            "core.ingest_coverage",
            "text.insert_us",
            "query.prepare_us",
            "query.run_us",
        ]);
        report.zero_proto();
    }
    Ok(report)
}
