//! `ingest_durable`: the write path, in process on one thread.
//!
//! Each round creates an empty durable lake (`SyncPolicy::Always`) and
//! ingests about 1,000 models with honest cards, editing one earlier
//! card per four ingests so writes that re-index run beside writes that
//! add, back to back. A delta persist runs every 100 ops. A round ends
//! with a final persist and `gc`, then a reopen that must hold every
//! acknowledged ingest and card edit. Set-up is timed as creating a
//! lake and making its first 100 durable ingests, half of the set-ups
//! before the rounds and half after.

use crate::cold;
use crate::inputs::{self, Catalog};
use crate::layers::{self, ObsTotals, ShadowIndex, ShadowText};
use crate::report::Report;
use crate::stats::{
    dir_bytes, mean, median, peak_rss_mb, ratio, release_freed, reset_peak_rss, Samples,
};
use crate::Ctx;
use mlake_cards::ModelCard;
use mlake_core::hash::{sha256, Digest};
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_datagen::GroundTruth;
use mlake_fingerprint::FingerprintKind;
use mlake_tensor::Seed;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

const MODELS: usize = 1000;
const EDIT_EVERY: usize = 4;
const PERSIST_EVERY: usize = 100;
/// Set-ups before the timed rounds, and again after them, so one run's
/// figure samples the host at two moments.
const SETUPS: usize = 3;
/// Models a set-up ingests: "ready" is a created lake that has taken
/// its first durable writes. On a shared 2-vCPU VM an empty create took
/// 0.4-5 ms, mostly fsync, and with 10 ingests the 10-run median still
/// moved 75% between two sets; 100 average over model sizes and stalls.
const WARMUP: usize = 100;
/// Cold starts of each round's lake.
const COLD_STARTS: usize = 3;
/// Bare opens after each cold start, so `open_ms` comes from many opens
/// spread over the rounds (see `cold`).
const OPENS: usize = 4;
const K: usize = 10;

#[derive(Clone, Copy)]
enum Write {
    Ingest(usize),
    /// `(model, revision)`.
    Edit(usize, u64),
}

/// Everything the rounds measure.
#[derive(Default)]
struct Acc {
    latency: Samples,
    ingest: Samples,
    edit: Samples,
    /// Ops per second of each persist interval.
    interval_rates: Vec<f64>,
    persist_ms: Vec<f64>,
    segment_bytes: Vec<f64>,
    write_amp: Vec<f64>,
    open_ms: Vec<f64>,
    first_ms: Vec<f64>,
    resident: Vec<f64>,
    totals: ObsTotals,
    /// First round's writes and their WAL record bytes (traced run).
    plan: Vec<Write>,
    record_bytes: Vec<u64>,
}

fn names(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default()
}

fn persist(lake: &ModelLake, dir: &Path, acc: &mut Acc) -> Result<(), String> {
    let segs = dir.join("segs");
    let before = names(&segs);
    let t = Instant::now();
    lake.persist(dir).map_err(|e| e.to_string())?;
    acc.persist_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let new: u64 = names(&segs)
        .difference(&before)
        .filter_map(|n| std::fs::metadata(segs.join(n)).ok())
        .map(|m| m.len())
        .sum();
    acc.segment_bytes.push(new as f64);
    Ok(())
}

fn round(
    ctx: &Ctx,
    gt: &GroundTruth,
    catalog: &Catalog,
    digests: &[Digest],
    r: usize,
    acc: &mut Acc,
    report: &mut Report,
) -> Result<(), String> {
    let n = gt.models.len();
    let dir = ctx.work.join(format!("round-{r}"));
    let lake = ModelLake::create(&dir, LakeConfig::default()).map_err(|e| e.to_string())?;
    let mut rng = Seed::new(ctx.seed)
        .derive("ingest-round")
        .derive_u64(r as u64)
        .rng();
    let mut cards: Vec<ModelCard> = (0..n).map(|i| catalog.card(i, 0)).collect();
    let wal_bytes = mlake_obs::registry().counter("wal.bytes");
    // Tiny smoke lakes persist more often, so every stage still runs.
    let persist_every = PERSIST_EVERY.min((n / 4).max(1));
    let (mut ops, mut edits) = (0usize, 0u64);
    let before = ObsTotals::capture();
    let mut interval = Instant::now();
    for i in 0..n {
        let mut writes = vec![Write::Ingest(i)];
        if (i + 1) % EDIT_EVERY == 0 {
            edits += 1;
            writes.push(Write::Edit(rng.index(i + 1), ((r as u64) << 32) | edits));
        }
        for write in writes {
            let wal_before = wal_bytes.get();
            let t = Instant::now();
            let result = match write {
                Write::Ingest(i) => {
                    let m = &gt.models[i];
                    lake.ingest_model(&m.name, &m.model, Some(cards[i].clone()))
                        .map(|_| ())
                }
                Write::Edit(m, rev) => {
                    let card = catalog.card(m, rev);
                    let result = lake.update_card(ModelId(m as u64), card.clone());
                    if result.is_ok() {
                        cards[m] = card;
                    }
                    result
                }
            };
            let took = t.elapsed();
            acc.latency.push(took);
            match write {
                Write::Ingest(_) => acc.ingest.push(took),
                Write::Edit(..) => acc.edit.push(took),
            }
            if r == 0 {
                acc.plan.push(write);
                acc.record_bytes.push(wal_bytes.get() - wal_before);
            }
            if let Err(e) = result {
                report.fail(1, &e.to_string());
            }
            ops += 1;
            if ops % persist_every == 0 {
                persist(&lake, &dir, acc)?;
                acc.interval_rates
                    .push(persist_every as f64 / interval.elapsed().as_secs_f64());
                interval = Instant::now();
            }
        }
    }
    acc.totals.add(&ObsTotals::capture().since(&before));
    report.attempted += ops as u64;

    persist(&lake, &dir, acc)?;
    lake.gc().map_err(|e| e.to_string())?;
    let user = catalog.user_bytes(&cards);
    acc.write_amp
        .push(ratio(dir_bytes(&dir) as f64, user as f64));
    acc.resident.push(lake.resident_bytes() as f64);
    let anchors: Vec<ModelId> = (0..COLD_STARTS)
        .map(|_| ModelId(rng.index(n) as u64))
        .collect();
    let live = anchors
        .iter()
        .map(|&a| {
            lake.similar(a, FingerprintKind::Hybrid, K)
                .map(|h| cold::bits(&h))
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    drop(lake);

    // Reopen: the first cold answers, then every acknowledged write.
    let starts = cold::cold_starts(&dir, &anchors, K, OPENS)?;
    acc.open_ms.extend(&starts.open_ms);
    acc.first_ms.extend(&starts.first_ms);
    report.attempted += anchors.len() as u64;
    let differ = live
        .iter()
        .zip(&starts.answers)
        .filter(|(a, b)| a != b)
        .count();
    report.fail(differ as u64, "reopened lake answers differently");
    let lake = ModelLake::open(&dir, LakeConfig::default()).map_err(|e| e.to_string())?;
    let lost = gt
        .models
        .iter()
        .enumerate()
        .filter(|(i, m)| match lake.entry(m.name.as_str()) {
            Ok(e) => e.digest != digests[*i] || e.card != cards[*i],
            Err(_) => true,
        })
        .count();
    report.fail(
        lost as u64,
        "acknowledged ingests or card edits missing after reopen",
    );
    drop(lake);
    release_freed();
    // The round's files stay until the run ends: deleting them now
    // would queue discards behind the next round's fsyncs.
    Ok(())
}

/// Seconds from nothing to a durable lake that has taken its first
/// `WARMUP` ingests, once per set-up number in `runs`.
fn set_up(
    ctx: &Ctx,
    gt: &GroundTruth,
    catalog: &Catalog,
    runs: std::ops::Range<usize>,
) -> Result<Vec<f64>, String> {
    let mut took = Vec::new();
    for s in runs {
        let dir = ctx.work.join(format!("setup-{s}"));
        let t = Instant::now();
        let lake = ModelLake::create(&dir, LakeConfig::default()).map_err(|e| e.to_string())?;
        for (i, m) in gt.models.iter().enumerate().take(WARMUP) {
            lake.ingest_model(&m.name, &m.model, Some(catalog.card(i, 0)))
                .map_err(|e| e.to_string())?;
        }
        took.push(t.elapsed().as_secs_f64());
    }
    Ok(took)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let gt = inputs::lake(MODELS, ctx.seed, ctx.smoke);
    let digests: Vec<Digest> = gt
        .models
        .iter()
        .map(|m| {
            m.model
                .to_bytes()
                .map(|b| sha256(&b))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let catalog = Catalog::new(&gt);
    let mut report = Report::default();

    let mut setups = set_up(ctx, &gt, &catalog, 0..SETUPS)?;
    let mut acc = Acc::default();
    reset_peak_rss();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        round(ctx, &gt, &catalog, &digests, rounds, &mut acc, &mut report)?;
        rounds += 1;
    }
    report.set("peak_rss_mb", peak_rss_mb());
    setups.extend(set_up(ctx, &gt, &catalog, SETUPS..2 * SETUPS)?);
    report.set("setup_s", median(&setups));

    report.set("ops_per_s", median(&acc.interval_rates));
    report.set("p50_ms", acc.latency.pct_ms(0.5));
    report.set("p99_ms", acc.latency.pct_ms(0.99));
    report.set("persist_ms", median(&acc.persist_ms));
    report.set("write_amp", median(&acc.write_amp));
    report.set("open_ms", cold::open_ms(&acc.open_ms));
    report.set("first_query_ms", median(&acc.first_ms));
    report.set(
        "success_ratio",
        1.0 - ratio(report.failed as f64, report.attempted as f64),
    );
    eprintln!(
        "lakebench: ingest_durable {rounds} rounds; n={} p50={:.3}ms p99={:.3}ms; persists n={} median {:.2}ms",
        acc.latency.len(),
        acc.latency.pct_ms(0.5),
        acc.latency.pct_ms(0.99),
        acc.persist_ms.len(),
        median(&acc.persist_ms),
    );

    if ctx.trace {
        replay_layers(ctx, &mut report, &gt, &catalog, &acc, rounds);
    }
    Ok(report)
}

/// Replays the first round's writes layer by layer: fingerprints, the
/// three index inserts, text (re-)indexing and WAL append + fsync.
fn replay_layers(
    ctx: &Ctx,
    report: &mut Report,
    gt: &GroundTruth,
    catalog: &Catalog,
    acc: &Acc,
    rounds: usize,
) {
    let config = LakeConfig::default();
    let probe = ModelLake::new(config.clone());
    let models: Vec<&mlake_nn::Model> = gt.models.iter().map(|m| &m.model).collect();
    let prints = layers::fingerprints(probe.fingerprinter(), &models);
    let mut index = ShadowIndex::new(&config);
    let mut text = ShadowText::new();
    let mut ingest_text = Samples::default();
    for write in &acc.plan {
        match *write {
            Write::Ingest(i) => {
                let m = &gt.models[i];
                index.insert(layers::route_key(&m.model), i as u64, &prints.fps[i]);
                let arch = m.model.architecture().signature();
                let doc = inputs::text_document(&m.name, &arch, &catalog.card(i, 0));
                ingest_text.push(text.insert(i as u64, &doc));
            }
            Write::Edit(i, rev) => {
                let m = &gt.models[i];
                let arch = m.model.architecture().signature();
                text.insert(
                    i as u64,
                    &inputs::text_document(&m.name, &arch, &catalog.card(i, rev)),
                );
            }
        }
    }
    let (append, sync) = layers::wal_replay(&ctx.work.join("scratch-wal"), &acc.record_bytes);
    let ingest_us = acc.ingest.mean_us();
    let parts = prints.intrinsic_us
        + prints.extrinsic_us
        + prints.hybrid_us
        + index.insert.mean_us()
        + append
        + sync
        + ingest_text.mean_us();
    report.set("fingerprint.intrinsic_us", prints.intrinsic_us);
    report.set("fingerprint.extrinsic_us", prints.extrinsic_us);
    report.set("fingerprint.hybrid_us", prints.hybrid_us);
    report.set("index.insert_us", index.insert.mean_us());
    report.set("text.insert_us", text.insert.mean_us());
    report.set("wal.append_us", append);
    report.set("wal.sync_us", sync);
    let bytes: u64 = acc.record_bytes.iter().sum();
    report.set(
        "wal.bytes_per_op",
        ratio(bytes as f64, acc.record_bytes.len() as f64),
    );
    report.set("core.ingest_us", ingest_us);
    report.set("core.update_card_us", acc.edit.mean_us());
    report.set("core.ingest_coverage", ratio(parts, ingest_us));
    report.set("core.segment_bytes_per_persist", mean(&acc.segment_bytes));
    report.set(
        "core.resident_bytes",
        acc.resident.iter().copied().fold(0.0, f64::max),
    );
    acc.totals.report(report, rounds);
    report.zero(&[
        "rate_p99_ms",
        "load.late_p99_ms",
        "server.api_handle_us",
        "server.wire_share",
        "server.queue_depth_max",
        "server.coverage",
        "core.similar_us",
        "core.text_us",
        "core.hybrid_us",
        "core.model_decode_us",
        "index.search_us",
        "text.search_us",
        "query.prepare_us",
        "query.run_us",
    ]);
    report.zero_proto();
}
