//! `serve_mixed`: the served read path and the query cache.
//!
//! An in-memory lake of about 2,000 datagen models, every third card
//! withheld (as in E11, so the text and vector channels disagree), is
//! served over HTTP. Two keep-alive clients first run a closed loop,
//! then a fixed-rate open loop timed from each request's due time.
//! Similar anchors are Zipf-skewed so the 128-entry query cache gets
//! some hits; card edits bump the generation and invalidate it.

use crate::cold;
use crate::inputs::{self, Catalog};
use crate::layers::{self, ObsTotals, ShadowIndex, ShadowText};
use crate::report::{Report, OP_KINDS};
use crate::stats::{dir_bytes, median, peak_rss_mb, ratio, reset_peak_rss, Pacer, Samples, Zipf};
use crate::Ctx;
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_datagen::GroundTruth;
use mlake_fingerprint::FingerprintKind;
use mlake_load::HttpClient;
use mlake_proto::{
    decode_request, decode_response, encode_request, encode_response, ApiRequest, ApiResponse,
    WireRef,
};
use mlake_server::{Api, LakeRouter, Server, ServerConfig};
use mlake_tensor::{Pcg64, Seed};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MODELS: usize = 2000;
/// Open-loop arrivals per second: about 40% of the closed-loop capacity
/// of two clients on a 2-core host, so a healthy server keeps up.
const RATE: f64 = 600.0;
/// Share of the measured seconds spent in the closed loop.
const CLOSED_SHARE: f64 = 0.7;
const CLIENTS: usize = 2;
const K: usize = 10;
/// Zipf exponent of `similar` anchor popularity. Borrowed from datagen's
/// token-frequency law (`Domain::token_weights`), not measured from any
/// model-query trace, so the cache hit ratio it gives is not a claim
/// about real traffic.
const ZIPF_S: f64 = 1.1;
const UNDOCUMENTED_EVERY: usize = 3;
/// Every n-th read response of a client is kept and checked.
const CHECK_EVERY: usize = 8;
const SETUPS: usize = 3;
const LAKE: &str = "bench";
/// Requests replayed layer by layer in the traced run.
const REPLAY: usize = 1500;
/// Cold starts of the exported snapshot.
const COLD_STARTS: usize = 3;
/// Bare opens after each cold start, so `open_ms` comes from many opens
/// (see `cold`).
const OPENS: usize = 8;

#[derive(Clone)]
struct Op {
    kind: usize,
    req: ApiRequest,
    body: Vec<u8>,
    /// `(model, revision)` of a card edit.
    edit: Option<(usize, u64)>,
}

/// The request mix, deterministic in the client's random stream.
struct Mix<'a> {
    catalog: &'a Catalog,
    zipf: Zipf,
    /// Documented models each client may edit; disjoint, so the last
    /// acknowledged edit of a model is known exactly.
    editable: [Vec<usize>; CLIENTS],
}

impl Mix<'_> {
    fn op(&self, rng: &mut Pcg64, client: usize, stream: u64, edits: &mut u64) -> Op {
        let catalog = self.catalog;
        let anchor = self.zipf.sample(rng);
        let roll = rng.index(100);
        let (kind, req, edit) = match roll {
            0..=29 => (
                0,
                ApiRequest::Similar {
                    model: WireRef::Id(anchor as u64),
                    kind: FingerprintKind::Hybrid,
                    k: K,
                },
                None,
            ),
            30..=49 => (
                1,
                ApiRequest::TextSearch {
                    query: catalog.queries[anchor].clone(),
                    k: K,
                },
                None,
            ),
            50..=59 => (
                2,
                ApiRequest::HybridSearch {
                    query: catalog.queries[anchor].clone(),
                    model: WireRef::Id(anchor as u64),
                    kind: FingerprintKind::Hybrid,
                    k: K,
                },
                None,
            ),
            60..=69 => (
                3,
                ApiRequest::Query {
                    mlql: format!(
                        "FIND MODELS WHERE domain = '{}' AND params > {} LIMIT {K}",
                        catalog.domains[anchor],
                        catalog.params[anchor] / 2
                    ),
                },
                None,
            ),
            70..=84 => (
                4,
                ApiRequest::Resolve {
                    model: WireRef::Name(catalog.names[anchor].clone()),
                },
                None,
            ),
            85..=89 => (5, ApiRequest::ListModels, None),
            _ => {
                let pool = &self.editable[client];
                let model = pool[rng.index(pool.len())];
                *edits += 1;
                let rev = (stream << 32) | *edits;
                (
                    6,
                    ApiRequest::UpdateCard {
                        model: WireRef::Id(model as u64),
                        card: catalog.card(model, rev),
                    },
                    Some((model, rev)),
                )
            }
        };
        let body = encode_request(&req);
        Op {
            kind,
            req,
            body,
            edit,
        }
    }
}

#[derive(Default)]
struct ClientLog {
    latency: Samples,
    late: Samples,
    ops: Vec<Op>,
    failed: u64,
    checks: Vec<(ApiRequest, Vec<u8>)>,
    /// Last acknowledged revision per edited model.
    edits: BTreeMap<usize, u64>,
}

impl ClientLog {
    fn record(
        &mut self,
        op: Op,
        result: std::io::Result<mlake_load::HttpResponse>,
        reads: &mut usize,
    ) {
        match result {
            Ok(resp) if resp.status == 200 => {
                if let Some((model, rev)) = op.edit {
                    self.edits.insert(model, rev);
                } else {
                    *reads += 1;
                    if reads.is_multiple_of(CHECK_EVERY) {
                        self.checks.push((op.req.clone(), resp.body));
                    }
                }
            }
            Ok(resp) => {
                eprintln!("lakebench: {} answered {}", OP_KINDS[op.kind], resp.status);
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("lakebench: {} failed: {e}", OP_KINDS[op.kind]);
                self.failed += 1;
            }
        }
        self.ops.push(op);
    }
}

fn send(
    client: &mut Option<HttpClient>,
    addr: SocketAddr,
    op: &Op,
) -> std::io::Result<mlake_load::HttpResponse> {
    if client.is_none() {
        *client = Some(HttpClient::connect(addr)?);
    }
    let path = format!("/v1/lakes/{LAKE}/api");
    let result = client
        .as_mut()
        .expect("connected above")
        .request("POST", &path, &op.body);
    if result.is_err() {
        // The connection is in an unknown state; the next op reconnects.
        *client = None;
    }
    result
}

/// Closed loop: the next request leaves when the previous one lands.
fn closed_client(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    client: usize,
    start: Instant,
    len: Duration,
) -> ClientLog {
    let stream = client as u64;
    let mut rng = Seed::new(seed)
        .derive("serve-closed")
        .derive_u64(stream)
        .rng();
    let mut log = ClientLog::default();
    let (mut conn, mut edits, mut reads) = (None, 0u64, 0usize);
    while start.elapsed() < len {
        let op = mix.op(&mut rng, client, stream, &mut edits);
        let t = Instant::now();
        let result = send(&mut conn, addr, &op);
        log.latency.push(t.elapsed());
        log.record(op, result, &mut reads);
    }
    log
}

/// Open loop: this client sends every `CLIENTS`-th request of one
/// fixed-rate schedule, timed from its due time.
fn open_client(
    addr: SocketAddr,
    mix: &Mix,
    seed: u64,
    client: usize,
    start: Instant,
    len: Duration,
) -> ClientLog {
    let stream = (CLIENTS + client) as u64;
    let mut rng = Seed::new(seed)
        .derive("serve-open")
        .derive_u64(stream)
        .rng();
    let mut log = ClientLog::default();
    let (mut conn, mut edits, mut reads) = (None, 0u64, 0usize);
    let mut pacer = Pacer::new(start, RATE, client, CLIENTS);
    while pacer.next_offset() < len {
        let op = mix.op(&mut rng, client, stream, &mut edits);
        let due = pacer.wait();
        log.late.push(Instant::now().saturating_duration_since(due));
        let result = send(&mut conn, addr, &op);
        log.latency.push(due.elapsed());
        log.record(op, result, &mut reads);
    }
    log
}

/// Whether a served response equals the in-process facade's answer:
/// the same ids with the same score bits.
fn matches_facade(lake: &ModelLake, req: &ApiRequest, body: &[u8]) -> Result<bool, String> {
    let resp = decode_response(body).map_err(|e| e.to_string())?;
    let hybrid = FingerprintKind::Hybrid;
    let served = |hits: Vec<(u64, f32)>| -> Vec<(u64, u32)> {
        hits.into_iter().map(|(id, s)| (id, s.to_bits())).collect()
    };
    let e = |err: mlake_core::LakeError| err.to_string();
    Ok(match (req, resp) {
        (
            ApiRequest::Similar {
                model: WireRef::Id(a),
                k,
                ..
            },
            ApiResponse::Similar { hits },
        ) => {
            served(hits.iter().map(|h| (h.id, h.similarity)).collect())
                == cold::bits(&lake.similar(ModelId(*a), hybrid, *k).map_err(e)?)
        }
        (ApiRequest::TextSearch { query, k }, ApiResponse::Scored { hits }) => {
            served(hits.iter().map(|h| (h.id, h.score)).collect())
                == cold::bits(&lake.text_search(query, *k).map_err(e)?)
        }
        (
            ApiRequest::HybridSearch {
                query,
                model: WireRef::Id(a),
                k,
                ..
            },
            ApiResponse::Scored { hits },
        ) => {
            served(hits.iter().map(|h| (h.id, h.score)).collect())
                == cold::bits(
                    &lake
                        .hybrid_search(query, ModelId(*a), hybrid, *k)
                        .map_err(e)?,
                )
        }
        (ApiRequest::Query { mlql }, ApiResponse::Hits { hits }) => {
            let want = lake.prepare(mlql).map_err(e)?.run().map_err(e)?;
            hits.len() == want.len()
                && hits.iter().zip(&want).all(|(a, b)| {
                    a.id == b.id
                        && a.similarity.map(f32::to_bits) == b.similarity.map(f32::to_bits)
                        && a.text_score.map(f32::to_bits) == b.text_score.map(f32::to_bits)
                        && a.score.map(f64::to_bits) == b.score.map(f64::to_bits)
                })
        }
        (
            ApiRequest::Resolve {
                model: WireRef::Name(name),
            },
            ApiResponse::Resolved {
                id,
                name: got,
                digest,
            },
        ) => {
            let entry = lake.entry(name.as_str()).map_err(e)?;
            entry.id.0 == id && entry.name == got && entry.digest.to_hex() == digest
        }
        (ApiRequest::ListModels, ApiResponse::Models { names }) => names == lake.model_names(),
        _ => false,
    })
}

struct Served {
    server: Server,
    lake: Arc<ModelLake>,
}

/// Empty to serving: ingest every model, register, bind.
fn set_up(gt: &GroundTruth, catalog: &Catalog) -> Result<Served, String> {
    let lake = ModelLake::new(LakeConfig::default());
    for (i, m) in gt.models.iter().enumerate() {
        let card = (i % UNDOCUMENTED_EVERY != 0).then(|| catalog.card(i, 0));
        lake.ingest_model(&m.name, &m.model, card)
            .map_err(|e| e.to_string())?;
    }
    let router = Arc::new(LakeRouter::new());
    let lake = router.register(LAKE, lake);
    let server =
        Server::bind(router, "127.0.0.1:0", ServerConfig::default()).map_err(|e| e.to_string())?;
    Ok(Served { server, lake })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let gt = inputs::lake(MODELS, ctx.seed, ctx.smoke);
    let catalog = Catalog::new(&gt);
    let n = catalog.len();
    let mut report = Report::default();

    let mut setups = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(old) = served.take() {
            let Served { server, .. } = old;
            server.shutdown().map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        served = Some(set_up(&gt, &catalog)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let Served { server, lake } = served.expect("at least one setup");
    report.set("setup_s", median(&setups));
    let addr = server.addr();
    // The served lake holds the models; the input weights can go.
    drop(gt);

    let mut rng = Seed::new(ctx.seed).derive("serve-mix").rng();
    let documented: Vec<usize> = (0..n).filter(|i| i % UNDOCUMENTED_EVERY != 0).collect();
    let mix = Mix {
        catalog: &catalog,
        zipf: Zipf::new(n, ZIPF_S, &mut rng),
        editable: [
            documented.iter().copied().filter(|i| i % 2 == 0).collect(),
            documented.iter().copied().filter(|i| i % 2 == 1).collect(),
        ],
    };

    if ctx.trace {
        mlake_obs::registry().reset();
    }
    reset_peak_rss();
    let before = ObsTotals::capture();
    let closed_len = Duration::from_secs_f64(ctx.seconds * CLOSED_SHARE);
    let open_len = Duration::from_secs_f64(ctx.seconds * (1.0 - CLOSED_SHARE));
    let t = Instant::now();
    let closed: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mix = &mix;
                s.spawn(move || closed_client(addr, mix, ctx.seed, c, t, closed_len))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let closed_elapsed = t.elapsed().as_secs_f64();
    let start = Instant::now() + Duration::from_millis(5);
    let open: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mix = &mix;
                s.spawn(move || open_client(addr, mix, ctx.seed, c, start, open_len))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let totals = ObsTotals::capture().since(&before);
    let queue_depth_max = mlake_obs::registry().gauge("http.queue.depth").high_water();

    let mut latency = Samples::default();
    let mut rate_latency = Samples::default();
    let mut late = Samples::default();
    for log in &closed {
        latency.0.extend(&log.latency.0);
    }
    for log in &open {
        rate_latency.0.extend(&log.latency.0);
        late.0.extend(&log.late.0);
    }
    let closed_ops: usize = closed.iter().map(|l| l.ops.len()).sum();
    let open_ops: usize = open.iter().map(|l| l.ops.len()).sum();
    report.attempted = (closed_ops + open_ops) as u64;
    report.fail(
        closed.iter().chain(&open).map(|l| l.failed).sum(),
        "served requests",
    );

    // Checks: sampled responses against the facade, then every
    // acknowledged card edit (each client's edits, closed then open).
    let mut mismatches = 0;
    for log in closed.iter().chain(&open) {
        for (req, body) in &log.checks {
            if !matches_facade(&lake, req, body)? {
                mismatches += 1;
            }
        }
    }
    report.fail(mismatches, "served answers differ from the facade");
    let mut edited = BTreeMap::new();
    for log in closed.iter().chain(&open) {
        edited.extend(log.edits.iter().map(|(&m, &r)| (m, r)));
    }
    let lost = edited
        .iter()
        .filter(|(&m, &rev)| {
            lake.entry(ModelId(m as u64)).ok().map(|e| e.card) != Some(catalog.card(m, rev))
        })
        .count();
    report.fail(lost as u64, "acknowledged card edits missing");

    report.set("ops_per_s", closed_ops as f64 / closed_elapsed);
    report.set("p50_ms", latency.pct_ms(0.5));
    report.set("p99_ms", latency.pct_ms(0.99));
    report.set("rate_p99_ms", rate_latency.pct_ms(0.99));
    eprintln!(
        "lakebench: serve_mixed closed n={} p50={:.3}ms p99={:.3}ms; open n={} at {RATE}/s p99={:.3}ms, generator late p99={:.3}ms",
        latency.len(),
        latency.pct_ms(0.5),
        latency.pct_ms(0.99),
        rate_latency.len(),
        rate_latency.pct_ms(0.99),
        late.pct_ms(0.99),
    );
    server.shutdown().map_err(|e| e.to_string())?;

    // Lifecycle tail: snapshot the served lake, reopen it cold, and ask
    // the first question again.
    let export = ctx.work.join("serve-export");
    let t = Instant::now();
    lake.persist(&export).map_err(|e| e.to_string())?;
    report.set("persist_ms", t.elapsed().as_secs_f64() * 1e3);
    let stored = (0..n as u64)
        .map(|i| {
            lake.entry(ModelId(i))
                .map(|e| e.card)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let user = catalog.user_bytes(&stored);
    report.set("write_amp", ratio(dir_bytes(&export) as f64, user as f64));
    let anchors: Vec<ModelId> = (0..COLD_STARTS)
        .map(|_| ModelId(rng.index(n) as u64))
        .collect();
    let starts = cold::cold_starts(&export, &anchors, K, OPENS)?;
    report.set("open_ms", cold::open_ms(&starts.open_ms));
    report.set("first_query_ms", median(&starts.first_ms));
    for (&anchor, cold) in anchors.iter().zip(&starts.answers) {
        let warm = lake
            .similar(anchor, FingerprintKind::Hybrid, K)
            .map_err(|e| e.to_string())?;
        if cold::bits(&warm) != *cold {
            report.fail(1, "reopened snapshot answers differently");
        }
    }
    report.attempted += anchors.len() as u64;
    report.set(
        "success_ratio",
        1.0 - ratio(report.failed as f64, report.attempted as f64),
    );
    report.set("peak_rss_mb", peak_rss_mb());

    if ctx.trace {
        let latency_us = latency.mean_us();
        let replay: Vec<&Op> = interleave(&closed).into_iter().take(REPLAY).collect();
        replay_layers(&mut report, &lake, &catalog, &replay, latency_us);
        totals.report(&mut report, 0);
        report.set("server.queue_depth_max", queue_depth_max as f64);
        report.set(
            "wal.bytes_per_op",
            ratio(totals.wal_bytes as f64, report.attempted as f64),
        );
        let (append, sync) = layers::wal_replay(&ctx.work.join("scratch-wal"), &[]);
        report.set("wal.append_us", append);
        report.set("wal.sync_us", sync);
        report.set("core.resident_bytes", lake.resident_bytes() as f64);
        report.set("load.late_p99_ms", late.pct_ms(0.99));
        report.zero(&[
            "core.ingest_us",
            "index.insert_us",
            "core.segment_bytes_per_persist",
            "core.ingest_coverage",
        ]);
    }
    Ok(report)
}

/// Closed-loop requests in the order the two clients took turns.
fn interleave(logs: &[ClientLog]) -> Vec<&Op> {
    let longest = logs.iter().map(|l| l.ops.len()).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| logs.iter().filter_map(move |l| l.ops.get(i)))
        .collect()
}

/// Replays the closed-loop requests layer by layer: protocol decode,
/// `Api::handle` and encode in process, then the facade, fingerprint,
/// index, text and MLQL calls each request makes.
fn replay_layers(
    report: &mut Report,
    lake: &Arc<ModelLake>,
    catalog: &Catalog,
    ops: &[&Op],
    latency_us: f64,
) {
    let api = Api::new(Arc::clone(lake));
    let mut decode: Vec<Samples> = vec![Samples::default(); OP_KINDS.len()];
    let mut encode: Vec<Samples> = vec![Samples::default(); OP_KINDS.len()];
    let mut handle = Samples::default();
    let mut whole = Samples::default();
    for op in ops {
        let t0 = Instant::now();
        let req = decode_request(&op.body).expect("the benchmark's own requests decode");
        let t1 = Instant::now();
        let (_, resp) = api.handle(req);
        let t2 = Instant::now();
        std::hint::black_box(encode_response(&resp));
        let t3 = Instant::now();
        decode[op.kind].push(t1 - t0);
        handle.push(t2 - t1);
        encode[op.kind].push(t3 - t2);
        whole.push(t3 - t0);
    }
    for (i, kind) in OP_KINDS.iter().enumerate() {
        report.set(format!("proto.decode_us.{kind}"), decode[i].mean_us());
        report.set(format!("proto.encode_us.{kind}"), encode[i].mean_us());
    }
    report.set("server.api_handle_us", handle.mean_us());
    report.set(
        "server.wire_share",
        1.0 - ratio(handle.mean_us(), latency_us),
    );
    report.set("server.coverage", ratio(whole.mean_us(), latency_us));

    let hybrid = FingerprintKind::Hybrid;
    let (mut similar, mut text, mut hyb, mut edit, mut decode_model) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let (mut prepare, mut run) = (Samples::default(), Samples::default());
    let mut anchors = BTreeSet::new();
    for op in ops {
        let t = Instant::now();
        match &op.req {
            ApiRequest::Similar {
                model: WireRef::Id(a),
                k,
                ..
            } => {
                std::hint::black_box(
                    lake.similar(ModelId(*a), hybrid, *k)
                        .expect("replayed similar"),
                );
                similar.push(t.elapsed());
                let t = Instant::now();
                std::hint::black_box(lake.model(ModelId(*a)).expect("replayed decode"));
                decode_model.push(t.elapsed());
                anchors.insert(*a as usize);
            }
            ApiRequest::TextSearch { query, k } => {
                std::hint::black_box(lake.text_search(query, *k).expect("replayed text"));
                text.push(t.elapsed());
            }
            ApiRequest::HybridSearch {
                query,
                model: WireRef::Id(a),
                k,
                ..
            } => {
                std::hint::black_box(
                    lake.hybrid_search(query, ModelId(*a), hybrid, *k)
                        .expect("replayed hybrid"),
                );
                hyb.push(t.elapsed());
            }
            ApiRequest::Query { mlql } => {
                let prepared = lake.prepare(mlql).expect("replayed prepare");
                prepare.push(t.elapsed());
                let t = Instant::now();
                std::hint::black_box(prepared.run().expect("replayed run"));
                run.push(t.elapsed());
            }
            ApiRequest::UpdateCard {
                model: WireRef::Id(m),
                card,
            } => {
                lake.update_card(ModelId(*m), card.clone())
                    .expect("replayed edit");
                edit.push(t.elapsed());
            }
            _ => {}
        }
    }
    report.set("core.similar_us", similar.mean_us());
    report.set("core.text_us", text.mean_us());
    report.set("core.hybrid_us", hyb.mean_us());
    report.set("core.update_card_us", edit.mean_us());
    report.set("core.model_decode_us", decode_model.mean_us());
    report.set("query.prepare_us", prepare.mean_us());
    report.set("query.run_us", run.mean_us());

    // `similar` re-fingerprints its anchor, then searches the index.
    let models: Vec<mlake_nn::Model> = (0..catalog.len() as u64)
        .map(|i| lake.model(ModelId(i)).expect("every model decodes"))
        .collect();
    let models: Vec<&mlake_nn::Model> = models.iter().collect();
    let prints = layers::fingerprints(lake.fingerprinter(), &models);
    report.set("fingerprint.intrinsic_us", prints.intrinsic_us);
    report.set("fingerprint.extrinsic_us", prints.extrinsic_us);
    report.set("fingerprint.hybrid_us", prints.hybrid_us);
    let mut index = ShadowIndex::new(lake.config());
    for (i, m) in models.iter().enumerate() {
        index.insert(layers::route_key(m), i as u64, &prints.fps[i]);
    }
    for &a in &anchors {
        index.search(&prints.fps[a][2], K);
    }
    report.set("index.search_us", index.search.mean_us());

    // Card edits re-index one document; searches score the family words.
    let mut shadow = ShadowText::new();
    for (i, name) in catalog.names.iter().enumerate() {
        let entry = lake
            .entry(ModelId(i as u64))
            .expect("every model is registered");
        shadow.load(
            i as u64,
            &inputs::text_document(name, &entry.arch, &entry.card),
        );
    }
    for op in ops {
        match &op.req {
            ApiRequest::UpdateCard {
                model: WireRef::Id(m),
                card,
            } => {
                let entry = lake.entry(ModelId(*m)).expect("edited model is registered");
                shadow.insert(*m, &inputs::text_document(&entry.name, &entry.arch, card));
            }
            ApiRequest::TextSearch { query, k } => shadow.search(query, *k),
            _ => {}
        }
    }
    report.set("text.insert_us", shadow.insert.mean_us());
    report.set("text.search_us", shadow.search.mean_us());
}
