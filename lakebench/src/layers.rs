//! Per-layer replays for the traced run. Each helper times calls into
//! one layer's public functions from the benchmark's own code, on the
//! inputs the workload's timed phase used; nothing here adds a span
//! inside the program. Replays run only after the timed phase.

use crate::stats::{mean, Samples};
use mlake_core::hash::sha256;
use mlake_core::LakeConfig;
use mlake_fingerprint::Fingerprinter;
use mlake_index::{HnswIndex, ShardedIndex, VectorIndex};
use mlake_nn::Model;
use mlake_text::{Bm25Params, Field, TextIndex};
use mlake_wal::{SyncPolicy, Wal, WalOptions};
use std::path::Path;
use std::time::{Duration, Instant};

/// A model's three fingerprints, in `FingerprintKind::ALL` order.
pub type Fps = [Vec<f32>; 3];

/// Mean microseconds per call of each fingerprinter, plus the prints.
pub struct FingerprintTimes {
    pub intrinsic_us: f64,
    pub extrinsic_us: f64,
    pub hybrid_us: f64,
    pub fps: Vec<Fps>,
}

pub fn fingerprints(fp: &Fingerprinter, models: &[&Model]) -> FingerprintTimes {
    let (mut intr, mut extr, mut hyb) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut fps = Vec::with_capacity(models.len());
    for model in models {
        let t = Instant::now();
        let a = fp.intrinsic(model);
        intr.push(t.elapsed());
        let t = Instant::now();
        let b = fp.extrinsic(model).expect("workload models fingerprint");
        extr.push(t.elapsed());
        let t = Instant::now();
        let c = fp.hybrid(model).expect("workload models fingerprint");
        hyb.push(t.elapsed());
        fps.push([a, b, c]);
    }
    FingerprintTimes {
        intrinsic_us: intr.mean_us(),
        extrinsic_us: extr.mean_us(),
        hybrid_us: hyb.mean_us(),
        fps,
    }
}

/// The digest-derived shard routing key the lake uses for a model.
pub fn route_key(model: &Model) -> u64 {
    sha256(&model.to_bytes().expect("workload models serialize")).route_key()
}

/// A shadow of the lake's three fingerprint indexes, built with the
/// lake's own HNSW configuration and shard count.
pub struct ShadowIndex {
    kinds: Vec<ShardedIndex<HnswIndex>>,
    pub insert: Samples,
    pub search: Samples,
}

impl ShadowIndex {
    pub fn new(config: &LakeConfig) -> ShadowIndex {
        let kinds = (0..3)
            .map(|_| {
                ShardedIndex::new(config.shards, || HnswIndex::new(config.hnsw))
                    .with_rescore_factor(config.hnsw.rescore_factor)
            })
            .collect();
        ShadowIndex {
            kinds,
            insert: Samples::default(),
            search: Samples::default(),
        }
    }

    /// Inserts one model into all three indexes, as one ingest does.
    pub fn insert(&mut self, route: u64, id: u64, fps: &Fps) {
        let t = Instant::now();
        for (index, fp) in self.kinds.iter_mut().zip(fps) {
            index.insert_by_key(route, id, fp).expect("shadow insert");
        }
        self.insert.push(t.elapsed());
    }

    /// One `similar` probe: the hybrid-print index, `k + 1` hits.
    pub fn search(&mut self, hybrid_fp: &[f32], k: usize) {
        let t = Instant::now();
        std::hint::black_box(
            self.kinds[2]
                .search(hybrid_fp, k + 1)
                .expect("shadow search"),
        );
        self.search.push(t.elapsed());
    }
}

/// A shadow BM25 index fed the same documents as the lake's.
pub struct ShadowText {
    index: TextIndex,
    pub insert: Samples,
    pub search: Samples,
}

impl ShadowText {
    pub fn new() -> ShadowText {
        ShadowText {
            index: TextIndex::new(Bm25Params::default()),
            insert: Samples::default(),
            search: Samples::default(),
        }
    }

    /// Inserts without timing (state the timed calls start from).
    pub fn load(&mut self, doc: u64, fields: &[(Field, String)]) {
        self.index.insert(doc, fields);
    }

    pub fn insert(&mut self, doc: u64, fields: &[(Field, String)]) -> Duration {
        let t = Instant::now();
        self.index.insert(doc, fields);
        let took = t.elapsed();
        self.insert.push(took);
        took
    }

    pub fn search(&mut self, query: &str, k: usize) {
        let t = Instant::now();
        std::hint::black_box(self.index.search(query, k));
        self.search.push(t.elapsed());
    }
}

/// Appends records of the given framed sizes to a scratch WAL under
/// `dir` and returns the mean append and fsync microseconds. Each
/// append is followed by an explicit sync, which is what
/// `SyncPolicy::Always` does inside one append.
pub fn wal_replay(dir: &Path, record_bytes: &[u64]) -> (f64, f64) {
    if record_bytes.is_empty() {
        return (0.0, 0.0);
    }
    let opts = WalOptions {
        sync: SyncPolicy::Batch { every: u32::MAX },
        ..WalOptions::default()
    };
    let (wal, _) = Wal::open(dir, opts).expect("scratch WAL opens");
    // The framing overhead, so each replayed record has the lake's size.
    let before = wal.live_bytes();
    wal.append(&[]).expect("scratch WAL append");
    let header = wal.live_bytes() - before;
    wal.sync().expect("scratch WAL sync");
    let (mut append, mut sync) = (Vec::new(), Vec::new());
    for &bytes in record_bytes {
        let payload = vec![0x5a; bytes.saturating_sub(header) as usize];
        let t = Instant::now();
        wal.append(&payload).expect("scratch WAL append");
        append.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        wal.sync().expect("scratch WAL sync");
        sync.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (mean(&append), mean(&sync))
}

/// The program's own counters the per-layer metrics read, captured at
/// one instant so a phase's share is the difference of two captures.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObsTotals {
    pub cache_hit: u64,
    pub cache_miss: u64,
    pub store_faults: u64,
    pub expansions: u64,
    pub searches: u64,
    pub wal_bytes: u64,
    pub index_builds: u64,
    pub index_build_ns: u64,
}

impl ObsTotals {
    pub fn capture() -> ObsTotals {
        let snap = mlake_obs::snapshot();
        let build = snap.histogram("lake.index.build");
        ObsTotals {
            cache_hit: snap.counter("cache.hit"),
            cache_miss: snap.counter("cache.miss"),
            store_faults: snap.counter("store.fault"),
            expansions: snap.counter("hnsw.search.expansions"),
            searches: snap.counter("hnsw.search.queries"),
            wal_bytes: snap.counter("wal.bytes"),
            index_builds: build.map_or(0, |h| h.count),
            index_build_ns: build.map_or(0, |h| h.count * h.mean_ns),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &ObsTotals) -> ObsTotals {
        ObsTotals {
            cache_hit: self.cache_hit - earlier.cache_hit,
            cache_miss: self.cache_miss - earlier.cache_miss,
            store_faults: self.store_faults - earlier.store_faults,
            expansions: self.expansions - earlier.expansions,
            searches: self.searches - earlier.searches,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            index_builds: self.index_builds - earlier.index_builds,
            index_build_ns: self.index_build_ns - earlier.index_build_ns,
        }
    }

    pub fn add(&mut self, other: &ObsTotals) {
        self.cache_hit += other.cache_hit;
        self.cache_miss += other.cache_miss;
        self.store_faults += other.store_faults;
        self.expansions += other.expansions;
        self.searches += other.searches;
        self.wal_bytes += other.wal_bytes;
        self.index_builds += other.index_builds;
        self.index_build_ns += other.index_build_ns;
    }

    /// Sets the counter-derived per-layer metrics; `opens` is the number
    /// of lake opens the phase made (faults are reported per open).
    pub fn report(&self, report: &mut crate::report::Report, opens: usize) {
        use crate::stats::ratio;
        let hits = self.cache_hit as f64;
        report.set(
            "core.cache_hit_ratio",
            ratio(hits, hits + self.cache_miss as f64),
        );
        report.set(
            "core.index_build_ms",
            ratio(self.index_build_ns as f64, self.index_builds as f64) / 1e6,
        );
        report.set(
            "core.store_faults",
            ratio(self.store_faults as f64, opens.max(1) as f64),
        );
        report.set(
            "index.expansions_per_query",
            ratio(self.expansions as f64, self.searches as f64),
        );
    }
}
