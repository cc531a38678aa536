//! # mlake-index
//!
//! Vector indexes over model embeddings — the lake's **indexer** component
//! (§5: "A central component of a model lake is the indexer, which would be
//! used to embed and provide scalable sublinear search over the model
//! embeddings... Indices like HNSW have proven effective in practice").
//!
//! Three interchangeable implementations behind [`VectorIndex`]:
//! * [`flat::FlatIndex`] — exact scan, the recall ground truth and the
//!   baseline every approximate index must beat on latency;
//! * [`hnsw::HnswIndex`] — Hierarchical Navigable Small World graphs
//!   (Malkov & Yashunin 2020), built from scratch;
//! * [`lsh::LshIndex`] — random-hyperplane locality-sensitive hashing, the
//!   classical sublinear alternative.
//!
//! [`sharded::ShardedIndex`] composes any of them into `N` digest-routed
//! sub-shards searched scatter-gather, so search cost scales with shard
//! size and cores rather than lake size.
//!
//! All indexes use cosine distance over L2-normalised vectors, matching the
//! fingerprint metric.

pub mod eval;
pub mod flat;
pub mod hnsw;
pub mod lsh;
pub mod sharded;

pub use eval::recall_at_k;
pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use lsh::{LshConfig, LshIndex};
pub use sharded::ShardedIndex;

use mlake_tensor::TensorError;

/// Scan/traversal precision of an index.
///
/// Under [`Precision::Sq8Rescore`] the index keeps an SQ8 code arena
/// (`mlake_tensor::quant`) alongside the f32 data: candidate generation —
/// the flat block scan or the HNSW beam — runs on integer kernels over the
/// codes, then the top `rescore_factor · k` candidates are re-ranked with
/// the exact f32 kernels. Returned distances therefore always match the
/// [`Precision::F32`] path's semantics; quantization only costs recall when
/// it pushes a true neighbour out of the rescore pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// Full-precision f32 storage and kernels (the default).
    #[default]
    F32,
    /// SQ8 codes drive candidate generation; f32 re-ranks the pool.
    Sq8Rescore,
}

/// Default rescore pool multiplier for [`Precision::Sq8Rescore`].
pub const DEFAULT_RESCORE_FACTOR: usize = 4;

/// Vector count at which SQ8 indexes calibrate their codec. Earlier
/// inserts scan in f32 (the sample is too small to be representative);
/// when the threshold is crossed the whole arena is backfilled.
pub const SQ8_TRAIN_MIN: usize = 64;

/// Cosine distance `1 − a·b` between two unit vectors: the one distance
/// kernel behind every index (graph build, backlink pruning, beam search,
/// flat scans, LSH candidates and SQ8 rescoring).
///
/// Sixteen independent f32 accumulators (four 4-lane chains) keep the
/// multiply-adds throughput-bound instead of waiting on one add chain.
/// The association order depends only on the length: element `i` lands in
/// accumulator `i mod 16`, the chains fold lane-wise, then the four lanes
/// fold as `(l0 + l1) + (l2 + l3)`. The same inputs therefore give the
/// same bits on every thread count, shard layout and precision mode.
///
/// `mlake_tensor::vector::dot` keeps its own order: MLP forward passes,
/// datagen training and persisted fingerprints depend on its bits.
#[inline]
pub(crate) fn distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 16];
    let (ca, ta) = a.as_chunks::<16>();
    let (cb, tb) = b.as_chunks::<16>();
    for (x, y) in ca.iter().zip(cb) {
        acc = std::array::from_fn(|k| acc[k] + x[k] * y[k]);
    }
    for ((s, x), y) in acc.iter_mut().zip(ta).zip(tb) {
        *s += x * y;
    }
    let mut lanes = [0.0f32; 4];
    for chain in acc.as_chunks::<4>().0 {
        for (lane, x) in lanes.iter_mut().zip(chain) {
            *lane += x;
        }
    }
    1.0 - ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
}

/// A search hit: external id plus cosine distance (smaller is closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Caller-supplied identifier.
    pub id: u64,
    /// Cosine distance to the query.
    pub distance: f32,
}

/// Common interface over all index implementations.
pub trait VectorIndex {
    /// Inserts a vector under an external id. Ids must be unique; dimensions
    /// must match the index's first insert.
    fn insert(&mut self, id: u64, vector: &[f32]) -> Result<(), TensorError>;

    /// Inserts a batch of vectors.
    ///
    /// The default is the sequential insert loop (stopping at the first
    /// error); implementations with a concurrent build path — see
    /// [`hnsw::HnswIndex`] — override it to validate the whole batch up
    /// front and link in parallel.
    fn insert_batch(&mut self, items: &[(u64, Vec<f32>)]) -> Result<(), TensorError> {
        for (id, v) in items {
            self.insert(*id, v)?;
        }
        Ok(())
    }

    /// Returns up to `k` nearest neighbours, ascending by distance.
    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, TensorError>;

    /// Batched search: one result list per query, in query order.
    ///
    /// The default is the sequential query loop; implementations override
    /// it to answer queries in parallel on the shared pool. Queries are
    /// independent, so per-query results are identical to [`Self::search`]
    /// regardless of thread count. The first error (in query order) is
    /// returned if any query fails.
    fn search_many(&self, queries: &[Vec<f32>], k: usize) -> Result<Vec<Vec<Hit>>, TensorError> {
        queries.iter().map(|q| self.search(q, k)).collect()
    }

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// `true` when no vectors are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short implementation name for reports ("hnsw", "lsh", "flat").
    fn name(&self) -> &'static str;
}

/// Answers `queries` in parallel on the shared pool, one [`VectorIndex::search`]
/// per query, results in query order; the first error (in query order) wins.
///
/// The building block behind the `search_many` overrides of the concrete
/// indexes — exposed so external [`VectorIndex`] implementations can reuse it.
pub fn par_search_many<I: VectorIndex + Sync + ?Sized>(
    index: &I,
    queries: &[Vec<f32>],
    k: usize,
) -> Result<Vec<Vec<Hit>>, TensorError> {
    mlake_par::par_map(queries, |q| index.search(q, k))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlake_tensor::{vector, Pcg64};

    fn unit_rows(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Pcg64::new(seed);
        (0..n)
            .map(|_| {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.normal()).collect();
                vector::normalize(&mut v);
                v
            })
            .collect()
    }

    #[test]
    fn distance_agrees_with_vector_dot() {
        for dim in [0, 1, 15, 16, 17, 64, 72, 136] {
            let rows = unit_rows(40, dim, 50 + dim as u64);
            for pair in rows.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                let want = vector::dot(a, b);
                let got = 1.0 - distance(a, b);
                let scale: f32 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
                assert!(
                    (got - want).abs() <= 1e-5 * scale.max(f32::MIN_POSITIVE),
                    "dim {dim}: kernel {got} vs vector::dot {want}"
                );
            }
            assert_eq!(distance(&rows[0], &rows[0]) < 1e-5, dim > 0);
        }
    }

    #[test]
    fn distance_bits_do_not_depend_on_threads() {
        for dim in [1, 17, 72, 136] {
            let rows = unit_rows(512, dim, 60 + dim as u64);
            let q = &rows[0];
            let bits = |d: Vec<f32>| d.into_iter().map(f32::to_bits).collect::<Vec<_>>();
            let serial = bits(mlake_par::serial(|| mlake_par::par_map(&rows, |r| distance(q, r))));
            let pooled = bits(mlake_par::par_map(&rows, |r| distance(q, r)));
            assert_eq!(serial, pooled, "dim {dim}: pool vs serial");
            let quarter = |part: &[Vec<f32>]| bits(part.iter().map(|r| distance(q, r)).collect());
            let threaded: Vec<Vec<u32>> = std::thread::scope(|s| {
                let handles: Vec<_> =
                    rows.chunks(rows.len() / 4).map(|part| s.spawn(move || quarter(part))).collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(serial, threaded.concat(), "dim {dim}: 4 threads vs serial");
        }
    }

    #[test]
    fn every_index_reports_the_same_distance_bits() {
        let n = 300;
        let rows = unit_rows(n, 72, 70);
        let mut flat = FlatIndex::new();
        let mut hnsw = HnswIndex::new(HnswConfig { seed: 3, ..Default::default() });
        let mut sq8 = HnswIndex::new(HnswConfig {
            seed: 3,
            precision: Precision::Sq8Rescore,
            ..Default::default()
        });
        let mut lsh = LshIndex::new(LshConfig { tables: 16, bits: 4, seed: 1 });
        for (i, v) in rows.iter().enumerate() {
            flat.insert(i as u64, v).unwrap();
            hnsw.insert(i as u64, v).unwrap();
            sq8.insert(i as u64, v).unwrap();
            lsh.insert(i as u64, v).unwrap();
        }
        for q in unit_rows(8, 72, 71) {
            let truth = flat.search(&q, n).unwrap();
            let others = [
                ("hnsw", hnsw.search_ef(&q, 20, 80).unwrap()),
                ("hnsw-sq8", sq8.search_ef(&q, 20, 80).unwrap()),
                ("lsh", lsh.search(&q, 20).unwrap()),
            ];
            for (name, hits) in others {
                assert!(!hits.is_empty(), "{name}");
                for h in hits {
                    let t = truth.iter().find(|t| t.id == h.id).unwrap();
                    assert_eq!(h.distance.to_bits(), t.distance.to_bits(), "{name} id {}", h.id);
                }
            }
        }
    }
}
