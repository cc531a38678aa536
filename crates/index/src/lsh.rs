//! Random-hyperplane locality-sensitive hashing (Charikar 2002) for cosine
//! similarity — the classical sublinear baseline HNSW is compared against.

use crate::{Hit, VectorIndex};
use mlake_tensor::{vector, Pcg64, TensorError};
use std::collections::HashMap;

/// LSH parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LshConfig {
    /// Number of hash tables (more tables → higher recall, more memory).
    pub tables: usize,
    /// Hyperplanes (signature bits) per table (more bits → smaller buckets).
    pub bits: usize,
    /// Seed for hyperplane directions.
    pub seed: u64,
}

impl Default for LshConfig {
    fn default() -> Self {
        LshConfig {
            tables: 8,
            bits: 12,
            seed: 0,
        }
    }
}

/// Multi-table sign-random-projection index.
#[derive(Debug, Clone)]
pub struct LshIndex {
    config: LshConfig,
    dim: usize,
    /// Hyperplanes per table, lazily materialised at first insert:
    /// `planes[t]` is `bits × dim`, flattened.
    planes: Vec<Vec<f32>>,
    /// Buckets per table: signature → vector indices.
    buckets: Vec<HashMap<u64, Vec<u32>>>,
    ids: Vec<u64>,
    data: Vec<f32>,
}

impl LshIndex {
    /// Creates an empty index.
    pub fn new(config: LshConfig) -> LshIndex {
        LshIndex {
            config: LshConfig {
                tables: config.tables.max(1),
                bits: config.bits.clamp(1, 63),
                seed: config.seed,
            },
            dim: 0,
            planes: Vec::new(),
            buckets: Vec::new(),
            ids: Vec::new(),
            data: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> LshConfig {
        self.config
    }

    fn materialize_planes(&mut self) {
        let mut rng = Pcg64::with_stream(self.config.seed, 0x004c_5348);
        self.planes = (0..self.config.tables)
            .map(|_| {
                let mut p = vec![0.0f32; self.config.bits * self.dim];
                rng.fill_normal(&mut p);
                p
            })
            .collect();
        self.buckets = vec![HashMap::new(); self.config.tables];
    }

    fn signature(&self, table: usize, v: &[f32]) -> u64 {
        let planes = &self.planes[table];
        let mut sig = 0u64;
        for b in 0..self.config.bits {
            let plane = &planes[b * self.dim..(b + 1) * self.dim];
            if vector::dot(plane, v) >= 0.0 {
                sig |= 1 << b;
            }
        }
        sig
    }

    #[inline]
    fn vec_of(&self, idx: u32) -> &[f32] {
        &self.data[idx as usize * self.dim..(idx as usize + 1) * self.dim]
    }

    /// Candidate set size for a query — exposed so experiments can report
    /// how much of the lake LSH actually scans.
    pub fn candidate_count(&self, query: &[f32]) -> usize {
        if self.dim == 0 || query.len() != self.dim {
            return 0;
        }
        let mut q = query.to_vec();
        vector::normalize(&mut q);
        let mut seen = std::collections::HashSet::new();
        for t in 0..self.config.tables {
            let sig = self.signature(t, &q);
            if let Some(b) = self.buckets[t].get(&sig) {
                seen.extend(b.iter().copied());
            }
        }
        seen.len()
    }
}

impl VectorIndex for LshIndex {
    fn insert(&mut self, id: u64, vec_in: &[f32]) -> Result<(), TensorError> {
        if vec_in.is_empty() {
            return Err(TensorError::Empty("lsh insert"));
        }
        if self.dim == 0 {
            self.dim = vec_in.len();
            self.materialize_planes();
        } else if vec_in.len() != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "lsh_insert",
                lhs: (self.dim, 1),
                rhs: (vec_in.len(), 1),
            });
        }
        if self.ids.contains(&id) {
            return Err(TensorError::Numerical("duplicate id in index"));
        }
        let mut v = vec_in.to_vec();
        vector::normalize(&mut v);
        let idx = self.ids.len() as u32;
        for t in 0..self.config.tables {
            let sig = self.signature(t, &v);
            self.buckets[t].entry(sig).or_default().push(idx);
        }
        self.ids.push(id);
        self.data.extend_from_slice(&v);
        Ok(())
    }

    fn search(&self, query: &[f32], k: usize) -> Result<Vec<Hit>, TensorError> {
        if self.dim == 0 {
            return Ok(Vec::new());
        }
        if query.len() != self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "lsh_search",
                lhs: (self.dim, 1),
                rhs: (query.len(), 1),
            });
        }
        let mut q = query.to_vec();
        vector::normalize(&mut q);
        let mut seen: Vec<u32> = Vec::new();
        for t in 0..self.config.tables {
            let sig = self.signature(t, &q);
            if let Some(b) = self.buckets[t].get(&sig) {
                seen.extend(b.iter().copied());
            }
        }
        seen.sort_unstable();
        seen.dedup();
        let mut hits: Vec<Hit> = seen
            .into_iter()
            .map(|i| Hit {
                id: self.ids[i as usize],
                distance: crate::distance(&q, self.vec_of(i)),
            })
            .collect();
        hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        hits.truncate(k);
        Ok(hits)
    }

    fn search_many(&self, queries: &[Vec<f32>], k: usize) -> Result<Vec<Vec<Hit>>, TensorError> {
        crate::par_search_many(self, queries, k)
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn name(&self) -> &'static str {
        "lsh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;

    fn clustered_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        // Clustered data: LSH's home turf.
        let mut rng = Pcg64::new(seed);
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..dim).map(|_| rng.normal() * 3.0).collect())
            .collect();
        (0..n)
            .map(|i| {
                let c = &centers[i % centers.len()];
                c.iter().map(|&x| x + rng.normal() * 0.3).collect()
            })
            .collect()
    }

    #[test]
    fn finds_near_duplicates() {
        let mut idx = LshIndex::new(LshConfig::default());
        let vecs = clustered_vectors(400, 16, 1);
        for (i, v) in vecs.iter().enumerate() {
            idx.insert(i as u64, v).unwrap();
        }
        // Query with a slightly perturbed copy of vector 5.
        let q: Vec<f32> = vecs[5].iter().map(|&x| x + 0.01).collect();
        let hits = idx.search(&q, 5).unwrap();
        assert!(!hits.is_empty());
        assert_eq!(hits[0].id, 5);
    }

    #[test]
    fn recall_reasonable_on_clusters() {
        let vecs = clustered_vectors(600, 16, 2);
        let mut lsh = LshIndex::new(LshConfig { tables: 12, bits: 10, seed: 3 });
        let mut flat = FlatIndex::new();
        for (i, v) in vecs.iter().enumerate() {
            lsh.insert(i as u64, v).unwrap();
            flat.insert(i as u64, v).unwrap();
        }
        let mut acc = 0.0f32;
        // Queries near the indexed clusters (perturbed members): the regime
        // LSH serves — locating near-duplicates and close versions.
        let mut qrng = Pcg64::new(4);
        let queries: Vec<Vec<f32>> = (0..20)
            .map(|i| vecs[i * 13].iter().map(|&x| x + qrng.normal() * 0.1).collect())
            .collect();
        for q in &queries {
            let truth: std::collections::HashSet<u64> =
                flat.search(q, 5).unwrap().iter().map(|h| h.id).collect();
            let got = lsh.search(q, 5).unwrap();
            acc += got.iter().filter(|h| truth.contains(&h.id)).count() as f32 / 5.0;
        }
        let recall = acc / queries.len() as f32;
        assert!(recall > 0.5, "recall {recall}");
    }

    #[test]
    fn candidate_count_is_sublinear_on_clusters() {
        let vecs = clustered_vectors(500, 16, 5);
        let mut lsh = LshIndex::new(LshConfig { tables: 4, bits: 14, seed: 6 });
        for (i, v) in vecs.iter().enumerate() {
            lsh.insert(i as u64, v).unwrap();
        }
        let c = lsh.candidate_count(&vecs[0]);
        assert!(c > 0);
        assert!(c < 400, "candidate count {c} not sublinear");
    }

    #[test]
    fn validation_and_empty() {
        let mut idx = LshIndex::new(LshConfig::default());
        assert!(idx.search(&[1.0, 0.0], 3).unwrap().is_empty());
        idx.insert(1, &[1.0, 0.0, 0.0]).unwrap();
        assert!(idx.insert(1, &[0.0, 1.0, 0.0]).is_err());
        assert!(idx.insert(2, &[1.0]).is_err());
        assert!(idx.insert(3, &[]).is_err());
        assert!(idx.search(&[1.0], 1).is_err());
        assert_eq!(idx.name(), "lsh");
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.candidate_count(&[9.0]), 0);
    }

    #[test]
    fn bits_clamped() {
        let idx = LshIndex::new(LshConfig { tables: 0, bits: 99, seed: 0 });
        assert_eq!(idx.config().tables, 1);
        assert_eq!(idx.config().bits, 63);
    }
}
