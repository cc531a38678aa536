//! Cold starts of a persisted lake, for the workloads that end in one.
//!
//! Every workload reports `open_ms` as the 10th percentile of many opens
//! spread over its run. An open is single-threaded work whose cost the
//! host's contention can only add to, and on a shared 2-vCPU VM that
//! contention comes in phases of seconds to minutes that slow opens by
//! 20-40%. Within a run the fastest tenth of the opens, which a single
//! lucky open does not set, follows the program's own cost where the
//! median follows the phase; a phase that outlasts a run slows them all.

use crate::stats::{percentile, release_freed};
use mlake_core::{LakeConfig, ModelId, ModelLake};
use mlake_fingerprint::FingerprintKind;
use std::path::Path;
use std::time::Instant;

/// Search hits as exact bits, for bit-identity checks.
pub fn bits(hits: &[(ModelId, f32)]) -> Vec<(u64, u32)> {
    hits.iter().map(|(id, s)| (id.0, s.to_bits())).collect()
}

/// What a series of cold starts measured.
#[derive(Default)]
pub struct ColdStarts {
    /// Every open: each cold start's, then the bare ones after it.
    pub open_ms: Vec<f64>,
    pub first_ms: Vec<f64>,
    /// Each start's first answer, as [`bits`].
    pub answers: Vec<Vec<(u64, u32)>>,
}

/// One cold start per anchor: open `dir` (metadata only), then time the
/// first `similar`, which pays the deferred index build and the blob
/// fault-in. `opens` bare opens follow each start, so `open_ms` has
/// many samples spread over the starts. Each lake is dropped, and its
/// memory released, before the next opens.
pub fn cold_starts(
    dir: &Path,
    anchors: &[ModelId],
    k: usize,
    opens: usize,
) -> Result<ColdStarts, String> {
    let mut out = ColdStarts::default();
    for &anchor in anchors {
        let t = Instant::now();
        let lake = ModelLake::open(dir, LakeConfig::default()).map_err(|e| e.to_string())?;
        out.open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let hits = lake
            .similar(anchor, FingerprintKind::Hybrid, k)
            .map_err(|e| e.to_string())?;
        out.first_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.answers.push(bits(&hits));
        drop(lake);
        release_freed();
        out.open_ms.extend(open_times(dir, opens)?);
    }
    Ok(out)
}

/// The `open_ms` figure of a run's opens (see the module doc).
pub fn open_ms(samples: &[f64]) -> f64 {
    percentile(samples, 0.1)
}

/// Times `n` bare opens of `dir` (metadata only, no query). Each lake
/// is dropped, and its memory released, before the next opens.
pub fn open_times(dir: &Path, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            let lake = ModelLake::open(dir, LakeConfig::default()).map_err(|e| e.to_string())?;
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(lake);
            release_freed();
            Ok(ms)
        })
        .collect()
}
