//! Workload inputs: a datagen lake (models with recorded ground truth)
//! and the cards the benchmark installs, all a pure function of the seed.

use mlake_cards::ModelCard;
use mlake_core::populate::honest_card;
use mlake_datagen::{generate_lake, GroundTruth, LakeSpec};
use mlake_text::Field;

/// Generates about `models` datagen models (a tiny lake when `smoke`).
pub fn lake(models: usize, seed: u64, smoke: bool) -> GroundTruth {
    let spec = if smoke {
        LakeSpec::tiny(seed)
    } else {
        // Datagen makes one base model plus four derivations per family.
        LakeSpec::builder()
            .seed(seed)
            .num_base_models((models / 5).max(1))
            .derivations_per_base(4)
            .build()
            .expect("a lake spec with at least one family is valid")
    };
    generate_lake(&spec)
}

/// What the workloads need of a datagen lake besides the model weights,
/// so the weights can be dropped once the lake under test holds them
/// and the benchmark's own copies stay out of `peak_rss_mb`.
pub struct Catalog {
    pub names: Vec<String>,
    /// The text query a curator looking for each model's family would
    /// type: the family's controlled vocabulary.
    pub queries: Vec<String>,
    pub domains: Vec<String>,
    pub params: Vec<usize>,
    /// Serialized blob size of each model.
    blob_bytes: Vec<u64>,
    /// Each model's honest card, before any revision stamp.
    cards: Vec<ModelCard>,
}

impl Catalog {
    pub fn new(gt: &GroundTruth) -> Catalog {
        let models = &gt.models;
        Catalog {
            names: models.iter().map(|m| m.name.clone()).collect(),
            queries: models
                .iter()
                .map(|m| gt.family_vocab(m.family).join(" "))
                .collect(),
            domains: models.iter().map(|m| m.domain.name().to_string()).collect(),
            params: models.iter().map(|m| m.model.num_params()).collect(),
            blob_bytes: models
                .iter()
                .map(|m| m.model.to_bytes().map_or(0, |b| b.len() as u64))
                .collect(),
            cards: (0..models.len()).map(|i| honest_card(gt, i)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// The honest card of model `i` with a revision stamp in its notes.
    ///
    /// Every revision stamp is the same two tokens (`rev <n>`), so a card
    /// edit that only bumps the stamp changes neither a document's length
    /// nor the postings of any query term: BM25, hybrid and MLQL answers
    /// stay bit-identical while every edit still runs the full write path.
    pub fn card(&self, i: usize, rev: u64) -> ModelCard {
        let mut card = self.cards[i].clone();
        card.notes = format!("{} rev {rev}", card.notes);
        card
    }

    /// Blob plus card-JSON bytes of every model with the given cards: the
    /// user data a lake stores, the denominator of `write_amp`.
    pub fn user_bytes(&self, cards: &[ModelCard]) -> u64 {
        let json = |c: &ModelCard| serde_json::to_vec(c).map_or(0, |b| b.len() as u64);
        self.blob_bytes.iter().sum::<u64>() + cards.iter().map(json).sum::<u64>()
    }
}

/// The fielded text the lake indexes for a model. Mirrors the lake's
/// crate-private `text_document` so the shadow text index does the same
/// work per document.
pub fn text_document(name: &str, arch: &str, card: &ModelCard) -> Vec<(Field, String)> {
    let mut doc = vec![
        (Field::Name, name.to_string()),
        (Field::Arch, arch.to_string()),
        (Field::Tags, card.task_tags.join(" ")),
        (Field::Domains, card.domains.join(" ")),
        (Field::Notes, card.notes.clone()),
    ];
    if let Some(alg) = &card.training_algorithm {
        doc.push((Field::Algorithm, alg.clone()));
    }
    let lineage: Vec<&str> = [
        card.lineage.base_model.as_deref(),
        card.lineage.transform.as_deref(),
        card.lineage.second_parent.as_deref(),
    ]
    .into_iter()
    .flatten()
    .collect();
    if !lineage.is_empty() {
        doc.push((Field::Lineage, lineage.join(" ")));
    }
    if !card.training_data.is_empty() {
        let names: Vec<&str> = card
            .training_data
            .iter()
            .map(|t| t.dataset_name.as_str())
            .collect();
        doc.push((Field::Datasets, names.join(" ")));
    }
    if !card.metrics.is_empty() {
        let names: Vec<&str> = card.metrics.iter().map(|m| m.benchmark.as_str()).collect();
        doc.push((Field::Benchmarks, names.join(" ")));
    }
    doc
}
