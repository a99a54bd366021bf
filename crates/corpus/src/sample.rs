//! SimPoint-style representative sampling of unit corpora.
//!
//! The full benchmark corpora are getting too large to analyze on every CI
//! run, and most units are near-duplicates of each other (the generators
//! draw from small structural pools on purpose). Borrowing the SimPoint
//! architecture — cluster cheap per-interval feature vectors, then simulate
//! only one representative per cluster, weighted by cluster size — this
//! module clusters *units* by a cheap structural feature vector and emits a
//! weighted representative subset whose weighted verdict counts estimate
//! the full corpus.
//!
//! # Feature vectors
//!
//! Features must be far cheaper than the quantity they predict (SimPoint
//! profiles basic blocks precisely because it cannot afford cycle-accurate
//! simulation everywhere). Here the expensive thing is dependence analysis,
//! so features come from a parse-and-collect pass only — no dependence test
//! runs. Per unit ([`FEATURE_NAMES`]):
//!
//! * **sites / writes** — access-site counts (the equation count of the
//!   dependence problems the unit will generate);
//! * **depth** — deepest normalized loop nest (subscript depth);
//! * **coupling** — most loop variables appearing in a single subscript;
//! * **sym-arity** — distinct symbolic coefficient names plus assumption
//!   environment size;
//! * **zif / siv / miv / symbolic** — the technique-outcome histogram:
//!   subscripts bucketed by the structural class that determines which
//!   dependence technique decides them (constant, single-index, coupled
//!   multi-index, run-time dimensioned);
//! * **linearized** — subscripts the paper's census counts as linearized
//!   (different-order contributions), the delinearization workload proper.
//!
//! # Clustering
//!
//! Seeded k-means (k-means++ initialization, deterministic tie-breaking
//! everywhere) over min-max-normalized vectors. For one seed the plan —
//! assignments, representatives, and weights — is a pure function of the
//! unit sequence, so two runs (or two worker counts: the sampler never
//! threads) produce identical subsets.

use delin_frontend::access::{collect_accesses, Subscript};
use delin_frontend::induction::substitute_inductions;
use delin_frontend::parse_program;
use delin_vic::batch::BatchUnit;
use delin_vic::deps::VerdictStats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Names of the per-unit feature dimensions, in vector order.
pub const FEATURE_NAMES: &[&str] = &[
    "sites",
    "writes",
    "depth",
    "coupling",
    "sym_arity",
    "zif",
    "siv",
    "miv",
    "symbolic",
    "linearized",
];

/// One unit's structural feature vector.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitFeatures {
    /// The unit's name.
    pub name: String,
    /// One entry per [`FEATURE_NAMES`] dimension.
    pub vector: Vec<f64>,
}

/// Computes the feature vector of one unit. Units that fail to parse get
/// the all-zero vector, which clusters them together (they are all equally
/// trivial to "analyze").
pub fn unit_features(unit: &BatchUnit) -> UnitFeatures {
    let mut v = vec![0.0; FEATURE_NAMES.len()];
    if let Ok(program) = parse_program(&unit.source) {
        let (substituted, _) = substitute_inductions(&program);
        let sites = collect_accesses(&substituted, &unit.assumptions);
        let mut symbols: BTreeSet<String> = BTreeSet::new();
        for (sym, _) in unit.assumptions.iter() {
            symbols.insert(sym.name().to_string());
        }
        let mut depth = 0usize;
        let mut coupling = 0usize;
        let mut zif = 0usize;
        let mut siv = 0usize;
        let mut miv = 0usize;
        let mut symbolic = 0usize;
        let mut linearized = 0usize;
        let mut writes = 0usize;
        for site in &sites {
            writes += usize::from(matches!(site.kind, delin_frontend::access::AccessKind::Write));
            depth = depth.max(site.loops.len());
            for sub in &site.subscripts {
                let Subscript::Affine(a) = sub else { continue };
                coupling = coupling.max(a.num_vars());
                let mut has_symbolic = false;
                let mut magnitudes: BTreeSet<u128> = BTreeSet::new();
                for (_, c) in a.terms() {
                    match c.as_constant() {
                        Some(value) => {
                            magnitudes.insert(value.unsigned_abs());
                        }
                        None => {
                            has_symbolic = true;
                            for sym in c.symbols() {
                                symbols.insert(sym.name().to_string());
                            }
                        }
                    }
                }
                match (has_symbolic, a.num_vars()) {
                    (true, _) => symbolic += 1,
                    (false, 0) => zif += 1,
                    (false, 1) => siv += 1,
                    (false, _) => miv += 1,
                }
                if a.num_vars() >= 2 && (has_symbolic || magnitudes.len() >= 2) {
                    linearized += 1;
                }
            }
        }
        v[0] = sites.len() as f64;
        v[1] = writes as f64;
        v[2] = depth as f64;
        v[3] = coupling as f64;
        v[4] = symbols.len() as f64;
        v[5] = zif as f64;
        v[6] = siv as f64;
        v[7] = miv as f64;
        v[8] = symbolic as f64;
        v[9] = linearized as f64;
    }
    UnitFeatures { name: unit.name.clone(), vector: v }
}

/// Sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleConfig {
    /// Target cluster count (clamped to the corpus size).
    pub clusters: usize,
    /// RNG seed for k-means++ initialization.
    pub seed: u64,
    /// Iteration cap (assignments usually stabilize far earlier).
    pub iterations: usize,
}

impl Default for SampleConfig {
    fn default() -> SampleConfig {
        SampleConfig { clusters: 8, seed: 0xde11_4ea1, iterations: 64 }
    }
}

/// One cluster's elected representative.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Representative {
    /// Index of the representative unit in the input sequence.
    pub index: usize,
    /// The representative unit's name.
    pub name: String,
    /// Cluster size: how many corpus units this representative stands for
    /// (including itself). Weighted estimates scale the representative's
    /// per-unit statistics by this count.
    pub weight: usize,
}

/// A weighted representative subset of a corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplePlan {
    /// Elected representatives, sorted by input index.
    pub representatives: Vec<Representative>,
    /// Cluster id of every input unit (parallel to the input sequence).
    pub assignments: Vec<usize>,
    /// Units in the input sequence.
    pub total_units: usize,
}

impl SamplePlan {
    /// Fraction of the corpus the sampled run actually analyzes.
    pub fn sampled_fraction(&self) -> f64 {
        if self.total_units == 0 {
            return 0.0;
        }
        self.representatives.len() as f64 / self.total_units as f64
    }
}

fn squared_distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Min-max normalizes each dimension in place so no feature dominates the
/// distance metric by unit of measure alone. Constant dimensions become 0.
fn normalize(vectors: &mut [Vec<f64>]) {
    if vectors.is_empty() {
        return;
    }
    let dims = vectors[0].len();
    for d in 0..dims {
        let min = vectors.iter().map(|v| v[d]).fold(f64::INFINITY, f64::min);
        let max = vectors.iter().map(|v| v[d]).fold(f64::NEG_INFINITY, f64::max);
        let range = max - min;
        for v in vectors.iter_mut() {
            v[d] = if range > 0.0 { (v[d] - min) / range } else { 0.0 };
        }
    }
}

/// Clusters `features` with seeded k-means and elects one weighted
/// representative per cluster. Deterministic for a fixed config: ties in
/// every argmin/argmax break toward the lowest index.
pub fn sample_features(features: &[UnitFeatures], config: &SampleConfig) -> SamplePlan {
    let n = features.len();
    if n == 0 {
        return SamplePlan { representatives: Vec::new(), assignments: Vec::new(), total_units: 0 };
    }
    let mut vectors: Vec<Vec<f64>> = features.iter().map(|f| f.vector.clone()).collect();
    normalize(&mut vectors);
    let k = config.clusters.clamp(1, n);
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // k-means++ initialization: the first centroid is drawn uniformly, each
    // later one proportionally to squared distance from the chosen set.
    let mut centroids: Vec<Vec<f64>> = vec![vectors[rng.gen_range(0..n)].clone()];
    while centroids.len() < k {
        let d2: Vec<f64> = vectors
            .iter()
            .map(|v| centroids.iter().map(|c| squared_distance(v, c)).fold(f64::INFINITY, f64::min))
            .collect();
        let total: f64 = d2.iter().sum();
        let next = if total > 0.0 {
            // Inverse-CDF draw over the d² weights; deterministic in seed.
            // (The vendored rand shim has no float ranges, so the uniform
            // fraction comes from an integer draw.)
            let mut target = rng.gen_range(0..1_000_000u64) as f64 / 1.0e6 * total;
            let mut chosen = 0;
            for (i, w) in d2.iter().enumerate() {
                chosen = i;
                if target < *w {
                    break;
                }
                target -= w;
            }
            chosen
        } else {
            rng.gen_range(0..n) // all points coincide with a centroid
        };
        centroids.push(vectors[next].clone());
    }

    let mut assignments = vec![0usize; n];
    for _ in 0..config.iterations.max(1) {
        // Assignment step (ties toward the lowest cluster id).
        let mut changed = false;
        for (i, v) in vectors.iter().enumerate() {
            let mut best = 0usize;
            let mut best_d = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = squared_distance(v, centroid);
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update step; an emptied cluster is reseeded to the point farthest
        // from its centroid set (lowest index on ties) so k never shrinks.
        for c in 0..k {
            let members: Vec<&Vec<f64>> =
                vectors.iter().zip(&assignments).filter(|(_, &a)| a == c).map(|(v, _)| v).collect();
            if members.is_empty() {
                let far = vectors
                    .iter()
                    .enumerate()
                    .max_by(|(ia, a), (ib, b)| {
                        let da = centroids
                            .iter()
                            .map(|x| squared_distance(a, x))
                            .fold(f64::INFINITY, f64::min);
                        let db = centroids
                            .iter()
                            .map(|x| squared_distance(b, x))
                            .fold(f64::INFINITY, f64::min);
                        da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal).then(ib.cmp(ia))
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroids[c] = vectors[far].clone();
                changed = true;
                continue;
            }
            let dims = centroids[c].len();
            let mut mean = vec![0.0; dims];
            for v in &members {
                for (m, x) in mean.iter_mut().zip(v.iter()) {
                    *m += x;
                }
            }
            for m in &mut mean {
                *m /= members.len() as f64;
            }
            centroids[c] = mean;
        }
        if !changed {
            break;
        }
    }

    // Elect the member closest to each centroid (lowest index on ties).
    let mut representatives = Vec::new();
    for (c, centroid) in centroids.iter().enumerate().take(k) {
        let mut best: Option<(usize, f64)> = None;
        let mut weight = 0usize;
        for (i, v) in vectors.iter().enumerate() {
            if assignments[i] != c {
                continue;
            }
            weight += 1;
            let d = squared_distance(v, centroid);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        if let Some((index, _)) = best {
            representatives.push(Representative {
                index,
                name: features[index].name.clone(),
                weight,
            });
        }
    }
    representatives.sort_by_key(|r| r.index);
    SamplePlan { representatives, assignments, total_units: n }
}

/// Convenience: features then clustering in one call.
pub fn sample_units(units: &[BatchUnit], config: &SampleConfig) -> SamplePlan {
    let features: Vec<UnitFeatures> = units.iter().map(unit_features).collect();
    sample_features(&features, config)
}

/// The weighted full-corpus estimate extrapolated from representative
/// verdict statistics: each representative's scheduling-independent counts,
/// scaled by its cluster weight.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WeightedEstimate {
    /// Estimated reference pairs across the full corpus.
    pub pairs_tested: f64,
    /// Estimated pairs proven independent.
    pub proven_independent: f64,
    /// Estimated conservative (all-`*`) pairs.
    pub conservative_pairs: f64,
    /// Estimated exact-solver nodes.
    pub solver_nodes: f64,
    /// Estimated pairs per deciding technique.
    pub decided_by: BTreeMap<String, f64>,
}

impl WeightedEstimate {
    /// Extrapolates from per-representative stats, ordered like
    /// [`SamplePlan::representatives`].
    pub fn from_stats(plan: &SamplePlan, rep_stats: &[VerdictStats]) -> WeightedEstimate {
        let mut est = WeightedEstimate::default();
        for (rep, stats) in plan.representatives.iter().zip(rep_stats) {
            let w = rep.weight as f64;
            est.pairs_tested += w * stats.pairs_tested as f64;
            est.proven_independent += w * stats.proven_independent as f64;
            est.conservative_pairs += w * stats.conservative_pairs as f64;
            est.solver_nodes += w * stats.solver_nodes as f64;
            for (&name, &count) in &stats.decided_by {
                *est.decided_by.entry(name.to_string()).or_insert(0.0) += w * count as f64;
            }
        }
        est
    }

    /// The verdict-mix error of this estimate against the measured full
    /// corpus, in percent: the worst of (a) the relative pair-count error
    /// and (b) the absolute difference of each verdict-mix share
    /// (independent, conservative, and per-technique decided-by, all as
    /// fractions of pairs tested).
    pub fn mix_error_pct(&self, full: &VerdictStats) -> f64 {
        let full_pairs = full.pairs_tested as f64;
        if full_pairs == 0.0 {
            return if self.pairs_tested == 0.0 { 0.0 } else { 100.0 };
        }
        let est_pairs = self.pairs_tested.max(f64::MIN_POSITIVE);
        let mut worst = (self.pairs_tested - full_pairs).abs() / full_pairs;
        let mut shares: Vec<(f64, f64)> = vec![
            (self.proven_independent / est_pairs, full.proven_independent as f64 / full_pairs),
            (self.conservative_pairs / est_pairs, full.conservative_pairs as f64 / full_pairs),
        ];
        let mut techniques: BTreeSet<String> = self.decided_by.keys().cloned().collect();
        techniques.extend(full.decided_by.keys().map(|k| k.to_string()));
        for t in techniques {
            let est = self.decided_by.get(&t).copied().unwrap_or(0.0) / est_pairs;
            let measured =
                full.decided_by.get(t.as_str()).copied().unwrap_or(0) as f64 / full_pairs;
            shares.push((est, measured));
        }
        for (est, measured) in shares {
            worst = worst.max((est - measured).abs());
        }
        worst * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{generated_units, refinement_units};

    #[test]
    fn features_are_structural_and_deterministic() {
        let units: Vec<BatchUnit> = generated_units(9, 7).collect();
        let a: Vec<UnitFeatures> = units.iter().map(unit_features).collect();
        let b: Vec<UnitFeatures> = units.iter().map(unit_features).collect();
        assert_eq!(a, b);
        for f in &a {
            assert_eq!(f.vector.len(), FEATURE_NAMES.len());
        }
        // Generated units are two-deep nests with coupled subscripts.
        let classic = &a[1]; // index 1: constant-stride variant
        assert!(classic.vector[2] >= 2.0, "depth: {:?}", classic.vector);
        assert!(classic.vector[3] >= 2.0, "coupling: {:?}", classic.vector);
        // Symbolic-stride units (every third) report symbolic subscripts.
        assert!(a[0].vector[8] > 0.0, "symbolic: {:?}", a[0].vector);
        assert_eq!(a[1].vector[8], 0.0, "constant unit: {:?}", a[1].vector);
    }

    #[test]
    fn unparseable_units_get_zero_vectors() {
        let f = unit_features(&BatchUnit::new("bad", "DO 1 i = \nEND\n"));
        assert!(f.vector.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn sampling_is_deterministic_and_covers_the_corpus() {
        let units: Vec<BatchUnit> = generated_units(18, 7).chain(refinement_units(12, 3)).collect();
        let config = SampleConfig { clusters: 5, seed: 11, iterations: 64 };
        let a = sample_units(&units, &config);
        let b = sample_units(&units, &config);
        assert_eq!(a, b, "fixed seed must reproduce the plan exactly");
        assert_eq!(a.total_units, units.len());
        assert!(!a.representatives.is_empty());
        assert!(a.representatives.len() <= 5);
        let total_weight: usize = a.representatives.iter().map(|r| r.weight).sum();
        assert_eq!(total_weight, units.len(), "weights must partition the corpus");
        assert!(a.sampled_fraction() < 1.0, "sampling must actually shrink the corpus");
        // A different seed is allowed to pick different representatives but
        // must still partition the corpus.
        let c = sample_units(&units, &SampleConfig { seed: 12, ..config });
        let w: usize = c.representatives.iter().map(|r| r.weight).sum();
        assert_eq!(w, units.len());
    }

    #[test]
    fn clusters_clamp_to_corpus_size() {
        let units: Vec<BatchUnit> = generated_units(3, 7).collect();
        let plan = sample_units(&units, &SampleConfig { clusters: 50, seed: 1, iterations: 8 });
        assert!(plan.representatives.len() <= 3);
        let w: usize = plan.representatives.iter().map(|r| r.weight).sum();
        assert_eq!(w, 3);
    }

    #[test]
    fn weighted_estimate_is_exact_on_identical_units() {
        // Ten copies of one unit cluster together; the weighted estimate
        // from the single representative must reproduce the full corpus
        // verdict mix exactly.
        let units: Vec<BatchUnit> = (0..10)
            .map(|i| {
                BatchUnit::new(
                    format!("same/{i}"),
                    "REAL C(0:399)\nDO 1 i = 0, 4\nDO 1 j = 0, 9\n\
                     1   C(i + 10*j) = C(i + 10*j + 5)\nEND\n",
                )
            })
            .collect();
        let plan = sample_units(&units, &SampleConfig { clusters: 3, seed: 7, iterations: 16 });
        let runner = delin_vic::batch::BatchRunner::new(delin_vic::batch::BatchConfig {
            workers: 1,
            ..delin_vic::batch::BatchConfig::default()
        });
        let full = runner.run(units.clone());
        let reps: Vec<BatchUnit> =
            plan.representatives.iter().map(|r| units[r.index].clone()).collect();
        let rep_stats: Vec<VerdictStats> = {
            let stats = runner.run(reps);
            plan.representatives
                .iter()
                .map(|r| {
                    stats
                        .units
                        .iter()
                        .find(|u| u.name == units[r.index].name)
                        .expect("representative report")
                        .stats
                        .verdict_stats()
                })
                .collect()
        };
        let est = WeightedEstimate::from_stats(&plan, &rep_stats);
        let full_totals = full.totals.verdict_stats();
        assert_eq!(est.pairs_tested, full_totals.pairs_tested as f64);
        assert!(est.mix_error_pct(&full_totals) < 1e-9, "{}", est.mix_error_pct(&full_totals));
    }
}
