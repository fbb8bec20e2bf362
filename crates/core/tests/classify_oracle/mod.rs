//! A structural oracle for `oct_core::conflict::classify_pair`, shared by
//! the property suite of `oct-core` and the dataset differential suite of
//! `oct-datagen` (which includes this file by path).

use oct_core::conflict::PairClass;
use oct_core::input::Instance;
use oct_core::similarity::SimilarityKind;

/// `δ` in hundredths; every threshold these tests use is one.
fn hundredths(delta: f64) -> u64 {
    let n = (delta * 100.0).round();
    assert!(
        (n / 100.0 - delta).abs() < 1e-12,
        "δ={delta} is not in hundredths"
    );
    n as u64
}

/// The structural oracle for `classify_pair`: it recounts the pair's
/// shared items from the sets, decides Exact nesting with the subset test
/// (never from the counts the classifier reads), and evaluates the paper's
/// §3.3 together/separately predicates for the other variants in exact
/// integer arithmetic (δ = n/100).
pub fn oracle_class(instance: &Instance, hi: usize, lo: usize) -> PairClass {
    let (a, b) = (&instance.sets[hi].items, &instance.sets[lo].items);
    let shared = a.intersection(b);
    let inter = shared.len() as u64;
    let eff = shared
        .iter()
        .filter(|&item| instance.bound_of(item) == 1)
        .count() as u64;
    let (q1, q2) = (a.len() as u64, b.len() as u64);
    let (n1, n2) = (
        hundredths(instance.threshold_of(hi)),
        hundredths(instance.threshold_of(lo)),
    );
    match instance.similarity.kind {
        SimilarityKind::Exact => PairClass {
            can_together: b.is_subset_of(a) || a.is_subset_of(b),
            can_separately: eff == 0,
        },
        SimilarityKind::PerfectRecall => PairClass {
            // |q_hi| / |q_hi ∪ q_lo| ≥ δ_hi.
            can_together: q1 * 100 >= n1 * (q1 + q2 - inter),
            can_separately: eff == 0,
        },
        SimilarityKind::JaccardCutoff | SimilarityKind::JaccardThreshold => {
            let x1 = (q1 * (100 - n1) / 100).min(eff);
            let x2 = (q2 * (100 - n2) / 100).min(eff);
            let y2 = (n2 * q2).div_ceil(100).saturating_sub(inter);
            PairClass {
                // y2 ≤ |q_hi|(1−δ_hi)/δ_hi.
                can_together: y2 * n1 <= q1 * (100 - n1),
                can_separately: eff <= x1 + x2,
            }
        }
        SimilarityKind::F1Cutoff | SimilarityKind::F1Threshold => {
            // s = ⌈δ|q| / (2−δ)⌉, the smallest covering subset.
            let s1 = (n1 * q1).div_ceil(200 - n1);
            let s2 = (n2 * q2).div_ceil(200 - n2);
            let x1 = (q1 - s1).min(eff);
            let x2 = (q2 - s2).min(eff);
            let y2 = s2.saturating_sub(inter);
            PairClass {
                // y2 ≤ 2|q_hi|(1−δ_hi)/δ_hi.
                can_together: y2 * n1 <= 2 * q1 * (100 - n1),
                can_separately: eff <= x1 + x2,
            }
        }
    }
}
