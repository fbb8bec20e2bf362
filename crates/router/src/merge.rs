//! Deterministic merge of per-shard cover answers.
//!
//! Each shard answers the best cover *for its slice of the queried items*;
//! the router keeps whichever sub-answer wins under
//! [`Cover::beats`](oct_core::score::Cover::beats), the one best-cover order
//! the batch scorer and the point index use. Depth is not on the wire, so
//! every sub-answer ranks at depth 0 and equal `(similarity, precision)`
//! fall through to the lowest category id (DESIGN.md §17).
//!
//! Determinism contract: for a fixed set of answering shards, the merged
//! response is a pure function of the sub-responses, which are themselves
//! deterministic per shard. Sub-answers are merged in ascending shard
//! order, so repeated runs against the same live fleet produce
//! byte-identical lines.

use oct_core::score::Cover;
use oct_core::CatId;
use oct_serve::Response;

/// One shard's contribution to a fan-out cover.
#[derive(Debug, Clone, PartialEq)]
pub struct SubCover {
    /// Which shard answered.
    pub shard: u32,
    /// The tree epoch it answered under.
    pub epoch: u64,
    /// Winning category for the shard's item slice, if any.
    pub cat: Option<CatId>,
    /// Its similarity.
    pub similarity: f64,
    /// Its precision.
    pub precision: f64,
    /// Whether the slice passed the variant's cover threshold.
    pub covered: bool,
    /// Whether the shard served a degraded (budget-expired) answer.
    pub degraded: bool,
    /// The winning category's label, when the request asked for one.
    pub label: Option<String>,
}

impl SubCover {
    /// Extracts a sub-cover from a shard's `COVER` response line.
    pub fn from_response(shard: u32, response: &Response) -> Option<Self> {
        match response {
            Response::Cover {
                epoch,
                cat,
                similarity,
                precision,
                covered,
                degraded,
                label,
                ..
            } => Some(Self {
                shard,
                epoch: *epoch,
                cat: *cat,
                similarity: *similarity,
                precision: *precision,
                covered: *covered,
                degraded: *degraded,
                label: label.clone(),
            }),
            _ => None,
        }
    }
}

/// Merges the surviving shards' answers into one router response.
///
/// `subs` must be in ascending shard order (the fan-out plan's order);
/// `missing` lists shards that owned queried items but produced no answer
/// and becomes the typed `PARTIAL` marker. The merged epoch is the minimum
/// across contributors (the fleet-consistency floor); `degraded` is the OR
/// of the contributors' flags, and a partial answer is always degraded.
pub fn merge_covers(subs: &[SubCover], mut missing: Vec<u32>) -> Response {
    debug_assert!(subs.windows(2).all(|w| w[0].shard < w[1].shard));
    missing.sort_unstable();
    missing.dedup();
    let mut best: Option<(Cover, &SubCover)> = None;
    let mut any_degraded = false;
    for sub in subs {
        any_degraded |= sub.degraded;
        let Some(cat) = sub.cat else { continue };
        let cover = Cover {
            cat,
            similarity: sub.similarity,
            precision: sub.precision,
            depth: 0,
        };
        if cover.beats(best.as_ref().map(|(incumbent, _)| incumbent)) {
            best = Some((cover, sub));
        }
    }
    let epoch = subs.iter().map(|s| s.epoch).min().unwrap_or(0);
    let degraded = any_degraded || !missing.is_empty();
    match best {
        Some((_, win)) => Response::Cover {
            epoch,
            cat: win.cat,
            similarity: win.similarity,
            precision: win.precision,
            covered: win.covered,
            degraded,
            missing,
            label: win.label.clone(),
        },
        // No shard found a positive-similarity category: the canonical
        // empty cover (matches a single server's no-cover answer shape).
        None => Response::Cover {
            epoch,
            cat: None,
            similarity: 0.0,
            precision: 1.0,
            covered: false,
            degraded,
            missing,
            label: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(shard: u32, cat: Option<CatId>, sim: f64, precision: f64) -> SubCover {
        SubCover {
            shard,
            epoch: 3,
            cat,
            similarity: sim,
            precision,
            covered: cat.is_some(),
            degraded: false,
            label: cat.map(|c| format!("cat-{c}")),
        }
    }

    #[test]
    fn highest_similarity_wins() {
        let merged = merge_covers(
            &[sub(0, Some(9), 0.5, 0.9), sub(1, Some(2), 0.8, 0.1)],
            vec![],
        );
        match merged {
            Response::Cover {
                cat,
                similarity,
                missing,
                degraded,
                ..
            } => {
                assert_eq!(cat, Some(2));
                assert_eq!(similarity, 0.8);
                assert!(missing.is_empty());
                assert!(!degraded);
            }
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn precision_then_lowest_cat_break_ties() {
        let merged = merge_covers(
            &[sub(0, Some(9), 0.5, 0.7), sub(1, Some(4), 0.5, 0.9)],
            vec![],
        );
        assert!(matches!(merged, Response::Cover { cat: Some(4), .. }));
        let merged = merge_covers(
            &[sub(0, Some(9), 0.5, 0.7), sub(1, Some(4), 0.5, 0.7)],
            vec![],
        );
        assert!(
            matches!(merged, Response::Cover { cat: Some(4), .. }),
            "equal (sim, precision): lowest cat id wins"
        );
    }

    #[test]
    fn eps_banded_similarities_count_as_ties() {
        // Within EPS the similarities tie; precision decides.
        let merged = merge_covers(
            &[sub(0, Some(2), 0.5 + 1e-12, 0.3), sub(1, Some(7), 0.5, 0.9)],
            vec![],
        );
        assert!(matches!(merged, Response::Cover { cat: Some(7), .. }));
    }

    #[test]
    fn merge_is_order_independent_given_sorted_input() {
        // The same sub-answers always merge to the same winner — repeated
        // runs against a fixed live fleet are byte-identical.
        let subs = [
            sub(0, Some(5), 0.6, 0.5),
            sub(1, Some(3), 0.6, 0.5),
            sub(2, None, 0.0, 1.0),
        ];
        let a = merge_covers(&subs, vec![]).encode();
        let b = merge_covers(&subs, vec![]).encode();
        assert_eq!(a, b);
        assert!(a.contains("cat=3"), "lowest id among tied: {a}");
    }

    #[test]
    fn missing_shards_mark_partial_and_degraded() {
        let merged = merge_covers(&[sub(1, Some(2), 0.8, 0.5)], vec![2, 0, 2]);
        match &merged {
            Response::Cover {
                missing,
                degraded,
                cat,
                ..
            } => {
                assert_eq!(missing, &vec![0, 2], "sorted + deduped");
                assert!(*degraded, "partial answers are degraded");
                assert_eq!(*cat, Some(2));
            }
            other => panic!("wrong response {other:?}"),
        }
        assert!(merged.is_partial());
    }

    #[test]
    fn all_shards_empty_yields_canonical_no_cover() {
        let merged = merge_covers(&[sub(0, None, 0.0, 1.0)], vec![]);
        match merged {
            Response::Cover {
                cat,
                similarity,
                precision,
                covered,
                degraded,
                ..
            } => {
                assert_eq!(cat, None);
                assert_eq!(similarity, 0.0);
                assert_eq!(precision, 1.0);
                assert!(!covered);
                assert!(!degraded);
            }
            other => panic!("wrong response {other:?}"),
        }
        // Nothing answered at all (every owning shard missing).
        let empty = merge_covers(&[], vec![0, 1]);
        assert!(empty.is_partial());
    }

    #[test]
    fn zero_similarity_never_wins() {
        let merged = merge_covers(&[sub(0, Some(1), 0.0, 1.0)], vec![]);
        assert!(
            matches!(merged, Response::Cover { cat: None, .. }),
            "sim=0 categories are not covers"
        );
    }

    #[test]
    fn epoch_is_the_fleet_minimum_and_degraded_propagates() {
        let mut a = sub(0, Some(1), 0.4, 0.4);
        a.epoch = 7;
        let mut b = sub(1, Some(2), 0.9, 0.4);
        b.epoch = 5;
        b.degraded = true;
        match merge_covers(&[a, b], vec![]) {
            Response::Cover {
                epoch,
                degraded,
                cat,
                ..
            } => {
                assert_eq!(epoch, 5);
                assert!(degraded);
                assert_eq!(cat, Some(2));
            }
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn from_response_extracts_only_covers() {
        let cover = Response::Cover {
            epoch: 1,
            cat: Some(3),
            similarity: 0.5,
            precision: 0.5,
            covered: true,
            degraded: false,
            missing: Vec::new(),
            label: Some("x".into()),
        };
        let sub = SubCover::from_response(2, &cover).expect("cover extracts");
        assert_eq!(sub.shard, 2);
        assert_eq!(sub.cat, Some(3));
        assert_eq!(SubCover::from_response(0, &Response::Draining), None);
    }
}
