//! Byte-identity contract for tree construction.
//!
//! Pins the FNV-1a hash of `persist::encode_tree` for three builds on
//! datasets A–D × all six similarity variants (δ = 0.8):
//!
//! - CTCR with the default configuration (repair and nesting on);
//! - CTCR as in the paper (`repair: false, nest_contained: false`);
//! - CCT with the default configuration;
//! - CCT clustering raw pairwise dissimilarity (`global_embeddings: false`,
//!   the §4 ablation).
//!
//! Performance work on the construction path (assignment, repair,
//! condensing) must leave every hash unchanged. A change that alters trees
//! on purpose re-pins the entries from the `actual` line a failure prints.

use oct_core::persist::encode_tree;
use oct_core::prelude::*;
use oct_datagen::{generate, DatasetName};

const SCALE: f64 = 0.01;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Hashes of the CTCR default, CTCR paper-config, CCT and CCT raw-pairwise
/// trees.
fn hashes(name: DatasetName, sim: Similarity) -> [u64; 4] {
    let ds = generate(name, SCALE, sim);
    let default = ctcr::run(&ds.instance, &CtcrConfig::default());
    let paper = ctcr::run(
        &ds.instance,
        &CtcrConfig {
            repair: false,
            nest_contained: false,
            ..CtcrConfig::default()
        },
    );
    let cct = cct::run(&ds.instance, &CctConfig::default());
    let raw = cct::run(
        &ds.instance,
        &CctConfig {
            global_embeddings: false,
            ..CctConfig::default()
        },
    );
    [default.tree, paper.tree, cct.tree, raw.tree].map(|tree| fnv1a(&encode_tree(&tree)))
}

/// One test per dataset × variant, so the slow instances run in parallel:
/// `name: dataset, variant => [CTCR default, CTCR paper config, CCT, CCT raw
/// pairwise]`.
macro_rules! golden {
    ($($test:ident: $ds:ident, $ctor:ident($($arg:expr)?) => [$($hash:expr),+];)+) => {$(
        #[test]
        fn $test() {
            let actual = hashes(DatasetName::$ds, Similarity::$ctor($($arg)?));
            let [a, b, c, d] = actual;
            assert_eq!(
                actual,
                [$($hash),+],
                "tree bytes changed; actual:\n    {}: {}, {}({}) => [{a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}];",
                stringify!($test),
                stringify!($ds),
                stringify!($ctor),
                stringify!($($arg)?),
            );
        }
    )+};
}

golden! {
    a_cutoff_jaccard: A, jaccard_cutoff(0.8) => [0xe224c68a12fff871, 0x72ae59b9baf519c7, 0x156b7a138e03229a, 0x36294b6d6d401c3c];
    a_threshold_jaccard: A, jaccard_threshold(0.8) => [0xe224c68a12fff871, 0xa9efd1e75e680e2c, 0x6cc1bfd9d83759a0, 0x0c3c1a8908dde3ae];
    a_cutoff_f1: A, f1_cutoff(0.8) => [0xb6cd337be1389781, 0x141d0d9ab89bc0d0, 0x6260bf3ad52cc45d, 0xf5948da647e80745];
    a_threshold_f1: A, f1_threshold(0.8) => [0x77626573bf2a2929, 0x5951cf5cc3bfe7de, 0x69838285112aa6cb, 0x72d92504c320a3f7];
    a_perfect_recall: A, perfect_recall(0.8) => [0xdbd4ee94cecc3252, 0xdbd4ee94cecc3252, 0x76a123368322d263, 0xf6ddf9c26b71adec];
    a_exact: A, exact() => [0xafbb9adbdc2e9367, 0xafbb9adbdc2e9367, 0x248b5cbad9b3fa57, 0x0c13d5c2db3525ce];
    b_cutoff_jaccard: B, jaccard_cutoff(0.8) => [0x81ba39b9584efb99, 0x09490882e5ac8e15, 0xbd254841a7a977dd, 0xd98baa6475ac9dff];
    b_threshold_jaccard: B, jaccard_threshold(0.8) => [0xdfad6c1863e5853b, 0x2f46cbf03031bd8f, 0xb0c0fb495c3239b9, 0x0931d1c25f019b1c];
    b_cutoff_f1: B, f1_cutoff(0.8) => [0x95c215e1a0c31618, 0x876fbf8c8327f0a9, 0xadf0f102a5eac471, 0xab42ca9e901fed79];
    b_threshold_f1: B, f1_threshold(0.8) => [0x8602d635deccb03c, 0x5cca0e847a870c08, 0x37a7eba4cc1a22a9, 0x9404cc02fb2d0efb];
    b_perfect_recall: B, perfect_recall(0.8) => [0x53675235d724076b, 0x53675235d724076b, 0x20f2eff0e09b7cd7, 0xaa3408e7506daaa9];
    b_exact: B, exact() => [0xf492247b38b23ab7, 0xf492247b38b23ab7, 0x3e5be97bc33b29e7, 0xfba894007262696b];
    c_cutoff_jaccard: C, jaccard_cutoff(0.8) => [0xa0cd14fe63753fc5, 0xc5694b3b3942d39e, 0xe66335813d81fd94, 0xea3badc699668bda];
    c_threshold_jaccard: C, jaccard_threshold(0.8) => [0x6e876852b4dd8f1f, 0x8bfa65c5e8761a08, 0x1bf0e56f7adcdf14, 0x04c4b96a1242efd0];
    c_cutoff_f1: C, f1_cutoff(0.8) => [0x8edd9805880454ea, 0x36024d28786e2f8a, 0xf360bc6fabc52efb, 0x53648577f1df12a6];
    c_threshold_f1: C, f1_threshold(0.8) => [0xb0b39c93e3108116, 0xf10dba2ef16de65d, 0xaebe7a0ab899d443, 0xfa9b9bc559e47e29];
    c_perfect_recall: C, perfect_recall(0.8) => [0x7f901ea71c91a016, 0x7f901ea71c91a016, 0xf64d82876f1f17c5, 0x95619e5e00b5aa11];
    c_exact: C, exact() => [0x64bdc7a86d45839a, 0x64bdc7a86d45839a, 0x4fdbe818520e08e6, 0x2d9dca2e245ba6de];
    d_cutoff_jaccard: D, jaccard_cutoff(0.8) => [0x5162338df26f468c, 0x7560825baa320221, 0x2cf007d6cfcf2795, 0x20ad890510660935];
    d_threshold_jaccard: D, jaccard_threshold(0.8) => [0xb824a30bb934fcdc, 0xcae95ca2c98cf3ef, 0x072c711942e84d05, 0x3ef245c1cf9294dd];
    d_cutoff_f1: D, f1_cutoff(0.8) => [0x0bfc5cc08da84aa5, 0x14a880c983de3f4a, 0xe2c1e307d1b26575, 0xbf2c51ce4f0bd0c3];
    d_threshold_f1: D, f1_threshold(0.8) => [0x232176aee332f35d, 0x01e427f46d6cd3b1, 0x449e6943b04e996d, 0x6452a4fb81cd10ef];
    d_perfect_recall: D, perfect_recall(0.8) => [0x28643c990fd67ccf, 0xe39e47f1aa352f4e, 0xd7e4ca0ef2ae71fd, 0x0832428c25d7265e];
    d_exact: D, exact() => [0x05eac8ea840c94c6, 0x05eac8ea840c94c6, 0xd691833bae41b758, 0xa01e0cbe49571da9];
}
