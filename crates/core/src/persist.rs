//! Compact binary persistence for instances, category trees, and workflow
//! checkpoints.
//!
//! Production taxonomies are rebuilt every quarter but consumed daily, so
//! trees (and the instances that produced them, for reproducibility) need a
//! durable representation. This module provides a small, versioned,
//! length-prefixed binary format built on `bytes` — no external schema or
//! format crate required.
//!
//! Layout (all integers little-endian):
//! `magic "OCT1" · u8 format version · u8 record tag · payload ·
//! u64 FNV-1a checksum` — the checksum covers every preceding byte, so a
//! bit flip anywhere in a record is detected before any payload is parsed.
//! Strings are `u32` length + UTF-8; vectors are `u32` count + elements.
//! Decoding is total: corrupt or truncated input of any shape yields a
//! [`DecodeError`], never a panic or a silently wrong value.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::input::{InputSet, Instance};
use crate::itemset::ItemSet;
use crate::similarity::{Similarity, SimilarityKind};
use crate::tree::{CatId, CategoryTree, ROOT};
use crate::vector::{VectorConfig, VectorIndex};

const MAGIC: &[u8; 4] = b"OCT1";
/// Current format version. Version 1 (no version byte, no checksum) is no
/// longer readable; its tag byte lands in the version slot and surfaces as
/// [`DecodeError::UnsupportedVersion`].
const FORMAT_VERSION: u8 = 2;
const TAG_TREE: u8 = 1;
const TAG_INSTANCE: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_STREAM: u8 = 4;
const TAG_VECTOR: u8 = 5;

/// Bytes of fixed framing around every record: magic + version + tag up
/// front, checksum footer at the end.
const FRAME_BYTES: usize = 4 + 1 + 1 + 8;

/// Errors produced while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the format magic.
    BadMagic,
    /// The format version byte is not one this build can read.
    UnsupportedVersion(u8),
    /// The checksum footer does not match the record contents.
    ChecksumMismatch,
    /// The record tag does not match the requested type.
    WrongTag {
        /// Expected tag.
        expected: u8,
        /// Found tag.
        found: u8,
    },
    /// The buffer ended prematurely.
    Truncated,
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// An enum discriminant was out of range.
    BadEnum(u8),
    /// A numeric field holds a non-finite value where one is meaningless
    /// (weights, thresholds, trace scores).
    NonFinite(&'static str),
    /// Structural inconsistency (e.g. a child referencing a missing parent).
    Inconsistent(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an OCT1 buffer"),
            DecodeError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported format version {v} (this build reads v{FORMAT_VERSION})"
                )
            }
            DecodeError::ChecksumMismatch => write!(f, "checksum mismatch: corrupt record"),
            DecodeError::WrongTag { expected, found } => {
                write!(f, "expected record tag {expected}, found {found}")
            }
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::BadEnum(v) => write!(f, "invalid enum discriminant {v}"),
            DecodeError::NonFinite(what) => write!(f, "non-finite {what}"),
            DecodeError::Inconsistent(what) => write!(f, "inconsistent data: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// FNV-1a over `bytes` — tiny, dependency-free, and plenty to catch the
/// random corruption (truncation, bit flips, torn writes) checkpoints are
/// exposed to. Not a cryptographic integrity check.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn need(buf: &impl Buf, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

/// Checks that a `count`-element sequence of records, each at least
/// `min_record` bytes, can still fit in the buffer — rejecting absurd
/// counts *before* any allocation is sized from them.
fn plausible(buf: &impl Buf, count: usize, min_record: usize) -> Result<(), DecodeError> {
    if (count as u64) * (min_record as u64) > buf.remaining() as u64 {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut Bytes) -> Result<String, DecodeError> {
    need(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    need(buf, len)?;
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| DecodeError::BadUtf8)
}

fn put_items(buf: &mut BytesMut, items: &[u32]) {
    buf.put_u32_le(items.len() as u32);
    for &i in items {
        buf.put_u32_le(i);
    }
}

fn get_items(buf: &mut Bytes) -> Result<Vec<u32>, DecodeError> {
    need(buf, 4)?;
    let len = buf.get_u32_le() as usize;
    plausible(buf, len, 4)?;
    Ok((0..len).map(|_| buf.get_u32_le()).collect())
}

fn header(tag: u8) -> BytesMut {
    let mut buf = BytesMut::with_capacity(64);
    buf.put_slice(MAGIC);
    buf.put_u8(FORMAT_VERSION);
    buf.put_u8(tag);
    buf
}

/// Appends the checksum footer and freezes the record.
fn seal(mut buf: BytesMut) -> Bytes {
    let checksum = fnv1a(buf.as_ref());
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Validates framing (magic, version, checksum, tag) and returns the bare
/// payload.
fn open(buf: &Bytes, tag: u8) -> Result<Bytes, DecodeError> {
    if buf.len() < FRAME_BYTES {
        return Err(DecodeError::Truncated);
    }
    if &buf[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = buf[4];
    if version != FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion(version));
    }
    let body = &buf[..buf.len() - 8];
    let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8-byte footer"));
    if fnv1a(body) != stored {
        return Err(DecodeError::ChecksumMismatch);
    }
    let found = buf[5];
    if found != tag {
        return Err(DecodeError::WrongTag {
            expected: tag,
            found,
        });
    }
    Ok(buf.slice(6..buf.len() - 8))
}

/// Encodes a category tree (live categories only; tombstones are elided).
///
/// ```
/// use oct_core::persist::{encode_tree, decode_tree};
/// use oct_core::tree::{CategoryTree, ROOT};
/// let mut tree = CategoryTree::new();
/// let c = tree.add_category(ROOT);
/// tree.assign_items(c, [1, 2, 3]);
/// let decoded = decode_tree(encode_tree(&tree)).expect("roundtrip");
/// assert_eq!(decoded.direct_items(c), &[1, 2, 3]);
/// ```
pub fn encode_tree(tree: &CategoryTree) -> Bytes {
    let mut buf = header(TAG_TREE);
    // Preorder from the root so parents always precede children — creation
    // order does not survive `reparent` (an intermediate created late can
    // become an ancestor of an early node).
    let live = tree.subtree(ROOT);
    buf.put_u32_le(live.len() as u32);
    let mut dense = vec![u32::MAX; tree.len()];
    for (d, &cat) in live.iter().enumerate() {
        dense[cat as usize] = d as u32;
    }
    for &cat in &live {
        let parent = tree
            .parent(cat)
            .map(|p| dense[p as usize])
            .unwrap_or(u32::MAX);
        buf.put_u32_le(parent);
        put_string(&mut buf, tree.label(cat).unwrap_or(""));
        put_items(&mut buf, tree.direct_items(cat));
    }
    seal(buf)
}

/// Decodes a category tree produced by [`encode_tree`].
pub fn decode_tree(buf: Bytes) -> Result<CategoryTree, DecodeError> {
    let mut buf = open(&buf, TAG_TREE)?;
    decode_tree_payload(&mut buf)
}

/// Minimum encoded size of one tree record: parent + empty label + empty
/// item list.
const MIN_TREE_RECORD: usize = 4 + 4 + 4;

fn decode_tree_payload(buf: &mut Bytes) -> Result<CategoryTree, DecodeError> {
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    if count == 0 {
        return Err(DecodeError::Inconsistent("a tree has at least a root"));
    }
    plausible(buf, count, MIN_TREE_RECORD)?;
    let mut tree = CategoryTree::new();
    let mut id_map: Vec<CatId> = Vec::with_capacity(count);
    for d in 0..count {
        need(buf, 4)?;
        let parent = buf.get_u32_le();
        let label = get_string(buf)?;
        let items = get_items(buf)?;
        let cat = if d == 0 {
            if parent != u32::MAX {
                return Err(DecodeError::Inconsistent("first record must be the root"));
            }
            ROOT
        } else {
            let p = *id_map
                .get(parent as usize)
                .ok_or(DecodeError::Inconsistent("child before parent"))?;
            tree.add_category(p)
        };
        if !label.is_empty() {
            tree.set_label(cat, label);
        }
        tree.assign_items(cat, items);
        id_map.push(cat);
    }
    Ok(tree)
}

fn kind_tag(kind: SimilarityKind) -> u8 {
    match kind {
        SimilarityKind::JaccardCutoff => 0,
        SimilarityKind::JaccardThreshold => 1,
        SimilarityKind::F1Cutoff => 2,
        SimilarityKind::F1Threshold => 3,
        SimilarityKind::PerfectRecall => 4,
        SimilarityKind::Exact => 5,
    }
}

fn kind_from(tag: u8) -> Result<SimilarityKind, DecodeError> {
    Ok(match tag {
        0 => SimilarityKind::JaccardCutoff,
        1 => SimilarityKind::JaccardThreshold,
        2 => SimilarityKind::F1Cutoff,
        3 => SimilarityKind::F1Threshold,
        4 => SimilarityKind::PerfectRecall,
        5 => SimilarityKind::Exact,
        other => return Err(DecodeError::BadEnum(other)),
    })
}

/// Encodes an instance.
pub fn encode_instance(instance: &Instance) -> Bytes {
    let mut buf = header(TAG_INSTANCE);
    encode_instance_payload(instance, &mut buf);
    seal(buf)
}

fn encode_instance_payload(instance: &Instance, buf: &mut BytesMut) {
    buf.put_u32_le(instance.num_items);
    buf.put_u8(kind_tag(instance.similarity.kind));
    buf.put_f64_le(instance.similarity.delta);
    match &instance.item_bounds {
        None => buf.put_u8(0),
        Some(bounds) => {
            buf.put_u8(1);
            buf.put_slice(bounds);
        }
    }
    buf.put_u32_le(instance.sets.len() as u32);
    for set in &instance.sets {
        buf.put_f64_le(set.weight);
        // NaN is the in-band sentinel for "no per-set threshold"; finite
        // values are real thresholds and ±∞ never encodes.
        buf.put_f64_le(set.threshold.unwrap_or(f64::NAN));
        put_string(buf, set.label.as_deref().unwrap_or(""));
        put_items(buf, set.items.as_slice());
    }
}

/// Decodes an instance produced by [`encode_instance`].
pub fn decode_instance(buf: Bytes) -> Result<Instance, DecodeError> {
    let mut buf = open(&buf, TAG_INSTANCE)?;
    decode_instance_payload(&mut buf)
}

/// Minimum encoded size of one input-set record: weight + threshold +
/// empty label + empty item list.
const MIN_SET_RECORD: usize = 8 + 8 + 4 + 4;

fn decode_instance_payload(buf: &mut Bytes) -> Result<Instance, DecodeError> {
    need(buf, 4 + 1 + 8 + 1)?;
    let num_items = buf.get_u32_le();
    let kind = kind_from(buf.get_u8())?;
    let delta = buf.get_f64_le();
    if !delta.is_finite() {
        return Err(DecodeError::NonFinite("similarity threshold"));
    }
    let has_bounds = buf.get_u8() == 1;
    let bounds = if has_bounds {
        need(buf, num_items as usize)?;
        let mut b = vec![0u8; num_items as usize];
        buf.copy_to_slice(&mut b);
        Some(b)
    } else {
        None
    };
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    plausible(buf, count, MIN_SET_RECORD)?;
    let mut sets = Vec::with_capacity(count);
    for _ in 0..count {
        need(buf, 16)?;
        let weight = buf.get_f64_le();
        if !weight.is_finite() {
            return Err(DecodeError::NonFinite("set weight"));
        }
        let threshold = buf.get_f64_le();
        if threshold.is_infinite() {
            return Err(DecodeError::NonFinite("set threshold"));
        }
        let label = get_string(buf)?;
        let items = get_items(buf)?;
        let mut set = InputSet::new(ItemSet::new(items), weight);
        if !threshold.is_nan() {
            set.threshold = Some(threshold);
        }
        if !label.is_empty() {
            set.label = Some(label);
        }
        sets.push(set);
    }
    let mut instance = Instance::new(num_items, sets, Similarity::new(kind, delta));
    if let Some(b) = bounds {
        instance = instance.with_item_bounds(b);
    }
    Ok(instance)
}

/// One persisted round of the reemployment loop (mirrors
/// `workflow::IterationTrace` without depending on it).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Covered sets after the round.
    pub covered: u32,
    /// Normalized score after the round.
    pub score: f64,
    /// Sets relaxed entering the next round.
    pub relaxed: u32,
}

/// A resumable snapshot of `workflow::iterate` taken after a completed
/// reemployment round.
///
/// The best tree itself is *not* stored: CTCR is deterministic, so the best
/// round's result is re-derived bit-identically by re-running on
/// [`Checkpoint::best_instance`]. That keeps checkpoints small and makes a
/// resumed run's output provably equal to an uninterrupted one.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Rounds fully executed so far.
    pub rounds_done: u32,
    /// `true` when the loop already terminated (converged or exhausted its
    /// round budget) — resume only needs to re-derive the best result.
    pub finished: bool,
    /// Which round (0-based) produced the best result.
    pub best_round: u32,
    /// The instance the best round was built and scored against.
    pub best_instance: Instance,
    /// The instance entering the next round (thresholds already relaxed).
    pub current_instance: Instance,
    /// Per-round coverage trace.
    pub trace: Vec<TraceEntry>,
}

/// Encodes a workflow checkpoint.
pub fn encode_checkpoint(cp: &Checkpoint) -> Bytes {
    let mut buf = header(TAG_CHECKPOINT);
    buf.put_u32_le(cp.rounds_done);
    buf.put_u8(u8::from(cp.finished));
    buf.put_u32_le(cp.best_round);
    encode_instance_payload(&cp.best_instance, &mut buf);
    encode_instance_payload(&cp.current_instance, &mut buf);
    buf.put_u32_le(cp.trace.len() as u32);
    for entry in &cp.trace {
        buf.put_u32_le(entry.covered);
        buf.put_f64_le(entry.score);
        buf.put_u32_le(entry.relaxed);
    }
    seal(buf)
}

/// Decodes a workflow checkpoint produced by [`encode_checkpoint`].
pub fn decode_checkpoint(buf: Bytes) -> Result<Checkpoint, DecodeError> {
    let mut buf = open(&buf, TAG_CHECKPOINT)?;
    need(&buf, 4 + 1 + 4)?;
    let rounds_done = buf.get_u32_le();
    let finished = match buf.get_u8() {
        0 => false,
        1 => true,
        other => return Err(DecodeError::BadEnum(other)),
    };
    let best_round = buf.get_u32_le();
    let best_instance = decode_instance_payload(&mut buf)?;
    let current_instance = decode_instance_payload(&mut buf)?;
    need(&buf, 4)?;
    let count = buf.get_u32_le() as usize;
    plausible(&buf, count, 4 + 8 + 4)?;
    let mut trace = Vec::with_capacity(count);
    for _ in 0..count {
        need(&buf, 16)?;
        let covered = buf.get_u32_le();
        let score = buf.get_f64_le();
        if !score.is_finite() {
            return Err(DecodeError::NonFinite("trace score"));
        }
        let relaxed = buf.get_u32_le();
        trace.push(TraceEntry {
            covered,
            score,
            relaxed,
        });
    }
    if best_round >= rounds_done && rounds_done > 0 {
        return Err(DecodeError::Inconsistent("best round after last round"));
    }
    if trace.len() != rounds_done as usize {
        return Err(DecodeError::Inconsistent("trace length != rounds done"));
    }
    Ok(Checkpoint {
        rounds_done,
        finished,
        best_round,
        best_instance,
        current_instance,
        trace,
    })
}

/// A resumable snapshot of the streaming engine
/// (`incremental::StreamEngine`), taken after every applied delta batch.
///
/// Only the *accumulated state* is stored — the applied-batch count, the
/// stable set ids, and the materialized instance in id order. The engine's
/// pair-classification and component-solution caches are deliberately not
/// persisted: they are pure functions of the state and are re-derived
/// bit-identically on resume, exactly like [`Checkpoint`] re-derives its
/// best tree.
#[derive(Debug, Clone)]
pub struct StreamCheckpoint {
    /// Delta batches fully applied so far.
    pub applied_batches: u64,
    /// The stable id of every live set, strictly ascending; `ids[i]` labels
    /// `instance.sets[i]`.
    pub ids: Vec<u64>,
    /// The accumulated input sets in id order.
    pub instance: Instance,
}

/// Encodes a streaming-engine checkpoint.
pub fn encode_stream_checkpoint(cp: &StreamCheckpoint) -> Bytes {
    encode_stream_state(cp.applied_batches, &cp.ids, &cp.instance)
}

/// [`encode_stream_checkpoint`] over borrowed parts, so that the engine
/// checkpoints its live state without copying it into a
/// [`StreamCheckpoint`].
pub(crate) fn encode_stream_state(applied_batches: u64, ids: &[u64], instance: &Instance) -> Bytes {
    let mut buf = header(TAG_STREAM);
    buf.put_u64_le(applied_batches);
    buf.put_u32_le(ids.len() as u32);
    for &id in ids {
        buf.put_u64_le(id);
    }
    encode_instance_payload(instance, &mut buf);
    seal(buf)
}

/// Decodes a streaming-engine checkpoint produced by
/// [`encode_stream_checkpoint`].
pub fn decode_stream_checkpoint(buf: Bytes) -> Result<StreamCheckpoint, DecodeError> {
    let mut buf = open(&buf, TAG_STREAM)?;
    need(&buf, 8 + 4)?;
    let applied_batches = buf.get_u64_le();
    let count = buf.get_u32_le() as usize;
    plausible(&buf, count, 8)?;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        need(&buf, 8)?;
        ids.push(buf.get_u64_le());
    }
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(DecodeError::Inconsistent("set ids not strictly ascending"));
    }
    let instance = decode_instance_payload(&mut buf)?;
    if ids.len() != instance.sets.len() {
        return Err(DecodeError::Inconsistent("id count != set count"));
    }
    Ok(StreamCheckpoint {
        applied_batches,
        ids,
        instance,
    })
}

/// Encodes a [`VectorIndex`] (the ANN graph of [`crate::vector`]) as a v2
/// record. The encoding is canonical — a pure function of the index fields
/// in slot order — so decode ∘ encode is the identity on bytes, which is
/// what lets replicas `cmp` their index files to prove convergence.
pub fn encode_vector_index(index: &VectorIndex) -> Bytes {
    let mut buf = header(TAG_VECTOR);
    let config = index.config();
    buf.put_u32_le(config.dim as u32);
    buf.put_u32_le(config.m as u32);
    buf.put_u32_le(config.ef_construction as u32);
    buf.put_u64_le(config.seed);
    let n = index.ids.len();
    buf.put_u32_le(n as u32);
    for &id in &index.ids {
        buf.put_u32_le(id);
    }
    for &x in &index.vectors {
        // f32 via raw bits: exactly bit-preserving across the roundtrip.
        buf.put_u32_le(x.to_bits());
    }
    for &level in &index.levels {
        buf.put_u8(level);
    }
    buf.put_u32_le(index.entry);
    buf.put_u8(index.neighbors.len() as u8);
    for layer in &index.neighbors {
        for list in layer {
            buf.put_u32_le(list.len() as u32);
            for &slot in list {
                buf.put_u32_le(slot);
            }
        }
    }
    seal(buf)
}

/// Decodes a vector index produced by [`encode_vector_index`]. Total:
/// corrupt, truncated, or structurally inconsistent input yields a
/// [`DecodeError`], never a panic — the serving daemon loads these from
/// operator-supplied paths.
pub fn decode_vector_index(buf: Bytes) -> Result<VectorIndex, DecodeError> {
    let mut buf = open(&buf, TAG_VECTOR)?;
    need(&buf, 4 + 4 + 4 + 8 + 4)?;
    let dim = buf.get_u32_le() as usize;
    let m = buf.get_u32_le() as usize;
    let ef_construction = buf.get_u32_le() as usize;
    let seed = buf.get_u64_le();
    if dim == 0 {
        return Err(DecodeError::Inconsistent("zero embedding dimension"));
    }
    if m < 2 {
        return Err(DecodeError::Inconsistent("neighbor cap below 2"));
    }
    let n = buf.get_u32_le() as usize;
    plausible(&buf, n, 4 + 4 * dim.min(u32::MAX as usize) + 1)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        need(&buf, 4)?;
        ids.push(buf.get_u32_le());
    }
    plausible(&buf, n.saturating_mul(dim), 4)?;
    let mut vectors = Vec::with_capacity(n * dim);
    for _ in 0..n * dim {
        need(&buf, 4)?;
        let x = f32::from_bits(buf.get_u32_le());
        if !x.is_finite() {
            return Err(DecodeError::NonFinite("vector coordinate"));
        }
        vectors.push(x);
    }
    let mut levels = Vec::with_capacity(n);
    for _ in 0..n {
        need(&buf, 1)?;
        levels.push(buf.get_u8());
    }
    need(&buf, 4 + 1)?;
    let entry = buf.get_u32_le();
    if n > 0 && entry as usize >= n {
        return Err(DecodeError::Inconsistent("entry slot out of range"));
    }
    if n == 0 && entry != 0 {
        return Err(DecodeError::Inconsistent("entry slot in empty index"));
    }
    let layer_count = buf.get_u8() as usize;
    if layer_count == 0 {
        return Err(DecodeError::Inconsistent("an index has at least one layer"));
    }
    if let Some(&top) = levels.iter().max() {
        if top as usize + 1 != layer_count {
            return Err(DecodeError::Inconsistent("layer count != max level + 1"));
        }
    }
    let mut neighbors = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let mut layer = Vec::with_capacity(n);
        for _ in 0..n {
            need(&buf, 4)?;
            let count = buf.get_u32_le() as usize;
            plausible(&buf, count, 4)?;
            let mut list = Vec::with_capacity(count);
            for _ in 0..count {
                let slot = buf.get_u32_le();
                if slot as usize >= n {
                    return Err(DecodeError::Inconsistent("neighbor slot out of range"));
                }
                list.push(slot);
            }
            layer.push(list);
        }
        neighbors.push(layer);
    }
    if buf.remaining() > 0 {
        return Err(DecodeError::Inconsistent("trailing bytes after index"));
    }
    Ok(VectorIndex {
        config: VectorConfig {
            dim,
            m,
            ef_construction,
            seed,
        },
        ids,
        vectors,
        levels,
        neighbors,
        entry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::figure2_instance;

    fn sample_tree() -> CategoryTree {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(a);
        let c = t.add_category(ROOT);
        t.set_label(a, "electronics");
        t.set_label(b, "memory cards");
        t.assign_items(b, [1, 2, 3]);
        t.assign_items(a, [0]);
        t.assign_items(c, [4, 5]);
        // Exercise tombstone elision.
        let d = t.add_category(c);
        t.remove_category(d);
        t
    }

    fn sample_checkpoint() -> Checkpoint {
        let best = figure2_instance(Similarity::jaccard_threshold(0.6));
        let mut current = best.clone();
        current.sets[1].threshold = Some(0.3);
        Checkpoint {
            rounds_done: 2,
            finished: false,
            best_round: 1,
            best_instance: best,
            current_instance: current,
            trace: vec![
                TraceEntry {
                    covered: 2,
                    score: 0.5,
                    relaxed: 2,
                },
                TraceEntry {
                    covered: 3,
                    score: 0.75,
                    relaxed: 1,
                },
            ],
        }
    }

    #[test]
    fn tree_roundtrip_preserves_structure() {
        let tree = sample_tree();
        let decoded = decode_tree(encode_tree(&tree)).expect("roundtrip");
        assert_eq!(
            decoded.live_categories().len(),
            tree.live_categories().len()
        );
        let (orig, new) = (tree.materialize(), decoded.materialize());
        assert_eq!(orig[ROOT as usize], new[ROOT as usize]);
        // Labels survive.
        let labels: Vec<Option<&str>> = decoded
            .live_categories()
            .into_iter()
            .map(|c| decoded.label(c))
            .collect();
        assert!(labels.contains(&Some("memory cards")));
    }

    #[test]
    fn instance_roundtrip_preserves_everything() {
        let mut instance = figure2_instance(Similarity::perfect_recall(0.8));
        instance.sets[2].threshold = Some(0.33);
        let instance = instance.with_item_bounds(vec![2, 1, 1, 1, 1, 1, 1, 1, 1]);
        let decoded = decode_instance(encode_instance(&instance)).expect("roundtrip");
        assert_eq!(decoded.num_items, 9);
        assert_eq!(decoded.num_sets(), 4);
        assert_eq!(decoded.similarity, instance.similarity);
        assert_eq!(decoded.threshold_of(2), 0.33);
        assert_eq!(decoded.bound_of(0), 2);
        for (a, b) in decoded.sets.iter().zip(&instance.sets) {
            assert_eq!(a.items, b.items);
            assert_eq!(a.weight, b.weight);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_everything() {
        let cp = sample_checkpoint();
        let decoded = decode_checkpoint(encode_checkpoint(&cp)).expect("roundtrip");
        assert_eq!(decoded.rounds_done, cp.rounds_done);
        assert_eq!(decoded.finished, cp.finished);
        assert_eq!(decoded.best_round, cp.best_round);
        assert_eq!(decoded.trace, cp.trace);
        assert_eq!(decoded.best_instance.num_items, cp.best_instance.num_items);
        assert_eq!(
            decoded.current_instance.threshold_of(1),
            cp.current_instance.threshold_of(1)
        );
    }

    fn sample_stream_checkpoint() -> StreamCheckpoint {
        StreamCheckpoint {
            applied_batches: 7,
            ids: vec![3, 9, 40, 41],
            instance: figure2_instance(Similarity::jaccard_threshold(0.6)),
        }
    }

    #[test]
    fn stream_checkpoint_roundtrip_preserves_everything() {
        let cp = sample_stream_checkpoint();
        let decoded = decode_stream_checkpoint(encode_stream_checkpoint(&cp)).expect("roundtrip");
        assert_eq!(decoded.applied_batches, 7);
        assert_eq!(decoded.ids, cp.ids);
        assert_eq!(decoded.instance.num_sets(), cp.instance.num_sets());
        for (a, b) in decoded.instance.sets.iter().zip(&cp.instance.sets) {
            assert_eq!(a.items, b.items);
            assert_eq!(a.weight, b.weight);
        }
    }

    #[test]
    fn stream_checkpoint_rejects_inconsistencies() {
        // Unsorted / duplicate ids.
        let mut cp = sample_stream_checkpoint();
        cp.ids = vec![3, 3, 40, 41];
        assert!(matches!(
            decode_stream_checkpoint(encode_stream_checkpoint(&cp)),
            Err(DecodeError::Inconsistent(_))
        ));
        // Id count disagreeing with the set count.
        let mut cp = sample_stream_checkpoint();
        cp.ids.pop();
        assert!(matches!(
            decode_stream_checkpoint(encode_stream_checkpoint(&cp)),
            Err(DecodeError::Inconsistent(_))
        ));
        // Wrong tag.
        assert!(matches!(
            decode_stream_checkpoint(encode_checkpoint(&sample_checkpoint())),
            Err(DecodeError::WrongTag {
                expected: 4,
                found: 3
            })
        ));
        // Truncation at every cut never panics.
        let encoded = encode_stream_checkpoint(&sample_stream_checkpoint());
        for cut in 0..encoded.len() {
            assert!(
                decode_stream_checkpoint(encoded.slice(0..cut)).is_err(),
                "cut at {cut} should fail cleanly"
            );
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            decode_tree(Bytes::from_static(b"nope")),
            Err(DecodeError::Truncated)
        ));
        assert!(matches!(
            decode_tree(Bytes::from_static(b"WAT1\x02\x01****checksum")),
            Err(DecodeError::BadMagic)
        ));
    }

    #[test]
    fn rejects_old_format_version() {
        // A v1 record had the tag directly after the magic — it now reads
        // as an unsupported version rather than mis-parsing.
        let mut v1 = BytesMut::with_capacity(32);
        v1.put_slice(MAGIC);
        v1.put_u8(1); // v1 tree tag, in the version slot
        v1.put_slice(&[0u8; 16]);
        assert!(matches!(
            decode_tree(v1.freeze()),
            Err(DecodeError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn bit_flips_are_caught_by_the_checksum() {
        let encoded = encode_tree(&sample_tree());
        // Flip one bit in every payload byte position (skipping the magic,
        // whose corruption reports BadMagic instead).
        for pos in 4..encoded.len() {
            let mut corrupt = encoded.to_vec();
            corrupt[pos] ^= 0x10;
            let err = decode_tree(Bytes::from(corrupt)).expect_err("corruption must be caught");
            assert!(
                matches!(
                    err,
                    DecodeError::ChecksumMismatch | DecodeError::UnsupportedVersion(_)
                ),
                "byte {pos}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn rejects_wrong_tag() {
        let tree = sample_tree();
        let encoded = encode_tree(&tree);
        assert!(matches!(
            decode_instance(encoded),
            Err(DecodeError::WrongTag {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        for encoded in [
            encode_tree(&sample_tree()),
            encode_instance(&figure2_instance(Similarity::exact())),
            encode_checkpoint(&sample_checkpoint()),
        ] {
            for cut in 0..encoded.len() {
                assert!(
                    decode_tree(encoded.slice(0..cut)).is_err(),
                    "cut at {cut} should fail cleanly"
                );
            }
        }
    }

    #[test]
    fn rejects_non_finite_weights_and_thresholds() {
        let mut instance = figure2_instance(Similarity::exact());
        instance.sets[0].weight = f64::INFINITY;
        assert_eq!(
            decode_instance(encode_instance(&instance)).err(),
            Some(DecodeError::NonFinite("set weight"))
        );
        let mut instance = figure2_instance(Similarity::exact());
        instance.sets[1].threshold = Some(f64::NEG_INFINITY);
        assert_eq!(
            decode_instance(encode_instance(&instance)).err(),
            Some(DecodeError::NonFinite("set threshold"))
        );
    }

    #[test]
    fn implausible_counts_fail_before_allocating() {
        // A record claiming u32::MAX sets must be rejected by the length
        // plausibility check, not by an attempted 100-GiB allocation.
        let instance = figure2_instance(Similarity::exact());
        let encoded = encode_instance(&instance);
        let mut raw = encoded.to_vec();
        // The set count sits right after num_items(4) + kind(1) + delta(8)
        // + bounds flag(1) in the payload (which starts at byte 6).
        let count_at = 6 + 4 + 1 + 8 + 1;
        raw[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        // Re-seal so the checksum is valid and the count check is reached.
        let body_len = raw.len() - 8;
        let checksum = fnv1a(&raw[..body_len]);
        raw[body_len..].copy_from_slice(&checksum.to_le_bytes());
        assert_eq!(
            decode_instance(Bytes::from(raw)).err(),
            Some(DecodeError::Truncated)
        );
    }

    fn sample_vector_index() -> VectorIndex {
        let mut tree = sample_tree();
        let extra = tree.add_category(ROOT);
        tree.assign_items(extra, [6, 7, 8]);
        VectorIndex::for_tree(&tree, &VectorConfig::default())
    }

    #[test]
    fn vector_index_roundtrips_bit_identically() {
        let index = sample_vector_index();
        let encoded = encode_vector_index(&index);
        let decoded = decode_vector_index(encoded.clone()).expect("roundtrip");
        assert_eq!(decoded, index);
        // Canonical encoding: re-encoding the decoded index reproduces the
        // exact bytes (what lets replicas `cmp` index files).
        assert_eq!(encode_vector_index(&decoded).as_ref(), encoded.as_ref());
    }

    #[test]
    fn empty_vector_index_roundtrips() {
        let index = VectorIndex::build(Vec::new(), Vec::new(), &VectorConfig::default())
            .expect("empty build");
        let decoded = decode_vector_index(encode_vector_index(&index)).expect("empty roundtrip");
        assert!(decoded.is_empty());
    }

    #[test]
    fn vector_index_corruption_and_truncation_never_panic() {
        let encoded = encode_vector_index(&sample_vector_index());
        for cut in 0..encoded.len() {
            assert!(
                decode_vector_index(encoded.slice(0..cut)).is_err(),
                "cut at {cut} should fail cleanly"
            );
        }
        for pos in 4..encoded.len() {
            let mut corrupt = encoded.to_vec();
            corrupt[pos] ^= 0x04;
            let err =
                decode_vector_index(Bytes::from(corrupt)).expect_err("corruption must be caught");
            assert!(
                matches!(
                    err,
                    DecodeError::ChecksumMismatch | DecodeError::UnsupportedVersion(_)
                ),
                "byte {pos}: unexpected error {err:?}"
            );
        }
        assert!(matches!(
            decode_vector_index(encode_tree(&sample_tree())),
            Err(DecodeError::WrongTag {
                expected: 5,
                found: 1
            })
        ));
    }

    #[test]
    fn scores_survive_roundtrip() {
        use crate::ctcr::{self, CtcrConfig};
        use crate::score::score_tree;
        let instance = figure2_instance(Similarity::jaccard_threshold(0.6));
        let result = ctcr::run(&instance, &CtcrConfig::default());
        let decoded_tree = decode_tree(encode_tree(&result.tree)).expect("tree");
        let decoded_instance = decode_instance(encode_instance(&instance)).expect("instance");
        let a = score_tree(&instance, &result.tree);
        let b = score_tree(&decoded_instance, &decoded_tree);
        assert!((a.total - b.total).abs() < 1e-12);
    }
}
