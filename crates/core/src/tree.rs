//! Category trees: the solution space of the `OCT` problem.
//!
//! A category tree is a rooted tree whose nodes represent categories. The
//! representation stores, per node, only the *direct* items — items whose
//! most-specific category is that node. The full item set of a category is
//! the union of the direct items in its subtree, which makes the paper's
//! validity requirement ("every non-leaf contains the union of its
//! children") hold by construction; the remaining requirement — each item
//! appears on at most `bound(i)` branches — is checked by
//! [`CategoryTree::validate`].

use crate::input::Instance;
use crate::itemset::{ItemId, ItemSet};
use crate::util::FxHashMap;

/// Index of a category node inside a [`CategoryTree`].
pub type CatId = u32;

/// The root category (always present, conceptually containing every item).
pub const ROOT: CatId = 0;

#[derive(Debug, Clone)]
struct Node {
    parent: Option<CatId>,
    children: Vec<CatId>,
    direct_items: Vec<ItemId>,
    label: Option<String>,
}

/// A mutable category tree.
///
/// ```
/// use oct_core::tree::{CategoryTree, ROOT};
/// let mut tree = CategoryTree::new();
/// let electronics = tree.add_category(ROOT);
/// let cards = tree.add_category(electronics);
/// tree.assign_items(cards, [0, 1, 2]);
/// let full = tree.materialize();
/// assert_eq!(full[electronics as usize].len(), 3); // union of its subtree
/// ```
#[derive(Debug, Clone)]
pub struct CategoryTree {
    nodes: Vec<Node>,
}

impl Default for CategoryTree {
    fn default() -> Self {
        Self::new()
    }
}

impl CategoryTree {
    /// A tree consisting of only the root category.
    pub fn new() -> Self {
        Self {
            nodes: vec![Node {
                parent: None,
                children: Vec::new(),
                direct_items: Vec::new(),
                label: Some("root".to_owned()),
            }],
        }
    }

    /// Number of categories (including the root).
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `false` — a tree always has at least the root. Present for API
    /// symmetry with collection types.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Adds an empty category under `parent` and returns its id.
    ///
    /// # Panics
    /// Panics when `parent` is out of range.
    pub fn add_category(&mut self, parent: CatId) -> CatId {
        assert!(
            (parent as usize) < self.nodes.len(),
            "no such parent {parent}"
        );
        let id = self.nodes.len() as CatId;
        self.nodes.push(Node {
            parent: Some(parent),
            children: Vec::new(),
            direct_items: Vec::new(),
            label: None,
        });
        self.nodes[parent as usize].children.push(id);
        id
    }

    /// Sets a human-readable label on a category.
    pub fn set_label(&mut self, cat: CatId, label: impl Into<String>) {
        self.nodes[cat as usize].label = Some(label.into());
    }

    /// The label of a category, if any.
    pub fn label(&self, cat: CatId) -> Option<&str> {
        self.nodes[cat as usize].label.as_deref()
    }

    /// Parent of `cat` (`None` for the root).
    #[inline]
    pub fn parent(&self, cat: CatId) -> Option<CatId> {
        self.nodes[cat as usize].parent
    }

    /// Children of `cat`.
    #[inline]
    pub fn children(&self, cat: CatId) -> &[CatId] {
        &self.nodes[cat as usize].children
    }

    /// Items whose most-specific category is `cat`.
    #[inline]
    pub fn direct_items(&self, cat: CatId) -> &[ItemId] {
        &self.nodes[cat as usize].direct_items
    }

    /// Adds an item as a direct item of `cat`.
    ///
    /// The caller is responsible for branch-bound discipline; use
    /// [`CategoryTree::validate`] to verify it afterwards.
    pub fn assign_item(&mut self, cat: CatId, item: ItemId) {
        self.nodes[cat as usize].direct_items.push(item);
    }

    /// Assigns several items at once.
    pub fn assign_items(&mut self, cat: CatId, items: impl IntoIterator<Item = ItemId>) {
        self.nodes[cat as usize].direct_items.extend(items);
    }

    /// Replaces the direct items of `cat` wholesale (used by the repair
    /// stage when trimming).
    pub fn replace_direct_items(&mut self, cat: CatId, items: Vec<ItemId>) {
        self.nodes[cat as usize].direct_items = items;
    }

    /// Keeps, in every category, only the direct items for which `keep`
    /// holds.
    pub fn retain_items(&mut self, mut keep: impl FnMut(ItemId) -> bool) {
        for node in &mut self.nodes {
            node.direct_items.retain(|&i| keep(i));
        }
    }

    /// Iterates all category ids (root first, in creation order).
    pub fn category_ids(&self) -> impl Iterator<Item = CatId> + '_ {
        0..self.nodes.len() as CatId
    }

    /// `cat` followed by its ancestors up to the root — the parent-link
    /// walk, `O(depth)`.
    pub(crate) fn path_to_root(&self, cat: CatId) -> impl Iterator<Item = CatId> + '_ {
        std::iter::successors(Some(cat), |&c| self.parent(c))
    }

    /// `true` when `a` is an ancestor of `b` (strict).
    pub fn is_ancestor(&self, a: CatId, b: CatId) -> bool {
        self.path_to_root(b).skip(1).any(|c| c == a)
    }

    /// Depth of `cat` (root = 0).
    pub fn depth(&self, cat: CatId) -> usize {
        self.path_to_root(cat).count() - 1
    }

    /// Ancestors of `cat` from its parent up to the root.
    pub fn ancestors(&self, cat: CatId) -> Vec<CatId> {
        self.path_to_root(cat).skip(1).collect()
    }

    /// Category ids in the subtree rooted at `cat` (including `cat`),
    /// preorder.
    pub fn subtree(&self, cat: CatId) -> Vec<CatId> {
        let mut out = Vec::new();
        let mut stack = vec![cat];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend_from_slice(self.children(c));
        }
        out
    }

    /// The preorder from the root and each category's interval in it: the
    /// subtree of `c` is the categories whose `enter` falls in
    /// `enter[c]..end[c]`, so ancestry is one comparison. Categories off
    /// the preorder (removed ones) get `0..1`.
    pub(crate) fn preorder_intervals(&self) -> (Vec<CatId>, Vec<u32>, Vec<u32>) {
        let order = self.subtree(ROOT);
        let mut enter = vec![0; self.len()];
        for (pos, &c) in order.iter().enumerate() {
            enter[c as usize] = pos as u32;
        }
        // Parents precede children in preorder, so one backward pass
        // closes every subtree.
        let mut end: Vec<u32> = enter.iter().map(|&e| e + 1).collect();
        for &c in order.iter().rev() {
            if let Some(p) = self.parent(c) {
                end[p as usize] = end[p as usize].max(end[c as usize]);
            }
        }
        (order, enter, end)
    }

    /// Moves `child` (and its subtree) under `new_parent`.
    ///
    /// # Panics
    /// Panics when `child` is the root, when `new_parent` lies inside
    /// `child`'s subtree (cycle), or when either id is a removed tombstone.
    pub fn reparent(&mut self, child: CatId, new_parent: CatId) {
        assert_ne!(child, ROOT, "cannot reparent the root");
        assert!(!self.is_removed(child) && !self.is_removed(new_parent));
        assert!(
            child != new_parent && !self.is_ancestor(child, new_parent),
            "reparenting {child} under {new_parent} would create a cycle"
        );
        let old = self.nodes[child as usize]
            .parent
            .expect("non-root has a parent");
        if old == new_parent {
            return;
        }
        self.nodes[old as usize].children.retain(|&c| c != child);
        self.nodes[child as usize].parent = Some(new_parent);
        self.nodes[new_parent as usize].children.push(child);
    }

    /// Removes category `cat`, splicing its children to its parent. Direct
    /// items of `cat` are re-assigned to the parent (so full item sets of
    /// all surviving ancestors are unchanged).
    ///
    /// # Panics
    /// Panics when asked to remove the root.
    pub fn remove_category(&mut self, cat: CatId) -> RemovedCategory {
        assert_ne!(cat, ROOT, "cannot remove the root category");
        let parent = self.nodes[cat as usize]
            .parent
            .expect("non-root has a parent");
        let children = std::mem::take(&mut self.nodes[cat as usize].children);
        let items = std::mem::take(&mut self.nodes[cat as usize].direct_items);
        // Detach from parent, splice children in its place.
        self.nodes[parent as usize].children.retain(|&c| c != cat);
        for &child in &children {
            self.nodes[child as usize].parent = Some(parent);
            self.nodes[parent as usize].children.push(child);
        }
        self.nodes[parent as usize].direct_items.extend(items);
        self.nodes[cat as usize].parent = None; // orphaned tombstone
        RemovedCategory { id: cat }
    }

    /// `true` when `cat` was removed by [`CategoryTree::remove_category`].
    pub fn is_removed(&self, cat: CatId) -> bool {
        cat != ROOT && self.nodes[cat as usize].parent.is_none()
    }

    /// Live category ids (excluding removed tombstones).
    pub fn live_categories(&self) -> Vec<CatId> {
        self.category_ids()
            .filter(|&c| !self.is_removed(c))
            .collect()
    }

    /// Post-order traversal of live categories.
    pub fn post_order(&self) -> Vec<CatId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        // Iterative post-order: push node, expand children, then reverse.
        let mut stack = vec![ROOT];
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend_from_slice(self.children(c));
        }
        out.reverse();
        out
    }

    /// Materializes the full item set of every live category (union of the
    /// direct items in its subtree). Removed categories get empty sets.
    pub fn materialize(&self) -> Vec<ItemSet> {
        let mut full: Vec<Vec<ItemId>> = vec![Vec::new(); self.nodes.len()];
        for cat in self.post_order() {
            let mut items = std::mem::take(&mut full[cat as usize]);
            items.extend_from_slice(self.direct_items(cat));
            items.sort_unstable();
            items.dedup();
            if let Some(p) = self.parent(cat) {
                full[p as usize].extend_from_slice(&items);
            }
            full[cat as usize] = items;
        }
        full.into_iter().map(ItemSet::new).collect()
    }

    /// All items assigned anywhere in the tree (deduplicated, ascending).
    pub fn assigned_items(&self) -> Vec<ItemId> {
        let mut items: Vec<ItemId> = self
            .live_categories()
            .into_iter()
            .flat_map(|c| self.direct_items(c).to_vec())
            .collect();
        items.sort_unstable();
        items.dedup();
        items
    }

    /// Adds the paper's `C_misc` (line 26 of Algorithm 1): a child of the
    /// root holding every universe item not assigned anywhere. Returns the
    /// new category id, or `None` when every item is already assigned.
    pub fn add_misc_category(&mut self, num_items: u32) -> Option<CatId> {
        let assigned = self.assigned_items();
        let mut unassigned = Vec::new();
        let mut cursor = 0usize;
        for item in 0..num_items {
            while cursor < assigned.len() && assigned[cursor] < item {
                cursor += 1;
            }
            if cursor >= assigned.len() || assigned[cursor] != item {
                unassigned.push(item);
            }
        }
        if unassigned.is_empty() {
            return None;
        }
        let misc = self.add_category(ROOT);
        self.set_label(misc, "misc");
        self.assign_items(misc, unassigned);
        Some(misc)
    }

    /// Validates the paper's combinatorial requirement against `instance`'s
    /// per-item bounds: the direct assignments of each item must sit on
    /// pairwise-distinct branches (no two on an ancestor–descendant path,
    /// no duplicates within a node) and their number must not exceed the
    /// item's bound.
    pub fn validate(&self, instance: &Instance) -> Result<(), ValidationError> {
        let mut assignments: FxHashMap<ItemId, Vec<CatId>> = FxHashMap::default();
        for cat in self.live_categories() {
            for &item in self.direct_items(cat) {
                assignments.entry(item).or_default().push(cat);
            }
        }
        for (item, cats) in assignments {
            if item >= instance.num_items {
                return Err(ValidationError::UnknownItem { item });
            }
            let bound = instance.bound_of(item) as usize;
            if cats.len() > bound {
                return Err(ValidationError::BoundExceeded {
                    item,
                    bound,
                    assignments: cats.len(),
                });
            }
            for (i, &a) in cats.iter().enumerate() {
                for &b in &cats[i + 1..] {
                    if a == b || self.is_ancestor(a, b) || self.is_ancestor(b, a) {
                        return Err(ValidationError::SameBranch { item, a, b });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Counts `|q ∩ full(C)|` for every category `C` whose subtree holds an
/// item of a query `q`, with no materialized `full(C)`: each item walks its
/// *direct* categories up the parent chain, stamping what it reaches and
/// stopping where it already stamped, so an item placed in two branches
/// counts once at their common ancestors. A query costs the sum of its
/// items' chain lengths. `hits` is all zero between queries.
///
/// Repair's candidate search is its one user: repair moves items between
/// categories as it goes, so it walks the live tree. Scoring and point
/// queries count over a `score::TreeView` instead, which is built once per
/// tree and never edited.
pub(crate) struct ChainCounter {
    hits: Vec<u32>,
    /// The item (as a running epoch) that last reached each category.
    stamp: Vec<u32>,
    epoch: u32,
}

impl ChainCounter {
    /// A counter for a tree with `slots` category slots.
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            hits: vec![0; slots],
            stamp: vec![0; slots],
            epoch: 0,
        }
    }

    /// `(cat, |q ∩ full(cat)|)` for every category reached, ascending by
    /// `cat`. `placements` yields, per item of the deduplicated query, the
    /// categories it is directly assigned to; `parent` walks up the tree.
    pub(crate) fn count<'a>(
        &mut self,
        placements: impl IntoIterator<Item = &'a [CatId]>,
        parent: impl Fn(CatId) -> Option<CatId>,
    ) -> Vec<(CatId, usize)> {
        let mut touched = Vec::new();
        for direct in placements {
            if self.epoch == u32::MAX {
                // Stamps only stop the walk of the item that set them, so
                // clearing them between items is safe.
                self.stamp.fill(0);
                self.epoch = 0;
            }
            self.epoch += 1;
            for &cat in direct {
                for c in std::iter::successors(Some(cat), |&c| parent(c)) {
                    if self.stamp[c as usize] == self.epoch {
                        break;
                    }
                    self.stamp[c as usize] = self.epoch;
                    if self.hits[c as usize] == 0 {
                        touched.push(c);
                    }
                    self.hits[c as usize] += 1;
                }
            }
        }
        touched.sort_unstable();
        let hits = &mut self.hits;
        let count = |cat: CatId| (cat, std::mem::take(&mut hits[cat as usize]) as usize);
        touched.into_iter().map(count).collect()
    }
}

/// Receipt of a category removal.
#[derive(Debug, Clone, Copy)]
pub struct RemovedCategory {
    /// The removed category's id (now a tombstone).
    pub id: CatId,
}

/// Violations of the category-tree validity requirements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// An assigned item is outside the instance universe.
    UnknownItem {
        /// The offending item.
        item: ItemId,
    },
    /// An item has more direct assignments than its branch bound.
    BoundExceeded {
        /// The offending item.
        item: ItemId,
        /// Its branch bound.
        bound: usize,
        /// Number of direct assignments found.
        assignments: usize,
    },
    /// Two direct assignments of one item lie on the same branch.
    SameBranch {
        /// The offending item.
        item: ItemId,
        /// First category.
        a: CatId,
        /// Second category.
        b: CatId,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::UnknownItem { item } => {
                write!(f, "item {item} is outside the instance universe")
            }
            ValidationError::BoundExceeded {
                item,
                bound,
                assignments,
            } => write!(
                f,
                "item {item} assigned to {assignments} branches, bound is {bound}"
            ),
            ValidationError::SameBranch { item, a, b } => write!(
                f,
                "item {item} directly assigned to categories {a} and {b} on one branch"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputSet;
    use crate::similarity::Similarity;

    fn instance(num_items: u32) -> Instance {
        Instance::new(
            num_items,
            vec![InputSet::new(ItemSet::new(vec![0]), 1.0)],
            Similarity::exact(),
        )
    }

    #[test]
    fn build_and_navigate() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(a);
        let c = t.add_category(ROOT);
        assert_eq!(t.parent(b), Some(a));
        assert_eq!(t.children(ROOT), &[a, c]);
        assert!(t.is_ancestor(ROOT, b));
        assert!(t.is_ancestor(a, b));
        assert!(!t.is_ancestor(c, b));
        assert_eq!(t.depth(b), 2);
        assert_eq!(t.ancestors(b), vec![a, ROOT]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn materialize_unions_subtrees() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(a);
        t.assign_items(b, [1, 2]);
        t.assign_item(a, 3);
        let full = t.materialize();
        assert_eq!(full[b as usize].as_slice(), &[1, 2]);
        assert_eq!(full[a as usize].as_slice(), &[1, 2, 3]);
        assert_eq!(full[ROOT as usize].as_slice(), &[1, 2, 3]);
    }

    #[test]
    fn materialize_dedups_across_branches() {
        // Item 5 assigned on two sibling branches (bound 2 scenario): the
        // shared ancestor must count it once.
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(ROOT);
        t.assign_item(a, 5);
        t.assign_item(b, 5);
        let full = t.materialize();
        assert_eq!(full[ROOT as usize].len(), 1);
    }

    #[test]
    fn chain_counter_matches_materialized_intersections() {
        // Item 5 sits in two sibling branches and in their parent.
        let mut t = CategoryTree::new();
        let p = t.add_category(ROOT);
        let a = t.add_category(p);
        let b = t.add_category(p);
        let c = t.add_category(ROOT);
        t.assign_items(a, [1, 5]);
        t.assign_items(b, [2, 5]);
        t.assign_item(p, 5);
        t.assign_item(c, 3);
        let mut direct: Vec<Vec<CatId>> = vec![Vec::new(); 6];
        for cat in t.live_categories() {
            for &item in t.direct_items(cat) {
                direct[item as usize].push(cat);
            }
        }
        let full = t.materialize();
        // The second pass starts at `u32::MAX`, so its first item wraps the
        // epoch; an epoch of 0 would match every unstamped category.
        for start in [0, u32::MAX] {
            let mut counter = ChainCounter::new(t.len());
            counter.epoch = start;
            for query in [vec![5u32], vec![1, 2, 5], vec![1, 3], vec![4], vec![]] {
                let placements = query.iter().map(|&i| direct[i as usize].as_slice());
                let counts = counter.count(placements, |c| t.parent(c));
                let q = ItemSet::new(query.clone());
                let expect: Vec<(CatId, usize)> = t
                    .category_ids()
                    .map(|cat| (cat, q.intersection_size(&full[cat as usize])))
                    .filter(|&(_, n)| n > 0)
                    .collect();
                assert_eq!(counts, expect, "query {query:?} from epoch {start}");
            }
        }
    }

    #[test]
    fn remove_category_splices_children_and_items() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(a);
        t.assign_item(a, 7);
        t.assign_item(b, 8);
        t.remove_category(a);
        assert!(t.is_removed(a));
        assert_eq!(t.parent(b), Some(ROOT));
        assert!(t.children(ROOT).contains(&b));
        let full = t.materialize();
        assert_eq!(full[ROOT as usize].as_slice(), &[7, 8]);
        assert_eq!(full[a as usize].len(), 0);
    }

    #[test]
    fn misc_category_collects_unassigned() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        t.assign_items(a, [0, 2]);
        let misc = t.add_misc_category(4).expect("items 1 and 3 unassigned");
        assert_eq!(t.direct_items(misc), &[1, 3]);
        assert_eq!(t.label(misc), Some("misc"));
        // Second call: everything assigned now.
        assert!(t.add_misc_category(4).is_none());
    }

    #[test]
    fn validate_accepts_branch_disjoint_assignment() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(ROOT);
        t.assign_item(a, 0);
        t.assign_item(b, 1);
        assert!(t.validate(&instance(2)).is_ok());
    }

    #[test]
    fn validate_rejects_same_branch_duplicates() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(a);
        t.assign_item(a, 0);
        t.assign_item(b, 0);
        let err = t.validate(&instance(1)).unwrap_err();
        // With default bound 1, two assignments trip the bound first.
        assert!(matches!(
            err,
            ValidationError::BoundExceeded { item: 0, .. }
        ));
    }

    #[test]
    fn validate_respects_raised_bounds() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(ROOT);
        t.assign_item(a, 0);
        t.assign_item(b, 0);
        let inst = instance(1);
        assert!(t.validate(&inst).is_err());
        let inst2 = inst.with_item_bounds(vec![2]);
        assert!(t.validate(&inst2).is_ok());
    }

    #[test]
    fn validate_rejects_same_branch_even_with_bound_two() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(a);
        t.assign_item(a, 0);
        t.assign_item(b, 0);
        let inst = instance(1).with_item_bounds(vec![2]);
        let err = t.validate(&inst).unwrap_err();
        assert!(matches!(err, ValidationError::SameBranch { item: 0, .. }));
    }

    #[test]
    fn post_order_visits_children_before_parents() {
        let mut t = CategoryTree::new();
        let a = t.add_category(ROOT);
        let b = t.add_category(a);
        let order = t.post_order();
        let pos = |c: CatId| order.iter().position(|&x| x == c).unwrap();
        assert!(pos(b) < pos(a));
        assert!(pos(a) < pos(ROOT));
    }
}
