//! Guttman R-tree with quadratic splits.

use cardir_geometry::BoundingBox;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 8;
/// Minimum entries per node after a split (`≤ MAX_ENTRIES / 2`).
const MIN_ENTRIES: usize = 3;

/// A dynamic R-tree mapping bounding boxes to payloads of type `T`.
///
/// Insertion follows Guttman's original algorithm: descend into the child
/// needing the least area enlargement, split overflowing nodes with the
/// quadratic seed/distribute heuristic, and grow the tree at the root.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Node<T>,
    len: usize,
}

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Vec<(BoundingBox, T)>),
    Internal(Vec<(BoundingBox, Node<T>)>),
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        RTree::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree {
            root: Node::Leaf(Vec::new()),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry. Duplicate boxes are allowed.
    pub fn insert(&mut self, bbox: BoundingBox, value: T) {
        self.len += 1;
        if let Some((left, right)) = insert_rec(&mut self.root, bbox, value) {
            // Root split: grow the tree by one level.
            let old_left_box = node_bbox(&left);
            let old_right_box = node_bbox(&right);
            self.root = Node::Internal(vec![(old_left_box, left), (old_right_box, right)]);
        }
    }

    /// Collects references to every payload whose box intersects `query`
    /// (closed-box semantics; `query` corners may be infinite).
    pub fn search(&self, query: BoundingBox) -> Vec<&T> {
        let mut out = Vec::new();
        self.visit(query, &mut |v| out.push(v));
        out
    }

    /// Visits every payload whose box intersects `query`.
    pub fn visit<'a, F: FnMut(&'a T)>(&'a self, query: BoundingBox, f: &mut F) {
        visit_rec(&self.root, query, f);
    }

    /// Iterates over all entries (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&BoundingBox, &T)> {
        let mut stack = vec![&self.root];
        let mut leaf_items: Vec<(&BoundingBox, &T)> = Vec::new();
        while let Some(node) = stack.pop() {
            match node {
                Node::Leaf(items) => leaf_items.extend(items.iter().map(|(b, v)| (b, v))),
                Node::Internal(children) => stack.extend(children.iter().map(|(_, n)| n)),
            }
        }
        leaf_items.into_iter()
    }

    /// Height of the tree (1 for a single leaf). Exposed for tests and
    /// diagnostics.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = &self.root;
        while let Node::Internal(children) = node {
            h += 1;
            node = &children[0].1;
        }
        h
    }
}

fn visit_rec<'a, T, F: FnMut(&'a T)>(node: &'a Node<T>, query: BoundingBox, f: &mut F) {
    match node {
        Node::Leaf(items) => {
            for (b, v) in items {
                if b.intersects(query) {
                    f(v);
                }
            }
        }
        Node::Internal(children) => {
            for (b, child) in children {
                if b.intersects(query) {
                    visit_rec(child, query, f);
                }
            }
        }
    }
}

fn node_bbox<T>(node: &Node<T>) -> BoundingBox {
    match node {
        Node::Leaf(items) => items
            .iter()
            .map(|(b, _)| *b)
            .reduce(BoundingBox::union)
            .expect("split nodes are non-empty"),
        Node::Internal(children) => children
            .iter()
            .map(|(b, _)| *b)
            .reduce(BoundingBox::union)
            .expect("split nodes are non-empty"),
    }
}

/// Recursive insert. Returns `Some((left, right))` when `node` overflowed
/// and was split; the caller replaces it with the two halves.
fn insert_rec<T>(node: &mut Node<T>, bbox: BoundingBox, value: T) -> Option<(Node<T>, Node<T>)> {
    match node {
        Node::Leaf(items) => {
            items.push((bbox, value));
            if items.len() <= MAX_ENTRIES {
                return None;
            }
            let (a, b) = quadratic_split(std::mem::take(items));
            Some((Node::Leaf(a), Node::Leaf(b)))
        }
        Node::Internal(children) => {
            let idx = choose_subtree(children, bbox);
            children[idx].0 = children[idx].0.union(bbox);
            if let Some((l, r)) = insert_rec(&mut children[idx].1, bbox, value) {
                children[idx] = (node_bbox(&l), l);
                children.push((node_bbox(&r), r));
                if children.len() > MAX_ENTRIES {
                    let (a, b) = quadratic_split(std::mem::take(children));
                    return Some((Node::Internal(a), Node::Internal(b)));
                }
            }
            None
        }
    }
}

/// Guttman's ChooseLeaf criterion: least area enlargement, ties broken by
/// smaller area.
fn choose_subtree<T>(children: &[(BoundingBox, Node<T>)], bbox: BoundingBox) -> usize {
    let mut best = 0;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, (b, _)) in children.iter().enumerate() {
        let area = b.area();
        let enlargement = b.union(bbox).area() - area;
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

/// Guttman's quadratic split: seed with the pair wasting the most area,
/// then assign each remaining entry to the group whose box it enlarges
/// least, keeping both groups above `MIN_ENTRIES`.
fn quadratic_split<E: HasBBox>(entries: Vec<E>) -> (Vec<E>, Vec<E>) {
    debug_assert!(entries.len() > MAX_ENTRIES);
    let mut entries = entries;

    // Pick seeds: the pair whose combined box wastes the most area.
    let (mut seed_a, mut seed_b, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let combined = entries[i].bbox().union(entries[j].bbox());
            let waste = combined.area() - entries[i].bbox().area() - entries[j].bbox().area();
            if waste > worst {
                worst = waste;
                seed_a = i;
                seed_b = j;
            }
        }
    }

    // Remove seeds (larger index first to keep the smaller valid).
    let e_b = entries.swap_remove(seed_b.max(seed_a));
    let e_a = entries.swap_remove(seed_b.min(seed_a));
    let mut group_a = vec![e_a];
    let mut group_b = vec![e_b];
    let mut box_a = group_a[0].bbox();
    let mut box_b = group_b[0].bbox();

    while let Some(entry) = entries.pop() {
        let remaining = entries.len();
        // Force assignment when a group must take everything left to reach
        // the minimum.
        if group_a.len() + remaining < MIN_ENTRIES {
            box_a = box_a.union(entry.bbox());
            group_a.push(entry);
            continue;
        }
        if group_b.len() + remaining < MIN_ENTRIES {
            box_b = box_b.union(entry.bbox());
            group_b.push(entry);
            continue;
        }
        let enlarge_a = box_a.union(entry.bbox()).area() - box_a.area();
        let enlarge_b = box_b.union(entry.bbox()).area() - box_b.area();
        if enlarge_a < enlarge_b || (enlarge_a == enlarge_b && group_a.len() <= group_b.len()) {
            box_a = box_a.union(entry.bbox());
            group_a.push(entry);
        } else {
            box_b = box_b.union(entry.bbox());
            group_b.push(entry);
        }
    }
    (group_a, group_b)
}

trait HasBBox {
    fn bbox(&self) -> BoundingBox;
}

impl<T> HasBBox for (BoundingBox, T) {
    fn bbox(&self) -> BoundingBox {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardir_geometry::Point;

    fn bb(x0: f64, y0: f64, x1: f64, y1: f64) -> BoundingBox {
        BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn grid_tree(n: usize) -> RTree<usize> {
        let mut t = RTree::new();
        let cols = 16;
        for i in 0..n {
            let x = (i % cols) as f64 * 10.0;
            let y = (i / cols) as f64 * 10.0;
            t.insert(bb(x, y, x + 4.0, y + 4.0), i);
        }
        t
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.search(bb(0.0, 0.0, 100.0, 100.0)).is_empty());
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn insert_and_search_small() {
        let mut t = RTree::new();
        t.insert(bb(0.0, 0.0, 1.0, 1.0), "a");
        t.insert(bb(5.0, 5.0, 6.0, 6.0), "b");
        assert_eq!(t.len(), 2);
        let hits = t.search(bb(0.5, 0.5, 5.5, 5.5));
        assert_eq!(hits.len(), 2);
        let hits = t.search(bb(2.0, 2.0, 3.0, 3.0));
        assert!(hits.is_empty());
    }

    #[test]
    fn grows_beyond_one_node_and_stays_correct() {
        let t = grid_tree(300);
        assert_eq!(t.len(), 300);
        assert!(t.height() > 1);
        // Exhaustive check against a linear scan over several queries.
        let queries = [
            bb(0.0, 0.0, 35.0, 35.0),
            bb(50.0, 50.0, 52.0, 52.0),
            bb(-10.0, -10.0, -1.0, -1.0),
            bb(0.0, 0.0, 1000.0, 1000.0),
        ];
        let all: Vec<(BoundingBox, usize)> = t.iter().map(|(b, v)| (*b, *v)).collect();
        assert_eq!(all.len(), 300);
        for q in queries {
            let mut expected: Vec<usize> = all
                .iter()
                .filter(|(b, _)| b.intersects(q))
                .map(|(_, v)| *v)
                .collect();
            let mut got: Vec<usize> = t.search(q).into_iter().copied().collect();
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected, "query {q}");
        }
    }

    #[test]
    fn search_with_infinite_bounds() {
        let t = grid_tree(64);
        // "Everything west of x = 35": an unbounded tile query.
        let q = BoundingBox::new(
            Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            Point::new(35.0, f64::INFINITY),
        );
        let got = t.search(q).len();
        let expected = t.iter().filter(|(b, _)| b.min.x <= 35.0).count();
        assert_eq!(got, expected);
        assert!(got > 0);
    }

    #[test]
    fn touching_boxes_intersect() {
        let mut t = RTree::new();
        t.insert(bb(0.0, 0.0, 1.0, 1.0), 1);
        let hits = t.search(bb(1.0, 1.0, 2.0, 2.0)); // shares a corner
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn duplicates_are_kept() {
        let mut t = RTree::new();
        for i in 0..20 {
            t.insert(bb(0.0, 0.0, 1.0, 1.0), i);
        }
        assert_eq!(t.len(), 20);
        assert_eq!(t.search(bb(0.0, 0.0, 1.0, 1.0)).len(), 20);
    }

    #[test]
    fn randomised_against_linear_scan() {
        use cardir_workloads::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(17);
        let mut t = RTree::new();
        let mut reference: Vec<(BoundingBox, usize)> = Vec::new();
        for i in 0..500 {
            let x = rng.random_range(-100.0..100.0);
            let y = rng.random_range(-100.0..100.0);
            let w = rng.random_range(0.0..20.0);
            let h = rng.random_range(0.0..20.0);
            let b = bb(x, y, x + w, y + h);
            t.insert(b, i);
            reference.push((b, i));
        }
        for _ in 0..50 {
            let x = rng.random_range(-120.0..120.0);
            let y = rng.random_range(-120.0..120.0);
            let w = rng.random_range(0.0..60.0);
            let h = rng.random_range(0.0..60.0);
            let q = bb(x, y, x + w, y + h);
            let mut expected: Vec<usize> = reference
                .iter()
                .filter(|(b, _)| b.intersects(q))
                .map(|(_, v)| *v)
                .collect();
            let mut got: Vec<usize> = t.search(q).into_iter().copied().collect();
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
    }
}
