//! Consistent hashing with virtual nodes: the router's URL → backend
//! placement function.
//!
//! Each backend owns `vnodes` points on a 64-bit ring; a URL routes to
//! the owner of the first point at or past its hash, wrapping. Virtual
//! nodes smooth the load split (with one point per node, the largest
//! arc can dwarf the smallest), and keep rebalancing incremental: when
//! a node joins or leaves, only the URLs whose nearest point changed
//! move — about `1/n` of the keyspace — while every other URL keeps
//! its backend and thus its warmed caches.
//!
//! The ring is deterministic: the same backend count and vnode count
//! always produce the same placement, so routers restarted or scaled
//! horizontally agree on where every URL lives without coordination.

// FNV-1a, a cheap stable 64-bit hash: placement needs speed, spread and
// the same answer on every router, not collision resistance.
use freephish_simclock::fnv1a;

/// A consistent-hash ring over `nodes` backends.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point, node)` sorted by point.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// A ring over `nodes` backends with `vnodes` points each.
    pub fn new(nodes: usize, vnodes: usize) -> HashRing {
        assert!(nodes > 0, "a ring needs at least one node");
        assert!(vnodes > 0, "a ring needs at least one point per node");
        let mut points = Vec::with_capacity(nodes * vnodes);
        for node in 0..nodes {
            for vnode in 0..vnodes {
                let key = format!("node-{node}/vnode-{vnode}");
                points.push((fnv1a(key.as_bytes()), node));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes }
    }

    /// Number of backends on the ring.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Index into `points` of the first point at or past `url`'s hash.
    fn start(&self, url: &str) -> usize {
        let h = fnv1a(url.as_bytes());
        match self.points.binary_search_by(|&(p, _)| p.cmp(&h)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0,
            Err(i) => i,
        }
    }

    /// The backend that owns `url`.
    pub fn node_for(&self, url: &str) -> usize {
        self.points[self.start(url)].1
    }

    /// The owner and its failover order: every distinct backend, walking
    /// the ring clockwise from `url`'s hash. The first element is
    /// [`HashRing::node_for`]; a router that finds it down or shedding
    /// tries the rest in sequence.
    pub fn successors(&self, url: &str) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes);
        let mut seen = vec![false; self.nodes];
        let start = self.start(url);
        for k in 0..self.points.len() {
            let (_, node) = self.points[(start + k) % self.points.len()];
            if !seen[node] {
                seen[node] = true;
                out.push(node);
                if out.len() == self.nodes {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn urls(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("https://site{i}.weebly.com/login"))
            .collect()
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let a = HashRing::new(4, 64);
        let b = HashRing::new(4, 64);
        for url in urls(500) {
            let n = a.node_for(&url);
            assert!(n < 4);
            assert_eq!(n, b.node_for(&url));
        }
    }

    #[test]
    fn virtual_nodes_spread_load() {
        let ring = HashRing::new(4, 64);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let n = 4000;
        for url in urls(n) {
            *counts.entry(ring.node_for(&url)).or_default() += 1;
        }
        for node in 0..4 {
            let share = counts[&node] as f64 / n as f64;
            assert!(
                (0.10..=0.45).contains(&share),
                "node {node} owns {share:.2} of the keyspace"
            );
        }
    }

    #[test]
    fn successors_enumerate_every_node_once() {
        let ring = HashRing::new(5, 16);
        for url in urls(50) {
            let succ = ring.successors(&url);
            assert_eq!(succ.len(), 5);
            assert_eq!(succ[0], ring.node_for(&url));
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn growing_the_ring_moves_a_minority_of_keys() {
        let small = HashRing::new(4, 64);
        let large = HashRing::new(5, 64);
        let n = 4000;
        let moved = urls(n)
            .iter()
            .filter(|u| small.node_for(u) != large.node_for(u))
            .count();
        // Ideal is 1/5 of the keyspace; allow generous slack, but far
        // less than the ~4/5 a naive `hash % n` reshuffle would move.
        let share = moved as f64 / n as f64;
        assert!(
            share < 0.40,
            "adding one node moved {share:.2} of the keyspace"
        );
    }
}
