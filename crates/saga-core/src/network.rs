//! The compute network `N = (V, E)` of the paper's Section II.
//!
//! A complete undirected graph: every node has a compute speed `s(v)` and
//! every unordered pair a communication strength `s(v, v')`. Under the
//! related-machines model a task `t` runs on `v` in `c(t) / s(v)` and an edge
//! `(t, t')` scheduled across `(v, v')` costs `c(t, t') / s(v, v')`.
//!
//! Self-links have infinite strength (communication on the same node is
//! free), and generators may also use infinite strengths to model shared
//! filesystems (the paper's Chameleon-derived networks).

use crate::{NetworkError, NodeId};
use serde::{Deserialize, Serialize};

/// A complete weighted network of compute nodes.
///
/// Link strengths are stored as a dense row-major `n x n` symmetric matrix;
/// zero speeds/strengths are legal and yield infinite times (the paper clips
/// perturbed weights at 0, which is how its `>1000` ratios arise).
#[derive(Debug, Serialize, Deserialize)]
pub struct Network {
    speeds: Vec<f64>,
    links: Vec<f64>,
}

impl Network {
    /// Builds a network with the given node speeds and a uniform strength for
    /// every (non-self) link.
    pub fn complete(speeds: &[f64], link_strength: f64) -> Self {
        let n = speeds.len();
        let mut links = vec![link_strength; n * n];
        for i in 0..n {
            links[i * n + i] = f64::INFINITY;
        }
        Network {
            speeds: speeds.to_vec(),
            links,
        }
    }

    /// Builds a network from node speeds and an explicit symmetric link
    /// matrix (row-major, `speeds.len()^2` entries). The diagonal is forced
    /// to infinity.
    ///
    /// # Panics
    /// Panics if the matrix has the wrong size or is not symmetric; see
    /// [`Self::try_from_matrix`] for the fallible form.
    pub fn from_matrix(speeds: Vec<f64>, links: Vec<f64>) -> Self {
        match Self::try_from_matrix(speeds, links) {
            Ok(net) => net,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Self::from_matrix`], returning a [`NetworkError`] instead of
    /// panicking on a wrong-sized or asymmetric matrix.
    pub fn try_from_matrix(speeds: Vec<f64>, mut links: Vec<f64>) -> Result<Self, NetworkError> {
        let n = speeds.len();
        if links.len() != n * n {
            return Err(NetworkError::LinkMatrixSize {
                nodes: n,
                links: links.len(),
            });
        }
        for i in 0..n {
            links[i * n + i] = f64::INFINITY;
            for j in 0..i {
                if links[i * n + j] != links[j * n + i] {
                    return Err(NetworkError::AsymmetricLink {
                        u: NodeId(i as u32),
                        v: NodeId(j as u32),
                    });
                }
            }
        }
        Ok(Network { speeds, links })
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.speeds.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.speeds.len() as u32).map(NodeId)
    }

    /// Compute speed `s(v)`.
    #[inline]
    pub fn speed(&self, v: NodeId) -> f64 {
        self.speeds[v.index()]
    }

    /// Sets the compute speed `s(v)`.
    pub fn set_speed(&mut self, v: NodeId, speed: f64) {
        assert!(speed >= 0.0 && !speed.is_nan(), "speed must be >= 0");
        self.speeds[v.index()] = speed;
    }

    /// Communication strength `s(u, v)`; infinite for `u == v`.
    #[inline]
    pub fn link(&self, u: NodeId, v: NodeId) -> f64 {
        self.links[u.index() * self.speeds.len() + v.index()]
    }

    /// Sets the (symmetric) communication strength between two distinct nodes.
    ///
    /// # Panics
    /// Panics on a self-link or a negative/NaN strength.
    pub fn set_link(&mut self, u: NodeId, v: NodeId, strength: f64) {
        assert!(u != v, "self-links are fixed at infinite strength");
        assert!(
            strength >= 0.0 && !strength.is_nan(),
            "strength must be >= 0"
        );
        let n = self.speeds.len();
        self.links[u.index() * n + v.index()] = strength;
        self.links[v.index() * n + u.index()] = strength;
    }

    /// Execution time of a task with compute cost `cost` on node `v`:
    /// `c(t) / s(v)`. A zero-cost task takes zero time even on a zero-speed
    /// node (avoids `0/0 = NaN`).
    #[inline]
    pub fn exec_time(&self, cost: f64, v: NodeId) -> f64 {
        if cost == 0.0 {
            0.0
        } else {
            cost / self.speeds[v.index()]
        }
    }

    /// Communication time of `bytes` from node `u` to node `v`:
    /// `c(t, t') / s(u, v)`; zero if the endpoints coincide or no data moves.
    #[inline]
    pub fn comm_time(&self, bytes: f64, u: NodeId, v: NodeId) -> f64 {
        if u == v || bytes == 0.0 {
            0.0
        } else {
            bytes / self.link(u, v)
        }
    }

    /// The node with the greatest compute speed (lowest id on ties).
    pub fn fastest_node(&self) -> NodeId {
        let mut best = NodeId(0);
        for v in self.nodes() {
            if self.speed(v) > self.speed(best) {
                best = v;
            }
        }
        best
    }

    /// Mean of `1 / s(v)` over all nodes — the factor that converts a task
    /// cost into the paper's "average execution time over all nodes".
    pub fn mean_inverse_speed(&self) -> f64 {
        let n = self.speeds.len();
        if n == 0 {
            return 0.0;
        }
        self.speeds
            .iter()
            .map(|&s| if s == 0.0 { f64::INFINITY } else { 1.0 / s })
            .sum::<f64>()
            / n as f64
    }

    /// Mean of `1 / s(u, v)` over ordered pairs `u != v` — converts a data
    /// size into an average communication time. Returns 0 for a single-node
    /// network (all communication is local).
    pub fn mean_inverse_link(&self) -> f64 {
        let n = self.speeds.len();
        if n <= 1 {
            return 0.0;
        }
        let mut total = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let s = self.links[i * n + j];
                    total += if s == 0.0 {
                        f64::INFINITY
                    } else if s.is_infinite() {
                        0.0
                    } else {
                        1.0 / s
                    };
                }
            }
        }
        total / (n * (n - 1)) as f64
    }

    /// All node speeds as a slice.
    pub fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The full link-strength matrix, row-major (`node_count()^2` entries,
    /// infinite diagonal). Used by the scheduling kernel to snapshot
    /// communication rates without per-query indirection.
    pub fn links(&self) -> &[f64] {
        &self.links
    }
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            speeds: self.speeds.clone(),
            links: self.links.clone(),
        }
    }

    /// Reuses the destination's buffers — annealing loops clone candidate
    /// instances every iteration, and this keeps them allocation-free after
    /// warm-up.
    fn clone_from(&mut self, source: &Self) {
        self.speeds.clear();
        self.speeds.extend_from_slice(&source.speeds);
        self.links.clear();
        self.links.extend_from_slice(&source.links);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_network_has_infinite_self_links() {
        let n = Network::complete(&[1.0, 2.0, 3.0], 0.5);
        for v in n.nodes() {
            assert!(n.link(v, v).is_infinite());
        }
        assert_eq!(n.link(NodeId(0), NodeId(2)), 0.5);
        assert_eq!(n.node_count(), 3);
    }

    #[test]
    fn exec_and_comm_times_follow_related_machines_model() {
        let n = Network::complete(&[1.0, 2.0], 0.5);
        assert_eq!(n.exec_time(4.0, NodeId(0)), 4.0);
        assert_eq!(n.exec_time(4.0, NodeId(1)), 2.0);
        assert_eq!(n.comm_time(1.0, NodeId(0), NodeId(1)), 2.0);
        assert_eq!(n.comm_time(1.0, NodeId(0), NodeId(0)), 0.0);
        assert_eq!(n.comm_time(0.0, NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn zero_speeds_yield_infinite_times_not_nan() {
        let n = Network::complete(&[0.0, 1.0], 0.0);
        assert!(n.exec_time(1.0, NodeId(0)).is_infinite());
        assert_eq!(n.exec_time(0.0, NodeId(0)), 0.0);
        assert!(n.comm_time(1.0, NodeId(0), NodeId(1)).is_infinite());
    }

    #[test]
    fn set_link_is_symmetric() {
        let mut n = Network::complete(&[1.0, 1.0, 1.0], 1.0);
        n.set_link(NodeId(0), NodeId(2), 7.0);
        assert_eq!(n.link(NodeId(2), NodeId(0)), 7.0);
        assert_eq!(n.link(NodeId(0), NodeId(1)), 1.0);
    }

    #[test]
    fn fastest_node_prefers_lowest_id_on_ties() {
        let n = Network::complete(&[2.0, 3.0, 3.0], 1.0);
        assert_eq!(n.fastest_node(), NodeId(1));
        let n = Network::complete(&[5.0, 5.0], 1.0);
        assert_eq!(n.fastest_node(), NodeId(0));
    }

    #[test]
    fn mean_inverse_speed_and_link() {
        let n = Network::complete(&[1.0, 2.0], 0.5);
        assert!((n.mean_inverse_speed() - 0.75).abs() < 1e-12);
        assert!((n.mean_inverse_link() - 2.0).abs() < 1e-12);
        // infinite links count as zero time (shared filesystem model)
        let m = Network::complete(&[1.0, 1.0], f64::INFINITY);
        assert_eq!(m.mean_inverse_link(), 0.0);
        // single-node network has no links
        assert_eq!(Network::complete(&[1.0], 1.0).mean_inverse_link(), 0.0);
    }

    #[test]
    fn from_matrix_validates_symmetry() {
        let n = Network::from_matrix(vec![1.0, 2.0], vec![0.0, 3.0, 3.0, 0.0]);
        assert_eq!(n.link(NodeId(0), NodeId(1)), 3.0);
        assert!(n.link(NodeId(0), NodeId(0)).is_infinite());
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_matrix_rejects_asymmetry() {
        Network::from_matrix(vec![1.0, 2.0], vec![0.0, 3.0, 4.0, 0.0]);
    }
}
