//! The estimated domain traffic matrix `A = {a_ij}`.
//!
//! The `TrafficMonitor` of the paper's NS-2 implementation periodically
//! gathers the per-router sketch pairs and computes, for every
//! (ingress, egress) pair, the estimated number of distinct packets that
//! traversed that pair. A last-hop router whose `|D_j|` spikes is a DDoS
//! victim candidate, and the ingress routers contributing the largest
//! `a_ij` share toward it are the Attack Transit Routers.

use crate::loglog::SketchError;
use crate::setunion::RouterSketch;
use std::fmt;

/// Index of a router within a [`TrafficMatrix`] snapshot.
///
/// This is a dense per-snapshot index, not a global router identity; the
/// caller keeps the mapping (the simulator maps it to `NodeId`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RouterSketchId(pub usize);

impl fmt::Display for RouterSketchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "router#{}", self.0)
    }
}

/// A dense estimate of the domain traffic matrix.
///
/// # Example
///
/// ```
/// use mafic_loglog::{RouterSketch, TrafficMatrix, Precision, RouterSketchId};
///
/// let mut r0 = RouterSketch::new(Precision::P10);
/// let mut r1 = RouterSketch::new(Precision::P10);
/// // 4000 packets enter at r0 and leave at r1.
/// for id in 0u64..4_000 {
///     r0.record_source(id);
///     r1.record_destination(id);
/// }
/// let m = TrafficMatrix::estimate(&[r0, r1]).unwrap();
/// assert!(m.flow(RouterSketchId(0), RouterSketchId(1)) > m.flow(RouterSketchId(1), RouterSketchId(0)));
/// ```
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major `a_ij`: packets entering at `i` and leaving at `j`.
    flows: Vec<f64>,
    source_card: Vec<f64>,
    dest_card: Vec<f64>,
}

impl TrafficMatrix {
    /// Estimates the traffic matrix from one sketch pair per router.
    ///
    /// # Errors
    ///
    /// Returns [`SketchError`] if the routers' sketches use different
    /// precisions.
    pub fn estimate(routers: &[RouterSketch]) -> Result<TrafficMatrix, SketchError> {
        let n = routers.len();
        let mut flows = vec![0.0; n * n];
        let source_card: Vec<f64> = routers
            .iter()
            .map(RouterSketch::source_cardinality)
            .collect();
        let dest_card: Vec<f64> = routers
            .iter()
            .map(RouterSketch::destination_cardinality)
            .collect();
        for (i, ingress) in routers.iter().enumerate() {
            // Skip silent ingresses: their row is exactly zero and the
            // inclusion–exclusion noise would otherwise pollute it.
            if ingress.source_sketch().is_empty() {
                continue;
            }
            for (j, egress) in routers.iter().enumerate() {
                if egress.destination_sketch().is_empty() {
                    continue;
                }
                // Inclusion–exclusion over the cardinalities already in
                // hand; only the union is new work per pair.
                let union = ingress
                    .source_sketch()
                    .union_estimate(egress.destination_sketch())?;
                flows[i * n + j] = (source_card[i] + dest_card[j] - union).max(0.0);
            }
        }
        Ok(TrafficMatrix {
            n,
            flows,
            source_card,
            dest_card,
        })
    }

    /// Number of routers in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the snapshot covers no routers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Estimated `a_ij` — distinct packets entering at `i`, leaving at `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[must_use]
    pub fn flow(&self, i: RouterSketchId, j: RouterSketchId) -> f64 {
        assert!(i.0 < self.n && j.0 < self.n, "router index out of range");
        self.flows[i.0 * self.n + j.0]
    }

    /// Estimated `|S_i|` for router `i`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn source_cardinality(&self, i: RouterSketchId) -> f64 {
        self.source_card[i.0]
    }

    /// Estimated `|D_j|` for router `j`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn destination_cardinality(&self, j: RouterSketchId) -> f64 {
        self.dest_card[j.0]
    }

    /// The column of estimated contributions toward egress `j`, i.e. for
    /// each ingress `i` the estimated `a_ij`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub(crate) fn contributions_to(&self, j: RouterSketchId) -> Vec<(RouterSketchId, f64)> {
        assert!(j.0 < self.n, "router index out of range");
        (0..self.n)
            .map(|i| (RouterSketchId(i), self.flows[i * self.n + j.0]))
            .collect()
    }

    /// The egress router with the largest estimated `|D_j|`, if any traffic
    /// was seen at all.
    #[cfg(test)]
    #[must_use]
    pub fn busiest_egress(&self) -> Option<(RouterSketchId, f64)> {
        self.dest_card
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0.0)
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &c)| (RouterSketchId(i), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loglog::Precision;

    fn three_router_domain() -> Vec<RouterSketch> {
        // r0, r1 are ingresses; r2 is the egress (victim side).
        // r0 -> r2: ids 0..8000 ; r1 -> r2: ids 8000..10000.
        let mut r0 = RouterSketch::new(Precision::P12);
        let mut r1 = RouterSketch::new(Precision::P12);
        let mut r2 = RouterSketch::new(Precision::P12);
        for id in 0u64..8_000 {
            r0.record_source(id);
            r2.record_destination(id);
        }
        for id in 8_000u64..10_000 {
            r1.record_source(id);
            r2.record_destination(id);
        }
        vec![r0, r1, r2]
    }

    #[test]
    fn estimates_relative_contributions() {
        let m = TrafficMatrix::estimate(&three_router_domain()).unwrap();
        let a02 = m.flow(RouterSketchId(0), RouterSketchId(2));
        let a12 = m.flow(RouterSketchId(1), RouterSketchId(2));
        assert!(a02 > a12, "heavy ingress should dominate: {a02} vs {a12}");
        assert!((m.destination_cardinality(RouterSketchId(2)) - 10_000.0).abs() / 10_000.0 < 0.2);
    }

    #[test]
    fn entries_equal_the_pairwise_flow_estimates() {
        let routers = three_router_domain();
        let m = TrafficMatrix::estimate(&routers).unwrap();
        for (i, j) in [(0, 2), (1, 2)] {
            let pairwise = routers[i].flow_estimate(&routers[j]).unwrap();
            let entry = m.flow(RouterSketchId(i), RouterSketchId(j));
            assert_eq!(entry.to_bits(), pairwise.to_bits());
        }
    }

    #[test]
    fn busiest_egress_is_victim() {
        let m = TrafficMatrix::estimate(&three_router_domain()).unwrap();
        let (id, card) = m.busiest_egress().unwrap();
        assert_eq!(id, RouterSketchId(2));
        assert!(card > 5_000.0);
    }

    #[test]
    fn empty_matrix() {
        let m = TrafficMatrix::estimate(&[]).unwrap();
        assert!(m.is_empty());
        assert!(m.busiest_egress().is_none());
    }

    #[test]
    fn silent_routers_have_zero_rows() {
        let m = TrafficMatrix::estimate(&three_router_domain()).unwrap();
        // r2 injects nothing, so its row is zero.
        assert_eq!(m.flow(RouterSketchId(2), RouterSketchId(2)), 0.0);
        assert_eq!(m.flow(RouterSketchId(2), RouterSketchId(0)), 0.0);
    }

    #[test]
    fn contributions_sum_close_to_destination_cardinality() {
        let m = TrafficMatrix::estimate(&three_router_domain()).unwrap();
        let total: f64 = m
            .contributions_to(RouterSketchId(2))
            .iter()
            .map(|(_, v)| v)
            .sum();
        let dj = m.destination_cardinality(RouterSketchId(2));
        assert!((total - dj).abs() / dj < 0.5, "sum {total} vs |D_j| {dj}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flow_bounds_checked() {
        let m = TrafficMatrix::estimate(&three_router_domain()).unwrap();
        let _ = m.flow(RouterSketchId(9), RouterSketchId(0));
    }
}
