//! Time-series extraction for the flow-bandwidth figures (Fig. 4b).

use mafic_netsim::StatsCollector;

/// One point of the victim-side bandwidth series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Bin start time in seconds.
    pub time_s: f64,
    /// Legitimate throughput in bytes/s.
    pub legit_bps: f64,
    /// Attack throughput in bytes/s.
    pub attack_bps: f64,
}

impl BandwidthPoint {
    /// Total throughput in bytes/s.
    #[must_use]
    pub fn total_bps(&self) -> f64 {
        self.legit_bps + self.attack_bps
    }
}

/// Extracts the victim arrival-bandwidth series from a run's statistics.
///
/// Returns an empty vector when no victim watch was configured.
///
/// # Example
///
/// ```
/// use mafic_metrics::victim_bandwidth_series;
/// use mafic_netsim::StatsCollector;
///
/// let series = victim_bandwidth_series(&StatsCollector::new());
/// assert!(series.is_empty());
/// ```
#[must_use]
pub fn victim_bandwidth_series(stats: &StatsCollector) -> Vec<BandwidthPoint> {
    let Some(bin) = stats.victim_bin_width() else {
        return Vec::new();
    };
    let width_s = bin.as_secs_f64();
    stats
        .victim_bins()
        .iter()
        .enumerate()
        .map(|(i, b)| BandwidthPoint {
            time_s: i as f64 * width_s,
            legit_bps: b.legit_bytes as f64 / width_s,
            attack_bps: b.attack_bytes as f64 / width_s,
        })
        .collect()
}

/// Extracts the *offered load* series — arrivals at the watched router
/// destined to the victim, before the defense drops them. This is the
/// "flow bandwidth" quantity of the paper's Fig. 4b.
///
/// Returns an empty vector when no arrival watch was configured.
#[must_use]
pub fn victim_arrival_series(stats: &StatsCollector) -> Vec<BandwidthPoint> {
    let Some(bin) = stats.arrival_bin_width() else {
        return Vec::new();
    };
    let width_s = bin.as_secs_f64();
    stats
        .arrival_bins()
        .iter()
        .enumerate()
        .map(|(i, b)| BandwidthPoint {
            time_s: i as f64 * width_s,
            legit_bps: b.legit_bytes as f64 / width_s,
            attack_bps: b.attack_bytes as f64 / width_s,
        })
        .collect()
}

/// Downsamples a series by averaging groups of `factor` consecutive
/// points (the paper's Fig. 4b plots coarse-grained bandwidth).
///
/// # Panics
///
/// Panics if `factor` is zero.
#[must_use]
pub fn downsample(series: &[BandwidthPoint], factor: usize) -> Vec<BandwidthPoint> {
    assert!(factor > 0, "factor must be positive");
    series
        .chunks(factor)
        .map(|chunk| {
            let n = chunk.len() as f64;
            BandwidthPoint {
                time_s: chunk[0].time_s,
                legit_bps: chunk.iter().map(|p| p.legit_bps).sum::<f64>() / n,
                attack_bps: chunk.iter().map(|p| p.attack_bps).sum::<f64>() / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mafic_netsim::{
        Addr, AgentId, FlowKey, NodeId, Packet, PacketKind, Provenance, SimDuration, SimTime,
    };

    fn delivered(stats: &mut StatsCollector, at_ms: u64, attack: bool) {
        let p = Packet {
            id: at_ms,
            key: FlowKey::new(Addr::new(1), Addr::new(2), 1, 80),
            kind: PacketKind::Udp,
            size_bytes: 1000,
            created_at: SimTime::ZERO,
            provenance: Provenance {
                origin: AgentId::from_index(0),
                is_attack: attack,
            },
            hops: 0,
        };
        let id = stats.flow_id(p.key);
        stats.on_delivered_id(
            id,
            &p,
            NodeId::from_index(3),
            SimTime::ZERO + SimDuration::from_millis(at_ms),
        );
    }

    #[test]
    fn series_converts_bins_to_rates() {
        let mut s = StatsCollector::new();
        s.watch_victim(NodeId::from_index(3), SimDuration::from_millis(100));
        delivered(&mut s, 10, false);
        delivered(&mut s, 20, false);
        delivered(&mut s, 150, true);
        let series = victim_bandwidth_series(&s);
        assert_eq!(series.len(), 2);
        // Bin 0: 2000 bytes / 0.1 s = 20 kB/s legit.
        assert!((series[0].legit_bps - 20_000.0).abs() < 1e-6);
        assert_eq!(series[0].attack_bps, 0.0);
        assert!((series[1].attack_bps - 10_000.0).abs() < 1e-6);
        assert!((series[1].time_s - 0.1).abs() < 1e-9);
        assert!((series[1].total_bps() - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn downsample_averages_chunks() {
        let series = vec![
            BandwidthPoint {
                time_s: 0.0,
                legit_bps: 10.0,
                attack_bps: 0.0,
            },
            BandwidthPoint {
                time_s: 0.1,
                legit_bps: 30.0,
                attack_bps: 10.0,
            },
            BandwidthPoint {
                time_s: 0.2,
                legit_bps: 50.0,
                attack_bps: 20.0,
            },
        ];
        let coarse = downsample(&series, 2);
        assert_eq!(coarse.len(), 2);
        assert!((coarse[0].legit_bps - 20.0).abs() < 1e-9);
        assert!((coarse[0].attack_bps - 5.0).abs() < 1e-9);
        assert!((coarse[1].legit_bps - 50.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "factor must be positive")]
    fn zero_factor_rejected() {
        let _ = downsample(&[], 0);
    }
}
