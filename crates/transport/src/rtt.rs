//! RTT estimation (Jacobson/Karels smoothing) for the TCP agents.

use mafic_netsim::{SimDuration, SnapError, SnapReader, State, StateWrite};

/// Smoothed RTT estimator producing retransmission timeouts.
///
/// Implements the standard `SRTT`/`RTTVAR` smoothing: on each sample,
/// `RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT − sample|` and
/// `SRTT ← 7/8·SRTT + 1/8·sample`, with `RTO = SRTT + 4·RTTVAR`
/// clamped to configured bounds.
///
/// # Example
///
/// ```
/// use mafic_transport::RttEstimator;
/// use mafic_netsim::SimDuration;
///
/// let mut est = RttEstimator::new(
///     SimDuration::from_millis(200),
///     SimDuration::from_millis(100),
///     SimDuration::from_secs(5),
/// );
/// est.sample(SimDuration::from_millis(40));
/// assert!(est.srtt().unwrap() >= SimDuration::from_millis(40));
/// assert!(est.rto() >= SimDuration::from_millis(100));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RttEstimator {
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    min_rto: SimDuration,
    max_rto: SimDuration,
}

impl RttEstimator {
    /// Creates an estimator with an initial RTO (used before any sample)
    /// and clamping bounds.
    ///
    /// # Panics
    ///
    /// Panics if `min_rto > max_rto`.
    #[must_use]
    pub fn new(initial_rto: SimDuration, min_rto: SimDuration, max_rto: SimDuration) -> Self {
        assert!(min_rto <= max_rto, "min_rto exceeds max_rto");
        RttEstimator {
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: initial_rto.max(min_rto).min(max_rto),
            min_rto,
            max_rto,
        }
    }

    /// The smoothed RTT, if at least one sample arrived.
    #[must_use]
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// The current retransmission timeout.
    #[must_use]
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Feeds one RTT measurement.
    pub fn sample(&mut self, rtt: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let err = if srtt > rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar * 3 + err) / 4;
                self.srtt = Some((srtt * 7 + rtt) / 8);
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar * 4).max(self.min_rto).min(self.max_rto);
    }

    /// Exponential backoff after a retransmission timeout.
    pub fn backoff(&mut self) {
        self.rto = (self.rto * 2).min(self.max_rto);
    }
}

/// The mutable estimator state; the clamping bounds are
/// construction-time configuration.
impl State for RttEstimator {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_opt(self.srtt, |w, s| w.write_u64(s.as_nanos()));
        w.write_u64(self.rttvar.as_nanos());
        w.write_u64(self.rto.as_nanos());
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.srtt = r.read_opt("srtt", |r| r.read_u64().map(SimDuration::from_nanos))?;
        self.rttvar = SimDuration::from_nanos(r.read_u64()?);
        self.rto = SimDuration::from_nanos(r.read_u64()?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::new(
            SimDuration::from_millis(200),
            SimDuration::from_millis(50),
            SimDuration::from_secs(4),
        )
    }

    #[test]
    fn initial_rto_is_clamped() {
        let e = RttEstimator::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(50),
            SimDuration::from_secs(4),
        );
        assert_eq!(e.rto(), SimDuration::from_millis(50));
        assert_eq!(e.srtt(), None);
    }

    #[test]
    fn first_sample_initializes() {
        let mut e = est();
        e.sample(SimDuration::from_millis(80));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(80)));
        // RTO = 80 + 4*40 = 240ms.
        assert_eq!(e.rto(), SimDuration::from_millis(240));
    }

    #[test]
    fn smoothing_converges_to_stable_rtt() {
        let mut e = est();
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(60));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            (srtt.as_secs_f64() - 0.060).abs() < 0.001,
            "srtt did not converge: {srtt}"
        );
        // With zero variance the RTO approaches SRTT, clamped at min.
        assert!(e.rto() >= SimDuration::from_millis(50));
        assert!(e.rto() <= SimDuration::from_millis(80));
    }

    #[test]
    fn backoff_doubles_until_cap() {
        let mut e = est();
        e.sample(SimDuration::from_millis(100));
        let before = e.rto();
        e.backoff();
        assert_eq!(e.rto(), (before * 2).min(SimDuration::from_secs(4)));
        for _ in 0..10 {
            e.backoff();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(4));
    }

    #[test]
    #[should_panic(expected = "min_rto exceeds max_rto")]
    fn bounds_validated() {
        let _ = RttEstimator::new(
            SimDuration::from_millis(1),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        );
    }
}
