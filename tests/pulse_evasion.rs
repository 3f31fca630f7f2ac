//! Extension study: pulsing (shrew-style) zombies vs the 2×RTT probe.
//!
//! A zombie that falls silent during MAFIC's probation window looks
//! responsive and is declared nice — the structural evasion the paper
//! leaves to future work. This test pulses the scenario's own
//! constant-rate zombies on and off through the controls the adaptive
//! adversary uses (`UnresponsiveSender::{set_paused,
//! set_rate_scale_milli}`), toggled between `run_until` calls, and
//! demonstrates both sides: an always-on pulser is condemned, while a
//! pulser with an idle phase longer than the probation window can
//! survive probing.

use mafic_suite::netsim::{FilterControl, FlowKey, SimDuration, SimTime};
use mafic_suite::transport::UnresponsiveSender;
use mafic_suite::workload::{Scenario, ScenarioSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// An on/off schedule for every zombie.
#[derive(Clone, Copy)]
struct Pulse {
    /// Sending rate during the burst phase (packets/s).
    burst_rate_pps: f64,
    /// Burst phase length.
    burst_len: SimDuration,
    /// Silent phase length.
    idle_len: SimDuration,
    /// Start each zombie's first burst at a seeded random fraction of
    /// the period, so the fleet does not synchronize.
    randomize_phase: bool,
}

/// The burst/idle shape of the evasion tests: 80 ms at 2,000 pkt/s,
/// then 600 ms of silence.
const LONG_IDLE: Pulse = Pulse {
    burst_rate_pps: 2_000.0,
    burst_len: SimDuration::from_millis(80),
    idle_len: SimDuration::from_millis(600),
    randomize_phase: true,
};

fn end() -> SimTime {
    SimTime::from_secs_f64(6.0)
}

/// Builds the default small scenario, pulses its zombies with `pulse`
/// (optionally with NFT re-validation on), and runs it to the end.
/// Returns the finished scenario and the zombies' flow keys.
fn run_pulsed(pulse: Pulse, revalidate: Option<SimDuration>) -> (Scenario, Vec<FlowKey>) {
    let spec = ScenarioSpec {
        total_flows: 12,
        n_routers: 6,
        tcp_share: 0.75, // 3 zombies
        spoof_illegal: 0.0,
        spoof_legal: 0.0,
        end: end(),
        detection: mafic_suite::workload::DetectionMode::Off,
        nft_revalidate_after: revalidate,
        ..ScenarioSpec::default()
    };
    // The zombies' nominal rate, rescaled to the burst rate.
    let scale_milli = (pulse.burst_rate_pps / spec.attack_rate_pps() * 1000.0).round() as u32;
    let attack_start = spec.attack_start;
    let mut scenario = Scenario::build(spec).expect("build");

    // Every zombie starts paused at the burst rate; its schedule is a
    // list of (instant, agent, paused) toggles.
    let period = pulse.burst_len + pulse.idle_len;
    let mut rng = SmallRng::seed_from_u64(100);
    let mut attack_keys = Vec::new();
    let mut toggles = Vec::new();
    for flow in scenario.flows.iter().filter(|f| f.is_attack) {
        attack_keys.push(flow.key);
        let zombie = scenario
            .sim
            .agent_mut::<UnresponsiveSender>(flow.agent)
            .expect("zombies are unresponsive senders");
        zombie.set_paused(true);
        zombie.set_rate_scale_milli(scale_milli);
        let offset = if pulse.randomize_phase {
            period.mul_f64(rng.gen::<f64>())
        } else {
            SimDuration::ZERO
        };
        let mut burst_at = attack_start + offset;
        while burst_at < end() {
            toggles.push((burst_at, flow.agent, false));
            toggles.push((burst_at + pulse.burst_len, flow.agent, true));
            burst_at += period;
        }
    }
    toggles.sort_by_key(|&(at, _, _)| at);

    // Activate MAFIC everywhere at a fixed time (detection disabled
    // above, so the pulses cannot confuse the monitor).
    let victim = scenario.domain.victim_addr;
    for &(node, _) in &scenario.droppers.clone() {
        scenario.sim.send_control(
            node,
            FilterControl::PushbackStart { victim },
            SimTime::from_secs_f64(1.3),
        );
    }

    // Step from one toggle instant to the next.
    for (at, agent, paused) in toggles {
        scenario.sim.run_until(at);
        scenario
            .sim
            .agent_mut::<UnresponsiveSender>(agent)
            .expect("zombie")
            .set_paused(paused);
    }
    scenario.sim.run_until(end());
    (scenario, attack_keys)
}

fn condemned_count(scenario: &Scenario, keys: &[FlowKey]) -> usize {
    keys.iter()
        .filter(|k| {
            scenario
                .sim
                .stats()
                .flow(k)
                .is_some_and(|r| r.declared_malicious > 0)
        })
        .count()
}

fn cleared_count(scenario: &Scenario, keys: &[FlowKey]) -> usize {
    keys.iter()
        .filter(|k| {
            scenario
                .sim
                .stats()
                .flow(k)
                .is_some_and(|r| r.declared_nice > 0)
        })
        .count()
}

/// Pulser traffic delivered to the victim over pulser traffic sent.
fn delivered_fraction(scenario: &Scenario, keys: &[FlowKey]) -> f64 {
    let (mut delivered, mut sent) = (0u64, 0u64);
    for k in keys {
        if let Some(r) = scenario.sim.stats().flow(k) {
            delivered += r.delivered;
            sent += r.sent;
        }
    }
    assert!(sent > 0);
    delivered as f64 / sent as f64
}

#[test]
fn constant_pulse_equivalent_is_condemned() {
    // Degenerate pulser: always bursting (idle = 1 ns) — behaves like a
    // CBR zombie and must be condemned.
    let (scenario, keys) = run_pulsed(
        Pulse {
            burst_rate_pps: 800.0,
            burst_len: SimDuration::from_millis(400),
            idle_len: SimDuration::from_nanos(1),
            randomize_phase: false,
        },
        None,
    );
    assert_eq!(
        condemned_count(&scenario, &keys),
        keys.len(),
        "always-on pulsers must land in the PDT"
    );
}

#[test]
fn long_idle_pulser_can_evade_the_probe() {
    // Burst 80 ms, silent 600 ms: the silent phase dwarfs the ~2×RTT
    // probation window, so probes sampled near a burst's end observe a
    // "responsive" rate collapse.
    let (scenario, keys) = run_pulsed(LONG_IDLE, None);
    let cleared = cleared_count(&scenario, &keys);
    let condemned = condemned_count(&scenario, &keys);
    // The defining property of the evasion: at least one pulser slips
    // through the probe test (is declared nice) — MAFIC's structural
    // limitation against shrew-style attackers.
    assert!(
        cleared >= 1,
        "expected at least one evading pulser, got {condemned} condemned / {cleared} cleared"
    );
}

#[test]
fn evasion_is_still_rate_limited_by_the_probing_phase() {
    // Even when pulsers evade classification, the probing phase plus
    // their own duty cycle caps what reaches the victim: the flood is
    // blunted relative to an undefended run.
    let (defended, keys) = run_pulsed(LONG_IDLE, None);
    assert!(
        delivered_fraction(&defended, &keys) < 1.0,
        "some pulser traffic must still be shed"
    );
}

#[test]
fn nft_revalidation_suppresses_evading_pulsers() {
    // Anti-pulsing extension: nice verdicts expire after 400 ms, so an
    // evading pulser re-enters probation on (almost) every burst and
    // keeps paying the Pd=90% probing tax. A burst shorter than half the
    // probation window still *classifies* as responsive each time —
    // condemnation is not guaranteed — but the delivered fraction of its
    // traffic drops sharply compared to the never-re-probe baseline.
    let fraction = |revalidate: Option<SimDuration>| {
        let (scenario, keys) = run_pulsed(LONG_IDLE, revalidate);
        delivered_fraction(&scenario, &keys)
    };
    let without = fraction(None);
    let with = fraction(Some(SimDuration::from_millis(400)));
    assert!(
        with < without * 0.7,
        "re-validation should cut pulser goodput: {with:.3} vs {without:.3}"
    );
}
