//! Extension study: pulsing (shrew-style) zombies vs the 2×RTT probe.
//!
//! A zombie that falls silent during MAFIC's probation window looks
//! responsive and is declared nice — the structural evasion the paper
//! leaves to future work. This test builds the scenario by hand (the
//! standard workload generator only provisions constant-rate zombies)
//! and demonstrates both sides: a constant zombie is condemned, while a
//! pulsed zombie with an idle phase longer than the probation window can
//! survive probing.

use mafic_suite::netsim::{FilterControl, FlowKey, SimDuration, SimTime};
use mafic_suite::transport::{PulseConfig, PulsedSender};
use mafic_suite::workload::{Scenario, ScenarioSpec};

/// Builds the default small scenario and replaces its zombies' agents
/// with pulsed senders of the given configuration.
fn pulsed_scenario(pulse: PulseConfig) -> (Scenario, Vec<FlowKey>) {
    pulsed_scenario_with(pulse, None)
}

/// Like [`pulsed_scenario`], optionally enabling NFT re-validation.
fn pulsed_scenario_with(
    pulse: PulseConfig,
    revalidate: Option<SimDuration>,
) -> (Scenario, Vec<FlowKey>) {
    let spec = ScenarioSpec {
        total_flows: 12,
        n_routers: 6,
        tcp_share: 0.75, // 3 zombies
        spoof_illegal: 0.0,
        spoof_legal: 0.0,
        end: SimTime::from_secs_f64(6.0),
        detection: mafic_suite::workload::DetectionMode::Off,
        nft_revalidate_after: revalidate,
        ..ScenarioSpec::default()
    };
    let mut scenario = Scenario::build(spec).expect("build");
    // Swap every attack agent for a pulser on the same flow key.
    let mut attack_keys = Vec::new();
    for (i, flow) in scenario.flows.clone().into_iter().enumerate() {
        if !flow.is_attack {
            continue;
        }
        attack_keys.push(flow.key);
        let node = scenario.sim.agent_node(flow.agent);
        let mut pulser = PulsedSender::new(flow.key, pulse, 100 + i as u64);
        pulser.set_stop_after(SimTime::from_secs_f64(6.0));
        let agent = scenario
            .sim
            .add_agent(node, Box::new(pulser), SimTime::from_secs_f64(1.0));
        let _ = agent;
        // Both the original zombie and the pulser share the flow key; the
        // original must stay silent, so stop it before it ever starts.
        if let Some(old) = scenario
            .sim
            .agent_mut::<mafic_suite::transport::UnresponsiveSender>(flow.agent)
        {
            old.set_stop_after(SimTime::ZERO);
        }
    }
    // Activate MAFIC everywhere at a fixed time (detection disabled above
    // so the swap cannot confuse the monitor).
    let victim = scenario.domain.victim_addr;
    for &(node, _) in &scenario.droppers.clone() {
        scenario.sim.send_control(
            node,
            FilterControl::PushbackStart { victim },
            SimTime::from_secs_f64(1.3),
        );
    }
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

#[test]
fn constant_pulse_equivalent_is_condemned() {
    // Degenerate pulser: always bursting (idle = 0) — behaves like a CBR
    // zombie and must be condemned.
    let (mut scenario, keys) = pulsed_scenario(PulseConfig {
        burst_rate_pps: 800.0,
        burst_len: SimDuration::from_millis(400),
        idle_len: SimDuration::from_nanos(1),
        randomize_phase: false,
        ..PulseConfig::default()
    });
    scenario.sim.run_until(SimTime::from_secs_f64(6.0));
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
    let (mut scenario, keys) = pulsed_scenario(PulseConfig {
        burst_rate_pps: 2_000.0,
        burst_len: SimDuration::from_millis(80),
        idle_len: SimDuration::from_millis(600),
        randomize_phase: true,
        ..PulseConfig::default()
    });
    scenario.sim.run_until(SimTime::from_secs_f64(6.0));
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
    let pulse = PulseConfig {
        burst_rate_pps: 2_000.0,
        burst_len: SimDuration::from_millis(80),
        idle_len: SimDuration::from_millis(600),
        randomize_phase: true,
        ..PulseConfig::default()
    };
    let (mut defended, keys) = pulsed_scenario(pulse);
    defended.sim.run_until(SimTime::from_secs_f64(6.0));
    let delivered_defended: u64 = keys
        .iter()
        .filter_map(|k| defended.sim.stats().flow(k).map(|r| r.delivered))
        .sum();
    let sent_defended: u64 = keys
        .iter()
        .filter_map(|k| defended.sim.stats().flow(k).map(|r| r.sent))
        .sum();
    assert!(sent_defended > 0);
    assert!(
        delivered_defended < sent_defended,
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
    let pulse = PulseConfig {
        burst_rate_pps: 2_000.0,
        burst_len: SimDuration::from_millis(80),
        idle_len: SimDuration::from_millis(600),
        randomize_phase: true,
        ..PulseConfig::default()
    };
    let delivered_fraction = |revalidate: Option<SimDuration>| {
        let (mut scenario, keys) = pulsed_scenario_with(pulse, revalidate);
        scenario.sim.run_until(SimTime::from_secs_f64(6.0));
        let (mut delivered, mut sent) = (0u64, 0u64);
        for k in &keys {
            if let Some(r) = scenario.sim.stats().flow(k) {
                delivered += r.delivered;
                sent += r.sent;
            }
        }
        assert!(sent > 0);
        delivered as f64 / sent as f64
    };
    let without = delivered_fraction(None);
    let with = delivered_fraction(Some(SimDuration::from_millis(400)));
    assert!(
        with < without * 0.7,
        "re-validation should cut pulser goodput: {with:.3} vs {without:.3}"
    );
}
