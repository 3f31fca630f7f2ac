//! Pins the ARCHITECTURE.md "Id lifetime vs table flush" rule end to
//! end: a `PushbackStop` flushes the MAFIC tables mid-run, a second
//! attack wave re-triggers the defense, and across the two activations
//! the flow keeps its interned `FlowId` while stale timer-wheel entries
//! armed before the flush fire harmlessly.

use mafic_suite::core::{AddressValidator, MaficConfig, MaficFilter};
use mafic_suite::netsim::{
    Addr, CountingSink, FilterControl, FlowKey, LinkSpec, SimDuration, SimTime, Simulator,
};
use mafic_suite::transport::{CbrConfig, CbrProtocol, UnresponsiveSender};

const HOST_ADDR: Addr = Addr::from_octets(10, 1, 0, 1);
const VICTIM_ADDR: Addr = Addr::from_octets(10, 200, 0, 1);

/// host — router (MAFIC) — victim, with two same-key attack waves and a
/// stop/start cycle between them.
struct Fixture {
    sim: Simulator,
    router: mafic_suite::netsim::NodeId,
    filter_index: usize,
    key: FlowKey,
}

fn build() -> Fixture {
    let mut sim = Simulator::new(7);
    let host = sim.add_node("host");
    let router = sim.add_node("router");
    let victim = sim.add_node("victim");
    let spec = LinkSpec::new(10e6, SimDuration::from_millis(5), 64);
    let (h2r, _) = sim.add_duplex_link(host, router, spec);
    let (r2v, _) = sim.add_duplex_link(router, victim, spec);
    sim.add_route(host, VICTIM_ADDR, h2r);
    sim.add_route(router, VICTIM_ADDR, r2v);
    // Reverse route so MAFIC's probes toward the claimed source leave
    // the router.
    let back = {
        let (b, _) = sim.add_duplex_link(router, host, spec);
        b
    };
    sim.add_route(router, HOST_ADDR, back);

    let sink = sim.add_agent(victim, Box::new(CountingSink::new()), SimTime::ZERO);
    sim.bind_local_addr(victim, VICTIM_ADDR, sink);

    let config = MaficConfig {
        drop_probability: 1.0, // deterministic sampling into the SFT
        seed: 99,
        ..MaficConfig::default()
    };
    let filter_index = sim.add_filter(
        router,
        Box::new(MaficFilter::new(config, AddressValidator::AllowAll)),
    );

    let key = FlowKey::new(HOST_ADDR, VICTIM_ADDR, 4000, 80);
    let cbr = CbrConfig {
        rate_pps: 200.0,
        packet_size: 500,
        jitter: 0.0,
        protocol: CbrProtocol::Udp,
    };
    // Wave 1: 0.1 s – 1.0 s.
    let mut wave1 = UnresponsiveSender::new(key, cbr, true, 1);
    wave1.set_stop_after(SimTime::from_secs_f64(1.0));
    let a1 = sim.add_agent(host, Box::new(wave1), SimTime::from_secs_f64(0.1));
    sim.bind_local_addr(host, HOST_ADDR, a1);
    // Wave 2: same 4-tuple, 2.0 s – 3.0 s.
    let mut wave2 = UnresponsiveSender::new(key, cbr, true, 2);
    wave2.set_stop_after(SimTime::from_secs_f64(3.0));
    let _a2 = sim.add_agent(host, Box::new(wave2), SimTime::from_secs_f64(2.0));

    // Defense lifecycle: active for wave 1, flushed in the lull,
    // re-activated for wave 2.
    sim.send_control(
        router,
        FilterControl::PushbackStart {
            victim: VICTIM_ADDR,
        },
        SimTime::from_secs_f64(0.05),
    );
    sim.send_control(
        router,
        FilterControl::PushbackStop,
        SimTime::from_secs_f64(1.5),
    );
    sim.send_control(
        router,
        FilterControl::PushbackStart {
            victim: VICTIM_ADDR,
        },
        SimTime::from_secs_f64(1.9),
    );

    Fixture {
        sim,
        router,
        filter_index,
        key,
    }
}

#[test]
fn flow_id_survives_the_flush_and_the_defense_retriggers() {
    let mut f = build();

    // Wave 1 raged and was condemned.
    f.sim.run_until(SimTime::from_secs_f64(1.4));
    let id_wave1 = f
        .sim
        .flow_interner()
        .lookup(f.key)
        .expect("flow interned during wave 1");
    {
        let filter = f
            .sim
            .filter::<MaficFilter>(f.router, f.filter_index)
            .expect("filter installed");
        assert!(filter.is_active());
        assert_eq!(filter.tables().pdt_len(), 1, "unresponsive flow condemned");
        assert_eq!(filter.counters().flows_malicious, 1);
    }

    // The flush empties the tables but not the interner.
    f.sim.run_until(SimTime::from_secs_f64(1.8));
    {
        let filter = f
            .sim
            .filter::<MaficFilter>(f.router, f.filter_index)
            .expect("filter installed");
        assert!(!filter.is_active(), "PushbackStop deactivates");
        assert_eq!(filter.tables().sft_len(), 0);
        assert_eq!(filter.tables().nft_len(), 0);
        assert_eq!(filter.tables().pdt_len(), 0, "flush empties the PDT");
    }
    assert_eq!(
        f.sim.flow_interner().lookup(f.key),
        Some(id_wave1),
        "the id ↔ key binding survives the flush"
    );

    // Wave 2 re-triggers the whole machinery under the SAME flow id.
    f.sim.run_until(SimTime::from_secs_f64(3.5));
    let filter = f
        .sim
        .filter::<MaficFilter>(f.router, f.filter_index)
        .expect("filter installed");
    assert!(filter.is_active());
    assert_eq!(
        filter.tables().pdt_len(),
        1,
        "second wave condemned afresh after the flush"
    );
    assert_eq!(
        filter.counters().flows_malicious,
        2,
        "one verdict per activation — stale wheel timers from wave 1 \
         (armed before the flush, firing after) must not add verdicts"
    );
    assert_eq!(filter.counters().flows_nice, 0);
    assert_eq!(
        filter.counters().probes_sent,
        2,
        "each activation probes the flow exactly once"
    );
    assert_eq!(
        f.sim.flow_interner().lookup(f.key),
        Some(id_wave1),
        "the flow keeps its FlowId across activations"
    );
}

#[test]
fn lull_between_waves_reaches_the_victim_unfiltered() {
    let mut f = build();
    f.sim.run_until(SimTime::from_secs_f64(3.5));
    let rec = f.sim.stats().flow(&f.key).expect("flow accounted");
    // Wave 1 at Pd=1: the probing drop plus PDT drops stop everything;
    // wave 2 likewise. The only deliveries happen in the wave-2 window
    // before the new activation's first verdict — and there are none,
    // because the filter is re-activated (1.9 s) before wave 2 starts.
    assert_eq!(rec.delivered, 0, "both waves fully cut: {rec:?}");
    assert!(rec.dropped_permanent > 0, "PDT did the bulk of the cutting");
    assert!(rec.dropped_probing >= 2, "one probing drop per activation");
}
