//! Property-based tests over the core data structures and invariants,
//! spanning crates (hence at workspace level).
//!
//! The build environment is offline, so instead of `proptest` these use a
//! small deterministic case generator: each property is checked against a
//! few hundred pseudo-random inputs drawn from a fixed seed, which keeps
//! failures reproducible without any shrinking machinery.

use mafic_suite::core::{
    AddressValidator, DefensePolicy, FlowLabel, LabelMode, MaficConfig, MaficFilter,
};
use mafic_suite::loglog::{LogLog, Precision};
use mafic_suite::netsim::testkit::FilterHarness;
use mafic_suite::netsim::{
    Addr, DropReason, FilterAction, FlowInterner, FlowKey, Packet, PacketKind, Provenance,
    SimDuration, SimTime,
};
use mafic_suite::topology::TransitTopology;
use mafic_suite::workload::{
    run_scenario, AdversarySpec, DetectionMode, Scenario, ScenarioSpec, StrategyKind, WorkloadError,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: usize = 300;
/// Generated scenario specs: each is validated, and built and run when
/// valid, so this stays far below `CASES`.
const SPEC_CASES: usize = 120;

fn case_rng(salt: u64) -> SmallRng {
    SmallRng::seed_from_u64(0x1B5E_55ED ^ salt)
}

fn arbitrary_key(rng: &mut SmallRng) -> FlowKey {
    FlowKey::new(
        Addr::new(rng.gen::<u32>()),
        Addr::new(rng.gen::<u32>()),
        rng.gen::<u16>(),
        rng.gen::<u16>(),
    )
}

/// Hashed labels are a pure function of the key.
#[test]
fn flow_labels_are_deterministic() {
    let mut rng = case_rng(1);
    for _ in 0..CASES {
        let key = arbitrary_key(&mut rng);
        let a = FlowLabel::from_key(key, LabelMode::Hashed);
        let b = FlowLabel::from_key(key, LabelMode::Hashed);
        assert_eq!(a, b);
        assert_eq!(a.token(), b.token());
    }
}

/// Reversing a flow key twice is the identity.
#[test]
fn flow_key_reversal_involution() {
    let mut rng = case_rng(2);
    for _ in 0..CASES {
        let key = arbitrary_key(&mut rng);
        assert_eq!(key.reversed().reversed(), key);
    }
}

/// Interner ids round-trip to the original key, and re-interning the same
/// key always yields the same id.
#[test]
fn interner_ids_round_trip() {
    let mut rng = case_rng(3);
    let mut interner = FlowInterner::new();
    let mut minted = Vec::new();
    for _ in 0..CASES {
        let key = arbitrary_key(&mut rng);
        let id = interner.intern(key);
        assert_eq!(interner.resolve(id), key, "id must resolve to its key");
        assert_eq!(interner.intern(key), id, "re-interning must be stable");
        assert_eq!(interner.lookup(key), Some(id));
        minted.push((key, id));
    }
    // Earlier ids survive later interning (ids are stable for the run).
    for (key, id) in minted {
        assert_eq!(interner.resolve(id), key);
        // The label derived from the resolved key matches the label of the
        // original key — the FlowLabel edge contract.
        assert_eq!(
            FlowLabel::from_key(interner.resolve(id), LabelMode::Hashed),
            FlowLabel::from_key(key, LabelMode::Hashed),
        );
    }
}

/// LogLog merge is commutative: merge(a,b) == merge(b,a) on registers.
#[test]
fn loglog_merge_commutes() {
    let mut rng = case_rng(4);
    for _ in 0..20 {
        let mut a = LogLog::new(Precision::P8);
        let mut b = LogLog::new(Precision::P8);
        for _ in 0..rng.gen_range(0usize..500) {
            a.insert_u64(rng.gen::<u64>());
        }
        for _ in 0..rng.gen_range(0usize..500) {
            b.insert_u64(rng.gen::<u64>());
        }
        let ab = a.merged(&b).unwrap();
        let ba = b.merged(&a).unwrap();
        assert_eq!(ab.registers(), ba.registers());
    }
}

/// Merging can only grow (or keep) registers: the union dominates parts.
#[test]
fn loglog_union_dominates_parts() {
    let mut rng = case_rng(5);
    for _ in 0..20 {
        let mut a = LogLog::new(Precision::P8);
        let mut b = LogLog::new(Precision::P8);
        for _ in 0..rng.gen_range(1usize..500) {
            a.insert_u64(rng.gen::<u64>());
        }
        for _ in 0..rng.gen_range(1usize..500) {
            b.insert_u64(rng.gen::<u64>());
        }
        let union = a.merged(&b).unwrap();
        for (u, (x, y)) in union
            .registers()
            .iter()
            .zip(a.registers().iter().zip(b.registers().iter()))
        {
            assert!(u >= x && u >= y);
        }
    }
}

/// Duplicate insertions never change a LogLog's registers.
#[test]
fn loglog_idempotent_inserts() {
    let mut rng = case_rng(6);
    for _ in 0..20 {
        let items: Vec<u64> = (0..rng.gen_range(1usize..200))
            .map(|_| rng.gen::<u64>())
            .collect();
        let mut once = LogLog::new(Precision::P8);
        let mut thrice = LogLog::new(Precision::P8);
        for &x in &items {
            once.insert_u64(x);
        }
        for _ in 0..3 {
            for &x in &items {
                thrice.insert_u64(x);
            }
        }
        assert_eq!(once.registers(), thrice.registers());
    }
}

/// The MAFIC filter never drops packets for other destinations, no matter
/// the flow key or drop probability.
#[test]
fn mafic_filter_scope_invariant() {
    let victim = Addr::from_octets(10, 200, 0, 1);
    let mut rng = case_rng(7);
    for _ in 0..CASES {
        let key = arbitrary_key(&mut rng);
        if key.dst == victim {
            continue;
        }
        let pd = rng.gen::<f64>();
        let config = MaficConfig {
            drop_probability: pd,
            ..MaficConfig::default()
        };
        let mut filter = MaficFilter::new(config, AddressValidator::AllowAll);
        filter.activate(victim);
        let mut h = FilterHarness::new();
        let pkt = Packet {
            id: 1,
            key,
            kind: PacketKind::Udp,
            size_bytes: 100,
            created_at: SimTime::ZERO,
            provenance: Provenance::infrastructure(),
            hops: 0,
        };
        let fx = h.offer_transit(&mut filter, &pkt);
        assert_eq!(fx.action, Some(FilterAction::Forward));
    }
}

/// With Pd = 1 every first packet of a legal new flow is dropped and
/// probed; with Pd = 0 nothing is ever dropped.
#[test]
fn mafic_extreme_pd_behaviour() {
    let victim = Addr::from_octets(10, 200, 0, 1);
    let mut rng = case_rng(8);
    for _ in 0..CASES {
        let key = FlowKey {
            dst: victim,
            ..arbitrary_key(&mut rng)
        };
        for (pd, expect_drop) in [(1.0, true), (0.0, false)] {
            let config = MaficConfig {
                drop_probability: pd,
                ..MaficConfig::default()
            };
            let mut filter = MaficFilter::new(config, AddressValidator::AllowAll);
            filter.activate(victim);
            let mut h = FilterHarness::new();
            let pkt = Packet {
                id: 1,
                key,
                kind: PacketKind::Udp,
                size_bytes: 100,
                created_at: SimTime::ZERO,
                provenance: Provenance::infrastructure(),
                hops: 0,
            };
            let fx = h.offer_transit(&mut filter, &pkt);
            if expect_drop {
                assert_eq!(
                    fx.action,
                    Some(FilterAction::Drop(DropReason::FilterProbing))
                );
                assert_eq!(fx.emitted.len(), 1, "probe must be emitted");
            } else {
                assert_eq!(fx.action, Some(FilterAction::Forward));
                assert!(fx.emitted.is_empty());
            }
        }
    }
}

/// Address prefix membership is consistent with explicit masking.
#[test]
fn prefix_membership_matches_mask() {
    let mut rng = case_rng(9);
    for _ in 0..CASES {
        let addr = rng.gen::<u32>();
        let prefix = rng.gen::<u32>();
        let len = rng.gen_range(0u32..=32) as u8;
        let a = Addr::new(addr);
        let p = Addr::new(prefix);
        let expected = if len == 0 {
            true
        } else {
            let mask = u32::MAX << (32 - u32::from(len));
            (addr & mask) == (prefix & mask)
        };
        assert_eq!(a.in_prefix(p, len), expected);
    }
}

/// SimTime arithmetic: (t + d) - t == d for all representable pairs.
#[test]
fn time_addition_round_trips() {
    let mut rng = case_rng(10);
    for _ in 0..CASES {
        let t = rng.gen_range(0u64..u64::MAX / 4);
        let d = rng.gen_range(0u64..u64::MAX / 4);
        let time = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        assert_eq!((time + dur) - time, dur);
    }
}

/// A draw from `[lo, hi)`; the vendored `rand` samples integer ranges
/// only.
fn uniform(rng: &mut SmallRng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.gen::<f64>()
}

/// True for the few draws that step outside a knob's legal range.
fn rarely(rng: &mut SmallRng) -> bool {
    rng.gen_bool(0.03)
}

/// A fraction in `[0, 1]`, or now and then just above it.
fn arbitrary_fraction(rng: &mut SmallRng) -> f64 {
    if rarely(rng) {
        1.5
    } else {
        uniform(rng, 0.0, 1.0)
    }
}

/// One of the four defense policies; a rate limit is sometimes zero.
fn arbitrary_policy(rng: &mut SmallRng) -> DefensePolicy {
    if rarely(rng) {
        return DefensePolicy::AggregateRateLimit {
            limit_bytes_per_sec: 0.0,
        };
    }
    match rng.gen_range(0..8u32) {
        0 => DefensePolicy::NonParticipating,
        1 | 2 => DefensePolicy::AggregateRateLimit {
            limit_bytes_per_sec: uniform(rng, 1e3, 1e6),
        },
        3 | 4 => DefensePolicy::ProportionalDrop,
        _ => DefensePolicy::FullMafic,
    }
}

fn arbitrary_adversary(rng: &mut SmallRng) -> AdversarySpec {
    let period_intervals = if rarely(rng) { 0 } else { rng.gen_range(1..=6) };
    let strategy = match rng.gen_range(0..4u32) {
        0 => StrategyKind::SourceRotation {
            period_intervals,
            active_fraction: arbitrary_fraction(rng),
        },
        1 => StrategyKind::AttestationShaping {
            step_milli: rng.gen_range(1..=400),
            floor_milli: if rarely(rng) {
                1200
            } else {
                rng.gen_range(1..=1000)
            },
        },
        2 => StrategyKind::PulseTuning {
            boost_milli: if rarely(rng) { 500 } else { 1500 },
        },
        _ => StrategyKind::CarpetBombing { period_intervals },
    };
    AdversarySpec::with_strategy(strategy)
}

/// A spec with every knob drawn across its legal range, scaled to run in
/// milliseconds: at most 12 flows, 8 routers and 0.6 s. Some draws land
/// just outside a bound, so the rejection path is exercised as well.
fn arbitrary_spec(rng: &mut SmallRng) -> ScenarioSpec {
    let end_s = uniform(rng, 0.05, 0.6);
    let instant = |rng: &mut SmallRng| SimTime::from_secs_f64(uniform(rng, 0.0, end_s));
    let (domains, transit_topology) = if rng.gen_bool(0.1) {
        // Near the caps: at most 64 stubs and 100 domains in all.
        let domains = rng.gen_range(55..=66);
        let depth = rng.gen_range(95..=105) - domains;
        (domains, TransitTopology::Chain { depth })
    } else {
        let domains = match rng.gen_range(0..10u32) {
            0 if rarely(rng) => 0,
            0..=4 => 1,
            _ => rng.gen_range(2..=5),
        };
        let depth = rng.gen_range(0..=3);
        let transit = if rng.gen_bool(0.7) {
            TransitTopology::Chain { depth }
        } else {
            let fanout = if rarely(rng) { 0 } else { rng.gen_range(1..=3) };
            TransitTopology::Tree { depth, fanout }
        };
        (domains, transit)
    };
    let multi = domains >= 2;
    let total_domains = domains + transit_topology.domain_count();
    let attack_start = instant(rng);
    // Mostly after the attack starts; the rest must be rejected.
    let attack_end = rng.gen_bool(0.3).then(|| {
        let t = instant(rng);
        if rarely(rng) {
            t
        } else {
            t.max(attack_start + SimDuration::from_nanos(1))
        }
    });
    let second_wave = if attack_end.is_some() && rng.gen_bool(0.4) {
        let (a, b) = (instant(rng), instant(rng));
        Some((a.min(b), a.max(b)))
    } else {
        None
    };
    ScenarioSpec {
        total_flows: if rarely(rng) {
            0
        } else {
            rng.gen_range(1..=12)
        },
        tcp_share: arbitrary_fraction(rng),
        flow_rate_pps: if rarely(rng) {
            0.0
        } else {
            [25.0, 125.0, 250.0][rng.gen_range(0..3)]
        },
        attack_load_factor: if rarely(rng) {
            0.0
        } else {
            uniform(rng, 0.01, 3.0)
        },
        attack_tcp_like: arbitrary_fraction(rng),
        spoof_illegal: arbitrary_fraction(rng) / 2.0,
        spoof_legal: arbitrary_fraction(rng) / 2.0,
        n_routers: if rng.gen_bool(0.1) {
            rng.gen_range(0..3)
        } else {
            rng.gen_range(3..=8)
        },
        domains,
        transit_topology,
        pushback_depth: if multi || rarely(rng) {
            rng.gen_range(0..=4)
        } else {
            0
        },
        trust_budget: rng.gen_range(0..=10),
        attestation_fraction: arbitrary_fraction(rng),
        subsidence_intervals: rng.gen_range(0..=10),
        subsidence_source_floor: if rarely(rng) {
            -1.0
        } else {
            uniform(rng, 0.0, 10.0)
        },
        adversary: rng.gen_bool(0.25).then(|| arbitrary_adversary(rng)),
        attack_end,
        second_wave,
        cross_traffic_bps: if multi && rng.gen_bool(0.3) {
            uniform(rng, 0.0, 200_000.0)
        } else {
            0.0
        },
        malicious_pushback: (multi && rng.gen_bool(0.2)).then(|| rng.gen_range(0..=total_domains)),
        drop_probability: arbitrary_fraction(rng),
        policy: arbitrary_policy(rng),
        transit_policy: (multi && rng.gen_bool(0.3)).then(|| arbitrary_policy(rng)),
        policy_overrides: if multi && rng.gen_bool(0.3) {
            (0..rng.gen_range(1..=2u32))
                .map(|_| (rng.gen_range(0..=total_domains), arbitrary_policy(rng)))
                .collect()
        } else {
            Vec::new()
        },
        participation_fraction: if multi && rng.gen_bool(0.5) {
            arbitrary_fraction(rng)
        } else {
            1.0
        },
        timer_rtt_multiplier: if rarely(rng) {
            0.0
        } else {
            uniform(rng, 0.5, 4.0)
        },
        nft_revalidate_after: if rarely(rng) {
            Some(SimDuration::ZERO)
        } else {
            rng.gen_bool(0.2)
                .then(|| SimDuration::from_millis(rng.gen_range(1..=500)))
        },
        detection: match rng.gen_range(0..5u32) {
            0 => DetectionMode::Off,
            1 => DetectionMode::AtTime(instant(rng)),
            _ => DetectionMode::Auto,
        },
        monitor_interval: SimDuration::from_millis(if rarely(rng) {
            0
        } else {
            rng.gen_range(20..=200)
        }),
        attack_start,
        end: SimTime::from_secs_f64(end_s),
        trace_capacity: if rng.gen_bool(0.5) {
            0
        } else {
            rng.gen_range(1..=64)
        },
        ledger: rng.gen_bool(0.5),
        checkpoint_at: rng.gen_bool(0.3).then(|| instant(rng)),
        seed: rng.gen(),
    }
}

/// Every spec `validate()` accepts builds and runs to its end without a
/// panic; every spec it rejects fails `Scenario::build` with
/// `WorkloadError::Spec`.
#[test]
fn validated_specs_build_and_run() {
    let mut rng = case_rng(11);
    let mut ran = 0;
    for case in 0..SPEC_CASES {
        let spec = arbitrary_spec(&mut rng);
        let verdict = spec.validate();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Scenario::build(spec.clone()).and_then(|mut scenario| run_scenario(&mut scenario))
        }));
        match (verdict, outcome) {
            (_, Err(_)) => panic!("case {case} panicked: {spec:#?}"),
            (Ok(()), Ok(Ok(_))) => ran += 1,
            (Ok(()), Ok(Err(e))) => panic!("case {case}: valid spec failed with {e}: {spec:#?}"),
            (Err(_), Ok(Err(WorkloadError::Spec(_)))) => {}
            (Err(why), Ok(Err(e))) => {
                panic!("case {case}: rejected ({why}) but build failed with {e}: {spec:#?}")
            }
            (Err(why), Ok(Ok(_))) => panic!("case {case}: rejected ({why}) but ran: {spec:#?}"),
        }
    }
    assert!(
        ran >= SPEC_CASES / 4,
        "only {ran} of {SPEC_CASES} generated specs were valid"
    );
}
