//! Isolated drivers: one cost line per layer, measured from outside the
//! program over each crate's public functions alone. None of them
//! depends on the workload, so one traced process runs them once.
//!
//! To add a driver: write a function that performs `n` operations and
//! returns the time they took (use [`timed`]; keep set-up outside it),
//! hand it to [`Bench::ns`] in [`run`], and add the metric's name to
//! `metrics::PER_LAYER`, `BENCHMARK.json` and the README table.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mafic::{
    AddressValidator, FlowTables, LogLogTap, MaficConfig, MaficFilter, PdtReason,
    ProportionalFilter, RateLimitFilter, SftEntry, TIMER_PROBATION,
};
use mafic_adversary::{AdversaryController, AdversarySpec, SourceFeedback, StrategyKind};
use mafic_experiments::run_jobs;
use mafic_loglog::{LogLog, Precision};
use mafic_netsim::testkit::{AgentHarness, FilterHarness};
use mafic_netsim::{
    Addr, ControlMsg, ControlVerb, CountingSink, FlowInterner, FlowKey, FlowSlab, LinkSpec, NodeId,
    Packet, PacketFilter, PacketKind, PassthroughFilter, Provenance, RequesterId, SimDuration,
    SimTime, Simulator, StatsCollector,
};
use mafic_obs::Fnv64;
use mafic_pushback::{
    BufferedPlane, DomainCoordinator, PushbackConfig, PushbackRole, VictimRateMeter,
};
use mafic_topology::{Domain, DomainConfig, Internet, InternetConfig, TransitTopology};
use mafic_transport::{CbrConfig, TcpConfig, TcpSender, TcpSink, UnresponsiveSender};

use crate::stats::median;

/// Flows resident in the per-flow table drivers: the size of the
/// `flows_10x` tier.
const TABLE_FLOWS: u32 = 500;

/// Host time `f` took.
pub fn timed(f: impl FnOnce()) -> Duration {
    timed_value(f).1
}

/// `f`'s result and the host time it took.
pub fn timed_value<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// Turns "do `n` operations, say how long they took" into a steady
/// nanoseconds-per-operation figure.
pub struct Bench {
    /// Host time each driver may spend sampling.
    pub slice: Duration,
}

impl Bench {
    /// Median ns per operation over nine batches, each sized (by
    /// doubling) to fill a twentieth to a tenth of the slice.
    pub fn ns(&self, mut batch: impl FnMut(u64) -> Duration) -> f64 {
        let mut n = 1u64;
        while batch(n) < self.slice / 20 && n < 1 << 40 {
            n *= 2;
        }
        let samples: Vec<f64> = (0..9)
            .map(|_| batch(n).as_nanos() as f64 / n as f64)
            .collect();
        median(&samples)
    }
}

const VICTIM: Addr = Addr::from_octets(10, 200, 0, 1);

fn flow_key(n: u32) -> FlowKey {
    FlowKey::new(
        Addr::new(0x0A01_0000 | (n & 0xFFFF)),
        VICTIM,
        (1024 + (n % 50_000)) as u16,
        80,
    )
}

fn udp(n: u32) -> Packet {
    Packet {
        id: u64::from(n),
        key: flow_key(n),
        kind: PacketKind::Udp,
        size_bytes: 500,
        created_at: SimTime::ZERO,
        provenance: Provenance::infrastructure(),
        hops: 0,
    }
}

/// Offers packets of `TABLE_FLOWS` resident flows to `filter`, round
/// robin, through the filter test harness.
fn offer_resident<'a>(
    h: &'a mut FilterHarness,
    filter: &'a mut dyn PacketFilter,
    packets: &'a [Packet],
) -> impl FnMut(u64) -> Duration + 'a {
    let mut i = 0usize;
    move |n| {
        timed(|| {
            for _ in 0..n {
                i = (i + 1) % packets.len();
                black_box(h.offer_transit(filter, &packets[i]));
            }
        })
    }
}

// ---- netsim ---------------------------------------------------------

/// An 8-node line: one unresponsive sender at the head, a counting sink
/// at the tail. `bottleneck_share` scales the last link's bandwidth
/// relative to the offered load (2.0 = uncongested, 0.5 = 2x
/// overloaded); `filters` passthrough filters sit on every node.
/// Returns `(events processed, host time, filter invocations)`.
fn line_run(bottleneck_share: f64, filters: usize, sim_secs: f64) -> (u64, Duration, u64) {
    const NODES: usize = 8;
    const RATE_PPS: f64 = 20_000.0;
    const PACKET_BYTES: u32 = 500;
    let offered_bps = RATE_PPS * f64::from(PACKET_BYTES) * 8.0;
    let mut sim = Simulator::new(7);
    let nodes: Vec<NodeId> = (0..NODES).map(|i| sim.add_node(format!("n{i}"))).collect();
    let dst = Addr::from_octets(10, 0, 0, 2);
    let key = FlowKey::new(Addr::from_octets(10, 0, 0, 1), dst, 9, 80);
    for (i, pair) in nodes.windows(2).enumerate() {
        let share = if i == NODES - 2 {
            bottleneck_share
        } else {
            2.0
        };
        let spec = LinkSpec::new(offered_bps * share, SimDuration::from_millis(1), 64);
        let (forward, _back) = sim.add_duplex_link(pair[0], pair[1], spec);
        sim.add_route(pair[0], dst, forward);
    }
    let mut installed = Vec::new();
    for &node in &nodes {
        for _ in 0..filters {
            installed.push((
                node,
                sim.add_filter(node, Box::new(PassthroughFilter::new())),
            ));
        }
    }
    let sink = sim.add_agent(
        nodes[NODES - 1],
        Box::new(CountingSink::new()),
        SimTime::ZERO,
    );
    sim.bind_local_addr(nodes[NODES - 1], dst, sink);
    let cbr = CbrConfig {
        rate_pps: RATE_PPS,
        packet_size: PACKET_BYTES,
        ..CbrConfig::default()
    };
    sim.add_agent(
        nodes[0],
        Box::new(UnresponsiveSender::new(key, cbr, false, 7)),
        SimTime::ZERO,
    );
    let (summary, wall) = timed_value(|| sim.run_until(SimTime::from_secs_f64(sim_secs)));
    let events = summary.events_processed;
    let seen = installed
        .iter()
        .map(|&(node, index)| {
            sim.filter::<PassthroughFilter>(node, index)
                .expect("filter installed above")
                .seen()
        })
        .sum();
    (events, wall, seen)
}

/// ns per event of a line run, median of five.
fn line_ns_per_event(bench: &Bench, bottleneck_share: f64) -> f64 {
    // Size the simulated span so one run fills a fifth of the slice.
    let (events, wall, _) = line_run(bottleneck_share, 0, 0.2);
    let per_sim_sec = wall.as_secs_f64() / 0.2;
    let sim_secs = (bench.slice.as_secs_f64() / 5.0 / per_sim_sec).max(0.2);
    black_box(events);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let (events, wall, _) = line_run(bottleneck_share, 0, sim_secs);
            wall.as_nanos() as f64 / events as f64
        })
        .collect();
    median(&samples)
}

/// Extra host time per filter invocation: the line with four
/// passthrough filters per node against the bare line, paired.
fn filter_hop_ns(bench: &Bench) -> f64 {
    let sim_secs = 1.0;
    let pairs = (bench.slice.as_secs_f64() / 0.04).clamp(3.0, 9.0) as usize;
    let samples: Vec<f64> = (0..pairs)
        .map(|_| {
            let (_, bare, _) = line_run(2.0, 0, sim_secs);
            let (_, filtered, seen) = line_run(2.0, 4, sim_secs);
            (filtered.as_nanos() as f64 - bare.as_nanos() as f64) / seen as f64
        })
        .collect();
    median(&samples)
}

fn intern_10k(bench: &Bench) -> f64 {
    const FLOWS: u32 = 10_000;
    let mut interner = FlowInterner::new();
    let mut table: FlowSlab<u64> = FlowSlab::new();
    for n in 0..FLOWS {
        let id = interner.intern(flow_key(n));
        table.insert(id, 0);
    }
    let mut i = 0u32;
    let ns = bench.ns(|n| {
        timed(|| {
            for _ in 0..n {
                i = (i + 1) % FLOWS;
                let id = interner.intern(black_box(flow_key(i)));
                if let Some(count) = table.get_mut(id) {
                    *count += 1;
                }
            }
        })
    });
    black_box(&table);
    ns
}

fn stats_note(bench: &Bench) -> f64 {
    let mut stats = StatsCollector::new();
    let packets: Vec<Packet> = (0..TABLE_FLOWS).map(udp).collect();
    let ids: Vec<_> = packets.iter().map(|p| stats.flow_id(p.key)).collect();
    let node = NodeId::from_index(0);
    let mut i = 0usize;
    let ns = bench.ns(|n| {
        timed(|| {
            for _ in 0..n / 2 + 1 {
                i = (i + 1) % packets.len();
                stats.on_sent_id(ids[i], &packets[i]);
                stats.on_delivered_id(ids[i], &packets[i], node, SimTime::ZERO);
            }
        })
    });
    black_box(stats.total_sent);
    ns
}

// ---- core -----------------------------------------------------------

fn active_mafic(validator: AddressValidator) -> MaficFilter {
    let mut filter = MaficFilter::new(MaficConfig::default(), validator);
    filter.activate(VICTIM);
    filter
}

fn mafic_drivers(bench: &Bench, out: &mut Vec<(&'static str, f64)>) {
    let packets: Vec<Packet> = (0..TABLE_FLOWS).map(udp).collect();

    let mut h = FilterHarness::new();
    let mut inactive = MaficFilter::new(MaficConfig::default(), AddressValidator::AllowAll);
    out.push((
        "core.ns_per_decision_inactive",
        bench.ns(offer_resident(&mut h, &mut inactive, &packets)),
    ));

    // NFT hits: put every flow on probation, let each go quiet, fire its
    // probation timer (silent second half = responsive), then offer.
    let mut h = FilterHarness::new();
    let mut nice = active_mafic(AddressValidator::AllowAll);
    for p in &packets {
        let flow = h.intern(p.key);
        while nice.tables().sft_get(flow).is_none() {
            h.offer_transit(&mut nice, p);
        }
    }
    h.advance(SimDuration::from_secs(10));
    for p in &packets {
        let flow = h.intern(p.key);
        h.fire_flow_timer(&mut nice, flow, TIMER_PROBATION);
    }
    assert_eq!(
        nice.tables().nft_len(),
        packets.len(),
        "driver set-up: flows not in the NFT"
    );
    out.push((
        "core.ns_per_decision_nft",
        bench.ns(offer_resident(&mut h, &mut nice, &packets)),
    ));

    // PDT hits: no prefix is legal, so the first packet condemns a flow.
    let mut h = FilterHarness::new();
    let mut condemned = active_mafic(AddressValidator::Prefixes(Vec::new()));
    for p in &packets {
        h.offer_transit(&mut condemned, p);
    }
    assert_eq!(
        condemned.tables().pdt_len(),
        packets.len(),
        "driver set-up: flows not in the PDT"
    );
    out.push((
        "core.ns_per_decision_pdt",
        bench.ns(offer_resident(&mut h, &mut condemned, &packets)),
    ));

    // New flows: every packet opens a flow on a fresh filter (SFT
    // insert, probe, timer for nine in ten).
    const NEW_FLOWS: u32 = 4096;
    let fresh: Vec<Packet> = (0..NEW_FLOWS).map(udp).collect();
    out.push((
        "core.ns_per_decision_new",
        bench.ns(|n| {
            let mut spent = Duration::ZERO;
            let mut left = n;
            while left > 0 {
                let mut h = FilterHarness::new();
                let mut filter = active_mafic(AddressValidator::AllowAll);
                let take = left.min(u64::from(NEW_FLOWS)) as usize;
                spent += timed(|| {
                    for p in &fresh[..take] {
                        black_box(h.offer_transit(&mut filter, p));
                    }
                });
                left -= take as u64;
            }
            spent
        }),
    ));

    let mut h = FilterHarness::new();
    let mut rate_limit = RateLimitFilter::new(250_000.0);
    rate_limit.activate(VICTIM, SimTime::ZERO);
    out.push((
        "core.ns_per_ratelimit",
        bench.ns(offer_resident(&mut h, &mut rate_limit, &packets)),
    ));

    let mut h = FilterHarness::new();
    let mut proportional = ProportionalFilter::new(0.9, 7);
    proportional.activate(VICTIM);
    out.push((
        "core.ns_per_proportional",
        bench.ns(offer_resident(&mut h, &mut proportional, &packets)),
    ));

    let mut h = FilterHarness::new();
    let mut tap = LogLogTap::new(Precision::P10, [], [VICTIM]);
    out.push((
        "core.ns_per_tap",
        bench.ns(offer_resident(&mut h, &mut tap, &packets)),
    ));
}

/// A `FlowTables` holding `TABLE_FLOWS` flows, a third in each table.
fn filled_tables(interner: &mut FlowInterner) -> FlowTables {
    let config = MaficConfig::default();
    let mut tables = FlowTables::new(
        config.sft_capacity,
        config.nft_capacity,
        config.pdt_capacity,
    );
    for n in 0..TABLE_FLOWS {
        let key = flow_key(n);
        let flow = interner.intern(key);
        match n % 3 {
            0 => tables.sft_insert(
                flow,
                SftEntry {
                    key,
                    probe_started: SimTime::ZERO,
                    baseline_rate: 100.0,
                    rtt_estimate: SimDuration::from_millis(50),
                    deadline: SimTime::from_secs_f64(0.1),
                    arrivals_since_probe: 0,
                },
            ),
            1 => tables.nft_insert(flow, SimTime::ZERO),
            _ => tables.pdt_insert(flow, PdtReason::Unresponsive),
        }
    }
    tables
}

fn table_drivers(bench: &Bench, out: &mut Vec<(&'static str, f64)>) {
    let mut interner = FlowInterner::new();
    out.push((
        "core.flush_ns_per_flow",
        bench.ns(|n| {
            (0..n)
                .map(|_| {
                    let mut tables = filled_tables(&mut interner);
                    let spent = timed(|| tables.flush());
                    black_box(&tables);
                    spent
                })
                .sum()
        }) / f64::from(TABLE_FLOWS),
    ));
    let label_bytes = MaficConfig::default().label_mode.stored_bytes();
    out.push((
        "core.table_bytes_per_flow",
        filled_tables(&mut interner).approx_bytes(label_bytes) as f64 / f64::from(TABLE_FLOWS),
    ));
}

// ---- loglog ---------------------------------------------------------

fn loglog_insert(bench: &Bench) -> f64 {
    let mut sketch = LogLog::new(Precision::P10);
    let mut i = 0u64;
    let ns = bench.ns(|n| {
        timed(|| {
            for _ in 0..n {
                i += 1;
                sketch.insert_u64(i);
            }
        })
    });
    black_box(&sketch);
    ns
}

// ---- transport ------------------------------------------------------

/// A TCP sender and sink wired back to back through two agent
/// harnesses. Returns host time spent in `(sender on acks, sink on
/// segments)` while the sender digests `acks` acknowledgements.
fn tcp_ping_pong(acks: u64) -> (Duration, Duration) {
    let key = FlowKey::new(Addr::from_octets(10, 1, 0, 1), VICTIM, 4000, 80);
    let config = TcpConfig::default();
    let mut sender = TcpSender::new(key, config, false);
    let mut sink = TcpSink::new(key, config.ack_size);
    let (mut at_sender, mut at_sink) = (AgentHarness::new(), AgentHarness::new());
    let mut segments = at_sender.start(&mut sender).sent;
    let (mut sender_time, mut sink_time) = (Duration::ZERO, Duration::ZERO);
    let mut done = 0u64;
    while done < acks {
        assert!(!segments.is_empty(), "driver set-up: TCP sender stalled");
        at_sink.advance(SimDuration::from_millis(10));
        let mut replies = Vec::with_capacity(segments.len());
        sink_time += timed(|| {
            for segment in segments.drain(..) {
                replies.extend(at_sink.deliver(&mut sink, segment).sent);
            }
        });
        at_sender.advance(SimDuration::from_millis(10));
        done += replies.len() as u64;
        sender_time += timed(|| {
            for ack in replies {
                segments.extend(at_sender.deliver(&mut sender, ack).sent);
            }
        });
    }
    (sender_time, sink_time)
}

fn cbr_tick(bench: &Bench) -> f64 {
    let mut sender = UnresponsiveSender::new(flow_key(1), CbrConfig::default(), true, 7);
    let mut h = AgentHarness::new();
    let mut token = h.start(&mut sender).timers[0].1;
    bench.ns(|n| {
        timed(|| {
            for _ in 0..n {
                let fx = h.fire_timer(&mut sender, token);
                token = fx.timers[0].1;
            }
        })
    })
}

// ---- topology -------------------------------------------------------

fn topology_drivers(bench: &Bench, out: &mut Vec<(&'static str, f64)>) {
    let domain = DomainConfig::default();
    out.push((
        "topology.domain_build_us",
        bench.ns(|n| {
            timed(|| {
                for _ in 0..n {
                    let mut sim = Simulator::new(7);
                    black_box(Domain::build(&mut sim, &domain).expect("default domain builds"));
                }
            })
        }) / 1e3,
    ));
    let stub = DomainConfig {
        n_routers: 40,
        n_hosts: 16,
        ..DomainConfig::default()
    };
    let internet = InternetConfig {
        stubs: vec![stub; 6],
        transit: TransitTopology::Chain { depth: 2 },
        transit_domain: stub,
        inter_link: LinkSpec::new(20e6, SimDuration::from_millis(10), 192),
    };
    out.push((
        "topology.internet_build_us",
        bench.ns(|n| {
            timed(|| {
                for _ in 0..n {
                    let mut sim = Simulator::new(7);
                    black_box(Internet::build(&mut sim, &internet).expect("internet builds"));
                }
            })
        }) / 1e3,
    ));
}

// ---- pushback -------------------------------------------------------

fn pushback_drivers(bench: &Bench, out: &mut Vec<(&'static str, f64)>) {
    let me = RequesterId::new(Addr::from_octets(11, 250, 0, 1));
    let downstream = RequesterId::new(Addr::from_octets(10, 250, 0, 1));
    let config = PushbackConfig::default();
    let mut plane = BufferedPlane::new();
    let mut actions = Vec::new();

    let mut idle = DomainCoordinator::new(config, PushbackRole::Victim, me);
    out.push((
        "pushback.on_interval_ns_idle",
        bench.ns(|n| {
            timed(|| {
                for _ in 0..n {
                    idle.on_interval(0.0, 0.0, &mut plane, &mut actions);
                }
            })
        }),
    ));

    // Defending and under pressure: above the escalation threshold every
    // interval, so the machine escalates, refreshes and reports.
    let mut defending = DomainCoordinator::new(config, PushbackRole::Victim, me);
    defending.local_start(VICTIM, 3);
    let flood = config.threshold_bps * 4.0;
    out.push((
        "pushback.on_interval_ns_defending",
        bench.ns(|n| {
            timed(|| {
                for _ in 0..n {
                    defending.on_interval(flood, flood, &mut plane, &mut actions);
                    plane.clear();
                    actions.clear();
                }
            })
        }),
    ));
    assert!(
        defending.is_defending(),
        "driver set-up: coordinator stood down"
    );

    // Lease refreshes from the authorized downstream requester: vetted
    // (identity, nonce, lease) on every envelope.
    let mut upstream = DomainCoordinator::new(config, PushbackRole::Upstream, me);
    upstream.authorize(downstream);
    let mut nonce = 1u64;
    upstream.on_message(
        ControlMsg::new(
            downstream,
            nonce,
            ControlVerb::Request {
                victim: VICTIM,
                aggregate_bps: flood as u64,
                budget: 2,
            },
        ),
        flood,
        &mut plane,
        &mut actions,
    );
    assert!(upstream.is_defending(), "driver set-up: request was denied");
    out.push((
        "pushback.on_message_ns",
        bench.ns(|n| {
            timed(|| {
                for _ in 0..n {
                    nonce += 1;
                    let refresh = ControlVerb::Refresh {
                        victim: VICTIM,
                        budget: 2,
                    };
                    upstream.on_message(
                        ControlMsg::new(downstream, nonce, refresh),
                        flood,
                        &mut plane,
                        &mut actions,
                    );
                    plane.clear();
                    actions.clear();
                }
            })
        }),
    ));

    assert_eq!(
        upstream.ledger().denies().total(),
        0,
        "driver set-up: refreshes were denied"
    );

    let packets: Vec<Packet> = (0..TABLE_FLOWS).map(udp).collect();
    let mut h = FilterHarness::new();
    let mut meter = VictimRateMeter::new(VICTIM);
    out.push((
        "pushback.meter_ns_per_pkt",
        bench.ns(offer_resident(&mut h, &mut meter, &packets)),
    ));
}

// ---- adversary ------------------------------------------------------

fn adversary_observe(bench: &Bench, sources: usize) -> f64 {
    let spec = AdversarySpec::with_strategy(StrategyKind::SourceRotation {
        period_intervals: 4,
        active_fraction: 0.5,
    });
    let stubs = (0..sources).map(|i| (i % 5 + 1) as u32).collect();
    let mut controller = AdversaryController::new(spec, stubs, 7);
    let mut sent = 0u64;
    bench.ns(|n| {
        timed(|| {
            for _ in 0..n {
                sent += 25;
                let mut feedback = controller.take_feedback_buf();
                for (i, slot) in feedback.iter_mut().enumerate() {
                    *slot = SourceFeedback {
                        sent,
                        delivered: sent / (1 + i as u64 % 3),
                    };
                }
                black_box(controller.observe_interval(feedback).len());
            }
        })
    }) / sources as f64
}

// ---- obs, experiments -----------------------------------------------

fn fnv_mb_per_s(bench: &Bench) -> f64 {
    let block = vec![0xA5u8; 64 * 1024];
    let ns_per_block = bench.ns(|n| {
        timed(|| {
            let mut h = Fnv64::new();
            for _ in 0..n {
                h.write(black_box(&block));
            }
            black_box(h.finish());
        })
    });
    block.len() as f64 / 1e6 / (ns_per_block / 1e9)
}

/// Engine cost per job: `run_jobs` over a worker that does nothing.
fn job_overhead_us(bench: &Bench) -> f64 {
    // Under 16 jobs the engine prints no progress lines.
    const JOBS: u64 = 15;
    bench.ns(|n| {
        timed(|| {
            for _ in 0..n {
                let inputs: Vec<u64> = (0..JOBS).collect();
                black_box(run_jobs(inputs, 1, Ok::<u64, String>).expect("no-op jobs"));
            }
        })
    }) / JOBS as f64
        / 1e3
}

/// Runs every workload-independent driver; `(metric name, value)`.
pub fn run(bench: &Bench) -> Vec<(&'static str, f64)> {
    let mut out = vec![
        ("netsim.ns_per_event_forward", line_ns_per_event(bench, 2.0)),
        (
            "netsim.ns_per_event_congested",
            line_ns_per_event(bench, 0.5),
        ),
        ("netsim.ns_per_filter_hop", filter_hop_ns(bench)),
        ("netsim.ns_per_intern_10k", intern_10k(bench)),
        ("netsim.ns_per_stats_note", stats_note(bench)),
    ];
    mafic_drivers(bench, &mut out);
    table_drivers(bench, &mut out);
    out.push(("loglog.ns_per_insert", loglog_insert(bench)));
    out.push(("transport.ns_per_ack", bench.ns(|n| tcp_ping_pong(n).0)));
    out.push(("transport.ns_per_segment", bench.ns(|n| tcp_ping_pong(n).1)));
    out.push(("transport.ns_per_cbr_tick", cbr_tick(bench)));
    topology_drivers(bench, &mut out);
    pushback_drivers(bench, &mut out);
    out.push((
        "adversary.observe_ns_per_source_14",
        adversary_observe(bench, 14),
    ));
    out.push((
        "adversary.observe_ns_per_source_1000",
        adversary_observe(bench, 1000),
    ));
    out.push(("obs.fnv_mb_per_s", fnv_mb_per_s(bench)));
    out.push(("experiments.job_overhead_us", job_overhead_us(bench)));
    out
}
