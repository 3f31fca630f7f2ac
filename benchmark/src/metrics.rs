//! The metric catalog: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` repeats it; a test holds the two
//! together.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "sim_pps",
        unit: "pkt/s",
        higher_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "allocs_per_kpkt",
        unit: "1/kpkt",
        higher_is_better: false,
        bound: 0.15,
    },
];

/// `(name, unit, higher is better)` of every per-layer metric, in
/// reporting order. The layer is the prefix before the dot, a crate
/// directory; `trace_overhead_pct` is the tracer's own cost.
pub const PER_LAYER: [(&str, &str, bool); 68] = [
    ("netsim.events_per_pkt", "count", false),
    ("netsim.ns_per_event_insitu", "ns", false),
    ("netsim.ns_per_event_forward", "ns", false),
    ("netsim.ns_per_event_congested", "ns", false),
    ("netsim.ns_per_filter_hop", "ns", false),
    ("netsim.ns_per_intern_10k", "ns", false),
    ("netsim.ns_per_stats_note", "ns", false),
    ("netsim.arena_peak_pkts", "count", false),
    ("netsim.drops_queue", "count", false),
    ("netsim.drops_filter", "count", false),
    ("netsim.conservation_gap", "count", true),
    ("netsim.probe_us", "us", false),
    ("netsim.snap_save_us", "us", false),
    ("core.ns_per_decision_inactive", "ns", false),
    ("core.ns_per_decision_nft", "ns", false),
    ("core.ns_per_decision_pdt", "ns", false),
    ("core.ns_per_decision_new", "ns", false),
    ("core.ns_per_ratelimit", "ns", false),
    ("core.ns_per_proportional", "ns", false),
    ("core.ns_per_tap", "ns", false),
    ("core.flush_ns_per_flow", "ns", false),
    ("core.table_bytes_per_flow", "B", false),
    ("core.timers_armed", "count", false),
    ("core.probes_sent", "count", false),
    ("core.table_peak_bytes", "B", false),
    ("loglog.ns_per_insert", "ns", false),
    ("loglog.estimate_us", "us", false),
    ("loglog.observe_us", "us", false),
    ("transport.ns_per_ack", "ns", false),
    ("transport.ns_per_segment", "ns", false),
    ("transport.ns_per_cbr_tick", "ns", false),
    ("topology.domain_build_us", "us", false),
    ("topology.internet_build_us", "us", false),
    ("pushback.on_interval_ns_idle", "ns", false),
    ("pushback.on_interval_ns_defending", "ns", false),
    ("pushback.on_message_ns", "ns", false),
    ("pushback.meter_ns_per_pkt", "ns", false),
    ("pushback.requests", "count", false),
    ("pushback.denials", "count", false),
    ("pushback.escalations", "count", false),
    ("adversary.observe_ns_per_source_14", "ns", false),
    ("adversary.observe_ns_per_source_1000", "ns", false),
    ("obs.fnv_mb_per_s", "MB/s", true),
    ("obs.snapshot_encode_us", "us", false),
    ("obs.snapshot_decode_us", "us", false),
    ("obs.snapshot_bytes", "B", false),
    ("obs.ledger_to_jsonl_ms", "ms", false),
    ("obs.ledger_from_jsonl_ms", "ms", false),
    ("obs.diff_ms", "ms", false),
    ("obs.ledger_components", "count", false),
    ("metrics.from_stats_us", "us", false),
    ("metrics.series_us", "us", false),
    ("workload.build_us", "us", false),
    ("workload.run_s", "s", false),
    ("workload.encode_checkpoint_ms", "ms", false),
    ("workload.restore_ms", "ms", false),
    ("workload.resume_s", "s", false),
    ("workload.monitor_share_pct", "%", false),
    ("workload.ledger_overhead_pct", "%", false),
    ("workload.intervals", "count", false),
    ("workload.pkts_per_interval", "count", true),
    ("workload.unattributed_pct", "%", false),
    ("experiments.job_overhead_us", "us", false),
    ("experiments.parallel_efficiency", "ratio", true),
    ("experiments.warm_sweep_speedup", "ratio", true),
    ("experiments.cell_ms_p50", "ms", false),
    ("experiments.cell_ms_hi", "ms", false),
    ("trace_overhead_pct", "%", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` is what the driver reads; this crate is what
    /// runs. They must name the same workloads and metrics.
    #[test]
    fn benchmark_json_repeats_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
        let better = |higher: bool| if higher { "higher" } else { "lower" };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = crate::workloads::all(crate::workloads::PIN_SEED)
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|e| {
                let better = better(e.higher_is_better).to_string();
                (e.name.to_string(), e.unit.to_string(), better, e.bound)
            })
            .collect();
        assert_eq!(end_to_end, ours);
        // The contract: bounds at most 0.25, set-up time the loosest.
        let setup = END_TO_END.iter().find(|e| e.name == "setup_s").unwrap();
        assert!(END_TO_END
            .iter()
            .all(|e| e.bound <= setup.bound && setup.bound <= 0.25));

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|&(name, unit, higher)| {
                (
                    name.to_string(),
                    unit.to_string(),
                    better(higher).to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, ours);

        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        names.extend(END_TO_END.iter().map(|e| e.name));
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            PER_LAYER.len() + END_TO_END.len(),
            "a metric name is used twice"
        );

        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
