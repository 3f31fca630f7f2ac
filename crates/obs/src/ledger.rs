//! The run ledger: header, per-interval chained component hashes, and
//! the probe/builder pair the runner drives once per monitor interval.

use crate::fnv::{fnv64_spans, Fnv64, HashWriter, Span};
use crate::json::{parse_json_line, JsonValue};
use crate::snap::{SnapError, SnapReader};
use crate::state::{State, StateWrite};
use crate::LEDGER_VERSION;
use std::fmt::Write as _;

/// Build metadata identifying the run a ledger describes.
///
/// `workers` is informational only: the engine produces byte-identical
/// results at any worker count, so the differ never compares it (a
/// `MAFIC_JOBS=1` vs `MAFIC_JOBS=4` ledger pair must diff clean).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerHeader {
    /// Wire-format version ([`LEDGER_VERSION`] at write time).
    pub ledger_version: u32,
    /// Version of the crate that recorded the ledger.
    pub crate_version: String,
    /// Scenario seed.
    pub seed: u64,
    /// FNV-1a hash of the scenario spec's debug rendering.
    pub spec_fingerprint: u64,
    /// Worker count the run was launched with (0 = unknown/irrelevant).
    pub workers: u32,
}

/// One monitor interval's snapshot: the chained hash of every component
/// plus the cumulative counter values, both parallel to the name lists
/// in [`RunLedger`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Zero-based interval index.
    pub index: u64,
    /// Simulation time at the end of the interval, in nanoseconds.
    pub at_nanos: u64,
    /// Chained per-component hashes (parallel to `RunLedger::components`).
    pub hashes: Vec<u64>,
    /// Cumulative counters (parallel to `RunLedger::counters`).
    pub counters: Vec<u64>,
}

/// A complete run ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunLedger {
    /// Build metadata.
    pub header: LedgerHeader,
    /// Component labels, fixed by the first recorded interval.
    pub components: Vec<String>,
    /// Counter names, fixed by the first recorded interval.
    pub counters: Vec<String>,
    /// One record per monitor interval, in order.
    pub intervals: Vec<IntervalRecord>,
    /// Rendered tail of the event trace, if tracing was enabled.
    pub trace_tail: Vec<String>,
}

/// Collects one interval's component hashes and counters.
///
/// The runner hands this to every [`State`]-bearing component. Hashing
/// is serialize-then-fold: inside [`IntervalProbe::batch`], each
/// [`ProbeBatch::component`] appends the component's hash-format walk to
/// one reusable buffer, and when the batch closes every buffered walk is
/// hashed through the four-lane FNV-1a kernel. Each raw hash is exactly
/// `fnv64` of its own walk, so components cannot bleed into each other,
/// and a probe holds final hashes whenever a call returns.
///
/// A probe can be reused across intervals: [`IntervalProbe::rewind`]
/// empties it but keeps the label strings and the buffer, and
/// re-probing the same labels in the same order — what every interval
/// of a run does — overwrites the values in place without allocating.
#[derive(Debug, Default)]
pub struct IntervalProbe {
    components: Slots,
    counters: Slots,
    /// The open batch's walks, back to back.
    walks: HashWriter,
    /// Where each of those walks sits, and which component slot it
    /// hashes into.
    pending: Vec<Span>,
}

/// `(label, value)` slots of which the first `filled` are this
/// interval's; the rest are last interval's labels, kept for reuse.
#[derive(Debug, Default)]
struct Slots {
    slots: Vec<(String, u64)>,
    filled: usize,
}

impl Slots {
    fn put(&mut self, label: &str, value: u64) {
        match self.slots.get_mut(self.filled) {
            Some(slot) if slot.0 == label => slot.1 = value,
            _ => {
                self.slots.truncate(self.filled);
                self.slots.push((label.to_string(), value));
            }
        }
        self.filled += 1;
    }

    fn filled(&self) -> &[(String, u64)] {
        &self.slots[..self.filled]
    }

    /// Whether the filled labels are `names`, in order.
    fn named(&self, names: &[String]) -> bool {
        let filled = self.filled();
        filled.len() == names.len() && filled.iter().zip(names).all(|((n, _), seen)| n == seen)
    }
}

impl IntervalProbe {
    /// An empty probe.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the probe for the next interval, keeping its labels.
    pub fn rewind(&mut self) {
        self.components.filled = 0;
        self.counters.filled = 0;
    }

    /// Hashes the components `f` walks into the batch, in order. The
    /// more components one batch holds, the better the kernel's four
    /// lanes are used: a batch takes about as long as its longest walk
    /// or a quarter of all its bytes, whichever is more.
    pub fn batch(&mut self, f: impl FnOnce(&mut ProbeBatch<'_>)) {
        f(&mut ProbeBatch { probe: self });
        let slots = &mut self.components.slots;
        fnv64_spans(&self.walks.buf, &mut self.pending, |slot, hash| {
            slots[slot].1 = hash;
        });
        self.walks.buf.clear();
        self.pending.clear();
    }

    /// Frees the walk buffer, which otherwise keeps the capacity of the
    /// largest batch (the next batch reallocates it) — for a caller about
    /// to need the heap more than the next interval does, such as a
    /// checkpoint capture.
    pub fn free_buffer(&mut self) {
        self.walks = HashWriter::new();
    }

    /// Records one cumulative counter value.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.put(name, value);
    }

    /// Component `(label, raw hash)` pairs recorded so far.
    #[must_use]
    pub fn components(&self) -> &[(String, u64)] {
        self.components.filled()
    }
}

/// The open batch of an [`IntervalProbe::batch`] call.
#[derive(Debug)]
pub struct ProbeBatch<'a> {
    probe: &'a mut IntervalProbe,
}

impl ProbeBatch<'_> {
    /// Walks one component under `label`: `f` writes its state into the
    /// probe's hash sink, and the walk is hashed when the batch closes.
    pub fn component(&mut self, label: &str, f: impl FnOnce(&mut HashWriter)) {
        let probe = &mut *self.probe;
        let start = probe.walks.buf.len();
        f(&mut probe.walks);
        probe.pending.push(Span {
            bytes: start..probe.walks.buf.len(),
            slot: probe.components.filled,
        });
        probe.components.put(label, 0);
    }
}

/// Accumulates probes into a [`RunLedger`], chaining each component's
/// hash across intervals: `chain_i = fnv(chain_{i-1} ‖ raw_i)`.
///
/// Chaining means a single diverging interval poisons every later hash
/// of that component, so the *first* mismatching interval in a diff is
/// guaranteed to be the first real divergence.
#[derive(Debug)]
pub struct LedgerBuilder {
    header: LedgerHeader,
    components: Vec<String>,
    counters: Vec<String>,
    chains: Vec<u64>,
    intervals: Vec<IntervalRecord>,
}

impl LedgerBuilder {
    /// Starts a ledger with `header` (its version field is overwritten
    /// with [`LEDGER_VERSION`]).
    #[must_use]
    pub fn new(mut header: LedgerHeader) -> Self {
        header.ledger_version = LEDGER_VERSION;
        LedgerBuilder {
            header,
            components: Vec::new(),
            counters: Vec::new(),
            chains: Vec::new(),
            intervals: Vec::new(),
        }
    }

    /// Folds one interval's probe into the ledger.
    ///
    /// # Panics
    ///
    /// The first interval fixes the component and counter name sets;
    /// any later interval probing a different set is a programming
    /// error and panics.
    pub fn record_interval(&mut self, at_nanos: u64, probe: &IntervalProbe) {
        let (components, counters) = (probe.components.filled(), probe.counters.filled());
        if self.intervals.is_empty() {
            self.components = components.iter().map(|(n, _)| n.clone()).collect();
            self.counters = counters.iter().map(|(n, _)| n.clone()).collect();
            self.chains = vec![0; self.components.len()];
        } else {
            assert!(
                probe.components.named(&self.components),
                "interval probed a different component set"
            );
            assert!(
                probe.counters.named(&self.counters),
                "interval probed a different counter set"
            );
        }
        let mut hashes = Vec::with_capacity(self.chains.len());
        for (chain, (_, raw)) in self.chains.iter_mut().zip(components) {
            let mut h = Fnv64::new();
            h.write_u64(*chain);
            h.write_u64(*raw);
            *chain = h.finish();
            hashes.push(*chain);
        }
        self.intervals.push(IntervalRecord {
            index: self.intervals.len() as u64,
            at_nanos,
            hashes,
            counters: counters.iter().map(|&(_, v)| v).collect(),
        });
    }

    /// Number of intervals recorded so far.
    #[cfg(test)]
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.intervals.len()
    }

    /// The chained hash of every component as of the last recorded
    /// interval, as `(label, chain)` pairs — the integrity table a
    /// checkpoint embeds.
    #[cfg(test)]
    #[must_use]
    pub fn chained_hashes(&self) -> Vec<(String, u64)> {
        self.components
            .iter()
            .cloned()
            .zip(self.chains.iter().copied())
            .collect()
    }

    /// Finishes the ledger, attaching a rendered trace tail.
    #[must_use]
    pub fn finish(self, trace_tail: Vec<String>) -> RunLedger {
        RunLedger {
            header: self.header,
            components: self.components,
            counters: self.counters,
            intervals: self.intervals,
            trace_tail,
        }
    }
}

/// Serializes the builder's accumulated recording state (name sets,
/// chain values, interval records) so a checkpointed run's restored
/// ledger continues the exact same chains. The header is *not* part of
/// the payload: the restorer rebuilds it from the spec it was handed,
/// which the snapshot header has already been verified against.
impl State for LedgerBuilder {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        w.write_seq(&self.components, |w, name| w.write_str(name));
        w.write_seq(&self.counters, |w, name| w.write_str(name));
        for chain in &self.chains {
            w.write_u64(*chain);
        }
        w.write_seq(&self.intervals, |w, rec| {
            w.write_u64(rec.index);
            w.write_u64(rec.at_nanos);
            for v in rec.hashes.iter().chain(&rec.counters) {
                w.write_u64(*v);
            }
        });
    }

    fn read_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let components: Vec<String> = r.read_seq(|r| r.read_str())?;
        let counters: Vec<String> = r.read_seq(|r| r.read_str())?;
        let chains = r.read_n(components.len(), |r| r.read_u64())?;
        let intervals = r.read_seq(|r| {
            Ok(IntervalRecord {
                index: r.read_u64()?,
                at_nanos: r.read_u64()?,
                hashes: r.read_n(components.len(), |r| r.read_u64())?,
                counters: r.read_n(counters.len(), |r| r.read_u64())?,
            })
        })?;
        self.components = components;
        self.counters = counters;
        self.chains = chains;
        self.intervals = intervals;
        Ok(())
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_str_array(out: &mut String, items: &[String]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, item);
    }
    out.push(']');
}

impl RunLedger {
    /// Serializes the ledger as JSONL: one header line, one line per
    /// interval, one line per trace-tail entry.
    ///
    /// Hashes are written as 16-hex-digit strings (a `u64` does not
    /// survive a round-trip through a JSON number).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"type\":\"header\",\"ledger_version\":{},\"crate_version\":",
            self.header.ledger_version
        );
        push_json_str(&mut out, &self.header.crate_version);
        let _ = write!(
            out,
            ",\"seed\":{},\"spec_fingerprint\":\"{:016x}\",\"workers\":{},\"components\":",
            self.header.seed, self.header.spec_fingerprint, self.header.workers
        );
        push_str_array(&mut out, &self.components);
        out.push_str(",\"counters\":");
        push_str_array(&mut out, &self.counters);
        out.push_str("}\n");
        for rec in &self.intervals {
            let _ = write!(
                out,
                "{{\"type\":\"interval\",\"index\":{},\"at_nanos\":{},\"hashes\":[",
                rec.index, rec.at_nanos
            );
            for (i, h) in rec.hashes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{h:016x}\"");
            }
            out.push_str("],\"counters\":[");
            for (i, c) in rec.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}\n");
        }
        for line in &self.trace_tail {
            out.push_str("{\"type\":\"trace\",\"line\":");
            push_json_str(&mut out, line);
            out.push_str("}\n");
        }
        out
    }

    /// Parses a ledger back from its JSONL form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn from_jsonl(text: &str) -> Result<RunLedger, String> {
        let mut header: Option<LedgerHeader> = None;
        let mut components = Vec::new();
        let mut counters = Vec::new();
        let mut intervals = Vec::new();
        let mut trace_tail = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            // `#` comments let tooling annotate concatenated ledgers
            // (e.g. `run_ledger`'s `# run <n>` separators).
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let v = parse_json_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            let kind = v
                .get("type")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {}: missing \"type\"", lineno + 1))?;
            match kind {
                "header" => {
                    components = v
                        .get("components")
                        .and_then(JsonValue::as_str_array)
                        .ok_or_else(|| format!("line {}: bad components", lineno + 1))?;
                    counters = v
                        .get("counters")
                        .and_then(JsonValue::as_str_array)
                        .ok_or_else(|| format!("line {}: bad counters", lineno + 1))?;
                    header = Some(LedgerHeader {
                        ledger_version: v
                            .get("ledger_version")
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("line {}: bad ledger_version", lineno + 1))?
                            as u32,
                        crate_version: v
                            .get("crate_version")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string(),
                        seed: v
                            .get("seed")
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("line {}: bad seed", lineno + 1))?,
                        spec_fingerprint: v
                            .get("spec_fingerprint")
                            .and_then(JsonValue::as_str)
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .ok_or_else(|| format!("line {}: bad spec_fingerprint", lineno + 1))?,
                        workers: v.get("workers").and_then(JsonValue::as_u64).unwrap_or(0) as u32,
                    });
                }
                "interval" => {
                    let hashes = v
                        .get("hashes")
                        .and_then(JsonValue::as_array)
                        .ok_or_else(|| format!("line {}: bad hashes", lineno + 1))?
                        .iter()
                        .map(|h| {
                            h.as_str()
                                .and_then(|s| u64::from_str_radix(s, 16).ok())
                                .ok_or_else(|| format!("line {}: bad hash entry", lineno + 1))
                        })
                        .collect::<Result<Vec<u64>, String>>()?;
                    let cvals = v
                        .get("counters")
                        .and_then(JsonValue::as_array)
                        .ok_or_else(|| format!("line {}: bad counters", lineno + 1))?
                        .iter()
                        .map(|c| {
                            c.as_u64()
                                .ok_or_else(|| format!("line {}: bad counter entry", lineno + 1))
                        })
                        .collect::<Result<Vec<u64>, String>>()?;
                    intervals.push(IntervalRecord {
                        index: v
                            .get("index")
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("line {}: bad index", lineno + 1))?,
                        at_nanos: v
                            .get("at_nanos")
                            .and_then(JsonValue::as_u64)
                            .ok_or_else(|| format!("line {}: bad at_nanos", lineno + 1))?,
                        hashes,
                        counters: cvals,
                    });
                }
                "trace" => {
                    trace_tail.push(
                        v.get("line")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("")
                            .to_string(),
                    );
                }
                other => return Err(format!("line {}: unknown type {other:?}", lineno + 1)),
            }
        }
        let header = header.ok_or_else(|| "missing header line".to_string())?;
        Ok(RunLedger {
            header,
            components,
            counters,
            intervals,
            trace_tail,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(seed: u64) -> LedgerHeader {
        LedgerHeader {
            ledger_version: 0,
            crate_version: "0.1.0".into(),
            seed,
            spec_fingerprint: 0xdead_beef,
            workers: 0,
        }
    }

    fn probe(vals: &[(&str, u64)], counters: &[(&str, u64)]) -> IntervalProbe {
        let mut p = IntervalProbe::new();
        p.batch(|b| {
            for &(name, v) in vals {
                b.component(name, |h| h.write_u64(v));
            }
        });
        for &(name, v) in counters {
            p.counter(name, v);
        }
        p
    }

    #[test]
    fn chaining_propagates_divergence_forward() {
        let mut a = LedgerBuilder::new(header(1));
        let mut b = LedgerBuilder::new(header(1));
        // Interval 0 identical, interval 1 diverges, interval 2
        // identical again in raw terms — but the chain must keep the
        // hashes apart from interval 1 onward.
        for (ledger, mid) in [(&mut a, 7u64), (&mut b, 8u64)] {
            ledger.record_interval(100, &probe(&[("x", 1)], &[]));
            ledger.record_interval(200, &probe(&[("x", mid)], &[]));
            ledger.record_interval(300, &probe(&[("x", 1)], &[]));
        }
        let a = a.finish(Vec::new());
        let b = b.finish(Vec::new());
        assert_eq!(a.intervals[0].hashes, b.intervals[0].hashes);
        assert_ne!(a.intervals[1].hashes, b.intervals[1].hashes);
        assert_ne!(a.intervals[2].hashes, b.intervals[2].hashes);
    }

    #[test]
    fn rewound_probe_records_what_fresh_probes_do() {
        let intervals: [&[(&str, u64)]; 3] = [
            &[("x", 1), ("y", 2)],
            &[("x", 3), ("y", 4)],
            &[("x", 5), ("y", 6)],
        ];
        let mut fresh = LedgerBuilder::new(header(1));
        let mut reused = LedgerBuilder::new(header(1));
        let mut p = IntervalProbe::new();
        for (i, vals) in intervals.iter().enumerate() {
            fresh.record_interval(i as u64, &probe(vals, &[("c", i as u64)]));
            p.rewind();
            p.batch(|b| {
                for &(name, v) in *vals {
                    b.component(name, |h| h.write_u64(v));
                }
            });
            p.counter("c", i as u64);
            reused.record_interval(i as u64, &p);
        }
        assert_eq!(fresh.finish(Vec::new()), reused.finish(Vec::new()));
        // A shorter or relabelled re-probe leaves nothing stale behind.
        p.rewind();
        p.batch(|b| b.component("z", |h| h.write_u64(9)));
        assert_eq!(p.components(), probe(&[("z", 9)], &[]).components());
    }

    #[test]
    fn folded_probe_records_each_walks_own_hash() {
        // Walks of very different lengths, more of them than lanes, no
        // two alike from their first byte.
        let walk = |i: u64, n: u64| {
            move |h: &mut HashWriter| (0..n).for_each(|v| h.write_u64(v ^ i << 56))
        };
        let lens = [0, 900, 3, 40, 40, 7, 2_000];
        let mut p = IntervalProbe::new();
        p.batch(|b| {
            for (i, &n) in (0..).zip(&lens) {
                b.component(&format!("c{i}"), walk(i, n));
            }
        });
        for ((i, (_, raw)), &n) in (0..).zip(p.components()).zip(&lens) {
            let mut alone = HashWriter::new();
            walk(i, n)(&mut alone);
            assert_eq!(*raw, alone.finish(), "component c{i}");
        }
    }

    #[test]
    #[should_panic(expected = "different component set")]
    fn component_set_is_fixed_by_first_interval() {
        let mut l = LedgerBuilder::new(header(1));
        l.record_interval(100, &probe(&[("x", 1)], &[]));
        l.record_interval(200, &probe(&[("y", 1)], &[]));
    }

    #[test]
    #[should_panic(expected = "different counter set")]
    fn counter_names_are_fixed_by_first_interval() {
        // Same count, new name: recording it would file `b`'s values
        // under `a`.
        let mut l = LedgerBuilder::new(header(1));
        l.record_interval(100, &probe(&[("x", 1)], &[("a", 1)]));
        l.record_interval(200, &probe(&[("x", 1)], &[("b", 1)]));
    }

    #[test]
    fn jsonl_roundtrip_is_lossless() {
        let mut b = LedgerBuilder::new(header(42));
        b.record_interval(
            100_000_000,
            &probe(&[("alpha", 3), ("beta", u64::MAX)], &[("drops", 12)]),
        );
        b.record_interval(
            200_000_000,
            &probe(&[("alpha", 4), ("beta", 0)], &[("drops", 30)]),
        );
        let ledger = b.finish(vec!["t=0.1 drop flow=1 reason=\"probing\"".into()]);
        let text = ledger.to_jsonl();
        let back = RunLedger::from_jsonl(&text).expect("roundtrip parses");
        assert_eq!(ledger, back);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RunLedger::from_jsonl("not json").is_err());
        assert!(RunLedger::from_jsonl("{\"type\":\"interval\"}").is_err());
        assert!(RunLedger::from_jsonl("").is_err());
    }

    #[test]
    fn builder_snapshot_round_trip_continues_the_chains() {
        use crate::snap::{SnapReader, SnapWriter};

        let mut original = LedgerBuilder::new(header(5));
        original.record_interval(100, &probe(&[("x", 1), ("y", 2)], &[("c", 3)]));
        original.record_interval(200, &probe(&[("x", 4), ("y", 5)], &[("c", 6)]));

        crate::assert_state_law(&original, || LedgerBuilder::new(header(5)));
        let mut w = SnapWriter::new();
        original.write_state(&mut w);
        let bytes = w.into_bytes();

        // Restore onto a fresh builder (same header, as a restorer
        // would rebuild it from the spec), then record one more
        // interval into both and require identical ledgers.
        let mut restored = LedgerBuilder::new(header(5));
        restored
            .read_state(&mut SnapReader::new(&bytes))
            .expect("restore");
        assert_eq!(restored.interval_count(), 2);
        assert_eq!(restored.chained_hashes(), original.chained_hashes());

        let next = probe(&[("x", 7), ("y", 8)], &[("c", 9)]);
        original.record_interval(300, &next);
        restored.record_interval(300, &next);
        assert_eq!(
            original.finish(Vec::new()),
            restored.finish(Vec::new()),
            "a restored builder must continue the chains bit-for-bit"
        );
    }

    #[test]
    fn builder_snapshot_restore_rejects_truncation() {
        use crate::snap::{SnapError, SnapReader, SnapWriter};

        let mut b = LedgerBuilder::new(header(5));
        b.record_interval(100, &probe(&[("x", 1)], &[]));
        let mut w = SnapWriter::new();
        b.write_state(&mut w);
        let bytes = w.into_bytes();
        let mut fresh = LedgerBuilder::new(header(5));
        assert_eq!(
            fresh
                .read_state(&mut SnapReader::new(&bytes[..bytes.len() - 1]))
                .unwrap_err(),
            SnapError::Truncated
        );
    }
}
