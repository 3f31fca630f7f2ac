//! The run ledger: header, per-interval chained component hashes, and
//! the probe/builder pair the runner drives once per monitor interval.

use crate::fnv::{fnv64_spans, Fnv64, HashWriter, Span};
use crate::snap::{SnapError, SnapReader};
use crate::state::{State, StateWrite};
use crate::LEDGER_VERSION;
use std::fmt::Write as _;
use std::str::FromStr;

/// Build metadata identifying the run a ledger describes.
///
/// `workers` is informational only: the engine produces byte-identical
/// results at any worker count, so the differ never compares it (a
/// `MAFIC_JOBS=1` vs `MAFIC_JOBS=4` ledger pair must diff clean).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerHeader {
    /// Wire-format version (`LEDGER_VERSION` at write time).
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
    /// The ledger so far; its trace tail stays empty until
    /// [`LedgerBuilder::finish`].
    ledger: RunLedger,
}

impl LedgerBuilder {
    /// Starts a ledger with `header` (its version field is overwritten
    /// with `LEDGER_VERSION`).
    #[must_use]
    pub fn new(mut header: LedgerHeader) -> Self {
        header.ledger_version = LEDGER_VERSION;
        LedgerBuilder {
            ledger: RunLedger {
                header,
                components: Vec::new(),
                counters: Vec::new(),
                intervals: Vec::new(),
                trace_tail: Vec::new(),
            },
        }
    }

    /// Component `i`'s chained hash as of the last recorded interval;
    /// every chain starts at zero.
    fn chain(&self, i: usize) -> u64 {
        self.ledger.intervals.last().map_or(0, |rec| rec.hashes[i])
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
        if self.ledger.intervals.is_empty() {
            self.ledger.components = components.iter().map(|(n, _)| n.clone()).collect();
            self.ledger.counters = counters.iter().map(|(n, _)| n.clone()).collect();
        } else {
            assert!(
                probe.components.named(&self.ledger.components),
                "interval probed a different component set"
            );
            assert!(
                probe.counters.named(&self.ledger.counters),
                "interval probed a different counter set"
            );
        }
        let hashes = (0..)
            .zip(components)
            .map(|(i, &(_, raw))| {
                let mut h = Fnv64::new();
                h.write_u64(self.chain(i));
                h.write_u64(raw);
                h.finish()
            })
            .collect();
        self.ledger.intervals.push(IntervalRecord {
            index: self.ledger.intervals.len() as u64,
            at_nanos,
            hashes,
            counters: counters.iter().map(|&(_, v)| v).collect(),
        });
    }

    /// Number of intervals recorded so far.
    #[cfg(test)]
    #[must_use]
    pub fn interval_count(&self) -> usize {
        self.ledger.intervals.len()
    }

    /// The chained hash of every component as of the last recorded
    /// interval, as `(label, chain)` pairs — the integrity table a
    /// checkpoint embeds.
    #[cfg(test)]
    #[must_use]
    pub fn chained_hashes(&self) -> Vec<(String, u64)> {
        (0..)
            .zip(&self.ledger.components)
            .map(|(i, label)| (label.clone(), self.chain(i)))
            .collect()
    }

    /// Finishes the ledger, attaching a rendered trace tail.
    #[must_use]
    pub fn finish(self, trace_tail: Vec<String>) -> RunLedger {
        RunLedger {
            trace_tail,
            ..self.ledger
        }
    }
}

/// Serializes the builder's accumulated recording state (name sets,
/// chain values, interval records) so a checkpointed run's restored
/// ledger continues the exact same chains. The header is *not* part of
/// the payload: the restorer rebuilds it from the spec it was handed,
/// which the snapshot header has already been verified against. The
/// chains repeat the last interval's hashes (zeros before the first),
/// and a payload whose chains differ is rejected.
impl State for LedgerBuilder {
    fn write_state<W: StateWrite>(&self, w: &mut W) {
        let l = &self.ledger;
        w.write_seq(&l.components, |w, name| w.write_str(name));
        w.write_seq(&l.counters, |w, name| w.write_str(name));
        for i in 0..l.components.len() {
            w.write_u64(self.chain(i));
        }
        w.write_seq(&l.intervals, |w, rec| {
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
        let chains: Vec<u64> = r.read_n(components.len(), |r| r.read_u64())?;
        let intervals: Vec<IntervalRecord> = r.read_seq(|r| {
            Ok(IntervalRecord {
                index: r.read_u64()?,
                at_nanos: r.read_u64()?,
                hashes: r.read_n(components.len(), |r| r.read_u64())?,
                counters: r.read_n(counters.len(), |r| r.read_u64())?,
            })
        })?;
        let zeros = vec![0; components.len()];
        if chains != *intervals.last().map_or(&zeros, |rec| &rec.hashes) {
            return Err(SnapError::Malformed(
                "ledger chains differ from the last interval's hashes".to_string(),
            ));
        }
        self.ledger.components = components;
        self.ledger.counters = counters;
        self.ledger.intervals = intervals;
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

    /// Parses a ledger back from its JSONL form: exactly the lines
    /// [`RunLedger::to_jsonl`] writes, plus blank and `#` comment lines.
    /// The header must come first and only once, each interval's index
    /// must equal its position, and each interval must carry one hash
    /// per component and one value per counter.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn from_jsonl(text: &str) -> Result<RunLedger, String> {
        let mut ledger = None;
        for (lineno, line) in (1..).zip(text.lines()) {
            // `#` comments let tooling annotate concatenated ledgers
            // (e.g. `run_ledger`'s `# run <n>` separators).
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            read_line(&mut ledger, line).map_err(|e| format!("line {lineno}: {e}"))?;
        }
        ledger.ok_or_else(|| "missing header line".to_string())
    }
}

/// Reads one non-comment line into `ledger`, field by field in the
/// order [`RunLedger::to_jsonl`] writes them.
fn read_line(ledger: &mut Option<RunLedger>, line: &str) -> Result<(), String> {
    let mut c = Cursor { line, pos: 0 };
    if c.eat("{\"type\":\"header\",\"ledger_version\":") {
        if ledger.is_some() {
            return Err("second header".to_string());
        }
        *ledger = Some(RunLedger {
            header: LedgerHeader {
                ledger_version: c.uint()?,
                crate_version: c.field("crate_version", Cursor::str)?,
                seed: c.field("seed", Cursor::uint)?,
                spec_fingerprint: c.field("spec_fingerprint", Cursor::hash)?,
                workers: c.field("workers", Cursor::uint)?,
            },
            components: c.field("components", |c| c.list(Cursor::str))?,
            counters: c.field("counters", |c| c.list(Cursor::str))?,
            intervals: Vec::new(),
            trace_tail: Vec::new(),
        });
    } else if c.eat("{\"type\":\"interval\",\"index\":") {
        let ledger = ledger.as_mut().ok_or("interval before the header")?;
        let rec = IntervalRecord {
            index: c.uint()?,
            at_nanos: c.field("at_nanos", Cursor::uint)?,
            hashes: c.field("hashes", |c| c.list(Cursor::hash))?,
            counters: c.field("counters", |c| c.list(Cursor::uint))?,
        };
        if rec.index != ledger.intervals.len() as u64 || !ledger.trace_tail.is_empty() {
            return Err(format!("interval index {} out of order", rec.index));
        }
        if rec.hashes.len() != ledger.components.len()
            || rec.counters.len() != ledger.counters.len()
        {
            return Err(format!(
                "{} hashes and {} counter values for {} components and {} counters",
                rec.hashes.len(),
                rec.counters.len(),
                ledger.components.len(),
                ledger.counters.len()
            ));
        }
        ledger.intervals.push(rec);
    } else {
        c.lit("{\"type\":\"trace\",\"line\":")?;
        let ledger = ledger.as_mut().ok_or("trace line before the header")?;
        ledger.trace_tail.push(c.str()?);
    }
    if c.rest() == "}" {
        Ok(())
    } else {
        Err(c.error("'}' ending the line"))
    }
}

/// A cursor over one ledger line. Each read consumes exactly what
/// [`RunLedger::to_jsonl`] writes for one value — no whitespace, no
/// sign, no leading zero, lowercase hex — or fails naming the byte.
struct Cursor<'a> {
    line: &'a str,
    pos: usize,
}

impl Cursor<'_> {
    fn rest(&self) -> &str {
        &self.line[self.pos..]
    }

    fn error(&self, what: &str) -> String {
        format!("expected {what} at byte {}", self.pos + 1)
    }

    /// Consumes `text` if the line continues with it.
    fn eat(&mut self, text: &str) -> bool {
        let found = self.rest().starts_with(text);
        if found {
            self.pos += text.len();
        }
        found
    }

    fn lit(&mut self, text: &str) -> Result<(), String> {
        if self.eat(text) {
            Ok(())
        } else {
            Err(self.error(&format!("{text:?}")))
        }
    }

    /// `,"<key>":` and the value `read` reads.
    fn field<T>(
        &mut self,
        key: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.lit(",\"")?;
        self.lit(key)?;
        self.lit("\":")?;
        read(self)
    }

    fn uint<T: FromStr>(&mut self) -> Result<T, String> {
        let digits = self.rest().bytes().take_while(u8::is_ascii_digit).count();
        let text = &self.rest()[..digits];
        match text.parse() {
            Ok(v) if digits == 1 || !text.starts_with('0') => {
                self.pos += digits;
                Ok(v)
            }
            _ => Err(self.error("an unsigned integer in range")),
        }
    }

    /// A quoted 16-digit hash.
    fn hash(&mut self) -> Result<u64, String> {
        self.lit("\"")?;
        let v = self
            .rest()
            .get(..16)
            .and_then(lower_hex)
            .ok_or_else(|| self.error("16 lowercase hex digits"))?;
        self.pos += 16;
        self.lit("\"")?;
        Ok(v)
    }

    /// A quoted string with the escapes `push_json_str` writes.
    fn str(&mut self) -> Result<String, String> {
        self.lit("\"")?;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let run = rest
                .find(|c: char| c == '"' || c == '\\' || c < ' ')
                .unwrap_or(rest.len());
            out.push_str(&rest[..run]);
            self.pos += run;
            let (c, len) = match self.rest().as_bytes() {
                [b'"', ..] => {
                    self.pos += 1;
                    return Ok(out);
                }
                [b'\\', b'"', ..] => ('"', 2),
                [b'\\', b'\\', ..] => ('\\', 2),
                [b'\\', b'n', ..] => ('\n', 2),
                [b'\\', b'r', ..] => ('\r', 2),
                [b'\\', b't', ..] => ('\t', 2),
                [b'\\', b'u', b'0', b'0', ..] => match self.rest().get(4..6).and_then(lower_hex) {
                    Some(v @ 0..=0x1f) if !matches!(v, 0x09 | 0x0a | 0x0d) => {
                        (char::from(v as u8), 6)
                    }
                    _ => return Err(self.error("a control character as \\u00xx")),
                },
                _ => return Err(self.error("a closing '\"' or an escape")),
            };
            out.push(c);
            self.pos += len;
        }
    }

    /// `[item,item,…]`.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.lit("[")?;
        let mut items = Vec::new();
        if self.eat("]") {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            if self.eat("]") {
                return Ok(items);
            }
            self.lit(",")?;
        }
    }
}

/// The value of `digits` if it is all lowercase hex, as `{:x}` writes.
fn lower_hex(digits: &str) -> Option<u64> {
    let lower = digits
        .bytes()
        .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    u64::from_str_radix(digits, 16).ok().filter(|_| lower)
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

    /// The reader returns `Ok` or `Err` on every prefix, every
    /// single-bit flip and every out-of-range stamp of a three-interval
    /// ledger; a panic fails the test.
    #[test]
    fn from_jsonl_survives_hostile_bytes() {
        let mut b = LedgerBuilder::new(header(7));
        for (i, at) in [100_000_000u64, 200_000_000, 300_000_000]
            .into_iter()
            .enumerate()
        {
            let v = i as u64;
            b.record_interval(
                at,
                &probe(&[("alpha", v), ("beta", !v)], &[("drops", 10 * v)]),
            );
        }
        let text = b
            .finish(vec!["t=0.3 drop reason=\"queue\"".into()])
            .to_jsonl();
        let bytes = text.as_bytes();
        let mut inputs: Vec<String> = (0..bytes.len())
            .map(|n| String::from_utf8_lossy(&bytes[..n]).into_owned())
            .collect();
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << bit;
                inputs.push(String::from_utf8_lossy(&flipped).into_owned());
            }
        }
        let max = u64::MAX.to_string();
        for stamp in [
            max.clone(),
            format!("{max}0"),
            "18446744073709551616".to_string(),
        ] {
            inputs.push(text.replace("\"at_nanos\":200000000", &format!("\"at_nanos\":{stamp}")));
            inputs.push(text.replace("\"seed\":7", &format!("\"seed\":{stamp}")));
        }
        assert_eq!(inputs.len(), 9 * bytes.len() + 6);
        let accepted = inputs
            .iter()
            .filter(|input| RunLedger::from_jsonl(input).is_ok())
            .count();
        assert!(
            accepted > 0 && accepted < inputs.len(),
            "{accepted} accepted"
        );
        // `u64::MAX` is a valid stamp; one past it is not.
        let at_max = text.replace("\"at_nanos\":200000000", &format!("\"at_nanos\":{max}"));
        assert_eq!(
            RunLedger::from_jsonl(&at_max).map(|l| l.intervals[1].at_nanos),
            Ok(u64::MAX)
        );
        let past = text.replace(
            "\"at_nanos\":200000000",
            "\"at_nanos\":18446744073709551616",
        );
        assert!(RunLedger::from_jsonl(&past).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(RunLedger::from_jsonl("not json").is_err());
        assert!(RunLedger::from_jsonl("{\"type\":\"interval\"}").is_err());
        assert!(RunLedger::from_jsonl("").is_err());
    }

    /// Header and interval lines of a two-component ledger, the second
    /// carrying `hashes` verbatim.
    fn two_component_ledger(hashes: &str) -> String {
        format!(
            "{{\"type\":\"header\",\"ledger_version\":1,\"crate_version\":\"0.1.0\",\"seed\":1,\
             \"spec_fingerprint\":\"00000000deadbeef\",\"workers\":0,\"components\":[\"a\",\"b\"],\
             \"counters\":[]}}\n\
             {{\"type\":\"interval\",\"index\":0,\"at_nanos\":100,\"hashes\":[{hashes}],\
             \"counters\":[]}}\n"
        )
    }

    fn line_2_error(text: &str) -> String {
        let err = RunLedger::from_jsonl(text).expect_err("malformed ledger accepted");
        assert!(err.starts_with("line 2: "), "{err}");
        err
    }

    #[test]
    fn an_interval_with_more_hashes_than_components_is_rejected() {
        // The differ indexes component labels by hash position, so a
        // third hash that differs would be read past the label list.
        for third in ["0000000000000003", "00000000000000ff"] {
            let text = two_component_ledger(&format!(
                "\"0000000000000001\",\"0000000000000002\",\"{third}\""
            ));
            let err = line_2_error(&text);
            assert!(err.contains("3 hashes"), "{err}");
        }
    }

    #[test]
    fn an_interval_with_fewer_hashes_than_components_is_rejected() {
        // A missing hash would diff clean against any value.
        let whole = two_component_ledger("\"0000000000000001\",\"00000000000000ff\"");
        assert_eq!(
            RunLedger::from_jsonl(&whole).unwrap().intervals[0].hashes,
            [1, 0xff]
        );
        let err = line_2_error(&two_component_ledger("\"0000000000000001\""));
        assert!(err.contains("1 hashes"), "{err}");
        // Counter values are held to the counter names the same way.
        let counted = whole.replace("ff\"],\"counters\":[]", "ff\"],\"counters\":[7]");
        assert!(line_2_error(&counted).contains("1 counter values"));
    }

    #[test]
    fn lines_out_of_writer_order_are_rejected() {
        let text = two_component_ledger("\"0000000000000001\",\"0000000000000002\"");
        let (header, interval) = text.split_once('\n').unwrap();
        let trace = "{\"type\":\"trace\",\"line\":\"t=0.1\"}\n";
        let next = interval.replace("\"index\":0", "\"index\":1");
        for (doctored, why) in [
            (format!("{header}\n{text}"), "second header"),
            (format!("{interval}{header}\n"), "before the header"),
            (format!("{header}\n{next}"), "index 1 out of order"),
            (format!("{text}{trace}{next}"), "index 1 out of order"),
        ] {
            let err = RunLedger::from_jsonl(&doctored).expect_err(why);
            assert!(err.contains(why), "{err}");
        }
        // Blank and `#` comment lines may sit anywhere.
        let annotated = format!("# run 0\n\n{header}\n  \n# note\n{interval}");
        assert_eq!(
            RunLedger::from_jsonl(&annotated),
            RunLedger::from_jsonl(&text)
        );
    }

    #[test]
    fn escapes_round_trip_through_every_string_field() {
        let odd = "q\"b\\n\nr\rt\tc\u{1}\u{1f}é→";
        let mut header = header(3);
        header.crate_version = format!("v{odd}");
        let mut b = LedgerBuilder::new(header);
        b.record_interval(100, &probe(&[(&format!("c{odd}"), 1)], &[]));
        let ledger = b.finish(vec![format!("t=0.1 {odd}")]);
        let text = ledger.to_jsonl();
        assert!(text.contains(r#"q\"b\\n\nr\rt\tc\u0001\u001fé→"#), "{text}");
        assert_eq!(RunLedger::from_jsonl(&text), Ok(ledger));
        // Refused: escapes the writer never emits, a raw control
        // character, a short escape spelt `\u00xx`, uppercase hex.
        for bad in [r"\/", "\t", r"\u000a", r"\u001F", r"\x"] {
            let doctored = text.replacen("é", bad, 1);
            assert!(RunLedger::from_jsonl(&doctored).is_err(), "{bad}");
        }
    }

    #[test]
    fn from_jsonl_rejects_forms_the_writer_never_emits() {
        let mut b = LedgerBuilder::new(header(9));
        b.record_interval(1_000, &probe(&[("x", 1)], &[("drops", 5)]));
        let text = b.finish(vec!["t=0.1".into()]).to_jsonl();
        assert!(RunLedger::from_jsonl(&text).is_ok());
        for (from, to) in [
            ("}\n{\"type\":\"interval\"", "} \n{\"type\":\"interval\""),
            ("]}\n{\"type\":\"trace\"", "]}x\n{\"type\":\"trace\""),
            ("\"seed\":9", "\"seed\": 9"),
            ("\"type\":\"trace\"", "\"type\" :\"trace\""),
            ("\"counters\":[5]", "\"counters\":[ 5]"),
            ("\"at_nanos\":1000", "\"at_nanos\":1000.0"),
            ("\"at_nanos\":1000", "\"at_nanos\":1e3"),
            ("\"at_nanos\":1000", "\"at_nanos\":-1000"),
            ("\"seed\":9", "\"seed\":-9"),
            ("\"seed\":9", "\"seed\":09"),
            ("\"workers\":0", "\"workers\":4294967296"),
            (
                "\"spec_fingerprint\":\"00000000deadbeef\"",
                "\"spec_fingerprint\":\"00000000DEADBEEF\"",
            ),
            (
                "\"spec_fingerprint\":\"00000000deadbeef\"",
                "\"spec_fingerprint\":\"deadbeef\"",
            ),
        ] {
            let doctored = text.replacen(from, to, 1);
            assert_ne!(doctored, text, "{to}");
            assert!(RunLedger::from_jsonl(&doctored).is_err(), "{to}");
        }
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
    fn builder_restore_rejects_chains_that_are_not_the_last_hashes() {
        use crate::snap::{SnapReader, SnapWriter};

        let mut b = LedgerBuilder::new(header(5));
        b.record_interval(100, &probe(&[("x", 1), ("y", 2)], &[]));
        b.record_interval(200, &probe(&[("x", 3), ("y", 4)], &[]));
        let bytes = crate::state_bytes(&b);
        let chain = b.chained_hashes()[1].1.to_le_bytes();
        // The chains sit before the interval records.
        let at = bytes.windows(8).position(|w| w == chain).unwrap();
        let mut doctored = bytes.clone();
        doctored[at] ^= 1;
        let mut fresh = LedgerBuilder::new(header(5));
        assert!(fresh.read_state(&mut SnapReader::new(&bytes)).is_ok());
        assert!(matches!(
            fresh.read_state(&mut SnapReader::new(&doctored)),
            Err(SnapError::Malformed(why)) if why.contains("chains")
        ));
        // Before the first interval every chain is zero.
        let mut w = SnapWriter::new();
        w.write_seq(&["x"], |w, name| w.write_str(name));
        w.write_seq(&[""; 0], |w, name| w.write_str(name));
        w.write_u64(7);
        w.write_seq(&[(); 0], |_, ()| {});
        let bytes = w.into_bytes();
        assert!(fresh.read_state(&mut SnapReader::new(&bytes)).is_err());
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
