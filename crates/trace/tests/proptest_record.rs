//! Property-based tests of the trace record layer.
//!
//! - End-to-end round trip: `to_records` → `write_jsonl` → `read_jsonl`
//!   → `from_records` must reproduce the original [`MaskedLog`] exactly —
//!   mask bits, pinned times (bitwise: the JSONL writer uses
//!   shortest-round-trip float formatting), queue ids, and task
//!   structure — across random topologies and masks.
//! - The codec against the vendored `serde_json` over `TraceRecord`'s
//!   serde derives: on generated lines the two readers agree bit for bit,
//!   on mutated lines they accept and reject alike (apart from the
//!   codec's two extra rejections), and the writer's bytes are
//!   `serde_json`'s.

use proptest::prelude::*;
use proptest::TestRng;
use qni_model::event::Event;
use qni_model::ids::{EventId, QueueId, StateId, TaskId};
use qni_model::log::{EventLog, EventLogBuilder};
use qni_trace::record::{
    from_records, parse_record, read_jsonl, to_records, write_jsonl, write_record, RecordError,
    TraceRecord,
};
use qni_trace::tail::LineAssembler;
use qni_trace::{MaskedLog, ObservedMask};

/// A randomly generated multi-queue task set: per task, an entry gap and
/// a visit list of `(queue, wait-ish gap, service gap)` hops.
type RawTasks = Vec<(f64, Vec<(usize, f64, f64)>)>;

/// Strategy: 1–8 tasks over a 2–5 queue network, visits 1–4 hops long.
fn raw_tasks(num_queues: usize) -> impl Strategy<Value = RawTasks> {
    collection::vec(
        (
            0.01f64..3.0, // Entry gap to the previous task.
            collection::vec((1..num_queues, 0.0f64..1.5, 0.01f64..2.0), 1usize..4),
        ),
        1usize..8,
    )
}

/// Builds a log from raw tasks: times accumulate along each task, so the
/// builder's per-task monotonicity always holds (cross-task queue order
/// is whatever it is — the record layer must round-trip any such log).
fn build_log(num_queues: usize, raw: &RawTasks) -> EventLog {
    let mut b = EventLogBuilder::new(num_queues, StateId(0));
    let mut entry = 0.0f64;
    for (gap, hops) in raw {
        entry += gap;
        let mut t = entry;
        let visits: Vec<_> = hops
            .iter()
            .map(|&(q, wait, service)| {
                let arrival = t;
                t += wait + service;
                (StateId(q as u32), QueueId(q as u32), arrival, t)
            })
            .collect();
        b.add_task(entry, &visits).expect("valid task");
    }
    b.build().expect("buildable")
}

/// Applies 2-bit mask codes (bit 0: arrival, bit 1: departure) per event.
fn build_mask(log: &EventLog, codes: &[u8]) -> ObservedMask {
    let mut mask = ObservedMask::unobserved(log.num_events());
    for e in log.event_ids() {
        let code = codes[e.index() % codes.len()];
        if code & 1 != 0 {
            mask.observe_arrival(e);
        }
        if code & 2 != 0 {
            mask.observe_departure(e);
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn jsonl_round_trip_reproduces_masked_log(
        (num_queues, raw, codes) in (2usize..6).prop_flat_map(|q| {
            (Just(q), raw_tasks(q), collection::vec(0u8..4, 1usize..32))
        })
    ) {
        let log = build_log(num_queues, &raw);
        let mask = build_mask(&log, &codes);
        let original = MaskedLog::new(log, mask).expect("masked log");

        let records = to_records(original.ground_truth(), original.mask());
        prop_assert_eq!(records.len(), original.ground_truth().num_events());
        let mut buf = Vec::new();
        write_jsonl(&original, &mut buf).expect("write");
        let read_back = read_jsonl(std::io::Cursor::new(&buf)).expect("read");
        // The streamed records equal the in-memory extraction.
        prop_assert_eq!(&read_back, &records);

        let rebuilt = from_records(&read_back, num_queues).expect("rebuild");
        let (a, b) = (original.ground_truth(), rebuilt.ground_truth());
        prop_assert_eq!(a.num_events(), b.num_events());
        prop_assert_eq!(a.num_tasks(), b.num_tasks());
        prop_assert_eq!(a.num_queues(), b.num_queues());
        for e in a.event_ids() {
            // Bitwise time equality: JSONL floats are shortest-round-trip.
            prop_assert_eq!(a.arrival(e).to_bits(), b.arrival(e).to_bits());
            prop_assert_eq!(a.departure(e).to_bits(), b.departure(e).to_bits());
            prop_assert_eq!(a.queue_of(e), b.queue_of(e));
            prop_assert_eq!(a.task_of(e), b.task_of(e));
            prop_assert_eq!(a.state_of(e), b.state_of(e));
            // Mask bits (including the forced-observed initial arrivals).
            prop_assert_eq!(
                original.mask().arrival_observed(e),
                rebuilt.mask().arrival_observed(e)
            );
            prop_assert_eq!(
                original.mask().departure_observed(e),
                rebuilt.mask().departure_observed(e)
            );
        }
        // Derived free-variable structure agrees too.
        prop_assert_eq!(original.free_arrivals(), rebuilt.free_arrivals());
        prop_assert_eq!(
            original.free_final_departures(),
            rebuilt.free_final_departures()
        );
    }

    #[test]
    fn scrubbed_views_agree_after_round_trip(
        (num_queues, raw, codes) in (2usize..5).prop_flat_map(|q| {
            (Just(q), raw_tasks(q), collection::vec(0u8..4, 1usize..16))
        })
    ) {
        // What inference actually consumes is the scrubbed log; NaN
        // patterns must survive the disk round trip exactly.
        let log = build_log(num_queues, &raw);
        let mask = build_mask(&log, &codes);
        let original = MaskedLog::new(log, mask).expect("masked log");
        let mut buf = Vec::new();
        write_jsonl(&original, &mut buf).expect("write");
        let rebuilt = from_records(
            &read_jsonl(std::io::Cursor::new(&buf)).expect("read"),
            num_queues,
        )
        .expect("rebuild");
        let (sa, sb) = (original.scrubbed_log(), rebuilt.scrubbed_log());
        for e in sa.event_ids() {
            let e2 = EventId::from_index(e.index());
            prop_assert_eq!(sa.arrival(e).is_nan(), sb.arrival(e2).is_nan());
            prop_assert_eq!(sa.departure(e).is_nan(), sb.departure(e2).is_nan());
        }
    }

    /// The live-tail invariant: slicing the JSONL byte stream at
    /// arbitrary chunk boundaries (including mid-line and mid-UTF-8) and
    /// feeding the chunks through [`LineAssembler`] reassembles exactly
    /// the records a one-shot parse produces.
    #[test]
    fn chunked_tail_reads_match_one_shot_parse(
        (num_queues, raw, codes, cuts) in (2usize..6).prop_flat_map(|q| {
            (
                Just(q),
                raw_tasks(q),
                collection::vec(0u8..4, 1usize..32),
                collection::vec(1usize..64, 0usize..24),
            )
        })
    ) {
        let log = build_log(num_queues, &raw);
        let mask = build_mask(&log, &codes);
        let original = MaskedLog::new(log, mask).expect("masked log");
        let mut buf = Vec::new();
        write_jsonl(&original, &mut buf).expect("write");
        let oneshot = read_jsonl(std::io::Cursor::new(&buf)).expect("read");

        let mut asm = LineAssembler::new();
        let mut parsed = Vec::new();
        let mut pos = 0usize;
        for &c in &cuts {
            let end = (pos + c).min(buf.len());
            parsed.extend(asm.push(&buf[pos..end]).expect("chunk"));
            pos = end;
        }
        parsed.extend(asm.push(&buf[pos..]).expect("final chunk"));
        prop_assert_eq!(asm.pending_bytes(), 0);
        prop_assert_eq!(&parsed, &oneshot);
    }
}

/// A record by its bits, so −0.0 differs from +0.0.
type RecordBits = (u32, u32, u32, u64, u64, bool, bool);

fn bits(r: &TraceRecord) -> RecordBits {
    (
        r.event.task.0,
        r.event.state.0,
        r.event.queue.0,
        r.event.arrival.to_bits(),
        r.event.departure.to_bits(),
        r.arrival_observed,
        r.departure_observed,
    )
}

/// The reference reader: the vendored `serde_json` through the derived
/// `Deserialize`. A line that is not UTF-8 never reaches it.
fn oracle(line: &[u8]) -> Option<TraceRecord> {
    serde_json::from_str(std::str::from_utf8(line).ok()?).ok()
}

/// Random choices for the line generator, drawn from one case seed.
struct Gen(TestRng);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0.below(n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.0.unit_f64() < p
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }

    fn ws(&mut self) -> &'static str {
        if self.chance(0.6) {
            ""
        } else {
            self.pick(&[" ", "\t", "  ", "\r", " \n ", "\r\n"])
        }
    }

    /// A key as a JSON string, some characters `\u`-escaped.
    fn key(&mut self, name: &str) -> String {
        let mut s = String::from("\"");
        for c in name.chars() {
            if self.chance(0.15) {
                let hex = format!("{:04x}", c as u32);
                let hex = if self.chance(0.5) {
                    hex.to_uppercase()
                } else {
                    hex
                };
                s.push_str(&format!("\\u{hex}"));
            } else {
                s.push(c);
            }
        }
        s.push('"');
        s
    }

    /// A valid id spelling: integer literals, integral floats, `-0`.
    fn id(&mut self) -> String {
        let v = if self.chance(0.3) {
            [0u64, 1, 3, 1000, 4_294_967_295][self.below(5)]
        } else {
            self.0.below(100_000)
        };
        match self.below(7) {
            0 | 1 => v.to_string(),
            2 => format!("{v}.0"),
            3 => format!("{v}e0"),
            4 if v % 1000 == 0 && v > 0 => format!("{}e3", v / 1000),
            4 => format!("{v}.000"),
            5 if v == 0 => self.pick(&["-0", "-0.0", "0e5", "0.0"]).to_string(),
            5 => format!("{}0e-1", v),
            _ => format!("{v}E+0"),
        }
    }

    /// A valid, finite time spelling.
    fn time(&mut self) -> String {
        let t = self.0.unit_f64() * 1000.0;
        let k = self.0.below(1_000_000);
        match self.below(12) {
            0 | 1 => format!("{t}"),
            2 => format!("{t:?}"),
            3 => format!("{t:e}"),
            4 => format!("{t:E}"),
            5 => k.to_string(),
            6 => format!("{k}.0"),
            7 => format!("{k}e0"),
            8 => self
                .pick(&["-0", "-0.0", "0", "0.0", "2", "2.0", "2e0", "-2"])
                .to_string(),
            9 => self
                .pick(&[
                    "12345678901234567890",
                    "123456789012345678901234",
                    "10000000000000000",
                    "9007199254740993",
                    "-9223372036854775809",
                ])
                .to_string(),
            10 => format!("{}", f64::from_bits(self.0.next_u64() >> 12)),
            _ => format!("-{t}"),
        }
    }

    /// Any JSON value, nested up to `depth` more levels.
    fn value(&mut self, depth: usize) -> String {
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => self.pick(&["null", "true", "false"]).to_string(),
            1 => self
                .pick(&["1e400", "-0", "00.5", "7", "-3.25", "1E-7"])
                .to_string(),
            2 => self.time(),
            3 | 4 => {
                let n = self.below(4);
                let parts: Vec<&str> = (0..n)
                    .map(|_| {
                        self.pick(&[
                            "abc",
                            "\\\"",
                            "\\\\",
                            "\\/",
                            "\\b\\f\\n\\r\\t",
                            "\\u00e9",
                            "\\ud83d\\ude00",
                            "é☕",
                            "}]\",:",
                            "task",
                        ])
                    })
                    .collect();
                format!("\"{}\"", parts.concat().replace("}]\",:", "}]\\\",:"))
            }
            5 => {
                let n = self.below(4);
                let items: Vec<String> = (0..n).map(|_| self.value(depth - 1)).collect();
                let sep = format!("{},{}", self.ws(), self.ws());
                format!("[{}{}{}]", self.ws(), items.join(&sep), self.ws())
            }
            _ => {
                let n = self.below(4);
                let members: Vec<String> = (0..n)
                    .map(|_| {
                        let k = self.pick(&["task", "x", "arrival", "nested"]);
                        format!("{}{}:{}", self.key(k), self.ws(), self.value(depth - 1))
                    })
                    .collect();
                let sep = format!("{},{}", self.ws(), self.ws());
                format!("{{{}{}{}}}", self.ws(), members.join(&sep), self.ws())
            }
        }
    }

    /// A line both readers accept: every record key once, unknown keys
    /// with nested values, shuffled, spaced, sometimes ending in `\r`.
    fn line(&mut self) -> String {
        let mut members: Vec<String> = Vec::new();
        for (name, value) in [
            ("task", self.id()),
            ("state", self.id()),
            ("queue", self.id()),
            ("arrival", self.time()),
            ("departure", self.time()),
            (
                "arrival_observed",
                self.pick(&["true", "false"]).to_string(),
            ),
            (
                "departure_observed",
                self.pick(&["true", "false"]).to_string(),
            ),
        ] {
            members.push(format!(
                "{}{}:{}{}",
                self.key(name),
                self.ws(),
                self.ws(),
                value
            ));
        }
        for _ in 0..self.below(4) {
            let name = self.pick(&[
                "x",
                "",
                "event",
                "Task",
                "tasks",
                "arrival ",
                "departure_observed_at",
                "q\u{e9}",
            ]);
            members.push(format!("{}:{}", self.key(name), self.value(3)));
        }
        for i in (1..members.len()).rev() {
            let j = self.below(i + 1);
            members.swap(i, j);
        }
        let sep = format!("{},{}", self.ws(), self.ws());
        let end = if self.chance(0.2) { "\r" } else { "" };
        format!(
            "{}{{{}{}{}}}{}{end}",
            self.ws(),
            self.ws(),
            members.join(&sep),
            self.ws(),
            self.ws()
        )
    }

    /// Truncates, deletes, inserts or flips bytes of `line`, or deletes
    /// one of its structural bytes.
    fn mutate(&mut self, line: &mut Vec<u8>) {
        const INSERTS: &[u8] = b"{}[]:,\"\\ -+.eE019tfnu\xff\xc3\r\n";
        let edits = if self.chance(0.7) {
            1
        } else {
            2 + self.below(2)
        };
        for _ in 0..edits {
            let n = line.len();
            match self.below(6) {
                0 => line.truncate(self.below(n + 1)),
                4 | 5 => {
                    let structural: Vec<usize> =
                        (0..n).filter(|&i| b"{}[]:,\"".contains(&line[i])).collect();
                    if !structural.is_empty() {
                        line.remove(structural[self.below(structural.len())]);
                    }
                }
                1 if n > 0 => {
                    let i = self.below(n);
                    let end = (i + 1 + self.below(3)).min(n);
                    line.drain(i..end);
                }
                2 => {
                    let b = if self.chance(0.7) {
                        INSERTS[self.below(INSERTS.len())]
                    } else {
                        self.0.below(256) as u8
                    };
                    line.insert(self.below(n + 1), b);
                }
                _ if n > 0 => {
                    let i = self.below(n);
                    line[i] ^= 1 << self.below(8);
                }
                _ => {}
            }
        }
    }
}

/// A record with arbitrary field bits, times drawn to hit the writer's
/// corner cases.
fn any_record(g: &mut Gen) -> TraceRecord {
    let mut time = || match g.below(8) {
        0 => f64::from_bits(g.0.next_u64()),
        1 => -0.0,
        2 => f64::from_bits(g.0.next_u64() >> 12),
        3 => 1e16 * (1 + g.0.below(1_000_000)) as f64,
        4 => [f64::MAX, f64::MIN_POSITIVE, 5e-324, f64::INFINITY, f64::NAN][g.below(5)],
        5 => g.0.below(1_000_000) as f64,
        _ => g.0.unit_f64() * 1000.0,
    };
    let (arrival, departure) = (time(), time());
    TraceRecord {
        event: Event {
            task: TaskId(g.0.next_u64() as u32),
            state: StateId(g.0.below(8) as u32),
            queue: QueueId(g.0.below(8) as u32),
            arrival,
            departure,
        },
        arrival_observed: g.chance(0.5),
        departure_observed: g.chance(0.5),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// On generated lines — any key order, escaped and unknown keys,
    /// whitespace, CRLF, and the number spellings the reference reader
    /// takes — the codec and `serde_json` agree bit for bit, line by line
    /// and through `read_jsonl` over a CRLF file.
    #[test]
    fn parse_record_matches_serde_json(seed in 0u64..u64::MAX) {
        let mut g = Gen(TestRng::new(seed));
        let mut file = String::new();
        let mut want = Vec::new();
        for _ in 0..8 {
            let line = g.line();
            let reference = oracle(line.as_bytes());
            prop_assert!(reference.is_some(), "reference rejects {line:?}");
            let ours = parse_record(line.as_bytes());
            prop_assert!(ours.is_ok(), "codec rejects {line:?}: {ours:?}");
            let (ours, reference) = (ours.unwrap(), reference.unwrap());
            prop_assert_eq!(bits(&ours), bits(&reference), "line {:?}", line);
            // JSON whitespace may hold a newline; a file line cannot.
            if !line.contains('\n') {
                want.push(bits(&reference));
                file.push_str(&line);
                file.push_str(if g.chance(0.5) { "\r\n" } else { "\n" });
                if g.chance(0.2) {
                    file.push_str(" \t\n");
                }
            }
        }
        let read: Vec<RecordBits> = read_jsonl(file.as_bytes())
            .expect("read generated file")
            .iter()
            .map(bits)
            .collect();
        prop_assert_eq!(read, want);
    }

    /// Mutated lines: both readers reject, or both accept with equal
    /// bits. The codec may additionally reject a repeated key or a
    /// non-finite time; nothing else, and neither reader panics.
    #[test]
    fn mutated_lines_are_judged_alike(seed in 0u64..u64::MAX) {
        let mut g = Gen(TestRng::new(seed));
        let base = if g.chance(0.75) {
            g.line().into_bytes()
        } else {
            let mut line = Vec::new();
            write_record(&mut line, &any_record(&mut g));
            line.pop();
            line
        };
        for _ in 0..32 {
            let mut line = base.clone();
            g.mutate(&mut line);
            match (parse_record(&line), oracle(&line)) {
                (Ok(ours), Some(reference)) => {
                    prop_assert_eq!(bits(&ours), bits(&reference), "line {:?}", String::from_utf8_lossy(&line));
                }
                (Err(_), None) => {}
                (Err(RecordError::RepeatedKey { .. } | RecordError::NonFiniteTime { .. }), Some(_)) => {}
                (ours, reference) => {
                    prop_assert!(
                        false,
                        "line {:?}: codec {:?}, reference {:?}",
                        String::from_utf8_lossy(&line),
                        ours,
                        reference
                    );
                }
            }
        }
    }

    /// `write_record` writes `serde_json::to_string` plus `\n`, for any
    /// field bits: −0.0, subnormals, integral times ≥ 1e16, non-finite.
    #[test]
    fn write_record_matches_serde_json(seed in 0u64..u64::MAX) {
        let mut g = Gen(TestRng::new(seed));
        for _ in 0..16 {
            let rec = any_record(&mut g);
            let mut ours = Vec::new();
            write_record(&mut ours, &rec);
            let mut want = serde_json::to_string(&rec).expect("serialize");
            want.push('\n');
            prop_assert_eq!(String::from_utf8(ours).expect("UTF-8"), want);
        }
    }
}
