//! Span exporters: nested Chrome-trace **async spans** and a spans JSONL
//! format, rendering an assembled [`SpanForest`].
//!
//! The flat-event exporter (`export`) emits only metadata (`"M"`) and
//! instant (`"i"`) records; spans need duration phases, so this module
//! uses Chrome's async-span records (`"b"`/`"e"`, nested by shared
//! `cat`+`id`) for the request/attempt hierarchy and complete records
//! (`"X"`, with `dur`) for the critical-path phase segments. A separate
//! [`validate_span_trace`] guards this richer schema — the flat
//! validator deliberately rejects any phase other than `M`/`i`.
//!
//! [`phase_color`] is an exhaustive [`Phase`] match registered as a
//! detlint trace-schema surface: adding a phase without deciding how the
//! exporter renders it fails the static-analysis pass.

use serde::Value;

use crate::critical_path::{Phase, PhaseSegment};
use crate::event::NONE;
use crate::export::TRACE_PID;
use crate::span::{RequestSpan, SpanForest};

/// The Chrome-trace `cname` (palette color) each phase renders with, so
/// a loaded span trace reads at a glance: service green, spin red,
/// backoff dark red, waits in warning tones.
pub fn phase_color(phase: Phase) -> &'static str {
    match phase {
        Phase::Network => "rail_load",
        Phase::AcceptWait => "yellow",
        Phase::QueueWait => "olive",
        Phase::CpuService => "good",
        Phase::WriteDeliver => "rail_response",
        Phase::WriteSpin => "terrible",
        Phase::RetryBackoff => "bad",
        Phase::HedgeWait => "rail_animation",
        Phase::DeadWait => "grey",
    }
}

fn us(ns: u64) -> Value {
    Value::Float(ns as f64 / 1000.0)
}

fn async_ev(ph: &str, name: &str, cat: &str, id: u64, ts_ns: u64, tid: u64) -> Value {
    Value::Map(vec![
        ("name".into(), Value::Str(name.into())),
        ("cat".into(), Value::Str(cat.into())),
        ("ph".into(), Value::Str(ph.into())),
        ("id".into(), Value::UInt(id)),
        ("pid".into(), Value::UInt(TRACE_PID)),
        ("tid".into(), Value::UInt(tid)),
        ("ts".into(), us(ts_ns)),
    ])
}

fn segment_ev(tree: &RequestSpan, seg: &PhaseSegment) -> Value {
    Value::Map(vec![
        ("name".into(), Value::Str(seg.phase.name().into())),
        ("cat".into(), Value::Str("phase".into())),
        ("ph".into(), Value::Str("X".into())),
        ("pid".into(), Value::UInt(TRACE_PID)),
        ("tid".into(), Value::UInt(u64::from(tree.conn) + 1)),
        ("ts".into(), us(seg.start.as_nanos())),
        ("dur".into(), us(seg.ns())),
        ("cname".into(), Value::Str(phase_color(seg.phase).into())),
        (
            "args".into(),
            Value::Map(vec![
                ("conn".into(), Value::UInt(u64::from(tree.conn))),
                ("ns".into(), Value::UInt(seg.ns())),
            ]),
        ),
    ])
}

/// Renders a span forest as Chrome trace-event JSON: one nested async
/// span per logical request (`cat:"request"`, one `id` per tree) with a
/// child async span per attempt, plus one `"X"` slice per critical-path
/// phase segment on the owning connection's track. Timestamps are
/// microseconds of virtual time.
pub fn spans_chrome_json(forest: &SpanForest) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(forest.trees.len() * 8 + 1);
    events.push(Value::Map(vec![
        ("name".into(), Value::Str("process_name".into())),
        ("ph".into(), Value::Str("M".into())),
        ("pid".into(), Value::UInt(TRACE_PID)),
        ("tid".into(), Value::UInt(0)),
        (
            "args".into(),
            Value::Map(vec![(
                "name".into(),
                Value::Str("asyncinv request spans".into()),
            )]),
        ),
    ]));
    for (id, tree) in forest.trees.iter().enumerate() {
        let id = id as u64;
        let tid = u64::from(tree.conn) + 1;
        let root_name = format!("request conn={} [{}]", tree.conn, tree.status.name());
        events.push(async_ev(
            "b",
            &root_name,
            "request",
            id,
            tree.start.as_nanos(),
            tid,
        ));
        for a in &tree.attempts {
            let shard = a.shard.map_or_else(|| "-".to_string(), |s| s.to_string());
            let name = format!(
                "{} #{} shard={} [{}]",
                a.kind.name(),
                a.index,
                shard,
                a.outcome.name()
            );
            events.push(async_ev("b", &name, "request", id, a.start.as_nanos(), tid));
            events.push(async_ev("e", &name, "request", id, a.end.as_nanos(), tid));
        }
        for seg in &tree.segments {
            events.push(segment_ev(tree, seg));
        }
        events.push(async_ev(
            "e",
            &root_name,
            "request",
            id,
            tree.end.as_nanos(),
            tid,
        ));
    }
    let root = Value::Map(vec![
        ("traceEvents".into(), Value::Seq(events)),
        ("displayTimeUnit".into(), Value::Str("ns".into())),
    ]);
    serde_json::to_string(&root).expect("span trace serializes")
}

/// Renders a span forest as JSON Lines: one object per request tree with
/// its window, status, attempt children, and the per-phase breakdown
/// keyed by [`Phase::name`]. Integer nanoseconds throughout, so the
/// conservation invariant survives a round-trip.
pub fn spans_jsonl(forest: &SpanForest) -> String {
    let mut out = String::new();
    for tree in &forest.trees {
        let attempts: Vec<Value> = tree
            .attempts
            .iter()
            .map(|a| {
                let mut m: Vec<(String, Value)> = vec![
                    ("kind".into(), Value::Str(a.kind.name().into())),
                    ("index".into(), Value::UInt(u64::from(a.index))),
                ];
                if let Some(s) = a.shard {
                    m.push(("shard".into(), Value::UInt(u64::from(s))));
                }
                m.push(("start_ns".into(), Value::UInt(a.start.as_nanos())));
                m.push(("end_ns".into(), Value::UInt(a.end.as_nanos())));
                m.push(("outcome".into(), Value::Str(a.outcome.name().into())));
                Value::Map(m)
            })
            .collect();
        let phases: Vec<(String, Value)> = Phase::ALL
            .iter()
            .map(|p| (p.name().to_string(), Value::UInt(tree.phases.get(*p))))
            .collect();
        let mut m: Vec<(String, Value)> = vec![("conn".into(), Value::UInt(u64::from(tree.conn)))];
        if tree.class != NONE {
            m.push(("class".into(), Value::UInt(u64::from(tree.class))));
        }
        if tree.req != 0 {
            m.push(("req".into(), Value::UInt(tree.req)));
        }
        m.extend([
            ("start_ns".to_string(), Value::UInt(tree.start.as_nanos())),
            ("end_ns".to_string(), Value::UInt(tree.end.as_nanos())),
            ("rt_ns".to_string(), Value::UInt(tree.rt_ns)),
            ("status".to_string(), Value::Str(tree.status.name().into())),
            ("attempts".to_string(), Value::Seq(attempts)),
            ("phases".to_string(), Value::Map(phases)),
        ]);
        out.push_str(&serde_json::to_string(&Value::Map(m)).expect("tree serializes"));
        out.push('\n');
    }
    out
}

/// Validates a span-trace JSON document against the schema
/// [`spans_chrome_json`] exports: a non-empty `traceEvents` array whose
/// records are metadata (`M`), async begin/end (`b`/`e`, with an `id`),
/// or complete slices (`X`, with numeric `ts` and `dur`); every `b` must
/// have a matching `e`. Returns the number of async begin records, or a
/// description of the first problem.
pub fn validate_span_trace(json: &str) -> Result<usize, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_seq()
        .ok_or("traceEvents is not an array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".into());
    }
    let numeric =
        |v: Option<&Value>| matches!(v, Some(Value::Float(_) | Value::UInt(_) | Value::Int(_)));
    let mut begins = 0usize;
    let mut ends = 0usize;
    let mut slices = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = match ev.get("ph") {
            Some(Value::Str(s)) => s.as_str(),
            _ => return Err(format!("event {i}: missing ph")),
        };
        if ev.get("name").is_none() {
            return Err(format!("event {i}: missing name"));
        }
        if ev.get("pid").is_none() || ev.get("tid").is_none() {
            return Err(format!("event {i}: missing pid/tid"));
        }
        match ph {
            "M" => {}
            "b" | "e" => {
                if !matches!(ev.get("id"), Some(Value::UInt(_) | Value::Int(_))) {
                    return Err(format!("event {i}: async record without id"));
                }
                if !numeric(ev.get("ts")) {
                    return Err(format!("event {i}: async record without numeric ts"));
                }
                if ph == "b" {
                    begins += 1;
                } else {
                    ends += 1;
                }
            }
            "X" => {
                if !numeric(ev.get("ts")) || !numeric(ev.get("dur")) {
                    return Err(format!("event {i}: slice without numeric ts/dur"));
                }
                slices += 1;
            }
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        }
    }
    if begins != ends {
        return Err(format!("unbalanced async spans: {begins} b vs {ends} e"));
    }
    if begins == 0 {
        return Err("no async span records".into());
    }
    if slices == 0 {
        return Err("no phase slices".into());
    }
    Ok(begins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceKind};
    use crate::span::SpanAssembler;
    use asyncinv_simcore::SimTime;

    fn forest() -> SpanForest {
        let mut asm = SpanAssembler::new();
        let ev = |t: u64, kind: TraceKind, arg: u64| {
            TraceEvent::new(SimTime::from_nanos(t), kind)
                .conn(0)
                .arg(arg)
        };
        asm.push(ev(100, TraceKind::RequestArrive, 0));
        asm.push(ev(100, TraceKind::QueueEnter, 1));
        asm.push(ev(150, TraceKind::QueueExit, 1));
        asm.push(ev(300, TraceKind::WriteCall, 64));
        asm.push(ev(400, TraceKind::Completion, 400));
        asm.finish(true)
    }

    #[test]
    fn span_trace_passes_own_validator_and_flat_validator_rejects_it() {
        let json = spans_chrome_json(&forest());
        let begins = validate_span_trace(&json).expect("valid span trace");
        assert_eq!(begins, 2); // request root + one attempt
        assert!(
            crate::export::validate_chrome_trace(&json).is_err(),
            "flat validator must reject async phases"
        );
    }

    #[test]
    fn spans_jsonl_round_trips_conservation() {
        let text = spans_jsonl(&forest());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        let v: Value = serde_json::from_str(lines[0]).unwrap();
        let rt = match v.get("rt_ns") {
            Some(Value::UInt(n)) => *n,
            _ => panic!("missing rt_ns"),
        };
        let phases = v.get("phases").expect("phases map");
        let sum: u64 = Phase::ALL
            .iter()
            .map(|p| match phases.get(p.name()) {
                Some(Value::UInt(n)) => *n,
                _ => panic!("missing phase {}", p.name()),
            })
            .sum();
        assert_eq!(sum, rt, "phase sums survive export bitwise");
    }

    #[test]
    fn every_phase_has_a_distinct_color() {
        let mut colors: Vec<_> = Phase::ALL.iter().map(|p| phase_color(*p)).collect();
        colors.sort_unstable();
        colors.dedup();
        assert_eq!(colors.len(), Phase::COUNT);
    }

    #[test]
    fn validator_rejects_drift() {
        assert!(validate_span_trace("{}").is_err());
        assert!(validate_span_trace(r#"{"traceEvents": []}"#).is_err());
        assert!(validate_span_trace(
            r#"{"traceEvents": [{"ph":"b","name":"x","pid":1,"tid":1,"ts":0}]}"#
        )
        .is_err());
    }
}
