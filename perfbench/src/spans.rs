//! The benchmark's own spans: kept in memory during the traced run,
//! merged with the flight recorder's CP-engine spans, reduced to
//! per-name self times, and written out once at the end.

use std::collections::BTreeMap;
use std::time::Instant;
use wafl_obs::trace::{TraceData, TraceEvent};

/// One completed span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Span name, e.g. `"run_cp"` or (from the flight recorder)
    /// `"cp.apply"`.
    pub name: &'static str,
    /// Index of the CP the span belongs to: the aggregate's CP count
    /// when the span began, so every span of one CP shares it.
    pub cp: u64,
    /// Start, µs on the flight recorder's clock.
    pub start_us: f64,
    /// Duration, µs.
    pub dur_us: f64,
}

impl Span {
    fn end_us(&self) -> f64 {
        self.start_us + self.dur_us
    }
}

/// An in-memory span journal on the flight recorder's clock.
pub struct SpanLog {
    epoch: Instant,
    /// Flight-recorder time at `epoch`, µs.
    offset_us: f64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A journal aligned to a tracer whose clock reads `tracer_now_us`
    /// at this moment.
    pub fn aligned_to(tracer_now_us: f64) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            offset_us: tracer_now_us,
            spans: Vec::new(),
        }
    }

    /// Now, µs on the flight recorder's clock.
    pub fn now_us(&self) -> f64 {
        self.offset_us + self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Record a span that began at `start_us` and ends now.
    pub fn close(&mut self, name: &'static str, cp: u64, start_us: f64) {
        let dur_us = (self.now_us() - start_us).max(0.0);
        self.spans.push(Span {
            name,
            cp,
            start_us,
            dur_us,
        });
    }

    /// Recorded spans, in close order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The CP-engine-track spans of a flight-recorder journal (worker-shard
/// spans run concurrently and nest under no single parent).
pub fn engine_spans(events: &[TraceEvent]) -> Vec<Span> {
    events
        .iter()
        .filter(|e| e.shard.is_none())
        .filter_map(|e| match e.data {
            TraceData::Span { name, dur_us, .. } => Some(Span {
                name,
                cp: e.cp,
                start_us: e.ts_us,
                dur_us,
            }),
            _ => None,
        })
        .collect()
}

/// Tolerance for nesting on one clock: the CP engine lays its phase
/// spans end to end from measured laps, so sums can overshoot by float
/// rounding.
const NEST_EPS_US: f64 = 0.5;

/// Per-name self time: each span's duration minus the part of it its
/// child spans cover. A span's children are the spans of the same CP
/// that lie inside it and inside no smaller span that does. Returns
/// name → (total self µs, occurrences).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut by_cp: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_cp.entry(s.cp).or_default().push(*s);
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (_, mut group) in by_cp {
        // Parents before children: earlier start first, longer first.
        group.sort_by(|a, b| {
            a.start_us
                .total_cmp(&b.start_us)
                .then(b.dur_us.total_cmp(&a.dur_us))
        });
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); group.len()];
        let mut open: Vec<usize> = Vec::new();
        for i in 0..group.len() {
            let s = group[i];
            while let Some(&top) = open.last() {
                if s.start_us >= group[top].end_us() - NEST_EPS_US
                    || s.end_us() > group[top].end_us() + NEST_EPS_US
                {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = open.last() {
                children[parent].push((s.start_us, s.end_us()));
            }
            open.push(i);
        }
        for (s, kids) in group.iter().zip(children) {
            let covered = covered_us(s, kids);
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += (s.dur_us - covered).max(0.0);
            e.1 += 1;
        }
    }
    out
}

/// Length of the union of `kids`, clipped to `parent`.
fn covered_us(parent: &Span, mut kids: Vec<(f64, f64)>) -> f64 {
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (lo, hi) = (parent.start_us, parent.end_us());
    let mut covered = 0.0;
    let mut reach = lo;
    for (s, e) in kids {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Mean self time of `name` per occurrence, µs (0 when absent).
pub fn mean_self_us(table: &BTreeMap<&'static str, (f64, u64)>, name: &str) -> f64 {
    match table.get(name) {
        Some(&(total, n)) if n > 0 => total / n as f64,
        _ => 0.0,
    }
}

/// Chrome-trace JSON (complete `X` events) of the benchmark's spans on
/// one track and the CP engine's on another; opens in Perfetto.
pub fn chrome_json(bench: &[Span], engine: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, spans) in [(0, bench), (1, engine)] {
        for s in spans {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"cp\":{}}}}}",
                s.name, tid, s.start_us, s.dur_us, s.cp
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, cp: u64, start_us: f64, dur_us: f64) -> Span {
        Span {
            name,
            cp,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = [
            span("round", 0, 0.0, 100.0),
            span("ingest", 0, 5.0, 20.0),
            span("run_cp", 0, 30.0, 60.0),
            span("cp", 0, 31.0, 58.0),
            span("cp.apply", 0, 31.0, 10.0),
            span("cp.bind", 0, 41.0, 30.0),
            // Another CP's span inside the same interval is not a child.
            span("round", 1, 10.0, 1.0),
        ];
        let t = self_times(&spans);
        assert_eq!(t["round"], (100.0 - 80.0 + 1.0, 2));
        assert_eq!(t["run_cp"], (2.0, 1));
        assert_eq!(t["cp"], (18.0, 1));
        assert_eq!(t["cp.bind"], (30.0, 1));
        assert_eq!(mean_self_us(&t, "round"), 10.5);
        assert_eq!(mean_self_us(&t, "absent"), 0.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        let parent = span("p", 0, 0.0, 10.0);
        assert_eq!(
            covered_us(&parent, vec![(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)]),
            7.0
        );
    }
}
