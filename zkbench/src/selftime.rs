//! Reduces recorded spans to a per-span self-time table.
//!
//! A span's parent is the shortest span, on any thread, whose interval
//! contains it and whose name differs: same-named spans are the fan-out of
//! one call site (the three `msm-witness` columns), never a nesting, even
//! when a short one happens to run inside a long one on another thread.
//! Identical intervals nest in recording order. Self time is
//! the span's interval minus the union of its children's intervals, so
//! concurrent children (the two `msm-wiring` jobs, the three `msm-witness`
//! columns) are merged before they are subtracted. Rows are keyed
//! `parent/name` (or `name` for top-level spans) and report the union of
//! the self intervals of every span with that key, which is wall time even
//! when same-named spans run concurrently.

use zkspeed::rt::trace::{EventKind, TraceSink};

/// One completed span: `[start, end)` in microseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRec {
    pub name: String,
    pub start: u64,
    pub end: u64,
}

/// Every completed span a sink recorded, across all threads.
pub fn spans_of(sink: &TraceSink) -> Vec<SpanRec> {
    sink.threads()
        .iter()
        .flat_map(|t| t.events.iter())
        .filter(|e| e.kind == EventKind::Span)
        .map(|e| SpanRec {
            name: e.name.to_string(),
            start: e.ts_micros,
            end: e.ts_micros + e.dur_micros,
        })
        .collect()
}

/// Sorts and merges intervals, returning disjoint ones.
fn merge(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.retain(|(s, e)| e > s);
    intervals.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// `[start, end)` minus the disjoint, sorted `holes`.
fn subtract(start: u64, end: u64, holes: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = start;
    for &(s, e) in holes {
        if s > cursor {
            out.push((cursor, s.min(end)));
        }
        cursor = cursor.max(e);
        if cursor >= end {
            break;
        }
    }
    if cursor < end {
        out.push((cursor, end));
    }
    out
}

/// Per-key self time in milliseconds, largest first.
pub fn self_time_ms(spans: &[SpanRec]) -> Vec<(String, f64)> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents sort before the spans they contain.
    order.sort_by_key(|&i| (spans[i].start, std::cmp::Reverse(spans[i].end)));
    let mut rank = vec![0; spans.len()];
    for (r, &i) in order.iter().enumerate() {
        rank[i] = r;
    }
    let parent: Vec<Option<usize>> = (0..spans.len())
        .map(|i| {
            let s = &spans[i];
            (0..spans.len())
                .filter(|&j| {
                    spans[j].name != s.name
                        && rank[j] < rank[i]
                        && spans[j].start <= s.start
                        && s.end <= spans[j].end
                })
                .min_by_key(|&j| (spans[j].end - spans[j].start, std::cmp::Reverse(rank[j])))
        })
        .collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push((spans[i].start, spans[i].end));
        }
    }
    let mut by_key: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let key = match parent[i] {
            Some(p) => format!("{}/{}", spans[p].name, s.name),
            None => s.name.clone(),
        };
        let own = subtract(s.start, s.end, &merge(std::mem::take(&mut children[i])));
        match by_key.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.extend(own),
            None => by_key.push((key, own)),
        }
    }
    let mut rows: Vec<(String, f64)> = by_key
        .into_iter()
        .map(|(k, v)| {
            let micros: u64 = merge(v).iter().map(|(s, e)| e - s).sum();
            (k, micros as f64 / 1e3)
        })
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

/// Sum of the rows whose key is one of `keys` (missing keys count 0).
pub fn sum_rows(rows: &[(String, f64)], keys: &[&str]) -> f64 {
    rows.iter()
        .filter(|(k, _)| keys.contains(&k.as_str()))
        .map(|(_, v)| v)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            name: name.into(),
            start,
            end,
        }
    }

    fn row(rows: &[(String, f64)], key: &str) -> f64 {
        rows.iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("no row {key}: {rows:?}"))
            .1
    }

    #[test]
    fn overlapping_children_are_merged_before_subtraction() {
        // Two concurrent children cover 10..70 of the parent's 0..100.
        let rows = self_time_ms(&[
            span("wire", 0, 100_000),
            span("msm", 10_000, 50_000),
            span("msm", 30_000, 70_000),
        ]);
        assert_eq!(row(&rows, "wire"), 40.0);
        // The two msm spans report their wall-time union, not 80 ms.
        assert_eq!(row(&rows, "wire/msm"), 60.0);
    }

    #[test]
    fn grandchildren_are_charged_only_to_their_parent() {
        let rows = self_time_ms(&[
            span("prove", 0, 100),
            span("step", 10, 90),
            span("round", 20, 30),
            span("round", 40, 60),
        ]);
        assert_eq!(row(&rows, "prove"), 0.02);
        assert_eq!(row(&rows, "prove/step"), 0.05);
        assert_eq!(row(&rows, "step/round"), 0.03);
        // Self times partition the root interval.
        let total: f64 = rows.iter().map(|(_, v)| v).sum();
        assert!((total - 0.1).abs() < 1e-12);
    }

    #[test]
    fn identical_intervals_nest_in_recording_order() {
        let rows = self_time_ms(&[span("outer", 5, 15), span("inner", 5, 15)]);
        assert_eq!(row(&rows, "outer"), 0.0);
        assert_eq!(row(&rows, "outer/inner"), 0.01);
    }

    #[test]
    fn same_named_fan_out_never_nests() {
        // Column 1 runs entirely inside column 0's interval on another
        // thread; both are children of the step, not of each other.
        let rows = self_time_ms(&[
            span("commit", 0, 100_000),
            span("msm", 0, 90_000),
            span("msm", 10_000, 40_000),
            span("msm", 50_000, 95_000),
        ]);
        assert_eq!(row(&rows, "commit/msm"), 95.0);
        assert_eq!(row(&rows, "commit"), 5.0);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn partial_overlap_is_not_containment() {
        let rows = self_time_ms(&[span("a", 0, 10), span("b", 5, 20)]);
        assert_eq!(row(&rows, "a"), 0.01);
        assert_eq!(row(&rows, "b"), 0.015);
        assert_eq!(sum_rows(&rows, &["a", "b", "missing"]), 0.025);
    }
}
