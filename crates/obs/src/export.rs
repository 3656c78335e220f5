//! Exporters: render a [`Snapshot`] for standard tooling, with no
//! dependencies beyond `std`.
//!
//! * [`chrome_trace`] — the chrome://tracing / Perfetto "trace event"
//!   JSON format (duration `B`/`E` pairs), built from the span tree.
//! * [`folded_stacks`] — Brendan Gregg's folded-stack text, one
//!   `root;child;leaf self_ns` line per distinct stack, ready for
//!   `flamegraph.pl` / inferno.
//! * [`prometheus`] — the Prometheus text exposition format for
//!   counters, gauges and histograms (cumulative `le` buckets).

use crate::hist::bucket_max;
use crate::json::{Layout, Writer};
use crate::{Snapshot, SpanNode};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;

/// Resolved view of one span for export: the node plus its effective
/// (closed) parent and clamped interval.
struct Closed<'a> {
    node: &'a SpanNode,
    start_ns: u64,
    end_ns: u64,
}

/// Effective parent of `node`: nearest ancestor that is *closed*, so
/// children of a leaked/open span re-attach instead of vanishing.
/// Returns 0 for top-level. `closed` maps id → index into `tree`.
fn effective_parent(tree: &[SpanNode], closed: &BTreeMap<u64, usize>, node: &SpanNode) -> u64 {
    let mut p = node.parent;
    let mut hops = 0;
    while p != 0 && !closed.contains_key(&p) {
        let Some(parent) = tree.get(p as usize - 1) else {
            return 0;
        };
        p = parent.parent;
        hops += 1;
        if hops > tree.len() {
            return 0; // defensive: a malformed cycle
        }
    }
    p
}

/// Closed spans with intervals clamped into their effective parent's
/// interval (chrome requires child B/E strictly inside the parent's),
/// plus a parent→children index. Children are visited in
/// `(start_ns, id)` order.
fn resolve(snap: &Snapshot) -> (Vec<Closed<'_>>, BTreeMap<u64, Vec<usize>>) {
    let closed_ids: BTreeMap<u64, usize> = snap
        .tree
        .iter()
        .enumerate()
        .filter(|(_, n)| n.dur_ns.is_some())
        .map(|(i, n)| (n.id, i))
        .collect();
    let mut spans: Vec<Closed<'_>> = Vec::with_capacity(closed_ids.len());
    let mut index_of: BTreeMap<u64, usize> = BTreeMap::new();
    let mut children: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    // Tree is in open order, so parents precede children and their
    // clamped intervals are available when the child is resolved.
    for (i, node) in snap.tree.iter().enumerate() {
        let Some(dur) = node.dur_ns else { continue };
        let _ = i;
        let parent = effective_parent(&snap.tree, &closed_ids, node);
        let (mut start, mut end) = (node.start_ns, node.start_ns.saturating_add(dur));
        if let Some(&pi) = index_of.get(&parent) {
            let p = &spans[pi];
            start = start.clamp(p.start_ns, p.end_ns);
            end = end.clamp(start, p.end_ns);
        }
        let slot = spans.len();
        spans.push(Closed {
            node,
            start_ns: start,
            end_ns: end,
        });
        index_of.insert(node.id, slot);
        children.entry(parent).or_default().push(slot);
    }
    for kids in children.values_mut() {
        kids.sort_by_key(|&i| (spans[i].start_ns, spans[i].node.id));
    }
    (spans, children)
}

/// Renders the span tree as chrome://tracing "trace event" JSON.
///
/// Every closed span becomes a `B`/`E` pair with `ts` in microseconds
/// since the recorder's epoch. Pairs are emitted by recursing over the
/// tree (begin, children, end) so nesting is well-formed by
/// construction; child intervals are clamped into their parent's.
/// Open (unclosed) spans are skipped, with their closed descendants
/// re-parented to the nearest closed ancestor. Load the file directly
/// in `chrome://tracing` or [ui.perfetto.dev](https://ui.perfetto.dev).
pub fn chrome_trace(snap: &Snapshot) -> String {
    let (spans, children) = resolve(snap);
    let emit = |w: &mut Writer, s: &Closed<'_>, ph: &str, ts_ns: u64| {
        w.obj(Layout::Inline, |w| {
            w.key("name").str(&s.node.name);
            w.key("cat").str("dm").key("ph").str(ph);
            w.key("ts").f64_fixed(ts_ns as f64 / 1e3, 3);
            w.key("pid").u64(1).key("tid").u64(s.node.tid.into());
        });
    };
    let mut w = Writer::new();
    w.obj(Layout::Inline, |w| {
        w.key("displayTimeUnit").str("ms");
        w.key("traceEvents").arr(Layout::Block, |w| {
            // Depth-first over roots; an explicit stack of (slot,
            // next-child) keeps B/E strictly balanced per thread lane.
            let mut stack: Vec<(usize, usize)> = Vec::new();
            for &root in children.get(&0).map(Vec::as_slice).unwrap_or(&[]) {
                stack.push((root, 0));
                emit(w, &spans[root], "B", spans[root].start_ns);
                while let Some(&mut (slot, ref mut next)) = stack.last_mut() {
                    let kids = children
                        .get(&spans[slot].node.id)
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    if *next < kids.len() {
                        let child = kids[*next];
                        *next += 1;
                        stack.push((child, 0));
                        emit(w, &spans[child], "B", spans[child].start_ns);
                    } else {
                        emit(w, &spans[slot], "E", spans[slot].end_ns);
                        stack.pop();
                    }
                }
            }
        });
    });
    w.finish()
}

/// Renders the span tree as folded-stack lines for flamegraph tools:
/// one `root;child;leaf <self_ns>` line per distinct stack, aggregated,
/// in lexicographic stack order. Self time is the span's duration minus
/// its closed children's (clamped) durations.
pub fn folded_stacks(snap: &Snapshot) -> String {
    let (spans, children) = resolve(snap);
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    // (slot, path-so-far)
    let mut stack: Vec<(usize, String)> = children
        .get(&0)
        .map(Vec::as_slice)
        .unwrap_or(&[])
        .iter()
        .map(|&slot| (slot, spans[slot].node.name.clone()))
        .collect();
    while let Some((slot, path)) = stack.pop() {
        let s = &spans[slot];
        let total = s.end_ns - s.start_ns;
        let mut child_ns = 0u64;
        for &c in children.get(&s.node.id).map(Vec::as_slice).unwrap_or(&[]) {
            child_ns = child_ns.saturating_add(spans[c].end_ns - spans[c].start_ns);
            stack.push((c, format!("{path};{}", spans[c].node.name)));
        }
        let self_ns = total.saturating_sub(child_ns);
        if self_ns > 0 {
            let sum = folded.entry(path).or_insert(0);
            *sum = sum.saturating_add(self_ns);
        }
    }
    let mut out = String::new();
    for (path, ns) in folded {
        let _ = writeln!(out, "{path} {ns}");
    }
    out
}

/// Sanitizes a metric name for Prometheus: `[a-zA-Z0-9_]` kept,
/// everything else becomes `_`, and a leading digit gets a `_` prefix.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v:?}")
    }
}

/// Renders counters, gauges and histograms in the Prometheus text
/// exposition format (version 0.0.4).
///
/// Histograms use cumulative `le` buckets with bounds `2^i - 1` — the
/// inclusive upper edge of each power-of-two bucket, so integer
/// semantics are exact — plus `+Inf`, `_sum` and `_count` series.
/// Buckets that carry an exemplar (a traced observation, see
/// [`crate::Recorder::value_traced`]) append it in OpenMetrics
/// exemplar syntax: `… {cum} # {trace_id="<16 hex>"} <value>`.
/// Distinct dotted names that sanitize to the same Prometheus name are
/// emitted once (first in sorted order wins).
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut seen: HashSet<String> = HashSet::new();
    for (name, &v) in &snap.counters {
        let n = prom_name(name);
        if !seen.insert(n.clone()) {
            continue;
        }
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, &v) in &snap.gauges {
        let n = prom_name(name);
        if !seen.insert(n.clone()) {
            continue;
        }
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {}", prom_f64(v));
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        if !seen.insert(n.clone()) {
            continue;
        }
        let exemplars = snap.exemplars.get(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cum = 0u64;
        for (bucket, count) in h.nonzero_buckets() {
            cum += count;
            let _ = write!(out, "{n}_bucket{{le=\"{}\"}} {cum}", bucket_max(bucket));
            if let Some(e) = exemplars.and_then(|m| m.get(&bucket)) {
                let _ = write!(out, " # {{trace_id=\"{:016x}\"}} {}", e.trace_id, e.value);
            }
            out.push('\n');
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryRecorder, Obs, Recorder, SpanId};

    fn sample() -> Snapshot {
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.counter("assoc.apriori.passes", 2);
        obs.gauge("assoc.mem.db_bytes", 1024.0);
        obs.value("par.shard.items", 100);
        obs.value("par.shard.items", 900);
        let mut snap = rec.snapshot();
        // The span tree is built by hand: start offsets from a live
        // recorder come from the clock, and `resolve` clamps children
        // into their parent's interval, so a recorded fixture's folded
        // output would depend on scheduling.
        let node = |id, parent, name: &str, start_ns, dur_ns| SpanNode {
            id,
            parent,
            name: name.into(),
            tid: 0,
            start_ns,
            dur_ns: Some(dur_ns),
        };
        snap.tree = vec![
            node(1, 0, "experiment.e1", 0, 900),
            node(2, 1, "assoc.apriori.pass1", 100, 300),
            node(3, 2, "par.shard0", 150, 100),
            node(4, 1, "assoc.apriori.pass2", 500, 200),
        ];
        snap
    }

    #[test]
    fn chrome_trace_has_balanced_nested_pairs() {
        let json = chrome_trace(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        let b = json.matches("\"ph\": \"B\"").count();
        let e = json.matches("\"ph\": \"E\"").count();
        assert_eq!(b, 4);
        assert_eq!(b, e);
        // Recursion order: experiment B, pass1 B, shard B/E, pass1 E,
        // pass2 B/E, experiment E.
        let pos = |pat: &str| json.find(pat).unwrap();
        assert!(pos("experiment.e1") < pos("assoc.apriori.pass1"));
        assert!(pos("assoc.apriori.pass1") < pos("par.shard0"));
    }

    #[test]
    fn chrome_trace_skips_open_spans_and_reparents() {
        let rec = InMemoryRecorder::new();
        // Open a parent, close only the child: the child must survive
        // as a top-level pair.
        let parent = rec.span_begin("leaked", SpanId::ROOT);
        let child = rec.span_begin("kept", parent);
        rec.span_end(child, "kept", 500);
        let json = chrome_trace(&rec.snapshot());
        assert!(!json.contains("leaked"));
        assert_eq!(json.matches("kept").count(), 2, "B and E for the child");
    }

    /// The trace-event contract, checked structurally: every `E` event
    /// closes the most recent unclosed `B` *of the same name on the
    /// same tid* — including when worker spans land on their own thread
    /// lanes via the explicit parent handoff.
    #[test]
    fn chrome_trace_every_end_matches_an_earlier_begin() {
        let rec = std::sync::Arc::new(InMemoryRecorder::new());
        let parent = rec.span_begin("experiment.e1", SpanId::ROOT);
        let pass = rec.span_begin("assoc.apriori.pass2", parent);
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    let name = format!("par.shard{w}");
                    let id = rec.span_begin(&name, pass);
                    rec.span_end(id, &name, 1_000 + w);
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        rec.span_end(pass, "assoc.apriori.pass2", 5_000);
        rec.span_end(parent, "experiment.e1", 9_000);

        let json = chrome_trace(&rec.snapshot());
        let mut stacks: std::collections::HashMap<String, Vec<String>> =
            std::collections::HashMap::new();
        let field = |line: &str, key: &str| -> String {
            let (_, rest) = line.split_once(&format!("\"{key}\": ")).unwrap();
            rest.trim_start_matches('"')
                .split(['"', ',', '}'])
                .next()
                .unwrap()
                .to_owned()
        };
        let mut events = 0;
        for line in json.lines().filter(|l| l.contains("\"ph\"")) {
            events += 1;
            let (name, ph, tid) = (field(line, "name"), field(line, "ph"), field(line, "tid"));
            match ph.as_str() {
                "B" => stacks.entry(tid).or_default().push(name),
                "E" => {
                    let top = stacks.get_mut(&tid).and_then(Vec::pop);
                    assert_eq!(top.as_deref(), Some(name.as_str()), "E without matching B");
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(events, 8, "4 spans, one B/E pair each");
        assert!(
            stacks.values().all(Vec::is_empty),
            "unclosed B events remain: {stacks:?}"
        );
    }

    #[test]
    fn folded_stacks_aggregate_self_time() {
        let out = folded_stacks(&sample());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines.iter().all(|l| l.rsplit_once(' ').is_some()));
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("experiment.e1;assoc.apriori.pass1;par.shard0 ")),
            "full stack path present: {out}"
        );
        // Values parse as integers.
        for l in &lines {
            let (_, v) = l.rsplit_once(' ').unwrap();
            v.parse::<u64>().unwrap();
        }
        // Self time is duration minus children: 900 - 300 - 200 at the
        // root, 300 - 100 in pass 1.
        assert_eq!(
            lines,
            [
                "experiment.e1 400",
                "experiment.e1;assoc.apriori.pass1 200",
                "experiment.e1;assoc.apriori.pass1;par.shard0 100",
                "experiment.e1;assoc.apriori.pass2 200",
            ]
        );
    }

    #[test]
    fn prometheus_emits_all_series_types() {
        let out = prometheus(&sample());
        assert!(out.contains("# TYPE assoc_apriori_passes counter\nassoc_apriori_passes 2\n"));
        assert!(out.contains("# TYPE assoc_mem_db_bytes gauge\nassoc_mem_db_bytes 1024.0\n"));
        assert!(out.contains("# TYPE par_shard_items histogram"));
        // 100 lands in bucket 7 (le 127), 900 in bucket 10 (le 1023).
        assert!(out.contains("par_shard_items_bucket{le=\"127\"} 1\n"));
        assert!(out.contains("par_shard_items_bucket{le=\"1023\"} 2\n"));
        assert!(out.contains("par_shard_items_bucket{le=\"+Inf\"} 2\n"));
        assert!(out.contains("par_shard_items_sum 1000\n"));
        assert!(out.contains("par_shard_items_count 2\n"));
    }

    /// Asserts one exposition line is well-formed, including the
    /// optional OpenMetrics exemplar suffix on bucket lines.
    fn lint_line(line: &str) {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap();
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
            assert!(matches!(
                parts.next(),
                Some("counter" | "gauge" | "histogram")
            ));
            return;
        }
        // Split off an exemplar suffix: `<series> <value> # {trace_id="…"} <exemplar-value>`
        let series_part = match line.split_once(" # ") {
            Some((series, exemplar)) => {
                let rest = exemplar
                    .strip_prefix("{trace_id=\"")
                    .unwrap_or_else(|| panic!("bad exemplar labels in {line}"));
                let (id, rest) = rest.split_once("\"} ").expect("unterminated exemplar");
                assert_eq!(id.len(), 16, "trace_id is 16 hex digits in {line}");
                assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
                rest.parse::<f64>().expect("exemplar value parses");
                series
            }
            None => line,
        };
        let (series, value) = series_part.rsplit_once(' ').unwrap();
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "bad value in {line}"
        );
        let name = series.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad series name in {line}"
        );
    }

    #[test]
    fn prometheus_lint_every_line_well_formed() {
        for line in prometheus(&sample()).lines() {
            lint_line(line);
        }
    }

    #[test]
    fn prometheus_buckets_carry_exemplars() {
        use crate::TraceId;
        let rec = InMemoryRecorder::new();
        let obs = Obs::new(&rec);
        obs.value_traced("serve.latency.predict_ns", 100, TraceId(0xDEAD_BEEF));
        obs.value_traced("serve.latency.predict_ns", 900, TraceId(0xFEED));
        let out = prometheus(&rec.snapshot());
        assert!(
            out.contains(
                "serve_latency_predict_ns_bucket{le=\"127\"} 1 # {trace_id=\"00000000deadbeef\"} 100"
            ),
            "{out}"
        );
        assert!(
            out.contains(
                "serve_latency_predict_ns_bucket{le=\"1023\"} 2 # {trace_id=\"000000000000feed\"} 900"
            ),
            "{out}"
        );
        // +Inf / _sum / _count never carry exemplars.
        assert!(out.contains("serve_latency_predict_ns_bucket{le=\"+Inf\"} 2\n"));
        for line in out.lines() {
            lint_line(line);
        }
    }
}
