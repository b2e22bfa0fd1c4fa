//! In-memory spans for the traced run: the benchmark's own spans around
//! every public call it makes, plus the spans the program already emits,
//! linked into one tree and written out as a Chrome trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pimsim::HostSpan;

use crate::stats;

/// One span. `parent` links it to the span that caused it; `key` is the
/// id shared by every span of one read chunk or one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace, from 1.
    pub id: u64,
    /// The causing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `bioseq.parse` or `exact_batch`.
    pub name: String,
    /// Chrome-trace track (thread) id.
    pub track: u32,
    /// Shared id of the chunk or request the span belongs to.
    pub key: Option<u64>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// Time spent under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self time: duration minus what child spans cover.
    pub self_ns: u64,
}

/// A run's spans.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    tracks: BTreeMap<u32, String>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Labels a track in the Chrome trace.
    pub fn name_track(&mut self, track: u32, name: impl Into<String>) {
        self.tracks.insert(track, name.into());
    }

    /// Records a span and returns its id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        track: u32,
        parent: Option<u64>,
        key: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            track,
            key,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Closes span `id` at `end_ns` (for spans opened before their end
    /// was known).
    pub fn set_end(&mut self, id: u64, end_ns: u64) {
        let span = &mut self.spans[(id - 1) as usize];
        span.end_ns = end_ns.max(span.start_ns);
    }

    /// Imports spans the program emitted, which carry no parent links.
    /// Each is shifted by `offset_ns` onto this trace's clock and placed
    /// on track `track_base + tid`; its parent is the innermost span of
    /// the same program track that contains it, else `parent`; its key
    /// is `key(tid)`.
    pub fn import_host(
        &mut self,
        spans: &[HostSpan],
        offset_ns: u64,
        track_base: u32,
        parent: u64,
        key: impl Fn(u32) -> Option<u64>,
    ) {
        let mut by_track: BTreeMap<u32, Vec<&HostSpan>> = BTreeMap::new();
        for s in spans {
            by_track.entry(s.tid).or_default().push(s);
        }
        for (tid, mut list) in by_track {
            list.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.dur_ns)));
            let mut stack: Vec<(u64, u64)> = Vec::new(); // (id, end)
            for s in list {
                let start = s.start_ns + offset_ns;
                let end = start + s.dur_ns;
                while stack.last().is_some_and(|&(_, e)| e < end) {
                    stack.pop();
                }
                let p = stack.last().map_or(parent, |&(id, _)| id);
                let id = self.add(s.name, track_base + tid, Some(p), key(tid), start, end);
                stack.push((id, end));
            }
        }
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Count, total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<String, LayerTime> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += stats::self_ns(s.start_ns, s.end_ns, kids);
        }
        out
    }

    /// The self-time table: one row per span name, by self time.
    pub fn self_time_table(&self) -> String {
        let times = self.layer_times();
        let mut rows: Vec<(&String, &LayerTime)> = times.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        let all_self: u64 = rows.iter().map(|(_, t)| t.self_ns).sum();
        let mut out = format!(
            "{:<28} {:>9} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "self_%"
        );
        for (name, t) in rows {
            let _ = writeln!(
                out,
                "{:<28} {:>9} {:>12.3} {:>12.3} {:>7.2}",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                100.0 * t.self_ns as f64 / all_self.max(1) as f64
            );
        }
        out
    }

    /// The trace in Chrome trace-event JSON (loads in Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
        };
        for (tid, name) in &self.tracks {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}"
            );
        }
        for s in &self.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
                s.name,
                s.track,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(k) = s.key {
                let _ = write!(out, ",\"key\":{k}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(name: &'static str, tid: u32, start_ns: u64, dur_ns: u64) -> HostSpan {
        HostSpan {
            name,
            tid,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn imported_spans_nest_by_containment_per_track() {
        let mut t = Trace::new();
        let call = t.add("parallel.align", 0, None, None, 0, 1_000);
        t.import_host(
            &[
                host("chunk", 0, 100, 500),
                host("exact_batch", 0, 110, 100),
                host("locate", 0, 250, 50),
                host("chunk", 1, 100, 800),
                host("inexact_pass", 1, 200, 300),
            ],
            0,
            10,
            call,
            |_| None,
        );
        let by_name = |n: &str, track: u32| {
            t.spans()
                .iter()
                .find(|s| s.name == n && s.track == track)
                .unwrap()
                .clone()
        };
        let chunk0 = by_name("chunk", 10);
        assert_eq!(chunk0.parent, Some(call));
        assert_eq!(by_name("exact_batch", 10).parent, Some(chunk0.id));
        assert_eq!(by_name("locate", 10).parent, Some(chunk0.id));
        assert_eq!(
            by_name("inexact_pass", 11).parent,
            Some(by_name("chunk", 11).id)
        );
        let times = t.layer_times();
        // chunk 0: 500 - (100 + 50); chunk 1: 800 - 300.
        assert_eq!(times["chunk"].self_ns, 350 + 500);
        // The call is covered by the union of both worker chunks [100, 900).
        assert_eq!(times["parallel.align"].self_ns, 200);
        assert_eq!(times["exact_batch"].count, 1);
    }

    #[test]
    fn chrome_json_carries_parent_and_key() {
        let mut t = Trace::new();
        t.name_track(0, "main");
        let root = t.add("run", 0, None, None, 0, 10_000);
        t.add("request", 0, Some(root), Some(7), 1_000, 2_000);
        let json = t.chrome_json();
        let doc = bench::json::parse(&json).expect("well-formed JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 3);
        let req = &events[2];
        assert_eq!(req.get("args.parent").unwrap().as_u64(), Some(root));
        assert_eq!(req.get("args.key").unwrap().as_u64(), Some(7));
        assert!(t.self_time_table().contains("request"));
    }
}
