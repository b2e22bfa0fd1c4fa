//! The benchmark's fixed parameters, read from `workloads.json`: seeds,
//! genome size, per-workload input sizes and the open-loop rates. They
//! are fixed data, never re-derived per run.

use bench::json::{self, Value};

/// The parameter file, compiled in so the binary cannot run with a
/// different one than it was built with.
pub const WORKLOADS_JSON: &str = include_str!("../workloads.json");

/// Sizes of a batch workload (`exact_fwd`, `paper_reads`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchParams {
    /// Reads in the input set; a timed pass aligns all of them.
    pub reads_per_pass: usize,
    /// Reads per FASTQ chunk handed to the parallel engine.
    pub chunk_reads: usize,
}

/// The `serve_open` traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeParams {
    /// Distinct clean reads the requests cycle through.
    pub pool_reads: usize,
    /// Open-loop rate of the `light` phase, requests/s.
    pub light_rps: f64,
    /// Open-loop rate of the `busy` phase, requests/s.
    pub busy_rps: f64,
    /// Length of one round of light, busy and capacity phases, s; a run
    /// is `--seconds / round_s` rounds.
    pub round_s: f64,
    /// Share of a round the `light` phase runs.
    pub light_share: f64,
    /// Share of a round the `busy` phase runs.
    pub busy_share: f64,
    /// Requests outstanding in the closed-window capacity phase; below
    /// the queue depth, so nothing is shed.
    pub capacity_window: usize,
    /// Share of a round the capacity phase runs.
    pub capacity_share: f64,
    /// `Stats` scrapes per second on the second connection.
    pub scrape_hz: f64,
    /// The service's admission queue depth.
    pub queue_depth: usize,
    /// A run is invalid when the generator's p99 lag exceeds this, ms.
    pub max_lag_ms: f64,
}

/// All fixed parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// The default workload seed.
    pub default_seed: u64,
    /// The seed held out for later claim checks.
    pub held_out_seed: u64,
    /// Reference length, bp.
    pub genome_len: usize,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Figure-row reads aligned under `PimAlignerConfig::pipelined()` for
    /// the model-accuracy record (traced runs only).
    pub model_sample_reads: usize,
    /// `exact_fwd` sizes.
    pub exact: BatchParams,
    /// `paper_reads` sizes.
    pub paper: BatchParams,
    /// `serve_open` traffic.
    pub serve: ServeParams,
    /// End-to-end metrics as (name, unit), in output order.
    pub end_to_end: Vec<(String, String)>,
    /// Per-layer metrics as (name, unit), in output order.
    pub per_layer: Vec<(String, String)>,
}

fn num(doc: &Value, path: &str) -> f64 {
    doc.get(path)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("workloads.json: missing number {path}"))
}

fn count(doc: &Value, path: &str) -> usize {
    doc.get(path)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("workloads.json: missing count {path}")) as usize
}

/// The workload entry named `name`.
fn workload<'a>(doc: &'a Value, name: &str) -> &'a Value {
    doc.get("workloads")
        .and_then(Value::as_array)
        .and_then(|ws| {
            ws.iter()
                .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        })
        .unwrap_or_else(|| panic!("workloads.json: no workload {name}"))
}

fn metric_list(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("workloads.json: missing {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("workloads.json: {list} entry without {k}"))
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn batch(doc: &Value, name: &str) -> BatchParams {
    let w = workload(doc, name);
    BatchParams {
        reads_per_pass: count(w, "reads_per_pass"),
        chunk_reads: count(w, "chunk_reads"),
    }
}

impl Config {
    /// Parses a parameter document.
    ///
    /// # Panics
    ///
    /// Panics naming the field when one is missing: the file is part of
    /// the benchmark's source.
    pub fn parse(text: &str) -> Config {
        let doc = json::parse(text).unwrap_or_else(|e| panic!("workloads.json: {e}"));
        let s = workload(&doc, "serve_open");
        Config {
            default_seed: count(&doc, "seeds.default") as u64,
            held_out_seed: count(&doc, "seeds.held_out") as u64,
            genome_len: count(&doc, "genome_len"),
            setup_reps: count(&doc, "setup_reps"),
            model_sample_reads: count(&doc, "model_sample_reads"),
            exact: batch(&doc, "exact_fwd"),
            paper: batch(&doc, "paper_reads"),
            serve: ServeParams {
                pool_reads: count(s, "pool_reads"),
                light_rps: num(s, "light_rps"),
                busy_rps: num(s, "busy_rps"),
                round_s: num(s, "round_s"),
                light_share: num(s, "light_share"),
                busy_share: num(s, "busy_share"),
                capacity_window: count(s, "capacity_window"),
                capacity_share: num(s, "capacity_share"),
                scrape_hz: num(s, "scrape_hz"),
                queue_depth: count(s, "queue_depth"),
                max_lag_ms: num(s, "max_lag_ms"),
            },
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
        }
    }

    /// The compiled-in parameters.
    pub fn embedded() -> Config {
        Config::parse(WORKLOADS_JSON)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_parameters_parse_and_are_consistent() {
        let cfg = Config::embedded();
        assert!(cfg.serve.capacity_window < cfg.serve.queue_depth);
        assert!(cfg.serve.light_rps < cfg.serve.busy_rps);
        assert!(cfg.setup_reps >= 3);
        assert!(cfg.exact.chunk_reads <= cfg.exact.reads_per_pass);
        assert!(cfg.paper.chunk_reads <= cfg.paper.reads_per_pass);
    }

    /// The layer map and metric list here must match the benchmark
    /// definition at the repository root, name for name and unit for unit.
    #[test]
    fn layer_map_matches_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench_doc = json::parse_file(path).expect("BENCHMARK.json parses");
        let ours = json::parse(WORKLOADS_JSON).unwrap();
        for list in ["end_to_end", "per_layer"] {
            assert_eq!(
                metric_list(&ours, list),
                metric_list(&bench_doc, list),
                "{list}"
            );
        }
        let why = |doc: &Value| -> Vec<(String, String)> {
            doc.get("workloads")
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|w| {
                    let f = |k: &str| w.get(k).and_then(Value::as_str).unwrap().to_owned();
                    (f("name"), f("why"))
                })
                .collect()
        };
        assert_eq!(why(&ours), why(&bench_doc));
        // Every per-layer metric names the end-to-end metric it should
        // move and the workloads it is read on.
        let e2e: Vec<String> = metric_list(&ours, "end_to_end")
            .into_iter()
            .map(|n| n.0)
            .collect();
        let workloads: Vec<String> = why(&ours).into_iter().map(|w| w.0).collect();
        for m in ours.get("per_layer").and_then(Value::as_array).unwrap() {
            let name = m.get("name").and_then(Value::as_str).unwrap();
            let layer = m.get("layer").and_then(Value::as_str).unwrap_or("");
            assert!(!layer.is_empty(), "{name}: no layer");
            for (key, allowed) in [("moves", &e2e), ("on", &workloads)] {
                let list = m.get(key).and_then(Value::as_array).unwrap_or(&[]);
                assert!(!list.is_empty(), "{name}: no {key}");
                for v in list {
                    let v = v.as_str().unwrap();
                    assert!(allowed.iter().any(|a| a == v), "{name}: unknown {key} {v}");
                }
            }
        }
    }
}
