//! Integration: `pimalign --metrics` — the stable JSON metrics document.
//!
//! The schema is a published interface (`benchdiff` and external
//! dashboards consume it), so beyond the semantic checks a golden file
//! (`tests/golden/metrics_schema.txt`) pins the exact set of leaf paths.
//! A failing golden test means the schema changed: bump
//! `METRICS_SCHEMA_VERSION`, regenerate the golden file (the failure
//! message says how) and update the consumers.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use bench::json::{self, Value};

/// Per-call suffix for temp paths: the tests in this file run in
/// parallel in one process, so the pid alone would let one test delete
/// another's files.
static RUN_ID: AtomicUsize = AtomicUsize::new(0);

fn write_temp(name: &str, run: usize, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "pimalign_metrics_{name}_{}_{run}",
        std::process::id()
    ));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

/// Runs the CLI over a tiny FASTA/FASTQ pair with `--metrics` and
/// returns the parsed metrics document.
fn run_with_metrics(extra: &[&str]) -> Value {
    let run = RUN_ID.fetch_add(1, Ordering::Relaxed);
    let reference = write_temp(
        "ref.fa",
        run,
        ">chrT test\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n",
    );
    let reads = write_temp(
        "reads.fq",
        run,
        "@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@mismatch\nGGAACGTACGTTAGCATCGAAC\n+\nIIIIIIIIIIIIIIIIIIIIII\n",
    );
    let metrics = write_temp("out.json", run, "");
    let mut args = vec![
        reference.to_str().unwrap().to_owned(),
        reads.to_str().unwrap().to_owned(),
        "--metrics".to_owned(),
        metrics.to_str().unwrap().to_owned(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_owned()));
    let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args(&args)
        .output()
        .expect("run pimalign");
    assert!(
        out.status.success(),
        "CLI failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("invalid metrics JSON: {e}\n{text}"));
    std::fs::remove_file(reference).ok();
    std::fs::remove_file(reads).ok();
    std::fs::remove_file(metrics).ok();
    doc
}

fn as_u64(doc: &Value, path: &str) -> u64 {
    doc.get(path)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing or non-integer {path}"))
}

#[test]
fn metrics_json_is_valid_and_reconciles() {
    let doc = run_with_metrics(&["--pipelined"]);

    assert_eq!(as_u64(&doc, "schema_version"), 7);

    // v7: the obs section mirrors drain-time observability scalars. A
    // CLI run never starts the service plane, so everything is zero and
    // the slow-request log is empty — but the section (and therefore
    // the schema) is identical for daemon and CLI runs.
    assert_eq!(as_u64(&doc, "obs.watchdog_stalls"), 0);
    assert_eq!(as_u64(&doc, "obs.buckets_retired"), 0);
    assert_eq!(as_u64(&doc, "obs.window_secs"), 0);

    // v6: the rank-checkpoint cache section is present and internally
    // consistent. Every session runs the cache on its exact stage, so
    // an aligning run records lookups; the hit counters are host-side
    // observability and never perturb the simulated totals checked
    // below.
    let hits = as_u64(&doc, "breakdown.kernel_cache.hits");
    let misses = as_u64(&doc, "breakdown.kernel_cache.misses");
    assert!(
        hits + misses > 0,
        "the exact stage must record cache lookups"
    );
    let hit_rate = doc
        .get("breakdown.kernel_cache.hit_rate")
        .and_then(Value::as_f64)
        .expect("hit_rate");
    let expected_rate = hits as f64 / (hits + misses) as f64;
    assert!(
        (hit_rate - expected_rate).abs() < 1e-5,
        "hit_rate {hit_rate} vs {expected_rate}"
    );

    // v4: the index section records how the platform's FM-index came to
    // be. A plain CLI run builds in-process: one shard, full SA, not
    // loaded, and the serialisable footprint agrees with the size model.
    assert_eq!(
        doc.get("index.loaded").and_then(Value::as_bool),
        Some(false),
        "a CLI FASTA run builds its index in-process"
    );
    assert_eq!(as_u64(&doc, "index.shards"), 1);
    assert_eq!(as_u64(&doc, "index.sa_rate"), 1);
    let actual_bytes = as_u64(&doc, "index.actual_bytes");
    assert!(actual_bytes > 0);
    assert_eq!(actual_bytes, as_u64(&doc, "index.model_bytes"));

    // A CLI run never touches the service plane; the always-on service
    // section must exist and be all-zero so dashboards get one schema
    // for daemon and CLI runs alike.
    assert_eq!(as_u64(&doc, "service.received"), 0);
    assert_eq!(as_u64(&doc, "service.deadline_misses"), 0);

    // The emitted counters reconcile: per-primitive cycles sum to the
    // ledger aggregate, and the report's LFM count matches the
    // breakdown's.
    let total = as_u64(&doc, "breakdown.total_busy_cycles");
    assert_eq!(as_u64(&doc, "breakdown.primitive_cycles_total"), total);
    assert!(total > 0);
    let prims = doc
        .get("breakdown.primitives")
        .and_then(Value::as_array)
        .expect("primitives array");
    assert_eq!(prims.len(), 8);
    let row_sum: u64 = prims
        .iter()
        .map(|p| {
            p.get("busy_cycles")
                .and_then(Value::as_u64)
                .expect("busy_cycles")
        })
        .sum();
    assert_eq!(row_sum, total);
    let resources = doc
        .get("breakdown.resources")
        .and_then(Value::as_array)
        .expect("resources array");
    assert_eq!(resources.len(), 4);
    let resource_sum: u64 = resources
        .iter()
        .map(|r| {
            r.get("busy_cycles")
                .and_then(Value::as_u64)
                .expect("busy_cycles")
        })
        .sum();
    assert_eq!(resource_sum, total);

    assert_eq!(
        as_u64(&doc, "report.lfm_calls"),
        as_u64(&doc, "breakdown.lfm_calls")
    );
    let phase_sum = as_u64(&doc, "breakdown.lfm_by_phase.exact")
        + as_u64(&doc, "breakdown.lfm_by_phase.inexact")
        + as_u64(&doc, "breakdown.lfm_by_phase.recovery_retry")
        + as_u64(&doc, "breakdown.lfm_by_phase.recovery_escalate");
    assert_eq!(phase_sum, as_u64(&doc, "breakdown.lfm_calls"));

    // Pipeline occupancy reflects the requested Pd=2 configuration.
    assert_eq!(as_u64(&doc, "breakdown.pipeline.pd"), 2);
    let adder_occ = doc
        .get("breakdown.pipeline.adder_occupancy_pct")
        .and_then(Value::as_f64)
        .expect("adder occupancy");
    assert!(
        (adder_occ - 100.0).abs() < 1e-6,
        "Pd=2 adder binds: {adder_occ}"
    );

    // Primitive names are the stable labels, in table order.
    let names: Vec<&str> = prims
        .iter()
        .map(|p| p.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(
        names,
        [
            "xnor_match",
            "popcount",
            "marker_read",
            "im_add32",
            "index_update",
            "sa_entry_read",
            "row_write",
            "row_read"
        ]
    );

    assert!(as_u64(&doc, "breakdown.index_build_cycles") > 0);
    assert!(as_u64(&doc, "breakdown.subarray_activations") > 0);

    // v2: the zone heatmap is a *view* of existing sub-array charges —
    // its total can never exceed the activation counter it attributes.
    let zones = as_u64(&doc, "breakdown.heatmap.zones");
    let activations = doc
        .get("breakdown.heatmap.activations")
        .and_then(Value::as_array)
        .expect("heatmap activations array");
    assert_eq!(activations.len() as u64, zones);
    let heat_total: u64 = activations.iter().filter_map(Value::as_u64).sum();
    assert!(heat_total > 0, "an aligning run must touch zones");
    assert!(heat_total <= as_u64(&doc, "breakdown.subarray_activations"));

    // v2: the host section exists, is structurally complete, and its
    // always-on per-read histogram counted both reads.
    assert_eq!(as_u64(&doc, "host.per_read_latency.count"), 2);
    assert!(as_u64(&doc, "host.wall_ns") > 0);
    let workers = doc
        .get("host.workers")
        .and_then(Value::as_array)
        .expect("host workers array");
    let worker_reads: u64 = workers
        .iter()
        .filter_map(|w| w.get("reads").and_then(Value::as_u64))
        .sum();
    assert_eq!(worker_reads, 2, "worker rows must account for every read");
    // No tracing flags were passed, so no host spans were collected —
    // and none were silently dropped.
    assert_eq!(as_u64(&doc, "host.trace_spans"), 0);
    assert_eq!(as_u64(&doc, "host.trace_spans_dropped"), 0);
}

#[test]
fn v1_fixture_still_parses_and_is_a_schema_subset() {
    // Back-compat: a consumer that reads v1 fields by name keeps working
    // on v2 documents. The committed v1 fixture (a pre-v2 CLI run over
    // this exact workload) must parse, and every v1 leaf path must still
    // exist in a fresh v2 document — v2 only *adds* paths.
    let fixture_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics_v1.json");
    let text = std::fs::read_to_string(fixture_path).expect("v1 fixture readable");
    let v1 = json::parse(&text).expect("v1 fixture parses");
    assert_eq!(as_u64(&v1, "schema_version"), 1);
    assert_eq!(as_u64(&v1, "report.queries"), 2);
    assert!(as_u64(&v1, "breakdown.total_busy_cycles") > 0);

    // The fixture predates the interleaved batch kernel, whose shared
    // plane loads legitimately charge fewer cycles; --kernel-batch 1 is
    // the single-read path the fixture recorded.
    let v2 = run_with_metrics(&["--kernel-batch", "1"]);
    let v2_paths = v2.schema_paths();
    for path in v1.schema_paths() {
        if path == "schema_version" {
            continue;
        }
        assert!(
            v2_paths.contains(&path),
            "v1 path {path} vanished from the v2 document — v2 must be a strict superset"
        );
    }

    // And on the shared workload the simulated quantities are unchanged:
    // adding host telemetry moved no simulated cycle.
    for path in [
        "report.queries",
        "report.lfm_calls",
        "breakdown.total_busy_cycles",
        "breakdown.primitive_cycles_total",
        "breakdown.subarray_activations",
        "breakdown.lfm_calls",
    ] {
        assert_eq!(
            v2.get(path).and_then(Value::as_u64),
            v1.get(path).and_then(Value::as_u64),
            "simulated quantity {path} drifted from the v1 fixture"
        );
    }
}

#[test]
fn metrics_schema_matches_golden_file() {
    let doc = run_with_metrics(&[]);
    let actual = doc.schema_paths().join("\n") + "\n";
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_schema.txt"
    );
    let golden = std::fs::read_to_string(golden_path)
        .unwrap_or_else(|e| panic!("cannot read {golden_path}: {e}"));
    assert_eq!(
        actual, golden,
        "metrics JSON schema drifted from tests/golden/metrics_schema.txt.\n\
         If the change is intentional, bump METRICS_SCHEMA_VERSION, update the\n\
         golden file to the `actual` value above, and update benchdiff/dashboards."
    );
}
