//! Integration: the `pimalign` CLI end to end — FASTA + FASTQ in, SAM
//! out.

use std::process::Command;

use bench::json::{self, Value};

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("pimalign_test_{name}_{}", std::process::id()));
    std::fs::write(&path, contents).expect("write temp file");
    path
}

fn run_cli(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args(args)
        .output()
        .expect("run pimalign");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
        out.status.success(),
    )
}

#[test]
fn aligns_reads_and_emits_valid_sam() {
    let reference = write_temp(
        "ref.fa",
        ">chrT test\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n",
    );
    let reads = write_temp(
        "reads.fq",
        "@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@revcomp\nCGTTCCAAGGTTCA\n+\nIIIIIIIIIIIIII\n@junk\nGGGGGGGGGGGGGG\n+\nIIIIIIIIIIIIII\n",
    );
    let (stdout, stderr, ok) = run_cli(&[
        reference.to_str().unwrap(),
        reads.to_str().unwrap(),
        "--pipelined",
    ]);
    assert!(ok, "CLI failed: {stderr}");

    let lines: Vec<&str> = stdout.lines().collect();
    // Header: @HD, @SQ, @PG.
    assert!(lines[0].starts_with("@HD"));
    assert!(lines[1].contains("SN:chrT") && lines[1].contains("LN:56"));
    assert!(lines[2].starts_with("@PG"));

    // One alignment line per read, tab-separated with >= 11 fields.
    let records: Vec<&str> = lines
        .iter()
        .filter(|l| !l.starts_with('@'))
        .copied()
        .collect();
    assert_eq!(records.len(), 3);
    for r in &records {
        assert!(r.split('\t').count() >= 11, "short SAM line: {r}");
    }
    let exact = records.iter().find(|r| r.starts_with("exact")).unwrap();
    let fields: Vec<&str> = exact.split('\t').collect();
    assert_eq!(fields[1], "0");
    assert_eq!(fields[2], "chrT");
    assert_eq!(fields[4], "60");
    assert_eq!(fields[5], "14M");
    let rev = records.iter().find(|r| r.starts_with("revcomp")).unwrap();
    assert_eq!(rev.split('\t').nth(1), Some("16"));
    let junk = records.iter().find(|r| r.starts_with("junk")).unwrap();
    assert_eq!(junk.split('\t').nth(1), Some("4"));
    assert_eq!(junk.split('\t').nth(2), Some("*"));

    // The performance report lands on stderr.
    assert!(stderr.contains("queries/s"));
    assert!(stderr.contains("2 mapped"));

    std::fs::remove_file(reference).ok();
    std::fs::remove_file(reads).ok();
}

#[test]
fn reverse_mapped_seq_is_the_reference_window() {
    // A 0x10 record's SEQ/QUAL are stored in reference orientation: the
    // emitted SEQ must equal the reference window at POS, and QUAL must
    // be the read's qualities reversed (regression: the pre-fix writer
    // emitted the read as sequenced).
    let ref_seq = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
    let reference = write_temp("rev_ref.fa", &format!(">chrT\n{ref_seq}\n"));
    // Reverse complement of reference[8..22], with an asymmetric quality
    // ramp so a missing reversal is visible.
    let reads = write_temp(
        "rev_reads.fq",
        "@revcomp\nCGTTCCAAGGTTCA\n+\nABCDEFGHIJKLMN\n",
    );
    let (stdout, stderr, ok) = run_cli(&[reference.to_str().unwrap(), reads.to_str().unwrap()]);
    assert!(ok, "CLI failed: {stderr}");
    let record = stdout
        .lines()
        .find(|l| l.starts_with("revcomp"))
        .expect("revcomp record");
    let fields: Vec<&str> = record.split('\t').collect();
    assert_eq!(fields[1], "16", "read must map on the reverse strand");
    let pos: usize = fields[3].parse().expect("POS");
    let seq = fields[9];
    let window = &ref_seq[pos - 1..pos - 1 + seq.len()];
    assert_eq!(seq, window, "0x10 SEQ must equal the reference window");
    assert_eq!(
        fields[10], "NMLKJIHGFEDCBA",
        "0x10 QUAL must be the read's qualities reversed"
    );

    std::fs::remove_file(reference).ok();
    std::fs::remove_file(reads).ok();
}

#[test]
fn streamed_chunks_match_single_batch() {
    // --batch-size only bounds memory: the SAM output must be identical
    // whether the reads stream through in chunks of 1 or in one batch,
    // with single or multiple worker threads.
    let ref_seq = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
    let reference = write_temp("chunk_ref.fa", &format!(">chrT\n{ref_seq}\n"));
    let reads = write_temp(
        "chunk_reads.fq",
        "@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@revcomp\nCGTTCCAAGGTTCA\n+\nIIIIIIIIIIIIII\n@junk\nGGGGGGGGGGGGGG\n+\nIIIIIIIIIIIIII\n@tail\nTGCTAGCATG\n+\nIIIIIIIIII\n",
    );
    let base = [reference.to_str().unwrap(), reads.to_str().unwrap()];
    let (whole, stderr, ok) = run_cli(&base);
    assert!(ok, "CLI failed: {stderr}");
    for extra in [
        &["--batch-size", "1"][..],
        &["--batch-size", "3"][..],
        &["--batch-size", "1", "--threads", "3"][..],
        &["--threads", "2"][..],
    ] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend_from_slice(extra);
        let (stdout, stderr, ok) = run_cli(&args);
        assert!(ok, "CLI failed with {extra:?}: {stderr}");
        assert_eq!(stdout, whole, "SAM output diverged with {extra:?}");
        assert!(
            stderr.contains("3 mapped"),
            "stderr with {extra:?}: {stderr}"
        );
    }

    std::fs::remove_file(reference).ok();
    std::fs::remove_file(reads).ok();
}

#[test]
fn telemetry_flags_never_touch_the_sam_stream() {
    // --metrics-out and --trace-out write their JSON to files, so stdout
    // stays pure SAM; and collecting host telemetry must not move a
    // single simulated cycle — the metrics `report`/`breakdown` sections
    // are value-identical with and without the trace flags.
    let ref_seq = "TGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG";
    let reference = write_temp("telem_ref.fa", &format!(">chrT\n{ref_seq}\n"));
    let reads = write_temp(
        "telem_reads.fq",
        "@exact\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@revcomp\nCGTTCCAAGGTTCA\n+\nIIIIIIIIIIIIII\n",
    );
    let metrics_old = write_temp("telem_m_old.json", "");
    let metrics_new = write_temp("telem_m_new.json", "");
    let trace = write_temp("telem_trace.json", "");
    let base = [reference.to_str().unwrap(), reads.to_str().unwrap()];

    let (sam_plain, stderr, ok) = run_cli(&base);
    assert!(ok, "plain run failed: {stderr}");

    // Back-compat flag: --metrics still writes the document.
    let mut old_args: Vec<&str> = base.to_vec();
    old_args.extend_from_slice(&["--metrics", metrics_old.to_str().unwrap()]);
    let (sam_old, stderr, ok) = run_cli(&old_args);
    assert!(ok, "--metrics run failed: {stderr}");
    assert_eq!(sam_old, sam_plain, "--metrics changed the SAM stream");

    // New flags: --metrics-out + --trace-out, with tracing live.
    let mut new_args: Vec<&str> = base.to_vec();
    new_args.extend_from_slice(&[
        "--metrics-out",
        metrics_new.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    let (sam_new, stderr, ok) = run_cli(&new_args);
    assert!(ok, "--metrics-out/--trace-out run failed: {stderr}");
    assert_eq!(sam_new, sam_plain, "telemetry flags changed the SAM stream");

    let doc_old = json::parse(&std::fs::read_to_string(&metrics_old).unwrap())
        .expect("--metrics JSON parses");
    let doc_new = json::parse(&std::fs::read_to_string(&metrics_new).unwrap())
        .expect("--metrics-out JSON parses");
    // The simulated sections are value-identical across flag shapes —
    // only the wall-clock `host` section may differ.
    for section in ["schema_version", "report", "faults", "breakdown"] {
        assert_eq!(
            doc_old.get(section),
            doc_new.get(section),
            "simulated section {section} diverged under tracing"
        );
    }

    // The trace file is a loadable Chrome trace with spans.
    let trace_doc =
        json::parse(&std::fs::read_to_string(&trace).unwrap()).expect("trace JSON parses");
    assert_eq!(
        trace_doc.get("displayTimeUnit").and_then(Value::as_str),
        Some("ms")
    );
    let events = trace_doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").and_then(Value::as_str) == Some("X")),
        "trace has no complete spans"
    );
    // One named track per worker plus the main thread's.
    for want in ["worker-0", "worker-1", "main"] {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(Value::as_str) == Some("M")
                    && e.get("args.name").and_then(Value::as_str) == Some(want)
            }),
            "missing {want} track"
        );
    }

    for f in [reference, reads, metrics_old, metrics_new, trace] {
        std::fs::remove_file(f).ok();
    }
}

/// Like [`run_cli`] but returns the exact exit code — the CLI's error
/// classes are part of its interface (usage = 2, input = 3, runtime = 4).
fn run_cli_code(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args(args)
        .output()
        .expect("run pimalign");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

#[test]
fn rejects_bad_usage() {
    let (_, stderr, ok) = run_cli(&["only-one-arg"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));

    let (_, stderr, ok) = run_cli(&["a", "b", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown option"));
}

#[test]
fn usage_errors_exit_2_with_named_flags() {
    for (args, needle) in [
        (&["only-one-arg"][..], "usage"),
        (&["a", "b", "--bogus"][..], "unknown option"),
        (&["a", "b", "--threads", "0"][..], "--threads"),
        (&["a", "b", "--batch-size", "0"][..], "--batch-size"),
        (&["a", "b", "--pd", "0"][..], "--pd"),
        (&["a", "b", "--max-diffs", "99"][..], "--max-diffs"),
        (&["a", "b", "--kernel-simd", "auto"][..], "unknown option"),
        (&["a", "b", "--kernel-batch", "0"][..], "--kernel-batch"),
    ] {
        let (code, stderr) = run_cli_code(args);
        assert_eq!(code, 2, "{args:?} must exit 2 (usage), stderr: {stderr}");
        assert!(stderr.contains(needle), "{args:?} stderr: {stderr}");
    }
}

#[test]
fn rejects_missing_files() {
    let (_, stderr, ok) = run_cli(&["/nonexistent/ref.fa", "/nonexistent/reads.fq"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn input_errors_exit_3() {
    let (code, stderr) = run_cli_code(&["/nonexistent/ref.fa", "/nonexistent/reads.fq"]);
    assert_eq!(
        code, 3,
        "missing files must exit 3 (input), stderr: {stderr}"
    );
    assert!(stderr.contains("cannot read"));
}

#[test]
fn truncated_fastq_exit_3_names_record_and_offset() {
    // The second record is cut off mid-way: the error must carry the
    // 1-based record number and the byte offset of its header so the
    // user can seek straight to the corruption in a multi-gigabyte file.
    let reference = write_temp(
        "trunc_ref.fa",
        ">chrT\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n",
    );
    let reads = write_temp(
        "trunc_reads.fq",
        "@ok\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n@cut\nGATTACA\n",
    );
    let (code, stderr) = run_cli_code(&[reference.to_str().unwrap(), reads.to_str().unwrap()]);
    assert_eq!(code, 3, "truncated FASTQ must exit 3, stderr: {stderr}");
    assert!(stderr.contains("record 2"), "stderr: {stderr}");
    assert!(stderr.contains("byte offset 36"), "stderr: {stderr}");

    std::fs::remove_file(reference).ok();
    std::fs::remove_file(reads).ok();
}

#[test]
fn closed_stdout_is_a_clean_early_exit() {
    // `pimalign ... | head` closes our stdout after the first lines; the
    // resulting EPIPE must be a silent exit 0, not a runtime error.
    // Enough reads that the BufWriter flushes to the dead pipe mid-run.
    let reference = write_temp(
        "epipe_ref.fa",
        ">chrT\nTGCTAGCATGAACCTTGGAACGTACGTTAGCATCGATCGGATTACAGATTACAGGG\n",
    );
    let mut fastq = String::new();
    for i in 0..400 {
        fastq.push_str(&format!("@r{i}\nGATTACAGATTACA\n+\nIIIIIIIIIIIIII\n"));
    }
    let reads = write_temp("epipe_reads.fq", &fastq);

    let mut child = Command::new(env!("CARGO_BIN_EXE_pimalign"))
        .args([reference.to_str().unwrap(), reads.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn pimalign");
    // Close the read end immediately: every SAM flush past the pipe
    // buffer now raises EPIPE/BrokenPipe inside the CLI.
    drop(child.stdout.take());
    let status = child.wait().expect("wait for pimalign");
    assert_eq!(
        status.code(),
        Some(0),
        "a closed SAM pipe must be a clean exit, not an error"
    );

    std::fs::remove_file(reference).ok();
    std::fs::remove_file(reads).ok();
}
