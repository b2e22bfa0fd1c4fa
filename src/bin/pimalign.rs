//! `pimalign` — command-line short-read aligner on the simulated
//! PIM-Aligner platform.
//!
//! ```text
//! pimalign <reference.fasta> <reads.fastq> [options] > out.sam
//! pimalign --index <artifact> <reads.fastq> [options] > out.sam
//! pimalign index build <reference.fasta> <artifact> [index options]
//! pimalign index inspect <artifact>
//!
//! options:
//!   --index <PATH>        boot the platform from a serialised index
//!                         artifact instead of rebuilding from FASTA
//!                         (the reference comes from the artifact, so no
//!                         reference.fasta positional is given)
//!   --index-memory-budget <BYTES>
//!                         build the in-process index with the densest
//!                         suffix-array sampling rate whose modelled
//!                         footprint fits (suffixes K/M/G = KiB/MiB/GiB)
//!   --pipelined           use PIM-Aligner-p (Pd = 2) instead of the baseline
//!   --pd <N>              parallelism degree (implies method-II for N >= 2)
//!   --max-diffs <Z>       inexact-stage difference budget (default 2, max 8)
//!   --no-indels           substitutions only in the inexact stage
//!   --single-strand       skip the reverse-complement retry
//!   --threads <N>         host worker threads for the batch (default 1)
//!   --batch-size <N>      reads aligned per streamed chunk (default 4096)
//!   --kernel-batch <N>    reads interleaved per LFM kernel batch
//!                         (default 8; 1 = single-read kernel path)
//!   --fault-seed <S>      seed for the fault-injection campaign
//!   --fault-xnor <P>      per-bit XNOR sense-misread probability
//!   --fault-stuck <R>     stuck-at cell rate in the data zones
//!   --fault-transient <R> transient row-read fault rate per marker read
//!   --fault-carry <P>     IM_ADD carry-chain fault probability per add
//!   --no-recover          disable verify-and-recover under fault injection
//!   --metrics <PATH>      write the per-primitive cycle breakdown as JSON
//!   --metrics-out <PATH>  same document, alias kept distinct from --metrics
//!   --trace-out <PATH>    write a Chrome trace-event JSON (wall-clock spans,
//!                         one track per worker; open in Perfetto)
//!   --progress            stream reads/s + ETA to stderr while aligning
//!
//! index options (for `pimalign index build`):
//!   --sa-rate <N>         keep every N-th suffix-array entry (default 1 = full)
//!   --index-memory-budget <BYTES>
//!                         pick the densest rate fitting BYTES instead
//!   --shard-window <N>    owned bases per shard (default 0 = one shard)
//!   --shard-overlap <N>   slice overlap past the owned window; must cover
//!                         read length + difference budget (default 512)
//! ```
//!
//! SAM goes to stdout; the platform performance report goes to stderr.
//! Metrics and trace documents always go to their own files, so machine
//! output never interleaves with the SAM stream. Any `--fault-*` rate
//! makes the campaign active; recovery (verify each locus, retry,
//! escalate the budget, fall back to the host) is then on unless
//! `--no-recover` is given.
//!
//! The index is built exactly once per run; reads stream through in
//! `--batch-size` chunks (bounded memory — SAM records are written as
//! each chunk completes), and every chunk is aligned by the same shared
//! platform across `--threads` worker sessions. The metrics document
//! keeps simulated cycles and host wall-clock in separate sections; the
//! simulated sections are bit-identical whether or not any telemetry
//! flag is given.

use std::io::{BufWriter, Read, Write as _};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pim_aligner_suite::bioseq::{fasta, fastq, DnaSeq};
use pim_aligner_suite::mram::faults::{FaultCampaign, FaultModel};
use pim_aligner_suite::pim_aligner::{
    sa_rate_for_budget, sam, AlignError, AlignmentOutcome, BatchTotals, HostTraceConfig,
    IndexArtifact, MappedStrand, PimAlignerConfig, Platform, RecoveryPolicy, ShardedPlatform,
    DEFAULT_KERNEL_BATCH,
};
use pim_aligner_suite::pimsim::{chrome_trace_json, HostEpoch, HostSpan};

/// Wraps the raw reads file and counts bytes consumed, so `--progress`
/// can estimate completion from file position without a pre-pass over
/// the FASTQ (the read count is unknown while streaming).
struct CountingReader<R> {
    inner: R,
    bytes: Arc<AtomicU64>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

/// Minimum interval between `--progress` lines.
const PROGRESS_INTERVAL_MS: u128 = 500;

/// Fraction of the file below which the ETA extrapolation is noise:
/// with almost nothing consumed, `elapsed * (1 - frac) / frac` divides
/// by a near-zero denominator and swings by orders of magnitude between
/// consecutive progress lines.
const ETA_MIN_FRACTION: f64 = 0.005;

/// Formats one `--progress` line: reads aligned, rate, and an ETA
/// extrapolated from the fraction of the FASTQ consumed so far.
///
/// Pure (no clock, no stderr) so the ETA clamping is unit-testable. An
/// estimate that would be unstable — too little of the file consumed,
/// effectively no throughput yet, or a non-finite division artifact —
/// is printed as the sentinel `eta=?` rather than a multi-hour number
/// that vanishes on the next line.
fn format_progress(reads_done: u64, elapsed_s: f64, bytes_done: u64, bytes_total: u64) -> String {
    let rate = if elapsed_s > 0.0 && elapsed_s.is_finite() {
        reads_done as f64 / elapsed_s
    } else {
        0.0
    };
    // The streaming reader may buffer ahead of the last-aligned read;
    // clamp so the fraction never exceeds 1.
    let frac = if bytes_total > 0 {
        (bytes_done as f64 / bytes_total as f64).min(1.0)
    } else {
        1.0
    };
    let eta = if frac >= 1.0 {
        "eta=0s".to_owned()
    } else if frac >= ETA_MIN_FRACTION && rate >= 0.5 {
        let eta_s = elapsed_s * (1.0 - frac) / frac;
        if eta_s.is_finite() {
            format!("eta={eta_s:.0}s")
        } else {
            "eta=?".to_owned()
        }
    } else {
        "eta=?".to_owned()
    };
    format!("pimalign: progress: {reads_done} reads, {rate:.0} reads/s, {eta}")
}

/// One `--progress` line on stderr.
fn report_progress(reads_done: u64, elapsed_s: f64, bytes_done: u64, bytes_total: u64) {
    eprintln!(
        "{}",
        format_progress(reads_done, elapsed_s, bytes_done, bytes_total)
    );
}

/// A CLI failure, classified so scripts can tell a typo (fix the
/// command) from a bad input file (fix the data) from a runtime fault
/// (look at the environment). Exit codes: usage = 2, input = 3,
/// runtime = 4.
enum CliError {
    /// Bad flags or arguments.
    Usage(String),
    /// Unreadable or malformed input files.
    Input(String),
    /// A failure while the run was underway (write errors, alignment
    /// errors).
    Runtime(String),
}

impl CliError {
    fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Input(m) | CliError::Runtime(m) => m,
        }
    }

    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Input(_) => 3,
            CliError::Runtime(_) => 4,
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pimalign: {}", e.message());
            ExitCode::from(e.exit_code())
        }
    }
}

/// Maps one SAM write result: `Ok(true)` = written, `Ok(false)` =
/// stdout's reader went away (`pimalign ... | head`), which is a clean
/// early exit (code 0), not an error.
fn sam_write_ok(result: std::io::Result<()>) -> Result<bool, CliError> {
    match result {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(false),
        Err(e) => Err(CliError::Runtime(format!("cannot write SAM: {e}"))),
    }
}

struct Cli {
    positional: Vec<String>,
    index: Option<String>,
    index_memory_budget: Option<usize>,
    pd: usize,
    max_diffs: u8,
    indels: bool,
    both_strands: bool,
    threads: usize,
    batch_size: usize,
    kernel_batch: usize,
    fault_seed: u64,
    fault_xnor: f64,
    fault_stuck: f64,
    fault_transient: f64,
    fault_carry: f64,
    recover: bool,
    metrics: Option<String>,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    progress: bool,
}

fn parse_flag<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    *i += 1;
    args.get(*i)
        .ok_or(format!("{flag} needs a value"))?
        .parse()
        .map_err(|e| format!("invalid {flag}: {e}"))
}

/// Parses a byte count with optional binary suffix: `64M` = 64 MiB.
fn parse_bytes(raw: &str, flag: &str) -> Result<usize, String> {
    let (digits, shift) = match raw.as_bytes().last() {
        Some(b'K' | b'k') => (&raw[..raw.len() - 1], 10),
        Some(b'M' | b'm') => (&raw[..raw.len() - 1], 20),
        Some(b'G' | b'g') => (&raw[..raw.len() - 1], 30),
        _ => (raw, 0),
    };
    let n: usize = digits.parse().map_err(|e| format!("invalid {flag}: {e}"))?;
    n.checked_shl(shift)
        .filter(|&b| b >> shift == n)
        .ok_or_else(|| format!("invalid {flag}: {raw} overflows"))
}

fn parse_prob(args: &[String], i: &mut usize, flag: &str) -> Result<f64, String> {
    let p: f64 = parse_flag(args, i, flag)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!(
            "invalid {flag}: {p} is not a probability in [0, 1]"
        ));
    }
    Ok(p)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        index: None,
        index_memory_budget: None,
        pd: 1,
        max_diffs: 2,
        indels: true,
        both_strands: true,
        threads: 1,
        batch_size: 4_096,
        kernel_batch: DEFAULT_KERNEL_BATCH,
        fault_seed: 0x5eed,
        fault_xnor: 0.0,
        fault_stuck: 0.0,
        fault_transient: 0.0,
        fault_carry: 0.0,
        recover: true,
        metrics: None,
        metrics_out: None,
        trace_out: None,
        progress: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--index" => cli.index = Some(parse_flag(args, &mut i, "--index")?),
            "--index-memory-budget" => {
                let raw: String = parse_flag(args, &mut i, "--index-memory-budget")?;
                cli.index_memory_budget = Some(parse_bytes(&raw, "--index-memory-budget")?);
            }
            "--pipelined" => cli.pd = cli.pd.max(2),
            "--pd" => {
                cli.pd = parse_flag(args, &mut i, "--pd")?;
                if cli.pd == 0 {
                    return Err("invalid --pd: parallelism degree must be at least 1".into());
                }
            }
            "--max-diffs" => {
                cli.max_diffs = parse_flag(args, &mut i, "--max-diffs")?;
                if cli.max_diffs > 8 {
                    return Err(format!(
                        "invalid --max-diffs: {} exceeds the platform maximum of 8",
                        cli.max_diffs
                    ));
                }
            }
            "--no-indels" => cli.indels = false,
            "--single-strand" => cli.both_strands = false,
            "--threads" => {
                cli.threads = parse_flag(args, &mut i, "--threads")?;
                if cli.threads == 0 {
                    return Err("invalid --threads: at least one worker thread required".into());
                }
            }
            "--batch-size" => {
                cli.batch_size = parse_flag(args, &mut i, "--batch-size")?;
                if cli.batch_size == 0 {
                    return Err("invalid --batch-size: must be at least 1".into());
                }
            }
            "--kernel-batch" => {
                cli.kernel_batch = parse_flag(args, &mut i, "--kernel-batch")?;
                if cli.kernel_batch == 0 {
                    return Err(
                        "invalid --kernel-batch: must be at least 1 (1 = single-read kernel)"
                            .into(),
                    );
                }
            }
            "--fault-seed" => cli.fault_seed = parse_flag(args, &mut i, "--fault-seed")?,
            "--fault-xnor" => cli.fault_xnor = parse_prob(args, &mut i, "--fault-xnor")?,
            "--fault-stuck" => cli.fault_stuck = parse_prob(args, &mut i, "--fault-stuck")?,
            "--fault-transient" => {
                cli.fault_transient = parse_prob(args, &mut i, "--fault-transient")?;
            }
            "--fault-carry" => cli.fault_carry = parse_prob(args, &mut i, "--fault-carry")?,
            "--no-recover" => cli.recover = false,
            "--metrics" => cli.metrics = Some(parse_flag(args, &mut i, "--metrics")?),
            "--metrics-out" => cli.metrics_out = Some(parse_flag(args, &mut i, "--metrics-out")?),
            "--trace-out" => cli.trace_out = Some(parse_flag(args, &mut i, "--trace-out")?),
            "--progress" => cli.progress = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => cli.positional.push(args[i].clone()),
        }
        i += 1;
    }
    Ok(cli)
}

/// Reads a FASTA file expected to hold exactly one reference record.
fn load_reference(ref_path: &str) -> Result<(String, DnaSeq), CliError> {
    let ref_text = std::fs::read_to_string(ref_path)
        .map_err(|e| CliError::Input(format!("cannot read {ref_path}: {e}")))?;
    let references =
        fasta::parse(&ref_text).map_err(|e| CliError::Input(format!("{ref_path}: {e}")))?;
    let [reference] = references.as_slice() else {
        return Err(CliError::Input(format!(
            "{ref_path}: expected exactly one reference record, found {}",
            references.len()
        )));
    };
    Ok((reference.id().to_owned(), reference.seq().clone()))
}

/// The alignment engine behind the streaming loop: one flat platform
/// (built in-process) or a sharded platform booted from an artifact.
enum Engine {
    Flat(Platform),
    Sharded(ShardedPlatform),
}

impl Engine {
    fn align_chunk(
        &self,
        seqs: &[DnaSeq],
        threads: usize,
        epoch: u64,
        both_strands: bool,
        trace: Option<&HostTraceConfig>,
    ) -> Result<(Vec<(AlignmentOutcome, MappedStrand)>, BatchTotals), AlignError> {
        match (self, trace) {
            (Engine::Flat(p), Some(t)) => {
                p.align_chunk_parallel_traced(seqs, threads, epoch, both_strands, t)
            }
            (Engine::Flat(p), None) => p.align_chunk_parallel(seqs, threads, epoch, both_strands),
            (Engine::Sharded(s), Some(t)) => s
                .single_platform()
                .expect("multi-shard tracing is rejected at startup")
                .align_chunk_parallel_traced(seqs, threads, epoch, both_strands, t),
            (Engine::Sharded(s), None) => s.align_chunk(seqs, threads, epoch, both_strands),
        }
    }

    fn batch_report(&self, totals: &BatchTotals) -> pim_aligner_suite::pim_aligner::PerfReport {
        match self {
            Engine::Flat(p) => p.batch_report(totals),
            Engine::Sharded(s) => s.batch_report(totals),
        }
    }
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("index") {
        return run_index(&args[1..]);
    }
    let cli = parse_cli(&args).map_err(CliError::Usage)?;
    if cli.index.is_some() && cli.index_memory_budget.is_some() {
        return Err(CliError::Usage(
            "--index-memory-budget applies when building an index; a loaded artifact's \
             sampling rate is already fixed"
                .to_owned(),
        ));
    }
    let (ref_source, reads_path) = match (&cli.index, cli.positional.as_slice()) {
        (Some(_), [reads]) => (None, reads),
        (None, [reference, reads]) => (Some(reference), reads),
        (Some(_), _) => {
            return Err(CliError::Usage(
                "usage: pimalign --index <artifact> <reads.fastq> [options]".to_owned(),
            ));
        }
        (None, _) => {
            return Err(CliError::Usage(
                "usage: pimalign <reference.fasta> <reads.fastq> [options]".to_owned(),
            ));
        }
    };
    let reads_file = std::fs::File::open(reads_path)
        .map_err(|e| CliError::Input(format!("cannot read {reads_path}: {e}")))?;
    let reads_total_bytes = reads_file
        .metadata()
        .map_err(|e| CliError::Input(format!("cannot stat {reads_path}: {e}")))?
        .len();
    let bytes_consumed = Arc::new(AtomicU64::new(0));
    let mut reads = fastq::Reader::new(std::io::BufReader::new(CountingReader {
        inner: reads_file,
        bytes: Arc::clone(&bytes_consumed),
    }));

    let campaign = FaultCampaign::seeded(cli.fault_seed)
        .with_model(FaultModel::with_probabilities(
            cli.fault_xnor,
            cli.fault_xnor,
        ))
        .with_stuck_at_rate(cli.fault_stuck)
        .with_transient_row_rate(cli.fault_transient)
        .with_carry_fault_prob(cli.fault_carry);
    let mut config = PimAlignerConfig::baseline()
        .with_max_diffs(cli.max_diffs)
        .with_indels(cli.indels)
        .with_kernel_batch(cli.kernel_batch)
        .with_fault_campaign(campaign);
    if cli.pd >= 2 {
        config = config.with_pd(cli.pd);
    }
    if campaign.is_active() && cli.recover {
        config = config.with_recovery(RecoveryPolicy::standard());
    }

    // The run's wall-clock epoch: created before the index build so the
    // build lands at t ≈ 0 on the trace timeline.
    let host_epoch = HostEpoch::new();
    let trace_config = cli
        .trace_out
        .as_ref()
        .map(|_| HostTraceConfig::new(host_epoch));

    // One engine for the whole run: the index is built (or loaded)
    // exactly once here and shared by every chunk and worker thread
    // below.
    let build_start_ns = host_epoch.now_ns();
    let (engine, ref_id, ref_len) = match (&cli.index, ref_source) {
        (Some(artifact_path), None) => {
            let artifact = IndexArtifact::load_from_path(std::path::Path::new(artifact_path))
                .map_err(|e| CliError::Input(format!("{artifact_path}: {e}")))?;
            let ref_id = artifact.reference_name().to_owned();
            let ref_len = artifact.reference().len();
            let sharded = ShardedPlatform::from_artifact(&artifact, config, true);
            if trace_config.is_some() && sharded.shard_count() > 1 {
                return Err(CliError::Usage(
                    "--trace-out is not supported with sharded index artifacts".to_owned(),
                ));
            }
            (Engine::Sharded(sharded), ref_id, ref_len)
        }
        (None, Some(ref_path)) => {
            let (ref_id, reference) = load_reference(ref_path)?;
            let ref_len = reference.len();
            let engine = if let Some(budget) = cli.index_memory_budget {
                let rate = sa_rate_for_budget(ref_len, budget).ok_or_else(|| {
                    CliError::Input(format!(
                        "--index-memory-budget {budget} bytes cannot hold the index for \
                         {ref_len} bases at any supported sampling rate"
                    ))
                })?;
                let artifact = IndexArtifact::build(&ref_id, &reference, rate, 0, 0);
                Engine::Sharded(ShardedPlatform::from_artifact(&artifact, config, false))
            } else {
                Engine::Flat(Platform::new(&reference, config))
            };
            (engine, ref_id, ref_len)
        }
        _ => unreachable!("positional parsing pinned the index/reference combinations"),
    };
    // The index build runs on the main thread; its trace track sits
    // after the worker tracks (tid = --threads).
    let build_span = HostSpan {
        name: "index_build",
        tid: cli.threads as u32,
        start_ns: build_start_ns,
        dur_ns: host_epoch.now_ns().saturating_sub(build_start_ns),
    };

    // Stream chunks: bounded memory in and incremental SAM out, one code
    // path for any thread count (1 thread is a single worker session).
    let stdout = std::io::stdout();
    let mut out = BufWriter::new(stdout.lock());
    if !sam_write_ok(write!(out, "{}", sam::header(&ref_id, ref_len)))? {
        return Ok(());
    }
    let mut totals = BatchTotals::new();
    let mut mapped = 0usize;
    let mut epoch = 0u64;
    let align_start = Instant::now();
    let mut last_progress = Instant::now();
    loop {
        let chunk = reads
            .next_chunk(cli.batch_size)
            .map_err(|e| CliError::Input(format!("{reads_path}: {e}")))?;
        if chunk.is_empty() {
            break;
        }
        let seqs: Vec<_> = chunk.iter().map(|r| r.seq().clone()).collect();
        let (pairs, chunk_totals) = engine
            .align_chunk(
                &seqs,
                cli.threads,
                epoch,
                cli.both_strands,
                trace_config.as_ref(),
            )
            .map_err(|e| match e {
                // A read too long for the artifact's shard overlap is a
                // data problem (pick a different artifact), not a crash.
                AlignError::ReadExceedsShardOverlap { .. } => CliError::Input(e.to_string()),
                other => CliError::Runtime(other.to_string()),
            })?;
        totals.merge(&chunk_totals);
        if cli.progress && last_progress.elapsed().as_millis() >= PROGRESS_INTERVAL_MS {
            last_progress = Instant::now();
            report_progress(
                totals.reads,
                align_start.elapsed().as_secs_f64(),
                bytes_consumed.load(Ordering::Relaxed),
                reads_total_bytes,
            );
        }
        for (record, (outcome, strand)) in chunk.iter().zip(&pairs) {
            if outcome.is_mapped() {
                mapped += 1;
            }
            let sam_record = sam::record_for(
                record.id(),
                &ref_id,
                record.seq(),
                Some(record.quality()),
                outcome,
                *strand,
            );
            if !sam_write_ok(writeln!(out, "{}", sam_record.to_line()))? {
                return Ok(());
            }
        }
        epoch += 1;
    }
    if !sam_write_ok(out.flush())? {
        return Ok(());
    }
    if totals.reads == 0 {
        return Err(CliError::Input(format!("{reads_path}: no reads")));
    }
    let report = engine.batch_report(&totals);
    let mut metrics_paths: Vec<&String> = Vec::new();
    metrics_paths.extend(&cli.metrics);
    if cli.metrics_out.as_ref() != cli.metrics.as_ref() {
        metrics_paths.extend(&cli.metrics_out);
    }
    for path in metrics_paths {
        std::fs::write(path, report.to_metrics_json())
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = &cli.trace_out {
        // Every worker gets a labelled track, spans or not: a starved
        // worker showing an empty track is itself a finding. The main
        // track carries the one-time index build.
        let mut tracks: Vec<(u32, String)> = (0..cli.threads as u32)
            .map(|w| (w, format!("worker-{w}")))
            .collect();
        tracks.push((cli.threads as u32, "main".to_owned()));
        let mut spans = totals.host.spans.clone();
        spans.push(build_span);
        std::fs::write(path, chrome_trace_json(&spans, &tracks))
            .map_err(|e| CliError::Runtime(format!("cannot write {path}: {e}")))?;
    }
    let spans_dropped = totals.host.spans_dropped + report.breakdown.spans_dropped;
    if spans_dropped > 0 {
        eprintln!(
            "pimalign: warning: {spans_dropped} trace span(s) dropped (capacity); \
             the trace is truncated, not complete"
        );
    }

    eprintln!(
        "pimalign: {} reads, {} mapped ({:.1}%)",
        totals.reads,
        mapped,
        100.0 * mapped as f64 / totals.reads as f64
    );
    eprintln!(
        "pimalign: platform Pd={}: {:.3e} queries/s, {:.1} W, MBR {:.1}%, RUR {:.1}%",
        cli.pd, report.throughput_qps, report.total_power_w, report.mbr_pct, report.rur_pct
    );
    let ix = report.index;
    eprintln!(
        "pimalign: index: {} ({} shard{}), SA rate {}, {} bytes ({:.2} bytes/bp)",
        if ix.loaded { "loaded" } else { "built" },
        ix.shards,
        if ix.shards == 1 { "" } else { "s" },
        ix.sa_rate,
        ix.actual_bytes,
        ix.actual_bytes as f64 / ref_len as f64,
    );
    let t = report.faults;
    if campaign.is_active() || !t.is_quiet() {
        eprintln!(
            "pimalign: faults injected: {} stuck cells, {} XNOR flips, {} transient rows, \
             {} carry faults",
            t.stuck_cells, t.xnor_bit_flips, t.transient_row_faults, t.carry_faults
        );
        eprintln!(
            "pimalign: recovery: {} verifications ({} failed), {} retries, {} escalations, \
             {} host fallbacks, {} unrecoverable",
            t.verifications,
            t.verify_failures,
            t.retries,
            t.escalations,
            t.host_fallbacks,
            t.unrecoverable
        );
    }
    Ok(())
}

/// Dispatches the `pimalign index <verb>` subcommands.
fn run_index(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("build") => run_index_build(&args[1..]),
        Some("inspect") => run_index_inspect(&args[1..]),
        _ => Err(CliError::Usage(
            "usage: pimalign index build <reference.fasta> <artifact> [options]\n\
             \x20      pimalign index inspect <artifact>"
                .to_owned(),
        )),
    }
}

struct IndexBuildCli {
    positional: Vec<String>,
    sa_rate: u32,
    budget: Option<usize>,
    shard_window: usize,
    shard_overlap: usize,
}

fn parse_index_build_cli(args: &[String]) -> Result<IndexBuildCli, String> {
    let mut cli = IndexBuildCli {
        positional: Vec::new(),
        sa_rate: 1,
        budget: None,
        shard_window: 0,
        shard_overlap: 512,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sa-rate" => {
                cli.sa_rate = parse_flag(args, &mut i, "--sa-rate")?;
                if cli.sa_rate == 0 {
                    return Err("invalid --sa-rate: must be at least 1".into());
                }
            }
            "--index-memory-budget" => {
                let raw: String = parse_flag(args, &mut i, "--index-memory-budget")?;
                cli.budget = Some(parse_bytes(&raw, "--index-memory-budget")?);
            }
            "--shard-window" => cli.shard_window = parse_flag(args, &mut i, "--shard-window")?,
            "--shard-overlap" => {
                cli.shard_overlap = parse_flag(args, &mut i, "--shard-overlap")?;
                if cli.shard_overlap == 0 {
                    return Err(
                        "invalid --shard-overlap: must cover at least one read length".into(),
                    );
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => cli.positional.push(args[i].clone()),
        }
        i += 1;
    }
    Ok(cli)
}

/// `pimalign index build`: FASTA in, checksummed `PIMAIX1` artifact out.
fn run_index_build(args: &[String]) -> Result<(), CliError> {
    let cli = parse_index_build_cli(args).map_err(CliError::Usage)?;
    let [ref_path, out_path] = cli.positional.as_slice() else {
        return Err(CliError::Usage(
            "usage: pimalign index build <reference.fasta> <artifact> [options]".to_owned(),
        ));
    };
    let (ref_id, reference) = load_reference(ref_path)?;
    let max_len = pim_aligner_suite::fmindex::FmIndex::MAX_REFERENCE_LEN;
    if reference.len() > max_len {
        return Err(CliError::Input(format!(
            "{ref_path}: {} bases exceeds the u32 position bound ({max_len} bases max); \
             shard the reference across separate artifacts",
            reference.len()
        )));
    }
    let sa_rate = match cli.budget {
        Some(budget) => sa_rate_for_budget(reference.len(), budget).ok_or_else(|| {
            CliError::Input(format!(
                "--index-memory-budget {budget} bytes cannot hold the index for {} bases \
                 at any supported sampling rate",
                reference.len()
            ))
        })?,
        None => cli.sa_rate,
    };
    let build_start = Instant::now();
    let artifact = IndexArtifact::build(
        &ref_id,
        &reference,
        sa_rate,
        cli.shard_window,
        cli.shard_overlap,
    );
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;
    artifact
        .save_to_path(std::path::Path::new(out_path))
        .map_err(|e| CliError::Runtime(format!("cannot write {out_path}: {e}")))?;
    eprintln!(
        "pimalign: index build: {} bases -> {} shard(s), SA rate {}, {} index bytes \
         ({:.2} bytes/bp), {:.0} ms",
        reference.len(),
        artifact.shards().len(),
        artifact.sa_rate(),
        artifact.index_bytes(),
        artifact.index_bytes() as f64 / reference.len() as f64,
        build_ms,
    );
    Ok(())
}

/// `pimalign index inspect`: loads (and thereby checksum-verifies) an
/// artifact and prints its geometry, one `key: value` per line.
fn run_index_inspect(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err(CliError::Usage(
            "usage: pimalign index inspect <artifact>".to_owned(),
        ));
    };
    let artifact = IndexArtifact::load_from_path(std::path::Path::new(path))
        .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
    println!("reference: {}", artifact.reference_name());
    println!("bases: {}", artifact.reference().len());
    println!("sa_rate: {}", artifact.sa_rate());
    println!("shards: {}", artifact.shards().len());
    println!("shard_window: {}", artifact.shard_window());
    println!("shard_overlap: {}", artifact.shard_overlap());
    println!("index_bytes: {}", artifact.index_bytes());
    println!("model_bytes: {}", artifact.model_bytes());
    println!(
        "bytes_per_bp: {:.4}",
        artifact.index_bytes() as f64 / artifact.reference().len() as f64
    );
    println!("checksum: ok");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::format_progress;

    #[test]
    fn progress_eta_is_stable_midway() {
        // Half the file in 10 s: another ~10 s to go.
        let line = format_progress(5_000, 10.0, 500, 1_000);
        assert_eq!(line, "pimalign: progress: 5000 reads, 500 reads/s, eta=10s");
    }

    #[test]
    fn progress_eta_clamps_to_sentinel_early_in_the_run() {
        // Regression: with one byte of a huge file consumed, the old
        // extrapolation printed a multi-hour artifact (here ~28 h).
        let line = format_progress(3, 0.1, 1, 1_000_000);
        assert!(line.ends_with("eta=?"), "unstable estimate leaked: {line}");
    }

    #[test]
    fn progress_eta_clamps_when_rate_is_effectively_zero() {
        // A long stall before the first read: frac is healthy but no
        // throughput means no basis for extrapolation.
        let line = format_progress(0, 30.0, 100, 1_000);
        assert!(line.ends_with("eta=?"), "zero-rate estimate leaked: {line}");
        assert!(line.contains("0 reads/s"));
    }

    #[test]
    fn progress_eta_survives_zero_and_nonfinite_elapsed() {
        // Division artifacts must never reach stderr.
        for elapsed in [0.0, f64::NAN, f64::INFINITY] {
            let line = format_progress(10, elapsed, 500, 1_000);
            assert!(!line.contains("inf") && !line.contains("NaN"), "{line}");
            assert!(line.ends_with("eta=?"), "{line}");
        }
    }

    #[test]
    fn progress_eta_is_zero_at_completion_and_with_unknown_total() {
        assert!(format_progress(9, 2.0, 1_000, 1_000).ends_with("eta=0s"));
        // bytes_total == 0 (unseekable input): fraction defaults to
        // done, not to a divide-by-zero.
        assert!(format_progress(9, 2.0, 123, 0).ends_with("eta=0s"));
    }
}
