//! The batch workloads, `exact_fwd` and `paper_reads`: FASTQ text in
//! through `bioseq::fastq::Reader`, `Platform::align_chunk_parallel`,
//! `sam::record_for` lines out.

use std::io::{Cursor, Write as _};
use std::time::{Duration, Instant};

use bioseq::fastq::{Reader, Record};
use bioseq::DnaSeq;
use fmindex::FmIndex;
use pim_aligner::{
    sam, AlignmentOutcome, BatchTotals, HostTraceConfig, MappedStrand, PerfReport,
    PimAlignerConfig, Platform, MAX_TRACE_SPANS,
};
use pimsim::{HostEpoch, HostSpan, SubArrayLayout};
use readsim::SimulatedRead;

use crate::check::{verify_outcome, Checks};
use crate::config::{BatchParams, Config};
use crate::inputs::{self, Fnv};
use crate::report::{median_s, ms, secs, Report};
use crate::sim::{put_model_record, SimCounters};
use crate::stats::{self, RunClock};
use crate::trace::Trace;

/// Which read profile a batch workload aligns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `exact_fwd`: error-free forward reads.
    Exact,
    /// `paper_reads`: the paper's ART-like profile, both strands.
    Paper,
}

const REFERENCE_NAME: &str = "ref";
/// The main (benchmark) track in the Chrome trace; worker tracks are
/// `WORKER_TRACK_BASE + worker`.
const MAIN_TRACK: u32 = 0;
const WORKER_TRACK_BASE: u32 = 1;

/// What the timed region of one workload run needs.
pub struct Inputs {
    reference: DnaSeq,
    reads: Vec<SimulatedRead>,
    fastq: Vec<u8>,
}

impl Inputs {
    /// Generates the genome and reads from `seed`.
    pub fn generate(cfg: &Config, profile: Profile, seed: u64) -> Inputs {
        let reference = inputs::genome(cfg.genome_len, seed);
        let p = params(cfg, profile);
        let reads = match profile {
            Profile::Exact => inputs::clean_reads(&reference, p.reads_per_pass, seed),
            Profile::Paper => inputs::paper_reads(&reference, p.reads_per_pass, seed),
        };
        let fastq = inputs::to_fastq(&reads);
        Inputs {
            reference,
            reads,
            fastq,
        }
    }
}

fn params(cfg: &Config, profile: Profile) -> BatchParams {
    match profile {
        Profile::Exact => cfg.exact,
        Profile::Paper => cfg.paper,
    }
}

/// The configuration `pimalign` aligns with by default: PIM-Aligner-n,
/// z = 2 with indels, faults and recovery off.
pub fn aligner_config() -> PimAlignerConfig {
    PimAlignerConfig::baseline()
}

/// Host worker threads: one per core.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One FASTQ-to-SAM pass over the whole read set.
struct Pass {
    wall_ns: u64,
    /// `wall_ns` less the time stolen from the machine (see `RunClock`).
    run_ns: u64,
    parse_ns: u64,
    align_ns: u64,
    sam_ns: u64,
    sam_hash: u64,
    /// Per read, in input order.
    outcomes: Vec<(AlignmentOutcome, MappedStrand)>,
    totals: BatchTotals,
    /// Worker busy time per align call, for the balance figure.
    call_busy: Vec<Vec<u64>>,
    spans_dropped: u64,
}

/// Benchmark-side tracing of one pass: the trace to add spans to, its
/// clock, and the parent span of the pass.
struct PassTrace<'a> {
    trace: &'a mut Trace,
    epoch: HostEpoch,
    parent: u64,
}

fn stream_pass(
    platform: &Platform,
    fastq: &[u8],
    chunk_reads: usize,
    threads: usize,
    tracing: Option<PassTrace<'_>>,
) -> Pass {
    let host_trace = tracing.as_ref().map(|t| HostTraceConfig {
        epoch: t.epoch,
        capacity_per_worker: MAX_TRACE_SPANS,
    });
    let mut reader = Reader::new(Cursor::new(fastq));
    let mut sink: Vec<u8> = Vec::with_capacity(fastq.len() * 2);
    sink.extend_from_slice(sam::header(REFERENCE_NAME, platform.reference().len()).as_bytes());
    let mut pass = Pass {
        wall_ns: 0,
        run_ns: 0,
        parse_ns: 0,
        align_ns: 0,
        sam_ns: 0,
        sam_hash: 0,
        outcomes: Vec::new(),
        totals: BatchTotals::new(),
        call_busy: Vec::new(),
        spans_dropped: 0,
    };
    let t_pass = Instant::now();
    let clock = RunClock::now();
    // Trace timestamps: ns since the trace epoch, read off one clock.
    let base_ns = tracing.as_ref().map_or(0, |t| t.epoch.now_ns());
    let at = |i: Instant| base_ns + (i - t_pass).as_nanos() as u64;
    // Per chunk, for the trace: its four timestamps and the host spans.
    let mut chunks: Vec<([Instant; 4], Vec<HostSpan>)> = Vec::new();
    let mut epoch = 0u64;
    loop {
        let t0 = Instant::now();
        let chunk: Vec<Record> = reader
            .next_chunk(chunk_reads)
            .expect("generated FASTQ parses");
        let t1 = Instant::now();
        if chunk.is_empty() {
            break;
        }
        let seqs: Vec<DnaSeq> = chunk.iter().map(|r| r.seq().clone()).collect();
        let (pairs, mut totals) = match &host_trace {
            Some(cfg) => platform.align_chunk_parallel_traced(&seqs, threads, epoch, true, cfg),
            None => platform.align_chunk_parallel(&seqs, threads, epoch, true),
        }
        .expect("a non-empty chunk on at least one thread aligns");
        let t2 = Instant::now();
        for (record, (outcome, strand)) in chunk.iter().zip(&pairs) {
            let line = sam::record_for(
                record.id(),
                REFERENCE_NAME,
                record.seq(),
                Some(record.quality()),
                outcome,
                *strand,
            )
            .to_line();
            writeln!(sink, "{line}").expect("writing to memory");
        }
        let t3 = Instant::now();

        pass.parse_ns += (t1 - t0).as_nanos() as u64;
        pass.align_ns += (t2 - t1).as_nanos() as u64;
        pass.sam_ns += (t3 - t2).as_nanos() as u64;
        pass.call_busy
            .push(totals.host.workers.iter().map(|w| w.busy_ns).collect());
        pass.spans_dropped += totals.host.spans_dropped;
        if tracing.is_some() {
            chunks.push(([t0, t1, t2, t3], std::mem::take(&mut totals.host.spans)));
        }
        totals.host.spans_dropped = 0;
        pass.totals.merge(&totals);
        pass.outcomes.extend(pairs);
        epoch += 1;
    }
    let end = RunClock::now();
    pass.wall_ns = clock.wall_ns(&end);
    pass.run_ns = clock.run_ns(&end);
    pass.sam_hash = Fnv::of(&sink);
    // Spans are filed after the pass, outside its timed region.
    if let Some(t) = tracing {
        for (key, ([t0, t1, t2, t3], host_spans)) in (0u64..).zip(chunks) {
            let (s0, s1, s2, s3) = (at(t0), at(t1), at(t2), at(t3));
            let key = Some(key);
            let c = t
                .trace
                .add("fastq.chunk", MAIN_TRACK, Some(t.parent), key, s0, s3);
            t.trace
                .add("bioseq.parse", MAIN_TRACK, Some(c), key, s0, s1);
            let a = t.trace.add(
                "core.align_chunk_parallel",
                MAIN_TRACK,
                Some(c),
                key,
                s1,
                s2,
            );
            t.trace.add("sam.write", MAIN_TRACK, Some(c), key, s2, s3);
            t.trace
                .import_host(&host_spans, 0, WORKER_TRACK_BASE, a, |_| key);
        }
    }
    pass
}

/// Runs a batch workload untraced: timed set-ups, then FASTQ-to-SAM
/// passes until `seconds` have elapsed. Reports the end-to-end metrics.
pub fn run_timed(
    cfg: &Config,
    profile: Profile,
    input: &Inputs,
    seconds: f64,
    report: &mut Report,
    checks: &mut Checks,
) -> (u64, SimCounters) {
    let p = params(cfg, profile);
    let threads = threads();
    let config = aligner_config();

    // Set-up: reference in memory to a platform ready to align (FM-index
    // build + sub-array mapping), several times; the median is reported.
    let mut setup_ns = Vec::new();
    let mut platform = None;
    for _ in 0..cfg.setup_reps {
        drop(platform.take());
        let t = RunClock::now();
        let built = Platform::new(&input.reference, config.clone());
        setup_ns.push(t.run_ns(&RunClock::now()));
        platform = Some(built);
    }
    let platform = platform.expect("at least one set-up");

    let budget = Duration::from_secs_f64(seconds);
    let t_run = Instant::now();
    let first = stream_pass(&platform, &input.fastq, p.chunk_reads, threads, None);
    let rate = |ns: u64| input.reads.len() as f64 / secs(ns);
    let mut pass_rates = vec![rate(first.run_ns)];
    let mut wall_rates = vec![rate(first.wall_ns)];
    let mut reads_done = input.reads.len() as u64;
    let sim = SimCounters::of(&platform.batch_report(&first.totals), &first.outcomes);
    while t_run.elapsed() < budget {
        let again = stream_pass(&platform, &input.fastq, p.chunk_reads, threads, None);
        pass_rates.push(rate(again.run_ns));
        wall_rates.push(rate(again.wall_ns));
        reads_done += input.reads.len() as u64;
        checks.check(again.sam_hash == first.sam_hash, || {
            "SAM output differs between passes over the same reads".to_owned()
        });
        let again_sim = SimCounters::of(&platform.batch_report(&again.totals), &again.outcomes);
        checks.check(again_sim == sim, || {
            format!("simulated counters differ between passes: {sim:?} vs {again_sim:?}")
        });
    }
    report.note(format!(
        "{} passes of {} reads on {threads} threads, chunks of {}; median {:.1} reads/s \
         in wall time, {:.1} with stolen time taken out",
        pass_rates.len(),
        input.reads.len(),
        p.chunk_reads,
        stats::median(&wall_rates),
        stats::median(&pass_rates),
    ));
    report.attempted = reads_done;
    verify(profile, input, &platform, &first, checks);

    report.put("setup_s", median_s(&setup_ns));
    report.put("reads_per_s", stats::median(&pass_rates));
    sim.put_end_to_end(report);
    (first.sam_hash, sim)
}

/// Checks every read's outcome of `pass` against the reference, and on
/// `exact_fwd` that each read's true position is among its positions.
fn verify(profile: Profile, input: &Inputs, platform: &Platform, pass: &Pass, checks: &mut Checks) {
    let budget = platform.config().max_diffs();
    checks.check(pass.outcomes.len() == input.reads.len(), || {
        format!(
            "{} outcomes for {} reads",
            pass.outcomes.len(),
            input.reads.len()
        )
    });
    for (read, (outcome, strand)) in input.reads.iter().zip(&pass.outcomes) {
        verify_outcome(
            checks,
            &input.reference,
            &read.id,
            &read.seq,
            outcome,
            *strand,
            budget,
        );
        if profile == Profile::Exact {
            let truth = inputs::truth(read);
            let found = truth.is_some_and(|t| {
                *strand == MappedStrand::Forward
                    && outcome.positions().is_some_and(|ps| ps.contains(&t))
            });
            checks.check(found, || {
                format!(
                    "{}: true position {truth:?} not among {outcome:?} ({strand:?})",
                    read.id
                )
            });
        }
    }
}

/// The traced run of a batch workload: set-up split into its layers, one
/// untraced and one traced pass, the model-accuracy record. Reports the
/// per-layer metrics; `trace` receives every span.
pub fn run_traced(
    cfg: &Config,
    profile: Profile,
    input: &Inputs,
    report: &mut Report,
    checks: &mut Checks,
    trace: &mut Trace,
) -> (u64, SimCounters) {
    let p = params(cfg, profile);
    let threads = threads();
    let config = aligner_config();
    let epoch = HostEpoch::new();
    trace.name_track(MAIN_TRACK, "benchmark");
    for w in 0..threads as u32 {
        trace.name_track(WORKER_TRACK_BASE + w, format!("worker-{w}"));
    }
    let run = trace.add("run", MAIN_TRACK, None, None, 0, 0);

    // Set-up, layer by layer: the FM-index build, then the sub-array
    // mapping boot around the built index.
    let s0 = epoch.now_ns();
    let index = FmIndex::builder()
        .bucket_width(SubArrayLayout::BASES_PER_ROW)
        .build(&input.reference);
    let s1 = epoch.now_ns();
    let model_index = index.clone();
    let s2 = epoch.now_ns();
    let platform = Platform::from_index(input.reference.clone(), index, config.clone());
    let s3 = epoch.now_ns();
    let setup = trace.add("setup", MAIN_TRACK, Some(run), None, s0, s3);
    trace.add("fmindex.build", MAIN_TRACK, Some(setup), None, s0, s1);
    trace.add("mapping.boot", MAIN_TRACK, Some(setup), None, s2, s3);
    report.put("fmindex.build_s", secs(s1 - s0));
    report.put("mapping.boot_s", secs(s3 - s2));

    // An untraced pass (the overhead baseline and the determinism
    // reference), then the same reads traced.
    let u0 = epoch.now_ns();
    let plain = stream_pass(&platform, &input.fastq, p.chunk_reads, threads, None);
    let t0 = epoch.now_ns();
    trace.add("pass.untraced", MAIN_TRACK, Some(run), None, u0, t0);
    let pass_span = trace.add("pass", MAIN_TRACK, Some(run), None, t0, t0);
    let traced = stream_pass(
        &platform,
        &input.fastq,
        p.chunk_reads,
        threads,
        Some(PassTrace {
            trace: &mut *trace,
            epoch,
            parent: pass_span,
        }),
    );
    let t1 = epoch.now_ns();
    trace.set_end(pass_span, t1);
    report.attempted = 2 * input.reads.len() as u64;
    verify(profile, input, &platform, &plain, checks);
    checks.check(traced.sam_hash == plain.sam_hash, || {
        "SAM output of the traced pass differs from the untraced pass".to_owned()
    });
    let plain_report = platform.batch_report(&plain.totals);
    let sim = SimCounters::of(&plain_report, &plain.outcomes);
    let traced_sim = SimCounters::of(&platform.batch_report(&traced.totals), &traced.outcomes);
    checks.check(traced_sim == sim, || {
        format!("simulated counters differ under tracing: {sim:?} vs {traced_sim:?}")
    });

    let m0 = epoch.now_ns();
    put_model_record(
        report,
        &input.reference,
        model_index,
        cfg.model_sample_reads,
    );
    let m1 = epoch.now_ns();
    trace.add("model.pd2_sample", MAIN_TRACK, Some(run), None, m0, m1);
    if profile == Profile::Paper {
        report.note(
            "paper_reads simulated values are unvalidated: the paper publishes no reference \
             for error-bearing reads (the model record above uses figure-row reads)",
        );
    }
    trace.set_end(run, m1);

    put_pass_layers(report, trace, &plain, &traced, &sim, threads);
    put_kernel_cache(report, &plain_report);
    sim.put_layers(report);
    report.put("trace.spans", trace.spans().len() as f64);
    report.put("trace.spans_dropped", traced.spans_dropped as f64);
    checks.check(traced.spans_dropped == 0, || {
        format!(
            "{} host spans dropped; shrink the traced input",
            traced.spans_dropped
        )
    });
    (plain.sam_hash, sim)
}

/// Per-layer metrics of the parallel engine, the aligner stages and the
/// I/O layers, from the two passes and the trace.
fn put_pass_layers(
    report: &mut Report,
    trace: &Trace,
    plain: &Pass,
    traced: &Pass,
    sim: &SimCounters,
    threads: usize,
) {
    report.put("bioseq.parse_s", secs(plain.parse_ns));
    report.put("sam.write_s", secs(plain.sam_ns));
    report.put(
        "trace.overhead_pct",
        100.0 * (traced.wall_ns as f64 / plain.wall_ns as f64 - 1.0),
    );
    let chunk_ms: Vec<f64> = trace
        .named("chunk")
        .map(|s| ms(s.end_ns - s.start_ns))
        .collect();
    report.put_percentile("parallel.chunk_ms.p50", &chunk_ms, 0.50);
    report.put_percentile("parallel.chunk_ms.p99", &chunk_ms, 0.99);
    let busy: u64 = plain.call_busy.iter().flatten().sum();
    report.put(
        "parallel.busy_pct",
        100.0 * busy as f64 / (threads as u64 * plain.align_ns) as f64,
    );
    let (mean_sum, max_sum) = plain.call_busy.iter().fold((0.0, 0.0), |(a, b), call| {
        let max = call.iter().copied().max().unwrap_or(0) as f64;
        let mean = call.iter().sum::<u64>() as f64 / threads as f64;
        (a + mean, b + max)
    });
    report.put("parallel.balance_pct", 100.0 * mean_sum / max_sum.max(1.0));

    let times = trace.layer_times();
    let self_s = |names: &[&str]| -> f64 {
        secs(
            names
                .iter()
                .filter_map(|n| times.get(*n))
                .map(|t| t.self_ns)
                .sum(),
        )
    };
    let chunk_total: f64 = times.get("chunk").map_or(0.0, |t| secs(t.total_ns));
    let inexact_self = self_s(&["inexact_pass"]);
    report.put("exact.self_s", self_s(&["exact_batch", "exact_pass"]));
    report.put("inexact.self_s", inexact_self);
    report.put("locate.self_s", self_s(&["locate"]));
    report.put(
        "inexact.align_share_pct",
        100.0 * inexact_self / chunk_total.max(f64::MIN_POSITIVE),
    );
    let passes = times.get("inexact_pass").map_or(0, |t| t.count);
    report.put("inexact.passes", passes as f64);
    if passes == 0 {
        report.absent("inexact.hit_frac", "no inexact pass ran");
    } else {
        report.put("inexact.hit_frac", sim.inexact_reads as f64 / passes as f64);
    }
    report.put(
        "kernel.lfm_per_s",
        plain.totals.lfm_calls as f64 / secs(plain.align_ns),
    );
}

/// Rank-checkpoint cache figures. The caches are per worker session, so
/// which reads share one depends on work stealing: host-side counts, not
/// simulated ones.
pub fn put_kernel_cache(report: &mut Report, perf: &PerfReport) {
    let cache = perf.breakdown.kernel_cache;
    report.put("kernel_cache.lookups", cache.lookups() as f64);
    report.put(
        "kernel_cache.hit_rate",
        cache.hits as f64 / cache.lookups().max(1) as f64,
    );
}
