//! The `serve_open` workload: `pimserve` in process, booted warm from an
//! in-memory index artifact, driven open-loop at two fixed rates with a
//! `Stats` scraper beside it, then at capacity through a closed window.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use bioseq::DnaSeq;
use pim_aligner::service::protocol::{AlignRequest, AlignStatus, Client, Request, Response};
use pim_aligner::service::{self, ServeSummary, ServerHandle, ServiceConfig};
use pim_aligner::{AlignmentOutcome, IndexArtifact, MappedStrand, Platform, MAX_TRACE_SPANS};
use pimsim::HostEpoch;

use crate::batch::{aligner_config, put_kernel_cache, threads};
use crate::check::{verify_outcome, Checks};
use crate::config::{Config, ServeParams};
use crate::inputs;
use crate::report::{median_s, ms, pct_or_zero, secs, Report};
use crate::sim::{put_model_record, SimCounters};
use crate::stats::{self, RunClock};
use crate::trace::Trace;

const MAIN_TRACK: u32 = 0;
const SCRAPE_TRACK: u32 = 1;
/// Service request tracks: `REQUEST_TRACK_BASE + trace_id`.
const REQUEST_TRACK_BASE: u32 = 1_000;

/// Inputs generated before any timing: the serialised artifact, the
/// request pool and the rounds' arrival schedules.
pub struct Inputs {
    reference: DnaSeq,
    artifact: Vec<u8>,
    build_ns: u64,
    save_ns: u64,
    pool: Vec<(String, DnaSeq)>,
    /// Per round: the `light` and `busy` arrival offsets, ns.
    rounds: Vec<(Vec<u64>, Vec<u64>)>,
    capacity_s: f64,
    /// Most requests a capacity phase sends.
    capacity_max: usize,
}

impl Inputs {
    /// Generates everything from `seed`: one round of light, busy and
    /// capacity phases per `round_s` of `seconds`. The traced run is one
    /// round, shortened so that the service's five stage spans per
    /// request fit its span cap: the open-loop phases take at most 70 %
    /// of it, each capacity phase at most 10 %.
    pub fn generate(cfg: &Config, seed: u64, seconds: f64, traced: bool) -> Inputs {
        let s = &cfg.serve;
        let (rounds, scale, capacity_max) = if traced {
            let budget = (MAX_TRACE_SPANS / 5) as f64;
            let open = s.round_s * (s.light_share * s.light_rps + s.busy_share * s.busy_rps);
            (1, (0.7 * budget / open).min(1.0), (0.1 * budget) as usize)
        } else {
            (
                (seconds / s.round_s).floor().max(1.0) as u64,
                1.0,
                usize::MAX,
            )
        };
        let reference = inputs::genome(cfg.genome_len, seed);
        let t0 = Instant::now();
        let artifact = IndexArtifact::build("ref", &reference, 1, 0, 0);
        let t1 = Instant::now();
        let mut bytes = Vec::new();
        artifact.save(&mut bytes).expect("saving to memory");
        let t2 = Instant::now();
        let pool = inputs::clean_reads(&reference, s.pool_reads, seed)
            .into_iter()
            .map(|r| (r.id, r.seq))
            .collect();
        let phase_s = |share: f64| s.round_s * share * scale;
        let rounds = (0..rounds)
            .map(|r| {
                let rs = seed ^ (r << 32);
                (
                    inputs::poisson_schedule(s.light_rps, phase_s(s.light_share), rs ^ 0x11),
                    inputs::poisson_schedule(s.busy_rps, phase_s(s.busy_share), rs ^ 0xb5),
                )
            })
            .collect();
        Inputs {
            reference,
            artifact: bytes,
            build_ns: (t1 - t0).as_nanos() as u64,
            save_ns: (t2 - t1).as_nanos() as u64,
            pool,
            rounds,
            capacity_s: phase_s(s.capacity_share),
            capacity_max,
        }
    }
}

fn service_config(s: &ServeParams) -> ServiceConfig {
    ServiceConfig {
        threads: threads(),
        queue_depth: s.queue_depth,
        ..ServiceConfig::default()
    }
}

/// A booted service and how long each boot step took.
struct Boot {
    handle: ServerHandle,
    platform: Platform,
    load_ns: u64,
    map_ns: u64,
    bind_ns: u64,
    /// Trace-clock time just before `serve` (the service's span clock
    /// starts inside it).
    serve_at_ns: u64,
}

/// Artifact load, warm boot, bind.
fn boot(bytes: &[u8], svc: ServiceConfig, epoch: HostEpoch) -> Boot {
    let t0 = Instant::now();
    let artifact = IndexArtifact::load(bytes).expect("the artifact just saved loads");
    let t1 = Instant::now();
    let [shard] = artifact.shards() else {
        panic!("an unsharded artifact has one shard");
    };
    let platform = Platform::from_index(
        artifact.reference().clone(),
        shard.index().clone(),
        aligner_config(),
    );
    let t2 = Instant::now();
    let serve_at_ns = epoch.now_ns();
    let handle =
        service::serve(platform.clone(), svc, "127.0.0.1:0").expect("loopback bind succeeds");
    let t3 = Instant::now();
    Boot {
        handle,
        platform,
        load_ns: (t1 - t0).as_nanos() as u64,
        map_ns: (t2 - t1).as_nanos() as u64,
        bind_ns: (t3 - t2).as_nanos() as u64,
        serve_at_ns,
    }
}

/// What one request got back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    /// Aligned, and equal to the batch path's outcome for the read.
    Matched { mapped: bool },
    /// Aligned, but not as the batch path aligned the read.
    Mismatched,
    /// Load-shed at admission.
    Shed,
    /// Any other response.
    Error,
}

/// One open-loop or closed-window request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// When the request was due (open loop) or sent (closed window).
    due: Instant,
    sent: Instant,
    answered: Option<(Instant, Answer)>,
    /// Responses received for it (must end at exactly one).
    responses: u32,
}

/// Requests of one phase, indexed by `req_id - first`.
struct Phase {
    name: &'static str,
    first: u64,
    samples: Vec<Sample>,
    start: Instant,
    end: Instant,
    /// Closed-window throughput, responses/s, with stolen time taken
    /// out (0 for open-loop phases).
    rps: f64,
    /// The same in wall time.
    wall_rps: f64,
}

impl Phase {
    /// Latencies (ms, from due time) of requests answered with an
    /// alignment; shed, failed and unanswered requests count as missing.
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter_map(|s| match s.answered {
                Some((at, Answer::Matched { .. } | Answer::Mismatched)) => {
                    Some(ms((at - s.due).as_nanos() as u64))
                }
                _ => None,
            })
            .collect()
    }

    fn lags_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| ms((s.sent - s.due).as_nanos() as u64))
            .collect()
    }
}

/// The batch path's answer for each pool read.
struct Expected {
    status: Vec<AlignStatus>,
}

impl Expected {
    fn answer(&self, req: u64, resp: &Response) -> Answer {
        match resp {
            Response::Aligned { status, .. } => {
                if *status == self.status[req as usize % self.status.len()] {
                    Answer::Matched {
                        mapped: matches!(status, AlignStatus::Mapped { .. }),
                    }
                } else {
                    Answer::Mismatched
                }
            }
            Response::Overloaded { .. } => Answer::Shed,
            _ => Answer::Error,
        }
    }
}

fn status_of(outcome: &AlignmentOutcome, strand: MappedStrand) -> AlignStatus {
    match outcome {
        AlignmentOutcome::Unmapped => AlignStatus::Unmapped,
        AlignmentOutcome::Exact { positions } | AlignmentOutcome::Inexact { positions, .. } => {
            AlignStatus::Mapped {
                reverse: strand == MappedStrand::Reverse,
                diffs: match outcome {
                    AlignmentOutcome::Inexact { diffs, .. } => *diffs,
                    _ => 0,
                },
                positions: positions.iter().map(|&p| p as u64).collect(),
            }
        }
    }
}

fn request(pool: &[(String, DnaSeq)], req_id: u64) -> Request {
    let (id, seq) = &pool[req_id as usize % pool.len()];
    Request::Align(AlignRequest {
        req_id,
        deadline_ms: 0,
        id: id.clone(),
        seq: seq.to_string(),
    })
}

/// Files a response received at `at` under its request.
fn file(samples: &mut [Sample], first: u64, resp: &Response, at: Instant, expected: &Expected) {
    let req = resp.req_id();
    if let Some(s) = req
        .checked_sub(first)
        .and_then(|i| samples.get_mut(i as usize))
    {
        s.responses += 1;
        if s.answered.is_none() {
            s.answered = Some((at, expected.answer(req, resp)));
        }
    }
}

/// Receives one response per sample on `rx` and files them.
fn receive(rx: &mut Client, first: u64, samples: &mut [Sample], expected: &Expected) {
    for _ in 0..samples.len() {
        let Ok(Some(resp)) = rx.recv() else {
            return;
        };
        file(samples, first, &resp, Instant::now(), expected);
    }
}

/// Sends one request per schedule entry, each at its due time, while a
/// second thread receives on the same connection.
fn open_loop(
    name: &'static str,
    client: &mut Client,
    pool: &[(String, DnaSeq)],
    schedule: &[u64],
    first: u64,
    expected: &Expected,
) -> Phase {
    let start = Instant::now();
    let mut samples: Vec<Sample> = schedule
        .iter()
        .map(|&off| {
            let due = start + Duration::from_nanos(off);
            Sample {
                due,
                sent: due,
                answered: None,
                responses: 0,
            }
        })
        .collect();
    let mut rx = client.try_clone().expect("cloning a connected socket");
    let mut sent_at = Vec::with_capacity(schedule.len());
    let mut received = samples.clone();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(&mut rx, first, &mut received, expected));
        for (i, s) in samples.iter().enumerate() {
            let now = Instant::now();
            if s.due > now {
                std::thread::sleep(s.due - now);
            }
            sent_at.push(Instant::now());
            client
                .send(&request(pool, first + i as u64))
                .expect("the service accepts the connection's writes");
        }
        receiver.join().expect("receiver thread");
    });
    for ((s, r), at) in samples.iter_mut().zip(received).zip(sent_at) {
        s.sent = at;
        s.answered = r.answered;
        s.responses = r.responses;
    }
    Phase {
        name,
        first,
        samples,
        start,
        end: Instant::now(),
        rps: 0.0,
        wall_rps: 0.0,
    }
}

/// Keeps `window` requests outstanding for `seconds` (or until `max`
/// are sent), then collects the stragglers.
fn closed_window(
    name: &'static str,
    client: &mut Client,
    pool: &[(String, DnaSeq)],
    window: usize,
    (seconds, max): (f64, usize),
    first: u64,
    expected: &Expected,
) -> Phase {
    let clock = RunClock::now();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let send = |client: &mut Client, samples: &mut Vec<Sample>| {
        let now = Instant::now();
        client
            .send(&request(pool, first + samples.len() as u64))
            .expect("the service accepts the connection's writes");
        samples.push(Sample {
            due: now,
            sent: now,
            answered: None,
            responses: 0,
        });
    };
    for _ in 0..window {
        send(client, &mut samples);
    }
    let mut outstanding = window;
    let mut in_window = 0u64;
    let mut last_in_window = start;
    while outstanding > 0 {
        let Ok(Some(resp)) = client.recv() else {
            break;
        };
        let at = Instant::now();
        outstanding -= 1;
        file(&mut samples, first, &resp, at, expected);
        if at < stop {
            in_window += 1;
            last_in_window = at;
            if samples.len() < max {
                send(client, &mut samples);
                outstanding += 1;
            }
        }
    }
    // The window's length with the phase's share of stolen time taken out.
    let end = RunClock::now();
    let run_share = clock.run_ns(&end) as f64 / clock.wall_ns(&end).max(1) as f64;
    let wall_s = secs((last_in_window - start).as_nanos() as u64).max(1e-9);
    Phase {
        name,
        first,
        samples,
        start,
        end: Instant::now(),
        rps: in_window as f64 / (wall_s * run_share),
        wall_rps: in_window as f64 / wall_s,
    }
}

/// `Stats` round trips on a second connection until `stop` is raised.
fn scrape(addr: &str, hz: f64, stop: &AtomicBool) -> Vec<(Instant, Instant)> {
    let mut client = Client::connect(addr).expect("scraper connects");
    let period = Duration::from_secs_f64(1.0 / hz);
    let mut out = Vec::new();
    let mut next = Instant::now();
    let mut id = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let t0 = Instant::now();
        client.stats(id).expect("Stats is answered inline");
        out.push((t0, Instant::now()));
        id += 1;
        next += period;
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
    }
    out
}

/// Everything one `serve_open` run measured.
struct ServeRun {
    boots: Vec<(u64, u64, u64)>,
    /// Per boot, load + map + bind with stolen time taken out.
    setup_ns: Vec<u64>,
    serve_at_ns: u64,
    phases: Vec<Phase>,
    scrapes: Vec<(Instant, Instant)>,
    summary: ServeSummary,
    sim: SimCounters,
    platform: Platform,
}

impl ServeRun {
    fn phases<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Phase> + 'a {
        self.phases.iter().filter(move |p| p.name == name)
    }

    /// The median over rounds of `f` on each phase named `name`.
    fn round_median(&self, name: &str, f: impl Fn(&Phase) -> Option<f64>) -> Option<f64> {
        let v: Vec<f64> = self.phases(name).filter_map(f).collect();
        (!v.is_empty()).then(|| stats::median(&v))
    }
}

/// Boots the service `setup_reps` times (keeping the last), aligns the
/// pool through the batch path for reference, then runs the rounds with
/// the scraper beside them, and drains. `twice` adds a traced repeat of
/// the capacity phase.
fn drive(
    cfg: &Config,
    input: &Inputs,
    checks: &mut Checks,
    epoch: HostEpoch,
    twice: bool,
) -> ServeRun {
    let s = &cfg.serve;
    let svc = service_config(s);
    let mut boots = Vec::new();
    let mut last: Option<Boot> = None;
    let mut setup_ns = Vec::new();
    for _ in 0..cfg.setup_reps {
        if let Some(b) = last.take() {
            b.handle.begin_drain();
            b.handle.join();
        }
        let t = RunClock::now();
        let b = boot(&input.artifact, svc, epoch);
        setup_ns.push(t.run_ns(&RunClock::now()));
        boots.push((b.load_ns, b.map_ns, b.bind_ns));
        last = Some(b);
    }
    let Boot {
        handle,
        platform,
        serve_at_ns,
        ..
    } = last.expect("at least one boot");

    // The batch path's outcomes for the pool: the reference every
    // response is compared with, and the pool's simulated figures.
    let pool_seqs: Vec<DnaSeq> = input.pool.iter().map(|(_, s)| s.clone()).collect();
    let (pairs, totals) = platform
        .align_chunk_parallel(&pool_seqs, threads(), 0, true)
        .expect("the pool aligns");
    for ((id, seq), (outcome, strand)) in input.pool.iter().zip(&pairs) {
        verify_outcome(
            checks,
            &input.reference,
            id,
            seq,
            outcome,
            *strand,
            platform.config().max_diffs(),
        );
    }
    let sim = SimCounters::of(&platform.batch_report(&totals), &pairs);
    let expected = Expected {
        status: pairs.iter().map(|(o, s)| status_of(o, *s)).collect(),
    };

    let addr = handle.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("client connects");
    let stop = AtomicBool::new(false);
    let (phases, scrapes) = std::thread::scope(|scope| {
        let scraper = scope.spawn(|| scrape(&addr, s.scrape_hz, &stop));
        let mut phases: Vec<Phase> = Vec::new();
        // Request ids run on across phases, in send order.
        let next = |phases: &[Phase]| {
            phases
                .last()
                .map_or(0, |p| p.first + p.samples.len() as u64)
        };
        let plan = (input.capacity_s, input.capacity_max);
        let window = s.capacity_window;
        for (light, busy) in &input.rounds {
            for (name, schedule) in [("light", light), ("busy", busy)] {
                let first = next(&phases);
                phases.push(open_loop(
                    name,
                    &mut client,
                    &input.pool,
                    schedule,
                    first,
                    &expected,
                ));
            }
            let first = next(&phases);
            phases.push(closed_window(
                "capacity",
                &mut client,
                &input.pool,
                window,
                plan,
                first,
                &expected,
            ));
        }
        if twice {
            let first = next(&phases);
            phases.push(closed_window(
                "capacity.traced",
                &mut client,
                &input.pool,
                window,
                plan,
                first,
                &expected,
            ));
        }
        stop.store(true, Ordering::Relaxed);
        (phases, scraper.join().expect("scraper thread"))
    });
    drop(client);
    handle.begin_drain();
    let summary = handle.join();
    ServeRun {
        boots,
        setup_ns,
        serve_at_ns,
        phases,
        scrapes,
        summary,
        sim,
        platform,
    }
}

/// Counts answers, checks answered-exactly-once and batch agreement, and
/// fills `report.attempted` / `report.failed`. Returns mapped answers.
fn account(run: &ServeRun, report: &mut Report, checks: &mut Checks) -> u64 {
    let mut mapped = 0u64;
    let mut kinds: HashMap<&'static str, u64> = HashMap::new();
    for phase in &run.phases {
        for (i, s) in phase.samples.iter().enumerate() {
            let req = phase.first + i as u64;
            report.attempted += 1;
            checks.check(s.responses == 1, || {
                format!("{} request {req}: {} responses", phase.name, s.responses)
            });
            let kind = match s.answered {
                Some((_, Answer::Matched { mapped: m })) => {
                    mapped += u64::from(m);
                    "aligned"
                }
                Some((_, Answer::Mismatched)) => {
                    checks.check(false, || {
                        format!(
                            "{} request {req}: response differs from the batch path",
                            phase.name
                        )
                    });
                    "mismatched"
                }
                Some((_, Answer::Shed)) => "shed",
                Some((_, Answer::Error)) => "error",
                None => "unanswered",
            };
            if kind != "aligned" {
                report.failed += 1;
            }
            *kinds.entry(kind).or_default() += 1;
        }
    }
    let t = run.summary.telemetry;
    checks.check(t.responses == t.accepted, || {
        format!(
            "service answered {} of {} accepted",
            t.responses, t.accepted
        )
    });
    let mut kinds: Vec<_> = kinds.into_iter().collect();
    kinds.sort();
    report.note(format!("serve answers: {kinds:?}"));
    mapped
}

fn check_lag(run: &ServeRun, max_lag_ms: f64, report: &mut Report, checks: &mut Checks) {
    let lags: Vec<f64> = run
        .phases
        .iter()
        .filter(|p| p.name == "light" || p.name == "busy")
        .flat_map(Phase::lags_ms)
        .collect();
    let lag_p99 = pct_or_zero(&lags, 0.99);
    report.put("gen.lag_ms.p99", lag_p99);
    report.note(format!(
        "generator lag: p50 {:.3} ms, p99 {lag_p99:.3} ms over {} requests",
        pct_or_zero(&lags, 0.5),
        lags.len()
    ));
    checks.check(lag_p99 <= max_lag_ms, || {
        format!("open-loop generator fell behind: lag p99 {lag_p99:.3} ms > {max_lag_ms} ms; run invalid")
    });
}

/// The untraced `serve_open` run: end-to-end metrics.
pub fn run_timed(
    cfg: &Config,
    input: &Inputs,
    report: &mut Report,
    checks: &mut Checks,
) -> SimCounters {
    let run = drive(cfg, input, checks, HostEpoch::new(), false);
    let mapped = account(&run, report, checks);
    check_lag(&run, cfg.serve.max_lag_ms, report, checks);
    report.put("setup_s", median_s(&run.setup_ns));
    report.put(
        "mapped_frac",
        mapped as f64 / report.attempted.max(1) as f64,
    );
    report.put("sim_qps", run.sim.qps);
    report.put("sim_qps_per_w", run.sim.qps_per_w);
    // Each figure is the median over rounds of the round's value, so a
    // slow spell of the host in one round does not move it.
    let rounds = input.rounds.len();
    let capacity = run.round_median("capacity", |p| Some(p.rps));
    report.put("reads_per_s", capacity.unwrap_or(0.0));
    report.note(format!(
        "capacity: median {:.1} responses/s in wall time, {:.1} with stolen time taken out",
        run.round_median("capacity", |p| Some(p.wall_rps))
            .unwrap_or(0.0),
        capacity.unwrap_or(0.0)
    ));
    let pct = |name: &str, q: f64| {
        run.round_median(name, |p| {
            stats::supported_percentile(&p.latencies_ms(), q).map(|v| v.value)
        })
        .unwrap_or(0.0)
    };
    let count = |name: &str| -> usize { run.phases(name).map(|p| p.samples.len()).sum() };
    report.note(format!(
        "{rounds} rounds of light {} req/s, busy {} req/s and a closed window of {}; \
         medians over rounds: light p50 {:.3} ms, p99 {:.3} ms ({} requests); \
         busy p50 {:.3} ms, p99 {:.3} ms ({} requests)",
        cfg.serve.light_rps,
        cfg.serve.busy_rps,
        cfg.serve.capacity_window,
        pct("light", 0.50),
        pct("light", 0.99),
        count("light"),
        pct("busy", 0.50),
        pct("busy", 0.99),
        count("busy"),
    ));
    run.sim.clone()
}

/// The traced `serve_open` run: per-layer metrics.
pub fn run_traced(
    cfg: &Config,
    input: &Inputs,
    report: &mut Report,
    checks: &mut Checks,
    trace: &mut Trace,
) -> SimCounters {
    let epoch = HostEpoch::new();
    let t_run = Instant::now();
    let run = drive(cfg, input, checks, epoch, true);
    account(&run, report, checks);
    check_lag(&run, cfg.serve.max_lag_ms, report, checks);
    let at = |i: Instant| (i - t_run).as_nanos() as u64;

    trace.name_track(MAIN_TRACK, "benchmark");
    trace.name_track(SCRAPE_TRACK, "stats-scraper");
    let root = trace.add("run", MAIN_TRACK, None, None, 0, epoch.now_ns());
    // Boot steps of the kept (last) boot, laid end to end before `serve`.
    let (load, map, bind) = *run.boots.last().expect("booted");
    let b0 = run.serve_at_ns.saturating_sub(load + map);
    let boot_span = trace.add(
        "setup",
        MAIN_TRACK,
        Some(root),
        None,
        b0,
        run.serve_at_ns + bind,
    );
    trace.add(
        "artifact.load",
        MAIN_TRACK,
        Some(boot_span),
        None,
        b0,
        b0 + load,
    );
    trace.add(
        "mapping.boot",
        MAIN_TRACK,
        Some(boot_span),
        None,
        b0 + load,
        run.serve_at_ns,
    );
    trace.add(
        "service.bind",
        MAIN_TRACK,
        Some(boot_span),
        None,
        run.serve_at_ns,
        run.serve_at_ns + bind,
    );
    for phase in &run.phases {
        let p = trace.add(
            phase.name,
            MAIN_TRACK,
            Some(root),
            None,
            at(phase.start),
            at(phase.end),
        );
        for (i, s) in phase.samples.iter().enumerate() {
            if let Some((done, _)) = s.answered {
                let req = phase.first + i as u64;
                trace.add(
                    "request",
                    MAIN_TRACK,
                    Some(p),
                    Some(req),
                    at(s.sent),
                    at(done),
                );
            }
        }
    }
    for &(t0, t1) in &run.scrapes {
        trace.add("obs.scrape", SCRAPE_TRACK, Some(root), None, at(t0), at(t1));
    }
    // The service's stage spans, one track per request. Trace ids are
    // minted in admission order on the one align connection and request
    // ids are numbered in send order, so the r-th smallest trace id is
    // request r: its stage spans share the request's key.
    let service_spans = run
        .summary
        .report
        .as_ref()
        .map_or(&[][..], |r| r.host.spans.as_slice());
    let mut tids: Vec<u32> = service_spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        trace.name_track(REQUEST_TRACK_BASE + tid, format!("req-{tid}"));
    }
    let request_of = |tid: u32| tids.binary_search(&tid).ok().map(|r| r as u64);
    trace.import_host(
        service_spans,
        run.serve_at_ns,
        REQUEST_TRACK_BASE,
        root,
        request_of,
    );

    // Set-up layers.
    report.put("fmindex.build_s", secs(input.build_ns));
    report.put("artifact.save_s", secs(input.save_ns));
    report.put("artifact.bytes", input.artifact.len() as f64);
    report.put("artifact.load_s", secs(load));
    report.put("mapping.boot_s", secs(map));

    // Service layers, over the busy phase's requests.
    let busy_tids: std::collections::HashSet<u32> = run
        .phases("busy")
        .flat_map(|p| tids.iter().skip(p.first as usize).take(p.samples.len()))
        .copied()
        .collect();
    let stage_ms = |name: &str| -> Vec<f64> {
        service_spans
            .iter()
            .filter(|s| s.name == name && busy_tids.contains(&s.tid))
            .map(|s| ms(s.dur_ns))
            .collect()
    };
    report.put_percentile("service.queue_wait_ms.p50", &stage_ms("queued"), 0.50);
    report.put_percentile("service.queue_wait_ms.p99", &stage_ms("queued"), 0.99);
    report.put_percentile("service.align_ms.p50", &stage_ms("aligned"), 0.50);
    let t = run.summary.telemetry;
    report.put(
        "service.batch_width_mean",
        t.accepted as f64 / t.batches.max(1) as f64,
    );
    report.put("service.queue_depth_max", t.peak_queue_depth as f64);
    report.put("service.shed", t.shed_total() as f64);
    let scrape_ms: Vec<f64> = run
        .scrapes
        .iter()
        .map(|&(a, b)| ms((b - a).as_nanos() as u64))
        .collect();
    report.put_percentile("obs.scrape_ms.p50", &scrape_ms, 0.50);
    report.put_percentile("obs.scrape_ms.p99", &scrape_ms, 0.99);
    for name in ["light", "busy"] {
        let latencies: Vec<f64> = run.phases(name).flat_map(Phase::latencies_ms).collect();
        report.put_percentile(&format!("serve.{name}.p50_ms"), &latencies, 0.50);
        report.put_percentile(&format!("serve.{name}.p99_ms"), &latencies, 0.99);
    }
    let rps = |name: &str| run.round_median(name, |p| Some(p.rps)).unwrap_or(0.0);
    report.put(
        "trace.overhead_pct",
        100.0 * (rps("capacity") / rps("capacity.traced") - 1.0),
    );
    let dropped = run
        .summary
        .report
        .as_ref()
        .map_or(0, |r| r.host.spans_dropped);
    report.put("trace.spans", trace.spans().len() as f64);
    report.put("trace.spans_dropped", dropped as f64);
    checks.check(dropped == 0, || {
        format!("{dropped} service spans dropped; shorten the traced phases")
    });

    // Aligner and simulator layers: the service's own totals where it
    // keeps them, the pool's batch-path counters otherwise.
    if let Some(served) = &run.summary.report {
        let busy: u64 = served.host.workers.iter().map(|w| w.busy_ns).sum();
        let max = served
            .host
            .workers
            .iter()
            .map(|w| w.busy_ns)
            .max()
            .unwrap_or(0);
        let n = threads() as f64;
        report.put(
            "parallel.busy_pct",
            100.0 * busy as f64 / (n * served.host.wall_ns.max(1) as f64),
        );
        report.put(
            "parallel.balance_pct",
            100.0 * busy as f64 / n / max.max(1) as f64,
        );
        report.put(
            "kernel.lfm_per_s",
            served.lfm_calls as f64 / secs(served.host.wall_ns.max(1)),
        );
        put_kernel_cache(report, served);
    }
    run.sim.put_layers(report);
    put_model_record(
        report,
        &input.reference,
        run.platform.mapped().index().clone(),
        cfg.model_sample_reads,
    );
    for (name, why) in [
        (
            "parallel.chunk_ms.p50",
            "the service aligns untraced; no chunk spans",
        ),
        (
            "parallel.chunk_ms.p99",
            "the service aligns untraced; no chunk spans",
        ),
        (
            "exact.self_s",
            "the service aligns untraced; no stage spans",
        ),
        (
            "inexact.self_s",
            "the service aligns untraced; no stage spans",
        ),
        (
            "locate.self_s",
            "the service aligns untraced; no stage spans",
        ),
        (
            "inexact.align_share_pct",
            "the service aligns untraced; no stage spans",
        ),
        (
            "inexact.passes",
            "the service aligns untraced; no stage spans",
        ),
        (
            "inexact.hit_frac",
            "the service aligns untraced; no stage spans",
        ),
        ("bioseq.parse_s", "requests carry sequence text, not FASTQ"),
        ("sam.write_s", "responses carry positions, not SAM"),
    ] {
        report.absent(name, why);
    }
    run.sim.clone()
}
