//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>]`
//!
//! Generates the workload's inputs from the seed, runs it, checks the
//! outputs and prints, as its last line, one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exit codes: 0 success, 1 a correctness check failed,
//! 2 usage, 3 the run overran its time limit.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use e2ebench::batch::{self, Profile};
use e2ebench::check::Checks;
use e2ebench::config::Config;
use e2ebench::report::Report;
use e2ebench::serve;
use e2ebench::sim::SimCounters;
use e2ebench::stats;
use e2ebench::trace::Trace;

/// A run that has not finished by now is killed: the benchmark must
/// exit within 180 s.
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut out = target.join("e2ebench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let cfg = Config::embedded();
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(cfg.default_seed),
        seconds: seconds.unwrap_or(10.0),
        trace,
        out,
    })
}

/// Identifies this build, so that records from an older build are not
/// compared with this one.
fn build_id() -> String {
    std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}:{mtime}", m.len())
        })
        .unwrap_or_default()
}

/// Compares this run's SAM hash and simulated counters with the record
/// an earlier run of the same build left for the same workload and seed,
/// then leaves this run's record.
fn cross_run_check(args: &Args, fingerprint: &str, checks: &mut Checks) {
    let dir = args.out.join("records");
    let path = dir.join(format!("{}-{}.txt", args.workload, args.seed));
    let line = format!("build={} {fingerprint}\n", build_id());
    if let Ok(prev) = std::fs::read_to_string(&path) {
        let same_build = prev.split(' ').next() == line.split(' ').next();
        checks.check(!same_build || prev == line, || {
            format!("output differs from an earlier run at this seed:\n  was {prev}  now {line}")
        });
    }
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, &line))
        .is_err()
    {
        eprintln!("e2ebench: cannot write {}", path.display());
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let cfg = Config::embedded();
    let mut report = Report::new();
    let mut checks = Checks::new();
    let mut trace = Trace::new();
    let sam_and_sim: (u64, SimCounters) = match args.workload.as_str() {
        name @ ("exact_fwd" | "paper_reads") => {
            let profile = if name == "exact_fwd" {
                Profile::Exact
            } else {
                Profile::Paper
            };
            let input = batch::Inputs::generate(&cfg, profile, args.seed);
            if args.trace {
                batch::run_traced(&cfg, profile, &input, &mut report, &mut checks, &mut trace)
            } else {
                batch::run_timed(
                    &cfg,
                    profile,
                    &input,
                    args.seconds,
                    &mut report,
                    &mut checks,
                )
            }
        }
        "serve_open" => {
            let input = serve::Inputs::generate(&cfg, args.seed, args.seconds, args.trace);
            let sim = if args.trace {
                serve::run_traced(&cfg, &input, &mut report, &mut checks, &mut trace)
            } else {
                serve::run_timed(&cfg, &input, &mut report, &mut checks)
            };
            (0, sim)
        }
        other => {
            return Err(format!(
                "unknown workload {other} (exact_fwd, paper_reads, serve_open)"
            ))
        }
    };
    let (sam_hash, sim) = sam_and_sim;
    let fingerprint = format!("sam={sam_hash:016x} sim={sim:?}");
    report.note(format!("fingerprint: {fingerprint}"));
    cross_run_check(args, &fingerprint, &mut checks);
    let rss = stats::peak_rss_mib().ok_or("cannot read peak RSS from /proc/self/status")?;
    report.put("peak_rss_mb", rss);

    let wanted = if args.trace {
        &cfg.per_layer
    } else {
        &cfg.end_to_end
    };
    if args.trace {
        absent_elsewhere(&args.workload, &mut report);
        let path = args
            .out
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        match std::fs::create_dir_all(&args.out)
            .and_then(|()| std::fs::write(&path, trace.chrome_json()))
        {
            Ok(()) => report.note(format!("chrome trace: {}", path.display())),
            Err(e) => eprintln!("e2ebench: cannot write {}: {e}", path.display()),
        }
        println!("self time by span ({} spans):", trace.spans().len());
        print!("{}", trace.self_time_table());
    }
    for note in report.notes() {
        println!("# {note}");
    }
    print!("{}", report.table(wanted));
    let passed = checks.passed();
    println!(
        "# checks: {} made, {} passed",
        checks.made,
        if passed { "all" } else { "not all" }
    );
    if !passed {
        eprint!("{}", checks.report());
    }
    println!("{}", report.result_line(wanted, passed)?);
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Per-layer metrics of layers a workload does not exercise, reported as
/// absent with the reason.
fn absent_elsewhere(workload: &str, report: &mut Report) {
    if workload == "serve_open" {
        return;
    }
    let why = "batch workloads do not run the service";
    for name in [
        "service.queue_wait_ms.p50",
        "service.queue_wait_ms.p99",
        "service.batch_width_mean",
        "service.queue_depth_max",
        "service.shed",
        "service.align_ms.p50",
        "obs.scrape_ms.p50",
        "obs.scrape_ms.p99",
        "serve.light.p50_ms",
        "serve.light.p99_ms",
        "serve.busy.p50_ms",
        "serve.busy.p99_ms",
        "gen.lag_ms.p99",
    ] {
        report.absent(name, why);
    }
    for name in ["artifact.save_s", "artifact.load_s", "artifact.bytes"] {
        report.absent(name, "batch workloads build the index in process");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // The watchdog ends a hung run; it never outlives the process.
    std::thread::spawn(|| {
        std::thread::sleep(HARD_LIMIT);
        eprintln!(
            "e2ebench: run exceeded {} s; aborting",
            HARD_LIMIT.as_secs()
        );
        std::process::exit(3);
    });
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
