//! The ldb benchmark: one command, three workloads, every output checked.
//!
//! ```text
//! ldbperf --workload <tenant_tcp|fleet_triage|bigunit_cli> --seed <n>
//!         --seconds <s> --trace <0|1> --ldb <path to ldb> --work <dir>
//! ```
//!
//! With `--trace 0` it measures what a user waits for and prints the
//! end-to-end metrics; with `--trace 1` it repeats the workload's
//! operations through each layer's entry point and prints the per-layer
//! metrics and an attribution of each end-to-end p50 to layer self
//! times. The last line of standard output is the result as one JSON
//! object.

mod cli;
mod fleet;
mod probe;
mod stats;
mod tenant;

use std::path::PathBuf;

use stats::Report;

/// The end-to-end metrics every workload reports: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("session_ms_p50", "ms"),
    ("session_ms_p90", "ms"),
    ("sessions_per_s", "1/s"),
];

/// The per-layer metrics of the traced run. A workload whose operations
/// do not cross a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 62] = [
    ("net.ping_ms_p50", "ms"),
    ("net.open_ms_p50", "ms"),
    ("net.stop_ms_p50", "ms"),
    ("net.inspect_ms_p50", "ms"),
    ("net.requests", "count"),
    ("daemon.open_ms_p50", "ms"),
    ("daemon.stop_ms_p50", "ms"),
    ("daemon.inspect_ms_p50", "ms"),
    ("session.open_ms_p50", "ms"),
    ("session.run_ms_p50", "ms"),
    ("session.close_ms_p50", "ms"),
    ("session.run_hop_us_p50", "us"),
    ("session.threads", "count"),
    ("proc.peak_rss_mb", "MiB"),
    ("core.attach_ms_p50", "ms"),
    ("core.stop_ms_p50", "ms"),
    ("core.inspect_ms_p50", "ms"),
    ("core.script_ms_p50", "ms"),
    ("core.cmd_us.p", "us"),
    ("core.cmd_us.bt", "us"),
    ("core.cmd_us.e", "us"),
    ("core.cmd_us.regs", "us"),
    ("core.cmd_us.f", "us"),
    ("core.write_ms", "ms"),
    ("core.checkpoint_ms", "ms"),
    ("core.reverse_ms", "ms"),
    ("core.attach_eager_ms", "ms"),
    ("core.attach_lazy_ms", "ms"),
    ("core.first_break_eager_ms", "ms"),
    ("core.first_break_lazy_ms", "ms"),
    ("core.inprocess_session_ms", "ms"),
    ("nub.attach_wait_ms_p50", "ms"),
    ("nub.attach_probes", "count"),
    ("nub.stop_wait_ms_p50", "ms"),
    ("nub.fetch_us_p50", "us"),
    ("nub.txns.stop", "count"),
    ("nub.txns.inspect", "count"),
    ("nub.bytes.inspect", "bytes"),
    ("nub.retransmits", "count"),
    ("cache.hit_ratio.inspect", "ratio"),
    ("cache.invalidated.write", "count"),
    ("ps.compile_ms", "ms"),
    ("ps.cache_hit_us", "us"),
    ("cc.compile_ms", "ms"),
    ("cc.symtab_ms", "ms"),
    ("machine.run_ms", "ms"),
    ("machine.steps", "count"),
    ("checkpoint.raw_bytes", "bytes"),
    ("checkpoint.packed_bytes", "bytes"),
    ("compress.mb_per_s", "MB/s"),
    ("fleet.prepare_ms", "ms"),
    ("fleet.session_ms_p50.clean", "ms"),
    ("fleet.session_ms_p50.script-error", "ms"),
    ("fleet.session_ms_p50.panic-quarantined", "ms"),
    ("fleet.session_ms_p50.wire-lost", "ms"),
    ("fleet.attempts_per_session", "count"),
    ("fleet.outcomes.clean", "count"),
    ("fleet.outcomes.script-error", "count"),
    ("fleet.outcomes.panic-quarantined", "count"),
    ("fleet.outcomes.wire-lost", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.records", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ldb: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut ldb, mut work) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--ldb" => ldb = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds must be > 0")?,
        trace: trace.unwrap_or(false),
        ldb: ldb.ok_or("--ldb is required")?,
        work: work.ok_or("--work is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ldbperf: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "tenant_tcp" => tenant::run(args.seed, args.seconds, args.trace),
        "fleet_triage" => fleet::run(args.seed, args.seconds, args.trace),
        "bigunit_cli" => cli::run(args.seed, args.seconds, args.trace, &args.ldb, &args.work),
        other => {
            eprintln!("ldbperf: unknown workload {other} (tenant_tcp|fleet_triage|bigunit_cli)");
            std::process::exit(2);
        }
    };
    print_result(&args.workload, report, args.trace);
}

fn print_result(workload: &str, mut report: Report, trace: bool) {
    let wanted: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    for (name, _) in END_TO_END.iter().filter(|_| !trace) {
        if !report.get(name).is_some_and(|v| v.is_finite() && v > 0.0) {
            report.check(false, || {
                format!("end-to-end metric {name} missing or not positive")
            });
        }
    }
    let unlisted: Vec<String> = report
        .metrics
        .iter()
        .filter(|m| {
            !m.value.is_finite()
                || !END_TO_END
                    .iter()
                    .chain(&PER_LAYER)
                    .any(|(n, u)| *n == m.name && *u == m.unit)
        })
        .map(|m| {
            format!(
                "metric {} ({}) = {} is not a listed finite metric",
                m.name, m.unit, m.value
            )
        })
        .collect();
    for e in unlisted {
        report.check(false, || e);
    }
    println!("# machine: {}", machine());
    for line in &report.notes {
        println!("# {line}");
    }
    for m in &report.metrics {
        println!(
            "{workload} {:<42} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{workload} fail_ratio {} ({} failed / {} attempted)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = report.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

/// Cores and CPU model, printed with every result.
fn machine() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} cpu={cpu}")
}
