//! `fleet_triage`: `ldb_fleet::run_fleet` with two workers over a seeded
//! 60-session slice of the demo corpus.
//!
//! The slice is 64 consecutive corpus indices (every template on every
//! arch) minus the wedge slots: a wedge's spinning target takes one of
//! the two cores and its 250 ms watchdog measures a configured deadline,
//! not the program. The workload skips TCP and the daemon and exercises
//! attach, retries, chaos and bucketing at batch scale.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ldb_suite::core::{CloseReason, LdbError, ModuleCache, Session, SessionBuilder, SessionConfig};
use ldb_suite::fleet::corpus::{spec_for, WHEEL};
use ldb_suite::fleet::report::bucket_report;
use ldb_suite::fleet::{
    prepare_target, run_fleet, FleetConfig, FleetOutcome, PreparedTarget, SessionResult,
    SessionSpec,
};
use ldb_suite::machine::Arch;
use ldb_suite::nub::{spawn, NubConfig};
use ldb_suite::trace::Trace;

use crate::probe;
use crate::stats::{median_s, ms, peak_rss_mb, timed, Report, Rng, Samples};

/// Consecutive corpus indices in one slice (4 wheels: every template on
/// every arch).
const SLICE: usize = 4 * WHEEL;
/// The wedge template's slot on the wheel.
const WEDGE_SLOT: usize = WHEEL - 1;

fn slice(offset: usize) -> Vec<SessionSpec> {
    (offset..offset + SLICE)
        .filter(|i| i % WHEEL != WEDGE_SLOT)
        .map(spec_for)
        .collect()
}

fn config(trace: Trace) -> FleetConfig {
    FleetConfig {
        workers: 2,
        trace,
        ..FleetConfig::default()
    }
}

/// The outcomes a corpus family may end in.
fn allowed(family: &str, o: FleetOutcome) -> bool {
    use FleetOutcome::*;
    match family {
        "healthy" => o == Clean,
        // Corrupted reads may fail commands, trip the panic quarantine
        // or lose the nub (a corrupted frame walk can kill the target);
        // never wedge or shed.
        "chaos" => matches!(o, Clean | ScriptError | PanicQuarantined | WireLost),
        "script-error" => o == ScriptError,
        "fault" => matches!(o, Clean | WireLost | ScriptError),
        "panic" => o == PanicQuarantined,
        _ => false,
    }
}

/// Check each session of one batch; return the canonical bucket report.
fn check_batch(report: &mut Report, specs: &[SessionSpec], results: &[SessionResult]) -> String {
    report.check(results.len() == specs.len(), || {
        format!("{} results for {} specs", results.len(), specs.len())
    });
    for r in results {
        let family = r.name.split('/').nth(1).unwrap_or("");
        let journal_ok = r.journal.as_ref().is_none_or(|j| j.consistent());
        report.check(allowed(family, r.outcome) && journal_ok, || {
            format!(
                "{}: outcome {} (journal consistent: {journal_ok})",
                r.name,
                r.outcome.token()
            )
        });
    }
    bucket_report(results)
}

struct Batches {
    session: Samples,
    by_outcome: Vec<(&'static str, Samples)>,
    attempts: Samples,
    sessions: usize,
    elapsed: Duration,
}

/// Run whole batches until `window` has passed; every batch's bucket
/// report must equal `pin` (set by the first batch if empty).
fn batches(
    report: &mut Report,
    specs: &[SessionSpec],
    window: Duration,
    trace: Trace,
    pin: &mut String,
) -> Batches {
    let mut b = Batches {
        session: Samples::default(),
        by_outcome: Vec::new(),
        attempts: Samples::default(),
        sessions: 0,
        elapsed: Duration::ZERO,
    };
    let cfg = config(trace);
    let start = Instant::now();
    while start.elapsed() < window {
        let results = match run_fleet(&cfg, specs) {
            Ok(r) => r,
            Err(e) => {
                report.check(false, || format!("run_fleet: {e}"));
                break;
            }
        };
        let buckets = check_batch(report, specs, &results);
        if pin.is_empty() {
            *pin = buckets;
        } else {
            report.check(*pin == buckets, || {
                "bucket report differs between batches".into()
            });
        }
        for r in &results {
            b.session.push(ms(r.wall));
            b.attempts.push(f64::from(r.attempts));
            let tok = r.outcome.token();
            match b.by_outcome.iter_mut().find(|(t, _)| *t == tok) {
                Some((_, s)) => s.push(ms(r.wall)),
                None => {
                    let mut s = Samples::default();
                    s.push(ms(r.wall));
                    b.by_outcome.push((tok, s));
                }
            }
        }
        b.sessions += results.len();
    }
    b.elapsed = start.elapsed();
    b
}

/// A slice's distinct targets, compiled once, by (arch, source).
type Prepared = Vec<(Arch, String, Arc<PreparedTarget>)>;

/// Compile every distinct target of the slice, as `run_fleet` does first.
fn prepare_all(specs: &[SessionSpec]) -> Result<Prepared, String> {
    let cache = ModuleCache::new();
    let mut out: Prepared = Vec::new();
    for s in specs {
        if !out
            .iter()
            .any(|(a, src, _)| *a == s.arch && *src == s.source)
        {
            let target = prepare_target(s.arch, &s.source, &cache)?;
            out.push((s.arch, s.source.clone(), Arc::new(target)));
        }
    }
    Ok(out)
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(seed);
    let offset = rng.below(1 << 16) as usize;
    let specs = slice(offset);
    report.note(format!(
        "corpus slice: indices {offset}..{} minus wedge slots ({} sessions)",
        offset + SLICE,
        specs.len()
    ));

    // Set-up, three times: compile the slice's targets, then a warm-up
    // batch of four healthy sessions, two per worker. (Equal sessions keep
    // the batch's makespan from depending on which worker draws a
    // retried fault session.)
    let mut times = Vec::new();
    let mut prepare = Samples::default();
    let mut pin = String::new();
    let mut prepared = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let (d, p) = timed(|| prepare_all(&specs));
        prepare.push(ms(d));
        match p {
            Ok(p) => prepared = p,
            Err(e) => {
                report.check(false, || format!("prepare: {e}"));
                return report;
            }
        }
        let warm: Vec<SessionSpec> = specs
            .iter()
            .filter(|s| s.name.contains("/healthy/"))
            .take(4)
            .cloned()
            .collect();
        match run_fleet(&config(Trace::off()), &warm) {
            Ok(r) => {
                check_batch(&mut report, &warm, &r);
            }
            Err(e) => report.check(false, || format!("warm-up: {e}")),
        }
        times.push(t.elapsed());
    }
    report.metric("setup_s", median_s(&times), "s", times.len());

    let window = Duration::from_secs_f64(if trace { seconds * 0.3 } else { seconds });
    let u = batches(&mut report, &specs, window, Trace::off(), &mut pin);
    report.note("bucket report (identical in every batch):");
    for line in pin.lines() {
        report.note(format!("  {line}"));
    }
    if !trace {
        report.latency("session_ms", &u.session);
        report.metric(
            "sessions_per_s",
            u.sessions as f64 / u.elapsed.as_secs_f64(),
            "1/s",
            u.sessions,
        );
        report.metric("proc.peak_rss_mb", peak_rss_mb(), "MiB", 1);
        return report;
    }

    // Traced: the same batches with the fleet journal on.
    let journal = Trace::ring(1 << 16);
    let t = batches(&mut report, &specs, window, journal.clone(), &mut pin);
    report.metric(
        "trace.overhead_pct",
        100.0 * (t.session.p50() - u.session.p50()) / u.session.p50(),
        "%",
        t.session.len(),
    );
    let records = journal.counts().total();
    report.metric("trace.records", records as f64, "count", 1);
    let session_records = journal.kind_count(ldb_suite::trace::Layer::Fleet, "session");
    report.check(session_records == t.sessions as u64, || {
        format!(
            "fleet journal has {session_records} session records for {} sessions",
            t.sessions
        )
    });
    report.metric("fleet.prepare_ms", prepare.p50(), "ms", prepare.len());
    report.metric(
        "fleet.attempts_per_session",
        u.attempts.sum() / u.attempts.len().max(1) as f64,
        "count",
        u.attempts.len(),
    );
    let batches_run = (u.sessions / specs.len()).max(1) as f64;
    for (tok, s) in &u.by_outcome {
        report.metric(
            format!("fleet.session_ms_p50.{tok}"),
            s.p50(),
            "ms",
            s.len(),
        );
        report.metric(
            format!("fleet.outcomes.{tok}"),
            s.len() as f64 / batches_run,
            "count",
            s.len(),
        );
    }

    // Peel one clean session: the healthy spec's script through
    // `Session` (what the fleet supervises) and through `run_script` on
    // a local `Ldb` (what the session worker runs).
    let healthy: Vec<&SessionSpec> = specs
        .iter()
        .filter(|s| s.name.contains("/healthy/"))
        .collect();
    let mut open = Samples::default();
    let mut run = Samples::default();
    let mut close = Samples::default();
    let mut hop = Samples::default();
    let mut attach = Samples::default();
    let mut script = Samples::default();
    let mut pins: Vec<(String, String)> = Vec::new();
    let cycles = 8;
    for i in 0..cycles {
        let spec = healthy[i % healthy.len()];
        let Some((_, _, target)) = prepared
            .iter()
            .find(|(a, src, _)| *a == spec.arch && *src == spec.source)
        else {
            report.check(false, || format!("no prepared target for {}", spec.name));
            continue;
        };
        let cfg = SessionConfig {
            watchdog: Some(config(Trace::off()).watchdog),
            ..SessionConfig::default()
        };
        let (d, s) = timed(|| Session::open(cfg, builder(Arc::clone(target))));
        let mut s = match s {
            Ok(s) => s,
            Err(e) => {
                report.check(false, || format!("session open: {e}"));
                continue;
            }
        };
        open.push(ms(d));
        let (d, t) = timed(|| s.run(&spec.script));
        check_transcript(
            &mut report,
            &mut pins,
            &spec.name,
            t.map_err(|e| e.to_string()),
        );
        run.push(ms(d));
        for _ in 0..10 {
            let (d, r) = timed(|| s.run(""));
            report.check(r.is_ok(), || format!("empty run: {r:?}"));
            hop.push(ms(d) * 1e3);
        }
        let (d, r) = timed(|| s.close(CloseReason::ClientRequest));
        report.check(r.is_ok(), || format!("session close: {r:?}"));
        close.push(ms(d));

        let mut ldb = ldb_suite::core::Ldb::new();
        let (d, r) = timed(|| builder(Arc::clone(target))(&mut ldb));
        report.check(r.is_ok(), || format!("core attach: {r:?}"));
        if r.is_err() {
            continue;
        }
        attach.push(ms(d));
        let (d, t) = timed(|| ldb_suite::core::run_script(&mut ldb, &spec.script));
        check_transcript(&mut report, &mut pins, &spec.name, Ok(t));
        script.push(ms(d));
        ldb.detach_all_with_deadline(Duration::from_millis(200));
    }
    let rotation: Vec<_> = healthy.iter().map(|s| s.arch).collect();
    let nub = probe::nub_probe(&mut report, &rotation, cycles);
    report.metric("session.open_ms_p50", open.p50(), "ms", open.len());
    report.metric("session.run_ms_p50", run.p50(), "ms", run.len());
    report.metric("session.close_ms_p50", close.p50(), "ms", close.len());
    report.metric("session.run_hop_us_p50", hop.p50(), "us", hop.len());
    report.metric("core.attach_ms_p50", attach.p50(), "ms", attach.len());
    report.metric("core.script_ms_p50", script.p50(), "ms", script.len());
    nub.emit(&mut report);

    let clean = u
        .by_outcome
        .iter()
        .find(|(t, _)| *t == "clean")
        .map_or(0.0, |(_, s)| s.p50());
    let supervised = open.p50() + run.p50() + close.p50();
    report.attribution(
        "fleet.session_ms_p50.clean",
        clean,
        &[
            (
                "fleet (supervision, journal check, bucketing)",
                clean - supervised,
            ),
            (
                "session (channel hops, worker start/stop)",
                supervised - attach.p50() - script.p50(),
            ),
            (
                "core attach excl. nub wait",
                attach.p50() - nub.attach_wait.p50(),
            ),
            ("nub attach wait (event poll)", nub.attach_wait.p50()),
            ("core script (b, c, p, bt, c, p)", script.p50()),
        ],
    );
    report.note(format!(
        "session_ms_p50 {:.3} ms over all outcomes; clean sessions are {} of {}",
        u.session.p50(),
        u.by_outcome
            .iter()
            .find(|(t, _)| *t == "clean")
            .map_or(0, |(_, s)| s.len()),
        u.sessions
    ));
    report.metric("proc.peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report
}

/// A clean session's transcript: no error line, and identical for every
/// run of the same spec.
fn check_transcript(
    report: &mut Report,
    pins: &mut Vec<(String, String)>,
    name: &str,
    t: Result<String, String>,
) {
    let t = match t {
        Ok(t) => t,
        Err(e) => return report.check(false, || format!("{name}: {e}")),
    };
    let key = name.split('/').next().unwrap_or("").to_string();
    let ok = !t.contains("error:") && t.contains("breakpoint in clamp");
    let same = match pins.iter().find(|(k, _)| *k == key) {
        Some((_, p)) => *p == t,
        None => {
            pins.push((key, t.clone()));
            true
        }
    };
    report.check(ok && same, || format!("{name}: transcript {t:?}"));
}

/// The fleet's attach for a healthy spec: a fresh nub on the shared
/// prepared target, attached lazily under the service client policy.
fn builder(prepared: Arc<PreparedTarget>) -> SessionBuilder {
    Box::new(move |ldb| {
        let handle = spawn(
            &prepared.image,
            NubConfig {
                wait_at_pause: true,
                ..Default::default()
            },
        );
        let wire = handle
            .connect_channel()
            .map_err(|e| LdbError::msg(format!("connect: {e}")))?;
        ldb.attach_compiled_with_config(
            Box::new(wire),
            &prepared.frame,
            &prepared.tables,
            Some(handle),
            probe::service_client_config(),
        )?;
        Ok(String::new())
    })
}
