//! `bigunit_cli`: the paper's T2 scenario. The `ldb` binary runs a
//! command script (`--script`) against the 13k-line unit from
//! `ldb_bench::synth_program(1000)`, one process at a time, rotating
//! arches.
//!
//! Table reading, C compilation, the eager attach and checkpoint packing
//! of a large image dominate this workload; idle polling is about 10 ms
//! of 300. A change to the poll intervals should therefore leave it
//! unchanged, while an interpreter or lazy-attach change should move it.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ldb_suite::core::{run_script, Ldb, ModuleTable};
use ldb_suite::machine::Arch;
use ldb_suite::nub::{spawn, ClientConfig, NubConfig};
use ldb_suite::trace::Trace;

use crate::probe;
use crate::stats::{median_s, ms, timed, Report, Rng, Samples};

/// Functions in the synthetic unit (≈13 lines each).
const FUNCS: usize = 1000;
/// `main` calls only the first 200 functions, so the breakpoint is
/// chosen among them.
const CALLED: u64 = 200;

/// The session script, one command per line.
fn script(k: u64) -> Vec<String> {
    [
        format!("b f{k}"),
        "c".into(),
        "bt".into(),
        "p grand".into(),
        "p table".into(),
        "e table[3] = 7".into(),
        "p table".into(),
        "checkpoint".into(),
        "n".into(),
        "n".into(),
        "rn".into(),
        "rs".into(),
        "fin".into(),
        "c".into(),
    ]
    .into()
}

/// Structural checks on one transcript.
fn check_transcript(k: u64, t: &str) -> Result<(), String> {
    let want = [
        format!("breakpoint in f{k} at line"),
        "table = {".into(),
        "return value:".into(),
        "target exited with status 0".into(),
    ];
    if t.lines().any(|l| l.starts_with("error:")) {
        return Err("transcript has an error line".into());
    }
    match want.iter().find(|w| !t.contains(w.as_str())) {
        Some(w) => Err(format!("transcript lacks {w:?}")),
        None => Ok(()),
    }
}

struct Files {
    source: PathBuf,
    script: PathBuf,
    journal: PathBuf,
}

/// The `ldb` binary, its inputs and the transcript pins of one run.
struct Cli<'a> {
    ldb: &'a Path,
    files: Files,
    rotation: Vec<Arch>,
    k: u64,
    /// The first transcript per arch: every later one must equal it.
    pins: Vec<(Arch, String)>,
}

impl Cli<'_> {
    /// One `ldb` process from spawn to exit: its wall time and transcript.
    fn invoke(&self, arch: Arch, traced: bool) -> Result<(Duration, String), String> {
        let mut cmd = Command::new(self.ldb);
        cmd.arg(&self.files.source)
            .arg("--arch")
            .arg(arch.to_string())
            .arg("--script")
            .arg(&self.files.script);
        if traced {
            cmd.arg("--trace").arg(&self.files.journal);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        let (d, out) = timed(|| cmd.output());
        let out = out.map_err(|e| format!("spawn {}: {e}", self.ldb.display()))?;
        if !out.status.success() {
            let stdout = String::from_utf8_lossy(&out.stdout);
            let tail: Vec<&str> = stdout.lines().rev().take(4).collect();
            return Err(format!(
                "ldb on {arch} exited {}: {} (transcript ends: {:?})",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim(),
                tail
            ));
        }
        Ok((d, String::from_utf8_lossy(&out.stdout).into_owned()))
    }

    /// Check a transcript against the structure and the arch's pin.
    fn check(&mut self, arch: Arch, t: &str) -> Result<(), String> {
        check_transcript(self.k, t)?;
        match self.pins.iter().find(|(a, _)| *a == arch) {
            Some((_, p)) if p != t => Err(format!("{arch} transcript differs from its pin")),
            Some(_) => Ok(()),
            None => {
                self.pins.push((arch, t.to_string()));
                Ok(())
            }
        }
    }

    /// One checked invocation; its wall time if it passed.
    fn checked(&mut self, report: &mut Report, arch: Arch, traced: bool) -> Option<Duration> {
        let r = self
            .invoke(arch, traced)
            .and_then(|(d, t)| self.check(arch, &t).map(|()| d));
        report.check(r.is_ok(), || {
            format!("bigunit on {arch}: {}", r.clone().unwrap_err())
        });
        r.ok()
    }

    /// Invocations until `window` has passed, rotating arches.
    fn invocations(
        &mut self,
        report: &mut Report,
        window: Duration,
        traced: bool,
    ) -> (Samples, Duration) {
        let mut s = Samples::default();
        let start = Instant::now();
        let mut n = 0;
        while start.elapsed() < window {
            let arch = self.rotation[n % self.rotation.len()];
            n += 1;
            if let Some(d) = self.checked(report, arch, traced) {
                s.push(ms(d));
            }
        }
        (s, start.elapsed())
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool, ldb: &Path, work: &Path) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(seed);
    let rotation = rng.shuffle(&Arch::ALL);
    let k = rng.below(CALLED);
    report.note(format!(
        "arch rotation: {}; breakpoint f{k}",
        rotation
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    let files = Files {
        source: work.join("big.c"),
        script: work.join("big.ldb"),
        journal: work.join("big.trace.jsonl"),
    };
    let mut cli = Cli {
        ldb,
        files,
        rotation,
        k,
        pins: Vec::new(),
    };

    // Set-up, three times: generate and write the unit and the script,
    // then one warm-up invocation.
    let mut times = Vec::new();
    let mut src = String::new();
    for _ in 0..3 {
        let t = Instant::now();
        src = ldb_bench::synth_program(FUNCS);
        let written = std::fs::create_dir_all(work)
            .and_then(|()| std::fs::write(&cli.files.source, &src))
            .and_then(|()| std::fs::write(&cli.files.script, script(k).join("\n") + "\n"));
        if let Err(e) = written {
            report.check(false, || {
                format!("write inputs under {}: {e}", work.display())
            });
            return report;
        }
        cli.checked(&mut report, cli.rotation[0], false);
        times.push(t.elapsed());
    }
    report.metric("setup_s", median_s(&times), "s", times.len());

    let window = Duration::from_secs_f64(if trace { seconds * 0.25 } else { seconds });
    let (u, elapsed) = cli.invocations(&mut report, window, false);
    if !trace {
        report.latency("session_ms", &u);
        report.metric(
            "sessions_per_s",
            u.len() as f64 / elapsed.as_secs_f64(),
            "1/s",
            u.len(),
        );
        report.metric("proc.peak_rss_mb", children_max_rss_mb(), "MiB", u.len());
        return report;
    }
    let (t, _) = cli.invocations(&mut report, window, true);
    report.metric(
        "trace.overhead_pct",
        100.0 * (t.p50() - u.p50()) / u.p50(),
        "%",
        t.len(),
    );
    let records = std::fs::read_to_string(&cli.files.journal).map_or(0, |j| j.lines().count());
    report.check(records > 0, || "traced ldb wrote an empty journal".into());
    report.metric("trace.records", records as f64, "count", 1);
    peel(&mut report, &src, &cli, u.p50());
    report.metric(
        "proc.peak_rss_mb",
        children_max_rss_mb(),
        "MiB",
        u.len() + t.len(),
    );
    report
}

/// Named phase timings, in first-seen order.
#[derive(Default)]
struct Phases(Vec<(&'static str, Samples)>);

impl Phases {
    fn add(&mut self, name: &'static str, ms: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => s.push(ms),
            None => {
                let mut s = Samples::default();
                s.push(ms);
                self.0.push((name, s));
            }
        }
    }

    fn p50(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s.p50())
    }
}

/// The script's commands in phases (index ranges into [`script`]).
const GROUPS: [(&str, std::ops::Range<usize>); 7] = [
    ("b + c to first stop", 0..2),
    ("inspect (bt, p grand, p table)", 2..5),
    ("write (e table[3] = 7, p table)", 5..7),
    ("checkpoint", 7..8),
    ("step (n, n)", 8..10),
    ("reverse (rn, rs)", 10..12),
    ("fin + c to exit", 12..14),
];

/// The same session in process, phase by phase, on the CLI's own load
/// path (eager plan attach); then the lazy compiled attach (the daemon's
/// path) on the same unit, for comparison.
fn peel(report: &mut Report, src: &str, cli: &Cli, e2e: f64) {
    let mut ph = Phases::default();
    let mut program = probe::ProgramPeel::default();
    let mut ckpt = probe::CheckpointPeel::default();
    let (mut lazy_attach, mut lazy_break) = (Samples::default(), Samples::default());
    let mut inval = 0.0;
    let mut nub = probe::NubPeel::default();
    let mut fetch = Samples::default();
    let cmds = script(cli.k);
    for i in 0..8 {
        let arch = cli.rotation[i % cli.rotation.len()];
        let Some(b) = program.cycle(report, arch, "big.c", src) else {
            return;
        };
        ph.add("cc compile", program.compile.last());
        ph.add("cc symtab plan", program.plan.last());
        probe::nub_cycle(
            report,
            &b.image,
            ClientConfig::default(),
            &mut nub,
            &mut fetch,
        );

        // The CLI's path: a ring-traced Ldb, a fresh nub, the eager plan.
        let mut ldb = Ldb::new();
        ldb.set_trace(Trace::ring(4096));
        let plan: Vec<ModuleTable> = b
            .modules
            .iter()
            .map(|(name, ps)| ModuleTable {
                name: name.clone(),
                ps: ps.clone(),
            })
            .collect();
        let (d, r) = timed(|| {
            let handle = spawn(
                &b.image,
                NubConfig {
                    wait_at_pause: true,
                    ..Default::default()
                },
            );
            let wire = handle.connect_channel().map_err(|e| e.to_string())?;
            ldb.attach_plan(Box::new(wire), &b.frame_ps, &plan, Some(handle))
                .map_err(|e| e.to_string())
        });
        if let Err(e) = r {
            return report.check(false, || format!("eager attach on {arch}: {e}"));
        }
        ph.add("eager attach", ms(d));
        let mut transcript = String::new();
        for (name, range) in GROUPS {
            let c0 = ldb
                .target(0)
                .cache
                .as_ref()
                .map(|c| c.stats())
                .unwrap_or_default();
            let (d, t) = timed(|| run_script(&mut ldb, &cmds[range].join("\n")));
            transcript.push_str(&t);
            ph.add(name, ms(d));
            if name.starts_with("write") {
                let c1 = ldb
                    .target(0)
                    .cache
                    .as_ref()
                    .map(|c| c.stats())
                    .unwrap_or_default();
                inval = (c1.invalidated - c0.invalidated) as f64;
            }
        }
        let pinned = cli
            .pins
            .iter()
            .find(|(a, _)| *a == arch)
            .map(|(_, t)| t.as_str());
        report.check(pinned == Some(transcript.as_str()), || {
            format!("in-process transcript on {arch} differs from the CLI's")
        });
        drop(ldb);

        let mut ldb = Ldb::new();
        let (d, r) = timed(|| {
            let handle = spawn(
                &b.image,
                NubConfig {
                    wait_at_pause: true,
                    ..Default::default()
                },
            );
            let wire = handle.connect_channel().map_err(|e| e.to_string())?;
            ldb.attach_compiled(Box::new(wire), &b.frame, &b.tables, Some(handle))
                .map_err(|e| e.to_string())
        });
        if let Err(e) = r {
            return report.check(false, || format!("lazy attach on {arch}: {e}"));
        }
        lazy_attach.push(ms(d));
        let (d, t) = timed(|| run_script(&mut ldb, &cmds[..2].join("\n")));
        let want = format!("breakpoint in f{} at line", cli.k);
        report.check(t.contains(&want), || {
            format!("lazy first break on {arch}: {t:?}")
        });
        lazy_break.push(ms(d));
        let t = run_script(&mut ldb, "checkpoint");
        report.check(t.contains("checkpoint at step"), || {
            format!("lazy checkpoint on {arch}: {t:?}")
        });
        ckpt.sample(report, &mut ldb);
        ldb.detach_all_with_deadline(Duration::from_millis(200));
    }
    nub.fetch_us = fetch.p50();
    nub.emit(report);
    program.emit(report);
    ckpt.emit(report);
    report.metric(
        "core.attach_lazy_ms",
        lazy_attach.p50(),
        "ms",
        lazy_attach.len(),
    );
    report.metric(
        "core.first_break_lazy_ms",
        lazy_break.p50(),
        "ms",
        lazy_break.len(),
    );
    for (metric, phase) in [
        ("core.attach_eager_ms", "eager attach"),
        ("core.first_break_eager_ms", "b + c to first stop"),
        ("core.write_ms", "write (e table[3] = 7, p table)"),
        ("core.checkpoint_ms", "checkpoint"),
        ("core.reverse_ms", "reverse (rn, rs)"),
    ] {
        report.metric(metric, ph.p50(phase), "ms", 8);
    }
    let inprocess: f64 = ph.0.iter().map(|(_, s)| s.p50()).sum();
    report.metric("core.inprocess_session_ms", inprocess, "ms", 8);
    report.metric("cache.invalidated.write", inval, "count", 1);

    // The eager attach includes the nub's first-stop wait; split it out.
    let wait = nub.attach_wait.p50();
    let mut parts: Vec<(&str, f64)> = Vec::new();
    for (name, s) in &ph.0 {
        if *name == "eager attach" {
            parts.push((
                "core eager attach (table load) excl. nub wait",
                s.p50() - wait,
            ));
            parts.push(("nub attach wait (event poll)", wait));
        } else {
            parts.push((name, s.p50()));
        }
    }
    report.attribution("session_ms_p50", e2e, &parts);
    report.note("unattributed: process spawn, exec, dynamic loading, file reads and exit");
}

/// The largest resident set of any child waited for so far, in MiB.
fn children_max_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a writable, properly aligned `struct rusage` as
    // Linux x86-64 and aarch64 lay it out (two timevals, fourteen longs);
    // getrusage writes only within it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}
