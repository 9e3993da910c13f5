//! `tenant_tcp`: `ldbd` tenants over loopback TCP, driven by the
//! repository's own `DaemonClient`.
//!
//! Two client threads, one connection each, run a closed loop that keeps
//! eight tenants live per connection. Requests go round-robin over the
//! live tenants; each tenant sees `b clamp`, then `c` and the inspection
//! batch alternately three times, then `close`, and a new tenant (next
//! arch in the seeded rotation) takes its slot. This is the only workload
//! that crosses the TCP edge and daemon dispatch while many
//! thread-per-session tenants are live.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldb_suite::core::{run_script, CloseReason, Ldb, ModuleCache, SessionConfig};
use ldb_suite::daemon::{
    escape_line, session_builder_with_cache, unescape_line, Daemon, DaemonClient, DaemonConfig,
    PROG_COUNT,
};
use ldb_suite::machine::Arch;
use ldb_suite::trace::Trace;

use crate::probe;
use crate::stats::{median_s, ms, peak_rss_mb, thread_count, timed, Report, Rng, Samples};

/// Live tenants per connection.
const LIVE: usize = 8;
/// Client threads (one connection each).
const CLIENTS: usize = 2;

/// The inspection batch: 13 commands carried by one `cmd` request, so
/// every sample stays well above timer resolution. `e limit = 100`
/// writes the value the variable already holds, so later stops see the
/// same program state.
const INSPECT: [&str; 13] = [
    "p calls",
    "p v",
    "p limit",
    "p msg",
    "p p",
    "bt",
    "e v * 2 + 1",
    "e calls + limit",
    "regs",
    "f 1",
    "p s",
    "f 0",
    "e limit = 100",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Open,
    Break,
    Stop,
    Inspect,
    Close,
}

/// One tenant's requests, in order.
const PLAN: [Kind; 9] = [
    Kind::Open,
    Kind::Break,
    Kind::Stop,
    Kind::Inspect,
    Kind::Stop,
    Kind::Inspect,
    Kind::Stop,
    Kind::Inspect,
    Kind::Close,
];

fn inspect_batch() -> String {
    INSPECT.join("\n")
}

/// The request line for `kind` against tenant `id`.
fn request(kind: Kind, arch: Arch, id: u64) -> String {
    match kind {
        Kind::Open => format!("open {arch} prog=count"),
        Kind::Break => format!("cmd {id} b clamp"),
        Kind::Stop => format!("cmd {id} c"),
        Kind::Inspect => format!("cmd {id} {}", escape_line(&inspect_batch())),
        Kind::Close => format!("close {id}"),
    }
}

/// The `stop`-th breakpoint stop in `clamp` (0-based) sees `calls ==
/// stop` and `v == 30 * stop`.
fn check_transcript(kind: Kind, stop: usize, t: &str) -> Result<(), String> {
    if t.lines().any(|l| l.starts_with("error:")) {
        return Err(format!("{kind:?} transcript has an error line: {t:?}"));
    }
    let want: Vec<String> = match kind {
        Kind::Break => vec!["breakpoint at 0x".into()],
        Kind::Stop => vec!["breakpoint in clamp at line 6 (0x".into()],
        Kind::Inspect => vec![
            format!("calls = {stop}\n"),
            format!("v = {}\n", 30 * stop),
            "limit = 100\n".into(),
            "msg = \"hi there\"\n".into(),
            "#1 main at 0x".into(),
            "frame 1\n".into(),
            format!("s = {}\n", (0..stop).map(|k| 30 * k).sum::<usize>()),
        ],
        Kind::Open | Kind::Close => vec![],
    };
    match want.iter().find(|w| !t.contains(w.as_str())) {
        Some(w) => Err(format!("{kind:?} #{stop} transcript lacks {w:?}: {t:?}")),
        None => Ok(()),
    }
}

/// First transcript seen per (arch, plan step); every later tenant must
/// reproduce it byte for byte (compilation and the nub are
/// deterministic, so a tenant's transcript equals a solo run's).
#[derive(Default)]
struct Pins(Mutex<HashMap<(Arch, usize), String>>);

impl Pins {
    fn check(&self, arch: Arch, step: usize, t: &str) -> Result<(), String> {
        let mut m = self
            .0
            .lock()
            .expect("pins lock poisoned by a panicking client");
        match m.get(&(arch, step)) {
            Some(p) if p != t => Err(format!("{arch} step {step} transcript differs from pin")),
            Some(_) => Ok(()),
            None => {
                m.insert((arch, step), t.to_string());
                Ok(())
            }
        }
    }
}

/// Check one reply of a tenant at `step` of [`PLAN`].
fn check_reply(
    pins: &Pins,
    arch: Arch,
    step: usize,
    reply: &Result<String, String>,
) -> Result<(), String> {
    let kind = PLAN[step];
    let body = reply
        .as_ref()
        .map_err(|e| format!("{kind:?} on {arch}: err {e}"))?;
    match kind {
        Kind::Open => body
            .parse::<u64>()
            .map(|_| ())
            .map_err(|_| format!("open on {arch}: bad id {body:?}")),
        Kind::Close if body == "closed client-request" => Ok(()),
        Kind::Close => Err(format!("close on {arch}: {body:?}")),
        _ => {
            let stop = PLAN[..step].iter().filter(|k| **k == Kind::Stop).count();
            let stop = if kind == Kind::Stop {
                stop
            } else {
                stop.saturating_sub(1)
            };
            check_transcript(kind, stop, body)?;
            pins.check(arch, step, body)
        }
    }
}

/// Per-thread tallies of the closed loop.
#[derive(Default)]
struct Tally {
    open: Samples,
    brk: Samples,
    stop: Samples,
    inspect: Samples,
    close: Samples,
    /// Open sent to close answered, for sessions finished in the window.
    session: Samples,
    /// The share of each finished session spent in its own requests.
    own_share: Samples,
    sessions: u64,
    /// When the last counted session closed.
    last_done: Option<Instant>,
    attempted: u64,
    failures: Vec<String>,
    max_threads: usize,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        for (a, b) in [
            (&mut self.open, o.open),
            (&mut self.brk, o.brk),
            (&mut self.stop, o.stop),
            (&mut self.inspect, o.inspect),
            (&mut self.close, o.close),
            (&mut self.session, o.session),
            (&mut self.own_share, o.own_share),
        ] {
            a.extend(b);
        }
        self.sessions += o.sessions;
        self.last_done = self.last_done.max(o.last_done);
        self.attempted += o.attempted;
        self.failures.extend(o.failures);
        self.max_threads = self.max_threads.max(o.max_threads);
    }
}

struct Live {
    arch: Arch,
    id: u64,
    step: usize,
    opened: Instant,
    own: Duration,
}

/// One connection's closed loop until `deadline`: round-robin over
/// [`LIVE`] tenants, replacing each as it closes. Slot `j` opens its
/// first tenant on pass `j`, so live tenants sit at different steps of
/// the plan and no two opens run back to back. Tenants live at the
/// deadline are closed and not counted.
fn client_loop(
    addr: SocketAddr,
    rotation: &[Arch],
    first: usize,
    deadline: Instant,
    pins: &Pins,
) -> Tally {
    let mut tally = Tally::default();
    let mut client = match DaemonClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            tally.attempted += 1;
            tally.failures.push(format!("connect: {e}"));
            return tally;
        }
    };
    let mut slots: Vec<Option<Live>> = (0..LIVE).map(|_| None).collect();
    let mut next = first;
    for pass in 0.. {
        let open_window = Instant::now() < deadline;
        if !open_window && slots.iter().all(Option::is_none) {
            break;
        }
        tally.max_threads = tally.max_threads.max(thread_count());
        for (j, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() && pass < j {
                continue;
            }
            if !open_window {
                if let Some(t) = slot.take() {
                    let _ = client.request(&format!("close {}", t.id));
                }
                continue;
            }
            let t = slot.get_or_insert_with(|| {
                next += 1;
                Live {
                    arch: rotation[(next - 1) % rotation.len()],
                    id: 0,
                    step: 0,
                    opened: Instant::now(),
                    own: Duration::ZERO,
                }
            });
            let kind = PLAN[t.step];
            let line = request(kind, t.arch, t.id);
            let (took, reply) = timed(|| client.request(&line));
            tally.attempted += 1;
            if let Err(e) = check_reply(pins, t.arch, t.step, &reply) {
                tally.failures.push(e);
                if t.id != 0 {
                    let _ = client.request(&format!("close {}", t.id));
                }
                *slot = None;
                continue;
            }
            t.own += took;
            let sample = ms(took);
            match kind {
                Kind::Open => {
                    t.id = reply.as_deref().unwrap_or("0").parse().unwrap_or(0);
                    tally.open.push(sample);
                }
                Kind::Break => tally.brk.push(sample),
                Kind::Stop => tally.stop.push(sample),
                Kind::Inspect => tally.inspect.push(sample),
                Kind::Close => tally.close.push(sample),
            }
            t.step += 1;
            if t.step == PLAN.len() {
                let life = t.opened.elapsed();
                let now = Instant::now();
                if now <= deadline {
                    tally.sessions += 1;
                    tally.last_done = Some(now);
                    tally.session.push(ms(life));
                    tally
                        .own_share
                        .push(t.own.as_secs_f64() / life.as_secs_f64());
                }
                *slot = None;
            }
        }
    }
    tally
}

/// Run [`CLIENTS`] closed loops against `addr` for `window`.
fn drive(addr: SocketAddr, rotation: &[Arch], window: Duration, pins: &Pins) -> (Tally, Instant) {
    let start = Instant::now();
    let deadline = start + window;
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(addr, rotation, c, deadline, pins)))
            .collect();
        for h in handles {
            match h.join() {
                Ok(t) => total.merge(t),
                Err(_) => {
                    total.attempted += 1;
                    total.failures.push("client thread panicked".into());
                }
            }
        }
    });
    (total, start)
}

/// A daemon serving on a loopback port.
struct Served {
    daemon: Arc<Daemon>,
    addr: SocketAddr,
    serve: JoinHandle<std::io::Result<()>>,
}

impl Served {
    fn start(daemon: Daemon) -> std::io::Result<Served> {
        let daemon = Arc::new(daemon);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let d = Arc::clone(&daemon);
        let serve = std::thread::spawn(move || d.serve(listener));
        Ok(Served {
            daemon,
            addr,
            serve,
        })
    }

    /// `shutdown` over the wire, then wait for the serve loop to end.
    fn stop(self) -> Result<(), String> {
        let mut c = DaemonClient::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        c.request("shutdown")?;
        drop(c);
        match self.serve.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve: {e}")),
            Err(_) => Err("serve thread panicked".into()),
        }
    }
}

/// Warm up a fresh daemon: one tenant per arch through open, `b`, `c`,
/// the batch and close, checked against the pins.
fn warm_up(addr: SocketAddr, rotation: &[Arch], pins: &Pins, report: &mut Report) {
    let mut c = match DaemonClient::connect(addr) {
        Ok(c) => c,
        Err(e) => return report.check(false, || format!("warm-up connect: {e}")),
    };
    for &arch in rotation {
        let mut id = 0;
        for step in [0usize, 1, 2, 3, 8] {
            let reply = c.request(&request(PLAN[step], arch, id));
            let r = check_reply(pins, arch, step, &reply);
            report.check(r.is_ok(), || format!("warm-up: {}", r.clone().unwrap_err()));
            if step == 0 {
                id = reply.as_deref().unwrap_or("0").parse().unwrap_or(0);
            }
        }
    }
}

/// Set up three times (daemon bind + warm-up); keep the last daemon and
/// return it with the median set-up time in seconds. With `journal`,
/// each daemon records its net layer there.
fn setup(
    rotation: &[Arch],
    pins: &Pins,
    report: &mut Report,
    journal: Option<&Trace>,
) -> Option<(Served, f64)> {
    let mut times = Vec::new();
    let mut kept = None;
    for round in 0..3 {
        let t = Instant::now();
        let daemon = match journal {
            Some(t) => Daemon::with_trace(DaemonConfig::default(), t.clone()),
            None => Daemon::new(DaemonConfig::default()),
        };
        let served = match Served::start(daemon) {
            Ok(s) => s,
            Err(e) => {
                report.check(false, || format!("bind: {e}"));
                return None;
            }
        };
        warm_up(served.addr, rotation, pins, report);
        times.push(t.elapsed());
        if round < 2 {
            let r = served.stop();
            report.check(r.is_ok(), || format!("set-up shutdown: {r:?}"));
        } else {
            kept = Some(served);
        }
    }
    kept.map(|s| (s, median_s(&times)))
}

fn fold_failures(report: &mut Report, tally: &mut Tally) {
    // `check` counts one attempt per call: book the successes first.
    let failed = tally.failures.len() as u64;
    report.attempted += tally.attempted - failed;
    for f in tally.failures.drain(..) {
        report.check(false, || f);
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(seed);
    let rotation = rng.shuffle(&Arch::ALL);
    report.note(format!(
        "arch rotation: {}",
        rotation
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",")
    ));
    let pins = Pins::default();
    let Some((served, setup_s)) = setup(&rotation, &pins, &mut report, None) else {
        return report;
    };
    report.metric("setup_s", setup_s, "s", 3);
    let window = if trace { seconds * 0.3 } else { seconds };
    let (mut tally, start) = drive(
        served.addr,
        &rotation,
        Duration::from_secs_f64(window),
        &pins,
    );
    fold_failures(&mut report, &mut tally);
    if !trace {
        report.latency("session_ms", &tally.session);
        // Sessions finish in cohorts; rate them over the time to the last
        // one, not the fixed window, so the figure is not quantized.
        let span = tally
            .last_done
            .map_or(window, |t| (t - start).as_secs_f64());
        report.metric(
            "sessions_per_s",
            tally.sessions as f64 / span,
            "1/s",
            tally.sessions as usize,
        );
        for (name, s) in [
            ("open", &tally.open),
            ("b", &tally.brk),
            ("stop", &tally.stop),
            ("inspect", &tally.inspect),
            ("close", &tally.close),
        ] {
            report.note(format!(
                "{name}_ms: p50 {:.3} p90 {:.3} (n={})",
                s.p50(),
                s.p90(),
                s.len()
            ));
        }
        report.note(format!(
            "session_ms_p50 {:.1}: own requests {:.1}%, waiting on the other {} tenants of the connection {:.1}% (median shares)",
            tally.session.p50(),
            100.0 * tally.own_share.p50(),
            LIVE - 1,
            100.0 * (1.0 - tally.own_share.p50()),
        ));
    }
    let stopped = served.stop();
    report.check(stopped.is_ok(), || format!("shutdown: {stopped:?}"));
    if trace {
        traced(&mut report, &rotation, &pins, seconds, &tally);
    }
    report.metric("proc.peak_rss_mb", peak_rss_mb(), "MiB", 1);
    report
}

/// Per-request samples of one entry point, one tenant at a time.
#[derive(Default)]
struct Peel {
    open: Samples,
    stop: Samples,
    inspect: Samples,
}

/// One request kind's p50 at each entry point, top down, and the
/// directly measured parts of the bottom layer.
struct Row<'a> {
    name: &'a str,
    /// The untraced loop's p50.
    e2e: f64,
    net: f64,
    daemon: f64,
    session: f64,
    core: f64,
    below_core: Vec<(&'a str, f64)>,
}

/// The traced run: the loop again against a daemon journaling its net
/// layer (for the overhead), then the same tenant plan through each
/// entry point in turn, one tenant at a time, from the top layer down.
fn traced(report: &mut Report, rotation: &[Arch], pins: &Pins, seconds: f64, untraced: &Tally) {
    let journal = Trace::ring(1 << 16);
    let Some((served, _)) = setup(rotation, pins, report, Some(&journal)) else {
        return;
    };
    let (mut t, _) = drive(
        served.addr,
        rotation,
        Duration::from_secs_f64(seconds * 0.3),
        pins,
    );
    fold_failures(report, &mut t);
    let overhead = 100.0 * (t.stop.p50() - untraced.stop.p50()) / untraced.stop.p50();
    report.metric("trace.overhead_pct", overhead, "%", t.stop.len());
    report.metric("session.threads", untraced.max_threads as f64, "count", 1);

    let cycles = 8;
    let arch_at = |i: usize| rotation[i % rotation.len()];
    let daemon = Arc::clone(&served.daemon);
    let mut ping = Samples::default();
    let mut net = Peel::default();
    match DaemonClient::connect(served.addr) {
        Ok(mut c) => {
            for _ in 0..40 {
                let (d, r) = timed(|| c.request("ping"));
                report.check(r.as_deref() == Ok("pong"), || format!("ping: {r:?}"));
                ping.push(ms(d));
            }
            for i in 0..cycles {
                peel_cycle(report, pins, arch_at(i), &mut net, |line| c.request(line));
            }
        }
        Err(e) => report.check(false, || format!("connect: {e}")),
    }
    let mut dmn = Peel::default();
    for i in 0..cycles {
        peel_cycle(report, pins, arch_at(i), &mut dmn, |line| {
            let reply = daemon.handle_line(line);
            match reply.strip_prefix("ok ") {
                Some(p) => Ok(unescape_line(p)),
                None => Err(reply),
            }
        });
    }
    let ses = session_peel(report, rotation, pins, cycles, &daemon);
    let core = core_peel(report, rotation, pins, cycles, daemon.module_cache());
    report.metric(
        "net.requests",
        daemon.conn_metrics().snapshot().requests as f64,
        "count",
        1,
    );
    drop(daemon);
    let stopped = served.stop();
    report.check(stopped.is_ok(), || format!("traced shutdown: {stopped:?}"));
    report.metric("trace.records", journal.counts().total() as f64, "count", 1);
    let nub = probe::nub_probe(report, rotation, cycles);
    nub.emit(report);
    report.metric("net.ping_ms_p50", ping.p50(), "ms", ping.len());
    for (layer, peel) in [("net", &net), ("daemon", &dmn)] {
        for (req, s) in [
            ("open", &peel.open),
            ("stop", &peel.stop),
            ("inspect", &peel.inspect),
        ] {
            report.metric(format!("{layer}.{req}_ms_p50"), s.p50(), "ms", s.len());
        }
    }

    let rows = [
        Row {
            name: "open_ms_p50",
            e2e: untraced.open.p50(),
            net: net.open.p50(),
            daemon: dmn.open.p50(),
            session: ses.open.p50(),
            core: core.attach.p50(),
            below_core: vec![
                ("cc compile + table plan", core.cc.p50()),
                ("postscript table lookups", core.ps_lookup_ms.p50()),
                ("nub attach wait (event poll)", nub.attach_wait.p50()),
            ],
        },
        Row {
            name: "stop_ms_p50",
            e2e: untraced.stop.p50(),
            net: net.stop.p50(),
            daemon: dmn.stop.p50(),
            session: ses.stop.p50(),
            core: core.stop.p50(),
            below_core: vec![("nub resume + event wait", nub.stop_wait.p50())],
        },
        Row {
            name: "inspect_ms_p50",
            e2e: untraced.inspect.p50(),
            net: net.inspect.p50(),
            daemon: dmn.inspect.p50(),
            session: ses.inspect.p50(),
            core: core.inspect.p50(),
            below_core: vec![(
                "nub fetch round trips (txns x fetch)",
                core.inspect_txns * nub.fetch_us / 1e3,
            )],
        },
    ];
    for r in rows {
        let below: f64 = r.below_core.iter().map(|(_, v)| v).sum();
        let mut parts = vec![
            ("net (TCP edge)", r.net - r.daemon),
            ("daemon (dispatch)", r.daemon - r.session),
            ("session (channel hop)", r.session - r.core),
            ("core (debugger)", r.core - below),
        ];
        parts.extend(r.below_core);
        report.attribution(r.name, r.e2e, &parts);
    }
    report.note(format!(
        "check: nub.attach_probes is at least {} on each of {} attaches",
        nub.attach_probes.pct(0.0),
        nub.attach_probes.len()
    ));
    report.note(format!(
        "check: net.ping_ms_p50 {:.3} vs stop_ms_p50 - daemon.stop_ms_p50 = {:.3}",
        ping.p50(),
        net.stop.p50() - dmn.stop.p50()
    ));
}

/// One tenant plan through `send`, timing each request by kind.
fn peel_cycle(
    report: &mut Report,
    pins: &Pins,
    arch: Arch,
    into: &mut Peel,
    mut send: impl FnMut(&str) -> Result<String, String>,
) {
    let mut id = 0;
    for (step, &kind) in PLAN.iter().enumerate() {
        let (d, reply) = timed(|| send(&request(kind, arch, id)));
        let ok = check_reply(pins, arch, step, &reply);
        report.check(ok.is_ok(), || format!("peel: {}", ok.clone().unwrap_err()));
        if ok.is_err() {
            return;
        }
        match kind {
            Kind::Open => {
                id = reply.as_deref().unwrap_or("0").parse().unwrap_or(0);
                into.open.push(ms(d));
            }
            Kind::Stop => into.stop.push(ms(d)),
            Kind::Inspect => into.inspect.push(ms(d)),
            Kind::Break | Kind::Close => {}
        }
    }
}

/// The `session` entry point: the daemon's registry, driven directly.
fn session_peel(
    report: &mut Report,
    rotation: &[Arch],
    pins: &Pins,
    cycles: usize,
    daemon: &Daemon,
) -> Peel {
    let dc = DaemonConfig::default();
    let cfg = SessionConfig {
        watchdog: dc.watchdog,
        grace: dc.grace,
        detach_deadline: dc.detach_deadline,
    };
    let registry = daemon.registry();
    let mut p = Peel::default();
    let mut close = Samples::default();
    let mut hop = Samples::default();
    for i in 0..cycles {
        let arch = rotation[i % rotation.len()];
        let builder = session_builder_with_cache(
            arch,
            PROG_COUNT,
            None,
            None,
            0,
            Arc::clone(daemon.module_cache()),
        );
        let (d, opened) = timed(|| registry.open(cfg.clone(), builder));
        report.check(opened.is_ok(), || format!("session open: {opened:?}"));
        let Ok(id) = opened else { continue };
        p.open.push(ms(d));
        let mut run = |step: usize, cmds: &str, into: Option<&mut Samples>| {
            let (d, r) = timed(|| registry.run(id, cmds).map_err(|e| e.to_string()));
            let ok = check_reply(pins, arch, step, &r);
            report.check(ok.is_ok(), || {
                format!("session: {}", ok.clone().unwrap_err())
            });
            if let Some(s) = into {
                s.push(ms(d));
            }
        };
        run(1, "b clamp", None);
        for k in 0..3 {
            run(2 + 2 * k, "c", Some(&mut p.stop));
            run(3 + 2 * k, &inspect_batch(), Some(&mut p.inspect));
        }
        for _ in 0..10 {
            let (d, r) = timed(|| registry.run(id, ""));
            report.check(r.is_ok(), || format!("empty run: {r:?}"));
            hop.push(ms(d) * 1e3);
        }
        let (d, r) = timed(|| registry.close(id, CloseReason::ClientRequest));
        report.check(r.is_ok(), || format!("session close: {r:?}"));
        close.push(ms(d));
    }
    report.metric("session.open_ms_p50", p.open.p50(), "ms", p.open.len());
    report.metric("session.close_ms_p50", close.p50(), "ms", close.len());
    report.metric("session.run_hop_us_p50", hop.p50(), "us", hop.len());
    p
}

/// What the `core` entry point measured, for the attribution.
#[derive(Default)]
struct CorePeel {
    attach: Samples,
    stop: Samples,
    inspect: Samples,
    /// C compile plus table plan: the builder's work before the nub.
    cc: Samples,
    /// Table lookups of one open (loader frame + module), in ms.
    ps_lookup_ms: Samples,
    inspect_txns: f64,
}

/// The `core` entry point: `run_script` on a local `Ldb` built by the
/// daemon's own session builder, with wire and cache counters read
/// around each request; then, at the last stop, a same-value write, a
/// checkpoint, a step and a reverse step.
fn core_peel(
    report: &mut Report,
    rotation: &[Arch],
    pins: &Pins,
    cycles: usize,
    cache: &Arc<ModuleCache>,
) -> CorePeel {
    let mut p = CorePeel::default();
    let mut program = probe::ProgramPeel::default();
    let mut ckpt = probe::CheckpointPeel::default();
    let mut cmd_us: Vec<(&str, Samples)> = ["p", "bt", "e", "regs", "f"]
        .iter()
        .map(|n| (*n, Samples::default()))
        .collect();
    let mut lookup_us = Samples::default();
    let (mut stop_txns, mut insp_txns, mut insp_bytes) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut hit_ratio, mut inval, mut retx) = (Samples::default(), Samples::default(), 0u64);
    let (mut write, mut checkpoint, mut reverse) =
        (Samples::default(), Samples::default(), Samples::default());
    for i in 0..cycles {
        let arch = rotation[i % rotation.len()];
        let Some(built) = program.cycle(report, arch, "target.c", PROG_COUNT) else {
            continue;
        };
        let mut lookup = 0.0;
        for ps in std::iter::once(&built.frame_ps).chain(built.modules.iter().map(|(_, ps)| ps)) {
            let (d, r) = timed(|| cache.get_or_compile(ps));
            report.check(matches!(r, Ok((_, true))), || {
                "table lookup missed the warm cache".into()
            });
            lookup_us.push(ms(d) * 1e3);
            lookup += ms(d);
        }
        p.ps_lookup_ms.push(lookup);
        let mut ldb = Ldb::new();
        let builder =
            session_builder_with_cache(arch, PROG_COUNT, None, None, 0, Arc::clone(cache));
        let (d, r) = timed(|| builder(&mut ldb));
        report.check(r.is_ok(), || format!("core attach on {arch}: {r:?}"));
        if r.is_err() {
            continue;
        }
        p.attach.push(ms(d));
        let wire = |ldb: &Ldb| ldb.target(0).client.borrow().metrics();
        let cache_stats = |ldb: &Ldb| {
            ldb.target(0)
                .cache
                .as_ref()
                .map(|c| c.stats())
                .unwrap_or_default()
        };
        let mut script = |ldb: &mut Ldb, step: usize, cmds: &str| {
            let (d, t) = timed(|| run_script(ldb, cmds));
            let ok = check_reply(pins, arch, step, &Ok(t));
            report.check(ok.is_ok(), || format!("core: {}", ok.clone().unwrap_err()));
            ms(d)
        };
        script(&mut ldb, 1, "b clamp");
        for k in 0..3 {
            let w0 = wire(&ldb);
            p.stop.push(script(&mut ldb, 2 + 2 * k, "c"));
            let (w1, c1) = (wire(&ldb), cache_stats(&ldb));
            p.inspect
                .push(script(&mut ldb, 3 + 2 * k, &inspect_batch()));
            let (w2, c2) = (wire(&ldb), cache_stats(&ldb));
            stop_txns.push((w1.transactions - w0.transactions) as f64);
            insp_txns.push((w2.transactions - w1.transactions) as f64);
            insp_bytes.push(
                (w2.bytes_sent + w2.bytes_received - w1.bytes_sent - w1.bytes_received) as f64,
            );
            let (h, m) = (c2.hits - c1.hits, c2.misses - c1.misses);
            hit_ratio.push(h as f64 / (h + m).max(1) as f64);
        }
        // Single commands at the last stop.
        for (name, cmds) in &mut cmd_us {
            let lines: &[&str] = match *name {
                "p" => &["p calls"],
                "bt" => &["bt"],
                "e" => &["e v * 2 + 1"],
                "regs" => &["regs"],
                _ => &["f 1", "f 0"],
            };
            for _ in 0..5 {
                for line in lines {
                    let (d, t) = timed(|| run_script(&mut ldb, line));
                    report.check(!t.contains("error:"), || format!("core {line}: {t:?}"));
                    cmds.push(ms(d) * 1e3);
                }
            }
        }
        let c0 = cache_stats(&ldb);
        let mut timed_cmd = |ldb: &mut Ldb, cmd: &str, want: &str, into: &mut Samples| {
            let (d, t) = timed(|| run_script(ldb, cmd));
            report.check(t.contains(want) && !t.contains("error:"), || {
                format!("core {cmd}: {t:?}")
            });
            into.push(ms(d));
        };
        timed_cmd(&mut ldb, "e limit = 100", "\n100\n", &mut write);
        inval.push((cache_stats(&ldb).invalidated - c0.invalidated) as f64);
        timed_cmd(
            &mut ldb,
            "checkpoint",
            "checkpoint at step",
            &mut checkpoint,
        );
        timed_cmd(&mut ldb, "s", "(ldb) s", &mut Samples::default());
        timed_cmd(&mut ldb, "rs", "in clamp", &mut reverse);
        ckpt.sample(report, &mut ldb);
        retx += wire(&ldb).retransmits;
        ldb.detach_all_with_deadline(Duration::from_millis(200));
        p.cc.push(program.compile.last() + program.plan.last());
    }
    p.inspect_txns = insp_txns.p50();
    program.emit(report);
    ckpt.emit(report);
    report.metric("core.attach_ms_p50", p.attach.p50(), "ms", p.attach.len());
    report.metric("core.stop_ms_p50", p.stop.p50(), "ms", p.stop.len());
    report.metric(
        "core.inspect_ms_p50",
        p.inspect.p50(),
        "ms",
        p.inspect.len(),
    );
    for (name, s) in &cmd_us {
        report.metric(format!("core.cmd_us.{name}"), s.p50(), "us", s.len());
    }
    report.metric("core.write_ms", write.p50(), "ms", write.len());
    report.metric(
        "core.checkpoint_ms",
        checkpoint.p50(),
        "ms",
        checkpoint.len(),
    );
    report.metric("core.reverse_ms", reverse.p50(), "ms", reverse.len());
    report.metric("ps.cache_hit_us", lookup_us.p50(), "us", lookup_us.len());
    report.metric("nub.txns.stop", stop_txns.p50(), "count", stop_txns.len());
    report.metric("nub.txns.inspect", p.inspect_txns, "count", insp_txns.len());
    report.metric(
        "nub.bytes.inspect",
        insp_bytes.p50(),
        "bytes",
        insp_bytes.len(),
    );
    report.metric("nub.retransmits", retx as f64, "count", 1);
    report.metric(
        "cache.hit_ratio.inspect",
        hit_ratio.p50(),
        "ratio",
        hit_ratio.len(),
    );
    report.metric("cache.invalidated.write", inval.p50(), "count", inval.len());
    p
}
