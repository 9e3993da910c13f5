//! Probes of the layers below the debugger core, shared by workloads:
//! the C compiler and the raw nub protocol.

use std::sync::Arc;
use std::time::Duration;

use ldb_suite::cc::driver::{compile_many, program_load_plan, CompileOpts, CompiledProgram};
use ldb_suite::cc::pssym::PsMode;
use ldb_suite::core::{CompiledModule, CompiledTable, Ldb, ModuleCache};
use ldb_suite::daemon::PROG_COUNT;
use ldb_suite::machine::{Arch, Image, Machine, RunEvent};
use ldb_suite::nub::{spawn, ClientConfig, NubClient, NubConfig, NubEvent};
use ldb_suite::postscript::PsError;

use crate::stats::{ms, timed, Report, Samples};

/// The nub client policy `ldbd` and `ldbfleet` give every tenant.
pub fn service_client_config() -> ClientConfig {
    ClientConfig {
        reply_timeout: Duration::from_secs(2),
        retries: 4,
        backoff: Duration::from_millis(1),
        event_poll: Duration::from_millis(100),
        jitter_seed: 0,
    }
}

/// Compile one C unit for `arch`.
pub fn compile(arch: Arch, name: &str, src: &str) -> Result<CompiledProgram, String> {
    compile_many(&[(name, src)], arch, CompileOpts::default()).map_err(|e| format!("compile: {e}"))
}

/// The daemon's `count` program, compiled for `arch`.
pub fn count_image(arch: Arch) -> Result<Image, String> {
    Ok(compile(arch, "target.c", PROG_COUNT)?.linked.image)
}

/// The layers under an attach, for one program: C compilation, the
/// symbol-table load plan, bytecode compilation of the tables into a cold
/// cache, and an undebugged run.
#[derive(Default)]
pub struct ProgramPeel {
    pub compile: Samples,
    pub plan: Samples,
    pub ps_compile: Samples,
    pub run: Samples,
    pub steps: f64,
}

/// One program's compiled forms, as the attach paths take them.
pub struct Built {
    pub image: Image,
    pub frame_ps: String,
    pub modules: Vec<(String, String)>,
    pub frame: Arc<CompiledModule>,
    pub tables: Vec<CompiledTable>,
}

impl ProgramPeel {
    /// Build `src` for `arch`, timing each layer; `None` (booked as a
    /// failure) if any step fails.
    pub fn cycle(
        &mut self,
        report: &mut Report,
        arch: Arch,
        name: &str,
        src: &str,
    ) -> Option<Built> {
        let (d, p) = timed(|| compile(arch, name, src));
        let p = match p {
            Ok(p) => p,
            Err(e) => {
                report.check(false, || format!("{name} on {arch}: {e}"));
                return None;
            }
        };
        self.compile.push(ms(d));
        let (d, (frame_ps, modules)) = timed(|| program_load_plan(&p, PsMode::Deferred));
        self.plan.push(ms(d));
        let cache = ModuleCache::new();
        let (d, compiled) = timed(|| {
            let frame = cache.get_or_compile(&frame_ps)?.0;
            let tables = modules
                .iter()
                .map(|(name, ps)| {
                    Ok(CompiledTable {
                        name: name.clone(),
                        module: cache.get_or_compile(ps)?.0,
                    })
                })
                .collect::<Result<Vec<_>, PsError>>()?;
            Ok::<_, PsError>((frame, tables))
        });
        let (frame, tables) = match compiled {
            Ok(c) => c,
            Err(e) => {
                report.check(false, || format!("{name} tables on {arch}: {e}"));
                return None;
            }
        };
        self.ps_compile.push(ms(d));
        // Undebugged, the start-up pause is a no-op to run through.
        let mut m = Machine::load(&p.linked.image);
        let (d, ev) = timed(|| {
            let mut ev = m.run(u64::MAX);
            for _ in 0..4 {
                if !matches!(ev, RunEvent::Paused { .. }) {
                    break;
                }
                ev = m.run(u64::MAX);
            }
            ev
        });
        report.check(matches!(ev, RunEvent::Exited(0)), || {
            format!("undebugged {name} on {arch}: {ev:?}")
        });
        self.run.push(ms(d));
        self.steps = m.cpu.steps as f64;
        Some(Built {
            image: p.linked.image,
            frame_ps,
            modules,
            frame,
            tables,
        })
    }

    pub fn emit(&self, report: &mut Report) {
        report.metric(
            "cc.compile_ms",
            self.compile.p50(),
            "ms",
            self.compile.len(),
        );
        report.metric("cc.symtab_ms", self.plan.p50(), "ms", self.plan.len());
        report.metric(
            "ps.compile_ms",
            self.ps_compile.p50(),
            "ms",
            self.ps_compile.len(),
        );
        report.metric("machine.run_ms", self.run.p50(), "ms", self.run.len());
        report.metric("machine.steps", self.steps, "count", 1);
    }
}

/// Checkpoint sizes and the packing rate of a full snapshot, taken at
/// the current stop of `ldb`.
#[derive(Default)]
pub struct CheckpointPeel {
    pub raw: f64,
    pub packed: f64,
    pub mb_per_s: Samples,
}

impl CheckpointPeel {
    pub fn sample(&mut self, report: &mut Report, ldb: &mut Ldb) {
        if let Ok(s) = ldb.checkpoint_stats() {
            (self.raw, self.packed) = (s.raw as f64, s.compressed as f64);
        }
        match ldb.snapshot_bytes() {
            Ok(snap) => {
                let (d, packed) = timed(|| ldb_suite::compress::compress(&snap));
                report.check(!packed.is_empty(), || "empty packed snapshot".into());
                self.mb_per_s
                    .push(snap.len() as f64 / 1e6 / d.as_secs_f64());
            }
            Err(e) => report.check(false, || format!("snapshot: {e}")),
        }
    }

    pub fn emit(&self, report: &mut Report) {
        report.metric("checkpoint.raw_bytes", self.raw, "bytes", 1);
        report.metric("checkpoint.packed_bytes", self.packed, "bytes", 1);
        report.metric(
            "compress.mb_per_s",
            self.mb_per_s.p50(),
            "MB/s",
            self.mb_per_s.len(),
        );
    }
}

/// The raw nub protocol under one client policy.
#[derive(Default)]
pub struct NubPeel {
    /// Connect to first stop: what an attach waits before the tables load.
    pub attach_wait: Samples,
    /// Pings sent before the first stop was seen.
    pub attach_probes: Samples,
    /// `continue_and_wait` from the start-up pause until the next event.
    pub stop_wait: Samples,
    /// One 4-byte code fetch, in µs.
    pub fetch_us: f64,
}

impl NubPeel {
    pub fn emit(&self, report: &mut Report) {
        report.metric(
            "nub.attach_wait_ms_p50",
            self.attach_wait.p50(),
            "ms",
            self.attach_wait.len(),
        );
        report.metric(
            "nub.attach_probes",
            self.attach_probes.p50(),
            "count",
            self.attach_probes.len(),
        );
        report.metric(
            "nub.stop_wait_ms_p50",
            self.stop_wait.p50(),
            "ms",
            self.stop_wait.len(),
        );
        report.metric("nub.fetch_us_p50", self.fetch_us, "us", 1);
    }
}

/// Spawn `image` under a nub, attach a bare client, time the wait for
/// the start-up stop, a run of code fetches and the resume to the next
/// event (the program's exit: no breakpoint is planted), then join the
/// nub thread.
pub fn nub_cycle(
    report: &mut Report,
    image: &Image,
    cfg: ClientConfig,
    peel: &mut NubPeel,
    fetch: &mut Samples,
) {
    let handle = spawn(
        image,
        NubConfig {
            wait_at_pause: true,
            ..Default::default()
        },
    );
    let wire = match handle.connect_channel() {
        Ok(w) => w,
        Err(e) => return report.check(false, || format!("nub connect: {e}")),
    };
    let mut client = NubClient::with_config(Box::new(wire), cfg);
    let (d, ev) = timed(|| client.wait_event());
    report.check(matches!(ev, Ok(NubEvent::Stopped { .. })), || {
        format!("nub first stop: {ev:?}")
    });
    peel.attach_wait.push(ms(d));
    peel.attach_probes
        .push(client.metrics().transactions as f64);
    for _ in 0..20 {
        let (d, v) = timed(|| client.fetch('c', image.entry, 4));
        report.check(v.is_ok(), || format!("nub fetch: {v:?}"));
        fetch.push(ms(d) * 1e3);
    }
    let (d, ev) = timed(|| client.continue_and_wait());
    report.check(matches!(ev, Ok(NubEvent::Exited(0))), || {
        format!("nub run to exit: {ev:?}")
    });
    peel.stop_wait.push(ms(d));
    drop(client);
    let joined = handle.join.join();
    report.check(joined.is_ok(), || "nub thread panicked".into());
}

/// [`nub_cycle`] on the `count` program, `cycles` times over `rotation`.
pub fn nub_probe(report: &mut Report, rotation: &[Arch], cycles: usize) -> NubPeel {
    let mut peel = NubPeel::default();
    let mut fetch = Samples::default();
    for i in 0..cycles {
        let arch = rotation[i % rotation.len()];
        match count_image(arch) {
            Ok(image) => nub_cycle(
                report,
                &image,
                service_client_config(),
                &mut peel,
                &mut fetch,
            ),
            Err(e) => report.check(false, || e),
        }
    }
    peel.fetch_us = fetch.p50();
    peel
}
