//! The `ldb` command-line debugger: compile a C file for a simulated
//! target and debug it interactively.
//!
//! ```text
//! Usage: ldb <file.c>... [--arch ...] [--order big|little] [--tcp]
//!        ldb <file.c>... --fault seed=1,drop=0.05,corrupt=0.02   lossy-wire drill
//!        ldb <file.c>... --chaos <seed>          hostile-target drill (seed, or seed=N,rate=R)
//!        ldb <file.c>... --run [--core <path>]   run undebugged; fault dumps core
//!        ldb <file.c>... --core <path>           post-mortem on a core file
//!        ldb <file.c>... --no-wire-cache         word-at-a-time wire (no block cache)
//!        ldb <file.c>... --trace <path>          flight recorder: JSONL journal to path
//!        ldb <file.c>... --checkpoint-every <n>  checkpoint every n steps during `c`
//!        ldb <file.c>... --script <path>         headless batch mode: run the script, exit typed
//! ```
//!
//! `--script` runs a command script instead of the prompt, prints the
//! transcript, and exits with the typed status of
//! `ldb_core::BatchOutcome::exit_code` (0 clean, 3 an `error:` line, 4 a
//! quarantined panic, 5 a lost wire; 1 and 2 stay the internal-error
//! and usage exits).
//!
//! `--fault` wraps the debugger's wire in a deterministic fault injector
//! (keys: seed, drop, corrupt, truncate, dup, delay, disconnect); the
//! hardened protocol retries through drops and corruption, and after a
//! `disconnect=N` severance the `reconnect` command resumes the session.
//!
//! `--chaos` corrupts what the debugger *reads* from target data memory —
//! saved frame pointers, return addresses, pointed-to data — with a
//! deterministic seeded schedule. Run control stays reliable; every
//! inspection result is suspect. `info health` reports how often the
//! defensive layers (guarded stack walks, cycle-safe printing, the
//! crash-proof command loop) fired.
//!
//! The commands are the shared command language of `ldb_core::script`
//! (the same table `--script`, `ldbd` tenants and the fleet run); type
//! `help` at the prompt for the list.

use std::io::{BufRead, Write};
use std::sync::Arc;

use ldb_cc::driver::{compile_many, CompileOpts};
use ldb_core::{ChaosConfig, Ldb, ModuleCache, PreparedTarget};
use ldb_machine::core::read_core;
use ldb_machine::{Arch, ByteOrder};
use ldb_nub::{spawn_machine, ClientConfig, FaultConfig, NubConfig, TcpWire};
use ldb_trace::{Trace, TraceConfig};

fn main() {
    if let Err(e) = run() {
        eprintln!("ldb: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let (mut files, mut arch, mut order) = (Vec::new(), Arch::Mips, None);
    let (mut tcp, mut run_only, mut wire_cache) = (false, false, true);
    let (mut core, mut trace_path, mut script_path): (Option<String>, _, _) = (None, None, None);
    let (mut fault, mut chaos): (Option<FaultConfig>, Option<ChaosConfig>) = (None, None);
    let (mut checkpoint_every, mut ps_fuel, mut ps_mem): (Option<u64>, _, _) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--no-wire-cache" => wire_cache = false,
            "--ps-fuel" => ps_fuel = Some(value("a step count")?.parse()?),
            "--ps-mem" => ps_mem = Some(value("a byte count")?.parse()?),
            "--fault" => {
                fault = Some(FaultConfig::parse(&value("a spec (e.g. seed=1,drop=0.05)")?)?);
            }
            "--chaos" => {
                chaos = Some(ChaosConfig::parse(&value("a seed (e.g. 7, or seed=7,rate=0.1)")?)?);
            }
            "--checkpoint-every" => checkpoint_every = Some(value("a step count")?.parse()?),
            "--trace" => trace_path = Some(value("a path")?),
            "--script" => script_path = Some(value("a path")?),
            "--arch" => {
                arch = Arch::from_name(&value("an architecture")?).ok_or("unknown architecture")?;
            }
            "--tcp" => tcp = true,
            "--run" => run_only = true,
            "--core" => core = Some(value("a path")?),
            "--order" => {
                order = Some(match value("big or little")?.as_str() {
                    "big" => ByteOrder::Big,
                    "little" => ByteOrder::Little,
                    _ => return Err("order must be big or little".into()),
                });
            }
            other => files.push(other.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!(
            "usage: ldb <file.c>... [--arch mips|m68k|sparc|vax] [--order big|little] \
             [--ps-fuel <steps>] [--ps-mem <bytes>]"
        );
        std::process::exit(2);
    }
    // Post-mortem: the core file fixes the architecture; the sources are
    // recompiled (deterministically) for the symbol tables.
    let loaded_core = match (&core, run_only) {
        (Some(path), false) => {
            let dump = read_core(&std::fs::read(path)?)?;
            arch = dump.0.cpu.arch;
            Some(dump)
        }
        _ => None,
    };
    let sources = files.iter().map(std::fs::read_to_string).collect::<Result<Vec<_>, _>>()?;
    let parts: Vec<(&str, &str)> =
        files.iter().map(String::as_str).zip(sources.iter().map(String::as_str)).collect();
    let c = compile_many(&parts, arch, CompileOpts { order, ..Default::default() })
        .map_err(|e| format!("{e}"))?;
    if run_only {
        // Run undebugged; a fault dumps core (UNIX semantics) when
        // --core names a path.
        let cfg = NubConfig { core_path: core.as_ref().map(Into::into), ..Default::default() };
        let m = ldb_nub::spawn(&c.linked.image, cfg).join.join().expect("nub thread");
        print!("{}", m.output);
        match m.exited {
            Some(status) => println!("exited with status {status}"),
            None => match &core {
                Some(p) if std::path::Path::new(p).exists() => {
                    println!("faulted; core dumped to {p}");
                }
                Some(p) => println!("faulted; could not write core to {p}"),
                None => println!("faulted (no --core path; state discarded)"),
            },
        }
        return Ok(());
    }
    // `c` lives to the end of the session: freeing a big unit's program
    // costs milliseconds on the way to the first prompt.
    let prepared = Arc::new(PreparedTarget::new(&c, sources.join("\n"), &ModuleCache::new())?);
    let mut ldb = Ldb::new();
    ldb.set_wire_cache(wire_cache);
    ldb.set_ps_limits(ps_fuel, ps_mem);
    ldb.set_chaos(chaos.clone());
    ldb.set_checkpoint_every(checkpoint_every);
    ldb.set_fault(fault.clone());
    // The flight recorder always keeps an in-memory ring for `info trace`;
    // `--trace` streams every record to a JSONL journal instead, with
    // wall-clock timestamps.
    let trace = match &trace_path {
        Some(path) => {
            let file = std::fs::File::create(path)?;
            Trace::with_writer(
                TraceConfig { wall_clock: true, ..TraceConfig::default() },
                Box::new(std::io::BufWriter::new(file)),
            )
        }
        None => Trace::ring(4096),
    };
    ldb.set_trace(trace.clone());
    // The interactive client policy (10 ms event poll).
    let cfg = ClientConfig::default();
    if let Some((machine, sig, code, context)) = loaded_core {
        let pc = machine.cpu.pc;
        let nub = spawn_machine(machine, context, NubConfig::default());
        let wire = nub.connect_channel()?;
        ldb.attach_prepared(&prepared, nub, Box::new(wire), cfg)?;
        println!(
            "core: signal {sig} (code {code:#x}) at pc {pc:#x}; post-mortem session"
        );
    } else if tcp {
        // Debug over a real socket: the nub thread is the "remote
        // machine"; an acceptor plays inetd and hands it the connection.
        let nub = prepared.spawn();
        let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let connect = nub.connect.clone();
        std::thread::spawn(move || {
            if let Ok((s, _)) = listener.accept() {
                let _ = connect.send(Box::new(TcpWire::new(s)));
            }
        });
        let stream = std::net::TcpStream::connect(addr)?;
        ldb.attach_prepared(&prepared, nub, Box::new(TcpWire::new(stream)), cfg)?;
        println!("connected over tcp://{addr}");
    } else {
        ldb.spawn_prepared(&prepared, cfg)?;
    }
    print!("{}", ldb_core::quarantine_warnings(&ldb));
    // Headless batch mode: run the script, print the transcript, exit
    // with the typed BatchOutcome code. No banners — the transcript is
    // the whole contract, byte-identical to a run_script replay.
    if let Some(path) = &script_path {
        let transcript = ldb_core::run_script(&mut ldb, &std::fs::read_to_string(path)?);
        print!("{transcript}");
        let outcome = ldb_core::BatchOutcome::classify(&ldb, &transcript);
        trace.flush();
        if trace.write_failed() {
            eprintln!("ldb: warning: trace journal write failed; the file is incomplete");
        }
        std::process::exit(outcome.exit_code());
    }
    if let Some(f) = &fault {
        println!("fault injection active on the wire: {f:?}");
    }
    if let Some(cfg) = &chaos {
        println!(
            "chaos injection active on target data memory: seed={} rate={} \
             (run control is reliable; inspection results are suspect)",
            cfg.seed, cfg.rate
        );
    }
    println!("ldb: {} for {arch} ({} instructions)", files.join(" "), c.linked.stats.insn_count);

    let stdin = std::io::stdin();
    let mut lines = stdin.lock().lines();
    loop {
        print!("(ldb) ");
        std::io::stdout().flush()?;
        let Some(Ok(line)) = lines.next() else { break };
        match ldb_core::run_line(&mut ldb, &line) {
            Some(out) => print!("{out}"),
            None => break,
        }
        // Keep the on-disk journal current between commands so a crashed
        // session still leaves a usable trace behind.
        trace.flush();
    }
    trace.flush();
    if trace.write_failed() {
        eprintln!("ldb: warning: trace journal write failed; the file is incomplete");
    }
    Ok(())
}
