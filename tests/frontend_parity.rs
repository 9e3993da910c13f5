//! One command language, three front ends: every entry of the shared
//! command table (`ldb_core::COMMANDS`) must print the same bytes whether
//! it was typed at the interactive `ldb` prompt, read by `ldb --script`,
//! or sent to an `ldbd` tenant as a `cmd` request (`info wire` and
//! `info trace` by format: they measure each front end's own client
//! policy and recorder). Also the commands that only became reachable
//! from scripts and tenants when the two dispatchers merged: conditional
//! breakpoints, bounded `x`/`disas`, and `ps` under the interactive
//! budget, capped per session.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use ldb_suite::cc::driver::{compile_many, CompileOpts};
use ldb_suite::core::{lookup, run_script, service_client_config, Ldb, ModuleCache, COMMANDS};
use ldb_suite::daemon::{escape_line, unescape_line, Daemon, DaemonConfig, PROG_COUNT};
use ldb_suite::machine::Arch;

/// A scratch directory holding the daemon's `count` program as
/// `target.c`, so the CLI compiles exactly what a tenant compiles (same
/// module name, same source, same addresses).
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ldb-parity-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("target.c"), PROG_COUNT).unwrap();
    dir
}

/// Run `ldb target.c --arch mips [extra]` in `dir` with `stdin`; stdout.
fn ldb_cli(dir: &PathBuf, extra: &[&str], stdin: &str) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ldb"))
        .current_dir(dir)
        .args(["target.c", "--arch", "mips"])
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ldb");
    child.stdin.as_mut().unwrap().write_all(stdin.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The interactive front end: one output per command, prompts stripped
/// (the text before the first prompt is the banner).
fn interactive(dir: &PathBuf, cmds: &[String]) -> Vec<String> {
    let out = ldb_cli(dir, &[], &(cmds.join("\n") + "\n"));
    out.split("(ldb) ").skip(1).map(str::to_string).collect()
}

/// Split a `run_script`-format transcript into per-command outputs,
/// dropping the `(ldb) <cmd>` echo lines.
fn split_transcript(t: &str) -> Vec<String> {
    let mut outs: Vec<String> = Vec::new();
    for line in t.lines() {
        if line.starts_with("(ldb) ") {
            outs.push(String::new());
        } else {
            let cur = outs.last_mut().expect("output before the first echo line");
            cur.push_str(line);
            cur.push('\n');
        }
    }
    outs
}

/// The batch front end: `ldb --script`.
fn batch(dir: &PathBuf, cmds: &[String]) -> Vec<String> {
    let script = dir.join("session.ldb");
    std::fs::write(&script, cmds.join("\n") + "\n").unwrap();
    split_transcript(&ldb_cli(dir, &["--script", script.to_str().unwrap()], ""))
}

fn ok(reply: String) -> String {
    match reply.strip_prefix("ok ") {
        Some(r) => unescape_line(r),
        None => panic!("daemon refused: {reply}"),
    }
}

fn daemon() -> Daemon {
    Daemon::new(DaemonConfig { watchdog: Some(Duration::from_secs(30)), ..Default::default() })
}

/// The daemon front end: one `cmd` request per command.
fn tenant(cmds: &[String]) -> Vec<String> {
    let d = daemon();
    let id = ok(d.handle_line("open mips prog=count"));
    cmds.iter()
        .map(|c| {
            let t = ok(d.handle_line(&format!("cmd {id} {}", escape_line(c))));
            split_transcript(&t).concat()
        })
        .collect()
}

/// Addresses the session needs, from the same deterministic compile
/// every front end performs.
struct Addrs {
    msg: u32,
    clamp_stops: Vec<u32>,
    if_line: usize,
}

fn addrs() -> Addrs {
    let p = compile_many(&[("target.c", PROG_COUNT)], Arch::Mips, CompileOpts::default()).unwrap();
    let l = &p.linked;
    let clamp = l.func_addrs.iter().position(|(name, _, _)| name.ends_with("clamp")).unwrap();
    Addrs {
        msg: l.image.symbol("msg").or_else(|| l.image.symbol("_msg")).unwrap(),
        clamp_stops: l.stop_addrs[clamp].clone(),
        if_line: PROG_COUNT.lines().position(|l| l.contains("if (v > limit)")).unwrap() + 1,
    }
}

/// One session that runs every command in the table at least once.
fn session(a: &Addrs) -> Vec<String> {
    let stop0 = a.clamp_stops[0];
    let stop1 = a.clamp_stops[1];
    [
        "help".to_string(),
        "b clamp".into(),
        "info".into(),
        "c".into(),
        "bt".into(),
        "p v".into(),
        "e v * 2 + 1".into(),
        // A call into clamp would stop at its own breakpoint: lift it.
        format!("d {stop0:#x}"),
        "call clamp(500)".into(),
        "b clamp".into(),
        "display calls".into(),
        "n".into(),
        "s".into(),
        "f 0".into(),
        "regs".into(),
        format!("x {:#x} 40", a.msg),
        "disas 16".into(),
        "list".into(),
        "ps 1 2 add".into(),
        "info b".into(),
        "info wire".into(),
        "info cache".into(),
        "info trace".into(),
        "info ps".into(),
        "reload".into(),
        format!("bl {}", a.if_line),
        // A fresh restore point after the plant, then two hits to rewind.
        "checkpoint".into(),
        "c".into(),
        "c".into(),
        "rc".into(),
        "w calls".into(),
        "c".into(),
        "dw calls".into(),
        "checkpoint".into(),
        "s".into(),
        "rs".into(),
        "n".into(),
        "rn".into(),
        "info checkpoints".into(),
        "undisplay 0".into(),
        format!("ba {stop1:#x}"),
        format!("delete {stop1:#x}"),
        format!("pc {stop0:#x}"),
        "fin".into(),
        "detach".into(),
        "attach".into(),
        "reconnect".into(),
        "__panic parity drill".into(),
        "info health".into(),
        "info health --json".into(),
        "where".into(),
        "q".into(),
    ]
    .into()
}

#[test]
fn every_command_prints_the_same_through_every_front_end() {
    let a = addrs();
    let cmds = session(&a);
    // No command may be skipped: the session covers the whole table.
    for c in COMMANDS {
        let covered = cmds.iter().any(|line| {
            let word = line.split_whitespace().next().unwrap();
            lookup(word).is_some_and(|hit| hit.name == c.name)
        });
        assert!(covered, "command `{}` is not exercised by the parity session", c.name);
    }

    let dir = workdir("session");
    let interactive = interactive(&dir, &cmds);
    let batch = batch(&dir, &cmds);
    let tenant = tenant(&cmds);
    for (name, outs) in [("interactive", &interactive), ("--script", &batch), ("ldbd", &tenant)] {
        assert_eq!(outs.len(), cmds.len(), "{name}: one output per command:\n{outs:#?}");
    }
    for (i, cmd) in cmds.iter().enumerate() {
        match cmd.as_str() {
            // Wire byte counts include the event-poll pings, whose number
            // depends on the client policy's poll interval (the CLI's
            // interactive 10 ms, a tenant's service 100 ms) and on timing:
            // the format and fields agree, the figures may not.
            "info wire" => {
                assert_eq!(masked(&interactive[i]), masked(&batch[i]), "`{cmd}`");
                assert_eq!(masked(&batch[i]), masked(&tenant[i]), "`{cmd}`");
            }
            // The recorder is per front end: the CLI keeps a 4096-record
            // ring, an ldbd tenant keeps none.
            "info trace" => {
                assert_eq!(masked(&interactive[i]), masked(&batch[i]), "`{cmd}`");
                assert!(batch[i].ends_with("(consistent)\n"), "{}", batch[i]);
                assert_eq!(tenant[i], "trace: off (start with --trace FILE, or Ldb::set_trace)\n");
            }
            _ => {
                assert_eq!(interactive[i], batch[i], "`{cmd}`: interactive vs --script");
                assert_eq!(batch[i], tenant[i], "`{cmd}`: --script vs ldbd");
            }
        }
    }
    // The session really debugged something: spot-check the shared output.
    let out = |c: &str| &batch[cmds.iter().position(|x| x == c).unwrap()];
    assert!(out("c").starts_with("breakpoint in clamp"), "{}", out("c"));
    assert_eq!(out("call clamp(500)"), "100\n");
    assert!(out("rc").starts_with("breakpoint in clamp at line"), "{}", out("rc"));
    assert!(out("w calls").starts_with("watching calls"), "{}", out("w calls"));
    assert!(out("bt").starts_with("#0 clamp at 0x"), "{}", out("bt"));
    assert_eq!(out("ps 1 2 add"), "3\n");
    assert!(out("attach").contains("reattached; breakpoints recovered"), "{}", out("attach"));
    assert!(out("__panic parity drill").contains("command quarantined"));
    assert!(!batch.concat().contains("unknown script command"), "{batch:#?}");
}

/// `s` with every run of digits replaced by `#`.
fn masked(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        if !c.is_ascii_digit() {
            out.push(c);
        } else if !out.ends_with('#') {
            out.push('#');
        }
    }
    out
}

/// The exact breakpoint line: `breakpoint at 0x<hex>` plus `suffix`.
fn is_break_line(line: &str, suffix: &str) -> bool {
    line.strip_prefix("breakpoint at 0x")
        .and_then(|rest| rest.strip_suffix(suffix))
        .is_some_and(|hex| !hex.is_empty() && hex.chars().all(|c| c.is_ascii_hexdigit()))
}

const CONDITIONAL: &str = "b clamp 0 if v == 90\nc\np v\nb main 2\n";

fn check_conditional(t: &str) {
    let lines: Vec<&str> = t.lines().collect();
    assert!(is_break_line(lines[1], " if v == 90"), "{t}");
    // The three false hits (v = 0, 30, 60) were silent.
    assert_eq!(t.matches("breakpoint in clamp").count(), 1, "{t}");
    assert!(t.contains("(ldb) p v\nv = 90\n"), "{t}");
    // An unconditional plant keeps its exact one-line report.
    assert!(is_break_line(lines.last().unwrap(), ""), "{t}");
}

#[test]
fn conditional_breakpoints_hold_in_scripts_and_tenants() {
    let cache = ModuleCache::new();
    let prepared =
        std::sync::Arc::new(ldb_suite::core::prepare_target(Arch::Mips, PROG_COUNT, &cache).unwrap());
    let mut ldb = Ldb::new();
    ldb.spawn_prepared(&prepared, service_client_config(0)).unwrap();
    check_conditional(&run_script(&mut ldb, CONDITIONAL));

    let d = daemon();
    let id = ok(d.handle_line("open sparc prog=count"));
    check_conditional(&ok(d.handle_line(&format!("cmd {id} {}", escape_line(CONDITIONAL)))));
}

/// Each probe's single output line must be an `error:` line carrying
/// `want`, and the command after them must still work.
fn check_bounds(outs: &[String]) {
    let want = [
        "error: usage: x <hex-addr> [nbytes] (at most 65536 bytes)",
        "error: 512 bytes from 0xffffff00 wrap past the end of the address space",
        "error: usage: disas [nbytes] (at most 65536 bytes)",
        "error: 16 bytes from 0xfffffff8 wrap past the end of the address space",
    ];
    for (out, want) in outs[2..6].iter().zip(want) {
        assert_eq!(out.trim_end(), want, "{outs:#?}");
    }
    assert_eq!(outs[6], "v = 0\n", "{outs:#?}");
}

#[test]
fn examine_and_disas_reject_oversized_and_wrapping_ranges() {
    let cmds: Vec<String> = [
        "b clamp",
        "c",
        "x 0 4000000000",
        "x ffffff00 512",
        "disas 4294967295",
        "x fffffff8 16",
        "p v",
        "q",
    ]
    .map(String::from)
    .into();
    let dir = workdir("bounds");
    check_bounds(&interactive(&dir, &cmds));
    check_bounds(&tenant(&cmds));
}

#[test]
fn postscript_runs_under_the_interactive_budget() {
    let cmds: Vec<String> =
        ["b clamp", "c", "ps { 4000000 array } loop", "p v", "ps 2 3 mul", "info ps", "q"]
            .map(String::from)
            .into();
    let check = |outs: Vec<String>| {
        assert!(outs[2].starts_with("postscript error: vmerror"), "{outs:#?}");
        assert_eq!(outs[3], "v = 0\n", "{outs:#?}");
        // The failed code's stack was cleared: only the new result prints.
        assert_eq!(outs[4], "6\n", "{outs:#?}");
        assert!(!outs[5].contains(" 0 budget trips"), "{outs:#?}");
    };
    check(tenant(&cmds));
    check(interactive(&workdir("budget"), &cmds));
}

#[test]
fn postscript_allocations_that_outlive_a_command_share_one_session_cap() {
    // Each `def` keeps 6.4 MB alive; the interactive cap is 32 MiB.
    let mut cmds: Vec<String> = vec!["b clamp".into(), "c".into()];
    cmds.extend((1..=6).map(|k| format!("ps /a{k} 200000 array def")));
    cmds.extend(["ps /small 1 array def", "p v", "ps 2 3 mul", "q"].map(String::from));
    let check = |outs: Vec<String>| {
        let spent = "postscript error: vmerror: this session's ps allocation budget \
                     (33554432 bytes) is spent\n";
        assert!(outs[2..7].iter().all(String::is_empty), "{outs:#?}");
        assert_eq!(outs[7], spent, "{outs:#?}");
        assert_eq!(outs[8], spent, "{outs:#?}");
        assert_eq!(outs[9], "v = 0\n", "{outs:#?}");
        assert_eq!(outs[10], "6\n", "{outs:#?}");
    };
    check(tenant(&cmds));
    check(interactive(&workdir("session-cap"), &cmds));
}
