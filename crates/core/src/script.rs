//! The command language every front end speaks, and the deterministic
//! script runner over it — the replay half of the flight recorder.
//!
//! [`COMMANDS`] is the one command table. The interactive `ldb` prompt,
//! `ldb --script`, every `ldbd` tenant's `cmd` and every fleet session
//! run their input through [`run_line`], so a command prints the same
//! whichever front end typed it.
//!
//! A recorded session is a command script plus the seeds that make the
//! simulated machines, the compiler, and any injected faults
//! deterministic. Replaying is therefore just running the script again:
//! [`run_script`] executes a newline-separated command list against a
//! live session and returns the transcript it produced, journaling every
//! command as a [`Layer::Dbg`] `cmd` record on the way. With the
//! recorder in logical-clock mode, running the same script twice against
//! identically-seeded targets yields byte-identical transcripts *and*
//! byte-identical journals — which is exactly what the
//! `tests/replay_golden.rs` harness checks on all four architectures.
//! Output formats are chosen to be stable and machine-diffable rather
//! than chatty.

use std::sync::Arc;

use ldb_nub::proto::MAX_BLOCK;
use ldb_postscript::Budget;
use ldb_trace::{Layer, Severity};

use crate::debugger::{Ldb, StopEvent};
use crate::prepared::PreparedTarget;
use crate::LdbError;

/// Render a stop event as one transcript line (the script runner's
/// analog of the CLI's stop report).
pub fn report_stop(ev: &StopEvent) -> String {
    match ev {
        StopEvent::Paused => "paused before main".to_string(),
        StopEvent::Attached => "attached".to_string(),
        StopEvent::Breakpoint { func, line, addr } => {
            format!("breakpoint in {func} at line {line} ({addr:#x})")
        }
        StopEvent::Stepped { func, line, addr } => {
            format!("stepped: {func} line {line} ({addr:#x})")
        }
        StopEvent::Watchpoint { name, old, new, func, line, addr } => {
            format!("watchpoint: {name} changed {old} -> {new} in {func} at line {line} ({addr:#x})")
        }
        StopEvent::Fault { sig, code } => format!("fault: {sig} (code {code:#x})"),
        StopEvent::Exited(status) => format!("target exited with status {status}"),
    }
}

/// Summed wire metrics over every attached target.
fn total_metrics(ldb: &Ldb) -> ldb_nub::WireMetrics {
    let mut m = ldb_nub::WireMetrics::default();
    for id in 0..ldb.target_count() {
        let t = ldb.target(id).client.borrow().metrics();
        m.transactions += t.transactions;
        m.retransmits += t.retransmits;
        m.bytes_sent += t.bytes_sent;
        m.bytes_received += t.bytes_received;
    }
    m
}

/// The `info trace` report: per-layer record counts, per-kind counts,
/// and the journal-vs-[`WireMetrics`](ldb_nub::WireMetrics) consistency
/// check. Every frame the client puts on the wire appears in the journal
/// as a `send` (or `send_err`) record and every retransmission as a
/// `retx`, so `transactions = send + send_err - retx` must hold exactly.
pub fn trace_report(ldb: &Ldb) -> String {
    let trace = ldb.trace();
    if !trace.is_on() {
        return "trace: off (start with --trace FILE, or Ldb::set_trace)".to_string();
    }
    let c = trace.counts();
    // The fleet layer only speaks in fleet-runner journals; solo sessions
    // keep the four-layer line (and their pinned golden transcripts).
    let fleet = if c.fleet > 0 { format!(", fleet {}", c.fleet) } else { String::new() };
    let mut out = format!(
        "trace: {} records (wire {}, ps {}, dbg {}, net {}{fleet})\n",
        c.total(),
        c.wire,
        c.ps,
        c.dbg,
        c.net
    );
    for (layer, kind, n) in trace.kind_counts() {
        out.push_str(&format!("  {}/{kind} {n}\n", layer.name()));
    }
    // The cross-check counts `send`/`retx` records, which the client
    // emits at Debug; with the wire layer's minimum severity above that
    // they are filtered out of the journal, so the comparison against
    // WireMetrics would report a spurious mismatch.
    if trace.min_sev(Layer::Wire).is_some_and(|s| s > Severity::Debug) {
        out.push_str("wire cross-check: n/a (wire debug records filtered by min severity)");
        return out;
    }
    let m = total_metrics(ldb);
    let sends = trace.kind_count(Layer::Wire, "send");
    let send_errs = trace.kind_count(Layer::Wire, "send_err");
    let retx = trace.kind_count(Layer::Wire, "retx");
    let txns = (sends + send_errs).saturating_sub(retx);
    let ok = txns == m.transactions && retx == m.retransmits;
    out.push_str(&format!(
        "wire cross-check: journal {txns} txns / {retx} retx, metrics {} txns / {} retx ({})",
        m.transactions,
        m.retransmits,
        if ok { "consistent" } else { "MISMATCH" }
    ));
    out
}

/// The `info wire` report over every attached target.
fn wire_report(ldb: &Ldb) -> String {
    let m = total_metrics(ldb);
    format!(
        "wire: {} transactions, {} retransmits, {} bytes out, {} bytes in",
        m.transactions, m.retransmits, m.bytes_sent, m.bytes_received
    )
}

/// One command of the language: its spellings, a help line, and the
/// handler that runs it and renders its output.
pub struct Command {
    /// The canonical name.
    pub name: &'static str,
    /// Other spellings of the same command.
    pub aliases: &'static [&'static str],
    /// The argument synopsis.
    pub args: &'static str,
    /// One line of help.
    pub help: &'static str,
    run: fn(&mut Ldb, &str) -> Run,
}

type Run = Result<String, LdbError>;

/// Every command, in `help` order.
#[rustfmt::skip]
pub static COMMANDS: &[Command] = &[
    Command { name: "b", aliases: &["break"], args: "<func> [n] [if <expr>]", run: cmd_break,
        help: "breakpoint at stopping point n (default 0), optionally conditional" },
    Command { name: "bl", aliases: &[], args: "<line>", run: cmd_break_line,
        help: "breakpoint at the first stopping point on a source line" },
    Command { name: "ba", aliases: &[], args: "<addr>", run: cmd_break_addr,
        help: "single-step breakpoint at a raw code address" },
    Command { name: "d", aliases: &["delete"], args: "<addr>", run: cmd_delete,
        help: "delete the breakpoint at addr" },
    Command { name: "w", aliases: &["watch"], args: "<name>", run: cmd_watch,
        help: "watch a variable (single-steps; stops on change)" },
    Command { name: "dw", aliases: &[], args: "<name>", run: cmd_unwatch,
        help: "delete the watchpoint on name" },
    Command { name: "info", aliases: &[], args: "[topic]", run: cmd_info,
        help: "breakpoints, watchpoints, displays; topics: b wire cache trace health [--json] checkpoints ps" },
    Command { name: "reload", aliases: &[], args: "", run: cmd_reload,
        help: "retry quarantined symbol tables" },
    Command { name: "c", aliases: &["cont", "run", "r"], args: "", run: |ldb, _| stopped(ldb, Ldb::cont_watch),
        help: "continue" },
    Command { name: "s", aliases: &["step"], args: "", run: |ldb, _| stopped(ldb, Ldb::step_insn),
        help: "step one instruction" },
    Command { name: "n", aliases: &["next"], args: "", run: |ldb, _| stopped(ldb, Ldb::step_over),
        help: "run to the next stopping point in this frame" },
    Command { name: "fin", aliases: &["finish"], args: "", run: cmd_finish,
        help: "run until the selected frame returns" },
    Command { name: "checkpoint", aliases: &[], args: "", run: |ldb, _| Ok(format!("checkpoint at step {}", ldb.checkpoint_now()?)),
        help: "capture a restore point (info checkpoints lists them)" },
    Command { name: "rs", aliases: &["reverse-step"], args: "", run: |ldb, _| stopped(ldb, Ldb::reverse_step_insn),
        help: "rewind one instruction (restore + deterministic replay)" },
    Command { name: "rn", aliases: &["reverse-next"], args: "", run: |ldb, _| stopped(ldb, Ldb::reverse_next),
        help: "rewind to the previous source line, skipping calls" },
    Command { name: "rc", aliases: &["reverse-continue"], args: "", run: |ldb, _| stopped(ldb, Ldb::reverse_cont),
        help: "rewind to the most recent breakpoint hit" },
    Command { name: "display", aliases: &[], args: "<expr>", run: cmd_display,
        help: "re-evaluate and print expr at every stop" },
    Command { name: "undisplay", aliases: &[], args: "<k>", run: cmd_undisplay,
        help: "remove display k" },
    Command { name: "x", aliases: &["examine"], args: "<addr> [n]", run: cmd_examine,
        help: "hex dump n bytes (default 64) of target data memory" },
    Command { name: "pc", aliases: &[], args: "<addr>", run: cmd_set_pc,
        help: "set the program counter (repair-and-resume)" },
    Command { name: "p", aliases: &["print"], args: "<name>", run: cmd_print,
        help: "print a variable via its type's printer" },
    Command { name: "e", aliases: &["eval"], args: "<expr>", run: |ldb, rest| ldb.eval(rest.trim()),
        help: "evaluate a C expression (assignments and calls allowed)" },
    Command { name: "call", aliases: &[], args: "<f>(<args>)", run: cmd_call,
        help: "call a target function, print its return value" },
    Command { name: "bt", aliases: &["where"], args: "", run: cmd_backtrace,
        help: "backtrace" },
    Command { name: "f", aliases: &["frame"], args: "<n>", run: cmd_frame,
        help: "select frame n" },
    Command { name: "regs", aliases: &[], args: "", run: cmd_regs,
        help: "registers (machine-dependent names)" },
    Command { name: "list", aliases: &["l"], args: "", run: |ldb, _| Ok(prepared(ldb, "list")?.listing()),
        help: "source annotated with stopping points" },
    Command { name: "disas", aliases: &["di"], args: "[n]", run: cmd_disas,
        help: "disassemble n bytes (default 32) forward from the pc" },
    Command { name: "ps", aliases: &[], args: "<code>", run: cmd_ps,
        help: "run PostScript in the embedded interpreter" },
    Command { name: "detach", aliases: &[], args: "", run: cmd_detach,
        help: "detach, preserving target state in the nub" },
    Command { name: "attach", aliases: &[], args: "", run: cmd_attach,
        help: "reconnect to the detached target" },
    Command { name: "reconnect", aliases: &[], args: "", run: cmd_reconnect,
        help: "replace a lost or faulty wire with a fresh one" },
    Command { name: "h", aliases: &["help"], args: "", run: |_, _| Ok(help_text()),
        help: "this list" },
    Command { name: "q", aliases: &["quit"], args: "", run: |_, _| Ok(String::new()),
        help: "quit (in a script: stop reading)" },
    Command { name: "__panic", aliases: &[], args: "[msg]", run: cmd_panic,
        help: "drill: panic inside dispatch (the command is quarantined)" },
];

/// The command `word` names, if any.
pub fn lookup(word: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == word || c.aliases.contains(&word))
}

/// The `help` text: one line per [`COMMANDS`] entry.
fn help_text() -> String {
    let synopsis = |c: &Command| {
        let names = [&[c.name], c.aliases].concat().join(" | ");
        format!("{names} {}", c.args).trim_end().to_string()
    };
    let width = COMMANDS.iter().map(|c| synopsis(c).len()).max().unwrap_or(0);
    let lines: Vec<String> =
        COMMANDS.iter().map(|c| format!("{:<width$}  {}", synopsis(c), c.help)).collect();
    lines.join("\n")
}

fn msg(e: impl std::fmt::Display) -> LdbError {
    LdbError::msg(e.to_string())
}

/// The arguments with runs of whitespace collapsed to single spaces.
fn words(rest: &str) -> String {
    rest.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The first argument word, or `usage` as the error.
fn word_arg<'a>(rest: &'a str, usage: &str) -> Result<&'a str, LdbError> {
    rest.split_whitespace().next().ok_or_else(|| LdbError::msg(usage))
}

/// The first argument as a hexadecimal address (`0x` optional).
fn hex_arg(rest: &str, usage: &str) -> Result<u32, LdbError> {
    u32::from_str_radix(word_arg(rest, usage)?.trim_start_matches("0x"), 16).map_err(msg)
}

/// An optional count argument.
fn count_arg(arg: Option<&str>, default: u32) -> Result<u32, LdbError> {
    arg.map_or(Ok(default), |s| s.parse().map_err(msg))
}

/// The current target's prepared program, which `what` needs.
fn prepared(ldb: &Ldb, what: &str) -> Result<Arc<PreparedTarget>, LdbError> {
    let id = ldb.current().ok_or_else(|| LdbError::msg("no target"))?;
    ldb.target(id).prepared.clone().ok_or_else(|| {
        LdbError::msg(format!("{what}: target was not attached from a prepared program"))
    })
}

/// One display row: `k: expr = value`, or the error in angle brackets.
fn display_line(ldb: &mut Ldb, k: usize, expr: &str) -> String {
    match ldb.eval(expr) {
        Ok(v) => format!("{k}: {expr} = {v}"),
        Err(e) => format!("{k}: {expr} = <{e}>"),
    }
}

/// A stop's report followed by every display, re-evaluated — unless the
/// target exited and there is nothing left to evaluate against.
fn stop_text(ldb: &mut Ldb, ev: &StopEvent, mut text: String) -> String {
    if !matches!(ev, StopEvent::Exited(_)) {
        for (k, expr) in ldb.displays.clone().iter().enumerate() {
            text.push('\n');
            text.push_str(&display_line(ldb, k, expr));
        }
    }
    text
}

/// Run `go` and report where the target stopped.
fn stopped(ldb: &mut Ldb, go: fn(&mut Ldb) -> Result<StopEvent, LdbError>) -> Run {
    let ev = go(ldb)?;
    Ok(stop_text(ldb, &ev, report_stop(&ev)))
}

/// One warning per module the sandbox quarantined, each line ending in
/// a newline (empty when every module loaded).
pub fn quarantine_warnings(ldb: &Ldb) -> String {
    ldb.quarantined_modules()
        .into_iter()
        .map(|(module, reason)| {
            format!(
                "warning: module {module} quarantined: {reason}\n         \
                 (its symbols are unavailable; `reload` retries)\n"
            )
        })
        .collect()
}

fn cmd_break(ldb: &mut Ldb, rest: &str) -> Run {
    let words: Vec<&str> = rest.split_whitespace().collect();
    let func = words.first().ok_or_else(|| LdbError::msg("usage: b <func> [stop]"))?;
    // `b f 3 if i > 2`: everything after `if` is the condition.
    let if_pos = words.iter().skip(1).position(|w| *w == "if").map(|p| p + 1);
    let index: usize = words[1..if_pos.unwrap_or(words.len())]
        .first()
        .map_or(Ok(0), |s| s.parse())
        .map_err(|_| LdbError::msg("bad stopping-point index"))?;
    let cond = match if_pos {
        Some(p) if p + 1 == words.len() => {
            return Err(LdbError::msg("usage: b <func> [n] if <expr>"));
        }
        Some(p) => Some(words[p + 1..].join(" ")),
        None => None,
    };
    let addr = ldb.break_at(func, index)?;
    let text = format!("breakpoint at {addr:#x}{}", if_suffix(cond.as_ref()));
    ldb.set_break_condition(addr, cond)?;
    Ok(text)
}

/// ` if <cond>` for a conditional breakpoint, nothing otherwise.
fn if_suffix(cond: Option<&String>) -> String {
    cond.map_or(String::new(), |c| format!(" if {c}"))
}

fn cmd_break_line(ldb: &mut Ldb, rest: &str) -> Run {
    let line: u32 = rest.trim().parse().map_err(|_| LdbError::msg("usage: bl <line>"))?;
    Ok(format!("breakpoint at {:#x}", ldb.break_at_line(line)?))
}

fn cmd_break_addr(ldb: &mut Ldb, rest: &str) -> Run {
    let addr = hex_arg(rest, "usage: ba <hex-addr>")?;
    ldb.break_at_pc(addr)?;
    Ok(format!("single-step breakpoint at {addr:#x}"))
}

fn cmd_delete(ldb: &mut Ldb, rest: &str) -> Run {
    ldb.clear_breakpoint(hex_arg(rest, "usage: d <hex-addr>")?)?;
    Ok(String::new())
}

fn cmd_watch(ldb: &mut Ldb, rest: &str) -> Run {
    let name = word_arg(rest, "usage: w <name>")?;
    Ok(format!("watching {name} (currently {})", ldb.watch_var(name)?))
}

fn cmd_unwatch(ldb: &mut Ldb, rest: &str) -> Run {
    ldb.clear_watch(word_arg(rest, "usage: dw <name>")?)?;
    Ok(String::new())
}

fn cmd_reload(ldb: &mut Ldb, _: &str) -> Run {
    let rows = ldb.reload_modules()?;
    if rows.is_empty() {
        return Ok("nothing quarantined".to_string());
    }
    let lines: Vec<String> = rows
        .into_iter()
        .map(|(module, outcome)| match outcome {
            Ok(()) => format!("module {module}: reloaded"),
            Err(reason) => format!("module {module}: still quarantined: {reason}"),
        })
        .collect();
    Ok(lines.join("\n"))
}

fn cmd_finish(ldb: &mut Ldb, _: &str) -> Run {
    let (ev, ret) = ldb.finish()?;
    let text = match ret {
        Some(v) => format!("{}\nreturn value: {v}", report_stop(&ev)),
        None => report_stop(&ev),
    };
    Ok(stop_text(ldb, &ev, text))
}

fn cmd_display(ldb: &mut Ldb, rest: &str) -> Run {
    let expr = words(rest);
    if expr.is_empty() {
        return Err(LdbError::msg("usage: display <expr>"));
    }
    // Evaluated once now for feedback; an expression not yet in scope
    // still arms, and prints once the target reaches a scope where it
    // evaluates.
    ldb.displays.push(expr.clone());
    Ok(display_line(ldb, ldb.displays.len() - 1, &expr))
}

fn cmd_undisplay(ldb: &mut Ldb, rest: &str) -> Run {
    let k: usize = word_arg(rest, "usage: undisplay <n>")?.parse().map_err(msg)?;
    if k >= ldb.displays.len() {
        return Err(LdbError::msg(format!("no display {k}")));
    }
    ldb.displays.remove(k);
    Ok(String::new())
}

fn cmd_set_pc(ldb: &mut Ldb, rest: &str) -> Run {
    let addr = hex_arg(rest, "usage: pc <hex-addr>")?;
    ldb.set_pc(addr)?;
    Ok(format!("pc set to {addr:#x}"))
}

fn cmd_print(ldb: &mut Ldb, rest: &str) -> Run {
    let name = rest.trim();
    Ok(format!("{name} = {}", ldb.print_var(name)?))
}

fn cmd_call(ldb: &mut Ldb, rest: &str) -> Run {
    let call = words(rest);
    if !call.contains('(') || !call.ends_with(')') {
        return Err(LdbError::msg("usage: call <func>(<args>)"));
    }
    ldb.eval(&call)
}

fn cmd_backtrace(ldb: &mut Ldb, _: &str) -> Run {
    let (rows, stop) = ldb.backtrace();
    let mut lines: Vec<String> =
        rows.iter().map(|(level, name, pc, _vfp)| format!("#{level} {name} at {pc:#x}")).collect();
    if lines.is_empty() {
        lines.push("no stack".to_string());
    }
    if !stop.is_clean() {
        lines.push(format!("walk truncated: {stop}"));
    }
    Ok(lines.join("\n"))
}

fn cmd_frame(ldb: &mut Ldb, rest: &str) -> Run {
    let level: usize = rest.trim().parse().map_err(|_| LdbError::msg("usage: f <frame>"))?;
    ldb.select_frame(level)?;
    Ok(format!("frame {level}"))
}

fn cmd_regs(ldb: &mut Ldb, _: &str) -> Run {
    let regs = ldb.registers()?;
    Ok(regs.iter().map(|(name, v)| format!("{name}={v:#010x}")).collect::<Vec<_>>().join(" "))
}

fn cmd_detach(ldb: &mut Ldb, _: &str) -> Run {
    ldb.detach_parked()?;
    Ok("detached; program state preserved in the nub (reconnect with `attach`)".to_string())
}

fn cmd_attach(ldb: &mut Ldb, _: &str) -> Run {
    ldb.reattach_parked()?;
    Ok(quarantine_warnings(ldb) + "reattached; breakpoints recovered from the nub")
}

fn cmd_reconnect(ldb: &mut Ldb, _: &str) -> Run {
    let ev = ldb.reconnect_current()?;
    Ok(format!("{}\nreconnected; breakpoints recovered from the nub", report_stop(&ev)))
}

/// The supervision drill: a deliberate panic inside command dispatch,
/// the scripted analog of the daemon's `spin` builtin.
/// [`run_command_guarded`] must quarantine it (error line, health
/// counter, recovered session) and the script must keep going — which
/// is exactly what tests/script_recovery.rs and the fleet's panic corpus
/// assert.
fn cmd_panic(_: &mut Ldb, rest: &str) -> Run {
    let msg = if rest.trim().is_empty() { "scripted panic drill" } else { rest.trim() };
    panic!("{msg}");
}

fn cmd_info(ldb: &mut Ldb, rest: &str) -> Run {
    Ok(match rest.trim() {
        "" | "b" => {
            let mut lines = Vec::new();
            if let Some(t) = ldb.current().map(|id| ldb.target(id)) {
                for a in t.breakpoints.addresses() {
                    lines.push(format!("breakpoint at {a:#x}{}", if_suffix(t.conds.get(&a))));
                }
            }
            let watches = ldb.watchpoints().into_iter();
            lines.extend(watches.map(|(name, val)| format!("watchpoint on {name} (last {val})")));
            lines.extend(ldb.displays.iter().enumerate().map(|(k, e)| format!("display {k}: {e}")));
            lines.join("\n")
        }
        "wire" => wire_report(ldb),
        "cache" => match &ldb.target(ldb.current().ok_or_else(|| LdbError::msg("no target"))?).cache {
            Some(c) => {
                let s = c.stats();
                format!(
                    "cache: {} hits, {} misses, {} line fills, {} lines invalidated, {} resident",
                    s.hits, s.misses, s.fills, s.invalidated, c.resident_lines()
                )
            }
            None => "cache: disabled (--no-wire-cache)".to_string(),
        },
        "trace" => trace_report(ldb),
        "health" => ldb.health().to_string(),
        "health --json" => ldb.health().to_json(),
        "checkpoints" => {
            let s = ldb.checkpoint_stats()?;
            let mut lines = vec![format!(
                "checkpoints: {}/{} held, {} raw bytes ({} compressed)",
                s.len, s.cap, s.raw, s.compressed
            )];
            lines.extend(ldb.checkpoint_rows()?.iter().map(|(steps, raw, packed)| {
                format!("  step {steps}: {raw} bytes ({packed} compressed)")
            }));
            lines.join("\n")
        }
        "ps" => {
            let b = ldb.ps_budgets();
            let s = ldb.interp.budget_stats();
            let mut lines = vec![
                format!(
                    "budgets: load {} steps / {} bytes; interactive {} steps / {} bytes",
                    b.load.max_fuel, b.load.max_alloc, b.interactive.max_fuel, b.interactive.max_alloc
                ),
                format!(
                    "sandbox: {} steps spent, {} bytes charged ({} peak), {} budget trips",
                    s.fuel_spent_total, s.alloc_charged_total, s.alloc_peak, s.budget_trips
                ),
            ];
            let q = ldb.quarantined_modules();
            if q.is_empty() {
                lines.push("quarantine: empty".to_string());
            }
            lines.extend(q.iter().map(|(m, reason)| format!("quarantine: module {m}: {reason}")));
            lines.join("\n")
        }
        other => return Err(LdbError::msg(format!("no `info {other}` in scripts"))),
    })
}

/// `n` raw bytes of `space` from `addr`, in one block fetch: `n` is
/// capped at the protocol's block size and the range may not wrap.
fn fetch_bytes(
    ldb: &Ldb,
    space: char,
    addr: u32,
    n: u32,
    usage: &str,
) -> Result<Vec<u8>, LdbError> {
    if n > MAX_BLOCK {
        return Err(LdbError::msg(format!("{usage} (at most {MAX_BLOCK} bytes)")));
    }
    if n == 0 {
        return Ok(Vec::new());
    }
    if addr.checked_add(n - 1).is_none() {
        return Err(LdbError::msg(format!(
            "{n} bytes from {addr:#x} wrap past the end of the address space"
        )));
    }
    let id = ldb.current().ok_or_else(|| LdbError::msg("no target"))?;
    let (_order, bytes) = ldb.target(id).client.borrow_mut().fetch_block(space, addr, n)?;
    Ok(bytes)
}

fn cmd_examine(ldb: &mut Ldb, rest: &str) -> Run {
    const USAGE: &str = "usage: x <hex-addr> [nbytes]";
    let addr = hex_arg(rest, USAGE)?;
    let n = count_arg(rest.split_whitespace().nth(1), 64)?;
    let bytes = fetch_bytes(ldb, 'd', addr, n, USAGE)?;
    let rows: Vec<String> = bytes
        .chunks(16)
        .enumerate()
        .map(|(row, chunk)| {
            let hex: String = chunk.iter().map(|b| format!("{b:02x} ")).collect();
            let ascii: String = chunk
                .iter()
                .map(|&b| if b.is_ascii_graphic() || b == b' ' { b as char } else { '.' })
                .collect();
            let base = addr + row as u32 * 16;
            format!("{base:#010x}  {hex:<48} {ascii}")
        })
        .collect();
    Ok(rows.join("\n"))
}

fn cmd_disas(ldb: &mut Ldb, rest: &str) -> Run {
    let n = count_arg(rest.split_whitespace().next(), 32)?;
    let order = prepared(ldb, "disas")?.image.order;
    let id = ldb.current().ok_or_else(|| LdbError::msg("no target"))?;
    let t = ldb.target(id);
    let pc = t.frames.get(t.cur_frame).ok_or_else(|| LdbError::msg("not stopped"))?.pc;
    let arch = t.arch;
    // Forward from the pc: backing up is unreliable on the
    // variable-length targets.
    let bytes = fetch_bytes(ldb, 'c', pc, n, "usage: disas [nbytes]")?;
    let lines: Vec<String> = ldb_machine::disas::disassemble(arch, order, &bytes, pc)
        .into_iter()
        .map(|(addr, _, text)| {
            let mark = if addr == pc { "=>" } else { "  " };
            format!("{mark} {addr:#07x}  {text}")
        })
        .collect();
    Ok(lines.join("\n"))
}

/// `ps <code>`: run PostScript under the interactive budget (like
/// printers and expressions), then pop and print the operand stack. On
/// an error the stack is cleared. Objects the code `def`s outlive the
/// command, so the interactive allocation cap bounds everything `ps`
/// allocates over the session: each command may charge only what
/// earlier ones left of it, and one that trips the cap spends the rest.
fn cmd_ps(ldb: &mut Ldb, rest: &str) -> Run {
    let budget = ldb.ps_budgets().interactive;
    let left = budget.max_alloc.saturating_sub(ldb.ps_alloc_spent);
    let save = ldb.interp.push_budget(Budget { max_alloc: left, ..budget });
    let r = ldb.interp.run_str(rest.trim());
    let used = ldb.interp.alloc_used();
    ldb.ps_alloc_spent += used.min(left);
    ldb.interp.pop_budget(save);
    if let Err(e) = r {
        ldb.interp.clear_stack();
        return Ok(if used > left {
            format!(
                "postscript error: vmerror: this session's ps allocation budget \
                 ({} bytes) is spent",
                budget.max_alloc
            )
        } else {
            format!("postscript error: {e}")
        });
    }
    let mut lines = Vec::new();
    while ldb.interp.depth() > 0 {
        lines.push(ldb.interp.pop()?.to_syntactic());
    }
    Ok(lines.join("\n"))
}

fn run_command(ldb: &mut Ldb, cmd: &str, rest: &str) -> Result<String, LdbError> {
    match lookup(cmd) {
        Some(c) => (c.run)(ldb, rest),
        None => Err(LdbError::msg(format!("unknown script command `{cmd}`"))),
    }
}

/// A short rendering of a caught panic payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Run one command under `catch_unwind`: a residual panic anywhere in the
/// command's implementation quarantines that one command — journaled,
/// counted in `info health`, the session state re-validated — instead of
/// killing the loop.
pub fn run_command_guarded(ldb: &mut Ldb, cmd: &str, rest: &str) -> Result<String, LdbError> {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_command(ldb, cmd, rest)));
    match r {
        Ok(r) => r,
        Err(payload) => {
            let msg = panic_text(payload.as_ref());
            ldb.trace().emit(
                Layer::Dbg,
                Severity::Warn,
                "panic",
                &[("cmd", cmd.to_string().into()), ("msg", msg.clone().into())],
            );
            ldb.note_quarantined();
            ldb.recover_session();
            Err(LdbError::msg(format!("command quarantined (internal panic: {msg})")))
        }
    }
}

/// Run one input line through the command table — the step every front
/// end shares. Blank lines and `#` comments do nothing. Anything else is
/// journaled as a [`Layer::Dbg`] `cmd` record (when the recorder keeps
/// Info) and dispatched under [`run_command_guarded`]; the result is the
/// command's output, every line newline-terminated, with a failure
/// rendered as an `error: …` line. `None` means the line was `q`: the
/// caller stops reading.
pub fn run_line(ldb: &mut Ldb, line: &str) -> Option<String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Some(String::new());
    }
    let trace = ldb.trace();
    if trace.enabled(Layer::Dbg, Severity::Info) {
        trace.emit(Layer::Dbg, Severity::Info, "cmd", &[("text", line.to_string().into())]);
    }
    let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    if is_quit(cmd) {
        return None;
    }
    let mut out = match run_command_guarded(ldb, cmd, rest) {
        Ok(text) => text,
        Err(e) => format!("error: {e}"),
    };
    if !out.is_empty() {
        out.push('\n');
    }
    Some(out)
}

fn is_quit(cmd: &str) -> bool {
    lookup(cmd).is_some_and(|c| c.name == "q")
}

/// Run a newline-separated command script against `ldb`, returning the
/// transcript: each command echoed as `(ldb) <cmd>` followed by its
/// output ([`run_line`]). Blank lines and `#` comments are skipped; `q`
/// ends the script. Errors become `error: …` transcript lines rather
/// than aborting the script — a replayed session must reproduce its
/// failures too.
pub fn run_script(ldb: &mut Ldb, script: &str) -> String {
    let mut out = String::new();
    for line in script.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push_str("(ldb) ");
        out.push_str(line);
        out.push('\n');
        match run_line(ldb, line) {
            Some(text) => out.push_str(&text),
            None => break,
        }
    }
    out
}

/// How many commands a script will execute: the non-blank, non-comment
/// lines up to and including a `q` — exactly the lines [`run_script`]
/// dispatches (and journals as `cmd` records when the recorder keeps
/// Info). The fleet runner cross-checks this count against each
/// session's journal.
pub fn command_count(script: &str) -> u64 {
    let mut n = 0;
    for line in script.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        n += 1;
        if is_quit(line.split_whitespace().next().unwrap_or("")) {
            break;
        }
    }
    n
}

/// The typed outcome of a batch script run, as seen from *inside* the
/// session: what `ldb --script` turns into a process exit code and what
/// the fleet supervisor records per session (layering its own
/// supervisor-level outcomes — wedged, shed — on top).
///
/// Classification precedence is severity-ordered: a lost wire trumps a
/// quarantined panic trumps an ordinary script error.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BatchOutcome {
    /// Every command ran and none reported an error.
    Clean,
    /// At least one command produced an `error:` transcript line (bad
    /// usage, failed lookup, watchdog cancellation, …).
    ScriptError,
    /// At least one command panicked and was quarantined by the
    /// crash-proof loop ([`run_command_guarded`]).
    PanicQuarantined,
    /// A target's wire was lost mid-script (the nub died or the fault
    /// injector severed the connection).
    WireLost,
}

impl BatchOutcome {
    /// The stable token used in fleet reports and journals.
    pub fn token(self) -> &'static str {
        match self {
            BatchOutcome::Clean => "clean",
            BatchOutcome::ScriptError => "script-error",
            BatchOutcome::PanicQuarantined => "panic-quarantined",
            BatchOutcome::WireLost => "wire-lost",
        }
    }

    /// The `ldb --script` process exit code: `0` clean, `3` script
    /// error, `4` panic quarantine, `5` wire loss. (`1` stays the CLI's
    /// internal-error exit and `2` its usage exit, so shells can tell a
    /// failed *session* from a failed *invocation*.)
    pub fn exit_code(self) -> i32 {
        match self {
            BatchOutcome::Clean => 0,
            BatchOutcome::ScriptError => 3,
            BatchOutcome::PanicQuarantined => 4,
            BatchOutcome::WireLost => 5,
        }
    }

    /// Classify a finished script run from the session state and the
    /// transcript it produced. Wire loss is read from the targets'
    /// disconnected flags, panics from the health quarantine counter, and
    /// plain errors from the transcript's `error:` lines.
    pub fn classify(ldb: &Ldb, transcript: &str) -> BatchOutcome {
        if ldb.any_disconnected() {
            return BatchOutcome::WireLost;
        }
        if ldb.health().quarantined_commands > 0 {
            return BatchOutcome::PanicQuarantined;
        }
        if transcript.lines().any(|l| l.starts_with("error: ")) {
            return BatchOutcome::ScriptError;
        }
        BatchOutcome::Clean
    }
}

impl std::fmt::Display for BatchOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}
