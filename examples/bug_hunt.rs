//! A realistic debugging hunt, scripted: a program computes checksums
//! into a table, but one slot comes out wrong. The session narrows it
//! down with the features a working debugger needs — a watchpoint to
//! catch the corrupting store, a conditional breakpoint to stop on the
//! culprit iteration only, `finish` to read a return value, and a
//! debugger-initiated call to probe the helper with chosen inputs.
//!
//! Run with `cargo run --example bug_hunt`.

use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable, StopEvent};
use ldb_machine::Arch;

// The bug: the "normalize" helper clamps to 99 with `>` instead of
// `>=`, so a checksum of exactly 100 sneaks through un-clamped and the
// table's invariant (every entry < 100) breaks for one input.
const SRC: &str = r#"
int table[8];
int bad_writes;

int normalize(int v) {
    if (v > 100) return 99;
    return v;
}

int checksum(int seed) {
    return seed + seed / 2;
}

int main(void) {
    int k;
    for (k = 0; k < 8; k++) {
        table[k] = normalize(checksum(17 + k * 25));
        if (table[k] > 99) bad_writes++;
    }
    printf("%d\n", bad_writes);
    return 0;
}
"#;

fn main() {
    let arch = Arch::Mips;
    let c = compile("chk.c", SRC, arch, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    println!("-- the report: one table entry breaks the `< 100` invariant\n");

    // Step 1: watch the failure counter; the watchpoint names the exact
    // iteration without knowing where the bad store happens.
    ldb.break_at("main", 1).unwrap();
    ldb.cont().unwrap();
    ldb.watch_var("bad_writes").unwrap();
    let (culprit, at_line) = match ldb.cont_watch().unwrap() {
        StopEvent::Watchpoint { name, old, new, func, line, .. } => {
            println!("watchpoint: {name} changed {old} -> {new} in {func} at line {line}");
            (ldb.eval("k").unwrap(), line)
        }
        other => panic!("{other:?}"),
    };
    println!("culprit iteration: k = {culprit} (line {at_line})");
    let bad_value = ldb.eval(&format!("table[{culprit}]")).unwrap();
    println!("table[{culprit}] = {bad_value}  <- escaped the clamp\n");
    ldb.clear_watch("bad_writes").unwrap();

    // Step 2: probe the helper directly with debugger-initiated calls —
    // no recompiling, no test harness.
    println!("-- probing normalize() from the debugger:");
    for v in [99, 100, 101] {
        let r = ldb.call_function("normalize", &[v]).unwrap();
        let verdict = if r <= 99 { "ok" } else { "BUG" };
        println!("   normalize({v}) = {r}   {verdict}");
    }
    println!("   -> the boundary case: normalize(100) returns 100 (`>` should be `>=`)\n");

    // Step 3: confirm where 100 comes from — a conditional breakpoint on
    // the checksum return for the culprit seed, then `finish` to read
    // the value it hands back.
    let mut ldb = fresh(arch);
    let addr = ldb.break_at("checksum", 0).unwrap();
    let seed = 17 + culprit.parse::<i64>().unwrap() * 25;
    ldb.set_break_condition(addr, Some(format!("seed == {seed}"))).unwrap();
    ldb.cont_watch().unwrap();
    let (_, rv) = ldb.finish().unwrap();
    println!("-- checksum({seed}) returns {:?}: exactly the unclamped 100", rv.unwrap());
    println!("\nfix: `if (v >= 100) return 99;`");

    fn fresh(arch: Arch) -> Ldb {
        let c = compile("chk.c", SRC, arch, CompileOpts::default()).unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
        let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
        let mut ldb = Ldb::new();
        ldb.spawn_program(&c.linked.image, &loader).unwrap();
        ldb
    }
}
