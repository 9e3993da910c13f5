//! Ablation: the cost of software watchpoints.
//!
//! ldb has no hardware debug registers to lean on (neither did the
//! paper's four targets), so a watchpoint single-steps the target and
//! re-runs the watched variable's PostScript printer after every
//! instruction. This bench quantifies that trade against (a) free
//! running and (b) a breakpoint on the one line that writes the
//! variable — the manual alternative a user falls back to.

use std::time::Instant;

use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable, StopEvent};
use ldb_machine::Arch;

const SRC: &str = r#"
int total;
int tick(int k) {
    int j;
    for (j = 0; j < 20; j++)
        k = k + j;
    total = total + k;
    return total;
}
int main(void) {
    int i;
    for (i = 0; i < 40; i++)
        tick(i);
    return 0;
}
"#;

fn session() -> Ldb {
    let c = compile("tick.c", SRC, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb
}

fn main() {
    println!("E7 ablation: software watchpoint cost (40 stores, ~3800 executed instructions)");

    // Baseline: run to completion at full speed.
    let mut ldb = session();
    let t = Instant::now();
    assert!(matches!(ldb.cont().unwrap(), StopEvent::Exited(0)));
    let free = t.elapsed();
    println!("  free run                      : {:>9.1} us", free.as_secs_f64() * 1e6);

    // Manual alternative: breakpoint on the store line, inspect, resume.
    let mut ldb = session();
    ldb.break_at("tick", 5).unwrap(); // total = total + k
    let t = Instant::now();
    let mut stops = 0;
    loop {
        match ldb.cont().unwrap() {
            StopEvent::Breakpoint { .. } => {
                stops += 1;
                let _ = ldb.print_var("total").unwrap();
            }
            StopEvent::Exited(_) => break,
            other => panic!("{other:?}"),
        }
    }
    let brk = t.elapsed();
    println!(
        "  breakpoint-on-store + print   : {:>9.1} us ({stops} stops)",
        brk.as_secs_f64() * 1e6
    );

    // The watchpoint: single-step everything, re-print after each step.
    let mut ldb = session();
    ldb.break_at("main", 1).unwrap();
    ldb.cont().unwrap();
    ldb.watch_var("total").unwrap();
    let addr = ldb.target(0).breakpoints.addresses()[0];
    ldb.clear_breakpoint(addr).unwrap();
    let t = Instant::now();
    let mut fires = 0;
    loop {
        match ldb.cont_watch().unwrap() {
            StopEvent::Watchpoint { .. } => fires += 1,
            StopEvent::Exited(_) => break,
            other => panic!("{other:?}"),
        }
    }
    let watch = t.elapsed();
    println!(
        "  watchpoint (step + reprint)   : {:>9.1} us ({fires} fires)",
        watch.as_secs_f64() * 1e6
    );
    println!(
        "  watchpoint costs {:.0}x the free run and {:.1}x the manual breakpoint loop;",
        watch.as_secs_f64() / free.as_secs_f64(),
        watch.as_secs_f64() / brk.as_secs_f64()
    );
    println!(
        "  in exchange it needs no knowledge of which line stores the variable."
    );
}
