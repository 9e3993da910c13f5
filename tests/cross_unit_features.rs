//! The newer features (watchpoints, target calls, step-over, conditions)
//! against multi-unit programs: symbols resolve per unit, so each feature
//! must work when the interesting code lives in a separately compiled
//! file.

use ldb_suite::cc::driver::{compile_many, program_load_plan, CompileOpts};
use ldb_suite::cc::pssym;
use ldb_suite::core::{Ldb, ModuleTable, StopEvent};
use ldb_suite::machine::Arch;

const LIB: &str = r#"
static int calls;
int tally;
int clamp(int v, int lo, int hi) {
    calls++;
    tally = tally + v;
    if (v < lo) return lo;
    if (v > hi) return hi;
    return v;
}
int callcount(void) { return calls; }
"#;

const MAIN: &str = r#"
int clamp(int v, int lo, int hi);
int callcount(void);
int total;
int main(void) {
    int i;
    for (i = 0; i < 5; i++)
        total += clamp(i * 10, 5, 25);
    printf("%d %d\n", total, callcount());
    return 0;
}
"#;

fn session(arch: Arch) -> Ldb {
    let c = compile_many(
        &[("lib.c", LIB), ("mainx.c", MAIN)],
        arch,
        CompileOpts::default(),
    )
    .unwrap();
    let loader: Vec<ModuleTable> = program_load_plan(&c, pssym::PsMode::Deferred)
        .1
        .into_iter()
        .map(|(name, ps)| ModuleTable { name, ps })
        .collect();
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb
}

#[test]
fn watchpoint_on_another_units_global() {
    let mut ldb = session(Arch::Mips);
    ldb.break_at("main", 1).unwrap();
    ldb.cont().unwrap();
    // `tally` lives in lib.c; the watch must still resolve and fire.
    assert_eq!(ldb.watch_var("tally").unwrap(), "0");
    match ldb.cont_watch().unwrap() {
        StopEvent::Watchpoint { name, old, new, func, .. } => {
            assert_eq!(name, "tally");
            // clamp(0) stores the same value (tally += 0), which is not a
            // change; the first visible change is clamp(10).
            assert_eq!(old, "0");
            assert_eq!(new, "10");
            assert_eq!(func, "clamp");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn call_into_another_unit() {
    for arch in [Arch::Vax, Arch::Sparc] {
        let mut ldb = session(arch);
        ldb.break_at("main", 1).unwrap();
        ldb.cont().unwrap();
        // Call lib.c's extern directly, and observe its static moving
        // through its accessor.
        assert_eq!(ldb.call_function("clamp", &[40, 5, 25]).unwrap(), 25, "{arch}");
        assert_eq!(ldb.call_function("callcount", &[]).unwrap(), 1, "{arch}");
        // And from an expression, mixing units.
        assert_eq!(ldb.eval("clamp(3, 5, 25) + total").unwrap(), "5", "{arch}");
    }
}

#[test]
fn condition_on_a_lib_breakpoint_references_lib_locals() {
    let mut ldb = session(Arch::M68k);
    let addr = ldb.break_at("clamp", 1).unwrap();
    ldb.set_break_condition(addr, Some("v == 30".into())).unwrap();
    ldb.cont_watch().unwrap();
    assert_eq!(ldb.print_var("v").unwrap(), "30");
    // The unit-private static is visible at the stop (the stop precedes
    // this call's calls++, so three prior calls are recorded).
    assert_eq!(ldb.print_var("calls").unwrap(), "3");
}

#[test]
fn step_over_a_cross_unit_call() {
    let mut ldb = session(Arch::Mips);
    let a = ldb.break_at("main", 3).unwrap(); // the += body with the call
    ldb.cont().unwrap();
    ldb.clear_breakpoint(a).unwrap();
    // next over `total += clamp(...)`: the callee is in the other unit.
    ldb.step_over().unwrap();
    assert_eq!(ldb.eval("total").unwrap(), "5"); // clamp(0,5,25) = 5
    let (bt, _) = ldb.backtrace();
    assert_eq!(bt[0].1, "main");
}
