//! Multi-unit programs: separately compiled units linked into one image,
//! with a combined top-level dictionary — "a single compilation unit or
//! any combination of compilation units, up to an entire program" (paper,
//! Sec. 2). Each unit has its own anchor symbol and statics; same-named
//! statics in different units stay distinct.

use ldb_suite::cc::driver::{compile_many, program_load_plan, CompileOpts};
use ldb_suite::cc::pssym::PsMode;
use ldb_suite::core::{Ldb, ModuleTable, StopEvent};
use ldb_suite::machine::{Arch, Machine, RunEvent};

const LIB_C: &str = r#"
static int calls;
static int limit = 100;
int clamp(int v) {
    calls++;
    if (v > limit) return limit;
    return v;
}
int lib_calls(void) { return calls; }
"#;

const MAIN_C: &str = r#"
static int calls;
int clamp(int v);
int lib_calls(void);
int main(void) {
    int i; int s;
    s = 0;
    for (i = 0; i < 10; i++) {
        calls = calls + 2;
        s += clamp(i * 30);
    }
    printf("%d %d %d\n", s, lib_calls(), calls);
    return 0;
}
"#;

#[test]
fn two_units_link_and_run_on_all_targets() {
    for arch in Arch::ALL {
        let p = compile_many(
            &[("lib.c", LIB_C), ("main.c", MAIN_C)],
            arch,
            CompileOpts::default(),
        )
        .unwrap_or_else(|e| panic!("{arch}: {e}"));
        let mut m = Machine::load(&p.linked.image);
        loop {
            match m.run(10_000_000) {
                RunEvent::Paused { .. } => continue,
                RunEvent::Exited(0) => break,
                other => panic!("{arch}: {other:?} {}", m.output),
            }
        }
        // 0+30+60+90+100*6 = 780; lib's calls = 10; main's calls = 20.
        assert_eq!(m.output, "780 10 20\n", "{arch}");
        // Two anchor symbols in the image.
        let anchors = p
            .linked
            .image
            .symbols
            .iter()
            .filter(|s| s.name.starts_with("_stanchor"))
            .count();
        assert_eq!(anchors, 2, "{arch}");
    }
}

#[test]
fn debugging_across_units_with_a_combined_dictionary() {
    for arch in [Arch::Mips, Arch::Vax] {
        let p = compile_many(
            &[("lib.c", LIB_C), ("main.c", MAIN_C)],
            arch,
            CompileOpts::default(),
        )
        .unwrap();
        let loader: Vec<ModuleTable> = program_load_plan(&p, PsMode::Deferred)
        .1
        .into_iter()
        .map(|(name, ps)| ModuleTable { name, ps })
        .collect();
        let mut ldb = Ldb::new();
        ldb.spawn_program(&p.linked.image, &loader).unwrap();

        // Break in the library unit on the 4th call.
        ldb.break_at("clamp", 1).unwrap();
        for _ in 0..4 {
            let ev = ldb.cont().unwrap();
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
        }
        // Same-named statics resolve per unit: in clamp's scope, `calls`
        // is the library's counter (3 before this call's ++ runs... the
        // breakpoint is at `calls++`, so 3 completed).
        assert_eq!(ldb.print_var("calls").unwrap(), "3", "{arch}");
        assert_eq!(ldb.print_var("limit").unwrap(), "100", "{arch}");
        assert_eq!(ldb.eval("v").unwrap(), "90", "{arch}");
        // Walk into main's frame: its own static `calls` is 8 (2 per
        // iteration, 4 iterations).
        let (bt, _) = ldb.backtrace();
        let names: Vec<&str> = bt.iter().map(|(_, n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["clamp", "main"], "{arch}");
        ldb.select_frame(1).unwrap();
        assert_eq!(ldb.print_var("calls").unwrap(), "8", "{arch}: main's own static");
        assert_eq!(ldb.print_var("s").unwrap(), "90", "{arch}: 0+30+60");
        // Globals from either unit resolve everywhere.
        ldb.select_frame(0).unwrap();
        let addr = ldb.target(0).breakpoints.addresses()[0];
        ldb.clear_breakpoint(addr).unwrap();
        assert_eq!(ldb.cont().unwrap(), StopEvent::Exited(0), "{arch}");
    }
}

#[test]
fn sourcemap_and_line_breakpoints_span_units() {
    let p = compile_many(
        &[("lib.c", LIB_C), ("main.c", MAIN_C)],
        Arch::Sparc,
        CompileOpts::default(),
    )
    .unwrap();
    let loader: Vec<ModuleTable> = program_load_plan(&p, PsMode::Eager)
        .1
        .into_iter()
        .map(|(name, ps)| ModuleTable { name, ps })
        .collect();
    let mut ldb = Ldb::new();
    ldb.spawn_program(&p.linked.image, &loader).unwrap();
    // Line 5 of lib.c is `calls++` — found through the merged tables.
    let addr = ldb.break_at_line(5).unwrap();
    let ev = ldb.cont().unwrap();
    let StopEvent::Breakpoint { func, addr: hit, .. } = ev else { panic!("{ev:?}") };
    assert_eq!(func, "clamp");
    assert_eq!(hit, addr);
}

#[test]
fn file_qualified_line_breakpoints_via_sourcemap() {
    // Both units have code on line 5; the sourcemap disambiguates.
    let p = compile_many(
        &[("lib.c", LIB_C), ("main.c", MAIN_C)],
        Arch::M68k,
        CompileOpts::default(),
    )
    .unwrap();
    let loader: Vec<ModuleTable> = program_load_plan(&p, PsMode::Deferred)
        .1
        .into_iter()
        .map(|(name, ps)| ModuleTable { name, ps })
        .collect();
    let mut ldb = Ldb::new();
    ldb.spawn_program(&p.linked.image, &loader).unwrap();
    // lib.c line 5 is `calls++` inside clamp.
    let a1 = ldb.break_at_file_line("lib.c", 5).unwrap();
    let ev = ldb.cont().unwrap();
    let StopEvent::Breakpoint { func, addr, .. } = ev else { panic!("{ev:?}") };
    assert_eq!(func, "clamp");
    assert_eq!(addr, a1);
    ldb.clear_breakpoint(a1).unwrap();
    // main.c line 9 is `calls = calls + 2` inside main.
    let a2 = ldb.break_at_file_line("main.c", 9).unwrap();
    assert_ne!(a1, a2);
    let ev = ldb.cont().unwrap();
    let StopEvent::Breakpoint { func, .. } = ev else { panic!("{ev:?}") };
    assert_eq!(func, "main");
    // Unknown files are clean errors.
    assert!(ldb.break_at_file_line("nope.c", 1).is_err());
}

#[test]
fn detach_and_run_lets_the_target_finish_alone() {
    let p = compile_many(
        &[("lib.c", LIB_C), ("main.c", MAIN_C)],
        Arch::Mips,
        CompileOpts::default(),
    )
    .unwrap();
    let loader: Vec<ModuleTable> = program_load_plan(&p, PsMode::Deferred)
        .1
        .into_iter()
        .map(|(name, ps)| ModuleTable { name, ps })
        .collect();
    let mut ldb = Ldb::new();
    ldb.spawn_program(&p.linked.image, &loader).unwrap();
    ldb.break_at("clamp", 1).unwrap();
    ldb.cont().unwrap();
    // Remove the breakpoint, then detach *running*: the target must
    // complete with no debugger attached.
    let addr = ldb.target(0).breakpoints.addresses()[0];
    ldb.clear_breakpoint(addr).unwrap();
    let nub = ldb.take_nub_handle(0).unwrap();
    ldb.target(0).client.borrow_mut().detach_and_run().unwrap();
    let m = nub.join.join().unwrap();
    assert_eq!(m.output, "780 10 20\n");
}
