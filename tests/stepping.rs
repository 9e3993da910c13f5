//! `step_over` ("next"), `finish`, and library-level breakpoint
//! conditions: the stepping commands must honor conditions, skip
//! recursive re-entries by frame identity, and report callee return
//! values.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::pssym;
use ldb_suite::core::{Ldb, ModuleTable, StopEvent};
use ldb_suite::machine::Arch;

const SRC: &str = r#"
int add(int a, int b) { return a + b; }
int down(int n) {
    int local;
    local = n * 100;
    if (n == 0) return 0;
    return down(n - 1) + local;
}
int main(void) { printf("%d\n", down(6)); return 0; }
"#;

fn session(arch: Arch) -> Ldb {
    let c = compile("c.c", SRC, arch, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb
}

#[test]
fn next_stays_in_the_same_invocation() {
    for arch in Arch::ALL {
        let mut ldb = session(arch);
        let addr = ldb.break_at("down", 2).unwrap();
        ldb.set_break_condition(addr, Some("n == 3".into())).unwrap();
        ldb.cont_watch().unwrap();
        assert_eq!(ldb.print_var("n").unwrap(), "3", "{arch}");
        // next from `local = n * 100` to the if, same frame.
        ldb.step_over().unwrap();
        assert_eq!(ldb.print_var("local").unwrap(), "300", "{arch}");
        assert_eq!(ldb.print_var("n").unwrap(), "3", "{arch}");
        // next over `return down(n-1) + local`: the whole recursive
        // subtree (with the false-conditioned breakpoint inside it) runs,
        // and we surface in the caller (n == 4).
        let ev = ldb.step_over().unwrap();
        assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
        assert_eq!(ldb.print_var("n").unwrap(), "4", "{arch}");
    }
}

#[test]
fn finish_reports_the_return_value() {
    let mut ldb = session(Arch::Vax);
    let addr = ldb.break_at("down", 2).unwrap();
    ldb.set_break_condition(addr, Some("n == 2".into())).unwrap();
    ldb.cont_watch().unwrap();
    // down(2) = down(1) + 200 = 100 + 200 = 300.
    let (_, rv) = ldb.finish().unwrap();
    assert_eq!(rv, Some(300));
    assert_eq!(ldb.print_var("n").unwrap(), "3");
    // Finish again: down(3) = 600.
    let (_, rv) = ldb.finish().unwrap();
    assert_eq!(rv, Some(600));
}

#[test]
fn conditions_apply_on_every_resume_path() {
    let mut ldb = session(Arch::M68k);
    let addr = ldb.break_at("down", 2).unwrap();
    ldb.set_break_condition(addr, Some("n == 1".into())).unwrap();
    // Plain continue: skips n = 6..2 silently.
    ldb.cont_watch().unwrap();
    assert_eq!(ldb.print_var("n").unwrap(), "1");
    // Clearing the condition restores unconditional stops.
    ldb.set_break_condition(addr, None).unwrap();
    ldb.cont_watch().unwrap();
    assert_eq!(ldb.print_var("n").unwrap(), "0");
}

#[test]
fn failed_next_does_not_leak_temporary_plants() {
    let mut ldb = session(Arch::Mips);
    let user = ldb.break_at("down", 2).unwrap();
    // A condition that errors when evaluated (undefined name) on a
    // breakpoint that will be hit inside the stepped-over subtree.
    let bad = ldb.break_at("down", 4).unwrap();
    ldb.set_break_condition(bad, Some("zz > 1".into())).unwrap();
    ldb.cont_watch().unwrap(); // stop at down stop 2 (n == 6)
    // Stepping forward reaches the bad-conditioned breakpoint: the eval
    // error surfaces, and the temp plants must be gone afterwards.
    assert!(ldb.step_over().is_err());
    // Only the two user breakpoints remain planted.
    let mut addrs = ldb.target(0).breakpoints.addresses();
    addrs.sort_unstable();
    let mut want = vec![user, bad];
    want.sort_unstable();
    assert_eq!(addrs, want);
}

#[test]
fn condition_on_unplanted_address_errors() {
    let mut ldb = session(Arch::Mips);
    assert!(ldb.set_break_condition(0x4444, Some("1".into())).is_err());
}

#[test]
fn finish_from_the_outermost_frame_errors() {
    let mut ldb = session(Arch::Sparc);
    ldb.break_at("main", 0).unwrap();
    ldb.cont().unwrap();
    ldb.select_frame(0).unwrap();
    // main's caller is the startup shim, which has no symbols — but it
    // does exist as a frame; go one deeper than the walk provides.
    let frames = ldb.backtrace().0.len();
    ldb.select_frame(frames - 1).unwrap();
    assert!(ldb.finish().is_err());
}

#[test]
fn next_at_the_last_stopping_point_returns_to_the_caller() {
    let mut ldb = session(Arch::Mips);
    let a2 = ldb.break_at("down", 1).unwrap();
    ldb.set_break_condition(a2, Some("n == 0".into())).unwrap();
    ldb.cont_watch().unwrap();
    assert_eq!(ldb.print_var("n").unwrap(), "0");
    // Step until the innermost invocation returns and we surface in
    // n == 1's frame (the exact count depends on the loci after the
    // conditioned stop, so step over until the frame changes).
    for _ in 0..4 {
        ldb.step_over().unwrap();
        if ldb.print_var("n").unwrap() == "1" {
            break;
        }
    }
    assert_eq!(ldb.print_var("n").unwrap(), "1");
}
