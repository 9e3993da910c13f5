//! End-to-end debugger tests: the full ldb pipeline — compile with `-g`,
//! spawn under a nub, load PostScript symbol tables and loader tables,
//! plant breakpoints at stopping points, walk stacks, print values through
//! the abstract-memory DAG, and evaluate expressions through the
//! expression server.

use ldb_cc::driver::{compile, CompileOpts, Compiled};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable, StopEvent};
use ldb_machine::{Arch, ByteOrder};

const FIB: &str = r#"void fib(int n)
{
    static int a[20];
    if (n > 20) n = 20;
    a[0] = a[1] = 1;
    { int i;
      for (i=2; i<n; i++)
          a[i] = a[i-1] + a[i-2];
    }
    { int j;
      for (j=0; j<n; j++)
          printf("%d ", a[j]);
    }
    printf("\n");
}
int main(void) { fib(10); return 0; }
"#;

fn build(arch: Arch, order: Option<ByteOrder>) -> (Compiled, [ModuleTable; 1]) {
    let c = compile("fib.c", FIB, arch, CompileOpts { order, ..Default::default() }).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    (c, loader)
}

fn spawn(ldb: &mut Ldb, arch: Arch, order: Option<ByteOrder>) -> (Compiled, usize) {
    let (c, loader) = build(arch, order);
    let id = ldb.spawn_program(&c.linked.image, &loader).unwrap();
    (c, id)
}

#[test]
fn break_print_and_continue_on_all_four_targets() {
    for arch in Arch::ALL {
        let mut ldb = Ldb::new();
        let (_c, _id) = spawn(&mut ldb, arch, None);

        // Breakpoint at fib's stopping point 7 (the i++ of Figure 1).
        ldb.break_at("fib", 7).unwrap();
        let ev = ldb.cont().unwrap();
        let StopEvent::Breakpoint { func, line, .. } = ev else {
            panic!("{arch}: {ev:?}");
        };
        assert_eq!(func, "fib", "{arch}");
        assert_eq!(line, 7, "{arch}"); // i++ is on source line 7

        // First hit: i is 2 and a[2] was just assigned.
        assert_eq!(ldb.print_var("i").unwrap(), "2", "{arch}");
        assert_eq!(ldb.print_var("n").unwrap(), "10", "{arch}");
        let a = ldb.print_var("a").unwrap();
        assert!(a.starts_with("{1, 1, 2, 0"), "{arch}: {a}");
        assert!(a.ends_with("...}"), "{arch}: array limit: {a}");

        // Backtrace: fib called from main.
        let (bt, _) = ldb.backtrace();
        let names: Vec<&str> = bt.iter().map(|(_, n, _, _)| n.as_str()).collect();
        assert!(names.starts_with(&["fib", "main"]), "{arch}: {names:?}");

        // Second hit: i is 3.
        let ev = ldb.cont().unwrap();
        assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
        assert_eq!(ldb.print_var("i").unwrap(), "3", "{arch}");

        // Remove the breakpoint and run to completion.
        let addr = ldb.target(0).breakpoints.addresses()[0];
        ldb.clear_breakpoint(addr).unwrap();
        let ev = ldb.cont().unwrap();
        assert_eq!(ev, StopEvent::Exited(0), "{arch}");
    }
}

#[test]
fn expression_evaluation_against_the_target() {
    for arch in [Arch::Mips, Arch::Vax] {
        let mut ldb = Ldb::new();
        spawn(&mut ldb, arch, None);
        ldb.break_at("fib", 9).unwrap(); // j<n in the print loop
        ldb.cont().unwrap();

        // Reads through the frame's abstract memory.
        assert_eq!(ldb.eval("j").unwrap(), "0", "{arch}");
        assert_eq!(ldb.eval("n").unwrap(), "10", "{arch}");
        assert_eq!(ldb.eval("a[4]").unwrap(), "5", "{arch}");
        assert_eq!(ldb.eval("a[4] + a[5] * 2").unwrap(), "21", "{arch}");
        assert_eq!(ldb.eval("j < n").unwrap(), "1", "{arch}");

        // Assignment through the abstract memories and the nub: change
        // the table the program is about to print.
        ldb.eval("a[0] = 42").unwrap();
        assert!(ldb.print_var("a").unwrap().starts_with("{42, 1, 2, 3, 5"), "{arch}");

        // Unknown identifiers and syntax errors are reported, not fatal.
        assert!(ldb.eval("nosuchvar").is_err(), "{arch}");
        assert!(ldb.eval("1 +").is_err(), "{arch}");
        // The session survives errors.
        assert_eq!(ldb.eval("n - 1").unwrap(), "9", "{arch}");

        let ev = loop {
            match ldb.cont().unwrap() {
                StopEvent::Breakpoint { .. } => continue,
                other => break other,
            }
        };
        assert_eq!(ev, StopEvent::Exited(0), "{arch}");
        // The target printed the mutated a[0].
        let m = ldb.detach_target_machine(0);
        assert!(m.starts_with("42 1 2 3 5 8 13 21 34 55"), "{arch}: {m}");
    }
}

#[test]
fn scope_rules_follow_the_uplink_tree() {
    let mut ldb = Ldb::new();
    spawn(&mut ldb, Arch::Sparc, None);
    // At stopping point 9 (j<n), j is visible but i is not: i belongs to
    // the sibling block (Figure 2's tree).
    ldb.break_at("fib", 9).unwrap();
    ldb.cont().unwrap();
    assert!(ldb.print_var("j").is_ok());
    assert!(ldb.print_var("i").is_err(), "i is in a sibling scope");
    assert!(ldb.print_var("a").is_ok(), "a is in an enclosing scope");
    assert!(ldb.print_var("n").is_ok(), "parameters are visible");
    assert!(ldb.print_var("zz").is_err());
}

#[test]
fn deep_recursion_backtrace_and_frame_selection() {
    let src = r#"
        int depth;
        int down(int k) {
            int here;
            here = k;
            if (k == 0) return here;
            return down(k - 1) + here;
        }
        int main(void) { depth = 4; return down(depth); }
    "#;
    for arch in Arch::ALL {
        let c = compile("rec.c", src, arch, CompileOpts::default()).unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
        let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
        let mut ldb = Ldb::new();
        ldb.spawn_program(&c.linked.image, &loader).unwrap();
        // Stop at the k == 0 check when the recursion has bottomed out.
        ldb.break_at("down", 2).unwrap();
        for _ in 0..5 {
            let ev = ldb.cont().unwrap();
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
        }
        // Five `down` activations above main.
        let (bt, _) = ldb.backtrace();
        let names: Vec<&str> = bt.iter().map(|(_, n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["down", "down", "down", "down", "down", "main"],
            "{arch}: {names:?}"
        );
        // The local `here` differs per frame: 0 in the innermost, 4 in the
        // outermost call — reading parents goes through saved registers or
        // stack slots (alias memories).
        assert_eq!(ldb.print_var("here").unwrap(), "0", "{arch}");
        ldb.select_frame(2).unwrap();
        assert_eq!(ldb.print_var("here").unwrap(), "2", "{arch}");
        ldb.select_frame(4).unwrap();
        assert_eq!(ldb.print_var("here").unwrap(), "4", "{arch}");
        ldb.select_frame(0).unwrap();
        assert_eq!(ldb.print_var("k").unwrap(), "0", "{arch}");
    }
}

#[test]
fn cross_architecture_debugging_two_targets_at_once() {
    // "ldb can debug on multiple architectures simultaneously" — a MIPS
    // and a VAX target in one session, with dictionary-stack rebinding
    // when switching.
    let mut ldb = Ldb::new();
    let (_cm, mips) = spawn(&mut ldb, Arch::Mips, None);
    let (_cv, vax) = spawn(&mut ldb, Arch::Vax, None);

    ldb.select_target(mips).unwrap();
    ldb.break_at("fib", 7).unwrap();
    ldb.cont().unwrap();
    assert_eq!(ldb.print_var("i").unwrap(), "2");

    ldb.select_target(vax).unwrap();
    ldb.break_at("fib", 9).unwrap();
    ldb.cont().unwrap();
    assert_eq!(ldb.print_var("j").unwrap(), "0");

    // Back to the (still stopped) MIPS target.
    ldb.select_target(mips).unwrap();
    assert_eq!(ldb.print_var("i").unwrap(), "2");
    // Machine-dependent names rebound: &nregs differs per target.
    ldb.interp.run_str("&nregs").unwrap();
    assert_eq!(ldb.interp.pop().unwrap().as_int().unwrap(), 32);
    ldb.select_target(vax).unwrap();
    ldb.interp.run_str("&nregs").unwrap();
    assert_eq!(ldb.interp.pop().unwrap().as_int().unwrap(), 16);
}

#[test]
fn little_endian_mips_same_debugger_code() {
    // The same debugger code drives a little-endian MIPS; the register
    // memory makes byte order irrelevant.
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let mut ldb = Ldb::new();
        spawn(&mut ldb, Arch::Mips, Some(order));
        ldb.break_at("fib", 7).unwrap();
        ldb.cont().unwrap();
        assert_eq!(ldb.print_var("i").unwrap(), "2", "{order:?}");
        let a = ldb.print_var("a").unwrap();
        assert!(a.starts_with("{1, 1, 2"), "{order:?}: {a}");
    }
}

#[test]
fn faulting_program_reports_signal_and_stack() {
    let src = r#"
        int trouble(int *p) { return *p; }
        int main(void) { return trouble(0); }
    "#;
    let c = compile("crash.c", src, Arch::M68k, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, Arch::M68k, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    let ev = ldb.cont().unwrap();
    let StopEvent::Fault { sig, code } = ev else { panic!("{ev:?}") };
    assert_eq!(sig, "SIGSEGV");
    assert_eq!(code, 0, "the faulting address");
    let (bt, _) = ldb.backtrace();
    let names: Vec<&str> = bt.iter().map(|(_, n, _, _)| n.as_str()).collect();
    assert_eq!(names, vec!["trouble", "main"], "{names:?}");
}

#[test]
fn register_enumeration_uses_arch_postscript() {
    let mut ldb = Ldb::new();
    spawn(&mut ldb, Arch::Mips, None);
    ldb.break_at("fib", 7).unwrap();
    ldb.cont().unwrap();
    let regs = ldb.registers().unwrap();
    assert_eq!(regs.len(), 32);
    assert_eq!(regs[29].0, "sp");
    assert!(regs[29].1 > 0x1000, "sp points into the stack");
    // i lives in s8 (r30) on the MIPS.
    assert_eq!(regs[30].0, "s8");
    assert_eq!(regs[30].1, 2);
}

/// Pull the final program output out of a spawned nub after it exited.
trait MachineOut {
    fn detach_target_machine(&mut self, id: usize) -> String;
}

impl MachineOut for Ldb {
    fn detach_target_machine(&mut self, id: usize) -> String {
        let handle = self.take_nub_handle(id).expect("target was spawned by this test");
        let m = handle.join.join().expect("nub thread");
        m.output
    }
}
