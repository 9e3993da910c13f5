//! Debugger-initiated target calls: `Ldb::call_function` builds a call
//! frame by the target's own convention, runs the callee, catches the
//! sentinel return fault, and restores the pre-call context.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::pssym;
use ldb_suite::core::{CallArg, Ldb, ModuleTable, StopEvent};
use ldb_suite::machine::Arch;

const SRC: &str = r#"
int counter;
int add(int a, int b) { return a + b; }
int fact(int n) {
    counter++;
    if (n < 2) return 1;
    return n * fact(n - 1);
}
int negate(int v) { return -v; }
int main(void) {
    int x;
    x = add(2, 3);
    printf("%d\n", x);
    return 0;
}
"#;

fn stopped_session(arch: Arch) -> Ldb {
    let c = compile("c.c", SRC, arch, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb.break_at("main", 1).unwrap();
    ldb.cont().unwrap();
    ldb
}

#[test]
fn calls_run_by_each_targets_convention() {
    for arch in Arch::ALL {
        let mut ldb = stopped_session(arch);
        assert_eq!(ldb.call_function("add", &[7, 35]).unwrap(), 42, "{arch}");
        // Recursive callee: the staged frame supports real calls below it.
        assert_eq!(ldb.call_function("fact", &[5]).unwrap(), 120, "{arch}");
        // Negative values round-trip through the return register.
        assert_eq!(ldb.call_function("negate", &[17]).unwrap(), -17, "{arch}");
        assert_eq!(ldb.call_function("negate", &[-9]).unwrap(), 9, "{arch}");
    }
}

#[test]
fn side_effects_persist_but_context_is_restored() {
    for arch in [Arch::Mips, Arch::Vax] {
        let mut ldb = stopped_session(arch);
        let pc_before = ldb.stop_address("main", 1).unwrap();
        assert_eq!(ldb.print_var("counter").unwrap(), "0", "{arch}");
        ldb.call_function("fact", &[4]).unwrap();
        // The call really ran in the target: the global moved.
        assert_eq!(ldb.print_var("counter").unwrap(), "4", "{arch}");
        // But the stopped program is where it was, and resumes cleanly.
        assert_eq!(ldb.print_var("x").unwrap(), "0", "{arch}");
        let (bt, _) = ldb.backtrace();
        assert_eq!(bt[0].1, "main", "{arch}: {bt:?}");
        let _ = pc_before; // the breakpoint report below proves the pc
        match ldb.cont().unwrap() {
            StopEvent::Exited(0) => {}
            other => panic!("{arch}: {other:?}"),
        }
        let out = ldb.take_nub_handle(0).unwrap().join.join().unwrap().output;
        assert_eq!(out, "5\n", "{arch}");
    }
}

#[test]
fn breakpoint_during_call_aborts_and_restores() {
    let mut ldb = stopped_session(Arch::M68k);
    ldb.break_at("fact", 0).unwrap();
    let err = ldb.call_function("fact", &[4]).unwrap_err();
    assert!(err.to_string().contains("interrupted"), "{err}");
    // Context restored: the program still runs to its normal end.
    let addr = ldb
        .target(0)
        .breakpoints
        .addresses()
        .into_iter()
        .find(|_| true)
        .unwrap();
    ldb.clear_breakpoint(addr).unwrap();
    // Clear the remaining breakpoint too, then run out.
    for a in ldb.target(0).breakpoints.addresses() {
        ldb.clear_breakpoint(a).unwrap();
    }
    assert_eq!(ldb.cont().unwrap(), StopEvent::Exited(0));
}

#[test]
fn unknown_function_and_too_many_args_error() {
    let mut ldb = stopped_session(Arch::Mips);
    assert!(ldb.call_function("nosuch", &[]).unwrap_err().to_string().contains("no procedure"));
    // Arity is checked against the symbol table's recorded parameter
    // types before any convention-specific limit applies.
    assert!(ldb
        .call_function("add", &[1, 2, 3, 4, 5])
        .unwrap_err()
        .to_string()
        .contains("takes 2 argument(s), got 5"));
    // The failed attempts left the session usable.
    assert_eq!(ldb.call_function("add", &[20, 22]).unwrap(), 42);
}

#[test]
fn calls_compose_with_the_expression_server() {
    for arch in [Arch::Mips, Arch::M68k] {
        let mut ldb = stopped_session(arch);
        // Calls as subexpressions, nested calls as arguments, and
        // assignment of a call result to a target variable.
        assert_eq!(ldb.eval("fact(3) + 1").unwrap(), "7", "{arch}");
        assert_eq!(ldb.eval("add(fact(3), fact(4)) * 2").unwrap(), "60", "{arch}");
        ldb.eval("counter = negate(fact(3))").unwrap();
        assert_eq!(ldb.print_var("counter").unwrap(), "-6", "{arch}");
        // Non-proc identifiers with parens pass through untouched.
        assert_eq!(ldb.eval("(counter + 6)").unwrap(), "0", "{arch}");
        // Unbalanced call parens error cleanly.
        assert!(ldb.eval("fact(3").is_err(), "{arch}");
    }
}

#[test]
fn float_arguments_and_returns_on_every_convention() {
    let src = r#"
double scale(double x, int k) { return x * k + 0.5; }
int ratio(double a, double b) { return (int)(a / b); }
int main(void) { printf("ok\n"); return 0; }
"#;
    for arch in Arch::ALL {
        let c = compile("f.c", src, arch, CompileOpts::default()).unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
        let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
        let mut ldb = Ldb::new();
        ldb.spawn_program(&c.linked.image, &loader).unwrap();
        ldb.break_at("main", 0).unwrap();
        ldb.cont().unwrap();
        // Mixed double/int arguments, double return.
        let r = ldb
            .call_function_typed("scale", &[CallArg::Double(2.5), CallArg::Int(4)])
            .unwrap();
        assert_eq!(r.float, 10.5, "{arch}");
        // Two doubles, int return.
        let r = ldb
            .call_function_typed("ratio", &[CallArg::Double(9.0), CallArg::Double(2.0)])
            .unwrap();
        assert_eq!(r.int, 4, "{arch}");
        // The formatted entry point picks the right register from the
        // symbol table's decl pattern, and expressions accept float
        // literals as call arguments.
        assert_eq!(ldb.eval("scale(1.5, 2)").unwrap(), "3.5", "{arch}");
        assert_eq!(ldb.eval("ratio(scale(2.0, 4), 2.0)").unwrap(), "4", "{arch}");
    }
}

#[test]
fn single_precision_parameters_are_rejected_clearly() {
    let src = r#"
float thin(float x) { return x; }
int main(void) { printf("ok\n"); return 0; }
"#;
    let c = compile("t.c", src, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb.break_at("main", 0).unwrap();
    ldb.cont().unwrap();
    let err = ldb
        .call_function_typed("thin", &[CallArg::Double(1.5)])
        .unwrap_err();
    assert!(err.to_string().contains("float"), "{err}");
}

#[test]
fn call_in_a_breakpoint_condition() {
    let mut ldb = stopped_session(Arch::Vax);
    // A condition that calls into the target: stop when fact(counter)
    // exceeds 1 — counter starts at 0 (fact(0) = 1), and each condition
    // evaluation itself bumps counter via fact's side effect.
    let addr = ldb.break_at("add", 0).unwrap();
    ldb.set_break_condition(addr, Some("negate(0) == 0".into())).unwrap();
    match ldb.cont_watch().unwrap() {
        StopEvent::Breakpoint { func, .. } => assert_eq!(func, "add"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn nested_debugger_calls_from_a_deep_stop() {
    // Stop deep inside recursion, then call: the staged frame must not
    // corrupt the frames below it.
    let mut ldb = stopped_session(Arch::Sparc);
    // From main's stop, call fact(6) = 720 while x is still unassigned.
    assert_eq!(ldb.call_function("fact", &[6]).unwrap(), 720);
    assert_eq!(ldb.print_var("x").unwrap(), "0");
    assert!(matches!(ldb.cont().unwrap(), StopEvent::Exited(0)));
}
