//! Software watchpoints (built on the nub's step extension, paper
//! Sec. 7.1) and the dbx-style string printers for `char *`.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::pssym;
use ldb_suite::core::{Ldb, ModuleTable, StopEvent};
use ldb_suite::machine::Arch;

fn session(src: &str, arch: Arch) -> Ldb {
    let c = compile("w.c", src, arch, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb
}

const COUNTER: &str = r#"
int hits;
int bump(int by) {
    hits = hits + by;
    return hits;
}
int main(void) {
    int i;
    for (i = 0; i < 3; i++)
        bump(i + 1);
    printf("%d\n", hits);
    return 0;
}
"#;

#[test]
fn global_watch_fires_on_every_store() {
    for arch in Arch::ALL {
        let mut ldb = session(COUNTER, arch);
        ldb.break_at("main", 1).unwrap();
        ldb.cont().unwrap();
        assert_eq!(ldb.watch_var("hits").unwrap(), "0", "{arch}");
        for expect in ["1", "3", "6"] {
            match ldb.cont_watch().unwrap() {
                StopEvent::Watchpoint { name, new, func, .. } => {
                    assert_eq!(name, "hits", "{arch}");
                    assert_eq!(new, expect, "{arch}");
                    assert_eq!(func, "bump", "{arch}");
                }
                other => panic!("{arch}: expected watchpoint, got {other:?}"),
            }
        }
        ldb.clear_watch("hits").unwrap();
        assert!(ldb.watchpoints().is_empty(), "{arch}");
        assert_eq!(ldb.cont_watch().unwrap(), StopEvent::Exited(0), "{arch}");
    }
}

#[test]
fn local_watch_is_scoped_to_its_frame() {
    // Watch `d` in the outermost invocation of a recursive procedure:
    // stores to the inner frames' `d` must not fire.
    let src = r#"
int depth(int n) {
    int d;
    d = n;
    if (n == 0) return 0;
    return 1 + depth(n - 1);
}
int main(void) {
    printf("%d\n", depth(3));
    return 0;
}
"#;
    let mut ldb = session(src, Arch::Mips);
    ldb.break_at("depth", 1).unwrap();
    ldb.cont().unwrap(); // outermost depth(3), before d = n
    ldb.watch_var("d").unwrap();
    let addr = ldb.target(0).breakpoints.addresses()[0];
    ldb.clear_breakpoint(addr).unwrap();
    match ldb.cont_watch().unwrap() {
        StopEvent::Watchpoint { name, new, .. } => {
            assert_eq!(name, "d");
            // Straight to 3: the inner frames' d = 2, 1, 0 were skipped.
            assert_eq!(new, "3");
        }
        other => panic!("expected watchpoint, got {other:?}"),
    }
}

#[test]
fn watch_without_watchpoints_is_plain_cont() {
    let mut ldb = session(COUNTER, Arch::Vax);
    ldb.break_at("bump", 1).unwrap();
    ldb.cont().unwrap();
    assert!(matches!(
        ldb.cont_watch().unwrap(),
        StopEvent::Breakpoint { .. }
    ));
}

#[test]
fn breakpoints_still_fire_while_watching() {
    let mut ldb = session(COUNTER, Arch::M68k);
    ldb.break_at("main", 1).unwrap();
    ldb.cont().unwrap();
    ldb.watch_var("hits").unwrap();
    ldb.break_at("bump", 2).unwrap(); // the stopping point right after the store
    // The store and the breakpoint coincide on one step; the breakpoint
    // wins (stepping onto a planted trap is a hit), and the watch reports
    // the change on the next resume.
    assert!(matches!(
        ldb.cont_watch().unwrap(),
        StopEvent::Breakpoint { func, .. } if func == "bump"
    ));
    match ldb.cont_watch().unwrap() {
        StopEvent::Watchpoint { name, old, new, .. } => {
            assert_eq!(name, "hits");
            assert_eq!(old, "0");
            assert_eq!(new, "1");
        }
        other => panic!("expected watchpoint, got {other:?}"),
    }
}

#[test]
fn watch_unknown_name_is_an_error() {
    let mut ldb = session(COUNTER, Arch::Sparc);
    ldb.break_at("main", 1).unwrap();
    ldb.cont().unwrap();
    assert!(ldb.watch_var("nothere").is_err());
    assert!(ldb.clear_watch("hits").is_err());
}

#[test]
fn char_pointers_print_address_and_string() {
    let src = r#"
char msg[16] = "hi there";
char *p;
char *q;
int main(void) {
    p = msg;
    q = p + 3;
    printf("%s\n", q);
    return 0;
}
"#;
    for arch in [Arch::Mips, Arch::Vax] {
        let mut ldb = session(src, arch);
        ldb.break_at("main", 3).unwrap();
        ldb.cont().unwrap();
        let p = ldb.print_var("p").unwrap();
        assert!(p.ends_with(" \"hi there\""), "{arch}: {p}");
        assert!(p.starts_with("0x"), "{arch}: {p}");
        let q = ldb.print_var("q").unwrap();
        assert!(q.ends_with(" \"there\""), "{arch}: {q}");
    }
}

#[test]
fn null_and_dangling_char_pointers_print_cleanly() {
    let src = r#"
char msg[8] = "ok";
char *p;
char *bad;
int main(void) {
    p = msg;
    bad = p + 9000000;
    printf("x\n");
    return 0;
}
"#;
    let mut ldb = session(src, Arch::M68k);
    ldb.break_at("main", 1).unwrap();
    ldb.cont().unwrap();
    // Before the assignments both are null: address only, no string.
    assert_eq!(ldb.print_var("p").unwrap(), "0x0");
    ldb.break_at("main", 3).unwrap();
    ldb.cont().unwrap();
    let bad = ldb.print_var("bad").unwrap();
    assert!(bad.ends_with("<bad address>"), "{bad}");
}
