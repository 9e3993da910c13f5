//! Stress: long debugging sessions. At every one of dozens of breakpoint
//! hits, walk the stack, print variables, and evaluate expressions —
//! checking the debugger's view against the program's ground truth each
//! time. Catches state leaks between stops (stale frames, cache
//! corruption, pc bookkeeping) that single-stop tests miss.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::pssym;
use ldb_suite::core::{Ldb, ModuleTable, StopEvent};
use ldb_suite::machine::Arch;

const SRC: &str = r#"
int history[64];
int steps;

int collatz(int n) {
    int here;
    here = n;
    history[steps % 64] = here;
    steps++;
    if (n == 1) return 1;
    if (n % 2 == 0) return collatz(n / 2);
    return collatz(3 * n + 1);
}

int main(void) {
    int r;
    r = collatz(27);
    printf("%d %d\n", r, steps);
    return 0;
}
"#;

/// Ground truth: the collatz trajectory from 27.
fn trajectory() -> Vec<i64> {
    let mut v = vec![27i64];
    while *v.last().unwrap() != 1 {
        let n = *v.last().unwrap();
        v.push(if n % 2 == 0 { n / 2 } else { 3 * n + 1 });
    }
    v
}

#[test]
fn breakpoint_marathon_tracks_ground_truth() {
    let truth = trajectory();
    for arch in Arch::ALL {
        let c = compile("c.c", SRC, arch, CompileOpts::default()).unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
        let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
        let mut ldb = Ldb::new();
        ldb.spawn_program(&c.linked.image, &loader).unwrap();
        // Stop at `steps++` on every recursive call — 112 hits for n=27.
        ldb.break_at("collatz", 3).unwrap();
        for (k, &expect) in truth.iter().enumerate() {
            let ev = ldb.cont().unwrap();
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch} hit {k}: {ev:?}");
            // The parameter and local agree with the trajectory.
            assert_eq!(ldb.print_var("n").unwrap(), expect.to_string(), "{arch} hit {k}");
            assert_eq!(ldb.eval("here").unwrap(), expect.to_string(), "{arch} hit {k}");
            // The global counter counts hits so far.
            assert_eq!(ldb.eval("steps").unwrap(), k.to_string(), "{arch} hit {k}");
            // The stack is k+1 collatz frames deep (capped by the frame
            // walker's 64-frame limit) plus main.
            let (bt, _) = ldb.backtrace();
            let depth = bt.iter().filter(|(_, n, _, _)| n == "collatz").count();
            assert_eq!(depth, (k + 1).min(64), "{arch} hit {k}: depth");
            // Spot-check a parent frame every few hits.
            if k > 0 && k % 7 == 0 {
                ldb.select_frame(1).unwrap();
                assert_eq!(
                    ldb.print_var("here").unwrap(),
                    truth[k - 1].to_string(),
                    "{arch} hit {k}: parent frame"
                );
                ldb.select_frame(0).unwrap();
            }
            // And the history array through the ARRAY printer.
            if k == 10 {
                let h = ldb.print_var("history").unwrap();
                assert!(h.starts_with("{27, 82, 41, 124"), "{arch}: {h}");
            }
        }
        // Let it finish and verify the program's own output.
        let addr = ldb.target(0).breakpoints.addresses()[0];
        ldb.clear_breakpoint(addr).unwrap();
        assert_eq!(ldb.cont().unwrap(), StopEvent::Exited(0), "{arch}");
        let out = ldb.take_nub_handle(0).unwrap().join.join().unwrap().output;
        assert_eq!(out, format!("1 {}\n", truth.len()), "{arch}");
    }
}

#[test]
fn alternating_between_targets_under_load() {
    // Two stopped targets; interleave hundreds of operations between them
    // and make sure neither session's state bleeds into the other.
    let mut ldb = Ldb::new();
    let mut ids = Vec::new();
    for arch in [Arch::Mips, Arch::Vax] {
        let c = compile("c.c", SRC, arch, CompileOpts::default()).unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
        let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
        let id = ldb.spawn_program(&c.linked.image, &loader).unwrap();
        ldb.select_target(id).unwrap();
        ldb.break_at("collatz", 3).unwrap();
        // Advance the two targets by different amounts.
        let hits = if arch == Arch::Mips { 5 } else { 9 };
        for _ in 0..hits {
            ldb.cont().unwrap();
        }
        ids.push((id, hits));
    }
    let truth = trajectory();
    for round in 0..50 {
        for &(id, hits) in &ids {
            ldb.select_target(id).unwrap();
            let expect = truth[hits - 1];
            assert_eq!(ldb.print_var("n").unwrap(), expect.to_string(), "round {round}");
            // The breakpoint sits before `steps++`, so after `hits`
            // stops the counter reads hits - 1.
            assert_eq!(
                ldb.eval("steps + 1000").unwrap(),
                (hits - 1 + 1000).to_string(),
                "round {round}"
            );
        }
    }
}
