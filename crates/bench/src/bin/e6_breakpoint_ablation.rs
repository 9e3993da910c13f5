//! Ablation: the paper's interim no-op breakpoint scheme versus the
//! single-step scheme its Sec. 7.1 proposes to replace it with.
//!
//! The design trade the paper describes: no-ops make "it possible to
//! specify a breakpoint implementation in four lines, but makes target
//! programs bigger and slower"; single-stepping "would eliminate the
//! no-ops emitted by lcc" at the cost of a nub/protocol extension and a
//! restore-step-replant dance on every resume.

use std::time::Instant;

use ldb_bench::workload_suite;
use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable, StopEvent};
use ldb_machine::Arch;

fn main() {
    println!("E6 ablation: no-op breakpoints vs single-step breakpoints");

    // Cost 1: code size. The no-op scheme needs -g padding; the
    // single-step scheme debugs unpadded code.
    let mut with = 0u32;
    let mut without = 0u32;
    for (name, src) in workload_suite() {
        with += compile(name, &src, Arch::Mips, CompileOpts::default())
            .unwrap()
            .linked
            .stats
            .insn_count;
        without += compile(
            name,
            &src,
            Arch::Mips,
            CompileOpts { debug: false, ..Default::default() },
        )
        .unwrap()
        .linked
        .stats
        .insn_count;
    }
    println!(
        "  code size (MIPS suite): no-op scheme {with} insns, single-step scheme {without} \
         ({:.1}% saved)",
        (1.0 - without as f64 / with as f64) * 100.0
    );

    // Cost 2: resume latency. Hit the same breakpoint many times under
    // each scheme.
    let src = r#"
        int total;
        int tick(int k) { total += k; return total; }
        int main(void) { int i; for (i = 0; i < 200; i++) tick(i); return 0; }
    "#;
    let mut times = Vec::new();
    for (label, debug) in [("no-op scheme   ", true), ("single-step    ", false)] {
        let c = compile(
            "tick.c",
            src,
            Arch::Mips,
            CompileOpts { debug, ..Default::default() },
        )
        .unwrap();
        let symtab = pssym::emit(&c.unit, &c.funcs, Arch::Mips, pssym::PsMode::Deferred);
        let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
        let mut ldb = Ldb::new();
        ldb.spawn_program(&c.linked.image, &loader).unwrap();
        let addr = ldb.stop_address("tick", 1).unwrap();
        if debug {
            ldb.break_at("tick", 1).unwrap();
        } else {
            ldb.break_at_pc(addr).unwrap();
        }
        let t = Instant::now();
        let mut hits = 0u32;
        loop {
            match ldb.cont().unwrap() {
                StopEvent::Breakpoint { .. } => hits += 1,
                StopEvent::Exited(_) => break,
                other => panic!("{other:?}"),
            }
        }
        let el = t.elapsed().as_secs_f64() * 1e6 / hits as f64;
        println!("  resume latency, {label}: {el:>8.1} us/hit over {hits} hits");
        times.push(el);
    }
    println!(
        "  single-step resume costs {:.2}x the no-op skip (extra restore/step/replant round trips)",
        times[1] / times[0]
    );
}
