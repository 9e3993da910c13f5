//! Paired measurement of flight-recorder overhead on the live-fetch hot
//! path. The fetch round-trips through a nub thread, so adjacent A/B
//! criterion runs pick up scheduler drift larger than the effect being
//! measured; this probe interleaves recorder-off and recorder-on rounds
//! against the same target and reports the paired averages, which is the
//! number EXPERIMENTS.md pins.
//!
//! Run with `cargo run --release -p ldb-bench --example trace_overhead_probe`.

use std::time::Instant;

use ldb_bench::FIB_C;
use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable};
use ldb_machine::Arch;
use ldb_trace::Trace;

fn main() {
    let cc = compile("fib.c", FIB_C, Arch::Mips, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&cc.unit, &cc.funcs, Arch::Mips, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: cc.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&cc.linked.image, &loader).unwrap();
    let client = ldb.target(0).client.clone();
    let addr = cc.linked.context_addr;

    // How many journal records does one fetch cost? (send + recv.)
    let t = Trace::ring(4096);
    ldb.set_trace(t.clone());
    let before = t.counts().total();
    for _ in 0..10 {
        client.borrow_mut().fetch('d', addr, 4).unwrap();
    }
    let per_fetch = (t.counts().total() - before) as f64 / 10.0;

    // Interleaved off/on rounds so slow drift cancels out of the pairing.
    const ROUNDS: usize = 10; // of each kind
    const N: u32 = 20_000; // fetches per round
    let mut off_us = Vec::new();
    let mut on_us = Vec::new();
    for round in 0..ROUNDS * 2 {
        let on = round % 2 == 1;
        ldb.set_trace(if on { Trace::ring(4096) } else { Trace::off() });
        let t0 = Instant::now();
        for _ in 0..N {
            client.borrow_mut().fetch('d', addr, 4).unwrap();
        }
        let us = t0.elapsed().as_nanos() as f64 / f64::from(N) / 1000.0;
        if on {
            on_us.push(us);
        } else {
            off_us.push(us);
        }
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (off, on) = (avg(&off_us), avg(&on_us));
    println!("records per fetch: {per_fetch:.1}");
    println!(
        "live fetch, paired over {ROUNDS}x{N} rounds: {off:.3} us recorder-off, \
         {on:.3} us recorder-on ({:+.1}%, {:+.0} ns/fetch)",
        (on / off - 1.0) * 100.0,
        (on - off) * 1000.0
    );
}
