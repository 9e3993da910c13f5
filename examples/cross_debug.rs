//! Cross-architecture debugging: one ldb session driving four targets on
//! four different architectures (and both MIPS byte orders) at once.
//!
//! "ldb's machine-dependent code depends only on which architecture the
//! target program and its nub run on, not on which architecture ldb runs
//! on. As a result, cross-architecture debugging with ldb is identical to
//! single-architecture debugging, and ldb can change architectures
//! dynamically."
//!
//! Run with: `cargo run --example cross_debug`

use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable};
use ldb_machine::{Arch, ByteOrder};

const SRC: &str = r#"
int counter;
int bump(int by) { counter += by; return counter; }
int main(void) {
    int k;
    for (k = 1; k <= 5; k++) bump(k);
    printf("%d\n", counter);
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut ldb = Ldb::new();
    let mut ids = Vec::new();
    let setups: Vec<(Arch, Option<ByteOrder>, &str)> = vec![
        (Arch::Mips, Some(ByteOrder::Big), "big-endian MIPS"),
        (Arch::Mips, Some(ByteOrder::Little), "little-endian MIPS"),
        (Arch::M68k, None, "68020"),
        (Arch::Sparc, None, "SPARC"),
        (Arch::Vax, None, "VAX"),
    ];
    for (arch, order, label) in &setups {
        let c = compile(
            "bump.c",
            SRC,
            *arch,
            CompileOpts { order: *order, ..Default::default() },
        )?;
        let symtab = pssym::emit(&c.unit, &c.funcs, *arch, pssym::PsMode::Deferred);
        let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
        let id = ldb.spawn_program(&c.linked.image, &loader)?;
        ids.push((id, *label));
        println!("target {id}: {label} attached");
    }

    // Break in bump() on every target and advance each a different number
    // of times — all through identical machine-independent code paths.
    for (hits, (id, label)) in ids.iter().enumerate() {
        ldb.select_target(*id)?;
        ldb.break_at("bump", 1)?; // the `counter += by` statement
        for _ in 0..=hits {
            ldb.cont()?;
        }
        println!(
            "{label}: stopped in bump, by = {}, counter = {}",
            ldb.print_var("by")?,
            ldb.print_var("counter")?
        );
    }

    // Hop between stopped targets, reading state; the dictionary stack
    // rebinds the machine-dependent PostScript on each switch.
    for (id, label) in ids.iter().rev() {
        ldb.select_target(*id)?;
        ldb.interp.run_str("&nregs")?;
        let nregs = ldb.interp.pop()?.as_int()?;
        println!("{label}: &nregs = {nregs}, counter = {}", ldb.print_var("counter")?);
    }
    println!("one debugger, five targets, four architectures, two byte orders.");
    Ok(())
}
