//! Quickstart: the full ldb pipeline on the paper's Figure 1 program.
//!
//! Compiles `fib.c` with `-g` for the MIPS, spawns it under a debug nub,
//! plants a breakpoint at a stopping point, prints variables through the
//! abstract-memory DAG and the PostScript printer procedures, walks the
//! stack, and runs to completion.
//!
//! Run with: `cargo run --example quickstart`

use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable, StopEvent};
use ldb_machine::Arch;

const FIB_C: &str = r#"void fib(int n)
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compile with -g: stopping-point no-ops, PostScript symbol table.
    let arch = Arch::Mips;
    let c = compile("fib.c", FIB_C, arch, CompileOpts::default())?;
    println!(
        "compiled fib.c for {arch}: {} instructions ({} stopping-point no-ops)",
        c.linked.stats.insn_count, c.linked.stats.nop_count
    );

    // 2. The compiler emits the unit's PostScript symbol table; the
    //    debugger pairs it with a loader frame built from `nm` output.
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    println!("symbol table: {} bytes of PostScript", symtab.len());
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];

    // 3. Start the program under a nub and attach.
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader)?;
    println!("attached; target paused before main");

    // 4. Breakpoint at stopping point 7 of fib (the i++ of Figure 1).
    let addr = ldb.break_at("fib", 7)?;
    println!("breakpoint planted at {addr:#x} (overwrote the no-op with `break`)");

    // 5. Run to the breakpoint and look around.
    while let StopEvent::Breakpoint { func, line, .. } = ldb.cont()? {
        println!("stopped in {func} at line {line}:");
        println!("  i = {}", ldb.print_var("i")?);
        println!("  n = {}", ldb.print_var("n")?);
        println!("  a = {}", ldb.print_var("a")?);
        print!("  backtrace:");
        for (lvl, name, pc, _) in ldb.backtrace().0 {
            print!("  #{lvl} {name} (pc={pc:#x})");
        }
        println!();
        // One visit is enough for the demo: remove the breakpoint.
        ldb.clear_breakpoint(addr)?;
    }

    // 6. The program ran to completion; fetch its output from the nub.
    let handle = ldb.take_nub_handle(0).expect("spawned");
    let machine = handle.join.join().expect("nub thread");
    println!("target exited; program output: {}", machine.output.trim_end());
    Ok(())
}
