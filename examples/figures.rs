//! Regenerate the paper's figures from live data structures:
//!
//! * **Figure 1** — the example program annotated with its stopping points,
//! * **Figure 2** — the tree structure of fib's symbol table (uplinks),
//! * **Figure 4** — the abstract-memory DAG for a frame, with a fetch of
//!   `i` traced through it (the paper's worked example).
//!
//! Run with: `cargo run --example figures`

use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::ir::{SymKindIr, WhereIr};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable};
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
    let arch = Arch::Mips;
    let c = compile("fib.c", FIB_C, arch, CompileOpts::default())?;

    // ---- Figure 1: stopping points as superscripts ----
    println!("Figure 1: fib.c with stopping points (superscripts in the paper)");
    let fib = &c.unit.funcs[0];
    for (lineno, line) in FIB_C.lines().enumerate() {
        let lineno = lineno as u32 + 1;
        let mut marks: Vec<(u32, u32)> = fib
            .stops
            .iter()
            .filter(|s| s.line == lineno)
            .map(|s| (s.col, s.index))
            .collect();
        marks.sort();
        let mut out = String::new();
        let mut next = marks.into_iter().peekable();
        for (col, ch) in line.chars().enumerate() {
            while next.peek().map(|(c, _)| *c as usize == col + 1).unwrap_or(false) {
                let (_, idx) = next.next().unwrap();
                out.push_str(&format!("^{idx}"));
            }
            out.push(ch);
        }
        for (_, idx) in next {
            out.push_str(&format!("^{idx}"));
        }
        println!("  {lineno:>2}  {out}");
    }

    // ---- Figure 2: the uplink tree ----
    println!();
    println!("Figure 2: the tree structure of fib's symbol table (child -> uplink)");
    for (i, s) in c.unit.syms.iter().enumerate() {
        if s.name.starts_with("$t") || s.kind == SymKindIr::Procedure && s.name == "main" {
            continue;
        }
        let up = match s.uplink {
            Some(u) => format!("-> {}", c.unit.syms[u].name),
            None => "(root)".to_string(),
        };
        let whe = match &s.where_ {
            WhereIr::Reg(r) => format!("register {r}"),
            WhereIr::Frame(off) => format!("frame offset {off}"),
            WhereIr::Anchor(k) => format!("anchor slot {k} (lazy)"),
            WhereIr::None => "code".to_string(),
        };
        println!("  S{i:<3} {:<6} {:<10} {up:<10} [{whe}]", s.name, format!("{:?}", s.kind));
    }

    // ---- Figure 4: the abstract-memory DAG, with a live fetch ----
    println!();
    println!("Figure 4: abstract memory for a frame");
    println!(
        r#"
      frame memory (joined)
        |-- r, f, x ----> register memory ----> alias memory --+--> wire --> nub
        |-- l (locals) -----------------------> alias memory --+
        `-- c, d (code and data) ------------------------------+
"#
    );
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader)?;
    ldb.break_at("fib", 7)?;
    ldb.cont()?;
    let (frame, ctx, layout) = {
        let t = ldb.target(0);
        (std::rc::Rc::clone(&t.frames[0]), t.stop.unwrap().context, t.data.ctx)
    };
    println!("  the paper's worked example — printing i (register 30):");
    println!("    joined memory routes space r to the register memory;");
    println!("    the register memory widens the fetch to the full word;");
    println!(
        "    the alias memory maps (r, 30) to data address {:#x} (context {ctx:#x} + {});",
        ctx + layout.reg(30),
        layout.reg(30)
    );
    println!("    the wire asks the nub, which reads target memory in its own byte order");
    println!("    and ships the value back little-endian.");
    let i_through_dag = frame.mem.fetch('r', 30, 4)?;
    println!("  fetched through the DAG: i = {i_through_dag}");
    println!("  printed via the PostScript printer: i = {}", ldb.print_var("i")?);
    println!("  the extra registers: pc = x0 = {:#x}, vfp = x1 = {:#x}",
        frame.mem.fetch('x', 0, 4)?, frame.mem.fetch('x', 1, 4)?);
    Ok(())
}
