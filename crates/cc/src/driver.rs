//! The compiler driver: source → AST → IR → per-target assembler →
//! scheduled code → linked image. Also fills in the `where` information
//! the symbol-table emitters need.

use crate::asm::AsmFn;
use crate::gen::GenOpts;
use crate::ir::{Storage, UnitIr, WhereIr};
use crate::lex::CcResult;
use crate::link::{link, Linked};
use crate::sched::{fill_delay_slots_mode, SchedStats};
use ldb_machine::{Arch, ByteOrder};

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct CompileOpts {
    /// Compile for debugging (`-g`): stopping-point no-ops, restricted
    /// scheduling, symbol tables.
    pub debug: bool,
    /// Byte order; `None` uses the architecture's default.
    pub order: Option<ByteOrder>,
    /// Disable delay-slot filling entirely (ablation).
    pub no_fill: bool,
    /// Allow full (unrestricted) scheduling even under `-g` — the
    /// hypothetical the paper's 13% MIPS figure is measured against.
    pub force_full_sched: bool,
    /// Keep every local in memory (no register variables) — 1992-style
    /// code with many more loads, used by the scheduling experiments.
    pub no_regvars: bool,
    /// Evaluate operands left-to-right instead of Sethi-Ullman order
    /// (ablation: measures what the ordering buys).
    pub naive_order: bool,
}

impl Default for CompileOpts {
    fn default() -> Self {
        CompileOpts {
            debug: true,
            order: None,
            no_fill: false,
            force_full_sched: false,
            no_regvars: false,
            naive_order: false,
        }
    }
}

/// A fully compiled and linked program.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Target architecture.
    pub arch: Arch,
    /// Byte order of the image.
    pub order: ByteOrder,
    /// Were we compiled with `-g`?
    pub debug: bool,
    /// The unit IR, with storage and `where` info filled in.
    pub unit: UnitIr,
    /// Assembler form of every function.
    pub funcs: Vec<AsmFn>,
    /// The linked image and side tables.
    pub linked: Linked,
    /// MIPS scheduling statistics (zero on other targets).
    pub sched: SchedStats,
}

/// Compile one unit (front end through code generation).
///
/// # Errors
/// Lexical, syntax, type, and code-generation errors.
pub fn compile_unit(
    file: &str,
    src: &str,
    arch: Arch,
    opts: CompileOpts,
) -> CcResult<(UnitIr, Vec<AsmFn>, SchedStats)> {
    let ast = crate::parse::parse(file, src)?;
    let mut unit = crate::sema::analyze(&ast)?;
    let mut funcs = Vec::with_capacity(unit.funcs.len());
    let mut sched = SchedStats::default();
    let gen_opts = GenOpts {
        debug: opts.debug,
        no_schedule: opts.no_fill,
        naive_order: opts.naive_order,
    };
    let mut ir_funcs = std::mem::take(&mut unit.funcs);
    for f in &mut ir_funcs {
        if opts.no_regvars {
            for v in &mut f.locals {
                v.addr_taken = true; // disqualifies register residence
            }
        }
        let link_name = if f.is_static {
            format!("{}.{}", unit.unit_name(), f.name)
        } else {
            format!("_{}", f.name)
        };
        let mut a = crate::gen::gen_function_named(arch, f, gen_opts, &link_name)?;
        if arch == Arch::Mips {
            let restricted = opts.debug && !opts.force_full_sched;
            let s = fill_delay_slots_mode(&mut a, restricted, !opts.no_fill);
            sched.slots += s.slots;
            sched.already_safe += s.already_safe;
            sched.filled += s.filled;
            sched.padded += s.padded;
        }
        funcs.push(a);
    }
    unit.funcs = ir_funcs;
    fill_where(&mut unit);
    Ok((unit, funcs, sched))
}

/// Compile a C source file for `arch`.
///
/// # Errors
/// Lexical, syntax, type, code-generation, and link errors.
pub fn compile(file: &str, src: &str, arch: Arch, opts: CompileOpts) -> CcResult<Compiled> {
    let order = opts.order.unwrap_or(arch.data().default_order);
    let (unit, funcs, sched) = compile_unit(file, src, arch, opts)?;
    let linked = link(arch, order, &unit, &funcs)?;
    Ok(Compiled { arch, order, debug: opts.debug, unit, funcs, linked, sched })
}

/// A multi-unit program: separately compiled units linked into one image
/// ("up to an entire program", paper Sec. 2).
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// Target architecture.
    pub arch: Arch,
    /// Byte order.
    pub order: ByteOrder,
    /// Compiled with `-g`?
    pub debug: bool,
    /// The units, in link order.
    pub units: Vec<(UnitIr, Vec<AsmFn>)>,
    /// The linked image and side tables.
    pub linked: crate::link::Linked,
}

/// Compile and link several C files into one program.
///
/// # Errors
/// Per-unit compilation errors and cross-unit link errors.
pub fn compile_many(
    files: &[(&str, &str)],
    arch: Arch,
    opts: CompileOpts,
) -> CcResult<CompiledProgram> {
    let order = opts.order.unwrap_or(arch.data().default_order);
    let mut units = Vec::with_capacity(files.len());
    for (file, src) in files {
        let (unit, funcs, _) = compile_unit(file, src, arch, opts)?;
        units.push((unit, funcs));
    }
    let parts: Vec<(&UnitIr, &[AsmFn])> =
        units.iter().map(|(u, f)| (u, f.as_slice())).collect();
    let linked = crate::link::link_units(arch, order, &parts)?;
    Ok(CompiledProgram { arch, order, debug: opts.debug, units, linked })
}

/// The loader table split for sandboxed loading: the trusted frame from
/// the linker (anchor map and proctable, with a `null` symbol-table slot)
/// plus each unit's symbol-table PostScript, named by source file. The
/// debugger runs each module under its own resource budget and
/// quarantines the ones that fault, instead of letting one corrupt table
/// poison the whole load (ldb-core's `Loader::load_plan`).
pub fn program_load_plan(
    p: &CompiledProgram,
    mode: crate::pssym::PsMode,
) -> (String, Vec<(String, String)>) {
    let frame = crate::nm::loader_table_for(&p.linked.image, "null");
    let modules = p
        .units
        .iter()
        .enumerate()
        .map(|(i, (u, f))| {
            (u.file.clone(), crate::pssym::emit_prefixed(u, f, p.arch, mode, &format!("U{i}_")))
        })
        .collect();
    (frame, modules)
}

/// Fill each symbol's `where_` from the storage codegen assigned and from
/// the anchor plan.
fn fill_where(unit: &mut UnitIr) {
    let mut updates: Vec<(usize, WhereIr)> = Vec::new();
    for f in &unit.funcs {
        for v in f.params.iter().chain(f.locals.iter()) {
            let w = match &v.storage {
                Storage::Reg(r) => WhereIr::Reg(*r),
                Storage::Frame(off) => WhereIr::Frame(*off),
                Storage::Static(_) | Storage::Unassigned => continue,
            };
            updates.push((v.sym, w));
        }
    }
    for (di, d) in unit.data.iter().enumerate() {
        if let Some(sym) = d.sym {
            let idx = crate::anchors::data_anchor_index(unit, di);
            updates.push((sym, WhereIr::Anchor(idx)));
        }
    }
    for (sym, w) in updates {
        unit.syms[sym].where_ = w;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldb_machine::{Machine, RunEvent};

    pub(crate) const FIB_MAIN: &str = r#"void fib(int n)
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
int main(void)
{
    fib(10);
    return 0;
}
"#;

    /// Run a compiled image to completion, resuming through the nub pause.
    pub(crate) fn run_to_exit(c: &Compiled) -> (String, i32) {
        let mut m = Machine::load(&c.linked.image);
        loop {
            match m.run(10_000_000) {
                RunEvent::Paused { .. } => continue,
                RunEvent::Exited(code) => return (m.output.clone(), code),
                other => panic!("{:?} (output so far: {:?})", other, m.output),
            }
        }
    }

    #[test]
    fn fib_runs_on_all_four_targets_debug_and_release() {
        for arch in Arch::ALL {
            for debug in [true, false] {
                let c = compile(
                    "fib.c",
                    FIB_MAIN,
                    arch,
                    CompileOpts { debug, ..Default::default() },
                )
                .unwrap_or_else(|e| panic!("{arch} debug={debug}: {e}"));
                let (out, code) = run_to_exit(&c);
                assert_eq!(out, "1 1 2 3 5 8 13 21 34 55 \n", "{arch} debug={debug}");
                assert_eq!(code, 0, "{arch}");
            }
        }
    }

    #[test]
    fn little_endian_mips_works_too() {
        let c = compile(
            "fib.c",
            FIB_MAIN,
            Arch::Mips,
            CompileOpts { order: Some(ByteOrder::Little), ..Default::default() },
        )
        .unwrap();
        let (out, _) = run_to_exit(&c);
        assert_eq!(out, "1 1 2 3 5 8 13 21 34 55 \n");
    }

    #[test]
    fn debug_adds_noops() {
        for arch in Arch::ALL {
            let dbg =
                compile("fib.c", FIB_MAIN, arch, CompileOpts::default()).unwrap();
            let rel = compile(
                "fib.c",
                FIB_MAIN,
                arch,
                CompileOpts { debug: false, ..Default::default() },
            )
            .unwrap();
            assert!(
                dbg.linked.stats.nop_count > rel.linked.stats.nop_count,
                "{arch}: {:?} vs {:?}",
                dbg.linked.stats,
                rel.linked.stats
            );
            let growth = dbg.linked.stats.insn_count as f64
                / rel.linked.stats.insn_count as f64;
            assert!(
                growth > 1.05 && growth < 1.6,
                "{arch}: instruction growth {growth:.3}"
            );
        }
    }

    #[test]
    fn mips_restricted_scheduling_pads_more() {
        let dbg = compile("fib.c", FIB_MAIN, Arch::Mips, CompileOpts::default()).unwrap();
        let rel = compile(
            "fib.c",
            FIB_MAIN,
            Arch::Mips,
            CompileOpts { debug: false, ..Default::default() },
        )
        .unwrap();
        assert!(
            dbg.sched.padded >= rel.sched.padded,
            "debug {:?} vs release {:?}",
            dbg.sched,
            rel.sched
        );
    }

    #[test]
    fn stopping_points_land_on_noops() {
        // Under -g, every stopping point address must hold the no-op
        // pattern — that is where ldb plants breakpoints.
        for arch in Arch::ALL {
            let c = compile("fib.c", FIB_MAIN, arch, CompileOpts::default()).unwrap();
            let d = arch.data();
            let nop = d.nop_bytes(c.order);
            let mem = c.linked.image.build_memory();
            for stops in &c.linked.stop_addrs {
                for &addr in stops {
                    let bytes = mem.read_bytes(addr, nop.len() as u32).unwrap();
                    assert_eq!(bytes, &nop[..], "{arch} stop at {addr:#x}");
                }
            }
        }
    }

    #[test]
    fn fib_stop_count_matches_figure1() {
        let c = compile("fib.c", FIB_MAIN, Arch::Mips, CompileOpts::default()).unwrap();
        assert_eq!(c.linked.stop_addrs[0].len(), 14); // fib: points 0..13
    }

    #[test]
    fn register_variable_for_i_on_the_mips() {
        // The paper's symbol table places i in register 30.
        let c = compile("fib.c", FIB_MAIN, Arch::Mips, CompileOpts::default()).unwrap();
        let i_sym = c.unit.syms.iter().find(|s| s.name == "i").unwrap();
        assert_eq!(i_sym.where_, WhereIr::Reg(30), "{:?}", i_sym);
    }

    #[test]
    fn doubles_and_calls_work_everywhere() {
        let src = r#"
            double square(double x) { return x * x; }
            int main(void) {
                double d;
                d = square(1.5) + 0.75;
                printf("%g\n", d);
                return 0;
            }
        "#;
        for arch in Arch::ALL {
            let c = compile("sq.c", src, arch, CompileOpts::default())
                .unwrap_or_else(|e| panic!("{arch}: {e}"));
            let (out, _) = run_to_exit(&c);
            assert_eq!(out, "3\n", "{arch}");
        }
    }

    #[test]
    fn recursion_and_strings() {
        let src = r#"
            int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }
            int main(void) {
                printf("fact(%d) = %d%c", 6, fact(6), '\n');
                return fact(0);
            }
        "#;
        for arch in Arch::ALL {
            let c = compile("fact.c", src, arch, CompileOpts::default())
                .unwrap_or_else(|e| panic!("{arch}: {e}"));
            let (out, code) = run_to_exit(&c);
            assert_eq!(out, "fact(6) = 720\n", "{arch}");
            assert_eq!(code, 1, "{arch}");
        }
    }

    #[test]
    fn structs_and_pointers() {
        let src = r#"
            struct point { int x; int y; };
            struct point origin;
            int get(struct point *p) { return p->x + p->y; }
            int main(void) {
                origin.x = 3;
                origin.y = 4;
                printf("%d\n", get(&origin));
                return 0;
            }
        "#;
        for arch in Arch::ALL {
            let c = compile("pt.c", src, arch, CompileOpts::default())
                .unwrap_or_else(|e| panic!("{arch}: {e}"));
            let (out, _) = run_to_exit(&c);
            assert_eq!(out, "7\n", "{arch}");
        }
    }

    #[test]
    fn division_by_zero_faults_at_runtime() {
        let src = "int main(void) { int z; z = 0; return 7 / z; }";
        let c = compile("dz.c", src, Arch::Vax, CompileOpts::default()).unwrap();
        let mut m = Machine::load(&c.linked.image);
        loop {
            match m.run(100_000) {
                RunEvent::Paused { .. } => continue,
                RunEvent::Fault(f) => {
                    assert_eq!(f, ldb_machine::Fault::DivideByZero);
                    break;
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn globals_arrays_unsigned_chars() {
        let src = r#"
            int tbl[4] = {10, 20, 30, 40};
            char msg[6] = "hi%yo";
            unsigned int u;
            int main(void) {
                int s; int k;
                s = 0;
                for (k = 0; k < 4; k++) s += tbl[k];
                u = 70002;
                s += u % 7;
                printf("%d %c%c\n", s, msg[0], msg[1]);
                return 0;
            }
        "#;
        for arch in Arch::ALL {
            let c = compile("g.c", src, arch, CompileOpts::default())
                .unwrap_or_else(|e| panic!("{arch}: {e}"));
            let (out, _) = run_to_exit(&c);
            assert_eq!(out, "102 hi\n", "{arch}");
        }
    }

    #[test]
    fn while_do_break_continue_logic() {
        let src = r#"
            int main(void) {
                int n; int s;
                n = 0; s = 0;
                while (1) {
                    n++;
                    if (n > 10) break;
                    if (n % 2 == 0) continue;
                    s += n;
                }
                do { s++; } while (s < 0);
                if (s == 26 && !(s != 26)) printf("ok %d\n", s);
                return 0;
            }
        "#;
        for arch in Arch::ALL {
            let c = compile("w.c", src, arch, CompileOpts::default())
                .unwrap_or_else(|e| panic!("{arch}: {e}"));
            let (out, _) = run_to_exit(&c);
            assert_eq!(out, "ok 26\n", "{arch}");
        }
    }
}
