//! Defensive stack walking: the guarded walk must terminate with a typed
//! reason on every input — healthy stacks (StackBase), stacks deeper than
//! the hard cap (DepthCap), and deliberately corrupted frame chains
//! (Cycle, BadFrame, WireError) — without panicking or looping.
//!
//! The corruption tests drive a real session: stop at a breakpoint, learn
//! the top frame's vfp from the backtrace, overwrite the saved-fp slot
//! through the wire, step once (which re-walks the stack), and check the
//! transcript carries the exact truncation line.

use ldb_suite::cc::driver::{compile, CompileOpts};
use ldb_suite::cc::pssym;
use ldb_suite::core::{Ldb, ModuleTable, script, StopEvent, WALK_DEPTH_CAP, WalkStop};
use ldb_suite::machine::Arch;

const CLAMP_SRC: &str = r#"
static int calls;
static int limit = 100;
int clamp(int v) {
    calls++;
    if (v > limit) return limit;
    return v;
}
int main(void) {
    int i; int s;
    s = 0;
    for (i = 0; i < 10; i++) s += clamp(i * 30);
    printf("%d\n", s);
    return 0;
}
"#;

const DEEP_SRC: &str = r#"
int depth(int n) {
    if (n == 0) return 0;
    return 1 + depth(n - 1);
}
int main(void) {
    printf("%d\n", depth(70));
    return 0;
}
"#;

fn session(src: &str, arch: Arch) -> Ldb {
    let c = compile("t.c", src, arch, CompileOpts::default()).unwrap();
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader).unwrap();
    ldb
}

/// A healthy stop walks to the stack base and says so.
#[test]
fn healthy_walk_reaches_stack_base_on_every_arch() {
    for arch in Arch::ALL {
        let mut ldb = session(CLAMP_SRC, arch);
        ldb.break_at("clamp", 0).unwrap();
        let ev = ldb.cont().unwrap();
        assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
        let (rows, stop) = ldb.backtrace();
        let names: Vec<&str> = rows.iter().map(|(_, n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["clamp", "main"], "{arch}");
        assert_eq!(stop, WalkStop::StackBase, "{arch}");
        assert_eq!(ldb.health().walks_truncated, 0, "{arch}");
    }
}

/// At the initial pause the pc sits in startup code with no frame
/// metadata: the walk ends cleanly after the single frame it can
/// interpret, rather than chasing a register that is not a frame link.
#[test]
fn pause_frame_without_meta_walks_one_frame_cleanly() {
    for arch in Arch::ALL {
        let ldb = session(CLAMP_SRC, arch);
        let (rows, stop) = ldb.backtrace();
        assert_eq!(rows.len(), 1, "{arch}: {rows:?}");
        assert_eq!(stop, WalkStop::StackBase, "{arch}");
    }
}

/// A stack deeper than the hard cap truncates with DepthCap — the walk
/// must not scale with hostile (or merely enormous) recursion.
#[test]
fn deep_recursion_truncates_at_depth_cap() {
    for arch in Arch::ALL {
        let mut ldb = session(DEEP_SRC, arch);
        // Run to the base case: 71 `depth` activations plus `main`.
        ldb.break_at("depth", 0).unwrap();
        loop {
            let ev = ldb.cont().unwrap();
            assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
            if ldb.print_var("n").unwrap() == "0" {
                break;
            }
        }
        let (rows, stop) = ldb.backtrace();
        assert_eq!(rows.len(), WALK_DEPTH_CAP as usize, "{arch}");
        assert_eq!(stop, WalkStop::DepthCap { cap: WALK_DEPTH_CAP }, "{arch}");
        let out = script::run_script(&mut ldb, "bt");
        assert!(
            out.contains(&format!("walk truncated: DepthCap ({WALK_DEPTH_CAP} frames)")),
            "{arch}: {out}"
        );
    }
}

/// Stop in `clamp` and return the top frame's vfp (the fp-linked
/// architectures store the caller chain through it).
fn stop_in_clamp(ldb: &mut Ldb, arch: Arch) -> u32 {
    ldb.break_at("clamp", 0).unwrap();
    let ev = ldb.cont().unwrap();
    assert!(matches!(ev, StopEvent::Breakpoint { .. }), "{arch}: {ev:?}");
    let (rows, stop) = ldb.backtrace();
    assert_eq!(stop, WalkStop::StackBase, "{arch}");
    rows[0].3
}

/// Overwrite the word at `addr` in target data memory through the
/// target's own wire (cache write-through included).
fn poke(ldb: &Ldb, addr: u32, value: u32) {
    ldb.target(0).wire.store('d', addr as i64, 4, value as u64).unwrap();
}

/// A saved fp pointing back at an already-visited frame is reported as a
/// cycle, with pinned output. (The fp-linked architectures; the MIPS
/// derives vfps from the procedure table instead, and its corruption
/// paths are exercised by the chaos soak.)
#[test]
fn cyclic_frame_chain_reports_cycle() {
    for arch in [Arch::M68k, Arch::Vax, Arch::Sparc] {
        let mut ldb = session(CLAMP_SRC, arch);
        let fp0 = stop_in_clamp(&mut ldb, arch);
        // Make the saved-fp slot point back at the top frame itself.
        let slot = if arch == Arch::Sparc { fp0.wrapping_sub(4) } else { fp0 };
        poke(&ldb, slot, fp0);
        // Step once: the stop re-walks the (now cyclic) chain.
        ldb.step_insn().unwrap();
        let (rows, stop) = ldb.backtrace();
        assert_eq!(stop, WalkStop::Cycle { vfp: fp0 }, "{arch}: {rows:?}");
        assert!(!rows.is_empty(), "{arch}: the truncated walk still has the top frame");
        let out = script::run_script(&mut ldb, "bt");
        assert!(
            out.contains(&format!("walk truncated: Cycle (vfp {fp0:#x} already visited)")),
            "{arch}: {out}"
        );
        assert!(ldb.health().walks_truncated >= 1, "{arch}");
        assert_eq!(ldb.health().walk_cycles, ldb.health().walks_truncated, "{arch}");
    }
}

/// A misaligned saved fp fails the guard's sanity check with BadFrame.
#[test]
fn misaligned_saved_fp_reports_bad_frame() {
    for arch in [Arch::M68k, Arch::Vax] {
        let mut ldb = session(CLAMP_SRC, arch);
        let fp0 = stop_in_clamp(&mut ldb, arch);
        poke(&ldb, fp0, fp0 + 7); // above the callee (monotonic) but unaligned
        ldb.step_insn().unwrap();
        let (_, stop) = ldb.backtrace();
        match &stop {
            WalkStop::BadFrame { reason } => {
                assert!(reason.contains("misaligned caller vfp"), "{arch}: {reason}")
            }
            other => panic!("{arch}: expected BadFrame, got {other:?}"),
        }
    }
}

/// A saved fp below the callee's frame violates stack-growth monotonicity.
#[test]
fn non_monotonic_chain_reports_bad_frame() {
    for arch in [Arch::M68k, Arch::Vax] {
        let mut ldb = session(CLAMP_SRC, arch);
        let fp0 = stop_in_clamp(&mut ldb, arch);
        poke(&ldb, fp0, fp0 - 64); // aligned, nonzero, but *below* the callee
        ldb.step_insn().unwrap();
        let (_, stop) = ldb.backtrace();
        match &stop {
            WalkStop::BadFrame { reason } => {
                assert!(reason.contains("not monotonic"), "{arch}: {reason}")
            }
            other => panic!("{arch}: expected BadFrame, got {other:?}"),
        }
    }
}

/// A saved fp aimed at unmapped memory passes the cheap checks but the
/// next hop's fetch faults: the walk reports WireError and keeps the
/// frames it recovered.
#[test]
fn unmapped_saved_fp_reports_wire_error() {
    for arch in [Arch::M68k, Arch::Vax] {
        let mut ldb = session(CLAMP_SRC, arch);
        let fp0 = stop_in_clamp(&mut ldb, arch);
        poke(&ldb, fp0, 0x0fff_fff0); // aligned, monotonic, unmapped
        ldb.step_insn().unwrap();
        let (rows, stop) = ldb.backtrace();
        assert!(
            matches!(stop, WalkStop::WireError { .. }),
            "{arch}: expected WireError, got {stop:?}"
        );
        // The top frame (and the fabricated caller) were still recovered.
        assert!(!rows.is_empty(), "{arch}");
        assert_eq!(rows[0].1, "clamp", "{arch}: {rows:?}");
    }
}
