//! Expression evaluation through the expression server, tracing the
//! communication paths of the paper's Figure 3:
//!
//! ```text
//!   ldb  --- expression text --->  expression server
//!   ldb  <-- /a ExpressionServer.lookup --  server      (unknown symbol)
//!   ldb  --- symbol information --->        server
//!   ldb  <-- PostScript procedure + ExpressionServer.result -- server
//! ```
//!
//! Run with: `cargo run --example expr_eval`

use std::io::Read;

use ldb_cc::driver::{compile, CompileOpts};
use ldb_cc::pssym;
use ldb_core::{Ldb, ModuleTable};
use ldb_machine::Arch;

const SRC: &str = r#"
double scale;
int total;
int weigh(int grams) {
    int adjusted;
    adjusted = grams + total;
    return adjusted;
}
int main(void) {
    int k;
    scale = 2.5;
    total = 0;
    for (k = 1; k < 50; k++) total = weigh(k);
    printf("%d\n", total);
    return 0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Part 1: watch the raw protocol by playing the debugger by hand.
    println!("--- the Figure 3 message flow, verbatim ---");
    let mut server = ldb_exprserver::spawn();
    server
        .to_server
        .send(ldb_exprserver::ToServer::Expr("grams + total * 2".into()))?;
    let mut text = String::new();
    let answers =
        [("grams", "var E1 int %s"), ("total", "var E2 int %s")];
    loop {
        let mut chunk = [0u8; 256];
        let n = server.reply_pipe.read(&mut chunk)?;
        text.push_str(std::str::from_utf8(&chunk[..n])?);
        while let Some(idx) = text.find("ExpressionServer.lookup") {
            let line = text[..idx].trim().to_string();
            println!("server -> ldb : {line} ExpressionServer.lookup");
            let name = line.rsplit('/').next().unwrap().trim();
            let reply = answers.iter().find(|(n, _)| *n == name).map(|(_, r)| *r).unwrap();
            println!("ldb -> server : {reply}");
            server.to_server.send(ldb_exprserver::ToServer::Symbol(reply.into()))?;
            text = text[idx + "ExpressionServer.lookup".len()..].to_string();
        }
        if text.contains("ExpressionServer.result") {
            println!("server -> ldb : {}", text.trim());
            break;
        }
    }
    server.to_server.send(ldb_exprserver::ToServer::Shutdown)?;

    // Part 2: the same machinery end to end against a live target.
    println!();
    println!("--- live evaluation against a stopped target (68020) ---");
    let arch = Arch::M68k;
    let c = compile("weigh.c", SRC, arch, CompileOpts::default())?;
    let symtab = pssym::emit(&c.unit, &c.funcs, arch, pssym::PsMode::Deferred);
    let loader = [ModuleTable { name: c.unit.file.clone(), ps: symtab }];
    let mut ldb = Ldb::new();
    ldb.spawn_program(&c.linked.image, &loader)?;
    ldb.break_at("weigh", 2)?; // the return statement
    ldb.cont()?;
    ldb.cont()?;
    ldb.cont()?;

    for expr in [
        "grams",
        "adjusted",
        "total + grams",
        "adjusted * 2 - 1",
        "scale",
        "scale * 4.0",
        "adjusted == grams + total",
        "total = 1000", // assignment writes through to the target
        "total",
    ] {
        match ldb.eval(expr) {
            Ok(v) => println!("  (ldb) print {expr:<28} => {v}"),
            Err(e) => println!("  (ldb) print {expr:<28} !! {e}"),
        }
    }
    // The assignment redirected the program's arithmetic.
    let bp = ldb.stop_address("weigh", 2)?;
    ldb.clear_breakpoint(bp)?;
    ldb.cont()?;
    let out = ldb
        .take_nub_handle(0)
        .map(|h| h.join.join().expect("nub").output)
        .unwrap_or_default();
    println!("program output (total was patched mid-run): {}", out.trim_end());
    Ok(())
}
