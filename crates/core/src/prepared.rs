//! The product's one attach path. The `ldb` CLI (local, `--tcp`,
//! `--core`, reattach), each `ldbd` tenant and each fleet attempt
//! prepare a [`PreparedTarget`] — symbol tables compiled to interned
//! bytecode through a [`ModuleCache`], so N sessions on one binary pay
//! one compile — and attach it lazily with
//! [`Ldb::attach_prepared`](crate::Ldb::attach_prepared). Tenants and
//! fleet sessions use the [`service_client_config`] policy; the CLI
//! keeps the interactive default. The eager plan path
//! ([`Ldb::attach_plan`](crate::Ldb::attach_plan)) stays as the
//! reference the tests, T2 and E4 compare against.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ldb_cc::driver::{compile_many, program_load_plan, CompileOpts, CompiledProgram};
use ldb_cc::pssym::PsMode;
use ldb_machine::{Arch, Image};
use ldb_nub::{spawn, ClientConfig, NubConfig, NubHandle};
use ldb_postscript::{CompiledModule, ModuleCache};

use crate::loader::CompiledTable;

/// A compiled program shared by every session that debugs it: the linked
/// image, the bytecode-compiled symbol tables, and the source text `list`
/// annotates.
pub struct PreparedTarget {
    /// The linked program.
    pub image: Image,
    /// The compiled loader frame (anchor map and proctable).
    pub frame: Arc<CompiledModule>,
    /// The compiled per-module symbol tables.
    pub tables: Vec<CompiledTable>,
    /// The source text, files joined in link order.
    pub source: String,
    /// Every stopping point as (source line, index within its function).
    pub stops: Vec<(u32, u32)>,
}

impl PreparedTarget {
    /// Intern `p`'s symbol tables in `cache`; `source` is the text `list`
    /// shows.
    ///
    /// # Errors
    /// A table that fails to compile, as a message.
    pub fn new(p: &CompiledProgram, source: String, cache: &ModuleCache) -> Result<Self, String> {
        let (frame_ps, modules) = program_load_plan(p, PsMode::Deferred);
        let (frame, _hit) = cache.get_or_compile(&frame_ps).map_err(|e| format!("frame: {e}"))?;
        let tables = modules
            .into_iter()
            .map(|(name, ps)| {
                let (module, _hit) =
                    cache.get_or_compile(&ps).map_err(|e| format!("table `{name}`: {e}"))?;
                Ok(CompiledTable { name, module })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let stops = p
            .units
            .iter()
            .flat_map(|(u, _)| u.funcs.iter())
            .flat_map(|f| f.stops.iter())
            .map(|s| (s.line, s.index))
            .collect();
        Ok(PreparedTarget { image: p.linked.image.clone(), frame, tables, source, stops })
    }

    /// Spawn the image under a fresh nub, held at the startup pause until
    /// a debugger connects.
    pub fn spawn(&self) -> NubHandle {
        spawn(&self.image, NubConfig { wait_at_pause: true, ..Default::default() })
    }

    /// The source annotated with its stopping points (`list`).
    pub fn listing(&self) -> String {
        let mut marks: HashMap<u32, Vec<String>> = HashMap::new();
        for (line, index) in &self.stops {
            marks.entry(*line).or_default().push(index.to_string());
        }
        let rows: Vec<String> = (1u32..)
            .zip(self.source.lines())
            .map(|(n, line)| match marks.get(&n) {
                Some(m) => format!("{n:>4}  {line}  % stops {}", m.join(",")),
                None => format!("{n:>4}  {line}"),
            })
            .collect();
        rows.join("\n")
    }
}

/// Compile the one-file program `source` for `arch` (as `target.c`) and
/// prepare it, interning its symbol tables in `cache`.
///
/// # Errors
/// Compiler or table-compile failures, as a message.
pub fn prepare_target(
    arch: Arch,
    source: &str,
    cache: &ModuleCache,
) -> Result<PreparedTarget, String> {
    let p = compile_many(&[("target.c", source)], arch, CompileOpts::default())
        .map_err(|e| format!("compile: {e}"))?;
    PreparedTarget::new(&p, source.to_string(), cache)
}

/// The nub-client policy of every product session: a 2 s reply timeout
/// with 4 retries, a 1 ms backoff, and a 100 ms event poll. `jitter_seed`
/// decorrelates the backoff of sessions that retry together.
pub fn service_client_config(jitter_seed: u64) -> ClientConfig {
    ClientConfig {
        reply_timeout: Duration::from_secs(2),
        retries: 4,
        backoff: Duration::from_millis(1),
        event_poll: Duration::from_millis(100),
        jitter_seed,
    }
}
