//! Every use of the program's interfaces beyond "SQL in, rows out".
//!
//! Server and wire counters, `QueryResult::modeled`, `ExecCtx`
//! construction, direct JIT compiles and `launch_opts` replays all live
//! here, so a change to those interfaces has one place to update. The
//! rest of the benchmark only sends SQL and compares rendered rows.

use up_engine::exec::{execute, ExecCtx};
use up_engine::plan::{plan, QueryPlan};
use up_engine::sql::{parse_select, Select};
use up_engine::{Catalog, Profile, QueryResult};
use up_gpusim::{launch_opts, DeviceConfig, ExecBackend, GlobalMem, LaunchOpts, SimParallelism};
use up_jit::cache::{Compiled, JitEngine};
use up_jit::Expr;
use up_net::{NetConfig, TenantRegistry, WireServer};
use up_server::{ServerConfig, UpServer};

/// Rendered result cells: what a client compares bit for bit.
pub type Rows = Vec<Vec<String>>;

fn render(r: &QueryResult) -> Rows {
    r.rows
        .iter()
        .map(|row| row.iter().map(|v| v.render()).collect())
        .collect()
}

/// `Database::query` on the server's database, rendered.
pub fn db_query(up: &UpServer, sql: &str) -> Result<Rows, String> {
    up.read(|db| db.query(sql))
        .map(|r| render(&r))
        .map_err(|e| e.to_string())
}

/// `Database::query_as(PostgresLike)`: the CPU oracle the UltraPrecise
/// rows are cross-checked against.
pub fn postgres_query(up: &UpServer, sql: &str) -> Result<Rows, String> {
    up.read(|db| db.query_as(Profile::PostgresLike, sql))
        .map(|r| render(&r))
        .map_err(|e| e.to_string())
}

/// `UpServer::query` on `session`, rendered.
pub fn server_query(
    up: &UpServer,
    session: up_server::SessionId,
    sql: &str,
) -> Result<Rows, String> {
    up.query(session, sql)
        .map(|r| render(&r))
        .map_err(|e| e.to_string())
}

/// Mean modeled time per query, in ms, split by leg. `total_ms`
/// excludes the stream-queueing leg. This is the paper's cost model,
/// never host speed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Modeled {
    /// Sum of every leg but queueing.
    pub total_ms: f64,
    /// JIT / NVCC compilation.
    pub compile_ms: f64,
    /// Kernel execution.
    pub kernel_ms: f64,
    /// Host↔device transfer.
    pub pcie_ms: f64,
    /// CPU executor.
    pub cpu_ms: f64,
    /// Input scan.
    pub scan_ms: f64,
}

/// Runs `sqls` serially through `Database::query` on the server's
/// database and averages their `ModeledTime`.
pub fn modeled_pass<'a>(
    up: &UpServer,
    sqls: impl IntoIterator<Item = &'a str>,
) -> Result<Modeled, String> {
    let mut m = Modeled::default();
    let mut n = 0usize;
    for sql in sqls {
        let r = up.read(|db| db.query(sql)).map_err(|e| e.to_string())?;
        let t = r.modeled;
        m.total_ms += (t.total() - t.queue_s) * 1e3;
        m.compile_ms += t.compile_s * 1e3;
        m.kernel_ms += t.kernel_s * 1e3;
        m.pcie_ms += t.pcie_s * 1e3;
        m.cpu_ms += t.cpu_s * 1e3;
        m.scan_ms += t.scan_s * 1e3;
        n += 1;
    }
    let n = n.max(1) as f64;
    for v in [
        &mut m.total_ms,
        &mut m.compile_ms,
        &mut m.kernel_ms,
        &mut m.pcie_ms,
        &mut m.cpu_ms,
        &mut m.scan_ms,
    ] {
        *v /= n;
    }
    Ok(m)
}

/// Server, wire and tenant counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Queries the server completed.
    pub completed: u64,
    /// Queries that failed in the engine.
    pub failed: u64,
    /// Submissions bounced by admission control.
    pub rejected: u64,
    /// Queries past their deadline.
    pub timed_out: u64,
    /// JIT cache hits.
    pub jit_hits: u64,
    /// JIT cache misses (compiles).
    pub jit_misses: u64,
    /// JIT cache evictions.
    pub jit_evictions: u64,
    /// Launches on any simulator tier.
    pub launches: u64,
    /// Launches on the closure-compiled tier.
    pub compiled_launches: u64,
    /// Decoded→compiled promotions.
    pub promotions: u64,
    /// Interpreter-fallback instructions inside compiled launches.
    pub fallback_insts: u64,
    /// Wire-level errors: protocol errors, refused, slow-consumer and
    /// idle closes, plus tenant rejections and throttles.
    pub wire_errors: u64,
    /// Median queue wait since the server started (log₂ bucket bound).
    pub queue_wait_p50_s: f64,
    /// 95th-percentile queue wait since the server started.
    pub queue_wait_p95_s: f64,
}

impl Counters {
    /// Reads every counter.
    pub fn read(up: &UpServer, wire: &WireServer, tenants: &TenantRegistry) -> Counters {
        let m = up.metrics();
        let w = wire.stats();
        let tenant_rejects: u64 = tenants
            .all_stats()
            .iter()
            .map(|(_, s)| s.rejected + s.throttled)
            .sum();
        Counters {
            completed: m.completed,
            failed: m.failed,
            rejected: m.rejected,
            timed_out: m.timed_out,
            jit_hits: m.cache.hits,
            jit_misses: m.cache.misses,
            jit_evictions: m.cache.evictions,
            launches: m.exec_tiers.total(),
            compiled_launches: m.exec_tiers.compiled,
            promotions: m.exec_tiers.promotions,
            fallback_insts: m.exec_tiers.fallback_insts,
            wire_errors: w.protocol_errors
                + w.refused
                + w.slow_closed
                + w.idle_closed
                + tenant_rejects,
            queue_wait_p50_s: m.queue_wait.p50_s,
            queue_wait_p95_s: m.queue_wait.p95_s,
        }
    }

    /// Counts accumulated since `before`; queue-wait quantiles stay
    /// cumulative (the server keeps a histogram, not a log).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            completed: self.completed - before.completed,
            failed: self.failed - before.failed,
            rejected: self.rejected - before.rejected,
            timed_out: self.timed_out - before.timed_out,
            jit_hits: self.jit_hits - before.jit_hits,
            jit_misses: self.jit_misses - before.jit_misses,
            jit_evictions: self.jit_evictions - before.jit_evictions,
            launches: self.launches - before.launches,
            compiled_launches: self.compiled_launches - before.compiled_launches,
            promotions: self.promotions - before.promotions,
            fallback_insts: self.fallback_insts - before.fallback_insts,
            wire_errors: self.wire_errors - before.wire_errors,
            ..*self
        }
    }
}

/// Runs of each distinct query that leave its kernels on the compiled
/// tier: one more than the simulator's promotion threshold.
pub fn promotion_launches() -> u64 {
    up_gpusim::tier_threshold() + 1
}

/// The configuration the benchmark runs under, as one JSON object:
/// every server and wire setting plus the simulator's tier threshold.
pub fn knobs_json() -> String {
    let s = ServerConfig::default();
    let n = NetConfig::default();
    format!(
        "{{\"workers\":{},\"queue_capacity\":{},\"gpu_streams\":{},\"jit_cache_capacity\":{},\
         \"sim_par\":\"{}\",\"pipeline\":\"{:?}\",\"arena\":{},\"exec_backend\":\"{:?}\",\"devices\":{},\
         \"tier_threshold\":{},\"net_reactor\":\"{}\",\"net_event_threads\":{},\"net_max_conns\":{},\
         \"net_idle_s\":{},\"net_max_inflight\":{}}}",
        s.workers,
        s.queue_capacity,
        s.gpu_streams,
        s.jit_cache_capacity,
        s.sim_par,
        s.pipeline,
        s.arena,
        s.exec_backend,
        s.devices,
        up_gpusim::tier_threshold(),
        n.reactor.name(),
        n.event_threads,
        n.max_conns,
        n.idle_timeout.as_secs_f64(),
        n.max_inflight,
    )
}

/// One kernel launch ready to replay: the kernel, its input memory and
/// its geometry.
pub struct Launch {
    kernel: std::sync::Arc<up_jit::CompiledExpr>,
    mem: GlobalMem,
    tuples: u32,
}

/// A private copy of the server's tables and execution settings, driven
/// through the engine's layer functions directly — the same steps
/// `Database::query` takes, each one callable and timeable on its own.
pub struct Mirror {
    catalog: Catalog,
    device: DeviceConfig,
    jit: JitEngine,
    agg_tpi: u32,
    expr_tpi: u32,
    sim_par: SimParallelism,
    pipeline: up_gpusim::PipelineMode,
    exec_backend: ExecBackend,
}

impl Mirror {
    /// Copies `tables` and the execution settings out of the server's
    /// database. The mirror has its own JIT engine with an empty cache.
    pub fn new(up: &UpServer, tables: &[&str]) -> Mirror {
        up.read(|db| {
            let mut catalog = Catalog::new();
            for name in tables {
                let t = db
                    .table(name)
                    .unwrap_or_else(|| panic!("table {name} is loaded"));
                catalog.put(t.clone());
            }
            Mirror {
                catalog,
                device: DeviceConfig::a6000(),
                jit: JitEngine::with_defaults(),
                agg_tpi: db.agg_tpi,
                expr_tpi: db.expr_tpi,
                sim_par: db.sim_par,
                pipeline: db.pipeline,
                exec_backend: db.exec_backend,
            }
        })
    }

    /// `parse_select`.
    pub fn parse(&self, sql: &str) -> Result<Select, String> {
        parse_select(sql).map_err(|e| e.to_string())
    }

    /// `plan` against the mirror catalog.
    pub fn plan(&self, select: &Select) -> Result<QueryPlan, String> {
        plan(select, &self.catalog).map_err(|e| e.to_string())
    }

    /// `execute` with an `ExecCtx` built the way `Database::query` builds
    /// it, rendered.
    pub fn execute(&self, plan: &QueryPlan) -> Result<Rows, String> {
        let ctx = ExecCtx {
            catalog: &self.catalog,
            profile: Profile::UltraPrecise,
            device: &self.device,
            jit: &self.jit,
            agg_tpi: self.agg_tpi,
            expr_tpi: self.expr_tpi,
            sim_par: self.sim_par,
            pipeline: self.pipeline,
            exec_backend: self.exec_backend,
            arena: None,
            fleet: None,
        };
        execute(plan, &ctx)
            .map(|r| render(&r))
            .map_err(|e| e.to_string())
    }

    /// The kernels `sql` compiles (`Database::plan_kernels` on the
    /// server's database).
    pub fn kernels(&self, up: &UpServer, sql: &str) -> Result<Vec<Expr>, String> {
        up.read(|db| db.plan_kernels(Profile::UltraPrecise, sql))
            .map(|ks| ks.into_iter().map(|(_, e)| e).collect())
            .map_err(|e| e.to_string())
    }

    /// `JitEngine::compile` of `exprs` on the mirror's engine: hits once
    /// the mirror is warm, misses for a never-seen query.
    pub fn compile(&self, exprs: &[Expr]) {
        compile_all(&self.jit, exprs);
    }

    /// `JitEngine::compile` of `exprs` on a fresh engine: the miss path.
    pub fn compile_fresh(exprs: &[Expr]) {
        compile_all(&JitEngine::with_defaults(), exprs);
    }

    /// The kernel signature of `expr` (`None` for a passthrough).
    pub fn signature(&self, expr: &Expr) -> Option<String> {
        self.jit.signature(expr)
    }

    /// Prepares a launch of each kernel over the first `rows` rows of
    /// `table` (all of them when `None`): the mirror's compiled kernel
    /// and compact-encoded inputs cut from the table's own columns.
    pub fn launches(
        &self,
        exprs: &[Expr],
        table: &str,
        rows: Option<usize>,
    ) -> Result<Vec<Launch>, String> {
        let t = self
            .catalog
            .read(table)
            .ok_or_else(|| format!("no table {table}"))?;
        let n = rows.unwrap_or(t.rows).min(t.rows);
        let mut out = Vec::new();
        for e in exprs {
            let Compiled::Kernel(k) = self.jit.compile(e).0 else {
                continue;
            };
            let mut names = vec![None; k.n_inputs];
            column_names(e, &mut names);
            let mut mem = GlobalMem::new();
            for name in names {
                let name = name.ok_or("kernel input without a column")?;
                let col = t
                    .schema
                    .index_of(&name)
                    .ok_or_else(|| format!("no column {name}"))?;
                let (bytes, ty) = t.columns[col].decimal_bytes();
                mem.add_buffer(bytes[..n * ty.lb()].to_vec());
            }
            mem.alloc(n.max(1) * k.out_ty.lb());
            out.push(Launch {
                kernel: k,
                mem,
                tuples: n as u32,
            });
        }
        Ok(out)
    }

    /// Replays prepared launches through `launch_opts` with the server's
    /// parallelism and tier settings.
    pub fn replay(&self, launches: &mut [Launch]) -> Result<(), String> {
        for l in launches {
            let cfg = l.kernel.launch_config(l.tuples as u64, 256, &self.device);
            let opts = LaunchOpts {
                par: self.sim_par,
                backend: self.exec_backend,
                auto_serial_below: None,
            };
            launch_opts(
                &l.kernel.kernel,
                cfg,
                &self.device,
                &mut l.mem,
                &[l.tuples],
                opts,
            )
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

fn compile_all(jit: &JitEngine, exprs: &[Expr]) {
    for e in exprs {
        std::hint::black_box(jit.compile(e));
    }
}

/// Fills `out[i]` with the column name kernel input `i` reads.
fn column_names(e: &Expr, out: &mut [Option<String>]) {
    match e {
        Expr::Col { index, name, .. } => {
            if let Some(slot) = out.get_mut(*index) {
                *slot = Some(name.clone());
            }
        }
        Expr::Const(_) => {}
        Expr::Neg(a) => column_names(a, out),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) | Expr::Mod(a, b) => {
            column_names(a, out);
            column_names(b, out);
        }
    }
}
