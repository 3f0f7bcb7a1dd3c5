//! The benchmark run: set-up, the correctness gate, the closed-loop
//! timed window, and the traced layer-by-layer pass.

use crate::probe::{self, Counters, Mirror, Rows};
use crate::stats::{median, peak_rss_mb, process_cpu_s, quantile};
use crate::trace::Tracer;
use crate::workload::{self, QuerySet, Workload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;
use up_net::{
    read_frame, write_frame, Client, Frame, NetConfig, TenantQuota, TenantRegistry, WireServer,
};
use up_server::{ServerConfig, UpServer};

/// Closed-loop client connections, one thread and one query in flight
/// each.
pub const CLIENTS: usize = 2;
const TENANT: &str = "bench";
const TOKEN: &str = "bench-token";

/// What one invocation measures.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the tables and the query stream.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
}

/// Set-ups timed per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// A named metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// `<layer>.<metric>` or an end-to-end name.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one invocation.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every reply matched its expected rows and the oracle agreed.
    pub correct: bool,
    /// Queries sent in timed windows and layer passes.
    pub attempted: u64,
    /// Of those, errors plus wrong replies.
    pub failed: u64,
    /// Metrics in output order.
    pub metrics: Vec<Metric>,
    /// Run facts recorded with the result: latency sample count, oracle
    /// coverage, and the like.
    pub notes: Vec<(String, String)>,
}

impl Report {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }

    fn tally(&mut self, w: &Window) {
        self.attempted += w.attempted;
        self.failed += w.errors + w.wrong;
        self.correct &= w.wrong == 0;
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }
}

/// A running service: `UpServer` behind a loopback `WireServer`.
pub struct Service {
    /// The in-process query service.
    pub up: Arc<UpServer>,
    /// The wire front end.
    pub wire: WireServer,
    /// The tenant the clients authenticate as.
    pub tenants: Arc<TenantRegistry>,
}

impl Service {
    /// Opens an authenticated client connection.
    pub fn client(&self) -> Result<Client, String> {
        Client::connect(self.wire.addr(), TENANT, TOKEN).map_err(|e| format!("connect: {e}"))
    }

    /// Stops the wire front end and the server.
    pub fn stop(mut self) {
        self.wire.shutdown();
    }
}

/// Loads the tables, starts the server and the wire front end on an
/// ephemeral loopback port, and (for warm workloads) runs every
/// distinct query until its kernels are compiled and promoted.
pub fn setup(w: Workload, seed: u64, set: &QuerySet) -> Result<Service, String> {
    let up = Arc::new(UpServer::new(ServerConfig::default()));
    workload::load(&up, w, seed);
    let tenants = Arc::new(TenantRegistry::new());
    tenants.register(TENANT, TOKEN, TenantQuota::default());
    let wire = WireServer::start(Arc::clone(&up), Arc::clone(&tenants), NetConfig::default())
        .map_err(|e| format!("start wire server: {e}"))?;
    let svc = Service { up, wire, tenants };
    if w.warm() {
        for q in &set.queries {
            for _ in 0..probe::promotion_launches() {
                probe::db_query(&svc.up, &q.sql).map_err(|e| format!("{}: {e}", q.sql))?;
            }
        }
        let mut c = svc.client()?;
        for q in &set.queries {
            c.query(&q.sql)
                .map_err(|e| format!("warm-up {}: {e}", q.sql))?;
        }
        c.goodbye().map_err(|e| e.to_string())?;
    }
    Ok(svc)
}

/// Expected rows of every distinct query, from a serial in-process
/// `Database::query`.
pub fn expected_rows(up: &UpServer, set: &QuerySet) -> Result<Vec<Rows>, String> {
    set.queries
        .iter()
        .map(|q| probe::db_query(up, &q.sql).map_err(|e| format!("{}: {e}", q.sql)))
        .collect()
}

/// Cross-checks expected rows against the PostgreSQL-like CPU profile
/// for every query without division. Returns `(checked, mismatches)`.
pub fn cross_check(up: &UpServer, set: &QuerySet, expected: &[Rows]) -> (usize, Vec<String>) {
    let mut checked = 0;
    let mut bad = Vec::new();
    for (q, want) in set.queries.iter().zip(expected) {
        if q.divides {
            continue;
        }
        checked += 1;
        match probe::postgres_query(up, &q.sql) {
            Ok(got) if &got == want => {}
            Ok(got) => bad.push(format!(
                "{}: ultraprecise {want:?} vs postgres-like {got:?}",
                q.sql
            )),
            Err(e) => bad.push(format!("{}: postgres-like failed: {e}", q.sql)),
        }
    }
    (checked, bad)
}

/// Slices a timed window is cut into; rates and tail latency are
/// reported as the median over slices, so one noisy stretch of a run
/// does not set them.
pub const SLICES: usize = 5;

/// One closed-loop window.
pub struct Window {
    /// Send-to-reply latency of every reply in µs, bucketed by the slice
    /// it completed in; the last bucket holds replies that completed
    /// after the deadline.
    pub latencies_us: Vec<Vec<f32>>,
    /// Queries sent.
    pub attempted: u64,
    /// Error replies.
    pub errors: u64,
    /// Replies whose rows differ from the expected rows.
    pub wrong: u64,
    /// Nominal window length.
    pub seconds: f64,
    /// Wall seconds from the window opening to the last reply.
    pub elapsed_s: f64,
    /// Process CPU seconds at each slice boundary (`SLICES + 1` reads).
    pub cpu_marks: Vec<f64>,
    /// Stream position after the window.
    pub end_pos: usize,
    /// `net.query` spans, when traced.
    pub spans: Option<Tracer>,
}

/// Statistics of one slice of a window.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// Replies completed per second.
    pub qps: f64,
    /// 99th-percentile latency, µs.
    pub p99_us: f64,
    /// Process CPU per completed reply, ms.
    pub cpu_ms_per_query: f64,
}

impl Window {
    /// Correct replies.
    pub fn ok(&self) -> u64 {
        self.attempted - self.errors - self.wrong
    }

    /// Every latency, ascending.
    pub fn sorted_latencies_us(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .latencies_us
            .iter()
            .flatten()
            .map(|&l| l as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Statistics of each of the `SLICES` equal slices of the window.
    pub fn slices(&self) -> Vec<Slice> {
        let d = self.seconds / SLICES as f64;
        (0..SLICES)
            .map(|k| {
                let mut l: Vec<f64> = self.latencies_us[k].iter().map(|&l| l as f64).collect();
                l.sort_by(f64::total_cmp);
                let n = l.len().max(1) as f64;
                Slice {
                    qps: l.len() as f64 / d,
                    p99_us: quantile(&l, 0.99),
                    cpu_ms_per_query: (self.cpu_marks[k + 1] - self.cpu_marks[k]) * 1e3 / n,
                }
            })
            .collect()
    }
}

/// Drives `CLIENTS` closed-loop connections through the stream from
/// position `start` for `seconds`, checking every reply. With `epoch`,
/// each `Client::query` is recorded as a span.
pub fn closed_loop(
    svc: &Service,
    set: &QuerySet,
    expected: &[Rows],
    start: usize,
    seconds: f64,
    epoch: Option<Instant>,
) -> Result<Window, String> {
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| svc.client())
        .collect::<Result<_, _>>()?;
    let pos = AtomicUsize::new(start);
    let go = Barrier::new(CLIENTS + 1);
    let t0 = Instant::now();
    let at = |s: f64| t0 + std::time::Duration::from_secs_f64(s);
    let slice_s = seconds / SLICES as f64;
    struct Part {
        latencies_us: Vec<Vec<f32>>,
        last_s: f64,
        errors: u64,
        wrong: u64,
        tracer: Option<Tracer>,
        client: Client,
    }
    let (parts, cpu_marks) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| {
                let (pos, go) = (&pos, &go);
                s.spawn(move || {
                    let mut p = Part {
                        latencies_us: vec![Vec::new(); SLICES + 1],
                        last_s: 0.0,
                        errors: 0,
                        wrong: 0,
                        tracer: epoch.map(Tracer::new),
                        client,
                    };
                    go.wait();
                    while Instant::now() < at(seconds) {
                        let n = pos.fetch_add(1, Ordering::Relaxed);
                        let qid = set.at(n) as usize;
                        let sql = &set.queries[qid].sql;
                        let t = Instant::now();
                        let reply = match &mut p.tracer {
                            Some(tr) => {
                                tr.span("net.query", n as u64, None, || p.client.query(sql))
                                    .0
                            }
                            None => p.client.query(sql),
                        };
                        let end = Instant::now();
                        p.last_s = end.duration_since(t0).as_secs_f64();
                        let slice = ((p.last_s / slice_s) as usize).min(SLICES);
                        p.latencies_us[slice].push(end.duration_since(t).as_secs_f32() * 1e6);
                        match reply {
                            Ok(rs) if rs.rows == expected[qid] => {}
                            Ok(rs) => {
                                if p.wrong == 0 {
                                    eprintln!(
                                        "wrong reply to {sql}: {:?} vs {:?}",
                                        rs.rows, expected[qid]
                                    );
                                }
                                p.wrong += 1;
                            }
                            Err(e) => {
                                if p.errors == 0 {
                                    eprintln!("error reply to {sql}: {e}");
                                }
                                p.errors += 1;
                            }
                        }
                    }
                    p
                })
            })
            .collect();
        go.wait();
        // Read process CPU at every slice boundary while the clients run.
        let mut marks = vec![process_cpu_s()];
        for k in 1..=SLICES {
            std::thread::sleep(at(slice_s * k as f64).saturating_duration_since(Instant::now()));
            marks.push(process_cpu_s());
        }
        let parts: Vec<Part> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (parts, marks)
    });
    let mut w = Window {
        latencies_us: vec![Vec::new(); SLICES + 1],
        attempted: 0,
        errors: 0,
        wrong: 0,
        seconds,
        elapsed_s: 0.0,
        cpu_marks,
        end_pos: pos.load(Ordering::Relaxed),
        spans: epoch.map(Tracer::new),
    };
    for p in parts {
        for (all, mine) in w.latencies_us.iter_mut().zip(p.latencies_us) {
            w.attempted += mine.len() as u64;
            all.extend(mine);
        }
        w.elapsed_s = w.elapsed_s.max(p.last_s);
        w.errors += p.errors;
        w.wrong += p.wrong;
        if let (Some(all), Some(tr)) = (w.spans.as_mut(), p.tracer) {
            all.absorb(tr);
        }
        p.client.goodbye().map_err(|e| format!("goodbye: {e}"))?;
    }
    Ok(w)
}

/// Git revision of the checkout, read from `.git` without running git.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l[..40.min(l.len())].to_string())
            })
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string()),
    }
}

/// Runs one invocation end to end.
pub fn run(opts: &Options) -> Result<Report, String> {
    let w = opts.workload;
    let set = workload::queries(w, opts.seed);
    let mut report = Report {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: Vec::new(),
    };
    report.note("workload", w.name());
    report.note("seed", opts.seed);
    report.note(
        "host_cores",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.note("git_revision", git_revision());
    report.note("knobs", probe::knobs_json());
    report.note("distinct_queries", set.queries.len());

    // Set-up, timed several times: tables, server start, warm-up and the
    // expected rows. The last service is the one measured.
    let mut setup_times = Vec::new();
    let mut ready = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        if let Some((old, _)) = ready.take() {
            Service::stop(old);
        }
        let t = Instant::now();
        let svc = setup(w, opts.seed, &set)?;
        let expected = expected_rows(&svc.up, &set)?;
        setup_times.push(t.elapsed().as_secs_f64());
        ready = Some((svc, expected));
    }
    let (svc, expected) = ready.expect("at least one set-up");

    // Correctness gate, part one: the CPU oracle agrees with the
    // expected rows.
    let (checked, bad) = cross_check(&svc.up, &set, &expected);
    for b in bad.iter().take(3) {
        eprintln!("oracle mismatch: {b}");
    }
    report.correct &= bad.is_empty();
    report.note("oracle_checked", checked);
    report.note("oracle_mismatches", bad.len());

    // The modeled pass prices the stream's prefix; timing starts after it.
    let prefix = w.modeled_prefix();
    let modeled = probe::modeled_pass(
        &svc.up,
        (0..prefix).map(|p| set.queries[set.at(p) as usize].sql.as_str()),
    )?;

    if opts.trace {
        traced(opts, &svc, &set, &expected, prefix, &modeled, &mut report)?;
    } else {
        let window = closed_loop(&svc, &set, &expected, prefix, opts.seconds, None)?;
        end_to_end(&window, &modeled, &mut setup_times, &mut report);
    }
    svc.stop();
    Ok(report)
}

/// Reports the end-to-end metrics of an untraced run.
fn end_to_end(
    window: &Window,
    modeled: &probe::Modeled,
    setup_times: &mut [f64],
    report: &mut Report,
) {
    report.tally(window);
    report.note("latency_samples", window.attempted);
    let n = window.attempted.max(1) as f64;
    let slices = window.slices();
    let slice_median = |f: fn(&Slice) -> f64| median(&mut slices.iter().map(f).collect::<Vec<_>>());
    let lat = window.sorted_latencies_us();
    let list = |f: fn(&Slice) -> f64| {
        format!(
            "[{}]",
            slices
                .iter()
                .map(|s| format!("{:.4}", f(s)))
                .collect::<Vec<_>>()
                .join(", ")
        )
    };
    report.note("slice_qps", list(|s| s.qps));
    report.note("slice_p99_ms", list(|s| s.p99_us / 1e3));
    report.push("qps", "1/s", slice_median(|s| s.qps));
    report.push("p50_ms", "ms", quantile(&lat, 0.50) / 1e3);
    // A slice without replies has no tail to report.
    let mut p99s: Vec<f64> = slices
        .iter()
        .map(|s| s.p99_us)
        .filter(|v| !v.is_nan())
        .collect();
    report.push("p99_ms", "ms", median(&mut p99s) / 1e3);
    report.push("success_rate", "ratio", window.ok() as f64 / n);
    report.push(
        "cpu_ms_per_query",
        "ms",
        slice_median(|s| s.cpu_ms_per_query),
    );
    report.push("modeled_ms", "ms", modeled.total_ms);
    report.push("rss_peak_mb", "MiB", peak_rss_mb());
    report.push("setup_s", "s", median(setup_times));
}

/// The traced run: closed-loop windows from stream position `start`,
/// half of them with a span around every `Client::query`, then a serial
/// pass that calls each layer's public functions in turn.
fn traced(
    opts: &Options,
    svc: &Service,
    set: &QuerySet,
    expected: &[Rows],
    start: usize,
    modeled: &probe::Modeled,
    report: &mut Report,
) -> Result<(), String> {
    let w = opts.workload;
    let epoch = Instant::now();
    let mut reads = Tracer::new(epoch);
    let read = |t: &mut Tracer| {
        t.span("server.metrics", 0, None, || {
            Counters::read(&svc.up, &svc.wire, &svc.tenants)
        })
        .0
    };
    // Untraced and traced windows alternate as ABBA ABBA, so drift over
    // the run cancels out of the tracing overhead. Counters cover them all.
    let before = read(&mut reads);
    let mut windows = Tracer::new(epoch);
    let (mut ok, mut secs, mut pos) = ([0u64; 2], [0f64; 2], start);
    for traced in [false, true, true, false, false, true, true, false] {
        let span_epoch = traced.then_some(epoch);
        let win = closed_loop(svc, set, expected, pos, opts.seconds / 8.0, span_epoch)?;
        report.tally(&win);
        ok[traced as usize] += win.ok();
        secs[traced as usize] += win.elapsed_s;
        pos = win.end_pos;
        if let Some(spans) = win.spans {
            windows.absorb(spans);
        }
    }
    let c = read(&mut reads).since(&before);
    let (untraced_qps, traced_qps) = (ok[0] as f64 / secs[0], ok[1] as f64 / secs[1]);
    report.note("latency_samples", c.completed);

    let lp = layer_pass(w, svc, set, expected, pos, epoch)?;
    let (mut tr, passes) = (lp.tracer, w.layer_pass_len());
    // Each pass sends three queries: over the wire, to the server, and
    // to the database.
    report.attempted += 3 * passes as u64;
    report.failed += lp.wrong;
    report.correct &= lp.wrong == 0;

    let med = |mut v: Vec<f64>| median(&mut v);
    let n = c.completed.max(1) as f64;
    let lookups = (c.jit_hits + c.jit_misses).max(1) as f64;
    report.push(
        "net.overhead_us",
        "us",
        med(tr.gaps("net.query", "server.query")),
    );
    report.push(
        "net.frame_encode_us",
        "us",
        med(tr.durations("net.frame_encode")),
    );
    report.push(
        "net.frame_decode_us",
        "us",
        med(tr.durations("net.frame_decode")),
    );
    report.push(
        "net.reply_bytes",
        "bytes",
        lp.reply_bytes as f64 / passes as f64,
    );
    report.push("net.errors", "count", c.wire_errors as f64);
    report.push(
        "server.overhead_us",
        "us",
        med(tr.gaps("server.query", "engine.query")),
    );
    report.push("server.queue_wait_us_p50", "us", c.queue_wait_p50_s * 1e6);
    report.push("server.queue_wait_us_p95", "us", c.queue_wait_p95_s * 1e6);
    report.push("server.failed", "count", c.failed as f64);
    report.push("server.rejected", "count", c.rejected as f64);
    report.push("server.timed_out", "count", c.timed_out as f64);
    report.push("sql.parse_us", "us", med(tr.durations("sql.parse")));
    report.push("plan.plan_us", "us", med(tr.durations("plan.plan")));
    report.push("exec.execute_us", "us", med(tr.durations("exec.execute")));
    report.push("exec.rows_out", "rows", lp.rows_out as f64 / passes as f64);
    report.push(
        "jit.compile_us",
        "us",
        med(tr.durations("jit.compile_fresh")),
    );
    report.push("jit.hit_rate", "ratio", c.jit_hits as f64 / lookups);
    report.push("jit.misses_per_query", "1/query", c.jit_misses as f64 / n);
    report.push(
        "jit.evictions_per_query",
        "1/query",
        c.jit_evictions as f64 / n,
    );
    report.push("sim.launch_us", "us", med(tr.durations("sim.launch")));
    report.push("sim.launches_per_query", "1/query", c.launches as f64 / n);
    report.push(
        "sim.compiled_share",
        "ratio",
        c.compiled_launches as f64 / c.launches.max(1) as f64,
    );
    report.push("sim.promotions", "count", c.promotions as f64);
    report.push(
        "sim.fallback_insts_per_launch",
        "1/launch",
        c.fallback_insts as f64 / c.launches.max(1) as f64,
    );
    report.push("modeled.compile_ms", "ms", modeled.compile_ms);
    report.push("modeled.kernel_ms", "ms", modeled.kernel_ms);
    report.push("modeled.pcie_ms", "ms", modeled.pcie_ms);
    report.push("modeled.cpu_ms", "ms", modeled.cpu_ms);
    report.push("modeled.scan_ms", "ms", modeled.scan_ms);
    report.push(
        "trace.overhead_pct",
        "%",
        (untraced_qps - traced_qps) / untraced_qps * 100.0,
    );

    // Self time per layer over the layer pass, and its share of the
    // wire round trip.
    let (layers, total_us) = tr.layer_self_us("net.query");
    let mut shares = BTreeMap::new();
    for layer in LAYERS {
        let us = layers.get(layer).copied().unwrap_or(0.0);
        report.push(&format!("{layer}.self_us"), "us", us / passes as f64);
        report.push(&format!("{layer}.share"), "ratio", us / total_us);
        shares.insert(layer, us / total_us);
    }
    let dominant = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(l, _)| *l)
        .unwrap_or("none");
    report.note("dominant_layer", dominant);

    tr.absorb(windows);
    tr.absorb(reads);
    let path = std::path::Path::new("target/wirebench").join(format!(
        "spans-{}-{}.jsonl",
        w.name(),
        opts.seed
    ));
    tr.write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    report.note("spans", path.display());
    Ok(())
}

/// What the serial layer pass recorded.
struct LayerPass {
    tracer: Tracer,
    reply_bytes: usize,
    rows_out: usize,
    wrong: u64,
}

/// Calls each layer's public functions in turn for `layer_pass_len`
/// requests taken from stream position `from`, with a span around each
/// call. Warm workloads send one query down every layer; `adhoc_cold`
/// sends each round trip its own never-seen query of the same shape, so
/// every layer pays the miss path.
fn layer_pass(
    w: Workload,
    svc: &Service,
    set: &QuerySet,
    expected: &[Rows],
    from: usize,
    epoch: Instant,
) -> Result<LayerPass, String> {
    let mirror = Mirror::new(&svc.up, workload::tables(w));
    if w.warm() {
        for q in &set.queries {
            for _ in 0..probe::promotion_launches() {
                let select = mirror.parse(&q.sql)?;
                mirror.execute(&mirror.plan(&select)?)?;
            }
        }
    }
    let mut tr = Tracer::new(epoch);
    let mut client = svc.client()?;
    let session = svc.up.connect(up_engine::Profile::UltraPrecise);
    let mut reply_bytes = 0usize;
    let mut rows_out = 0usize;
    let mut wrong = 0u64;
    let passes = w.layer_pass_len();
    let start = from.next_multiple_of(3);
    for r in 0..passes {
        // Requests are named by stream position, like the window's.
        let (pos, ids): (usize, [usize; 3]) = if w.warm() {
            (start + r, [set.at(start + r) as usize; 3])
        } else {
            let pos = start + 3 * r;
            (pos, [0, 1, 2].map(|k| set.at(pos + k) as usize))
        };
        let sqls = ids.map(|i| set.queries[i].sql.as_str());
        let req = pos as u64;
        // The three round trips run in a rotating order, so the cost of
        // going first (cold caches, thread wake-ups) lands on no single
        // layer.
        let mut top = [0u32; 3];
        let mut reply = None;
        for k in 0..3 {
            let stage = (k + r) % 3;
            let sql = sqls[stage];
            let (rows, id) = match stage {
                0 => {
                    let (got, id) = tr.span("net.query", req, None, || client.query(sql));
                    let got = got.map_err(|e| format!("{sql}: {e}"))?;
                    (reply.insert(got).rows.clone(), id)
                }
                1 => {
                    let (got, id) = tr.span("server.query", req, None, || {
                        probe::server_query(&svc.up, session, sql)
                    });
                    (got?, id)
                }
                _ => {
                    let (got, id) =
                        tr.span("engine.query", req, None, || probe::db_query(&svc.up, sql));
                    (got?, id)
                }
            };
            wrong += u64::from(rows != expected[ids[stage]]);
            top[stage] = id;
        }
        let [net, srv, db] = top;
        tr.set_parent(srv, net);
        tr.set_parent(db, srv);
        let q_db = sqls[2];
        let want = &expected[ids[2]];

        let got = reply.expect("the wire round trip ran");
        let frame = Frame::Rows {
            id: req + 1,
            columns: got.columns,
            rows: got.rows,
        };
        let mut bytes = Vec::new();
        tr.span("net.frame_encode", req, Some(net), || {
            write_frame(&mut bytes, &frame)
        })
        .0
        .map_err(|e| e.to_string())?;
        reply_bytes += bytes.len();
        let (back, _) = tr.span("net.frame_decode", req, Some(net), || {
            read_frame(&mut bytes.as_slice(), u32::MAX)
        });
        wrong += u64::from(!matches!(back, Ok(Some(ref f)) if *f == frame));

        let (select, _) = tr.span("sql.parse", req, Some(db), || mirror.parse(q_db));
        let (plan, _) = tr.span("plan.plan", req, Some(db), || mirror.plan(&select?));
        let plan = plan?;
        let (kernels, _) = tr.span("engine.plan_kernels", req, None, || {
            mirror.kernels(&svc.up, q_db)
        });
        let kernels = kernels?;
        tr.span("jit.compile", req, Some(db), || mirror.compile(&kernels));
        let (rows, exec) = tr.span("exec.execute", req, Some(db), || mirror.execute(&plan));
        let rows = rows?;
        rows_out += rows.len();
        wrong += u64::from(&rows != want);
        let q = &set.queries[ids[2]];
        let mut launches = mirror.launches(&kernels, q.table, q.rows)?;
        tr.span("sim.launch", req, Some(exec), || {
            mirror.replay(&mut launches)
        })
        .0?;
        tr.span("jit.compile_fresh", req, None, || {
            Mirror::compile_fresh(&kernels)
        });
    }
    client.goodbye().map_err(|e| e.to_string())?;
    svc.up.disconnect(session);
    Ok(LayerPass {
        tracer: tr,
        reply_bytes,
        rows_out,
        wrong,
    })
}

/// Layers of the span tree, named after their modules.
pub const LAYERS: [&str; 8] = [
    "net", "server", "engine", "sql", "plan", "jit", "exec", "sim",
];

/// Formats a number for JSON: every digit as measured; non-finite
/// values become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// The run facts as one JSON object, printed before the result line.
pub fn notes_json(r: &Report) -> String {
    let fields: Vec<String> = r
        .notes
        .iter()
        .map(|(k, v)| {
            let raw = v.starts_with(['{', '[']) || v.parse::<f64>().is_ok();
            if raw {
                format!("\"{k}\": {v}")
            } else {
                format!(
                    "\"{k}\": \"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            }
        })
        .collect();
    format!("{{\"run\": {{{}}}}}", fields.join(", "))
}
