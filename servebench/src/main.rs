//! `servebench` — the serving benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
//!     --workload <ba-serve|rmat-hub|cluster-durable> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates the workload's stream from `--seed`, then for
//! `--seconds` repeats rounds of: cold start cycles of the serving tier
//! on empty state (`setup_s`), one pass of the whole stream through a
//! freshly started tier over TCP with the stock client (one closed-loop
//! producer, one open-loop querier), and one timed restart of that tier
//! (`recovery_s`). Every pass is checked bit for bit against `Rept::run`
//! on the same stream, and every restart against the answer before it.
//! With `--trace 1` the run also records spans, scrapes `METRICS *`, and
//! replays each layer in isolation on the same inputs (see [`layers`]).
//! The last line of standard output is the JSON result; the
//! human-readable report goes to standard error.

mod layers;
mod load;
mod stats;
mod trace;
mod workload;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rept_core::Rept;
use rept_graph::edge::Edge;
use rept_serve::protocol::reply_field;
use rept_serve::{Client, ClientConfig};

use load::{Op, Ops, PassLog};
use stats::{median, percentile};
use trace::Tracer;
use workload::{Tier, Workload};

/// Start cycles timed per round for `setup_s` (the median over all
/// rounds is reported). A start is sub-millisecond, so many fit in a
/// round at little cost.
const SETUP_CYCLES: usize = 40;
/// Fewest timed restarts per run (their interquartile mean is
/// `recovery_s`): one per pass, topped up from the last pass's image.
const RESTARTS: usize = 9;
/// Where runs keep their scratch state and trace output, relative to
/// the directory the benchmark is run from.
const WORK_DIR: &str = ".servebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: serve the workload's tier from this directory until
    /// stdin closes (how a timed restart runs in its own process).
    serve_from: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut serve_from = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            "--serve-from" => serve_from = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (ba-serve, rmat-hub, cluster-durable)")?,
        seed,
        seconds: seconds.max(1),
        trace,
        serve_from,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.serve_from {
        if let Err(e) = serve_from(args.workload, args.seed, dir) {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let work = PathBuf::from(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One served pass: the load log plus what was read back after it.
struct Pass {
    log: PassLog,
    traced: bool,
    /// Final `QUERY GLOBAL` (position, tau bits).
    before: (u64, u64),
    /// `seq=` of the final `STATS` — publications in this pass.
    publications: u64,
    metrics: String,
}

/// One timed restart from a pass's restart image.
struct Restart {
    secs: f64,
    /// The answer the image was taken at (position, tau bits).
    before: (u64, u64),
    /// `QUERY GLOBAL` once the restarted tier answers at the acked
    /// position (position, tau bits).
    after: (u64, u64),
    /// The image held what recovery needs: a checkpoint everywhere and,
    /// for the cluster, a journal tail that was replayed.
    image_ok: bool,
}

fn run(args: &Args, work: &Path) -> Result<String, String> {
    let w = args.workload;
    let seed = args.seed;
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let stream = w.stream(seed);
    eprintln!(
        "servebench: workload={} seed={seed} edges={} m={} c={} engine={} host_cores={host_cores}",
        w.name(),
        stream.len(),
        w.rept(seed).m,
        w.rept(seed).c,
        w.engine().name()
    );

    let tracer = args.trace.then(Tracer::new);
    // A traced run alternates traced and untraced passes so the two can
    // be compared (tracing overhead), so it needs at least two.
    let min_passes = if args.trace { 2 } else { 1 };
    let mut setup = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut restarts: Vec<Restart> = Vec::new();
    let mut resident_mb = None;
    let mut image = None;
    let measure = Instant::now();
    // Rounds of start cycles, one pass and one restart, so every metric
    // samples the whole measured span rather than one moment of it.
    while passes.len() < min_passes || measure.elapsed() < Duration::from_secs(args.seconds) {
        setup.extend(setup_cycles(w, seed, work)?);
        let traced = tracer.as_ref().filter(|_| passes.len().is_multiple_of(2));
        let dir = work.join(format!("pass{}", passes.len()));
        let (pass, img) = serve_pass(w, seed, &stream, &dir, traced)?;
        // The peak of the first pass; later passes only add allocator
        // fragmentation, which would make the figure depend on how many
        // passes fit into the run.
        if resident_mb.is_none() {
            resident_mb = Some(read_resident_mb()?);
        }
        restarts.push(restart(w, seed, &img, work, pass.before)?);
        if let Some(old) = image.replace(img) {
            let _ = std::fs::remove_dir_all(old);
        }
        passes.push(pass);
    }
    let image = image.expect("at least one pass");
    while restarts.len() < RESTARTS {
        let last = passes.last().expect("at least one pass").before;
        restarts.push(restart(w, seed, &image, work, last)?);
    }
    let resident_mb = resident_mb.expect("at least one pass");

    let oracle = Rept::new(w.rept(seed)).run(w.engine(), &stream).global;
    let mut ops = Ops::default();
    let mut mismatches = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        ops.add(&p.log.ops);
        if p.before != (stream.len() as u64, oracle.to_bits()) {
            mismatches.push(format!(
                "pass {i}: served QUERY GLOBAL (position {}, tau {}) != Rept::run ({}, {oracle})",
                p.before.0,
                f64::from_bits(p.before.1),
                stream.len()
            ));
        }
    }
    // A restart that answers differently, or from an image missing what
    // recovery needs, is a failed restart operation.
    let mut failures = Vec::new();
    for (i, r) in restarts.iter().enumerate() {
        ops.note(Op::Restart, r.after == r.before && r.image_ok);
        if r.after != r.before {
            failures.push(format!(
                "restart {i}: answer after restart (position {}, tau {}) != before ({}, {})",
                r.after.0,
                f64::from_bits(r.after.1),
                r.before.0,
                f64::from_bits(r.before.1)
            ));
        }
        if !r.image_ok {
            failures.push(format!(
                "restart {i}: restart image lacks a checkpoint or journal tail"
            ));
        }
    }

    let (metrics, layer_failures) = if let Some(tracer) = &tracer {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
        let mut m = serve_layer_metrics(&traced, &untraced);
        m.push(recovery_s(&restarts));
        m.push(query_p50_ms(&passes));
        let replay = layers::replay(w, seed, &stream, oracle, work, tracer)?;
        m.extend(replay.metrics);
        let path = PathBuf::from(WORK_DIR).join(format!("trace-{}-{seed}.jsonl", w.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "servebench: {} spans written to {}",
            tracer.len(),
            path.display()
        );
        (m, replay.failures)
    } else {
        (end_to_end(&passes, &setup, resident_mb), Vec::new())
    };
    mismatches.extend(layer_failures);

    report(&passes, &restarts, &ops, &setup, resident_mb, host_cores);
    for m in mismatches.iter().chain(&failures) {
        eprintln!("servebench: CORRECTNESS FAILURE: {m}");
    }
    let correct = mismatches.is_empty() && ops.failed() == 0;
    let attempted = ops.attempted() + mismatches.len() as u64;
    let failed = ops.failed() + mismatches.len() as u64;
    Ok(result_line(correct, attempted, failed, &metrics))
}

/// Times `SETUP_CYCLES` cold starts of the workload's tier on empty
/// state: from the start call to the first successful reply.
fn setup_cycles(w: Workload, seed: u64, work: &Path) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(SETUP_CYCLES);
    for i in 0..SETUP_CYCLES {
        let dir = work.join(format!("setup{i}"));
        let t0 = Instant::now();
        let started = Tier::start(w, seed, &dir).map_err(err("setup start"))?;
        let mut client = Client::connect(started.tier.addr()).map_err(err("setup connect"))?;
        client.health().map_err(err("setup HEALTH"))?;
        times.push(t0.elapsed().as_secs_f64());
        drop(client);
        started.tier.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(times)
}

/// Turns an error into the run's error message, prefixed with what failed.
pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One pass: fresh tier, load, read-back, then stop for a restart.
/// Returns the pass and its restart image.
fn serve_pass(
    w: Workload,
    seed: u64,
    stream: &[Edge],
    dir: &Path,
    tracer: Option<&Tracer>,
) -> Result<(Pass, PathBuf), String> {
    let pass_start = Instant::now();
    let pass_id = tracer.map_or(0, Tracer::reserve);
    let started = Tier::start(w, seed, dir).map_err(err("start tier"))?;
    let addr = started.tier.addr();
    let mut log = load::drive(addr, stream, w.nodes(), seed, tracer.map(|t| (t, pass_id)))
        .map_err(err("load"))?;
    let mut client = Client::connect(addr).map_err(err("connect"))?;
    let before = client.query_global().map_err(err("final QUERY GLOBAL"))?;
    let stats = client.stats().map_err(err("STATS"))?;
    let publications = reply_field(&stats, "seq")
        .and_then(|s| s.parse().ok())
        .ok_or(format!("STATS without seq: {stats}"))?;
    let metrics = client.metrics_all().map_err(err("METRICS *"))?;
    drop(client);
    let image = started.tier.stop_for_restart(dir).map_err(err("stop"))?;
    if let Some(t) = tracer {
        t.record_as(pass_id, "pass", pass_start, Instant::now());
    }
    log.ops.get_mut(Op::Ingest).busy_retried =
        scrape_sum(&metrics, "rept_busy_rejections_total") as u64;
    let pass = Pass {
        log,
        traced: tracer.is_some(),
        before: (before.position, before.tau.to_bits()),
        publications,
        metrics,
    };
    Ok((pass, image))
}

/// Restarts the tier from a fresh copy of `image` in a child process —
/// a restart is a new process, so each one starts with a cold
/// allocator, as in production — and times it from the spawn to a
/// `QUERY GLOBAL` answered at the acked position.
fn restart(
    w: Workload,
    seed: u64,
    image: &Path,
    work: &Path,
    before: (u64, u64),
) -> Result<Restart, String> {
    let dir = work.join("restart");
    let _ = std::fs::remove_dir_all(&dir);
    workload::copy_tree(image, &dir).map_err(err("copy restart image"))?;
    let has_checkpoints = workload::image_has_checkpoints(w, &dir);
    let exe = std::env::current_exe().map_err(err("locate the benchmark binary"))?;
    let t0 = Instant::now();
    let child = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .arg("--serve-from")
        .arg(&dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(err("spawn restart"))?;
    let mut child = Reaped(child);
    let mut line = String::new();
    BufReader::new(child.0.stdout.as_mut().expect("piped stdout"))
        .read_line(&mut line)
        .map_err(err("read restart address"))?;
    let (addr, replayed) =
        parse_serving_line(&line).ok_or(format!("restarted tier did not come up: {line:?}"))?;
    let mut client = Client::connect(addr).map_err(err("reconnect"))?;
    let mut after = client
        .query_global()
        .map_err(err("QUERY GLOBAL after restart"))?;
    while after.position < before.0 && t0.elapsed() < Duration::from_secs(30) {
        after = client
            .query_global()
            .map_err(err("QUERY GLOBAL after restart"))?;
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(client);
    // Closing its stdin tells the child to shut the tier down and exit.
    drop(child.0.stdin.take());
    let status = child.0.wait().map_err(err("wait for restart"))?;
    let _ = std::fs::remove_dir_all(&dir);
    if !status.success() {
        return Err(format!("restarted tier exited with {status}"));
    }
    // The cluster's image must hold a checkpoint and a journal tail per
    // shard; a standalone server restarts from its checkpoint alone.
    let image_ok = has_checkpoints && (!w.clustered() || replayed > 0);
    Ok(Restart {
        secs,
        before,
        after: (after.position, after.tau.to_bits()),
        image_ok,
    })
}

/// A child process that is killed and waited for if dropped early.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// The `--serve-from` mode: starts the tier on `dir`, announces
/// `SERVING <addr> replayed=<n>` on stdout, and serves until stdin
/// closes.
fn serve_from(w: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let started = Tier::start(w, seed, dir).map_err(err("start tier"))?;
    println!(
        "SERVING {} replayed={}",
        started.tier.addr(),
        started.replayed
    );
    std::io::stdout().flush().map_err(err("announce"))?;
    let mut rest = String::new();
    let _ = std::io::stdin().read_to_string(&mut rest);
    started.tier.shutdown();
    Ok(())
}

fn parse_serving_line(line: &str) -> Option<(SocketAddr, u64)> {
    let mut parts = line.strip_prefix("SERVING ")?.split_whitespace();
    let addr = parts.next()?.parse().ok()?;
    let replayed = parts.next()?.strip_prefix("replayed=")?.parse().ok()?;
    Some((addr, replayed))
}

/// Sum over shards (or the one server) of a `tenant="default"` sample.
fn scrape_sum(text: &str, name: &str) -> f64 {
    stats::samples(text, name, &["tenant=\"default\""])
        .iter()
        .sum()
}

fn read_resident_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(err("read /proc/self/status"))?;
    let kb = stats::vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

fn pooled(passes: &[Pass], f: impl Fn(&PassLog) -> &[f64]) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| f(&p.log).iter().copied())
        .collect()
}

fn visibility_ms(passes: &[&Pass]) -> (Vec<f64>, usize) {
    let mut all = Vec::new();
    let mut uncovered = 0;
    for p in passes {
        let (d, u) = stats::visibility(&p.log.acks, &p.log.replies);
        all.extend(d.into_iter().map(|s| s * 1e3));
        uncovered += u;
    }
    (all, uncovered)
}

fn eps(p: &Pass) -> f64 {
    p.log.edges as f64 / p.log.ingest_s
}

/// The gated end-to-end metrics: the ingest rate over all passes,
/// pooled medians for per-request latencies, the median start cycle and
/// the first pass's peak memory.
fn end_to_end(passes: &[Pass], setup: &[f64], resident_mb: f64) -> Vec<Metric> {
    let all: Vec<&Pass> = passes.iter().collect();
    let p50 = |v: &[f64]| percentile(v, 0.5).map_or(f64::NAN, |p| p.value);
    let edges: u64 = passes.iter().map(|p| p.log.edges).sum();
    let ingest_s: f64 = passes.iter().map(|p| p.log.ingest_s).sum();
    vec![
        metric("ingest_eps", edges as f64 / ingest_s, "edges/s"),
        metric(
            "ingest_accept_p50_ms",
            p50(&pooled(passes, |l| &l.line_ms)),
            "ms",
        ),
        metric("visibility_p50_ms", p50(&visibility_ms(&all).0), "ms"),
        metric("setup_s", median(setup).unwrap_or(f64::NAN), "s"),
        metric("resident_mb", resident_mb, "MB"),
    ]
}

/// `query_p50_ms`: the median open-loop query latency over all passes,
/// timed from when each query was due. A query round trip is about
/// 0.1 ms of thread wake-ups, which move with the host by more than any
/// gate could allow, so it is reported with the per-layer metrics rather
/// than gated.
fn query_p50_ms(passes: &[Pass]) -> Metric {
    let p50 = percentile(&pooled(passes, |l| &l.query_ms), 0.5);
    metric("query_p50_ms", p50.map_or(f64::NAN, |p| p.value), "ms")
}

/// `recovery_s`: the interquartile mean of the timed restarts. Restart
/// times fall into two clusters about 1.5x apart from one restart to the
/// next, which makes their median jump between the clusters. Whole runs
/// also shift with the host by more than any gate could allow, so it is
/// reported with the per-layer metrics rather than gated.
fn recovery_s(restarts: &[Restart]) -> Metric {
    let secs: Vec<f64> = restarts.iter().map(|r| r.secs).collect();
    let value = stats::interquartile_mean(&secs).unwrap_or(f64::NAN);
    metric("recovery_s", value, "s")
}

/// Per-layer metrics read from the traced passes themselves: the
/// `METRICS` scrape, `STATS`, and the split of the producer's wall time.
fn serve_layer_metrics(traced: &[&Pass], untraced: &[&Pass]) -> Vec<Metric> {
    let mut lines = 0.0;
    let mut busy = 0.0;
    let mut busy_share = Vec::new();
    let mut queue_p50 = Vec::new();
    let mut publications = Vec::new();
    let (mut wall, mut first_try, mut retry, mut thread_busy) = (0.0, 0.0, 0.0, 0.0);
    for p in traced {
        let text = &p.metrics;
        let accepted = scrape_sum(text, "rept_ingest_batches_total");
        let rejected = scrape_sum(text, "rept_busy_rejections_total");
        lines += accepted + rejected;
        busy += rejected;
        // Ingest-thread busy time per shard over the pass's ingest wall.
        let shards = stats::samples(text, "rept_apply_micros_sum", &["tenant=\"default\""]);
        let publish = stats::samples(text, "rept_publish_micros_sum", &["tenant=\"default\""]);
        let per_shard: Vec<f64> = shards
            .iter()
            .zip(&publish)
            .map(|(a, b)| (a + b) / 1e6)
            .collect();
        thread_busy += per_shard.iter().sum::<f64>() / per_shard.len().max(1) as f64;
        busy_share.extend(per_shard.iter().map(|s| s / p.log.ingest_s));
        queue_p50.extend(
            stats::samples(
                text,
                "rept_queue_wait_micros",
                &["tenant=\"default\"", "quantile=\"0.5\""],
            )
            .iter()
            .map(|us| us / 1e3),
        );
        publications.push(p.publications as f64);
        let split = wall_split(&p.log);
        wall += p.log.ingest_s;
        first_try += split.0;
        retry += split.1;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let traced_eps: Vec<f64> = traced.iter().map(|p| eps(p)).collect();
    let untraced_eps: Vec<f64> = untraced.iter().map(|p| eps(p)).collect();
    let overhead = match (median(&untraced_eps), median(&traced_eps)) {
        (Some(u), Some(t)) => (u - t) / u,
        _ => f64::NAN,
    };
    eprintln!(
        "servebench: producer wall {wall:.3} s = first-try acks {first_try:.3} s + BUSY retries \
         and backoff {retry:.3} s + residual {:.3} s; ingest thread busy {thread_busy:.3} s, \
         idle {:.3} s (per shard); tracing overhead on ingest_eps {:+.1}% ({} traced vs {} \
         untraced passes)",
        wall - first_try - retry,
        wall - thread_busy,
        overhead * 100.0,
        traced.len(),
        untraced.len()
    );
    vec![
        metric("core.busy_share", busy / lines.max(1.0), "share"),
        metric("core.ingest_thread_busy_share", mean(&busy_share), "share"),
        metric(
            "core.queue_wait_p50_ms",
            median(&queue_p50).unwrap_or(f64::NAN),
            "ms",
        ),
        metric(
            "snapshot.publications",
            median(&publications).unwrap_or(f64::NAN),
            "count",
        ),
        metric("producer.first_try_share", first_try / wall, "share"),
        metric("producer.busy_retry_share", retry / wall, "share"),
        metric(
            "producer.residual_share",
            (wall - first_try - retry) / wall,
            "share",
        ),
        metric("trace.overhead_share", overhead, "share"),
    ]
}

/// Splits a pass's producer wall time into first-try acks and BUSY
/// retries with backoff. The client hides its retries, but every retry
/// sleeps at least half the client's backoff base while a first-try ack
/// is a loopback round trip, so a line slower than that threshold was
/// retried; its excess over the median first-try line is retry time.
/// Without any BUSY reply in the pass every line is a first try.
fn wall_split(log: &PassLog) -> (f64, f64) {
    let retry_floor_ms = ClientConfig::default().backoff_base.as_secs_f64() * 1e3 / 2.0;
    let busy = log.ops.get(Op::Ingest).busy_retried > 0;
    let (retried, first): (Vec<f64>, Vec<f64>) = log
        .line_ms
        .iter()
        .partition(|&&ms| busy && ms >= retry_floor_ms);
    let typical = median(&first).unwrap_or(0.0);
    let first_try = (first.iter().sum::<f64>() + typical * retried.len() as f64) / 1e3;
    let retry = retried.iter().map(|ms| ms - typical).sum::<f64>() / 1e3;
    (first_try, retry)
}

/// The human-readable report: operation accounting, tails with their
/// sample counts, and pass-to-pass spread.
fn report(
    passes: &[Pass],
    restarts: &[Restart],
    ops: &Ops,
    setup: &[f64],
    resident_mb: f64,
    host_cores: usize,
) {
    eprintln!(
        "servebench: {} passes, host_cores={host_cores}, resident {resident_mb:.1} MB",
        passes.len()
    );
    eprintln!("  op            attempted  succeeded  busy_retried  failed");
    for op in Op::ALL {
        let c = ops.get(op);
        eprintln!(
            "  {:<12} {:>10} {:>10} {:>13} {:>7}",
            op.name(),
            c.attempted,
            c.succeeded,
            c.busy_retried,
            c.failed
        );
    }
    eprintln!(
        "  failed_ops_share={:.6}",
        ops.failed() as f64 / ops.attempted().max(1) as f64
    );
    let all: Vec<&Pass> = passes.iter().collect();
    let (visibility, uncovered) = visibility_ms(&all);
    let tails: [(&str, Vec<f64>); 4] = [
        ("ingest_accept_ms", pooled(passes, |l| &l.line_ms)),
        ("query_ms", pooled(passes, |l| &l.query_ms)),
        ("query_lateness_ms", pooled(passes, |l| &l.late_ms)),
        ("visibility_ms", visibility),
    ];
    for (name, v) in &tails {
        if let (Some(p50), Some(p99)) = (percentile(v, 0.5), percentile(v, 0.99)) {
            eprintln!(
                "  {name}: p50={:.3} p99={:.3} (n={}, {} beyond p99) max={:.3}",
                p50.value,
                p99.value,
                p99.samples,
                p99.beyond,
                v.iter().copied().fold(0.0, f64::max)
            );
        }
    }
    let eps: Vec<f64> = passes.iter().map(eps).collect();
    eprintln!(
        "  ingest_eps per pass: {:?}; lines never seen by a query: {uncovered}",
        eps.iter().map(|e| e.round()).collect::<Vec<_>>()
    );
    let recovery: Vec<f64> = restarts.iter().map(|r| r.secs).collect();
    eprintln!(
        "  setup_s: median {:.6} s over {} cycles (quartiles {:?}); recovery_s {:.3} s, per restart: {:?}",
        median(setup).unwrap_or(f64::NAN),
        setup.len(),
        stats::quartiles(setup),
        recovery_s(restarts).value,
        recovery
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
}

/// The JSON result line.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
