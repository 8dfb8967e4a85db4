//! The traced run's layer replays: each layer's public entry points
//! called in isolation on the workload's own stream, cut into the same
//! 256-edge batches the producer sends. Nothing here instruments the
//! program; every time is taken around a call from outside.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rept_core::engine::EngineCore;
use rept_core::resume::ResumableRun;
use rept_core::{GroupSlice, Rept, ReptConfig};
use rept_graph::edge::Edge;
use rept_serve::journal::{Journal, SyncPolicy};
use rept_serve::protocol::{self, Command, Scope};
use rept_serve::snapshot::Snapshot;
use rept_serve::{Client, ServeConfig, ServeCore};
use rept_shard::{CoordinatorConfig, ShardCoordinator, ShardLink};

use crate::load::LINE_EDGES;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{Tier, Workload, CHECKPOINT_EVERY, SHARDS};
use crate::{err, metric, Metric};

/// Repetitions of the cheap, deterministic replays (median reported).
const REPS: usize = 3;
/// `HEALTH` round trips timed on an idle tier, after a tenth as many
/// untimed ones.
const RTT_SAMPLES: usize = 2000;
/// Fsynced journal records timed.
const APPEND_RECORDS: usize = 200;

/// What the replays measured, and every output that disagreed with
/// `Rept::run`.
#[derive(Default)]
pub struct Replay {
    pub metrics: Vec<Metric>,
    pub failures: Vec<String>,
}

/// The inputs every replay shares.
struct Inputs<'a> {
    w: Workload,
    seed: u64,
    cfg: ReptConfig,
    stream: &'a [Edge],
    batches: Vec<&'a [Edge]>,
    /// `Rept::run`'s global estimate, which every replay that ends in an
    /// estimate must reproduce exactly.
    oracle: f64,
    work: &'a Path,
    /// Batches between publication points: the served configuration's
    /// `snapshot_every` over the line size.
    publish_every: usize,
    /// Journal segment size of the served configuration.
    segment_bytes: u64,
}

impl Inputs<'_> {
    fn edges(&self) -> f64 {
        self.stream.len() as f64
    }

    fn check(&self, out: &mut Replay, what: &str, got: f64) {
        if got.to_bits() != self.oracle.to_bits() {
            out.failures
                .push(format!("{what}: {got} != Rept::run {}", self.oracle));
        }
    }
}

type Layer = fn(&Inputs, &mut Replay) -> Result<(), String>;

/// Each replay with the name of its span.
const LAYERS: [(&str, Layer); 7] = [
    ("replay.protocol.parse", protocol_parse),
    ("replay.wire.health", wire_rtt),
    ("replay.hash.cell", hash_cell),
    ("replay.engine", engine_and_snapshot),
    ("replay.core", core_and_checkpoint),
    ("replay.journal", journal),
    ("replay.shard", shard),
];

/// Runs every layer replay, each under its own span.
pub fn replay(
    w: Workload,
    seed: u64,
    stream: &[Edge],
    oracle: f64,
    work: &Path,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let served = w.server_config(seed, work);
    let inputs = Inputs {
        w,
        seed,
        cfg: w.rept(seed),
        stream,
        batches: stream.chunks(LINE_EDGES).collect(),
        oracle,
        work,
        publish_every: (served.snapshot_every as usize / LINE_EDGES).max(1),
        segment_bytes: served.journal_segment_bytes,
    };
    let mut out = Replay::default();
    for (name, layer) in LAYERS {
        let t = Instant::now();
        layer(&inputs, &mut out)?;
        tracer.record(0, name, t, Instant::now());
    }
    Ok(out)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(f64::NAN)
}

/// `protocol::parse` over the exact `INGEST` lines the client sends.
fn protocol_parse(x: &Inputs, out: &mut Replay) -> Result<(), String> {
    let lines: Vec<String> = x
        .batches
        .iter()
        .map(|b| {
            let mut line = String::from("INGEST");
            for e in *b {
                line.push_str(&format!(" {} {}", e.u(), e.v()));
            }
            line
        })
        .collect();
    let mut per_edge = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let mut parsed = 0usize;
        for line in &lines {
            if let Ok(Command::Ingest(Scope::Current, got)) = protocol::parse(black_box(line)) {
                parsed += got.len();
            }
        }
        per_edge.push(t.elapsed().as_secs_f64() * 1e9 / x.edges());
        if parsed != x.stream.len() {
            return Err(format!(
                "protocol::parse returned {parsed} of {} edges",
                x.stream.len()
            ));
        }
    }
    out.metrics
        .push(metric("protocol.parse_ns_per_edge", med(&per_edge), "ns"));
    Ok(())
}

/// `HEALTH` round trips on an idle tier of the workload's shape.
fn wire_rtt(x: &Inputs, out: &mut Replay) -> Result<(), String> {
    let dir = x.work.join("rtt");
    let started = Tier::start(x.w, x.seed, &dir).map_err(err("rtt tier"))?;
    let mut client = Client::connect(started.tier.addr()).map_err(err("rtt connect"))?;
    let mut rtt = Vec::with_capacity(RTT_SAMPLES);
    for i in 0..RTT_SAMPLES + RTT_SAMPLES / 10 {
        let s = Instant::now();
        client.health().map_err(err("HEALTH"))?;
        if i >= RTT_SAMPLES / 10 {
            rtt.push(ms_since(s));
        }
    }
    drop(client);
    started.tier.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let p50 = percentile(&rtt, 0.5).map_or(f64::NAN, |p| p.value);
    out.metrics.push(metric("wire.rtt_p50_ms", p50, "ms"));
    Ok(())
}

/// `PartitionHasher::cell` of every edge under every group's hasher.
fn hash_cell(x: &Inputs, out: &mut Replay) -> Result<(), String> {
    // One hasher per group: the assignments list each processor, and a
    // group's `m` processors share their group's hasher.
    let hashers: Vec<_> = Rept::new(x.cfg)
        .processor_assignments()
        .into_iter()
        .step_by(x.cfg.m as usize)
        .map(|(h, _)| h)
        .collect();
    let mut cell_ns = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let mut acc = 0u64;
        for e in x.stream {
            for h in &hashers {
                acc = acc.wrapping_add(h.cell(u64::from(e.u()), u64::from(e.v())));
            }
        }
        black_box(acc);
        cell_ns.push(t.elapsed().as_secs_f64() * 1e9 / (x.edges() * hashers.len() as f64));
    }
    out.metrics
        .push(metric("hash.cell_ns", med(&cell_ns), "ns"));
    Ok(())
}

/// `EngineCore::ingest_batch` per line, with `EngineCore::estimate` and
/// `Snapshot::from_estimate` at every publication point.
fn engine_and_snapshot(x: &Inputs, out: &mut Replay) -> Result<(), String> {
    let mut core = EngineCore::with_engine(Rept::new(x.cfg), x.w.engine());
    let (mut ingest_s, mut batch_max_ms) = (0.0, 0.0f64);
    let (mut estimate_ms, mut build_ms) = (Vec::new(), Vec::new());
    let mut last = f64::NAN;
    for (i, b) in x.batches.iter().enumerate() {
        let s = Instant::now();
        core.ingest_batch(b);
        let took = s.elapsed().as_secs_f64();
        ingest_s += took;
        batch_max_ms = batch_max_ms.max(took * 1e3);
        if (i + 1) % x.publish_every == 0 || i + 1 == x.batches.len() {
            let s = Instant::now();
            let est = core.estimate();
            estimate_ms.push(ms_since(s));
            let s = Instant::now();
            let snap = Snapshot::from_estimate(
                &est,
                &x.cfg,
                x.w.engine(),
                core.position(),
                estimate_ms.len() as u64,
                0,
                100,
            );
            build_ms.push(ms_since(s));
            black_box(&snap);
            last = est.global;
        }
    }
    x.check(out, "EngineCore replay", last);
    out.metrics.extend([
        metric(
            "engine.ingest_ns_per_edge",
            ingest_s * 1e9 / x.edges(),
            "ns",
        ),
        metric("engine.batch_max_ms", batch_max_ms, "ms"),
        metric("engine.estimate_ms", med(&estimate_ms), "ms"),
        metric("engine.stored_mb", core.stored_bytes() as f64 / 1e6, "MB"),
        metric("snapshot.build_ms", med(&build_ms), "ms"),
    ]);
    Ok(())
}

/// `ServeCore::ingest` on the same batches with no wire, then the
/// checkpoint it writes decoded and re-encoded through `ResumableRun`.
fn core_and_checkpoint(x: &Inputs, out: &mut Replay) -> Result<(), String> {
    let dir = x.work.join("inproc");
    std::fs::create_dir_all(&dir).map_err(err("inproc dir"))?;
    let serve_cfg = x.w.server_config(x.seed, &dir);
    let ckpt = serve_cfg
        .checkpoint_path
        .clone()
        .expect("server config has a checkpoint path");
    let core = ServeCore::start(serve_cfg).map_err(err("inproc core"))?;
    let s = Instant::now();
    for b in &x.batches {
        core.ingest(b.to_vec()).map_err(err("ServeCore::ingest"))?;
    }
    core.flush();
    let eps = x.edges() / s.elapsed().as_secs_f64();
    core.checkpoint().map_err(err("checkpoint"))?;
    x.check(out, "ServeCore replay", core.snapshot().global);
    drop(core.shutdown());

    let bytes = std::fs::read(&ckpt).map_err(err("read checkpoint"))?;
    let _ = std::fs::remove_dir_all(&dir);
    let (mut decode_ms, mut encode_ms) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let s = Instant::now();
        let run = ResumableRun::from_checkpoint_bytes(&bytes).map_err(err("decode checkpoint"))?;
        decode_ms.push(ms_since(s));
        let s = Instant::now();
        let again = run.checkpoint_bytes();
        encode_ms.push(ms_since(s));
        if again != bytes {
            out.failures
                .push("checkpoint re-encode differs from the written blob".into());
        }
        x.check(out, "restored checkpoint", run.estimate().global);
    }
    out.metrics.extend([
        metric("core.inproc_eps", eps, "edges/s"),
        metric("checkpoint.encode_ms", med(&encode_ms), "ms"),
        metric("checkpoint.decode_ms", med(&decode_ms), "ms"),
        metric("checkpoint.mb", bytes.len() as f64 / 1e6, "MB"),
    ]);
    Ok(())
}

/// Fsynced `Journal::append`s of single lines, then `Journal::recover`
/// of the tail a crash image holds: everything above the last periodic
/// checkpoint.
fn journal(x: &Inputs, out: &mut Replay) -> Result<(), String> {
    let dir = x.work.join("journal");
    std::fs::create_dir_all(&dir).map_err(err("journal dir"))?;
    let path = dir.join("ckpt.rpck");
    let mut journal = Journal::recover(&path, x.segment_bytes, SyncPolicy::PerRecord, 0)
        .map_err(err("journal open"))?
        .journal;
    let mut append_us = Vec::new();
    let mut at = 0u64;
    for b in x.batches.iter().take(APPEND_RECORDS) {
        let s = Instant::now();
        journal.append(at, b).map_err(err("journal append"))?;
        append_us.push(s.elapsed().as_secs_f64() * 1e6);
        at += b.len() as u64;
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);

    std::fs::create_dir_all(&dir).map_err(err("journal dir"))?;
    let base = (x.stream.len() as u64 / CHECKPOINT_EVERY) * CHECKPOINT_EVERY;
    let tail = &x.stream[base as usize..];
    let mut journal = Journal::recover(&path, x.segment_bytes, SyncPolicy::PerRecord, base)
        .map_err(err("journal open"))?
        .journal;
    let mut at = base;
    for b in tail.chunks(LINE_EDGES) {
        journal
            .append_deferred(at, b)
            .map_err(err("journal append"))?;
        at += b.len() as u64;
    }
    journal.sync().map_err(err("journal sync"))?;
    drop(journal);
    let s = Instant::now();
    let recovered = Journal::recover(&path, x.segment_bytes, SyncPolicy::PerRecord, base)
        .map_err(err("journal recover"))?;
    let recover_s = s.elapsed().as_secs_f64();
    if recovered.replay != tail {
        out.failures
            .push("journal recovery did not return the appended tail".into());
    }
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    out.metrics.extend([
        metric("journal.append_us", med(&append_us), "us"),
        metric("journal.recover_s", recover_s, "s"),
    ]);
    Ok(())
}

/// `ShardCoordinator::ingest` per batch and `ShardCoordinator::aggregates`
/// at every publication point, over the workload's shard deployment:
/// the cluster's own journaled shards, otherwise as many plain shards as
/// there are hash groups, up to two.
fn shard(x: &Inputs, out: &mut Replay) -> Result<(), String> {
    let dir = x.work.join("shards");
    let configs: Vec<ServeConfig> = if x.w.clustered() {
        (0..SHARDS)
            .map(|i| x.w.shard_config(x.seed, &dir, i))
            .collect()
    } else {
        let n = (x.cfg.group_count() as u32).min(SHARDS);
        (0..n)
            .map(|i| {
                ServeConfig::new(x.cfg)
                    .with_engine(x.w.engine())
                    .with_group_slice(GroupSlice::new(i, n))
            })
            .collect()
    };
    let mut links = Vec::new();
    for cfg in configs {
        if let Some(parent) = cfg.checkpoint_path.as_ref().and_then(|p| p.parent()) {
            std::fs::create_dir_all(parent).map_err(err("shard dir"))?;
        }
        let core = ServeCore::start(cfg).map_err(err("shard start"))?;
        links.push(ShardLink::local(Arc::new(core)));
    }
    // The coordinator never publishes on its own here, so every exchange
    // is one the replay times.
    let coord_cfg = CoordinatorConfig::new(x.cfg)
        .with_engine(x.w.engine())
        .with_snapshot_every(u64::MAX);
    let mut coord = ShardCoordinator::start(coord_cfg, links)?;
    let (mut fanout_us, mut aggregate_ms) = (Vec::new(), Vec::new());
    let mut exchanged = Vec::new();
    for (i, b) in x.batches.iter().enumerate() {
        let s = Instant::now();
        coord.ingest(b.to_vec())?;
        fanout_us.push(s.elapsed().as_secs_f64() * 1e6);
        if (i + 1) % x.publish_every == 0 || i + 1 == x.batches.len() {
            let s = Instant::now();
            exchanged = coord.aggregates()?.1;
            aggregate_ms.push(ms_since(s));
        }
    }
    x.check(
        out,
        "ShardCoordinator replay",
        Rept::new(x.cfg).finalize_groups(exchanged).global,
    );
    drop(coord);
    let _ = std::fs::remove_dir_all(&dir);
    out.metrics.extend([
        metric("shard.fanout_us", med(&fanout_us), "us"),
        metric("shard.aggregate_ms", med(&aggregate_ms), "ms"),
        metric("shard.exchanges", aggregate_ms.len() as f64, "count"),
    ]);
    Ok(())
}
