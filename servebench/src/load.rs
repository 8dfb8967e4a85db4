//! The load generator: one closed-loop producer and one open-loop
//! querier, each on its own connection and thread, both using the
//! stock [`Client`].

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rept_graph::edge::Edge;
use rept_hash::SplitMix64;
use rept_serve::protocol::reply_field;
use rept_serve::Client;

use crate::stats::{Ack, Seen};
use crate::trace::Tracer;

/// Edges per `Client::ingest` call — the stock client's own line size,
/// so each call is exactly one `INGEST` line and one timed ack.
pub const LINE_EDGES: usize = 256;
/// Open-loop query rate (queries per second).
pub const QUERY_RATE: f64 = 500.0;
/// How long the querier keeps going after `FLUSH` waiting to see the
/// final position before it gives up on covering the last lines.
const FINAL_SIGHTING: Duration = Duration::from_secs(10);
/// How long before a query is due the querier stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// Operation kinds counted per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Ingest,
    QueryGlobal,
    TopK,
    QueryLocal,
    Flush,
    Restart,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Ingest,
        Op::QueryGlobal,
        Op::TopK,
        Op::QueryLocal,
        Op::Flush,
        Op::Restart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Ingest => "ingest_line",
            Op::QueryGlobal => "query_global",
            Op::TopK => "topk_10",
            Op::QueryLocal => "query_local",
            Op::Flush => "flush",
            Op::Restart => "restart",
        }
    }
}

/// Attempted / succeeded / BUSY-retried / failed counts of one kind. A
/// line the client retried after `ERR BUSY` and then got accepted is a
/// success; one that ran out of retries is a failure.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub attempted: u64,
    pub succeeded: u64,
    pub busy_retried: u64,
    pub failed: u64,
}

#[derive(Debug, Default, Clone)]
pub struct Ops([OpCount; 6]);

impl Ops {
    pub fn get(&self, op: Op) -> OpCount {
        self.0[op as usize]
    }

    pub fn get_mut(&mut self, op: Op) -> &mut OpCount {
        &mut self.0[op as usize]
    }

    /// Records one attempt and its outcome.
    pub fn note(&mut self, op: Op, ok: bool) {
        let c = self.get_mut(op);
        c.attempted += 1;
        if ok {
            c.succeeded += 1;
        } else {
            c.failed += 1;
        }
    }

    pub fn add(&mut self, other: &Ops) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.attempted += b.attempted;
            a.succeeded += b.succeeded;
            a.busy_retried += b.busy_retried;
            a.failed += b.failed;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.0.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.0.iter().map(|c| c.failed).sum()
    }
}

/// Everything one pass of the stream through the served tier logged.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Edges acknowledged.
    pub edges: u64,
    /// First `INGEST` sent to the `FLUSH` ack.
    pub ingest_s: f64,
    /// Round trip of each `Client::ingest` call, BUSY retries included.
    pub line_ms: Vec<f64>,
    pub acks: Vec<Ack>,
    /// Query latency from when each query was due.
    pub query_ms: Vec<f64>,
    /// How late the generator sent each query.
    pub late_ms: Vec<f64>,
    pub replies: Vec<Seen>,
    /// Position the `FLUSH` reply reported.
    pub flushed: u64,
    pub ops: Ops,
}

/// Streams `stream` into the tier at `addr` with the producer while the
/// querier polls it, then `FLUSH`es. Times are seconds since `base`.
/// With a tracer, every client request becomes a span under `parent`.
pub fn drive(
    addr: SocketAddr,
    stream: &[Edge],
    nodes: u32,
    seed: u64,
    tracer: Option<(&Tracer, u64)>,
) -> std::io::Result<PassLog> {
    let base = Instant::now();
    let final_position = AtomicU64::new(u64::MAX);
    std::thread::scope(|s| {
        let querier = s.spawn(|| query_loop(addr, nodes, seed, base, &final_position, tracer));
        let produced = produce(addr, stream, base, tracer);
        final_position.store(
            produced.as_ref().map_or(0, |log| log.flushed),
            Ordering::SeqCst,
        );
        let queried = querier.join().expect("querier thread");
        let mut log = produced?;
        let (query_ms, late_ms, replies, ops) = queried?;
        log.query_ms = query_ms;
        log.late_ms = late_ms;
        log.replies = replies;
        log.ops.add(&ops);
        Ok(log)
    })
}

fn since(base: Instant, t: Instant) -> f64 {
    t.saturating_duration_since(base).as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The closed-loop producer: one `Client::ingest` per 256-edge slice,
/// then `FLUSH`.
fn produce(
    addr: SocketAddr,
    stream: &[Edge],
    base: Instant,
    tracer: Option<(&Tracer, u64)>,
) -> std::io::Result<PassLog> {
    let mut client = Client::connect(addr)?;
    let mut log = PassLog::default();
    let started = Instant::now();
    for line in stream.chunks(LINE_EDGES) {
        let sent = Instant::now();
        let result = client.ingest(line);
        let acked = Instant::now();
        log.ops.note(Op::Ingest, result.is_ok());
        if let Some((t, parent)) = tracer {
            t.record(parent, "client.ingest", sent, acked);
        }
        match result {
            Ok(_) => {
                log.edges += line.len() as u64;
                log.line_ms.push(ms(acked - sent));
                log.acks.push(Ack {
                    at: since(base, acked),
                    end: log.edges,
                });
            }
            Err(e) => eprintln!("servebench: INGEST failed: {e}"),
        }
    }
    let sent = Instant::now();
    let flushed = client.flush();
    let done = Instant::now();
    log.ops.note(Op::Flush, flushed.is_ok());
    if let Some((t, parent)) = tracer {
        t.record(parent, "client.flush", sent, done);
    }
    log.flushed = flushed?;
    log.ingest_s = since(started, done);
    Ok(log)
}

type Queried = (Vec<f64>, Vec<f64>, Vec<Seen>, Ops);

/// The open-loop querier: `QUERY GLOBAL`, `TOPK 10` and `QUERY LOCAL v`
/// in turn at [`QUERY_RATE`], each timed from when it was due. Runs
/// until a reply shows the flushed position (or the grace period ends).
fn query_loop(
    addr: SocketAddr,
    nodes: u32,
    seed: u64,
    base: Instant,
    final_position: &AtomicU64,
    tracer: Option<(&Tracer, u64)>,
) -> std::io::Result<Queried> {
    let mut client = Client::connect(addr)?;
    let mut rng = SplitMix64::new(seed ^ 0x0051_CE57_0C41);
    let interval = Duration::from_secs_f64(1.0 / QUERY_RATE);
    let (mut query_ms, mut late_ms, mut replies) = (Vec::new(), Vec::new(), Vec::new());
    let mut ops = Ops::default();
    let start = Instant::now();
    let mut seen = 0u64;
    let mut give_up: Option<Instant> = None;
    for i in 0u32.. {
        let target = final_position.load(Ordering::SeqCst);
        if target != u64::MAX {
            if seen >= target {
                break;
            }
            let limit = *give_up.get_or_insert_with(|| Instant::now() + FINAL_SIGHTING);
            if Instant::now() > limit {
                break;
            }
        }
        // Sleep to just short of the due time, then spin: a plain sleep
        // overshoots by the timer slack and wake-up latency, which would
        // be the generator's own delay counted as query latency.
        let due = start + interval * i;
        let wake = due.checked_sub(SPIN).unwrap_or(due);
        let now = Instant::now();
        if now < wake {
            std::thread::sleep(wake - now);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let (op, line, name) = match i % 3 {
            0 => (
                Op::QueryGlobal,
                "QUERY GLOBAL".to_string(),
                "client.query_global",
            ),
            1 => (Op::TopK, "TOPK 10".to_string(), "client.topk"),
            _ => (
                Op::QueryLocal,
                format!("QUERY LOCAL {}", rng.next_below(u64::from(nodes))),
                "client.query_local",
            ),
        };
        let sent = Instant::now();
        let reply = client.request(&line);
        let got = Instant::now();
        if let Some((t, parent)) = tracer {
            t.record(parent, name, sent, got);
        }
        let position = reply
            .as_ref()
            .ok()
            .and_then(|r| reply_field(r, "position"))
            .and_then(|p| p.parse::<u64>().ok());
        ops.note(op, position.is_some());
        let Some(position) = position else {
            eprintln!("servebench: {line} failed: {reply:?}");
            continue;
        };
        seen = seen.max(position);
        query_ms.push(ms(got - due));
        late_ms.push(ms(sent.saturating_duration_since(due)));
        replies.push(Seen {
            at: since(base, got),
            position,
        });
    }
    Ok((query_ms, late_ms, replies, ops))
}
