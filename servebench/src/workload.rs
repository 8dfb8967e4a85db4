//! The three workloads: their generated streams and the serving tier
//! each one starts.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rept_core::{Engine, GroupSlice, ReptConfig};
use rept_gen::{barabasi_albert, rmat, GeneratorConfig, RmatParams};
use rept_graph::edge::Edge;
use rept_serve::{ServeConfig, ServeCore, Server, SyncPolicy};
use rept_shard::{CoordinatorConfig, CoordinatorServer, ShardCoordinator, ShardLink};

/// Partition size `m` of every workload.
pub const M: u64 = 64;
/// Barabási–Albert nodes and attachments per node (≈1M edges).
pub const BA_NODES: u32 = 200_000;
pub const BA_ATTACH: usize = 5;
/// R-MAT scale (2^16 nodes) and distinct edges.
pub const RMAT_SCALE: u32 = 16;
pub const RMAT_EDGES: usize = 1_000_000;
/// Shards of the durable cluster, and edges between their periodic
/// checkpoints — one per pass, so the stream ends well past it and a
/// crash image always holds both a checkpoint and a journal tail. Each
/// periodic checkpoint stalls the fan-out behind its encode and fsync,
/// so more of them would make disk latency decide the figures.
pub const SHARDS: u32 = 2;
pub const CHECKPOINT_EVERY: u64 = 524_288;
/// Handler threads of each TCP front end: one producer and one querier
/// connection are served at once.
pub const HANDLERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BA stream, `c = m`, one server, no journal: wire-bound.
    BaServe,
    /// Skewed R-MAT stream, `c = 4m`, one server: engine-bound.
    RmatHub,
    /// BA stream, `c = 4m`, a coordinator over two journaled shards.
    ClusterDurable,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "ba-serve" => Some(Self::BaServe),
            "rmat-hub" => Some(Self::RmatHub),
            "cluster-durable" => Some(Self::ClusterDurable),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::BaServe => "ba-serve",
            Self::RmatHub => "rmat-hub",
            Self::ClusterDurable => "cluster-durable",
        }
    }

    /// The estimator configuration; the hash seed follows the workload
    /// seed so every seed is a fresh draw of the partition hashes too.
    pub fn rept(self, seed: u64) -> ReptConfig {
        let c = match self {
            Self::BaServe => M,
            Self::RmatHub | Self::ClusterDurable => 4 * M,
        };
        ReptConfig::new(M, c).with_seed(seed)
    }

    /// The engine every workload serves with (the default one).
    pub fn engine(self) -> Engine {
        Engine::default()
    }

    /// Node id space, for drawing `QUERY LOCAL` targets.
    pub fn nodes(self) -> u32 {
        match self {
            Self::BaServe | Self::ClusterDurable => BA_NODES,
            Self::RmatHub => 1 << RMAT_SCALE,
        }
    }

    /// The edge stream for `seed`, in generation order.
    pub fn stream(self, seed: u64) -> Vec<Edge> {
        match self {
            Self::BaServe | Self::ClusterDurable => {
                barabasi_albert(&GeneratorConfig::new(BA_NODES, seed), BA_ATTACH)
            }
            Self::RmatHub => rmat(
                &GeneratorConfig::new(1 << RMAT_SCALE, seed),
                RMAT_SCALE,
                RMAT_EDGES,
                RmatParams::skewed(),
            ),
        }
    }

    /// Whether the served tier is the sharded, journaled cluster.
    pub fn clustered(self) -> bool {
        self == Self::ClusterDurable
    }

    /// Configuration of one standalone server whose state lives in
    /// `dir`. Checkpoints are written only at shutdown, so the ingest
    /// path is the default one; the shutdown checkpoint is what a
    /// restart resumes from.
    pub fn server_config(self, seed: u64, dir: &Path) -> ServeConfig {
        ServeConfig::new(self.rept(seed))
            .with_engine(self.engine())
            .with_checkpoint(dir.join("ckpt.rpck"), None)
    }

    /// Configuration of shard `index`: its group slice, a journal and
    /// periodic checkpoints under `dir`. Every batch is journaled before
    /// its ack, and fsynced at segment rotation, checkpoint and shutdown
    /// ([`SyncPolicy::Batched`]): a per-record fsync on shared virtual
    /// disks made fsync latency, not the serving code, decide this
    /// workload's figures. Its cost is priced on its own by the traced
    /// run's `journal.append_us`.
    pub fn shard_config(self, seed: u64, dir: &Path, index: u32) -> ServeConfig {
        ServeConfig::new(self.rept(seed))
            .with_engine(self.engine())
            .with_group_slice(GroupSlice::new(index, SHARDS))
            .with_checkpoint(
                shard_dir(dir, index).join("ckpt.rpck"),
                Some(CHECKPOINT_EVERY),
            )
            .with_journal()
            .with_journal_sync(SyncPolicy::Batched)
    }
}

fn shard_dir(dir: &Path, index: u32) -> PathBuf {
    dir.join(format!("shard{index}"))
}

/// A running serving tier behind one TCP address.
pub enum Tier {
    Single(Server),
    Cluster(CoordinatorServer),
}

/// What [`Tier::start`] found on disk.
pub struct Started {
    pub tier: Tier,
    /// Edges the shards replayed from their journal tails (always 0
    /// for a standalone server, which resumes from its checkpoint).
    pub replayed: u64,
}

impl Tier {
    /// Starts the workload's tier with its state in `dir` — empty for a
    /// fresh start, or a restart image to recover from. A cluster
    /// starts its shards in parallel, as separate shard processes
    /// would.
    pub fn start(w: Workload, seed: u64, dir: &Path) -> std::io::Result<Started> {
        if !w.clustered() {
            std::fs::create_dir_all(dir)?;
            let server = Server::start(w.server_config(seed, dir), "127.0.0.1:0", HANDLERS)?;
            return Ok(Started {
                tier: Self::Single(server),
                replayed: 0,
            });
        }
        let cores: Vec<ServeCore> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..SHARDS)
                .map(|i| {
                    s.spawn(move || {
                        std::fs::create_dir_all(shard_dir(dir, i))?;
                        ServeCore::start(w.shard_config(seed, dir, i))
                            .map_err(|e| std::io::Error::other(e.to_string()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard start thread"))
                .collect::<std::io::Result<_>>()
        })?;
        let replayed = cores.iter().map(|c| c.snapshot().durability.replayed).sum();
        let links = cores
            .into_iter()
            .map(|c| ShardLink::local(Arc::new(c)))
            .collect();
        let cfg = CoordinatorConfig::new(w.rept(seed)).with_engine(w.engine());
        let coordinator = ShardCoordinator::start(cfg, links).map_err(std::io::Error::other)?;
        let front = CoordinatorServer::start(coordinator, "127.0.0.1:0", HANDLERS)?;
        Ok(Started {
            tier: Self::Cluster(front),
            replayed,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Self::Single(s) => s.local_addr(),
            Self::Cluster(c) => c.local_addr(),
        }
    }

    /// Stops everything; shards and servers write their shutdown
    /// checkpoints into the tier's directory.
    pub fn shutdown(self) {
        match self {
            Self::Single(s) => drop(s.shutdown()),
            Self::Cluster(c) => drop(c.shutdown()),
        }
    }

    /// Ends the tier for a restart and returns the directory to restart
    /// from. A standalone server shuts down cleanly and restarts from
    /// its shutdown checkpoint. The cluster is crashed: its directory is
    /// copied while every acked batch is journaled and the ingest
    /// threads are idle (after `FLUSH`), which is the image a killed
    /// process leaves — the last periodic checkpoint plus the journal
    /// tail above it.
    pub fn stop_for_restart(self, dir: &Path) -> std::io::Result<PathBuf> {
        match self {
            Self::Single(s) => {
                drop(s.shutdown());
                Ok(dir.to_path_buf())
            }
            Self::Cluster(c) => {
                let image = dir.with_extension("image");
                copy_tree(dir, &image)?;
                drop(c.shutdown());
                Ok(image)
            }
        }
    }
}

/// Whether a restart image holds a checkpoint for every part of the
/// tier.
pub fn image_has_checkpoints(w: Workload, image: &Path) -> bool {
    if w.clustered() {
        (0..SHARDS).all(|i| shard_dir(image, i).join("ckpt.rpck").is_file())
    } else {
        image.join("ckpt.rpck").is_file()
    }
}

pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
