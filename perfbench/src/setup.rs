//! Set-up: preprocess, write the sharded snapshot, open it, start the
//! serving stack on real sockets and warm the workload's concepts.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use milr_cluster::{Coordinator, CoordinatorOptions, NodeOptions, Worker, WorkerOptions};
use milr_core::{RetrievalConfig, RetrievalDatabase};
use milr_imgproc::GrayImage;
use milr_serve::{client, ServeOptions, Server};
use milr_store::ShardedDatabase;

use crate::corpus::{Kind, Workload};

/// Workers behind the `cluster` workload's coordinator.
pub const CLUSTER_WORKERS: usize = 2;

/// A running serving stack.
pub enum Stack {
    Single(Server),
    Cluster {
        coordinator: Coordinator,
        workers: Vec<Worker>,
    },
}

impl Stack {
    pub fn addr(&self) -> SocketAddr {
        match self {
            Stack::Single(server) => server.local_addr(),
            Stack::Cluster { coordinator, .. } => coordinator.addr(),
        }
    }

    /// Drains and joins every thread of the stack.
    pub fn stop(self) {
        match self {
            Stack::Single(server) => {
                server.shutdown();
                server.wait();
            }
            Stack::Cluster {
                coordinator,
                workers,
            } => {
                // Coordinator first: its pooled sockets must close
                // before the workers drain their connections.
                coordinator.request_shutdown();
                coordinator.wait();
                for worker in workers {
                    worker.request_shutdown();
                    worker.wait();
                }
            }
        }
    }
}

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub preprocess_s: f64,
    pub write_s: f64,
    pub open_s: f64,
    pub start_s: f64,
    pub warm_s: f64,
    pub snapshot_bytes: u64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.preprocess_s + self.write_s + self.open_s + self.start_s + self.warm_s
    }
}

/// The serving configuration every workload shares: the daemon's
/// defaults on an ephemeral port.
pub fn retrieval_config() -> RetrievalConfig {
    RetrievalConfig::default()
}

/// Runs one complete set-up. `warm` holds the request targets trained
/// and cached before the first timed request.
pub fn setup(
    workload: &Workload,
    images: Vec<(GrayImage, usize)>,
    dir: &Path,
    warm: &[String],
) -> Result<(Stack, RetrievalDatabase, SetupTimes), String> {
    let config = retrieval_config();
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let db = RetrievalDatabase::from_labelled_images(images, &config).map_err(|e| e.to_string())?;
    times.preprocess_s = t.elapsed().as_secs_f64();

    let snapshot = dir.join("snapshot");
    let t = Instant::now();
    let mut store = ShardedDatabase::from_database(&db, &snapshot, workload.shard_capacity)
        .map_err(|e| e.to_string())?;
    store.flush().map_err(|e| e.to_string())?;
    times.write_s = t.elapsed().as_secs_f64();
    drop(store);
    times.snapshot_bytes = dir_bytes(&snapshot);

    let stack = match workload.kind {
        Kind::Rank | Kind::Feedback => {
            let t = Instant::now();
            let loaded = milr_store::load_snapshot(&snapshot).map_err(|e| e.to_string())?;
            times.open_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let server = Server::start_with_snapshot(
                loaded,
                ServeOptions {
                    addr: "127.0.0.1:0".into(),
                    retrieval: config.clone(),
                    ..ServeOptions::default()
                },
            )?;
            times.start_s = t.elapsed().as_secs_f64();
            Stack::Single(server)
        }
        Kind::Cluster => {
            // Workers and coordinator each open the snapshot themselves,
            // so opening is part of starting them.
            let t = Instant::now();
            let stack = start_cluster(&snapshot, &config)?;
            times.open_s = t.elapsed().as_secs_f64();
            stack
        }
    };

    let t = Instant::now();
    let addr = stack.addr();
    for target in warm {
        let response = client::get(addr, target, Duration::from_secs(120))?;
        if response.status != 200 {
            stack.stop();
            return Err(format!("warm-up {target} answered {}", response.status));
        }
    }
    times.warm_s = t.elapsed().as_secs_f64();
    Ok((stack, db, times))
}

fn start_cluster(snapshot: &Path, config: &RetrievalConfig) -> Result<Stack, String> {
    let workers: Vec<Worker> = (0..CLUSTER_WORKERS)
        .map(|index| {
            Worker::start(WorkerOptions {
                node: NodeOptions {
                    // Keep the coordinator's pooled sockets alive across
                    // the pauses between phases.
                    read_timeout: Duration::from_secs(30),
                    ..NodeOptions::default()
                },
                snapshot_dir: snapshot.to_path_buf(),
                worker_index: index,
                worker_count: CLUSTER_WORKERS,
                ..WorkerOptions::default()
            })
            .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let coordinator = Coordinator::start(CoordinatorOptions {
        snapshot_dir: snapshot.to_path_buf(),
        workers: workers.iter().map(Worker::addr).collect(),
        retrieval: config.clone(),
        ..CoordinatorOptions::default()
    });
    match coordinator {
        Ok(coordinator) => Ok(Stack::Cluster {
            coordinator,
            workers,
        }),
        Err(e) => {
            for worker in workers {
                worker.request_shutdown();
                worker.wait();
            }
            Err(e.to_string())
        }
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The run's private scratch directory inside the checkout.
pub fn scratch_dir(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(".bench_out").join(format!("run-{workload}-{seed}-{}", std::process::id()))
}
