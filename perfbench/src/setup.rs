//! Inputs and deployments: the seeded shot pool, the trained artifact,
//! and set-up the way a deployment restarts (load the artifact, start
//! the fleet and the wire server, connect).

use klinq_core::experiments::ExperimentConfig;
use klinq_core::{Backend, BatchDiscriminator, FidelityReport, KlinqSystem, ShotStates};
use klinq_serve::{
    Priority, SchedPolicy, ServeConfig, ShardedReadoutServer, TenantSpec, WireClient, WireServer,
};
use klinq_sim::{FiveQubitDevice, ReadoutDataset, Shot, SimConfig};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one request looks like and how many are in flight.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Datapath serving the requests.
    pub backend: Backend,
    /// Device shards; requests alternate between them.
    pub devices: usize,
    /// Load-generator threads (one connection each over the wire).
    pub threads: usize,
    /// Requests each thread keeps in flight.
    pub depth: usize,
    /// Shots per request.
    pub shots: usize,
    /// Scheduling lane.
    pub priority: Priority,
    /// Serve under the two-tenant 3:1 table instead of the default one.
    pub tenants: bool,
}

impl Shape {
    /// The fleet configuration for this shape: the serve defaults, with
    /// only the backend and the tenant table set.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            backend: self.backend,
            sched: if self.tenants {
                tenant_policy()
            } else {
                SchedPolicy::default()
            },
            ..ServeConfig::default()
        }
    }

    /// Tenant of the `g`-th request in a closed-loop replay: the open
    /// loop's 3:1 mix of tenants 1 and 2, or the default tenant.
    pub fn tenant_of(&self, g: u64) -> u32 {
        match (self.tenants, g % 4) {
            (false, _) => 0,
            (true, 3) => 2,
            (true, _) => 1,
        }
    }
}

/// Tenant 0 is the unused default; tenants 1 and 2 share 3:1.
pub fn tenant_policy() -> SchedPolicy {
    SchedPolicy::new(vec![
        TenantSpec::new("default", 1),
        TenantSpec::new("steady", 3),
        TenantSpec::new("bursty", 1),
    ])
}

/// The seeded shots a workload draws its requests from, with the direct
/// `classify_shots_on` answer for each (the output gate).
pub struct Pool {
    /// The shots.
    pub shots: Vec<Shot>,
    /// Direct answers on the workload's backend, shot-aligned.
    pub direct: Vec<ShotStates>,
}

impl Pool {
    /// Generates `n` shots from `seed` at the smoke configuration's trace
    /// length and classifies them directly on `backend`.
    pub fn generate(system: &KlinqSystem, backend: Backend, n: usize, seed: u64) -> Self {
        let sim = SimConfig::with_duration_ns(system.config().duration_ns);
        let shots = ReadoutDataset::generate(&FiveQubitDevice::paper(), &sim, n, seed)
            .shots()
            .to_vec();
        let direct =
            BatchDiscriminator::new(system.discriminators()).classify_shots_on(backend, &shots);
        Self { shots, direct }
    }

    /// Request slots of `shots` shots each; slot `k` is
    /// `shots[k*size .. (k+1)*size]`.
    pub fn slots(&self, size: usize) -> usize {
        self.shots.len() / size
    }

    /// Geometric-mean assignment fidelity over the shots of the covered
    /// slots: the answers served there equal `direct` (the gate checked
    /// each one), scored against the prepared labels.
    pub fn fidelity(&self, covered: &[bool], size: usize) -> f64 {
        let idx: Vec<usize> = covered
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .flat_map(|(k, _)| k * size..(k + 1) * size)
            .collect();
        if idx.is_empty() {
            return 0.0;
        }
        let per_qubit = (0..5)
            .map(|qb| {
                let hits = idx
                    .iter()
                    .filter(|&&i| self.direct[i][qb] == self.shots[i].prepared[qb])
                    .count();
                hits as f64 / idx.len() as f64
            })
            .collect();
        FidelityReport::new(per_qubit).geometric_mean()
    }
}

/// Trains the smoke model and saves it as an artifact under `dir`.
pub fn train_artifact(dir: &Path) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create the run directory");
    let system = KlinqSystem::train(&ExperimentConfig::smoke()).expect("smoke training");
    let path = dir.join("smoke-model.json");
    system.save(&path).expect("save the artifact");
    path
}

/// Which front end a deployment starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// Loaded systems only: the caller drives `classify_shots_on`.
    Direct,
    /// A fleet, driven through in-process clients.
    InProc,
    /// A fleet behind a `WireServer`, one connection per thread.
    Wire,
}

/// A started deployment.
pub struct Deployment {
    /// The loaded systems, one per device.
    pub systems: Vec<Arc<KlinqSystem>>,
    /// The fleet, unless direct.
    pub fleet: Option<ShardedReadoutServer>,
    /// The wire server, when wire.
    pub wire: Option<WireServer>,
    /// One connected client per load thread, when wire.
    pub clients: Vec<WireClient>,
}

/// How long each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `KlinqSystem::load`, all devices.
    pub load: Duration,
    /// Fleet plus wire server start.
    pub start: Duration,
    /// Client connects.
    pub connect: Duration,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> Duration {
        self.load + self.start + self.connect
    }
}

/// A client read that takes this long means the server lost the
/// request; the run fails instead of hanging.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

impl Deployment {
    /// Loads the artifact once per device and starts `front` for `shape`.
    pub fn start(artifact: &Path, shape: &Shape, front: Front) -> (Self, SetupTimes) {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let systems: Vec<Arc<KlinqSystem>> = (0..shape.devices)
            .map(|_| Arc::new(KlinqSystem::load(artifact).expect("load the artifact")))
            .collect();
        times.load = t.elapsed();
        let mut deployment = Self {
            systems,
            fleet: None,
            wire: None,
            clients: Vec::new(),
        };
        if front == Front::Direct {
            return (deployment, times);
        }
        let t = Instant::now();
        let fleet = ShardedReadoutServer::start(deployment.systems.clone(), shape.serve_config());
        if front == Front::Wire {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            deployment.wire =
                Some(WireServer::start(&fleet, listener).expect("start the wire server"));
        }
        deployment.fleet = Some(fleet);
        times.start = t.elapsed();
        if let Some(wire) = &deployment.wire {
            let t = Instant::now();
            deployment.clients = (0..shape.threads)
                .map(|_| {
                    let mut client =
                        WireClient::connect(wire.local_addr(), 0).expect("connect loopback");
                    client
                        .set_read_timeout(Some(READ_TIMEOUT))
                        .expect("set the read timeout");
                    client
                })
                .collect();
            times.connect = t.elapsed();
        }
        (deployment, times)
    }

    /// The fleet (in-process and wire deployments).
    pub fn fleet(&self) -> &ShardedReadoutServer {
        self.fleet.as_ref().expect("a served deployment")
    }

    /// Disconnects and shuts everything down, waiting for every thread.
    pub fn stop(mut self) {
        self.clients.clear();
        if let Some(wire) = self.wire.take() {
            wire.shutdown();
        }
        if let Some(fleet) = self.fleet.take() {
            fleet.shutdown();
        }
    }
}
