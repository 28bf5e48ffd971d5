//! The server: one or more [`KlinqSystem`]s behind one intake.
//!
//! [`ShardedReadoutServer`] is the only server type. It owns one
//! coalescing collector per device — a single-device service is a
//! 1-shard fleet (`ShardedReadoutServer::start(vec![system], config)`
//! and `client(0)`), while a dilution fridge hosting several 5-qubit
//! chips runs one shard per chip. Every coalescing guarantee —
//! bitwise-identical batching, backpressure, priority lanes — holds per
//! shard, and each request is routed to its device's collector **at
//! intake**: [`ShardedReadoutServer::client`] hands out a
//! [`ReadoutClient`] bound to the chosen device, so sharding adds zero
//! per-request overhead.
//!
//! # Self-healing supervision
//!
//! The fleet runs under a [`supervise`](crate::supervise) watchdog: a
//! shard whose collector dies (panic) or stalls (missed heartbeats) is
//! marked `Down`, its in-flight requests answer typed
//! [`ServeError::ShardDown`](crate::server::ServeError::ShardDown)
//! through their reply guards, and the watchdog restarts the collector
//! from the shard's restart source — the retained in-memory system
//! (tracking every hot swap and canary promotion), or a cold reload of
//! the deployment bundle through the checksum-verified persistence
//! path. Counters are shared across the restart, so every
//! [`ServeStats`] field stays monotonic: a restart never resets a
//! number.
//!
//! While a shard is down, client handles from [`Self::client`] route
//! health-aware: a request whose
//! [`RequestOptions::failover`](crate::sched::RequestOptions::failover)
//! permits it fails over to a healthy peer shard; one that does not
//! answers `ShardDown` immediately instead of queueing into a dead
//! collector.
//!
//! Fleets deploy from a single multi-device artifact
//! ([`klinq_core::persist::save_device_bundle`]) via
//! [`ShardedReadoutServer::load_bundle`]. A bundle whose artifacts are
//! *partially* corrupt boots **degraded**: every loadable device serves
//! normally, each quarantined device's shard starts `Down` (visible in
//! [`Self::shard_health`]), and the watchdog keeps retrying its
//! artifact — replacing the file on disk heals the shard without a
//! fleet restart.

use crate::server::{ReadoutClient, Router, ServeConfig, ServeError, ServeStats, Shard};
use crate::supervise::{RestartSource, ShardHealth, ShardHealthReport, Supervisor};
use klinq_core::{persist, KlinqError, KlinqSystem};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// A running micro-batching readout server: one coalescing shard per
/// device behind one handle, under a supervision watchdog.
///
/// Shutting the server down (explicitly or by drop) stops the watchdog
/// first — no restart races teardown — then shuts every shard down,
/// letting each collector finish its batch in flight.
/// [`Self::shutdown`] re-raises a *genuine* panic on any shard's
/// collector (one the watchdog had not already recovered) on the
/// owner.
#[derive(Debug)]
pub struct ShardedReadoutServer {
    /// Shared with the watchdog thread, which needs `&mut` access to a
    /// shard to respawn its collector — hence the per-slot `Mutex`.
    /// Request traffic does not touch these locks: clients talk to the
    /// shard's [`ShardLink`](crate::server) directly.
    shards: Arc<Vec<Mutex<Shard>>>,
    /// Health-aware failover routing table, shared by every client
    /// handle this fleet hands out.
    router: Arc<Router>,
    /// Where each shard restarts from, kept current across hot swaps
    /// and canary promotions.
    sources: Arc<Vec<RestartSource>>,
    /// The canary candidate staged on each shard, if any — retained so
    /// a *promotion* can update the shard's restart source with the
    /// exact promoted system.
    staged: Vec<Mutex<Option<Arc<KlinqSystem>>>>,
    supervisor: Supervisor,
}

impl ShardedReadoutServer {
    /// Starts one collector per system; `systems[i]` serves device `i`.
    /// Every shard runs the same `config` (backend, batching, intake
    /// bound, supervision). A single-device server is
    /// `start(vec![system], config)`.
    ///
    /// # Panics
    ///
    /// Panics immediately (not later on a collector thread) if `systems`
    /// is empty or the configuration is unusable: a zero
    /// `max_batch_shots`, a zero `max_pending`, a zero `chunk_size`
    /// override, or an unusable scheduling policy (no tenants, a zero
    /// weight, quantum or quota).
    pub fn start(systems: Vec<Arc<KlinqSystem>>, config: ServeConfig) -> Self {
        assert!(!systems.is_empty(), "a sharded server needs at least one device");
        let mut shards = Vec::with_capacity(systems.len());
        let mut sources = Vec::with_capacity(systems.len());
        for system in systems {
            sources.push(RestartSource::from_system(Arc::clone(&system)));
            shards.push(Shard::start(system, config.clone()));
        }
        Self::assemble(shards, sources, &config)
    }

    /// Loads a device fleet from a multi-device bundle artifact (see
    /// [`klinq_core::persist::load_device_bundle`]) and starts one shard
    /// per stored device, in bundle order.
    ///
    /// Per-device integrity is enforced per device: a corrupt artifact
    /// quarantines *its* device — the shard boots `Down` and the
    /// watchdog retries the bundle — while every intact device serves.
    /// Only a bundle with **no** loadable device (or an unreadable /
    /// malformed envelope) is a load error.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`KlinqError`] if the bundle cannot be
    /// read, its envelope fails validation, or every stored device is
    /// corrupt.
    pub fn load_bundle(path: &Path, config: ServeConfig) -> Result<Self, KlinqError> {
        let devices = persist::load_device_bundle_quarantined(path)?;
        if let Some(first_err) = devices.iter().find_map(|d| d.as_ref().err()) {
            if devices.iter().all(Result::is_err) {
                return Err(KlinqError::Artifact(format!(
                    "no loadable device in bundle {}: {first_err}",
                    path.display()
                )));
            }
        }
        let mut shards = Vec::with_capacity(devices.len());
        let mut sources = Vec::with_capacity(devices.len());
        for (device, loaded) in devices.into_iter().enumerate() {
            match loaded {
                Ok(system) => {
                    let system = Arc::new(system);
                    sources.push(RestartSource::from_bundle(
                        path.to_path_buf(),
                        device,
                        Some(Arc::clone(&system)),
                    ));
                    shards.push(Shard::start(system, config.clone()));
                }
                Err(_) => {
                    sources.push(RestartSource::from_bundle(path.to_path_buf(), device, None));
                    shards.push(Shard::vacant(config.clone()));
                }
            }
        }
        Ok(Self::assemble(shards, sources, &config))
    }

    fn assemble(shards: Vec<Shard>, sources: Vec<RestartSource>, config: &ServeConfig) -> Self {
        let staged = shards.iter().map(|_| Mutex::new(None)).collect();
        let router = Arc::new(Router::new(shards.iter().map(Shard::link).collect()));
        let shards = Arc::new(shards.into_iter().map(Mutex::new).collect::<Vec<_>>());
        let sources = Arc::new(sources);
        let supervisor =
            Supervisor::spawn(Arc::clone(&shards), Arc::clone(&sources), config.supervise);
        Self {
            shards,
            router,
            sources,
            staged,
            supervisor,
        }
    }

    /// Number of device shards.
    pub fn devices(&self) -> usize {
        self.shards.len()
    }

    /// A client handle bound to `device`'s shard — the routing decision.
    /// A request submitted while the shard is `Down` fails over to a
    /// healthy peer when
    /// [`RequestOptions::failover`](crate::sched::RequestOptions::failover)
    /// permits it (and answers [`ServeError::ShardDown`] otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`: binding a handle to a
    /// device that does not exist is a deployment bug, not a runtime
    /// condition (the wire front end validates device ids from
    /// untrusted requests before calling this).
    pub fn client(&self, device: usize) -> ReadoutClient {
        self.shard(device).client(Arc::clone(&self.router), device)
    }

    /// One shard's current health state: `Healthy`, `Degraded` (a
    /// recently caught batch panic), `Down` or `Restarting` (see
    /// [`crate::supervise`]).
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    pub fn health(&self, device: usize) -> ShardHealth {
        self.shard(device).monitor().health()
    }

    /// Per-shard health, restart and down counts, in device order —
    /// the same report the wire health query serves.
    pub fn shard_health(&self) -> Vec<ShardHealthReport> {
        self.shards
            .iter()
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            .map(|slot| slot.lock().unwrap().monitor().report())
            .collect()
    }

    /// Crash-fault injection: makes `device`'s collector abort
    /// mid-stream without draining its queues, exactly as a genuine
    /// panic would. Admitted requests on that shard die with the thread
    /// and answer [`ServeError::ShardDown`] through their reply guards;
    /// the watchdog then restarts the shard. Chaos harnesses use this
    /// to exercise the full `Down → Restarting → Healthy` cycle under
    /// live traffic.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the shard already shut down,
    /// or [`ServeError::ShardDown`] if its collector is already dead.
    pub fn kill_shard(&self, device: usize) -> Result<(), ServeError> {
        self.shard(device).inject_kill()
    }

    /// Blue/green hot swap on one shard: atomically replaces `device`'s
    /// serving [`KlinqSystem`] between micro-batches and returns the
    /// shard's new model version (versions start at 1 and bump on every
    /// swap or canary promotion). The command queues behind traffic
    /// already admitted (channel FIFO): every request submitted before
    /// this call returns is answered by the old model, every request
    /// submitted after it completes by the new one, and no micro-batch
    /// ever mixes the two. An open batch lingering when the command
    /// arrives is closed on the old model first.
    ///
    /// Other shards are untouched — a fleet rolls a new model device by
    /// device, watching each shard's canary report before moving on. A
    /// staged canary survives the swap untouched (swapping the primary
    /// under a canary is an explicit operator move, not an implicit
    /// abort). The shard's restart source tracks the swap, so a later
    /// crash restarts the *new* model.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()` (same contract as
    /// [`Self::client`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server already shut down,
    /// [`ServeError::ShardDown`] if the shard's collector is dead, or
    /// [`ServeError::InvalidRequest`] if `system` does not read the same
    /// number of qubits as the serving system.
    pub fn swap_model(
        &self,
        device: usize,
        system: Arc<KlinqSystem>,
    ) -> Result<u64, ServeError> {
        let version = self.shard(device).swap_model(Arc::clone(&system))?;
        self.sources[device].retain_swapped(system);
        Ok(version)
    }

    /// Stages `system` as `device`'s canary candidate: from now on,
    /// `fraction` of that shard's micro-batches (by count, spread evenly
    /// via a fractional accumulator) are answered by the candidate, and
    /// each canary batch is also classified by the primary to feed the
    /// divergence report ([`ServeStats::canary_divergence`], `canary_*`
    /// fields). Batches whose shots are too short for the candidate's
    /// feature floors stay on the primary rather than panicking the
    /// candidate.
    ///
    /// Staging again replaces the previous candidate; the divergence
    /// counters keep accumulating (snapshot [`Self::stats`] before
    /// staging to scope a report to one candidate).
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server already shut down,
    /// [`ServeError::ShardDown`] if the shard's collector is dead, or
    /// [`ServeError::InvalidRequest`] for a qubit-count mismatch or a
    /// `fraction` outside `0.0..=1.0`.
    pub fn stage_canary(
        &self,
        device: usize,
        system: Arc<KlinqSystem>,
        fraction: f64,
    ) -> Result<(), ServeError> {
        self.shard(device).stage_canary(Arc::clone(&system), fraction)?;
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        *self.staged[device].lock().unwrap() = Some(system);
        Ok(())
    }

    /// Promotes `device`'s staged canary to primary — a hot swap with
    /// the same between-batches atomicity as [`Self::swap_model`] — and
    /// returns the shard's new model version. The canary lane is empty
    /// afterwards. The shard's restart source tracks the promotion, so a
    /// later crash restarts the promoted model.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server already shut down,
    /// [`ServeError::ShardDown`] if the shard's collector is dead, or
    /// [`ServeError::InvalidRequest`] if no canary is staged.
    pub fn promote_canary(&self, device: usize) -> Result<u64, ServeError> {
        let version = self.shard(device).promote_canary()?;
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        if let Some(system) = self.staged[device].lock().unwrap().take() {
            self.sources[device].retain_swapped(system);
        }
        Ok(version)
    }

    /// Drops `device`'s staged canary, if any; returns whether one was
    /// staged.
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] if the server already shut down,
    /// or [`ServeError::ShardDown`] if the shard's collector is dead.
    pub fn abort_canary(&self, device: usize) -> Result<bool, ServeError> {
        let aborted = self.shard(device).abort_canary()?;
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        *self.staged[device].lock().unwrap() = None;
        Ok(aborted)
    }

    /// One shard's serving model version (starts at 1, bumps on every
    /// swap or promotion).
    ///
    /// # Panics
    ///
    /// Panics if `device >= self.devices()`.
    pub fn model_version(&self, device: usize) -> u64 {
        self.shard(device).model_version()
    }

    fn shard(&self, device: usize) -> MutexGuard<'_, Shard> {
        assert!(
            device < self.shards.len(),
            "device {device} out of range: this fleet serves {} devices",
            self.shards.len()
        );
        // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
        self.shards[device].lock().unwrap()
    }

    /// Per-device counter snapshots, in shard order (the `wire_*` fields
    /// stay zero — they belong to a wire front end's own stats).
    pub fn shard_stats(&self) -> Vec<ServeStats> {
        self.shards
            .iter()
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            .map(|slot| slot.lock().unwrap().stats())
            .collect()
    }

    /// Fleet-wide counters: per-shard stats merged (sums, with
    /// `largest_batch` and `recovery_us` taking the max). The health
    /// gauges aggregate — `shards_healthy + shards_degraded +
    /// shards_down + shards_restarting == shards`.
    pub fn stats(&self) -> ServeStats {
        self.shard_stats()
            .iter()
            .fold(ServeStats::default(), |acc, s| acc.merge(s))
    }

    /// Fleet-wide per-tenant counters, in tenant-table order:
    /// throughput, sheds, deadline misses, and queue-depth gauges for
    /// each tenant declared in
    /// [`SchedPolicy::tenants`](crate::sched::SchedPolicy::tenants),
    /// merged positionally over shards (every shard runs the same
    /// policy, so tenant `i` is the same tenant on every shard).
    pub fn tenant_stats(&self) -> Vec<crate::sched::TenantStats> {
        let mut merged: Vec<crate::sched::TenantStats> = Vec::new();
        for slot in self.shards.iter() {
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            let stats = slot.lock().unwrap().tenant_stats();
            if merged.is_empty() {
                merged = stats;
            } else {
                for (acc, s) in merged.iter_mut().zip(&stats) {
                    *acc = acc.merge(s);
                }
            }
        }
        merged
    }

    /// Shuts the server down: stops the supervision watchdog first (so
    /// no restart races teardown), then stops every shard's intake,
    /// drains each in-flight batch, joins the collectors and returns the
    /// final fleet-wide counters. Client handles still alive afterwards
    /// fail fast with [`ServeError::Closed`].
    pub fn shutdown(self) -> ServeStats {
        let Self {
            shards,
            router: _router,
            sources: _sources,
            staged: _staged,
            mut supervisor,
        } = self;
        supervisor.stop();
        // The joined watchdog was the only other owner of the shard
        // vector, so unwrapping the `Arc` cannot fail.
        let shards = Arc::try_unwrap(shards)
            // klinq-lint: allow(no-panic-serve) the joined watchdog released the only other shard-vector handle
            .expect("the stopped watchdog released the only other shard-vector handle");
        shards
            .into_iter()
            // klinq-lint: allow(no-panic-serve) lock poisoning requires a prior panic, which this same rule forbids on the serve path
            .map(|slot| slot.into_inner().unwrap().shutdown())
            .fold(ServeStats::default(), |acc, s| acc.merge(&s))
    }
}
