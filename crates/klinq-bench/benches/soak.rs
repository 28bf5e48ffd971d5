//! Multi-tenant QoS soak: proves the DRR scheduler isolates a
//! well-behaved tenant from an adversarial flooder, over the real wire.
//!
//! Three phases, each against a fresh `WireServer` (localhost TCP):
//!
//! 1. **Baseline** — the steady tenant alone, closed-loop, small
//!    latency-class requests. Records its p99 as
//!    `serving/soak_steady_p99`.
//! 2. **Flooded** — the same steady workload while an open-loop
//!    flooder (weight 1, bounded quota) and a bursty tenant pile on.
//!    Records the steady tenant's p99 under attack as
//!    `serving/soak_steady_p99_flooded` and asserts it stays within
//!    2× the baseline (plus a scheduling-jitter floor).
//! 3. **Fairness** — three equal-weight backlogged flooders. Records
//!    the Jain index over achieved shots as
//!    `serving/soak_fairness_jain` (unit `index`, higher is better)
//!    and asserts it is ≥ 0.9.
//!
//! Every steady-tenant response is additionally checked bitwise against
//! the direct `classify_shots_on` answer — QoS must never change
//! results, only their timing.
//!
//! The numeric assertions are skipped when `KLINQ_CHAOS_SEED` is set:
//! under fault injection the latencies measure the chaos, not the
//! scheduler, but the run still proves the serve path survives.

use criterion::{criterion_group, Criterion};
use klinq_bench::hist::{jain_index, LatencyHist};
use klinq_core::testkit;
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem};
use klinq_serve::chaos::Chaos;
use klinq_serve::{
    Priority, RequestOptions, SchedPolicy, ServeConfig, ServeError, ShardedReadoutServer,
    TenantId, TenantSpec, WireClient, WireServer,
};
use klinq_sim::Shot;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One trained smoke system shared by every benchmark in this binary
/// (disk-cached across the workspace's test/bench binaries).
fn system() -> Arc<KlinqSystem> {
    static SYS: OnceLock<Arc<KlinqSystem>> = OnceLock::new();
    Arc::clone(SYS.get_or_init(|| {
        Arc::new(testkit::cached_smoke_system(Path::new(env!(
            "CARGO_TARGET_TMPDIR"
        ))))
    }))
}

/// Shots per steady-tenant request: small, latency-class traffic.
const STEADY_SLICE: usize = 8;
/// Shots per flooder request: big, throughput-class traffic.
const FLOOD_SLICE: usize = 32;
/// Open-loop flooder pipeline depth (requests in flight per flooder).
const FLOOD_WINDOW: usize = 32;

/// True when fault injection is active and latency/fairness numbers
/// measure the chaos rather than the scheduler.
fn chaos_active() -> bool {
    std::env::var("KLINQ_CHAOS_SEED").is_ok()
}

/// A fresh sharded server + wire front-end with the given tenant table.
fn start_server(
    system: &Arc<KlinqSystem>,
    tenants: Vec<TenantSpec>,
) -> (ShardedReadoutServer, WireServer) {
    let fleet = ShardedReadoutServer::start(
        vec![Arc::clone(system)],
        ServeConfig {
            backend: Backend::Float,
            // Small batch budget: the batch in service is the floor on
            // everyone's wait, so capping it caps the head-of-line
            // blocking a backlogged flooder can impose.
            max_batch_shots: 32,
            max_linger: Duration::from_micros(500),
            max_pending: 4096,
            sched: SchedPolicy::new(tenants),
            ..ServeConfig::default()
        },
    );
    let server = WireServer::start(
        &fleet,
        TcpListener::bind("127.0.0.1:0").expect("bind loopback"),
    )
    .expect("start wire server");
    (fleet, server)
}

/// Drives the steady tenant closed-loop for `run`, recording per-request
/// latency and bitwise-checking every response against `direct`.
fn steady_loop(
    server: &WireServer,
    shots: &[Shot],
    direct: &[klinq_core::ShotStates],
    tenant: TenantId,
    run: Duration,
) -> LatencyHist {
    let mut client = WireClient::connect(server.local_addr(), 0).expect("connect loopback");
    let mut hist = LatencyHist::new();
    let mut offset = 0usize;
    let t0 = Instant::now();
    while t0.elapsed() < run {
        let start = (offset * STEADY_SLICE) % (shots.len() - STEADY_SLICE);
        offset += 1;
        let slice = &shots[start..start + STEADY_SLICE];
        let sent = Instant::now();
        // The latency lane + a tenant weight is the QoS shape a control
        // loop actually uses: its batch closes immediately instead of
        // waiting out the linger, and DRR guards its share of service.
        let states = client
            .classify_shots_opts(
                RequestOptions::new().tenant(tenant).priority(Priority::Latency),
                slice,
            )
            .expect("steady tenant is never shed");
        hist.record(sent.elapsed().as_nanos() as u64);
        // QoS must not change answers: bitwise against the direct path.
        assert_eq!(
            states,
            direct[start..start + STEADY_SLICE],
            "served states diverge from direct classify_shots_on"
        );
    }
    hist
}

/// An open-loop flooder: keeps [`FLOOD_WINDOW`] requests in flight for
/// `run`, regardless of how fast the server answers. Sheds
/// ([`ServeError::Overloaded`]) are expected and counted, not fatal —
/// that is the quota doing its job. Returns `(answered, shed)` request
/// counts.
fn flood_loop(
    server: &WireServer,
    shots: &[Shot],
    tenant: TenantId,
    chaos: &mut Chaos,
    bursty: bool,
    run: Duration,
    stop: &AtomicBool,
) -> (u64, u64) {
    let mut client = WireClient::connect(server.local_addr(), 0).expect("connect loopback");
    let (mut answered, mut shed) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed() < run && !stop.load(Ordering::Relaxed) {
        // A bursty tenant sleeps out ~half its duty cycle in bursts; a
        // pure flooder never yields.
        if bursty && chaos.chance(15) {
            std::thread::sleep(Duration::from_micros(200 + chaos.below(800) as u64));
        }
        while client.in_flight() < FLOOD_WINDOW {
            let start = chaos.below(shots.len() - FLOOD_SLICE);
            match client.submit_to_opts(
                0,
                RequestOptions::new().tenant(tenant),
                &shots[start..start + FLOOD_SLICE],
            ) {
                Ok(_) => {}
                Err(ServeError::Overloaded { .. }) => {
                    shed += 1;
                    break;
                }
                Err(e) => panic!("flooder hit unexpected error: {e}"),
            }
        }
        let (_, result) = client.recv_response().expect("server alive");
        match result {
            Ok(_) => answered += 1,
            Err(ServeError::Overloaded { .. } | ServeError::DeadlineExceeded) => shed += 1,
            Err(e) => panic!("flooder response error: {e}"),
        }
    }
    // Drain what is still in flight so the connection closes cleanly.
    while client.in_flight() > 0 {
        let (_, result) = client.recv_response().expect("server alive");
        if result.is_ok() {
            answered += 1;
        } else {
            shed += 1;
        }
    }
    (answered, shed)
}

fn bench_soak(c: &mut Criterion) {
    let ids = [
        "serving/soak_steady_p99",
        "serving/soak_steady_p99_flooded",
        "serving/soak_fairness_jain",
    ];
    if !ids.iter().any(|id| c.is_selected(id)) {
        return;
    }
    criterion::set_worker_threads(rayon::current_num_threads());
    let system = system();
    let shots: Vec<Shot> = system.test_data().shots().to_vec();
    let direct =
        BatchDiscriminator::new(system.discriminators()).classify_shots_on(Backend::Float, &shots);
    // Bench mode soaks long enough for stable percentiles; test mode
    // (CI smoke) just proves the machinery end to end.
    let run = if c.is_bench() {
        Duration::from_millis(1200)
    } else {
        Duration::from_millis(250)
    };

    // Phase 1: the steady tenant alone — the p99 everything else is
    // judged against.
    let (fleet, server) = start_server(&system, vec![TenantSpec::new("steady", 4)]);
    let baseline = steady_loop(&server, &shots, &direct, TenantId(0), run);
    server.shutdown();
    fleet.shutdown();
    let baseline_p99 = baseline.quantile(0.99);
    println!(
        "soak baseline: {} requests, p50 {:?}, p99 {:?}",
        baseline.count(),
        Duration::from_nanos(baseline.quantile(0.50)),
        Duration::from_nanos(baseline_p99),
    );

    // Phase 2: the same steady workload under adversarial load. The
    // flooder's quota keeps its backlog (and thus everyone's queue
    // depth) bounded; its weight-1 share is what DRR grants it.
    let (fleet, server) = start_server(
        &system,
        vec![
            TenantSpec::new("steady", 4),
            TenantSpec::new("bursty", 1).with_quota(4096),
            TenantSpec::new("flood", 1).with_quota(4096),
        ],
    );
    let stop = AtomicBool::new(false);
    let flooded = std::thread::scope(|scope| {
        let mut adversaries = Vec::new();
        for (tenant, bursty, salt) in [(TenantId(1), true, 1u64), (TenantId(2), false, 2)] {
            let (server, shots, stop) = (&server, &shots, &stop);
            adversaries.push(scope.spawn(move || {
                let mut chaos = Chaos::new(0x51_4B_50_AA).derive(salt);
                // Run longer than the steady loop so the attack never
                // lets up mid-measurement; `stop` cuts it off after.
                flood_loop(server, shots, tenant, &mut chaos, bursty, run * 4, stop)
            }));
        }
        // Let the adversaries saturate their queues before measuring.
        std::thread::sleep(Duration::from_millis(50));
        let hist = steady_loop(&server, &shots, &direct, TenantId(0), run);
        stop.store(true, Ordering::Relaxed);
        for handle in adversaries {
            let (answered, shed) = handle.join().expect("flooder thread");
            println!("soak adversary: {answered} answered, {shed} shed");
        }
        hist
    });
    let stats = fleet.stats();
    println!(
        "soak server:   {} requests, {} batches (mean {:.1} shots, {} expedited)",
        stats.requests,
        stats.batches,
        stats.mean_batch_shots(),
        stats.expedited_batches,
    );
    server.shutdown();
    fleet.shutdown();
    let flooded_p99 = flooded.quantile(0.99);
    println!(
        "soak flooded:  {} requests, p50 {:?}, p99 {:?}",
        flooded.count(),
        Duration::from_nanos(flooded.quantile(0.50)),
        Duration::from_nanos(flooded_p99),
    );
    // Isolation: the flooder must not move the steady tenant's tail by
    // more than 2×. The floor absorbs OS scheduling jitter — with more
    // runnable threads than cores (CI boxes run this on 1–2 CPUs) the
    // tail carries multi-millisecond CFS timeslices that no queueing
    // discipline can remove. The assert still catches the failure mode
    // it exists for: without fair intake, a backlogged flooder delays
    // the steady tenant by its whole quota (128 batches ≈ 50 ms+ here),
    // far past the floor.
    let bound = (2 * baseline_p99).max(25_000_000);
    if chaos_active() {
        println!("soak: KLINQ_CHAOS_SEED set, skipping latency/fairness assertions");
    } else {
        assert!(
            flooded_p99 <= bound,
            "steady p99 {flooded_p99} ns under flood exceeds {bound} ns \
             (2x solo baseline {baseline_p99} ns)"
        );
    }

    // Phase 3: three equal-weight backlogged flooders — DRR should split
    // service evenly, and the Jain index over achieved shots says so.
    let (fleet, server) = start_server(
        &system,
        vec![
            TenantSpec::new("a", 1).with_quota(4096),
            TenantSpec::new("b", 1).with_quota(4096),
            TenantSpec::new("c", 1).with_quota(4096),
        ],
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for (t, salt) in [(0u32, 10u64), (1, 11), (2, 12)] {
            let (server, shots, stop) = (&server, &shots, &stop);
            scope.spawn(move || {
                let mut chaos = Chaos::new(0x51_4B_50_BB).derive(salt);
                flood_loop(server, shots, TenantId(t), &mut chaos, false, run, stop)
            });
        }
    });
    let per_tenant = fleet.tenant_stats();
    server.shutdown();
    fleet.shutdown();
    let achieved: Vec<f64> = per_tenant.iter().map(|t| t.shots as f64).collect();
    let jain = jain_index(&achieved);
    println!("soak fairness: achieved shots {achieved:?}, Jain index {jain:.4}");
    if !chaos_active() {
        assert!(
            jain >= 0.9,
            "Jain index {jain:.4} across equal-weight tenants below 0.9 ({achieved:?})"
        );
    }

    if c.is_bench() {
        criterion::record_measurement(ids[0], baseline_p99 as f64, None);
        criterion::record_measurement(ids[1], flooded_p99 as f64, None);
        // ns_per_iter carries the phase wall-clock (uninteresting); the
        // tracked figure is the index itself, higher is better.
        criterion::record_measurement(
            ids[2],
            run.as_nanos() as f64,
            Some((jain, "index")),
        );
    } else {
        println!("serving/soak_*: ok (test mode)");
    }
}

criterion_group!(benches, bench_soak);

fn main() {
    let mut criterion = Criterion::from_args();
    benches(&mut criterion);
    // Soak results belong in the inference trajectory file, next to the
    // other `serving/*` figures — which the `serving` bench binary owns,
    // so merge id-granular: the group-wholesale default would wipe its
    // entries whenever the soak runs alone.
    criterion::write_json_report_as_shared("inference");
}
