//! The repo benchmark: four readout workloads driven against the public
//! APIs, every answer checked against direct `classify_shots_on`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_float|bulk_wire_hw|feedback_hw|stream_inproc|all> \
//!     --seed <n> --seconds <s> --trace <0|1> --offered-rate <shots/s>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and traced, replays its request shape down the
//! layers, and prints the per-layer metrics and a waterfall. The last
//! line of standard output is one JSON object with the result. The run
//! exits non-zero when any answer differs from the direct one or goes
//! missing.
//!
//! Why these workloads:
//!
//! - `offline_float`: the paper's inference throughput. One caller
//!   streams acquisition blocks from a shot set larger than the L3
//!   through `classify_shots_on(Float)`; no serve or wire code runs, so
//!   it is the bypass workload for every serving change.
//! - `bulk_wire_hw`: a 1-device Q16.16 fleet behind the wire server, two
//!   connections each with one 256-shot request in flight. Kernels and
//!   codec bytes dominate; per-request overhead is small.
//! - `feedback_hw`: the mid-circuit use. 64 feed-forward loops, 32 per
//!   pipelined connection, each sending one shot at `Priority::Latency`.
//!   Per-request costs dominate: framing, reactor wake, expedited batch
//!   close and scatter.
//! - `stream_inproc`: an open loop of 32-shot requests from two tenants
//!   (3:1 weights, Poisson and bursty) over a 2-device float fleet,
//!   in-process. Linger, DRR, queue wait and routing work; the wire does
//!   none.

mod ledger;
mod load;
mod setup;
mod stats;
mod trace;

use klinq_core::{Backend, BatchDiscriminator};
use klinq_serve::{Priority, ServeConfig, ServeStats, TenantStats};
use setup::{Deployment, Front, Pool, Shape};
use stats::median;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run before the measured phase; `setup_s` is the median
/// of these and the late ones.
const SETUPS: usize = 5;
/// Set-ups after the measured phase, as many as before. A shared host
/// can halve set-up speed for seconds at a time, so set-ups at both ends
/// of a run sample two of its states, and when they differ the median
/// lands between them instead of on whichever one the run started in.
const LATE_SETUPS: usize = SETUPS;
/// Unmeasured load before the measured phase, so the pool threads, the
/// scratch buffers and the connections are warm.
const WARMUP: Duration = Duration::from_millis(500);
/// Shots the stage kernels are timed over.
const KERNEL_SHOTS: usize = 512;
/// Shots in every workload's seeded pool: ~6 KB each, so ~49 MB, past a
/// 32 MB L3; and enough shots that the assignment fidelity of one seed
/// lies within ~1% of another's.
const POOL_SHOTS: usize = 8192;

/// A workload: its request shape and front end.
struct Workload {
    name: &'static str,
    shape: Shape,
    front: Front,
    /// Whether its headline is throughput (ns per shot) rather than the
    /// median request latency.
    throughput: bool,
}

fn workloads() -> [Workload; 4] {
    let shape = |backend, devices, threads, depth, shots, priority, tenants| Shape {
        backend,
        devices,
        threads,
        depth,
        shots,
        priority,
        tenants,
    };
    [
        Workload {
            name: "offline_float",
            shape: shape(Backend::Float, 1, 1, 1, 1024, Priority::Throughput, false),
            front: Front::Direct,
            throughput: true,
        },
        Workload {
            name: "bulk_wire_hw",
            shape: shape(Backend::Hardware, 1, 2, 1, 256, Priority::Throughput, false),
            front: Front::Wire,
            throughput: true,
        },
        Workload {
            name: "feedback_hw",
            shape: shape(Backend::Hardware, 1, 2, 32, 1, Priority::Latency, false),
            front: Front::Wire,
            throughput: false,
        },
        Workload {
            name: "stream_inproc",
            // `depth` is set from the open loop's own concurrency when
            // the ledger replays it closed-loop.
            shape: shape(Backend::Float, 2, 1, 1, 32, Priority::Throughput, true),
            front: Front::InProc,
            throughput: false,
        },
    ]
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    offered_rate: Option<f64>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <offline_float|bulk_wire_hw|feedback_hw|stream_inproc|all> \
         --seed <n> --seconds <s> --trace <0|1> --offered-rate <shots/s>"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        offered_rate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        fn num<T: std::str::FromStr>(flag: &str, value: &str) -> T {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("bad value for {flag}: {value}")))
        }
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = num(&flag, &value),
            "--seconds" => args.seconds = num(&flag, &value),
            "--trace" => args.trace = num::<u8>(&flag, &value) == 1,
            "--offered-rate" => args.offered_rate = Some(num(&flag, &value)),
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    args
}

/// One named figure.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What one workload run produced.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

fn main() {
    let args = parse_args();
    let all = workloads();
    let chosen: Vec<&Workload> = if args.workload == "all" {
        all.iter().collect()
    } else {
        match all.iter().find(|w| w.name == args.workload) {
            Some(w) => vec![w],
            None => usage(&format!("unknown workload '{}'", args.workload)),
        }
    };
    if chosen.iter().any(|w| w.front == Front::InProc) && args.offered_rate.is_none() {
        usage("stream_inproc needs --offered-rate");
    }
    let out_dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
            .join("perfbench");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench seed={} seconds={} trace={} nproc={nproc} engine_pool_threads={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads()
    );
    // The model trains once, before anything is timed; set-up loads it.
    let artifact = setup::train_artifact(&run_dir);
    let mut reports = Vec::new();
    for w in &chosen {
        let report = run(w, &args, &artifact, &out_dir);
        reports.push((w.name, report));
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let single = reports.len() == 1;
    let correct = reports.iter().all(|(_, r)| r.correct);
    let attempted: u64 = reports.iter().map(|(_, r)| r.attempted).sum();
    let failed: u64 = reports.iter().map(|(_, r)| r.failed).sum();
    let mut json = Vec::new();
    for (name, r) in &reports {
        for m in &r.metrics {
            assert!(m.value.is_finite(), "{name}: {} is not finite", m.name);
            let key = if single {
                m.name.clone()
            } else {
                format!("{name}.{}", m.name)
            };
            json.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one load phase of `w` against `dep` for `run`.
#[allow(clippy::too_many_arguments)]
fn phase(
    w: &Workload,
    dep: &mut Deployment,
    pool: &Pool,
    args: &Args,
    salt: u64,
    run: Duration,
    epoch: Instant,
    traced: bool,
) -> load::Outcome {
    let end = Instant::now() + run;
    match w.front {
        Front::Direct => {
            let engine = BatchDiscriminator::new(dep.systems[0].discriminators());
            load::direct(
                &engine,
                w.shape.backend,
                pool,
                w.shape.shots,
                end,
                epoch,
                traced,
            )
        }
        Front::Wire => load::wire(&mut dep.clients, &w.shape, pool, end, epoch, traced),
        Front::InProc => {
            let rate = args.offered_rate.expect("checked at start");
            load::stream(
                dep.fleet(),
                &w.shape,
                pool,
                rate,
                args.seed ^ salt,
                run,
                epoch,
                traced,
            )
        }
    }
}

/// Headline figure of a phase: ns per shot for throughput workloads,
/// median µs per request for latency workloads.
fn headline(w: &Workload, o: &load::Outcome) -> f64 {
    if w.throughput {
        1e9 / o.shots_per_s()
    } else {
        o.lat.summary().p50_us
    }
}

fn run(w: &Workload, args: &Args, artifact: &Path, out_dir: &Path) -> Report {
    println!("workload {}", w.name);
    // Set up several times; keep the last deployment.
    let mut times = Vec::new();
    let mut dep = None;
    for _ in 0..SETUPS {
        if let Some(old) = dep.take() {
            Deployment::stop(old);
        }
        let (d, t) = Deployment::start(artifact, &w.shape, w.front);
        times.push(t);
        dep = Some(d);
    }
    let mut dep = dep.expect("at least one set-up");
    let load_ms = median(
        &times
            .iter()
            .map(|t| t.load.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    let start_ms = median(
        &times
            .iter()
            .map(|t| t.start.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );

    let pool = Pool::generate(&dep.systems[0], w.shape.backend, POOL_SHOTS, args.seed);
    let epoch = Instant::now();
    let seconds = Duration::from_secs_f64(args.seconds);
    // A traced run spends about as long as an untraced one: a third
    // untraced, a third traced, the rest replaying down the layers.
    let measure = if args.trace { seconds / 3 } else { seconds };

    let warm = phase(w, &mut dep, &pool, args, 1, WARMUP, epoch, false);
    let untraced = phase(w, &mut dep, &pool, args, 2, measure, epoch, false);
    let mut correct = warm.correct() && untraced.correct();
    print_outcome("measured", &untraced);

    let mut report = Report {
        correct,
        attempted: untraced.attempted,
        failed: untraced.bad(),
        metrics: Vec::new(),
    };
    if !args.trace {
        let mut windows: Vec<stats::Summary> = untraced
            .windows
            .iter()
            .filter(|w| w.count() > 0)
            .map(|w| w.summary())
            .collect();
        if windows.is_empty() {
            windows.push(untraced.lat.summary());
        }
        dep.stop();
        for _ in 0..LATE_SETUPS {
            let (d, t) = Deployment::start(artifact, &w.shape, w.front);
            times.push(t);
            d.stop();
        }
        let setup_s = median(
            &times
                .iter()
                .map(|t| t.total().as_secs_f64())
                .collect::<Vec<_>>(),
        );
        let ok_ratio = (untraced.attempted - untraced.bad()) as f64 / untraced.attempted as f64;
        let of = |f: fn(&stats::Summary) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        let p99 = of(|w| w.p99_us);
        let beyond = untraced.lat.above(p99);
        if beyond < stats::MIN_BEYOND {
            eprintln!("perfbench: only {beyond} answers beyond the p99: run longer");
            report.correct = false;
        }
        report.put("latency_p90_us", of(|w| w.p90_us), "us");
        report.put("ok_ratio", ok_ratio, "ratio");
        report.put(
            "assignment_fidelity",
            pool.fidelity(&untraced.covered, w.shape.shots),
            "ratio",
        );
        report.put("setup_s", setup_s, "s");
        report.put("peak_rss_mb", peak_rss_mb(), "MB");
        print_metrics(&report);
        // Printed, not gated: every gated metric must hold its bound on
        // every workload. feedback_hw's median and throughput swing from
        // run to run with the wire stall's regime, and on a shared 2-core
        // host the p99 of a sub-millisecond request is mostly the host's
        // own preemptions, so it swings on offline_float and stream_inproc.
        println!("  {:<30} {:>16.4} us", "latency_p50_us", of(|w| w.p50_us));
        println!("  {:<30} {:>16.4} us", "latency_p99_us", p99);
        println!(
            "  {:<30} {:>16.4} shots/s",
            "shots_per_s",
            untraced.shots_per_s()
        );
        println!("  {:<30} {:>16.6} ratio", "fail_ratio", 1.0 - ok_ratio);
        let spread = |f: fn(&stats::Summary) -> f64| {
            let v: Vec<f64> = windows.iter().map(f).collect();
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, 0.0f64), |(l, h), &x| (l.min(x), h.max(x)));
            format!("min {lo:.1}, median {:.1}, max {hi:.1}", median(&v))
        };
        let fewest = untraced
            .windows
            .iter()
            .map(|w| w.count())
            .min()
            .unwrap_or(0);
        println!(
            "  {} answers in {} time windows (fewest in one: {fewest}); {beyond} beyond the p99",
            untraced.lat.count(),
            windows.len()
        );
        println!("  window p50 us: {}", spread(|w| w.p50_us));
        println!("  window p90 us: {}", spread(|w| w.p90_us));
        println!("  window p99 us: {}", spread(|w| w.p99_us));
        println!(
            "  generator lateness p99 {:.1} us",
            untraced.late.summary().p99_us
        );
        let covered = untraced.covered.iter().filter(|&&c| c).count();
        println!(
            "  pool slots served: {covered} of {}",
            untraced.covered.len()
        );
        return report;
    }

    let traced = phase(w, &mut dep, &pool, args, 3, measure, epoch, true);
    correct &= traced.correct();
    print_outcome("traced", &traced);
    let served = dep.fleet.as_ref().map(|f| (f.stats(), f.tenant_stats()));
    let ledger = Ledger::build(
        w, &dep, &pool, artifact, seconds, epoch, &untraced, &traced, served,
    );
    correct &= ledger.correct;
    dep.stop();

    let stats = &ledger.stats;
    let (tenant_reqs, tenant_shed): (u64, u64) = ledger
        .tenants
        .iter()
        .fold((0, 0), |(r, s), t| (r + t.requests, s + t.shed));
    let active: Vec<f64> = ledger
        .tenants
        .iter()
        .filter(|t| t.requests + t.shed > 0)
        .map(|t| t.shots as f64 / f64::from(t.weight))
        .collect();
    let max_batch = ServeConfig::default().max_batch_shots as f64;
    let k = &ledger.kernels;
    let batch = &ledger.batch;
    let inproc = ledger.inproc.lat.summary();
    let wire = ledger.wire_summary;
    report.correct = correct;
    report.put("persist.load_ms", load_ms, "ms");
    report.put(
        "serve.start_ms",
        if w.front == Front::Direct {
            ledger.replay_start_ms
        } else {
            start_ms
        },
        "ms",
    );
    report.put("dsp.extract_ns_per_qshot", k.dsp, "ns");
    report.put("nn.forward_ns_per_qshot", k.nn, "ns");
    report.put("fpga.infer_ns_per_qshot", k.fpga, "ns");
    report.put("batch.classify_ns_per_shot", batch.ns_per_shot, "ns");
    report.put(
        "batch.self_ns_per_shot",
        batch.ns_per_shot - k.per_shot(w.shape.backend) / batch.parallelism,
        "ns",
    );
    report.put("serve.inproc_p50_us", inproc.p50_us, "us");
    report.put("serve.inproc_p99_us", inproc.p99_us, "us");
    report.put("serve.self_us", inproc.p50_us - batch.call.p50_us, "us");
    report.put("serve.mean_batch_shots", stats.mean_batch_shots(), "shots");
    report.put(
        "serve.batch_fill",
        stats.mean_batch_shots() / max_batch,
        "ratio",
    );
    report.put(
        "serve.expedited_share",
        stats.expedited_batches as f64 / stats.batches.max(1) as f64,
        "ratio",
    );
    report.put(
        "sched.shed_ratio",
        tenant_shed as f64 / (tenant_reqs + tenant_shed).max(1) as f64,
        "ratio",
    );
    report.put(
        "sched.jain",
        klinq_bench::hist::jain_index(&active),
        "index",
    );
    report.put("wire.encode_ns_per_shot", ledger.codec.encode, "ns");
    report.put("wire.decode_ns_per_shot", ledger.codec.decode, "ns");
    report.put(
        "wire.resp_encode_ns_per_shot",
        ledger.codec.resp_encode,
        "ns",
    );
    report.put("wire.bytes_per_shot", ledger.codec.bytes, "B");
    report.put("wire.submit_us", ledger.wire_submit_us, "us");
    report.put("wire.self_us", wire.p50_us - inproc.p50_us, "us");
    report.put("wire.stall_share", wire.stall_share, "ratio");
    report.put("supervise.panics", stats.panics as f64, "count");
    report.put("supervise.restarts", stats.restarts as f64, "count");
    report.put("shard.failovers", stats.failovers as f64, "count");
    report.put("loadgen.late_p99_us", traced.late.summary().p99_us, "us");
    report.put(
        "trace.unattributed_share",
        ledger.waterfall.unattributed_share(),
        "ratio",
    );
    report.put(
        "trace.overhead",
        headline(w, &traced) / headline(w, &untraced) - 1.0,
        "ratio",
    );
    print_metrics(&report);
    ledger.waterfall.print(w.name);
    let path = out_dir.join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
    match ledger.spans.write_tsv(&path) {
        Ok(()) => println!("  spans: {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
    report
}

fn print_outcome(label: &str, o: &load::Outcome) {
    let s = o.lat.summary();
    let tail = s.tail_q.map_or("none".to_string(), |q| {
        format!("p{} = {:.1} us", q * 100.0, s.tail_us)
    });
    println!(
        "  {label}: {} requests ({} bad: {} failed, {} refused, {} mismatched, {} missing), {:.3} s, \
         latency n={} tail {tail}",
        o.attempted,
        o.bad(),
        o.failed,
        o.refused,
        o.mismatched,
        o.missing,
        o.elapsed.as_secs_f64(),
        s.n
    );
}

fn print_metrics(r: &Report) {
    for m in &r.metrics {
        println!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// The traced run's per-layer evidence.
struct Ledger {
    correct: bool,
    kernels: ledger::Kernels,
    batch: ledger::BatchRung,
    codec: ledger::Codec,
    inproc: load::Outcome,
    wire_summary: stats::Summary,
    wire_submit_us: f64,
    stats: ServeStats,
    tenants: Vec<TenantStats>,
    replay_start_ms: f64,
    waterfall: ledger::Waterfall,
    spans: trace::Spans,
}

impl Ledger {
    #[allow(clippy::too_many_arguments)]
    fn build(
        w: &Workload,
        dep: &Deployment,
        pool: &Pool,
        artifact: &Path,
        seconds: Duration,
        epoch: Instant,
        untraced: &load::Outcome,
        traced: &load::Outcome,
        served: Option<(ServeStats, Vec<TenantStats>)>,
    ) -> Self {
        let system = &dep.systems[0];
        let backend = w.shape.backend;
        let mut spans = trace::Spans::new(epoch);
        let root = spans.push("e2e", epoch, epoch + traced.elapsed, None, 0);
        spans.append_under(traced.spans.clone(), root);

        // The replay shape: the open loop replays closed-loop at its own
        // concurrency (Little's law: arrival rate × median latency).
        let mut shape = w.shape;
        if w.front == Front::InProc {
            let rate = untraced.attempted as f64 / untraced.elapsed.as_secs_f64();
            shape.depth = (rate * untraced.lat.summary().p50_us * 1e-6)
                .round()
                .max(1.0) as usize;
        }
        let rung =
            |spans: &mut trace::Spans, name: &'static str, o: &load::Outcome, t0: Instant| {
                let id = spans.push(name, t0, t0 + o.elapsed, None, 0);
                spans.append_under(o.spans.clone(), id);
            };
        let replay = seconds / 10;
        let mut correct = true;

        // In-process rung.
        let (inproc, inproc_stats, replay_start_ms) = {
            let (mut d, times) = Deployment::start(artifact, &shape, Front::InProc);
            let warm = load::inproc(
                d.fleet(),
                &shape,
                pool,
                Instant::now() + WARMUP / 2,
                epoch,
                false,
            );
            let t0 = Instant::now();
            let o = load::inproc(d.fleet(), &shape, pool, t0 + replay, epoch, true);
            rung(&mut spans, "ledger.inproc", &o, t0);
            correct &= warm.correct() && o.correct();
            let stats = (d.fleet().stats(), d.fleet().tenant_stats());
            d.clients.clear();
            d.stop();
            (o, stats, times.start.as_secs_f64() * 1e3)
        };

        // Wire rung: the workload itself when it is served over the
        // wire, a replay otherwise.
        let (wire_summary, wire_spans) = if w.front == Front::Wire {
            (traced.lat.summary(), traced.spans.clone())
        } else {
            let (mut d, _) = Deployment::start(artifact, &shape, Front::Wire);
            let warm = load::wire(
                &mut d.clients,
                &shape,
                pool,
                Instant::now() + WARMUP / 2,
                epoch,
                false,
            );
            let t0 = Instant::now();
            let o = load::wire(&mut d.clients, &shape, pool, t0 + replay, epoch, true);
            rung(&mut spans, "ledger.wire", &o, t0);
            correct &= warm.correct() && o.correct();
            d.stop();
            (o.lat.summary(), o.spans)
        };
        let submits: Vec<f64> = wire_spans
            .durations("wire.submit")
            .map(|ns| ns as f64 / 1e3)
            .collect();
        let wire_submit_us = if submits.is_empty() {
            0.0
        } else {
            median(&submits)
        };

        let (stats, tenants) = served.unwrap_or(inproc_stats);
        let size = if w.front == Front::Direct {
            w.shape.shots
        } else {
            (stats.mean_batch_shots().round() as usize).max(1)
        };
        let t0 = Instant::now();
        let batch = ledger::batch_rung(system, backend, pool, size, seconds / 15);
        spans.push("ledger.batch", t0, Instant::now(), None, 0);
        let t0 = Instant::now();
        let kernels = ledger::kernels(
            system,
            &pool.shots[..KERNEL_SHOTS],
            Duration::from_millis(400),
        );
        spans.push("ledger.kernels", t0, Instant::now(), None, 0);
        let t0 = Instant::now();
        let codec = ledger::codec(pool, &shape, Duration::from_millis(300));
        spans.push("ledger.codec", t0, Instant::now(), None, 0);

        let waterfall = waterfall(w, traced, &kernels, &batch, &codec, &inproc);
        for (name, count, total, own) in trace::by_name(traced.spans.spans()) {
            println!(
                "  span {name:<16} n={count:<8} mean {:>10.2} us  self {:>10.2} us",
                total as f64 / count as f64 / 1e3,
                own as f64 / count as f64 / 1e3
            );
        }
        Self {
            correct,
            kernels,
            batch,
            codec,
            inproc,
            wire_summary,
            wire_submit_us,
            stats,
            tenants,
            replay_start_ms,
            waterfall,
            spans,
        }
    }
}

/// Charges the traced headline figure to the layers: kernel CPU costs
/// are spread over the threads a batch runs on, every other row is the
/// difference between two rungs of the ladder.
fn waterfall(
    w: &Workload,
    traced: &load::Outcome,
    k: &ledger::Kernels,
    batch: &ledger::BatchRung,
    codec: &ledger::Codec,
    inproc: &load::Outcome,
) -> ledger::Waterfall {
    let wire = w.front == Front::Wire;
    let (unit, scale, batch_cost, serve_cost, codec_cost) = if w.throughput {
        // ns per shot at the workload's concurrency.
        (
            "ns/shot",
            1.0 / batch.parallelism,
            batch.ns_per_shot,
            1e9 / inproc.shots_per_s(),
            codec.per_shot() / batch.parallelism,
        )
    } else {
        // µs per request at the median.
        (
            "us/request",
            batch.size as f64 / batch.parallelism / 1e3,
            batch.call.p50_us,
            inproc.lat.summary().p50_us,
            codec.per_shot() * w.shape.shots as f64 / 1e3,
        )
    };
    let mut rows = Vec::new();
    let mut kernel_sum = 0.0;
    let stages: &[(&'static str, f64)] = match w.shape.backend {
        Backend::Float => &[("dsp.extract", k.dsp), ("nn.forward", k.nn)],
        Backend::Hardware => &[("fpga.infer", k.fpga)],
    };
    for &(layer, per_qshot) in stages {
        let value = 5.0 * per_qshot * scale;
        kernel_sum += value;
        rows.push(ledger::Row { layer, value });
    }
    rows.push(ledger::Row {
        layer: "batch.self",
        value: batch_cost - kernel_sum,
    });
    if w.front != Front::Direct {
        rows.push(ledger::Row {
            layer: "serve.self",
            value: serve_cost - batch_cost,
        });
    }
    if wire {
        rows.push(ledger::Row {
            layer: "wire.codec",
            value: codec_cost,
        });
    }
    ledger::Waterfall {
        unit,
        total: headline(w, traced),
        rows,
    }
}
