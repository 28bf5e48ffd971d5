//! Load generators: the closed loops (direct, in-process, wire) and the
//! open-loop stream, each checking every answer against the direct
//! `classify_shots_on` result.

use crate::setup::{Pool, Shape};
use crate::stats::Latencies;
use crate::trace::Spans;
use klinq_core::{Backend, BatchDiscriminator, ShotStates};
use klinq_serve::{
    ReadoutClient, RequestOptions, ServeError, ShardedReadoutServer, Shot, TenantId, WireClient,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one load phase did, merged over its threads.
pub struct Outcome {
    /// Requests the generator tried to send.
    pub attempted: u64,
    /// Requests answered with an error (shed, deadline, disconnect,
    /// shard down, ...).
    pub failed: u64,
    /// Requests refused at submission (never queued).
    pub refused: u64,
    /// Requests answered with states that differ from the direct answer.
    pub mismatched: u64,
    /// Requests never answered.
    pub missing: u64,
    /// Shots answered correctly.
    pub shots: u64,
    /// Wall time of the measured phase.
    pub elapsed: Duration,
    /// Per-request latency (from the due time, for the open loop).
    pub lat: Latencies,
    /// The same latencies in [`WINDOWS`] equal time windows of the
    /// measured phase, by completion time; answers drained after the
    /// phase fall in none.
    pub windows: Vec<Latencies>,
    t0: Instant,
    window: Duration,
    /// Open loop only: how late the generator sent each request.
    pub late: Latencies,
    /// Pool slots answered correctly at least once.
    pub covered: Vec<bool>,
    /// Spans, when traced.
    pub spans: Spans,
}

/// Equal time windows a measured phase is split into. The reported
/// percentiles are medians over windows, so a scheduling hiccup of the
/// shared machine moves the few windows it lands in rather than the
/// figure. Windows are cut by time, not by answer count: a closed loop
/// answers more often while it is fast, and count windows would
/// over-weight its fast stretches.
pub const WINDOWS: u32 = 20;

impl Outcome {
    /// An empty outcome for a phase running from `t0` to `end`.
    fn new(slots: usize, epoch: Instant, t0: Instant, end: Instant) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            refused: 0,
            mismatched: 0,
            missing: 0,
            shots: 0,
            elapsed: Duration::ZERO,
            lat: Latencies::default(),
            windows: vec![Latencies::default(); WINDOWS as usize],
            t0,
            window: end.saturating_duration_since(t0) / WINDOWS,
            late: Latencies::default(),
            covered: vec![false; slots],
            spans: Spans::new(epoch),
        }
    }

    /// Failed, refused, mismatched and missing requests.
    pub fn bad(&self) -> u64 {
        self.failed + self.refused + self.mismatched + self.missing
    }

    /// Whether every answer that arrived was the direct one and every
    /// request got an answer.
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.missing == 0
    }

    /// Shots per second over the measured phase.
    pub fn shots_per_s(&self) -> f64 {
        self.shots as f64 / self.elapsed.as_secs_f64()
    }

    /// Records one request's latency, completed at `at`.
    fn record(&mut self, ns: u64, at: Instant) {
        self.lat.record(ns);
        let idx = at.saturating_duration_since(self.t0).as_nanos() / self.window.as_nanos().max(1);
        if let Some(w) = self.windows.get_mut(idx as usize) {
            w.record(ns);
        }
    }

    /// Checks one answer for pool slot `slot` and records it.
    fn settle(
        &mut self,
        pool: &Pool,
        size: usize,
        slot: usize,
        result: Result<Vec<ShotStates>, ServeError>,
    ) {
        match result {
            Ok(states) if states[..] == pool.direct[slot * size..(slot + 1) * size] => {
                self.shots += size as u64;
                self.covered[slot] = true;
            }
            Ok(_) => self.mismatched += 1,
            Err(_) => self.failed += 1,
        }
    }

    fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.refused += other.refused;
        self.mismatched += other.mismatched;
        self.missing += other.missing;
        self.shots += other.shots;
        self.lat.merge(&other.lat);
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            mine.merge(theirs);
        }
        self.late.merge(&other.late);
        for (mine, theirs) in self.covered.iter_mut().zip(other.covered) {
            *mine |= theirs;
        }
        self.spans.append(other.spans);
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// One caller streaming `block`-shot acquisition blocks through
/// `classify_shots_on`, closed loop, until `end`.
pub fn direct(
    batch: &BatchDiscriminator<'_>,
    backend: Backend,
    pool: &Pool,
    block: usize,
    end: Instant,
    epoch: Instant,
    traced: bool,
) -> Outcome {
    let slots = pool.slots(block);
    let t0 = Instant::now();
    let mut out = Outcome::new(slots, epoch, t0, end);
    let mut g = 0u64;
    while Instant::now() < end {
        let slot = (g % slots as u64) as usize;
        let shots = &pool.shots[slot * block..(slot + 1) * block];
        out.attempted += 1;
        let start = Instant::now();
        let states = batch.classify_shots_on(backend, shots);
        let done = Instant::now();
        out.settle(pool, block, slot, Ok(states));
        out.record(ns(done - start), done);
        if traced {
            let checked = Instant::now();
            let root = out.spans.push("request", start, checked, None, g);
            out.spans.push("batch.classify", start, done, Some(root), g);
            out.spans.push("gate.check", done, checked, Some(root), g);
        }
        g += 1;
    }
    out.elapsed = t0.elapsed();
    out
}

/// Pool slot, device and tenant of the `g`-th request of a closed loop.
fn route(shape: &Shape, slots: usize, g: u64) -> (usize, usize, u32) {
    let slot = (g % slots as u64) as usize;
    let device = (g % shape.devices as u64) as usize;
    (slot, device, shape.tenant_of(g))
}

fn options(shape: &Shape, tenant: u32) -> RequestOptions {
    RequestOptions::new()
        .priority(shape.priority)
        .tenant(TenantId(tenant))
}

/// Closed loop over the wire: one thread per client, `shape.depth`
/// requests in flight on each, until `end`; then drains.
pub fn wire(
    clients: &mut [WireClient],
    shape: &Shape,
    pool: &Pool,
    end: Instant,
    epoch: Instant,
    traced: bool,
) -> Outcome {
    let slots = pool.slots(shape.shots);
    let threads = clients.len() as u64;
    let t0 = Instant::now();
    let mut total = Outcome::new(slots, epoch, t0, end);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                scope.spawn(move || {
                    let mut out = Outcome::new(slots, epoch, t0, end);
                    // Request id -> (g, slot, submit time).
                    let mut inflight: HashMap<u64, (u64, usize, Instant)> = HashMap::new();
                    let mut k = 0u64;
                    let mut submit =
                        |client: &mut WireClient,
                         out: &mut Outcome,
                         inflight: &mut HashMap<_, _>| {
                            let g = k * threads + t as u64;
                            k += 1;
                            let (slot, device, tenant) = route(shape, slots, g);
                            let shots = &pool.shots[slot * shape.shots..(slot + 1) * shape.shots];
                            out.attempted += 1;
                            let start = Instant::now();
                            match client.submit_to_opts(
                                device as u16,
                                options(shape, tenant),
                                shots,
                            ) {
                                Ok(id) => {
                                    if traced {
                                        out.spans.push(
                                            "wire.submit",
                                            start,
                                            Instant::now(),
                                            None,
                                            g,
                                        );
                                    }
                                    inflight.insert(id, (g, slot, start));
                                }
                                Err(_) => out.refused += 1,
                            }
                        };
                    for _ in 0..shape.depth {
                        submit(client, &mut out, &mut inflight);
                    }
                    while !inflight.is_empty() {
                        let Ok((id, result)) = client.recv_response() else {
                            break;
                        };
                        let done = Instant::now();
                        let Some((g, slot, start)) = inflight.remove(&id) else {
                            out.mismatched += 1;
                            continue;
                        };
                        out.settle(pool, shape.shots, slot, result);
                        out.record(ns(done - start), done);
                        if traced {
                            out.spans.push("request", start, done, None, g);
                        }
                        if done < end {
                            submit(client, &mut out, &mut inflight);
                        }
                    }
                    out.missing += inflight.len() as u64;
                    out
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("wire load thread"));
        }
    });
    total.elapsed = t0.elapsed();
    total.spans.link_children_to("request");
    total
}

/// Closed loop through in-process clients: `shape.threads` threads,
/// `shape.depth` requests in flight on each, until `end`; then drains.
pub fn inproc(
    fleet: &ShardedReadoutServer,
    shape: &Shape,
    pool: &Pool,
    end: Instant,
    epoch: Instant,
    traced: bool,
) -> Outcome {
    let slots = pool.slots(shape.shots);
    let threads = shape.threads as u64;
    let clients: Vec<ReadoutClient> = (0..shape.devices).map(|d| fleet.client(d)).collect();
    let t0 = Instant::now();
    let mut total = Outcome::new(slots, epoch, t0, end);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.threads)
            .map(|t| {
                let clients = &clients;
                scope.spawn(move || {
                    let mut out = Outcome::new(slots, epoch, t0, end);
                    type Done = (u64, Instant, Result<Vec<ShotStates>, ServeError>);
                    let (tx, rx) = mpsc::channel::<Done>();
                    let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
                    let mut k = 0u64;
                    let mut submit = |out: &mut Outcome, inflight: &mut HashMap<_, _>| {
                        let g = k * threads + t as u64;
                        k += 1;
                        let (slot, device, tenant) = route(shape, slots, g);
                        let shots =
                            pool.shots[slot * shape.shots..(slot + 1) * shape.shots].to_vec();
                        let tx = tx.clone();
                        out.attempted += 1;
                        let start = Instant::now();
                        let sent =
                            clients[device].submit_opts(options(shape, tenant), shots, move |r| {
                                let _ = tx.send((g, Instant::now(), r));
                            });
                        match sent {
                            Ok(()) => {
                                if traced {
                                    out.spans
                                        .push("serve.submit", start, Instant::now(), None, g);
                                }
                                inflight.insert(g, (slot, start));
                            }
                            Err(_) => out.refused += 1,
                        }
                    };
                    for _ in 0..shape.depth {
                        submit(&mut out, &mut inflight);
                    }
                    while !inflight.is_empty() {
                        let Ok((g, done, result)) = rx.recv_timeout(Duration::from_secs(30)) else {
                            break;
                        };
                        let Some((slot, start)) = inflight.remove(&g) else {
                            out.mismatched += 1;
                            continue;
                        };
                        out.settle(pool, shape.shots, slot, result);
                        out.record(ns(done - start), done);
                        if traced {
                            out.spans.push("request", start, done, None, g);
                        }
                        if Instant::now() < end {
                            submit(&mut out, &mut inflight);
                        }
                    }
                    out.missing += inflight.len() as u64;
                    out
                })
            })
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("in-process load thread"));
        }
    });
    total.elapsed = t0.elapsed();
    total.spans.link_children_to("request");
    total
}

/// Requests tenant 2 sends back to back in one burst.
const BURST: usize = 8;

/// Open loop through in-process clients, one generator thread: tenant 1
/// sends seeded Poisson arrivals, tenant 2 the same requests in bursts,
/// at 3:1 of `rate` shots/s together; requests alternate between
/// devices. Latency runs from each request's due time.
#[allow(clippy::too_many_arguments)]
pub fn stream(
    fleet: &ShardedReadoutServer,
    shape: &Shape,
    pool: &Pool,
    rate: f64,
    seed: u64,
    run: Duration,
    epoch: Instant,
    traced: bool,
) -> Outcome {
    let slots = pool.slots(shape.shots);
    let clients: Vec<ReadoutClient> = (0..shape.devices).map(|d| fleet.client(d)).collect();
    let t0 = Instant::now();
    let mut out = Outcome::new(slots, epoch, t0, t0 + run);
    type Done = (u64, Instant, Result<Vec<ShotStates>, ServeError>);
    let (tx, rx) = mpsc::channel::<Done>();
    // Request -> (slot, due, submitted).
    let mut inflight: HashMap<u64, (usize, Instant, Instant)> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let per_req = shape.shots as f64;
    let steady_gap = per_req / (0.75 * rate);
    let burst_gap = BURST as f64 * per_req / (0.25 * rate);
    let at = |s: f64| t0 + Duration::from_secs_f64(s);
    let mut next_steady = -steady_gap * (1.0 - rng.gen::<f64>()).ln();
    let mut next_burst = burst_gap * rng.gen::<f64>();
    let mut g = 0u64;
    let settle =
        |out: &mut Outcome, inflight: &mut HashMap<u64, (usize, Instant, Instant)>, done: Done| {
            let (g, at_done, result) = done;
            if let Some((slot, due, sent)) = inflight.remove(&g) {
                out.settle(pool, shape.shots, slot, result);
                out.record(ns(at_done - due), at_done);
                if traced {
                    let root = out.spans.push("request", due, at_done, None, g);
                    out.spans.push("loadgen.late", due, sent, Some(root), g);
                }
            } else {
                out.mismatched += 1;
            }
        };
    loop {
        let burst = next_burst <= next_steady;
        let (due_s, tenant, count) = if burst {
            (next_burst, 2, BURST)
        } else {
            (next_steady, 1, 1)
        };
        if due_s >= run.as_secs_f64() {
            break;
        }
        let due = at(due_s);
        // Copy the arrival's shots before its due time: the in-process
        // API takes them by value, and that copy is the generator's work,
        // which must not make the request late.
        let prepared: Vec<(u64, usize, Vec<Shot>)> = (g..g + count as u64)
            .map(|g| {
                let slot = (g % slots as u64) as usize;
                (
                    g,
                    slot,
                    pool.shots[slot * shape.shots..(slot + 1) * shape.shots].to_vec(),
                )
            })
            .collect();
        g += count as u64;
        // Collect what finished while waiting, then sleep out the gap.
        while let Ok(done) = rx.try_recv() {
            settle(&mut out, &mut inflight, done);
        }
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        for (g, slot, shots) in prepared {
            let device = (g % shape.devices as u64) as usize;
            let tx = tx.clone();
            let opts = RequestOptions::new()
                .priority(shape.priority)
                .tenant(TenantId(tenant));
            out.attempted += 1;
            let sent = Instant::now();
            out.late.record(ns(sent.saturating_duration_since(due)));
            match clients[device].submit_opts(opts, shots, move |r| {
                let _ = tx.send((g, Instant::now(), r));
            }) {
                Ok(()) => {
                    if traced {
                        out.spans
                            .push("serve.submit", sent, Instant::now(), None, g);
                    }
                    inflight.insert(g, (slot, due, sent));
                }
                Err(_) => out.refused += 1,
            }
        }
        if burst {
            next_burst += burst_gap;
        } else {
            next_steady += -steady_gap * (1.0 - rng.gen::<f64>()).ln();
        }
    }
    while !inflight.is_empty() {
        let Ok(done) = rx.recv_timeout(Duration::from_secs(30)) else {
            break;
        };
        settle(&mut out, &mut inflight, done);
    }
    out.missing += inflight.len() as u64;
    out.elapsed = t0.elapsed();
    out.spans.link_children_to("request");
    out
}
