//! The per-layer ledger: replays a workload's request shape down the
//! layers (wire, in-process server, `classify_shots_on` at the observed
//! batch size, the stage kernels and the codec calls) and charges the
//! end-to-end figure to them.

use crate::setup::{Pool, Shape};
use crate::stats::{median, Latencies, Summary};
use klinq_core::{Backend, BatchDiscriminator, KlinqSystem};
use klinq_dsp::TraceBatch;
use klinq_fpga::HwBatchScratch;
use klinq_nn::{BatchScratch, Matrix};
use klinq_serve::wire::codec;
use klinq_sim::Shot;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Stage-kernel costs, CPU ns per qubit-shot (one qubit of one shot),
/// averaged over the five qubits, on one thread.
#[derive(Debug, Clone, Copy)]
pub struct Kernels {
    /// `FeaturePipeline::extract_batch_into` over `TraceBatch` quads.
    pub dsp: f64,
    /// `Fnn::logits_batch_with` over the extracted rows.
    pub nn: f64,
    /// `FpgaDiscriminator::infer_batch_with` over the same quads.
    pub fpga: f64,
}

impl Kernels {
    /// CPU ns per shot (all five qubits) on `backend`.
    pub fn per_shot(&self, backend: Backend) -> f64 {
        5.0 * match backend {
            Backend::Float => self.dsp + self.nn,
            Backend::Hardware => self.fpga,
        }
    }
}

/// Times the stage kernels over `shots` (a multiple of four), gathered
/// into SoA quads outside the timed region: gathering is the batch
/// engine's work, not the kernels'.
pub fn kernels(system: &KlinqSystem, shots: &[Shot], budget: Duration) -> Kernels {
    let n = shots.len() - shots.len() % TraceBatch::LANES;
    let shots = &shots[..n];
    let quads: Vec<Vec<TraceBatch>> = (0..5)
        .map(|qb| {
            shots
                .chunks_exact(TraceBatch::LANES)
                .map(|quad| {
                    let mut batch = TraceBatch::new();
                    let t = |l: usize| (&*quad[l].traces[qb].i, &*quad[l].traces[qb].q);
                    assert!(
                        batch.gather([t(0), t(1), t(2), t(3)]),
                        "pool traces are uniform"
                    );
                    batch
                })
                .collect()
        })
        .collect();
    let mut rows: Vec<Matrix> = vec![Matrix::default(); 5];
    let mut fused = Vec::new();
    let mut nn_scratch = BatchScratch::default();
    let mut hw_scratch = HwBatchScratch::default();
    let (mut dsp, mut nn, mut fpga) = (Vec::new(), Vec::new(), Vec::new());
    let end = Instant::now() + budget;
    while dsp.len() < 3 || Instant::now() < end {
        let t = Instant::now();
        for (qb, d) in system.discriminators().iter().enumerate() {
            let pipeline = &d.student().pipeline;
            rows[qb].resize(n, pipeline.input_dim());
            let mut it = rows[qb].iter_rows_mut();
            for batch in &quads[qb] {
                let r: [&mut [f32]; 4] =
                    std::array::from_fn(|_| it.next().expect("one row per shot"));
                pipeline.extract_batch_into(batch, r, &mut fused);
            }
        }
        dsp.push(t.elapsed());
        let t = Instant::now();
        for (qb, d) in system.discriminators().iter().enumerate() {
            black_box(
                d.student()
                    .net
                    .logits_batch_with(&rows[qb], &mut nn_scratch),
            );
        }
        nn.push(t.elapsed());
        let t = Instant::now();
        for (qb, d) in system.discriminators().iter().enumerate() {
            for batch in &quads[qb] {
                black_box(d.hardware().infer_batch_with(batch, &mut hw_scratch));
            }
        }
        fpga.push(t.elapsed());
    }
    let per_qshot = |v: &[Duration]| {
        median(&v.iter().map(|d| d.as_nanos() as f64).collect::<Vec<_>>()) / (5 * n) as f64
    };
    Kernels {
        dsp: per_qshot(&dsp),
        nn: per_qshot(&nn),
        fpga: per_qshot(&fpga),
    }
}

/// `classify_shots_on` at one batch size.
#[derive(Debug, Clone, Copy)]
pub struct BatchRung {
    /// The batch size replayed.
    pub size: usize,
    /// Per-call latency.
    pub call: Summary,
    /// Mean wall ns per shot over all calls.
    pub ns_per_shot: f64,
    /// Threads one call of this size runs on: the pool's, capped by the
    /// engine's chunk count.
    pub parallelism: f64,
}

/// Replays `classify_shots_on` on `size`-shot batches cut from the pool.
pub fn batch_rung(
    system: &KlinqSystem,
    backend: Backend,
    pool: &Pool,
    size: usize,
    budget: Duration,
) -> BatchRung {
    let engine = BatchDiscriminator::new(system.discriminators());
    let slots = pool.slots(size);
    let mut lat = Latencies::default();
    let mut calls = 0u64;
    let t0 = Instant::now();
    while calls < 10 || t0.elapsed() < budget {
        let slot = (calls % slots as u64) as usize;
        let t = Instant::now();
        black_box(engine.classify_shots_on(backend, &pool.shots[slot * size..(slot + 1) * size]));
        lat.record(t.elapsed().as_nanos() as u64);
        calls += 1;
    }
    let chunks = size.div_ceil(engine.chunk_size_for(size));
    BatchRung {
        size,
        call: lat.summary(),
        ns_per_shot: t0.elapsed().as_nanos() as f64 / (calls as f64 * size as f64),
        parallelism: rayon::current_num_threads().min(chunks) as f64,
    }
}

/// Codec costs for one request shape, CPU ns per shot.
#[derive(Debug, Clone, Copy)]
pub struct Codec {
    /// `codec::encode_request_opts`.
    pub encode: f64,
    /// `codec::decode_message` of that request.
    pub decode: f64,
    /// `codec::encode_response`.
    pub resp_encode: f64,
    /// Request plus response frame bytes per shot.
    pub bytes: f64,
}

impl Codec {
    /// All three calls, ns per shot.
    pub fn per_shot(&self) -> f64 {
        self.encode + self.decode + self.resp_encode
    }
}

/// Times the codec calls a request of `shape` makes on its way through
/// the wire server.
pub fn codec(pool: &Pool, shape: &Shape, budget: Duration) -> Codec {
    let size = shape.shots;
    let slots = pool.slots(size);
    let each = budget / 3;
    let timed = |f: &mut dyn FnMut(usize)| {
        let mut calls = 0usize;
        let t0 = Instant::now();
        while calls < 10 || t0.elapsed() < each {
            f(calls % slots);
            calls += 1;
        }
        t0.elapsed().as_nanos() as f64 / (calls * size) as f64
    };
    let shots = |slot: usize| &pool.shots[slot * size..(slot + 1) * size];
    let encode = |slot: usize| {
        codec::encode_request_opts(
            1,
            0,
            shape.priority,
            shape.tenant_of(slot as u64),
            0,
            false,
            shots(slot),
        )
    };
    let payloads: Vec<Vec<u8>> = (0..slots.min(64)).map(encode).collect();
    let enc = timed(&mut |slot| {
        black_box(encode(slot));
    });
    let dec = timed(&mut |slot| {
        black_box(codec::decode_message(&payloads[slot % payloads.len()]).expect("decodes"));
    });
    let resp = timed(&mut |slot| {
        black_box(codec::encode_response(
            1,
            &pool.direct[slot * size..(slot + 1) * size],
        ));
    });
    let frame = |payload: usize| 4 + payload;
    let bytes =
        frame(payloads[0].len()) + frame(codec::encode_response(1, &pool.direct[..size]).len());
    Codec {
        encode: enc,
        decode: dec,
        resp_encode: resp,
        bytes: bytes as f64 / size as f64,
    }
}

/// One row of a waterfall: a layer and its self time in the workload's
/// headline unit.
pub struct Row {
    /// Layer name.
    pub layer: &'static str,
    /// Self time.
    pub value: f64,
}

/// A workload's end-to-end figure charged to its layers.
pub struct Waterfall {
    /// Unit of every value (`ns/shot` or `us/request`).
    pub unit: &'static str,
    /// The traced end-to-end figure.
    pub total: f64,
    /// Named layers, innermost first.
    pub rows: Vec<Row>,
}

impl Waterfall {
    /// The part of the total no named layer explains.
    pub fn unattributed(&self) -> f64 {
        self.total - self.rows.iter().map(|r| r.value).sum::<f64>()
    }

    /// [`Self::unattributed`] as a share of the total.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed() / self.total
    }

    /// Prints the waterfall, one layer a line.
    pub fn print(&self, workload: &str) {
        println!(
            "  waterfall {workload} ({}; total {:.3}):",
            self.unit, self.total
        );
        for row in &self.rows {
            println!(
                "    {:<22} {:>12.3} {:>7.1}%",
                row.layer,
                row.value,
                100.0 * row.value / self.total
            );
        }
        println!(
            "    {:<22} {:>12.3} {:>7.1}%",
            "unattributed",
            self.unattributed(),
            100.0 * self.unattributed_share()
        );
    }
}
