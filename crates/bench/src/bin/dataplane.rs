//! Data-plane benchmark: bytes/round and aggregation throughput across
//! update codecs, emitted as `BENCH_dataplane.json`.
//!
//! For each codec (dense f32, fp16, int8, top-k sparse delta) this
//! measures, with *real encodings* of the paper's MNIST-MLP-sized model:
//!
//! * per-update frame bytes and compression vs dense;
//! * single-pass decode fidelity (relative L2 divergence);
//! * encode/decode throughput in million elements per second;
//! * data-plane bytes per round of a 40-client hierarchical deployment
//!   (the virtual-time simulator's network accounting);
//! * streaming FedAvg fold throughput at fan-in 32, plus the peak number
//!   of full vectors the accumulator held (the O(model) claim: 1).
//!
//! ```text
//! cargo run --release -p sdflmq-bench --bin dataplane [-- --smoke]
//! ```
//!
//! `--smoke` shrinks iteration counts for CI; the asserted invariants
//! (int8 ≥ 3.9x bytes/round reduction, FedAvg peak buffering of one
//! vector) hold in both modes.

use sdflmq_bench::{min_time, CountingAlloc};
use sdflmq_core::{
    simulate, AggregationMethod, FedAvg, MemoryAware, SimConfig, Topology, UpdateCodec,
};
use sdflmq_mqttfc::Json;
use sdflmq_nn::codec::reference;
use sdflmq_nn::parallel::WorkerPool;
use std::time::Instant;

const MODEL_PARAMS: usize = 109_386; // 784-128-64-10 MLP
const CLIENTS: usize = 40;
const FAN_IN: usize = 32;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn pseudo_model(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f32) * 0.37).sin() * (1.0 + (i % 17) as f32 * 0.25))
        .collect()
}

struct CodecResult {
    codec: UpdateCodec,
    frame_bytes: u64,
    compression: f64,
    divergence: f64,
    bytes_per_round: u64,
    encode_melems_s: f64,
    decode_melems_s: f64,
}

fn bench_codec(codec: UpdateCodec, rounds: u32, iters: u32) -> CodecResult {
    let x = pseudo_model(MODEL_PARAMS);

    // Throughput over real encode/decode passes.
    let mut encoded = codec.encode_stateless(&x, None);
    let t0 = Instant::now();
    for _ in 0..iters {
        encoded = codec.encode_stateless(&x, None);
    }
    let encode_s = t0.elapsed().as_secs_f64() / iters as f64;
    let t0 = Instant::now();
    for _ in 0..iters {
        let _ = codec.decode(&encoded, None).expect("own encoding decodes");
    }
    let decode_s = t0.elapsed().as_secs_f64() / iters as f64;

    // Bytes/round from the simulator's per-codec network accounting.
    let report = simulate(
        SimConfig::builder(
            CLIENTS,
            Topology::Hierarchical {
                aggregator_ratio: 0.3,
            },
        )
        .rounds(rounds)
        .optimizer(Box::new(MemoryAware))
        .update_codec(codec)
        .build(),
    );

    CodecResult {
        codec,
        frame_bytes: report.update_frame_bytes,
        compression: report.codec_compression,
        divergence: report.codec_divergence,
        bytes_per_round: report.network_bytes / rounds as u64,
        encode_melems_s: MODEL_PARAMS as f64 / encode_s / 1e6,
        decode_melems_s: MODEL_PARAMS as f64 / decode_s / 1e6,
    }
}

/// One codec's encode/decode throughput at one thread count. The
/// 1-thread row runs the retained serial [`reference`] implementation —
/// the pre-parallel baseline — so the scaling axis measures the whole
/// data-plane rewrite (SIMD kernels + buffer reuse + chunk workers),
/// not just thread fan-out.
struct ThreadRow {
    threads: usize,
    encode_melems_s: f64,
    decode_melems_s: f64,
}

struct ThreadScaling {
    codec: UpdateCodec,
    rows: Vec<ThreadRow>,
    encode_speedup_4_vs_1: f64,
}

fn bench_threads(codec: UpdateCodec, iters: u32) -> ThreadScaling {
    let x = pseudo_model(MODEL_PARAMS);
    let mut rows: Vec<ThreadRow> = Vec::new();
    for threads in [1usize, 2, 4] {
        let (encode_s, decode_s) = if threads == 1 {
            let mut residual = Vec::new();
            let encoded = reference::encode(codec, &x, None, &mut residual);
            let encode_s = min_time(iters, || {
                residual.clear();
                let enc = reference::encode(codec, &x, None, &mut residual);
                assert_eq!(enc.len(), encoded.len());
            });
            let decode_s = min_time(iters, || {
                let dec = reference::decode(codec, &encoded, None).expect("decodes");
                assert_eq!(dec.len(), MODEL_PARAMS);
            });
            (encode_s, decode_s)
        } else {
            let pool = WorkerPool::new(threads);
            let mut residual = Vec::new();
            let mut encoded = Vec::new();
            let mut decoded = Vec::new();
            codec.encode_into(&x, None, &mut residual, &pool, &mut encoded);
            let encode_s = min_time(iters, || {
                residual.clear();
                codec.encode_into(&x, None, &mut residual, &pool, &mut encoded);
            });
            let decode_s = min_time(iters, || {
                codec
                    .decode_into(&encoded, None, &pool, &mut decoded)
                    .expect("decodes");
            });
            (encode_s, decode_s)
        };
        rows.push(ThreadRow {
            threads,
            encode_melems_s: MODEL_PARAMS as f64 / encode_s / 1e6,
            decode_melems_s: MODEL_PARAMS as f64 / decode_s / 1e6,
        });
    }
    let encode_speedup_4_vs_1 = rows[2].encode_melems_s / rows[0].encode_melems_s;
    ThreadScaling {
        codec,
        rows,
        encode_speedup_4_vs_1,
    }
}

/// Steady-state allocation probe: one "round" encodes, decodes, and
/// folds a model-sized update with *reused* buffers, the way the client
/// runtime's pooled path does. After warmup the per-round allocation
/// count must be flat — any growth means a hot-path buffer escaped the
/// pool.
fn bench_allocs_per_round(rounds: usize) -> (Vec<u64>, bool) {
    let codec = UpdateCodec::Int8;
    let x = pseudo_model(MODEL_PARAMS);
    let pool = WorkerPool::new(2);
    let mut residual = Vec::new();
    let mut encoded = Vec::new();
    let mut decoded = Vec::new();
    let round = |residual: &mut Vec<f32>, encoded: &mut Vec<u8>, decoded: &mut Vec<f32>| {
        codec.encode_into(&x, None, residual, &pool, encoded);
        codec
            .decode_into(encoded, None, &pool, decoded)
            .expect("decodes");
        let mut acc = FedAvg.accumulator();
        acc.fold_par(decoded, 600, &pool).expect("fold");
        let out = acc.finish().expect("finish");
        assert_eq!(out.len(), MODEL_PARAMS);
    };
    // Warmup: buffers and worker thread-locals reach steady capacity.
    for _ in 0..2 {
        round(&mut residual, &mut encoded, &mut decoded);
    }
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let before = CountingAlloc::count();
        round(&mut residual, &mut encoded, &mut decoded);
        per_round.push(CountingAlloc::count() - before);
    }
    let flat = per_round.windows(2).all(|w| w[0] == w[1]);
    (per_round, flat)
}

/// Streaming FedAvg fold at fan-in 32: throughput and peak buffering.
fn bench_fold(iters: u32) -> (f64, usize) {
    let children: Vec<Vec<f32>> = (0..FAN_IN)
        .map(|c| {
            pseudo_model(MODEL_PARAMS)
                .into_iter()
                .map(|v| v + c as f32 * 1e-3)
                .collect()
        })
        .collect();
    let mut peak_buffered = 0usize;
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut acc = FedAvg.accumulator();
        for child in &children {
            acc.fold(child, 600).expect("fold");
            peak_buffered = peak_buffered.max(acc.buffered_vectors());
        }
        let out = acc.finish().expect("finish");
        assert_eq!(out.len(), MODEL_PARAMS);
    }
    let per_iter = t0.elapsed().as_secs_f64() / iters as f64;
    let melems_s = (FAN_IN * MODEL_PARAMS) as f64 / per_iter / 1e6;
    (melems_s, peak_buffered)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rounds, iters) = if smoke { (2, 2) } else { (10, 10) };

    let codecs = [
        UpdateCodec::Dense,
        UpdateCodec::Fp16,
        UpdateCodec::Int8,
        UpdateCodec::TOP_K_DEFAULT,
    ];
    let results: Vec<CodecResult> = codecs
        .iter()
        .map(|c| bench_codec(*c, rounds, iters))
        .collect();
    let dense_bytes_per_round = results[0].bytes_per_round;

    println!(
        "# Data plane — {MODEL_PARAMS}-param model, {CLIENTS} clients, hierarchical (30% aggregators)\n"
    );
    println!(
        "codec   frame-bytes  compression  divergence  bytes/round  reduction  enc-Me/s  dec-Me/s"
    );
    let mut entries = Vec::new();
    for r in &results {
        let reduction = dense_bytes_per_round as f64 / r.bytes_per_round as f64;
        println!(
            "{:<7} {:>11}  {:>10.2}x  {:>10.2e}  {:>11}  {:>8.2}x  {:>8.1}  {:>8.1}",
            r.codec.name(),
            r.frame_bytes,
            r.compression,
            r.divergence,
            r.bytes_per_round,
            reduction,
            r.encode_melems_s,
            r.decode_melems_s,
        );
        entries.push(Json::object([
            ("codec", Json::str(r.codec.name())),
            ("frame_bytes", Json::num(r.frame_bytes as f64)),
            ("compression_vs_dense", Json::num(r.compression)),
            ("divergence", Json::num(r.divergence)),
            ("bytes_per_round", Json::num(r.bytes_per_round as f64)),
            ("bytes_per_round_reduction_vs_dense", Json::num(reduction)),
            ("encode_melems_per_s", Json::num(r.encode_melems_s)),
            ("decode_melems_per_s", Json::num(r.decode_melems_s)),
        ]));
    }

    let (fold_melems_s, peak_buffered) = bench_fold(iters);
    println!(
        "\nstreaming FedAvg fold: fan-in {FAN_IN}, {fold_melems_s:.1} Melem/s, \
         peak buffered vectors {peak_buffered} (O(model))"
    );

    // Thread-scaling axis: 1 thread = the retained serial reference
    // (the pre-parallel data plane), 2/4 = the chunked parallel path.
    let thread_iters = iters.max(5);
    let scaling: Vec<ThreadScaling> = codecs
        .iter()
        .map(|c| bench_threads(*c, thread_iters))
        .collect();
    println!("\ncodec   threads  enc-Me/s  dec-Me/s   (1 thread = serial reference)");
    let mut scaling_entries = Vec::new();
    for s in &scaling {
        let mut row_entries = Vec::new();
        for row in &s.rows {
            println!(
                "{:<7} {:>7}  {:>8.1}  {:>8.1}",
                s.codec.name(),
                row.threads,
                row.encode_melems_s,
                row.decode_melems_s,
            );
            row_entries.push(Json::object([
                ("threads", Json::num(row.threads as f64)),
                ("encode_melems_per_s", Json::num(row.encode_melems_s)),
                ("decode_melems_per_s", Json::num(row.decode_melems_s)),
            ]));
        }
        println!(
            "{:<7} encode speedup 4-vs-1: {:.2}x",
            s.codec.name(),
            s.encode_speedup_4_vs_1
        );
        scaling_entries.push(Json::object([
            ("codec", Json::str(s.codec.name())),
            ("rows", Json::Array(row_entries)),
            ("encode_speedup_4_vs_1", Json::num(s.encode_speedup_4_vs_1)),
        ]));
    }

    let (allocs_per_round, allocs_flat) = bench_allocs_per_round(if smoke { 4 } else { 8 });
    println!(
        "\nallocations/round (encode+decode+fold, reused buffers): {allocs_per_round:?} \
         flat={allocs_flat}"
    );

    // The acceptance invariants, asserted so CI smoke runs enforce them.
    let int8 = &results[2];
    let int8_reduction = dense_bytes_per_round as f64 / int8.bytes_per_round as f64;
    assert!(
        int8_reduction >= 3.9,
        "int8 bytes/round reduction {int8_reduction:.3} < 3.9x"
    );
    assert_eq!(peak_buffered, 1, "FedAvg fold must stay O(model)");
    let int8_speedup = scaling[2].encode_speedup_4_vs_1;
    assert!(
        int8_speedup >= 1.8,
        "int8 encode at 4 threads only {int8_speedup:.2}x over the serial reference (< 1.8x)"
    );
    assert!(
        allocs_flat,
        "steady-state allocations grew round over round: {allocs_per_round:?}"
    );

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = Json::object([
        ("model_params", Json::num(MODEL_PARAMS as f64)),
        ("clients", Json::num(CLIENTS as f64)),
        ("rounds", Json::num(rounds as f64)),
        ("smoke", Json::Bool(smoke)),
        ("cpus", Json::num(cpus as f64)),
        ("codecs", Json::Array(entries)),
        (
            "fedavg_fold",
            Json::object([
                ("fan_in", Json::num(FAN_IN as f64)),
                ("melems_per_s", Json::num(fold_melems_s)),
                ("peak_buffered_vectors", Json::num(peak_buffered as f64)),
            ]),
        ),
        ("thread_scaling", Json::Array(scaling_entries)),
        (
            "allocations_per_round",
            Json::object([
                (
                    "per_round",
                    Json::Array(
                        allocs_per_round
                            .iter()
                            .map(|&n| Json::num(n as f64))
                            .collect(),
                    ),
                ),
                ("flat", Json::Bool(allocs_flat)),
            ]),
        ),
        ("int8_bytes_per_round_reduction", Json::num(int8_reduction)),
        ("int8_encode_speedup_4_vs_1", Json::num(int8_speedup)),
    ]);
    std::fs::write("BENCH_dataplane.json", doc.to_string_compact())
        .expect("write BENCH_dataplane.json");
    println!("\nwrote BENCH_dataplane.json (int8 reduction {int8_reduction:.2}x)");
}
