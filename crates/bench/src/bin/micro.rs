//! Micro-benchmarks for the kernels no end-to-end bench isolates: robust
//! aggregation, coordinator planning, the training matmul kernels,
//! subscription-trie matching, and the MQTT and control-plane codecs.
//!
//! ```text
//! cargo run --release -p sdflmq-bench --bin micro [-- --smoke]
//! ```
//!
//! Prints one line per case: the best per-iteration time over several
//! samples, each sample a batch sized to run for a fixed wall time.
//! `--smoke` takes one short sample per case, so CI checks that every
//! case still runs without paying for stable numbers.
//!
//! FedAvg, LZSS, batching and broker fan-out are measured elsewhere: the
//! `dataplane` fold, the round benchmark's per-layer split/reassemble
//! timings, and `fanout_matrix` in `BENCH_broker.json`.

use sdflmq_bench::min_time;
use sdflmq_core::messages::{CtrlMsg, JoinRequest, RoundDone, StatsMsg};
use sdflmq_core::{
    build_plan, diff_plans, AggregationMethod, ClientId, ClientInfo, CompositeScore, ControlMsg,
    CoordinateMedian, Envelope, MemoryAware, ModelId, MsgKind, Position, PreferredRole, Role,
    RoleOptimizer, RoleSpec, SessionId, Topology, TrimmedMean, WireVersion,
};
use sdflmq_mqtt::codec;
use sdflmq_mqtt::packet::{Packet, Publish};
use sdflmq_mqtt::topic::{TopicFilter, TopicName};
use sdflmq_mqtt::trie::SubscriptionTrie;
use sdflmq_nn::Matrix;
use sdflmq_sim::SystemStats;
use std::hint::black_box;

const PARAMS: usize = 109_386; // the paper's MLP

struct Runner {
    samples: u32,
    sample_s: f64,
}

impl Runner {
    fn case(&self, name: &str, mut f: impl FnMut()) {
        // The untimed first call warms caches and sizes the batch.
        let once = min_time(1, &mut f).max(1e-9);
        let iters = ((self.sample_s / once) as u32).clamp(1, 1_000_000);
        let best = min_time(self.samples, || {
            for _ in 0..iters {
                f();
            }
        });
        println!(
            "{name:<42} {:>12.3} us/iter  ({iters} iters, best of {})",
            best / iters as f64 * 1e6,
            self.samples
        );
    }
}

fn contributions(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..PARAMS)
                .map(|j| ((i * 31 + j) % 97) as f32 * 0.01 - 0.5)
                .collect()
        })
        .collect()
}

fn bench_aggregation(r: &Runner) {
    for n in [2usize, 5, 10, 20] {
        let inputs = contributions(n);
        let refs: Vec<(&[f32], u64)> = inputs.iter().map(|v| (v.as_slice(), 100)).collect();
        r.case(&format!("aggregate/median/{n}"), || {
            black_box(CoordinateMedian.aggregate(black_box(&refs)).unwrap());
        });
        let trimmed = TrimmedMean::new(0.2);
        r.case(&format!("aggregate/trimmed/{n}"), || {
            black_box(trimmed.aggregate(black_box(&refs)).unwrap());
        });
    }
}

fn fleet(n: usize) -> Vec<ClientInfo> {
    (0..n)
        .map(|i| ClientInfo {
            id: ClientId::new(format!("c{i}")).unwrap(),
            stats: SystemStats {
                free_memory: (64 + (i * 37) % 4096) as u64 * 1024 * 1024,
                available_flops: 1e9 + (i % 17) as f64 * 3e8,
                memory_utilization: (i % 10) as f64 / 10.0,
            },
            preferred: PreferredRole::Any,
            num_samples: 100 + (i % 5) as u64 * 50,
        })
        .collect()
}

fn bench_planning(r: &Runner) {
    let topo = Topology::Hierarchical {
        aggregator_ratio: 0.3,
    };
    for n in [10usize, 100, 1_000] {
        let clients = fleet(n);
        let ranking = MemoryAware.rank(&clients, 1);
        r.case(&format!("cluster_plan/build/{n}"), || {
            black_box(build_plan(&clients, &topo, &ranking, 1));
        });
        let plan1 = build_plan(&clients, &topo, &ranking, 1);
        let mut shuffled = ranking.clone();
        shuffled.rotate_left(3);
        let plan2 = build_plan(&clients, &topo, &shuffled, 2);
        r.case(&format!("cluster_plan/diff/{n}"), || {
            black_box(diff_plans(&plan1, &plan2).len());
        });
    }
    let clients = fleet(1_000);
    r.case("optimizer_rank_1000/memory_aware", || {
        black_box(MemoryAware.rank(black_box(&clients), 1).len());
    });
    let mut composite = CompositeScore::default();
    r.case("optimizer_rank_1000/composite", || {
        black_box(composite.rank(black_box(&clients), 1).len());
    });
}

fn matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| (((i as u32).wrapping_mul(seed) >> 7) % 255) as f32 * 0.01 - 1.27)
            .collect(),
    )
}

fn bench_kernels(r: &Runner) {
    // batch x in @ in x out — shapes from the paper's MLP forward pass.
    for (batch, input, output) in [
        (32usize, 784usize, 128usize),
        (256, 784, 128),
        (32, 128, 64),
    ] {
        let a = matrix(batch, input, 17);
        let w = matrix(input, output, 23);
        let mut out = Matrix::zeros(batch, output);
        r.case(&format!("matmul/{batch}x{input}x{output}"), || {
            a.matmul_into(black_box(&w), &mut out);
            black_box(out.get(0, 0));
        });
    }
    let dz = matrix(64, 128, 29);
    let w = matrix(784, 128, 31);
    let x = matrix(64, 784, 37);
    r.case("backward/dx_matmul_transpose_b", || {
        black_box(dz.matmul_transpose_b(black_box(&w)));
    });
    r.case("backward/dw_transpose_a_matmul", || {
        black_box(x.transpose_a_matmul(black_box(&dz)));
    });
}

fn bench_trie(r: &Runner) {
    let topics: Vec<TopicName> = (0..64)
        .map(|i| TopicName::new(format!("sdflmq/session/s{}/role/agg{}", i % 50, i % 7)).unwrap())
        .collect();
    for subs in [100usize, 1_000, 10_000] {
        let mut trie = SubscriptionTrie::new();
        for i in 0..subs {
            // A realistic mixture: exact, one-level wildcard, tail wildcard.
            let filter = match i % 3 {
                0 => format!("sdflmq/session/s{}/role/agg{}", i % 50, i % 7),
                1 => format!("sdflmq/session/s{}/+/agg{}", i % 50, i % 7),
                _ => format!("mqttfc/fn/f{}/#", i % 100),
            };
            trie.subscribe(&TopicFilter::new(filter).unwrap(), i as u32, 0u8);
        }
        let mut i = 0usize;
        r.case(&format!("trie_match/{subs}"), || {
            let topic = &topics[i % topics.len()];
            i += 1;
            black_box(trie.matches(black_box(topic)).len());
        });
    }
    let mut trie: SubscriptionTrie<u32, u8> = SubscriptionTrie::new();
    let filter = TopicFilter::new("a/b/c/d/e").unwrap();
    r.case("trie_subscribe_unsubscribe", || {
        trie.subscribe(black_box(&filter), 1, 0);
        trie.unsubscribe(black_box(&filter), &1);
    });
}

fn bench_mqtt_codec(r: &Runner) {
    for size in [128usize, 4_096, 65_536] {
        let packet = Packet::Publish(Publish::simple(
            TopicName::new("sdflmq/session/s1/role/agg0").unwrap(),
            vec![0xA5u8; size],
        ));
        let encoded = codec::encode(&packet).unwrap();
        r.case(&format!("mqtt_codec/encode/{size}"), || {
            black_box(codec::encode(black_box(&packet)).unwrap());
        });
        r.case(&format!("mqtt_codec/decode/{size}"), || {
            black_box(codec::decode(black_box(&encoded)).unwrap());
        });
    }
}

/// The three control frames of the PROTOCOL.md size table.
fn control_messages() -> Vec<(&'static str, MsgKind, ControlMsg)> {
    let session = SessionId::new("fig8-session").unwrap();
    let stats = StatsMsg {
        free_memory: 3_221_225_472,
        available_flops: 3.7e9,
        memory_utilization: 0.4375,
    };
    vec![
        (
            "join",
            MsgKind::Join,
            ControlMsg::Join(JoinRequest {
                session_id: session.clone(),
                client_id: ClientId::new("client_017").unwrap(),
                model_name: ModelId::new("mnist-mlp").unwrap(),
                preferred_role: PreferredRole::Any,
                num_samples: 600,
                stats,
                proto: WireVersion::LATEST.as_u8(),
                codec: 2,
            }),
        ),
        (
            "set_role",
            MsgKind::Ctrl,
            ControlMsg::Ctrl {
                session: session.clone(),
                msg: CtrlMsg::SetRole(RoleSpec {
                    role: Role::TrainerAggregator,
                    position: Some(Position::Agg(3)),
                    parent: Position::Root,
                    expected_inputs: 6,
                    round: 4,
                    data_wire: 2,
                    data_codec: 2,
                }),
            },
        ),
        (
            "round_done",
            MsgKind::RoundDone,
            ControlMsg::RoundDone(RoundDone {
                session_id: session,
                client_id: ClientId::new("client_017").unwrap(),
                round: 4,
                stats,
            }),
        ),
    ]
}

fn bench_wirecodec(r: &Runner) {
    for (name, kind, msg) in control_messages() {
        for (tag, version) in [
            ("json", WireVersion::V1Json),
            ("binary", WireVersion::V2Binary),
        ] {
            let frame = Envelope::new(version, msg.clone()).encode();
            let bytes = frame.len();
            r.case(
                &format!("wirecodec/encode_{name}/{tag} ({bytes} B)"),
                || {
                    black_box(Envelope::new(version, black_box(&msg).clone()).encode());
                },
            );
            r.case(
                &format!("wirecodec/decode_{name}/{tag} ({bytes} B)"),
                || {
                    black_box(Envelope::decode(kind, black_box(&frame)).unwrap());
                },
            );
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let r = if smoke {
        Runner {
            samples: 1,
            sample_s: 0.001,
        }
    } else {
        Runner {
            samples: 10,
            sample_s: 0.02,
        }
    };
    bench_aggregation(&r);
    bench_planning(&r);
    bench_kernels(&r);
    bench_trie(&r);
    bench_mqtt_codec(&r);
    bench_wirecodec(&r);
}
