//! Differential tests for the sharded broker core.
//!
//! The single-loop broker (`shards = 1`) is the reference implementation:
//! every delivery decision happens on one thread in a fixed order. These
//! tests drive the *same* synchronized op sequence — interleaved
//! subscribes, unsubscribes, and (retained) publishes — through brokers
//! with 1, 2, and 4 shards and assert that every subscriber receives the
//! exact same **multiset** of messages regardless of shard count.
//!
//! Synchronization model: every op completes its MQTT handshake (SUBACK /
//! UNSUBACK / PUBACK) before the next op is issued, so the expected
//! delivery multiset is fully determined by the op sequence — routing
//! snapshots are published before the acks are sent. Delivery *order* per
//! subscriber is also deterministic per broker, but only the multiset is
//! compared here (cross-shard QoS>0 hops may interleave differently).
//!
//! Also here: the snapshot-vs-live equivalence property for the shared
//! routing index — after any mutation sequence, the published snapshot
//! trie must match the writer-side master trie exactly.

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;
use sdflmq_mqtt::broker::{Broker, BrokerConfig};
use sdflmq_mqtt::error::ConnectReturnCode;
use sdflmq_mqtt::index::SharedIndex;
use sdflmq_mqtt::packet::*;
use sdflmq_mqtt::topic::{TopicFilter, TopicName};
use sdflmq_mqtt::transport::{FrameSender, LinkEnd};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 6;

/// One scripted operation, referencing clients by index.
#[derive(Debug, Clone)]
enum Op {
    Subscribe(usize, String, QoS),
    Unsubscribe(usize, String),
    /// (publisher, topic, retain, payload tag)
    Publish(usize, String, bool, u8),
}

/// Topic names over a tiny alphabet so filters genuinely overlap.
fn topic() -> impl Strategy<Value = String> {
    prop::collection::vec(prop_oneof![Just("a"), Just("b"), Just("c")], 1..4)
        .prop_map(|v| v.join("/"))
}

/// Filters: topic levels with some `+` and optional `#` tail.
fn filter() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(
            prop_oneof![3 => Just("a"), 3 => Just("b"), 2 => Just("c"), 2 => Just("+")],
            1..4,
        ),
        prop::bool::ANY,
    )
        .prop_map(|(mut v, hash)| {
            if hash {
                v.push("#");
            }
            v.join("/")
        })
}

fn op() -> impl Strategy<Value = Op> {
    let qos01 = prop_oneof![Just(QoS::AtMostOnce), Just(QoS::AtLeastOnce)];
    let retain = (0u8..10).prop_map(|x| x < 3);
    prop_oneof![
        3 => (0..CLIENTS, filter(), qos01)
            .prop_map(|(c, f, q)| Op::Subscribe(c, f, q)).boxed(),
        1 => (0..CLIENTS, filter()).prop_map(|(c, f)| Op::Unsubscribe(c, f)).boxed(),
        4 => (0..CLIENTS, topic(), retain, 0u8..200)
            .prop_map(|(c, t, r, tag)| Op::Publish(c, t, r, tag)).boxed(),
    ]
}

/// A received delivery, normalized for multiset comparison.
type Recorded = (String, Vec<u8>, u8, bool);

/// One synchronized test client: the reader thread records publishes and
/// forwards handshake acks to the driver.
struct SyncClient {
    link: LinkEnd,
    received: Arc<Mutex<Vec<Recorded>>>,
    acks: std::sync::mpsc::Receiver<Packet>,
}

impl SyncClient {
    fn connect(broker: &Broker, id: &str) -> SyncClient {
        let link = broker.connect_transport().unwrap();
        link.send_packet(&Packet::Connect(Connect {
            client_id: id.to_owned(),
            clean_session: true,
            keep_alive: 0,
            will: None,
        }))
        .unwrap();
        match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
            Packet::Connack(c) => assert_eq!(c.code, ConnectReturnCode::Accepted),
            other => panic!("expected connack, got {other:?}"),
        }
        let received = Arc::new(Mutex::new(Vec::new()));
        let (ack_tx, acks) = std::sync::mpsc::channel();
        let reader = link.clone();
        let sink = Arc::clone(&received);
        std::thread::spawn(move || loop {
            match reader.recv_packet() {
                Ok(Packet::Publish(p)) => sink.lock().push((
                    p.topic.as_str().to_owned(),
                    p.payload.to_vec(),
                    p.qos as u8,
                    p.retain,
                )),
                Ok(ack @ (Packet::Suback(_) | Packet::Unsuback(_) | Packet::Puback(_))) => {
                    if ack_tx.send(ack).is_err() {
                        return;
                    }
                }
                Ok(_) => {}
                Err(_) => return,
            }
        });
        SyncClient {
            link,
            received,
            acks,
        }
    }

    fn wait_ack(&self, what: &str) -> Packet {
        self.acks
            .recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("no {what} within deadline"))
    }
}

/// Runs the op script against a fresh broker with `shards` shards and
/// returns each client's received multiset (sorted).
fn run_script(shards: usize, ops: &[Op]) -> Vec<Vec<Recorded>> {
    let broker = Broker::start(BrokerConfig {
        name: format!("diff-{shards}"),
        shards,
        ..BrokerConfig::default()
    });
    let clients: Vec<SyncClient> = (0..CLIENTS)
        .map(|i| SyncClient::connect(&broker, &format!("n{i}")))
        .collect();

    for (seq, op) in ops.iter().enumerate() {
        match op {
            Op::Subscribe(c, f, qos) => {
                clients[*c]
                    .link
                    .send_packet(&Packet::Subscribe(Subscribe {
                        packet_id: (seq + 1) as u16,
                        filters: vec![(TopicFilter::new(f).unwrap(), *qos)],
                    }))
                    .unwrap();
                clients[*c].wait_ack("suback");
            }
            Op::Unsubscribe(c, f) => {
                clients[*c]
                    .link
                    .send_packet(&Packet::Unsubscribe(Unsubscribe {
                        packet_id: (seq + 1) as u16,
                        filters: vec![TopicFilter::new(f).unwrap()],
                    }))
                    .unwrap();
                clients[*c].wait_ack("unsuback");
            }
            Op::Publish(c, t, retain, tag) => {
                // QoS 1: the PUBACK arrives only after the broker routed
                // the message against the then-current snapshot.
                clients[*c]
                    .link
                    .send_packet(&Packet::Publish(Publish {
                        dup: false,
                        qos: QoS::AtLeastOnce,
                        retain: *retain,
                        topic: TopicName::new(t).unwrap(),
                        packet_id: Some((seq + 1) as u16),
                        payload: Bytes::from(vec![*tag, seq as u8]),
                    }))
                    .unwrap();
                clients[*c].wait_ack("puback");
            }
        }
    }

    // Quiescence: cross-shard hops may still be in flight after the last
    // PUBACK; wait until the delivery counter stops moving.
    let mut last = broker.stats().publishes_out;
    let mut quiet = 0;
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(10));
        let now = broker.stats().publishes_out;
        if now == last {
            quiet += 1;
            if quiet >= 3 {
                break;
            }
        } else {
            quiet = 0;
        }
        last = now;
    }

    clients
        .iter()
        .map(|c| {
            let mut v = c.received.lock().clone();
            v.sort();
            v
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Sharded routing delivers the exact multiset the single-loop
    /// reference delivers, under interleaved subscribe / unsubscribe /
    /// publish / retained traffic.
    #[test]
    fn sharded_routing_matches_single_loop_reference(ops in prop::collection::vec(op(), 1..24)) {
        let reference = run_script(1, &ops);
        for shards in [2usize, 4] {
            let got = run_script(shards, &ops);
            prop_assert_eq!(
                &got,
                &reference,
                "shards={} diverged from the single-loop reference",
                shards
            );
        }
    }

    /// After any mutation sequence, the published index snapshot answers
    /// topic matches identically to the writer-side (live) trie.
    #[test]
    fn index_snapshot_matches_live_trie(
        ops in prop::collection::vec(
            (0..CLIENTS, filter(), prop::bool::ANY),
            1..40
        ),
        probes in prop::collection::vec(topic(), 1..12),
    ) {
        let index = SharedIndex::new();
        let keys: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let sender = FrameSender::closed().unwrap();
                index.register_conn(&format!("n{i}"), 0, i as u64 + 1, sender, false)
            })
            .collect();
        for (c, f, sub) in &ops {
            let filter = TopicFilter::new(f).unwrap();
            if *sub {
                index.subscribe(&filter, keys[*c], QoS::AtMostOnce);
            } else {
                index.unsubscribe(&filter, keys[*c]);
            }
            // Every generation must agree with the live master, not just
            // the final one.
            let snap = index.load();
            for probe in &probes {
                let t = TopicName::new(probe).unwrap();
                let mut from_snap: Vec<u64> =
                    snap.trie.matches(&t).into_iter().map(|(k, _)| *k).collect();
                from_snap.sort_unstable();
                let mut from_live: Vec<u64> = index
                    .with_live_trie(|trie| trie.matches(&t).into_iter().map(|(k, _)| *k).collect());
                from_live.sort_unstable();
                prop_assert_eq!(from_snap, from_live, "probe {} diverged", probe);
            }
        }
        // Subscription counts agree too.
        let snap = index.load();
        let live_len = index.with_live_trie(|t| t.len());
        prop_assert_eq!(snap.trie.len(), live_len);
    }
}
