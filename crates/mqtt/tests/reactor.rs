//! Integration tests for the readiness-driven reactor transport.
//!
//! The reactor serves every connection — accepted TCP sockets and
//! in-process socket pairs alike — from one poll loop per shard, so these
//! tests pin exactly the properties that design must not lose:
//!
//! * TCP clients and in-process clients see the same deliveries, at
//!   every shard count (differential multiset test, extending the
//!   `sharding.rs` pattern to the socket path);
//! * partial frames dribbled one byte at a time reassemble correctly
//!   (the read state machine survives arbitrary segmentation);
//! * a packet before CONNECT drops the connection;
//! * broker-side thread count is O(shards), not O(connections);
//! * a slow consumer that stops reading is evicted at the write
//!   high-water mark, and the eviction is ungraceful — its will fires;
//! * fault-injected delays ride the reactor timer heap, not a spawned
//!   sleeper thread.
//!
//! The segmentation, gating and eviction tests run over both transports.

use bytes::Bytes;
use parking_lot::Mutex;
use sdflmq_mqtt::broker::{Broker, BrokerConfig};
use sdflmq_mqtt::codec;
use sdflmq_mqtt::error::{ConnectReturnCode, MqttError};
use sdflmq_mqtt::fault::{FaultAction, FaultPlan, FaultRule};
use sdflmq_mqtt::packet::*;
use sdflmq_mqtt::topic::{TopicFilter, TopicName};
use sdflmq_mqtt::transport::{tcp_link, LinkEnd};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A received delivery, normalized for multiset comparison.
type Recorded = (String, Vec<u8>, u8, bool);

/// The two ways a client reaches the broker.
#[derive(Clone, Copy, Debug)]
enum Transport {
    Tcp,
    InProcess,
}

/// Opens a raw connection (no CONNECT sent yet) over `transport`.
fn open(broker: &Broker, addr: SocketAddr, transport: Transport) -> LinkEnd {
    match transport {
        Transport::Tcp => tcp_link(addr).unwrap(),
        Transport::InProcess => broker.connect_transport().unwrap(),
    }
}

/// CONNECT handshake over a raw connection.
fn handshake(link: &LinkEnd, id: &str, will: Option<LastWill>) {
    link.send_packet(&Packet::Connect(Connect {
        client_id: id.to_owned(),
        clean_session: true,
        keep_alive: 0,
        will,
    }))
    .unwrap();
    match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
        Packet::Connack(c) => assert_eq!(c.code, ConnectReturnCode::Accepted),
        other => panic!("expected connack, got {other:?}"),
    }
}

/// One synchronized test client over any [`LinkEnd`] transport: the
/// reader thread records publishes and forwards handshake acks to the
/// driver.
struct SyncClient {
    link: LinkEnd,
    received: Arc<Mutex<Vec<Recorded>>>,
    acks: std::sync::mpsc::Receiver<Packet>,
}

impl SyncClient {
    fn over(link: LinkEnd, id: &str) -> SyncClient {
        handshake(&link, id, None);
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

    fn subscribe(&self, filter: &str, qos: QoS, packet_id: u16) {
        self.link
            .send_packet(&Packet::Subscribe(Subscribe {
                packet_id,
                filters: vec![(TopicFilter::new(filter).unwrap(), qos)],
            }))
            .unwrap();
        self.wait_ack("suback");
    }

    fn publish_qos1(&self, topic: &str, payload: &[u8], retain: bool, packet_id: u16) {
        self.link
            .send_packet(&Packet::Publish(Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain,
                topic: TopicName::new(topic).unwrap(),
                packet_id: Some(packet_id),
                payload: Bytes::copy_from_slice(payload),
            }))
            .unwrap();
        self.wait_ack("puback");
    }

    fn sorted_received(&self) -> Vec<Recorded> {
        let mut v = self.received.lock().clone();
        v.sort();
        v
    }
}

/// Waits until the broker's delivery counter stops moving (cross-shard
/// hops and TCP flushes may trail the last PUBACK).
fn quiesce(broker: &Broker) {
    let mut last = broker.stats().publishes_out;
    let mut quiet = 0;
    for _ in 0..300 {
        std::thread::sleep(Duration::from_millis(10));
        let now = broker.stats().publishes_out;
        if now == last {
            quiet += 1;
            if quiet >= 3 {
                return;
            }
        } else {
            quiet = 0;
        }
        last = now;
    }
}

/// Counts live threads of this process whose name starts with `prefix`
/// (via `/proc/self/task`; thread names truncate at 15 bytes, so keep
/// broker names short in these tests).
fn threads_named(prefix: &str) -> usize {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("comm")).ok())
        .filter(|comm| comm.trim_end().starts_with(prefix))
        .count()
}

/// Raw TCP MQTT handshake helper for tests that need byte-level control.
struct RawTcp {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawTcp {
    fn connect(addr: SocketAddr, id: &str, will: Option<LastWill>) -> RawTcp {
        let mut raw = RawTcp {
            stream: TcpStream::connect(addr).unwrap(),
            buf: Vec::new(),
        };
        raw.send(&Packet::Connect(Connect {
            client_id: id.to_owned(),
            clean_session: true,
            keep_alive: 0,
            will,
        }));
        match raw.recv() {
            Packet::Connack(c) => assert_eq!(c.code, ConnectReturnCode::Accepted),
            other => panic!("expected connack, got {other:?}"),
        }
        raw
    }

    fn send(&mut self, packet: &Packet) {
        let frame = codec::encode(packet).unwrap();
        self.stream.write_all(&frame).unwrap();
    }

    fn recv(&mut self) -> Packet {
        self.stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut chunk = [0u8; 4096];
        loop {
            if let Ok(Some(len)) = codec::frame_length(&self.buf) {
                if self.buf.len() >= len {
                    let frame: Vec<u8> = self.buf.drain(..len).collect();
                    let (packet, _) = codec::decode(&Bytes::from(frame)).unwrap();
                    return packet;
                }
            }
            let n = self.stream.read(&mut chunk).unwrap();
            assert!(n > 0, "peer closed while a packet was expected");
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

#[test]
fn tcp_pubsub_roundtrip_all_qos() {
    let broker = Broker::start(BrokerConfig {
        name: "rt1".to_owned(),
        ..BrokerConfig::default()
    });
    let addr = broker.listen("127.0.0.1:0").unwrap();

    let sub = SyncClient::over(tcp_link(addr).unwrap(), "tcp-sub");
    let publ = SyncClient::over(tcp_link(addr).unwrap(), "tcp-pub");
    sub.subscribe("round/#", QoS::AtLeastOnce, 1);
    publ.publish_qos1("round/1", b"model-update", false, 2);
    quiesce(&broker);
    assert_eq!(
        sub.sorted_received(),
        vec![("round/1".to_owned(), b"model-update".to_vec(), 1, false)]
    );
    broker.shutdown();
}

/// Hand-feeds CONNECT + PUBLISH one byte at a time: every readiness
/// event delivers a partial frame the reactor must buffer.
fn dribbled_bytes_reassemble(transport: Transport, name: &str) {
    let broker = Broker::start(BrokerConfig {
        name: name.to_owned(),
        ..BrokerConfig::default()
    });
    let addr = broker.listen("127.0.0.1:0").unwrap();

    let watcher = SyncClient::over(open(&broker, addr, transport), "watcher");
    watcher.subscribe("drib/#", QoS::AtMostOnce, 1);

    let dribbler = open(&broker, addr, transport);
    let mut wire = Vec::new();
    wire.extend_from_slice(
        &codec::encode(&Packet::Connect(Connect {
            client_id: "dribbler".to_owned(),
            clean_session: true,
            keep_alive: 0,
            will: None,
        }))
        .unwrap(),
    );
    wire.extend_from_slice(
        &codec::encode(&Packet::Publish(Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: false,
            topic: TopicName::new("drib/ble").unwrap(),
            packet_id: None,
            payload: Bytes::from_static(b"slowly-but-surely"),
        }))
        .unwrap(),
    );
    for b in wire {
        dribbler.send_frame(Bytes::copy_from_slice(&[b])).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    while watcher.received.lock().is_empty() {
        assert!(Instant::now() < deadline, "dribbled publish never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        watcher.sorted_received(),
        vec![(
            "drib/ble".to_owned(),
            b"slowly-but-surely".to_vec(),
            0,
            false
        )]
    );
    broker.shutdown();
}

#[test]
fn tcp_partial_frames_reassemble_across_dribbled_bytes() {
    dribbled_bytes_reassemble(Transport::Tcp, "rt2");
}

#[test]
fn in_process_partial_frames_reassemble_across_dribbled_bytes() {
    dribbled_bytes_reassemble(Transport::InProcess, "rt2i");
}

/// Any packet before CONNECT is a protocol violation: the broker closes
/// the connection without answering.
fn packet_before_connect_is_dropped(transport: Transport, name: &str) {
    let broker = Broker::start(BrokerConfig {
        name: name.to_owned(),
        ..BrokerConfig::default()
    });
    let addr = broker.listen("127.0.0.1:0").unwrap();
    let link = open(&broker, addr, transport);
    link.send_packet(&Packet::Publish(Publish::simple(
        TopicName::new("t").unwrap(),
        b"x".to_vec(),
    )))
    .unwrap();
    assert_eq!(
        link.recv_packet_timeout(Duration::from_secs(30))
            .unwrap_err(),
        MqttError::Disconnected
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while broker.stats().connections_current != 0 {
        assert!(
            Instant::now() < deadline,
            "gated connection was never dropped"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    broker.shutdown();
}

#[test]
fn tcp_packet_before_connect_is_dropped() {
    packet_before_connect_is_dropped(Transport::Tcp, "rt-gate");
}

#[test]
fn in_process_packet_before_connect_is_dropped() {
    packet_before_connect_is_dropped(Transport::InProcess, "rt-gatei");
}

#[test]
fn tcp_clients_fan_out_across_shards() {
    let broker = Broker::start(BrokerConfig {
        name: "rt4".to_owned(),
        shards: 4,
        ..BrokerConfig::default()
    });
    let addr = broker.listen("127.0.0.1:0").unwrap();

    let subs: Vec<SyncClient> = (0..8)
        .map(|i| {
            let c = SyncClient::over(tcp_link(addr).unwrap(), &format!("shard-sub-{i}"));
            c.subscribe("fan/out", QoS::AtLeastOnce, 1);
            c
        })
        .collect();
    let publ = SyncClient::over(tcp_link(addr).unwrap(), "shard-pub");
    publ.publish_qos1("fan/out", b"to-everyone", false, 9);
    quiesce(&broker);
    for (i, sub) in subs.iter().enumerate() {
        assert_eq!(
            sub.sorted_received(),
            vec![("fan/out".to_owned(), b"to-everyone".to_vec(), 1, false)],
            "subscriber {i}"
        );
    }
    broker.shutdown();
}

#[test]
fn broker_threads_stay_constant_as_tcp_connections_grow() {
    // Unique, short name: /proc comm truncates at 15 chars and other
    // tests' brokers run concurrently.
    let broker = Broker::start(BrokerConfig {
        name: "thrx".to_owned(),
        shards: 4,
        ..BrokerConfig::default()
    });
    let addr = broker.listen("127.0.0.1:0").unwrap();
    // A freshly spawned thread names itself, so give the acceptor a
    // moment to appear in /proc.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut baseline = threads_named("thrx");
    while baseline < 5 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        baseline = threads_named("thrx");
    }
    assert!(
        baseline >= 5,
        "expected 4 shard loops + acceptor, saw {baseline}"
    );

    // 100 connections by default (cheap enough for the workspace test
    // run under conservative fd limits); CI's reactor smoke step sets
    // SDFLMQ_REACTOR_CONNS=1000 with a raised ulimit.
    let n: usize = std::env::var("SDFLMQ_REACTOR_CONNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);
    let conns: Vec<RawTcp> = (0..n)
        .map(|i| RawTcp::connect(addr, &format!("c{i:04}"), None))
        .collect();
    let after = threads_named("thrx");
    assert_eq!(
        after, baseline,
        "broker threads must be O(shards), not O(connections)"
    );
    assert_eq!(broker.stats().connections_current, conns.len() as u64);
    drop(conns);
    broker.shutdown();
}

fn slow_consumer_evicted_with_will(transport: Transport, name: &str) {
    let broker = Broker::start(BrokerConfig {
        name: name.to_owned(),
        // Small enough that an unread subscriber trips it quickly, big
        // enough that handshakes never do.
        tcp_write_hwm: 256 * 1024,
        ..BrokerConfig::default()
    });
    let addr = broker.listen("127.0.0.1:0").unwrap();

    let watcher = SyncClient::over(open(&broker, addr, transport), "evict-watch");
    watcher.subscribe("wills/#", QoS::AtMostOnce, 1);

    // The victim subscribes to the flood topic, registers a will, and
    // then never reads again.
    let victim = open(&broker, addr, transport);
    handshake(
        &victim,
        "evict-victim",
        Some(LastWill {
            topic: TopicName::new("wills/victim").unwrap(),
            payload: Bytes::from_static(b"i-was-too-slow"),
            qos: QoS::AtMostOnce,
            retain: false,
        }),
    );
    victim
        .send_packet(&Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![(TopicFilter::new("flood/#").unwrap(), QoS::AtMostOnce)],
        }))
        .unwrap();
    match victim.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
        Packet::Suback(_) => {}
        other => panic!("expected suback, got {other:?}"),
    }
    // From here on the victim stops reading: kernel buffers fill, then
    // the broker-side outbound queue climbs to the high-water mark.

    let publ = SyncClient::over(open(&broker, addr, transport), "evict-pub");
    let blob = vec![0xabu8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut id = 10u16;
    while broker.stats().slow_consumer_evictions == 0 {
        assert!(Instant::now() < deadline, "victim was never evicted");
        publ.publish_qos1("flood/data", &blob, false, id);
        id = id.wrapping_add(1).max(10);
    }

    // The eviction is ungraceful, so the victim's will must reach the
    // watcher.
    let will_deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let got = watcher.sorted_received();
        if got
            .iter()
            .any(|(t, p, _, _)| t == "wills/victim" && p == b"i-was-too-slow")
        {
            break;
        }
        assert!(Instant::now() < will_deadline, "will never fired: {got:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(broker.stats().slow_consumer_evictions, 1);
    drop(victim);
    broker.shutdown();
}

#[test]
fn slow_consumer_is_evicted_and_will_fires() {
    slow_consumer_evicted_with_will(Transport::Tcp, "rt-evict");
}

#[test]
fn in_process_slow_consumer_is_evicted_and_will_fires() {
    slow_consumer_evicted_with_will(Transport::InProcess, "rt-evicti");
}

#[test]
fn fault_delay_rides_the_reactor_timer_not_a_thread() {
    let plan = FaultPlan::seeded(7).rule(
        FaultRule::new("lag", FaultAction::Delay(Duration::from_millis(300)))
            .on_topic("lagged/topic"),
    );
    let broker = Broker::start(BrokerConfig {
        name: "rt-delay".to_owned(),
        fault_plan: Some(plan),
        ..BrokerConfig::default()
    });
    let addr = broker.listen("127.0.0.1:0").unwrap();

    let sub = SyncClient::over(tcp_link(addr).unwrap(), "delay-sub");
    sub.subscribe("lagged/#", QoS::AtMostOnce, 1);
    let publ = SyncClient::over(tcp_link(addr).unwrap(), "delay-pub");
    let sent_at = Instant::now();
    publ.publish_qos1("lagged/topic", b"later", false, 2);

    // While the delivery is parked on the timer heap, no sleeper thread
    // may exist (the old implementation spawned "<name>-fault-delay").
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        threads_named("rt-delay-fault"),
        0,
        "fault delays must not spawn timer threads"
    );

    let deadline = Instant::now() + Duration::from_secs(30);
    while sub.received.lock().is_empty() {
        assert!(Instant::now() < deadline, "delayed publish never arrived");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        sent_at.elapsed() >= Duration::from_millis(300),
        "delivery arrived before the configured delay"
    );
    assert_eq!(
        sub.sorted_received(),
        vec![("lagged/topic".to_owned(), b"later".to_vec(), 0, false)]
    );
    broker.shutdown();
}

#[test]
fn tcp_transport_matches_link_reference_multiset() {
    // The in-process single-shard run is the reference; the script below
    // interleaves overlapping subscriptions, unsubscribes, and retained
    // publishes. Both transports must deliver the exact same multiset to
    // every client.
    #[derive(Clone)]
    enum Op {
        Sub(usize, &'static str, QoS),
        Unsub(usize, &'static str),
        Pub(usize, &'static str, bool, u8),
    }
    use Op::*;
    let script = [
        Sub(0, "a/#", QoS::AtLeastOnce),
        Sub(1, "a/+", QoS::AtMostOnce),
        Pub(2, "a/b", true, 1),
        Sub(2, "a/b", QoS::AtLeastOnce), // retained replay
        Pub(0, "a/b/c", false, 2),
        Unsub(1, "a/+"),
        Pub(1, "a/b", false, 3),
        Pub(2, "c", true, 4),
        Sub(3, "#", QoS::AtLeastOnce), // retained replay of a/b and c
        Pub(3, "a/x", false, 5),
        Pub(0, "a/b", true, 6), // replace retained
        Unsub(0, "a/#"),
        Pub(1, "a/b/c", false, 7),
    ];

    let run = |tcp: bool, shards: usize| -> Vec<Vec<Recorded>> {
        let broker = Broker::start(BrokerConfig {
            name: format!("dif{shards}{}", u8::from(tcp)),
            shards,
            ..BrokerConfig::default()
        });
        let addr = broker.listen("127.0.0.1:0").unwrap();
        let clients: Vec<SyncClient> = (0..4)
            .map(|i| {
                let link = if tcp {
                    tcp_link(addr).unwrap()
                } else {
                    broker.connect_transport().unwrap()
                };
                SyncClient::over(link, &format!("n{i}"))
            })
            .collect();
        for (seq, op) in script.iter().enumerate() {
            let id = (seq + 1) as u16;
            match op {
                Sub(c, f, q) => clients[*c].subscribe(f, *q, id),
                Unsub(c, f) => {
                    clients[*c]
                        .link
                        .send_packet(&Packet::Unsubscribe(Unsubscribe {
                            packet_id: id,
                            filters: vec![TopicFilter::new(*f).unwrap()],
                        }))
                        .unwrap();
                    clients[*c].wait_ack("unsuback");
                }
                Pub(c, t, retain, tag) => {
                    clients[*c].publish_qos1(t, &[*tag, seq as u8], *retain, id)
                }
            }
        }
        quiesce(&broker);
        let out = clients.iter().map(SyncClient::sorted_received).collect();
        broker.shutdown();
        out
    };

    let reference = run(false, 1);
    for shards in [1usize, 4] {
        let got = run(true, shards);
        assert_eq!(
            got, reference,
            "TCP transport at shards={shards} diverged from the link reference"
        );
    }
}
