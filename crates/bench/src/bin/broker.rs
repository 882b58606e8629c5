//! Broker-core benchmark: publish/fan-out throughput and delivery latency
//! across event-loop shard counts, emitted as `BENCH_broker.json`.
//!
//! Workloads over the **real** broker (raw MQTT frames over in-process
//! socket-pair connections, no FL stack):
//!
//! * `fanout` — CPU-bound routing: 8 publishers blast QoS 0 publishes at
//!   subscriber pools of 1 → 1000. Each delivery's latency is measured
//!   from a timestamp embedded in the payload (p50/p99). On a multi-core host this scales with shards; on a
//!   single-core host it is flat by construction (the work is CPU).
//! * `retained` — retained set/clear churn (QoS 1 round-trips). This
//!   funnels through the index's single writer by design, so it is
//!   expected to stay flat across shard counts; it is recorded to prove
//!   the writer does not *regress* as shards are added.
//! * `durability` — the write-behind WAL axis: identical QoS 1 round
//!   traffic (persistent subscribers, so every delivery logs inflight
//!   records) against an in-memory broker and durable brokers under
//!   `OsCache` and `GroupCommit`. Gated: durable OsCache round
//!   throughput ≥ 0.85x the in-memory baseline (0.60x on single-core
//!   hosts, where the persistence thread has no spare core to overlap
//!   with), and steady-state WAL
//!   appends allocation-free (counting-allocator probe). A durable
//!   connection-scaling cell checks the persistence thread stays off
//!   the O(shards) thread budget.
//! * `recovery` — durable-broker restart cost: seed 1k/10k retained
//!   topics, time a full WAL replay, then compact and time the snapshot
//!   replay, recording both on-disk footprints.
//! * `connections` — reactor scalability on the *socket* axis: 1k/10k
//!   real TCP clients connect, subscribe, sit idle, then all receive a
//!   round's model broadcast. Records the broker-side thread count at
//!   10k connections and asserts it stays O(shards) — the property the
//!   readiness-driven reactor buys over thread-per-connection (the old
//!   design would need 10k reader threads here).
//!
//! ```text
//! cargo run --release -p sdflmq-bench --bin broker [-- --smoke]
//! ```
//!
//! `--smoke` shrinks volumes and the matrix for CI; every gate runs in
//! both modes.

use bytes::Bytes;
use sdflmq_bench::CountingAlloc;
use sdflmq_mqtt::broker::{Broker, BrokerConfig};
use sdflmq_mqtt::codec;
use sdflmq_mqtt::packet::{Connack, Connect, Packet, Publish, QoS, Subscribe};
use sdflmq_mqtt::persist::{store, wal, Durability, Persistence, WalRecord};
use sdflmq_mqtt::topic::{TopicFilter, TopicName};
use sdflmq_mqtt::transport::LinkEnd;
use sdflmq_mqttfc::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PARTITIONS: usize = 8;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// FNV-1a, mirroring the broker's shard assignment: used to mint client
/// ids that land on a chosen shard residue so partitions stay balanced
/// at every shard count in the matrix (residue mod 8 fixes mod 4/2/1).
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn pinned_id(prefix: &str, residue: u64) -> String {
    (0u64..)
        .map(|salt| format!("{prefix}-{salt}"))
        .find(|id| fnv(id) % PARTITIONS as u64 == residue)
        .expect("searchable")
}

/// Raw MQTT client: CONNECT handshake done, link exposed.
fn connect(broker: &Broker, id: &str) -> LinkEnd {
    connect_session(broker, id, true)
}

/// [`connect`] with an explicit clean-session flag — the durability axis
/// needs persistent sessions so deliveries generate WAL records.
fn connect_session(broker: &Broker, id: &str, clean_session: bool) -> LinkEnd {
    let link = broker.connect_transport().unwrap();
    link.send_packet(&Packet::Connect(Connect {
        client_id: id.to_owned(),
        clean_session,
        keep_alive: 0,
        will: None,
    }))
    .unwrap();
    match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
        Packet::Connack(Connack { code, .. }) => assert_eq!(code as u8, 0),
        other => panic!("expected connack, got {other:?}"),
    }
    link
}

fn subscribe(link: &LinkEnd, filter: &str, qos: QoS) {
    link.send_packet(&Packet::Subscribe(Subscribe {
        packet_id: 1,
        filters: vec![(TopicFilter::new(filter).unwrap(), qos)],
    }))
    .unwrap();
    match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
        Packet::Suback(_) => {}
        other => panic!("expected suback, got {other:?}"),
    }
}

fn broker_with(shards: usize) -> Broker {
    Broker::start(BrokerConfig {
        name: format!("bench-{shards}"),
        shards,
        ..BrokerConfig::default()
    })
}

struct FanoutCell {
    shards: usize,
    fanout: usize,
    throughput: f64,
    p50_us: f64,
    p99_us: f64,
}

/// CPU-bound fan-out: `PARTITIONS` publishers to one shared topic with
/// `fanout` subscribers; QoS 0 encode-once delivery.
fn bench_fanout(shards: usize, fanout: usize, msgs_per_pub: usize) -> FanoutCell {
    let broker = broker_with(shards);
    let delivered = Arc::new(AtomicU64::new(0));
    let epoch = Instant::now();
    let latencies: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let mut drains = Vec::new();
    for i in 0..fanout {
        let link = connect(&broker, &format!("sub-{i}"));
        subscribe(&link, "fan/all", QoS::AtMostOnce);
        let delivered = Arc::clone(&delivered);
        let latencies = Arc::clone(&latencies);
        drains.push(std::thread::spawn(move || {
            let mut local = Vec::with_capacity(4096);
            let mut n = 0u64;
            while let Ok(frame) = link.recv_frame() {
                n += 1;
                // Payload tail carries the send timestamp (ns since epoch).
                if n.is_multiple_of(16) && frame.len() >= 8 {
                    let mut ts = [0u8; 8];
                    ts.copy_from_slice(&frame[frame.len() - 8..]);
                    let sent = u64::from_be_bytes(ts);
                    let now = epoch.elapsed().as_nanos() as u64;
                    local.push(now.saturating_sub(sent));
                }
                delivered.fetch_add(1, Ordering::Relaxed);
            }
            latencies.lock().unwrap().extend_from_slice(&local);
        }));
    }

    let expected = (PARTITIONS * msgs_per_pub * fanout) as u64;
    let topic = TopicName::new("fan/all").unwrap();
    let start = Instant::now();
    let pubs: Vec<_> = (0..PARTITIONS)
        .map(|p| {
            let link = connect(&broker, &pinned_id("pub", p as u64));
            let topic = topic.clone();
            std::thread::spawn(move || {
                for _ in 0..msgs_per_pub {
                    let ts = epoch.elapsed().as_nanos() as u64;
                    let frame = codec::encode(&Packet::Publish(Publish {
                        dup: false,
                        qos: QoS::AtMostOnce,
                        retain: false,
                        topic: topic.clone(),
                        packet_id: None,
                        payload: Bytes::from(ts.to_be_bytes().to_vec()),
                    }))
                    .unwrap();
                    link.send_frame(frame).unwrap();
                }
                link // keep the connection open until all cells drain
            })
        })
        .collect();
    let _links: Vec<LinkEnd> = pubs.into_iter().map(|t| t.join().unwrap()).collect();
    while delivered.load(Ordering::Relaxed) < expected {
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall = start.elapsed().as_secs_f64();
    drop(broker); // closes links; drain threads exit
    for d in drains {
        let _ = d.join();
    }

    let mut lat = Arc::try_unwrap(latencies).unwrap().into_inner().unwrap();
    lat.sort_unstable();
    let pct = |p: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() - 1) as f64 * p).round() as usize;
        lat[idx] as f64 / 1_000.0
    };
    FanoutCell {
        shards,
        fanout,
        throughput: expected as f64 / wall,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

/// Unsaturated fan-out completion probe: one publisher, `fanout`
/// subscribers, one message in flight at a time. Measures publish →
/// last-delivery wall time per round and returns the p50 in
/// microseconds.
///
/// This is the latency cross-shard batching protects: each publish
/// costs at most one coalesced `Deliver` batch + one wake per shard, so
/// the 8-shard probe must stay near the single-shard reference even on
/// one core (a per-message hop design pays ~`fanout` channel sends and
/// wakes instead). The saturated matrix above cannot gate this — under
/// full blast with `fanout` drain threads on one core, p50 is
/// scheduler queueing, not routing cost.
fn bench_fanout_latency(shards: usize, fanout: usize, rounds: usize) -> f64 {
    let broker = broker_with(shards);
    let subs: Vec<LinkEnd> = (0..fanout)
        .map(|i| {
            let link = connect(&broker, &format!("lat-sub-{i}"));
            subscribe(&link, "lat/all", QoS::AtMostOnce);
            link
        })
        .collect();
    let publ = connect(&broker, "lat-pub");
    let frame = codec::encode(&Packet::Publish(Publish {
        dup: false,
        qos: QoS::AtMostOnce,
        retain: false,
        topic: TopicName::new("lat/all").unwrap(),
        packet_id: None,
        payload: Bytes::from_static(b"latency-probe"),
    }))
    .unwrap();

    let mut samples = Vec::with_capacity(rounds);
    // Three warmup rounds prime snapshots and allocators before sampling.
    for round in 0..rounds + 3 {
        let t = Instant::now();
        publ.send_frame(frame.clone()).unwrap();
        for s in &subs {
            match s.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
                Packet::Publish(_) => {}
                other => panic!("expected publish, got {other:?}"),
            }
        }
        if round >= 3 {
            samples.push(t.elapsed().as_secs_f64() * 1_000_000.0);
        }
    }
    drop(broker);
    samples.sort_by(f64::total_cmp);
    samples[(samples.len() - 1) / 2]
}

/// Retained set/clear churn at QoS 1 (round-trip per op): exercises the
/// snapshot index's single writer. Returns ops/s.
fn bench_retained(shards: usize, ops_per_pub: usize) -> f64 {
    let broker = broker_with(shards);
    let start = Instant::now();
    let pubs: Vec<_> = (0..PARTITIONS)
        .map(|p| {
            let link = connect(&broker, &pinned_id("ret-pub", p as u64));
            std::thread::spawn(move || {
                for i in 0..ops_per_pub {
                    let clearing = i % 2 == 1;
                    let payload: &[u8] = if clearing { b"" } else { b"state" };
                    link.send_packet(&Packet::Publish(Publish {
                        dup: false,
                        qos: QoS::AtLeastOnce,
                        retain: true,
                        topic: TopicName::new(format!("ret/{p}/{}", i % 100)).unwrap(),
                        packet_id: Some((i % 60_000 + 1) as u16),
                        payload: Bytes::from_static(payload),
                    }))
                    .unwrap();
                    match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
                        Packet::Puback(_) => {}
                        other => panic!("expected puback, got {other:?}"),
                    }
                }
            })
        })
        .collect();
    for t in pubs {
        t.join().unwrap();
    }
    let wall = start.elapsed().as_secs_f64();
    drop(broker);
    (PARTITIONS * ops_per_pub) as f64 / wall
}

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Raises the open-fd limit toward `want` (each TCP client in this
/// single-process bench costs two descriptors: the client socket and the
/// broker's accepted end). With `CAP_SYS_RESOURCE` the hard limit itself
/// is raised; otherwise the soft limit is pushed to the hard ceiling.
/// Returns the resulting soft limit.
fn raise_nofile(want: u64) -> u64 {
    unsafe {
        let mut lim = RLimit { cur: 0, max: 0 };
        if getrlimit(RLIMIT_NOFILE, &mut lim) != 0 {
            return 1024;
        }
        if lim.cur >= want {
            return lim.cur;
        }
        let raised = RLimit {
            cur: want,
            max: want.max(lim.max),
        };
        if setrlimit(RLIMIT_NOFILE, &raised) == 0 {
            return want;
        }
        let clamped = RLimit {
            cur: lim.max,
            max: lim.max,
        };
        if setrlimit(RLIMIT_NOFILE, &clamped) == 0 {
            lim.max
        } else {
            lim.cur
        }
    }
}

/// Counts live threads of this process whose name starts with `prefix`
/// (via `/proc/self/task`; comm truncates at 15 bytes, so broker names in
/// the connection bench are kept short).
fn broker_threads(prefix: &str) -> usize {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path().join("comm")).ok())
        .filter(|comm| comm.trim_end().starts_with(prefix))
        .count()
}

struct DurableCell {
    mode: &'static str,
    throughput: f64,
    wal_records: u64,
    wal_batches: u64,
    fsyncs: u64,
    wal_queue_hwm: u64,
    wal_stalls: u64,
}

/// Durability axis: `PARTITIONS` publishers blast QoS 1 publishes at
/// `subs` *persistent* (clean-session = false) QoS 1 subscribers, so
/// every delivery drives an inflight insert/remove record pair through
/// the write-behind WAL pipeline. The same traffic runs with
/// persistence disabled (the in-memory baseline the durable floor is
/// gated against), `OsCache`, and `GroupCommit`.
fn bench_durable(
    shards: usize,
    subs: usize,
    msgs_per_pub: usize,
    persistence: Persistence,
    mode: &'static str,
) -> DurableCell {
    let broker = Broker::start(BrokerConfig {
        name: format!("dur-{mode}"),
        shards,
        persistence,
        ..BrokerConfig::default()
    });
    let delivered = Arc::new(AtomicU64::new(0));
    let mut drains = Vec::new();
    for i in 0..subs {
        let link = connect_session(&broker, &format!("dsub-{i}"), false);
        subscribe(&link, "dur/all", QoS::AtLeastOnce);
        let delivered = Arc::clone(&delivered);
        drains.push(std::thread::spawn(move || {
            while let Ok(packet) = link.recv_packet() {
                if let Packet::Publish(p) = packet {
                    if let Some(id) = p.packet_id {
                        if link.send_packet(&Packet::Puback(id)).is_err() {
                            break;
                        }
                    }
                    delivered.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }

    let expected = (PARTITIONS * msgs_per_pub * subs) as u64;
    let topic = TopicName::new("dur/all").unwrap();
    let start = Instant::now();
    let pubs: Vec<_> = (0..PARTITIONS)
        .map(|p| {
            let link = connect(&broker, &pinned_id("dpub", p as u64));
            let topic = topic.clone();
            std::thread::spawn(move || {
                for i in 0..msgs_per_pub {
                    let frame = codec::encode(&Packet::Publish(Publish {
                        dup: false,
                        qos: QoS::AtLeastOnce,
                        retain: false,
                        topic: topic.clone(),
                        packet_id: Some((i % 60_000 + 1) as u16),
                        payload: Bytes::from_static(b"durable-round-update"),
                    }))
                    .unwrap();
                    link.send_frame(frame).unwrap();
                }
                link // pubacks from the broker drain into the link buffer
            })
        })
        .collect();
    let _links: Vec<LinkEnd> = pubs.into_iter().map(|t| t.join().unwrap()).collect();
    while delivered.load(Ordering::Relaxed) < expected {
        std::thread::sleep(Duration::from_millis(1));
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = broker.stats();
    drop(broker); // closes links, joins shards + persistence thread
    for d in drains {
        let _ = d.join();
    }
    DurableCell {
        mode,
        throughput: expected as f64 / wall,
        wal_records: stats.wal_records,
        wal_batches: stats.wal_batches,
        fsyncs: stats.fsyncs,
        wal_queue_hwm: stats.wal_queue_hwm,
        wal_stalls: stats.wal_stalls,
    }
}

/// Steady-state WAL writer allocation probe (the PR 8 data-plane probe
/// extended to the durable path): appends pre-built records through the
/// reused encode scratch, per-record and group-committed, and counts
/// allocations per round. After warmup the writer must be
/// allocation-free — every round's count is zero.
fn bench_wal_allocs_per_round(rounds: usize) -> (Vec<u64>, bool) {
    let dir = std::env::temp_dir().join(format!("sdflmq-bench-walalloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("probe.log");
    let mut writer = wal::WalWriter::create(&path).unwrap();
    let records: Vec<WalRecord> = (0..64)
        .map(|i| WalRecord::InflightInsert {
            client: format!("probe-client-{}", i % 4),
            id: (i % 60_000 + 1) as u16,
            topic: TopicName::new("dur/all").unwrap(),
            qos: QoS::AtLeastOnce,
            retain: false,
            released: false,
            payload: Bytes::from_static(b"durable-round-update"),
        })
        .collect();
    let mut seq = 0u64;
    let round = |writer: &mut wal::WalWriter, seq: &mut u64| {
        for rec in &records[..32] {
            *seq += 1;
            writer.append(*seq, rec).unwrap();
        }
        *seq = writer.append_batch(*seq, &records[32..]).unwrap();
    };
    // Warmup: encode scratch and write buffer reach steady capacity.
    for _ in 0..2 {
        round(&mut writer, &mut seq);
    }
    let mut per_round = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let before = CountingAlloc::count();
        round(&mut writer, &mut seq);
        per_round.push(CountingAlloc::count() - before);
    }
    let flat = per_round.iter().all(|n| *n == 0);
    drop(writer);
    let _ = std::fs::remove_dir_all(&dir);
    (per_round, flat)
}

struct ConnCell {
    shards: usize,
    connections: usize,
    broker_threads: usize,
    connect_ms: f64,
    round_ms: f64,
    round_msgs_per_s: f64,
}

/// Reads one complete MQTT packet from a blocking socket, buffering
/// partial frames in `buf`.
fn read_tcp_packet(stream: &mut std::net::TcpStream, buf: &mut Vec<u8>) -> Packet {
    use std::io::Read;
    let mut chunk = [0u8; 4096];
    loop {
        if let Ok(Some(len)) = codec::frame_length(buf) {
            if buf.len() >= len {
                let frame: Vec<u8> = buf.drain(..len).collect();
                let (packet, _) = codec::decode(&Bytes::from(frame)).expect("valid frame");
                return packet;
            }
        }
        let n = stream.read(&mut chunk).expect("read from broker");
        assert!(n > 0, "broker closed connection mid-handshake");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Client-side driver for the connection bench, run as a **child
/// process** so the broker process carries only its own accepted sockets
/// (one process cannot hold both ends of 10k connections under a 20k fd
/// ceiling). Protocol on stdio: connect + subscribe everything, print
/// `READY <connect_ms>`, wait for `GO`, then read the round broadcast on
/// every socket (decoding frames, not counting bytes) and print `DONE`.
fn conn_driver(addr: std::net::SocketAddr, conns: usize, persistent: bool) -> ! {
    use std::io::{BufRead, Read, Write};
    raise_nofile(65_536);

    let hello = |id: &str| {
        let mut wire = codec::encode(&Packet::Connect(Connect {
            client_id: id.to_owned(),
            clean_session: !persistent,
            keep_alive: 0,
            will: None,
        }))
        .unwrap()
        .to_vec();
        wire.extend_from_slice(
            &codec::encode(&Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![(TopicFilter::new("round/model").unwrap(), QoS::AtMostOnce)],
            }))
            .unwrap(),
        );
        wire
    };

    // CONNECT + SUBSCRIBE pipelined into a single round trip per client.
    let t0 = Instant::now();
    let mut socks: Vec<(std::net::TcpStream, Vec<u8>)> = Vec::with_capacity(conns);
    for i in 0..conns {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        s.write_all(&hello(&format!("conn-{i}"))).unwrap();
        let mut buf = Vec::new();
        match read_tcp_packet(&mut s, &mut buf) {
            Packet::Connack(Connack { code, .. }) => assert_eq!(code as u8, 0),
            other => panic!("expected connack, got {other:?}"),
        }
        match read_tcp_packet(&mut s, &mut buf) {
            Packet::Suback(_) => {}
            other => panic!("expected suback, got {other:?}"),
        }
        socks.push((s, buf));
    }
    let connect_ms = t0.elapsed().as_secs_f64() * 1_000.0;
    println!("READY {connect_ms}");
    std::io::stdout().flush().unwrap();

    let mut line = String::new();
    std::io::stdin().lock().read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "GO", "unexpected driver command");

    for (s, _) in &socks {
        s.set_nonblocking(true).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut got = vec![false; conns];
    let mut remaining = conns;
    let mut chunk = [0u8; 16384];
    while remaining > 0 {
        assert!(
            Instant::now() < deadline,
            "round broadcast incomplete: {remaining}/{conns} still waiting"
        );
        let mut progressed = false;
        for (i, (s, buf)) in socks.iter_mut().enumerate() {
            if got[i] {
                continue;
            }
            match s.read(&mut chunk) {
                Ok(0) => panic!("broker closed connection {i} mid-round"),
                Ok(n) => {
                    progressed = true;
                    buf.extend_from_slice(&chunk[..n]);
                    while let Ok(Some(len)) = codec::frame_length(buf) {
                        if buf.len() < len {
                            break;
                        }
                        let frame: Vec<u8> = buf.drain(..len).collect();
                        let (packet, _) = codec::decode(&Bytes::from(frame)).expect("valid frame");
                        if let Packet::Publish(p) = packet {
                            assert_eq!(p.payload.len(), 1024);
                            got[i] = true;
                            remaining -= 1;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("read error on connection {i}: {e}"),
            }
        }
        if !progressed {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    println!("DONE");
    std::io::stdout().flush().unwrap();
    std::process::exit(0);
}

/// Connection-count axis over **real TCP**: `conns` clients (held by a
/// child process, see [`conn_driver`]) connect and subscribe to the round
/// topic, sit idle while the broker-side thread count is sampled, then a
/// publisher broadcasts one 1 KiB model update that every client must
/// receive and decode. The thread count is the headline: it must not grow
/// with `conns`.
fn bench_connections(shards: usize, conns: usize, persistence: Persistence) -> ConnCell {
    use std::io::{BufRead, BufReader, Write};
    let durable = persistence.enabled();
    // Short + unique: /proc comm truncates thread names at 15 bytes.
    let name = format!(
        "cx{shards}n{}{}",
        conns / 1000,
        if durable { "d" } else { "" }
    );
    let broker = Broker::start(BrokerConfig {
        name: name.clone(),
        shards,
        persistence,
        ..BrokerConfig::default()
    });
    let addr = broker.listen("127.0.0.1:0").unwrap();

    let exe = std::env::current_exe().expect("own path");
    let mut child = std::process::Command::new(exe)
        .arg("--conn-driver")
        .arg(addr.to_string())
        .arg(conns.to_string())
        .args(durable.then_some("--persistent"))
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn connection driver");
    let mut child_in = child.stdin.take().unwrap();
    let mut child_out = BufReader::new(child.stdout.take().unwrap());

    let mut ready = String::new();
    child_out.read_line(&mut ready).unwrap();
    let connect_ms: f64 = ready
        .trim()
        .strip_prefix("READY ")
        .expect("driver READY line")
        .parse()
        .unwrap();

    // Idle phase: every client connected and subscribed, nothing moving.
    std::thread::sleep(Duration::from_millis(300));
    let threads = broker_threads(&name);
    assert_eq!(broker.stats().connections_current, conns as u64);

    // Round broadcast: one publisher, one 1 KiB update, `conns` receivers.
    let mut publisher = std::net::TcpStream::connect(addr).unwrap();
    publisher.set_nodelay(true).unwrap();
    publisher
        .write_all(
            &codec::encode(&Packet::Connect(Connect {
                client_id: "round-pub".to_owned(),
                clean_session: true,
                keep_alive: 0,
                will: None,
            }))
            .unwrap(),
        )
        .unwrap();
    let mut pub_buf = Vec::new();
    match read_tcp_packet(&mut publisher, &mut pub_buf) {
        Packet::Connack(_) => {}
        other => panic!("expected connack, got {other:?}"),
    }

    let t1 = Instant::now();
    child_in.write_all(b"GO\n").unwrap();
    child_in.flush().unwrap();
    publisher
        .write_all(
            &codec::encode(&Packet::Publish(Publish {
                dup: false,
                qos: QoS::AtMostOnce,
                retain: false,
                topic: TopicName::new("round/model").unwrap(),
                packet_id: None,
                payload: Bytes::from(vec![0x5au8; 1024]),
            }))
            .unwrap(),
        )
        .unwrap();
    let mut done = String::new();
    child_out.read_line(&mut done).unwrap();
    assert_eq!(done.trim(), "DONE", "driver failed mid-round");
    let round_s = t1.elapsed().as_secs_f64();

    child.wait().unwrap();
    drop(publisher);
    broker.shutdown();
    ConnCell {
        shards,
        connections: conns,
        broker_threads: threads,
        connect_ms,
        round_ms: round_s * 1_000.0,
        round_msgs_per_s: conns as f64 / round_s,
    }
}

struct RecoveryCell {
    topics: usize,
    wal_bytes: u64,
    wal_replay_ms: f64,
    snapshot_bytes: u64,
    snapshot_replay_ms: f64,
}

/// Total size of the persistence files directly under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Durable-broker recovery: seed `topics` retained topics through the WAL
/// (compaction disabled), time a replay from the raw log, then compact
/// into a snapshot and time the replay again. Reports both on-disk sizes.
fn bench_recovery(topics: usize) -> RecoveryCell {
    let dir = std::env::temp_dir().join(format!(
        "sdflmq-bench-recovery-{topics}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let durable = || {
        Broker::start(BrokerConfig {
            name: format!("bench-recovery-{topics}"),
            // Effectively disable threshold compaction so phase one
            // leaves a pure append log.
            persistence: Persistence::at(dir.clone()).snapshot_every(u64::MAX / 2),
            ..BrokerConfig::default()
        })
    };

    // Phase 1: four retained updates per topic, so the append log carries
    // the churn a snapshot folds away.
    {
        let broker = durable();
        let link = connect(&broker, "rec-pub");
        for i in 0..topics * 4 {
            let t = i % topics;
            link.send_packet(&Packet::Publish(Publish {
                dup: false,
                qos: QoS::AtLeastOnce,
                retain: true,
                topic: TopicName::new(format!("rec/{}/{}", t / 100, t % 100)).unwrap(),
                packet_id: Some((i % 60_000 + 1) as u16),
                payload: Bytes::from(vec![(i / topics) as u8; 32]),
            }))
            .unwrap();
            match link.recv_packet_timeout(Duration::from_secs(30)).unwrap() {
                Packet::Puback(_) => {}
                other => panic!("expected puback, got {other:?}"),
            }
        }
    }

    let wal_bytes = dir_bytes(&dir);
    let start = Instant::now();
    let state = store::recover_dir(&dir, 1024);
    let wal_replay_ms = start.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(state.retained.len(), topics, "WAL replay must be lossless");

    // Phase 2: recover, fold into a snapshot, measure the compacted form.
    {
        let broker = durable();
        broker.snapshot_now();
    }
    let snapshot_bytes = dir_bytes(&dir);
    let start = Instant::now();
    let state = store::recover_dir(&dir, 1024);
    let snapshot_replay_ms = start.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(
        state.retained.len(),
        topics,
        "snapshot replay must be lossless"
    );

    let _ = std::fs::remove_dir_all(&dir);
    RecoveryCell {
        topics,
        wal_bytes,
        wal_replay_ms,
        snapshot_bytes,
        snapshot_replay_ms,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let Some(i) = argv.iter().position(|a| a == "--conn-driver") {
        let addr = argv[i + 1].parse().expect("driver addr");
        let conns = argv[i + 2].parse().expect("driver conn count");
        let persistent = argv.iter().any(|a| a == "--persistent");
        conn_driver(addr, conns, persistent);
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shard_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    let fanouts: &[usize] = if smoke {
        &[1, 100]
    } else {
        &[1, 10, 100, 1000]
    };
    let scale = if smoke { 10 } else { 1 };
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("# Broker core — {PARTITIONS} publishers, shards {shard_counts:?}, {cpus} CPUs\n");

    // --- CPU-bound fan-out matrix ---------------------------------------
    println!("fanout matrix (QoS 0):");
    println!("shards  fanout  msgs/s      p50-us   p99-us");
    let mut fanout_cells = Vec::new();
    for &shards in shard_counts {
        for &fanout in fanouts {
            let msgs_per_pub = (match fanout {
                1 => 12_000,
                10 => 2_000,
                100 => 250,
                _ => 25,
            }) / scale;
            let cell = bench_fanout(shards, fanout, msgs_per_pub.max(5));
            println!(
                "{:>6}  {:>6}  {:>10.0}  {:>7.0}  {:>7.0}",
                cell.shards, cell.fanout, cell.throughput, cell.p50_us, cell.p99_us
            );
            fanout_cells.push(cell);
        }
    }

    // --- Retained churn --------------------------------------------------
    println!("\nretained churn (QoS 1 set/clear):");
    println!("shards  ops/s");
    let ret_ops = 1_500 / scale;
    let mut retained: Vec<(usize, f64)> = Vec::new();
    for shards in [1usize, 4] {
        let rate = bench_retained(shards, ret_ops);
        println!("{shards:>6}  {rate:>10.0}");
        retained.push((shards, rate));
    }

    // --- Durability axis (write-behind WAL) ------------------------------
    // Same QoS 1 round traffic against an in-memory broker and durable
    // brokers under each fsync policy. FL round traffic is bursty: a
    // round of model-update publishes, then client-side training think
    // time during which the write-behind queue drains. The durable
    // brokers are therefore configured with a WAL queue sized to absorb
    // one full round (the deployment-tuning knob `queue_capacity`), so
    // the cell measures the shard-side enqueue cost — the thing the
    // write-behind pipeline is supposed to make cheap — rather than
    // sustained-saturation backpressure. Gated: durable OsCache round
    // throughput >= 0.85x the in-memory baseline (0.60x single-core).
    println!("\ndurability axis (QoS 1 persistent subscribers, 4 shards):");
    println!("mode              msgs/s  wal-recs  batches  fsyncs  q-hwm  stalls");
    let dur_subs = 16;
    let dur_msgs = (2_400 / scale).max(40);
    // Two WAL records (inflight insert + remove) per QoS 1 delivery,
    // spread over 4 shard streams; headroom of 2x on top.
    let dur_queue = PARTITIONS * dur_msgs * dur_subs;
    let dur_dir = |mode: &str| {
        let dir = std::env::temp_dir().join(format!(
            "sdflmq-bench-durability-{mode}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // Best-of-3 per mode: the cells are sub-second, so a single run is
    // at the mercy of scheduler noise (especially on one core, where
    // the persistence thread time-slices against the shards).
    let best_of = |persistence: &dyn Fn() -> Persistence, mode: &'static str| {
        (0..3)
            .map(|_| bench_durable(4, dur_subs, dur_msgs, persistence(), mode))
            .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
            .unwrap()
    };
    let durability_cells = [
        best_of(&Persistence::disabled, "disabled"),
        best_of(
            &|| Persistence::at(dur_dir("oscache")).queue_capacity(dur_queue),
            "oscache",
        ),
        best_of(
            &|| {
                Persistence::at(dur_dir("groupcommit"))
                    .queue_capacity(dur_queue)
                    .durability(Durability::GroupCommit {
                        interval: Duration::from_millis(2),
                    })
            },
            "group_commit",
        ),
    ];
    for c in &durability_cells {
        println!(
            "{:<12}  {:>10.0}  {:>8}  {:>7}  {:>6}  {:>5}  {:>6}",
            c.mode,
            c.throughput,
            c.wal_records,
            c.wal_batches,
            c.fsyncs,
            c.wal_queue_hwm,
            c.wal_stalls
        );
    }
    for mode in ["oscache", "groupcommit"] {
        let _ = std::fs::remove_dir_all(dur_dir(mode));
    }
    let durable_floor = durability_cells[1].throughput / durability_cells[0].throughput;
    // The pipeline's claim is that WAL work runs *off* the shard
    // threads: with a spare core the persistence thread overlaps the
    // round and durable throughput tracks the in-memory baseline
    // (floor 0.85x). On a single-core host there is nothing to overlap
    // with — every WAL byte encoded and written is CPU taken from the
    // shards — so the gate instead bounds the strictly-additive cost
    // at 0.60x.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let durable_floor_required = if host_cores > 1 { 0.85 } else { 0.60 };
    println!(
        "durable OsCache floor: {durable_floor:.2}x in-memory (required {durable_floor_required:.2}x on {host_cores} core(s))"
    );
    assert!(
        durability_cells[1].wal_records > 0 && durability_cells[1].wal_batches > 0,
        "durable cells must drive records through the write-behind pipeline"
    );
    assert!(
        durability_cells[2].fsyncs >= 1,
        "GroupCommit must issue at least one coalesced fsync"
    );
    assert!(
        durable_floor >= durable_floor_required,
        "write-behind WAL must keep durable (OsCache) round throughput >= \
         {durable_floor_required:.2}x the in-memory baseline (got {durable_floor:.2}x)"
    );

    // Steady-state WAL writer allocation probe (PR 8 probe, durable path).
    let (wal_allocs, wal_allocs_flat) = bench_wal_allocs_per_round(if smoke { 4 } else { 8 });
    println!(
        "WAL writer allocations/round (reused encode scratch): {wal_allocs:?} \
         flat-zero={wal_allocs_flat}"
    );
    assert!(
        wal_allocs_flat,
        "steady-state WAL appends must be allocation-free: {wal_allocs:?}"
    );

    // --- Durable recovery -------------------------------------------------
    println!("\nrecovery (WAL replay vs compacted snapshot):");
    println!("topics  wal-KiB  wal-ms   snap-KiB  snap-ms");
    let recovery_sizes: &[usize] = if smoke {
        &[100, 1_000]
    } else {
        &[1_000, 10_000]
    };
    let mut recovery = Vec::new();
    for &topics in recovery_sizes {
        let cell = bench_recovery(topics);
        println!(
            "{:>6}  {:>7.1}  {:>6.2}  {:>8.1}  {:>7.2}",
            cell.topics,
            cell.wal_bytes as f64 / 1024.0,
            cell.wal_replay_ms,
            cell.snapshot_bytes as f64 / 1024.0,
            cell.snapshot_replay_ms
        );
        recovery.push(cell);
    }

    // --- Connection scaling (real TCP reactor) ---------------------------
    let nofile = raise_nofile(65_536);
    // Clients live in a child process, so each side holds one fd per
    // connection; leave headroom for everything else in the process.
    let fd_budget = nofile.saturating_sub(512) as usize;
    let conn_counts: &[usize] = if smoke {
        &[200, 1_000]
    } else {
        &[1_000, 10_000]
    };
    const CONN_SHARDS: usize = 4;
    println!("\nconnection scaling (real TCP, {CONN_SHARDS} shards, fd limit {nofile}):");
    println!(" conns  threads  connect-ms  round-ms  deliveries/s");
    let mut conn_cells = Vec::new();
    for &want in conn_counts {
        let conns = want.min(fd_budget);
        if conns < want {
            println!("(fd budget clamps {want} -> {conns})");
        }
        let cell = bench_connections(CONN_SHARDS, conns, Persistence::disabled());
        println!(
            "{:>6}  {:>7}  {:>10.0}  {:>8.1}  {:>12.0}",
            cell.connections,
            cell.broker_threads,
            cell.connect_ms,
            cell.round_ms,
            cell.round_msgs_per_s
        );
        assert!(
            cell.broker_threads <= CONN_SHARDS + 4,
            "broker-side threads must stay O(shards): {} threads at {} \
             connections exceeds shards + 4 = {}",
            cell.broker_threads,
            cell.connections,
            CONN_SHARDS + 4
        );
        conn_cells.push(cell);
    }

    // Durability on the connection axis: persistent sessions push a
    // SessionCreate + Subscribe record pair per client through the
    // write-behind pipeline during the connect storm; the round
    // broadcast itself is QoS 0 and WAL-free.
    let durable_conns = conn_counts[0].min(fd_budget);
    let durable_conn_dir =
        std::env::temp_dir().join(format!("sdflmq-bench-durconn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_conn_dir);
    let durable_conn_cell = bench_connections(
        CONN_SHARDS,
        durable_conns,
        Persistence::at(durable_conn_dir.clone()),
    );
    let _ = std::fs::remove_dir_all(&durable_conn_dir);
    println!(
        "{:>6}  {:>7}  {:>10.0}  {:>8.1}  {:>12.0}  (durable OsCache)",
        durable_conn_cell.connections,
        durable_conn_cell.broker_threads,
        durable_conn_cell.connect_ms,
        durable_conn_cell.round_ms,
        durable_conn_cell.round_msgs_per_s
    );
    assert!(
        durable_conn_cell.broker_threads <= CONN_SHARDS + 4,
        "the persistence thread must not count against the shard-thread \
         bound (it is not a broker event loop): {} threads at {} durable \
         connections exceeds shards + 4 = {}",
        durable_conn_cell.broker_threads,
        durable_conn_cell.connections,
        CONN_SHARDS + 4
    );

    // --- Aggregate + acceptance gates ------------------------------------
    let cpu_cell = |shards: usize| {
        fanout_cells
            .iter()
            .find(|c| c.shards == shards && c.fanout == 100)
            .map(|c| c.throughput)
            .unwrap_or(0.0)
    };
    let cpu_speedup = cpu_cell(4) / cpu_cell(1).max(1.0);
    println!(
        "\ncpu-bound fanout-100 throughput: 4 shards = {cpu_speedup:.2}x 1 shard ({cpus} CPUs)"
    );

    // Batched cross-shard delivery gate: one coalesced Deliver batch per
    // target shard per mailbox burst must keep wide-fanout completion
    // latency at the max shard count within 1.5x of the single-shard
    // reference (per-message hops would pay ~fanout channel sends and
    // wakes per publish and blow far past this on one core).
    let probe_fanout = if smoke { 200 } else { 1_000 };
    let probe_rounds = if smoke { 20 } else { 50 };
    let max_shards = *shard_counts.last().unwrap();
    let probe_p1 = bench_fanout_latency(1, probe_fanout, probe_rounds);
    let probe_pn = bench_fanout_latency(max_shards, probe_fanout, probe_rounds);
    println!(
        "cross-shard batching probe: fanout-{probe_fanout} completion p50 \
         {probe_p1:.0}us at 1 shard, {probe_pn:.0}us at {max_shards} shards \
         ({:.2}x)",
        probe_pn / probe_p1
    );
    assert!(
        probe_pn <= probe_p1 * 1.5,
        "batched cross-shard delivery must keep {max_shards}-shard \
         fanout-{probe_fanout} completion p50 within 1.5x of 1 shard \
         (got {probe_pn:.0}us vs {probe_p1:.0}us)"
    );

    let fanout_json: Vec<Json> = fanout_cells
        .iter()
        .map(|c| {
            Json::object([
                ("shards", Json::num(c.shards as f64)),
                ("fanout", Json::num(c.fanout as f64)),
                ("throughput_msgs_per_s", Json::num(c.throughput)),
                ("p50_us", Json::num(c.p50_us)),
                ("p99_us", Json::num(c.p99_us)),
            ])
        })
        .collect();
    let doc = Json::object([
        ("smoke", Json::Bool(smoke)),
        ("host_cpus", Json::num(cpus as f64)),
        ("publishers", Json::num(PARTITIONS as f64)),
        ("fanout_matrix", Json::Array(fanout_json)),
        (
            "retained_churn_ops_per_s",
            Json::object(
                retained
                    .iter()
                    .map(|(s, r)| (format!("{s}"), Json::num(*r))),
            ),
        ),
        (
            "recovery",
            Json::Array(
                recovery
                    .iter()
                    .map(|c| {
                        Json::object([
                            ("retained_topics", Json::num(c.topics as f64)),
                            ("wal_bytes", Json::num(c.wal_bytes as f64)),
                            ("wal_replay_ms", Json::num(c.wal_replay_ms)),
                            ("snapshot_bytes", Json::num(c.snapshot_bytes as f64)),
                            ("snapshot_replay_ms", Json::num(c.snapshot_replay_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fanout_latency_probe",
            Json::object([
                ("fanout".to_owned(), Json::num(probe_fanout as f64)),
                ("p50_us_1_shard".to_owned(), Json::num(probe_p1)),
                (format!("p50_us_{max_shards}_shards"), Json::num(probe_pn)),
                ("ratio".to_owned(), Json::num(probe_pn / probe_p1)),
            ]),
        ),
        ("open_fd_limit", Json::num(nofile as f64)),
        (
            "connection_scaling",
            Json::Array(
                conn_cells
                    .iter()
                    .map(|c| {
                        Json::object([
                            ("connections", Json::num(c.connections as f64)),
                            ("shards", Json::num(c.shards as f64)),
                            ("broker_threads", Json::num(c.broker_threads as f64)),
                            ("connect_ms", Json::num(c.connect_ms)),
                            ("round_broadcast_ms", Json::num(c.round_ms)),
                            ("round_deliveries_per_s", Json::num(c.round_msgs_per_s)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "durability",
            Json::object([
                (
                    "round_cells",
                    Json::Array(
                        durability_cells
                            .iter()
                            .map(|c| {
                                Json::object([
                                    ("mode", Json::str(c.mode)),
                                    ("throughput_msgs_per_s", Json::num(c.throughput)),
                                    ("wal_records", Json::num(c.wal_records as f64)),
                                    ("wal_batches", Json::num(c.wal_batches as f64)),
                                    ("fsyncs", Json::num(c.fsyncs as f64)),
                                    ("wal_queue_hwm", Json::num(c.wal_queue_hwm as f64)),
                                    ("wal_stalls", Json::num(c.wal_stalls as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("oscache_floor_vs_memory", Json::num(durable_floor)),
                ("floor_required", Json::num(durable_floor_required)),
                ("host_cores", Json::num(host_cores as f64)),
                (
                    "connection_cell_oscache",
                    Json::object([
                        (
                            "connections",
                            Json::num(durable_conn_cell.connections as f64),
                        ),
                        (
                            "broker_threads",
                            Json::num(durable_conn_cell.broker_threads as f64),
                        ),
                        ("connect_ms", Json::num(durable_conn_cell.connect_ms)),
                        ("round_broadcast_ms", Json::num(durable_conn_cell.round_ms)),
                    ]),
                ),
                (
                    "wal_writer_allocs_per_round",
                    Json::Array(wal_allocs.iter().map(|n| Json::num(*n as f64)).collect()),
                ),
            ]),
        ),
        (
            "aggregate",
            Json::object([
                ("cpu_bound_fanout100_speedup_4_vs_1", Json::num(cpu_speedup)),
                ("durable_oscache_floor_vs_memory", Json::num(durable_floor)),
            ]),
        ),
    ]);
    std::fs::write("BENCH_broker.json", doc.to_string_compact()).expect("write BENCH_broker.json");
    println!("wrote BENCH_broker.json");
}
