//! `broker-tcp`: an open-loop, fixed-rate publish schedule through a
//! sharded broker listening on loopback, one publisher and one subscriber
//! connection, each on its own benchmark thread.
//!
//! Message `seq` is due at `t0 + seq / RATE_PER_S`. Every eighth is a
//! chunk-sized QoS-1 publish; the rest are control-sized QoS-0 ones, the
//! mix an FL round puts on the broker. Latency runs from the due time, not
//! the send time, so a stalled publisher charges its backlog to every
//! message queued behind it; how late the generator itself ran is
//! reported beside it.

use crate::procfs::{self, Group, TaskSnapshot};
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdflmq_mqtt::topic::{TopicFilter, TopicName};
use sdflmq_mqtt::transport::tcp_link;
use sdflmq_mqtt::{Broker, BrokerConfig, Client, ClientOptions, QoS};
use std::time::{Duration, Instant};

/// Offered load. Fixed, so runs on different commits see the same
/// schedule. At 20,000 msg/s and above the broker evicted the subscriber
/// as a slow consumer in some runs on a 2-core x86-64 VM (see
/// `METRICS.md`); no run at this rate lost a message.
pub const RATE_PER_S: f64 = 5000.0;
const SHARDS: usize = 2;
/// One message in `CHUNK_EVERY` is a model chunk.
const CHUNK_EVERY: u64 = 8;
const CHUNK_BYTES: usize = 64 * 1024;
const CONTROL_BYTES: usize = 200;
/// Broker set-ups per run; `setup_s` is their median.
const SETUPS: usize = 41;
/// The delivery-latency tail reported as `latency_ms_tail`.
const TAIL_PERCENTILE: f64 = 99.0;
/// How long the subscriber waits for stragglers after the last due time.
const DRAIN: Duration = Duration::from_secs(3);

const CHUNK_TOPIC: &str = "bench/chunk";
const CONTROL_TOPIC: &str = "bench/ctrl";

/// Message bodies are windows into one seeded pattern, shifted per
/// sequence number, so the subscriber can check every byte cheaply.
struct Payloads {
    pattern: Vec<u8>,
}

impl Payloads {
    fn new(seed: u64) -> Payloads {
        let mut rng = StdRng::seed_from_u64(seed);
        let pattern = (0..2 * CHUNK_BYTES)
            .map(|_| rng.gen_range(0..=u8::MAX))
            .collect();
        Payloads { pattern }
    }

    fn is_chunk(seq: u64) -> bool {
        seq.is_multiple_of(CHUNK_EVERY)
    }

    fn body(&self, seq: u64) -> &[u8] {
        let len = if Payloads::is_chunk(seq) {
            CHUNK_BYTES
        } else {
            CONTROL_BYTES
        };
        let off = (seq as usize).wrapping_mul(4099) % (self.pattern.len() - len);
        &self.pattern[off..off + len]
    }

    fn message(&self, seq: u64) -> Vec<u8> {
        let body = self.body(seq);
        let mut m = Vec::with_capacity(8 + body.len());
        m.extend_from_slice(&seq.to_le_bytes());
        m.extend_from_slice(body);
        m
    }

    /// The sequence number of a well-formed message, else `None`.
    fn verify(&self, message: &[u8]) -> Option<u64> {
        let seq = u64::from_le_bytes(message.get(..8)?.try_into().ok()?);
        (message[8..] == *self.body(seq)).then_some(seq)
    }
}

struct Conn {
    broker: Broker,
    publisher: Client,
    subscriber: Client,
}

fn connect(name: &str, addr: std::net::SocketAddr) -> Result<Client, String> {
    let link = tcp_link(addr).map_err(|e| format!("dial {name}: {e}"))?;
    Client::connect_link(link, ClientOptions::new(name)).map_err(|e| format!("connect {name}: {e}"))
}

/// Broker start until both connections are up and subscribed.
fn setup() -> Result<(Conn, f64), String> {
    let t0 = Instant::now();
    let broker = Broker::start(BrokerConfig {
        shards: SHARDS,
        ..BrokerConfig::default()
    });
    let addr = broker
        .listen("127.0.0.1:0")
        .map_err(|e| format!("listen: {e}"))?;
    let subscriber = connect("tsub", addr)?;
    subscriber
        .subscribe(
            &TopicFilter::new("bench/#").expect("valid filter"),
            QoS::AtLeastOnce,
        )
        .map_err(|e| format!("subscribe: {e}"))?;
    let publisher = connect("tpub", addr)?;
    let took = t0.elapsed().as_secs_f64();
    Ok((
        Conn {
            broker,
            publisher,
            subscriber,
        },
        took,
    ))
}

fn teardown(conn: Conn) {
    let _ = conn.publisher.disconnect();
    let _ = conn.subscriber.disconnect();
    conn.broker.shutdown();
}

/// What the publisher thread saw.
struct Sent {
    /// `(call start, call end)` per message, in sequence order.
    calls: Vec<(Instant, Instant)>,
    error: Option<String>,
    cpu_ns: u64,
}

/// What the subscriber thread saw.
struct Received {
    /// `(seq, arrival)` in arrival order.
    arrivals: Vec<(u64, Instant)>,
    corrupt: u64,
    cpu_ns: u64,
}

pub fn run(args: &Args, out: &mut Outcome) {
    out.info("clients", 2);
    out.info("shards", SHARDS);
    out.info("offered_rate_per_s", RATE_PER_S);
    out.info("chunk_size", CHUNK_BYTES);
    out.info("control_size", CONTROL_BYTES);
    out.info("chunk_every", CHUNK_EVERY);

    let payloads = Payloads::new(args.seed);
    // Left out of `peak_rss_mb`, as on the FL workloads.
    let baseline_mb = procfs::rss_mb();
    let (conn, first) = match setup() {
        Ok(c) => c,
        Err(e) => return out.fail(format!("setup: {e}")),
    };
    let mut setups = vec![first];
    let total = (args.seconds * RATE_PER_S).ceil() as u64;
    let chunk_topic = TopicName::new(CHUNK_TOPIC).expect("valid topic");
    let control_topic = TopicName::new(CONTROL_TOPIC).expect("valid topic");

    let mut tracer = Tracer::new(args.trace);
    let tasks0 = TaskSnapshot::take();
    let broker0 = conn.broker.stats();
    let cpu0 = procfs::process_cpu_ns();
    let main_cpu0 = procfs::thread_cpu_ns();
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |seq: u64| t0 + Duration::from_secs_f64(seq as f64 / RATE_PER_S);
    let (sent, received) = std::thread::scope(|s| {
        let publisher = std::thread::Builder::new()
            .name("bench-pub".into())
            .spawn_scoped(s, || {
                let mut sent = Sent {
                    calls: Vec::with_capacity(total as usize),
                    error: None,
                    cpu_ns: 0,
                };
                for seq in 0..total {
                    let message = payloads.message(seq);
                    let wait = due(seq).saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    let (topic, qos) = if Payloads::is_chunk(seq) {
                        (&chunk_topic, QoS::AtLeastOnce)
                    } else {
                        (&control_topic, QoS::AtMostOnce)
                    };
                    let start = Instant::now();
                    let result = conn.publisher.publish(topic, message, qos, false);
                    sent.calls.push((start, Instant::now()));
                    if let Err(e) = result {
                        sent.error = Some(format!("publish {seq}: {e}"));
                        break;
                    }
                }
                sent.cpu_ns = procfs::thread_cpu_ns();
                sent
            })
            .expect("spawn publisher");
        let subscriber = std::thread::Builder::new()
            .name("bench-sub".into())
            .spawn_scoped(s, || {
                let mut received = Received {
                    arrivals: Vec::with_capacity(total as usize),
                    corrupt: 0,
                    cpu_ns: 0,
                };
                let deadline = due(total) + DRAIN;
                while (received.arrivals.len() as u64) < total && Instant::now() < deadline {
                    let Ok(publish) = conn.subscriber.recv_timeout(Duration::from_millis(20))
                    else {
                        continue;
                    };
                    let at = Instant::now();
                    match payloads.verify(&publish.payload) {
                        Some(seq) => received.arrivals.push((seq, at)),
                        None => received.corrupt += 1,
                    }
                }
                received.cpu_ns = procfs::thread_cpu_ns();
                received
            })
            .expect("spawn subscriber");
        (
            publisher.join().expect("publisher thread"),
            subscriber.join().expect("subscriber thread"),
        )
    });
    let cpu = procfs::process_cpu_ns() - cpu0;
    // The benchmark threads have exited by now, so they report their own
    // CPU time rather than appear in the task snapshot.
    let driver_ns = procfs::thread_cpu_ns() - main_cpu0 + sent.cpu_ns + received.cpu_ns;
    let broker1 = conn.broker.stats();
    let tasks1 = TaskSnapshot::take();
    let threads = procfs::thread_count();
    let peak_rss = procfs::peak_rss_mb();
    out.info("baseline_rss_mb", format!("{baseline_mb:.1}"));
    out.info("peak_rss_abs_mb", format!("{peak_rss:.1}"));
    teardown(conn);

    // Failures: undelivered, duplicated or corrupt messages, broker drops.
    let mut seen = vec![false; total as usize];
    let mut duplicates = 0u64;
    for &(seq, _) in &received.arrivals {
        match seen.get_mut(seq as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => duplicates += 1,
        }
    }
    let delivered = seen.iter().filter(|&&s| s).count() as u64;
    let dropped = broker1.dropped - broker0.dropped;
    out.attempted = total;
    out.failed = (total - delivered) + duplicates + received.corrupt + dropped;
    if let Some(e) = sent.error {
        out.fail(e);
    }
    if out.failed > 0 {
        out.fail(format!(
            "{} undelivered, {duplicates} duplicated, {} corrupt, {dropped} dropped by the broker",
            total - delivered,
            received.corrupt
        ));
    }

    let latency_ms: Vec<f64> = received
        .arrivals
        .iter()
        .map(|&(seq, at)| (at.saturating_duration_since(due(seq))).as_secs_f64() * 1e3)
        .collect();
    let sorted = stats::sorted(&latency_ms);
    let tail = crate::tail_for(TAIL_PERCENTILE, sorted.len());
    let n = delivered.max(1) as f64;
    let span_s = received
        .arrivals
        .last()
        .map_or(args.seconds, |&(_, at)| (at - t0).as_secs_f64());
    out.info("messages", total);
    out.info("tail_percentile", tail);
    out.set("latency_ms_p50", stats::percentile(&sorted, 50.0));
    out.set("latency_ms_tail", stats::percentile(&sorted, tail));
    out.set("throughput_per_s", delivered as f64 / span_s);
    out.set("cpu_ms_per_op", cpu as f64 / 1e6 / n);
    out.set(
        "wire_kb_per_op",
        ((broker1.payload_bytes_in - broker0.payload_bytes_in)
            + (broker1.payload_bytes_out - broker0.payload_bytes_out)) as f64
            / 1e3
            / n,
    );
    out.set("peak_rss_mb", peak_rss - baseline_mb);

    let late_ms: Vec<f64> = sent
        .calls
        .iter()
        .enumerate()
        .map(|(seq, &(start, _))| {
            start
                .saturating_duration_since(due(seq as u64))
                .as_secs_f64()
                * 1e3
        })
        .collect();
    let late = stats::sorted(&late_ms);
    let call_us: Vec<f64> = sent
        .calls
        .iter()
        .map(|&(start, end)| (end - start).as_secs_f64() * 1e6)
        .collect();
    out.set("mqtt.publish_call_us", stats::median(&call_us));
    out.set("mqtt.gen_late_ms_p99", stats::percentile(&late, 99.0));
    out.set("mqtt.gen_late_ms_max", late.last().copied().unwrap_or(0.0));
    out.set(
        "mqtt.publishes_in_per_round",
        (broker1.publishes_in - broker0.publishes_in) as f64 / n,
    );
    out.set(
        "mqtt.publishes_out_per_round",
        (broker1.publishes_out - broker0.publishes_out) as f64 / n,
    );
    out.set(
        "mqtt.cross_shard_hops_per_round",
        (broker1.cross_shard_hops - broker0.cross_shard_hops) as f64 / n,
    );
    out.set("mqtt.dropped", dropped as f64);
    match procfs::group_cpu_ms(tasks0, tasks1) {
        Ok(group_ms) => {
            for (group, ms) in Group::ALL.into_iter().zip(group_ms) {
                if group != Group::Driver {
                    out.set(group.metric(), ms / n);
                }
            }
        }
        Err(why) => {
            for group in Group::ALL {
                if group != Group::Driver {
                    out.absent(group.metric(), why);
                }
            }
        }
    }
    out.set("cpu.driver_ms", driver_ns as f64 / 1e6 / n);
    out.set("proc.threads", threads as f64);
    out.set(
        "bench.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    const NO_FL: &str = "broker-tcp drives the broker alone; no FL layer runs";
    for name in [
        "core.set_model_ms",
        "core.send_local_ms",
        "core.wait_ms",
        "core.connect_ms",
        "core.join_ms",
        "core.fold_ms",
        "core.dropped_transfers",
        "core.undecodable_updates",
        "core.ps_copied_bytes_per_round",
        "nn.train_ms",
        "nn.encode_ms",
        "nn.decode_ms",
        "nn.final_accuracy",
        "mqttfc.split_ms_per_blob",
        "mqttfc.reassemble_ms_per_blob",
        "mqttfc.compress_ratio",
    ] {
        out.absent(name, NO_FL);
    }

    if args.trace {
        // Spans per message: the root runs from the due time to delivery,
        // its child is the publish call. They are built from timestamps
        // every run takes, so recording them costs the run nothing, and
        // `trace.overhead` (even against odd sequence numbers) shows only
        // the noise between two halves of the same schedule.
        let (mut traced, mut plain) = (Vec::new(), Vec::new());
        for (&(seq, at), &latency) in received.arrivals.iter().zip(&latency_ms) {
            let Some(&(start, end)) = sent.calls.get(seq as usize) else {
                continue;
            };
            if seq.is_multiple_of(2) {
                let root = tracer.record("message", 0, seq as u32, None, due(seq), at);
                tracer.record("mqtt.publish", root, seq as u32, None, start, end);
                traced.push(latency);
            } else {
                plain.push(latency);
            }
        }
        out.set("trace.coverage", tracer.coverage());
        out.set(
            "trace.overhead",
            stats::median(&traced) / stats::median(&plain),
        );
        let path = crate::out_dir().join(format!("broker-tcp-seed{}.spans.jsonl", args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.info_str("spans", &path.display().to_string()),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }

    while setups.len() < SETUPS {
        match setup() {
            Ok((conn, took)) => {
                setups.push(took);
                teardown(conn);
            }
            Err(e) => return out.fail(format!("setup: {e}")),
        }
    }
    out.set("setup_s", stats::median(&setups));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_verify_and_reject() {
        let p = Payloads::new(5);
        for seq in [0u64, 1, 7, 8, 12345] {
            let m = p.message(seq);
            let expect = if seq.is_multiple_of(CHUNK_EVERY) {
                CHUNK_BYTES
            } else {
                CONTROL_BYTES
            };
            assert_eq!(m.len(), 8 + expect);
            assert_eq!(p.verify(&m), Some(seq));
            let mut bad = m.clone();
            *bad.last_mut().unwrap() ^= 1;
            assert_eq!(p.verify(&bad), None);
        }
        assert_eq!(p.verify(&[1, 2, 3]), None);
        assert_ne!(p.body(1), p.body(2));
    }
}
