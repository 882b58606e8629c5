//! FL-round workloads: the broker, coordinator, parameter server and N
//! `SdflmqClient`s run in this process, and one driver thread plays every
//! client through the public client API.
//!
//! A round is timed from the driver's first call for the round (local
//! training, or `set_model` when there is none) until every client's
//! `wait_global_update` has returned. Each client's step is
//! `train → set_model → send_local`, taken client by client, after which
//! the driver waits on every client in turn. Aggregation runs on the
//! clients' own dispatch threads meanwhile, as it would across devices.

use crate::check::{check_global, Tolerance};
use crate::procfs::{self, Group, TaskSnapshot};
use crate::report::Outcome;
use crate::rng::gaussian_vec;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdflmq_core::session::SessionState;
use sdflmq_core::{
    ClientId, Coordinator, CoordinatorConfig, DataPlaneStats, ModelId, ParamServer, PreferredRole,
    SdflmqClient, SdflmqClientConfig, SessionId, Topology, UpdateCodec, WaitOutcome,
};
use sdflmq_dataset::{Split, SynthDigits};
use sdflmq_mqtt::{Broker, BrokerConfig};
use sdflmq_mqttfc::batching::{split, Reassembler};
use sdflmq_mqttfc::{compress, BatchConfig, PushResult};
use sdflmq_nn::{evaluate, train, Adam, Matrix, Mlp, MlpSpec, TrainConfig};
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

/// One FL workload's shape.
pub struct FlSpec {
    pub clients: usize,
    pub shards: usize,
    pub codec: UpdateCodec,
    /// Parameters per client update.
    pub elems: usize,
    /// Train each client for one local epoch per round (else the driver
    /// draws Gaussian updates from the seed).
    pub train: bool,
    /// The round-time percentile reported as `latency_ms_tail`, chosen so
    /// a run's rounds leave at least ten beyond it.
    pub tail: f64,
}

impl FlSpec {
    pub fn by_name(name: &str) -> Option<FlSpec> {
        let mlp = MlpSpec::mnist_mlp().param_count();
        match name {
            "round-dense" => Some(FlSpec {
                clients: 8,
                shards: 1,
                codec: UpdateCodec::Dense,
                elems: mlp,
                train: false,
                tail: 90.0,
            }),
            "round-train-int8" => Some(FlSpec {
                clients: 8,
                shards: 2,
                codec: UpdateCodec::Int8,
                elems: mlp,
                train: true,
                tail: 75.0,
            }),
            "swarm-control" => Some(FlSpec {
                clients: 64,
                shards: 2,
                codec: UpdateCodec::Dense,
                elems: 256,
                train: false,
                tail: 90.0,
            }),
            _ => None,
        }
    }
}

/// Stacks set up per run; `setup_s` is their median.
const SETUPS: usize = 41;
/// The paper's evaluation setting for the hierarchy.
const AGGREGATOR_RATIO: f64 = 0.3;
/// Rounds run before the timed window so pools and caches fill.
const WARMUP_ROUNDS: u32 = 3;
/// Each client's sample count (its FedAvg weight), drawn from the seed:
/// 600 on average, 1% of a 60k-sample training set (paper §VI). Unequal
/// weights let the correctness check catch a mis-weighted FedAvg.
const SAMPLES: RangeInclusive<u64> = 400..=800;
const TEST_SAMPLES: usize = 1000;
/// Per-call deadline; a round that misses it is a failed round.
const WAIT_TIMEOUT: Duration = Duration::from_secs(20);
/// The Gaussian pool the per-round updates are sliced from holds this
/// many rounds' worth of updates.
const POOL_ROUNDS: usize = 2;
/// Standard deviation of the synthetic weights.
const WEIGHT_SIGMA: f64 = 0.05;

struct Stack {
    broker: Broker,
    coordinator: Coordinator,
    ps: ParamServer,
    clients: Vec<SdflmqClient>,
    session: SessionId,
}

struct SetupTiming {
    total_s: f64,
    connect_ms: f64,
    join_ms: f64,
}

impl Stack {
    /// Starts the whole stack and waits until the session's first round
    /// is open: the coordinator runs it and every client holds a role.
    /// `samples` holds each client's sample count.
    fn start(spec: &FlSpec, samples: &[u64]) -> Result<(Stack, SetupTiming), String> {
        let t0 = Instant::now();
        let broker = Broker::start(BrokerConfig {
            shards: spec.shards,
            ..BrokerConfig::default()
        });
        let coordinator = Coordinator::start(
            &broker,
            CoordinatorConfig {
                topology: Topology::Hierarchical {
                    aggregator_ratio: AGGREGATOR_RATIO,
                },
                round_timeout: Duration::from_secs(60),
                ..CoordinatorConfig::default()
            },
        )
        .map_err(|e| format!("coordinator: {e}"))?;
        let ps = ParamServer::start(&broker, BatchConfig::default())
            .map_err(|e| format!("param server: {e}"))?;

        let mut connect_ms = 0.0;
        let mut clients = Vec::with_capacity(spec.clients);
        for i in 0..spec.clients {
            let t = Instant::now();
            let client = SdflmqClient::connect(
                &broker,
                ClientId::new(format!("c{i:02}")).expect("valid client id"),
                SdflmqClientConfig {
                    update_codec: spec.codec,
                    system_seed: i as u64,
                    ..SdflmqClientConfig::default()
                },
            )
            .map_err(|e| format!("connect c{i:02}: {e}"))?;
            connect_ms += ms(t.elapsed());
            clients.push(client);
        }

        let session = SessionId::new("bench").expect("valid session id");
        let model = ModelId::new("mlp").expect("valid model id");
        let mut join_ms = 0.0;
        for (i, client) in clients.iter().enumerate() {
            let t = Instant::now();
            let joined = if i == 0 {
                client.create_fl_session(
                    &session,
                    &model,
                    Duration::from_secs(3600),
                    spec.clients,
                    spec.clients,
                    Duration::from_secs(60),
                    u32::MAX / 2,
                    PreferredRole::Any,
                    samples[i],
                )
            } else {
                client.join_fl_session(&session, &model, PreferredRole::Any, samples[i])
            };
            joined.map_err(|e| format!("join c{i:02}: {e}"))?;
            join_ms += ms(t.elapsed());
        }

        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let running = matches!(
                coordinator.session_state(&session),
                Some(SessionState::Running { .. })
            );
            if running && clients.iter().all(|c| c.current_role(&session).is_some()) {
                break;
            }
            if Instant::now() > deadline {
                return Err("the first round did not open within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        let timing = SetupTiming {
            total_s: t0.elapsed().as_secs_f64(),
            connect_ms,
            join_ms,
        };
        Ok((
            Stack {
                broker,
                coordinator,
                ps,
                clients,
                session,
            },
            timing,
        ))
    }

    /// Tears the stack down, broker last so every client link closes and
    /// the client threads exit.
    fn stop(self) {
        let Stack {
            broker,
            coordinator,
            ps,
            clients,
            ..
        } = self;
        drop(clients);
        drop(ps);
        coordinator.stop();
        drop(coordinator);
        broker.shutdown();
    }

    fn aggregators(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| {
                c.current_role(&self.session)
                    .is_some_and(|r| r.role.aggregates())
            })
            .count()
    }

    fn data_plane(&self) -> DataPlaneStats {
        self.clients
            .iter()
            .map(SdflmqClient::data_plane_stats)
            .fold(DataPlaneStats::default(), |a, b| DataPlaneStats {
                dropped_transfers: a.dropped_transfers + b.dropped_transfers,
                undecodable_updates: a.undecodable_updates + b.undecodable_updates,
                encode_us: a.encode_us + b.encode_us,
                decode_us: a.decode_us + b.decode_us,
                fold_us: a.fold_us + b.fold_us,
            })
    }

    /// Losses the run must never see: dropped transfers, undecodable
    /// updates and broker drops.
    fn losses(&self) -> u64 {
        let dp = self.data_plane();
        dp.dropped_transfers
            + dp.undecodable_updates
            + self.ps.dropped_transfers()
            + self.broker.stats().dropped
    }
}

/// Per-client local training state for `round-train-int8`.
struct Trainer {
    model: Mlp,
    opt: Adam,
    x: Matrix,
    labels: Vec<usize>,
}

/// Where each round's client updates come from.
enum Inputs {
    /// Slices of a seeded Gaussian pool at fresh offsets every round.
    Gaussian { pool: Vec<f32>, offsets: Vec<usize> },
    /// The clients' own models after one local epoch.
    Trained(Vec<Trainer>),
}

impl Inputs {
    fn update(&self, i: usize, elems: usize) -> &[f32] {
        match self {
            Inputs::Gaussian { pool, offsets } => &pool[offsets[i]..offsets[i] + elems],
            Inputs::Trained(t) => t[i].model.params(),
        }
    }
}

/// Measurements of one round.
struct Round {
    wall_ms: f64,
    cpu_ns: u64,
    driver_cpu_ns: u64,
    traced: bool,
}

struct Driver<'a> {
    spec: &'a FlSpec,
    stack: &'a Stack,
    rng: StdRng,
    inputs: Inputs,
    /// Each client's sample count, its FedAvg weight.
    samples: &'a [u64],
    tracer: Tracer,
    /// The next round the coordinator will open (1-based).
    round: u32,
    /// Largest input range seen so far (int8 tolerance, see `check`).
    max_range: f64,
    aggregators: usize,
    losses: u64,
}

impl Driver<'_> {
    /// Draws the next round's inputs (untimed).
    fn draw(&mut self) {
        let elems = self.spec.elems;
        if let Inputs::Gaussian { pool, offsets } = &mut self.inputs {
            for o in offsets.iter_mut() {
                *o = self.rng.gen_range(0..=pool.len() - elems);
            }
        }
    }

    /// Runs one round; `Err` when a call fails or times out.
    fn round(&mut self, seed: u64) -> Result<Round, String> {
        self.draw();
        let r = self.round;
        let sid = &self.stack.session;
        let start = Instant::now();
        let cpu0 = procfs::process_cpu_ns();
        let driver0 = procfs::thread_cpu_ns();
        let root = self.tracer.open("round", r, start);
        for (i, client) in self.stack.clients.iter().enumerate() {
            if let Inputs::Trained(trainers) = &mut self.inputs {
                let t = &mut trainers[i];
                self.tracer.time("nn.train", root, r, Some(i), || {
                    train(
                        &mut t.model,
                        &mut t.opt,
                        &t.x,
                        &t.labels,
                        &TrainConfig {
                            batch_size: 32,
                            epochs: 1,
                            shuffle_seed: seed ^ ((i as u64) << 32) ^ u64::from(r),
                        },
                    )
                });
            }
            let update = self.inputs.update(i, self.spec.elems);
            self.tracer
                .time("core.set_model", root, r, Some(i), || {
                    client.set_model(sid, update)
                })
                .map_err(|e| format!("round {r}: set_model c{i:02}: {e}"))?;
            self.tracer
                .time("core.send_local", root, r, Some(i), || {
                    client.send_local(sid)
                })
                .map_err(|e| format!("round {r}: send_local c{i:02}: {e}"))?;
        }
        for (i, client) in self.stack.clients.iter().enumerate() {
            let outcome = self
                .tracer
                .time("core.wait", root, r, Some(i), || {
                    client.wait_global_update(sid, WAIT_TIMEOUT)
                })
                .map_err(|e| format!("round {r}: wait c{i:02}: {e}"))?;
            if outcome != WaitOutcome::NextRound(r + 1) {
                return Err(format!("round {r}: c{i:02} saw {outcome:?}"));
            }
        }
        let end = Instant::now();
        let round = Round {
            wall_ms: ms(end - start),
            cpu_ns: procfs::process_cpu_ns() - cpu0,
            driver_cpu_ns: procfs::thread_cpu_ns() - driver0,
            traced: self.tracer.is_on(),
        };
        self.tracer.close(root, end);
        self.round += 1;
        self.verify(r)?;
        Ok(round)
    }

    /// Every client must hold the same global, equal to the benchmark's
    /// own FedAvg of the round's inputs, with no transfer lost on the way.
    /// Afterwards trainers continue from that global.
    fn verify(&mut self, r: u32) -> Result<(), String> {
        let sid = &self.stack.session;
        let elems = self.spec.elems;
        let params = |i: usize| {
            self.stack.clients[i]
                .model_params(sid)
                .map_err(|e| format!("round {r}: model_params c{i:02}: {e}"))
        };
        // One client's copy at a time, so the check holds little memory.
        let global = params(0)?;
        for i in 1..self.stack.clients.len() {
            if params(i)? != global {
                return Err(format!(
                    "round {r}: c{i:02} holds a different global than c00"
                ));
            }
        }
        let inputs: Vec<&[f32]> = (0..self.stack.clients.len())
            .map(|i| self.inputs.update(i, elems))
            .collect();
        let tol = match self.spec.codec {
            UpdateCodec::Int8 => Tolerance::Int8 {
                levels: self.aggregators,
            },
            _ => Tolerance::Exact,
        };
        self.max_range = self.max_range.max(crate::check::range(&inputs));
        check_global(&inputs, self.samples, &global, tol, self.max_range)
            .map_err(|e| format!("round {r}: {e}"))?;
        let losses = self.stack.losses();
        if losses != self.losses {
            let lost = losses - self.losses;
            self.losses = losses;
            return Err(format!(
                "round {r}: {lost} transfers dropped or undecodable"
            ));
        }
        if let Inputs::Trained(trainers) = &mut self.inputs {
            for t in trainers.iter_mut() {
                t.model.set_params(&global);
            }
        }
        Ok(())
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Replays one blob of the workload's encoded size through the batching
/// layer with the workload's `BatchConfig`: median split and reassembly
/// time per blob, and the compression ratio.
fn replay_batching(payload: &[u8], out: &mut Outcome) -> Result<(), String> {
    let config = BatchConfig::default();
    let (mut split_ms, mut join_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while split_ms.len() < 5
        || (split_ms.len() < 50 && start.elapsed() < Duration::from_millis(400))
    {
        let t = Instant::now();
        let frames = split(payload, split_ms.len() as u64, &config);
        split_ms.push(ms(t.elapsed()));
        let mut reassembler = Reassembler::new(config.clone());
        let t = Instant::now();
        let mut done = None;
        for frame in frames {
            match reassembler.push("bench", frame) {
                Ok(PushResult::Complete(body)) => done = Some(body),
                Ok(_) => {}
                Err(e) => return Err(format!("replay: {e}")),
            }
        }
        join_ms.push(ms(t.elapsed()));
        if done.as_deref() != Some(payload) {
            return Err("replay: reassembled blob differs".into());
        }
    }
    out.set("mqttfc.split_ms_per_blob", stats::median(&split_ms));
    out.set("mqttfc.reassemble_ms_per_blob", stats::median(&join_ms));
    out.set("mqttfc.compress_ratio", compress::ratio(payload));
    Ok(())
}

pub fn run(spec: &FlSpec, args: &Args, out: &mut Outcome) {
    out.info("clients", spec.clients);
    out.info("shards", spec.shards);
    out.info_str("codec", spec.codec.name());
    out.info("elems", spec.elems);
    out.info("chunk_size", BatchConfig::default().chunk_size);
    out.info("compress", BatchConfig::default().compress);
    out.info("aggregator_ratio", AGGREGATOR_RATIO);

    let mut rng = StdRng::seed_from_u64(args.seed);
    let samples: Vec<u64> = (0..spec.clients).map(|_| rng.gen_range(SAMPLES)).collect();
    let mut test = None;
    let inputs = if spec.train {
        let gen = SynthDigits::new(args.seed);
        let init = Mlp::new(MlpSpec::mnist_mlp(), args.seed);
        // Each client trains on a disjoint shard of its own sample count.
        let mut offset = 0;
        let trainers = samples
            .iter()
            .map(|&n| {
                let d = gen.generate_range(Split::Train, offset, n as usize);
                offset += n as usize;
                Trainer {
                    model: init.clone(),
                    opt: Adam::new(0.001),
                    x: Matrix::from_vec(d.len(), 784, d.images),
                    labels: d.labels,
                }
            })
            .collect();
        let t = gen.generate(Split::Test, TEST_SAMPLES);
        test = Some((Matrix::from_vec(t.len(), 784, t.images), t.labels));
        Inputs::Trained(trainers)
    } else {
        Inputs::Gaussian {
            pool: gaussian_vec(
                &mut rng,
                POOL_ROUNDS * spec.clients * spec.elems,
                WEIGHT_SIGMA,
            ),
            offsets: vec![0; spec.clients],
        }
    };

    // The memory the benchmark's own inputs hold, left out of
    // `peak_rss_mb` so the figure is the stack's own.
    let baseline_mb = procfs::rss_mb();
    let (stack, first) = match Stack::start(spec, &samples) {
        Ok(s) => s,
        Err(e) => return out.fail(format!("setup: {e}")),
    };
    let mut setups = vec![first];
    let mut driver = Driver {
        spec,
        stack: &stack,
        rng,
        inputs,
        samples: &samples,
        tracer: Tracer::new(false),
        round: 1,
        max_range: 0.0,
        aggregators: stack.aggregators(),
        losses: stack.losses(),
    };
    out.info("aggregators", driver.aggregators);

    for _ in 0..WARMUP_ROUNDS {
        if let Err(e) = driver.round(args.seed) {
            stack.stop();
            return out.fail(format!("warm-up: {e}"));
        }
    }

    let tasks0 = TaskSnapshot::take();
    let broker0 = stack.broker.stats();
    let dp0 = stack.data_plane();
    let ps_copied0 = stack.ps.copied_bytes();
    let window = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    while window.elapsed().as_secs_f64() < args.seconds {
        // The traced run alternates traced and untraced rounds, so the
        // tracing overhead is measured under the same conditions.
        driver
            .tracer
            .set_on(args.trace && rounds.len().is_multiple_of(2));
        out.attempted += 1;
        match driver.round(args.seed) {
            Ok(r) => rounds.push(r),
            Err(e) => {
                out.failed += 1;
                out.fail(e);
                break;
            }
        }
    }
    let tasks1 = TaskSnapshot::take();
    let broker1 = stack.broker.stats();
    let dp1 = stack.data_plane();
    let ps_copied1 = stack.ps.copied_bytes();
    let threads = procfs::thread_count();
    let peak_rss = procfs::peak_rss_mb();
    out.info("baseline_rss_mb", format!("{baseline_mb:.1}"));
    out.info("peak_rss_abs_mb", format!("{peak_rss:.1}"));

    let n = rounds.len().max(1) as f64;
    let walls: Vec<f64> = rounds.iter().map(|r| r.wall_ms).collect();
    let sorted = stats::sorted(&walls);
    let tail = crate::tail_for(spec.tail, rounds.len());
    out.info("rounds", rounds.len());
    out.info("tail_percentile", tail);
    out.set("latency_ms_p50", stats::percentile(&sorted, 50.0));
    out.set("latency_ms_tail", stats::percentile(&sorted, tail));
    out.set(
        "throughput_per_s",
        spec.clients as f64 * n / (walls.iter().sum::<f64>() / 1e3),
    );
    out.set(
        "cpu_ms_per_op",
        rounds.iter().map(|r| r.cpu_ns).sum::<u64>() as f64 / 1e6 / n,
    );
    out.set(
        "wire_kb_per_op",
        ((broker1.payload_bytes_in - broker0.payload_bytes_in)
            + (broker1.payload_bytes_out - broker0.payload_bytes_out)) as f64
            / 1e3
            / n,
    );
    out.set("peak_rss_mb", peak_rss - baseline_mb);

    // Layer counters over the window.
    out.set("core.fold_ms", (dp1.fold_us - dp0.fold_us) as f64 / 1e3 / n);
    out.set(
        "nn.encode_ms",
        (dp1.encode_us - dp0.encode_us) as f64 / 1e3 / n,
    );
    out.set(
        "nn.decode_ms",
        (dp1.decode_us - dp0.decode_us) as f64 / 1e3 / n,
    );
    out.set(
        "core.dropped_transfers",
        (dp1.dropped_transfers - dp0.dropped_transfers) as f64,
    );
    out.set(
        "core.undecodable_updates",
        (dp1.undecodable_updates - dp0.undecodable_updates) as f64,
    );
    out.set(
        "core.ps_copied_bytes_per_round",
        (ps_copied1 - ps_copied0) as f64 / n,
    );
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
    out.set("mqtt.dropped", (broker1.dropped - broker0.dropped) as f64);
    const CLOSED_LOOP: &str = "FL rounds are closed-loop; the bench publishes nothing itself";
    out.absent("mqtt.publish_call_us", CLOSED_LOOP);
    out.absent("mqtt.gen_late_ms_p99", CLOSED_LOOP);
    out.absent("mqtt.gen_late_ms_max", CLOSED_LOOP);
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
    // The driver's in-round CPU only: its between-round input drawing and
    // checking is benchmark overhead, not a layer of the system.
    out.set(
        "cpu.driver_ms",
        rounds.iter().map(|r| r.driver_cpu_ns).sum::<u64>() as f64 / 1e6 / n,
    );
    out.set("proc.threads", threads as f64);

    // Span-derived layer times, per traced round.
    let (traced, plain): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| r.traced);
    let traced_n = traced.len().max(1) as f64;
    for (metric, span) in [
        ("core.set_model_ms", "core.set_model"),
        ("core.send_local_ms", "core.send_local"),
        ("core.wait_ms", "core.wait"),
        ("nn.train_ms", "nn.train"),
    ] {
        out.set(metric, driver.tracer.total_ms(span) / traced_n);
    }
    if !spec.train {
        out.absent(
            "nn.train_ms",
            "updates are drawn from the seed, not trained",
        );
    }
    out.set("trace.coverage", driver.tracer.coverage());
    let p50 = |rs: &[&Round]| stats::median(&rs.iter().map(|r| r.wall_ms).collect::<Vec<_>>());
    out.set("trace.overhead", p50(&traced) / p50(&plain));

    if let (Some((x, labels)), Inputs::Trained(trainers)) = (&test, &driver.inputs) {
        // Trainers were reset to the last global by the final check.
        out.set(
            "nn.final_accuracy",
            evaluate(&trainers[0].model, x, labels) * 100.0,
        );
    } else {
        out.absent(
            "nn.final_accuracy",
            "updates are drawn from the seed, not trained",
        );
    }
    let last = driver.inputs.update(0, spec.elems).to_vec();
    let tracer = driver.tracer;
    stack.stop();

    if args.trace {
        let payload = spec.codec.encode_stateless(&last, None);
        if let Err(e) = replay_batching(&payload, out) {
            out.fail(e);
        }
        let path =
            crate::out_dir().join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.info_str("spans", &path.display().to_string()),
            Err(e) => out.fail(format!("writing {}: {e}", path.display())),
        }
    }

    // Further set-ups, each torn down, so `setup_s` is a median.
    while setups.len() < SETUPS {
        match Stack::start(spec, &samples) {
            Ok((stack, timing)) => {
                setups.push(timing);
                stack.stop();
            }
            Err(e) => return out.fail(format!("setup: {e}")),
        }
    }
    let median_of =
        |f: fn(&SetupTiming) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", median_of(|s| s.total_s));
    out.set("core.connect_ms", median_of(|s| s.connect_ms));
    out.set("core.join_ms", median_of(|s| s.join_ms));
    out.set(
        "bench.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
}
