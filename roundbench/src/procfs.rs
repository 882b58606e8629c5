//! Process and per-thread resource readings from the kernel.
//!
//! Process CPU comes from `CLOCK_PROCESS_CPUTIME_ID` (nanosecond precision,
//! exited threads included). Per-thread CPU comes from
//! `/proc/self/task/<tid>/schedstat` (nanoseconds on CPU) and is grouped
//! by thread name (`/proc/self/task/<tid>/comm`) into the
//! runtime's layers, which name their threads after their role
//! (`broker-shard-0`, `c03-reader`, `sdflmq-nn-1`, ...).

use std::collections::HashMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) and
    // both clock ids are valid for the calling process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) of the whole process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Nanoseconds on CPU: the first field of a `/proc/<pid>/schedstat` line.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// A `kB` field such as `VmHWM` (peak resident set) or `VmRSS` from a
/// `/proc/<pid>/status` text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, key).unwrap_or(0) as f64 / 1024.0
}

/// Peak resident set size of the process in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set size of the process in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// Threads the process has now.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |dir| dir.count())
}

/// The runtime layers whose threads the benchmark attributes CPU to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    /// Broker shard event loops and TCP acceptors.
    Broker,
    /// MQTT client reader/dispatch threads and TCP link pumps: inbound
    /// frames, blob reassembly, decompression, decode and fold.
    ClientRx,
    ParamServer,
    Coordinator,
    /// The shared data-plane worker pool (`sdflmq-nn-*`).
    NnPool,
    /// The benchmark's own threads: the main driver thread and `bench-*`.
    Driver,
    /// Anything else (keep-alive pingers, WAL writer).
    Other,
}

impl Group {
    pub const ALL: [Group; 7] = [
        Group::Broker,
        Group::ClientRx,
        Group::ParamServer,
        Group::Coordinator,
        Group::NnPool,
        Group::Driver,
        Group::Other,
    ];

    /// Per-layer metric name for the group's CPU.
    pub fn metric(self) -> &'static str {
        match self {
            Group::Broker => "cpu.broker_ms",
            Group::ClientRx => "cpu.client_rx_ms",
            Group::ParamServer => "cpu.param_server_ms",
            Group::Coordinator => "cpu.coordinator_ms",
            Group::NnPool => "cpu.nn_pool_ms",
            Group::Driver => "cpu.driver_ms",
            Group::Other => "cpu.other_ms",
        }
    }

    /// Classifies a thread by its (kernel-truncated, 15-byte) name.
    /// Owner prefixes are checked first: `paramserver-reader` arrives as
    /// `paramserver-rea`, which must not fall through to `Other`.
    pub fn of(comm: &str, is_main: bool) -> Group {
        if is_main || comm.starts_with("bench-") {
            Group::Driver
        } else if comm.starts_with("paramserver") {
            Group::ParamServer
        } else if comm.starts_with("coordinator") {
            Group::Coordinator
        } else if comm.starts_with("sdflmq-nn-") {
            Group::NnPool
        } else if comm.contains("-shard-") || comm.ends_with("-accept") {
            Group::Broker
        } else if comm.ends_with("-reader")
            || comm.ends_with("-dispatch")
            || comm.starts_with("tcp-link-")
        {
            Group::ClientRx
        } else {
            Group::Other
        }
    }
}

/// Per-thread CPU nanoseconds at one instant, keyed by thread id.
pub struct TaskSnapshot {
    tasks: HashMap<u32, (Group, u64)>,
}

/// Why per-thread CPU is not reported when the kernel does not expose it.
pub const NO_SCHEDSTAT: &str = "per-thread /proc schedstat is unreadable on this kernel";

/// A thread's CPU time in nanoseconds.
fn task_cpu_ns(task: &std::path::Path) -> Option<u64> {
    parse_schedstat_ns(&std::fs::read_to_string(task.join("schedstat")).ok()?)
}

impl TaskSnapshot {
    /// Reads every live thread of this process; `Err` when the kernel
    /// exposes no per-thread schedstat (checked on the calling thread).
    pub fn take() -> Result<TaskSnapshot, &'static str> {
        if task_cpu_ns("/proc/thread-self".as_ref()).is_none() {
            return Err(NO_SCHEDSTAT);
        }
        let pid = std::process::id();
        let mut tasks = HashMap::new();
        let dir = std::fs::read_dir("/proc/self/task").map_err(|_| NO_SCHEDSTAT)?;
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            let path = entry.path();
            // A thread can exit between listing and reading; skip it.
            let (Ok(comm), Some(ns)) = (
                std::fs::read_to_string(path.join("comm")),
                task_cpu_ns(&path),
            ) else {
                continue;
            };
            tasks.insert(tid, (Group::of(comm.trim_end(), tid == pid), ns));
        }
        Ok(TaskSnapshot { tasks })
    }

    /// CPU milliseconds each group used between `self` and `later`, in
    /// [`Group::ALL`] order. Threads born in between count from zero.
    pub fn delta_ms(&self, later: &TaskSnapshot) -> [f64; 7] {
        let mut out = [0.0; 7];
        for (tid, &(group, ns)) in &later.tasks {
            let before = self.tasks.get(tid).map_or(0, |&(_, t)| t);
            let slot = Group::ALL
                .iter()
                .position(|&g| g == group)
                .expect("known group");
            out[slot] += ns.saturating_sub(before) as f64 / 1e6;
        }
        out
    }
}

/// CPU milliseconds each group used between two snapshots, in
/// [`Group::ALL`] order, or why per-thread CPU could not be read.
pub fn group_cpu_ms(
    before: Result<TaskSnapshot, &'static str>,
    after: Result<TaskSnapshot, &'static str>,
) -> Result<[f64; 7], &'static str> {
    Ok(before?.delta_ms(&after?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_runtime() {
        assert_eq!(
            parse_schedstat_ns("368252781 1895747 36\n"),
            Some(368_252_781)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn kb_fields_from_status() {
        let status =
            "Name:\troundbench\nVmPeak:\t  900 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kb(status, "VmHW"), None);
        assert_eq!(parse_status_kb("Name: x\n", "VmHWM"), None);
    }

    #[test]
    fn thread_groups_follow_runtime_names() {
        let cases = [
            ("broker-shard-0", Group::Broker),
            ("broker-shard-13", Group::Broker),
            ("broker-accept", Group::Broker),
            ("c03-reader", Group::ClientRx),
            ("c63-dispatch", Group::ClientRx),
            ("tcp-link-rx", Group::ClientRx),
            ("paramserver-rea", Group::ParamServer),
            ("paramserver-dis", Group::ParamServer),
            ("coordinator-wor", Group::Coordinator),
            ("coordinator-tic", Group::Coordinator),
            ("sdflmq-nn-1", Group::NnPool),
            ("bench-pub", Group::Driver),
            ("c03-pinger", Group::Other),
            ("sdflmq-wal", Group::Other),
        ];
        for (comm, group) in cases {
            assert_eq!(Group::of(comm, false), group, "{comm}");
        }
        assert_eq!(Group::of("roundbench", true), Group::Driver);
    }

    #[test]
    fn live_readings_are_sane() {
        let before = TaskSnapshot::take().unwrap();
        let t0 = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > t0);
        assert!(thread_cpu_ns() > 0);
        assert!(thread_count() >= 1);
        // The peak never falls, so a later reading covers an earlier RSS.
        let rss = rss_mb();
        assert!(rss > 0.0 && peak_rss_mb() >= rss);
        let delta = before.delta_ms(&TaskSnapshot::take().unwrap());
        assert!(delta.iter().all(|&ms| ms >= 0.0));
        assert!(!before.tasks.is_empty());
    }
}
