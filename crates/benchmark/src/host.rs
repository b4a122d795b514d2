//! The host the numbers were taken on, and the process counters the
//! benchmark reads from `/proc`.

use serde_json::{json, Value};
use std::process::Command;

/// Client connections, one thread each: one per available hardware thread.
pub fn client_connections() -> usize {
    available_threads()
}

pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Why this host cannot run the benchmark, if it cannot.
pub fn refusal() -> Option<String> {
    if available_threads() < 2 {
        return Some(format!(
            "{} hardware thread available; server and clients need at least 2, or every ratio measures the scheduler",
            available_threads()
        ));
    }
    if let Ok(threads) = std::env::var("FREEPHISH_THREADS") {
        return Some(format!(
            "FREEPHISH_THREADS={threads} is set; the par pool must size itself from the host"
        ));
    }
    None
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|line| line.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Everything a reader needs to judge whether two results are comparable.
pub fn fingerprint() -> Value {
    json!({
        "nproc": available_threads(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
        "kernel": std::fs::read_to_string("/proc/sys/kernel/osrelease").map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        "rustc": command_line("rustc", &["--version"]),
        "commit": command_line("git", &["rev-parse", "HEAD"]),
        "freephish_threads": "unset",
        "serve_workers": freephish_serve::ServeConfig::default().workers,
        "client_connections": client_connections(),
        "client_cpus": cpu_plan().clients,
        "server_cpus": cpu_plan().server,
        "link": "loopback 127.0.0.1, server in process",
        "dependencies": "offline stand-ins for bytes, parking_lot, serde_json",
    })
}

/// Numbered field of `/proc/self/stat` (1-based, as in proc(5)).
fn stat_field(index: usize) -> u64 {
    let stat =
        std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
    // The command name (field 2) may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    rest.split(' ')
        .nth(index - 3)
        .and_then(|f| f.parse().ok())
        .expect("stat field is a number")
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `cpu_set_t` of `<sched.h>` on Linux: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: the kernel writes at most `size_of::<CpuSet>()` bytes through a
    // pointer that is valid and exclusively borrowed for the call; pid 0 is
    // the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    assert_eq!(status, 0, "a thread can always read its own affinity");
    (0..1024)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// How the CPUs this process started with are shared out: the load generator
/// gets the lower half and everything behind the server the upper half, so
/// that neither's threads are ever stacked on one CPU while another idles,
/// which the kernel otherwise does for seconds at a time.
pub struct CpuPlan {
    pub clients: Vec<usize>,
    pub server: Vec<usize>,
}

pub fn cpu_plan() -> &'static CpuPlan {
    static PLAN: std::sync::OnceLock<CpuPlan> = std::sync::OnceLock::new();
    PLAN.get_or_init(|| {
        let cpus = allowed_cpus();
        let (clients, server) = cpus.split_at(cpus.len() / 2);
        CpuPlan {
            clients: clients.to_vec(),
            server: server.to_vec(),
        }
    })
}

/// Confines the calling thread, and every thread it starts from now on, to
/// `cpus`.
pub fn pin(cpus: &[usize]) {
    let mut mask: CpuSet = [0; 16];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the kernel reads `size_of::<CpuSet>()` bytes through a pointer
    // that is valid for the call; pid 0 is the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    assert_eq!(status, 0, "cannot confine the thread to CPUs {cpus:?}");
}

/// CPU time of every thread this process has had, in seconds. Read from the
/// scheduler's own nanosecond count: the `utime`/`stime` of `/proc` are
/// sampled on a 10 ms tick and misjudge threads that sleep and wake a lot.
pub fn cpu_seconds() -> f64 {
    let mut time = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec`, which on 64-bit
    // Linux is the two 64-bit fields of `Timespec`, through a pointer that is
    // valid and exclusively borrowed for the call.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process CPU clock is always readable");
    time.tv_sec as f64 + time.tv_nsec as f64 / 1e9
}

pub fn minor_faults() -> u64 {
    stat_field(10)
}

fn status_mb(key: &str) -> f64 {
    let value = proc_field("/proc/self/status", key).expect("/proc/self/status has the key");
    let kb: f64 = value
        .trim_end_matches("kB")
        .trim()
        .parse()
        .expect("status value is a number of kB");
    kb / 1024.0
}

/// The kernel's high-water mark of this process's resident set.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}
