//! What this box is and can do: the environment header printed on every
//! run, the process's peak memory, and the two machine probes that give
//! the `core.*` and `parallel.*` numbers their context.

use std::hint::black_box;
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Elements per triad array: 3 × 128 MiB, four times the largest solver
/// state any workload holds. The guide asks for four times the
/// last-level cache, but this VM reports the host's whole shared L3
/// (260 MiB), which is not what two vCPUs get; both sizes are printed
/// and no roofline ratio is gated.
const TRIAD_ELEMS: usize = 16 << 20;
const TRIAD_PASSES: usize = 5;
const WAKE_ROUNDS: usize = 2000;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The checked-out commit, from `.git` in the working directory; the
/// driver's checkouts are not repositories and report `unknown`.
fn commit() -> String {
    let head = read_trimmed(".git/HEAD");
    let hash = head.as_deref().and_then(|h| match h.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&format!(".git/{r}")),
        None => Some(h.to_string()),
    });
    hash.unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Size string of the highest-level cache `cpu0` reports.
fn llc_size() -> String {
    (0..8)
        .rev()
        .find_map(|i| read_trimmed(&format!("/sys/devices/system/cpu/cpu0/cache/index{i}/size")))
        .unwrap_or_else(|| "unknown".into())
}

extern "C" {
    /// glibc's `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the process was started on, in ascending order.
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("0");
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    if cpus.is_empty() {
        cpus.push(0);
    }
    cpus
}

static CPUS: OnceLock<Vec<usize>> = OnceLock::new();

/// Choose the CPUs of this run; the main thread calls it once, before
/// it starts any other.
///
/// A gated (`--trace 0`) run uses **one** CPU and pins the main thread,
/// and with it every thread of the run, to it: ranks and threads take
/// turns. With a CPU per rank a blocked rank idles its vCPU, every
/// wake-up goes through the hypervisor, and on this shared host the
/// median op times of the multi-threaded workloads then spread 0.3–0.5
/// between runs against 0.06–0.19 on one CPU — wider than any bound the
/// gate may have (README, "Where the threads run"). A `--trace 1` run
/// is not gated and `spread`s over every CPU the process was given, so
/// the per-layer numbers (`parallel.*` waits, `scaling_efficiency`) are
/// those of ranks that run side by side.
pub fn choose_cpus(spread: bool) {
    CPUS.get_or_init(|| {
        let mut cpus = allowed_cpus();
        if !spread {
            cpus.truncate(1);
            pin(cpus[0]);
        }
        cpus
    });
}

/// The CPUs [`choose_cpus`] chose.
pub fn cpus() -> &'static [usize] {
    CPUS.get().expect("choose_cpus runs first")
}

/// Pin the calling thread to the `index`-th CPU of the run (modulo
/// their number), as an MPI launcher binds a rank to a core. Left to
/// itself the scheduler sometimes puts two ranks that wake each other
/// on one CPU and sometimes on two, and a run's numbers depended on
/// which.
pub fn pin_to_cpu(index: usize) {
    pin(cpus()[index % cpus().len()]);
}

/// Pin the calling thread, and the threads it spawns from now on, to
/// `cpu`. A refused call leaves the thread where it was.
fn pin(cpu: usize) {
    let mut mask = [0u64; 16];
    if cpu >= 64 * mask.len() {
        return;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of the byte length
    // passed with it, and the call only reads it.
    let refused = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if refused != 0 {
        eprintln!("cannot pin a thread to CPU {cpu}; it runs unpinned");
    }
}

/// The header every run prints first.
pub fn header(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    format!(
        "# hemelb-benchmark workload={workload} seed={seed} seconds={seconds} trace={}\n\
         # commit={} rustc=\"{}\" cpus={:?} llc={} triad_arrays=3x{}MiB",
        traced as u8,
        commit(),
        rustc_version(),
        cpus(),
        llc_size(),
        (TRIAD_ELEMS * 8) >> 20,
    )
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// STREAM-triad bandwidth in GiB/s: best of a few passes of
/// `a[i] = b[i] + s·c[i]`, counting the three arrays once each.
pub fn triad_gib_per_s() -> f64 {
    let b = vec![1.0f64; TRIAD_ELEMS];
    let c = vec![2.0f64; TRIAD_ELEMS];
    let mut a = vec![0.0f64; TRIAD_ELEMS];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..TRIAD_PASSES {
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (3 * TRIAD_ELEMS * 8) as f64 / best / (1u64 << 30) as f64
}

/// One-way condvar wake latency samples in microseconds: two threads,
/// each on a CPU of its own as the ranks are, hand a turn flag back and
/// forth, as the rank threads do when one blocks on the other's halo
/// message.
pub fn wake_us_samples() -> Vec<f64> {
    let turn = (Mutex::new(0u64), Condvar::new());
    // Wait for the turn to reach `want`, then pass it on.
    let pass = |want: u64| {
        let mut t = turn.0.lock().expect("probe threads do not panic");
        while *t != want {
            t = turn.1.wait(t).expect("probe threads do not panic");
        }
        *t += 1;
        turn.1.notify_one();
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            pin_to_cpu(1);
            (0..WAKE_ROUNDS as u64).for_each(|round| pass(2 * round + 1));
        });
        let timer = scope.spawn(|| {
            pin_to_cpu(0);
            let mut samples = Vec::with_capacity(WAKE_ROUNDS);
            for round in 0..WAKE_ROUNDS as u64 {
                let t0 = Instant::now();
                // Hand the turn over (2r → 2r+1), then wait for it to
                // come back (2r+2).
                pass(2 * round);
                let mut t = turn.0.lock().expect("probe threads do not panic");
                while *t != 2 * round + 2 {
                    t = turn.1.wait(t).expect("probe threads do not panic");
                }
                drop(t);
                samples.push(t0.elapsed().as_secs_f64() * 1e6 / 2.0);
            }
            samples
        });
        timer.join().expect("wake probe timer")
    })
}
