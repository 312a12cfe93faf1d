//! What the benchmark reads from the host and from its own process:
//! CPU time, peak memory, context switches, fsync cost, host facts, and
//! a counting global allocator that counts only while a traced window
//! is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator plus two counters, bumped only while
/// [`CountingAlloc::set_counting`] is on — so the untraced windows that
/// produce the end-to-end numbers pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    pub fn set_counting(on: bool) {
        COUNTING.store(on, Ordering::SeqCst);
    }

    /// `(allocations, bytes)` counted so far.
    pub fn totals() -> (u64, u64) {
        (
            ALLOC_COUNT.load(Ordering::Relaxed),
            ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: same layout the caller handed us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` describe a live `System` allocation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// User+system CPU time from a `stat` file under `/proc` (fields 14 and
/// 15, in clock ticks; Linux fixes `USER_HZ` at 100).
fn cpu_from_stat(path: &str) -> Duration {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // The command name may contain spaces; fields count from after ")".
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = after.split_whitespace();
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    Duration::from_millis((utime + stime) * 10)
}

/// CPU time of the whole process so far.
pub fn process_cpu() -> Duration {
    cpu_from_stat("/proc/self/stat")
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    cpu_from_stat("/proc/thread-self/stat")
}

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Voluntary context switches summed over every thread alive now.
/// Threads that exit between two readings drop out of the sum, so read
/// it while the cluster and the lanes are up.
pub fn voluntary_ctxsw() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| status_field(&s, "voluntary_ctxt_switches:"))
        .sum()
}

/// Median of 100 `write + sync_all` pairs on a file in `dir`, in µs —
/// what one WAL commit costs on this disk, so that `write_*` numbers can
/// be read across hosts.
pub fn fsync_us(dir: &Path) -> std::io::Result<f64> {
    use std::io::Write;
    let path = dir.join("fsync-probe");
    let mut file = std::fs::File::create(&path)?;
    let mut samples = Vec::with_capacity(100);
    for _ in 0..100 {
        let start = Instant::now();
        file.write_all(&[0u8; 128])?;
        file.sync_all()?;
        samples.push(start.elapsed().as_nanos() as u64);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    samples.sort_unstable();
    Ok(samples[samples.len() / 2] as f64 / 1_000.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Facts a reader needs to compare two result files: `(key, value)`.
pub fn facts() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    vec![
        ("nproc", nproc().to_string()),
        ("kernel", kernel),
        ("cpu_model", cpu_model),
        ("rustc", command_line("rustc", &["--version"])),
        // The commit this package was built from, `-dirty` when the tree
        // differs from it; "unknown" in a checkout that is not a git
        // repository (the driver's).
        (
            "git_commit",
            command_line(
                "git",
                &[
                    "-C",
                    env!("CARGO_MANIFEST_DIR"),
                    "describe",
                    "--always",
                    "--dirty",
                    "--abbrev=40",
                    "--exclude=*",
                ],
            ),
        ),
        (
            "network",
            "loopback (127.0.0.1), all hops in one process".into(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_something() {
        assert!(peak_rss_mb() > 0.0);
        let before = voluntary_ctxsw();
        std::thread::sleep(Duration::from_millis(2));
        assert!(voluntary_ctxsw() > before);
        assert_eq!(status_field("VmHWM:\t  123 kB\n", "VmHWM:"), Some(123));
    }
}
