//! Seeded deterministic fault-injecting storage backend.
//!
//! [`ChaosDisk`] is to the durability stack what `irs-net`'s `ChaosProxy`
//! is to the network stack: an in-memory [`Disk`] that injects storage
//! faults from a pure function of `(seed, operation index)`, so any
//! corruption an experiment observes is replayable bit-for-bit by rerunning
//! with the same seed.
//!
//! Fault model (mirrors what real disks do wrong):
//!
//! * **torn write** — on [`crash`](ChaosDisk::crash), the unsynced tail of
//!   each file survives only as a seeded prefix (bytes persist in write
//!   order, but not all of them);
//! * **bit flip** — a read returns the stored bytes with one bit flipped
//!   at a seeded position (silent media corruption);
//! * **short read** — a read returns only a seeded prefix of the file;
//! * **fsync lie** — `sync()` returns `Ok` without making the tail
//!   durable (drive write-cache lying about flushes);
//! * **crash at offset** — the disk "loses power" once a configured number
//!   of appended bytes is reached, mid-append: the current append persists
//!   only up to the cap, the torn-tail rule is applied, and the append
//!   returns an I/O error. The disk then "reboots" (stays usable) so
//!   recovery can be exercised in-process.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use irs_filters::hash::mix64;
use parking_lot::Mutex;

use crate::disk::Disk;

/// Storage fault kinds [`ChaosDisk`] can inject on the read/sync path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Flip one bit of the returned bytes at a seeded position.
    BitFlip,
    /// Return only a seeded prefix of the file.
    ShortRead,
    /// `sync()` returns `Ok` without actually making the tail durable.
    FsyncLie,
}

/// Configuration for a [`ChaosDisk`].
#[derive(Clone, Debug)]
pub struct ChaosDiskConfig {
    /// Seed for the deterministic fault schedule.
    pub seed: u64,
    /// Probability in `[0, 1]` that an eligible operation faults.
    pub fault_rate: f64,
    /// Fault kinds eligible for injection. Empty = no read/sync faults.
    pub modes: Vec<DiskFault>,
    /// Simulate power loss once this many bytes have been appended
    /// (across all files). The append that crosses the threshold is cut
    /// at the threshold, the crash rule runs, and it returns an error.
    pub crash_at_bytes: Option<u64>,
}

impl ChaosDiskConfig {
    /// No faults at all — behaves like a perfect in-memory disk.
    pub fn off(seed: u64) -> ChaosDiskConfig {
        ChaosDiskConfig {
            seed,
            fault_rate: 0.0,
            modes: Vec::new(),
            crash_at_bytes: None,
        }
    }

    /// Crash-only configuration: perfect reads/syncs, power loss after
    /// `bytes` appended bytes.
    pub fn crash_at(seed: u64, bytes: u64) -> ChaosDiskConfig {
        ChaosDiskConfig {
            seed,
            fault_rate: 0.0,
            modes: Vec::new(),
            crash_at_bytes: Some(bytes),
        }
    }
}

/// Counters for injected faults, for experiment tables and assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosDiskStats {
    /// Read/sync operations performed.
    pub ops: u64,
    /// Bit flips injected into reads.
    pub bit_flips: u64,
    /// Short reads injected.
    pub short_reads: u64,
    /// Syncs that lied.
    pub fsync_lies: u64,
    /// Crashes (explicit or via `crash_at_bytes`).
    pub crashes: u64,
}

struct FileState {
    data: Vec<u8>,
    /// Length guaranteed to survive a crash.
    synced_len: usize,
}

struct Inner {
    files: BTreeMap<String, FileState>,
    config: ChaosDiskConfig,
    stats: ChaosDiskStats,
    /// Total bytes appended across all files, for `crash_at_bytes`.
    appended: u64,
}

/// In-memory [`Disk`] with deterministic, seed-replayable fault injection.
pub struct ChaosDisk {
    inner: Mutex<Inner>,
    ops: AtomicU64,
}

impl ChaosDisk {
    /// Create an empty chaos disk with the given fault schedule.
    pub fn new(config: ChaosDiskConfig) -> ChaosDisk {
        ChaosDisk {
            inner: Mutex::new(Inner {
                files: BTreeMap::new(),
                config,
                stats: ChaosDiskStats::default(),
                appended: 0,
            }),
            ops: AtomicU64::new(0),
        }
    }

    /// Fault counters so far.
    pub fn stats(&self) -> ChaosDiskStats {
        self.inner.lock().stats
    }

    /// Total bytes appended across all files since creation.
    pub fn total_appended(&self) -> u64 {
        self.inner.lock().appended
    }

    /// Simulate power loss now: every file's unsynced tail survives only
    /// as a seeded prefix, and whatever survived is now "on media"
    /// (durable). The disk stays usable afterwards — this models the
    /// machine rebooting with the same disk attached.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        let seed = inner.config.seed;
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        inner.stats.crashes += 1;
        for (file_idx, state) in inner.files.values_mut().enumerate() {
            Self::tear_tail(state, seed, n, file_idx as u64);
        }
    }

    /// Apply the torn-write rule to one file: keep the synced prefix plus
    /// a seeded fraction of the unsynced tail, then mark the survivor
    /// durable.
    fn tear_tail(state: &mut FileState, seed: u64, op: u64, file_idx: u64) {
        let tail = state.data.len().saturating_sub(state.synced_len);
        if tail > 0 {
            let roll = mix64(
                seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ file_idx.wrapping_mul(0xD134_2543_DE82_EF95),
            );
            // Survive [0, tail] bytes of the unsynced tail, inclusive on
            // both ends so "nothing survived" and "everything survived"
            // are both reachable.
            let keep = (roll % (tail as u64 + 1)) as usize;
            state.data.truncate(state.synced_len + keep);
        }
        state.synced_len = state.data.len();
    }

    /// Pure fault draw, mirroring `irs-net/chaos.rs`: returns the fault
    /// (if any) for operation index `n` under this config.
    fn draw(config: &ChaosDiskConfig, n: u64) -> Option<DiskFault> {
        if config.modes.is_empty() || config.fault_rate <= 0.0 {
            return None;
        }
        let roll = mix64(config.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (roll >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= config.fault_rate {
            return None;
        }
        let pick = mix64(roll) % config.modes.len() as u64;
        Some(config.modes[pick as usize])
    }
}

impl Disk for ChaosDisk {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.stats.ops += 1;
        let fault = Self::draw(&inner.config, n);
        let seed = inner.config.seed;
        let state = inner
            .files
            .get(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))?;
        let mut data = state.data.clone();
        match fault {
            Some(DiskFault::BitFlip) if !data.is_empty() => {
                let pos = mix64(seed ^ n) % (data.len() as u64 * 8);
                data[(pos / 8) as usize] ^= 1 << (pos % 8);
                inner.stats.bit_flips += 1;
            }
            Some(DiskFault::ShortRead) if !data.is_empty() => {
                let keep = (mix64(seed ^ n ^ 0x5EED) % data.len() as u64) as usize;
                data.truncate(keep);
                inner.stats.short_reads += 1;
            }
            _ => {}
        }
        Ok(data)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        // Power-loss check: does this append cross the configured cap?
        if let Some(cap) = inner.config.crash_at_bytes {
            if inner.appended + data.len() as u64 > cap {
                let keep = cap.saturating_sub(inner.appended) as usize;
                inner
                    .files
                    .entry(path.to_string())
                    .or_insert(FileState {
                        data: Vec::new(),
                        synced_len: 0,
                    })
                    .data
                    .extend_from_slice(&data[..keep]);
                inner.appended = cap;
                // Disarm so the post-"reboot" recovery writes succeed.
                inner.config.crash_at_bytes = None;
                let seed = inner.config.seed;
                let n = self.ops.fetch_add(1, Ordering::Relaxed);
                inner.stats.crashes += 1;
                for (file_idx, state) in inner.files.values_mut().enumerate() {
                    Self::tear_tail(state, seed, n, file_idx as u64);
                }
                return Err(io::Error::other(
                    "chaosdisk: simulated power loss mid-append",
                ));
            }
        }
        inner.appended += data.len() as u64;
        inner
            .files
            .entry(path.to_string())
            .or_insert(FileState {
                data: Vec::new(),
                synced_len: 0,
            })
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.stats.ops += 1;
        if let Some(DiskFault::FsyncLie) = Self::draw(&inner.config, n) {
            inner.stats.fsync_lies += 1;
            return Ok(()); // lie: tail stays volatile
        }
        if let Some(state) = inner.files.get_mut(path) {
            state.synced_len = state.data.len();
        }
        Ok(())
    }

    fn write_atomic(&self, path: &str, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock();
        if let Some(cap) = inner.config.crash_at_bytes {
            if inner.appended + data.len() as u64 > cap {
                // Atomic replace that doesn't complete leaves the old file:
                // all-or-nothing means a crash mid-way changes nothing.
                inner.appended = cap;
                inner.config.crash_at_bytes = None;
                inner.stats.crashes += 1;
                return Err(io::Error::other(
                    "chaosdisk: simulated power loss during atomic write",
                ));
            }
        }
        inner.appended += data.len() as u64;
        let state = inner.files.entry(path.to_string()).or_insert(FileState {
            data: Vec::new(),
            synced_len: 0,
        });
        state.data = data.to_vec();
        state.synced_len = data.len(); // durable on return, by contract
        Ok(())
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.lock().files.contains_key(path)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.lock().files.remove(path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_tears_only_unsynced_tail() {
        let disk = ChaosDisk::new(ChaosDiskConfig::off(7));
        disk.append("wal", b"durable-part").unwrap();
        disk.sync("wal").unwrap();
        disk.append("wal", b"volatile-tail-that-may-tear").unwrap();
        disk.crash();
        let after = disk.read("wal").unwrap();
        assert!(
            after.starts_with(b"durable-part"),
            "synced prefix must survive"
        );
        assert!(after.len() <= b"durable-part-volatile-tail-that-may-tear".len() + 1);
        assert_eq!(disk.stats().crashes, 1);
    }

    #[test]
    fn crash_schedule_is_deterministic_in_seed() {
        let run = |seed: u64| {
            let disk = ChaosDisk::new(ChaosDiskConfig::off(seed));
            disk.append("wal", b"0123456789abcdef").unwrap();
            disk.sync("wal").unwrap();
            disk.append("wal", b"ghijklmnopqrstuv").unwrap();
            disk.crash();
            disk.read("wal").unwrap()
        };
        assert_eq!(run(42), run(42), "same seed, same torn prefix");
    }

    #[test]
    fn crash_at_bytes_cuts_the_crossing_append_and_disarms() {
        let disk = ChaosDisk::new(ChaosDiskConfig::crash_at(3, 10));
        disk.append("wal", b"12345678").unwrap(); // 8 bytes, below cap
        disk.sync("wal").unwrap();
        let err = disk.append("wal", b"ABCDEFGH").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        let after = disk.read("wal").unwrap();
        assert!(after.starts_with(b"12345678"));
        assert!(
            after.len() <= 10,
            "nothing past the power-loss point persists"
        );
        // Post-reboot the disk works again.
        disk.append("wal", b"recovered").unwrap();
        disk.sync("wal").unwrap();
    }

    #[test]
    fn bit_flip_faults_fire_at_configured_rate() {
        let disk = ChaosDisk::new(ChaosDiskConfig {
            seed: 11,
            fault_rate: 1.0,
            modes: vec![DiskFault::BitFlip],
            crash_at_bytes: None,
        });
        disk.append("f", &[0u8; 64]).unwrap();
        let read = disk.read("f").unwrap();
        assert_eq!(read.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_eq!(disk.stats().bit_flips, 1);
    }

    #[test]
    fn fsync_lie_leaves_tail_volatile() {
        let disk = ChaosDisk::new(ChaosDiskConfig {
            seed: 5,
            fault_rate: 1.0,
            modes: vec![DiskFault::FsyncLie],
            crash_at_bytes: None,
        });
        disk.append("wal", b"tail").unwrap();
        disk.sync("wal").unwrap(); // lies
        assert_eq!(disk.stats().fsync_lies, 1);
    }
}
