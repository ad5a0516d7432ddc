//! Measurement helpers: quantiles, process CPU and memory, directory size,
//! and the output check.

use std::collections::HashMap;
use std::path::Path;

use bytes::Bytes;

/// Nearest-rank quantile of an ascending slice (`q` in [0, 1]); `None` when
/// empty.
pub fn quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Latency samples in nanoseconds; a failed op is recorded as `u64::MAX`, so
/// it misses every latency limit.
#[derive(Default)]
pub struct Latencies(Vec<u64>);

impl Latencies {
    pub fn record(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn record_failure(&mut self) {
        self.0.push(u64::MAX);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `q`-quantile in microseconds.
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        self.0.sort_unstable();
        quantile(&self.0, q).map(|ns| ns as f64 / 1e3)
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the Linux `struct rusage` layout (two
    // timevals then fourteen longs) and outlives the call; RUSAGE_SELF = 0.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    ru
}

/// User + system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let ru = rusage();
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 / 1e6;
    t(&ru.utime) + t(&ru.stime)
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 / 1024.0
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// FNV-1a, to remember values by a 64-bit digest.
pub fn digest(b: &[u8]) -> u64 {
    b.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &x| {
        (h ^ u64::from(x)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Default)]
struct KeyState {
    /// Highest acknowledged version and the digest of its value.
    acked: Option<(u64, u64)>,
    /// Digests of writes whose outcome is unknown (failed ops).
    unknown: Vec<u64>,
}

/// The output check: after the run, every written key must read back the
/// value of its highest acknowledged version, or the value of a write whose
/// outcome is unknown (which may have landed later).
#[derive(Default)]
pub struct Checker {
    keys: HashMap<Bytes, KeyState>,
    /// Key + value bytes of acknowledged writes (the user payload).
    pub acked_bytes: u64,
}

impl Checker {
    pub fn ack(&mut self, key: &Bytes, value: &[u8], version: u64) {
        self.acked_bytes += (key.len() + value.len()) as u64;
        let st = self.keys.entry(key.clone()).or_default();
        if st.acked.is_none_or(|(v, _)| version > v) {
            st.acked = Some((version, digest(value)));
        }
    }

    pub fn unknown(&mut self, key: &Bytes, value: &[u8]) {
        self.keys.entry(key.clone()).or_default().unknown.push(digest(value));
    }

    /// Every written key, sorted (the read-back order).
    pub fn keys(&self) -> Vec<Bytes> {
        let mut k: Vec<Bytes> = self.keys.keys().cloned().collect();
        k.sort_unstable();
        k
    }

    /// Whether `read` is an allowed final value of `key`.
    pub fn allows(&self, key: &Bytes, read: Option<&[u8]>) -> bool {
        let Some(st) = self.keys.get(key) else { return read.is_none() };
        let Some(read) = read else { return false };
        let d = digest(read);
        st.acked.is_some_and(|(_, v)| v == d) || st.unknown.contains(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), Some(50));
        assert_eq!(quantile(&v, 0.99), Some(99));
        assert_eq!(quantile(&v, 1.0), Some(100));
        assert_eq!(quantile(&v, 0.0), Some(1));
        assert_eq!(quantile(&[7], 0.99), Some(7));
        assert_eq!(quantile(&[], 0.5), None);
        let mut l = Latencies::default();
        for ns in [3000, 1000, 2000] {
            l.record(ns);
        }
        l.record_failure();
        assert_eq!(l.quantile_us(0.5), Some(2.0));
        assert_eq!(l.quantile_us(1.0), Some(u64::MAX as f64 / 1e3), "failures rank last");
    }

    #[test]
    fn checker_keeps_the_highest_acknowledged_version() {
        let mut c = Checker::default();
        let k = Bytes::from_static(b"k");
        c.ack(&k, b"v2", 2);
        c.ack(&k, b"v1", 1); // acknowledged out of order (pipelined)
        assert!(c.allows(&k, Some(b"v2")));
        assert!(!c.allows(&k, Some(b"v1")));
        assert!(!c.allows(&k, None));
        c.unknown(&k, b"v3");
        assert!(c.allows(&k, Some(b"v3")), "an unknown-outcome write may have landed");
        assert!(c.allows(&Bytes::from_static(b"never"), None));
        assert_eq!(c.acked_bytes, 6);
    }

    #[test]
    fn process_counters_are_live() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
