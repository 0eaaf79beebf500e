//! Host and process readings: the host-speed reference loop, peak
//! resident memory and CPU time, from `/proc/self`.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the `/proc/self/stat` CPU fields (Linux
/// `USER_HZ`, 100 on every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

/// Times a fixed, std-only CPU loop, in ms. Printed at the start and end
/// of every run as a diagnostic of host speed; it never scales a metric.
pub fn host_ref_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(black_box(x));
    }
    black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User and system CPU time of this process (all threads), in ms, from
/// the `utime` and `stime` fields of `/proc/self/stat`; zeros when
/// `/proc` is unavailable.
pub fn cpu_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3, so
    // utime (field 14) and stime (field 15) sit at offsets 11 and 12.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |k: usize| {
        fields
            .get(k)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) * 1e3 / TICKS_PER_S, ticks(12) * 1e3 / TICKS_PER_S)
}
