//! Clocks, memory, and the order statistics every metric is reduced with.

use std::time::Instant;

/// Process CPU time (user + system, every thread) in seconds.
///
/// `/proc/self/stat` counts in 10 ms ticks, which quantises a one-second
/// round to 1% and can make two runs read exactly alike; the POSIX
/// process clock has nanosecond resolution.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly aligned `timespec` (two C longs on
    // 64-bit Linux, the only target this benchmark supports — it also
    // reads /proc), and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`). Printed because a tmpfs scratch directory
/// turns fsync into a no-op and falsifies the durable workloads.
pub fn fs_type(path: &std::path::Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), ty.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, ty)| ty)
        .unwrap_or_else(|| "unknown".into())
}

/// Wall seconds and CPU seconds `body` took.
pub fn timed_cpu<T>(body: impl FnOnce() -> T) -> (T, f64, f64) {
    let (c0, t0) = (process_cpu_s(), Instant::now());
    let v = body();
    (v, t0.elapsed().as_secs_f64(), process_cpu_s() - c0)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nanoseconds per item of running `f` over every item of `items`: the
/// stage-replay clock. Three passes, median pass reported, so one
/// descheduling does not land in a per-layer number.
pub fn ns_per_item<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for it in items {
                f(it);
            }
            t0.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .collect();
    median(&passes)
}
