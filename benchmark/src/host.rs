//! Host probes: thread count, peak RSS, last-level cache size and a
//! STREAM-triad memory-bandwidth figure for the roofline column.

use std::time::Instant;

/// Engine worker threads: every core, capped at 4 so a large host does not
/// turn the fixed-size graphs into a scheduling benchmark.
pub fn engine_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Peak resident set (`VmHWM`) of this process in MB; `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Size of cpu0's highest-level cache in MB, from sysfs.
pub fn llc_mb() -> Option<f64> {
    let mut best: Option<(u32, f64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = std::fs::read_to_string(format!("{dir}/level")) else {
            continue;
        };
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let (Ok(level), Some(mb)) = (level.trim().parse::<u32>(), parse_size_mb(size.trim()))
        else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, mb));
        }
    }
    best.map(|(_, mb)| mb)
}

/// `"4096K"` / `"260M"` → MB.
fn parse_size_mb(text: &str) -> Option<f64> {
    let (digits, unit) = text.split_at(
        text.find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len()),
    );
    let n: f64 = digits.parse().ok()?;
    match unit {
        "K" => Some(n / 1024.0),
        "M" => Some(n),
        "G" => Some(n * 1024.0),
        _ => None,
    }
}

/// Single-threaded STREAM triad `a[i] = b[i] + s * c[i]` over three `f64`
/// arrays of `array_mib` MiB each: best of 5 passes, in GB/s (3 × 8 bytes
/// moved per element, write-allocate traffic not counted).
pub fn triad_gbs(array_mib: usize) -> f64 {
    let n = array_mib * (1 << 20) / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![2.5f64; n];
    let mut best = f64::INFINITY;
    for pass in 0..5 {
        let s = 3.0 + pass as f64;
        let t = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        std::hint::black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    (3 * 8 * n) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_plausible_values() {
        assert!((1..=4).contains(&engine_threads()));
        assert_eq!(parse_size_mb("4096K"), Some(4.0));
        assert_eq!(parse_size_mb("260M"), Some(260.0));
        assert_eq!(parse_size_mb("x"), None);
        assert!(triad_gbs(1) > 0.0);
    }
}
