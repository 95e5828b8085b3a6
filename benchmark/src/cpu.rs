//! Processor time this process has spent, for `venues_live`'s
//! `camera_fps`.

/// Ticks per second of the `utime`/`stime` fields: the kernel reports
/// them in `USER_HZ`, which is 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// User plus system seconds every thread of this process has run, from
/// `/proc/self/stat`, at 10 ms resolution.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_cpu_s(&stat).ok_or_else(|| "malformed /proc/self/stat".to_owned())
}

/// `utime + stime` of a `/proc/<pid>/stat` line, in seconds. The
/// command name in parentheses may itself hold spaces and parentheses,
/// so the fields are counted from the last `)`.
pub fn parse_cpu_s(stat: &str) -> Option<f64> {
    let (_, rest) = stat.rsplit_once(')')?;
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_and_stime_after_the_command_name() {
        let stat =
            "4242 (a (b) c) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 56 0 0 20 0 9 0 100 0 0";
        assert_eq!(parse_cpu_s(stat), Some(12.90));
        assert_eq!(parse_cpu_s("4242 (x) S 1"), None);
    }

    #[test]
    fn live_process_reads_its_own_processor_time() {
        let before = process_cpu_s().expect("readable on Linux");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(process_cpu_s().expect("readable on Linux") >= before);
    }
}
