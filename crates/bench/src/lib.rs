//! Shared helpers for the benchmark harnesses that regenerate every table
//! and figure of the paper's evaluation (§5). See DESIGN.md §3 for the
//! experiment index.

pub mod report;

use std::time::Duration;

/// Formats a duration like the paper's Table 5 (`1m36s`, `49s`, `1h4m`).
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        format!("{}h{}m", s as u64 / 3600, (s as u64 % 3600) / 60)
    } else if s >= 60.0 {
        format!("{}m{:.0}s", s as u64 / 60, s % 60.0)
    } else if s >= 1.0 {
        format!("{s:.1}s")
    } else {
        format!("{}ms", d.as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_millis(250)), "250ms");
        assert_eq!(fmt_dur(Duration::from_secs(49)), "49.0s");
        assert_eq!(fmt_dur(Duration::from_secs(96)), "1m36s");
        assert_eq!(fmt_dur(Duration::from_secs(3840)), "1h4m");
    }
}
