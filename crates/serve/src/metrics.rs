//! Serving counters and windowed latency/throughput statistics.

use crate::request::Response;

/// Monotone counters maintained by the serving loop over its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Requests submitted (admitted or not).
    pub submitted: usize,
    /// Requests shed at admission (queue at bound).
    pub shed: usize,
    /// Requests dropped at batch formation because their deadline had passed.
    pub expired: usize,
    /// Requests answered.
    pub completed: usize,
    /// Answered requests that completed after their deadline.
    pub late: usize,
    /// Requests rejected as malformed at admission (never queued).
    pub invalid: usize,
    /// Requests failed after the retry budget ran out.
    pub failed: usize,
    /// Batch re-runs after transient faults.
    pub retries: usize,
    /// Batches successfully executed.
    pub batches: usize,
    /// Executed batches served at a degraded level (> 0).
    pub degraded_batches: usize,
    /// Highest queue depth observed at admission.
    pub peak_queue_depth: usize,
    /// Worst degradation level reached (0 = never degraded).
    pub max_level: u8,
}

impl Counters {
    /// Every submitted request must be accounted for exactly once.
    pub fn accounted(&self) -> usize {
        self.shed + self.expired + self.completed + self.invalid + self.failed
    }
}

/// Latency/throughput digest of one fixed-size window of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Window index (window `w` covers `[w*len, (w+1)*len)` virtual micros).
    pub window: usize,
    /// Window start, virtual micros.
    pub start_micros: u64,
    /// Requests answered in the window.
    pub completed: usize,
    /// Requests rejected in the window (shed, expired, invalid or failed).
    pub rejected: usize,
    /// Answered requests that were served at a degraded level.
    pub degraded: usize,
    /// Answered requests whose batch needed a retry.
    pub retried: usize,
    /// Median latency of answered requests, virtual micros (0 when none).
    pub p50_micros: u64,
    /// 99th-percentile latency of answered requests, virtual micros.
    pub p99_micros: u64,
    /// Answered problems per virtual second.
    pub problems_per_sec: f64,
}

/// Nearest-rank percentile of an ascending-sorted latency slice.
///
/// `p` in `[0, 1]`; returns 0 for an empty slice.
pub fn percentile_micros(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Buckets responses into fixed windows of `window_micros` by completion time
/// and digests each. Windows with no traffic are omitted.
pub fn windowed(responses: &[Response], window_micros: u64) -> Vec<WindowStats> {
    let window_micros = window_micros.max(1);
    let Some(last) = responses.iter().map(|r| r.completed_micros).max() else {
        return Vec::new();
    };
    let windows = (last / window_micros + 1) as usize;
    let mut latencies: Vec<Vec<u64>> = vec![Vec::new(); windows];
    let mut stats: Vec<WindowStats> = (0..windows)
        .map(|w| WindowStats {
            window: w,
            start_micros: w as u64 * window_micros,
            completed: 0,
            rejected: 0,
            degraded: 0,
            retried: 0,
            p50_micros: 0,
            p99_micros: 0,
            problems_per_sec: 0.0,
        })
        .collect();
    for response in responses {
        let w = (response.completed_micros / window_micros) as usize;
        if response.is_answered() {
            stats[w].completed += 1;
            if response.degradation.as_u8() > 0 {
                stats[w].degraded += 1;
            }
            if response.retried {
                stats[w].retried += 1;
            }
            latencies[w].push(u64::from(response.latency_micros));
        } else {
            stats[w].rejected += 1;
        }
    }
    for (stat, mut lats) in stats.iter_mut().zip(latencies) {
        lats.sort_unstable();
        stat.p50_micros = percentile_micros(&lats, 0.50);
        stat.p99_micros = percentile_micros(&lats, 0.99);
        stat.problems_per_sec = stat.completed as f64 * 1e6 / window_micros as f64;
    }
    stats.retain(|s| s.completed + s.rejected > 0);
    stats
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::engine::DegradationLevel;
    use crate::error::Rejection;
    use crate::request::Answer;

    fn answered(id: u64, completed: u64, latency: u32, level: DegradationLevel) -> Response {
        Response {
            id,
            outcome: Ok(Answer {
                choice: 0,
                correct: true,
            }),
            degradation: level,
            completed_micros: completed,
            latency_micros: latency,
            retried: false,
            missed_deadline: false,
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let lats = [10, 20, 30, 40];
        assert_eq!(percentile_micros(&lats, 0.50), 20);
        assert_eq!(percentile_micros(&lats, 0.99), 40);
        assert_eq!(percentile_micros(&lats, 0.0), 10);
        assert_eq!(percentile_micros(&[], 0.5), 0);
    }

    #[test]
    fn windows_bucket_by_completion_time() {
        let responses = vec![
            answered(0, 500, 100, DegradationLevel::Full),
            answered(1, 900, 300, DegradationLevel::HalvedBatch),
            Response {
                id: 2,
                outcome: Err(Rejection::Overloaded {
                    queue_depth: 4,
                    limit: 4,
                }),
                degradation: DegradationLevel::Full,
                completed_micros: 1_200,
                latency_micros: 0,
                retried: false,
                missed_deadline: false,
            },
        ];
        let windows = windowed(&responses, 1_000);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].completed, 2);
        assert_eq!(windows[0].degraded, 1);
        assert_eq!(windows[0].p50_micros, 100);
        assert_eq!(windows[0].p99_micros, 300);
        assert_eq!(windows[1].rejected, 1);
        assert!((windows[0].problems_per_sec - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn counters_account_for_every_terminal_state() {
        let counters = Counters {
            submitted: 10,
            shed: 2,
            expired: 1,
            completed: 5,
            invalid: 1,
            failed: 1,
            ..Counters::default()
        };
        assert_eq!(counters.accounted(), counters.submitted);
    }
}
