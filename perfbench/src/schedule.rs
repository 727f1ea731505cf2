//! Open-loop send schedules.
//!
//! An open-loop generator sends request `i` at a due time fixed in
//! advance, whether or not earlier requests have been answered, and
//! every latency is timed from that due time: a stall that delays later
//! sends is charged to every request it delayed, instead of silently
//! thinning the load. How late the generator itself ran is reported
//! separately ([`lateness`]).

use std::time::Duration;

/// One constant-rate stretch of a [`Ladder`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// Sends per second.
    pub rate: f64,
    /// Sends in this step.
    pub count: usize,
}

/// A sequence of constant-rate steps, sent back to back. Send `i` of
/// step `k` is due `i / rate_k` after the step starts, and a step starts
/// when the previous one's duration (`count / rate`) has elapsed.
#[derive(Debug, Clone, PartialEq)]
pub struct Ladder {
    steps: Vec<Step>,
    /// Offset of each step's first send.
    starts: Vec<Duration>,
    /// Global index of each step's first send.
    firsts: Vec<usize>,
}

impl Ladder {
    /// A ladder of `steps`, each with a positive rate.
    pub fn new(steps: Vec<Step>) -> Self {
        let mut starts = Vec::with_capacity(steps.len());
        let mut firsts = Vec::with_capacity(steps.len());
        let (mut at, mut first) = (0.0f64, 0usize);
        for s in &steps {
            assert!(s.rate > 0.0, "step rate must be positive");
            starts.push(Duration::from_secs_f64(at));
            firsts.push(first);
            at += s.count as f64 / s.rate;
            first += s.count;
        }
        Self {
            steps,
            starts,
            firsts,
        }
    }

    /// The steps, in send order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Total sends over all steps.
    pub fn len(&self) -> usize {
        self.steps.iter().map(|s| s.count).sum()
    }

    /// True when the ladder schedules no send.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The step send `i` belongs to.
    pub fn step_of(&self, i: usize) -> usize {
        assert!(i < self.len(), "send {i} beyond the schedule");
        self.firsts.partition_point(|&f| f <= i) - 1
    }

    /// Global index range of step `k`'s sends.
    pub fn range(&self, k: usize) -> std::ops::Range<usize> {
        self.firsts[k]..self.firsts[k] + self.steps[k].count
    }

    /// Due time of send `i`, as an offset from the schedule's start.
    pub fn due(&self, i: usize) -> Duration {
        let k = self.step_of(i);
        let within = (i - self.firsts[k]) as f64 / self.steps[k].rate;
        self.starts[k] + Duration::from_secs_f64(within)
    }

    /// Offset at which the whole schedule has been sent.
    pub fn duration(&self) -> Duration {
        match self.steps.last() {
            None => Duration::ZERO,
            Some(s) => {
                self.starts[self.steps.len() - 1] + Duration::from_secs_f64(s.count as f64 / s.rate)
            }
        }
    }
}

/// How late a send went out relative to its due time (zero when early
/// or on time).
pub fn lateness(due: Duration, sent: Duration) -> Duration {
    sent.saturating_sub(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(d: Duration) -> f64 {
        d.as_secs_f64() * 1e3
    }

    #[test]
    fn constant_rate_spaces_sends_evenly() {
        let l = Ladder::new(vec![Step {
            rate: 1000.0,
            count: 5,
        }]);
        let due: Vec<f64> = (0..5).map(|i| ms(l.due(i))).collect();
        for (i, d) in due.iter().enumerate() {
            assert!((d - i as f64).abs() < 1e-9, "{due:?}");
        }
        assert!((ms(l.duration()) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn ladder_steps_follow_each_other() {
        let l = Ladder::new(vec![
            Step {
                rate: 100.0,
                count: 10,
            },
            Step {
                rate: 1000.0,
                count: 4,
            },
        ]);
        assert_eq!(l.len(), 14);
        assert_eq!(l.step_of(9), 0);
        assert_eq!(l.step_of(10), 1);
        assert_eq!(l.range(1), 10..14);
        // Step 1 starts after step 0's 10 sends at 10 ms spacing.
        assert!((ms(l.due(10)) - 100.0).abs() < 1e-9);
        assert!((ms(l.due(13)) - 103.0).abs() < 1e-9);
        assert!((ms(l.duration()) - 104.0).abs() < 1e-9);
    }

    #[test]
    fn lateness_is_never_negative() {
        let due = Duration::from_millis(10);
        assert_eq!(lateness(due, Duration::from_millis(4)), Duration::ZERO);
        assert_eq!(
            lateness(due, Duration::from_millis(13)),
            Duration::from_millis(3)
        );
    }
}
