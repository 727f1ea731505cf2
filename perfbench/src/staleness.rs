//! Staleness of streamed records, from a client's `stats` polls.
//!
//! The service's `stats` reply carries `stitched`: the length of the
//! global-stream prefix covered by the last published stitched
//! partition. A record is authoritative from the first poll whose
//! `stitched` count exceeds its id, so a client observes its staleness
//! as the time from the record's scheduled ingest to that poll's reply.
//! Polling quantizes the observation to the poll period, the same way a
//! real client polling the service would see it.

use std::time::Duration;

/// One `stats` reply, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poll {
    /// When the reply arrived, as an offset from the schedule's start.
    pub at: Duration,
    /// The reply's `stitched` count.
    pub stitched: u64,
}

/// Staleness of records `first..end`: for each id, the time from
/// `due(id)` to the first poll (in arrival order) whose `stitched` count
/// covers it, or to `final_at` when no poll did (the final explicit
/// stitch covers every record). Polls are read in arrival order; a
/// published stitched prefix never shrinks, so a poll reporting less
/// than an earlier one is a service fault and is returned as an error.
pub fn staleness(
    polls: &[Poll],
    first: u64,
    end: u64,
    due: impl Fn(u64) -> Duration,
    final_at: Duration,
) -> Result<Vec<Duration>, String> {
    for w in polls.windows(2) {
        if w[1].stitched < w[0].stitched {
            return Err(format!(
                "stitched count went backwards: {} at {:?} after {} at {:?}",
                w[1].stitched, w[1].at, w[0].stitched, w[0].at
            ));
        }
    }
    let mut out = Vec::with_capacity(end.saturating_sub(first) as usize);
    let mut p = 0;
    for id in first..end {
        while p < polls.len() && polls[p].stitched <= id {
            p += 1;
        }
        let seen = polls.get(p).map_or(final_at, |poll| poll.at);
        out.push(seen.saturating_sub(due(id)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn first_covering_poll_ends_staleness() {
        // Records 10..14 due 1 ms apart from t = 0.
        let polls = [
            Poll {
                at: ms(2),
                stitched: 10,
            },
            Poll {
                at: ms(5),
                stitched: 12,
            },
            Poll {
                at: ms(9),
                stitched: 12,
            },
            Poll {
                at: ms(12),
                stitched: 14,
            },
        ];
        let s = staleness(&polls, 10, 14, |id| ms(id - 10), ms(20)).unwrap();
        assert_eq!(s, vec![ms(5), ms(4), ms(10), ms(9)]);
    }

    #[test]
    fn uncovered_records_wait_for_the_final_stitch() {
        let polls = [Poll {
            at: ms(3),
            stitched: 1,
        }];
        let s = staleness(&polls, 0, 3, ms, ms(10)).unwrap();
        assert_eq!(s, vec![ms(3), ms(9), ms(8)]);
        let none = staleness(&[], 0, 2, |_| ms(0), ms(7)).unwrap();
        assert_eq!(none, vec![ms(7), ms(7)]);
    }

    #[test]
    fn staleness_is_never_negative() {
        // A poll already covering a record before its due time (a warm
        // prefix, say) counts as zero staleness.
        let polls = [Poll {
            at: ms(1),
            stitched: 5,
        }];
        assert_eq!(
            staleness(&polls, 0, 1, |_| ms(4), ms(9)).unwrap(),
            vec![ms(0)]
        );
    }

    #[test]
    fn shrinking_stitched_prefix_is_a_fault() {
        let polls = [
            Poll {
                at: ms(1),
                stitched: 5,
            },
            Poll {
                at: ms(2),
                stitched: 4,
            },
        ];
        assert!(staleness(&polls, 0, 1, |_| ms(0), ms(3)).is_err());
    }
}
