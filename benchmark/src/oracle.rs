//! The delivery oracle: compares what handlers logged with the exact
//! `(subscription, tag)` multiset the generator said they must log.

use crate::sink::Record;

/// Outcome of checking one run's delivery logs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Deliveries the oracle expects.
    pub attempted: u64,
    /// Expected and never logged.
    pub missing: u64,
    /// Logged more than once by the same subscription.
    pub duplicates: u64,
    /// Logged by a subscription whose filter the obvent does not pass.
    pub misfiltered: u64,
}

impl Verdict {
    pub fn failed(&self) -> u64 {
        self.missing + self.duplicates + self.misfiltered
    }
}

/// Checks `logs` (one per subscription, then optionally extra logs that
/// must stay empty) against `expected` (sorted tags per subscription).
pub fn check(expected: &[Vec<u64>], logs: &[Vec<Record>]) -> Verdict {
    let mut verdict = Verdict::default();
    for (i, log) in logs.iter().enumerate() {
        let want = expected.get(i).map_or(&[][..], Vec::as_slice);
        verdict.attempted += want.len() as u64;
        let mut got: Vec<u64> = log.iter().map(|r| r.tag).collect();
        got.sort_unstable();
        let mut w = 0;
        let mut g = 0;
        while g < got.len() {
            let tag = got[g];
            let run = got[g..].iter().take_while(|&&t| t == tag).count();
            while w < want.len() && want[w] < tag {
                verdict.missing += 1;
                w += 1;
            }
            if w < want.len() && want[w] == tag {
                verdict.duplicates += run as u64 - 1;
                w += 1;
            } else {
                verdict.misfiltered += run as u64;
            }
            g += run;
        }
        verdict.missing += (want.len() - w) as u64;
    }
    // Subscriptions without a log at all (never installed).
    for want in expected.iter().skip(logs.len()) {
        verdict.attempted += want.len() as u64;
        verdict.missing += want.len() as u64;
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(tags: &[u64]) -> Vec<Record> {
        tags.iter()
            .map(|&tag| Record {
                tag,
                sent_ns: 0,
                recv_ns: 0,
            })
            .collect()
    }

    #[test]
    fn clean_run_passes() {
        let expected = vec![vec![1, 2, 3], vec![2]];
        let verdict = check(&expected, &[log(&[3, 1, 2]), log(&[2]), log(&[])]);
        assert_eq!(
            verdict,
            Verdict {
                attempted: 4,
                ..Verdict::default()
            }
        );
        assert_eq!(verdict.failed(), 0);
    }

    #[test]
    fn missing_deliveries_are_counted() {
        let expected = vec![vec![1, 2, 3, 9]];
        let verdict = check(&expected, &[log(&[2])]);
        assert_eq!(verdict.missing, 3);
        assert_eq!(verdict.failed(), 3);
        // A subscription that was never installed misses everything.
        assert_eq!(check(&[vec![1], vec![5, 6]], &[log(&[1])]).missing, 2);
    }

    #[test]
    fn duplicates_are_counted_per_extra_copy() {
        let expected = vec![vec![1, 2]];
        let verdict = check(&expected, &[log(&[1, 2, 2, 2])]);
        assert_eq!(
            (verdict.missing, verdict.duplicates, verdict.misfiltered),
            (0, 2, 0)
        );
    }

    #[test]
    fn misfiltered_deliveries_are_counted() {
        // Tag 7 reached a subscription whose filter it does not pass, and
        // the stray log (churned-in subscriptions) saw traffic at all.
        let expected = vec![vec![1, 2]];
        let verdict = check(&expected, &[log(&[1, 7, 7, 2]), log(&[4])]);
        assert_eq!(
            (verdict.missing, verdict.duplicates, verdict.misfiltered),
            (0, 0, 3)
        );
        assert_eq!(verdict.attempted, 2);
    }
}
