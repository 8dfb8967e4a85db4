//! The benchmark's own arithmetic: percentiles with their sample
//! counts, quartiles, the ack/reply join behind `visibility_p50_ms`,
//! and the two text formats it reads (`/proc/self/status` and the
//! `METRICS` exposition).

/// A nearest-rank percentile together with the sample it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile value.
    pub value: f64,
    /// Samples in the population.
    pub samples: usize,
    /// Samples strictly above the percentile's rank — a tail estimate
    /// is only worth printing when this is at least ten.
    pub beyond: usize,
}

/// Nearest-rank percentile `q ∈ [0, 1]` of `values`; `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<Pct> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    })
}

/// The median, averaging the two middle values of an even sample;
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The interquartile mean: the mean of the values left after dropping
/// the lowest and the highest quarter (`floor(n / 4)` from each end);
/// `None` when empty. Steadier than the median when the values fall into
/// two clusters, and unmoved by a lone outlier.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    Some(middle.iter().sum::<f64>() / middle.len() as f64)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method); `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(out)
}

/// One acknowledged `INGEST` line: when the producer received the ack
/// (seconds since the pass began) and the stream position just past
/// the line's last edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ack {
    pub at: f64,
    pub end: u64,
}

/// One query reply: when it was received and the snapshot position it
/// answered at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Seen {
    pub at: f64,
    pub position: u64,
}

/// Joins the ack log against the query replies (both in the order they
/// were received): for each line, the delay in seconds from its ack to
/// the first reply whose position is at or past the line's end. A reply
/// can beat the producer's own ack read, so delays are clamped at zero.
/// Returns the delays and how many lines no reply ever covered.
pub fn visibility(acks: &[Ack], replies: &[Seen]) -> (Vec<f64>, usize) {
    // The first reply at or past `end` is the first index where the
    // running maximum reaches `end`, and running maxima are sorted, so
    // a binary search finds it whether or not positions are monotone.
    let mut running = Vec::with_capacity(replies.len());
    let mut max = 0u64;
    for r in replies {
        max = max.max(r.position);
        running.push(max);
    }
    let mut delays = Vec::with_capacity(acks.len());
    let mut uncovered = 0;
    for a in acks {
        let j = running.partition_point(|&p| p < a.end);
        match replies.get(j) {
            Some(r) => delays.push((r.at - a.at).max(0.0)),
            None => uncovered += 1,
        }
    }
    (delays, uncovered)
}

/// The process's peak resident set (`VmHWM`) in kB, from the text of
/// `/proc/<pid>/status`.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// Values of every sample named `name` in a Prometheus text exposition
/// whose label set contains each of `labels` (written `key="value"`).
pub fn samples(text: &str, name: &str, labels: &[&str]) -> Vec<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (head, value) = l.rsplit_once(' ')?;
            let (metric, rest) = head.split_once('{').unwrap_or((head, "}"));
            if metric != name {
                return None;
            }
            let set = rest.strip_suffix('}')?;
            let have: Vec<&str> = set.split(',').collect();
            labels
                .iter()
                .all(|want| have.contains(want))
                .then(|| value.parse().ok())?
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_with_counts() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!(p50.value, 50.0);
        assert_eq!((p50.samples, p50.beyond), (100, 50));
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&v, 1.0).unwrap().value, 100.0);
        assert_eq!(percentile(&v, 0.0).unwrap().value, 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), percentile(&v, 0.9));
        assert_eq!(percentile(&[], 0.5), None);
        let one = percentile(&[7.0], 0.99).unwrap();
        assert_eq!((one.value, one.samples, one.beyond), (7.0, 1, 0));
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        // Nine values: the two lowest and two highest are dropped.
        let v = [9.0, 0.3, 0.4, 0.4, 0.5, 0.6, 0.6, 0.1, 0.7];
        let iqm = interquartile_mean(&v).unwrap();
        assert!((iqm - (0.4 + 0.4 + 0.5 + 0.6 + 0.6) / 5.0).abs() < 1e-12);
        // Below four values nothing is dropped.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn visibility_joins_each_ack_to_its_first_covering_reply() {
        let acks = [
            Ack { at: 1.0, end: 256 },
            Ack { at: 2.0, end: 512 },
            Ack { at: 3.0, end: 768 },
            Ack { at: 9.0, end: 1024 },
        ];
        let replies = [
            Seen {
                at: 0.5,
                position: 0,
            },
            Seen {
                at: 1.5,
                position: 0,
            },
            Seen {
                at: 2.5,
                position: 512,
            },
            Seen {
                at: 3.5,
                position: 768,
            },
            Seen {
                at: 4.0,
                position: 768,
            },
        ];
        let (delays, uncovered) = visibility(&acks, &replies);
        assert_eq!(delays, vec![1.5, 0.5, 0.5]);
        assert_eq!(uncovered, 1);
    }

    #[test]
    fn visibility_clamps_a_reply_that_beat_the_ack_read() {
        let acks = [Ack { at: 2.0, end: 256 }];
        let replies = [Seen {
            at: 1.9,
            position: 256,
        }];
        assert_eq!(visibility(&acks, &replies), (vec![0.0], 0));
        // A later, higher position covers an earlier line too.
        let acks = [Ack { at: 1.0, end: 10 }, Ack { at: 1.1, end: 20 }];
        let replies = [Seen {
            at: 1.2,
            position: 30,
        }];
        let (delays, _) = visibility(&acks, &replies);
        assert!((delays[0] - 0.2).abs() < 1e-12 && (delays[1] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status = "Name:\tservebench\nVmPeak:\t  999 kB\nVmHWM:\t   123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(123_456));
        assert_eq!(vm_hwm_kb("VmRSS:\t1 kB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn samples_filter_by_name_and_labels() {
        let text = "# TYPE rept_apply_micros summary\n\
            rept_apply_micros{tenant=\"default\",quantile=\"0.5\"} 8\n\
            rept_apply_micros_sum{tenant=\"default\"} 1200\n\
            rept_apply_micros_sum{tenant=\"_all\"} 1200\n\
            # shard=1\n\
            rept_apply_micros_sum{tenant=\"default\"} 300\n\
            rept_busy_rejections_total{tenant=\"default\"} 4";
        let sums = samples(text, "rept_apply_micros_sum", &["tenant=\"default\""]);
        assert_eq!(sums, vec![1200.0, 300.0]);
        let p50 = samples(
            text,
            "rept_apply_micros",
            &["tenant=\"default\"", "quantile=\"0.5\""],
        );
        assert_eq!(p50, vec![8.0]);
        assert!(samples(text, "rept_apply", &[]).is_empty());
        assert_eq!(samples(text, "rept_busy_rejections_total", &[]), vec![4.0]);
    }
}
