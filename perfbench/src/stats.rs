//! Order statistics, server histogram deltas, and the span recorder.

use std::collections::BTreeMap;
use std::time::Instant;

/// Linear-interpolated quantile of an ascending-sorted sample (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// The reported tail: p99 when a sample of `n` leaves at least ten samples
/// beyond it, else the highest lower percentile that does (50 when even the
/// median has fewer).
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Median and supported tail of a latency sample, with the tail's percentile.
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub tail_pct: f64,
    pub n: usize,
}

impl Latency {
    /// Median and the supported tail ([`tail_percentile`]).
    pub fn of(values: &[f64]) -> Latency {
        Latency::at(values, tail_percentile(values.len()))
    }

    /// Median and the tail at `tail_pct`.
    pub fn at(values: &[f64], tail_pct: f64) -> Latency {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Latency {
            p50: quantile(&v, 0.5),
            tail: quantile(&v, tail_pct / 100.0),
            tail_pct,
            n: v.len(),
        }
    }
}

/// One Prometheus histogram family, summed over its label sets.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    /// Upper bucket bounds (`le`), ascending, `+Inf` last.
    pub bounds: Vec<f64>,
    /// Cumulative counts per bound.
    pub cum: Vec<f64>,
    pub sum: f64,
    pub count: f64,
}

impl Hist {
    /// Parses `family` out of a text exposition, adding label sets together.
    pub fn parse(text: &str, family: &str) -> Hist {
        let mut buckets: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        let mut h = Hist::default();
        for line in text.lines() {
            let Some(rest) = line.strip_prefix(family) else {
                continue;
            };
            let Some((head, value)) = rest.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            if head.starts_with("_bucket") {
                let Some(le) = head.split("le=\"").nth(1).and_then(|s| s.split('"').next()) else {
                    continue;
                };
                let bound = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    match le.parse::<f64>() {
                        Ok(b) => b,
                        Err(_) => continue,
                    }
                };
                // Key by the bit pattern: bounds are positive, so bit order
                // is numeric order.
                let e = buckets.entry(bound.to_bits()).or_insert((bound, 0.0));
                e.1 += value;
            } else if head.starts_with("_sum") {
                h.sum += value;
            } else if head.starts_with("_count") {
                h.count += value;
            }
        }
        for (_, (b, c)) in buckets {
            h.bounds.push(b);
            h.cum.push(c);
        }
        h
    }

    /// `self + sign · other`, bucket by bucket (same layout assumed; an
    /// empty side takes the other's layout).
    fn combine(&self, other: &Hist, sign: f64) -> Hist {
        let bounds = if self.bounds.is_empty() {
            &other.bounds
        } else {
            &self.bounds
        };
        let at = |h: &Hist, i: usize| h.cum.get(i).copied().unwrap_or(0.0);
        Hist {
            bounds: bounds.clone(),
            cum: (0..bounds.len())
                .map(|i| at(self, i) + sign * at(other, i))
                .collect(),
            sum: self.sum + sign * other.sum,
            count: self.count + sign * other.count,
        }
    }

    /// `self − before`.
    pub fn minus(&self, before: &Hist) -> Hist {
        self.combine(before, -1.0)
    }

    /// `self + other`.
    pub fn plus(&self, other: &Hist) -> Hist {
        self.combine(other, 1.0)
    }

    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// Quantile estimate, interpolating linearly inside the bucket that holds
    /// it (0 for an empty histogram). The overflow bucket reports its lower
    /// bound.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.cum.last().copied().unwrap_or(0.0);
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let mut prev_bound = 0.0;
        let mut prev_cum = 0.0;
        for (&b, &c) in self.bounds.iter().zip(&self.cum) {
            if c >= rank && c > prev_cum {
                if b.is_infinite() {
                    return prev_bound;
                }
                return prev_bound + (b - prev_bound) * (rank - prev_cum) / (c - prev_cum);
            }
            prev_bound = b;
            prev_cum = c;
        }
        prev_bound
    }
}

/// In-memory span store: durations in microseconds by span name, written out
/// when the run ends.
#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, Vec<f64>>,
}

impl Spans {
    pub fn add(&mut self, name: &'static str, us: f64) {
        self.by_name.entry(name).or_default().push(us);
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(name, t0.elapsed().as_secs_f64() * 1e6);
        out
    }

    pub fn calls(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, Vec::len)
    }

    pub fn total_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| v.iter().sum())
    }

    pub fn p50_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |v| median(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(100_000), 99.0);
        assert_eq!(tail_percentile(5), 50.0);
    }

    #[test]
    fn histogram_delta_quantile() {
        let before = "x_bucket{class=\"a\",le=\"1\"} 1\nx_bucket{class=\"a\",le=\"2\"} 1\n\
                      x_bucket{class=\"a\",le=\"+Inf\"} 1\nx_sum{class=\"a\"} 0.5\nx_count{class=\"a\"} 1\n";
        let after = "x_bucket{class=\"a\",le=\"1\"} 1\nx_bucket{class=\"a\",le=\"2\"} 5\n\
                     x_bucket{class=\"a\",le=\"+Inf\"} 5\nx_sum{class=\"a\"} 6.5\nx_count{class=\"a\"} 5\n\
                     x_bucket{class=\"b\",le=\"1\"} 0\nx_bucket{class=\"b\",le=\"2\"} 0\n\
                     x_bucket{class=\"b\",le=\"+Inf\"} 0\n";
        let d = Hist::parse(after, "x").minus(&Hist::parse(before, "x"));
        assert_eq!(d.count, 4.0);
        assert_eq!(d.mean(), 1.5);
        assert_eq!(d.quantile(0.5), 1.5);
    }
}
