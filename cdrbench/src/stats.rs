//! Order statistics and the pass/fail tally every workload keeps.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median over `chunks` consecutive, equal stretches of `values`
/// (in time order) of each stretch's `q`-quantile. On a shared host a few
/// seconds of contention move a whole-run tail quantile by a quarter or
/// more; the typical stretch's tail moves only when most of the run is
/// affected. Falls back to the whole-run quantile for short samples.
pub fn chunked_quantile(values: &[f64], chunks: usize, q: f64) -> f64 {
    let len = values.len() / chunks.max(1);
    if len < 20 {
        return quantile(values, q);
    }
    let per_chunk: Vec<f64> = values
        .chunks(len)
        .take(chunks)
        .map(|c| quantile(c, q))
        .collect();
    median(&per_chunk)
}

/// Element-wise `a[k] − b[k]`: the cost one layer adds on top of the
/// layer below it, paired by edit so both sides saw the same input.
pub fn paired_diff(a: &[f64], b: &[f64]) -> Vec<f64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Operations attempted and operations that failed or answered wrong.
/// Every check goes through [`Tally::check`], so a wrong answer is
/// always counted and never filtered out.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Counts one checked answer; `ok == false` counts it as failed and
    /// keeps the first few messages for the error report.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// The first recorded failure messages.
    pub fn errors(&self) -> &[String] {
        &self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn chunked_quantile_ignores_one_bad_stretch() {
        let mut v = vec![1.0; 100];
        v[..20].iter_mut().for_each(|x| *x = 50.0);
        assert_eq!(chunked_quantile(&v, 5, 0.95), 1.0);
        assert_eq!(quantile(&v, 0.95), 50.0);
        // Too few samples per stretch: the whole-run quantile.
        assert_eq!(chunked_quantile(&v[..30], 5, 0.95), 50.0);
    }

    #[test]
    fn tally_counts_every_failure() {
        let mut t = Tally::default();
        t.check(true, || unreachable!());
        t.check(false, || "wrong".into());
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.errors(), ["wrong".to_string()]);
    }
}
