//! Unsupervised anomaly detection: a diagonal-covariance Mahalanobis
//! scorer fitted on **benign windows only**.
//!
//! Supervised EVAX detectors can only flag what their training corpus
//! labeled; a zero-day attack family contributes no labeled rows. This
//! scorer learns the benign distribution instead (Tang et al.'s
//! unsupervised HMD premise): fit per-feature mean/variance on benign
//! feature rows, score a row by its mean squared z-score (the diagonal
//! Mahalanobis distance²/dim), and alarm when the score clears a threshold
//! calibrated to a benign-validation false-positive quantile. Nothing
//! about any attack is consulted at training time, so a held-out attack
//! category is detected exactly when it *behaves* abnormally.
//!
//! The scorer implements the object-safe [`Detector`] trait (kind
//! `"anomaly"`), so it drops into every deployment path — model bundles,
//! the fleet, the adaptive controller — unchanged. Scoring is a
//! pure per-row function (no batch-composition or thread-count
//! dependence), keeping the repo-wide bit-reproducibility contract.

use crate::detector::{Detector, DetectorScratch};

/// Variance floor: a feature constant in the benign fit still scores
/// finite (but large) z when an attack moves it. The floor is absolute —
/// feature rows here are normalizer outputs, already in O(1) scale.
const VAR_FLOOR: f64 = 1e-12;

/// A diagonal Mahalanobis anomaly scorer: per-feature benign mean and
/// inverse standard deviation, a calibrated alarm threshold, and an
/// optional top-`k` focus (score only the `k` most-deviant features,
/// which sharpens localized attacks against high-dimensional noise).
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyScorer {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
    threshold: f32,
    top_k: u32,
}

impl AnomalyScorer {
    /// Fits the benign distribution from `rows` (flat row-major, `dim`
    /// features per row) with Welford's online mean/variance in `f64`.
    /// The threshold starts at `f32::INFINITY` (never alarms) — calibrate
    /// it with [`calibrate_threshold`](Self::calibrate_threshold) or set
    /// it explicitly with [`set_threshold`](Self::set_threshold).
    ///
    /// # Errors
    /// Rejects an empty corpus, a zero `dim`, a ragged `rows` length, or
    /// non-finite training values.
    pub fn fit(rows: &[f32], dim: usize) -> Result<AnomalyScorer, String> {
        if dim == 0 {
            return Err("anomaly fit: zero feature dimension".into());
        }
        if rows.is_empty() || !rows.len().is_multiple_of(dim) {
            return Err(format!(
                "anomaly fit: {} values is not a positive multiple of dim {dim}",
                rows.len()
            ));
        }
        if rows.iter().any(|v| !v.is_finite()) {
            return Err("anomaly fit: non-finite training value".into());
        }
        let n_rows = rows.len() / dim;
        let mut mean = vec![0.0f64; dim];
        let mut m2 = vec![0.0f64; dim];
        for (r, row) in rows.chunks_exact(dim).enumerate() {
            let count = (r + 1) as f64;
            for ((m, s), &x) in mean.iter_mut().zip(m2.iter_mut()).zip(row) {
                let x = x as f64;
                let d = x - *m;
                *m += d / count;
                *s += d * (x - *m);
            }
        }
        let denom = (n_rows as f64).max(1.0);
        let inv_std: Vec<f32> = m2
            .iter()
            .map(|&s| (1.0 / (s / denom).max(VAR_FLOOR).sqrt()) as f32)
            .collect();
        Ok(AnomalyScorer {
            mean: mean.iter().map(|&m| m as f32).collect(),
            inv_std,
            threshold: f32::INFINITY,
            top_k: 0,
        })
    }

    /// Restricts scoring to the `k` most-deviant features per row
    /// (builder style; `0` restores all-feature scoring). Values of `k`
    /// at or above the dimension are equivalent to `0`.
    pub fn with_top_k(mut self, k: usize) -> AnomalyScorer {
        self.top_k = if k >= self.mean.len() { 0 } else { k as u32 };
        self
    }

    /// Sets the alarm threshold directly.
    pub fn set_threshold(&mut self, t: f32) {
        self.threshold = t;
    }

    /// Calibrates the threshold so at most a `fpr` fraction of the given
    /// benign validation rows alarm: the threshold becomes the
    /// `(1 - fpr)` quantile of their scores (exclusive — scores strictly
    /// above it alarm via [`Detector::decide`]'s `>=` rule after the
    /// returned epsilon bump).
    ///
    /// Returns the calibrated threshold.
    ///
    /// # Panics
    /// Panics if `rows` is empty or not a multiple of the dimension.
    pub fn calibrate_threshold(&mut self, rows: &[f32], fpr: f64) -> f32 {
        let dim = self.mean.len();
        assert!(
            !rows.is_empty() && rows.len().is_multiple_of(dim),
            "calibration rows must be a positive multiple of dim {dim}"
        );
        let mut scratch = DetectorScratch::new();
        let mut scores: Vec<f32> = rows
            .chunks_exact(dim)
            .map(|r| self.score_into(r, &mut scratch))
            .collect();
        scores.sort_unstable_by(f32::total_cmp);
        let n = scores.len();
        // Index of the highest benign score that must stay below the
        // threshold: ceil((1-fpr)*n) - 1 keeps the alarm fraction <= fpr.
        let keep = ((1.0 - fpr.clamp(0.0, 1.0)) * n as f64).ceil().max(1.0) as usize;
        let idx = keep.min(n) - 1;
        // Nudge past the kept score so `>=` does not alarm on it. The
        // next-representable bump is exact and deterministic.
        let t = next_up(scores[idx]);
        self.threshold = t;
        t
    }

    /// Per-feature benign means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Per-feature inverse standard deviations.
    pub fn inv_std(&self) -> &[f32] {
        &self.inv_std
    }

    /// The top-`k` focus (`0` = score every feature).
    pub fn top_k(&self) -> usize {
        self.top_k as usize
    }
}

/// The next `f32` strictly greater than `v` (finite inputs; infinities
/// and NaN pass through unchanged).
fn next_up(v: f32) -> f32 {
    if !v.is_finite() {
        return v;
    }
    let bits = v.to_bits();
    f32::from_bits(if v >= 0.0 {
        bits + 1
    } else if bits == 0x8000_0000 {
        0 // -0.0 steps to +0.0... then the caller's >= rule handles 0.0
    } else {
        bits - 1
    })
}

impl Detector for AnomalyScorer {
    fn n_features(&self) -> usize {
        self.mean.len()
    }

    fn threshold(&self) -> f32 {
        self.threshold
    }

    fn kind(&self) -> &'static str {
        "anomaly"
    }

    fn score_into(&self, x: &[f32], scratch: &mut DetectorScratch) -> f32 {
        let _ = scratch;
        let dim = self.mean.len();
        assert_eq!(x.len(), dim, "anomaly input dim mismatch");
        if self.top_k == 0 {
            let mut acc = 0.0f64;
            for ((&x, &m), &s) in x.iter().zip(&self.mean).zip(&self.inv_std) {
                let z = ((x - m) * s) as f64;
                acc += z * z;
            }
            (acc / dim as f64) as f32
        } else {
            // Top-k mean z²: per-row partial selection. The allocation
            // here is small (dim f32s) and the result is a pure function
            // of the row, preserving batch/thread independence.
            let mut zsq: Vec<f32> = x
                .iter()
                .zip(&self.mean)
                .zip(&self.inv_std)
                .map(|((&x, &m), &s)| {
                    let z = (x - m) * s;
                    z * z
                })
                .collect();
            let k = self.top_k as usize;
            zsq.sort_unstable_by(|a, b| f32::total_cmp(b, a));
            let mut acc = 0.0f64;
            for &z in &zsq[..k] {
                acc += z as f64;
            }
            (acc / k as f64) as f32
        }
    }

    fn save_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        crate::detector::put_u32(&mut out, self.mean.len() as u32);
        crate::detector::put_u32(&mut out, self.top_k);
        for &m in &self.mean {
            crate::detector::put_f32(&mut out, m);
        }
        for &s in &self.inv_std {
            crate::detector::put_f32(&mut out, s);
        }
        crate::detector::put_f32(&mut out, self.threshold);
        out
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

/// Reconstructs an [`AnomalyScorer`] from its [`Detector::save_bytes`]
/// blob.
///
/// # Errors
/// Returns a description of the malformation: truncation, trailing bytes,
/// implausible dimensions, or non-finite parameters.
pub(crate) fn load_anomaly(bytes: &[u8]) -> Result<AnomalyScorer, String> {
    let mut c = crate::detector::Cursor::new(bytes);
    let dim = crate::detector::checked_dim(c.u32()?, "anomaly")?;
    let top_k = c.u32()?;
    if top_k as usize >= dim && top_k != 0 {
        return Err(format!("anomaly top_k {top_k} not below dimension {dim}"));
    }
    let mean = c.f32_vec(dim)?;
    let inv_std = c.f32_vec(dim)?;
    let threshold = c.f32()?;
    c.done()?;
    if mean.iter().chain(&inv_std).any(|v| !v.is_finite()) {
        return Err("anomaly parameters must be finite".into());
    }
    if threshold.is_nan() {
        return Err("anomaly threshold must not be NaN".into());
    }
    Ok(AnomalyScorer {
        mean,
        inv_std,
        threshold,
        top_k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Benign corpus: rows near (0.5, 0.2, 0.8) with small deterministic
    /// wobble.
    fn benign_rows(n: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(n * 3);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut noise = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (((state >> 40) as f32) / ((1u64 << 24) as f32) - 0.5) * 0.1
        };
        for _ in 0..n {
            out.extend_from_slice(&[0.5 + noise(), 0.2 + noise(), 0.8 + noise()]);
        }
        out
    }

    #[test]
    fn benign_scores_low_anomalies_score_high() {
        let train = benign_rows(256);
        let mut a = AnomalyScorer::fit(&train, 3).unwrap();
        let holdout = benign_rows(64);
        a.calibrate_threshold(&holdout, 0.05);
        let mut scratch = DetectorScratch::new();
        let benign_alarms = holdout
            .chunks_exact(3)
            .filter(|r| a.classify(r, &mut scratch))
            .count();
        assert!(benign_alarms <= 4, "{benign_alarms} alarms > 5% of 64");
        // A shifted row is far outside the benign cloud.
        assert!(a.classify(&[0.9, 0.9, 0.1], &mut scratch));
    }

    #[test]
    fn fit_rejects_degenerate_input() {
        assert!(AnomalyScorer::fit(&[], 3).is_err());
        assert!(AnomalyScorer::fit(&[1.0, 2.0], 0).is_err());
        assert!(AnomalyScorer::fit(&[1.0, 2.0], 3).is_err());
        assert!(AnomalyScorer::fit(&[1.0, f32::NAN, 2.0], 3).is_err());
    }

    #[test]
    fn uncalibrated_scorer_never_alarms() {
        let a = AnomalyScorer::fit(&benign_rows(16), 3).unwrap();
        let mut scratch = DetectorScratch::new();
        assert!(!a.classify(&[100.0, -50.0, 3.0], &mut scratch));
    }

    #[test]
    fn top_k_scores_the_most_deviant_features() {
        let mut a = AnomalyScorer::fit(&benign_rows(256), 3).unwrap();
        a.set_threshold(0.0);
        let mut scratch = DetectorScratch::new();
        let row = [0.5, 0.2, 0.2]; // only the third feature deviates
        let all = a.score_into(&row, &mut scratch);
        let focused = a.clone().with_top_k(1).score_into(&row, &mut scratch);
        // Focusing on the single most-deviant feature must not dilute it.
        assert!(focused >= all, "{focused} < {all}");
    }

    #[test]
    fn round_trips_through_save_bytes() {
        let mut a = AnomalyScorer::fit(&benign_rows(64), 3)
            .unwrap()
            .with_top_k(2);
        a.calibrate_threshold(&benign_rows(32), 0.05);
        let blob = a.save_bytes();
        let back = crate::load_detector("anomaly", &blob).unwrap();
        assert_eq!(back.kind(), "anomaly");
        assert_eq!(back.n_features(), 3);
        let mut scratch = DetectorScratch::new();
        for row in benign_rows(8).chunks_exact(3) {
            let (s0, v0) = a.decide(row, &mut scratch);
            let (s1, v1) = back.decide(row, &mut scratch);
            assert_eq!(s0.to_bits(), s1.to_bits());
            assert_eq!(v0, v1);
        }
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let a = AnomalyScorer::fit(&benign_rows(16), 3).unwrap();
        let blob = a.save_bytes();
        // Truncation.
        assert!(load_anomaly(&blob[..blob.len() - 2]).is_err());
        // Trailing garbage.
        let mut long = blob.clone();
        long.push(0);
        assert!(load_anomaly(&long).is_err());
        // Implausible dimension.
        let mut bad = blob.clone();
        bad[0..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(load_anomaly(&bad).is_err());
        // Non-finite parameter.
        let mut nan = blob.clone();
        nan[8..12].copy_from_slice(&f32::NAN.to_bits().to_le_bytes());
        assert!(load_anomaly(&nan).is_err());
    }

    #[test]
    fn calibration_is_an_exclusive_quantile() {
        let mut a = AnomalyScorer::fit(&benign_rows(128), 3).unwrap();
        let val = benign_rows(100);
        let t = a.calibrate_threshold(&val, 0.05);
        let mut scratch = DetectorScratch::new();
        let alarms = val
            .chunks_exact(3)
            .filter(|r| a.classify(r, &mut scratch))
            .count();
        assert!(alarms <= 5, "{alarms} alarms > 5% of 100");
        assert!(t.is_finite());
    }
}
