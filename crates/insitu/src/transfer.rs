//! Transfer functions: scalar → premultiplied RGBA.

/// A piecewise-linear colour/opacity map over a scalar range.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferFunction {
    /// Scalar value mapped to the first control point.
    pub lo: f64,
    /// Scalar value mapped to the last control point.
    pub hi: f64,
    /// Control points: straight RGB + opacity, interpolated linearly.
    pub stops: Vec<[f32; 4]>,
    /// Global opacity scale (per unit length of ray travel).
    pub opacity_scale: f32,
}

impl TransferFunction {
    /// A blue→cyan→yellow→red "heat" map, the usual choice for speed.
    pub fn heat(lo: f64, hi: f64) -> Self {
        TransferFunction {
            lo,
            hi,
            stops: vec![
                [0.05, 0.05, 0.5, 0.02],
                [0.0, 0.8, 0.9, 0.25],
                [0.95, 0.9, 0.1, 0.6],
                [0.9, 0.05, 0.05, 0.95],
            ],
            opacity_scale: 1.0,
        }
    }

    /// A greyscale ramp (density-style rendering).
    pub fn grey(lo: f64, hi: f64) -> Self {
        TransferFunction {
            lo,
            hi,
            stops: vec![[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]],
            opacity_scale: 1.0,
        }
    }

    /// Classify a scalar: straight RGB and opacity in `[0, 1]`.
    pub fn classify(&self, v: f64) -> [f32; 4] {
        let t = if self.hi > self.lo {
            ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let n = self.stops.len();
        if n == 1 {
            return self.stops[0];
        }
        let scaled = t * (n - 1) as f64;
        let i = (scaled.floor() as usize).min(n - 2);
        let frac = (scaled - i as f64) as f32;
        let a = self.stops[i];
        let b = self.stops[i + 1];
        [
            a[0] + (b[0] - a[0]) * frac,
            a[1] + (b[1] - a[1]) * frac,
            a[2] + (b[2] - a[2]) * frac,
            (a[3] + (b[3] - a[3]) * frac) * self.opacity_scale,
        ]
    }

    /// Classify and convert to a premultiplied sample for a ray segment
    /// of length `ds` (Beer–Lambert opacity accumulation).
    pub fn sample(&self, v: f64, ds: f64) -> [f32; 4] {
        let c = self.classify(v);
        let alpha = 1.0 - (-c[3] as f64 * ds).exp() as f32;
        [c[0] * alpha, c[1] * alpha, c[2] * alpha, alpha]
    }

    /// Whether [`TransferFunction::classify`] returns opacity *exactly*
    /// `0.0` for every scalar in `[vmin, vmax]` — the empty-space test
    /// behind macrocell skipping ([`crate::volume`]).
    ///
    /// The guarantee is at the bit level, not merely approximate: the
    /// `v → t` mapping is monotone under IEEE rounding, so every `v` in
    /// the interval lands in a stop segment between `vmin`'s and
    /// `vmax`'s. If all stops touching those segments carry opacity
    /// `0.0`, the interpolation `0.0 + (0.0 - 0.0)·frac` (then scaled)
    /// is exactly `±0.0` for any `frac` — and a `±0.0`-opacity sample
    /// contributes nothing to front-to-back compositing.
    pub fn zero_opacity_over(&self, vmin: f64, vmax: f64) -> bool {
        if vmin.is_nan() || vmax.is_nan() || vmin > vmax {
            return false;
        }
        let n = self.stops.len();
        if n == 1 {
            return self.stops[0][3] == 0.0;
        }
        let t_of = |v: f64| {
            if self.hi > self.lo {
                ((v - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        let seg = |t: f64| ((t * (n - 1) as f64).floor() as usize).min(n - 2);
        let (s_lo, s_hi) = (seg(t_of(vmin)), seg(t_of(vmax)));
        self.stops[s_lo..=s_hi + 1].iter().all(|s| s[3] == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_clamps_out_of_range() {
        let tf = TransferFunction::heat(0.0, 1.0);
        assert_eq!(tf.classify(-5.0), tf.classify(0.0));
        assert_eq!(tf.classify(9.0), tf.classify(1.0));
    }

    #[test]
    fn classify_interpolates_between_stops() {
        let tf = TransferFunction::grey(0.0, 1.0);
        let mid = tf.classify(0.5);
        for c in mid {
            assert!((c - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn endpoints_hit_exact_stops() {
        let tf = TransferFunction::heat(2.0, 4.0);
        assert_eq!(tf.classify(2.0), tf.stops[0]);
        let last = tf.classify(4.0);
        for (l, s) in last.iter().zip(&tf.stops[3]) {
            assert!((l - s).abs() < 1e-6);
        }
    }

    #[test]
    fn sample_opacity_grows_with_path_length() {
        let tf = TransferFunction::heat(0.0, 1.0);
        let thin = tf.sample(0.8, 0.1);
        let thick = tf.sample(0.8, 2.0);
        assert!(thick[3] > thin[3]);
        assert!(thick[3] <= 1.0);
        assert!(thin[3] > 0.0);
    }

    #[test]
    fn zero_opacity_scalar_is_transparent() {
        let tf = TransferFunction::grey(0.0, 1.0);
        let s = tf.sample(0.0, 1.0);
        assert_eq!(s, [0.0; 4]);
    }

    #[test]
    fn degenerate_range_does_not_divide_by_zero() {
        let tf = TransferFunction::grey(1.0, 1.0);
        let c = tf.classify(1.0);
        assert!(c.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zero_opacity_interval_agrees_with_pointwise_classify() {
        // A map that is transparent over its lower half: stops 0 and 1
        // carry no opacity, stop 2 does.
        let tf = TransferFunction {
            lo: 0.0,
            hi: 1.0,
            stops: vec![
                [0.1, 0.2, 0.3, 0.0],
                [0.4, 0.5, 0.6, 0.0],
                [1.0, 1.0, 1.0, 0.8],
            ],
            opacity_scale: 1.0,
        };
        assert!(tf.zero_opacity_over(0.0, 0.49));
        assert!(tf.zero_opacity_over(-10.0, 0.3), "below-range clamps");
        assert!(!tf.zero_opacity_over(0.0, 0.75));
        assert!(!tf.zero_opacity_over(0.9, 2.0), "above-range clamps");
        assert!(!tf.zero_opacity_over(0.3, f64::NAN));
        // Spot-check the bit-level guarantee across a claimed-zero span.
        for i in 0..=1000 {
            let v = 0.49 * i as f64 / 1000.0;
            assert_eq!(tf.classify(v)[3], 0.0, "v={v}");
        }
    }

    #[test]
    fn zero_opacity_interval_is_conservative_near_breakpoints() {
        let tf = TransferFunction::heat(0.0, 1.0);
        // heat() has opacity everywhere, so nothing is skippable.
        assert!(!tf.zero_opacity_over(0.0, 0.0));
        assert!(!tf.zero_opacity_over(0.2, 0.2));
        // A fully transparent map is skippable over any interval.
        let clear = TransferFunction {
            opacity_scale: 3.0,
            stops: vec![[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
            ..TransferFunction::grey(0.0, 1.0)
        };
        assert!(clear.zero_opacity_over(-5.0, 5.0));
    }
}
