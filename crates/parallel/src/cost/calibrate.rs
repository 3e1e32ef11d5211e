//! Measurement-driven calibration of the α–β–γ cost model.
//!
//! The presets in [`CostModel::for_machine`] are folklore constants; a
//! projection built on them inherits their error unquantified. This
//! module replaces them with a **least-squares fit** over real
//! measurements: every sample pairs exact communication counts (from
//! [`CommStats`](crate::stats::CommStats)) and a work count (site
//! updates, from the solver) with a measured wall time (obs span totals
//! or a timed step loop), and the fit finds the non-negative
//! coefficients of
//!
//! ```text
//! T ≈ α · msgs + bytes / β + work / γ
//! ```
//!
//! that minimise the squared residual. The result is a
//! [`CalibratedModel`]: the fitted [`CostModel`] *plus its own fit
//! quality* — per-sample residuals, R², sample count — so every
//! consumer of a projection can see how much to trust it, following the
//! measurement-driven HemeLB performance model of Groen et al.
//! (arXiv:1209.3972).
//!
//! Unit note: γ's work unit is whatever the samples' `work` column
//! counts. This repository calibrates it in **site updates**, not
//! flops, which retires the hand-guessed "~250 flops per site" constant
//! — the model predicts seconds from site counts directly.
//!
//! Step samples cannot separate α from β (a step's halo bytes grow with
//! its message count), so both callers, the adaptive load balancer and
//! E20, add the two samples of [`probe_link`] to their own.
//!
//! The fit is a pure function of its inputs (fixed-order float
//! arithmetic, no randomness), so identical samples produce a
//! bit-identical model on every rank — the property that lets SPMD
//! ranks calibrate independently from all-reduced measurements and
//! still reach collectively consistent decisions.

use super::CostModel;
use crate::{CommResult, Communicator, Tag, WireReader, WireWriter};
use hemelb_obs::Recorder;
use std::time::Instant;

/// One calibration observation: exact counts against a measured time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalSample {
    /// Messages sent/received during the measured interval.
    pub msgs: u64,
    /// Payload bytes moved during the measured interval.
    pub bytes: u64,
    /// Work units performed (site updates in this repository).
    pub work: u64,
    /// Measured wall seconds for the interval.
    pub secs: f64,
}

/// Why a fit could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalibrationError {
    /// Fewer usable samples than free coefficients.
    TooFewSamples {
        /// Samples provided after filtering.
        usable: usize,
        /// Minimum required.
        needed: usize,
    },
    /// Every sample had zero msgs, bytes and work — nothing to fit.
    DegenerateInputs,
}

impl std::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrationError::TooFewSamples { usable, needed } => {
                write!(
                    f,
                    "calibration needs ≥{needed} usable samples, got {usable}"
                )
            }
            CalibrationError::DegenerateInputs => {
                write!(f, "calibration samples carry no msgs, bytes or work")
            }
        }
    }
}

impl std::error::Error for CalibrationError {}

/// A fitted cost model that carries its own fit quality.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibratedModel {
    /// The fitted α–β–γ model. A term whose coefficient the
    /// non-negativity constraint forced to zero appears as `alpha == 0`
    /// (free messages) or an infinite `beta`/`gamma` (free bytes/work).
    pub model: CostModel,
    /// Per-sample `predicted − measured` seconds, in input order.
    pub residuals: Vec<f64>,
    /// Coefficient of determination of the fit (1 = perfect; can be
    /// negative when the model fits worse than the sample mean).
    pub r2: f64,
    /// Samples the fit consumed.
    pub samples: usize,
}

impl CalibratedModel {
    /// Record the model losslessly into an obs recorder under
    /// `{prefix}.` counter names, so a `BENCH_*.json` report carries
    /// its own calibration. Obs counters are `u64` rendered through
    /// `f64` JSON numbers, which is exact only below 2⁵³ — so every
    /// `f64` is split into two 32-bit halves of its IEEE-754 bit
    /// pattern (`*_hi`/`*_lo`), which round-trip exactly: a reader
    /// rebuilds each as `f64::from_bits(hi << 32 | lo)`.
    pub fn record_to(&self, rec: &mut Recorder, prefix: &str) {
        let mut put = |name: &str, v: f64| {
            let bits = v.to_bits();
            rec.count(&format!("{prefix}.{name}_hi"), bits >> 32);
            rec.count(&format!("{prefix}.{name}_lo"), bits & 0xFFFF_FFFF);
        };
        put("alpha", self.model.alpha);
        put("beta", self.model.beta);
        put("gamma", self.model.gamma);
        put("r2", self.r2);
        for (i, &r) in self.residuals.iter().enumerate() {
            put(&format!("resid{i:04}"), r);
        }
        rec.count(&format!("{prefix}.residuals"), self.residuals.len() as u64);
        rec.count(&format!("{prefix}.samples"), self.samples as u64);
    }
}

/// Tag of the link probe: Migration class, since a migration is what
/// the probed coefficients price.
const T_PROBE: Tag = Tag::migration(1);

/// `f64`s in the small and the large probe message. The large one is
/// big enough (512 KiB) that its per-byte cost stands clear of the
/// per-message cost on any box; two sizes are what make α and β
/// separable at all.
const PROBE_F64S: [usize; 2] = [1, 1 << 16];

/// Rounds per probe size; the fastest is kept, because interference on
/// a shared box only ever adds time.
const PROBE_ROUNDS: usize = 5;

/// Bytes on the wire of a probe message of `n` values (length prefix
/// plus payload).
fn probe_bytes(n: usize) -> usize {
    8 + 8 * n
}

/// Fastest time, in seconds, for one `n`-value message to go through
/// encode → send → receive → decode round the rank ring. **Collective.**
fn probe_secs(comm: &Communicator, n: usize) -> CommResult<f64> {
    let data = vec![1.0f64; n];
    let next = (comm.rank() + 1) % comm.size();
    let prev = (comm.rank() + comm.size() - 1) % comm.size();
    let mut best = f64::INFINITY;
    for _ in 0..PROBE_ROUNDS {
        let t0 = Instant::now();
        let mut w = WireWriter::with_capacity(probe_bytes(n));
        w.put_f64_slice(&data);
        let payload = w.finish();
        debug_assert_eq!(payload.len(), probe_bytes(n));
        comm.send(next, T_PROBE, payload)?;
        std::hint::black_box(WireReader::new(comm.recv(prev, T_PROBE)?).get_f64_vec()?);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Ok(best)
}

/// This rank's `probe_secs` at the small and the large size, each as
/// a sample of one message, its payload bytes and no work: two
/// equations that price bytes apart from messages. Callers fit each
/// size's slowest rank, since an exchange ends when its last message
/// lands. **Collective.**
pub fn probe_link(comm: &Communicator) -> CommResult<[CalSample; 2]> {
    let sample = |n| -> CommResult<CalSample> {
        Ok(CalSample {
            msgs: 1,
            bytes: probe_bytes(n) as u64,
            work: 0,
            secs: probe_secs(comm, n)?,
        })
    };
    Ok([sample(PROBE_F64S[0])?, sample(PROBE_F64S[1])?])
}

/// Fit α, β, γ to `samples` by non-negative least squares.
///
/// The linear form is `secs ≈ a·msgs + b·bytes + c·work` with
/// `a = α`, `b = 1/β`, `c = 1/γ` and `a, b, c ≥ 0` (a negative rate has
/// no physical reading). The solver enumerates the active sets of the
/// three coefficients — solve the normal equations over each subset of
/// columns, keep the feasible (all-non-negative) solution with the
/// smallest squared residual — which is exact for three features and
/// entirely deterministic. Columns that are zero in every sample are
/// excluded up front (their coefficient is unidentifiable) and come
/// back as a zero coefficient.
///
/// # Errors
/// [`CalibrationError::TooFewSamples`] when fewer finite-time samples
/// than identifiable coefficients remain;
/// [`CalibrationError::DegenerateInputs`] when no column carries any
/// signal.
pub fn fit(samples: &[CalSample]) -> Result<CalibratedModel, CalibrationError> {
    let usable: Vec<&CalSample> = samples
        .iter()
        .filter(|s| s.secs.is_finite() && s.secs >= 0.0)
        .collect();
    // Which of the three columns carry any signal?
    let active_cols: Vec<usize> = (0..3)
        .filter(|&c| usable.iter().any(|s| col(s, c) > 0.0))
        .collect();
    if active_cols.is_empty() {
        return Err(CalibrationError::DegenerateInputs);
    }
    if usable.len() < active_cols.len() {
        return Err(CalibrationError::TooFewSamples {
            usable: usable.len(),
            needed: active_cols.len(),
        });
    }

    // Enumerate non-empty subsets of the identifiable columns; keep the
    // feasible solution with the least squared error. Subset order is
    // fixed, so ties resolve deterministically.
    let mut best: Option<(f64, [f64; 3])> = None;
    for mask in 1u32..8 {
        let cols: Vec<usize> = (0..3).filter(|&c| mask & (1 << c) != 0).collect();
        if !cols.iter().all(|c| active_cols.contains(c)) {
            continue;
        }
        let Some(coef) = solve_normal_equations(&usable, &cols) else {
            continue;
        };
        if coef.iter().any(|&v| v < 0.0 || !v.is_finite()) {
            continue;
        }
        let mut full = [0.0f64; 3];
        for (i, &c) in cols.iter().enumerate() {
            full[c] = coef[i];
        }
        let sse: f64 = usable
            .iter()
            .map(|s| {
                let p =
                    full[0] * s.msgs as f64 + full[1] * s.bytes as f64 + full[2] * s.work as f64;
                let d = p - s.secs;
                d * d
            })
            .sum();
        if best.as_ref().is_none_or(|(b, _)| sse < *b) {
            best = Some((sse, full));
        }
    }
    let (sse, [a, b, c]) = best.ok_or(CalibrationError::DegenerateInputs)?;

    let model = CostModel {
        alpha: a,
        beta: if b > 0.0 { 1.0 / b } else { f64::INFINITY },
        gamma: if c > 0.0 { 1.0 / c } else { f64::INFINITY },
    };
    let residuals: Vec<f64> = usable
        .iter()
        .map(|s| model.time(s.msgs, s.bytes, s.work) - s.secs)
        .collect();
    let mean = usable.iter().map(|s| s.secs).sum::<f64>() / usable.len() as f64;
    let ss_tot: f64 = usable
        .iter()
        .map(|s| {
            let d = s.secs - mean;
            d * d
        })
        .sum();
    let r2 = if ss_tot > 0.0 {
        1.0 - sse / ss_tot
    } else if sse == 0.0 {
        1.0
    } else {
        0.0
    };
    Ok(CalibratedModel {
        model,
        residuals,
        r2,
        samples: usable.len(),
    })
}

#[inline]
fn col(s: &CalSample, c: usize) -> f64 {
    match c {
        0 => s.msgs as f64,
        1 => s.bytes as f64,
        _ => s.work as f64,
    }
}

/// Ordinary least squares over the chosen columns via the normal
/// equations, solved by Gaussian elimination with partial pivoting.
/// Returns `None` when the system is singular (collinear columns).
fn solve_normal_equations(samples: &[&CalSample], cols: &[usize]) -> Option<Vec<f64>> {
    let n = cols.len();
    let mut ata = vec![vec![0.0f64; n]; n];
    let mut aty = vec![0.0f64; n];
    for s in samples {
        for (i, &ci) in cols.iter().enumerate() {
            let xi = col(s, ci);
            aty[i] += xi * s.secs;
            for (j, &cj) in cols.iter().enumerate() {
                ata[i][j] += xi * col(s, cj);
            }
        }
    }
    // Gaussian elimination.
    for k in 0..n {
        let (pivot_row, pivot) =
            (k..n)
                .map(|r| (r, ata[r][k].abs()))
                .fold(
                    (k, -1.0),
                    |best, cur| if cur.1 > best.1 { cur } else { best },
                );
        if pivot <= 1e-300 {
            return None;
        }
        ata.swap(k, pivot_row);
        aty.swap(k, pivot_row);
        for r in k + 1..n {
            let f = ata[r][k] / ata[k][k];
            let (top, bottom) = ata.split_at_mut(r);
            let pivot_row = &top[k];
            for (cell, p) in bottom[0][k..n].iter_mut().zip(&pivot_row[k..n]) {
                *cell -= f * p;
            }
            aty[r] -= f * aty[k];
        }
    }
    let mut x = vec![0.0f64; n];
    for k in (0..n).rev() {
        let mut v = aty[k];
        for c in k + 1..n {
            v -= ata[k][c] * x[c];
        }
        x[k] = v / ata[k][k];
        if !x[k].is_finite() {
            return None;
        }
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hemelb_obs::Json;

    fn synth(alpha: f64, beta: f64, gamma: f64) -> Vec<CalSample> {
        // A grid of workloads measured under an exact linear model.
        let mut out = Vec::new();
        for m in [0u64, 10, 100, 1000] {
            for b in [0u64, 1 << 10, 1 << 16, 1 << 20] {
                for w in [0u64, 500, 5_000, 50_000] {
                    let secs = alpha * m as f64 + b as f64 / beta + w as f64 / gamma;
                    out.push(CalSample {
                        msgs: m,
                        bytes: b,
                        work: w,
                        secs,
                    });
                }
            }
        }
        out
    }

    #[test]
    fn recovers_an_exact_linear_model() {
        let cal = fit(&synth(2e-6, 4e9, 8e8)).unwrap();
        assert!((cal.model.alpha - 2e-6).abs() / 2e-6 < 1e-9, "{cal:?}");
        assert!((cal.model.beta - 4e9).abs() / 4e9 < 1e-9);
        assert!((cal.model.gamma - 8e8).abs() / 8e8 < 1e-9);
        assert!(cal.r2 > 0.999_999);
        assert!(cal.residuals.iter().all(|r| r.abs() < 1e-12));
    }

    #[test]
    fn tolerates_measurement_noise() {
        let mut samples = synth(1e-6, 1e9, 1e8);
        // Deterministic ±5% "noise".
        for (i, s) in samples.iter_mut().enumerate() {
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            s.secs *= 1.0 + sign * 0.05;
        }
        let cal = fit(&samples).unwrap();
        assert!(cal.model.beta.is_finite() && cal.model.gamma.is_finite());
        assert!(cal.r2 > 0.9, "r2={}", cal.r2);
        assert!((cal.model.alpha - 1e-6).abs() / 1e-6 < 0.2);
    }

    #[test]
    fn non_negativity_zeroes_hostile_columns() {
        // Time *decreases* with messages here; the unconstrained fit
        // would want α < 0, the constrained one must clamp it away.
        let samples: Vec<CalSample> = (1..20)
            .map(|i| CalSample {
                msgs: i,
                bytes: 0,
                work: 1000 * (20 - i),
                secs: (20 - i) as f64 * 1e-3,
            })
            .collect();
        let cal = fit(&samples).unwrap();
        assert!(cal.model.alpha >= 0.0);
        assert!(cal.model.gamma > 0.0 && cal.model.gamma.is_finite());
    }

    #[test]
    fn unexercised_terms_come_back_free() {
        // Pure compute samples: no message or byte signal at all.
        let samples: Vec<CalSample> = (1..10)
            .map(|i| CalSample {
                msgs: 0,
                bytes: 0,
                work: i * 1000,
                secs: i as f64 * 1e-4,
            })
            .collect();
        let cal = fit(&samples).unwrap();
        assert_eq!(cal.model.alpha, 0.0);
        assert_eq!(cal.model.beta, f64::INFINITY);
        assert!((cal.model.gamma - 1e7).abs() / 1e7 < 1e-9);
        // The free terms predict zero cost.
        assert_eq!(cal.model.time(1000, 1 << 30, 0), 0.0);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert_eq!(fit(&[]), Err(CalibrationError::DegenerateInputs));
        let zeros = vec![
            CalSample {
                msgs: 0,
                bytes: 0,
                work: 0,
                secs: 1.0
            };
            5
        ];
        assert_eq!(fit(&zeros), Err(CalibrationError::DegenerateInputs));
        let one = [CalSample {
            msgs: 1,
            bytes: 1,
            work: 1,
            secs: f64::NAN,
        }];
        assert!(matches!(fit(&one), Err(CalibrationError::DegenerateInputs)));
    }

    #[test]
    fn fit_is_deterministic() {
        let samples = synth(1.5e-6, 5e9, 1e10);
        let a = fit(&samples).unwrap();
        let b = fit(&samples).unwrap();
        assert_eq!(a.model.alpha.to_bits(), b.model.alpha.to_bits());
        assert_eq!(a.model.beta.to_bits(), b.model.beta.to_bits());
        assert_eq!(a.model.gamma.to_bits(), b.model.gamma.to_bits());
        assert_eq!(a.r2.to_bits(), b.r2.to_bits());
        assert_eq!(a.residuals.len(), b.residuals.len());
    }

    #[test]
    fn obs_round_trip_is_bit_exact() {
        let cal = fit(&synth(1.5e-6, 5e9, 1e10)).unwrap();
        let mut rec = Recorder::new();
        cal.record_to(&mut rec, "proj.model");
        let report = rec.report();
        let tree = Json::parse(&report.to_json()).unwrap();
        let counters = tree.get("counters").and_then(Json::as_obj).unwrap();
        assert_eq!(counters.len(), report.counters.len());
        for (name, n) in counters {
            assert_eq!(n.as_u64(), Some(report.counters[name]), "{name}");
        }
        // Rebuild every `*_hi`/`*_lo` pair from the parsed tree.
        let count = |name: &str| {
            let key = format!("proj.model.{name}");
            tree.get("counters")
                .and_then(|c| c.get(&key))
                .and_then(Json::as_u64)
        };
        let bits = |name: &str| {
            (count(&format!("{name}_hi")).unwrap() << 32) | count(&format!("{name}_lo")).unwrap()
        };
        assert_eq!(bits("alpha"), cal.model.alpha.to_bits());
        assert_eq!(bits("beta"), cal.model.beta.to_bits());
        assert_eq!(bits("gamma"), cal.model.gamma.to_bits());
        assert_eq!(bits("r2"), cal.r2.to_bits());
        assert_eq!(count("samples"), Some(cal.samples as u64));
        assert_eq!(count("residuals"), Some(cal.residuals.len() as u64));
        for (i, r) in cal.residuals.iter().enumerate() {
            assert_eq!(bits(&format!("resid{i:04}")), r.to_bits());
        }
    }

    #[test]
    fn probe_samples_make_beta_identifiable() {
        // Step samples whose bytes track their message count, as a
        // halo exchange's do: α and 1/β share one column direction, so
        // the fit must leave β free rather than invent it.
        let (alpha, beta, gamma) = (3e-5, 1.2e9, 2e7);
        let secs = |m: u64, b: u64, w: u64| alpha * m as f64 + b as f64 / beta + w as f64 / gamma;
        let mut samples: Vec<CalSample> = [(4u64, 1_000u64), (6, 3_000), (9, 2_000), (12, 5_000)]
            .into_iter()
            .map(|(msgs, work)| {
                let bytes = 4_096 * msgs;
                CalSample {
                    msgs,
                    bytes,
                    work,
                    secs: secs(msgs, bytes, work),
                }
            })
            .collect();
        assert_eq!(fit(&samples).unwrap().model.beta, f64::INFINITY);
        // The link probe's two sizes: one message each, no work.
        for n in PROBE_F64S {
            let bytes = probe_bytes(n) as u64;
            samples.push(CalSample {
                msgs: 1,
                bytes,
                work: 0,
                secs: secs(1, bytes, 0),
            });
        }
        let m = fit(&samples).unwrap().model;
        let rel = |got: f64, want: f64| (got - want).abs() / want;
        assert!(rel(m.alpha, alpha) < 1e-9, "{m:?}");
        assert!(rel(m.beta, beta) < 1e-9, "{m:?}");
        assert!(rel(m.gamma, gamma) < 1e-9, "{m:?}");
    }
}
