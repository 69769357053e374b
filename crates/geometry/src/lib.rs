//! Hyperbolic geometry kernels for TaxoRec.
//!
//! This crate implements the three models of hyperbolic space used by the
//! paper *"Enhancing Recommendation with Automated Tag Taxonomy Construction
//! in Hyperbolic Space"* (ICDE 2022), all at constant curvature −1:
//!
//! * the **Poincaré ball** [`poincare`] — used for taxonomy construction
//!   and its regularization (paper §IV-C, Eqs. 8, 21–22),
//! * the **Lorentz / hyperboloid model** [`lorentz`] — used for metric
//!   learning and Riemannian optimization (paper §IV-D/E, Eqs. 12, 15, 17,
//!   23),
//! * the **Klein model** [`klein`] — used transiently for the Einstein
//!   midpoint aggregation of tag embeddings (paper Eqs. 1, 9–10).
//!
//! [`convert`] holds the diffeomorphisms between the models (paper Eqs. 2,
//! 3, 9, 11) and [`vecops`] the small dense-vector helpers everything else
//! is built on.
//!
//! # Numerical-safety policy
//!
//! Hyperbolic arithmetic is notoriously unstable near the boundary of the
//! ball and for nearly-coincident points. This crate applies, everywhere:
//!
//! * ball/Klein points are clipped to norm ≤ [`MAX_BALL_NORM`],
//! * `arcosh` arguments are clamped to ≥ 1 ([`arcosh`]),
//! * hyperboloid points are re-projected via
//!   [`lorentz::project_to_hyperboloid`],
//! * `sinh(r)/r`-style factors use series expansions below [`EPS_SMALL`].
//!
//! All functions operate on `&[f64]` slices so callers can store embeddings
//! in flat matrices without copies.

pub mod batch;
pub mod convert;
pub mod isa;
pub mod klein;
pub mod lorentz;
pub mod poincare;
pub mod vecops;

/// Maximum Euclidean norm allowed for a point of the Poincaré ball or the
/// Klein disk. Points are clipped to this radius to keep distances and
/// Lorentz factors finite.
pub const MAX_BALL_NORM: f64 = 1.0 - 1e-5;

/// Threshold below which `sinh(r)/r`-style expressions switch to their
/// Taylor expansion.
pub const EPS_SMALL: f64 = 1e-7;

/// Generic tiny constant guarding divisions by near-zero norms.
pub const EPS_DIV: f64 = 1e-12;

/// Inverse hyperbolic cosine with the argument clamped to the domain
/// `[1, ∞)`.
///
/// Floating-point noise routinely produces arguments like `1 − 1e−16` for
/// coincident points; clamping makes the distance exactly zero instead of
/// NaN.
#[inline]
pub fn arcosh(x: f64) -> f64 {
    x.max(1.0).acosh()
}

/// Derivative of [`arcosh`] at `x`, i.e. `1/sqrt(x² − 1)`, guarded so that
/// it stays finite as `x → 1⁺`.
///
/// The guard corresponds to clamping the derivative at the scale where the
/// forward value itself has been clamped; gradient-based callers rely on
/// this to avoid exploding steps for near-coincident points.
#[inline]
pub fn arcosh_grad(x: f64) -> f64 {
    let x = x.max(1.0);
    1.0 / (x * x - 1.0).sqrt().max(EPS_SMALL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arcosh_clamps_below_domain() {
        assert_eq!(arcosh(0.5), 0.0);
        assert_eq!(arcosh(1.0), 0.0);
        assert!(arcosh(2.0) > 0.0);
    }

    #[test]
    fn arcosh_matches_std_in_domain() {
        for &x in &[1.0, 1.5, 2.0, 10.0, 1e6] {
            assert!((arcosh(x) - x.acosh()).abs() < 1e-12);
        }
    }

    #[test]
    fn arcosh_grad_is_finite_at_one() {
        assert!(arcosh_grad(1.0).is_finite());
        assert!(arcosh_grad(0.999).is_finite());
        let g = arcosh_grad(2.0);
        assert!((g - 1.0 / 3.0f64.sqrt()).abs() < 1e-12);
    }
}
