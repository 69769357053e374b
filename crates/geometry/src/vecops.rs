//! Small dense-vector helpers shared by every geometry module.
//!
//! These operate on plain `&[f64]` slices so that embedding matrices can be
//! stored flat (row-major) and individual rows passed in without copying.
//! All functions are `#[inline]`-small; the hot loops of the training code
//! compile down to straight-line vector code.
//!
//! # Lockstep forms
//!
//! A row reduction is one chain of dependent adds, so a loop that reduces
//! row after row waits on the add latency at every step. The `*_lanes`
//! forms reduce `N` independent rows in lockstep — element `j` of every
//! lane, then element `j + 1` — so the `N` chains overlap, while each
//! lane keeps exactly the order and the start value of the scalar form.
//! `N = 1` *is* the scalar form: [`dot`], [`sqdist`] and [`clip_norm`]
//! call it.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    dot_lanes([a], [b])[0]
}

/// [`dot`] of `N` pairs in lockstep. Each lane sums `a[j]·b[j]` in `j`
/// order from **−0.0**, as `Iterator::sum::<f64>` does: a sum of no
/// products, or of `−0.0` ones only, is `−0.0`. Pairs of unequal length
/// are read to the shorter, as `zip` would.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline(always)]
pub fn dot_lanes<const N: usize>(a: [&[f64]; N], b: [&[f64]; N]) -> [f64; N] {
    for l in 0..N {
        debug_assert_eq!(a[l].len(), b[l].len());
    }
    let len = a.iter().chain(&b).map(|s| s.len()).min().unwrap_or(0);
    let (a, b) = (a.map(|s| &s[..len]), b.map(|s| &s[..len]));
    let mut acc = [-0.0; N];
    for j in 0..len {
        for l in 0..N {
            acc[l] += a[l][j] * b[l][j];
        }
    }
    acc
}

/// Squared Euclidean norm `‖a‖²`.
#[inline]
pub fn sqnorm(a: &[f64]) -> f64 {
    dot(a, a)
}

/// Euclidean norm `‖a‖`.
#[inline]
pub fn norm(a: &[f64]) -> f64 {
    sqnorm(a).sqrt()
}

/// Squared Euclidean distance `‖a − b‖²`.
#[inline]
pub fn sqdist(a: &[f64], b: &[f64]) -> f64 {
    sqdist_lanes([a], [b])[0]
}

/// [`sqdist`] of `N` pairs in lockstep. Each lane sums
/// `(a[j]−b[j])·(a[j]−b[j])` in `j` order from **−0.0**, as
/// `Iterator::sum::<f64>` does. Pairs of unequal length are read to the
/// shorter, as `zip` would.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline(always)]
pub fn sqdist_lanes<const N: usize>(a: [&[f64]; N], b: [&[f64]; N]) -> [f64; N] {
    for l in 0..N {
        debug_assert_eq!(a[l].len(), b[l].len());
    }
    let len = a.iter().chain(&b).map(|s| s.len()).min().unwrap_or(0);
    let (a, b) = (a.map(|s| &s[..len]), b.map(|s| &s[..len]));
    let mut acc = [-0.0; N];
    for j in 0..len {
        for l in 0..N {
            let d = a[l][j] - b[l][j];
            acc[l] += d * d;
        }
    }
    acc
}

/// Writes `a + b` into `out`.
#[inline]
pub fn add(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// Writes `a − b` into `out`.
#[inline]
pub fn sub(a: &[f64], b: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// Writes `c·a` into `out`.
#[inline]
pub fn scale(a: &[f64], c: f64, out: &mut [f64]) {
    debug_assert_eq!(a.len(), out.len());
    for (o, x) in out.iter_mut().zip(a) {
        *o = c * x;
    }
}

/// In-place `a += c·b` (axpy).
#[inline]
pub fn axpy(a: &mut [f64], c: f64, b: &[f64]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b) {
        *x += c * y;
    }
}

/// In-place scaling `a *= c`.
#[inline]
pub fn scale_in_place(a: &mut [f64], c: f64) {
    for x in a {
        *x *= c;
    }
}

/// Clips `a` in place so that `‖a‖ ≤ max_norm`, preserving direction.
///
/// Returns `true` if clipping was applied. Used to keep Poincaré-ball and
/// Klein points strictly inside the unit ball.
#[inline]
pub fn clip_norm(a: &mut [f64], max_norm: f64) -> bool {
    clip_norm_lanes(&mut [a], max_norm)[0]
}

/// [`clip_norm`] of `N` vectors, their norms reduced in lockstep.
#[inline(always)]
pub fn clip_norm_lanes<const N: usize>(a: &mut [&mut [f64]; N], max_norm: f64) -> [bool; N] {
    let sq = dot_lanes::<N>(
        std::array::from_fn(|l| &*a[l]),
        std::array::from_fn(|l| &*a[l]),
    );
    let mut clipped = [false; N];
    for l in 0..N {
        let n = sq[l].sqrt();
        if n > max_norm {
            scale_in_place(a[l], max_norm / n);
            clipped[l] = true;
        }
    }
    clipped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(sqnorm(&a), 25.0);
        assert_eq!(norm(&a), 5.0);
        assert_eq!(sqdist(&a, &[0.0, 0.0]), 25.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = [1.0, 2.0];
        let b = [10.0, 20.0];
        let mut out = [0.0; 2];
        add(&a, &b, &mut out);
        assert_eq!(out, [11.0, 22.0]);
        sub(&b, &a, &mut out);
        assert_eq!(out, [9.0, 18.0]);
        scale(&a, 2.0, &mut out);
        assert_eq!(out, [2.0, 4.0]);
        let mut c = [1.0, 1.0];
        axpy(&mut c, 3.0, &a);
        assert_eq!(c, [4.0, 7.0]);
    }

    #[test]
    fn clip_norm_only_when_needed() {
        let mut a = [0.3, 0.4]; // norm 0.5
        assert!(!clip_norm(&mut a, 1.0));
        assert_eq!(a, [0.3, 0.4]);
        let mut b = [3.0, 4.0]; // norm 5
        assert!(clip_norm(&mut b, 1.0));
        assert!((norm(&b) - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((b[0] / b[1] - 0.75).abs() < 1e-12);
    }
}
