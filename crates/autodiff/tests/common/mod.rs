//! Random inputs shared by the autodiff integration tests.

use rand::rngs::StdRng;
use rand::RngExt;
use taxorec_autodiff::Matrix;

pub fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize, scale: f64) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| (rng.random::<f64>() - 0.5) * 2.0 * scale)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A random ball matrix: every row has norm < `max_norm`.
pub fn rand_ball_matrix(rng: &mut StdRng, rows: usize, cols: usize, max_norm: f64) -> Matrix {
    let mut m = rand_matrix(rng, rows, cols, 1.0);
    for r in 0..rows {
        let row = m.row_mut(r);
        let n = taxorec_geometry::vecops::norm(row);
        let target = rng.random::<f64>() * max_norm;
        if n > 1e-9 {
            for v in row.iter_mut() {
                *v *= target / n;
            }
        }
    }
    m
}

/// A random hyperboloid matrix (rows satisfy the Lorentz constraint).
pub fn rand_hyperboloid_matrix(rng: &mut StdRng, rows: usize, d: usize) -> Matrix {
    let mut m = Matrix::zeros(rows, d + 1);
    for r in 0..rows {
        // Keep spatial parts away from zero so log_o stays differentiable.
        let spatial: Vec<f64> = (0..d)
            .map(|_| {
                let v: f64 = (rng.random::<f64>() - 0.5) * 2.0;
                v + 0.3 * v.signum()
            })
            .collect();
        let p = taxorec_geometry::lorentz::from_spatial(&spatial);
        m.row_mut(r).copy_from_slice(&p);
    }
    m
}
