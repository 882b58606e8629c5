//! Seeded Gaussian inputs. Every input derives from the `--seed` argument
//! through the workspace's seeded `StdRng`, so a seed always yields the
//! same inputs.

use rand::Rng;

/// `len` Gaussian values with standard deviation `sigma` (Box–Muller).
pub fn gaussian_vec(rng: &mut impl Rng, len: usize, sigma: f64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
            let v: f64 = rng.gen_range(0.0..1.0);
            ((-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos() * sigma) as f32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let v = gaussian_vec(&mut StdRng::seed_from_u64(1), 100_000, 2.0);
        let mean = v.iter().map(|&x| x as f64).sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.05, "sd {}", var.sqrt());
    }
}
