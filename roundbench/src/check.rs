//! The benchmark's own reference FedAvg, against which every round's
//! global model is checked.

/// How close the runtime's global must be to the reference.
#[derive(Debug, Clone, Copy)]
pub enum Tolerance {
    /// Lossless codec: within 1e-6 of the largest input magnitude at each
    /// element. Each aggregation level rounds its weighted mean to f32
    /// once (relative error 2^-24 ≈ 6e-8), far inside that bound.
    Exact,
    /// Int8 codec over a hierarchy with `levels` aggregators. A trainer's
    /// shipped vector differs from its model by at most one quantization
    /// step (half a step of this round's rounding plus half a step of the
    /// error-feedback residual it carried in), and every aggregate that is
    /// re-encoded on its way up adds half a step. No path re-encodes more
    /// often than there are aggregators.
    Int8 { levels: usize },
}

/// Spread (max − min) over every element of every input.
pub fn range(inputs: &[&[f32]]) -> f64 {
    let (lo, hi) = inputs
        .iter()
        .flat_map(|v| v.iter())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(f64::from(x)), hi.max(f64::from(x)))
        });
    if hi >= lo {
        hi - lo
    } else {
        0.0
    }
}

/// Sample-weighted mean of the inputs, in f64.
pub fn fedavg(inputs: &[&[f32]], weights: &[u64]) -> Vec<f64> {
    let total: u64 = weights.iter().sum();
    let mut acc = vec![0.0f64; inputs.first().map_or(0, |v| v.len())];
    for (v, &w) in inputs.iter().zip(weights) {
        for (a, &x) in acc.iter_mut().zip(v.iter()) {
            *a += f64::from(x) * w as f64;
        }
    }
    for a in &mut acc {
        *a /= total as f64;
    }
    acc
}

/// Checks `global` against the reference FedAvg of `inputs`.
/// `max_range` is the largest input [`range`] seen in this session so far,
/// which bounds every int8 quantization step (residuals carried in from
/// earlier rounds included).
pub fn check_global(
    inputs: &[&[f32]],
    weights: &[u64],
    global: &[f32],
    tol: Tolerance,
    max_range: f64,
) -> Result<(), String> {
    let len = inputs.first().map_or(0, |v| v.len());
    if inputs.iter().any(|v| v.len() != len) || global.len() != len {
        return Err(format!(
            "global has {} elements, inputs {len}",
            global.len()
        ));
    }
    let reference = fedavg(inputs, weights);
    let quant = match tol {
        Tolerance::Exact => 0.0,
        // 1% slack: a residual can widen a vector's range by part of a step.
        Tolerance::Int8 { levels } => (1.0 + levels as f64 / 2.0) * max_range / 255.0 * 1.01,
    };
    for (i, (&g, &r)) in global.iter().zip(&reference).enumerate() {
        let magnitude = inputs
            .iter()
            .map(|v| f64::from(v[i]).abs())
            .fold(0.0, f64::max);
        let bound = quant + 1e-6 * magnitude;
        let err = (f64::from(g) - r).abs();
        // A NaN error fails too.
        if err.is_nan() || err > bound {
            return Err(format!(
                "element {i}: global {g} vs reference {r} (error {err:.3e} > bound {bound:.3e})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::gaussian_vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sdflmq_nn::codec::UpdateCodec;

    fn inputs(seed: u64, n: usize, len: usize) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| gaussian_vec(&mut rng, len, 0.05)).collect()
    }

    fn refs(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn exact_mean_passes_and_any_slip_fails() {
        let v = inputs(3, 8, 1000);
        let w: Vec<u64> = (0..8).map(|i| 400 + 50 * i).collect();
        let mean: Vec<f32> = fedavg(&refs(&v), &w).iter().map(|&x| x as f32).collect();
        check_global(&refs(&v), &w, &mean, Tolerance::Exact, 0.0).unwrap();

        // A global that ignored the sample weights is caught.
        let unweighted: Vec<f32> = fedavg(&refs(&v), &[1; 8])
            .iter()
            .map(|&x| x as f32)
            .collect();
        assert!(check_global(&refs(&v), &w, &unweighted, Tolerance::Exact, 0.0).is_err());

        let mut slipped = mean.clone();
        slipped[17] += 1e-4;
        assert!(check_global(&refs(&v), &w, &slipped, Tolerance::Exact, 0.0).is_err());

        // A global that left one client out is caught.
        let partial: Vec<f32> = fedavg(&refs(&v[..7]), &w[..7])
            .iter()
            .map(|&x| x as f32)
            .collect();
        assert!(check_global(&refs(&v), &w, &partial, Tolerance::Exact, 0.0).is_err());

        assert!(check_global(&refs(&v), &w, &mean[..999], Tolerance::Exact, 0.0).is_err());
        assert!(check_global(&refs(&v), &w, &[f32::NAN; 1000], Tolerance::Exact, 0.0).is_err());
    }

    #[test]
    fn weights_matter() {
        let v = vec![vec![0.0f32; 4], vec![1.0f32; 4]];
        assert_eq!(fedavg(&refs(&v), &[1, 3]), vec![0.75; 4]);
        assert_eq!(range(&refs(&v)), 1.0);
    }

    /// Two-level int8 hierarchy with error feedback, run through the real
    /// codec: trainers quantize with a carried residual, the aggregate is
    /// re-encoded once more on its way up.
    #[test]
    fn int8_hierarchy_within_quantization_bound() {
        let rounds: Vec<Vec<Vec<f32>>> = (0..3).map(|r| inputs(r, 4, 5000)).collect();
        let mut residuals = vec![Vec::new(); 4];
        let mut max_range = 0.0f64;
        for v in &rounds {
            let w = vec![1u64; 4];
            // Client 0 aggregates its own raw vector; 1..4 ship int8.
            let mut shipped: Vec<Vec<f32>> = vec![v[0].clone()];
            for (k, x) in v.iter().enumerate().skip(1) {
                let enc = UpdateCodec::Int8.encode(x, None, &mut residuals[k]);
                shipped.push(UpdateCodec::Int8.decode(&enc, None).unwrap());
            }
            let agg: Vec<f32> = fedavg(&refs(&shipped), &w)
                .iter()
                .map(|&x| x as f32)
                .collect();
            let global = UpdateCodec::Int8
                .decode(&UpdateCodec::Int8.encode_stateless(&agg, None), None)
                .unwrap();
            max_range = max_range.max(range(&refs(v)));
            check_global(
                &refs(v),
                &w,
                &global,
                Tolerance::Int8 { levels: 1 },
                max_range,
            )
            .unwrap();
            // The lossless bound is far too tight for int8.
            assert!(check_global(&refs(v), &w, &global, Tolerance::Exact, 0.0).is_err());
        }
        // A dropped client still exceeds the int8 bound.
        let v = &rounds[2];
        let partial: Vec<f32> = fedavg(&refs(&v[..3]), &[1; 3])
            .iter()
            .map(|&x| x as f32)
            .collect();
        assert!(check_global(
            &refs(v),
            &[1; 4],
            &partial,
            Tolerance::Int8 { levels: 1 },
            max_range
        )
        .is_err());
    }
}
