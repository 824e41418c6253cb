//! Vector-kernel dispatch coverage: scalar↔SIMD max-ULP equivalence over
//! random layer shapes and ragged batches (proptest), plus kernel detection
//! and naming.

use concorde_suite::ml::{
    active_kernel, detected_kernel, forced_scalar, kernel_name, ulp_distance, KernelKind,
};
use concorde_suite::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Scalar and FMA kernels sum each output in the same left-to-right order;
/// the only divergence is the fused multiply-add's single rounding per term.
/// Per layer that is ≤ `in_dim` half-ULP perturbations, and layers compound,
/// so the bound is dozens-not-millions; 256 holds with wide margin for the
/// shapes below (measured maxima are single digits).
/// ULP is the primary metric; the `1e-5` absolute escape hatch below only
/// covers catastrophic cancellation in the (relu-free) output layer, where a
/// near-zero sum makes ULP distance meaningless.
const MAX_ULP: u32 = 256;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The dispatched SIMD kernel agrees with the pinned scalar kernel to
    /// within `MAX_ULP` for random layer shapes, depths, batch sizes
    /// (including ragged, non-multiple-of-8 tails), and inputs. Trivially
    /// green on hosts without a vector unit (both runs take the scalar
    /// path).
    #[test]
    fn simd_matches_scalar_within_ulp_bound(
        seed in any::<u64>(),
        n in 1usize..21,
        din in 1usize..40,
        dh in 1usize..24,
        deep in 0usize..2,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let dims: Vec<usize> = if deep == 1 {
            vec![din, dh, dh.div_ceil(2), 1]
        } else {
            vec![din, dh, 1]
        };
        let mlp = Mlp::new(&dims, &mut rng);
        let xs: Vec<f32> = (0..n * din)
            .map(|i| ((i as f32) * 0.37 + (seed % 7) as f32).sin() * 4.0)
            .collect();
        let mut scratch = MlpScratch::default();
        let mut simd = vec![0.0f32; n];
        mlp.predict_batch_into(&xs, &mut simd, &mut scratch);
        let mut scalar = vec![0.0f32; n];
        {
            let _g = forced_scalar();
            prop_assert_eq!(active_kernel(), KernelKind::Scalar);
            mlp.predict_batch_into(&xs, &mut scalar, &mut scratch);
        }
        for (s, (a, b)) in simd.iter().zip(&scalar).enumerate() {
            let ulp = ulp_distance(*a, *b);
            prop_assert!(
                ulp <= MAX_ULP || (a - b).abs() <= 1e-5,
                "row {} of {} diverged: simd {} vs scalar {} ({} ULP)",
                s, n, a, b, ulp
            );
        }
    }
}

#[test]
fn kernel_name_matches_active_kernel() {
    assert_eq!(kernel_name(), active_kernel().name());
    let _g = forced_scalar();
    assert_eq!(kernel_name(), "scalar");
}

#[test]
fn detected_kernel_matches_arch_features() {
    // `detected_kernel` reports raw host capability, ignoring overrides.
    let k = detected_kernel();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        assert_eq!(k, KernelKind::Avx2Fma);
    }
    #[cfg(target_arch = "aarch64")]
    assert_eq!(k, KernelKind::Neon);
    // Dispatch follows detection — except on the CI scalar leg, where the
    // env override must pin every thread to the scalar kernel.
    let env_scalar =
        std::env::var("CONCORDE_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    if env_scalar {
        assert_eq!(active_kernel(), KernelKind::Scalar);
    } else {
        assert_eq!(active_kernel(), k);
    }
}
