//! Pins the zero-allocation contract of the `*_with_scratch` / `*_into`
//! sweeps with a counting global allocator.
//!
//! After one warm-up sweep has grown the caller-owned buffers, repeated
//! `log_z_with_scratch` / `moments_with_scratch` / `log_z_gradients_into` /
//! `log_z_gradients_factored_into` calls must perform **zero** heap
//! allocations — that is the whole point of the scratch-taking variants, and
//! the property the CPE hot loops (one sweep per mask group per epoch) rely
//! on.
//!
//! The counter is **per-thread** (a `const`-initialised thread-local, so the
//! counting itself never allocates): the libtest harness thread allocates
//! concurrently with the test body at unpredictable points, and a
//! process-global count would flake on that background noise.

// The one sanctioned `unsafe` in the workspace: implementing `GlobalAlloc`
// requires it. The workspace-level `unsafe_code = "deny"` is overridden here
// only; library crate roots all `#![forbid(unsafe_code)]`.
#![allow(unsafe_code)]

use c4u_stats::{
    BinomialNormalBatch, GaussLegendre, LogZGradient, QuadratureMath, QuadratureScratch,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Reads this thread's allocation count.
fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Passes everything through to the system allocator, counting `alloc` calls
/// on the calling thread.
struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the counter side effect does not
// touch the returned memory. `try_with` guards the TLS access so allocations
// during thread teardown (when the slot is gone) still succeed, just
// uncounted.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn scratch_sweeps_do_not_allocate() {
    for math in [QuadratureMath::Exact, QuadratureMath::FastVector] {
        let quadrature = GaussLegendre::new(32);
        let batch = BinomialNormalBatch::new_with_math(&quadrature, math);
        let mu = [0.55, 0.7, 0.3, 0.99, 0.01, 0.5];
        let c = [7.0, 0.0, 2.0, 1000.0, 0.0, 3.0];
        let x = [3.0, 0.0, 8.0, 0.0, 1000.0, 3.0];
        let obs: Vec<(f64, f64, f64)> = mu
            .iter()
            .zip(&c)
            .zip(&x)
            .map(|((&m, &c), &x)| (m, c, x))
            .collect();
        let mut log_z = [0.0; 6];
        let mut mean = [0.0; 6];
        let mut grads = [LogZGradient::default(); 6];
        let mut scratch = QuadratureScratch::new();
        // The factored sweep: one profile per mean, every count pair, with
        // sigmas that also send cells through the per-cell fallback.
        let counts: Vec<(f64, f64)> = c.iter().zip(&x).map(|(&c, &x)| (c, x)).collect();
        let factors = batch.count_factors(&counts);
        let keys: Vec<(usize, usize)> = (0..mu.len())
            .flat_map(|p| (0..counts.len()).map(move |q| (p, q)))
            .collect();
        let mut factored = vec![LogZGradient::default(); keys.len()];

        // Warm up: the first sweeps grow the scratch to the rule size.
        batch.log_z_with_scratch(0.12, &mu, &c, &x, &mut log_z, &mut scratch);
        batch.log_z_gradients_factored_into(
            0.12,
            &factors,
            &mu,
            &keys,
            &mut factored,
            &mut scratch,
        );

        let before = thread_allocations();
        for _ in 0..16 {
            batch.log_z_with_scratch(0.12, &mu, &c, &x, &mut log_z, &mut scratch);
            batch.moments_with_scratch(0.12, &mu, &c, &x, &mut log_z, &mut mean, &mut scratch);
            batch.log_z_gradients_into(0.12, &obs, &mut grads, &mut scratch);
            for sigma in [0.12, 1e-4] {
                batch.log_z_gradients_factored_into(
                    sigma,
                    &factors,
                    &mu,
                    &keys,
                    &mut factored,
                    &mut scratch,
                );
            }
        }
        let after = thread_allocations();
        assert_eq!(
            after - before,
            0,
            "{math:?}: scratch-based sweeps must not allocate"
        );
    }
}
