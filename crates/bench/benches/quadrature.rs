//! Roofline-style micro-benchmark of the batched SoA quadrature kernel.
//!
//! Sweeps mask-group sizes (`workers`) against Gauss–Legendre orders
//! (`nodes`) and fold-pass math modes and, for every cell, times one batched
//! [`BinomialNormalBatch::moments`] sweep against the equivalent per-worker
//! scalar [`binomial_normal_moments`] loop — the exact pair of paths the CPE
//! hot paths switched between. The scalar loop is timed **once** per
//! `(nodes, workers)` point and shared by both math modes, so the speedup
//! columns stay comparable. Reported per cell:
//!
//! * median wall-clock of each path (self-timed; medians are robust to the
//!   1-core container's scheduling noise),
//! * batched **ns per worker-node** — the roofline quantity: a node-major
//!   fused multiply-add plus one `exp` per worker-node,
//! * **effective GB/s** of the batched sweep under the traffic model
//!   documented on [`QuadratureCell::effective_gb_per_s`],
//! * the **speedup** over the scalar loop (the scalar path re-derives every
//!   per-node logarithm per worker; the batched sweep streams shared tables).
//!
//! Correctness gates before any timing: the `exact` sweep must agree with the
//! scalar oracle **bit for bit**, and the `fast_vector` sweep must track the
//! exact sweep within its documented ~1e-12 relative contract on this group.
//!
//! ```bash
//! cargo bench -p c4u-bench --bench quadrature
//! ```
//!
//! Environment knobs (all optional):
//!
//! * `C4U_QUAD_WORKERS` — comma-separated group sizes (default
//!   `1000,10000,100000,1000000`);
//! * `C4U_QUAD_NODES` — comma-separated quadrature orders (default
//!   `16,32,64`);
//! * `C4U_QUAD_SAMPLES` — timing samples per cell (default 7; the median is
//!   reported);
//! * `C4U_QUAD_MATH` — `exact`, `fast_vector`, or `both` (default both);
//! * `C4U_QUAD_REPORT` — trajectory-file path (default
//!   `BENCH_quadrature.json` at the workspace root; empty disables writing);
//! * `C4U_BENCH_GATE` — set to `1` to fail (exit non-zero) when any cell
//!   regresses more than 25% in ns per worker-node against the newest run of
//!   the committed trajectory, or when no cell matches that run. The baseline
//!   is loaded **before** this run is appended.
//!
//! Reporting and gating go through the shared [`c4u_bench::QUADRATURE`]
//! trajectory: cells are identified by `(workers, nodes, math)`.

use c4u_bench::{math_tag, quad_math_modes, QuadratureCell, QUADRATURE};
use c4u_env::C4uEnv;
use c4u_stats::{
    binomial_normal_moments, median, BinomialNormalBatch, GaussLegendre, QuadratureMath,
    QuadratureScratch,
};
use std::time::Instant;

/// Deterministic per-worker cells shaped like a CPE mask group: conditional
/// means spread across the accuracy range, modest answer counts.
fn make_group(workers: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut mu = Vec::with_capacity(workers);
    let mut c = Vec::with_capacity(workers);
    let mut x = Vec::with_capacity(workers);
    for w in 0..workers {
        mu.push(0.15 + 0.7 * (w as f64 / workers.max(1) as f64));
        let correct = (2 + (w * 7) % 8) as f64;
        c.push(correct);
        x.push(10.0 - correct);
    }
    (mu, c, x)
}

const SIGMA: f64 = 0.12;

fn main() {
    // One typed snapshot covers every knob; misspelled C4U_* names warn here.
    let env = C4uEnv::from_env();
    let workers_sweep = env.quad_workers;
    let nodes_sweep = env.quad_nodes;
    let samples = env.quad_samples;
    let maths = quad_math_modes();

    let run = QUADRATURE.open(&env.quad_report);

    println!("Batched SoA quadrature sweep vs per-worker scalar loop");
    println!("(sigma = {SIGMA}, {samples} samples per cell, medians reported)\n");
    println!(
        "  {:>8} {:>6} {:>12} {:>14} {:>14} {:>12} {:>10} {:>8}",
        "workers", "nodes", "math", "batched ns", "scalar ns", "ns/(w*n)", "eff GB/s", "speedup"
    );

    let mut rows = Vec::new();
    for &nodes in &nodes_sweep {
        let quadrature = GaussLegendre::new(nodes);
        let exact = BinomialNormalBatch::new(&quadrature);
        for &workers in &workers_sweep {
            let (mu, c, x) = make_group(workers);
            let mut log_z = vec![0.0; workers];
            let mut mean = vec![0.0; workers];
            let mut scratch = QuadratureScratch::new();

            // Correctness gate before any timing: the exact batched sweep
            // must be bit-identical to the scalar oracle on this group.
            exact.moments_with_scratch(SIGMA, &mu, &c, &x, &mut log_z, &mut mean, &mut scratch);
            for w in 0..workers {
                let (scalar_log_z, scalar_mean) =
                    binomial_normal_moments(&quadrature, mu[w], SIGMA, c[w], x[w]);
                assert_eq!(log_z[w], scalar_log_z, "log Z drift at worker {w}");
                assert_eq!(mean[w], scalar_mean, "posterior-mean drift at worker {w}");
            }
            let exact_log_z = log_z.clone();
            let exact_mean = mean.clone();

            // The scalar loop is math-independent: time it once per
            // (nodes, workers) point and share the median across modes.
            let mut scalar_ns = Vec::with_capacity(samples);
            for _ in 0..samples {
                let start = Instant::now();
                for w in 0..workers {
                    let (lz, m) = binomial_normal_moments(&quadrature, mu[w], SIGMA, c[w], x[w]);
                    log_z[w] = lz;
                    mean[w] = m;
                }
                scalar_ns.push(start.elapsed().as_nanos() as f64);
            }
            let scalar_median_ns = median(&scalar_ns).expect("at least one sample");

            for &math in &maths {
                let batch = BinomialNormalBatch::new_with_math(&quadrature, math);
                batch.moments_with_scratch(SIGMA, &mu, &c, &x, &mut log_z, &mut mean, &mut scratch);
                if math == QuadratureMath::Exact {
                    // Already gated bitwise above; this sweep just re-warms.
                } else {
                    // FastVector correctness gate: within the documented
                    // ~1e-12 relative contract of the Exact path (these cells
                    // are all well-scaled — bounded counts, interior means).
                    for w in 0..workers {
                        let tol = 1e-11 * (1.0 + exact_log_z[w].abs());
                        assert!(
                            (log_z[w] - exact_log_z[w]).abs() <= tol,
                            "log Z drift beyond contract at worker {w}: {} vs {}",
                            log_z[w],
                            exact_log_z[w]
                        );
                        assert!(
                            (mean[w] - exact_mean[w]).abs() <= 1e-11,
                            "posterior-mean drift beyond contract at worker {w}"
                        );
                    }
                }

                let mut batched_ns = Vec::with_capacity(samples);
                for _ in 0..samples {
                    let start = Instant::now();
                    batch.moments_with_scratch(
                        SIGMA,
                        &mu,
                        &c,
                        &x,
                        &mut log_z,
                        &mut mean,
                        &mut scratch,
                    );
                    batched_ns.push(start.elapsed().as_nanos() as f64);
                }

                let cell = QuadratureCell {
                    workers,
                    nodes,
                    math,
                    batched_median_ns: median(&batched_ns).expect("at least one sample"),
                    scalar_median_ns,
                };
                println!(
                    "  {:>8} {:>6} {:>12} {:>14.0} {:>14.0} {:>12.2} {:>10.2} {:>7.1}x",
                    cell.workers,
                    cell.nodes,
                    math_tag(cell.math),
                    cell.batched_median_ns,
                    cell.scalar_median_ns,
                    cell.ns_per_worker_node(),
                    cell.effective_gb_per_s(),
                    cell.speedup()
                );
                rows.push(cell.row());
            }
        }
    }

    run.finish(&rows);
}
