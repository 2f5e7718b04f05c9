//! Machine-readable bench reports (`BENCH_*.json`).
//!
//! The `quadrature` and `service` bench targets each emit one **run** — a
//! list of per-cell medians over their sweeps — into a committed trajectory
//! file, so the repository records how the hot-path throughput evolves across
//! changes. The format is a single JSON document with one run object per
//! line:
//!
//! ```json
//! {"schema":1,"bench":"quadrature","runs":[
//! {"cells":[{"workers":1000,"nodes":16,...}]},
//! {"cells":[{"workers":1000,"nodes":16,...}]}
//! ]}
//! ```
//!
//! Appending a run is a textual splice before the closing `]}` — no JSON
//! parser needed on either side — and files that do not end with the expected
//! closer are rewritten from scratch rather than trusted. Like the cell cache
//! ([`crate::cache`]), floats use Rust's shortest round-trip rendering so the
//! recorded numbers are exactly the measured ones, and writes go through a
//! temp-file rename so an interrupted bench never leaves a truncated report.

use c4u_stats::QuadratureMath;
use std::fs;
use std::io;
use std::path::Path;

/// Environment variable naming the quadrature report path. Empty disables
/// writing; unset uses [`QUADRATURE_REPORT_DEFAULT`] (relative to the `cargo
/// bench` working directory, i.e. the workspace root).
pub const QUADRATURE_REPORT_ENV: &str = c4u_env::names::QUAD_REPORT;

/// Default quadrature report file name, placed at the workspace root (bench
/// binaries run with the package directory as working directory, so the
/// default resolves against the compile-time manifest location instead).
pub const QUADRATURE_REPORT_DEFAULT: &str = "BENCH_quadrature.json";

/// Environment variable enabling the trajectory regression gate (`"1"` turns
/// it on; anything else leaves the bench report-only).
pub const BENCH_GATE_ENV: &str = c4u_env::names::BENCH_GATE;

/// Environment variable overriding the gate's baseline trajectory file.
/// Unset or empty falls back to the committed default report location —
/// deliberately independent of [`QUADRATURE_REPORT_ENV`], so a smoke run that
/// redirects (or disables) report *writing* still gates against the committed
/// history.
pub const QUADRATURE_BASELINE_ENV: &str = c4u_env::names::QUAD_BASELINE;

/// Allowed fractional regression of batched ns per worker-node before the
/// gate fails a cell (25%: far above timing noise on a shared CI core, well
/// below any real algorithmic regression).
pub const GATE_REGRESSION_LIMIT: f64 = 0.25;

/// One `(workers, nodes, math)` cell of the quadrature sweep: median
/// wall-clock of the batched structure-of-arrays sweep and of the equivalent
/// per-worker scalar loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadratureCell {
    /// Workers per batched call (the mask-group size).
    pub workers: usize,
    /// Quadrature nodes (the Gauss–Legendre order).
    pub nodes: usize,
    /// Fold-pass math mode the batched sweep ran in.
    pub math: QuadratureMath,
    /// Median nanoseconds of one batched `moments` sweep over all workers.
    pub batched_median_ns: f64,
    /// Median nanoseconds of the per-worker scalar loop over all workers.
    pub scalar_median_ns: f64,
}

impl QuadratureCell {
    /// Batched nanoseconds per worker-node — the roofline quantity.
    pub fn ns_per_worker_node(&self) -> f64 {
        self.batched_median_ns / (self.workers * self.nodes) as f64
    }

    /// Scalar nanoseconds per worker-node, for the same denominator.
    pub fn scalar_ns_per_worker_node(&self) -> f64 {
        self.scalar_median_ns / (self.workers * self.nodes) as f64
    }

    /// Scalar over batched wall-clock: the throughput multiple the SoA layout
    /// buys on this cell.
    pub fn speedup(&self) -> f64 {
        self.scalar_median_ns / self.batched_median_ns
    }

    /// Effective streamed bandwidth of the batched sweep in GB/s, under the
    /// traffic model `workers x (5 x nodes + 5) x 8` bytes per call: per
    /// worker the kernel streams four node tables (`h`, clamped `h`, `ln h`,
    /// `ln(1-h)`) plus the scratch buffer (written then read, counted once),
    /// and about five scalars of per-worker data (`mu`, `c`, `x`, and the two
    /// outputs). An upper bound on useful traffic, so the number is a
    /// roofline *floor*: reaching a given fraction of memory bandwidth proves
    /// at least that much of the sweep is streaming, not stalling.
    pub fn effective_gb_per_s(&self) -> f64 {
        let bytes = (self.workers * (5 * self.nodes + 5) * 8) as f64;
        bytes / self.batched_median_ns
    }
}

/// `f64` → JSON value: shortest round-trip decimal, non-finite as `null`.
fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// JSON tag of a math mode (`"exact"` / `"fast_vector"`). Cells written
/// before the math dimension existed carry no tag and parse as `Exact`.
pub fn math_tag(math: QuadratureMath) -> &'static str {
    match math {
        QuadratureMath::Exact => "exact",
        QuadratureMath::FastVector => "fast_vector",
    }
}

/// Renders one run (all cells of one bench invocation) as a single JSON line.
pub fn render_quadrature_run(cells: &[QuadratureCell]) -> String {
    let rendered: Vec<String> = cells
        .iter()
        .map(|cell| {
            format!(
                "{{\"workers\":{},\"nodes\":{},\"math\":\"{}\",\"batched_median_ns\":{},\"scalar_median_ns\":{},\"ns_per_worker_node\":{},\"scalar_ns_per_worker_node\":{},\"speedup\":{},\"effective_gb_per_s\":{}}}",
                cell.workers,
                cell.nodes,
                math_tag(cell.math),
                format_f64(cell.batched_median_ns),
                format_f64(cell.scalar_median_ns),
                format_f64(cell.ns_per_worker_node()),
                format_f64(cell.scalar_ns_per_worker_node()),
                format_f64(cell.speedup()),
                format_f64(cell.effective_gb_per_s()),
            )
        })
        .collect();
    format!("{{\"cells\":[{}]}}", rendered.join(","))
}

/// The document frame around a list of run lines for the named bench.
fn render_document(bench: &str, run_lines: &[&str]) -> String {
    format!(
        "{{\"schema\":1,\"bench\":\"{bench}\",\"runs\":[\n{}\n]}}\n",
        run_lines.join(",\n")
    )
}

/// The closing bytes every well-formed report ends with.
const CLOSER: &str = "\n]}\n";

/// Appends one run line to the named bench's trajectory file, creating it if
/// absent.
///
/// A present file must end with the document closer; the new line is spliced
/// in before it. A file that does not (hand-edited, truncated, or foreign) is
/// replaced by a fresh single-run document — the report is a convenience
/// record, not a source of truth worth failing a bench run over.
fn append_run(path: &Path, bench: &str, run_line: &str) -> io::Result<()> {
    let document = match fs::read_to_string(path) {
        Ok(existing) if existing.ends_with(CLOSER) => {
            let body = &existing[..existing.len() - CLOSER.len()];
            format!("{body},\n{run_line}{CLOSER}")
        }
        _ => render_document(bench, &[run_line]),
    };
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, document)?;
    fs::rename(&tmp, path)
}

/// Appends one run line to the quadrature trajectory file.
pub fn append_quadrature_run(path: &Path, run_line: &str) -> io::Result<()> {
    append_run(path, "quadrature", run_line)
}

/// The report path from `C4U_QUAD_REPORT`: `None` when explicitly disabled
/// with an empty value, the default path when unset.
pub fn quadrature_report_path() -> Option<std::path::PathBuf> {
    c4u_env::C4uEnv::from_env()
        .quad_report
        .or_default(default_report_path())
}

/// The committed trajectory location of a report file (manifest-relative, so
/// it does not depend on the bench working directory).
fn committed_report_path(file_name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file_name)
}

fn default_report_path() -> std::path::PathBuf {
    committed_report_path(QUADRATURE_REPORT_DEFAULT)
}

/// `true` when `C4U_BENCH_GATE=1`: the quadrature bench then fails (exit
/// non-zero) on any cell regressing more than [`GATE_REGRESSION_LIMIT`]
/// against the newest committed trajectory run.
pub fn bench_gate_enabled() -> bool {
    c4u_env::C4uEnv::from_env().bench_gate
}

/// The gate's baseline trajectory file: `C4U_QUAD_BASELINE` when set and
/// non-empty, otherwise the committed default report — independent of where
/// (or whether) the current run writes its own report.
pub fn quadrature_baseline_path() -> std::path::PathBuf {
    c4u_env::C4uEnv::from_env()
        .quad_baseline
        .or_fallback(default_report_path())
}

/// Locates `"key":` inside one cell object and returns the raw value text up
/// to the next `,` or end-of-object.
fn raw_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = obj.find(&needle)? + needle.len();
    let rest = &obj[start..];
    let end = rest.find(',').unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Parses the cells of one run line back into [`QuadratureCell`]s.
///
/// Only the identity fields and the two measured medians are read (every
/// other written field is derived from them); a cell missing a measured
/// median is skipped rather than invented. Cells written before the math
/// dimension existed (no `"math"` key) parse as [`QuadratureMath::Exact`] —
/// the only mode that existed when they were recorded.
pub fn parse_quadrature_run(run_line: &str) -> Vec<QuadratureCell> {
    let Some(start) = run_line.find("\"cells\":[") else {
        return Vec::new();
    };
    let body = &run_line[start + "\"cells\":[".len()..];
    let mut cells = Vec::new();
    for chunk in body.split('{').skip(1) {
        let obj = chunk.split('}').next().unwrap_or("");
        let parsed = (|| {
            let workers: usize = raw_field(obj, "workers")?.parse().ok()?;
            let nodes: usize = raw_field(obj, "nodes")?.parse().ok()?;
            let math = match raw_field(obj, "math") {
                Some("\"fast_vector\"") => QuadratureMath::FastVector,
                _ => QuadratureMath::Exact,
            };
            let batched_median_ns: f64 = raw_field(obj, "batched_median_ns")?.parse().ok()?;
            let scalar_median_ns: f64 = raw_field(obj, "scalar_median_ns")?.parse().ok()?;
            Some(QuadratureCell {
                workers,
                nodes,
                math,
                batched_median_ns,
                scalar_median_ns,
            })
        })();
        if let Some(cell) = parsed {
            cells.push(cell);
        }
    }
    cells
}

/// The newest run line of a trajectory file, or `None` when the file is
/// absent or does not end with the document closer.
fn latest_run_line(path: &Path) -> Option<String> {
    let doc = fs::read_to_string(path).ok()?;
    let body = doc.strip_suffix(CLOSER)?;
    body.rsplit('\n').next().map(str::to_string)
}

/// Loads the **newest** run of a trajectory file as the gate baseline.
///
/// Returns `None` when the file is absent, malformed (does not end with the
/// document closer), or its last run parses to no cells — the gate then has
/// nothing to compare against and reports that instead of failing spuriously.
pub fn latest_quadrature_baseline(path: &Path) -> Option<Vec<QuadratureCell>> {
    let cells = parse_quadrature_run(&latest_run_line(path)?);
    (!cells.is_empty()).then_some(cells)
}

/// Compares a fresh run against a baseline run: one violation string per cell
/// whose batched ns per worker-node regressed by more than
/// [`GATE_REGRESSION_LIMIT`] against the baseline cell with the same
/// `(workers, nodes, math)` identity.
///
/// Cells without a matching baseline identity (new sweep points, new math
/// modes) pass vacuously — the gate bounds regressions on *comparable* cells,
/// it does not freeze the sweep shape.
pub fn gate_quadrature_cells(
    baseline: &[QuadratureCell],
    current: &[QuadratureCell],
) -> Vec<String> {
    let mut violations = Vec::new();
    for cell in current {
        let matched = baseline
            .iter()
            .find(|b| b.workers == cell.workers && b.nodes == cell.nodes && b.math == cell.math);
        if let Some(base) = matched {
            let was = base.ns_per_worker_node();
            let now = cell.ns_per_worker_node();
            if was.is_finite() && now.is_finite() && now > was * (1.0 + GATE_REGRESSION_LIMIT) {
                violations.push(format!(
                    "workers={} nodes={} math={}: {:.2} ns/worker-node vs baseline {:.2} (+{:.0}%, limit +{:.0}%)",
                    cell.workers,
                    cell.nodes,
                    math_tag(cell.math),
                    now,
                    was,
                    (now / was - 1.0) * 100.0,
                    GATE_REGRESSION_LIMIT * 100.0,
                ));
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// The `service` bench trajectory: Algorithm-4 rounds through the async shard
// service vs the in-process sharded reference, at 10^5–10^6 workers.
// ---------------------------------------------------------------------------

/// Environment variable naming the service report path. Empty disables
/// writing; unset uses [`SERVICE_REPORT_DEFAULT`] at the workspace root.
pub const SERVICE_REPORT_ENV: &str = c4u_env::names::SERVICE_REPORT;

/// Default service report file name (committed at the workspace root).
pub const SERVICE_REPORT_DEFAULT: &str = "BENCH_service.json";

/// Environment variable overriding the service gate's baseline trajectory
/// file; unset or empty falls back to the committed default report —
/// independent of [`SERVICE_REPORT_ENV`], like the quadrature pair.
pub const SERVICE_BASELINE_ENV: &str = c4u_env::names::SERVICE_BASELINE;

/// One `(workers, shards, executors)` cell of the service sweep: median
/// wall-clock of one full learning round through the `c4u_service::ShardService`
/// executor pool and through the in-process sharded reference path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceCell {
    /// Workers answering the round (the pool size).
    pub workers: usize,
    /// Golden questions per worker in the round.
    pub tasks: usize,
    /// Worker-range shards the round fans out over.
    pub shards: usize,
    /// Executor threads of the service (`0` identifies the in-process
    /// reference rows in mixed sweeps; the committed sweep uses >= 1).
    pub executors: usize,
    /// Median nanoseconds of one round through the service.
    pub service_median_ns: f64,
    /// Median nanoseconds of the same round through
    /// `assign_learning_batch_sharded`.
    pub in_process_median_ns: f64,
}

impl ServiceCell {
    /// Service nanoseconds per worker-task — the throughput quantity the gate
    /// bounds (one answered golden question is the unit of round work).
    pub fn ns_per_worker_task(&self) -> f64 {
        self.service_median_ns / (self.workers * self.tasks) as f64
    }

    /// Service over in-process wall-clock: the overhead multiple the queue,
    /// executor pool, and merging cost on this cell (1.0 = free).
    pub fn overhead(&self) -> f64 {
        self.service_median_ns / self.in_process_median_ns
    }
}

/// Renders one service run (all cells of one bench invocation) as a single
/// JSON line.
pub fn render_service_run(cells: &[ServiceCell]) -> String {
    let rendered: Vec<String> = cells
        .iter()
        .map(|cell| {
            format!(
                "{{\"workers\":{},\"tasks\":{},\"shards\":{},\"executors\":{},\"service_median_ns\":{},\"in_process_median_ns\":{},\"ns_per_worker_task\":{},\"overhead\":{}}}",
                cell.workers,
                cell.tasks,
                cell.shards,
                cell.executors,
                format_f64(cell.service_median_ns),
                format_f64(cell.in_process_median_ns),
                format_f64(cell.ns_per_worker_task()),
                format_f64(cell.overhead()),
            )
        })
        .collect();
    format!("{{\"cells\":[{}]}}", rendered.join(","))
}

/// [`append_quadrature_run`]'s counterpart for the service trajectory.
pub fn append_service_run(path: &Path, run_line: &str) -> io::Result<()> {
    append_run(path, "service", run_line)
}

/// The report path from `C4U_SERVICE_REPORT`: `None` when explicitly disabled
/// with an empty value, the committed default when unset.
pub fn service_report_path() -> Option<std::path::PathBuf> {
    c4u_env::C4uEnv::from_env()
        .service_report
        .or_default(committed_report_path(SERVICE_REPORT_DEFAULT))
}

/// The service gate's baseline trajectory file: `C4U_SERVICE_BASELINE` when
/// set and non-empty, otherwise the committed default report.
pub fn service_baseline_path() -> std::path::PathBuf {
    c4u_env::C4uEnv::from_env()
        .service_baseline
        .or_fallback(committed_report_path(SERVICE_REPORT_DEFAULT))
}

/// Parses the cells of one service run line back into [`ServiceCell`]s; cells
/// missing an identity field or a measured median are skipped, not invented.
pub fn parse_service_run(run_line: &str) -> Vec<ServiceCell> {
    let Some(start) = run_line.find("\"cells\":[") else {
        return Vec::new();
    };
    let body = &run_line[start + "\"cells\":[".len()..];
    let mut cells = Vec::new();
    for chunk in body.split('{').skip(1) {
        let obj = chunk.split('}').next().unwrap_or("");
        let parsed = (|| {
            Some(ServiceCell {
                workers: raw_field(obj, "workers")?.parse().ok()?,
                tasks: raw_field(obj, "tasks")?.parse().ok()?,
                shards: raw_field(obj, "shards")?.parse().ok()?,
                executors: raw_field(obj, "executors")?.parse().ok()?,
                service_median_ns: raw_field(obj, "service_median_ns")?.parse().ok()?,
                in_process_median_ns: raw_field(obj, "in_process_median_ns")?.parse().ok()?,
            })
        })();
        if let Some(cell) = parsed {
            cells.push(cell);
        }
    }
    cells
}

/// Loads the newest service run as the gate baseline (same contract as
/// [`latest_quadrature_baseline`]).
pub fn latest_service_baseline(path: &Path) -> Option<Vec<ServiceCell>> {
    let cells = parse_service_run(&latest_run_line(path)?);
    (!cells.is_empty()).then_some(cells)
}

/// Compares a fresh service run against a baseline: one violation string per
/// cell whose service ns per worker-task regressed by more than
/// [`GATE_REGRESSION_LIMIT`] against the baseline cell with the same
/// `(workers, tasks, shards, executors)` identity. Unmatched cells pass
/// vacuously, like the quadrature gate.
pub fn gate_service_cells(baseline: &[ServiceCell], current: &[ServiceCell]) -> Vec<String> {
    let mut violations = Vec::new();
    for cell in current {
        let matched = baseline.iter().find(|b| {
            b.workers == cell.workers
                && b.tasks == cell.tasks
                && b.shards == cell.shards
                && b.executors == cell.executors
        });
        if let Some(base) = matched {
            let was = base.ns_per_worker_task();
            let now = cell.ns_per_worker_task();
            if was.is_finite() && now.is_finite() && now > was * (1.0 + GATE_REGRESSION_LIMIT) {
                violations.push(format!(
                    "workers={} tasks={} shards={} executors={}: {:.2} ns/worker-task vs baseline {:.2} (+{:.0}%, limit +{:.0}%)",
                    cell.workers,
                    cell.tasks,
                    cell.shards,
                    cell.executors,
                    now,
                    was,
                    (now / was - 1.0) * 100.0,
                    GATE_REGRESSION_LIMIT * 100.0,
                ));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell() -> QuadratureCell {
        QuadratureCell {
            workers: 1000,
            nodes: 16,
            math: QuadratureMath::Exact,
            batched_median_ns: 2_000_000.0,
            scalar_median_ns: 10_000_000.0,
        }
    }

    #[test]
    fn derived_quantities() {
        let c = cell();
        assert!((c.ns_per_worker_node() - 125.0).abs() < 1e-12);
        assert!((c.scalar_ns_per_worker_node() - 625.0).abs() < 1e-12);
        assert!((c.speedup() - 5.0).abs() < 1e-12);
        // 1000 * (5 * 16 + 5) * 8 bytes = 680 kB over 2 ms = 0.34 GB/s.
        assert!((c.effective_gb_per_s() - 0.34).abs() < 1e-12);
    }

    #[test]
    fn run_line_is_one_line_of_json() {
        let line = render_quadrature_run(&[cell(), cell()]);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"cells\":["));
        assert!(line.ends_with("]}"));
        assert_eq!(line.matches("\"workers\":1000").count(), 2);
    }

    #[test]
    fn append_creates_then_extends() {
        let dir = std::env::temp_dir().join(format!("c4u-report-{}", std::process::id()));
        let path = dir.join("BENCH_quadrature.json");
        let _ = fs::remove_file(&path);

        let line = render_quadrature_run(&[cell()]);
        append_quadrature_run(&path, &line).unwrap();
        let first = fs::read_to_string(&path).unwrap();
        assert!(first.starts_with("{\"schema\":1,\"bench\":\"quadrature\",\"runs\":[\n"));
        assert!(first.ends_with(CLOSER));
        assert_eq!(first.matches("\"cells\"").count(), 1);

        append_quadrature_run(&path, &line).unwrap();
        let second = fs::read_to_string(&path).unwrap();
        assert_eq!(second.matches("\"cells\"").count(), 2);
        // The two run lines are comma-separated inside the runs array.
        assert!(second.contains("]},\n{\"cells\""));
        assert!(second.ends_with(CLOSER));

        fs::remove_file(&path).unwrap();
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn malformed_files_are_replaced_not_trusted() {
        let dir = std::env::temp_dir().join(format!("c4u-report-bad-{}", std::process::id()));
        let path = dir.join("BENCH_quadrature.json");
        fs::create_dir_all(&dir).unwrap();
        fs::write(&path, "truncated garbage").unwrap();

        let line = render_quadrature_run(&[cell()]);
        append_quadrature_run(&path, &line).unwrap();
        let doc = fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with("{\"schema\":1"));
        assert!(!doc.contains("garbage"));

        fs::remove_file(&path).unwrap();
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn non_finite_medians_render_as_null() {
        let mut c = cell();
        c.batched_median_ns = f64::NAN;
        let line = render_quadrature_run(&[c]);
        assert!(line.contains("\"batched_median_ns\":null"));
    }

    #[test]
    fn run_lines_round_trip_through_the_parser() {
        let mut fast = cell();
        fast.math = QuadratureMath::FastVector;
        fast.batched_median_ns = 1_000_000.0;
        let line = render_quadrature_run(&[cell(), fast]);
        assert!(line.contains("\"math\":\"exact\""));
        assert!(line.contains("\"math\":\"fast_vector\""));
        let parsed = parse_quadrature_run(&line);
        assert_eq!(parsed, vec![cell(), fast]);
    }

    #[test]
    fn pre_math_cells_parse_as_exact() {
        // The PR-6 trajectory format: no "math" key on any cell.
        let line = "{\"cells\":[{\"workers\":1000,\"nodes\":16,\"batched_median_ns\":2000000.0,\"scalar_median_ns\":10000000.0,\"speedup\":5.0}]}";
        let parsed = parse_quadrature_run(line);
        assert_eq!(parsed, vec![cell()]);
    }

    #[test]
    fn latest_baseline_reads_the_newest_run() {
        let dir = std::env::temp_dir().join(format!("c4u-baseline-{}", std::process::id()));
        let path = dir.join("BENCH_quadrature.json");
        let _ = fs::remove_file(&path);
        assert_eq!(latest_quadrature_baseline(&path), None);

        append_quadrature_run(&path, &render_quadrature_run(&[cell()])).unwrap();
        let mut newer = cell();
        newer.batched_median_ns = 1_500_000.0;
        append_quadrature_run(&path, &render_quadrature_run(&[newer])).unwrap();

        // Two runs on file; the baseline is the newest one.
        let baseline = latest_quadrature_baseline(&path).unwrap();
        assert_eq!(baseline, vec![newer]);

        fs::remove_file(&path).unwrap();
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn gate_flags_only_regressions_beyond_the_limit() {
        let base = cell(); // 125 ns/worker-node
        let mut within = cell();
        within.batched_median_ns = base.batched_median_ns * 1.2; // +20%: allowed
        assert!(gate_quadrature_cells(&[base], &[within]).is_empty());

        let mut beyond = cell();
        beyond.batched_median_ns = base.batched_median_ns * 1.3; // +30%: flagged
        let violations = gate_quadrature_cells(&[base], &[beyond]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("workers=1000 nodes=16 math=exact"));

        // A cell with no matching baseline identity passes vacuously.
        let mut fast = beyond;
        fast.math = QuadratureMath::FastVector;
        assert!(gate_quadrature_cells(&[base], &[fast]).is_empty());

        // Faster-than-baseline never trips the gate.
        let mut faster = cell();
        faster.batched_median_ns = base.batched_median_ns * 0.5;
        assert!(gate_quadrature_cells(&[base], &[faster]).is_empty());
    }

    fn service_cell() -> ServiceCell {
        ServiceCell {
            workers: 100_000,
            tasks: 10,
            shards: 8,
            executors: 4,
            service_median_ns: 5_000_000.0,
            in_process_median_ns: 4_000_000.0,
        }
    }

    #[test]
    fn service_derived_quantities() {
        let c = service_cell();
        // 5 ms over 10^6 worker-tasks = 5 ns each; 5/4 ms = 1.25x overhead.
        assert!((c.ns_per_worker_task() - 5.0).abs() < 1e-12);
        assert!((c.overhead() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn service_run_lines_round_trip_through_the_parser() {
        let mut wide = service_cell();
        wide.executors = 16;
        wide.service_median_ns = 3_000_000.0;
        let line = render_service_run(&[service_cell(), wide]);
        assert!(!line.contains('\n'));
        assert!(line.contains("\"executors\":4"));
        assert!(line.contains("\"executors\":16"));
        assert_eq!(parse_service_run(&line), vec![service_cell(), wide]);
    }

    #[test]
    fn service_appends_build_their_own_trajectory_document() {
        let dir = std::env::temp_dir().join(format!("c4u-service-report-{}", std::process::id()));
        let path = dir.join("BENCH_service.json");
        let _ = fs::remove_file(&path);
        assert_eq!(latest_service_baseline(&path), None);

        append_service_run(&path, &render_service_run(&[service_cell()])).unwrap();
        let doc = fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with("{\"schema\":1,\"bench\":\"service\",\"runs\":[\n"));
        assert!(doc.ends_with(CLOSER));

        // The baseline is the newest appended run.
        let mut newer = service_cell();
        newer.service_median_ns = 4_500_000.0;
        append_service_run(&path, &render_service_run(&[newer])).unwrap();
        assert_eq!(latest_service_baseline(&path).unwrap(), vec![newer]);

        fs::remove_file(&path).unwrap();
        let _ = fs::remove_dir(&dir);
    }

    #[test]
    fn service_gate_flags_only_regressions_beyond_the_limit() {
        let base = service_cell();
        let mut within = service_cell();
        within.service_median_ns = base.service_median_ns * 1.2; // +20%: allowed
        assert!(gate_service_cells(&[base], &[within]).is_empty());

        let mut beyond = service_cell();
        beyond.service_median_ns = base.service_median_ns * 1.3; // +30%: flagged
        let violations = gate_service_cells(&[base], &[beyond]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("workers=100000 tasks=10 shards=8 executors=4"));

        // A different executor count is a different identity: vacuous pass.
        let mut other_layout = beyond;
        other_layout.executors = 16;
        assert!(gate_service_cells(&[base], &[other_layout]).is_empty());
    }
}
