//! Machine-readable bench reports (`BENCH_*.json`).
//!
//! The `quadrature` bench target emits one **run** — a list of per-cell
//! medians over its sweep — into a committed trajectory file, so the
//! repository records how the hot-path throughput evolves across changes. The format is a single JSON document with one run object per
//! line:
//!
//! ```json
//! {"schema":1,"bench":"quadrature","runs":[
//! {"cells":[{"workers":1000,"nodes":16,...}]},
//! {"cells":[{"workers":1000,"nodes":16,...}]}
//! ]}
//! ```
//!
//! A cell is a [`Row`]: its identity fields
//! followed by its metric fields, each value held as raw JSON text. A
//! [`Trajectory`] names the bench tag, the committed file, the identity keys,
//! and the one metric the gate bounds; [`Trajectory::open`] (before the
//! sweep) and [`BenchRun::finish`] (after it) are the whole bench tail. The
//! parser and the gate compare raw field text, so they need no knowledge of
//! a bench's cell type.
//!
//! Appending a run is a textual splice before the closing `]}` — no JSON
//! parser needed on either side — and files that do not end with the expected
//! closer are rewritten from scratch rather than trusted. Like the cell cache
//! ([`crate::cache`]), floats use Rust's shortest round-trip rendering so the
//! recorded numbers are exactly the measured ones, and writes go through a
//! temp-file rename so an interrupted bench never leaves a truncated report.

use c4u_env::{C4uEnv, PathKnob};
use c4u_stats::QuadratureMath;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Allowed fractional regression of a trajectory's gated metric before the
/// gate fails a cell (25%: far above timing noise on a shared CI core, well
/// below any real algorithmic regression).
pub const GATE_REGRESSION_LIMIT: f64 = 0.25;

/// One cell of a run: `(key, raw JSON value)` pairs in rendering order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row(pub Vec<(String, String)>);

impl Row {
    /// The raw JSON text of `key`'s value, if the row has it.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl<const N: usize> From<[(&str, String); N]> for Row {
    fn from(fields: [(&str, String); N]) -> Self {
        Row(fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect())
    }
}

/// `f64` → JSON value: shortest round-trip decimal, non-finite as `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

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

    /// The trajectory row: identity, measured medians, then derived metrics.
    pub fn row(&self) -> Row {
        Row::from([
            ("workers", self.workers.to_string()),
            ("nodes", self.nodes.to_string()),
            ("math", format!("\"{}\"", math_tag(self.math))),
            ("batched_median_ns", json_f64(self.batched_median_ns)),
            ("scalar_median_ns", json_f64(self.scalar_median_ns)),
            ("ns_per_worker_node", json_f64(self.ns_per_worker_node())),
            (
                "scalar_ns_per_worker_node",
                json_f64(self.scalar_ns_per_worker_node()),
            ),
            ("speedup", json_f64(self.speedup())),
            ("effective_gb_per_s", json_f64(self.effective_gb_per_s())),
        ])
    }
}

/// JSON tag of a math mode (`"exact"` / `"fast_vector"`).
pub fn math_tag(math: QuadratureMath) -> &'static str {
    match math {
        QuadratureMath::Exact => "exact",
        QuadratureMath::FastVector => "fast_vector",
    }
}

/// Renders one run (all cells of one bench invocation) as a single JSON line.
fn render_run(rows: &[Row]) -> String {
    let rendered: Vec<String> = rows
        .iter()
        .map(|row| {
            let fields: Vec<String> = row.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", fields.join(","))
        })
        .collect();
    format!("{{\"cells\":[{}]}}", rendered.join(","))
}

/// Parses the cells of one run line back into [`Row`]s, keeping every
/// field's value as raw text. A cell with a field that is not `"key":value`
/// is skipped rather than half-read.
fn parse_run(run_line: &str) -> Vec<Row> {
    let Some(start) = run_line.find("\"cells\":[") else {
        return Vec::new();
    };
    let body = &run_line[start + "\"cells\":[".len()..];
    let mut rows = Vec::new();
    for chunk in body.split('{').skip(1) {
        let obj = chunk.split('}').next().unwrap_or("");
        let fields: Option<Vec<(String, String)>> = obj
            .split(',')
            .map(|field| {
                let (key, value) = field.split_once(':')?;
                let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
                Some((key.to_string(), value.trim().to_string()))
            })
            .collect();
        if let Some(fields) = fields {
            rows.push(Row(fields));
        }
    }
    rows
}

/// The closing bytes every well-formed report ends with.
const CLOSER: &str = "\n]}\n";

/// The **newest** run of a trajectory file.
///
/// Returns `None` when the file is absent, malformed (does not end with the
/// document closer), or its last run parses to no cells — the gate then has
/// nothing to compare against and reports that instead of failing spuriously.
fn latest_run(path: &Path) -> Option<Vec<Row>> {
    let doc = fs::read_to_string(path).ok()?;
    let rows = parse_run(doc.strip_suffix(CLOSER)?.rsplit('\n').next()?);
    (!rows.is_empty()).then_some(rows)
}

/// The outcome of gating one run against a baseline run.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GateReport {
    /// Current cells whose identity matched a baseline cell.
    matched: usize,
    /// One line per matched cell whose gated metric regressed beyond
    /// [`GATE_REGRESSION_LIMIT`].
    violations: Vec<String>,
}

impl GateReport {
    /// A gate passes only when it compared something and nothing regressed:
    /// zero matched cells means the sweep drifted off the baseline, which is
    /// a failure, not a vacuous pass.
    fn passed(&self) -> bool {
        self.matched > 0 && self.violations.is_empty()
    }
}

/// A bench's committed trajectory: what it is called, where it lives, which
/// fields identify a cell, and which metric the gate bounds.
#[derive(Debug, Clone, Copy)]
pub struct Trajectory {
    /// The `"bench"` tag of the document.
    pub bench: &'static str,
    /// File name of the committed trajectory at the workspace root.
    pub file: &'static str,
    /// Fields whose raw text identifies a cell across runs.
    pub keys: &'static [&'static str],
    /// The lower-is-better metric the gate bounds.
    pub metric: &'static str,
}

/// The `quadrature` roofline bench's trajectory.
pub const QUADRATURE: Trajectory = Trajectory {
    bench: "quadrature",
    file: "BENCH_quadrature.json",
    keys: &["workers", "nodes", "math"],
    metric: "ns_per_worker_node",
};

impl Trajectory {
    /// The committed trajectory location (manifest-relative, so it does not
    /// depend on the bench working directory).
    fn committed_path(&self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(self.file)
    }

    /// Appends one run line to this trajectory's file at `path`, creating it
    /// if absent.
    ///
    /// A present file must end with the document closer; the new line is
    /// spliced in before it. A file that does not (hand-edited, truncated, or
    /// foreign) is replaced by a fresh single-run document — the report is a
    /// convenience record, not a source of truth worth failing a bench run
    /// over.
    fn append(&self, path: &Path, run_line: &str) -> io::Result<()> {
        let document = match fs::read_to_string(path) {
            Ok(existing) if existing.ends_with(CLOSER) => {
                let body = &existing[..existing.len() - CLOSER.len()];
                format!("{body},\n{run_line}{CLOSER}")
            }
            _ => format!(
                "{{\"schema\":1,\"bench\":\"{}\",\"runs\":[\n{run_line}{CLOSER}",
                self.bench
            ),
        };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("json.tmp");
        fs::write(&tmp, document)?;
        fs::rename(&tmp, path)
    }

    /// Compares a fresh run against a baseline run cell by cell. A current
    /// cell matches the baseline cell whose identity fields have the same raw
    /// text; a matched cell violates the gate when its gated metric exceeds
    /// the baseline's by more than [`GATE_REGRESSION_LIMIT`]; a `null`
    /// metric never violates.
    fn gate(&self, baseline: &[Row], current: &[Row]) -> GateReport {
        let metric = |row: &Row| row.get(self.metric).and_then(|v| v.parse::<f64>().ok());
        let mut report = GateReport {
            matched: 0,
            violations: Vec::new(),
        };
        for cell in current {
            let Some(base) = baseline.iter().find(|b| {
                self.keys
                    .iter()
                    .all(|k| matches!((b.get(k), cell.get(k)), (Some(x), Some(y)) if x == y))
            }) else {
                continue;
            };
            report.matched += 1;
            if let (Some(was), Some(now)) = (metric(base), metric(cell)) {
                if now > was * (1.0 + GATE_REGRESSION_LIMIT) {
                    let identity: Vec<String> = self
                        .keys
                        .iter()
                        .map(|k| format!("{k}={}", cell.get(k).unwrap_or("").trim_matches('"')))
                        .collect();
                    report.violations.push(format!(
                        "{}: {now:.2} {} vs baseline {was:.2} (+{:.0}%, limit +{:.0}%)",
                        identity.join(" "),
                        self.metric,
                        (now / was - 1.0) * 100.0,
                        GATE_REGRESSION_LIMIT * 100.0,
                    ));
                }
            }
        }
        report
    }

    /// Starts a bench run against this trajectory. `report` is the bench's
    /// report-path knob (unset writes the committed file, empty disables
    /// writing). When `C4U_BENCH_GATE=1` the gate baseline — the newest run
    /// of the committed file — is loaded now, before this run is appended.
    pub fn open(&self, report: &PathKnob) -> BenchRun {
        let baseline = C4uEnv::from_env().bench_gate.then(|| {
            let path = self.committed_path();
            let loaded = latest_run(&path);
            if loaded.is_none() {
                println!(
                    "gate armed but no baseline run at {} — skipping",
                    path.display()
                );
            }
            loaded
        });
        BenchRun {
            trajectory: *self,
            report: report.or_default(self.committed_path()),
            baseline: baseline.flatten(),
        }
    }
}

/// A bench run between [`Trajectory::open`] and [`BenchRun::finish`].
#[derive(Debug)]
pub struct BenchRun {
    trajectory: Trajectory,
    report: Option<PathBuf>,
    baseline: Option<Vec<Row>>,
}

impl BenchRun {
    /// Appends the run to the report file (unless disabled), then, when the
    /// gate is armed and a baseline was found, gates the run, prints how many
    /// cells matched, and exits the process with status 1 when none matched
    /// or any regressed beyond [`GATE_REGRESSION_LIMIT`].
    pub fn finish(self, rows: &[Row]) {
        match &self.report {
            Some(path) => match self.trajectory.append(path, &render_run(rows)) {
                Ok(()) => println!("\nappended run to {}", path.display()),
                Err(err) => eprintln!("\nwarning: could not write {}: {err}", path.display()),
            },
            None => println!("\nreport writing disabled (empty report path)"),
        }

        let Some(baseline) = &self.baseline else {
            return;
        };
        let gate = self.trajectory.gate(baseline, rows);
        println!(
            "gate: {} of {} cell(s) matched the baseline, {} regressed beyond the limit",
            gate.matched,
            rows.len(),
            gate.violations.len()
        );
        for v in &gate.violations {
            eprintln!("  {v}");
        }
        if !gate.passed() {
            eprintln!("gate: failed (it must match at least one cell and flag none)");
            std::process::exit(1);
        }
    }
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

    /// A scratch trajectory path unique to this process and test.
    fn scratch_path(test: &str, file: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("c4u-{test}-{}", std::process::id()))
            .join(file)
    }

    fn remove(path: &Path) {
        fs::remove_file(path).unwrap();
        let _ = fs::remove_dir(path.parent().unwrap());
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
        let line = render_run(&[cell().row(), cell().row()]);
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"cells\":["));
        assert!(line.ends_with("]}"));
        assert_eq!(line.matches("\"workers\":1000").count(), 2);
    }

    #[test]
    fn run_lines_keep_the_committed_format() {
        let quadrature = QuadratureCell {
            workers: 1000,
            nodes: 16,
            math: QuadratureMath::FastVector,
            batched_median_ns: 152210.0,
            scalar_median_ns: 1325562.0,
        };
        assert_eq!(
            render_run(&[quadrature.row()]),
            "{\"cells\":[{\"workers\":1000,\"nodes\":16,\"math\":\"fast_vector\",\"batched_median_ns\":152210.0,\"scalar_median_ns\":1325562.0,\"ns_per_worker_node\":9.513125,\"scalar_ns_per_worker_node\":82.847625,\"speedup\":8.708770777215689,\"effective_gb_per_s\":4.467511990013796}]}"
        );
    }

    #[test]
    fn committed_trajectories_parse_through_the_generic_parser() {
        for (trajectory, cells) in [(QUADRATURE, 24)] {
            let rows = latest_run(&trajectory.committed_path()).unwrap();
            assert_eq!(rows.len(), cells, "{}", trajectory.file);
            for row in &rows {
                for key in trajectory.keys.iter().chain([&trajectory.metric]) {
                    assert!(row.get(key).is_some(), "{} lacks {key}", trajectory.file);
                }
            }
            // The newest committed run gates against itself: every cell
            // matches and none regresses.
            let gate = trajectory.gate(&rows, &rows);
            assert_eq!(gate.matched, cells);
            assert!(gate.passed());
        }
    }

    #[test]
    fn append_creates_then_extends() {
        let path = scratch_path("report", QUADRATURE.file);
        let _ = fs::remove_file(&path);

        let line = render_run(&[cell().row()]);
        QUADRATURE.append(&path, &line).unwrap();
        let first = fs::read_to_string(&path).unwrap();
        assert!(first.starts_with("{\"schema\":1,\"bench\":\"quadrature\",\"runs\":[\n"));
        assert!(first.ends_with(CLOSER));
        assert_eq!(first.matches("\"cells\"").count(), 1);

        QUADRATURE.append(&path, &line).unwrap();
        let second = fs::read_to_string(&path).unwrap();
        assert_eq!(second.matches("\"cells\"").count(), 2);
        // The two run lines are comma-separated inside the runs array.
        assert!(second.contains("]},\n{\"cells\""));
        assert!(second.ends_with(CLOSER));

        remove(&path);
    }

    #[test]
    fn malformed_files_are_replaced_not_trusted() {
        let path = scratch_path("report-bad", QUADRATURE.file);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, "truncated garbage").unwrap();
        assert_eq!(latest_run(&path), None);

        QUADRATURE
            .append(&path, &render_run(&[cell().row()]))
            .unwrap();
        let doc = fs::read_to_string(&path).unwrap();
        assert!(doc.starts_with("{\"schema\":1"));
        assert!(!doc.contains("garbage"));

        remove(&path);
    }

    #[test]
    fn non_finite_medians_render_as_null() {
        let mut c = cell();
        c.batched_median_ns = f64::NAN;
        let line = render_run(&[c.row()]);
        assert!(line.contains("\"batched_median_ns\":null"));
    }

    #[test]
    fn run_lines_round_trip_through_the_parser() {
        let mut fast = cell();
        fast.math = QuadratureMath::FastVector;
        fast.batched_median_ns = 1_000_000.0;
        let rows = vec![cell().row(), fast.row()];
        let line = render_run(&rows);
        assert!(line.contains("\"math\":\"exact\""));
        assert!(line.contains("\"math\":\"fast_vector\""));
        assert_eq!(parse_run(&line), rows);
    }

    #[test]
    fn latest_baseline_reads_the_newest_run() {
        let path = scratch_path("baseline", QUADRATURE.file);
        let _ = fs::remove_file(&path);
        assert_eq!(latest_run(&path), None);

        QUADRATURE
            .append(&path, &render_run(&[cell().row()]))
            .unwrap();
        let mut newer = cell();
        newer.batched_median_ns = 1_500_000.0;
        let newer = vec![newer.row()];
        QUADRATURE.append(&path, &render_run(&newer)).unwrap();

        // Two runs on file; the baseline is the newest one.
        assert_eq!(latest_run(&path), Some(newer));

        remove(&path);
    }

    #[test]
    fn gate_flags_only_regressions_beyond_the_limit() {
        let base = cell(); // 125 ns/worker-node
        let mut within = cell();
        within.batched_median_ns = base.batched_median_ns * 1.2; // +20%: allowed
        assert!(QUADRATURE.gate(&[base.row()], &[within.row()]).passed());

        let mut beyond = cell();
        beyond.batched_median_ns = base.batched_median_ns * 1.3; // +30%: flagged
        let gate = QUADRATURE.gate(&[base.row()], &[beyond.row()]);
        assert_eq!(gate.matched, 1);
        assert_eq!(gate.violations.len(), 1);
        assert!(gate.violations[0].contains("workers=1000 nodes=16 math=exact"));

        // A cell with no matching baseline identity is not compared.
        let mut fast = beyond;
        fast.math = QuadratureMath::FastVector;
        let gate = QUADRATURE.gate(&[base.row()], &[beyond.row(), fast.row()]);
        assert_eq!((gate.matched, gate.violations.len()), (1, 1));

        // Faster-than-baseline never trips the gate.
        let mut faster = cell();
        faster.batched_median_ns = base.batched_median_ns * 0.5;
        assert!(QUADRATURE.gate(&[base.row()], &[faster.row()]).passed());
    }

    #[test]
    fn gate_without_a_matched_cell_fails() {
        let mut fast = cell();
        fast.math = QuadratureMath::FastVector;
        let gate = QUADRATURE.gate(&[cell().row()], &[fast.row()]);
        assert_eq!(gate.matched, 0);
        assert!(gate.violations.is_empty());
        assert!(!gate.passed());
        assert!(!QUADRATURE.gate(&[], &[cell().row()]).passed());

        // A baseline row missing an identity key (a pre-`math` quadrature
        // cell) matches nothing.
        let mut pre_math = cell().row();
        pre_math.0.retain(|(k, _)| k != "math");
        assert!(!QUADRATURE.gate(&[pre_math], &[cell().row()]).passed());
    }
}
