//! Runs one benchmark workload and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload pool_large --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times untraced `CrossDomainSelector::run_with_events` calls
//! and prints the end-to-end metrics; `--trace 1` pairs each untraced run
//! with a traced replay and prints the per-layer metrics. Either way every
//! run is checked, and the last stdout line is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use c4u_perfbench::check::{check_invariants, count_work, same_report, Counts};
use c4u_perfbench::clock::{SpeedProbe, Stopwatch};
use c4u_perfbench::trace::{traced_run, Layer, LayerTimes};
use c4u_perfbench::workload::{set_up, Case, Scale, SetupTimes, Workload};
use c4u_selection::{CrossDomainSelector, PipelineReport, SelectionError, SelectorConfig};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <pool_large|campaign_open|paper_suite> --seed <u64> --seconds <n> --trace <0|1>";

/// Set-ups per benchmark run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Why a selection run failed.
enum Failure {
    /// The program returned an error: the operation failed, but nothing it
    /// produced was wrong.
    Error(String),
    /// The program produced an output that failed a check.
    Wrong(String),
}

/// Which inputs failed, and how many outputs failed a check.
///
/// The unit of `attempted` and `failed` is one input of the workload, not
/// one run: an input is attempted once per benchmark run however often the
/// time window reruns it, and it fails if any of its runs returned an error
/// or failed a check. Both counts are therefore fixed by the seed, while the
/// number of reruns depends on the host's speed. An input that failed is not
/// run again.
struct Tally {
    failed: Vec<bool>,
    wrong: u64,
}

impl Tally {
    fn new(inputs: usize) -> Self {
        Self {
            failed: vec![false; inputs],
            wrong: 0,
        }
    }

    /// Whether input `i` has not failed so far.
    fn ok(&self, i: usize) -> bool {
        !self.failed[i]
    }

    /// Records one run of input `i`; a failed run is reported on stderr.
    fn record(&mut self, i: usize, case: &Case, outcome: Result<(), Failure>) {
        let reason = match outcome {
            Ok(()) => return,
            Err(Failure::Error(reason)) => format!("error: {reason}"),
            Err(Failure::Wrong(reason)) => {
                self.wrong += 1;
                format!("wrong output: {reason}")
            }
        };
        self.failed[i] = true;
        eprintln!("perfbench: {}: {reason}", case.label);
    }

    fn attempted(&self) -> usize {
        self.failed.len()
    }

    fn failed(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Runs the selection on a fresh copy of the case's platform and checks the
/// invariants; returns the report, the platform after the run and the
/// selection's wall time.
fn untraced(
    case: &Case,
) -> (
    Result<PipelineReport, Failure>,
    c4u_crowd_sim::Platform,
    f64,
) {
    let selector =
        CrossDomainSelector::new(SelectorConfig::default().with_num_shards(case.num_shards));
    let mut platform = case.platform.clone();
    let t = Stopwatch::start();
    let result = selector.run_with_events(&mut platform, case.k, &case.schedule);
    let seconds = t.elapsed_s();
    let checked = result
        .map_err(|e| Failure::Error(e.to_string()))
        .and_then(|report| {
            check_invariants(
                &report,
                &case.platform.active_worker_ids(),
                case.platform.budget_total(),
                case.k,
            )
            .map(|()| report)
            .map_err(Failure::Wrong)
        });
    (checked, platform, seconds)
}

/// Replays the case traced and checks it against the untraced report.
fn traced(case: &Case, reference: &PipelineReport) -> Result<(LayerTimes, Counts), Failure> {
    let mut platform = case.platform.clone();
    let (report, times) = traced_run(
        &SelectorConfig::default().with_num_shards(case.num_shards),
        &mut platform,
        case.k,
        &case.schedule,
    )
    .map_err(|e| Failure::Wrong(format!("traced replay failed: {e}")))?;
    same_report(reference, &report).map_err(|e| Failure::Wrong(format!("traced replay: {e}")))?;
    let counts = count_work(
        &report,
        &platform,
        case.platform.active_worker_ids().len(),
        case.k,
    )
    .map_err(|e| Failure::Wrong(e.to_string()))?;
    Ok((times, counts))
}

/// Mean true target accuracy of the selection, and its working accuracy
/// (Table V), read from the platform the run left behind.
fn quality(
    report: &PipelineReport,
    platform: &mut c4u_crowd_sim::Platform,
) -> Result<(f64, f64), SelectionError> {
    let selected = &report.outcome.selected;
    let true_acc = selected
        .iter()
        .map(|&w| platform.true_accuracy(w))
        .sum::<Result<f64, _>>()?
        / selected.len() as f64;
    Ok((true_acc, platform.evaluate_working_accuracy(selected)?))
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Successful selection runs timed between two probes.
#[derive(Default)]
struct Sample {
    /// Wall seconds.
    select_s: f64,
    runs: u32,
    worker_rounds: usize,
}

/// Closed samples, in reference seconds.
#[derive(Default)]
struct Samples {
    per_run_s: Vec<f64>,
    worker_rounds_per_s: Vec<f64>,
}

impl Samples {
    /// Probes after `sample`, scales it to reference seconds, and keeps it if
    /// any run in it succeeded.
    fn close(&mut self, sample: Sample, speed: &mut SpeedProbe) {
        let select_s = sample.select_s * speed.scale();
        if sample.runs > 0 {
            self.per_run_s.push(select_s / f64::from(sample.runs));
            self.worker_rounds_per_s
                .push(sample.worker_rounds as f64 / select_s);
        }
    }
}

/// Untraced timing: whole sweeps over the cases until the time is up. Only
/// runs that succeed are timed; an input that fails counts in the tally and
/// drops out of later sweeps. A sample is one run or one sweep, as
/// [`Workload::samples_each_run`] says.
fn end_to_end(
    workload: Workload,
    setups: &[SetupTimes],
    cases: &[Case],
    seconds: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut references: Vec<Option<PipelineReport>> = vec![None; cases.len()];
    let mut qualities: Vec<(f64, f64)> = vec![(f64::NAN, f64::NAN); cases.len()];
    let mut samples = Samples::default();
    let mut sample = Sample::default();
    let mut speed = SpeedProbe::start();
    let window = Stopwatch::start();
    let mut sweeps = 0;
    while sweeps == 0 || window.elapsed_s() < seconds {
        for (i, case) in cases.iter().enumerate() {
            if !tally.ok(i) {
                continue;
            }
            let (result, mut platform, run_s) = untraced(case);
            let outcome = result.and_then(|report| {
                sample.select_s += run_s;
                sample.runs += 1;
                sample.worker_rounds +=
                    report.rounds.iter().map(|r| r.entered.len()).sum::<usize>();
                match &references[i] {
                    Some(reference) => same_report(reference, &report)
                        .map_err(|e| Failure::Wrong(format!("rerun differs: {e}"))),
                    None => {
                        qualities[i] = quality(&report, &mut platform)
                            .map_err(|e| Failure::Wrong(e.to_string()))?;
                        references[i] = Some(report);
                        Ok(())
                    }
                }
            });
            tally.record(i, case, outcome);
            if workload.samples_each_run() {
                samples.close(std::mem::take(&mut sample), &mut speed);
            }
        }
        if !workload.samples_each_run() {
            samples.close(std::mem::take(&mut sample), &mut speed);
        }
        sweeps += 1;
    }
    let peak_rss = peak_rss_mib();
    // Every input's untraced report must match its traced replay.
    for (i, (case, reference)) in cases.iter().zip(&references).enumerate() {
        if let (true, Some(reference)) = (tally.ok(i), reference) {
            tally.record(i, case, traced(case, reference).map(|_| ()));
        }
    }
    // Quality over the inputs that did not fail.
    let ran: Vec<(f64, f64)> = qualities
        .into_iter()
        .enumerate()
        .filter(|&(i, q)| tally.ok(i) && !q.0.is_nan())
        .map(|(_, q)| q)
        .collect();
    let n = ran.len() as f64;
    vec![
        metric("setup_s", "s", median(setups.iter().map(|s| s.total_s))),
        metric("select_s_p50", "s", median(samples.per_run_s)),
        metric(
            "worker_rounds_per_s",
            "1/s",
            median(samples.worker_rounds_per_s),
        ),
        metric("peak_rss_mb", "MiB", peak_rss),
        metric(
            "selected_true_acc",
            "share",
            ran.iter().map(|q| q.0).sum::<f64>() / n,
        ),
        metric(
            "working_acc",
            "share",
            ran.iter().map(|q| q.1).sum::<f64>() / n,
        ),
    ]
}

/// One traced sweep: per-layer times, untraced base time and work counts,
/// summed over the sweep's successful runs.
struct TracedSweep {
    /// Wall seconds.
    times: LayerTimes,
    /// Wall seconds.
    untraced_s: f64,
    counts: Counts,
    /// Successful runs (an input whose selection fails is left out).
    runs: u32,
    /// Wall to reference seconds.
    scale: f64,
}

/// Traced timing: each case runs untraced, then traced, per sweep. Times
/// and counts are reported per successful run, rates per unit of work.
fn per_layer(
    setups: &[SetupTimes],
    cases: &[Case],
    seconds: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let mut sweeps: Vec<TracedSweep> = Vec::new();
    let mut speed = SpeedProbe::start();
    let window = Stopwatch::start();
    while sweeps.is_empty() || window.elapsed_s() < seconds {
        let mut sweep = TracedSweep {
            times: LayerTimes::default(),
            untraced_s: 0.0,
            counts: Counts::default(),
            runs: 0,
            scale: 1.0,
        };
        for (i, case) in cases.iter().enumerate() {
            if !tally.ok(i) {
                continue;
            }
            let (result, _, run_s) = untraced(case);
            let outcome = result
                .and_then(|report| traced(case, &report))
                .map(|(times, counts)| {
                    sweep.untraced_s += run_s;
                    sweep.times.accumulate(&times);
                    sweep.counts.accumulate(&counts);
                    sweep.runs += 1;
                });
            tally.record(i, case, outcome);
        }
        sweep.scale = speed.scale();
        if sweeps
            .first()
            .is_some_and(|first| first.counts != sweep.counts)
        {
            tally.wrong += 1;
            eprintln!("perfbench: wrong output: work counts differ between sweeps");
        }
        sweeps.push(sweep);
    }
    let per_sweep = |f: &dyn Fn(&TracedSweep) -> f64| median(sweeps.iter().map(f));
    let per_run = |f: &dyn Fn(&TracedSweep) -> f64| per_sweep(&|s| f(s) / f64::from(s.runs));
    let seconds = |layer: Layer| per_run(&|s| s.scale * s.times.get(layer));
    let (counts, runs) = (sweeps[0].counts, f64::from(sweeps[0].runs));
    let ns_per = |layer: Layer, units: u64| {
        per_sweep(&|s| 1e9 * s.scale * s.times.get(layer) / units.max(1) as f64)
    };
    let epochs = SelectorConfig::default().cpe.epochs as u64;
    let mut metrics = vec![
        metric(
            "crowd_sim.generate_s",
            "s",
            median(setups.iter().map(|s| s.generate_s)),
        ),
        metric(
            "crowd_sim.platform_s",
            "s",
            median(setups.iter().map(|s| s.platform_s)),
        ),
    ];
    for layer in Layer::ALL {
        metrics.push(metric(layer.metric(), "s", seconds(layer)));
    }
    let coverage = per_sweep(&|s| s.times.named_s() / s.times.total_s);
    metrics.extend([
        metric(
            "loop.other_s",
            "s",
            per_run(&|s| s.scale * s.times.other_s()),
        ),
        metric(
            "cpe.observations",
            "count",
            counts.observations as f64 / runs,
        ),
        metric(
            "cpe.unique_masks",
            "count",
            counts.unique_masks as f64 / runs,
        ),
        metric(
            "cpe.ns_per_obs_epoch",
            "ns",
            ns_per(Layer::CpeUpdate, counts.observations * epochs),
        ),
        metric(
            "cpe.ns_per_obs_predict",
            "ns",
            ns_per(Layer::CpePredict, counts.observations),
        ),
        metric("lge.workers", "count", counts.lge_fits as f64 / runs),
        metric("lge.ns_per_fit", "ns", ns_per(Layer::Lge, counts.lge_fits)),
        metric("crowd_sim.answers", "count", counts.answers as f64 / runs),
        metric(
            "crowd_sim.ns_per_answer",
            "ns",
            ns_per(Layer::Assign, counts.answers),
        ),
        metric("crowd_sim.joined", "count", counts.joined as f64 / runs),
        metric("crowd_sim.departed", "count", counts.departed as f64 / runs),
        metric(
            "trace.select_s",
            "s",
            per_run(&|s| s.scale * s.times.total_s),
        ),
        metric(
            "trace.untraced_s",
            "s",
            per_run(&|s| s.scale * s.untraced_s),
        ),
        metric(
            "trace.overhead",
            "ratio",
            per_sweep(&|s| s.times.total_s / s.untraced_s - 1.0),
        ),
        metric("trace.coverage", "ratio", coverage),
        metric("machine.speed", "ratio", per_sweep(&|s| s.scale)),
    ]);
    if coverage < 0.9 {
        eprintln!(
            "perfbench: loop.other_s is {:.1}% of the traced run",
            100.0 * (1.0 - coverage)
        );
    }
    metrics
}

/// Renders the result line. `correct` means every output the program
/// produced passed its checks and every metric could be measured; runs that
/// returned an error count in `failed` only.
fn render(tally: &Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        finite && tally.wrong == 0,
        tally.attempted(),
        tally.failed(),
        body.join(", ")
    )
}

fn run(args: &Args) -> Result<String, SelectionError> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut cases = Vec::new();
    let mut speed = SpeedProbe::start();
    for _ in 0..SETUP_REPEATS {
        // Drop the previous inputs first so each set-up allocates afresh.
        cases.clear();
        let setup = set_up(args.workload, args.seed, Scale::Full)?;
        times.push(setup.times.scaled(speed.scale()));
        cases = setup.cases;
    }
    let mut tally = Tally::new(cases.len());
    let metrics = if args.trace {
        per_layer(&times, &cases, args.seconds, &mut tally)
    } else {
        end_to_end(args.workload, &times, &cases, args.seconds, &mut tally)
    };
    Ok(render(&tally, &metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
