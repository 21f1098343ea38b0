//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <collapsed|cr_queries|centralized|chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times `DistributedDriver::run` passes and prints the
//! end-to-end metrics; `--trace 1` prints the per-layer split from a traced
//! sequential replay (see `replay.rs`). The last line of standard output is
//! one JSON object; everything before it is a human-readable report. The
//! exit code is non-zero when any pass fails its correctness check. See
//! `perfbench/README.md` for the workloads and the metric map.

mod digest;
mod replay;
mod workload;

use digest::digest;
use replay::{replay, ReplayOutcome, Span};
use rfid_bench::distributed::{alert_f_measure, chain_containment_error};
use rfid_dist::{DistributedDriver, DistributedOutcome, MessageKind};
use rfid_query::Alert;
use rfid_sim::{ChainTrace, FaultPlan};
use rfid_types::{ContainmentMap, Epoch};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::Workload;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest timed passes (or traced replays) per run, whatever `--seconds`.
const MIN_PASSES: usize = 3;
/// Sanity floors against ground truth, far below what any seed reaches: a
/// pass under them is broken, not merely less accurate.
const MIN_ACCURACY_PCT: f64 = 80.0;
/// Alert F-measure floor of the query workloads.
const MIN_ALERT_F1_PCT: f64 = 50.0;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
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
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Median of a non-empty sample (the mean of the middle two for even n).
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest whole percentile of an `n`-sample that still has ten samples
/// beyond it (zero when there are ten samples or fewer).
fn tail_percentile(n: usize) -> f64 {
    (100 * n.saturating_sub(10) / n.max(1)) as f64
}

/// Nearest-rank percentile `p` (0–100) of a non-empty sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Busy and stolen CPU time of the whole machine so far, from the `cpu`
/// line of `/proc/stat`, in clock ticks: `(busy + idle + steal, steal)`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Share (%) of CPU time the hypervisor stole between two `cpu_ticks`.
fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    100.0 * ratio((after.1 - before.1) as f64, (after.0 - before.0) as f64)
}

/// `/proc/stat` counts in `USER_HZ` ticks, which Linux fixes at 100 per
/// second for user space.
const TICKS_PER_S: f64 = 100.0;

/// Run `f` and return its result, its wall-clock seconds, and those seconds
/// less the CPU time the hypervisor stole from this machine meanwhile.
///
/// On a shared VM the stolen share swings from 0 to over 20% for minutes
/// at a time. The parallel executor stalls whenever either of its threads'
/// CPUs is stolen, so one such stretch slows a `collapsed` pass by up to
/// 1.8×. Subtracting the stolen time measures the pass as a dedicated
/// machine would run it; the raw wall-clock is printed beside it.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let ticks = cpu_ticks();
    let started = Instant::now();
    let value = f();
    let wall = started.elapsed().as_secs_f64();
    let stolen = (cpu_ticks().1 - ticks.1) as f64 / TICKS_PER_S;
    (value, wall, wall - stolen)
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    let mut command = Command::new(program);
    command.args(args);
    // Keep `git` from searching above the working directory.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One named metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Collects the result metrics in print order.
#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn print_report(&self) {
        for m in &self.0 {
            println!("  {:<34} {:>16} {}", m.name, m.value, m.unit);
        }
    }

    fn json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// The workload's inputs and driver, built once per set-up repetition.
struct Setup {
    chain: ChainTrace,
    plan: Option<FaultPlan>,
    driver: DistributedDriver,
    /// Median seconds of the whole set-up.
    setup_s: f64,
    /// Median seconds of chain generation alone.
    chain_s: f64,
    /// Median seconds of fault-plan generation alone (zero without faults).
    plan_s: f64,
}

fn set_up(workload: Workload, seed: u64, nproc: usize) -> Setup {
    let mut totals = Vec::new();
    let mut chains = Vec::new();
    let mut plans = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let chain = workload::generate_chain(seed);
        let chain_s = started.elapsed().as_secs_f64();
        let plan_started = Instant::now();
        let plan = (workload == Workload::Chaos).then(|| workload::chaos_plan(seed));
        let plan_s = if plan.is_some() {
            plan_started.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let driver = DistributedDriver::new(workload::driver_config(
            workload,
            &chain,
            workload::workers(workload, nproc),
            plan.as_ref(),
        ));
        totals.push(started.elapsed().as_secs_f64());
        chains.push(chain_s);
        plans.push(plan_s);
        last = Some((chain, plan, driver));
    }
    let (chain, plan, driver) = last.expect("at least one set-up repetition");
    Setup {
        chain,
        plan,
        driver,
        setup_s: median(&totals),
        chain_s: median(&chains),
        plan_s: median(&plans),
    }
}

/// The correctness verdict of one driver pass, or why it failed: the
/// digest must match, accuracy and alert F-measure must clear their floors,
/// and a chaos pass must satisfy every invariant oracle.
fn check_pass(
    chain: &ChainTrace,
    outcome: &DistributedOutcome,
    expected: u64,
    truth: Option<&[Alert]>,
    audit: bool,
) -> Result<(), String> {
    let got = digest(outcome);
    if got != expected {
        return Err(format!("digest {got:016x} != expected {expected:016x}"));
    }
    let accuracy = 100.0 - chain_containment_error(chain, outcome);
    if accuracy < MIN_ACCURACY_PCT {
        return Err(format!(
            "containment accuracy {accuracy:.2}% < {MIN_ACCURACY_PCT}%"
        ));
    }
    if let Some(truth) = truth {
        let f1 = alert_f_measure(truth, &outcome.alerts);
        if f1 < MIN_ALERT_F1_PCT {
            return Err(format!("alert F-measure {f1:.2}% < {MIN_ALERT_F1_PCT}%"));
        }
    }
    if audit {
        rfid_dist::audit(chain, outcome).map_err(|v| v.to_string())?;
    }
    Ok(())
}

/// Pass bookkeeping shared by both modes.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn record(&mut self, label: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: {label} failed its correctness check: {why}");
        }
    }
}

fn provenance(args: &Args, nproc: usize, passes: usize, chain: &ChainTrace) {
    println!(
        "# perfbench workload={} trace={} scale=Default sites={} seed={} nproc={} passes={} \
         readings={} transfers={} objects={} git={} rustc=\"{}\"",
        args.workload.name(),
        u8::from(args.trace),
        chain.sites.len(),
        args.seed,
        nproc,
        passes,
        chain.total_readings(),
        chain.transfers.len(),
        chain.objects().len(),
        command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        command_line("rustc", &["--version"]),
    );
}

/// `--trace 0`: timed driver passes and the end-to-end metrics.
fn run_end_to_end(args: &Args, nproc: usize) -> (Metrics, Tally) {
    let workload = args.workload;
    let setup = set_up(workload, args.seed, nproc);
    let chain = &setup.chain;
    let truth: Vec<Alert> = workload::truth_alerts(workload, chain);
    let audits = workload == Workload::Chaos;
    let gated_truth = workload.has_queries().then_some(truth.as_slice());
    let mut tally = Tally::default();

    // Reference digest: one sequential pass. On `collapsed` every timed
    // multi-worker pass must reproduce it bit for bit.
    let reference_config = workload::driver_config(workload, chain, 1, setup.plan.as_ref());
    let reference = DistributedDriver::new(reference_config).run(chain);
    let expected = digest(&reference);
    tally.record(
        "reference pass",
        check_pass(chain, &reference, expected, gated_truth, audits),
    );

    // Warm-up pass, checked but not timed.
    let warm = setup.driver.run(chain);
    tally.record(
        "warm-up pass",
        check_pass(chain, &warm, expected, gated_truth, audits),
    );

    let mut times = Vec::new();
    let mut walls = Vec::new();
    let mut last = warm;
    let ticks = cpu_ticks();
    let started = Instant::now();
    while times.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let (outcome, wall, unstolen) = timed(|| setup.driver.run(chain));
        walls.push(wall);
        times.push(unstolen);
        let label = format!("pass {}", times.len());
        tally.record(
            &label,
            check_pass(chain, &outcome, expected, gated_truth, audits),
        );
        last = std::hint::black_box(outcome);
    }

    provenance(args, nproc, times.len(), chain);
    let run_s = median(&times);
    let tail = tail_percentile(times.len());
    let mut metrics = Metrics::default();
    metrics.add("run_s", run_s, "s");
    metrics.add(
        "readings_per_s",
        chain.total_readings() as f64 / run_s,
        "1/s",
    );
    metrics.add("setup_s", setup.setup_s, "s");
    metrics.add(
        "containment_accuracy_pct",
        100.0 - chain_containment_error(chain, &last),
        "%",
    );
    metrics.add("alert_f1_pct", alert_f_measure(&truth, &last.alerts), "%");
    metrics.add("comm_bytes", last.comm.total_bytes() as f64, "bytes");
    metrics.add("comm_messages", last.comm.total_messages() as f64, "count");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MiB");
    println!(
        "# run_s: median of {} passes less stolen time (p{tail} {:.4} s); raw wall-clock median \
         {:.4} s (p{tail} {:.4} s); steal {:.1}%; failed_pct {:.2}; alerts {} (truth {}); digest {:016x}",
        times.len(),
        percentile(&times, tail),
        median(&walls),
        percentile(&walls, tail),
        steal_pct(ticks, cpu_ticks()),
        100.0 * ratio(tally.failed as f64, tally.attempted as f64),
        last.alerts.len(),
        truth.len(),
        expected,
    );
    (metrics, tally)
}

/// Containment error (%) of a containment map against the chain's ground
/// truth at the horizon — `chain_containment_error` for a replay outcome.
fn containment_error(chain: &ChainTrace, containment: &ContainmentMap) -> f64 {
    let end = Epoch(chain.sites[0].meta.length);
    let objects = chain.objects();
    let wrong = objects
        .iter()
        .filter(|&&o| containment.container_of(o) != chain.containment.container_at(o, end))
        .count();
    100.0 * ratio(wrong as f64, objects.len() as f64)
}

/// Print the replay's deterministic results next to the driver's and name
/// every field that differs.
fn fidelity(chain: &ChainTrace, replayed: &ReplayOutcome, driver: &DistributedOutcome) {
    let mut differs = Vec::new();
    if replayed.containment != driver.containment {
        differs.push("containment".to_string());
    }
    if replayed.inference_runs != driver.inference_runs {
        differs.push("inference_runs".to_string());
    }
    if replayed.alerts != driver.alerts {
        differs.push("alerts".to_string());
    }
    println!(
        "# fidelity {:<16} {:>12} {:>12}",
        "field", "replay", "driver"
    );
    let replay_accuracy = 100.0 - containment_error(chain, &replayed.containment);
    let driver_accuracy = 100.0 - containment_error(chain, &driver.containment);
    println!(
        "# fidelity {:<16} {:>12.4} {:>12.4}",
        "containment_%", replay_accuracy, driver_accuracy
    );
    println!(
        "# fidelity {:<16} {:>12} {:>12}",
        "inference_runs", replayed.inference_runs, driver.inference_runs
    );
    println!(
        "# fidelity {:<16} {:>12} {:>12}",
        "alerts",
        replayed.alerts.len(),
        driver.alerts.len()
    );
    for kind in MessageKind::ALL {
        let (r, d) = (
            replayed.comm.bytes_of_kind(kind),
            driver.comm.bytes_of_kind(kind),
        );
        println!("# fidelity {:<16} {:>12} {:>12}", format!("{kind:?}"), r, d);
        if r != d || replayed.comm.messages_of_kind(kind) != driver.comm.messages_of_kind(kind) {
            differs.push(format!("{kind:?}"));
        }
    }
    if differs.is_empty() {
        println!("# fidelity: replay matches the driver on every field");
    } else {
        println!(
            "# fidelity: replay differs from the driver in {}",
            differs.join(", ")
        );
    }
}

/// `--trace 1`: the per-layer split from traced replays.
fn run_traced(args: &Args, nproc: usize) -> (Metrics, Tally) {
    let workload = args.workload;
    let setup = set_up(workload, args.seed, nproc);
    let chain = &setup.chain;
    let mut tally = Tally::default();

    // The workload's own pass: its communication bill, transport counters
    // and the oracle audit, timed outside any pass.
    let outcome = setup.driver.run(chain);
    let audit_started = Instant::now();
    let audited = rfid_dist::audit(chain, &outcome);
    let audit_s = audit_started.elapsed().as_secs_f64();
    tally.record("workload pass", audited.map_err(|v| v.to_string()));

    // The replay mirrors the sequential fault-free run of the same
    // configuration; time that run untraced beside it.
    let baseline_driver = DistributedDriver::new(workload::driver_config(workload, chain, 1, None));
    let plan = setup.plan.as_ref();
    let mut baseline_times = Vec::new();
    let mut baseline_walls = Vec::new();
    let mut replays: Vec<ReplayOutcome> = Vec::new();
    let mut baseline = None;
    let started = Instant::now();
    while replays.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let (run, wall, unstolen) = timed(|| baseline_driver.run(chain));
        baseline_walls.push(wall);
        baseline_times.push(unstolen);
        let expected = *baseline.get_or_insert_with(|| digest(&run));
        tally.record(
            "baseline pass",
            check_pass(chain, &run, expected, None, false),
        );
        let replayed = replay(chain, baseline_driver.config(), plan);
        let same = replays.first().is_none_or(|first| {
            first.containment == replayed.containment
                && first.comm == replayed.comm
                && first.alerts == replayed.alerts
                && first.trace.payload_bytes == replayed.trace.payload_bytes
        });
        tally.record(
            "traced replay",
            if same {
                Ok(())
            } else {
                Err("replay is not deterministic".into())
            },
        );
        if replays.is_empty() {
            fidelity(chain, &replayed, &run);
        }
        replays.push(replayed);
    }
    provenance(args, nproc, replays.len(), chain);

    // Report every time from the replay with the median total, so the
    // layer self times sum exactly to its end-to-end time.
    replays.sort_by(|a, b| a.total_s.total_cmp(&b.total_s));
    let mid = &replays[replays.len() / 2];
    let t = &mid.trace;
    let infer_ms: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.trace.infer_ms.iter().copied())
        .collect();
    let sequential_s = median(&baseline_times);
    let sequential_wall_s = median(&baseline_walls);
    let traced_s = median(&replays.iter().map(|r| r.total_s).collect::<Vec<_>>());

    let mut m = Metrics::default();
    m.add("sim.chain_generate_s", setup.chain_s, "s");
    m.add("sim.fault_plan_s", setup.plan_s, "s");
    for span in Span::ALL {
        m.add(span.metric(), t.busy_s(span), "s");
    }
    m.add("core.infer_calls", t.infer_ms.len() as f64, "count");
    m.add("core.infer_ms.p50", percentile(&infer_ms, 50.0), "ms");
    m.add("core.infer_ms.p90", percentile(&infer_ms, 90.0), "ms");
    m.add("core.infer_ms.samples", infer_ms.len() as f64, "count");
    let s = &t.stats;
    m.add(
        "core.posteriors_computed",
        s.posteriors_computed as f64,
        "count",
    );
    m.add(
        "core.posteriors_reused",
        s.posteriors_reused as f64,
        "count",
    );
    m.add(
        "core.posterior_reuse_ratio",
        s.posterior_reuse_fraction(),
        "ratio",
    );
    m.add(
        "core.evidence_computed",
        s.evidence_computed as f64,
        "count",
    );
    m.add("core.evidence_reused", s.evidence_reused as f64, "count");
    m.add(
        "core.evidence_reuse_ratio",
        s.evidence_reuse_fraction(),
        "ratio",
    );
    m.add("core.dirty_tags", s.dirty_tags as f64, "count");
    m.add(
        "core.retained_observations",
        t.retained_observations as f64,
        "count",
    );
    m.add("core.engine_wall_s", t.engine_wall.as_secs_f64(), "s");
    m.add("query.events", t.query_events as f64, "count");
    m.add("query.alerts", mid.alerts.len() as f64, "count");
    m.add("query.shared_bytes", mid.shared_bytes as f64, "bytes");
    m.add("query.unshared_bytes", mid.unshared_bytes as f64, "bytes");
    m.add(
        "query.sharing_ratio",
        ratio(mid.shared_bytes as f64, mid.unshared_bytes as f64),
        "ratio",
    );
    m.add("wire.payloads", t.payloads as f64, "count");
    m.add("wire.payload_bytes", t.payload_bytes as f64, "bytes");
    m.add("wire.checkpoints", t.checkpoints as f64, "count");
    m.add("wire.checkpoint_bytes", t.checkpoint_bytes as f64, "bytes");
    m.add("wire.restores", t.restores as f64, "count");
    m.add("dist.self_s", mid.dist_s - t.children_s(), "s");
    m.add("dist.sequential_run_s", sequential_s, "s");
    for kind in MessageKind::ALL {
        let name = kind_name(kind);
        m.add(
            format!("dist.bytes.{name}"),
            outcome.comm.bytes_of_kind(kind) as f64,
            "bytes",
        );
        m.add(
            format!("dist.messages.{name}"),
            outcome.comm.messages_of_kind(kind) as f64,
            "count",
        );
    }
    let ts = &outcome.transport;
    for (name, value) in [
        ("envelopes", ts.envelopes),
        ("transmissions", ts.transmissions),
        ("retransmissions", ts.retransmissions),
        ("acks", ts.acks),
        ("duplicates_dropped", ts.duplicates_dropped),
        ("reconciled", ts.reconciled),
        ("stale_dropped", ts.stale_dropped),
        ("abandoned", ts.abandoned),
        ("resyncs", ts.resyncs),
        ("quarantined", ts.quarantined),
    ] {
        m.add(format!("dist.transport.{name}"), value as f64, "count");
    }
    m.add(
        "dist.transport.failed_ratio",
        ratio((ts.abandoned + ts.quarantined) as f64, ts.envelopes as f64),
        "ratio",
    );
    m.add("dist.oracle_audit_s", audit_s, "s");
    m.add("traced_run_s", mid.total_s, "s");
    m.add("unattributed_s", mid.total_s - mid.dist_s, "s");
    m.add(
        "trace_overhead_pct",
        100.0 * ratio(traced_s - sequential_wall_s, sequential_wall_s),
        "%",
    );
    (m, tally)
}

/// Metric-name form of a message kind.
fn kind_name(kind: MessageKind) -> &'static str {
    match kind {
        MessageKind::RawReadings => "raw_readings",
        MessageKind::InferenceState => "inference_state",
        MessageKind::QueryState => "query_state",
        MessageKind::OnsUpdate => "ons_update",
        MessageKind::Control => "control",
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <collapsed|cr_queries|centralized|chaos> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (metrics, tally) = if args.trace {
        run_traced(&args, nproc)
    } else {
        run_end_to_end(&args, nproc)
    };
    metrics.print_report();
    let correct = tally.failed == 0;
    println!("{}", metrics.json(correct, tally.attempted, tally.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
