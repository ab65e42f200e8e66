//! End-to-end host-time benchmark of vHadoop-rs.
//!
//! ```text
//! perfbench --workload <wordcount|tpcxhs|datacenter|whatif> --seed <n>
//!           --seconds <s> --trace <0|1> [--rev <git rev>] [--rustc <version>]
//! ```
//!
//! Repeats one workload, set up afresh each time, for about `--seconds`
//! seconds on this single thread. With `--trace 0` every repetition goes
//! through the plain entry points and the end-to-end metrics are printed;
//! with `--trace 1` plain and traced repetitions alternate and the
//! per-layer metrics are printed. End-to-end times are corrected for the
//! machine's speed with the calibration kernel of [`calib`]. Every
//! repetition is checked; the last line of stdout is one JSON object, and
//! the exit code is 1 when any check failed.

mod calib;
mod probe;
mod workloads;

use std::time::Instant;

use probe::Probe;
use workloads::{Datacenter, Sim, Tpcxhs, Traced, Whatif, Wordcount, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        rev: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--rev" => args.rev = value,
            "--rustc" => args.rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Setups cost micro- to milliseconds, too little to time one at a time:
/// each sample times a batch of back-to-back setups, up to this many, or
/// fewer once the batch has lasted `SETUP_BATCH_S`.
const SETUP_BATCH: usize = 32;
const SETUP_BATCH_S: f64 = 0.005;

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    digest: Option<String>,
}

impl Checks {
    /// Records one repetition's gate, and checks that every repetition of
    /// the process simulated exactly the same thing.
    fn record(&mut self, label: &str, sim: Sim) {
        self.attempted += 1;
        let mut check = sim.check;
        match &self.digest {
            None => {
                println!(
                    "digest {:016x}",
                    workloads::fnv(sim.digest.as_bytes(), workloads::FNV_SEED)
                );
                for line in sim.digest.lines() {
                    println!("  {line}");
                }
                self.digest = Some(sim.digest);
            }
            Some(d) if *d != sim.digest => {
                check = check.and(Err("simulated digest differs from the first repetition".into()))
            }
            Some(_) => {}
        }
        if let Err(e) = check {
            self.failed += 1;
            println!("FAILED {label} repetition {}: {e}", self.attempted);
        }
    }
}

/// Seconds since `t`.
fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Seconds per setup over one batch. The states are held until the batch
/// is timed, so that their teardown is not counted.
fn setup_batch<W: Workload>(w: &W) -> f64 {
    let mut held = Vec::with_capacity(SETUP_BATCH);
    let t = Instant::now();
    while held.len() < SETUP_BATCH && (held.is_empty() || since(t) < SETUP_BATCH_S) {
        held.push(w.setup());
    }
    since(t) / held.len() as f64
}

/// Repeats the workload for about `args.seconds`. Each repetition gauges
/// the machine's speed with [`calib`] first, times a batch of setups, then
/// sets up afresh and times the run; with `--trace 1` a traced repetition
/// follows each plain one. Each repetition's peak resident set is counted
/// from after its gauge.
fn bench<W: Workload>(w: &W, args: &Args) -> (Checks, Vec<Metric>) {
    println!("config {}", w.describe());
    let start = Instant::now();
    let mut checks = Checks::default();
    let (mut gauge_s, mut setup_s, mut run_s, mut run_cpu_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut traced_run_s, mut layers): (Vec<f64>, Vec<Vec<Metric>>) = (Vec::new(), Vec::new());
    let (mut last_rep, mut rss_mb) = (0.0, Vec::new());
    while checks.attempted == 0 || since(start) + last_rep <= args.seconds {
        let rep = Instant::now();
        gauge_s.push(calib::gauge_s());
        probe::reset_peak_rss();
        setup_s.push(setup_batch(w));
        let st = w.setup();
        let (t, cpu) = (Instant::now(), probe::thread_cpu_s());
        let out = w.run(st);
        run_s.push(since(t));
        if let (Some(a), Some(b)) = (cpu, probe::thread_cpu_s()) {
            run_cpu_s.push(b - a);
        }
        checks.record("plain", w.verdict(out, None));
        if args.trace {
            probe::reset();
            let mut tr = Traced::default();
            let st = w.setup();
            let t = Instant::now();
            let out = w.run_traced(st, &mut tr);
            let secs = since(t) - tr.excluded_ns as f64 / 1e9;
            let sim = w.verdict(out, Some(&mut tr));
            let metrics = layer_metrics(&tr, secs, *run_s.last().expect("a plain run came first"));
            let coverage = metrics.iter().find(|m| m.0 == "trace.coverage").map_or(0.0, |m| m.1);
            let gate = if coverage < 0.9 {
                Err(format!("layer times cover only {:.1} % of the traced run", coverage * 100.0))
            } else {
                sim.check
            };
            checks.record("traced", Sim { digest: sim.digest, check: gate });
            traced_run_s.push(secs);
            layers.push(metrics);
        }
        rss_mb.push(probe::peak_rss_mb().unwrap_or(0.0));
        last_rep = since(rep);
    }
    gauge_s.push(calib::gauge_s());
    let fmt = |xs: &[f64]| xs.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ");
    let fmt_us =
        |xs: &[f64]| xs.iter().map(|x| format!("{:.2}", x * 1e6)).collect::<Vec<_>>().join(" ");
    println!("run_s samples ({}): {}", run_s.len(), fmt(&run_s));
    println!("thread CPU seconds of the same runs: {}", fmt(&run_cpu_s));
    println!("calibration kernel seconds before each, and after the last: {}", fmt(&gauge_s));
    println!("setup_s samples, microseconds per setup ({}): {}", setup_s.len(), fmt_us(&setup_s));
    println!("peak resident MB of each: {}", fmt(&rss_mb));
    // Each time scaled to the machine speed at which the calibration
    // kernel takes `calib::REFERENCE_S`. The speed during repetition `i` is
    // the mean of the kernel runs that bracket it, `i` and `i + 1`.
    let corrected = |xs: &[f64]| {
        let scaled: Vec<f64> = xs
            .iter()
            .zip(gauge_s.windows(2))
            .map(|(x, g)| x * calib::REFERENCE_S * 2.0 / (g[0] + g[1]))
            .collect();
        median(&scaled)
    };
    if args.trace {
        println!("traced run_s samples ({}): {}", traced_run_s.len(), fmt(&traced_run_s));
        // Every traced repetition yields the same metric names in the same
        // order; report each metric's median over the repetitions.
        let mut metrics: Vec<Metric> = layers[0]
            .iter()
            .enumerate()
            .map(|(i, &(name, _, unit))| {
                (name, median(&layers.iter().map(|l| l[i].1).collect::<Vec<_>>()), unit)
            })
            .collect();
        metrics.extend([
            ("wall.run_s", median(&run_s), "s"),
            ("wall.setup_s", median(&setup_s), "s"),
            ("wall.calib_s", median(&gauge_s), "s"),
            ("fail_ratio", checks.failed as f64 / checks.attempted as f64, "ratio"),
        ]);
        return (checks, metrics);
    }
    let metrics = vec![
        ("run_s", corrected(&run_s), "s"),
        ("setup_s", corrected(&setup_s), "s"),
        ("peak_rss_mb", median(&rss_mb), "MB"),
    ];
    (checks, metrics)
}

/// Per-layer metrics of one traced repetition that took `run_s` (the
/// plain repetition just before it took `plain_run_s`).
fn layer_metrics(tr: &Traced, run_s: f64, plain_run_s: f64) -> Vec<Metric> {
    let t = probe::tally;
    let app_s = t(Probe::Map).secs() + t(Probe::Combine).secs() + t(Probe::Reduce).secs();
    let input_s = t(Probe::InputRead).secs() + t(Probe::InputGen).secs();
    let route_s = t(Probe::Route).secs();
    let self_s = route_s - app_s - t(Probe::InputRead).secs() - t(Probe::Partition).secs();
    let wakeup_s = t(Probe::NextWakeup).secs();
    let step_s = tr.steps.0.iter().sum::<u64>() as f64 / 1e9;
    let round_s = tr.whatif_round_ns as f64 / 1e9;
    let covered =
        wakeup_s + route_s + t(Probe::InputGen).secs() + t(Probe::Validate).secs() + step_s;
    let share = |x: f64| if run_s > 0.0 { x / run_s } else { 0.0 };
    let c = &tr.counters;
    let k = &tr.kernel;
    // The highest step-latency percentile with at least ten samples beyond it.
    let steps = tr.steps.0.len() as f64;
    let tail_pct = [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| steps * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    let persist = tr.persist.as_ref();
    vec![
        ("workloads.input_s", input_s, "s"),
        ("workloads.input_splits", t(Probe::InputRead).calls as f64, "count"),
        ("workloads.validate_s", t(Probe::Validate).secs(), "s"),
        ("app.map_s", t(Probe::Map).secs(), "s"),
        ("app.map_calls", t(Probe::Map).calls as f64, "count"),
        ("app.combine_s", t(Probe::Combine).secs(), "s"),
        ("app.combine_calls", t(Probe::Combine).calls as f64, "count"),
        ("app.reduce_s", t(Probe::Reduce).secs(), "s"),
        ("app.reduce_calls", t(Probe::Reduce).calls as f64, "count"),
        ("mapreduce.partition_s", t(Probe::Partition).secs(), "s"),
        ("mapreduce.partition_calls", t(Probe::Partition).calls as f64, "count"),
        ("mapreduce.route_s", route_s, "s"),
        ("mapreduce.self_s", self_s, "s"),
        ("mapreduce.self_share", share(self_s), "ratio"),
        ("mapreduce.map_output_records", c.map_output_records as f64, "count"),
        ("mapreduce.combine_output_records", c.combine_output_records as f64, "count"),
        ("mapreduce.combine_ratio", c.combine_ratio(), "ratio"),
        ("mapreduce.shuffle_mb", c.shuffle_bytes as f64 / (1 << 20) as f64, "MB"),
        ("mapreduce.reduce_input_groups", c.reduce_input_groups as f64, "count"),
        ("simcore.next_wakeup_s", wakeup_s, "s"),
        ("simcore.next_wakeup_share", share(wakeup_s), "ratio"),
        ("simcore.wakeups", k.wakeups as f64, "count"),
        ("simcore.wakeup_us_p50", tr.wakeups.us(50.0), "us"),
        ("simcore.wakeup_us_p99", tr.wakeups.us(99.0), "us"),
        ("simcore.reallocations", k.reallocations as f64, "count"),
        (
            "simcore.flows_per_realloc",
            k.flows_touched as f64 / k.reallocations.max(1) as f64,
            "count",
        ),
        ("simcore.batch_applied", k.batch_applied as f64, "count"),
        ("simcore.comp_size_max", k.comp_size_max as f64, "count"),
        ("vhadoop.step_s", step_s, "s"),
        ("vhadoop.steps", steps, "count"),
        ("vhadoop.step_us_p50", tr.steps.us(50.0), "us"),
        ("vhadoop.step_us_ptail", tr.steps.us(tail_pct), "us"),
        ("vhadoop.step_tail_pct", tail_pct, "%"),
        ("vsched.whatif_rounds", tr.whatif_rounds as f64, "count"),
        ("vsched.whatif_candidates", tr.whatif_candidates as f64, "count"),
        ("vsched.whatif_round_s", round_s, "s"),
        ("vsched.whatif_share", share(round_s), "ratio"),
        ("vsched.rebalance_ticks", tr.ctrl.rebalance_ticks as f64, "count"),
        ("vsched.migrations_completed", tr.ctrl.migrations_completed as f64, "count"),
        ("persist.snapshot_s", persist.map_or(0.0, |p| p.snapshot_s), "s"),
        ("persist.restore_s", persist.map_or(0.0, |p| p.restore_s), "s"),
        ("persist.fork_s", persist.map_or(0.0, |p| p.fork_s), "s"),
        ("persist.snapshot_mb", persist.map_or(0.0, |p| p.snapshot_mb), "MB"),
        ("trace.run_s", run_s, "s"),
        ("trace.overhead_s", run_s - plain_run_s, "s"),
        ("trace.coverage", share(covered), "ratio"),
    ]
}

fn run(args: &Args) -> Result<(Checks, Vec<Metric>), String> {
    let s = args.seed;
    Ok(match args.workload.as_str() {
        "wordcount" => bench(&Wordcount::new(s), args),
        "tpcxhs" => bench(&Tpcxhs::new(s), args),
        "datacenter" => bench(&Datacenter::new(s), args),
        "whatif" => bench(&Whatif::new(s), args),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) if !a.workload.is_empty() && a.seconds > 0.0 => a,
        Ok(_) => {
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "info {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rev\": {}, \"rustc\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&args.rev),
        json_str(&args.rustc)
    );
    let (checks, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "fail_ratio {} ({} of {})",
        checks.failed as f64 / checks.attempted as f64,
        checks.failed,
        checks.attempted
    );
    for (name, value, unit) in &metrics {
        println!("metric {name:<34} {value:>16.6} {unit}");
    }
    let body = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
