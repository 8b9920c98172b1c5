//! The gridsec benchmark: three seeded workloads timed end to end and,
//! in a separate traced run, layer by layer.
//!
//! ```text
//! perfbench --workload <login_storm|ws_messages|vo_messages> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! A run builds its world several times (the median is `setup_s`),
//! then runs rounds — fixed-size batches of operations — until
//! `--seconds` of wall time have passed. Every operation's verdict is
//! checked; any mismatch fails the run. With `--trace 1` rounds alternate
//! between untraced and traced, the traced ones give the per-layer
//! figures, and the throughput ratio of the two is the tracing overhead.
//!
//! End-to-end times are taken on the thread's CPU clock ([`clock`]) and
//! scaled by the machine's speed around each round or build, measured by
//! a fixed kernel ([`calib`]): they read as on the reference machine, so
//! runs taken while a shared host is busy compare with runs taken while
//! it is idle. The report prints the unscaled rates beside them.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; everything above it
//! is a human-readable report.

mod calib;
mod clock;
mod login_storm;
mod prof;
mod vo_messages;
mod ws_messages;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// World builds per run (`setup_s` is their median): at least
/// `MIN_SETUPS`, and more while they have taken less than `SETUP_BUDGET`,
/// so that a world that builds in milliseconds still gives a steady
/// median.
const MIN_SETUPS: usize = 7;
const MAX_SETUPS: usize = 100;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// The traced run fails when the spans explain less than this share of
/// the traced rounds' wall time.
const MAX_UNEXPLAINED: f64 = 0.10;

/// One batch of operations.
#[derive(Default)]
pub struct Round {
    /// Operations whose verdict was checked.
    pub attempted: u64,
    /// Operations whose verdict differed from the expected one.
    pub failed: u64,
    /// Operations that count as throughput (see each workload).
    pub ops: u64,
    /// Latency per timed operation on the CPU clock, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Application payload bytes delivered and verified.
    pub payload_bytes: u64,
    /// `testbed::net` messages delivered.
    pub net_msgs: u64,
}

/// A seeded workload.
pub trait Workload: Sized {
    /// Build the world for `seed`. `build` numbers the repeated set-ups
    /// of one run so that each generates its own key material.
    fn setup(seed: u64, build: u32) -> Self;
    /// Run round `index` to completion.
    fn round(&mut self, index: u64) -> Round;
    /// Per-layer counters and ratios from the traced rounds (`ops` is
    /// their operation count). Names must be in [`COUNTER_METRICS`].
    fn layer_metrics(&self, ops: u64) -> Vec<(&'static str, f64)>;
    /// Deterministic sim-time summary, if the workload has one.
    fn render(&self) -> String {
        String::new()
    }
}

/// Per-layer metrics that are not span timings: `(name, unit, better)`.
/// Span timings add `<span>.calls_per_op` and `<span>.self_us_per_op`
/// for every name in [`prof::NAMES`].
pub const COUNTER_METRICS: &[(&str, &str, &str)] = &[
    ("gssapi.poll.wave_size.p50", "count", "higher"),
    ("gssapi.poll.wave_size.max", "count", "higher"),
    ("tls.pool.validator_hit_ratio", "ratio", "higher"),
    ("tls.pool.binding_hit_ratio", "ratio", "higher"),
    ("wsse.wire_per_payload_byte", "ratio", "lower"),
    ("tls.wire_per_payload_byte", "ratio", "lower"),
    ("pki.crl_refusals_per_op", "1/op", "higher"),
    ("testbed.rpc.retransmissions_per_op", "1/op", "lower"),
    ("testbed.rpc.retx_ratio", "ratio", "lower"),
    ("testbed.net.drops_per_op", "1/op", "lower"),
    ("testbed.net.duplicates_per_op", "1/op", "lower"),
    ("testbed.net.messages_per_op", "1/op", "lower"),
    ("testbed.net.bytes_per_op", "B/op", "lower"),
    ("testbed.sched.steps_per_op", "1/op", "lower"),
    ("testbed.sched.mail_wakes_per_op", "1/op", "lower"),
    ("testbed.sched.timer_wakes_per_op", "1/op", "lower"),
    ("testbed.sched.live_high_water", "count", "lower"),
    ("trace.unexplained_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("calib.loops_per_s", "1/s", "higher"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
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

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match args.workload.as_str() {
        "login_storm" => run::<login_storm::LoginStorm>(&args),
        "ws_messages" => run::<ws_messages::WsMessages>(&args),
        "vo_messages" => run::<vo_messages::VoMessages>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            2
        }
    };
    std::process::exit(code);
}

/// One round's figures as measured, before scaling.
struct RoundFigures {
    /// Position of the round in the run: calibration slice `at` ran just
    /// before it and slice `at + 1` just after.
    at: usize,
    cpu_s: f64,
    wall_s: f64,
    ops: u64,
    net_msgs: u64,
    payload_bytes: u64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Rounds of one kind (traced or untraced): sums, and the per-round
/// figures whose medians are reported. Medians over rounds keep a run's
/// figures steady when the machine stalls for part of it.
#[derive(Default)]
struct Totals {
    rounds: u64,
    wall: Duration,
    attempted: u64,
    failed: u64,
    ops: u64,
    samples: usize,
    figures: Vec<RoundFigures>,
}

/// Medians over a kind's rounds: five figures scaled to the reference
/// machine, the machine's speed, and two unscaled rates.
struct Medians {
    ops_per_s: f64,
    net_msgs_per_s: f64,
    payload_mb_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    speed: f64,
    cpu_ops_per_s: f64,
    wall_ops_per_s: f64,
}

impl Totals {
    /// Add round number `at` of the run, which took `wall` and `cpu`.
    fn add(&mut self, at: usize, mut r: Round, wall: Duration, cpu: Duration) {
        self.rounds += 1;
        self.wall += wall;
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.ops += r.ops;
        self.samples += r.latencies_ms.len();
        r.latencies_ms.sort_by(f64::total_cmp);
        self.figures.push(RoundFigures {
            at,
            cpu_s: cpu.as_secs_f64(),
            wall_s: wall.as_secs_f64(),
            ops: r.ops,
            net_msgs: r.net_msgs,
            payload_bytes: r.payload_bytes,
            p50_ms: quantile(&r.latencies_ms, 0.50),
            p99_ms: quantile(&r.latencies_ms, 0.99),
        });
    }

    /// Medians over the rounds, each scaled by the machine's speed
    /// around it, from the run's calibration slices.
    fn medians(&self, slices: &[f64]) -> Medians {
        let each = |f: &dyn Fn(&RoundFigures, f64) -> f64| -> f64 {
            let values: Vec<f64> = self
                .figures
                .iter()
                .map(|r| f(r, speed_around(slices, r.at)))
                .collect();
            median(&values)
        };
        // `secs` is the time the round would have taken on the
        // reference machine.
        let secs = |r: &RoundFigures, speed: f64| r.cpu_s * speed;
        Medians {
            ops_per_s: each(&|r, s| r.ops as f64 / secs(r, s)),
            net_msgs_per_s: each(&|r, s| r.net_msgs as f64 / secs(r, s)),
            payload_mb_per_s: each(&|r, s| r.payload_bytes as f64 / 1e6 / secs(r, s)),
            p50_ms: each(&|r, s| r.p50_ms * s),
            p99_ms: each(&|r, s| r.p99_ms * s),
            speed: each(&|_, s| s),
            cpu_ops_per_s: each(&|r, _| r.ops as f64 / r.cpu_s),
            wall_ops_per_s: each(&|r, _| r.ops as f64 / r.wall_s),
        }
    }
}

/// The machine's speed around the work done between calibration slices
/// `at` and `at + 1`: the median of the two slices on either side. A
/// window of four keeps one slice's noise from moving the estimate.
fn speed_around(slices: &[f64], at: usize) -> f64 {
    let window = &slices[at.saturating_sub(1)..(at + 3).min(slices.len())];
    median(window)
}

/// Nearest-rank quantile of an ascending slice.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`) less the
/// calibration table, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| {
            (kb * 1024.0 - calib::TABLE_BYTES as f64) / (1024.0 * 1024.0)
        })
}

fn json_metrics(metrics: &[(String, &str, f64)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn run<W: Workload>(args: &Args) -> i32 {
    let mut meter = calib::Meter::new();
    let calibration = calib::score(&mut meter);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} calibration={:.2} loops/s",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        calibration
    );

    // Each build starts after the previous world is dropped: worlds
    // register thread-local precomputation that their drop releases. The
    // last build, which the timed phase uses, is always build 0, so the
    // inputs depend on the seed alone and not on how many builds ran.
    // A calibration slice runs before the first build and after every
    // build; each build's time is scaled by the speed around it.
    let mut setups = Vec::new();
    let mut spent = Duration::ZERO;
    let mut previous = None;
    let mut slices = vec![meter.speed()];
    let mut world = loop {
        let last = setups.len() + 1 >= MIN_SETUPS
            && (spent >= SETUP_BUDGET || setups.len() + 1 >= MAX_SETUPS);
        let build = if last { 0 } else { setups.len() as u32 + 1 };
        drop(previous.take());
        let t = Instant::now();
        let c = clock::now();
        let w = W::setup(args.seed, build);
        setups.push(c.elapsed().as_secs_f64());
        spent += t.elapsed();
        slices.push(meter.speed());
        if last {
            break w;
        }
        previous = Some(w);
    };
    let scaled_setups: Vec<f64> = setups
        .iter()
        .enumerate()
        .map(|(at, cpu_s)| cpu_s * speed_around(&slices, at))
        .collect();
    let setup_s = median(&scaled_setups);

    let mut plain = Totals::default();
    let mut traced = Totals::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    // The slice after the last build is the one before the first round.
    let mut slices = vec![*slices.last().expect("a slice ran")];
    let mut index = 0u64;
    loop {
        let on = args.trace && index % 2 == 1;
        prof::set_enabled(on);
        let t = Instant::now();
        let c = clock::now();
        let round = world.round(index);
        let cpu = c.elapsed();
        let wall = t.elapsed();
        prof::set_enabled(false);
        slices.push(meter.speed());
        if on { &mut traced } else { &mut plain }.add(index as usize, round, wall, cpu);
        index += 1;
        if start.elapsed() >= budget && (!args.trace || traced.rounds > 0) {
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();

    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let correct = failed == 0;
    let fail_ratio = failed as f64 / attempted.max(1) as f64;

    let m = plain.medians(&slices);
    let e2e: Vec<(String, &str, f64)> = vec![
        ("setup_s".into(), "s", setup_s),
        ("ops_per_s".into(), "1/s", m.ops_per_s),
        ("op_p50_ms".into(), "ms", m.p50_ms),
        ("op_p99_ms".into(), "ms", m.p99_ms),
        ("net_msgs_per_s".into(), "1/s", m.net_msgs_per_s),
        ("payload_mb_per_s".into(), "MB/s", m.payload_mb_per_s),
        ("peak_rss_mb".into(), "MB", peak_rss_mb()),
    ];

    println!(
        "set-up: median {:.4} s of {} builds ({:.3} s in all)",
        setup_s,
        setups.len(),
        spent.as_secs_f64()
    );
    println!(
        "timed phase: {:.2} s, {} untraced rounds ({:.2} s), {} traced rounds ({:.2} s)",
        timed_s,
        plain.rounds,
        plain.wall.as_secs_f64(),
        traced.rounds,
        traced.wall.as_secs_f64()
    );
    println!(
        "machine speed: median {:.3} of the reference (slices {:.3}..{:.3}); unscaled {:.2} ops per CPU second, {:.2} per wall second",
        m.speed,
        slices.iter().copied().fold(f64::INFINITY, f64::min),
        slices.iter().copied().fold(0.0, f64::max),
        m.cpu_ops_per_s,
        m.wall_ops_per_s
    );
    println!(
        "end to end (scaled to the reference machine; medians over {} untraced rounds; latency over {} operations):",
        plain.rounds, plain.samples
    );
    for (name, unit, value) in &e2e {
        println!("  {name:<18} {value:>14.4} {unit}");
    }
    println!(
        "  {:<18} {:>14.4} ratio ({failed} of {attempted})",
        "fail_ratio", fail_ratio
    );
    let render = world.render();
    if !render.is_empty() {
        println!("deterministic (sim time):");
        for line in render.lines() {
            println!("  {line}");
        }
    }

    let mut reconciled = true;
    let metrics = if args.trace {
        let profile = prof::snapshot();
        let ops = traced.ops.max(1) as f64;
        let wall = traced.wall.as_secs_f64();
        let unexplained = 1.0 - profile.explained().as_secs_f64() / wall;
        let overhead = m.ops_per_s / traced.medians(&slices).ops_per_s - 1.0;
        reconciled = unexplained <= MAX_UNEXPLAINED;

        let mut layers: Vec<(String, &str, f64)> = Vec::new();
        for (i, name) in prof::NAMES.iter().enumerate() {
            layers.push((
                format!("{name}.calls_per_op"),
                "1/op",
                profile.calls[i] as f64 / ops,
            ));
            layers.push((
                format!("{name}.self_us_per_op"),
                "us/op",
                profile.self_time[i].as_secs_f64() * 1e6 / ops,
            ));
        }
        let mut counters = world.layer_metrics(traced.ops);
        counters.push(("trace.unexplained_share", unexplained));
        counters.push(("trace.overhead", overhead));
        counters.push(("calib.loops_per_s", calibration));
        for (name, unit, _) in COUNTER_METRICS {
            let value = counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            layers.push((name.to_string(), unit, value));
        }
        for (name, _) in &counters {
            assert!(
                COUNTER_METRICS.iter().any(|(n, _, _)| n == name),
                "layer metric {name} missing from the catalogue"
            );
        }

        println!(
            "per layer ({} traced operations, {:.2} s traced wall):",
            traced.ops, wall
        );
        let mut order: Vec<usize> = (0..prof::NAMES.len()).collect();
        order.sort_by(|&a, &b| profile.self_time[b].cmp(&profile.self_time[a]));
        println!(
            "  {:<30} {:>10} {:>12} {:>8}",
            "span", "calls/op", "self us/op", "share"
        );
        for i in order.into_iter().filter(|&i| profile.calls[i] > 0) {
            println!(
                "  {:<30} {:>10.3} {:>12.3} {:>7.2}%",
                prof::NAMES[i],
                profile.calls[i] as f64 / ops,
                profile.self_time[i].as_secs_f64() * 1e6 / ops,
                100.0 * profile.self_time[i].as_secs_f64() / wall
            );
        }
        for (name, value) in &counters {
            println!("  {name:<42} {value:>14.6}");
        }
        if !reconciled {
            println!(
                "reconciliation FAILED: spans explain {:.1}% of the traced wall (need {:.0}%)",
                100.0 * (1.0 - unexplained),
                100.0 * (1.0 - MAX_UNEXPLAINED)
            );
        }
        layers
    } else {
        e2e
    };

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct && reconciled {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end-to-end metrics every `--trace 0` run reports.
    const END_TO_END: &[(&str, &str)] = &[
        ("setup_s", "s"),
        ("ops_per_s", "1/s"),
        ("op_p50_ms", "ms"),
        ("op_p99_ms", "ms"),
        ("net_msgs_per_s", "1/s"),
        ("payload_mb_per_s", "MB/s"),
        ("peak_rss_mb", "MB"),
    ];

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        let mut expected = 0;
        for (name, unit) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(
                json.contains(&entry),
                "end-to-end metric {name} not declared"
            );
            expected += 1;
        }
        for name in prof::NAMES {
            for (suffix, unit) in [("calls_per_op", "1/op"), ("self_us_per_op", "us/op")] {
                let entry =
                    format!("{{\"name\": \"{name}.{suffix}\", \"unit\": \"{unit}\", \"better\": \"lower\"}}");
                assert!(
                    json.contains(&entry),
                    "span metric {name}.{suffix} not declared"
                );
                expected += 1;
            }
        }
        for (name, unit, better) in COUNTER_METRICS {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(json.contains(&entry), "layer metric {name} not declared");
            expected += 1;
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            expected,
            "undeclared extra metrics"
        );
    }

    #[test]
    fn rounds_are_scaled_by_the_speed_around_them() {
        assert_eq!(speed_around(&[1.0, 2.0, 3.0, 4.0, 5.0], 0), 2.0);
        assert_eq!(speed_around(&[1.0, 2.0, 3.0, 4.0, 5.0], 2), 3.5);
        assert_eq!(speed_around(&[1.0, 2.0, 3.0, 4.0, 5.0], 3), 4.0);

        // On a machine at half the reference speed, a round that took
        // 2 s of CPU would have taken 1 s on the reference machine.
        let mut t = Totals::default();
        let round = Round {
            attempted: 100,
            ops: 100,
            latencies_ms: vec![4.0; 100],
            ..Round::default()
        };
        t.add(0, round, Duration::from_secs(3), Duration::from_secs(2));
        let m = t.medians(&[0.5, 0.5]);
        assert_eq!(m.ops_per_s, 100.0);
        assert_eq!(m.p50_ms, 2.0);
        assert_eq!(m.cpu_ops_per_s, 50.0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
