//! One-worker end-to-end and per-layer benchmark of the Monte-Carlo
//! experiment engine on the Fig. 9 example and the real-design corpus.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run sets the workload up, then runs its cases round-robin, one engine
//! call per point on one worker, until `--seconds` of points have passed —
//! repeating the timed set-up at even intervals in between — then checks
//! the outputs untimed. Every case is
//! deterministic work, so its fastest repeat is its cost on a quiet core;
//! the metrics aggregate those best-of-repeats times. The last line of
//! standard output is one JSON object: `{"correct", "attempted",
//! "failed", "metrics"}`, where `metrics` holds the end-to-end metrics with
//! `--trace 0` and the per-layer ledger with `--trace 1`. See `README.md`
//! for the workloads and metrics.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod mc;
mod trace;

use trace::Tracer;

/// Set-ups per run; `setup_s` is the fastest. Set-up is deterministic
/// work like a case, and on a shared host its time alternates between a
/// fast and a slow level for seconds at a time, so a median jumps between
/// the two levels from run to run while the minimum stays put.
const SETUP_REPEATS: usize = 31;

const USAGE: &str = "usage: perfbench --workload {campaign|corpus} --seed N \
                     --seconds N --trace {0|1}";

/// What one engine call cost.
pub struct Point {
    /// Wall-clock seconds of the call.
    pub secs: f64,
    /// Simulated lane-cycles the call covered.
    pub lane_cycles: u64,
}

fn setup(name: &str, seed: u64, tracer: Option<&mut Tracer>) -> Result<mc::McWorkload, String> {
    let shape = match name {
        "campaign" => &mc::CAMPAIGN,
        "corpus" => &mc::CORPUS,
        other => return Err(format!("unknown workload {other:?}")),
    };
    mc::McWorkload::setup(shape, seed, tracer)
}

/// SplitMix64 finalizer over `(seed, index)`: the stream every benchmark
/// input is drawn from.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z =
        (seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from the top 53 bits of `r`.
pub fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-case minimum of `(case, value)` samples.
fn best_per_case(samples: impl IntoIterator<Item = (usize, f64)>) -> BTreeMap<usize, f64> {
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for (case, v) in samples {
        let b = best.entry(case).or_insert(v);
        *b = b.min(v);
    }
    best
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if !args.len().is_multiple_of(2) {
        return Err("every flag takes one value".into());
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let value = &pair[1];
        let bad = || format!("invalid value for {}: {value:?}", pair[0]);
        match pair[0].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// `(name, value, unit)` rows of the result.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The per-layer ledger of a traced run. Build and compile are medians per
/// network; layer times inside points are summed per point, then taken at
/// their per-case best like the end-to-end times.
fn ledger(tracer: &Tracer, cases: usize) -> Metrics {
    let median_ms = |name: &str| {
        let v: Vec<f64> = tracer.spans_named(name).map(|s| s.secs()).collect();
        1e3 * median(&v)
    };
    // Per-case best of a layer's per-point total, summed over the cases
    // that ran the layer; the work those bests covered; how many cases
    // ran it.
    let layer = |name: &str| -> (f64, f64, usize) {
        let mut per_point: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for s in tracer.spans_named(name) {
            if let Some(p) = s.point {
                let e = per_point.entry(p).or_insert((0.0, 0.0));
                e.0 += s.secs();
                e.1 += s.lane_cycles as f64;
            }
        }
        let work: BTreeMap<usize, f64> = per_point
            .iter()
            .map(|(&p, &(_, w))| (p % cases, w))
            .collect();
        let best = best_per_case(per_point.iter().map(|(&p, &(t, _))| (p % cases, t)));
        (
            best.values().sum(),
            best.keys().map(|c| work[c]).sum(),
            best.len(),
        )
    };
    let (stim_s, stim_w, _) = layer("stimulus");
    let (tape_s, tape_w, _) = layer("tape");
    let (bound_s, _, bounded) = layer("bound");
    let (point_s, point_w, _) = layer("point");
    vec![
        ("build_ms", median_ms("build"), "ms"),
        ("compile_ms", median_ms("compile"), "ms"),
        ("stimulus_ns_per_lane_cycle", 1e9 * stim_s / stim_w, "ns"),
        ("tape_ns_per_lane_cycle", 1e9 * tape_s / tape_w, "ns"),
        (
            "stimulus_share_pct",
            100.0 * stim_s / (stim_s + tape_s),
            "%",
        ),
        (
            "tape_instrs",
            median(&tracer.samples_named("tape_instrs")),
            "count",
        ),
        (
            "input_slots",
            median(&tracer.samples_named("input_slots")),
            "count",
        ),
        ("bound_ms", 1e3 * bound_s / bounded as f64, "ms"),
        ("point_ns_per_lane_cycle", 1e9 * point_s / point_w, "ns"),
    ]
}

fn render(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    let mut tracer = args.trace.then(Tracer::new);
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut timed_setup = |tracer: Option<&mut Tracer>| {
        let t0 = Instant::now();
        let w = setup(&args.workload, args.seed, tracer);
        setup_secs.push(t0.elapsed().as_secs_f64());
        w
    };
    let mut workload = timed_setup(tracer.as_mut())?;
    let cases = workload.cases();

    // The remaining set-ups are spread evenly over the window (and paused
    // out of it), so they sample the same machine conditions as the
    // points.
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut samples: Vec<(usize, f64)> = Vec::new();
    let mut work: BTreeMap<usize, u64> = BTreeMap::new();
    let window = Duration::from_secs(args.seconds);
    let (start, mut paused, mut setups) = (Instant::now(), Duration::ZERO, 1);
    while attempted == 0 || start.elapsed() - paused < window {
        let due = window * setups / SETUP_REPEATS as u32;
        if setups < SETUP_REPEATS as u32 && start.elapsed() - paused >= due {
            if let Some(t) = tracer.as_mut() {
                t.set_point(None);
            }
            let t0 = Instant::now();
            timed_setup(tracer.as_mut())?;
            paused += t0.elapsed();
            setups += 1;
        }
        let case = attempted % cases;
        if let Some(t) = tracer.as_mut() {
            t.set_point(Some(attempted));
        }
        match workload.point(case, tracer.as_mut()) {
            Ok(p) => {
                samples.push((case, p.secs));
                work.insert(case, p.lane_cycles);
            }
            Err(e) => {
                eprintln!("perfbench: point {attempted} failed: {e}");
                failed += 1;
            }
        }
        attempted += 1;
    }
    if let Some(t) = tracer.as_mut() {
        t.set_point(None);
    }

    let problems = workload.check();
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let metrics = match &tracer {
        None => {
            let best = best_per_case(samples.iter().copied());
            let round_work: u64 = best.keys().map(|c| work[c]).sum();
            let round_secs: f64 = best.values().sum();
            vec![
                ("sim_rate", round_work as f64 / round_secs / 1e6, "Mcycle/s"),
                (
                    "setup_s",
                    setup_secs.iter().copied().fold(f64::INFINITY, f64::min),
                    "s",
                ),
            ]
        }
        Some(t) => {
            let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
            let path = format!("{dir}/{}-seed{}.jsonl", args.workload, args.seed);
            if let Err(e) =
                std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.to_jsonl()))
            {
                eprintln!("perfbench: could not write {path}: {e}");
            }
            ledger(t, cases)
        }
    };
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err(format!("non-finite metric in {metrics:?}"));
    }
    eprintln!(
        "perfbench: {} seed {}: {attempted} points over {cases} cases ({failed} failed), \
         {} check problems",
        args.workload,
        args.seed,
        problems.len()
    );
    Ok(render(
        failed == 0 && problems.is_empty(),
        attempted,
        failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
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
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
