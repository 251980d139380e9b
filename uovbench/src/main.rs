//! `uovbench`: one command for every workload of the uov benchmark.
//!
//! ```text
//! uovbench --workload <plan_cold|serve_warm|serve_cold|kernel_tiled>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones; with `--trace 1` they are the per-layer ones, and
//! the spans go to `.bench_out/trace-<workload>-<seed>.tsv`. The exit code
//! is 1 when an op fails or a correctness check fails, and 2 on a usage or
//! set-up error.

mod check;
mod host;
mod kernel;
mod plan_cold;
mod probe;
mod problems;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stats::{median, touched, widen, Recorder};

/// One workload: a timed set-up that ends with a warm-up pass, whole
/// passes of a fixed op sequence, and checks run after measuring.
pub trait Workload: Sized {
    /// Set-ups per run; `setup_s` is their median.
    const SETUPS: usize = 5;
    /// Whether the whole run, with every thread it starts, stays on one
    /// CPU ([`host::pin_to_one_cpu`]).
    const ONE_CPU: bool = false;
    /// The most ops one run records; the run ends early when they are
    /// reached. Set well above what a run completes on the reference host.
    const MAX_OPS: usize;
    /// Passes per window of the op quantiles (see [`Recorder::quantile`]);
    /// `None` takes them over the whole run.
    const WINDOW_PASSES: Option<usize> = None;
    fn setup(seed: u64) -> Result<Self, String>;
    /// One measured pass, its ops timed into `rec`.
    fn pass(&mut self, rec: &mut Recorder);
    /// Reference runs interleaved with the ops, if the workload has any.
    fn reference(&self) -> Option<&Recorder> {
        None
    }
    fn check(&mut self) -> Result<(), String>;
    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        Ok(host::peak_rss_mb())
    }
}

/// A run calibrates (one echo round trip and one memory sweep) after a
/// pass when this long has passed since it last did, so short passes are
/// not crowded out by the sweep, at most `CALIBRATIONS` times.
const CALIBRATE_EVERY: Duration = Duration::from_millis(50);
const CALIBRATIONS: usize = 1 << 12;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("uovbench: {e}");
            std::process::exit(2);
        }
    };
    // Compilers and kernels started from here keep their scratch files
    // under the working directory too.
    let tmp = std::path::Path::new(".bench_out").join("tmp");
    if let Ok(abs) = std::fs::create_dir_all(&tmp).and_then(|()| tmp.canonicalize()) {
        std::env::set_var("TMPDIR", abs);
    }
    let out = match args.workload.as_str() {
        "plan_cold" => run::<plan_cold::PlanCold>(&args),
        "serve_warm" => run::<serve::ServeWarm>(&args),
        "serve_cold" => run::<serve::ServeCold>(&args),
        "kernel_tiled" => run::<kernel::KernelTiled>(&args),
        other => Err(format!("unknown workload {other}")),
    };
    match out {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("uovbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Run one workload; `Ok(false)` when a check failed.
fn run<W: Workload>(args: &Args) -> Result<bool, String> {
    let cpu = if W::ONE_CPU {
        host::pin_to_one_cpu()?.to_string()
    } else {
        "any".to_string()
    };
    let steal0 = host::steal_s();
    // The measuring side is built first and records into memory reserved
    // here, so the program's set-ups and ops start from the same
    // footprint in every run and `peak_rss_mb` does not grow with the op
    // count.
    let (req_bytes, resp_bytes) = serve::frame_sizes();
    let mut echo = host::Echo::start(req_bytes, resp_bytes).map_err(|e| e.to_string())?;
    let sweep = host::Sweep::new();
    let mut rec = Recorder::with_capacity(W::MAX_OPS);
    let mut traced = if args.trace {
        Recorder::with_capacity(W::MAX_OPS)
    } else {
        Recorder::default()
    };
    let (mut echo_us, mut sweep_us) = (touched(CALIBRATIONS), touched(CALIBRATIONS));

    let mut setup_s = Vec::new();
    let mut w: Option<W> = None;
    for _ in 0..if args.trace { 1 } else { W::SETUPS } {
        drop(w.take());
        let t = Instant::now();
        w = Some(W::setup(args.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = w.ok_or("no set-up ran")?;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut pass = 0u64;
    let mut calibrated: Option<Instant> = None;
    loop {
        let tracing = args.trace && pass % 2 == 1;
        trace::set_enabled(tracing);
        let r = if tracing { &mut traced } else { &mut rec };
        w.pass(r);
        r.end_pass();
        trace::set_enabled(false);
        let due = calibrated.is_none_or(|t| t.elapsed() >= CALIBRATE_EVERY);
        if due && echo_us.len() < echo_us.capacity() {
            echo_us.push(echo.rtt_us().map_err(|e| e.to_string())? as f32);
            sweep_us.push(sweep.run_us() as f32);
            calibrated = Some(Instant::now());
        }
        pass += 1;
        let full = !rec.has_room()
            || (args.trace && !traced.has_room())
            || !w.reference().is_none_or(Recorder::has_room);
        if full || (Instant::now() >= deadline && (!args.trace || pass >= 2)) {
            break;
        }
    }
    drop(echo);

    let peak_rss_mb = w.peak_rss_mb()?;
    let mut correct = match w.check() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("uovbench: check failed: {e}");
            false
        }
    };
    let (ref_attempted, ref_failed) = w.reference().map_or((0, 0), |r| (r.attempted, r.failed));
    drop(w);
    let (echo_rtt, sweep_med) = (median(&widen(&echo_us)), median(&widen(&sweep_us)));
    let steal = host::steal_s() - steal0;
    let attempted = rec.attempted + traced.attempted + ref_attempted;
    let failed = rec.failed + traced.failed + ref_failed;
    if failed > 0 {
        eprintln!("uovbench: {failed} of {attempted} ops failed");
        correct = false;
    }

    let window = W::WINDOW_PASSES.map(|p| p * rec.ops_per_pass);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        trace::set_enabled(true);
        let probed = probe::run(args.seed, echo_rtt);
        trace::set_enabled(false);
        for (name, (v, unit)) in probed? {
            metrics.push((name, v, unit));
        }
        metrics.push(("host.echo_rtt_us", echo_rtt, "us"));
        metrics.push(("host.mem_sweep_us", sweep_med, "us"));
        metrics.push(("host.steal_s", steal, "s"));
        metrics.push((
            "trace.overhead_us",
            traced.quantile(0.5, window) - rec.quantile(0.5, window),
            "us",
        ));
        let path = std::path::Path::new(".bench_out")
            .join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        trace::write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
        for (name, (self_us, n)) in trace::self_times() {
            println!("# self {name} {self_us:.1} us over {n} spans");
        }
    } else {
        metrics.push(("setup_s", median(&setup_s), "s"));
        metrics.push(("op_p50_us", rec.quantile(0.5, window), "us"));
        metrics.push(("op_p90_us", rec.quantile(0.9, window), "us"));
        metrics.push(("ops_per_s", rec.ops_per_s(), "1/s"));
        metrics.push(("peak_rss_mb", peak_rss_mb, "MB"));
    }
    println!("# host {}", host::describe());
    println!(
        "# run workload={} seed={} cpu={cpu} passes={pass} ops={} setups_s={setup_s:?} steal_s={steal:.3} echo_rtt_us={echo_rtt:.2} mem_sweep_us={sweep_med:.1}",
        args.workload,
        args.seed,
        rec.ops() + traced.ops()
    );

    for (name, v, _) in &metrics {
        if !v.is_finite() {
            eprintln!("uovbench: metric {name} is not a finite number");
            correct = false;
        }
    }
    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}
