//! `kernel_tiled`: generated, compiled zoo kernels, skew-tiled at fixed
//! tiles, with runs of the untiled UOV-mapped binaries interleaved.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use uov::codegen::{compile_rust, emit_rust, find_tool, run_kernel, GenSchedule, KernelSpec};
use uov::driver::plan_and_emit;
use uov::isg::IterationDomain as _;
use uov::kernels::zoo::{self, ZooEntry};
use uov::loopir::interp;
use uov::storage::Layout;

use crate::host;
use crate::stats::{Recorder, Rng};
use crate::trace::{next_op, span};
use crate::Workload;

const COMPILE_T: Duration = Duration::from_secs(120);
const RUN_T: Duration = Duration::from_secs(60);

/// The kernels at benchmark scale and their fixed tiles `(u, v)`: 2M
/// iterations each, and a UOV-mapped working set of 8 MiB, twice the
/// 4 MiB L2. Each tile spans every time step of a band of columns.
pub fn kernels() -> Vec<(ZooEntry, [i64; 2])> {
    vec![
        (zoo::deep8(16, 1 << 17), [16, 2048]),
        (zoo::stencil5(4, 1 << 19), [4, 4096]),
        (zoo::psm(4, 1 << 19), [4, 4096]),
    ]
}

/// The same kernels at interpreter scale, tiled small enough to cut
/// several tiles per axis.
fn reduced() -> Vec<(ZooEntry, [i64; 2])> {
    vec![
        (zoo::deep8(12, 40), [3, 8]),
        (zoo::stencil5(6, 24), [3, 8]),
        (zoo::psm(7, 9), [3, 4]),
    ]
}

/// Where generated sources and binaries go: inside the working directory
/// the benchmark runs from.
pub fn out_dir(tag: &str) -> PathBuf {
    Path::new(".bench_out").join(format!("{tag}-{}", std::process::id()))
}

pub struct Built {
    pub name: &'static str,
    pub tiled: PathBuf,
    pub untiled: PathBuf,
    pub emit_us: Vec<f64>,
    pub compile_s: Vec<f64>,
    pub source_bytes: usize,
}

fn compile(
    rustc: &Path,
    dir: &Path,
    stem: &str,
    src: &str,
    optimize: bool,
) -> Result<(PathBuf, f64), String> {
    let src_path = dir.join(format!("{stem}.rs"));
    let bin = dir.join(stem);
    std::fs::write(&src_path, src).map_err(|e| format!("writing {}: {e}", src_path.display()))?;
    let t = Instant::now();
    span("codegen.compile_rust", || {
        compile_rust(rustc, &src_path, &bin, optimize, COMPILE_T)
    })
    .map_err(|e| e.to_string())?;
    Ok((bin, t.elapsed().as_secs_f64()))
}

/// Plan, emit and compile the tiled and untiled binaries of each kernel.
pub fn build(
    set: &[(ZooEntry, [i64; 2])],
    dir: &Path,
    optimize: bool,
) -> Result<Vec<Built>, String> {
    let rustc = find_tool("rustc", None).map_err(|e| e.to_string())?;
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for (entry, tile) in set {
        let mut b = Built {
            name: entry.name,
            tiled: PathBuf::new(),
            untiled: PathBuf::new(),
            emit_us: Vec::new(),
            compile_s: Vec::new(),
            source_bytes: 0,
        };
        for (stem, t) in [("tiled", Some(*tile)), ("untiled", None)] {
            let start = Instant::now();
            let ek = span("driver.plan_and_emit", || {
                plan_and_emit(entry.name, &entry.nest, Layout::Interleaved, t)
            })
            .map_err(|e| format!("{}: {e}", entry.name))?;
            b.emit_us.push(start.elapsed().as_secs_f64() * 1e6);
            b.source_bytes += ek.rust_source.len();
            let (bin, secs) = compile(
                &rustc,
                dir,
                &format!("{}_{stem}", entry.name),
                &ek.rust_source,
                optimize,
            )?;
            b.compile_s.push(secs);
            if t.is_some() {
                b.tiled = bin;
            } else {
                b.untiled = bin;
            }
        }
        out.push(b);
    }
    Ok(out)
}

/// One run of a kernel binary: its checksum and the time of its loops in
/// microseconds, from the kernel's own timer. The wall time of the call
/// would add process start, and `run_kernel` polls for the child's exit
/// every 5 ms, so it would also round each run up to that tick.
pub fn run(bin: &Path, seed: u64) -> Result<(u64, f64), String> {
    span("codegen.run_kernel", || {
        run_kernel(bin, seed, 1, false, RUN_T)
    })
    .map(|o| (o.check, o.time_ns as f64 / 1e3))
    .map_err(|e| format!("{}: {e}", bin.display()))
}

/// The schedule-invariant checksum of the generated protocol, computed
/// from the `uov-loopir` interpreter's natural-storage run.
fn interpreter_check(entry: &ZooEntry, seed: u64) -> u64 {
    fn mix(s: u64, i: i64, j: i64, bits: u64) -> u64 {
        let mut h = s.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ bits;
        h = (h ^ (i as u64)).wrapping_mul(0x0000_0100_0000_01B3);
        h = (h ^ (j as u64)).wrapping_mul(0x0000_0100_0000_01B3);
        h ^ (h >> 31)
    }
    let nest = &entry.nest;
    let outputs = interp::run_natural(nest, &|array, elem| {
        uov::codegen::input_value(seed, array, elem)
    });
    let mut check = 0u64;
    for q in nest.domain().points() {
        for s in 0..nest.stmts().len() {
            let v = outputs[&(s, nest.write_element(s, &q))];
            check ^= mix(s as u64, q[0], q[1], v.to_bits());
        }
    }
    check
}

pub struct KernelTiled {
    seed: u64,
    built: Vec<Built>,
    /// The untiled runs interleaved with the measured tiled ones.
    untiled: Recorder,
    order: Vec<usize>,
    /// The distinct checksums each kernel's runs gave.
    checks: Vec<Vec<u64>>,
    dir: PathBuf,
}

impl Workload for KernelTiled {
    /// Each set-up compiles six kernels, about 3.5 s here.
    const SETUPS: usize = 3;
    /// A 30-second run here completes 200–330 tiled runs.
    const MAX_OPS: usize = 1 << 12;

    fn setup(seed: u64) -> Result<Self, String> {
        let dir = out_dir(&format!("kernels-{}", next_tag()));
        let built = build(&kernels(), &dir, true)?;
        let mut order: Vec<usize> = (0..built.len()).collect();
        Rng::new(seed).shuffle(&mut order);
        let mut w = KernelTiled {
            seed,
            checks: vec![Vec::new(); built.len()],
            built,
            untiled: Recorder::default(),
            order,
            dir,
        };
        // Warm-up: one run of every binary.
        w.pass(&mut Recorder::default());
        w.untiled = Recorder::with_capacity(Self::MAX_OPS);
        Ok(w)
    }

    fn pass(&mut self, rec: &mut Recorder) {
        for &k in &self.order {
            next_op();
            let b = &self.built[k];
            let tiled = rec.op_reported(|| run(&b.tiled, self.seed));
            let untiled = self.untiled.op_reported(|| run(&b.untiled, self.seed));
            for c in [tiled, untiled].into_iter().flatten() {
                if !self.checks[k].contains(&c) {
                    self.checks[k].push(c);
                }
            }
        }
        self.untiled.end_pass();
    }

    fn reference(&self) -> Option<&Recorder> {
        Some(&self.untiled)
    }

    fn check(&mut self) -> Result<(), String> {
        let natural_dir = self.dir.join("check");
        let rustc = find_tool("rustc", None).map_err(|e| e.to_string())?;
        std::fs::create_dir_all(&natural_dir).map_err(|e| e.to_string())?;
        for ((entry, _), (b, seen)) in kernels().iter().zip(self.built.iter().zip(&self.checks)) {
            let spec = KernelSpec::new(entry.name, &entry.nest, &[], GenSchedule::Lex)
                .map_err(|e| e.to_string())?;
            let (bin, _) = compile(
                &rustc,
                &natural_dir,
                &format!("{}_natural", b.name),
                &emit_rust(&spec),
                true,
            )?;
            let (want, _) = run(&bin, self.seed)?;
            if let Some(bad) = seen.iter().find(|&&c| c != want) {
                return Err(format!(
                    "{}: checksum {bad:016x}, natural lexicographic program {want:016x}",
                    b.name
                ));
            }
        }
        let small = reduced();
        for (b, (entry, _)) in build(&small, &self.dir.join("reduced"), false)?
            .iter()
            .zip(&small)
        {
            let want = interpreter_check(entry, self.seed);
            for bin in [&b.tiled, &b.untiled] {
                let (got, _) = run(bin, self.seed)?;
                if got != want {
                    return Err(format!(
                        "{} at reduced scale: checksum {got:016x}, interpreter {want:016x}",
                        b.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// The largest peak resident set of one tiled kernel process.
    fn peak_rss_mb(&mut self) -> Result<f64, String> {
        let args = [self.seed.to_string(), "1".to_string(), "0".to_string()];
        let mut peak = 0.0f64;
        for b in &self.built {
            peak = peak.max(host::child_peak_rss_mb(&b.tiled, &args)?);
        }
        Ok(peak)
    }
}

impl Drop for KernelTiled {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A per-set-up suffix, so repeated set-ups never reuse binaries.
fn next_tag() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    N.fetch_add(1, Ordering::Relaxed)
}
