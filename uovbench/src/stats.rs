//! Order statistics and the per-run op recorder.

use std::time::Instant;

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latencies of the measured ops, grouped by pass, plus op accounting.
///
/// A recorder made with [`Recorder::with_capacity`] writes into buffers
/// reserved and touched when it is made, so recording never grows the
/// process: `peak_rss_mb` then does not depend on how many ops a run
/// completes. The run ends early once the buffers have no room for
/// another pass.
#[derive(Default)]
pub struct Recorder {
    /// Microseconds per successful op.
    op_us: Vec<f32>,
    /// Sum of the op latencies of each completed pass, in microseconds.
    pass_us: Vec<f32>,
    /// Ops per pass (the same for every pass of a run).
    pub ops_per_pass: usize,
    pub attempted: u64,
    pub failed: u64,
    current: f64,
    current_ops: usize,
}

/// An empty vector whose `n` slots are already resident.
pub fn touched(n: usize) -> Vec<f32> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, 1.0);
    std::hint::black_box(&mut v);
    v.clear();
    v
}

impl Recorder {
    /// Room for `max_ops` ops in passes of at least two ops.
    pub fn with_capacity(max_ops: usize) -> Self {
        Recorder {
            op_us: touched(max_ops),
            pass_us: touched(max_ops / 2),
            ..Recorder::default()
        }
    }

    /// Whether another pass as long as the longest so far still fits.
    pub fn has_room(&self) -> bool {
        let free = |v: &Vec<f32>| v.capacity() - v.len();
        free(&self.op_us) >= self.ops_per_pass && free(&self.pass_us) >= 1
    }

    /// Ops recorded so far.
    pub fn ops(&self) -> usize {
        self.op_us.len()
    }

    /// Time one op by the wall clock; a failed op is counted and left out
    /// of the latencies.
    pub fn op<T, E: std::fmt::Display>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Option<T> {
        let t = Instant::now();
        let out = f();
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.record(out.map(|v| (v, us)))
    }

    /// Record one op that reports its own latency in microseconds.
    pub fn op_reported<T, E: std::fmt::Display>(
        &mut self,
        f: impl FnOnce() -> Result<(T, f64), E>,
    ) -> Option<T> {
        self.record(f())
    }

    fn record<T, E: std::fmt::Display>(&mut self, out: Result<(T, f64), E>) -> Option<T> {
        self.attempted += 1;
        match out {
            Ok((v, us)) => {
                self.op_us.push(us as f32);
                self.current += us;
                self.current_ops += 1;
                Some(v)
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("uovbench: op failed: {e}");
                None
            }
        }
    }

    /// Close the current pass.
    pub fn end_pass(&mut self) {
        self.pass_us.push(self.current as f32);
        self.ops_per_pass = self.ops_per_pass.max(self.current_ops);
        self.current = 0.0;
        self.current_ops = 0;
    }

    /// The `q` quantile of the op latencies. With `window` ops, it is the
    /// median over consecutive windows of that many ops of each window's
    /// quantile, so a burst of host noise that covers less than half the
    /// run does not move it; a run without one full window counts whole.
    pub fn quantile(&self, q: f64, window: Option<usize>) -> f64 {
        let all = widen(&self.op_us);
        match window {
            Some(w) if w > 0 && all.len() >= w => {
                let per: Vec<f64> = all.chunks_exact(w).map(|c| quantile(c, q)).collect();
                median(&per)
            }
            _ => quantile(&all, q),
        }
    }

    /// Ops of one pass divided by the median pass time.
    pub fn ops_per_s(&self) -> f64 {
        self.ops_per_pass as f64 / (median(&widen(&self.pass_us)) / 1e6)
    }
}

pub fn widen(v: &[f32]) -> Vec<f64> {
    v.iter().map(|&x| f64::from(x)).collect()
}

/// SplitMix64: the benchmark's only source of input randomness, so a seed
/// fixes every generated problem and op order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x005E_ED0F_B3AC_4D11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}
