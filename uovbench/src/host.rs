//! Host diagnostics and calibration, all in the benchmark's own code: CPU
//! steal from `/proc/stat`, peak resident memory, a loopback echo at the
//! service's frame sizes, and a fixed memory sweep. These label noisy runs;
//! they never discard, rescale or repeat one.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::thread::JoinHandle;
use std::time::Instant;

/// Cumulative steal time of all CPUs, in seconds (USER_HZ = 100).
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPUs the benchmark may run on, counted once, before any pinning.
pub fn nproc() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pin the calling thread, and so every thread it starts afterwards, to
/// the last CPU it may run on; returns that CPU. [`nproc`] keeps counting
/// the CPUs allowed before.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    nproc();
    // A `cpu_set_t` of 1024 bits.
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Run `bin args…` to completion and return its own peak resident set in
/// MB, read from `wait4`, so compilers and earlier children do not count.
pub fn child_peak_rss_mb(bin: &Path, args: &[String]) -> Result<f64, String> {
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `pid` is our own unwaited child; `status` and `usage` are
    // valid, writable and laid out as the C `int` and `struct rusage`
    // (x86-64/aarch64 Linux: two timevals then fourteen longs).
    let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    // The child is reaped; dropping the handle neither waits nor kills.
    drop(child);
    if rc != pid || status != 0 {
        return Err(format!(
            "{} exited with wait status {status}",
            bin.display()
        ));
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

/// A loopback TCP echo peer: reads a request-sized message and answers
/// with a response-sized one, like one plan round trip without the server.
pub struct Echo {
    stream: TcpStream,
    req: Vec<u8>,
    resp: Vec<u8>,
    peer: Option<JoinHandle<()>>,
}

impl Echo {
    pub fn start(req_bytes: usize, resp_bytes: usize) -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let peer = std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let _ = s.set_nodelay(true);
                let mut inbuf = vec![0u8; req_bytes];
                let out = vec![0x5Au8; resp_bytes];
                while s.read_exact(&mut inbuf).is_ok() {
                    if s.write_all(&out).is_err() {
                        break;
                    }
                }
            }
        });
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Echo {
            stream,
            req: vec![0xA5u8; req_bytes],
            resp: vec![0u8; resp_bytes],
            peer: Some(peer),
        })
    }

    /// One round trip, in microseconds.
    pub fn rtt_us(&mut self) -> std::io::Result<f64> {
        let t = Instant::now();
        self.stream.write_all(&self.req)?;
        self.stream.read_exact(&mut self.resp)?;
        Ok(t.elapsed().as_secs_f64() * 1e6)
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// A fixed sweep over a buffer twice the L2 size, one load per cache line.
pub struct Sweep {
    buf: Vec<u64>,
}

impl Sweep {
    pub fn new() -> Sweep {
        Sweep {
            buf: (0..(8 << 20) / 8).map(|i| i as u64).collect(),
        }
    }

    pub fn run_us(&self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for chunk in self.buf.chunks(8) {
            acc = acc.wrapping_add(chunk[0]);
        }
        std::hint::black_box(acc);
        t.elapsed().as_secs_f64() * 1e6
    }
}

/// The host block printed with every run.
pub fn describe() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let nproc = nproc();
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".into());
    format!("nproc={nproc} cpu=\"{cpu}\" rustc=\"{rustc}\"")
}
