//! A reference kernel that gauges the host's current speed, run in a child
//! process.
//!
//! On a shared 2-vCPU virtual machine (2.1 GHz Xeon), host speed drifts by
//! tens of percent from one minute to the next. Over ten seeds there, the
//! raw host figures of two sets of runs of identical code spread by up to
//! 41% (interquartile range over median), and their medians moved by up to
//! 12%; gateway-churn throughput spread most. What moves is the cost of
//! allocation, cache misses and memory traffic: a pure integer loop varied
//! by 3.6% where 3-second windows of gateway-hot `POST`s varied by 10%. A
//! kernel of small-string allocation, random read-modify-writes over a
//! 1 MiB table and an 8 MiB copy followed those `POST`s with correlation
//! 0.93; the `POST` time divided by it varied by 3.2%.
//!
//! So every host-time metric except `setup_s` is reported at a reference
//! speed: the raw value scaled by how much slower than [`NOMINAL_NS`] the
//! kernel ran during the same phase of the same run. Raw values are printed
//! beside the scaled ones. The kernel runs on as many threads at once as
//! the workload has workers — study-paper's wave loads every core, a
//! gateway one — and a sample is their mean time. It runs in a child
//! process of its own, which the benchmark drives between operations while
//! it waits, never inside a measured interval. It shares no address space
//! with the program: a change that fragments the program's heap cannot slow
//! the kernel, and the kernel's buffers do not count in `peak_rss_mib`.
//! Only the host is shared, which is the point (and a change that left
//! threads busy between operations would still slow it).

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// The flag that makes the program serve the reference kernel.
pub const SERVE_FLAG: &str = "--reference-kernel";

/// Words in the random-access table: 1 MiB, resident in the second-level
/// cache.
const TABLE_WORDS: usize = 1 << 17;
/// Table updates per kernel call.
const STEPS: usize = 1 << 20;
/// Bytes copied per kernel call.
const COPY_BYTES: usize = 8 << 20;
/// Small strings formatted per kernel call; every tenth is kept, in batches
/// of [`KEPT`], so the allocator sees both short and longer lifetimes.
const STRINGS: u64 = 40_000;
/// Strings kept alive at most.
const KEPT: usize = 4_096;
/// The kernel's time at the reference speed, about what one call took on
/// one thread of a 2.1 GHz Xeon. A constant, so that scaled figures of
/// different runs share one unit.
pub const NOMINAL_NS: f64 = 12_000_000.0;

/// The kernel's buffers, allocated and touched once.
struct Kernel {
    table: Vec<u64>,
    from: Vec<u8>,
    to: Vec<u8>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            table: vec![1; TABLE_WORDS],
            from: vec![7; COPY_BYTES],
            to: vec![0; COPY_BYTES],
        }
    }

    /// Nanoseconds one call of the kernel took.
    fn run_ns(&mut self) -> u128 {
        let start = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE_WORDS - 1);
            self.table[i] = self.table[i].wrapping_add(x).rotate_left(5);
        }
        self.to.copy_from_slice(&self.from);
        let mut kept: Vec<String> = Vec::with_capacity(KEPT);
        for i in 0..STRINGS {
            let s = format!("k{i}:{}", i.wrapping_mul(2_654_435_761));
            if i % 10 == 0 {
                kept.push(s);
            } else {
                black_box(&s);
            }
            if kept.len() == KEPT {
                kept.clear();
            }
        }
        black_box((&self.table, &self.to, &kept));
        start.elapsed().as_nanos()
    }
}

/// The child's side: for every line read from standard input, run the
/// kernel once on each of `threads` threads at the same time and answer
/// their mean nanoseconds; return when input ends.
pub fn serve(threads: usize) {
    let threads = threads.max(1);
    let mut kernels: Vec<Kernel> = (0..threads).map(|_| Kernel::new()).collect();
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        if line.is_err() {
            break;
        }
        let ns = std::thread::scope(|s| {
            let runs: Vec<_> = kernels
                .iter_mut()
                .map(|k| s.spawn(move || k.run_ns()))
                .collect();
            let total: u128 = runs
                .into_iter()
                .map(|r| r.join().expect("kernel threads do not panic"))
                .sum();
            total / threads as u128
        });
        if writeln!(stdout, "{ns}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break;
        }
    }
}

/// The benchmark's side: a running kernel child, and the samples taken
/// through one phase of a run.
pub struct Speed {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
    samples: Vec<f64>,
}

impl Speed {
    /// Start the kernel child: this program, run with [`SERVE_FLAG`] and
    /// `threads`, the worker count of the workload it gauges, so that the
    /// kernel loads the host as the workload does.
    ///
    /// # Panics
    ///
    /// When the child cannot be started: without it no host-time metric
    /// can be reported.
    pub fn start(threads: usize) -> Speed {
        let exe = std::env::current_exe().expect("the benchmark's own path");
        let mut child = Command::new(&exe)
            .args([SERVE_FLAG, &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {} {SERVE_FLAG}: {e}", exe.display()));
        let input = child.stdin.take();
        let output = BufReader::new(child.stdout.take().expect("piped standard output"));
        Speed {
            child,
            input,
            output,
            samples: Vec::new(),
        }
    }

    /// Time the kernel `n` times, one call after another, while this
    /// process waits.
    ///
    /// # Panics
    ///
    /// When the child stops answering.
    pub fn sample(&mut self, n: usize) {
        let input = self.input.as_mut().expect("open until drop");
        for _ in 0..n {
            let mut line = String::new();
            let answered = writeln!(input)
                .and_then(|()| input.flush())
                .and_then(|()| self.output.read_line(&mut line));
            match (answered, line.trim().parse::<f64>()) {
                (Ok(_), Ok(ns)) => self.samples.push(ns),
                _ => panic!("the reference kernel stopped answering"),
            }
        }
    }

    /// How much slower than nominal the host ran: the median kernel time
    /// over [`NOMINAL_NS`]. 1 before any sample.
    pub fn slowdown(&self) -> f64 {
        slowdown(&self.samples)
    }
}

impl Drop for Speed {
    /// Close the child's input, so that it returns, and wait for it.
    fn drop(&mut self) {
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// The median of kernel times `samples` over [`NOMINAL_NS`]; 1 without
/// samples.
fn slowdown(samples: &[f64]) -> f64 {
    let sorted = crate::stats::sorted(samples.to_vec());
    crate::stats::median(&sorted).map_or(1.0, |m| m / NOMINAL_NS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_over_nominal() {
        assert_eq!(slowdown(&[]), 1.0);
        let samples = [NOMINAL_NS * 3.0, NOMINAL_NS, NOMINAL_NS * 1.5];
        assert_eq!(slowdown(&samples), 1.5);
        assert!(Kernel::new().run_ns() > 0);
    }
}
