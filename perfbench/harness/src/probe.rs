//! Host-time probes placed around calls into the program's layers.
//!
//! Every probe lives on this side of the program's public API: wrapper
//! impls of the user-code traits that delegate to the real implementation
//! and time each call, and a copy of the runtime's event loop that times
//! the kernel and the router separately. Nothing here changes what the
//! program computes; the traced run's digest is checked against the
//! untraced run's to prove it.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use vhadoop::prelude::*;

/// A timed call site.
#[derive(Debug, Clone, Copy)]
pub enum Probe {
    /// `InputFormat::read_split` (input generation reached from `route`).
    InputRead,
    /// Input generation called directly by the workload, outside `route`.
    InputGen,
    /// TPCx-HS validation work outside `route`.
    Validate,
    /// `MapReduceApp::map`.
    Map,
    /// `MapReduceApp::combine`.
    Combine,
    /// `MapReduceApp::reduce`.
    Reduce,
    /// `Partitioner::partition`.
    Partition,
    /// `MrRuntime::submit` and `MrRuntime::route`.
    Route,
    /// `Engine::next_wakeup`.
    NextWakeup,
}

const PROBES: usize = 9;

/// Busy time and call count of one probe.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub ns: u64,
    pub calls: u64,
}

impl Tally {
    pub fn secs(self) -> f64 {
        self.ns as f64 / 1e9
    }
}

thread_local! {
    static TALLIES: RefCell<[Tally; PROBES]> = const { RefCell::new([Tally { ns: 0, calls: 0 }; PROBES]) };
}

fn add(p: Probe, d: Duration) {
    TALLIES.with(|t| {
        let t = &mut t.borrow_mut()[p as usize];
        t.ns += d.as_nanos() as u64;
        t.calls += 1;
    });
}

/// Runs `f`, charging its host time to `p`.
pub fn timed<R>(p: Probe, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    add(p, t.elapsed());
    r
}

/// Zeroes every tally (start of a traced run).
pub fn reset() {
    TALLIES.with(|t| *t.borrow_mut() = [Tally::default(); PROBES]);
}

/// The tally of `p` so far.
pub fn tally(p: Probe) -> Tally {
    TALLIES.with(|t| t.borrow()[p as usize])
}

/// Delegates to the wrapped application and times each user-code call.
/// `name()` and `cost()` are passed through unchanged, so the simulated
/// cost of the job is the same as with the bare application.
pub struct TimedApp(pub Box<dyn MapReduceApp>);

impl MapReduceApp for TimedApp {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn map(&self, key: &K, value: &V, out: &mut dyn FnMut(K, V)) {
        timed(Probe::Map, || self.0.map(key, value, out))
    }

    fn reduce(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) {
        timed(Probe::Reduce, || self.0.reduce(key, values, out))
    }

    fn combine(&self, key: &K, values: &[V], out: &mut dyn FnMut(K, V)) -> bool {
        timed(Probe::Combine, || self.0.combine(key, values, out))
    }

    fn partitioner(&self) -> Box<dyn Partitioner> {
        Box::new(TimedPartitioner(self.0.partitioner()))
    }

    fn cost(&self) -> CostProfile {
        self.0.cost()
    }
}

/// Delegates to the wrapped partitioner and times each call.
pub struct TimedPartitioner(Box<dyn Partitioner>);

impl Partitioner for TimedPartitioner {
    fn partition(&self, key: &K, n: u32) -> u32 {
        timed(Probe::Partition, || self.0.partition(key, n))
    }
}

/// Delegates to the wrapped input format and times split materialization.
pub struct TimedInput(pub Box<dyn InputFormat>);

impl InputFormat for TimedInput {
    fn split_count(&self) -> usize {
        self.0.split_count()
    }

    fn read_split(&self, idx: usize) -> Vec<Record> {
        timed(Probe::InputRead, || self.0.read_split(idx))
    }

    fn split_bytes(&self, idx: usize) -> u64 {
        self.0.split_bytes(idx)
    }
}

/// Submits a job with every user-code trait object wrapped.
pub fn submit(
    rt: &mut MrRuntime,
    (spec, app, input): (JobSpec, Box<dyn MapReduceApp>, Box<dyn InputFormat>),
) -> JobId {
    let app = Box::new(TimedApp(app));
    let input = Box::new(TimedInput(input));
    timed(Probe::Route, || rt.submit(spec, app, input))
}

/// Host latency of each kernel wakeup of a traced run, in nanoseconds.
#[derive(Debug, Default)]
pub struct Latencies(pub Vec<u64>);

impl Latencies {
    /// Nearest-rank percentile `p` (0..=100) in microseconds.
    pub fn us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
        v[rank.clamp(1, v.len()) - 1] as f64 / 1e3
    }
}

/// The loop of `MrRuntime::drive_until_done` / `drive_all`, with
/// `Engine::next_wakeup` and `MrRuntime::route` timed apart. Pulls
/// wakeups until `stop` holds (checked before each one) or the event
/// queue drains; returns every finished job in completion order.
pub fn drive(
    rt: &mut MrRuntime,
    lat: &mut Latencies,
    mut stop: impl FnMut(&MrRuntime, &[JobResult]) -> bool,
) -> Vec<JobResult> {
    let mut done = Vec::new();
    while !stop(rt, &done) {
        let t = Instant::now();
        let next = rt.engine.next_wakeup();
        let dt = t.elapsed();
        add(Probe::NextWakeup, dt);
        let Some((_, w)) = next else { break };
        lat.0.push(dt.as_nanos() as u64);
        for ev in timed(Probe::Route, || rt.route(&w)) {
            if let JobEvent::JobDone(res) = ev {
                done.push(*res);
            }
        }
    }
    done
}

/// Drives until job `id` finishes, as `MrRuntime::run_job` does.
pub fn run_until(rt: &mut MrRuntime, lat: &mut Latencies, id: JobId) -> JobResult {
    let mut done = drive(rt, lat, |_, done| done.iter().any(|r| r.id == id));
    let at = done.iter().position(|r| r.id == id).expect("job must finish before events drain");
    done.swap_remove(at)
}

/// CPU time this thread has run, in seconds (`/proc/thread-self/schedstat`,
/// which leaves out time the hypervisor stole from the virtual CPU).
pub fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns / 1e9)
}

/// Restarts the peak resident set (`VmHWM`) from the current one, where
/// Linux allows it, so that a later [`peak_rss_mb`] does not count the
/// calibration kernel's memory.
pub fn reset_peak_rss() {
    // Freed memory that the allocator keeps would count as resident.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only returns free heap pages to
        // the kernel; it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
