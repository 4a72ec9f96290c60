//! Process accounting: CPU time of this process and of a child process
//! (through the C library std already links), and peak resident sets.
//!
//! Peak resident set is read as `VmHWM` from `/proc/<pid>/status`, which
//! starts afresh at `exec`. `getrusage`'s `ru_maxrss` does not: under
//! `cargo run` it would report cargo's own peak, and for a forked child
//! the parent's.

use std::os::raw::{c_int, c_long};
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

const RUSAGE_SELF: c_int = 0;
const SIGKILL: c_int = 9;
const PR_SET_PDEATHSIG: c_int = 1;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn clock_getcpuclockid(pid: c_int, clock: *mut c_int) -> c_int;
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn prctl(option: c_int, arg2: std::os::raw::c_ulong, ...) -> c_int;
}

fn seconds(t: Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 * 1e-6
}

/// User + system CPU seconds consumed so far by every thread of this
/// process.
pub fn self_cpu_s() -> f64 {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, correctly sized `struct rusage`.
    unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    seconds(usage.utime) + seconds(usage.stime)
}

/// Peak resident set of process `pid` (`"self"` for this one) in MiB, or
/// 0 when it cannot be read.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A child process that is killed and reaped when dropped, so no exit
/// path of the benchmark leaves it running.
pub struct ChildGuard {
    child: Option<Child>,
    clock: c_int,
}

impl ChildGuard {
    /// Spawns `command` with a piped stdout. The child is also killed if
    /// the spawning thread dies without dropping the guard, so spawn from
    /// a thread that outlives the child (the benchmark uses its main
    /// thread).
    pub fn spawn(mut command: Command) -> Result<ChildGuard, String> {
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe syscall.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as std::os::raw::c_ulong);
                Ok(())
            });
        }
        let child = command
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn child: {e}"))?;
        let mut clock: c_int = 0;
        // SAFETY: `clock` is a live out-parameter.
        let rc = unsafe { clock_getcpuclockid(child.id() as c_int, &mut clock) };
        let mut guard = ChildGuard {
            child: Some(child),
            clock,
        };
        if rc != 0 {
            guard.stop();
            return Err(format!("no CPU clock for child process (errno {rc})"));
        }
        Ok(guard)
    }

    /// The child's stdout pipe (taken once).
    pub fn take_stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.as_mut().and_then(|c| c.stdout.take())
    }

    /// CPU seconds the child (all its threads) has used so far.
    pub fn cpu_s(&self) -> f64 {
        let mut ts = Timespec::default();
        // SAFETY: `ts` is a live out-parameter; the clock id came from
        // `clock_getcpuclockid` for a child that has not been reaped.
        unsafe { clock_gettime(self.clock, &mut ts) };
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    }

    /// The child's peak resident set so far, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.child
            .as_ref()
            .map_or(0.0, |c| peak_rss_mb(&c.id().to_string()))
    }

    /// Kills and reaps the child.
    pub fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.stop();
    }
}
