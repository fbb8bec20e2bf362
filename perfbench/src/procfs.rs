//! Process accounting read from `/proc`: peak memory, CPU time, and the
//! scheduler counters that show whether a run was disturbed.

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux target this benchmark builds for).
const TICKS_PER_SECOND: f64 = 100.0;

/// Which process to read: this one or a child by pid.
#[derive(Debug, Clone, Copy)]
pub enum Proc {
    /// The benchmark process itself.
    Myself,
    /// A child process.
    Pid(u32),
}

impl Proc {
    fn dir(self) -> String {
        match self {
            Self::Myself => "/proc/self".to_owned(),
            Self::Pid(pid) => format!("/proc/{pid}"),
        }
    }
}

/// One `Key: value kB` field of `/proc/<pid>/status`, if present.
fn status_field(proc_: Proc, key: &str) -> Option<u64> {
    let text = fs::read_to_string(format!("{}/status", proc_.dir())).ok()?;
    text.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb(proc_: Proc) -> f64 {
    status_field(proc_, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// Live thread count.
pub fn threads(proc_: Proc) -> u64 {
    status_field(proc_, "Threads").unwrap_or(0)
}

/// CPU time of a process. `/proc/<pid>/stat` counts every thread the
/// process ever ran, exited ones included, but only in 10 ms ticks;
/// `/proc/<pid>/task/*/schedstat` counts nanoseconds, but only for live
/// threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTime {
    ticks_s: f64,
    live_s: f64,
}

impl CpuTime {
    /// Reads the process's CPU time now.
    pub fn of(proc_: Proc) -> Self {
        Self {
            ticks_s: stat_cpu_seconds(proc_),
            live_s: sum_task_fields(proc_, "schedstat", 0) / 1e9,
        }
    }

    /// Seconds of CPU used since `earlier`: the nanosecond count, unless
    /// the tick count exceeds it by more than its rounding, which means
    /// threads that have since exited used CPU (the router's fan-out).
    pub fn since(self, earlier: Self) -> f64 {
        let ticks = self.ticks_s - earlier.ticks_s;
        let live = self.live_s - earlier.live_s;
        if ticks > live + 2.0 / TICKS_PER_SECOND {
            ticks
        } else {
            live
        }
    }
}

fn stat_cpu_seconds(proc_: Proc) -> f64 {
    let Ok(text) = fs::read_to_string(format!("{}/stat", proc_.dir())) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after it.
    let Some((_, rest)) = text.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (ticks(11) + ticks(12)) / TICKS_PER_SECOND
}

/// Sums whitespace-separated field `index` of `file` over the live threads.
fn sum_task_fields(proc_: Proc, file: &str, index: usize) -> f64 {
    let Ok(tasks) = fs::read_dir(format!("{}/task", proc_.dir())) else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join(file)).ok())
        .filter_map(|text| text.split_whitespace().nth(index)?.parse::<f64>().ok())
        .sum()
}

/// Scheduler interference over the live threads of a process: time spent
/// runnable but waiting for a CPU, and involuntary context switches.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interference {
    /// Run-queue wait in ms (`/proc/<pid>/task/*/schedstat`, field 2).
    pub runqueue_wait_ms: f64,
    /// Involuntary context switches (`nonvoluntary_ctxt_switches`).
    pub involuntary_switches: u64,
}

impl Interference {
    /// Sums the counters over `procs`.
    pub fn of(procs: &[Proc]) -> Self {
        let mut total = Self::default();
        for &p in procs {
            total.runqueue_wait_ms += sum_task_fields(p, "schedstat", 1) / 1e6;
            let Ok(tasks) = fs::read_dir(format!("{}/task", p.dir())) else {
                continue;
            };
            for task in tasks.flatten() {
                if let Ok(text) = fs::read_to_string(task.path().join("status")) {
                    total.involuntary_switches += text
                        .lines()
                        .find_map(|l| l.strip_prefix("nonvoluntary_ctxt_switches:"))
                        .and_then(|v| v.trim().parse::<u64>().ok())
                        .unwrap_or(0);
                }
            }
        }
        total
    }

    /// The counters accumulated since `earlier`.
    pub fn since(self, earlier: Self) -> Self {
        Self {
            runqueue_wait_ms: self.runqueue_wait_ms - earlier.runqueue_wait_ms,
            involuntary_switches: self
                .involuntary_switches
                .saturating_sub(earlier.involuntary_switches),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(Proc::Myself) > 0.0);
        assert!(threads(Proc::Myself) >= 1);
        let before = CpuTime::of(Proc::Myself);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(spin.elapsed());
        }
        assert!(CpuTime::of(Proc::Myself).since(before) > 0.0);
        let now = Interference::of(&[Proc::Myself]);
        assert!(now.runqueue_wait_ms >= 0.0);
    }
}
