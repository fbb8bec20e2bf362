//! CPU placement for `serve`: the client and the daemons it starts share
//! one CPU (children inherit their parent thread's CPU set).

use std::io;

/// A CPU set laid out as glibc's `cpu_set_t` (1 024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct CpuMask([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
}

impl CpuMask {
    /// The set holding exactly `cpus`.
    pub fn of(cpus: &[usize]) -> Self {
        let mut mask = Self([0; 16]);
        for &cpu in cpus {
            mask.0[cpu / 64] |= 1 << (cpu % 64);
        }
        mask
    }

    /// The CPUs the calling thread may run on.
    pub fn allowed() -> io::Result<Self> {
        let mut mask = Self([0; 16]);
        // SAFETY: `mask` is a writable buffer of the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Self>(), &mut mask) };
        if rc == 0 {
            Ok(mask)
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// The CPU ids in the set, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..64 * self.0.len())
            .filter(|&cpu| self.0[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    /// The highest CPU of the set alone, if the set has any.
    pub fn last(&self) -> Option<Self> {
        self.cpus().last().map(|&cpu| Self::of(&[cpu]))
    }

    /// Restricts the calling thread, and every thread or process it starts
    /// later, to this set.
    pub fn pin_current(&self) -> io::Result<()> {
        // SAFETY: `self` is a readable buffer of the size passed.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<Self>(), self) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mask_round_trips_its_cpus() {
        let cpus = [0, 5, 63, 64, 1023];
        assert_eq!(CpuMask::of(&cpus).cpus(), cpus);
        assert_eq!(CpuMask::of(&cpus).last(), Some(CpuMask::of(&[1023])));
        assert_eq!(CpuMask::of(&[]).last(), None);
    }

    #[test]
    fn this_thread_may_run_somewhere_and_can_be_pinned_there() {
        let allowed = CpuMask::allowed().expect("sched_getaffinity");
        let first = allowed.cpus()[0];
        std::thread::spawn(move || {
            let one = CpuMask::of(&[first]);
            one.pin_current().expect("sched_setaffinity");
            assert_eq!(CpuMask::allowed().expect("sched_getaffinity"), one);
        })
        .join()
        .expect("pinned thread");
    }
}
