//! CPU affinity — the one thing the benchmark needs that `std` has no
//! safe call for. Only `dashboard_reads_wire` uses it.
//!
//! On a wire workload the client thread and the server worker hand each
//! request back and forth. Where the scheduler puts the two decides the
//! hand-off cost: on one CPU it is a context switch (a 256-byte loopback
//! ping-pong measures 7 µs per round trip on the 2-vCPU VM this was
//! written on); on two CPUs each side goes idle while it waits and every
//! hand-off wakes a halted virtual CPU (40 µs per round trip, same VM).
//! The scheduler keeps one placement for minutes and then changes it —
//! after a parallel build it prefers the second. A dashboard read is
//! 15 µs of work, so unpinned the workload has two states, the same
//! code on the same estate: 48,000 ops/s at 17 µs p50, or 16,000 ops/s
//! at 56 µs p50. No bound survives a factor of three, and neither state
//! is the node's doing. A closed loop with one client never has two
//! requests in flight, so one CPU serves it in full and nothing a read
//! does is hidden by it: no read hands work to another thread.
//!
//! `rent_wire_durable` is not pinned. Its op is 1.4 ms, the hand-off is
//! 3 % of it, and a write is where work may one day move off the request
//! thread (a background fsync or publish, a pipelined producer); on one
//! CPU that could show neither as a gain nor as a loss.

/// An affinity mask for up to 1024 CPUs, as the kernel takes it.
#[derive(Clone, Copy)]
pub struct CpuMask([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's affinity mask.
fn current() -> Option<CpuMask> {
    let mut mask = CpuMask([0; 16]);
    // SAFETY: `mask.0` is a live, writable buffer of exactly the
    // `size_of_val` bytes passed as its length; pid 0 names the calling
    // thread; the call writes nothing beyond that length.
    let status =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_mut_ptr()) };
    (status == 0).then_some(mask)
}

/// Set the calling thread's affinity mask; threads it spawns afterwards
/// inherit it. Returns whether the kernel accepted it.
pub fn set(mask: &CpuMask) -> bool {
    // SAFETY: `mask.0` is a live, readable buffer of exactly the
    // `size_of_val` bytes passed as its length; pid 0 names the calling
    // thread; the call only reads the buffer.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask.0), mask.0.as_ptr()) == 0 }
}

/// Restrict the calling thread to the lowest CPU it is allowed on.
/// Returns the mask it had, for [`set`] to restore, or `None` if the
/// kernel would not say or would not have it — the run goes on unpinned.
pub fn pin_to_one_cpu() -> Option<CpuMask> {
    let before = current()?;
    let (word, bits) = before.0.iter().enumerate().find(|(_, bits)| **bits != 0)?;
    let mut one = CpuMask([0; 16]);
    one.0[word] = 1 << bits.trailing_zeros();
    set(&one).then_some(before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_leaves_one_cpu_and_restoring_brings_the_rest_back() {
        let before = current().expect("affinity is readable");
        let cpus = |mask: &CpuMask| mask.0.iter().map(|w| w.count_ones()).sum::<u32>();
        let saved = pin_to_one_cpu().expect("pinning works");
        assert_eq!(cpus(&current().unwrap()), 1);
        assert!(set(&saved));
        assert_eq!(cpus(&current().unwrap()), cpus(&before));
    }
}
