//! CPU affinity: the benchmark and the servers it starts share one core.

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Restricts the calling thread, and every thread and process it starts
/// afterwards, to the last core it may run on (the first usually takes the
/// machine's device interrupts). Returns whether the pin took effect.
pub fn pin_to_one_core() -> bool {
    let mut mask = [0u8; 128];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(cpu) = (0..mask.len() * 8).rfind(|i| mask[i / 8] & (1 << (i % 8)) != 0) else {
        return false;
    };
    let mut one = [0u8; 128];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly the size passed and
    // holds a core the thread is already allowed on; pid 0 is the calling
    // thread.
    unsafe { sched_setaffinity(0, one.len(), one.as_ptr()) == 0 }
}
