//! The host's current speed, from a fixed reference loop.
//!
//! The benchmark's hosts are shared: how fast they run a thread drifts by
//! up to a third over minutes as other tenants come and go. The timed pass
//! and the set-up therefore run a short reference loop next to what they
//! time, and report host time scaled to the speed of a quiet reference
//! host. The loop is this crate's own code, so no change to the simulator
//! can move it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Entities of the reference loop.
const ENTITIES: u32 = 512;

/// Events the reference loop handles per slice (about 0.45 ms).
const EVENTS: u32 = 6_000;

/// Host nanoseconds of one reference slice on the 2-core reference host
/// (Intel Xeon, 2.0 GHz nominal) while quiet.
pub const REFERENCE_NS: f64 = 430_000.0;

/// The SplitMix64 finalizer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runs one reference slice and returns the host's current speed relative
/// to the quiet reference host: [`REFERENCE_NS`] ÷ the slice's time.
/// Multiplying a host time measured next to it by this factor gives the
/// time the quiet reference host would have taken.
///
/// The slice is a frozen miniature of the simulator's drive loop: a binary
/// heap of pending events, per-entity state, and branches on simulated
/// values. It slows with the host the way the cells do, which a pure
/// arithmetic loop does less: a busy sibling hyperthread competes for the
/// caches and branch predictors the cells lean on.
pub fn host_speed() -> f64 {
    let start = Instant::now();
    let mut queue = BinaryHeap::with_capacity(2 * ENTITIES as usize);
    let mut state = vec![0u64; ENTITIES as usize];
    for id in 0..ENTITIES {
        queue.push(Reverse((splitmix(u64::from(id)) % 1000, id)));
    }
    let mut sum = 0u64;
    for _ in 0..EVENTS {
        let Reverse((now, id)) = queue.pop().expect("every event schedules a successor");
        let s = &mut state[id as usize];
        *s = splitmix(*s ^ now);
        let r = *s;
        let delay = match r % 4 {
            0 => 1 + r % 7,
            1 => 50 + r % 100,
            2 => 5,
            _ => 300 + (r >> 8) % 500,
        };
        if r & 16 == 0 {
            sum = sum.wrapping_add(delay);
        }
        queue.push(Reverse((now + delay, id)));
    }
    black_box((sum, state));
    REFERENCE_NS / start.elapsed().as_nanos().max(1) as f64
}
