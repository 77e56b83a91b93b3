//! The host-speed reference: a fixed ALU-bound kernel timed between passes.
//!
//! The benchmark runs on shared 2-vCPU hosts whose neighbours slow
//! compute-bound code by up to 2.5x, in phases that last from seconds to
//! whole runs.  A register-only multiply chain does not see them; a Keccak
//! permutation does, by the same factor as the sessions (measured: session
//! time varied 2x between 10 s blocks while its ratio to this kernel stayed
//! within 1%).  Timing this kernel around every pass gives the pass's
//! contention, and [`scale`] converts a host duration into *reference time*:
//! what it would have taken with the kernel at its nominal speed.  The kernel
//! is the benchmark's own Keccak-f\[1600\], so no change to the library under
//! test moves it.

use std::time::{Duration, Instant};

/// Permutations per reference measurement (about 2 ms).
const PERMUTATIONS: u32 = 5_000;

/// Nominal time of one measurement: 400 ns per permutation, the kernel's
/// uncontended speed on the 2-vCPU Xeon (avx512) development host.
pub const NOMINAL: Duration = Duration::from_nanos(400 * PERMUTATIONS as u64);

const ROUND_CONSTANTS: [u64; 24] = [
    0x0000_0000_0000_0001,
    0x0000_0000_0000_8082,
    0x8000_0000_0000_808a,
    0x8000_0000_8000_8000,
    0x0000_0000_0000_808b,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8009,
    0x0000_0000_0000_008a,
    0x0000_0000_0000_0088,
    0x0000_0000_8000_8009,
    0x0000_0000_8000_000a,
    0x0000_0000_8000_808b,
    0x8000_0000_0000_008b,
    0x8000_0000_0000_8089,
    0x8000_0000_0000_8003,
    0x8000_0000_0000_8002,
    0x8000_0000_0000_0080,
    0x0000_0000_0000_800a,
    0x8000_0000_8000_000a,
    0x8000_0000_8000_8081,
    0x8000_0000_0000_8080,
    0x0000_0000_8000_0001,
    0x8000_0000_8000_8008,
];

const ROTATIONS: [u32; 25] =
    [0, 1, 62, 28, 27, 36, 44, 6, 55, 20, 3, 10, 43, 25, 39, 41, 45, 15, 21, 8, 18, 2, 61, 56, 14];

fn permute(a: &mut [u64; 25]) {
    for rc in ROUND_CONSTANTS {
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                a[x + 5 * y] ^= d;
            }
        }
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                b[y + 5 * ((2 * x + 3 * y) % 5)] = a[x + 5 * y].rotate_left(ROTATIONS[x + 5 * y]);
            }
        }
        for x in 0..5 {
            for y in 0..5 {
                a[x + 5 * y] = b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        a[0] ^= rc;
    }
}

/// Times the kernel once on the calling thread.
pub fn measure() -> Duration {
    let mut state = [0x5a5a_5a5a_5a5a_5a5au64; 25];
    let start = Instant::now();
    for _ in 0..PERMUTATIONS {
        permute(std::hint::black_box(&mut state));
    }
    std::hint::black_box(&state);
    start.elapsed()
}

/// The factor that turns host time measured under `reference` into
/// reference time.
pub fn scale(reference: Duration) -> f64 {
    NOMINAL.as_secs_f64() / reference.as_secs_f64().max(f64::MIN_POSITIVE)
}
