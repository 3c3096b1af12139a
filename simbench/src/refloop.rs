//! The reference loop: the yardstick host times are divided by.
//!
//! The host this benchmark runs on changes speed by tens of percent
//! between identical runs, for seconds to minutes at a time, and
//! thread CPU time tracks wall time: the machine itself slows, not the
//! scheduler. A fixed, std-only loop run in every measurement slice
//! slows with it, so a simulator time divided by the loop's time in the
//! same slice keeps the program's cost and drops most of the drift.
//!
//! The loop runs four independent xorshift chains, each updating a
//! 64 KiB table, so it leans on instruction-level parallelism and the
//! L1/L2 caches the way the simulator's hash probes and arena walks do.
//! A single dependent chain, or a table that spills to L3, tracked the
//! simulator's slow periods two to four times worse. It allocates
//! nothing once built and calls no code of the simulator.

use std::hint::black_box;

/// 64 KiB of `u64`s.
const TABLE_WORDS: usize = 1 << 13;
/// Steps of the four chains per iteration (64 table updates).
const STEPS: usize = 16;

#[inline(always)]
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

pub struct RefLoop {
    table: Vec<u64>,
    chains: [u64; 4],
}

impl RefLoop {
    pub fn new() -> RefLoop {
        RefLoop {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9) | 1)
                .collect(),
            chains: [1, 2, 3, 4],
        }
    }

    /// Run `iters` iterations.
    #[inline(never)]
    pub fn run(&mut self, iters: u32) {
        let t = &mut self.table[..];
        let [mut a, mut b, mut c, mut d] = self.chains;
        let slot = |x: u64| (x as usize) & (TABLE_WORDS - 1);
        for _ in 0..iters {
            for _ in 0..STEPS {
                a = xorshift(a);
                b = xorshift(b);
                c = xorshift(c);
                d = xorshift(d);
                t[slot(a)] = t[slot(a)].wrapping_add(b);
                t[slot(b)] ^= c;
                t[slot(c)] = t[slot(c)].rotate_left(3);
                t[slot(d)] = t[slot(d)].wrapping_mul(3);
            }
        }
        self.chains = black_box([a, b, c, d]);
    }
}
