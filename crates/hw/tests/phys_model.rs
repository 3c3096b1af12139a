//! Model-based property test for physical memory's word access:
//! `read_u64` reads straight from a frame's backing (sparse word
//! entries or a full page), so after arbitrary interleavings of word
//! writes, byte-range writes and frame drops it must agree with an
//! 8-byte `read` and with a flat byte-array oracle at every probed
//! address.

use proptest::prelude::*;

use o1_hw::{FrameNo, PhysAddr, PhysicalMemory, PAGE_SIZE};

/// Frames under test. A frame can hold four sparse word entries before
/// it is promoted to a full page; a few frames keep collisions (and
/// therefore overlaps and promotions) frequent.
const FRAMES: u64 = 3;
const BYTES: u64 = FRAMES * PAGE_SIZE;

#[derive(Clone, Debug)]
enum Op {
    /// `write_u64(pa, value)`.
    Word { pa: u64, value: u64 },
    /// `write(pa, &[byte; len])`.
    Bytes { pa: u64, len: u64, byte: u8 },
    /// `zero_frames(frame, 1)`: the frame's backing is dropped.
    Drop { frame: u64 },
}

/// Word addresses: aligned and unaligned in the first 48 bytes of a
/// frame, where they collide, and frame-crossing ones at a frame's end.
fn word_pa() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => (0..FRAMES, 0u64..6).prop_map(|(f, k)| f * PAGE_SIZE + 8 * k),
        2 => (0..FRAMES, 0u64..48).prop_map(|(f, o)| f * PAGE_SIZE + o),
        1 => (0..FRAMES - 1, PAGE_SIZE - 7..PAGE_SIZE).prop_map(|(f, o)| f * PAGE_SIZE + o),
    ]
}

fn word_value() -> impl Strategy<Value = u64> {
    prop_oneof![1 => Just(0u64), 3 => any::<u64>()]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (word_pa(), word_value()).prop_map(|(pa, value)| Op::Word { pa, value }),
        2 => (word_pa(), 1u64..16, prop_oneof![Just(0u8), any::<u8>()])
            .prop_map(|(pa, len, byte)| Op::Bytes { pa, len: len.min(BYTES - pa), byte }),
        1 => (0..FRAMES).prop_map(|frame| Op::Drop { frame }),
    ]
}

/// Check every word address near the ones the ops touch: the first 56
/// bytes of each frame and the frame-crossing words at its end.
fn check(mem: &PhysicalMemory, oracle: &[u8]) {
    let probes = (0..FRAMES).flat_map(|f| {
        let base = f * PAGE_SIZE;
        (base..base + 56).chain(base + PAGE_SIZE - 16..(base + PAGE_SIZE).min(BYTES - 7))
    });
    for pa in probes {
        let word = mem.read_u64(PhysAddr(pa));
        let mut bytes = [0u8; 8];
        mem.read(PhysAddr(pa), &mut bytes);
        prop_assert_eq!(
            word,
            u64::from_le_bytes(bytes),
            "read_u64 vs read at {:#x}",
            pa
        );
        let want = u64::from_le_bytes(oracle[pa as usize..pa as usize + 8].try_into().unwrap());
        prop_assert_eq!(word, want, "read_u64 vs oracle at {:#x}", pa);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    /// Every case also runs one promotion burst at a random point:
    /// drop a frame, then store five distinct nonzero aligned words
    /// into it, one more than its sparse word entries hold, so the
    /// fifth store promotes the frame to a full page.
    #[test]
    fn read_u64_matches_byte_reads(
        ops in proptest::collection::vec(op(), 1..100),
        burst_at in 0usize..100,
        burst_frame in 0..FRAMES,
    ) {
        let mut mem = PhysicalMemory::new(BYTES, 0);
        let mut oracle = vec![0u8; BYTES as usize];
        let burst = (0..5u64).map(|k| Op::Word {
            pa: burst_frame * PAGE_SIZE + 8 * k,
            value: (k + 1) << 40 | 0xb0 | k,
        });
        let at = burst_at.min(ops.len());
        let all = ops[..at]
            .iter()
            .cloned()
            .chain([Op::Drop { frame: burst_frame }])
            .chain(burst)
            .chain(ops[at..].iter().cloned());
        for op in all {
            match op {
                Op::Word { pa, value } => {
                    mem.write_u64(PhysAddr(pa), value);
                    oracle[pa as usize..pa as usize + 8].copy_from_slice(&value.to_le_bytes());
                }
                Op::Bytes { pa, len, byte } => {
                    let buf = vec![byte; len as usize];
                    mem.write(PhysAddr(pa), &buf);
                    oracle[pa as usize..(pa + len) as usize].copy_from_slice(&buf);
                }
                Op::Drop { frame } => {
                    mem.zero_frames(FrameNo(frame), 1);
                    let base = (frame * PAGE_SIZE) as usize;
                    oracle[base..base + PAGE_SIZE as usize].fill(0);
                }
            }
            check(&mem, &oracle);
        }
    }
}
