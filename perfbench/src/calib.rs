//! A fixed reference workload that measures how fast the host runs.
//!
//! The shared host changes speed by up to 2× over minutes, with no
//! steal time showing in the guest: other tenants contend for the cores
//! and the memory system. Timed runs therefore run this gauge after
//! every pass and rescale the pass's host times to a reference host (see
//! README.md, "Steadiness"). The gauge is the benchmark's own code and
//! calls nothing in the simulator, so a change to the simulator moves
//! the rescaled figures in full.
//!
//! Each of its two kernels does the kind of work an event-driven
//! simulator does: it pops the earliest of a few hundred pending keys
//! from a binary heap, mixes the word of a state table the key names,
//! and schedules a new key at a data-dependent time and slot. The core
//! kernel's 1 MiB table fits in a core's private cache, so it measures
//! the core. The memory kernel's 16 MiB table does not, so it also
//! measures the shared cache and memory.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

const CORE_WORDS: usize = 1 << 17;
const MEMORY_WORDS: usize = 1 << 21;
const PENDING: u32 = 256;
/// Steps per timed kernel call.
const STEPS: u32 = 30_000;
/// Timed calls per kernel per measurement; the fastest counts.
const CALLS: u32 = 3;
/// The geometric mean of the two kernels' call times on the reference
/// host that timed metrics are rescaled to. A 2-vCPU Xeon guest takes
/// 2.3–4 ms.
pub const NOMINAL: Duration = Duration::from_millis(3);

/// Both kernels.
pub struct Gauge {
    core: Kernel,
    memory: Kernel,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            core: Kernel::new(CORE_WORDS),
            memory: Kernel::new(MEMORY_WORDS),
        }
    }

    /// How much slower than the reference host this host runs now: the
    /// geometric mean of the kernels' fastest call times, over
    /// [`NOMINAL`]. It costs a fixed number of calls, so how long the
    /// pass before took does not change how it is measured.
    pub fn slowdown(&mut self) -> f64 {
        let core = self.core.fastest().as_secs_f64();
        let memory = self.memory.fastest().as_secs_f64();
        (core * memory).sqrt() / NOMINAL.as_secs_f64()
    }
}

/// One kernel's working state.
struct Kernel {
    state: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    acc: u64,
}

fn mix(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

impl Kernel {
    fn new(words: usize) -> Kernel {
        Kernel {
            state: (0..words as u64).map(mix).collect(),
            heap: (0..PENDING)
                .map(|i| Reverse((u64::from(i), i * 97 % words as u32)))
                .collect(),
            acc: 0,
        }
    }

    /// Host time of one call of [`STEPS`] steps.
    fn time(&mut self) -> Duration {
        let t = Instant::now();
        let mask = self.state.len() as u64 - 1;
        let mut acc = self.acc;
        for _ in 0..STEPS {
            let Some(Reverse((t, slot))) = self.heap.pop() else {
                break;
            };
            let word = &mut self.state[slot as usize];
            let x = mix(*word ^ t);
            *word = x;
            let next = if x & 3 == 0 { t + 1 } else { t + 1 + (x >> 54) };
            acc = acc.rotate_left(5) ^ x;
            self.heap.push(Reverse((next, (x & mask) as u32)));
        }
        self.acc = black_box(acc);
        t.elapsed()
    }

    /// The fastest of [`CALLS`] calls. The table is read through first,
    /// so how much of it the pass before evicted does not count: a
    /// change to the simulator's footprint must not move the gauge.
    fn fastest(&mut self) -> Duration {
        self.acc ^= black_box(self.state.iter().fold(0, |a, &w| a ^ w));
        (0..CALLS).map(|_| self.time()).min().expect("CALLS > 0")
    }
}
