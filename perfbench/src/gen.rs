//! Seeded inputs: the preload, the op stream and the crash schedule. The
//! program only ever sees the generated operations.

use bytes::Bytes;
use curp_workload::ycsb::{Workload, WorkloadOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Value size of every write (the paper's 100 B RAMCloud objects).
pub const VALUE_SIZE: usize = 100;

/// Which key distribution and mix the stream draws.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// 100 % `Put`, uniform over the keys.
    UniformPut,
    /// YCSB-A: 50 % `Get` / 50 % `Put`, Zipfian(0.99) over the keys.
    YcsbA,
}

/// A deterministic, endless op stream.
pub struct OpStream {
    workload: Workload,
    rng: StdRng,
}

impl OpStream {
    pub fn new(mix: Mix, keys: u64, seed: u64) -> OpStream {
        let workload = match mix {
            Mix::UniformPut => Workload::uniform_writes(keys),
            Mix::YcsbA => Workload::ycsb_a(keys),
        };
        OpStream { workload, rng: StdRng::seed_from_u64(seed) }
    }

    pub fn next_op(&mut self) -> WorkloadOp {
        self.workload.next_op(&mut self.rng)
    }
}

/// The preload: every key `user<i>` with a seeded 100 B value.
pub fn preload(keys: u64, seed: u64) -> impl Iterator<Item = (Bytes, Bytes)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f9e_10ad);
    (0..keys).map(move |i| {
        let mut value = vec![0u8; VALUE_SIZE];
        rng.fill(&mut value[..]);
        (Workload::key_bytes(i), Bytes::from(value))
    })
}

/// Crash points for the recovery workload, as indices into the open-loop
/// schedule of `total` ops: `k` fixed points at the middle of `k` equal
/// slices, so every recovery has half a slice to finish before the next
/// crash and runs see the same crash timing whatever their seed.
pub fn crash_schedule(total: u64, k: u64) -> Vec<u64> {
    (0..k).map(|i| (2 * i + 1) * total / (2 * k)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(mix: Mix, seed: u64, n: usize) -> Vec<WorkloadOp> {
        let mut s = OpStream::new(mix, 1000, seed);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_same_op_stream() {
        for mix in [Mix::UniformPut, Mix::YcsbA] {
            assert_eq!(ops(mix, 7, 500), ops(mix, 7, 500));
            assert_ne!(ops(mix, 7, 500), ops(mix, 8, 500));
        }
        let a: Vec<_> = preload(50, 3).collect();
        assert_eq!(a, preload(50, 3).collect::<Vec<_>>());
        assert!(a.iter().all(|(_, v)| v.len() == VALUE_SIZE));
    }

    #[test]
    fn mixes_have_their_shape() {
        let puts = ops(Mix::UniformPut, 1, 1000);
        assert!(puts.iter().all(|o| !o.is_read()));
        let reads = ops(Mix::YcsbA, 1, 4000).iter().filter(|o| o.is_read()).count();
        assert!((1800..2200).contains(&reads), "reads={reads}");
    }

    #[test]
    fn crash_schedule_is_fixed_and_spread() {
        assert_eq!(crash_schedule(3000, 4), vec![375, 1125, 1875, 2625]);
        assert_eq!(crash_schedule(3000, 4), crash_schedule(3000, 4));
    }
}
