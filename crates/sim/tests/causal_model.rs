//! Reference-model property test for the causal log's parent edges and
//! EQ FIFOs.
//!
//! The log indexes trace ids of the minted shape (`node << 40 | counter`,
//! bit 63 for sender-side chains) densely and everything else through a
//! fallback map. Here arbitrary `u64` ids, in-shape ids, ids just past
//! the dense bounds and the null id drive the log and a plain
//! ordered-map model together; every stored record's parent edge must
//! match the model's. A small cap exercises the "records past the cap do
//! not become parents" rule. EQ posts on small and huge node ids must pop
//! in the model's FIFO order.

use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};
use xt3_sim::{CausalLog, CausalStage, SimTime, TraceId};

const STAGES: [CausalStage; 4] = [
    CausalStage::ApiEntry,
    CausalStage::LinkHop,
    CausalStage::EqPost,
    CausalStage::AppDeliver,
];

/// An id of the minted shape: `node << 40 | counter`, maybe with bit 63.
fn shaped(node: u64, counter: u64, chain: bool) -> u64 {
    (u64::from(chain) << 63) | (node << 40) | counter
}

fn id_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        (0u64..4, 0u64..12, any::<bool>()).prop_map(|(n, c, b)| shaped(n, c, b)),
        (0u64..4, 0u64..12, any::<bool>()).prop_map(|(n, c, b)| shaped(n, c, b)),
        // Just past (and at the edge of) the dense node and counter bounds.
        (0u64..3, any::<bool>()).prop_map(|(k, b)| shaped((1 << 16) - 1 + k, 5, b)),
        (0u64..3, any::<bool>()).prop_map(|(k, b)| shaped(2, (1 << 20) - 1 + k, b)),
        // Node fields wider than 16 bits, up to the full 23.
        (0u64..4, any::<bool>()).prop_map(|(k, b)| shaped((1 << 23) - 1 - k, 1, b)),
        Just(0u64),
    ]
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(128))]
    #[test]
    fn parent_edges_match_ordered_map_model(
        cap in prop_oneof![Just(usize::MAX), 0usize..64],
        ops in proptest::collection::vec(
            (id_strategy(), 0usize..STAGES.len(), any::<bool>(), 0u32..4),
            0..200,
        )
    ) {
        let mut log = if cap == usize::MAX { CausalLog::enabled() } else { CausalLog::with_cap(cap) };
        let mut last: BTreeMap<u64, u32> = BTreeMap::new();
        let mut want_parents = Vec::new();
        for (i, &(id, stage, explicit, node)) in ops.iter().enumerate() {
            let stage = STAGES[stage];
            let at = SimTime::from_ns(i as u64);
            let (got, parent) = if explicit {
                let parent = (i as u32).checked_sub(3);
                (log.record(TraceId(id), stage, at, node, parent, 0), parent)
            } else {
                let parent = last.get(&id).copied();
                (log.record_chain(TraceId(id), stage, at, node, 0), parent)
            };
            let stored = (id != 0 || stage == CausalStage::AppDeliver) && want_parents.len() < cap;
            prop_assert_eq!(got.is_some(), stored);
            if let Some(idx) = got {
                want_parents.push(parent);
                if id != 0 && stage != CausalStage::AppDeliver {
                    last.insert(id, idx);
                }
            }
        }
        let parents: Vec<_> = log.records().iter().map(|r| r.parent).collect();
        prop_assert_eq!(parents, want_parents);
    }

    #[test]
    fn eq_fifos_match_ordered_map_model(
        ops in proptest::collection::vec(
            (
                any::<bool>(),
                prop_oneof![0u32..6, (1u32 << 16) - 2..(1 << 16) + 2, any::<u32>()],
                0u32..3,
                0u64..3,
            ),
            0..120,
        )
    ) {
        let mut log = CausalLog::enabled();
        let mut model: BTreeMap<(u32, u32), VecDeque<u32>> = BTreeMap::new();
        for (i, &(push, node, pid, count)) in ops.iter().enumerate() {
            if push {
                log.push_eq_posts(node, pid, i as u32, count);
                let fifo = model.entry((node, pid)).or_default();
                for _ in 0..count {
                    fifo.push_back(i as u32);
                }
            } else {
                let want = model.get_mut(&(node, pid)).and_then(VecDeque::pop_front);
                prop_assert_eq!(log.pop_eq_post(node, pid), want);
            }
        }
        for (&(node, pid), fifo) in &model {
            for &want in fifo {
                prop_assert_eq!(log.pop_eq_post(node, pid), Some(want));
            }
            prop_assert_eq!(log.pop_eq_post(node, pid), None);
        }
    }
}
