//! Reference-model property test for the telemetry registry.
//!
//! Random `add`/`gauge`/`sample` sequences drive the dense registry and a
//! plain ordered-map model side by side; both must hold the same values
//! and iterate them in the same `(node, name)` order. Names come from a
//! small pool, sometimes as a fresh heap copy (`String::leak`), so equal
//! strings arrive at different addresses; deltas include zero, which
//! must still create an entry.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xt3_sim::{Histogram, SimTime};
use xt3_telemetry::{Telemetry, TelemetrySink};

/// Includes names that are prefixes of each other; every name is used
/// as a counter, a gauge and a histogram.
const NAMES: [&str; 6] = [
    "host.traps",
    "dma.transfers",
    "a",
    "ab",
    "b",
    "net.hol_stall",
];

#[derive(Default)]
struct Model {
    counters: BTreeMap<(u32, &'static str), u64>,
    gauges: BTreeMap<(u32, &'static str), u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

fn hist_rows(h: &Histogram) -> (u64, Vec<(u64, u64)>) {
    (h.count(), h.iter_nonzero().collect())
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(128))]
    #[test]
    fn dense_registry_matches_ordered_map_model(
        ops in proptest::collection::vec(
            (
                0u8..3,
                prop_oneof![0u32..8, 0u32..40, 1000u32..1003],
                0usize..NAMES.len(),
                any::<bool>(),
                0u64..4,
            ),
            0..160,
        )
    ) {
        let mut dense = Telemetry::enabled();
        let mut model = Model::default();
        for &(kind, node, name, copy, value) in &ops {
            let name: &'static str = if copy {
                String::leak(NAMES[name].to_string())
            } else {
                NAMES[name]
            };
            match kind {
                0 => {
                    dense.add(node, name, value);
                    *model.counters.entry((node, name)).or_insert(0) += value;
                }
                1 => {
                    dense.gauge(node, name, value);
                    let hwm = model.gauges.entry((node, name)).or_insert(0);
                    *hwm = (*hwm).max(value);
                }
                _ => {
                    let t = SimTime::from_ns(value << node.min(20));
                    dense.sample(name, t);
                    model.hists.entry(name).or_default().record(t.ps());
                }
            }
        }

        let want: Vec<_> = model.counters.iter().map(|(&(n, k), &v)| (n, k, v)).collect();
        prop_assert_eq!(dense.counters().collect::<Vec<_>>(), want);
        let want: Vec<_> = model.gauges.iter().map(|(&(n, k), &v)| (n, k, v)).collect();
        prop_assert_eq!(dense.gauges().collect::<Vec<_>>(), want);
        let want: Vec<_> = model.hists.iter().map(|(&k, h)| (k, hist_rows(h))).collect();
        let got: Vec<_> = dense.histograms().map(|(k, h)| (k, hist_rows(h))).collect();
        prop_assert_eq!(got, want);

        for name in NAMES {
            let total: u64 = model
                .counters
                .iter()
                .filter(|((_, k), _)| *k == name)
                .map(|(_, v)| *v)
                .sum();
            prop_assert_eq!(dense.counter_total(name), total);
            for node in [0u32, 3, 7, 39, 1000, 1002, 5000] {
                let c = model.counters.get(&(node, name)).copied().unwrap_or(0);
                prop_assert_eq!(dense.counter(node, name), c);
                let g = model.gauges.get(&(node, name)).copied().unwrap_or(0);
                prop_assert_eq!(dense.gauge_high_water(node, name), g);
            }
            prop_assert_eq!(
                dense.histogram(name).map(hist_rows),
                model.hists.get(name).map(hist_rows)
            );
        }
    }
}
