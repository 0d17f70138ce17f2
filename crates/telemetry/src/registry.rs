//! The concrete telemetry recorder: counters, gauges, histograms, spans.

use crate::sink::{Component, TelemetrySink};
use xt3_sim::{Histogram, SimTime};

/// Default cap on stored occupancy spans. Beyond it new spans are counted
/// but not stored, bounding memory on long campaign runs (counters,
/// gauges and histograms keep accumulating — only the timeline truncates).
const DEFAULT_SPAN_CAP: usize = 1 << 20;

/// One busy interval of one component on one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Node the component belongs to.
    pub node: u32,
    /// Which serialized resource was busy.
    pub component: Component,
    /// What it was doing (interned label).
    pub label: &'static str,
    /// Busy-interval start.
    pub start: SimTime,
    /// Busy-interval end.
    pub end: SimTime,
}

/// Everything recorded under one metric name.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    /// Counter value per node (`None` = never recorded).
    counters: Vec<Option<u64>>,
    /// Gauge high-water mark per node (`None` = never observed).
    gauges: Vec<Option<u64>>,
    /// Samples recorded under this name, if any.
    hist: Option<Histogram>,
}

/// The metrics registry and occupancy recorder.
///
/// Metric names are interned on first record into small dense ids, and
/// each name owns one node-indexed column per kind, so a record is a
/// name lookup among a handful of interned names plus one indexed
/// store — no ordered-map walk over every `(node, name)` key. Columns
/// grow on a name's first record, never at enable time. Exports iterate
/// `(node, name)` in the same order an ordered map keyed by
/// `(node, name)` would, so every export is deterministic. Disabled,
/// every record call is a single predictable branch (the same zero-cost
/// pattern as `Trace::record`).
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    span_cap: usize,
    spans: Vec<Span>,
    dropped_spans: u64,
    /// Interned metrics by id, in first-record order.
    metrics: Vec<Metric>,
    /// Every name address seen, with its id. Equal strings need not share
    /// an address, so one id may have several entries.
    addrs: Vec<(&'static str, usize)>,
    /// Ids sorted by name: the export order.
    by_name: Vec<usize>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// A recorder that records nothing until enabled.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            span_cap: DEFAULT_SPAN_CAP,
            spans: Vec::new(),
            dropped_spans: 0,
            metrics: Vec::new(),
            addrs: Vec::new(),
            by_name: Vec::new(),
        }
    }

    /// An enabled recorder with the default span cap.
    pub fn enabled() -> Self {
        Telemetry {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// An enabled recorder storing at most `span_cap` spans.
    pub fn with_span_cap(span_cap: usize) -> Self {
        Telemetry {
            enabled: true,
            span_cap,
            ..Self::disabled()
        }
    }

    /// Turn recording on or off (already-recorded data is kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Recorded spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans dropped after the cap was reached.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Where `name` sits in `by_name`, by content: `Ok(pos)` when
    /// interned, else `Err(insertion point)`.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.by_name
            .binary_search_by(|&id| self.metrics[id].name.cmp(name))
    }

    /// The metric interned under `name`.
    fn metric(&self, name: &str) -> Option<&Metric> {
        let pos = self.find(name).ok()?;
        Some(&self.metrics[self.by_name[pos]])
    }

    /// Value of a per-node counter (0 if never touched).
    pub fn counter(&self, node: u32, name: &str) -> u64 {
        self.metric(name)
            .and_then(|m| cell(&m.counters, node))
            .unwrap_or(0)
    }

    /// Sum of a counter across all nodes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metric(name)
            .map_or(0, |m| m.counters.iter().flatten().sum())
    }

    /// High-water mark of a per-node gauge (0 if never observed).
    pub fn gauge_high_water(&self, node: u32, name: &str) -> u64 {
        self.metric(name)
            .and_then(|m| cell(&m.gauges, node))
            .unwrap_or(0)
    }

    /// A latency histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.metric(name).and_then(|m| m.hist.as_ref())
    }

    /// Iterate `(node, name, value)` over all counters, by node then name.
    pub fn counters(&self) -> impl Iterator<Item = (u32, &'static str, u64)> + '_ {
        self.rows(|m| &m.counters)
    }

    /// Iterate `(node, name, high_water)` over all gauges, by node then
    /// name.
    pub fn gauges(&self) -> impl Iterator<Item = (u32, &'static str, u64)> + '_ {
        self.rows(|m| &m.gauges)
    }

    /// Iterate `(name, histogram)` over all histograms, by name.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.sorted()
            .filter_map(|m| m.hist.as_ref().map(|h| (m.name, h)))
    }

    /// The metrics in name order.
    fn sorted(&self) -> impl Iterator<Item = &Metric> + '_ {
        self.by_name.iter().map(|&id| &self.metrics[id])
    }

    /// The recorded cells of one column kind, by node then name — the
    /// order of an ordered map keyed by `(node, name)`.
    fn rows(
        &self,
        column: fn(&Metric) -> &Vec<Option<u64>>,
    ) -> impl Iterator<Item = (u32, &'static str, u64)> + '_ {
        let nodes = self.metrics.iter().map(|m| column(m).len()).max();
        (0..nodes.unwrap_or(0)).flat_map(move |node| {
            self.sorted().filter_map(move |m| {
                let v = column(m).get(node).copied().flatten()?;
                Some((node as u32, m.name, v))
            })
        })
    }

    /// Total busy time of `component` on `node` across recorded spans.
    pub fn busy_total(&self, node: u32, component: Component) -> SimTime {
        let mut total = SimTime::ZERO;
        for s in &self.spans {
            if s.node == node && s.component == component {
                total += s.end.saturating_sub(s.start);
            }
        }
        total
    }
}

/// The recorded value of `node` in one column, if any.
fn cell(col: &[Option<u64>], node: u32) -> Option<u64> {
    col.get(node as usize).copied().flatten()
}

/// `node`'s cell of `col`, growing the column to reach it.
fn cell_mut(col: &mut Vec<Option<u64>>, node: u32) -> &mut Option<u64> {
    let node = node as usize;
    if node >= col.len() {
        col.resize(node + 1, None);
    }
    &mut col[node]
}

// The recording bodies are deliberately outlined (`#[inline(never)]`):
// only the `enabled` test inlines into the simulator's hot dispatch
// code, so the disabled path costs one predictable branch and no icache
// pressure from the column and Vec machinery.
impl Telemetry {
    /// The metric named `name`, interning it on first sight. Pointer
    /// equality is tried first; a new address is then matched by
    /// content, because equal literals are not guaranteed to share one.
    #[inline]
    fn metric_mut(&mut self, name: &'static str) -> &mut Metric {
        let id = match self.addrs.iter().find(|(a, _)| std::ptr::eq(*a, name)) {
            Some(&(_, id)) => id,
            None => self.intern_new_addr(name),
        };
        &mut self.metrics[id]
    }

    #[cold]
    fn intern_new_addr(&mut self, name: &'static str) -> usize {
        let id = match self.find(name) {
            Ok(pos) => self.by_name[pos],
            Err(pos) => {
                let id = self.metrics.len();
                self.metrics.push(Metric {
                    name,
                    counters: Vec::new(),
                    gauges: Vec::new(),
                    hist: None,
                });
                self.by_name.insert(pos, id);
                id
            }
        };
        self.addrs.push((name, id));
        id
    }

    #[inline(never)]
    fn add_slow(&mut self, node: u32, name: &'static str, delta: u64) {
        *cell_mut(&mut self.metric_mut(name).counters, node).get_or_insert(0) += delta;
    }

    #[inline(never)]
    fn gauge_slow(&mut self, node: u32, name: &'static str, value: u64) {
        let hwm = cell_mut(&mut self.metric_mut(name).gauges, node).get_or_insert(0);
        if value > *hwm {
            *hwm = value;
        }
    }

    #[inline(never)]
    fn sample_slow(&mut self, name: &'static str, value: SimTime) {
        self.metric_mut(name)
            .hist
            .get_or_insert_with(Histogram::default)
            .record(value.ps());
    }

    #[inline(never)]
    fn span_slow(
        &mut self,
        node: u32,
        component: Component,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if self.spans.len() >= self.span_cap {
            self.dropped_spans += 1;
            return;
        }
        self.spans.push(Span {
            node,
            component,
            label,
            start,
            end,
        });
    }
}

impl TelemetrySink for Telemetry {
    #[inline]
    fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn add(&mut self, node: u32, name: &'static str, delta: u64) {
        if self.enabled {
            self.add_slow(node, name, delta);
        }
    }

    #[inline]
    fn gauge(&mut self, node: u32, name: &'static str, value: u64) {
        if self.enabled {
            self.gauge_slow(node, name, value);
        }
    }

    #[inline]
    fn sample(&mut self, name: &'static str, value: SimTime) {
        if self.enabled {
            self.sample_slow(name, value);
        }
    }

    #[inline]
    fn span(
        &mut self,
        node: u32,
        component: Component,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if self.enabled {
            self.span_slow(node, component, label, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut t = Telemetry::disabled();
        t.add(0, "c", 5);
        t.gauge(0, "g", 9);
        t.sample("h", SimTime::from_ns(10));
        t.span(0, Component::Host, "x", SimTime::ZERO, SimTime::from_ns(1));
        assert_eq!(t.counter(0, "c"), 0);
        assert_eq!(t.gauge_high_water(0, "g"), 0);
        assert!(t.histogram("h").is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn counters_accumulate_per_node() {
        let mut t = Telemetry::enabled();
        t.add(0, "ints", 1);
        t.add(0, "ints", 1);
        t.add(1, "ints", 3);
        assert_eq!(t.counter(0, "ints"), 2);
        assert_eq!(t.counter(1, "ints"), 3);
        assert_eq!(t.counter_total("ints"), 5);
        assert_eq!(t.counter(2, "ints"), 0);
    }

    #[test]
    fn gauges_keep_high_water() {
        let mut t = Telemetry::enabled();
        t.gauge(0, "depth", 3);
        t.gauge(0, "depth", 7);
        t.gauge(0, "depth", 2);
        assert_eq!(t.gauge_high_water(0, "depth"), 7);
    }

    #[test]
    fn histograms_record_picoseconds() {
        let mut t = Telemetry::enabled();
        t.sample("lat", SimTime::from_ns(2)); // 2000 ps
        t.sample("lat", SimTime::from_ns(2));
        let h = t.histogram("lat").expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert_eq!(h.p50(), 1024, "2000 ps lands in the [1024,2048) bucket");
    }

    #[test]
    fn spans_respect_cap() {
        let mut t = Telemetry::with_span_cap(2);
        for i in 0..4u64 {
            t.span(
                0,
                Component::Ppc,
                "fw",
                SimTime::from_ns(i),
                SimTime::from_ns(i + 1),
            );
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped_spans(), 2);
        assert_eq!(t.busy_total(0, Component::Ppc), SimTime::from_ns(2));
    }
}
