//! Byte-identity fence for every observer export.
//!
//! One small observed torus (4×4×2, uniform permutation, two rounds of
//! 4 KiB puts) runs with telemetry, the causal log and link series all
//! on. The fence pins what the observers hand out — in iteration order,
//! byte for byte — so a change to how the registry, the causal log or
//! the series store their data cannot silently change what they export:
//!
//! - FNV-1a digests of `counters()`, `gauges()` and `histograms()`;
//! - the Perfetto JSON (spans, causal flows and counter tracks);
//! - `CausalLog::digest()` and the stored record stream, parent edges
//!   included;
//! - `SeriesSet::to_json()`;
//! - the critical-path table (per-class totals over every chain).
//!
//! The run is bit-deterministic, so the fence is exact. Re-bless only
//! when an export is meant to change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test observer_exports_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xt3_node::workloads::{traffic_machine, TrafficPattern};
use xt3_sim::RunOutcome;
use xt3_telemetry::{aggregate, extract_chains, SeriesConfig};
use xt3_topology::coord::Dims;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/observer_exports.txt")
}

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fnv_of(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(s.as_bytes());
    h.0
}

fn render_exports() -> String {
    let mut m = traffic_machine(TrafficPattern::Uniform, Dims::torus(4, 4, 2), 2, 4096);
    m.config.telemetry = true;
    m.set_telemetry_enabled(true);
    m.set_causal_enabled(true);
    m.enable_link_series(SeriesConfig {
        occupancy_cap: 65_536,
        ..SeriesConfig::default()
    });
    let mut engine = m.into_engine();
    assert_eq!(
        engine.run(),
        RunOutcome::Drained,
        "uniform torus must drain"
    );
    let m = engine.into_model();
    let tele = m.telemetry();
    let log = m.causal();
    let series = m.link_series().expect("series enabled");

    let mut out = String::new();
    let w = &mut out;

    for (kind, rows) in [
        ("counters", tele.counters().collect::<Vec<_>>()),
        ("gauges", tele.gauges().collect::<Vec<_>>()),
    ] {
        let mut h = Fnv::new();
        for &(node, name, v) in &rows {
            h.u64(u64::from(node));
            h.str(name);
            h.u64(v);
        }
        writeln!(w, "{kind}: n={} fnv={:#018x}", rows.len(), h.0).expect("string write");
    }
    let mut h = Fnv::new();
    let mut hists = 0;
    for (name, hist) in tele.histograms() {
        hists += 1;
        h.str(name);
        h.u64(hist.count());
        for (lo, count) in hist.iter_nonzero() {
            h.u64(lo);
            h.u64(count);
        }
    }
    writeln!(w, "histograms: n={hists} fnv={:#018x}", h.0).expect("string write");
    writeln!(
        w,
        "spans: stored={} dropped={}",
        tele.spans().len(),
        tele.dropped_spans()
    )
    .expect("string write");

    let perfetto = tele.perfetto_json_full(Some(log), Some(series));
    writeln!(
        w,
        "perfetto: bytes={} fnv={:#018x}",
        perfetto.len(),
        fnv_of(&perfetto)
    )
    .expect("string write");

    let mut h = Fnv::new();
    let mut roots = 0u64;
    for r in log.records() {
        h.u64(r.id.0);
        h.u64(r.stage as u64);
        h.u64(r.at.ps());
        h.u64(u64::from(r.node));
        h.u64(r.parent.map_or(u64::MAX, u64::from));
        h.u64(r.info);
        roots += u64::from(r.parent.is_none());
    }
    writeln!(
        w,
        "causal: digest={:#018x} records={} roots={roots} dropped={} stream_fnv={:#018x}",
        log.digest(),
        log.records().len(),
        log.dropped(),
        h.0
    )
    .expect("string write");

    let json = series.to_json();
    writeln!(
        w,
        "series: bytes={} fnv={:#018x}",
        json.len(),
        fnv_of(&json)
    )
    .expect("string write");

    let chains = extract_chains(log).expect("causal DAG is well-formed");
    let total = aggregate(&chains);
    let mut h = Fnv::new();
    for c in &chains {
        h.u64(c.id.0);
        h.u64(u64::from(c.root));
        h.u64(u64::from(c.deliver));
        for (_, t) in c.breakdown.iter() {
            h.u64(t.ps());
        }
    }
    writeln!(
        w,
        "critpath: chains={} total_ps={} chain_fnv={:#018x}",
        chains.len(),
        total.total().ps(),
        h.0
    )
    .expect("string write");
    for (class, t) in total.iter() {
        writeln!(w, "  {:<16} {}", class.name(), t.ps()).expect("string write");
    }
    out
}

#[test]
fn observer_exports_match_golden() {
    let fresh = render_exports();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        let header = "# Observer exports — byte-exact golden (4x4x2 torus, uniform, 2 rounds, \
                      4096 B puts, telemetry + causal + series).\n\
                      # Regenerate: UPDATE_GOLDEN=1 cargo test --test observer_exports_golden\n";
        std::fs::write(&path, header.to_string() + &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test observer_exports_golden",
            path.display()
        )
    });
    let golden_body: String = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        golden_body, fresh,
        "an observer export drifted from the golden — re-bless only if the \
         export change is intentional"
    );
}
