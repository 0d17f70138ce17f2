//! Byte-identity fence for both Portals placements.
//!
//! Matching and completion run either on the host (generic mode: the
//! firmware interrupts the host for every Portals decision) or on the
//! SeaStar's PPC (the §3.3 accelerated mode: no interrupts). Both
//! placements share one code path in `Machine`, so this fence runs every
//! `scenario_matrix()` entry under each of them on the quick 16 KiB
//! schedule, telemetry and causal tracing on, and pins per run:
//!
//! - the engine digest, `dispatched()` and the final clock;
//! - `CausalLog::digest()` and an FNV-1a of the stored record stream,
//!   parent edges included;
//! - FNV-1a of `telemetry_report(..).to_json()` and of
//!   `perfetto_json_with_causal`;
//! - `any_panicked()`.
//!
//! `get-pingpong` and `get-stream` produce identical lines by design,
//! apart from `report=` (the report JSON carries the scenario's name):
//! the stream-get pattern is Fig. 6's *blocking* get, so each get waits
//! for its reply exactly as the ping-pong does.
//!
//! The run is bit-deterministic, so the fence is exact. Re-bless only
//! when a placement's behaviour is meant to change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test placement_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use xt3_netpipe::runner::{build_engine, scenario_matrix, scenario_name, NetpipeConfig};
use xt3_sim::RunOutcome;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/placement.txt")
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
}

fn fnv_of(s: &str) -> u64 {
    let mut h = Fnv::new();
    h.bytes(s.as_bytes());
    h.0
}

fn render() -> String {
    let mut out = String::new();
    for accelerated in [false, true] {
        let placement = if accelerated {
            "accelerated"
        } else {
            "generic"
        };
        for (transport, kind) in scenario_matrix() {
            let name = scenario_name(transport, kind);
            let mut config = NetpipeConfig::quick(16384).with_telemetry();
            config.accelerated = accelerated;
            let mut engine = build_engine(&config, transport, kind);
            engine.model_mut().set_causal_enabled(true);
            assert_eq!(
                engine.run(),
                RunOutcome::Drained,
                "{name} ({placement}) must drain"
            );
            let (digest, dispatched, now) = (engine.digest(), engine.dispatched(), engine.now());
            let m = engine.into_model();
            assert_eq!(
                m.running_apps(),
                0,
                "{name} ({placement}): apps must finish"
            );

            let log = m.causal();
            let mut stream = Fnv::new();
            for r in log.records() {
                stream.u64(r.id.0);
                stream.u64(r.stage as u64);
                stream.u64(r.at.ps());
                stream.u64(u64::from(r.node));
                stream.u64(r.parent.map_or(u64::MAX, u64::from));
                stream.u64(r.info);
            }
            let report = m.telemetry_report(&name, now).to_json();
            let perfetto = m.telemetry().perfetto_json_with_causal(log);
            writeln!(
                out,
                "{} {placement} digest={digest:#018x} dispatched={dispatched} now_ps={} \
                 causal={:#018x} records={} stream={:#018x} report={:#018x} \
                 perfetto={:#018x} panicked={}",
                name.trim_start_matches("netpipe/"),
                now.ps(),
                log.digest(),
                log.records().len(),
                stream.0,
                fnv_of(&report),
                fnv_of(&perfetto),
                m.any_panicked(),
            )
            .expect("string write");
        }
    }
    out
}

#[test]
fn both_placements_match_golden() {
    let fresh = render();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        let header = "# Placement fence — byte-exact golden (every NetPIPE scenario x {generic, \
                      accelerated}, quick 16 KiB schedule, telemetry + causal).\n\
                      # get-pingpong and get-stream match by design, except report= (it hashes \
                      the scenario name): stream-get is Fig. 6's blocking get.\n\
                      # Regenerate: UPDATE_GOLDEN=1 cargo test --test placement_golden\n";
        std::fs::write(&path, header.to_string() + &fresh).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test placement_golden",
            path.display()
        )
    });
    let golden_body: String = golden
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    for (want, got) in golden_body.lines().zip(fresh.lines()) {
        assert_eq!(want, got, "a placement run drifted from the golden");
    }
    assert_eq!(
        golden_body.lines().count(),
        fresh.lines().count(),
        "the scenario set changed"
    );
}
