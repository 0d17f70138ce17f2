//! The three workloads: how each is built from its seed, and how a
//! finished machine is verified.
//!
//! All three are closed loops — every simulated sender issues its next
//! message only when the previous one completes — so the inputs fix the
//! traffic exactly and a run's event digest is a pure function of them.

use std::fmt::Write as _;

use xt3_netpipe::mpi::MpiDriver;
use xt3_netpipe::ptl::{PtlInitiator, PtlResponder};
use xt3_netpipe::reference::{bidir, latency_1b, unidir};
use xt3_netpipe::runner::{build_engine, build_machine, scenario_matrix, scenario_name};
use xt3_netpipe::{NetpipeConfig, RoundResult, Schedule, SizePoint, TestKind, Transport};
use xt3_node::workloads::{
    expected_hdr_sum, pattern_stats, red_storm_machine, traffic_machine_cfg, TrafficPattern,
};
use xt3_node::{Machine, MachineConfig};
use xt3_sim::{Engine, SimRng};
use xt3_telemetry::SeriesConfig;
use xt3_topology::coord::{Dims, NodeId};

/// The largest message of the NetPIPE sweep (Figs. 5–7 top out at 8 MiB).
const NETPIPE_MAX: u64 = 8 << 20;
/// Largest seed-drawn NetPIPE perturbation offset, bytes.
const NETPIPE_MAX_OFFSET: u64 = 7;
/// A NetPIPE anchor further than this from the paper fails its job.
pub const ANCHOR_TOLERANCE_PCT: f64 = 5.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two nodes running all 12 NetPIPE scenarios, 1 B – 8 MiB.
    NetpipePair,
    /// The full Red Storm torus, uniform random permutation, observers on.
    TorusUniform,
    /// The full Red Storm +1 ring on the parallel window driver.
    NeighborPar,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NetpipePair,
        Workload::TorusUniform,
        Workload::NeighborPar,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetpipePair => "netpipe-pair",
            Workload::TorusUniform => "torus-uniform-observed",
            Workload::NeighborPar => "redstorm-neighbor-par",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when `--seed` is not given (also named in the
    /// workload's `why` in `BENCHMARK.json`).
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::NetpipePair => 1,
            Workload::TorusUniform => 2,
            Workload::NeighborPar => 3,
        }
    }

    /// Whether the seed changes the simulated inputs. The neighbour ring
    /// is a pure function of the machine shape: `red_storm_machine` fixes
    /// `MachineConfig::seed` to the paper default, the only way a seed
    /// could reach it.
    pub fn seed_dependent(self) -> bool {
        !matches!(self, Workload::NeighborPar)
    }

    /// Whether the workload's own runs have telemetry, the causal log and
    /// link series on.
    pub fn observed(self) -> bool {
        matches!(self, Workload::TorusUniform)
    }
}

/// One machine run of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    Netpipe(Transport, TestKind),
    Uniform,
    Neighbor,
}

impl Job {
    pub fn label(self) -> String {
        match self {
            Job::Netpipe(t, k) => scenario_name(t, k),
            Job::Uniform => "torus/uniform".into(),
            Job::Neighbor => "torus/neighbor".into(),
        }
    }
}

/// The fully determined inputs of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    pub seed: u64,
    pub dims: Dims,
    pub rounds: u32,
    pub msg: u64,
    /// The NetPIPE size sweep (empty for the torus workloads).
    pub schedule: Schedule,
}

impl Spec {
    /// The benchmark's full-size inputs for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Spec {
        let red_storm = Dims::red_storm(27, 16, 24);
        match workload {
            Workload::NetpipePair => Spec {
                workload,
                seed,
                dims: MachineConfig::paper_pair().dims,
                rounds: 0,
                msg: 0,
                schedule: netpipe_schedule(seed),
            },
            Workload::TorusUniform => Self::torus(workload, seed, red_storm, 4, 4096),
            Workload::NeighborPar => Self::torus(workload, seed, red_storm, 8, 16 << 10),
        }
    }

    /// A torus workload at an explicit shape (the self-tests use small
    /// ones).
    pub fn torus(workload: Workload, seed: u64, dims: Dims, rounds: u32, msg: u64) -> Spec {
        Spec {
            workload,
            seed,
            dims,
            rounds,
            msg,
            schedule: Schedule { points: Vec::new() },
        }
    }

    pub fn nodes(&self) -> u32 {
        self.dims.node_count()
    }

    /// Canonical text of every input parameter; its digest goes in the
    /// run manifest.
    pub fn params(&self) -> String {
        let d = self.dims;
        let mut s = format!(
            "workload={} seed={} dims={}x{}x{} wrap={}{}{} rounds={} msg={} observed={}",
            self.workload.name(),
            self.seed,
            d.nx,
            d.ny,
            d.nz,
            u8::from(d.wrap_x),
            u8::from(d.wrap_y),
            u8::from(d.wrap_z),
            self.rounds,
            self.msg,
            self.workload.observed(),
        );
        if !self.schedule.points.is_empty() {
            s.push_str(" sizes=");
            for p in &self.schedule.points {
                let _ = write!(s, "{}x{},", p.size, p.reps);
            }
        }
        s
    }

    /// The jobs of one pass over the workload.
    pub fn jobs(&self) -> Vec<Job> {
        match self.workload {
            Workload::NetpipePair => scenario_matrix()
                .into_iter()
                .map(|(t, k)| Job::Netpipe(t, k))
                .collect(),
            Workload::TorusUniform => vec![Job::Uniform],
            Workload::NeighborPar => vec![Job::Neighbor],
        }
    }

    fn netpipe_config(&self) -> NetpipeConfig {
        NetpipeConfig {
            schedule: self.schedule.clone(),
            ..NetpipeConfig::paper()
        }
    }

    /// The built, unrun machine for `job`; `observed` turns on
    /// telemetry, the causal log and link series.
    pub fn machine(&self, job: Job, observed: bool) -> Machine {
        let mut m = match job {
            Job::Netpipe(t, k) => build_machine(&self.netpipe_config(), t, k),
            Job::Uniform => {
                let config = MachineConfig {
                    seed: self.seed,
                    ..MachineConfig::paper(self.dims)
                };
                traffic_machine_cfg(TrafficPattern::Uniform, config, self.rounds, self.msg)
            }
            Job::Neighbor => red_storm_machine(self.dims, self.rounds, self.msg),
        };
        if observed {
            observe(&mut m);
        }
        m
    }

    /// The seeded serial engine for `job` with the workload's own
    /// observer setting — the builder call plus `into_engine`, which is
    /// what `setup_s` times.
    pub fn engine(&self, job: Job) -> Engine<Machine> {
        match job {
            Job::Netpipe(t, k) => build_engine(&self.netpipe_config(), t, k),
            _ => self.machine(job, self.workload.observed()).into_engine(),
        }
    }

    /// Messages every job of this kind must put on the fabric, when the
    /// workload fixes it in advance.
    fn expected_messages(&self, job: Job) -> Option<u64> {
        match job {
            Job::Netpipe(..) => None,
            Job::Uniform => Some(
                self.uniform_targets()
                    .iter()
                    .map(|t| t.len() as u64)
                    .sum::<u64>()
                    * u64::from(self.rounds),
            ),
            Job::Neighbor => Some(u64::from(self.nodes()) * u64::from(self.rounds)),
        }
    }

    fn uniform_targets(&self) -> Vec<Vec<u32>> {
        TrafficPattern::Uniform.targets(self.dims, self.seed)
    }

    /// Every `(source, destination)` pair the workload sends over, once
    /// per distinct pair (NetPIPE traffic runs both ways between nodes 0
    /// and 1).
    pub fn routes(&self) -> Vec<(u32, u32)> {
        match self.workload {
            Workload::NetpipePair => vec![(0, 1), (1, 0)],
            Workload::TorusUniform => self
                .uniform_targets()
                .iter()
                .enumerate()
                .flat_map(|(src, ts)| ts.iter().map(move |&t| (src as u32, t)))
                .collect(),
            Workload::NeighborPar => {
                let n = self.nodes();
                (0..n).map(|src| (src, (src + 1) % n)).collect()
            }
        }
    }

    /// Mean `RoutingTable::hop_count` over [`Spec::routes`].
    pub fn mean_hops(&self, m: &Machine) -> f64 {
        let routes = self.routes();
        let table = m.fabric.routes();
        let hops: u64 = routes
            .iter()
            .map(|&(s, d)| u64::from(table.hop_count(NodeId(s), NodeId(d))))
            .sum();
        hops as f64 / routes.len().max(1) as f64
    }

    /// Verify a finished (drained) machine against this spec: the
    /// workload's own output check. Returns the NetPIPE anchor errors it
    /// measured (empty for the torus workloads), or what was wrong.
    /// Consumes the machine's apps.
    pub fn inspect(&self, job: Job, m: &mut Machine) -> Result<Vec<Anchor>, String> {
        let anchors = self.inspect_outputs(job, m)?;
        if let Some(want) = self.expected_messages(job) {
            let sent = m.fabric.messages_sent();
            if sent != want {
                return Err(format!("fabric carried {sent} messages, expected {want}"));
            }
        }
        Ok(anchors)
    }

    fn inspect_outputs(&self, job: Job, m: &mut Machine) -> Result<Vec<Anchor>, String> {
        match job {
            Job::Netpipe(t, k) => self.inspect_netpipe(t, k, m),
            Job::Uniform => {
                let stats = pattern_stats(m);
                let want =
                    expected_hdr_sum(TrafficPattern::Uniform, self.dims, self.rounds, self.seed);
                if stats.outstanding != 0 {
                    Err(format!("{} expected puts never arrived", stats.outstanding))
                } else if stats.corrupt {
                    Err("a payload failed byte verification".into())
                } else if stats.hdr_sum != want {
                    Err(format!(
                        "provenance sum {:#x}, expected {want:#x}",
                        stats.hdr_sum
                    ))
                } else {
                    Ok(Vec::new())
                }
            }
            Job::Neighbor => Ok(Vec::new()),
        }
    }

    fn inspect_netpipe(
        &self,
        t: Transport,
        k: TestKind,
        m: &mut Machine,
    ) -> Result<Vec<Anchor>, String> {
        // The side holding the measurement, as `runner::run_curve` picks it.
        let node = match (t, k) {
            (Transport::Get, _) => 0,
            (_, TestKind::Stream) => 1,
            _ => 0,
        };
        let rounds = take_rounds(m, node).ok_or("no NetPIPE driver on the measuring node")?;
        let sizes: Vec<u64> = rounds.iter().map(|r| r.size).collect();
        let want: Vec<u64> = self.schedule.points.iter().map(|p| p.size).collect();
        if sizes != want {
            return Err(format!(
                "measured {} sizes, schedule has {}",
                sizes.len(),
                want.len()
            ));
        }
        let first = rounds.first().map(RoundResult::latency_us);
        let last = rounds.last().map(RoundResult::bandwidth_mb);
        let anchors: Vec<(&'static str, Option<f64>, f64)> = match (t, k) {
            (Transport::Put, TestKind::PingPong) => vec![
                ("put_1b_us", first, latency_1b::PUT_US),
                ("put_unidir_peak_mb_s", last, unidir::PUT_PEAK_MB),
            ],
            (Transport::Get, TestKind::PingPong) => vec![("get_1b_us", first, latency_1b::GET_US)],
            (Transport::Mpich1, TestKind::PingPong) => {
                vec![("mpich1_1b_us", first, latency_1b::MPICH1_US)]
            }
            (Transport::Mpich2, TestKind::PingPong) => {
                vec![("mpich2_1b_us", first, latency_1b::MPICH2_US)]
            }
            (Transport::Put, TestKind::Bidir) => {
                vec![("put_bidir_peak_mb_s", last, bidir::PUT_PEAK_MB)]
            }
            _ => Vec::new(),
        };
        let mut out = Vec::with_capacity(anchors.len());
        for (name, got, paper) in anchors {
            let got = got.ok_or("empty NetPIPE curve")?;
            let err_pct = (got - paper).abs() / paper * 100.0;
            if err_pct > ANCHOR_TOLERANCE_PCT {
                return Err(format!(
                    "{name} = {got:.3}, paper {paper:.3} ({err_pct:.2}% off)"
                ));
            }
            out.push(Anchor { name, err_pct });
        }
        Ok(out)
    }
}

/// One comparison of a simulated NetPIPE value against the paper.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    pub name: &'static str,
    pub err_pct: f64,
}

/// Turn on every observation sink a run can carry.
pub fn observe(m: &mut Machine) {
    m.config.telemetry = true;
    m.set_telemetry_enabled(true);
    m.set_causal_enabled(true);
    // Deep enough an occupancy log that no link crossing is dropped.
    m.enable_link_series(SeriesConfig {
        occupancy_cap: 65_536,
        ..SeriesConfig::default()
    });
}

/// The NetPIPE sweep with seed-drawn perturbation offsets: 1, 2, 3 bytes,
/// then each power of two `p` from 4 B to 8 MiB with `p ± o(p)`, where
/// `o(p)` is drawn from 1..=7. The endpoints (1 B and 8 MiB, the anchor
/// sizes) are always present and never perturbed.
pub fn netpipe_schedule(seed: u64) -> Schedule {
    let mut rng = SimRng::new(seed);
    let mut sizes = vec![1u64, 2, 3];
    let mut p = 4u64;
    while p <= NETPIPE_MAX {
        let o = rng.range(1, NETPIPE_MAX_OFFSET);
        if p > o {
            sizes.push(p - o);
        }
        sizes.push(p);
        if p + o <= NETPIPE_MAX {
            sizes.push(p + o);
        }
        p *= 2;
    }
    sizes.sort_unstable();
    sizes.dedup();
    Schedule {
        points: sizes
            .into_iter()
            .map(|size| SizePoint {
                size,
                reps: Schedule::default_reps(size),
            })
            .collect(),
    }
}

/// Take the NetPIPE driver on `(node, 0)` and return its measured rounds.
fn take_rounds(m: &mut Machine, node: u32) -> Option<Vec<RoundResult>> {
    let mut app = m.take_app(node, 0)?;
    let any = app.as_any();
    if let Some(a) = any.downcast_mut::<PtlInitiator>() {
        return Some(std::mem::take(&mut a.results));
    }
    if let Some(a) = any.downcast_mut::<PtlResponder>() {
        return Some(std::mem::take(&mut a.results));
    }
    any.downcast_mut::<MpiDriver>()
        .map(|a| std::mem::take(&mut a.results))
}

/// FNV-1a, for the parameter digest in the manifest.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
