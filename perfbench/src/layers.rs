//! The traced run's `Model` wrapper: times every `Machine` dispatch from
//! outside and keeps one span per dispatch in memory.
//!
//! The wrapper adds no simulation behaviour. It delegates `lane`,
//! `fingerprint` and `state_fingerprint` to `Machine`, so an engine
//! around it produces the plain engine's digest — which the benchmark
//! checks on every traced job.

use std::io::{self, Write};
use std::time::Instant;

use xt3_node::{Ev, Machine};
use xt3_sim::{Engine, EventDigest, EventQueue, Model, SimTime};

/// Every `Ev` kind, indexed by [`kind_of`]. The first seven are the
/// kinds the per-layer report names; the rest are folded into `other`.
pub const KINDS: [&str; 10] = [
    "app_start",
    "app_wake",
    "fw_cmd",
    "tx_dma_done",
    "net_header",
    "rx_deposit_done",
    "host_interrupt",
    "ras_heartbeat",
    "gbn_timeout",
    "fault_at",
];
/// How many leading entries of [`KINDS`] are reported by name.
pub const NAMED_KINDS: usize = 7;

fn kind_of(ev: &Ev) -> u8 {
    match ev {
        Ev::AppStart { .. } => 0,
        Ev::AppWake { .. } => 1,
        Ev::FwCmd { .. } => 2,
        Ev::TxDmaDone { .. } => 3,
        Ev::NetHeader { .. } => 4,
        Ev::RxDepositDone { .. } => 5,
        Ev::HostInterrupt { .. } => 6,
        Ev::RasHeartbeat { .. } => 7,
        Ev::GbnTimeout { .. } => 8,
        Ev::FaultAt { .. } => 9,
    }
}

/// One timed `Machine::dispatch_keyed` call. Times are nanoseconds from
/// the traced run's origin.
#[derive(Debug, Clone, Copy)]
pub struct Dispatch {
    pub start_ns: u64,
    pub dur_ns: u64,
    pub node: u32,
    pub kind: u8,
}

/// `Machine` with a stopwatch around each dispatch.
pub struct Timed {
    machine: Machine,
    origin: Instant,
    spans: Vec<Dispatch>,
    pending_max: usize,
}

impl Timed {
    /// Wrap a seeded engine: the queue `into_engine` built is moved,
    /// event by event with its `(time, key)`, into an engine around the
    /// wrapper. Popping yields ascending `(time, key)` and re-pushing
    /// keeps that order, so dispatch order is unchanged.
    pub fn wrap(mut plain: Engine<Machine>, origin: Instant, capacity: usize) -> Engine<Timed> {
        let mut seeded = Vec::with_capacity(plain.queue().len());
        while let Some(entry) = plain.queue_mut().pop_keyed() {
            seeded.push(entry);
        }
        let timed = Timed {
            machine: plain.into_model(),
            origin,
            spans: Vec::with_capacity(capacity),
            pending_max: 0,
        };
        // The same runaway guard `Machine::into_engine` installs.
        let mut engine = Engine::new(timed).with_event_budget(2_000_000_000);
        for (at, key, ev) in seeded {
            engine.queue_mut().schedule_keyed(at, key, ev);
        }
        engine
    }

    pub fn into_parts(self) -> (Machine, Vec<Dispatch>, usize) {
        (self.machine, self.spans, self.pending_max)
    }
}

impl Model for Timed {
    type Event = Ev;

    fn dispatch(&mut self, now: SimTime, event: Ev, queue: &mut EventQueue<Ev>) {
        self.machine.dispatch(now, event, queue);
    }

    fn dispatch_keyed(&mut self, now: SimTime, key: u64, event: Ev, queue: &mut EventQueue<Ev>) {
        let kind = kind_of(&event);
        let node = event.owner();
        let t0 = Instant::now();
        self.machine.dispatch_keyed(now, key, event, queue);
        let t1 = Instant::now();
        self.pending_max = self.pending_max.max(queue.len());
        self.spans.push(Dispatch {
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            dur_ns: t1.duration_since(t0).as_nanos() as u64,
            node,
            kind,
        });
    }

    fn lane(event: &Ev) -> u32 {
        <Machine as Model>::lane(event)
    }

    fn fingerprint(event: &Ev, digest: &mut EventDigest) {
        <Machine as Model>::fingerprint(event, digest)
    }

    fn state_fingerprint(&self) -> u64 {
        self.machine.state_fingerprint()
    }
}

/// Per-kind dispatch totals plus the engine's own time, for one or more
/// traced runs.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub count: [u64; KINDS.len()],
    pub ns: [u64; KINDS.len()],
    /// Run span time not covered by any dispatch span: the engine's
    /// self time (pop, clock, digest fold) plus the stopwatch's own cost.
    pub engine_ns: u64,
    /// Summed wall time of the `Engine::run` spans.
    pub run_ns: u64,
}

impl Breakdown {
    /// Fold one run span `[run_start, run_end]` and its dispatch children.
    pub fn add_run(&mut self, run_start: u64, run_end: u64, spans: &[Dispatch]) {
        let mut cursor = run_start;
        for s in spans {
            self.count[s.kind as usize] += 1;
            self.ns[s.kind as usize] += s.dur_ns;
            self.engine_ns += s.start_ns.saturating_sub(cursor);
            cursor = s.start_ns + s.dur_ns;
        }
        self.engine_ns += run_end.saturating_sub(cursor);
        self.run_ns += run_end - run_start;
    }

    pub fn events(&self) -> u64 {
        self.count.iter().sum()
    }

    pub fn dispatch_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// `run − (Σ dispatch + engine)`, as a share of run time: zero when
    /// the per-kind table and the engine's self time cover the run.
    pub fn residual_frac(&self) -> f64 {
        let covered = self.dispatch_ns() + self.engine_ns;
        (self.run_ns as f64 - covered as f64) / self.run_ns.max(1) as f64
    }
}

/// A span of the traced run's tree, above the dispatch level.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub job: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Write the span tree as tab-separated rows: `id parent job name node
/// start_ns dur_ns`. Dispatch spans follow their run span, numbered on
/// from the last tree span; their parent is the run span `runs[i].0`.
pub fn write_spans(
    out: &mut impl Write,
    tree: &[Span],
    runs: &[(usize, usize, Vec<Dispatch>)],
) -> io::Result<()> {
    writeln!(out, "id\tparent\tjob\tname\tnode\tstart_ns\tdur_ns")?;
    for s in tree {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t-\t{}\t{}",
            s.id,
            s.job,
            s.name,
            s.start_ns,
            s.end_ns - s.start_ns
        )?;
    }
    let mut id = tree.len();
    for (run_span, job, spans) in runs {
        for d in spans {
            writeln!(
                out,
                "{id}\t{run_span}\t{job}\t{}\t{}\t{}\t{}",
                KINDS[d.kind as usize], d.node, d.start_ns, d.dur_ns
            )?;
            id += 1;
        }
    }
    Ok(())
}
