//! Running one job three ways — plain serial, plain parallel, traced
//! serial — and collecting what the checks and metrics need.
//!
//! Only `Engine::run` / `run_parallel` sit inside the timed region; the
//! verification, the fabric counters and dropping the machine do not.

use std::time::{Duration, Instant};

use xt3_node::par::run_parallel;
use xt3_node::Machine;
use xt3_sim::{Engine, Model, RunOutcome, SimTime};

use crate::check::JobRecord;
use crate::layers::{Dispatch, Timed};
use crate::workload::{Anchor, Job, Spec};

/// A finished job.
pub struct Finished {
    pub record: JobRecord,
    /// Host time of `Engine::run` (or `run_parallel`).
    pub wall: Duration,
    pub events: u64,
    /// Messages the fabric carried.
    pub msgs: u64,
    /// Simulated time at the end of the run.
    pub sim_end: SimTime,
    pub anchors: Vec<Anchor>,
    /// Synchronization windows (parallel runs only).
    pub windows: u64,
    /// The machine after verification (its apps are taken).
    pub machine: Machine,
}

/// The parts of a finished engine that do not depend on the model type.
struct Ended {
    outcome: RunOutcome,
    started: Instant,
    wall: Duration,
    digest: u64,
    fingerprint: u64,
    events: u64,
    sim_end: SimTime,
}

fn run_engine<M: Model>(engine: &mut Engine<M>) -> Ended {
    let t = Instant::now();
    let outcome = engine.run();
    let wall = t.elapsed();
    Ended {
        outcome,
        started: t,
        wall,
        digest: engine.digest(),
        fingerprint: engine.state_fingerprint(),
        events: engine.dispatched(),
        sim_end: engine.now(),
    }
}

fn finish(spec: &Spec, job: Job, e: Ended, windows: u64, mut machine: Machine) -> Finished {
    let running_apps = machine.running_apps();
    let msgs = machine.fabric.messages_sent();
    let (verified, anchors) = match spec.inspect(job, &mut machine) {
        Ok(anchors) => (Ok(()), anchors),
        Err(why) => (Err(why), Vec::new()),
    };
    Finished {
        record: JobRecord {
            label: job.label(),
            outcome: e.outcome,
            running_apps,
            verified,
            digest: e.digest,
            fingerprint: e.fingerprint,
        },
        wall: e.wall,
        events: e.events,
        msgs,
        sim_end: e.sim_end,
        anchors,
        windows,
        machine,
    }
}

/// Run a seeded serial engine to the end and verify it.
pub fn finish_serial(spec: &Spec, job: Job, mut engine: Engine<Machine>) -> Finished {
    let ended = run_engine(&mut engine);
    finish(spec, job, ended, 0, engine.into_model())
}

/// Run a built machine on `run_parallel` with `workers` shards and
/// verify it.
pub fn finish_parallel(spec: &Spec, job: Job, machine: Machine, workers: usize) -> Finished {
    let t = Instant::now();
    let par = run_parallel(machine, workers);
    let wall = t.elapsed();
    let ended = Ended {
        outcome: par.outcome,
        started: t,
        wall,
        digest: par.digest,
        fingerprint: par.state_fingerprint,
        events: par.dispatched,
        sim_end: par.now,
    };
    finish(spec, job, ended, par.rounds, par.machine)
}

/// A traced job: the finished run plus its spans, in nanoseconds from
/// the traced run's origin.
pub struct TracedJob {
    pub finished: Finished,
    pub setup: (u64, u64),
    pub run: (u64, u64),
    pub dispatches: Vec<Dispatch>,
    pub pending_max: usize,
}

/// Build `job` with the workload's own settings, wrap it in [`Timed`] and
/// run it. `capacity` pre-sizes the span buffer (the event count of a
/// plain run of the same input) so the buffer never grows mid-run.
pub fn traced(spec: &Spec, job: Job, origin: Instant, capacity: usize) -> TracedJob {
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let t0 = Instant::now();
    let plain = spec.engine(job);
    let t1 = Instant::now();
    let mut engine = Timed::wrap(plain, origin, capacity);
    let ended = run_engine(&mut engine);
    let run_start = ns(ended.started);
    let run = (run_start, run_start + ended.wall.as_nanos() as u64);
    let (machine, dispatches, pending_max) = engine.into_model().into_parts();
    let finished = finish(spec, job, ended, 0, machine);
    TracedJob {
        setup: (ns(t0), ns(t1)),
        run,
        finished,
        dispatches,
        pending_max,
    }
}
