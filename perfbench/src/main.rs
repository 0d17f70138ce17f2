//! Host-time benchmark of the Portals 3.3 / XT3 simulator.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--spans-out PATH] [--host H] [--rev R] [--src-digest D]
//! ```
//!
//! One process runs one workload. With `--trace 0` it times untraced
//! jobs for `--seconds` and prints the end-to-end metrics; with
//! `--trace 1` it runs the traced breakdown and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md for the
//! workloads, the metrics and what each should move.

mod calib;
mod check;
mod layers;
mod run;
mod workload;

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{failures, JobRecord, Reference};
use layers::{write_spans, Breakdown, Span, KINDS, NAMED_KINDS};
use workload::{fnv1a, Job, Spec, Workload};
use xt3_node::Machine;
use xt3_sim::Engine;

/// Shards of the parallel workload's timed runs. When the process may
/// use one CPU only (`run.py` pins timed runs), the window driver runs
/// them inline on that CPU.
const TIMED_SHARDS: usize = 2;

/// Fewest set-up samples `setup_s` is the median of.
const MIN_SETUP_SAMPLES: usize = 25;

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--spans-out PATH] [--host H] [--rev R] [--src-digest D]";

struct Args {
    workload: Workload,
    seed: u64,
    seed_given: bool,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
    host: String,
    rev: String,
    src_digest: String,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut spans_out = None;
    let (mut host, mut rev, mut src_digest) =
        ("unknown".into(), "unknown".into(), "unknown".into());
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?} (one of {})",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            "--host" => host = value,
            "--rev" => rev = value,
            "--src-digest" => src_digest = value,
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seed_given: seed.is_some(),
        seconds,
        trace,
        spans_out,
        host,
        rev,
        src_digest,
    })
}

/// One named, unit-carrying result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// A run's results: its jobs' checks and its metrics.
#[derive(Default)]
struct Report {
    attempted: u64,
    /// `(job label, reasons, how many jobs)` for every distinct failure.
    failed: Vec<(String, Vec<String>, u64)>,
    metrics: Vec<Metric>,
    /// Extra human-readable lines printed before the result.
    notes: Vec<String>,
}

impl Report {
    /// Check `times` identical runs of `job`.
    fn judge(&mut self, job: &JobRecord, reference: Option<Reference>, times: u64) {
        self.attempted += times;
        let why = failures(job, reference);
        if !why.is_empty() {
            self.failed.push((job.label.clone(), why, times));
        }
    }

    fn failed_jobs(&self) -> u64 {
        self.failed.iter().map(|f| f.2).sum()
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for (label, why, times) in &self.failed {
            println!("job-failed {label} (x{times}): {}", why.join("; "));
        }
        let failed = self.failed_jobs();
        let fail_frac = failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_frac = {fail_frac} ({failed} failed of {} attempted jobs)",
            self.attempted
        );
        for m in &self.metrics {
            println!("{} = {} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed.is_empty(),
            self.attempted,
            self.failed_jobs(),
            metrics.join(", ")
        );
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a metric that could not be measured (NaN, ∞) prints
/// as -1 rather than breaking the result line.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".into()
    }
}

/// `min, q1, median, q3, max` of `values`, with `decimals` decimals.
fn quartiles(values: &[f64], decimals: usize) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    format!(
        "min {:.*}, q1 {:.*}, median {:.*}, q3 {:.*}, max {:.*}",
        decimals,
        at(0.0),
        decimals,
        at(0.25),
        decimals,
        at(0.5),
        decimals,
        at(0.75),
        decimals,
        at(1.0)
    )
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident memory of this process, MiB: `VmHWM` less the
/// file-backed and shared resident pages. Those are mostly the
/// executable's own code, and how much of it is resident depends on the
/// host's page cache (it moved `VmHWM` by 7% on a 3 MiB process); what
/// remains is the memory the workload allocated.
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    let kb = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(f64::NAN)
    };
    (kb("VmHWM:") - kb("RssFile:") - kb("RssShmem:")) / 1024.0
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn manifest(args: &Args, spec: &Spec, workers: usize) -> String {
    let params = spec.params();
    let fields = [
        ("host", json_str(&args.host)),
        ("nproc", nproc().to_string()),
        ("par_workers", workers.to_string()),
        (
            "par_backend",
            json_str(if nproc() > 1 { "threads" } else { "inline" }),
        ),
        ("rev", json_str(&args.rev)),
        ("src_digest", json_str(&args.src_digest)),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release lto=fat codegen-units=1"
            }),
        ),
        ("workload", json_str(spec.workload.name())),
        (
            "mode",
            json_str(if args.trace { "traced" } else { "timed" }),
        ),
        ("seconds", json_num(args.seconds)),
        ("seed", spec.seed.to_string()),
        (
            "seed_source",
            json_str(if args.seed_given { "--seed" } else { "default" }),
        ),
        (
            "inputs_depend_on_seed",
            spec.workload.seed_dependent().to_string(),
        ),
        (
            "params_digest",
            json_str(&format!("{:#018x}", fnv1a(&params))),
        ),
        ("params", json_str(&params)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("manifest {{{}}}", body.join(", "))
}

fn reference(what: &'static str, job: &JobRecord) -> Reference {
    Reference {
        what,
        digest: job.digest,
        fingerprint: job.fingerprint,
    }
}

/// A job set up and ready to run untraced.
enum Ready {
    Serial(Engine<Machine>),
    /// The parallel workload's built machine; `run_parallel` splits it
    /// and seeds one engine per shard.
    Parallel(Machine),
}

/// Set up one job — the part `setup_s` times.
fn setup(spec: &Spec, job: Job) -> Ready {
    if spec.workload == Workload::NeighborPar {
        Ready::Parallel(spec.machine(job, spec.workload.observed()))
    } else {
        Ready::Serial(spec.engine(job))
    }
}

fn run_ready(spec: &Spec, job: Job, ready: Ready, workers: usize) -> run::Finished {
    match ready {
        Ready::Serial(engine) => run::finish_serial(spec, job, engine),
        Ready::Parallel(machine) => run::finish_parallel(spec, job, machine, workers),
    }
}

/// Time one set-up of every job of a pass.
fn time_setup(spec: &Spec, jobs: &[Job]) -> f64 {
    let mut total = Duration::ZERO;
    for &job in jobs {
        let t = Instant::now();
        let ready = setup(spec, job);
        total += t.elapsed();
        drop(ready);
    }
    total.as_secs_f64()
}

/// `--trace 0`: a warm-up pass, timed untraced passes, then one traced
/// pass whose digests every timed job must reproduce. Each pass's host
/// times are rescaled to the reference host by the slowdown the gauge
/// measures right after it (see `calib`).
fn timed_mode(spec: &Spec, seconds: f64, workers: usize) -> Report {
    let jobs = spec.jobs();
    let mut report = Report::default();
    // Distinct job records with how often each occurred: a healthy run
    // repeats one record per job, so memory stays flat however many
    // passes fit in the run.
    let mut records: Vec<(usize, JobRecord, u64)> = Vec::new();
    let mut events = vec![0u64; jobs.len()];
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    // The same figures before rescaling, and the host's slowdowns.
    let (mut raw_setups, mut raw_rates, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    // Built after the warm-up pass, so its tables stay out of `peak_rss_mb`.
    let mut gauge: Option<calib::Gauge> = None;
    let mut paper_err: Option<workload::Anchor> = None;
    let mut rss = f64::NAN;
    let start = Instant::now();
    loop {
        let (mut setup_time, mut wall, mut msgs) = (Duration::ZERO, Duration::ZERO, 0u64);
        for (i, &job) in jobs.iter().enumerate() {
            let t = Instant::now();
            let ready = setup(spec, job);
            setup_time += t.elapsed();
            let f = run_ready(spec, job, ready, workers);
            wall += f.wall;
            msgs += f.msgs;
            events[i] = f.events;
            for &a in &f.anchors {
                if paper_err.is_none_or(|p| a.err_pct > p.err_pct) {
                    paper_err = Some(a);
                }
            }
            match records
                .iter_mut()
                .find(|(j, r, _)| *j == i && *r == f.record)
            {
                Some(seen) => seen.2 += 1,
                None => records.push((i, f.record, 1)),
            }
        }
        let Some(gauge) = gauge.as_mut() else {
            // The workload's footprint is its warm-up pass; later passes
            // only add allocator fragmentation from building and
            // dropping machines, which varies from run to run.
            rss = peak_rss_mb();
            gauge = Some(calib::Gauge::new());
            continue;
        };
        let slowdown = gauge.slowdown();
        let (setup_s, rate) = (setup_time.as_secs_f64(), msgs as f64 / wall.as_secs_f64());
        raw_setups.push(setup_s);
        raw_rates.push(rate);
        slowdowns.push(slowdown);
        setups.push(setup_s / slowdown);
        rates.push(rate * slowdown);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    // Set-up is short next to a full-machine run, so top up its samples
    // with set-ups that are not run.
    let gauge = gauge.as_mut().expect("built after the warm-up pass");
    while setups.len() < MIN_SETUP_SAMPLES {
        let setup_s = time_setup(spec, &jobs);
        let slowdown = gauge.slowdown();
        raw_setups.push(setup_s);
        slowdowns.push(slowdown);
        setups.push(setup_s / slowdown);
    }

    let origin = Instant::now();
    let mut refs = Vec::with_capacity(jobs.len());
    for (i, &job) in jobs.iter().enumerate() {
        let traced = run::traced(spec, job, origin, events[i] as usize).finished;
        report.judge(&traced.record, None, 1);
        refs.push(reference("traced", &traced.record));
    }
    for (i, rec, times) in &records {
        report.judge(rec, Some(refs[*i]), *times);
    }

    report.notes.push(format!(
        "msgs_per_s over {} timed passes: {}",
        rates.len(),
        quartiles(&rates, 0)
    ));
    report.notes.push(format!(
        "  before rescaling: {}; setup_s over {} samples: {} s",
        quartiles(&raw_rates, 0),
        setups.len(),
        quartiles(&raw_setups, 6)
    ));
    report.notes.push(format!(
        "  host slowdown against the reference host: {}",
        quartiles(&slowdowns, 3)
    ));
    report.notes.push(format!(
        "passes = {} after a warm-up pass ({} jobs each); digests {}",
        rates.len(),
        jobs.len(),
        refs.iter()
            .map(|r| format!("{:#018x}", r.digest))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.notes.push(match paper_err {
        Some(a) => format!("paper_err_pct = {} % (largest at {})", a.err_pct, a.name),
        None => "paper_err_pct = n/a (no paper anchors on this workload)".into(),
    });
    report.metric("msgs_per_s", median(&rates), "1/s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", rss, "MiB");
    report
}

/// `--trace 1`: the per-layer breakdown.
fn traced_mode(spec: &Spec, args: &Args, workers: usize) -> Report {
    let jobs = spec.jobs();
    let observed = spec.workload.observed();
    let mut report = Report::default();
    let origin = Instant::now();

    // Pairs of passes on the same input: untraced serial, then traced.
    let mut breakdown = Breakdown::default();
    let (mut plain_walls, mut ratios) = (Vec::new(), Vec::new());
    let (mut events, mut msgs, mut pending_max) = (0u64, 0u64, 0usize);
    let mut serial_refs = Vec::with_capacity(jobs.len());
    let mut rss_after_plain = f64::NAN;
    let mut tree: Vec<Span> = Vec::new();
    let mut runs = Vec::new();
    let mut passes = 0u64;
    loop {
        let first = passes == 0;
        let mut plain_wall = Duration::ZERO;
        let mut refs = Vec::with_capacity(jobs.len());
        let mut job_events = Vec::with_capacity(jobs.len());
        for &job in &jobs {
            let f = run::finish_serial(spec, job, spec.engine(job));
            report.judge(&f.record, None, 1);
            plain_wall += f.wall;
            job_events.push(f.events);
            if first {
                events += f.events;
                msgs += f.msgs;
            }
            refs.push(reference("plain", &f.record));
        }
        if first {
            rss_after_plain = peak_rss_mb();
        }
        let mut traced_wall = 0u64;
        for (i, &job) in jobs.iter().enumerate() {
            let t = run::traced(spec, job, origin, job_events[i] as usize);
            report.judge(&t.finished.record, Some(refs[i]), 1);
            breakdown.add_run(t.run.0, t.run.1, &t.dispatches);
            traced_wall += t.run.1 - t.run.0;
            pending_max = pending_max.max(t.pending_max);
            if first {
                let id = tree.len();
                let span = |id, parent, name: String, (start_ns, end_ns)| Span {
                    id,
                    parent,
                    job: i,
                    name,
                    start_ns,
                    end_ns,
                };
                let label = &t.finished.record.label;
                tree.extend([
                    span(id, None, format!("job:{label}"), (t.setup.0, t.run.1)),
                    span(id + 1, Some(id), "setup".into(), t.setup),
                    span(id + 2, Some(id), "engine.run".into(), t.run),
                ]);
                runs.push((id + 2, i, t.dispatches));
            }
        }
        plain_walls.push(plain_wall.as_secs_f64());
        ratios.push(traced_wall as f64 / plain_wall.as_nanos().max(1) as f64);
        if first {
            serial_refs = refs;
        }
        passes += 1;
        if origin.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let plain_wall = median(&plain_walls);

    // Observers on and off on the same input, both untraced; the
    // modelled (simulated-time) metrics come from the observed run.
    let (mut on_wall, mut off_wall) = (Duration::ZERO, Duration::ZERO);
    let mut causal_records = 0u64;
    let mut modelled = Modelled::default();
    for (i, &job) in jobs.iter().enumerate() {
        let on = run::finish_serial(spec, job, spec.machine(job, true).into_engine());
        report.judge(&on.record, Some(serial_refs[i]), 1);
        on_wall += on.wall;
        causal_records += on.machine.causal().records().len() as u64;
        modelled.add(&on, spec);
        drop(on);
        let off = run::finish_serial(spec, job, spec.machine(job, false).into_engine());
        report.judge(&off.record, Some(serial_refs[i]), 1);
        off_wall += off.wall;
    }

    // The parallel window driver on the same input, and standalone
    // split / merge calls on identical builds.
    let (mut par_wall, mut windows, mut split_s, mut merge_s) = (Duration::ZERO, 0u64, 0.0, 0.0);
    for (i, &job) in jobs.iter().enumerate() {
        let par = run::finish_parallel(spec, job, spec.machine(job, observed), workers);
        report.judge(&par.record, Some(serial_refs[i]), 1);
        par_wall += par.wall;
        windows += par.windows;
        drop(par);
        let m = spec.machine(job, observed);
        let t = Instant::now();
        let (shards, fabric) = m.split(workers);
        split_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let merged = Machine::merge(shards, fabric);
        merge_s += t.elapsed().as_secs_f64();
        drop(merged);
    }
    let par_wall = par_wall.as_secs_f64();
    let dispatch_s = breakdown.dispatch_ns() as f64 / passes as f64 * 1e-9;

    if let Some(path) = &args.spans_out {
        let written = File::create(path).and_then(|f| {
            let mut out = BufWriter::new(f);
            write_spans(&mut out, &tree, &runs)?;
            out.flush()
        });
        match written {
            Ok(()) => report
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => report.notes.push(format!("spans not written: {e}")),
        }
    }
    report.notes.push(format!(
        "traced passes = {passes} ({} jobs each); plain digests {}",
        jobs.len(),
        serial_refs
            .iter()
            .map(|r| format!("{:#018x}", r.digest))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let per_pass = |total: u64| total as f64 / passes as f64;
    let events_f = events as f64;
    report.metric("sim.events", events_f, "count");
    report.metric("sim.events_per_msg", events_f / msgs as f64, "ratio");
    report.metric("sim.events_per_s", events_f / plain_wall, "1/s");
    report.metric(
        "sim.engine_ns_per_event",
        breakdown.engine_ns as f64 / breakdown.events() as f64,
        "ns",
    );
    report.metric("sim.pending_max", pending_max as f64, "count");
    for (k, name) in KINDS.iter().enumerate().take(NAMED_KINDS) {
        let (count, ns) = (breakdown.count[k], breakdown.ns[k]);
        report.metric(format!("xt3.{name}.count"), per_pass(count), "count");
        let per_event = if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64
        };
        report.metric(format!("xt3.{name}.ns_per_event"), per_event, "ns");
        report.metric(
            format!("xt3.{name}.share"),
            ns as f64 / breakdown.run_ns as f64,
            "ratio",
        );
    }
    let other: u64 = breakdown.count[NAMED_KINDS..].iter().sum();
    report.metric("xt3.other.count", per_pass(other), "count");
    report.metric(
        "xt3.bytes_per_node",
        rss_after_plain * 1024.0 * 1024.0 / f64::from(spec.nodes()),
        "B",
    );
    let (on_s, off_s) = (on_wall.as_secs_f64(), off_wall.as_secs_f64());
    report.metric("telemetry.overhead_ratio", on_s / off_s, "ratio");
    report.metric("telemetry.causal_records", causal_records as f64, "count");
    report.metric("par.windows", windows as f64, "count");
    report.metric("par.events_per_window", events_f / windows as f64, "count");
    report.metric("par.speedup", plain_wall / par_wall, "ratio");
    report.metric("par.split_s", split_s, "s");
    report.metric("par.merge_s", merge_s, "s");
    report.metric(
        "par.residual_s",
        par_wall - split_s - merge_s - dispatch_s / workers as f64,
        "s",
    );
    modelled.report(&mut report, msgs);
    report.metric("trace.overhead_ratio", median(&ratios), "ratio");
    report.metric(
        "trace.budget_residual_frac",
        breakdown.residual_frac(),
        "ratio",
    );
    report
}

/// Simulated-time figures of the observed runs, summed over a pass.
#[derive(Default)]
struct Modelled {
    sim_us: f64,
    node_us: f64,
    host_busy_us: f64,
    ppc_busy_us: f64,
    host_interrupts: u64,
    link_util_max: f64,
    link_stall_us: f64,
    link_retries: u64,
    mean_hops: f64,
}

impl Modelled {
    fn add(&mut self, f: &run::Finished, spec: &Spec) {
        let r = f.machine.telemetry_report("perfbench", f.sim_end);
        let sim_us = f.sim_end.as_us_f64();
        self.sim_us += sim_us;
        self.node_us += sim_us * r.nodes.len() as f64;
        for n in &r.nodes {
            self.host_busy_us += n.host_busy.as_us_f64();
            self.ppc_busy_us += n.ppc_busy.as_us_f64();
            self.host_interrupts += n.host_interrupts;
            for l in &n.links {
                self.link_stall_us += l.stall.as_us_f64();
                self.link_retries += l.retries;
            }
        }
        self.link_util_max = self.link_util_max.max(r.peak_link_utilization());
        self.mean_hops = spec.mean_hops(&f.machine);
    }

    fn report(&self, report: &mut Report, msgs: u64) {
        report.metric("sim.elapsed_us", self.sim_us, "us");
        report.metric(
            "xt3.host_busy_frac",
            self.host_busy_us / self.node_us,
            "ratio",
        );
        report.metric(
            "xt3.host_interrupts_per_msg",
            self.host_interrupts as f64 / msgs as f64,
            "ratio",
        );
        report.metric(
            "seastar.ppc_busy_frac",
            self.ppc_busy_us / self.node_us,
            "ratio",
        );
        report.metric("topology.mean_hops", self.mean_hops, "hops");
        report.metric("topology.link_util_max", self.link_util_max, "ratio");
        report.metric("topology.link_stall_us", self.link_stall_us, "us");
        report.metric("topology.link_retries", self.link_retries as f64, "count");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec::new(args.workload, args.seed);
    // Timed runs split the parallel workload into a fixed shard count,
    // so results do not depend on the host's core count; the traced run
    // gives `run_parallel` one worker per available CPU.
    let workers = if args.trace { nproc() } else { TIMED_SHARDS };
    println!("{}", manifest(&args, &spec, workers));
    let report = if args.trace {
        traced_mode(&spec, &args, workers)
    } else {
        timed_mode(&spec, args.seconds, workers)
    };
    report.print();
    ExitCode::SUCCESS
}
