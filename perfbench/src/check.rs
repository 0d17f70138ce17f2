//! The checks behind `fail_frac`: a job (one machine run) fails if it
//! does not drain, leaves an app running, fails its workload's
//! verification, or its digest or state fingerprint differs from the
//! run it is compared with (the traced run of the same input, or the
//! serial run for a parallel job).

use xt3_sim::RunOutcome;

/// What a finished job produced, as far as the checks need it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    pub label: String,
    pub outcome: RunOutcome,
    pub running_apps: u32,
    /// The workload's own verification (`Spec::inspect`).
    pub verified: Result<(), String>,
    pub digest: u64,
    pub fingerprint: u64,
}

/// The digest and state fingerprint a job must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub what: &'static str,
    pub digest: u64,
    pub fingerprint: u64,
}

/// Every reason `job` counts as failed; empty when it passed.
pub fn failures(job: &JobRecord, reference: Option<Reference>) -> Vec<String> {
    let mut out = Vec::new();
    if job.outcome != RunOutcome::Drained {
        out.push(format!("did not drain ({:?})", job.outcome));
    }
    if job.running_apps != 0 {
        out.push(format!("{} apps still running", job.running_apps));
    }
    if let Err(why) = &job.verified {
        out.push(format!("verification: {why}"));
    }
    if let Some(r) = reference {
        if job.digest != r.digest {
            out.push(format!(
                "digest {:#018x} != {} digest {:#018x}",
                job.digest, r.what, r.digest
            ));
        }
        if job.fingerprint != r.fingerprint {
            out.push(format!(
                "state fingerprint {:#018x} != {} fingerprint {:#018x}",
                job.fingerprint, r.what, r.fingerprint
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    //! Each check is fed a wrong expectation on a small real machine and
    //! must count the job as failed; the same job with the right
    //! expectation must pass, so no test passes vacuously.

    use super::*;
    use crate::run;
    use crate::workload::{Job, Spec, Workload};
    use xt3_node::config::{NodeSpec, OsKind, ProcSpec};
    use xt3_node::workloads::NeighborPusher;
    use xt3_node::{Machine, MachineConfig};
    use xt3_topology::coord::Dims;

    fn uniform(seed: u64) -> Spec {
        Spec::torus(
            Workload::TorusUniform,
            seed,
            Dims::red_storm(3, 2, 2),
            2,
            4096,
        )
    }

    fn neighbor() -> Spec {
        Spec::torus(Workload::NeighborPar, 3, Dims::red_storm(4, 2, 2), 3, 8192)
    }

    #[test]
    fn a_run_that_does_not_drain_fails() {
        let spec = uniform(7);
        let mut engine = spec.engine(Job::Uniform);
        engine.set_event_budget(40);
        let rec = run::finish_serial(&spec, Job::Uniform, engine).record;
        let why = failures(&rec, None);
        assert!(why.iter().any(|w| w.contains("did not drain")), "{why:?}");

        let rec = run::finish_serial(&spec, Job::Uniform, spec.engine(Job::Uniform)).record;
        assert!(failures(&rec, None).is_empty());
    }

    /// Two pushers whose expectations disagree: node 1 sends and expects
    /// one more put than node 0 sends, so the queue drains with node 1's
    /// app still waiting.
    fn lopsided_pair(extra: u32) -> Machine {
        let spec = NodeSpec {
            os: OsKind::Catamount,
            procs: vec![ProcSpec {
                mem_bytes: 2 * 4096 + 8192,
                ..ProcSpec::catamount_generic()
            }],
        };
        let mut m = Machine::new(MachineConfig::paper_pair(), &[spec]);
        m.spawn(0, 0, Box::new(NeighborPusher::toward(1, 2, 4096)));
        m.spawn(1, 0, Box::new(NeighborPusher::toward(0, 2 + extra, 4096)));
        m
    }

    #[test]
    fn an_app_left_running_fails() {
        let spec = Spec::torus(Workload::NeighborPar, 3, Dims::mesh(2, 1, 1), 2, 4096);
        let rec = run::finish_serial(&spec, Job::Neighbor, lopsided_pair(1).into_engine()).record;
        assert_eq!(rec.outcome, RunOutcome::Drained);
        let why = failures(&rec, None);
        assert!(
            why.iter().any(|w| w.contains("apps still running")),
            "{why:?}"
        );

        let rec = run::finish_serial(&spec, Job::Neighbor, lopsided_pair(0).into_engine()).record;
        assert!(
            failures(&rec, None).is_empty(),
            "{:?}",
            failures(&rec, None)
        );
    }

    #[test]
    fn a_wrong_provenance_sum_fails() {
        // Run two rounds, verify against the sum three rounds would give.
        let ran = uniform(7);
        let expect = Spec {
            rounds: 3,
            ..uniform(7)
        };
        let rec = run::finish_serial(&expect, Job::Uniform, ran.engine(Job::Uniform)).record;
        let why = failures(&rec, None);
        assert!(why.iter().any(|w| w.contains("provenance sum")), "{why:?}");

        let rec = run::finish_serial(&ran, Job::Uniform, ran.engine(Job::Uniform)).record;
        assert!(failures(&rec, None).is_empty());
    }

    #[test]
    fn a_plain_digest_unlike_the_traced_one_fails() {
        let a = uniform(7);
        let traced = run::traced(&a, Job::Uniform, std::time::Instant::now(), 0).finished;
        let reference = |rec: &JobRecord| Reference {
            what: "traced",
            digest: rec.digest,
            fingerprint: rec.fingerprint,
        };
        let plain = run::finish_serial(&a, Job::Uniform, a.engine(Job::Uniform)).record;
        assert!(failures(&plain, Some(reference(&traced.record))).is_empty());

        let b = uniform(8);
        let other = run::finish_serial(&b, Job::Uniform, b.engine(Job::Uniform)).record;
        let why = failures(&other, Some(reference(&traced.record)));
        assert!(why.iter().any(|w| w.starts_with("digest")), "{why:?}");
    }

    #[test]
    fn a_parallel_run_unlike_the_serial_one_fails() {
        let spec = neighbor();
        let serial = run::finish_serial(&spec, Job::Neighbor, spec.engine(Job::Neighbor)).record;
        let reference = Reference {
            what: "serial",
            digest: serial.digest,
            fingerprint: serial.fingerprint,
        };
        let par = run::finish_parallel(&spec, Job::Neighbor, spec.machine(Job::Neighbor, false), 2)
            .record;
        assert!(failures(&par, Some(reference)).is_empty());

        // A different input (one more round) must not pass as equal.
        let longer = Spec {
            rounds: 4,
            ..neighbor()
        };
        let other = run::finish_parallel(
            &longer,
            Job::Neighbor,
            longer.machine(Job::Neighbor, false),
            2,
        )
        .record;
        let why = failures(&other, Some(reference));
        assert!(why.iter().any(|w| w.starts_with("digest")), "{why:?}");

        // Equal digests but a different state fingerprint fail too.
        let skewed = Reference {
            fingerprint: reference.fingerprint ^ 1,
            ..reference
        };
        let why = failures(&par, Some(skewed));
        assert_eq!(why.len(), 1, "{why:?}");
        assert!(why[0].starts_with("state fingerprint"), "{why:?}");
    }
}
