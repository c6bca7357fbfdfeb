//! Validate the DBMS simulator's resource models against exact queueing
//! theory by configuring degenerate workloads that collapse the simulator
//! to textbook queues.

use extsched::dbms::txn::{PageId, Priority, Step, TxnBody};
use extsched::dbms::{DbmsConfig, DbmsSim, HardwareConfig, StepOutcome};
use extsched::queueing::mg1;
use extsched::sim::{SimRng, SimTime, Welford};

/// Run an open M/./. system through the simulator: Poisson(λ) arrivals of
/// single-step transactions built by `mk`, no MPL, no locks; returns the
/// mean response time over `n` measured completions (after warm-up).
fn open_sim_mean_rt(
    hw: HardwareConfig,
    lambda: f64,
    n: u64,
    mk: impl Fn(&mut SimRng) -> TxnBody,
) -> f64 {
    let cfg = DbmsConfig {
        hit_cpu_time: 0.0,
        ..Default::default()
    };
    // No commit cost or step delay: a pure single-resource queue.
    let hw = HardwareConfig {
        log_write_time: 0.0,
        step_delay: 0.0,
        ..hw
    };
    let mut sim = DbmsSim::new(hw, cfg, 7);
    let mut rng = SimRng::derive(7, "arrivals");
    let mut body_rng = SimRng::derive(7, "bodies");
    sim.schedule_external(SimTime::from_secs_f64(rng.exp(1.0 / lambda)));
    let mut rt = Welford::new();
    let warmup = n / 4;
    let mut done = 0u64;
    let mut completions = Vec::new();
    loop {
        match sim.step() {
            StepOutcome::Idle => break,
            StepOutcome::External => {
                let body = mk(&mut body_rng);
                sim.submit(body, sim.now());
                let next = sim.now() + rng.exp(1.0 / lambda);
                sim.schedule_external(SimTime::from_secs_f64(next));
            }
            StepOutcome::Advanced => {
                sim.drain_completions_into(&mut completions);
                for c in completions.drain(..) {
                    done += 1;
                    if done > warmup {
                        rt.push(c.response_time());
                    }
                }
            }
        }
        if done >= warmup + n {
            break;
        }
    }
    rt.mean()
}

#[test]
fn cpu_bank_matches_mm1() {
    // One CPU, exponential bursts: limited-PS with exponential service has
    // the M/M/1 queue-length law, so E[T] = E[S]/(1−ρ).
    let es = 0.01;
    let lambda = 70.0; // rho = 0.7
    let got = open_sim_mean_rt(HardwareConfig::default(), lambda, 60_000, |r| TxnBody {
        txn_type: 0,
        priority: Priority::Low,
        steps: vec![Step::compute(r.exp(es))],
    });
    let want = mg1::mm1_response_time(lambda, es);
    assert!(
        (got - want).abs() / want < 0.05,
        "sim {got:.5} vs M/M/1 {want:.5}"
    );
}

#[test]
fn cpu_bank_matches_mmc_for_two_cpus() {
    // Two CPUs sharing exponential jobs: birth–death rates min(n,2)·μ —
    // exactly M/M/2, so Erlang-C applies.
    let es = 0.01;
    let lambda = 160.0; // rho = 0.8 on two servers
    let hw = HardwareConfig::default().with_cpus(2);
    let got = open_sim_mean_rt(hw, lambda, 60_000, |r| TxnBody {
        txn_type: 0,
        priority: Priority::Low,
        steps: vec![Step::compute(r.exp(es))],
    });
    let want = mg1::mmc_response_time(lambda, es, 2);
    assert!(
        (got - want).abs() / want < 0.05,
        "sim {got:.5} vs M/M/2 {want:.5}"
    );
}

#[test]
fn cpu_bank_is_insensitive_to_job_size_variability() {
    // Processor sharing: mean response time depends on the service
    // distribution only through its mean (M/G/1-PS insensitivity). Feed
    // H2 jobs with C² = 10 and expect the exponential answer.
    let es = 0.01;
    let lambda = 70.0;
    let h2 = extsched::queueing::H2::fit(es, 10.0);
    let got = open_sim_mean_rt(HardwareConfig::default(), lambda, 120_000, |r| {
        let size = if r.chance(h2.p) {
            r.exp(1.0 / h2.mu1)
        } else {
            r.exp(1.0 / h2.mu2)
        };
        TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step::compute(size)],
        }
    });
    let want = mg1::mg1_ps_response_time(lambda, es);
    assert!(
        (got - want).abs() / want < 0.08,
        "sim {got:.5} vs M/G/1-PS {want:.5}"
    );
}

#[test]
fn disk_matches_mg1_fifo() {
    // One data disk, exponential I/O service, one page per transaction,
    // empty buffer pool: the disk is an M/M/1 FIFO queue.
    let hw = HardwareConfig {
        bufferpool_pages: 1, // never hits
        disk_read_time: 0.01,
        ..Default::default()
    };
    let lambda = 70.0;
    let next_page = std::cell::Cell::new(1_000u64);
    let got = open_sim_mean_rt(hw, lambda, 60_000, move |_| {
        next_page.set(next_page.get() + 1);
        TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: None,
                pages: vec![PageId(next_page.get())],
                cpu: 0.0,
            }],
        }
    });
    let want = mg1::mm1_response_time(lambda, 0.01);
    assert!(
        (got - want).abs() / want < 0.05,
        "sim {got:.5} vs M/M/1 disk {want:.5}"
    );
}
