//! Cross-host work-stealing sweep coordination with lease-based fault
//! recovery.
//!
//! A sweep split across processes or hosts is served by a small
//! **task-queue coordinator**: a server that hands out global task
//! indices from a [`SweepPlan`] under **time-bounded leases**, and worker
//! clients that claim a task, execute it through the exact
//! [`SweepExecutor`] code path a direct run uses, and stream the outcome
//! back through the bit-exact [`wire`](crate::wire) codec. Work goes to
//! whichever worker asks next, so one dead host strands nothing.
//!
//! Robustness model, in order of line of defense:
//!
//! 1. **Leases + heartbeats.** A claimed task is leased for
//!    [`CoordConfig::lease_secs`]; the executing worker extends the lease
//!    with heartbeats. A worker that dies (SIGKILL, network partition)
//!    stops heartbeating, the lease expires lazily on the next request,
//!    and the task returns to the pending queue for reassignment. A
//!    worker whose task panics dies the same way: the heartbeat stops
//!    with the task, and the worker exits with the executor's
//!    `sweep task N failed` panic, recording nothing.
//! 2. **Keep-first outcomes.** Expiry can double-assign a task — the
//!    original worker may have been slow, not dead. Tasks are pure in
//!    `(scenario, seed)`, the coordinator keeps the **first** recorded
//!    outcome per task, and late duplicates are acknowledged and
//!    discarded, so a double-assigned sweep still assembles
//!    byte-identical to a direct run.
//! 3. **Worker reconnect.** Transport failures (coordinator restart,
//!    dropped frames) are retried with deterministic exponential backoff;
//!    the worker re-introduces itself with `hello` so the coordinator
//!    counts the reconnect. Bounded retries turn a truly dead
//!    coordinator into a typed [`WorkerError`].
//! 4. **Graceful degradation.** A worker that can never reach the
//!    coordinator reports [`WorkerError::Unreachable`]; the CLI falls
//!    back to plain local execution. The coordinator keeps its outcomes
//!    in memory only: a restarted coordinator serves the sweep from the
//!    start, since every task is pure and cheap to run again, and every
//!    worker has to be restarted with it — a surviving worker that
//!    records into the new coordinator's earlier sweep gets `wait` and
//!    stops with a protocol error.
//!
//! The protocol is line-based (one request line, one response line per
//! connection) so a frame is atomic at the transport layer and the
//! coordinator stays a transport-free state machine
//! ([`Coordinator::handle`]) with an injectable clock — every lease
//! expiry and reassignment path is unit-testable without sockets or
//! sleeps. The unit tests also wrap transports in a deterministic
//! drop/duplicate/delay/truncate layer, under which a coordinated sweep
//! must still converge byte-identical.

use crate::fault::relock;
use crate::observe::SweepObs;
use crate::scenario::ScenarioOutcome;
use crate::sweep::{assemble, ScenarioResult, SweepExecutor, SweepPlan};
use crate::wire::{decode_outcome, encode_outcome, DecodeError};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Wire frames.

/// A client → coordinator frame. One line on the wire; see each
/// variant's `encode` arm for the exact grammar.
///
/// Every frame names its sweep **epoch** — the coordinator serves the
/// experiment list as consecutive epochs, and the epoch disambiguates a
/// worker that is one sweep ahead (told to wait) from one reporting a
/// straggler result for a sweep that already finished (acknowledged and
/// ignored).
// Record (carrying a full ScenarioOutcome) dwarfs the other variants,
// but it is also the dominant frame on the wire — boxing it would cost
// an allocation on exactly the hot path the lint wants to protect.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Request {
    /// Introduce a worker and validate that both sides built the same
    /// plan: `hello <worker> <epoch> <fingerprint:016x> <tasks>`.
    Hello {
        /// Worker name (a single whitespace-free token).
        worker: String,
        /// Sweep epoch the worker wants to join.
        epoch: u64,
        /// The worker's [`SweepPlan::fingerprint`].
        fingerprint: u64,
        /// The worker's [`SweepPlan::task_count`].
        task_count: usize,
    },
    /// Ask for a task lease: `claim <worker> <epoch>`.
    Claim {
        /// Worker name.
        worker: String,
        /// Sweep epoch.
        epoch: u64,
    },
    /// Extend the lease on a task still executing:
    /// `heartbeat <worker> <epoch> <task>`.
    Heartbeat {
        /// Worker name.
        worker: String,
        /// Sweep epoch.
        epoch: u64,
        /// Global task index being executed.
        task: usize,
    },
    /// Report a completed task: `record <worker> <epoch> <task> <outcome>`,
    /// with the outcome in the bit-exact [`wire`](crate::wire) codec. A
    /// task that panics is never recorded: its worker aborts instead.
    Record {
        /// Worker name.
        worker: String,
        /// Sweep epoch.
        epoch: u64,
        /// Global task index.
        task: usize,
        /// The task's outcome.
        outcome: ScenarioOutcome,
    },
    /// Orderly departure; releases the worker's leases:
    /// `bye <worker> <epoch>`.
    Bye {
        /// Worker name.
        worker: String,
        /// Sweep epoch.
        epoch: u64,
    },
}

/// A coordinator → client frame. One line on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted:
    /// `welcome <epoch> <fingerprint:016x> <tasks> <lease_bits:016x>`
    /// (lease seconds travel as IEEE-754 bits like every float).
    Welcome {
        /// Epoch the coordinator is serving.
        epoch: u64,
        /// The coordinator's plan fingerprint.
        fingerprint: u64,
        /// The coordinator's task count.
        task_count: usize,
        /// Lease duration granted per claim, seconds.
        lease_secs: f64,
    },
    /// A task lease: `lease <task>`.
    Lease {
        /// Global task index to execute.
        task: usize,
    },
    /// Nothing to hand out right now (outstanding leases may still
    /// expire): `wait`.
    Wait,
    /// The sweep (or, for a stale epoch, that whole sweep) is complete:
    /// `done`.
    Done,
    /// Acknowledged: `ok`.
    Ok,
    /// Typed refusal or decode failure: `error <message…>` (the message
    /// is the rest of the line).
    Error {
        /// Human-readable reason.
        msg: String,
    },
}

fn fh(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// A worker name must be one non-empty whitespace-free token so the
/// line-based grammar stays unambiguous.
fn check_worker(name: &str) -> Result<String, String> {
    if name.is_empty() {
        return Err("empty worker name".to_string());
    }
    if name.chars().any(char::is_whitespace) {
        return Err(format!("worker name `{name}` contains whitespace"));
    }
    Ok(name.to_string())
}

impl Request {
    /// Serialize to one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Hello {
                worker,
                epoch,
                fingerprint,
                task_count,
            } => format!("hello {worker} {epoch} {fingerprint:016x} {task_count}"),
            Request::Claim { worker, epoch } => format!("claim {worker} {epoch}"),
            Request::Heartbeat {
                worker,
                epoch,
                task,
            } => format!("heartbeat {worker} {epoch} {task}"),
            Request::Record {
                worker,
                epoch,
                task,
                outcome,
            } => format!("record {worker} {epoch} {task} {}", encode_outcome(outcome)),
            Request::Bye { worker, epoch } => format!("bye {worker} {epoch}"),
        }
    }

    /// Parse one wire line. Never panics: any malformed, truncated, or
    /// garbage input returns a typed [`DecodeError`] naming the
    /// offending text.
    pub fn decode(line: &str) -> Result<Request, DecodeError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let fail = |msg: String| DecodeError::at(1, line, msg);
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        let mut toks = rest.split_whitespace();
        let mut tok = |name: &str| -> Result<&str, DecodeError> {
            toks.next()
                .ok_or_else(|| fail(format!("truncated `{kind}` frame: missing `{name}`")))
        };
        let usize_of = |name: &str, s: &str| -> Result<usize, DecodeError> {
            s.parse().map_err(|e| fail(format!("bad `{name}`: {e}")))
        };
        let u64_of = |name: &str, s: &str| -> Result<u64, DecodeError> {
            s.parse().map_err(|e| fail(format!("bad `{name}`: {e}")))
        };
        match kind {
            "hello" => {
                let worker = check_worker(tok("worker")?).map_err(&fail)?;
                let epoch = u64_of("epoch", tok("epoch")?)?;
                let fp_tok = tok("fingerprint")?;
                let fingerprint = u64::from_str_radix(fp_tok, 16)
                    .map_err(|e| fail(format!("bad fingerprint `{fp_tok}`: {e}")))?;
                let task_count = usize_of("tasks", tok("tasks")?)?;
                Ok(Request::Hello {
                    worker,
                    epoch,
                    fingerprint,
                    task_count,
                })
            }
            "claim" => Ok(Request::Claim {
                worker: check_worker(tok("worker")?).map_err(&fail)?,
                epoch: u64_of("epoch", tok("epoch")?)?,
            }),
            "heartbeat" => Ok(Request::Heartbeat {
                worker: check_worker(tok("worker")?).map_err(&fail)?,
                epoch: u64_of("epoch", tok("epoch")?)?,
                task: usize_of("task", tok("task")?)?,
            }),
            "record" => {
                // The outcome payload contains spaces, so split the fixed
                // prefix manually instead of tokenizing the whole line.
                let mut parts = rest.splitn(4, ' ');
                let mut part = |name: &str| -> Result<&str, DecodeError> {
                    parts
                        .next()
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| fail(format!("truncated `record` frame: missing `{name}`")))
                };
                let worker = check_worker(part("worker")?).map_err(&fail)?;
                let epoch = u64_of("epoch", part("epoch")?)?;
                let task = usize_of("task", part("task")?)?;
                let outcome = decode_outcome(part("outcome")?).map_err(&fail)?;
                Ok(Request::Record {
                    worker,
                    epoch,
                    task,
                    outcome,
                })
            }
            "bye" => Ok(Request::Bye {
                worker: check_worker(tok("worker")?).map_err(&fail)?,
                epoch: u64_of("epoch", tok("epoch")?)?,
            }),
            other => Err(fail(format!("unknown request kind `{other}`"))),
        }
    }
}

impl Response {
    /// Serialize to one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Welcome {
                epoch,
                fingerprint,
                task_count,
                lease_secs,
            } => format!(
                "welcome {epoch} {fingerprint:016x} {task_count} {}",
                fh(*lease_secs)
            ),
            Response::Lease { task } => format!("lease {task}"),
            Response::Wait => "wait".to_string(),
            Response::Done => "done".to_string(),
            Response::Ok => "ok".to_string(),
            Response::Error { msg } => format!("error {}", msg.replace(['\n', '\r'], " ")),
        }
    }

    /// Parse one wire line; typed errors, never panics on garbage.
    pub fn decode(line: &str) -> Result<Response, DecodeError> {
        let line = line.trim_end_matches(['\r', '\n']);
        let fail = |msg: String| DecodeError::at(1, line, msg);
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "welcome" => {
                let mut toks = rest.split_whitespace();
                let mut tok = |name: &str| -> Result<&str, DecodeError> {
                    toks.next()
                        .ok_or_else(|| fail(format!("truncated `welcome` frame: missing `{name}`")))
                };
                let epoch = tok("epoch")?
                    .parse()
                    .map_err(|e| fail(format!("bad `epoch`: {e}")))?;
                let fp_tok = tok("fingerprint")?;
                let fingerprint = u64::from_str_radix(fp_tok, 16)
                    .map_err(|e| fail(format!("bad fingerprint `{fp_tok}`: {e}")))?;
                let task_count = tok("tasks")?
                    .parse()
                    .map_err(|e| fail(format!("bad `tasks`: {e}")))?;
                let bits_tok = tok("lease")?;
                let lease_secs = u64::from_str_radix(bits_tok, 16)
                    .map(f64::from_bits)
                    .map_err(|e| fail(format!("bad lease bits `{bits_tok}`: {e}")))?;
                Ok(Response::Welcome {
                    epoch,
                    fingerprint,
                    task_count,
                    lease_secs,
                })
            }
            "lease" => {
                let task = rest
                    .split_whitespace()
                    .next()
                    .ok_or_else(|| fail("truncated `lease` frame: missing `task`".to_string()))?;
                Ok(Response::Lease {
                    task: task.parse().map_err(|e| fail(format!("bad `task`: {e}")))?,
                })
            }
            "wait" if rest.is_empty() => Ok(Response::Wait),
            "done" if rest.is_empty() => Ok(Response::Done),
            "ok" if rest.is_empty() => Ok(Response::Ok),
            "error" => Ok(Response::Error {
                msg: rest.to_string(),
            }),
            other => Err(fail(format!("unknown response kind `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Coordinator state machine.

/// Coordinator tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoordConfig {
    /// Lease duration per claim, seconds. A worker that neither records
    /// nor heartbeats within this window loses the task to reassignment.
    pub lease_secs: f64,
}

impl Default for CoordConfig {
    fn default() -> CoordConfig {
        CoordConfig { lease_secs: 10.0 }
    }
}

#[derive(Debug, Clone)]
struct LeaseState {
    worker: String,
    deadline: f64,
}

/// The coordinator's transport-free state machine: pending tasks,
/// outstanding leases, recorded outcomes. Drive it with
/// [`Coordinator::handle`] under any clock — the TCP front end
/// ([`CoordServer`]) feeds wall-clock seconds, tests feed a synthetic
/// clock to exercise expiry without sleeping.
///
/// Determinism contract: the *results* of a coordinated sweep are a pure
/// function of the plan — tasks are handed out in ascending index order
/// (expired tasks re-queue in ascending order too) and the first
/// recorded outcome per task wins, so worker count, claim interleaving,
/// lease timing, and duplicated frames never change a result byte.
#[derive(Debug)]
pub struct Coordinator {
    epoch: u64,
    fingerprint: u64,
    task_count: usize,
    lease_secs: f64,
    pending: VecDeque<usize>,
    leases: BTreeMap<usize, LeaseState>,
    outcomes: BTreeMap<usize, ScenarioOutcome>,
    /// Tasks whose lease expired at least once — the next grant of one
    /// of these is a *reassignment*.
    expired_once: BTreeSet<usize>,
    /// Workers seen in a hello or claim; a second hello is a reconnect.
    workers: BTreeSet<String>,
    obs: Option<Arc<SweepObs>>,
}

impl Coordinator {
    /// A coordinator for one sweep: every task of `plan` pending, no
    /// leases, no outcomes.
    pub fn new(epoch: u64, plan: &SweepPlan, config: CoordConfig) -> Coordinator {
        Coordinator {
            epoch,
            fingerprint: plan.fingerprint(),
            task_count: plan.task_count(),
            lease_secs: config.lease_secs,
            pending: (0..plan.task_count()).collect(),
            leases: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            expired_once: BTreeSet::new(),
            workers: BTreeSet::new(),
            obs: None,
        }
    }

    /// Record coordination telemetry (`coord.*` counters) into `obs`.
    /// Strictly observational.
    pub fn with_obs(self, obs: Arc<SweepObs>) -> Coordinator {
        Coordinator {
            obs: Some(obs),
            ..self
        }
    }

    /// The epoch this coordinator serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True once every task has a recorded outcome.
    pub fn finished(&self) -> bool {
        self.outcomes.len() == self.task_count
    }

    /// Tasks still lacking an outcome.
    pub fn remaining(&self) -> usize {
        self.task_count - self.outcomes.len()
    }

    /// The recorded outcomes assembled into per-scenario results of
    /// `plan`, byte-identical to [`SweepExecutor::run`] on the same plan.
    /// Per-cell timing telemetry stays with the workers that measured it
    /// (each worker's executor records its leases'
    /// [`CellTiming`](crate::CellTiming)s); the coordinator reports none.
    ///
    /// # Panics
    ///
    /// If `plan` is not the plan this coordinator served (fingerprint or
    /// task count differ), or if a task has no recorded outcome — the
    /// message names the mismatch or the first uncovered task.
    pub fn into_results(self, plan: &SweepPlan) -> Vec<ScenarioResult> {
        assert!(
            self.fingerprint == plan.fingerprint() && self.task_count == plan.task_count(),
            "coordinator served a different plan (fingerprint {:016x}, {} tasks; want {:016x}, {} tasks)",
            self.fingerprint,
            self.task_count,
            plan.fingerprint(),
            plan.task_count()
        );
        if let Some(t) = (0..self.task_count).find(|t| !self.outcomes.contains_key(t)) {
            panic!("coordinated sweep is incomplete: task {t} has no recorded outcome");
        }
        assemble(plan, self.outcomes.into_iter().collect())
    }

    fn counter(&self, name: &str) {
        if let Some(obs) = &self.obs {
            obs.registry().counter_add(name, 1);
        }
    }

    /// Lazily expire leases older than `now`: the task returns to the
    /// pending queue (ascending task order, after everything already
    /// queued) and its next grant counts as a reassignment.
    fn expire_leases(&mut self, now: f64) {
        let dead: Vec<usize> = self
            .leases
            .iter()
            .filter(|(_, l)| l.deadline <= now)
            .map(|(&t, _)| t)
            .collect();
        for t in dead {
            self.leases.remove(&t);
            self.expired_once.insert(t);
            self.pending.push_back(t);
            self.counter("coord.leases_expired");
        }
    }

    /// Handle one request at clock time `now` (seconds, any monotone
    /// origin). Pure state transition: all I/O lives in the transports.
    pub fn handle(&mut self, req: &Request, now: f64) -> Response {
        self.expire_leases(now);
        let (epoch, worker) = match req {
            Request::Hello { worker, epoch, .. }
            | Request::Claim { worker, epoch }
            | Request::Heartbeat { worker, epoch, .. }
            | Request::Record { worker, epoch, .. }
            | Request::Bye { worker, epoch } => (*epoch, worker.clone()),
        };
        // Epoch routing: a frame for an earlier sweep is answered
        // terminally (that sweep is over — `done` for control frames,
        // `ok` for fire-and-forget ones); a frame for a later sweep
        // waits until this coordinator is replaced.
        if epoch < self.epoch {
            return match req {
                Request::Hello { .. } | Request::Claim { .. } => Response::Done,
                _ => Response::Ok,
            };
        }
        if epoch > self.epoch {
            return Response::Wait;
        }
        match req {
            Request::Hello {
                fingerprint,
                task_count,
                ..
            } => {
                if *fingerprint != self.fingerprint || *task_count != self.task_count {
                    return Response::Error {
                        msg: format!(
                            "plan mismatch: worker built {:016x}/{} tasks, \
                             coordinator {:016x}/{} — are both sides running \
                             identical figures flags?",
                            fingerprint, task_count, self.fingerprint, self.task_count
                        ),
                    };
                }
                if !self.workers.insert(worker) {
                    self.counter("coord.worker_reconnects");
                }
                Response::Welcome {
                    epoch: self.epoch,
                    fingerprint: self.fingerprint,
                    task_count: self.task_count,
                    lease_secs: self.lease_secs,
                }
            }
            Request::Claim { .. } => {
                if self.finished() {
                    return Response::Done;
                }
                let Some(task) = self.pending.pop_front() else {
                    return Response::Wait;
                };
                self.workers.insert(worker.clone());
                self.leases.insert(
                    task,
                    LeaseState {
                        worker,
                        deadline: now + self.lease_secs,
                    },
                );
                self.counter("coord.leases_granted");
                if self.expired_once.contains(&task) {
                    self.counter("coord.tasks_reassigned");
                }
                Response::Lease { task }
            }
            Request::Heartbeat { task, .. } => match self.leases.get_mut(task) {
                Some(lease) if lease.worker == worker => {
                    lease.deadline = now + self.lease_secs;
                    Response::Ok
                }
                // The lease expired (and was possibly re-granted): the
                // worker may keep computing — its record can still win —
                // but there is no lease left to extend.
                _ => Response::Error {
                    msg: format!("no active lease on task {task} for {worker}"),
                },
            },
            Request::Record { task, outcome, .. } => {
                if *task >= self.task_count {
                    return Response::Error {
                        msg: format!("task {task} out of range for {}", self.task_count),
                    };
                }
                // Keep-first: a duplicate (double-assignment, duplicated
                // frame, retried record) is acknowledged and discarded.
                if self.outcomes.contains_key(task) {
                    return Response::Ok;
                }
                self.outcomes.insert(*task, outcome.clone());
                self.leases.remove(task);
                self.pending.retain(|&p| p != *task);
                Response::Ok
            }
            Request::Bye { .. } => {
                let held: Vec<usize> = self
                    .leases
                    .iter()
                    .filter(|(_, l)| l.worker == worker)
                    .map(|(&t, _)| t)
                    .collect();
                for t in held {
                    self.leases.remove(&t);
                    self.pending.push_back(t);
                }
                Response::Ok
            }
        }
    }
}

/// Decode one request line, handle it, encode the response — the shared
/// core of every server front end. Malformed input becomes an `error`
/// response; nothing panics on untrusted bytes.
pub fn serve_line(coord: &mut Coordinator, line: &str, now: f64) -> String {
    match Request::decode(line) {
        Ok(req) => coord.handle(&req, now).encode(),
        Err(e) => Response::Error {
            msg: format!("bad request: {e}"),
        }
        .encode(),
    }
}

// ---------------------------------------------------------------------------
// Transports.

/// One round trip to the coordinator: send a request line, receive a
/// response line. Implementations are connectionless per call (the TCP
/// transport opens a fresh connection each time), which keeps frames
/// atomic and makes reconnect-after-failure the *only* recovery path —
/// there is no session state to resynchronize.
pub trait Transport: Send + Sync {
    /// Send one encoded request line, return the raw response line.
    fn call_raw(&self, line: &str) -> Result<String, String>;
}

/// Typed round trip over any [`Transport`].
pub fn call(transport: &dyn Transport, req: &Request) -> Result<Response, String> {
    let raw = transport.call_raw(&req.encode())?;
    Response::decode(raw.trim_end()).map_err(|e| format!("bad response: {e}"))
}

/// In-process transport: requests go straight into a shared
/// [`Coordinator`] under the wall clock. The fallback when no socket is
/// wanted (tests, single-process demos) — byte-for-byte the same frames
/// as TCP, minus the network.
pub struct LocalTransport {
    coord: Arc<Mutex<Coordinator>>,
    started: Instant,
}

impl LocalTransport {
    /// A transport feeding `coord` directly.
    pub fn new(coord: Arc<Mutex<Coordinator>>) -> LocalTransport {
        LocalTransport {
            coord,
            started: Instant::now(),
        }
    }
}

impl Transport for LocalTransport {
    fn call_raw(&self, line: &str) -> Result<String, String> {
        let now = self.started.elapsed().as_secs_f64();
        Ok(serve_line(&mut relock(&self.coord), line, now))
    }
}

/// TCP transport: one connection per request — connect, write the line,
/// half-close, read the response line.
pub struct TcpTransport {
    addr: String,
    timeout: Duration,
}

impl TcpTransport {
    /// A transport for the coordinator at `addr` (`host:port`), with a
    /// per-call connect/read timeout.
    pub fn new(addr: &str, timeout: Duration) -> TcpTransport {
        TcpTransport {
            addr: addr.to_string(),
            timeout,
        }
    }
}

impl Transport for TcpTransport {
    fn call_raw(&self, line: &str) -> Result<String, String> {
        let addr: SocketAddr = self
            .addr
            .parse()
            .map_err(|e| format!("bad coordinator address `{}`: {e}", self.addr))?;
        let mut stream = TcpStream::connect_timeout(&addr, self.timeout)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(Some(self.timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| format!("socket setup: {e}"))?;
        stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.shutdown(std::net::Shutdown::Write))
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        BufReader::new(stream)
            .read_line(&mut resp)
            .map_err(|e| format!("recv: {e}"))?;
        if resp.trim_end().is_empty() {
            return Err("empty response (coordinator closed the connection)".to_string());
        }
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// TCP server front end.

/// The coordinator's TCP front end: a bound listener serving one request
/// line per connection into a [`Coordinator`] state machine.
pub struct CoordServer {
    listener: TcpListener,
}

impl CoordServer {
    /// Bind `addr` (`host:port`; port 0 picks a free one).
    pub fn bind(addr: &str) -> std::io::Result<CoordServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(CoordServer { listener })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve one sweep to completion: accept connections, answer one
    /// frame each, until every task has an outcome — then keep answering
    /// for `linger_secs` so workers polling for their `done` are not met
    /// with a dead port.
    pub fn serve_sweep(&self, coord: &mut Coordinator, linger_secs: f64) -> std::io::Result<()> {
        let started = Instant::now();
        let mut finished_at: Option<Instant> = None;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    // A failed conversation with one client must not take
                    // the coordinator down; the client retries.
                    let _ = Self::answer(stream, coord, &started);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
            if coord.finished() {
                let since = finished_at.get_or_insert_with(Instant::now);
                if since.elapsed().as_secs_f64() >= linger_secs {
                    return Ok(());
                }
            }
        }
    }

    fn answer(
        mut stream: TcpStream,
        coord: &mut Coordinator,
        started: &Instant,
    ) -> std::io::Result<()> {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line)?;
        let now = started.elapsed().as_secs_f64();
        let resp = serve_line(coord, &line, now);
        stream.write_all(resp.as_bytes())?;
        stream.write_all(b"\n")
    }
}

// ---------------------------------------------------------------------------
// Worker client.

/// Worker client tuning knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Worker name (one whitespace-free token, unique per worker).
    pub id: String,
    /// Base of the deterministic exponential reconnect backoff
    /// (`base · 2^(attempt−1)`, exponent capped at 6).
    pub backoff_base_secs: f64,
    /// Consecutive transport failures tolerated per request before the
    /// coordinator is declared gone.
    pub max_retries: u32,
    /// Poll interval while the coordinator answers `wait`, seconds.
    pub poll_secs: f64,
    /// Send lease-extending heartbeats while executing (at roughly a
    /// third of the lease interval).
    pub heartbeat: bool,
}

impl WorkerConfig {
    /// Defaults for worker `id`.
    pub fn new(id: &str) -> WorkerConfig {
        WorkerConfig {
            id: id.to_string(),
            backoff_base_secs: 0.05,
            max_retries: 8,
            poll_secs: 0.05,
            heartbeat: true,
        }
    }

    fn backoff_secs(&self, attempt: u32) -> f64 {
        if self.backoff_base_secs <= 0.0 || attempt == 0 {
            0.0
        } else {
            self.backoff_base_secs * f64::from(1u32 << (attempt - 1).min(6))
        }
    }
}

/// Why a worker gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerError {
    /// The coordinator never answered the initial hello: the caller
    /// should degrade to local execution.
    Unreachable(String),
    /// The coordinator disappeared mid-sweep and stayed gone past the
    /// retry budget.
    Lost(String),
    /// The coordinator answered, but not with anything in the protocol
    /// (or refused the handshake).
    Protocol(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Unreachable(e) => write!(f, "coordinator unreachable: {e}"),
            WorkerError::Lost(e) => write!(f, "coordinator lost mid-sweep: {e}"),
            WorkerError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// What one worker did for one sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Tasks this worker executed and recorded.
    pub tasks_executed: usize,
    /// Transport-failure recoveries (client-side count; the coordinator
    /// counts the matching `coord.worker_reconnects` on re-hello).
    pub reconnects: u64,
}

/// Run one worker against one sweep: hello, then claim → execute →
/// record until the coordinator says `done`. Tasks execute through
/// `SweepExecutor::run_task`, the execution core a direct run uses,
/// so a coordinated sweep's outcomes are bit-identical to a direct one
/// whatever the claim interleaving.
///
/// `executor` carries the worker's thread, cache, obs and timings
/// configuration; every executed lease lands in its timings sink.
///
/// A leased task that panics aborts the worker with the executor's
/// `sweep task N failed: panicked: …` panic: it records nothing and stops
/// heartbeating, so the lease expires and the coordinator may hand the
/// task to another worker.
///
/// If the coordinator goes away, every request is retried up to
/// [`WorkerConfig::max_retries`] times with exponential backoff and a
/// re-hello before each retry; past that budget the worker gives up with
/// [`WorkerError::Unreachable`] (before the handshake) or
/// [`WorkerError::Lost`] (mid-sweep). A restarted coordinator keeps
/// none of the old one's outcomes and serves its sweeps from the start,
/// so its workers must be restarted with it.
pub fn run_worker(
    plan: &SweepPlan,
    epoch: u64,
    executor: &SweepExecutor,
    transport: &dyn Transport,
    config: &WorkerConfig,
) -> Result<WorkerSummary, WorkerError> {
    let fingerprint = plan.fingerprint();
    let task_count = plan.task_count();
    let hello = Request::Hello {
        worker: config.id.clone(),
        epoch,
        fingerprint,
        task_count,
    };
    let mut summary = WorkerSummary::default();

    // Handshake: bounded retries, then Unreachable so the caller can
    // degrade to local execution. A `wait` means the coordinator is
    // still on an earlier sweep — poll, it is reachable.
    let lease_secs = {
        let mut attempt = 0u32;
        loop {
            match call(transport, &hello) {
                Ok(Response::Welcome { lease_secs, .. }) => break lease_secs,
                Ok(Response::Done) => return Ok(summary),
                Ok(Response::Wait) => std::thread::sleep(Duration::from_secs_f64(config.poll_secs)),
                Ok(Response::Error { msg }) if msg.contains("plan mismatch") => {
                    return Err(WorkerError::Protocol(msg));
                }
                // `bad request` means the frame was mangled in transit:
                // the coordinator never saw a parseable hello, so
                // resending is safe — treat it like a transport failure.
                Ok(Response::Error { msg }) if msg.starts_with("bad request") => {
                    attempt += 1;
                    if attempt > config.max_retries {
                        return Err(WorkerError::Unreachable(msg));
                    }
                    std::thread::sleep(Duration::from_secs_f64(config.backoff_secs(attempt)));
                }
                Ok(other) => {
                    return Err(WorkerError::Protocol(format!(
                        "unexpected hello response: {other:?}"
                    )));
                }
                Err(e) => {
                    attempt += 1;
                    if attempt > config.max_retries {
                        return Err(WorkerError::Unreachable(e));
                    }
                    std::thread::sleep(Duration::from_secs_f64(config.backoff_secs(attempt)));
                }
            }
        }
    };

    // One request with reconnect: deterministic exponential backoff
    // between attempts, a re-hello before each retry (so the coordinator
    // counts the reconnect), a typed Lost error past the budget.
    let rpc = |req: &Request, summary: &mut WorkerSummary| -> Result<Response, WorkerError> {
        let mut attempt = 0u32;
        loop {
            // A `bad request` reply means the frame was mangled in
            // transit (e.g. a truncated line): the coordinator never saw
            // a parseable request, so resending is safe for every frame
            // type — duplicate records are
            // deduplicated keep-first on the coordinator. Any other
            // in-protocol error is the handler speaking and is
            // surfaced to the caller.
            let failure = match call(transport, req) {
                Ok(Response::Error { msg }) if msg.starts_with("bad request") => msg,
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            attempt += 1;
            if attempt > config.max_retries {
                return Err(WorkerError::Lost(failure));
            }
            std::thread::sleep(Duration::from_secs_f64(config.backoff_secs(attempt)));
            summary.reconnects += 1;
            let _ = call(transport, &hello);
        }
    };

    loop {
        match rpc(
            &Request::Claim {
                worker: config.id.clone(),
                epoch,
            },
            &mut summary,
        )? {
            Response::Lease { task } => {
                if task >= task_count {
                    return Err(WorkerError::Protocol(format!(
                        "leased task {task} out of range for {task_count}"
                    )));
                }
                eprintln!("[worker {}] sweep {epoch}: leased task {task}", config.id);
                let outcome =
                    execute_task(plan, epoch, executor, transport, config, task, lease_secs);
                match rpc(
                    &Request::Record {
                        worker: config.id.clone(),
                        epoch,
                        task,
                        outcome,
                    },
                    &mut summary,
                )? {
                    Response::Ok | Response::Done => {
                        eprintln!("[worker {}] sweep {epoch}: recorded task {task}", config.id);
                    }
                    Response::Error { msg } => return Err(WorkerError::Protocol(msg)),
                    other => {
                        return Err(WorkerError::Protocol(format!(
                            "unexpected record response: {other:?}"
                        )));
                    }
                }
                summary.tasks_executed += 1;
            }
            Response::Wait => std::thread::sleep(Duration::from_secs_f64(config.poll_secs)),
            Response::Done => {
                let _ = call(
                    transport,
                    &Request::Bye {
                        worker: config.id.clone(),
                        epoch,
                    },
                );
                return Ok(summary);
            }
            // A truncated or garbled frame drew a typed refusal; treat
            // it like a transport hiccup and claim again.
            Response::Error { .. } => {
                std::thread::sleep(Duration::from_secs_f64(config.backoff_secs(1)))
            }
            other => {
                return Err(WorkerError::Protocol(format!(
                    "unexpected claim response: {other:?}"
                )));
            }
        }
    }
}

/// Execute one leased task, heartbeating at a third of the lease
/// interval from a side thread so a long cell outlives its lease.
/// Heartbeat responses are advisory — a lost lease does not stop the
/// computation, because a late result can still win the keep-first race.
/// The heartbeat stops however the task ends, by returning or by
/// panicking, so a failed task re-raises here instead of hanging the
/// worker on a heartbeat that outlives it.
fn execute_task(
    plan: &SweepPlan,
    epoch: u64,
    executor: &SweepExecutor,
    transport: &dyn Transport,
    config: &WorkerConfig,
    task: usize,
    lease_secs: f64,
) -> ScenarioOutcome {
    let run = || executor.run_task(plan, task);
    if !config.heartbeat || lease_secs <= 0.0 {
        return run();
    }
    let stop = AtomicBool::new(false);
    let interval = (lease_secs / 3.0).max(0.01);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let beat = Request::Heartbeat {
                worker: config.id.clone(),
                epoch,
                task,
            };
            // Sleep in short slices so the thread exits promptly once
            // the task lands.
            let slice = Duration::from_millis(10);
            let mut slept = 0.0;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(slice);
                slept += slice.as_secs_f64();
                if slept >= interval {
                    slept = 0.0;
                    let _ = call(transport, &beat);
                }
            }
        });
        let _stop = StopOnDrop(&stop);
        run()
    })
}

/// Raises its flag when dropped — on return and on unwinding alike.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RunConfig;
    use crate::scenario::Scenario;
    use crate::wire::encode_outcome;
    use std::sync::atomic::AtomicU64;
    use xsched_sim::SimRng;
    use xsched_workload::setup;

    // Deterministic wire-fault injection: a transport wrapper that drops,
    // duplicates, delays and truncates frames, pure in (seed, frame).

    /// What the wire-fault injector decided for one frame.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum WireFault {
        /// The frame is dropped: the call fails as a transport error and
        /// the worker's reconnect path takes over.
        Drop,
        /// The frame is sent twice (the duplicate's response is
        /// discarded) — exercising request idempotence.
        Duplicate,
        /// The frame is delayed this many wall-clock seconds before
        /// sending — exercising lease expiry under slow links.
        Delay(f64),
        /// Only a prefix of the frame reaches the coordinator, which must
        /// answer with a typed `error`, never a panic.
        Truncate,
    }

    /// Deterministic per-frame wire-fault decisions, pure in
    /// `(seed, frame counter)` via a derived RNG stream (`wire/<n>`), so a
    /// faulty-wire run reproduces its exact fault sequence on every host.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct WireFaultInjector {
        /// Stream seed.
        seed: u64,
        /// Probability a frame is dropped.
        p_drop: f64,
        /// Probability a frame is duplicated (checked after the drop draw).
        p_dup: f64,
        /// Probability a frame is delayed (checked after the previous
        /// draws).
        p_delay: f64,
        /// Probability a frame is truncated (checked last).
        p_truncate: f64,
        /// Delay length in wall-clock seconds.
        delay_secs: f64,
    }

    impl WireFaultInjector {
        /// A mildly hostile wire: a few percent of every fault kind.
        fn chaos(seed: u64) -> WireFaultInjector {
            WireFaultInjector {
                seed,
                p_drop: 0.05,
                p_dup: 0.05,
                p_delay: 0.05,
                p_truncate: 0.05,
                delay_secs: 0.02,
            }
        }

        /// The decision for frame number `n`. Pure and deterministic.
        fn decide(&self, n: u64) -> Option<WireFault> {
            let mut rng = SimRng::derive(self.seed, &format!("wire/{n}"));
            let u = rng.uniform();
            if u < self.p_drop {
                Some(WireFault::Drop)
            } else if u < self.p_drop + self.p_dup {
                Some(WireFault::Duplicate)
            } else if u < self.p_drop + self.p_dup + self.p_delay {
                Some(WireFault::Delay(self.delay_secs))
            } else if u < self.p_drop + self.p_dup + self.p_delay + self.p_truncate {
                Some(WireFault::Truncate)
            } else {
                None
            }
        }
    }

    /// A [`Transport`] wrapper acting out [`WireFaultInjector`] decisions
    /// on the client side of the wire. Safe by construction: drops surface
    /// as transport errors (retried with backoff), duplicates are
    /// idempotent (keep-first records, re-extendable heartbeats), delays
    /// at worst expire a lease (reassignment), truncations draw a typed
    /// `error` response — so a sweep under an arbitrarily faulty wire
    /// still assembles byte-identical, it just takes longer.
    struct FaultyTransport<T> {
        inner: T,
        injector: WireFaultInjector,
        counter: AtomicU64,
    }

    impl<T: Transport> FaultyTransport<T> {
        /// Wrap `inner`, acting out `injector`'s decision stream.
        fn new(inner: T, injector: WireFaultInjector) -> FaultyTransport<T> {
            FaultyTransport {
                inner,
                injector,
                counter: AtomicU64::new(0),
            }
        }

        /// Frames seen so far (fault decisions consumed).
        fn frames(&self) -> u64 {
            self.counter.load(Ordering::Relaxed)
        }
    }

    impl<T: Transport> Transport for FaultyTransport<T> {
        fn call_raw(&self, line: &str) -> Result<String, String> {
            let n = self.counter.fetch_add(1, Ordering::Relaxed);
            match self.injector.decide(n) {
                None => self.inner.call_raw(line),
                Some(WireFault::Drop) => Err(format!("injected: dropped frame {n}")),
                Some(WireFault::Duplicate) => {
                    let first = self.inner.call_raw(line);
                    match self.inner.call_raw(line) {
                        // If the duplicate send fails, fall back to the
                        // first response — one of the two got through.
                        Ok(resp) => Ok(resp),
                        Err(_) => first,
                    }
                }
                Some(WireFault::Delay(secs)) => {
                    std::thread::sleep(Duration::from_secs_f64(secs));
                    self.inner.call_raw(line)
                }
                Some(WireFault::Truncate) => {
                    let mut cut = line.len() / 2;
                    while cut > 0 && !line.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    self.inner.call_raw(&line[..cut])
                }
            }
        }
    }

    fn tiny_plan() -> SweepPlan {
        let rc = RunConfig {
            warmup_txns: 20,
            measured_txns: 120,
            ..Default::default()
        };
        let scenarios = [1u32, 4, 9]
            .iter()
            .map(|&m| Scenario::tput("s1", setup(1), m, rc.clone()))
            .collect();
        SweepPlan::new(scenarios).replicated(2, 42)
    }

    fn outcome_bits(results: &[crate::sweep::ScenarioResult]) -> Vec<String> {
        results
            .iter()
            .flat_map(|r| r.outcomes.iter().map(encode_outcome))
            .collect()
    }

    fn hello(worker: &str, plan: &SweepPlan) -> Request {
        Request::Hello {
            worker: worker.to_string(),
            epoch: 0,
            fingerprint: plan.fingerprint(),
            task_count: plan.task_count(),
        }
    }

    fn claim(worker: &str) -> Request {
        Request::Claim {
            worker: worker.to_string(),
            epoch: 0,
        }
    }

    #[test]
    fn frames_round_trip_through_the_codec() {
        let outcome = tiny_plan().scenarios[0].run(7);
        let reqs = [
            Request::Hello {
                worker: "w0".into(),
                epoch: 3,
                fingerprint: 0xdeadbeef,
                task_count: 42,
            },
            Request::Claim {
                worker: "w1".into(),
                epoch: 0,
            },
            Request::Heartbeat {
                worker: "w0".into(),
                epoch: 1,
                task: 17,
            },
            Request::Record {
                worker: "w2".into(),
                epoch: 2,
                task: 5,
                outcome,
            },
            Request::Bye {
                worker: "w9".into(),
                epoch: 0,
            },
        ];
        for req in &reqs {
            let line = req.encode();
            let back = Request::decode(&line).unwrap();
            assert_eq!(back.encode(), line, "{line}");
        }
        let resps = [
            Response::Welcome {
                epoch: 1,
                fingerprint: 0xfeed,
                task_count: 9,
                lease_secs: 2.5,
            },
            Response::Lease { task: 3 },
            Response::Wait,
            Response::Done,
            Response::Ok,
            Response::Error {
                msg: "plan mismatch: something went wrong".into(),
            },
        ];
        for resp in &resps {
            let line = resp.encode();
            assert_eq!(&Response::decode(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn garbage_frames_decode_to_typed_errors_not_panics() {
        for junk in [
            "",
            " ",
            "hello",
            "hello w0",
            "hello w0 0 zzzz 4",
            "claim",
            "heartbeat w0 0",
            "record w0 0",
            "record w0 0 3",
            "record w0 0 3 R",
            "record w0 0 3 R not-bits",
            "record w0 0 notanumber R",
            "frobnicate the wire",
            "hello  0 5 4",
            "lease-but-a-request",
            "record w0 0 3 X",
            "record w0 0 3 ok R",
        ] {
            let err = Request::decode(junk).unwrap_err();
            assert!(!err.msg.is_empty(), "`{junk}` must carry a message");
        }
        for junk in [
            "",
            "welcome",
            "welcome 0 zz 3 0",
            "lease",
            "lease x",
            "nope",
        ] {
            assert!(Response::decode(junk).is_err(), "`{junk}` must not parse");
        }
        // Valid-but-suffixed simple responses are rejected too.
        assert!(Response::decode("done extra").is_err());
    }

    #[test]
    fn coordinator_hands_out_every_task_once_and_finishes() {
        let plan = tiny_plan();
        let mut coord = Coordinator::new(0, &plan, CoordConfig::default());
        assert!(matches!(
            coord.handle(&hello("w0", &plan), 0.0),
            Response::Welcome { .. }
        ));
        let mut got = Vec::new();
        for _ in 0..plan.task_count() {
            match coord.handle(&claim("w0"), 0.1) {
                Response::Lease { task } => got.push(task),
                other => panic!("expected lease, got {other:?}"),
            }
        }
        assert_eq!(got, (0..plan.task_count()).collect::<Vec<_>>());
        // Queue drained but leases outstanding: wait, not done.
        assert_eq!(coord.handle(&claim("w0"), 0.2), Response::Wait);
        for &t in &got {
            let outcome = plan.scenarios[plan.tasks()[t].0].run(plan.tasks()[t].1);
            let rec = Request::Record {
                worker: "w0".into(),
                epoch: 0,
                task: t,
                outcome,
            };
            assert_eq!(coord.handle(&rec, 0.3), Response::Ok);
        }
        assert!(coord.finished());
        assert_eq!(coord.handle(&claim("w0"), 0.4), Response::Done);
    }

    #[test]
    fn expired_leases_are_reassigned_and_heartbeats_prevent_expiry() {
        let plan = tiny_plan();
        let mut coord = Coordinator::new(0, &plan, CoordConfig { lease_secs: 5.0 });
        let Response::Lease { task } = coord.handle(&claim("w0"), 0.0) else {
            panic!("no lease");
        };
        // Heartbeats extend: at t=4 extend to 9; t=8 still held.
        let beat = Request::Heartbeat {
            worker: "w0".into(),
            epoch: 0,
            task,
        };
        assert_eq!(coord.handle(&beat, 4.0), Response::Ok);
        // w1 claims at t=8: the heartbeat kept w0's lease alive, so w1
        // gets the *next* task, not w0's.
        let Response::Lease { task: t1 } = coord.handle(&claim("w1"), 8.0) else {
            panic!("no lease for w1");
        };
        assert_ne!(t1, task);
        // Past t=9 with no further heartbeat, w0's lease dies and the
        // task reassigns (w1's own lease is still fresh).
        let Response::Lease { task: t2 } = coord.handle(&claim("w1"), 9.5) else {
            panic!("no reassignment lease");
        };
        // w0's expired task goes to the back of the queue; pending tasks
        // (2, 3, …) come first.
        assert_ne!(t2, task);
        let mut seen = vec![task, t1, t2];
        loop {
            match coord.handle(&claim("w1"), 9.6) {
                Response::Lease { task } => seen.push(task),
                Response::Wait => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        // Now every task is leased, with w0's original task re-granted
        // to w1 at the back.
        assert_eq!(*seen.last().unwrap(), task);
        // A dead worker's heartbeat on the lost lease is refused.
        assert!(matches!(coord.handle(&beat, 9.7), Response::Error { .. }));
    }

    #[test]
    fn first_record_wins_and_duplicates_are_acknowledged() {
        let plan = tiny_plan();
        let mut coord = Coordinator::new(0, &plan, CoordConfig { lease_secs: 1.0 });
        let (si, seed) = plan.tasks()[0];
        let real = plan.scenarios[si].run(seed);
        // A late double-assigned loser with a different real outcome:
        // another seed's run of the same cell.
        let late = plan.scenarios[si].run(seed + 1);
        assert_ne!(encode_outcome(&late), encode_outcome(&real));
        let rec = |outcome: ScenarioOutcome| Request::Record {
            worker: "w0".into(),
            epoch: 0,
            task: 0,
            outcome,
        };
        assert_eq!(coord.handle(&rec(real.clone()), 0.0), Response::Ok);
        // The duplicate (different payload — a late double-assigned
        // loser) is acknowledged but discarded.
        assert_eq!(coord.handle(&rec(late), 0.1), Response::Ok);
        assert_eq!(coord.remaining(), plan.task_count() - 1);
        assert_eq!(encode_outcome(&coord.outcomes[&0]), encode_outcome(&real));
    }

    /// Assembling before every task has an outcome is a bug in the
    /// caller: it panics and names the first uncovered task.
    #[test]
    fn into_results_on_an_unfinished_coordinator_names_the_uncovered_task() {
        let plan = tiny_plan();
        let mut coord = Coordinator::new(0, &plan, CoordConfig::default());
        let (si, seed) = plan.tasks()[0];
        let record = Request::Record {
            worker: "w0".into(),
            epoch: 0,
            task: 0,
            outcome: plan.scenarios[si].run(seed),
        };
        assert_eq!(coord.handle(&record, 0.0), Response::Ok);
        let err =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| coord.into_results(&plan)))
                .expect_err("an unfinished coordinator cannot assemble");
        let msg = err.downcast_ref::<String>().expect("formatted message");
        assert!(msg.contains("task 1 has no recorded outcome"), "{msg}");
    }

    #[test]
    fn epoch_routing_separates_consecutive_sweeps() {
        let plan = tiny_plan();
        let mut coord = Coordinator::new(2, &plan, CoordConfig::default());
        // Stale epoch: control frames are told the sweep is done.
        let mut old = hello("w0", &plan);
        if let Request::Hello { epoch, .. } = &mut old {
            *epoch = 1;
        }
        assert_eq!(coord.handle(&old, 0.0), Response::Done);
        // Future epoch: wait for the next coordinator.
        let mut future = hello("w0", &plan);
        if let Request::Hello { epoch, .. } = &mut future {
            *epoch = 3;
        }
        assert_eq!(coord.handle(&future, 0.0), Response::Wait);
        // A stale record is acknowledged (and discarded).
        let rec = Request::Record {
            worker: "w0".into(),
            epoch: 1,
            task: 0,
            outcome: plan.scenarios[0].run(42),
        };
        assert_eq!(coord.handle(&rec, 0.0), Response::Ok);
        assert_eq!(coord.remaining(), plan.task_count());
    }

    #[test]
    fn hello_validates_the_plan_and_counts_reconnects() {
        let plan = tiny_plan();
        let obs = Arc::new(SweepObs::new());
        let mut coord =
            Coordinator::new(0, &plan, CoordConfig::default()).with_obs(Arc::clone(&obs));
        assert!(matches!(
            coord.handle(&hello("w0", &plan), 0.0),
            Response::Welcome { .. }
        ));
        assert_eq!(obs.registry().counter("coord.worker_reconnects"), 0);
        // Same worker helloing again = a reconnect.
        assert!(matches!(
            coord.handle(&hello("w0", &plan), 1.0),
            Response::Welcome { .. }
        ));
        assert_eq!(obs.registry().counter("coord.worker_reconnects"), 1);
        // A different plan is refused with a typed message.
        let bad = Request::Hello {
            worker: "w1".into(),
            epoch: 0,
            fingerprint: 0x1234,
            task_count: plan.task_count(),
        };
        match coord.handle(&bad, 2.0) {
            Response::Error { msg } => assert!(msg.contains("plan mismatch"), "{msg}"),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn coordinated_sweep_merges_bit_identical_to_direct_run() {
        let plan = tiny_plan();
        let direct = SweepExecutor::parallel(3).run(&plan);

        let coord = Arc::new(Mutex::new(Coordinator::new(
            0,
            &plan,
            CoordConfig { lease_secs: 30.0 },
        )));
        let transport = LocalTransport::new(Arc::clone(&coord));
        let sinks: Vec<Arc<Mutex<Vec<crate::CellTiming>>>> =
            (0..2).map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        // Two workers race over the in-process transport.
        let summaries: Vec<WorkerSummary> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|i| {
                    let transport = &transport;
                    let plan = &plan;
                    let sink = Arc::clone(&sinks[i]);
                    scope.spawn(move || {
                        let executor = SweepExecutor::serial().with_timings(sink);
                        run_worker(
                            plan,
                            0,
                            &executor,
                            transport,
                            &WorkerConfig::new(&format!("w{i}")),
                        )
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let executed: usize = summaries.iter().map(|s| s.tasks_executed).sum();
        assert_eq!(executed, plan.task_count());
        // Every lease went through the executor's timings sink: one own
        // row per task across the two workers.
        let own_rows: usize = sinks
            .iter()
            .map(|s| {
                relock(s)
                    .iter()
                    .filter(|c| !c.bucket.starts_with("ref/"))
                    .count()
            })
            .sum();
        assert_eq!(own_rows, plan.task_count());

        drop(transport);
        let coord = Arc::into_inner(coord).unwrap().into_inner().unwrap();
        assert!(coord.finished());
        let assembled = coord.into_results(&plan);
        assert_eq!(outcome_bits(&direct), outcome_bits(&assembled));
    }

    #[test]
    fn coordinated_sweep_survives_a_faulty_wire_bit_identically() {
        let plan = tiny_plan();
        let direct = SweepExecutor::parallel(3).run(&plan);

        let coord = Arc::new(Mutex::new(Coordinator::new(
            0,
            &plan,
            // Short leases so injected delays/drops can actually expire
            // one mid-test.
            CoordConfig { lease_secs: 0.5 },
        )));
        let transport = FaultyTransport::new(
            LocalTransport::new(Arc::clone(&coord)),
            WireFaultInjector::chaos(1234),
        );
        let mut config = WorkerConfig::new("w0");
        config.backoff_base_secs = 0.005;
        config.max_retries = 64;
        config.poll_secs = 0.005;
        let executor = SweepExecutor::serial();
        let summary = run_worker(&plan, 0, &executor, &transport, &config).unwrap();
        assert!(summary.tasks_executed >= plan.task_count());
        assert!(transport.frames() > 0);

        drop(transport);
        let coord = Arc::into_inner(coord).unwrap().into_inner().unwrap();
        let assembled = coord.into_results(&plan);
        assert_eq!(outcome_bits(&direct), outcome_bits(&assembled));
    }

    #[test]
    fn truncate_heavy_wire_still_converges_bit_identically() {
        // A third of all frames cut in half: every truncated request
        // earns an `error bad request` reply, which the worker must
        // treat as a transport fault (resend) — not a fatal protocol
        // error. Regression for the worker aborting on a truncated
        // `record` frame.
        let plan = tiny_plan();
        let direct = SweepExecutor::parallel(3).run(&plan);

        let coord = Arc::new(Mutex::new(Coordinator::new(
            0,
            &plan,
            CoordConfig { lease_secs: 5.0 },
        )));
        let transport = FaultyTransport::new(
            LocalTransport::new(Arc::clone(&coord)),
            WireFaultInjector {
                seed: 99,
                p_drop: 0.0,
                p_dup: 0.0,
                p_delay: 0.0,
                p_truncate: 0.34,
                delay_secs: 0.0,
            },
        );
        let mut config = WorkerConfig::new("w0");
        config.backoff_base_secs = 0.002;
        config.max_retries = 64;
        config.poll_secs = 0.005;
        let executor = SweepExecutor::serial();
        let summary = run_worker(&plan, 0, &executor, &transport, &config).unwrap();
        assert!(summary.tasks_executed >= plan.task_count());

        drop(transport);
        let coord = Arc::into_inner(coord).unwrap().into_inner().unwrap();
        let assembled = coord.into_results(&plan);
        assert_eq!(outcome_bits(&direct), outcome_bits(&assembled));
    }

    #[test]
    fn wire_fault_decisions_are_deterministic() {
        let inj = WireFaultInjector::chaos(42);
        for n in 0..200 {
            assert_eq!(inj.decide(n), inj.decide(n));
        }
        // All four kinds appear somewhere in a long stream.
        let kinds: std::collections::BTreeSet<String> = (0..2000)
            .filter_map(|n| inj.decide(n))
            .map(|f| format!("{f:?}").split('(').next().unwrap().to_string())
            .collect();
        assert_eq!(kinds.len(), 4, "{kinds:?}");
        // And a zero-rate injector never fires.
        let quiet = WireFaultInjector {
            seed: 42,
            p_drop: 0.0,
            p_dup: 0.0,
            p_delay: 0.0,
            p_truncate: 0.0,
            delay_secs: 0.0,
        };
        assert!((0..500).all(|n| quiet.decide(n).is_none()));
    }

    #[test]
    fn unreachable_coordinator_reports_a_typed_degradation_error() {
        struct DeadTransport;
        impl Transport for DeadTransport {
            fn call_raw(&self, _line: &str) -> Result<String, String> {
                Err("connection refused".to_string())
            }
        }
        let plan = tiny_plan();
        let mut config = WorkerConfig::new("w0");
        config.backoff_base_secs = 0.0;
        config.max_retries = 3;
        let executor = SweepExecutor::serial();
        match run_worker(&plan, 0, &executor, &DeadTransport, &config) {
            Err(WorkerError::Unreachable(e)) => assert!(e.contains("refused"), "{e}"),
            other => panic!("expected Unreachable, got {other:?}"),
        }
    }

    /// A worker whose leased cell panics aborts with the executor's
    /// message instead of hanging: the heartbeat thread stops when the
    /// task unwinds, so the scope around it can join, and the task stays
    /// unrecorded. Run on a helper thread so a regression fails the test
    /// instead of hanging it.
    #[test]
    fn worker_whose_leased_cell_panics_aborts_instead_of_hanging() {
        let mut plan = tiny_plan();
        plan.scenarios[0].rc.high_fraction = 2.0;
        let tasks = plan.task_count();
        let coord = Arc::new(Mutex::new(Coordinator::new(
            0,
            &plan,
            CoordConfig::default(),
        )));
        let transport = LocalTransport::new(Arc::clone(&coord));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let executor = SweepExecutor::serial();
                run_worker(&plan, 0, &executor, &transport, &WorkerConfig::new("w0")).is_ok()
            }));
            let _ = tx.send(result.map_err(|e| e.downcast::<String>().map(|m| *m)));
        });
        let result = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the worker returns within 60 s");
        let msg = result
            .expect_err("the failed cell aborts the worker")
            .expect("the panic carries a message");
        assert!(msg.contains("sweep task 0 failed: panicked: "), "{msg}");
        assert!(msg.contains("(0.0..=1.0).contains(&f)"), "{msg}");
        assert_eq!(relock(&coord).remaining(), tasks, "nothing was recorded");
    }

    /// A worker and a coordinator talking over real sockets: once over a
    /// clean wire, once over a hostile one (a few percent of frames
    /// dropped, duplicated, delayed or truncated). Both converge to tables
    /// byte-identical to a direct run.
    #[test]
    fn tcp_server_round_trips_a_sweep_end_to_end() {
        let plan = tiny_plan();
        let direct = SweepExecutor::parallel(3).run(&plan);
        for faulty in [false, true] {
            let server = CoordServer::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap().to_string();
            // A duplicated claim strands a lease the worker never saw, so
            // the hostile wire needs short leases to reassign it quickly.
            let lease_secs = if faulty { 0.5 } else { 30.0 };
            let mut coord = Coordinator::new(0, &plan, CoordConfig { lease_secs });

            let worker = std::thread::spawn({
                let plan = plan.clone();
                move || {
                    let tcp = TcpTransport::new(&addr, Duration::from_secs(2));
                    let mut config = WorkerConfig::new("tcp-w0");
                    let transport: Box<dyn Transport> = if faulty {
                        config.backoff_base_secs = 0.005;
                        config.max_retries = 64;
                        Box::new(FaultyTransport::new(tcp, WireFaultInjector::chaos(1234)))
                    } else {
                        Box::new(tcp)
                    };
                    let executor = SweepExecutor::serial();
                    run_worker(&plan, 0, &executor, transport.as_ref(), &config).unwrap()
                }
            });
            server.serve_sweep(&mut coord, 0.5).unwrap();
            let summary = worker.join().unwrap();
            if faulty {
                assert!(summary.tasks_executed >= plan.task_count());
            } else {
                assert_eq!(summary.tasks_executed, plan.task_count());
            }
            let assembled = coord.into_results(&plan);
            assert_eq!(
                outcome_bits(&direct),
                outcome_bits(&assembled),
                "faulty={faulty}"
            );
        }
    }
}
