//! Property tests for the coordinator wire codec.
//!
//! The coordinator reads lines from a TCP socket, so its decoders face
//! genuinely untrusted bytes: truncated frames (a dropped connection can
//! cut a line anywhere), corrupted payloads, or arbitrary garbage from a
//! stray client. The contract these properties pin:
//!
//! * every frame the encoder can produce decodes back bit-exactly
//!   (canonical re-encode equality, covering each field);
//! * malformed input of any shape yields a typed `DecodeError` carrying
//!   the offending text — **never** a panic;
//! * [`serve_line`] answers every possible input line, valid or not,
//!   with a well-formed response line.

use proptest::prelude::*;
use std::sync::OnceLock;
use xsched_core::DecodeError;
use xsched_core::{
    serve_line, CoordConfig, Coordinator, Request, Response, RunConfig, Scenario, ScenarioOutcome,
    SweepPlan, TaskError, TaskOutcome,
};
use xsched_workload::setup;

/// One real simulated outcome per index (memoized — the codec property
/// needs genuine payload shapes, not thousands of distinct simulations).
fn real_outcome(pick: u64) -> ScenarioOutcome {
    static CACHE: OnceLock<Vec<ScenarioOutcome>> = OnceLock::new();
    let pool = CACHE.get_or_init(|| {
        let rc = RunConfig {
            warmup_txns: 10,
            measured_txns: 60,
            ..Default::default()
        };
        (0..4)
            .map(|i| Scenario::tput("p", setup(1), 1 + i, rc.clone()).run(42 + u64::from(i)))
            .collect()
    });
    pool[(pick % pool.len() as u64) as usize].clone()
}

/// Map raw byte draws onto a worker name the line grammar allows: one
/// non-empty token without whitespace.
fn worker_from(draws: &[u8]) -> String {
    const CHARS: &[u8] = b"abcXYZ019_.:-";
    let name: String = draws
        .iter()
        .map(|&b| CHARS[usize::from(b) % CHARS.len()] as char)
        .collect();
    if name.is_empty() {
        "w".to_string()
    } else {
        name
    }
}

/// Map raw draws onto a task outcome: real simulated successes and typed
/// failures with arbitrary printable detail text (exercising escaping).
fn outcome_from(kind: u8, pick: u64, detail_draws: &[u8]) -> TaskOutcome {
    let detail: String = detail_draws
        .iter()
        .filter_map(|&b| {
            // Printable ASCII plus the escapes the codec must handle.
            let c = (b % 0x60) + 0x20;
            char::from_u32(u32::from(c))
        })
        .collect();
    match kind % 4 {
        0 | 1 => TaskOutcome::Ok(real_outcome(pick)),
        _ => TaskOutcome::Failed(TaskError(detail)),
    }
}

/// Map raw draws onto a request frame, covering every variant.
fn request_from(kind: u8, worker_draws: &[u8], a: u64, b: u64, detail_draws: &[u8]) -> Request {
    let worker = worker_from(worker_draws);
    let epoch = a >> 32;
    match kind % 5 {
        0 => Request::Hello {
            worker,
            epoch,
            fingerprint: b,
            task_count: (a % 10_000) as usize,
        },
        1 => Request::Claim { worker, epoch },
        2 => Request::Heartbeat {
            worker,
            epoch,
            task: (b % 10_000) as usize,
        },
        3 => Request::Record {
            worker,
            epoch,
            task: (b % 10_000) as usize,
            outcome: outcome_from(kind.wrapping_add(a as u8), b, detail_draws),
        },
        _ => Request::Bye { worker, epoch },
    }
}

/// Map raw draws onto a response frame, covering every variant.
fn response_from(kind: u8, a: u64, b: u64, msg_draws: &[u8]) -> Response {
    match kind % 6 {
        0 => Response::Welcome {
            epoch: a >> 32,
            fingerprint: b,
            // Arbitrary bit patterns — NaNs and infinities must
            // round-trip too; floats travel as IEEE bits.
            lease_secs: f64::from_bits(a ^ b),
            task_count: (a % 10_000) as usize,
        },
        1 => Response::Lease {
            task: (b % 10_000) as usize,
        },
        2 => Response::Wait,
        3 => Response::Done,
        4 => Response::Ok,
        _ => Response::Error {
            msg: msg_draws
                .iter()
                .filter_map(|&m| char::from_u32(u32::from((m % 0x60) + 0x20)))
                .collect(),
        },
    }
}

/// Arbitrary text from raw draws — decoder fuzz input: ASCII (control
/// characters included) for draws below 0x80, and two-, three- and
/// four-byte characters above it, so a byte cut can land inside one.
fn garbage_from(draws: &[u8]) -> String {
    const WIDE: [char; 4] = ['é', 'ß', '€', '𝄞'];
    draws
        .iter()
        .map(|&b| {
            if b < 0x80 {
                b as char
            } else {
                WIDE[usize::from(b) % WIDE.len()]
            }
        })
        .collect()
}

/// Cut a string at (or before) byte `cut`, respecting char boundaries.
fn truncate_at(line: &str, cut: usize) -> &str {
    let mut cut = cut.min(line.len());
    while cut > 0 && !line.is_char_boundary(cut) {
        cut -= 1;
    }
    &line[..cut]
}

/// A coordinator with a couple of leases outstanding, for serve_line
/// fuzzing against live state.
fn busy_coordinator() -> Coordinator {
    let rc = RunConfig {
        warmup_txns: 10,
        measured_txns: 60,
        ..Default::default()
    };
    let plan = SweepPlan::new(vec![Scenario::tput("r", setup(1), 1, rc)]).replicated(4, 7);
    let mut coord = Coordinator::new(0, &plan, CoordConfig { lease_secs: 5.0 });
    let claim = Request::Claim {
        worker: "w0".into(),
        epoch: 0,
    };
    coord.handle(&claim, 0.0);
    coord.handle(&claim, 0.1);
    coord
}

fn assert_typed(err: &DecodeError, input: &str) {
    assert!(
        !err.msg.is_empty(),
        "error for `{input}` must carry a message"
    );
    assert!(
        !err.to_string().is_empty(),
        "error for `{input}` must render"
    );
}

proptest! {
    /// Every request frame round-trips bit-exactly: decode(encode(r))
    /// re-encodes to the identical line (the canonical form covers every
    /// field, including float bit patterns inside outcome payloads).
    #[test]
    fn request_frames_round_trip(
        kind in 0u8..5,
        worker in collection::vec(0u8..255, 1..24),
        a in any::<u64>(),
        b in any::<u64>(),
        detail in collection::vec(0u8..255, 0..40),
    ) {
        let req = request_from(kind, &worker, a, b, &detail);
        let line = req.encode();
        let back = Request::decode(&line).expect("encoded frame must decode");
        prop_assert_eq!(back.encode(), line);
    }

    /// Every response frame round-trips bit-exactly.
    #[test]
    fn response_frames_round_trip(
        kind in 0u8..6,
        a in any::<u64>(),
        b in any::<u64>(),
        msg in collection::vec(0u8..255, 0..60),
    ) {
        let resp = response_from(kind, a, b, &msg);
        let line = resp.encode();
        let back = Response::decode(&line).expect("encoded frame must decode");
        prop_assert_eq!(back.encode(), line);
    }

    /// Truncating a valid request at any byte never panics: the decoder
    /// returns either a typed error or a (shorter) valid frame — e.g.
    /// `claim w0 10` cut to `claim w0 1` still parses, by design.
    #[test]
    fn truncated_requests_never_panic(
        kind in 0u8..5,
        worker in collection::vec(0u8..255, 1..24),
        a in any::<u64>(),
        b in any::<u64>(),
        cut in 0usize..240,
    ) {
        let line = request_from(kind, &worker, a, b, b"detail text").encode();
        let cut_line = truncate_at(&line, cut);
        match Request::decode(cut_line) {
            Ok(shorter) => drop(shorter.encode()),
            Err(e) => assert_typed(&e, cut_line),
        }
    }

    /// Truncated responses never panic either (the worker-side decoder
    /// faces a coordinator dying mid-write).
    #[test]
    fn truncated_responses_never_panic(
        kind in 0u8..6,
        a in any::<u64>(),
        b in any::<u64>(),
        cut in 0usize..120,
    ) {
        let line = response_from(kind, a, b, b"message text").encode();
        let cut_line = truncate_at(&line, cut);
        match Response::decode(cut_line) {
            Ok(shorter) => drop(shorter.encode()),
            Err(e) => assert_typed(&e, cut_line),
        }
    }

    /// Arbitrary garbage (control and multi-byte characters included)
    /// decodes to a typed error (or, for the rare string that happens to
    /// be a frame, a valid one) — never a panic, on either decoder.
    #[test]
    fn garbage_decodes_to_typed_errors(draws in collection::vec(0u8..255, 0..120)) {
        let junk = garbage_from(&draws);
        match Request::decode(&junk) {
            Ok(req) => drop(req.encode()),
            Err(e) => assert_typed(&e, &junk),
        }
        match Response::decode(&junk) {
            Ok(resp) => drop(resp.encode()),
            Err(e) => assert_typed(&e, &junk),
        }
    }

    /// Corrupting one byte of a valid frame never panics the decoder.
    #[test]
    fn single_byte_corruption_never_panics(
        kind in 0u8..5,
        worker in collection::vec(0u8..255, 1..24),
        a in any::<u64>(),
        b in any::<u64>(),
        pos in any::<u64>(),
        byte in 0x20u8..0x7f,
    ) {
        let mut line = request_from(kind, &worker, a, b, b"x y z").encode().into_bytes();
        let pos = (pos % line.len() as u64) as usize;
        line[pos] = byte;
        let corrupted = String::from_utf8(line).expect("ascii stays ascii");
        match Request::decode(&corrupted) {
            Ok(r) => drop(r.encode()),
            Err(e) => assert_typed(&e, &corrupted),
        }
    }

    /// The server loop answers *every* line — valid frames, truncations,
    /// garbage — with a well-formed response that decodes. This is the
    /// property that makes the wire-fault injector's truncate mode safe.
    #[test]
    fn serve_line_always_answers_well_formed(
        draws in collection::vec(0u8..255, 0..120),
        now in 0.0f64..100.0,
    ) {
        let junk = garbage_from(&draws);
        let mut coord = busy_coordinator();
        let answer = serve_line(&mut coord, &junk, now);
        prop_assert!(
            Response::decode(&answer).is_ok(),
            "serve_line answered unparseable `{}` to `{}`", answer, junk
        );
    }
}
