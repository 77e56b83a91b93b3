//! The end-to-end attestation protocol of Fig. 2.
//!
//! ```text
//!  Verifier V                                Prover P
//!     │      id_S, i, N  (challenge)            │
//!     │ ────────────────────────────────────▶   │  executes S(i, I) under LO-FAT
//!     │                                         │  P = (A, L), R = sign(P ‖ N; sk)
//!     │      P, R        (report)               │
//!     │ ◀────────────────────────────────────   │
//!     │  versig(R; pk), ver(P, CFG(S)|i)        │
//! ```
//!
//! [`run_attestation`] drives one round trip between an in-process verifier and
//! prover; the examples use it as the one-call entry point.
//!
//! Since the sans-I/O redesign this is a thin adapter over the session layer:
//! it opens a [`crate::session::VerifierSession`], moves the challenge and the
//! evidence through the [`crate::wire`] byte codec (so the in-process path
//! exercises exactly the bytes a remote deployment would), and maps the
//! session outcome back to the classic `Result` shape — acceptance returns the
//! [`ProtocolOutcome`], rejection returns [`LofatError::Rejected`] with the
//! same [`crate::verifier::RejectionReason`]s as before.  Multi-session and
//! remote deployments should use [`crate::session`] /
//! [`crate::service::VerifierService`] directly; high-throughput deployments
//! additionally shard the service ([`crate::service::ServiceConfig::shards`])
//! and drain verification through a [`crate::pool::ParallelVerifier`] worker
//! pool — both are proven verdict-equivalent to this single-threaded path by
//! `tests/e13_concurrent_service.rs`.

use crate::error::LofatError;
use crate::prover::{Adversary, NoAdversary, Prover, ProverRun};
use crate::session::{ProverSession, SessionDecision, SessionError};
use crate::verifier::{Challenge, Verdict, Verifier};
use crate::wire::{Envelope, SessionId};

/// Everything produced by one protocol round trip.
#[derive(Debug, Clone)]
pub struct ProtocolOutcome {
    /// The challenge the verifier issued.
    pub challenge: Challenge,
    /// The prover's run (report + execution results).
    pub prover_run: ProverRun,
    /// The verifier's verdict (present only when the report was accepted).
    pub verdict: Verdict,
}

/// Runs one attestation round trip with an honest prover.
///
/// # Errors
///
/// Propagates prover execution errors and verification rejections.
///
/// # Example
///
/// ```
/// use lofat::protocol::run_attestation;
/// use lofat::{Prover, Verifier};
/// use lofat_crypto::DeviceKey;
/// use lofat_rv32::asm::assemble;
///
/// let program = assemble(
///     ".text\nmain:\n    li t0, 3\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ecall\n",
/// )?;
/// let key = DeviceKey::from_seed("example");
/// let mut prover = Prover::new(program.clone(), "demo", key.clone());
/// let mut verifier = Verifier::new(program, "demo", key.verification_key())?;
/// let outcome = run_attestation(&mut verifier, &mut prover, vec![])?;
/// assert_eq!(outcome.prover_run.report.metadata.loop_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_attestation(
    verifier: &mut Verifier,
    prover: &mut Prover,
    input: Vec<u32>,
) -> Result<ProtocolOutcome, LofatError> {
    run_attestation_with_adversary(verifier, prover, input, &mut NoAdversary)
}

/// Runs one attestation round trip while `adversary` corrupts the prover's data
/// memory during execution (the report is still produced and verified; a detected
/// attack surfaces as [`LofatError::Rejected`]).
///
/// # Errors
///
/// Propagates prover execution errors and verification rejections.
pub fn run_attestation_with_adversary<A: Adversary + ?Sized>(
    verifier: &mut Verifier,
    prover: &mut Prover,
    input: Vec<u32>,
    adversary: &mut A,
) -> Result<ProtocolOutcome, LofatError> {
    // One in-process session with no deadline; the messages still travel
    // through the full wire codec so this path is bit-for-bit the remote one.
    let mut session = verifier.begin_session(SessionId(1), input, u64::MAX);
    let challenge = session.challenge().clone();
    let challenge_bytes = session.challenge_envelope().encode()?;
    let challenge_envelope = Envelope::decode(&challenge_bytes)?;

    let (evidence_envelope, prover_run) = ProverSession::new(prover)
        .respond_with_adversary(&challenge_envelope, adversary)
        .map_err(|e| match e {
            // The session-layer prover refuses mismatched programs up front;
            // legacy `run_attestation` let the verifier reject the report, so
            // restore that error shape here (note the swapped perspective:
            // the verifier expected its own id and found the prover's).
            LofatError::Session(SessionError::ProgramMismatch { expected, found }) => {
                LofatError::Rejected(crate::verifier::RejectionReason::ProgramIdMismatch {
                    expected: found,
                    found: expected,
                })
            }
            other => other,
        })?;
    let evidence_bytes = evidence_envelope.encode()?;
    let evidence = Envelope::decode(&evidence_bytes)?;

    let outcome = session.process_evidence(&evidence, verifier, 0).map_err(|e| match e {
        // A golden-replay failure is the verifier's own error, same as before
        // the redesign.
        SessionError::Verifier(inner) => *inner,
        other => LofatError::Session(other),
    })?;
    match outcome.decision {
        SessionDecision::Accepted(verdict) => {
            Ok(ProtocolOutcome { challenge, prover_run, verdict })
        }
        SessionDecision::Rejected(reason) => Err(LofatError::Rejected(reason)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat_crypto::DeviceKey;
    use lofat_rv32::asm::assemble;

    const PROGRAM: &str = r#"
        .data
        input:
            .space 16
        .text
        main:
            la   t0, input
            lw   t1, 0(t0)
            li   a0, 0
            beqz t1, done
        loop:
            addi a0, a0, 2
            addi t1, t1, -1
            bnez t1, loop
        done:
            ecall
    "#;

    fn setup() -> (Verifier, Prover) {
        let program = assemble(PROGRAM).unwrap();
        let key = DeviceKey::from_seed("protocol");
        let prover = Prover::new(program.clone(), "double", key.clone());
        let verifier = Verifier::new(program, "double", key.verification_key()).unwrap();
        (verifier, prover)
    }

    #[test]
    fn honest_round_trip_succeeds() {
        let (mut verifier, mut prover) = setup();
        let outcome = run_attestation(&mut verifier, &mut prover, vec![5]).unwrap();
        assert_eq!(outcome.prover_run.exit.register_a0, 10);
        assert_eq!(outcome.verdict.replay_exit.register_a0, 10);
    }

    #[test]
    fn each_round_uses_a_fresh_nonce() {
        let (mut verifier, mut prover) = setup();
        let first = run_attestation(&mut verifier, &mut prover, vec![2]).unwrap();
        let second = run_attestation(&mut verifier, &mut prover, vec![2]).unwrap();
        assert_ne!(first.challenge.nonce, second.challenge.nonce);
    }

    #[test]
    fn mismatched_program_ids_keep_the_legacy_rejection_shape() {
        let program = assemble(PROGRAM).unwrap();
        let key = DeviceKey::from_seed("protocol");
        let mut prover = Prover::new(program.clone(), "prover-prog", key.clone());
        let mut verifier = Verifier::new(program, "verifier-prog", key.verification_key()).unwrap();
        let err = run_attestation(&mut verifier, &mut prover, vec![1]).unwrap_err();
        assert!(matches!(
            err,
            LofatError::Rejected(crate::verifier::RejectionReason::ProgramIdMismatch {
                ref expected,
                ref found,
            }) if expected == "verifier-prog" && found == "prover-prog"
        ));
    }

    #[test]
    fn adversarial_round_trip_is_rejected() {
        let (mut verifier, mut prover) = setup();
        let input_addr = prover.program().symbol("input").unwrap();
        // The adversary boosts the iteration count in memory (attack class ②).
        let mut attack = move |cpu: &mut lofat_rv32::Cpu, retired: u64| {
            if retired == 1 {
                cpu.poke_bytes(input_addr, &9u32.to_le_bytes()).unwrap();
            }
        };
        let err = run_attestation_with_adversary(&mut verifier, &mut prover, vec![2], &mut attack)
            .unwrap_err();
        assert!(matches!(err, LofatError::Rejected(_)));
    }
}
