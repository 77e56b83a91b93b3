//! Set-up and the closed-loop session runners.
//!
//! In-process workloads run one session at a time through the sans-I/O path:
//! `open_session` -> `challenge_envelope` -> encode -> `Envelope::decode` ->
//! `ProverSession::respond` -> encode -> `VerifierService::handle_bytes` ->
//! decode (the middle three calls are `ProverSession::handle_bytes`, split so
//! the run's engine statistics stay visible).  The networked workload keeps a
//! window of sessions pipelined on one loopback connection to an
//! `EventLoopServer`.
//!
//! Phases run whole passes of the schedule, so every pass does the same
//! simulated work and its deterministic counts must repeat exactly.

use crate::reference;
use crate::schedule::{Entry, Kind, Schedule, REPLAY_DEPTH};
use crate::trace::{Layer, Tracer};
use lofat::pool::{ParallelVerifier, PoolConfig};
use lofat::service::{ServiceConfig, ServiceStats, VerifierService};
use lofat::wire::{code, Envelope, Message, SessionId, SessionRequestMsg, VerdictMsg};
use lofat::{AttestationReport, EngineConfig, LofatEngine, MeasurementDatabase, Prover, Verifier};
use lofat_crypto::sign::HmacVerifier;
use lofat_crypto::{DeviceKey, HmacSigner, Nonce, Signature, SignatureVerifier, Signer};
use lofat_net::{EventLoopServer, ProverClient, ServerConfig, DEFAULT_MAX_SESSIONS_PER_CONNECTION};
use lofat_rv32::Program;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions of the schedule replayed in-process for the verifier-side layers.
const RECORDED_WINDOW: usize = 1024;

/// Everything set-up builds: program, keys, measurement database and the
/// service (in-process) or server (networked).
pub struct World {
    program: Program,
    program_id: &'static str,
    key: DeviceKey,
    prover: Prover,
    db: MeasurementDatabase,
    target: Target,
}

enum Target {
    InProcess(Box<VerifierService>),
    Server(EventLoopServer),
}

impl World {
    /// Assembles the program, derives the keys, golden-replays the
    /// measurement database over the schedule's inputs and starts the
    /// service or server.
    pub fn setup(schedule: &Schedule) -> Result<Self, String> {
        let program_id = schedule.workload.program_name();
        let workload = lofat_workloads::catalog::by_name(program_id)
            .ok_or_else(|| format!("`{program_id}` is not in the catalogue"))?;
        let program = workload.program().map_err(|e| format!("assemble {program_id}: {e}"))?;
        let key = DeviceKey::from_seed("perfbench-device");
        let prover = Prover::new(program.clone(), program_id, key.clone());
        let verifier = Verifier::new(program.clone(), program_id, key.verification_key())
            .map_err(|e| format!("verifier: {e}"))?;
        let db = MeasurementDatabase::build(
            &verifier,
            EngineConfig::default(),
            schedule.inputs.iter().cloned(),
        )
        .map_err(|e| format!("measurement database: {e}"))?;
        let service =
            VerifierService::new(db.clone(), key.verification_key(), ServiceConfig::default());
        let target = if schedule.workload.networked() {
            let server =
                EventLoopServer::bind("127.0.0.1:0", Arc::new(service), ServerConfig::default())
                    .map_err(|e| format!("bind loopback server: {e}"))?;
            Target::Server(server)
        } else {
            Target::InProcess(Box::new(service))
        };
        Ok(Self { program, program_id, key, prover, db, target })
    }

    /// The service under test.
    pub fn service(&self) -> &VerifierService {
        match &self.target {
            Target::InProcess(service) => service,
            Target::Server(server) => server.service(),
        }
    }

    /// Stops the server, if any, and waits for its threads.
    pub fn shutdown(self) {
        if let Target::Server(server) = self.target {
            server.shutdown();
        }
    }

    fn fresh_service(&self) -> VerifierService {
        VerifierService::new(self.db.clone(), self.key.verification_key(), ServiceConfig::default())
    }
}

/// Deterministic counts of one pass: identical for every pass of a seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassCounts {
    /// Simulated RV32 cycles of every attested run.
    pub sim_cycles: u64,
    /// Retired instructions of every attested run.
    pub instructions: u64,
    /// `EngineStats::processor_overhead_cycles` summed; LO-FAT's claim is 0.
    pub stall_cycles: u64,
    /// Control-flow events the engine saw.
    pub branch_events: u64,
    /// Branch pairs hashed.
    pub pairs_hashed: u64,
    /// Branch pairs folded into loop counters instead of hashed.
    pub pairs_compressed: u64,
    /// Loops the monitor entered.
    pub loops_entered: u64,
    /// Deepest loop nesting seen.
    pub max_nesting: u64,
    /// Simulated engine-internal latency cycles (hidden from the core).
    pub internal_latency_cycles: u64,
    /// Verdicts by wire code.
    pub codes: BTreeMap<u16, u64>,
}

impl PassCounts {
    fn add_run(&mut self, run: &lofat::ProverRun) {
        let s = &run.stats;
        self.sim_cycles += run.exit.cycles;
        self.instructions += run.exit.instructions;
        self.stall_cycles += s.processor_overhead_cycles;
        self.branch_events += s.branch_events;
        self.pairs_hashed += s.pairs_hashed;
        self.pairs_compressed += s.pairs_compressed;
        self.loops_entered += s.loops_entered;
        self.max_nesting = self.max_nesting.max(s.max_nesting_observed as u64);
        self.internal_latency_cycles += s.internal_latency_cycles;
    }
}

/// One completed pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host time the pass took (probe work excluded).
    pub time: Duration,
    /// Host-to-reference time factor around the pass (see [`reference`]).
    pub scale: f64,
    /// Sessions of the pass that ended with their expected verdict.
    pub good: u64,
    /// Host latency, in microseconds, of every session of the pass that got
    /// a verdict (`f32` keeps the benchmark's own memory small next to the
    /// library's in `peak_rss_mb`).
    pub latencies: Vec<f32>,
    /// The pass's deterministic counts.
    pub counts: PassCounts,
}

/// Client-side network tallies.
#[derive(Debug, Clone, Default)]
pub struct NetTally {
    /// Summed request -> challenge round trips.
    pub challenge_rtt: Duration,
    /// Challenges received.
    pub challenges: u64,
    /// Summed evidence -> verdict round trips.
    pub verdict_rtt: Duration,
    /// Verdicts received for evidence.
    pub verdicts: u64,
    /// Frame bytes sent and received, length prefixes included.
    pub bytes: u64,
    /// Connections replaced to stay under the per-connection session cap.
    pub reconnects: u64,
}

/// What one phase of closed-loop sessions produced.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Sessions started.
    pub attempted: u64,
    /// Sessions that did not end with their expected verdict.
    pub failed: u64,
    /// Completed passes, in order.
    pub passes: Vec<Pass>,
    /// Span totals (empty unless traced).
    pub tracer: Tracer,
    /// Network tallies (networked workload only).
    pub net: NetTally,
    /// Probe runs whose cycle count differed from the plain run.
    pub probe_cycle_mismatches: u64,
    /// Service books when the phase started and ended.
    pub stats_before: ServiceStats,
    /// See [`Phase::stats_before`].
    pub stats_after: ServiceStats,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Phase {
    /// Host time of the completed passes.
    pub fn elapsed(&self) -> Duration {
        self.passes.iter().map(|p| p.time).sum()
    }

    /// Reference time of the completed passes.
    pub fn reference_elapsed(&self) -> f64 {
        self.passes.iter().map(|p| p.time.as_secs_f64() * p.scale).sum()
    }

    /// Sessions in the completed passes.
    pub fn pass_sessions(&self, pass_len: usize) -> u64 {
        (self.passes.len() * pass_len) as u64
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(message);
        }
    }
}

/// Verifier-side layers measured on the recorded window, per session.
#[derive(Debug, Clone, Default)]
pub struct WindowLayers {
    /// Sessions in the window (a forged one sends two evidence frames).
    pub sessions: u64,
    /// `open_session` + `challenge_envelope`.
    pub open: Duration,
    /// `handle_bytes` on each recorded evidence frame.
    pub verify: Duration,
    /// `MeasurementDatabase::check` on each honest report.
    pub db_check: Duration,
    /// HMAC verification of each signed report payload.
    pub mac_verify: Duration,
    /// `VerdictReply::latency` (enqueue to verdict) through a `ParallelVerifier`.
    pub pool_wait: Duration,
    /// Replies that did not carry the entry's expected code.
    pub wrong_codes: u64,
}

/// Runs sessions for one world and schedule, phase after phase.
pub struct Runner<'s> {
    schedule: &'s Schedule,
    expected: Vec<u32>,
    world: World,
    /// Evidence of the most recently accepted sessions, newest last.
    accepted: VecDeque<Vec<u8>>,
    signer: HmacSigner,
}

impl<'s> Runner<'s> {
    /// A runner for `world`; `expected[i]` is the reference result of
    /// `schedule.inputs[i]`.
    pub fn new(schedule: &'s Schedule, expected: Vec<u32>, world: World) -> Self {
        let signer = HmacSigner::new(world.key.clone());
        Self { schedule, expected, world, accepted: VecDeque::new(), signer }
    }

    /// Ends the run and returns the world.
    pub fn into_world(self) -> World {
        self.world
    }

    /// Runs whole passes until `seconds` of host time have gone by, tracing
    /// when `traced`.  A traced phase follows each pass with a probe pass
    /// over the same entries (its time is excluded from the pass).
    pub fn phase(&mut self, seconds: f64, traced: bool) -> Phase {
        let mut phase = Phase {
            tracer: Tracer::new(traced),
            stats_before: self.world.service().stats(),
            ..Phase::default()
        };
        if self.schedule.workload.networked() {
            self.network_phase(seconds, &mut phase);
        } else {
            self.in_process_phase(seconds, &mut phase);
        }
        phase.stats_after = self.world.service().stats();
        phase
    }

    fn in_process_phase(&mut self, seconds: f64, phase: &mut Phase) {
        let schedule = self.schedule;
        let start = Instant::now();
        let mut before = reference::measure();
        loop {
            let pass_start = Instant::now();
            let mut pass = Pass::default();
            for entry in &schedule.entries {
                phase.attempted += 1;
                let opened = Instant::now();
                match self.in_process_session(entry, &mut phase.tracer) {
                    Ok((verdict, run)) => {
                        let latency = opened.elapsed();
                        phase.tracer.add(Layer::Session, latency);
                        pass.latencies.push(micros(latency));
                        pass.counts.add_run(&run);
                        if self.judge(entry, &verdict, &mut pass.counts, phase) {
                            pass.good += 1;
                        }
                    }
                    Err(e) => phase.fail(e),
                }
            }
            pass.time = pass_start.elapsed();
            phase.passes.push(pass);
            self.between_passes(phase, &mut before);
            if start.elapsed().as_secs_f64() >= seconds {
                return;
            }
        }
    }

    /// Times the reference kernel after a pass to scale it, and runs the
    /// probe pass of a traced phase.  Nothing is in flight meanwhile.
    fn between_passes(&mut self, phase: &mut Phase, before: &mut Duration) {
        let after = reference::measure();
        if let Some(pass) = phase.passes.last_mut() {
            pass.scale = reference::scale((*before + after) / 2);
        }
        *before = after;
        if phase.tracer.enabled() {
            self.probe_pass(phase);
            *before = reference::measure();
        }
    }

    fn in_process_session(
        &mut self,
        entry: &Entry,
        tracer: &mut Tracer,
    ) -> Result<(VerdictMsg, lofat::ProverRun), String> {
        let Target::InProcess(service) = &self.world.target else {
            unreachable!("in-process phase needs an in-process service")
        };
        let input = self.schedule.input(entry);
        let challenge = tracer
            .span(Layer::ServiceOpen, || {
                let id = service.open_session(input.to_vec())?;
                service.challenge_envelope(id)
            })
            .map_err(|e| format!("open: {e}"))?;
        let bytes =
            tracer.span(Layer::WireEncode, || challenge.encode()).map_err(|e| e.to_string())?;
        let challenge = tracer
            .span(Layer::WireDecode, || Envelope::decode(&bytes))
            .map_err(|e| e.to_string())?;
        let prover = &mut self.world.prover;
        let (evidence, run) = tracer
            .span(Layer::ProverRespond, || prover.session().respond(&challenge))
            .map_err(|e| format!("prover: {e}"))?;
        let evidence =
            tracer.span(Layer::WireEncode, || evidence.encode()).map_err(|e| e.to_string())?;
        let reply = tracer
            .span(Layer::ServiceVerify, || service.handle_bytes(&evidence))
            .map_err(|e| format!("verify: {e}"))?;
        let reply = tracer
            .span(Layer::WireDecode, || Envelope::decode(&reply))
            .map_err(|e| e.to_string())?;
        match reply.message {
            Message::Verdict(verdict) => Ok((verdict, run)),
            other => Err(format!("expected a verdict, got {}", other.kind())),
        }
    }

    /// Books a verdict and checks it against the entry's expectation.
    fn judge(
        &self,
        entry: &Entry,
        verdict: &VerdictMsg,
        counts: &mut PassCounts,
        phase: &mut Phase,
    ) -> bool {
        *counts.codes.entry(verdict.reason_code).or_insert(0) += 1;
        match self.check(entry, verdict) {
            Ok(()) => true,
            Err(e) => {
                phase.fail(e);
                false
            }
        }
    }

    fn check(&self, entry: &Entry, verdict: &VerdictMsg) -> Result<(), String> {
        match entry.kind {
            Kind::Honest => {
                let want = self.expected[entry.input as usize];
                if verdict.accepted && verdict.expected_result == Some(want) {
                    Ok(())
                } else {
                    Err(format!(
                        "honest session on {:?}: accepted={} code={} result={:?}, want {want}",
                        self.schedule.input(entry),
                        verdict.accepted,
                        verdict.reason_code,
                        verdict.expected_result,
                    ))
                }
            }
            Kind::Forged | Kind::Replayed { .. } => {
                let want = expected_code(entry.kind);
                if !verdict.accepted && verdict.reason_code == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{:?} session: accepted={} code={}, want code {want}",
                        entry.kind, verdict.accepted, verdict.reason_code
                    ))
                }
            }
        }
    }

    /// Probe pass: the prover's layers, one public call each, on every
    /// prover-running entry of the pass.
    fn probe_pass(&mut self, phase: &mut Phase) {
        let schedule = self.schedule;
        let program = &self.world.program;
        for entry in &schedule.entries {
            if matches!(entry.kind, Kind::Replayed { .. }) {
                continue;
            }
            let input = schedule.input(entry);
            let tracer = &mut phase.tracer;
            let plain = tracer.span(Layer::Rv32Exec, || lofat_bench::run_plain(program, input));
            let (mut engine, exit) = tracer.span(Layer::EngineAttested, || {
                let mut engine = LofatEngine::for_program(program, EngineConfig::default())
                    .expect("engine for a catalogue program");
                let mut cpu = lofat_bench::cpu_with_input(program, input);
                let exit =
                    cpu.run_traced(lofat_bench::MAX_CYCLES, &mut engine).expect("attested run");
                (engine, exit)
            });
            let measurement =
                tracer.span(Layer::EngineFinalize, || engine.finalize().expect("finalize"));
            let signer = &mut self.signer;
            tracer.span(Layer::CryptoSign, || {
                let payload = AttestationReport::signed_bytes(
                    self.world.program_id,
                    &measurement.authenticator,
                    &measurement.metadata,
                    &Nonce::from_counter(1),
                );
                signer.sign(&payload).expect("sign")
            });
            // Zero stall cycles means the engine leaves the core's cycle
            // count exactly as it is without attestation.
            if plain.cycles != exit.cycles {
                phase.probe_cycle_mismatches += 1;
            }
        }
    }

    fn network_phase(&mut self, seconds: f64, phase: &mut Phase) {
        let Target::Server(server) = &self.world.target else {
            unreachable!("network phase needs a server")
        };
        let addr = server.local_addr();
        let mut net = Net {
            addr,
            conn: None,
            evidence_frames: 0,
            queue: VecDeque::new(),
            pass: Pass::default(),
        };
        let window = self.schedule.workload.window();
        let start = Instant::now();
        let mut before = reference::measure();
        loop {
            let pass_start = Instant::now();
            for &entry in &self.schedule.entries {
                while net.queue.len() >= window {
                    self.receive(&mut net, phase);
                }
                if net.evidence_frames + net.queue.len() >= DEFAULT_MAX_SESSIONS_PER_CONNECTION {
                    // The server caps the distinct session ids one connection
                    // may address; honour it by moving to a new connection.
                    self.drain(&mut net, phase);
                    net.conn = None;
                    phase.net.reconnects += 1;
                }
                self.start(&mut net, phase, entry);
            }
            // Drain so the pass ends before the reference (and probes) run.
            self.drain(&mut net, phase);
            let pass = std::mem::take(&mut net.pass);
            phase.passes.push(Pass { time: pass_start.elapsed(), ..pass });
            self.between_passes(phase, &mut before);
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
    }

    fn drain(&mut self, net: &mut Net, phase: &mut Phase) {
        while !net.queue.is_empty() {
            self.receive(net, phase);
        }
    }

    /// Sends the first frame of `entry`.
    fn start(&mut self, net: &mut Net, phase: &mut Phase, entry: Entry) {
        phase.attempted += 1;
        let opened = Instant::now();
        let (frame, stage) = match entry.kind {
            Kind::Honest | Kind::Forged => {
                let input = self.schedule.input(&entry);
                let request = phase.tracer.span(Layer::WireEncode, || {
                    Envelope::new(
                        SessionId(0),
                        Message::SessionRequest(SessionRequestMsg {
                            program_id: self.world.program_id.to_string(),
                            input: input.to_vec(),
                        }),
                    )
                    .encode()
                });
                match request {
                    Ok(frame) => (frame, Stage::Challenge),
                    Err(e) => return phase.fail(format!("encode request: {e}")),
                }
            }
            Kind::Replayed { back } => {
                if self.accepted.is_empty() {
                    return phase.fail("no accepted evidence to replay".into());
                }
                let index = self.accepted.len() - 1 - usize::from(back) % self.accepted.len();
                (self.accepted[index].clone(), Stage::Verdict { evidence: None })
            }
        };
        let is_evidence = matches!(stage, Stage::Verdict { .. });
        net.queue.push_back(Flight { entry, opened, sent: Instant::now(), stage });
        if let Err(e) = net.send(&frame, phase) {
            return self.broken(net, phase, format!("send: {e}"));
        }
        if is_evidence {
            net.evidence_frames += 1;
        }
    }

    /// Reads one reply frame and advances the session at the head of the
    /// queue.
    fn receive(&mut self, net: &mut Net, phase: &mut Phase) {
        let frame = match net.recv(phase) {
            Ok(frame) => frame,
            Err(e) => return self.broken(net, phase, format!("receive: {e}")),
        };
        let mut flight = net.queue.pop_front().expect("a reply answers a queued frame");
        let reply = match phase.tracer.span(Layer::WireDecode, || Envelope::decode(&frame)) {
            Ok(reply) => reply,
            Err(e) => return phase.fail(format!("decode reply: {e}")),
        };
        let round_trip = flight.sent.elapsed();
        match (std::mem::replace(&mut flight.stage, Stage::Challenge), reply.message) {
            (Stage::Challenge, Message::Challenge(challenge)) => {
                phase.net.challenge_rtt += round_trip;
                phase.net.challenges += 1;
                let envelope = Envelope::new(reply.session, Message::Challenge(challenge));
                self.answer(net, phase, flight, &envelope);
            }
            (Stage::Verdict { evidence }, Message::Verdict(verdict)) => {
                phase.net.verdict_rtt += round_trip;
                phase.net.verdicts += 1;
                let good = self.judge(&flight.entry, &verdict, &mut net.pass.counts, phase);
                if flight.entry.kind == Kind::Forged {
                    if let (true, Some(genuine)) = (good, evidence) {
                        // The forgery spent nothing: the prover's genuine
                        // answer follows on the same session.
                        let entry = Entry { kind: Kind::Honest, ..flight.entry };
                        let stage = Stage::Verdict { evidence: Some(genuine.clone()) };
                        return self.send_evidence(
                            net,
                            phase,
                            Flight { entry, stage, ..flight },
                            &genuine,
                        );
                    }
                    return;
                }
                let latency = flight.opened.elapsed();
                phase.tracer.add(Layer::Session, latency);
                net.pass.latencies.push(micros(latency));
                if good {
                    net.pass.good += 1;
                }
                if let (Some(evidence), true) = (evidence, verdict.accepted) {
                    if self.accepted.len() == usize::from(REPLAY_DEPTH) {
                        self.accepted.pop_front();
                    }
                    self.accepted.push_back(evidence);
                }
            }
            (_, Message::Verdict(verdict)) => {
                // A refusal where a challenge was due (e.g. `AT_CAPACITY`).
                phase.fail(format!("session request refused with code {}", verdict.reason_code));
            }
            (_, other) => {
                phase.fail(format!("unexpected {} reply", other.kind()));
            }
        }
    }

    /// Attests a received challenge and sends the evidence: forged first
    /// when the entry says so, with the genuine evidence kept to follow it.
    fn answer(&mut self, net: &mut Net, phase: &mut Phase, flight: Flight, challenge: &Envelope) {
        let prover = &mut self.world.prover;
        let (evidence, run) =
            match phase.tracer.span(Layer::ProverRespond, || prover.session().respond(challenge)) {
                Ok(answer) => answer,
                Err(e) => return phase.fail(format!("prover: {e}")),
            };
        net.pass.counts.add_run(&run);
        let encoded = phase.tracer.span(Layer::WireEncode, || {
            let genuine = evidence.encode()?;
            let sent = match flight.entry.kind {
                Kind::Forged => forge(evidence).encode()?,
                _ => genuine.clone(),
            };
            Ok::<_, lofat::WireError>((genuine, sent))
        });
        let (genuine, frame) = match encoded {
            Ok(frames) => frames,
            Err(e) => return phase.fail(format!("encode evidence: {e}")),
        };
        let stage = Stage::Verdict { evidence: Some(genuine) };
        self.send_evidence(net, phase, Flight { stage, ..flight }, &frame);
    }

    fn send_evidence(&self, net: &mut Net, phase: &mut Phase, flight: Flight, frame: &[u8]) {
        net.queue.push_back(Flight { sent: Instant::now(), ..flight });
        if let Err(e) = net.send(frame, phase) {
            return self.broken(net, phase, format!("send: {e}"));
        }
        net.evidence_frames += 1;
    }

    /// Drops a failed connection; every session in flight on it is lost.
    fn broken(&self, net: &mut Net, phase: &mut Phase, message: String) {
        net.conn = None;
        for _ in net.queue.drain(..) {
            phase.fail(message.clone());
        }
    }

    /// Replays the first sessions of the schedule in-process against fresh
    /// services and times the verifier-side layers one call at a time.
    pub fn recorded_window(&mut self) -> WindowLayers {
        let mut layers = WindowLayers::default();
        let entries = &self.schedule.entries[..self.schedule.entries.len().min(RECORDED_WINDOW)];
        let service = self.world.fresh_service();
        let mut recorded: Vec<(Entry, Vec<u8>, Option<AttestationReport>)> = Vec::new();
        let mut accepted: Vec<Vec<u8>> = Vec::new();
        let mut opened: Vec<Vec<u32>> = Vec::new();
        for entry in entries {
            if let Kind::Replayed { back } = entry.kind {
                if let Some(index) =
                    accepted.len().checked_sub(1 + usize::from(back) % accepted.len().max(1))
                {
                    recorded.push((*entry, accepted[index].clone(), None));
                    layers.sessions += 1;
                }
                continue;
            }
            let input = self.schedule.input(entry).to_vec();
            let start = Instant::now();
            let challenge = service
                .open_session(input.clone())
                .and_then(|id| service.challenge_envelope(id))
                .expect("open a session on a fresh service");
            layers.open += start.elapsed();
            opened.push(input);
            let (evidence, _) =
                self.world.prover.session().respond(&challenge).expect("attest a recorded session");
            let report = |e: &Envelope| match &e.message {
                Message::Evidence(msg) => Some(msg.report.clone()),
                _ => None,
            };
            let genuine = (evidence.encode().expect("encode evidence"), report(&evidence));
            if entry.kind == Kind::Forged {
                let forged = forge(evidence);
                let frame = forged.encode().expect("encode evidence");
                recorded.push((*entry, frame, report(&forged)));
            }
            accepted.push(genuine.0.clone());
            recorded.push((Entry { kind: Kind::Honest, ..*entry }, genuine.0, genuine.1));
            layers.sessions += 1;
        }

        let code_of = |reply: &[u8]| match Envelope::decode(reply).map(|e| e.message) {
            Ok(Message::Verdict(v)) => Some(v.reason_code),
            _ => None,
        };
        for (entry, frame, _) in &recorded {
            let start = Instant::now();
            let reply = service.handle_bytes(frame);
            layers.verify += start.elapsed();
            if reply.ok().and_then(|r| code_of(&r)) != Some(expected_code(entry.kind)) {
                layers.wrong_codes += 1;
            }
        }

        let pooled = Arc::new(self.world.fresh_service());
        for input in opened {
            pooled.open_session(input).expect("open a session on a fresh service");
        }
        let pool = ParallelVerifier::spawn(pooled, PoolConfig::default());
        for burst in recorded.chunks(self.schedule.workload.window()) {
            let tickets = pool.submit_batch(burst.iter().map(|(_, frame, _)| frame.clone()));
            for ((entry, _, _), ticket) in burst.iter().zip(tickets) {
                let reply = ticket.wait();
                layers.pool_wait += reply.latency;
                if reply.reply.ok().and_then(|r| code_of(&r)) != Some(expected_code(entry.kind)) {
                    layers.wrong_codes += 1;
                }
            }
        }
        pool.join();

        let mac = HmacVerifier::new(self.world.key.verification_key());
        for (entry, _, report) in &recorded {
            let Some(report) = report else { continue };
            let payload = report.payload();
            let start = Instant::now();
            let authentic = mac.verify(&payload, &report.signature).is_ok();
            layers.mac_verify += start.elapsed();
            if authentic != (entry.kind == Kind::Honest) {
                layers.wrong_codes += 1;
            }
            if entry.kind == Kind::Honest {
                let start = Instant::now();
                let checked = self.world.db.check(self.schedule.input(entry), report);
                layers.db_check += start.elapsed();
                if checked.is_err() {
                    layers.wrong_codes += 1;
                }
            }
        }
        layers
    }
}

fn micros(d: Duration) -> f32 {
    (d.as_secs_f64() * 1e6) as f32
}

/// The wire code a session of `kind` must end with.
pub fn expected_code(kind: Kind) -> u16 {
    match kind {
        Kind::Honest => code::ACCEPTED,
        Kind::Forged => code::BAD_SIGNATURE,
        Kind::Replayed { .. } => code::NONCE_REPLAYED,
    }
}

/// Flips one byte of the evidence's signature.
fn forge(mut evidence: Envelope) -> Envelope {
    if let Message::Evidence(msg) = &mut evidence.message {
        let mut bytes = msg.report.signature.as_bytes().to_vec();
        bytes[0] ^= 0x01;
        msg.report.signature = Signature::from_bytes(bytes);
    }
    evidence
}

enum Stage {
    Challenge,
    /// Evidence sent; `evidence` keeps the genuine frame, to follow a forgery
    /// or to be replayed later.
    Verdict {
        evidence: Option<Vec<u8>>,
    },
}

struct Flight {
    entry: Entry,
    opened: Instant,
    sent: Instant,
    stage: Stage,
}

struct Net {
    addr: std::net::SocketAddr,
    conn: Option<ProverClient>,
    evidence_frames: usize,
    queue: VecDeque<Flight>,
    /// The pass in flight.
    pass: Pass,
}

impl Net {
    fn conn(&mut self) -> Result<&mut ProverClient, String> {
        if self.conn.is_none() {
            self.conn = Some(ProverClient::connect(self.addr).map_err(|e| e.to_string())?);
            self.evidence_frames = 0;
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    fn send(&mut self, frame: &[u8], phase: &mut Phase) -> Result<(), String> {
        let conn = self.conn()?;
        phase.tracer.span(Layer::NetSend, || conn.raw().send(frame)).map_err(|e| e.to_string())?;
        phase.net.bytes += (frame.len() + lofat_net::FRAME_HEADER_BYTES) as u64;
        Ok(())
    }

    fn recv(&mut self, phase: &mut Phase) -> Result<Vec<u8>, String> {
        let conn = self.conn.as_mut().ok_or("no connection")?;
        let frame = phase
            .tracer
            .span(Layer::NetRecv, || conn.raw().recv())
            .map_err(|e| e.to_string())?
            .ok_or("server closed the connection")?;
        phase.net.bytes += (frame.len() + lofat_net::FRAME_HEADER_BYTES) as u64;
        Ok(frame)
    }
}
