//! Span totals recorded from the benchmark's own calls into each layer.
//!
//! Every span is a leaf under its session, so a layer's self time is its
//! summed span time, and the session's own self time (glue between calls) is
//! the session total minus its children.  A disabled tracer times nothing.

use std::time::{Duration, Instant};

/// A layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole session, open to decoded verdict.
    Session,
    /// `VerifierService::open_session` + `challenge_envelope`.
    ServiceOpen,
    /// `VerifierService::handle_bytes` on the evidence.
    ServiceVerify,
    /// `Envelope::encode` (requests, challenges, evidence).
    WireEncode,
    /// `Envelope::decode` (challenges, verdicts).
    WireDecode,
    /// `ProverSession::respond`: attested run, finalize and sign.
    ProverRespond,
    /// Writing one frame to the socket.
    NetSend,
    /// Reading one frame from the socket, waiting included.
    NetRecv,
    /// Probe: plain `Cpu` run of the session's input.
    Rv32Exec,
    /// Probe: the same run with a `LofatEngine` on the trace port.
    EngineAttested,
    /// Probe: `LofatEngine::finalize`.
    EngineFinalize,
    /// Probe: signing the report payload with the device key.
    CryptoSign,
}

const LAYERS: usize = 12;

/// Per-layer span totals.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    totals: [Duration; LAYERS],
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, totals: [Duration::ZERO; LAYERS] }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.totals[layer as usize] += start.elapsed();
        out
    }

    /// Adds a span measured elsewhere.
    pub fn add(&mut self, layer: Layer, elapsed: Duration) {
        if self.enabled {
            self.totals[layer as usize] += elapsed;
        }
    }

    /// Summed span time of `layer`.
    pub fn total(&self, layer: Layer) -> Duration {
        self.totals[layer as usize]
    }
}
