//! Hash engine controller (③⑦⑪ in Fig. 3).
//!
//! The controller sits between the branch filter / loop monitor and the streaming
//! SHA-3 engine.  It receives `(Src, Dest)` pairs, feeds them to the engine one
//! 64-bit word per cycle, and rides out the engine's 3-cycle busy windows using the
//! engine's small input cache buffer.  Because the controller runs in parallel with
//! the processor it never stalls the attested software; what it does track is its own
//! occupancy so the evaluation can show that no trace data is ever dropped (§5.3).
//!
//! # Counter model
//!
//! The controller queue is a count on top of the engine's counters (see
//! [`lofat_crypto::hash_engine`]): a submitted pair is absorbed into the sponge
//! at once ([`HashEngine::hash_ahead`]) and only its place in the queue is
//! remembered.  A pump moves as much of the count into the engine's input buffer
//! as fits ([`HashEngine::admit`]) and steps the engine one cycle; a pump with
//! nothing queued, buffered or permuting is two counter increments.  So the
//! controller does work when a pair arrives and while the pipeline drains, not
//! per retired instruction.
//!
//! **Equivalence contract.**  For every schedule of submissions, pumps and
//! finalizations, the authenticator, `pending()` and every field of
//! [`HashControllerStats`] and of the engine's `HashEngineStats` equal those of
//! a controller that moves each pair through a FIFO queue one cycle at a time.
//! `tests/hash_path_equivalence.rs` keeps that controller as an oracle and
//! checks random schedules and the whole workload catalogue against it.

use crate::branches_mem::BranchPair;
use crate::error::LofatError;
use lofat_crypto::{Digest, HashEngine, HashEngineConfig};

/// Statistics of the hash path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct HashControllerStats {
    /// Pairs submitted for hashing.
    pub pairs_submitted: u64,
    /// Words absorbed by the engine so far.
    pub words_absorbed: u64,
    /// Cycles the controller has advanced the engine.
    pub cycles: u64,
    /// Maximum number of pairs waiting in the controller queue.
    pub max_queue_depth: usize,
}

/// The hash engine controller.
#[derive(Debug, Clone)]
pub struct HashController {
    engine: HashEngine,
    /// Pairs accepted (and already in the sponge) but not yet admitted to the
    /// engine's input buffer.
    queued: usize,
    stats: HashControllerStats,
}

impl HashController {
    /// Creates a controller driving a freshly initialised hash engine.
    pub fn new(config: HashEngineConfig) -> Self {
        Self { engine: HashEngine::new(config), queued: 0, stats: HashControllerStats::default() }
    }

    /// Submits one `(Src, Dest)` pair for inclusion in the authenticator.
    ///
    /// # Panics
    ///
    /// Panics if the authenticator was already finalized.
    #[inline]
    pub fn submit(&mut self, pair: BranchPair) {
        self.engine.hash_ahead(pair.to_word());
        self.queued += 1;
        self.stats.pairs_submitted += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued);
        // Opportunistically push queued words into the engine.
        self.pump();
    }

    /// Submits a batch of pairs (a newly observed loop path).
    ///
    /// The whole batch is enqueued first, `max_queue_depth` is updated once for
    /// the resulting occupancy and the engine is pumped once — words are absorbed
    /// in runs instead of paying one offer/pump round trip per word.  An empty
    /// batch is a no-op (no pump), exactly like the per-pair loop it replaces.
    ///
    /// Invariants of batching: the digest, `pairs_submitted`, the engine's
    /// `words_absorbed`, `permutations`, total `busy_cycles` and `words_dropped`
    /// (always 0 — back-pressure) are identical to per-pair submission.  What
    /// batching deliberately changes is the *occupancy* accounting:
    /// `max_queue_depth` now reflects the batch high-water mark (the pre-batch
    /// code pumped between pairs, hiding it) and cycle counters advance once per
    /// pump rather than once per pair.
    ///
    /// # Panics
    ///
    /// Panics if the batch is not empty and the authenticator was already
    /// finalized.
    pub fn submit_all(&mut self, pairs: impl IntoIterator<Item = BranchPair>) {
        let mut pushed = 0;
        for pair in pairs {
            self.engine.hash_ahead(pair.to_word());
            pushed += 1;
        }
        if pushed == 0 {
            return;
        }
        self.queued += pushed;
        self.stats.pairs_submitted += pushed as u64;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queued);
        self.pump();
    }

    /// Advances the engine by one cycle and feeds it from the queue.
    #[inline]
    pub fn pump(&mut self) {
        // Idle fast path: nothing queued, nothing buffered, no permutation
        // running — the cycle counters advance and nothing else can change.
        if self.queued == 0 && self.engine.is_idle() {
            self.engine.tick_idle();
            self.stats.cycles += 1;
            return;
        }
        // Move queued pairs into the engine's input buffer while there is room; the
        // controller applies back-pressure instead of offering into a full buffer, so
        // the engine never observes a dropped word.
        let moved = self.engine.admit(self.queued);
        self.queued -= moved;
        self.stats.words_absorbed += moved as u64;
        self.engine.step();
        self.stats.cycles += 1;
    }

    /// Number of pairs waiting in the controller queue or the engine's input buffer.
    pub fn pending(&self) -> usize {
        self.queued + self.engine.buffered()
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &HashControllerStats {
        &self.stats
    }

    /// Statistics of the underlying streaming engine.
    pub fn engine_stats(&self) -> lofat_crypto::HashEngineStats {
        *self.engine.stats()
    }

    /// Drains all pending input and finalizes the authenticator `A`.
    ///
    /// # Errors
    ///
    /// Returns an error if the engine was already finalized.
    pub fn finalize(&mut self) -> Result<Digest, LofatError> {
        while self.queued > 0 {
            self.pump();
        }
        Ok(self.engine.finalize()?)
    }

    /// Finalizes many independent controllers together, returning their
    /// authenticators in controller order.  Each controller's queue is pumped
    /// dry exactly as by [`HashController::finalize`] (per-controller cycle
    /// accounting is unchanged), then the underlying engines' digests are
    /// drained through the multi-lane batch path
    /// ([`HashEngine::finalize_many`]) in groups of four with a scalar tail.
    /// Digests are bit-identical to per-controller `finalize` calls.
    ///
    /// # Errors
    ///
    /// Returns an error if any controller was already finalized (no engine is
    /// finalized in that case).
    pub fn finalize_all<'a>(
        controllers: impl IntoIterator<Item = &'a mut HashController>,
    ) -> Result<Vec<Digest>, LofatError> {
        let controllers: Vec<&'a mut HashController> = controllers.into_iter().collect();
        let mut engines = Vec::with_capacity(controllers.len());
        for controller in controllers {
            while controller.queued > 0 {
                controller.pump();
            }
            engines.push(&mut controller.engine);
        }
        Ok(HashEngine::finalize_many(engines)?)
    }
}

impl Default for HashController {
    fn default() -> Self {
        Self::new(HashEngineConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat_crypto::Sha3_512;

    #[test]
    fn digest_matches_software_hash_of_same_words() {
        let mut ctrl = HashController::default();
        let pairs: Vec<BranchPair> =
            (0..50u32).map(|i| BranchPair::new(0x1000 + 4 * i, 0x2000 + 4 * i)).collect();
        ctrl.submit_all(pairs.clone());
        let digest = ctrl.finalize().unwrap();

        let mut reference = Sha3_512::new();
        for pair in &pairs {
            reference.update(pair.to_word().to_le_bytes());
        }
        assert_eq!(digest, reference.finalize());
    }

    #[test]
    fn nothing_is_dropped_even_under_bursts() {
        let mut ctrl = HashController::default();
        // Submit bursts far faster than the engine's sustainable rate; the controller
        // queue absorbs the excess (the hardware sizes the branches memory for this).
        for burst in 0..100u32 {
            for i in 0..20u32 {
                ctrl.submit(BranchPair::new(burst * 100 + i, i));
            }
        }
        let submitted = ctrl.stats().pairs_submitted;
        ctrl.finalize().unwrap();
        assert_eq!(submitted, 2000);
        assert_eq!(ctrl.engine_stats().words_absorbed, 2000);
        assert_eq!(ctrl.engine_stats().words_dropped, 0);
    }

    #[test]
    fn empty_stream_matches_empty_hash() {
        let mut ctrl = HashController::default();
        assert_eq!(ctrl.finalize().unwrap(), Sha3_512::digest(b""));
    }

    #[test]
    fn finalize_twice_fails() {
        let mut ctrl = HashController::default();
        ctrl.finalize().unwrap();
        assert!(ctrl.finalize().is_err());
    }

    #[test]
    fn finalize_all_matches_individual_finalizes() {
        // Batch sizes straddling the 4-lane boundary; each controller carries
        // a different stream (fed via `submit_all`, some still queued).
        for batch in 0usize..=9 {
            let mut batched: Vec<HashController> = (0..batch)
                .map(|c| {
                    let mut ctrl = HashController::default();
                    let pairs: Vec<BranchPair> = (0..30 * c as u32 + 5)
                        .map(|i| BranchPair::new(0x1000 + 4 * i, 0x2000 + 8 * c as u32 + i))
                        .collect();
                    ctrl.submit_all(pairs);
                    ctrl
                })
                .collect();
            let mut reference = batched.clone();
            let digests = HashController::finalize_all(batched.iter_mut()).unwrap();
            assert_eq!(digests.len(), batch);
            for (c, (digest, ctrl)) in digests.iter().zip(&mut reference).enumerate() {
                assert_eq!(digest, &ctrl.finalize().unwrap(), "batch {batch}, controller {c}");
            }
            for ctrl in &mut batched {
                assert!(ctrl.finalize().is_err(), "batch finalize marked the stream done");
            }
        }
    }

    #[test]
    fn finalize_all_rejects_already_finalized_controllers() {
        let mut done = HashController::default();
        done.finalize().unwrap();
        let mut fresh = HashController::default();
        fresh.submit(BranchPair::new(1, 2));
        let err = HashController::finalize_all([&mut fresh, &mut done]).unwrap_err();
        assert!(matches!(err, LofatError::Hash(_)));
        assert!(fresh.finalize().is_ok(), "the fresh controller is untouched");
    }

    #[test]
    fn pending_reflects_queue_and_engine_buffer() {
        let mut ctrl = HashController::default();
        for i in 0..10u32 {
            ctrl.submit(BranchPair::new(i, i));
        }
        assert!(ctrl.pending() > 0);
        ctrl.finalize().unwrap();
        assert_eq!(ctrl.pending(), 0);
    }
}
