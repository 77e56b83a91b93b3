//! The hash path's counter model is bit-identical to the per-cycle model it
//! replaced.
//!
//! `HashEngine` and `HashController` keep their timing state as plain counts
//! and absorb every word into the sponge when it is submitted.  The model they
//! replaced moved each word through two FIFO queues one cycle at a time and
//! hashed it when it left the engine's input buffer.  That model is kept below,
//! verbatim apart from names, as the oracle:
//!
//! * random submit / pump / offer / step / drain / finalize schedules are run
//!   through both, on random engine configurations, and every observable
//!   (digests, errors, status, occupancy, `HashControllerStats`,
//!   `HashEngineStats`) must agree after every operation;
//! * per-workload goldens over the whole catalogue pin the authenticator, the
//!   loop metadata, `EngineStats` and both hash-path stats books, as produced by
//!   the per-cycle model.

use std::collections::VecDeque;

use lofat::hash_ctrl::{HashController, HashControllerStats};
use lofat::{BranchPair, EngineConfig, LofatEngine};
use lofat_crypto::{
    CryptoError, Digest, EngineStatus, HashEngine, HashEngineConfig, HashEngineStats, Sha3_256,
    Sha3_512,
};
use lofat_workloads::catalog;
use proptest::prelude::*;

mod common;

/// The per-cycle engine model: a word queue in front of the padding buffer,
/// hashed when a ready cycle absorbs it.
#[derive(Clone)]
struct OracleEngine {
    config: HashEngineConfig,
    buffer: VecDeque<u64>,
    words_in_block: u64,
    busy_remaining: u64,
    hasher: Sha3_512,
    stats: HashEngineStats,
    finalized: bool,
}

impl OracleEngine {
    fn new(config: HashEngineConfig) -> Self {
        Self {
            config,
            buffer: VecDeque::new(),
            words_in_block: 0,
            busy_remaining: 0,
            hasher: Sha3_512::new(),
            stats: HashEngineStats::default(),
            finalized: false,
        }
    }

    fn status(&self) -> EngineStatus {
        if self.busy_remaining > 0 {
            EngineStatus::Busy { remaining: self.busy_remaining }
        } else {
            EngineStatus::Ready
        }
    }

    fn is_idle(&self) -> bool {
        self.buffer.is_empty() && self.busy_remaining == 0
    }

    fn offer(&mut self, word: u64) -> Result<(), CryptoError> {
        if self.finalized {
            return Err(CryptoError::EngineFinalized);
        }
        if self.buffer.len() >= self.config.input_buffer_words {
            self.stats.words_dropped += 1;
            return Err(CryptoError::EngineOverflow { dropped: self.stats.words_dropped });
        }
        self.buffer.push_back(word);
        self.stats.max_buffer_occupancy = self.stats.max_buffer_occupancy.max(self.buffer.len());
        Ok(())
    }

    fn step(&mut self) {
        self.stats.cycles += 1;
        if self.busy_remaining > 0 {
            self.busy_remaining -= 1;
            self.stats.busy_cycles += 1;
            return;
        }
        if let Some(word) = self.buffer.pop_front() {
            self.hasher.update(word.to_le_bytes());
            self.stats.words_absorbed += 1;
            self.words_in_block += 1;
            if self.words_in_block == self.config.words_per_block {
                self.words_in_block = 0;
                self.busy_remaining = self.config.busy_cycles;
                self.stats.permutations += 1;
            }
        }
    }

    fn drain(&mut self) -> u64 {
        let start = self.stats.cycles;
        while !self.buffer.is_empty() || self.busy_remaining > 0 {
            self.step();
        }
        self.stats.cycles - start
    }

    fn finalize(&mut self) -> Result<Digest, CryptoError> {
        if self.finalized {
            return Err(CryptoError::EngineFinalized);
        }
        self.drain();
        self.finalized = true;
        Ok(self.hasher.clone().finalize())
    }
}

/// The per-cycle controller model: a pair queue in front of the engine, moved
/// into the engine's buffer while it has room, once per pump.
#[derive(Clone)]
struct OracleController {
    engine: OracleEngine,
    queue: VecDeque<BranchPair>,
    stats: HashControllerStats,
}

impl OracleController {
    fn new(config: HashEngineConfig) -> Self {
        Self {
            engine: OracleEngine::new(config),
            queue: VecDeque::new(),
            stats: HashControllerStats::default(),
        }
    }

    fn submit(&mut self, pair: BranchPair) {
        self.queue.push_back(pair);
        self.stats.pairs_submitted += 1;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        self.pump();
    }

    fn submit_all(&mut self, pairs: impl IntoIterator<Item = BranchPair>) {
        let before = self.queue.len();
        self.queue.extend(pairs);
        let pushed = self.queue.len() - before;
        if pushed == 0 {
            return;
        }
        self.stats.pairs_submitted += pushed as u64;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        self.pump();
    }

    fn pump(&mut self) {
        if self.queue.is_empty() && self.engine.is_idle() {
            self.engine.stats.cycles += 1;
            self.stats.cycles += 1;
            return;
        }
        while self.engine.buffer.len() < self.engine.config.input_buffer_words {
            let Some(pair) = self.queue.pop_front() else { break };
            self.engine.offer(pair.to_word()).expect("buffer has room");
            self.stats.words_absorbed += 1;
        }
        self.engine.step();
        self.stats.cycles += 1;
    }

    fn pending(&self) -> usize {
        self.queue.len() + self.engine.buffer.len()
    }

    fn finalize(&mut self) -> Result<Digest, CryptoError> {
        while !self.queue.is_empty() {
            self.pump();
        }
        self.engine.finalize()
    }
}

fn engine_config() -> impl Strategy<Value = HashEngineConfig> {
    (1usize..7, 0u64..5, 1u64..11).prop_map(|(input_buffer_words, busy_cycles, words_per_block)| {
        HashEngineConfig { input_buffer_words, busy_cycles, words_per_block }
    })
}

/// One schedule step: an opcode and a word (the opcode's operand).
fn schedule(max_len: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((any::<u8>(), any::<u64>()), 0..max_len)
}

fn pair_of(word: u64) -> BranchPair {
    BranchPair::new((word >> 32) as u32, word as u32)
}

/// `count` pairs derived from `seed`, for the batch submission paths.
fn batch_of(seed: u64, count: usize) -> Vec<BranchPair> {
    (0..count as u64).map(|i| pair_of(seed.rotate_left(i as u32 * 7) ^ i)).collect()
}

fn assert_controllers_agree(new: &HashController, old: &OracleController, step: usize) {
    assert_eq!(new.stats(), &old.stats, "controller stats, step {step}");
    assert_eq!(new.engine_stats(), old.engine.stats, "engine stats, step {step}");
    assert_eq!(new.pending(), old.pending(), "pending, step {step}");
}

fn assert_engines_agree(new: &HashEngine, old: &OracleEngine, step: usize) {
    assert_eq!(new.stats(), &old.stats, "engine stats, step {step}");
    assert_eq!(new.status(), old.status(), "status, step {step}");
    assert_eq!(new.buffered(), old.buffer.len(), "buffered, step {step}");
    assert_eq!(new.is_idle(), old.is_idle(), "idle, step {step}");
    assert_eq!(new.is_finalized(), old.finalized, "finalized, step {step}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Controller schedules: single and batched submissions of random sizes
    /// between runs of pumps, then finalize.
    #[test]
    fn controller_schedules_match_per_cycle_model(
        config in engine_config(),
        ops in schedule(160),
    ) {
        let mut new = HashController::new(config);
        let mut old = OracleController::new(config);
        for (step, &(op, word)) in ops.iter().enumerate() {
            match op % 8 {
                0 | 1 => {
                    new.submit(pair_of(word));
                    old.submit(pair_of(word));
                }
                2 | 3 => {
                    let pairs = batch_of(word, (word % 23) as usize);
                    new.submit_all(pairs.clone());
                    old.submit_all(pairs);
                }
                _ => {
                    for _ in 0..=(word % 6) {
                        new.pump();
                        old.pump();
                    }
                }
            }
            assert_controllers_agree(&new, &old, step);
        }
        let new_digest = new.finalize().expect("first finalize");
        let old_digest = old.finalize().expect("first finalize");
        prop_assert_eq!(new_digest, old_digest);
        assert_controllers_agree(&new, &old, ops.len());
        prop_assert!(new.finalize().is_err());
    }

    /// Engine schedules through the per-cycle API, including offers into a
    /// full buffer, mid-stream drains and offers after finalize.
    #[test]
    fn engine_schedules_match_per_cycle_model(
        config in engine_config(),
        ops in schedule(200),
    ) {
        let mut new = HashEngine::new(config);
        let mut old = OracleEngine::new(config);
        for (step, &(op, word)) in ops.iter().enumerate() {
            match op % 16 {
                0..=5 => {
                    let got = new.offer(word);
                    let want = old.offer(word);
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "offer, step {}", step);
                }
                6..=12 => {
                    new.step();
                    old.step();
                }
                13 => {
                    if new.is_idle() {
                        new.tick_idle();
                        old.step();
                    }
                }
                14 => prop_assert_eq!(new.drain(), old.drain(), "drain, step {}", step),
                _ => {
                    // Rare: finalize mid-schedule; later offers must fail alike.
                    if word % 4 == 0 {
                        let got = new.finalize();
                        let want = old.finalize();
                        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "finalize, step {}", step);
                    }
                }
            }
            assert_engines_agree(&new, &old, step);
        }
        let got = new.finalize();
        let want = old.finalize();
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert_engines_agree(&new, &old, ops.len());
    }

    /// Batch finalization of several controllers and of several engines gives
    /// the per-cycle model's digests and books, unit by unit.
    #[test]
    fn batch_finalize_matches_per_cycle_model(
        config in engine_config(),
        streams in proptest::collection::vec((any::<u64>(), 0usize..40, 0usize..30), 0..9),
    ) {
        let mut controllers: Vec<HashController> = Vec::new();
        let mut oracles: Vec<OracleController> = Vec::new();
        let mut engines: Vec<HashEngine> = Vec::new();
        let mut engine_oracles: Vec<OracleEngine> = Vec::new();
        for &(seed, count, pumps) in &streams {
            let mut new = HashController::new(config);
            let mut old = OracleController::new(config);
            new.submit_all(batch_of(seed, count));
            old.submit_all(batch_of(seed, count));
            for _ in 0..pumps {
                new.pump();
                old.pump();
            }
            controllers.push(new);
            oracles.push(old);

            let mut new = HashEngine::new(config);
            let mut old = OracleEngine::new(config);
            for pair in batch_of(seed, count) {
                while old.buffer.len() == config.input_buffer_words {
                    new.step();
                    old.step();
                }
                new.offer(pair.to_word()).expect("room");
                old.offer(pair.to_word()).expect("room");
                if pair.src % 3 == 0 {
                    new.step();
                    old.step();
                }
            }
            engines.push(new);
            engine_oracles.push(old);
        }
        let digests = HashController::finalize_all(controllers.iter_mut()).expect("fresh");
        for (c, ((digest, new), old)) in digests.iter().zip(&controllers).zip(&mut oracles).enumerate() {
            prop_assert_eq!(digest, &old.finalize().expect("fresh"), "controller {}", c);
            assert_controllers_agree(new, old, c);
        }
        let digests = HashEngine::finalize_many(engines.iter_mut()).expect("fresh");
        for (e, ((digest, new), old)) in digests.iter().zip(&engines).zip(&mut engine_oracles).enumerate() {
            prop_assert_eq!(digest, &old.finalize().expect("fresh"), "engine {}", e);
            assert_engines_agree(new, old, e);
        }
    }
}

/// The first `n` hex digits of the SHA3-256 of `bytes`.
fn short_digest(bytes: &[u8], n: usize) -> String {
    Sha3_256::digest(bytes).to_hex()[..n].to_string()
}

/// One catalogue workload's measurement, in golden form: the full
/// authenticator, then short digests of the metadata bytes and of the `Debug`
/// text of `EngineStats`, `HashControllerStats` and `HashEngineStats` (which
/// prints every field).
fn measurement_golden(name: &str, config: EngineConfig) -> [String; 5] {
    let workload = catalog::by_name(name).expect("catalogue workload");
    let program = workload.program().expect("assemble");
    let mut engine = LofatEngine::for_program(&program, config).expect("engine");
    let mut cpu = common::cpu_with_input(&program, &workload.default_input);
    cpu.run_traced(50_000_000, &mut engine).expect("attested run");
    let measurement = engine.finalize().expect("finalize");
    let hash = engine.hash_controller();
    let debug = |value: &dyn std::fmt::Debug| short_digest(format!("{value:?}").as_bytes(), 16);
    [
        measurement.authenticator.to_hex(),
        short_digest(&measurement.metadata.to_bytes(), 16),
        debug(&measurement.stats),
        debug(hash.stats()),
        debug(&hash.engine_stats()),
    ]
}

/// `(workload, [authenticator, metadata, EngineStats, HashControllerStats,
/// HashEngineStats])` under the default engine configuration, as produced by
/// the per-cycle model.
const CATALOGUE_GOLDENS: &[(&str, [&str; 5])] = &[
    (
        "fig4-loop",
        [
            "c2ff1e9881317b12991f78069de306869cb79f0f05e38e027dfc515eb34c8c193f7552ddda211ffc7668196165e0214f5c5823dc35395dd8f7bc86d1cea74cd3",
            "5b7b9b70e252d2c4",
            "f88d488ca53c140a",
            "020783af186906e7",
            "09135e28f3d5f055",
        ],
    ),
    (
        "syringe-pump",
        [
            "9cf08b0074e8222dbc4c044a00913162fffbe6c360d108ea3f9e64736bec31114f8f423192acbed060dc420c5b1966f2bfe0488846cb403d210e09f14d37c45a",
            "8b347b0ba7db2cd7",
            "d3943b235c06426a",
            "f4358f189011c880",
            "49faa298aa979266",
        ],
    ),
    (
        "bubble-sort",
        [
            "94702bc9c30f17985608fdfecb47efd45b6144aebc4aed89a82ad24ca5e668ec21608eba5e099374e5ca305828f4585229514e02600128da8408a44592d0dfc8",
            "5fcf81c65964d458",
            "e9e1f2739575fb3a",
            "456c0b695b4eaf25",
            "86bc2e2e45f8b248",
        ],
    ),
    (
        "crc32",
        [
            "70884515f7a7d6db9ff66db48331d7f660f409e5160a0037e0a6e7e216c8a2ecf917358297f07e17103ce6ad66462af5a2e38dd75b9b0ed0d51725f94656d12a",
            "6c27f73313bc569d",
            "a3e630bd1a399d98",
            "f45b54c0144e6706",
            "d6633b49e0d7e085",
        ],
    ),
    (
        "fibonacci",
        [
            "0dbacd25567448aacf43d07cdc0c9fa83e8da4726b547ca2372a1c7e461efe05e38b34fdf0868bbc2e51e2aa74a0ea01c2190b4f71b5a0b37723c8c8a682aafa",
            "8b0a2385d83c8bf7",
            "e461de9a0543f756",
            "5fe9bbd21b4af9d3",
            "d7defb74f5d14ba0",
        ],
    ),
    (
        "matrix-checksum",
        [
            "7d36eb9e54b70011e286c1bda0650bec79b39bccfc320e37ccb7a4b8cc788c2dfc951c2b32aafa1a0a53992d7ddaec46836a2f2717914e2d681e0b45f7ecf2ba",
            "8d7068019251b27f",
            "f3f71a5e5e981ae8",
            "b54dcc00c3d7d686",
            "c2ab0282b19660ab",
        ],
    ),
    (
        "dispatch",
        [
            "dee4f2725c4f7f0ed8a21201b6d6c628583796ceaa0e27b1c94e7c80bb4c0f9ebdef72ce39971b715c4a78d58db7b9a7ded2c9c9434fcf1c18e46c35818a49fa",
            "fc01fc30f9563775",
            "8bf535f126edf452",
            "e10c352e4c945cd6",
            "adbc0c02d8f6527f",
        ],
    ),
    (
        "nested-loops",
        [
            "5aca1fe4cc5aa021927811c0b7d6057b390b2953a6b2b1f8d40526860346862996ac3309a1b2f24e6ed15decb1c2c0d4715f9d6761b55d27bff4631d3252543a",
            "19404a86a044a364",
            "70547d7471e70644",
            "9ea20a61be7955ea",
            "8b97d4f3e30c13d0",
        ],
    ),
    (
        "diamond-paths",
        [
            "badd6565e5792d9d91a785846985cc280341889888d5e439680ac816e4c9a49ec9db45c699f4f3f76c359bc181a51569a67c0bc6b1e8be76f8c6f45459e3bc47",
            "a6f48b8ca3a97def",
            "8a5717b0162c0de7",
            "499c0709def304f8",
            "167845627db135e4",
        ],
    ),
    (
        "return-victim",
        [
            "c2e513196944eb7dd78e7b334e99535a8250bacd00f269d0c55a095367278ac5d1cc6af30765ecbdfdf424a8d9bc309842caf0246e586bf79b3b6b408c889780",
            "8b0a2385d83c8bf7",
            "4c7f7e32a74fca68",
            "91b7680374d79d7b",
            "ca7f4544ace9dd89",
        ],
    ),
    (
        "gcd",
        [
            "23390462376f10cac7476bdc96e1b7bd7d77d1e6948b46a647fc1472fdf435a4c716d0d9b4254cdd98cf0c5978bbf0ca05c55e4a8b09ddf8c69b514d68e31817",
            "83e135236e19a663",
            "03c530cde7d6bf37",
            "f63df11764d2933e",
            "9bbafe1797822a80",
        ],
    ),
    (
        "binary-search",
        [
            "3b201a509ba14ee0becc337d0134fa613c23dbc547fe3c4825cd7a1bd465a0a6c09b69bcd1336418148e914e5c69ed6d924e27d641215e06932926a767025a9c",
            "8b0a2385d83c8bf7",
            "7df0bd02c60e9d1e",
            "c1e4af0de3a1d2a1",
            "a566e45f3497945d",
        ],
    ),
];

/// The same, with loop compression off (every pair is hashed, so the hash
/// path runs at its highest load).
const UNCOMPRESSED_GOLDENS: &[(&str, [&str; 5])] = &[
    (
        "fig4-loop",
        [
            "e0691d042239c180ae681b732f0638dfa97523c8b4867213ceca1b6b4c431e9574fda0320fb13567f089fc5d944584cc22284b8447c2a2c4b7d3983200260526",
            "5b7b9b70e252d2c4",
            "c958c282a750475a",
            "c9383494f6ee5991",
            "cee2c14fc4895887",
        ],
    ),
    (
        "syringe-pump",
        [
            "7d78340b4688c5ac5803079aede670578a8b576801e86cea85dba16e0afd52f4579e5d4c7175c8d0e1b4239258edf27350b7ca6028230ad11d3399110fd90820",
            "8b347b0ba7db2cd7",
            "f0d61e2369459308",
            "b588cb88e153da1c",
            "13c4b418589c8723",
        ],
    ),
    (
        "bubble-sort",
        [
            "8d1c16bb9c5fdc1b86b244b39be17f8c54174ce89f07507d7b51e1983110e215404c78e11d5f984c7bc9d2b2fca029f6eb3eb25e6d6e5fabc63bc79413aa3338",
            "5fcf81c65964d458",
            "d0e13c2b0a3a01c7",
            "ba28cac600c4594c",
            "79af5414f0ccd63a",
        ],
    ),
    (
        "crc32",
        [
            "dbe485228770e160dec18a76dce748b3f51b3f681e4c879bf4c466742d1169d876e0b7a756cd347befc506901e03272e8e9bb8a2bf46fdaa8393ec0276ce551d",
            "6c27f73313bc569d",
            "a1544929fe2246cc",
            "78acfd21b51a9bf1",
            "f64e1a66a0b454b1",
        ],
    ),
    (
        "fibonacci",
        [
            "0dbacd25567448aacf43d07cdc0c9fa83e8da4726b547ca2372a1c7e461efe05e38b34fdf0868bbc2e51e2aa74a0ea01c2190b4f71b5a0b37723c8c8a682aafa",
            "8b0a2385d83c8bf7",
            "e461de9a0543f756",
            "5fe9bbd21b4af9d3",
            "d7defb74f5d14ba0",
        ],
    ),
    (
        "matrix-checksum",
        [
            "57a8461cbf49065b8a9ee055582069e6badcc80e69c833793485e002dd38d1631ae4c6c9a6c7bcb6b62808a3ed2b83e7840ecdd347cf67f1fbb57fafa26a373f",
            "8d7068019251b27f",
            "87fa0adbe4c37f65",
            "d8e142db8f940d9e",
            "9471dbaafd96cdf7",
        ],
    ),
    (
        "dispatch",
        [
            "4acfb0a3d7c283c47e74a780289a57dc2297374c724f12350416f4e2095b305726d5560f523e34bdadabfb00f01901edf0f4b177cf1bdeb56ea2ab49d9f0eb96",
            "fc01fc30f9563775",
            "556c19e900069ee8",
            "4bd94e59032f55e6",
            "c60e1e0bfe1d38ba",
        ],
    ),
    (
        "nested-loops",
        [
            "cc1ec9a124b0ab355b32db04595c414720f013c3747f27eb664d902f71f9e3d54efebf5b0b8b5061f501dba0843df3f4864e057fb1cbda38cf6f1c26a9b4a5bc",
            "19404a86a044a364",
            "03a01a484bf5ab52",
            "a13b96d8647bf12b",
            "0120b72cf3d0dbe6",
        ],
    ),
    (
        "diamond-paths",
        [
            "bb8ac1df8b8019ec2fcb6b86d76e436ba852653bcae330d434af42876bc0bd60c2fdcfe92bcc9782991723ff54a973dbd1b78114a4e5325650c4e126622f22c9",
            "a6f48b8ca3a97def",
            "c130473f45d1d18a",
            "4022cf3ea0d80273",
            "63648829263100ab",
        ],
    ),
    (
        "return-victim",
        [
            "c2e513196944eb7dd78e7b334e99535a8250bacd00f269d0c55a095367278ac5d1cc6af30765ecbdfdf424a8d9bc309842caf0246e586bf79b3b6b408c889780",
            "8b0a2385d83c8bf7",
            "4c7f7e32a74fca68",
            "91b7680374d79d7b",
            "ca7f4544ace9dd89",
        ],
    ),
    (
        "gcd",
        [
            "733141b4d45ae1c60dfbf3cb2f96851eff5309605c59c9562459a986a9b911ed5ad3e0ae69f8736055f65608452f62acc0306dfe2274197f53999abdf417c85e",
            "83e135236e19a663",
            "76c4c3ccb4d44e05",
            "d756de82ed2ca0bd",
            "8f044da07434cdad",
        ],
    ),
    (
        "binary-search",
        [
            "3b201a509ba14ee0becc337d0134fa613c23dbc547fe3c4825cd7a1bd465a0a6c09b69bcd1336418148e914e5c69ed6d924e27d641215e06932926a767025a9c",
            "8b0a2385d83c8bf7",
            "7df0bd02c60e9d1e",
            "c1e4af0de3a1d2a1",
            "a566e45f3497945d",
        ],
    ),
];

fn check_goldens(goldens: &[(&str, [&str; 5])], config: EngineConfig) {
    let names: Vec<&str> = catalog::all().iter().map(|w| w.name).collect();
    let pinned: Vec<&str> = goldens.iter().map(|(name, _)| *name).collect();
    let actual: Vec<String> = names
        .iter()
        .map(|name| format!("{:?}", (name, measurement_golden(name, config))))
        .collect();
    assert_eq!(pinned, names, "goldens cover the whole catalogue:\n{}", actual.join(",\n"));
    for ((name, want), got) in goldens.iter().zip(&actual) {
        assert_eq!(got, &format!("{:?}", (name, want)), "workload `{name}`");
    }
}

#[test]
fn catalogue_measurements_match_per_cycle_goldens() {
    check_goldens(CATALOGUE_GOLDENS, EngineConfig::default());
}

#[test]
fn uncompressed_catalogue_measurements_match_per_cycle_goldens() {
    let config = EngineConfig::builder().loop_compression(false).build().expect("config");
    check_goldens(UNCOMPRESSED_GOLDENS, config);
}
