//! Seeded inputs and adversary schedules for the three workloads.
//!
//! A [`Schedule`] is everything a run feeds the library: the measurement
//! database's input set and one *pass* of session entries.  A run replays the
//! pass cyclically, so every whole pass does the same simulated work, and the
//! deterministic counts of a pass can be compared across passes, phases and
//! runs of one seed.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `syringe-pump`, in-process, one client: monitor-bound prover.
    PumpLoops,
    /// Recursive `fibonacci`, in-process, one client: hash-bound prover.
    FibCalls,
    /// `binary-search` over a loopback `EventLoopServer`, one client thread
    /// with [`SEARCH_WINDOW`] pipelined sessions: verifier- and I/O-bound.
    SearchChurn,
}

/// Sessions the `search-churn` client keeps in flight.
pub const SEARCH_WINDOW: usize = 16;

/// Distinct `search-churn` inputs: 16x the default 1,024-entry verdict cache.
pub const SEARCH_DB_ENTRIES: usize = 16_384;

/// Words in a `search-churn` array (the target is one of them).
const SEARCH_ARRAY_LEN: usize = 7;

/// Zipf exponent of the `search-churn` input popularity.
const SEARCH_ZIPF_S: f64 = 1.0;

/// Sessions per `search-churn` pass; a twentieth of them forged, a twentieth
/// replayed.
const SEARCH_PASS: usize = 4096;
const SEARCH_FORGED: usize = SEARCH_PASS / 20;
const SEARCH_REPLAYED: usize = SEARCH_PASS / 20;

/// The first entries of a `search-churn` pass are honest, so a replay always
/// has accepted evidence behind it, even in a run's first pass.
const SEARCH_HONEST_LEAD: usize = 4 * SEARCH_WINDOW;

/// A replayed entry resends the evidence of one of this many most recently
/// accepted sessions.
pub const REPLAY_DEPTH: u8 = 32;

/// Sessions per in-process pass: short, so the reference kernel timed
/// between passes follows changes in host contention closely.
const PROVER_PASS: usize = 16;

/// `syringe-pump` unit counts: one drawn from each of 8 equal strata of this
/// range (about 52k to 69k simulated cycles), so every seed has the same mean
/// work to within half a percent.
const PUMP_UNITS: std::ops::Range<u32> = 1200..1600;
const PUMP_INPUTS: usize = 8;

/// `fibonacci` arguments and how many sessions of a pass use each.
const FIB_MIX: [(u32, usize); 3] = [(14, 4), (15, 8), (16, 4)];

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [Workload::PumpLoops, Workload::FibCalls, Workload::SearchChurn];

    /// The benchmark's name for the workload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PumpLoops => "pump-loops",
            Workload::FibCalls => "fib-calls",
            Workload::SearchChurn => "search-churn",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The catalogue program the workload attests.
    pub fn program_name(self) -> &'static str {
        match self {
            Workload::PumpLoops => "syringe-pump",
            Workload::FibCalls => "fibonacci",
            Workload::SearchChurn => "binary-search",
        }
    }

    /// Whether sessions cross a loopback socket (otherwise they run in-process).
    pub fn networked(self) -> bool {
        self == Workload::SearchChurn
    }

    /// Sessions in flight at once (the closed loop's window).
    pub fn window(self) -> usize {
        if self.networked() {
            SEARCH_WINDOW
        } else {
            1
        }
    }
}

/// What one schedule entry sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open a session and answer it with honest evidence.
    Honest,
    /// Open a session and answer it with evidence whose signature has one
    /// byte flipped: refused with `BAD_SIGNATURE` after the MAC.
    Forged,
    /// Resend the evidence of the `back`-th most recently accepted session:
    /// refused with `NONCE_REPLAYED` at the nonce check.
    Replayed {
        /// Distance back into the accepted-evidence ring.
        back: u8,
    },
}

/// One session of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Index into [`Schedule::inputs`] (unused by replays).
    pub input: u32,
    /// What the entry sends.
    pub kind: Kind,
}

/// A workload's seeded inputs and pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The workload this schedule drives.
    pub workload: Workload,
    /// Every input the measurement database holds, in generation order.
    pub inputs: Vec<Vec<u32>>,
    /// One pass of sessions; runs repeat it.
    pub entries: Vec<Entry>,
}

impl Schedule {
    /// Generates the schedule of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ workload_salt(workload));
        let (inputs, entries) = match workload {
            Workload::PumpLoops => {
                let width = (PUMP_UNITS.end - PUMP_UNITS.start) / PUMP_INPUTS as u32;
                let inputs: Vec<Vec<u32>> = (0..PUMP_INPUTS as u32)
                    .map(|i| vec![PUMP_UNITS.start + i * width + rng.gen_range(0..width)])
                    .collect();
                let per_input = PROVER_PASS / PUMP_INPUTS;
                let mut order: Vec<u32> =
                    (0..PUMP_INPUTS as u32).flat_map(|i| vec![i; per_input]).collect();
                shuffle(&mut rng, &mut order);
                (inputs, honest(order))
            }
            Workload::FibCalls => {
                let inputs: Vec<Vec<u32>> = FIB_MIX.iter().map(|&(n, _)| vec![n]).collect();
                let mut order: Vec<u32> =
                    (0u32..).zip(FIB_MIX).flat_map(|(i, (_, count))| vec![i; count]).collect();
                shuffle(&mut rng, &mut order);
                (inputs, honest(order))
            }
            Workload::SearchChurn => search_schedule(&mut rng),
        };
        Self { workload, inputs, entries }
    }

    /// Canonical byte encoding of the schedule, for comparing two of them.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.workload.name().as_bytes());
        out.extend_from_slice(&(self.inputs.len() as u32).to_le_bytes());
        for input in &self.inputs {
            out.extend_from_slice(&(input.len() as u32).to_le_bytes());
            input.iter().for_each(|w| out.extend_from_slice(&w.to_le_bytes()));
        }
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        for entry in &self.entries {
            out.extend_from_slice(&entry.input.to_le_bytes());
            out.extend_from_slice(&match entry.kind {
                Kind::Honest => [0, 0],
                Kind::Forged => [1, 0],
                Kind::Replayed { back } => [2, back],
            });
        }
        out
    }

    /// The input of a session-opening entry.
    pub fn input(&self, entry: &Entry) -> &[u32] {
        &self.inputs[entry.input as usize]
    }
}

/// Keeps the workloads' streams apart for one seed.
fn workload_salt(workload: Workload) -> u64 {
    match workload {
        Workload::PumpLoops => 0x7075_6d70,
        Workload::FibCalls => 0x6669_6273,
        Workload::SearchChurn => 0x7365_6172,
    }
}

fn honest(order: Vec<u32>) -> Vec<Entry> {
    order.into_iter().map(|input| Entry { input, kind: Kind::Honest }).collect()
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Uniform in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

fn search_schedule(rng: &mut StdRng) -> (Vec<Vec<u32>>, Vec<Entry>) {
    let mut arrays = std::collections::BTreeSet::new();
    let mut inputs = Vec::with_capacity(SEARCH_DB_ENTRIES);
    while inputs.len() < SEARCH_DB_ENTRIES {
        let mut array: Vec<u32> = (0..SEARCH_ARRAY_LEN).map(|_| rng.gen_range(0..1000)).collect();
        array.sort_unstable();
        array.dedup();
        if array.len() == SEARCH_ARRAY_LEN && arrays.insert(array.clone()) {
            inputs.push(array);
        }
    }

    // Zipf popularity over a seeded rank -> input permutation.  The target's
    // position follows the rank, so the popularity-weighted probe path (and
    // with it the simulated work per session) is the same for every seed.
    let mut by_rank: Vec<u32> = (0..SEARCH_DB_ENTRIES as u32).collect();
    shuffle(rng, &mut by_rank);
    for (rank, &index) in by_rank.iter().enumerate() {
        let array = &mut inputs[index as usize];
        array.insert(0, array[rank % SEARCH_ARRAY_LEN]);
    }
    let mut cumulative = Vec::with_capacity(SEARCH_DB_ENTRIES);
    let mut total = 0.0;
    for rank in 0..SEARCH_DB_ENTRIES {
        total += 1.0 / ((rank + 1) as f64).powf(SEARCH_ZIPF_S);
        cumulative.push(total);
    }

    let mut kinds: Vec<Kind> = std::iter::repeat_n(Kind::Forged, SEARCH_FORGED)
        .chain((0..SEARCH_REPLAYED).map(|_| Kind::Replayed { back: 0 }))
        .chain(std::iter::repeat(Kind::Honest))
        .take(SEARCH_PASS - SEARCH_HONEST_LEAD)
        .collect();
    shuffle(rng, &mut kinds);
    kinds.splice(0..0, std::iter::repeat_n(Kind::Honest, SEARCH_HONEST_LEAD));
    let entries = kinds
        .into_iter()
        .map(|kind| match kind {
            Kind::Replayed { .. } => {
                Entry { input: 0, kind: Kind::Replayed { back: rng.gen_range(0..REPLAY_DEPTH) } }
            }
            kind => {
                let u = unit(rng) * total;
                let rank = cumulative.partition_point(|&c| c <= u).min(SEARCH_DB_ENTRIES - 1);
                Entry { input: by_rank[rank], kind }
            }
        })
        .collect();
    (inputs, entries)
}
