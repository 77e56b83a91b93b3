//! Loop monitor (④⑤⑥⑧ in Fig. 3).
//!
//! The loop monitor tracks program loops (including nested loops) identified at run
//! time by the branch filter's link-register heuristic, encodes each executed path
//! inside a loop with the [`crate::path_encoder::PathEncoder`], counts path
//! iterations in the [`crate::loop_counter_mem::LoopCounterMemory`], re-encodes
//! indirect-branch targets via the [`crate::cam::IndirectTargetCam`], and — on loop
//! exit — asks the metadata generator to assemble the loop's
//! [`crate::metadata::LoopRecord`].
//!
//! Its contract with the engine is expressed by [`MonitorOutput`]: which `(Src,
//! Dest)` pairs must go to the hash engine *now*, which loop records completed, and
//! which statistics to bump.

use crate::branch_filter::BranchEvent;
use crate::branches_mem::{BranchPair, BranchesMemory};
use crate::cam::IndirectTargetCam;
use crate::config::EngineConfig;
use crate::loop_counter_mem::{LoopCounterMemory, PathObservation};
use crate::metadata::{IndirectTargetRecord, LoopRecord, PathRecord};
use crate::path_encoder::PathEncoder;
use lofat_rv32::trace::BranchKind;

/// One tracked loop activation.
///
/// The three fields probed by the per-instruction exit check (`entry`, `exit`,
/// `pending_calls`) lead the struct so [`LoopMonitor::needs_exit_check`] touches
/// a single cache line of the stack top.
#[derive(Debug, Clone)]
struct ActiveLoop {
    /// Loop entry node address (target of the backward branch).
    entry: u32,
    /// Loop exit node address (the block following the backward branch).
    exit: u32,
    /// Outstanding calls made from inside the loop; while non-zero the executed code
    /// belongs to a callee and must not affect loop tracking or exit detection.
    pending_calls: usize,
    /// Nesting depth (1 = outermost tracked loop).
    depth: usize,
    encoder: PathEncoder,
    counters: LoopCounterMemory,
    cam: IndirectTargetCam,
    current_path: BranchesMemory,
    /// Set if any iteration overflowed the path encoder.
    overflowed: bool,
}

impl ActiveLoop {
    fn new(entry: u32, exit: u32, depth: usize, config: &EngineConfig) -> Self {
        Self {
            entry,
            exit,
            depth,
            encoder: PathEncoder::new(config.max_path_bits),
            counters: LoopCounterMemory::new(),
            cam: IndirectTargetCam::new(config.indirect_target_bits),
            current_path: BranchesMemory::new(),
            pending_calls: 0,
            overflowed: false,
        }
    }

    /// Re-arms a recycled activation for a fresh loop entry, keeping the heap
    /// capacity its buffers grew on previous activations.
    fn reset(&mut self, entry: u32, exit: u32, depth: usize) {
        self.entry = entry;
        self.exit = exit;
        self.depth = depth;
        self.pending_calls = 0;
        self.overflowed = false;
        self.encoder.reset();
        self.counters.clear();
        self.cam.clear();
        debug_assert!(self.current_path.is_empty(), "recycled activation still holds pairs");
    }

    fn contains(&self, pc: u32) -> bool {
        pc >= self.entry && pc < self.exit
    }

    /// Finishes this activation: pushes its [`LoopRecord`] and any leftover
    /// partial-path pairs into `out` and bumps the exit counters.  The activation
    /// is left drained so the monitor can recycle it.
    ///
    /// The leftover pairs of a partial (uncounted) path must still be covered by
    /// the authenticator, so they land in `out.hash_now` for direct hashing.
    fn finish_into(&mut self, out: &mut MonitorOutput) {
        let record = LoopRecord {
            entry: self.entry,
            exit: self.exit,
            nesting_depth: self.depth,
            paths: self
                .counters
                .entries_slice()
                .iter()
                .enumerate()
                .map(|(order, &(path_id, iterations))| PathRecord {
                    path_id,
                    first_occurrence: order,
                    iterations,
                })
                .collect(),
            indirect_targets: self
                .cam
                .table()
                .into_iter()
                .map(|(target, code)| IndirectTargetRecord { target, code })
                .collect(),
            encoder_overflowed: self.overflowed,
        };
        out.cam_overflows += self.cam.overflows();
        self.current_path.drain_into(&mut out.hash_now);
        out.completed.push(record);
        out.loops_exited += 1;
    }
}

/// What the engine must do as a result of a loop-monitor step.
///
/// The engine owns one `MonitorOutput` and threads it through
/// [`LoopMonitor::check_exits`], [`LoopMonitor::on_branch`] and
/// [`LoopMonitor::finalize`] as a reusable scratch buffer: each call clears the
/// previous contents (retaining the `Vec` capacities), so the steady-state trace
/// path performs no per-instruction heap allocation.
#[derive(Debug, Clone, Default)]
pub struct MonitorOutput {
    /// `(Src, Dest)` pairs to forward to the hash engine now.
    pub hash_now: Vec<BranchPair>,
    /// Loop records completed by this step (in exit order).
    pub completed: Vec<LoopRecord>,
    /// Number of loops that exited in this step.
    pub loops_exited: usize,
    /// Number of loops entered in this step.
    pub loops_entered: usize,
    /// Number of completed loop iterations counted in this step.
    pub iterations_counted: u64,
    /// Number of newly observed loop paths in this step.
    pub new_paths: u64,
    /// Number of pairs whose hashing was skipped thanks to loop compression.
    pub pairs_compressed: u64,
    /// Number of CAM overflow events observed when loops exited in this step.
    pub cam_overflows: u64,
    /// Number of loop entries that were not tracked because the nesting capacity was
    /// exhausted.
    pub untracked_loops: u64,
}

impl MonitorOutput {
    /// Creates an empty output buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all counters and empties both buffers, retaining their capacity.
    pub fn clear(&mut self) {
        self.hash_now.clear();
        self.completed.clear();
        self.loops_exited = 0;
        self.loops_entered = 0;
        self.iterations_counted = 0;
        self.new_paths = 0;
        self.pairs_compressed = 0;
        self.cam_overflows = 0;
        self.untracked_loops = 0;
    }
}

/// Inline copy of the innermost loop's exit-probe state.
///
/// [`LoopMonitor::needs_exit_check`] runs once per retired instruction; reading
/// these plain fields avoids chasing the stack's heap pointer on that path.  The
/// cache is refreshed at the end of every mutating monitor call.
#[derive(Debug, Clone, Copy, Default)]
struct TopProbe {
    /// `true` while at least one loop is tracked.
    active: bool,
    /// `true` while the innermost loop is suspended inside a callee.
    in_callee: bool,
    /// Innermost loop entry address.
    entry: u32,
    /// Innermost loop exit address (exclusive).
    exit: u32,
}

/// The loop monitor.
#[derive(Debug, Clone)]
pub struct LoopMonitor {
    config: EngineConfig,
    stack: Vec<ActiveLoop>,
    /// Deepest simultaneous nesting observed.
    max_nesting_observed: usize,
    /// Cached innermost-loop probe state (see [`TopProbe`]).
    probe: TopProbe,
    /// Recycled activations: the buffers of exited loops keep their capacity, so
    /// re-entering a loop in steady state allocates nothing.  Bounded by the
    /// configured nesting depth.
    spares: Vec<ActiveLoop>,
}

impl LoopMonitor {
    /// Creates an idle loop monitor.
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            stack: Vec::new(),
            max_nesting_observed: 0,
            probe: TopProbe::default(),
            spares: Vec::new(),
        }
    }

    /// Refreshes the [`TopProbe`] cache from the stack top.  Every public
    /// mutating entry point ends with this call.
    fn refresh_probe(&mut self) {
        self.probe = match self.stack.last() {
            None => TopProbe::default(),
            Some(top) => TopProbe {
                active: true,
                in_callee: top.pending_calls > 0,
                entry: top.entry,
                exit: top.exit,
            },
        };
    }

    /// Returns `true` while at least one loop is being tracked.
    pub fn is_tracking(&self) -> bool {
        !self.stack.is_empty()
    }

    /// Current nesting depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Deepest simultaneous nesting observed so far.
    pub fn max_nesting_observed(&self) -> usize {
        self.max_nesting_observed
    }

    /// Returns `true` if [`LoopMonitor::check_exits`] would close at least one
    /// loop for a retirement at `pc`.
    ///
    /// This is the engine's per-instruction fast path: a single stack-top probe
    /// with no output-buffer traffic, so the (overwhelmingly common) "nothing
    /// exits" case costs a handful of compares.
    #[inline]
    pub fn needs_exit_check(&self, pc: u32) -> bool {
        let probe = &self.probe;
        debug_assert_eq!(probe.active, !self.stack.is_empty(), "stale exit probe");
        probe.active && !probe.in_callee && !(pc >= probe.entry && pc < probe.exit)
    }

    /// Loop-exit detection, run for every retired instruction *before* the branch is
    /// processed: execution proceeding to or past the exit node of the innermost
    /// tracked loop (and not inside a callee) terminates that loop (§5.1).
    ///
    /// `output` is cleared first and then filled (reusable scratch).
    pub fn check_exits(&mut self, pc: u32, output: &mut MonitorOutput) {
        output.clear();
        while let Some(top) = self.stack.last() {
            if top.pending_calls > 0 || top.contains(pc) {
                break;
            }
            let mut finished = self.stack.pop().expect("non-empty");
            finished.finish_into(output);
            self.spares.push(finished);
        }
        self.refresh_probe();
    }

    /// Returns `true` if `event` passes straight through: no loop is tracked
    /// and the event does not open one, so [`LoopMonitor::on_branch`] would
    /// only forward its pair for hashing and change no state.  The engine
    /// submits such pairs itself, skipping the output scratch.
    #[inline]
    pub fn is_pass_through(&self, event: &BranchEvent) -> bool {
        self.stack.is_empty() && !event.loop_heuristic
    }

    /// Processes one filtered control-flow event.
    ///
    /// `output` is cleared first and then filled (reusable scratch).
    pub fn on_branch(&mut self, event: &BranchEvent, output: &mut MonitorOutput) {
        output.clear();

        // Inside a callee launched from the tracked loop: maintain the call depth and
        // hash the pair directly — callee control flow is not path-compressed.
        if let Some(top) = self.stack.last_mut() {
            if top.pending_calls > 0 {
                if event.kind.is_linking() {
                    top.pending_calls += 1;
                } else if event.kind == BranchKind::Return {
                    top.pending_calls -= 1;
                }
                output.hash_now.push(event.pair);
                self.refresh_probe();
                return;
            }
        }

        let inside = self.stack.last().map(|top| top.contains(event.pair.src)).unwrap_or(false);
        if inside {
            self.on_branch_inside_loop(event, output);
        } else {
            self.on_branch_outside_loop(event, output);
        }
        self.refresh_probe();
    }

    /// Finalizes all still-active loops (end of the attested execution).
    ///
    /// `output` is cleared first and then filled (reusable scratch).
    pub fn finalize(&mut self, output: &mut MonitorOutput) {
        output.clear();
        while let Some(mut active) = self.stack.pop() {
            active.finish_into(output);
            self.spares.push(active);
        }
        self.refresh_probe();
    }

    fn on_branch_inside_loop(&mut self, event: &BranchEvent, output: &mut MonitorOutput) {
        // Calls made from inside the loop: track the call depth, hash directly.
        if event.kind.is_linking() {
            let top = self.stack.last_mut().expect("inside loop");
            top.pending_calls += 1;
            if event.kind == BranchKind::IndirectCall {
                let code = top.cam.encode(event.target);
                top.encoder.push_code(code, self.config.indirect_target_bits);
            }
            output.hash_now.push(event.pair);
            return;
        }

        // Back edge to the entry of the *innermost* tracked loop?  This is the
        // steady-state iteration event, dispatched first with no stack scan.
        let innermost_entry = self.stack.last().expect("inside loop").entry;
        let backward = event.taken && event.kind != BranchKind::Return;
        if backward && event.target == innermost_entry {
            self.complete_iteration(event, output);
            return;
        }

        // Back edge to the entry of an *outer* tracked loop?
        if backward && self.stack.iter().any(|l| l.entry == event.target) {
            // Abandon any inner loops the transfer skips over (e.g. `continue` of an
            // outer loop from inside an inner one).
            while self.stack.last().map(|l| l.entry != event.target).unwrap_or(false) {
                let mut finished = self.stack.pop().expect("non-empty");
                finished.finish_into(output);
                self.spares.push(finished);
            }
            self.complete_iteration(event, output);
            return;
        }

        // A backward taken non-linking branch to a *new* entry inside the loop body
        // opens a nested loop.
        if event.loop_heuristic && self.stack.iter().all(|l| l.entry != event.target) {
            let indirect_bits = self.config.indirect_target_bits;
            {
                let top = self.stack.last_mut().expect("inside loop");
                Self::record_decision(top, event, indirect_bits);
            }
            self.enter_loop(event, output);
            return;
        }

        // Ordinary decision inside the loop body.
        let indirect_bits = self.config.indirect_target_bits;
        let top = self.stack.last_mut().expect("inside loop");
        Self::record_decision(top, event, indirect_bits);
    }

    fn on_branch_outside_loop(&mut self, event: &BranchEvent, output: &mut MonitorOutput) {
        // Every non-loop branch is hashed directly (③ non_loops ctrl in Fig. 3).
        output.hash_now.push(event.pair);
        if event.loop_heuristic {
            self.enter_loop(event, output);
        }
    }

    /// Records the closing back edge of one completed iteration of the (now
    /// innermost) loop: encodes the final decision, looks up the path counter and
    /// either compresses the buffered pairs or forwards them for hashing.
    fn complete_iteration(&mut self, event: &BranchEvent, output: &mut MonitorOutput) {
        let indirect_bits = self.config.indirect_target_bits;
        let compression = self.config.loop_compression;
        let top = self.stack.last_mut().expect("target loop present");
        Self::record_decision(top, event, indirect_bits);
        let path_id = top.encoder.path_id();
        if top.encoder.overflowed() {
            top.overflowed = true;
        }
        let observation = top.counters.record(path_id);
        output.iterations_counted += 1;
        match observation {
            PathObservation::NewPath { .. } => {
                output.new_paths += 1;
                top.current_path.drain_into(&mut output.hash_now);
            }
            PathObservation::Repeated { .. } => {
                if compression {
                    output.pairs_compressed += top.current_path.discard() as u64;
                } else {
                    top.current_path.drain_into(&mut output.hash_now);
                }
            }
        }
        top.encoder.reset();
    }

    /// Pushes path-encoder bits / CAM codes and buffers the pair for the current path.
    fn record_decision(top: &mut ActiveLoop, event: &BranchEvent, indirect_bits: u32) {
        match event.kind {
            BranchKind::Conditional => top.encoder.push_bit(event.taken),
            BranchKind::DirectJump => top.encoder.push_bit(true),
            BranchKind::IndirectJump | BranchKind::Return => {
                let code = top.cam.encode(event.target);
                top.encoder.push_code(code, indirect_bits);
            }
            BranchKind::DirectCall | BranchKind::IndirectCall => {
                // Calls are handled by the caller (pending_calls); nothing to encode.
            }
        }
        if top.encoder.overflowed() {
            top.overflowed = true;
        }
        top.current_path.push(event.pair);
    }

    fn enter_loop(&mut self, event: &BranchEvent, output: &mut MonitorOutput) {
        if self.stack.len() >= self.config.max_nesting_depth {
            output.untracked_loops += 1;
            return;
        }
        let depth = self.stack.len() + 1;
        let activation = match self.spares.pop() {
            Some(mut husk) => {
                husk.reset(event.target, event.pair.src + 4, depth);
                husk
            }
            None => ActiveLoop::new(event.target, event.pair.src + 4, depth, &self.config),
        };
        self.stack.push(activation);
        self.max_nesting_observed = self.max_nesting_observed.max(self.stack.len());
        output.loops_entered += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lofat_rv32::trace::BranchKind;

    fn event(src: u32, target: u32, kind: BranchKind, taken: bool) -> BranchEvent {
        let dest = if taken { target } else { src + 4 };
        BranchEvent {
            pair: BranchPair::new(src, dest),
            kind,
            taken,
            target,
            loop_heuristic: taken
                && target <= src
                && !kind.is_linking()
                && kind != BranchKind::Return,
        }
    }

    fn config() -> EngineConfig {
        EngineConfig::default()
    }

    /// Test shims preserving the old value-returning call style on top of the
    /// reusable scratch-buffer API.
    fn on_branch(monitor: &mut LoopMonitor, event: &BranchEvent) -> MonitorOutput {
        let pass_through = monitor.is_pass_through(event);
        let depth = monitor.depth();
        let mut out = MonitorOutput::new();
        monitor.on_branch(event, &mut out);
        if pass_through {
            // The engine submits a pass-through pair itself, so `on_branch`
            // must do nothing else with it.
            assert_eq!(out.hash_now, vec![event.pair], "pass-through only forwards its pair");
            assert_eq!((out.loops_entered, out.untracked_loops), (0, 0));
            assert_eq!(monitor.depth(), depth);
        }
        out
    }

    fn check_exits(monitor: &mut LoopMonitor, pc: u32) -> MonitorOutput {
        assert_eq!(
            monitor.needs_exit_check(pc),
            {
                let mut probe = MonitorOutput::new();
                let mut clone = monitor.clone();
                clone.check_exits(pc, &mut probe);
                probe.loops_exited > 0
            },
            "needs_exit_check must predict whether check_exits closes a loop"
        );
        let mut out = MonitorOutput::new();
        monitor.check_exits(pc, &mut out);
        out
    }

    fn finalize(monitor: &mut LoopMonitor) -> MonitorOutput {
        let mut out = MonitorOutput::new();
        monitor.finalize(&mut out);
        out
    }

    #[test]
    fn pass_through_needs_no_loop_and_no_heuristic() {
        let mut monitor = LoopMonitor::new(config());
        let forward = event(0x1000, 0x1040, BranchKind::Conditional, true);
        let back = event(0x1010, 0x1008, BranchKind::Conditional, true);
        assert!(monitor.is_pass_through(&forward));
        assert!(!monitor.is_pass_through(&back), "a loop heuristic may open a loop");
        on_branch(&mut monitor, &back);
        assert!(!monitor.is_pass_through(&forward), "a tracked loop sees every event");
    }

    #[test]
    fn loop_entry_and_iteration_counting() {
        let mut monitor = LoopMonitor::new(config());
        // Backward branch at 0x1010 to 0x1008 seen 4 times, then fall out.
        let back = event(0x1010, 0x1008, BranchKind::Conditional, true);

        // First occurrence: non-loop branch, hashed directly, loop entered.
        let out = on_branch(&mut monitor, &back);
        assert_eq!(out.hash_now.len(), 1);
        assert_eq!(out.loops_entered, 1);
        assert!(monitor.is_tracking());

        // Three more iterations: first completes a new path, the rest are compressed.
        let mut new_paths = 0;
        let mut compressed = 0;
        for _ in 0..3 {
            let out = check_exits(&mut monitor, 0x1008);
            assert_eq!(out.loops_exited, 0);
            let out = on_branch(&mut monitor, &back);
            new_paths += out.new_paths;
            compressed += out.pairs_compressed;
        }
        assert_eq!(new_paths, 1);
        assert!(compressed > 0);

        // Execution proceeds past the exit node → loop exits with one record.
        let out = check_exits(&mut monitor, 0x1014);
        assert_eq!(out.loops_exited, 1);
        assert_eq!(out.completed.len(), 1);
        let record = &out.completed[0];
        assert_eq!(record.entry, 0x1008);
        assert_eq!(record.exit, 0x1014);
        assert_eq!(record.total_iterations(), 3);
        assert_eq!(record.distinct_paths(), 1);
        assert!(!monitor.is_tracking());
    }

    #[test]
    fn compression_can_be_disabled() {
        let mut cfg = config();
        cfg.loop_compression = false;
        let mut monitor = LoopMonitor::new(cfg);
        let back = event(0x1010, 0x1008, BranchKind::Conditional, true);
        on_branch(&mut monitor, &back);
        let mut hashed = 0;
        for _ in 0..5 {
            check_exits(&mut monitor, 0x1008);
            let out = on_branch(&mut monitor, &back);
            hashed += out.hash_now.len();
            assert_eq!(out.pairs_compressed, 0);
        }
        assert_eq!(hashed, 5, "without compression every iteration's pair is hashed");
    }

    #[test]
    fn nested_loops_tracked_up_to_capacity() {
        let mut cfg = config();
        cfg.max_nesting_depth = 2;
        let mut monitor = LoopMonitor::new(cfg);
        // Outer loop back edge at 0x1100 → 0x1000, inner at 0x1080 → 0x1040, and a
        // third level at 0x1060 → 0x1050 that exceeds the capacity.
        on_branch(&mut monitor, &event(0x1100, 0x1000, BranchKind::Conditional, true));
        check_exits(&mut monitor, 0x1000);
        let out = on_branch(&mut monitor, &event(0x1080, 0x1040, BranchKind::Conditional, true));
        assert_eq!(out.loops_entered, 1);
        assert_eq!(monitor.depth(), 2);
        check_exits(&mut monitor, 0x1040);
        let out = on_branch(&mut monitor, &event(0x1060, 0x1050, BranchKind::Conditional, true));
        assert_eq!(out.loops_entered, 0);
        assert_eq!(out.untracked_loops, 1);
        assert_eq!(monitor.max_nesting_observed(), 2);
    }

    #[test]
    fn calls_inside_loop_suppress_exit_detection() {
        let mut monitor = LoopMonitor::new(config());
        // Enter a loop spanning [0x1000, 0x1020).
        on_branch(&mut monitor, &event(0x101c, 0x1000, BranchKind::Conditional, true));
        // Call a function at 0x2000 from inside the loop.
        let call = event(0x1008, 0x2000, BranchKind::DirectCall, true);
        let out = on_branch(&mut monitor, &call);
        assert_eq!(out.hash_now.len(), 1, "call pair is hashed directly");
        // Executing callee code far outside the loop must not exit the loop.
        let out = check_exits(&mut monitor, 0x2000);
        assert_eq!(out.loops_exited, 0);
        // The callee's own branches are hashed directly.
        let callee_branch = event(0x2008, 0x200c, BranchKind::Conditional, false);
        let out = on_branch(&mut monitor, &callee_branch);
        assert_eq!(out.hash_now.len(), 1);
        // Return back into the loop re-enables exit detection.
        let ret = event(0x2010, 0x100c, BranchKind::Return, true);
        on_branch(&mut monitor, &ret);
        let out = check_exits(&mut monitor, 0x1030);
        assert_eq!(out.loops_exited, 1);
    }

    #[test]
    fn indirect_branches_in_loops_use_cam_codes() {
        let mut monitor = LoopMonitor::new(config());
        on_branch(&mut monitor, &event(0x1040, 0x1000, BranchKind::Conditional, true));
        // An indirect jump inside the loop body.
        let indirect = event(0x1010, 0x1020, BranchKind::IndirectJump, true);
        on_branch(&mut monitor, &indirect);
        // Complete the iteration, then exit and inspect the record.
        on_branch(&mut monitor, &event(0x1040, 0x1000, BranchKind::Conditional, true));
        let out = check_exits(&mut monitor, 0x2000);
        let record = &out.completed[0];
        assert_eq!(record.indirect_targets.len(), 1);
        assert_eq!(record.indirect_targets[0].target, 0x1020);
        assert_eq!(record.indirect_targets[0].code, 1);
        assert_eq!(record.total_iterations(), 1);
    }

    #[test]
    fn finalize_flushes_active_loops() {
        let mut monitor = LoopMonitor::new(config());
        on_branch(&mut monitor, &event(0x1010, 0x1008, BranchKind::Conditional, true));
        let out = finalize(&mut monitor);
        assert_eq!(out.loops_exited, 1);
        assert_eq!(out.completed.len(), 1);
        assert!(!monitor.is_tracking());
    }

    #[test]
    fn continue_of_outer_loop_closes_inner_loop() {
        let mut monitor = LoopMonitor::new(config());
        // Outer loop [0x1000, 0x1104), inner loop [0x1040, 0x1084).
        on_branch(&mut monitor, &event(0x1100, 0x1000, BranchKind::Conditional, true));
        check_exits(&mut monitor, 0x1000);
        on_branch(&mut monitor, &event(0x1080, 0x1040, BranchKind::Conditional, true));
        assert_eq!(monitor.depth(), 2);
        // From inside the inner loop, jump straight back to the outer entry.
        let out = on_branch(&mut monitor, &event(0x1060, 0x1000, BranchKind::DirectJump, true));
        assert_eq!(out.loops_exited, 1, "inner loop is closed");
        assert_eq!(out.iterations_counted, 1, "outer loop iteration is counted");
        assert_eq!(monitor.depth(), 1);
    }

    /// A recycled activation must not inherit the previous loop's CAM overflow
    /// count (regression test for the spares-pool counter reset).
    #[test]
    fn recycled_activation_does_not_inherit_cam_overflows() {
        let mut cfg = config();
        cfg.indirect_target_bits = 1; // CAM capacity 1: second target overflows
        let mut monitor = LoopMonitor::new(cfg);

        // Loop A: two distinct indirect jumps inside → one CAM overflow.
        on_branch(&mut monitor, &event(0x1040, 0x1000, BranchKind::Conditional, true));
        on_branch(&mut monitor, &event(0x1010, 0x1020, BranchKind::IndirectJump, true));
        on_branch(&mut monitor, &event(0x1014, 0x1024, BranchKind::IndirectJump, true));
        let out = check_exits(&mut monitor, 0x2000);
        assert_eq!(out.loops_exited, 1);
        assert_eq!(out.cam_overflows, 1, "loop A overflowed its 1-entry CAM");

        // Loop B recycles A's activation and runs no indirect branches at all.
        on_branch(&mut monitor, &event(0x3040, 0x3000, BranchKind::Conditional, true));
        on_branch(&mut monitor, &event(0x3040, 0x3000, BranchKind::Conditional, true));
        let out = check_exits(&mut monitor, 0x4000);
        assert_eq!(out.loops_exited, 1);
        assert_eq!(out.cam_overflows, 0, "recycled activation re-reported stale overflows");
    }
}
