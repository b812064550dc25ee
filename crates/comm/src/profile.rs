//! Per-rank, per-phase accounting of wall time, communication volume and
//! memory high-water.
//!
//! ELBA's evaluation (Figs. 4–6) is organized around named pipeline phases
//! (`CountKmer`, `DetectOverlap`, `Alignment`, `TrReduction`,
//! `ExtractContig`). Every [`crate::Comm`] operation books its bytes and
//! blocking time into the phase that is active on its rank, so a run
//! yields the exact ingredients those figures plot: max-over-ranks wall
//! time per phase, communication fraction, and message volumes. Each
//! rank's profile also keeps the tracked bytes resident on that rank, so
//! stages that charge their resident buffers (via
//! [`crate::Comm::mem_charge`]) raise the memory high-water of every
//! active phase ([`PhaseProfile::mem_hw`]): the memory column of the run
//! report, the observable behind ELBA's bounded-memory SpGEMM claim.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use elba_mem::MemTracker;

use crate::msg::CommMsg;
use crate::runtime::op;
use crate::transport::wire::{WireError, WireReader};

/// Lock a shared profile, tolerating poison: a panicking rank must not
/// turn its unwind into a second panic inside a `PhaseGuard` drop.
pub(crate) fn lock_profile(profile: &Mutex<Profile>) -> MutexGuard<'_, Profile> {
    profile.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Name used for activity (time, traffic and memory) recorded outside any
/// explicit phase.
pub const UNPHASED: &str = "(unphased)";

/// Accounting for a single named phase on one rank.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// Wall-clock seconds spent inside the phase.
    pub wall_secs: f64,
    /// Seconds spent blocked inside *blocking* communication calls.
    pub comm_secs: f64,
    /// Seconds spent blocked inside non-blocking requests (`irecv`).
    /// Kept separate from `comm_secs`: when communication is overlapped
    /// with computation this bucket shrinks toward zero while the same
    /// bytes still flow.
    pub wait_secs: f64,
    /// Wall seconds the rank spent inside `elba-par` maps that ran on
    /// two or more workers (the SpGEMM stage multiply, the masked
    /// product, the x-drop alignment batch, the k-mer scan, contig
    /// materialization). A subset of the phase's wall time — the rank
    /// thread blocks while its workers run. A map on one worker books
    /// nothing, so serial profiles read 0 and the threading win is
    /// readable as `par-s` shrinking while bytes stay identical. Workers
    /// never enter the comm layer; only the owning rank thread records.
    pub par_secs: f64,
    /// Point-to-point messages sent.
    pub p2p_msgs: u64,
    /// Point-to-point bytes sent.
    pub p2p_bytes: u64,
    /// Collective calls: (operation, calls, bytes sent by this rank).
    pub collectives: Vec<(&'static str, u64, u64)>,
    /// Most tracked bytes resident on this rank while the phase was
    /// active. Bytes charged in an earlier phase and still resident
    /// count here too (residency is what a cap bounds), and a peak inside
    /// a nested phase counts toward every enclosing one.
    pub mem_hw: u64,
}

impl PhaseProfile {
    /// Total bytes this rank pushed into the network during the phase.
    pub fn bytes_sent(&self) -> u64 {
        self.p2p_bytes + self.collectives.iter().map(|&(_, _, b)| b).sum::<u64>()
    }

    /// Total collective invocations in the phase.
    pub fn coll_calls(&self) -> u64 {
        self.collectives.iter().map(|&(_, c, _)| c).sum()
    }

    fn merge_coll(&mut self, op: &'static str, bytes: usize) {
        if let Some(entry) = self.collectives.iter_mut().find(|(name, _, _)| *name == op) {
            entry.1 += 1;
            entry.2 += bytes as u64;
        } else {
            self.collectives.push((op, 1, bytes as u64));
        }
    }
}

/// Phase accounting for one rank. Phases appear in first-entered order.
#[derive(Debug, Clone)]
pub struct Profile {
    rank: usize,
    phases: Vec<(String, PhaseProfile)>,
    stack: Vec<usize>,
    /// Tracked bytes resident on this rank now.
    resident: u64,
    /// Shared-block charges held by this rank: allocation address →
    /// (live references, bytes charged once).
    shared: HashMap<usize, (usize, u64)>,
}

impl Profile {
    pub(crate) fn new(rank: usize) -> Self {
        Profile {
            rank,
            phases: Vec::new(),
            stack: Vec::new(),
            resident: 0,
            shared: HashMap::new(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Tracked bytes resident on this rank now. Public for the
    /// single-charge tests of `crates/comm/tests/prop_shared_bcast.rs`.
    pub fn resident_bytes(&self) -> u64 {
        self.resident
    }

    /// Phases recorded on this rank, in first-entered order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, &PhaseProfile)> {
        self.phases.iter().map(|(name, p)| (name.as_str(), p))
    }

    /// Look up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseProfile> {
        self.phases.iter().find(|(n, _)| n == name).map(|(_, p)| p)
    }

    fn index_of(&mut self, name: &str) -> usize {
        if let Some(idx) = self.phases.iter().position(|(n, _)| n == name) {
            idx
        } else {
            self.phases.push((name.to_owned(), PhaseProfile::default()));
            self.phases.len() - 1
        }
    }

    fn current_mut(&mut self) -> &mut PhaseProfile {
        let idx = match self.stack.last() {
            Some(&idx) => idx,
            None => self.index_of(UNPHASED),
        };
        &mut self.phases[idx].1
    }

    pub(crate) fn record_p2p(&mut self, bytes: usize) {
        let phase = self.current_mut();
        phase.p2p_msgs += 1;
        phase.p2p_bytes += bytes as u64;
    }

    pub(crate) fn record_coll(&mut self, op: &'static str, bytes: usize) {
        self.current_mut().merge_coll(op, bytes);
    }

    pub(crate) fn record_comm_time(&mut self, secs: f64) {
        self.current_mut().comm_secs += secs;
    }

    pub(crate) fn record_wait_time(&mut self, secs: f64) {
        self.current_mut().wait_secs += secs;
    }

    pub(crate) fn record_par_time(&mut self, secs: f64) {
        self.current_mut().par_secs += secs;
    }

    /// Raise the memory high-water of every active phase (UNPHASED when
    /// none is) to `candidate` bytes.
    fn raise_mem_hw(&mut self, candidate: u64) {
        if self.stack.is_empty() {
            let hw = &mut self.current_mut().mem_hw;
            *hw = (*hw).max(candidate);
        }
        for &idx in &self.stack {
            let hw = &mut self.phases[idx].1.mem_hw;
            *hw = (*hw).max(candidate);
        }
    }

    /// Charge `bytes` as resident until the matching [`Profile::release`].
    pub(crate) fn charge(&mut self, bytes: u64) {
        self.resident += bytes;
        self.raise_mem_hw(self.resident);
    }

    /// Release bytes previously charged.
    pub(crate) fn release(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.resident, "releasing more than charged");
        self.resident = self.resident.saturating_sub(bytes);
    }

    /// Book a transient spike of `bytes` on top of the resident bytes,
    /// without holding it.
    pub(crate) fn record_transient(&mut self, bytes: u64) {
        self.raise_mem_hw(self.resident + bytes);
    }

    /// Charge a *shared* block identified by its allocation address
    /// (`key`): the first reference this rank takes charges `bytes`,
    /// every further reference to the same key only bumps a refcount —
    /// the single-charge rule for `Arc`-shared broadcast payloads. Pair
    /// with [`Profile::release_shared`].
    pub(crate) fn charge_shared(&mut self, key: usize, bytes: u64) {
        let entry = self.shared.entry(key).or_insert((0, 0));
        if entry.0 == 0 {
            entry.1 = bytes;
            self.resident += bytes;
        }
        entry.0 += 1;
        self.raise_mem_hw(self.resident);
    }

    /// Drop one reference to a shared block; the bytes release when the
    /// last reference goes.
    pub(crate) fn release_shared(&mut self, key: usize) {
        let entry = self
            .shared
            .get_mut(&key)
            .expect("releasing a shared block that was never charged");
        entry.0 -= 1;
        if entry.0 == 0 {
            let bytes = entry.1;
            self.shared.remove(&key);
            self.release(bytes);
        }
    }

    /// Enter a named phase; bytes already resident count toward it
    /// immediately.
    fn enter(&mut self, name: &str) -> usize {
        let idx = self.index_of(name);
        self.stack.push(idx);
        self.raise_mem_hw(self.resident);
        idx
    }

    /// Serialize the profile for a cross-process gather (`elba launch`
    /// workers ship their profiles to rank 0 as frames). Phase and
    /// collective-op order is preserved exactly, so a decoded profile
    /// aggregates identically to the original.
    pub fn wire_encode(&self, out: &mut Vec<u8>) {
        (self.rank as u64).wire_encode(out);
        (self.phases.len() as u64).wire_encode(out);
        for (name, p) in &self.phases {
            name.wire_encode(out);
            p.wall_secs.wire_encode(out);
            p.comm_secs.wire_encode(out);
            p.wait_secs.wire_encode(out);
            p.par_secs.wire_encode(out);
            p.p2p_msgs.wire_encode(out);
            p.p2p_bytes.wire_encode(out);
            p.mem_hw.wire_encode(out);
            (p.collectives.len() as u64).wire_encode(out);
            for &(op, calls, bytes) in &p.collectives {
                op.to_owned().wire_encode(out);
                calls.wire_encode(out);
                bytes.wire_encode(out);
            }
        }
        self.resident.wire_encode(out);
    }

    /// Inverse of [`Profile::wire_encode`].
    pub fn wire_decode(r: &mut WireReader<'_>) -> Result<Profile, WireError> {
        let rank =
            usize::try_from(u64::wire_decode(r)?).map_err(|_| WireError::Malformed("rank"))?;
        let nphases = r.read_len()?;
        let mut phases = Vec::with_capacity(nphases.min(64));
        for _ in 0..nphases {
            let name = String::wire_decode(r)?;
            let wall_secs = f64::wire_decode(r)?;
            let comm_secs = f64::wire_decode(r)?;
            let wait_secs = f64::wire_decode(r)?;
            let par_secs = f64::wire_decode(r)?;
            let p2p_msgs = u64::wire_decode(r)?;
            let p2p_bytes = u64::wire_decode(r)?;
            let mem_hw = u64::wire_decode(r)?;
            let ncoll = r.read_len()?;
            let mut collectives = Vec::with_capacity(ncoll.min(16));
            for _ in 0..ncoll {
                // Every recorded op comes from the `op` table, and workers
                // run this same binary: any other name is corruption.
                let op = op::intern(&String::wire_decode(r)?)
                    .ok_or(WireError::Malformed("collective op"))?;
                let calls = u64::wire_decode(r)?;
                let bytes = u64::wire_decode(r)?;
                collectives.push((op, calls, bytes));
            }
            phases.push((
                name,
                PhaseProfile {
                    wall_secs,
                    comm_secs,
                    wait_secs,
                    par_secs,
                    p2p_msgs,
                    p2p_bytes,
                    collectives,
                    mem_hw,
                },
            ));
        }
        let resident = u64::wire_decode(r)?;
        Ok(Profile {
            rank,
            phases,
            stack: Vec::new(),
            resident,
            shared: HashMap::new(),
        })
    }

    fn exit(&mut self, idx: usize, wall: f64) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "phase guards must nest");
        self.phases[idx].1.wall_secs += wall;
    }
}

thread_local! {
    /// Names of the phases currently active on this rank thread, for
    /// callers that need "what phase am I in?" without the profile lock
    /// — the fault layer's `@phase:` triggers
    /// ([`crate::transport::fault`]). Thread-local is exact here: a rank
    /// thread is the only one entering its comm layer (invariant 3).
    static PHASE_STACK: std::cell::RefCell<Vec<String>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Whether a phase named `name` is active (itself or as an ancestor of
/// the current subphase) on this rank thread.
pub(crate) fn phase_active(name: &str) -> bool {
    PHASE_STACK.with(|stack| stack.borrow().iter().any(|p| p == name))
}

/// RAII scope for a profiling phase; created via [`crate::Comm::phase`].
pub struct PhaseGuard {
    profile: Arc<Mutex<Profile>>,
    idx: usize,
    start: Instant,
}

impl PhaseGuard {
    pub(crate) fn enter(profile: Arc<Mutex<Profile>>, name: &str) -> Self {
        let idx = lock_profile(&profile).enter(name);
        PHASE_STACK.with(|stack| stack.borrow_mut().push(name.to_owned()));
        PhaseGuard {
            profile,
            idx,
            start: Instant::now(),
        }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        PHASE_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let wall = self.start.elapsed().as_secs_f64();
        lock_profile(&self.profile).exit(self.idx, wall);
    }
}

/// Profiles of every rank in one [`crate::Runner`] run, with the
/// aggregations the paper's figures are built from.
#[derive(Debug, Clone)]
pub struct RunProfile {
    ranks: Vec<Profile>,
}

impl RunProfile {
    pub fn new(ranks: Vec<Profile>) -> Self {
        RunProfile { ranks }
    }

    pub fn rank_profiles(&self) -> &[Profile] {
        &self.ranks
    }

    /// Phase names in first-seen order across all ranks.
    pub fn phase_names(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for rank in &self.ranks {
            for (name, _) in rank.phases() {
                if name != UNPHASED && !names.iter().any(|n| n == name) {
                    names.push(name.to_owned());
                }
            }
        }
        names
    }

    /// Max-over-ranks wall time for a phase — the number a strong-scaling
    /// plot reports (the slowest rank gates the pipeline).
    pub fn max_wall(&self, phase: &str) -> f64 {
        self.ranks
            .iter()
            .filter_map(|r| r.phase(phase))
            .map(|p| p.wall_secs)
            .fold(0.0, f64::max)
    }

    /// Max-over-ranks blocking-communication time within a phase.
    pub fn max_comm_secs(&self, phase: &str) -> f64 {
        self.ranks
            .iter()
            .filter_map(|r| r.phase(phase))
            .map(|p| p.comm_secs)
            .fold(0.0, f64::max)
    }

    /// Max-over-ranks non-blocking wait time within a phase — the time
    /// ranks spent parked in `irecv` requests. A
    /// pipelined stage that truly overlaps communication shows a small
    /// value here relative to the same stage run eagerly.
    pub fn max_wait_secs(&self, phase: &str) -> f64 {
        self.ranks
            .iter()
            .filter_map(|r| r.phase(phase))
            .map(|p| p.wait_secs)
            .fold(0.0, f64::max)
    }

    /// Max-over-ranks threaded-kernel wall time within a phase — the
    /// time ranks spent inside intra-rank parallel kernels (see
    /// [`PhaseProfile::par_secs`]). Zero for serial runs. The `par-s`
    /// column of [`RunProfile::render_table`]; public for the
    /// threaded-kernel tests of `elba-graph`.
    pub fn max_par_secs(&self, phase: &str) -> f64 {
        self.ranks
            .iter()
            .filter_map(|r| r.phase(phase))
            .map(|p| p.par_secs)
            .fold(0.0, f64::max)
    }

    /// Max-over-ranks memory high-water within a phase: the most tracked
    /// bytes any rank had resident while the phase was active. This is
    /// the number a memory budget is checked against (the biggest rank
    /// gates the claim, exactly like `max_wall` gates scaling).
    pub fn max_mem_hw(&self, phase: &str) -> u64 {
        self.ranks
            .iter()
            .filter_map(|r| r.phase(phase))
            .map(|p| p.mem_hw)
            .max()
            .unwrap_or(0)
    }

    /// Every phase's max-over-ranks memory high-water, UNPHASED included,
    /// in first-seen order: the run's memory summary. Its largest value
    /// is the run's tracked peak, the number a `--mem-budget` is checked
    /// against.
    pub fn merged_mem(&self) -> MemTracker {
        let mut merged: Vec<(String, u64)> = Vec::new();
        for (name, p) in self.ranks.iter().flat_map(Profile::phases) {
            match merged.iter_mut().find(|(n, _)| n == name) {
                Some((_, hw)) => *hw = (*hw).max(p.mem_hw),
                None => merged.push((name.to_owned(), p.mem_hw)),
            }
        }
        MemTracker::new(merged)
    }

    /// Total bytes (p2p + collectives) across all ranks in a phase.
    pub fn total_bytes(&self, phase: &str) -> u64 {
        self.ranks
            .iter()
            .filter_map(|r| r.phase(phase))
            .map(|p| p.bytes_sent())
            .sum()
    }

    /// Mean collective calls per rank in a phase.
    pub fn mean_coll_calls(&self, phase: &str) -> f64 {
        let calls: Vec<u64> = self
            .ranks
            .iter()
            .filter_map(|r| r.phase(phase))
            .map(|p| p.coll_calls())
            .collect();
        if calls.is_empty() {
            0.0
        } else {
            calls.iter().sum::<u64>() as f64 / calls.len() as f64
        }
    }

    /// Render a plain-text per-phase table (used by examples and benches).
    /// `mem-hw` is the max-over-ranks tracked-resident-byte high-water.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10} {:>12}",
            "phase", "max-wall-s", "comm-s", "wait-s", "par-s", "bytes", "colls/rank", "mem-hw"
        );
        for name in self.phase_names() {
            let _ = writeln!(
                out,
                "{:<24} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>12} {:>10.1} {:>12}",
                name,
                self.max_wall(&name),
                self.max_comm_secs(&name),
                self.max_wait_secs(&name),
                self.max_par_secs(&name),
                self.total_bytes(&name),
                self.mean_coll_calls(&name),
                self.max_mem_hw(&name)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_round_trips_over_the_wire() {
        let mut p = Profile::new(3);
        {
            let idx = p.enter("anchor");
            p.record_p2p(128);
            p.record_coll("alltoallv", 64);
            p.record_coll("bcast", 32);
            p.record_comm_time(0.25);
            p.record_wait_time(0.125);
            p.charge(4096);
            p.exit(idx, 1.5);
        }
        p.record_p2p(9); // lands in UNPHASED
        p.release(1024);

        let mut buf = Vec::new();
        p.wire_encode(&mut buf);
        let mut r = WireReader::new(&buf);
        let q = Profile::wire_decode(&mut r).expect("decode");
        r.finish().expect("no trailing bytes");

        assert_eq!(q.rank(), 3);
        let names: Vec<&str> = q.phases().map(|(n, _)| n).collect();
        assert_eq!(names, p.phases().map(|(n, _)| n).collect::<Vec<_>>());
        let (pa, qa) = (p.phase("anchor").unwrap(), q.phase("anchor").unwrap());
        assert_eq!(qa.p2p_msgs, pa.p2p_msgs);
        assert_eq!(qa.p2p_bytes, pa.p2p_bytes);
        assert_eq!(qa.collectives, pa.collectives);
        assert_eq!(qa.comm_secs, pa.comm_secs);
        assert_eq!(qa.wait_secs, pa.wait_secs);
        assert_eq!(qa.mem_hw, 4096);
        assert_eq!(q.phase(UNPHASED).unwrap().p2p_bytes, 9);
        assert_eq!(q.resident_bytes(), 3072);
        // Op names intern back to the table's own statics.
        assert!(qa
            .collectives
            .iter()
            .any(|&(name, _, _)| std::ptr::eq(name, op::name(op::ALLTOALLV))));
    }

    #[test]
    fn unknown_collective_op_is_malformed() {
        let mut p = Profile::new(0);
        p.record_coll("allgather_custom", 64);
        let mut buf = Vec::new();
        p.wire_encode(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(
            Profile::wire_decode(&mut r).unwrap_err(),
            WireError::Malformed("collective op")
        );
    }

    #[test]
    fn phases_accumulate() {
        let profile = Arc::new(Mutex::new(Profile::new(0)));
        {
            let _g = PhaseGuard::enter(Arc::clone(&profile), "a");
            lock_profile(&profile).record_p2p(100);
        }
        {
            let _g = PhaseGuard::enter(Arc::clone(&profile), "a");
            lock_profile(&profile).record_p2p(50);
        }
        let p = lock_profile(&profile);
        let phase = p.phase("a").expect("phase exists");
        assert_eq!(phase.p2p_msgs, 2);
        assert_eq!(phase.p2p_bytes, 150);
        assert!(phase.wall_secs >= 0.0);
    }

    #[test]
    fn nested_phases_book_to_innermost() {
        let profile = Arc::new(Mutex::new(Profile::new(0)));
        {
            let _outer = PhaseGuard::enter(Arc::clone(&profile), "outer");
            {
                let _inner = PhaseGuard::enter(Arc::clone(&profile), "inner");
                lock_profile(&profile).record_p2p(7);
            }
            lock_profile(&profile).record_p2p(3);
        }
        let p = lock_profile(&profile);
        assert_eq!(p.phase("inner").map(|ph| ph.p2p_bytes), Some(7));
        assert_eq!(p.phase("outer").map(|ph| ph.p2p_bytes), Some(3));
    }

    #[test]
    fn unphased_bucket() {
        let profile = Arc::new(Mutex::new(Profile::new(0)));
        lock_profile(&profile).record_p2p(9);
        let p = lock_profile(&profile);
        assert_eq!(p.phase(UNPHASED).map(|ph| ph.p2p_bytes), Some(9));
    }

    #[test]
    fn run_profile_aggregates() {
        let mut a = Profile::new(0);
        let idx = a.enter("x");
        a.record_p2p(10);
        a.exit(idx, 2.0);
        let mut b = Profile::new(1);
        let idx = b.enter("x");
        b.record_p2p(30);
        b.exit(idx, 3.0);
        let run = RunProfile::new(vec![a, b]);
        assert_eq!(run.max_wall("x"), 3.0);
        assert_eq!(run.total_bytes("x"), 40);
        assert_eq!(run.phase_names(), vec!["x".to_owned()]);
    }

    #[test]
    fn collectives_merge_by_op() {
        let mut p = PhaseProfile::default();
        p.merge_coll("bcast", 10);
        p.merge_coll("bcast", 5);
        p.merge_coll("reduce", 1);
        assert_eq!(p.collectives.len(), 2);
        assert_eq!(p.coll_calls(), 3);
        assert_eq!(p.bytes_sent(), 16);
    }

    #[test]
    fn phases_record_mem_high_water() {
        let mut p = Profile::new(0);
        let a = p.enter("a");
        p.charge(100);
        p.charge(50);
        p.release(50);
        p.exit(a, 0.0);
        let b = p.enter("b");
        // the 100 bytes from phase a are still resident
        assert_eq!(p.resident_bytes(), 100);
        p.record_transient(25);
        p.exit(b, 0.0);
        assert_eq!(p.phase("a").unwrap().mem_hw, 150);
        assert_eq!(p.phase("b").unwrap().mem_hw, 125);
        assert!(p.phase("never").is_none());
        assert_eq!(RunProfile::new(vec![p]).max_mem_hw("never"), 0);
    }

    #[test]
    fn unphased_charges_land_in_bucket() {
        let mut p = Profile::new(0);
        p.charge(42);
        assert_eq!(p.phase(UNPHASED).unwrap().mem_hw, 42);
    }

    #[test]
    fn merged_mem_takes_per_phase_maximum() {
        let mut a = Profile::new(0);
        let idx = a.enter("p");
        a.charge(10);
        a.exit(idx, 0.0);
        let mut b = Profile::new(1);
        let idx = b.enter("p");
        b.charge(90);
        b.exit(idx, 0.0);
        let idx = b.enter("q");
        b.charge(5);
        b.exit(idx, 0.0);
        let merged = RunProfile::new(vec![a, b]).merged_mem();
        assert_eq!(merged.high_water("p"), 90);
        assert_eq!(merged.high_water("q"), 95, "q saw p's residency too");
    }

    #[test]
    fn nested_phases_both_see_residency() {
        let mut p = Profile::new(0);
        let outer = p.enter("outer");
        p.charge(10);
        let inner = p.enter("inner");
        p.charge(20);
        p.exit(inner, 0.0);
        p.charge(5);
        p.exit(outer, 0.0);
        assert_eq!(p.phase("inner").unwrap().mem_hw, 30);
        assert_eq!(p.phase("outer").unwrap().mem_hw, 35);
    }

    #[test]
    fn shared_blocks_charge_once_per_rank() {
        let mut p = Profile::new(0);
        let idx = p.enter("p");
        p.charge_shared(0xA0, 100);
        p.charge_shared(0xA0, 100); // second reference: free
        p.charge_shared(0xB0, 30); // distinct block: charged
        assert_eq!(p.resident_bytes(), 130);
        p.release_shared(0xA0);
        assert_eq!(
            p.resident_bytes(),
            130,
            "one reference still holds the block"
        );
        p.release_shared(0xA0);
        assert_eq!(p.resident_bytes(), 30, "last reference releases the bytes");
        p.release_shared(0xB0);
        p.exit(idx, 0.0);
        assert_eq!(p.phase("p").unwrap().mem_hw, 130);
    }

    #[test]
    fn peak_inside_nested_phase_counts_toward_outer() {
        // A spike that lives entirely within a child phase must still
        // show in the enclosing phase's high-water: both were active.
        let mut p = Profile::new(0);
        let outer = p.enter("outer");
        let inner = p.enter("inner");
        p.charge(1000);
        p.release(1000);
        p.exit(inner, 0.0);
        p.exit(outer, 0.0);
        assert_eq!(p.phase("inner").unwrap().mem_hw, 1000);
        assert_eq!(p.phase("outer").unwrap().mem_hw, 1000);
    }
}
