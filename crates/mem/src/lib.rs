//! # elba-mem — memory budgets and per-phase byte accounting
//!
//! ELBA's SpGEMM strong-scales because its memory is *bounded*: the
//! batched overlap-detection multiply splits the output of `C = AAᵀ`
//! into column batches sized so that no rank ever materializes more than
//! a budget's worth of intermediates. This crate is the substrate that
//! claim is built on in ELBA-RS:
//!
//! * [`MemBudget`] — a global per-rank byte cap with fixed per-phase
//!   sub-budgets, plus the derivations that turn one `--mem-budget` knob
//!   into concrete pipeline parameters (`batch_kmers` and the SpGEMM
//!   sub-budget the SUMMA sizes its column windows under),
//! * [`MemTracker`] — per-rank, per-phase high-water byte accounting.
//!   Stages *charge* bytes while a buffer is resident and *release* them
//!   when it drops; each phase records the maximum total resident bytes
//!   observed while it was active. Trackers from different ranks merge
//!   with [`MemTracker::merge_max`], mirroring how `RunProfile`
//!   aggregates wall times (the slowest/biggest rank gates the run).
//!
//! The tracker is a plain state machine (no interior locking): the comm
//! layer embeds one per rank inside its already-mutex-guarded `Profile`
//! and exposes RAII charge guards, so charging is one short critical
//! section per allocation-sized event, never per element.

/// Phase name used for bytes charged outside any explicit phase.
/// Matches the comm profiler's unphased bucket.
pub const UNPHASED: &str = "(unphased)";

/// Fraction of the total budget reserved for the k-mer exchange's
/// application-side buffers (outgoing buckets + one inbound chunk).
const EXCHANGE_FRACTION: f64 = 0.25;
/// Fraction of the total budget available to one distributed SpGEMM's
/// transient intermediates (stage blocks + batch accumulators).
const SPGEMM_FRACTION: f64 = 0.5;

/// A per-rank memory budget in bytes. `None` means unlimited (the
/// default): every consumer falls back to its static defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemBudget {
    total: Option<u64>,
}

impl Default for MemBudget {
    fn default() -> Self {
        MemBudget::unlimited()
    }
}

impl MemBudget {
    /// No cap: all derivations return their defaults.
    pub fn unlimited() -> Self {
        MemBudget { total: None }
    }

    /// Cap of `total` bytes per rank.
    pub fn bytes(total: u64) -> Self {
        assert!(total > 0, "a memory budget must be positive");
        MemBudget { total: Some(total) }
    }

    /// Parse a human-friendly byte count: a plain number or one with a
    /// `K`/`M`/`G` suffix (binary units), e.g. `"64M"`, `"2G"`, `"4096"`.
    pub fn parse(raw: &str) -> Result<Self, String> {
        let raw = raw.trim();
        let (digits, shift) = match raw.as_bytes().last() {
            Some(b'K' | b'k') => (&raw[..raw.len() - 1], 10),
            Some(b'M' | b'm') => (&raw[..raw.len() - 1], 20),
            Some(b'G' | b'g') => (&raw[..raw.len() - 1], 30),
            _ => (raw, 0),
        };
        let n: u64 = digits
            .parse()
            .map_err(|_| format!("cannot parse memory budget '{raw}' (try 512M, 2G, 65536)"))?;
        if n == 0 {
            return Err("memory budget must be positive".to_owned());
        }
        n.checked_shl(shift)
            .filter(|&b| b >> shift == n)
            .map(MemBudget::bytes)
            .ok_or_else(|| format!("memory budget '{raw}' overflows u64"))
    }

    /// Global cap in bytes, if one is set.
    pub fn total(&self) -> Option<u64> {
        self.total
    }

    pub fn is_limited(&self) -> bool {
        self.total.is_some()
    }

    /// Sub-budget for the k-mer exchange's application-side buffers.
    pub fn exchange_bytes(&self) -> Option<u64> {
        self.total
            .map(|t| ((t as f64 * EXCHANGE_FRACTION) as u64).max(1))
    }

    /// Sub-budget for one distributed SpGEMM's transient intermediates.
    pub fn spgemm_bytes(&self) -> Option<u64> {
        self.total
            .map(|t| ((t as f64 * SPGEMM_FRACTION) as u64).max(1))
    }

    /// K-mer exchange window (`batch_kmers`): one outgoing window plus
    /// one window inbound from each peer (a round's `alltoallv` delivers
    /// every source's window at once) must fit the exchange sub-budget,
    /// so a window is the sub-budget divided by `1 + peers`. The
    /// pipeline derives this at run time, where the rank count is known
    /// — a config-time derivation cannot see `p`, and a p-blind split
    /// would let the inbound windows exceed the sub-budget on any real
    /// grid. Unlimited budgets return `default`.
    pub fn derive_batch_kmers_for(
        &self,
        record_bytes: usize,
        peers: usize,
        default: usize,
    ) -> usize {
        match self.exchange_bytes() {
            None => default,
            Some(bytes) => {
                let share = bytes / (1 + peers.max(1)) as u64;
                (share as usize / record_bytes.max(1)).clamp(1 << 10, 1 << 20)
            }
        }
    }
}

/// Deep heap size of a value: the bytes of heap storage owned by the
/// value *beyond* its own `size_of`. Containers that count their
/// payloads at `size_of` (e.g. a CSR values array) undercount values
/// that themselves own heap (a `Vec` inside a matrix entry); summing
/// `size_of::<T>() + deep_bytes()` per element gives the true resident
/// footprint. Plain-old-data types report 0 — use
/// [`impl_deep_bytes_pod!`] for those.
///
/// Like the tracker's charges, deep sizes are length-based, not
/// capacity-based, so they are deterministic across runs.
pub trait DeepBytes {
    /// Heap bytes owned by this value beyond `size_of::<Self>()`.
    fn deep_bytes(&self) -> usize;
}

/// Implement [`DeepBytes`] (as 0 — no owned heap) for plain-old-data
/// types.
#[macro_export]
macro_rules! impl_deep_bytes_pod {
    ($($t:ty),* $(,)?) => {
        $(impl $crate::DeepBytes for $t {
            #[inline]
            fn deep_bytes(&self) -> usize {
                0
            }
        })*
    };
}

impl_deep_bytes_pod!(
    u8,
    u16,
    u32,
    u64,
    u128,
    usize,
    i8,
    i16,
    i32,
    i64,
    i128,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<T: DeepBytes> DeepBytes for Vec<T> {
    fn deep_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
            + self.iter().map(DeepBytes::deep_bytes).sum::<usize>()
    }
}

impl DeepBytes for String {
    fn deep_bytes(&self) -> usize {
        self.len()
    }
}

impl<T: DeepBytes> DeepBytes for Option<T> {
    fn deep_bytes(&self) -> usize {
        self.as_ref().map_or(0, DeepBytes::deep_bytes)
    }
}

impl<T: DeepBytes> DeepBytes for Box<T> {
    fn deep_bytes(&self) -> usize {
        std::mem::size_of::<T>() + self.as_ref().deep_bytes()
    }
}

impl<A: DeepBytes, B: DeepBytes> DeepBytes for (A, B) {
    fn deep_bytes(&self) -> usize {
        self.0.deep_bytes() + self.1.deep_bytes()
    }
}

impl<A: DeepBytes, B: DeepBytes, C: DeepBytes> DeepBytes for (A, B, C) {
    fn deep_bytes(&self) -> usize {
        self.0.deep_bytes() + self.1.deep_bytes() + self.2.deep_bytes()
    }
}

/// Per-rank, per-phase high-water byte accounting.
///
/// One `current` tally of resident tracked bytes is shared across
/// phases; each phase records the maximum value of `current` observed
/// while it was active (bytes charged in an earlier phase and still
/// resident count against the later phase too — residency is what
/// matters for a cap). [`MemTracker::record_transient`] books a
/// short-lived spike (`current + bytes`) without holding it.
///
/// *Shared blocks* (payloads referenced through an `Arc`) charge through
/// [`MemTracker::charge_shared`], keyed by the allocation's address: the
/// first reference a rank holds charges the block's bytes, further
/// references on the same rank are free, and the bytes release when the
/// last reference drops — one rank charges one shared block **once**,
/// no matter how many handles to it live on that rank.
#[derive(Debug, Clone, Default)]
pub struct MemTracker {
    current: u64,
    /// `(phase name, high-water bytes)` in first-entered order.
    phases: Vec<(String, u64)>,
    stack: Vec<usize>,
    /// Shared-block charges held by this rank: allocation address →
    /// (live references, bytes charged once).
    shared: std::collections::HashMap<usize, (usize, u64)>,
}

impl MemTracker {
    pub fn new() -> Self {
        MemTracker::default()
    }

    fn index_of(&mut self, name: &str) -> usize {
        if let Some(idx) = self.phases.iter().position(|(n, _)| n == name) {
            idx
        } else {
            self.phases.push((name.to_owned(), 0));
            self.phases.len() - 1
        }
    }

    fn bump(&mut self, candidate: u64) {
        // Every phase on the stack is *active*, so a peak inside a
        // nested phase counts toward its enclosing phases too — a
        // budget asserted on an outer phase must not miss bytes that
        // spiked entirely within a child.
        if self.stack.is_empty() {
            let idx = self.index_of(UNPHASED);
            self.phases[idx].1 = self.phases[idx].1.max(candidate);
            return;
        }
        for i in 0..self.stack.len() {
            let idx = self.stack[i];
            let hw = &mut self.phases[idx].1;
            *hw = (*hw).max(candidate);
        }
    }

    /// Enter a named phase (nests like the profiler's phase guards).
    /// Bytes already resident count toward the phase immediately.
    pub fn enter(&mut self, name: &str) {
        let idx = self.index_of(name);
        self.stack.push(idx);
        self.bump(self.current);
    }

    /// Leave the innermost phase.
    pub fn exit(&mut self) {
        let popped = self.stack.pop();
        debug_assert!(popped.is_some(), "mem phase exits must pair with enters");
    }

    /// Charge `bytes` as resident until the matching [`MemTracker::release`].
    pub fn charge(&mut self, bytes: u64) {
        self.current += bytes;
        self.bump(self.current);
    }

    /// Release bytes previously charged.
    pub fn release(&mut self, bytes: u64) {
        debug_assert!(bytes <= self.current, "releasing more than charged");
        self.current = self.current.saturating_sub(bytes);
    }

    /// Replace an existing charge of `old` bytes with `new` bytes in one
    /// step (the growing-accumulator pattern).
    pub fn adjust(&mut self, old: u64, new: u64) {
        self.release(old);
        self.charge(new);
    }

    /// Record a transient spike of `bytes` on top of the current
    /// residency, without holding it.
    pub fn record_transient(&mut self, bytes: u64) {
        self.bump(self.current + bytes);
    }

    /// Charge a *shared* block identified by its allocation address
    /// (`key`, e.g. `Arc::as_ptr` cast to usize): the first reference
    /// this rank takes charges `bytes`, every further reference to the
    /// same key only bumps a refcount — the single-charge rule for
    /// `Arc`-shared broadcast payloads. Pair with
    /// [`MemTracker::release_shared`].
    pub fn charge_shared(&mut self, key: usize, bytes: u64) {
        let entry = self.shared.entry(key).or_insert((0, 0));
        if entry.0 == 0 {
            entry.1 = bytes;
            self.current += bytes;
        }
        entry.0 += 1;
        self.bump(self.current);
    }

    /// Drop one reference to a shared block; the bytes release when the
    /// last reference goes.
    pub fn release_shared(&mut self, key: usize) {
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

    /// Bytes currently charged.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// High-water mark of a phase (0 if never entered).
    pub fn high_water(&self, phase: &str) -> u64 {
        self.phases
            .iter()
            .find(|(n, _)| n == phase)
            .map_or(0, |&(_, hw)| hw)
    }

    /// `(phase, high-water)` pairs in first-entered order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, u64)> {
        self.phases.iter().map(|(n, hw)| (n.as_str(), *hw))
    }

    /// Rebuild a tracker from a serialized snapshot: the resident tally
    /// plus `(phase, high-water)` pairs in first-entered order. Used to
    /// reconstitute per-rank trackers gathered from worker *processes*
    /// (`elba launch`); live shared-charge bookkeeping is not part of a
    /// snapshot — by gather time every charge guard has dropped.
    pub fn from_snapshot(current: u64, phases: Vec<(String, u64)>) -> MemTracker {
        MemTracker {
            current,
            phases,
            stack: Vec::new(),
            shared: std::collections::HashMap::new(),
        }
    }

    /// Merge another rank's tracker: per-phase maximum, preserving
    /// first-seen phase order — the cross-rank aggregation a run report
    /// wants (the biggest rank gates the memory claim).
    pub fn merge_max(&mut self, other: &MemTracker) {
        for (name, hw) in other.phases() {
            let idx = self.index_of(name);
            self.phases[idx].1 = self.phases[idx].1.max(hw);
        }
        self.current = self.current.max(other.current);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_parse_accepts_suffixes() {
        assert_eq!(MemBudget::parse("4096").unwrap().total(), Some(4096));
        assert_eq!(MemBudget::parse("64K").unwrap().total(), Some(64 << 10));
        assert_eq!(MemBudget::parse("64M").unwrap().total(), Some(64 << 20));
        assert_eq!(MemBudget::parse("2g").unwrap().total(), Some(2 << 30));
        assert!(MemBudget::parse("0").is_err());
        assert!(MemBudget::parse("lots").is_err());
        assert!(MemBudget::parse("999999999999G").is_err());
    }

    #[test]
    fn sub_budgets_split_the_total() {
        let b = MemBudget::bytes(1 << 20);
        assert_eq!(b.exchange_bytes(), Some(1 << 18));
        assert_eq!(b.spgemm_bytes(), Some(1 << 19));
        assert_eq!(MemBudget::unlimited().spgemm_bytes(), None);
    }

    #[test]
    fn derivations_clamp_and_default() {
        let unlimited = MemBudget::unlimited();
        assert_eq!(unlimited.derive_batch_kmers_for(24, 3, 777), 777);
        // 1 MiB budget, 3 peers: exchange sub-budget 256 KiB, a quarter
        // of it across 24-byte records ≈ 2730 → within clamps.
        let b = MemBudget::bytes(1 << 20);
        let batch = b.derive_batch_kmers_for(24, 3, 0);
        assert!((1 << 10..=1 << 20).contains(&batch));
        // more peers → smaller batches (the inbound ceiling scales)
        assert!(b.derive_batch_kmers_for(24, 15, 0) <= batch);
        // tiny budget clamps at the floor
        assert_eq!(
            MemBudget::bytes(16).derive_batch_kmers_for(24, 1, 0),
            1 << 10
        );
    }

    #[test]
    fn tracker_phases_record_high_water() {
        let mut t = MemTracker::new();
        t.enter("a");
        t.charge(100);
        t.charge(50);
        t.release(50);
        t.exit();
        t.enter("b");
        // the 100 bytes from phase a are still resident
        assert_eq!(t.current(), 100);
        t.record_transient(25);
        t.exit();
        assert_eq!(t.high_water("a"), 150);
        assert_eq!(t.high_water("b"), 125);
        assert_eq!(t.high_water("never"), 0);
    }

    #[test]
    fn unphased_charges_land_in_bucket() {
        let mut t = MemTracker::new();
        t.charge(42);
        assert_eq!(t.high_water(UNPHASED), 42);
    }

    #[test]
    fn adjust_replaces_charge() {
        let mut t = MemTracker::new();
        t.enter("x");
        t.charge(10);
        t.adjust(10, 70);
        t.adjust(70, 30);
        assert_eq!(t.current(), 30);
        assert_eq!(t.high_water("x"), 70);
    }

    #[test]
    fn merge_max_takes_per_phase_maximum() {
        let mut a = MemTracker::new();
        a.enter("p");
        a.charge(10);
        a.exit();
        let mut b = MemTracker::new();
        b.enter("p");
        b.charge(90);
        b.exit();
        b.enter("q");
        b.charge(5);
        b.exit();
        a.merge_max(&b);
        assert_eq!(a.high_water("p"), 90);
        assert_eq!(a.high_water("q"), 95, "q saw p's residency too");
    }

    #[test]
    fn nested_phases_both_see_residency() {
        let mut t = MemTracker::new();
        t.enter("outer");
        t.charge(10);
        t.enter("inner");
        t.charge(20);
        t.exit();
        t.charge(5);
        t.exit();
        assert_eq!(t.high_water("inner"), 30);
        assert_eq!(t.high_water("outer"), 35);
    }

    #[test]
    fn shared_blocks_charge_once_per_rank() {
        let mut t = MemTracker::new();
        t.enter("p");
        t.charge_shared(0xA0, 100);
        t.charge_shared(0xA0, 100); // second reference: free
        t.charge_shared(0xB0, 30); // distinct block: charged
        assert_eq!(t.current(), 130);
        t.release_shared(0xA0);
        assert_eq!(t.current(), 130, "one reference still holds the block");
        t.release_shared(0xA0);
        assert_eq!(t.current(), 30, "last reference releases the bytes");
        t.release_shared(0xB0);
        t.exit();
        assert_eq!(t.high_water("p"), 130);
    }

    #[test]
    fn deep_bytes_counts_nested_heap() {
        assert_eq!(7u64.deep_bytes(), 0);
        let flat = vec![1u32, 2, 3];
        assert_eq!(flat.deep_bytes(), 12);
        let nested = vec![vec![1u8; 4], vec![2u8; 6]];
        // outer: 2 × size_of::<Vec<u8>>; inner heap: 4 + 6
        assert_eq!(nested.deep_bytes(), 2 * std::mem::size_of::<Vec<u8>>() + 10);
        assert_eq!("hello".to_owned().deep_bytes(), 5);
        assert_eq!(Some(vec![0u64; 2]).deep_bytes(), vec![0u64; 2].deep_bytes());
        assert_eq!((1u8, vec![1u16; 3]).deep_bytes(), 6);
    }

    #[test]
    fn peak_inside_nested_phase_counts_toward_outer() {
        // A spike that lives entirely within a child phase must still
        // show in the enclosing phase's high-water: both were active.
        let mut t = MemTracker::new();
        t.enter("outer");
        t.enter("inner");
        t.charge(1000);
        t.release(1000);
        t.exit();
        t.exit();
        assert_eq!(t.high_water("inner"), 1000);
        assert_eq!(t.high_water("outer"), 1000);
    }
}
