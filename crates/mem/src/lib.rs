//! # elba-mem — memory budgets and per-phase byte accounting
//!
//! ELBA bounds its SpGEMM's memory by computing `C = AAᵀ` in column
//! batches and aligning each batch before the next is built. ELBA-RS
//! keeps all of `C` for the alignment stage, so a budget here bounds the
//! transients around it, not `C`, and every run reports what it
//! reached. This crate is the substrate of that accounting:
//!
//! * [`MemBudget`] — a global per-rank byte cap with fixed per-phase
//!   sub-budgets, plus the derivations that turn one `--mem-budget` knob
//!   into concrete pipeline parameters (`batch_kmers` and the SpGEMM
//!   sub-budget that decides the SUMMA's prefetch and row batch),
//! * [`DeepBytes`] — deep heap sizes, so a stage charges what a value
//!   really holds resident,
//! * [`MemTracker`] — the read-only cross-rank summary of one run: per
//!   phase, the most tracked bytes any rank held (the biggest rank gates
//!   the memory claim, as the slowest one gates wall time).
//!
//! The charging itself is the comm layer's: each rank's `Profile` keeps
//! its resident bytes next to its one phase stack, and every phase record
//! carries its own high-water (`PhaseProfile::mem_hw`).

/// Fraction of the total budget reserved for the k-mer exchange's
/// application-side buffers (outgoing buckets + one inbound chunk).
const EXCHANGE_FRACTION: f64 = 0.25;
/// Fraction of the total budget available to one distributed SpGEMM's
/// transients: its stage blocks (prefetched only if four of the largest
/// fit) and one row batch's product.
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
/// Like the comm layer's memory charges, deep sizes are length-based, not
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

/// The cross-rank memory summary of one run: per phase, the most
/// tracked bytes any rank held resident while the phase was active.
/// `elba-comm`'s `RunProfile::merged_mem` builds it from the per-rank
/// phase records, which do the charging; this type only reads.
#[derive(Debug, Clone)]
pub struct MemTracker {
    /// `(phase name, high-water bytes)` in first-seen order.
    phases: Vec<(String, u64)>,
}

impl MemTracker {
    /// A summary of `(phase name, high-water bytes)` pairs, kept in the
    /// given order.
    pub fn new(phases: Vec<(String, u64)>) -> Self {
        MemTracker { phases }
    }

    /// High-water mark of a phase (0 if no rank entered it).
    pub fn high_water(&self, phase: &str) -> u64 {
        self.phases
            .iter()
            .find(|(n, _)| n == phase)
            .map_or(0, |&(_, hw)| hw)
    }

    /// `(phase, high-water)` pairs in first-seen order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, u64)> {
        self.phases.iter().map(|(n, hw)| (n.as_str(), *hw))
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
}
