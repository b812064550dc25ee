//! Semiring abstraction: CombBLAS-style overloading of `(+, ×)` so the
//! same SpGEMM kernels serve numeric algebra, boolean reachability,
//! and ELBA's overlap-detection and transitive-reduction algebras.

/// A (possibly filtering) semiring over input types `A`, `B` and output
/// `Out`.
///
/// `multiply` may return `None` to annihilate a contribution — the sparse
/// analogue of multiplying by zero, used e.g. by the transitive-reduction
/// step to drop direction-incompatible paths.
pub trait Semiring {
    type A: Clone + Send;
    type B: Clone + Send;
    type Out: Clone + Send;

    fn multiply(&self, a: &Self::A, b: &Self::B) -> Option<Self::Out>;
    fn add(&self, acc: &mut Self::Out, other: Self::Out);

    /// `acc ⊕= a ⊗ b`: the SpGEMM kernel's step for every product after
    /// an entry's first. An override must leave `acc` exactly as the
    /// default does; it exists so a semiring can fold a product without
    /// building it (the overlap semiring reads `b` only when a seed can
    /// change).
    #[inline]
    fn fold(&self, acc: &mut Self::Out, a: &Self::A, b: &Self::B) {
        if let Some(product) = self.multiply(a, b) {
            self.add(acc, product);
        }
    }
}

/// What the masked product `C⟨M⟩ = A ⊗ B` keeps at a stored mask entry
/// of type `M`, and how a product reaches it: one `Slot` per mask entry,
/// seeded by [`MaskedFold::empty`] from the entry before any product,
/// and every product landing on the entry folded in with the entry in
/// hand. The caller picks the slot, so a product whose reader needs one
/// field of a semiring value keeps that field alone (transitive
/// reduction keeps one `u32` where the min-plus semiring's value has
/// four).
pub trait MaskedFold<M> {
    type A: Clone + Send;
    type B: Clone + Send;
    type Slot: Send;

    /// The slot of mask entry `mask` before any product lands on it.
    fn empty(&self, mask: &M) -> Self::Slot;

    /// `slot ⊕= a ⊗ b` at mask entry `mask`. Products reach a slot in
    /// ascending `k` within a stage and in ascending stages.
    fn fold(&self, slot: &mut Self::Slot, mask: &M, a: &Self::A, b: &Self::B);
}

/// A plain [`Semiring`] as a [`MaskedFold`]: the slot is
/// `Option<S::Out>` (`None` until a product lands) and the mask's values
/// are ignored, so the masked product holds at each mask entry exactly
/// what the general product holds there.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiringSlot<S>(pub S);

impl<S: Semiring, M> MaskedFold<M> for SemiringSlot<S> {
    type A = S::A;
    type B = S::B;
    type Slot = Option<S::Out>;

    #[inline]
    fn empty(&self, _: &M) -> Option<S::Out> {
        None
    }

    #[inline]
    fn fold(&self, slot: &mut Option<S::Out>, _: &M, a: &S::A, b: &S::B) {
        match slot {
            Some(acc) => self.0.fold(acc, a, b),
            empty => *empty = self.0.multiply(a, b),
        }
    }
}

/// Standard arithmetic `(+, ×)` semiring over `f64`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlusTimes;

impl Semiring for PlusTimes {
    type A = f64;
    type B = f64;
    type Out = f64;

    #[inline]
    fn multiply(&self, a: &f64, b: &f64) -> Option<f64> {
        Some(a * b)
    }

    #[inline]
    fn add(&self, acc: &mut f64, other: f64) {
        *acc += other;
    }
}

/// Counting semiring over arbitrary inputs: every structural match
/// contributes 1; addition sums. Row-reducing with it yields degrees.
#[derive(Debug, Clone, Copy, Default)]
pub struct Count<A, B>(std::marker::PhantomData<(A, B)>);

impl<A, B> Count<A, B> {
    pub fn new() -> Self {
        Count(std::marker::PhantomData)
    }
}

impl<A: Clone + Send, B: Clone + Send> Semiring for Count<A, B> {
    type A = A;
    type B = B;
    type Out = u64;

    #[inline]
    fn multiply(&self, _: &A, _: &B) -> Option<u64> {
        Some(1)
    }

    #[inline]
    fn add(&self, acc: &mut u64, other: u64) {
        *acc += other;
    }
}

/// Boolean `(∨, ∧)` semiring: structural reachability.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoolOrAnd;

impl Semiring for BoolOrAnd {
    type A = bool;
    type B = bool;
    type Out = bool;

    #[inline]
    fn multiply(&self, a: &bool, b: &bool) -> Option<bool> {
        (*a && *b).then_some(true)
    }

    #[inline]
    fn add(&self, acc: &mut bool, other: bool) {
        *acc |= other;
    }
}

/// Tropical `(min, +)` semiring over `u64` path lengths.
#[derive(Debug, Clone, Copy, Default)]
pub struct MinPlus;

impl Semiring for MinPlus {
    type A = u64;
    type B = u64;
    type Out = u64;

    #[inline]
    fn multiply(&self, a: &u64, b: &u64) -> Option<u64> {
        Some(a.saturating_add(*b))
    }

    #[inline]
    fn add(&self, acc: &mut u64, other: u64) {
        *acc = (*acc).min(other);
    }
}

/// Adapt a plain closure pair into a semiring.
pub struct FnSemiring<A, B, Out, M, Add>
where
    M: Fn(&A, &B) -> Option<Out>,
    Add: Fn(&mut Out, Out),
{
    pub multiply: M,
    pub add: Add,
    _marker: std::marker::PhantomData<(A, B, Out)>,
}

impl<A, B, Out, M, Add> FnSemiring<A, B, Out, M, Add>
where
    M: Fn(&A, &B) -> Option<Out>,
    Add: Fn(&mut Out, Out),
{
    pub fn new(multiply: M, add: Add) -> Self {
        FnSemiring {
            multiply,
            add,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<A, B, Out, M, Add> Semiring for FnSemiring<A, B, Out, M, Add>
where
    A: Clone + Send,
    B: Clone + Send,
    Out: Clone + Send,
    M: Fn(&A, &B) -> Option<Out>,
    Add: Fn(&mut Out, Out),
{
    type A = A;
    type B = B;
    type Out = Out;

    #[inline]
    fn multiply(&self, a: &A, b: &B) -> Option<Out> {
        (self.multiply)(a, b)
    }

    #[inline]
    fn add(&self, acc: &mut Out, other: Out) {
        (self.add)(acc, other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times() {
        let s = PlusTimes;
        assert_eq!(s.multiply(&3.0, &4.0), Some(12.0));
        let mut acc = 1.0;
        s.add(&mut acc, 2.0);
        assert_eq!(acc, 3.0);
    }

    #[test]
    fn bool_annihilates_false() {
        let s = BoolOrAnd;
        assert_eq!(s.multiply(&true, &false), None);
        assert_eq!(s.multiply(&true, &true), Some(true));
    }

    #[test]
    fn min_plus_saturates() {
        let s = MinPlus;
        assert_eq!(s.multiply(&u64::MAX, &1), Some(u64::MAX));
        let mut acc = 9;
        s.add(&mut acc, 3);
        assert_eq!(acc, 3);
    }

    #[test]
    fn fn_semiring_filters() {
        let s = FnSemiring::new(
            |a: &u64, b: &u64| (a + b > 5).then(|| a + b),
            |acc: &mut u64, x| *acc = (*acc).max(x),
        );
        assert_eq!(s.multiply(&1, &2), None);
        assert_eq!(s.multiply(&4, &3), Some(7));
    }

    /// `acc` after the default `fold` of `(a, b)` and after an explicit
    /// `multiply` + `add` of the same pair.
    fn fold_and_reference<S: Semiring>(s: &S, acc: S::Out, a: &S::A, b: &S::B) -> (S::Out, S::Out) {
        let mut folded = acc.clone();
        s.fold(&mut folded, a, b);
        let mut reference = acc;
        if let Some(product) = s.multiply(a, b) {
            s.add(&mut reference, product);
        }
        (folded, reference)
    }

    #[test]
    fn default_fold_is_multiply_then_add() {
        for (acc, a, b) in [(1.0, 3.0, 4.0), (-2.5, 0.0, 7.0), (0.0, -1.5, 2.0)] {
            let (got, want) = fold_and_reference(&PlusTimes, acc, &a, &b);
            assert_eq!(got, want);
        }
        for (acc, a, b) in [(9u64, 3, 4), (5, 3, 4), (7, u64::MAX, 1)] {
            let (got, want) = fold_and_reference(&MinPlus, acc, &a, &b);
            assert_eq!(got, want);
        }
        // An annihilated product leaves the accumulator untouched.
        let filtering = FnSemiring::new(
            |a: &u64, b: &u64| (a + b > 5).then(|| a + b),
            |acc: &mut u64, x| *acc = (*acc).max(x),
        );
        for (acc, a, b) in [(3u64, 1, 2), (3, 4, 3), (10, 4, 3)] {
            let (got, want) = fold_and_reference(&filtering, acc, &a, &b);
            assert_eq!(got, want);
        }
        assert_eq!(fold_and_reference(&filtering, 3, &1, &2).0, 3);
    }
}
