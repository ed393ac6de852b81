//! Panels and their symbolic attributes.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The five RAVEN panel attributes the symbolic reasoner operates on.
///
/// Each attribute takes a small number of discrete values; the cardinalities follow the
/// RAVEN dataset definition (position is a 3×3 occupancy pattern index, number is 1–9,
/// type is one of 5 shapes, size one of 6, color one of 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Attribute {
    /// Spatial arrangement of the objects inside the panel.
    Position,
    /// Number of objects.
    Number,
    /// Object shape type.
    Type,
    /// Object size.
    Size,
    /// Object color / shade.
    Color,
}

impl Attribute {
    /// All attributes in canonical order.
    pub const ALL: [Attribute; 5] = [
        Attribute::Position,
        Attribute::Number,
        Attribute::Type,
        Attribute::Size,
        Attribute::Color,
    ];

    /// Index of this attribute in [`Attribute::ALL`].
    pub fn index(self) -> usize {
        match self {
            Attribute::Position => 0,
            Attribute::Number => 1,
            Attribute::Type => 2,
            Attribute::Size => 3,
            Attribute::Color => 4,
        }
    }

    /// Number of discrete values this attribute can take.
    pub fn cardinality(self) -> usize {
        ATTRIBUTE_CARDINALITIES[self.index()]
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Attribute::Position => "position",
            Attribute::Number => "number",
            Attribute::Type => "type",
            Attribute::Size => "size",
            Attribute::Color => "color",
        };
        write!(f, "{name}")
    }
}

/// Cardinality of each attribute, in [`Attribute::ALL`] order
/// (position, number, type, size, color).
pub const ATTRIBUTE_CARDINALITIES: [usize; 5] = [9, 9, 5, 6, 10];

/// Configurable per-attribute vocabulary sizes.
///
/// The RAVEN cardinalities ([`ATTRIBUTE_CARDINALITIES`]) cap attribute codebooks at
/// 10 rows; production-scale item memories need 10^4+-row vocabularies to exercise
/// the sub-linear cleanup index end to end. An `AttributeVocab` scales every
/// attribute's value range **upward** (each cardinality stays at least the RAVEN
/// base, so every RAVEN-range panel remains well-formed under any vocab) and is
/// threaded through the generators (`Panel::random_with`, `RuleSet::random_with`,
/// `ProblemGenerator::with_vocab`) and the solver's codebook sizing.
///
/// Every cardinality is at most [`MAX_CARDINALITY`] (65,535, the widest range a
/// [`Panel`] stores). Every constructor enforces both bounds, and deserialization
/// goes through the same check (the `TryFrom<[usize; 5]>` impl).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(try_from = "[usize; 5]", into = "[usize; 5]")]
pub struct AttributeVocab {
    cards: [usize; 5],
}

impl Default for AttributeVocab {
    fn default() -> Self {
        Self::raven()
    }
}

impl AttributeVocab {
    /// The standard RAVEN vocabulary ([`ATTRIBUTE_CARDINALITIES`]).
    pub fn raven() -> Self {
        Self {
            cards: ATTRIBUTE_CARDINALITIES,
        }
    }

    /// A vocabulary with explicit per-attribute cardinalities.
    ///
    /// # Panics
    /// Panics when any cardinality is below its RAVEN base — vocabularies only
    /// extend the value ranges, so RAVEN-range panels stay well-formed everywhere —
    /// or above [`MAX_CARDINALITY`], the widest range a [`Panel`] stores. The
    /// non-panicking form is `AttributeVocab::try_from(cards)`.
    pub fn new(cards: [usize; 5]) -> Self {
        Self::try_from(cards).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A vocabulary where every attribute has `card` values (clamped up to each
    /// attribute's RAVEN base) — the one-knob way to scale codebooks to 10^4+ rows.
    ///
    /// # Panics
    /// Panics when `card` exceeds [`MAX_CARDINALITY`].
    pub fn uniform(card: usize) -> Self {
        let mut cards = ATTRIBUTE_CARDINALITIES;
        for c in &mut cards {
            *c = card.max(*c);
        }
        Self::new(cards)
    }

    /// Number of discrete values `attribute` can take under this vocabulary.
    pub fn cardinality(&self, attribute: Attribute) -> usize {
        self.cards[attribute.index()]
    }

    /// All five cardinalities in [`Attribute::ALL`] order.
    pub fn cardinalities(&self) -> [usize; 5] {
        self.cards
    }

    /// Returns `true` when this is exactly the RAVEN vocabulary.
    pub fn is_raven(&self) -> bool {
        self.cards == ATTRIBUTE_CARDINALITIES
    }

    /// The largest per-attribute cardinality (the codebook row count that dominates
    /// cleanup cost).
    pub fn max_cardinality(&self) -> usize {
        self.cards.iter().copied().max().unwrap_or(0)
    }
}

impl TryFrom<[usize; 5]> for AttributeVocab {
    type Error = String;

    /// Accepts `cards` when every cardinality lies between its RAVEN base and
    /// [`MAX_CARDINALITY`].
    fn try_from(cards: [usize; 5]) -> Result<Self, String> {
        for (c, base) in cards.into_iter().zip(ATTRIBUTE_CARDINALITIES) {
            if c < base {
                return Err(format!("vocab cardinality {c} below the RAVEN base {base}"));
            }
            if c > MAX_CARDINALITY {
                return Err(format!(
                    "vocab cardinality {c} above the panel maximum {MAX_CARDINALITY}"
                ));
            }
        }
        Ok(Self { cards })
    }
}

impl From<AttributeVocab> for [usize; 5] {
    fn from(vocab: AttributeVocab) -> Self {
        vocab.cards
    }
}

/// One panel of a reasoning problem, described purely by its attribute values.
///
/// `values[i]` is the value of `Attribute::ALL[i]`, in `0..cardinality`. Values are
/// stored as `u16` (a quarter of the footprint of `usize` for the panels a problem
/// stream keeps resident) behind a `usize` API; [`AttributeVocab`] caps every
/// cardinality at [`MAX_CARDINALITY`] so every in-range value fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Panel {
    values: [u16; 5],
}

/// The largest per-attribute cardinality an [`AttributeVocab`] accepts:
/// `u16::MAX`, so every in-range value of every vocabulary fits a [`Panel`]'s
/// stored width and the saturated value `u16::MAX` is out of range everywhere.
pub const MAX_CARDINALITY: usize = u16::MAX as usize;

/// Narrows an attribute value to its stored width, saturating values above
/// `u16::MAX` — they exceed every vocabulary, so the panel stays malformed.
fn stored(v: usize) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

impl Panel {
    /// Creates a panel from explicit attribute values.
    ///
    /// # Panics
    /// Panics if any value exceeds its attribute's cardinality — panels are constructed
    /// by generators and rules, so an out-of-range value is a bug.
    pub fn new(values: [usize; 5]) -> Self {
        for (v, c) in values.iter().zip(ATTRIBUTE_CARDINALITIES) {
            assert!(*v < c, "attribute value {v} out of range (cardinality {c})");
        }
        Self::new_unchecked(values)
    }

    /// Creates a panel **without** validating attribute ranges.
    ///
    /// Exists for fault injection and robustness testing: the solver's
    /// engine-boundary validation must reject out-of-range values with a typed
    /// error, which requires being able to construct them in the first place
    /// (see `ProblemGenerator::generate_malformed` and the `cogsys-serve` chaos
    /// harness). Production generators and rules use [`Panel::new`]. Values above
    /// `u16::MAX` saturate to `u16::MAX`, which is still out of range.
    pub fn new_unchecked(values: [usize; 5]) -> Self {
        Self {
            values: values.map(stored),
        }
    }

    /// Returns `true` when every attribute value is inside its cardinality — the
    /// invariant [`Panel::new`] enforces and [`Panel::new_unchecked`] deliberately
    /// does not.
    pub fn is_well_formed(&self) -> bool {
        self.is_well_formed_with(AttributeVocab::raven())
    }

    /// [`Panel::is_well_formed`] against a configurable vocabulary.
    pub fn is_well_formed_with(&self, vocab: AttributeVocab) -> bool {
        self.values
            .iter()
            .zip(vocab.cardinalities())
            .all(|(&v, c)| (v as usize) < c)
    }

    /// Samples a uniformly random panel.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::random_with(AttributeVocab::raven(), rng)
    }

    /// [`Panel::random`] over a configurable vocabulary.
    pub fn random_with<R: Rng + ?Sized>(vocab: AttributeVocab, rng: &mut R) -> Self {
        let mut values = [0u16; 5];
        for (v, c) in values.iter_mut().zip(vocab.cardinalities()) {
            *v = stored(rng.gen_range(0..c));
        }
        Self { values }
    }

    /// Value of one attribute.
    pub fn value(&self, attribute: Attribute) -> usize {
        self.values[attribute.index()] as usize
    }

    /// Returns a copy with one attribute replaced (wrapped into range).
    pub fn with_value(&self, attribute: Attribute, value: usize) -> Self {
        self.with_value_with(AttributeVocab::raven(), attribute, value)
    }

    /// [`Panel::with_value`] wrapping into a configurable vocabulary's range.
    pub fn with_value_with(
        &self,
        vocab: AttributeVocab,
        attribute: Attribute,
        value: usize,
    ) -> Self {
        let mut values = self.values;
        values[attribute.index()] = stored(value % vocab.cardinality(attribute));
        Self { values }
    }

    /// All five attribute values in canonical order.
    pub fn values(&self) -> [usize; 5] {
        self.values.map(|v| v as usize)
    }

    /// Number of attributes on which two panels differ.
    pub fn distance(&self, other: &Panel) -> usize {
        self.values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Applies perception noise: each attribute is independently replaced by a random
    /// value with probability `p`, emulating neural-frontend errors.
    pub fn perturbed<R: Rng + ?Sized>(&self, p: f64, rng: &mut R) -> Self {
        self.perturbed_with(AttributeVocab::raven(), p, rng)
    }

    /// [`Panel::perturbed`] drawing replacement values from a configurable
    /// vocabulary. The draw pattern (one `gen_bool` per attribute, one `gen_range`
    /// per flip) is identical to [`Panel::perturbed`], so with the RAVEN vocab the
    /// rng stream and results match exactly.
    pub fn perturbed_with<R: Rng + ?Sized>(
        &self,
        vocab: AttributeVocab,
        p: f64,
        rng: &mut R,
    ) -> Self {
        let mut values = self.values;
        for (i, c) in vocab.cardinalities().iter().enumerate() {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                values[i] = stored(rng.gen_range(0..*c));
            }
        }
        Self { values }
    }
}

impl fmt::Display for Panel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Panel(pos={}, num={}, type={}, size={}, color={})",
            self.values[0], self.values[1], self.values[2], self.values[3], self.values[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn attribute_metadata() {
        assert_eq!(Attribute::ALL.len(), 5);
        assert_eq!(Attribute::Color.cardinality(), 10);
        assert_eq!(Attribute::Type.index(), 2);
        assert_eq!(Attribute::Position.to_string(), "position");
        let total: usize = ATTRIBUTE_CARDINALITIES.iter().product();
        // The full product space — what a product codebook would have to store.
        assert_eq!(total, 9 * 9 * 5 * 6 * 10);
    }

    #[test]
    fn panel_accessors_and_mutation() {
        let p = Panel::new([1, 2, 3, 4, 5]);
        assert_eq!(p.value(Attribute::Position), 1);
        assert_eq!(p.value(Attribute::Color), 5);
        assert_eq!(p.values(), [1, 2, 3, 4, 5]);
        let q = p.with_value(Attribute::Color, 7);
        assert_eq!(q.value(Attribute::Color), 7);
        assert_eq!(p.distance(&q), 1);
        assert_eq!(p.distance(&p), 0);
        // with_value wraps out-of-range inputs.
        assert_eq!(
            p.with_value(Attribute::Type, 12).value(Attribute::Type),
            12 % 5
        );
        assert!(p.to_string().contains("color=5"));
    }

    #[test]
    fn values_round_trip_and_saturate() {
        let values = [8, 0, 4, 5, 9];
        assert_eq!(Panel::new(values).values(), values);
        let big = u16::MAX as usize;
        assert_eq!(Panel::new_unchecked([big, 1, 2, 3, 4]).values()[0], big);
        for v in [usize::MAX, big + 1] {
            let p = Panel::new_unchecked([0, 0, v, 0, 0]);
            assert_eq!(p.value(Attribute::Type), big);
            assert!(!p.is_well_formed());
            // Even the widest vocabulary keeps a saturated value out of range.
            assert!(!p.is_well_formed_with(AttributeVocab::uniform(MAX_CARDINALITY)));
        }
    }

    #[test]
    #[should_panic(expected = "above the panel maximum")]
    fn vocab_wider_than_the_panel_width_panics() {
        let _ = AttributeVocab::uniform(MAX_CARDINALITY + 1);
    }

    #[test]
    fn vocab_try_from_applies_both_bounds() {
        let widest = [MAX_CARDINALITY; 5];
        assert_eq!(
            AttributeVocab::try_from(widest),
            Ok(AttributeVocab::uniform(MAX_CARDINALITY))
        );
        assert_eq!(
            <[usize; 5]>::from(AttributeVocab::raven()),
            ATTRIBUTE_CARDINALITIES
        );
        let too_wide = AttributeVocab::try_from([9, 9, MAX_CARDINALITY + 1, 6, 10]);
        assert!(too_wide.unwrap_err().contains("above the panel maximum"));
        let too_narrow = AttributeVocab::try_from([9, 9, 4, 6, 10]);
        assert!(too_narrow.unwrap_err().contains("below the RAVEN base"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panel_panics() {
        let _ = Panel::new([0, 0, 9, 0, 0]);
    }

    #[test]
    fn perturbation_extremes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = Panel::new([0, 1, 2, 3, 4]);
        assert_eq!(p.perturbed(0.0, &mut rng), p);
        // With p=1 every attribute is resampled; it may coincide by chance but over many
        // attributes at least one should change.
        let q = p.perturbed(1.0, &mut rng);
        assert!(q
            .values()
            .iter()
            .zip(ATTRIBUTE_CARDINALITIES)
            .all(|(v, c)| *v < c));
    }

    proptest! {
        #[test]
        fn prop_random_panels_are_in_range(seed in 0u64..1000) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = Panel::random(&mut rng);
            for (v, c) in p.values().iter().zip(ATTRIBUTE_CARDINALITIES) {
                prop_assert!(*v < c);
            }
        }

        #[test]
        fn prop_distance_is_symmetric_and_bounded(seed in 0u64..500) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a = Panel::random(&mut rng);
            let b = Panel::random(&mut rng);
            prop_assert_eq!(a.distance(&b), b.distance(&a));
            prop_assert!(a.distance(&b) <= 5);
        }
    }
}
