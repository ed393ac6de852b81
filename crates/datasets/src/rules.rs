//! Row-governing rules (RAVEN / PGM rule types).

use crate::panel::{Attribute, AttributeVocab, Panel};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The rule families used by RAVEN and PGM (Tab. VII's second half lists Constant,
/// Progression, XOR, AND, OR, Arithmetic, Distribution as the evaluated rule types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RuleKind {
    /// The attribute value is identical across the row.
    Constant,
    /// The attribute increases by a fixed step along the row (modulo its cardinality).
    Progression,
    /// Third panel's value is (first + second) modulo the cardinality.
    Arithmetic,
    /// The three values of the row are a permutation of a fixed value triple
    /// ("distribute three" in RAVEN, "distribution" in PGM).
    DistributeThree,
    /// Third value is the bitwise XOR of the first two (PGM logical rule).
    Xor,
    /// Third value is the bitwise AND of the first two (PGM logical rule).
    And,
    /// Third value is the bitwise OR of the first two (PGM logical rule).
    Or,
}

impl RuleKind {
    /// Rule kinds used when generating RAVEN / I-RAVEN problems.
    pub const RAVEN: [RuleKind; 4] = [
        RuleKind::Constant,
        RuleKind::Progression,
        RuleKind::Arithmetic,
        RuleKind::DistributeThree,
    ];

    /// Rule kinds used when generating PGM-style problems (adds the logical rules).
    pub const PGM: [RuleKind; 7] = [
        RuleKind::Constant,
        RuleKind::Progression,
        RuleKind::Arithmetic,
        RuleKind::DistributeThree,
        RuleKind::Xor,
        RuleKind::And,
        RuleKind::Or,
    ];
}

impl fmt::Display for RuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RuleKind::Constant => "Constant",
            RuleKind::Progression => "Progression",
            RuleKind::Arithmetic => "Arithmetic",
            RuleKind::DistributeThree => "Distribute-Three",
            RuleKind::Xor => "XOR",
            RuleKind::And => "AND",
            RuleKind::Or => "OR",
        };
        write!(f, "{name}")
    }
}

/// A rule bound to one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rule {
    /// Which attribute the rule governs.
    pub attribute: Attribute,
    /// The rule family.
    pub kind: RuleKind,
    /// Family-specific parameter: step for Progression, the value triple's seed for
    /// DistributeThree, unused otherwise.
    pub parameter: usize,
}

impl Rule {
    /// Samples a random rule of the given kind for an attribute, drawing family
    /// parameters from `vocab` (the Distribute-Three triple seed ranges over the
    /// attribute's cardinality).
    pub fn random_with<R: Rng + ?Sized>(
        attribute: Attribute,
        kind: RuleKind,
        vocab: AttributeVocab,
        rng: &mut R,
    ) -> Self {
        let parameter = match kind {
            RuleKind::Progression => 1 + rng.gen_range(0..2usize), // step 1 or 2
            RuleKind::DistributeThree => rng.gen_range(0..vocab.cardinality(attribute)),
            _ => 0,
        };
        Self {
            attribute,
            kind,
            parameter,
        }
    }

    /// The value triple `(v0, v1, v2)` this rule produces for one row, given the first
    /// two values (which the generator may choose freely for most rules). Values are
    /// taken modulo `vocab`'s cardinality for this rule's attribute.
    pub fn complete_row_with(
        &self,
        vocab: AttributeVocab,
        v0: usize,
        v1: usize,
    ) -> (usize, usize, usize) {
        let card = vocab.cardinality(self.attribute);
        match self.kind {
            RuleKind::Constant => (v0, v0, v0),
            RuleKind::Progression => {
                let step = self.parameter.max(1);
                (v0, (v0 + step) % card, (v0 + 2 * step) % card)
            }
            RuleKind::Arithmetic => (v0, v1, (v0 + v1) % card),
            RuleKind::DistributeThree => {
                // The triple is {p, p+1, p+2} (mod card), rotated so each row is a
                // different permutation; v0 selects the rotation.
                let p = self.parameter;
                let triple = [p % card, (p + 1) % card, (p + 2) % card];
                let r = v0 % 3;
                (triple[r], triple[(r + 1) % 3], triple[(r + 2) % 3])
            }
            RuleKind::Xor => (v0, v1, (v0 ^ v1) % card),
            RuleKind::And => (v0, v1, (v0 & v1) % card),
            RuleKind::Or => (v0, v1, (v0 | v1) % card),
        }
    }

    /// Whether a value triple satisfies this rule, with arithmetic modulo `vocab`'s
    /// cardinality for this rule's attribute.
    pub fn satisfied_with(&self, vocab: AttributeVocab, v0: usize, v1: usize, v2: usize) -> bool {
        let card = vocab.cardinality(self.attribute);
        match self.kind {
            RuleKind::Constant => v0 == v1 && v1 == v2,
            RuleKind::Progression => {
                let step = self.parameter.max(1);
                v1 == (v0 + step) % card && v2 == (v1 + step) % card
            }
            RuleKind::Arithmetic => v2 == (v0 + v1) % card,
            RuleKind::DistributeThree => {
                let p = self.parameter;
                let mut expected = [p % card, (p + 1) % card, (p + 2) % card];
                let mut actual = [v0, v1, v2];
                expected.sort_unstable();
                actual.sort_unstable();
                expected == actual
            }
            RuleKind::Xor => v2 == (v0 ^ v1) % card,
            RuleKind::And => v2 == (v0 & v1) % card,
            RuleKind::Or => v2 == (v0 | v1) % card,
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}", self.kind, self.attribute)
    }
}

/// One rule per attribute — the hidden structure of a reasoning problem.
///
/// Held inline in four bytes per attribute (the rule kind and its parameter; the
/// attribute is the position in [`Attribute::ALL`]), so a [`crate::Problem`] costs
/// no heap allocation for its rules — serving traces hold tens of thousands of
/// problems.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSet {
    rules: [(RuleKind, u16); Attribute::ALL.len()],
}

impl RuleSet {
    /// Samples one random rule per attribute from the given rule-kind pool, drawing
    /// rule parameters from `vocab`.
    pub fn random_with<R: Rng + ?Sized>(
        pool: &[RuleKind],
        vocab: AttributeVocab,
        rng: &mut R,
    ) -> Self {
        let rules = Attribute::ALL.map(|attr| {
            let kind = pool[rng.gen_range(0..pool.len())];
            let rule = Rule::random_with(attr, kind, vocab, rng);
            // Parameters are a step of 1 or 2 or a value below the attribute's
            // cardinality, which `AttributeVocab` caps at `u16::MAX`.
            let parameter = u16::try_from(rule.parameter).expect("rule parameter fits u16");
            (rule.kind, parameter)
        });
        Self { rules }
    }

    /// The per-attribute rules in [`Attribute::ALL`] order.
    pub fn rules(&self) -> [Rule; Attribute::ALL.len()] {
        Attribute::ALL.map(|attribute| self.rule_for(attribute))
    }

    /// The rule governing one attribute.
    pub fn rule_for(&self, attribute: Attribute) -> Rule {
        let (kind, parameter) = self.rules[attribute.index()];
        Rule {
            attribute,
            kind,
            parameter: parameter.into(),
        }
    }

    /// Generates one complete row of three panels consistent with every rule,
    /// drawing free panel values from `vocab` (two `gen_range` calls per rule).
    pub fn generate_row_with<R: Rng + ?Sized>(
        &self,
        vocab: AttributeVocab,
        rng: &mut R,
    ) -> [Panel; 3] {
        let mut row = [[0usize; 5]; 3];
        for rule in self.rules() {
            let card = vocab.cardinality(rule.attribute);
            let v0 = rng.gen_range(0..card);
            let v1 = rng.gen_range(0..card);
            let (a, b, c) = rule.complete_row_with(vocab, v0, v1);
            row[0][rule.attribute.index()] = a;
            row[1][rule.attribute.index()] = b;
            row[2][rule.attribute.index()] = c;
        }
        // Values from an enlarged vocab exceed `Panel::new`'s RAVEN bounds check.
        [
            Panel::new_unchecked(row[0]),
            Panel::new_unchecked(row[1]),
            Panel::new_unchecked(row[2]),
        ]
    }

    /// Whether a full row satisfies every rule, with rule arithmetic over `vocab`.
    pub fn row_satisfied_with(&self, vocab: AttributeVocab, row: &[Panel; 3]) -> bool {
        self.rules().iter().all(|rule| {
            rule.satisfied_with(
                vocab,
                row[0].value(rule.attribute),
                row[1].value(rule.attribute),
                row[2].value(rule.attribute),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn rule_kind_pools() {
        assert_eq!(RuleKind::RAVEN.len(), 4);
        assert_eq!(RuleKind::PGM.len(), 7);
        assert!(RuleKind::PGM.contains(&RuleKind::Xor));
        assert!(!RuleKind::RAVEN.contains(&RuleKind::Xor));
        assert_eq!(RuleKind::DistributeThree.to_string(), "Distribute-Three");
    }

    #[test]
    fn each_rule_kind_generates_satisfying_rows() {
        let mut r = rng(10);
        for kind in RuleKind::PGM {
            for _ in 0..20 {
                let rule =
                    Rule::random_with(Attribute::Color, kind, AttributeVocab::raven(), &mut r);
                let v0 = r.gen_range(0..10);
                let v1 = r.gen_range(0..10);
                let (a, b, c) = rule.complete_row_with(AttributeVocab::raven(), v0, v1);
                assert!(
                    rule.satisfied_with(AttributeVocab::raven(), a, b, c),
                    "kind {kind}: ({a},{b},{c}) does not satisfy {rule}"
                );
            }
        }
    }

    #[test]
    fn constant_and_progression_specifics() {
        let constant = Rule {
            attribute: Attribute::Size,
            kind: RuleKind::Constant,
            parameter: 0,
        };
        assert_eq!(
            constant.complete_row_with(AttributeVocab::raven(), 3, 5),
            (3, 3, 3)
        );
        assert!(constant.satisfied_with(AttributeVocab::raven(), 2, 2, 2));
        assert!(!constant.satisfied_with(AttributeVocab::raven(), 2, 2, 3));

        let prog = Rule {
            attribute: Attribute::Number,
            kind: RuleKind::Progression,
            parameter: 2,
        };
        assert_eq!(
            prog.complete_row_with(AttributeVocab::raven(), 7, 0),
            (7, 0, 2)
        ); // wraps modulo 9
        assert!(prog.satisfied_with(AttributeVocab::raven(), 1, 3, 5));
        assert!(!prog.satisfied_with(AttributeVocab::raven(), 1, 3, 6));
    }

    #[test]
    fn arithmetic_and_logical_rules() {
        let arith = Rule {
            attribute: Attribute::Color,
            kind: RuleKind::Arithmetic,
            parameter: 0,
        };
        assert_eq!(
            arith.complete_row_with(AttributeVocab::raven(), 6, 7),
            (6, 7, 3)
        ); // (6+7) mod 10
        let xor = Rule {
            attribute: Attribute::Color,
            kind: RuleKind::Xor,
            parameter: 0,
        };
        assert_eq!(
            xor.complete_row_with(AttributeVocab::raven(), 6, 3),
            (6, 3, 5)
        );
        let and = Rule {
            attribute: Attribute::Color,
            kind: RuleKind::And,
            parameter: 0,
        };
        assert_eq!(
            and.complete_row_with(AttributeVocab::raven(), 6, 3),
            (6, 3, 2)
        );
        let or = Rule {
            attribute: Attribute::Color,
            kind: RuleKind::Or,
            parameter: 0,
        };
        assert_eq!(
            or.complete_row_with(AttributeVocab::raven(), 6, 3),
            (6, 3, 7)
        );
    }

    #[test]
    fn distribute_three_is_a_permutation_of_a_fixed_triple() {
        let rule = Rule {
            attribute: Attribute::Type,
            kind: RuleKind::DistributeThree,
            parameter: 2,
        };
        let (a, b, c) = rule.complete_row_with(AttributeVocab::raven(), 0, 0);
        let mut values = [a, b, c];
        values.sort_unstable();
        assert_eq!(values, [2, 3, 4]);
        assert!(rule.satisfied_with(AttributeVocab::raven(), 4, 2, 3));
        assert!(!rule.satisfied_with(AttributeVocab::raven(), 4, 2, 2));
        // Different rotations for different v0.
        assert_ne!(
            rule.complete_row_with(AttributeVocab::raven(), 0, 0).0,
            rule.complete_row_with(AttributeVocab::raven(), 1, 0).0
        );
    }

    #[test]
    fn ruleset_generates_consistent_rows_and_completions() {
        let mut r = rng(11);
        for seed in 0..20u64 {
            let mut r2 = rng(seed);
            let rules = RuleSet::random_with(&RuleKind::RAVEN, AttributeVocab::raven(), &mut r2);
            let row = rules.generate_row_with(AttributeVocab::raven(), &mut r);
            assert!(rules.row_satisfied_with(AttributeVocab::raven(), &row));
            assert_eq!(rules.rules().len(), 5);
            assert_eq!(rules.rule_for(Attribute::Color).attribute, Attribute::Color);
        }
    }

    #[test]
    fn ruleset_stores_the_sampled_rules_inline_and_exactly() {
        // The widest vocabulary draws Distribute-Three seeds up to u16::MAX - 1.
        let vocab = AttributeVocab::uniform(crate::MAX_CARDINALITY);
        for seed in 0..50u64 {
            let set = RuleSet::random_with(&RuleKind::PGM, vocab, &mut rng(seed));
            let mut replay = rng(seed);
            let expected = Attribute::ALL.map(|attr| {
                let kind = RuleKind::PGM[replay.gen_range(0..RuleKind::PGM.len())];
                Rule::random_with(attr, kind, vocab, &mut replay)
            });
            assert_eq!(set.rules(), expected);
        }
        assert_eq!(
            std::mem::size_of::<RuleSet>(),
            20,
            "no heap, four bytes a rule"
        );
    }

    proptest! {
        #[test]
        fn prop_complete_row_always_satisfies(seed in 0u64..300, kind_idx in 0usize..7, v0 in 0usize..10, v1 in 0usize..10) {
            let mut r = rng(seed);
            let kind = RuleKind::PGM[kind_idx];
            let rule = Rule::random_with(Attribute::Color, kind, AttributeVocab::raven(), &mut r);
            let (a, b, c) = rule.complete_row_with(AttributeVocab::raven(), v0 % 10, v1 % 10);
            prop_assert!(rule.satisfied_with(AttributeVocab::raven(), a, b, c));
            prop_assert!(a < 10 && b < 10 && c < 10);
        }

        #[test]
        fn prop_generated_rows_are_in_range(seed in 0u64..200) {
            let mut r = rng(seed);
            let rules = RuleSet::random_with(&RuleKind::PGM, AttributeVocab::raven(), &mut r);
            let row = rules.generate_row_with(AttributeVocab::raven(), &mut r);
            prop_assert!(rules.row_satisfied_with(AttributeVocab::raven(), &row));
        }
    }
}
