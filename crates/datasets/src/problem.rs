//! Full reasoning problems (3×3 matrix + candidate answers) and their generators.

use crate::panel::{Attribute, AttributeVocab, Panel};
use crate::rules::{RuleKind, RuleSet};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// RAVEN constellations (spatial layouts). Together with the seven rule types they form
/// the 14 test scenarios of Tab. VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Constellation {
    /// A single centred object.
    Center,
    /// Objects on a 2×2 grid.
    Grid2x2,
    /// Objects on a 3×3 grid.
    Grid3x3,
    /// Two objects, left and right.
    LeftRight,
    /// Two objects, up and down.
    UpDown,
    /// An object inside an outline object ("O-IC").
    OutInCenter,
    /// Four objects inside an outline ("O-IG" / distribute-four).
    DistributeFour,
}

impl Constellation {
    /// All constellations, in Tab. VII order.
    pub const ALL: [Constellation; 7] = [
        Constellation::Grid2x2,
        Constellation::Grid3x3,
        Constellation::LeftRight,
        Constellation::UpDown,
        Constellation::Center,
        Constellation::OutInCenter,
        Constellation::DistributeFour,
    ];

    /// Typical number of objects per panel — used by the workload models to scale the
    /// number of symbolic queries per panel.
    pub fn objects_per_panel(self) -> usize {
        match self {
            Constellation::Center => 1,
            Constellation::LeftRight | Constellation::UpDown | Constellation::OutInCenter => 2,
            Constellation::Grid2x2 | Constellation::DistributeFour => 4,
            Constellation::Grid3x3 => 9,
        }
    }
}

impl fmt::Display for Constellation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Constellation::Center => "Center",
            Constellation::Grid2x2 => "2x2Grid",
            Constellation::Grid3x3 => "3x3Grid",
            Constellation::LeftRight => "Left-Right",
            Constellation::UpDown => "Up-Down",
            Constellation::OutInCenter => "O-IC",
            Constellation::DistributeFour => "DistFour",
        };
        write!(f, "{name}")
    }
}

/// The five reasoning benchmarks of the paper's evaluation (Sec. VII-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// RAVEN: RPM problems with RAVEN rules and RAVEN-style (perturbation) distractors.
    Raven,
    /// I-RAVEN: same rules, attribute-bisection distractors (removes answer-set bias).
    IRaven,
    /// PGM: adds the logical XOR/AND/OR rules.
    Pgm,
    /// CVR-style compositional visual reasoning, abstracted to a reduced rule pool and a
    /// four-candidate answer set.
    Cvr,
    /// SVRT-style synthetic visual reasoning, abstracted like CVR.
    Svrt,
}

impl DatasetKind {
    /// All five benchmarks in the order used by Fig. 15 / Fig. 16 / Tab. X.
    pub const ALL: [DatasetKind; 5] = [
        DatasetKind::Raven,
        DatasetKind::IRaven,
        DatasetKind::Pgm,
        DatasetKind::Cvr,
        DatasetKind::Svrt,
    ];

    /// The rule-kind pool used when generating problems of this benchmark.
    pub fn rule_pool(self) -> &'static [RuleKind] {
        match self {
            DatasetKind::Raven | DatasetKind::IRaven => &RuleKind::RAVEN,
            DatasetKind::Pgm => &RuleKind::PGM,
            DatasetKind::Cvr | DatasetKind::Svrt => &RuleKind::RAVEN[..2],
        }
    }

    /// Number of candidate answers a problem of this benchmark presents.
    pub fn num_candidates(self) -> usize {
        match self {
            DatasetKind::Cvr | DatasetKind::Svrt => 4,
            _ => 8,
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DatasetKind::Raven => "RAVEN",
            DatasetKind::IRaven => "I-RAVEN",
            DatasetKind::Pgm => "PGM",
            DatasetKind::Cvr => "CVR",
            DatasetKind::Svrt => "SVRT",
        };
        write!(f, "{name}")
    }
}

/// One reasoning problem: eight context panels (the 3×3 matrix minus the bottom-right
/// cell), the candidate answers, the index of the correct candidate, and the hidden
/// rule set (ground truth, used for evaluation only).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Problem {
    /// Which benchmark this problem was drawn from.
    pub dataset: DatasetKind,
    /// Spatial constellation.
    pub constellation: Constellation,
    /// The eight visible panels, row-major.
    pub context: Vec<Panel>,
    /// Candidate answers for the missing ninth panel.
    pub candidates: Vec<Panel>,
    /// Index of the correct candidate.
    pub answer_index: usize,
    /// The hidden per-attribute rules.
    pub rules: RuleSet,
}

impl Problem {
    /// The correct answer panel.
    pub fn answer(&self) -> Panel {
        self.candidates[self.answer_index]
    }

    /// The two visible panels of the incomplete bottom row.
    pub fn last_row_context(&self) -> (Panel, Panel) {
        (self.context[6], self.context[7])
    }

    /// Checks the generator's own consistency: every complete row satisfies every rule,
    /// and the labelled answer completes the bottom row. A problem must be checked
    /// with the vocabulary it was generated with ([`ProblemGenerator::vocab`]): rule
    /// arithmetic is modulo the vocab's cardinalities.
    pub fn verify_answer_with(&self, vocab: AttributeVocab) -> bool {
        let row0 = [self.context[0], self.context[1], self.context[2]];
        let row1 = [self.context[3], self.context[4], self.context[5]];
        let row2 = [self.context[6], self.context[7], self.answer()];
        self.rules.row_satisfied_with(vocab, &row0)
            && self.rules.row_satisfied_with(vocab, &row1)
            && self.rules.row_satisfied_with(vocab, &row2)
    }

    /// Returns `true` if `candidate` (an index) is the unique rule-consistent completion.
    pub fn is_correct(&self, candidate: usize) -> bool {
        candidate == self.answer_index
    }
}

/// Problem generator for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProblemGenerator {
    dataset: DatasetKind,
    #[serde(default)]
    vocab: AttributeVocab,
}

impl ProblemGenerator {
    /// Creates a generator for the given benchmark with the standard RAVEN vocabulary.
    pub fn new(dataset: DatasetKind) -> Self {
        Self {
            dataset,
            vocab: AttributeVocab::raven(),
        }
    }

    /// Creates a generator whose panel values range over an enlarged attribute
    /// vocabulary — the knob that scales the solver's codebooks from RAVEN's
    /// 10 rows to 10^4+.
    pub fn with_vocab(dataset: DatasetKind, vocab: AttributeVocab) -> Self {
        Self { dataset, vocab }
    }

    /// The benchmark this generator produces.
    pub fn dataset(&self) -> DatasetKind {
        self.dataset
    }

    /// The attribute vocabulary panel values are drawn from.
    pub fn vocab(&self) -> AttributeVocab {
        self.vocab
    }

    /// Generates one problem with a random constellation.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Problem {
        let constellation = Constellation::ALL[rng.gen_range(0..Constellation::ALL.len())];
        self.generate_with_constellation(constellation, rng)
    }

    /// Generates one problem with a fixed constellation (used by the Tab. VII sweep).
    pub fn generate_with_constellation<R: Rng + ?Sized>(
        &self,
        constellation: Constellation,
        rng: &mut R,
    ) -> Problem {
        let rules = RuleSet::random_with(self.dataset.rule_pool(), self.vocab, rng);
        let row0 = rules.generate_row_with(self.vocab, rng);
        let row1 = rules.generate_row_with(self.vocab, rng);
        let row2 = rules.generate_row_with(self.vocab, rng);
        let answer = row2[2];

        let context = vec![
            row0[0], row0[1], row0[2], row1[0], row1[1], row1[2], row2[0], row2[1],
        ];

        let num_candidates = self.dataset.num_candidates();
        let distractors = match self.dataset {
            DatasetKind::IRaven => iraven_distractors(answer, self.vocab, num_candidates - 1, rng),
            _ => raven_distractors(answer, self.vocab, num_candidates - 1, rng),
        };
        let answer_index = rng.gen_range(0..num_candidates);
        let mut candidates = distractors;
        // Exactly one more slot: `insert` into a full vector would double it.
        candidates.reserve_exact(1);
        candidates.insert(answer_index, answer);

        Problem {
            dataset: self.dataset,
            constellation,
            context,
            candidates,
            answer_index,
            rules,
        }
    }

    /// Generates a batch of problems.
    pub fn generate_batch<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Problem> {
        (0..count).map(|_| self.generate(rng)).collect()
    }

    /// Generates a deliberately **malformed** problem for robustness testing: a
    /// well-formed problem with one of four spec corruptions applied — a wrong
    /// context-panel count, an emptied candidate set, an out-of-range answer index,
    /// or an out-of-range attribute value (via [`Panel::new_unchecked`]).
    ///
    /// The solving engine's boundary validation must reject every shape this
    /// produces with a typed error instead of panicking; the `cogsys-serve` chaos
    /// harness uses it to poison traffic traces.
    pub fn generate_malformed<R: Rng + ?Sized>(&self, rng: &mut R) -> Problem {
        let mut problem = self.generate(rng);
        match rng.gen_range(0..4) {
            0 => {
                // Wrong panel count: drop or duplicate a context panel.
                if rng.gen_bool(0.5) {
                    problem.context.pop();
                } else {
                    problem.context.push(problem.context[0]);
                }
            }
            1 => problem.candidates.clear(),
            2 => problem.answer_index = problem.candidates.len() + rng.gen_range(0..3usize),
            _ => {
                let panel = rng.gen_range(0..problem.context.len());
                let attr = Attribute::ALL[rng.gen_range(0..Attribute::ALL.len())];
                let mut values = problem.context[panel].values();
                values[attr.index()] = self.vocab.cardinality(attr) + rng.gen_range(0..7usize);
                problem.context[panel] = Panel::new_unchecked(values);
            }
        }
        problem
    }
}

/// RAVEN-style distractors: independently perturb a random non-empty subset of the
/// answer's attributes. (This is the scheme whose statistical bias I-RAVEN later fixed.)
fn raven_distractors<R: Rng + ?Sized>(
    answer: Panel,
    vocab: AttributeVocab,
    count: usize,
    rng: &mut R,
) -> Vec<Panel> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut candidate = answer;
        let changes = 1 + rng.gen_range(0..3);
        for _ in 0..changes {
            let attr = Attribute::ALL[rng.gen_range(0..Attribute::ALL.len())];
            let card = vocab.cardinality(attr);
            let new = (candidate.value(attr) + 1 + rng.gen_range(0..card - 1)) % card;
            candidate = candidate.with_value_with(vocab, attr, new);
        }
        if candidate != answer && !out.contains(&candidate) {
            out.push(candidate);
        }
    }
    out
}

/// I-RAVEN-style distractors (attribute bisection): pick three attributes and enumerate
/// every non-empty subset of single-attribute modifications, so each attribute value is
/// balanced across the answer set and the answer cannot be guessed from candidate
/// statistics alone.
fn iraven_distractors<R: Rng + ?Sized>(
    answer: Panel,
    vocab: AttributeVocab,
    count: usize,
    rng: &mut R,
) -> Vec<Panel> {
    // Choose three distinct attributes and an alternative value for each.
    let mut attrs = Attribute::ALL.to_vec();
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, rng.gen_range(0..=i));
    }
    let chosen: Vec<(Attribute, usize)> = attrs
        .into_iter()
        .take(3)
        .map(|a| {
            let card = vocab.cardinality(a);
            let alt = (answer.value(a) + 1 + rng.gen_range(0..card - 1)) % card;
            (a, alt)
        })
        .collect();

    let mut out = Vec::with_capacity(count);
    for mask in 1u32..8 {
        if out.len() >= count {
            break;
        }
        let mut candidate = answer;
        for (bit, (attr, alt)) in chosen.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                candidate = candidate.with_value_with(vocab, *attr, *alt);
            }
        }
        out.push(candidate);
    }
    // Top up (only needed when count > 7, which no benchmark uses) with perturbations.
    while out.len() < count {
        out.extend(raven_distractors(answer, vocab, count - out.len(), rng));
    }
    out.truncate(count);
    out
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
    fn dataset_metadata() {
        assert_eq!(DatasetKind::ALL.len(), 5);
        assert_eq!(DatasetKind::Raven.num_candidates(), 8);
        assert_eq!(DatasetKind::Cvr.num_candidates(), 4);
        assert_eq!(DatasetKind::Pgm.rule_pool().len(), 7);
        assert_eq!(DatasetKind::Raven.rule_pool().len(), 4);
        assert_eq!(DatasetKind::Svrt.rule_pool().len(), 2);
        assert_eq!(DatasetKind::IRaven.to_string(), "I-RAVEN");
        assert_eq!(Constellation::ALL.len(), 7);
        assert_eq!(Constellation::Grid3x3.objects_per_panel(), 9);
        assert_eq!(Constellation::Center.objects_per_panel(), 1);
        assert_eq!(Constellation::Grid2x2.to_string(), "2x2Grid");
    }

    #[test]
    fn generated_problems_are_well_formed() {
        for dataset in DatasetKind::ALL {
            let generator = ProblemGenerator::new(dataset);
            assert_eq!(generator.dataset(), dataset);
            let mut r = rng(42);
            for _ in 0..25 {
                let p = generator.generate(&mut r);
                assert_eq!(p.context.len(), 8);
                assert_eq!(p.candidates.len(), dataset.num_candidates());
                assert!(p.answer_index < p.candidates.len());
                assert!(
                    p.verify_answer_with(AttributeVocab::raven()),
                    "{dataset}: answer fails its own rules"
                );
                assert!(p.is_correct(p.answer_index));
            }
        }
    }

    #[test]
    fn answer_is_the_unique_rule_consistent_candidate() {
        // Every rule determines the third value uniquely given the first two, so no
        // distractor can complete the bottom row consistently.
        let generator = ProblemGenerator::new(DatasetKind::IRaven);
        let mut r = rng(7);
        for _ in 0..50 {
            let p = generator.generate(&mut r);
            let (c0, c1) = p.last_row_context();
            let consistent: Vec<usize> = p
                .candidates
                .iter()
                .enumerate()
                .filter(|(_, cand)| {
                    p.rules
                        .row_satisfied_with(AttributeVocab::raven(), &[c0, c1, **cand])
                })
                .map(|(i, _)| i)
                .collect();
            assert_eq!(consistent, vec![p.answer_index]);
        }
    }

    #[test]
    fn distractors_are_distinct_from_answer() {
        let mut r = rng(8);
        for dataset in DatasetKind::ALL {
            let p = ProblemGenerator::new(dataset).generate(&mut r);
            for (i, cand) in p.candidates.iter().enumerate() {
                if i != p.answer_index {
                    assert_ne!(*cand, p.answer(), "{dataset} distractor equals answer");
                }
            }
        }
    }

    #[test]
    fn iraven_distractors_differ_in_at_most_three_attributes() {
        let mut r = rng(9);
        let p = ProblemGenerator::new(DatasetKind::IRaven).generate(&mut r);
        for cand in &p.candidates {
            assert!(cand.distance(&p.answer()) <= 3);
        }
    }

    #[test]
    fn fixed_constellation_generation() {
        let mut r = rng(10);
        let p = ProblemGenerator::new(DatasetKind::Raven)
            .generate_with_constellation(Constellation::Grid3x3, &mut r);
        assert_eq!(p.constellation, Constellation::Grid3x3);
    }

    #[test]
    fn malformed_problems_break_at_least_one_invariant() {
        let generator = ProblemGenerator::new(DatasetKind::Raven);
        let mut r = rng(13);
        for _ in 0..100 {
            let p = generator.generate_malformed(&mut r);
            let well_formed = p.context.len() == 8
                && !p.candidates.is_empty()
                && p.answer_index < p.candidates.len()
                && p.context
                    .iter()
                    .all(|panel| panel.is_well_formed_with(AttributeVocab::raven()))
                && p.candidates
                    .iter()
                    .all(|panel| panel.is_well_formed_with(AttributeVocab::raven()));
            assert!(!well_formed, "generate_malformed produced a valid problem");
        }
    }

    #[test]
    fn unchecked_panels_carry_out_of_range_values() {
        let p = Panel::new_unchecked([100, 0, 0, 0, 0]);
        assert_eq!(p.values()[0], 100);
        assert!(!p.is_well_formed_with(AttributeVocab::raven()));
        assert!(Panel::new([1, 2, 3, 4, 5]).is_well_formed_with(AttributeVocab::raven()));
    }

    #[test]
    fn raven_vocab_generator_matches_default_generator() {
        // The vocab-threaded paths reproduce the exact rng draw pattern of the
        // original code, so a generator built with the RAVEN vocab is
        // indistinguishable from the default one under the same seed.
        let default_gen = ProblemGenerator::new(DatasetKind::IRaven);
        let vocab_gen = ProblemGenerator::with_vocab(DatasetKind::IRaven, AttributeVocab::raven());
        assert!(vocab_gen.vocab().is_raven());
        for seed in 0..10u64 {
            let a = default_gen.generate(&mut rng(seed));
            let b = vocab_gen.generate(&mut rng(seed));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn enlarged_vocab_problems_verify_and_use_large_values() {
        let vocab = AttributeVocab::uniform(600);
        assert_eq!(vocab.max_cardinality(), 600);
        for dataset in DatasetKind::ALL {
            let generator = ProblemGenerator::with_vocab(dataset, vocab);
            let mut r = rng(21);
            let mut saw_large_value = false;
            for _ in 0..25 {
                let p = generator.generate(&mut r);
                assert_eq!(p.context.len(), 8);
                assert_eq!(p.candidates.len(), dataset.num_candidates());
                assert!(
                    p.verify_answer_with(vocab),
                    "{dataset}: vocab answer fails its own rules"
                );
                saw_large_value |= p
                    .context
                    .iter()
                    .chain(p.candidates.iter())
                    .any(|panel| panel.values().iter().any(|v| *v >= 10));
                for panel in p.context.iter().chain(p.candidates.iter()) {
                    assert!(panel.is_well_formed_with(vocab));
                }
            }
            assert!(
                saw_large_value,
                "{dataset}: enlarged vocab never produced values beyond the RAVEN range"
            );
        }
    }

    #[test]
    fn enlarged_vocab_answer_is_unique_consistent_candidate() {
        let vocab = AttributeVocab::uniform(512);
        let generator = ProblemGenerator::with_vocab(DatasetKind::IRaven, vocab);
        let mut r = rng(31);
        for _ in 0..30 {
            let p = generator.generate(&mut r);
            let (c0, c1) = p.last_row_context();
            let consistent: Vec<usize> = p
                .candidates
                .iter()
                .enumerate()
                .filter(|(_, cand)| p.rules.row_satisfied_with(vocab, &[c0, c1, **cand]))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(consistent, vec![p.answer_index]);
        }
    }

    #[test]
    fn batch_generation() {
        let mut r = rng(11);
        let batch = ProblemGenerator::new(DatasetKind::Pgm).generate_batch(12, &mut r);
        assert_eq!(batch.len(), 12);
        assert!(batch
            .iter()
            .all(|p| p.verify_answer_with(AttributeVocab::raven())));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_problems_always_verify(seed in 0u64..5000, kind_idx in 0usize..5) {
            let dataset = DatasetKind::ALL[kind_idx];
            let mut r = rng(seed);
            let p = ProblemGenerator::new(dataset).generate(&mut r);
            prop_assert!(p.verify_answer_with(AttributeVocab::raven()));
            prop_assert_eq!(p.context.len(), 8);
            // Candidates are pairwise structurally valid panels.
            for c in &p.candidates {
                for (v, card) in c.values().iter().zip(crate::panel::ATTRIBUTE_CARDINALITIES) {
                    prop_assert!(*v < card);
                }
            }
        }
    }
}
