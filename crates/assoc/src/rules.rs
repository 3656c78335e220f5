//! Association-rule generation (`ap-genrules`).

use crate::itemsets::FrequentItemsets;
use dm_dataset::DataError;
use std::cmp::Reverse;
use std::fmt;

/// An association rule `antecedent ⇒ consequent` with its quality
/// measures. Antecedent and consequent are disjoint sorted itemsets whose
/// union is a frequent itemset; they share one allocation.
#[derive(Clone, PartialEq)]
pub struct Rule {
    /// The antecedent, then the consequent.
    items: Box<[u32]>,
    /// Where the consequent starts in `items`.
    split: usize,
    /// Relative support of antecedent ∪ consequent.
    pub support: f64,
    /// `supp(A ∪ C) / supp(A)`.
    pub confidence: f64,
    /// `confidence / supp(C)` — > 1 means positive correlation.
    pub lift: f64,
}

const _: () = assert!(std::mem::size_of::<Rule>() <= 48);

impl Rule {
    /// A rule with the given sides and measures.
    pub fn new(
        antecedent: &[u32],
        consequent: &[u32],
        support: f64,
        confidence: f64,
        lift: f64,
    ) -> Self {
        Rule {
            items: [antecedent, consequent].concat().into_boxed_slice(),
            split: antecedent.len(),
            support,
            confidence,
            lift,
        }
    }

    /// Left-hand side (non-empty).
    pub fn antecedent(&self) -> &[u32] {
        &self.items[..self.split]
    }

    /// Right-hand side (non-empty).
    pub fn consequent(&self) -> &[u32] {
        &self.items[self.split..]
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("antecedent", &self.antecedent())
            .field("consequent", &self.consequent())
            .field("support", &self.support)
            .field("confidence", &self.confidence)
            .field("lift", &self.lift)
            .finish()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (a, c) = (self.antecedent(), self.consequent());
        let (supp, conf, lift) = (self.support, self.confidence, self.lift);
        write!(
            f,
            "{a:?} => {c:?} (supp {supp:.4}, conf {conf:.4}, lift {lift:.2})"
        )
    }
}

/// A rule held during generation: the ranks of its antecedent, its
/// consequent and the itemset it splits.
type Found = (u32, u32, u32);

const _: () = assert!(std::mem::size_of::<Found>() == 12);

/// Generates confidence-filtered rules from mined frequent itemsets using
/// the `ap-genrules` recursion of Agrawal & Srikant: consequents grow
/// level-wise, and a consequent whose rule misses the confidence bar is
/// never extended (confidence is anti-monotone in the consequent).
#[derive(Debug, Clone)]
pub struct RuleGenerator {
    min_confidence: f64,
}

impl RuleGenerator {
    /// Creates a generator with a confidence threshold in `[0, 1]`.
    pub fn new(min_confidence: f64) -> Self {
        Self { min_confidence }
    }

    /// Generates all rules meeting the confidence threshold, ordered by
    /// descending confidence, then descending support, then ascending
    /// antecedent, then ascending consequent (both lexicographic). No two
    /// rules share both antecedent and consequent, so the order is total
    /// and the output is unique.
    pub fn generate(&self, itemsets: &FrequentItemsets) -> Result<Vec<Rule>, DataError> {
        self.generate_top(itemsets, usize::MAX)
    }

    /// The first `n` rules of [`generate`](Self::generate), without the
    /// rest: once `2n` are held, the best `n` set a rising confidence
    /// floor for later rules and, on downward-closed itemsets (as every
    /// complete mining result is), for the consequents to extend.
    pub fn generate_top(
        &self,
        itemsets: &FrequentItemsets,
        n: usize,
    ) -> Result<Vec<Rule>, DataError> {
        if !(0.0..=1.0).contains(&self.min_confidence) {
            return Err(DataError::InvalidParameter(format!(
                "min_confidence {} not in [0, 1]",
                self.min_confidence
            )));
        }
        let total = itemsets.n_transactions() as f64;
        if n == 0 || total == 0.0 || itemsets.max_len() < 2 {
            return Ok(Vec::new());
        }
        let count_of = |rank: u32| itemsets.ranked(rank).1;
        // Reused across itemsets: `level` holds the consequents of one
        // width as rows, `kept` the ranks of those to extend, ascending
        // because rows come in lexicographic order.
        let (mut level, mut kept, mut buf) = (Vec::new(), Vec::new(), Vec::new());
        let mut found: Vec<Found> = Vec::new();
        // Support and confidence as the scan computes them.
        let support_of = |r: &Found| count_of(r.2) as f64 / total;
        let confidence_of = |r: &Found| count_of(r.2) as f64 / count_of(r.0) as f64;
        // Ranks order as their itemsets do, `key` as `f64::total_cmp`, and
        // supports, all divided by one `total`, as their itemsets' counts,
        // so `order` is exactly the documented order.
        let key = |x: f64| {
            let bits = x.to_bits();
            Reverse(bits ^ (((bits as i64 >> 63) as u64) | (1 << 63)))
        };
        let order = |r: &Found| (key(confidence_of(r)), Reverse(count_of(r.2)), r.0, r.1);
        // Rules are kept from `floor` up, consequents extended from `extend`
        // up, which follows the floor where extensions cannot gain confidence.
        let (mut floor, mut extend) = (self.min_confidence, self.min_confidence);
        let closed = n < usize::MAX && itemsets.verify_downward_closure();
        for rank in 0..itemsets.len() as u32 {
            let (items, count) = itemsets.ranked(rank);
            let count = count as f64;
            level.clone_from(items);
            // The antecedent must stay non-empty.
            for width in 1..items.len() {
                kept.clear();
                for consequent in level.chunks_exact(width) {
                    buf.clear();
                    buf.extend(items.iter().filter(|i| !consequent.contains(i)));
                    // Downward closure guarantees both lookups succeed on a
                    // complete mining result; a truncated one may lack the
                    // subset, and then the rule is not emitted.
                    let Some(antecedent) = itemsets.rank(&buf) else {
                        continue;
                    };
                    let confidence = count / count_of(antecedent) as f64;
                    if confidence >= extend {
                        let Some(cons) = itemsets.rank(consequent) else {
                            continue;
                        };
                        kept.push(cons);
                        if confidence < floor {
                            continue;
                        }
                        found.push((antecedent, cons, rank));
                        if found.len() == n.saturating_mul(2) {
                            found.select_nth_unstable_by_key(n - 1, order);
                            found.truncate(n);
                            floor = confidence_of(&found[n - 1]);
                            if closed {
                                extend = floor;
                            }
                        }
                    }
                }
                level.clear();
                join(itemsets, &kept, &mut level, &mut buf);
            }
        }
        // At most `2n - 1` remain; sorting them all is as cheap as selecting.
        // Each key is computed once: the cache lives only for the sort, and
        // is smaller than the rules materialized after it.
        found.sort_by_cached_key(order);
        found.truncate(n);
        Ok(found
            .iter()
            .map(|r @ &(a, c, _)| {
                let conf = confidence_of(r);
                let lift = conf / (count_of(c) as f64 / total);
                Rule::new(
                    itemsets.ranked(a).0,
                    itemsets.ranked(c).0,
                    support_of(r),
                    conf,
                    lift,
                )
            })
            .collect())
    }
}

/// `apriori-gen` over the consequents ranked `kept`: joins each pair
/// sharing all but its last item, and appends the joined row to `out`
/// only if every subset one item shorter is ranked in `kept` too.
fn join(itemsets: &FrequentItemsets, kept: &[u32], out: &mut Vec<u32>, subset: &mut Vec<u32>) {
    for (i, &a) in kept.iter().enumerate() {
        let a = itemsets.ranked(a).0;
        let prefix = &a[..a.len() - 1];
        // `kept` is in lexicographic order, so the rows sharing `a`'s
        // prefix directly follow it.
        for &b in &kept[i + 1..] {
            let b = itemsets.ranked(b).0;
            if !b.starts_with(prefix) {
                break;
            }
            let last = b[b.len() - 1];
            // Dropping either of the last two items gives `b` or `a`.
            let frequent = (0..prefix.len()).all(|skip| {
                subset.clear();
                subset.extend_from_slice(&a[..skip]);
                subset.extend_from_slice(&a[skip + 1..]);
                subset.push(last);
                itemsets
                    .rank(subset)
                    .is_some_and(|rank| kept.binary_search(&rank).is_ok())
            });
            if frequent {
                out.extend_from_slice(a);
                out.push(last);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itemsets::Itemset;
    use crate::{Apriori, ItemsetMiner, MinSupport};
    use dm_dataset::TransactionDb;

    fn mined() -> FrequentItemsets {
        let db = TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ]);
        Apriori::new(MinSupport::Count(2))
            .mine(&db)
            .unwrap()
            .itemsets
    }

    #[test]
    fn high_confidence_rules() {
        let rules = RuleGenerator::new(1.0).generate(&mined()).unwrap();
        // Rules with confidence exactly 1.0 from the paper database:
        // {1}=>{3}, {2}=>{5}, {5}=>{2}, {1,3}? supp{1,3}=2 ... check a few.
        assert!(rules
            .iter()
            .any(|r| r.antecedent() == [1] && r.consequent() == [3]));
        assert!(rules
            .iter()
            .any(|r| r.antecedent() == [2] && r.consequent() == [5]));
        assert!(rules.iter().all(|r| r.confidence >= 1.0 - 1e-12));
    }

    #[test]
    fn confidence_and_lift_values() {
        let rules = RuleGenerator::new(0.5).generate(&mined()).unwrap();
        // {3}=>{2}: supp({2,3})=2, supp({3})=3 -> conf 2/3; supp({2})=3/4
        // -> lift (2/3)/(3/4) = 8/9.
        let r = rules
            .iter()
            .find(|r| r.antecedent() == [3] && r.consequent() == [2])
            .expect("rule present");
        assert!((r.confidence - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.support - 0.5).abs() < 1e-12);
        assert!((r.lift - 8.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn multi_item_consequents_generated() {
        let rules = RuleGenerator::new(0.5).generate(&mined()).unwrap();
        // {2,3,5} is frequent: rule {3} => {2,5} has conf supp(235)/supp(3)
        // = 2/3 ≥ 0.5 and must appear via the consequent-growing pass.
        assert!(rules
            .iter()
            .any(|r| r.antecedent() == [3] && r.consequent() == [2, 5]));
    }

    #[test]
    fn rule_count_grows_as_confidence_falls() {
        let f = mined();
        let high = RuleGenerator::new(0.9).generate(&f).unwrap().len();
        let mid = RuleGenerator::new(0.7).generate(&f).unwrap().len();
        let low = RuleGenerator::new(0.5).generate(&f).unwrap().len();
        assert!(high <= mid && mid <= low);
        assert!(low > high, "threshold must have an effect");
    }

    #[test]
    fn rules_are_sorted_by_confidence() {
        let rules = RuleGenerator::new(0.3).generate(&mined()).unwrap();
        assert!(rules.windows(2).all(|w| w[0].confidence >= w[1].confidence));
    }

    #[test]
    fn antecedent_and_consequent_partition_the_itemset() {
        let rules = RuleGenerator::new(0.3).generate(&mined()).unwrap();
        for r in &rules {
            assert!(!r.antecedent().is_empty());
            assert!(!r.consequent().is_empty());
            let mut union: Itemset = r
                .antecedent()
                .iter()
                .chain(r.consequent())
                .copied()
                .collect();
            union.sort_unstable();
            let dup_free = union.windows(2).all(|w| w[0] < w[1]);
            assert!(dup_free, "antecedent and consequent overlap: {r}");
            assert!(mined().support_count(&union).is_some());
        }
    }

    #[test]
    fn invalid_confidence_rejected() {
        assert!(RuleGenerator::new(-0.1).generate(&mined()).is_err());
        assert!(RuleGenerator::new(1.1).generate(&mined()).is_err());
    }

    #[test]
    fn empty_itemsets_yield_no_rules() {
        let empty = FrequentItemsets::from_levels(vec![], 0);
        assert!(RuleGenerator::new(0.5).generate(&empty).unwrap().is_empty());
    }

    #[test]
    fn display_format() {
        let rules = RuleGenerator::new(0.9).generate(&mined()).unwrap();
        let s = rules[0].to_string();
        assert!(s.contains("=>"));
        assert!(s.contains("conf"));
    }

    /// `Display` and `Debug` print a rule as they did when it was a
    /// struct of two `Vec`s and three measures.
    #[test]
    fn formats_are_stable() {
        let rule = Rule::new(&[1, 4], &[9], 0.25, 2.0 / 3.0, 1.5);
        assert_eq!(
            rule.to_string(),
            "[1, 4] => [9] (supp 0.2500, conf 0.6667, lift 1.50)"
        );
        assert_eq!(
            format!("{rule:?}"),
            "Rule { antecedent: [1, 4], consequent: [9], support: 0.25, \
             confidence: 0.6666666666666666, lift: 1.5 }"
        );
        assert_eq!(
            format!("{rule:#?}"),
            "Rule {\n    antecedent: [\n        1,\n        4,\n    ],\n    \
             consequent: [\n        9,\n    ],\n    support: 0.25,\n    \
             confidence: 0.6666666666666666,\n    lift: 1.5,\n}"
        );
    }
}
