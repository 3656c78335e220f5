//! Association-rule generation (`ap-genrules`).

use crate::itemsets::{FrequentItemsets, Itemset};
use dm_dataset::DataError;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;

/// An association rule `antecedent ⇒ consequent` with its quality
/// measures. Antecedent and consequent are disjoint sorted itemsets whose
/// union is a frequent itemset.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Left-hand side (non-empty).
    pub antecedent: Itemset,
    /// Right-hand side (non-empty).
    pub consequent: Itemset,
    /// Relative support of antecedent ∪ consequent.
    pub support: f64,
    /// `supp(A ∪ C) / supp(A)`.
    pub confidence: f64,
    /// `confidence / supp(C)` — > 1 means positive correlation.
    pub lift: f64,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} => {:?} (supp {:.4}, conf {:.4}, lift {:.2})",
            self.antecedent, self.consequent, self.support, self.confidence, self.lift
        )
    }
}

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
        let (sorted, index) = rank_index(itemsets);
        // Reused across itemsets: `level` holds the consequents of one
        // width as rows, `kept` the ranks of those to extend, ascending
        // because rows come in lexicographic order.
        let (mut level, mut kept, mut buf) = (Vec::new(), Vec::new(), Vec::new());
        // (support, confidence, lift, antecedent rank, consequent rank)
        let mut found: Vec<(f64, f64, f64, u32, u32)> = Vec::new();
        // Ranks order as their itemsets do and `key` as `f64::total_cmp`,
        // so `order` is exactly the documented order.
        let key = |x: f64| {
            let bits = x.to_bits();
            Reverse(bits ^ (((bits as i64 >> 63) as u64) | (1 << 63)))
        };
        let order = |r: &(f64, f64, f64, u32, u32)| (key(r.1), key(r.0), r.3, r.4);
        // Rules are kept from `floor` up, consequents extended from `extend`
        // up, which follows the floor where extensions cannot gain confidence.
        let (mut floor, mut extend) = (self.min_confidence, self.min_confidence);
        let closed = n < usize::MAX && itemsets.verify_downward_closure();
        for size in 2..=itemsets.max_len() {
            for (items, count) in itemsets.level(size) {
                let count = *count as f64;
                level.clone_from(items);
                // The antecedent must stay non-empty.
                for width in 1..items.len() {
                    kept.clear();
                    for consequent in level.chunks_exact(width) {
                        buf.clear();
                        buf.extend(items.iter().filter(|i| !consequent.contains(i)));
                        // Downward closure guarantees both lookups succeed
                        // on a complete mining result; a truncated one may
                        // lack the subset, and then the rule is not emitted.
                        let Some(&(ante_count, antecedent)) = index.get(buf.as_slice()) else {
                            continue;
                        };
                        let confidence = count / ante_count as f64;
                        if confidence >= extend {
                            let Some(&(cons_count, cons)) = index.get(consequent) else {
                                continue;
                            };
                            kept.push(cons);
                            if confidence < floor {
                                continue;
                            }
                            let lift = confidence / (cons_count as f64 / total);
                            found.push((count / total, confidence, lift, antecedent, cons));
                            if found.len() == n.saturating_mul(2) {
                                found.select_nth_unstable_by_key(n - 1, order);
                                found.truncate(n);
                                floor = found[n - 1].1;
                                if closed {
                                    extend = floor;
                                }
                            }
                        }
                    }
                    level.clear();
                    join(&sorted, &index, &kept, &mut level, &mut buf);
                }
            }
        }
        // At most `2n - 1` remain; sorting them all is as cheap as selecting.
        found.sort_unstable_by_key(order);
        found.truncate(n);
        Ok(found
            .iter()
            .map(|&(support, confidence, lift, a, c)| Rule {
                antecedent: sorted[a as usize].to_vec(),
                consequent: sorted[c as usize].to_vec(),
                support,
                confidence,
                lift,
            })
            .collect())
    }
}

/// Itemset → (support count, rank).
type RankIndex<'a> = HashMap<&'a [u32], (usize, u32)>;

/// Every frequent itemset once, in lexicographic order (an itemset's
/// rank is its position), and the index into it.
fn rank_index(itemsets: &FrequentItemsets) -> (Vec<&[u32]>, RankIndex<'_>) {
    let mut all: Vec<(&[u32], usize)> = itemsets.iter().map(|(i, c)| (i.as_slice(), c)).collect();
    // Stable, so a duplicated itemset keeps its last count, as
    // `FrequentItemsets::support_count` does.
    all.sort_by(|a, b| a.0.cmp(b.0));
    let mut sorted: Vec<&[u32]> = Vec::with_capacity(all.len());
    let mut index = HashMap::with_capacity(all.len());
    for (items, count) in all {
        if sorted.last() != Some(&items) {
            sorted.push(items);
        }
        index.insert(items, (count, sorted.len() as u32 - 1));
    }
    (sorted, index)
}

/// `apriori-gen` over the consequents ranked `kept`: joins each pair
/// sharing all but its last item, and appends the joined row to `out`
/// only if every subset one item shorter is ranked in `kept` too.
fn join(
    sorted: &[&[u32]],
    index: &RankIndex<'_>,
    kept: &[u32],
    out: &mut Vec<u32>,
    subset: &mut Vec<u32>,
) {
    for (i, &a) in kept.iter().enumerate() {
        let a = sorted[a as usize];
        let prefix = &a[..a.len() - 1];
        // `kept` is in lexicographic order, so the rows sharing `a`'s
        // prefix directly follow it.
        for &b in &kept[i + 1..] {
            let b = sorted[b as usize];
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
                index
                    .get(subset.as_slice())
                    .is_some_and(|(_, rank)| kept.binary_search(rank).is_ok())
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
            .any(|r| r.antecedent == vec![1] && r.consequent == vec![3]));
        assert!(rules
            .iter()
            .any(|r| r.antecedent == vec![2] && r.consequent == vec![5]));
        assert!(rules.iter().all(|r| r.confidence >= 1.0 - 1e-12));
    }

    #[test]
    fn confidence_and_lift_values() {
        let rules = RuleGenerator::new(0.5).generate(&mined()).unwrap();
        // {3}=>{2}: supp({2,3})=2, supp({3})=3 -> conf 2/3; supp({2})=3/4
        // -> lift (2/3)/(3/4) = 8/9.
        let r = rules
            .iter()
            .find(|r| r.antecedent == vec![3] && r.consequent == vec![2])
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
            .any(|r| r.antecedent == vec![3] && r.consequent == vec![2, 5]));
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
            assert!(!r.antecedent.is_empty());
            assert!(!r.consequent.is_empty());
            let mut union: Itemset = r.antecedent.iter().chain(&r.consequent).copied().collect();
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
}
