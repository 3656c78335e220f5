//! Transaction databases for frequent-itemset mining.

use crate::error::DataError;
use std::io::{BufRead, BufWriter, Write};

/// A database of transactions, each a sorted, deduplicated list of item
/// ids in `0..n_items`.
///
/// This is the input format of the association-rule miners. Items are
/// plain `u32` ids; callers that have named items keep their own mapping
/// (see [`crate::Dict`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionDb {
    txns: Vec<Vec<u32>>,
    n_items: u32,
}

impl TransactionDb {
    /// Builds a database from raw transactions.
    ///
    /// Each transaction is sorted and deduplicated; `n_items` is computed
    /// as one past the largest item id (0 for an empty database).
    ///
    /// # Panics
    /// Panics if an item id is `u32::MAX`: no `u32` universe `0..n_items`
    /// contains it. [`TransactionDb::read_from`] rejects such ids with a
    /// typed error instead.
    pub fn new(raw: Vec<Vec<u32>>) -> Self {
        let (txns, max_item) = canonicalize(raw);
        let n_items = max_item.map_or(0, |max| {
            assert!(max < u32::MAX, "item id {max} is outside every universe");
            max + 1
        });
        Self { txns, n_items }
    }

    /// Builds a database asserting a fixed item universe of `n_items`.
    ///
    /// Fails if any transaction references an item `>= n_items`.
    pub fn with_universe(raw: Vec<Vec<u32>>, n_items: u32) -> Result<Self, DataError> {
        let (txns, max_item) = canonicalize(raw);
        if let Some(max) = max_item.filter(|&max| max >= n_items) {
            return Err(DataError::InvalidParameter(format!(
                "transaction references item {max} outside universe of {n_items}"
            )));
        }
        Ok(Self { txns, n_items })
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// Whether the database has no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// Size of the item universe (one past the largest id).
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// The transaction at index `i` (sorted item ids).
    pub fn transaction(&self, i: usize) -> &[u32] {
        &self.txns[i]
    }

    /// Iterates transactions as sorted slices.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.txns.iter().map(Vec::as_slice)
    }

    /// The transactions as a contiguous slice, for chunked (parallel)
    /// scans over the database.
    pub fn transactions(&self) -> &[Vec<u32>] {
        &self.txns
    }

    /// Mean transaction length.
    pub fn mean_len(&self) -> f64 {
        if self.txns.is_empty() {
            return 0.0;
        }
        self.txns.iter().map(Vec::len).sum::<usize>() as f64 / self.txns.len() as f64
    }

    /// Absolute support count of `itemset` (must be sorted, deduplicated).
    ///
    /// This is the O(|D| · |T|) reference counter used by tests and the
    /// brute-force miner; the real miners count during their passes.
    pub fn support_count(&self, itemset: &[u32]) -> usize {
        debug_assert!(itemset.windows(2).all(|w| w[0] < w[1]));
        self.iter().filter(|t| is_subset_sorted(itemset, t)).count()
    }

    /// Relative support of `itemset` in `[0, 1]`.
    pub fn support(&self, itemset: &[u32]) -> f64 {
        if self.txns.is_empty() {
            return 0.0;
        }
        self.support_count(itemset) as f64 / self.txns.len() as f64
    }

    /// Converts a fractional minimum support into an absolute count,
    /// rounding up (a set is frequent iff its count ≥ the returned value).
    pub fn min_support_count(&self, min_support: f64) -> usize {
        ((min_support * self.txns.len() as f64).ceil() as usize).max(1)
    }

    /// Writes the database in a simple line-per-transaction text format
    /// (space-separated item ids).
    pub fn write_to<W: Write>(&self, w: W) -> Result<(), DataError> {
        let mut out = BufWriter::new(w);
        let mut line: Vec<u8> = Vec::new();
        for t in &self.txns {
            line.clear();
            for (k, &item) in t.iter().enumerate() {
                if k > 0 {
                    line.push(b' ');
                }
                push_decimal(&mut line, item);
            }
            line.push(b'\n');
            out.write_all(&line)?;
        }
        out.flush()?;
        Ok(())
    }

    /// Reads the format written by [`TransactionDb::write_to`]. Blank lines
    /// are empty transactions.
    ///
    /// Every token must be an item id below `u32::MAX`; anything else is a
    /// [`DataError::Csv`] naming the line.
    pub fn read_from<R: BufRead>(r: R) -> Result<Self, DataError> {
        let mut raw = Vec::new();
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            let mut t = Vec::new();
            for tok in line.split_whitespace() {
                let item = tok
                    .parse::<u32>()
                    .ok()
                    .filter(|&item| item < u32::MAX)
                    .ok_or_else(|| DataError::Csv {
                        line: i + 1,
                        message: format!("invalid item id `{tok}` (ids are 0..{})", u32::MAX),
                    })?;
                t.push(item);
            }
            raw.push(t);
        }
        Ok(Self::new(raw))
    }
}

/// Sorts and deduplicates each transaction, returning them with the
/// largest item id seen (`None` when no transaction has an item).
fn canonicalize(raw: Vec<Vec<u32>>) -> (Vec<Vec<u32>>, Option<u32>) {
    let mut max_item = None;
    let txns = raw
        .into_iter()
        .map(|mut t| {
            t.sort_unstable();
            t.dedup();
            max_item = max_item.max(t.last().copied());
            t
        })
        .collect();
    (txns, max_item)
}

/// Appends the decimal digits of `v` to `buf`.
fn push_decimal(buf: &mut Vec<u8>, mut v: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Whether sorted slice `small` is a subset of sorted slice `big`.
#[inline]
pub fn is_subset_sorted(small: &[u32], big: &[u32]) -> bool {
    let mut bi = 0usize;
    'outer: for &s in small {
        while bi < big.len() {
            match big[bi].cmp(&s) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> TransactionDb {
        TransactionDb::new(vec![
            vec![1, 3, 4],
            vec![2, 3, 5],
            vec![1, 2, 3, 5],
            vec![2, 5],
        ])
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let db = TransactionDb::new(vec![vec![3, 1, 3, 2]]);
        assert_eq!(db.transaction(0), &[1, 2, 3]);
        assert_eq!(db.n_items(), 4);
    }

    #[test]
    fn universe_validation() {
        assert!(TransactionDb::with_universe(vec![vec![0, 5]], 6).is_ok());
        assert!(TransactionDb::with_universe(vec![vec![0, 5]], 5).is_err());
        let db = TransactionDb::with_universe(vec![vec![0]], 100).unwrap();
        assert_eq!(db.n_items(), 100);
    }

    #[test]
    fn support_counting_matches_hand_computation() {
        let db = db();
        // Classic Agrawal–Srikant example database.
        assert_eq!(db.support_count(&[2, 3]), 2);
        assert_eq!(db.support_count(&[2, 5]), 3);
        assert_eq!(db.support_count(&[1]), 2);
        assert_eq!(db.support_count(&[2, 3, 5]), 2);
        assert_eq!(db.support_count(&[4, 5]), 0);
        assert_eq!(db.support_count(&[]), 4); // empty set in every txn
        assert!((db.support(&[2, 5]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn min_support_count_rounds_up_and_floors_at_one() {
        let db = db(); // 4 transactions
        assert_eq!(db.min_support_count(0.5), 2);
        assert_eq!(db.min_support_count(0.51), 3);
        assert_eq!(db.min_support_count(0.0), 1);
        assert_eq!(db.min_support_count(1.0), 4);
    }

    #[test]
    fn subset_check() {
        assert!(is_subset_sorted(&[], &[1, 2]));
        assert!(is_subset_sorted(&[2], &[1, 2, 3]));
        assert!(is_subset_sorted(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset_sorted(&[1, 4], &[1, 2, 3]));
        assert!(!is_subset_sorted(&[0], &[]));
    }

    #[test]
    fn text_roundtrip() {
        let db = db();
        let mut buf = Vec::new();
        db.write_to(&mut buf).unwrap();
        let back = TransactionDb::read_from(&buf[..]).unwrap();
        assert_eq!(db, back);
    }

    #[test]
    fn read_rejects_garbage() {
        let err = TransactionDb::read_from("1 2\n3 x\n".as_bytes()).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 2, .. }));
    }

    #[test]
    fn read_rejects_the_max_id() {
        // No universe `0..n_items` of u32 contains u32::MAX.
        let err = TransactionDb::read_from(&b"4294967295 1\n1\n"[..]).unwrap_err();
        assert!(matches!(err, DataError::Csv { line: 1, .. }), "{err:?}");
        let db = TransactionDb::read_from(&b"4294967294 1\n1\n"[..]).unwrap();
        assert_eq!(db.n_items(), u32::MAX);
    }

    #[test]
    fn universe_rejects_the_max_id() {
        let err = TransactionDb::with_universe(vec![vec![u32::MAX]], u32::MAX).unwrap_err();
        assert!(matches!(err, DataError::InvalidParameter(_)), "{err:?}");
    }

    #[test]
    #[should_panic(expected = "outside every universe")]
    fn new_rejects_the_max_id_without_overflow() {
        TransactionDb::new(vec![vec![0, u32::MAX]]);
    }

    #[test]
    fn mean_len() {
        assert!((db().mean_len() - 3.0).abs() < 1e-12);
        assert_eq!(TransactionDb::new(vec![]).mean_len(), 0.0);
    }
}
