//! Fuzz-style tests for the transaction text format: `read_from` is total
//! over arbitrary bytes, `write_to` ∘ `read_from` is the identity, and
//! `write_to` renders exactly what a `format!`-based writer would.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_dataset::{DataError, TransactionDb};
use proptest::prelude::*;

/// Bytes weighted toward the format's corners: digits, separators,
/// signs, line ends and the first digits of `u32::MAX`.
const TXNISH: &[&str] = &[
    "0",
    "1",
    "9",
    " ",
    "\t",
    "\n",
    "\r\n",
    "+",
    "-",
    "x",
    "4294967295",
    "4294967294",
    "4294967296",
    "00",
    "\u{a0}",
    "\u{ff}",
];

/// The format as a `format!`-based writer renders it.
fn reference_render(db: &TransactionDb) -> Vec<u8> {
    let mut out = String::new();
    for t in db.iter() {
        let ids: Vec<String> = t.iter().map(|id| format!("{id}")).collect();
        out.push_str(&ids.join(" "));
        out.push('\n');
    }
    out.into_bytes()
}

/// Item ids skewed toward the edges: 0, small, large and `u32::MAX - 1`.
fn item() -> impl Strategy<Value = u32> {
    (0u8..4, 0u32..u32::MAX).prop_map(|(edge, id)| match edge {
        0 => 0,
        1 => u32::MAX - 1,
        2 => id % 100,
        _ => id,
    })
}

/// Databases with empty baskets, duplicate and unsorted raw ids.
fn database() -> impl Strategy<Value = TransactionDb> {
    prop::collection::vec(prop::collection::vec(item(), 0..8), 0..24).prop_map(TransactionDb::new)
}

fn check_total(bytes: &[u8]) {
    match TransactionDb::read_from(bytes) {
        Ok(db) => {
            assert!(db.iter().flatten().all(|&id| id < db.n_items()));
        }
        Err(e) => {
            assert!(
                matches!(e, DataError::Csv { .. } | DataError::Io(_)),
                "{e:?}"
            );
            assert!(!e.to_string().is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn read_from_total_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255u8, 0..512)) {
        // Invalid UTF-8 surfaces as DataError::Io through BufRead::lines.
        check_total(&bytes);
    }

    #[test]
    fn read_from_total_on_transaction_like_text(
        picks in prop::collection::vec(0usize..TXNISH.len(), 0..128),
    ) {
        let doc: String = picks.iter().map(|&i| TXNISH[i]).collect();
        check_total(doc.as_bytes());
    }

    #[test]
    fn write_then_read_is_the_identity(db in database()) {
        let mut bytes = Vec::new();
        db.write_to(&mut bytes).unwrap();
        prop_assert_eq!(TransactionDb::read_from(&bytes[..]).unwrap(), db);
    }

    #[test]
    fn write_to_matches_the_reference_renderer(db in database()) {
        let mut bytes = Vec::new();
        db.write_to(&mut bytes).unwrap();
        prop_assert_eq!(bytes, reference_render(&db));
    }
}
