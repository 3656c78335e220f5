//! Fuzz-style robustness tests: `dm_obs::json::parse` over arbitrary
//! byte soup must never panic — every input yields a `Json` value or a
//! typed [`JsonError`] that renders with a byte offset. The parser
//! fronts everything the serving and ledger layers load from disk
//! (artifact bundles, run records, baselines), so totality here is
//! what turns file corruption into readable exit-2 errors instead of
//! crashes.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_obs::json::{parse, Writer};
use proptest::prelude::*;

/// Characters weighted toward JSON's tricky corners: structure, string
/// escapes, unicode escapes, number edges, and the literal keywords.
/// A code point weighted toward what a string writer must escape:
/// control characters, quotes and backslashes, ASCII, then any scalar
/// value (surrogates fall back to U+FFFD).
fn pick_char(class: u32, raw: u32) -> char {
    let code = match class {
        0 => raw % 0x20,
        1 => [0x22, 0x5c, 0x2f, 0x7f][raw as usize % 4],
        2 => raw % 0x80,
        _ => raw % 0x11_0000,
    };
    char::from_u32(code).unwrap_or('\u{fffd}')
}

const JSONISH: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', 'u', 'n', 't', 'f', 'a', 'l', 's', 'e', 'r', '0', '1',
    '9', '-', '+', '.', 'E', ' ', '\n', '\t', 'x', '\u{7f}', 'é',
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_total_on_arbitrary_bytes(bytes in prop::collection::vec(0u8..=255u8, 0..512)) {
        // Arbitrary bytes are usually not UTF-8; the lossy conversion
        // keeps the byte soup's shape while giving the parser the &str
        // it takes.
        let text = String::from_utf8_lossy(&bytes);
        match parse(&text) {
            Ok(value) => {
                // Whatever parsed must survive its own accessors.
                let _ = value.as_u64();
                let _ = value.as_f64();
                let _ = value.as_str();
            }
            Err(e) => {
                let rendered = e.to_string();
                prop_assert!(rendered.contains("byte"), "error locates itself: {rendered}");
                prop_assert!(e.offset <= text.len(), "offset stays in bounds");
            }
        }
    }

    #[test]
    fn parse_total_on_jsonish_text(picks in prop::collection::vec(0usize..JSONISH.len(), 0..256)) {
        let doc: String = picks.iter().map(|&i| JSONISH[i]).collect();
        match parse(&doc) {
            Ok(value) => {
                let _ = value.as_arr();
                let _ = value.as_obj();
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn parse_accepts_every_valid_number_literal(bits in 0u64..=u64::MAX) {
        // Round-trippable finite numbers must parse back to themselves.
        let n = f64::from_bits(bits);
        prop_assume!(n.is_finite());
        let doc = format!("{n}");
        let value = parse(&doc).expect("shortest-round-trip float parses");
        prop_assert_eq!(value.as_f64(), Some(n));
    }

    #[test]
    fn writer_strings_round_trip(picks in prop::collection::vec((0u32..4, 0u32..0x11_0000), 0..64)) {
        let s: String = picks.iter().map(|&(class, raw)| pick_char(class, raw)).collect();
        let mut w = Writer::new();
        w.str(&s);
        let back = parse(&w.finish()).expect("a written string parses");
        prop_assert_eq!(back.as_str(), Some(s.as_str()));
    }

    #[test]
    fn writer_finite_floats_round_trip_bit_exact(bits in 0u64..=u64::MAX) {
        let n = f64::from_bits(bits);
        prop_assume!(n.is_finite());
        // Both spellings the writer offers must read back to the same bits.
        let mut w = Writer::new();
        w.arr(dm_obs::json::Layout::Inline, |w| {
            w.f64(n).f64_plain(n);
        });
        let back: Vec<f64> = parse(&w.finish()).unwrap().to("floats").unwrap();
        prop_assert_eq!(back.len(), 2);
        prop_assert_eq!(back[0].to_bits(), bits);
        prop_assert_eq!(back[1].to_bits(), bits);
    }
}

#[test]
fn writer_u64_max_round_trips_exactly() {
    let mut w = Writer::new();
    w.u64(u64::MAX);
    assert_eq!(parse(&w.finish()).unwrap().as_u64(), Some(u64::MAX));
}
