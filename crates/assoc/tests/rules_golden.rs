//! Golden hashes of `RuleGenerator::generate` output: every rule, in
//! output order, with its measures' exact bits. Any change to which
//! rules are emitted, their order, or a single bit of support,
//! confidence or lift changes the hash.
//!
//! The two D100K rows take seconds in a release build and minutes in a
//! debug one, so they run only without debug assertions:
//! `cargo test -p dm-assoc --test rules_golden --release`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_assoc::{mine, Method, MinSupport, Rule, RuleGenerator};
use dm_dataset::TransactionDb;
use dm_synth::{QuestConfig, QuestGenerator};

/// FNV-1a 64 over the rule list: per rule, each antecedent item as a
/// little-endian `u64`, a `u64::MAX` separator, each consequent item,
/// then the bits of support, confidence and lift.
fn rules_hash(rules: &[Rule]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in rules {
        r.antecedent().iter().for_each(|&i| feed(u64::from(i)));
        feed(u64::MAX);
        r.consequent().iter().for_each(|&i| feed(u64::from(i)));
        feed(r.support.to_bits());
        feed(r.confidence.to_bits());
        feed(r.lift.to_bits());
    }
    h
}

/// Quest T10.I4 with `n` transactions.
fn quest(n: usize, pattern_seed: u64, seed: u64) -> TransactionDb {
    QuestGenerator::new(QuestConfig::standard(10.0, 4.0, n), pattern_seed)
        .unwrap()
        .generate(seed)
}

/// The basket database behind the served demo bundle (`ModelSet::demo`).
fn demo_db(s: u64) -> TransactionDb {
    let cfg = QuestConfig {
        n_transactions: 300,
        avg_txn_len: 8.0,
        avg_pattern_len: 4.0,
        n_patterns: 50,
        n_items: 100,
        correlation: 0.25,
        corruption_mean: 0.5,
        corruption_sd: 0.1,
    };
    QuestGenerator::new(cfg, s)
        .unwrap()
        .generate(s.wrapping_add(1))
}

fn check(db: &TransactionDb, minsup: f64, minconf: f64, count: usize, hash: u64, ctx: &str) {
    let mined = mine(db, MinSupport::Fraction(minsup), Method::Auto).unwrap();
    let rules = RuleGenerator::new(minconf)
        .generate(&mined.itemsets)
        .unwrap();
    assert_eq!(rules.len(), count, "{ctx}: rule count");
    assert_eq!(rules_hash(&rules), hash, "{ctx}: rule hash");
}

#[test]
fn d10k_rules_match_golden() {
    for (pattern, seed, minsup, minconf, count, hash) in [
        (3, 4, 0.005, 0.0, 61_022, 0xabce_85c2_97e7_a87c),
        (5, 6, 0.01, 1.0, 0, 0xcbf2_9ce4_8422_2325),
        (1, 2, 0.003, 0.3, 51_232, 0x6cf7_5c69_25be_8e56),
    ] {
        let ctx = format!("D10K pattern {pattern} seed {seed}");
        check(
            &quest(10_000, pattern, seed),
            minsup,
            minconf,
            count,
            hash,
            &ctx,
        );
    }
}

#[test]
fn demo_db_rules_match_golden() {
    for (s, count, hash) in [
        (7, 31_626, 0x457f_07fd_377c_672c),
        (3, 92_609, 0xd246_d796_a3da_29bc),
        (5, 74_396, 0x5ef6_0c31_599b_41e4),
    ] {
        check(
            &demo_db(s),
            0.02,
            0.4,
            count,
            hash,
            &format!("demo s = {s}"),
        );
    }
}

#[test]
fn d100k_rules_match_golden() {
    if cfg!(debug_assertions) {
        return;
    }
    for (seed, count, hash) in [
        (1, 227_954, 0xf539_781d_2e0e_a881),
        (2, 297_159, 0x045c_b043_f1ce_e6e5),
    ] {
        let ctx = format!("D100K pattern 7 seed {seed}");
        check(&quest(100_000, 7, seed), 0.0025, 0.5, count, hash, &ctx);
    }
}
