//! Byte-level goldens for the seeded generators.
//!
//! Every association-rule experiment, ledger counter and equivalence
//! suite downstream reads these generators' output, so any change to how
//! they consume the RNG or render text must leave the bytes alone. The
//! pinned values are FNV-1a 64 hashes of:
//!
//! * `TransactionDb::write_to` output of whole Quest databases;
//! * the first 5,000 `TxnStream` baskets (length, then ids, as u32 LE);
//! * the first 5,000 `PointStream` points (label as u32 LE, then each
//!   coordinate's `f64::to_bits` as u64 LE).

#![allow(clippy::unwrap_used)]

use dm_synth::{ClusterSpec, GaussianMixture, PointStream, QuestConfig, QuestGenerator, TxnStream};

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn quest_bytes(config: QuestConfig, pattern_seed: u64, basket_seed: u64) -> Vec<u8> {
    let db = QuestGenerator::new(config, pattern_seed)
        .unwrap()
        .generate(basket_seed);
    let mut buf = Vec::new();
    db.write_to(&mut buf).unwrap();
    buf
}

fn hash(bytes: &[u8]) -> String {
    let mut h = Fnv1a::new();
    h.update(bytes);
    format!("{:016x}", h.0)
}

#[test]
fn t10_i4_d100k_bytes_are_pinned() {
    let bytes = quest_bytes(QuestConfig::standard(10.0, 4.0, 100_000), 7, 1);
    assert_eq!(bytes.len(), 4_436_275);
    assert_eq!(hash(&bytes), "1c11955659c286f1");
}

#[test]
fn smaller_quest_configs_are_pinned() {
    let cases = [
        (
            QuestConfig::standard(5.0, 2.0, 10_000),
            1,
            2,
            "e0753302af59c02e",
        ),
        (
            QuestConfig::standard(10.0, 4.0, 10_000),
            3,
            4,
            "b4a9570b7b694264",
        ),
        (
            QuestConfig::standard(20.0, 6.0, 10_000),
            5,
            6,
            "b7f58a75a2fa5838",
        ),
        (
            QuestConfig::standard(10.0, 2.0, 20_000),
            7,
            1,
            "11e3f9534d47a5e7",
        ),
    ];
    for (config, pattern_seed, basket_seed, want) in cases {
        let name = config.name();
        let bytes = quest_bytes(config, pattern_seed, basket_seed);
        assert_eq!(
            hash(&bytes),
            want,
            "{name} seeds {pattern_seed}/{basket_seed}"
        );
    }
}

#[test]
fn txn_stream_prefix_is_pinned() {
    let generator = QuestGenerator::new(QuestConfig::standard(10.0, 4.0, 1), 7).unwrap();
    let mut h = Fnv1a::new();
    for basket in TxnStream::new(generator, 11).take(5_000) {
        h.update(&(basket.len() as u32).to_le_bytes());
        for id in basket {
            h.update(&id.to_le_bytes());
        }
    }
    assert_eq!(format!("{:016x}", h.0), "51860880713b0d52");
}

#[test]
fn point_stream_prefix_is_pinned() {
    // Unequal counts, one empty component and background noise, so every
    // branch of the component pick is exercised.
    let mixture = GaussianMixture::new(vec![
        ClusterSpec::new(vec![0.0, 0.0], 1.0, 300),
        ClusterSpec::new(vec![5.0, 5.0], 0.5, 0),
        ClusterSpec::new(vec![-4.0, 6.0], 2.0, 120),
        ClusterSpec::new(vec![9.0, -3.0], 1.5, 45),
    ])
    .unwrap()
    .with_noise(25, 12.0);
    let mut h = Fnv1a::new();
    for (point, label) in PointStream::new(mixture, 13).take(5_000) {
        h.update(&label.to_le_bytes());
        for x in point {
            h.update(&x.to_bits().to_le_bytes());
        }
    }
    assert_eq!(format!("{:016x}", h.0), "521088888463cb58");
}
