//! `WeightedTable` returns, for every weight vector and every point, the
//! index of the linear subtract-scan it replaces.
//!
//! The reference below is a copy of that scan, kept here so a change to
//! the table's own fallback cannot move the reference with it.

use dm_synth::distributions::WeightedTable;
use proptest::prelude::*;

/// The subtract-scan that defines the sampler: subtract weights from `x`
/// until it is no longer positive.
fn reference_scan(weights: &[f64], mut x: f64) -> usize {
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// One weight from a scale class: zero, subnormal, 1e-300-ish, 1e300-ish
/// or an ordinary magnitude.
fn weight(class: u8, mantissa: f64, exp: i32, bits: u64) -> f64 {
    match class {
        0 => 0.0,
        1 => f64::from_bits(bits),
        2 => 1e-300 * (1.0 + mantissa),
        3 => 1e300 * (1.0 + mantissa),
        _ => mantissa * 10f64.powi(exp),
    }
}

/// Weight vectors of length 1–4096. Each vector draws its weights from a
/// subset of the scale classes (`palette` bit k enables class k), so
/// some vectors are all-subnormal, some mix 1e-300 with 1e300, and some
/// are ordinary with scattered zeros.
fn weights() -> impl Strategy<Value = Vec<f64>> {
    (1u8..32, 1usize..4097).prop_flat_map(|(palette, len)| {
        let classes: Vec<u8> = (0..5).filter(|k| palette & (1 << k) != 0).collect();
        prop::collection::vec(
            (0..classes.len(), 0.0f64..1.0, -6i32..7, 1u64..(1u64 << 52)),
            len..=len,
        )
        .prop_map(move |picks| {
            picks
                .into_iter()
                .map(|(c, m, e, b)| weight(classes[c], m, e, b))
                .collect()
        })
    })
}

fn prefix_sums(weights: &[f64]) -> Vec<f64> {
    let mut sum = 0.0;
    weights
        .iter()
        .map(|&w| {
            sum += w;
            sum
        })
        .collect()
}

/// The adjacent doubles of a non-negative `x`.
fn neighbours(x: f64) -> [f64; 2] {
    let up = f64::from_bits(x.to_bits() + 1);
    let down = if x > 0.0 {
        f64::from_bits(x.to_bits() - 1)
    } else {
        0.0
    };
    [down, up]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn table_matches_the_scan(
        weights in weights(),
        draws in prop::collection::vec(0.0f64..1.0, 16..17),
        cuts in prop::collection::vec(0usize..4096, 8..9),
    ) {
        let total: f64 = weights.iter().sum();
        prop_assume!(total > 0.0 && total.is_finite());
        let table = WeightedTable::new(weights.clone());
        prop_assert_eq!(table.total().to_bits(), total.to_bits());

        let prefix = prefix_sums(&weights);
        let mut points = vec![0.0, total, total * (1.0 + f64::EPSILON), total * 2.0];
        points.extend(neighbours(total));
        // Uniform points over [0, total], as the generators draw them.
        points.extend(draws.iter().map(|u| u * total));
        // Points on, and one ulp either side of, prefix sums.
        for &c in &cuts {
            let s = prefix[c % prefix.len()];
            points.push(s);
            points.extend(neighbours(s));
        }
        for x in points {
            prop_assert_eq!(
                table.index_at(x),
                reference_scan(&weights, x),
                "x = {:e}, n = {}, total = {:e}",
                x,
                weights.len(),
                total
            );
        }
    }
}

#[test]
fn zero_point_with_a_leading_zero_weight_is_index_zero() {
    let weights = vec![0.0, 0.0, 1.0, 2.0];
    let table = WeightedTable::new(weights.clone());
    assert_eq!(reference_scan(&weights, 0.0), 0);
    assert_eq!(table.index_at(0.0), 0);
}

#[test]
fn points_past_the_last_sum_are_the_last_index() {
    let weights = vec![0.25, 0.5, 0.0, 0.0];
    let table = WeightedTable::new(weights.clone());
    for x in [0.75, 0.75 + 1e-12, 1.0, 1e300] {
        assert_eq!(table.index_at(x), reference_scan(&weights, x), "x = {x}");
    }
    assert_eq!(table.index_at(1.0), 3);
}
