//! The experiment registry in the docs agrees with the `experiments`
//! binary's `ALL_EXPERIMENTS`: DESIGN.md's experiment index has exactly
//! one row per `eN` id, its "Ablations" section names every `aN` id, and
//! every experiment count or `E1–EN` range stated in DESIGN.md, the
//! READMEs and EXPERIMENTS.md is current.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use dm_bench::ALL_EXPERIMENTS;
use std::collections::BTreeSet;

fn doc(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// The body of the `## <title>…` section, up to the next `## ` heading.
fn section<'a>(doc: &'a str, title: &str) -> &'a str {
    let start = doc
        .find(&format!("\n## {title}"))
        .unwrap_or_else(|| panic!("DESIGN.md has no `## {title}` section"));
    let body = &doc[start + 1..];
    let end = body[1..].find("\n## ").map_or(body.len(), |i| i + 1);
    &body[..end]
}

fn ids(prefix: char) -> BTreeSet<String> {
    ALL_EXPERIMENTS
        .iter()
        .filter(|id| id.starts_with(prefix))
        .map(|id| id.to_string())
        .collect()
}

#[test]
fn experiment_index_has_one_row_per_experiment() {
    let design = doc("DESIGN.md");
    let rows: Vec<String> = section(&design, "Experiment index")
        .lines()
        .filter_map(|line| line.strip_prefix("| E"))
        .map(|rest| format!("e{}", rest.split(' ').next().unwrap_or("")))
        .collect();
    let listed: BTreeSet<String> = rows.iter().cloned().collect();
    assert_eq!(listed.len(), rows.len(), "duplicate index rows: {rows:?}");
    assert_eq!(listed, ids('e'), "index rows vs ALL_EXPERIMENTS");
}

#[test]
fn ablations_section_names_every_ablation() {
    let design = doc("DESIGN.md");
    let ablations = section(&design, "Ablations");
    for id in ids('a') {
        assert!(
            ablations.contains(&format!("`{id}`")),
            "ablation `{id}` is not named in DESIGN.md's Ablations section"
        );
    }
}

#[test]
fn stated_experiment_counts_are_current() {
    let last = ids('e')
        .iter()
        .map(|id| id[1..].parse::<u32>().unwrap())
        .max()
        .unwrap();
    let total = ALL_EXPERIMENTS.len().to_string();
    for name in [
        "DESIGN.md",
        "README.md",
        "EXPERIMENTS.md",
        "ledger/README.md",
    ] {
        let text = doc(name);
        let words: Vec<&str> = text.split_whitespace().collect();
        for word in &words {
            if let Some((_, end)) = word.split_once("E1–E") {
                let digits: String = end.chars().take_while(char::is_ascii_digit).collect();
                assert_eq!(digits, last.to_string(), "{name}: stale range `{word}`");
            }
        }
        for w in words.windows(3) {
            if w[0] == "all"
                && w[2].trim_end_matches(|c: char| c.is_ascii_punctuation()) == "experiments"
            {
                assert_eq!(w[1], total, "{name}: stale count `{}`", w.join(" "));
            }
        }
    }
}
