//! The experiments of the evaluation section, one function each.
//!
//! Every experiment has the same shape — borrow traces from the [`Suite`],
//! run its grid on the suite's pool, write its tables under the suite's
//! output directory, return its headline metrics — and [`EXPERIMENTS`] is the
//! one list of them: `run_all` walks it, and nothing else names an
//! experiment.

use std::io;

use crate::json::JsonValue;
use crate::Suite;

mod ablation_generalization;
mod ablation_params;
mod fig03_hint_priorities;
mod fig09_topk;
mod fig10_noise;
mod fig11_multiclient;
mod policy_figures;
mod server_latency;
mod storage_io;
mod table_fig2;
mod table_fig5;

/// An experiment: runs against the shared suite, writes its `.txt`/`.csv`
/// tables, and returns the `metrics` object of its report.
pub type Experiment = fn(&Suite) -> io::Result<JsonValue>;

/// Every experiment by name, in the order `run_all` runs them.
/// `server_latency` is last because it alone measures wall-clock behaviour.
pub const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("table_fig2", table_fig2::run),
    ("table_fig5", table_fig5::run),
    ("fig03_hint_priorities", fig03_hint_priorities::run),
    ("fig06_tpcc_policies", policy_figures::fig06_tpcc),
    ("fig07_tpch_policies", policy_figures::fig07_tpch),
    ("fig08_mysql_policies", policy_figures::fig08_mysql),
    ("fig09_topk", fig09_topk::run),
    ("fig10_noise", fig10_noise::run),
    ("fig11_multiclient", fig11_multiclient::run),
    ("ablation_params", ablation_params::run),
    ("ablation_generalization", ablation_generalization::run),
    ("storage_io", storage_io::run),
    ("server_latency", server_latency::run),
];

/// The names of [`EXPERIMENTS`], in table order.
pub fn names() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(name, _)| *name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::path::Path;

    #[test]
    fn experiment_names_are_unique() {
        let unique: HashSet<&str> = names().into_iter().collect();
        assert_eq!(unique.len(), EXPERIMENTS.len());
    }

    /// The experiment names a document passes to `run_all`: on every line,
    /// the `snake_case` words that directly follow a `run_all` command word
    /// (a lone `--` skipped). Prose does not trip it: a flag, a bracket or a
    /// word without an underscore ends the list.
    fn names_passed_to_run_all(text: &str) -> Vec<String> {
        let is_name = |w: &&str| {
            w.contains('_')
                && w.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        };
        let mut found = Vec::new();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            if words.any(|w| w == "run_all" || w.ends_with("/run_all")) {
                found.extend(
                    words
                        .filter(|&w| w != "--")
                        .take_while(is_name)
                        .map(str::to_string),
                );
            }
        }
        found
    }

    #[test]
    fn every_documented_run_all_name_is_in_the_table() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let table = names();
        let mut checked = 0;
        for doc in [
            "scripts/verify.sh",
            ".claude/skills/verify/SKILL.md",
            "crates/bench/src/lib.rs",
            "crates/bench/src/bin/run_all.rs",
        ] {
            let text = std::fs::read_to_string(root.join(doc))
                .unwrap_or_else(|e| panic!("{doc} must be readable: {e}"));
            for name in names_passed_to_run_all(&text) {
                assert!(
                    table.contains(&name.as_str()),
                    "{doc} runs `run_all {name}`, which is not an experiment ({table:?})"
                );
                checked += 1;
            }
        }
        assert!(
            checked >= 3,
            "the scanner found only {checked} names: it no longer sees the documented commands"
        );
    }
}
