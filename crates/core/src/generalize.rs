//! Hint-set generalization with decision trees (the paper's proposed
//! extension).
//!
//! Sections 6.3 and 8 of the paper observe that when clients emit many
//! low-value hint types, the number of distinct hint sets explodes and
//! CLIC's per-hint-set statistics get diluted. The remedy they propose as
//! future work is to *group related hint sets together* — using decision
//! trees — and track re-reference statistics per group instead of per
//! individual hint set.
//!
//! This module implements that extension:
//!
//! * [`HintDecisionTree`] — a weighted regression tree over the categorical
//!   hint attributes. Leaves are hint-set *groups*; splits are chosen
//!   greedily to maximize the (frequency-weighted) variance reduction of the
//!   caching priority, so hint attributes that do not help predict priority
//!   (for example injected noise hints) are simply never split on.
//! * [`train_grouping`] — learns one tree per client from offline (or
//!   prefix) hint analysis, producing a [`HintSetGrouping`].
//! * [`HintSetGrouping::apply`] — rewrites a trace so that every request
//!   carries its *group* as the hint set. Running the unmodified CLIC policy
//!   on the rewritten trace is exactly "CLIC with grouped hint tracking".
//!
//! The `ablation_generalization` experiment binary in `clic-bench`
//! demonstrates the effect on the Figure 10 noise workload.

use std::collections::HashMap;

use cache_sim::{ClientId, HintCatalog, Request, Trace};

use crate::analysis::HintSetReport;

/// One training sample: the hint-value vector of a hint set, how often it
/// occurred, and its measured caching priority.
#[derive(Debug, Clone)]
struct Sample {
    values: Vec<u32>,
    weight: f64,
    priority: f64,
}

/// A node of the regression tree: either a leaf (a group) or a multiway
/// split on one hint attribute.
#[derive(Debug, Clone)]
enum Node {
    Leaf {
        group: u32,
    },
    Split {
        attribute: usize,
        children: HashMap<u32, usize>,
        default_child: usize,
    },
}

/// A regression tree over one client's hint attributes whose leaves are
/// hint-set groups.
#[derive(Debug, Clone)]
pub struct HintDecisionTree {
    nodes: Vec<Node>,
    leaves: u32,
}

impl HintDecisionTree {
    /// Learns a tree from `(values, weight, priority)` samples, producing at
    /// most `max_groups` leaves and refusing to split nodes whose total
    /// weight is below `min_weight`.
    fn fit(samples: &[Sample], max_groups: u32, min_weight: f64) -> Self {
        let mut tree = HintDecisionTree {
            nodes: Vec::new(),
            leaves: 0,
        };
        let indices: Vec<usize> = (0..samples.len()).collect();
        tree.build(samples, &indices, max_groups.max(1), min_weight);
        tree
    }

    fn build(
        &mut self,
        samples: &[Sample],
        indices: &[usize],
        budget: u32,
        min_weight: f64,
    ) -> usize {
        let total_weight: f64 = indices.iter().map(|&i| samples[i].weight).sum();
        let node_variance = weighted_variance(samples, indices);
        // Stop if we cannot afford more leaves, have too little data, or the
        // node is already pure.
        if budget <= 1 || indices.len() <= 1 || total_weight < min_weight || node_variance <= 0.0 {
            return self.push_leaf();
        }
        // Pick the attribute whose multiway split reduces variance the most.
        let arity = samples[indices[0]].values.len();
        let mut best: Option<(usize, f64, HashMap<u32, Vec<usize>>)> = None;
        for attribute in 0..arity {
            let mut partitions: HashMap<u32, Vec<usize>> = HashMap::new();
            for &i in indices {
                partitions
                    .entry(samples[i].values[attribute])
                    .or_default()
                    .push(i);
            }
            if partitions.len() <= 1 {
                continue;
            }
            let child_variance: f64 = partitions
                .values()
                .map(|part| {
                    let w: f64 = part.iter().map(|&i| samples[i].weight).sum();
                    weighted_variance(samples, part) * w / total_weight
                })
                .sum();
            let gain = node_variance - child_variance;
            if best.as_ref().map(|(_, g, _)| gain > *g).unwrap_or(true) && gain > 0.0 {
                best = Some((attribute, gain, partitions));
            }
        }
        let Some((attribute, _gain, partitions)) = best else {
            return self.push_leaf();
        };
        // A multiway split uses one leaf slot per child; make sure the budget
        // allows it, otherwise degrade to a leaf.
        if (partitions.len() as u32) > budget {
            return self.push_leaf();
        }
        // Reserve the node slot first so children can reference it stably.
        let node_index = self.nodes.len();
        self.nodes.push(Node::Leaf { group: 0 }); // placeholder
        let mut children = HashMap::new();
        // Distribute the remaining leaf budget across children proportionally
        // to their weight (at least one each).
        let partition_count = partitions.len() as u32;
        let mut remaining_budget = budget;
        let mut parts: Vec<(u32, Vec<usize>)> = partitions.into_iter().collect();
        // Largest partitions get their share of the budget first.
        parts.sort_by(|a, b| {
            let wa: f64 = a.1.iter().map(|&i| samples[i].weight).sum();
            let wb: f64 = b.1.iter().map(|&i| samples[i].weight).sum();
            wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut default_child = None;
        for (rank, (value, part)) in parts.into_iter().enumerate() {
            let left_to_place = partition_count - rank as u32;
            let share = (remaining_budget / left_to_place.max(1)).max(1);
            let child = self.build(samples, &part, share, min_weight);
            remaining_budget = remaining_budget
                .saturating_sub(share)
                .max(left_to_place - 1);
            children.insert(value, child);
            if default_child.is_none() {
                // The heaviest partition doubles as the default route for
                // values never seen during training.
                default_child = Some(child);
            }
        }
        self.nodes[node_index] = Node::Split {
            attribute,
            children,
            default_child: default_child.expect("split has at least one child"),
        };
        node_index
    }

    fn push_leaf(&mut self) -> usize {
        let group = self.leaves;
        self.leaves += 1;
        self.nodes.push(Node::Leaf { group });
        self.nodes.len() - 1
    }

    /// Number of groups (leaves) in the tree.
    pub fn groups(&self) -> u32 {
        self.leaves
    }

    /// Maps a hint-value vector to its group.
    pub fn group_of(&self, values: &[u32]) -> u32 {
        let mut node = 0usize;
        loop {
            match &self.nodes[node] {
                Node::Leaf { group } => return *group,
                Node::Split {
                    attribute,
                    children,
                    default_child,
                } => {
                    let value = values.get(*attribute).copied().unwrap_or(0);
                    node = children.get(&value).copied().unwrap_or(*default_child);
                }
            }
        }
    }
}

fn weighted_variance(samples: &[Sample], indices: &[usize]) -> f64 {
    let total_weight: f64 = indices.iter().map(|&i| samples[i].weight).sum();
    if total_weight <= 0.0 {
        return 0.0;
    }
    let mean: f64 = indices
        .iter()
        .map(|&i| samples[i].priority * samples[i].weight)
        .sum::<f64>()
        / total_weight;
    indices
        .iter()
        .map(|&i| {
            let d = samples[i].priority - mean;
            d * d * samples[i].weight
        })
        .sum::<f64>()
        / total_weight
}

/// A per-client mapping from hint sets to learned groups.
#[derive(Debug, Clone)]
pub struct HintSetGrouping {
    trees: HashMap<ClientId, HintDecisionTree>,
    max_groups: u32,
}

impl HintSetGrouping {
    /// Number of groups learned for `client` (0 if the client was not seen
    /// during training).
    pub fn groups_for(&self, client: ClientId) -> u32 {
        self.trees.get(&client).map(|t| t.groups()).unwrap_or(0)
    }

    /// The decision tree learned for `client`, if any.
    pub fn tree(&self, client: ClientId) -> Option<&HintDecisionTree> {
        self.trees.get(&client)
    }

    /// Rewrites `trace` so that every request's hint set is replaced by its
    /// learned *group*. The returned trace has one synthetic hint type per
    /// client (named `"hint group"`); running the standard CLIC policy on it
    /// is equivalent to running CLIC with grouped hint tracking.
    pub fn apply(&self, trace: &Trace) -> Trace {
        let mut catalog = HintCatalog::new();
        for schema in trace.catalog.schemas() {
            let groups = self
                .trees
                .get(&schema.client)
                .map(|t| t.groups())
                .unwrap_or(1)
                .max(1);
            catalog.add_client(
                format!("{}(grouped)", schema.client_name),
                &[("hint group", groups)],
            );
        }
        let mut requests = Vec::with_capacity(trace.requests.len());
        for req in &trace.requests {
            let resolved = trace.catalog.resolve(req.hint);
            let values: Vec<u32> = resolved.values.iter().map(|v| v.0).collect();
            let group = self
                .trees
                .get(&req.client)
                .map(|t| t.group_of(&values))
                .unwrap_or(0);
            let hint = catalog.intern(req.client, &[group]);
            requests.push(Request { hint, ..*req });
        }
        Trace {
            name: format!("{}(grouped<{}>)", trace.name, self.max_groups),
            requests,
            catalog,
        }
    }
}

/// Learns a [`HintSetGrouping`] from offline hint analysis.
///
/// `reports` is typically the output of [`crate::analyze_trace`] over a
/// training prefix of the workload; `catalog` must be the catalog those
/// reports refer to. At most `max_groups` groups are created per client.
///
/// # Panics
///
/// Panics if `max_groups` is zero.
pub fn train_grouping(
    catalog: &HintCatalog,
    reports: &[HintSetReport],
    max_groups: u32,
) -> HintSetGrouping {
    assert!(max_groups > 0, "at least one group is required");
    let mut per_client: HashMap<ClientId, Vec<Sample>> = HashMap::new();
    for report in reports {
        let resolved = catalog.resolve(report.hint);
        per_client.entry(resolved.client).or_default().push(Sample {
            values: resolved.values.iter().map(|v| v.0).collect(),
            weight: report.requests as f64,
            priority: report.priority,
        });
    }
    let trees = per_client
        .into_iter()
        .map(|(client, samples)| {
            let total_weight: f64 = samples.iter().map(|s| s.weight).sum();
            // Require at least 0.1% of the training weight before splitting a
            // node, so rare noise combinations do not get their own groups.
            let min_weight = (total_weight * 0.001).max(1.0);
            (
                client,
                HintDecisionTree::fit(&samples, max_groups, min_weight),
            )
        })
        .collect();
    HintSetGrouping { trees, max_groups }
}

/// Convenience wrapper: analyze a training prefix of `trace` (its first
/// `training_fraction` of requests), learn a grouping with at most
/// `max_groups` groups per client, and return it.
///
/// # Panics
///
/// Panics if `training_fraction` is not in `(0, 1]` or `max_groups` is zero.
pub fn train_grouping_from_prefix(
    trace: &Trace,
    training_fraction: f64,
    max_groups: u32,
) -> HintSetGrouping {
    assert!(
        training_fraction > 0.0 && training_fraction <= 1.0,
        "training fraction must be in (0, 1], got {training_fraction}"
    );
    let prefix_len = ((trace.len() as f64) * training_fraction).ceil() as usize;
    let prefix = Trace {
        name: trace.name.clone(),
        requests: trace.requests[..prefix_len.min(trace.len())].to_vec(),
        catalog: trace.catalog.clone(),
    };
    let reports = crate::analysis::analyze_trace(&prefix);
    train_grouping(&trace.catalog, &reports, max_groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessKind, TraceBuilder};

    /// A trace where hint type 0 (two values) perfectly predicts re-reference
    /// behaviour and hint type 1 (eight values) is pure noise.
    fn informative_plus_noise_trace() -> Trace {
        let mut b = TraceBuilder::new().with_name("gen");
        let c = b.add_client("db", &[("useful", 2), ("noise", 8)]);
        let mut hints = Vec::new();
        for useful in 0..2u32 {
            for noise in 0..8u32 {
                hints.push((useful, noise, b.intern_hints(c, &[useful, noise])));
            }
        }
        for i in 0..20_000u64 {
            let noise = (i % 8) as u32;
            // useful=1 pages are written then quickly re-read; useful=0 pages
            // are one-shot.
            let (_, _, hot_hint) = hints[(8 + noise) as usize];
            let (_, _, cold_hint) = hints[noise as usize];
            b.push(c, 1_000_000 + (i % 64), AccessKind::Write, None, hot_hint);
            b.push(c, 1_000_000 + (i % 64), AccessKind::Read, None, hot_hint);
            b.push(c, i, AccessKind::Read, None, cold_hint);
        }
        b.build()
    }

    #[test]
    fn tree_splits_on_the_informative_attribute_only() {
        let trace = informative_plus_noise_trace();
        let grouping = train_grouping_from_prefix(&trace, 0.5, 4);
        let client = ClientId(0);
        let tree = grouping.tree(client).expect("client was trained");
        // Two groups suffice: the tree must not fragment on the noise hint.
        assert!(tree.groups() <= 4);
        assert!(tree.groups() >= 2, "the useful attribute must be split on");
        // All noise values of the same useful value map to the same group.
        let group_hot = tree.group_of(&[1, 0]);
        for noise in 1..8u32 {
            assert_eq!(tree.group_of(&[1, noise]), group_hot);
        }
        let group_cold = tree.group_of(&[0, 0]);
        for noise in 1..8u32 {
            assert_eq!(tree.group_of(&[0, noise]), group_cold);
        }
        assert_ne!(group_hot, group_cold);
    }

    #[test]
    fn apply_rewrites_hints_but_not_requests() {
        let trace = informative_plus_noise_trace();
        let grouping = train_grouping_from_prefix(&trace, 0.25, 8);
        let grouped = grouping.apply(&trace);
        assert_eq!(grouped.len(), trace.len());
        // Page/kind structure untouched.
        for (a, b) in trace.requests.iter().zip(grouped.requests.iter()) {
            assert_eq!(a.page, b.page);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.client, b.client);
        }
        // The grouped trace has far fewer distinct hint sets.
        assert!(grouped.summary().distinct_hint_sets <= 8);
        assert!(grouped.summary().distinct_hint_sets < trace.summary().distinct_hint_sets);
        assert!(grouped.name.contains("grouped"));
        // Labels describe the synthetic group hint type.
        let label = grouped.catalog.describe(grouped.requests[0].hint);
        assert!(label.contains("hint group"), "{label}");
    }

    #[test]
    fn grouped_clic_matches_ungrouped_clic_on_clean_hints() {
        use crate::{Clic, ClicConfig};
        use cache_sim::simulate;

        let trace = informative_plus_noise_trace();
        let grouping = train_grouping_from_prefix(&trace, 0.25, 4);
        let grouped = grouping.apply(&trace);
        let config = ClicConfig::default()
            .with_window(5_000)
            .with_metadata_charging(false);
        let ungrouped_ratio = {
            let mut clic = Clic::new(96, config);
            simulate(&mut clic, &trace).read_hit_ratio()
        };
        let grouped_ratio = {
            let mut clic = Clic::new(96, config);
            simulate(&mut clic, &grouped).read_hit_ratio()
        };
        // Grouping must not hurt when the informative structure is preserved.
        assert!(
            grouped_ratio >= ungrouped_ratio - 0.05,
            "grouped {grouped_ratio:.3} vs ungrouped {ungrouped_ratio:.3}"
        );
    }

    #[test]
    fn unknown_values_route_to_the_default_child() {
        let trace = informative_plus_noise_trace();
        let grouping = train_grouping_from_prefix(&trace, 0.5, 4);
        let tree = grouping.tree(ClientId(0)).unwrap();
        // Value 99 never appears in training; it must still map to some group.
        let g = tree.group_of(&[1, 99]);
        assert!(g < tree.groups());
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let trace = informative_plus_noise_trace();
        let reports = crate::analysis::analyze_trace(&trace);
        let _ = train_grouping(&trace.catalog, &reports, 0);
    }

    #[test]
    fn clients_without_reports_get_single_group() {
        let trace = informative_plus_noise_trace();
        let grouping = train_grouping_from_prefix(&trace, 0.5, 4);
        assert_eq!(grouping.groups_for(ClientId(42)), 0);
        // Applying to a trace containing only known clients still works.
        let grouped = grouping.apply(&trace);
        assert_eq!(grouped.catalog.client_count(), trace.catalog.client_count());
    }
}
