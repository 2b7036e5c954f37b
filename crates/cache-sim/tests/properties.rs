//! Property-based tests for the cache-simulation substrate.
//!
//! These check structural invariants over arbitrary request streams:
//! capacity bounds, hit/membership consistency, LRU equivalence against a
//! reference model, OPT dominance, and the ordered-set utility against a
//! naive model.

use proptest::collection::vec;
use proptest::prelude::*;

use cache_sim::policies::util::OrderedPageSet;
use cache_sim::policies::{BaselinePolicy, Lru, Opt};
use cache_sim::{
    simulate, AccessKind, CachePolicy, ClientId, HintSetId, PageId, Request, Trace, TraceBuilder,
    WriteHint,
};

/// A compact description of one generated request.
#[derive(Debug, Clone, Copy)]
struct GenReq {
    page: u64,
    write: bool,
    hint: u8,
    write_hint: u8,
}

fn gen_request() -> impl Strategy<Value = GenReq> {
    (0u64..60, any::<bool>(), 0u8..4, 0u8..3).prop_map(|(page, write, hint, write_hint)| GenReq {
        page,
        write,
        hint,
        write_hint,
    })
}

fn trace_from(reqs: &[GenReq]) -> Trace {
    let mut b = TraceBuilder::new().with_name("prop");
    let c = b.add_client("prop", &[("h", 4)]);
    let hints: Vec<HintSetId> = (0..4).map(|v| b.intern_hints(c, &[v])).collect();
    for r in reqs {
        let kind = if r.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let wh = if r.write {
            Some(match r.write_hint {
                0 => WriteHint::Replacement,
                1 => WriteHint::Recovery,
                _ => WriteHint::Synchronous,
            })
        } else {
            None
        };
        b.push(c, r.page, kind, wh, hints[r.hint as usize]);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every policy respects its capacity and reports hits consistently with
    /// pre-access membership, on arbitrary request streams and capacities.
    #[test]
    fn policies_respect_capacity_and_hit_semantics(
        reqs in vec(gen_request(), 1..400),
        capacity in 1usize..24,
    ) {
        let trace = trace_from(&reqs);
        for kind in BaselinePolicy::ALL {
            let mut policy = kind.build(capacity);
            for (seq, req) in trace.iter() {
                let cached_before = policy.contains(req.page);
                let outcome = policy.access(req, seq);
                prop_assert_eq!(
                    outcome.hit, cached_before,
                    "{}: hit flag inconsistent at seq {}", policy.name(), seq
                );
                prop_assert!(
                    policy.len() <= capacity,
                    "{}: capacity exceeded ({} > {})", policy.name(), policy.len(), capacity
                );
                // A bypass must leave the page uncached; an admission must cache it.
                if !outcome.hit {
                    prop_assert_eq!(policy.contains(req.page), !outcome.bypassed);
                }
            }
        }
    }

    /// LRU matches a straightforward reference implementation exactly.
    #[test]
    fn lru_matches_reference_model(
        reqs in vec(gen_request(), 1..400),
        capacity in 1usize..16,
    ) {
        let trace = trace_from(&reqs);
        let mut lru = Lru::new(capacity);
        let mut model: Vec<u64> = Vec::new(); // front = LRU, back = MRU
        for (seq, req) in trace.iter() {
            let model_hit = model.contains(&req.page.0);
            let outcome = lru.access(req, seq);
            prop_assert_eq!(outcome.hit, model_hit);
            if model_hit {
                model.retain(|&p| p != req.page.0);
            } else if model.len() >= capacity {
                model.remove(0);
            }
            model.push(req.page.0);
            prop_assert_eq!(lru.len(), model.len());
            for &p in &model {
                prop_assert!(lru.contains(PageId(p)));
            }
        }
    }

    /// Belady's algorithm never loses to LRU or ARC in read hit ratio.
    #[test]
    fn opt_dominates_online_policies(
        reqs in vec(gen_request(), 10..400),
        capacity in 1usize..16,
    ) {
        let trace = trace_from(&reqs);
        let opt_hits = {
            let mut opt = Opt::from_trace(&trace, capacity);
            simulate(&mut opt, &trace).stats.read_hits
        };
        for kind in BaselinePolicy::ALL {
            let mut policy = kind.build(capacity);
            let hits = simulate(policy.as_mut(), &trace).stats.read_hits;
            prop_assert!(
                opt_hits >= hits,
                "OPT ({}) lost to {} ({})", opt_hits, kind.name(), hits
            );
        }
    }

    /// The driver's aggregate statistics always account for every request,
    /// and the per-client breakdown sums to the total.
    #[test]
    fn driver_accounting_is_complete(
        reqs in vec(gen_request(), 1..300),
        capacity in 1usize..16,
    ) {
        let trace = trace_from(&reqs);
        let mut lru = Lru::new(capacity);
        let result = simulate(&mut lru, &trace);
        prop_assert_eq!(result.stats.requests(), trace.len() as u64);
        let per_client_total: u64 = result.per_client.values().map(|s| s.requests()).sum();
        prop_assert_eq!(per_client_total, trace.len() as u64);
    }

    /// The ordered page set behaves exactly like a vector-based model under
    /// an arbitrary sequence of operations.
    #[test]
    fn ordered_page_set_matches_model(ops in vec((0u8..5, 0u64..20), 1..300)) {
        let mut set = OrderedPageSet::new();
        let mut model: Vec<u64> = Vec::new();
        for (op, page) in ops {
            match op {
                0 => {
                    let inserted = set.push_back(PageId(page));
                    let model_inserted = !model.contains(&page);
                    if model_inserted {
                        model.push(page);
                    }
                    prop_assert_eq!(inserted, model_inserted);
                }
                1 => {
                    let removed = set.remove(PageId(page));
                    let model_removed = model.contains(&page);
                    model.retain(|&p| p != page);
                    prop_assert_eq!(removed, model_removed);
                }
                2 => {
                    let touched = set.touch(PageId(page));
                    let model_touched = model.contains(&page);
                    if model_touched {
                        model.retain(|&p| p != page);
                        model.push(page);
                    }
                    prop_assert_eq!(touched, model_touched);
                }
                3 => {
                    let popped = set.pop_front();
                    let model_popped = if model.is_empty() { None } else { Some(model.remove(0)) };
                    prop_assert_eq!(popped.map(|p| p.0), model_popped);
                }
                _ => {
                    prop_assert_eq!(set.contains(PageId(page)), model.contains(&page));
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.front().map(|p| p.0), model.first().copied());
            prop_assert_eq!(set.back().map(|p| p.0), model.last().copied());
            let order: Vec<u64> = set.iter().map(|p| p.0).collect();
            prop_assert_eq!(order, model.clone());
        }
    }
}

/// Non-proptest regression: an empty trace is handled by every policy.
#[test]
fn empty_trace_is_fine() {
    let trace = trace_from(&[]);
    for kind in BaselinePolicy::ALL {
        let mut policy = kind.build(4);
        let result = simulate(policy.as_mut(), &trace);
        assert_eq!(result.stats.requests(), 0);
    }
    let _ = Request::read(ClientId(0), PageId(0), HintSetId(0));
}
