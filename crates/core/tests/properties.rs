//! Property-based tests for the CLIC policy and its supporting structures.

use proptest::collection::vec;
use proptest::prelude::*;

use cache_sim::{
    simulate, AccessKind, CachePolicy, ClientId, HintSetId, PageId, Request, Trace, TraceBuilder,
    WriteHint,
};
use clic_core::{
    analyze_trace, train_grouping_from_prefix, Clic, ClicConfig, OutQueue, PageRecord,
    ReferenceClic, TrackingMode,
};

#[derive(Debug, Clone, Copy)]
struct GenReq {
    page: u64,
    write: bool,
    hint: u8,
}

fn gen_request() -> impl Strategy<Value = GenReq> {
    (0u64..80, any::<bool>(), 0u8..6).prop_map(|(page, write, hint)| GenReq { page, write, hint })
}

/// A fixed trace family for the grouping properties: the `useful` attribute
/// (2 values) perfectly predicts re-reference behaviour — `useful = 1` pages
/// are written then immediately re-read, `useful = 0` pages are one-shot
/// reads — while the `noise` attribute fans each behaviour out over
/// `noise_values` hint sets that differ only in name.
fn useful_plus_noise_trace(noise_values: u32, rounds: u64) -> Trace {
    let mut b = TraceBuilder::new().with_name("grouping");
    let c = b.add_client("db", &[("useful", 2), ("noise", noise_values)]);
    let hot: Vec<HintSetId> = (0..noise_values)
        .map(|n| b.intern_hints(c, &[1, n]))
        .collect();
    let cold: Vec<HintSetId> = (0..noise_values)
        .map(|n| b.intern_hints(c, &[0, n]))
        .collect();
    for i in 0..rounds {
        let noise = (i % u64::from(noise_values)) as usize;
        b.push(c, 1_000_000 + (i % 64), AccessKind::Write, None, hot[noise]);
        b.push(c, 1_000_000 + (i % 64), AccessKind::Read, None, hot[noise]);
        b.push(c, i, AccessKind::Read, None, cold[noise]);
    }
    b.build()
}

fn trace_from(reqs: &[GenReq]) -> Trace {
    let mut b = TraceBuilder::new().with_name("prop");
    let c = b.add_client("prop", &[("h", 6)]);
    let hints: Vec<HintSetId> = (0..6).map(|v| b.intern_hints(c, &[v])).collect();
    for r in reqs {
        let kind = if r.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let wh = if r.write {
            Some(WriteHint::Replacement)
        } else {
            None
        };
        b.push(c, r.page, kind, wh, hints[r.hint as usize]);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CLIC never exceeds its effective capacity, reports hits consistently
    /// with membership, and bounds its outqueue, for arbitrary request
    /// streams, window sizes, and tracking modes.
    #[test]
    fn clic_structural_invariants(
        reqs in vec(gen_request(), 1..500),
        capacity in 2usize..32,
        window in 10u64..200,
        topk in prop::option::of(1usize..8),
        outqueue_factor in 0u8..6,
    ) {
        let trace = trace_from(&reqs);
        let tracking = match topk {
            Some(k) => TrackingMode::TopK(k),
            None => TrackingMode::Full,
        };
        let config = ClicConfig::default()
            .with_window(window)
            .with_tracking(tracking)
            .with_outqueue_factor(f64::from(outqueue_factor))
            .with_metadata_charging(false);
        let outqueue_cap = config.outqueue_entries(capacity);
        let mut clic = Clic::new(capacity, config);
        for (seq, req) in trace.iter() {
            let cached_before = clic.contains(req.page);
            let outcome = clic.access(req, seq);
            prop_assert_eq!(outcome.hit, cached_before);
            prop_assert!(clic.len() <= capacity);
            prop_assert!(clic.outqueue_len() <= outqueue_cap);
            if !outcome.hit {
                prop_assert_eq!(clic.contains(req.page), !outcome.bypassed);
            }
            // The cache composition always sums to the cache occupancy.
            let composition: usize = clic.cache_composition().iter().map(|(_, n)| n).sum();
            prop_assert_eq!(composition, clic.len());
        }
    }

    /// Differential anchor for the slab/intrusive-list refactor: the
    /// production [`Clic`] (slab-backed page table) and the retained naive
    /// [`ReferenceClic`] (hash maps + ordered sets + `BTreeSet` victim
    /// index) must produce *identical* hit/miss/eviction/bypass sequences —
    /// and identical cache state and learned priorities — on arbitrary
    /// hinted traces, across window sizes, tracking modes, and outqueue
    /// bounds.
    #[test]
    fn slab_clic_matches_reference_implementation(
        reqs in vec(gen_request(), 1..600),
        capacity in 2usize..32,
        window in 10u64..200,
        topk in prop::option::of(1usize..8),
        outqueue_factor in 0u8..6,
    ) {
        let trace = trace_from(&reqs);
        let tracking = match topk {
            Some(k) => TrackingMode::TopK(k),
            None => TrackingMode::Full,
        };
        let config = ClicConfig::default()
            .with_window(window)
            .with_tracking(tracking)
            .with_outqueue_factor(f64::from(outqueue_factor))
            .with_metadata_charging(false);
        let mut slab = Clic::new(capacity, config);
        let mut reference = ReferenceClic::new(capacity, config);
        for (seq, req) in trace.iter() {
            let got = slab.access(req, seq);
            let expected = reference.access(req, seq);
            prop_assert_eq!(got, expected, "outcome diverged at seq {}", seq);
            prop_assert_eq!(slab.len(), reference.len(), "occupancy diverged at seq {}", seq);
            prop_assert_eq!(
                slab.outqueue_snapshot(),
                reference.outqueue_snapshot(),
                "outqueue diverged at seq {}",
                seq
            );
            prop_assert_eq!(slab.contains(req.page), reference.contains(req.page));
        }
        // Same learned priorities at the end of the run.
        let mut got = slab.export_priorities();
        let mut expected = reference.export_priorities();
        got.sort_by_key(|(h, _)| h.0);
        expected.sort_by_key(|(h, _)| h.0);
        prop_assert_eq!(got, expected);
        // And the chunked batch driver — which runs Clic's prefetch-batched
        // `access_batch` fast path — reproduces the same statistics on fresh
        // instances of both implementations.
        let batched = simulate(&mut Clic::new(capacity, config), &trace);
        let sequential = simulate(&mut ReferenceClic::new(capacity, config), &trace);
        prop_assert_eq!(batched.stats, sequential.stats);
        prop_assert_eq!(batched.per_client, sequential.per_client);
        // Driving the prefetch-batched path directly with ragged batch sizes
        // must match the reference's per-request outcomes one for one.
        let mut slab_batched = Clic::new(capacity, config);
        let mut reference_again = ReferenceClic::new(capacity, config);
        let mut got_outcomes = Vec::new();
        let mut first_seq = 0u64;
        for chunk in trace.requests.chunks(37) {
            slab_batched.access_batch(chunk, first_seq, &mut got_outcomes);
            first_seq += chunk.len() as u64;
        }
        for (seq, req) in trace.iter() {
            let expected = reference_again.access(req, seq);
            prop_assert_eq!(got_outcomes[seq as usize], expected,
                "batched outcome diverged at seq {}", seq);
        }
    }

    /// The per-hint tables `Clic` indexes by id against the reference's
    /// hashed ones, on hint ids scattered over 0..20 000, so most table
    /// slots between two ids are never used: full tracking, and top-k with
    /// k = 100, which a palette of more than 100 ids makes recycle. Every
    /// outcome, the outqueue, and every id's final priority agree.
    #[test]
    fn dense_hint_tables_match_reference_on_sparse_ids(
        palette in vec(0u32..20_000, 2..160),
        picks in vec((0u64..120, any::<bool>(), 0usize..1_000), 1..800),
        capacity in 4usize..24,
        window in 20u64..150,
    ) {
        let reqs: Vec<Request> = picks
            .iter()
            .map(|&(page, write, pick)| {
                let hint = HintSetId(palette[pick % palette.len()]);
                if write {
                    Request::write(ClientId(0), PageId(page), None, hint)
                } else {
                    Request::read(ClientId(0), PageId(page), hint)
                }
            })
            .collect();
        for tracking in [TrackingMode::Full, TrackingMode::TopK(100)] {
            let config = ClicConfig::default()
                .with_window(window)
                .with_tracking(tracking)
                .with_metadata_charging(false);
            let mut dense = Clic::new(capacity, config);
            let mut reference = ReferenceClic::new(capacity, config);
            for (seq, req) in reqs.iter().enumerate() {
                let seq = seq as u64;
                prop_assert_eq!(dense.access(req, seq), reference.access(req, seq),
                    "{:?}: outcome diverged at seq {}", tracking, seq);
                prop_assert_eq!(dense.outqueue_snapshot(), reference.outqueue_snapshot());
            }
            prop_assert!(dense.windows_completed() > 0 || reqs.len() < window as usize);
            for id in 0..20_000u32 {
                prop_assert_eq!(
                    dense.priority_of(HintSetId(id)).to_bits(),
                    reference.priority_of(HintSetId(id)).to_bits(),
                    "{:?}: priority of h{}", tracking, id
                );
            }
            let mut got = dense.export_priorities();
            let mut expected = reference.export_priorities();
            got.sort_by_key(|(h, _)| h.0);
            expected.sort_by_key(|(h, _)| h.0);
            prop_assert_eq!(got, expected);
        }
    }

    /// The driver accounts for every request when running CLIC, and the
    /// number of completed windows matches the trace length and window size.
    #[test]
    fn clic_window_accounting(
        reqs in vec(gen_request(), 1..400),
        window in 10u64..100,
    ) {
        let trace = trace_from(&reqs);
        let mut clic = Clic::new(
            16,
            ClicConfig::default().with_window(window).with_metadata_charging(false),
        );
        let result = simulate(&mut clic, &trace);
        prop_assert_eq!(result.stats.requests(), trace.len() as u64);
        prop_assert_eq!(clic.windows_completed(), trace.len() as u64 / window);
    }

    /// Offline analysis invariants: frequencies sum to one, `Nr <= N`, and
    /// priorities are finite and non-negative for arbitrary traces.
    #[test]
    fn offline_analysis_invariants(reqs in vec(gen_request(), 1..500)) {
        let trace = trace_from(&reqs);
        let reports = analyze_trace(&trace);
        let total_freq: f64 = reports.iter().map(|r| r.frequency).sum();
        prop_assert!((total_freq - 1.0).abs() < 1e-9);
        let total_requests: u64 = reports.iter().map(|r| r.requests).sum();
        prop_assert_eq!(total_requests, trace.len() as u64);
        for r in &reports {
            prop_assert!(r.read_rereferences <= r.requests);
            prop_assert!(r.priority.is_finite());
            prop_assert!(r.priority >= 0.0);
            prop_assert!(r.read_hit_rate <= 1.0);
            if r.read_rereferences == 0 {
                prop_assert_eq!(r.priority, 0.0);
            }
        }
    }

    /// The outqueue is a bounded map: it never exceeds its capacity, always
    /// remembers the most recently inserted entries, and lookups agree with a
    /// naive model.
    #[test]
    fn outqueue_matches_model(
        ops in vec((0u8..3, 0u64..30, 0u64..1000), 1..300),
        capacity in 1usize..16,
    ) {
        let mut queue = OutQueue::new(capacity);
        let mut model: Vec<(u64, u64)> = Vec::new(); // (page, seq) insertion order
        for (op, page, seq) in ops {
            match op {
                0 => {
                    queue.insert(PageId(page), PageRecord { seq, hint: HintSetId(0) });
                    if let Some(pos) = model.iter().position(|(p, _)| *p == page) {
                        model.remove(pos);
                    } else if model.len() >= capacity {
                        model.remove(0);
                    }
                    model.push((page, seq));
                }
                1 => {
                    let removed = queue.remove(PageId(page));
                    let model_pos = model.iter().position(|(p, _)| *p == page);
                    prop_assert_eq!(removed.is_some(), model_pos.is_some());
                    if let Some(pos) = model_pos {
                        let (_, expected_seq) = model.remove(pos);
                        prop_assert_eq!(removed.unwrap().seq, expected_seq);
                    }
                }
                _ => {
                    let found = queue.get(PageId(page));
                    let expected = model.iter().find(|(p, _)| *p == page).map(|(_, s)| *s);
                    prop_assert_eq!(found.map(|r| r.seq), expected);
                }
            }
            prop_assert!(queue.len() <= capacity);
            prop_assert_eq!(queue.len(), model.len());
        }
    }

    /// Hint-set grouping never *inverts* the priority order learned without
    /// grouping: whenever hint set `a` clearly outranks hint set `b` on the
    /// ungrouped trace (here: hot write-then-read hint sets vs one-shot cold
    /// ones), the measured priorities of their groups must preserve that
    /// order — for any noise fan-out, trace length, group budget, and
    /// training fraction. Collapsing both into one group is allowed (equal
    /// priorities); ranking `b`'s group above `a`'s is not.
    #[test]
    fn grouping_never_inverts_ungrouped_priority_order(
        noise_values in 1u32..8,
        rounds in 300u64..1200,
        max_groups in 2u32..12,
        training_pct in 25u8..=100,
    ) {
        let trace = useful_plus_noise_trace(noise_values, rounds);
        let grouping =
            train_grouping_from_prefix(&trace, f64::from(training_pct) / 100.0, max_groups);
        let tree = grouping.tree(ClientId(0)).expect("client was trained");
        prop_assert!(tree.groups() >= 1);
        prop_assert!(tree.groups() <= max_groups);

        let ungrouped = analyze_trace(&trace);
        let grouped_trace = grouping.apply(&trace);
        prop_assert_eq!(grouped_trace.len(), trace.len());
        let grouped = analyze_trace(&grouped_trace);
        // Measured priority of a group in the rewritten trace (groups that
        // never occur would report nothing; every occurring hint set does).
        let group_priority = |group: u32| {
            grouped
                .iter()
                .find(|r| grouped_trace.catalog.resolve(r.hint).values[0].0 == group)
                .map(|r| r.priority)
                .unwrap_or(0.0)
        };
        let group_of = |report: &clic_core::HintSetReport| {
            let values: Vec<u32> = trace
                .catalog
                .resolve(report.hint)
                .values
                .iter()
                .map(|v| v.0)
                .collect();
            tree.group_of(&values)
        };
        for a in &ungrouped {
            for b in &ungrouped {
                // Only clear-cut ungrouped gaps must survive grouping;
                // near-ties (e.g. two hot hint sets differing by measurement
                // noise) may legitimately land either way.
                if a.priority > 4.0 * b.priority + 1e-12 {
                    let pa = group_priority(group_of(a));
                    let pb = group_priority(group_of(b));
                    prop_assert!(
                        pa >= pb - 1e-12,
                        "inversion: {} (pr {:.6} -> group pr {:.6}) vs {} (pr {:.6} -> group pr {:.6})",
                        a.label, a.priority, pa, b.label, b.priority, pb
                    );
                }
            }
        }
    }

    /// Top-k tracking with k well above the number of distinct hint sets
    /// closely matches full tracking. (It is not bit-identical: as the paper
    /// notes in Section 5, `Nr(H)` is only accumulated while `H` is being
    /// tracked, and the Space-Saving state restarts at every window boundary,
    /// so re-references that land before the hint set's first request of a
    /// window are missed.)
    #[test]
    fn topk_closely_matches_full_when_k_covers_all_hint_sets(
        reqs in vec(gen_request(), 50..400),
        capacity in 4usize..24,
    ) {
        let trace = trace_from(&reqs);
        let window = 50u64;
        let full = {
            let mut c = Clic::new(capacity, ClicConfig::default()
                .with_window(window)
                .with_metadata_charging(false));
            simulate(&mut c, &trace).read_hit_ratio()
        };
        let topk = {
            let mut c = Clic::new(capacity, ClicConfig::default()
                .with_window(window)
                .with_tracking(TrackingMode::TopK(16))
                .with_metadata_charging(false));
            simulate(&mut c, &trace).read_hit_ratio()
        };
        prop_assert!((full - topk).abs() < 0.1,
            "full {} vs top-k {} should be close when k >= #hint sets", full, topk);
    }
}
