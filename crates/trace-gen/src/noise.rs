//! Noise-hint injection (the Section 6.3 experiment).
//!
//! The paper stresses CLIC's top-k hint tracking by attaching `T` additional
//! *useless* hint types to every request of a real trace. Each injected hint
//! type has a value domain of size `D`, and each value is drawn independently
//! from a Zipf distribution with skew `z = 1`. Because the injected values
//! carry no information about re-reference behaviour, the ideal policy would
//! ignore them — but they multiply the number of distinct hint sets by up to
//! `D^T`, diluting the statistics of the original hint sets.

use rand::rngs::StdRng;
use rand::SeedableRng;

use cache_sim::{HintCatalog, Request, Trace};

use crate::zipf::Zipf;

/// Configuration of the noise-injection transformation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Number of synthetic hint types `T` appended to every request.
    pub noise_types: u32,
    /// Domain size `D` of each synthetic hint type.
    pub domain: u32,
    /// Zipf skew used to draw the synthetic values (the paper uses 1.0).
    pub skew: f64,
    /// Random seed.
    pub seed: u64,
}

impl NoiseConfig {
    /// The paper's setting: domain `D = 10`, skew `z = 1`.
    pub fn new(noise_types: u32) -> Self {
        NoiseConfig {
            noise_types,
            domain: 10,
            skew: 1.0,
            seed: 7,
        }
    }

    /// Sets the random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Returns a copy of `trace` in which every request carries `T` additional
/// Zipf-distributed noise hint values (and therefore a new, larger hint-set
/// catalog). With `noise_types == 0` the trace is rebuilt unchanged except
/// for freshly assigned hint-set ids.
pub fn inject_noise(trace: &Trace, config: NoiseConfig) -> Trace {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zipf = Zipf::new(config.domain as usize, config.skew);

    // Rebuild the catalog: same clients, schemas extended with T noise types.
    let mut catalog = HintCatalog::new();
    for schema in trace.catalog.schemas() {
        let mut types: Vec<(String, u32)> = schema
            .types
            .iter()
            .map(|t| (t.name.clone(), t.domain_cardinality))
            .collect();
        for t in 0..config.noise_types {
            types.push((format!("noise hint {t}"), config.domain));
        }
        let refs: Vec<(&str, u32)> = types.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        catalog.add_client(schema.client_name.clone(), &refs);
    }

    let mut requests = Vec::with_capacity(trace.requests.len());
    let mut values = Vec::new();
    for req in &trace.requests {
        let original = trace.catalog.resolve(req.hint);
        values.clear();
        values.extend(original.values.iter().map(|v| v.0));
        for _ in 0..config.noise_types {
            values.push(zipf.sample(&mut rng) as u32);
        }
        let hint = catalog.intern(req.client, &values);
        requests.push(Request { hint, ..*req });
    }

    Trace {
        name: if config.noise_types == 0 {
            trace.name.clone()
        } else {
            format!("{}+T{}", trace.name, config.noise_types)
        },
        requests,
        catalog,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{AccessKind, TraceBuilder};

    fn base_trace() -> Trace {
        let mut b = TraceBuilder::new().with_name("base");
        let c = b.add_client("db", &[("kind", 3)]);
        let hints: Vec<_> = (0..3).map(|v| b.intern_hints(c, &[v])).collect();
        for i in 0..3_000u64 {
            b.push(c, i % 50, AccessKind::Read, None, hints[(i % 3) as usize]);
        }
        b.build()
    }

    #[test]
    fn zero_noise_preserves_structure() {
        let trace = base_trace();
        let noisy = inject_noise(&trace, NoiseConfig::new(0));
        assert_eq!(noisy.len(), trace.len());
        assert_eq!(noisy.summary().distinct_hint_sets, 3);
        assert_eq!(noisy.name, "base");
        // Page/kind structure is untouched.
        assert_eq!(noisy.requests[0].page, trace.requests[0].page);
    }

    #[test]
    fn noise_multiplies_distinct_hint_sets() {
        let trace = base_trace();
        let t1 = inject_noise(&trace, NoiseConfig::new(1));
        let t2 = inject_noise(&trace, NoiseConfig::new(2));
        let base_sets = trace.summary().distinct_hint_sets;
        let t1_sets = t1.summary().distinct_hint_sets;
        let t2_sets = t2.summary().distinct_hint_sets;
        assert!(t1_sets > base_sets);
        assert!(t2_sets > t1_sets);
        // Upper bound: D^T times the original count.
        assert!(t1_sets <= base_sets * 10);
        assert!(t2_sets <= base_sets * 100);
        assert_eq!(t1.name, "base+T1");
    }

    #[test]
    fn schema_gains_noise_hint_types() {
        let trace = base_trace();
        let noisy = inject_noise(
            &trace,
            NoiseConfig {
                domain: 7,
                ..NoiseConfig::new(3)
            },
        );
        let schema = noisy.catalog.schema(cache_sim::ClientId(0));
        assert_eq!(schema.arity(), 1 + 3);
        assert_eq!(schema.types[1].name, "noise hint 0");
        assert_eq!(schema.types[1].domain_cardinality, 7);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let trace = base_trace();
        let a = inject_noise(&trace, NoiseConfig::new(2).with_seed(5));
        let b = inject_noise(&trace, NoiseConfig::new(2).with_seed(5));
        let c = inject_noise(&trace, NoiseConfig::new(2).with_seed(6));
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.requests, c.requests);
    }

    #[test]
    fn noise_values_are_zipf_skewed() {
        let trace = base_trace();
        let noisy = inject_noise(&trace, NoiseConfig::new(1));
        // Count how often each noise value appears; value 0 must dominate.
        let mut counts = [0u64; 10];
        for req in &noisy.requests {
            let resolved = noisy.catalog.resolve(req.hint);
            counts[resolved.values[1].0 as usize] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[0] > counts[9]);
    }
}
