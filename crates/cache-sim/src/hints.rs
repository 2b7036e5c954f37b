//! The hint catalog: client hint schemas, concrete hint sets, and interning.
//!
//! In the paper each storage client defines one or more *hint types*, each
//! with a categorical *value domain*. Every request carries a *hint set*: one
//! value from each of that client's hint-type domains. A generic policy such
//! as CLIC must treat hint sets as opaque categorical labels — it neither
//! knows nor exploits the semantics of the values.
//!
//! To keep traces compact, this crate *interns* hint sets: each distinct
//! `(client, values)` combination is assigned a dense [`HintSetId`], and
//! requests store only that id. The [`HintCatalog`] retains the mapping from
//! ids back to clients, hint values, and human-readable hint-type
//! descriptions so that experiments (for example the Figure 2 and Figure 3
//! reproductions) can report interpretable labels, while policies continue to
//! see only opaque ids.

use std::collections::HashMap;
use std::fmt;

use crate::request::ClientId;

/// A single categorical hint value, an index into the hint type's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HintValue(pub u32);

impl From<u32> for HintValue {
    #[inline]
    fn from(v: u32) -> Self {
        HintValue(v)
    }
}

impl fmt::Display for HintValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Dense identifier of a distinct interned hint set: an index into the
/// catalog that interned it, handed out from 0 upwards.
///
/// Hint sets from different clients always receive different ids, mirroring
/// the paper's rule that hint types of different clients are distinct even if
/// the clients run the same application.
///
/// Policies index their per-hint-set tables by this id (`clic-core` holds
/// one entry per id up to the largest it has seen), so an id must come from
/// an interner — a [`HintCatalog`], or the server's per-client table for
/// hints that arrive on the wire — never straight from an untrusted source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HintSetId(pub u32);

impl HintSetId {
    /// Returns the raw index as a `usize`, convenient for array indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<HintSetId> for usize {
    #[inline]
    fn from(id: HintSetId) -> usize {
        id.index()
    }
}

impl fmt::Display for HintSetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Describes one hint type declared by a client: a name and the cardinality
/// of its categorical value domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintTypeDescriptor {
    /// Human-readable name of the hint type, e.g. `"DB2 object ID"`.
    pub name: String,
    /// Number of distinct values in the hint type's domain.
    pub domain_cardinality: u32,
}

impl HintTypeDescriptor {
    /// Creates a descriptor.
    pub fn new(name: impl Into<String>, domain_cardinality: u32) -> Self {
        HintTypeDescriptor {
            name: name.into(),
            domain_cardinality,
        }
    }
}

/// The hint schema of one storage client: an ordered list of hint types.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintSchema {
    /// The client that declared this schema.
    pub client: ClientId,
    /// Human-readable client label, e.g. `"DB2_C60"`.
    pub client_name: String,
    /// The hint types, in the order their values appear in hint sets.
    pub types: Vec<HintTypeDescriptor>,
}

impl HintSchema {
    /// Number of hint types declared by the client.
    pub fn arity(&self) -> usize {
        self.types.len()
    }

    /// Upper bound on the number of distinct hint sets this client can emit
    /// (the product of its domain cardinalities), saturating at `u64::MAX`.
    pub fn max_hint_sets(&self) -> u64 {
        self.types.iter().fold(1u64, |acc, t| {
            acc.saturating_mul(u64::from(t.domain_cardinality.max(1)))
        })
    }
}

/// A fully resolved hint set: the owning client plus one value per hint type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResolvedHintSet {
    /// The client that issued requests with this hint set.
    pub client: ClientId,
    /// One value per hint type, in schema order.
    pub values: Vec<HintValue>,
}

impl fmt::Display for ResolvedHintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:[", self.client)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// The catalog of all clients, their hint schemas, and all interned hint sets
/// observed in a trace.
#[derive(Debug, Clone, Default)]
pub struct HintCatalog {
    schemas: Vec<HintSchema>,
    sets: Vec<ResolvedHintSet>,
    interner: HashMap<ResolvedHintSet, HintSetId>,
}

impl HintCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        HintCatalog::default()
    }

    /// Registers a client with the given human-readable name and hint types
    /// (`(name, domain_cardinality)` pairs), returning its [`ClientId`].
    pub fn add_client(
        &mut self,
        client_name: impl Into<String>,
        hint_types: &[(&str, u32)],
    ) -> ClientId {
        let client = ClientId(self.schemas.len() as u16);
        self.schemas.push(HintSchema {
            client,
            client_name: client_name.into(),
            types: hint_types
                .iter()
                .map(|(n, c)| HintTypeDescriptor::new(*n, *c))
                .collect(),
        });
        client
    }

    /// Returns the schema of a client.
    ///
    /// # Panics
    ///
    /// Panics if `client` was not registered with this catalog.
    pub fn schema(&self, client: ClientId) -> &HintSchema {
        &self.schemas[client.0 as usize]
    }

    /// All registered client schemas.
    pub fn schemas(&self) -> &[HintSchema] {
        &self.schemas
    }

    /// Number of registered clients.
    pub fn client_count(&self) -> usize {
        self.schemas.len()
    }

    /// Interns a hint set for `client` with the given values (one per hint
    /// type in schema order) and returns its dense id. Interning the same
    /// `(client, values)` combination twice returns the same id.
    ///
    /// # Panics
    ///
    /// Panics if `client` is unknown or if the number of values does not
    /// match the client's schema arity.
    pub fn intern(&mut self, client: ClientId, values: &[u32]) -> HintSetId {
        let schema = &self.schemas[client.0 as usize];
        assert_eq!(
            values.len(),
            schema.types.len(),
            "hint set arity {} does not match schema arity {} for client {}",
            values.len(),
            schema.types.len(),
            schema.client_name
        );
        let resolved = ResolvedHintSet {
            client,
            values: values.iter().copied().map(HintValue).collect(),
        };
        if let Some(&id) = self.interner.get(&resolved) {
            return id;
        }
        let id = HintSetId(self.sets.len() as u32);
        self.sets.push(resolved.clone());
        self.interner.insert(resolved, id);
        id
    }

    /// Looks up an already-interned hint set without inserting it.
    pub fn lookup(&self, client: ClientId, values: &[u32]) -> Option<HintSetId> {
        let resolved = ResolvedHintSet {
            client,
            values: values.iter().copied().map(HintValue).collect(),
        };
        self.interner.get(&resolved).copied()
    }

    /// Returns the resolved hint set for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this catalog.
    pub fn resolve(&self, id: HintSetId) -> &ResolvedHintSet {
        &self.sets[id.index()]
    }

    /// Total number of distinct hint sets interned so far.
    pub fn hint_set_count(&self) -> usize {
        self.sets.len()
    }

    /// Produces a human-readable label for a hint set by pairing each value
    /// with its hint-type name, e.g. `"DB2_C60{pool=1, object=17, ...}"`.
    pub fn describe(&self, id: HintSetId) -> String {
        let set = self.resolve(id);
        let schema = self.schema(set.client);
        let mut out = format!("{}{{", schema.client_name);
        for (i, (t, v)) in schema.types.iter().zip(set.values.iter()).enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{}={}", t.name, v));
        }
        out.push('}');
        out
    }

    /// Merges another catalog into this one, returning mappings from the
    /// other catalog's client ids and hint-set ids to the ids they received
    /// in `self`. Used when interleaving traces from multiple clients.
    pub fn merge(&mut self, other: &HintCatalog) -> (Vec<ClientId>, Vec<HintSetId>) {
        let mut client_map = Vec::with_capacity(other.schemas.len());
        for schema in &other.schemas {
            let types: Vec<(&str, u32)> = schema
                .types
                .iter()
                .map(|t| (t.name.as_str(), t.domain_cardinality))
                .collect();
            let new_client = self.add_client(schema.client_name.clone(), &types);
            client_map.push(new_client);
        }
        let mut set_map = Vec::with_capacity(other.sets.len());
        for set in &other.sets {
            let new_client = client_map[set.client.0 as usize];
            let values: Vec<u32> = set.values.iter().map(|v| v.0).collect();
            set_map.push(self.intern(new_client, &values));
        }
        (client_map, set_map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_catalog() -> (HintCatalog, ClientId) {
        let mut cat = HintCatalog::new();
        let c = cat.add_client(
            "DB2_TEST",
            &[
                ("pool ID", 2),
                ("object ID", 21),
                ("object type ID", 6),
                ("request type", 5),
                ("buffer priority", 4),
            ],
        );
        (cat, c)
    }

    #[test]
    fn intern_is_idempotent() {
        let (mut cat, c) = sample_catalog();
        let a = cat.intern(c, &[0, 3, 1, 2, 0]);
        let b = cat.intern(c, &[0, 3, 1, 2, 0]);
        assert_eq!(a, b);
        assert_eq!(cat.hint_set_count(), 1);
        let d = cat.intern(c, &[0, 3, 1, 2, 1]);
        assert_ne!(a, d);
        assert_eq!(cat.hint_set_count(), 2);
    }

    #[test]
    fn lookup_without_insert() {
        let (mut cat, c) = sample_catalog();
        assert_eq!(cat.lookup(c, &[0, 0, 0, 0, 0]), None);
        let id = cat.intern(c, &[0, 0, 0, 0, 0]);
        assert_eq!(cat.lookup(c, &[0, 0, 0, 0, 0]), Some(id));
    }

    #[test]
    fn resolve_and_describe() {
        let (mut cat, c) = sample_catalog();
        let id = cat.intern(c, &[1, 7, 2, 3, 0]);
        let set = cat.resolve(id);
        assert_eq!(set.client, c);
        assert_eq!(set.values[1], HintValue(7));
        let label = cat.describe(id);
        assert!(label.contains("object ID=7"));
        assert!(label.contains("DB2_TEST"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn intern_rejects_wrong_arity() {
        let (mut cat, c) = sample_catalog();
        cat.intern(c, &[1, 2]);
    }

    #[test]
    fn distinct_clients_get_distinct_ids() {
        let mut cat = HintCatalog::new();
        let c1 = cat.add_client("A", &[("t", 4)]);
        let c2 = cat.add_client("B", &[("t", 4)]);
        let a = cat.intern(c1, &[1]);
        let b = cat.intern(c2, &[1]);
        assert_ne!(
            a, b,
            "same values from different clients must stay distinct"
        );
        assert_eq!(cat.resolve(a).client, c1);
        assert_eq!(cat.resolve(b).client, c2);
    }

    #[test]
    fn max_hint_sets_is_domain_product() {
        let (cat, c) = sample_catalog();
        assert_eq!(cat.schema(c).max_hint_sets(), 2 * 21 * 6 * 5 * 4);
        assert_eq!(cat.schema(c).arity(), 5);
    }

    #[test]
    fn merge_remaps_clients_and_sets() {
        let (mut a, ca) = sample_catalog();
        let ida = a.intern(ca, &[0, 1, 2, 3, 0]);

        let mut b = HintCatalog::new();
        let cb = b.add_client("MYSQL_TEST", &[("thread", 5), ("req", 3)]);
        let idb0 = b.intern(cb, &[0, 1]);
        let idb1 = b.intern(cb, &[4, 2]);

        let (client_map, set_map) = a.merge(&b);
        assert_eq!(client_map.len(), 1);
        assert_eq!(set_map.len(), 2);
        // Existing hint set untouched.
        assert_eq!(a.resolve(ida).client, ca);
        // Merged sets resolve under the new client id.
        let new_client = client_map[0];
        assert_ne!(new_client, ca);
        assert_eq!(a.resolve(set_map[idb0.index()]).client, new_client);
        assert_eq!(a.resolve(set_map[idb1.index()]).values[0], HintValue(4));
        assert_eq!(a.hint_set_count(), 3);
    }
}
