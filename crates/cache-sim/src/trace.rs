//! Trace container: an ordered sequence of requests plus the hint catalog.

use std::collections::HashSet;
use std::fmt;

use crate::hints::{HintCatalog, HintSetId};
use crate::request::{AccessKind, ClientId, PageId, Request, WriteHint};

/// An I/O request trace as observed by the storage server: an ordered
/// sequence of [`Request`]s plus the [`HintCatalog`] describing all clients
/// and hint sets that appear in it.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Human-readable trace name, e.g. `"DB2_C60"`.
    pub name: String,
    /// The requests in arrival order.
    pub requests: Vec<Request>,
    /// Catalog of clients and interned hint sets.
    pub catalog: HintCatalog,
}

impl Trace {
    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Iterates over `(sequence_number, request)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Request)> {
        self.requests.iter().enumerate().map(|(i, r)| (i as u64, r))
    }

    /// Computes summary statistics over the trace (the columns of the
    /// paper's Figure 5 table).
    pub fn summary(&self) -> TraceSummary {
        let mut pages = HashSet::new();
        let mut hint_sets = HashSet::new();
        let mut reads = 0u64;
        let mut writes = 0u64;
        for r in &self.requests {
            pages.insert(r.page);
            hint_sets.insert(r.hint);
            match r.kind {
                AccessKind::Read => reads += 1,
                AccessKind::Write => writes += 1,
            }
        }
        TraceSummary {
            name: self.name.clone(),
            requests: self.requests.len() as u64,
            reads,
            writes,
            distinct_pages: pages.len() as u64,
            distinct_hint_sets: hint_sets.len() as u64,
            clients: self.catalog.client_count() as u64,
        }
    }
}

/// Summary statistics of a trace (one row of the paper's Figure 5 table).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Trace name.
    pub name: String,
    /// Total number of requests.
    pub requests: u64,
    /// Number of read requests.
    pub reads: u64,
    /// Number of write requests.
    pub writes: u64,
    /// Number of distinct pages referenced.
    pub distinct_pages: u64,
    /// Number of distinct hint sets observed.
    pub distinct_hint_sets: u64,
    /// Number of storage clients contributing requests.
    pub clients: u64,
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} requests ({} reads / {} writes), {} pages, {} hint sets, {} client(s)",
            self.name,
            self.requests,
            self.reads,
            self.writes,
            self.distinct_pages,
            self.distinct_hint_sets,
            self.clients
        )
    }
}

/// Incremental builder for [`Trace`]s.
///
/// Wraps a [`HintCatalog`] and a request vector so that trace generators can
/// register clients, intern hint sets, and append requests in one place.
#[derive(Debug, Clone, Default)]
pub struct TraceBuilder {
    name: String,
    catalog: HintCatalog,
    requests: Vec<Request>,
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TraceBuilder::default()
    }

    /// Sets the trace name.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Registers a client and its hint schema; see [`HintCatalog::add_client`].
    pub fn add_client(&mut self, name: impl Into<String>, hint_types: &[(&str, u32)]) -> ClientId {
        self.catalog.add_client(name, hint_types)
    }

    /// Interns a hint set for a registered client; see [`HintCatalog::intern`].
    pub fn intern_hints(&mut self, client: ClientId, values: &[u32]) -> HintSetId {
        self.catalog.intern(client, values)
    }

    /// Appends a request built from raw parts.
    pub fn push(
        &mut self,
        client: ClientId,
        page: u64,
        kind: AccessKind,
        write_hint: Option<WriteHint>,
        hint: HintSetId,
    ) {
        let req = match kind {
            AccessKind::Read => Request::read(client, PageId(page), hint),
            AccessKind::Write => Request::write(client, PageId(page), write_hint, hint),
        };
        self.requests.push(req);
    }

    /// Appends an already-constructed request.
    pub fn push_request(&mut self, req: Request) {
        self.requests.push(req);
    }

    /// Number of requests appended so far.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if no requests have been appended.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Read-only access to the catalog being built.
    pub fn catalog(&self) -> &HintCatalog {
        &self.catalog
    }

    /// Finishes the builder and returns the trace.
    pub fn build(self) -> Trace {
        Trace {
            name: self.name,
            requests: self.requests,
            catalog: self.catalog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new().with_name("unit");
        let c = b.add_client("DB2", &[("pool", 2), ("req type", 5)]);
        let h_read = b.intern_hints(c, &[0, 0]);
        let h_repl = b.intern_hints(c, &[0, 2]);
        b.push(c, 1, AccessKind::Read, None, h_read);
        b.push(
            c,
            2,
            AccessKind::Write,
            Some(WriteHint::Replacement),
            h_repl,
        );
        b.push(c, 1, AccessKind::Read, None, h_read);
        b.push(c, 3, AccessKind::Write, Some(WriteHint::Recovery), h_repl);
        b.push_request(Request::prefetch(c, PageId(4), h_read));
        b.build()
    }

    #[test]
    fn summary_counts_distincts() {
        let t = sample_trace();
        let s = t.summary();
        assert_eq!(s.requests, 5);
        assert_eq!(s.reads, 3);
        assert_eq!(s.writes, 2);
        assert_eq!(s.distinct_pages, 4);
        assert_eq!(s.distinct_hint_sets, 2);
        assert_eq!(s.clients, 1);
        assert!(s.to_string().contains("unit"));
    }

    #[test]
    fn iter_is_sequenced() {
        let t = sample_trace();
        let seqs: Vec<u64> = t.iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }
}
