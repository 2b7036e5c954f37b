//! The block I/O request model shared by all crates in the workspace.
//!
//! A storage server receives a sequence of [`Request`]s. Each request names a
//! [`PageId`] (a block address), is issued by a [`ClientId`] (a storage client
//! such as a DBMS instance), is either a read or a write ([`AccessKind`]), and
//! carries an opaque hint-set identifier ([`crate::HintSetId`]).
//!
//! Write requests may additionally carry a typed [`WriteHint`]. The typed
//! write hint exists so that the *ad hoc* TQ baseline (which hard-codes
//! responses to write hints) can be implemented; generic policies such as
//! CLIC only look at the opaque hint-set identifier, exactly as in the paper.

use std::fmt;

use crate::hints::HintSetId;

/// Identifier of a page (block) stored on the storage server.
///
/// Pages are the unit of caching. Page identifiers are global across clients:
/// two clients never share a page (each client's database occupies a disjoint
/// page-id range), which mirrors the paper's multi-client setup where every
/// DB2 instance manages its own database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageId(pub u64);

impl From<u64> for PageId {
    #[inline]
    fn from(v: u64) -> Self {
        PageId(v)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a storage client application (for example one DBMS instance).
///
/// The paper treats hint types of different clients as distinct even when the
/// clients are instances of the same application; keying hint sets by
/// `ClientId` in [`crate::HintCatalog`] enforces exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(pub u16);

impl From<u16> for ClientId {
    #[inline]
    fn from(v: u16) -> Self {
        ClientId(v)
    }
}

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Whether a request reads or writes the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The client reads the page from the storage server.
    Read,
    /// The client writes the page back to the storage server.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Read`].
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Returns `true` for [`AccessKind::Write`].
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// The typed write hint attached to write requests, as defined by
/// Li et al. (FAST '05) and used by the TQ baseline policy.
///
/// * A *replacement* write is performed to clean a dirty page so that it can
///   be evicted from the client's buffer cache; the page is therefore likely
///   to leave the first tier soon and may be read again from the server.
/// * A *recovery* write is performed only to bound recovery time (for example
///   during a checkpoint); the page typically stays hot in the first tier and
///   will not be read from the server soon.
/// * A *synchronous* write is a replacement write issued directly by the
///   thread that needs a free buffer (rather than by the asynchronous page
///   cleaner); it signals buffer-pool pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WriteHint {
    /// Write performed to enable eviction from the first-tier cache.
    Replacement,
    /// Write performed for recoverability (checkpoint / log-driven).
    Recovery,
    /// Replacement write performed synchronously by the requesting thread.
    Synchronous,
}

impl fmt::Display for WriteHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WriteHint::Replacement => write!(f, "replacement"),
            WriteHint::Recovery => write!(f, "recovery"),
            WriteHint::Synchronous => write!(f, "synchronous"),
        }
    }
}

/// A single block I/O request observed by the storage server.
///
/// Requests are deliberately small and `Copy` so that traces of millions of
/// requests stay compact and cheap to iterate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// The storage client that issued the request.
    pub client: ClientId,
    /// The page being read or written.
    pub page: PageId,
    /// Whether the request is a read or a write.
    pub kind: AccessKind,
    /// The typed write hint, present only for write requests and only when
    /// the client exposes write hints (used by the TQ baseline).
    pub write_hint: Option<WriteHint>,
    /// `true` if this read was issued by the client's prefetcher rather than
    /// on demand. Prefetch reads still count as reads for hit-ratio purposes.
    pub prefetch: bool,
    /// The opaque identifier of the hint set attached to this request.
    pub hint: HintSetId,
}

impl Request {
    /// Creates a read request.
    pub fn read(client: ClientId, page: PageId, hint: HintSetId) -> Self {
        Request {
            client,
            page,
            kind: AccessKind::Read,
            write_hint: None,
            prefetch: false,
            hint,
        }
    }

    /// Creates a prefetch read request.
    pub fn prefetch(client: ClientId, page: PageId, hint: HintSetId) -> Self {
        Request {
            prefetch: true,
            ..Request::read(client, page, hint)
        }
    }

    /// Creates a write request carrying the given typed write hint.
    pub fn write(
        client: ClientId,
        page: PageId,
        write_hint: Option<WriteHint>,
        hint: HintSetId,
    ) -> Self {
        Request {
            client,
            page,
            kind: AccessKind::Write,
            write_hint,
            prefetch: false,
            hint,
        }
    }

    /// Returns `true` if this request is a read.
    #[inline]
    pub fn is_read(&self) -> bool {
        self.kind.is_read()
    }

    /// Returns `true` if this request is a write.
    #[inline]
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} (hint {})",
            self.client, self.kind, self.page, self.hint
        )?;
        if let Some(wh) = self.write_hint {
            write!(f, " [{wh}]")?;
        }
        if self.prefetch {
            write!(f, " [prefetch]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_id_roundtrip() {
        let p = PageId::from(42u64);
        assert_eq!(p, PageId(42));
        assert_eq!(p.to_string(), "p42");
    }

    #[test]
    fn client_id_roundtrip() {
        let c = ClientId::from(3u16);
        assert_eq!(c, ClientId(3));
        assert_eq!(c.to_string(), "c3");
    }

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Write.is_read());
    }

    #[test]
    fn request_constructors() {
        let hint = HintSetId(7);
        let r = Request::read(ClientId(0), PageId(1), hint);
        assert!(r.is_read());
        assert!(!r.prefetch);
        assert_eq!(r.write_hint, None);

        let p = Request::prefetch(ClientId(0), PageId(1), hint);
        assert!(p.is_read());
        assert!(p.prefetch);

        let w = Request::write(ClientId(0), PageId(1), Some(WriteHint::Replacement), hint);
        assert!(w.is_write());
        assert_eq!(w.write_hint, Some(WriteHint::Replacement));
    }

    #[test]
    fn display_formats_are_informative() {
        let hint = HintSetId(1);
        let w = Request::write(ClientId(2), PageId(9), Some(WriteHint::Recovery), hint);
        let s = w.to_string();
        assert!(s.contains("c2"));
        assert!(s.contains("p9"));
        assert!(s.contains("write"));
        assert!(s.contains("recovery"));
    }

    #[test]
    fn request_is_small() {
        // Traces hold millions of requests; keep the struct compact.
        assert!(std::mem::size_of::<Request>() <= 24);
    }
}
