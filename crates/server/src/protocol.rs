//! The small request/response protocol spoken by [`crate::Server`].
//!
//! Requests carry exactly the information the paper's storage-server
//! interface exposes: the page, the issuing client, and the opaque hint set
//! ([`HintSetId`]) attached by the client. The server never interprets hint
//! values — CLIC learns their worth from observed re-references — so the
//! protocol stays generic across client applications, exactly as in the
//! paper.

use cache_sim::{AccessKind, ClientId, HintSetId, PageId, Request, SimulationResult, WriteHint};
use clic_obs::MetricsSnapshot;

/// The payload of a [`ServerResponse::Stats`]: the policy-level statistics
/// snapshot plus the full metrics snapshot of the observability layer —
/// every `store.*` I/O counter across the shard stores and, when the server
/// runs with an enabled [`clic_obs::Recorder`], the `server.*` gauges and
/// latency histograms. `metrics` is empty (not absent) on a server without
/// a store and without a recorder, so clients can always merge it.
#[derive(Debug, Clone, Default)]
pub struct StatsSnapshot {
    /// Statistics over every request whose response had been delivered when
    /// the snapshot was taken, in the shape of a simulation result.
    pub result: SimulationResult,
    /// The merged metrics snapshot (server registry + per-shard stores).
    pub metrics: MetricsSnapshot,
}

/// One operation inside a batch submitted to a [`crate::Server`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerRequest {
    /// Read `page`; the response reports whether the server cache held it
    /// (and, on a store-backed server, carries the page's bytes).
    Get {
        /// The storage client issuing the read.
        client: ClientId,
        /// The page being read.
        page: PageId,
        /// The opaque hint set attached to the request.
        hint: HintSetId,
        /// `true` if the read was issued by the client's prefetcher.
        prefetch: bool,
    },
    /// Write `page` back to the server.
    Put {
        /// The storage client issuing the write.
        client: ClientId,
        /// The page being written.
        page: PageId,
        /// The opaque hint set attached to the request.
        hint: HintSetId,
        /// The typed write hint, when the client exposes one.
        write_hint: Option<WriteHint>,
        /// The page bytes, on a store-backed server (zero-padded to the
        /// store's page size if shorter). `None` lets the server synthesize
        /// a deterministic payload — the policy-only server ignores payloads
        /// entirely.
        data: Option<Vec<u8>>,
    },
    /// Drop `page` everywhere: the shard cache forgets it (without leaving
    /// an outqueue ghost) and a store-backed server frees the page's bytes
    /// — discarded frame, WAL delete record, freed disk slot. A delete is
    /// not an access: it does not touch hit/miss statistics or hint
    /// learning.
    Delete {
        /// The page being invalidated.
        page: PageId,
    },
    /// Ask for a point-in-time statistics snapshot of the whole server.
    Stats,
}

impl ServerRequest {
    /// Converts a simulator [`Request`] into the protocol representation.
    pub fn from_request(req: &Request) -> Self {
        match req.kind {
            AccessKind::Read => ServerRequest::Get {
                client: req.client,
                page: req.page,
                hint: req.hint,
                prefetch: req.prefetch,
            },
            AccessKind::Write => ServerRequest::Put {
                client: req.client,
                page: req.page,
                hint: req.hint,
                write_hint: req.write_hint,
                data: None,
            },
        }
    }

    /// Attaches page bytes to a [`ServerRequest::Put`]; a no-op on other
    /// operations.
    pub fn with_payload(mut self, payload: Vec<u8>) -> Self {
        if let ServerRequest::Put { data, .. } = &mut self {
            *data = Some(payload);
        }
        self
    }

    /// The simulator [`Request`] this operation corresponds to, or `None`
    /// for [`ServerRequest::Delete`] and [`ServerRequest::Stats`], which are
    /// not cache accesses.
    pub fn to_request(&self) -> Option<Request> {
        match *self {
            ServerRequest::Get {
                client,
                page,
                hint,
                prefetch,
            } => Some(Request {
                prefetch,
                ..Request::read(client, page, hint)
            }),
            ServerRequest::Put {
                client,
                page,
                hint,
                write_hint,
                ..
            } => Some(Request::write(client, page, write_hint, hint)),
            ServerRequest::Delete { .. } | ServerRequest::Stats => None,
        }
    }

    /// The page this operation touches (`None` for
    /// [`ServerRequest::Stats`]), which decides the shard it routes to.
    pub fn page(&self) -> Option<PageId> {
        match *self {
            ServerRequest::Get { page, .. }
            | ServerRequest::Put { page, .. }
            | ServerRequest::Delete { page } => Some(page),
            ServerRequest::Stats => None,
        }
    }
}

/// Typed error codes carried by [`ServerResponse::Error`] and the
/// `OP_ERR` wire frame (one byte on the wire).
///
/// The codes classify the failure, not its internal details: each says the
/// request itself failed server-side, so none is worth resending as is.
/// Byte 3 is unassigned; decoders reject it like any unknown code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// A storage I/O operation failed (failed write, failed `fsync`); the
    /// request was not applied.
    Io = 1,
    /// Stored data failed integrity verification (a torn frame caught by
    /// CRC); the request could not be served from disk.
    Corrupt = 2,
    /// The server is shutting down; the request was not served.
    Shutdown = 4,
    /// Any other server-side failure.
    Internal = 5,
}

impl ErrorCode {
    /// Parses the wire byte; `None` for unknown codes (the decoder rejects
    /// the frame as malformed rather than inventing a meaning).
    pub fn from_u8(code: u8) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::Io),
            2 => Some(ErrorCode::Corrupt),
            4 => Some(ErrorCode::Shutdown),
            5 => Some(ErrorCode::Internal),
            _ => None,
        }
    }

    /// Classifies a storage-layer error: CRC/framing damage is
    /// [`ErrorCode::Corrupt`], everything else [`ErrorCode::Io`].
    pub fn from_io_error(err: &std::io::Error) -> ErrorCode {
        if err.kind() == std::io::ErrorKind::InvalidData {
            ErrorCode::Corrupt
        } else {
            ErrorCode::Io
        }
    }

    /// Short stable name for logs and reports.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::Io => "io",
            ErrorCode::Corrupt => "corrupt",
            ErrorCode::Shutdown => "shutdown",
            ErrorCode::Internal => "internal",
        }
    }
}

/// The server's answer to one [`ServerRequest`], in batch order.
#[derive(Debug, Clone)]
pub enum ServerResponse {
    /// Answer to a [`ServerRequest::Get`].
    Get {
        /// `true` if the page was cached when the request was served.
        hit: bool,
        /// The page bytes, on a store-backed server (`None` on the
        /// policy-only server). A page never written reads as zeroes.
        data: Option<Vec<u8>>,
    },
    /// Answer to a [`ServerRequest::Put`].
    Put {
        /// `true` if the page was cached when the request was served.
        hit: bool,
    },
    /// Answer to a [`ServerRequest::Delete`].
    Delete {
        /// `true` if the server held the page anywhere (cache or disk) when
        /// the delete was served.
        existed: bool,
    },
    /// Answer to a [`ServerRequest::Stats`]: policy statistics over every
    /// request whose response had been delivered when the snapshot was
    /// taken, plus the server's full metrics snapshot (see
    /// [`StatsSnapshot`]).
    Stats(Box<StatsSnapshot>),
    /// The request failed server-side; the [`ErrorCode`] says why. Carried
    /// on the wire as an `OP_ERR` frame.
    Error {
        /// Why the request failed.
        code: ErrorCode,
    },
}

impl ServerResponse {
    /// The hit flag of a data response (`None` for
    /// [`ServerResponse::Delete`] and [`ServerResponse::Stats`], which are
    /// not cache accesses).
    pub fn hit(&self) -> Option<bool> {
        match self {
            ServerResponse::Get { hit, .. } | ServerResponse::Put { hit } => Some(*hit),
            ServerResponse::Delete { .. }
            | ServerResponse::Stats(_)
            | ServerResponse::Error { .. } => None,
        }
    }

    /// The error code of a [`ServerResponse::Error`] (`None` for
    /// successful responses).
    pub fn error_code(&self) -> Option<ErrorCode> {
        match self {
            ServerResponse::Error { code } => Some(*code),
            _ => None,
        }
    }

    /// The existed flag of a [`ServerResponse::Delete`] (`None` for every
    /// other response).
    pub fn existed(&self) -> Option<bool> {
        match self {
            ServerResponse::Delete { existed } => Some(*existed),
            _ => None,
        }
    }

    /// The page bytes of a store-backed [`ServerResponse::Get`] (`None` for
    /// every other response).
    pub fn data(&self) -> Option<&[u8]> {
        match self {
            ServerResponse::Get { data, .. } => data.as_deref(),
            _ => None,
        }
    }

    /// The policy-statistics snapshot of a stats response (`None` for data
    /// responses).
    pub fn stats(&self) -> Option<&SimulationResult> {
        match self {
            ServerResponse::Stats(snapshot) => Some(&snapshot.result),
            _ => None,
        }
    }

    /// The metrics snapshot of a stats response (`None` for data
    /// responses).
    pub fn metrics(&self) -> Option<&MetricsSnapshot> {
        match self {
            ServerResponse::Stats(snapshot) => Some(&snapshot.metrics),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_the_protocol() {
        let read = Request::read(ClientId(1), PageId(7), HintSetId(3));
        let prefetch = Request::prefetch(ClientId(1), PageId(8), HintSetId(3));
        let write = Request::write(
            ClientId(2),
            PageId(9),
            Some(WriteHint::Replacement),
            HintSetId(4),
        );
        for req in [read, prefetch, write] {
            let round_tripped = ServerRequest::from_request(&req)
                .to_request()
                .expect("data request");
            assert_eq!(round_tripped, req);
        }
        assert_eq!(ServerRequest::Stats.to_request(), None);
    }

    #[test]
    fn response_accessors_discriminate_variants() {
        let get = ServerResponse::Get {
            hit: true,
            data: Some(vec![1, 2, 3]),
        };
        assert_eq!(get.hit(), Some(true));
        assert_eq!(get.data(), Some(&[1u8, 2, 3][..]));
        let put = ServerResponse::Put { hit: false };
        assert_eq!(put.hit(), Some(false));
        assert_eq!(put.data(), None);
        let stats = ServerResponse::Stats(Box::default());
        assert_eq!(stats.hit(), None);
        assert!(stats.stats().is_some());
        assert!(stats.metrics().is_some());
        assert!(get.stats().is_none());
        assert!(get.metrics().is_none());
        let error = ServerResponse::Error {
            code: ErrorCode::Io,
        };
        assert_eq!(error.error_code(), Some(ErrorCode::Io));
        assert_eq!(error.hit(), None);
        assert_eq!(error.existed(), None);
        assert_eq!(error.data(), None);
        assert!(error.stats().is_none());
        assert_eq!(get.error_code(), None);
    }

    #[test]
    fn error_codes_round_trip_their_wire_byte() {
        for code in [
            ErrorCode::Io,
            ErrorCode::Corrupt,
            ErrorCode::Shutdown,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        for unassigned in [0, 3, 6] {
            assert_eq!(ErrorCode::from_u8(unassigned), None);
        }
        let torn = std::io::Error::new(std::io::ErrorKind::InvalidData, "torn frame");
        assert_eq!(ErrorCode::from_io_error(&torn), ErrorCode::Corrupt);
        let eio = std::io::Error::other("injected fault");
        assert_eq!(ErrorCode::from_io_error(&eio), ErrorCode::Io);
    }

    #[test]
    fn payloads_attach_to_puts_and_drop_through_to_request() {
        let put = ServerRequest::from_request(&Request::write(
            ClientId(1),
            PageId(2),
            None,
            HintSetId(0),
        ));
        assert!(matches!(&put, ServerRequest::Put { data: None, .. }));
        let put = put.with_payload(vec![0xab; 16]);
        match &put {
            ServerRequest::Put { data, .. } => assert_eq!(data.as_deref(), Some(&[0xab; 16][..])),
            other => panic!("expected a Put, got {other:?}"),
        }
        // The payload never reaches the policy-level request.
        assert_eq!(
            put.to_request(),
            Some(Request::write(ClientId(1), PageId(2), None, HintSetId(0)))
        );
        // with_payload on a Get is a no-op.
        let get = ServerRequest::Get {
            client: ClientId(0),
            page: PageId(1),
            hint: HintSetId(0),
            prefetch: false,
        };
        assert_eq!(get.clone().with_payload(vec![1]), get);
    }
}
