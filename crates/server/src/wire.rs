//! The length-prefixed binary wire codec spoken by the network front-end.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! [len: u32 LE][opcode: u8][seq: u64 LE][body: len - 9 bytes]
//! ```
//!
//! `len` counts everything after itself (opcode + seq + body) and is
//! bounded by [`MAX_FRAME_LEN`]; a larger prefix is a protocol violation
//! and the connection is dropped, never buffered. `seq` is a
//! client-chosen correlation id echoed verbatim on the response — the
//! server may answer a connection's frames out of order across shards, and
//! the open-loop generator also uses `seq` to index its scheduled-send-time
//! table. All integers are little-endian; strings are a `u32` byte length
//! followed by UTF-8.
//!
//! See the crate docs for the full per-opcode byte layout table. Decoding
//! is strict: unknown opcodes, truncated bodies, trailing bytes, and
//! invalid enum encodings all surface as [`WireError`] — a malformed peer
//! cannot panic the server or leak a partially decoded frame.

use cache_sim::{CacheStats, ClientId, HintSetId, PageId, SimulationResult, WriteHint};
use clic_obs::{GaugeSnapshot, HistogramSnapshot, MetricsSnapshot};

use crate::protocol::{ErrorCode, ServerRequest, ServerResponse, StatsSnapshot};

/// Upper bound on `len` (the bytes after the length prefix). Generous —
/// a stats snapshot with thousands of metrics and a page payload both fit
/// with orders of magnitude to spare — but small enough that a garbage
/// length prefix cannot make the server buffer gigabytes.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Bytes of payload header (opcode + seq) before the body.
pub const PAYLOAD_HEADER: usize = 9;

/// Request opcode: [`ServerRequest::Get`].
pub const OP_GET: u8 = 0x01;
/// Request opcode: [`ServerRequest::Put`].
pub const OP_PUT: u8 = 0x02;
/// Request opcode: [`ServerRequest::Delete`].
pub const OP_DELETE: u8 = 0x03;
/// Request opcode: [`ServerRequest::Stats`].
pub const OP_STATS: u8 = 0x04;
/// Response opcode: [`ServerResponse::Get`].
pub const OP_GET_RESP: u8 = 0x81;
/// Response opcode: [`ServerResponse::Put`].
pub const OP_PUT_RESP: u8 = 0x82;
/// Response opcode: [`ServerResponse::Delete`].
pub const OP_DELETE_RESP: u8 = 0x83;
/// Response opcode: [`ServerResponse::Stats`].
pub const OP_STATS_RESP: u8 = 0x84;
/// Response opcode: [`ServerResponse::Error`] — a typed failure answer to
/// any request. Body is one [`ErrorCode`] byte.
pub const OP_ERR: u8 = 0x85;

/// Why a frame (or stream) was rejected. Any of these is fatal for the
/// connection that produced it: framing state is unrecoverable once the
/// stream desynchronizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The opcode byte matches no known message.
    BadOpcode(u8),
    /// The payload is structurally invalid (truncated field, trailing
    /// bytes, out-of-range enum encoding, non-UTF-8 string).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Oversized(len) => {
                write!(
                    f,
                    "frame length {len} exceeds the {MAX_FRAME_LEN}-byte bound"
                )
            }
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(err: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, err)
    }
}

/// Attempts to split one frame off the front of `buf`. Returns
/// `Ok(None)` when the buffer does not yet hold a complete frame (read
/// more), or `Ok(Some((consumed, payload)))` where `payload` starts at the
/// opcode byte and `consumed` is the total frame size to drain from the
/// buffer. A length prefix beyond [`MAX_FRAME_LEN`] or below
/// [`PAYLOAD_HEADER`] is rejected immediately, *before* waiting for the
/// bytes it claims.
// invariant: the `try_into` converts a length-checked 4-byte slice.
#[cfg_attr(not(test), allow(clippy::unwrap_used))]
pub fn take_frame(buf: &[u8]) -> Result<Option<(usize, &[u8])>, WireError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    if len < PAYLOAD_HEADER {
        return Err(WireError::Malformed("frame shorter than its header"));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    Ok(Some((4 + len, &buf[4..4 + len])))
}

/// The receive side of a connection: bytes go in as the socket delivers
/// them, whole frames come out. This is the one place a byte stream turns
/// into frames — the event loop, [`crate::BlockingClient`] and the
/// open-loop reader all read through it.
///
/// Consumed frames are skipped with a cursor rather than removed, and the
/// buffer is compacted only when it is empty or more than half consumed, so
/// decoding a backlog of `n` frames moves O(n) bytes, not O(n²).
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as frames.
    at: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends bytes received from the peer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // More than half consumed (fully consumed included, where nothing
        // is left to move): drop the consumed prefix.
        if self.at > self.buf.len() / 2 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Splits the next complete frame off the front ([`take_frame`]):
    /// `Ok(None)` when more bytes are needed, otherwise the frame's total
    /// size and its payload, which is consumed by this call.
    pub fn next_frame(&mut self) -> Result<Option<(usize, &[u8])>, WireError> {
        let frame = take_frame(&self.buf[self.at..])?;
        if let Some((consumed, _)) = frame {
            self.at += consumed;
        }
        Ok(frame)
    }

    /// Buffered bytes not yet handed out as frames.
    pub fn len(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Whether every buffered byte has been handed out.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards everything buffered (the stream it came from is gone).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.at = 0;
    }
}

// ----- encoding ---------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_cache_stats(out: &mut Vec<u8>, stats: &CacheStats) {
    for value in [
        stats.read_hits,
        stats.read_misses,
        stats.write_hits,
        stats.write_misses,
        stats.evictions,
        stats.bypasses,
    ] {
        out.extend_from_slice(&value.to_le_bytes());
    }
}

fn put_metrics(out: &mut Vec<u8>, metrics: &MetricsSnapshot) {
    out.extend_from_slice(&(metrics.counters.len() as u32).to_le_bytes());
    for (name, &value) in &metrics.counters {
        put_str(out, name);
        out.extend_from_slice(&value.to_le_bytes());
    }
    out.extend_from_slice(&(metrics.gauges.len() as u32).to_le_bytes());
    for (name, gauge) in &metrics.gauges {
        put_str(out, name);
        out.extend_from_slice(&gauge.value.to_le_bytes());
        out.extend_from_slice(&gauge.peak.to_le_bytes());
    }
    out.extend_from_slice(&(metrics.histograms.len() as u32).to_le_bytes());
    for (name, hist) in &metrics.histograms {
        put_str(out, name);
        out.extend_from_slice(&hist.count().to_le_bytes());
        out.extend_from_slice(&hist.sum().to_le_bytes());
        out.extend_from_slice(&hist.max().to_le_bytes());
        // Sparse buckets: latency histograms are wide (1920 buckets) and
        // mostly empty, so (index, count) pairs beat the dense vector.
        let pairs: Vec<(u32, u64)> = hist
            .buckets()
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i as u32, n))
            .collect();
        out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (index, count) in pairs {
            out.extend_from_slice(&index.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
}

fn put_stats_snapshot(out: &mut Vec<u8>, snapshot: &StatsSnapshot) {
    put_str(out, &snapshot.result.policy);
    out.extend_from_slice(&(snapshot.result.capacity as u64).to_le_bytes());
    put_cache_stats(out, &snapshot.result.stats);
    out.extend_from_slice(&(snapshot.result.per_client.len() as u32).to_le_bytes());
    for (client, stats) in &snapshot.result.per_client {
        out.extend_from_slice(&client.0.to_le_bytes());
        put_cache_stats(out, stats);
    }
    put_metrics(out, &snapshot.metrics);
}

/// Appends one encoded frame to `out`: the length prefix, `opcode`, `seq`,
/// and the body the closure writes.
fn frame(out: &mut Vec<u8>, opcode: u8, seq: u64, body: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]); // length patched below
    out.push(opcode);
    out.extend_from_slice(&seq.to_le_bytes());
    body(out);
    let len = out.len() - len_at - 4;
    debug_assert!(len <= MAX_FRAME_LEN, "encoded frame exceeds MAX_FRAME_LEN");
    out[len_at..len_at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

fn write_hint_byte(hint: Option<WriteHint>) -> u8 {
    match hint {
        None => 0,
        Some(WriteHint::Replacement) => 1,
        Some(WriteHint::Recovery) => 2,
        Some(WriteHint::Synchronous) => 3,
    }
}

/// Appends the encoded frame for `(seq, op)` to `out`.
pub fn encode_request(seq: u64, op: &ServerRequest, out: &mut Vec<u8>) {
    match op {
        ServerRequest::Get {
            client,
            page,
            hint,
            prefetch,
        } => frame(out, OP_GET, seq, |body| {
            body.extend_from_slice(&client.0.to_le_bytes());
            body.extend_from_slice(&page.0.to_le_bytes());
            body.extend_from_slice(&hint.0.to_le_bytes());
            body.push(u8::from(*prefetch));
        }),
        ServerRequest::Put {
            client,
            page,
            hint,
            write_hint,
            data,
        } => frame(out, OP_PUT, seq, |body| {
            body.extend_from_slice(&client.0.to_le_bytes());
            body.extend_from_slice(&page.0.to_le_bytes());
            body.extend_from_slice(&hint.0.to_le_bytes());
            body.push(write_hint_byte(*write_hint));
            match data {
                Some(bytes) => {
                    body.push(1);
                    put_bytes(body, bytes);
                }
                None => body.push(0),
            }
        }),
        ServerRequest::Delete { page } => frame(out, OP_DELETE, seq, |body| {
            body.extend_from_slice(&page.0.to_le_bytes());
        }),
        ServerRequest::Stats => frame(out, OP_STATS, seq, |_| {}),
    }
}

/// Appends the encoded frame for `(seq, response)` to `out`.
pub fn encode_response(seq: u64, response: &ServerResponse, out: &mut Vec<u8>) {
    match response {
        ServerResponse::Get { hit, data } => frame(out, OP_GET_RESP, seq, |body| {
            body.push(u8::from(*hit) | (u8::from(data.is_some()) << 1));
            if let Some(bytes) = data {
                put_bytes(body, bytes);
            }
        }),
        ServerResponse::Put { hit } => frame(out, OP_PUT_RESP, seq, |body| {
            body.push(u8::from(*hit));
        }),
        ServerResponse::Delete { existed } => frame(out, OP_DELETE_RESP, seq, |body| {
            body.push(u8::from(*existed));
        }),
        ServerResponse::Stats(snapshot) => frame(out, OP_STATS_RESP, seq, |body| {
            put_stats_snapshot(body, snapshot);
        }),
        ServerResponse::Error { code } => frame(out, OP_ERR, seq, |body| {
            body.push(*code as u8);
        }),
    }
}

// ----- decoding ---------------------------------------------------------

/// A bounds-checked little-endian reader over one frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

// invariant: every `try_into().unwrap()` below converts a slice whose
// length `take` just checked against the requested width.
#[cfg_attr(not(test), allow(clippy::unwrap_used))]
impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.at < n {
            return Err(WireError::Malformed("truncated field"));
        }
        let slice = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn string(&mut self) -> Result<String, WireError> {
        String::from_utf8(self.bytes()?).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    /// Reads a collection length and sanity-bounds it against the bytes
    /// remaining (each element needs at least `min_element` bytes), so a
    /// garbage count cannot drive a huge allocation.
    fn len(&mut self, min_element: usize) -> Result<usize, WireError> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_element.max(1)) > self.buf.len() - self.at {
            return Err(WireError::Malformed("collection longer than its frame"));
        }
        Ok(len)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after the message"))
        }
    }

    fn cache_stats(&mut self) -> Result<CacheStats, WireError> {
        Ok(CacheStats {
            read_hits: self.u64()?,
            read_misses: self.u64()?,
            write_hits: self.u64()?,
            write_misses: self.u64()?,
            evictions: self.u64()?,
            bypasses: self.u64()?,
        })
    }

    fn metrics(&mut self) -> Result<MetricsSnapshot, WireError> {
        let mut metrics = MetricsSnapshot::default();
        for _ in 0..self.len(12)? {
            let name = self.string()?;
            let value = self.u64()?;
            metrics.counters.insert(name, value);
        }
        for _ in 0..self.len(20)? {
            let name = self.string()?;
            let value = self.i64()?;
            let peak = self.i64()?;
            metrics.gauges.insert(name, GaugeSnapshot { value, peak });
        }
        for _ in 0..self.len(32)? {
            let name = self.string()?;
            let count = self.u64()?;
            let sum = self.u64()?;
            let max = self.u64()?;
            let mut buckets = Vec::new();
            for _ in 0..self.len(12)? {
                let index = self.u32()? as usize;
                let bucket_count = self.u64()?;
                if index >= clic_obs::hist::BUCKET_COUNT {
                    return Err(WireError::Malformed("histogram bucket out of range"));
                }
                if buckets.len() <= index {
                    buckets.resize(index + 1, 0);
                }
                buckets[index] = bucket_count;
            }
            metrics.histograms.insert(
                name,
                HistogramSnapshot::from_parts(buckets, count, sum, max),
            );
        }
        Ok(metrics)
    }

    fn stats_snapshot(&mut self) -> Result<StatsSnapshot, WireError> {
        let policy = self.string()?;
        let capacity = self.u64()? as usize;
        let stats = self.cache_stats()?;
        let mut per_client = std::collections::BTreeMap::new();
        for _ in 0..self.len(50)? {
            let client = ClientId(self.u16()?);
            per_client.insert(client, self.cache_stats()?);
        }
        let metrics = self.metrics()?;
        Ok(StatsSnapshot {
            result: SimulationResult {
                policy,
                capacity,
                stats,
                per_client,
            },
            metrics,
        })
    }
}

fn write_hint_from(byte: u8) -> Result<Option<WriteHint>, WireError> {
    match byte {
        0 => Ok(None),
        1 => Ok(Some(WriteHint::Replacement)),
        2 => Ok(Some(WriteHint::Recovery)),
        3 => Ok(Some(WriteHint::Synchronous)),
        _ => Err(WireError::Malformed("invalid write-hint encoding")),
    }
}

/// Decodes one request frame payload (as returned by [`take_frame`]) into
/// its correlation id and operation.
pub fn decode_request(payload: &[u8]) -> Result<(u64, ServerRequest), WireError> {
    let mut r = Reader::new(payload);
    let opcode = r.u8()?;
    let seq = r.u64()?;
    let op = match opcode {
        OP_GET => {
            let client = ClientId(r.u16()?);
            let page = PageId(r.u64()?);
            let hint = HintSetId(r.u32()?);
            let flags = r.u8()?;
            if flags > 1 {
                return Err(WireError::Malformed("invalid get flags"));
            }
            ServerRequest::Get {
                client,
                page,
                hint,
                prefetch: flags == 1,
            }
        }
        OP_PUT => {
            let client = ClientId(r.u16()?);
            let page = PageId(r.u64()?);
            let hint = HintSetId(r.u32()?);
            let write_hint = write_hint_from(r.u8()?)?;
            let data = match r.u8()? {
                0 => None,
                1 => Some(r.bytes()?),
                _ => return Err(WireError::Malformed("invalid put payload marker")),
            };
            ServerRequest::Put {
                client,
                page,
                hint,
                write_hint,
                data,
            }
        }
        OP_DELETE => ServerRequest::Delete {
            page: PageId(r.u64()?),
        },
        OP_STATS => ServerRequest::Stats,
        other => return Err(WireError::BadOpcode(other)),
    };
    r.finish()?;
    Ok((seq, op))
}

/// Decodes one response frame payload (as returned by [`take_frame`]) into
/// its correlation id and response.
pub fn decode_response(payload: &[u8]) -> Result<(u64, ServerResponse), WireError> {
    let mut r = Reader::new(payload);
    let opcode = r.u8()?;
    let seq = r.u64()?;
    let response = match opcode {
        OP_GET_RESP => {
            let flags = r.u8()?;
            if flags > 3 {
                return Err(WireError::Malformed("invalid get-response flags"));
            }
            let data = if flags & 2 != 0 {
                Some(r.bytes()?)
            } else {
                None
            };
            ServerResponse::Get {
                hit: flags & 1 != 0,
                data,
            }
        }
        OP_PUT_RESP => ServerResponse::Put {
            hit: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("invalid hit flag")),
            },
        },
        OP_DELETE_RESP => ServerResponse::Delete {
            existed: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(WireError::Malformed("invalid existed flag")),
            },
        },
        OP_STATS_RESP => ServerResponse::Stats(Box::new(r.stats_snapshot()?)),
        OP_ERR => ServerResponse::Error {
            code: ErrorCode::from_u8(r.u8()?).ok_or(WireError::Malformed("unknown error code"))?,
        },
        other => return Err(WireError::BadOpcode(other)),
    };
    r.finish()?;
    Ok((seq, response))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request_frame(op: &ServerRequest, seq: u64) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request(seq, op, &mut out);
        out
    }

    #[test]
    fn requests_round_trip() {
        let ops = [
            ServerRequest::Get {
                client: ClientId(3),
                page: PageId(0xdead_beef),
                hint: HintSetId(17),
                prefetch: true,
            },
            ServerRequest::Put {
                client: ClientId(9),
                page: PageId(42),
                hint: HintSetId(0),
                write_hint: Some(WriteHint::Recovery),
                data: Some(vec![0xab; 512]),
            },
            ServerRequest::Put {
                client: ClientId(0),
                page: PageId(7),
                hint: HintSetId(1),
                write_hint: None,
                data: None,
            },
            ServerRequest::Delete { page: PageId(5) },
            ServerRequest::Stats,
        ];
        let mut stream = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            encode_request(i as u64 * 11, op, &mut stream);
        }
        let mut at = 0usize;
        for (i, op) in ops.iter().enumerate() {
            let (consumed, payload) = take_frame(&stream[at..]).unwrap().expect("complete frame");
            let (seq, decoded) = decode_request(payload).unwrap();
            assert_eq!(seq, i as u64 * 11);
            assert_eq!(&decoded, op);
            at += consumed;
        }
        assert_eq!(at, stream.len());
    }

    #[test]
    fn incomplete_frames_ask_for_more_bytes() {
        let full = request_frame(&ServerRequest::Stats, 1);
        for cut in 0..full.len() {
            assert_eq!(take_frame(&full[..cut]).unwrap(), None, "cut at {cut}");
        }
        assert!(take_frame(&full).unwrap().is_some());
    }

    #[test]
    fn frame_buf_skips_with_a_cursor_and_compacts_past_the_halfway_mark() {
        let frame = request_frame(&ServerRequest::Stats, 1);
        let mut buf = FrameBuf::new();
        for _ in 0..4 {
            buf.extend(&frame);
        }
        // One frame out of four consumed: under half, so appending moves
        // nothing.
        assert!(buf.next_frame().unwrap().is_some());
        buf.extend(&frame[..2]);
        assert_eq!((buf.at, buf.len()), (frame.len(), 3 * frame.len() + 2));
        // Three of four consumed: over half, so the next append compacts.
        assert!(buf.next_frame().unwrap().is_some());
        assert!(buf.next_frame().unwrap().is_some());
        buf.extend(&frame[2..]);
        assert_eq!((buf.at, buf.len()), (0, 2 * frame.len()));
        assert!(buf.next_frame().unwrap().is_some());
        assert!(buf.next_frame().unwrap().is_some());
        assert_eq!(buf.next_frame().unwrap(), None);
        // Fully consumed: the next append starts from an empty buffer.
        buf.extend(&frame[..3]);
        assert_eq!((buf.at, buf.buf.len()), (0, 3));
        assert_eq!(buf.next_frame().unwrap(), None, "split length prefix");
    }

    #[test]
    fn oversized_and_undersized_prefixes_are_rejected_immediately() {
        let mut buf = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0; 16]);
        assert_eq!(
            take_frame(&buf),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );
        let buf = 4u32.to_le_bytes().to_vec();
        assert!(matches!(take_frame(&buf), Err(WireError::Malformed(_))));
    }

    #[test]
    fn garbage_opcodes_and_truncated_bodies_do_not_panic() {
        let mut frame = request_frame(&ServerRequest::Stats, 7);
        frame[4] = 0x7f; // unknown opcode
        let (_, payload) = take_frame(&frame).unwrap().unwrap();
        assert_eq!(decode_request(payload), Err(WireError::BadOpcode(0x7f)));

        // A Get frame whose body is cut short inside the page id.
        let full = request_frame(
            &ServerRequest::Get {
                client: ClientId(1),
                page: PageId(2),
                hint: HintSetId(3),
                prefetch: false,
            },
            1,
        );
        let mut cut = full[..full.len() - 3].to_vec();
        let len = (cut.len() - 4) as u32;
        cut[..4].copy_from_slice(&len.to_le_bytes());
        let (_, payload) = take_frame(&cut).unwrap().unwrap();
        assert!(matches!(
            decode_request(payload),
            Err(WireError::Malformed(_))
        ));

        // Trailing bytes after a well-formed body are rejected too.
        let mut padded = full.clone();
        padded.push(0);
        let len = (padded.len() - 4) as u32;
        padded[..4].copy_from_slice(&len.to_le_bytes());
        let (_, payload) = take_frame(&padded).unwrap().unwrap();
        assert_eq!(
            decode_request(payload),
            Err(WireError::Malformed("trailing bytes after the message"))
        );
    }

    #[test]
    fn stats_snapshot_round_trips_with_histograms() {
        use clic_obs::{LatencyHistogram, MetricsRegistry};
        let registry = MetricsRegistry::new();
        registry.counter("store.disk_reads").add(41);
        let gauge = registry.gauge("server.queue_depth");
        gauge.add(5);
        gauge.add(-2);
        let hist = LatencyHistogram::new();
        for v in [1u64, 1, 63, 64, 100_000, 9_999_999] {
            hist.record(v);
        }
        registry
            .histogram("server.batch_service_us")
            .merge_from(&hist);
        let mut per_client = std::collections::BTreeMap::new();
        per_client.insert(
            ClientId(2),
            CacheStats {
                read_hits: 1,
                read_misses: 2,
                write_hits: 3,
                write_misses: 4,
                evictions: 5,
                bypasses: 6,
            },
        );
        let snapshot = StatsSnapshot {
            result: SimulationResult {
                policy: "clic".to_string(),
                capacity: 4096,
                stats: CacheStats {
                    read_hits: 10,
                    ..CacheStats::default()
                },
                per_client,
            },
            metrics: registry.snapshot(),
        };
        let mut out = Vec::new();
        encode_response(
            99,
            &ServerResponse::Stats(Box::new(snapshot.clone())),
            &mut out,
        );
        let (consumed, payload) = take_frame(&out).unwrap().unwrap();
        assert_eq!(consumed, out.len());
        let (seq, decoded) = decode_response(payload).unwrap();
        assert_eq!(seq, 99);
        let decoded = match decoded {
            ServerResponse::Stats(s) => s,
            other => panic!("expected stats, got {other:?}"),
        };
        assert_eq!(decoded.result, snapshot.result);
        assert_eq!(decoded.metrics.counter("store.disk_reads"), 41);
        assert_eq!(decoded.metrics.gauge("server.queue_depth").peak, 5);
        let h = decoded.metrics.histogram("server.batch_service_us");
        let original = snapshot.metrics.histogram("server.batch_service_us");
        assert_eq!(h.count(), original.count());
        assert_eq!(h.sum(), original.sum());
        assert_eq!(h.max(), original.max());
        assert_eq!(h.p50(), original.p50());
        assert_eq!(h.p999(), original.p999());
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            ServerResponse::Get {
                hit: true,
                data: Some(vec![7; 64]),
            },
            ServerResponse::Get {
                hit: false,
                data: None,
            },
            ServerResponse::Put { hit: true },
            ServerResponse::Delete { existed: false },
            ServerResponse::Error {
                code: ErrorCode::Shutdown,
            },
            ServerResponse::Error {
                code: ErrorCode::Corrupt,
            },
        ];
        for (i, response) in responses.iter().enumerate() {
            let mut out = Vec::new();
            encode_response(i as u64, response, &mut out);
            let (_, payload) = take_frame(&out).unwrap().unwrap();
            let (seq, decoded) = decode_response(payload).unwrap();
            assert_eq!(seq, i as u64);
            assert_eq!(decoded.hit(), response.hit());
            assert_eq!(decoded.data(), response.data());
            assert_eq!(decoded.existed(), response.existed());
            assert_eq!(decoded.error_code(), response.error_code());
        }
    }

    #[test]
    fn unknown_error_codes_are_rejected() {
        let mut out = Vec::new();
        encode_response(
            5,
            &ServerResponse::Error {
                code: ErrorCode::Io,
            },
            &mut out,
        );
        let code_at = out.len() - 1;
        for bad in [0u8, 3, 6, 0xff] {
            out[code_at] = bad;
            let (_, payload) = take_frame(&out).unwrap().unwrap();
            assert!(matches!(
                decode_response(payload),
                Err(WireError::Malformed("unknown error code"))
            ));
        }
    }
}
