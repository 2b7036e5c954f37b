//! Property-based tests for the wire codec.
//!
//! Two families of properties:
//!
//! * **Round-trip**: any batch of requests (or responses) encodes to one
//!   byte stream that decodes back to exactly the same messages in order,
//!   with the same correlation ids — and keeps doing so when the stream is
//!   delivered in arbitrary fragments, the way TCP actually hands bytes
//!   over.
//! * **Robustness**: arbitrary byte garbage, truncations of valid frames,
//!   and bit-flipped prefixes never panic the decoder; they produce either
//!   "need more bytes" or a typed [`WireError`].

use proptest::collection::vec;
use proptest::prelude::*;

use cache_sim::{ClientId, HintSetId, PageId, WriteHint};
use clic_server::wire::{
    self, decode_request, decode_response, encode_request, encode_response, take_frame, FrameBuf,
    WireError,
};
use clic_server::{ErrorCode, ServerRequest, ServerResponse};

/// Compact generator-side description of one request.
#[derive(Debug, Clone)]
struct GenOp {
    kind: u8,
    client: u16,
    page: u64,
    hint: u32,
    flag: bool,
    write_hint: u8,
    data: Option<Vec<u8>>,
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    (
        0u8..4,
        any::<u16>(),
        any::<u64>(),
        any::<u32>(),
        any::<bool>(),
        0u8..4,
        proptest::option::of(vec(any::<u8>(), 0..64)),
    )
        .prop_map(|(kind, client, page, hint, flag, write_hint, data)| GenOp {
            kind,
            client,
            page,
            hint,
            flag,
            write_hint,
            data,
        })
}

fn request_from(op: &GenOp) -> ServerRequest {
    match op.kind {
        0 => ServerRequest::Get {
            client: ClientId(op.client),
            page: PageId(op.page),
            hint: HintSetId(op.hint),
            prefetch: op.flag,
        },
        1 => ServerRequest::Put {
            client: ClientId(op.client),
            page: PageId(op.page),
            hint: HintSetId(op.hint),
            write_hint: match op.write_hint {
                0 => None,
                1 => Some(WriteHint::Replacement),
                2 => Some(WriteHint::Recovery),
                _ => Some(WriteHint::Synchronous),
            },
            data: op.data.clone(),
        },
        2 => ServerRequest::Delete {
            page: PageId(op.page),
        },
        _ => ServerRequest::Stats,
    }
}

fn response_from(op: &GenOp) -> ServerResponse {
    match op.kind {
        0 => ServerResponse::Get {
            hit: op.flag,
            data: op.data.clone(),
        },
        1 => ServerResponse::Put { hit: op.flag },
        2 => ServerResponse::Delete { existed: op.flag },
        // Mix typed error frames into every response batch: the error
        // path rides the same framer and must round-trip beside data.
        _ => ServerResponse::Error {
            code: [ErrorCode::Io, ErrorCode::Corrupt][(op.page as usize) % 2],
        },
    }
}

/// Asserts two responses are structurally equal (the type has accessors,
/// not `PartialEq`, because stats snapshots carry histograms).
fn assert_response_eq(a: &ServerResponse, b: &ServerResponse) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.hit(), b.hit());
    prop_assert_eq!(a.data(), b.data());
    prop_assert_eq!(a.existed(), b.existed());
    prop_assert_eq!(a.error_code(), b.error_code());
    prop_assert_eq!(a.stats().is_some(), b.stats().is_some());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any request batch round-trips through one contiguous byte stream.
    #[test]
    fn request_batches_round_trip(ops in vec(gen_op(), 1..40)) {
        let requests: Vec<ServerRequest> = ops.iter().map(request_from).collect();
        let mut stream = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            encode_request(i as u64 ^ 0x5a5a, request, &mut stream);
        }
        let mut at = 0usize;
        for (i, request) in requests.iter().enumerate() {
            let (consumed, payload) = take_frame(&stream[at..])
                .expect("valid stream")
                .expect("complete frame");
            let (seq, decoded) = decode_request(payload).expect("valid frame");
            prop_assert_eq!(seq, i as u64 ^ 0x5a5a);
            prop_assert_eq!(&decoded, request);
            at += consumed;
        }
        prop_assert_eq!(at, stream.len());
    }

    /// Round-trips survive arbitrary fragmentation: feeding the stream to
    /// the framer in random-sized chunks yields the same messages.
    #[test]
    fn request_streams_survive_fragmentation(
        ops in vec(gen_op(), 1..20),
        cuts in vec(1usize..64, 1..64),
    ) {
        let requests: Vec<ServerRequest> = ops.iter().map(request_from).collect();
        let mut stream = Vec::new();
        for (i, request) in requests.iter().enumerate() {
            encode_request(i as u64, request, &mut stream);
        }
        // Re-deliver the stream in the generated chunk sizes (cycled).
        let mut buf: Vec<u8> = Vec::new();
        let mut decoded: Vec<(u64, ServerRequest)> = Vec::new();
        let mut fed = 0usize;
        let mut cut_idx = 0usize;
        while fed < stream.len() || !buf.is_empty() {
            if fed < stream.len() {
                let take = cuts[cut_idx % cuts.len()].min(stream.len() - fed);
                cut_idx += 1;
                buf.extend_from_slice(&stream[fed..fed + take]);
                fed += take;
            }
            while let Some((consumed, payload)) = take_frame(&buf).expect("valid stream") {
                decoded.push(decode_request(payload).expect("valid frame"));
                buf.drain(..consumed);
            }
            if fed == stream.len() && take_frame(&buf).expect("valid stream").is_none() {
                break;
            }
        }
        prop_assert_eq!(decoded.len(), requests.len());
        for (i, (seq, request)) in decoded.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64);
            prop_assert_eq!(request, &requests[i]);
        }

        // The same stream through the connection-side `FrameBuf`, cut
        // first inside the leading length prefix and then at the same
        // generated points: identical frames, and every byte consumed.
        // Draining after each delivery moves the cursor past the halfway
        // mark, so later deliveries compact the buffer mid-stream.
        let mut frames = FrameBuf::new();
        let mut reassembled: Vec<(u64, ServerRequest)> = Vec::new();
        let mut sizes = std::iter::once(2).chain(cuts.iter().copied().cycle());
        let mut fed = 0usize;
        while fed < stream.len() {
            let take = sizes.next().expect("endless").min(stream.len() - fed);
            frames.extend(&stream[fed..fed + take]);
            fed += take;
            while let Some((consumed, payload)) = frames.next_frame().expect("valid stream") {
                prop_assert_eq!(consumed, payload.len() + 4);
                reassembled.push(decode_request(payload).expect("valid frame"));
            }
        }
        prop_assert!(frames.is_empty(), "{} bytes left over", frames.len());
        prop_assert_eq!(reassembled, decoded);
    }

    /// Any data-response batch round-trips.
    #[test]
    fn response_batches_round_trip(ops in vec(gen_op(), 1..40)) {
        let responses: Vec<ServerResponse> = ops.iter().map(response_from).collect();
        let mut stream = Vec::new();
        for (i, response) in responses.iter().enumerate() {
            encode_response(i as u64, response, &mut stream);
        }
        let mut at = 0usize;
        for (i, response) in responses.iter().enumerate() {
            let (consumed, payload) = take_frame(&stream[at..])
                .expect("valid stream")
                .expect("complete frame");
            let (seq, decoded) = decode_response(payload).expect("valid frame");
            prop_assert_eq!(seq, i as u64);
            assert_response_eq(&decoded, response)?;
            at += consumed;
        }
        prop_assert_eq!(at, stream.len());
    }

    /// `OP_ERR` frames round-trip every defined code under any seq, and a
    /// patched-in unknown code byte fails closed as a malformed frame
    /// rather than decoding to some other error.
    #[test]
    fn error_frames_round_trip_and_unknown_codes_fail_closed(
        seq in any::<u64>(),
        pick in 0usize..2,
        bad_code in 6u8..=u8::MAX,
    ) {
        let code = [ErrorCode::Io, ErrorCode::Corrupt][pick];
        let mut frame = Vec::new();
        encode_response(seq, &ServerResponse::Error { code }, &mut frame);
        let (consumed, payload) = take_frame(&frame)
            .expect("valid stream")
            .expect("complete frame");
        prop_assert_eq!(consumed, frame.len());
        let (decoded_seq, decoded) = decode_response(payload).expect("valid frame");
        prop_assert_eq!(decoded_seq, seq);
        prop_assert_eq!(decoded.error_code(), Some(code));
        // The code byte is the last body byte; replace it with an
        // out-of-range value (0, 3, 4 and 5 are also unassigned) and decode
        // must reject.
        for bad in [0u8, 3, 4, 5, bad_code] {
            let mut patched = frame.clone();
            let last = patched.len() - 1;
            patched[last] = bad;
            let (_, payload) = take_frame(&patched)
                .expect("valid stream")
                .expect("complete frame");
            prop_assert!(
                matches!(decode_response(payload), Err(WireError::Malformed(_))),
                "unknown code {bad} must fail closed"
            );
        }
    }

    /// Arbitrary garbage never panics the framer or the decoders: every
    /// outcome is `None` (incomplete) or a typed error.
    #[test]
    fn garbage_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        match take_frame(&bytes) {
            Ok(Some((consumed, payload))) => {
                prop_assert!(consumed <= bytes.len());
                // Whatever these bytes decode to, it must not panic.
                let _ = decode_request(payload);
                let _ = decode_response(payload);
            }
            Ok(None) => {}
            Err(WireError::Oversized(len)) => prop_assert!(len > wire::MAX_FRAME_LEN),
            Err(WireError::Malformed(_)) | Err(WireError::BadOpcode(_)) => {}
        }
    }

    /// Every strict prefix of a valid frame asks for more bytes; every
    /// truncation of its *payload* (with a fixed-up length prefix) decodes
    /// to an error, never a bogus message or a panic.
    #[test]
    fn truncations_fail_closed(op in gen_op(), cut_permille in 0usize..1000) {
        let request = request_from(&op);
        let mut frame = Vec::new();
        encode_request(7, &request, &mut frame);
        // Prefixes are just incomplete.
        let cut = frame.len() * cut_permille / 1000;
        prop_assert!(take_frame(&frame[..cut]).expect("prefix is incomplete").is_none());
        // Truncated payload with a corrected length prefix: must error
        // (except cutting nothing, which stays valid).
        if cut > 4 && cut < frame.len() {
            let mut short = frame[..cut].to_vec();
            let len = (cut - 4) as u32;
            short[..4].copy_from_slice(&len.to_le_bytes());
            match take_frame(&short) {
                Ok(Some((_, payload))) => prop_assert!(decode_request(payload).is_err()),
                Ok(None) => prop_assert!(false, "frame was complete by construction"),
                Err(_) => {} // shorter than the 9-byte header: also fine
            }
        }
    }
}
