//! Helpers shared by the concurrency integration tests.

use std::sync::Barrier;

use clic::prelude::*;

/// Drives `server` with one client thread per trace and returns how many
/// requests got a data response.
///
/// The clients go in rounds of one 64-request batch each (a `Barrier`),
/// like the offline round-robin interleave: unpaced threads drift apart by
/// however far the scheduler lets one run ahead, and a client that runs
/// ahead has the cache to itself, which moves the hit ratio by more than
/// the tests' 10 % bands allow. With `payload_page_size`, every Put carries
/// its page's payload of that size, so a read-back can check the bytes.
pub fn submit_in_rounds(
    server: &Server,
    traces: &[Trace],
    payload_page_size: Option<usize>,
) -> u64 {
    let round = Barrier::new(traces.len());
    std::thread::scope(|scope| {
        let clients: Vec<_> = traces
            .iter()
            .map(|trace| {
                let round = &round;
                scope.spawn(move || {
                    let mut answered = 0;
                    for chunk in trace.requests.chunks(64) {
                        let batch: Vec<ServerRequest> = chunk
                            .iter()
                            .map(|req| {
                                let op = ServerRequest::from_request(req);
                                match payload_page_size {
                                    Some(size) if req.is_write() => {
                                        op.with_payload(page_payload(req.page, size))
                                    }
                                    _ => op,
                                }
                            })
                            .collect();
                        let responses = server.submit(&batch);
                        answered += responses.iter().filter(|r| r.hit().is_some()).count() as u64;
                        round.wait();
                    }
                    answered
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client thread panicked"))
            .sum()
    })
}
