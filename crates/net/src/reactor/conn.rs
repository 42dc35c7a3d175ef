//! Per-connection state for the reactor: incremental frame assembly on
//! the read side, a shared write queue on the response side, and the
//! wake plumbing that lets engine-shard callbacks hand completed
//! responses back to the owning event loop.
//!
//! Reads are nonblocking and arrive in arbitrary chunks, so the
//! [`FrameAssembler`] buffers bytes and runs the codec's header
//! validation (magic → version → kind → payload cap) as soon as a full
//! header is buffered — a malformed header is rejected before its
//! payload ever arrives, with the same typed [`WireError`]s that
//! `read_frame` produces.

use super::sys::EventFd;
use crate::codec::{parse_header, RawFrame, WireError, HEADER_LEN};
use crate::protocol::Response;
#[cfg(test)]
use crate::{codec::MAX_PAYLOAD, protocol::WIRE_VERSION};
use parking_lot::Mutex;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Reassembles length-prefixed frames from arbitrary read chunks.
///
/// Bytes accumulate in an internal buffer; [`FrameAssembler::next_frame`]
/// yields complete frames one at a time and surfaces header violations
/// immediately (before the payload arrives). The buffer compacts lazily
/// so per-frame cost stays amortized O(frame size).
#[derive(Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted once it outgrows the tail).
    pos: usize,
}

impl FrameAssembler {
    /// A fresh, empty assembler.
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Append a chunk read off the socket.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed.
    #[cfg(test)]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn compact(&mut self) {
        // Compact when the dead prefix dominates, so extend() appends
        // into mostly-live storage without copying on every frame.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Pull the next complete frame out of the buffer.
    ///
    /// `Ok(Some(frame))` — a full frame was consumed; call again, more
    /// may be buffered. `Ok(None)` — the buffer holds only a partial
    /// frame (or nothing). `Err` — the byte stream is not a valid frame
    /// sequence; the connection is desynchronized beyond recovery.
    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, WireError> {
        let avail = &self.buf[self.pos..];
        let Some(header) = avail.first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let header = parse_header(header)?;
        let total = HEADER_LEN + header.len;
        if avail.len() < total {
            return Ok(None);
        }
        let payload = avail[HEADER_LEN..total].to_vec();
        self.pos += total;
        self.compact();
        Ok(Some(RawFrame {
            version: header.version,
            kind: header.kind,
            id: header.id,
            payload,
        }))
    }
}

/// The wakeup channel from engine-shard callbacks back to one reactor
/// shard: completed-response tokens queue here and the eventfd makes
/// the shard's `epoll_wait` return. Push-then-wake ordering means a
/// token is always visible by the time the wakeup is observed — no
/// lost completions.
pub struct WakeQueue {
    pending: Mutex<Vec<u64>>,
    efd: EventFd,
}

impl WakeQueue {
    /// Build the queue around a fresh eventfd.
    pub fn new() -> std::io::Result<Self> {
        Ok(WakeQueue {
            pending: Mutex::new(Vec::new()),
            efd: EventFd::new()?,
        })
    }

    /// The fd the owning shard registers for `EPOLLIN`.
    pub fn fd(&self) -> std::os::unix::io::RawFd {
        self.efd.as_raw_fd()
    }

    /// Queue `token` for write service and wake the shard. Only the
    /// empty→non-empty transition writes the eventfd: a non-empty queue
    /// already has a wakeup in flight (the check shares the lock with
    /// [`WakeQueue::take`], so it cannot race a concurrent drain), and
    /// skipping the redundant `write(2)` lets a burst of engine
    /// completions land in one reactor cycle instead of one cycle each.
    pub fn notify(&self, token: u64) {
        let was_empty = {
            let mut pending = self.pending.lock();
            let was_empty = pending.is_empty();
            pending.push(token);
            was_empty
        };
        if was_empty {
            self.efd.wake();
        }
    }

    /// Drain all queued tokens and reset the eventfd.
    pub fn take(&self) -> Vec<u64> {
        self.efd.drain();
        std::mem::take(&mut *self.pending.lock())
    }
}

/// Connection state reachable from outside the event loop — engine
/// callbacks hold an `Arc<ConnShared>` and append encoded responses
/// from whatever shard-worker thread resolves the request.
pub struct ConnShared {
    /// Epoll token of the connection within its shard.
    pub token: u64,
    /// Encoded-but-unsent response bytes.
    out: Mutex<Vec<u8>>,
    /// Tracked requests currently inside the engine for this peer.
    pub inflight: AtomicUsize,
    /// Set once the event loop tore the connection down; late callbacks
    /// drop their responses instead of growing a dead buffer.
    closed: AtomicBool,
    wake: Arc<WakeQueue>,
}

impl ConnShared {
    /// Fresh state for a connection registered under `token`.
    pub fn new(token: u64, wake: Arc<WakeQueue>) -> Arc<Self> {
        Arc::new(ConnShared {
            token,
            out: Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            wake,
        })
    }

    /// Encode `resp` in the wire version its request arrived with and
    /// queue it for the event loop to flush. Safe from any thread.
    pub fn respond(&self, version: u8, id: u64, resp: &Response) {
        if self.closed.load(Ordering::Acquire) {
            return;
        }
        let bytes = crate::codec::encode_response_v(version, id, resp);
        self.out.lock().extend_from_slice(&bytes);
        self.wake.notify(self.token);
    }

    /// Mark the connection dead; subsequent [`ConnShared::respond`]
    /// calls become no-ops.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.out.lock().clear();
    }

    /// Move all queued bytes out for writing. Returns `None` when the
    /// queue is empty.
    pub fn take_pending(&self) -> Option<Vec<u8>> {
        let mut out = self.out.lock();
        if out.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut *out))
        }
    }

    /// Re-queue the unwritten tail after a short write, preserving
    /// order ahead of anything queued concurrently.
    pub fn requeue_front(&self, tail: Vec<u8>) {
        let mut out = self.out.lock();
        if out.is_empty() {
            *out = tail;
        } else {
            let mut merged = tail;
            merged.extend_from_slice(&out);
            *out = merged;
        }
    }

    /// Whether any bytes await flushing.
    pub fn has_pending(&self) -> bool {
        !self.out.lock().is_empty()
    }
}

/// A connection owned by one reactor shard's event loop.
pub struct Connection {
    /// The nonblocking socket.
    pub stream: TcpStream,
    /// Read-side reassembly buffer.
    pub assembler: FrameAssembler,
    /// State shared with engine callbacks.
    pub shared: Arc<ConnShared>,
    /// Interest bits currently registered with the shard's epoll.
    pub interest: u32,
    /// Set after a protocol error: flush what is queued, then drop.
    pub closing: bool,
    /// Peer hung up (EOF or EPOLLHUP); teardown once in-flight work
    /// resolves.
    pub eof: bool,
}

impl Connection {
    /// Wrap an accepted nonblocking stream.
    pub fn new(stream: TcpStream, shared: Arc<ConnShared>, interest: u32) -> Self {
        Connection {
            stream,
            assembler: FrameAssembler::new(),
            shared,
            interest,
            closing: false,
            eof: false,
        }
    }

    /// True when the connection can be torn down: it is closing or the
    /// peer is gone, nothing is queued to write, and no tracked request
    /// still holds a callback that would write here.
    pub fn ready_to_drop(&self) -> bool {
        (self.closing || self.eof)
            && !self.shared.has_pending()
            && self.shared.inflight.load(Ordering::Acquire) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_request;
    use crate::protocol::Request;

    fn ping_bytes(id: u64) -> Vec<u8> {
        encode_request(id, &Request::Ping)
    }

    #[test]
    fn assembles_frames_fed_byte_by_byte() {
        let bytes = ping_bytes(42);
        let mut asm = FrameAssembler::new();
        for (i, b) in bytes.iter().enumerate() {
            asm.extend(&[*b]);
            let got = asm.next_frame().expect("valid stream");
            if i + 1 < bytes.len() {
                assert!(got.is_none(), "no frame before byte {}", i + 1);
            } else {
                let frame = got.expect("complete at the last byte");
                assert_eq!(frame.id, 42);
            }
        }
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn splits_coalesced_frames_and_keeps_partial_tail() {
        let mut chunk = ping_bytes(1);
        chunk.extend_from_slice(&ping_bytes(2));
        let third = ping_bytes(3);
        chunk.extend_from_slice(&third[..5]);
        let mut asm = FrameAssembler::new();
        asm.extend(&chunk);
        assert_eq!(asm.next_frame().unwrap().unwrap().id, 1);
        assert_eq!(asm.next_frame().unwrap().unwrap().id, 2);
        assert!(asm.next_frame().unwrap().is_none());
        asm.extend(&third[5..]);
        assert_eq!(asm.next_frame().unwrap().unwrap().id, 3);
    }

    #[test]
    fn header_violations_surface_before_payload() {
        // Bad magic.
        let mut asm = FrameAssembler::new();
        let mut bytes = ping_bytes(1);
        bytes[0] = 0xFF;
        asm.extend(&bytes[..HEADER_LEN]);
        assert!(matches!(asm.next_frame(), Err(WireError::BadMagic(_))));
        // Unsupported version.
        let mut asm = FrameAssembler::new();
        let mut bytes = ping_bytes(1);
        bytes[2] = 77;
        asm.extend(&bytes);
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::UnsupportedVersion(77))
        ));
        // Unknown kind.
        let mut asm = FrameAssembler::new();
        let mut bytes = ping_bytes(1);
        bytes[3] = 0x55;
        asm.extend(&bytes);
        assert!(matches!(
            asm.next_frame(),
            Err(WireError::UnknownKind(0x55))
        ));
        // Oversized payload: rejected from the header alone, with no
        // payload bytes buffered at all.
        let mut asm = FrameAssembler::new();
        let mut bytes = ping_bytes(1);
        bytes[12..16].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        asm.extend(&bytes[..HEADER_LEN]);
        assert!(matches!(asm.next_frame(), Err(WireError::Oversized(_))));
    }

    #[test]
    fn compaction_preserves_stream_position() {
        let mut asm = FrameAssembler::new();
        // Push enough frames to trigger the 4096-byte compaction
        // threshold several times over.
        for round in 0u64..2000 {
            asm.extend(&ping_bytes(round));
            let frame = asm.next_frame().unwrap().expect("one in, one out");
            assert_eq!(frame.id, round);
        }
        assert_eq!(asm.pending(), 0);
    }

    #[test]
    fn write_queue_roundtrip_and_requeue_order() {
        let wake = Arc::new(WakeQueue::new().unwrap());
        let shared = ConnShared::new(9, Arc::clone(&wake));
        shared.respond(WIRE_VERSION, 1, &Response::Pong);
        shared.respond(WIRE_VERSION, 2, &Response::Ok);
        assert_eq!(wake.take(), vec![9, 9]);
        let pending = shared.take_pending().expect("two responses queued");
        // Simulate a short write of 3 bytes: requeue the tail, then a
        // third response lands behind it.
        shared.requeue_front(pending[3..].to_vec());
        shared.respond(WIRE_VERSION, 3, &Response::Pong);
        let rest = shared.take_pending().expect("tail + third");
        let mut full = pending[..3].to_vec();
        full.extend_from_slice(&rest);
        // The reassembled stream parses as the three frames in order.
        let mut asm = FrameAssembler::new();
        asm.extend(&full);
        let mut ids = Vec::new();
        while let Some(frame) = asm.next_frame().unwrap() {
            ids.push(frame.id);
        }
        assert_eq!(ids, vec![1, 2, 3]);
        // After close, responds are dropped.
        shared.close();
        shared.respond(WIRE_VERSION, 4, &Response::Pong);
        assert!(shared.take_pending().is_none());
    }
}
