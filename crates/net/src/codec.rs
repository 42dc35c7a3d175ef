//! Binary framing: a compact length-prefixed encoding with explicit
//! versioning and strict malformed-frame rejection.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x57 0x4E ("WN")
//! 2       1     version (MIN_WIRE_VERSION ..= WIRE_VERSION)
//! 3       1     kind    (request 0x01–0x06, response 0x81–0x87)
//! 4       8     request id
//! 12      4     payload length (≤ MAX_PAYLOAD)
//! 16      …     payload
//! ```
//!
//! Version 2 adds `BATCH_CONNECT` (0x06) and its `BATCH_REPLY` (0x87);
//! both are rejected as malformed when carried in a v1 frame. Readers
//! accept every version in the supported range and surface the frame's
//! version so servers can mirror it in their replies.
//!
//! Decoding never panics: every malformed input — wrong magic, unknown
//! version or kind, oversized or truncated payload, trailing bytes,
//! structurally invalid connections — comes back as a typed
//! [`WireError`] the server answers with a `ProtocolError` frame.

use crate::protocol::{RejectReason, Request, Response, MIN_WIRE_VERSION, WIRE_VERSION};
use std::io::{self, Read, Write};
use wdm_core::{Endpoint, MulticastConnection};
use wdm_runtime::MetricsSnapshot;

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = [0x57, 0x4E];

/// Upper bound on a frame payload. Generous for any real request (a
/// full-fanout multicast on a large network is a few KiB) while bounding
/// what a broken or hostile peer can make the server allocate.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// Frame header size in bytes.
pub const HEADER_LEN: usize = 16;

mod kind {
    pub const CONNECT: u8 = 0x01;
    pub const DISCONNECT: u8 = 0x02;
    pub const SNAPSHOT: u8 = 0x03;
    pub const DRAIN: u8 = 0x04;
    pub const PING: u8 = 0x05;
    pub const BATCH_CONNECT: u8 = 0x06;
    pub const OK: u8 = 0x81;
    pub const REJECTED: u8 = 0x82;
    pub const SNAPSHOT_DATA: u8 = 0x83;
    pub const DRAIN_REPORT: u8 = 0x84;
    pub const PONG: u8 = 0x85;
    pub const PROTOCOL_ERROR: u8 = 0x86;
    pub const BATCH_REPLY: u8 = 0x87;
}

/// Everything that can go wrong on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying transport error.
    Io(String),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// Frame did not start with [`MAGIC`].
    BadMagic([u8; 2]),
    /// Frame declared a version this peer does not speak.
    UnsupportedVersion(u8),
    /// Unknown frame kind byte.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// The connection died mid-frame (short header or payload).
    Truncated,
    /// The payload did not parse as its kind demands.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (this peer speaks {WIRE_VERSION})"
                )
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Oversized(n) => {
                write!(f, "payload of {n} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::UnexpectedEof => WireError::Truncated,
            _ => WireError::Io(e.to_string()),
        }
    }
}

/// A decoded frame header plus raw payload, before kind-specific
/// parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    /// Wire version the frame was sent in. Servers answer in the same
    /// version so strict v1 peers never see a version byte they reject.
    pub version: u8,
    /// Frame kind byte (see the `kind` constants).
    pub kind: u8,
    /// Request id this frame belongs to.
    pub id: u64,
    /// Undecoded payload bytes.
    pub payload: Vec<u8>,
}

/// Write one frame at the current [`WIRE_VERSION`]. The whole frame is
/// assembled first so a single `write_all` keeps frames contiguous even
/// when several threads share the stream behind a lock.
pub fn write_frame(w: &mut impl Write, kind: u8, id: u64, payload: &[u8]) -> io::Result<()> {
    write_frame_v(w, WIRE_VERSION, kind, id, payload)
}

/// [`write_frame`] with an explicit version byte — how a server mirrors
/// the version a request arrived in, and how tests emulate old clients.
pub fn write_frame_v(
    w: &mut impl Write,
    version: u8,
    kind: u8,
    id: u64,
    payload: &[u8],
) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    debug_assert!((MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version));
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(version);
    buf.push(kind);
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// A validated frame header: everything but the payload bytes.
pub(crate) struct FrameHeader {
    pub(crate) version: u8,
    pub(crate) kind: u8,
    pub(crate) id: u64,
    /// Declared payload length, already checked against [`MAX_PAYLOAD`].
    pub(crate) len: usize,
}

/// Validate a frame header in wire order — magic → version → kind →
/// payload cap — so every reader rejects a malformed header with the
/// same typed [`WireError`] before any payload byte is read.
pub(crate) fn parse_header(header: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
    if header[0..2] != MAGIC {
        return Err(WireError::BadMagic([header[0], header[1]]));
    }
    let version = header[2];
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = header[3];
    if !is_known_kind(kind) {
        return Err(WireError::UnknownKind(kind));
    }
    let id = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    let len = u32::from_le_bytes(header[12..16].try_into().expect("4 bytes"));
    if len as usize > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    Ok(FrameHeader {
        version,
        kind,
        id,
        len: len as usize,
    })
}

/// Read one frame. A clean EOF before any header byte is
/// [`WireError::Closed`]; EOF anywhere inside a frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<RawFrame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish "no more frames" from "died mid-header".
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let header = parse_header(&header)?;
    let mut payload = vec![0u8; header.len];
    r.read_exact(&mut payload)?;
    Ok(RawFrame {
        version: header.version,
        kind: header.kind,
        id: header.id,
        payload,
    })
}

fn is_known_kind(k: u8) -> bool {
    matches!(
        k,
        kind::CONNECT
            | kind::DISCONNECT
            | kind::SNAPSHOT
            | kind::DRAIN
            | kind::PING
            | kind::BATCH_CONNECT
            | kind::OK
            | kind::REJECTED
            | kind::SNAPSHOT_DATA
            | kind::DRAIN_REPORT
            | kind::PONG
            | kind::PROTOCOL_ERROR
            | kind::BATCH_REPLY
    )
}

/// Strict little-endian payload reader: every accessor checks bounds,
/// and [`PayloadReader::finish`] rejects trailing garbage.
struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("payload shorter than declared".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn endpoint(&mut self) -> Result<Endpoint, WireError> {
        let port = self.u32()?;
        let wavelength = self.u32()?;
        Ok(Endpoint::new(port, wavelength))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_endpoint(buf: &mut Vec<u8>, ep: Endpoint) {
    put_u32(buf, ep.port.0);
    put_u32(buf, ep.wavelength.0);
}

fn put_connection(p: &mut Vec<u8>, conn: &MulticastConnection) {
    put_endpoint(p, conn.source());
    put_u32(p, conn.fanout() as u32);
    for d in conn.destinations() {
        put_endpoint(p, *d);
    }
}

/// Encode a request into a complete frame at [`WIRE_VERSION`].
pub fn encode_request(id: u64, req: &Request) -> Vec<u8> {
    encode_request_v(WIRE_VERSION, id, req)
}

/// [`encode_request`] with an explicit version byte.
///
/// # Panics
///
/// When `req` is a [`Request::BatchConnect`] and `version < 2`: batch
/// frames do not exist in wire v1, so encoding one would produce a
/// frame no v1 peer can parse.
pub fn encode_request_v(version: u8, id: u64, req: &Request) -> Vec<u8> {
    let (kind, payload) = match req {
        Request::Connect(conn) => {
            let mut p = Vec::with_capacity(8 + 4 + 8 * conn.fanout());
            put_connection(&mut p, conn);
            (kind::CONNECT, p)
        }
        Request::Disconnect(src) => {
            let mut p = Vec::with_capacity(8);
            put_endpoint(&mut p, *src);
            (kind::DISCONNECT, p)
        }
        Request::Snapshot => (kind::SNAPSHOT, Vec::new()),
        Request::Drain => (kind::DRAIN, Vec::new()),
        Request::Ping => (kind::PING, Vec::new()),
        Request::BatchConnect(conns) => {
            assert!(version >= 2, "BatchConnect requires wire v2");
            let mut p = Vec::new();
            put_u32(&mut p, conns.len() as u32);
            for conn in conns {
                put_connection(&mut p, conn);
            }
            (kind::BATCH_CONNECT, p)
        }
    };
    frame_bytes(version, kind, id, &payload)
}

/// Encode a response into a complete frame at [`WIRE_VERSION`].
pub fn encode_response(id: u64, resp: &Response) -> Vec<u8> {
    encode_response_v(WIRE_VERSION, id, resp)
}

/// [`encode_response`] with an explicit version byte (servers mirror
/// the version of the request frame they are answering).
///
/// # Panics
///
/// When `resp` is a [`Response::Batch`] and `version < 2`, or a batch
/// item is anything but `Ok`/`Rejected`.
pub fn encode_response_v(version: u8, id: u64, resp: &Response) -> Vec<u8> {
    let (kind, payload) = match resp {
        Response::Ok => (kind::OK, Vec::new()),
        Response::Rejected { reason, detail } => {
            let mut p = Vec::new();
            p.push(reject_code(*reason));
            put_string(&mut p, detail);
            (kind::REJECTED, p)
        }
        Response::Snapshot(snap) => {
            let mut p = Vec::new();
            put_string(&mut p, &snap.to_json());
            (kind::SNAPSHOT_DATA, p)
        }
        Response::DrainReport { clean, summary } => {
            let mut p = vec![u8::from(*clean)];
            put_string(&mut p, &summary.to_json());
            (kind::DRAIN_REPORT, p)
        }
        Response::Pong => (kind::PONG, Vec::new()),
        Response::ProtocolError { message } => {
            let mut p = Vec::new();
            put_string(&mut p, message);
            (kind::PROTOCOL_ERROR, p)
        }
        Response::Batch(items) => {
            assert!(version >= 2, "Batch response requires wire v2");
            let mut p = Vec::new();
            put_u32(&mut p, items.len() as u32);
            for item in items {
                match item {
                    Response::Ok => p.push(0),
                    Response::Rejected { reason, detail } => {
                        p.push(reject_code(*reason));
                        put_string(&mut p, detail);
                    }
                    other => panic!("batch items are Ok/Rejected, got {other:?}"),
                }
            }
            (kind::BATCH_REPLY, p)
        }
    };
    frame_bytes(version, kind, id, &payload)
}

fn frame_bytes(version: u8, kind: u8, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
    write_frame_v(&mut buf, version, kind, id, payload).expect("Vec write is infallible");
    buf
}

fn reject_code(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::Busy => 1,
        RejectReason::Blocked => 2,
        RejectReason::ComponentDown => 3,
        RejectReason::Draining => 4,
        RejectReason::Backpressure => 5,
        RejectReason::UnknownSource => 6,
        RejectReason::Fatal => 7,
        RejectReason::Overloaded => 8,
    }
}

fn reject_reason(code: u8) -> Result<RejectReason, WireError> {
    Ok(match code {
        1 => RejectReason::Busy,
        2 => RejectReason::Blocked,
        3 => RejectReason::ComponentDown,
        4 => RejectReason::Draining,
        5 => RejectReason::Backpressure,
        6 => RejectReason::UnknownSource,
        7 => RejectReason::Fatal,
        8 => RejectReason::Overloaded,
        other => {
            return Err(WireError::Malformed(format!(
                "unknown reject reason code {other}"
            )))
        }
    })
}

fn read_connection(
    p: &mut PayloadReader<'_>,
    payload_len: usize,
) -> Result<MulticastConnection, WireError> {
    let source = p.endpoint()?;
    let n = p.u32()?;
    // Destination ports are unique, so fanout can never exceed the 2^32
    // port space; bound the allocation by the payload.
    if (n as usize).saturating_mul(8) > payload_len {
        return Err(WireError::Malformed(format!(
            "fanout {n} larger than the payload could hold"
        )));
    }
    let mut dests = Vec::with_capacity(n as usize);
    for _ in 0..n {
        dests.push(p.endpoint()?);
    }
    MulticastConnection::new(source, dests).map_err(|e| WireError::Malformed(e.to_string()))
}

/// Parse a raw frame as a request. Response kinds are rejected, and so
/// are v2-only kinds arriving in a v1 frame.
pub fn decode_request(frame: &RawFrame) -> Result<Request, WireError> {
    let mut p = PayloadReader::new(&frame.payload);
    let req = match frame.kind {
        kind::CONNECT => Request::Connect(read_connection(&mut p, frame.payload.len())?),
        kind::DISCONNECT => Request::Disconnect(p.endpoint()?),
        kind::SNAPSHOT => Request::Snapshot,
        kind::DRAIN => Request::Drain,
        kind::PING => Request::Ping,
        kind::BATCH_CONNECT => {
            if frame.version < 2 {
                return Err(WireError::Malformed(
                    "batch connect does not exist in wire v1".into(),
                ));
            }
            let n = p.u32()?;
            // Each connection needs ≥ 16 payload bytes (src + fanout +
            // one destination); bound the allocation by the payload.
            if (n as usize).saturating_mul(16) > frame.payload.len() {
                return Err(WireError::Malformed(format!(
                    "batch of {n} larger than the payload could hold"
                )));
            }
            let mut conns = Vec::with_capacity(n as usize);
            for _ in 0..n {
                conns.push(read_connection(&mut p, frame.payload.len())?);
            }
            Request::BatchConnect(conns)
        }
        other => {
            return Err(WireError::Malformed(format!(
                "frame kind {other:#04x} is not a request"
            )))
        }
    };
    p.finish()?;
    Ok(req)
}

/// Parse a raw frame as a response. Request kinds are rejected.
pub fn decode_response(frame: &RawFrame) -> Result<Response, WireError> {
    let mut p = PayloadReader::new(&frame.payload);
    let resp = match frame.kind {
        kind::OK => Response::Ok,
        kind::REJECTED => {
            let reason = reject_reason(p.u8()?)?;
            let detail = p.string()?;
            Response::Rejected { reason, detail }
        }
        kind::SNAPSHOT_DATA => {
            let json = p.string()?;
            let snap = MetricsSnapshot::from_json(&json)
                .map_err(|e| WireError::Malformed(format!("snapshot json: {e}")))?;
            Response::Snapshot(snap)
        }
        kind::DRAIN_REPORT => {
            let clean = match p.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(WireError::Malformed(format!(
                        "clean flag must be 0 or 1, got {other}"
                    )))
                }
            };
            let json = p.string()?;
            let summary = MetricsSnapshot::from_json(&json)
                .map_err(|e| WireError::Malformed(format!("summary json: {e}")))?;
            Response::DrainReport { clean, summary }
        }
        kind::PONG => Response::Pong,
        kind::PROTOCOL_ERROR => Response::ProtocolError {
            message: p.string()?,
        },
        kind::BATCH_REPLY => {
            if frame.version < 2 {
                return Err(WireError::Malformed(
                    "batch reply does not exist in wire v1".into(),
                ));
            }
            let n = p.u32()?;
            if (n as usize) > frame.payload.len() {
                return Err(WireError::Malformed(format!(
                    "batch of {n} larger than the payload could hold"
                )));
            }
            let mut items = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let code = p.u8()?;
                items.push(if code == 0 {
                    Response::Ok
                } else {
                    Response::Rejected {
                        reason: reject_reason(code)?,
                        detail: p.string()?,
                    }
                });
            }
            Response::Batch(items)
        }
        other => {
            return Err(WireError::Malformed(format!(
                "frame kind {other:#04x} is not a response"
            )))
        }
    };
    p.finish()?;
    Ok(resp)
}

/// Read and parse one request frame from a stream.
pub fn read_request(r: &mut impl Read) -> Result<(u64, Request), WireError> {
    let frame = read_frame(r)?;
    Ok((frame.id, decode_request(&frame)?))
}

/// Read and parse one response frame from a stream.
pub fn read_response(r: &mut impl Read) -> Result<(u64, Response), WireError> {
    let frame = read_frame(r)?;
    Ok((frame.id, decode_response(&frame)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;
    use wdm_runtime::RuntimeMetrics;

    fn roundtrip_request(req: &Request) -> Request {
        let bytes = encode_request(7, req);
        let mut cur = Cursor::new(bytes);
        let (id, back) = read_request(&mut cur).expect("decodes");
        assert_eq!(id, 7);
        back
    }

    fn roundtrip_response(resp: &Response) -> Response {
        let bytes = encode_response(9, resp);
        let mut cur = Cursor::new(bytes);
        let (id, back) = read_response(&mut cur).expect("decodes");
        assert_eq!(id, 9);
        back
    }

    #[test]
    fn fixed_frames_roundtrip() {
        for req in [Request::Snapshot, Request::Drain, Request::Ping] {
            assert_eq!(roundtrip_request(&req), req);
        }
        let conn = MulticastConnection::new(
            Endpoint::new(3, 1),
            [Endpoint::new(0, 0), Endpoint::new(7, 1)],
        )
        .unwrap();
        let req = Request::Connect(conn);
        assert_eq!(roundtrip_request(&req), req);
        let req = Request::Disconnect(Endpoint::new(5, 0));
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn responses_roundtrip() {
        let m = RuntimeMetrics::new(2);
        let snap = m.snapshot(1.5, 3, vec![1, 2, 0]);
        for resp in [
            Response::Ok,
            Response::Pong,
            Response::Rejected {
                reason: RejectReason::Blocked,
                detail: "middle stage exhausted".into(),
            },
            Response::Snapshot(snap.clone()),
            Response::DrainReport {
                clean: true,
                summary: snap,
            },
            Response::ProtocolError {
                message: "bad magic".into(),
            },
        ] {
            assert_eq!(roundtrip_response(&resp), resp);
        }
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_truncated() {
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut empty).unwrap_err(), WireError::Closed);
        let bytes = encode_request(1, &Request::Ping);
        for cut in 1..bytes.len() {
            let mut cur = Cursor::new(bytes[..cut].to_vec());
            assert_eq!(
                read_frame(&mut cur).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_oversize() {
        let good = encode_request(1, &Request::Ping);
        let mut bad = good.clone();
        bad[0] = 0xFF;
        assert!(matches!(
            read_frame(&mut Cursor::new(bad)).unwrap_err(),
            WireError::BadMagic(_)
        ));
        let mut bad = good.clone();
        bad[2] = 99;
        assert_eq!(
            read_frame(&mut Cursor::new(bad)).unwrap_err(),
            WireError::UnsupportedVersion(99)
        );
        let mut bad = good.clone();
        bad[3] = 0x77;
        assert_eq!(
            read_frame(&mut Cursor::new(bad)).unwrap_err(),
            WireError::UnknownKind(0x77)
        );
        let mut bad = good;
        bad[12..16].copy_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        assert_eq!(
            read_frame(&mut Cursor::new(bad)).unwrap_err(),
            WireError::Oversized(MAX_PAYLOAD as u32 + 1)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_request(1, &Request::Disconnect(Endpoint::new(0, 0)));
        // Declare two extra payload bytes and append them.
        let len = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
        bytes[12..16].copy_from_slice(&(len + 2).to_le_bytes());
        bytes.extend_from_slice(&[0, 0]);
        let frame = read_frame(&mut Cursor::new(bytes)).unwrap();
        assert!(matches!(
            decode_request(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn connect_with_zero_fanout_rejected() {
        let mut p = Vec::new();
        put_endpoint(&mut p, Endpoint::new(0, 0));
        put_u32(&mut p, 0);
        let frame = RawFrame {
            version: WIRE_VERSION,
            kind: kind::CONNECT,
            id: 1,
            payload: p,
        };
        assert!(matches!(
            decode_request(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn connect_with_huge_declared_fanout_rejected_without_allocation() {
        let mut p = Vec::new();
        put_endpoint(&mut p, Endpoint::new(0, 0));
        put_u32(&mut p, u32::MAX);
        let frame = RawFrame {
            version: WIRE_VERSION,
            kind: kind::CONNECT,
            id: 1,
            payload: p,
        };
        assert!(matches!(
            decode_request(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn request_kinds_are_not_responses_and_vice_versa() {
        let frame = read_frame(&mut Cursor::new(encode_request(1, &Request::Ping))).unwrap();
        assert!(matches!(
            decode_response(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
        let frame = read_frame(&mut Cursor::new(encode_response(1, &Response::Pong))).unwrap();
        assert!(matches!(
            decode_request(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn both_supported_versions_decode_and_report_their_version() {
        for v in [1u8, 2] {
            let bytes = encode_request_v(v, 5, &Request::Ping);
            let frame = read_frame(&mut Cursor::new(bytes)).unwrap();
            assert_eq!(frame.version, v);
            assert_eq!(decode_request(&frame).unwrap(), Request::Ping);
        }
        for v in [0u8, 3, 99] {
            let mut bytes = encode_request(5, &Request::Ping);
            bytes[2] = v;
            assert_eq!(
                read_frame(&mut Cursor::new(bytes)).unwrap_err(),
                WireError::UnsupportedVersion(v)
            );
        }
    }

    #[test]
    fn batch_connect_roundtrips_in_v2() {
        let conns = vec![
            MulticastConnection::new(
                Endpoint::new(0, 0),
                [Endpoint::new(1, 0), Endpoint::new(2, 0)],
            )
            .unwrap(),
            MulticastConnection::unicast(Endpoint::new(3, 1), Endpoint::new(4, 1)),
        ];
        let req = Request::BatchConnect(conns);
        assert_eq!(roundtrip_request(&req), req);
    }

    #[test]
    fn batch_kinds_are_malformed_in_v1_frames() {
        // A v2 batch frame whose version byte is forced to 1 must be
        // rejected at decode (the kind does not exist in v1), not parsed.
        let req = Request::BatchConnect(vec![MulticastConnection::unicast(
            Endpoint::new(0, 0),
            Endpoint::new(1, 0),
        )]);
        let mut bytes = encode_request(1, &req);
        bytes[2] = 1;
        let frame = read_frame(&mut Cursor::new(bytes)).unwrap();
        assert!(matches!(
            decode_request(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
        let resp = Response::Batch(vec![Response::Ok]);
        let mut bytes = encode_response(1, &resp);
        bytes[2] = 1;
        let frame = read_frame(&mut Cursor::new(bytes)).unwrap();
        assert!(matches!(
            decode_response(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    #[test]
    fn batch_reply_roundtrips_mixed_verdicts() {
        let resp = Response::Batch(vec![
            Response::Ok,
            Response::Rejected {
                reason: RejectReason::Blocked,
                detail: "middle stage exhausted".into(),
            },
            Response::Ok,
            Response::Rejected {
                reason: RejectReason::Busy,
                detail: String::new(),
            },
        ]);
        assert_eq!(roundtrip_response(&resp), resp);
    }

    #[test]
    fn huge_declared_batch_rejected_without_allocation() {
        let mut p = Vec::new();
        put_u32(&mut p, u32::MAX);
        let frame = RawFrame {
            version: WIRE_VERSION,
            kind: kind::BATCH_CONNECT,
            id: 1,
            payload: p,
        };
        assert!(matches!(
            decode_request(&frame).unwrap_err(),
            WireError::Malformed(_)
        ));
    }

    /// Strategy: an arbitrary legal request.
    fn arb_request() -> impl Strategy<Value = Request> {
        (0u8..5, 0u32..64, 0u32..4, 1usize..6).prop_map(|(kind, port, wl, fanout)| match kind {
            0 => {
                // Distinct ports guarantee a structurally legal
                // connection.
                let dests = (0..fanout as u32).map(|i| Endpoint::new(port + 1 + i, wl));
                Request::Connect(MulticastConnection::new(Endpoint::new(port, wl), dests).unwrap())
            }
            1 => Request::Disconnect(Endpoint::new(port, wl)),
            2 => Request::Snapshot,
            3 => Request::Drain,
            _ => Request::Ping,
        })
    }

    proptest! {
        /// Every request survives encode → decode bit-exactly.
        #[test]
        fn prop_request_roundtrip(req in arb_request(), id in 0u64..u64::MAX) {
            let bytes = encode_request(id, &req);
            let (got_id, got) = read_request(&mut Cursor::new(bytes)).expect("roundtrip");
            prop_assert_eq!(got_id, id);
            prop_assert_eq!(got, req);
        }

        /// Truncating any encoded request at any point yields a clean
        /// protocol error, never a panic.
        #[test]
        fn prop_truncation_never_panics(req in arb_request(), cut in 0usize..64) {
            let bytes = encode_request(3, &req);
            let cut = cut.min(bytes.len().saturating_sub(1));
            let result = read_request(&mut Cursor::new(bytes[..cut].to_vec()));
            prop_assert!(result.is_err());
        }

        /// Flipping any single byte of an encoded request either still
        /// decodes (payload bytes that stay structurally valid) or fails
        /// with a typed error — it never panics.
        #[test]
        fn prop_corruption_never_panics(
            req in arb_request(),
            pos in 0usize..64,
            xor in 1u8..=255,
        ) {
            let mut bytes = encode_request(3, &req);
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= xor;
            let _ = read_request(&mut Cursor::new(bytes));
        }

        /// Same, for responses built from engine outcomes.
        #[test]
        fn prop_response_corruption_never_panics(
            pos in 0usize..64,
            xor in 1u8..=255,
            code in 0u8..9,
        ) {
            let resp = match code {
                0 => Response::Ok,
                1 => Response::Pong,
                2 => Response::Rejected { reason: RejectReason::Busy, detail: "d".into() },
                _ => Response::ProtocolError { message: "m".into() },
            };
            let mut bytes = encode_response(1, &resp);
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= xor;
            let _ = read_response(&mut Cursor::new(bytes));
        }
    }
}
