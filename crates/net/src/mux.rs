//! Lane-multiplexed client: many logical request streams over one
//! socket.
//!
//! Driving C100k with real sockets needs 100k file descriptors; a
//! [`MuxClient`] instead carries many *logical lanes* on a single TCP
//! connection. Every lane is an independent FIFO of outstanding
//! requests: ids are globally unique on the connection, each lane
//! remembers its ids in send order, and [`MuxClient::recv_next`]
//! returns lane responses in *request* order even though the server
//! answers in *resolution* order — responses for other ids (any lane)
//! are parked in a shared buffer until their lane asks.
//!
//! The demux invariant under test: interleaving sends across lanes
//! never reorders any single lane's responses.

use crate::client::{ClientConfig, NetClientError};
use crate::codec::{encode_request_v, read_response, WireError};
use crate::protocol::{Request, Response};
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// A single-socket client multiplexing many logical request lanes.
pub struct MuxClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    config: ClientConfig,
    next_id: u64,
    /// Outstanding ids per lane, in send order.
    lanes: Vec<VecDeque<u64>>,
    /// Responses that arrived before their lane asked for them.
    ready: HashMap<u64, Response>,
}

impl MuxClient {
    /// Connect one socket carrying `lanes` logical lanes, with default
    /// [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs, lanes: usize) -> Result<Self, NetClientError> {
        Self::connect_with(addr, lanes, ClientConfig::default())
    }

    /// [`MuxClient::connect`] with explicit tunables (timeout and wire
    /// version are honored; reconnection does not apply — a mux carries
    /// irreplaceable in-flight state, so transport errors surface).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        lanes: usize,
        config: ClientConfig,
    ) -> Result<Self, NetClientError> {
        let addr: SocketAddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(config.timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(MuxClient {
            stream,
            reader,
            config,
            next_id: 1,
            lanes: (0..lanes.max(1)).map(|_| VecDeque::new()).collect(),
            ready: HashMap::new(),
        })
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Requests sent on `lane` whose responses were not collected yet.
    pub fn outstanding(&self, lane: usize) -> usize {
        self.lanes[lane].len()
    }

    /// Send `req` on `lane` without waiting. The response is collected
    /// by a later [`MuxClient::recv_next`] on the same lane.
    pub fn send_on(&mut self, lane: usize, req: &Request) -> Result<u64, NetClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let bytes = encode_request_v(self.config.wire_version, id, req);
        self.stream.write_all(&bytes)?;
        self.stream.flush()?;
        self.lanes[lane].push_back(id);
        Ok(id)
    }

    /// Collect the response to `lane`'s oldest outstanding request.
    pub fn recv_next(&mut self, lane: usize) -> Result<Response, NetClientError> {
        let id = self.lanes[lane].pop_front().ok_or_else(|| {
            NetClientError::Wire(WireError::Malformed(format!(
                "lane {lane} has no outstanding request"
            )))
        })?;
        if let Some(resp) = self.ready.remove(&id) {
            return Ok(resp);
        }
        loop {
            let (got_id, resp) = read_response(&mut self.reader)?;
            if got_id == id {
                return Ok(resp);
            }
            self.ready.insert(got_id, resp);
        }
    }

    /// One full round trip on `lane`.
    pub fn call_on(&mut self, lane: usize, req: &Request) -> Result<Response, NetClientError> {
        self.send_on(lane, req)?;
        self.recv_next(lane)
    }

    /// Ask the server to drain (routed on lane 0).
    pub fn drain(&mut self) -> Result<Response, NetClientError> {
        self.call_on(0, &Request::Drain)
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::reactor::{ReactorConfig, ReactorServer};
    use wdm_core::{Endpoint, MulticastConnection, MulticastModel, NetworkConfig};
    use wdm_fabric::CrossbarSession;
    use wdm_runtime::EngineBuilder;

    fn serve_crossbar(ports: u32, k: u32) -> ReactorServer<CrossbarSession> {
        let backend = CrossbarSession::new(NetworkConfig::new(ports, k), MulticastModel::Msw);
        let engine = EngineBuilder::new().shards(2).start(backend);
        ReactorServer::serve(engine, "127.0.0.1:0", ReactorConfig::default()).unwrap()
    }

    #[test]
    fn interleaved_lanes_preserve_per_lane_order() {
        let server = serve_crossbar(8, 2);
        let mut mux = MuxClient::connect(server.local_addr(), 3).unwrap();
        // Lane 0: connect/disconnect pairs on port 0; lane 1: the same
        // on port 2; lane 2: pings. Send everything interleaved before
        // collecting anything.
        let conn0 = MulticastConnection::unicast(Endpoint::new(0, 0), Endpoint::new(1, 0));
        let conn1 = MulticastConnection::unicast(Endpoint::new(2, 1), Endpoint::new(3, 1));
        for _round in 0..8 {
            mux.send_on(0, &Request::Connect(conn0.clone())).unwrap();
            mux.send_on(2, &Request::Ping).unwrap();
            mux.send_on(1, &Request::Connect(conn1.clone())).unwrap();
            mux.send_on(0, &Request::Disconnect(conn0.source()))
                .unwrap();
            mux.send_on(1, &Request::Disconnect(conn1.source()))
                .unwrap();
            mux.send_on(2, &Request::Ping).unwrap();
        }
        assert_eq!(mux.outstanding(0), 16);
        assert_eq!(mux.outstanding(1), 16);
        assert_eq!(mux.outstanding(2), 16);
        // Collect lanes in a scrambled order; each lane must still see
        // its own strict request-order sequence.
        for _round in 0..8 {
            for lane in [2, 0, 1] {
                for _ in 0..2 {
                    let resp = mux.recv_next(lane).unwrap();
                    if lane == 2 {
                        assert_eq!(resp, Response::Pong);
                    } else {
                        // Connect then Disconnect both succeed: order
                        // within the lane was preserved (a reordered
                        // disconnect-before-connect would be rejected
                        // as UnknownSource).
                        assert_eq!(resp, Response::Ok, "lane {lane}");
                    }
                }
            }
        }
        assert_eq!(mux.outstanding(0), 0);
        assert!(matches!(
            mux.drain().unwrap(),
            Response::DrainReport { clean: true, .. }
        ));
        let report = server.wait();
        assert_eq!(report.summary.blocked, 0);
    }

    #[test]
    fn recv_on_empty_lane_is_an_error_not_a_hang() {
        let server = serve_crossbar(4, 2);
        let mut mux = MuxClient::connect(server.local_addr(), 2).unwrap();
        assert!(matches!(
            mux.recv_next(1),
            Err(NetClientError::Wire(WireError::Malformed(_)))
        ));
        mux.drain().unwrap();
        server.wait();
    }

    #[test]
    fn many_lanes_over_one_socket_roundtrip_batch() {
        let server = serve_crossbar(16, 2);
        let mut mux = MuxClient::connect(server.local_addr(), 64).unwrap();
        // Every lane pipelines a ping plus a unicast connect; lane g
        // owns source port g % 16 on wavelength g / 16 % 2 — distinct
        // sources, so every connect is admitted.
        for lane in 0..64usize {
            mux.send_on(lane, &Request::Ping).unwrap();
            let src = Endpoint::new((lane % 16) as u32, (lane / 16 % 2) as u32);
            let dst = Endpoint::new(((lane + 1) % 16) as u32, src.wavelength.0);
            if lane < 32 {
                // Only the first 32 lanes connect: 16 ports × 2
                // wavelengths = 32 distinct sources.
                mux.send_on(
                    lane,
                    &Request::Connect(MulticastConnection::unicast(src, dst)),
                )
                .unwrap();
            }
        }
        for lane in (0..64usize).rev() {
            assert_eq!(mux.recv_next(lane).unwrap(), Response::Pong);
            if lane < 32 {
                assert_eq!(mux.recv_next(lane).unwrap(), Response::Ok, "lane {lane}");
            }
        }
        mux.drain().unwrap();
        let report = server.wait();
        assert_eq!(report.summary.admitted, 32);
    }
}
