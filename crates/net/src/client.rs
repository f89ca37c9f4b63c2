//! A small blocking client for the wire protocol — the reference
//! implementation the tests, the benchmarks, and the websim TCP front
//! drive. One connection, lockstep or pipelined: send any number of
//! events, then [`NetClient::sync`] to flush and collect the replies.

use std::io::Write;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use reweb_core::Credentials;
use reweb_term::frame::{read_frame, MAX_FRAME_LEN};
use reweb_term::{Term, Timestamp};

use crate::wire::{Reply, Request};

fn bad_data(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// A blocking protocol client. Every call does exactly what it says on
/// the socket; there is no hidden buffering beyond the OS's.
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
}

impl NetClient {
    /// Connect as an ordinary session: `hello`, await `welcome`.
    pub fn connect(
        addr: impl ToSocketAddrs,
        from: impl Into<String>,
    ) -> std::io::Result<NetClient> {
        NetClient::connect_with(addr, from, None, false)
    }

    /// Connect with full handshake control: optional credentials and
    /// the gateway flag (per-event `from`/`cred` overrides).
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        from: impl Into<String>,
        credentials: Option<Credentials>,
        gateway: bool,
    ) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        NetClient::hello(stream, from.into(), credentials, gateway)
    }

    /// Open a delivery session: a connect bounded by `connect_timeout`,
    /// `io_timeout` on every later read and write, then the sender's
    /// `hello`.
    pub(crate) fn dial(
        addr: SocketAddr,
        from: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        NetClient::hello(stream, from.to_string(), None, false)
    }

    /// Run the `hello` handshake on a fresh stream and await `welcome`.
    fn hello(
        stream: TcpStream,
        from: String,
        credentials: Option<Credentials>,
        gateway: bool,
    ) -> std::io::Result<NetClient> {
        let mut c = NetClient { stream, next_id: 1 };
        c.send(&Request::Hello {
            from,
            credentials,
            gateway,
        })?;
        match c.recv()? {
            Reply::Welcome { .. } => Ok(c),
            Reply::Error { code, detail, .. } => {
                Err(bad_data(format!("handshake refused: {code}: {detail}")))
            }
            other => Err(bad_data(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send one request envelope.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        self.stream.write_all(&req.encode())
    }

    /// Write raw bytes to the socket — fault injection for tests (e.g.
    /// a frame with a corrupt CRC).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Send one event; returns the correlation id its replies carry.
    pub fn send_event(&mut self, payload: Term, at: Option<Timestamp>) -> std::io::Result<u64> {
        let id = self.fresh_id();
        self.send(&Request::Event {
            id,
            at,
            from: None,
            credentials: None,
            payload,
        })?;
        Ok(id)
    }

    /// Gateway sessions: send one event on behalf of another sender.
    pub fn send_event_as(
        &mut self,
        from: impl Into<String>,
        credentials: Option<Credentials>,
        payload: Term,
        at: Option<Timestamp>,
    ) -> std::io::Result<u64> {
        let id = self.fresh_id();
        self.send(&Request::Event {
            id,
            at,
            from: Some(from.into()),
            credentials,
            payload,
        })?;
        Ok(id)
    }

    /// Send an explicit clock advance; returns its correlation id.
    pub fn advance(&mut self, at: Timestamp) -> std::io::Result<u64> {
        let id = self.fresh_id();
        self.send(&Request::Advance { id, at })?;
        Ok(id)
    }

    /// Flush: send a `sync` marker and read replies until its `done`
    /// arrives. Returns everything that came back before the `done` —
    /// reactions, errors, and backpressure replies for every request
    /// sent since the previous sync.
    pub fn sync(&mut self) -> std::io::Result<Vec<Reply>> {
        let id = self.fresh_id();
        self.send(&Request::Sync { id })?;
        let mut replies = Vec::new();
        loop {
            match self.recv()? {
                Reply::Done { id: done } if done == id => return Ok(replies),
                r => replies.push(r),
            }
        }
    }

    /// Query the server's observability snapshot: send `stats{}` and
    /// block until the matching `stats` reply. Returns the `stats{…}`
    /// body term (parse histograms out of it with
    /// `reweb_obs::stats_histogram`). Replies for earlier pipelined
    /// requests that arrive first are discarded — use a lockstep
    /// [`NetClient::sync`] turn before querying if you need them.
    pub fn stats(&mut self) -> std::io::Result<Term> {
        let id = self.fresh_id();
        self.send(&Request::Stats { id })?;
        loop {
            match self.recv()? {
                Reply::Stats { id: got, body } if got == id => return Ok(body),
                Reply::Error { code, detail, .. } => {
                    return Err(bad_data(format!("stats refused: {code}: {detail}")))
                }
                _ => {}
            }
        }
    }

    /// Query one trace's recorded span chain: send `trace{id[…]}` and
    /// block until the matching `trace` reply. Returns the `trace{…}`
    /// body term; an unknown or evicted trace id yields an empty chain.
    pub fn trace(&mut self, trace: u64) -> std::io::Result<Term> {
        let id = self.fresh_id();
        self.send(&Request::Trace { id, trace })?;
        loop {
            match self.recv()? {
                Reply::Trace { id: got, body } if got == id => return Ok(body),
                Reply::Error { code, detail, .. } => {
                    return Err(bad_data(format!("trace refused: {code}: {detail}")))
                }
                _ => {}
            }
        }
    }

    /// [`NetClient::sync`], returning each reply's raw frame payload
    /// bytes — the byte-identity surface the differential tests compare.
    /// The `done` marker is decoded only to detect the flush boundary
    /// and is not returned.
    pub fn sync_raw(&mut self) -> std::io::Result<Vec<Vec<u8>>> {
        let id = self.fresh_id();
        self.send(&Request::Sync { id })?;
        let mut replies = Vec::new();
        loop {
            let payload = self.recv_raw()?;
            if let Ok(Reply::Done { id: done }) = Reply::decode(&payload) {
                if done == id {
                    return Ok(replies);
                }
            }
            replies.push(payload);
        }
    }

    /// Read one reply frame (blocking).
    pub fn recv(&mut self) -> std::io::Result<Reply> {
        let payload = self.recv_raw()?;
        Reply::decode(&payload).map_err(|e| bad_data(e.0))
    }

    /// Read one reply as raw payload bytes (byte-level assertions in
    /// tests).
    pub fn recv_raw(&mut self) -> std::io::Result<Vec<u8>> {
        Ok(read_frame(&mut self.stream, MAX_FRAME_LEN as usize)?)
    }

    /// Polite close: send `bye` and drop the connection.
    pub fn bye(mut self) -> std::io::Result<()> {
        self.send(&Request::Bye)
    }
}
