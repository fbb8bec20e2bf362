//! A small blocking client for the `oct-serve` line protocol.
//!
//! Used by the `octree query` subcommand, the smoke script, and the
//! integration tests. One [`Client`] holds one persistent connection;
//! [`one_shot`] is the connect-send-read-close convenience.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{Request, Response};

/// A persistent connection to an `oct-serve` daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects (with a connect/read timeout so a wedged daemon cannot
    /// hang the caller forever).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        // One request is one small write; without TCP_NODELAY, Nagle holds
        // it back while the previous request is still unacknowledged, and
        // the server's delayed ACK adds tens of milliseconds to it.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
        })
    }

    /// Sends one request and reads its one-line response.
    ///
    /// Protocol-level failures (`OVERLOADED`, `ERR ...`) come back as
    /// `Ok(Response::...)` — they are answers, not transport errors. `Err`
    /// means the conversation itself broke (connection reset, timeout,
    /// unparseable line).
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let mut sent = request.encode().into_bytes();
        sent.push(b'\n');
        self.writer.write_all(&sent)?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Connects, performs one request, and closes.
pub fn one_shot(addr: impl ToSocketAddrs, request: &Request) -> io::Result<Response> {
    let mut client = Client::connect(addr, Duration::from_secs(10))?;
    client.request(request)
}
