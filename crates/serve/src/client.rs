//! A small blocking client for the `oct-serve` line protocol.
//!
//! Used by the `octree query` subcommand, the router, the smoke script,
//! and the integration tests. One [`Client`] holds one persistent
//! connection; [`one_shot`] is the connect-send-read-close convenience.
//! [`Client::request`] is [`Client::send`] followed by
//! [`Client::receive`]; the router calls the two halves separately so it
//! can write every shard's sub-request before it reads any answer.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use crate::protocol::{Request, Response};

/// A persistent connection to an `oct-serve` daemon.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    timeout: Duration,
}

impl Client {
    /// Connects within `timeout`, which [`request`](Self::request) also
    /// uses as its read timeout, so a wedged daemon cannot hang the caller
    /// forever.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        // One request is one small write; without TCP_NODELAY, Nagle holds
        // it back while the previous request is still unacknowledged, and
        // the server's delayed ACK adds tens of milliseconds to it.
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            writer: stream,
            reader,
            timeout,
        })
    }

    /// Sends one request and reads its one-line response within the
    /// connect timeout.
    ///
    /// Protocol-level failures (`OVERLOADED`, `ERR ...`) come back as
    /// `Ok(Response::...)` — they are answers, not transport errors. `Err`
    /// means the conversation itself broke (connection reset, timeout,
    /// unparseable line).
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        self.send(request)?;
        self.receive(Instant::now() + self.timeout)
    }

    /// Writes one request line, in one write.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let mut sent = request.encode().into_bytes();
        sent.push(b'\n');
        self.writer.write_all(&sent)
    }

    /// Reads the next one-line response, failing with `TimedOut` once
    /// `deadline` passes. The deadline covers the whole line, however many
    /// reads it takes; a deadline already past still takes a complete
    /// answer the socket holds. Errors as in [`request`](Self::request).
    pub fn receive(&mut self, deadline: Instant) -> io::Result<Response> {
        let mut line = Vec::new();
        loop {
            if self.reader.buffer().is_empty() {
                self.fill_by(deadline)?;
            }
            let available = self.reader.buffer();
            if available.is_empty() {
                let what = if line.is_empty() {
                    "server closed the connection"
                } else {
                    "server closed the connection mid-line"
                };
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, what));
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(end) => {
                    line.extend_from_slice(&available[..=end]);
                    self.reader.consume(end + 1);
                    break;
                }
                None => {
                    let n = available.len();
                    line.extend_from_slice(available);
                    self.reader.consume(n);
                }
            }
        }
        let line =
            String::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Response::parse(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One socket read into the empty buffer, bounded by `deadline`; past
    /// the deadline the read does not block.
    fn fill_by(&mut self, deadline: Instant) -> io::Result<()> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let filled = if left.is_zero() {
                self.reader.get_ref().set_nonblocking(true)?;
                let filled = self.reader.fill_buf().map(|_| ());
                self.reader.get_ref().set_nonblocking(false)?;
                filled
            } else {
                self.reader.get_ref().set_read_timeout(Some(left))?;
                self.reader.fill_buf().map(|_| ())
            };
            return match filled {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no answer by the deadline",
                )),
                other => other,
            };
        }
    }
}

/// Connects, performs one request, and closes.
pub fn one_shot(addr: impl ToSocketAddrs, request: &Request) -> io::Result<Response> {
    let mut client = Client::connect(addr, Duration::from_secs(10))?;
    client.request(request)
}
