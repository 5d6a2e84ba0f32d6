//! The blocking client: one TCP connection, request/response frames.
//!
//! Used by the integration tests, the CI smoke drive, the
//! [`load`](crate::load) generator, and perfbench, whose traced
//! `serve-repeat` pass scrapes [`Client::metrics`] — there is deliberately no separate client
//! crate: server and client share one wire module, so they can never
//! disagree about the protocol.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, CacheDisposition, Request, Response,
    ScenarioSpec, WireEncoding, WireError,
};

/// A connected client. Requests are strictly sequential per client; open
/// several clients for concurrency (as the load generator does).
pub struct Client {
    /// Responses are read through the buffer, so a small frame usually
    /// takes one `read`; requests are written to the stream beneath it.
    stream: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// [`connect`](Client::connect) with retries — for CI scripts that
    /// start the daemon in the background and race its bind.
    ///
    /// # Errors
    ///
    /// The last connection error after `attempts` tries.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        attempts: u32,
        delay: Duration,
    ) -> std::io::Result<Client> {
        let mut last = None;
        for i in 0..attempts.max(1) {
            if i > 0 {
                std::thread::sleep(delay);
            }
            match Client::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| std::io::Error::other("no connection attempts made")))
    }

    /// Sets the receive timeout for responses (`None` = block forever).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// Transport and decode errors; a server-side [`Response::Error`] is
    /// an `Ok` value, not an `Err`.
    pub fn request(&mut self, req: &Request) -> Result<Response, WireError> {
        write_frame(self.stream.get_mut(), &encode_request(req))?;
        let body = read_frame(&mut self.stream)?;
        decode_response(&body)
    }

    /// Sends a raw pre-encoded frame body and reads one response frame.
    /// Exists for the malformed-frame robustness tests.
    ///
    /// # Errors
    ///
    /// Transport and decode errors.
    pub fn request_raw(&mut self, body: &[u8]) -> Result<Response, WireError> {
        write_frame(self.stream.get_mut(), body)?;
        let body = read_frame(&mut self.stream)?;
        decode_response(&body)
    }

    /// Writes raw bytes to the socket *without* frame framing — for
    /// tests that need to produce truncated or corrupt length prefixes.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let stream = self.stream.get_mut();
        stream.write_all(bytes)?;
        stream.flush()
    }

    /// Reads one response frame (after [`write_bytes`](Client::write_bytes)).
    ///
    /// # Errors
    ///
    /// Transport and decode errors.
    pub fn read_response(&mut self) -> Result<Response, WireError> {
        let body = read_frame(&mut self.stream)?;
        decode_response(&body)
    }

    /// Liveness round trip.
    ///
    /// # Errors
    ///
    /// Transport errors, or a non-`Pong` reply reported as malformed.
    pub fn ping(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(WireError::Malformed("expected pong")),
        }
    }

    /// Runs (or fetches) a consensus check; returns the cache
    /// disposition and the deterministic verdict payload.
    ///
    /// # Errors
    ///
    /// Transport errors; server-side errors surface as
    /// `Malformed("server error response")` with the message lost — use
    /// [`request`](Client::request) directly to inspect error codes.
    pub fn check(
        &mut self,
        scenario: ScenarioSpec,
        encoding: WireEncoding,
        preprocess: bool,
    ) -> Result<(CacheDisposition, Vec<u8>), WireError> {
        match self.request(&Request::Check {
            scenario,
            encoding,
            preprocess,
        })? {
            Response::Verdict { cache, payload } => Ok((cache, payload)),
            Response::Error { .. } => Err(WireError::Malformed("server error response")),
            _ => Err(WireError::Malformed("expected verdict")),
        }
    }

    /// Runs (or fetches) a lint pass; returns the cache disposition and
    /// the JSONL report payload.
    ///
    /// # Errors
    ///
    /// As for [`check`](Client::check).
    pub fn lint(
        &mut self,
        scenario: ScenarioSpec,
        encoding: WireEncoding,
    ) -> Result<(CacheDisposition, Vec<u8>), WireError> {
        match self.request(&Request::Lint { scenario, encoding })? {
            Response::LintReport { cache, payload } => Ok((cache, payload)),
            Response::Error { .. } => Err(WireError::Malformed("server error response")),
            _ => Err(WireError::Malformed("expected lint report")),
        }
    }

    /// Fetches the server's live counters as a JSON string.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-stats reply.
    pub fn stats(&mut self) -> Result<String, WireError> {
        match self.request(&Request::Stats)? {
            Response::Stats { payload } => String::from_utf8(payload)
                .map_err(|_| WireError::Malformed("stats payload is not UTF-8")),
            _ => Err(WireError::Malformed("expected stats")),
        }
    }

    /// Fetches the server's phase and latency totals as Prometheus-style
    /// exposition text.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-metrics reply.
    pub fn metrics(&mut self) -> Result<String, WireError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            _ => Err(WireError::Malformed("expected metrics")),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-acknowledgement reply.
    pub fn shutdown_server(&mut self) -> Result<(), WireError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(WireError::Malformed("expected shutdown acknowledgement")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_response, read_frame};
    use std::net::TcpListener;

    #[test]
    fn a_response_split_across_two_writes_is_read_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind on a free port");
        let addr = listener.local_addr().expect("bound address");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let _ = stream.set_nodelay(true);
            let request = read_frame(&mut stream).expect("request frame");
            assert_eq!(request, encode_request(&Request::Ping));
            let body = encode_response(&Response::Pong);
            stream
                .write_all(&(body.len() as u32).to_be_bytes())
                .expect("write prefix");
            stream.flush().expect("flush prefix");
            // The client must wait out the gap, not fail on a short read.
            std::thread::sleep(Duration::from_millis(50));
            stream.write_all(&body).expect("write body");
        });
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set client timeout");
        client.ping().expect("pong assembled from two writes");
        peer.join().expect("listener thread");
    }
}
