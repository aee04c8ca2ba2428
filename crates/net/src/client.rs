//! A blocking client for the wire protocol.
//!
//! [`NetClient`] performs the HELLO handshake on connect and then exposes
//! two levels of API: raw [`NetClient::send`] / [`NetClient::recv`] for
//! pipelined callers (the load harness keeps dozens of requests in flight
//! and matches responses by sequence number), and one-shot conveniences
//! ([`NetClient::release`], [`NetClient::query`], [`NetClient::stats`])
//! that send, wait for the matching response, and map the typed failure
//! frames onto [`ClientError`].

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::frame::{
    decode_payload, encode, payload_len, Envelope, ErrorCode, Frame, FrameError, WireMetric,
    WireQuery, WireQueryResult, WireStats, DEFAULT_MAX_FRAME_LEN,
};

/// Typed client-side failures, separating transport problems from the
/// server's own typed refusals.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::Error),
    /// A frame could not be encoded or decoded.
    Frame(FrameError),
    /// The server answered with a frame the protocol does not allow here
    /// (e.g. a response kind the request cannot produce).
    Protocol(String),
    /// Admission control refused the request; retry after the hint. No
    /// budget was spent.
    Busy {
        /// Suggested back-off in milliseconds.
        retry_hint_ms: u32,
    },
    /// The user's ε budget cannot admit the request.
    BudgetExhausted {
        /// The ε the request asked for.
        requested: f64,
        /// Budget still available.
        remaining: f64,
    },
    /// The server answered with a typed error frame.
    Remote {
        /// Machine-readable reason.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "frame error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ClientError::Busy { retry_hint_ms } => {
                write!(f, "server busy, retry in {retry_hint_ms}ms")
            }
            ClientError::BudgetExhausted {
                requested,
                remaining,
            } => write!(
                f,
                "budget exhausted: requested ε={requested}, remaining ε={remaining}"
            ),
            ClientError::Remote { code, message } => write!(f, "server error ({code}): {message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// One refinement received by [`NetClient::progressive`]: the payload of a
/// [`Frame::RefineOk`].
#[derive(Debug, Clone, PartialEq)]
pub struct Refinement {
    /// 1-based index of this step within the schedule.
    pub step: u32,
    /// Total steps in the schedule.
    pub total_steps: u32,
    /// Window-prefix length this estimate answers over.
    pub prefix: u32,
    /// Laplace scale applied to each coordinate.
    pub scale: f64,
    /// The ε this step spent.
    pub epsilon: f64,
    /// Certified error bound recomputed from the actual release scale.
    pub certified_error: f64,
    /// Cumulative ε the stream has consumed after this step.
    pub spent_epsilon: f64,
    /// The privatised answers for the prefix.
    pub values: Vec<f64>,
}

/// A connected, authenticated protocol client.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_seq: u64,
    max_frame_len: u32,
    server_max_pipeline: u32,
}

impl NetClient {
    /// Connects to `addr` and authenticates as `tenant` (HELLO → HELLO_OK).
    ///
    /// # Errors
    /// [`ClientError::Io`] on connect failure; [`ClientError::Remote`] when
    /// the server refuses the connection (e.g. at its connection cap).
    pub fn connect<A: ToSocketAddrs>(addr: A, tenant: &str) -> Result<NetClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        let writer = BufWriter::with_capacity(64 * 1024, stream);
        let mut client = NetClient {
            reader,
            writer,
            next_seq: 0,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            server_max_pipeline: 1,
        };
        let seq = client.send(Frame::Hello {
            tenant: tenant.to_string(),
        })?;
        let envelope = client.recv()?;
        match envelope.frame {
            Frame::HelloOk {
                max_pipeline,
                max_frame_len,
            } if envelope.seq == seq => {
                client.server_max_pipeline = max_pipeline;
                client.max_frame_len = max_frame_len;
                Ok(client)
            }
            frame => Err(frame_to_error(frame, "HELLO_OK")),
        }
    }

    /// In-flight requests the server allows on this connection.
    pub fn server_max_pipeline(&self) -> u32 {
        self.server_max_pipeline
    }

    /// Largest frame the server negotiated.
    pub fn max_frame_len(&self) -> u32 {
        self.max_frame_len
    }

    /// Encodes and buffers one request, returning its sequence number.
    /// Nothing hits the wire until [`NetClient::flush`] or
    /// [`NetClient::recv`] — pipelined callers batch many sends per flush.
    ///
    /// # Errors
    /// [`ClientError::Frame`] when the frame cannot be encoded,
    /// [`ClientError::Io`] when the buffered write fails.
    pub fn send(&mut self, frame: Frame) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let bytes = encode(&Envelope { seq, frame }, self.max_frame_len)?;
        self.writer.write_all(&bytes)?;
        Ok(seq)
    }

    /// Flushes all buffered requests to the socket.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the flush fails.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Flushes, then blocks for the next response frame — which, on a
    /// pipelined connection, may answer *any* outstanding sequence number.
    ///
    /// # Errors
    /// [`ClientError::Io`] on socket failure (including EOF),
    /// [`ClientError::Frame`] on an undecodable response.
    pub fn recv(&mut self) -> Result<Envelope, ClientError> {
        self.flush()?;
        let mut prefix = [0u8; 4];
        self.reader.read_exact(&mut prefix)?;
        let mut payload = vec![0u8; payload_len(prefix, self.max_frame_len)?];
        self.reader.read_exact(&mut payload)?;
        Ok(decode_payload(&payload)?)
    }

    /// One release, synchronously: send, wait for the matching response,
    /// unwrap it to `(scale, noisy_values)`.
    ///
    /// # Errors
    /// [`ClientError::Busy`] under admission control,
    /// [`ClientError::BudgetExhausted`] when the user's budget refuses the
    /// spend, [`ClientError::Remote`] for other typed server errors.
    pub fn release(
        &mut self,
        user: u64,
        query: WireQuery,
        database: &[usize],
        epsilon: f64,
        seed: u64,
    ) -> Result<(f64, Vec<f64>), ClientError> {
        let seq = self.send(Frame::release(user, query, database, epsilon, seed)?)?;
        let envelope = self.expect_seq(seq)?;
        match envelope.frame {
            Frame::ReleaseOk { scale, values } => Ok((scale, values)),
            frame => Err(frame_to_error(frame, "RELEASE_OK")),
        }
    }

    /// One declarative query, synchronously.
    ///
    /// # Errors
    /// As for [`NetClient::release`]; parse and planning failures arrive as
    /// [`ClientError::Remote`] with [`ErrorCode::Parse`] /
    /// [`ErrorCode::Unsupported`].
    pub fn query(
        &mut self,
        user: u64,
        table: &str,
        statement: &str,
        seed: u64,
    ) -> Result<WireQueryResult, ClientError> {
        let seq = self.send(Frame::Query {
            user,
            table: table.to_string(),
            statement: statement.to_string(),
            seed,
        })?;
        let envelope = self.expect_seq(seq)?;
        match envelope.frame {
            Frame::QueryOk(result) => Ok(result),
            frame => Err(frame_to_error(frame, "QUERY_OK")),
        }
    }

    /// One progressive release, synchronously: sends the schedule and
    /// blocks until the full refinement stream — one [`Frame::RefineOk`]
    /// per step, coarse to fine — has arrived. Pipelined callers who want
    /// to interleave other requests send [`Frame::progressive`] themselves
    /// and match the shared sequence number on [`NetClient::recv`].
    ///
    /// `steps` are `(prefix, epsilon, error_bound)` triples, coarse to
    /// fine; the last prefix is the full window and must equal
    /// `database.len()`.
    ///
    /// # Errors
    /// As for [`NetClient::release`]; an invalid schedule arrives as
    /// [`ClientError::Remote`] with [`ErrorCode::Malformed`].
    pub fn progressive(
        &mut self,
        user: u64,
        confidence: f64,
        seed: u64,
        steps: &[(usize, f64, f64)],
        database: &[usize],
    ) -> Result<Vec<Refinement>, ClientError> {
        let seq = self.send(Frame::progressive(user, confidence, seed, steps, database)?)?;
        let mut refinements = Vec::new();
        loop {
            let envelope = self.expect_seq(seq)?;
            match envelope.frame {
                Frame::RefineOk {
                    step,
                    total_steps,
                    prefix,
                    scale,
                    epsilon,
                    certified_error,
                    spent_epsilon,
                    values,
                } => {
                    refinements.push(Refinement {
                        step,
                        total_steps,
                        prefix,
                        scale,
                        epsilon,
                        certified_error,
                        spent_epsilon,
                        values,
                    });
                    if step == total_steps {
                        return Ok(refinements);
                    }
                }
                frame => return Err(frame_to_error(frame, "REFINE_OK")),
            }
        }
    }

    /// Fetches the server's merged observability snapshot.
    ///
    /// # Errors
    /// As for [`NetClient::release`].
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        let seq = self.send(Frame::Stats)?;
        let envelope = self.expect_seq(seq)?;
        match envelope.frame {
            Frame::StatsOk(stats) => Ok(stats),
            frame => Err(frame_to_error(frame, "STATS_OK")),
        }
    }

    /// Fetches the server's full metrics registry snapshot — every counter,
    /// gauge, and stage histogram the server's telemetry has registered.
    /// Each [`WireMetric`] `Display`s one exposition line, identical to the
    /// server-side `Registry::render_text` format.
    ///
    /// # Errors
    /// As for [`NetClient::release`]; a server started without telemetry
    /// answers with [`ErrorCode::Unsupported`], surfaced as
    /// [`ClientError::Remote`].
    pub fn metrics(&mut self) -> Result<Vec<WireMetric>, ClientError> {
        let seq = self.send(Frame::Metrics)?;
        let envelope = self.expect_seq(seq)?;
        match envelope.frame {
            Frame::MetricsOk(metrics) => Ok(metrics),
            frame => Err(frame_to_error(frame, "METRICS_OK")),
        }
    }

    /// Clean close: GOODBYE, flush, then read until the server (after
    /// finishing every in-flight response) closes the socket.
    ///
    /// # Errors
    /// [`ClientError::Io`] when the goodbye cannot be flushed.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.send(Frame::Goodbye)?;
        self.flush()?;
        let mut sink = [0u8; 4096];
        while let Ok(n) = self.reader.read(&mut sink) {
            if n == 0 {
                break;
            }
        }
        Ok(())
    }

    /// Receives until the response for `seq` arrives. Usable only when no
    /// other request is outstanding (one-shot helpers); pipelined callers
    /// match sequence numbers themselves.
    fn expect_seq(&mut self, seq: u64) -> Result<Envelope, ClientError> {
        let envelope = self.recv()?;
        if envelope.seq != seq {
            return Err(ClientError::Protocol(format!(
                "response for seq {} while waiting for {seq}",
                envelope.seq
            )));
        }
        Ok(envelope)
    }
}

/// Maps a non-success response frame onto the matching [`ClientError`].
fn frame_to_error(frame: Frame, expected: &str) -> ClientError {
    match frame {
        Frame::Busy { retry_hint_ms } => ClientError::Busy { retry_hint_ms },
        Frame::BudgetExhausted {
            requested,
            remaining,
        } => ClientError::BudgetExhausted {
            requested,
            remaining,
        },
        Frame::Error { code, message } => ClientError::Remote { code, message },
        other => ClientError::Protocol(format!("expected {expected}, got {other:?}")),
    }
}
