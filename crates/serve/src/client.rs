//! A blocking client for the `ORP1` protocol — the reference "second
//! implementation" of DESIGN.md §10 that the tests and the benchmark's
//! `serve-mixed` workload drive. Request ids are assigned per connection,
//! starting at 1.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use orap_bench::json::{Json, ToJson};

use crate::proto::{self, FrameRead};

/// One connection to a daemon.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

/// Client-side failure: transport, framing, or a server error response.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server broke framing or sent unparseable JSON.
    Protocol(String),
    /// The server answered `ok:false` with this `(code, error)`.
    Server(u64, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(code, m) => write!(f, "server error {code}: {m}"),
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:4615`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client { stream, next_id: 1 })
    }

    /// Sends `fields` as a request (the `id` is added here) and returns the
    /// server's response object.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] when the response is `ok:false`; transport
    /// and framing errors otherwise.
    pub fn request(&mut self, op: &str, fields: Vec<(String, Json)>) -> Result<Json, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut obj = vec![
            ("id".to_string(), id.to_json()),
            ("op".to_string(), op.to_json()),
        ];
        obj.extend(fields);
        proto::write_frame(&mut self.stream, Json::Object(obj).compact().as_bytes())?;
        self.read_response()
    }

    /// Reads one response frame; an `ok:false` response becomes
    /// [`ClientError::Server`].
    fn read_response(&mut self) -> Result<Json, ClientError> {
        let payload = match proto::read_frame(&mut self.stream)? {
            FrameRead::Payload(p) => p,
            FrameRead::Eof => {
                return Err(ClientError::Protocol("connection closed mid-request".into()))
            }
            FrameRead::Malformed(why) => return Err(ClientError::Protocol(why.to_string())),
        };
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
        let msg = orap_bench::json::parse(text)
            .map_err(|e| ClientError::Protocol(format!("bad response json: {e}")))?;
        if proto::get(&msg, "ok").and_then(proto::as_bool) != Some(true) {
            let code = proto::get_u64(&msg, "code").unwrap_or(0);
            let err = proto::get_str(&msg, "error").unwrap_or("").to_string();
            return Err(ClientError::Server(code, err));
        }
        Ok(msg)
    }

    /// `ping`; returns the server identity string.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn ping(&mut self) -> Result<String, ClientError> {
        let r = self.request("ping", Vec::new())?;
        Ok(proto::get_str(&r, "server").unwrap_or("").to_string())
    }

    /// Submits a raw job object; returns the job id.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn submit(&mut self, job: Json) -> Result<u64, ClientError> {
        self.submit_with(job, None, None)
    }

    /// Submits with optional priority (`"high"`/`"normal"`/`"low"`) and
    /// timeout; returns the job id.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn submit_with(
        &mut self,
        job: Json,
        priority: Option<&str>,
        timeout: Option<Duration>,
    ) -> Result<u64, ClientError> {
        let mut fields = vec![("job".to_string(), job)];
        if let Some(p) = priority {
            fields.push(("priority".to_string(), p.to_json()));
        }
        if let Some(t) = timeout {
            fields.push(("timeout_ms".to_string(), (t.as_millis() as u64).to_json()));
        }
        let r = self.request("submit", fields)?;
        proto::get_u64(&r, "job_id")
            .ok_or_else(|| ClientError::Protocol("submit response missing job_id".into()))
    }

    /// Submits a `lock` job.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn submit_lock(
        &mut self,
        bench: &str,
        scheme: &str,
        key_bits: usize,
        seed: u64,
    ) -> Result<u64, ClientError> {
        self.submit(orap_bench::json_object! {
            kind: "lock", bench: bench, scheme: scheme, key_bits: key_bits, seed: seed,
        })
    }

    /// Submits an `attack` job against a locked artifact.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn submit_attack(&mut self, target: &str, attack: &str) -> Result<u64, ClientError> {
        self.submit(orap_bench::json_object! { kind: "attack", target: target, attack: attack })
    }

    /// Submits a `verify` job for a candidate key bitstring.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn submit_verify(&mut self, target: &str, key: &str) -> Result<u64, ClientError> {
        self.submit(orap_bench::json_object! { kind: "verify", target: target, key: key })
    }

    /// Blocks until the job is terminal (`result` op); returns the full
    /// response object (`state`, and `result`/`error`).
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn wait_result(&mut self, job_id: u64) -> Result<Json, ClientError> {
        self.request("result", vec![("job_id".to_string(), job_id.to_json())])
    }

    /// Non-blocking `status` snapshot of one job.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn status(&mut self, job_id: u64) -> Result<Json, ClientError> {
        self.request("status", vec![("job_id".to_string(), job_id.to_json())])
    }

    /// Cancels a job; returns the state the job was in when the cancel
    /// landed (`"cancelled"` means it never ran).
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn cancel(&mut self, job_id: u64) -> Result<String, ClientError> {
        let r = self.request("cancel", vec![("job_id".to_string(), job_id.to_json())])?;
        Ok(proto::get_str(&r, "state").unwrap_or("").to_string())
    }

    /// Subscribes to a job's progress stream from event cursor `from` and
    /// drains it to completion: returns the pushed `(seq, event)` frames
    /// plus the final `done` frame (`state`, `events`, `dropped`).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with code 200 for an unknown job, 201 for a
    /// cursor past the end of a closed stream; transport errors otherwise.
    pub fn subscribe(&mut self, job_id: u64, from: u64) -> Result<(Vec<(u64, Json)>, Json), ClientError> {
        let mut msg = self.request(
            "subscribe",
            vec![
                ("job_id".to_string(), job_id.to_json()),
                ("from".to_string(), from.to_json()),
            ],
        )?;
        let mut events = Vec::new();
        loop {
            if proto::get(&msg, "done").and_then(proto::as_bool) == Some(true) {
                return Ok((events, msg));
            }
            let seq = proto::get_u64(&msg, "seq")
                .ok_or_else(|| ClientError::Protocol("subscribe frame missing seq".into()))?;
            let event = proto::get(&msg, "event")
                .cloned()
                .ok_or_else(|| ClientError::Protocol("subscribe frame missing event".into()))?;
            events.push((seq, event));
            msg = self.read_response()?;
        }
    }

    /// Daemon counters (`stats` op): queue + both caches.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.request("stats", Vec::new())
    }

    /// Asks the daemon to shut down (`drain` keeps queued jobs running).
    /// The server closes the connection after answering.
    ///
    /// # Errors
    ///
    /// See [`Self::request`].
    pub fn shutdown(&mut self, drain: bool) -> Result<(), ClientError> {
        self.request("shutdown", vec![("drain".to_string(), drain.to_json())])?;
        Ok(())
    }
}
