//! The daemon: TCP accept loop, connection handlers, op dispatch.
//!
//! Architecture: one listener thread polls a non-blocking accept loop
//! (~20 ms); each connection gets a handler thread that parses frames and
//! dispatches ops; `submit` enqueues onto the shared [`JobQueue`], whose
//! worker pool (built on [`exec::Pool`]) runs the job adapters in
//! [`crate::jobs`]. All expensive state flows through the two
//! content-hashed caches in [`ServeState`], so concurrent sessions on the
//! same circuit share one compiled artifact.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use orap_bench::json::{Json, ToJson};
use orap_bench::json_object;

use crate::jobs::{self, JobSpec, ServeState};
use crate::proto::{self, code, FrameRead};
use crate::queue::{JobQueue, JobStatus, Priority};

/// Protocol version reported by `ping`.
pub const PROTOCOL_VERSION: u64 = 1;
/// Server identity string reported by `ping`.
pub const SERVER_NAME: &str = "orap-serve/0.1.0";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`ServerHandle::port`]).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Circuit-cache capacity (ready entries; 0 = unbounded).
    pub circuit_cache: usize,
    /// Locked-artifact cache capacity (0 = unbounded).
    pub locked_cache: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            circuit_cache: 0,
            locked_cache: 0,
        }
    }
}

struct Shared {
    state: ServeState,
    queue: Arc<JobQueue<JobSpec, Json>>,
    stop_accept: AtomicBool,
}

/// Handle to a running daemon: its bound port and shutdown control.
pub struct ServerHandle {
    port: u16,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound TCP port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Requests shutdown. With `drain`, queued jobs still run to
    /// completion; without, queued jobs are cancelled and running jobs are
    /// interrupted at their next checkpoint. Either way new submissions are
    /// rejected with code 300.
    pub fn begin_shutdown(&self, drain: bool) {
        self.shared.queue.shutdown(drain);
        self.shared.stop_accept.store(true, Ordering::Release);
    }

    /// Blocks until the accept loop and worker pool have exited. Call
    /// [`Self::begin_shutdown`] (or send the `shutdown` op) first.
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.worker_thread.take() {
            let _ = t.join();
        }
    }

    /// Immediate shutdown (no drain) + wait. Idempotent.
    pub fn stop(&mut self) {
        self.begin_shutdown(false);
        self.wait();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Returns the bind error as a string.
    pub fn start(config: ServerConfig) -> Result<ServerHandle, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("bind {}: {e}", config.addr))?;
        let port = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .port();
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;

        let shared = Arc::new(Shared {
            state: ServeState::new(config.circuit_cache, config.locked_cache),
            queue: JobQueue::new(config.workers.max(1)),
            stop_accept: AtomicBool::new(false),
        });

        let worker_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let queue = Arc::clone(&shared.queue);
                queue.run(move |ctx, spec: &JobSpec| {
                    jobs::run_job(&shared.state, ctx, spec)
                });
            })
        };

        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };

        Ok(ServerHandle {
            port,
            shared,
            accept_thread: Some(accept_thread),
            worker_thread: Some(worker_thread),
        })
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop_accept.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &shared);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
        handlers.retain(|h| !h.is_finished());
    }
    // Join handlers that already finished; detach the rest — they exit on
    // their client's EOF, and joining here would block shutdown on a
    // client that keeps its connection open.
    for h in handlers {
        if h.is_finished() {
            let _ = h.join();
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    loop {
        let frame = match proto::read_frame(&mut stream) {
            Ok(FrameRead::Payload(p)) => p,
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Malformed(why)) => {
                let resp = proto::err_response(0, code::BAD_FRAME, why);
                let _ = stream.write_all(&proto::encode(&resp));
                return;
            }
            Err(_) => return,
        };
        match handle_payload(&frame, shared) {
            Action::Respond(response, close) => {
                if stream.write_all(&proto::encode(&response)).is_err() {
                    return;
                }
                if close {
                    return;
                }
            }
            Action::Subscribe { id, msg } => {
                // The one multi-frame op: pushes event frames until the
                // job's progress log closes, then a final `done` frame —
                // after which the connection returns to request/response.
                if !op_subscribe(&mut stream, id, &msg, shared) {
                    return;
                }
            }
        }
    }
}

/// What the connection loop should do with one parsed request.
enum Action {
    /// Write one response frame; close the connection if the flag is set.
    Respond(Json, bool),
    /// Enter the multi-frame `subscribe` push loop.
    Subscribe {
        /// Request id echoed on every pushed frame.
        id: u64,
        /// The full request (for `job_id` / `from`).
        msg: Json,
    },
}

/// Parses one request payload and decides how the connection proceeds.
fn handle_payload(payload: &[u8], shared: &Arc<Shared>) -> Action {
    let text = match std::str::from_utf8(payload) {
        Ok(t) => t,
        Err(_) => {
            return Action::Respond(
                proto::err_response(0, code::BAD_JSON, "payload is not UTF-8"),
                true,
            )
        }
    };
    let msg = match orap_bench::json::parse(text) {
        Ok(m) => m,
        Err(e) => {
            return Action::Respond(
                proto::err_response(0, code::BAD_JSON, &format!("bad json: {e}")),
                true,
            )
        }
    };
    let id = proto::get_u64(&msg, "id").unwrap_or(0);
    let Some(op) = proto::get_str(&msg, "op") else {
        return Action::Respond(
            proto::err_response(id, code::BAD_REQUEST, "op must be a string"),
            false,
        );
    };
    let resp = match op {
        "ping" => proto::ok_response(
            id,
            vec![
                ("protocol".to_string(), PROTOCOL_VERSION.to_json()),
                ("server".to_string(), SERVER_NAME.to_json()),
            ],
        ),
        "submit" => op_submit(id, &msg, shared),
        "status" => op_status(id, &msg, shared, false),
        "result" => op_status(id, &msg, shared, true),
        "cancel" => op_cancel(id, &msg, shared),
        "subscribe" => return Action::Subscribe { id, msg },
        "stats" => op_stats(id, shared),
        "shutdown" => {
            let drain = proto::get(&msg, "drain")
                .and_then(proto::as_bool)
                .unwrap_or(true);
            shared.queue.shutdown(drain);
            shared.stop_accept.store(true, Ordering::Release);
            return Action::Respond(
                proto::ok_response(id, vec![("draining".to_string(), drain.to_json())]),
                true,
            );
        }
        other => proto::err_response(id, code::UNKNOWN_OP, &format!("unknown op: {other}")),
    };
    Action::Respond(resp, false)
}

/// The `subscribe` op: streams progress-event frames for one job from a
/// client-supplied cursor until the log closes, then writes a final frame
/// carrying the job's terminal state. Returns `false` when the connection
/// should close (write failure); protocol errors are single frames and
/// leave the connection open.
fn op_subscribe(stream: &mut TcpStream, id: u64, msg: &Json, shared: &Arc<Shared>) -> bool {
    let Some(job_id) = proto::get_u64(msg, "job_id") else {
        let resp = proto::err_response(id, code::BAD_REQUEST, "job_id must be a number");
        return stream.write_all(&proto::encode(&resp)).is_ok();
    };
    let from = proto::get_u64(msg, "from").unwrap_or(0);
    let Some(log) = shared.queue.progress(job_id) else {
        let resp = proto::err_response(id, code::UNKNOWN_JOB, &format!("unknown job: {job_id}"));
        return stream.write_all(&proto::encode(&resp)).is_ok();
    };
    let mut cursor = from;
    loop {
        let batch = log.wait_events(cursor, 256, Duration::from_secs(600));
        if batch.closed && batch.next_cursor < from {
            // The stream ended before the requested cursor: client bug.
            let resp = proto::err_response(
                id,
                code::BAD_CURSOR,
                &format!(
                    "cursor {from} past the end of the closed stream ({} events)",
                    batch.next_cursor
                ),
            );
            return stream.write_all(&proto::encode(&resp)).is_ok();
        }
        for (i, ev) in batch.events.iter().enumerate() {
            let event = orap_bench::json::parse(ev)
                .unwrap_or_else(|_| Json::Str(ev.clone()));
            let frame = proto::ok_response(
                id,
                vec![
                    ("job_id".to_string(), job_id.to_json()),
                    ("seq".to_string(), (cursor + i as u64).to_json()),
                    ("event".to_string(), event),
                ],
            );
            if stream.write_all(&proto::encode(&frame)).is_err() {
                return false;
            }
        }
        cursor = batch.next_cursor;
        if batch.closed {
            let state = shared
                .queue
                .status(job_id)
                .map_or("?", |s| s.state.as_str());
            let frame = proto::ok_response(
                id,
                vec![
                    ("job_id".to_string(), job_id.to_json()),
                    ("done".to_string(), true.to_json()),
                    ("state".to_string(), state.to_json()),
                    ("events".to_string(), cursor.to_json()),
                    ("dropped".to_string(), batch.dropped.to_json()),
                ],
            );
            return stream.write_all(&proto::encode(&frame)).is_ok();
        }
    }
}

fn op_submit(id: u64, msg: &Json, shared: &Arc<Shared>) -> Json {
    let Some(job) = proto::get(msg, "job") else {
        return proto::err_response(id, code::BAD_REQUEST, "job must be an object");
    };
    let spec = match JobSpec::parse(job) {
        Ok(s) => s,
        Err(e) => return proto::err_response(id, code::BAD_REQUEST, &e),
    };
    let priority = match proto::get_str(msg, "priority") {
        None => Priority::Normal,
        Some(p) => match Priority::from_wire(p) {
            Some(p) => p,
            None => {
                return proto::err_response(
                    id,
                    code::BAD_REQUEST,
                    &format!("unknown priority: {p}"),
                )
            }
        },
    };
    let timeout = proto::get_u64(msg, "timeout_ms").map(Duration::from_millis);
    let kind = spec.kind();
    match shared.queue.submit(kind, spec, priority, timeout) {
        Ok(job_id) => proto::ok_response(
            id,
            vec![
                ("job_id".to_string(), job_id.to_json()),
                ("kind".to_string(), kind.to_json()),
            ],
        ),
        Err(_) => proto::err_response(id, code::SHUTTING_DOWN, "daemon is shutting down"),
    }
}

/// `status` (full view, timings included) and `result` (blocking, timing
/// free — the byte-deterministic op the golden transcripts use).
fn op_status(id: u64, msg: &Json, shared: &Arc<Shared>, wait: bool) -> Json {
    let Some(job_id) = proto::get_u64(msg, "job_id") else {
        return proto::err_response(id, code::BAD_REQUEST, "job_id must be a number");
    };
    let status = if wait {
        let limit = proto::get_u64(msg, "wait_ms")
            .map_or(Duration::from_secs(600), Duration::from_millis);
        shared.queue.wait_terminal(job_id, limit)
    } else {
        shared.queue.status(job_id)
    };
    let Some(st) = status else {
        return proto::err_response(id, code::UNKNOWN_JOB, &format!("unknown job: {job_id}"));
    };
    let mut fields = vec![
        ("job_id".to_string(), st.id.to_json()),
        ("kind".to_string(), st.kind.to_json()),
        ("state".to_string(), st.state.as_str().to_json()),
    ];
    if wait {
        append_outcome(&mut fields, &st);
    } else {
        fields.push(("priority".to_string(), st.priority.as_str().to_json()));
        fields.push(("stage".to_string(), st.stage.to_json()));
        let stages = Json::Array(
            st.stages
                .iter()
                .map(|(name, ns)| json_object! { stage: name, wall_ns: *ns })
                .collect(),
        );
        fields.push(("stages".to_string(), stages));
        fields.push(("queued_ns".to_string(), st.queued_ns.to_json()));
        fields.push(("run_ns".to_string(), st.run_ns.to_json()));
        append_outcome(&mut fields, &st);
    }
    proto::ok_response(id, fields)
}

/// Appends `result` / `error` fields shared by `status` and `result`.
fn append_outcome(fields: &mut Vec<(String, Json)>, st: &JobStatus<Json>) {
    if let Some(r) = &st.result {
        fields.push(("result".to_string(), r.clone()));
    }
    if let Some(e) = &st.error {
        fields.push(("error".to_string(), Json::Str(e.clone())));
    }
}

fn op_cancel(id: u64, msg: &Json, shared: &Arc<Shared>) -> Json {
    let Some(job_id) = proto::get_u64(msg, "job_id") else {
        return proto::err_response(id, code::BAD_REQUEST, "job_id must be a number");
    };
    match shared.queue.cancel(job_id) {
        Some(state) => proto::ok_response(
            id,
            vec![
                ("job_id".to_string(), job_id.to_json()),
                ("state".to_string(), state.as_str().to_json()),
            ],
        ),
        None => proto::err_response(id, code::UNKNOWN_JOB, &format!("unknown job: {job_id}")),
    }
}

fn op_stats(id: u64, shared: &Arc<Shared>) -> Json {
    let q = shared.queue.stats();
    let queue = json_object! {
        workers: q.workers,
        depth_high: q.depth[0],
        depth_normal: q.depth[1],
        depth_low: q.depth[2],
        depth_total: q.depth[0] + q.depth[1] + q.depth[2],
        running: q.running,
        submitted: q.submitted,
        completed: q.completed,
        failed: q.failed,
        cancelled: q.cancelled,
        timed_out: q.timed_out,
        busy_ns: q.busy_ns,
        queue_wait_ns: q.queue_wait_ns,
    };
    proto::ok_response(
        id,
        vec![
            ("queue".to_string(), queue),
            (
                "circuit_cache".to_string(),
                cache_json(&shared.state.circuits.stats()),
            ),
            (
                "locked_cache".to_string(),
                cache_json(&shared.state.locked.stats()),
            ),
        ],
    )
}

/// JSON shape of [`crate::cache::CacheStats`] in the `stats` op.
fn cache_json(s: &crate::cache::CacheStats) -> Json {
    json_object! {
        entries: s.entries,
        capacity: s.capacity,
        hits: s.hits,
        builds: s.builds,
        coalesced: s.coalesced,
        evictions: s.evictions,
        build_errors: s.build_errors,
        build_ns: s.build_ns,
    }
}
