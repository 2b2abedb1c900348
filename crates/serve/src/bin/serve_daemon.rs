//! The locking-as-a-service daemon.
//!
//! ```text
//! serve_daemon [--port N] [--workers N] [--circuit-cache N]
//!              [--locked-cache N] [--announce FILE]
//! ```
//!
//! `--port 0` (the default) binds an ephemeral port; `--announce FILE`
//! writes the bound port and a newline to `FILE` once listening, which is
//! how a script or `tests/daemon_process.rs` finds a freshly started
//! daemon. The process exits with status 0 when a client sends the
//! `shutdown` op, and with status 2 on an unknown flag or a bad value.

use serve::server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve_daemon [--port N] [--workers N] [--circuit-cache N] \
         [--locked-cache N] [--announce FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut port: u16 = 0;
    let mut config = ServerConfig::default();
    let mut announce: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--port" => {
                port = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--workers" => {
                config.workers = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--circuit-cache" => {
                config.circuit_cache = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--locked-cache" => {
                config.locked_cache = need(i).parse().unwrap_or_else(|_| usage());
                i += 2;
            }
            "--announce" => {
                announce = Some(need(i));
                i += 2;
            }
            _ => usage(),
        }
    }

    config.addr = format!("127.0.0.1:{port}");
    let mut handle = match Server::start(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve_daemon: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("serve_daemon: listening on 127.0.0.1:{}", handle.port());
    if let Some(path) = announce {
        if let Err(e) = std::fs::write(&path, format!("{}\n", handle.port())) {
            eprintln!("serve_daemon: announce {path}: {e}");
            std::process::exit(1);
        }
    }
    // Blocks until a client issues the `shutdown` op.
    handle.wait();
    eprintln!("serve_daemon: shut down");
}
