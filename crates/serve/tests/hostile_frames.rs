//! Hostile payloads must become error codes, never a crashed daemon.

use std::net::TcpStream;

use serve::client::Client;
use serve::proto::{self, FrameRead};
use serve::server::{Server, ServerConfig};

/// A frame of a million nested `[` (1 MB, far under the frame limit) would
/// overflow a recursive parser's stack and abort the process. The depth
/// cap answers it with `BAD_JSON`, and the daemon keeps serving.
#[test]
fn deeply_nested_json_gets_bad_json_and_the_daemon_survives() {
    let handle = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback");
    let addr = format!("127.0.0.1:{}", handle.port());

    let mut stream = TcpStream::connect(&addr).expect("connect");
    proto::write_frame(&mut stream, "[".repeat(1_000_000).as_bytes()).expect("send");
    let FrameRead::Payload(reply) = proto::read_frame(&mut stream).expect("read reply") else {
        panic!("expected an error frame");
    };
    let reply = orap_bench::json::parse(std::str::from_utf8(&reply).expect("UTF-8"))
        .expect("the reply is JSON");
    assert_eq!(proto::get_u64(&reply, "code"), Some(proto::code::BAD_JSON));

    let mut client = Client::connect(&addr).expect("reconnect");
    client.ping().expect("the daemon still answers");
}
