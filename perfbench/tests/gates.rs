//! The benchmark's own checks, at tiny scale: every metric named in
//! `BENCHMARK.json` is emitted with its unit, corrupted outputs fail the
//! run, and an injected server stall shows up in the open-loop latency
//! of the requests scheduled behind it.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use absort_serve::{proto, ReplyPayload, ServeConfig, Server, Status};
use absort_telemetry::json::{self, Value};
use perfbench::trace::Tracer;
use perfbench::{campaign, library, serve, BenchError, Outcome, Suite, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Value, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).expect("name");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.to_owned(), unit.to_owned())
        })
        .collect()
}

fn tiny_library() -> library::Config {
    library::Config {
        batches: 1,
        min_rounds: 2,
        setup_reps: 1,
        ..library::Config::standard()
    }
}

/// Tiny circuit rounds: one batch per circuit, one set-up.
fn tiny_circuits(cfg: library::Config) -> library::Config {
    library::Config {
        batches: 1,
        setup_reps: 1,
        ..cfg
    }
}

fn tiny_campaign() -> campaign::Config {
    campaign::Config {
        small_per_large: 1,
        min_reps: 1,
        setup_reps: 1,
        circuits: tiny_circuits(library::Config::campaign()),
        ..campaign::Config::standard()
    }
}

fn tiny_serve() -> serve::Config {
    serve::Config {
        lo_rate: 300.0,
        hi_rate: 600.0,
        ladder: vec![600.0, 900.0],
        setup_reps: 2,
        window: 100,
        drain: Duration::from_millis(500),
        circuits: tiny_circuits(library::Config {
            sizes: vec![16, 64],
            ..library::Config::serve()
        }),
    }
}

/// Checks that a result line parses and carries exactly the four keys
/// of the result format.
fn check_result_line(o: &Outcome) {
    let v = json::parse(&o.result_line()).expect("result line is JSON");
    let keys: Vec<&str> = v
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(v.get("attempted").and_then(Value::as_i64).unwrap() >= 1);
}

/// `name -> unit` of a run's metrics, each finite.
fn emitted(o: &Outcome) -> BTreeMap<String, String> {
    check_result_line(o);
    let mut names = BTreeMap::new();
    for m in &o.metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        let dup = names.insert(m.name.clone(), m.unit.to_owned());
        assert!(dup.is_none(), "{} is emitted twice", m.name);
    }
    names
}

/// Every workload's untraced run emits exactly the end-to-end metrics,
/// and its traced run exactly the per-layer metrics, each with its unit.
#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let doc = benchmark_json();
    let suite = Suite {
        library: library::Config {
            min_rounds: 4,
            ..tiny_library()
        },
        campaign: tiny_campaign(),
        serve: tiny_serve(),
    };
    let seed = 5;
    for w in WORKLOADS {
        let seconds = if w == "serve" { 1.0 } else { 0.01 };
        let o = perfbench::run(&suite, w, seed, seconds).expect(w);
        assert_eq!(emitted(&o), declared(&doc, "end_to_end"), "{w} end-to-end");
        let tr = Tracer::new(true);
        let o = perfbench::run_traced(&suite, w, seed, 2.0, &tr).expect(w);
        assert_eq!(emitted(&o), declared(&doc, "per_layer"), "{w} per-layer");
        assert!(tr.self_times().contains_key("request"));
        assert!(tr.self_times().contains_key("campaign"));
        assert!(tr.self_times().contains_key("round"));
    }
    assert!(perfbench::run(&suite, "nope", seed, 0.01).is_err());
}

#[test]
fn doctored_oracle_fails_library() {
    let cfg = library::Config {
        sizes: vec![8, 16],
        ..tiny_library()
    };
    let mut inputs = library::setup(&cfg, 3);
    assert!(library::measure(&cfg, &inputs, 0.0, &[&Tracer::new(false)]).is_ok());
    inputs.streams[1].expected[0][3][0] ^= 1;
    let r = library::measure(&cfg, &inputs, 0.0, &[&Tracer::new(false)]);
    assert!(
        matches!(r, Err(BenchError::Mismatch(_))),
        "corrupted oracle must fail"
    );
}

#[test]
fn doctored_reference_report_fails_campaign() {
    let cfg = campaign::Config {
        sizes: [4, 8],
        ..tiny_campaign()
    };
    let mut reference = campaign::setup(&cfg, 9);
    assert!(campaign::measure(&cfg, 9, &reference, 0.0, &[&Tracer::new(false)]).is_ok());
    assert!(reference.json[1].contains("\"masked\": "));
    reference.json[1] = reference.json[1].replacen("\"masked\": ", "\"masked\": 1", 1);
    let r = campaign::measure(&cfg, 9, &reference, 0.0, &[&Tracer::new(false)]);
    assert!(
        matches!(r, Err(BenchError::Mismatch(_))),
        "doctored reference must fail"
    );
}

/// What the test proxy does to the server's reply stream.
#[derive(Clone, Copy)]
enum Fault {
    /// Flip one payload bit of the `k`-th `Ok` reply.
    FlipBit(usize),
    /// Hold every reply for `ms` once `k` replies have passed.
    Stall(usize, u64),
}

/// A one-connection TCP proxy in front of a server, injecting `fault`
/// into the reply direction.
fn proxy(upstream: SocketAddr, fault: Fault) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = listener.local_addr().expect("proxy addr");
    let handle = std::thread::spawn(move || {
        let (client, _) = listener.accept().expect("accept");
        let server = TcpStream::connect(upstream).expect("connect upstream");
        let (mut c_in, mut s_out) = (client.try_clone().unwrap(), server.try_clone().unwrap());
        let forward = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(k) = c_in.read(&mut buf) {
                if k == 0 || s_out.write_all(&buf[..k]).is_err() {
                    break;
                }
            }
            let _ = s_out.shutdown(Shutdown::Write);
        });
        let (mut s_in, mut c_out) = (server, client);
        let mut replies = 0usize;
        while let Ok(Some(body)) = proto::read_frame(&mut s_in) {
            let mut frame = proto::frame(body.clone());
            match fault {
                Fault::FlipBit(k) if replies == k => {
                    let mut rep = proto::decode_reply(&body).expect("reply decodes");
                    assert_eq!(rep.status, Status::Ok);
                    if let ReplyPayload::Bits(bits) = &mut rep.payload {
                        bits[0] = !bits[0];
                    }
                    frame = proto::encode_reply(&rep);
                }
                Fault::FlipBit(_) => {}
                Fault::Stall(k, ms) => {
                    if replies == k {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                }
            }
            replies += 1;
            if c_out.write_all(&frame).is_err() {
                break;
            }
        }
        let _ = c_out.shutdown(Shutdown::Both);
        forward.join().expect("forward thread");
    });
    (addr, handle)
}

#[test]
fn flipped_reply_bit_fails_serve_phase() {
    let cfg = tiny_serve();
    let server = Server::start(ServeConfig::default()).expect("server");
    let plan = serve::plan(4, 0, 500.0, 0.2);
    let clean = serve::run_phase(server.local_addr(), &cfg, &plan, 500.0, &Tracer::new(false));
    assert_eq!(clean.expect("clean phase").ok, plan.len() as u64);

    let (addr, proxy) = proxy(server.local_addr(), Fault::FlipBit(5));
    let r = serve::run_phase(addr, &cfg, &plan, 500.0, &Tracer::new(false));
    proxy.join().expect("proxy");
    server.join();
    assert!(
        matches!(r, Err(BenchError::Mismatch(_))),
        "flipped reply bit must fail"
    );
}

#[test]
fn server_stall_delays_the_requests_behind_it() {
    let cfg = tiny_serve();
    let server = Server::start(ServeConfig::default()).expect("server");
    let rate = 1000.0;
    let plan = serve::plan(6, 0, rate, 0.6);
    let (addr, proxy) = proxy(server.local_addr(), Fault::Stall(100, 150));
    let ph = serve::run_phase(addr, &cfg, &plan, rate, &Tracer::new(false)).expect("phase");
    proxy.join().expect("proxy");
    server.join();
    assert_eq!(ph.failed, 0);
    // Open loop: requests keep going out on schedule during the stall,
    // and each is timed from its due time, so every request due in the
    // first half of the 150 ms stall waits more than 75 ms. A closed
    // loop would have delayed a single request.
    let delayed = ph.latency_us.iter().filter(|&&l| l > 75_000.0).count();
    assert!(delayed >= 40, "only {delayed} requests saw the stall");
    assert!(ph.p(0.99) > 75_000.0);
}
