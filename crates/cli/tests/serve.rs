//! End-to-end tests of the `arls serve` daemon: submissions over the
//! socket are all answered, the ingest counter family on `/metrics`
//! matches what was sent, Adaptive-RL's decision metrics move, a SIGTERM
//! checkpoint restarts bit-exactly via `--resume-from`, and a daemon
//! woken from idle acks promptly.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const N_SUBMISSIONS: u64 = 5;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arls-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn spawn_serve(args: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_arls"))
        .arg("serve")
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn arls serve")
}

/// Polls the port file until the daemon has written its bound
/// addresses. Returns (ingest, metrics-if-any).
fn wait_for_ports(path: &Path, child: &mut Child) -> (String, Option<String>) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            let mut ingest = None;
            let mut metrics = None;
            for line in text.lines() {
                match line.split_once(' ') {
                    Some(("ingest", a)) => ingest = Some(a.to_string()),
                    Some(("metrics", a)) => metrics = Some(a.to_string()),
                    _ => {}
                }
            }
            if let Some(i) = ingest {
                return (i, metrics);
            }
        }
        if let Some(status) = child.try_wait().expect("try_wait") {
            let mut err = String::new();
            if let Some(mut e) = child.stderr.take() {
                let _ = e.read_to_string(&mut err);
            }
            panic!("daemon exited early ({status}): {err}");
        }
        assert!(Instant::now() < deadline, "daemon never wrote {path:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn sigterm(child: &Child) {
    let ok = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(ok, "kill -TERM failed");
}

fn wait_exit(mut child: Child) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("try_wait").is_none() {
        assert!(Instant::now() < deadline, "daemon did not exit");
        std::thread::sleep(Duration::from_millis(50));
    }
    let out = child.wait_with_output().expect("collect output");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Plain HTTP GET via a raw socket (no client dependency).
fn http_get(addr: &str, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect metrics");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut body = String::new();
    s.read_to_string(&mut body).expect("read response");
    body
}

fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

fn latest_snapshot(dir: &Path) -> PathBuf {
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("checkpoint dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "snap"))
        .collect();
    snaps.sort();
    snaps.pop().expect("at least one snapshot")
}

#[test]
fn serve_answers_streams_counts_and_resumes_bit_exactly() {
    let dir = scratch_dir("e2e");
    let ckpt = dir.join("ckpt");
    let port_file = dir.join("ports.txt");

    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--metrics-addr",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--pace",
        "200",
        "--seed",
        "7",
    ]);
    let (ingest_addr, metrics_addr) = wait_for_ports(&port_file, &mut daemon);
    let metrics_addr = metrics_addr.expect("metrics address in port file");

    // Submit N task groups plus one garbage line; every line must be
    // answered and every admitted task must resolve.
    let stream = TcpStream::connect(&ingest_addr).expect("connect ingest");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone stream");
    for i in 0..N_SUBMISSIONS {
        let line = format!(
            "{{\"submit\":{{\"id\":{i},\"tasks\":[{{\"size_mi\":1500,\"deadline\":120,\
             \"priority\":\"high\",\"site\":{}}}]}}}}\n",
            i % 2
        );
        writer.write_all(line.as_bytes()).expect("write submission");
    }
    writer.write_all(b"this is not json\n").expect("write junk");

    let mut reader = BufReader::new(stream);
    let (mut acks, mut rejects, mut placed, mut done) = (0u64, 0u64, 0u64, 0u64);
    let mut line = String::new();
    while done < N_SUBMISSIONS {
        line.clear();
        let n = reader.read_line(&mut line).expect("read notification");
        assert!(n > 0, "daemon closed the stream early");
        let l = line.trim();
        if l.contains("\"ack\"") {
            acks += 1;
        } else if l.contains("\"reject\"") {
            rejects += 1;
        } else if l.contains("\"placed\"") {
            placed += 1;
        } else if l.contains("\"done\"") {
            assert!(l.contains("\"met\":true"), "deadline missed: {l}");
            done += 1;
        }
    }
    assert_eq!(acks, N_SUBMISSIONS, "every submission is acked");
    assert_eq!(rejects, 1, "the junk line is rejected");
    assert_eq!(placed, N_SUBMISSIONS, "every task got a placement");

    // The shared registry serves both metric families; the ingest
    // counters must equal what this test sent.
    let metrics = http_get(&metrics_addr, "/metrics");
    assert_eq!(
        metric_value(&metrics, "arls_ingest_submissions_total"),
        Some(N_SUBMISSIONS as f64),
        "{metrics}"
    );
    assert_eq!(
        metric_value(&metrics, "arls_ingest_tasks_total"),
        Some(N_SUBMISSIONS as f64)
    );
    assert_eq!(
        metric_value(&metrics, "arls_ingest_parse_errors_total"),
        Some(1.0)
    );
    assert_eq!(
        metric_value(&metrics, "arls_ingest_rejections_total"),
        Some(1.0)
    );
    assert!(
        metric_value(&metrics, "arls_events_total").unwrap_or(0.0) > 0.0,
        "platform family is served from the same registry"
    );
    assert!(
        metric_value(&metrics, "arls_decision_latency_seconds_count").unwrap_or(0.0) > 0.0,
        "the served Adaptive-RL scheduler observes its decision latency: {metrics}"
    );

    // SIGTERM → final checkpoint on the way out.
    sigterm(&daemon);
    let out = wait_exit(daemon);
    assert!(out.contains("final checkpoint"), "stdout: {out}");
    let snap = latest_snapshot(&ckpt);
    let payload = std::fs::read(&snap).expect("snapshot bytes");

    // Resume with a frozen sim clock and stop again: the re-encoded
    // state must be byte-identical — scheduler learning state included.
    let ckpt2 = dir.join("ckpt2");
    let port_file2 = dir.join("ports2.txt");
    let mut resumed = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file2.to_str().unwrap(),
        "--resume-from",
        snap.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt2.to_str().unwrap(),
        "--pace",
        "0",
        "--run-for-secs",
        "1",
    ]);
    let _ = wait_for_ports(&port_file2, &mut resumed);
    let out2 = wait_exit(resumed);
    assert!(out2.contains("final checkpoint"), "stdout: {out2}");
    let payload2 = std::fs::read(latest_snapshot(&ckpt2)).expect("resumed snapshot bytes");
    assert_eq!(payload, payload2, "resume must restore bit-exact state");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An ack is written as soon as its submission is read, even after the
/// daemon has sat idle: request/response round trips spaced by pauses
/// must not wait for a parked loop to wake or for the client's next
/// segment to carry a delayed TCP ACK. The 40 ms pause lands mid-way
/// through the 32 ms step of a doubling sleep back-off (1, 2, 4, … ms),
/// where a loop that parks that way acks in ~20 ms.
#[test]
fn serve_acks_promptly_after_idle() {
    let dir = scratch_dir("ack");
    let port_file = dir.join("ports.txt");
    let mut daemon = spawn_serve(&[
        "--listen",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
        "--seed",
        "7",
    ]);
    let (ingest_addr, _) = wait_for_ports(&port_file, &mut daemon);
    let stream = TcpStream::connect(&ingest_addr).expect("connect ingest");
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    // Let the daemon go fully idle before the first request.
    std::thread::sleep(Duration::from_millis(250));
    let mut rtts: Vec<Duration> = Vec::new();
    let mut line = String::new();
    for i in 0..20u64 {
        let req = format!(
            "{{\"submit\":{{\"id\":{i},\"tasks\":[{{\"size_mi\":1500,\"deadline\":120,\
             \"priority\":\"high\",\"site\":0}}]}}}}\n"
        );
        let sent = Instant::now();
        writer.write_all(req.as_bytes()).expect("write submission");
        let ack = format!("\"id\":{i},");
        loop {
            line.clear();
            let n = reader.read_line(&mut line).expect("read notification");
            assert!(n > 0, "daemon closed the stream early");
            if line.contains("\"ack\"") && line.contains(&ack) {
                break;
            }
        }
        rtts.push(sent.elapsed());
        std::thread::sleep(Duration::from_millis(40));
    }
    sigterm(&daemon);
    let _ = wait_exit(daemon);
    let _ = std::fs::remove_dir_all(&dir);

    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median ack round trip {median:?} (all: {rtts:?})"
    );
}
