//! Host-speed calibration.
//!
//! On a shared host the speed of a core drifts by ±20% over minutes
//! (other tenants on sibling hyperthreads and the shared cache), which
//! moves every wall time of a run together and swamps the run-to-run
//! comparisons the benchmark exists for. The harness therefore runs a
//! fixed kernel of its own between operations — never while one is
//! timed — and reports times scaled to the speed at which the kernel
//! takes [`REFERENCE_MS`]. The kernel's code is part of the harness, so
//! a change to the program cannot move it. Raw times are printed next
//! to the scaled ones. HTTP latencies use a second reference of the
//! same kind, [`Loopback`].

use crate::stats::median;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time at the reference speed the metrics are scaled to.
pub const REFERENCE_MS: f64 = 10.0;

/// The kernel's buffers, kept across runs of the kernel so that it
/// frees no large block: a freed block would move the allocator's mmap
/// threshold, which the program's own memory use depends on.
#[derive(Default)]
struct Scratch {
    words: Vec<u64>,
    map: HashMap<u64, u64>,
    names: Vec<String>,
}

/// A deterministic mix of the work the workloads do: filling, sorting,
/// hashing and formatting small strings.
fn kernel(s: &mut Scratch) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 27)
    };
    s.words.clear();
    s.words.extend((0..150_000).map(|_| next()));
    s.words.sort_unstable();
    s.map.clear();
    for (i, k) in s.words.iter().enumerate().step_by(3) {
        s.map.insert(*k >> 17, i as u64);
    }
    s.names.clear();
    s.names
        .extend((0..25_000).map(|i| format!("rsw{:03}.p{:02}.dc{}", i % 977, i % 61, i % 7)));
    let total: usize = s.names.iter().map(String::len).sum();
    s.map.len() as u64 + total as u64 + s.words[s.words.len() / 2]
}

/// Kernel timings taken through one run.
#[derive(Default)]
pub struct Speed {
    samples_ms: Vec<f64>,
    scratch: Scratch,
}

impl Speed {
    /// Times one kernel run; returns the factor that scales times taken
    /// now to the reference speed.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        std::hint::black_box(kernel(&mut self.scratch));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples_ms.push(ms);
        REFERENCE_MS / ms
    }

    /// Median kernel time (ms) of the run.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples_ms)
    }

    /// Factor that scales times spread over the whole run to the
    /// reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.kernel_ms()
    }
}

/// The loopback round trip's time (µs) at the reference speed.
pub const LOOPBACK_REFERENCE_US: f64 = 100.0;

/// A loopback HTTP round trip of the harness's own, the reference for
/// the serve workload's request latencies.
///
/// Request latency on nproc clients and nproc workers is set by system
/// calls, thread wake-ups and how much of the shared host the run gets,
/// which the single-threaded CPU kernel above does not track. This
/// stand-in server has the report server's shape — one accept thread
/// handing each connection to a pool of workers, one `Connection:
/// close` request per connection, a reply of the warm bodies' size — but
/// none of its code, so a change to the program cannot move it.
pub struct Loopback {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
}

impl Loopback {
    /// Starts the stand-in server with `workers` workers, each reply
    /// carrying `body_len` bytes of body.
    pub fn start(workers: usize, body_len: usize) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let reply: Arc<[u8]> = {
            let mut r = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: {body_len}\r\nConnection: close\r\n\r\n"
            )
            .into_bytes();
            r.resize(r.len() + body_len, b'x');
            r.into()
        };
        let flag = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let (tx, rx) = mpsc::channel::<TcpStream>();
            let rx = Arc::new(Mutex::new(rx));
            let pool: Vec<_> = (0..workers.max(1))
                .map(|_| {
                    let (rx, reply) = (Arc::clone(&rx), Arc::clone(&reply));
                    std::thread::spawn(move || loop {
                        let next = rx.lock().expect("loopback queue lock").recv();
                        match next {
                            Ok(conn) => answer(conn, &reply),
                            Err(_) => return,
                        }
                    })
                })
                .collect();
            for conn in listener.incoming() {
                if flag.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(conn) = conn {
                    let _ = tx.send(conn);
                }
            }
            drop(tx);
            for worker in pool {
                let _ = worker.join();
            }
        });
        Ok(Self {
            addr,
            accept: Some(accept),
            stop,
        })
    }

    /// Runs `clients` closed-loop clients for `secs`; returns the
    /// median round trip (µs).
    pub fn burst(&self, clients: usize, secs: f64) -> Result<f64, String> {
        let until = Instant::now() + Duration::from_secs_f64(secs);
        let addr = self.addr;
        let per_client: Vec<std::io::Result<Vec<f64>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients.max(1))
                .map(|_| {
                    s.spawn(move || {
                        let mut us = Vec::new();
                        while Instant::now() < until {
                            let t = Instant::now();
                            round_trip(addr)?;
                            us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                        Ok(us)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("loopback client panicked"))
                .collect()
        });
        let mut all = Vec::new();
        for us in per_client {
            all.extend(us.map_err(|e| format!("loopback reference: {e}"))?);
        }
        if all.is_empty() {
            return Err("loopback reference: no round trip completed".into());
        }
        Ok(median(&all))
    }

    /// Stops the stand-in server and waits for its threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.stop.store(true, Ordering::Release);
            // Wake the accept loop so it sees the flag; if that fails,
            // leave the thread to end with the process.
            if TcpStream::connect(self.addr).is_ok() {
                let _ = accept.join();
            }
        }
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads one request head and writes `reply`.
fn answer(mut conn: TcpStream, reply: &[u8]) {
    let mut head = Vec::with_capacity(256);
    let mut buf = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    let _ = conn.write_all(reply);
}

/// One `Connection: close` GET against the stand-in server.
fn round_trip(addr: SocketAddr) -> std::io::Result<()> {
    let mut conn = TcpStream::connect(addr)?;
    conn.write_all(b"GET /hit HTTP/1.1\r\nHost: loopback\r\nConnection: close\r\n\r\n")?;
    let mut raw = Vec::new();
    conn.read_to_end(&mut raw)?;
    if raw.starts_with(b"HTTP/1.1 200 ") {
        Ok(())
    } else {
        Err(std::io::Error::other("bad loopback reply"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_factor_scales_inversely() {
        let mut scratch = Scratch::default();
        assert_eq!(kernel(&mut scratch), kernel(&mut scratch));
        let mut s = Speed::default();
        assert!(s.measure() > 0.0);
        s.samples_ms = vec![2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS, 30.0 * REFERENCE_MS];
        assert_eq!(s.factor(), 0.5);
    }

    #[test]
    fn loopback_answers_and_stops() {
        let lb = Loopback::start(2, 1000).unwrap();
        let us = lb.burst(2, 0.05).unwrap();
        assert!(us > 0.0 && us.is_finite());
        lb.stop();
    }
}
