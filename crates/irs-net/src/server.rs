//! A thread-per-connection accept loop — what [`ChaosProxy`] runs on
//! (a relay that sleeps, stalls and blackholes on purpose wants a thread
//! it may park), and nothing else. Nothing that serves the wire protocol
//! uses it: that is the [`reactor`](crate::reactor).
//!
//! [`ChaosProxy`]: crate::chaos::ChaosProxy
//!
//! One thread accepts; each connection gets its own thread running a
//! caller-supplied handler. [`ServerHandle::shutdown`] flips a flag, then
//! joins the accept thread and every live connection thread — the explicit
//! shutdown method the structured-concurrency guide recommends instead of
//! dropping tasks on the floor.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A running server.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    #[cfg(test)]
    live_conns: Arc<AtomicUsize>,
    accept_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve each
    /// connection with `handler`. The handler runs on its own thread and
    /// should return when the connection ends or `stop` is set.
    pub fn spawn<F>(addr: &str, handler: F) -> std::io::Result<ServerHandle>
    where
        F: Fn(TcpStream, Arc<AtomicBool>) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_accept = stop.clone();
        let live_conns = Arc::new(AtomicUsize::new(0));
        let live_accept = live_conns.clone();
        let handler = Arc::new(handler);
        let accept_thread = std::thread::Builder::new()
            .name("irs-accept".into())
            .spawn(move || {
                let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
                let reap = |threads: &mut Vec<JoinHandle<()>>| {
                    threads.retain(|t| !t.is_finished());
                    live_accept.store(threads.len(), Ordering::SeqCst);
                };
                while !stop_accept.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let _ = stream.set_nodelay(true);
                            let h = handler.clone();
                            let stop_conn = stop_accept.clone();
                            let t = std::thread::Builder::new()
                                .name("irs-conn".into())
                                .spawn(move || h(stream, stop_conn))
                                .expect("spawn connection thread");
                            conn_threads.push(t);
                            reap(&mut conn_threads);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // Reap on the idle branch too: an idle server
                            // must not pin dead JoinHandles (each holds a
                            // finished thread's stack) until the next
                            // client happens to connect.
                            reap(&mut conn_threads);
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                for t in conn_threads {
                    let _ = t.join();
                }
                live_accept.store(0, Ordering::SeqCst);
            })?;
        Ok(ServerHandle {
            addr: local,
            stop,
            #[cfg(test)]
            live_conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (for clients to connect to).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection threads currently tracked (finished ones disappear
    /// within one accept-loop tick, connected or idle).
    #[cfg(test)]
    pub fn live_connections(&self) -> usize {
        self.live_conns.load(Ordering::SeqCst)
    }

    /// Stop accepting, wait for the accept loop and all connection threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Poll `cond` every few milliseconds until it holds or `timeout`
/// elapses; returns whether it held. Tests use this instead of a fixed
/// `sleep` so they pass as soon as the condition does (fast machines) and
/// only fail after the full bound (slow ones).
#[cfg(test)]
pub(crate) fn poll_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        if cond() {
            return true;
        }
        if std::time::Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn echo_server_roundtrip() {
        let server = ServerHandle::spawn("127.0.0.1:0", |mut stream, _stop| {
            let mut buf = [0u8; 64];
            while let Ok(n) = stream.read(&mut buf) {
                if n == 0 {
                    break;
                }
                if stream.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.write_all(b"ping").unwrap();
        let mut out = [0u8; 4];
        client.read_exact(&mut out).unwrap();
        assert_eq!(&out, b"ping");
        drop(client);
        server.shutdown();
    }

    #[test]
    fn concurrent_connections() {
        let server = ServerHandle::spawn("127.0.0.1:0", |mut stream, _stop| {
            let mut buf = [0u8; 8];
            if stream.read_exact(&mut buf).is_ok() {
                let _ = stream.write_all(&buf);
            }
        })
        .unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpStream::connect(addr).unwrap();
                    c.write_all(&i.to_be_bytes()).unwrap();
                    let mut out = [0u8; 8];
                    c.read_exact(&mut out).unwrap();
                    assert_eq!(u64::from_be_bytes(out), i);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn idle_server_reaps_disconnected_threads() {
        // Handler lives exactly as long as its client: echo until EOF.
        let server = ServerHandle::spawn("127.0.0.1:0", |mut stream, _stop| {
            let mut buf = [0u8; 64];
            while let Ok(n) = stream.read(&mut buf) {
                if n == 0 {
                    break;
                }
                if stream.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        })
        .unwrap();
        let addr = server.addr();
        let clients: Vec<TcpStream> = (0..3).map(|_| TcpStream::connect(addr).unwrap()).collect();
        assert!(
            poll_until(Duration::from_secs(5), || server.live_connections() == 3),
            "three live connection threads, saw {}",
            server.live_connections()
        );
        // Disconnect everyone. No new connection arrives, so only the
        // idle (WouldBlock) branch can reap the finished threads.
        drop(clients);
        assert!(
            poll_until(Duration::from_secs(5), || server.live_connections() == 0),
            "idle accept loop must reap finished connection threads, saw {}",
            server.live_connections()
        );
        server.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_joins() {
        let server = ServerHandle::spawn("127.0.0.1:0", |_s, _stop| {}).unwrap();
        let addr = server.addr();
        server.shutdown();
        // shutdown() joins every thread, but the OS may release the port a
        // beat later; poll the rebind instead of asserting the first try.
        assert!(
            poll_until(Duration::from_secs(5), || TcpListener::bind(addr).is_ok()),
            "port must be released after shutdown"
        );
    }
}
