//! The daemon itself: TCP and Unix-socket listeners feeding a bounded
//! pool of worker threads over a channel.
//!
//! Design constraints (std only, no async runtime):
//!
//! - Listeners run nonblocking and are polled with a short sleep, so a
//!   shutdown flag is observed within tens of milliseconds.
//! - Accepted connections go through a *bounded* [`mpsc::sync_channel`];
//!   when every worker is busy and the queue is full, the accept loop
//!   applies backpressure instead of buffering unboundedly.
//! - Each worker owns one connection at a time and serves frames until
//!   the peer hangs up. Payload-level errors (bad JSON, bad request)
//!   are answered on the same connection, which stays open; framing
//!   errors (bad magic, version, oversized) get one final typed error
//!   frame and a close, because the byte stream is no longer in sync.
//! - Nothing a client sends can bring the process down: workers catch
//!   every error path and move on to the next connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::proto::{read_frame, render_err, write_frame, ErrorCode, FrameError, DEFAULT_MAX_FRAME};
use crate::service::Service;

/// How long the accept loop sleeps between polls of its listeners.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Per-connection socket read and write timeout: an idle client, or one
/// that pipelines requests and never reads its replies (so a reply
/// blocks in `write_frame` once the socket buffer fills), is eventually
/// dropped, so it cannot pin a worker, or a shutdown joining it, forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Where the daemon listens.
#[derive(Debug, Clone, Default)]
pub struct Endpoints {
    /// TCP port on 127.0.0.1; `Some(0)` asks the OS for a free port.
    pub tcp_port: Option<u16>,
    /// Unix-domain socket path; created fresh, removed on shutdown.
    pub unix_path: Option<PathBuf>,
}

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Largest accepted frame payload in bytes.
    pub max_frame: u32,
    /// Bound of the accepted-connection queue.
    pub backlog: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            workers: 4,
            max_frame: DEFAULT_MAX_FRAME,
            backlog: 64,
        }
    }
}

/// One accepted connection, transport-erased.
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn set_timeouts(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(Some(IO_TIMEOUT))?;
                s.set_write_timeout(Some(IO_TIMEOUT))
            }
            Conn::Unix(s) => {
                s.set_read_timeout(Some(IO_TIMEOUT))?;
                s.set_write_timeout(Some(IO_TIMEOUT))
            }
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Handle to a running server: addresses, counters, and shutdown.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
    connections: Arc<AtomicU64>,
    service: Arc<Service>,
}

impl ServerHandle {
    /// Bound TCP address, when a TCP endpoint was requested.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Unix socket path, when a Unix endpoint was requested.
    #[must_use]
    pub fn unix_path(&self) -> Option<&PathBuf> {
        self.unix_path.as_ref()
    }

    /// Connections accepted so far.
    #[must_use]
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// The shared service (for inspecting cache counters in benches).
    #[must_use]
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Signals shutdown and joins every thread. In-flight connections
    /// finish their current frame; queued connections are dropped.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds the endpoints and spawns the accept loop plus worker pool.
///
/// # Errors
///
/// Fails if no endpoint was requested or a bind fails (port in use,
/// stale socket path in a read-only directory, …).
pub fn serve(
    service: Service,
    endpoints: &Endpoints,
    opts: &ServerOptions,
) -> io::Result<ServerHandle> {
    if endpoints.tcp_port.is_none() && endpoints.unix_path.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "no endpoint requested: need a TCP port or a Unix socket path",
        ));
    }
    let tcp = match endpoints.tcp_port {
        Some(port) => {
            let l = TcpListener::bind(("127.0.0.1", port))?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    let unix = match &endpoints.unix_path {
        Some(path) => {
            // A stale socket file from a crashed run would fail the bind.
            let _ = std::fs::remove_file(path);
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Some(l)
        }
        None => None,
    };
    let tcp_addr = tcp.as_ref().map(|l| l.local_addr()).transpose()?;

    let service = Arc::new(service);
    let shutdown = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(AtomicU64::new(0));
    let (tx, rx) = mpsc::sync_channel::<Conn>(opts.backlog.max(1));
    let rx = Arc::new(std::sync::Mutex::new(rx));

    let workers = opts.workers.max(1);
    let mut worker_threads = Vec::with_capacity(workers);
    for i in 0..workers {
        let rx = Arc::clone(&rx);
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        let max_frame = opts.max_frame;
        worker_threads.push(
            std::thread::Builder::new()
                .name(format!("axmul-serve-{i}"))
                .spawn(move || worker_loop(&rx, &service, &shutdown, max_frame))
                .expect("spawn worker"),
        );
    }

    let accept_thread = {
        let shutdown = Arc::clone(&shutdown);
        let connections = Arc::clone(&connections);
        Some(
            std::thread::Builder::new()
                .name("axmul-accept".into())
                .spawn(move || accept_loop(tcp, unix, &tx, &shutdown, &connections))
                .expect("spawn accept loop"),
        )
    };

    Ok(ServerHandle {
        shutdown,
        tcp_addr,
        unix_path: endpoints.unix_path.clone(),
        accept_thread,
        worker_threads,
        connections,
        service,
    })
}

fn accept_loop(
    tcp: Option<TcpListener>,
    unix: Option<UnixListener>,
    tx: &mpsc::SyncSender<Conn>,
    shutdown: &AtomicBool,
    connections: &AtomicU64,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let mut accepted = false;
        if let Some(l) = &tcp {
            match l.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    connections.fetch_add(1, Ordering::Relaxed);
                    // Request/response on one socket: Nagle only adds
                    // delayed-ACK latency here.
                    let _ = stream.set_nodelay(true);
                    // A send error means every worker is gone: shut down.
                    if tx.send(Conn::Tcp(stream)).is_err() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }
        if let Some(l) = &unix {
            match l.accept() {
                Ok((stream, _)) => {
                    accepted = true;
                    connections.fetch_add(1, Ordering::Relaxed);
                    if tx.send(Conn::Unix(stream)).is_err() {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }
        if !accepted {
            std::thread::sleep(ACCEPT_POLL);
        }
    }
}

fn worker_loop(
    rx: &std::sync::Mutex<mpsc::Receiver<Conn>>,
    service: &Service,
    shutdown: &AtomicBool,
    max_frame: u32,
) {
    while !shutdown.load(Ordering::SeqCst) {
        let conn = {
            let guard = rx.lock().expect("worker queue lock");
            guard.recv_timeout(Duration::from_millis(50))
        };
        match conn {
            Ok(conn) => serve_connection(conn, service, shutdown, max_frame),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one connection to completion. Never panics on peer behavior.
fn serve_connection(mut conn: Conn, service: &Service, shutdown: &AtomicBool, max_frame: u32) {
    if conn.set_timeouts().is_err() {
        return;
    }
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match read_frame(&mut conn, max_frame) {
            Ok(Some(payload)) => {
                let response = service.handle_payload(&payload);
                if write_frame(&mut conn, &response).is_err() {
                    return; // peer went away mid-response
                }
            }
            Ok(None) => return, // clean EOF
            Err(e) => {
                // The stream is desynchronized (or dead): answer with
                // one typed error frame if possible, then close.
                let code = match &e {
                    FrameError::BadMagic(_) => Some(ErrorCode::MalformedFrame),
                    FrameError::UnsupportedVersion(_) => Some(ErrorCode::UnsupportedVersion),
                    FrameError::Oversized { .. } => Some(ErrorCode::Oversized),
                    FrameError::Io(_) => None,
                };
                if let Some(code) = code {
                    let payload = render_err(0, code, &e.to_string());
                    let _ = write_frame(&mut conn, &payload);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeouts(conn: &Conn) -> io::Result<(Option<Duration>, Option<Duration>)> {
        match conn {
            Conn::Tcp(s) => Ok((s.read_timeout()?, s.write_timeout()?)),
            Conn::Unix(s) => Ok((s.read_timeout()?, s.write_timeout()?)),
        }
    }

    #[test]
    fn accepted_connections_time_out_reads_and_writes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (tcp, _) = listener.accept().unwrap();
        let (unix, _peer) = UnixStream::pair().unwrap();
        for conn in [Conn::Tcp(tcp), Conn::Unix(unix)] {
            assert_eq!(timeouts(&conn).unwrap(), (None, None));
            conn.set_timeouts().unwrap();
            assert_eq!(
                timeouts(&conn).unwrap(),
                (Some(IO_TIMEOUT), Some(IO_TIMEOUT))
            );
        }
    }
}
