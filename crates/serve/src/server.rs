//! TCP transport: thread-per-connection, line-delimited JSON, graceful
//! drain.
//!
//! Connections poll a stop flag on a short read timeout, so
//! [`Server::shutdown`] converges without interrupting an in-flight
//! request: the accept loop stops taking connections, every connection
//! thread finishes the request it is writing, and later commands on
//! still-open connections are refused with `ShuttingDown` by the core.

use crate::service::ServeCore;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How often blocked reads wake to check the stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Longest request line a connection buffers, in bytes. A longer line is
/// refused with a typed error and discarded, so no client can grow a
/// connection's memory without bound. Far above the largest request an
/// in-repo client sends (a 512-event append is well under 1 MiB).
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// A listening query service over one [`ServeCore`].
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    core: Arc<ServeCore>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

fn serve_connection(core: &ServeCore, stream: TcpStream, stop: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut writer = stream.try_clone()?;
    // One write per reply line: a separate write for the newline would
    // stall on Nagle's algorithm against the client's delayed ACK.
    let mut reply = |mut out: String| {
        out.push('\n');
        writer.write_all(out.as_bytes())?;
        writer.flush()
    };
    let mut reader = BufReader::new(stream);
    // The request line read so far. It outlives the read-timeout poll
    // tick, so a line that arrives in pieces is resumed, not dropped.
    let mut line: Vec<u8> = Vec::new();
    // The current line passed the cap and was refused; the rest of it is
    // discarded up to its newline.
    let mut skipping = false;
    loop {
        // `line` never holds more than the cap here, so `room` is >= 1.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        let read = if skipping {
            reader.skip_until(b'\n')
        } else {
            (&mut reader).take(room).read_until(b'\n', &mut line)
        };
        match read {
            Ok(0) => return Ok(()),
            Ok(_) if skipping => skipping = false,
            Ok(_) if line.len() > MAX_LINE_BYTES => {
                reply(core.refuse_line(format!("request line exceeds {MAX_LINE_BYTES} bytes")))?;
                skipping = line.last() != Some(&b'\n');
                line.clear();
            }
            Ok(_) => {
                match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => {}
                    Ok(request) => reply(core.handle_line(request))?,
                    Err(e) => reply(core.refuse_line(format!("request line is not UTF-8: {e}")))?,
                }
                line.clear();
            }
            // A read timeout is the poll tick; anything else ends the
            // connection.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections against `core`.
    pub fn bind(core: Arc<ServeCore>, addr: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    core.note_accept();
                    let core = Arc::clone(&core);
                    let stop = Arc::clone(&stop);
                    let handle = thread::spawn(move || {
                        let _ = serve_connection(&core, stream, &stop);
                    });
                    if let Ok(mut conns) = conns.lock() {
                        // Opportunistically reap finished connections so
                        // long-running servers do not accumulate handles.
                        conns.retain(|h| !h.is_finished());
                        conns.push(handle);
                    }
                }
            })
        };
        Ok(Server {
            addr,
            core,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service core behind this listener.
    #[must_use]
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// Graceful drain: stops accepting, lets in-flight requests finish,
    /// joins every connection thread, then returns.
    pub fn shutdown(mut self) {
        self.core.begin_drain();
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<JoinHandle<()>> = match self.conns.lock() {
            Ok(mut conns) => conns.drain(..).collect(),
            Err(_) => Vec::new(),
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // shutdown() consumed accept; a dropped server still stops its
        // threads, it just does not wait for them.
        self.stop.store(true, Ordering::SeqCst);
        if self.accept.is_some() {
            let _ = TcpStream::connect(self.addr);
        }
    }
}
