//! Transport: byte-stream connections, the frame reader, and the broker's
//! per-connection write queue.
//!
//! Every broker connection is a byte stream — a TCP socket accepted by
//! [`crate::broker::Broker::listen`], or one end of an in-process Unix
//! socket pair made by [`crate::broker::Broker::connect_transport`] — and
//! takes the same path through the broker: the owner shard's reactor
//! reads it through a `FrameReader`, gates it on CONNECT, and writes to
//! it from its [`FrameSender`] queue (see [`crate::reactor`]).
//!
//! A [`LinkEnd`] is the client side of such a connection. It reads with
//! the same `FrameReader` on whichever thread calls `recv_*` (the
//! [`crate::client::Client`] reader thread), and writes whole frames with
//! blocking writes, so it needs no thread of its own.

use crate::codec;
use crate::error::{MqttError, Result};
use crate::packet::Packet;
use crate::reactor::WriteScheduler;
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------

/// A connected byte stream: a TCP socket, or one end of an in-process
/// Unix socket pair.
#[derive(Debug)]
pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    pub(crate) fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(on),
            Stream::Unix(s) => s.set_nonblocking(on),
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(how),
            Stream::Unix(s) => s.shutdown(how),
        }
    }
}

impl AsRawFd for Stream {
    fn as_raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

impl Read for &Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match *self {
            Stream::Tcp(s) => (&*s).read(buf),
            Stream::Unix(s) => (&*s).read(buf),
        }
    }
}

impl Write for &Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match *self {
            Stream::Tcp(s) => (&*s).write(buf),
            Stream::Unix(s) => (&*s).write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match *self {
            Stream::Tcp(s) => (&*s).write_vectored(bufs),
            Stream::Unix(s) => (&*s).write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Frame reader
// ---------------------------------------------------------------------

/// Size of the per-thread scratch buffer reads land in.
const READ_CHUNK: usize = 4 * 1024;

/// Largest buffer a frame header alone can size. A longer frame's buffer
/// grows as its bytes arrive, so a forged length costs at most this much
/// before the peer sends real bytes.
const MAX_PREALLOC: usize = 1 << 20;

thread_local! {
    /// Read scratch shared by every connection the thread reads, so an
    /// idle connection holds no read buffer.
    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(vec![0; READ_CHUNK]);
}

/// Splits a byte stream into MQTT frames: the one read path of the broker
/// reactor and the client.
///
/// Reads land in a per-thread scratch buffer, and every byte is copied
/// once from there into its frame, an allocation of exactly the frame's
/// size. Once a long frame's header is in, the rest of it is read straight
/// into that allocation instead. Between reads the reader holds at most
/// one partial frame.
#[derive(Debug, Default)]
pub(crate) struct FrameReader {
    /// The partial frame at the head of the unread stream, in
    /// `partial[..filled]`; any bytes past that are zeroed read room.
    partial: Vec<u8>,
    filled: usize,
    /// Complete frames not yet taken, in arrival order.
    ready: VecDeque<Bytes>,
}

impl FrameReader {
    /// One `read` from `src`. Returns the bytes read (`0` is end of
    /// stream) and whether the read filled all the room it was offered,
    /// i.e. whether more bytes may already be waiting.
    pub(crate) fn read_from(&mut self, mut src: impl Read) -> io::Result<(usize, bool)> {
        let have = self.filled;
        match codec::frame_length(&self.partial[..have]) {
            Ok(Some(len)) if len >= have + READ_CHUNK => {
                // Room is zeroed once and kept across reads of this frame.
                let room = (len - have).min(MAX_PREALLOC);
                if self.partial.len() < have + room {
                    self.partial.resize(have + room, 0);
                }
                let n = src.read(&mut self.partial[have..have + room])?;
                self.filled += n;
                self.take_if_complete();
                Ok((n, n == room))
            }
            _ => SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                let n = src.read(&mut scratch)?;
                self.split(&scratch[..n]);
                Ok((n, n == READ_CHUNK))
            }),
        }
    }

    /// Cuts freshly read bytes into frames, completing the partial frame
    /// first.
    fn split(&mut self, mut data: &[u8]) {
        self.partial.truncate(self.filled);
        while self.filled > 0 && !data.is_empty() {
            let need = match codec::frame_length(&self.partial) {
                Ok(Some(len)) => len - self.filled,
                // The length prefix is still incomplete (at most 5 bytes).
                Ok(None) => 1,
                // Malformed: keep the bytes; `next_frame` reports it.
                Err(_) => data.len(),
            };
            let (head, rest) = data.split_at(need.min(data.len()));
            self.partial.extend_from_slice(head);
            self.filled = self.partial.len();
            data = rest;
            self.take_if_complete();
        }
        loop {
            match codec::frame_length(data) {
                Ok(Some(len)) if len <= data.len() => {
                    self.ready.push_back(Bytes::copy_from_slice(&data[..len]));
                    data = &data[len..];
                }
                Ok(Some(len)) => {
                    self.partial.reserve_exact(len.min(MAX_PREALLOC));
                    break;
                }
                _ => break,
            }
        }
        self.partial.extend_from_slice(data);
        self.filled = self.partial.len();
    }

    /// Moves the partial frame to `ready` once all its bytes are in.
    fn take_if_complete(&mut self) {
        let filled = self.filled;
        if matches!(codec::frame_length(&self.partial[..filled]), Ok(Some(len)) if len == filled) {
            self.partial.truncate(filled);
            self.filled = 0;
            self.ready
                .push_back(Bytes::from(std::mem::take(&mut self.partial)));
        }
    }

    /// Takes the next complete frame, if one is buffered. A malformed
    /// length prefix is an error.
    pub(crate) fn next_frame(&mut self) -> Result<Option<Bytes>> {
        if let Some(frame) = self.ready.pop_front() {
            return Ok(Some(frame));
        }
        codec::frame_length(&self.partial[..self.filled])?;
        Ok(None)
    }
}

// ---------------------------------------------------------------------
// Client side: LinkEnd
// ---------------------------------------------------------------------

/// Receive state of a [`LinkEnd`]: its frames and the socket's current
/// read timeout (changed only when a caller asks for a different one).
#[derive(Default)]
struct LinkReader {
    frames: FrameReader,
    timeout: Option<Duration>,
}

struct LinkShared {
    stream: Stream,
    reader: Mutex<LinkReader>,
    /// Serializes writers so frames never interleave on the wire.
    write: Mutex<()>,
}

impl LinkShared {
    fn send_frame(&self, frame: &[u8]) -> Result<()> {
        let _guard = self.write.lock().map_err(|_| MqttError::Disconnected)?;
        (&self.stream)
            .write_all(frame)
            .map_err(|_| MqttError::Disconnected)
    }

    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Bytes> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut reader = self.reader.lock().map_err(|_| MqttError::Disconnected)?;
        loop {
            if let Some(frame) = reader.frames.next_frame()? {
                return Ok(frame);
            }
            let remaining = match deadline {
                Some(d) => Some(
                    d.checked_duration_since(Instant::now())
                        .filter(|r| !r.is_zero())
                        .ok_or(MqttError::Timeout)?,
                ),
                None => None,
            };
            if remaining != reader.timeout {
                self.stream
                    .set_read_timeout(remaining)
                    .map_err(|_| MqttError::Disconnected)?;
                reader.timeout = remaining;
            }
            match reader.frames.read_from(&self.stream) {
                Ok((0, _)) => return Err(MqttError::Disconnected),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(MqttError::Timeout)
                }
                Err(_) => return Err(MqttError::Disconnected),
            }
        }
    }
}

/// The client end of a broker connection. Cloning yields another handle
/// to the *same* connection, which lets a client keep sending while a
/// reader thread owns the receive loop; the connection closes when the
/// last handle drops.
#[derive(Clone)]
pub struct LinkEnd {
    shared: Arc<LinkShared>,
}

impl std::fmt::Debug for LinkEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkEnd")
            .field("stream", &self.shared.stream)
            .finish_non_exhaustive()
    }
}

impl LinkEnd {
    /// Wraps a blocking stream.
    pub(crate) fn new(stream: Stream) -> LinkEnd {
        LinkEnd {
            shared: Arc::new(LinkShared {
                stream,
                reader: Mutex::new(LinkReader::default()),
                write: Mutex::new(()),
            }),
        }
    }

    /// Sends raw bytes — normally one encoded frame, but any split of the
    /// byte stream is valid (the broker reassembles frames).
    pub fn send_frame(&self, frame: Bytes) -> Result<()> {
        self.shared.send_frame(&frame)
    }

    /// Encodes and sends one packet.
    pub fn send_packet(&self, packet: &Packet) -> Result<()> {
        self.shared.send_frame(&codec::encode(packet)?)
    }

    /// Receives one frame, blocking until it arrives or the peer is gone.
    pub fn recv_frame(&self) -> Result<Bytes> {
        self.shared.recv_frame(None)
    }

    /// Receives one frame with a timeout.
    pub fn recv_frame_timeout(&self, timeout: Duration) -> Result<Bytes> {
        self.shared.recv_frame(Some(timeout))
    }

    /// Receives and decodes one packet, blocking.
    pub fn recv_packet(&self) -> Result<Packet> {
        Ok(codec::decode(&self.recv_frame()?)?.0)
    }

    /// Receives and decodes one packet with a timeout.
    pub fn recv_packet_timeout(&self, timeout: Duration) -> Result<Packet> {
        Ok(codec::decode(&self.recv_frame_timeout(timeout)?)?.0)
    }

    /// Splits the end into send and receive halves. Dropping the
    /// [`LinkWriter`] shuts the sending direction, so the broker sees the
    /// client go away even while a reader thread still holds the
    /// [`FrameReceiver`].
    pub fn split(self) -> (LinkWriter, FrameReceiver) {
        (
            LinkWriter {
                shared: Arc::clone(&self.shared),
            },
            FrameReceiver {
                shared: self.shared,
            },
        )
    }
}

/// Send half of a split [`LinkEnd`].
pub struct LinkWriter {
    shared: Arc<LinkShared>,
}

impl LinkWriter {
    /// Sends raw frame bytes.
    pub fn send_frame(&self, frame: Bytes) -> Result<()> {
        self.shared.send_frame(&frame)
    }

    /// Encodes and sends one packet.
    pub fn send_packet(&self, packet: &Packet) -> Result<()> {
        self.shared.send_frame(&codec::encode(packet)?)
    }
}

impl Drop for LinkWriter {
    fn drop(&mut self) {
        let _ = self.shared.stream.shutdown(Shutdown::Write);
    }
}

/// Receive half of a split [`LinkEnd`].
pub struct FrameReceiver {
    shared: Arc<LinkShared>,
}

impl FrameReceiver {
    /// Receives one frame, blocking until it arrives or the peer is gone.
    pub fn recv_frame(&self) -> Result<Bytes> {
        self.shared.recv_frame(None)
    }

    /// Receives one frame with a timeout.
    pub fn recv_frame_timeout(&self, timeout: Duration) -> Result<Bytes> {
        self.shared.recv_frame(Some(timeout))
    }
}

/// Dials a broker's TCP listener. The socket is wrapped in a [`LinkEnd`]
/// exactly like an in-process connection, so the threaded
/// [`crate::client::Client`] speaks to a remote broker unchanged.
pub fn tcp_link(addr: impl ToSocketAddrs) -> Result<LinkEnd> {
    let stream = TcpStream::connect(addr).map_err(|_| MqttError::Disconnected)?;
    let _ = stream.set_nodelay(true);
    Ok(LinkEnd::new(Stream::Tcp(stream)))
}

// ---------------------------------------------------------------------
// Broker side: outbound queue
// ---------------------------------------------------------------------

/// Shared outbound state of one broker connection.
///
/// Any shard may push encoded frames (routing fan-out crosses shards);
/// only the owner shard pops, writing with `writev` when its reactor says
/// the socket is writable. Pushes never block — the queue is unbounded —
/// but a queue that outgrows `hwm` bytes marks the connection **evicted**
/// (slow consumer): subsequent pushes fail, and the owner shard tears the
/// connection down ungracefully, which fires the client's last will.
pub(crate) struct Outbound {
    /// Connection id (doubles as the reactor token).
    conn: u64,
    q: Mutex<VecDeque<Bytes>>,
    /// Bytes pushed but not yet written to the socket.
    queued_bytes: AtomicU64,
    /// Slow-consumer eviction watermark (bytes).
    hwm: u64,
    evicted: AtomicBool,
    eviction_counted: AtomicBool,
    closed: AtomicBool,
    /// Deduplicates flush scheduling: set by the first push after a
    /// flush, cleared by the owner shard at the start of each flush pass.
    flush_armed: AtomicBool,
    /// The owner shard's flush queue; retargeted once if the connection
    /// migrates from its home shard to its owner at CONNECT time.
    sched: Mutex<Arc<WriteScheduler>>,
}

impl Outbound {
    pub(crate) fn new(conn: u64, hwm: u64, sched: Arc<WriteScheduler>) -> Arc<Outbound> {
        Arc::new(Outbound {
            conn,
            q: Mutex::new(VecDeque::new()),
            queued_bytes: AtomicU64::new(0),
            hwm,
            evicted: AtomicBool::new(false),
            eviction_counted: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            flush_armed: AtomicBool::new(false),
            sched: Mutex::new(sched),
        })
    }

    /// Queues one frame and schedules a flush with the owner shard.
    fn push(&self, frame: Bytes) -> Result<()> {
        if self.closed.load(Ordering::Acquire) || self.evicted.load(Ordering::Acquire) {
            return Err(MqttError::Disconnected);
        }
        let len = frame.len() as u64;
        let total = {
            let mut q = self.q.lock().expect("outbound lock");
            q.push_back(frame);
            self.queued_bytes.fetch_add(len, Ordering::Relaxed) + len
        };
        if total > self.hwm {
            self.evicted.store(true, Ordering::Release);
        }
        if !self.flush_armed.swap(true, Ordering::AcqRel) {
            let sched = Arc::clone(&self.sched.lock().expect("outbound sched lock"));
            sched.schedule(self.conn);
        }
        Ok(())
    }

    /// Moves all queued frames into the owner shard's write buffer.
    pub(crate) fn drain_into(&self, out: &mut VecDeque<Bytes>) {
        let mut q = self.q.lock().expect("outbound lock");
        out.extend(q.drain(..));
    }

    /// Accounts `n` bytes as written to the socket.
    pub(crate) fn note_written(&self, n: u64) {
        self.queued_bytes.fetch_sub(n, Ordering::Relaxed);
    }

    /// Clears the flush-scheduling flag; called by the owner shard right
    /// before draining so a concurrent push re-schedules.
    pub(crate) fn begin_flush(&self) {
        self.flush_armed.store(false, Ordering::Release);
    }

    /// Redirects future flush scheduling at the owner shard (CONNECT-time
    /// migration from the connection's home shard).
    pub(crate) fn retarget(&self, sched: Arc<WriteScheduler>) {
        *self.sched.lock().expect("outbound sched lock") = sched;
    }

    /// True once the write queue crossed the eviction watermark.
    pub(crate) fn is_evicted(&self) -> bool {
        self.evicted.load(Ordering::Acquire)
    }

    /// Returns true exactly once for an evicted connection (counter gate).
    pub(crate) fn take_eviction_count(&self) -> bool {
        self.is_evicted() && !self.eviction_counted.swap(true, Ordering::AcqRel)
    }

    /// Marks the connection closed: future pushes fail fast.
    pub(crate) fn mark_closed(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

/// Send handle to one broker connection's `Outbound` queue. Cheap to
/// clone; routing code holds one per live subscriber.
#[derive(Clone)]
pub struct FrameSender(Arc<Outbound>);

impl std::fmt::Debug for FrameSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameSender")
            .field("conn", &self.0.conn)
            .finish_non_exhaustive()
    }
}

impl FrameSender {
    pub(crate) fn new(out: Arc<Outbound>) -> FrameSender {
        FrameSender(out)
    }

    /// A sender for a connection that is already gone: every send fails
    /// with [`MqttError::Disconnected`]. Lets routing metadata be built
    /// without a transport (index tests).
    pub fn closed() -> Result<FrameSender> {
        let (wake, _) = crate::reactor::waker().map_err(|_| MqttError::Disconnected)?;
        let out = Outbound::new(0, 0, Arc::new(WriteScheduler::new(wake)));
        out.mark_closed();
        Ok(FrameSender(out))
    }

    /// Queues raw frame bytes for the owner shard to write.
    pub fn send_frame(&self, frame: Bytes) -> Result<()> {
        self.0.push(frame)
    }

    /// Encodes and queues one packet.
    pub fn send_packet(&self, packet: &Packet) -> Result<()> {
        self.send_frame(codec::encode(packet)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, Publish};
    use crate::topic::TopicName;

    fn link() -> (LinkEnd, LinkEnd) {
        let (a, b) = UnixStream::pair().unwrap();
        (LinkEnd::new(Stream::Unix(a)), LinkEnd::new(Stream::Unix(b)))
    }

    fn publish(i: usize, len: usize) -> Bytes {
        codec::encode(&Packet::Publish(Publish::simple(
            TopicName::new(format!("t/{i}")).unwrap(),
            vec![i as u8; len],
        )))
        .unwrap()
    }

    #[test]
    fn frames_flow_both_directions() {
        let (a, b) = link();
        let hello = publish(1, 5);
        a.send_frame(hello.clone()).unwrap();
        assert_eq!(b.recv_frame().unwrap(), hello);
        let world = publish(2, 5);
        b.send_frame(world.clone()).unwrap();
        assert_eq!(a.recv_frame().unwrap(), world);
    }

    #[test]
    fn packets_roundtrip_over_link() {
        let (a, b) = link();
        let p = Packet::Publish(Publish::simple(
            TopicName::new("x/y").unwrap(),
            b"payload".to_vec(),
        ));
        a.send_packet(&p).unwrap();
        assert_eq!(b.recv_packet().unwrap(), p);
    }

    #[test]
    fn recv_timeout_fires() {
        let (a, _b) = link();
        let err = a.recv_frame_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, MqttError::Timeout);
    }

    #[test]
    fn dropped_peer_disconnects() {
        let (a, b) = link();
        drop(b);
        assert_eq!(
            a.send_frame(publish(0, 1)).unwrap_err(),
            MqttError::Disconnected
        );
        assert_eq!(a.recv_frame().unwrap_err(), MqttError::Disconnected);
    }

    #[test]
    fn dropping_the_writer_half_closes_the_connection() {
        let (a, b) = link();
        let (tx, _rx) = a.split();
        drop(tx);
        assert_eq!(b.recv_frame().unwrap_err(), MqttError::Disconnected);
    }

    #[test]
    fn threaded_pingpong() {
        let (a, b) = link();
        let t = std::thread::spawn(move || {
            for _ in 0..100 {
                let f = b.recv_frame().unwrap();
                b.send_frame(f).unwrap();
            }
        });
        for i in 0..100 {
            let msg = publish(i, i);
            a.send_frame(msg.clone()).unwrap();
            assert_eq!(a.recv_frame().unwrap(), msg);
        }
        t.join().unwrap();
    }

    /// Serves `data` in the given piece sizes, one piece per `read`.
    struct Dribble<'a> {
        data: &'a [u8],
        pieces: std::vec::IntoIter<usize>,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self
                .pieces
                .next()
                .unwrap_or(self.data.len())
                .min(buf.len())
                .min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn random_split_points_yield_identical_frames() {
        // xorshift64: a fixed, dependency-free split-point source.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = move |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        // Tiny control frames mixed with frames past READ_CHUNK and one
        // past MAX_PREALLOC, pipelined into one stream.
        let frames: Vec<Bytes> = (0..40)
            .map(|i| {
                let len = match i % 5 {
                    0 => 70 * 1024,
                    1 => READ_CHUNK - 3,
                    _ => below(300),
                };
                publish(i, len)
            })
            .chain(std::iter::once(publish(99, MAX_PREALLOC + 5000)))
            .collect();
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        for round in 0..20 {
            let mut pieces = Vec::new();
            let mut left = wire.len();
            while left > 0 {
                let max = if round % 2 == 0 { 8 } else { 100_000 };
                let n = (1 + below(max)).min(left);
                pieces.push(n);
                left -= n;
            }
            let mut src = Dribble {
                data: &wire,
                pieces: pieces.into_iter(),
            };
            let mut reader = FrameReader::default();
            let mut got = Vec::new();
            loop {
                while let Some(frame) = reader.next_frame().unwrap() {
                    got.push(frame);
                }
                if reader.read_from(&mut src).unwrap().0 == 0 {
                    break;
                }
            }
            assert_eq!(got, frames, "split pattern {round}");
            assert_eq!(reader.filled, 0, "no bytes left behind");
        }
    }

    #[test]
    fn malformed_length_prefix_is_an_error_after_good_frames() {
        let good = publish(1, 10);
        let mut wire = good.to_vec();
        wire.extend_from_slice(&[0x30, 0xff, 0xff, 0xff, 0xff, 0x01]);
        let mut reader = FrameReader::default();
        reader.read_from(&wire[..]).unwrap();
        assert_eq!(reader.next_frame().unwrap(), Some(good));
        assert!(reader.next_frame().is_err());
    }

    #[test]
    fn tcp_outbound_evicts_past_watermark() {
        let (wake, _recv) = crate::reactor::waker().unwrap();
        let sched = Arc::new(WriteScheduler::new(wake));
        let out = Outbound::new(1, 10, Arc::clone(&sched));
        let tx = FrameSender::new(Arc::clone(&out));
        tx.send_frame(Bytes::from_static(b"123456")).unwrap();
        assert!(!out.is_evicted());
        // Crossing the 10-byte watermark marks the slow consumer.
        tx.send_frame(Bytes::from_static(b"789abc")).unwrap();
        assert!(out.is_evicted());
        assert_eq!(
            tx.send_frame(Bytes::from_static(b"x")).unwrap_err(),
            MqttError::Disconnected
        );
        assert!(out.take_eviction_count());
        assert!(!out.take_eviction_count(), "counted exactly once");
        // Both frames were scheduled as one flush pass.
        assert_eq!(sched.take(), vec![1]);
    }
}
