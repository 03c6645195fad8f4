//! Length-prefixed framing over a TCP stream.
//!
//! A frame is `u32 length ‖ body`. One `writev` per post; one write per
//! window of results: [`write_frame`] hands a post's prefix and body to
//! the socket in one vectored write, while a target queues a window's
//! result frames in a buffer (`write_frame_parts` writes into a
//! `Vec<u8>` as into a socket) that goes out whole. A [`FrameReader`]
//! returns every frame a single `read` delivered before it reads again.

use ham::codec::Wire;
use ham::HamError;
use std::io::{self, ErrorKind, IoSlice, Read, Write};

/// Maximum accepted frame size (defensive bound against corrupt length
/// prefixes).
pub const MAX_FRAME: u32 = 64 << 20;

/// Bytes of the length prefix in front of every frame body.
pub(crate) const PREFIX: usize = 4;

/// A [`FrameReader`]'s buffer before any frame outgrows it.
const READ_BUF: usize = 16 << 10;

/// Write one frame: `u32 length ‖ body`, in one vectored write.
pub fn write_frame(stream: &mut impl Write, body: &[u8]) -> io::Result<()> {
    write_frame_parts(stream, body, &[])
}

/// Write the frame `u32 length ‖ head ‖ tail` in one vectored write, so
/// a caller holding the body in two places need not join them first.
pub(crate) fn write_frame_parts(
    stream: &mut impl Write,
    head: &[u8],
    tail: &[u8],
) -> io::Result<()> {
    let len = u32::try_from(head.len() + tail.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "frame exceeds MAX_FRAME"))?;
    let prefix = len.to_le_bytes();
    let mut parts = [&prefix[..], head, tail];
    while parts.iter().any(|p| !p.is_empty()) {
        let mut n = match stream.write_vectored(&parts.map(IoSlice::new)) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        // A short write: drop what went out and offer the rest again.
        for p in &mut parts {
            let k = n.min(p.len());
            *p = &p[k..];
            n -= k;
        }
    }
    stream.flush()
}

/// The body length a prefix announces, bounded by [`MAX_FRAME`].
fn body_len(prefix: [u8; PREFIX]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte bound"),
        ));
    }
    Ok(len as usize)
}

/// How large a receive buffer holding `have` received bytes may become
/// on its way to `need`: at most double, so memory follows the bytes a
/// peer has actually sent, never the length it merely claims.
fn grown(have: usize, need: usize) -> usize {
    need.min(2 * have.max(READ_BUF))
}

/// `read` that retries on `Interrupted`.
fn read_some(stream: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    loop {
        match stream.read(buf) {
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            done => return done,
        }
    }
}

/// Read one frame and not a byte more; `Ok(None)` on clean EOF at a
/// frame boundary. For handshakes and RPCs, where the next reader of
/// the stream may be someone else; a message loop uses [`FrameReader`].
pub fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; PREFIX];
    match read_some(stream, &mut prefix)? {
        0 => return Ok(None),
        got => stream.read_exact(&mut prefix[got..])?,
    }
    let len = body_len(prefix)?;
    let mut body = vec![0u8; grown(0, len)];
    let mut at = 0;
    loop {
        stream.read_exact(&mut body[at..])?;
        at = body.len();
        if at == len {
            return Ok(Some(body));
        }
        body.resize(grown(at, len), 0);
    }
}

/// Buffered frame reader for one stream: each `read` takes whatever the
/// socket holds, and [`Self::next_frame`] serves frames from the buffer
/// until it runs dry. The buffer starts at 16 KiB and grows to the
/// largest frame seen.
pub struct FrameReader {
    /// Storage; `buf[start..end]` holds received, not yet returned bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self {
            buf: vec![0; READ_BUF],
            start: 0,
            end: 0,
        }
    }

    /// True while received bytes wait in the buffer: the next
    /// [`Self::next_frame`] returns a frame without touching the stream,
    /// or finishes one whose first bytes are in.
    pub(crate) fn has_buffered(&self) -> bool {
        self.start != self.end
    }

    /// The next frame's body; `Ok(None)` on clean EOF at a frame
    /// boundary. Reads from `stream` only when the buffer holds no
    /// complete frame.
    pub fn next_frame(&mut self, stream: &mut impl Read) -> io::Result<Option<&[u8]>> {
        loop {
            let have = self.end - self.start;
            let need = match self.buf[self.start..self.end].first_chunk::<PREFIX>() {
                Some(prefix) => PREFIX + body_len(*prefix)?,
                None => PREFIX,
            };
            if have >= need {
                let body = self.start + PREFIX..self.start + need;
                self.start += need;
                return Ok(Some(&self.buf[body]));
            }
            self.make_room(need);
            match read_some(stream, &mut self.buf[self.end..])? {
                0 if have == 0 => return Ok(None),
                0 => return Err(ErrorKind::UnexpectedEof.into()),
                n => self.end += n,
            }
        }
    }

    /// Free space behind `end` for a frame of `need` bytes starting at
    /// `start`: slide the pending bytes (if any) to the front when the
    /// frame would not fit where it lies, and grow only a buffer that
    /// received bytes have filled.
    fn make_room(&mut self, need: usize) {
        if self.start == self.end || self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            self.buf.resize(grown(self.end, need), 0);
        }
    }
}

/// Control-channel operations (synchronous RPC).
#[derive(Debug, PartialEq, Eq)]
pub enum ControlOp<'a> {
    /// Allocate `bytes`; response: `u64` address.
    Alloc {
        /// Requested size.
        bytes: u64,
    },
    /// Free the allocation at `addr`; response: empty.
    Free {
        /// Allocation start.
        addr: u64,
    },
    /// Write `data` at `addr`; response: empty.
    Put {
        /// Destination address.
        addr: u64,
        /// The bytes, borrowed from the caller (sending) or from the
        /// frame body (receiving).
        data: &'a [u8],
    },
    /// Read `len` bytes at `addr`; response: the bytes.
    Get {
        /// Source address.
        addr: u64,
        /// Length to read.
        len: u64,
    },
    /// Health probe; response: the echoed `echo` value. The host's
    /// probe loop uses the round trip itself as the liveness signal.
    Ping {
        /// Opaque value the target echoes back.
        echo: u64,
    },
}

impl<'a> ControlOp<'a> {
    /// Write as one frame, `op ‖ u64 ‖ rest`. A `Put`'s data goes from
    /// the caller's slice to the socket without an intermediate copy.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let len_bytes;
        let (op, word, rest): (u8, u64, &[u8]) = match *self {
            ControlOp::Alloc { bytes } => (1, bytes, &[]),
            ControlOp::Free { addr } => (2, addr, &[]),
            ControlOp::Put { addr, data } => (3, addr, data),
            ControlOp::Get { addr, len } => {
                len_bytes = len.to_le_bytes();
                (4, addr, &len_bytes)
            }
            ControlOp::Ping { echo } => (5, echo, &[]),
        };
        let mut head = [op; 9];
        head[1..].copy_from_slice(&word.to_le_bytes());
        write_frame_parts(stream, &head, rest)
    }

    /// Decode from a frame body; a `Put`'s data stays in the body. Only a
    /// `Put` carries bytes after its word and only a `Get` a second word:
    /// anything else that follows is corruption, since `write_to` never
    /// sends it.
    pub fn decode(body: &'a [u8]) -> Result<Self, String> {
        let (&op, rest) = body.split_first().ok_or("empty control frame")?;
        let (word, rest) = rest
            .split_first_chunk::<8>()
            .ok_or_else(|| format!("truncated control op {op}"))?;
        let word = u64::from_le_bytes(*word);
        match (op, rest) {
            (1, []) => Ok(ControlOp::Alloc { bytes: word }),
            (2, []) => Ok(ControlOp::Free { addr: word }),
            (3, data) => Ok(ControlOp::Put { addr: word, data }),
            (4, len) => <[u8; 8]>::try_from(len)
                .map(|len| ControlOp::Get {
                    addr: word,
                    len: u64::from_le_bytes(len),
                })
                .map_err(|_| format!("get needs an 8-byte length, got {} bytes", len.len())),
            (5, []) => Ok(ControlOp::Ping { echo: word }),
            (1 | 2 | 5, extra) => Err(format!(
                "{} trailing bytes after control op {op}",
                extra.len()
            )),
            _ => Err(format!("unknown control op {op}")),
        }
    }
}

/// The target's discovery/resume handshake, written as the first frame
/// on a freshly-accepted message connection. Announces the target's
/// capabilities (the host sizes its `TargetPool` entry from them) and —
/// the resume half — the device-side dedup watermark, so the host can
/// replay exactly the provably-unexecuted in-flight frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Announce {
    /// The target's node id.
    pub node: u16,
    /// Device worker lanes (simulated VE cores).
    pub lanes: u32,
    /// Scheduler credit limit the target asks the host to respect.
    pub credit_limit: u32,
    /// Target memory size in bytes.
    pub mem_bytes: u64,
    /// Max executed seq from previous sessions (`None` on a fresh
    /// target: nothing executed yet).
    pub watermark: Option<u64>,
}

/// On the wire, through the codec:
/// `node ‖ lanes ‖ credit_limit ‖ mem_bytes ‖ Option<watermark>`, 19 bytes
/// without a watermark and 27 with one.
impl Wire for Announce {
    fn encode(&self, out: &mut Vec<u8>) {
        self.node.encode(out);
        self.lanes.encode(out);
        self.credit_limit.encode(out);
        self.mem_bytes.encode(out);
        self.watermark.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, HamError> {
        Ok(Announce {
            node: Wire::decode(input)?,
            lanes: Wire::decode(input)?,
            credit_limit: Wire::decode(input)?,
            mem_bytes: Wire::decode(input)?,
            watermark: Wire::decode(input)?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ham::codec;
    use proptest::prelude::*;
    use std::io::Cursor;

    /// A stream that hands out `data` in pieces — `chunks[i]` bytes on
    /// the i-th `read` (cycling) — and counts the calls.
    struct Chunked {
        data: Vec<u8>,
        pos: usize,
        chunks: Vec<usize>,
        calls: usize,
    }

    impl Chunked {
        fn new(data: Vec<u8>, chunks: Vec<usize>) -> Self {
            Self {
                data,
                pos: 0,
                chunks,
                calls: 0,
            }
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let chunk = self.chunks[self.calls % self.chunks.len()];
            self.calls += 1;
            let n = chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A sink that accepts at most `cap` bytes per call, vectored or
    /// not, and counts the calls.
    pub(crate) struct ShortWriter {
        pub(crate) out: Vec<u8>,
        cap: usize,
        pub(crate) calls: usize,
    }

    impl ShortWriter {
        pub(crate) fn new(cap: usize) -> Self {
            Self {
                out: Vec::new(),
                cap,
                calls: 0,
            }
        }
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let before = self.out.len();
            for b in bufs {
                let room = self.cap - (self.out.len() - before);
                self.out.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Every frame a reader yields, then how the stream ended:
    /// `Ok(())` for clean EOF at a boundary, else the error kind.
    type Drained = (Vec<Vec<u8>>, Result<(), ErrorKind>);

    fn drain(mut next: impl FnMut() -> io::Result<Option<Vec<u8>>>) -> Drained {
        let mut frames = Vec::new();
        loop {
            match next() {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => return (frames, Ok(())),
                Err(e) => return (frames, Err(e.kind())),
            }
        }
    }

    fn drain_reader(stream: &mut impl Read) -> Drained {
        let mut frames = FrameReader::new();
        drain(|| Ok(frames.next_frame(stream)?.map(<[u8]>::to_vec)))
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur).unwrap().unwrap(), Vec::<u8>::new());
        assert_eq!(read_frame(&mut cur).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err());
        let too_long = vec![0u8; MAX_FRAME as usize + 1];
        assert!(write_frame(&mut Vec::new(), &too_long).is_err());
    }

    #[test]
    fn torn_frame_is_an_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut cur = Cursor::new(buf);
        assert!(read_frame(&mut cur).is_err(), "EOF mid-frame");
    }

    proptest! {
        /// However the stream chops the bytes up, a `FrameReader` yields
        /// what `read_frame` yields on the whole: the same frames, then
        /// the same end (clean EOF, or the same error).
        #[test]
        fn reader_agrees_with_read_frame_under_any_chunking(
            // (class, size): empty, small, or larger than the buffer.
            bodies in proptest::collection::vec((0usize..4, 0usize..2000), 0..12),
            // How the stream ends after the last whole frame.
            ending in 0usize..4,
            cut in 1usize..64,
            chunks in proptest::collection::vec(1usize..5000, 1..6),
            fill: u8,
        ) {
            let mut wire = Vec::new();
            for (class, size) in bodies {
                let len = match class {
                    0 => 0,
                    1 | 2 => size,
                    _ => READ_BUF + 17 * size,
                };
                write_frame(&mut wire, &vec![fill; len]).unwrap();
            }
            match ending {
                0 => {}
                // EOF inside a prefix, inside a body, and a hostile length.
                1 => wire.extend_from_slice(&[9, 0, 0][..cut % 3 + 1]),
                2 => {
                    write_frame(&mut wire, &[fill; 64]).unwrap();
                    wire.truncate(wire.len() - cut);
                }
                _ => wire.extend_from_slice(&(MAX_FRAME + cut as u32).to_le_bytes()),
            }
            let mut whole = Cursor::new(wire.clone());
            let expect = drain(|| read_frame(&mut whole));
            prop_assert_eq!(expect.1.is_ok(), ending == 0);
            prop_assert_eq!(drain_reader(&mut Chunked::new(wire.clone(), chunks.clone())), expect.clone());
            // `read_frame` itself, fed the same pieces.
            let mut pieces = Chunked::new(wire, chunks);
            prop_assert_eq!(drain(|| read_frame(&mut pieces)), expect);
        }
    }

    #[test]
    fn short_vectored_writes_emit_the_same_bytes() {
        let body: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut expect = (body.len() as u32).to_le_bytes().to_vec();
        expect.extend_from_slice(&body);
        for cap in [1, 2, 3, 4, 5, 7, 150, 303, 304, 4096] {
            let mut w = ShortWriter::new(cap);
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.out, expect, "cap {cap}");
            assert_eq!(w.calls, expect.len().div_ceil(cap), "cap {cap}");
            let mut w = ShortWriter::new(cap);
            write_frame_parts(&mut w, &body[..9], &body[9..]).unwrap();
            assert_eq!(w.out, expect, "two parts, cap {cap}");
        }
    }

    /// The syscall budget: one `writev` per frame written on its own (a
    /// post; a window's results share one write, see the transport's
    /// queue tests); one read per frame when frames arrive one at a
    /// time, fewer when a read delivers several.
    #[test]
    fn one_write_per_frame_and_at_most_one_read() {
        const FRAMES: usize = 100;
        let mut w = ShortWriter::new(usize::MAX);
        for i in 0..FRAMES {
            write_frame(&mut w, &[i as u8; 40]).unwrap();
        }
        assert_eq!(w.calls, FRAMES);

        // Ping-pong traffic: each read finds exactly one frame.
        let mut one_each = Chunked::new(w.out.clone(), vec![PREFIX + 40]);
        let mut frames = FrameReader::new();
        for i in 0..FRAMES {
            assert_eq!(
                frames.next_frame(&mut one_each).unwrap().unwrap(),
                [i as u8; 40]
            );
            assert!(!frames.has_buffered());
            assert_eq!(one_each.calls, i + 1);
        }

        // Pipelined traffic: one read delivers all that fits the buffer.
        let mut burst = Chunked::new(w.out, vec![usize::MAX]);
        let (got, end) = drain_reader(&mut burst);
        assert_eq!((got.len(), end), (FRAMES, Ok(())));
        let eof_read = 1;
        assert_eq!(
            burst.calls,
            (FRAMES * (PREFIX + 40)).div_ceil(READ_BUF) + eof_read
        );
    }

    /// `has_buffered` is what `try_recv` keys on: true for whole frames
    /// *and* for the first bytes of one, which `next_frame` then
    /// finishes from the stream.
    #[test]
    fn buffered_tail_of_a_read_is_visible_and_finished() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        write_frame(&mut wire, b"third").unwrap();
        // First read: frame one, frame two, and 3 bytes of frame three.
        let mut stream = Chunked::new(wire, vec![9 + 10 + 3, usize::MAX]);
        let mut frames = FrameReader::new();
        assert!(!frames.has_buffered());
        assert_eq!(frames.next_frame(&mut stream).unwrap().unwrap(), b"first");
        assert!(frames.has_buffered());
        assert_eq!(frames.next_frame(&mut stream).unwrap().unwrap(), b"second");
        assert_eq!((frames.has_buffered(), stream.calls), (true, 1));
        assert_eq!(frames.next_frame(&mut stream).unwrap().unwrap(), b"third");
        assert_eq!((frames.has_buffered(), stream.calls), (false, 2));
    }

    /// The buffer follows the frame, not the other way round: a frame
    /// larger than the buffer grows it, and the frames behind it in the
    /// same stream come out intact.
    #[test]
    fn buffer_grows_to_an_outsized_frame() {
        let big: Vec<u8> = (0..5 * READ_BUF).map(|i| (i % 251) as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, b"before").unwrap();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"after").unwrap();
        let (got, end) = drain_reader(&mut Cursor::new(wire));
        assert_eq!(end, Ok(()));
        assert_eq!(got, [b"before".to_vec(), big, b"after".to_vec()]);
    }

    #[test]
    fn control_ops_round_trip() {
        for op in [
            ControlOp::Alloc { bytes: 4096 },
            ControlOp::Free { addr: 64 },
            ControlOp::Put {
                addr: 128,
                data: &[1, 2, 3],
            },
            ControlOp::Get { addr: 256, len: 16 },
            ControlOp::Ping { echo: 0xfeed },
        ] {
            let mut wire = Vec::new();
            op.write_to(&mut wire).unwrap();
            let body = read_frame(&mut Cursor::new(wire)).unwrap().unwrap();
            assert_eq!(ControlOp::decode(&body).unwrap(), op);
        }
    }

    #[test]
    fn malformed_control_frames_rejected() {
        assert!(ControlOp::decode(&[]).is_err());
        assert!(ControlOp::decode(&[9, 0, 0]).is_err());
        assert!(ControlOp::decode(&[1, 0]).is_err());
        assert!(ControlOp::decode(&[4, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(ControlOp::decode(&[5, 1, 2]).is_err(), "truncated ping");
        // A fixed-size op followed by a stray byte is corrupt.
        let word = [0u8; 8];
        for op in [1u8, 2, 5] {
            let body = [&[op][..], &word, &[7]].concat();
            assert!(ControlOp::decode(&body).is_err(), "op {op} + 1 byte");
        }
        let get = [&[4u8][..], &word, &word, &[7]].concat();
        assert!(ControlOp::decode(&get).is_err(), "get + 1 byte");
    }

    fn announce(watermark: Option<u64>) -> Announce {
        Announce {
            node: 1,
            lanes: 8,
            credit_limit: 64,
            mem_bytes: 4096,
            watermark,
        }
    }

    #[test]
    fn announce_round_trips_with_and_without_watermark() {
        for wm in [None, Some(0u64), Some(u64::MAX)] {
            let a = Announce {
                node: 3,
                lanes: 8,
                credit_limit: 64,
                mem_bytes: 1 << 20,
                watermark: wm,
            };
            let bytes = codec::encode(&a).unwrap();
            assert_eq!(codec::decode::<Announce>(&bytes).unwrap(), a);
        }
    }

    /// The frames the hand-rolled encoder wrote before the codec did.
    #[test]
    fn announce_frames_keep_their_bytes() {
        let fresh = [1, 0, 8, 0, 0, 0, 64, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(codec::encode(&announce(None)).unwrap(), fresh);
        let resumed = [
            1, 0, 8, 0, 0, 0, 64, 0, 0, 0, 0, 16, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(codec::encode(&announce(Some(7))).unwrap(), resumed);
    }

    #[test]
    fn malformed_announce_rejected() {
        let good = codec::encode(&announce(Some(7))).unwrap();
        let decode = codec::decode::<Announce>;
        assert!(decode(&good[..good.len() - 1]).is_err());
        assert!(decode(&good[..10]).is_err());
        assert!(decode(&[]).is_err());
        let mut bad_tag = good.clone();
        bad_tag[18] = 9;
        assert!(decode(&bad_tag).is_err());
        let mut trailing = good;
        trailing.push(0);
        assert!(decode(&trailing).is_err(), "trailing garbage");
    }
}
