//! Length-prefixed framing for [`ProtocolMessage`] on byte streams.
//!
//! The simulator and the in-process live router move `ProtocolMessage`
//! *values*; a real transport moves *bytes*. This module defines the one
//! frame format both ends of a socket agree on:
//!
//! ```text
//! +----------------+----------------------------------------+
//! | len: u32 (BE)  | body: ProtocolMessage (Wire encoding)  |
//! +----------------+----------------------------------------+
//!      4 bytes            exactly `len` bytes
//! ```
//!
//! The body reuses the existing [`Wire`] codec from [`crate::wire`], so a
//! frame's payload is byte-identical to what the codec tests already
//! cover; framing adds only the delimiter. Design points:
//!
//! * **Max frame.** A peer that announces a length above the decoder's
//!   limit is rejected *before* any buffering of the body — a 4-byte
//!   header cannot make the receiver allocate gigabytes. Encoding checks
//!   the same limit so a local oversized message fails fast.
//! * **Partial reads.** [`FrameDecoder`] is incremental: feed it whatever
//!   byte windows the socket yields (`feed`), pull zero or more complete
//!   frames (`next_frame`). Frames split at arbitrary boundaries —
//!   including mid-header — reassemble exactly.
//! * **No-copy completion.** The decoder buffers into a [`BytesMut`] and
//!   *splits off* each completed body ([`BytesMut::split_to`]): the body
//!   bytes are handed out as a refcounted slice of the receive buffer,
//!   never copied into a fresh allocation and never memmoved past.
//! * **Trailing bytes.** A body that decodes short of its declared
//!   length is a protocol error, not silently ignored: the encoder and
//!   decoder must agree on every byte.
//!
//! # Multiplexing envelope (body tag 4)
//!
//! A pipelined transport carries many in-flight exchanges on one
//! connection and needs each frame tagged with the request id it answers.
//! Body tag `4` is that envelope:
//!
//! ```text
//! body = 4 | corr: varint | inner ProtocolMessage (tags 0..=3)
//! ```
//!
//! `ProtocolMessage` tag 5 (the §7 handshake) is deliberately *not*
//! carried in envelopes: a handshake authenticates the connection, not a
//! request, so an enveloped handshake body is a decode error.
//!
//! The envelope is **version-gated by construction**: tags 0..=3 are the
//! pre-multiplexing frame bodies, still encoded and decoded byte-for-byte
//! identically, so a new decoder reads an old peer's frames and an old
//! peer never receives tag 4 unless it first spoke it (transports mark a
//! connection mux-speaking only after *receiving* an enveloped frame, and
//! clients that open with the envelope accept un-enveloped replies from
//! old servers). A tag-4 body nested inside another tag-4 body is
//! undecodable (`ProtocolMessage` knows only tags 0..=3), so the envelope
//! cannot recurse.

use crate::wire::ProtocolMessage;
use bytes::{BufMut, Bytes, BytesMut};
use gis_ldap::codec::{put_varint, Wire, WireReader};
use gis_ldap::{LdapError, Result};

/// Default ceiling on one frame's body length. Generous for directory
/// result sets (tens of thousands of entries) while bounding what a
/// malicious or corrupted peer can make the receiver buffer.
pub const MAX_FRAME: usize = 8 << 20; // 8 MiB

/// Length of the frame header.
pub const FRAME_HEADER: usize = 4;

/// Body tag of the multiplexing envelope (`corr` + inner message).
/// Tags 0..=3 are the plain [`ProtocolMessage`] wire tags.
pub const MUX_TAG: u8 = 4;

/// One decoded frame: the message, the correlation id when the frame
/// travelled in a [`MUX_TAG`] envelope, and the raw body slice (split
/// off the decoder's receive buffer without copying).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Correlation id from the multiplexing envelope; `None` for plain
    /// (pre-multiplexing) frames.
    pub corr: Option<u64>,
    /// The decoded message.
    pub msg: ProtocolMessage,
    /// The frame body exactly as received — a refcounted slice of the
    /// decoder's buffer, not a copy.
    pub body: Bytes,
}

/// Encode `msg` as one length-prefixed frame, appending to `buf`.
/// Fails (rather than emitting an undecodable frame) if the body would
/// exceed `max_frame`.
pub fn encode_frame_limited(
    msg: &ProtocolMessage,
    buf: &mut BytesMut,
    max_frame: usize,
) -> Result<()> {
    let start = buf.len();
    buf.put_u32(0); // patched below
    msg.encode(buf);
    finish_frame(buf, start, max_frame)
}

/// Encode `msg` inside a [`MUX_TAG`] envelope carrying `corr`, as one
/// length-prefixed frame appended to `buf`. Same ceiling behavior as
/// [`encode_frame_limited`].
pub fn encode_mux_frame_limited(
    corr: u64,
    msg: &ProtocolMessage,
    buf: &mut BytesMut,
    max_frame: usize,
) -> Result<()> {
    let start = buf.len();
    buf.put_u32(0); // patched below
    buf.put_u8(MUX_TAG);
    put_varint(buf, corr);
    msg.encode(buf);
    finish_frame(buf, start, max_frame)
}

/// Patch the length header at `start`, enforcing the body ceiling.
fn finish_frame(buf: &mut BytesMut, start: usize, max_frame: usize) -> Result<()> {
    let body = buf.len() - start - FRAME_HEADER;
    if body > max_frame {
        buf.truncate(start);
        return Err(LdapError::Codec(format!(
            "frame body {body} bytes exceeds max frame {max_frame}"
        )));
    }
    let len = (body as u32).to_be_bytes();
    buf[start..start + FRAME_HEADER].copy_from_slice(&len);
    Ok(())
}

/// [`encode_frame_limited`] with the default [`MAX_FRAME`] ceiling.
pub fn encode_frame(msg: &ProtocolMessage, buf: &mut BytesMut) -> Result<()> {
    encode_frame_limited(msg, buf, MAX_FRAME)
}

/// Encode `msg` as one framed byte vector (default ceiling).
pub fn frame_bytes(msg: &ProtocolMessage) -> Result<Vec<u8>> {
    let mut buf = BytesMut::new();
    encode_frame(msg, &mut buf)?;
    Ok(buf.to_vec())
}

/// Incremental frame reassembler for one byte stream.
///
/// Feed raw socket reads in with [`feed`](FrameDecoder::feed); drain
/// complete frames with [`next_frame`](FrameDecoder::next_frame). Any
/// error is terminal for the stream: framing has lost sync, so the
/// connection should be dropped, never resynchronized.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: BytesMut,
    /// Body length parsed from the current header, once 4 bytes arrived.
    pending: Option<usize>,
    max_frame: usize,
    poisoned: bool,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// Decoder with the default [`MAX_FRAME`] ceiling.
    pub fn new() -> FrameDecoder {
        FrameDecoder::with_max_frame(MAX_FRAME)
    }

    /// Decoder with an explicit per-frame body ceiling.
    pub fn with_max_frame(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: BytesMut::new(),
            pending: None,
            max_frame,
            poisoned: false,
        }
    }

    /// Append raw bytes read from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when a partial frame (header or body) sits in the buffer —
    /// the peer owes us bytes. Used by read-deadline logic: an idle
    /// connection between frames is fine, a stalled half-frame is not.
    pub fn mid_frame(&self) -> bool {
        self.pending.is_some() || !self.buf.is_empty()
    }

    /// Buffered bytes not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next complete frame. `Ok(None)` means more
    /// bytes are needed. An `Err` poisons the decoder: the stream can no
    /// longer be trusted to be frame-aligned, and every later call
    /// returns an error too.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        if self.poisoned {
            return Err(LdapError::Codec("frame stream poisoned".into()));
        }
        // Parse the header once 4 bytes are available.
        if self.pending.is_none() {
            if self.buf.len() < FRAME_HEADER {
                return Ok(None);
            }
            let len =
                u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if len > self.max_frame {
                self.poisoned = true;
                return Err(LdapError::Codec(format!(
                    "frame body {len} bytes exceeds max frame {}",
                    self.max_frame
                )));
            }
            self.buf.advance(FRAME_HEADER);
            self.pending = Some(len);
        }
        let len = self.pending.unwrap_or(0);
        if self.buf.len() < len {
            return Ok(None);
        }
        // Split the body off the receive buffer: the frame's bytes are
        // shared out, not copied, and the remainder is not moved.
        let body = self.buf.split_to(len).freeze();
        self.pending = None;
        match decode_body(&body) {
            Ok((corr, msg)) => Ok(Some(Frame { corr, msg, body })),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// [`next_frame`](Self::next_frame), discarding the envelope: just
    /// the message. Call sites that predate multiplexing (and tests of
    /// the plain framing) keep working unchanged.
    ///
    /// Not `Iterator::next`: `Ok(None)` means "feed me more", not "done".
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<ProtocolMessage>> {
        Ok(self.next_frame()?.map(|f| f.msg))
    }
}

/// Decode one frame body: an optional [`MUX_TAG`] envelope, then the
/// inner message, which must consume the body exactly.
fn decode_body(body: &[u8]) -> Result<(Option<u64>, ProtocolMessage)> {
    let mut r = WireReader::new(body);
    let corr = if body.first() == Some(&MUX_TAG) {
        r.read_u8()?;
        Some(r.read_varint()?)
    } else {
        None
    };
    let msg = ProtocolMessage::decode(&mut r)?;
    if !r.is_done() {
        return Err(LdapError::Codec(format!(
            "frame body has {} trailing bytes",
            r.remaining()
        )));
    }
    // The handshake authenticates the connection, not a request: it has
    // no correlation id, and letting it ride the envelope would let a
    // peer smuggle auth frames past transports that route enveloped
    // frames purely by corr.
    if corr.is_some() && matches!(msg, ProtocolMessage::Handshake(_)) {
        return Err(LdapError::Codec("mux-enveloped handshake frame".into()));
    }
    Ok((corr, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grip::{GripReply, GripRequest, ResultCode, SearchSpec};
    use crate::grrp::GrrpMessage;
    use crate::trace::{TraceContext, TraceId};
    use gis_ldap::{Dn, Entry, LdapUrl};
    use gis_netsim::{secs, SimTime};

    fn sample() -> Vec<ProtocolMessage> {
        vec![
            ProtocolMessage::Request(GripRequest::Search {
                id: 7,
                spec: SearchSpec::lookup(Dn::parse("hn=h").unwrap()),
            }),
            ProtocolMessage::Reply(GripReply::SearchResult {
                id: 7,
                code: ResultCode::Success,
                entries: vec![Entry::at("hn=h").unwrap().with("load5", 0.25f64)],
                referrals: vec![LdapUrl::tcp("127.0.0.1", 5389)],
            }),
            ProtocolMessage::Grrp(GrrpMessage::register(
                LdapUrl::tcp("10.1.2.3", 2135),
                Dn::parse("hn=h, o=O1").unwrap(),
                SimTime::ZERO,
                secs(30),
            )),
            ProtocolMessage::Request(GripRequest::Unsubscribe { id: 1 }).traced(TraceContext {
                trace: TraceId(99),
                parent: 98,
            }),
        ]
    }

    #[test]
    fn receive_buffer_stays_bounded_on_a_long_lived_stream() {
        let msg = ProtocolMessage::Request(GripRequest::Search {
            id: 7,
            spec: SearchSpec::lookup(Dn::parse("hn=h, o=O1").unwrap()),
        });
        let framed = frame_bytes(&msg).unwrap();
        let mut dec = FrameDecoder::new();
        for i in 0..100_000 {
            // Alternate whole frames with frames split mid-header.
            if i % 2 == 0 {
                dec.feed(&framed);
            } else {
                dec.feed(&framed[..2]);
                assert!(dec.next().unwrap().is_none());
                dec.feed(&framed[2..]);
            }
            assert_eq!(dec.next().unwrap().unwrap(), msg);
        }
        assert!(!dec.mid_frame());
        assert!(
            dec.buf.capacity() <= 16 * framed.len(),
            "receive buffer grew to {} bytes",
            dec.buf.capacity()
        );
    }

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = BytesMut::new();
        for m in sample() {
            encode_frame(&m, &mut buf).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        for want in sample() {
            assert_eq!(dec.next().unwrap().unwrap(), want);
        }
        assert!(dec.next().unwrap().is_none());
        assert!(!dec.mid_frame());
    }

    #[test]
    fn frames_roundtrip_byte_at_a_time() {
        let mut buf = BytesMut::new();
        for m in sample() {
            encode_frame(&m, &mut buf).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in buf.iter() {
            dec.feed(std::slice::from_ref(b));
            while let Some(m) = dec.next().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, sample());
    }

    #[test]
    fn mux_envelope_roundtrips_with_corr() {
        let mut buf = BytesMut::new();
        for (i, m) in sample().into_iter().enumerate() {
            encode_mux_frame_limited(0xABC0 + i as u64, &m, &mut buf, MAX_FRAME).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        for (i, want) in sample().into_iter().enumerate() {
            let frame = dec.next_frame().unwrap().unwrap();
            assert_eq!(frame.corr, Some(0xABC0 + i as u64));
            assert_eq!(frame.msg, want);
        }
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn plain_and_mux_frames_interleave_on_one_stream() {
        // Version gating: a decoder serves old (plain) and new
        // (enveloped) senders on the same connection.
        let msgs = sample();
        let mut buf = BytesMut::new();
        encode_frame(&msgs[0], &mut buf).unwrap();
        encode_mux_frame_limited(42, &msgs[1], &mut buf, MAX_FRAME).unwrap();
        encode_frame(&msgs[2], &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        let f0 = dec.next_frame().unwrap().unwrap();
        assert_eq!((f0.corr, f0.msg), (None, msgs[0].clone()));
        let f1 = dec.next_frame().unwrap().unwrap();
        assert_eq!((f1.corr, f1.msg), (Some(42), msgs[1].clone()));
        let f2 = dec.next_frame().unwrap().unwrap();
        assert_eq!((f2.corr, f2.msg), (None, msgs[2].clone()));
    }

    #[test]
    fn handshake_frames_plain_only() {
        // A plain handshake frame decodes fine...
        let hello = ProtocolMessage::Handshake(crate::wire::Handshake::Hello {
            token: vec![1, 2, 3],
        });
        let mut buf = BytesMut::new();
        encode_frame(&hello, &mut buf).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!((f.corr, f.msg), (None, hello.clone()));
        // ...but a mux-enveloped one poisons the stream.
        let mut buf = BytesMut::new();
        encode_mux_frame_limited(5, &hello, &mut buf, MAX_FRAME).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert!(dec.next_frame().is_err());
        assert!(dec.next_frame().is_err(), "poisoned");
    }

    #[test]
    fn nested_mux_envelope_rejected() {
        // tag-4(corr, tag-4(corr, ...)) cannot decode: the inner message
        // must be a plain tag 0..=3. The stream poisons.
        let mut inner = BytesMut::new();
        inner.put_u8(MUX_TAG);
        put_varint(&mut inner, 7);
        sample()[0].encode(&mut inner);
        let mut body = BytesMut::new();
        body.put_u8(MUX_TAG);
        put_varint(&mut body, 8);
        body.extend_from_slice(&inner);
        let mut framed = BytesMut::new();
        framed.put_u32(body.len() as u32);
        framed.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        assert!(dec.next_frame().is_err());
        assert!(dec.next_frame().is_err(), "poisoned after nested envelope");
    }

    #[test]
    fn split_bodies_share_the_receive_buffer() {
        // No-copy completion: when all bytes are fed at once, every
        // decoded body is a sub-slice of the same buffer, so consecutive
        // bodies are contiguous (separated only by the next header).
        let mut buf = BytesMut::new();
        for m in sample() {
            encode_frame(&m, &mut buf).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        let mut bodies = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            bodies.push(f.body);
        }
        assert_eq!(bodies.len(), sample().len());
        for pair in bodies.windows(2) {
            let end = pair[0].as_ptr() as usize + pair[0].len();
            assert_eq!(
                end + FRAME_HEADER,
                pair[1].as_ptr() as usize,
                "bodies split off one allocation, not copied out"
            );
        }
    }

    #[test]
    fn mid_frame_reports_partial_state() {
        let bytes = frame_bytes(&sample()[0]).unwrap();
        let mut dec = FrameDecoder::new();
        assert!(!dec.mid_frame());
        dec.feed(&bytes[..2]); // half a header is still a partial frame
        assert!(dec.next().unwrap().is_none());
        assert!(dec.mid_frame());
        dec.feed(&bytes[2..bytes.len() - 1]);
        assert!(dec.next().unwrap().is_none());
        assert!(dec.mid_frame());
        dec.feed(&bytes[bytes.len() - 1..]);
        assert!(dec.next().unwrap().is_some());
        assert!(!dec.mid_frame());
    }

    #[test]
    fn oversized_header_rejected_before_buffering() {
        let mut dec = FrameDecoder::with_max_frame(1024);
        dec.feed(&(2048u32).to_be_bytes());
        let err = dec.next().unwrap_err();
        assert!(err.to_string().contains("max frame"), "{err}");
        // Poisoned: even valid bytes afterwards are refused.
        dec.feed(&frame_bytes(&sample()[0]).unwrap());
        assert!(dec.next().is_err());
    }

    #[test]
    fn encode_refuses_oversized_body() {
        let big = ProtocolMessage::Reply(GripReply::SearchResult {
            id: 1,
            code: ResultCode::Success,
            entries: vec![Entry::at("hn=h").unwrap().with("blob", "x".repeat(4096))],
            referrals: vec![],
        });
        let mut buf = BytesMut::new();
        assert!(encode_frame_limited(&big, &mut buf, 256).is_err());
        assert!(buf.is_empty(), "failed encode leaves no partial frame");
        assert!(encode_mux_frame_limited(9, &big, &mut buf, 256).is_err());
        assert!(buf.is_empty(), "failed mux encode leaves no partial frame");
        assert!(encode_frame_limited(&big, &mut buf, MAX_FRAME).is_ok());
    }

    #[test]
    fn max_size_frame_roundtrips_and_one_over_fails() {
        // Find the exact body size of a message, then frame it with a
        // ceiling exactly at and one byte below that size.
        let msg = ProtocolMessage::Reply(GripReply::SearchResult {
            id: 1,
            code: ResultCode::Success,
            entries: vec![Entry::at("hn=h").unwrap().with("blob", "y".repeat(1000))],
            referrals: vec![],
        });
        let body = msg.to_wire().len();
        let mut buf = BytesMut::new();
        encode_frame_limited(&msg, &mut buf, body).unwrap();
        let mut dec = FrameDecoder::with_max_frame(body);
        dec.feed(&buf);
        assert_eq!(dec.next().unwrap().unwrap(), msg);

        let mut buf = BytesMut::new();
        assert!(encode_frame_limited(&msg, &mut buf, body - 1).is_err());
        let mut dec = FrameDecoder::with_max_frame(body - 1);
        let mut framed = BytesMut::new();
        encode_frame(&msg, &mut framed).unwrap();
        dec.feed(&framed);
        assert!(dec.next().is_err());
    }

    #[test]
    fn trailing_bytes_in_body_rejected() {
        let bytes = frame_bytes(&sample()[0]).unwrap();
        // Lie about the length: declare one extra byte and pad it.
        let mut bad = Vec::new();
        let body = (bytes.len() - FRAME_HEADER + 1) as u32;
        bad.extend_from_slice(&body.to_be_bytes());
        bad.extend_from_slice(&bytes[FRAME_HEADER..]);
        bad.push(0xAA);
        let mut dec = FrameDecoder::new();
        dec.feed(&bad);
        let err = dec.next().unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn nested_traced_frame_rejected() {
        // Hand-build tag-3(ctx, tag-3(ctx, request)) — the codec refuses
        // it, and the frame decoder surfaces that as a stream error.
        let ctx = TraceContext {
            trace: TraceId(1),
            parent: 2,
        };
        let inner = ProtocolMessage::Request(GripRequest::Unsubscribe { id: 1 }).traced(ctx);
        let mut body = BytesMut::new();
        body.put_u8(3);
        gis_ldap::codec::put_varint(&mut body, ctx.trace.0);
        gis_ldap::codec::put_varint(&mut body, ctx.parent);
        inner.encode(&mut body);
        let mut framed = BytesMut::new();
        framed.put_u32(body.len() as u32);
        framed.extend_from_slice(&body);
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        let err = dec.next().unwrap_err();
        assert!(err.to_string().contains("nested traced"), "{err}");
    }
}
