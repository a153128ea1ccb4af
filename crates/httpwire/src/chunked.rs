//! Chunked transfer coding (RFC 7230 §4.1).

/// Errors decoding a chunked body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// Input ended before the final zero-size chunk.
    Truncated,
    /// A chunk-size line was not valid hex.
    BadSize,
    /// A chunk was not terminated by CRLF.
    MissingCrlf,
}

impl std::fmt::Display for ChunkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkError::Truncated => write!(f, "chunked body truncated"),
            ChunkError::BadSize => write!(f, "bad chunk size line"),
            ChunkError::MissingCrlf => write!(f, "chunk missing CRLF terminator"),
        }
    }
}

impl std::error::Error for ChunkError {}

/// Encode `body` as chunked transfer coding with chunks of at most
/// `chunk_size` bytes.
///
/// # Panics
/// Panics if `chunk_size` is zero.
// tft-lint: hot-root — runs on every chunked response body
pub fn encode(body: &[u8], chunk_size: usize) -> Vec<u8> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(body.len() + 32);
    for chunk in body.chunks(chunk_size) {
        out.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
        out.extend_from_slice(chunk);
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"0\r\n\r\n");
    out
}

/// Streaming counterpart of [`encode`]: frame body pieces as they become
/// available, without buffering the whole body first.
///
/// Each [`push`](Encoder::push) emits one chunk frame for the bytes handed
/// to it (empty pushes emit nothing — a zero-sized chunk would read as the
/// terminator); [`finish`](Encoder::finish) emits the `0\r\n\r\n`
/// terminator. The concatenated output of any push segmentation decodes to
/// the concatenated inputs, which the round-trip tests below pin against
/// the hardened [`decode`].
///
/// ```
/// use httpwire::chunked::{decode, Encoder};
/// let mut enc = Encoder::new();
/// let mut wire = enc.push(b"hel");
/// wire.extend_from_slice(&enc.push(b"lo"));
/// wire.extend_from_slice(&enc.finish());
/// assert_eq!(decode(&wire).unwrap().0, b"hello");
/// ```
#[derive(Debug, Default)]
pub struct Encoder {
    finished: bool,
}

impl Encoder {
    /// A fresh encoder with no frames emitted yet.
    pub fn new() -> Encoder {
        Encoder { finished: false }
    }

    /// Frame `piece` as a single chunk. Returns the wire bytes to append
    /// to the stream; an empty `piece` produces no bytes.
    ///
    /// # Panics
    /// Panics if called after [`finish`](Encoder::finish) — the terminator
    /// is final, and bytes after it would corrupt the framing.
    pub fn push(&mut self, piece: &[u8]) -> Vec<u8> {
        assert!(!self.finished, "push after finish corrupts the stream");
        if piece.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(piece.len() + 20);
        out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
        out.extend_from_slice(piece);
        out.extend_from_slice(b"\r\n");
        out
    }

    /// Emit the zero-size terminator chunk, ending the stream. Idempotent:
    /// a second call returns no bytes.
    pub fn finish(&mut self) -> Vec<u8> {
        if self.finished {
            return Vec::new();
        }
        self.finished = true;
        b"0\r\n\r\n".to_vec()
    }
}

/// Decode a chunked body. Returns `(body, bytes_consumed)`.
// tft-lint: hot-root — runs on every chunked response body
// tft-lint: wire-entry — parses untrusted bytes
pub fn decode(input: &[u8]) -> Result<(Vec<u8>, usize), ChunkError> {
    let mut body = Vec::new();
    let mut pos = 0;
    loop {
        let rest = input.get(pos..).ok_or(ChunkError::Truncated)?;
        let line_len = find_crlf(rest).ok_or(ChunkError::Truncated)?;
        let size_line = rest.get(..line_len).ok_or(ChunkError::Truncated)?;
        // Ignore chunk extensions after ';'.
        let size_str = size_line.split(|&b| b == b';').next().unwrap_or_default();
        let size_str = std::str::from_utf8(size_str)
            .map_err(|_| ChunkError::BadSize)?
            .trim();
        if size_str.is_empty() {
            return Err(ChunkError::BadSize);
        }
        // The declared size is attacker-controlled: all offset arithmetic
        // below is checked so `ffffffffffffffff\r\n` can't overflow.
        let size = usize::from_str_radix(size_str, 16).map_err(|_| ChunkError::BadSize)?;
        pos += line_len + 2;
        if size == 0 {
            // Trailer section: we support only the empty trailer.
            let end = pos.checked_add(2).ok_or(ChunkError::Truncated)?;
            return match input.get(pos..end) {
                Some(b"\r\n") => Ok((body, end)),
                Some(_) => Err(ChunkError::MissingCrlf),
                None => Err(ChunkError::Truncated),
            };
        }
        let data_end = pos.checked_add(size).ok_or(ChunkError::Truncated)?;
        let crlf_end = data_end.checked_add(2).ok_or(ChunkError::Truncated)?;
        let chunk = input.get(pos..data_end).ok_or(ChunkError::Truncated)?;
        match input.get(data_end..crlf_end) {
            Some(b"\r\n") => {}
            Some(_) => return Err(ChunkError::MissingCrlf),
            None => return Err(ChunkError::Truncated),
        }
        body.extend_from_slice(chunk);
        pos = crlf_end;
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let body = b"The quick brown fox jumps over the lazy dog".to_vec();
        for chunk_size in [1, 3, 7, 1024] {
            let encoded = encode(&body, chunk_size);
            let (decoded, consumed) = decode(&encoded).unwrap();
            assert_eq!(decoded, body);
            assert_eq!(consumed, encoded.len());
        }
    }

    #[test]
    fn empty_body() {
        let encoded = encode(b"", 8);
        assert_eq!(encoded, b"0\r\n\r\n");
        let (decoded, consumed) = decode(&encoded).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(consumed, 5);
    }

    #[test]
    fn trailing_bytes_not_consumed() {
        let mut encoded = encode(b"hi", 8);
        encoded.extend_from_slice(b"NEXT MESSAGE");
        let (decoded, consumed) = decode(&encoded).unwrap();
        assert_eq!(decoded, b"hi");
        assert_eq!(&encoded[consumed..], b"NEXT MESSAGE");
    }

    #[test]
    fn chunk_extension_ignored() {
        let raw = b"2;ext=1\r\nhi\r\n0\r\n\r\n";
        let (decoded, _) = decode(raw).unwrap();
        assert_eq!(decoded, b"hi");
    }

    #[test]
    fn truncation_detected() {
        let encoded = encode(b"hello world", 4);
        for cut in 0..encoded.len() {
            match decode(&encoded[..cut]) {
                Err(_) => {}
                Ok((_, consumed)) => assert!(consumed <= cut),
            }
        }
        assert_eq!(decode(b"5\r\nhel"), Err(ChunkError::Truncated));
    }

    #[test]
    fn bad_size_rejected() {
        assert_eq!(decode(b"zz\r\n\r\n"), Err(ChunkError::BadSize));
        assert_eq!(decode(b"\r\n\r\n"), Err(ChunkError::BadSize));
    }

    #[test]
    fn missing_crlf_rejected() {
        assert_eq!(decode(b"2\r\nhiXX0\r\n\r\n"), Err(ChunkError::MissingCrlf));
    }

    #[test]
    fn streaming_encoder_roundtrips_any_segmentation() {
        let body = b"incremental tables, then the annex, then done";
        for step in [1, 2, 5, 11, body.len()] {
            let mut enc = Encoder::new();
            let mut wire = Vec::new();
            for piece in body.chunks(step) {
                wire.extend_from_slice(&enc.push(piece));
            }
            wire.extend_from_slice(&enc.finish());
            let (decoded, consumed) = decode(&wire).unwrap();
            assert_eq!(decoded, body, "step {step}");
            assert_eq!(consumed, wire.len(), "step {step}");
        }
    }

    #[test]
    fn streaming_encoder_matches_whole_body_encode() {
        // One push per fixed-size chunk is exactly the batch encoding.
        let body = b"the two encoders agree on the wire";
        let mut enc = Encoder::new();
        let mut wire = Vec::new();
        for piece in body.chunks(7) {
            wire.extend_from_slice(&enc.push(piece));
        }
        wire.extend_from_slice(&enc.finish());
        assert_eq!(wire, encode(body, 7));
    }

    #[test]
    fn streaming_encoder_skips_empty_pieces() {
        // A zero-length chunk frame would read as the terminator; empty
        // pushes must emit nothing rather than end the stream early.
        let mut enc = Encoder::new();
        let mut wire = enc.push(b"");
        assert!(wire.is_empty());
        wire.extend_from_slice(&enc.push(b"tail"));
        wire.extend_from_slice(&enc.push(b""));
        wire.extend_from_slice(&enc.finish());
        let (decoded, _) = decode(&wire).unwrap();
        assert_eq!(decoded, b"tail");
    }

    #[test]
    fn streaming_encoder_finish_is_idempotent() {
        let mut enc = Encoder::new();
        assert_eq!(enc.finish(), b"0\r\n\r\n");
        assert!(enc.finish().is_empty());
    }

    #[test]
    #[should_panic(expected = "push after finish")]
    fn streaming_encoder_rejects_push_after_finish() {
        let mut enc = Encoder::new();
        let _ = enc.finish();
        let _ = enc.push(b"late");
    }

    #[test]
    fn streaming_prefix_decodes_incrementally() {
        // The serving pattern: a client that has only the frames emitted so
        // far (no terminator) sees Truncated, and sees the full body the
        // moment finish() lands.
        let mut enc = Encoder::new();
        let mut wire = enc.push(b"partial ");
        assert_eq!(decode(&wire), Err(ChunkError::Truncated));
        wire.extend_from_slice(&enc.push(b"results"));
        assert_eq!(decode(&wire), Err(ChunkError::Truncated));
        wire.extend_from_slice(&enc.finish());
        assert_eq!(decode(&wire).unwrap().0, b"partial results");
    }
}
