//! RFC 1035 message wire format: encoding with name compression, decoding
//! with pointer-loop protection.

use crate::name::{DnsName, NameBuf, MAX_LABEL_LEN, MAX_NAME_LEN};
use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

/// Query/record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QType {
    /// IPv4 host address.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Start of authority.
    Soa,
    /// Domain name pointer.
    Ptr,
    /// Text strings.
    Txt,
    /// IPv6 host address.
    Aaaa,
    /// Any (query-only meta type).
    Any,
    /// A type we don't model, preserved numerically.
    Other(u16),
}

impl QType {
    /// Wire value.
    pub fn code(self) -> u16 {
        match self {
            QType::A => 1,
            QType::Ns => 2,
            QType::Cname => 5,
            QType::Soa => 6,
            QType::Ptr => 12,
            QType::Txt => 16,
            QType::Aaaa => 28,
            QType::Any => 255,
            QType::Other(v) => v,
        }
    }

    /// From wire value.
    pub fn from_code(v: u16) -> Self {
        match v {
            1 => QType::A,
            2 => QType::Ns,
            5 => QType::Cname,
            6 => QType::Soa,
            12 => QType::Ptr,
            16 => QType::Txt,
            28 => QType::Aaaa,
            255 => QType::Any,
            other => QType::Other(other),
        }
    }
}

impl substrate::json::ToJson for QType {
    fn to_json(&self) -> substrate::json::Json {
        substrate::json::Json::uint(u64::from(self.code()))
    }
}

impl substrate::json::FromJson for QType {
    fn from_json(v: &substrate::json::Json) -> Result<Self, substrate::json::JsonError> {
        let n = v
            .as_u64()
            .ok_or_else(|| substrate::json::JsonError::shape("QType: expected wire code"))?;
        u16::try_from(n)
            .map(QType::from_code)
            .map_err(|_| substrate::json::JsonError::shape("QType: code exceeds u16"))
    }
}

impl fmt::Display for QType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QType::A => write!(f, "A"),
            QType::Ns => write!(f, "NS"),
            QType::Cname => write!(f, "CNAME"),
            QType::Soa => write!(f, "SOA"),
            QType::Ptr => write!(f, "PTR"),
            QType::Txt => write!(f, "TXT"),
            QType::Aaaa => write!(f, "AAAA"),
            QType::Any => write!(f, "ANY"),
            QType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// Response code (RCODE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist — the paper's central signal (§4).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
    /// Any other code, preserved numerically (4 bits).
    Other(u8),
}

impl Rcode {
    /// Wire value (low 4 bits of the flags word).
    pub fn code(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0f,
        }
    }

    /// From wire value.
    pub fn from_code(v: u8) -> Self {
        match v & 0x0f {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

impl fmt::Display for Rcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rcode::NoError => write!(f, "NOERROR"),
            Rcode::FormErr => write!(f, "FORMERR"),
            Rcode::ServFail => write!(f, "SERVFAIL"),
            Rcode::NxDomain => write!(f, "NXDOMAIN"),
            Rcode::NotImp => write!(f, "NOTIMP"),
            Rcode::Refused => write!(f, "REFUSED"),
            Rcode::Other(v) => write!(f, "RCODE{v}"),
        }
    }
}

/// Record data for the types we model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// IPv4 address.
    A(Ipv4Addr),
    /// IPv6 address.
    Aaaa(Ipv6Addr),
    /// Name server.
    Ns(DnsName),
    /// Alias target.
    Cname(DnsName),
    /// Pointer target.
    Ptr(DnsName),
    /// Text strings (each ≤ 255 bytes on the wire).
    Txt(Vec<String>),
    /// Start of authority.
    Soa {
        /// Primary name server.
        mname: DnsName,
        /// Responsible mailbox (encoded as a name).
        rname: DnsName,
        /// Zone serial.
        serial: u32,
        /// Refresh interval (seconds).
        refresh: u32,
        /// Retry interval (seconds).
        retry: u32,
        /// Expire limit (seconds).
        expire: u32,
        /// Negative-caching TTL (seconds).
        minimum: u32,
    },
    /// Unmodelled rdata, preserved as raw bytes with its type code.
    Other(u16, Vec<u8>),
}

impl RData {
    /// The record type this data belongs to.
    pub fn rtype(&self) -> QType {
        match self {
            RData::A(_) => QType::A,
            RData::Aaaa(_) => QType::Aaaa,
            RData::Ns(_) => QType::Ns,
            RData::Cname(_) => QType::Cname,
            RData::Ptr(_) => QType::Ptr,
            RData::Txt(_) => QType::Txt,
            RData::Soa { .. } => QType::Soa,
            RData::Other(t, _) => QType::from_code(*t),
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: DnsName,
    /// Time to live (seconds).
    pub ttl: u32,
    /// Record data (the type is implied by the data).
    pub rdata: RData,
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Name being queried.
    pub qname: DnsName,
    /// Type being queried.
    pub qtype: QType,
}

/// Header flags we model (class is always IN; opcode always QUERY).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Response flag (QR).
    pub qr: bool,
    /// Authoritative answer (AA).
    pub aa: bool,
    /// Truncated (TC).
    pub tc: bool,
    /// Recursion desired (RD).
    pub rd: bool,
    /// Recursion available (RA).
    pub ra: bool,
    /// Response code.
    pub rcode: Rcode,
}

/// A complete DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction ID.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authority: Vec<Record>,
    /// Additional section.
    pub additional: Vec<Record>,
}

impl Message {
    /// A query for one name/type with RD set.
    pub fn query(id: u16, qname: DnsName, qtype: QType) -> Message {
        Message {
            id,
            flags: Flags {
                rd: true,
                ..Flags::default()
            },
            questions: vec![Question { qname, qtype }],
            answers: Vec::new(),
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// A response to `query` with the given rcode and answers; echoes the
    /// question section and sets QR/AA.
    pub fn respond(query: &Message, rcode: Rcode, answers: Vec<Record>) -> Message {
        Message {
            id: query.id,
            flags: Flags {
                qr: true,
                aa: true,
                rd: query.flags.rd,
                ra: false,
                tc: false,
                rcode,
            },
            questions: query.questions.clone(),
            answers,
            authority: Vec::new(),
            additional: Vec::new(),
        }
    }

    /// True if this is an NXDOMAIN response.
    pub fn is_nxdomain(&self) -> bool {
        self.flags.qr && self.flags.rcode == Rcode::NxDomain
    }

    /// First A-record address in the answer section, if any.
    pub fn first_a(&self) -> Option<Ipv4Addr> {
        self.answers.iter().find_map(|r| match r.rdata {
            RData::A(ip) => Some(ip),
            _ => None,
        })
    }
}

/// Errors decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Message ended before a field was complete.
    Truncated,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label exceeded limits or contained invalid bytes.
    BadLabel,
    /// A decoded name exceeded 255 octets.
    NameTooLong,
    /// Rdata length didn't match its type's requirements.
    BadRdata,
    /// A TXT segment exceeded 255 bytes at encode time.
    TxtSegmentTooLong,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadLabel => write!(f, "bad label"),
            WireError::NameTooLong => write!(f, "decoded name too long"),
            WireError::BadRdata => write!(f, "bad rdata"),
            WireError::TxtSegmentTooLong => write!(f, "TXT segment exceeds 255 bytes"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Suffix offsets an encoder keeps inline; a message with more distinct
/// name suffixes spills the rest to the heap.
const INLINE_SUFFIXES: usize = 64;

/// Start offsets (< 0x4000) of each distinct name suffix already emitted,
/// in emission order, for compression pointers. The first
/// [`INLINE_SUFFIXES`] sit in an inline array, so encoding a probe's
/// message allocates nothing for them.
struct SuffixOffsets {
    inline: [u16; INLINE_SUFFIXES],
    len: usize,
    spill: Vec<u16>,
}

impl SuffixOffsets {
    fn new() -> Self {
        SuffixOffsets {
            inline: [0; INLINE_SUFFIXES],
            len: 0,
            spill: Vec::new(),
        }
    }

    fn push(&mut self, off: u16) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = off;
                self.len = self.len.saturating_add(1);
            }
            None => self.spill.push(off),
        }
    }

    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.inline
            .iter()
            .take(self.len)
            .chain(&self.spill)
            .copied()
    }
}

struct Encoder<'a> {
    buf: &'a mut Vec<u8>,
    /// Suffix equality is checked against the wire bytes themselves, so
    /// a linear scan over offsets needs no per-label key.
    seen: SuffixOffsets,
}

impl<'a> Encoder<'a> {
    fn new(buf: &'a mut Vec<u8>) -> Self {
        buf.clear();
        buf.reserve(512);
        Encoder {
            buf,
            seen: SuffixOffsets::new(),
        }
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Does the (possibly pointer-compressed) name starting at `off` spell
    /// exactly the dotted, non-empty name `dotted`? Reads the
    /// already-written wire, chasing pointers.
    fn suffix_matches(&self, mut off: usize, dotted: &str) -> bool {
        let mut labels = dotted.split('.');
        loop {
            let Some(&len) = self.buf.get(off) else {
                return false;
            };
            if len & 0xC0 == 0xC0 {
                let Some(&lo) = self.buf.get(off.saturating_add(1)) else {
                    return false;
                };
                off = usize::from(len & 0x3F) << 8 | usize::from(lo);
                continue;
            }
            if len == 0 {
                return labels.next().is_none();
            }
            let Some(label) = labels.next() else {
                return false;
            };
            let start = off.saturating_add(1);
            let Some(end) = start.checked_add(usize::from(len)) else {
                return false;
            };
            let Some(bytes) = self.buf.get(start..end) else {
                return false;
            };
            if bytes != label.as_bytes() {
                return false;
            }
            off = end;
        }
    }

    /// Emit a (possibly compressed) name. Compression pointers may only
    /// reference offsets < 0x4000. First-emitted suffix wins.
    fn name(&mut self, name: &DnsName) {
        let mut rest = name.as_str();
        while !rest.is_empty() {
            let known = self
                .seen
                .iter()
                .find(|&off| self.suffix_matches(usize::from(off), rest));
            if let Some(off) = known {
                self.u16(0xC000 | off);
                return;
            }
            match u16::try_from(self.buf.len()) {
                Ok(off) if off < 0x4000 => self.seen.push(off),
                _ => {}
            }
            let (label, tail) = rest.split_once('.').unwrap_or((rest, ""));
            self.buf.push(label.len() as u8);
            self.buf.extend_from_slice(label.as_bytes());
            rest = tail;
        }
        self.buf.push(0);
    }

    fn rdata(&mut self, rdata: &RData) -> Result<(), WireError> {
        // Reserve the length field, fill after encoding.
        let len_pos = self.buf.len();
        self.u16(0);
        match rdata {
            RData::A(ip) => self.buf.extend_from_slice(&ip.octets()),
            RData::Aaaa(ip) => self.buf.extend_from_slice(&ip.octets()),
            RData::Ns(n) | RData::Cname(n) | RData::Ptr(n) => self.name(n),
            RData::Txt(strings) => {
                for s in strings {
                    if s.len() > 255 {
                        return Err(WireError::TxtSegmentTooLong);
                    }
                    self.buf.push(s.len() as u8);
                    self.buf.extend_from_slice(s.as_bytes());
                }
            }
            RData::Soa {
                mname,
                rname,
                serial,
                refresh,
                retry,
                expire,
                minimum,
            } => {
                self.name(mname);
                self.name(rname);
                self.u32(*serial);
                self.u32(*refresh);
                self.u32(*retry);
                self.u32(*expire);
                self.u32(*minimum);
            }
            RData::Other(_, bytes) => self.buf.extend_from_slice(bytes),
        }
        let rdlen = (self.buf.len() - len_pos - 2) as u16;
        // tft-lint: allow(no-panic-on-untrusted-bytes, reason = "encoder-owned buffer: u16(0) above reserved exactly these two bytes")
        self.buf[len_pos..len_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
        Ok(())
    }

    fn record(&mut self, r: &Record) -> Result<(), WireError> {
        self.name(&r.name);
        self.u16(r.rdata.rtype().code());
        self.u16(1); // class IN
        self.u32(r.ttl);
        self.rdata(&r.rdata)
    }
}

/// Encode a message to wire bytes. Thin owned wrapper over [`encode_into`].
pub fn encode(msg: &Message) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    encode_into(msg, &mut out)?;
    Ok(out)
}

/// Encode a message into `out` (cleared first): the scratch-buffer variant
/// of [`encode`]. A caller-owned buffer reused across probes makes the
/// steady-state encode path allocation-free apart from the small
/// compression-offset list. Byte-identical to `encode`.
// tft-lint: hot-root — runs once per DNS probe
pub fn encode_into(msg: &Message, out: &mut Vec<u8>) -> Result<(), WireError> {
    let mut e = Encoder::new(out);
    e.u16(msg.id);
    let f = &msg.flags;
    let mut flags: u16 = 0;
    if f.qr {
        flags |= 1 << 15;
    }
    if f.aa {
        flags |= 1 << 10;
    }
    if f.tc {
        flags |= 1 << 9;
    }
    if f.rd {
        flags |= 1 << 8;
    }
    if f.ra {
        flags |= 1 << 7;
    }
    flags |= f.rcode.code() as u16;
    e.u16(flags);
    e.u16(msg.questions.len() as u16);
    e.u16(msg.answers.len() as u16);
    e.u16(msg.authority.len() as u16);
    e.u16(msg.additional.len() as u16);
    for q in &msg.questions {
        e.name(&q.qname);
        e.u16(q.qtype.code());
        e.u16(1); // class IN
    }
    for r in msg
        .answers
        .iter()
        .chain(&msg.authority)
        .chain(&msg.additional)
    {
        e.record(r)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(((self.u8()? as u16) << 8) | self.u8()? as u16)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(((self.u16()? as u32) << 16) | self.u16()? as u32)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Decode a name, following compression pointers. Pointers must point
    /// strictly backwards, which also bounds the number of jumps. The name
    /// is assembled in a stack buffer and allocated once.
    fn name(&mut self) -> Result<DnsName, WireError> {
        let mut name = NameBuf::new();
        let mut pos = self.pos;
        let mut jumped = false;
        let mut min_ptr = self.pos; // each pointer must go strictly backwards
        loop {
            let len = usize::from(*self.buf.get(pos).ok_or(WireError::Truncated)?);
            let next = pos.checked_add(1).ok_or(WireError::Truncated)?;
            if len & 0xC0 == 0xC0 {
                let lo = usize::from(*self.buf.get(next).ok_or(WireError::Truncated)?);
                let target = ((len & 0x3F) << 8) | lo;
                if target >= min_ptr {
                    return Err(WireError::BadPointer);
                }
                if !jumped {
                    self.pos = next.checked_add(1).ok_or(WireError::Truncated)?;
                    jumped = true;
                }
                min_ptr = target;
                pos = target;
                continue;
            }
            if len & 0xC0 != 0 {
                // 0x40/0x80 label types are unsupported on the wire.
                return Err(WireError::BadLabel);
            }
            pos = next;
            if len == 0 {
                break;
            }
            if len > MAX_LABEL_LEN {
                return Err(WireError::BadLabel);
            }
            let end = pos.checked_add(len).ok_or(WireError::Truncated)?;
            let raw = self.buf.get(pos..end).ok_or(WireError::Truncated)?;
            pos = end;
            name.push(raw);
            if name.wire_len() > MAX_NAME_LEN {
                return Err(WireError::NameTooLong);
            }
            if !raw.iter().all(|b| b.is_ascii() && *b != b'.') {
                return Err(WireError::BadLabel);
            }
        }
        if !jumped {
            self.pos = pos;
        }
        name.into_name().ok_or(WireError::NameTooLong)
    }

    fn record(&mut self) -> Result<Record, WireError> {
        let name = self.name()?;
        let rtype = self.u16()?;
        let _class = self.u16()?;
        let ttl = self.u32()?;
        let rdlen = self.u16()? as usize;
        let rdata_end = self.pos + rdlen;
        if rdata_end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let rdata = match QType::from_code(rtype) {
            QType::A => {
                if rdlen != 4 {
                    return Err(WireError::BadRdata);
                }
                let &[a, b, c, d] = self.take(4)? else {
                    return Err(WireError::BadRdata);
                };
                RData::A(Ipv4Addr::new(a, b, c, d))
            }
            QType::Aaaa => {
                if rdlen != 16 {
                    return Err(WireError::BadRdata);
                }
                let b: [u8; 16] = self.take(16)?.try_into().map_err(|_| WireError::BadRdata)?;
                RData::Aaaa(Ipv6Addr::from(b))
            }
            QType::Ns => RData::Ns(self.name()?),
            QType::Cname => RData::Cname(self.name()?),
            QType::Ptr => RData::Ptr(self.name()?),
            QType::Txt => {
                let mut strings = Vec::new();
                while self.pos < rdata_end {
                    let len = self.u8()? as usize;
                    let raw = self.take(len)?;
                    strings.push(String::from_utf8_lossy(raw).into_owned());
                }
                RData::Txt(strings)
            }
            QType::Soa => {
                let mname = self.name()?;
                let rname = self.name()?;
                RData::Soa {
                    mname,
                    rname,
                    serial: self.u32()?,
                    refresh: self.u32()?,
                    retry: self.u32()?,
                    expire: self.u32()?,
                    minimum: self.u32()?,
                }
            }
            _ => RData::Other(rtype, self.take(rdlen)?.to_vec()),
        };
        if self.pos != rdata_end {
            return Err(WireError::BadRdata);
        }
        Ok(Record { name, ttl, rdata })
    }
}

/// Decode a wire message.
// tft-lint: hot-root — runs once per DNS probe
// tft-lint: wire-entry — parses untrusted bytes
pub fn decode(buf: &[u8]) -> Result<Message, WireError> {
    let mut d = Decoder { buf, pos: 0 };
    let id = d.u16()?;
    let flags = d.u16()?;
    let qd = d.u16()? as usize;
    let an = d.u16()? as usize;
    let ns = d.u16()? as usize;
    let ar = d.u16()? as usize;
    let mut questions = Vec::with_capacity(qd.min(32));
    for _ in 0..qd {
        let qname = d.name()?;
        let qtype = QType::from_code(d.u16()?);
        let _class = d.u16()?;
        questions.push(Question { qname, qtype });
    }
    let mut sections = [Vec::new(), Vec::new(), Vec::new()];
    for (section, count) in sections.iter_mut().zip([an, ns, ar]) {
        for _ in 0..count {
            section.push(d.record()?);
        }
    }
    let [answers, authority, additional] = sections;
    Ok(Message {
        id,
        flags: Flags {
            qr: flags & (1 << 15) != 0,
            aa: flags & (1 << 10) != 0,
            tc: flags & (1 << 9) != 0,
            rd: flags & (1 << 8) != 0,
            ra: flags & (1 << 7) != 0,
            rcode: Rcode::from_code((flags & 0x0f) as u8),
        },
        questions,
        answers,
        authority,
        additional,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    fn roundtrip(msg: &Message) -> Message {
        decode(&encode(msg).unwrap()).unwrap()
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(0x1234, name("probe.example.com"), QType::A);
        assert_eq!(roundtrip(&q), q);
    }

    #[test]
    fn response_roundtrip_all_rdata_types() {
        let q = Message::query(7, name("x.example.com"), QType::Any);
        let mut resp = Message::respond(
            &q,
            Rcode::NoError,
            vec![
                Record {
                    name: name("x.example.com"),
                    ttl: 300,
                    rdata: RData::A(Ipv4Addr::new(192, 0, 2, 1)),
                },
                Record {
                    name: name("x.example.com"),
                    ttl: 300,
                    rdata: RData::Aaaa("2001:db8::1".parse().unwrap()),
                },
                Record {
                    name: name("x.example.com"),
                    ttl: 60,
                    rdata: RData::Cname(name("y.example.com")),
                },
                Record {
                    name: name("x.example.com"),
                    ttl: 60,
                    rdata: RData::Txt(vec!["hello".into(), "world".into()]),
                },
            ],
        );
        resp.authority.push(Record {
            name: name("example.com"),
            ttl: 3600,
            rdata: RData::Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 2016041301,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        });
        resp.additional.push(Record {
            name: name("ns1.example.com"),
            ttl: 3600,
            rdata: RData::A(Ipv4Addr::new(198, 51, 100, 53)),
        });
        assert_eq!(roundtrip(&resp), resp);
    }

    #[test]
    fn nxdomain_response() {
        let q = Message::query(9, name("nxd.example.com"), QType::A);
        let r = Message::respond(&q, Rcode::NxDomain, vec![]);
        assert!(r.is_nxdomain());
        assert!(roundtrip(&r).is_nxdomain());
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = Message::query(1, name("a.long-zone-name.example.com"), QType::A);
        let mut resp = Message::respond(&q, Rcode::NoError, vec![]);
        for i in 0..5 {
            resp.answers.push(Record {
                name: name("a.long-zone-name.example.com"),
                ttl: 60,
                rdata: RData::A(Ipv4Addr::new(10, 0, 0, i)),
            });
        }
        let encoded = encode(&resp).unwrap();
        // Uncompressed: 12 (header) + 34 (question) + 5 × (30-octet name +
        // 14 octets of fixed fields + rdata) = 266. With compression each
        // answer's owner name is a 2-octet pointer: 12 + 34 + 5 × 16 = 126.
        assert_eq!(encoded.len(), 126, "compression not applied");
        assert_eq!(decode(&encoded).unwrap(), resp);
    }

    #[test]
    fn encode_into_matches_encode() {
        // The scratch-buffer path must be byte-identical to the owned path,
        // including compression pointers into partially-shared suffixes
        // (ns1/hostmaster share `example.com` with the qname's tail) and
        // when the scratch buffer carries garbage from a previous probe.
        let q = Message::query(7, name("x.sub.example.com"), QType::Any);
        let mut resp = Message::respond(
            &q,
            Rcode::NoError,
            vec![
                Record {
                    name: name("x.sub.example.com"),
                    ttl: 60,
                    rdata: RData::Cname(name("y.sub.example.com")),
                },
                Record {
                    name: name("y.sub.example.com"),
                    ttl: 60,
                    rdata: RData::A(Ipv4Addr::new(192, 0, 2, 7)),
                },
            ],
        );
        resp.authority.push(Record {
            name: name("example.com"),
            ttl: 3600,
            rdata: RData::Soa {
                mname: name("ns1.example.com"),
                rname: name("hostmaster.example.com"),
                serial: 2016041301,
                refresh: 7200,
                retry: 3600,
                expire: 1209600,
                minimum: 300,
            },
        });
        let mut scratch = b"garbage from a previous probe".to_vec();
        for msg in [&q, &resp] {
            encode_into(msg, &mut scratch).unwrap();
            assert_eq!(scratch, encode(msg).unwrap());
            assert_eq!(decode(&scratch).unwrap(), *msg);
        }
    }

    #[test]
    fn pointer_loop_is_rejected() {
        // Hand-craft: header + a name that is a pointer to itself at offset 12.
        let mut buf = vec![0u8; 12];
        buf[4] = 0;
        buf[5] = 1; // qdcount = 1
        buf.extend_from_slice(&[0xC0, 12]); // pointer to itself
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&buf), Err(WireError::BadPointer));
    }

    #[test]
    fn forward_pointer_is_rejected() {
        let mut buf = vec![0u8; 12];
        buf[5] = 1;
        buf.extend_from_slice(&[0xC0, 40]); // points past itself
        buf.extend_from_slice(&[0, 1, 0, 1]);
        assert_eq!(decode(&buf), Err(WireError::BadPointer));
    }

    #[test]
    fn truncated_messages_error_cleanly() {
        let q = Message::query(3, name("probe.example.com"), QType::A);
        let full = encode(&q).unwrap();
        for cut in 0..full.len() {
            // Every prefix must decode to an error, never panic.
            let _ = decode(&full[..cut]);
        }
        assert_eq!(decode(&full[..4]), Err(WireError::Truncated));
    }

    #[test]
    fn first_a_helper() {
        let q = Message::query(5, name("probe.example.com"), QType::A);
        let resp = Message::respond(
            &q,
            Rcode::NoError,
            vec![Record {
                name: name("probe.example.com"),
                ttl: 1,
                rdata: RData::A(Ipv4Addr::new(203, 0, 113, 9)),
            }],
        );
        assert_eq!(resp.first_a(), Some(Ipv4Addr::new(203, 0, 113, 9)));
        let nx = Message::respond(&q, Rcode::NxDomain, vec![]);
        assert_eq!(nx.first_a(), None);
    }

    #[test]
    fn txt_segment_too_long_rejected_at_encode() {
        let q = Message::query(5, name("t.example.com"), QType::Txt);
        let resp = Message::respond(
            &q,
            Rcode::NoError,
            vec![Record {
                name: name("t.example.com"),
                ttl: 1,
                rdata: RData::Txt(vec!["x".repeat(256)]),
            }],
        );
        assert_eq!(encode(&resp), Err(WireError::TxtSegmentTooLong));
    }
}
