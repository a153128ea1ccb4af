//! Domain names: label sequences with RFC 1035 length limits and
//! case-insensitive equality.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Maximum length of one label (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum total length of a name on the wire (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified domain name, stored as its canonical lowercase dotted
/// form ("www.example.com"; the root is the empty string).
///
/// DNS names compare case-insensitively; we canonicalize to lowercase at
/// construction so `Eq`/`Hash` are plain string equality and hashing
/// everywhere (zone maps, query logs, dedup sets). `Ord` is label-wise,
/// most-specific label first: the order zone and override maps iterate in.
///
/// The text lives in one `Arc<str>`: [`parse`](DnsName::parse),
/// [`child`](DnsName::child) and the wire decoder build it through a
/// stack buffer and allocate once, and a `clone` into a query, cache key,
/// zone lookup or log entry is a refcount bump. No label contains a dot
/// (both constructors reject it), so splitting on dots recovers the labels.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DnsName {
    text: Arc<str>,
}

/// Errors constructing a [`DnsName`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (consecutive dots or leading dot).
    EmptyLabel,
    /// A label exceeded 63 octets.
    LabelTooLong(String),
    /// The whole name exceeded 255 octets on the wire.
    NameTooLong,
    /// A label contained a byte outside the hostname-safe set.
    BadCharacter(char),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(l) => write!(f, "label too long: {l:?}"),
            NameError::NameTooLong => write!(f, "name exceeds 255 octets"),
            NameError::BadCharacter(c) => write!(f, "bad character in name: {c:?}"),
        }
    }
}

impl std::error::Error for NameError {}

/// A name under construction: the lowercase dotted form in a stack buffer
/// plus the wire length so far. A name whose wire form fits in 255 octets
/// has a dotted form of at most 253, so the buffer always holds a name
/// [`into_name`](NameBuf::into_name) accepts; past that, pushes only count.
pub(crate) struct NameBuf {
    buf: [u8; MAX_NAME_LEN],
    len: usize,
    wire_len: usize,
}

impl NameBuf {
    /// An empty name (the root), whose wire form is the terminating zero.
    pub(crate) fn new() -> Self {
        NameBuf {
            buf: [0; MAX_NAME_LEN],
            len: 0,
            wire_len: 1,
        }
    }

    /// Append `text` (one label, or a dotted run of valid labels),
    /// lowercased. Callers reject a non-ASCII label before `into_name`.
    pub(crate) fn push(&mut self, text: &[u8]) {
        // A dotted run of labels costs its length plus one octet on the
        // wire, exactly like a single label.
        self.wire_len = self.wire_len.saturating_add(text.len()).saturating_add(1);
        let sep = self.len > 0;
        let end = self
            .len
            .saturating_add(usize::from(sep))
            .saturating_add(text.len());
        let Some(dst) = self.buf.get_mut(self.len..end) else {
            // Too long for any valid name: write nothing more.
            self.len = usize::MAX;
            return;
        };
        let mut dst = dst.iter_mut();
        if sep {
            if let Some(d) = dst.next() {
                *d = b'.';
            }
        }
        for (d, s) in dst.zip(text) {
            *d = s.to_ascii_lowercase();
        }
        self.len = end;
    }

    /// Octets the name built so far takes on the wire.
    pub(crate) fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// Validate one presentation-format label and append it, with
    /// [`DnsName::parse`]'s error precedence: empty, then too long, then
    /// the first bad character.
    fn push_label(&mut self, label: &str) -> Result<(), NameError> {
        if label.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(label.to_string()));
        }
        // Hostname-safe plus underscore (seen in real zones) and '*'
        // (wildcard owner names).
        if let Some(c) = label
            .chars()
            .find(|&c| !(c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '*'))
        {
            return Err(NameError::BadCharacter(c));
        }
        self.push(label.as_bytes());
        Ok(())
    }

    /// The finished name in one allocation, or `None` if its wire form
    /// exceeds 255 octets.
    pub(crate) fn into_name(self) -> Option<DnsName> {
        if self.wire_len > MAX_NAME_LEN {
            return None;
        }
        // Pushed bytes are ASCII, so the text is valid UTF-8.
        let text = std::str::from_utf8(self.buf.get(..self.len)?).ok()?;
        Some(DnsName {
            text: Arc::from(text),
        })
    }
}

impl DnsName {
    /// The root name (zero labels).
    pub fn root() -> Self {
        DnsName {
            text: Arc::from(""),
        }
    }

    /// Parse from dotted notation ("www.example.com", trailing dot allowed).
    /// The first bad label's error wins over [`NameError::NameTooLong`].
    pub fn parse(s: &str) -> Result<Self, NameError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(DnsName::root());
        }
        let mut name = NameBuf::new();
        for label in s.split('.') {
            name.push_label(label)?;
        }
        name.into_name().ok_or(NameError::NameTooLong)
    }

    /// The canonical dotted form without a trailing dot ("" for the root).
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The one allocation holding [`as_str`](DnsName::as_str)'s text:
    /// evidence that names this name (a web-log host, a dataset's domain)
    /// clones this refcount instead of copying the text.
    pub fn as_arc(&self) -> &Arc<str> {
        &self.text
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        // The root's empty text would split into one empty label.
        self.text.split('.').filter(|l| !l.is_empty())
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True if this is the root name.
    pub fn is_root(&self) -> bool {
        self.text.is_empty()
    }

    /// Length of this name in wire encoding (uncompressed): one length octet
    /// per label plus the label bytes, plus the terminating zero octet.
    pub fn wire_len(&self) -> usize {
        if self.is_root() {
            1
        } else {
            self.text.len().saturating_add(2)
        }
    }

    /// True if `self` is a subdomain of `ancestor` (proper or equal).
    pub fn is_subdomain_of(&self, ancestor: &DnsName) -> bool {
        if ancestor.is_root() || self.text == ancestor.text {
            return true;
        }
        // A proper subdomain ends with ".ancestor".
        self.text
            .strip_suffix(&*ancestor.text)
            .is_some_and(|head| head.ends_with('.'))
    }

    /// The parent name (None at the root).
    pub fn parent(&self) -> Option<DnsName> {
        if self.is_root() {
            return None;
        }
        let rest = self.text.split_once('.').map_or("", |(_, rest)| rest);
        Some(DnsName {
            text: Arc::from(rest),
        })
    }

    /// Prepend a label, producing a child name: the same name as parsing
    /// `"{label}.{self}"`, built without formatting that string.
    pub fn child(&self, label: &str) -> Result<DnsName, NameError> {
        if self.is_root() {
            return DnsName::parse(label);
        }
        let mut name = NameBuf::new();
        for l in label.split('.') {
            name.push_label(l)?;
        }
        name.push(self.text.as_bytes());
        name.into_name().ok_or(NameError::NameTooLong)
    }

    /// Replace the leftmost label with `*` (None at the root).
    pub fn to_wildcard(&self) -> Option<DnsName> {
        if self.is_root() {
            return None;
        }
        let mut name = NameBuf::new();
        name.push(b"*");
        if let Some((_, rest)) = self.text.split_once('.') {
            name.push(rest.as_bytes());
        }
        name.into_name()
    }
}

impl Ord for DnsName {
    /// Label-wise, most-specific label first: the order of the names'
    /// label lists. A dot sorts below every label byte, which makes the
    /// byte order of the dotted forms agree with it.
    fn cmp(&self, other: &Self) -> Ordering {
        let key = |b: u8| (b != b'.', b);
        self.text.bytes().map(key).cmp(other.text.bytes().map(key))
    }
}

impl PartialOrd for DnsName {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        f.write_str(&self.text)
    }
}

impl FromStr for DnsName {
    type Err = NameError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::parse(s)
    }
}

impl substrate::json::ToJson for DnsName {
    fn to_json(&self) -> substrate::json::Json {
        substrate::json::Json::Str(self.to_string())
    }
}

impl substrate::json::FromJson for DnsName {
    fn from_json(v: &substrate::json::Json) -> Result<Self, substrate::json::JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| substrate::json::JsonError::shape("DnsName: expected string"))?;
        DnsName::parse(s).map_err(|e| substrate::json::JsonError::shape(format!("DnsName: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DnsName::parse("WWW.Example.COM").unwrap();
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn trailing_dot_is_accepted() {
        assert_eq!(
            DnsName::parse("example.com.").unwrap(),
            DnsName::parse("example.com").unwrap()
        );
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(
            DnsName::parse("FOO.bar").unwrap(),
            DnsName::parse("foo.BAR").unwrap()
        );
    }

    #[test]
    fn rejects_bad_names() {
        assert_eq!(DnsName::parse("a..b"), Err(NameError::EmptyLabel));
        assert!(matches!(
            DnsName::parse(&format!("{}.com", "x".repeat(64))),
            Err(NameError::LabelTooLong(_))
        ));
        assert_eq!(
            DnsName::parse("sp ace.com"),
            Err(NameError::BadCharacter(' '))
        );
        let long = vec!["abcdefgh"; 32].join(".");
        assert_eq!(DnsName::parse(&long), Err(NameError::NameTooLong));
        // The first bad label's error wins, even past the 255-octet limit.
        assert_eq!(
            DnsName::parse(&format!("{long}.b@d")),
            Err(NameError::BadCharacter('@'))
        );
        assert_eq!(DnsName::parse("x..b@d"), Err(NameError::EmptyLabel));
    }

    #[test]
    fn subdomain_relation() {
        let parent = DnsName::parse("example.com").unwrap();
        let child = DnsName::parse("a.b.example.com").unwrap();
        assert!(child.is_subdomain_of(&parent));
        assert!(parent.is_subdomain_of(&parent));
        assert!(!parent.is_subdomain_of(&child));
        assert!(child.is_subdomain_of(&DnsName::root()));
    }

    #[test]
    fn parent_chain_terminates() {
        let mut n = DnsName::parse("a.b.c").unwrap();
        let mut hops = 0;
        while let Some(p) = n.parent() {
            n = p;
            hops += 1;
        }
        assert_eq!(hops, 3);
        assert!(n.is_root());
    }

    #[test]
    fn child_builds_subdomain() {
        let base = DnsName::parse("example.com").unwrap();
        let c = base.child("probe1").unwrap();
        assert_eq!(c.to_string(), "probe1.example.com");
        assert!(c.is_subdomain_of(&base));
        assert_eq!(base.child("A.B"), DnsName::parse("a.b.example.com"));
        assert_eq!(base.child("a."), Err(NameError::EmptyLabel));
        // 4 × 62 + 1 = 249 octets; a child adds its label plus one.
        let deep = DnsName::parse(&vec!["x".repeat(61); 4].join(".")).unwrap();
        assert_eq!(deep.child("abcde").unwrap().wire_len(), 255);
        assert_eq!(deep.child("abcdef"), Err(NameError::NameTooLong));
    }

    #[test]
    fn wildcard_handling() {
        let n = DnsName::parse("foo.example.com").unwrap();
        let w = n.to_wildcard().unwrap();
        assert_eq!(w.to_string(), "*.example.com");
        assert_eq!(
            DnsName::parse("foo")
                .unwrap()
                .to_wildcard()
                .unwrap()
                .to_string(),
            "*"
        );
        assert_eq!(DnsName::root().to_wildcard(), None);
    }

    #[test]
    fn wire_len_counts_length_octets() {
        // "ab.cd" -> 1+2 + 1+2 + 1 = 7
        assert_eq!(DnsName::parse("ab.cd").unwrap().wire_len(), 7);
        assert_eq!(DnsName::root().wire_len(), 1);
    }
}
