//! Case-insensitive, order-preserving header map.
//!
//! Order preservation matters here: middlebox detection in the wild often
//! keys on header ordering and injected headers (e.g. Luminati's
//! `X-Hola-Timeline-Debug`), so the map must reproduce exactly what was
//! written.

use std::fmt;

/// An ordered multimap of HTTP headers with case-insensitive names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// An empty header map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header (keeps existing values with the same name).
    pub fn append(&mut self, name: &str, value: &str) {
        self.entries.push((name.to_string(), value.to_string()));
    }

    /// Set a header, removing any existing values with the same name.
    pub fn set(&mut self, name: &str, value: &str) {
        self.remove(name);
        self.append(name, value);
    }

    /// First value for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Remove all values for `name`. Returns how many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before - self.entries.len()
    }

    /// True if `name` is present.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Parse the `Content-Length` header.
    pub fn content_length(&self) -> Option<usize> {
        self.get("content-length")
            .and_then(|v| v.trim().parse().ok())
    }

    /// True if `Transfer-Encoding: chunked` is declared.
    pub fn is_chunked(&self) -> bool {
        self.get("transfer-encoding")
            .map(|v| v.to_ascii_lowercase().contains("chunked"))
            .unwrap_or(false)
    }
}

impl fmt::Display for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, v) in &self.entries {
            write!(f, "{n}: {v}\r\n")?;
        }
        Ok(())
    }
}

impl<'a> FromIterator<(&'a str, &'a str)> for Headers {
    fn from_iter<T: IntoIterator<Item = (&'a str, &'a str)>>(iter: T) -> Self {
        let mut h = Headers::new();
        for (n, v) in iter {
            h.append(n, v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_get() {
        let mut h = Headers::new();
        h.append("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
    }

    #[test]
    fn append_keeps_duplicates_in_order() {
        let mut h = Headers::new();
        h.append("Via", "proxy-a");
        h.append("Via", "proxy-b");
        let vias: Vec<_> = h.iter().collect();
        assert_eq!(vias, vec![("Via", "proxy-a"), ("Via", "proxy-b")]);
        assert_eq!(h.get("via"), Some("proxy-a"));
    }

    #[test]
    fn set_replaces() {
        let mut h = Headers::new();
        h.append("X", "1");
        h.append("X", "2");
        h.set("x", "3");
        assert_eq!(h.iter().collect::<Vec<_>>(), vec![("x", "3")]);
    }

    #[test]
    fn remove_reports_count() {
        let mut h = Headers::new();
        h.append("A", "1");
        h.append("a", "2");
        assert_eq!(h.remove("A"), 2);
        assert!(h.is_empty());
    }

    #[test]
    fn content_length_parse() {
        let mut h = Headers::new();
        h.set("Content-Length", " 42 ");
        assert_eq!(h.content_length(), Some(42));
        h.set("Content-Length", "nope");
        assert_eq!(h.content_length(), None);
    }

    #[test]
    fn chunked_detection() {
        let mut h = Headers::new();
        assert!(!h.is_chunked());
        h.set("Transfer-Encoding", "Chunked");
        assert!(h.is_chunked());
        h.set("Transfer-Encoding", "gzip, chunked");
        assert!(h.is_chunked());
    }

    #[test]
    fn display_preserves_order_and_casing() {
        let h: Headers = [("Host", "a.example"), ("X-Hola-Timeline-Debug", "z1")]
            .into_iter()
            .collect();
        assert_eq!(
            h.to_string(),
            "Host: a.example\r\nX-Hola-Timeline-Debug: z1\r\n"
        );
    }
}
