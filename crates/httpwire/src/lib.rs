//! # httpwire — HTTP/1.1 implemented from scratch
//!
//! The HTTP plane of the reproduction:
//!
//! - [`uri`]: absolute URIs (`http://host/path`), the proxy request form;
//! - [`headers`]: case-insensitive, order-preserving header map;
//! - [`request`]: requests in origin, absolute, and authority (CONNECT)
//!   forms — the super proxy receives absolute-form GETs and CONNECTs to
//!   port 443, origin servers receive origin-form GETs;
//! - [`response`]: responses with content-length, chunked, and
//!   close-delimited body framing;
//! - [`chunked`]: the chunked transfer coding, including a streaming
//!   [`chunked::Encoder`] for serving bodies incrementally;
//! - [`status`]: status codes.
//!
//! The HTTP-modification experiment (§5) compares bodies byte-for-byte, so
//! parsing and serialization must be exact; the parsers are total (no
//! panics on arbitrary input), which the property tests enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunked;
pub mod headers;
mod parse;
pub mod request;
pub mod response;
pub mod status;
pub mod uri;

pub use headers::Headers;
pub use parse::ParseError;
pub use request::{Method, Request, Target};
pub use response::Response;
pub use status::StatusCode;
pub use uri::{Scheme, Uri, UriError};
