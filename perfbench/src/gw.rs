//! The client side of the gateway: request bytes and the classifier of
//! `Gateway::handle` answers.

use crate::span::Tracer;
use httpwire::{Method, Request, Response, Target};
use tft_serve::{StudyCache, StudyKey};
use worldgen::WorldSpec;

/// `POST /studies` carrying `spec` as JSON.
pub fn post_request(spec: &WorldSpec) -> Vec<u8> {
    let body = worldgen::to_json(spec)
        .expect("generated specs render as JSON")
        .into_bytes();
    let mut req = Request::origin_get("gateway", "/studies");
    req.method = Method::Post;
    req.headers.set("Content-Length", &body.len().to_string());
    req.body = body;
    req.encode()
}

/// `GET /studies/{id}` for the study addressed by `key`.
pub fn get_request(key: &StudyKey) -> Vec<u8> {
    Request::origin_get("gateway", &format!("/studies/{}", key.study_id())).encode()
}

/// What one `handle` call answered, as a client sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `POST` answered `200` from the report cache.
    Hit,
    /// `GET` answered `200` with a complete study.
    Fetch,
    /// `POST` admitted as a new study (`202`, `X-Cache: miss`).
    Admit,
    /// `POST` joined onto an in-flight study (`202`, `X-Cache: joined`).
    Join,
    /// `POST` refused with `429`.
    Shed,
    /// `GET` answered `200` with a study still running.
    Poll,
    /// `GET` of a finished study whose body is gone (`404`, resubmit).
    Lost,
    /// Anything else: a failure for every workload here.
    Other,
}

impl Class {
    /// The classes whose host time is reported per layer.
    pub const TIMED: [Class; 6] = [
        Class::Hit,
        Class::Fetch,
        Class::Admit,
        Class::Join,
        Class::Shed,
        Class::Poll,
    ];

    /// Name of the span of a `handle` call with this answer.
    pub fn span(self) -> &'static str {
        match self {
            Class::Hit => "tft-serve.gateway.hit",
            Class::Fetch => "tft-serve.gateway.fetch",
            Class::Admit => "tft-serve.gateway.admit",
            Class::Join => "tft-serve.gateway.join",
            Class::Shed => "tft-serve.gateway.shed",
            Class::Poll => "tft-serve.gateway.poll",
            Class::Lost => "tft-serve.gateway.lost",
            Class::Other => "tft-serve.gateway.other",
        }
    }

    /// Name of the root of a replayed `handle` call with this answer.
    pub fn replay_span(self) -> &'static str {
        match self {
            Class::Hit => "replay:tft-serve.gateway.hit",
            Class::Fetch => "replay:tft-serve.gateway.fetch",
            Class::Admit => "replay:tft-serve.gateway.admit",
            Class::Join => "replay:tft-serve.gateway.join",
            Class::Shed => "replay:tft-serve.gateway.shed",
            Class::Poll => "replay:tft-serve.gateway.poll",
            Class::Lost => "replay:tft-serve.gateway.lost",
            Class::Other => "replay:tft-serve.gateway.other",
        }
    }

    /// The per-layer metric of a [`Class::TIMED`] class: its median host
    /// time per `handle` call.
    pub fn metric(self) -> &'static str {
        match self {
            Class::Hit => "tft-serve.gateway.hit_us",
            Class::Fetch => "tft-serve.gateway.fetch_us",
            Class::Admit => "tft-serve.gateway.admit_us",
            Class::Join => "tft-serve.gateway.join_us",
            Class::Shed => "tft-serve.gateway.shed_us",
            Class::Poll | Class::Lost | Class::Other => "tft-serve.gateway.poll_us",
        }
    }
}

/// Per-layer metrics of the request path, and the replay spans they are
/// the median of (in µs).
pub const REQUEST_PATH: [(&str, &str); 5] = [
    ("httpwire.request_parse_us", "httpwire.request_parse"),
    ("worldgen.spec_parse_us", "worldgen.spec_parse"),
    ("tft-serve.cache.address_us", "tft-serve.cache.address"),
    ("tft-serve.cache.verify_us", "tft-serve.cache.verify"),
    ("httpwire.response_encode_us", "httpwire.response_encode"),
];

/// Replay the request path of one `handle` call — request `wire`, answered
/// `answer` of class `class` — through the same `pub` functions the gateway
/// calls, each in a span under the class's replay root: `Request::parse`;
/// for a `POST`, `worldgen::from_json` and `StudyKey::for_spec`; for a hit
/// or a fetch, the seal check of `StudyCache::report` / `peek_report` on
/// `replica`, a cache holding the same bodies; and `Response::encode`.
pub fn replay_request(
    tr: &mut Tracer,
    id: u64,
    wire: &[u8],
    answer: &[u8],
    class: Class,
    replica: &mut StudyCache,
) {
    let root = tr.enter(class.replay_span(), id);
    let req = tr.time("httpwire.request_parse", id, || Request::parse(wire));
    let mut key = None;
    if let Ok((req, _)) = req {
        if req.method == Method::Post {
            let text = String::from_utf8(req.body).unwrap_or_default();
            if let Ok(spec) = tr.time("worldgen.spec_parse", id, || worldgen::from_json(&text)) {
                key = Some(tr.time("tft-serve.cache.address", id, || StudyKey::for_spec(&spec)));
            }
        } else if let Target::Origin(path) = &req.target {
            key = path.strip_prefix("/studies/").and_then(StudyKey::parse_id);
        }
    }
    match (class, key) {
        (Class::Hit, Some(key)) => {
            tr.time("tft-serve.cache.verify", id, || {
                replica.report(&key).map(Vec::len)
            });
        }
        (Class::Fetch, Some(key)) => {
            tr.time("tft-serve.cache.verify", id, || {
                replica.peek_report(&key).map(Vec::len)
            });
        }
        _ => {}
    }
    if let Ok((resp, _)) = Response::parse(answer) {
        tr.time("httpwire.response_encode", id, || resp.encode());
    }
    tr.exit(root);
}

/// One classified answer.
#[derive(Debug)]
pub struct Answer {
    /// The class.
    pub class: Class,
    /// `Retry-After` seconds of a `429` (at least 1).
    pub retry_after_s: u64,
    /// The parsed response, when the bytes parsed.
    pub response: Option<Response>,
}

/// Classify the raw bytes `Gateway::handle` returned, by status code and by
/// the `X-Cache` and `X-Study-Complete` headers.
pub fn classify(raw: &[u8]) -> Answer {
    let Ok((resp, _)) = Response::parse(raw) else {
        return Answer {
            class: Class::Other,
            retry_after_s: 0,
            response: None,
        };
    };
    let header = |name: &str| resp.headers.get(name);
    let class = match (resp.status.0, header("X-Cache"), header("X-Study-Complete")) {
        (200, Some("hit"), _) => Class::Hit,
        (200, None, Some("true")) => Class::Fetch,
        (200, None, Some("false")) => Class::Poll,
        (202, Some("miss"), _) => Class::Admit,
        (202, Some("joined"), _) => Class::Join,
        (429, _, _) => Class::Shed,
        (404, _, _) if resp.body.starts_with(b"study result lost") => Class::Lost,
        _ => Class::Other,
    };
    let retry_after_s = match class {
        Class::Shed => header("Retry-After")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1)
            .max(1),
        _ => 0,
    };
    Answer {
        class,
        retry_after_s,
        response: Some(resp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpwire::StatusCode;

    fn canned(status: u16, headers: &[(&str, &str)], body: &[u8]) -> Vec<u8> {
        let mut resp = Response::new(StatusCode(status), body.to_vec());
        for (k, v) in headers {
            resp.headers.set(k, v);
        }
        resp.encode()
    }

    #[test]
    fn classifies_every_gateway_answer() {
        let cases: Vec<(Vec<u8>, Class)> = vec![
            (canned(200, &[("X-Cache", "hit")], b"tables"), Class::Hit),
            (
                canned(200, &[("X-Study-Complete", "true")], b"tables"),
                Class::Fetch,
            ),
            (
                canned(200, &[("X-Study-Complete", "false")], b"stage dns"),
                Class::Poll,
            ),
            (
                canned(202, &[("X-Cache", "miss")], b"accepted"),
                Class::Admit,
            ),
            (
                canned(202, &[("X-Cache", "joined")], b"accepted"),
                Class::Join,
            ),
            (canned(429, &[("Retry-After", "44")], b"full"), Class::Shed),
            (
                canned(404, &[], b"study result lost; resubmit\n"),
                Class::Lost,
            ),
            (canned(404, &[], b"unknown study\n"), Class::Other),
            (canned(400, &[], b"invalid spec"), Class::Other),
            (b"not http at all".to_vec(), Class::Other),
        ];
        for (raw, want) in cases {
            assert_eq!(
                classify(&raw).class,
                want,
                "{}",
                String::from_utf8_lossy(&raw)
            );
        }
        assert_eq!(
            classify(&canned(429, &[("Retry-After", "44")], b"")).retry_after_s,
            44
        );
        assert_eq!(
            classify(&canned(429, &[("Retry-After", "soon")], b"")).retry_after_s,
            1
        );
    }

    #[test]
    fn classifies_a_live_gateway() {
        use netsim::SimTime;
        let mut gw = tft_serve::Gateway::new(tft_serve::GatewayConfig::default());
        let spec = worldgen::smoke_spec(11);
        let get = get_request(&StudyKey::for_spec(&spec));
        let post = post_request(&spec);
        let at = SimTime::from_millis;
        assert_eq!(classify(&gw.handle(&post, at(0))).class, Class::Admit);
        assert_eq!(classify(&gw.handle(&post, at(1))).class, Class::Join);
        assert_eq!(classify(&gw.handle(&get, at(2))).class, Class::Poll);
        let done = tft_serve::Gateway::cold_study_cost().as_millis() + 1;
        assert_eq!(classify(&gw.handle(&get, at(done))).class, Class::Fetch);
        assert_eq!(classify(&gw.handle(&post, at(done + 1))).class, Class::Hit);
    }
}
