//! NXDOMAIN hijackers (§4).
//!
//! When a name does not exist, a hijacker intercepts the NXDOMAIN response
//! and substitutes an A record pointing at a landing server that serves a
//! "search help" or advertising page. Hijacking can live at four locations —
//! the ISP's resolver, a public resolver, a transparent proxy on the path,
//! or software on the end host — and the *content* of the landing page (the
//! URLs it links to) is the analyzer's attribution signal (§4.3.3).

use std::net::Ipv4Addr;

/// Where the hijack is implemented. This is **ground truth** — the analyzer
/// never sees it and must infer it from observables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HijackVector {
    /// The ISP's recursive resolver rewrites NXDOMAIN.
    IspResolver,
    /// A public resolver (e.g. a Comodo/LookSafe-style service) rewrites it.
    PublicResolver,
    /// A transparent DNS proxy on the network path rewrites it, regardless
    /// of which resolver the host is configured to use.
    TransparentProxy,
    /// Software on the end host (anti-virus or malware) rewrites it.
    EndHostSoftware,
}

/// A family of shared hijack-page JavaScript. The paper found five ISPs
/// (Cox, Oi Fixo, TalkTalk, BT, Verizon) serving "nearly identical
/// JavaScript code", evidence of a common vendor appliance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JsFamily {
    /// The shared vendor appliance family.
    SharedVendor,
    /// Bespoke per-ISP code.
    Custom,
}

/// An NXDOMAIN hijacker profile.
#[derive(Debug, Clone)]
pub struct NxdomainHijacker {
    /// Where the hijack happens (ground truth).
    pub vector: HijackVector,
    /// Landing-page URLs embedded in the served content — e.g.
    /// `http://searchassist.verizon.com` — the attribution signal.
    pub landing_urls: Vec<String>,
    /// The IP address the substituted A record points to.
    pub landing_ip: Ipv4Addr,
    /// JavaScript family of the served page.
    pub js_family: JsFamily,
}

impl NxdomainHijacker {
    /// A hijacker serving pages that link to `landing_urls`.
    pub fn new(
        vector: HijackVector,
        landing_urls: Vec<String>,
        landing_ip: Ipv4Addr,
        js_family: JsFamily,
    ) -> Self {
        assert!(
            !landing_urls.is_empty(),
            "hijack pages must link somewhere — that is the whole point"
        );
        NxdomainHijacker {
            vector,
            landing_urls,
            landing_ip,
            js_family,
        }
    }

    /// The HTML page served in place of the browser's NXDOMAIN error for
    /// `queried_domain`.
    pub fn hijack_page(&self, queried_domain: &str) -> Vec<u8> {
        let mut html = String::with_capacity(1024);
        html.push_str("<!DOCTYPE html>\n<html><head><title>Search help</title>\n");
        match self.js_family {
            JsFamily::SharedVendor => {
                // The shared vendor script: identical across deploying ISPs,
                // parameterized only by the redirect target.
                html.push_str(
                    "<script type=\"text/javascript\">\n\
                     // barefruit-assist v2.1\n\
                     var srch = function(q){var u=redirectBase+'?q='+encodeURIComponent(q);\
                     window.location.replace(u);};\n",
                );
                html.push_str(&format!(
                    "var redirectBase='{}';\nsrch('{}');\n</script>\n",
                    self.landing_urls[0], queried_domain
                ));
            }
            JsFamily::Custom => {
                // Bespoke per-ISP implementations differ *structurally*,
                // not just in the target URL — each operator wrote (or
                // bought) different code. Derive a stable structural
                // variant from the landing URL so two deployments of the
                // same bespoke page never hash alike after normalization.
                let tag = substrate::hash::pinned_fnv64(self.landing_urls[0].as_bytes());
                let var = format!("r{:04x}", tag & 0xffff);
                match tag % 3 {
                    0 => html.push_str(&format!(
                        "<script type=\"text/javascript\">var {var}='{}?domain={}';\
                         window.location={var};</script>\n",
                        self.landing_urls[0], queried_domain
                    )),
                    1 => html.push_str(&format!(
                        "<script type=\"text/javascript\">function go_{var}(){{\
                         document.location.href='{}?q={}';}}go_{var}();</script>\n",
                        self.landing_urls[0], queried_domain
                    )),
                    _ => html.push_str(&format!(
                        "<script type=\"text/javascript\">/*{var}*/setTimeout(function(){{\
                         window.location.replace('{}#{}');}}, {});</script>\n",
                        self.landing_urls[0],
                        queried_domain,
                        tag % 97
                    )),
                }
            }
        }
        html.push_str("</head><body>\n<h1>This domain does not exist</h1>\n<ul>\n");
        for url in &self.landing_urls {
            html.push_str(&format!("<li><a href=\"{url}\">{url}</a></li>\n"));
        }
        html.push_str("</ul>\n</body></html>\n");
        html.into_bytes()
    }
}

/// Extract `http://` / `https://` URLs from an HTML body — the §4.3.3
/// content-analysis primitive. Exposed here so tests of hijack pages and the
/// analyzer share one implementation.
pub fn extract_urls(body: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(body);
    let mut urls = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let rest = &text[i..];
        let start = match rest.find("http://").or_else(|| rest.find("https://")) {
            Some(p) => i + p,
            None => break,
        };
        // Both schemes may be present; take the earlier occurrence.
        let start = match (rest.find("http://"), rest.find("https://")) {
            (Some(a), Some(b)) => i + a.min(b),
            _ => start,
        };
        let tail = &text[start..];
        let end = tail
            .char_indices()
            .find(|(_, c)| c.is_whitespace() || matches!(c, '"' | '\'' | '<' | '>' | ')' | ';'))
            .map(|(j, _)| j)
            .unwrap_or(tail.len());
        let url = &tail[..end];
        if url.len() > "http://".len() {
            urls.push(url.to_string());
        }
        i = start + end.max(1);
    }
    urls
}

/// The registrable domain of a URL (host with scheme/path stripped), used
/// for grouping in Table 5.
pub fn url_domain(url: &str) -> Option<String> {
    let rest = url
        .strip_prefix("http://")
        .or_else(|| url.strip_prefix("https://"))?;
    let host = rest.split(['/', '?', ':']).next()?;
    if host.is_empty() {
        None
    } else {
        Some(host.to_ascii_lowercase())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hijacker(urls: &[&str], family: JsFamily) -> NxdomainHijacker {
        NxdomainHijacker::new(
            HijackVector::IspResolver,
            urls.iter().map(|s| s.to_string()).collect(),
            Ipv4Addr::new(203, 0, 113, 1),
            family,
        )
    }

    #[test]
    fn page_contains_all_landing_urls() {
        let h = hijacker(
            &[
                "http://searchassist.verizon.example",
                "http://ads.verizon.example",
            ],
            JsFamily::Custom,
        );
        let page = h.hijack_page("mistyped-domain.example");
        let urls = extract_urls(&page);
        assert!(urls
            .iter()
            .any(|u| u.contains("searchassist.verizon.example")));
        assert!(urls.iter().any(|u| u.contains("ads.verizon.example")));
    }

    #[test]
    fn shared_vendor_js_is_identical_across_isps() {
        let a = hijacker(&["http://finder.cox.example"], JsFamily::SharedVendor);
        let b = hijacker(&["http://error.talktalk.example"], JsFamily::SharedVendor);
        let pa = String::from_utf8(a.hijack_page("x.example")).unwrap();
        let pb = String::from_utf8(b.hijack_page("x.example")).unwrap();
        // The vendor script body (minus the per-ISP redirect base) matches.
        assert!(pa.contains("barefruit-assist v2.1"));
        assert!(pb.contains("barefruit-assist v2.1"));
        let stable = |p: &str| {
            p.lines()
                .filter(|l| !l.contains("redirectBase='"))
                .collect::<Vec<_>>()
                .join("\n")
                .replace("finder.cox.example", "X")
                .replace("error.talktalk.example", "X")
        };
        assert_eq!(stable(&pa), stable(&pb));
    }

    #[test]
    fn custom_js_differs_from_shared() {
        let a = hijacker(&["http://a.example"], JsFamily::Custom);
        let page = String::from_utf8(a.hijack_page("x")).unwrap();
        assert!(!page.contains("barefruit-assist"));
    }

    #[test]
    fn page_embeds_queried_domain() {
        let h = hijacker(&["http://assist.example"], JsFamily::Custom);
        let page = String::from_utf8(h.hijack_page("nxd-probe-17.example")).unwrap();
        assert!(page.contains("nxd-probe-17.example"));
    }

    #[test]
    fn extract_urls_basics() {
        let html = br#"<a href="http://one.example/x">x</a> plain https://two.example text"#;
        let urls = extract_urls(html);
        assert_eq!(urls, vec!["http://one.example/x", "https://two.example"]);
    }

    #[test]
    fn extract_urls_handles_no_urls() {
        assert!(extract_urls(b"<html>nothing here</html>").is_empty());
        assert!(extract_urls(b"").is_empty());
    }

    #[test]
    fn extract_urls_stops_at_delimiters() {
        let html = b"url='http://a.example/path';next";
        assert_eq!(extract_urls(html), vec!["http://a.example/path"]);
    }

    #[test]
    fn url_domain_extraction() {
        assert_eq!(
            url_domain("http://midascdn.nervesis.example/x?y=1").as_deref(),
            Some("midascdn.nervesis.example")
        );
        assert_eq!(
            url_domain("https://Host.Example:8443/").as_deref(),
            Some("host.example")
        );
        assert_eq!(url_domain("not-a-url"), None);
        assert_eq!(url_domain("http://"), None);
    }

    #[test]
    #[should_panic(expected = "link somewhere")]
    fn empty_landing_urls_rejected() {
        NxdomainHijacker::new(
            HijackVector::IspResolver,
            vec![],
            Ipv4Addr::new(1, 2, 3, 4),
            JsFamily::Custom,
        );
    }
}
