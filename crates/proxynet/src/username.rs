//! Luminati routing options.
//!
//! Luminati clients steer routing by appending parameters to their proxy
//! username: `-country-XX` selects the exit country, `-session-N` pins an
//! exit node for 60 seconds, and `-dns-remote` moves DNS resolution from
//! the super proxy to the exit node (§2.3). The simulated proxy takes the
//! same options as a [`UsernameOptions`] struct, so no username is
//! rendered or parsed.

use inetdb::CountryCode;

/// The routing options a Luminati client carries in its proxy username.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UsernameOptions {
    /// Base customer name (before the first option).
    pub customer: String,
    /// Requested exit-node country.
    pub country: Option<CountryCode>,
    /// Session pin: requests with the same number within 60 s reuse the
    /// same exit node.
    pub session: Option<u64>,
    /// Resolve DNS at the exit node instead of the super proxy.
    pub dns_remote: bool,
}

impl UsernameOptions {
    /// Options for a customer with no routing parameters.
    pub fn new(customer: &str) -> Self {
        UsernameOptions {
            customer: customer.to_string(),
            ..Default::default()
        }
    }

    /// Set the exit country.
    pub fn country(mut self, cc: CountryCode) -> Self {
        self.country = Some(cc);
        self
    }

    /// Pin a session.
    pub fn session(mut self, id: u64) -> Self {
        self.session = Some(id);
        self
    }

    /// Request remote (exit-node) DNS resolution.
    pub fn dns_remote(mut self) -> Self {
        self.dns_remote = true;
        self
    }
}
