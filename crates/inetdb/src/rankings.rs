//! Per-country site rankings and the international university list.
//!
//! Stands in for the Alexa Top Sites dataset (paper ref. \[3\]) and the paper's "web sites
//! of 10 U.S. universities where IMC'16 PC members are affiliated". The
//! HTTPS experiment (§6) draws its *popular* and *international* site
//! classes from here. The paper could not obtain Alexa rankings for every
//! country (hence only 115 countries in the HTTPS study); we reproduce that
//! limitation by letting the world generator mark countries as unranked.

use crate::types::CountryCode;
use std::collections::BTreeMap;

/// Synthetic per-country top-site rankings plus the university domain list.
#[derive(Debug, Clone, Default)]
pub struct Rankings {
    per_country: BTreeMap<CountryCode, Vec<String>>,
    universities: Vec<String>,
}

impl Rankings {
    /// An empty rankings table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a country's ranked site list (most popular first).
    pub fn set_country(&mut self, country: CountryCode, sites: Vec<String>) {
        self.per_country.insert(country, sites);
    }

    /// Install the university domain list.
    pub fn set_universities(&mut self, domains: Vec<String>) {
        self.universities = domains;
    }

    /// The top `n` sites for a country, if rankings exist for it.
    pub fn top_sites(&self, country: CountryCode, n: usize) -> Option<&[String]> {
        self.per_country.get(&country).map(|v| &v[..n.min(v.len())])
    }

    /// All ranked countries.
    pub fn countries(&self) -> impl Iterator<Item = CountryCode> + '_ {
        self.per_country.keys().copied()
    }

    /// The university domains.
    pub fn universities(&self) -> &[String] {
        &self.universities
    }

    /// Generate a deterministic synthetic ranking for `country` with
    /// `n` sites, named `top<i>.<cc>.example`.
    pub fn generate_country(country: CountryCode, n: usize) -> Vec<String> {
        let cc = country.as_str().to_ascii_lowercase();
        (1..=n).map(|i| format!("top{i}.{cc}.example")).collect()
    }

    /// Generate the deterministic synthetic university list
    /// (`uni<i>.edu.example`).
    pub fn generate_universities(n: usize) -> Vec<String> {
        (1..=n).map(|i| format!("uni{i}.edu.example")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc(s: &str) -> CountryCode {
        CountryCode::new(s)
    }

    #[test]
    fn top_sites_truncates() {
        let mut r = Rankings::new();
        r.set_country(cc("US"), Rankings::generate_country(cc("US"), 25));
        assert_eq!(r.top_sites(cc("US"), 20).unwrap().len(), 20);
        assert_eq!(r.top_sites(cc("US"), 100).unwrap().len(), 25);
        assert!(r.top_sites(cc("FR"), 20).is_none());
    }

    #[test]
    fn generated_names_are_deterministic_and_country_scoped() {
        let a = Rankings::generate_country(cc("MY"), 3);
        let b = Rankings::generate_country(cc("MY"), 3);
        assert_eq!(a, b);
        assert_eq!(a[0], "top1.my.example");
        assert!(Rankings::generate_country(cc("GB"), 1)[0].contains(".gb."));
    }

    #[test]
    fn universities_list() {
        let mut r = Rankings::new();
        r.set_universities(Rankings::generate_universities(10));
        assert_eq!(r.universities().len(), 10);
        assert_eq!(r.universities()[0], "uni1.edu.example");
    }

    #[test]
    fn unranked_country_is_detectable() {
        let mut r = Rankings::new();
        r.set_country(cc("US"), vec!["a".into()]);
        assert!(r.top_sites(cc("US"), 1).is_some());
        assert!(r.top_sites(cc("KP"), 1).is_none());
        assert_eq!(r.countries().count(), 1);
    }
}
