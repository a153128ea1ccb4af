//! Study configuration: the billing customer and the group-size
//! thresholds that scale with the world.
//!
//! The paper's thresholds (≥100 nodes per country group, ≥10 per DNS
//! server, ≥5 per content domain) assume a 753k-node population. A scaled
//! world needs proportionally scaled thresholds or every group falls under
//! them; [`StudyConfig::scaled`] handles that. The study's fixed budgets and
//! shares are constants in the modules that own them: the sampling budget
//! and saturation rule in [`crate::crawl`], the HTTP experiment's per-AS
//! quotas in [`crate::http_exp`], the monitoring window in
//! [`crate::monitor_exp`], the per-node byte cap in [`crate::ethics`], and
//! the hijacking share in [`crate::analysis::dns`].

/// The billing customer and the scaled analysis thresholds of one study run.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Luminati customer name (billing key).
    pub customer: String,
    /// Country groups need at least this many measured nodes (paper: 100).
    pub min_nodes_per_country: usize,
    /// DNS-server groups need at least this many nodes (paper: 10).
    pub min_nodes_per_dns_server: usize,
    /// Content domains reported when seen on at least this many nodes
    /// (paper: 5).
    pub min_nodes_per_domain: usize,
    /// AS groups in the HTTP analysis need at least this many nodes
    /// (paper: 10).
    pub min_nodes_per_as: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            customer: "tft-study".into(),
            min_nodes_per_country: 100,
            min_nodes_per_dns_server: 10,
            min_nodes_per_domain: 5,
            min_nodes_per_as: 10,
        }
    }
}

impl StudyConfig {
    /// Thresholds proportional to a world built at `scale` (1.0 = paper
    /// scale). Group-size thresholds shrink but never below small floors
    /// that keep the statistics meaningful.
    pub fn scaled(scale: f64) -> StudyConfig {
        let t = |paper: usize, floor: usize| -> usize {
            (((paper as f64) * scale).round() as usize).max(floor)
        };
        StudyConfig {
            min_nodes_per_country: t(100, 8),
            min_nodes_per_dns_server: t(10, 3),
            min_nodes_per_domain: t(5, 2),
            min_nodes_per_as: t(10, 3),
            ..StudyConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_thresholds_shrink_with_floor() {
        let c = StudyConfig::scaled(0.1);
        assert_eq!(c.min_nodes_per_country, 10);
        assert_eq!(c.min_nodes_per_dns_server, 3);
        let tiny = StudyConfig::scaled(0.001);
        assert_eq!(tiny.min_nodes_per_country, 8, "floor applies");
    }

    #[test]
    fn paper_scale_matches_paper_thresholds() {
        let c = StudyConfig::scaled(1.0);
        assert_eq!(c.min_nodes_per_country, 100);
        assert_eq!(c.min_nodes_per_dns_server, 10);
        assert_eq!(c.min_nodes_per_domain, 5);
    }
}
