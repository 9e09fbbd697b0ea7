//! The one reference the parity tests compare a featured session against.

use deepbase::prelude::*;

/// A bare session over a clone of `catalog`: no store, no score reuse,
/// and a hypothesis cache of 0 bytes, which keeps nothing. Every answer it
/// gives comes from a fresh streaming pass, which is what makes it the
/// reference; a *sequential* reference is one bare session per statement.
pub fn bare(catalog: &Catalog, inspection: &InspectionConfig) -> Session {
    Session::with_config(
        catalog.clone(),
        SessionConfig {
            inspection: inspection.clone(),
            reuse_scores: false,
            cache_bytes: 0,
            ..SessionConfig::default()
        },
    )
}
